//! The shard-aware router client.
//!
//! A [`ClusterClient`] fronts N shard backends (any [`LogService`] — an
//! in-process node or a `RemoteNode`) and
//! routes every operation to the shard that owns it: appends by publisher
//! address, reads by [`ClusterEntryId`] or `(publisher, sequence)`.
//! Cross-shard batch reads fan out concurrently, one thread per involved
//! shard.
//!
//! Backends sit behind per-shard `RwLock`s so a crashed shard can be
//! **failed over** in place ([`ClusterClient::replace_shard`]): in-flight
//! operations finish against the old backend's `Arc`, new ones pick up the
//! replacement — no router restart, no re-routing of the other shards.

use std::sync::Arc;

use parking_lot::RwLock;
use wedge_core::node::ReplyFn;
use wedge_core::{AppendRequest, CoreError, LogService, SignedResponse};
use wedge_crypto::keys::Address;
use wedge_crypto::PublicKey;

use crate::shard::{ClusterEntryId, ShardMap};

/// Routes cluster operations to the shard that owns them.
pub struct ClusterClient {
    map: ShardMap,
    backends: Vec<RwLock<Arc<dyn LogService>>>,
}

impl ClusterClient {
    /// Builds a router over one backend per shard (at least one).
    pub fn new(backends: Vec<Arc<dyn LogService>>) -> ClusterClient {
        let map = ShardMap::new(backends.len());
        ClusterClient {
            map,
            backends: backends.into_iter().map(RwLock::new).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.backends.len()
    }

    /// The cluster's placement function.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// The shard owning `publisher`'s log.
    pub fn shard_for(&self, publisher: Address) -> usize {
        self.map.shard_of(publisher)
    }

    /// The current backend of `shard` (cloned out of the slot, so the
    /// caller keeps a stable handle across a concurrent failover).
    pub fn backend(&self, shard: usize) -> Arc<dyn LogService> {
        Arc::clone(&self.backends[shard % self.backends.len()].read())
    }

    /// Failover: swaps `shard`'s backend for a replacement. Operations
    /// already holding the old `Arc` finish against it; everything routed
    /// afterwards uses the new backend.
    pub fn replace_shard(&self, shard: usize, backend: Arc<dyn LogService>) {
        *self.backends[shard % self.backends.len()].write() = backend;
    }

    /// The signing key of the node behind `shard` (for response
    /// verification).
    pub fn node_public_key(&self, shard: usize) -> PublicKey {
        self.backend(shard).node_public_key()
    }

    /// Submits one append to the owning shard; `reply` fires at batch
    /// flush. Returns the shard it was routed to.
    pub fn submit(&self, request: AppendRequest, reply: ReplyFn) -> Result<usize, CoreError> {
        let shard = self.shard_for(request.publisher);
        self.backend(shard).submit_request(request, reply)?;
        Ok(shard)
    }

    /// Flushes every shard's buffered submissions.
    pub fn flush(&self) {
        for slot in &self.backends {
            Arc::clone(&slot.read()).flush();
        }
    }

    /// Reads one entry from its shard.
    pub fn read(&self, id: ClusterEntryId) -> Result<SignedResponse, CoreError> {
        self.backend(id.shard).read_entry(id.id)
    }

    /// Looks an entry up by `(publisher, sequence)` on the owning shard.
    pub fn read_by_sequence(
        &self,
        publisher: Address,
        sequence: u64,
    ) -> Result<SignedResponse, CoreError> {
        self.backend(self.shard_for(publisher))
            .read_entry_by_sequence(publisher, sequence)
    }

    /// Reads a batch of entries, fanning out one thread per involved shard
    /// (each shard gets one `read_entries` round trip). Results come back
    /// in input order.
    pub fn read_many(&self, ids: &[ClusterEntryId]) -> Vec<Result<SignedResponse, CoreError>> {
        // Group input positions by shard, preserving each id's slot.
        let mut by_shard: Vec<(usize, Vec<usize>)> = Vec::new();
        for (slot, id) in ids.iter().enumerate() {
            let shard = id.shard % self.shards();
            match by_shard.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, slots)) => slots.push(slot),
                None => by_shard.push((shard, vec![slot])),
            }
        }
        let mut out: Vec<Option<Result<SignedResponse, CoreError>>> =
            (0..ids.len()).map(|_| None).collect();
        if by_shard.len() <= 1 {
            // Single-shard batch: no fan-out threads needed.
            for (shard, slots) in by_shard {
                let shard_ids: Vec<_> = slots.iter().map(|&s| ids[s].id).collect();
                let results = self.backend(shard).read_entries(&shard_ids);
                for (slot, result) in slots.into_iter().zip(results) {
                    out[slot] = Some(result);
                }
            }
        } else {
            type Gathered = Vec<(Vec<usize>, Vec<Result<SignedResponse, CoreError>>)>;
            let gathered: Gathered = std::thread::scope(|scope| {
                let handles: Vec<_> = by_shard
                    .into_iter()
                    .map(|(shard, slots)| {
                        let backend = self.backend(shard);
                        let shard_ids: Vec<_> = slots.iter().map(|&s| ids[s].id).collect();
                        (slots, scope.spawn(move || backend.read_entries(&shard_ids)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(slots, handle)| {
                        // A panicked shard thread degrades to per-slot
                        // errors; the other shards' results still flow.
                        let results = handle.join().unwrap_or_else(|_| {
                            slots
                                .iter()
                                .map(|_| {
                                    Err(CoreError::RequestRejected("shard read thread panicked"))
                                })
                                .collect()
                        });
                        (slots, results)
                    })
                    .collect()
            });
            for (slots, results) in gathered {
                for (slot, result) in slots.into_iter().zip(results) {
                    out[slot] = Some(result);
                }
            }
        }
        out.into_iter()
            .map(|r| r.unwrap_or(Err(CoreError::RequestRejected("unrouted cluster read"))))
            .collect()
    }
}
