//! The User (reader) role (paper §4.2, read requests): fetches entries from
//! the Offchain Node and verifies them — stage-1 trust from the node's
//! signature and proof, stage-2 trust by checking the Root Record contract.

use std::sync::Arc;

use wedge_chain::{Address, Chain};
use wedge_contracts::RootRecord;

use crate::api::LogService;
use crate::error::CoreError;
use crate::node_key::NodeKey;
use crate::publisher_keys::PublisherKeys;
use crate::types::{AppendRequest, CommitPhase, EntryId, SignedResponse};

/// A verified read result.
#[derive(Clone, Debug)]
pub struct VerifiedEntry {
    /// Where the entry lives.
    pub entry_id: EntryId,
    /// The decoded original append request.
    pub request: AppendRequest,
    /// The trust level established for this read.
    pub phase: CommitPhase,
}

/// A reader client bound to one Offchain Node.
pub struct Reader {
    service: Arc<dyn LogService>,
    /// The node's key, remembering the last attestation it accepted.
    node_key: NodeKey,
    chain: Arc<Chain>,
    root_record: Address,
    /// Client-side cache of blockchain-committed digests. Sound because the
    /// Root Record contract writes each position at most once (Algorithm 1):
    /// a digest, once observed on-chain, can never change. Only committed
    /// (`Some`) results are cached.
    root_cache: parking_lot::Mutex<std::collections::HashMap<u64, wedge_crypto::Hash32>>,
    /// View calls actually issued (exposed for cache testing/metrics).
    chain_lookups: std::sync::atomic::AtomicU64,
    /// Publisher keys recovered so far: a publisher's later entries verify
    /// against the remembered key (same verdicts as a fresh recovery).
    publisher_keys: PublisherKeys,
}

impl Reader {
    /// Creates a reader.
    pub fn new(
        service: Arc<impl LogService + 'static>,
        chain: Arc<Chain>,
        root_record: Address,
    ) -> Reader {
        let service: Arc<dyn LogService> = service;
        let node_key = NodeKey::new(service.node_public_key());
        Reader {
            service,
            node_key,
            chain,
            root_record,
            root_cache: parking_lot::Mutex::new(std::collections::HashMap::new()),
            chain_lookups: std::sync::atomic::AtomicU64::new(0),
            publisher_keys: PublisherKeys::default(),
        }
    }

    /// Number of on-chain lookups this reader has performed (cache misses).
    pub fn chain_lookups(&self) -> u64 {
        self.chain_lookups
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// ECDSA verifications of the node's signature this reader has run: one
    /// per distinct attestation, not one per response.
    pub fn node_signature_checks(&self) -> u64 {
        self.node_key.ecdsa_checks()
    }

    /// Reads and stage-1-verifies one entry: node signature, proof position,
    /// proof-root consistency, and the embedded publisher signature.
    pub fn read(&self, id: EntryId) -> Result<VerifiedEntry, CoreError> {
        let response = self.service.read_entry(id)?;
        self.verify_response(&response)
    }

    /// Reads by `(publisher, sequence)`.
    pub fn read_by_sequence(
        &self,
        publisher: Address,
        sequence: u64,
    ) -> Result<VerifiedEntry, CoreError> {
        let response = self.service.read_entry_by_sequence(publisher, sequence)?;
        self.verify_response(&response)
    }

    /// Reads a group of entries in one operation (one round trip on
    /// networked transports).
    pub fn read_many(&self, ids: &[EntryId]) -> Vec<Result<VerifiedEntry, CoreError>> {
        self.service
            .read_entries(ids)
            .into_iter()
            .map(|r| r.and_then(|resp| self.verify_response(&resp)))
            .collect()
    }

    /// Full verification of a response, upgrading to
    /// [`CommitPhase::BlockchainCommitted`] when the Root Record digest
    /// matches (Definition 3.2 trust).
    pub fn verify_response(&self, response: &SignedResponse) -> Result<VerifiedEntry, CoreError> {
        self.node_key.verify(response)?;
        let request = response.request()?;
        self.publisher_keys.verify(&request)?;
        let phase = self.onchain_phase(response)?;
        if phase == CommitPhase::Pending {
            // Recorded digest exists but differs: the node lied. Surface it
            // as the punishable condition rather than a silent downgrade.
            return Err(CoreError::BlockchainMismatch {
                entry_id: response.entry_id,
            });
        }
        Ok(VerifiedEntry {
            entry_id: response.entry_id,
            request,
            phase,
        })
    }

    /// Determines the on-chain phase of a response's log position, caching
    /// committed digests (write-once on-chain ⇒ cache never stales).
    fn onchain_phase(&self, response: &SignedResponse) -> Result<CommitPhase, CoreError> {
        let log_id = response.entry_id.log_id;
        let cached = self.root_cache.lock().get(&log_id).copied();
        let root = match cached {
            Some(root) => Some(root),
            None => {
                self.chain_lookups
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let out = self
                    .chain
                    .view(self.root_record, &RootRecord::get_root_calldata(log_id))?;
                let root = RootRecord::decode_root(&out);
                if let Some(root) = root {
                    self.root_cache.lock().insert(log_id, root);
                }
                root
            }
        };
        Ok(match root {
            None => CommitPhase::OffchainCommitted,
            Some(root) if root == response.merkle_root => CommitPhase::BlockchainCommitted,
            Some(_) => CommitPhase::Pending, // sentinel for mismatch
        })
    }

    /// Stage-1-only verification (no chain round-trip) — the fast path a
    /// client uses when it accepts lazy (deterrence-based) trust.
    pub fn read_lazy(&self, id: EntryId) -> Result<VerifiedEntry, CoreError> {
        let response = self.service.read_entry(id)?;
        self.verify_lazy(response)
    }

    /// Lazy-trust read by `(publisher, sequence)`.
    pub fn read_lazy_by_sequence(
        &self,
        publisher: Address,
        sequence: u64,
    ) -> Result<VerifiedEntry, CoreError> {
        let response = self.service.read_entry_by_sequence(publisher, sequence)?;
        self.verify_lazy(response)
    }

    fn verify_lazy(
        &self,
        response: crate::types::SignedResponse,
    ) -> Result<VerifiedEntry, CoreError> {
        self.node_key.verify(&response)?;
        let request = response.request()?;
        self.publisher_keys.verify(&request)?;
        Ok(VerifiedEntry {
            entry_id: response.entry_id,
            request,
            phase: CommitPhase::OffchainCommitted,
        })
    }
}
