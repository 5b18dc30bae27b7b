//! Request verification without key recovery (docs/perf.md, "Request
//! verification: remember the key").
//!
//! [`AppendRequest::verify`] recovers the publisher's key from every
//! signature. A verifier that meets the same publishers again remembers a
//! key once full recovery has produced it **twice** for its address, and
//! checks later signatures with [`verify_recoverable_batch`], whose accept
//! set is "recovery would return this key"; every cached reject is re-run
//! through full recovery, so verdicts are bit-identical to per-item
//! `verify()`. The gain needs publishers that come back: one seen once
//! costs a recovery, as it always did, plus two map operations.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use wedge_crypto::ecdsa::Signature;
use wedge_crypto::keys::Address;
use wedge_crypto::secp256k1::AffineTable;
use wedge_crypto::verify_recoverable_batch;
use wedge_pool::WorkPool;

use crate::error::CoreError;
use crate::types::AppendRequest;

/// A bounded memory of publisher keys, one per verifier (the node, each
/// [`crate::Reader`], each [`crate::Auditor`]) — never a global.
#[derive(Default)]
pub struct PublisherKeys {
    /// `None`: one valid request seen under this address. `Some`: its key's
    /// table, built at the second sighting, so that an identity used once
    /// never costs a table build.
    slots: Mutex<HashMap<Address, Option<Arc<AffineTable>>>>,
}

/// Verdicts of one [`PublisherKeys::verify_batch`] call.
#[derive(Debug, PartialEq, Eq)]
pub struct Verified {
    /// `verdicts[i]` is exactly `requests[i].verify().is_ok()`.
    pub verdicts: Vec<bool>,
    /// Full recoveries run: requests under an address not yet seen twice,
    /// and every cached reject. All other requests were cached accepts.
    pub recovered: u64,
}

/// How one request's verdict was reached: accepted against the remembered
/// key, accepted by a full recovery, or refused by one.
#[derive(Clone, Copy, PartialEq)]
enum Checked {
    Cached,
    Recovered,
    Rejected,
}

impl PublisherKeys {
    /// Most addresses remembered at once (a table is ~2.3 KiB). A new
    /// address arriving at capacity drops the whole map, and publishers
    /// still active re-enter at two recoveries each — so throw-away
    /// identities can neither pin more memory nor keep stale entries
    /// alive. A constant, not a knob: a larger working set pays what every
    /// request paid before.
    pub const CAPACITY: usize = 1024;

    /// Verifies one request; same verdict as [`AppendRequest::verify`].
    pub fn verify(&self, request: &AppendRequest) -> Result<(), CoreError> {
        match self.check_span(&[request])[..] {
            [Checked::Rejected] => Err(CoreError::BadRequestSignature {
                publisher: request.publisher,
            }),
            _ => Ok(()),
        }
    }

    /// Verifies a batch: requests are grouped by publisher, the grouped
    /// order is cut into one contiguous span per pool worker, and each
    /// span checks its per-publisher runs with one batched verify each.
    pub fn verify_batch(&self, requests: &[&AppendRequest], pool: &WorkPool) -> Verified {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| requests[i].publisher);
        let grouped: Vec<&AppendRequest> = order.iter().map(|&i| requests[i]).collect();
        let checked = pool.map_chunks(&grouped, |span| self.check_span(span));
        let mut verdicts = vec![false; requests.len()];
        let mut recovered = 0;
        for (i, checked) in order.into_iter().zip(checked) {
            verdicts[i] = checked != Checked::Rejected;
            recovered += u64::from(checked != Checked::Cached);
        }
        Verified {
            verdicts,
            recovered,
        }
    }

    /// Checks `span` (requests grouped by publisher). The span's signing
    /// digests are computed once, four per Keccak pass, and feed both the
    /// batch verifier and every recovery. A publisher's run goes through
    /// full recovery until its key has been sighted twice (earlier calls
    /// count); the rest of the run goes through the batch verifier, and
    /// only its rejects through recovery.
    fn check_span(&self, span: &[&AppendRequest]) -> Vec<Checked> {
        let signed: Vec<([u8; 32], Signature)> = AppendRequest::signing_digests(span)
            .into_iter()
            .zip(span)
            .map(|(digest, request)| (digest, request.signature))
            .collect();
        let recover = |i: usize| span[i].recover_publisher(&signed[i].0);
        let mut out = Vec::with_capacity(span.len());
        let mut start = 0;
        while let Some(head) = span.get(start) {
            let publisher = head.publisher;
            let same = span[start..]
                .iter()
                .take_while(|r| r.publisher == publisher);
            let mut run = start..start + same.count();
            start = run.end;
            let slot = self.slots.lock().get(&publisher).cloned();
            let mut sightings = usize::from(slot.is_some());
            let mut table = slot.flatten();
            while table.is_none() {
                let Some(i) = run.next() else {
                    break;
                };
                let Ok(key) = recover(i) else {
                    out.push(Checked::Rejected);
                    continue;
                };
                out.push(Checked::Recovered);
                sightings += 1;
                if sightings == 2 {
                    table = Some(Arc::new(AffineTable::new(key.point())));
                }
                self.sighted(publisher, table.clone());
            }
            let Some(table) = table.filter(|_| !run.is_empty()) else {
                continue;
            };
            let accepted = verify_recoverable_batch(&table, &signed[run.clone()]);
            out.extend(run.zip(accepted).map(|(i, ok)| {
                if ok {
                    Checked::Cached
                } else if recover(i).is_ok() {
                    Checked::Recovered
                } else {
                    Checked::Rejected
                }
            }));
        }
        out
    }

    /// Records that a full recovery produced `publisher`'s key, with its
    /// table at the second time. The caller built it: the lock covers map
    /// operations only.
    fn sighted(&self, publisher: Address, table: Option<Arc<AffineTable>>) {
        let mut slots = self.slots.lock();
        if slots.len() >= Self::CAPACITY && !slots.contains_key(&publisher) {
            slots.clear();
        }
        let slot = slots.entry(publisher).or_default();
        if slot.is_none() {
            *slot = table;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::keys::Keypair;

    fn request(publisher: usize, sequence: u64) -> AppendRequest {
        let kp = Keypair::from_seed(format!("publisher-keys-{publisher}").as_bytes());
        AppendRequest::new(&kp.secret, sequence, b"entry".to_vec())
    }

    /// More single-use identities than `CAPACITY`: the map stays bounded,
    /// none of them gets a table, and the active publisher they pushed out
    /// re-enters at two recoveries.
    #[test]
    fn single_use_flood_past_capacity() {
        let keys = PublisherKeys::default();
        let pool = WorkPool::with_available_parallelism();
        let active: Vec<AppendRequest> = (0..6).map(|seq| request(0, seq)).collect();
        let active: Vec<&AppendRequest> = active.iter().collect();
        assert_eq!(keys.verify_batch(&active, &WorkPool::new(1)).recovered, 2);
        assert_eq!(keys.verify_batch(&active, &pool).recovered, 0);

        let over = PublisherKeys::CAPACITY + 8;
        let flood: Vec<AppendRequest> = (1..=over).map(|i| request(i, 0)).collect();
        let flood: Vec<&AppendRequest> = flood.iter().collect();
        let verified = keys.verify_batch(&flood, &pool);
        assert!(verified.verdicts.iter().all(|ok| *ok));
        assert_eq!(verified.recovered, over as u64);
        {
            let slots = keys.slots.lock();
            assert!(slots.len() <= PublisherKeys::CAPACITY);
            assert!(slots.values().all(Option::is_none), "table for a one-shot");
        }
        assert_eq!(keys.verify_batch(&active, &WorkPool::new(1)).recovered, 2);
        assert_eq!(keys.verify_batch(&active, &pool).recovered, 0);
    }
}
