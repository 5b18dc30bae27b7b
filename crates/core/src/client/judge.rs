//! Algorithm 2's one decision, shared by every client role and by
//! [`crate::audit`]: given a node-signed response and the digest the Root
//! Record holds at its position, is the response consistent, not yet
//! adjudicable, or punishable?

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use wedge_chain::{Address, Chain};
use wedge_contracts::RootRecord;
use wedge_crypto::hash::Hash32;

use crate::error::CoreError;
use crate::types::SignedResponse;

/// Algorithm 2's verdict on one node-signed response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage2Verdict {
    /// The Root Record holds the signed root, and the proof reproduces it.
    Committed,
    /// No digest on-chain yet for this log position: nothing to adjudicate.
    NotYet,
    /// The Punishment contract seizes the escrow on this response.
    Punishable(EvidenceKind),
}

/// The two punishable inconsistencies of Algorithm 2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvidenceKind {
    /// The signed root differs from the blockchain-committed root (line 6).
    RootMismatch,
    /// The signed proof does not reproduce the signed root (line 10).
    BogusProof,
}

/// Algorithm 2 from line 5 on, for a response whose signature recovers to
/// the node (line 2 is the caller's), against `onchain`, the Root Record's
/// digest at the response's position.
pub fn judge(response: &SignedResponse, onchain: Option<Hash32>) -> Stage2Verdict {
    match judge_root(response, onchain) {
        Stage2Verdict::Committed
            if (response.proof)
                .verify(&response.leaf, &response.merkle_root)
                .is_err() =>
        {
            Stage2Verdict::Punishable(EvidenceKind::BogusProof)
        }
        verdict => verdict,
    }
}

/// Algorithm 2's lines 5–6 alone: [`judge`] for a response whose proof the
/// caller has already checked (`NodeKey::verify` does), so that only a root
/// mismatch can make it punishable.
pub(crate) fn judge_root(response: &SignedResponse, onchain: Option<Hash32>) -> Stage2Verdict {
    match onchain {
        None => Stage2Verdict::NotYet,
        Some(root) if root != response.merkle_root => {
            Stage2Verdict::Punishable(EvidenceKind::RootMismatch)
        }
        Some(_) => Stage2Verdict::Committed,
    }
}

/// The Root Record as a client reads it: one view call per position until
/// its digest appears, then the remembered digest. Sound because the
/// contract writes each position at most once (Algorithm 1), so a digest
/// once observed can never change; an empty position is asked again.
pub(crate) struct RootLookup {
    chain: Arc<Chain>,
    root_record: Address,
    committed: Mutex<HashMap<u64, Hash32>>,
    /// View calls actually issued.
    views: AtomicU64,
}

impl RootLookup {
    pub(crate) fn new(chain: Arc<Chain>, root_record: Address) -> RootLookup {
        RootLookup {
            chain,
            root_record,
            committed: Mutex::new(HashMap::new()),
            views: AtomicU64::new(0),
        }
    }

    /// The digest committed at `log_id`, if any.
    pub(crate) fn root(&self, log_id: u64) -> Result<Option<Hash32>, CoreError> {
        if let Some(root) = self.committed.lock().get(&log_id) {
            return Ok(Some(*root));
        }
        self.views.fetch_add(1, Ordering::Relaxed);
        let out = self
            .chain
            .view(self.root_record, &RootRecord::get_root_calldata(log_id))?;
        let root = RootRecord::decode_root(&out);
        if let Some(root) = root {
            self.committed.lock().insert(log_id, root);
        }
        Ok(root)
    }

    /// View calls issued so far (lookups the cache could not answer).
    pub(crate) fn views(&self) -> u64 {
        self.views.load(Ordering::Relaxed)
    }
}
