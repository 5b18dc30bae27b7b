//! Durable client-side storage for signed responses.
//!
//! A stage-1 response is only as good as the client's ability to present it
//! later: if the node equivocates, the *response is the evidence* (paper
//! §3.2). A publisher that discards responses after reading them forfeits
//! its ability to punish. [`ReceiptStore`] persists every response and
//! tracks a verification watermark, so `verify_pending` can sweep exactly
//! the responses whose stage-2 outcome is still unknown — across process
//! restarts.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use wedge_storage::{LogStore, StoreConfig};

use crate::error::CoreError;
use crate::types::SignedResponse;

/// Append-only persistence for a client's signed responses.
pub struct ReceiptStore {
    store: LogStore,
    /// Responses `< watermark` are stage-2-verified (or punished).
    watermark: AtomicU64,
    watermark_path: PathBuf,
}

impl ReceiptStore {
    /// Opens (or creates) a receipt store under `dir`, recovering the
    /// verification watermark.
    pub fn open(dir: impl AsRef<Path>) -> Result<ReceiptStore, CoreError> {
        let dir = dir.as_ref();
        let store = LogStore::open(dir.join("receipts"), StoreConfig::default())?;
        let watermark_path = dir.join("verified.watermark");
        let watermark = std::fs::read(&watermark_path)
            .ok()
            .and_then(|bytes| bytes.try_into().ok().map(u64::from_be_bytes))
            .unwrap_or(0)
            // A stale watermark beyond the store length (e.g. after manual
            // deletion of receipts) clamps down.
            .min(store.len());
        Ok(ReceiptStore {
            store,
            watermark: AtomicU64::new(watermark),
            watermark_path,
        })
    }

    /// Persists one response and returns its receipt id once an fsync
    /// covers it.
    pub fn save(&self, response: &SignedResponse) -> Result<u64, CoreError> {
        let id = self.store.append(&response.to_bytes())?;
        self.store.ensure_durable(id)?;
        Ok(id)
    }

    /// Persists a batch of responses, returning once one fsync covers them
    /// all.
    pub fn save_all(&self, responses: &[SignedResponse]) -> Result<(), CoreError> {
        let encoded: Vec<Vec<u8>> = responses.iter().map(|r| r.to_bytes()).collect();
        if !encoded.is_empty() {
            let first = self.store.append_batch(&encoded)?;
            let last = first + encoded.len() as u64 - 1;
            self.store.ensure_durable(last)?;
        }
        Ok(())
    }

    /// Responses saved.
    pub fn len(&self) -> u64 {
        self.store.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Responses not yet confirmed blockchain-committed.
    pub fn pending(&self) -> Result<Vec<SignedResponse>, CoreError> {
        let from = self.watermark.load(Ordering::Acquire);
        let mut out = Vec::with_capacity((self.store.len() - from) as usize);
        for id in from..self.store.len() {
            out.push(SignedResponse::from_bytes(&self.store.read(id)?)?);
        }
        Ok(out)
    }

    /// The newest stored response, if any — verified or not. A restarting
    /// publisher resumes sequence numbering after it; resuming from the
    /// *pending* set alone would restart at 0 once every receipt has been
    /// verified and collide with the publisher's own logged entries.
    pub fn last(&self) -> Result<Option<SignedResponse>, CoreError> {
        let Some(id) = self.store.len().checked_sub(1) else {
            return Ok(None);
        };
        Ok(Some(SignedResponse::from_bytes(&self.store.read(id)?)?))
    }

    /// Count of unverified responses.
    pub fn pending_count(&self) -> u64 {
        self.store.len() - self.watermark.load(Ordering::Acquire)
    }

    /// Advances the verification watermark to `up_to` (exclusive) and
    /// persists it.
    pub fn mark_verified(&self, up_to: u64) -> Result<(), CoreError> {
        let clamped = up_to.min(self.store.len());
        self.watermark.store(clamped, Ordering::Release);
        std::fs::write(&self.watermark_path, clamped.to_be_bytes())
            .map_err(wedge_storage::StorageError::from)?;
        Ok(())
    }

    /// The current watermark.
    pub fn verified_watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AppendRequest, EntryId};
    use wedge_crypto::Keypair;
    use wedge_merkle::MerkleTree;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wedge-receipts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn response(i: u64) -> SignedResponse {
        let node = Keypair::from_seed(b"receipt-node");
        let publisher = Keypair::from_seed(b"receipt-pub");
        let request = AppendRequest::new(&publisher.secret, i, format!("r{i}").into_bytes());
        let leaves = vec![request.leaf_bytes()];
        let tree = MerkleTree::from_leaves(&leaves).unwrap();
        SignedResponse::sign(
            &node.secret,
            EntryId {
                log_id: i,
                offset: 0,
            },
            tree.root(),
            tree.prove(0).unwrap(),
            leaves[0].clone(),
        )
    }

    #[test]
    fn save_pending_verify_cycle() {
        let dir = scratch("cycle");
        let store = ReceiptStore::open(&dir).unwrap();
        let responses: Vec<SignedResponse> = (0..5).map(response).collect();
        store.save_all(&responses).unwrap();
        assert_eq!(store.len(), 5);
        assert_eq!(store.pending_count(), 5);
        // Verify the first three.
        store.mark_verified(3).unwrap();
        let pending = store.pending().unwrap();
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].entry_id.log_id, 3);
    }

    /// A saved response is evidence (Definition 3.1), so it must survive a
    /// client crash the moment `save`/`save_all` returns: no record may
    /// still be waiting for a group commit's neighbours.
    #[test]
    fn saved_receipts_are_durable_on_return() {
        let receipts = ReceiptStore::open(scratch("durable")).unwrap();
        // Durable through `len - 1` iff the covering fsync already ran, so
        // asking again performs none.
        let assert_all_durable = |what: &str| {
            let fsyncs = receipts.store.sync_stats().fsyncs;
            assert!(fsyncs >= 1, "{what}: nothing was ever synced");
            receipts.store.ensure_durable(receipts.len() - 1).unwrap();
            assert_eq!(
                receipts.store.sync_stats().fsyncs,
                fsyncs,
                "{what}: a saved receipt still waited for its fsync"
            );
        };
        receipts
            .save_all(&(0..5).map(response).collect::<Vec<_>>())
            .unwrap();
        assert_all_durable("save_all");
        receipts.save(&response(5)).unwrap();
        assert_all_durable("save");
        assert_eq!(receipts.len(), 6);
    }

    #[test]
    fn watermark_survives_restart() {
        let dir = scratch("restart");
        {
            let store = ReceiptStore::open(&dir).unwrap();
            store
                .save_all(&(0..4).map(response).collect::<Vec<_>>())
                .unwrap();
            store.mark_verified(2).unwrap();
        }
        let store = ReceiptStore::open(&dir).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.verified_watermark(), 2);
        assert_eq!(store.pending_count(), 2);
        // Recovered responses still carry valid signatures.
        let node = Keypair::from_seed(b"receipt-node");
        for pending in store.pending().unwrap() {
            pending.verify(&node.public).unwrap();
        }
    }

    #[test]
    fn watermark_clamps_to_store() {
        let dir = scratch("clamp");
        let store = ReceiptStore::open(&dir).unwrap();
        store.save(&response(0)).unwrap();
        store.mark_verified(99).unwrap();
        assert_eq!(store.verified_watermark(), 1);
        assert_eq!(store.pending_count(), 0);
    }
}
