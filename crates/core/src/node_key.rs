//! The client's side of the Merkle-batched node signature: one ECDSA check
//! per distinct attestation instead of one per response.
//!
//! Every response of a batch (or of one `read_position` / `read_entries`
//! call) folds up to the same `(attested digest, signature)` pair, and a
//! [`NodeKey`] remembers the verdict on the last pair it checked. Nothing is
//! taken on trust: the fold is recomputed from each response's own fields,
//! and only a byte-identical pair skips the curve arithmetic.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use wedge_crypto::ecdsa::Signature;
use wedge_crypto::secp256k1::AffineTable;
use wedge_crypto::{recover_prehashed, verify_prehashed_with_table, PublicKey};

use crate::error::CoreError;
use crate::types::SignedResponse;

/// The last `(attested digest, signature)` pair checked, and the verdict.
type Memo = Mutex<Option<(([u8; 32], Signature), bool)>>;

/// The Offchain Node's public key as a client holds it: the key's
/// verification table plus the last attestation checked against it.
pub struct NodeKey {
    public: PublicKey,
    table: AffineTable,
    verified: Memo,
    recovered: Memo,
    ecdsa_checks: AtomicU64,
}

impl NodeKey {
    /// Builds the verification table for `public` (once per client).
    pub fn new(public: PublicKey) -> NodeKey {
        NodeKey {
            public,
            table: AffineTable::new(public.point()),
            verified: Mutex::new(None),
            recovered: Mutex::new(None),
            ecdsa_checks: AtomicU64::new(0),
        }
    }

    /// `check` on the response's attested pair, unless `memo` holds it.
    fn once(
        &self,
        memo: &Memo,
        response: &SignedResponse,
        check: impl FnOnce(&[u8; 32], &Signature) -> bool,
    ) -> bool {
        let attested = (response.attested_digest(), response.signature);
        if let Some((_, verdict)) = memo.lock().filter(|(last, _)| *last == attested) {
            return verdict;
        }
        self.ecdsa_checks.fetch_add(1, Ordering::Relaxed);
        let verdict = check(&attested.0, &attested.1);
        *memo.lock() = Some((attested, verdict));
        verdict
    }

    /// Full stage-1 verification of `response`: the node's signature over
    /// the root its digest folds up to, proof position, data proof.
    pub fn verify(&self, response: &SignedResponse) -> Result<(), CoreError> {
        let signed = self.once(&self.verified, response, |digest, signature| {
            verify_prehashed_with_table(&self.table, digest, signature).is_ok()
        });
        if !signed {
            return Err(CoreError::BadResponseSignature {
                entry_id: response.entry_id,
            });
        }
        response.verify_proof()
    }

    /// Whether the Punishment contract's `recoverSigner` would name this
    /// key for `response` — the precondition for it to count as evidence.
    pub fn recovers(&self, response: &SignedResponse) -> bool {
        self.once(&self.recovered, response, |digest, signature| {
            recover_prehashed(digest, signature).is_ok_and(|key| key == self.public)
        })
    }

    /// ECDSA verifications and recoveries actually run (memo misses).
    pub fn ecdsa_checks(&self) -> u64 {
        self.ecdsa_checks.load(Ordering::Relaxed)
    }
}
