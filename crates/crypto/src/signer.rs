//! Message-level signing helpers and the parallel batch signing the
//! WedgeBlock prototype uses ("ECDSA signature and verification are applied
//! independently to a large number of data objects so they are executed
//! concurrently using all available CPU cores" — paper §5).

use crate::ecdsa::{
    recover_address, sign_prehashed, sign_prehashed_batch, verify_prehashed, Signature,
};
use crate::error::CryptoError;
use crate::hash::keccak256;
use crate::keys::{Address, Keypair, PublicKey, SecretKey};

/// Signs an arbitrary message: the signature covers `keccak256(message)`.
pub fn sign_message(secret: &SecretKey, message: &[u8]) -> Signature {
    sign_prehashed(secret, &keccak256(message))
}

/// Verifies a message-level signature.
pub fn verify_message(
    public: &PublicKey,
    message: &[u8],
    sig: &Signature,
) -> Result<(), CryptoError> {
    verify_prehashed(public, &keccak256(message), sig)
}

/// Recovers the signing address from a message-level signature.
pub fn recover_message_signer(message: &[u8], sig: &Signature) -> Result<Address, CryptoError> {
    recover_address(&keccak256(message), sig)
}

/// Signs many prehashed messages in parallel, using at most
/// `min(threads, available_parallelism)` workers from a
/// [`wedge_pool::WorkPool`] — the historical version spawned one thread
/// per chunk regardless of core count; the trimmed excess shows up in
/// [`wedge_pool::oversubscription_avoided`].
///
/// Output order matches input order. With `threads <= 1` the work runs
/// inline.
///
/// Each worker signs a contiguous chunk via
/// [`sign_prehashed_batch`], which shares one field inversion (nonce-point
/// normalization) and one scalar inversion (nonce inverses) across the
/// whole chunk — so the batch API is faster than per-item signing even on
/// one thread. Output bytes are identical to [`sign_prehashed`] per item.
pub fn sign_batch_parallel(
    secret: &SecretKey,
    hashes: &[[u8; 32]],
    threads: usize,
) -> Vec<Signature> {
    let pool = wedge_pool::WorkPool::new(threads);
    // One chunk per worker: the batch-inversion savings grow with chunk
    // length, so chunks are made as large as the parallelism allows.
    let chunk_len = hashes.len().div_ceil(pool.workers()).max(1);
    let chunks: Vec<&[[u8; 32]]> = hashes.chunks(chunk_len).collect();
    pool.map(&chunks, |chunk| sign_prehashed_batch(secret, chunk))
        .into_iter()
        .flatten()
        .collect()
}

/// A signing identity: keypair plus message-level convenience methods.
///
/// This is the object the Offchain Node and every client role carry around.
#[derive(Clone, Debug)]
pub struct Identity {
    keypair: Keypair,
}

impl Identity {
    /// Wraps a keypair.
    pub fn new(keypair: Keypair) -> Identity {
        Identity { keypair }
    }

    /// Deterministic identity from a seed label.
    pub fn from_seed(label: &[u8]) -> Identity {
        Identity {
            keypair: Keypair::from_seed(label),
        }
    }

    /// The identity's address.
    pub fn address(&self) -> Address {
        self.keypair.address
    }

    /// The identity's public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.keypair.public
    }

    /// The identity's secret key (for chain transaction signing).
    pub fn secret_key(&self) -> &SecretKey {
        &self.keypair.secret
    }

    /// Signs a message (keccak-prehashed).
    pub fn sign(&self, message: &[u8]) -> Signature {
        sign_message(&self.keypair.secret, message)
    }

    /// Verifies a message signature against this identity.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        verify_message(&self.keypair.public, message, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sign_verify() {
        let id = Identity::from_seed(b"node");
        let sig = id.sign(b"payload");
        id.verify(b"payload", &sig).unwrap();
        assert!(id.verify(b"other", &sig).is_err());
    }

    #[test]
    fn message_recovery() {
        let id = Identity::from_seed(b"rec");
        let sig = id.sign(b"data");
        assert_eq!(recover_message_signer(b"data", &sig).unwrap(), id.address());
    }

    #[test]
    fn batch_sign_matches_sequential() {
        let kp = Keypair::from_seed(b"batch");
        let hashes: Vec<[u8; 32]> = (0..37u32).map(|i| keccak256(&i.to_be_bytes())).collect();
        let seq = sign_batch_parallel(&kp.secret, &hashes, 1);
        let par = sign_batch_parallel(&kp.secret, &hashes, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.to_bytes(), b.to_bytes());
        }
    }

    #[test]
    fn chunked_batch_identical_across_thread_counts() {
        let kp = Keypair::from_seed(b"chunks");
        let hashes: Vec<[u8; 32]> = (0..23u32).map(|i| keccak256(&i.to_le_bytes())).collect();
        let expect: Vec<[u8; 65]> = hashes
            .iter()
            .map(|h| sign_prehashed(&kp.secret, h).to_bytes())
            .collect();
        for threads in [1usize, 2, 3, 5, 8] {
            let got: Vec<[u8; 65]> = sign_batch_parallel(&kp.secret, &hashes, threads)
                .iter()
                .map(|s| s.to_bytes())
                .collect();
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn batch_empty_and_single() {
        let kp = Keypair::from_seed(b"edge");
        assert!(sign_batch_parallel(&kp.secret, &[], 8).is_empty());
        let h = keccak256(b"one");
        let sigs = sign_batch_parallel(&kp.secret, &[h], 8);
        assert_eq!(sigs.len(), 1);
        verify_prehashed(&kp.public, &h, &sigs[0]).unwrap();
    }
}
