//! # wedge-crypto
//!
//! From-scratch cryptographic substrate for the WedgeBlock reproduction:
//!
//! - **Hashes**: Keccak-256 (Ethereum flavour), SHA-256, HMAC-SHA256.
//! - **secp256k1**: base-field and scalar arithmetic over hand-rolled 256-bit
//!   integers, Jacobian point operations, windowed scalar multiplication.
//! - **ECDSA**: RFC 6979 deterministic signing, verification, and — crucially
//!   for the Punishment contract's `recoverSigner` — public-key recovery.
//! - **Keys**: secret/public keypairs and Ethereum-style 20-byte addresses.
//! - **Batch helpers**: parallel batch signing mirroring the paper's
//!   multi-core prototype, and one batch verifier of recoverable signatures
//!   against a remembered key ([`verify_recoverable_batch`]): a run of 16
//!   or more is checked with one random-linear-combination equation — one
//!   double multiplication against one Pippenger multi-scalar
//!   multiplication over the nonce points the signatures carry (each y
//!   from the signer's [`Signature::nonce_y`] hint when it checks out on
//!   the curve, else from a square root), under coefficients hashed from
//!   the key and every item — and falls back to the per-item check for
//!   whatever part of a run fails it.
//!
//! Nothing here depends on external crypto crates; every primitive is
//! implemented in this crate and validated against published test vectors
//! (FIPS 180-4, RFC 4231, the Bitcoin-ecosystem RFC 6979 secp256k1 vectors)
//! plus property-based tests.
//!
//! # Security scope
//!
//! This implementation targets *functional* correctness for a research
//! reproduction. It is **not** hardened against side channels: scalar
//! multiplication is not constant-time, and secrets are not zeroized on
//! drop. Do not use it to protect real funds.
//!
//! ```
//! use wedge_crypto::{Identity, recover_message_signer};
//!
//! let node = Identity::from_seed(b"offchain-node");
//! let sig = node.sign(b"log entry digest");
//! assert_eq!(recover_message_signer(b"log entry digest", &sig).unwrap(), node.address());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ct;
pub mod ecdsa;
pub mod error;
pub mod hash;
pub mod keys;
pub mod secp256k1;
pub mod signer;
pub mod uint;

pub use ecdsa::{
    recover_prehashed, sign_prehashed, sign_prehashed_batch, verify_prehashed,
    verify_prehashed_with_table, verify_recoverable_batch, Signature,
};
pub use error::CryptoError;
pub use hash::{
    keccak256, keccak256_batch, keccak256_batch_prefixed, keccak256_fixed, keccak256_fixed_x4,
    keccak256_prefixed, keccak256_x4_prefixed, sha256, Hash32,
};
pub use keys::{Address, Keypair, PublicKey, SecretKey};
pub use signer::{recover_message_signer, sign_message, Identity};

// The naive secp256k1 oracles, shared with `tests/differential.rs`; they name
// this crate as `wedge_crypto`, as an integration test does.
#[cfg(test)]
extern crate self as wedge_crypto;
#[cfg(test)]
#[path = "../tests/naive_ec/mod.rs"]
mod naive_ec;
