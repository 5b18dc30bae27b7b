//! Hash primitives implemented from scratch: Keccak-256 (Ethereum flavour),
//! SHA-256, and HMAC-SHA256.
//!
//! Keccak-256 comes in three throughput tiers, all byte-identical (proven
//! against a naive loop-based sponge by the differential test suite):
//!
//! | path | use |
//! |---|---|
//! | [`keccak256`] / [`Keccak256`] | one-shot & streaming; sub-rate inputs auto-route to the fused path |
//! | [`keccak256_fixed`] / [`keccak256_prefixed`] | single-permutation digest for inputs under the 136-byte rate |
//! | [`keccak256_batch`] / [`keccak256_batch_pairs`] / [`keccak256_fixed_x4`] | ×4 lane-interleaved permutation, four digests per pass |

mod hmac;
mod keccak;
mod keccak4;
mod metrics;
mod sha256;

pub(crate) use hmac::{hmac_sha256, HmacSha256};
pub use keccak::{keccak256, keccak256_fixed, keccak256_prefixed, Keccak256};
pub use keccak4::{
    keccak256_batch, keccak256_batch_pairs, keccak256_batch_prefixed, keccak256_fixed_x4,
    keccak256_x4_prefixed,
};
pub use metrics::{hash_batches_x4, hashes_computed};
pub use sha256::sha256;

/// A 32-byte digest newtype used across the workspace.
///
/// Wraps the raw output of [`keccak256`]/[`sha256`] with hex formatting and
/// ordering, so digests are not confused with arbitrary byte arrays.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash32(pub [u8; 32]);

impl Hash32 {
    /// The all-zero digest.
    pub const ZERO: Hash32 = Hash32([0; 32]);

    /// Keccak-256 of `data`.
    pub fn keccak(data: &[u8]) -> Hash32 {
        Hash32(keccak256(data))
    }

    /// Raw bytes view.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// True iff every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 32]
    }

    /// Lowercase hex, 64 characters.
    pub(crate) fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Abbreviated hex (first 8 chars) for logs.
    pub(crate) fn short_hex(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl From<[u8; 32]> for Hash32 {
    fn from(v: [u8; 32]) -> Self {
        Hash32(v)
    }
}

impl AsRef<[u8]> for Hash32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for Hash32 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Hash32(0x{}…)", self.short_hex())
    }
}

impl core::fmt::Display for Hash32 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash32_display_and_short() {
        let h = Hash32::keccak(b"x");
        assert_eq!(h.to_hex().len(), 64);
        assert!(h.to_string().starts_with("0x"));
        assert_eq!(h.short_hex().len(), 8);
    }

    #[test]
    fn hash32_zero() {
        assert!(Hash32::ZERO.is_zero());
        assert!(!Hash32::keccak(b"").is_zero());
    }
}
