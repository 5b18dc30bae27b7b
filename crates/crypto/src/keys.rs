//! Key material and Ethereum-style addresses.

use crate::error::CryptoError;
use crate::hash::keccak256;
use crate::secp256k1::{mul_generator, Affine, Scalar};

/// A secp256k1 secret key (a non-zero scalar).
///
/// Equality is constant-time: see the manual [`PartialEq`] below.
#[derive(Clone, Copy)]
pub struct SecretKey(pub(crate) Scalar);

impl PartialEq for SecretKey {
    fn eq(&self, other: &SecretKey) -> bool {
        // A derived implementation would short-circuit limb by limb and
        // leak how much of the key matched; compare via ct_eq instead.
        crate::ct::ct_eq(&self.to_bytes(), &other.to_bytes())
    }
}

impl Eq for SecretKey {}

/// A secp256k1 public key (a non-identity curve point).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(pub(crate) Affine);

/// A 20-byte account address, derived Ethereum-style as the last 20 bytes of
/// `keccak256(x || y)` of the uncompressed public key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl SecretKey {
    /// Builds a secret key from 32 big-endian bytes.
    ///
    /// Rejects zero and values >= the group order.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<SecretKey, CryptoError> {
        let scalar = Scalar::from_be_bytes_checked(bytes).ok_or(CryptoError::InvalidSecretKey)?;
        if scalar.is_zero() {
            return Err(CryptoError::InvalidSecretKey);
        }
        Ok(SecretKey(scalar))
    }

    /// Derives a secret key deterministically from a seed label.
    ///
    /// Convenient for tests and reproducible simulations: hashes the label
    /// (with a retry counter, in the cosmically unlikely event of an invalid
    /// scalar) until a valid key is produced.
    pub fn from_seed(label: &[u8]) -> SecretKey {
        let mut counter: u32 = 0;
        loop {
            let mut input = Vec::with_capacity(label.len() + 4);
            input.extend_from_slice(label);
            input.extend_from_slice(&counter.to_be_bytes());
            let digest = keccak256(&input);
            if let Ok(sk) = SecretKey::from_bytes(&digest) {
                return sk;
            }
            counter += 1;
        }
    }

    /// Serializes to 32 big-endian bytes.
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Computes the corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(mul_generator(&self.0).to_affine())
    }

    /// The scalar view (crate-internal use by ECDSA).
    pub(crate) fn scalar(&self) -> &Scalar {
        &self.0
    }
}

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(…)")
    }
}

impl PublicKey {
    /// Wraps an affine point; rejects the identity.
    pub(crate) fn from_point(point: Affine) -> Result<PublicKey, CryptoError> {
        if point.infinity || !point.is_on_curve() {
            return Err(CryptoError::InvalidPublicKey);
        }
        Ok(PublicKey(point))
    }

    /// Parses a 64-byte uncompressed encoding (`x || y`).
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<PublicKey, CryptoError> {
        let point = Affine::from_bytes_uncompressed(bytes).ok_or(CryptoError::InvalidPublicKey)?;
        PublicKey::from_point(point)
    }

    /// Serializes to the 64-byte uncompressed encoding.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0.to_bytes_uncompressed()
    }

    /// The underlying curve point.
    pub fn point(&self) -> &Affine {
        &self.0
    }

    /// Derives the Ethereum-style address.
    pub fn address(&self) -> Address {
        let digest = keccak256(&self.to_bytes());
        let mut addr = [0u8; 20];
        addr.copy_from_slice(&digest[12..]);
        Address(addr)
    }
}

impl Address {
    /// The zero address (used as a burn/None sentinel, as on Ethereum).
    pub const ZERO: Address = Address([0; 20]);

    /// Raw bytes view.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Lowercase hex with `0x` prefix.
    pub(crate) fn to_hex(self) -> String {
        let hex: String = self.0.iter().map(|b| format!("{b:02x}")).collect();
        format!("0x{hex}")
    }
}

impl core::fmt::Debug for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Address({})", self.to_hex())
    }
}

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// A secret/public key pair with its derived address.
#[derive(Clone)]
pub struct Keypair {
    /// The signing key.
    pub secret: SecretKey,
    /// The verification key.
    pub public: PublicKey,
    /// Cached Ethereum-style address of `public`.
    pub address: Address,
}

impl Keypair {
    /// Builds a keypair from a secret key.
    pub fn from_secret(secret: SecretKey) -> Keypair {
        let public = secret.public_key();
        let address = public.address();
        Keypair {
            secret,
            public,
            address,
        }
    }

    /// Deterministic keypair from a seed label (see [`SecretKey::from_seed`]).
    pub fn from_seed(label: &[u8]) -> Keypair {
        Keypair::from_secret(SecretKey::from_seed(label))
    }
}

impl core::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Keypair({})", self.address.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secret_key_one_gives_generator() {
        let mut bytes = [0u8; 32];
        bytes[31] = 1;
        let sk = SecretKey::from_bytes(&bytes).unwrap();
        assert_eq!(*sk.public_key().point(), Affine::GENERATOR);
    }

    #[test]
    fn zero_key_rejected() {
        assert_eq!(
            SecretKey::from_bytes(&[0; 32]),
            Err(CryptoError::InvalidSecretKey)
        );
    }

    #[test]
    fn order_key_rejected() {
        let n = crate::secp256k1::scalar::N.to_be_bytes();
        assert_eq!(
            SecretKey::from_bytes(&n),
            Err(CryptoError::InvalidSecretKey)
        );
    }

    #[test]
    fn public_key_roundtrip() {
        let kp = Keypair::from_seed(b"roundtrip");
        let bytes = kp.public.to_bytes();
        assert_eq!(PublicKey::from_bytes(&bytes).unwrap(), kp.public);
    }

    #[test]
    fn invalid_public_key_rejected() {
        assert!(PublicKey::from_bytes(&[1u8; 64]).is_err());
    }

    #[test]
    fn addresses_are_deterministic_and_distinct() {
        let a = Keypair::from_seed(b"alice");
        let a2 = Keypair::from_seed(b"alice");
        let b = Keypair::from_seed(b"bob");
        assert_eq!(a.address, a2.address);
        assert_ne!(a.address, b.address);
    }

    #[test]
    fn address_formatting() {
        let addr = Keypair::from_seed(b"fmt").address;
        let hex = addr.to_hex();
        assert!(hex.starts_with("0x"));
        assert_eq!(hex.len(), 42);
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let kp = Keypair::from_seed(b"leak");
        assert_eq!(format!("{:?}", kp.secret), "SecretKey(…)");
    }
}
