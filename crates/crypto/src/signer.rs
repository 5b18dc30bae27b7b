//! Message-level signing helpers and the [`Identity`] every role carries.

use crate::ecdsa::{recover_address, sign_prehashed, Signature};
use crate::error::CryptoError;
use crate::hash::keccak256;
use crate::keys::{Address, Keypair, PublicKey, SecretKey};

/// Signs an arbitrary message: the signature covers `keccak256(message)`.
pub fn sign_message(secret: &SecretKey, message: &[u8]) -> Signature {
    sign_prehashed(secret, &keccak256(message))
}

/// Recovers the signing address from a message-level signature.
pub fn recover_message_signer(message: &[u8], sig: &Signature) -> Result<Address, CryptoError> {
    recover_address(&keccak256(message), sig)
}

/// A signing identity: keypair plus message-level convenience methods.
///
/// This is the object the Offchain Node and every client role carry around.
#[derive(Clone, Debug)]
pub struct Identity {
    keypair: Keypair,
}

impl Identity {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdsa::verify_prehashed;

    #[test]
    fn message_sign_verify() {
        let id = Identity::from_seed(b"node");
        let sig = id.sign(b"payload");
        verify_prehashed(id.public_key(), &keccak256(b"payload"), &sig).unwrap();
        assert!(verify_prehashed(id.public_key(), &keccak256(b"other"), &sig).is_err());
    }

    #[test]
    fn message_recovery() {
        let id = Identity::from_seed(b"rec");
        let sig = id.sign(b"data");
        assert_eq!(recover_message_signer(b"data", &sig).unwrap(), id.address());
    }
}
