//! HMAC-SHA256 (RFC 2104), used by the RFC 6979 deterministic ECDSA nonce
//! derivation.

use super::sha256::Sha256;

/// Block size of SHA-256 in bytes.
const BLOCK: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
pub(crate) fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Streaming HMAC-SHA256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Key XORed with the opad, kept for the outer pass.
    opad_key: [u8; BLOCK],
}

impl HmacSha256 {
    /// Creates a MAC keyed with `key` (any length; hashed if over one block).
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK];
        let mut opad = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            opad_key: opad,
        }
    }

    /// Absorbs message bytes.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub(crate) fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn long_key_is_hashed() {
        // RFC 4231 case 6: 131-byte key, exercised through the key > block
        // path.
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"wedgeblock";
        let msg: Vec<u8> = (0..200u8).collect();
        let mut mac = HmacSha256::new(key);
        mac.update(&msg[..77]);
        mac.update(&msg[77..]);
        assert_eq!(mac.finalize(), hmac_sha256(key, &msg));
    }
}
