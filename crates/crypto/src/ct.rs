//! Constant-time comparison for secret-bearing bytes.
//!
//! `==` on slices short-circuits at the first mismatching byte, so the time
//! it takes leaks how long a prefix an attacker has guessed correctly — the
//! classic MAC-forgery side channel. Everything in this crate that compares
//! secret scalars, HMAC tags, or signature components goes through
//! `ct_eq` instead (enforced by lint L3, `cargo run -p xtask -- lint`).

/// Compares two byte slices in time independent of their contents.
///
/// Only the *lengths* are compared early — lengths are public for every
/// use in this crate (fixed-width scalars, 32-byte tags). The contents are
/// folded into a single accumulator with no data-dependent branches.
#[must_use]
pub(crate) fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff: u8 = 0;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    // Collapse without branching on secret data: 0 -> true.
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::ct_eq;

    #[test]
    fn equal_and_unequal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        let a = [0u8; 32];
        let mut b = [0u8; 32];
        assert!(ct_eq(&a, &b));
        b[31] = 1;
        assert!(!ct_eq(&a, &b));
    }

    #[test]
    fn every_single_bit_flip_detected() {
        let base = [0x5Au8; 16];
        for byte in 0..16 {
            for bit in 0..8 {
                let mut other = base;
                other[byte] ^= 1 << bit;
                assert!(!ct_eq(&base, &other));
            }
        }
    }
}
