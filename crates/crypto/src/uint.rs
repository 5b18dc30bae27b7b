//! Fixed-width unsigned big integers used by the secp256k1 implementation.
//!
//! Only the operations required by field/scalar arithmetic are provided:
//! carry-propagating addition/subtraction, widening multiplication into a
//! [`U512`], comparisons, shifts, bit access, and big-endian byte/hex
//! conversions. Limbs are stored little-endian (`limbs[0]` is least
//! significant) as `u64`.

/// A 256-bit unsigned integer with little-endian `u64` limbs.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U256 {
    /// Little-endian limbs: `limbs[0]` holds bits 0..64.
    pub limbs: [u64; 4],
}

/// A 512-bit unsigned integer, used as the widening-multiplication target.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U512 {
    /// Little-endian limbs.
    pub limbs: [u64; 8],
}

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value one.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The maximum representable value (2^256 - 1).
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; 4],
    };

    /// Constructs from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Constructs from little-endian limbs.
    #[inline]
    pub(crate) const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// Parses a big-endian hex string of exactly 64 nibbles (no `0x` prefix).
    ///
    /// Intended for compile-time curve constants; panics on malformed input.
    pub(crate) const fn from_be_hex(s: &str) -> Self {
        let bytes = s.as_bytes();
        assert!(bytes.len() == 64, "expected 64 hex characters");
        let mut limbs = [0u64; 4];
        let mut i = 0;
        while i < 64 {
            let c = bytes[i];
            let nibble = match c {
                b'0'..=b'9' => (c - b'0') as u64,
                b'a'..=b'f' => (c - b'a' + 10) as u64,
                b'A'..=b'F' => (c - b'A' + 10) as u64,
                // lint: allow(panic) — const fn evaluated at compile time
                // on curve-constant literals; a bad digit fails the build
                _ => panic!("invalid hex character"),
            };
            // Nibble `i` (from the most significant end) lands in bit
            // position 252 - 4*i, i.e. limb (252-4i)/64.
            let bitpos = 252 - 4 * i;
            limbs[bitpos / 64] |= nibble << (bitpos % 64);
            i += 1;
        }
        U256 { limbs }
    }

    /// True iff the value is zero.
    #[inline]
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// True iff the least-significant bit is set.
    #[inline]
    pub(crate) fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns bit `i` (0 = least significant).
    #[inline]
    pub(crate) fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    pub(crate) fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return 64 * i + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Addition with carry-out.
    #[inline]
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for (i, o) in out.iter_mut().enumerate() {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *o = s2;
            carry = c1 | c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// Wrapping addition (mod 2^256).
    #[inline]
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Subtraction with borrow-out.
    #[inline]
    pub(crate) fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for (i, o) in out.iter_mut().enumerate() {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            *o = d2;
            borrow = b1 | b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Wrapping subtraction (mod 2^256).
    #[inline]
    pub(crate) fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Widening multiplication: `self * rhs` as a full 512-bit product.
    pub fn mul_wide(&self, rhs: &U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let acc =
                    out[i + j] as u128 + (self.limbs[i] as u128) * (rhs.limbs[j] as u128) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            // carry < 2^64; falls into limb i+4 which is within bounds.
            let mut k = i + 4;
            while carry != 0 {
                let acc = out[k] as u128 + carry;
                out[k] = acc as u64;
                carry = acc >> 64;
                k += 1;
            }
        }
        U512 { limbs: out }
    }

    /// Multiplies by a `u64`, producing a 320-bit result `(low 256, high 64)`.
    pub(crate) fn mul_u64(&self, rhs: u64) -> (U256, u64) {
        let mut out = [0u64; 4];
        let mut carry = 0u128;
        for (i, o) in out.iter_mut().enumerate() {
            let acc = (self.limbs[i] as u128) * (rhs as u128) + carry;
            *o = acc as u64;
            carry = acc >> 64;
        }
        (U256 { limbs: out }, carry as u64)
    }

    /// Logical right shift by `n < 256` bits.
    pub fn shr(&self, n: usize) -> U256 {
        debug_assert!(n < 256);
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for (i, o) in out.iter_mut().enumerate().take(4 - limb_shift) {
            let mut v = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift != 0 && i + limb_shift + 1 < 4 {
                v |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            *o = v;
        }
        U256 { limbs: out }
    }

    /// Logical left shift by `n < 256` bits.
    pub fn shl(&self, n: usize) -> U256 {
        debug_assert!(n < 256);
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let mut v = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift != 0 && i > limb_shift {
                v |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Big-endian byte serialization (32 bytes).
    pub(crate) fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[(3 - i) * 8..(3 - i) * 8 + 8].copy_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Parses from big-endian bytes (32 bytes).
    pub fn from_be_bytes(bytes: &[u8; 32]) -> U256 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[(3 - i) * 8..(3 - i) * 8 + 8]);
            limbs[i] = u64::from_be_bytes(chunk);
        }
        U256 { limbs }
    }

    /// Lowercase hex string, 64 characters, big-endian.
    pub(crate) fn to_hex(self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.to_be_bytes() {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl core::fmt::Debug for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl U512 {
    /// The value zero.
    pub const ZERO: U512 = U512 { limbs: [0; 8] };

    /// Splits into `(low 256 bits, high 256 bits)`.
    #[inline]
    pub(crate) fn split(&self) -> (U256, U256) {
        let mut lo = [0u64; 4];
        let mut hi = [0u64; 4];
        lo.copy_from_slice(&self.limbs[..4]);
        hi.copy_from_slice(&self.limbs[4..]);
        (U256 { limbs: lo }, U256 { limbs: hi })
    }

    /// Constructs from low and high halves.
    #[inline]
    pub(crate) fn from_parts(lo: U256, hi: U256) -> U512 {
        let mut limbs = [0u64; 8];
        limbs[..4].copy_from_slice(&lo.limbs);
        limbs[4..].copy_from_slice(&hi.limbs);
        U512 { limbs }
    }

    /// Widens a `U256`.
    #[inline]
    pub(crate) fn from_u256(v: U256) -> U512 {
        U512::from_parts(v, U256::ZERO)
    }

    /// Wrapping 512-bit addition; overflow cannot occur for the reduction
    /// intermediates this type is used for (asserted in debug builds).
    pub(crate) fn add(&self, rhs: &U512) -> U512 {
        let mut out = [0u64; 8];
        let mut carry = false;
        for (i, o) in out.iter_mut().enumerate() {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *o = s2;
            carry = c1 | c2;
        }
        debug_assert!(!carry, "U512 addition overflow");
        U512 { limbs: out }
    }
}

impl core::fmt::Debug for U512 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (lo, hi) = self.split();
        write!(f, "U512(0x{}{})", hi.to_hex(), lo.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let v =
            U256::from_be_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
        assert_eq!(
            v.to_hex(),
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
        );
    }

    #[test]
    fn bytes_roundtrip() {
        let v = U256::from_limbs([1, 2, 3, 4]);
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn add_sub_inverse() {
        let a = U256::from_limbs([u64::MAX, 5, 0, 7]);
        let b = U256::from_limbs([9, u64::MAX, 1, 0]);
        let (sum, _) = a.overflowing_add(&b);
        let (diff, borrow) = sum.overflowing_sub(&b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn add_carry_propagates() {
        let a = U256::MAX;
        let (sum, carry) = a.overflowing_add(&U256::ONE);
        assert!(carry);
        assert_eq!(sum, U256::ZERO);
    }

    #[test]
    fn mul_wide_small() {
        let a = U256::from_u64(u64::MAX);
        let p = a.mul_wide(&a);
        let (lo, hi) = p.split();
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(lo.limbs, [1, u64::MAX - 1, 0, 0]);
        assert!(hi.is_zero());
    }

    #[test]
    fn mul_wide_max() {
        // (2^256-1)^2 = 2^512 - 2^257 + 1
        let p = U256::MAX.mul_wide(&U256::MAX);
        let (lo, hi) = p.split();
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256::MAX.wrapping_sub(&U256::ONE));
    }

    #[test]
    fn shifts() {
        let v =
            U256::from_be_hex("000000000000000000000000000000000000000000000000ffffffffffffffff");
        assert_eq!(v.shl(64).limbs, [0, u64::MAX, 0, 0]);
        assert_eq!(v.shl(1).limbs, [u64::MAX - 1, 1, 0, 0]);
        assert_eq!(v.shr(32).limbs, [0xFFFF_FFFF, 0, 0, 0]);
        assert_eq!(v.shl(192).shr(192), v);
    }

    #[test]
    fn ordering() {
        let a = U256::from_limbs([0, 0, 0, 1]);
        let b = U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0]);
        assert!(a > b);
        assert!(U256::ZERO < U256::ONE);
    }

    #[test]
    fn bit_access() {
        let v = U256::ONE.shl(200);
        assert!(v.bit(200));
        assert!(!v.bit(199));
        assert_eq!(v.bits(), 201);
        assert_eq!(U256::ZERO.bits(), 0);
    }

    #[test]
    fn mul_u64_carry() {
        let (lo, hi) = U256::MAX.mul_u64(2);
        assert_eq!(hi, 1);
        assert_eq!(lo, U256::MAX.wrapping_sub(&U256::ONE));
    }
}
