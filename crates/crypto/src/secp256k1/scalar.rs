//! Arithmetic modulo the secp256k1 group order `n`.
//!
//! `n = 2^256 - D` with `D ≈ 2^129`, so wide values reduce by repeatedly
//! folding `hi·2^256 + lo → hi·D + lo`; three folds suffice for any 512-bit
//! input.

use crate::uint::{U256, U512};

/// The group order `n`.
pub const N: U256 =
    U256::from_be_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");

/// `D = 2^256 - n` (129 bits).
const D: U256 =
    U256::from_be_hex("000000000000000000000000000000014551231950b75fc4402da1732fc9bebf");

/// A scalar modulo the group order, kept fully reduced.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scalar(U256);

impl Scalar {
    /// Additive identity.
    pub const ZERO: Scalar = Scalar(U256::ZERO);
    /// Multiplicative identity.
    pub const ONE: Scalar = Scalar(U256::ONE);

    /// Builds a scalar, reducing mod n.
    pub fn from_u256(v: U256) -> Scalar {
        let mut v = v;
        while v >= N {
            v = v.wrapping_sub(&N);
        }
        Scalar(v)
    }

    /// Builds from big-endian bytes with reduction (as `bits2int` in
    /// RFC 6979 / Ethereum message-hash-to-scalar conversion).
    pub fn from_be_bytes_reduced(bytes: &[u8; 32]) -> Scalar {
        Scalar::from_u256(U256::from_be_bytes(bytes))
    }

    /// Builds from big-endian bytes, rejecting values >= n.
    pub fn from_be_bytes_checked(bytes: &[u8; 32]) -> Option<Scalar> {
        let v = U256::from_be_bytes(bytes);
        if v >= N {
            None
        } else {
            Some(Scalar(v))
        }
    }

    /// Builds from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar(U256::from_u64(v))
    }

    /// Builds from a 128-bit integer (always below n).
    pub fn from_u128(v: u128) -> Scalar {
        Scalar(U256::from_limbs([v as u64, (v >> 64) as u64, 0, 0]))
    }

    /// The canonical integer representative.
    #[inline]
    pub fn to_u256(self) -> U256 {
        self.0
    }

    /// Big-endian serialization.
    pub fn to_be_bytes(self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// True iff zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// True iff the representative exceeds `n/2` (a "high-s" value in ECDSA
    /// terms).
    pub fn is_high(&self) -> bool {
        self.0 > N.shr(1)
    }

    /// Scalar addition.
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        let (sum, carry) = self.0.overflowing_add(&rhs.0);
        let mut v = sum;
        if carry {
            // sum = actual - 2^256; add D to compensate (2^256 ≡ D mod n).
            v = v.wrapping_add(&D);
        }
        while v >= N {
            v = v.wrapping_sub(&N);
        }
        Scalar(v)
    }

    /// Scalar negation.
    pub fn neg(&self) -> Scalar {
        if self.is_zero() {
            Scalar::ZERO
        } else {
            Scalar(N.wrapping_sub(&self.0))
        }
    }

    /// Scalar subtraction.
    pub fn sub(&self, rhs: &Scalar) -> Scalar {
        self.add(&rhs.neg())
    }

    /// Scalar multiplication.
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        Scalar(reduce512(self.0.mul_wide(&rhs.0)))
    }

    /// Exponentiation by a 256-bit exponent.
    fn pow(&self, exp: &U256) -> Scalar {
        let mut result = Scalar::ONE;
        let bits = exp.bits();
        for i in (0..bits).rev() {
            result = result.mul(&result);
            if exp.bit(i) {
                result = result.mul(self);
            }
        }
        result
    }

    /// Multiplicative inverse via Fermat (`a^(n-2)`; n is prime).
    ///
    /// Returns `None` for zero.
    pub fn invert(&self) -> Option<Scalar> {
        if self.is_zero() {
            return None;
        }
        Some(self.pow(&N.wrapping_sub(&U256::from_u64(2))))
    }

    /// Montgomery batch inversion: inverts every non-zero scalar in place
    /// for one Fermat ladder plus `3(n-1)` multiplications — the
    /// amortization that removes the per-signature `k⁻¹` ladder from the
    /// batch signing path. Zero entries are left as zero.
    pub(crate) fn batch_invert(elems: &mut [Scalar]) {
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = Scalar::ONE;
        for e in elems.iter() {
            prefix.push(acc);
            if !e.is_zero() {
                acc = acc.mul(e);
            }
        }
        let Some(mut inv) = acc.invert() else {
            return;
        };
        for (e, pre) in elems.iter_mut().zip(prefix).rev() {
            if e.is_zero() {
                continue;
            }
            let e_inv = inv.mul(&pre);
            inv = inv.mul(e);
            *e = e_inv;
        }
    }

    /// The GLV endomorphism eigenvalue λ: `λ·(x, y) = (β·x, y)` for every
    /// curve point, with λ³ = 1 (mod n).
    pub const LAMBDA: Scalar = Scalar(U256::from_be_hex(
        "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72",
    ));

    /// Splits `k` into `(k1, k2)` with `k = k1 + λ·k2 (mod n)` and both
    /// magnitudes ≈ 128 bits, halving the doubling count of a scalar
    /// multiplication that exploits the endomorphism. Returns the two
    /// components as `(negated, magnitude)` pairs; the magnitudes are
    /// guaranteed < 2^129.
    ///
    /// Decomposition follows the lattice method with the canonical
    /// secp256k1 basis: `c_i = round(k·g_i / 2^384)`, `k2 = c1·(-b1) +
    /// c2·(-b2)`, `k1 = k - k2·λ`.
    pub(crate) fn split_glv(&self) -> GlvSplit {
        const G1: U256 =
            U256::from_be_hex("3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031");
        const G2: U256 =
            U256::from_be_hex("e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71");
        const MINUS_B1: Scalar = Scalar(U256::from_be_hex(
            "00000000000000000000000000000000e4437ed6010e88286f547fa90abfe4c3",
        ));
        const MINUS_B2: Scalar = Scalar(U256::from_be_hex(
            "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c",
        ));
        let c1 = Scalar::from_u256(mul_shift_384(&self.0, &G1)).mul(&MINUS_B1);
        let c2 = Scalar::from_u256(mul_shift_384(&self.0, &G2)).mul(&MINUS_B2);
        let k2 = c1.add(&c2);
        let k1 = self.sub(&k2.mul(&Scalar::LAMBDA));
        GlvSplit {
            k1: signed_magnitude(&k1),
            k2: signed_magnitude(&k2),
        }
    }
}

/// A GLV decomposition `k = ±|k1| + λ·(±|k2|)` with both magnitudes
/// ≈ 128 bits.
#[derive(Clone, Copy, Debug)]
pub struct GlvSplit {
    /// `(negated, magnitude)` of the λ⁰ component.
    pub k1: (bool, U256),
    /// `(negated, magnitude)` of the λ¹ component.
    pub k2: (bool, U256),
}

/// Interprets a reduced scalar as a signed value (negative when above
/// `n/2`) and returns `(negated, magnitude)`.
fn signed_magnitude(s: &Scalar) -> (bool, U256) {
    if s.is_high() {
        (true, s.neg().0)
    } else {
        (false, s.0)
    }
}

/// `round(a·b / 2^384)` — the lattice-rounding primitive of
/// [`Scalar::split_glv`]. The result fits well inside 129 bits for the
/// constants it is used with.
fn mul_shift_384(a: &U256, b: &U256) -> U256 {
    let product = a.mul_wide(b);
    let shifted = U256::from_limbs([product.limbs[6], product.limbs[7], 0, 0]);
    let round = (product.limbs[5] >> 63) & 1;
    shifted.wrapping_add(&U256::from_u64(round))
}

/// Width-`w` non-adjacent form: returns little-endian digits, each either
/// zero or odd with `|d| < 2^(w-1)`, such that `v = Σ dᵢ·2^i`. At most one
/// of any `w` consecutive digits is non-zero, so a scalar multiplication
/// pays ~`bits/(w+1)` additions.
pub(crate) fn wnaf_digits(v: &U256, width: u32) -> Vec<i32> {
    debug_assert!((2..=8).contains(&width));
    let window = 1u64 << width;
    let half = 1u64 << (width - 1);
    let mut v = *v;
    let mut digits = Vec::with_capacity(260);
    while !v.is_zero() {
        if v.is_odd() {
            let m = v.limbs[0] & (window - 1);
            let d = if m >= half {
                m as i64 - window as i64
            } else {
                m as i64
            };
            if d > 0 {
                v = v.wrapping_sub(&U256::from_u64(d as u64));
            } else {
                // |d| < 2^(w-1) and v < n keeps this far from wrapping.
                v = v.wrapping_add(&U256::from_u64((-d) as u64));
            }
            digits.push(d as i32);
        } else {
            digits.push(0);
        }
        v = v.shr(1);
    }
    digits
}

/// Reduces a 512-bit product modulo n by folding the high half.
fn reduce512(x: U512) -> U256 {
    let (mut lo, mut hi) = x.split();
    // Each fold: x = hi*D + lo. |hi*D| shrinks by ~127 bits per fold; after
    // three folds hi is zero for any 512-bit input.
    while !hi.is_zero() {
        let folded = hi.mul_wide(&D).add(&U512::from_u256(lo));
        let (l, h) = folded.split();
        lo = l;
        hi = h;
    }
    while lo >= N {
        lo = lo.wrapping_sub(&N);
    }
    lo
}

impl core::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Scalar(0x{})", self.0.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_plus_d_is_zero_mod_2_256() {
        let (sum, carry) = N.overflowing_add(&D);
        assert!(carry);
        assert!(sum.is_zero());
    }

    #[test]
    fn add_wraps() {
        let n_minus_1 = Scalar::from_u256(N.wrapping_sub(&U256::ONE));
        assert_eq!(n_minus_1.add(&Scalar::ONE), Scalar::ZERO);
        assert_eq!(n_minus_1.add(&Scalar::from_u64(3)), Scalar::from_u64(2));
    }

    #[test]
    fn add_max_operands() {
        // Largest possible reduced operands exercise the carry path.
        let a = Scalar::from_u256(N.wrapping_sub(&U256::ONE));
        let sum = a.add(&a);
        // 2(n-1) mod n = n - 2
        assert_eq!(sum, Scalar::from_u256(N.wrapping_sub(&U256::from_u64(2))));
    }

    #[test]
    fn mul_identity_and_commutativity() {
        let a = Scalar::from_be_bytes_reduced(&[0xAB; 32]);
        let b = Scalar::from_be_bytes_reduced(&[0x17; 32]);
        assert_eq!(a.mul(&Scalar::ONE), a);
        assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_near_order() {
        let n_minus_1 = Scalar::from_u256(N.wrapping_sub(&U256::ONE));
        // (n-1)^2 mod n = 1
        assert_eq!(n_minus_1.mul(&n_minus_1), Scalar::ONE);
    }

    #[test]
    fn reduce512_full_width() {
        // (n-1) * (n-1) exercised via mul; also reduce a max 512-bit value:
        // 2^512 - 1 mod n computed two ways.
        let max = U512 {
            limbs: [u64::MAX; 8],
        };
        let r = reduce512(max);
        // Cross-check: (2^256-1)*(2^256-1) + 2*(2^256-1) = 2^512 - 1.
        let m = U256::MAX;
        let a = Scalar::from_u256(m); // 2^256-1 mod n
        let expect = a.mul(&a).add(&a).add(&a);
        assert_eq!(Scalar(r), expect);
    }

    #[test]
    fn invert() {
        let a = Scalar::from_be_bytes_reduced(&[0x5A; 32]);
        let inv = a.invert().unwrap();
        assert_eq!(a.mul(&inv), Scalar::ONE);
        assert!(Scalar::ZERO.invert().is_none());
    }

    #[test]
    fn high_low_split() {
        assert!(!Scalar::ONE.is_high());
        let n_minus_1 = Scalar::from_u256(N.wrapping_sub(&U256::ONE));
        assert!(n_minus_1.is_high());
        // n/2 itself is not high; n/2 + 1 is.
        let half = Scalar::from_u256(N.shr(1));
        assert!(!half.is_high());
        assert!(half.add(&Scalar::ONE).is_high());
    }

    #[test]
    fn checked_parse_rejects_order() {
        assert!(Scalar::from_be_bytes_checked(&N.to_be_bytes()).is_none());
        let n_minus_1 = N.wrapping_sub(&U256::ONE);
        assert!(Scalar::from_be_bytes_checked(&n_minus_1.to_be_bytes()).is_some());
    }

    #[test]
    fn batch_invert_matches_invert() {
        let mut elems: Vec<Scalar> = (1u64..40).map(Scalar::from_u64).collect();
        elems.push(Scalar::from_u256(N.wrapping_sub(&U256::ONE)));
        let expect: Vec<Scalar> = elems.iter().map(|e| e.invert().unwrap()).collect();
        Scalar::batch_invert(&mut elems);
        assert_eq!(elems, expect);
    }

    #[test]
    fn batch_invert_skips_zeros() {
        let mut elems = vec![Scalar::from_u64(5), Scalar::ZERO, Scalar::from_u64(7)];
        Scalar::batch_invert(&mut elems);
        assert_eq!(elems[0], Scalar::from_u64(5).invert().unwrap());
        assert_eq!(elems[1], Scalar::ZERO);
        assert_eq!(elems[2], Scalar::from_u64(7).invert().unwrap());
        let mut zeros = vec![Scalar::ZERO; 2];
        Scalar::batch_invert(&mut zeros);
        assert_eq!(zeros, vec![Scalar::ZERO; 2]);
    }

    #[test]
    fn lambda_is_cube_root_of_unity() {
        let l = Scalar::LAMBDA;
        assert_eq!(l.mul(&l).mul(&l), Scalar::ONE);
        assert_ne!(l, Scalar::ONE);
    }

    fn reassemble(split: &GlvSplit) -> Scalar {
        let part = |&(neg, mag): &(bool, U256)| {
            let s = Scalar::from_u256(mag);
            if neg {
                s.neg()
            } else {
                s
            }
        };
        part(&split.k1).add(&part(&split.k2).mul(&Scalar::LAMBDA))
    }

    /// Edge scalars and 256 hash-spread ones (a wrong lattice constant still
    /// reassembles, but no longer halves the work on most scalars).
    #[test]
    fn glv_split_reconstructs_and_is_short() {
        let samples = [
            Scalar::from_u64(1),
            Scalar::from_u64(0xDEAD_BEEF),
            Scalar::from_be_bytes_reduced(&[0xA7; 32]),
            Scalar::from_be_bytes_reduced(&[0x13; 32]),
            Scalar::from_u256(N.wrapping_sub(&U256::ONE)),
            Scalar::LAMBDA,
            Scalar::ZERO,
        ];
        let spread = (0u64..256)
            .map(|i| Scalar::from_be_bytes_reduced(&crate::hash::keccak256(&i.to_be_bytes())));
        let bound = U256::ONE.shl(129);
        for k in samples.into_iter().chain(spread) {
            let split = k.split_glv();
            assert_eq!(reassemble(&split), k, "{k:?}");
            assert!(split.k1.1 < bound, "k1 magnitude too large for {k:?}");
            assert!(split.k2.1 < bound, "k2 magnitude too large for {k:?}");
        }
    }

    #[test]
    fn wnaf_digits_reconstruct_value() {
        for (label, v) in [
            ("small", U256::from_u64(12345)),
            ("large", N.wrapping_sub(&U256::from_u64(3))),
            ("alternating", U256::from_be_bytes(&[0x55; 32])),
        ] {
            for width in [4u32, 5, 6] {
                let digits = wnaf_digits(&v, width);
                // Reconstruct Σ d_i 2^i in the scalar ring (values < n here).
                let mut acc = Scalar::ZERO;
                for &d in digits.iter().rev() {
                    acc = acc.add(&acc);
                    if d > 0 {
                        acc = acc.add(&Scalar::from_u64(d as u64));
                    } else if d < 0 {
                        acc = acc.sub(&Scalar::from_u64((-d) as u64));
                    }
                }
                assert_eq!(acc, Scalar::from_u256(v), "{label} w={width}");
                let half = 1i32 << (width - 1);
                for &d in &digits {
                    assert!(
                        d == 0 || (d % 2 != 0 && d.abs() < half),
                        "{label} digit {d}"
                    );
                }
            }
        }
        assert!(wnaf_digits(&U256::ZERO, 5).is_empty());
    }

    #[test]
    fn sub_neg_consistency() {
        let a = Scalar::from_u64(100);
        let b = Scalar::from_u64(250);
        assert_eq!(a.sub(&b).add(&b), a);
        assert_eq!(a.neg().neg(), a);
    }
}
