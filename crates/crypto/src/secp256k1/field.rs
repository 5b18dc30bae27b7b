//! Arithmetic in the secp256k1 base field GF(p), with
//! `p = 2^256 - 2^32 - 977`.
//!
//! Reduction exploits the Mersenne-like shape of `p`: for a 512-bit product
//! `hi·2^256 + lo`, we have `2^256 ≡ C (mod p)` with `C = 2^32 + 977`, so the
//! product reduces to `hi·C + lo` in two cheap folding passes.

use crate::uint::U256;

/// The field modulus `p`.
pub const P: U256 =
    U256::from_be_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");

/// `2^256 mod p = 2^32 + 977`.
const C: u64 = 0x1_0000_03D1;

/// An element of GF(p), kept fully reduced (`0 <= value < p`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fe(U256);

impl Fe {
    /// Additive identity.
    pub const ZERO: Fe = Fe(U256::ZERO);
    /// Multiplicative identity.
    pub const ONE: Fe = Fe(U256::ONE);

    /// The curve equation constant `b = 7` in `y^2 = x^3 + 7`.
    pub const SEVEN: Fe = Fe(U256::from_limbs([7, 0, 0, 0]));

    /// Builds a field element, reducing mod p if necessary.
    pub fn from_u256(v: U256) -> Fe {
        let mut v = v;
        while v >= P {
            v = v.wrapping_sub(&P);
        }
        Fe(v)
    }

    /// Builds from big-endian bytes; values >= p are reduced.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Fe {
        Fe::from_u256(U256::from_be_bytes(bytes))
    }

    /// Parses a 64-nibble big-endian hex constant.
    pub const fn from_be_hex(s: &str) -> Fe {
        // Constants must already be < p; checked in tests.
        Fe(U256::from_be_hex(s))
    }

    /// Builds from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        Fe(U256::from_u64(v))
    }

    /// The canonical integer representative.
    #[inline]
    pub fn to_u256(self) -> U256 {
        self.0
    }

    /// Big-endian byte serialization.
    pub fn to_be_bytes(self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// True iff zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// True iff the canonical representative is odd.
    #[inline]
    pub fn is_odd(&self) -> bool {
        self.0.is_odd()
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, rhs: &Fe) -> Fe {
        let (sum, carry) = self.0.overflowing_add(&rhs.0);
        let mut v = sum;
        if carry || v >= P {
            v = v.wrapping_sub(&P);
        }
        Fe(v)
    }

    /// Field negation.
    #[inline]
    pub fn neg(&self) -> Fe {
        if self.is_zero() {
            Fe::ZERO
        } else {
            Fe(P.wrapping_sub(&self.0))
        }
    }

    /// Field subtraction.
    #[inline]
    pub(crate) fn sub(&self, rhs: &Fe) -> Fe {
        let (diff, borrow) = self.0.overflowing_sub(&rhs.0);
        Fe(if borrow { diff.wrapping_add(&P) } else { diff })
    }

    /// Field multiplication.
    pub fn mul(&self, rhs: &Fe) -> Fe {
        #[cfg(test)]
        MULS.with(|muls| muls.set(muls.get() + 1));
        let wide = self.0.mul_wide(&rhs.0);
        Fe(reduce_wide(wide.split()))
    }

    /// Field squaring.
    #[inline]
    pub fn square(&self) -> Fe {
        self.mul(self)
    }

    /// Multiplies by a small constant.
    pub(crate) fn mul_u64(&self, k: u64) -> Fe {
        let (lo, hi) = self.0.mul_u64(k);
        Fe(reduce_wide((lo, U256::from_u64(hi))))
    }

    /// Doubles the element.
    #[inline]
    pub(crate) fn double(&self) -> Fe {
        self.add(self)
    }

    /// Exponentiation by an arbitrary 256-bit exponent (square-and-multiply):
    /// the reference ladder the addition chains of `sqrt` and `invert` are
    /// held to.
    #[cfg(test)]
    pub(crate) fn pow(&self, exp: &U256) -> Fe {
        let mut result = Fe::ONE;
        let bits = exp.bits();
        for i in (0..bits).rev() {
            result = result.square();
            if exp.bit(i) {
                result = result.mul(self);
            }
        }
        result
    }

    /// Multiplicative inverse via Fermat's little theorem (`a^(p-2)`).
    ///
    /// `p − 2` is, in binary, 223 ones, a zero, 22 ones, `00001`, `011`,
    /// `01`; the addition chain over runs of ones (libsecp256k1's) reaches
    /// it in 255 squarings and 15 multiplications instead of the generic
    /// ladder's ~500 operations. Returns `None` for zero.
    pub fn invert(&self) -> Option<Fe> {
        if self.is_zero() {
            return None;
        }
        let [x2, x22, x223] = self.runs_of_ones();
        let t = x223.sqn(23).mul(&x22).sqn(5).mul(self);
        Some(t.sqn(3).mul(&x2).sqn(2).mul(self))
    }

    /// `self^(2^n)`: `n` successive squarings.
    fn sqn(&self, n: usize) -> Fe {
        (0..n).fold(*self, |acc, _| acc.square())
    }

    /// `[x2, x22, x223]` with `x_k = self^(2^k − 1)` (k ones in binary):
    /// the shared head of the [`Fe::invert`] and [`Fe::sqrt`] chains, whose
    /// exponents both open with 223 ones, a zero and 22 ones. 222
    /// squarings and 11 multiplications.
    fn runs_of_ones(&self) -> [Fe; 3] {
        let x2 = self.square().mul(self);
        let x3 = x2.square().mul(self);
        let x6 = x3.sqn(3).mul(&x3);
        let x9 = x6.sqn(3).mul(&x3);
        let x11 = x9.sqn(2).mul(&x2);
        let x22 = x11.sqn(11).mul(&x11);
        let x44 = x22.sqn(22).mul(&x22);
        let x88 = x44.sqn(44).mul(&x44);
        let x176 = x88.sqn(88).mul(&x88);
        let x220 = x176.sqn(44).mul(&x44);
        let x223 = x220.sqn(3).mul(&x3);
        [x2, x22, x223]
    }

    /// Square root, if one exists. Since `p ≡ 3 (mod 4)`, the candidate is
    /// `a^((p+1)/4)`; we verify and return `None` for non-residues.
    ///
    /// `(p+1)/4 = 2^254 − 2^30 − 244` is, in binary, 223 ones, a zero, 22
    /// ones, `0000`, `11`, `00` — so the addition chain over runs of ones
    /// reaches it in 253 squarings and 13 multiplications instead of the
    /// generic ladder's ~500 operations.
    pub fn sqrt(&self) -> Option<Fe> {
        let [x2, x22, x223] = self.runs_of_ones();
        let candidate = x223.sqn(23).mul(&x22).sqn(6).mul(&x2).sqn(2);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// Montgomery batch inversion: inverts every non-zero element of
    /// `elems` in place for the cost of **one** Fermat inversion plus
    /// `3(n-1)` multiplications, instead of one 270-operation addition
    /// chain per element. Zero entries are left as zero (matching the
    /// `invert() -> None` convention without disturbing their neighbours).
    pub(crate) fn batch_invert(elems: &mut [Fe]) {
        // Prefix products over the non-zero entries.
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = Fe::ONE;
        for e in elems.iter() {
            prefix.push(acc);
            if !e.is_zero() {
                acc = acc.mul(e);
            }
        }
        // One inversion of the grand product...
        let Some(mut inv) = acc.invert() else {
            // Every entry was zero; nothing to do.
            return;
        };
        // ...then walk backwards, peeling one element per step.
        for (e, pre) in elems.iter_mut().zip(prefix).rev() {
            if e.is_zero() {
                continue;
            }
            let e_inv = inv.mul(&pre);
            inv = inv.mul(e);
            *e = e_inv;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Field multiplications (squarings included) on this thread, so tests
    /// can pin what an algorithm costs in the unit it is built from.
    pub(crate) static MULS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Reduces a 512-bit value `(lo, hi)` to a canonical field element using
/// `2^256 ≡ C (mod p)`.
fn reduce_wide((lo, hi): (U256, U256)) -> U256 {
    // Fold 1: acc = lo + hi * C. hi*C < 2^289, so acc < 2^290; track the
    // overflow limbs exactly.
    let (hi_c, hi_c_carry) = hi.mul_u64(C);
    let (acc, carry1) = lo.overflowing_add(&hi_c);
    // overflow beyond 256 bits: hi_c_carry + carry1 (both small).
    let overflow = hi_c_carry + carry1 as u64; // < 2^34

    // Fold 2: acc += overflow * C. overflow*C < 2^98 fits well within U256.
    let (of_c_lo, of_c_hi) = U256::from_u64(overflow).mul_u64(C);
    debug_assert_eq!(of_c_hi, 0);
    let (mut acc, carry2) = acc.overflowing_add(&of_c_lo);
    if carry2 {
        // Extremely rare: one more fold of a single 2^256 ≡ C.
        acc = acc.wrapping_add(&U256::from_u64(C));
    }
    while acc >= P {
        acc = acc.wrapping_sub(&P);
    }
    acc
}

impl core::fmt::Debug for Fe {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fe(0x{})", self.0.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    #[test]
    fn modulus_shape() {
        // p = 2^256 - C exactly.
        let (sum, carry) = P.overflowing_add(&U256::from_u64(C));
        assert!(carry);
        assert!(sum.is_zero());
    }

    #[test]
    fn add_wraps_modulus() {
        let p_minus_1 = Fe::from_u256(P.wrapping_sub(&U256::ONE));
        assert_eq!(p_minus_1.add(&Fe::ONE), Fe::ZERO);
        assert_eq!(p_minus_1.add(&fe(2)), Fe::ONE);
    }

    #[test]
    fn sub_and_neg() {
        let a = fe(5);
        let b = fe(9);
        // 5 - 9 = -4 = p - 4
        let expect = Fe::from_u256(P.wrapping_sub(&U256::from_u64(4)));
        assert_eq!(a.sub(&b), expect);
        assert_eq!(a.sub(&b).add(&b), a);
        assert_eq!(a.neg().add(&a), Fe::ZERO);
        assert_eq!(Fe::ZERO.neg(), Fe::ZERO);
        // Subtraction with a borrow is adding the negation, on both sides
        // of every wrap.
        let mut values = vec![Fe::ZERO, Fe::ONE, Fe::ONE.neg(), fe(C)];
        for i in 0u64..40 {
            values.push(Fe::from_be_bytes(&crate::hash::keccak256(&i.to_be_bytes())));
        }
        for x in &values {
            for y in &values {
                assert_eq!(x.sub(y), x.add(&y.neg()), "{x:?} - {y:?}");
            }
        }
    }

    #[test]
    fn mul_matches_repeated_addition() {
        let a = Fe::from_be_hex("00000000000000000000000000000000000000000000000000000000deadbeef");
        let mut sum = Fe::ZERO;
        for _ in 0..1000 {
            sum = sum.add(&a);
        }
        assert_eq!(a.mul_u64(1000), sum);
        assert_eq!(a.mul(&fe(1000)), sum);
    }

    #[test]
    fn mul_near_modulus() {
        // (p-1)^2 mod p = 1
        let p_minus_1 = Fe::from_u256(P.wrapping_sub(&U256::ONE));
        assert_eq!(p_minus_1.mul(&p_minus_1), Fe::ONE);
        // (p-1) * 2 = p - 2
        assert_eq!(
            p_minus_1.double(),
            Fe::from_u256(P.wrapping_sub(&U256::from_u64(2)))
        );
    }

    #[test]
    fn invert() {
        let a = Fe::from_be_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
        let inv = a.invert().unwrap();
        assert_eq!(a.mul(&inv), Fe::ONE);
        assert!(Fe::ZERO.invert().is_none());
        assert_eq!(Fe::ONE.invert().unwrap(), Fe::ONE);
    }

    #[test]
    fn sqrt_roundtrip() {
        let a = fe(1234567);
        let sq = a.square();
        let root = sq.sqrt().expect("square must be a residue");
        assert!(root == a || root == a.neg());
    }

    #[test]
    fn sqrt_non_residue() {
        // For p ≡ 3 mod 4, exactly one of (a, -a) is a residue when a != 0;
        // find a non-residue and check it fails.
        let a = fe(5);
        let sq = a.square();
        assert!(sq.sqrt().is_some());
        // 7 is the curve b; y^2 = 7 has solutions iff 7 is a residue. Either
        // way, sqrt of a residue squared must verify; check a known
        // non-residue: p-1 (i.e. -1) is a non-residue when p ≡ 3 mod 4.
        let minus_one = Fe::ONE.neg();
        assert!(minus_one.sqrt().is_none());
    }

    /// The addition chain is pinned to the generic `pow((p+1)/4)` ladder it
    /// replaced: same root (not merely *a* root) on residues, `None` on
    /// non-residues, and the edge values.
    #[test]
    fn sqrt_chain_matches_pow_ladder() {
        let exp = P.wrapping_add(&U256::ONE).shr(2);
        let ladder = |a: &Fe| Some(a.pow(&exp)).filter(|c| c.square() == *a);
        let p_minus_1 = Fe::ONE.neg();
        let mut cases = vec![Fe::ZERO, Fe::ONE, p_minus_1, fe(2), fe(3), fe(4), fe(7)];
        for i in 0u64..200 {
            let a = Fe::from_be_bytes(&crate::hash::keccak256(&i.to_be_bytes()));
            cases.extend([a, a.square(), a.neg()]);
        }
        let (mut residues, mut non_residues) = (0, 0);
        for a in &cases {
            let root = a.sqrt();
            assert_eq!(root, ladder(a), "{a:?}");
            match root {
                Some(_) => residues += 1,
                None => non_residues += 1,
            }
        }
        assert!(residues > 200 && non_residues > 100);
        assert_eq!(Fe::ZERO.sqrt(), Some(Fe::ZERO));
        assert_eq!(Fe::ONE.sqrt(), Some(Fe::ONE));
        assert_eq!(p_minus_1.sqrt(), None);
    }

    /// The addition chain is pinned to the generic `pow(p − 2)` ladder it
    /// replaced, on the edge values and on random elements.
    #[test]
    fn invert_chain_matches_pow_ladder() {
        let exp = P.wrapping_sub(&U256::from_u64(2));
        let p_minus_1 = Fe::ONE.neg();
        let mut cases = vec![Fe::ONE, p_minus_1, fe(2), fe(3), fe(C)];
        for i in 0u64..200 {
            let a = Fe::from_be_bytes(&crate::hash::keccak256(&i.to_be_bytes()));
            cases.extend([a, a.neg()]);
        }
        for a in &cases {
            assert_eq!(a.invert(), Some(a.pow(&exp)), "{a:?}");
        }
        assert_eq!(Fe::ZERO.invert(), None);
        assert_eq!(p_minus_1.invert(), Some(p_minus_1));
    }

    #[test]
    fn pow_small_cases() {
        let a = fe(3);
        assert_eq!(a.pow(&U256::ZERO), Fe::ONE);
        assert_eq!(a.pow(&U256::ONE), a);
        assert_eq!(a.pow(&U256::from_u64(5)), fe(243));
    }

    #[test]
    fn batch_invert_matches_invert() {
        let mut elems: Vec<Fe> = (1u64..40).map(fe).collect();
        elems.push(Fe::from_u256(P.wrapping_sub(&U256::ONE)));
        let expect: Vec<Fe> = elems.iter().map(|e| e.invert().unwrap()).collect();
        Fe::batch_invert(&mut elems);
        assert_eq!(elems, expect);
    }

    #[test]
    fn batch_invert_skips_zeros() {
        let mut elems = vec![fe(2), Fe::ZERO, fe(3), Fe::ZERO];
        Fe::batch_invert(&mut elems);
        assert_eq!(elems[0], fe(2).invert().unwrap());
        assert_eq!(elems[1], Fe::ZERO);
        assert_eq!(elems[2], fe(3).invert().unwrap());
        assert_eq!(elems[3], Fe::ZERO);
        // All-zero and empty inputs are no-ops, not panics.
        let mut zeros = vec![Fe::ZERO; 3];
        Fe::batch_invert(&mut zeros);
        assert_eq!(zeros, vec![Fe::ZERO; 3]);
        Fe::batch_invert(&mut []);
    }

    #[test]
    fn from_u256_reduces() {
        assert_eq!(Fe::from_u256(P), Fe::ZERO);
        assert_eq!(Fe::from_u256(P.wrapping_add(&U256::ONE)), Fe::ONE);
        assert_eq!(Fe::from_u256(U256::MAX), Fe::from_u64(C - 1));
    }
}
