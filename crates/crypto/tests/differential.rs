//! Differential property tests: every optimized scalar-multiplication and
//! ECDSA fast path is pinned to the frozen pre-optimization implementation
//! it replaced (`secp256k1::point::reference`, `ecdsa::reference`).
//!
//! These are the proof obligations of the "break the signing wall" change:
//! the comb/wNAF/GLV/batch paths may be faster, but they must be
//! **observationally identical** — same points, byte-identical signatures,
//! same accept/reject decisions — across random scalars, keys, messages,
//! and batch chunkings.

use proptest::prelude::*;
use wedge_crypto::ecdsa::{
    self, sign_prehashed, sign_prehashed_batch, verify_prehashed, verify_prehashed_with_table,
    Signature,
};
use wedge_crypto::keys::{Keypair, SecretKey};
use wedge_crypto::secp256k1::point::reference as point_ref;
use wedge_crypto::secp256k1::{
    mul_double, mul_double_with_table, mul_generator, mul_point, Affine, AffineTable, Scalar,
};

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    any::<[u8; 32]>().prop_map(|b| Scalar::from_be_bytes_reduced(&b))
}

fn arb_keypair() -> impl Strategy<Value = Keypair> {
    any::<[u8; 32]>().prop_filter_map("valid secret key", |b| {
        SecretKey::from_bytes(&b).ok().map(Keypair::from_secret)
    })
}

/// A random non-infinity curve point (as `seed·G` for a nonzero seed).
fn arb_point() -> impl Strategy<Value = Affine> {
    any::<[u8; 32]>().prop_filter_map("nonzero seed", |b| {
        let s = Scalar::from_be_bytes_reduced(&b);
        if s.is_zero() {
            None
        } else {
            Some(mul_generator(&s).to_affine())
        }
    })
}

proptest! {
    // Curve operations are expensive; keep the case count low (matches the
    // existing proptests suite).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Comb `mul_generator` vs the frozen 4-bit window table.
    #[test]
    fn comb_generator_matches_reference(k in arb_scalar()) {
        prop_assert_eq!(
            mul_generator(&k).to_affine(),
            point_ref::mul_generator(&k).to_affine()
        );
    }

    /// GLV + wNAF `mul_point` vs the frozen 4-bit fixed window.
    #[test]
    fn wnaf_mul_point_matches_reference(p in arb_point(), k in arb_scalar()) {
        prop_assert_eq!(
            mul_point(&p, &k).to_affine(),
            point_ref::mul_point(&p, &k).to_affine()
        );
    }

    /// Strauss–Shamir/GLV `mul_double` (fresh and cached-table forms) vs
    /// the naive `a·G + b·Q`.
    #[test]
    fn strauss_mul_double_matches_naive(a in arb_scalar(), b in arb_scalar(), q in arb_point()) {
        let naive = point_ref::mul_double(&a, &b, &q).to_affine();
        prop_assert_eq!(mul_double(&a, &b, &q).to_affine(), naive);
        let table = AffineTable::new(&q);
        prop_assert_eq!(mul_double_with_table(&a, &b, &table).to_affine(), naive);
    }

    /// The fast signer (comb table) is byte-identical to the frozen one.
    #[test]
    fn fast_sign_matches_reference(kp in arb_keypair(), msg in any::<[u8; 32]>()) {
        prop_assert_eq!(
            sign_prehashed(&kp.secret, &msg).to_bytes(),
            ecdsa::reference::sign_prehashed(&kp.secret, &msg).to_bytes()
        );
    }

    /// Verification decisions agree with the frozen verifier for both valid
    /// signatures and tampered ones.
    #[test]
    fn fast_verify_matches_reference(
        kp in arb_keypair(),
        msg in any::<[u8; 32]>(),
        tamper in any::<[u8; 32]>(),
    ) {
        let sig = sign_prehashed(&kp.secret, &msg);
        let table = AffineTable::new(kp.public.point());
        for m in [&msg, &tamper] {
            let expect = ecdsa::reference::verify_prehashed(&kp.public, m, &sig).is_ok();
            prop_assert_eq!(verify_prehashed(&kp.public, m, &sig).is_ok(), expect);
            prop_assert_eq!(verify_prehashed_with_table(&table, m, &sig).is_ok(), expect);
        }
    }
}

proptest! {
    // Batch cases sign dozens of messages per case; keep the count lower
    // still.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batch signing across random lengths is byte-identical to sequential
    /// (and hence to the frozen signer, by the case above).
    #[test]
    fn batch_sign_matches_sequential(
        kp in arb_keypair(),
        len in 0usize..40,
        seed in any::<u8>(),
    ) {
        let hashes: Vec<[u8; 32]> = (0..len).map(|i| {
            let mut h = [seed; 32];
            h[0] = i as u8;
            h
        }).collect();
        let expect: Vec<[u8; 65]> = hashes
            .iter()
            .map(|h| sign_prehashed(&kp.secret, h).to_bytes())
            .collect();
        let direct: Vec<[u8; 65]> = sign_prehashed_batch(&kp.secret, &hashes)
            .iter()
            .map(Signature::to_bytes)
            .collect();
        prop_assert_eq!(&direct, &expect);
    }

    /// The one batch verifier has exactly the recovery accept set: item `i`
    /// passes iff `recover_prehashed` returns the remembered key — on clean
    /// items, on every single-field mutation of `(hash, r, s, v)`, on the
    /// high-s twin (which recovery, unlike `verify_prehashed`, accepts) and
    /// against a table for somebody else's key.
    #[test]
    fn recoverable_batch_matches_recovery(
        kp in arb_keypair(),
        other in arb_keypair(),
        len in 1usize..24,
        mutations in proptest::collection::vec((0usize..24, 0u8..9), 0..8),
    ) {
        let mut items: Vec<([u8; 32], Signature)> = (0..len).map(|i| {
            let mut h = [0xC3u8; 32];
            h[0] = i as u8;
            (h, sign_prehashed(&kp.secret, &h))
        }).collect();
        for (at, kind) in mutations {
            let (h, sig) = &mut items[at % len];
            match kind {
                0 => h[31] ^= 1,
                1 => sig.r = sig.r.add(&Scalar::ONE),
                2 => sig.s = sig.s.add(&Scalar::ONE),
                3 => sig.v ^= 1,
                4 => sig.v ^= 2,
                5 => sig.v += 4,
                6 => sig.r = Scalar::ZERO,
                7 => sig.s = Scalar::ZERO,
                _ => { sig.s = sig.s.neg(); sig.v ^= 1; } // valid high-s twin
            }
        }
        for key in [&kp, &other] {
            let table = AffineTable::new(key.public.point());
            let expect: Vec<bool> = items
                .iter()
                .map(|(h, sig)| ecdsa::recover_prehashed(h, sig) == Ok(key.public))
                .collect();
            prop_assert_eq!(ecdsa::verify_recoverable_batch(&table, &items), expect);
        }
    }
}
