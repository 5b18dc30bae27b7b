//! Differential property tests: every optimized scalar-multiplication and
//! ECDSA path is pinned to a naive oracle in `naive_ec/` — `k·P` by
//! double-and-add over the public group law, and textbook verification
//! (`u1·G + u2·Q` with the affine x compared mod n) — and the batch
//! verifier to recovery.
//!
//! The comb/wNAF/GLV/Strauss–Shamir/Pippenger/batch paths may be fast, but
//! they must be **observationally identical** — same points, same
//! accept/reject decisions — across random scalars, keys, messages, and
//! batch chunkings. Byte-identical signatures are pinned by the RFC 6979
//! vectors and, in-crate, against the RFC 6979 nonce and the naive `k·G`.

use proptest::prelude::*;
use wedge_crypto::ecdsa::{
    self, sign_prehashed, sign_prehashed_batch, verify_prehashed, verify_prehashed_with_table,
    Signature,
};
use wedge_crypto::keys::{Keypair, SecretKey};
use wedge_crypto::secp256k1::scalar::N;
use wedge_crypto::secp256k1::{
    msm_u128, mul_double, mul_double_with_table, mul_generator, mul_point, Affine, AffineTable, Fe,
    Jacobian, Scalar,
};
use wedge_crypto::uint::U256;

mod naive_ec;
use naive_ec::{naive_mul, naive_mul_double, naive_verify};

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

    /// Comb `mul_generator` vs double-and-add.
    #[test]
    fn comb_generator_matches_naive(k in arb_scalar()) {
        prop_assert_eq!(
            mul_generator(&k).to_affine(),
            naive_mul(&Affine::GENERATOR, &k).to_affine()
        );
    }

    /// GLV + wNAF `mul_point` vs double-and-add.
    #[test]
    fn wnaf_mul_point_matches_naive(p in arb_point(), k in arb_scalar()) {
        prop_assert_eq!(mul_point(&p, &k).to_affine(), naive_mul(&p, &k).to_affine());
    }

    /// Strauss–Shamir/GLV `mul_double` (fresh and cached-table forms) vs
    /// the naive `a·G + b·Q`.
    #[test]
    fn strauss_mul_double_matches_naive(a in arb_scalar(), b in arb_scalar(), q in arb_point()) {
        let naive = naive_mul_double(&a, &b, &q);
        prop_assert_eq!(mul_double(&a, &b, &q).to_affine(), naive);
        let table = AffineTable::new(&q);
        prop_assert_eq!(mul_double_with_table(&a, &b, &table).to_affine(), naive);
    }

    /// Pippenger `msm_u128` vs one naive multiplication per term — with
    /// repeated points, a point beside its negation under the same scalar
    /// (a bucket that returns to the identity), zero and all-ones scalars
    /// and the identity among the points. About half the cases have
    /// 200–600 terms, enough for batch-affine rounds, where those shapes
    /// meet as doublings and cancellations inside a round.
    #[test]
    fn bucket_msm_matches_naive_sum(
        base in proptest::collection::vec(arb_point(), 1..6),
        terms in {
            let term = || (0usize..8, any::<bool>(), any::<u128>(), 0u8..6);
            prop_oneof![
                proptest::collection::vec(term(), 0..70),
                proptest::collection::vec(term(), 200..600),
            ]
        },
    ) {
        let mut points = Vec::new();
        let mut scalars = Vec::new();
        for (which, negate, scalar, shape) in terms {
            let point = base.get(which).copied().unwrap_or(Affine::INFINITY);
            points.push(if negate { point.neg() } else { point });
            scalars.push(match shape {
                0 => 0,
                1 => u128::MAX,
                2 => scalar >> 100,
                _ => scalar,
            });
            if shape == 5 {
                points.push(point.neg());
                scalars.push(scalar);
            }
        }
        let naive = points.iter().zip(&scalars).fold(Jacobian::INFINITY, |acc, (p, a)| {
            acc.add(&naive_mul(p, &Scalar::from_u128(*a)))
        });
        prop_assert_eq!(msm_u128(&points, &scalars).to_affine(), naive.to_affine());
    }

    /// The signer's output passes textbook verification and recovers to
    /// its key.
    #[test]
    fn signatures_pass_the_naive_verifier(kp in arb_keypair(), msg in any::<[u8; 32]>()) {
        let sig = sign_prehashed(&kp.secret, &msg);
        prop_assert!(naive_verify(&kp.public, &msg, &sig));
        prop_assert_eq!(ecdsa::recover_prehashed(&msg, &sig), Ok(kp.public));
    }

    /// Verification decisions agree with textbook verification for valid
    /// signatures, tampered messages and the high-s twin.
    #[test]
    fn fast_verify_matches_naive(
        kp in arb_keypair(),
        msg in any::<[u8; 32]>(),
        tamper in any::<[u8; 32]>(),
    ) {
        let sig = sign_prehashed(&kp.secret, &msg);
        let twin = Signature { s: sig.s.neg(), v: sig.v ^ 1, ..sig };
        let table = AffineTable::new(kp.public.point());
        for (m, sig) in [(&msg, sig), (&tamper, sig), (&msg, twin)] {
            let expect = naive_verify(&kp.public, m, &sig);
            prop_assert_eq!(verify_prehashed(&kp.public, m, &sig).is_ok(), expect);
            prop_assert_eq!(verify_prehashed_with_table(&table, m, &sig).is_ok(), expect);
        }
    }
}

proptest! {
    // Batch cases sign dozens of messages per case; keep the count lower
    // still.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batch signing across random lengths is byte-identical to sequential.
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
    /// passes iff `recover_prehashed` returns the remembered key — at run
    /// lengths on both sides of the combined equation's cutoff and into the
    /// hundreds, on clean items, on every single-field mutation of
    /// `(hash, r, s, v)`, on the high-s twin (which recovery, unlike
    /// `verify_prehashed`, accepts) alone and beside its original (nonce
    /// points `R` and `−R` in one bucket sum), on an `r` that is no curve
    /// point's x, on the same item twice, on a run of nothing but rejects,
    /// and against a table for somebody else's key or for the identity.
    /// Ground truth is recovery with no nonce-y hint; the signer's hints,
    /// the stale ones the mutations leave behind, none at all, and every
    /// kind of `with_hint` hint mixed through the run change no verdict of
    /// either function.
    #[test]
    fn recoverable_batch_matches_recovery(
        kp in arb_keypair(),
        other in arb_keypair(),
        len in prop_oneof![1usize..40, 40usize..320],
        mutations in proptest::collection::vec((any::<usize>(), 0u8..12), 0..8),
        only_rejects in (0u8..5).prop_map(|roll| roll == 0),
        hint_kinds in proptest::collection::vec(0u8..8, 1..12),
    ) {
        let hashes: Vec<[u8; 32]> = (0..len).map(|i| {
            let mut h = [0xC3u8; 32];
            h[..8].copy_from_slice(&(i as u64).to_be_bytes());
            h
        }).collect();
        let mut items: Vec<([u8; 32], Signature)> = hashes
            .iter()
            .copied()
            .zip(sign_prehashed_batch(&kp.secret, &hashes))
            .collect();
        for (at, kind) in mutations {
            let at = at % len;
            let next = (at + 1) % len;
            let (h, sig) = &mut items[at];
            match kind {
                0 => h[31] ^= 1,
                1 => sig.r = sig.r.add(&Scalar::ONE),
                2 => sig.s = sig.s.add(&Scalar::ONE),
                3 => sig.v ^= 1,
                4 => sig.v ^= 2,
                5 => sig.v += 4,
                6 => sig.r = Scalar::ZERO,
                7 => sig.s = Scalar::ZERO,
                8 => { sig.s = sig.s.neg(); sig.v ^= 1; } // valid high-s twin
                9 => sig.r = off_curve_x(),
                10 => items[next] = items[at], // the same item twice
                _ => {
                    // A valid twin beside its original: same digest, −R.
                    let twin = Signature { s: sig.s.neg(), v: sig.v ^ 1, ..*sig };
                    items[next] = (*h, twin);
                }
            }
        }
        if only_rejects {
            for (h, _) in &mut items {
                h[30] ^= 1;
            }
        }
        let bare: Vec<([u8; 32], Signature)> =
            items.iter().map(|(h, sig)| (*h, stripped(sig))).collect();
        let hinted: Vec<([u8; 32], Signature)> = items
            .iter()
            .enumerate()
            .map(|(i, (h, sig))| {
                let kind = hint_kinds[i % hint_kinds.len()];
                (*h, with_hint(sig, kind, &items[(i + 1) % len].1))
            })
            .collect();
        let recovered: Vec<_> = bare.iter().map(|(h, sig)| ecdsa::recover_prehashed(h, sig)).collect();
        for ((h, sig), expect) in hinted.iter().zip(&recovered) {
            prop_assert_eq!(&ecdsa::recover_prehashed(h, sig), expect);
        }
        for key in [&kp, &other] {
            let table = AffineTable::new(key.public.point());
            let expect: Vec<bool> = recovered.iter().map(|r| *r == Ok(key.public)).collect();
            prop_assert!(!only_rejects || !expect.contains(&true));
            for run in [&items, &bare, &hinted] {
                prop_assert_eq!(ecdsa::verify_recoverable_batch(&table, run), expect.clone());
            }
        }
        // No recovery ever yields the identity.
        let identity = AffineTable::new(&Affine::INFINITY);
        prop_assert_eq!(ecdsa::verify_recoverable_batch(&identity, &hinted), vec![false; len]);
    }
}

fn stripped(sig: &Signature) -> Signature {
    Signature {
        nonce_y: None,
        ..*sig
    }
}

/// The y of the point `(r, v)` names, lifted by square root, if any.
fn true_nonce_y(sig: &Signature) -> Option<Fe> {
    let r = sig.r.to_u256();
    let (x, overflow) = if sig.v & 2 == 0 {
        (r, false)
    } else {
        r.overflowing_add(&N)
    };
    if overflow || x >= wedge_crypto::secp256k1::field::P {
        return None;
    }
    Affine::lift_x(Fe::from_u256(x), sig.v & 1 == 1).map(|point| point.y)
}

/// `sig` with a nonce-y hint of one of eight kinds: the one it carries
/// (the signer's, or stale after a mutation), none, the true y, `p − y`, an
/// off-curve y of the right parity, zero, an encoding ≥ p (reduced on
/// parse), and `neighbour`'s.
fn with_hint(sig: &Signature, kind: u8, neighbour: &Signature) -> Signature {
    let truth = true_nonce_y(sig);
    let y = truth.or(sig.nonce_y).unwrap_or(Fe::ONE);
    let nonce_y = match kind {
        0 => sig.nonce_y,
        1 => None,
        2 => truth,
        3 => Some(y.neg()),
        4 => Some(y.add(&Fe::from_u64(2))),
        5 => Some(Fe::ZERO),
        6 => Some(Fe::from_be_bytes(&[0xFF; 32])),
        _ => neighbour.nonce_y,
    };
    Signature { nonce_y, ..*sig }
}

/// An `r` for which neither `r` nor (it is far above `p − n`) `r + n` is the
/// x of a curve point: recovery fails on it, the batch lifts nothing.
fn off_curve_x() -> Scalar {
    (1u64..)
        .map(Scalar::from_u64)
        .find(|x| Affine::lift_x(Fe::from_u256(x.to_u256()), false).is_none())
        .expect("half of all x are off the curve")
}

/// The `r + n` vector in a long run: a nonce point whose x lies in `[n, p)`
/// gives `r = x − n` with recovery-id bit 1. Any `(r, s, v)` is a valid
/// signature under the key it recovers to, so a run of copies of one such
/// item is a long run of *accepts* through the `r + n` lift — and of
/// rejects once bit 1 is cleared or the parity bit flipped.
#[test]
fn recoverable_batch_lifts_r_plus_n_in_long_runs() {
    let nonce_point = (1u64..1000)
        .find_map(|t| Affine::lift_x(Fe::from_u256(N.wrapping_add(&U256::from_u64(t))), false))
        .expect("a curve point with x in [n, p) exists within 1000 tries");
    let h = [0x5Au8; 32];
    let sig = Signature {
        r: Scalar::from_u256(nonce_point.x.to_u256()),
        s: Scalar::from_u64(0x5eed),
        v: nonce_point.y.is_odd() as u8 | 2,
        nonce_y: None,
    };
    let key = ecdsa::recover_prehashed(&h, &sig).expect("recovery ids 2/3 select x = r + n");
    let table = AffineTable::new(key.point());
    let with_y = Signature {
        nonce_y: Some(nonce_point.y),
        ..sig
    };
    assert_eq!(true_nonce_y(&sig), Some(nonce_point.y));
    // Bare, then carrying the true y, which stays behind, stale, on the two
    // damaged copies.
    for sig in [sig, with_y] {
        let mut items = vec![(h, sig); 90];
        assert_eq!(ecdsa::verify_recoverable_batch(&table, &items), [true; 90]);
        items[17].1.v &= 1; // x read as r itself
        items[71].1.v ^= 1; // the other root
        let expect: Vec<bool> = (0..90).map(|i| i != 17 && i != 71).collect();
        assert_eq!(ecdsa::verify_recoverable_batch(&table, &items), expect);
        for (h, sig) in &items {
            let recovered = ecdsa::recover_prehashed(h, sig);
            assert_eq!(recovered, ecdsa::recover_prehashed(h, &stripped(sig)));
            assert_eq!(
                recovered == Ok(key),
                sig.v == (nonce_point.y.is_odd() as u8 | 2)
            );
        }
    }
}
