//! Differential tests for request verification against remembered keys:
//! `PublisherKeys::verify_batch` must return **exactly** the verdict vector
//! of per-item `AppendRequest::verify` — cold, warm, at any worker count,
//! for every way a request can be wrong — and must never check a request
//! against a key that a full recovery did not produce for that address.
//! (The capacity bound is a unit test beside the map, in
//! `src/publisher_keys.rs`.) The node's collect stage verifies a batch as
//! the prefixes it arrives in, so one batch verified over successive calls
//! must give the verdicts and the recovery count of one call.

use proptest::prelude::*;
use wedge_chain::Encoder;
use wedge_core::{AppendRequest, PublisherKeys, Verified};
use wedge_crypto::ecdsa::{recover_prehashed, Signature};
use wedge_crypto::keys::{Address, Keypair};
use wedge_crypto::secp256k1::scalar::N;
use wedge_crypto::secp256k1::{Affine, Fe, Scalar};
use wedge_crypto::uint::U256;
use wedge_pool::WorkPool;

fn keypair(i: usize) -> Keypair {
    Keypair::from_seed(format!("request-verify-{i}").as_bytes())
}

fn request(kp: &Keypair, sequence: u64) -> AppendRequest {
    AppendRequest::new(
        &kp.secret,
        sequence,
        format!("entry {sequence}").into_bytes(),
    )
}

fn per_item(requests: &[AppendRequest]) -> Vec<bool> {
    requests.iter().map(|r| r.verify().is_ok()).collect()
}

fn verified(keys: &PublisherKeys, requests: &[AppendRequest], workers: usize) -> Verified {
    let refs: Vec<&AppendRequest> = requests.iter().collect();
    keys.verify_batch(&refs, &WorkPool::new(workers))
}

fn batched(keys: &PublisherKeys, requests: &[AppendRequest], workers: usize) -> Vec<bool> {
    verified(keys, requests, workers).verdicts
}

/// A valid request whose nonce point's x lies in `[n, p)`, so its recovery
/// id carries bit 1 and `r = x − n`: the `r + n` branch of both recovery
/// and the cached check. No secret key is needed — any `(r, s, v)` is a
/// valid signature under the key it recovers to.
fn overflowing_request(sequence: u64) -> AppendRequest {
    let nonce_point = (1u64..1000)
        .find_map(|t| Affine::lift_x(Fe::from_u256(N.wrapping_add(&U256::from_u64(t))), false))
        .expect("a curve point with x in [n, p) exists within 1000 tries");
    let payload = b"overflowing nonce".to_vec();
    let mut enc = Encoder::with_capacity(12 + payload.len());
    enc.u64(sequence).bytes(&payload);
    let digest = wedge_crypto::keccak256(&enc.finish());
    let signature = Signature {
        r: Scalar::from_u256(nonce_point.x.to_u256()),
        s: Scalar::from_u64(0x5eed + sequence),
        v: nonce_point.y.is_odd() as u8 | 2,
        nonce_y: None,
    };
    let publisher = recover_prehashed(&digest, &signature)
        .expect("recovery ids 2/3 select x = r + n")
        .address();
    AppendRequest {
        publisher,
        sequence,
        payload,
        signature,
    }
}

/// The y of the point the signature's `(r, v)` names, by square root.
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

/// Replaces the request's nonce-y hint by one of eight kinds: the one it
/// carries (the signer's, or stale after damage), none, the true y,
/// `p − y`, an off-curve y of the right parity, zero, an encoding ≥ p
/// (reduced on parse, as the wire decoder does), and `neighbour`'s.
fn set_hint(request: &mut AppendRequest, kind: u8, neighbour: Option<Fe>) {
    let sig = request.signature;
    let truth = true_nonce_y(&sig);
    let y = truth.or(sig.nonce_y).unwrap_or(Fe::ONE);
    request.signature.nonce_y = match kind {
        0 => sig.nonce_y,
        1 => None,
        2 => truth,
        3 => Some(y.neg()),
        4 => Some(y.add(&Fe::from_u64(2))),
        5 => Some(Fe::ZERO),
        6 => Some(Fe::from_be_bytes(&[0xFF; 32])),
        _ => neighbour,
    };
}

fn stripped(requests: &[AppendRequest]) -> Vec<AppendRequest> {
    let mut bare = requests.to_vec();
    for r in &mut bare {
        r.signature.nonce_y = None;
    }
    bare
}

/// `requests` verified as the arrival-ordered prefixes ending at `cuts`
/// (then the rest), one `verify_batch` call each, on fresh keys: the
/// concatenated verdicts and the summed recovery count.
fn verified_in_prefixes(requests: &[AppendRequest], cuts: &[usize], workers: usize) -> Verified {
    let keys = PublisherKeys::default();
    let mut ends: Vec<usize> = cuts.iter().map(|&c| c.min(requests.len())).collect();
    ends.sort_unstable();
    ends.push(requests.len());
    let mut out = Verified {
        verdicts: Vec::new(),
        recovered: 0,
    };
    let mut start = 0;
    for end in ends {
        let part = verified(&keys, &requests[start..end], workers);
        out.verdicts.extend(part.verdicts);
        out.recovered += part.recovered;
        start = end;
    }
    out
}

/// One batch verified whole and as prefixes: the verdicts of per-item
/// verification (`expect`) at any width, and on one worker (where a
/// publisher's run is never split across spans) the same recovery count.
fn prefixes_match_one_call(
    requests: &[AppendRequest],
    cuts: &[usize],
    expect: &[bool],
) -> Result<(), TestCaseError> {
    let whole = verified(&PublisherKeys::default(), requests, 1);
    prop_assert_eq!(&whole.verdicts[..], expect);
    prop_assert_eq!(
        &verified_in_prefixes(requests, cuts, 1),
        &whole,
        "cuts {:?}",
        cuts
    );
    let wide = verified_in_prefixes(requests, cuts, 2);
    prop_assert_eq!(
        &wide.verdicts,
        &whole.verdicts,
        "cuts {:?}, two workers",
        cuts
    );
    Ok(())
}

/// Three publishers interleaved as `shape` says, each request with the
/// single-field damage and the nonce-y hint kind it names: the requests,
/// and per-item verification's verdicts on them without hints.
fn interleaving(shape: &[(usize, u8, u8)]) -> (Vec<AppendRequest>, Vec<bool>) {
    let kps: Vec<Keypair> = (0..3).map(keypair).collect();
    let mut requests: Vec<AppendRequest> = shape
        .iter()
        .enumerate()
        .map(|(seq, &(who, damage, _))| {
            let mut r = request(&kps[who], seq as u64);
            match damage {
                0 => r.payload.push(b'!'),
                1 => r.sequence += 1,
                // Somebody else's (known) address: lands in *their* run
                // and is checked against *their* remembered key.
                2 => r.publisher = kps[(who + 1) % 3].address,
                3 => r.publisher = Address([9; 20]),
                4 => r.signature.v ^= 1,
                5 => r.signature.v ^= 2,
                6 => r.signature.v += 4,
                7 => r.signature.r = Scalar::ZERO,
                8 => r.signature.s = Scalar::ZERO,
                _ => {} // the rest stay valid
            }
            r
        })
        .collect();
    let expect = per_item(&stripped(&requests));
    for (i, &(_, _, hint)) in shape.iter().enumerate() {
        let neighbour = requests[(i + 1) % requests.len()].signature.nonce_y;
        set_hint(&mut requests[i], hint, neighbour);
    }
    (requests, expect)
}

/// Random interleavings of three publishers with random single-field
/// damage and a random nonce-y hint each: cold pass, warm pass and a second
/// warm pass at another worker count all equal per-item verification
/// without hints — and so does per-item verification with them.
fn check_interleaving(shape: &[(usize, u8, u8)], workers: usize) -> Result<(), TestCaseError> {
    let (requests, expect) = interleaving(shape);
    prop_assert_eq!(&per_item(&requests), &expect, "per item, hinted");
    let keys = PublisherKeys::default();
    prop_assert_eq!(&batched(&keys, &requests, workers), &expect, "cold");
    prop_assert_eq!(&batched(&keys, &requests, workers), &expect, "warm");
    // Two passes sighted every valid publisher twice: from here on a
    // full recovery runs for the invalid requests and for nothing else.
    let warm = verified(&keys, &requests, 4 - workers);
    prop_assert_eq!(&warm.verdicts, &expect, "warm, other width");
    let invalid = expect.iter().filter(|ok| !**ok).count();
    prop_assert_eq!(warm.recovered, invalid as u64);
    Ok(())
}

proptest! {
    // Every case signs and recovers a few dozen times in a debug build.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Short runs: every per-publisher run is under the batch verifier's
    /// combined-equation cutoff and is checked item by item.
    #[test]
    fn cached_path_matches_per_item_verify(
        shape in proptest::collection::vec((0usize..3, 0u8..16, 0u8..8), 1..40),
        workers in 1usize..4,
    ) {
        check_interleaving(&shape, workers)?;
    }
}

proptest! {
    // Hundreds of requests per case.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Long runs: per-publisher runs of ~30–130 requests go through the
    /// combined equation — in one piece when clean (damage values 9..64
    /// leave a request valid, so about one in seven is damaged), through
    /// its bounded fall-back otherwise.
    #[test]
    fn cached_path_matches_per_item_verify_on_long_runs(
        shape in proptest::collection::vec((0usize..3, 0u8..64, 0u8..8), 100..400),
        workers in 1usize..4,
    ) {
        check_interleaving(&shape, workers)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random interleavings, damage and hints as above, from first
    /// contact (every case starts on fresh keys): short and long runs
    /// (damage values 9..32 leave a request valid), up to four cuts
    /// anywhere.
    #[test]
    fn prefixes_verify_like_one_call(
        shape in proptest::collection::vec((0usize..3, 0u8..32, 0u8..8), 1..120),
        cuts in proptest::collection::vec(0usize..120, 0..4),
    ) {
        let (requests, expect) = interleaving(&shape);
        prefixes_match_one_call(&requests, &cuts, &expect)?;
    }
}

/// The collect stage's early check on two interleaved first-contact
/// publishers: bad signatures in the first prefix, runs long enough for
/// the combined equation in every prefix, and every kind of nonce-y hint.
#[test]
fn early_prefixes_with_bad_signatures_verify_like_one_call() {
    let kps: Vec<Keypair> = (4..6).map(keypair).collect();
    let mut requests: Vec<AppendRequest> = (0..160u64)
        .map(|seq| request(&kps[seq as usize % 2], seq))
        .collect();
    for i in [0, 3, 10, 11] {
        requests[i].payload.push(b'!');
    }
    requests[40].signature.v ^= 1;
    let expect = per_item(&requests);
    let carried: Vec<Option<Fe>> = requests.iter().map(|r| r.signature.nonce_y).collect();
    let cuts: [&[usize]; 4] = [&[1, 2], &[64], &[64, 128], &[12, 41, 99]];
    for kind in 0..8u8 {
        let mut hinted = requests.clone();
        for (i, r) in hinted.iter_mut().enumerate() {
            set_hint(r, kind, carried[(i + 1) % carried.len()]);
        }
        let cuts = cuts[kind as usize % cuts.len()];
        prefixes_match_one_call(&hinted, cuts, &expect)
            .unwrap_or_else(|e| panic!("hint kind {kind}, cuts {cuts:?}: {e}"));
    }
}

/// One publisher, `len` requests, the ones at `bad` damaged: the warm pass
/// recovers exactly the rejects, at one worker and at two.
fn warm_pass_recovers_only_the_rejects(len: u64, bad: &[usize]) {
    let kp = keypair(0);
    let mut requests: Vec<AppendRequest> = (0..len).map(|seq| request(&kp, seq)).collect();
    for &i in bad {
        requests[i].payload.push(b'!');
    }
    for workers in [1, 2] {
        let keys = PublisherKeys::default();
        let cold = verified(&keys, &requests, workers);
        let warm = verified(&keys, &requests, workers);
        assert_eq!(cold.verdicts, per_item(&requests));
        assert_eq!(warm.verdicts, cold.verdicts);
        // Cold: each span recovers until it has sighted the key twice, and
        // every reject is re-checked in full. Warm: only the rejects.
        let rejects = bad.len() as u64;
        assert!((2 + rejects..=2 * workers as u64 + rejects).contains(&cold.recovered));
        assert_eq!(warm.recovered, rejects, "{workers} workers");
    }
}

#[test]
fn warm_pass_takes_the_cached_path_and_rejects_fall_back_to_recovery() {
    warm_pass_recovers_only_the_rejects(12, &[7]);
}

/// The same at run lengths the combined equation checks in one piece: all
/// good, one reject (halved down to its quarter), a reject in every quarter.
#[test]
fn long_warm_pass_takes_the_cached_path_and_rejects_fall_back_to_recovery() {
    warm_pass_recovers_only_the_rejects(200, &[]);
    warm_pass_recovers_only_the_rejects(200, &[131]);
    warm_pass_recovers_only_the_rejects(260, &[3, 90, 140, 259]);
}

#[test]
fn first_contact_publisher_with_an_invalid_prefix() {
    let kp = keypair(1);
    for k in [1usize, 5] {
        let mut requests: Vec<AppendRequest> = (0..9).map(|seq| request(&kp, seq)).collect();
        for r in &mut requests[..k] {
            r.sequence += 100;
        }
        for workers in [1, 2] {
            let keys = PublisherKeys::default();
            assert_eq!(batched(&keys, &requests, workers), per_item(&requests));
            // The valid requests behind the invalid prefix were remembered.
            let warm = verified(&keys, &requests, workers);
            assert_eq!(warm.verdicts, per_item(&requests));
            assert_eq!(warm.recovered, k as u64);
        }
    }
}

#[test]
fn invalid_requests_never_insert_a_key() {
    let victim = keypair(2);
    let attacker = keypair(3);
    // Signed by the attacker, claiming the victim's address; and a request
    // damaged in flight. Neither may leave anything behind.
    let mut forged = request(&attacker, 1);
    forged.publisher = victim.address;
    let mut damaged = request(&victim, 2);
    damaged.payload.push(0);
    let keys = PublisherKeys::default();
    let bad = [forged.clone(), damaged, forged.clone()];
    for _ in 0..2 {
        let refused = verified(&keys, &bad, 1);
        assert_eq!(refused.verdicts, [false; 3]);
        assert_eq!(refused.recovered, 3, "a rejected request left a key behind");
    }
    // The victim's genuine requests still verify (by full recovery: nothing
    // was remembered), and once the victim's key is remembered the forgery
    // is still refused.
    let genuine = request(&victim, 3);
    for recovered in [1, 1, 0] {
        let mix = verified(&keys, &[forged.clone(), genuine.clone()], 1);
        assert_eq!(mix.verdicts, [false, true]);
        assert_eq!(mix.recovered, 1 + recovered);
    }
    assert!(keys.verify(&forged).is_err());
    keys.verify(&genuine).unwrap();
}

#[test]
fn overflowing_nonce_x_takes_the_r_plus_n_branch() {
    let valid = overflowing_request(1);
    valid.verify().expect("constructed request is valid");
    // Same nonce point, another key.
    let sibling = overflowing_request(2);
    // Without bit 1 the nonce x is read as r itself; with bit 0 flipped the
    // other root is lifted. Both name some other key.
    let mut no_overflow_bit = valid.clone();
    no_overflow_bit.signature.v &= 1;
    let mut wrong_parity = valid.clone();
    wrong_parity.signature.v ^= 1;
    let requests = [valid, no_overflow_bit, wrong_parity, sibling];
    let expect = per_item(&requests);
    assert_eq!(expect, [true, false, false, true]);
    let keys = PublisherKeys::default();
    for workers in [1, 2, 1] {
        assert_eq!(batched(&keys, &requests, workers), expect); // cold, then warm
    }
    // Both keys are remembered by now; the two rejects still recover.
    assert_eq!(verified(&keys, &requests, 1).recovered, 2);
    // The r + n point's true y as the signer's hint, stale on the two
    // damaged copies; then every other kind of hint: the same verdicts.
    let y = true_nonce_y(&requests[0].signature).expect("the r + n point");
    let mut carrying = requests.clone();
    for r in &mut carrying {
        r.signature.nonce_y = Some(y);
    }
    for kind in 0..8 {
        let mut hinted = carrying.clone();
        for (i, r) in hinted.iter_mut().enumerate() {
            set_hint(r, kind, carrying[(i + 1) % 4].signature.nonce_y);
        }
        assert_eq!(per_item(&hinted), expect, "hint kind {kind}");
        let keys = PublisherKeys::default();
        for workers in [1, 2, 1] {
            assert_eq!(batched(&keys, &hinted, workers), expect, "hint kind {kind}");
        }
    }
}
