//! Differential property tests for the Keccak-256 paths: the unrolled
//! scalar sponge, the fused single-permutation `keccak256_fixed`, the
//! prefixed one-shot, the ×4 lane-interleaved permutation, and the bucketed
//! batch API are pinned byte-for-byte to the naive loop-based sponge in
//! `naive_keccak/` (itself anchored by `keccak_vectors.rs`).
//!
//! The adversarial shapes the issue calls out get dedicated coverage:
//! rate-boundary lengths (135/136/137 — padding in-block, padding spilling
//! into a fresh block, and a two-block message), all four interleave lane
//! positions, and ragged batch tails that force the scalar remainder path.

mod naive_keccak;

use proptest::prelude::*;
use wedge_crypto::hash::{
    keccak256, keccak256_batch, keccak256_batch_prefixed, keccak256_fixed, keccak256_fixed_x4,
    keccak256_prefixed, keccak256_x4_prefixed, Keccak256,
};

/// The oracle's digest.
fn ref_hash(data: &[u8]) -> [u8; 32] {
    naive_keccak::keccak256(data)
}

fn ref_hash_cat(prefix: &[u8], data: &[u8]) -> [u8; 32] {
    let mut concat = prefix.to_vec();
    concat.extend_from_slice(data);
    ref_hash(&concat)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One-shot digest (auto-routing scalar path) vs the oracle, arbitrary
    /// lengths up to several rate blocks.
    #[test]
    fn oneshot_matches_naive(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        prop_assert_eq!(keccak256(&data), ref_hash(&data));
    }

    /// The fused fixed path vs the oracle (including its ≥ rate fallback).
    #[test]
    fn fixed_matches_naive(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(keccak256_fixed(&data), ref_hash(&data));
    }

    /// Prefixed one-shot ≡ oracle of the concatenation.
    #[test]
    fn prefixed_matches_naive(
        prefix in proptest::collection::vec(any::<u8>(), 0..70),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        prop_assert_eq!(keccak256_prefixed(&prefix, &data), ref_hash_cat(&prefix, &data));
    }

    /// Streaming sponge ≡ oracle under arbitrary update chunkings.
    #[test]
    fn streaming_matches_naive(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        splits in proptest::collection::vec(0usize..600, 0..6),
    ) {
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Keccak256::new();
        let mut prev = 0;
        for cut in cuts {
            h.update(&data[prev..cut]);
            prev = cut;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), ref_hash(&data));
    }

    /// ×4 interleaved (equal block counts by construction: equal lengths)
    /// vs the oracle, checking every lane slot.
    #[test]
    fn x4_matches_naive_all_lanes(
        len in 0usize..300,
        seeds in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
    ) {
        let msgs: Vec<Vec<u8>> = [seeds.0, seeds.1, seeds.2, seeds.3]
            .iter()
            .map(|&s| (0..len).map(|i| s.wrapping_add(i as u8)).collect())
            .collect();
        let got = keccak256_fixed_x4([&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for (lane, (msg, digest)) in msgs.iter().zip(got.iter()).enumerate() {
            prop_assert_eq!(*digest, ref_hash(msg), "lane {}", lane);
        }
    }

    /// ×4 with *different* lengths (mixed block counts exercise the scalar
    /// fallback; same-block different lengths exercise lockstep padding).
    #[test]
    fn x4_mixed_lengths_match_naive(
        lens in (0usize..600, 0usize..600, 0usize..600, 0usize..600),
    ) {
        let msgs: Vec<Vec<u8>> = [lens.0, lens.1, lens.2, lens.3]
            .iter()
            .enumerate()
            .map(|(lane, &len)| (0..len).map(|i| (i * 7 + lane) as u8).collect())
            .collect();
        let got = keccak256_fixed_x4([&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for (msg, digest) in msgs.iter().zip(got.iter()) {
            prop_assert_eq!(*digest, ref_hash(msg));
        }
    }

    /// ×4 prefixed ≡ oracle of each concatenation.
    #[test]
    fn x4_prefixed_matches_naive(
        prefix in proptest::collection::vec(any::<u8>(), 0..40),
        lens in (0usize..200, 0usize..200, 0usize..200, 0usize..200),
    ) {
        let msgs: Vec<Vec<u8>> = [lens.0, lens.1, lens.2, lens.3]
            .iter()
            .enumerate()
            .map(|(lane, &len)| (0..len).map(|i| (i ^ lane) as u8).collect())
            .collect();
        let got = keccak256_x4_prefixed(&prefix, [&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for (msg, digest) in msgs.iter().zip(got.iter()) {
            prop_assert_eq!(*digest, ref_hash_cat(&prefix, msg));
        }
    }

    /// Batch ≡ sequential oracle digests, arbitrary sizes and counts
    /// (ragged tails: any count not divisible by 4 leaves a scalar
    /// remainder; mixed lengths force block-count bucketing).
    #[test]
    fn batch_matches_naive(
        inputs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300),
            0..13,
        ),
    ) {
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let got = keccak256_batch(&refs);
        prop_assert_eq!(got.len(), refs.len());
        for (input, digest) in refs.iter().zip(got.iter()) {
            prop_assert_eq!(digest.0, ref_hash(input));
        }
    }

    /// Prefixed batch ≡ sequential oracle digests of concatenations.
    #[test]
    fn batch_prefixed_matches_naive(
        prefix in proptest::collection::vec(any::<u8>(), 0..3),
        inputs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            0..11,
        ),
    ) {
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let got = keccak256_batch_prefixed(&prefix, &refs);
        prop_assert_eq!(got.len(), refs.len());
        for (input, digest) in refs.iter().zip(got.iter()) {
            prop_assert_eq!(digest.0, ref_hash_cat(&prefix, input));
        }
    }
}

/// Every length from empty through two full rate blocks, deterministic
/// sweep: one-shot, fixed, prefixed, and ×4 all agree with the oracle.
#[test]
fn exhaustive_length_sweep_0_to_272() {
    for len in 0..=272usize {
        let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
        let expect = ref_hash(&data);
        assert_eq!(keccak256(&data), expect, "oneshot len {len}");
        assert_eq!(keccak256_fixed(&data), expect, "fixed len {len}");
        let (head, tail) = data.split_at(len / 3);
        assert_eq!(keccak256_prefixed(head, tail), expect, "prefixed len {len}");
        let got = keccak256_fixed_x4([&data, &data, &data, &data]);
        for digest in got.iter() {
            assert_eq!(*digest, expect, "x4 len {len}");
        }
    }
}

/// The rate boundary dead-on: 135 (pad bytes coincide as 0x81), 136
/// (padding spills into a second block), 137 (two-block message).
#[test]
fn rate_boundary_lengths() {
    for len in [134usize, 135, 136, 137, 138, 271, 272, 273] {
        let data = vec![0x5Au8; len];
        let expect = ref_hash(&data);
        assert_eq!(keccak256(&data), expect, "len {len}");
        assert_eq!(keccak256_fixed(&data), expect, "fixed len {len}");
        let got = keccak256_fixed_x4([&data, &data, &data, &data]);
        for digest in got.iter() {
            assert_eq!(*digest, expect, "x4 len {len}");
        }
        let batch = keccak256_batch(&[&data, &data, &data, &data, &data]);
        for digest in batch.iter() {
            assert_eq!(digest.0, expect, "batch len {len}");
        }
    }
}

/// A batch straddling every bucket edge at once: lengths chosen so block
/// counts are 1, 1, 1, 2, 2, 2, 2, 3 — the 1-block bucket has a ragged
/// tail of 3, the 2-block bucket is one exact quad, the 3-block bucket is
/// a singleton.
#[test]
fn batch_bucket_edges() {
    let lens = [0usize, 64, 135, 136, 200, 250, 271, 272];
    let inputs: Vec<Vec<u8>> = lens
        .iter()
        .map(|&len| (0..len).map(|i| (i ^ len) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
    let got = keccak256_batch(&refs);
    for (input, digest) in refs.iter().zip(got.iter()) {
        assert_eq!(digest.0, ref_hash(input));
    }
}
