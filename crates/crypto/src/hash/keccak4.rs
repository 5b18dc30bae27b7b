//! ×4 lane-interleaved Keccak-256.
//!
//! The 25-lane Keccak-f[1600] state is widened to `[u64; 4]` per lane so
//! one pass of theta/rho/pi/chi/iota advances **four independent hashes**
//! at once. Every step is a lane-wise XOR/rotate/AND-NOT over the four
//! slots — straight-line safe Rust the compiler autovectorizes (two 128-bit
//! ops per lane op on baseline SSE2, one 256-bit op with AVX2) — and, even
//! without wide registers, four independent dependency chains fill the
//! scalar ALU pipes that a single-state sponge leaves idle.
//!
//! Byte-identity with the scalar path (and with a naive loop-based sponge)
//! is proven by `crates/crypto/tests/hash_differential.rs` across lane
//! positions, rate boundaries, and ragged batch tails.
//!
//! Two entry tiers:
//!
//! * [`keccak256_fixed_x4`] / [`keccak256_x4_prefixed`] — four messages of
//!   equal padded block count (the Merkle ×4 node fold hits this with four
//!   65-byte sibling-pair preimages: one permutation, four digests);
//! * [`keccak256_batch`] / [`keccak256_batch_prefixed`] /
//!   [`keccak256_batch_pairs`] — arbitrary mixed batches, with no prefix,
//!   one shared prefix, or one prefix per input. Inputs are bucketed by
//!   padded block count so each group of four absorbs in lockstep;
//!   remainders take the scalar one-shot path. Output order always matches
//!   input order.

use super::keccak::{keccak256_prefixed, RATE, RC};
use super::{metrics, Hash32};

/// Four interleaved u64 lanes — one per in-flight hash.
type L4 = [u64; 4];

#[inline(always)]
fn xor4(a: L4, b: L4) -> L4 {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

#[inline(always)]
fn xor4_assign(a: &mut L4, b: L4) {
    a[0] ^= b[0];
    a[1] ^= b[1];
    a[2] ^= b[2];
    a[3] ^= b[3];
}

#[inline(always)]
fn rotl4(a: L4, r: u32) -> L4 {
    [
        a[0].rotate_left(r),
        a[1].rotate_left(r),
        a[2].rotate_left(r),
        a[3].rotate_left(r),
    ]
}

/// Chi combine: `a ^ (!b & c)`, lane-wise over the four slots.
#[inline(always)]
fn chi4(a: L4, b: L4, c: L4) -> L4 {
    [
        a[0] ^ (!b[0] & c[0]),
        a[1] ^ (!b[1] & c[1]),
        a[2] ^ (!b[2] & c[2]),
        a[3] ^ (!b[3] & c[3]),
    ]
}

/// Keccak-f[1600] over four interleaved states, mirroring the unrolled
/// scalar `keccak::keccak_f` step for step.
fn keccak_f4(state: &mut [L4; 25]) {
    for rc in RC {
        // Theta.
        let mut c = [[0u64; 4]; 5];
        for row in state.chunks_exact(5) {
            xor4_assign(&mut c[0], row[0]);
            xor4_assign(&mut c[1], row[1]);
            xor4_assign(&mut c[2], row[2]);
            xor4_assign(&mut c[3], row[3]);
            xor4_assign(&mut c[4], row[4]);
        }
        let d = [
            xor4(c[4], rotl4(c[1], 1)),
            xor4(c[0], rotl4(c[2], 1)),
            xor4(c[1], rotl4(c[3], 1)),
            xor4(c[2], rotl4(c[4], 1)),
            xor4(c[3], rotl4(c[0], 1)),
        ];
        for row in state.chunks_exact_mut(5) {
            xor4_assign(&mut row[0], d[0]);
            xor4_assign(&mut row[1], d[1]);
            xor4_assign(&mut row[2], d[2]);
            xor4_assign(&mut row[3], d[3]);
            xor4_assign(&mut row[4], d[4]);
        }
        // Rho and pi fused, same literal walk as the scalar permutation.
        let mut last = state[1];
        let t = state[10];
        state[10] = rotl4(last, 1);
        last = t;
        let t = state[7];
        state[7] = rotl4(last, 3);
        last = t;
        let t = state[11];
        state[11] = rotl4(last, 6);
        last = t;
        let t = state[17];
        state[17] = rotl4(last, 10);
        last = t;
        let t = state[18];
        state[18] = rotl4(last, 15);
        last = t;
        let t = state[3];
        state[3] = rotl4(last, 21);
        last = t;
        let t = state[5];
        state[5] = rotl4(last, 28);
        last = t;
        let t = state[16];
        state[16] = rotl4(last, 36);
        last = t;
        let t = state[8];
        state[8] = rotl4(last, 45);
        last = t;
        let t = state[21];
        state[21] = rotl4(last, 55);
        last = t;
        let t = state[24];
        state[24] = rotl4(last, 2);
        last = t;
        let t = state[4];
        state[4] = rotl4(last, 14);
        last = t;
        let t = state[15];
        state[15] = rotl4(last, 27);
        last = t;
        let t = state[23];
        state[23] = rotl4(last, 41);
        last = t;
        let t = state[19];
        state[19] = rotl4(last, 56);
        last = t;
        let t = state[13];
        state[13] = rotl4(last, 8);
        last = t;
        let t = state[12];
        state[12] = rotl4(last, 25);
        last = t;
        let t = state[2];
        state[2] = rotl4(last, 43);
        last = t;
        let t = state[20];
        state[20] = rotl4(last, 62);
        last = t;
        let t = state[14];
        state[14] = rotl4(last, 18);
        last = t;
        let t = state[22];
        state[22] = rotl4(last, 39);
        last = t;
        let t = state[9];
        state[9] = rotl4(last, 61);
        last = t;
        let t = state[6];
        state[6] = rotl4(last, 20);
        last = t;
        state[1] = rotl4(last, 44);
        // Chi.
        for row in state.chunks_exact_mut(5) {
            let a = [row[0], row[1], row[2], row[3], row[4]];
            row[0] = chi4(a[0], a[1], a[2]);
            row[1] = chi4(a[1], a[2], a[3]);
            row[2] = chi4(a[2], a[3], a[4]);
            row[3] = chi4(a[3], a[4], a[0]);
            row[4] = chi4(a[4], a[0], a[1]);
        }
        // Iota.
        xor4_assign(&mut state[0], [rc; 4]);
    }
}

/// Decodes one rate block into its 17 little-endian u64 lanes.
fn lanes_of(block: &[u8; RATE]) -> [u64; 17] {
    let mut lanes = [0u64; 17];
    for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(chunk);
        *lane = u64::from_le_bytes(bytes);
    }
    lanes
}

/// XORs four rate blocks (one per slot) into the interleaved state and
/// permutes.
fn absorb4(state: &mut [L4; 25], blocks: &[[u8; RATE]; 4]) {
    let l0 = lanes_of(&blocks[0]);
    let l1 = lanes_of(&blocks[1]);
    let l2 = lanes_of(&blocks[2]);
    let l3 = lanes_of(&blocks[3]);
    // Arrays iterate by value; the zip stops after the 17 rate lanes,
    // leaving the capacity lanes untouched.
    for ((((lane, a), b), c), d) in state.iter_mut().zip(l0).zip(l1).zip(l2).zip(l3) {
        lane[0] ^= a;
        lane[1] ^= b;
        lane[2] ^= c;
        lane[3] ^= d;
    }
    keccak_f4(state);
}

/// Extracts the four 32-byte digests from the interleaved state.
fn squeeze4(state: &[L4; 25]) -> [[u8; 32]; 4] {
    let top = [state[0], state[1], state[2], state[3]];
    let mut out = [[0u8; 32]; 4];
    for (slot, digest) in out.iter_mut().enumerate() {
        for (chunk, lane) in digest.chunks_exact_mut(8).zip(top.iter()) {
            let v = match slot {
                0 => lane[0],
                1 => lane[1],
                2 => lane[2],
                _ => lane[3],
            };
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Number of rate blocks the padded message `prefix ++ data` occupies.
/// Multi-rate padding always adds at least one bit, so an exact multiple
/// of the rate spills a full extra block.
#[inline]
fn padded_blocks(total_len: usize) -> usize {
    total_len / RATE + 1
}

/// Writes block `block_idx` of the padded logical message `prefix ++ data`
/// into `out`, including the 0x01/0x80 multi-rate padding bytes when this
/// is the final block.
fn fill_block(out: &mut [u8; RATE], prefix: &[u8], data: &[u8], block_idx: usize) {
    *out = [0u8; RATE];
    let start = block_idx * RATE;
    let total = prefix.len() + data.len();
    // Overlap of [start, start+RATE) with the prefix bytes.
    let mut off = 0usize;
    if let Some(src) = prefix.get(start..) {
        let take = src.len().min(RATE);
        if let (Some(s), Some(d)) = (src.get(..take), out.get_mut(..take)) {
            d.copy_from_slice(s);
        }
        off = take;
    }
    // Then the data bytes that fall in this block.
    if off < RATE {
        let data_start = (start + off).saturating_sub(prefix.len());
        if let Some(src) = data.get(data_start..) {
            let take = src.len().min(RATE - off);
            if let (Some(s), Some(d)) = (src.get(..take), out.get_mut(off..off + take)) {
                d.copy_from_slice(s);
            }
        }
    }
    // Both padding bytes live in the final block (index total / RATE):
    // 0x01 right after the message, 0x80 in the last byte. They coincide
    // (0x81) when the message ends at offset 135 of the block.
    if block_idx == total / RATE {
        if let Some(pad) = out.get_mut(total % RATE) {
            *pad ^= 0x01;
        }
        out[135] ^= 0x80;
    }
}

/// Hashes four logical messages `prefix_i ++ data_i` that pad to the same
/// number of rate blocks, absorbing in lockstep. Callers must guarantee
/// equal block counts (the public entry points bucket for it).
fn x4_same_blocks(msgs: &[(&[u8], &[u8]); 4]) -> [[u8; 32]; 4] {
    let nblocks = padded_blocks(msgs[0].0.len() + msgs[0].1.len());
    debug_assert!(msgs
        .iter()
        .all(|(p, d)| padded_blocks(p.len() + d.len()) == nblocks));
    let mut state = [[0u64; 4]; 25];
    for block_idx in 0..nblocks {
        let mut blocks = [[0u8; RATE]; 4];
        for (block, (prefix, data)) in blocks.iter_mut().zip(msgs.iter()) {
            fill_block(block, prefix, data, block_idx);
        }
        absorb4(&mut state, &blocks);
    }
    metrics::count_x4_batch();
    metrics::count_hashes(4);
    squeeze4(&state)
}

/// Keccak-256 of four messages via the interleaved permutation.
///
/// All four must pad to the same number of rate blocks (always true for
/// equal lengths — e.g. four 64-byte Merkle sibling pairs, which cost one
/// single permutation total). Mixed block counts fall back to four scalar
/// one-shots, so the function is total and always byte-identical to
/// [`super::keccak256`] per message.
pub fn keccak256_fixed_x4(msgs: [&[u8]; 4]) -> [[u8; 32]; 4] {
    keccak256_x4_prefixed(&[], msgs)
}

/// Like [`keccak256_fixed_x4`], hashing `prefix ++ msgs[i]` for each slot
/// without materializing the concatenations (the domain-tag shape used by
/// Merkle leaf/node hashing).
pub fn keccak256_x4_prefixed(prefix: &[u8], msgs: [&[u8]; 4]) -> [[u8; 32]; 4] {
    let [m0, m1, m2, m3] = msgs;
    let nb = padded_blocks(prefix.len() + m0.len());
    if padded_blocks(prefix.len() + m1.len()) == nb
        && padded_blocks(prefix.len() + m2.len()) == nb
        && padded_blocks(prefix.len() + m3.len()) == nb
    {
        x4_same_blocks(&[(prefix, m0), (prefix, m1), (prefix, m2), (prefix, m3)])
    } else {
        [
            keccak256_prefixed(prefix, m0),
            keccak256_prefixed(prefix, m1),
            keccak256_prefixed(prefix, m2),
            keccak256_prefixed(prefix, m3),
        ]
    }
}

/// Keccak-256 of every input, ×4-interleaved where possible.
///
/// Output order matches input order. Internally the inputs are bucketed by
/// padded block count so each group of four absorbs in lockstep; the
/// (≤ 3 per bucket) remainders run the scalar one-shot path. Byte-identical
/// to calling [`super::keccak256`] on each input.
pub fn keccak256_batch(inputs: &[&[u8]]) -> Vec<Hash32> {
    keccak256_batch_prefixed(&[], inputs)
}

/// Like [`keccak256_batch`], hashing the logical message `prefix ++ input`
/// for every input (shared domain tag).
pub fn keccak256_batch_prefixed(prefix: &[u8], inputs: &[&[u8]]) -> Vec<Hash32> {
    batch_of(inputs.len(), |i| {
        (prefix, inputs.get(i as usize).copied().unwrap_or(&[]))
    })
}

/// Like [`keccak256_batch_prefixed`] with a prefix of each input's own:
/// hashes the logical message `head ++ data` for every `(head, data)`
/// pair, without materializing the concatenations (the shape of a signed
/// request's digest, whose sequence ‖ length head differs per request).
pub fn keccak256_batch_pairs(inputs: &[(&[u8], &[u8])]) -> Vec<Hash32> {
    batch_of(inputs.len(), |i| {
        inputs.get(i as usize).copied().unwrap_or((&[], &[]))
    })
}

/// The batch engine behind both entry points: `msg_at(i)` is message `i`
/// as `(prefix, data)`, for `i < len`.
fn batch_of<'a>(len: usize, msg_at: impl Fn(u32) -> (&'a [u8], &'a [u8])) -> Vec<Hash32> {
    let mut out = vec![Hash32::ZERO; len];
    let blocks_at = |i: u32| -> usize {
        let (prefix, data) = msg_at(i);
        padded_blocks(prefix.len() + data.len())
    };

    // Bucket input indices by padded block count; the sort is stable so
    // equal-size runs keep input order (cache-friendly for the common
    // uniform case, where this is a no-op).
    let mut order: Vec<u32> = (0..len as u32).collect();
    order.sort_by_key(|&i| blocks_at(i));

    let mut rest: &[u32] = &order;
    while let Some((&first, _)) = rest.split_first() {
        let nb = blocks_at(first);
        let run_len = rest.iter().take_while(|&&i| blocks_at(i) == nb).count();
        let (run, tail) = rest.split_at(run_len);
        rest = tail;
        let mut quads = run.chunks_exact(4);
        for quad in &mut quads {
            if let [a, b, c, d] = *quad {
                let digests = x4_same_blocks(&[msg_at(a), msg_at(b), msg_at(c), msg_at(d)]);
                for (&idx, digest) in quad.iter().zip(digests.iter()) {
                    if let Some(slot) = out.get_mut(idx as usize) {
                        *slot = Hash32(*digest);
                    }
                }
            }
        }
        for &idx in quads.remainder() {
            if let Some(slot) = out.get_mut(idx as usize) {
                let (prefix, data) = msg_at(idx);
                *slot = Hash32(keccak256_prefixed(prefix, data));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::keccak256;
    use super::*;

    #[test]
    fn x4_matches_scalar_equal_lengths() {
        let msgs: [&[u8]; 4] = [b"alpha", b"bravo", b"candy", b"delta"];
        let got = keccak256_fixed_x4(msgs);
        for (m, d) in msgs.iter().zip(got.iter()) {
            assert_eq!(*d, keccak256(m));
        }
    }

    #[test]
    fn x4_matches_scalar_multi_block_and_mixed() {
        let long_a = vec![0x11u8; 300];
        let long_b = vec![0x22u8; 407];
        let long_c = vec![0x33u8; 272];
        let long_d = vec![0x44u8; 273];
        // 300 and 407 both pad to 3 blocks; 272 pads to 3, 273 to 3 — all
        // lockstep. Then a mixed set forces the scalar fallback.
        let same: [&[u8]; 4] = [&long_a, &long_b, &long_c, &long_d];
        for (m, d) in same.iter().zip(keccak256_fixed_x4(same).iter()) {
            assert_eq!(*d, keccak256(m));
        }
        let mixed: [&[u8]; 4] = [&long_a, b"tiny", &long_b, b""];
        for (m, d) in mixed.iter().zip(keccak256_fixed_x4(mixed).iter()) {
            assert_eq!(*d, keccak256(m));
        }
    }

    #[test]
    fn batch_matches_sequential_with_ragged_tail() {
        let inputs: Vec<Vec<u8>> = (0..11usize)
            .map(|i| (0..i * 37).map(|b| (b % 256) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let got = keccak256_batch(&refs);
        assert_eq!(got.len(), refs.len());
        for (input, digest) in refs.iter().zip(got.iter()) {
            assert_eq!(digest.0, keccak256(input));
        }
    }

    #[test]
    fn batch_prefixed_matches_concatenation() {
        let prefix = [0x01u8];
        let inputs: Vec<Vec<u8>> = (0..9usize).map(|i| vec![i as u8; i * 31]).collect();
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        for (input, digest) in refs.iter().zip(keccak256_batch_prefixed(&prefix, &refs)) {
            let mut concat = prefix.to_vec();
            concat.extend_from_slice(input);
            assert_eq!(digest.0, keccak256(&concat));
        }
    }

    /// Per-item heads of every length around the rate (alone and with
    /// their data), so one lockstep group mixes head/data splits.
    #[test]
    fn batch_pairs_match_concatenation() {
        let heads: Vec<Vec<u8>> = [0usize, 1, 12, 12, 135, 136, 137, 200]
            .iter()
            .map(|&n| vec![n as u8; n])
            .collect();
        let data: Vec<Vec<u8>> = (0..24usize).map(|i| vec![i as u8; i * 17]).collect();
        let pairs: Vec<(&[u8], &[u8])> = data
            .iter()
            .enumerate()
            .map(|(i, d)| (heads[i % heads.len()].as_slice(), d.as_slice()))
            .collect();
        let got = keccak256_batch_pairs(&pairs);
        assert_eq!(got.len(), pairs.len());
        for ((head, data), digest) in pairs.iter().zip(got) {
            assert_eq!(digest.0, keccak256(&[*head, *data].concat()));
        }
        assert!(keccak256_batch_pairs(&[]).is_empty());
    }

    #[test]
    fn batch_empty_and_single() {
        assert!(keccak256_batch(&[]).is_empty());
        let one = keccak256_batch(&[b"solo".as_slice()]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.first().map(|h| h.0), Some(keccak256(b"solo")));
    }
}
