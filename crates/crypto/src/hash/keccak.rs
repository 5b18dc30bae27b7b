//! Keccak-256 as used by Ethereum (original Keccak submission padding,
//! `0x01`, *not* the NIST SHA-3 domain byte `0x06`).
//!
//! Implements the full Keccak-f[1600] permutation with a 1088-bit rate
//! sponge. This is the hash behind transaction hashes, contract addresses,
//! Merkle digests and `recoverSigner` message hashes throughout the
//! workspace — profiled as the integrity layer's hard floor once signing
//! was amortized (see docs/perf.md, "Breaking the hashing wall").
//!
//! Two scalar paths live here, both byte-identical to a naive loop-based
//! sponge (proven by `crates/crypto/tests/hash_differential.rs`):
//!
//! * [`Keccak256`] — the incremental sponge for arbitrary-length and
//!   streamed input, rebuilt on a fully unrolled round function (no lane
//!   table walks, no bounds checks in the permutation);
//! * [`keccak256_fixed`] — the fused fast path for sub-rate one-shot
//!   inputs (`len < 136`): pad directly into one stack block, load it as
//!   the initial state, run a single permutation, squeeze. No sponge state
//!   machine, no buffered-byte bookkeeping. The 65-byte Merkle node shape
//!   and every fixed-size digest in the workspace take this path.
//!
//! The ×4 lane-interleaved batch paths are in [`super::keccak4`].

use super::metrics;

/// Round constants for Keccak-f[1600].
pub(crate) const RC: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rate in bytes for 256-bit output: (1600 - 2*256) / 8.
pub(crate) const RATE: usize = 136;

/// Applies the Keccak-f[1600] permutation in place.
///
/// The round body is fully unrolled with literal lane indices: theta's
/// column parities and chi's row rewrites run over `chunks_exact(5)` rows,
/// and the rho/pi cycle is written out as its 24 concrete (lane, rotation)
/// steps instead of walking the `PI`/`RHO` tables. That removes every
/// bounds check and table load from the innermost 24-round loop.
pub(crate) fn keccak_f(state: &mut [u64; 25]) {
    for rc in RC {
        // Theta: column parities, then fold d into every row.
        let mut c = [0u64; 5];
        for row in state.chunks_exact(5) {
            c[0] ^= row[0];
            c[1] ^= row[1];
            c[2] ^= row[2];
            c[3] ^= row[3];
            c[4] ^= row[4];
        }
        let d = [
            c[4] ^ c[1].rotate_left(1),
            c[0] ^ c[2].rotate_left(1),
            c[1] ^ c[3].rotate_left(1),
            c[2] ^ c[4].rotate_left(1),
            c[3] ^ c[0].rotate_left(1),
        ];
        for row in state.chunks_exact_mut(5) {
            row[0] ^= d[0];
            row[1] ^= d[1];
            row[2] ^= d[2];
            row[3] ^= d[3];
            row[4] ^= d[4];
        }
        // Rho and pi fused: the pi cycle unrolled with literal indices
        // (destination lane, rotation) — the walk a loop-based permutation
        // drives through its PI/RHO tables.
        let mut last = state[1];
        let t = state[10];
        state[10] = last.rotate_left(1);
        last = t;
        let t = state[7];
        state[7] = last.rotate_left(3);
        last = t;
        let t = state[11];
        state[11] = last.rotate_left(6);
        last = t;
        let t = state[17];
        state[17] = last.rotate_left(10);
        last = t;
        let t = state[18];
        state[18] = last.rotate_left(15);
        last = t;
        let t = state[3];
        state[3] = last.rotate_left(21);
        last = t;
        let t = state[5];
        state[5] = last.rotate_left(28);
        last = t;
        let t = state[16];
        state[16] = last.rotate_left(36);
        last = t;
        let t = state[8];
        state[8] = last.rotate_left(45);
        last = t;
        let t = state[21];
        state[21] = last.rotate_left(55);
        last = t;
        let t = state[24];
        state[24] = last.rotate_left(2);
        last = t;
        let t = state[4];
        state[4] = last.rotate_left(14);
        last = t;
        let t = state[15];
        state[15] = last.rotate_left(27);
        last = t;
        let t = state[23];
        state[23] = last.rotate_left(41);
        last = t;
        let t = state[19];
        state[19] = last.rotate_left(56);
        last = t;
        let t = state[13];
        state[13] = last.rotate_left(8);
        last = t;
        let t = state[12];
        state[12] = last.rotate_left(25);
        last = t;
        let t = state[2];
        state[2] = last.rotate_left(43);
        last = t;
        let t = state[20];
        state[20] = last.rotate_left(62);
        last = t;
        let t = state[14];
        state[14] = last.rotate_left(18);
        last = t;
        let t = state[22];
        state[22] = last.rotate_left(39);
        last = t;
        let t = state[9];
        state[9] = last.rotate_left(61);
        last = t;
        let t = state[6];
        state[6] = last.rotate_left(20);
        last = t;
        state[1] = last.rotate_left(44);
        // Chi, row by row.
        for row in state.chunks_exact_mut(5) {
            let a = [row[0], row[1], row[2], row[3], row[4]];
            row[0] = a[0] ^ (!a[1] & a[2]);
            row[1] = a[1] ^ (!a[2] & a[3]);
            row[2] = a[2] ^ (!a[3] & a[4]);
            row[3] = a[3] ^ (!a[4] & a[0]);
            row[4] = a[4] ^ (!a[0] & a[1]);
        }
        // Iota.
        state[0] ^= rc;
    }
}

/// XORs one full rate block into the sponge state and permutes.
pub(crate) fn absorb_into(state: &mut [u64; 25], block: &[u8; RATE]) {
    // 17 rate lanes; the capacity lanes (17..25) are untouched by absorb.
    for (lane, chunk) in state.iter_mut().zip(block.chunks_exact(8)) {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(chunk);
        *lane ^= u64::from_le_bytes(bytes);
    }
    keccak_f(state);
}

/// Copies the first four state lanes out as the 256-bit digest.
pub(crate) fn squeeze(state: &[u64; 25]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, lane) in out.chunks_exact_mut(8).zip(state.iter()) {
        chunk.copy_from_slice(&lane.to_le_bytes());
    }
    out
}

/// Streaming Keccak-256 hasher.
///
/// ```
/// use wedge_crypto::hash::Keccak256;
/// let mut h = Keccak256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Keccak256::digest(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Keccak256 {
    state: [u64; 25],
    /// Bytes buffered toward the next full rate block.
    buf: [u8; RATE],
    buf_len: usize,
}

impl Default for Keccak256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Keccak256 {
    /// Creates an empty hasher.
    pub fn new() -> Self {
        Keccak256 {
            state: [0; 25],
            buf: [0; RATE],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (RATE - self.buf_len).min(data.len());
            let (head, rest) = data.split_at(take);
            if let Some(dst) = self.buf.get_mut(self.buf_len..self.buf_len + take) {
                dst.copy_from_slice(head);
            }
            self.buf_len += take;
            data = rest;
            if self.buf_len == RATE {
                let block = self.buf;
                absorb_into(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        while data.len() >= RATE {
            let (block, rest) = data.split_at(RATE);
            let mut arr = [0u8; RATE];
            arr.copy_from_slice(block);
            absorb_into(&mut self.state, &arr);
            data = rest;
        }
        if !data.is_empty() {
            let (dst, _) = self.buf.split_at_mut(data.len());
            dst.copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Multi-rate padding with the legacy Keccak domain bit (0x01).
        // buf_len < RATE is a struct invariant (update() flushes full
        // blocks), so both pad writes land inside the block.
        let mut block = [0u8; RATE];
        let (filled, _) = self.buf.split_at(self.buf_len);
        let (dst, _) = block.split_at_mut(self.buf_len);
        dst.copy_from_slice(filled);
        if let Some(pad) = block.get_mut(self.buf_len) {
            *pad ^= 0x01;
        }
        block[135] ^= 0x80;
        absorb_into(&mut self.state, &block);
        metrics::count_hashes(1);
        squeeze(&self.state)
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Keccak256::new();
        h.update(data);
        h.finalize()
    }
}

/// One-shot Keccak-256 of `data`.
///
/// Sub-rate inputs (`len < 136`) take the fused single-permutation path;
/// longer inputs run the incremental sponge. Both produce the same
/// digest.
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    if data.len() < RATE {
        keccak256_fixed(data)
    } else {
        Keccak256::digest(data)
    }
}

/// Fused single-permutation Keccak-256 for sub-rate one-shot inputs.
///
/// For `data.len() < 136` the padded message is exactly one rate block and
/// the sponge state starts at zero, so the digest is one block load plus
/// one permutation — no incremental state machine, no buffering. Inputs of
/// 136 bytes or more fall back to the streaming sponge (their padding
/// spills into a second block), keeping the function total.
pub fn keccak256_fixed(data: &[u8]) -> [u8; 32] {
    if data.len() >= RATE {
        return Keccak256::digest(data);
    }
    let mut block = [0u8; RATE];
    let (dst, _) = block.split_at_mut(data.len());
    dst.copy_from_slice(data);
    if let Some(pad) = block.get_mut(data.len()) {
        *pad ^= 0x01;
    }
    block[135] ^= 0x80;
    // State starts all-zero, so absorbing is a plain load of the block.
    let mut state = [0u64; 25];
    absorb_into(&mut state, &block);
    metrics::count_hashes(1);
    squeeze(&state)
}

/// One-shot Keccak-256 of the logical message `prefix ++ data`, without
/// materializing the concatenation.
///
/// This is the shape of every domain-separated digest in the workspace
/// (`tag || payload` Merkle leaves in particular): when the whole message
/// is sub-rate it takes the fused single-permutation path, otherwise it
/// streams both parts through the sponge.
pub fn keccak256_prefixed(prefix: &[u8], data: &[u8]) -> [u8; 32] {
    let total = prefix.len() + data.len();
    if total < RATE {
        let mut block = [0u8; RATE];
        let (head, rest) = block.split_at_mut(prefix.len());
        head.copy_from_slice(prefix);
        let (mid, _) = rest.split_at_mut(data.len());
        mid.copy_from_slice(data);
        if let Some(pad) = block.get_mut(total) {
            *pad ^= 0x01;
        }
        block[135] ^= 0x80;
        let mut state = [0u64; 25];
        absorb_into(&mut state, &block);
        metrics::count_hashes(1);
        return squeeze(&state);
    }
    let mut h = Keccak256::new();
    h.update(prefix);
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        // Well-known Keccak-256("") — e.g. the empty-account code hash on
        // Ethereum.
        assert_eq!(
            hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn streaming_matches_oneshot_across_block_boundary() {
        // 500 bytes spans multiple 136-byte rate blocks.
        let data: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 135, 136, 137, 271, 272, 499, 500] {
            let mut h = Keccak256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), keccak256(&data), "split at {split}");
        }
    }

    #[test]
    fn rate_sized_input() {
        // Exactly one rate block forces the padding into a fresh block.
        let data = [0xABu8; 136];
        let mut h = Keccak256::new();
        h.update(&data);
        assert_eq!(h.finalize(), keccak256(&data));
    }

    #[test]
    fn fixed_path_matches_sponge_for_every_sub_rate_length() {
        // The satellite regression: every one-shot length 0..=136 produces
        // the same digest through keccak256, keccak256_fixed, and the
        // incremental sponge (136 exercises the fixed path's fallback).
        for len in 0..=136usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let sponge = Keccak256::digest(&data);
            assert_eq!(keccak256_fixed(&data), sponge, "fixed at len {len}");
            assert_eq!(keccak256(&data), sponge, "one-shot at len {len}");
        }
    }

    #[test]
    fn prefixed_matches_concatenation() {
        for (plen, dlen) in [
            (0, 0),
            (1, 0),
            (0, 5),
            (1, 64),
            (1, 134),
            (1, 135),
            (33, 200),
        ] {
            let prefix: Vec<u8> = (0..plen).map(|i| i as u8).collect();
            let data: Vec<u8> = (0..dlen).map(|i| (i ^ 0x5A) as u8).collect();
            let mut concat = prefix.clone();
            concat.extend_from_slice(&data);
            assert_eq!(
                keccak256_prefixed(&prefix, &data),
                keccak256(&concat),
                "prefix {plen} + data {dlen}"
            );
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(keccak256(b"wedge"), keccak256(b"block"));
        assert_ne!(keccak256(b"a"), keccak256(b"a\0"));
    }
}
