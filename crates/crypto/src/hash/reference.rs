//! Frozen pre-PR scalar Keccak-256 — the differential-testing baseline.
//!
//! This module preserves, byte for byte, the loop-based single-state sponge
//! that shipped before the hashing-wall rework (the ×4 lane-interleaved
//! permutation and the fused single-permutation fast path in
//! `super::keccak` / `super::keccak4`). Every optimized path is pinned
//! against it by `crates/crypto/tests/hash_differential.rs`: same digest for
//! every input length, every rate boundary, every lane position, every batch
//! shape. **Do not optimize this module** — its value is that it stays the
//! slow, obviously-correct original. (The L1 indexing audit covers the
//! rebuilt `keccak*` modules, not this frozen text — see
//! `crates/xtask/src/lib.rs`.)

/// Round constants for Keccak-f[1600].
const RC: [u64; 24] = [
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

/// Rotation offsets applied during the rho step, in pi-permutation order.
const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

/// Lane destination indices for the pi step.
const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// Rate in bytes for 256-bit output: (1600 - 2*256) / 8.
const RATE: usize = 136;

/// Applies the Keccak-f[1600] permutation in place (loop-based original).
fn keccak_f(state: &mut [u64; 25]) {
    for rc in RC {
        // Theta.
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // Rho and pi fused: walk the pi cycle rotating as we go.
        let mut last = state[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = state[j];
            state[j] = last.rotate_left(RHO[i]);
            last = tmp;
        }
        // Chi.
        for y in 0..5 {
            let mut row = [0u64; 5];
            row.copy_from_slice(&state[5 * y..5 * y + 5]);
            for x in 0..5 {
                state[x + 5 * y] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        // Iota.
        state[0] ^= rc;
    }
}

/// The frozen streaming Keccak-256 hasher (pre-PR incremental sponge).
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
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == RATE {
                let block = self.buf;
                self.absorb_block(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= RATE {
            let (block, rest) = data.split_at(RATE);
            let mut arr = [0u8; RATE];
            arr.copy_from_slice(block);
            self.absorb_block(&arr);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// XORs a full rate block into the state and permutes.
    fn absorb_block(&mut self, block: &[u8; RATE]) {
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            let mut lane = [0u8; 8];
            lane.copy_from_slice(chunk);
            self.state[i] ^= u64::from_le_bytes(lane);
        }
        keccak_f(&mut self.state);
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Multi-rate padding with the legacy Keccak domain bit (0x01).
        let mut block = [0u8; RATE];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] ^= 0x01;
        block[RATE - 1] ^= 0x80;
        self.absorb_block(&block);
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.state[i].to_le_bytes());
        }
        out
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Keccak256::new();
        h.update(data);
        h.finalize()
    }
}

/// One-shot Keccak-256 of `data` through the frozen scalar sponge.
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    Keccak256::digest(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn frozen_empty_vector() {
        assert_eq!(
            hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn frozen_abc_vector() {
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }
}
