//! The naive Keccak-256 oracle the shipped paths are held to: one state,
//! the permutation as loops over the published round constants, rotation
//! offsets and pi walk, the whole message padded and absorbed in one call.
//! No unrolling, no interleaving, no streaming. `keccak_vectors.rs` anchors
//! it to published and rate-boundary digests.

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

/// Rho rotation offsets, in pi-walk order.
const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

/// Destination lanes of the pi walk.
const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// Rate in bytes for a 256-bit digest: (1600 − 2·256) / 8.
const RATE: usize = 136;

fn keccak_f(state: &mut [u64; 25]) {
    for rc in RC {
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
        let mut last = state[1];
        for i in 0..24 {
            let next = state[PI[i]];
            state[PI[i]] = last.rotate_left(RHO[i]);
            last = next;
        }
        for y in 0..5 {
            let row: Vec<u64> = state[5 * y..5 * y + 5].to_vec();
            for x in 0..5 {
                state[x + 5 * y] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        state[0] ^= rc;
    }
}

/// Keccak-256 of `data` (legacy `0x01` padding, as Ethereum uses).
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    let mut padded = data.to_vec();
    padded.push(0x01);
    padded.resize(padded.len().div_ceil(RATE) * RATE, 0);
    *padded.last_mut().expect("at least one block") |= 0x80;
    let mut state = [0u64; 25];
    for block in padded.chunks(RATE) {
        for (lane, bytes) in state.iter_mut().zip(block.chunks(8)) {
            *lane ^= u64::from_le_bytes(bytes.try_into().expect("8-byte lane"));
        }
        keccak_f(&mut state);
    }
    let mut out = [0u8; 32];
    for (bytes, lane) in out.chunks_mut(8).zip(state) {
        bytes.copy_from_slice(&lane.to_le_bytes());
    }
    out
}
