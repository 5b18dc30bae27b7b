//! Keccak-256 known-answer tests.
//!
//! The first three digests are published, externally verifiable constants
//! (the empty digest is ubiquitous on Ethereum — it is the code hash of
//! every externally-owned account). They pin the permutation, the padding
//! domain bit (legacy 0x01, *not* SHA-3's 0x06), and the rate. The
//! boundary vectors pin the three padding regimes around the 136-byte
//! rate; their digests were generated once from a loop-based sponge
//! anchored by the external vectors, and must never change.
//!
//! Every vector is checked through all four public paths — the streaming
//! sponge, the auto-routing one-shot, the fused fixed path, and every lane
//! of the ×4 interleaved permutation — and through the naive oracle
//! `hash_differential.rs` holds those paths to.

mod naive_keccak;

use wedge_crypto::hash::{keccak256, keccak256_fixed, keccak256_fixed_x4, Keccak256};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Asserts one vector across every digest path.
fn check(input: &[u8], expect_hex: &str) {
    assert_eq!(hex(&naive_keccak::keccak256(input)), expect_hex, "oracle");
    assert_eq!(hex(&keccak256(input)), expect_hex, "one-shot");
    assert_eq!(hex(&keccak256_fixed(input)), expect_hex, "fixed path");
    let mut h = Keccak256::new();
    // Feed byte-by-byte to exercise the buffered sponge.
    for b in input {
        h.update(core::slice::from_ref(b));
    }
    assert_eq!(hex(&h.finalize()), expect_hex, "streaming");
    let x4 = keccak256_fixed_x4([input, input, input, input]);
    for digest in x4.iter() {
        assert_eq!(hex(digest), expect_hex, "x4 lane");
    }
}

#[test]
fn empty_input() {
    // keccak256("") — the Ethereum empty code hash.
    check(
        b"",
        "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    );
}

#[test]
fn abc() {
    // Original Keccak submission test vector.
    check(
        b"abc",
        "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    );
}

#[test]
fn quick_brown_fox() {
    // Widely published Keccak-256 vector (e.g. the pre-NIST Keccak docs).
    check(
        b"The quick brown fox jumps over the lazy dog",
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    );
}

#[test]
fn rate_boundary_135() {
    // 135 bytes: the final message byte is block offset 134, so the 0x01
    // padding bit and the trailing 0x80 coincide in byte 135 as 0x81.
    check(
        &[0x61u8; 135],
        "34367dc248bbd832f4e3e69dfaac2f92638bd0bbd18f2912ba4ef454919cf446",
    );
}

#[test]
fn rate_boundary_136() {
    // Exactly one rate block of message: the padding must spill into a
    // second, otherwise-empty block.
    check(
        &[0x61u8; 136],
        "a6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e",
    );
}

#[test]
fn rate_boundary_137() {
    // One full block plus one byte: a genuine two-block message.
    check(
        &[0x61u8; 137],
        "d869f639c7046b4929fc92a4d988a8b22c55fbadb802c0c66ebcd484f1915f39",
    );
}
