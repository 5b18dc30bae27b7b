//! Known-answer tests for RFC 6979 deterministic ECDSA on secp256k1.
//!
//! These vectors circulate in the Bitcoin ecosystem (originally from the
//! bitcoin-core/libsecp256k1 and python-ecdsa test suites): private key,
//! SHA-256 message hash, and the resulting low-s signature `(r, s)`. The
//! recovery id `v` is pinned beside them (recovery to the signer's key
//! confirms it), so the whole 65-byte signature is fixed, from the per-item
//! signer and from the batch signer alike.

use wedge_crypto::ecdsa::{
    recover_prehashed, sign_prehashed, sign_prehashed_batch, verify_prehashed,
};
use wedge_crypto::hash::sha256;
use wedge_crypto::SecretKey;

fn hex32(s: &str) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..32 {
        out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
    }
    out
}

fn check_vector(privkey_hex: &str, message: &str, r_hex: &str, s_hex: &str, v: u8) {
    let key = SecretKey::from_bytes(&hex32(privkey_hex)).unwrap();
    let digest = sha256(message.as_bytes());
    let sig = sign_prehashed(&key, &digest);
    let mut expect = [0u8; 65];
    expect[..32].copy_from_slice(&hex32(r_hex));
    expect[32..64].copy_from_slice(&hex32(s_hex));
    expect[64] = v;
    assert_eq!(sig.to_bytes(), expect, "signature for message {message:?}");
    let batch = sign_prehashed_batch(&key, &[digest, digest]);
    for from_batch in batch {
        assert_eq!(from_batch.to_bytes(), expect, "batch, message {message:?}");
    }
    // And of course the signature verifies and recovers.
    verify_prehashed(&key.public_key(), &digest, &sig).unwrap();
    assert_eq!(recover_prehashed(&digest, &sig).unwrap(), key.public_key());
}

#[test]
fn vector_key1_satoshi() {
    // privkey = 1, message = "Satoshi Nakamoto"
    check_vector(
        "0000000000000000000000000000000000000000000000000000000000000001",
        "Satoshi Nakamoto",
        "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8",
        "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5",
        1,
    );
}

#[test]
fn vector_key1_all_those_moments() {
    // privkey = 1, message = "All those moments will be lost in time, like
    // tears in rain. Time to die..."
    check_vector(
        "0000000000000000000000000000000000000000000000000000000000000001",
        "All those moments will be lost in time, like tears in rain. Time to die...",
        "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b",
        "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21",
        0,
    );
}

#[test]
fn vector_keymax_satoshi() {
    // privkey = n - 1, message = "Satoshi Nakamoto"
    check_vector(
        "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
        "Satoshi Nakamoto",
        "fd567d121db66e382991534ada77a6bd3106f0a1098c231e47993447cd6af2d0",
        "6b39cd0eb1bc8603e159ef5c20a5c8ad685a45b06ce9bebed3f153d10d93bed5",
        0,
    );
}

#[test]
fn vector_key_alan_turing() {
    // privkey = 0xf8b8af8ce3c7cca5e300d33939540c10d45ce001b8f252bfbc57ba0342904181,
    // message = "Alan Turing"
    check_vector(
        "f8b8af8ce3c7cca5e300d33939540c10d45ce001b8f252bfbc57ba0342904181",
        "Alan Turing",
        "7063ae83e7f62bbb171798131b4a0564b956930092b33b07b395615d9ec7e15c",
        "58dfcc1e00a35e1572f366ffe34ba0fc47db1e7189759b9fb233c5b05ab388ea",
        0,
    );
}
