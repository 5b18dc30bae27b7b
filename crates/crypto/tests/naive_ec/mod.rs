//! The naive secp256k1 oracles the fast paths are held to: `k·P` by
//! double-and-add over the public group law (no table, window,
//! endomorphism or bucket), and textbook ECDSA verification (`u1·G + u2·Q`
//! with the affine x compared mod n). `naive_mul_known_answers` anchors
//! them to published multiples of the generator.
//!
//! Shared by `differential.rs` and, through `#[path]`, by the crate's own
//! tests (which need it beside the private RFC 6979 nonce generator).

use wedge_crypto::ecdsa::Signature;
use wedge_crypto::keys::PublicKey;
use wedge_crypto::secp256k1::{Affine, Fe, Jacobian, Scalar};

/// 2G, a classic known-answer vector.
pub const G2X: &str = "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5";
/// The y of 2G.
pub const G2Y: &str = "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a";

/// `k·P` by double-and-add, one scalar bit at a time.
pub fn naive_mul(point: &Affine, k: &Scalar) -> Jacobian {
    let mut acc = Jacobian::INFINITY;
    for byte in k.to_be_bytes() {
        for bit in (0..8).rev() {
            acc = acc.double();
            if byte >> bit & 1 == 1 {
                acc = acc.add_affine(point);
            }
        }
    }
    acc
}

/// `a·G + b·Q` as two naive multiplications.
pub fn naive_mul_double(a: &Scalar, b: &Scalar, q: &Affine) -> Affine {
    naive_mul(&Affine::GENERATOR, a)
        .add(&naive_mul(q, b))
        .to_affine()
}

/// Textbook ECDSA verification with the low-s rule the shipped verifier
/// applies: `u1·G + u2·Q` by the naive oracle, its affine x compared mod n.
pub fn naive_verify(public: &PublicKey, msg_hash: &[u8; 32], sig: &Signature) -> bool {
    let Some(s_inv) = sig.s.invert() else {
        return false;
    };
    if sig.r.is_zero() || sig.s.is_high() {
        return false;
    }
    let z = Scalar::from_be_bytes_reduced(msg_hash);
    let point = naive_mul_double(&z.mul(&s_inv), &sig.r.mul(&s_inv), public.point());
    !point.infinity && Scalar::from_u256(point.x.to_u256()) == sig.r
}

/// The oracle on known answers: G, 2G, 3G, and (n − 1)·G = −G.
#[test]
fn naive_mul_known_answers() {
    let point = |x: &str, y: &str| Affine::new(Fe::from_be_hex(x), Fe::from_be_hex(y));
    let g = Affine::GENERATOR;
    let naive = |k: Scalar| Some(naive_mul(&g, &k).to_affine());
    assert_eq!(naive(Scalar::from_u64(1)), Some(g));
    assert_eq!(naive(Scalar::from_u64(2)), point(G2X, G2Y));
    assert_eq!(
        naive(Scalar::from_u64(3)),
        point(
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672",
        )
    );
    assert_eq!(naive(Scalar::from_u64(1).neg()), Some(g.neg()));
    assert!(naive_mul(&g, &Scalar::ZERO).is_infinity());
}
