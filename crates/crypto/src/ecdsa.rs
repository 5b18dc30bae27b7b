//! ECDSA over secp256k1 with RFC 6979 deterministic nonces and Ethereum-style
//! public-key recovery.
//!
//! Recovery is the primitive behind the Punishment contract's
//! `recoverSigner` (paper, Algorithm 2): given a signed off-chain response,
//! the contract recovers the signing address on-chain without needing the
//! public key in calldata.

use std::ops::Range;

use crate::error::CryptoError;
use crate::hash::{keccak256_batch_prefixed, HmacSha256, Keccak256};
use crate::keys::{Address, PublicKey, SecretKey};
use crate::secp256k1::scalar::N;
use crate::secp256k1::{
    batch_normalize, msm_u128, mul_double, mul_double_with_table, mul_generator, Affine,
    AffineTable, Fe, Jacobian, Scalar,
};
use crate::uint::U256;

/// A recoverable ECDSA signature `(r, s, v)` with `s` normalized to the low
/// half of the order (malleability protection, as enforced by Ethereum).
///
/// `nonce_y` is a **hint, not part of the signature**: the y-coordinate of
/// the nonce point `(r, v)` names, which the signer computed anyway.
/// [`to_bytes`](Signature::to_bytes), `==`, `Debug` and every digest built
/// from a signature ignore it, and it is never trusted: recovery and
/// [`verify_recoverable_batch`] use it only after checking `y² = x³ + 7` and
/// its parity against `v & 1`, which leaves exactly the point a square root
/// would have produced. A hint that fails the check costs that square root,
/// as no hint does. So a hint can make a check faster; it can never change
/// a verdict.
#[derive(Clone, Copy)]
pub struct Signature {
    /// x-coordinate of the nonce point, mod n.
    pub r: Scalar,
    /// Proof scalar, always in the low half.
    pub s: Scalar,
    /// Recovery id in 0..=3: bit 0 = parity of the nonce point's y; bit 1 =
    /// whether the nonce point's x overflowed the group order.
    pub v: u8,
    /// The nonce point's y after the low-s negation, when known:
    /// [`sign_prehashed`] and [`sign_prehashed_batch`] fill it,
    /// [`Signature::from_bytes`] leaves it `None`.
    pub nonce_y: Option<Fe>,
}

impl PartialEq for Signature {
    fn eq(&self, other: &Signature) -> bool {
        (self.r, self.s, self.v) == (other.r, other.s, other.v)
    }
}

impl Eq for Signature {}

impl Signature {
    /// Serialized length: `r (32) || s (32) || v (1)`.
    pub const LEN: usize = 65;

    /// Serializes to 65 bytes.
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..64].copy_from_slice(&self.s.to_be_bytes());
        out[64] = self.v;
        out
    }

    /// Parses from 65 bytes, enforcing canonical (low-s, in-range) form.
    ///
    /// Rejected as [`CryptoError::InvalidSignature`]:
    /// - `r = 0` or `r ≥ n` (r is the nonce x mod n, never zero for a valid
    ///   signature, and any 32-byte encoding ≥ n is non-canonical);
    /// - `s = 0` or `s ≥ n` (same range rule);
    /// - `s > n/2` — **high-s policy**: for every valid `(r, s, v)` the twin
    ///   `(r, n - s, v ^ 1)` also verifies, so accepting both makes
    ///   signatures malleable. Like Ethereum (EIP-2), only the low half is
    ///   canonical; [`sign_prehashed`] always emits low s, and both this
    ///   parser and [`verify_prehashed`] reject the high twin.
    /// - `v > 3` (recovery id has only two meaningful bits).
    pub fn from_bytes(bytes: &[u8; 65]) -> Result<Signature, CryptoError> {
        let mut rb = [0u8; 32];
        let mut sb = [0u8; 32];
        rb.copy_from_slice(&bytes[..32]);
        sb.copy_from_slice(&bytes[32..64]);
        let r = Scalar::from_be_bytes_checked(&rb).ok_or(CryptoError::InvalidSignature)?;
        let s = Scalar::from_be_bytes_checked(&sb).ok_or(CryptoError::InvalidSignature)?;
        let v = bytes[64];
        if r.is_zero() || s.is_zero() || s.is_high() || v > 3 {
            return Err(CryptoError::InvalidSignature);
        }
        Ok(Signature {
            r,
            s,
            v,
            nonce_y: None,
        })
    }
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Signature(r=0x{}…, s=0x{}…, v={})",
            &self.r.to_u256().to_hex()[..8],
            &self.s.to_u256().to_hex()[..8],
            self.v
        )
    }
}

/// Derives the RFC 6979 deterministic nonce for `(secret, msg_hash)`.
///
/// Returns candidate scalars; the caller loops until one yields a valid
/// signature (the first candidate virtually always does).
struct Rfc6979 {
    k: [u8; 32],
    v: [u8; 32],
}

impl Rfc6979 {
    fn new(secret: &SecretKey, msg_hash: &[u8; 32]) -> Rfc6979 {
        // bits2octets(h1): reduce the hash mod n, then serialize.
        let h_reduced = Scalar::from_be_bytes_reduced(msg_hash).to_be_bytes();
        let x = secret.to_bytes();
        let mut k = [0u8; 32];
        let mut v = [1u8; 32];
        // K = HMAC_K(V || 0x00 || x || h)
        let mut mac = HmacSha256::new(&k);
        mac.update(&v);
        mac.update(&[0x00]);
        mac.update(&x);
        mac.update(&h_reduced);
        k = mac.finalize();
        // V = HMAC_K(V)
        v = crate::hash::hmac_sha256(&k, &v);
        // K = HMAC_K(V || 0x01 || x || h)
        let mut mac = HmacSha256::new(&k);
        mac.update(&v);
        mac.update(&[0x01]);
        mac.update(&x);
        mac.update(&h_reduced);
        k = mac.finalize();
        v = crate::hash::hmac_sha256(&k, &v);
        Rfc6979 { k, v }
    }

    /// Produces the next candidate nonce.
    fn next(&mut self) -> Option<Scalar> {
        self.v = crate::hash::hmac_sha256(&self.k, &self.v);
        let candidate = Scalar::from_be_bytes_checked(&self.v);
        // Prepare state for a potential retry.
        let mut mac = HmacSha256::new(&self.k);
        mac.update(&self.v);
        mac.update(&[0x00]);
        self.k = mac.finalize();
        self.v = crate::hash::hmac_sha256(&self.k, &self.v);
        match candidate {
            Some(k) if !k.is_zero() => Some(k),
            _ => None,
        }
    }
}

/// Signs a prehashed 32-byte message, returning a recoverable signature.
pub fn sign_prehashed(secret: &SecretKey, msg_hash: &[u8; 32]) -> Signature {
    let z = Scalar::from_be_bytes_reduced(msg_hash);
    let d = secret.scalar();
    let mut nonce_gen = Rfc6979::new(secret, msg_hash);
    loop {
        let Some(k) = nonce_gen.next() else { continue };
        let point = mul_generator(&k).to_affine();
        if point.infinity {
            continue;
        }
        let x_int = point.x.to_u256();
        let r = Scalar::from_u256(x_int);
        if r.is_zero() {
            continue;
        }
        let Some(k_inv) = k.invert() else { continue };
        let s = k_inv.mul(&z.add(&r.mul(d)));
        if s.is_zero() {
            continue;
        }
        return recoverable(&point, &x_int, r, s);
    }
}

/// `(r, s, v)` for the nonce point `point` (x = `x_int` as an integer), s
/// normalized to the low half — which negates the nonce point's y — and
/// that y kept as the hint.
fn recoverable(point: &Affine, x_int: &U256, r: Scalar, s: Scalar) -> Signature {
    let overflow = if *x_int >= N { 2 } else { 0 };
    let (s, y) = if s.is_high() {
        (s.neg(), point.y.neg())
    } else {
        (s, point.y)
    };
    Signature {
        r,
        s,
        v: y.is_odd() as u8 | overflow,
        nonce_y: Some(y),
    }
}

/// Signs a batch of prehashed messages, amortizing the expensive per-item
/// inversions: the nonce-point affine conversions collapse into one shared
/// field inversion (`batch_normalize`) and the nonce inverses into one
/// shared scalar inversion (`Scalar::batch_invert`).
///
/// Output is **byte-identical** to calling [`sign_prehashed`] per item: the
/// fast path uses the same first RFC 6979 nonce candidate, and any
/// astronomically rare edge case (rejected nonce, `r = 0`, `s = 0`) falls
/// back to the per-item loop for that message.
pub fn sign_prehashed_batch(secret: &SecretKey, msg_hashes: &[[u8; 32]]) -> Vec<Signature> {
    let d = secret.scalar();
    let mut nonces = Vec::with_capacity(msg_hashes.len());
    let mut points = Vec::with_capacity(msg_hashes.len());
    for h in msg_hashes {
        match Rfc6979::new(secret, h).next() {
            Some(k) => {
                points.push(mul_generator(&k));
                nonces.push(Some(k));
            }
            None => {
                points.push(Jacobian::INFINITY);
                nonces.push(None);
            }
        }
    }
    let affines = batch_normalize(&points);
    let mut k_invs: Vec<Scalar> = nonces.iter().map(|k| k.unwrap_or(Scalar::ZERO)).collect();
    Scalar::batch_invert(&mut k_invs);
    msg_hashes
        .iter()
        .enumerate()
        .map(|(i, h)| {
            // Any deviation from the happy path defers to the per-item
            // signer so batch output stays bit-for-bit identical.
            if nonces[i].is_none() || affines[i].infinity || k_invs[i].is_zero() {
                return sign_prehashed(secret, h);
            }
            let point = affines[i];
            let x_int = point.x.to_u256();
            let r = Scalar::from_u256(x_int);
            if r.is_zero() {
                return sign_prehashed(secret, h);
            }
            let z = Scalar::from_be_bytes_reduced(h);
            let s = k_invs[i].mul(&z.add(&r.mul(d)));
            if s.is_zero() {
                return sign_prehashed(secret, h);
            }
            recoverable(&point, &x_int, r, s)
        })
        .collect()
}

/// Checks whether a Jacobian point's affine x-coordinate is congruent to
/// `r` mod n **without leaving projective coordinates**: `x ≡ r (mod n)`
/// iff `X = x_cand · Z²` for `x_cand ∈ {r, r + n}` (the second candidate
/// only exists when `r + n < p`). Replaces the field inversion the old
/// affine comparison needed; the accepted set is unchanged.
fn proj_x_matches_r(point: &Jacobian, r: &Scalar) -> bool {
    let z2 = point.proj_z().square();
    let x = point.proj_x().to_be_bytes();
    let matches = |cand: U256| crate::ct::ct_eq(&x, &Fe::from_u256(cand).mul(&z2).to_be_bytes());
    matches(r.to_u256()) || r_plus_n(r).is_some_and(matches)
}

/// `r + n` as an integer, when it is still a field element (`< p`) — only
/// for the tiny range `r < p − n`.
fn r_plus_n(r: &Scalar) -> Option<U256> {
    let (sum, carry) = r.to_u256().overflowing_add(&N);
    (!carry && sum < crate::secp256k1::field::P).then_some(sum)
}

/// Verifies a signature over a prehashed message against a public key.
///
/// High-s signatures are rejected (see [`Signature::from_bytes`] for the
/// malleability policy). One-off verification; callers checking many
/// signatures under the same key should build an [`AffineTable`] for the
/// key once and use [`verify_prehashed_with_table`].
pub fn verify_prehashed(
    public: &PublicKey,
    msg_hash: &[u8; 32],
    sig: &Signature,
) -> Result<(), CryptoError> {
    verify_prehashed_with_table(&AffineTable::new(public.point()), msg_hash, sig)
}

/// Verifies a signature using a prebuilt odd-multiples table for the public
/// key, so the per-key precomputation is paid once per batch instead of
/// once per signature. The verification combination `u1·G + u2·Q` runs as
/// one Strauss–Shamir/GLV interleaved multiplication and the final
/// x-coordinate check stays projective (no inversion).
pub fn verify_prehashed_with_table(
    key_table: &AffineTable,
    msg_hash: &[u8; 32],
    sig: &Signature,
) -> Result<(), CryptoError> {
    if sig.r.is_zero() || sig.s.is_zero() || sig.s.is_high() {
        return Err(CryptoError::InvalidSignature);
    }
    let z = Scalar::from_be_bytes_reduced(msg_hash);
    let s_inv = sig.s.invert().ok_or(CryptoError::InvalidSignature)?;
    let u1 = z.mul(&s_inv);
    let u2 = sig.r.mul(&s_inv);
    let point = mul_double_with_table(&u1, &u2, key_table);
    if point.is_infinity() {
        return Err(CryptoError::VerificationFailed);
    }
    if proj_x_matches_r(&point, &sig.r) {
        Ok(())
    } else {
        Err(CryptoError::VerificationFailed)
    }
}

/// The nonce point's x-coordinate as the recovery id names it: `r` itself,
/// or `r + n` when bit 1 of `v` is set (`None` when that is not a field
/// element).
fn nonce_x(sig: &Signature) -> Option<U256> {
    if sig.v & 2 == 0 {
        Some(sig.r.to_u256())
    } else {
        r_plus_n(&sig.r)
    }
}

/// The nonce point `(r, v)` names — x from [`nonce_x`], y of parity `v & 1`
/// — or `None` when there is no such point. The hint is taken when it lies
/// on the curve with that parity: `x³ + 7` has the two square roots `y` and
/// `p − y`, of opposite parity, so such a hint *is* the root
/// [`Affine::lift_x`] would compute, and no hint passes where the lift
/// fails. Anything else costs the square root, as no hint does.
fn nonce_point(sig: &Signature) -> Option<Affine> {
    let x = Fe::from_u256(nonce_x(sig)?);
    let odd = sig.v & 1 == 1;
    // lint: allow(ct) — recovery consumes a *public* signature: the v bit
    // and the hint tested here are attacker-supplied input, not secret
    // material, and the nonce point is derived entirely from public data.
    let hint = sig.nonce_y.filter(|y| y.is_odd() == odd);
    hint.and_then(|y| Affine::new(x, y))
        .or_else(|| Affine::lift_x(x, odd))
}

/// Runs shorter than this skip the combined equation. Measured (`repro --
/// signing`, the run-length rows), the equation is ahead of the per-item
/// check from ~4 items on, but a run that fails it pays for both: at 16
/// items the equation costs ~0.55 of the per-item check, so a reject slows
/// its own run's good items by at most ~1.6×; below that the wasted share
/// grows. A failing part is only halved while its halves stay this long.
const COMBINED_MIN: usize = 16;
/// How often a run whose equation fails is halved before the failing part
/// goes through the per-item check.
const HALVINGS: u32 = 2;

/// Checks recoverable signatures `(r, s, v)` against a **remembered** key:
/// `verdicts[i]` is true iff [`recover_prehashed`] on item `i` would return
/// exactly the key `key_table` was built from — without recovery's fresh
/// nonce-point table and per-item inversions, and for a run of
/// `COMBINED_MIN` items or more with **one equation** instead of one
/// double multiplication per item.
///
/// Per item the condition is `R' = (z/s)·G + (r/s)·Q` being the very point
/// the recovery id names — `R = lift_x(r, or r + n when v & 2; parity v & 1)`,
/// x compared **as an integer, not mod n**. That pins recovery's
/// `r⁻¹(s·R − z·G)` to `r⁻¹(z·G + r·Q − z·G) = Q`; conversely, if recovery
/// yields `Q` then `s⁻¹(z·G + r·Q)` is its nonce point. Like recovery (and
/// unlike [`verify_prehashed`]) this applies no low-s rule.
///
/// A recoverable signature carries `R` whole (its y taken from the
/// [`Signature::nonce_y`] hint when that checks out, else from a square
/// root — the same point either way), so a run is checked as
/// `Σ aᵢ·(R'ᵢ − Rᵢ) = O`, i.e. `(Σ aᵢzᵢ/sᵢ)·G + (Σ aᵢrᵢ/sᵢ)·Q = Σ aᵢ·Rᵢ`:
/// one [`mul_double_with_table`] against one [`msm_u128`], with 128-bit
/// non-zero coefficients fixed by a hash of the key and every item
/// (`batch_coefficients`). In a prime-order group a sum with any
/// `R'ᵢ ≠ Rᵢ` vanishes with probability ≤ 2⁻¹²⁷ per equation. An item with
/// no such `R` is rejected on its own, as recovery rejects it. A failing
/// equation is never a verdict: the run is halved up to `HALVINGS` times
/// and a part that still fails goes through the per-item check.
pub fn verify_recoverable_batch(
    key_table: &AffineTable,
    items: &[([u8; 32], Signature)],
) -> Vec<bool> {
    verify_recoverable_probed(key_table, items).0
}

/// [`verify_recoverable_batch`] plus how the verdicts were reached, for the
/// tests: (combined equations evaluated, items checked one by one).
fn verify_recoverable_probed(
    key_table: &AffineTable,
    items: &[([u8; 32], Signature)],
) -> (Vec<bool>, (u32, usize)) {
    let mut s_invs: Vec<Scalar> = items.iter().map(|(_, sig)| sig.s).collect();
    Scalar::batch_invert(&mut s_invs);
    if items.len() < COMBINED_MIN {
        return (verify_each(key_table, items, &s_invs), (0, items.len()));
    }
    let mut run = CombinedRun {
        key_table,
        items,
        s_invs: &s_invs,
        coefficients: batch_coefficients(key_table.base(), items),
        lifted: Vec::with_capacity(items.len()),
        u1: Vec::with_capacity(items.len()),
        u2: Vec::with_capacity(items.len()),
        verdicts: vec![false; items.len()],
        probe: (0, 0),
    };
    for (((msg_hash, sig), s_inv), a) in items.iter().zip(&s_invs).zip(&run.coefficients) {
        // batch_invert leaves a zero s zero. An item recovery rejects
        // outright contributes the identity and zero scalars.
        let lifted = (!sig.r.is_zero() && !s_inv.is_zero() && sig.v <= 3)
            .then(|| nonce_point(sig))
            .flatten();
        let scale = lifted.map_or(Scalar::ZERO, |_| Scalar::from_u128(*a).mul(s_inv));
        run.lifted.push(lifted.unwrap_or(Affine::INFINITY));
        let z = Scalar::from_be_bytes_reduced(msg_hash);
        run.u1.push(scale.mul(&z));
        run.u2.push(scale.mul(&sig.r));
    }
    let defect = run.defect(0..items.len());
    run.settle(0..items.len(), defect, HALVINGS);
    (run.verdicts, run.probe)
}

/// One run on its way through the combined equation: per-item terms are
/// computed once and shared by every (sub-)equation.
struct CombinedRun<'a> {
    key_table: &'a AffineTable,
    items: &'a [([u8; 32], Signature)],
    s_invs: &'a [Scalar],
    coefficients: Vec<u128>,
    /// `Rᵢ`, or the identity for an item rejected on its own.
    lifted: Vec<Affine>,
    /// `aᵢ·zᵢ/sᵢ` and `aᵢ·rᵢ/sᵢ`.
    u1: Vec<Scalar>,
    u2: Vec<Scalar>,
    verdicts: Vec<bool>,
    probe: (u32, usize),
}

impl CombinedRun<'_> {
    /// `Σ aᵢ·(R'ᵢ − Rᵢ)` over `part`: the identity iff its equation holds.
    fn defect(&mut self, part: Range<usize>) -> Jacobian {
        self.probe.0 += 1;
        let sum = |terms: &[Scalar]| terms.iter().fold(Scalar::ZERO, |acc, t| acc.add(t));
        let (u1, u2) = (sum(&self.u1[part.clone()]), sum(&self.u2[part.clone()]));
        let right = msm_u128(&self.lifted[part.clone()], &self.coefficients[part]);
        mul_double_with_table(&u1, &u2, self.key_table).add(&right.neg())
    }

    /// Settles `part`, whose defect is known: accepted whole if it is the
    /// identity; else halved, while `halvings` last and the halves are
    /// worth an equation — one half's defect costs a multi-scalar
    /// multiplication, the other's is the difference; else checked item by
    /// item.
    fn settle(&mut self, part: Range<usize>, defect: Jacobian, halvings: u32) {
        if defect.is_infinity() {
            let verdicts = self.verdicts[part.clone()].iter_mut();
            for (verdict, lifted) in verdicts.zip(&self.lifted[part]) {
                *verdict = !lifted.infinity;
            }
        } else if halvings > 0 && part.len() >= 2 * COMBINED_MIN {
            let mid = part.start + part.len() / 2;
            let left = self.defect(part.start..mid);
            self.settle(part.start..mid, left, halvings - 1);
            self.settle(mid..part.end, defect.add(&left.neg()), halvings - 1);
        } else {
            self.probe.1 += part.len();
            let (items, s_invs) = (&self.items[part.clone()], &self.s_invs[part.clone()]);
            let checked = verify_each(self.key_table, items, s_invs);
            self.verdicts[part].copy_from_slice(&checked);
        }
    }
}

/// The combined equation's coefficients: `a₀ = 1`, every other `aᵢ` a
/// non-zero 128-bit value read from `keccak256(seed ‖ ⌊i/2⌋)` (two per
/// digest), where `seed` is the Keccak transcript of the key and of every
/// `(digest, signature)` in the run. A function of its arguments alone — no
/// RNG, no clock, no global — so whoever chooses the inputs, key included,
/// fixes the coefficients only *after* the choice.
fn batch_coefficients(key: &Affine, items: &[([u8; 32], Signature)]) -> Vec<u128> {
    let mut transcript = Keccak256::new();
    transcript.update(b"wedge-batch-verify-v1");
    transcript.update(&key.to_bytes_uncompressed());
    for (msg_hash, sig) in items {
        transcript.update(msg_hash);
        transcript.update(&sig.to_bytes());
    }
    let seed = transcript.finalize();
    let counters: Vec<[u8; 8]> = (0..items.len().div_ceil(2) as u64)
        .map(u64::to_be_bytes)
        .collect();
    let counters: Vec<&[u8]> = counters.iter().map(|c| c.as_slice()).collect();
    let mut coefficients: Vec<u128> = keccak256_batch_prefixed(&seed, &counters)
        .iter()
        .flat_map(|digest| {
            let half = |bytes: &[u8]| bytes.iter().fold(0u128, |acc, b| acc << 8 | *b as u128);
            let (high, low) = digest.0.split_at(16);
            [half(high).max(1), half(low).max(1)]
        })
        .take(items.len())
        .collect();
    if let Some(first) = coefficients.first_mut() {
        *first = 1;
    }
    coefficients
}

/// The per-item check behind [`verify_recoverable_batch`]: one
/// `u1·G + u2·Q` per item (`s_invs[i]` = `1/sᵢ`, zero for a zero `s`), all
/// result points sharing one [`batch_normalize`].
fn verify_each(
    key_table: &AffineTable,
    items: &[([u8; 32], Signature)],
    s_invs: &[Scalar],
) -> Vec<bool> {
    let points: Vec<Jacobian> = items
        .iter()
        .zip(s_invs)
        .map(|((msg_hash, sig), s_inv)| {
            // Infinity is rejected below.
            if sig.r.is_zero() || s_inv.is_zero() || sig.v > 3 {
                return Jacobian::INFINITY;
            }
            let z = Scalar::from_be_bytes_reduced(msg_hash);
            mul_double_with_table(&z.mul(s_inv), &sig.r.mul(s_inv), key_table)
        })
        .collect();
    batch_normalize(&points)
        .iter()
        .zip(items)
        .map(|(point, (_, sig))| {
            !point.infinity
                && point.y.is_odd() == (sig.v & 1 == 1)
                && nonce_x(sig)
                    .is_some_and(|x| crate::ct::ct_eq(&point.x.to_be_bytes(), &x.to_be_bytes()))
        })
        .collect()
}

/// Recovers the signer's public key from a signature over a prehashed
/// message.
///
/// When the recovery id carries bit 1 (`v` in `2..=3`), the nonce point's x
/// overflowed the group order — `x = r + n` rather than `x = r` — which is
/// only representable when `r < p - n`. Both candidates are honored here;
/// signatures produced by [`sign_prehashed`] set the bit automatically.
/// A [`Signature::nonce_y`] hint that checks out saves the square root that
/// rebuilds the nonce point; the result is the same with or without it.
pub fn recover_prehashed(msg_hash: &[u8; 32], sig: &Signature) -> Result<PublicKey, CryptoError> {
    if sig.r.is_zero() || sig.s.is_zero() || sig.v > 3 {
        return Err(CryptoError::InvalidSignature);
    }
    let nonce = nonce_point(sig).ok_or(CryptoError::RecoveryFailed)?;
    let z = Scalar::from_be_bytes_reduced(msg_hash);
    let r_inv = sig.r.invert().ok_or(CryptoError::InvalidSignature)?;
    // Q = r^-1 (s*R - z*G) = (-z*r^-1)*G + (s*r^-1)*R — one Strauss–Shamir
    // double multiplication instead of two full multiplications.
    let u1 = z.mul(&r_inv).neg();
    let u2 = sig.s.mul(&r_inv);
    let q_affine = mul_double(&u1, &u2, &nonce).to_affine();
    if q_affine.infinity {
        return Err(CryptoError::RecoveryFailed);
    }
    PublicKey::from_point(q_affine)
}

/// Recovers the signer's address — the on-chain `recoverSigner` primitive.
pub(crate) fn recover_address(
    msg_hash: &[u8; 32],
    sig: &Signature,
) -> Result<Address, CryptoError> {
    Ok(recover_prehashed(msg_hash, sig)?.address())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::keccak256;
    use crate::keys::Keypair;
    use crate::naive_ec::{naive_mul, naive_verify};

    fn hash(msg: &[u8]) -> [u8; 32] {
        keccak256(msg)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::from_seed(b"signer");
        let h = hash(b"hello wedgeblock");
        let sig = sign_prehashed(&kp.secret, &h);
        verify_prehashed(&kp.public, &h, &sig).unwrap();
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = Keypair::from_seed(b"det");
        let h = hash(b"same message");
        assert_eq!(
            sign_prehashed(&kp.secret, &h).to_bytes(),
            sign_prehashed(&kp.secret, &h).to_bytes()
        );
    }

    #[test]
    fn wrong_message_fails() {
        let kp = Keypair::from_seed(b"wm");
        let sig = sign_prehashed(&kp.secret, &hash(b"a"));
        assert_eq!(
            verify_prehashed(&kp.public, &hash(b"b"), &sig),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = Keypair::from_seed(b"k1");
        let kp2 = Keypair::from_seed(b"k2");
        let h = hash(b"msg");
        let sig = sign_prehashed(&kp1.secret, &h);
        assert!(verify_prehashed(&kp2.public, &h, &sig).is_err());
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = Keypair::from_seed(b"tamper");
        let h = hash(b"msg");
        let sig = sign_prehashed(&kp.secret, &h);
        let tampered = Signature {
            r: sig.r.add(&Scalar::ONE),
            ..sig
        };
        assert!(verify_prehashed(&kp.public, &h, &tampered).is_err());
    }

    #[test]
    fn recovery_returns_signer() {
        for seed in [b"r1".as_slice(), b"r2", b"r3", b"r4", b"r5"] {
            let kp = Keypair::from_seed(seed);
            let h = hash(seed);
            let sig = sign_prehashed(&kp.secret, &h);
            let recovered = recover_prehashed(&h, &sig).unwrap();
            assert_eq!(recovered, kp.public, "seed {seed:?}");
            assert_eq!(recover_address(&h, &sig).unwrap(), kp.address);
        }
    }

    #[test]
    fn recovery_with_flipped_v_gives_other_key() {
        let kp = Keypair::from_seed(b"flip");
        let h = hash(b"m");
        let sig = sign_prehashed(&kp.secret, &h);
        let flipped = Signature {
            v: sig.v ^ 1,
            ..sig
        };
        // Either recovery fails or it yields a different key.
        if let Ok(pk) = recover_prehashed(&h, &flipped) {
            assert_ne!(pk, kp.public);
        }
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let kp = Keypair::from_seed(b"ser");
        let h = hash(b"sermsg");
        let sig = sign_prehashed(&kp.secret, &h);
        let bytes = sig.to_bytes();
        let parsed = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, sig);
    }

    #[test]
    fn high_s_rejected_on_parse() {
        let kp = Keypair::from_seed(b"hs");
        let h = hash(b"m");
        let sig = sign_prehashed(&kp.secret, &h);
        // Re-encode with s' = n - s (the high twin).
        let mut bytes = sig.to_bytes();
        let s_high = sig.s.neg();
        bytes[32..64].copy_from_slice(&s_high.to_be_bytes());
        assert_eq!(
            Signature::from_bytes(&bytes),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn produced_signatures_are_low_s() {
        for i in 0..20u32 {
            let kp = Keypair::from_seed(&i.to_be_bytes());
            let sig = sign_prehashed(&kp.secret, &hash(&i.to_le_bytes()));
            assert!(!sig.s.is_high());
            assert!(sig.v <= 3);
        }
    }

    #[test]
    fn malformed_signature_bytes_rejected() {
        // r = 0
        let mut bytes = [0u8; 65];
        bytes[63] = 1; // s = 1
        assert!(Signature::from_bytes(&bytes).is_err());
        // v out of range
        let kp = Keypair::from_seed(b"vrange");
        let mut good = sign_prehashed(&kp.secret, &hash(b"x")).to_bytes();
        good[64] = 4;
        assert!(Signature::from_bytes(&good).is_err());
    }

    #[test]
    fn cross_message_recovery_mismatch() {
        // A signature recovered against the wrong message hash yields a key
        // that does not verify the original message — the property the
        // punishment contract relies on.
        let kp = Keypair::from_seed(b"cross");
        let h1 = hash(b"committed entry");
        let h2 = hash(b"forged entry");
        let sig = sign_prehashed(&kp.secret, &h1);
        if let Ok(pk) = recover_prehashed(&h2, &sig) {
            assert_ne!(pk.address(), kp.address);
        }
    }

    #[test]
    fn known_key_signature_verifies_with_generator_pubkey() {
        // secret = 1 → pubkey = G; exercise the minimal scalar path.
        let mut one = [0u8; 32];
        one[31] = 1;
        let sk = SecretKey::from_bytes(&one).unwrap();
        let pk = sk.public_key();
        assert_eq!(*pk.point(), Affine::GENERATOR);
        let h = hash(b"unit key");
        let sig = sign_prehashed(&sk, &h);
        verify_prehashed(&pk, &h, &sig).unwrap();
        assert_eq!(recover_prehashed(&h, &sig).unwrap(), pk);
    }

    /// Re-encodes a valid signature with one component replaced, returning
    /// the parse result.
    fn parse_with(sig: &Signature, r: Option<&[u8; 32]>, s: Option<&[u8; 32]>) -> bool {
        let mut bytes = sig.to_bytes();
        if let Some(rb) = r {
            bytes[..32].copy_from_slice(rb);
        }
        if let Some(sb) = s {
            bytes[32..64].copy_from_slice(sb);
        }
        Signature::from_bytes(&bytes).is_ok()
    }

    #[test]
    fn boundary_values_rejected_on_parse() {
        let kp = Keypair::from_seed(b"bounds");
        let sig = sign_prehashed(&kp.secret, &hash(b"boundary"));
        let zero = [0u8; 32];
        let n_bytes = N.to_be_bytes();
        let n_minus_1 = N.wrapping_sub(&crate::uint::U256::ONE).to_be_bytes();
        let n_plus_1 = N.wrapping_add(&crate::uint::U256::ONE).to_be_bytes();
        // r boundaries: 0, n, n+1 rejected; n-1 is in range and accepted.
        assert!(!parse_with(&sig, Some(&zero), None), "r = 0");
        assert!(!parse_with(&sig, Some(&n_bytes), None), "r = n");
        assert!(!parse_with(&sig, Some(&n_plus_1), None), "r = n + 1");
        assert!(parse_with(&sig, Some(&n_minus_1), None), "r = n - 1");
        // s boundaries: 0, n, n+1 rejected; n-1 is in range but HIGH, so the
        // malleability policy rejects it too.
        assert!(!parse_with(&sig, None, Some(&zero)), "s = 0");
        assert!(!parse_with(&sig, None, Some(&n_bytes)), "s = n");
        assert!(!parse_with(&sig, None, Some(&n_plus_1)), "s = n + 1");
        assert!(
            !parse_with(&sig, None, Some(&n_minus_1)),
            "s = n - 1 (high)"
        );
        // The original signature still parses.
        assert!(parse_with(&sig, None, None));
    }

    #[test]
    fn verify_rejects_zero_and_high_components() {
        let kp = Keypair::from_seed(b"vrej");
        let h = hash(b"m");
        let sig = sign_prehashed(&kp.secret, &h);
        for bad in [
            Signature {
                r: Scalar::ZERO,
                ..sig
            },
            Signature {
                s: Scalar::ZERO,
                ..sig
            },
            Signature {
                s: sig.s.neg(), // high twin
                ..sig
            },
        ] {
            assert_eq!(
                verify_prehashed(&kp.public, &h, &bad),
                Err(CryptoError::InvalidSignature)
            );
        }
    }

    /// Finds a curve point whose x-coordinate lies in `[n, p)` — the range
    /// where the nonce x overflows the group order, forcing recovery ids
    /// 2/3. Such points exist for roughly `(p - n) / 2 ≈ 2^128` x values,
    /// so scanning from n finds one immediately.
    fn overflowing_nonce_point() -> Affine {
        for t in 1u64..1000 {
            let x_int = N.wrapping_add(&crate::uint::U256::from_u64(t));
            if let Some(p) = Affine::lift_x(Fe::from_u256(x_int), false) {
                return p;
            }
        }
        unreachable!("a curve point with x in [n, p) exists within 1000 tries");
    }

    #[test]
    fn recovery_selects_second_x_candidate() {
        // Construct the edge-case vector directly: a nonce point R with
        // x = r + n. The verification equation defines the recovered key
        // Q = r^-1(sR - zG); recovery with v bit 1 set must reproduce it,
        // and verification must accept x ≡ r (mod n) via the second
        // candidate.
        let nonce_point = overflowing_nonce_point();
        let x_int = nonce_point.x.to_u256();
        assert!(x_int >= N, "vector must overflow the order");
        let r = Scalar::from_u256(x_int);
        assert!(!r.is_zero());
        let s = {
            let cand = Scalar::from_be_bytes_reduced(&hash(b"edge s"));
            if cand.is_high() {
                cand.neg()
            } else {
                cand
            }
        };
        let h = hash(b"overflowing nonce");
        let v = nonce_point.y.is_odd() as u8 | 2;
        let sig = Signature {
            r,
            s,
            v,
            nonce_y: None,
        };
        // Recovery honors the second candidate…
        let recovered = recover_prehashed(&h, &sig).expect("recovery ids 2/3 select x = r + n");
        // …the recovered key verifies the signature (exercising the r + n
        // branch of the projective x check)…
        verify_prehashed(&recovered, &h, &sig).unwrap();
        assert!(naive_verify(&recovered, &h, &sig), "affine check agrees");
        // …and recover_address round-trips to the same signer.
        assert_eq!(recover_address(&h, &sig).unwrap(), recovered.address());
        // Without bit 1 the nonce x is taken as r itself, which names a
        // different (or no) nonce point — never the same key.
        let no_overflow_bit = Signature { v: v & 1, ..sig };
        if let Ok(other) = recover_prehashed(&h, &no_overflow_bit) {
            assert_ne!(other, recovered);
        }
        // The remembered-key verifier compares x exactly, not mod n: it
        // takes the r + n candidate only when v says so, and only with the
        // right y parity — where `verify_prehashed` accepts all three.
        let wrong_parity = Signature { v: v ^ 1, ..sig };
        let table = AffineTable::new(recovered.point());
        assert_eq!(
            verify_recoverable_batch(&table, &[(h, sig), (h, no_overflow_bit), (h, wrong_parity)]),
            [true, false, false]
        );
        verify_prehashed(&recovered, &h, &no_overflow_bit).unwrap();
        verify_prehashed(&recovered, &h, &wrong_parity).unwrap();
    }

    /// `len` items signed by `kp` over distinct digests.
    fn signed_run(kp: &Keypair, len: usize) -> Vec<([u8; 32], Signature)> {
        let hashes: Vec<[u8; 32]> = (0..len as u64).map(|i| hash(&i.to_be_bytes())).collect();
        let sigs = sign_prehashed_batch(&kp.secret, &hashes);
        hashes.into_iter().zip(sigs).collect()
    }

    fn recovers_to(kp: &Keypair, items: &[([u8; 32], Signature)]) -> Vec<bool> {
        items
            .iter()
            .map(|(h, sig)| recover_prehashed(h, sig) == Ok(kp.public))
            .collect()
    }

    #[test]
    fn combined_equation_runs_and_falls_back_exactly_on_a_reject() {
        let kp = Keypair::from_seed(b"probe");
        let table = AffineTable::new(kp.public.point());
        let probed = |items: &[([u8; 32], Signature)]| {
            let (verdicts, probe) = verify_recoverable_probed(&table, items);
            assert_eq!(verdicts, recovers_to(&kp, items));
            probe
        };
        // Clean runs: per item under the cutoff, one equation from it on.
        for len in [0, 1, COMBINED_MIN - 1] {
            assert_eq!(probed(&signed_run(&kp, len)), (0, len));
        }
        for len in [COMBINED_MIN, 2 * COMBINED_MIN + 1, 300] {
            assert_eq!(probed(&signed_run(&kp, len)), (1, 0), "{len}");
        }
        // One reject: the whole, one half, one quarter of the failing half;
        // only the failing quarter is checked item by item — wherever the
        // reject sits (item 0 carries the fixed coefficient 1).
        for at in [0, 74, 75, 149, 150, 299] {
            let mut items = signed_run(&kp, 300);
            items[at].0[7] ^= 1;
            assert_eq!(probed(&items), (3, 75), "reject at {at}");
        }
        // A failing run too short to halve goes straight to the leaf.
        let mut short = signed_run(&kp, 2 * COMBINED_MIN - 1);
        short[3].1.v ^= 1;
        assert_eq!(probed(&short), (1, short.len()));
        // A reject in every quarter: 1 + 1 + 2 equations, every item a leaf.
        let mut hostile = signed_run(&kp, 300);
        for at in [10, 100, 200, 290] {
            hostile[at].1.s = hostile[at].1.s.add(&Scalar::ONE);
        }
        assert_eq!(probed(&hostile), (4, 300));
        // Items recovery rejects outright never enter the equation, so they
        // cost no fall-back: zero r, zero s, v > 3, r + n ≥ p, x off the curve.
        let mut outright = signed_run(&kp, 120);
        outright[0].1.r = Scalar::ZERO;
        outright[1].1.s = Scalar::ZERO;
        outright[2].1.v += 4;
        outright[3].1.v |= 2;
        let off_curve = (1u64..)
            .map(Scalar::from_u64)
            .find(|x| Affine::lift_x(Fe::from_u256(x.to_u256()), false).is_none());
        outright[119].1.r = off_curve.expect("half of all x are off the curve");
        assert_eq!(probed(&outright), (1, 0));
        assert_eq!(probed(&outright[..5]), (0, 5));
        // A run of nothing but such items: the empty equation holds.
        let unliftable = vec![outright[119]; 40];
        assert_eq!(probed(&unliftable), (1, 0));
    }

    #[test]
    fn somebody_elses_and_the_identity_table_reject_every_item() {
        let kp = Keypair::from_seed(b"tables");
        let items = signed_run(&kp, 60);
        let other = Keypair::from_seed(b"not the signer");
        for point in [*other.public.point(), Affine::INFINITY] {
            let (verdicts, probe) = verify_recoverable_probed(&AffineTable::new(&point), &items);
            assert_eq!(verdicts, [false; 60]);
            // Halved once (30 + 30); shorter halves are not worth an equation.
            assert_eq!(probe, (2, 60));
        }
    }

    /// Errors that cancel under unit coefficients: `z₁ += d·s₁` moves `R'₁`
    /// by `+d·G`, `z₂ −= d·s₂` moves `R'₂` by `−d·G`. A batch test that
    /// summed the items unweighted would accept both.
    #[test]
    fn cancelling_errors_are_both_rejected() {
        let kp = Keypair::from_seed(b"cancel");
        let table = AffineTable::new(kp.public.point());
        let d = Scalar::from_be_bytes_reduced(&hash(b"d"));
        for (first, second) in [(0, 1), (5, 64), (31, 99)] {
            let mut items = signed_run(&kp, 100);
            let shifted = |(h, sig): ([u8; 32], Signature), by: Scalar| {
                let z = Scalar::from_be_bytes_reduced(&h).add(&by.mul(&sig.s));
                (z.to_be_bytes(), sig)
            };
            items[first] = shifted(items[first], d);
            items[second] = shifted(items[second], d.neg());
            // The unweighted sum of the two defects is the identity…
            let defect = |(h, sig): &([u8; 32], Signature)| {
                let s_inv = sig.s.invert().unwrap();
                let z = Scalar::from_be_bytes_reduced(h);
                let named = Affine::lift_x(Fe::from_u256(nonce_x(sig).unwrap()), sig.v & 1 == 1);
                mul_double_with_table(&z.mul(&s_inv), &sig.r.mul(&s_inv), &table)
                    .add_affine(&named.unwrap().neg())
            };
            let (e1, e2) = (defect(&items[first]), defect(&items[second]));
            assert!(!e1.is_infinity() && !e2.is_infinity());
            assert!(e1.add(&e2).is_infinity());
            // …and both items are rejected all the same.
            let (verdicts, probe) = verify_recoverable_probed(&table, &items);
            assert_eq!(verdicts, recovers_to(&kp, &items));
            assert_eq!(verdicts.iter().filter(|ok| !**ok).count(), 2);
            assert!(probe.0 >= 2 && probe.1 >= 2);
        }
    }

    #[test]
    fn coefficients_are_pinned_nonzero_and_a_function_of_the_inputs() {
        let kp = Keypair::from_seed(b"coefficients");
        let items = signed_run(&kp, 5);
        let golden = batch_coefficients(kp.public.point(), &items);
        assert_eq!(golden, GOLDEN_COEFFICIENTS);
        // No RNG, no clock, no global: the same on every thread, in any
        // order, with other runs in between.
        let concurrent: Vec<Vec<u128>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..4)
                .map(|t| {
                    let (kp, items) = (&kp, &items);
                    scope.spawn(move || {
                        for len in 0..t {
                            batch_coefficients(&Affine::GENERATOR, &signed_run(kp, len));
                        }
                        batch_coefficients(kp.public.point(), items)
                    })
                })
                .collect();
            spawned.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(concurrent.iter().all(|c| *c == golden));
        // Every byte of every item (and the key) moves every coefficient
        // but a₀.
        let differs_everywhere = |other: Vec<u128>| {
            assert_eq!(other[0], 1);
            assert!(other.iter().zip(&golden).skip(1).all(|(a, b)| a != b));
        };
        differs_everywhere(batch_coefficients(&Affine::GENERATOR, &items));
        for at in 0..items.len() {
            for byte in 0..97 {
                let mut damaged = items.clone();
                let (h, sig) = &mut damaged[at];
                let flip = |x: Scalar, byte: usize| {
                    let mut bytes = x.to_be_bytes();
                    bytes[byte] ^= 1;
                    Scalar::from_be_bytes_reduced(&bytes)
                };
                match byte {
                    0..=31 => h[byte] ^= 1,
                    32..=63 => sig.r = flip(sig.r, byte - 32),
                    64..=95 => sig.s = flip(sig.s, byte - 64),
                    _ => sig.v ^= 1,
                }
                differs_everywhere(batch_coefficients(kp.public.point(), &damaged));
            }
        }
        // Non-zero at every length, odd ones included (two per digest).
        for len in [1, 2, 3, 24, 25, 257] {
            let coefficients = batch_coefficients(kp.public.point(), &signed_run(&kp, len));
            assert_eq!(coefficients.len(), len);
            assert!(coefficients.iter().all(|a| *a != 0));
        }
        assert!(batch_coefficients(kp.public.point(), &[]).is_empty());
    }

    /// [`batch_coefficients`] of five items signed by the seed
    /// `"coefficients"` over `keccak256(i as u64, big-endian)`.
    const GOLDEN_COEFFICIENTS: [u128; 5] = [
        1,
        0x98183418e0f353da30e32e362878f512,
        0x7a32190f2d4546b4c946e7d67f03b1a8,
        0x95b500e2bb1ae5df8e797bfce3780631,
        0x08589a763809c8ea220c5a11c658b113,
    ];

    #[test]
    fn batch_sign_matches_sequential() {
        let kp = Keypair::from_seed(b"batchsig");
        for len in [0usize, 1, 2, 7, 33] {
            let hashes: Vec<[u8; 32]> = (0..len).map(|i| hash(&(i as u64).to_be_bytes())).collect();
            let batch = sign_prehashed_batch(&kp.secret, &hashes);
            assert_eq!(batch.len(), len);
            for (h, sig) in hashes.iter().zip(&batch) {
                assert_eq!(
                    sig.to_bytes(),
                    sign_prehashed(&kp.secret, h).to_bytes(),
                    "batch output must be byte-identical"
                );
            }
        }
    }

    /// Both signers against the textbook: the RFC 6979 nonce, `k·G` by
    /// double-and-add, `s = (z + r·d)/k` moved to the low half (which
    /// negates the nonce point's y), `v` from that y and the x overflow.
    #[test]
    fn signers_match_the_rfc6979_nonce_and_naive_k_g() {
        for i in 0..16u64 {
            let kp = Keypair::from_seed(&i.to_be_bytes());
            let hashes: Vec<[u8; 32]> = (0..4u64)
                .map(|j| hash(&[i, j].map(u64::to_be_bytes).concat()))
                .collect();
            let batch = sign_prehashed_batch(&kp.secret, &hashes);
            for (h, from_batch) in hashes.iter().zip(&batch) {
                let k = Rfc6979::new(&kp.secret, h).next().unwrap();
                let point = naive_mul(&Affine::GENERATOR, &k).to_affine();
                let x = point.x.to_u256();
                let r = Scalar::from_u256(x);
                let z = Scalar::from_be_bytes_reduced(h);
                let s = k.invert().unwrap().mul(&z.add(&r.mul(kp.secret.scalar())));
                let (s, y) = if s.is_high() {
                    (s.neg(), point.y.neg())
                } else {
                    (s, point.y)
                };
                let v = y.is_odd() as u8 | if x >= N { 2 } else { 0 };
                let expect = Signature {
                    r,
                    s,
                    v,
                    nonce_y: Some(y),
                };
                for sig in [sign_prehashed(&kp.secret, h), *from_batch] {
                    assert_eq!(sig.to_bytes(), expect.to_bytes(), "seed {i}");
                    assert_eq!(sig.nonce_y, expect.nonce_y, "seed {i}");
                }
            }
        }
    }

    #[test]
    fn table_verify_matches_plain_and_naive() {
        let kp = Keypair::from_seed(b"tblver");
        let other = Keypair::from_seed(b"not the signer");
        let table = AffineTable::new(kp.public.point());
        for i in 0..8u8 {
            let h = hash(&[i]);
            let sig = sign_prehashed(&kp.secret, &h);
            verify_prehashed_with_table(&table, &h, &sig).unwrap();
            let wrong = hash(&[i, 0xFF]);
            assert!(naive_verify(&kp.public, &h, &sig));
            assert!(!naive_verify(&kp.public, &wrong, &sig));
            for result in [
                verify_prehashed_with_table(&table, &wrong, &sig),
                verify_prehashed(&kp.public, &wrong, &sig),
            ] {
                assert_eq!(result, Err(CryptoError::VerificationFailed));
            }
            assert!(verify_prehashed(&other.public, &h, &sig).is_err());
        }
    }

    fn stripped(sig: &Signature) -> Signature {
        Signature {
            nonce_y: None,
            ..*sig
        }
    }

    /// Both signers hand over the y of exactly the point `(r, v)` names —
    /// after the low-s negation, which flips it — and a parsed signature
    /// has none.
    #[test]
    fn signers_fill_the_hint_with_the_named_points_y() {
        let kp = Keypair::from_seed(b"hint");
        let hashes: Vec<[u8; 32]> = (0..40u64).map(|i| hash(&i.to_be_bytes())).collect();
        let batch = sign_prehashed_batch(&kp.secret, &hashes);
        let mut flipped = 0;
        for (h, from_batch) in hashes.iter().zip(&batch) {
            let sig = sign_prehashed(&kp.secret, h);
            assert_eq!(sig.nonce_y, from_batch.nonce_y);
            let x = Fe::from_u256(nonce_x(&sig).unwrap());
            let named = Affine::lift_x(x, sig.v & 1 == 1).unwrap();
            assert_eq!(sig.nonce_y, Some(named.y));
            assert_eq!(nonce_point(&sig), Some(named));
            // The unnormalized nonce point k·G is the negation whenever s
            // was high.
            let k_g = Rfc6979::new(&kp.secret, h)
                .next()
                .map(|k| mul_generator(&k));
            flipped += usize::from(k_g.unwrap().to_affine().y != named.y);
            let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
            assert_eq!(parsed.nonce_y, None);
        }
        assert!((5..35).contains(&flipped), "{flipped} of 40 normalized");
    }

    /// The hint is not part of the signature: bytes, equality, `Debug` and
    /// the batch coefficients are the same with it, without it, and with
    /// somebody else's.
    #[test]
    fn the_hint_is_invisible() {
        let kp = Keypair::from_seed(b"invisible");
        let items = signed_run(&kp, 20);
        assert!(items.iter().all(|(_, sig)| sig.nonce_y.is_some()));
        let bare: Vec<([u8; 32], Signature)> =
            items.iter().map(|(h, sig)| (*h, stripped(sig))).collect();
        let wrong: Vec<([u8; 32], Signature)> = items
            .iter()
            .map(|(h, sig)| {
                let nonce_y = Some(Fe::from_u64(7));
                (*h, Signature { nonce_y, ..*sig })
            })
            .collect();
        for ((with, without), other) in items.iter().zip(&bare).zip(&wrong) {
            assert_eq!(with.1.to_bytes(), without.1.to_bytes());
            assert_eq!(with.1, without.1);
            assert_eq!(with.1, other.1);
            assert_eq!(format!("{:?}", with.1), format!("{:?}", without.1));
        }
        let key = kp.public.point();
        let coefficients = batch_coefficients(key, &items);
        assert_eq!(coefficients, batch_coefficients(key, &bare));
        assert_eq!(coefficients, batch_coefficients(key, &wrong));
    }

    /// Every hint a sender can supply — the true y, `p − y`, an off-curve
    /// y of the right parity, zero, an encoding ≥ p, another signature's y,
    /// and the stale hint a damaged signature carries along — leaves the
    /// named point, recovery and the batch verdicts exactly as without it.
    #[test]
    fn a_hint_never_changes_the_point_or_a_verdict() {
        let kp = Keypair::from_seed(b"hints");
        let mut items = signed_run(&kp, 40);
        let off_curve = (1u64..)
            .map(Scalar::from_u64)
            .find(|x| Affine::lift_x(Fe::from_u256(x.to_u256()), false).is_none())
            .unwrap();
        // Stale hints: each damaged item keeps the y its signer attached.
        items[1].1.v ^= 1;
        items[2].1.s = items[2].1.s.neg();
        items[3].1.r = items[3].1.r.add(&Scalar::ONE);
        items[4].1.v |= 2;
        items[5].1.r = off_curve;
        items[6].1 = Signature {
            s: items[6].1.s.neg(),
            v: items[6].1.v ^ 1,
            ..items[6].1
        };
        let another = items[0].1.nonce_y;
        let hints = |sig: &Signature| -> Vec<Option<Fe>> {
            let truth = nonce_point(&stripped(sig)).map(|p| p.y);
            let y = truth.or(sig.nonce_y).unwrap_or(Fe::ONE);
            vec![
                None,
                sig.nonce_y,
                truth,
                Some(y.neg()),
                Some(y.add(&Fe::from_u64(2))),
                Some(Fe::ZERO),
                Some(Fe::from_be_bytes(&[0xFF; 32])),
                another,
            ]
        };
        let table = AffineTable::new(kp.public.point());
        let bare: Vec<([u8; 32], Signature)> =
            items.iter().map(|(h, sig)| (*h, stripped(sig))).collect();
        let expect = verify_recoverable_batch(&table, &bare);
        assert_eq!(expect, recovers_to(&kp, &bare));
        // Items 1–5 are rejects; the high-s twin (6) recovers the same key.
        assert_eq!(expect.iter().filter(|ok| !**ok).count(), 5);
        for variant in 0..8 {
            let hinted: Vec<([u8; 32], Signature)> = items
                .iter()
                .map(|(h, sig)| {
                    let nonce_y = hints(sig)[variant];
                    (*h, Signature { nonce_y, ..*sig })
                })
                .collect();
            for (h, sig) in &hinted {
                assert_eq!(nonce_point(sig), nonce_point(&stripped(sig)), "{variant}");
                assert_eq!(
                    recover_prehashed(h, sig),
                    recover_prehashed(h, &stripped(sig))
                );
            }
            assert_eq!(
                verify_recoverable_batch(&table, &hinted),
                expect,
                "{variant}"
            );
            assert_eq!(
                verify_recoverable_batch(&table, &hinted[..12]),
                expect[..12]
            );
        }
    }
}
