//! Group arithmetic on the secp256k1 curve `y^2 = x^3 + 7` over GF(p).
//!
//! Points are manipulated in Jacobian projective coordinates
//! (`x = X/Z^2, y = Y/Z^3`) to avoid per-operation field inversions; a single
//! inversion converts back to affine, and `batch_normalize` amortizes that
//! inversion across many points via Montgomery's trick.
//!
//! Scalar multiplication comes in four shapes:
//!
//! - **Fixed base** ([`mul_generator`]): an 8-bit comb table (32 windows ×
//!   255 affine entries, built lazily with one shared inversion) reduces
//!   `k·G` to at most 32 mixed additions and zero doublings.
//! - **Variable base** ([`mul_point`], [`AffineTable`]): the scalar is split
//!   with the GLV endomorphism (`λ·(x, y) = (β·x, y)`) into two half-width
//!   parts, each driven through width-5 wNAF over a shared 8-entry
//!   odd-multiples table — ~129 doublings and ~43 additions instead of 256
//!   doublings and 64 additions.
//! - **Double-scalar** ([`mul_double`], [`mul_double_with_table`]):
//!   Strauss–Shamir interleaving shares one doubling run across all four
//!   GLV half-scalars of `a·G + b·Q`, which is the shape ECDSA verification
//!   and recovery need. Callers that verify many signatures under one key
//!   should build the key's [`AffineTable`] once and reuse it.
//! - **Multi-scalar** ([`msm_u128`]): Pippenger bucket sums for `Σ aᵢ·Pᵢ`
//!   over many points with 128-bit scalars — the right-hand side of the
//!   batch verifier's combined equation. Signed digits halve the buckets,
//!   and the buckets fill in batch-affine rounds that share one inversion
//!   each (~6 field multiplications per bucket addition instead of ~11).

use std::sync::OnceLock;

use super::field::Fe;
use super::scalar::{wnaf_digits, Scalar};

/// Generator x-coordinate.
const GX: Fe = Fe::from_be_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
/// Generator y-coordinate.
const GY: Fe = Fe::from_be_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");

/// β — the cube root of unity in GF(p) that realizes the GLV endomorphism:
/// `λ·(x, y) = (β·x, y)` for the [`Scalar::LAMBDA`] cube root of unity mod n.
const BETA: Fe =
    Fe::from_be_hex("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");

/// A point in affine coordinates, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Affine {
    /// x-coordinate (meaningless when `infinity`).
    pub x: Fe,
    /// y-coordinate (meaningless when `infinity`).
    pub y: Fe,
    /// Marker for the group identity.
    pub infinity: bool,
}

/// A point in Jacobian projective coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

impl Affine {
    /// The group identity.
    pub const INFINITY: Affine = Affine {
        x: Fe::ZERO,
        y: Fe::ZERO,
        infinity: true,
    };

    /// The standard generator G.
    pub const GENERATOR: Affine = Affine {
        x: GX,
        y: GY,
        infinity: false,
    };

    /// Constructs a point from coordinates, verifying the curve equation.
    pub fn new(x: Fe, y: Fe) -> Option<Affine> {
        let p = Affine {
            x,
            y,
            infinity: false,
        };
        if p.is_on_curve() {
            Some(p)
        } else {
            None
        }
    }

    /// Checks `y^2 = x^3 + 7`.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let rhs = self.x.square().mul(&self.x).add(&Fe::SEVEN);
        lhs == rhs
    }

    /// Recovers a point from an x-coordinate and the parity of y.
    ///
    /// Returns `None` if `x^3 + 7` is a non-residue (x not on the curve).
    pub fn lift_x(x: Fe, y_is_odd: bool) -> Option<Affine> {
        let y2 = x.square().mul(&x).add(&Fe::SEVEN);
        let mut y = y2.sqrt()?;
        if y.is_odd() != y_is_odd {
            y = y.neg();
        }
        Some(Affine {
            x,
            y,
            infinity: false,
        })
    }

    /// Point negation.
    pub fn neg(&self) -> Affine {
        Affine {
            x: self.x,
            y: self.y.neg(),
            infinity: self.infinity,
        }
    }

    /// The GLV endomorphism `φ(x, y) = (β·x, y)`, equal to `λ·P` for one
    /// field multiplication instead of a scalar multiplication.
    pub(crate) fn endo(&self) -> Affine {
        Affine {
            x: self.x.mul(&BETA),
            y: self.y,
            infinity: self.infinity,
        }
    }

    /// Serializes as 64 uncompressed bytes `x || y` (no 0x04 prefix, the
    /// Ethereum convention for address derivation).
    pub(crate) fn to_bytes_uncompressed(self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.x.to_be_bytes());
        out[32..].copy_from_slice(&self.y.to_be_bytes());
        out
    }

    /// Parses 64 uncompressed bytes, verifying the curve equation.
    pub(crate) fn from_bytes_uncompressed(bytes: &[u8; 64]) -> Option<Affine> {
        let mut xb = [0u8; 32];
        let mut yb = [0u8; 32];
        xb.copy_from_slice(&bytes[..32]);
        yb.copy_from_slice(&bytes[32..]);
        Affine::new(Fe::from_be_bytes(&xb), Fe::from_be_bytes(&yb))
    }

    /// Converts to Jacobian coordinates.
    pub(crate) fn to_jacobian(self) -> Jacobian {
        if self.infinity {
            Jacobian::INFINITY
        } else {
            Jacobian {
                x: self.x,
                y: self.y,
                z: Fe::ONE,
            }
        }
    }
}

impl Jacobian {
    /// The group identity (Z = 0 convention).
    pub const INFINITY: Jacobian = Jacobian {
        x: Fe::ONE,
        y: Fe::ONE,
        z: Fe::ZERO,
    };

    /// True iff the identity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// The projective X coordinate (`x_affine = X / Z²`).
    pub(crate) fn proj_x(&self) -> Fe {
        self.x
    }

    /// The projective Z coordinate.
    pub(crate) fn proj_z(&self) -> Fe {
        self.z
    }

    /// Point negation.
    pub(crate) fn neg(&self) -> Jacobian {
        Jacobian {
            y: self.y.neg(),
            ..*self
        }
    }

    /// Converts back to affine (one field inversion).
    pub fn to_affine(&self) -> Affine {
        // `invert` only fails for z = 0, which is the infinity case.
        let Some(z_inv) = self.z.invert() else {
            return Affine::INFINITY;
        };
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2.mul(&z_inv);
        Affine {
            x: self.x.mul(&z_inv2),
            y: self.y.mul(&z_inv3),
            infinity: false,
        }
    }

    /// Point doubling (a = 0 curve; standard dbl-2009-l formulas).
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        // D = 2*((X+B)^2 - A - C)
        let d = self.x.add(&b).square().sub(&a).sub(&c).double();
        let e = a.mul_u64(3);
        let f = e.square();
        let x3 = f.sub(&d.double());
        let y3 = e.mul(&d.sub(&x3)).sub(&c.mul_u64(8));
        let z3 = self.y.mul(&self.z).double();
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian + Jacobian addition.
    pub fn add(&self, rhs: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *rhs;
        }
        if rhs.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = rhs.x.mul(&z1z1);
        let s1 = self.y.mul(&z2z2).mul(&rhs.z);
        let s2 = rhs.y.mul(&z1z1).mul(&self.z);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = u2.sub(&u1);
        let i = h.double().square();
        let j = h.mul(&i);
        let r = s2.sub(&s1).double();
        let v = u1.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self.z.add(&rhs.z).square().sub(&z1z1).sub(&z2z2).mul(&h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (cheaper: Z2 = 1).
    pub fn add_affine(&self, rhs: &Affine) -> Jacobian {
        if rhs.infinity {
            return *self;
        }
        if self.is_infinity() {
            return rhs.to_jacobian();
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x.mul(&z1z1);
        let s2 = rhs.y.mul(&z1z1).mul(&self.z);
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = u2.sub(&self.x);
        let hh = h.square();
        let i = hh.double().double();
        let j = h.mul(&i);
        let r = s2.sub(&self.y).double();
        let v = self.x.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&self.y.mul(&j).double());
        let z3 = self.z.add(&h).square().sub(&z1z1).sub(&hh);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

/// Converts a slice of Jacobian points to affine with **one** shared field
/// inversion (Montgomery's trick via [`Fe::batch_invert`]) instead of one
/// inversion per point. Infinity inputs map to [`Affine::INFINITY`].
pub(crate) fn batch_normalize(points: &[Jacobian]) -> Vec<Affine> {
    let mut z_invs: Vec<Fe> = points.iter().map(|p| p.z).collect();
    Fe::batch_invert(&mut z_invs);
    points
        .iter()
        .zip(&z_invs)
        .map(|(p, z_inv)| {
            if z_inv.is_zero() {
                Affine::INFINITY
            } else {
                let z_inv2 = z_inv.square();
                Affine {
                    x: p.x.mul(&z_inv2),
                    y: p.y.mul(&z_inv2.mul(z_inv)),
                    infinity: false,
                }
            }
        })
        .collect()
}

/// Comb window width in bits for the fixed-base generator table.
const COMB_WINDOW: usize = 8;
/// Number of comb windows covering a 256-bit scalar.
const COMB_WINDOWS: usize = 256 / COMB_WINDOW;
/// Entries per comb window: multiples `1..=255` of the window base.
const COMB_TABLE_LEN: usize = (1 << COMB_WINDOW) - 1;

/// Precomputed comb table for the generator: for each of the 32 byte
/// positions `w`, the affine points `d · 256^w · G` for digit `d` in
/// `1..=255`. ~570 KiB, built once on first use; construction runs entirely
/// in Jacobian coordinates and normalizes all 8160 entries with a single
/// shared inversion via [`batch_normalize`].
struct CombTable {
    windows: Vec<[Affine; COMB_TABLE_LEN]>,
}

fn comb_table() -> &'static CombTable {
    static TABLE: OnceLock<CombTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut jac = Vec::with_capacity(COMB_WINDOWS * COMB_TABLE_LEN);
        let mut base = Affine::GENERATOR.to_jacobian();
        for _ in 0..COMB_WINDOWS {
            let mut acc = base;
            for _ in 0..COMB_TABLE_LEN {
                jac.push(acc);
                acc = acc.add(&base);
            }
            // acc is now 256 * base: the next window's base.
            base = acc;
        }
        let affine = batch_normalize(&jac);
        let windows = affine
            .chunks_exact(COMB_TABLE_LEN)
            .map(|chunk| {
                let mut entries = [Affine::INFINITY; COMB_TABLE_LEN];
                entries.copy_from_slice(chunk);
                entries
            })
            .collect();
        CombTable { windows }
    })
}

/// Multiplies the generator by a scalar using the precomputed comb table:
/// at most 32 mixed additions and no doublings.
pub fn mul_generator(k: &Scalar) -> Jacobian {
    if k.is_zero() {
        return Jacobian::INFINITY;
    }
    let table = comb_table();
    let bytes = k.to_be_bytes();
    let mut acc = Jacobian::INFINITY;
    // Window w covers byte w counting from the least-significant byte.
    for (w, window) in table.windows.iter().enumerate() {
        let byte = bytes[31 - w];
        if byte != 0 {
            acc = acc.add_affine(&window[(byte - 1) as usize]);
        }
    }
    acc
}

/// wNAF window width for variable-base multiplication: odd digits
/// `|d| ≤ 2^(width-1) - 1`.
const WNAF_WIDTH: u32 = 5;
/// Odd multiples stored per table: `1P, 3P, …, (2^(width-1) - 1)P`.
const ODD_ENTRIES: usize = 1 << (WNAF_WIDTH - 2);

/// Precomputed odd multiples of a point in affine form, plus their images
/// under the GLV endomorphism — everything a width-5 wNAF walk over a
/// GLV-split scalar needs.
///
/// Building the table costs one doubling, seven additions, and one shared
/// field inversion. Verifiers processing many signatures under the same
/// public key should build this once and call
/// [`mul_double_with_table`] per signature.
pub struct AffineTable {
    /// `(2i+1)·P` for `i` in `0..ODD_ENTRIES`.
    plain: [Affine; ODD_ENTRIES],
    /// `φ((2i+1)·P) = λ·(2i+1)·P` (one field mul per entry: x → β·x).
    endo: [Affine; ODD_ENTRIES],
    /// Whether the base point was the identity.
    infinity: bool,
}

impl AffineTable {
    /// Precomputes the odd-multiples table for `point`.
    pub fn new(point: &Affine) -> AffineTable {
        if point.infinity {
            return AffineTable {
                plain: [Affine::INFINITY; ODD_ENTRIES],
                endo: [Affine::INFINITY; ODD_ENTRIES],
                infinity: true,
            };
        }
        let twice = point.to_jacobian().double();
        let mut jac = Vec::with_capacity(ODD_ENTRIES);
        jac.push(point.to_jacobian());
        for i in 1..ODD_ENTRIES {
            jac.push(jac[i - 1].add(&twice));
        }
        let normalized = batch_normalize(&jac);
        let mut plain = [Affine::INFINITY; ODD_ENTRIES];
        plain.copy_from_slice(&normalized);
        let mut endo = plain;
        for entry in endo.iter_mut() {
            *entry = entry.endo();
        }
        AffineTable {
            plain,
            endo,
            infinity: false,
        }
    }

    /// The point the table was built from ([`Affine::INFINITY`] for the
    /// identity).
    pub(crate) fn base(&self) -> &Affine {
        &self.plain[0]
    }

    /// Looks up the table entry for a signed odd wNAF digit, optionally
    /// under the endomorphism, with an extra negation for GLV half-scalars
    /// whose magnitude was sign-flipped.
    fn entry(&self, endo: bool, digit: i32, negate: bool) -> Affine {
        let idx = digit.unsigned_abs() as usize / 2;
        let entry = if endo {
            self.endo[idx]
        } else {
            self.plain[idx]
        };
        if (digit < 0) != negate {
            entry.neg()
        } else {
            entry
        }
    }

    /// Computes `k·P` via GLV splitting and interleaved width-5 wNAF:
    /// the two half-width scalars share one ~129-step doubling run.
    pub(crate) fn mul(&self, k: &Scalar) -> Jacobian {
        if self.infinity || k.is_zero() {
            return Jacobian::INFINITY;
        }
        let split = k.split_glv();
        let d1 = wnaf_digits(&split.k1.1, WNAF_WIDTH);
        let d2 = wnaf_digits(&split.k2.1, WNAF_WIDTH);
        let len = d1.len().max(d2.len());
        let mut acc = Jacobian::INFINITY;
        for i in (0..len).rev() {
            acc = acc.double();
            if let Some(&d) = d1.get(i) {
                if d != 0 {
                    acc = acc.add_affine(&self.entry(false, d, split.k1.0));
                }
            }
            if let Some(&d) = d2.get(i) {
                if d != 0 {
                    acc = acc.add_affine(&self.entry(true, d, split.k2.0));
                }
            }
        }
        acc
    }
}

/// Multiplies an arbitrary point by a scalar (GLV split + width-5 wNAF over
/// a batch-normalized affine odd-multiples table).
pub fn mul_point(point: &Affine, k: &Scalar) -> Jacobian {
    if point.infinity || k.is_zero() {
        return Jacobian::INFINITY;
    }
    AffineTable::new(point).mul(k)
}

/// Computes `a·G + b·Q` (the ECDSA verification combination) with a
/// freshly built table for `Q`. Verifying many signatures under the same
/// key? Build [`AffineTable::new`] once and call [`mul_double_with_table`].
pub fn mul_double(a: &Scalar, b: &Scalar, q: &Affine) -> Jacobian {
    mul_double_with_table(a, b, &AffineTable::new(q))
}

/// Computes `a·G + b·Q` as ECDSA verification needs it.
///
/// The variable-base half `b·Q` runs as a Strauss–Shamir interleave of the
/// two GLV half-scalars over the caller's table (one shared ~129-step
/// doubling run); the fixed-base half `a·G` comes from the comb table,
/// which needs **no doublings at all** — so folding it in with one final
/// addition is strictly cheaper than interleaving it into the doubling
/// run.
pub fn mul_double_with_table(a: &Scalar, b: &Scalar, table: &AffineTable) -> Jacobian {
    if table.infinity || b.is_zero() {
        return mul_generator(a);
    }
    if a.is_zero() {
        return table.mul(b);
    }
    table.mul(b).add(&mul_generator(a))
}

/// A batch-affine round with fewer additions than this would pay a shared
/// inversion for too little: the buckets still open are finished with
/// Jacobian mixed additions instead.
const SPARSE_ROUND: usize = 48;

/// Multi-scalar multiplication `Σ scalarsᵢ·pointsᵢ` over 128-bit scalars by
/// Pippenger's bucket method with signed digits and batch-affine buckets.
///
/// The scalars are cut into signed `c`-bit digits, so `2^(c−1)` buckets per
/// window suffice (a negative digit adds the negated point). Every bucket
/// gathers its points in rounds of independent affine additions that share
/// one `Fe::batch_invert`: ~6 field multiplications per addition instead
/// of a Jacobian mixed addition's ~11. The buckets are combined by a running
/// sum (`Σ d·B_d`, one mixed and one Jacobian addition per bucket) and the
/// windows joined by `c` doublings each. `c` minimizes `W(c)·(n + 2^c)`
/// over `W(c) = ⌈130/c⌉` windows, a fit to measured times (c = 6 at
/// n = 256, 8 at n = 1,000): ~15 bucket additions per point at n = 1,000,
/// ~150 field multiplications all told. Pairs beyond the shorter slice are
/// ignored.
pub fn msm_u128(points: &[Affine], scalars: &[u128]) -> Jacobian {
    let n = points.len().min(scalars.len());
    let cost = |c: &u32| signed_windows(*c) as usize * (n + (1usize << c));
    let c = (2..=12u32).min_by_key(cost).unwrap_or(2);
    msm_windowed(&points[..n], &scalars[..n], c)
}

/// Signed `c`-bit windows covering a 128-bit scalar. The top window holds
/// at most `c − 2` bits, so its digit plus an incoming carry stays below
/// `2^(c−1)` and carries nothing out.
fn signed_windows(c: u32) -> u32 {
    130u32.div_ceil(c)
}

/// The signed base-`2^c` digits of `scalar`, lowest first, each in
/// `[−2^(c−1), 2^(c−1))`: a digit at or above `2^(c−1)` becomes `d − 2^c`
/// and carries one into the next window.
fn signed_digits(mut scalar: u128, c: u32) -> impl Iterator<Item = i32> {
    let (mask, half) = ((1u128 << c) - 1, 1i32 << (c - 1));
    let mut carry = 0;
    (0..signed_windows(c)).map(move |_| {
        let digit = (scalar & mask) as i32 + carry;
        scalar >>= c;
        carry = i32::from(digit >= half);
        digit - (carry << c)
    })
}

/// [`msm_u128`] at window width `c` (2..=12) over equal-length slices.
fn msm_windowed(points: &[Affine], scalars: &[u128], c: u32) -> Jacobian {
    let half = 1usize << (c - 1);
    let bucket_count = signed_windows(c) as usize * half;
    // Bucket `w·half + |d| − 1` takes `±point` for digit d of window w,
    // as entry `2·i + negate`; identity points and zero digits take part
    // nowhere.
    let mut placements = Vec::with_capacity(points.len() * signed_windows(c) as usize);
    for (i, (point, scalar)) in points.iter().zip(scalars).enumerate() {
        if point.infinity {
            continue;
        }
        for (w, d) in signed_digits(*scalar, c).enumerate() {
            if d != 0 {
                let bucket = w * half + d.unsigned_abs() as usize - 1;
                placements.push((bucket, 2 * i + usize::from(d < 0)));
            }
        }
    }
    // Counting sort by bucket: bucket b holds entries[starts[b]..starts[b + 1]].
    let mut starts = vec![0usize; bucket_count + 1];
    for (bucket, _) in &placements {
        starts[bucket + 1] += 1;
    }
    for b in 0..bucket_count {
        starts[b + 1] += starts[b];
    }
    let mut entries = vec![0usize; placements.len()];
    let mut next = starts.clone();
    for (bucket, entry) in placements {
        entries[next[bucket]] = entry;
        next[bucket] += 1;
    }
    let entries_of = |b: usize| &entries[starts[b]..starts[b + 1]];
    let point = |entry: usize| {
        let p = points[entry / 2];
        if entry % 2 == 1 {
            p.neg()
        } else {
            p
        }
    };

    // Round r adds the r-th entry of every bucket with more than r; the
    // first entry is a copy.
    let mut buckets: Vec<Affine> = (0..bucket_count)
        .map(|b| {
            entries_of(b)
                .first()
                .map_or(Affine::INFINITY, |e| point(*e))
        })
        .collect();
    let mut open: Vec<usize> = (0..bucket_count)
        .filter(|b| entries_of(*b).len() > 1)
        .collect();
    let mut round = 1;
    let mut denominators = Vec::with_capacity(open.len());
    let mut addends = Vec::with_capacity(open.len());
    while open.len() >= SPARSE_ROUND {
        addends.clear();
        addends.extend(open.iter().map(|b| point(entries_of(*b)[round])));
        denominators.clear();
        let pairs = open.iter().zip(&addends);
        denominators.extend(pairs.map(|(b, p)| addition_denominator(&buckets[*b], p)));
        Fe::batch_invert(&mut denominators);
        for ((b, p), inv) in open.iter().zip(&addends).zip(&denominators) {
            buckets[*b] = add_with_inverse(&buckets[*b], p, inv);
        }
        round += 1;
        open.retain(|b| entries_of(*b).len() > round);
    }
    let finished: Vec<Jacobian> = open
        .iter()
        .map(|b| {
            let rest = entries_of(*b)[round..].iter();
            rest.fold(buckets[*b].to_jacobian(), |acc, e| {
                acc.add_affine(&point(*e))
            })
        })
        .collect();
    for (b, sum) in open.iter().zip(batch_normalize(&finished)) {
        buckets[*b] = sum;
    }

    // Σ d·B_d per window: `running` holds B_max + … + B_d when bucket d is
    // reached.
    let mut total = Jacobian::INFINITY;
    for window in buckets.chunks_exact(half).rev() {
        for _ in 0..c {
            total = total.double();
        }
        let mut running = Jacobian::INFINITY;
        for bucket in window.iter().rev() {
            running = running.add_affine(bucket);
            total = total.add(&running);
        }
    }
    total
}

/// What the slope of `acc + p` divides by: `x_p − x_acc`, or `2·y` for a
/// doubling; zero when the sum needs no slope (`acc` is the identity, or
/// `p = −acc`).
fn addition_denominator(acc: &Affine, p: &Affine) -> Fe {
    if acc.infinity || (acc.x == p.x && acc.y != p.y) {
        Fe::ZERO
    } else if acc.x == p.x {
        acc.y.double()
    } else {
        p.x.sub(&acc.x)
    }
}

/// Affine `acc + p` (`p` not the identity) given `inv`, the inverse of
/// [`addition_denominator`]`(acc, p)`: three multiplications.
fn add_with_inverse(acc: &Affine, p: &Affine, inv: &Fe) -> Affine {
    if acc.infinity {
        return *p;
    }
    let lambda = if acc.x != p.x {
        p.y.sub(&acc.y).mul(inv)
    } else if acc.y == p.y {
        acc.x.square().mul_u64(3).mul(inv)
    } else {
        return Affine::INFINITY;
    };
    let x = lambda.square().sub(&acc.x).sub(&p.x);
    Affine {
        x,
        y: lambda.mul(&acc.x.sub(&x)).sub(&acc.y),
        infinity: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_ec::{naive_mul, naive_mul_double, G2X, G2Y};

    #[test]
    fn generator_on_curve() {
        assert!(Affine::GENERATOR.is_on_curve());
    }

    #[test]
    fn double_generator_known_answer() {
        let g2 = Affine::GENERATOR.to_jacobian().double().to_affine();
        assert_eq!(g2.x, Fe::from_be_hex(G2X));
        assert_eq!(g2.y, Fe::from_be_hex(G2Y));
        assert!(g2.is_on_curve());
    }

    /// Every one of the 8,160 comb entries, not only those a few scalars
    /// touch: window w's entry d is entry d − 1 plus the window's base,
    /// and window w + 1's base is 256 × window w's. With window 0's base at
    /// G this pins each entry to `d·256^w·G`; the end of the chain,
    /// `256^32·G`, is checked against the naive oracle as well.
    #[test]
    fn every_comb_entry_is_its_multiple_of_the_generator() {
        let mut base = Affine::GENERATOR;
        for (w, window) in comb_table().windows.iter().enumerate() {
            let expect: Vec<Jacobian> = (0..COMB_TABLE_LEN)
                .map(|i| match i.checked_sub(1) {
                    None => base.to_jacobian(),
                    Some(prev) => window[prev].to_jacobian().add_affine(&base),
                })
                .collect();
            assert_eq!(batch_normalize(&expect), window.to_vec(), "window {w}");
            // 255·base + base.
            base = window[COMB_TABLE_LEN - 1]
                .to_jacobian()
                .add_affine(&base)
                .to_affine();
        }
        let power = (0..COMB_WINDOWS).fold(Scalar::ONE, |acc, _| acc.mul(&Scalar::from_u64(256)));
        assert_eq!(base, naive_mul(&Affine::GENERATOR, &power).to_affine());
    }

    #[test]
    fn add_equals_double() {
        let g = Affine::GENERATOR;
        let via_add = g.to_jacobian().add(&g.to_jacobian()).to_affine();
        let via_mixed = g.to_jacobian().add_affine(&g).to_affine();
        let via_double = g.to_jacobian().double().to_affine();
        assert_eq!(via_add, via_double);
        assert_eq!(via_mixed, via_double);
    }

    #[test]
    fn scalar_mul_small_multiples() {
        let g = Affine::GENERATOR;
        // 2G via mul matches doubling.
        let two = mul_point(&g, &Scalar::from_u64(2)).to_affine();
        assert_eq!(two.x, Fe::from_be_hex(G2X));
        // 5G = 2G + 2G + G
        let g2 = g.to_jacobian().double();
        let five_manual = g2.add(&g2).add_affine(&g).to_affine();
        let five = mul_point(&g, &Scalar::from_u64(5)).to_affine();
        assert_eq!(five, five_manual);
    }

    #[test]
    fn generator_table_matches_generic_mul() {
        for k in [1u64, 2, 3, 15, 16, 17, 255, 256, 1 << 40] {
            let s = Scalar::from_u64(k);
            assert_eq!(
                mul_generator(&s).to_affine(),
                mul_point(&Affine::GENERATOR, &s).to_affine(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn generator_times_large_scalar() {
        let s = Scalar::from_be_bytes_reduced(&[0xA5; 32]);
        let a = mul_generator(&s).to_affine();
        let b = mul_point(&Affine::GENERATOR, &s).to_affine();
        assert_eq!(a, b);
        assert!(a.is_on_curve());
    }

    #[test]
    fn order_times_generator_is_infinity() {
        // (n-1)G + G = infinity.
        let n_minus_1 = Scalar::from_u64(1).neg();
        let p = mul_generator(&n_minus_1).add_affine(&Affine::GENERATOR);
        assert!(p.is_infinity());
    }

    #[test]
    fn point_plus_negation_is_infinity() {
        let p = mul_generator(&Scalar::from_u64(7)).to_affine();
        let sum = p.to_jacobian().add_affine(&p.neg());
        assert!(sum.is_infinity());
    }

    #[test]
    fn lift_x_parity() {
        let p = mul_generator(&Scalar::from_u64(9)).to_affine();
        let lifted = Affine::lift_x(p.x, p.y.is_odd()).unwrap();
        assert_eq!(lifted, p);
        let flipped = Affine::lift_x(p.x, !p.y.is_odd()).unwrap();
        assert_eq!(flipped, p.neg());
    }

    /// `lift_x` and compressed parsing sit on [`Fe::sqrt`]: both are pinned
    /// to the root the generic `pow((p+1)/4)` ladder yields, on x values on
    /// and off the curve.
    #[test]
    fn lift_x_and_compressed_parsing_match_the_pow_ladder_root() {
        let exp = super::super::field::P
            .wrapping_add(&crate::uint::U256::ONE)
            .shr(2);
        let (mut on, mut off) = (0, 0);
        for i in 0u64..120 {
            let x = Fe::from_be_bytes(&crate::hash::keccak256(&i.to_be_bytes()));
            let y2 = x.square().mul(&x).add(&Fe::SEVEN);
            let root = Some(y2.pow(&exp)).filter(|y| y.square() == y2);
            match root {
                Some(_) => on += 1,
                None => off += 1,
            }
            for odd in [false, true] {
                let expect = root.map(|y| Affine {
                    x,
                    y: if y.is_odd() == odd { y } else { y.neg() },
                    infinity: false,
                });
                assert_eq!(Affine::lift_x(x, odd), expect);
            }
        }
        assert!(on > 30 && off > 30);
    }

    #[test]
    fn msm_matches_naive_sum_and_survives_cancelling_buckets() {
        let p = mul_generator(&Scalar::from_u64(11)).to_affine();
        let q = mul_generator(&Scalar::from_u64(13)).to_affine();
        // P beside −P and P beside P under one scalar: every window's bucket
        // meets its own negation (back to the identity) or itself (doubling).
        let a = 0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978u128;
        assert!(msm_u128(&[p, p.neg()], &[a, a]).is_infinity());
        for (points, scalars) in [
            (vec![], vec![]),
            (vec![p], vec![0]),
            (vec![p], vec![1]),
            (vec![p], vec![u128::MAX]),
            (vec![p, p], vec![a, a]),
            (vec![p, p.neg(), q], vec![a, a, 7]),
            (
                vec![p, Affine::INFINITY, q, q.neg()],
                vec![a, a, u128::MAX, 1 << 127],
            ),
        ] {
            let expect = naive_msm(&points, &scalars);
            assert_eq!(msm_u128(&points, &scalars).to_affine(), expect);
        }
        // Long enough for wide windows.
        let points = distinct_points(300);
        let scalars: Vec<u128> = (0..300u128).map(|i| a.wrapping_mul(2 * i + 1)).collect();
        assert_eq!(
            msm_u128(&points, &scalars).to_affine(),
            naive_msm(&points, &scalars)
        );
    }

    fn naive_msm(points: &[Affine], scalars: &[u128]) -> Affine {
        let terms = points.iter().zip(scalars);
        let sum = terms.fold(Jacobian::INFINITY, |acc, (p, a)| {
            acc.add(&naive_mul(p, &Scalar::from_u128(*a)))
        });
        sum.to_affine()
    }

    /// `(i² + 1)·G` for `i` in `1..=n`, normalized with one inversion.
    fn distinct_points(n: u64) -> Vec<Affine> {
        let jac: Vec<Jacobian> = (1..=n)
            .map(|i| mul_generator(&Scalar::from_u64(i * i + 1)))
            .collect();
        batch_normalize(&jac)
    }

    /// Every window width against the naive sum, on the shapes that reach
    /// each branch: scalars whose top window carries (all ones, 2¹²⁷,
    /// 2¹²⁸ − 2^(c−1) for every c); P beside −P and P beside P in one
    /// bucket (identity, doubling) inside batch-affine rounds; identity
    /// points and zero scalars; all-equal scalars, which put every entry of
    /// a window in one bucket (the sparse-round finisher).
    #[test]
    fn every_window_width_matches_the_naive_sum() {
        let base = distinct_points(40);
        let carries: Vec<u128> = (2..=12)
            .map(|c| u128::MAX - (1 << (c - 1)) + 1)
            .chain([u128::MAX, 1 << 127, (1 << 127) - 1])
            .collect();
        let mut lcg = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835u128;
        let mut next = || {
            lcg = lcg
                .wrapping_mul(0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645)
                .wrapping_add(0x5851_f42d_4c95_7f2d_1405_7b7e_f767_814f);
            lcg
        };
        // 200 terms over six bases, each negated or not, with repeats,
        // twins under one scalar, identities and zeros among them.
        let (mut points, mut scalars) = (Vec::new(), Vec::new());
        for i in 0..200usize {
            let r = next();
            let point = if i % 37 == 5 {
                Affine::INFINITY
            } else if r & 1 == 1 {
                base[i % 6].neg()
            } else {
                base[i % 6]
            };
            let scalar = match i % 9 {
                0 => 0,
                1 => carries[i % carries.len()],
                _ => r >> (r % 7),
            };
            points.push(point);
            scalars.push(scalar);
            if i % 11 == 3 {
                points.extend([point.neg(), point]);
                scalars.extend([scalar, scalar]);
            }
        }
        let equal = vec![0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978u128; 60];
        let cases = [
            (base[..carries.len()].to_vec(), carries.clone()),
            (points, scalars),
            (base.clone(), equal.clone()),
            (
                [base.clone(), base.clone()].concat(),
                [equal.clone(), equal.clone()].concat(),
            ),
            (vec![base[0]; 60], equal),
            (vec![Affine::INFINITY, base[1]], vec![u128::MAX, 0]),
            (vec![], vec![]),
        ];
        for (points, scalars) in &cases {
            let expect = naive_msm(points, scalars);
            for c in 2..=12 {
                assert_eq!(
                    msm_windowed(points, scalars, c).to_affine(),
                    expect,
                    "c = {c}, n = {}",
                    points.len()
                );
            }
        }
    }

    /// Field multiplications per point of one combined-equation-sized
    /// multi-scalar multiplication, counted on this thread: 206 at n = 256
    /// and 148 at n = 1,000 (342 and 253 with unsigned digits in Jacobian
    /// buckets). Batch-affine buckets pay ~6 per bucket addition, Jacobian
    /// ones ~11, so a slide back to them breaks the ceilings.
    #[test]
    fn msm_multiplications_per_point_stay_under_their_ceiling() {
        let points = distinct_points(1000);
        let scalars: Vec<u128> = (0u64..1000)
            .map(|i| {
                let digest = crate::hash::keccak256(&i.to_be_bytes());
                let mut half = [0u8; 16];
                half.copy_from_slice(&digest[..16]);
                u128::from_be_bytes(half)
            })
            .collect();
        for (n, ceiling) in [(256, 230), (1000, 170)] {
            let before = super::super::field::MULS.with(|muls| muls.get());
            let sum = msm_u128(&points[..n], &scalars[..n]);
            let muls = super::super::field::MULS.with(|muls| muls.get()) - before;
            assert_eq!(sum.to_affine(), naive_msm(&points[..n], &scalars[..n]));
            let per_point = muls / n as u64;
            assert!(per_point <= ceiling, "n = {n}: {per_point} > {ceiling}");
        }
    }

    #[test]
    fn serialization_roundtrips() {
        let p = mul_generator(&Scalar::from_u64(12345)).to_affine();
        let unc = p.to_bytes_uncompressed();
        assert_eq!(Affine::from_bytes_uncompressed(&unc).unwrap(), p);
    }

    #[test]
    fn invalid_points_rejected() {
        // x = y = 1 is not on the curve.
        assert!(Affine::new(Fe::ONE, Fe::ONE).is_none());
        let mut bad = [1u8; 64];
        bad[0] = 9;
        assert!(Affine::from_bytes_uncompressed(&bad).is_none());
    }

    #[test]
    fn mul_distributes_over_add() {
        // (a+b)G == aG + bG
        let a = Scalar::from_u64(0xDEADBEEF);
        let b = Scalar::from_u64(0xFEEDFACE);
        let lhs = mul_generator(&a.add(&b)).to_affine();
        let rhs = mul_generator(&a).add(&mul_generator(&b)).to_affine();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn infinity_handling() {
        assert!(mul_point(&Affine::INFINITY, &Scalar::from_u64(3)).is_infinity());
        assert!(mul_point(&Affine::GENERATOR, &Scalar::ZERO).is_infinity());
        assert!(mul_generator(&Scalar::ZERO).is_infinity());
        let g = Affine::GENERATOR.to_jacobian();
        assert_eq!(g.add(&Jacobian::INFINITY).to_affine(), Affine::GENERATOR);
        assert_eq!(Jacobian::INFINITY.add(&g).to_affine(), Affine::GENERATOR);
        assert_eq!(Jacobian::INFINITY.to_affine(), Affine::INFINITY);
    }

    fn sample_scalars() -> Vec<Scalar> {
        vec![
            Scalar::from_u64(1),
            Scalar::from_u64(2),
            Scalar::from_u64(0xDEAD_BEEF),
            Scalar::from_be_bytes_reduced(&[0xA5; 32]),
            Scalar::from_be_bytes_reduced(&[0x5A; 32]),
            Scalar::from_u64(1).neg(), // n - 1
            Scalar::LAMBDA,
            Scalar::LAMBDA.neg(),
        ]
    }

    #[test]
    fn batch_normalize_matches_to_affine() {
        let mut points: Vec<Jacobian> = sample_scalars()
            .iter()
            .map(|s| mul_generator(s).double())
            .collect();
        points.insert(1, Jacobian::INFINITY);
        points.push(Jacobian::INFINITY);
        let expect: Vec<Affine> = points.iter().map(|p| p.to_affine()).collect();
        assert_eq!(batch_normalize(&points), expect);
        assert!(batch_normalize(&[]).is_empty());
    }

    #[test]
    fn comb_generator_matches_naive_mul() {
        for s in sample_scalars() {
            assert_eq!(
                mul_generator(&s).to_affine(),
                naive_mul(&Affine::GENERATOR, &s).to_affine(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn glv_wnaf_mul_point_matches_naive_mul() {
        let base = mul_generator(&Scalar::from_u64(31337)).to_affine();
        for s in sample_scalars() {
            assert_eq!(
                mul_point(&base, &s).to_affine(),
                naive_mul(&base, &s).to_affine(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn endomorphism_is_lambda_multiplication() {
        let p = mul_generator(&Scalar::from_u64(777)).to_affine();
        let via_endo = p.endo();
        let via_scalar = mul_point(&p, &Scalar::LAMBDA).to_affine();
        assert_eq!(via_endo, via_scalar);
        assert!(via_endo.is_on_curve());
        assert_eq!(Affine::INFINITY.endo(), Affine::INFINITY);
    }

    #[test]
    fn mul_double_variants_agree() {
        let q = mul_generator(&Scalar::from_be_bytes_reduced(&[0x77; 32])).to_affine();
        let scalars = sample_scalars();
        for a in &scalars {
            for b in &scalars {
                let expect = naive_mul_double(a, b, &q);
                assert_eq!(mul_double(a, b, &q).to_affine(), expect, "glv {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn mul_double_handles_zero_and_infinity() {
        let q = mul_generator(&Scalar::from_u64(99)).to_affine();
        let a = Scalar::from_u64(41);
        let b = Scalar::from_u64(43);
        assert_eq!(
            mul_double(&a, &Scalar::ZERO, &q).to_affine(),
            mul_generator(&a).to_affine()
        );
        assert_eq!(
            mul_double(&Scalar::ZERO, &b, &q).to_affine(),
            mul_point(&q, &b).to_affine()
        );
        assert!(mul_double(&Scalar::ZERO, &Scalar::ZERO, &q).is_infinity());
        assert_eq!(
            mul_double(&a, &b, &Affine::INFINITY).to_affine(),
            mul_generator(&a).to_affine()
        );
    }

    #[test]
    fn cached_table_reuse_matches_fresh() {
        let q = mul_generator(&Scalar::from_u64(1234567)).to_affine();
        let table = AffineTable::new(&q);
        for s in sample_scalars() {
            assert_eq!(table.mul(&s).to_affine(), mul_point(&q, &s).to_affine());
            let a = s.add(&Scalar::from_u64(17));
            assert_eq!(
                mul_double_with_table(&a, &s, &table).to_affine(),
                mul_double(&a, &s, &q).to_affine()
            );
        }
    }
}
