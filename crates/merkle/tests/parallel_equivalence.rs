//! Equivalence suite: the pool-parallel Merkle build must be
//! *bit-identical* to the serial one — same root, same per-leaf proofs,
//! same range (multi-leaf) proofs — for every leaf count and every cutoff,
//! including non-power-of-two shapes and cutoffs that disable parallelism
//! entirely.
//!
//! The pool only changes *who* hashes each node, never *what* is hashed;
//! these tests are the executable statement of that claim. Both builds
//! route through the ×4 interleaved and fused fixed-shape Keccak paths, so
//! the suite also pins them (and the public `hash_leaf`/`hash_node`/
//! `hash_node_x4`/`hash_leaves` helpers) to a naive tree built on the
//! scalar one-shot `wedge_crypto::keccak256` over the tagged preimages.
//! That function is pinned to a naive sponge by wedge-crypto's own suites;
//! what this suite checks is the tree's shape and tagging.

use proptest::prelude::*;
use wedge_crypto::hash::Hash32;
use wedge_crypto::keccak256;
use wedge_merkle::{hash_leaf, hash_leaves, hash_node, hash_node_x4, MerkleTree, RangeProof};
use wedge_pool::WorkPool;

/// Leaf digest of the tagged preimage `0x00 ‖ data`.
fn ref_leaf(data: &[u8]) -> Hash32 {
    let mut msg = vec![0x00u8];
    msg.extend_from_slice(data);
    Hash32(keccak256(&msg))
}

/// Node digest of the tagged preimage `0x01 ‖ left ‖ right`.
fn ref_node(left: &Hash32, right: &Hash32) -> Hash32 {
    let mut msg = vec![0x01u8];
    msg.extend_from_slice(left.as_bytes());
    msg.extend_from_slice(right.as_bytes());
    Hash32(keccak256(&msg))
}

/// A naive Merkle root folded pairwise, odd node promoted.
fn ref_root(leaves: &[Vec<u8>]) -> Hash32 {
    let mut level: Vec<Hash32> = leaves.iter().map(|l| ref_leaf(l)).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut pairs = level.chunks_exact(2);
        for pair in pairs.by_ref() {
            next.push(ref_node(&pair[0], &pair[1]));
        }
        if let [odd] = pairs.remainder() {
            next.push(*odd);
        }
        level = next;
    }
    level[0]
}

/// Cutoffs exercised by every test: tiny (parallelism everywhere), odd and
/// prime (non-power-of-two chunk boundaries), mid-size, and `usize::MAX`
/// (parallel path fully disabled — must still equal serial).
const CUTOFFS: &[usize] = &[0, 2, 3, 7, 100, 256, usize::MAX];

fn leaves_of(count: usize, seed: u8) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let mut leaf = vec![seed; 1 + i % 37];
            leaf.extend_from_slice(&(i as u64).to_be_bytes());
            leaf
        })
        .collect()
}

fn parallel_tree(leaves: &[Vec<u8>], pool: &WorkPool, cutoff: usize) -> MerkleTree {
    MerkleTree::from_leaves_parallel_counted(leaves, pool, cutoff)
        .unwrap()
        .0
}

/// The tree over leaf hashes computed elsewhere, interior levels on the
/// pool — the node's persist-stage path.
fn from_hashes_tree(leaves: &[Vec<u8>], pool: &WorkPool, cutoff: usize) -> MerkleTree {
    MerkleTree::from_leaf_hashes_parallel_counted(hash_leaves(leaves), pool, cutoff)
        .unwrap()
        .0
}

fn assert_equivalent(leaves: &[Vec<u8>], pool: &WorkPool, cutoff: usize) {
    let serial = MerkleTree::from_leaves(leaves).unwrap();
    let parallel = parallel_tree(leaves, pool, cutoff);
    let from_hashes = from_hashes_tree(leaves, pool, cutoff);

    // Roots bit-identical.
    assert_eq!(
        serial.root(),
        parallel.root(),
        "root mismatch at cutoff {cutoff}"
    );

    // Every level of the tree identical, not just the root.
    assert_eq!(serial.height(), parallel.height());
    assert_eq!(serial.height(), from_hashes.height());
    for depth in 0..serial.height() {
        assert_eq!(
            serial.level(depth),
            parallel.level(depth),
            "level {depth} differs"
        );
        assert_eq!(
            serial.level(depth),
            from_hashes.level(depth),
            "level {depth} differs over precomputed hashes"
        );
    }

    // Per-leaf proofs identical and mutually verifiable.
    for (i, leaf) in leaves.iter().enumerate() {
        let sp = serial.prove(i).unwrap();
        let pp = parallel.prove(i).unwrap();
        assert_eq!(sp, pp, "proof for leaf {i} differs at cutoff {cutoff}");
        assert!(pp.verify(leaf, &serial.root()).is_ok());
    }
}

#[test]
fn fixed_shapes_match_serial() {
    let pool = WorkPool::new(4);
    // Leaf counts chosen to hit every structural case: single leaf, odd
    // carries at multiple levels, exact powers of two, and just past them.
    for &count in &[
        1usize, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33, 64, 100, 255, 256, 257, 1024,
    ] {
        let leaves = leaves_of(count, 0xA5);
        for &cutoff in CUTOFFS {
            assert_equivalent(&leaves, &pool, cutoff);
        }
    }
}

#[test]
fn counted_builder_reports_zero_chunks_when_disabled() {
    let pool = WorkPool::new(4);
    let leaves = leaves_of(512, 0x11);
    let (_, chunks) = MerkleTree::from_leaves_parallel_counted(&leaves, &pool, usize::MAX).unwrap();
    assert_eq!(chunks, 0, "cutoff usize::MAX must never dispatch chunks");
    // With a single-worker pool the builder must also stay inline.
    let solo = WorkPool::new(1);
    let (_, chunks) = MerkleTree::from_leaves_parallel_counted(&leaves, &solo, 2).unwrap();
    assert_eq!(chunks, 0, "single-worker pool must never dispatch chunks");
    // The same over precomputed leaf hashes.
    let hashes = hash_leaves(&leaves);
    let (_, chunks) =
        MerkleTree::from_leaf_hashes_parallel_counted(hashes.clone(), &pool, usize::MAX).unwrap();
    assert_eq!(chunks, 0);
    let (_, chunks) = MerkleTree::from_leaf_hashes_parallel_counted(hashes, &solo, 2).unwrap();
    assert_eq!(chunks, 0);
}

#[test]
fn empty_leaves_rejected_like_serial() {
    let pool = WorkPool::new(4);
    let empty: Vec<Vec<u8>> = Vec::new();
    assert!(MerkleTree::from_leaves_parallel_counted(&empty, &pool, 2).is_err());
    assert!(MerkleTree::from_leaf_hashes(Vec::new()).is_err());
    assert!(MerkleTree::from_leaf_hashes_parallel_counted(Vec::new(), &pool, 2).is_err());
}

/// `hash_leaf` and `hash_node` stay byte-identical to the one-shot digest
/// of their tagged preimages for every sub-rate payload length (0..=136
/// covers the fused path and its boundary fallback), and
/// `hash_node_x4`/`hash_leaves` agree with their scalar counterparts.
#[test]
fn tagged_hashes_match_naive_across_lengths() {
    for len in 0..=136usize {
        let data: Vec<u8> = (0..len).map(|i| (i * 13 + len) as u8).collect();
        assert_eq!(hash_leaf(&data), ref_leaf(&data), "leaf len {len}");
    }
    let children: Vec<Hash32> = (0..8u8).map(|i| hash_leaf(&[i; 40])).collect();
    for pair in children.chunks_exact(2) {
        assert_eq!(hash_node(&pair[0], &pair[1]), ref_node(&pair[0], &pair[1]));
    }
    let x4 = hash_node_x4(&children);
    for (pair, parent) in children.chunks_exact(2).zip(x4.iter()) {
        assert_eq!(*parent, ref_node(&pair[0], &pair[1]), "x4 parent");
    }
    let raw: Vec<Vec<u8>> = (0..13usize).map(|i| vec![i as u8; i * 11]).collect();
    let batched = hash_leaves(&raw);
    for (leaf, digest) in raw.iter().zip(batched.iter()) {
        assert_eq!(*digest, ref_leaf(leaf), "batched leaf");
    }
}

/// Serial, pool-parallel, and the naive fold all agree on the root for
/// structurally interesting shapes (×4 octet boundaries at 8/9, ragged
/// tails, odd promotions at several levels).
#[test]
fn roots_match_naive_tree() {
    let pool = WorkPool::new(4);
    for &count in &[
        1usize, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 33, 100, 257,
    ] {
        let leaves = leaves_of(count, 0x77);
        let expect = ref_root(&leaves);
        assert_eq!(
            MerkleTree::from_leaves(&leaves).unwrap().root(),
            expect,
            "serial root, {count} leaves"
        );
        for &cutoff in CUTOFFS {
            assert_eq!(
                parallel_tree(&leaves, &pool, cutoff).root(),
                expect,
                "parallel root, {count} leaves, cutoff {cutoff}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes: serial, parallel, and the naive tree all
    /// produce the same root (so the ×4/fixed paths can never skew the
    /// on-chain commitment), and proofs verify against it.
    #[test]
    fn random_roots_match_naive_tree(
        leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..160), 1..200),
        cutoff_seed in any::<usize>(),
    ) {
        let pool = WorkPool::new(4);
        let cutoff = CUTOFFS[cutoff_seed % CUTOFFS.len()];
        let expect = ref_root(&leaves);
        let serial = MerkleTree::from_leaves(&leaves).unwrap();
        let parallel = parallel_tree(&leaves, &pool, cutoff);
        prop_assert_eq!(serial.root(), expect);
        prop_assert_eq!(parallel.root(), expect);
        prop_assert_eq!(from_hashes_tree(&leaves, &pool, cutoff).root(), expect);
    }

    #[test]
    fn random_leaves_roots_and_proofs_match(
        leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..1024),
        cutoff_seed in any::<usize>(),
        idx_seed in any::<usize>(),
    ) {
        let pool = WorkPool::new(4);
        let cutoff = CUTOFFS[cutoff_seed % CUTOFFS.len()];
        let serial = MerkleTree::from_leaves(&leaves).unwrap();
        let parallel = parallel_tree(&leaves, &pool, cutoff);
        prop_assert_eq!(serial.root(), parallel.root());

        let i = idx_seed % leaves.len();
        prop_assert_eq!(serial.prove(i).unwrap(), parallel.prove(i).unwrap());
    }

    #[test]
    fn random_range_proofs_match(
        leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..300),
        cutoff_seed in any::<usize>(),
        s_seed in any::<usize>(),
        c_seed in any::<usize>(),
    ) {
        let pool = WorkPool::new(4);
        let cutoff = CUTOFFS[cutoff_seed % CUTOFFS.len()];
        let serial = MerkleTree::from_leaves(&leaves).unwrap();
        let parallel = parallel_tree(&leaves, &pool, cutoff);

        let start = s_seed % leaves.len();
        let count = 1 + c_seed % (leaves.len() - start);
        let sp = RangeProof::generate(&serial, start, count).unwrap();
        let pp = RangeProof::generate(&parallel, start, count).unwrap();
        prop_assert_eq!(sp, pp.clone());
        prop_assert!(pp.verify(&leaves[start..start + count], &serial.root()).is_ok());
    }
}
