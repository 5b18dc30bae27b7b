//! The node's log state (see `docs/architecture.md`).
//!
//! One type serves both planes. The writers (stage-1 deliver stage, stage-2
//! committer, recovery) own a [`Snapshot`] behind the write-plane mutex and
//! change it only through [`super::Shared::mutate`], which publishes a clone
//! of it as the read plane's `Arc<Snapshot>` once per batch registration or
//! group commit. A reader clones that `Arc` under the read-plane lock and
//! then works on a view nobody can change: a multi-entry read can never see
//! a batch appear mid-iteration.
//!
//! The clone is cheap because every field shares its storage, through
//! copy-on-write containers built in-tree (the workspace vendors its
//! dependencies):
//!
//! * [`ChunkedVec`] — the batches and the commits, in fixed-size chunks. A
//!   clone copies one pointer per [`CHUNK`] positions; a push copies at most
//!   the one chunk a published snapshot still shares.
//! * [`SeqIndex`] — a tiered `(publisher, sequence) → EntryId` index. Each
//!   flush pushes one delta level; adjacent levels merge LSM-style when the
//!   newer reaches half the older's size, so inserts cost amortized
//!   `O(log n)` copies and lookups probe `O(log n)` small hash maps.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use wedge_crypto::keys::Address;

use super::state::{BatchMeta, CommitInfo};
use crate::types::EntryId;

/// Elements per [`ChunkedVec`] chunk. Small enough that copying the one
/// shared chunk a publish touches is negligible, large enough that the
/// chunk vector a clone copies stays short.
const CHUNK: usize = 512;

/// The node's state at one instant. The write plane owns the live copy;
/// every published clone is immutable, so readers that loaded it all see
/// the same log.
#[derive(Clone, Default)]
pub(crate) struct Snapshot {
    /// Flushed batches, indexed by `log_id`.
    pub batches: ChunkedVec<Arc<BatchMeta>>,
    /// `(publisher, sequence)` → entry locator.
    pub seq: SeqIndex,
    /// Stage-2 info of the blockchain-committed positions, indexed by
    /// `log_id`. Positions reach the chain as a prefix (the Root Record
    /// writes strictly in order), so its length is the committed frontier.
    pub commits: ChunkedVec<CommitInfo>,
    /// Total entries across all batches (maintained as a running counter —
    /// never recomputed by summing batches).
    pub entry_count: u64,
    /// Sum of the commits' stage-2 latencies, kept beside them by
    /// [`Snapshot::record_commit`] and [`Snapshot::truncate`].
    pub stage2_latency_sum: Duration,
    /// Snapshots published from the write plane (bumped by
    /// [`super::Shared::mutate`]; 0 in a restored plane).
    pub publishes: u64,
}

impl Snapshot {
    /// The committed frontier: positions below it are blockchain-committed,
    /// none at or above it is. Only records of those positions may ever be
    /// retired.
    pub fn frontier(&self) -> u64 {
        self.commits.len() as u64
    }

    /// Registers one flushed batch: appends its metadata, indexes its
    /// entries, and bumps the running entry counter.
    pub fn register_batch<I>(&mut self, meta: BatchMeta, entries: I)
    where
        I: IntoIterator<Item = ((Address, u64), u32)>,
    {
        let log_id = meta.log_id;
        let delta: HashMap<(Address, u64), EntryId> = entries
            .into_iter()
            .map(|(key, offset)| (key, EntryId { log_id, offset }))
            .collect();
        self.entry_count = self.entry_count.saturating_add(meta.count as u64);
        self.seq.insert_batch(delta);
        self.batches.push(Arc::new(meta));
    }

    /// Records the next position as blockchain-committed.
    pub fn record_commit(&mut self, info: CommitInfo) {
        self.stage2_latency_sum = self.stage2_latency_sum.saturating_add(info.stage2_latency);
        self.commits.push(info);
    }

    /// Drops every batch from log id `kept` on, with its entries and its
    /// commit; no-op if there are none.
    pub fn truncate(&mut self, kept: usize) {
        if kept >= self.batches.len() {
            return;
        }
        let entries: u64 = self.batches.iter_from(kept).map(|b| b.count as u64).sum();
        let latency: Duration = self.commits.iter_from(kept).map(|c| c.stage2_latency).sum();
        self.entry_count = self.entry_count.saturating_sub(entries);
        self.stage2_latency_sum = self.stage2_latency_sum.saturating_sub(latency);
        self.batches.truncate(kept);
        self.commits.truncate(kept);
        self.seq.retain(|id| id.log_id < kept as u64);
    }
}

/// A copy-on-write vector stored as [`CHUNK`]-sized pieces, every one but
/// the last full. A clone shares every chunk; a mutation copies only the
/// chunk it touches, and only while a clone still shares it.
pub(crate) struct ChunkedVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Clone for ChunkedVec<T> {
    fn clone(&self) -> Self {
        ChunkedVec {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The element at `index`, if there is one.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.chunks.get(index / CHUNK)?.get(index % CHUNK)
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.get(self.len.checked_sub(1)?)
    }

    /// Elements from `start` on, in order.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .skip(start / CHUNK)
            .flat_map(|chunk| chunk.iter())
            .skip(start % CHUNK)
    }

    /// Appends one element.
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        if let Some(chunk) = self.chunks.last_mut() {
            Arc::make_mut(chunk).push(value);
            self.len += 1;
        }
    }

    /// Shortens the vector to `len` elements; no-op if it is not longer.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.chunks.truncate(len.div_ceil(CHUNK));
        if let Some(chunk) = self.chunks.last_mut() {
            if !len.is_multiple_of(CHUNK) {
                Arc::make_mut(chunk).truncate(len % CHUNK);
            }
        }
        self.len = len;
    }
}

/// Tiered copy-on-write `(publisher, sequence)` index.
///
/// Levels are ordered oldest→newest; lookups probe newest-first. A clone
/// shares every level, so snapshots pay `O(levels)` pointer copies. Writers
/// push one delta per batch and merge adjacent levels geometrically
/// (LSM-style), keeping the level count logarithmic in the entry count. A
/// merge clones the older level only when a published snapshot still shares
/// it (`Arc::try_unwrap` falls back to a copy).
#[derive(Clone, Default)]
pub(crate) struct SeqIndex {
    levels: Vec<Arc<HashMap<(Address, u64), EntryId>>>,
}

impl SeqIndex {
    /// Looks up an entry locator, newest level first.
    pub fn get(&self, publisher: Address, sequence: u64) -> Option<EntryId> {
        let key = (publisher, sequence);
        self.levels
            .iter()
            .rev()
            .find_map(|level| level.get(&key).copied())
    }

    /// Total indexed entries (distinct keys, assuming no re-insertions —
    /// the node assigns each `(publisher, sequence)` exactly once).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.levels.iter().map(|level| level.len()).sum()
    }

    /// Pushes one batch's delta as the newest level, then restores the
    /// geometric level invariant.
    pub fn insert_batch(&mut self, delta: HashMap<(Address, u64), EntryId>) {
        if delta.is_empty() {
            return;
        }
        self.levels.push(Arc::new(delta));
        self.compact();
    }

    /// Merges the newest level into its predecessor while the newest holds
    /// at least half the predecessor's entries.
    fn compact(&mut self) {
        loop {
            let n = self.levels.len();
            let (Some(older), Some(newer)) = (
                n.checked_sub(2).and_then(|i| self.levels.get(i)),
                self.levels.last(),
            ) else {
                break;
            };
            if newer.len().saturating_mul(2) < older.len() {
                break;
            }
            let (Some(newer), Some(older)) = (self.levels.pop(), self.levels.pop()) else {
                break;
            };
            let mut merged = Arc::try_unwrap(older).unwrap_or_else(|shared| (*shared).clone());
            merged.extend(newer.iter().map(|(key, id)| (*key, *id)));
            self.levels.push(Arc::new(merged));
        }
    }

    /// Every level folded into one map, newer levels winning on
    /// (theoretical) key collisions. `O(n)`.
    fn merged(&self) -> HashMap<(Address, u64), EntryId> {
        let mut merged = HashMap::new();
        for level in &self.levels {
            merged.extend(level.iter().map(|(key, id)| (*key, *id)));
        }
        merged
    }

    /// The levels, oldest first: inserting their entries in this order
    /// leaves the newest locator of every key, as [`SeqIndex::get`] sees
    /// it. The checkpoint writer walks them as they are — no merge, no
    /// copy.
    pub fn levels(&self) -> impl Iterator<Item = &HashMap<(Address, u64), EntryId>> {
        self.levels.iter().map(|level| &**level)
    }

    /// Keeps only entries whose locator satisfies `keep`, collapsing all
    /// levels into one — used by the destructive-attack simulation path,
    /// never on the flush path.
    pub fn retain(&mut self, keep: impl Fn(&EntryId) -> bool) {
        let mut merged = self.merged();
        merged.retain(|_, id| keep(id));
        self.levels = if merged.is_empty() {
            Vec::new()
        } else {
            vec![Arc::new(merged)]
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_merkle::MerkleTree;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    fn id(log_id: u64, offset: u32) -> EntryId {
        EntryId { log_id, offset }
    }

    fn info(block: u64) -> CommitInfo {
        CommitInfo {
            tx_hash: wedge_crypto::Hash32::ZERO,
            block_number: block,
            stage2_latency: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn seq_index_insert_lookup_and_levels_merge() {
        let mut seq = SeqIndex::default();
        for batch in 0u64..40 {
            let delta: HashMap<_, _> = (0..25u32)
                .map(|off| ((addr(1), batch * 25 + off as u64), id(batch, off)))
                .collect();
            seq.insert_batch(delta);
        }
        assert_eq!(seq.len(), 1000);
        // Geometric merging keeps the level count logarithmic.
        assert!(
            seq.levels.len() <= 12,
            "levels must stay logarithmic, got {}",
            seq.levels.len()
        );
        for n in [0u64, 24, 25, 500, 999] {
            assert_eq!(seq.get(addr(1), n), Some(id(n / 25, (n % 25) as u32)));
        }
        assert_eq!(seq.get(addr(1), 1000), None);
        assert_eq!(seq.get(addr(2), 0), None);
    }

    #[test]
    fn seq_index_clone_shares_and_is_isolated() {
        let mut seq = SeqIndex::default();
        seq.insert_batch([((addr(1), 0), id(0, 0))].into_iter().collect());
        let frozen = seq.clone();
        seq.insert_batch([((addr(1), 1), id(1, 0))].into_iter().collect());
        // The frozen copy must not see post-clone inserts.
        assert_eq!(frozen.get(addr(1), 1), None);
        assert_eq!(seq.get(addr(1), 1), Some(id(1, 0)));
        assert_eq!(frozen.get(addr(1), 0), Some(id(0, 0)));
    }

    #[test]
    fn seq_index_retain_drops_matching_entries() {
        let mut seq = SeqIndex::default();
        for batch in 0u64..4 {
            seq.insert_batch([((addr(1), batch), id(batch, 0))].into_iter().collect());
        }
        seq.retain(|entry| entry.log_id < 2);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.get(addr(1), 1), Some(id(1, 0)));
        assert_eq!(seq.get(addr(1), 3), None);
        let sizes: Vec<usize> = seq.levels().map(HashMap::len).collect();
        assert_eq!(sizes, [2], "retain collapses the levels into one");
    }

    fn chunked(len: u64) -> ChunkedVec<u64> {
        let mut vec = ChunkedVec::default();
        for value in 0..len {
            vec.push(value);
        }
        vec
    }

    #[test]
    fn chunked_vec_clone_is_isolated_across_a_chunk_boundary_and_truncate() {
        let mut vec = chunked(CHUNK as u64 - 1);
        let frozen = vec.clone();
        vec.push(1_000); // fills chunk 0 …
        vec.push(1_001); // … and opens chunk 1
        assert_eq!(vec.len(), CHUNK + 1);
        assert_eq!(vec.get(CHUNK - 1), Some(&1_000));
        assert_eq!(vec.last(), Some(&1_001));
        assert_eq!(frozen.len(), CHUNK - 1);
        assert_eq!(frozen.get(CHUNK - 1), None);
        assert_eq!(frozen.last(), Some(&(CHUNK as u64 - 2)));

        let before_truncate = vec.clone();
        vec.truncate(3);
        assert_eq!(vec.len(), 3);
        assert_eq!(vec.iter_from(0).copied().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(vec.get(3), None);
        vec.push(7);
        assert_eq!(vec.get(3), Some(&7));
        // Neither earlier clone saw the truncate or the push after it.
        assert_eq!(before_truncate.len(), CHUNK + 1);
        assert_eq!(before_truncate.get(3), Some(&3));
        assert_eq!(before_truncate.get(CHUNK), Some(&1_001));
        assert_eq!(frozen.get(3), Some(&3));
        // Truncating to a chunk boundary drops the tail chunk whole, and
        // truncating to a longer length changes nothing.
        let mut at_boundary = before_truncate.clone();
        at_boundary.truncate(CHUNK);
        assert_eq!((at_boundary.len(), at_boundary.chunks.len()), (CHUNK, 1));
        at_boundary.truncate(CHUNK + 10);
        assert_eq!(at_boundary.len(), CHUNK);
    }

    #[test]
    fn chunked_vec_iterates_from_any_index() {
        let vec = chunked(2 * CHUNK as u64 + 5);
        for start in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 4] {
            let tail: Vec<u64> = vec.iter_from(start).copied().collect();
            assert_eq!(
                tail,
                (start as u64..2 * CHUNK as u64 + 5).collect::<Vec<_>>()
            );
        }
        assert_eq!(vec.iter_from(2 * CHUNK + 5).count(), 0);
        assert_eq!(vec.iter_from(10 * CHUNK).count(), 0);
    }

    /// A publish clones the plane and the next mutation copies only the
    /// chunk it touches: at 10,000 positions every full chunk is still the
    /// same allocation in both snapshots, so a publish costs one pointer per
    /// 512 positions and at most one 512-element copy.
    #[test]
    fn a_publish_copies_at_most_one_chunk() {
        let mut plane = Snapshot::default();
        for _ in 0..10_000 {
            plane.commits.push(info(1));
        }
        let published = plane.clone();
        plane.commits.push(info(2));
        let full = 10_000 / CHUNK;
        assert_eq!(plane.commits.chunks.len(), full + 1);
        for (ours, theirs) in plane.commits.chunks.iter().zip(&published.commits.chunks) {
            assert_eq!(
                Arc::ptr_eq(ours, theirs),
                theirs.len() == CHUNK,
                "only the partial tail chunk may be copied"
            );
        }
        assert_eq!(published.frontier(), 10_000);
        assert_eq!(plane.frontier(), 10_001);
        assert_eq!(plane.commits.last().map(|i| i.block_number), Some(2));
    }

    fn batch_meta(log_id: u64, count: u32) -> BatchMeta {
        let leaves: Vec<Vec<u8>> = (0..count).map(|i| vec![log_id as u8, i as u8]).collect();
        BatchMeta {
            log_id,
            first_record: log_id * (count as u64 + 1) + 1,
            count,
            tree: MerkleTree::from_leaves(&leaves).unwrap(),
            flushed_at: wedge_sim::SimInstant::EPOCH,
        }
    }

    fn epoch_node(tag: &str) -> crate::LocalNode {
        // Epoch mode runs no committer thread: the test is the only writer.
        let config = crate::NodeConfig {
            stage2_mode: crate::Stage2Mode::Epoch,
            ..Default::default()
        };
        crate::LocalNode::start(tag, config).unwrap()
    }

    #[test]
    fn cell_load_reflects_publish_and_old_snapshots_stay_immutable() {
        let local = epoch_node("snap-publish");
        let shared = &local.node().shared;
        shared.mutate(|plane| {
            plane.register_batch(
                batch_meta(0, 2),
                (0..2u32).map(|off| ((addr(1), off as u64), off)),
            )
        });

        let before = shared.snapshot();
        assert_eq!(before.entry_count, 2);
        assert_eq!(before.batches.len(), 1);

        shared.mutate(|plane| {
            plane.register_batch(
                batch_meta(1, 3),
                (0..3u32).map(|off| ((addr(1), 2 + off as u64), off)),
            );
            plane.commits.push(info(5));
        });

        // The retained snapshot is frozen in time…
        assert_eq!(before.entry_count, 2);
        assert_eq!(before.batches.len(), 1);
        assert_eq!(before.frontier(), 0);
        assert_eq!(before.seq.get(addr(1), 3), None);
        // …while a fresh load sees the publication.
        let after = shared.snapshot();
        assert_eq!(after.entry_count, 5);
        assert_eq!(after.batches.len(), 2);
        assert_eq!(after.frontier(), 1);
        assert_eq!(after.seq.get(addr(1), 3), Some(id(1, 1)));
    }

    #[test]
    fn cell_load_is_fresh_across_threads() {
        let local = epoch_node("snap-threads");
        let shared = &local.node().shared;
        // Load once on the reading thread before the publish, so a stale
        // per-thread copy would have something to serve.
        let (loaded, published) = std::sync::mpsc::channel::<()>();
        let (go, wait) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || {
                let before = shared.snapshot().batches.len();
                loaded.send(()).unwrap();
                wait.recv().unwrap();
                (before, shared.snapshot().batches.len())
            });
            published.recv().unwrap();
            shared.mutate(|plane| plane.register_batch(batch_meta(0, 1), [((addr(1), 0), 0u32)]));
            go.send(()).unwrap();
            assert_eq!(reader.join().unwrap(), (0, 1));
        });
        assert_eq!(shared.snapshot().batches.len(), 1);
    }
}
