//! The node's two-plane state (see `docs/architecture.md`).
//!
//! *Read plane*: an immutable [`Snapshot`] published through a
//! [`SnapshotCell`]. The hot read path performs **one atomic version load**
//! — no `RwLock` read guard is ever acquired while serving a read, a proof,
//! or a `Meta` request. Each reader thread keeps a small cache of
//! `(cell, version, Arc<Snapshot>)` entries; the cache is refreshed from the
//! cell's cold slot only when the version counter has moved, i.e. once per
//! publish per thread.
//!
//! *Write plane*: a [`WritePlane`] owned by the stage-1 pipeline and the
//! stage-2 committer behind a mutex ([`super::Shared::mutate`]). Writers
//! mutate the plane's copy-on-write structures and publish a frozen
//! [`Snapshot`] exactly once per flush/commit. Freezing is cheap: batch
//! metadata is `Arc`-shared per batch, the sequence index shares its levels,
//! and the commit index shares fixed-size chunks.
//!
//! The copy-on-write containers are built in-tree (the workspace vendors its
//! dependencies) and keep publish cost sub-linear:
//!
//! * [`SeqIndex`] — a tiered `(publisher, sequence) → EntryId` index. Each
//!   flush pushes one delta level; adjacent levels merge LSM-style when the
//!   newer reaches half the older's size, so inserts cost amortized
//!   `O(log n)` copies and lookups probe `O(log n)` small hash maps.
//! * [`CommitIndex`] — chunked `log_id → CommitInfo` storage; an insert
//!   copies one fixed-size chunk, not the whole map.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use wedge_crypto::keys::Address;

use super::state::{BatchMeta, CommitInfo};
use crate::types::EntryId;

/// Entries per [`CommitIndex`] chunk. Small enough that the copy-on-write
/// clone of one chunk per stage-2 group commit is negligible, large enough
/// that the chunk vector stays short.
const COMMIT_CHUNK: usize = 512;

/// Reader-side snapshot cache entries kept per thread. Each live node the
/// thread reads from occupies one slot; least-recently-used cells fall out.
const MAX_CACHED_CELLS: usize = 8;

/// An immutable view of the node's state, shared by all readers that loaded
/// it. A snapshot never changes after publication: a multi-entry read that
/// works on one snapshot can never observe a batch appearing mid-iteration.
pub(crate) struct Snapshot {
    /// Flushed batches, indexed by `log_id`.
    pub batches: Vec<Arc<BatchMeta>>,
    /// `(publisher, sequence)` → entry locator.
    pub seq: SeqIndex,
    /// Blockchain-committed positions.
    pub commits: CommitIndex,
    /// Total entries across all batches (maintained as a running counter —
    /// never recomputed by summing batches).
    pub entry_count: u64,
}

/// The mutable state owned by the writers (stage-1 pipeline, stage-2
/// committer, recovery). Every field is copy-on-write-friendly so
/// [`WritePlane::freeze`] is cheap; mutation happens only under
/// [`super::Shared::mutate`], which publishes a fresh [`Snapshot`] when the
/// closure returns.
#[derive(Default)]
pub(crate) struct WritePlane {
    /// Flushed batches, indexed by `log_id`.
    pub batches: Vec<Arc<BatchMeta>>,
    /// `(publisher, sequence)` → entry locator.
    pub seq: SeqIndex,
    /// Blockchain-committed positions.
    pub commits: CommitIndex,
    /// Running total of entries across all batches.
    pub entry_count: u64,
}

impl WritePlane {
    /// Freezes the current state into a publishable snapshot. Costs one
    /// `Vec<Arc>` clone plus `Arc` reference bumps — no entry is copied.
    pub fn freeze(&self) -> Arc<Snapshot> {
        Arc::new(Snapshot {
            batches: self.batches.clone(),
            seq: self.seq.clone(),
            commits: self.commits.clone(),
            entry_count: self.entry_count,
        })
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
}

/// Tiered copy-on-write `(publisher, sequence)` index.
///
/// Levels are ordered oldest→newest; lookups probe newest-first. A clone
/// shares every level, so snapshots pay `O(levels)` pointer copies. Writers
/// push one delta per batch and merge adjacent levels geometrically
/// (LSM-style), keeping the level count logarithmic in the entry count. A
/// merge clones the older level only when a published snapshot still shares
/// it (`Arc::try_unwrap` falls back to a copy), which is the copy-on-write
/// cost of lock-free readers.
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

    /// Every indexed entry, newest insertion winning on (theoretical) key
    /// collisions. `O(n)` — used by the checkpoint writer, never on the
    /// flush or read paths.
    pub fn entries(&self) -> Vec<((Address, u64), EntryId)> {
        let mut merged: HashMap<(Address, u64), EntryId> = HashMap::new();
        for level in &self.levels {
            for (key, id) in level.iter() {
                merged.insert(*key, *id);
            }
        }
        merged.into_iter().collect()
    }

    /// Keeps only entries whose locator satisfies `keep`, collapsing all
    /// levels into one. `O(n)` — used by the destructive-attack simulation
    /// path, never on the flush path.
    pub fn retain(&mut self, keep: impl Fn(&EntryId) -> bool) {
        let mut merged: HashMap<(Address, u64), EntryId> = HashMap::new();
        for level in &self.levels {
            for (key, id) in level.iter() {
                merged.insert(*key, *id);
            }
        }
        merged.retain(|_, id| keep(id));
        self.levels = if merged.is_empty() {
            Vec::new()
        } else {
            vec![Arc::new(merged)]
        };
    }
}

/// Chunked copy-on-write `log_id → CommitInfo` map.
///
/// Log ids are dense (positions commit from 0 upward), so storage is an
/// array of fixed-size chunks. A clone shares every chunk; an insert copies
/// exactly one chunk when a published snapshot still shares it.
#[derive(Clone, Default)]
pub(crate) struct CommitIndex {
    chunks: Vec<Arc<Vec<Option<CommitInfo>>>>,
    committed: u64,
    /// Smallest log id *not* yet committed: positions `[0, contiguous)`
    /// are all committed. Maintained incrementally on insert/remove
    /// (amortized O(1)) — this is the frontier that gates retention.
    contiguous: u64,
}

impl CommitIndex {
    /// Stage-2 info for a position, if committed.
    pub fn get(&self, log_id: u64) -> Option<CommitInfo> {
        let chunk = self.chunks.get((log_id / COMMIT_CHUNK as u64) as usize)?;
        chunk
            .get((log_id % COMMIT_CHUNK as u64) as usize)
            .copied()
            .flatten()
    }

    /// Whether the position is blockchain-committed.
    pub fn contains(&self, log_id: u64) -> bool {
        self.get(log_id).is_some()
    }

    /// Number of committed positions.
    pub fn len(&self) -> u64 {
        self.committed
    }

    /// The committed frontier: the smallest log id not yet committed
    /// (positions `[0, contiguous)` all are). Only records of those
    /// positions may ever be retired.
    pub fn contiguous(&self) -> u64 {
        self.contiguous
    }

    /// Every committed position. `O(n)` — used by the checkpoint writer,
    /// never on the commit or read paths.
    pub fn entries(&self) -> Vec<(u64, CommitInfo)> {
        let mut out = Vec::with_capacity(self.committed as usize);
        for (chunk_idx, chunk) in self.chunks.iter().enumerate() {
            for (offset, slot) in chunk.iter().enumerate() {
                if let Some(info) = slot {
                    out.push(((chunk_idx * COMMIT_CHUNK + offset) as u64, *info));
                }
            }
        }
        out
    }

    /// Records a commitment, overwriting any existing record.
    pub fn insert(&mut self, log_id: u64, info: CommitInfo) {
        let chunk_idx = (log_id / COMMIT_CHUNK as u64) as usize;
        let offset = (log_id % COMMIT_CHUNK as u64) as usize;
        while self.chunks.len() <= chunk_idx {
            self.chunks.push(Arc::new(vec![None; COMMIT_CHUNK]));
        }
        let Some(chunk) = self.chunks.get_mut(chunk_idx) else {
            return;
        };
        let chunk = Arc::make_mut(chunk);
        let Some(slot) = chunk.get_mut(offset) else {
            return;
        };
        if slot.is_none() {
            self.committed = self.committed.saturating_add(1);
        }
        *slot = Some(info);
        // Advance the frontier over every now-contiguous position. Each
        // position is crossed at most once over the index's lifetime, so
        // the total cost is O(1) amortized per insert.
        while self.contains(self.contiguous) {
            self.contiguous = self.contiguous.saturating_add(1);
        }
    }

    /// Removes a commitment (the destructive-attack simulation path).
    pub fn remove(&mut self, log_id: u64) {
        let chunk_idx = (log_id / COMMIT_CHUNK as u64) as usize;
        let offset = (log_id % COMMIT_CHUNK as u64) as usize;
        let Some(chunk) = self.chunks.get_mut(chunk_idx) else {
            return;
        };
        let chunk = Arc::make_mut(chunk);
        let Some(slot) = chunk.get_mut(offset) else {
            return;
        };
        if slot.is_some() {
            self.committed = self.committed.saturating_sub(1);
        }
        *slot = None;
        // The frontier can only shrink back to the removed position.
        if log_id < self.contiguous {
            self.contiguous = log_id;
        }
    }
}

/// The publication point between the planes.
///
/// `load` is the readers' entry: one atomic version load; when the version
/// matches the calling thread's cached copy, the cached `Arc<Snapshot>` is
/// cloned without touching any lock. Only when the version moved (once per
/// publish per thread) does the reader refresh from the cold `slot` — and
/// that refresh holds the slot's lock just long enough to clone an `Arc`,
/// never across proof generation or store reads.
///
/// `publish` must only be called while holding the write-plane mutex (see
/// [`super::Shared::mutate`]): the mutex serializes publications so a later
/// snapshot can never be overwritten by an earlier one.
pub(crate) struct SnapshotCell {
    /// Distinguishes cells in the per-thread cache (multiple nodes can live
    /// in one process, e.g. under tests).
    id: u64,
    /// Bumped after every publication; readers poll this single atomic.
    version: AtomicU64,
    /// Cold-path storage for the current snapshot.
    slot: RwLock<Arc<Snapshot>>,
}

/// Allocator for [`SnapshotCell::id`].
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread `(cell id, version, snapshot)` cache, most recent first.
    static SNAP_CACHE: RefCell<Vec<(u64, u64, Arc<Snapshot>)>> = const { RefCell::new(Vec::new()) };
}

impl SnapshotCell {
    /// Creates a cell holding `initial` as the current snapshot.
    pub fn new(initial: Arc<Snapshot>) -> SnapshotCell {
        SnapshotCell {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            version: AtomicU64::new(0),
            slot: RwLock::new(initial),
        }
    }

    /// Returns the current snapshot. Hot path: one atomic load plus a
    /// thread-local cache hit.
    pub fn load(&self) -> Arc<Snapshot> {
        let version = self.version.load(Ordering::Acquire);
        SNAP_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(pos) = cache.iter().position(|(id, _, _)| *id == self.id) {
                if let Some(entry) = cache.get_mut(pos) {
                    if entry.1 != version {
                        // Stale: refresh from the cold slot. The slot guard
                        // lives only for this Arc clone. The slot may
                        // already hold a snapshot newer than `version`;
                        // caching it under `version` is harmless — the next
                        // load sees a newer version and refreshes again.
                        *entry = (self.id, version, self.slot.read().clone());
                    }
                }
                cache.swap(0, pos);
                cache
                    .first()
                    .map(|(_, _, snap)| Arc::clone(snap))
                    // lint: allow(panic) — `pos` was found above, the cache
                    // is non-empty
                    .expect("cache entry present")
            } else {
                let snap = self.slot.read().clone();
                cache.insert(0, (self.id, version, Arc::clone(&snap)));
                cache.truncate(MAX_CACHED_CELLS);
                snap
            }
        })
    }

    /// Installs a new snapshot and bumps the version so readers refresh.
    /// Caller must hold the write-plane mutex.
    pub fn publish(&self, snap: Arc<Snapshot>) {
        *self.slot.write() = snap;
        self.version.fetch_add(1, Ordering::Release);
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
    }

    #[test]
    fn commit_index_chunked_cow() {
        let mut commits = CommitIndex::default();
        assert_eq!(commits.len(), 0);
        commits.insert(0, info(1));
        commits.insert(COMMIT_CHUNK as u64 + 3, info(2));
        let frozen = commits.clone();
        commits.insert(1, info(3));
        commits.insert(0, info(9)); // overwrite: count unchanged
        assert_eq!(commits.len(), 3);
        assert_eq!(commits.get(0).map(|i| i.block_number), Some(9));
        // The clone still sees the pre-mutation values.
        assert_eq!(frozen.len(), 2);
        assert_eq!(frozen.get(0).map(|i| i.block_number), Some(1));
        assert!(!frozen.contains(1));
        assert!(frozen.contains(COMMIT_CHUNK as u64 + 3));
        commits.remove(1);
        assert_eq!(commits.len(), 2);
        assert!(!commits.contains(1));
    }

    #[test]
    fn commit_index_contiguous_frontier() {
        let mut commits = CommitIndex::default();
        assert_eq!(commits.contiguous(), 0);
        commits.insert(1, info(1));
        commits.insert(2, info(1));
        assert_eq!(commits.contiguous(), 0, "gap at 0 pins the frontier");
        commits.insert(0, info(1));
        assert_eq!(commits.contiguous(), 3, "filling the gap jumps past 1,2");
        commits.insert(5, info(1));
        assert_eq!(commits.contiguous(), 3);
        // entries() reflects everything, ordered by log id.
        let ids: Vec<u64> = commits.entries().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 5]);
        // Removal (destructive-attack path) pulls the frontier back.
        commits.remove(1);
        assert_eq!(commits.contiguous(), 1);
        commits.insert(1, info(2));
        assert_eq!(commits.contiguous(), 3, "re-insert restores the run");
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

    #[test]
    fn cell_load_reflects_publish_and_old_snapshots_stay_immutable() {
        let mut plane = WritePlane::default();
        plane.register_batch(
            batch_meta(0, 2),
            (0..2u32).map(|off| ((addr(1), off as u64), off)),
        );
        let cell = SnapshotCell::new(plane.freeze());

        let before = cell.load();
        assert_eq!(before.entry_count, 2);
        assert_eq!(before.batches.len(), 1);

        plane.register_batch(
            batch_meta(1, 3),
            (0..3u32).map(|off| ((addr(1), 2 + off as u64), off)),
        );
        plane.commits.insert(0, info(5));
        cell.publish(plane.freeze());

        // The retained snapshot is frozen in time…
        assert_eq!(before.entry_count, 2);
        assert_eq!(before.batches.len(), 1);
        assert!(!before.commits.contains(0));
        assert_eq!(before.seq.get(addr(1), 3), None);
        // …while a fresh load (same thread: exercises the cache-refresh
        // path) sees the publication.
        let after = cell.load();
        assert_eq!(after.entry_count, 5);
        assert_eq!(after.batches.len(), 2);
        assert!(after.commits.contains(0));
        assert_eq!(after.seq.get(addr(1), 3), Some(id(1, 1)));
    }

    #[test]
    fn cell_load_is_fresh_across_threads() {
        let plane = WritePlane::default();
        let cell = std::sync::Arc::new(SnapshotCell::new(plane.freeze()));
        let mut plane = plane;
        plane.register_batch(batch_meta(0, 1), [((addr(1), 0), 0u32)]);
        cell.publish(plane.freeze());
        let handle = {
            let cell = std::sync::Arc::clone(&cell);
            std::thread::spawn(move || cell.load().batches.len())
        };
        assert_eq!(handle.join().unwrap(), 1);
        // Repeated loads on this thread hit the cache and stay correct.
        assert_eq!(cell.load().batches.len(), 1);
        assert_eq!(cell.load().batches.len(), 1);
    }

    #[test]
    fn distinct_cells_do_not_cross_talk_in_the_thread_cache() {
        let mut plane_a = WritePlane::default();
        plane_a.register_batch(batch_meta(0, 1), [((addr(1), 0), 0u32)]);
        let cell_a = SnapshotCell::new(plane_a.freeze());
        let cell_b = SnapshotCell::new(WritePlane::default().freeze());
        assert_eq!(cell_a.load().entry_count, 1);
        assert_eq!(cell_b.load().entry_count, 0);
        assert_eq!(cell_a.load().entry_count, 1);
    }
}
