//! The append-only log store: sequential records across rotating segments,
//! with crash recovery and an in-memory locator index.
//!
//! This is the durable backing for the Offchain Node's log ("The log entry
//! is then persisted to local storage", paper §4.3). Records are addressed
//! by a dense `u64` sequence number assigned at append time.
//!
//! # Segment lifecycle
//!
//! A store is always `sealed segments* + exactly one tail`. A segment is
//! immutable from the moment the tail rotates away from it, so rotation is
//! the seal — the records are written once and never copied:
//!
//! | state  | file | written by | a crash leaves → [`LogStore::open`] heals by |
//! |--------|------|------------|----------------------------------------------|
//! | tail   | `seg-N.wlog`: framed records | [`LogStore::append_frames`] | a torn last record → scanned, the torn bytes truncated |
//! | sealing | `seg-N.wlog`: records + part or all of the trailer | rotation, steps 1–2 | a prefix of the trailer the scan itself would write → trailer rewritten, seal finished in place (any other trailing bytes are `CorruptRecord`) |
//! | sealed | `seg-N.wcold`: records + locator block + footer | rotation, step 3 | no next tail (steps 4–5 lost) → one is created; the locator block is CRC'd, payload CRCs are checked on read |
//!
//! Rotation, under the tail lock: (1) append the locator block + footer
//! after the last record; (2) fsync the file — one fsync covers the records
//! and the trailer; (3) rename `seg-N.wlog` → `seg-N.wcold`; (4) create
//! `seg-(N+1).wlog`; (5) fsync the directory once — the rename and the new
//! entry are durable *before* any record is appended to the new tail, so a
//! `sync_data`'d record always has a directory entry; (6) swap the
//! in-memory index. Sealed segments are read through the `pread` handle
//! the tail already had open (it follows the inode across the rename),
//! never touching the tail lock.
//!
//! An I/O error (as opposed to a crash) in steps 1–3 leaves an unsealed
//! tail, which [`LogStore::append_frames`] cuts back to its last indexed
//! record — trailer and failed batch gone; an error in steps 4–5 leaves a
//! sealed tail writer, which takes no record: the next append starts at
//! step 4. Either way the index lists exactly what the files hold.
//!
//! [`LogStore::open`] also takes over a directory from before rotation
//! sealed: full `.wlog`s are scanned once and sealed in place, a `.wlog`
//! next to its own complete `.wcold` (a crash inside the old copy-seal) and
//! a leftover `index.widx` are deleted.
//!
//! [`LogStore::retire_up_to`] deletes whole sealed segments below the
//! retention frontier (the punishment window); reads below the frontier
//! fail with [`StorageError::RecordRetired`].
//!
//! A batch arrives already framed ([`Frames`]): the store checks sizes,
//! splits the bytes only where a record would overflow the tail (the same
//! record-granular rule as framing one record at a time), and writes each
//! contiguous run with one `write(2)` straight to the file. Nothing is
//! buffered in user space, so readers of the tail never need the tail lock.
//!
//! Lock order (outermost first): `maint` → `tail` → `tiers` → `group`.

use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use crate::cold::{ends_in_torn_seal, seal_in_place, ColdSegment};
use crate::error::StorageError;
use crate::segment::{
    read_record_from, scan_segment, segment_path, sync_dir, Frames, SegmentId, SegmentWriter,
    TailState, HEADER_LEN,
};
use crate::sidecar::{load_gc_marker, remove_stray_files, write_gc_marker};

/// When appended records are made durable. Every append reaches the OS
/// before it returns (the store keeps no user-space buffer); group commit
/// decides when it reaches stable storage.
///
/// Group commit is the only policy. It stays an enum because the benchmark
/// package names the variant and must compile unchanged; flattening it
/// into [`StoreConfig`] belongs to a change that may edit the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// Coalesce the fsyncs of pipeline-adjacent batches into one
    /// `sync_data`. A sync is triggered once `max_batches` appends are
    /// pending, and [`LogStore::ensure_durable`] bounds the wait at
    /// `max_delay` — callers must hold replies until it returns
    /// (reply ⇒ durable) at a fraction of one fsync per batch.
    GroupCommit {
        /// Pending appends that trigger a sync inline.
        max_batches: usize,
        /// Longest a waiting [`LogStore::ensure_durable`] defers the sync
        /// hoping for more batches to share it.
        max_delay: Duration,
    },
}

/// Configuration for a [`LogStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Rotate to a new segment once the current one exceeds this size.
    pub max_segment_bytes: u64,
    /// Reject payloads larger than this.
    pub max_record_bytes: usize,
    /// Durability policy.
    pub sync: SyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_segment_bytes: 64 * 1024 * 1024,
            max_record_bytes: 16 * 1024 * 1024,
            // Reply ⇒ durable: the deliver stage's `ensure_durable` holds
            // every reply until an fsync covers it.
            sync: SyncPolicy::GroupCommit {
                max_batches: 8,
                max_delay: Duration::from_millis(2),
            },
        }
    }
}

/// Where a resolved record lives.
enum Resolved {
    /// In a sealed segment (shared cached handle).
    Sealed(Arc<ColdSegment>),
    /// In the tail, at this offset of this handle.
    Tail(Arc<File>, u64),
}

/// The locator index. One lock guards the sealed list and the tail's
/// offsets so a reader's view of a rotation/retire transition is atomic.
struct Tiers {
    /// Oldest live sequence number (> 0 once the retention policy has
    /// deleted sealed segments).
    start: u64,
    /// Sealed segments, ascending and contiguous: they cover
    /// `[start, tail_base)`.
    sealed: Vec<Arc<ColdSegment>>,
    /// Sequence number of the first tail record.
    tail_base: u64,
    /// Offsets of the tail's records; `tail[i]` holds `tail_base + i`.
    tail: Vec<u64>,
    /// Positional-read handle on the tail file.
    tail_file: Arc<File>,
}

impl Tiers {
    fn len(&self) -> u64 {
        self.tail_base + self.tail.len() as u64
    }

    fn resolve(&self, id: u64) -> Result<Resolved, StorageError> {
        if let Some(rel) = id.checked_sub(self.tail_base) {
            return match self.tail.get(rel as usize) {
                Some(&offset) => Ok(Resolved::Tail(self.tail_file.clone(), offset)),
                None => Err(StorageError::RecordNotFound {
                    id,
                    len: self.len(),
                }),
            };
        }
        if id < self.start {
            return Err(StorageError::RecordRetired {
                id,
                oldest: self.start,
            });
        }
        let at = self.sealed.partition_point(|c| c.end_seq() <= id);
        match self.sealed.get(at) {
            Some(segment) if segment.contains(id) => Ok(Resolved::Sealed(segment.clone())),
            _ => Err(StorageError::CorruptRecord {
                id,
                what: "sealed segments do not cover a sequence they should",
            }),
        }
    }
}

/// Group-commit bookkeeping. Lock order: this mutex is innermost —
/// it is taken while holding the tail and/or tiers locks, and never the
/// other way around.
struct GroupState {
    /// Appends (batched or single) written to the OS but not yet covered by
    /// an fsync.
    pending_batches: u64,
    /// When the oldest pending append arrived; anchors `max_delay`.
    first_pending_at: Option<Instant>,
    /// Records `[0, durable_len)` are known to be on stable storage.
    durable_len: u64,
}

/// Counters describing the store's sync behaviour (sampled, monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// `sync_data` calls issued.
    pub fsyncs: u64,
    /// Appends whose durability rode a neighbouring batch's fsync instead
    /// of paying their own (each sync covering `k` pending appends counts
    /// `k - 1` here).
    pub fsyncs_coalesced: u64,
    /// `write(2)` calls that carried records: one per contiguous run of a
    /// batch's [`Frames`] that lands in one segment, so a batch costs its
    /// number of parts plus the rotations inside it. A seal's trailer
    /// write is not counted here ([`TierStats::segments_sealed`] counts
    /// seals).
    pub writes: u64,
}

/// Work done by [`LogStore::open`] to recover the index — the observable
/// measure of O(tail) restart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Sealed segments admitted by parsing their embedded locator block
    /// (no record scan).
    pub cold_segments: u64,
    /// `.wlog` files scanned record-by-record: the tail when one exists,
    /// plus any segment whose seal the open had to finish.
    pub scanned_segments: u64,
    /// Records read and CRC-verified during those scans.
    pub scanned_records: u64,
}

/// Segment counters (current sizes and monotonic totals since open).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Sealed segments currently live.
    pub cold_segments: u64,
    /// Unsealed segments currently live: always 1, the tail.
    pub hot_segments: u64,
    /// Segments sealed by rotation since open.
    pub segments_sealed: u64,
    /// Sealed segments deleted by [`LogStore::retire_up_to`] since open.
    pub segments_retired: u64,
    /// Records served from sealed segments since open.
    pub cold_reads: u64,
    /// Oldest sequence number still readable.
    pub oldest_live: u64,
}

/// A durable append-only record log.
///
/// Appends are serialized; reads are concurrent and lock the index only
/// briefly. Every read is a `pread` on a cached handle — the sealed
/// segment's, or the tail's — so readers never contend with the writer on
/// file position and never open a file.
pub struct LogStore {
    dir: PathBuf,
    config: StoreConfig,
    tiers: RwLock<Tiers>,
    /// Append side: the active segment writer.
    tail: Mutex<SegmentWriter>,
    /// Serializes structural maintenance: retire and truncate. Never taken
    /// on the append or read paths.
    maint: Mutex<()>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    fsyncs: AtomicU64,
    fsyncs_coalesced: AtomicU64,
    writes: AtomicU64,
    cold_reads: AtomicU64,
    sealed_total: AtomicU64,
    retired_total: AtomicU64,
    recovery: RecoveryStats,
}

impl LogStore {
    /// Opens (or creates) a store in `dir`, recovering any existing
    /// segments. A torn tail record (interrupted write) is truncated away
    /// and an interrupted seal is finished; genuine corruption — bad magic
    /// or a CRC mismatch on a fully present record — fails the open with
    /// [`StorageError::CorruptRecord`].
    ///
    /// Recovery cost is O(tail): sealed segments contribute one footer
    /// read each and only `.wlog` files are scanned record-by-record —
    /// the tail, or a segment whose seal was interrupted (a directory
    /// written before rotation sealed may hold several full `.wlog`s; each
    /// is scanned once and sealed in place).
    /// [`LogStore::recovery_stats`] reports the split.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<LogStore, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        remove_stray_files(&dir)?;
        let marker_start = load_gc_marker(&dir);

        let mut sealed_ids: Vec<SegmentId> = Vec::new();
        let mut wlog_ids: Vec<SegmentId> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let Ok(name) = entry?.file_name().into_string() else {
                continue;
            };
            if let Some(id) = name.strip_prefix("seg-") {
                if let Some(id) = id.strip_suffix(".wlog") {
                    if let Ok(id) = id.parse::<SegmentId>() {
                        wlog_ids.push(id);
                    }
                } else if let Some(id) = id.strip_suffix(".wcold") {
                    if let Ok(id) = id.parse::<SegmentId>() {
                        sealed_ids.push(id);
                    }
                }
            }
        }
        sealed_ids.sort_unstable();
        wlog_ids.sort_unstable();

        let mut recovery = RecoveryStats::default();
        let mut sealed: Vec<Arc<ColdSegment>> = Vec::new();
        for &id in &sealed_ids {
            sealed.push(Arc::new(ColdSegment::open(&dir, id)?));
        }
        // The copy-seal this lifecycle replaced renamed a complete, synced
        // `.wcold` into place before it unlinked the `.wlog`; a crash in
        // between left both, and the sealed one (it just opened) wins.
        wlog_ids.retain(|id| {
            let copied = sealed_ids.binary_search(id).is_ok();
            if copied {
                let _ = std::fs::remove_file(segment_path(&dir, *id));
            }
            !copied
        });
        if let (Some(last_sealed), Some(first_wlog)) = (sealed_ids.last(), wlog_ids.first()) {
            if last_sealed >= first_wlog {
                return Err(StorageError::CorruptRecord {
                    id: *last_sealed as u64,
                    what: "sealed segment found after an unsealed one",
                });
            }
        }
        // A crash between a retention pass's marker write and its unlinks
        // leaves sealed segments wholly below the marker: delete them now.
        let mut start = marker_start;
        while sealed.first().is_some_and(|c| c.end_seq() <= start) {
            let seg = sealed.remove(0);
            let _ = std::fs::remove_file(seg.path());
        }
        if let Some(first) = sealed.first() {
            start = first.first_seq();
        }
        let mut seq = start;
        for seg in &sealed {
            if seg.first_seq() != seq {
                return Err(StorageError::CorruptRecord {
                    id: seg.id() as u64,
                    what: "sealed segments are not sequence-contiguous",
                });
            }
            seq = seg.end_seq();
        }
        recovery.cold_segments = sealed.len() as u64;

        let mut tail: Option<(SegmentWriter, Vec<u64>)> = None;
        let mut healed = false;
        for (i, &id) in wlog_ids.iter().enumerate() {
            let scan = scan_segment(&dir, id)?;
            recovery.scanned_segments += 1;
            recovery.scanned_records += scan.records.len() as u64;
            let offsets: Vec<u64> = scan.records.iter().map(|&(offset, _)| offset).collect();
            let torn_seal = scan.has_trailing_bytes()
                && ends_in_torn_seal(&dir, id, seq, &offsets, scan.valid_len)?;
            let is_tail = i + 1 == wlog_ids.len() && !torn_seal;
            // A torn write at the tail is the expected crash artifact and is
            // truncated; corrupt bytes (bad magic / CRC mismatch with the
            // payload fully present) mean tampering or bit rot and fail the
            // open rather than silently shortening the log.
            if let (true, TailState::Corrupt { offset, what }) = (is_tail, scan.tail) {
                return Err(StorageError::CorruptRecord { id: offset, what });
            }
            // Full segments must be intact up to their (possibly torn)
            // trailer: dropping mid-log bytes would create a hole.
            if !is_tail && !torn_seal && scan.has_trailing_bytes() {
                return Err(StorageError::CorruptRecord {
                    id: id as u64,
                    what: "corruption in a full (non-tail) segment",
                });
            }
            let mut writer = SegmentWriter::open_at(&dir, id, scan.valid_len)?;
            if is_tail {
                tail = Some((writer, offsets));
            } else {
                let segment = seal_in_place(&dir, &mut writer, seq, offsets)?;
                seq = segment.end_seq();
                sealed.push(Arc::new(segment));
                healed = true;
            }
        }
        let (writer, tail_offsets) = match tail {
            Some(tail) => {
                if healed {
                    sync_dir(&dir)?;
                }
                tail
            }
            None => {
                let id = sealed.last().map(|c| c.id() + 1).unwrap_or(0);
                (SegmentWriter::create(&dir, id)?, Vec::new())
            }
        };
        let tiers = Tiers {
            start,
            sealed,
            tail_base: seq,
            tail: tail_offsets,
            tail_file: writer.reader(),
        };
        let durable_len = tiers.len();
        Ok(LogStore {
            dir,
            config,
            tiers: RwLock::new(tiers),
            tail: Mutex::new(writer),
            maint: Mutex::new(()),
            group: Mutex::new(GroupState {
                pending_batches: 0,
                first_pending_at: None,
                // Recovered records were read back from disk, so they are
                // durable by construction.
                durable_len,
            }),
            group_cv: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            fsyncs_coalesced: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            cold_reads: AtomicU64::new(0),
            sealed_total: AtomicU64::new(0),
            retired_total: AtomicU64::new(0),
            recovery,
        })
    }

    /// Fsyncs the tail, then publishes the new durable
    /// frontier. Caller holds the tail lock; lock order is tail → tiers →
    /// group.
    fn sync_tail(&self, tail: &mut SegmentWriter) -> Result<(), StorageError> {
        tail.sync()?;
        self.note_synced();
        Ok(())
    }

    /// Publishes the durable frontier after an fsync of the tail and wakes
    /// [`LogStore::ensure_durable`] waiters. Caller holds the tail lock.
    fn note_synced(&self) {
        let durable = self.tiers.read().len();
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let mut group = self.group.lock();
        self.fsyncs_coalesced
            .fetch_add(group.pending_batches.saturating_sub(1), Ordering::Relaxed);
        group.pending_batches = 0;
        group.first_pending_at = None;
        if durable > group.durable_len {
            group.durable_len = durable;
        }
        drop(group);
        self.group_cv.notify_all();
    }

    /// Group-commit accounting after an append made it into the index:
    /// counts the pending batch and performs the covering fsync inline once
    /// `max_batches` are waiting. Caller holds the tail lock.
    fn note_appended(&self, tail: &mut SegmentWriter) -> Result<(), StorageError> {
        let SyncPolicy::GroupCommit { max_batches, .. } = self.config.sync;
        let should_sync = {
            let mut group = self.group.lock();
            group.pending_batches += 1;
            if group.first_pending_at.is_none() {
                group.first_pending_at = Some(Instant::now());
            }
            group.pending_batches >= max_batches.max(1) as u64
        };
        if should_sync {
            self.sync_tail(tail)?;
        }
        Ok(())
    }

    /// Blocks until record `seq` is covered by an fsync.
    ///
    /// This is the reply-release gate: a caller may acknowledge `seq` only
    /// after this returns. The wait is bounded — if no neighbouring batch
    /// triggers the sync within `max_delay` of the oldest pending append,
    /// the caller performs it itself.
    pub fn ensure_durable(&self, seq: u64) -> Result<(), StorageError> {
        let SyncPolicy::GroupCommit { max_delay, .. } = self.config.sync;
        loop {
            let mut group = self.group.lock();
            if seq < group.durable_len {
                return Ok(());
            }
            // If nothing is pending there is no upcoming group sync to wait
            // for: fall through to the self-performed sync + recheck, which
            // either observes durability or proves the record absent.
            if let Some(first) = group.first_pending_at {
                let deadline = first + max_delay;
                let now = Instant::now();
                if now < deadline {
                    // Wait for a threshold-triggered sync to cover us (or
                    // for the delay budget to run out). Spurious wakeups
                    // only cause a re-check.
                    self.group_cv.wait_for(&mut group, deadline - now);
                    continue;
                }
            }
            drop(group);
            // Delay budget exhausted: perform the covering fsync ourselves.
            self.sync()?;
            let group = self.group.lock();
            if seq < group.durable_len {
                return Ok(());
            }
            // Even a fresh fsync did not cover `seq`: the record is not in
            // the store, and waiting longer cannot make it durable.
            return Err(StorageError::RecordNotFound {
                id: seq,
                len: group.durable_len,
            });
        }
    }

    /// Makes every record appended so far durable now, without waiting for
    /// neighbouring batches to share the fsync: syncs the tail if a group
    /// commit is pending.
    pub(crate) fn sync_pending(&self) -> Result<(), StorageError> {
        let mut tail = self.tail.lock();
        let pending = self.group.lock().pending_batches > 0;
        if pending {
            self.sync_tail(&mut tail)?;
        }
        Ok(())
    }

    /// Sync-behaviour counters (monotonic since open).
    pub fn sync_stats(&self) -> SyncStats {
        SyncStats {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            fsyncs_coalesced: self.fsyncs_coalesced.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Recovery work done by the open that produced this store.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Segment counters (current sizes and monotonic totals since open).
    pub fn tier_stats(&self) -> TierStats {
        let tiers = self.tiers.read();
        TierStats {
            cold_segments: tiers.sealed.len() as u64,
            hot_segments: 1,
            segments_sealed: self.sealed_total.load(Ordering::Relaxed),
            segments_retired: self.retired_total.load(Ordering::Relaxed),
            cold_reads: self.cold_reads.load(Ordering::Relaxed),
            oldest_live: tiers.start,
        }
    }

    /// Appends a record; returns its sequence number.
    pub fn append(&self, payload: &[u8]) -> Result<u64, StorageError> {
        self.append_batch(&[payload])
    }

    /// Appends several records as one batch. Returns the sequence number
    /// of the first record. Frames the payloads and hands them to
    /// [`LogStore::append_frames`], which says what a failure leaves.
    pub fn append_batch<D: AsRef<[u8]>>(&self, payloads: &[D]) -> Result<u64, StorageError> {
        self.append_frames(&[Frames::from_payloads(payloads)])
    }

    /// Appends already-framed records — `parts` in order, as one batch —
    /// writing each part with one `write(2)` per segment it lands in. No
    /// CRC is computed and no payload byte is copied: the bytes go to disk
    /// as the framer built them. Returns the sequence number of the first
    /// record.
    ///
    /// On an error the tail is cut back to its last indexed record, so the
    /// failed batch leaves neither an index entry nor a byte on disk and
    /// may be retried — except for the leading records that a rotation
    /// inside the batch had already sealed before the failure: those are
    /// durable and stay ([`LogStore::len`] counts them).
    pub fn append_frames(&self, parts: &[Frames]) -> Result<u64, StorageError> {
        if let Some(big) = parts
            .iter()
            .flat_map(Frames::framed_lens)
            .map(|framed| framed - HEADER_LEN)
            .find(|&size| size > self.config.max_record_bytes)
        {
            return Err(StorageError::RecordTooLarge {
                size: big,
                max: self.config.max_record_bytes,
            });
        }
        let mut tail = self.tail.lock();
        let first = self.tiers.read().len();
        // Offsets of the records written to the current tail, not yet indexed.
        let mut offsets = Vec::with_capacity(parts.iter().map(Frames::len).sum());
        if let Err(err) = self.write_batch(&mut tail, parts, &mut offsets) {
            // A sealed tail holds nothing unindexed; the next append only
            // has to create its successor.
            if !tail.is_sealed() {
                let indexed_end = offsets.first().copied().unwrap_or(tail.len());
                tail.rewind(indexed_end)?;
            }
            return Err(err);
        }
        self.tiers.write().tail.append(&mut offsets);
        self.note_appended(&mut tail)?;
        Ok(first)
    }

    /// The fallible part of [`LogStore::append_frames`]: writes the
    /// records, rotating where the tail is full. Each record's offset is
    /// pushed before its run is written; on an error the first pushed
    /// offset is where the tail's unindexed bytes begin.
    fn write_batch(
        &self,
        tail: &mut SegmentWriter,
        parts: &[Frames],
        offsets: &mut Vec<u64>,
    ) -> Result<(), StorageError> {
        for part in parts {
            // The bytes of `part` framed for the current tail but not yet
            // written; `run.end` advances one record at a time.
            let mut run = 0..0;
            for &framed in part.framed_lens() {
                // Rotate if the tail is full (never rotate an empty one — a
                // single oversized record may exceed max_segment_bytes), or
                // if an earlier rotation sealed it and could not create the
                // next.
                let fill = tail.len() + run.len() as u64;
                let full = fill + framed as u64 > self.config.max_segment_bytes && fill > 0;
                if full || tail.is_sealed() {
                    self.write_run(tail, part, run.clone())?;
                    self.rotate(tail, offsets)?;
                    run = run.end..run.end;
                }
                offsets.push(tail.len() + run.len() as u64);
                run.end += framed;
            }
            self.write_run(tail, part, run)?;
        }
        Ok(())
    }

    /// Writes the records of `part` in byte range `run` to the tail with
    /// one `write(2)`; an empty run costs nothing.
    fn write_run(
        &self,
        tail: &mut SegmentWriter,
        part: &Frames,
        run: Range<usize>,
    ) -> Result<(), StorageError> {
        if run.is_empty() {
            return Ok(());
        }
        let bytes = part
            .as_bytes()
            .get(run)
            .ok_or_else(|| std::io::Error::other("frame lengths overrun their bytes"))?;
        tail.write_frames(bytes)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Seals the full tail in place and starts the next one — steps 1–6 of
    /// the module-level lifecycle. Caller holds the tail lock; `pending`
    /// are the offsets of the records in the tail that are not indexed yet
    /// (the seal lists them, and indexes them once it has succeeded).
    ///
    /// Re-entrant: a failure before the rename leaves an unsealed tail (the
    /// caller rewinds the trailer), a failure after it leaves a sealed one,
    /// and the next call only creates the successor.
    fn rotate(&self, tail: &mut SegmentWriter, pending: &mut Vec<u64>) -> Result<(), StorageError> {
        if !tail.is_sealed() {
            let (first_seq, mut offsets) = {
                let tiers = self.tiers.read();
                (tiers.tail_base, tiers.tail.clone())
            };
            offsets.extend_from_slice(pending);
            let sealed = Arc::new(seal_in_place(&self.dir, tail, first_seq, offsets)?);
            pending.clear();
            let mut tiers = self.tiers.write();
            tiers.tail_base = sealed.end_seq();
            tiers.tail.clear();
            tiers.sealed.push(sealed);
            drop(tiers);
            self.note_synced();
            self.sealed_total.fetch_add(1, Ordering::Relaxed);
        }
        let next = SegmentWriter::create(&self.dir, tail.id() + 1)?;
        self.tiers.write().tail_file = next.reader();
        *tail = next;
        Ok(())
    }

    fn fetch(&self, id: u64, resolved: Resolved) -> Result<Vec<u8>, StorageError> {
        match resolved {
            Resolved::Sealed(segment) => {
                self.cold_reads.fetch_add(1, Ordering::Relaxed);
                segment.read(id)
            }
            Resolved::Tail(file, offset) => read_record_from(&file, offset, u64::MAX, id),
        }
    }

    /// Reads record `id`: two `pread`s on a cached handle and a CRC check.
    /// Never takes the tail lock: an indexed record was written to the
    /// file before the index listed it.
    pub fn read(&self, id: u64) -> Result<Vec<u8>, StorageError> {
        let resolved = self.tiers.read().resolve(id)?;
        self.fetch(id, resolved)
    }

    /// Reads records `[start, start + count)` in order.
    ///
    /// The locator lookup is batched: one index-lock acquisition for the
    /// whole range.
    pub fn read_range(&self, start: u64, count: u64) -> Result<Vec<Vec<u8>>, StorageError> {
        let end = start
            .checked_add(count)
            .ok_or(StorageError::RecordNotFound {
                id: u64::MAX,
                len: self.len(),
            })?;
        let resolved: Vec<Resolved> = {
            let tiers = self.tiers.read();
            (start..end)
                .map(|id| tiers.resolve(id))
                .collect::<Result<_, _>>()?
        };
        (start..end)
            .zip(resolved)
            .map(|(id, resolved)| self.fetch(id, resolved))
            .collect()
    }

    /// Number of records ever appended (retired records still count: the
    /// sequence space is dense and never reused).
    pub fn len(&self) -> u64 {
        self.tiers.read().len()
    }

    /// Oldest sequence number still readable (> 0 once the retention policy
    /// has deleted sealed segments).
    pub fn oldest(&self) -> u64 {
        self.tiers.read().start
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forces the tail to stable storage.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.sync_tail(&mut self.tail.lock())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live segments (sealed ones plus the tail). Counts actual
    /// on-disk segments, so it stays truthful across rotation, retention,
    /// and tail truncation.
    pub fn segment_count(&self) -> u32 {
        self.tiers.read().sealed.len() as u32 + 1
    }

    /// Id of the segment currently being appended to.
    pub fn tail_segment_id(&self) -> SegmentId {
        self.tail.lock().id()
    }

    /// Iterates over all live records in sequence order, starting at
    /// [`LogStore::oldest`]. Records are fetched in small chunks through
    /// the batched [`LogStore::read_range`] path (no large resident
    /// buffers); errors surface per record.
    pub fn iter(&self) -> impl Iterator<Item = Result<Vec<u8>, StorageError>> + '_ {
        const CHUNK: u64 = 16;
        let end = self.len();
        let mut next = self.oldest();
        let mut buffered: std::collections::VecDeque<Result<Vec<u8>, StorageError>> =
            std::collections::VecDeque::new();
        std::iter::from_fn(move || {
            if buffered.is_empty() {
                if next >= end {
                    return None;
                }
                let n = (end - next).min(CHUNK);
                match self.read_range(next, n) {
                    Ok(records) => buffered.extend(records.into_iter().map(Ok)),
                    // Keep the per-record error granularity of the old
                    // one-read-per-item iterator.
                    Err(_) => buffered.extend((next..next + n).map(|id| self.read(id))),
                }
                next += n;
            }
            buffered.pop_front()
        })
    }

    /// Deletes whole sealed segments whose records all lie below `upto` (the
    /// retention frontier, exclusive) — the punishment-window GC. Returns
    /// the number of segments deleted. Subsequent reads below the new
    /// [`LogStore::oldest`] fail with [`StorageError::RecordRetired`].
    pub fn retire_up_to(&self, upto: u64) -> Result<u32, StorageError> {
        let _maint = self.maint.lock();
        let removable: Vec<Arc<ColdSegment>> = {
            let tiers = self.tiers.read();
            tiers
                .sealed
                .iter()
                .take_while(|c| c.end_seq() <= upto)
                .cloned()
                .collect()
        };
        let Some(last) = removable.last() else {
            return Ok(0);
        };
        let new_start = last.end_seq();
        // Marker first: a crash after this point leaves files the next open
        // recognises as retired and deletes.
        write_gc_marker(&self.dir, new_start)?;
        {
            let mut tiers = self.tiers.write();
            tiers.sealed.drain(..removable.len());
            tiers.start = new_start;
        }
        // In-flight readers holding the Arc keep the unlinked data readable
        // through the cached handle; new resolves report RecordRetired.
        for segment in &removable {
            let _ = std::fs::remove_file(segment.path());
        }
        sync_dir(&self.dir)?;
        self.retired_total
            .fetch_add(removable.len() as u64, Ordering::Relaxed);
        Ok(removable.len() as u32)
    }

    /// Simulates the paper's extreme omission attack for tests: removes the
    /// newest `count` records from the index *and* truncates them from disk
    /// — across segment boundaries (later sealed segments are deleted; a
    /// partially-kept one is unsealed back into the tail by renaming it and
    /// cutting off the trailer and the dropped records). Returns the new
    /// length.
    ///
    /// Truncating into the retired region (below [`LogStore::oldest`])
    /// fails with [`StorageError::RecordRetired`]: deleted data cannot be
    /// resurrected.
    pub fn truncate_tail(&self, count: u64) -> Result<u64, StorageError> {
        let _maint = self.maint.lock();
        let mut tail = self.tail.lock();
        let mut tiers = self.tiers.write();
        let len = tiers.len();
        let new_len = len.saturating_sub(count);
        if new_len < tiers.start {
            return Err(StorageError::RecordRetired {
                id: new_len,
                oldest: tiers.start,
            });
        }
        if new_len == len {
            return Ok(new_len);
        }
        let lost = |what| StorageError::CorruptRecord { id: new_len, what };
        let (id, cut) = match new_len.checked_sub(tiers.tail_base) {
            // Boundary within the tail.
            Some(keep) => {
                let keep = keep as usize;
                let cut = tiers.tail.get(keep).copied();
                tiers.tail.truncate(keep);
                (tail.id(), cut)
            }
            // Boundary within a sealed segment: the tail and every later
            // sealed segment go, and the boundary segment becomes the tail.
            None => {
                let keep_full = tiers.sealed.partition_point(|c| c.end_seq() <= new_len);
                let doomed: Vec<Arc<ColdSegment>> = tiers.sealed.drain(keep_full..).collect();
                let boundary = doomed
                    .first()
                    .ok_or_else(|| lost("truncation boundary outside every segment"))?;
                let _ = std::fs::remove_file(segment_path(&self.dir, tail.id()));
                for segment in doomed.iter().skip(1) {
                    let _ = std::fs::remove_file(segment.path());
                }
                std::fs::rename(boundary.path(), segment_path(&self.dir, boundary.id()))?;
                let keep = (new_len - boundary.first_seq()) as usize;
                tiers.tail_base = boundary.first_seq();
                tiers.tail = boundary.offsets().iter().take(keep).copied().collect();
                (boundary.id(), boundary.offset_of(new_len))
            }
        };
        let cut = cut.ok_or_else(|| lost("truncation boundary missing from the index"))?;
        *tail = SegmentWriter::open_at(&self.dir, id, cut)?;
        tiers.tail_file = tail.reader();
        sync_dir(&self.dir)?;
        // The durable frontier cannot exceed the truncated length.
        let mut group = self.group.lock();
        if group.durable_len > new_len {
            group.durable_len = new_len;
        }
        Ok(new_len)
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> crate::ScratchDir {
        crate::ScratchDir::new(&format!("store-{tag}"))
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = tempdir("rt");
        let store = LogStore::open(&dir, StoreConfig::default()).unwrap();
        let a = store.append(b"alpha").unwrap();
        let b = store.append(b"beta").unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.read(0).unwrap(), b"alpha");
        assert_eq!(store.read(1).unwrap(), b"beta");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn missing_record_is_error() {
        let dir = tempdir("miss");
        let store = LogStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(matches!(
            store.read(0),
            Err(StorageError::RecordNotFound { id: 0, len: 0 })
        ));
    }

    #[test]
    fn oversized_record_rejected() {
        let config = StoreConfig {
            max_record_bytes: 8,
            ..Default::default()
        };
        let dir = tempdir("big");
        let store = LogStore::open(&dir, config).unwrap();
        assert!(matches!(
            store.append(b"123456789"),
            Err(StorageError::RecordTooLarge { size: 9, max: 8 })
        ));
    }

    #[test]
    fn rotation_spreads_segments() {
        let config = StoreConfig {
            max_segment_bytes: 64,
            ..Default::default()
        };
        let dir = tempdir("rot");
        let store = LogStore::open(&dir, config).unwrap();
        for i in 0..20u32 {
            store
                .append(format!("record-number-{i:04}").as_bytes())
                .unwrap();
        }
        assert!(store.segment_count() > 1, "expected rotation");
        for i in 0..20u32 {
            assert_eq!(
                store.read(i as u64).unwrap(),
                format!("record-number-{i:04}").as_bytes()
            );
        }
    }

    #[test]
    fn batch_append_is_dense_and_ordered() {
        let dir = tempdir("batch");
        let store = LogStore::open(&dir, StoreConfig::default()).unwrap();
        store.append(b"pre").unwrap();
        let first = store
            .append_batch(&[b"b0".as_slice(), b"b1", b"b2"])
            .unwrap();
        assert_eq!(first, 1);
        assert_eq!(store.read(2).unwrap(), b"b1");
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn framed_parts_are_written_as_is_one_write_each() {
        let dir = tempdir("frames");
        let store = LogStore::open(&dir, StoreConfig::default()).unwrap();
        let payloads: Vec<Vec<u8>> = (0..2_000u32)
            .map(|i| format!("framed-{i}").into_bytes())
            .collect();
        let parts: Vec<Frames> = payloads.chunks(700).map(Frames::from_payloads).collect();
        let computed = || crate::crc32::COMPUTED.with(std::cell::Cell::get);
        let before = computed();
        assert_eq!(store.append_frames(&parts).unwrap(), 0);
        store.ensure_durable(1_999).unwrap();
        assert_eq!(computed(), before, "the write path computes no CRC");
        assert_eq!(store.sync_stats().writes, parts.len() as u64);
        assert_eq!(store.read_range(0, 2_000).unwrap(), payloads);
        // An empty part costs no write.
        store.append_frames(&[Frames::default()]).unwrap();
        assert_eq!(store.sync_stats().writes, parts.len() as u64);
    }

    #[test]
    fn an_oversized_record_in_any_part_fails_the_whole_batch() {
        let config = StoreConfig {
            max_record_bytes: 8,
            ..Default::default()
        };
        let dir = tempdir("frames-big");
        let store = LogStore::open(&dir, config).unwrap();
        let parts = [
            Frames::from_payloads(&[b"fits"]),
            Frames::from_payloads(&[b"123456789"]),
        ];
        assert!(matches!(
            store.append_frames(&parts),
            Err(StorageError::RecordTooLarge { size: 9, max: 8 })
        ));
        assert_eq!((store.len(), store.sync_stats().writes), (0, 0));
    }

    #[test]
    fn recovery_restores_index() {
        let dir = tempdir("rec");
        let config = StoreConfig {
            max_segment_bytes: 128,
            ..Default::default()
        };
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            for i in 0..30u32 {
                store.append(format!("persisted-{i}").as_bytes()).unwrap();
            }
            store.sync().unwrap();
        }
        let store = LogStore::open(&dir, config).unwrap();
        assert_eq!(store.len(), 30);
        for i in 0..30u32 {
            assert_eq!(
                store.read(i as u64).unwrap(),
                format!("persisted-{i}").as_bytes()
            );
        }
        // And appends continue from the recovered tail.
        assert_eq!(store.append(b"after-recovery").unwrap(), 30);
    }

    #[test]
    fn recovery_truncates_torn_tail() {
        let dir = tempdir("torn");
        let config = StoreConfig::default();
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            store.append(b"complete-1").unwrap();
            store.append(b"complete-2").unwrap();
            store.append(b"torn-record").unwrap();
            store.sync().unwrap();
        }
        // Tear the last record.
        let seg = segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let store = LogStore::open(&dir, config).unwrap();
        assert_eq!(store.len(), 2, "torn record dropped");
        // The torn slot is reused by the next append.
        assert_eq!(store.append(b"rewritten").unwrap(), 2);
        assert_eq!(store.read(2).unwrap(), b"rewritten");
    }

    #[test]
    fn garbage_tail_fails_open() {
        // Regression: garbage appended to a segment (full header's worth of
        // bytes with a bad magic) must fail recovery with `CorruptRecord`,
        // not be dropped like a torn write.
        let dir = tempdir("garbage");
        let config = StoreConfig::default();
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            store.append(b"intact-1").unwrap();
            store.append(b"intact-2").unwrap();
            store.sync().unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut data = std::fs::read(&seg).unwrap();
        data.extend_from_slice(&[
            0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
        ]);
        std::fs::write(&seg, &data).unwrap();
        assert!(matches!(
            LogStore::open(&dir, config),
            Err(StorageError::CorruptRecord {
                what: "bad magic",
                ..
            })
        ));
    }

    #[test]
    fn crc_mismatched_tail_fails_open() {
        // Regression: a fully present tail record whose CRC does not match
        // is corruption, not a torn write — recovery must refuse it.
        let dir = tempdir("crcmm");
        let config = StoreConfig::default();
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            store.append(b"intact").unwrap();
            store.append(b"to-be-flipped").unwrap();
            store.sync().unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut data = std::fs::read(&seg).unwrap();
        let tail_offset = (HEADER_LEN + b"intact".len()) as u64;
        // Flip a byte inside the second record's payload.
        let idx = tail_offset as usize + HEADER_LEN;
        data[idx] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();
        match LogStore::open(&dir, config) {
            Err(StorageError::CorruptRecord { id, what }) => {
                assert_eq!(id, tail_offset);
                assert_eq!(what, "checksum mismatch");
            }
            other => panic!("expected CorruptRecord, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn a_tail_read_takes_no_lock() {
        // Appends reach the file before the index lists them, so no read
        // flushes and none waits for the writer.
        let dir = tempdir("nolock-gc");
        let store = LogStore::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..8u32 {
            store.append(format!("r{i}").as_bytes()).unwrap();
        }
        let records = read_with_the_tail_locked(&store, |store| {
            let mut records = vec![store.read(3).unwrap()];
            records.extend(store.read_range(0, 8).unwrap());
            records
        });
        assert_eq!(records[0], b"r3");
        assert_eq!(records[8], b"r7");
    }

    /// Runs `reads` on another thread while this one holds the tail lock,
    /// and fails instead of hanging should a read wait for that lock.
    pub(super) fn read_with_the_tail_locked<T: Send>(
        store: &LogStore,
        reads: impl FnOnce(&LogStore) -> T + Send,
    ) -> T {
        let held = store.tail.lock();
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(move || tx.send(reads(store)));
            let out = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a read waited for the tail lock");
            drop(held);
            out
        })
    }

    #[test]
    fn group_commit_threshold_coalesces_fsyncs() {
        let config = StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 3,
                max_delay: Duration::from_secs(5),
            },
            ..Default::default()
        };
        let dir = tempdir("gc-thresh");
        let store = LogStore::open(&dir, config).unwrap();
        store.append_batch(&[b"a0".as_slice(), b"a1"]).unwrap();
        store.append_batch(&[b"b0".as_slice()]).unwrap();
        // Two pending appends: nothing synced yet.
        assert_eq!(store.sync_stats().fsyncs, 0);
        // Third append crosses max_batches and performs one covering fsync.
        store.append_batch(&[b"c0".as_slice(), b"c1"]).unwrap();
        let stats = store.sync_stats();
        assert_eq!(stats.fsyncs, 1);
        assert_eq!(stats.fsyncs_coalesced, 2, "two appends rode the sync");
        // Everything indexed so far is durable: ensure_durable is instant.
        store.ensure_durable(4).unwrap();
        assert_eq!(store.sync_stats().fsyncs, 1, "no extra fsync needed");
    }

    #[test]
    fn group_commit_max_delay_bounds_the_wait() {
        let config = StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 64,
                max_delay: Duration::from_millis(20),
            },
            ..Default::default()
        };
        let dir = tempdir("gc-delay");
        let store = LogStore::open(&dir, config).unwrap();
        store.append_batch(&[b"only".as_slice()]).unwrap();
        let start = Instant::now();
        store.ensure_durable(0).unwrap();
        let waited = start.elapsed();
        assert!(store.sync_stats().fsyncs >= 1, "caller performed the sync");
        assert!(
            waited < Duration::from_secs(2),
            "wait must be bounded by max_delay, took {waited:?}"
        );
        // A sequence that does not exist can never become durable.
        assert!(matches!(
            store.ensure_durable(99),
            Err(StorageError::RecordNotFound { id: 99, .. })
        ));
    }

    #[test]
    fn truncate_tail_removes_records() {
        let dir = tempdir("trunc");
        let config = StoreConfig::default();
        let store = LogStore::open(&dir, config.clone()).unwrap();
        for i in 0..10u32 {
            store.append(format!("e{i}").as_bytes()).unwrap();
        }
        assert_eq!(store.truncate_tail(4).unwrap(), 6);
        assert_eq!(store.len(), 6);
        assert!(store.read(6).is_err());
        assert_eq!(store.read(5).unwrap(), b"e5");
        // Truncation is durable across recovery.
        drop(store);
        let store = LogStore::open(&dir, config).unwrap();
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn concurrent_reads_while_appending() {
        let dir = tempdir("conc");
        let store = std::sync::Arc::new(LogStore::open(&dir, StoreConfig::default()).unwrap());
        for i in 0..100u32 {
            store.append(format!("seed-{i}").as_bytes()).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let data = store.read(i).unwrap();
                    assert_eq!(data, format!("seed-{i}").as_bytes(), "thread {t}");
                }
            }));
        }
        for i in 100..200u32 {
            store.append(format!("seed-{i}").as_bytes()).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 200);
    }
}

#[cfg(test)]
mod iter_tests {
    use super::*;

    #[test]
    fn iterator_yields_all_records_in_order() {
        let dir = crate::ScratchDir::new("store-iter");
        let store = LogStore::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..25u32 {
            store.append(format!("it-{i}").as_bytes()).unwrap();
        }
        let collected: Vec<Vec<u8>> = store.iter().map(|r| r.unwrap()).collect();
        assert_eq!(collected.len(), 25);
        for (i, record) in collected.iter().enumerate() {
            assert_eq!(record, format!("it-{i}").as_bytes());
        }
        // Empty store yields nothing.
        let empty_dir = dir.join("empty");
        let empty = LogStore::open(&empty_dir, StoreConfig::default()).unwrap();
        assert_eq!(empty.iter().count(), 0);
    }
}

#[cfg(test)]
mod tier_tests {
    use super::*;
    use crate::cold::cold_path;

    fn tempdir(tag: &str) -> crate::ScratchDir {
        crate::ScratchDir::new(&format!("tier-{tag}"))
    }

    fn small_seg_config() -> StoreConfig {
        StoreConfig {
            max_segment_bytes: 96,
            ..Default::default()
        }
    }

    fn fill(store: &LogStore, n: u32) {
        for i in 0..n {
            store
                .append(format!("tier-record-{i:05}").as_bytes())
                .unwrap();
        }
        store.sync().unwrap();
    }

    fn assert_reads_back(store: &LogStore, range: std::ops::Range<u64>) {
        for i in range {
            assert_eq!(
                store.read(i).unwrap(),
                format!("tier-record-{i:05}").as_bytes()
            );
        }
    }

    fn files_with_suffix(dir: &Path, suffix: &str) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_str().unwrap().ends_with(suffix)
            })
            .count()
    }

    /// Rewrites sealed segment `id` as a store from before rotation sealed
    /// left a full segment: a bare `.wlog` with no trailer.
    fn unseal_by_hand(dir: &Path, id: SegmentId) {
        let data_len = ColdSegment::open(dir, id).unwrap().data_len() as usize;
        let bytes = std::fs::read(cold_path(dir, id)).unwrap();
        std::fs::write(segment_path(dir, id), &bytes[..data_len]).unwrap();
        std::fs::remove_file(cold_path(dir, id)).unwrap();
    }

    #[test]
    fn rotation_seals_segments_in_place() {
        let dir = tempdir("seal");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        let sealed = store.segment_count() - 1;
        assert!(sealed >= 2, "need several segments, got {sealed}");
        let stats = store.tier_stats();
        assert_eq!(stats.segments_sealed, sealed as u64);
        assert_eq!(stats.cold_segments, sealed as u64);
        assert_eq!(stats.hot_segments, 1);
        assert_eq!(store.tail_segment_id(), sealed);
        // Every record still reads back, sealed and tail alike.
        assert_reads_back(&store, 0..30);
        assert!(store.tier_stats().cold_reads > 0);
        // A store is sealed segments plus exactly one tail, and nothing else.
        for seg in 0..sealed {
            assert!(!segment_path(&dir, seg).exists(), "wlog {seg} remains");
            assert!(cold_path(&dir, seg).exists(), "wcold {seg} missing");
        }
        assert_eq!(files_with_suffix(&dir, ".wlog"), 1);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            sealed as usize + 1
        );
        // Appends continue normally after sealing.
        let next = store.append(b"after-seal").unwrap();
        assert_eq!(store.read(next).unwrap(), b"after-seal");
    }

    #[test]
    fn a_batch_spanning_a_rotation_is_sealed_whole() {
        let dir = tempdir("batch-rot");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        let payloads: Vec<Vec<u8>> = (0..10u32)
            .map(|i| format!("tier-record-{i:05}").into_bytes())
            .collect();
        assert_eq!(store.append_batch(&payloads).unwrap(), 0);
        assert!(store.tier_stats().segments_sealed >= 2);
        assert_reads_back(&store, 0..10);
        drop(store);
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert_eq!(store.len(), 10);
        assert_reads_back(&store, 0..10);
    }

    #[test]
    fn sealed_store_reopens_scanning_only_the_tail() {
        let dir = tempdir("reopen");
        {
            let store = LogStore::open(&dir, small_seg_config()).unwrap();
            fill(&store, 30);
        }
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        let rec = store.recovery_stats();
        assert!(rec.cold_segments >= 2, "sealed segments admitted: {rec:?}");
        assert_eq!(rec.scanned_segments, 1, "only the tail scans: {rec:?}");
        assert!(
            rec.scanned_records < 30,
            "sealed records were rescanned: {rec:?}"
        );
        assert_eq!(store.len(), 30);
        assert_reads_back(&store, 0..30);
        assert_eq!(store.append(b"post-reopen").unwrap(), 30);
    }

    #[test]
    fn full_wlogs_from_before_rotation_sealed_are_sealed_on_open() {
        let dir = tempdir("pre-seal-layout");
        let sealed = {
            let store = LogStore::open(&dir, small_seg_config()).unwrap();
            fill(&store, 30);
            store.segment_count() - 1
        };
        for id in 0..sealed {
            unseal_by_hand(&dir, id);
        }
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        let rec = store.recovery_stats();
        assert_eq!(rec.scanned_segments, sealed as u64 + 1, "{rec:?}");
        assert_eq!(rec.scanned_records, 30);
        assert_eq!(store.tier_stats().cold_segments, sealed as u64);
        assert_eq!(files_with_suffix(&dir, ".wlog"), 1);
        assert_reads_back(&store, 0..30);
        assert_eq!(store.append(b"post-heal").unwrap(), 30);
        // The heal is done once: the next open scans only the tail.
        drop(store);
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert_eq!(store.recovery_stats().scanned_segments, 1);
        assert_eq!(store.len(), 31);
    }

    #[test]
    fn corruption_in_a_full_wlog_fails_open() {
        let dir = tempdir("pre-seal-corrupt");
        {
            let store = LogStore::open(&dir, small_seg_config()).unwrap();
            fill(&store, 10);
            assert!(store.segment_count() > 1);
        }
        unseal_by_hand(&dir, 0);
        // Corrupt a byte in the middle of segment 0.
        let seg = segment_path(&dir, 0);
        let mut data = std::fs::read(&seg).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();
        assert!(matches!(
            LogStore::open(&dir, small_seg_config()),
            Err(StorageError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn no_read_takes_the_tail_lock() {
        let dir = tempdir("nolock");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        assert!(store.tail_segment_id() > 0);
        // Record 0 lives in segment 0, long rotated away; record 29 in the
        // tail; the range spans both.
        let (sealed, tail, range) = super::tests::read_with_the_tail_locked(&store, |store| {
            (
                store.read(0).unwrap(),
                store.read(29).unwrap(),
                store.read_range(0, 30).unwrap(),
            )
        });
        assert_eq!(sealed, b"tier-record-00000");
        assert_eq!(tail, b"tier-record-00029");
        assert_eq!(range.len(), 30);
        assert!(store.tier_stats().cold_reads > 0);
        // Wrong ranges still error.
        assert!(store.read_range(25, 10).is_err());
        assert!(store.read_range(0, 0).unwrap().is_empty());
    }

    #[test]
    fn retire_deletes_sealed_segments() {
        let dir = tempdir("retire");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        let cold_before = store.tier_stats().cold_segments;
        assert!(cold_before >= 3);
        let retired = store.retire_up_to(10).unwrap();
        assert!(retired >= 1, "retired {retired}");
        let stats = store.tier_stats();
        assert_eq!(stats.segments_retired, retired as u64);
        assert_eq!(stats.cold_segments, cold_before - retired as u64);
        let oldest = store.oldest();
        assert!(oldest > 0 && oldest <= 10);
        // Reads below the retention frontier fail with RecordRetired...
        assert!(matches!(
            store.read(0),
            Err(StorageError::RecordRetired { id: 0, oldest: o }) if o == oldest
        ));
        // ...and reads at/above it still work.
        assert_reads_back(&store, oldest..oldest + 1);
        // len() keeps counting retired records: sequence space is dense.
        assert_eq!(store.len(), 30);
        // Retirement survives reopen (gc.wmark).
        drop(store);
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert_eq!(store.oldest(), oldest);
        assert_eq!(store.len(), 30);
        assert!(matches!(
            store.read(0),
            Err(StorageError::RecordRetired { .. })
        ));
        assert_eq!(store.append(b"post-retire").unwrap(), 30);
        // iter starts at the oldest live record.
        assert_eq!(store.iter().count() as u64, 31 - oldest);
    }

    #[test]
    fn truncate_across_sealed_boundary_partial_segment() {
        // Satellite regression: truncation that lands inside a sealed
        // segment unseals the kept prefix and keeps segment_count truthful.
        let dir = tempdir("trunc-cold");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        assert!(store.tier_stats().cold_segments >= 2);
        // Truncate down to 5 records: well inside the sealed segments.
        assert_eq!(store.truncate_tail(25).unwrap(), 5);
        assert_eq!(store.len(), 5);
        assert_reads_back(&store, 0..5);
        assert!(store.read(5).is_err());
        // segment_count agrees with the files actually on disk.
        let on_disk = files_with_suffix(&dir, ".wlog") + files_with_suffix(&dir, ".wcold");
        assert_eq!(files_with_suffix(&dir, ".wlog"), 1);
        assert_eq!(store.segment_count() as usize, on_disk);
        // Appends continue at the truncated position...
        assert_eq!(store.append(b"regrown").unwrap(), 5);
        assert_eq!(store.read(5).unwrap(), b"regrown");
        // ...and everything survives a reopen.
        drop(store);
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert_eq!(store.len(), 6);
        assert_eq!(store.read(5).unwrap(), b"regrown");
        assert_reads_back(&store, 0..5);
    }

    #[test]
    fn truncate_to_exact_sealed_edge() {
        let dir = tempdir("trunc-edge");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        // Land exactly on the edge of sealed segment 0: keep all of it.
        let new_len = ColdSegment::open(&dir, 0).unwrap().record_count();
        store.truncate_tail(30 - new_len).unwrap();
        assert_eq!(store.len(), new_len);
        assert_eq!(store.segment_count(), 2);
        assert_reads_back(&store, 0..new_len);
        assert_eq!(store.append(b"edge-append").unwrap(), new_len);
        drop(store);
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert_eq!(store.len(), new_len + 1);
        assert_eq!(store.read(new_len).unwrap(), b"edge-append");
    }

    #[test]
    fn truncate_into_retired_region_is_refused() {
        let dir = tempdir("trunc-retired");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        store.retire_up_to(10).unwrap();
        let oldest = store.oldest();
        assert!(oldest > 0);
        // Truncating everything would reach below the retired frontier.
        assert!(matches!(
            store.truncate_tail(30),
            Err(StorageError::RecordRetired { .. })
        ));
        // Truncating within the live region still works.
        let live = store.len() - oldest;
        assert_eq!(store.truncate_tail(live).unwrap(), oldest);
    }

    #[test]
    fn concurrent_reads_while_rotating_and_retiring() {
        let dir = tempdir("conc-seal");
        let store = std::sync::Arc::new(LogStore::open(&dir, small_seg_config()).unwrap());
        fill(&store, 100);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..5 {
                    // Includes the tail as it is at spawn time: it is sealed
                    // (renamed) underneath these reads.
                    for i in 0..100u64 {
                        match store.read(i) {
                            Ok(data) => {
                                assert_eq!(
                                    data,
                                    format!("tier-record-{i:05}").as_bytes(),
                                    "round {round}"
                                );
                            }
                            // Retirement may outrun us; that error is the
                            // only acceptable one.
                            Err(StorageError::RecordRetired { .. }) => {}
                            Err(e) => panic!("read {i} failed: {e}"),
                        }
                    }
                }
            }));
        }
        for i in 100..200u32 {
            store
                .append(format!("tier-record-{i:05}").as_bytes())
                .unwrap();
        }
        store.retire_up_to(40).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let stats = store.tier_stats();
        assert!(stats.segments_sealed > 0);
        assert!(stats.segments_retired > 0);
        assert_reads_back(&store, store.oldest()..200);
    }

    #[test]
    fn iter_spans_sealed_segments_and_the_tail() {
        let dir = tempdir("iter-tiers");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        let collected: Vec<Vec<u8>> = store.iter().map(|r| r.unwrap()).collect();
        assert_eq!(collected.len(), 30);
        for (i, record) in collected.iter().enumerate() {
            assert_eq!(record, format!("tier-record-{i:05}").as_bytes());
        }
    }
}
