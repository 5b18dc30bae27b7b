//! Durable checkpoints of the node's two-plane state, the other half of the
//! O(tail) restart story (the store's locator sidecar being the first).
//!
//! A checkpoint captures everything [`super::state::replay_tail`] would
//! otherwise have to re-derive from the log: per-batch metadata (log id,
//! record range, Merkle root *and leaf hashes* — the tree is rebuilt from
//! the hashes without touching a single record), the `(publisher, sequence)`
//! index, and the stage-2 commit index. On restart the node restores the
//! newest valid checkpoint and replays only records past its cursor.
//!
//! # Format (`checkpoint-<cursor>.wckp`)
//!
//! One [`wedge_chain::Encoder`] stream followed by a CRC32:
//!
//! ```text
//! u64 magic+version         0x5743_4B50_0000_0001 ("WCKP", v1)
//! u64 cursor                store records below this are captured
//! u64 entry_count
//! u64 batch_count
//!   per batch: u64 log_id | u64 first_record | u64 count
//!              | bytes root (32) | u64 leaf_count | bytes leaf hashes
//! u64 seq_count
//!   per entry: bytes publisher (20) | u64 sequence | u64 log_id | u64 offset
//!              (index level by level, oldest first; a later entry for the
//!              same key wins)
//! u64 commit_count
//!   per commit: u64 log_id | bytes tx_hash (32) | u64 block | u64 latency_ns
//! u32 crc32 (big-endian, over everything above)
//! ```
//!
//! Commits are exactly positions `0..commit_count` in order (the committed
//! prefix). Files are written atomically (temp + rename + directory fsync);
//! the two newest are kept so one torn or corrupt file never strands the
//! node. Any validation failure — CRC, magic, root mismatch against the
//! rebuilt tree, state the batches do not back, cursor outside the store's
//! live range — makes [`restore`] fall back to the next-older file, and
//! ultimately to a full replay.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{Decoder, Encoder};
use wedge_crypto::hash::Hash32;
use wedge_crypto::keys::Address;
use wedge_merkle::MerkleTree;
use wedge_sim::SimInstant;
use wedge_storage::{crc32, write_atomic, LogStore, StorageError};

use super::snapshot::Snapshot;
use super::state::{BatchMeta, CommitInfo};
use crate::error::CoreError;
use crate::types::EntryId;

/// "WCKP" + format version 1.
const MAGIC: u64 = 0x5743_4B50_0000_0001;

/// Checkpoint files kept on disk (newest first). Two, so one corrupt or
/// torn write never strands the node — and the *older* kept cursor is the
/// retention floor ([`floor`]).
const KEEP: usize = 2;

/// A checkpoint restored from disk.
pub(crate) struct Restored {
    /// The reconstructed write plane (batches, seq index, commits).
    pub plane: Snapshot,
    /// First store record *not* covered: replay starts here.
    pub cursor: u64,
}

fn checkpoint_name(cursor: u64) -> String {
    format!("checkpoint-{cursor:020}.wckp")
}

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Storage(StorageError::from(e))
}

/// Existing checkpoint files as `(cursor, path)`, ascending by cursor.
fn list(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found = Vec::new();
    for entry in entries.flatten() {
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if let Some(cursor) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".wckp"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.push((cursor, entry.path()));
        }
    }
    found.sort_unstable_by_key(|(cursor, _)| *cursor);
    found
}

/// The record cursor every kept checkpoint can restore from — the oldest
/// kept file's cursor (0 when none exist). Retention must never delete
/// records at or above any kept cursor, or a restart could find its best
/// checkpoint pointing into retired territory.
pub(crate) fn floor(dir: &Path) -> u64 {
    list(dir).first().map(|(cursor, _)| *cursor).unwrap_or(0)
}

/// Serializes a snapshot; returns `(cursor, bytes)`.
fn encode(snap: &Snapshot) -> (u64, Vec<u8>) {
    let cursor = snap
        .batches
        .last()
        .map(|b| b.first_record + b.count as u64)
        .unwrap_or(0);
    let mut enc = Encoder::new();
    enc.u64(MAGIC).u64(cursor).u64(snap.entry_count);
    enc.u64(snap.batches.len() as u64);
    for batch in snap.batches.iter_from(0) {
        enc.u64(batch.log_id)
            .u64(batch.first_record)
            .u64(batch.count as u64)
            .bytes(batch.tree.root().as_bytes());
        let leaf_count = batch.tree.leaf_count();
        let mut hashes = Vec::with_capacity(leaf_count * 32);
        for i in 0..leaf_count {
            if let Some(hash) = batch.tree.leaf_hash(i) {
                hashes.extend_from_slice(hash.as_bytes());
            }
        }
        enc.u64(leaf_count as u64).bytes(&hashes);
    }
    // Level by level, oldest first: `decode` inserts in file order, so a
    // key a newer level re-inserted restores to the newer locator.
    enc.u64(snap.seq.levels().map(HashMap::len).sum::<usize>() as u64);
    for ((publisher, sequence), id) in snap.seq.levels().flatten() {
        enc.bytes(&publisher.0)
            .u64(*sequence)
            .u64(id.log_id)
            .u64(id.offset as u64);
    }
    enc.u64(snap.frontier());
    for (log_id, info) in (0u64..).zip(snap.commits.iter_from(0)) {
        let latency = info.stage2_latency.as_nanos().min(u64::MAX as u128) as u64;
        enc.u64(log_id)
            .bytes(info.tx_hash.as_bytes())
            .u64(info.block_number)
            .u64(latency);
    }
    let mut body = enc.finish();
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_be_bytes());
    (cursor, body)
}

/// Parses and validates checkpoint bytes. `None` on any inconsistency:
/// a stored root that the tree rebuilt from the leaf hashes does not
/// reproduce, an `entry_count` the batch counts do not sum to, a seq entry
/// outside its batch, or commits that are not the prefix `0..n` of the
/// batches. The CRC only guards against torn writes, so nothing restored is
/// trusted further than the batches back it.
fn decode(bytes: &[u8], now: SimInstant) -> Option<Restored> {
    if bytes.len() < 4 {
        return None;
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_be_bytes(crc_bytes.try_into().ok()?);
    if crc32(body) != expected {
        return None;
    }
    let mut dec = Decoder::new(body);
    if dec.u64().ok()? != MAGIC {
        return None;
    }
    let cursor = dec.u64().ok()?;
    let entry_count = dec.u64().ok()?;
    let batch_count = dec.u64().ok()?;
    let mut plane = Snapshot::default();
    let mut counted = 0u64;
    let mut expect_first = 1u64; // record 0 is batch 0's header
    for expect_id in 0..batch_count {
        let log_id = dec.u64().ok()?;
        if log_id != expect_id {
            return None; // batches must be dense from 0
        }
        let first_record = dec.u64().ok()?;
        let count = dec.u64().ok()?;
        if first_record != expect_first {
            return None; // batches must tile the log: header, leaves, header…
        }
        let root: [u8; 32] = dec.bytes_fixed().ok()?;
        let leaf_count = dec.u64().ok()? as usize;
        let hash_bytes = dec.bytes().ok()?;
        if leaf_count as u64 != count || hash_bytes.len() != leaf_count.checked_mul(32)? {
            return None;
        }
        // `count` is now bounded by the file's length.
        expect_first = first_record + count + 1;
        counted += count;
        let mut hashes = Vec::with_capacity(leaf_count);
        for chunk in hash_bytes.chunks_exact(32) {
            hashes.push(Hash32(chunk.try_into().ok()?));
        }
        let tree = MerkleTree::from_leaf_hashes(hashes).ok()?;
        if tree.root() != Hash32(root) {
            return None; // checkpointed root does not match its own leaves
        }
        plane.batches.push(Arc::new(BatchMeta {
            log_id,
            first_record,
            count: count as u32,
            tree,
            flushed_at: now,
        }));
    }
    // The cursor must be exactly what the batches cover.
    let covered = plane
        .batches
        .last()
        .map(|b| b.first_record + b.count as u64)
        .unwrap_or(0);
    if covered != cursor || counted != entry_count {
        return None;
    }
    plane.entry_count = entry_count;
    let seq_count = dec.u64().ok()?;
    if seq_count > entry_count {
        return None; // at most one key per entry; also bounds the allocation
    }
    let mut delta: HashMap<(Address, u64), EntryId> = HashMap::with_capacity(seq_count as usize);
    for _ in 0..seq_count {
        let publisher: [u8; 20] = dec.bytes_fixed().ok()?;
        let sequence = dec.u64().ok()?;
        let log_id = dec.u64().ok()?;
        let offset = u32::try_from(dec.u64().ok()?).ok()?;
        if offset >= plane.batches.get(usize::try_from(log_id).ok()?)?.count {
            return None; // the entry must lie inside a restored batch
        }
        delta.insert((Address(publisher), sequence), EntryId { log_id, offset });
    }
    plane.seq.insert_batch(delta);
    let commit_count = dec.u64().ok()?;
    if commit_count > batch_count {
        return None;
    }
    for expect_id in 0..commit_count {
        if dec.u64().ok()? != expect_id {
            return None; // commits must be the prefix 0..commit_count
        }
        let tx_hash: [u8; 32] = dec.bytes_fixed().ok()?;
        let block_number = dec.u64().ok()?;
        let latency_ns = dec.u64().ok()?;
        plane.record_commit(CommitInfo {
            tx_hash: Hash32(tx_hash),
            block_number,
            stage2_latency: Duration::from_nanos(latency_ns),
        });
    }
    dec.finish().ok()?;
    Some(Restored { plane, cursor })
}

/// Writes a checkpoint of `snap` atomically and durably, then prunes to
/// the newest [`KEEP`] files. Returns the checkpoint's cursor. Nothing is
/// pruned unless the new file — rename included — is durable, so the
/// checkpoint floor never rises past what a crash leaves on disk.
pub(crate) fn write(dir: &Path, snap: &Snapshot) -> Result<u64, CoreError> {
    std::fs::create_dir_all(dir).map_err(io_err)?;
    let (cursor, bytes) = encode(snap);
    write_atomic(dir, &checkpoint_name(cursor), &bytes)?;
    let existing = list(dir);
    for (_, path) in existing.iter().take(existing.len().saturating_sub(KEEP)) {
        let _ = std::fs::remove_file(path);
    }
    Ok(cursor)
}

/// Restores the newest checkpoint consistent with `store`: the cursor must
/// lie within the store's live record range (a checkpoint pointing past a
/// truncated tail, or below the retention frontier, is skipped). Falls back
/// file-by-file; `None` means "replay everything from scratch". Restored
/// batches are stamped `flushed_at = now`.
pub(crate) fn restore(dir: &Path, store: &LogStore, now: SimInstant) -> Option<Restored> {
    for (_, path) in list(dir).into_iter().rev() {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let Some(restored) = decode(&bytes, now) else {
            continue;
        };
        if restored.cursor > store.len() || restored.cursor < store.oldest() {
            continue;
        }
        return Some(restored);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_merkle::hash_leaf;

    fn tempdir(tag: &str) -> wedge_storage::ScratchDir {
        let dir = wedge_storage::ScratchDir::new(&format!("ckpt-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_plane(batches: u64, per_batch: u32) -> Snapshot {
        let mut plane = Snapshot::default();
        let mut record = 0u64;
        for log_id in 0..batches {
            let leaves: Vec<Vec<u8>> = (0..per_batch)
                .map(|i| format!("leaf-{log_id}-{i}").into_bytes())
                .collect();
            let tree = MerkleTree::from_leaf_hashes(leaves.iter().map(|l| hash_leaf(l)).collect())
                .unwrap();
            let meta = BatchMeta {
                log_id,
                first_record: record + 1, // +1 for the header record
                count: per_batch,
                tree,
                flushed_at: SimInstant::EPOCH,
            };
            let entries =
                (0..per_batch).map(|off| ((Address([7; 20]), log_id * 100 + off as u64), off));
            plane.register_batch(meta, entries);
            record += 1 + per_batch as u64;
        }
        for log_id in 0..batches.saturating_sub(1) {
            plane.commits.push(CommitInfo {
                tx_hash: Hash32([log_id as u8; 32]),
                block_number: log_id + 10,
                stage2_latency: Duration::from_millis(log_id),
            });
        }
        plane
    }

    #[test]
    fn checkpoint_roundtrips_the_planes() {
        let dir = tempdir("rt");
        let plane = sample_plane(4, 3);
        let cursor = write(&dir, &plane).unwrap();
        assert_eq!(cursor, 4 * 4); // 4 batches × (1 header + 3 leaves)

        let bytes = std::fs::read(dir.join(checkpoint_name(cursor))).unwrap();
        let restored = decode(&bytes, SimInstant::EPOCH).expect("valid checkpoint");
        assert_eq!(restored.cursor, cursor);
        assert_eq!(restored.plane.batches.len(), 4);
        assert_eq!(restored.plane.entry_count, 12);
        let batches = plane.batches.iter_from(0);
        for (orig, back) in batches.zip(restored.plane.batches.iter_from(0)) {
            assert_eq!(orig.log_id, back.log_id);
            assert_eq!(orig.first_record, back.first_record);
            assert_eq!(orig.count, back.count);
            assert_eq!(orig.tree.root(), back.tree.root());
            // Proof generation works on the rebuilt tree.
            assert!(back.tree.prove(0).is_ok());
        }
        assert_eq!(
            restored.plane.seq.get(Address([7; 20]), 201),
            Some(EntryId {
                log_id: 2,
                offset: 1
            })
        );
        assert_eq!(restored.plane.frontier(), 3);
        assert_eq!(
            restored.plane.commits.get(1).map(|i| i.block_number),
            Some(11)
        );
    }

    #[test]
    fn a_key_reinserted_in_a_newer_level_restores_to_the_newer_locator() {
        let publisher = Address([7; 20]);
        let mut plane = Snapshot::default();
        // Eight entries, then one that re-inserts sequence 5: too small to
        // merge into the first level, so the index keeps both locators.
        for (log_id, sequences) in [(0u64, (0..8).collect::<Vec<u64>>()), (1, vec![5])] {
            let count = sequences.len() as u32;
            let leaves = (0..count).map(|i| hash_leaf(&[log_id as u8, i as u8]));
            let meta = BatchMeta {
                log_id,
                first_record: if log_id == 0 { 1 } else { 10 },
                count,
                tree: MerkleTree::from_leaf_hashes(leaves.collect()).unwrap(),
                flushed_at: SimInstant::EPOCH,
            };
            let entries = (0u32..)
                .zip(sequences)
                .map(|(off, seq)| ((publisher, seq), off));
            plane.register_batch(meta, entries);
        }
        let holding: Vec<bool> = plane
            .seq
            .levels()
            .map(|level| level.contains_key(&(publisher, 5)))
            .collect();
        assert_eq!(holding, [true, true], "both levels hold the key");
        let newer = EntryId {
            log_id: 1,
            offset: 0,
        };
        assert_eq!(plane.seq.get(publisher, 5), Some(newer));

        let (_, bytes) = encode(&plane);
        let restored = decode(&bytes, SimInstant::EPOCH).expect("valid checkpoint");
        assert_eq!(restored.plane.seq.get(publisher, 5), Some(newer));
        let older = EntryId {
            log_id: 0,
            offset: 4,
        };
        assert_eq!(restored.plane.seq.get(publisher, 4), Some(older));
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let dir = tempdir("bad");
        let cursor = write(&dir, &sample_plane(2, 2)).unwrap();
        let path = dir.join(checkpoint_name(cursor));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(
            decode(&bytes, SimInstant::EPOCH).is_none(),
            "flipped byte must fail the CRC"
        );
        // A CRC-valid file whose root does not match its leaves is also
        // rejected: re-CRC the tampered body.
        let mut bytes = std::fs::read(&path).unwrap();
        let body_len = bytes.len() - 4;
        bytes[40] ^= 0x01; // inside the first batch's fields
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert!(decode(&bytes, SimInstant::EPOCH).is_none());
    }

    /// Two batches, one seq entry (so the bytes do not depend on `HashMap`
    /// order) and one commit.
    fn golden_plane() -> Snapshot {
        let mut plane = Snapshot::default();
        for (log_id, first_record, count) in [(0u64, 1u64, 2u32), (1, 4, 1)] {
            let hashes = (0..count)
                .map(|i| hash_leaf(format!("golden-{log_id}-{i}").as_bytes()))
                .collect();
            let meta = BatchMeta {
                log_id,
                first_record,
                count,
                tree: MerkleTree::from_leaf_hashes(hashes).unwrap(),
                flushed_at: SimInstant::EPOCH,
            };
            let entries = (log_id == 1).then_some(((Address([9; 20]), 42), 0u32));
            plane.register_batch(meta, entries);
        }
        plane.commits.push(CommitInfo {
            tx_hash: Hash32([0xAB; 32]),
            block_number: 7,
            stage2_latency: Duration::from_millis(3),
        });
        plane
    }

    /// Format v1 as written for [`golden_plane`]. Never regenerate these
    /// bytes from the current code: they pin the format, so an encoder
    /// change that alters them breaks every checkpoint already on disk.
    const GOLDEN_V1: &str = concat!(
        "57434b5000000001000000000000000500000000000000030000000000000002",
        "000000000000000000000000000000010000000000000002000000206197b625",
        "d07825d4290b2bfb1fda98805455302d288b6c28edc96636ff4e406400000000",
        "00000002000000404ebab0df53f82240b1abda067c33a87f1eb911248a41bca1",
        "8318c68aa2a9004942f68c898e5277c26630df98af58b11d1ee1959ca95fd89e",
        "68b7ed4caba2282a000000000000000100000000000000040000000000000001",
        "00000020ec26e6b10e3674dd053bec7cdecfa2d3b103bb4dd527043ac841bc93",
        "a4131383000000000000000100000020ec26e6b10e3674dd053bec7cdecfa2d3",
        "b103bb4dd527043ac841bc93a413138300000000000000010000001409090909",
        "09090909090909090909090909090909000000000000002a0000000000000001",
        "00000000000000000000000000000001000000000000000000000020abababab",
        "abababababababababababababababababababababababababababab00000000",
        "0000000700000000002dc6c0d2f1cbf4",
    );

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn format_v1_bytes_are_pinned() {
        let (cursor, bytes) = encode(&golden_plane());
        assert_eq!(cursor, 5);
        assert_eq!(hex(&bytes), GOLDEN_V1);

        let golden: Vec<u8> = (0..GOLDEN_V1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_V1[i..i + 2], 16).unwrap())
            .collect();
        let restored = decode(&golden, SimInstant::EPOCH).expect("golden bytes decode");
        assert_eq!(restored.cursor, 5);
        let (_, again) = encode(&restored.plane);
        assert_eq!(again, golden, "decode → encode must reproduce the file");
        let plane = restored.plane;
        assert_eq!(plane.entry_count, 3);
        assert_eq!(
            plane.seq.get(Address([9; 20]), 42),
            Some(EntryId {
                log_id: 1,
                offset: 0
            })
        );
        let info = plane.commits.get(0).expect("position 0 committed");
        assert_eq!(
            (info.tx_hash, info.block_number, info.stage2_latency),
            (Hash32([0xAB; 32]), 7, Duration::from_millis(3))
        );
        assert!(plane.commits.get(1).is_none());
    }

    /// `bytes` with the big-endian u64 at `at` set to `value` and the CRC
    /// recomputed, so only decode's own consistency checks can reject it.
    fn patched(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let body = out.len() - 4;
        out[at..at + 8].copy_from_slice(&value.to_be_bytes());
        let crc = crc32(&out[..body]);
        out[body..].copy_from_slice(&crc.to_be_bytes());
        out
    }

    #[test]
    fn decode_rejects_state_the_batches_do_not_back() {
        let (_, bytes) = encode(&golden_plane());
        // The golden plane ends in seq_count, one seq entry (publisher |
        // sequence | log_id | offset = 48 B), commit_count, and one commit
        // (log_id | tx_hash | block | latency = 60 B); entry_count is the
        // third word.
        let commit = bytes.len() - 4 - 60;
        let seq = commit - 8 - 48;
        let entry_count = 16;
        assert!(decode(&patched(&bytes, commit, 0), SimInstant::EPOCH).is_some());
        let batch_count = 2;
        for (what, at, value) in [
            ("a commit past the batches", commit, batch_count + 5),
            ("a commit that leaves a hole", commit, 1),
            ("a seq entry past the batches", seq + 32, batch_count),
            ("a seq entry past its batch", seq + 40, 1),
            ("an entry count the batches do not sum to", entry_count, 4),
            ("more seq entries than entries", seq - 8, u64::MAX),
        ] {
            assert!(
                decode(&patched(&bytes, at, value), SimInstant::EPOCH).is_none(),
                "decode accepted {what}"
            );
        }
    }

    #[test]
    fn prune_keeps_the_newest_two_and_floor_tracks_the_oldest() {
        let dir = tempdir("prune");
        assert_eq!(floor(&dir), 0);
        let mut cursors = Vec::new();
        for n in 1..=4u64 {
            cursors.push(write(&dir, &sample_plane(n, 2)).unwrap());
        }
        let kept = list(&dir);
        assert_eq!(kept.len(), KEEP);
        assert_eq!(kept[0].0, cursors[2]);
        assert_eq!(kept[1].0, cursors[3]);
        assert_eq!(floor(&dir), cursors[2]);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), KEEP, "no temp file left: {names:?}");
    }

    #[test]
    fn a_failed_write_prunes_nothing() {
        let dir = tempdir("failed");
        let kept: Vec<u64> = (1..=2u64)
            .map(|n| write(&dir, &sample_plane(n, 2)).unwrap())
            .collect();
        // A directory squatting on the temp path fails the write.
        let plane = sample_plane(3, 2);
        let squat = dir.join(format!("{}.tmp", checkpoint_name(encode(&plane).0)));
        std::fs::create_dir_all(&squat).unwrap();
        assert!(write(&dir, &plane).is_err());
        let cursors: Vec<u64> = list(&dir).into_iter().map(|(cursor, _)| cursor).collect();
        assert_eq!(cursors, kept);
        assert_eq!(floor(&dir), kept[0]);
    }
}
