//! Per-batch metadata, the on-disk batch encoding, and recovery into the
//! write plane (see [`super::snapshot`] for the two-plane state itself).

use std::time::Duration;

use wedge_chain::{Decoder, Encoder, TxHash};
use wedge_crypto::hash::Hash32;
use wedge_merkle::MerkleTree;
use wedge_sim::SimInstant;
use wedge_storage::{Frames, LogStore};

use super::snapshot::Snapshot;
use crate::error::CoreError;
use crate::types::AppendRequest;

/// Record-type tags in the backing store.
const TAG_HEADER: u8 = 0x01;
const TAG_LEAF: u8 = 0x02;

/// Metadata for one flushed batch (log position).
pub struct BatchMeta {
    /// The log position id.
    pub log_id: u64,
    /// Storage record id of the batch's first leaf.
    pub first_record: u64,
    /// Number of entries.
    pub count: u32,
    /// The batch's Merkle tree, retained for O(log n) proof generation on
    /// reads.
    pub tree: MerkleTree,
    /// When the batch was registered (simulated time) — the start of its
    /// stage-2 latency. In memory only: a batch recovered at restart
    /// carries the restart instant.
    pub flushed_at: SimInstant,
}

/// Stage-2 commitment bookkeeping for one log position.
#[derive(Clone, Copy, Debug)]
pub struct CommitInfo {
    /// The `Update-Records` transaction.
    pub tx_hash: TxHash,
    /// Block in which it was mined.
    pub block_number: u64,
    /// Simulated latency from stage-1 completion to confirmed stage-2.
    pub stage2_latency: Duration,
}

/// Encodes a batch-header record: `(tag, log_id, count, root)`.
pub fn encode_header(log_id: u64, count: u32, root: &Hash32) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(53);
    enc.u8(TAG_HEADER)
        .u64(log_id)
        .u64(count as u64)
        .bytes(root.as_bytes());
    enc.finish()
}

/// Frames `leaves` as leaf records — `(tag, length-prefixed leaf)`, the
/// [`Encoder`] layout [`decode_leaf`] reads — into one part sized exactly
/// up front: each leaf is copied once, straight into its frame, and
/// checksummed there.
pub fn frame_leaves(leaves: &[Vec<u8>]) -> Frames {
    const TAG_AND_LEN: usize = 1 + 4;
    let bytes = leaves.iter().map(|leaf| TAG_AND_LEN + leaf.len()).sum();
    let mut frames = Frames::with_capacity(leaves.len(), bytes);
    for leaf in leaves {
        let len = (leaf.len() as u32).to_be_bytes();
        frames.push_slices(&[&[TAG_LEAF], &len, leaf]);
    }
    frames
}

/// Decodes a leaf record back to its leaf bytes.
pub fn decode_leaf(record: &[u8]) -> Result<Vec<u8>, CoreError> {
    let mut dec = Decoder::new(record);
    let tag = dec.u8().map_err(CoreError::Decode)?;
    if tag != TAG_LEAF {
        return Err(CoreError::RequestRejected("expected leaf record"));
    }
    let leaf = dec.bytes().map_err(CoreError::Decode)?.to_vec();
    dec.finish().map_err(CoreError::Decode)?;
    Ok(leaf)
}

/// Decoded batch header.
pub struct Header {
    /// Log position id.
    pub log_id: u64,
    /// Entries in the batch.
    pub count: u32,
    /// The persisted Merkle root (re-derived and checked at recovery).
    pub root: Hash32,
}

/// Decodes a header record, returning `None` for non-header records.
pub fn decode_header(record: &[u8]) -> Option<Header> {
    let mut dec = Decoder::new(record);
    if dec.u8().ok()? != TAG_HEADER {
        return None;
    }
    let log_id = dec.u64().ok()?;
    let count = dec.u64().ok()? as u32;
    let root: [u8; 32] = dec.bytes_fixed().ok()?;
    dec.finish().ok()?;
    Some(Header {
        log_id,
        count,
        root: Hash32(root),
    })
}

/// Replays records `[from, store.len())` into `plane` — the node restart
/// path. With `from = 0` and an empty plane this rebuilds the entire state
/// from the log; with a restored checkpoint, `from` is the checkpoint's
/// record cursor and only the uncheckpointed tail is read and hashed
/// (O(tail) restart). Replayed batches are stamped `flushed_at = now`.
/// Returns the number of records replayed.
///
/// `from` must sit on a batch-header boundary (0 and checkpoint cursors
/// always do). An incomplete trailing batch (header persisted, some leaves
/// torn away by a crash) was never acknowledged: its records are truncated
/// from the store, so the next batch is appended where it began.
pub fn replay_tail(
    store: &LogStore,
    plane: &mut Snapshot,
    from: u64,
    now: SimInstant,
) -> Result<u64, CoreError> {
    let total = store.len();
    let mut cursor = from;
    while cursor < total {
        let record = store.read(cursor)?;
        let Some(header) = decode_header(&record) else {
            return Err(CoreError::RequestRejected(
                "expected batch header during recovery",
            ));
        };
        let first_record = cursor + 1;
        if first_record + header.count as u64 > total {
            store.truncate_tail(total - cursor)?;
            break;
        }
        let mut leaves = Vec::with_capacity(header.count as usize);
        for record in store.read_range(first_record, header.count as u64)? {
            leaves.push(decode_leaf(&record)?);
        }
        let tree = MerkleTree::from_leaf_hashes(
            leaves.iter().map(|l| wedge_merkle::hash_leaf(l)).collect(),
        )
        .map_err(|_| CoreError::RequestRejected("empty batch during recovery"))?;
        if tree.root() != header.root {
            return Err(CoreError::RequestRejected("recovered root mismatch"));
        }
        let entries: Vec<_> = leaves
            .iter()
            .enumerate()
            .filter_map(|(offset, leaf)| {
                AppendRequest::from_leaf_bytes(leaf)
                    .ok()
                    .map(|req| ((req.publisher, req.sequence), offset as u32))
            })
            .collect();
        plane.register_batch(
            BatchMeta {
                log_id: header.log_id,
                first_record,
                count: header.count,
                tree,
                flushed_at: now,
            },
            entries,
        );
        cursor = first_record + header.count as u64;
    }
    Ok(total.saturating_sub(from))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let root = Hash32([7; 32]);
        let encoded = encode_header(42, 100, &root);
        let header = decode_header(&encoded).unwrap();
        assert_eq!(header.log_id, 42);
        assert_eq!(header.count, 100);
        assert_eq!(header.root, root);
    }

    #[test]
    fn leaf_roundtrip() {
        for leaf in [b"leaf-data".to_vec(), Vec::new(), vec![0xAB; 300]] {
            // A leaf record is the Encoder's tag + length-prefixed bytes, and
            // its frame ends in exactly that record.
            let mut enc = Encoder::new();
            enc.u8(TAG_LEAF).bytes(&leaf);
            let record = enc.finish();
            assert!(frame_leaves(std::slice::from_ref(&leaf))
                .as_bytes()
                .ends_with(&record));
            assert_eq!(decode_leaf(&record).unwrap(), leaf);
            assert!(decode_header(&record).is_none());
        }
        // Headers are not leaves.
        let header = encode_header(0, 1, &Hash32::ZERO);
        assert!(decode_leaf(&header).is_err());
    }
}
