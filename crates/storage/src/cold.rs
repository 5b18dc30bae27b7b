//! Sealed segments: checksummed, read-only, self-describing log segments.
//!
//! A segment is immutable from the moment the tail rotates away from it,
//! so rotation *is* the seal: [`seal_in_place`] appends a locator block and
//! a CRC'd footer after the last record, fsyncs, and renames
//! `seg-N.wlog` → `seg-N.wcold`. No byte is copied and nothing is rescanned
//! — the offsets were in memory. Sealed segments are self-describing —
//! restart reads one footer per sealed segment instead of scanning every
//! record — and are served through the `pread` handle the tail already
//! had open, so sealed reads never touch the tail lock and never re-open
//! the file.
//!
//! On-disk layout of `seg-NNNNNNNNNN.wcold` (all integers big-endian):
//!
//! ```text
//! +--------------------------------------------+
//! | data region: the segment's framed records, |
//! | exactly as the tail wrote them             |
//! +--------------------------------------------+
//! | locator block:                             |
//! |   count      u32                           |
//! |   first_seq  u64                           |
//! |   offsets    count x u64 (ascending)       |
//! +--------------------------------------------+
//! | footer:                                    |
//! |   locator_off u64  (= data region length)  |
//! |   locator_crc u32  (crc32 of the block)    |
//! |   magic       u16  ("WC")                  |
//! +--------------------------------------------+
//! ```
//!
//! Because the data region is the `.wlog` itself, a sealed segment is
//! unsealed (for tail truncation across the sealed boundary) by renaming it
//! back and truncating the trailer away.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::bytes::{be_u16_at, be_u32_at, be_u64_at};
use crate::crc32::crc32;
use crate::error::StorageError;
use crate::segment::{pread_exact, read_record_from, segment_path, SegmentId, SegmentWriter};

/// Footer magic ("WC").
pub const COLD_MAGIC: u16 = 0x5743;
/// Bytes of footer at the end of a sealed segment file.
pub const FOOTER_LEN: usize = 8 + 4 + 2;

/// Builds the file path for sealed segment `id` under `dir`.
pub fn cold_path(dir: &Path, id: SegmentId) -> PathBuf {
    dir.join(format!("seg-{id:010}.wcold"))
}

/// The locator block + footer that seal a data region of `data_len` bytes
/// holding the records at `offsets`.
fn trailer(first_seq: u64, offsets: &[u64], data_len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 8 * offsets.len() + FOOTER_LEN);
    out.extend_from_slice(&(offsets.len() as u32).to_be_bytes());
    out.extend_from_slice(&first_seq.to_be_bytes());
    for offset in offsets {
        out.extend_from_slice(&offset.to_be_bytes());
    }
    let block_crc = crc32(&out);
    out.extend_from_slice(&data_len.to_be_bytes());
    out.extend_from_slice(&block_crc.to_be_bytes());
    out.extend_from_slice(&COLD_MAGIC.to_be_bytes());
    out
}

/// Seals the segment `writer` has been appending to, whose records start
/// at `offsets`: appends the trailer, fsyncs, and renames the file to its
/// `.wcold` name. The rename is durable once the caller fsyncs the
/// directory (creating the next tail does). Used by rotation and by
/// [`crate::LogStore::open`] to finish an interrupted seal. On an error the
/// file is still the `.wlog` and `writer` is not marked sealed; the caller
/// rewinds the trailer away.
pub(crate) fn seal_in_place(
    dir: &Path,
    writer: &mut SegmentWriter,
    first_seq: u64,
    offsets: Vec<u64>,
) -> Result<ColdSegment, StorageError> {
    let id = writer.id();
    let data_len = writer.len();
    writer.write_trailer(&trailer(first_seq, &offsets, data_len))?;
    writer.sync()?;
    let path = cold_path(dir, id);
    std::fs::rename(segment_path(dir, id), &path)?;
    writer.mark_sealed();
    Ok(ColdSegment {
        id,
        first_seq,
        offsets,
        data_len,
        file: writer.reader(),
        path,
    })
}

/// True when the bytes after the `data_len`-byte data region of
/// `seg-{id}.wlog` are a prefix of (or all of) the trailer that sealing
/// these records writes — the mark of a seal interrupted before its rename.
pub(crate) fn ends_in_torn_seal(
    dir: &Path,
    id: SegmentId,
    first_seq: u64,
    offsets: &[u64],
    data_len: u64,
) -> Result<bool, StorageError> {
    // Rotation never seals an empty tail.
    if offsets.is_empty() {
        return Ok(false);
    }
    let file = File::open(segment_path(dir, id))?;
    let extra = file.metadata()?.len().saturating_sub(data_len);
    let trailer = trailer(first_seq, offsets, data_len);
    if extra == 0 || extra > trailer.len() as u64 {
        return Ok(false);
    }
    let mut found = vec![0u8; extra as usize];
    pread_exact(&file, &mut found, data_len)?;
    Ok(trailer.starts_with(&found))
}

/// A sealed, read-only segment with its locator block resident and a cached
/// read handle.
pub struct ColdSegment {
    id: SegmentId,
    first_seq: u64,
    /// Record start offsets within the data region, ascending.
    offsets: Vec<u64>,
    /// Length of the data region (= locator block offset).
    data_len: u64,
    /// Cached `pread` handle; holding it also keeps the data readable after
    /// the retention policy unlinks the file.
    file: Arc<File>,
    path: PathBuf,
}

impl ColdSegment {
    /// Segment id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// Sequence number of the first record.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Number of records.
    pub fn record_count(&self) -> u64 {
        self.offsets.len() as u64
    }

    /// One past the last sequence number held.
    pub fn end_seq(&self) -> u64 {
        self.first_seq + self.record_count()
    }

    /// Length of the data region in bytes.
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Path of the sealed file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Record start offsets within the data region, ascending.
    pub(crate) fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Opens an existing cold segment, parsing and validating its footer and
    /// locator block. Record payloads are *not* scanned — their CRCs are
    /// verified lazily on read, which is what makes restart O(tail).
    pub fn open(dir: &Path, id: SegmentId) -> Result<ColdSegment, StorageError> {
        let path = cold_path(dir, id);
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let corrupt = |what| StorageError::CorruptRecord {
            id: id as u64,
            what,
        };
        if file_len < FOOTER_LEN as u64 {
            return Err(corrupt("cold segment shorter than its footer"));
        }
        let mut footer = [0u8; FOOTER_LEN];
        pread_exact(&file, &mut footer, file_len - FOOTER_LEN as u64)?;
        let magic = be_u16_at(&footer, 12).ok_or_else(|| corrupt("bad cold footer"))?;
        if magic != COLD_MAGIC {
            return Err(corrupt("bad cold footer magic"));
        }
        let data_len = be_u64_at(&footer, 0).ok_or_else(|| corrupt("bad cold footer"))?;
        let expected_crc = be_u32_at(&footer, 8).ok_or_else(|| corrupt("bad cold footer"))?;
        let block_end = file_len - FOOTER_LEN as u64;
        if data_len > block_end {
            return Err(corrupt("cold locator offset past end of file"));
        }
        let block_len = (block_end - data_len) as usize;
        if block_len < 4 + 8 {
            return Err(corrupt("cold locator block truncated"));
        }
        let mut block = vec![0u8; block_len];
        pread_exact(&file, &mut block, data_len)?;
        if crc32(&block) != expected_crc {
            return Err(corrupt("cold locator block checksum mismatch"));
        }
        let short = || corrupt("cold locator block truncated");
        let count = be_u32_at(&block, 0).ok_or_else(short)? as usize;
        let first_seq = be_u64_at(&block, 4).ok_or_else(short)?;
        if block_len != 4 + 8 + 8 * count {
            return Err(corrupt("cold locator count disagrees with block size"));
        }
        let mut offsets = Vec::with_capacity(count);
        let mut prev: Option<u64> = None;
        for i in 0..count {
            let offset = be_u64_at(&block, 12 + 8 * i).ok_or_else(short)?;
            if offset >= data_len || prev.is_some_and(|p| offset <= p) {
                return Err(corrupt("cold locator offsets out of order"));
            }
            prev = Some(offset);
            offsets.push(offset);
        }
        if count > 0 && offsets.first() != Some(&0) {
            return Err(corrupt("cold locator does not start at offset zero"));
        }
        Ok(ColdSegment {
            id,
            first_seq,
            offsets,
            data_len,
            file: Arc::new(file),
            path,
        })
    }

    /// True when `seq` falls inside this segment.
    pub fn contains(&self, seq: u64) -> bool {
        seq >= self.first_seq && seq < self.end_seq()
    }

    /// Byte offset of record `seq` within the data region.
    pub fn offset_of(&self, seq: u64) -> Option<u64> {
        self.offsets
            .get(usize::try_from(seq.checked_sub(self.first_seq)?).ok()?)
            .copied()
    }

    /// Reads record `seq` through the cached handle (one `pread` for the
    /// header, one for the payload; the CRC is verified here since sealed
    /// payloads are only checked lazily).
    pub fn read(&self, seq: u64) -> Result<Vec<u8>, StorageError> {
        let offset = self.offset_of(seq).ok_or(StorageError::RecordNotFound {
            id: seq,
            len: self.end_seq(),
        })?;
        read_record_from(&self.file, offset, self.data_len, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::HEADER_LEN;

    fn tempdir(tag: &str) -> crate::ScratchDir {
        let dir = crate::ScratchDir::new(&format!("cold-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes `n` records into segment `id` and seals it in place.
    fn sealed_segment(
        dir: &Path,
        id: SegmentId,
        first_seq: u64,
        n: u32,
    ) -> (ColdSegment, Vec<Vec<u8>>) {
        let mut w = SegmentWriter::create(dir, id).unwrap();
        let mut payloads = Vec::new();
        let mut offsets = Vec::new();
        for i in 0..n {
            let p = format!("cold-record-{i:04}").into_bytes();
            offsets.push(w.append(&p).unwrap());
            payloads.push(p);
        }
        let cold = seal_in_place(dir, &mut w, first_seq, offsets).unwrap();
        (cold, payloads)
    }

    #[test]
    fn seal_roundtrips_every_record() {
        let dir = tempdir("seal-rt");
        let (cold, payloads) = sealed_segment(&dir, 7, 100, 25);
        assert!(!segment_path(&dir, 7).exists(), "sealed by rename");
        assert_eq!(cold.first_seq(), 100);
        assert_eq!(cold.record_count(), 25);
        assert_eq!(cold.end_seq(), 125);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&cold.read(100 + i as u64).unwrap(), p);
        }
        assert!(cold.read(99).is_err());
        assert!(cold.read(125).is_err());
        // Reopen parses the embedded locator without scanning records.
        let reopened = ColdSegment::open(&dir, 7).unwrap();
        assert_eq!(reopened.record_count(), 25);
        assert_eq!(reopened.offsets(), cold.offsets());
        assert_eq!(&reopened.read(113).unwrap(), &payloads[13]);
    }

    #[test]
    fn sealed_data_region_is_the_records_as_written() {
        let dir = tempdir("seal-bytes");
        let (cold, payloads) = sealed_segment(&dir, 0, 0, 9);
        let sealed = std::fs::read(cold.path()).unwrap();
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        for p in &payloads {
            w.append(p).unwrap();
        }
        let unsealed = std::fs::read(segment_path(&dir, 1)).unwrap();
        assert_eq!(&sealed[..unsealed.len()], &unsealed[..]);
        assert_eq!(cold.data_len(), unsealed.len() as u64);
    }

    #[test]
    fn corrupt_footer_fails_open() {
        let dir = tempdir("seal-foot");
        let (cold, _) = sealed_segment(&dir, 1, 0, 4);
        let path = cold.path().to_path_buf();
        drop(cold);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 3; // inside the magic/crc
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ColdSegment::open(&dir, 1),
            Err(StorageError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn corrupt_payload_is_caught_lazily_on_read() {
        let dir = tempdir("seal-lazy");
        let (cold, _) = sealed_segment(&dir, 2, 0, 6);
        let path = cold.path().to_path_buf();
        let victim_off = cold.offset_of(3).unwrap() as usize + HEADER_LEN;
        drop(cold);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[victim_off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Open succeeds (locator block intact) — the damage surfaces on read.
        let cold = ColdSegment::open(&dir, 2).unwrap();
        assert!(cold.read(0).is_ok());
        assert!(matches!(
            cold.read(3),
            Err(StorageError::CorruptRecord {
                id: 3,
                what: "checksum mismatch"
            })
        ));
    }

    #[test]
    fn a_length_field_reaching_into_the_trailer_is_refused() {
        let dir = tempdir("seal-overrun");
        let (cold, _) = sealed_segment(&dir, 5, 0, 3);
        let path = cold.path().to_path_buf();
        let last = cold.offset_of(2).unwrap() as usize;
        drop(cold);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[last + 5] += 1; // low byte of the length
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ColdSegment::open(&dir, 5).unwrap().read(2),
            Err(StorageError::CorruptRecord {
                id: 2,
                what: "record runs past the data region"
            })
        ));
    }
}
