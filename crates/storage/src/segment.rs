//! Segment files: the on-disk unit of the append-only log.
//!
//! Record wire format (all integers big-endian):
//!
//! ```text
//! +--------+--------+----------+-------------+
//! | magic  | length | crc32    | payload     |
//! | 2 B    | 4 B    | 4 B      | length B    |
//! +--------+--------+----------+-------------+
//! ```
//!
//! The CRC covers the payload only; the magic pins record boundaries so a
//! scan can distinguish a torn tail from mid-file corruption.
//!
//! Records are framed once, into [`Frames`], before any store sees them:
//! the batch's producer builds the bytes above (one CRC pass per payload),
//! and the primary and every replica write those same bytes with one
//! `write(2)` per contiguous run that lands in one segment. A
//! [`SegmentWriter`] writes straight to its file — there is no user-space
//! buffer, so an appended record is visible to `pread` the moment the
//! append returns and a tail read needs neither a flush nor the tail lock.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crc32::crc32;
use crate::error::StorageError;

/// Record header magic ("WB").
pub const MAGIC: u16 = 0x5742;
/// Bytes of framing per record.
pub const HEADER_LEN: usize = 2 + 4 + 4;

/// Identifies a segment file within a store directory.
pub type SegmentId = u32;

/// Builds the file path for segment `id` under `dir`.
pub fn segment_path(dir: &Path, id: SegmentId) -> PathBuf {
    dir.join(format!("seg-{id:010}.wlog"))
}

/// Fsyncs a directory so creates/renames/unlinks inside it are durable.
/// A directory that cannot be opened is an error: nothing made inside it
/// is known to survive a crash.
pub fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Records framed exactly as a segment stores them — `magic ‖ length ‖
/// crc32 ‖ payload` each, back to back in one buffer — plus each record's
/// framed length, so a store can split the buffer at record boundaries
/// without parsing it. A batch is one or more `Frames` in order (for
/// instance a header record and one part per worker that framed a span of
/// the batch); [`crate::LogStore::append_frames`] writes them as-is.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frames {
    bytes: Vec<u8>,
    /// Framed length (header + payload) of every record, in order.
    lens: Vec<usize>,
}

impl Frames {
    /// Empty frames with room for `records` records whose payloads total
    /// `payload_bytes`: framing that stays within the hint never
    /// reallocates, so no payload byte is copied twice.
    pub fn with_capacity(records: usize, payload_bytes: usize) -> Frames {
        Frames {
            bytes: Vec::with_capacity(records * HEADER_LEN + payload_bytes),
            lens: Vec::with_capacity(records),
        }
    }

    /// Frames every payload, in order, into one allocation.
    pub fn from_payloads<D: AsRef<[u8]>>(payloads: &[D]) -> Frames {
        let bytes = payloads.iter().map(|p| p.as_ref().len()).sum();
        let mut frames = Frames::with_capacity(payloads.len(), bytes);
        for payload in payloads {
            frames.push_slices(&[payload.as_ref()]);
        }
        frames
    }

    /// Appends one record whose payload is the concatenation of `slices`:
    /// a caller that prefixes a tag or a length to its data frames it
    /// without first building the payload elsewhere. The payload is copied
    /// in once and checksummed in place.
    pub fn push_slices(&mut self, slices: &[&[u8]]) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0; HEADER_LEN]);
        for slice in slices {
            self.bytes.extend_from_slice(slice);
        }
        let payload = self.bytes.get(start + HEADER_LEN..).unwrap_or_default();
        let len = (payload.len() as u32).to_be_bytes();
        let crc = crc32(payload).to_be_bytes();
        let magic = MAGIC.to_be_bytes();
        let header: [u8; HEADER_LEN] = [
            magic[0], magic[1], len[0], len[1], len[2], len[3], crc[0], crc[1], crc[2], crc[3],
        ];
        if let Some(slot) = self.bytes.get_mut(start..start + HEADER_LEN) {
            slot.copy_from_slice(&header);
        }
        self.lens.push(self.bytes.len() - start);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when no record has been framed.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// The framed bytes, exactly as a segment stores them.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Framed length (header + payload) of every record, in order.
    pub fn framed_lens(&self) -> &[usize] {
        &self.lens
    }
}

/// An open segment being appended to.
pub struct SegmentWriter {
    id: SegmentId,
    file: File,
    /// Read-only handle on the same file for positional reads; it follows
    /// the inode, so it keeps working once the segment is sealed (renamed).
    reader: Arc<File>,
    /// Bytes written (including framing).
    len: u64,
    /// True once the file carries its trailer under its `.wcold` name: it
    /// takes no more records, and the store's next append only has to
    /// create the successor.
    sealed: bool,
}

impl SegmentWriter {
    /// Creates (or truncates) segment `id` in `dir` and fsyncs the
    /// directory: records later `sync_data`'d into the file are only
    /// durable if its directory entry is. The same fsync covers any rename
    /// or unlink the caller did just before.
    pub fn create(dir: &Path, id: SegmentId) -> Result<SegmentWriter, StorageError> {
        let path = segment_path(dir, id);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        sync_dir(dir)?;
        Ok(SegmentWriter {
            id,
            file,
            reader: Arc::new(File::open(&path)?),
            len: 0,
            sealed: false,
        })
    }

    /// Opens an existing segment for appending at `offset` (recovery path).
    pub fn open_at(dir: &Path, id: SegmentId, offset: u64) -> Result<SegmentWriter, StorageError> {
        let path = segment_path(dir, id);
        let mut file = OpenOptions::new().write(true).open(&path)?;
        // Drop any torn tail beyond the recovered offset.
        file.set_len(offset)?;
        file.seek(SeekFrom::Start(offset))?;
        Ok(SegmentWriter {
            id,
            file,
            reader: Arc::new(File::open(&path)?),
            len: offset,
            sealed: false,
        })
    }

    /// Appends already-framed records (whole [`Frames`] records, back to
    /// back) with one `write_all`.
    pub fn write_frames(&mut self, frames: &[u8]) -> Result<(), StorageError> {
        if self.sealed {
            return Err(std::io::Error::other("append to a sealed segment").into());
        }
        self.file.write_all(frames)?;
        self.len += frames.len() as u64;
        Ok(())
    }

    /// Frames and appends one record; returns its starting offset.
    #[cfg(test)]
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        let offset = self.len;
        self.write_frames(Frames::from_payloads(&[payload]).as_bytes())?;
        Ok(offset)
    }

    /// Writes the seal trailer after the last record. `len` does not
    /// advance, so until [`SegmentWriter::mark_sealed`] a failed seal is
    /// undone by [`SegmentWriter::rewind`].
    pub fn write_trailer(&mut self, trailer: &[u8]) -> Result<(), StorageError> {
        self.file.write_all(trailer)?;
        Ok(())
    }

    /// Records that the trailer is durable and the file renamed `.wcold`.
    pub fn mark_sealed(&mut self) {
        self.sealed = true;
    }

    /// True once [`SegmentWriter::mark_sealed`] was called.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Cuts the segment back to `len` bytes, dropping whatever was written
    /// beyond them: the records of a failed batch, a half-written run, the
    /// trailer of a failed seal.
    pub fn rewind(&mut self, len: u64) -> Result<(), StorageError> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.len = len;
        Ok(())
    }

    /// Fsyncs the written records to stable storage.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Segment id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// The shared positional-read handle.
    pub fn reader(&self) -> Arc<File> {
        self.reader.clone()
    }

    /// Current length in bytes (including framing).
    pub fn len(&self) -> u64 {
        self.len
    }
}

/// Positional read that never moves a shared cursor, so one cached handle
/// can serve concurrent readers.
#[cfg(unix)]
pub(crate) fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
pub(crate) fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    // Fallback: clone the handle so the shared reader's cursor is untouched.
    let mut clone = file.try_clone()?;
    clone.seek(SeekFrom::Start(offset))?;
    clone.read_exact(buf)
}

/// Reads record `seq` framed at `offset` through an already-open handle
/// (positional reads; the handle's cursor is untouched) and verifies its
/// CRC. The record must end at or before `data_end`, so a sealed segment's
/// trailer is never parsed as a record.
pub(crate) fn read_record_from(
    file: &File,
    offset: u64,
    data_end: u64,
    seq: u64,
) -> Result<Vec<u8>, StorageError> {
    let corrupt = |what| StorageError::CorruptRecord { id: seq, what };
    let mut header = [0u8; HEADER_LEN];
    pread_exact(file, &mut header, offset)?;
    let magic = u16::from_be_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as usize;
    let expected_crc = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    if offset + (HEADER_LEN + len) as u64 > data_end {
        return Err(corrupt("record runs past the data region"));
    }
    let mut payload = vec![0u8; len];
    pread_exact(file, &mut payload, offset + HEADER_LEN as u64)?;
    if crc32(&payload) != expected_crc {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// How a segment scan terminated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TailState {
    /// The scan consumed the file exactly: every byte belongs to an intact
    /// record.
    Clean,
    /// The file ends mid-record (partial header, or a payload running past
    /// EOF). This is the signature of an interrupted write and is safe to
    /// truncate away at recovery.
    Torn,
    /// Bytes that are present but wrong: a full header with bad magic, or a
    /// complete payload whose CRC does not match. This is corruption, not a
    /// crash artifact, and must not be silently dropped.
    Corrupt {
        /// Byte offset of the damaged record.
        offset: u64,
        /// Human-readable cause.
        what: &'static str,
    },
}

/// The outcome of scanning a segment during recovery.
pub struct SegmentScan {
    /// `(offset, payload_len)` of every intact record, in order.
    pub records: Vec<(u64, u32)>,
    /// Offset of the first byte after the last intact record — the safe
    /// truncation/append point.
    pub valid_len: u64,
    /// Why the scan stopped (or that it cleanly consumed the file).
    pub tail: TailState,
}

impl SegmentScan {
    /// True if trailing bytes after `valid_len` were found, whatever their
    /// cause.
    pub fn has_trailing_bytes(&self) -> bool {
        self.tail != TailState::Clean
    }
}

/// Scans a segment from the start, stopping at the first torn/corrupt
/// record. Everything before the stop point is intact; [`SegmentScan::tail`]
/// distinguishes a torn write from genuine corruption.
pub fn scan_segment(dir: &Path, id: SegmentId) -> Result<SegmentScan, StorageError> {
    let mut file = File::open(segment_path(dir, id))?;
    let file_len = file.metadata()?.len();
    let mut records = Vec::new();
    let mut offset = 0u64;
    let tail = loop {
        if offset == file_len {
            break TailState::Clean;
        }
        if offset + HEADER_LEN as u64 > file_len {
            break TailState::Torn; // partial header
        }
        let mut header = [0u8; HEADER_LEN];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut header)?;
        let magic = u16::from_be_bytes([header[0], header[1]]);
        if magic != MAGIC {
            break TailState::Corrupt {
                offset,
                what: "bad magic",
            };
        }
        let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]);
        let expected_crc = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
        let end = offset + HEADER_LEN as u64 + len as u64;
        if end > file_len {
            break TailState::Torn; // payload runs past EOF
        }
        let mut payload = vec![0u8; len as usize];
        file.read_exact(&mut payload)?;
        if crc32(&payload) != expected_crc {
            break TailState::Corrupt {
                offset,
                what: "checksum mismatch",
            };
        }
        records.push((offset, len));
        offset = end;
    };
    Ok(SegmentScan {
        records,
        valid_len: offset,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir() -> crate::ScratchDir {
        let dir = crate::ScratchDir::new("seg-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read_record_at(dir: &Path, id: SegmentId, offset: u64) -> Result<Vec<u8>, StorageError> {
        let file = File::open(segment_path(dir, id))?;
        read_record_from(&file, offset, u64::MAX, 0)
    }

    #[test]
    fn sync_dir_fails_on_a_directory_it_cannot_open() {
        let dir = tempdir();
        sync_dir(&dir).unwrap();
        assert!(sync_dir(&dir.join("missing")).is_err());
    }

    #[test]
    fn append_and_read_back() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        let o1 = w.append(b"first").unwrap();
        let o2 = w.append(b"second record").unwrap();
        assert_eq!(read_record_at(&dir, 0, o1).unwrap(), b"first");
        assert_eq!(read_record_at(&dir, 0, o2).unwrap(), b"second record");
    }

    /// The format every record is written in, one field at a time — the
    /// oracle [`Frames`] is checked against.
    fn framed_by_hand(payloads: &[&[u8]]) -> Vec<u8> {
        let mut expect = Vec::new();
        for p in payloads {
            expect.extend_from_slice(&MAGIC.to_be_bytes());
            expect.extend_from_slice(&(p.len() as u32).to_be_bytes());
            expect.extend_from_slice(&crc32(p).to_be_bytes());
            expect.extend_from_slice(p);
        }
        expect
    }

    #[test]
    fn on_disk_bytes_are_exactly_magic_len_crc_payload() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        let payloads: [&[u8]; 3] = [b"", b"x", b"hello wedgeblock"];
        for p in payloads {
            w.append(p).unwrap();
        }
        let on_disk = std::fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!(on_disk, framed_by_hand(&payloads));
    }

    #[test]
    fn frames_are_the_segment_format_and_know_their_records() {
        let payloads: [&[u8]; 4] = [b"", b"x", b"hello wedgeblock", &[0xAB; 300]];
        let frames = Frames::from_payloads(&payloads);
        assert_eq!(frames.as_bytes(), framed_by_hand(&payloads));
        assert_eq!(frames.len(), 4);
        assert_eq!(frames.framed_lens(), payloads.map(|p| HEADER_LEN + p.len()));
        // The exact capacity hint holds every byte: framing never reallocated.
        assert_eq!(frames.as_bytes().len(), frames.bytes.capacity());
        // A payload pushed in pieces frames as if pushed whole.
        let mut pieces = Frames::default();
        pieces.push_slices(&[b"hello".as_slice(), b" ", b"wedgeblock"]);
        assert_eq!(
            pieces.as_bytes(),
            framed_by_hand(&[b"hello wedgeblock".as_slice()])
        );
        // One run of frames is one write and lands byte-identically.
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.write_frames(frames.as_bytes()).unwrap();
        assert_eq!(w.len(), frames.as_bytes().len() as u64);
        let scan = scan_segment(&dir, 0).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.tail, TailState::Clean);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        let o = w.append(b"").unwrap();
        assert_eq!(read_record_at(&dir, 0, o).unwrap(), b"");
    }

    #[test]
    fn scan_finds_all_records() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 3).unwrap();
        for i in 0..10u32 {
            w.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        let scan = scan_segment(&dir, 3).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.valid_len, w.len());
    }

    #[test]
    fn scan_stops_at_torn_payload() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(b"intact-1").unwrap();
        w.append(b"intact-2").unwrap();
        w.append(b"this record will be torn").unwrap();
        let full = w.len();
        drop(w);
        // Chop 5 bytes off the final record's payload.
        let path = segment_path(&dir, 1);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        let scan = scan_segment(&dir, 1).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.tail, TailState::Torn);
    }

    #[test]
    fn scan_stops_at_corrupt_crc() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 2).unwrap();
        let o0 = w.append(b"good").unwrap();
        let o1 = w.append(b"to be corrupted").unwrap();
        w.append(b"unreachable after corruption").unwrap();
        drop(w);
        // Flip one payload byte of the middle record.
        let path = segment_path(&dir, 2);
        let mut data = std::fs::read(&path).unwrap();
        let payload_start = (o1 as usize) + HEADER_LEN;
        data[payload_start] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let scan = scan_segment(&dir, 2).unwrap();
        assert_eq!(scan.records, vec![(o0, 4)]);
        assert_eq!(
            scan.tail,
            TailState::Corrupt {
                offset: o1,
                what: "checksum mismatch"
            }
        );
    }

    #[test]
    fn open_at_truncates_and_appends() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.append(b"keep").unwrap();
        let torn_from = w.len();
        w.append(b"discard-me").unwrap();
        drop(w);
        let mut w = SegmentWriter::open_at(&dir, 0, torn_from).unwrap();
        let o = w.append(b"replacement").unwrap();
        w.sync().unwrap();
        assert_eq!(o, torn_from);
        assert_eq!(read_record_at(&dir, 0, o).unwrap(), b"replacement");
        let scan = scan_segment(&dir, 0).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.tail, TailState::Clean);
    }

    #[test]
    fn rewind_drops_records_and_trailer_alike() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.append(b"keep").unwrap();
        let keep = w.len();
        w.append(b"written, then dropped").unwrap();
        w.write_trailer(b"and a trailer").unwrap();
        w.rewind(keep).unwrap();
        assert_eq!(w.len(), keep);
        assert_eq!(w.append(b"next").unwrap(), keep);
        w.sync().unwrap();
        let scan = scan_segment(&dir, 0).unwrap();
        assert_eq!(scan.records, vec![(0, 4), (keep, 4)]);
        assert_eq!(scan.tail, TailState::Clean);
    }

    #[test]
    fn a_sealed_writer_takes_no_more_records() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.append(b"last").unwrap();
        w.mark_sealed();
        assert!(w.is_sealed());
        assert!(w.append(b"too late").is_err());
    }

    #[test]
    fn read_at_bad_offset_is_error() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.append(b"only").unwrap();
        // Offset 3 lands mid-record: magic check must fail (or read error).
        assert!(read_record_at(&dir, 0, 3).is_err());
    }
}
