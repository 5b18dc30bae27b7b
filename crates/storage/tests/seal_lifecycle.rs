//! The segment lifecycle pinned from outside: a golden sealed segment that
//! rotation must reproduce byte-for-byte, and every crash point of the
//! in-place seal (trailer torn at each length, trailer complete but not
//! renamed, renamed but no next tail) healed by the next open.
//!
//! `golden/seg-0000000000.wcold` was produced by the copy-seal this
//! lifecycle replaced (`ColdSegment::seal` at commit 32b8b9f) from the five
//! records of [`golden_payloads`]; the format is the oracle.

use std::path::Path;

use wedge_storage::{ColdSegment, LogStore, ScratchDir, StorageError, StoreConfig};

const GOLDEN: &[u8] = include_bytes!("golden/seg-0000000000.wcold");
const SEALED: &str = "seg-0000000000.wcold";
const UNSEALED: &str = "seg-0000000000.wlog";
const NEXT_TAIL: &str = "seg-0000000001.wlog";

fn golden_payloads() -> Vec<Vec<u8>> {
    vec![
        b"".to_vec(),
        b"x".to_vec(),
        b"hello wedgeblock".to_vec(),
        (0..=255u8).collect(),
        b"the log entry is then persisted to local storage".to_vec(),
    ]
}

/// The five golden records fill a segment; the next append rotates.
fn config() -> StoreConfig {
    StoreConfig {
        max_segment_bytes: 384,
        ..Default::default()
    }
}

fn scratch(tag: &str) -> ScratchDir {
    let dir = ScratchDir::new(&format!("seal-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn golden_data_len() -> usize {
    let dir = scratch("golden-len");
    std::fs::write(dir.join(SEALED), GOLDEN).unwrap();
    ColdSegment::open(&dir, 0).unwrap().data_len() as usize
}

#[test]
fn rotation_reproduces_the_golden_sealed_segment() {
    let dir = scratch("golden-rot");
    let store = LogStore::open(&dir, config()).unwrap();
    for payload in golden_payloads() {
        store.append(&payload).unwrap();
    }
    assert_eq!(file_names(&dir), [UNSEALED]);
    store.append(&[0xAB; 32]).unwrap();
    assert_eq!(file_names(&dir), [SEALED, NEXT_TAIL]);
    assert_eq!(std::fs::read(dir.join(SEALED)).unwrap(), GOLDEN);
}

#[test]
fn the_golden_sealed_segment_still_opens_and_reads() {
    let dir = scratch("golden-read");
    std::fs::write(dir.join(SEALED), GOLDEN).unwrap();
    let segment = ColdSegment::open(&dir, 0).unwrap();
    assert_eq!(segment.first_seq(), 0);
    assert_eq!(segment.record_count(), 5);
    for (seq, payload) in golden_payloads().iter().enumerate() {
        assert_eq!(&segment.read(seq as u64).unwrap(), payload);
    }
}

/// Reopens `dir` and checks what every healed crash point must look like:
/// the five records, the seal finished byte-for-byte, a writable tail.
fn assert_healed(dir: &Path, scanned_segments: u64, what: &str) {
    let store = LogStore::open(dir, config()).unwrap();
    assert_eq!(
        store.recovery_stats().scanned_segments,
        scanned_segments,
        "{what}"
    );
    assert_eq!(file_names(dir), [SEALED, NEXT_TAIL], "{what}");
    assert_eq!(std::fs::read(dir.join(SEALED)).unwrap(), GOLDEN, "{what}");
    assert_eq!(store.len(), 5, "{what}");
    for (seq, payload) in golden_payloads().iter().enumerate() {
        assert_eq!(&store.read(seq as u64).unwrap(), payload, "{what}");
    }
    assert_eq!(store.append(b"after the crash").unwrap(), 5, "{what}");
    assert_eq!(store.read(5).unwrap(), b"after the crash", "{what}");
    drop(store);
    // Healing is done once; the next open finds a plain sealed + tail store.
    let store = LogStore::open(dir, config()).unwrap();
    assert_eq!(store.recovery_stats().cold_segments, 1, "{what}");
    assert_eq!(store.len(), 6, "{what}");
}

#[test]
fn a_seal_torn_at_any_trailer_length_is_finished_on_open() {
    let data_len = golden_data_len();
    // 1 byte of trailer … the whole trailer, written but not yet renamed.
    for upto in data_len + 1..=GOLDEN.len() {
        let dir = scratch("torn-seal");
        std::fs::write(dir.join(UNSEALED), &GOLDEN[..upto]).unwrap();
        let what = format!("{} trailer bytes on disk", upto - data_len);
        assert_healed(&dir, 1, &what);
    }
}

#[test]
fn a_seal_renamed_without_a_next_tail_gets_one_on_open() {
    let dir = scratch("no-next-tail");
    std::fs::write(dir.join(SEALED), GOLDEN).unwrap();
    // Nothing to scan: the sealed segment describes itself.
    assert_healed(&dir, 0, "renamed, no next tail");
}

#[test]
fn a_full_tail_with_no_trailer_byte_is_still_just_the_tail() {
    let dir = scratch("no-trailer");
    std::fs::write(dir.join(UNSEALED), &GOLDEN[..golden_data_len()]).unwrap();
    let store = LogStore::open(&dir, config()).unwrap();
    assert_eq!(store.recovery_stats().scanned_segments, 1);
    assert_eq!(file_names(&dir), [UNSEALED]);
    assert_eq!(store.len(), 5);
    // The next append finds the tail full and seals it.
    assert_eq!(store.append(&[0xAB; 32]).unwrap(), 5);
    assert_eq!(std::fs::read(dir.join(SEALED)).unwrap(), GOLDEN);
}

#[test]
fn a_corrupt_record_under_a_torn_seal_still_fails_open() {
    let data_len = golden_data_len();
    for upto in [data_len + 1, data_len + 20, GOLDEN.len()] {
        let dir = scratch("torn-seal-corrupt");
        let mut bytes = GOLDEN[..upto].to_vec();
        bytes[data_len - 1] ^= 0x01; // last payload byte of the last record
        std::fs::write(dir.join(UNSEALED), &bytes).unwrap();
        assert!(
            matches!(
                LogStore::open(&dir, config()),
                Err(StorageError::CorruptRecord { .. })
            ),
            "{} trailer bytes on disk",
            upto - data_len
        );
        assert_eq!(file_names(&dir), [UNSEALED], "nothing was sealed");
    }
}

#[test]
fn trailing_bytes_that_are_not_a_trailer_prefix_still_fail_open() {
    let data_len = golden_data_len();
    let dir = scratch("not-a-trailer");
    let mut bytes = GOLDEN.to_vec();
    bytes[data_len + 12] ^= 0x01; // inside the locator block
    std::fs::write(dir.join(UNSEALED), &bytes).unwrap();
    assert!(matches!(
        LogStore::open(&dir, config()),
        Err(StorageError::CorruptRecord { .. })
    ));
}

#[test]
fn a_copy_seal_crash_from_the_old_layout_is_healed_on_open() {
    // The copy-seal crashed after renaming the `.wcold` into place and
    // before unlinking the `.wlog`; its `index.widx` is still around.
    let dir = scratch("both-files");
    std::fs::write(dir.join(SEALED), GOLDEN).unwrap();
    std::fs::write(dir.join(UNSEALED), &GOLDEN[..golden_data_len()]).unwrap();
    std::fs::write(dir.join("index.widx"), b"a locator checkpoint").unwrap();
    assert_healed(&dir, 0, "both files, sealed wins");
}

/// A store holding the first `n` golden records in its tail.
fn store_with_golden_records(dir: &Path, n: usize) -> LogStore {
    let store = LogStore::open(dir, config()).unwrap();
    for payload in &golden_payloads()[..n] {
        store.append(payload).unwrap();
    }
    store
}

fn assert_golden_reads(store: &LogStore, what: &str) {
    for (seq, payload) in golden_payloads().iter().enumerate() {
        assert_eq!(&store.read(seq as u64).unwrap(), payload, "{what}");
    }
}

#[test]
fn a_rotation_that_cannot_create_the_next_tail_is_finished_by_a_later_append() {
    let dir = scratch("create-fails");
    let store = store_with_golden_records(&dir, 5);
    // A directory squats on the next tail's name: the seal goes through,
    // creating the successor does not.
    std::fs::create_dir(dir.join(NEXT_TAIL)).unwrap();
    assert!(store.append(&[0xAB; 32]).is_err());
    assert_eq!(std::fs::read(dir.join(SEALED)).unwrap(), GOLDEN);
    // A record that would have fit the old tail must not land after the
    // trailer: it waits for the successor too.
    assert!(store.append(b"x").is_err());
    assert_eq!(std::fs::read(dir.join(SEALED)).unwrap(), GOLDEN);
    assert_eq!(store.len(), 5);
    assert_golden_reads(&store, "next tail missing");

    std::fs::remove_dir(dir.join(NEXT_TAIL)).unwrap();
    assert_eq!(store.append(b"x").unwrap(), 5);
    assert_eq!(store.read(5).unwrap(), b"x");
    assert_eq!(store.tier_stats().segments_sealed, 1);
    assert_eq!(file_names(&dir), [SEALED, NEXT_TAIL]);
    drop(store);
    let store = LogStore::open(&dir, config()).unwrap();
    assert_eq!(store.len(), 6);
    assert_golden_reads(&store, "reopened");
    assert_eq!(store.read(5).unwrap(), b"x");
}

#[test]
fn a_failed_seal_leaves_no_trailer_and_no_part_of_the_batch_behind() {
    let dir = scratch("seal-fails");
    let store = store_with_golden_records(&dir, 3);
    let three_records = std::fs::read(dir.join(UNSEALED)).unwrap();
    let payloads = golden_payloads();
    let batch = [&payloads[3][..], &payloads[4][..], &[0xAB; 32][..]];
    // A non-empty directory squats on the sealed name: trailer and fsync go
    // through, the rename does not.
    std::fs::create_dir_all(dir.join(SEALED).join("squatter")).unwrap();
    for attempt in 0..2 {
        assert!(store.append_batch(&batch).is_err(), "attempt {attempt}");
        assert_eq!(store.len(), 3, "a failed batch is not indexed");
        assert!(store.read(3).is_err());
        store.sync().unwrap();
        assert_eq!(
            std::fs::read(dir.join(UNSEALED)).unwrap(),
            three_records,
            "attempt {attempt}: the tail is cut back to its indexed records"
        );
    }
    // A record that still fits is appended as if nothing had happened.
    assert_eq!(store.append(&payloads[3]).unwrap(), 3);

    std::fs::remove_dir_all(dir.join(SEALED)).unwrap();
    assert_eq!(store.append_batch(&batch[1..]).unwrap(), 4);
    assert_eq!(std::fs::read(dir.join(SEALED)).unwrap(), GOLDEN);
    assert_golden_reads(&store, "after the retry");
    assert_eq!(store.read(5).unwrap(), [0xAB; 32]);
    drop(store);
    let store = LogStore::open(&dir, config()).unwrap();
    assert_eq!(store.recovery_stats().cold_segments, 1);
    assert_eq!(store.len(), 6);
    assert_golden_reads(&store, "reopened");
}

#[test]
fn records_a_rotation_sealed_stay_when_the_rest_of_their_batch_fails() {
    let dir = scratch("sealed-then-failed");
    let store = store_with_golden_records(&dir, 3);
    let payloads = golden_payloads();
    let batch = [&payloads[3][..], &payloads[4][..], &[0xAB; 32][..]];
    std::fs::create_dir(dir.join(NEXT_TAIL)).unwrap();
    assert!(store.append_batch(&batch).is_err());
    // Records 3 and 4 were sealed (and fsynced) with the segment; the index
    // says what the disk says.
    assert_eq!(store.len(), 5);
    assert_eq!(std::fs::read(dir.join(SEALED)).unwrap(), GOLDEN);
    assert_golden_reads(&store, "sealed before the failure");
    std::fs::remove_dir(dir.join(NEXT_TAIL)).unwrap();
    assert_eq!(store.append(&[0xAB; 32]).unwrap(), 5);
    drop(store);
    assert_eq!(LogStore::open(&dir, config()).unwrap().len(), 6);
}
