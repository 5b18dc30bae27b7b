//! Same bytes, fewer passes: a batch framed once and written by the primary
//! and both replicas leaves byte-identical segment files — identical, too,
//! to a store fed the same records one at a time — at one `write(2)` per
//! part per segment it lands in.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use wedge_storage::{Frames, LogStore, Replicator, ScratchDir, StoreConfig};

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn config(max_segment_bytes: u64) -> StoreConfig {
    StoreConfig {
        max_segment_bytes,
        ..StoreConfig::default()
    }
}

/// `payloads` split into `parts` spans of near-equal length, as the node's
/// workers frame a batch.
fn parts_of(payloads: &[Vec<u8>], parts: usize) -> Vec<Frames> {
    payloads
        .chunks(payloads.len().div_ceil(parts).max(1))
        .map(Frames::from_payloads)
        .collect()
}

/// Appends `payloads` as one framed batch of `parts` parts to a primary
/// and two replicas, and one record at a time to a reference store; checks
/// that all four directories hold the same files, byte for byte, that
/// every record reads back, and that each framed store issued at most
/// (parts + rotations) record writes. Returns the rotations.
fn check(tag: &str, max_segment_bytes: u64, payloads: &[Vec<u8>], parts: usize) -> u64 {
    let dir = ScratchDir::new(&format!("frames-{tag}"));
    let frames = Arc::new(parts_of(payloads, parts));
    let replicator = Replicator::spawn(
        dir.join("replicas"),
        2,
        config(max_segment_bytes),
        Duration::ZERO,
    )
    .unwrap();
    let handle = replicator.replicate_frames(Arc::clone(&frames));
    let primary = LogStore::open(dir.join("primary"), config(max_segment_bytes)).unwrap();
    assert_eq!(primary.append_frames(&frames).unwrap(), 0, "{tag}");
    assert_eq!(handle.wait(), 2, "{tag}");
    drop(replicator);

    let reference = LogStore::open(dir.join("reference"), config(max_segment_bytes)).unwrap();
    for payload in payloads {
        reference.append(payload).unwrap();
    }
    primary.sync().unwrap();
    reference.sync().unwrap();

    let expect = files(&dir.join("reference"));
    assert_eq!(files(&dir.join("primary")), expect, "{tag}: primary");
    for i in 0..2 {
        let replica = dir.join("replicas").join(format!("replica-{i}"));
        assert_eq!(files(&replica), expect, "{tag}: replica {i}");
    }
    let n = payloads.len() as u64;
    assert_eq!(primary.read_range(0, n).unwrap(), payloads, "{tag}");

    let rotations = primary.tier_stats().segments_sealed;
    let writes = primary.sync_stats().writes;
    assert!(
        writes <= frames.len() as u64 + rotations,
        "{tag}: {writes} writes for {} parts and {rotations} rotations",
        frames.len()
    );
    rotations
}

/// 2,000 records of the node's leaf-record size.
fn two_thousand_records() -> Vec<Vec<u8>> {
    (0..2_000u32)
        .map(|i| {
            let mut record = vec![(i % 251) as u8; 1_198];
            record[..4].copy_from_slice(&i.to_be_bytes());
            record
        })
        .collect()
}

#[test]
fn a_two_thousand_record_batch_spanning_a_rotation_lands_identically_everywhere() {
    let records = two_thousand_records();
    // ~2.4 MB of records against 1 MiB segments: two rotations.
    for parts in [1, 2, 3, 8] {
        let rotations = check(&format!("2k-{parts}"), 1 << 20, &records, parts);
        assert_eq!(rotations, 2, "{parts} parts");
    }
}

#[test]
fn a_batch_that_exactly_fills_a_segment_rotates_on_the_next_record_only() {
    // Four 90 B records (100 B framed) fill a 400 B segment exactly.
    let records: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 90]).collect();
    assert_eq!(check("exact-fill", 400, &records[..4], 2), 0);
    assert_eq!(check("exact-fill-then-one", 400, &records[..5], 2), 1);
    assert_eq!(check("exact-fill-twice", 400, &records, 3), 1);
}

#[test]
fn an_oversized_single_record_gets_a_segment_of_its_own() {
    let records = vec![vec![1u8; 30], vec![2u8; 500], vec![3u8; 30]];
    // The big record cannot share a 256 B segment, nor fit one alone: it
    // rotates the small one away and is rotated away by the next.
    assert_eq!(check("oversized", 256, &records, 1), 2);
    assert_eq!(check("oversized-alone", 256, &records[1..2], 1), 0);
}
