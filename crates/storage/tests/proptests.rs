//! Property-based tests for the storage engine: arbitrary append sequences
//! roundtrip, recovery preserves every record, and arbitrary tail
//! truncations of the file never corrupt the recovered prefix.

use proptest::prelude::*;
use wedge_storage::{LogStore, ScratchDir, StoreConfig};

fn scratch(tag: u64) -> ScratchDir {
    ScratchDir::new(&format!("storage-prop-{tag}"))
}

fn arb_records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn appends_roundtrip(records in arb_records(), seed in any::<u64>()) {
        let config = StoreConfig {
            max_segment_bytes: 512, // force frequent rotation
            ..Default::default()
        };
        let dir = scratch(seed);
        let store = LogStore::open(&dir, config).unwrap();
        for (i, record) in records.iter().enumerate() {
            let id = store.append(record).unwrap();
            prop_assert_eq!(id, i as u64);
        }
        for (i, record) in records.iter().enumerate() {
            prop_assert_eq!(&store.read(i as u64).unwrap(), record);
        }
    }

    #[test]
    fn recovery_preserves_everything(records in arb_records(), seed in any::<u64>()) {
        let dir = scratch(seed.wrapping_add(1));
        let config = StoreConfig {
            max_segment_bytes: 512,
            ..Default::default()
        };
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            for record in &records {
                store.append(record).unwrap();
            }
            store.sync().unwrap();
        }
        let store = LogStore::open(&dir, config).unwrap();
        prop_assert_eq!(store.len(), records.len() as u64);
        for (i, record) in records.iter().enumerate() {
            prop_assert_eq!(&store.read(i as u64).unwrap(), record);
        }
    }

    #[test]
    fn torn_tail_never_corrupts_prefix(records in arb_records(), chop in 1usize..64, seed in any::<u64>()) {
        // Write everything into ONE segment, then chop `chop` bytes off the
        // file end — recovery must yield an intact prefix.
        let dir = scratch(seed.wrapping_add(2));
        let config = StoreConfig::default(); // large segments: single file
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            for record in &records {
                store.append(record).unwrap();
            }
            store.sync().unwrap();
        }
        let seg = dir.join("seg-0000000000.wlog");
        let len = std::fs::metadata(&seg).unwrap().len();
        let new_len = len.saturating_sub(chop as u64);
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(new_len).unwrap();
        drop(f);
        let store = LogStore::open(&dir, config).unwrap();
        let survivors = store.len() as usize;
        prop_assert!(survivors <= records.len());
        for (i, record) in records.iter().take(survivors).enumerate() {
            prop_assert_eq!(&store.read(i as u64).unwrap(), record);
        }
    }
}
