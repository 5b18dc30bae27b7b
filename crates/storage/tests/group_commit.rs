//! Kill-and-recover test for the fsync group-commit policy.
//!
//! The release protocol under `SyncPolicy::GroupCommit` is: a reply may only
//! be sent after `ensure_durable(seq)` returns `Ok`. This test enforces the
//! end-to-end consequence — *no replied-to record is ever lost* — by running
//! the protocol in a child process, SIGKILLing it mid-stream, and asserting
//! that every sequence number the child "replied" to (recorded in a side
//! file only after `ensure_durable` succeeded) is still readable, with the
//! expected payload, after recovery.
//!
//! The child is this same test binary re-executed with `WEDGE_GC_CRASH_DIR`
//! set; the harness filter (`--exact`) steers it into the workload loop,
//! which runs until the parent kills it.

use std::io::Write;
use std::path::Path;
use std::sync::mpsc;
use std::time::Duration;

use wedge_storage::{LogStore, ScratchDir, StoreConfig, SyncPolicy};

const CRASH_DIR_VAR: &str = "WEDGE_GC_CRASH_DIR";
const BATCH: usize = 8;

fn config() -> StoreConfig {
    StoreConfig {
        max_segment_bytes: 16 * 1024, // rotate a few times during the run
        sync: SyncPolicy::GroupCommit {
            max_batches: 4,
            max_delay: Duration::from_millis(2),
        },
        ..Default::default()
    }
}

fn payload(seq: u64) -> Vec<u8> {
    format!("rec-{seq:08}").into_bytes()
}

/// Child mode: stream batches into the store on one thread while this
/// thread waits for durability and only then records each batch as
/// "released". The bounded channel keeps a couple of batches in flight so
/// appends overlap the `ensure_durable` waits, exactly like the node's
/// persist/deliver pipeline. Runs until SIGKILLed by the parent.
fn crash_workload(dir: &Path) -> ! {
    let store = std::sync::Arc::new(LogStore::open(dir.join("store"), config()).unwrap());
    let released_path = dir.join("released.txt");

    let (tx, rx) = mpsc::sync_channel::<u64>(2);

    // Appender thread: owns the sequence counter, streams batches.
    let appender_store = std::sync::Arc::clone(&store);
    std::thread::spawn(move || {
        let mut next = 0u64;
        loop {
            let batch: Vec<Vec<u8>> = (next..next + BATCH as u64).map(payload).collect();
            let first = appender_store.append_batch(&batch).unwrap();
            assert_eq!(first, next, "child store must start empty");
            next += BATCH as u64;
            if tx.send(next - 1).is_err() {
                return;
            }
        }
    });

    // Releaser (this thread): wait for durability, then record the release.
    // The released file is synced before the next iteration so a recorded
    // seq really was "replied to" before the crash.
    let mut released = std::fs::File::create(&released_path).unwrap();
    for last_seq in rx {
        store.ensure_durable(last_seq).unwrap();
        writeln!(released, "{last_seq}").unwrap();
        released.sync_data().unwrap();
    }
    unreachable!("channel never closes before SIGKILL");
}

fn scratch() -> ScratchDir {
    let dir = ScratchDir::new("gc-crash");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn group_commit_survives_sigkill_without_losing_released_records() {
    if let Ok(dir) = std::env::var(CRASH_DIR_VAR) {
        crash_workload(Path::new(&dir));
    }

    let dir = scratch();
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .arg("group_commit_survives_sigkill_without_losing_released_records")
        .arg("--exact")
        .arg("--nocapture")
        .arg("--test-threads=1")
        .env(CRASH_DIR_VAR, dir.path())
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Let the child stream batches for a while, then SIGKILL it mid-flight —
    // no destructors, no flushes, exactly like a power cut.
    std::thread::sleep(Duration::from_millis(500));
    child.kill().unwrap();
    child.wait().unwrap();

    // Recover. Every released seq must be present with the right payload.
    let released = std::fs::read_to_string(dir.join("released.txt")).unwrap();
    let released_seqs: Vec<u64> = released
        .lines()
        .map(|line| line.parse().expect("released file holds full lines only"))
        .collect();
    assert!(
        !released_seqs.is_empty(),
        "child must have released at least one batch in 500ms; \
         released.txt was empty (child failed to start?)"
    );

    let store = LogStore::open(dir.join("store"), config()).unwrap();
    let max_released = *released_seqs.iter().max().unwrap();
    assert!(
        store.len() > max_released,
        "recovered store len {} does not cover max released seq {max_released}",
        store.len()
    );
    for seq in 0..=max_released {
        assert_eq!(
            store.read(seq).unwrap(),
            payload(seq),
            "released record {seq} lost or corrupted after SIGKILL"
        );
    }
}

#[test]
fn released_after_crash_is_prefix_of_recovered_log() {
    // Deterministic single-process variant: ensure_durable + recovery with
    // an unclean drop (no sync on shutdown) never loses a released record.
    let scratch = scratch();
    let dir = scratch.join("prefix");
    let released;
    {
        let store = LogStore::open(&dir, config()).unwrap();
        let mut next = 0u64;
        for _ in 0..10 {
            let batch: Vec<Vec<u8>> = (next..next + BATCH as u64).map(payload).collect();
            store.append_batch(&batch).unwrap();
            next += BATCH as u64;
        }
        let last = next - 1;
        store.ensure_durable(last).unwrap();
        released = last;
        // Store dropped without a final sync: everything released must
        // already be on disk.
    }
    let store = LogStore::open(&dir, config()).unwrap();
    assert!(store.len() > released);
    for seq in 0..=released {
        assert_eq!(store.read(seq).unwrap(), payload(seq));
    }
}
