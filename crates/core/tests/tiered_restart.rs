//! Kill-and-recover test for tiered storage + two-plane checkpoints.
//!
//! A child process (this binary re-executed with `WEDGE_TIER_CRASH_DIR`
//! set) runs a full node under `SyncPolicy::GroupCommit` with small
//! segments and a checkpoint every other stage-2 group, streaming large
//! entries until the log has grown past a configurable floor
//! (`WEDGE_TIER_TARGET_MB`, default 100) and a checkpoint is on disk. The
//! child's publisher keeps every reply in a durable receipt store before
//! `append_batch` returns: each is a durability promise under the protocol.
//! The child then stops its chain's miner, so no group is recorded and no
//! checkpoint taken from there on, and keeps streaming; once one batch has
//! been replied to after the stop, the parent SIGKILLs it mid-flight. The
//! restart has a non-empty tail to replay, and the kill can land in a
//! group-commit write or a segment seal.
//!
//! The parent then restarts a node over the same directory and asserts the
//! tentpole properties end to end:
//!
//! - **reply ⇒ durable** and **gapless positions**: `wedge_core::audit`
//!   over the stored replies and the log the restarted node reads back;
//! - **O(tail) restart**: `restart_replayed_records` is a small fraction of
//!   the store's record count, and not zero — the node restored a
//!   checkpoint and replayed only the uncheckpointed tail instead of
//!   re-reading ~100 MB;
//! - **sealing happened and survived**: sealed (`.wcold`) segments exist on
//!   disk after the kill (segments seal as they rotate).
//!
//! Two in-process tests cover the restarts around it: a torn trailing
//! batch is dropped from the store, and retention deletes segments behind
//! its window while the node keeps restarting from what is left.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_chain::{Chain, ChainConfig, Encoder, Wei};
use wedge_core::{
    audit, deploy_service, CoreError, EntryId, LocalNode, NodeConfig, OffchainNode, Publisher,
    ReceiptStore, ServiceConfig, TierConfig, Transcript,
};
use wedge_crypto::signer::Identity;
use wedge_sim::Clock;
use wedge_storage::{LogStore, ScratchDir, StorageError, StoreConfig, SyncPolicy};

const CRASH_DIR_VAR: &str = "WEDGE_TIER_CRASH_DIR";
const TARGET_MB_VAR: &str = "WEDGE_TIER_TARGET_MB";
/// The file the child creates once a batch no checkpoint covers has been
/// replied to.
const TAIL_MARK: &str = "tail";

/// Entries per `append_batch` call.
const BATCH: usize = 4;
/// Payload bytes per entry: big, so the log reaches 100 MB on ~100 entries
/// and hashing stays the bottleneck, not per-entry fixed costs (per-entry
/// ECDSA sign/verify is the dominant term in unoptimized builds).
const PAYLOAD: usize = 1024 * 1024;

fn target_bytes(default_mb: u64) -> u64 {
    let mb = std::env::var(TARGET_MB_VAR)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_mb);
    mb * 1024 * 1024
}

fn tier_config() -> NodeConfig {
    NodeConfig {
        batch_size: BATCH,
        batch_linger: Duration::from_millis(5),
        verify_requests: false,
        stage2_max_group: 4,
        tier: TierConfig {
            // Checkpoint after every other stage-2 group: the replayed tail
            // is the group since the last checkpoint, if any, plus what
            // stage 1 flushed after it.
            checkpoint_every_groups: 2,
            checkpoint_interval: Duration::from_secs(3600),
            retain_positions: None,
        },
        store: StoreConfig {
            // Rotate every ~4 MB so segments seal throughout the run.
            max_segment_bytes: 4 * 1024 * 1024,
            sync: SyncPolicy::GroupCommit {
                max_batches: 4,
                max_delay: Duration::from_millis(2),
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

fn payload(seq: u64) -> Vec<u8> {
    let mut p = format!("tier-{seq:08}-").into_bytes();
    p.resize(PAYLOAD, 0xAB);
    p
}

struct World {
    chain: Arc<Chain>,
    node_identity: Identity,
    client_identity: Identity,
    root_record: wedge_chain::Address,
    miner: wedge_chain::MinerHandle,
}

/// Chain + contracts from fixed seeds: the child and the restarting parent
/// build identical worlds around the same on-disk node directory. Inline
/// rather than a `LocalNode`, which owns a fresh directory: here two
/// processes share one, and the first is SIGKILLed.
fn world() -> World {
    let clock = Clock::compressed(2000.0);
    let chain = Chain::new(clock, ChainConfig::default());
    let node_identity = Identity::from_seed(b"tier-crash-node");
    let client_identity = Identity::from_seed(b"tier-crash-client");
    chain.fund(node_identity.address(), Wei::from_eth(1000));
    chain.fund(client_identity.address(), Wei::from_eth(1000));
    let miner = chain.start_miner();
    let deployment = deploy_service(
        &chain,
        &node_identity,
        client_identity.address(),
        &ServiceConfig {
            escrow: Wei::from_eth(32),
            payment_terms: None,
        },
    )
    .expect("deploy contracts");
    World {
        chain,
        node_identity,
        client_identity,
        root_record: deployment.root_record,
        miner,
    }
}

fn start_node(w: &World, dir: &Path) -> Arc<OffchainNode> {
    Arc::new(
        OffchainNode::start(
            w.node_identity.clone(),
            tier_config(),
            Arc::clone(&w.chain),
            w.root_record,
            dir,
        )
        .expect("start node"),
    )
}

/// Child mode: stream batches, each reply stored durably before
/// `append_batch` returns, until the log holds `target` bytes and a
/// checkpoint is on disk. Then let stage 2 catch up and stop the miner:
/// every later batch is flushed and replied to but never recorded, so no
/// checkpoint covers it. Mark the first such reply and stream on until the
/// SIGKILL.
fn crash_workload(dir: &Path, target: u64) -> ! {
    let w = world();
    let node = start_node(&w, &dir.join("node"));
    let log_dir = dir.join("node").join("log");
    let ckpt_dir = dir.join("node").join("checkpoints");
    let mut p = Publisher::new(
        w.client_identity.clone(),
        Arc::clone(&node),
        Arc::clone(&w.chain),
        w.root_record,
        None,
    )
    .with_receipt_store(dir.join("receipts"))
    .unwrap();
    let mut next = 0u64;
    let mut append = |p: &mut Publisher| {
        let batch: Vec<Vec<u8>> = (next..next + BATCH as u64).map(payload).collect();
        p.append_batch(batch).expect("append");
        next += BATCH as u64;
    };
    while dir_bytes(&log_dir) < target || count_files_with_ext(&ckpt_dir, "wckp") == 0 {
        append(&mut p);
    }
    node.wait_stage2_idle(Duration::from_secs(600))
        .expect("stage 2 catches up");
    drop(w.miner);
    append(&mut p);
    std::fs::write(dir.join(TAIL_MARK), b"").unwrap();
    loop {
        append(&mut p);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn count_files_with_ext(dir: &Path, ext: &str) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().map(|x| x == ext).unwrap_or(false))
        .count()
}

fn scratch(tag: &str) -> ScratchDir {
    let dir = ScratchDir::new(&format!("tier-crash-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fraction of the store's records the restart is allowed to replay:
/// `replayed * strictness < total` must hold. The 100 MB run uses 4 (the
/// tail is a handful of batches out of ~25); the quick run only requires
/// the checkpoint to have engaged at all (`> 1`).
fn kill_and_recover(test_name: &str, tag: &str, default_mb: u64, strictness: u64) {
    let target = target_bytes(default_mb);
    if let Ok(dir) = std::env::var(CRASH_DIR_VAR) {
        crash_workload(Path::new(&dir), target);
    }

    let dir = scratch(tag);
    let log_dir = dir.join("node").join("log");
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .arg(test_name)
        .arg("--exact")
        .arg("--include-ignored")
        .arg("--nocapture")
        .arg("--test-threads=1")
        .env(CRASH_DIR_VAR, dir.path())
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the child's mark — its log past the target, a checkpoint
    // written and a reply stored that no checkpoint covers, so the recovery
    // path has both promises to honour — then SIGKILL it mid-flight: no
    // destructors, no final checkpoint, exactly like a power cut.
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        if dir.join(TAIL_MARK).exists() {
            break;
        }
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited early ({status}) before reaching {target} log bytes");
        }
        assert!(
            Instant::now() < deadline,
            "child never reached {target} log bytes (at {})",
            dir_bytes(&log_dir)
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    child.kill().unwrap();
    child.wait().unwrap();

    // Segments rotated in the child and their seals survived the kill.
    assert!(
        count_files_with_ext(&log_dir, "wcold") > 0,
        "no sealed segments on disk after the kill"
    );

    // Recover: a fresh world around the child's on-disk state.
    let w = world();
    let node = start_node(&w, &dir.join("node"));
    let stats = node.stats();

    // O(tail) restart: the store holds one header record per position plus
    // one per entry; a full replay would touch all of them. Restoring from
    // the newest checkpoint must leave only a small tail.
    let total_records = node.entry_count() + node.log_positions();
    assert!(
        stats.restart_replayed_records > 0,
        "the restart replayed nothing: the checkpoint covers the whole log"
    );
    assert!(
        stats.restart_replayed_records * strictness < total_records,
        "restart replayed {} of {} records — checkpoint restore did not engage",
        stats.restart_replayed_records,
        total_records
    );

    // Reply ⇒ durable, gapless positions: every stored reply is in the
    // log the restarted node reads back.
    let mut t = Transcript::new(*w.node_identity.public_key());
    t.replies = ReceiptStore::open(dir.join("receipts"))
        .unwrap()
        .pending()
        .unwrap();
    assert!(!t.replies.is_empty(), "the child stored no reply");
    t.restarted(&*node);
    let verdict = audit(&t);
    assert!(verdict.is_safe(), "{verdict:?}");
}

/// Quick tier-1 variant: a ~16 MB log, enough for a couple of seals and
/// checkpoints, killed and recovered in well under a minute.
#[test]
fn tiered_node_kill_recover_quick() {
    kill_and_recover("tiered_node_kill_recover_quick", "quick", 16, 2);
}

/// The full acceptance run: a ≥100 MB log (protocol hashing makes this a
/// multi-minute test in unoptimized builds, so it is ignored by default and
/// run explicitly by the CI analysis job).
#[test]
#[ignore = "multi-minute: ≥100 MB through three keccak passes per byte in dev builds"]
fn tiered_node_survives_sigkill_and_restarts_from_checkpoint() {
    kill_and_recover(
        "tiered_node_survives_sigkill_and_restarts_from_checkpoint",
        "full",
        100,
        4,
    );
}

/// The store records of a batch torn by a crash: its header, announcing
/// `count` entries, and the first `written` of its leaf records.
fn write_torn_batch(log_dir: &Path, log_id: u64, count: u64, written: usize) {
    let store = LogStore::open(log_dir, StoreConfig::default()).unwrap();
    let mut header = Encoder::new();
    header.u8(0x01).u64(log_id).u64(count).bytes(&[0; 32]);
    store.append(&header.finish()).unwrap();
    for i in 0..written {
        let mut leaf = Encoder::new();
        leaf.u8(0x02).bytes(format!("torn-{i}").as_bytes());
        store.append(&leaf.finish()).unwrap();
    }
    store.sync().unwrap();
}

fn entries(tag: &str, n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("{tag}-{i}").into_bytes()).collect()
}

/// A crash can leave a batch's header and some of its leaves on disk. That
/// batch was never acknowledged, so the restart drops it — from the store
/// too, or the next batch would land behind its orphan records and every
/// later restart would misread them.
#[test]
fn a_torn_trailing_batch_is_dropped_from_the_store_at_restart() {
    let mut local = LocalNode::start("tier-torn", NodeConfig::default()).unwrap();
    let mut publisher = local.publisher();
    publisher.append_batch(entries("before", 8)).unwrap();
    local.shutdown().unwrap();
    let positions = local.node().log_positions();
    write_torn_batch(&local.dir().join("log"), positions, 4, 2);

    local.restart(NodeConfig::default()).expect("first restart");
    assert_eq!(
        local.node().log_positions(),
        positions,
        "torn batch dropped"
    );
    publisher.append_batch(entries("after", 4)).unwrap();
    local
        .restart(NodeConfig::default())
        .expect("second restart");

    let node = local.node();
    assert_eq!(node.entry_count(), 12);
    let reader = local.reader();
    for log_id in 0..node.log_positions() {
        let count = node.read_log_position_len(log_id).unwrap();
        for offset in 0..count {
            let entry = reader.read(EntryId { log_id, offset }).unwrap();
            assert!(!entry.request.payload.starts_with(b"torn"));
        }
    }
}

/// Retention on: small segments, a checkpoint per group, and a window of
/// `RETAIN` positions. Segments wholly behind the window are deleted;
/// reads there fail as retired, reads inside it still verify, and the node
/// restarts cleanly from what is left — twice, with an append between.
#[test]
fn retention_retires_segments_behind_the_window_and_restarts_cleanly() {
    const RETAIN: u64 = 8;
    const ROUNDS: u64 = 24;
    let config = || NodeConfig {
        batch_size: 4,
        verify_requests: false,
        stage2_max_group: 2,
        tier: TierConfig {
            checkpoint_every_groups: 1,
            checkpoint_interval: Duration::from_secs(3600),
            retain_positions: Some(RETAIN),
        },
        store: StoreConfig {
            max_segment_bytes: 8 * 1024,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut local = LocalNode::start("tier-retain", config()).unwrap();
    let mut publisher = local.publisher();
    let payload = |round: u64| vec![vec![round as u8; 1024]; 4];
    for round in 0..ROUNDS {
        publisher.append_batch(payload(round)).unwrap();
    }
    local
        .node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .unwrap();
    // Shutdown joins the committer, which runs the last maintenance.
    local.shutdown().unwrap();
    let positions = local.node().log_positions();
    assert_eq!(positions, ROUNDS);
    assert!(local.node().stats().gc_deleted_segments > 0);

    let check = |local: &LocalNode, positions: u64| {
        let node = local.node();
        assert!(matches!(
            node.read(EntryId {
                log_id: 0,
                offset: 0
            }),
            Err(CoreError::Storage(StorageError::RecordRetired { .. }))
        ));
        let reader = local.reader();
        for log_id in positions - RETAIN..positions {
            let entry = reader.read(EntryId { log_id, offset: 3 }).unwrap();
            assert_eq!(entry.entry_id.log_id, log_id);
        }
    };
    local.restart(config()).expect("first restart");
    check(&local, positions);
    publisher.append_batch(payload(ROUNDS)).unwrap();
    local
        .node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .unwrap();
    local.restart(config()).expect("second restart");
    check(&local, positions + 1);
    assert_eq!(local.node().entry_count(), 4 * (ROUNDS + 1));
}
