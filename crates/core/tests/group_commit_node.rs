//! Node-level coverage for the fsync group-commit + overlapped-replication
//! persist stage: a node running `SyncPolicy::GroupCommit` must retain every
//! replied-to entry across a restart that rebuilds from the log, and the new pipeline counters
//! (`fsyncs_coalesced`, `replication_overlap_ns`, `merkle_par_chunks`) must
//! be observable through `NodeStats`.

use std::time::Duration;

use wedge_core::{LocalNode, NodeConfig};
use wedge_storage::{StoreConfig, SyncPolicy};

fn group_commit_config(batch_size: usize) -> NodeConfig {
    NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(5),
        // Keep the collect stage cheap so the persist stage can run ahead
        // and actually accumulate a group (with verification on, collect is
        // the pipeline bottleneck and batches arrive one at a time).
        verify_requests: false,
        replicas: 2,
        replica_link_delay: Duration::from_micros(100),
        store: StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 4,
                // Generous delay budget: the covering sync should come from
                // the max_batches threshold, not per-batch deadline syncs.
                max_delay: Duration::from_millis(50),
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("gc-entry-{i}").into_bytes())
        .collect()
}

/// Every entry a group-commit node replied to must survive a node restart:
/// the deliver stage only releases replies after `ensure_durable`, so a
/// reply *is* a durability promise even though fsyncs are coalesced.
#[test]
fn group_commit_node_retains_all_replied_entries_across_restart() {
    let mut w = LocalNode::start("gc-restart", group_commit_config(8)).expect("start node");
    let total = 64usize;
    let mut t = w.transcript();
    {
        let node = w.node();
        // append_batch only returns once every reply arrived — i.e. once the
        // node promised durability for all `total` entries.
        t.replies = w
            .publisher()
            .append_batch(payloads(total))
            .expect("append")
            .responses;
        node.wait_stage2_idle(Duration::from_secs(3600)).unwrap();

        let stats = node.stats();
        assert_eq!(stats.entries_ingested, total as u64);
        // 64 entries / batch_size 8 = 8 batches through a max_batches=4
        // group: at least one fsync must have been coalesced away.
        assert!(
            stats.fsyncs_coalesced > 0,
            "expected coalesced fsyncs, stats: {stats:?}"
        );
        // Replication (2 replicas) overlapped the local persist work.
        assert!(
            stats.replication_overlap_ns > 0,
            "expected overlap accounting, stats: {stats:?}"
        );
    }

    // Restart over the same directory without the checkpoint, so the
    // state is rebuilt from the log alone: every replied entry must be
    // there.
    w.shutdown().expect("shut down");
    std::fs::remove_dir_all(w.dir().join("checkpoints")).expect("drop checkpoints");
    w.restart(group_commit_config(8)).expect("restart node");
    t.restarted(&**w.node());
    let verdict = w.audit(&mut t).expect("chain record");
    assert!(verdict.is_settled(), "{verdict:?}");
}

/// The parallel Merkle path is exercised (and counted) once a batch reaches
/// the configured cutoff — with a multi-worker pool — while a cutoff of
/// `usize::MAX` keeps the builder serial. On single-core machines the pool
/// clamps to one worker and the counter legitimately stays 0, so the
/// positive half only asserts when parallelism is actually available.
#[test]
fn merkle_parallel_cutoff_governs_chunk_accounting() {
    let mut config = group_commit_config(32);
    config.merkle_parallel_cutoff = usize::MAX;
    {
        let w = LocalNode::start("gc-cutoff-serial", config.clone()).expect("start node");
        w.publisher().append_batch(payloads(64)).expect("append");
        w.node()
            .wait_stage2_idle(Duration::from_secs(3600))
            .unwrap();
        assert_eq!(
            w.node().stats().merkle_par_chunks,
            0,
            "cutoff usize::MAX must force the serial builder"
        );
    }

    config.merkle_parallel_cutoff = 8;
    let w = LocalNode::start("gc-cutoff-parallel", config).expect("start node");
    w.publisher().append_batch(payloads(64)).expect("append");
    w.node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .unwrap();
    let stats = w.node().stats();
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        > 1
    {
        assert!(
            stats.merkle_par_chunks > 0,
            "batches of 32 over cutoff 8 must dispatch parallel chunks, stats: {stats:?}"
        );
    } else {
        assert_eq!(stats.merkle_par_chunks, 0, "single-core pool stays inline");
    }
}
