//! Regression tests for the two-plane read path: every multi-value read
//! (`read_many`, `read_log_position`, `meta`) must be served from ONE
//! published snapshot, so concurrent stage-1 flushes can never tear a
//! result — a group of reads sees either none of a batch or all of it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use wedge_core::{AppendRequest, EntryId, LocalNode, NodeConfig};

/// `meta` returns `(positions, entries, position_len)` from one snapshot:
/// summing the (immutable, post-flush) per-position lengths over exactly
/// `positions` batches must reproduce `entries`, at every instant of a
/// concurrent ingestion run. The pre-refactor composed read (three separate
/// accessor calls) could interleave with a flush and report an `entries`
/// total that includes a batch missing from `positions`.
#[test]
fn meta_is_internally_consistent_under_concurrent_flushes() {
    let mut world = LocalNode::start(
        "meta",
        NodeConfig {
            batch_size: 5,
            batch_linger: Duration::from_millis(1),
            ..Default::default()
        },
    )
    .expect("start node");
    let total = 120u64;
    let stop = AtomicBool::new(false);
    let checks = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let node = world.node();
        let publisher = &world.client_identity;
        scope.spawn(|| {
            for seq in 0..total {
                let request = AppendRequest::new(
                    publisher.secret_key(),
                    seq,
                    format!("meta-{seq}").into_bytes(),
                );
                node.submit_with(request, Box::new(|_| {}))
                    .expect("submit while running");
                std::thread::sleep(Duration::from_micros(100));
            }
            stop.store(true, Ordering::Relaxed);
        });
        scope.spawn(|| {
            let mut last_positions = 0u64;
            let mut last_entries = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (positions, entries, first_len) = node.meta(0);
                // Monotonicity: the log only grows during ingestion.
                assert!(positions >= last_positions, "positions went backwards");
                assert!(entries >= last_entries, "entries went backwards");
                last_positions = positions;
                last_entries = entries;
                // Internal consistency: batch lengths are immutable once
                // flushed, so re-reading them must reproduce the counter.
                let sum: u64 = (0..positions)
                    .map(|l| {
                        u64::from(
                            node.read_log_position_len(l)
                                .expect("flushed position has a length"),
                        )
                    })
                    .sum();
                assert_eq!(
                    sum, entries,
                    "entries counter must equal the sum over exactly `positions` batches"
                );
                if positions > 0 {
                    assert_eq!(
                        first_len,
                        node.read_log_position_len(0),
                        "position_len in the triple matches the accessor"
                    );
                }
                checks.fetch_add(1, Ordering::Relaxed);
            }
        });
    });

    assert!(
        checks.load(Ordering::Relaxed) > 10,
        "the checker must observe the log mid-growth"
    );
    world.shutdown().unwrap();
    assert_eq!(world.node().entry_count(), total);
}

/// A `read_many` group and a `read_log_position` scan are all-or-nothing
/// with respect to a concurrently flushing batch: ids taken from one `meta`
/// observation always resolve, and a position scan returns the full batch.
#[test]
fn read_many_and_position_scans_are_atomic_per_snapshot() {
    let mut world = LocalNode::start(
        "group",
        NodeConfig {
            batch_size: 4,
            batch_linger: Duration::from_millis(1),
            ..Default::default()
        },
    )
    .expect("start node");
    let total = 80u64;
    let stop = AtomicBool::new(false);
    let key = world.node().public_key();

    std::thread::scope(|scope| {
        let node = world.node();
        let publisher = &world.client_identity;
        scope.spawn(|| {
            for seq in 0..total {
                let request = AppendRequest::new(
                    publisher.secret_key(),
                    seq,
                    format!("group-{seq}").into_bytes(),
                );
                node.submit_with(request, Box::new(|_| {}))
                    .expect("submit while running");
                std::thread::sleep(Duration::from_micros(150));
            }
            stop.store(true, Ordering::Relaxed);
        });
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let (positions, _, _) = node.meta(0);
                if positions == 0 {
                    continue;
                }
                // Whole-log read_many: every id derived from the meta
                // observation must resolve, even while later batches flush.
                let mut ids = Vec::new();
                for log_id in 0..positions {
                    let len = node
                        .read_log_position_len(log_id)
                        .expect("observed position exists");
                    ids.extend((0..len).map(|offset| EntryId { log_id, offset }));
                }
                for (id, result) in ids.iter().zip(node.read_many(&ids)) {
                    let response = result.unwrap_or_else(|e| {
                        panic!("entry {id:?} vanished from an observed snapshot: {e}")
                    });
                    response.verify(&key).expect("response verifies");
                }
                // Position scan: full batch, never a partial one.
                let last = positions - 1;
                let batch = node
                    .read_log_position(last)
                    .expect("observed position scans");
                assert_eq!(
                    batch.len() as u32,
                    node.read_log_position_len(last).expect("length"),
                    "a position scan returns the fully-registered batch"
                );
            }
        });
    });

    world.shutdown().unwrap();
}

/// Reads that race `destroy_tail` degrade to clean `EntryNotFound`-style
/// errors, never torn data: the plane is republished before the store is
/// truncated, so a fresh snapshot never references destroyed records.
#[test]
fn destroyed_tail_disappears_atomically() {
    let mut world = LocalNode::start(
        "destroy",
        NodeConfig {
            batch_size: 6,
            batch_linger: Duration::from_millis(1),
            ..Default::default()
        },
    )
    .expect("start node");
    let total = 60u64;
    for seq in 0..total {
        let request = AppendRequest::new(
            world.client_identity.secret_key(),
            seq,
            format!("destroy-{seq}").into_bytes(),
        );
        world
            .node()
            .submit_with(request, Box::new(|_| {}))
            .expect("submit");
    }
    // Drain stage 1 so the full log is flushed, but keep the node readable.
    world.node().begin_shutdown();
    while world.node().entry_count() < total {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = world.node().log_positions();
    world.node().destroy_tail(10).expect("destroy tail");
    let after = world.node().log_positions();
    assert!(after < before, "destruction drops whole batches");
    // Surviving prefix reads clean; the destroyed suffix errors cleanly.
    for log_id in 0..after {
        world
            .node()
            .read_log_position(log_id)
            .expect("surviving position reads");
    }
    for log_id in after..before {
        assert!(
            world.node().read_log_position(log_id).is_err(),
            "destroyed position {log_id} must not read"
        );
        assert_eq!(world.node().read_log_position_len(log_id), None);
    }
    let (positions, entries, _) = world.node().meta(0);
    assert_eq!(positions, after);
    let sum: u64 = (0..after)
        .map(|l| u64::from(world.node().read_log_position_len(l).expect("len")))
        .sum();
    assert_eq!(entries, sum, "entry counter tracks destruction");
    world.shutdown().unwrap();
}
