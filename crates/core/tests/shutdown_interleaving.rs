//! Shutdown-interleaving tests for the batcher → stage-2 handoff.
//!
//! A node stopped mid-batch must neither lose a task nor execute one twice:
//! every submitted request is answered exactly once, every acknowledged
//! entry is durable, every flushed log position is blockchain-committed
//! exactly once, and a restart finds nothing left to re-commit. The same
//! scenario runs under a set of schedules (publisher count, batch size,
//! submission jitter, shutdown delay) so the shutdown lands at different
//! points of the pipeline: mid-linger, mid-flush, mid-stage-2, and while
//! the collect stage holds a checked prefix of a batch that has not closed
//! (every publisher's run long enough to be checked early).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use wedge_core::{AppendRequest, CommitPhase, LocalNode, NodeConfig};
use wedge_crypto::signer::Identity;

struct Schedule {
    publishers: usize,
    requests_per_publisher: usize,
    batch_size: usize,
    /// Wall-clock pause between submissions (explores mid-linger flushes).
    submit_jitter: Duration,
    /// Wall-clock pause before shutdown (explores mid-flush / mid-stage-2).
    shutdown_delay: Duration,
    batch_linger: Duration,
    /// The shutdown must find part of the open batch checked early.
    held_prefix: bool,
}

const LINGER: Duration = Duration::from_millis(2);
/// No batch closes by linger: only on size or at the shutdown drain.
const NO_LINGER: Duration = Duration::from_secs(600);

#[test]
fn shutdown_mid_batch_loses_and_duplicates_nothing() {
    let schedules = [
        // Immediate shutdown: most requests still queued in the ingest
        // channel when the sender closes.
        Schedule {
            publishers: 1,
            requests_per_publisher: 30,
            batch_size: 7,
            submit_jitter: Duration::ZERO,
            shutdown_delay: Duration::ZERO,
            batch_linger: LINGER,
            held_prefix: false,
        },
        // Concurrent publishers, shutdown while early batches flush.
        Schedule {
            publishers: 2,
            requests_per_publisher: 20,
            batch_size: 10,
            submit_jitter: Duration::from_micros(200),
            shutdown_delay: Duration::from_millis(2),
            batch_linger: LINGER,
            held_prefix: false,
        },
        // Ragged tail: the last batch is partial and only the linger
        // timeout (or the shutdown drain) can flush it.
        Schedule {
            publishers: 2,
            requests_per_publisher: 13,
            batch_size: 9,
            submit_jitter: Duration::from_micros(500),
            shutdown_delay: Duration::from_millis(8),
            batch_linger: LINGER,
            held_prefix: false,
        },
        // Late shutdown: stage 2 is already consuming the handoff queue.
        Schedule {
            publishers: 3,
            requests_per_publisher: 12,
            batch_size: 6,
            submit_jitter: Duration::from_micros(100),
            shutdown_delay: Duration::from_millis(25),
            batch_linger: LINGER,
            held_prefix: false,
        },
        // Held prefix: the batch never fills, so the shutdown finds its
        // first ≥ 512 requests checked (verified, framed, leaf-hashed)
        // and the rest unchecked; the drain flushes both.
        Schedule {
            publishers: 2,
            requests_per_publisher: 300,
            batch_size: 2000,
            submit_jitter: Duration::ZERO,
            shutdown_delay: Duration::from_millis(50),
            batch_linger: NO_LINGER,
            held_prefix: true,
        },
        // Held prefix behind a closed batch: the first batch may close
        // with an early-checked prefix while the second fills.
        Schedule {
            publishers: 3,
            requests_per_publisher: 300,
            batch_size: 800,
            submit_jitter: Duration::ZERO,
            shutdown_delay: Duration::from_millis(50),
            batch_linger: NO_LINGER,
            held_prefix: false,
        },
    ];
    for (tag, schedule) in schedules.iter().enumerate() {
        run_schedule(tag, schedule);
    }
}

fn run_schedule(tag: usize, schedule: &Schedule) {
    let publishers: Vec<Identity> = (0..schedule.publishers)
        .map(|p| Identity::from_seed(format!("shutdown-pub-{tag}-{p}").as_bytes()))
        .collect();
    let config = NodeConfig {
        batch_size: schedule.batch_size,
        batch_linger: schedule.batch_linger,
        ..Default::default()
    };
    let mut w = LocalNode::start(&format!("shutdown-{tag}"), config).expect("start node");
    let node = w.node();

    // One delivery counter per request; the reply closure is the only
    // writer, so any count other than exactly 1 is a lost or duplicated
    // reply.
    let total = schedule.publishers * schedule.requests_per_publisher;
    let deliveries: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|scope| {
        for (p, publisher) in publishers.iter().enumerate() {
            let deliveries = Arc::clone(&deliveries);
            let failures = Arc::clone(&failures);
            scope.spawn(move || {
                for seq in 0..schedule.requests_per_publisher {
                    let request = AppendRequest::new(
                        publisher.secret_key(),
                        seq as u64,
                        format!("entry-{tag}-{p}-{seq}").into_bytes(),
                    );
                    let slot = p * schedule.requests_per_publisher + seq;
                    let deliveries = Arc::clone(&deliveries);
                    let failures = Arc::clone(&failures);
                    node.submit_with(
                        request,
                        Box::new(move |outcome| {
                            deliveries[slot].fetch_add(1, Ordering::SeqCst);
                            if let Err(err) = outcome {
                                failures
                                    .lock()
                                    .unwrap()
                                    .push(format!("request {slot}: {err}"));
                            }
                        }),
                    )
                    .expect("submit while running");
                    if !schedule.submit_jitter.is_zero() {
                        std::thread::sleep(schedule.submit_jitter);
                    }
                }
            });
        }
    });

    // Shut down while batches are still in flight through the
    // batcher → stage-2 pipeline. `shutdown` closes the ingest channel
    // (the batcher drains what is queued, flushes the partial batch, and
    // hangs up on the committer, which drains its own queue) and joins
    // both threads.
    if schedule.held_prefix {
        // Two runs of ≥ 256 are checked once the collect stage catches up.
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        while node.stats().requests_verified_early < 512 {
            assert!(
                std::time::Instant::now() < deadline,
                "schedule {tag}: no early check"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(node.log_positions(), 0, "schedule {tag}: the batch is open");
    }
    std::thread::sleep(schedule.shutdown_delay);
    w.shutdown().expect("shut down");
    let node = w.node();

    // Exactly-once replies, all successful.
    for (slot, counter) in deliveries.iter().enumerate() {
        assert_eq!(
            counter.load(Ordering::SeqCst),
            1,
            "schedule {tag}: request {slot} must be answered exactly once"
        );
    }
    assert!(
        failures.lock().unwrap().is_empty(),
        "schedule {tag}: no acknowledged append may fail: {:?}",
        failures.lock().unwrap()
    );

    // Every acknowledged entry was flushed, and every flushed position was
    // committed exactly once. A double-executed task would either bump
    // `stage2_committed` past the position count or revert on-chain (the
    // contract rejects non-sequential writes) and show up as a failure.
    let stats = node.stats();
    let positions = node.log_positions();
    assert!(
        positions >= 1,
        "schedule {tag}: at least one batch must flush"
    );
    assert_eq!(
        node.entry_count(),
        total as u64,
        "schedule {tag}: entries lost"
    );
    assert_eq!(
        stats.stage2_committed, positions,
        "schedule {tag}: each flushed position is committed exactly once"
    );
    assert_eq!(
        stats.stage2_failed, 0,
        "schedule {tag}: no stage-2 task may fail"
    );

    // A restart finds a fully committed log: nothing lost before stage 2,
    // nothing left to re-commit (the startup resync would re-submit any
    // dropped task, so zero submissions proves the drain was complete).
    w.restart(NodeConfig {
        batch_size: schedule.batch_size,
        ..Default::default()
    })
    .expect("restart node");
    let node = w.node();
    assert_eq!(
        node.log_positions(),
        positions,
        "schedule {tag}: positions lost on disk"
    );
    assert_eq!(
        node.entry_count(),
        total as u64,
        "schedule {tag}: entries lost on disk"
    );
    node.wait_stage2_idle(Duration::from_secs(600))
        .expect("recovered log fully committed");
    assert_eq!(
        node.stats().stage2_txs_submitted,
        0,
        "schedule {tag}: a drained shutdown leaves nothing to re-commit"
    );
    for log_id in 0..positions {
        assert_eq!(
            node.commit_phase(log_id),
            CommitPhase::BlockchainCommitted,
            "schedule {tag}: position {log_id} lost its stage-2 commitment"
        );
    }
}
