//! Concurrent stress for the two-plane node: readers, sequence lookups, and
//! commit-phase polling race sustained multi-publisher ingestion (with
//! replication enabled), and a shutdown lands mid-stress.
//!
//! Invariants under fire:
//! * a reader sees nothing of a batch or all of it — never a partial
//!   registration;
//! * an acknowledged `(publisher, sequence)` is immediately readable
//!   (registration happens before the reply fires);
//! * `commit_phase` never reports `Pending` for an observed position;
//! * every request accepted before `begin_shutdown` is answered exactly
//!   once, and none after it are silently dropped.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use wedge_core::{AppendRequest, CommitPhase, EntryId, LocalNode, NodeConfig};
use wedge_crypto::signer::Identity;

const PUBLISHERS: usize = 3;
const REQUESTS_PER_PUBLISHER: usize = 40;

#[test]
fn readers_and_shutdown_race_ingestion_without_loss() {
    let publishers: Vec<Identity> = (0..PUBLISHERS)
        .map(|p| Identity::from_seed(format!("stress-pub-{p}").as_bytes()))
        .collect();
    let config = NodeConfig {
        batch_size: 8,
        batch_linger: Duration::from_millis(2),
        pipeline_depth: 2,
        replicas: 2,
        ..Default::default()
    };
    let mut w = LocalNode::start("stress", config).expect("start node");

    let total = PUBLISHERS * REQUESTS_PER_PUBLISHER;
    // Reply bookkeeping: `deliveries[slot]` counts invocations of the slot's
    // reply closure; `submitted[slot]` records whether the node accepted the
    // request. Accepted ⇒ exactly one reply; rejected ⇒ zero.
    let deliveries: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
    let submitted: Arc<Vec<AtomicBool>> =
        Arc::new((0..total).map(|_| AtomicBool::new(false)).collect());
    // Highest contiguous acknowledged sequence per publisher (count of acks
    // from seq 0 up; submissions are in order per publisher, and batching
    // preserves per-publisher order, so acks are contiguous).
    let acked: Arc<Vec<AtomicU32>> = Arc::new((0..PUBLISHERS).map(|_| AtomicU32::new(0)).collect());
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let stop_readers = AtomicBool::new(false);
    // Signalled by each accepted submission; the shutdown waits for one.
    let (accepted_tx, accepted_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        let node = w.node();
        let stop_readers = &stop_readers;

        // Publishers.
        let mut publisher_handles = Vec::new();
        for (p, publisher) in publishers.iter().enumerate() {
            let deliveries = Arc::clone(&deliveries);
            let submitted = Arc::clone(&submitted);
            let acked = Arc::clone(&acked);
            let failures = Arc::clone(&failures);
            let accepted_tx = accepted_tx.clone();
            publisher_handles.push(scope.spawn(move || {
                for seq in 0..REQUESTS_PER_PUBLISHER {
                    let request = AppendRequest::new(
                        publisher.secret_key(),
                        seq as u64,
                        format!("stress-{p}-{seq}").into_bytes(),
                    );
                    let slot = p * REQUESTS_PER_PUBLISHER + seq;
                    let deliveries = Arc::clone(&deliveries);
                    let acked = Arc::clone(&acked);
                    let failures = Arc::clone(&failures);
                    let outcome = node.submit_with(
                        request,
                        Box::new(move |result| {
                            deliveries[slot].fetch_add(1, Ordering::SeqCst);
                            match result {
                                Ok(_) => {
                                    acked[p].fetch_add(1, Ordering::SeqCst);
                                }
                                Err(err) => {
                                    failures
                                        .lock()
                                        .unwrap()
                                        .push(format!("request {slot}: {err}"));
                                }
                            }
                        }),
                    );
                    if outcome.is_ok() {
                        submitted[slot].store(true, Ordering::SeqCst);
                        let _ = accepted_tx.send(());
                    } else {
                        // `begin_shutdown` already ran; the node must keep
                        // rejecting from here on (no flapping sender).
                        assert!(
                            node.submit_with(
                                AppendRequest::new(publisher.secret_key(), seq as u64, vec![]),
                                Box::new(|_| {}),
                            )
                            .is_err(),
                            "submissions after shutdown must stay rejected"
                        );
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(120));
                }
            }));
        }

        // Snapshot readers: whole-batch-or-nothing + commit-phase sanity.
        for _ in 0..2 {
            scope.spawn(move || {
                while !stop_readers.load(Ordering::Relaxed) {
                    let (positions, entries, _) = node.meta(0);
                    let mut sum = 0u64;
                    for log_id in 0..positions {
                        let len = node
                            .read_log_position_len(log_id)
                            .expect("observed position has a length");
                        sum += u64::from(len);
                        // Nothing-or-all: the full batch is readable the
                        // moment the position is visible.
                        let batch = node
                            .read_log_position(log_id)
                            .expect("observed position reads");
                        assert_eq!(batch.len() as u32, len, "partial batch observed");
                        assert_ne!(
                            node.commit_phase(log_id),
                            CommitPhase::Pending,
                            "observed position {log_id} reported Pending"
                        );
                    }
                    assert_eq!(sum, entries, "meta triple torn across snapshots");
                    // Spot-check the point-read path on the newest batch.
                    if positions > 0 {
                        let id = EntryId {
                            log_id: positions - 1,
                            offset: 0,
                        };
                        node.read(id).expect("first entry of newest batch reads");
                    }
                }
            });
        }

        // Sequence-lookup reader: an acked sequence must already be
        // registered (replies fire only after snapshot publication).
        {
            let acked = Arc::clone(&acked);
            let publishers = &publishers;
            scope.spawn(move || {
                while !stop_readers.load(Ordering::Relaxed) {
                    for (p, publisher) in publishers.iter().enumerate() {
                        let n = acked[p].load(Ordering::SeqCst);
                        if n == 0 {
                            continue;
                        }
                        let sequence = u64::from(n - 1);
                        node.read_by_sequence(publisher.address(), sequence)
                            .unwrap_or_else(|e| {
                                panic!("acked sequence ({p}, {sequence}) unreadable: {e}")
                            });
                    }
                }
            });
        }

        // Shutdown lands mid-stress, through a *shared* reference while
        // every thread above still borrows the node: 6 ms after the first
        // submission was accepted, however late the publishers start.
        drop(accepted_tx);
        scope.spawn(move || {
            let _ = accepted_rx.recv();
            std::thread::sleep(Duration::from_millis(6));
            node.begin_shutdown();
        });

        for handle in publisher_handles {
            handle.join().expect("publisher thread");
        }
        // Let readers observe the post-shutdown drain for a moment.
        std::thread::sleep(Duration::from_millis(10));
        stop_readers.store(true, Ordering::Relaxed);
    });

    w.shutdown().expect("shut down");
    let node = w.node();

    // Exactly-once accounting: accepted ⇒ one reply, rejected ⇒ none.
    let mut accepted = 0u64;
    for slot in 0..total {
        let expect = u32::from(submitted[slot].load(Ordering::SeqCst));
        accepted += u64::from(expect);
        assert_eq!(
            deliveries[slot].load(Ordering::SeqCst),
            expect,
            "slot {slot}: accepted requests get exactly one reply, rejected ones none"
        );
    }
    assert!(
        failures.lock().unwrap().is_empty(),
        "accepted appends must not fail: {:?}",
        failures.lock().unwrap()
    );
    assert!(accepted > 0, "the stress run must accept some requests");
    assert_eq!(
        node.entry_count(),
        accepted,
        "every accepted entry is registered"
    );

    // The drained log finishes stage 2 and survives restart intact.
    node.wait_stage2_idle(Duration::from_secs(600))
        .expect("stage 2 drains");
    let positions = node.log_positions();
    for log_id in 0..positions {
        assert_eq!(node.commit_phase(log_id), CommitPhase::BlockchainCommitted);
    }
    let stats = node.stats();
    assert_eq!(stats.stage2_failed, 0);
    assert!(
        stats.snapshot_publishes >= positions,
        "each flush publishes a snapshot"
    );
}
