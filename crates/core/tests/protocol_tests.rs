//! End-to-end LMT protocol tests: honest two-phase commitment, reads and
//! audits, node recovery, and every injected malicious behaviour ending in
//! detection (and, where applicable, punishment).

use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{Chain, ChainConfig, Wei};
use wedge_contracts::Punishment;
use wedge_core::{
    CommitPhase, EvidenceKind, LocalNode, NodeBehavior, NodeConfig, Publisher, Stage2Verdict,
};
use wedge_crypto::signer::Identity;
use wedge_sim::Clock;
use wedge_storage::ScratchDir;

/// Blocks past the head at which a log position registered within which an
/// honest node's stage-2 transaction for it must be included.
const STAGE2_BLOCKS: u64 = 4;

fn config(behavior: NodeBehavior, batch_size: usize) -> NodeConfig {
    NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(5),
        behavior,
        ..Default::default()
    }
}

/// A node on a 2000x chain: 13 s blocks every 6.5 ms of wall time.
fn world(tag: &str, behavior: NodeBehavior, batch_size: usize) -> LocalNode {
    LocalNode::start(tag, config(behavior, batch_size)).expect("start node")
}

fn payloads(n: usize, size: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut p = format!("payload-{i}-").into_bytes();
            p.resize(size, 0x42);
            p
        })
        .collect()
}

#[test]
fn honest_two_phase_commitment() {
    // 200x (65 ms of wall time per block): the node's own work between
    // two blocks stays small next to the interval, so the stage-2 bound
    // below counts protocol steps, not CPU speed.
    let chain = Chain::new(Clock::compressed(200.0), ChainConfig::default());
    let w = LocalNode::start_on(&chain, "honest", config(NodeBehavior::Honest, 50)).unwrap();
    let mut publisher = w.publisher();
    // The chain head as each log position registers (just after its
    // batch flushed), read by a watcher polling every millisecond.
    let head_before = w.chain.block_number();
    let watcher = {
        let (node, chain) = (Arc::clone(w.node()), Arc::clone(&w.chain));
        std::thread::spawn(move || {
            let mut heads = Vec::new();
            while heads.len() < 2 {
                if node.log_positions() > heads.len() as u64 {
                    heads.push(chain.block_number());
                } else {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            heads
        })
    };
    let outcome = publisher.append_batch(payloads(100, 256)).unwrap();
    assert_eq!(outcome.responses.len(), 100);
    assert!(outcome.first_response <= outcome.last_response);
    assert!(outcome.last_response <= outcome.stage1_commit);
    // Batch size 50 → 2 log positions.
    assert_eq!(w.node().log_positions(), 2);
    assert_eq!(w.node().entry_count(), 100);

    // Stage 2 completes lazily; wait for it, then every response verifies
    // as blockchain-committed.
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let mut t = w.transcript();
    t.replies = outcome.responses;
    let verdict = w.audit(&mut t).unwrap();
    assert!(verdict.is_settled(), "{verdict:?}");
    assert_eq!(w.node().commit_phase(0), CommitPhase::BlockchainCommitted);
    assert_eq!(w.node().commit_phase(1), CommitPhase::BlockchainCommitted);
    assert_eq!(w.node().commit_phase(2), CommitPhase::Pending);

    // Stage 2 lands within a few blocks of the flush (paper: ~43 s, three
    // 13 s blocks). Counted in blocks, not simulated seconds: a wall-clock
    // stall of the process stretches simulated time but mines no block.
    let registered = watcher.join().expect("watcher");
    for (log_id, registered) in (0u64..).zip(registered) {
        let landed = w.node().commit_info(log_id).expect("stage 2 recorded");
        assert!(
            landed.block_number > head_before && landed.block_number <= registered + STAGE2_BLOCKS,
            "log position {log_id} registered at block {registered} but landed in block {}",
            landed.block_number
        );
    }
    assert!(w.node().stats().stage2_fees > Wei::ZERO);
}

#[test]
fn reads_verify_through_all_paths() {
    let w = world("reads", NodeBehavior::Honest, 25);
    let mut publisher = w.publisher();
    let reader = w.reader();
    let outcome = publisher.append_batch(payloads(50, 128)).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();

    // By entry id.
    let id = outcome.responses[7].entry_id;
    let entry = reader.read(id).unwrap();
    assert_eq!(entry.request.payload, payloads(50, 128)[7]);
    assert_eq!(entry.phase, CommitPhase::BlockchainCommitted);

    // By (publisher, sequence).
    let by_seq = reader.read_by_sequence(publisher.address(), 7).unwrap();
    assert_eq!(by_seq.request.payload, entry.request.payload);

    // Lazy (stage-1-only) read.
    let lazy = reader.read_lazy(id).unwrap();
    assert_eq!(lazy.phase, CommitPhase::OffchainCommitted);

    // Missing entries fail cleanly.
    assert!(reader
        .read(wedge_core::EntryId {
            log_id: 99,
            offset: 0
        })
        .is_err());
    assert!(reader.read_by_sequence(publisher.address(), 9999).is_err());
}

#[test]
fn auditor_scans_clean_log() {
    let w = world("audit", NodeBehavior::Honest, 40);
    let mut publisher = w.publisher();
    let auditor = w.auditor();
    publisher.append_batch(payloads(120, 64)).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let report = auditor.audit(0, 120).unwrap();
    assert_eq!(report.entries_checked, 120);
    assert!(report.is_clean());
    assert!(report.verify_time <= report.total_time);

    // Range-proof variant agrees.
    let report2 = auditor.audit_with_range_proofs(0, 120).unwrap();
    assert_eq!(report2.entries_checked, 120);
    assert!(report2.is_clean());
}

#[test]
fn equivocating_node_is_detected_and_punished() {
    let w = world(
        "equivocate",
        NodeBehavior::CommitWrongRoot { from_log: 0 },
        30,
    );
    let mut publisher = w.publisher();
    let reader = w.reader();
    let outcome = publisher.append_batch(payloads(30, 128)).unwrap();
    // Stage 1 looks perfectly honest.
    assert_eq!(outcome.responses.len(), 30);
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();

    // Stage-2 verification exposes the lie.
    let verdict = publisher
        .verify_blockchain_commit(&outcome.responses[0])
        .unwrap();
    assert_eq!(
        verdict,
        Stage2Verdict::Punishable(EvidenceKind::RootMismatch)
    );

    // Reader's verified path refuses the entry.
    let err = reader.read(outcome.responses[0].entry_id).unwrap_err();
    assert!(matches!(
        err,
        wedge_core::CoreError::BlockchainMismatch { .. }
    ));

    // Punishment drains the escrow to the client.
    let client_before = w.chain.balance(publisher.address());
    let receipt = publisher
        .verify_all_and_punish(&outcome.responses)
        .unwrap()
        .expect("mismatch must trigger punishment");
    let mut t = w.transcript();
    t.punishments = vec![(outcome.responses[0].clone(), receipt.tx_hash)];
    t.replies = outcome.responses;
    let verdict = w.audit(&mut t).unwrap();
    assert!(verdict.is_settled() && verdict.payouts == 1, "{verdict:?}");
    assert_eq!(w.chain.balance(w.punishment), Wei::ZERO);
    let gained = w
        .chain
        .balance(publisher.address())
        .checked_add(receipt.fee)
        .unwrap()
        .checked_sub(client_before)
        .unwrap();
    assert_eq!(gained, LocalNode::ESCROW);
}

#[test]
fn tampering_node_is_detected_at_stage1() {
    let w = world("tamper", NodeBehavior::TamperResponses { from_log: 0 }, 20);
    let mut publisher = w.publisher();
    // The publisher's own verification catches the tampered leaf
    // immediately (the proof cannot reproduce the root for altered bytes).
    let err = publisher.append_batch(payloads(20, 128)).unwrap_err();
    assert!(matches!(
        err,
        wedge_core::CoreError::ProofInvalid { .. } | wedge_core::CoreError::LeafMismatch { .. }
    ));
}

#[test]
fn tampered_read_is_punishable_after_commit() {
    // Honest at append time; tampers on the READ path.
    let w = world(
        "tamper-read",
        NodeBehavior::TamperResponses { from_log: 1 },
        10,
    );
    let mut publisher = w.publisher();
    // Log 0 is unaffected; publish a batch into it honestly.
    publisher.append_batch(payloads(10, 64)).unwrap();
    // Next batch lands in log 1, where reads tamper.
    let outcome = publisher.append_batch(payloads(10, 64));
    // Appends into log 1 already fail verification...
    assert!(outcome.is_err());
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    // ...and a read of log 1 yields a signed-but-invalid response which,
    // after stage 2 committed the honest root, is punishable evidence.
    let response = w
        .node()
        .read(wedge_core::EntryId {
            log_id: 1,
            offset: 3,
        })
        .unwrap();
    assert!(response.verify(&w.node().public_key()).is_err());
    let receipt = publisher.punish(&response).unwrap();
    assert!(receipt.status.is_success());
    assert_eq!(
        Punishment::decode_invoke_result(&receipt.output),
        Some(true),
        "bogus proof must seize escrow"
    );
}

#[test]
fn omission_attack_leaves_positions_uncommitted() {
    let w = world("omit", NodeBehavior::OmitStage2 { from_log: 1 }, 10);
    let mut publisher = w.publisher();
    let first = publisher.append_batch(payloads(10, 64)).unwrap();
    let second = publisher.append_batch(payloads(10, 64)).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    // Log 0 committed; log 1 never will be.
    assert_eq!(
        publisher
            .verify_blockchain_commit(&first.responses[0])
            .unwrap(),
        Stage2Verdict::Committed
    );
    assert_eq!(
        publisher
            .verify_blockchain_commit(&second.responses[0])
            .unwrap(),
        Stage2Verdict::NotYet
    );
    assert_eq!(w.node().commit_phase(1), CommitPhase::OffchainCommitted);
    // The wait-for-commit helper times out rather than hanging.
    let verdict = publisher
        .wait_blockchain_commit(&second.responses[0], Duration::from_secs(60))
        .unwrap();
    assert_eq!(verdict, Stage2Verdict::NotYet);
}

#[test]
fn node_recovers_state_after_restart() {
    let mut w = world("recover", NodeBehavior::Honest, 25);
    let mut publisher = w.publisher();
    let data = payloads(50, 100);
    publisher.append_batch(data.clone()).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let positions = w.node().log_positions();

    // Tear the node down (flush + join threads) and restart on the same
    // directory.
    w.restart(NodeConfig {
        batch_size: 25,
        ..Default::default()
    })
    .expect("restart node");
    assert_eq!(w.node().log_positions(), positions);
    assert_eq!(w.node().entry_count(), 50);
    // Recovered entries still serve verified reads by sequence number.
    let entry = w
        .reader()
        .read_by_sequence(publisher.address(), 33)
        .unwrap();
    assert_eq!(entry.request.payload, data[33]);
    assert_eq!(entry.phase, CommitPhase::BlockchainCommitted);
}

#[test]
fn multiple_publishers_interleave_safely() {
    // The concurrency property prior single-producer systems lack (paper
    // §1): many publishers share one log.
    let w = world("multi", NodeBehavior::Honest, 60);
    let reader = w.reader();
    let mut publishers: Vec<Publisher> = (0..3)
        .map(|i| {
            let identity = Identity::from_seed(format!("pub-{i}").as_bytes());
            w.chain.fund(identity.address(), Wei::from_eth(10));
            Publisher::new(
                identity,
                Arc::clone(w.node()),
                Arc::clone(&w.chain),
                w.root_record,
                None,
            )
        })
        .collect();
    std::thread::scope(|scope| {
        for (i, publisher) in publishers.iter_mut().enumerate() {
            scope.spawn(move || {
                let data = (0..40)
                    .map(|j| format!("publisher-{i}-entry-{j}").into_bytes())
                    .collect();
                publisher.append_batch(data).unwrap()
            });
        }
    });
    assert_eq!(w.node().entry_count(), 120);
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    // Every publisher's entries are retrievable by sequence.
    for i in 0..3 {
        let identity = Identity::from_seed(format!("pub-{i}").as_bytes());
        let entry = reader.read_by_sequence(identity.address(), 39).unwrap();
        assert_eq!(
            entry.request.payload,
            format!("publisher-{i}-entry-39").into_bytes()
        );
    }
}

#[test]
fn bad_request_signatures_rejected_by_node() {
    let w = world("badsig", NodeBehavior::Honest, 10);
    // Hand-craft a request with a broken signature.
    let identity = Identity::from_seed(b"forger");
    let mut request = wedge_core::AppendRequest::new(identity.secret_key(), 0, b"x".to_vec());
    request.sequence = 1; // invalidates the signature
    let (tx, rx) = crossbeam::channel::unbounded();
    w.node().submit(request, tx).unwrap();
    let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(reply.is_err());
    assert_eq!(w.node().stats().requests_rejected, 1);
    assert_eq!(w.node().entry_count(), 0);
}

#[test]
fn destroy_tail_models_extreme_omission() {
    let w = world("destroy", NodeBehavior::Honest, 10);
    let mut publisher = w.publisher();
    publisher.append_batch(payloads(30, 64)).unwrap();
    assert_eq!(w.node().entry_count(), 30);
    w.node().destroy_tail(10).unwrap();
    assert_eq!(w.node().entry_count(), 20);
    assert!(w
        .node()
        .read(wedge_core::EntryId {
            log_id: 2,
            offset: 0
        })
        .is_err());
    // Earlier entries still verify at stage 1.
    let response = w
        .node()
        .read(wedge_core::EntryId {
            log_id: 0,
            offset: 5,
        })
        .unwrap();
    response.verify(&w.node().public_key()).unwrap();
}

#[test]
fn stage2_resumes_after_crash_between_stages() {
    // Crash after stage 1 but before stage 2 commits, then restart: the
    // recovered node must finish the interrupted commitment on its own.
    let mut w = world("resume", NodeBehavior::OmitStage2 { from_log: 0 }, 10);
    let mut publisher = w.publisher();
    let outcome = publisher.append_batch(payloads(20, 64)).unwrap();
    // The "crash": the omitting node never committed anything.
    assert_eq!(
        publisher
            .verify_blockchain_commit(&outcome.responses[0])
            .unwrap(),
        Stage2Verdict::NotYet
    );

    // Restart HONEST on the same data; startup resync must queue both
    // recovered positions for stage 2.
    w.restart(NodeConfig {
        batch_size: 10,
        ..Default::default()
    })
    .unwrap();
    let node = w.node();
    node.wait_stage2_idle(Duration::from_secs(600)).unwrap();
    assert_eq!(node.commit_phase(0), CommitPhase::BlockchainCommitted);
    assert_eq!(node.commit_phase(1), CommitPhase::BlockchainCommitted);
    // And the original stage-1 responses now verify on-chain.
    let entry = w.reader().read(outcome.responses[5].entry_id).unwrap();
    assert_eq!(entry.phase, CommitPhase::BlockchainCommitted);
}

#[test]
fn restart_does_not_recommit_already_committed_positions() {
    // A restarted honest node must not re-submit roots the contract already
    // holds (the contract would revert the non-sequential write).
    let mut w = world("norecommit", NodeBehavior::Honest, 10);
    w.publisher().append_batch(payloads(20, 64)).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let submitted_before = w.node().stats().stage2_txs_submitted;
    assert!(submitted_before >= 1);
    w.restart(NodeConfig {
        batch_size: 10,
        ..Default::default()
    })
    .unwrap();
    let node = w.node();
    node.wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let stats = node.stats();
    assert_eq!(stats.stage2_txs_submitted, 0, "nothing to re-commit");
    assert_eq!(stats.stage2_failed, 0);
    assert_eq!(node.commit_phase(0), CommitPhase::BlockchainCommitted);
    assert_eq!(node.commit_phase(1), CommitPhase::BlockchainCommitted);
}

#[test]
fn reader_root_cache_eliminates_repeat_lookups() {
    let w = world("rootcache", NodeBehavior::Honest, 25);
    let mut publisher = w.publisher();
    publisher.append_batch(payloads(50, 64)).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let reader = w.reader();
    // 50 reads across 2 log positions: at most 2 chain lookups (write-once
    // digests are cacheable forever).
    for i in 0..50u32 {
        let id = wedge_core::EntryId {
            log_id: (i / 25) as u64,
            offset: i % 25,
        };
        let entry = reader.read(id).unwrap();
        assert_eq!(entry.phase, CommitPhase::BlockchainCommitted);
    }
    assert_eq!(reader.chain_lookups(), 2, "one lookup per log position");
}

#[test]
fn receipt_store_sweeps_and_survives_restart() {
    let w = world("receipts", NodeBehavior::Honest, 20);
    let receipt_dir = ScratchDir::new("pub-receipts");
    let mut publisher = w.publisher().with_receipt_store(&receipt_dir).unwrap();
    publisher.append_batch(payloads(40, 64)).unwrap();
    assert_eq!(publisher.receipt_store().unwrap().len(), 40);
    assert_eq!(publisher.receipt_store().unwrap().pending_count(), 40);
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();

    // Sweep verifies everything.
    let sweep = publisher.verify_pending().unwrap();
    assert_eq!(sweep.verified, 40);
    assert!(sweep.punished.is_none());
    assert_eq!(publisher.receipt_store().unwrap().pending_count(), 0);

    // A restarted publisher resumes sequence numbering past its receipts.
    drop(publisher);
    let publisher2 = w.publisher().with_receipt_store(&receipt_dir).unwrap();
    // Receipts 0..40 verified; pending() is empty, but starting sequence
    // must still not collide (watermark-verified receipts are spent).
    assert_eq!(publisher2.receipt_store().unwrap().len(), 40);
    let sweep = publisher2.verify_pending().unwrap();
    assert_eq!(sweep.verified, 0);
    assert_eq!(sweep.still_pending, 0);
}

#[test]
fn receipt_sweep_punishes_equivocation_found_after_restart() {
    let w = world(
        "receipts-evil",
        NodeBehavior::CommitWrongRoot { from_log: 0 },
        20,
    );
    let receipt_dir = ScratchDir::new("pub-receipts-evil");
    {
        let mut publisher = w.publisher().with_receipt_store(&receipt_dir).unwrap();
        publisher.append_batch(payloads(20, 64)).unwrap();
        // Publisher process "crashes" here, before verifying stage 2.
    }
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    // A fresh publisher process recovers its receipts from disk and the
    // sweep converts one into a successful punishment.
    let publisher = w.publisher().with_receipt_store(&receipt_dir).unwrap();
    let sweep = publisher.verify_pending().unwrap();
    let receipt = sweep
        .punished
        .expect("equivocation punished from recovered evidence");
    assert!(receipt.status.is_success());
    assert_eq!(w.chain.balance(w.punishment), Wei::ZERO);
}
