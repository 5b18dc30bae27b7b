//! Extension scenarios built from the paper's §4.7 mitigations:
//!
//! 1. **Watchdog**: a third-party auditor scans the log, finds punishable
//!    evidence against an equivocating node, and a client cashes it in.
//! 2. **Replica promotion**: after an extreme omission attack destroys the
//!    primary, a fresh node is started over a replica's store and serves
//!    reads that still verify against the on-chain digests.

use std::sync::Arc;
use std::time::Duration;

use wedgeblock::chain::Wei;
use wedgeblock::core::{
    CommitPhase, EvidenceKind, LocalNode, NodeBehavior, NodeConfig, OffchainNode, Reader,
};
use wedgeblock::crypto::Identity;

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("wf-{i}").into_bytes()).collect()
}

#[test]
fn auditor_watchdog_finds_and_monetizes_evidence() {
    let config = NodeConfig {
        batch_size: 20,
        batch_linger: Duration::from_millis(5),
        behavior: NodeBehavior::CommitWrongRoot { from_log: 1 },
        ..Default::default()
    };
    let w = LocalNode::start("watchdog", config).unwrap();
    let node = w.node();
    let mut publisher = w.publisher();
    // Two batches: log 0 honest, log 1 equivocated.
    publisher.append_batch(payloads(20)).unwrap();
    publisher.append_batch(payloads(20)).unwrap();
    node.wait_stage2_idle(Duration::from_secs(600)).unwrap();

    // An independent auditor (no punishment contract of its own) scans.
    let auditor = w.auditor();
    let evidence = auditor
        .find_evidence(0, u64::MAX)
        .unwrap()
        .expect("equivocation must surface evidence");
    assert_eq!(evidence.kind, EvidenceKind::RootMismatch);
    assert_eq!(evidence.response.entry_id.log_id, 1, "log 0 was honest");

    // The client (beneficiary of the punishment contract) cashes it in.
    let receipt = publisher.punish(&evidence.response).unwrap();
    assert!(receipt.status.is_success());
    assert_eq!(w.chain.balance(w.punishment), Wei::ZERO, "escrow seized");
}

#[test]
fn watchdog_finds_nothing_on_honest_node() {
    let config = NodeConfig {
        batch_size: 20,
        batch_linger: Duration::from_millis(5),
        ..Default::default()
    };
    let w = LocalNode::start("honest-watch", config).unwrap();
    let node = w.node();
    let mut publisher = w.publisher();
    publisher.append_batch(payloads(40)).unwrap();
    node.wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let auditor = w.auditor();
    assert!(auditor.find_evidence(0, u64::MAX).unwrap().is_none());
}

#[test]
fn replica_promotion_survives_total_primary_loss() {
    let config = NodeConfig {
        batch_size: 30,
        batch_linger: Duration::from_millis(5),
        replicas: 1,
        ..Default::default()
    };
    let mut w = LocalNode::start("failover", config).unwrap();
    let (chain, dir) = (Arc::clone(&w.chain), w.dir().to_path_buf());
    let data = payloads(60);
    w.publisher().append_batch(data.clone()).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    // The primary is then wholly destroyed (node shut down, directory
    // removed) — the extreme omission attack of §4.7.
    w.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir.join("log"));

    // Promote the replica: a *witness* operator starts a node over the
    // replica's store. Its identity differs from the original node's — the
    // data's authenticity comes from the on-chain digests, not from who
    // serves it.
    let witness_id = Identity::from_seed(b"witness-operator");
    let witness_dir = dir.join("replicas").join("replica-0");
    // The node's store lives under <dir>/log; point the witness at a dir
    // whose `log` subdirectory is the replica store.
    let promoted_root = dir.join("promoted");
    std::fs::create_dir_all(&promoted_root).unwrap();
    std::fs::rename(&witness_dir, promoted_root.join("log")).unwrap();
    let witness = Arc::new(
        OffchainNode::start(
            witness_id,
            NodeConfig {
                batch_size: 30,
                // The witness serves reads only; it must not re-commit.
                behavior: NodeBehavior::OmitStage2 { from_log: 0 },
                ..Default::default()
            },
            Arc::clone(&chain),
            w.root_record,
            &promoted_root,
        )
        .unwrap(),
    );
    assert_eq!(witness.entry_count(), 60, "replica held the full log");

    // Reads through the witness still verify as blockchain-committed: the
    // proofs check out against the digests the ORIGINAL node committed.
    let reader = Reader::new(Arc::clone(&witness), chain, w.root_record);
    for (i, payload) in data.iter().enumerate().step_by(7) {
        let entry = reader
            .read(wedgeblock::core::EntryId {
                log_id: (i / 30) as u64,
                offset: (i % 30) as u32,
            })
            .unwrap();
        assert_eq!(&entry.request.payload, payload);
        assert_eq!(entry.phase, CommitPhase::BlockchainCommitted);
    }
}
