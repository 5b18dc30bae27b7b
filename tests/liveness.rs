//! Liveness properties (paper §4.7): replication against omission attacks,
//! and the behaviour of clients when the node stalls stage 2.

use std::time::Duration;

use wedgeblock::chain::{Chain, ChainConfig};
use wedgeblock::core::{LocalNode, NodeBehavior, NodeConfig, Stage2Verdict};
use wedgeblock::sim::Clock;
use wedgeblock::storage::{LogStore, StoreConfig};

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("liveness-{i}").into_bytes())
        .collect()
}

#[test]
fn replicas_hold_the_data_after_an_extreme_omission_attack() {
    // The node replicates batches to 2 followers, then "destroys" its local
    // tail. The replicas still hold every record — the decentralized-storage
    // mitigation of §4.7.
    let config = NodeConfig {
        batch_size: 20,
        batch_linger: Duration::from_millis(5),
        replicas: 2,
        ..Default::default()
    };
    let w = LocalNode::start("liveness", config).unwrap();
    let node = w.node();
    let mut publisher = w.publisher();
    publisher.append_batch(payloads(40)).unwrap();
    assert_eq!(node.entry_count(), 40);

    // Extreme omission: the node wipes its newest 20 entries.
    node.destroy_tail(20).unwrap();
    assert_eq!(node.entry_count(), 20);

    // Both replicas still hold all 42 records (2 headers + 40 leaves).
    for replica in 0..2 {
        let store = LogStore::open(
            w.dir().join("replicas").join(format!("replica-{replica}")),
            StoreConfig::default(),
        )
        .unwrap();
        assert_eq!(store.len(), 42, "replica {replica} must retain everything");
    }
}

#[test]
fn stage2_omission_is_observable_not_hanging() {
    // With stage 2 omitted, clients don't hang: the wait API times out and
    // reports NotYet, giving the application the signal to escalate.
    let config = NodeConfig {
        batch_size: 10,
        batch_linger: Duration::from_millis(5),
        behavior: NodeBehavior::OmitStage2 { from_log: 0 },
        ..Default::default()
    };
    let w = LocalNode::start("omission", config).unwrap();
    let node = w.node();
    let mut publisher = w.publisher();
    let outcome = publisher.append_batch(payloads(10)).unwrap();
    let verdict = publisher
        .wait_blockchain_commit(&outcome.responses[0], Duration::from_secs(90))
        .unwrap();
    assert_eq!(verdict, Stage2Verdict::NotYet);
    let stats = node.stats();
    assert_eq!(stats.stage2_committed, 0);
    assert_eq!(stats.batches_flushed, 1);
}

#[test]
fn node_throughput_survives_replication() {
    // Fig 3's red-curve claim in miniature: adding replicas must not
    // collapse ingestion (merkle + signing dominate; replication is a
    // channel send + disk append).
    let chain = Chain::new(Clock::compressed(2000.0), ChainConfig::default());
    let mut times = Vec::new();
    for replicas in [0usize, 2] {
        let config = NodeConfig {
            batch_size: 100,
            batch_linger: Duration::from_millis(5),
            replicas,
            ..Default::default()
        };
        let w = LocalNode::start_on(&chain, &format!("repl-tp-{replicas}"), config).unwrap();
        let mut publisher = w.publisher();
        let outcome = publisher.append_batch(payloads(200)).unwrap();
        times.push(outcome.stage1_commit);
    }
    // Replicated ingestion within 3x of unreplicated (debug builds are
    // noisy; the paper reports "insignificant decrease" in release).
    assert!(
        times[1] < times[0] * 3 + Duration::from_millis(500),
        "replication cost exploded: {:?} vs {:?}",
        times[1],
        times[0]
    );
}

#[test]
fn replica_failure_is_detected_not_fatal() {
    // Kill one of two replicas mid-stream: the node keeps serving (liveness)
    // and records the shortfall (observability).
    let config = NodeConfig {
        batch_size: 20,
        batch_linger: Duration::from_millis(5),
        replicas: 2,
        ..Default::default()
    };
    let mut w = LocalNode::start("shortfall", config).unwrap();
    let node = w.node();
    let mut publisher = w.publisher();
    // Healthy batch: both replicas ack.
    publisher.append_batch(payloads(20)).unwrap();
    assert_eq!(node.stats().replication_shortfalls, 0);
    // Kill replica 1 and publish again: still succeeds, shortfall recorded.
    node.replicator().unwrap().stop_replica(1);
    publisher.append_batch(payloads(20)).unwrap();
    assert_eq!(node.entry_count(), 40, "service uninterrupted");
    assert_eq!(node.stats().replication_shortfalls, 1);
    // Replica 0 still received everything (2 batches × 21 records).
    w.shutdown().unwrap();
    let store = LogStore::open(
        w.dir().join("replicas").join("replica-0"),
        StoreConfig::default(),
    )
    .unwrap();
    assert_eq!(store.len(), 42);
}
