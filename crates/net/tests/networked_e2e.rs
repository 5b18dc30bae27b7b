//! End-to-end tests over real TCP on localhost: the paper's process
//! topology (node process, publisher/user/auditor processes) with the
//! unchanged client roles running against a [`RemoteNode`].

use std::sync::Arc;
use std::time::Duration;

use wedge_chain::Wei;
use wedge_core::{Auditor, CommitPhase, LocalNode, LogService, NodeConfig, Publisher, Reader};
use wedge_crypto::signer::Identity;
use wedge_net::{NodeServer, RemoteNode};

/// A node on a fresh chain and a server in front of it. Bind the pair in
/// this order (`let (w, server) = …`) so the server drops first.
fn net_world(tag: &str, behavior: wedge_core::NodeBehavior) -> (LocalNode, NodeServer) {
    let config = NodeConfig {
        batch_size: 25,
        batch_linger: Duration::from_millis(5),
        behavior,
        ..Default::default()
    };
    let w = LocalNode::start(&format!("net-{tag}"), config).unwrap();
    let server = NodeServer::bind("127.0.0.1:0", Arc::clone(w.node()) as _).unwrap();
    (w, server)
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("net-{i}").into_bytes()).collect()
}

#[test]
fn publisher_works_over_tcp() {
    let (w, server) = net_world("pub", wedge_core::NodeBehavior::Honest);
    let remote = Arc::new(RemoteNode::connect(server.local_addr()).unwrap());
    // The remote handshake learned the real node key.
    assert_eq!(
        remote.node_public_key().to_bytes(),
        w.node().public_key().to_bytes()
    );
    let mut publisher = Publisher::new(
        w.client_identity.clone(),
        Arc::clone(&remote),
        Arc::clone(&w.chain),
        w.root_record,
        Some(w.punishment),
    );
    let outcome = publisher.append_batch(payloads(50)).unwrap();
    assert_eq!(outcome.responses.len(), 50);
    // Every response crossed the wire and still verifies fully.
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    for response in &outcome.responses {
        assert_eq!(
            publisher.verify_blockchain_commit(response).unwrap(),
            wedge_core::Stage2Verdict::Committed
        );
    }
}

#[test]
fn reads_and_audits_work_over_tcp() {
    let (w, server) = net_world("read", wedge_core::NodeBehavior::Honest);
    // Publish locally, read remotely.
    let mut publisher = w.publisher();
    let data = payloads(50);
    publisher.append_batch(data.clone()).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();

    let remote = Arc::new(RemoteNode::connect(server.local_addr()).unwrap());
    let reader = Reader::new(Arc::clone(&remote), Arc::clone(&w.chain), w.root_record);
    let entry = reader
        .read(wedge_core::EntryId {
            log_id: 1,
            offset: 7,
        })
        .unwrap();
    assert_eq!(entry.request.payload, data[25 + 7]);
    assert_eq!(entry.phase, CommitPhase::BlockchainCommitted);
    let by_seq = reader
        .read_by_sequence(w.client_identity.address(), 3)
        .unwrap();
    assert_eq!(by_seq.request.payload, data[3]);
    // Missing entries come back as clean errors, not hangs.
    assert!(reader
        .read(wedge_core::EntryId {
            log_id: 99,
            offset: 0
        })
        .is_err());

    // Full audit over the wire — including the range-proof scan path.
    let auditor = Auditor::new(Arc::clone(&remote), Arc::clone(&w.chain), w.root_record);
    let report = auditor.audit(0, 50).unwrap();
    assert_eq!(report.entries_checked, 50);
    assert!(report.is_clean());
    let report = auditor.audit_with_range_proofs(0, 50).unwrap();
    assert!(report.is_clean());
}

#[test]
fn remote_client_detects_and_punishes_equivocation() {
    // The full adversarial loop with a network in the middle: remote
    // stage-1 commit, remote evidence, on-chain punishment.
    let (w, server) = net_world(
        "evil",
        wedge_core::NodeBehavior::CommitWrongRoot { from_log: 0 },
    );
    let remote = Arc::new(RemoteNode::connect(server.local_addr()).unwrap());
    let mut publisher = Publisher::new(
        w.client_identity.clone(),
        Arc::clone(&remote),
        Arc::clone(&w.chain),
        w.root_record,
        Some(w.punishment),
    );
    let outcome = publisher.append_batch(payloads(25)).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let receipt = publisher
        .verify_all_and_punish(&outcome.responses)
        .unwrap()
        .expect("equivocation caught through the network");
    assert!(receipt.status.is_success());
    assert_eq!(w.chain.balance(w.punishment), Wei::ZERO);
}

#[test]
fn concurrent_remote_clients_multiplex() {
    let (w, server) = net_world("multi", wedge_core::NodeBehavior::Honest);
    let addr = server.local_addr();
    let chain = Arc::clone(&w.chain);
    let root_record = w.root_record;
    std::thread::scope(|scope| {
        for i in 0..4 {
            let chain = Arc::clone(&chain);
            scope.spawn(move || {
                let identity = Identity::from_seed(format!("net-multi-{i}").as_bytes());
                let remote = Arc::new(RemoteNode::connect(addr).unwrap());
                let mut publisher = Publisher::new(identity, remote, chain, root_record, None);
                let outcome = publisher
                    .append_batch((0..30).map(|j| format!("c{i}-e{j}").into_bytes()).collect())
                    .unwrap();
                assert_eq!(outcome.responses.len(), 30);
            });
        }
    });
    assert_eq!(w.node().entry_count(), 120);
}

#[test]
fn server_shutdown_is_clean() {
    let (_w, mut server) = net_world("shutdown", wedge_core::NodeBehavior::Honest);
    let remote = RemoteNode::connect(server.local_addr()).unwrap();
    assert_eq!(remote.positions(), 0);
    server.shutdown();
    // New connections are refused (or time out) after shutdown...
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        RemoteNode::connect_with_timeout(server.local_addr(), Duration::from_millis(300)).is_err()
    );
}

#[test]
fn read_many_is_one_round_trip_with_per_entry_results() {
    let (w, server) = net_world("readmany", wedge_core::NodeBehavior::Honest);
    let mut publisher = w.publisher();
    let data = payloads(25);
    publisher.append_batch(data.clone()).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let remote = Arc::new(RemoteNode::connect(server.local_addr()).unwrap());
    // Mixed batch: two valid ids, one missing.
    let ids = [
        wedge_core::EntryId {
            log_id: 0,
            offset: 3,
        },
        wedge_core::EntryId {
            log_id: 99,
            offset: 0,
        },
        wedge_core::EntryId {
            log_id: 0,
            offset: 7,
        },
    ];
    let results = remote.read_entries(&ids);
    assert_eq!(results.len(), 3);
    assert!(!results[0].as_ref().unwrap().leaf.is_empty());
    assert!(results[1].is_err());
    assert!(results[2].is_ok());
    // And through the Reader it verifies end-to-end.
    let reader = Reader::new(remote, Arc::clone(&w.chain), w.root_record);
    let verified = reader.read_many(&ids);
    assert!(verified[0].is_ok());
    assert!(verified[1].is_err());
    assert_eq!(verified[2].as_ref().unwrap().request.payload, data[7]);
}
