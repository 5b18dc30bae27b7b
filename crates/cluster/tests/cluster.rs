//! Cluster integration: routing, two-level proofs, exactly-once epoch
//! commits under chain faults, and shard crash/failover recovery.

use std::sync::Arc;
use std::time::Duration;

use wedge_chain::ChainConfig;
use wedge_cluster::{identity_on_shard, ClusterConfig, ClusterEntryId, LocalCluster};
use wedge_contracts::ClusterRoot;
use wedge_core::{AppendRequest, CommitPhase, CoreError, NodeConfig, SignedResponse};
use wedge_crypto::hash::Hash32;
use wedge_crypto::signer::Identity;

/// A small-batch node config so tests flush quickly.
fn test_node_config() -> NodeConfig {
    NodeConfig {
        batch_size: 8,
        batch_linger: Duration::from_millis(5),
        ..Default::default()
    }
}

fn test_cluster(tag: &str, shards: usize) -> LocalCluster {
    LocalCluster::start(
        tag,
        ClusterConfig {
            shards,
            node: test_node_config(),
            ..Default::default()
        },
    )
    .expect("cluster start")
}

/// Appends `n` entries through the router as a publisher pinned to
/// `shard`, returning the stage-1 responses.
fn append_on_shard(
    cluster: &LocalCluster,
    shard: usize,
    tag: &str,
    n: usize,
) -> Vec<SignedResponse> {
    let identity = identity_on_shard(cluster.router.shard_map(), shard, tag);
    let (tx, rx) = crossbeam::channel::unbounded();
    for seq in 0..n as u64 {
        let request = AppendRequest::new(
            identity.secret_key(),
            seq,
            format!("{tag}-{seq}").into_bytes(),
        );
        let routed = cluster
            .router
            .submit(request, {
                let tx = tx.clone();
                Box::new(move |result| {
                    let _ = tx.send(result);
                })
            })
            .expect("submit");
        assert_eq!(routed, shard, "router must place the publisher's shard");
    }
    cluster.router.flush();
    (0..n)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("reply")
                .expect("stage-1 response")
        })
        .collect()
}

#[test]
fn cluster_commits_and_two_level_proofs_verify_on_chain() {
    let mut cluster = test_cluster("proof", 4);
    let mut responses = Vec::new();
    for shard in 0..cluster.shards() {
        responses.push(append_on_shard(&cluster, shard, "proof-pub", 12));
    }
    cluster.settle(Duration::from_secs(3600)).expect("settle");

    // One on-chain transaction per epoch, regardless of shard count.
    let stats = cluster.coordinator.stats();
    assert!(stats.epochs_committed >= 1);
    assert_eq!(
        stats.txs_submitted, stats.epochs_committed,
        "no faults: exactly one tx per epoch"
    );

    for (shard, shard_responses) in responses.iter().enumerate() {
        let node = cluster.node(shard).expect("shard up");
        // Every position is blockchain-committed via the epoch path.
        for response in shard_responses {
            assert_eq!(
                node.commit_phase(response.entry_id.log_id),
                CommitPhase::BlockchainCommitted
            );
        }
        // Prove the first entry against the *on-chain* root-of-roots.
        let id = shard_responses[0].entry_id;
        let proof = cluster
            .coordinator
            .prove(&cluster.router, shard, id)
            .expect("cluster proof");
        let on_chain = cluster
            .coordinator
            .on_chain_root(proof.epoch)
            .expect("on-chain root");
        let node_key = cluster.router.node_public_key(shard);
        proof.verify(&node_key, &on_chain).expect("proof verifies");

        // The composed (3-level) form verifies the same chain.
        let composed = proof.composed();
        composed
            .verify(&proof.response.leaf, &on_chain)
            .expect("composed proof verifies");

        // Mutated shard root: the chain breaks at the cluster level.
        let mut bad = proof.clone();
        bad.shard_root = Hash32([0xEE; 32]);
        assert!(bad.verify(&node_key, &on_chain).is_err());

        // Wrong shard index: the shard binding check rejects it.
        let mut bad = proof.clone();
        bad.shard = (shard as u64 + 1) % cluster.shards() as u64;
        assert!(matches!(
            bad.verify(&node_key, &on_chain),
            Err(CoreError::ProofPositionMismatch { .. })
        ));

        // Wrong cluster root entirely.
        assert!(proof.verify(&node_key, &Hash32([0xAB; 32])).is_err());
    }

    // Cross-shard franken-proof: shard 0's entry under shard 1's upper
    // levels must not verify, even with a consistent shard claim.
    let p0 = cluster
        .coordinator
        .prove(&cluster.router, 0, responses[0][0].entry_id)
        .expect("proof 0");
    let p1 = cluster
        .coordinator
        .prove(&cluster.router, 1, responses[1][0].entry_id)
        .expect("proof 1");
    let on_chain = cluster.coordinator.on_chain_root(p0.epoch).expect("root");
    let mut franken = p0.clone();
    franken.shard = p1.shard;
    franken.shard_proof = p1.shard_proof.clone();
    franken.shard_root = p1.shard_root;
    franken.cluster_proof = p1.cluster_proof.clone();
    assert!(
        franken
            .verify(&cluster.router.node_public_key(0), &on_chain)
            .is_err(),
        "shard 0's batch root is not under shard 1's epoch root"
    );
}

#[test]
fn router_reads_route_and_fan_out() {
    let cluster = test_cluster("reads", 3);
    let mut all: Vec<(usize, Vec<SignedResponse>)> = Vec::new();
    for shard in 0..cluster.shards() {
        all.push((shard, append_on_shard(&cluster, shard, "read-pub", 9)));
    }
    // Point reads route by cluster id; sequence reads by publisher.
    for (shard, responses) in &all {
        let id = ClusterEntryId {
            shard: *shard,
            id: responses[3].entry_id,
        };
        let read = cluster.router.read(id).expect("point read");
        assert_eq!(read.leaf, responses[3].leaf);
        let identity = identity_on_shard(cluster.router.shard_map(), *shard, "read-pub");
        let by_seq = cluster
            .router
            .read_by_sequence(identity.address(), 5)
            .expect("sequence read");
        assert_eq!(by_seq.leaf, responses[5].leaf);
    }
    // Cross-shard batch read comes back in input order.
    let ids: Vec<ClusterEntryId> = all
        .iter()
        .flat_map(|(shard, responses)| {
            responses.iter().map(|r| ClusterEntryId {
                shard: *shard,
                id: r.entry_id,
            })
        })
        .collect();
    let results = cluster.router.read_many(&ids);
    assert_eq!(results.len(), ids.len());
    let leaves: Vec<&Vec<u8>> = all
        .iter()
        .flat_map(|(_, responses)| responses.iter().map(|r| &r.leaf))
        .collect();
    for (result, expected) in results.iter().zip(leaves) {
        assert_eq!(&result.as_ref().expect("fan-out read").leaf, expected);
    }
}

#[test]
fn chain_fault_bursts_commit_every_epoch_exactly_once() {
    let mut cluster = LocalCluster::start(
        "faults",
        ClusterConfig {
            shards: 3,
            node: test_node_config(),
            chain: ChainConfig {
                // Short enough that a delayed receipt forces the timeout →
                // reconcile path within the test budget.
                receipt_timeout: Duration::from_secs(120),
                ..ChainConfig::default()
            },
            ..Default::default()
        },
    )
    .expect("cluster");

    for round in 0..3 {
        for shard in 0..cluster.shards() {
            append_on_shard(&cluster, shard, &format!("fault-pub-{round}"), 10);
        }
        // A fresh fault burst ahead of every settle: dropped submissions,
        // forced reverts, and a receipt delayed past the timeout.
        cluster.chain.faults().drop_next_submissions(2);
        cluster.chain.faults().revert_next_calls(1);
        cluster
            .chain
            .faults()
            .delay_next_receipts(1, Duration::from_secs(300));
        cluster.settle(Duration::from_secs(36_000)).expect("settle");
    }
    cluster.chain.faults().clear();

    let stats = cluster.coordinator.stats();
    assert!(stats.retries > 0, "faults must have forced retries");
    assert!(
        stats.txs_submitted > stats.epochs_committed,
        "some submissions failed and were retried"
    );

    // Exactly-once: the contract's tail equals the coordinator's epoch
    // count — no epoch skipped, none double-committed — and every record
    // agrees with the on-chain digest.
    let tail = cluster
        .chain
        .view(
            cluster.coordinator.contract(),
            &ClusterRoot::get_tail_epoch_calldata(),
        )
        .ok()
        .and_then(|out| ClusterRoot::decode_u64(&out))
        .expect("tail epoch");
    assert_eq!(tail, cluster.coordinator.stats().epochs_committed);
    assert_eq!(tail, cluster.coordinator.next_epoch());
    for record in cluster.coordinator.records() {
        let on_chain = cluster
            .coordinator
            .on_chain_root(record.epoch)
            .expect("epoch digest on-chain");
        assert_eq!(on_chain, record.cluster_root);
    }

    // Nothing stuck pending on any shard.
    for shard in 0..cluster.shards() {
        let node = cluster.node(shard).expect("up");
        for log_id in 0..node.log_positions() {
            assert_eq!(node.commit_phase(log_id), CommitPhase::BlockchainCommitted);
        }
        let node_stats = node.stats();
        assert_eq!(node_stats.epoch_stale_rejected, 0);
    }
}

/// A shard's commits go through the same application function as a single
/// node's, so `CommitInfo::stage2_latency` is the real flush → confirmation
/// time (simulated), not the zero the epoch path used to record.
#[test]
fn shard_commit_info_carries_real_stage2_latency() {
    let mut cluster = test_cluster("latency", 2);
    for shard in 0..cluster.shards() {
        append_on_shard(&cluster, shard, "latency-pub", 8);
    }
    cluster.settle(Duration::from_secs(3600)).expect("settle");
    for shard in 0..cluster.shards() {
        let node = cluster.node(shard).expect("up");
        let info = node.commit_info(0).expect("position 0 committed");
        // At least the confirmation depth's worth of 13 s blocks.
        assert!(
            info.stage2_latency >= Duration::from_secs(13),
            "shard {shard}: {:?}",
            info.stage2_latency
        );
        let mean = node.stats().mean_stage2_latency().expect("commits counted");
        assert!(mean >= Duration::from_secs(13), "shard {shard}: {mean:?}");
    }
}

#[test]
fn shard_crash_recovers_from_checkpoint_with_router_failover() {
    let mut cluster = test_cluster("crash", 3);
    let crash_shard = 1;

    // Commit a first wave everywhere.
    let mut first: Vec<Vec<SignedResponse>> = Vec::new();
    for shard in 0..cluster.shards() {
        first.push(append_on_shard(&cluster, shard, "crash-pub", 10));
    }
    cluster.settle(Duration::from_secs(3600)).expect("settle 1");

    // Leave uncommitted work on the crash shard, then take it down
    // mid-epoch (flushed but not yet epoch-committed).
    let pending = append_on_shard(&cluster, crash_shard, "crash-pending", 8);
    cluster.crash_shard(crash_shard);

    // Router failover: the downed shard errors fast, the others serve.
    let identity = identity_on_shard(cluster.router.shard_map(), crash_shard, "crash-pub");
    assert!(cluster
        .router
        .read_by_sequence(identity.address(), 0)
        .is_err());
    let alive = identity_on_shard(cluster.router.shard_map(), 0, "crash-pub");
    cluster
        .router
        .read_by_sequence(alive.address(), 0)
        .expect("other shards unaffected");

    // Epochs keep committing for the live shards while one is down.
    for shard in 0..cluster.shards() {
        if shard != crash_shard {
            append_on_shard(&cluster, shard, "crash-wave2", 10);
        }
    }
    cluster
        .settle(Duration::from_secs(3600))
        .expect("settle without the crashed shard");
    assert!(
        cluster.coordinator.stats().reports_failed > 0,
        "the downed shard was skipped, not waited on"
    );

    // Restart from disk: checkpoint + tail replay, then failover back.
    cluster.restart_shard(crash_shard).expect("restart");
    let node = Arc::clone(cluster.node(crash_shard).expect("up"));
    assert_eq!(
        node.read(first[crash_shard][2].entry_id)
            .expect("old entry")
            .leaf,
        first[crash_shard][2].leaf,
        "pre-crash entries recovered"
    );
    // Pre-crash commits were restored; the interrupted group re-reports
    // and commits in the next epochs.
    assert_eq!(
        node.commit_phase(first[crash_shard][0].entry_id.log_id),
        CommitPhase::BlockchainCommitted
    );
    cluster.settle(Duration::from_secs(3600)).expect("settle 3");
    for response in &pending {
        assert_eq!(
            node.commit_phase(response.entry_id.log_id),
            CommitPhase::BlockchainCommitted,
            "interrupted group must commit after recovery"
        );
    }

    // The recovered shard serves new appends through the router again.
    let after = append_on_shard(&cluster, crash_shard, "crash-after", 6);
    cluster.settle(Duration::from_secs(3600)).expect("settle 4");
    let proof = cluster
        .coordinator
        .prove(&cluster.router, crash_shard, after[0].entry_id)
        .expect("proof over recovered shard");
    let root = cluster
        .coordinator
        .on_chain_root(proof.epoch)
        .expect("root");
    proof
        .verify(&cluster.router.node_public_key(crash_shard), &root)
        .expect("post-recovery proof verifies");
}

#[test]
fn epoch_mode_only_for_cluster_nodes() {
    // A Direct-mode node rejects epoch RPCs (the default LogService path).
    let cluster = test_cluster("mode", 1);
    // The shard node itself accepts them; a default-mode identity check is
    // covered in wedge-core. Here: empty cluster epoch is a no-op.
    let mut cluster = cluster;
    assert!(
        !cluster.run_epoch().expect("empty epoch"),
        "nothing pending"
    );
    assert_eq!(cluster.coordinator.stats().epochs_committed, 0);
    let _ = Identity::from_seed(b"unused");
}
