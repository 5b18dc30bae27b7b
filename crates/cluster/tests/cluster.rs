//! Cluster integration: routing, two-level proofs, exactly-once epoch
//! commits under chain faults, and shard crash/failover recovery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wedge_chain::ChainConfig;
use wedge_cluster::{identity_on_shard, ClusterConfig, ClusterEntryId, LocalCluster};
use wedge_contracts::ClusterRoot;
use wedge_core::node::ReplyFn;
use wedge_core::{
    AppendRequest, CommitPhase, CoreError, EntryId, EpochCommit, LogService, NodeConfig,
    ShardGroup, SignedResponse,
};
use wedge_crypto::hash::Hash32;
use wedge_crypto::keys::Address;
use wedge_crypto::signer::Identity;
use wedge_crypto::PublicKey;
use wedge_merkle::RangeProof;

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

/// Runs coordinator steps one block interval apart — the cadence a
/// deployment drives them at — until every running shard's flushed
/// positions are blockchain-committed.
fn settle_at_block_cadence(cluster: &mut LocalCluster) {
    let interval = cluster.chain.config().block_interval;
    let started = cluster.clock.now();
    loop {
        cluster.run_epoch().expect("run_epoch");
        let idle = (0..cluster.shards())
            .filter_map(|shard| cluster.node(shard))
            .all(|node| node.wait_stage2_idle(Duration::ZERO).is_ok());
        if idle {
            return;
        }
        assert!(
            cluster.clock.now().since(started) < Duration::from_secs(36_000),
            "never settled"
        );
        cluster.clock.sleep(interval);
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

    // Rounds whose epoch n was still unacknowledged when epoch n+1 met its
    // faults (a call returns once its epoch is mined; on the 2000× clock
    // the two confirmation blocks are only 13 ms of wall time).
    let mut behind_one_in_flight = 0;
    for round in 0..3 {
        // Epoch n: a wave on every shard, sent and mined.
        for shard in 0..cluster.shards() {
            append_on_shard(&cluster, shard, &format!("fault-pub-{round}"), 10);
        }
        behind_one_in_flight += u32::from(!cluster.run_epoch().expect("epoch n"));
        // Epoch n+1 meets a fresh fault burst while epoch n is in flight:
        // dropped submissions, forced reverts, and a receipt delayed past
        // the timeout.
        for shard in 0..cluster.shards() {
            append_on_shard(&cluster, shard, &format!("fault-next-{round}"), 10);
        }
        cluster.chain.faults().drop_next_submissions(2);
        cluster.chain.faults().revert_next_calls(1);
        cluster
            .chain
            .faults()
            .delay_next_receipts(1, Duration::from_secs(300));
        settle_at_block_cadence(&mut cluster);
    }
    cluster.chain.faults().clear();
    assert!(
        behind_one_in_flight > 0,
        "no fault hit an epoch behind another"
    );

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
    let records = cluster.coordinator.records();
    for record in records {
        let on_chain = cluster
            .coordinator
            .on_chain_root(record.epoch)
            .expect("epoch digest on-chain");
        assert_eq!(on_chain, record.cluster_root);
    }

    // Nothing stuck pending on any shard, and each position acknowledged
    // exactly once: by the one epoch covering it, whose transaction its
    // commit names.
    assert_eq!(stats.acks_failed, 0);
    for shard in 0..cluster.shards() {
        let node = cluster.node(shard).expect("up");
        for log_id in 0..node.log_positions() {
            assert_eq!(node.commit_phase(log_id), CommitPhase::BlockchainCommitted);
            let covering: Vec<_> = records
                .iter()
                .filter(|r| r.shards[shard].covers(log_id))
                .collect();
            assert_eq!(
                covering.len(),
                1,
                "shard {shard} position {log_id}: acknowledged by {} epochs",
                covering.len()
            );
            let info = node.commit_info(log_id).expect("committed");
            assert_eq!(
                (info.tx_hash, info.block_number),
                (covering[0].tx_hash, covering[0].block_number),
                "shard {shard} position {log_id}"
            );
        }
        let node_stats = node.stats();
        assert_eq!(node_stats.epoch_stale_rejected, 0);
    }
}

/// A coordinator stopped right after a call that left epoch n mined but
/// unacknowledged loses it with its memory. Its successor, built on the
/// same contract, covers epoch n's positions again in a later epoch, and
/// each of them proves against that epoch's on-chain root.
#[test]
fn a_restarted_coordinator_covers_the_epoch_it_left_in_flight() {
    // 13 s blocks at 100×: a block is 130 ms of wall time, so the epoch a
    // call sends is still far from confirmation-deep when the call returns.
    let mut cluster = LocalCluster::start(
        "coordinator-restart",
        ClusterConfig {
            shards: 2,
            node: test_node_config(),
            compression: 100.0,
            ..Default::default()
        },
    )
    .expect("cluster");
    for shard in 0..cluster.shards() {
        append_on_shard(&cluster, shard, "restart-first", 8);
    }
    cluster.settle(Duration::from_secs(3600)).expect("settle");

    let pending: Vec<Vec<SignedResponse>> = (0..cluster.shards())
        .map(|shard| append_on_shard(&cluster, shard, "restart-in-flight", 8))
        .collect();
    let n = cluster.coordinator.next_epoch();
    assert!(!cluster.run_epoch().expect("epoch n"), "epoch n in flight");
    assert_eq!(cluster.coordinator.next_epoch(), n + 1);
    cluster
        .coordinator
        .on_chain_root(n)
        .expect("epoch n is on chain");
    for (shard, responses) in pending.iter().enumerate() {
        let node = cluster.node(shard).expect("up");
        for response in responses {
            assert_eq!(
                node.commit_phase(response.entry_id.log_id),
                CommitPhase::OffchainCommitted,
                "epoch n is unacknowledged"
            );
        }
    }

    cluster.restart_coordinator();
    assert_eq!(cluster.coordinator.next_epoch(), n + 1);
    cluster.settle(Duration::from_secs(3600)).expect("settle");
    for (shard, responses) in pending.iter().enumerate() {
        let node = cluster.node(shard).expect("up");
        for log_id in 0..node.log_positions() {
            assert_eq!(node.commit_phase(log_id), CommitPhase::BlockchainCommitted);
        }
        for response in responses {
            let proof = cluster
                .coordinator
                .prove(&cluster.router, shard, response.entry_id)
                .expect("re-covered by the new coordinator");
            assert!(proof.epoch > n, "covered by epoch {}", proof.epoch);
            let root = cluster
                .coordinator
                .on_chain_root(proof.epoch)
                .expect("on-chain root");
            proof
                .verify(&cluster.router.node_public_key(shard), &root)
                .expect("proof verifies against the on-chain root");
        }
    }
}

/// A shard backend whose next `epoch_commit` fails once `fail_next_ack`
/// is set, as a transport error would; everything else reaches the node.
struct AckFault {
    node: Arc<dyn LogService>,
    fail_next_ack: Arc<AtomicBool>,
}

impl LogService for AckFault {
    fn node_public_key(&self) -> PublicKey {
        self.node.node_public_key()
    }
    fn submit_request(&self, request: AppendRequest, reply: ReplyFn) -> Result<(), CoreError> {
        self.node.submit_request(request, reply)
    }
    fn flush(&self) {
        self.node.flush();
    }
    fn read_entry(&self, id: EntryId) -> Result<SignedResponse, CoreError> {
        self.node.read_entry(id)
    }
    fn read_entry_by_sequence(
        &self,
        publisher: Address,
        sequence: u64,
    ) -> Result<SignedResponse, CoreError> {
        self.node.read_entry_by_sequence(publisher, sequence)
    }
    fn read_position(&self, log_id: u64) -> Result<Vec<SignedResponse>, CoreError> {
        self.node.read_position(log_id)
    }
    fn position_len(&self, log_id: u64) -> Option<u32> {
        self.node.position_len(log_id)
    }
    fn scan(
        &self,
        log_id: u64,
        start: u32,
        count: u32,
    ) -> Result<(Vec<Vec<u8>>, RangeProof, Hash32), CoreError> {
        self.node.scan(log_id, start, count)
    }
    fn positions(&self) -> u64 {
        self.node.positions()
    }
    fn entries(&self) -> u64 {
        self.node.entries()
    }
    fn epoch_report(&self, max_group: usize) -> Result<ShardGroup, CoreError> {
        self.node.epoch_report(max_group)
    }
    fn epoch_commit(&self, commit: EpochCommit) -> Result<u64, CoreError> {
        if self.fail_next_ack.swap(false, Ordering::AcqRel) {
            return Err(CoreError::NodeStopped);
        }
        self.node.epoch_commit(commit)
    }
}

/// A lost acknowledgement while the next epoch is already in flight: that
/// epoch starts past the shard's frontier, so its own ack is rejected as a
/// commitment gap, and the coordinator must cover the gap again in a later
/// epoch — while traffic keeps the pipeline full, not only once it drains.
#[test]
fn a_lost_ack_is_covered_again_while_epochs_stay_in_flight() {
    // 13 s blocks at 100×, as in the restart test: every call leaves the
    // epoch it sent in flight.
    let mut cluster = LocalCluster::start(
        "lost-ack",
        ClusterConfig {
            shards: 2,
            node: test_node_config(),
            compression: 100.0,
            ..Default::default()
        },
    )
    .expect("cluster");
    let fail_next_ack = Arc::new(AtomicBool::new(false));
    cluster.router.replace_shard(
        0,
        Arc::new(AckFault {
            node: cluster.router.backend(0),
            fail_next_ack: Arc::clone(&fail_next_ack),
        }),
    );

    // Fill the pipeline: a wave on every shard and a call per block.
    let mut round = 0;
    let mut traffic = |cluster: &mut LocalCluster| {
        for shard in 0..cluster.shards() {
            append_on_shard(cluster, shard, &format!("lost-ack-{round}"), 8);
        }
        round += 1;
        cluster.run_epoch().expect("run_epoch")
    };
    assert!(
        (0..12).any(|_| traffic(&mut cluster)),
        "no epoch acknowledged"
    );
    // The next acknowledgement to shard 0 is lost; the epoch it
    // acknowledges covers positions below `lost`.
    let lost = cluster.node(0).expect("up").log_positions();
    fail_next_ack.store(true, Ordering::Release);
    let caught_up = (0..12).find(|_| {
        traffic(&mut cluster);
        cluster.node(0).expect("up").commit_phase(lost - 1) == CommitPhase::BlockchainCommitted
    });
    assert!(!fail_next_ack.load(Ordering::Acquire), "no ack was lost");
    let stats = cluster.coordinator.stats();
    // The lost ack, and the gap rejection of the epoch sent behind it.
    assert!(stats.acks_failed >= 2, "{stats:?}");
    assert!(
        caught_up.is_some(),
        "shard 0 stayed behind its lost ack while traffic ran: {stats:?}"
    );

    cluster.settle(Duration::from_secs(3600)).expect("settle");
    for shard in 0..cluster.shards() {
        let node = cluster.node(shard).expect("up");
        for log_id in 0..node.log_positions() {
            assert_eq!(node.commit_phase(log_id), CommitPhase::BlockchainCommitted);
        }
        assert_eq!(node.stats().epoch_stale_rejected, 0);
    }
}

/// A chain outage that exhausts the next epoch's retries does not hold
/// back the epoch already in flight: it confirms meanwhile, and the failed
/// call still acknowledges and records it.
#[test]
fn an_outage_on_the_next_epoch_still_acknowledges_the_confirmed_one() {
    let mut cluster = LocalCluster::start(
        "outage-ack",
        ClusterConfig {
            shards: 2,
            node: test_node_config(),
            compression: 100.0,
            ..Default::default()
        },
    )
    .expect("cluster");
    let first: Vec<Vec<SignedResponse>> = (0..cluster.shards())
        .map(|shard| append_on_shard(&cluster, shard, "outage-first", 8))
        .collect();
    let n = cluster.coordinator.next_epoch();
    assert!(!cluster.run_epoch().expect("epoch n"), "epoch n in flight");

    for shard in 0..cluster.shards() {
        append_on_shard(&cluster, shard, "outage-next", 8);
    }
    cluster.chain.faults().drop_next_submissions(1_000);
    cluster
        .run_epoch()
        .expect_err("every submission of epoch n+1 is dropped");
    cluster.chain.faults().clear();
    assert_eq!(cluster.coordinator.next_epoch(), n + 1);
    let records = cluster.coordinator.records();
    assert_eq!(records.last().map(|r| r.epoch), Some(n), "epoch n recorded");
    for (shard, responses) in first.iter().enumerate() {
        let node = cluster.node(shard).expect("up");
        for response in responses {
            assert_eq!(
                node.commit_phase(response.entry_id.log_id),
                CommitPhase::BlockchainCommitted,
                "shard {shard}: epoch n acknowledged"
            );
        }
    }

    cluster.settle(Duration::from_secs(3600)).expect("settle");
    for shard in 0..cluster.shards() {
        let node = cluster.node(shard).expect("up");
        for log_id in 0..node.log_positions() {
            assert_eq!(node.commit_phase(log_id), CommitPhase::BlockchainCommitted);
        }
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
