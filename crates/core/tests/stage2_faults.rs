//! Stage-2 fault-tolerance tests: injected chain failures (dropped
//! submissions, forced reverts, hidden receipts) during sustained ingestion
//! must never silently lose a flushed commitment — every position reaches
//! `CommitPhase::BlockchainCommitted` exactly once short of retry
//! exhaustion.

use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{Chain, ChainConfig, Wei};
use wedge_contracts::RootRecord;
use wedge_core::{
    deploy_service, CommitPhase, NodeBehavior, NodeConfig, OffchainNode, Publisher, ServiceConfig,
    Stage2RetryPolicy,
};
use wedge_crypto::signer::Identity;
use wedge_sim::Clock;

struct World {
    chain: Arc<Chain>,
    node: Arc<OffchainNode>,
    node_identity: Identity,
    publisher: Publisher,
    root_record: wedge_chain::Address,
    _miner: wedge_chain::MinerHandle,
    dir: std::path::PathBuf,
}

fn retry_policy() -> Stage2RetryPolicy {
    Stage2RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_secs(1),
        max_backoff: Duration::from_secs(15),
        jitter: 0.2,
    }
}

fn node_config(batch_size: usize) -> NodeConfig {
    NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(5),
        stage2_max_group: 4,
        stage2_retry: retry_policy(),
        ..Default::default()
    }
}

fn world(tag: &str, chain_config: ChainConfig, config: NodeConfig) -> World {
    // 2000x compression: 13 s blocks every 6.5 ms of wall time.
    let clock = Clock::compressed(2000.0);
    let chain = Chain::new(clock, chain_config);
    let node_identity = Identity::from_seed(format!("s2f-node-{tag}").as_bytes());
    let client_identity = Identity::from_seed(format!("s2f-client-{tag}").as_bytes());
    chain.fund(node_identity.address(), Wei::from_eth(1000));
    chain.fund(client_identity.address(), Wei::from_eth(1000));
    let miner = chain.start_miner();
    let deployment = deploy_service(
        &chain,
        &node_identity,
        client_identity.address(),
        &ServiceConfig {
            escrow: Wei::from_eth(32),
            payment_terms: None,
        },
    )
    .expect("deploy contracts");
    let dir = std::env::temp_dir().join(format!("wedge-s2f-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let node = Arc::new(
        OffchainNode::start(
            node_identity.clone(),
            config,
            Arc::clone(&chain),
            deployment.root_record,
            &dir,
        )
        .expect("start node"),
    );
    let publisher = Publisher::new(
        client_identity,
        Arc::clone(&node),
        Arc::clone(&chain),
        deployment.root_record,
        Some(deployment.punishment),
    );
    World {
        chain,
        node,
        node_identity,
        publisher,
        root_record: deployment.root_record,
        _miner: miner,
        dir,
    }
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("entry-{i}").into_bytes()).collect()
}

fn onchain_tail(chain: &Chain, root_record: wedge_chain::Address) -> u64 {
    let out = chain
        .view(root_record, &RootRecord::get_tail_calldata())
        .expect("tail view");
    RootRecord::decode_tail(&out).expect("tail decode")
}

/// Asserts every flushed position is blockchain-committed exactly once:
/// present in the node's commit map, and covered by the on-chain tail (the
/// contract's single-write invariant rules out a second landing).
fn assert_all_committed_exactly_once(
    chain: &Chain,
    node: &OffchainNode,
    root_record: wedge_chain::Address,
) {
    let positions = node.log_positions();
    assert!(positions > 0, "test ingested nothing");
    assert_eq!(
        onchain_tail(chain, root_record),
        positions,
        "on-chain tail must cover every flushed position"
    );
    for log_id in 0..positions {
        assert_eq!(
            node.commit_phase(log_id),
            CommitPhase::BlockchainCommitted,
            "position {log_id} lost"
        );
        assert!(node.commit_info(log_id).is_some());
    }
    let stats = node.stats();
    assert_eq!(
        stats.stage2_committed, positions,
        "each position committed exactly once"
    );
    assert_eq!(stats.stage2_failed, 0, "no commitment abandoned");
}

/// The PR's acceptance scenario: N consecutive chain failures (submission
/// drops and forced reverts) during sustained ingestion. All flushed
/// positions must still land, each exactly once, with `stage2_retries > 0`
/// and `stage2_failed == 0`.
#[test]
fn consecutive_chain_failures_never_lose_commitments() {
    let mut w = world("sustained", ChainConfig::default(), node_config(10));
    // Round 1: 2 dropped submissions, then 2 forced reverts, while the
    // publisher keeps ingesting.
    w.chain.faults().drop_next_submissions(2);
    w.chain.faults().revert_next_calls(2);
    w.publisher.append_batch(payloads(40)).expect("round 1");
    // Round 2: more faults arrive mid-stream, more ingestion on top.
    w.chain.faults().drop_next_submissions(1);
    w.publisher.append_batch(payloads(30)).expect("round 2");
    w.node
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("all positions must eventually commit");
    assert_all_committed_exactly_once(&w.chain, &w.node, w.root_record);
    let stats = w.node.stats();
    assert!(
        stats.stage2_retries > 0,
        "faults fired, so retries must have happened: {stats:?}"
    );
    assert!(stats.stage2_requeued > 0);
    assert!(stats.stage2_submission_errors >= 3);
    assert!(stats.stage2_reverts >= 1);
    assert!(
        !stats.stage2_backoff_hist.is_empty() && stats.stage2_backoff_hist[0] > 0,
        "backoff histogram records first-retry waits: {:?}",
        stats.stage2_backoff_hist
    );
    // Every armed fault actually fired.
    assert_eq!(w.chain.faults().submissions_dropped(), 3);
    assert_eq!(w.chain.faults().calls_reverted(), 2);
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// A receipt hidden past the patience window looks like a timeout while the
/// transaction in fact landed. The committer must reconcile against the
/// on-chain tail and skip the landed positions instead of re-sending them.
#[test]
fn timed_out_but_landed_group_is_reconciled_not_resent() {
    let chain_config = ChainConfig {
        // Short patience so the hidden receipt turns into a timeout quickly.
        receipt_timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let mut w = world("timeout", chain_config, node_config(10));
    // Hide the first Update-Records receipt for 4 simulated minutes.
    w.chain
        .faults()
        .delay_next_receipts(1, Duration::from_secs(240));
    w.publisher.append_batch(payloads(10)).expect("append");
    w.node
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("the landed group must be reconciled");
    assert_all_committed_exactly_once(&w.chain, &w.node, w.root_record);
    let stats = w.node.stats();
    assert!(stats.stage2_timeouts >= 1, "{stats:?}");
    assert_eq!(
        stats.stage2_txs_submitted, 1,
        "the landed transaction must not be re-sent"
    );
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// Restart recovery under faults: the node crashes between stage 1 and
/// stage 2 (modelled via the omission behaviour), restarts honest, and the
/// chain reverts its first re-submission. Every recovered position must
/// still land on-chain exactly once.
#[test]
fn restart_recovery_survives_reverted_resubmission() {
    let w = world(
        "recovery",
        ChainConfig::default(),
        NodeConfig {
            behavior: NodeBehavior::OmitStage2 { from_log: 0 },
            ..node_config(10)
        },
    );
    let World {
        chain,
        node,
        node_identity,
        publisher,
        root_record,
        _miner,
        dir,
    } = w;
    let mut publisher = publisher;
    publisher.append_batch(payloads(30)).expect("append");
    let flushed = node.log_positions();
    assert_eq!(flushed, 3);
    assert_eq!(onchain_tail(&chain, root_record), 0, "nothing committed");
    // "Crash" between stage 1 and stage 2.
    drop(node);
    drop(publisher);
    // Restart honest, with the chain reverting the first re-submission.
    chain.faults().revert_next_calls(1);
    let node = Arc::new(
        OffchainNode::start(
            node_identity.clone(),
            node_config(10),
            Arc::clone(&chain),
            root_record,
            &dir,
        )
        .expect("restart node"),
    );
    assert_eq!(node.log_positions(), flushed, "state recovered");
    node.wait_stage2_idle(Duration::from_secs(3600))
        .expect("recovered positions must commit despite the revert");
    assert_eq!(onchain_tail(&chain, root_record), flushed);
    let stats = node.stats();
    assert_eq!(stats.stage2_failed, 0);
    assert!(stats.stage2_retries >= 1, "{stats:?}");
    assert_eq!(
        stats.stage2_committed, flushed,
        "each recovered position lands exactly once"
    );
    for log_id in 0..flushed {
        assert_eq!(node.commit_phase(log_id), CommitPhase::BlockchainCommitted);
    }
    assert_eq!(chain.faults().calls_reverted(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `stage2_failed` now means "retries exhausted", not "first attempt
/// unlucky": only a fault burst longer than the whole retry budget loses
/// the group, and the loss is visible in the stats.
#[test]
fn exhausted_retries_are_counted_as_failed() {
    let config = NodeConfig {
        stage2_retry: Stage2RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(500),
            max_backoff: Duration::from_secs(2),
            jitter: 0.0,
        },
        ..node_config(10)
    };
    let mut w = world("exhaust", ChainConfig::default(), config);
    // More drops than the retry budget can absorb.
    w.chain.faults().drop_next_submissions(1_000);
    w.publisher.append_batch(payloads(10)).expect("append");
    assert!(
        w.node.wait_stage2_idle(Duration::from_secs(300)).is_err(),
        "the position can never commit"
    );
    // Give the committer time to burn through its attempts.
    eventually(|| w.node.stats().stage2_failed > 0);
    let stats = w.node.stats();
    assert_eq!(stats.stage2_failed, 1, "{stats:?}");
    assert_eq!(stats.stage2_committed, 0);
    assert_eq!(
        stats.stage2_retries, 2,
        "3 attempts = 1 initial + 2 retries: {stats:?}"
    );
    w.chain.faults().clear();
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// Polls `done` for up to 20 s of wall time.
fn eventually(done: impl Fn() -> bool) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !done() {
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    true
}

/// A long chain outage while N ≫ `stage2_max_group` batches flush: the
/// committer holds no backlog of its own (the pending group is derived from
/// the snapshot), so once the chain recovers everything flushed meanwhile
/// drains in full groups — ⌈N / max_group⌉ successful transactions, each
/// position exactly once, and not a single revert mined.
#[test]
fn long_outage_drains_in_full_groups_without_a_revert() {
    let config = NodeConfig {
        stage2_retry: Stage2RetryPolicy {
            // The outage must not exhaust the budget.
            max_attempts: u32::MAX,
            base_backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(4),
            jitter: 0.2,
        },
        ..node_config(10)
    };
    let max_group = config.stage2_max_group as u64;
    let mut w = world("outage", ChainConfig::default(), config);
    w.chain.faults().drop_next_submissions(u64::MAX);
    w.publisher.append_batch(payloads(300)).expect("append");
    let positions = w.node.log_positions();
    assert_eq!(positions, 30, "N = 30 positions against max_group = 4");
    // The chain is down: the committer keeps trying and nothing lands.
    assert!(eventually(|| w.chain.faults().submissions_dropped() >= 3));
    assert_eq!(w.node.stats().stage2_committed, 0);
    assert_eq!(onchain_tail(&w.chain, w.root_record), 0);

    w.chain.faults().clear();
    w.node
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("the backlog drains once the chain is back");
    assert_all_committed_exactly_once(&w.chain, &w.node, w.root_record);
    let stats = w.node.stats();
    assert_eq!(
        stats.stage2_txs_submitted - stats.stage2_submission_errors,
        positions.div_ceil(max_group),
        "full groups only: {stats:?}"
    );
    assert_eq!(
        stats.stage2_submission_errors,
        w.chain.faults().submissions_dropped()
    );
    assert_eq!(
        stats.stage2_reverts, 0,
        "no guaranteed-to-revert submission"
    );
    assert_eq!(stats.stage2_timeouts, 0);
    let mut txs: Vec<_> = (0..positions)
        .map(|log_id| w.node.commit_info(log_id).expect("committed").tx_hash)
        .collect();
    txs.dedup();
    assert_eq!(txs.len() as u64, positions.div_ceil(max_group));
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// After the retry budget is exhausted the committer parks: the Root Record
/// is strictly sequential, so nothing behind the abandoned head could land
/// and every further submission would be a guaranteed revert. Later flushes
/// therefore submit nothing — and a restart picks the whole backlog up from
/// the contract's tail.
#[test]
fn exhausted_committer_parks_until_restart() {
    let config = NodeConfig {
        stage2_retry: Stage2RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(500),
            max_backoff: Duration::from_secs(2),
            jitter: 0.0,
        },
        ..node_config(10)
    };
    let w = world("parked", ChainConfig::default(), config);
    let World {
        chain,
        node,
        node_identity,
        mut publisher,
        root_record,
        _miner,
        dir,
    } = w;
    chain.faults().drop_next_submissions(3);
    publisher.append_batch(payloads(10)).expect("append");
    assert!(eventually(|| node.stats().stage2_failed == 1));
    assert_eq!(node.stats().stage2_txs_submitted, 3);
    assert_eq!(
        chain.faults().submissions_dropped(),
        3,
        "the chain is healthy again"
    );

    // More flushes on a healthy chain, then a shutdown, which joins the
    // stage-2 thread: whatever it was ever going to submit, it has. A
    // committer that had not parked would first burn its attempts on the
    // three positions behind the abandoned head.
    let mined_before = chain.total_transactions();
    publisher.append_batch(payloads(30)).expect("append more");
    assert_eq!(node.log_positions(), 4);
    drop(publisher);
    let mut node = Arc::try_unwrap(node).unwrap_or_else(|_| panic!("sole owner of the node"));
    node.shutdown();
    let stats = node.stats();
    assert_eq!(stats.stage2_txs_submitted, 3, "parked: {stats:?}");
    assert_eq!(stats.stage2_failed, 1, "counted once");
    assert_eq!(stats.stage2_committed, 0);
    assert_eq!(chain.total_transactions(), mined_before);
    assert_eq!(onchain_tail(&chain, root_record), 0);
    drop(node);

    // Restart: the committer starts over from the on-chain tail.
    let node = OffchainNode::start(
        node_identity,
        node_config(10),
        Arc::clone(&chain),
        root_record,
        &dir,
    )
    .expect("restart node");
    node.wait_stage2_idle(Duration::from_secs(3600))
        .expect("the parked backlog commits after a restart");
    assert_all_committed_exactly_once(&chain, &node, root_record);
    assert_eq!(
        node.stats().stage2_txs_submitted,
        1,
        "4 positions, one group"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
