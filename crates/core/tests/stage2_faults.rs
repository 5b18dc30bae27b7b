//! Stage-2 fault-tolerance tests: injected chain failures (dropped
//! submissions, forced reverts, hidden receipts) during sustained ingestion
//! must never silently lose a flushed commitment — short of retry
//! exhaustion, `wedge_core::audit` finds every replied position committed
//! exactly once. The committer sends each group once the previous one is
//! mined: the last tests load it so that groups overlap their confirmation
//! blocks, and check that it still has at most one unmined transaction and
//! records a group only once it is confirmed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{Chain, ChainConfig, Receipt, Wei};
use wedge_core::{
    audit, deploy_service, CommitPhase, EvidenceKind, LocalNode, NodeBehavior, NodeConfig,
    OffchainNode, Publisher, ServiceConfig, SignedResponse, Stage2RetryPolicy, Transcript,
    Violation,
};
use wedge_crypto::signer::Identity;
use wedge_sim::Clock;
use wedge_storage::ScratchDir;

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

fn world(tag: &str, chain_config: ChainConfig, config: NodeConfig) -> LocalNode {
    // 2000x compression: 13 s blocks every 6.5 ms of wall time.
    let chain = Chain::new(Clock::compressed(2000.0), chain_config);
    LocalNode::start_on(&chain, tag, config).expect("start node")
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("entry-{i}").into_bytes()).collect()
}

/// Appends `n` entries and records their replies in `t`.
fn append(publisher: &mut Publisher, t: &mut Transcript, n: usize) {
    let outcome = publisher.append_batch(payloads(n)).expect("append");
    t.replies.extend(outcome.responses);
}

/// Audits the run: every replied position is committed exactly once, and
/// the node abandoned no commitment.
fn assert_settled(w: &LocalNode, t: &mut Transcript) {
    let verdict = w.audit(t).expect("chain record");
    assert!(verdict.is_settled(), "{verdict:?}");
    assert_eq!(w.node().stats().stage2_failed, 0, "no commitment abandoned");
}

/// N consecutive chain failures (submission
/// drops and forced reverts) during sustained ingestion. All flushed
/// positions must still land, each exactly once, with `stage2_retries > 0`
/// and `stage2_failed == 0`.
#[test]
fn consecutive_chain_failures_never_lose_commitments() {
    let w = world("sustained", ChainConfig::default(), node_config(10));
    let mut publisher = w.publisher();
    let mut t = w.transcript();
    // Round 1: 2 dropped submissions, then 2 forced reverts, while the
    // publisher keeps ingesting.
    w.chain.faults().drop_next_submissions(2);
    w.chain.faults().revert_next_calls(2);
    append(&mut publisher, &mut t, 40);
    // Round 2: more faults arrive mid-stream, more ingestion on top.
    w.chain.faults().drop_next_submissions(1);
    append(&mut publisher, &mut t, 30);
    w.node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("all positions must eventually commit");
    assert_settled(&w, &mut t);
    let stats = w.node().stats();
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
    let w = world("timeout", chain_config, node_config(10));
    let mut publisher = w.publisher();
    // Hide the first Update-Records receipt for 4 simulated minutes.
    w.chain
        .faults()
        .delay_next_receipts(1, Duration::from_secs(240));
    let mut t = w.transcript();
    append(&mut publisher, &mut t, 10);
    w.node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("the landed group must be reconciled");
    assert_settled(&w, &mut t);
    let stats = w.node().stats();
    assert!(stats.stage2_timeouts >= 1, "{stats:?}");
    assert_eq!(
        stats.stage2_txs_submitted, 1,
        "the landed transaction must not be re-sent"
    );
}

/// Restart recovery under faults: the node crashes between stage 1 and
/// stage 2 (modelled via the omission behaviour), restarts honest, and the
/// chain reverts its first re-submission. Every recovered position must
/// still land on-chain exactly once.
#[test]
fn restart_recovery_survives_reverted_resubmission() {
    let mut w = world(
        "recovery",
        ChainConfig::default(),
        NodeConfig {
            behavior: NodeBehavior::OmitStage2 { from_log: 0 },
            ..node_config(10)
        },
    );
    let mut t = w.transcript();
    append(&mut w.publisher(), &mut t, 30);
    let verdict = w.audit(&mut t).expect("chain record");
    assert_eq!(verdict.pending.len(), 3, "nothing committed: {verdict:?}");
    // "Crash" between stage 1 and stage 2.
    w.shutdown().expect("shut down");
    // Restart honest, with the chain reverting the first re-submission.
    w.chain.faults().revert_next_calls(1);
    w.restart(node_config(10)).expect("restart node");
    t.restarted(&**w.node());
    w.node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("recovered positions must commit despite the revert");
    assert_settled(&w, &mut t);
    let stats = w.node().stats();
    assert!(stats.stage2_retries >= 1, "{stats:?}");
    assert_eq!(w.chain.faults().calls_reverted(), 1);
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
    let w = world("exhaust", ChainConfig::default(), config);
    let mut publisher = w.publisher();
    // More drops than the retry budget can absorb.
    w.chain.faults().drop_next_submissions(1_000);
    publisher.append_batch(payloads(10)).expect("append");
    assert!(
        w.node().wait_stage2_idle(Duration::from_secs(300)).is_err(),
        "the position can never commit"
    );
    // Give the committer time to burn through its attempts.
    eventually(|| w.node().stats().stage2_failed > 0);
    let stats = w.node().stats();
    assert_eq!(stats.stage2_failed, 1, "{stats:?}");
    assert_eq!(stats.stage2_committed, 0);
    assert_eq!(
        stats.stage2_retries, 2,
        "3 attempts = 1 initial + 2 retries: {stats:?}"
    );
    w.chain.faults().clear();
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
    let w = world("outage", ChainConfig::default(), config);
    let mut publisher = w.publisher();
    w.chain.faults().drop_next_submissions(u64::MAX);
    let mut t = w.transcript();
    append(&mut publisher, &mut t, 300);
    let positions = w.node().log_positions();
    assert_eq!(positions, 30, "N = 30 positions against max_group = 4");
    // The chain is down: the committer keeps trying and nothing lands.
    assert!(eventually(|| w.chain.faults().submissions_dropped() >= 3));
    assert_eq!(w.node().stats().stage2_committed, 0);
    let verdict = w.audit(&mut t).expect("chain record");
    assert_eq!(verdict.pending.len() as u64, positions, "{verdict:?}");

    w.chain.faults().clear();
    w.node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("the backlog drains once the chain is back");
    assert_settled(&w, &mut t);
    let stats = w.node().stats();
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
        .map(|log_id| w.node().commit_info(log_id).expect("committed").tx_hash)
        .collect();
    txs.dedup();
    assert_eq!(txs.len() as u64, positions.div_ceil(max_group));
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
    let mut w = world("parked", ChainConfig::default(), config);
    let mut publisher = w.publisher();
    let chain = Arc::clone(&w.chain);
    let mut t = w.transcript();
    chain.faults().drop_next_submissions(3);
    append(&mut publisher, &mut t, 10);
    assert!(eventually(|| w.node().stats().stage2_failed == 1));
    assert_eq!(w.node().stats().stage2_txs_submitted, 3);
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
    append(&mut publisher, &mut t, 30);
    assert_eq!(w.node().log_positions(), 4);
    w.shutdown().expect("shut down");
    let stats = w.node().stats();
    assert_eq!(stats.stage2_txs_submitted, 3, "parked: {stats:?}");
    assert_eq!(stats.stage2_failed, 1, "counted once");
    assert_eq!(stats.stage2_committed, 0);
    assert_eq!(chain.total_transactions(), mined_before);
    let verdict = w.audit(&mut t).expect("chain record");
    assert_eq!(verdict.pending.len(), 4, "nothing committed: {verdict:?}");

    // Restart: the committer starts over from the on-chain tail.
    w.restart(node_config(10)).expect("restart node");
    t.restarted(&**w.node());
    w.node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("the parked backlog commits after a restart");
    assert_settled(&w, &mut t);
    assert_eq!(
        w.node().stats().stage2_txs_submitted,
        1,
        "4 positions, one group"
    );
}

/// Blocks of 1,200 simulated seconds — 600 ms of wall time — so a
/// publisher appending in a loop flushes many batches per block interval
/// even in a debug build beside other tests.
fn slow_blocks() -> ChainConfig {
    ChainConfig {
        block_interval: Duration::from_secs(1200),
        receipt_timeout: Duration::from_secs(12_000),
        ..Default::default()
    }
}

/// A node flushing two-entry batches, whose groups may carry every batch
/// one slow block collects.
fn loaded_config(behavior: NodeBehavior) -> NodeConfig {
    NodeConfig {
        stage2_max_group: 256,
        behavior,
        ..node_config(2)
    }
}

const SLOW_IDLE: Duration = Duration::from_secs(120_000);

/// Appends one two-entry batch at a time until `blocks` more blocks are
/// mined, and checks the load: at least three batches per block interval.
fn ingest_for_blocks(chain: &Chain, publisher: &mut Publisher, blocks: u64) -> Vec<SignedResponse> {
    let until = chain.block_number() + blocks;
    let mut responses = Vec::new();
    let mut batches = 0;
    while chain.block_number() < until {
        let outcome = publisher.append_batch(payloads(2)).expect("append");
        responses.extend(outcome.responses);
        batches += 1;
    }
    assert!(
        batches >= 3 * blocks,
        "{batches} batches in {blocks} blocks: too few to load the committer"
    );
    responses
}

/// Every transaction mined after block `after`, with its block's
/// transaction count. Only the node sends transactions once its service
/// is deployed.
fn mined_after(chain: &Chain, after: u64) -> Vec<(usize, Receipt)> {
    chain
        .block_range(after + 1, chain.block_number())
        .iter()
        .flat_map(|block| {
            let receipts = chain.block_receipts(block.number);
            let count = receipts.len();
            receipts.into_iter().map(move |receipt| (count, receipt))
        })
        .collect()
}

/// Asserts that no block after `after` holds two node transactions (two
/// never waited in the mempool together) and that none of them reverted.
fn assert_one_unmined_and_no_revert(chain: &Chain, after: u64) -> Vec<Receipt> {
    let mined = mined_after(chain, after);
    for (count, receipt) in &mined {
        assert_eq!(
            *count, 1,
            "two node transactions in block {}",
            receipt.block_number
        );
        assert!(receipt.status.is_success(), "reverted: {receipt:?}");
    }
    mined.into_iter().map(|(_, receipt)| receipt).collect()
}

/// Samples the chain and the node from a second thread until
/// [`Watch::finish`]: the most transactions ever waiting in the mempool at
/// once, and every position seen recorded as committed while its block was
/// not yet confirmation-deep.
struct Watch {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(usize, Vec<u64>)>,
}

impl Watch {
    fn start(chain: &Arc<Chain>, node: &Arc<OffchainNode>) -> Watch {
        let stop = Arc::new(AtomicBool::new(false));
        let (chain, node, done) = (Arc::clone(chain), Arc::clone(node), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            let mut max_pending = 0;
            let mut early = Vec::new();
            while !done.load(Ordering::Relaxed) {
                max_pending = max_pending.max(chain.pending_count());
                let newest = node.stats().stage2_committed.checked_sub(1);
                if let Some((log_id, info)) =
                    newest.and_then(|id| node.commit_info(id).map(|info| (id, info)))
                {
                    if !chain.is_confirmed(info.block_number) && early.last() != Some(&log_id) {
                        early.push(log_id);
                    }
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            (max_pending, early)
        });
        Watch { stop, handle }
    }

    fn finish(self) -> (usize, Vec<u64>) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("watch thread")
    }
}

/// Three or more batches per block interval: the committer sends the next
/// group as soon as the previous one is mined, so consecutive groups sit in
/// consecutive blocks — a group goes out before its predecessor is
/// confirmed. It never has two transactions unmined, records a position
/// only once its block is confirmation-deep, and lands each exactly once.
#[test]
fn a_loaded_node_sends_the_next_group_before_the_last_is_confirmed() {
    let w = world(
        "pipelined",
        slow_blocks(),
        loaded_config(NodeBehavior::Honest),
    );
    let mut publisher = w.publisher();
    let first = w.chain.block_number();
    let watch = Watch::start(&w.chain, w.node());
    let mut t = w.transcript();
    t.replies = ingest_for_blocks(&w.chain, &mut publisher, 4);
    w.node()
        .wait_stage2_idle(SLOW_IDLE)
        .expect("all positions commit");
    let (max_pending, early) = watch.finish();
    assert_settled(&w, &mut t);

    assert_eq!(max_pending, 1, "at most one unmined node transaction");
    assert!(early.is_empty(), "committed before confirmation: {early:?}");
    let mined = assert_one_unmined_and_no_revert(&w.chain, first);
    let confirmations = w.chain.config().confirmations;
    assert!(
        mined
            .windows(2)
            .any(|pair| pair[1].block_number < pair[0].block_number + confirmations),
        "no group was sent before its predecessor confirmed: {:?}",
        mined.iter().map(|r| r.block_number).collect::<Vec<_>>()
    );
    let stats = w.node().stats();
    assert_eq!(stats.stage2_txs_submitted, mined.len() as u64);
    assert_eq!(stats.stage2_retries, 0);
}

/// One batch every few blocks: the committer is idle when each arrives, so
/// each batch is one transaction — the gas shape of a paced workload.
#[test]
fn a_trickle_costs_one_transaction_per_batch() {
    let w = world("trickle", ChainConfig::default(), node_config(10));
    let mut publisher = w.publisher();
    let first = w.chain.block_number();
    let gap = w.chain.config().block_interval * 4;
    let mut t = w.transcript();
    for _ in 0..4 {
        append(&mut publisher, &mut t, 10);
        w.chain.clock().sleep(gap);
    }
    w.node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("all positions commit");
    assert_settled(&w, &mut t);
    let mined = assert_one_unmined_and_no_revert(&w.chain, first);
    assert_eq!(mined.len(), 4, "one transaction per batch");
    assert_eq!(w.node().stats().stage2_txs_submitted, 4);
}

/// Dropping a node while groups are mined but unconfirmed waits them out:
/// the shutdown records every position, and a restart adopts the tail
/// without sending anything again.
#[test]
fn a_dropped_node_drains_its_groups_in_flight_and_a_restart_adopts_the_tail() {
    let mut w = world("drain", slow_blocks(), loaded_config(NodeBehavior::Honest));
    let mut publisher = w.publisher();
    let chain = Arc::clone(&w.chain);
    let first = chain.block_number();
    let mut t = w.transcript();
    t.replies = ingest_for_blocks(&chain, &mut publisher, 3);
    let flushed = w.node().log_positions();
    assert!(
        mined_after(&chain, first)
            .iter()
            .any(|(_, receipt)| !chain.is_confirmed(receipt.block_number)),
        "a group is in flight at the drop"
    );
    assert!(w.node().stats().stage2_committed < flushed);

    w.shutdown().expect("shut down");
    assert_settled(&w, &mut t);
    assert_eq!(chain.pending_count(), 0, "nothing left unmined");
    for (_, receipt) in mined_after(&chain, first) {
        assert!(chain.is_confirmed(receipt.block_number));
    }

    w.restart(loaded_config(NodeBehavior::Honest))
        .expect("restart node");
    t.restarted(&**w.node());
    let node = w.node();
    assert_eq!(node.log_positions(), flushed);
    node.wait_stage2_idle(SLOW_IDLE).expect("nothing pending");
    assert_settled(&w, &mut t);
    let stats = node.stats();
    assert_eq!(stats.stage2_txs_submitted, 0, "nothing re-sent: {stats:?}");
    assert_eq!(stats.stage2_committed, 0, "nothing left to adopt");
    assert_one_unmined_and_no_revert(&chain, first);
}

/// A chain that stops making blocks while a group is mined but not yet
/// confirmation-deep must not hang shutdown: the committer waits the
/// chain's receipt timeout, then leaves the group unrecorded, and a restart
/// on a running chain adopts it without sending it again.
#[test]
fn a_stopped_chain_does_not_hang_shutdown_and_a_restart_records_the_group() {
    let chain_config = ChainConfig {
        block_interval: Duration::from_secs(1200),
        receipt_timeout: Duration::from_secs(3600),
        ..Default::default()
    };
    // Inline rather than a `LocalNode`: the test stops the miner under a
    // live node and shuts the node down on a thread of its own.
    let chain = Chain::new(Clock::compressed(2000.0), chain_config);
    let node_identity = Identity::from_seed(b"s2f-node-stalled");
    let client_identity = Identity::from_seed(b"s2f-client-stalled");
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
    let root_record = deployment.root_record;
    let dir = ScratchDir::new("s2f-stalled");
    let node = Arc::new(
        OffchainNode::start(
            node_identity.clone(),
            node_config(10),
            Arc::clone(&chain),
            root_record,
            &dir,
        )
        .expect("start node"),
    );
    let mut publisher = Publisher::new(
        client_identity,
        Arc::clone(&node),
        Arc::clone(&chain),
        root_record,
        Some(deployment.punishment),
    );
    let first = chain.block_number();
    let mut t = Transcript::new(node.public_key());
    append(&mut publisher, &mut t, 10);
    assert!(eventually(|| node.stats().stage2_gas.0 > 0), "group mined");
    drop(miner);
    let mined = mined_after(&chain, first);
    assert_eq!(mined.len(), 1, "one group");
    assert!(
        !chain.is_confirmed(mined[0].1.block_number),
        "the group must be unconfirmed when the chain stops"
    );

    drop(publisher);
    let mut node = Arc::try_unwrap(node).unwrap_or_else(|_| panic!("sole owner of the node"));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        node.shutdown();
        let _ = done_tx.send(node);
    });
    let node = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown hung after the chain stopped");
    assert_eq!(node.stats().stage2_committed, 0, "unconfirmed: unrecorded");
    assert_eq!(node.commit_phase(0), CommitPhase::OffchainCommitted);
    drop(node);

    let _miner = chain.start_miner();
    let node = OffchainNode::start(
        node_identity,
        node_config(10),
        Arc::clone(&chain),
        root_record,
        &dir,
    )
    .expect("restart node");
    node.wait_stage2_idle(Duration::from_secs(3600))
        .expect("nothing pending");
    t.restarted(&node);
    t.read_chain(&chain, root_record, deployment.punishment)
        .expect("chain record");
    let verdict = audit(&t);
    assert!(verdict.is_settled(), "{verdict:?}");
    assert_eq!(node.stats().stage2_failed, 0, "no commitment abandoned");
    assert_eq!(node.stats().stage2_txs_submitted, 0, "nothing re-sent");
}

/// With groups in flight, the omission behaviour still stops the run at its
/// first omitted position, and the equivocation behaviour still commits a
/// wrong root from its first affected position on.
#[test]
fn behaviours_shape_the_group_with_groups_in_flight() {
    let w = world(
        "omit-loaded",
        slow_blocks(),
        loaded_config(NodeBehavior::OmitStage2 { from_log: 7 }),
    );
    let mut publisher = w.publisher();
    let first = w.chain.block_number();
    let mut t = w.transcript();
    t.replies = ingest_for_blocks(&w.chain, &mut publisher, 3);
    w.node()
        .wait_stage2_idle(SLOW_IDLE)
        .expect("the rest is omitted");
    let positions = w.node().log_positions();
    assert!(positions > 7);
    let verdict = w.audit(&mut t).expect("chain record");
    assert!(verdict.is_safe(), "{verdict:?}");
    assert!(
        verdict.pending.iter().copied().eq(7..positions),
        "{verdict:?}"
    );
    assert_one_unmined_and_no_revert(&w.chain, first);

    let w = world(
        "wrong-root-loaded",
        slow_blocks(),
        loaded_config(NodeBehavior::CommitWrongRoot { from_log: 5 }),
    );
    let mut publisher = w.publisher();
    let first = w.chain.block_number();
    let mut t = w.transcript();
    t.replies = ingest_for_blocks(&w.chain, &mut publisher, 3);
    w.node()
        .wait_stage2_idle(SLOW_IDLE)
        .expect("all positions commit");
    // Nobody punishes here: the lies stand, one per position from 5 on.
    let verdict = w.audit(&mut t).expect("chain record");
    assert_eq!(verdict.violations, [Violation::Unpunished], "{verdict:?}");
    assert!(verdict.pending.is_empty(), "{verdict:?}");
    let lies = verdict.lies.iter().map(|(lie, kind)| {
        assert_eq!(*kind, EvidenceKind::RootMismatch);
        lie.log_id
    });
    assert!(lies.eq(5..w.node().log_positions()), "{verdict:?}");
    assert_one_unmined_and_no_revert(&w.chain, first);
}

/// Group k is mined and awaiting confirmation while group k+1 fails — a
/// dropped submission retried without end, then a receipt hidden past the
/// patience window. Group k is recorded as soon as it is confirmed, not
/// when k+1 resolves; k+1 then lands exactly once.
#[test]
fn a_confirmed_group_is_recorded_while_the_next_one_fails() {
    let config = NodeConfig {
        stage2_retry: Stage2RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_secs(10),
            max_backoff: Duration::from_secs(60),
            jitter: 0.0,
        },
        ..node_config(10)
    };
    let chain_config = ChainConfig {
        // Five blocks of patience: a hidden receipt outlasts two
        // confirmation blocks.
        receipt_timeout: Duration::from_secs(6000),
        ..slow_blocks()
    };
    let w = world("record-while-failing", chain_config, config);
    let mut publisher = w.publisher();
    let first = w.chain.block_number();
    let mut t = w.transcript();
    // The committer adds a group's gas once it has seen the group mined.
    let gas = |w: &LocalNode| w.node().stats().stage2_gas;
    let phase = |w: &LocalNode, log_id| w.node().commit_phase(log_id);

    // Position 0 is mined; then every submission of position 1 bounces.
    let before = gas(&w);
    append(&mut publisher, &mut t, 10);
    assert!(eventually(|| gas(&w) > before), "position 0 mined");
    w.chain.faults().drop_next_submissions(u64::MAX);
    append(&mut publisher, &mut t, 10);
    let failing = eventually(|| w.node().stats().stage2_submission_errors > 0);
    let early = phase(&w, 0);
    let recorded = eventually(|| phase(&w, 0) == CommitPhase::BlockchainCommitted);
    let behind = phase(&w, 1);
    let before = gas(&w);
    w.chain.faults().clear();
    assert!(failing, "position 1 fails");
    assert_ne!(
        early,
        CommitPhase::BlockchainCommitted,
        "0 still unconfirmed"
    );
    assert!(recorded, "position 0 recorded while position 1 retries");
    assert_ne!(behind, CommitPhase::BlockchainCommitted);
    assert!(eventually(|| gas(&w) > before), "position 1 mined");

    // Position 1 awaits confirmation while position 2's receipt is hidden
    // for longer than the patience window.
    w.chain
        .faults()
        .delay_next_receipts(1, Duration::from_secs(60_000));
    append(&mut publisher, &mut t, 10);
    assert!(eventually(
        || phase(&w, 1) == CommitPhase::BlockchainCommitted
    ));
    let stats = w.node().stats();
    assert_eq!(
        stats.stage2_timeouts, 0,
        "recorded before the head timed out"
    );
    assert_ne!(phase(&w, 2), CommitPhase::BlockchainCommitted);

    w.node()
        .wait_stage2_idle(SLOW_IDLE)
        .expect("all positions commit");
    assert_settled(&w, &mut t);
    let stats = w.node().stats();
    assert_eq!(stats.stage2_timeouts, 1, "{stats:?}");
    assert_one_unmined_and_no_revert(&w.chain, first);
}
