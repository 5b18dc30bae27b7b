//! The direct stage-2 committer holds a group that is not full until just
//! before the chain's next block is due, so the group carries everything
//! flushed up to then and still makes that block. A full group, and a chain
//! with no running miner, are sent at once.
//!
//! One test, three cases in turn: the steady case is timed on a 100× clock,
//! where the send margin is a few tens of milliseconds of wall time, so
//! nothing else runs beside it.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_chain::{Chain, ChainConfig, TxHash, Wei};
use wedge_core::{
    deploy_service, AppendRequest, LocalNode, NodeConfig, OffchainNode, ServiceConfig,
};
use wedge_crypto::signer::Identity;
use wedge_sim::{Clock, SimInstant};
use wedge_storage::ScratchDir;

/// Simulated time runs 100× wall time.
const COMPRESSION: f64 = 100.0;

const IDLE: Duration = Duration::from_secs(600);

fn one_batch_per_entry() -> NodeConfig {
    NodeConfig {
        batch_size: 1,
        ..Default::default()
    }
}

/// Appends `sequences` and waits for every reply; returns when the last
/// reply arrived (simulated time), which is after its batch flushed.
fn append(
    node: &OffchainNode,
    chain: &Chain,
    client: &Identity,
    sequences: std::ops::Range<u64>,
) -> SimInstant {
    let (tx, rx) = crossbeam::channel::unbounded();
    let count = sequences.end - sequences.start;
    for sequence in sequences {
        let request = AppendRequest::new(client.secret_key(), sequence, vec![1, 2]);
        node.submit(request, tx.clone()).unwrap();
    }
    for _ in 0..count {
        rx.recv().unwrap().unwrap();
    }
    chain.clock().now()
}

/// Batches flush steadily over more than six block intervals. Each
/// position is mined in the first block due after its flush, unless it
/// flushed inside the send margin; the node sends one transaction per block
/// and misses no slot.
fn steady_flushes_make_the_next_block() {
    // 39 s blocks (390 ms of wall time) polled every 6 s: the send margin —
    // one poll plus the committer's wall-time allowance — leaves an
    // unoptimised build on a busy host ~80 ms of wall time to sign and
    // submit, and stays under a quarter block.
    let config = ChainConfig {
        block_interval: Duration::from_secs(39),
        receipt_poll: Duration::from_secs(6),
        ..ChainConfig::default()
    };
    let chain = Chain::new(Clock::compressed(COMPRESSION), config);
    let interval = chain.config().block_interval;
    let local = LocalNode::start_on(&chain, "hold-steady", one_batch_per_entry()).unwrap();
    let node = local.node();
    let started = chain.clock().now();
    let mut flushed_by = Vec::new();
    while chain.clock().now().since(started) < interval * 13 / 2 {
        let sequence = flushed_by.len() as u64;
        flushed_by.push(append(
            node,
            &chain,
            &local.client_identity,
            sequence..sequence + 1,
        ));
        std::thread::sleep(Duration::from_millis(25));
    }
    node.wait_stage2_idle(IDLE).unwrap();

    let margin = interval / 4;
    let mut txs_per_block: BTreeMap<u64, HashSet<TxHash>> = BTreeMap::new();
    for (log_id, flushed_by) in (0u64..).zip(&flushed_by) {
        let info = node.commit_info(log_id).expect("committed");
        // Block timestamps are whole seconds.
        let previous = chain.block(info.block_number - 1).expect("mined");
        let previous = Duration::from_secs(previous.timestamp);
        assert!(
            previous < flushed_by.elapsed() + margin,
            "position {log_id}, flushed by {flushed_by:?}, missed block {} at {previous:?}",
            info.block_number - 1
        );
        txs_per_block
            .entry(info.block_number)
            .or_default()
            .insert(info.tx_hash);
    }
    for (block, txs) in &txs_per_block {
        assert_eq!(txs.len(), 1, "block {block} holds {txs:?}");
    }
    let stats = node.stats();
    assert_eq!(stats.stage2_txs_submitted, txs_per_block.len() as u64);
    assert_eq!(stats.stage2_slot_misses, 0);
    assert_eq!(stats.stage2_retries, 0);
}

/// A node over the contract suite on `chain`, started without a miner: the
/// deployment's blocks come from a thread that mines until it is done.
struct Minerless {
    node: OffchainNode,
    client: Identity,
    _dir: ScratchDir,
}

impl Minerless {
    fn start(chain: &Arc<Chain>, tag: &str, config: NodeConfig) -> Minerless {
        let identity = Identity::from_seed(format!("node-{tag}").as_bytes());
        let client = Identity::from_seed(format!("client-{tag}").as_bytes());
        chain.fund(identity.address(), Wei::from_eth(1_000));
        let deployed = AtomicBool::new(false);
        let deployment = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !deployed.load(Ordering::Acquire) {
                    chain.mine_block();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let service = ServiceConfig {
                escrow: Wei::from_eth(1),
                payment_terms: None,
            };
            let deployment = deploy_service(chain, &identity, client.address(), &service);
            deployed.store(true, Ordering::Release);
            deployment.unwrap()
        });
        let dir = ScratchDir::new(tag);
        let root_record = deployment.root_record;
        let node = OffchainNode::start(identity, config, Arc::clone(chain), root_record, &dir);
        Minerless {
            node: node.unwrap(),
            client,
            _dir: dir,
        }
    }

    /// Mines by hand until the node has recorded every flushed position.
    fn mine_until_idle(&self, chain: &Chain) {
        while self.node.wait_stage2_idle(Duration::from_secs(1)).is_err() {
            chain.mine_block();
        }
    }
}

/// 1,200 s blocks: a held group would wait ~12 s of wall time.
fn slow_blocks() -> Arc<Chain> {
    let config = ChainConfig {
        block_interval: Duration::from_secs(1_200),
        ..ChainConfig::default()
    };
    Chain::new(Clock::compressed(COMPRESSION), config)
}

/// Whether a transaction reaches the mempool within `patience` of wall
/// time.
fn sent_within(chain: &Chain, patience: Duration) -> bool {
    let give_up = Instant::now() + patience;
    while chain.pending_count() == 0 {
        if Instant::now() > give_up {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

fn with_no_miner_a_group_is_sent_at_once() {
    let chain = slow_blocks();
    let local = Minerless::start(&chain, "hold-no-miner", one_batch_per_entry());
    assert_eq!(chain.next_block_due(), None);
    append(&local.node, &chain, &local.client, 0..1);
    assert!(
        sent_within(&chain, Duration::from_secs(3)),
        "the group was held"
    );
    local.mine_until_idle(&chain);
    let stats = local.node.stats();
    assert_eq!((stats.stage2_txs_submitted, stats.stage2_committed), (1, 1));
}

fn a_full_group_is_sent_without_waiting() {
    let chain = slow_blocks();
    let config = NodeConfig {
        stage2_max_group: 4,
        ..one_batch_per_entry()
    };
    let local = Minerless::start(&chain, "hold-full", config);
    let _miner = chain.start_miner();
    let due = chain.next_block_due().expect("a miner runs");
    append(&local.node, &chain, &local.client, 0..4);
    assert!(
        sent_within(&chain, Duration::from_secs(3)),
        "the group was held"
    );
    assert!(chain.clock().now() < due, "sent before its block was due");
    local.mine_until_idle(&chain);
    let stats = local.node.stats();
    assert_eq!((stats.stage2_txs_submitted, stats.stage2_committed), (1, 4));
}

#[test]
fn the_committer_holds_a_group_until_just_before_the_next_block() {
    steady_flushes_make_the_next_block();
    with_no_miner_a_group_is_sent_at_once();
    a_full_group_is_sent_without_waiting();
}
