//! The epoch coordinator holds an epoch whose groups are not full until
//! just before the chain's next block is due — the single node's stage-2
//! hold, `wedge_core::chain_commit::send_slot` — and collects again, so
//! the epoch carries every batch flushed up to then and still makes that
//! block. A full group is sent at once, and a call with nothing pending
//! returns at once.
//!
//! One test, its cases in turn on one cluster: the hold is timed on a 100×
//! clock, where the send margin is a few tens of milliseconds of wall time,
//! so nothing else runs beside it.

use std::ops::Range;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use wedge_chain::{Chain, ChainConfig};
use wedge_cluster::{identity_on_shard, ClusterClient, ClusterConfig, EpochRecord, LocalCluster};
use wedge_core::{AppendRequest, NodeConfig};

/// Simulated time runs 100× wall time.
const COMPRESSION: f64 = 100.0;
/// Batch roots one epoch takes per shard.
const MAX_GROUP: usize = 4;

/// Two shards that flush every entry as its own batch, on 39 s blocks
/// (390 ms of wall time) polled every 6 s: the send margin — one poll plus
/// 2.5 s for the sender's 25 ms of wall time — leaves a ~30 s hold.
fn cluster() -> LocalCluster {
    let config = ClusterConfig {
        shards: 2,
        node: NodeConfig {
            batch_size: 1,
            ..NodeConfig::default()
        },
        epoch_max_group: MAX_GROUP,
        compression: COMPRESSION,
        chain: ChainConfig {
            block_interval: Duration::from_secs(39),
            receipt_poll: Duration::from_secs(6),
            ..ChainConfig::default()
        },
    };
    LocalCluster::start("epoch-hold", config).expect("cluster start")
}

/// Appends `sequences` as the publisher pinned to `shard` and waits for
/// every reply; returns the log positions they landed at.
fn append(router: &ClusterClient, shard: usize, sequences: Range<u64>) -> Vec<u64> {
    let identity = identity_on_shard(router.shard_map(), shard, "epoch-hold");
    let (tx, rx) = crossbeam::channel::unbounded();
    let count = sequences.end - sequences.start;
    for sequence in sequences {
        let request = AppendRequest::new(identity.secret_key(), sequence, vec![1, 2]);
        let tx = tx.clone();
        let routed = router
            .submit(
                request,
                Box::new(move |result| {
                    let _ = tx.send(result);
                }),
            )
            .expect("submit");
        assert_eq!(routed, shard);
    }
    router.flush();
    (0..count)
        .map(|_| {
            let reply = rx.recv_timeout(Duration::from_secs(60)).expect("reply");
            reply.expect("stage-1 response").entry_id.log_id
        })
        .collect()
}

/// Returns right after the chain mines its next block, so a whole block
/// interval lies ahead.
fn wait_for_block(chain: &Chain) {
    let head = chain.block_number();
    while chain.block_number() == head {
        thread::sleep(Duration::from_millis(1));
    }
}

/// Runs one epoch on a thread of its own while `meanwhile` runs here.
fn epoch_beside<T>(
    cluster: &mut LocalCluster,
    meanwhile: impl FnOnce(&ClusterClient) -> T,
) -> (Option<EpochRecord>, T) {
    let LocalCluster {
        coordinator,
        router,
        ..
    } = cluster;
    let router = &*router;
    let (record, seen) = thread::scope(|scope| {
        let epoch = scope.spawn(move || coordinator.run_epoch(router).map(|r| r.cloned()));
        let seen = meanwhile(router);
        (epoch.join().expect("epoch thread"), seen)
    });
    (record.expect("run_epoch"), seen)
}

/// Each round leaves a batch pending on shard 0, calls `run_epoch` right
/// after a block, and flushes a batch on shard 1 a quarter block into the
/// hold. The epoch covers both, is mined in the block that was next due
/// when it was called, and no held epoch misses its block.
fn a_batch_flushed_during_the_hold_rides_along(cluster: &mut LocalCluster) {
    let chain = Arc::clone(&cluster.chain);
    for round in 0..3u64 {
        let early = append(&cluster.router, 0, round..round + 1)[0];
        wait_for_block(&chain);
        let head = chain.block_number();
        let (record, late) = epoch_beside(cluster, |router| {
            chain.clock().sleep(Duration::from_secs(10));
            append(router, 1, round..round + 1)[0]
        });
        let record = record.expect("an epoch");
        assert!(record.shards[0].covers(early), "round {round}: {record:?}");
        assert!(
            record.shards[1].covers(late),
            "round {round}: shard 1's position {late}, flushed during the hold, rides along"
        );
        assert_eq!(
            record.block_number,
            head + 1,
            "round {round}: mined in the block due when run_epoch was called"
        );
    }
    let stats = cluster.coordinator.stats();
    assert_eq!((stats.epochs_committed, stats.txs_submitted), (3, 3));
    assert_eq!(stats.slot_misses, 0);
}

fn nothing_pending_returns_at_once(cluster: &mut LocalCluster) {
    for shard in 0..cluster.shards() {
        let node = cluster.node(shard).expect("shard up");
        node.wait_stage2_idle(Duration::ZERO)
            .expect("the last epoch covered everything");
    }
    let poll = cluster.chain.config().receipt_poll;
    let called = cluster.clock.now();
    assert!(!cluster.run_epoch().expect("empty epoch"));
    let took = cluster.clock.now().since(called);
    assert!(took < poll, "an empty call waited {took:?}");
}

/// Shard 0 holds `MAX_GROUP` roots: the epoch goes out right after the
/// call, where a hold would have sent it ~30 s of simulated time later.
fn a_full_group_is_sent_without_holding(cluster: &mut LocalCluster) {
    let positions = append(&cluster.router, 0, 3..3 + MAX_GROUP as u64);
    let chain = Arc::clone(&cluster.chain);
    wait_for_block(&chain);
    let called = chain.clock().now();
    let due = chain.next_block_due().expect("a miner runs");
    let (record, sent_at) = epoch_beside(cluster, |_| {
        let give_up = Instant::now() + Duration::from_secs(3);
        while chain.pending_count() == 0 && Instant::now() < give_up {
            thread::sleep(Duration::from_millis(1));
        }
        chain.clock().now()
    });
    assert!(
        sent_at.since(called) < due.since(called) / 2,
        "sent {:?} after the call, with the block due {:?} after it",
        sent_at.since(called),
        due.since(called)
    );
    let record = record.expect("an epoch");
    assert_eq!(record.shards[0].roots.len(), MAX_GROUP);
    assert!(positions.iter().all(|&p| record.shards[0].covers(p)));
}

#[test]
fn the_coordinator_holds_an_epoch_until_just_before_the_next_block() {
    let mut cluster = cluster();
    a_batch_flushed_during_the_hold_rides_along(&mut cluster);
    nothing_pending_returns_at_once(&mut cluster);
    a_full_group_is_sent_without_holding(&mut cluster);
}
