//! The epoch coordinator runs the single node's stage-2 pipeline. It holds
//! an epoch whose groups are not full until just before the chain's next
//! block is due — the node's hold, `wedge_core::chain_commit::send_slot` —
//! and collects again, so the epoch carries every batch flushed up to then
//! and still makes that block — or the block after, once the next block's
//! send moment has passed. It sends the next epoch while the last one
//! confirms, and acknowledges an epoch only once it is confirmation-deep.
//! A full group is sent at once, and a call with nothing pending and
//! nothing in flight returns at once.
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
use wedge_core::{AppendRequest, CommitPhase, NodeConfig};

/// Simulated time runs 100× wall time.
const COMPRESSION: f64 = 100.0;
/// Batch roots one epoch takes per shard.
const MAX_GROUP: usize = 4;
/// Simulated time a test waits for the epochs in flight to be acknowledged.
const SETTLE: Duration = Duration::from_secs(3600);

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

/// Runs one coordinator step on a thread of its own while `meanwhile` runs
/// here, handed the router and a probe that turns true once the step has
/// returned.
fn epoch_beside<T>(
    cluster: &mut LocalCluster,
    meanwhile: impl FnOnce(&ClusterClient, &dyn Fn() -> bool) -> T,
) -> (Option<EpochRecord>, T) {
    let LocalCluster {
        coordinator,
        router,
        ..
    } = cluster;
    let router = &*router;
    let (record, seen) = thread::scope(|scope| {
        let epoch = scope.spawn(move || coordinator.run_epoch(router).map(|r| r.cloned()));
        let seen = meanwhile(router, &|| epoch.is_finished());
        (epoch.join().expect("epoch thread"), seen)
    });
    (record.expect("run_epoch"), seen)
}

/// Each round leaves a batch pending on shard 0, calls `run_epoch` right
/// after a block, and flushes a batch on shard 1 a quarter block into the
/// hold. The round's epoch covers both, is mined in the block that was next
/// due when it was called, and no held epoch misses its block.
fn a_batch_flushed_during_the_hold_rides_along(cluster: &mut LocalCluster) {
    let chain = Arc::clone(&cluster.chain);
    let mut rounds = Vec::new();
    for round in 0..3u64 {
        let early = append(&cluster.router, 0, round..round + 1)[0];
        wait_for_block(&chain);
        let head = chain.block_number();
        let (_, late) = epoch_beside(cluster, |router, _| {
            chain.clock().sleep(Duration::from_secs(10));
            append(router, 1, round..round + 1)[0]
        });
        rounds.push((early, late, head));
    }
    cluster.settle(SETTLE).expect("settle");
    let records = cluster.coordinator.records();
    assert_eq!(records.len(), rounds.len(), "one epoch per round");
    for (round, (record, (early, late, head))) in records.iter().zip(rounds).enumerate() {
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

/// Two calls a block apart put their epochs in blocks B and B+2 — a call
/// that waited for its epoch's confirmation before returning would leave
/// the next one for B+4. The first call returns nothing, the second
/// returns epoch n, and no position of epoch n reads `BlockchainCommitted`
/// while epoch n is short of confirmation-deep.
fn the_next_epoch_goes_out_while_the_last_one_confirms(cluster: &mut LocalCluster) {
    let chain = Arc::clone(&cluster.chain);
    let confirmations = chain.config().confirmations;
    let first = append(&cluster.router, 0, 3..5);
    wait_for_block(&chain);
    let block = chain.block_number() + 1;
    let n = cluster.coordinator.next_epoch();
    assert!(
        !cluster.run_epoch().expect("epoch n"),
        "epoch n is still confirming when the call that sent it returns"
    );
    assert_eq!(cluster.coordinator.next_epoch(), n + 1, "epoch n landed");
    let shard = Arc::clone(cluster.node(0).expect("shard up"));
    let committed = |positions: &[u64]| {
        positions
            .iter()
            .filter(|&&p| shard.commit_phase(p) == CommitPhase::BlockchainCommitted)
            .count()
    };
    assert_eq!(committed(&first), 0, "acknowledged before it confirmed");

    let second = append(&cluster.router, 1, 3..4);
    wait_for_block(&chain);
    let (record, early) = epoch_beside(cluster, |_, returned| {
        // Watch epoch n's positions while the call that acknowledges them
        // runs: one reading BlockchainCommitted with the chain short of
        // epoch n's confirmation depth was acknowledged too early.
        let mut early = false;
        while !returned() {
            if committed(&first) > 0 {
                early |= !chain.is_confirmed(block);
            }
            thread::sleep(Duration::from_millis(1));
        }
        early
    });
    let record = record.expect("the second call returns epoch n");
    assert_eq!(record.epoch, n);
    assert_eq!(record.block_number, block, "epoch n is mined in block B");
    assert!(first.iter().all(|&p| record.shards[0].covers(p)));
    assert!(
        !early,
        "epoch n acknowledged before it was confirmation-deep"
    );
    assert_eq!(committed(&first), first.len());

    cluster.settle(SETTLE).expect("settle");
    let next = cluster.coordinator.records().last().expect("epoch n+1");
    assert_eq!(next.epoch, n + 1);
    assert!(next.shards[1].covers(second[0]));
    assert_eq!(
        next.block_number,
        block + 2,
        "epoch n+1 is mined while epoch n confirms ({confirmations} confirmations)"
    );
}

/// Behind an epoch in flight, a held epoch goes out only once the shards
/// have gone quiet. With shard 1 pending at the call and still flushing in
/// the last send margin of the hold, the call sends nothing: it waits for
/// epoch n to confirm and returns it. Everything the stream flushed then
/// goes out in one epoch, where a send at the send moment would have
/// taken only what had flushed by then.
fn a_stream_still_flushing_waits_behind_the_epoch_in_flight(cluster: &mut LocalCluster) {
    let chain = Arc::clone(&cluster.chain);
    let first = append(&cluster.router, 0, 9..10);
    wait_for_block(&chain);
    let n = cluster.coordinator.next_epoch();
    assert!(!cluster.run_epoch().expect("epoch n"), "epoch n in flight");
    let sent = cluster.coordinator.stats().txs_submitted;

    wait_for_block(&chain);
    let mut streamed = append(&cluster.router, 1, 5..6);
    let (record, more) = epoch_beside(cluster, |router, _| {
        // Two more batches, 15 s and 11 s before the block is due: both
        // land in the hold's last send margin (8.5 s before it), and the
        // three leave shard 1's group short of full.
        let clock = chain.clock();
        let due = chain.next_block_due().expect("a miner runs");
        clock.sleep(
            due.since(clock.now())
                .saturating_sub(Duration::from_secs(15)),
        );
        let sixth = append(router, 1, 6..7)[0];
        clock.sleep(Duration::from_secs(4));
        [sixth, append(router, 1, 7..8)[0]]
    });
    streamed.extend(more);
    let record = record.expect("the call returns epoch n");
    assert_eq!(record.epoch, n);
    assert!(first.iter().all(|&p| record.shards[0].covers(p)));
    assert_eq!(
        (
            cluster.coordinator.next_epoch(),
            cluster.coordinator.stats().txs_submitted
        ),
        (n + 1, sent),
        "nothing is sent while shard 1 is still flushing"
    );

    cluster.settle(SETTLE).expect("settle");
    let records = cluster.coordinator.records();
    let last = records.last().expect("epoch n+1");
    assert_eq!(last.epoch, n + 1, "one epoch carries the whole stream");
    assert!(
        streamed.iter().all(|&p| last.shards[1].covers(p)),
        "{last:?}"
    );
}

/// A call that lands after the next block's send moment — inside the
/// send margin — holds its epoch for the block after, rather than racing
/// for the nearer block with what has flushed so far.
fn a_call_past_the_send_moment_holds_for_the_block_after(cluster: &mut LocalCluster) {
    let chain = Arc::clone(&cluster.chain);
    let position = append(&cluster.router, 1, 4..5)[0];
    // 4 s before the block is due: past its send moment (~8.5 s before),
    // and still ahead of the block unless this thread overslept.
    let head = loop {
        wait_for_block(&chain);
        let due = chain.next_block_due().expect("a miner runs");
        let clock = chain.clock();
        clock.sleep(
            due.since(clock.now())
                .saturating_sub(Duration::from_secs(4)),
        );
        let head = chain.block_number();
        if due.since(clock.now()) >= Duration::from_secs(1) && chain.next_block_due() == Some(due) {
            break head;
        }
    };
    assert!(!cluster.run_epoch().expect("held epoch"));
    cluster.settle(SETTLE).expect("settle");
    let record = cluster.coordinator.records().last().expect("an epoch");
    assert!(record.shards[1].covers(position), "{record:?}");
    assert_eq!(
        record.block_number,
        head + 2,
        "held for the block after the one due when run_epoch was called"
    );
    assert_eq!(cluster.coordinator.stats().slot_misses, 0);
}

fn nothing_pending_or_in_flight_returns_at_once(cluster: &mut LocalCluster) {
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
    let positions = append(&cluster.router, 0, 5..5 + MAX_GROUP as u64);
    let chain = Arc::clone(&cluster.chain);
    wait_for_block(&chain);
    let called = chain.clock().now();
    let due = chain.next_block_due().expect("a miner runs");
    let (_, sent_at) = epoch_beside(cluster, |_, _| {
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
    cluster.settle(SETTLE).expect("settle");
    let record = cluster.coordinator.records().last().expect("an epoch");
    assert_eq!(record.shards[0].roots.len(), MAX_GROUP);
    assert!(positions.iter().all(|&p| record.shards[0].covers(p)));
}

#[test]
fn the_coordinator_holds_an_epoch_until_just_before_the_next_block() {
    let mut cluster = cluster();
    a_batch_flushed_during_the_hold_rides_along(&mut cluster);
    the_next_epoch_goes_out_while_the_last_one_confirms(&mut cluster);
    a_call_past_the_send_moment_holds_for_the_block_after(&mut cluster);
    nothing_pending_or_in_flight_returns_at_once(&mut cluster);
    a_full_group_is_sent_without_holding(&mut cluster);
    a_stream_still_flushing_waits_behind_the_epoch_in_flight(&mut cluster);
}
