//! Stage 2 (paper §4.3, blockchain commitment): what is pending, how a
//! landed group is applied, and the direct committer thread.
//!
//! No flushed root is queued. The **pending group** is derived from the
//! published snapshot — the contiguous run of flushed positions starting at
//! the blockchain-committed frontier, capped at `stage2_max_group` — by
//! [`pending_group`], and a landed group is recorded by
//! [`Shared::apply_commit`]. A cluster shard exposes exactly these two as
//! `epoch_report` / `epoch_commit` and lets the epoch coordinator drive
//! them; a single node drives them itself from the thread in [`run`],
//! which lands each group in the `RootRecord` through the shared
//! [`ChainCommitter`] retry engine.
//!
//! The thread sends a group once its predecessor is *mined* and records it
//! once it is *confirmed*. A group that is not full is **held** until the
//! last safe moment before the chain's next block is due
//! ([`send_slot`], shared with the epoch coordinator), so it carries
//! every position flushed up to then and still makes that block; a full
//! group, a chain with no running miner, a moment already past and a
//! batcher that hung up all send at once. What the thread keeps is the
//! head group's roots (≤ `stage2_max_group`) and, per mined group awaiting
//! confirmation, its range and receipt — in the [`InFlight`] FIFO the epoch
//! coordinator keeps its epochs in too, at most `confirmations + 1` of
//! them, one per block, however long the chain is down. The batcher only
//! *wakes* the thread, and restart and failure recovery are the same step:
//! adopt the contract's tail ([`Shared::adopt_onchain_tail`]).

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam::channel::{Receiver, RecvTimeoutError};
use wedge_chain::{Chain, ChainError, Gas, Receipt, TxHash, Wei};
use wedge_contracts::RootRecord;
use wedge_crypto::hash::Hash32;
use wedge_sim::SimInstant;

use super::snapshot::Snapshot;
use super::state::CommitInfo;
use super::Shared;
use crate::chain_commit::{
    missed_slot, send_slot, ChainCommitter, CommitTarget, Event, Exhausted, Failure, InFlight,
    Landed,
};
use crate::config::NodeBehavior;
use crate::types::ShardGroup;

/// The root a (possibly malicious) node will blockchain-commit for
/// `log_id`, given the honest root. Applied where the pending group is
/// derived, so a configured behaviour survives restarts.
fn stage2_root_for(behavior: NodeBehavior, log_id: u64, honest_root: Hash32) -> Option<Hash32> {
    match behavior {
        NodeBehavior::OmitStage2 { .. } if behavior.affects(log_id) => None,
        NodeBehavior::CommitWrongRoot { .. } if behavior.affects(log_id) => Some(Hash32::keccak(
            &[honest_root.as_bytes().as_slice(), b"equivocation"].concat(),
        )),
        _ => Some(honest_root),
    }
}

/// The pending group of `snap`: roots for positions `[start,
/// min(start + max_group, flushed))`, where `start` is the contiguous
/// blockchain-committed prefix, or `from` when that lies further (the end
/// of the positions already sent and awaiting confirmation). The run stops
/// at the first position the node's behaviour omits — the contracts write
/// strictly sequentially, so nothing behind a gap could bind to the right
/// on-chain index.
pub(crate) fn pending_group(
    snap: &Snapshot,
    behavior: NodeBehavior,
    from: u64,
    max_group: usize,
) -> ShardGroup {
    let start = snap.frontier().max(from);
    let roots = (start..)
        .zip(snap.batches.iter_from(start as usize))
        .take(max_group.max(1))
        .map_while(|(log_id, batch)| stage2_root_for(behavior, log_id, batch.tree.root()))
        .collect();
    ShardGroup { start, roots }
}

impl Shared {
    /// This node's pending group from `from` or the frontier, whichever
    /// is further, capped at `max_group`.
    pub(crate) fn pending_group(&self, from: u64, max_group: usize) -> ShardGroup {
        pending_group(&self.snapshot(), self.config.behavior, from, max_group)
    }

    /// Runs tier maintenance if a group was recorded since it last ran.
    pub(crate) fn maintain(&self) {
        self.maintenance.lock().run(self);
    }

    /// Records positions `[start, start + count)` as blockchain-committed
    /// by `tx_hash` — one write-plane mutation (and one published
    /// snapshot) for the whole group — and counts the group toward the
    /// checkpoint cadence, leaving the maintenance itself to
    /// [`Shared::maintain`]. Idempotent per position; returns the number of
    /// *newly* committed ones.
    ///
    /// Positions are recorded from the frontier onward, so the commits stay
    /// a prefix. A `start` beyond the frontier records nothing and returns
    /// 0: every commit path starts at the frontier it read, and the
    /// frontier only shrinks in `destroy_tail` (the test-only omission
    /// simulation). Only then can an in-flight group land past it, and the
    /// next submission reconciles that group through
    /// [`Shared::adopt_onchain_tail`].
    pub(crate) fn apply_commit(
        &self,
        start: u64,
        count: u64,
        tx_hash: TxHash,
        block_number: u64,
    ) -> u64 {
        if count == 0 {
            return 0; // nothing to record: publish no snapshot
        }
        let committed_at = self.chain.clock().now();
        let newly = self.mutate(|plane| {
            let mut newly = 0u64;
            if start > plane.frontier() {
                return newly;
            }
            for log_id in plane.frontier()..start.saturating_add(count) {
                let Some(batch) = plane.batches.get(log_id as usize) else {
                    break;
                };
                let stage2_latency = committed_at.since(batch.flushed_at);
                plane.record_commit(CommitInfo {
                    tx_hash,
                    block_number,
                    stage2_latency,
                });
                newly += 1;
            }
            newly
        });
        if newly > 0 {
            self.maintenance.lock().group_recorded();
        }
        newly
    }

    /// The Root Record's current tail index (0 when unreadable).
    fn onchain_tail(&self) -> u64 {
        self.chain
            .view(self.root_record, &RootRecord::get_tail_calldata())
            .ok()
            .and_then(|out| RootRecord::decode_tail(&out))
            .unwrap_or(0)
    }

    /// Adopts the contract's tail: every flushed position below it is on
    /// chain — through a transaction before a restart, or one whose receipt
    /// timed out — and is recorded as committed instead of being re-sent
    /// (the Root Record's single-write rule would revert a duplicate
    /// anyway). `receipt` is the landing transaction when it is known.
    pub(crate) fn adopt_onchain_tail(&self, receipt: Option<&Receipt>) -> u64 {
        let start = self.snapshot().frontier();
        let landed = self.onchain_tail().saturating_sub(start);
        let (tx_hash, block_number) = receipt
            .map(|r| (r.tx_hash, r.block_number))
            .unwrap_or((Hash32::ZERO, 0));
        let newly = self.apply_commit(start, landed, tx_hash, block_number);
        self.maintain();
        newly
    }
}

/// The head group as a [`CommitTarget`]: one `Update-Records` transaction
/// (amortizing the 21k base cost over the group — the minimum-writing lever
/// of Figure 3 right).
struct HeadGroup<'a> {
    shared: &'a Shared,
    /// What the last attempt submitted.
    group: ShardGroup,
    /// The mined groups ahead of it, recorded as they confirm while the
    /// head waits.
    in_flight: &'a mut InFlight<Range<u64>>,
}

impl CommitTarget for HeadGroup<'_> {
    fn submit(&mut self) -> Result<TxHash, ChainError> {
        // Everything flushed since the last attempt rides along, so a long
        // outage still drains in ⌈backlog / max_group⌉ transactions.
        let fresh = self
            .shared
            .pending_group(self.group.start, self.shared.config.stage2_max_group);
        if fresh.start == self.group.start && fresh.roots.len() > self.group.roots.len() {
            self.group = fresh;
        }
        let roots = &self.group.roots;
        self.shared.chain.call_contract(
            self.shared.identity.secret_key(),
            self.shared.root_record,
            Wei::ZERO,
            RootRecord::update_records_calldata(self.group.start, roots),
            // 21k base + calldata + 20k per fresh word + margin.
            Gas(120_000 + 25_000 * roots.len() as u64),
        )
    }

    fn landed(&mut self) -> bool {
        self.shared.onchain_tail() > self.group.start
    }

    fn observe(&mut self, event: Event) {
        let mut stats = self.shared.stats.lock();
        match event {
            Event::Submitting { attempt } => {
                stats.stage2_txs_submitted += 1;
                if attempt > 1 {
                    stats.stage2_retries += 1;
                }
            }
            Event::Failed(Failure::Submission) => stats.stage2_submission_errors += 1,
            Event::Failed(Failure::Revert) => stats.stage2_reverts += 1,
            Event::Failed(Failure::Timeout) => stats.stage2_timeouts += 1,
            Event::Backoff { attempt, .. } => {
                stats.stage2_requeued += self.group.roots.len() as u64;
                stats.record_backoff(attempt);
            }
        }
    }

    fn waiting(&mut self) {
        // The group is in the mempool: maintenance can no longer make it
        // miss its block.
        record_confirmed(self.shared, self.in_flight);
        self.shared.maintain();
    }
}

/// The positions `head` landed as, read right after the landing: a
/// reconciled attempt reached as far as the contract's tail.
fn landed_range(shared: &Shared, head: &ShardGroup, landed: &Landed) -> Range<u64> {
    let end = match landed {
        Landed::Mined(_) => head.start + head.roots.len() as u64,
        Landed::Reconciled { .. } => shared.onchain_tail().max(head.start),
    };
    head.start..end
}

/// Records the mined groups that are now confirmation-deep as
/// blockchain-committed, oldest first (maintenance is left to the caller).
fn record_confirmed(shared: &Shared, in_flight: &mut InFlight<Range<u64>>) {
    while let Some((range, landed)) = in_flight.pop_confirmed(&shared.chain) {
        let (tx_hash, block_number) = landed
            .receipt()
            .map_or((Hash32::ZERO, 0), |r| (r.tx_hash, r.block_number));
        shared.apply_commit(range.start, range.end - range.start, tx_hash, block_number);
    }
}

/// Where the next group starts: past the groups in flight.
fn next_start(in_flight: &InFlight<Range<u64>>) -> u64 {
    in_flight.iter().next_back().map_or(0, |range| range.end)
}

/// The direct committer thread: sends the pending group once the previous
/// one is mined — holding a group that is not full until just before the
/// next block is due ([`hold`]) — and records each group once it is
/// confirmed. Tier maintenance (checkpoints, retention) runs only while no
/// group is held: between polls of a sent group, or when idle. It exits
/// when the batcher has hung up, nothing is pending, and every group it
/// sent is confirmed and recorded — or, if the chain stops making
/// blocks, once the chain's `receipt_timeout` of simulated time has passed
/// since the hang-up or the last landing. Groups still unconfirmed then
/// stay unrecorded; a restart adopts them with the contract's tail.
///
/// At most one of its transactions is ever unmined: the next group goes
/// out only after the last one was mined successfully, so nonces stay
/// dense, the Root Record's `start == tail` rule orders the groups, and a
/// failure touches only the unmined head.
///
/// `wake` carries no data — the batcher drops a token in after registering
/// a batch. When the retry budget is exhausted the abandoned group counts
/// in `stage2_failed` once and the thread parks for good once the groups
/// already mined are recorded: the Root Record is strictly sequential, so
/// nothing behind an abandoned head could land, and every later submission
/// would be a guaranteed revert. A restart starts over from the contract's
/// tail.
pub(crate) fn run(shared: Arc<Shared>, wake: Receiver<()>) {
    let mut committer = ChainCommitter::new(Arc::clone(&shared.chain), shared.config.stage2_retry);
    // Mined groups, oldest first: the next group starts where the last one
    // ends, and they are recorded in this order once confirmation-deep.
    let mut in_flight = InFlight::default();
    let mut batcher_alive = true;
    let mut parked = false;
    // After the hang-up: when to stop waiting for in-flight confirmations.
    let mut give_up_at: Option<SimInstant> = None;
    loop {
        record_confirmed(&shared, &mut in_flight);
        let group = if parked {
            ShardGroup::default()
        } else {
            shared.pending_group(next_start(&in_flight), shared.config.stage2_max_group)
        };
        if !group.is_empty() {
            // The first `submit` re-derives the group, so whatever flushed
            // during the hold rides along.
            let held_for = if batcher_alive {
                hold(&shared, &wake, &mut in_flight, &mut batcher_alive)
            } else {
                None
            };
            let mut head = HeadGroup {
                shared: &shared,
                group,
                in_flight: &mut in_flight,
            };
            let landed = committer.include(&mut head);
            let group = head.group;
            match landed {
                Ok(landed) => {
                    let missed = held_for
                        .is_some_and(|due| missed_slot(&shared.chain, due, landed.mined_by()));
                    let mut stats = shared.stats.lock();
                    if let Some(receipt) = landed.receipt() {
                        stats.stage2_gas = stats.stage2_gas.saturating_add(receipt.gas_used);
                        stats.stage2_fees = stats.stage2_fees.saturating_add(receipt.fee);
                    }
                    stats.stage2_slot_misses += u64::from(missed);
                    drop(stats);
                    in_flight.push(landed_range(&shared, &group, &landed), landed);
                    give_up_at = None;
                }
                Err(Exhausted) => {
                    shared.stats.lock().stage2_failed += group.roots.len() as u64;
                    parked = true;
                }
            }
            continue;
        }
        shared.maintain();
        if in_flight.is_empty() {
            if parked || !batcher_alive {
                return;
            }
            batcher_alive = wake.recv().is_ok();
            continue;
        }
        if !batcher_alive {
            let now = shared.chain.clock().now();
            let patience = shared.chain.config().receipt_timeout;
            if now >= *give_up_at.get_or_insert(now.add(patience)) {
                return;
            }
        }
        batcher_alive = nap(&shared.chain, &wake, batcher_alive);
    }
}

/// Holds the pending group — recording confirmed groups meanwhile — until
/// the send moment of the chain's next block ([`send_slot`]). Returns at
/// once, holding nothing, when there is no such moment (no miner, a manual
/// clock, or a moment already past); early when the group fills or the
/// batcher hangs up (clearing `batcher_alive`). Returns the due time of the
/// block the group was held for, if it was held.
fn hold(
    shared: &Shared,
    wake: &Receiver<()>,
    in_flight: &mut InFlight<Range<u64>>,
    batcher_alive: &mut bool,
) -> Option<SimInstant> {
    let chain = &shared.chain;
    let slot = send_slot(chain)?;
    let factor = chain.clock().compression()?;
    let from = next_start(in_flight);
    let max_group = shared.config.stage2_max_group.max(1);
    let mut held = None;
    loop {
        let now = chain.clock().now();
        if now >= slot.send_at || shared.pending_group(from, max_group).roots.len() >= max_group {
            return held;
        }
        held = Some(slot.due);
        if wake.recv_timeout(slot.send_at.since(now).div_f64(factor))
            == Err(RecvTimeoutError::Disconnected)
        {
            *batcher_alive = false;
            return held;
        }
        record_confirmed(shared, in_flight);
    }
}

/// Waits one receipt poll of simulated time for the oldest mined group to
/// get deeper, returning early when the batcher registers a batch. Returns
/// whether the batcher is still alive.
fn nap(chain: &Chain, wake: &Receiver<()>, batcher_alive: bool) -> bool {
    let poll = chain.config().receipt_poll;
    match chain.clock().compression() {
        Some(factor) if batcher_alive => {
            wake.recv_timeout(poll.div_f64(factor)) != Err(RecvTimeoutError::Disconnected)
        }
        _ => {
            chain.clock().sleep(poll);
            batcher_alive
        }
    }
}

/// Post-group-commit tier maintenance state: every path that advances the
/// blockchain-committed frontier counts its group here
/// ([`Shared::apply_commit`]), and [`Shared::maintain`] runs what is due —
/// right away on the epoch and adoption paths, never while the direct
/// committer holds a group.
pub(crate) struct TierMaintenance {
    /// Group commits since the last two-plane checkpoint.
    groups_since_ckpt: u64,
    /// When the last checkpoint was written (simulated time).
    last_ckpt: SimInstant,
    /// Whether a group was recorded since maintenance last ran.
    due: bool,
}

impl TierMaintenance {
    pub(crate) fn new(now: SimInstant) -> TierMaintenance {
        TierMaintenance {
            groups_since_ckpt: 0,
            last_ckpt: now,
            due: false,
        }
    }

    fn group_recorded(&mut self) {
        self.groups_since_ckpt += 1;
        self.due = true;
    }

    /// Where the two-plane checkpoint cadence ticks and sealed segments
    /// past the punishment window are retired (segments seal themselves at
    /// rotation; the committed frontier only gates retention). All I/O
    /// happens on the calling (committer or epoch-commit) thread — never
    /// under the write-plane guard, never on the stage-1 or read paths.
    /// Does nothing unless a group was recorded since the last run.
    fn run(&mut self, shared: &Shared) {
        if !std::mem::take(&mut self.due) {
            return;
        }
        let tier = shared.config.tier;
        let snap = shared.snapshot();
        let frontier_log = snap.frontier();
        let now = shared.chain.clock().now();
        let due_by_groups = tier.checkpoint_every_groups > 0
            && self.groups_since_ckpt >= tier.checkpoint_every_groups;
        let due_by_time = now.since(self.last_ckpt) >= tier.checkpoint_interval;
        if (due_by_groups || due_by_time) && shared.write_checkpoint().is_ok() {
            self.groups_since_ckpt = 0;
            self.last_ckpt = now;
        }
        if let Some(retain) = tier.retain_positions {
            // Retire records of positions more than `retain` positions
            // behind the frontier — but never past what the kept
            // checkpoints can restore (a restart must always find its state
            // on disk).
            let keep_from_log = frontier_log.saturating_sub(retain);
            let retain_record = snap
                .batches
                .get(keep_from_log as usize)
                .map(|batch| batch.first_record)
                .unwrap_or(0);
            let upto = retain_record.min(shared.ckpt_floor.load(Ordering::Acquire));
            if upto > 0 {
                let _ = shared.store.retire_up_to(upto);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use wedge_merkle::MerkleTree;

    use super::super::state::BatchMeta;
    use super::*;
    use crate::types::{AppendRequest, CommitPhase};
    use crate::LocalNode;

    /// A plane with `flushed` single-leaf batches, the first `committed` of
    /// them blockchain-committed.
    fn snapshot(flushed: u64, committed: u64) -> Arc<Snapshot> {
        let mut plane = Snapshot::default();
        for log_id in 0..flushed {
            let tree = MerkleTree::from_leaves(&[vec![log_id as u8]]).unwrap();
            let meta = BatchMeta {
                log_id,
                first_record: 2 * log_id + 1,
                count: 1,
                tree,
                flushed_at: SimInstant::EPOCH,
            };
            plane.register_batch(meta, std::iter::empty());
        }
        for _ in 0..committed {
            let info = CommitInfo {
                tx_hash: Hash32::ZERO,
                block_number: 0,
                stage2_latency: Duration::ZERO,
            };
            plane.commits.push(info);
        }
        Arc::new(plane)
    }

    #[test]
    fn pending_group_is_the_capped_run_from_the_frontier() {
        let snap = snapshot(8, 3);
        let group = pending_group(&snap, NodeBehavior::Honest, 0, 16);
        assert_eq!(group.start, 3);
        let honest: Vec<Hash32> = snap.batches.iter_from(3).map(|b| b.tree.root()).collect();
        assert_eq!(group.roots, honest);
        assert_eq!(
            pending_group(&snap, NodeBehavior::Honest, 0, 2).roots,
            honest[..2]
        );
        // max_group 0 is clamped to one root per transaction.
        assert_eq!(
            pending_group(&snap, NodeBehavior::Honest, 0, 0).roots.len(),
            1
        );
        assert!(pending_group(&snapshot(3, 3), NodeBehavior::Honest, 0, 16).is_empty());
        // Positions in flight are skipped; a `from` behind the frontier is
        // not.
        let next = pending_group(&snap, NodeBehavior::Honest, 5, 16);
        assert_eq!((next.start, next.roots.as_slice()), (5, &honest[2..]));
        assert_eq!(pending_group(&snap, NodeBehavior::Honest, 1, 16).start, 3);
        assert!(pending_group(&snap, NodeBehavior::Honest, 8, 16).is_empty());
    }

    /// Regression (PR 2 satellite, restated for the pull design): a
    /// position must never share a transaction with positions beyond a
    /// gap — `update_records_calldata(start_idx, …)` would bind its root to
    /// the wrong on-chain index. The only source of gaps left is the
    /// omission behaviour, and the run stops there.
    #[test]
    fn pending_group_stops_at_an_omitted_position() {
        let snap = snapshot(6, 1);
        let group = pending_group(&snap, NodeBehavior::OmitStage2 { from_log: 4 }, 0, 16);
        assert_eq!((group.start, group.roots.len()), (1, 3), "4.. must wait");
        let omitted = pending_group(&snap, NodeBehavior::OmitStage2 { from_log: 0 }, 0, 16);
        assert!(omitted.is_empty());
    }

    #[test]
    fn pending_group_applies_the_equivocation_behaviour() {
        let snap = snapshot(3, 0);
        let group = pending_group(&snap, NodeBehavior::CommitWrongRoot { from_log: 1 }, 0, 16);
        let honest: Vec<Hash32> = snap.batches.iter_from(0).map(|b| b.tree.root()).collect();
        assert_eq!(group.roots[0], honest[0]);
        assert_ne!(group.roots[1], honest[1]);
        assert_ne!(group.roots[2], honest[2]);
    }

    /// A node that flushes every entry as its own batch, with `entries`
    /// of them appended and every reply received.
    fn node_with(tag: &str, behavior: NodeBehavior, entries: u64) -> LocalNode {
        let config = crate::NodeConfig {
            batch_size: 1,
            behavior,
            ..Default::default()
        };
        let node = LocalNode::start(tag, config).unwrap();
        append(&node, 0..entries);
        node
    }

    fn append(node: &LocalNode, sequences: std::ops::Range<u64>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let count = sequences.end - sequences.start;
        for sequence in sequences {
            let request =
                AppendRequest::new(node.client_identity.secret_key(), sequence, vec![1, 2]);
            node.node().submit(request, tx.clone()).unwrap();
        }
        for _ in 0..count {
            rx.recv().unwrap().unwrap();
        }
    }

    const IDLE: Duration = Duration::from_secs(600);

    #[test]
    fn apply_commit_past_the_frontier_records_nothing() {
        let local = node_with("prefix-gap", NodeBehavior::OmitStage2 { from_log: 2 }, 4);
        let node = local.node();
        let _ = node.wait_stage2_idle(IDLE);
        let shared = &node.shared;
        assert_eq!(shared.snapshot().frontier(), 2);
        // A block number the test chain never reaches marks these commits.
        const MARK: u64 = u64::MAX;

        assert_eq!(
            shared.apply_commit(3, 1, Hash32::ZERO, MARK),
            0,
            "3 is past 2"
        );
        assert_eq!(shared.snapshot().frontier(), 2);
        assert_eq!(node.commit_phase(3), CommitPhase::OffchainCommitted);
        assert!(node.commit_info(3).is_none());

        // A group overlapping the prefix records only what lies past it.
        assert_eq!(shared.apply_commit(1, 3, Hash32::ZERO, MARK), 2);
        assert_eq!(shared.snapshot().frontier(), 4);
        let block = |log_id| node.commit_info(log_id).map(|info| info.block_number);
        assert_eq!(block(3), Some(MARK));
        assert_ne!(block(1), Some(MARK));
    }

    #[test]
    fn destroy_tail_truncates_commits_and_adoption_covers_them_again() {
        let local = node_with("prefix-destroy", NodeBehavior::Honest, 3);
        let node = local.node();
        node.wait_stage2_idle(IDLE).unwrap();
        assert_eq!(node.shared.snapshot().frontier(), 3);

        node.destroy_tail(1).unwrap();
        assert_eq!(node.log_positions(), 2);
        assert_eq!(node.shared.snapshot().frontier(), 2);
        assert_eq!(node.commit_phase(2), CommitPhase::Pending);

        // Position 2 is flushed again, but the Root Record already holds
        // index 2: adopting the contract's tail covers it. The committer
        // thread races to the same adoption, so either may record it.
        append(&local, 3..4);
        assert!(node.shared.adopt_onchain_tail(None) <= 1);
        node.wait_stage2_idle(IDLE).unwrap();
        assert_eq!(node.shared.snapshot().frontier(), 3);
        assert_eq!(node.commit_phase(2), CommitPhase::BlockchainCommitted);
    }
}
