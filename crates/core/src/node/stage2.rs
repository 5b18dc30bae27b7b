//! Stage 2 (paper §4.3, blockchain commitment): what is pending, how a
//! landed group is applied, and the direct committer thread.
//!
//! Nothing is queued. The **pending group** is derived from the published
//! snapshot — the contiguous run of flushed positions starting at the
//! blockchain-committed frontier, capped at `stage2_max_group` — by
//! [`pending_group`], and a landed group is recorded by
//! [`Shared::apply_commit`]. A cluster shard exposes exactly these two as
//! `epoch_report` / `epoch_commit` and lets the epoch coordinator drive
//! them; a single node drives them itself from the thread in [`run`],
//! which lands each group in the `RootRecord` through the shared
//! [`ChainCommitter`] retry engine. The batcher only *wakes* that thread,
//! so the committer's memory is O(`stage2_max_group`) however long the
//! chain is down, and restart and failure recovery are the same step:
//! adopt the contract's tail ([`Shared::adopt_onchain_tail`]).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use wedge_chain::{ChainError, Gas, Receipt, TxHash, Wei};
use wedge_contracts::RootRecord;
use wedge_crypto::hash::Hash32;
use wedge_sim::SimInstant;

use super::snapshot::Snapshot;
use super::state::CommitInfo;
use super::Shared;
use crate::chain_commit::{ChainCommitter, CommitTarget, Event, Exhausted, Failure, Landed};
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

/// The pending group of `snap`: roots for positions `[frontier,
/// min(frontier + max_group, flushed))`, where `frontier` is the contiguous
/// blockchain-committed prefix. The run stops at the first position the
/// node's behaviour omits — the contracts write strictly sequentially, so
/// nothing behind a gap could bind to the right on-chain index.
pub(crate) fn pending_group(
    snap: &Snapshot,
    behavior: NodeBehavior,
    max_group: usize,
) -> ShardGroup {
    let start = snap.frontier();
    let roots = (start..)
        .zip(snap.batches.iter_from(start as usize))
        .take(max_group.max(1))
        .map_while(|(log_id, batch)| stage2_root_for(behavior, log_id, batch.tree.root()))
        .collect();
    ShardGroup { start, roots }
}

impl Shared {
    /// This node's pending group, capped at `max_group`.
    pub(crate) fn pending_group(&self, max_group: usize) -> ShardGroup {
        pending_group(&self.snapshot(), self.config.behavior, max_group)
    }

    /// Records positions `[start, start + count)` as blockchain-committed
    /// by `tx_hash` — one write-plane mutation (and one published
    /// snapshot) for the whole group, then tier maintenance. Idempotent per
    /// position; returns the number of *newly* committed ones.
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
        let (newly, latency) = self.mutate(|plane| {
            let mut newly = 0u64;
            let mut latency = Duration::ZERO;
            if start > plane.frontier() {
                return (newly, latency);
            }
            for log_id in plane.frontier()..start.saturating_add(count) {
                let Some(batch) = plane.batches.get(log_id as usize) else {
                    break;
                };
                let stage2_latency = committed_at.since(batch.flushed_at);
                plane.commits.push(CommitInfo {
                    tx_hash,
                    block_number,
                    stage2_latency,
                });
                newly += 1;
                latency += stage2_latency;
            }
            (newly, latency)
        });
        if newly > 0 {
            {
                let mut stats = self.stats.lock();
                stats.stage2_committed += newly;
                stats.stage2_latency_count += newly;
                stats.stage2_latency_sum += latency;
            }
            self.maintenance.lock().after_group_commit(self);
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
        self.apply_commit(start, landed, tx_hash, block_number)
    }
}

/// The head group as a [`CommitTarget`]: one `Update-Records` transaction
/// (amortizing the 21k base cost over the group — the minimum-writing lever
/// of Figure 3 right).
struct HeadGroup<'a> {
    shared: &'a Shared,
    /// What the last attempt submitted.
    group: ShardGroup,
}

impl CommitTarget for HeadGroup<'_> {
    fn submit(&mut self) -> Result<TxHash, ChainError> {
        // Everything flushed since the last receipt rides along, so a long
        // outage still drains in ⌈backlog / max_group⌉ transactions.
        let fresh = self
            .shared
            .pending_group(self.shared.config.stage2_max_group);
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
}

/// The direct committer thread: lands the pending group, one transaction
/// at a time, until the batcher has hung up and nothing is pending.
///
/// `wake` carries no data — the batcher drops a token in after registering
/// a batch. When the retry budget is exhausted the abandoned group counts
/// in `stage2_failed` once and the thread parks for good: the Root Record
/// is strictly sequential, so nothing behind an abandoned head could land,
/// and every later submission would be a guaranteed revert. A restart
/// starts over from the contract's tail.
pub(crate) fn run(shared: Arc<Shared>, wake: Receiver<()>) {
    let mut committer = ChainCommitter::new(Arc::clone(&shared.chain), shared.config.stage2_retry);
    let mut batcher_alive = true;
    loop {
        let group = shared.pending_group(shared.config.stage2_max_group);
        if group.is_empty() {
            if !batcher_alive {
                return;
            }
            batcher_alive = wake.recv().is_ok();
            continue;
        }
        let mut head = HeadGroup {
            shared: &shared,
            group,
        };
        match committer.commit(&mut head) {
            Ok(landed) => {
                if let Some(receipt) = landed.receipt() {
                    let mut stats = shared.stats.lock();
                    stats.stage2_gas = stats.stage2_gas.saturating_add(receipt.gas_used);
                    stats.stage2_fees = stats.stage2_fees.saturating_add(receipt.fee);
                }
                match landed {
                    Landed::Confirmed(receipt) => {
                        let count = head.group.roots.len() as u64;
                        shared.apply_commit(
                            head.group.start,
                            count,
                            receipt.tx_hash,
                            receipt.block_number,
                        );
                    }
                    // Which attempt landed is unknown: the contract's tail
                    // says how far it reached.
                    Landed::Reconciled(receipt) => {
                        shared.adopt_onchain_tail(receipt.as_ref());
                    }
                }
            }
            Err(Exhausted) => {
                shared.stats.lock().stage2_failed += head.group.roots.len() as u64;
                return;
            }
        }
    }
}

/// Post-group-commit tier maintenance state, driven by whichever path
/// advances the blockchain-committed frontier (always through
/// [`Shared::apply_commit`]).
pub(crate) struct TierMaintenance {
    /// Group commits since the last two-plane checkpoint.
    groups_since_ckpt: u64,
    /// When the last checkpoint was written (simulated time).
    last_ckpt: SimInstant,
}

impl TierMaintenance {
    pub(crate) fn new(now: SimInstant) -> TierMaintenance {
        TierMaintenance {
            groups_since_ckpt: 0,
            last_ckpt: now,
        }
    }

    /// Where the two-plane checkpoint cadence ticks and sealed segments
    /// past the punishment window are retired (segments seal themselves at
    /// rotation; the committed frontier only gates retention). All I/O
    /// happens on the calling (committer or epoch-commit) thread — never
    /// under the write-plane guard, never on the stage-1 or read paths.
    fn after_group_commit(&mut self, shared: &Shared) {
        let tier = shared.config.tier;
        let snap = shared.snapshot();
        let frontier_log = snap.frontier();
        self.groups_since_ckpt += 1;
        let now = shared.chain.clock().now();
        let due_by_groups = tier.checkpoint_every_groups > 0
            && self.groups_since_ckpt >= tier.checkpoint_every_groups;
        let due_by_time = now.since(self.last_ckpt) >= tier.checkpoint_interval;
        if (due_by_groups || due_by_time) && shared.write_checkpoint().is_ok() {
            self.groups_since_ckpt = 0;
            self.last_ckpt = now;
        }
        if let Some(retain) = tier.retain_groups {
            // Retire records of positions more than `retain` groups behind
            // the frontier — but never past what the kept checkpoints can
            // restore (a restart must always find its state on disk).
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

    use wedge_merkle::MerkleTree;

    use super::super::state::BatchMeta;
    use super::super::{test_node, TestNode};
    use super::*;
    use crate::types::{AppendRequest, CommitPhase};

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
        let group = pending_group(&snap, NodeBehavior::Honest, 16);
        assert_eq!(group.start, 3);
        let honest: Vec<Hash32> = snap.batches.iter_from(3).map(|b| b.tree.root()).collect();
        assert_eq!(group.roots, honest);
        assert_eq!(
            pending_group(&snap, NodeBehavior::Honest, 2).roots,
            honest[..2]
        );
        // max_group 0 is clamped to one root per transaction.
        assert_eq!(pending_group(&snap, NodeBehavior::Honest, 0).roots.len(), 1);
        assert!(pending_group(&snapshot(3, 3), NodeBehavior::Honest, 16).is_empty());
    }

    /// Regression (PR 2 satellite, restated for the pull design): a
    /// position must never share a transaction with positions beyond a
    /// gap — `update_records_calldata(start_idx, …)` would bind its root to
    /// the wrong on-chain index. The only source of gaps left is the
    /// omission behaviour, and the run stops there.
    #[test]
    fn pending_group_stops_at_an_omitted_position() {
        let snap = snapshot(6, 1);
        let group = pending_group(&snap, NodeBehavior::OmitStage2 { from_log: 4 }, 16);
        assert_eq!((group.start, group.roots.len()), (1, 3), "4.. must wait");
        let omitted = pending_group(&snap, NodeBehavior::OmitStage2 { from_log: 0 }, 16);
        assert!(omitted.is_empty());
    }

    #[test]
    fn pending_group_applies_the_equivocation_behaviour() {
        let snap = snapshot(3, 0);
        let group = pending_group(&snap, NodeBehavior::CommitWrongRoot { from_log: 1 }, 16);
        let honest: Vec<Hash32> = snap.batches.iter_from(0).map(|b| b.tree.root()).collect();
        assert_eq!(group.roots[0], honest[0]);
        assert_ne!(group.roots[1], honest[1]);
        assert_ne!(group.roots[2], honest[2]);
    }

    /// A node that flushes every entry as its own batch, with `entries`
    /// of them appended and every reply received.
    fn node_with(tag: &str, behavior: NodeBehavior, entries: u64) -> TestNode {
        let config = crate::NodeConfig {
            batch_size: 1,
            behavior,
            ..Default::default()
        };
        let node = test_node(tag, config);
        append(&node, 0..entries);
        node
    }

    fn append(node: &TestNode, sequences: std::ops::Range<u64>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let count = sequences.end - sequences.start;
        for sequence in sequences {
            let request = AppendRequest::new(node.publisher.secret_key(), sequence, vec![1, 2]);
            node.submit(request, tx.clone()).unwrap();
        }
        for _ in 0..count {
            rx.recv().unwrap().unwrap();
        }
    }

    const IDLE: Duration = Duration::from_secs(600);

    #[test]
    fn apply_commit_past_the_frontier_records_nothing() {
        let node = node_with("prefix-gap", NodeBehavior::OmitStage2 { from_log: 2 }, 4);
        let _ = node.wait_stage2_idle(IDLE);
        let shared = &node.shared;
        assert_eq!(shared.snapshot().frontier(), 2);

        assert_eq!(shared.apply_commit(3, 1, Hash32::ZERO, 9), 0, "3 is past 2");
        assert_eq!(shared.snapshot().frontier(), 2);
        assert_eq!(node.commit_phase(3), CommitPhase::OffchainCommitted);
        assert!(node.commit_info(3).is_none());

        // A group overlapping the prefix records only what lies past it.
        assert_eq!(shared.apply_commit(1, 3, Hash32::ZERO, 9), 2);
        assert_eq!(shared.snapshot().frontier(), 4);
        assert_eq!(node.commit_info(3).map(|info| info.block_number), Some(9));
        assert_ne!(node.commit_info(1).map(|info| info.block_number), Some(9));
    }

    #[test]
    fn destroy_tail_truncates_commits_and_adoption_covers_them_again() {
        let node = node_with("prefix-destroy", NodeBehavior::Honest, 3);
        node.wait_stage2_idle(IDLE).unwrap();
        assert_eq!(node.shared.snapshot().frontier(), 3);

        node.destroy_tail(1).unwrap();
        assert_eq!(node.log_positions(), 2);
        assert_eq!(node.shared.snapshot().frontier(), 2);
        assert_eq!(node.commit_phase(2), CommitPhase::Pending);

        // Position 2 is flushed again, but the Root Record already holds
        // index 2: adopting the contract's tail covers it. The committer
        // thread races to the same adoption, so either may record it.
        append(&node, 3..4);
        assert!(node.shared.adopt_onchain_tail(None) <= 1);
        node.wait_stage2_idle(IDLE).unwrap();
        assert_eq!(node.shared.snapshot().frontier(), 3);
        assert_eq!(node.commit_phase(2), CommitPhase::BlockchainCommitted);
    }
}
