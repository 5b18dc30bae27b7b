//! Node-side metrics, the raw material for the paper's figures.

use std::time::Duration;

use wedge_chain::{Gas, Wei};

use super::snapshot::Snapshot;

/// Counters and samples collected by the Offchain Node. Each field is one
/// of two kinds, named first in its doc comment:
///
/// * **State** fields describe the published log: [`super::OffchainNode::stats`]
///   reads them from the snapshot, as the change since what the node
///   restored at start, so they never lag what a reader saw published.
/// * **Event** fields count things that happened, as they happen (those
///   the store counts are sampled from it).
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// State: entries in the batches flushed since this node started.
    pub entries_ingested: u64,
    /// Event: requests dropped for invalid signatures.
    pub requests_rejected: u64,
    /// Event: requests accepted against a remembered publisher key (see
    /// [`crate::PublisherKeys`]), no recovery run.
    pub requests_verified_cached: u64,
    /// Event: full public-key recoveries the collect stage ran: publishers
    /// not yet seen twice plus every request the cached check rejected. A
    /// rate near the ingest rate means publishers that do not come back,
    /// more of them than the cache holds, or a flood of bad signatures.
    pub requests_verified_recovered: u64,
    /// Event: requests whose verdict the collect stage reached before their
    /// batch closed: it checks a filling batch's arrived requests whenever
    /// the ingest queue is momentarily empty and every publisher among them
    /// has a long enough run to check. 0 under many light publishers or
    /// back-to-back full batches, where every request is checked at close.
    pub requests_verified_early: u64,
    /// State: log positions flushed since this node started.
    pub batches_flushed: u64,
    /// Event: ECDSA signatures the node produced over response
    /// attestations: one per flushed batch plus one per read call that
    /// found something — never one per entry.
    pub attestations_signed: u64,
    /// Event: `Update-Records` transactions submitted.
    pub stage2_txs_submitted: u64,
    /// State: log positions blockchain-committed since this node started.
    pub stage2_committed: u64,
    /// Event: log positions of the head group abandoned after the retry
    /// policy's `max_attempts` consecutive failures — *not* first-attempt
    /// failures, which are retried (see [`crate::Stage2RetryPolicy`]).
    /// Counted once: the committer parks after abandoning a group, since
    /// nothing behind it could land on the strictly sequential Root Record.
    pub stage2_failed: u64,
    /// Event: stage-2 re-submissions performed (attempt ≥ 2 of a group).
    pub stage2_retries: u64,
    /// Event: log positions scheduled for a retry (one position counted
    /// once per failed attempt of its group).
    pub stage2_requeued: u64,
    /// Event: failed stage-2 submissions classified as submission errors
    /// (transaction never reached the mempool).
    pub stage2_submission_errors: u64,
    /// Event: failed stage-2 submissions classified as on-chain reverts.
    pub stage2_reverts: u64,
    /// Event: failed stage-2 submissions classified as receipt timeouts.
    pub stage2_timeouts: u64,
    /// Event: stage-2 groups held for the next block (see the committer in
    /// `node/stage2.rs`) that were mined in a later one: the send margin
    /// was too small for the host, or the send failed and was retried.
    pub stage2_slot_misses: u64,
    /// Event: per-attempt backoff histogram: `stage2_backoff_hist[k]`
    /// counts the retries scheduled after attempt `k + 1` failed.
    pub stage2_backoff_hist: Vec<u64>,
    /// State: sum of the committed positions' simulated stage-2 latencies.
    pub stage2_latency_sum: Duration,
    /// State: positions in `stage2_latency_sum` (= `stage2_committed`).
    pub stage2_latency_count: u64,
    /// Event: total gas spent on stage-2 commitments.
    pub stage2_gas: Gas,
    /// Event: total fees spent on stage-2 commitments.
    pub stage2_fees: Wei,
    /// Event: batches that received fewer replica acknowledgements than
    /// configured (a replica is down or lagging).
    pub replication_shortfalls: u64,
    /// State: read-plane snapshots published since this node started.
    pub snapshot_publishes: u64,
    /// Event: times a stage-1 pipeline stage blocked handing a batch
    /// downstream (the bounded inter-stage queue was full). A persistently
    /// high rate means the persist/deliver stages are the bottleneck;
    /// consider a deeper [`crate::NodeConfig::pipeline_depth`].
    pub pipeline_stalls: u64,
    /// Event: parallel chunks dispatched while building batch Merkle trees
    /// (0 ⇒ every tree was built serially, e.g. below
    /// [`crate::NodeConfig::merkle_parallel_cutoff`] or on a single-core
    /// machine).
    pub merkle_par_chunks: u64,
    /// Event: batches whose durability rode a neighbouring batch's fsync
    /// under [`wedge_storage::SyncPolicy::GroupCommit`] instead of paying
    /// their own (sampled from the store).
    pub fsyncs_coalesced: u64,
    /// Event: nanoseconds of local persistence (Merkle + `append_batch` +
    /// fsync) that ran while replica sends were already in flight — the
    /// persist stage's overlap win. 0 when there are no replicas.
    pub replication_overlap_ns: u64,
    /// Event: segments sealed by rotation since this node started (sampled
    /// from the store).
    pub segments_sealed: u64,
    /// Event: store records replayed during this node's start — records
    /// past the newest valid checkpoint's cursor, or the whole log when no
    /// checkpoint was usable. The observable measure of O(tail) restart.
    pub restart_replayed_records: u64,
    /// Event: cold segments deleted by the retention policy since this
    /// node started (sampled from the store).
    pub gc_deleted_segments: u64,
    /// Event: `epoch_commit` calls rejected because a later epoch was
    /// already acknowledged — the stale-epoch guard the cluster protocol
    /// model checks.
    pub epoch_stale_rejected: u64,
}

impl NodeStats {
    /// The state fields of a log grown from empty to `snap`.
    pub(crate) fn state_of(snap: &Snapshot) -> NodeStats {
        NodeStats {
            batches_flushed: snap.batches.len() as u64,
            entries_ingested: snap.entry_count,
            stage2_committed: snap.frontier(),
            stage2_latency_count: snap.frontier(),
            stage2_latency_sum: snap.stage2_latency_sum,
            snapshot_publishes: snap.publishes,
            ..NodeStats::default()
        }
    }

    /// Sets the state fields to what `snap` holds beyond `restored`.
    pub(crate) fn set_state(&mut self, restored: &NodeStats, snap: &Snapshot) {
        let now = NodeStats::state_of(snap);
        let since = |now: u64, then: u64| now.saturating_sub(then);
        self.batches_flushed = since(now.batches_flushed, restored.batches_flushed);
        self.entries_ingested = since(now.entries_ingested, restored.entries_ingested);
        self.stage2_committed = since(now.stage2_committed, restored.stage2_committed);
        self.stage2_latency_count = self.stage2_committed;
        self.stage2_latency_sum = now
            .stage2_latency_sum
            .saturating_sub(restored.stage2_latency_sum);
        self.snapshot_publishes = since(now.snapshot_publishes, restored.snapshot_publishes);
    }

    /// Records one scheduled retry after attempt `attempt` (1-based)
    /// failed, growing the histogram as needed.
    pub(crate) fn record_backoff(&mut self, attempt: u32) {
        let idx = attempt.saturating_sub(1) as usize;
        if self.stage2_backoff_hist.len() <= idx {
            self.stage2_backoff_hist.resize(idx + 1, 0);
        }
        self.stage2_backoff_hist[idx] = self.stage2_backoff_hist[idx].saturating_add(1);
    }

    /// Mean stage-2 latency (simulated), if any commitments completed.
    pub fn mean_stage2_latency(&self) -> Option<Duration> {
        if self.stage2_latency_count == 0 {
            return None;
        }
        Some(
            self.stage2_latency_sum
                .div_f64(self.stage2_latency_count as f64),
        )
    }

    /// On-chain cost per ingested operation, in wei.
    pub fn cost_per_op(&self) -> Wei {
        if self.entries_ingested == 0 {
            return Wei::ZERO;
        }
        Wei(self.stage2_fees.0 / self.entries_ingested as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalNode, NodeConfig, OffchainNode};

    /// Asserts the state fields describe the published log beyond its
    /// first `restored` positions (every one of them committed).
    fn assert_state_matches(node: &OffchainNode, restored: u64) {
        let stats = node.stats();
        let snap = node.shared.snapshot();
        let frontier = snap.frontier();
        assert_eq!(stats.stage2_committed, frontier - restored, "{stats:?}");
        assert_eq!(stats.batches_flushed, snap.batches.len() as u64 - restored);
        assert_eq!(stats.entries_ingested, snap.entry_count - restored);
        assert_eq!(stats.stage2_latency_count, stats.stage2_committed);
        let latency: Duration = (restored..frontier)
            .filter_map(|log_id| node.commit_info(log_id))
            .map(|info| info.stage2_latency)
            .sum();
        assert_eq!(stats.stage2_latency_sum, latency);
    }

    /// A reader that saw the frontier cover every position finds them all
    /// counted: `wait_stage2_idle` waits on the published frontier, and
    /// the count is read from the same snapshot. After a restart the
    /// counts start from what the node restored.
    #[test]
    fn state_fields_agree_with_the_published_frontier() {
        const IDLE: Duration = Duration::from_secs(3600);
        let config = || NodeConfig {
            batch_size: 1,
            ..Default::default()
        };
        let mut local = LocalNode::start("stats-state", config()).unwrap();
        let mut publisher = local.publisher();
        publisher.append_batch(vec![vec![1]; 3]).unwrap();
        local.node().wait_stage2_idle(IDLE).unwrap();
        assert_state_matches(local.node(), 0);
        assert!(local.node().stats().snapshot_publishes > 3);

        local.restart(config()).unwrap();
        assert_eq!(local.node().log_positions(), 3);
        assert_state_matches(local.node(), 3);
        publisher.append_batch(vec![vec![2]; 2]).unwrap();
        local.node().wait_stage2_idle(IDLE).unwrap();
        assert_state_matches(local.node(), 3);
        assert_eq!(local.node().stats().stage2_committed, 2);
    }

    #[test]
    fn derived_metrics() {
        let mut s = NodeStats::default();
        assert!(s.mean_stage2_latency().is_none());
        assert_eq!(s.cost_per_op(), Wei::ZERO);
        s.stage2_latency_sum = Duration::from_secs(40 + 46);
        s.stage2_latency_count = 2;
        assert_eq!(s.mean_stage2_latency(), Some(Duration::from_secs(43)));
        s.entries_ingested = 1000;
        s.stage2_fees = Wei(5_000_000);
        assert_eq!(s.cost_per_op(), Wei(5_000));
    }
}
