//! Node-side metrics, the raw material for the paper's figures.

use std::time::Duration;

use wedge_chain::{Gas, Wei};

/// Counters and samples collected by the Offchain Node.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Append requests accepted into batches.
    pub entries_ingested: u64,
    /// Raw payload bytes accepted.
    pub bytes_ingested: u64,
    /// Requests dropped for invalid signatures.
    pub requests_rejected: u64,
    /// Requests accepted against a remembered publisher key, no recovery
    /// run (see [`crate::PublisherKeys`]); the collect stage's hit count.
    pub requests_verified_cached: u64,
    /// Full public-key recoveries the collect stage ran: publishers not
    /// yet seen twice plus every request the cached check rejected. A rate
    /// near the ingest rate means publishers that do not come back, more
    /// of them than the cache holds, or a flood of bad signatures.
    pub requests_verified_recovered: u64,
    /// Requests whose verdict the collect stage reached before their batch
    /// closed: it checks a filling batch's arrived requests whenever the
    /// ingest queue is momentarily empty and every publisher among them
    /// has a long enough run to check. 0 under many light publishers or
    /// back-to-back full batches, where every request is checked at close.
    pub requests_verified_early: u64,
    /// Batches flushed (log positions created).
    pub batches_flushed: u64,
    /// ECDSA signatures the node produced over response attestations: one
    /// per flushed batch plus one per read call that found something —
    /// never one per entry.
    pub attestations_signed: u64,
    /// `Update-Records` transactions submitted.
    pub stage2_txs_submitted: u64,
    /// Log positions confirmed on-chain.
    pub stage2_committed: u64,
    /// Log positions of the head group abandoned after the retry policy's
    /// `max_attempts` consecutive failures — *not* first-attempt failures,
    /// which are retried (see [`crate::Stage2RetryPolicy`]). Counted once:
    /// the committer parks after abandoning a group, since nothing behind
    /// it could land on the strictly sequential Root Record.
    pub stage2_failed: u64,
    /// Stage-2 re-submissions performed (attempt ≥ 2 of a group).
    pub stage2_retries: u64,
    /// Log positions scheduled for a retry (one position counted once per
    /// failed attempt of its group).
    pub stage2_requeued: u64,
    /// Failed stage-2 submissions classified as submission errors
    /// (transaction never reached the mempool).
    pub stage2_submission_errors: u64,
    /// Failed stage-2 submissions classified as on-chain reverts.
    pub stage2_reverts: u64,
    /// Failed stage-2 submissions classified as receipt timeouts.
    pub stage2_timeouts: u64,
    /// Stage-2 groups held for the next block (see the committer in
    /// `node/stage2.rs`) that were mined in a later one: the send margin
    /// was too small for the host, or the send failed and was retried.
    pub stage2_slot_misses: u64,
    /// Per-attempt backoff histogram: `stage2_backoff_hist[k]` counts the
    /// retries scheduled after attempt `k + 1` failed.
    pub stage2_backoff_hist: Vec<u64>,
    /// Sum of the per-position simulated stage-1→stage-2 latencies.
    pub stage2_latency_sum: Duration,
    /// Positions counted in `stage2_latency_sum`.
    pub stage2_latency_count: u64,
    /// Total gas spent on stage-2 commitments.
    pub stage2_gas: Gas,
    /// Total fees spent on stage-2 commitments.
    pub stage2_fees: Wei,
    /// Batches that received fewer replica acknowledgements than
    /// configured (a replica is down or lagging).
    pub replication_shortfalls: u64,
    /// Read-plane snapshots published (one per batch registration, stage-2
    /// group commit, or destructive mutation).
    pub snapshot_publishes: u64,
    /// Times a stage-1 pipeline stage blocked handing a batch downstream
    /// (the bounded inter-stage queue was full). A persistently high rate
    /// means the persist/deliver stages are the bottleneck; consider a
    /// deeper [`crate::NodeConfig::pipeline_depth`].
    pub pipeline_stalls: u64,
    /// Parallel chunks dispatched while building batch Merkle trees
    /// (0 ⇒ every tree was built serially, e.g. below
    /// [`crate::NodeConfig::merkle_parallel_cutoff`] or on a single-core
    /// machine).
    pub merkle_par_chunks: u64,
    /// Batches whose durability rode a neighbouring batch's fsync under
    /// [`wedge_storage::SyncPolicy::GroupCommit`] instead of paying their
    /// own (sampled from the store when stats are read).
    pub fsyncs_coalesced: u64,
    /// Nanoseconds of local persistence (Merkle + `append_batch` + fsync)
    /// that ran while replica sends were already in flight — the persist
    /// stage's overlap win. 0 when there are no replicas.
    pub replication_overlap_ns: u64,
    /// Worker threads *not* spawned because the shared pool caps
    /// parallelism at the machine's core count (process-wide, sampled from
    /// [`wedge_pool::oversubscription_avoided`] when stats are read).
    pub oversubscription_avoided: u64,
    /// Keccak-256 digests computed, all paths (process-wide, sampled from
    /// [`wedge_crypto::hash::hashes_computed`] when stats are read).
    pub hashes_computed: u64,
    /// ×4 lane-interleaved Keccak groups executed — each one produced four
    /// digests in roughly one permutation's time (process-wide, sampled
    /// from [`wedge_crypto::hash::hash_batches_x4`] when stats are read).
    pub hash_batches_x4: u64,
    /// Nanoseconds the persist stage spent folding batch Merkle trees'
    /// interior levels (the collect stage hashes the leaves).
    pub merkle_hash_ns: u64,
    /// Segments sealed by rotation since this node started (sampled from
    /// the store when stats are read).
    pub segments_sealed: u64,
    /// Two-plane checkpoints written (periodic and final-on-shutdown).
    pub checkpoint_writes: u64,
    /// Store records replayed during this node's start — records past the
    /// newest valid checkpoint's cursor, or the whole log when no
    /// checkpoint was usable. The observable measure of O(tail) restart.
    pub restart_replayed_records: u64,
    /// Cold segments deleted by the retention policy since this node
    /// started (sampled from the store when stats are read).
    pub gc_deleted_segments: u64,
    /// Non-empty `epoch_report` groups handed to a cluster epoch
    /// coordinator (shard nodes in [`crate::Stage2Mode::Epoch`] only).
    pub epoch_reports: u64,
    /// Cluster epoch acknowledgements applied via `epoch_commit`.
    pub epoch_commits: u64,
    /// `epoch_commit` calls rejected because a later epoch was already
    /// acknowledged — the stale-epoch guard the cluster protocol model
    /// checks.
    pub epoch_stale_rejected: u64,
}

impl NodeStats {
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
