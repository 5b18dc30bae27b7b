//! Offchain Node configuration and (for adversarial testing) malicious
//! behaviour injection.

use std::time::Duration;

use wedge_storage::StoreConfig;

/// Malicious behaviours an Offchain Node can be configured with.
///
/// The byzantine model (paper §3.3) allows arbitrary behaviour; these are
/// the representative attack vectors the paper discusses, wired in so tests
/// and experiments can demonstrate detection + punishment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NodeBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Signs honest stage-1 responses but blockchain-commits a *different*
    /// root for log positions `>= from_log` (the equivocation of Definition
    /// 3.1's clause 2).
    CommitWrongRoot {
        /// First affected log position.
        from_log: u64,
    },
    /// Tampers with the leaf payload in responses for log positions
    /// `>= from_log`. The signed proof then fails to reproduce the signed
    /// root — punishable under Algorithm 2 line 10.
    TamperResponses {
        /// First affected log position.
        from_log: u64,
    },
    /// Silently drops stage-2 commitment for log positions `>= from_log`
    /// (an omission attack, §4.7).
    OmitStage2 {
        /// First affected log position.
        from_log: u64,
    },
}

impl NodeBehavior {
    /// Whether this behaviour affects `log_id`.
    pub fn affects(&self, log_id: u64) -> bool {
        match *self {
            NodeBehavior::Honest => false,
            NodeBehavior::CommitWrongRoot { from_log }
            | NodeBehavior::TamperResponses { from_log }
            | NodeBehavior::OmitStage2 { from_log } => log_id >= from_log,
        }
    }
}

/// Who drives the node's stage 2. What is pending and how a landed group
/// is recorded are the same either way (derived from, and applied to, the
/// published snapshot); the mode only selects the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Stage2Mode {
    /// The node spawns its own committer thread, which writes every
    /// pending group to its `RootRecord` contract (the paper's single-node
    /// protocol).
    #[default]
    Direct,
    /// The node is one shard of a cluster and spawns no committer: it
    /// never submits transactions itself. An epoch coordinator pulls the
    /// pending group via `epoch_report`, folds every shard's roots into one
    /// on-chain root-of-roots, and acknowledges with `epoch_commit` — one
    /// transaction per epoch for the whole cluster.
    Epoch,
}

/// Retry policy of the chain committer ([`crate::chain_commit`]), shared by
/// the node's stage-2 thread and the cluster's epoch coordinator.
///
/// A failed transaction (dropped submission, revert, receipt timeout) that
/// did not land is re-submitted with bounded exponential backoff: attempt
/// `k` waits `base_backoff × 2^(k-1)` of *simulated* time, capped at
/// `max_backoff`, scaled by a deterministic ±`jitter` factor. Only after
/// `max_attempts` consecutive failures of the same write is it abandoned
/// (a node counts it in `NodeStats::stage2_failed`; an epoch fails its
/// `run_epoch` call).
#[derive(Clone, Copy, Debug)]
pub struct Stage2RetryPolicy {
    /// Submission attempts per group before giving up (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
    /// Relative backoff jitter in `[0, 1)` (0.0 = deterministic delays).
    pub jitter: f64,
}

impl Default for Stage2RetryPolicy {
    fn default() -> Self {
        Stage2RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_secs(2),
            max_backoff: Duration::from_secs(60),
            jitter: 0.2,
        }
    }
}

impl Stage2RetryPolicy {
    /// The backoff before retry attempt `attempt` (1-based), without
    /// jitter: `base × 2^(attempt-1)`, capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(32);
        self.base_backoff
            .saturating_mul(1u32 << doublings.min(31))
            .min(self.max_backoff)
    }
}

/// Tiered-storage and checkpoint policy (see `docs/architecture.md`,
/// "Tiered storage & checkpoints").
///
/// The store seals every segment the moment its tail rotates (no policy
/// to set); what this configures is how often the two-plane state is
/// checkpointed, so a restart replays only the uncheckpointed tail, and
/// whether sealed segments that age past the punishment window are
/// deleted.
#[derive(Clone, Copy, Debug)]
pub struct TierConfig {
    /// Write a two-plane checkpoint every N stage-2 group commits
    /// (0 disables the group-count trigger).
    pub checkpoint_every_groups: u64,
    /// Also checkpoint when this much simulated time has passed since the
    /// last one (evaluated at group-commit time).
    pub checkpoint_interval: Duration,
    /// Retention: delete sealed segments holding only log positions more
    /// than this many positions behind the committed frontier — they have
    /// outlived the punishment window. `None` keeps everything (the
    /// default: retention is an explicit operator opt-in). Retirement
    /// never outruns the kept checkpoints, so a restart can always rebuild
    /// its state.
    pub retain_groups: Option<u64>,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            checkpoint_every_groups: 8,
            checkpoint_interval: Duration::from_secs(60),
            retain_groups: None,
        }
    }
}

/// Offchain Node configuration.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Append requests per batch (paper default: 2000).
    pub batch_size: usize,
    /// Flush a partial batch after this much wall time without reaching
    /// `batch_size`.
    pub batch_linger: Duration,
    /// Verify publisher signatures before accepting requests.
    pub verify_requests: bool,
    /// Worker threads for parallel signing/verification (the paper's
    /// prototype uses all cores).
    pub worker_threads: usize,
    /// Bounded depth of the stage-1 flush pipeline's inter-stage queues
    /// (≥ 1). Depth 1 still overlaps adjacent batches across the
    /// verify → persist → deliver stages; larger depths absorb burstier
    /// fsync/replication latencies at the cost of more in-flight batches.
    pub pipeline_depth: usize,
    /// Behaviour (honest or one of the attack modes).
    pub behavior: NodeBehavior,
    /// How batch roots reach the blockchain: the node's own committer, or
    /// a cluster epoch coordinator.
    pub stage2_mode: Stage2Mode,
    /// Maximum roots grouped into one `Update-Records` transaction.
    pub stage2_max_group: usize,
    /// Retry policy for failed stage-2 commitments.
    pub stage2_retry: Stage2RetryPolicy,
    /// Replicas to fan batches out to before responding (0 = none; the
    /// paper's red curves use 2).
    pub replicas: usize,
    /// Per-batch link delay towards each replica.
    pub replica_link_delay: Duration,
    /// Leaf/level count at or above which Merkle construction uses the
    /// shared work pool; below it the serial builder wins on thread-spawn
    /// overhead. `usize::MAX` forces the serial builder.
    pub merkle_parallel_cutoff: usize,
    /// Tiered-storage and checkpoint policy.
    pub tier: TierConfig,
    /// Storage engine settings.
    pub store: StoreConfig,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            batch_size: 2000,
            batch_linger: Duration::from_millis(20),
            verify_requests: true,
            worker_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            pipeline_depth: 2,
            behavior: NodeBehavior::Honest,
            stage2_mode: Stage2Mode::default(),
            stage2_max_group: 16,
            stage2_retry: Stage2RetryPolicy::default(),
            replicas: 0,
            replica_link_delay: Duration::from_micros(200),
            merkle_parallel_cutoff: 256,
            tier: TierConfig::default(),
            store: StoreConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_ranges() {
        assert!(!NodeBehavior::Honest.affects(0));
        let b = NodeBehavior::CommitWrongRoot { from_log: 5 };
        assert!(!b.affects(4));
        assert!(b.affects(5));
        assert!(b.affects(100));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = Stage2RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_secs(2),
            max_backoff: Duration::from_secs(30),
            jitter: 0.0,
        };
        assert_eq!(p.backoff_for(1), Duration::from_secs(2));
        assert_eq!(p.backoff_for(2), Duration::from_secs(4));
        assert_eq!(p.backoff_for(4), Duration::from_secs(16));
        assert_eq!(p.backoff_for(5), Duration::from_secs(30), "capped");
        assert_eq!(p.backoff_for(u32::MAX), Duration::from_secs(30), "no wrap");
    }

    #[test]
    fn defaults_match_paper() {
        let c = NodeConfig::default();
        assert_eq!(c.batch_size, 2000);
        assert!(c.verify_requests);
        assert_eq!(c.behavior, NodeBehavior::Honest);
    }
}
