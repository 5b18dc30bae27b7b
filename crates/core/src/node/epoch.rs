//! Cluster epoch participation (shard side).
//!
//! A node in [`Stage2Mode::Epoch`] runs no stage-2 committer thread.
//! Instead an epoch coordinator drives the same two functions the direct
//! committer drives (see [`super::stage2`]), as a pull-based two-step
//! protocol:
//!
//! 1. **`epoch_report`** — the coordinator asks for the shard's pending
//!    group: the contiguous run of flushed-but-uncommitted batch roots
//!    starting at the blockchain-committed frontier. The report is a pure
//!    snapshot read — no per-epoch state is kept, so a crashed-and-
//!    recovered shard simply re-reports the same positions and the
//!    protocol converges without a handshake.
//! 2. **`epoch_commit`** — after the coordinator's root-of-roots
//!    transaction confirms on-chain, it acknowledges the covered group.
//!    The acknowledgement is idempotent per position and guarded against
//!    stale epochs: once epoch `e` is acknowledged, an acknowledgement for
//!    any epoch `< e` is rejected (its roots were superseded by a
//!    re-report — exactly the hazard `wedge-check`'s epoch model proves
//!    the guard necessary for).

use std::sync::atomic::Ordering;

use crate::config::Stage2Mode;
use crate::error::CoreError;
use crate::types::{EpochCommit, ShardGroup};

use super::OffchainNode;

impl OffchainNode {
    /// Reports the shard's pending group: batch roots for positions
    /// `[frontier, min(frontier + max_group, flushed))`, where `frontier`
    /// is the contiguous blockchain-committed prefix. Empty when nothing
    /// is pending. Only meaningful in [`Stage2Mode::Epoch`].
    pub fn epoch_report(&self, max_group: usize) -> Result<ShardGroup, CoreError> {
        if self.shared.config.stage2_mode != Stage2Mode::Epoch {
            return Err(CoreError::RequestRejected(
                "node is not in epoch commit mode",
            ));
        }
        Ok(self.shared.pending_group(0, max_group))
    }

    /// Applies the coordinator's acknowledgement: positions
    /// `[start, start + count)` are covered by the confirmed root-of-roots
    /// transaction of `epoch`. Returns the number of *newly* committed
    /// positions (retries and restart-replays are idempotent).
    pub fn epoch_commit(&self, commit: EpochCommit) -> Result<u64, CoreError> {
        if self.shared.config.stage2_mode != Stage2Mode::Epoch {
            return Err(CoreError::RequestRejected(
                "node is not in epoch commit mode",
            ));
        }
        // Stale-epoch guard: `epoch_seen` holds `last acknowledged epoch +
        // 1`. `fetch_max` both claims this epoch and exposes the previous
        // watermark; an acknowledgement older than an already-applied one
        // would bind re-reported positions to a superseded root-of-roots.
        let claimed = commit.epoch.saturating_add(1);
        let prev = self.shared.epoch_seen.fetch_max(claimed, Ordering::AcqRel);
        if prev > claimed {
            self.shared.stats.lock().epoch_stale_rejected += 1;
            return Err(CoreError::RequestRejected(
                "stale epoch acknowledgement rejected",
            ));
        }
        let snap = self.shared.snapshot();
        let flushed = snap.batches.len() as u64;
        let end = commit.start.saturating_add(commit.count);
        if end > flushed {
            return Err(CoreError::RequestRejected(
                "epoch commit beyond the flushed tail",
            ));
        }
        if commit.start > snap.frontier() {
            return Err(CoreError::RequestRejected(
                "epoch commit leaves a commitment gap",
            ));
        }
        let newly = self.shared.apply_commit(
            commit.start,
            commit.count,
            commit.tx_hash,
            commit.block_number,
        );
        self.shared.maintain();
        Ok(newly)
    }
}
