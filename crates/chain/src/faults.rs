//! Deterministic chain fault injection.
//!
//! Real deployments fail in three distinct ways the happy-path simulator
//! never exercised: a transaction can be **dropped** before it reaches the
//! mempool (RPC outage, full mempool), it can be mined but **reverted**
//! (another writer advanced the contract's tail first, gas griefing), or
//! its receipt can be **delayed** past the submitter's patience window
//! (congestion). [`ChainFaults`] arms a bounded number of each, entirely
//! deterministically: the next *N* matching operations fail, then the chain
//! heals. Tests toggle faults through [`crate::Chain::faults`] and assert
//! exact counts afterwards.

use std::collections::HashMap;
use std::time::Duration;

use parking_lot::Mutex;
use wedge_sim::SimInstant;

use crate::types::TxHash;

#[derive(Default)]
struct FaultState {
    /// Remaining submissions to reject at the mempool door.
    drop_submissions: u64,
    /// Remaining contract-call executions to force-revert.
    revert_calls: u64,
    /// Remaining receipts to hide for `receipt_delay` after first query.
    delay_receipts: u64,
    /// How long a delayed receipt stays hidden (simulated time).
    receipt_delay: Duration,
    /// Hidden receipts and the instant they become visible again.
    hidden_until: HashMap<TxHash, SimInstant>,
    // Lifetime counters (never reset by `clear`).
    submissions_dropped: u64,
    calls_reverted: u64,
    receipts_delayed: u64,
}

/// Deterministic fault-injection hooks for one [`crate::Chain`].
///
/// All faults are counted down: arming `drop_next_submissions(2)` makes
/// exactly the next two [`crate::Chain::submit`] calls fail, after which
/// submission succeeds again. Counters accumulate across arms so tests can
/// assert precisely how many faults actually fired.
#[derive(Default)]
pub struct ChainFaults {
    state: Mutex<FaultState>,
}

impl ChainFaults {
    /// Arms the chain to reject the next `n` transaction submissions with
    /// [`crate::ChainError::SubmissionDropped`] (the transaction never
    /// enters the mempool).
    pub fn drop_next_submissions(&self, n: u64) {
        self.state.lock().drop_submissions = n;
    }

    /// Arms the chain to force-revert the next `n` contract-call
    /// executions at mining time (the transaction is mined, charged
    /// intrinsic gas, and its receipt reports a revert).
    pub fn revert_next_calls(&self, n: u64) {
        self.state.lock().revert_calls = n;
    }

    /// Arms the chain to hide the receipts of the next `n` distinct
    /// transactions queried via [`crate::Chain::wait_for_receipt`] or
    /// [`crate::Chain::wait_for_inclusion`] for `delay` of *simulated*
    /// time after the first query. A delay beyond the configured receipt
    /// timeout turns into a
    /// [`crate::ChainError::ReceiptTimeout`] for a transaction that in
    /// fact landed — the partial-progress case a fault-tolerant submitter
    /// must reconcile.
    pub fn delay_next_receipts(&self, n: u64, delay: Duration) {
        let mut s = self.state.lock();
        s.delay_receipts = n;
        s.receipt_delay = delay;
    }

    /// Disarms every pending fault (lifetime counters are preserved).
    pub fn clear(&self) {
        let mut s = self.state.lock();
        s.drop_submissions = 0;
        s.revert_calls = 0;
        s.delay_receipts = 0;
        s.hidden_until.clear();
    }

    /// Total submissions dropped so far.
    pub fn submissions_dropped(&self) -> u64 {
        self.state.lock().submissions_dropped
    }

    /// Total contract calls force-reverted so far.
    pub fn calls_reverted(&self) -> u64 {
        self.state.lock().calls_reverted
    }

    /// Total receipts delayed so far.
    pub fn receipts_delayed(&self) -> u64 {
        self.state.lock().receipts_delayed
    }

    /// Consumes one armed submission drop, if any.
    pub(crate) fn take_submission_drop(&self) -> bool {
        let mut s = self.state.lock();
        if s.drop_submissions == 0 {
            return false;
        }
        s.drop_submissions -= 1;
        s.submissions_dropped = s.submissions_dropped.saturating_add(1);
        true
    }

    /// Consumes one armed call revert, if any.
    pub(crate) fn take_call_revert(&self) -> bool {
        let mut s = self.state.lock();
        if s.revert_calls == 0 {
            return false;
        }
        s.revert_calls -= 1;
        s.calls_reverted = s.calls_reverted.saturating_add(1);
        true
    }

    /// Whether `hash`'s confirmed receipt is currently hidden by a delay
    /// fault. The first query of a hash while a delay is armed starts that
    /// hash's hiding window.
    pub(crate) fn receipt_hidden(&self, hash: TxHash, now: SimInstant) -> bool {
        let mut s = self.state.lock();
        if let Some(&until) = s.hidden_until.get(&hash) {
            if now < until {
                return true;
            }
            s.hidden_until.remove(&hash);
            return false;
        }
        if s.delay_receipts == 0 {
            return false;
        }
        s.delay_receipts -= 1;
        s.receipts_delayed = s.receipts_delayed.saturating_add(1);
        let until = now.add(s.receipt_delay);
        s.hidden_until.insert(hash, until);
        now < until
    }
}
