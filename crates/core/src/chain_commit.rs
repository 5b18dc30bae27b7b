//! The one exactly-once chain committer (paper §4.3, lazy stage 2).
//!
//! *Land this write on chain exactly once, eventually* is a single idea,
//! used twice: the node's stage-2 thread lands each group of batch roots in
//! its `RootRecord`, the cluster's epoch coordinator lands each
//! root-of-roots in the `ClusterRoot`. Both contracts write strictly
//! sequentially, so a duplicate reverts and "did it land?" is answered by
//! the contract's tail. [`ChainCommitter::include`] is the retry ladder both
//! callers share, and it runs up to *inclusion*:
//!
//! 1. **submit** the caller's transaction and wait until it is mined
//!    ([`Chain::wait_for_inclusion`]: depth 0, the chain's patience window
//!    and receipt faults);
//! 2. **classify** a failure — never reached the mempool, mined but
//!    reverted, or no receipt within the chain's patience window;
//! 3. **reconcile** by asking the caller's [`CommitTarget::landed`] probe: a
//!    timed-out transaction may well have landed, and a revert may be the
//!    echo of our own earlier attempt having advanced the tail. A landed
//!    write is adopted, never re-sent;
//! 4. **back off** on the simulated clock (bounded exponential, jittered —
//!    see [`Stage2RetryPolicy`]) and retry;
//! 5. **give up** after `max_attempts` consecutive failures.
//!
//! *Confirmation* is a separate, failure-free wait: `wedge-chain` has no
//! reorgs, so a mined write only gets deeper. Both callers may send their
//! next write as soon as the previous one is mined — the coordinator sends
//! an epoch that is not full behind one in flight only once its shards have
//! stopped flushing (`wedge_cluster::epoch`) — and keep the mined ones in
//! one [`InFlight`] FIFO, taking each out once it is
//! [`ChainConfig::confirmations`] deep: the node records its groups from it
//! — also while a later group waits in `include`, through
//! [`CommitTarget::waiting`] — and the coordinator acknowledges its epochs
//! from it, at most one per `run_epoch` call, waiting for the oldest with
//! [`ChainCommitter::confirm`] when it has nothing new to send. A revert is
//! thus seen as soon as it is mined, and neither caller idles through the
//! confirmation blocks.
//!
//! **When** to send is shared too. A write that is not full gains nothing
//! by going out early: the chain mines it no sooner than its next block.
//! Both callers therefore hold such a write until the last safe moment
//! before that block is due ([`send_slot`]), so it carries everything
//! flushed up to then and still makes the block; [`missed_slot`] tells
//! afterwards whether it did. The node's thread holds its head group, the
//! epoch coordinator holds its epoch between two collections. They differ
//! only once that moment has passed: the node sends at once and may still
//! make the block, the coordinator holds for the following one
//! ([`open_slot`]). Called once per block interval, the coordinator would
//! otherwise now and then land just inside the margin and send a sliver of
//! an epoch right behind the previous one: a `Commit-Epoch` transaction
//! more, and, since a call acknowledges at most one epoch, no position
//! acknowledged sooner.
//!
//! [`ChainConfig::confirmations`]: wedge_chain::ChainConfig::confirmations

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_chain::{BlockNumber, Chain, ChainError, Receipt, TxHash};
use wedge_sim::SimInstant;

use crate::config::Stage2RetryPolicy;

/// How one submission attempt failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Failure {
    /// The transaction never entered the mempool.
    Submission,
    /// The transaction was mined but reverted.
    Revert,
    /// No receipt within the chain's patience window — the transaction may
    /// or may not have landed.
    Timeout,
}

/// Progress notifications, delivered as they happen so callers can keep
/// live counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// Attempt `attempt` (1-based) is about to be submitted.
    Submitting {
        /// The attempt number; `> 1` means a retry.
        attempt: u32,
    },
    /// The attempt failed and the write had not landed.
    Failed(Failure),
    /// Sleeping `delay` of simulated time before attempt `attempt + 1`.
    Backoff {
        /// The attempt that just failed.
        attempt: u32,
        /// The jittered delay.
        delay: Duration,
    },
}

/// One sequential on-chain write the committer must land exactly once.
pub trait CommitTarget {
    /// Builds and submits the transaction. Called once per attempt, so a
    /// target may fold work that arrived during a backoff into the retry.
    fn submit(&mut self) -> Result<TxHash, ChainError>;

    /// Whether the write is already on chain, judged against the
    /// contract's tail — the reconciliation probe after a failed attempt.
    fn landed(&mut self) -> bool;

    /// Progress hook (submission counters, failure triage, backoff
    /// histogram).
    fn observe(&mut self, event: Event);

    /// Called while the engine waits on the chain — between inclusion
    /// polls and after each backoff — so a caller with earlier writes
    /// awaiting confirmation can record them on time. Does nothing by
    /// default.
    fn waiting(&mut self) {}
}

/// A write that is on chain — mined, and confirmed once
/// [`ChainCommitter::confirm`] has returned for it.
#[derive(Clone, Debug)]
pub enum Landed {
    /// The last attempt's own receipt shows it mined successfully.
    Mined(Receipt),
    /// The probe found it on chain after a failed attempt.
    Reconciled {
        /// The successful one among this call's transactions; `None` when
        /// the write landed some other way (before a restart, or through
        /// another submitter).
        receipt: Option<Receipt>,
        /// The head block just after the probe saw the write, so the write
        /// is mined in this block or an earlier one.
        seen_at: BlockNumber,
    },
}

impl Landed {
    /// The transaction that carried the write, when it is known.
    pub fn receipt(&self) -> Option<&Receipt> {
        match self {
            Landed::Mined(receipt) => Some(receipt),
            Landed::Reconciled { receipt, .. } => receipt.as_ref(),
        }
    }

    /// A block the write is mined in or before: its receipt's block, else
    /// the head when the probe saw it. Confirmation counts from here.
    pub fn mined_by(&self) -> BlockNumber {
        match self {
            Landed::Mined(receipt)
            | Landed::Reconciled {
                receipt: Some(receipt),
                ..
            } => receipt.block_number,
            Landed::Reconciled { seen_at, .. } => *seen_at,
        }
    }
}

/// `max_attempts` consecutive attempts failed and the write is not on
/// chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Exhausted;

/// The retry engine: a chain, a policy, and a seeded jitter source.
pub struct ChainCommitter {
    chain: Arc<Chain>,
    policy: Stage2RetryPolicy,
    /// Deterministic across runs.
    rng: SmallRng,
}

impl ChainCommitter {
    /// A committer submitting to `chain` under `policy`.
    pub fn new(chain: Arc<Chain>, policy: Stage2RetryPolicy) -> ChainCommitter {
        ChainCommitter {
            chain,
            policy,
            rng: SmallRng::seed_from_u64(0x5354_4147_4532_5254), // "STAGE2RT"
        }
    }

    /// Lands `target` exactly once — returning as soon as it is mined, not
    /// yet confirmation-deep — or reports exhaustion.
    pub fn include(&mut self, target: &mut impl CommitTarget) -> Result<Landed, Exhausted> {
        let max_attempts = self.policy.max_attempts.max(1);
        // Every transaction this call put in the mempool: when the probe
        // says "landed", one of these usually did it and its receipt holds
        // the gas actually paid.
        let mut sent: Vec<TxHash> = Vec::new();
        for attempt in 1..=max_attempts {
            target.observe(Event::Submitting { attempt });
            let failure = match target.submit() {
                Err(_) => Failure::Submission,
                Ok(tx) => {
                    sent.push(tx);
                    match self.chain.wait_for_inclusion(tx, || target.waiting()) {
                        Ok(receipt) if receipt.status.is_success() => {
                            return Ok(Landed::Mined(receipt));
                        }
                        Ok(_) => Failure::Revert,
                        Err(ChainError::ReceiptTimeout(_)) => Failure::Timeout,
                        Err(_) => Failure::Submission,
                    }
                }
            };
            target.observe(Event::Failed(failure));
            if target.landed() {
                let seen_at = self.chain.block_number();
                let receipt = sent
                    .iter()
                    .rev()
                    .filter_map(|tx| self.chain.receipt(*tx))
                    .find(|receipt| receipt.status.is_success());
                return Ok(Landed::Reconciled { receipt, seen_at });
            }
            if attempt < max_attempts {
                let delay = self.jittered(self.policy.backoff_for(attempt));
                target.observe(Event::Backoff { attempt, delay });
                self.chain.clock().sleep(delay);
                target.waiting();
            }
        }
        Err(Exhausted)
    }

    /// Blocks until `landed` is confirmation-deep. It cannot fail: the
    /// chain has no reorgs, so a mined write only gets deeper. Like every
    /// chain wait it needs a running miner.
    pub fn confirm(&self, landed: &Landed) {
        while !self.chain.is_confirmed(landed.mined_by()) {
            self.chain.clock().sleep(self.chain.config().receipt_poll);
        }
    }

    /// Applies the policy's relative jitter to a backoff duration.
    fn jittered(&mut self, backoff: Duration) -> Duration {
        let jitter = self.policy.jitter.min(0.95);
        if jitter <= 0.0 {
            return backoff;
        }
        let factor = 1.0 + self.rng.gen_range(-jitter..=jitter);
        Duration::from_secs_f64(backoff.as_secs_f64() * factor)
    }
}

/// Writes that are mined but not yet confirmation-deep, oldest first, each
/// with the caller's record of what it carried. A caller sends its next
/// write only once the last one is mined, so the items sit in distinct,
/// rising blocks — chain order — and, with no reorgs, every one of them
/// confirms, in that order.
pub struct InFlight<T> {
    items: VecDeque<(T, Landed)>,
}

impl<T> Default for InFlight<T> {
    fn default() -> InFlight<T> {
        InFlight {
            items: VecDeque::new(),
        }
    }
}

impl<T> InFlight<T> {
    /// Queues a write that has just landed, behind every earlier one.
    pub fn push(&mut self, item: T, landed: Landed) {
        self.items.push_back((item, landed));
    }

    /// Takes the oldest write out once it is confirmation-deep; `None`
    /// while it is not, or when nothing is in flight.
    pub fn pop_confirmed(&mut self, chain: &Chain) -> Option<(T, Landed)> {
        let (_, landed) = self.items.front()?;
        if !chain.is_confirmed(landed.mined_by()) {
            return None;
        }
        self.items.pop_front()
    }

    /// How the oldest write landed — what a caller waits on with
    /// [`ChainCommitter::confirm`].
    pub fn oldest(&self) -> Option<&Landed> {
        self.items.front().map(|(_, landed)| landed)
    }

    /// The writes in flight, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.items.iter().map(|(item, _)| item)
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Wall time allowed between the end of a hold and the held write reaching
/// the mempool: collecting or deriving it, signing, submitting, and the
/// sender's own scheduling.
const SEND_ALLOWANCE: Duration = Duration::from_millis(25);

/// The block a held write aims for, and the last safe moment to send it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SendSlot {
    /// When the chain's next block is due.
    pub due: SimInstant,
    /// When to send: `due` less one receipt poll and `SEND_ALLOWANCE`
    /// of wall time, and no further off than one block interval per block
    /// to wait for.
    pub send_at: SimInstant,
}

/// The slot a write that is not full should be held for, or `None` when it
/// should be sent at once: no miner runs, the clock is manual (its time
/// does not move while a sender waits), or the send moment has already
/// passed — always so on a 2000× clock, where the allowance alone is 50 s
/// of simulated time.
pub fn send_slot(chain: &Chain) -> Option<SendSlot> {
    slot_after(chain, 0)
}

/// The slot of the first block a write that is not full can still make:
/// [`send_slot`]'s, or — once that send moment has passed — the following
/// block's. `None` only where neither block has a slot: no miner, a manual
/// clock, or a 2000× clock.
pub fn open_slot(chain: &Chain) -> Option<SendSlot> {
    send_slot(chain).or_else(|| slot_after(chain, 1))
}

/// The slot of the block `skipped` blocks after the next one, never more
/// than `skipped + 1` block intervals away.
fn slot_after(chain: &Chain, skipped: u32) -> Option<SendSlot> {
    let factor = chain.clock().compression()?;
    let interval = chain.config().block_interval;
    let due = chain.next_block_due()?.add(interval * skipped);
    let now = chain.clock().now();
    let margin = chain.config().receipt_poll + SEND_ALLOWANCE.mul_f64(factor);
    let wait = due
        .since(now)
        .checked_sub(margin)?
        .min(interval * (skipped + 1));
    Some(SendSlot {
        due,
        send_at: now.add(wait),
    })
}

/// Whether a write held for the block due at `due` was mined in a later
/// block: the block before its own was already mined at or after `due`.
pub fn missed_slot(chain: &Chain, due: SimInstant, mined_in: BlockNumber) -> bool {
    mined_in
        .checked_sub(1)
        .and_then(|previous| chain.block(previous))
        .is_some_and(|previous| previous.timestamp >= due.as_secs())
}

#[cfg(test)]
mod tests {
    use wedge_chain::{Address, ChainConfig, MinerHandle, Wei};
    use wedge_contracts::RootRecord;
    use wedge_crypto::hash::Hash32;
    use wedge_crypto::signer::Identity;
    use wedge_sim::Clock;

    use super::*;

    /// `Update-Records(start, roots)` against a real Root Record on the
    /// simulated chain, logging every event the engine reports, every
    /// transaction sent, the head block at every failure, and how often
    /// the engine called `waiting`.
    struct Write {
        chain: Arc<Chain>,
        identity: Identity,
        contract: Address,
        start: u64,
        roots: Vec<Hash32>,
        events: Vec<Event>,
        sent: Vec<TxHash>,
        failed_at: Vec<BlockNumber>,
        waits: u32,
    }

    impl Write {
        /// The write of `roots` right behind this one, on the same contract.
        fn next(&self, roots: Vec<Hash32>) -> Write {
            Write {
                chain: Arc::clone(&self.chain),
                identity: self.identity.clone(),
                contract: self.contract,
                start: self.start + self.roots.len() as u64,
                roots,
                events: Vec::new(),
                sent: Vec::new(),
                failed_at: Vec::new(),
                waits: 0,
            }
        }

        /// How many of the transactions sent were mined successfully.
        fn successes(&self) -> usize {
            self.sent
                .iter()
                .filter_map(|tx| self.chain.receipt(*tx))
                .filter(|receipt| receipt.status.is_success())
                .count()
        }

        fn tail(&self) -> u64 {
            let out = self
                .chain
                .view(self.contract, &RootRecord::get_tail_calldata())
                .unwrap();
            RootRecord::decode_tail(&out).unwrap()
        }
    }

    impl CommitTarget for Write {
        fn submit(&mut self) -> Result<TxHash, ChainError> {
            let tx = self.chain.call_contract(
                self.identity.secret_key(),
                self.contract,
                Wei::ZERO,
                RootRecord::update_records_calldata(self.start, &self.roots),
                wedge_chain::Gas(200_000),
            )?;
            self.sent.push(tx);
            Ok(tx)
        }
        fn landed(&mut self) -> bool {
            self.tail() > self.start
        }
        fn observe(&mut self, event: Event) {
            if matches!(event, Event::Failed(_)) {
                self.failed_at.push(self.chain.block_number());
            }
            self.events.push(event);
        }
        fn waiting(&mut self) {
            self.waits += 1;
        }
    }

    /// The ladder under test: 1 s, 2 s, 4 s … with no jitter, so the
    /// reported delays are exact.
    fn policy(max_attempts: u32) -> Stage2RetryPolicy {
        Stage2RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(30),
            jitter: 0.0,
        }
    }

    fn world(chain_config: ChainConfig, max_attempts: u32) -> (ChainCommitter, Write, MinerHandle) {
        let chain = Chain::new(Clock::compressed(2000.0), chain_config);
        let identity = Identity::from_seed(b"chain-commit-engine");
        chain.fund(identity.address(), Wei::from_eth(100));
        let miner = chain.start_miner();
        let (contract, tx) = chain
            .deploy(
                identity.secret_key(),
                Box::new(RootRecord::new(identity.address())),
                Wei::ZERO,
                RootRecord::CODE_LEN,
            )
            .unwrap();
        chain.wait_for_inclusion(tx, || {}).unwrap();
        let write = Write {
            chain: Arc::clone(&chain),
            identity,
            contract,
            start: 0,
            roots: vec![Hash32([1; 32]), Hash32([2; 32])],
            events: Vec::new(),
            sent: Vec::new(),
            failed_at: Vec::new(),
            waits: 0,
        };
        (
            ChainCommitter::new(chain, policy(max_attempts)),
            write,
            miner,
        )
    }

    fn submitting(attempt: u32) -> Event {
        Event::Submitting { attempt }
    }

    fn backoff(attempt: u32, secs: u64) -> Event {
        Event::Backoff {
            attempt,
            delay: Duration::from_secs(secs),
        }
    }

    #[test]
    fn dropped_submissions_are_retried_up_the_ladder() {
        let (mut committer, mut write, _miner) = world(ChainConfig::default(), 8);
        write.chain.faults().drop_next_submissions(2);
        let landed = committer.include(&mut write).expect("lands on attempt 3");
        committer.confirm(&landed);
        assert!(matches!(landed, Landed::Mined(_)), "{landed:?}");
        assert_eq!(
            write.events,
            vec![
                submitting(1),
                Event::Failed(Failure::Submission),
                backoff(1, 1),
                submitting(2),
                Event::Failed(Failure::Submission),
                backoff(2, 2),
                submitting(3),
            ]
        );
        assert_eq!(write.tail(), 2);
    }

    #[test]
    fn a_mined_revert_is_retried() {
        let (mut committer, mut write, _miner) = world(ChainConfig::default(), 8);
        write.chain.faults().revert_next_calls(1);
        let landed = committer.include(&mut write).expect("lands on attempt 2");
        committer.confirm(&landed);
        let receipt = landed.receipt().expect("confirmed by its own receipt");
        assert!(receipt.status.is_success());
        assert_eq!(
            write.events,
            vec![
                submitting(1),
                Event::Failed(Failure::Revert),
                backoff(1, 1),
                submitting(2),
            ]
        );
        assert_eq!(write.tail(), 2);
    }

    #[test]
    fn a_timed_out_but_landed_write_is_adopted_not_resent() {
        let chain_config = ChainConfig {
            receipt_timeout: Duration::from_secs(60),
            ..ChainConfig::default()
        };
        let (mut committer, mut write, _miner) = world(chain_config, 8);
        write
            .chain
            .faults()
            .delay_next_receipts(1, Duration::from_secs(240));
        let landed = committer.include(&mut write).expect("reconciled");
        committer.confirm(&landed);
        // The probe found it, and the receipt of the one transaction sent is
        // recovered so its gas is accounted for.
        let Landed::Reconciled {
            receipt: Some(receipt),
            ..
        } = landed
        else {
            panic!("expected a reconciled landing with its receipt: {landed:?}");
        };
        assert!(receipt.status.is_success());
        assert_eq!(
            write.events,
            vec![submitting(1), Event::Failed(Failure::Timeout)],
            "exactly one submission, no backoff"
        );
        assert_eq!(write.tail(), 2);
    }

    #[test]
    fn a_write_landed_by_someone_else_is_adopted_without_a_receipt() {
        let (mut committer, mut write, _miner) = world(ChainConfig::default(), 8);
        let first = committer.include(&mut write).expect("first landing");
        committer.confirm(&first);
        write.events.clear();
        // The same write again: the contract's sequential rule reverts the
        // duplicate, and the probe recognises it as already on chain.
        let landed = committer.include(&mut write).expect("already landed");
        committer.confirm(&landed);
        assert!(
            matches!(landed, Landed::Reconciled { receipt: None, .. }),
            "{landed:?}"
        );
        assert_eq!(
            write.events,
            vec![submitting(1), Event::Failed(Failure::Revert)]
        );
        assert_eq!(write.tail(), 2, "landed exactly once");
    }

    #[test]
    fn exhaustion_after_max_attempts_with_no_trailing_backoff() {
        let (mut committer, mut write, _miner) = world(ChainConfig::default(), 3);
        write.chain.faults().drop_next_submissions(1_000);
        assert_eq!(committer.include(&mut write).unwrap_err(), Exhausted);
        assert_eq!(
            write.events,
            vec![
                submitting(1),
                Event::Failed(Failure::Submission),
                backoff(1, 1),
                submitting(2),
                Event::Failed(Failure::Submission),
                backoff(2, 2),
                submitting(3),
                Event::Failed(Failure::Submission),
            ]
        );
        assert_eq!(write.chain.faults().submissions_dropped(), 3);
        assert_eq!(write.tail(), 0);
    }

    /// Three blocks of patience, and confirmation far deeper than that
    /// window: a group the tests below see mined stays unconfirmed for
    /// ~28 more blocks after the slowest of them (a receipt hidden past the
    /// patience window) resolves — 1.4 s of wall time at 100 s blocks
    /// (50 ms each), so that slow debug-build signing on a loaded machine
    /// stays well inside the margin.
    fn deep_chain() -> ChainConfig {
        ChainConfig {
            block_interval: Duration::from_secs(100),
            confirmations: 32,
            receipt_timeout: Duration::from_secs(300),
            ..ChainConfig::default()
        }
    }

    #[test]
    fn inclusion_honours_receipt_delays_and_the_patience_window() {
        let (mut committer, mut write, _miner) = world(deep_chain(), 8);
        let clock = write.chain.clock().clone();
        // Hidden for less than the patience window: the wait sits it out.
        write
            .chain
            .faults()
            .delay_next_receipts(1, Duration::from_secs(150));
        let sent_at = clock.now();
        let landed = committer.include(&mut write).expect("mined");
        assert!(matches!(landed, Landed::Mined(_)), "{landed:?}");
        assert!(clock.now().since(sent_at) >= Duration::from_secs(150));
        assert_eq!(write.events, vec![submitting(1)]);
        assert_eq!(write.chain.faults().receipts_delayed(), 1);
        // The target was handed the time the engine sat waiting.
        assert!(write.waits > 0);
        // Mined, but nowhere near confirmation-deep yet.
        assert!(!write.chain.is_confirmed(landed.mined_by()));
        committer.confirm(&landed);
        assert!(write.chain.is_confirmed(landed.mined_by()));

        // Hidden past it: a timeout, reconciled against the tail — the
        // same outcome as when nothing waits behind it (see
        // `a_timed_out_but_landed_write_is_adopted_not_resent`).
        let mut next = write.next(vec![Hash32([3; 32])]);
        next.chain
            .faults()
            .delay_next_receipts(1, Duration::from_secs(2400));
        let sent_at = clock.now();
        let landed = committer.include(&mut next).expect("reconciled");
        assert!(clock.now().since(sent_at) >= Duration::from_secs(300));
        let Landed::Reconciled {
            receipt: Some(receipt),
            seen_at,
        } = &landed
        else {
            panic!("expected a reconciled landing with its receipt: {landed:?}");
        };
        assert!(receipt.block_number <= *seen_at);
        assert_eq!(landed.mined_by(), receipt.block_number);
        assert_eq!(
            next.events,
            vec![submitting(1), Event::Failed(Failure::Timeout)]
        );
        assert_eq!(next.tail(), 3);
    }

    #[test]
    fn a_revert_is_classified_at_inclusion() {
        let (mut committer, mut write, _miner) = world(deep_chain(), 8);
        write.chain.faults().revert_next_calls(1);
        let landed = committer.include(&mut write).expect("lands on attempt 2");
        assert!(matches!(landed, Landed::Mined(_)), "{landed:?}");
        let reverted = write.chain.receipt(write.sent[0]).expect("mined");
        assert!(!reverted.status.is_success());
        // Seen within a block or two of its mining, not once confirmed.
        assert_eq!(write.failed_at.len(), 1);
        assert!(
            write.failed_at[0] < reverted.block_number + 3,
            "revert in block {} seen at head {}",
            reverted.block_number,
            write.failed_at[0]
        );
    }

    /// Group k is mined and awaits confirmation while group k+1 meets a
    /// dropped submission, a forced revert or a hidden receipt. Only k+1 is
    /// touched, and it gets the failure table's outcome; confirmed in
    /// order, each group lands exactly once.
    #[test]
    fn a_failure_behind_a_mined_group_touches_only_the_head() {
        type Arm = fn(&Chain);
        let cases: [(&str, Arm, Vec<Event>); 3] = [
            (
                "drop",
                |chain| chain.faults().drop_next_submissions(1),
                vec![
                    submitting(1),
                    Event::Failed(Failure::Submission),
                    backoff(1, 1),
                    submitting(2),
                ],
            ),
            (
                "revert",
                |chain| chain.faults().revert_next_calls(1),
                vec![
                    submitting(1),
                    Event::Failed(Failure::Revert),
                    backoff(1, 1),
                    submitting(2),
                ],
            ),
            (
                "hidden receipt",
                |chain| {
                    chain
                        .faults()
                        .delay_next_receipts(1, Duration::from_secs(2400))
                },
                vec![submitting(1), Event::Failed(Failure::Timeout)],
            ),
        ];
        for (what, arm, events) in cases {
            let (mut committer, mut first, _miner) = world(deep_chain(), 8);
            let k = committer.include(&mut first).expect("group k mined");
            let mut second = first.next(vec![Hash32([3; 32])]);
            arm(&second.chain);
            let k1 = committer.include(&mut second).expect("group k+1 lands");
            assert!(
                !second.chain.is_confirmed(k.mined_by()),
                "{what}: k+1 resolved while k awaits confirmation"
            );
            assert_eq!(second.events, events, "{what}");
            assert_eq!(first.events, vec![submitting(1)], "{what}");
            // The FIFO order is the chain's order: k+1 after k.
            assert!(k1.mined_by() > k.mined_by(), "{what}");
            let mut in_flight = InFlight::default();
            in_flight.push("k", k.clone());
            in_flight.push("k+1", k1.clone());
            assert!(in_flight.pop_confirmed(&second.chain).is_none(), "{what}");
            committer.confirm(&k);
            committer.confirm(&k1);
            assert!(second.chain.is_confirmed(k1.mined_by()), "{what}");
            let popped: Vec<&str> = std::iter::from_fn(|| in_flight.pop_confirmed(&second.chain))
                .map(|(item, _)| item)
                .collect();
            assert_eq!(popped, ["k", "k+1"], "{what}: oldest first");
            assert_eq!(second.tail(), 3, "{what}");
            assert_eq!(
                (first.successes(), second.successes()),
                (1, 1),
                "{what}: each group lands exactly once"
            );
        }
    }

    /// A slot is offered only where a hold can still make the block: on a
    /// 100× clock with a running miner, one receipt poll plus 25 ms of wall
    /// time before the block; not without a miner, and not on a 2000×
    /// clock, where that margin outlasts a 13 s block.
    #[test]
    fn a_slot_is_offered_only_where_a_hold_can_make_the_block() {
        let config = ChainConfig {
            block_interval: Duration::from_secs(39),
            receipt_poll: Duration::from_secs(6),
            ..ChainConfig::default()
        };
        let chain = Chain::new(Clock::compressed(100.0), config);
        assert_eq!(send_slot(&chain), None, "no miner runs");
        let _miner = chain.start_miner();
        let asked_at = chain.clock().now();
        let slot = send_slot(&chain).expect("a block is due in 39 s");
        assert_eq!(Some(slot.due), chain.next_block_due());
        // 6 s of poll plus 25 ms × 100.
        assert!(slot.due.since(slot.send_at) >= Duration::from_millis(8_500));
        assert!(slot.send_at.since(asked_at) <= Duration::from_secs(39));
        assert!(!missed_slot(&chain, slot.due, chain.block_number() + 1));

        let fast = Chain::new(Clock::compressed(2000.0), ChainConfig::default());
        let _fast_miner = fast.start_miner();
        assert!(fast.next_block_due().is_some());
        assert_eq!(send_slot(&fast), None, "nothing is held at 2000×");
    }

    #[test]
    fn jitter_stays_within_its_band() {
        let chain = Chain::new(Clock::compressed(2000.0), ChainConfig::default());
        let mut committer = ChainCommitter::new(
            chain,
            Stage2RetryPolicy {
                jitter: 0.2,
                ..policy(8)
            },
        );
        for _ in 0..100 {
            let delay = committer.jittered(Duration::from_secs(10));
            assert!(
                (Duration::from_secs(8)..=Duration::from_secs(12)).contains(&delay),
                "{delay:?}"
            );
        }
    }
}
