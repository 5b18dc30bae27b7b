//! The one exactly-once chain committer (paper §4.3, lazy stage 2).
//!
//! *Land this write on chain exactly once, eventually* is a single idea,
//! used twice: the node's stage-2 thread lands each group of batch roots in
//! its `RootRecord`, the cluster's epoch coordinator lands each
//! root-of-roots in the `ClusterRoot`. Both contracts write strictly
//! sequentially, so a duplicate reverts and "did it land?" is answered by
//! the contract's tail. [`ChainCommitter::commit`] is the retry ladder both
//! callers share:
//!
//! 1. **submit** the caller's transaction and wait for its confirmed
//!    receipt;
//! 2. **classify** a failure — never reached the mempool, mined but
//!    reverted, or no receipt within the chain's patience window;
//! 3. **reconcile** by asking the caller's [`CommitTarget::landed`] probe: a
//!    timed-out transaction may well have landed, and a revert may be the
//!    echo of our own earlier attempt having advanced the tail. A landed
//!    write is adopted, never re-sent;
//! 4. **back off** on the simulated clock (bounded exponential, jittered —
//!    see [`Stage2RetryPolicy`]) and retry;
//! 5. **give up** after `max_attempts` consecutive failures.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_chain::{Chain, ChainError, Receipt, TxHash};

use crate::config::Stage2RetryPolicy;

/// How one submission attempt failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Failure {
    /// The transaction never entered the mempool.
    Submission,
    /// The transaction was mined but reverted.
    Revert,
    /// No confirmed receipt within the chain's patience window — the
    /// transaction may or may not have landed.
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
}

/// A write that is on chain.
#[derive(Clone, Debug)]
pub enum Landed {
    /// The last attempt's own receipt confirmed it.
    Confirmed(Receipt),
    /// The probe found it on chain after a failed attempt. The receipt is
    /// the successful one among this call's transactions; `None` when the
    /// write landed some other way (before a restart, or through another
    /// submitter).
    Reconciled(Option<Receipt>),
}

impl Landed {
    /// The transaction that carried the write, when it is known.
    pub fn receipt(&self) -> Option<&Receipt> {
        match self {
            Landed::Confirmed(receipt) => Some(receipt),
            Landed::Reconciled(receipt) => receipt.as_ref(),
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

    /// Lands `target` exactly once, or reports exhaustion.
    pub fn commit(&mut self, target: &mut impl CommitTarget) -> Result<Landed, Exhausted> {
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
                    match self.chain.wait_for_receipt(tx) {
                        Ok(receipt) if receipt.status.is_success() => {
                            return Ok(Landed::Confirmed(receipt));
                        }
                        Ok(_) => Failure::Revert,
                        Err(ChainError::ReceiptTimeout(_)) => Failure::Timeout,
                        Err(_) => Failure::Submission,
                    }
                }
            };
            target.observe(Event::Failed(failure));
            if target.landed() {
                let receipt = sent
                    .iter()
                    .rev()
                    .filter_map(|tx| self.chain.receipt(*tx))
                    .find(|receipt| receipt.status.is_success());
                return Ok(Landed::Reconciled(receipt));
            }
            if attempt < max_attempts {
                let delay = self.jittered(self.policy.backoff_for(attempt));
                target.observe(Event::Backoff { attempt, delay });
                self.chain.clock().sleep(delay);
            }
        }
        Err(Exhausted)
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

#[cfg(test)]
mod tests {
    use wedge_chain::{Address, ChainConfig, MinerHandle, Wei};
    use wedge_contracts::RootRecord;
    use wedge_crypto::hash::Hash32;
    use wedge_crypto::signer::Identity;
    use wedge_sim::Clock;

    use super::*;

    /// `Update-Records(start, roots)` against a real Root Record on the
    /// simulated chain, logging every event the engine reports.
    struct Write {
        chain: Arc<Chain>,
        identity: Identity,
        contract: Address,
        start: u64,
        roots: Vec<Hash32>,
        events: Vec<Event>,
    }

    impl Write {
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
            self.chain.call_contract(
                self.identity.secret_key(),
                self.contract,
                Wei::ZERO,
                RootRecord::update_records_calldata(self.start, &self.roots),
                wedge_chain::Gas(200_000),
            )
        }
        fn landed(&mut self) -> bool {
            self.tail() > self.start
        }
        fn observe(&mut self, event: Event) {
            self.events.push(event);
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
        chain.wait_for_receipt(tx).unwrap();
        let write = Write {
            chain: Arc::clone(&chain),
            identity,
            contract,
            start: 0,
            roots: vec![Hash32([1; 32]), Hash32([2; 32])],
            events: Vec::new(),
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
        let landed = committer.commit(&mut write).expect("lands on attempt 3");
        assert!(matches!(landed, Landed::Confirmed(_)), "{landed:?}");
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
        let landed = committer.commit(&mut write).expect("lands on attempt 2");
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
        let landed = committer.commit(&mut write).expect("reconciled");
        // The probe found it, and the receipt of the one transaction sent is
        // recovered so its gas is accounted for.
        let Landed::Reconciled(Some(receipt)) = landed else {
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
        committer.commit(&mut write).expect("first landing");
        write.events.clear();
        // The same write again: the contract's sequential rule reverts the
        // duplicate, and the probe recognises it as already on chain.
        let landed = committer.commit(&mut write).expect("already landed");
        assert!(matches!(landed, Landed::Reconciled(None)), "{landed:?}");
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
        assert_eq!(committer.commit(&mut write).unwrap_err(), Exhausted);
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
