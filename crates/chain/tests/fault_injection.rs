//! Deterministic fault-injection tests: armed faults fire exactly N times,
//! then the chain heals; counters account for every fired fault.

use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{CallContext, Chain, ChainConfig, ChainError, Contract, Gas, Revert, Wei};
use wedge_crypto::Keypair;
use wedge_sim::Clock;

/// A trivial contract that records how many times it ran.
#[derive(Clone, Default)]
struct Counter {
    calls: u64,
}

impl Contract for Counter {
    fn type_name(&self) -> &'static str {
        "Counter"
    }

    fn call(&mut self, _ctx: &mut CallContext<'_>, input: &[u8]) -> Result<Vec<u8>, Revert> {
        // Empty input is a read-only getter (usable via `view`).
        if !input.is_empty() {
            self.calls += 1;
        }
        Ok(self.calls.to_be_bytes().to_vec())
    }

    fn clone_box(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }
}

fn setup(config: ChainConfig) -> (Arc<Chain>, Keypair, wedge_chain::Address) {
    setup_on(Clock::compressed(2000.0), config)
}

fn setup_on(clock: Clock, config: ChainConfig) -> (Arc<Chain>, Keypair, wedge_chain::Address) {
    let chain = Chain::new(clock, config);
    let key = Keypair::from_seed(b"faults");
    chain.fund(key.address, Wei::from_eth(100));
    let (addr, _) = chain
        .deploy(&key.secret, Box::<Counter>::default(), Wei::ZERO, 100)
        .unwrap();
    chain.mine_block();
    (chain, key, addr)
}

#[test]
fn dropped_submissions_fire_exactly_n_times() {
    let (chain, key, _) = setup(ChainConfig::default());
    let other = Keypair::from_seed(b"faults-other");
    chain.faults().drop_next_submissions(2);
    for _ in 0..2 {
        let err = chain
            .transfer(&key.secret, other.address, Wei(1))
            .unwrap_err();
        assert!(matches!(err, ChainError::SubmissionDropped(_)), "{err}");
    }
    // Fault exhausted: the third submission goes through.
    chain.transfer(&key.secret, other.address, Wei(1)).unwrap();
    assert_eq!(chain.faults().submissions_dropped(), 2);
    assert_eq!(chain.pending_count(), 1, "only the healthy tx enqueued");
}

#[test]
fn forced_reverts_fire_exactly_n_times_and_charge_gas() {
    let (chain, key, addr) = setup(ChainConfig::default());
    chain.faults().revert_next_calls(1);
    let reverted = chain
        .call_contract(&key.secret, addr, Wei::ZERO, vec![1], Gas(100_000))
        .unwrap();
    let healthy = chain
        .call_contract(&key.secret, addr, Wei::ZERO, vec![1], Gas(100_000))
        .unwrap();
    chain.mine_block();
    let r1 = chain.receipt(reverted).unwrap();
    assert!(!r1.status.is_success(), "first call force-reverted");
    assert!(
        r1.gas_used > Gas::ZERO,
        "revert still charges intrinsic gas"
    );
    let r2 = chain.receipt(healthy).unwrap();
    assert!(r2.status.is_success(), "fault exhausted, contract ran");
    assert_eq!(chain.faults().calls_reverted(), 1);
    // The contract itself never executed during the forced revert.
    let out = chain.view(addr, &[]).unwrap();
    assert_eq!(out, 1u64.to_be_bytes().to_vec());
}

#[test]
fn delayed_receipt_hides_a_landed_transaction() {
    let config = ChainConfig {
        // Short patience so the delay manifests as a timeout.
        receipt_timeout: Duration::from_secs(40),
        ..Default::default()
    };
    let (chain, key, addr) = setup(config);
    let miner = chain.start_miner();
    // 60 s hiding window, from the first look at the mined receipt: longer
    // than what is left of one 40 s patience window, so the first wait
    // times out.
    chain
        .faults()
        .delay_next_receipts(1, Duration::from_secs(60));
    let hash = chain
        .call_contract(&key.secret, addr, Wei::ZERO, vec![1], Gas(100_000))
        .unwrap();
    // The transaction lands, but the receipt stays hidden past the
    // timeout: the caller sees congestion, not success.
    let err = chain.wait_for_receipt(hash).unwrap_err();
    assert!(matches!(err, ChainError::ReceiptTimeout(_)), "{err}");
    assert_eq!(chain.faults().receipts_delayed(), 1);
    // Direct receipt lookup proves the transaction actually executed —
    // exactly the partial-progress case a retrying submitter must
    // reconcile instead of re-sending.
    let receipt = chain.receipt(hash).unwrap();
    assert!(receipt.status.is_success());
    // Once the hiding window passes, waiting succeeds again.
    chain.clock().sleep(Duration::from_secs(60));
    let receipt = chain.wait_for_receipt(hash).unwrap();
    assert!(receipt.status.is_success());
    miner.stop();
}

/// Patience runs on the clock, not on the polls asked for: when the clock
/// jumps further than one poll per sleep (a loaded host overrunning its
/// sleeps), the wait still ends at its deadline, and a receipt hidden past
/// that deadline stays hidden even though the clock has overshot the
/// hiding window by the time the waiter looks again.
#[test]
fn a_receipt_hidden_past_the_deadline_times_out_when_the_clock_jumps() {
    let config = ChainConfig {
        receipt_timeout: Duration::from_secs(40),
        ..Default::default()
    };
    let clock = Clock::manual();
    let (chain, key, addr) = setup_on(clock.clone(), config);
    chain
        .faults()
        .delay_next_receipts(1, Duration::from_secs(60));
    let hash = chain
        .call_contract(&key.secret, addr, Wei::ZERO, vec![1], Gas(100_000))
        .unwrap();
    for _ in 0..=chain.config().confirmations {
        chain.mine_block();
    }
    let waiter = {
        let chain = Arc::clone(&chain);
        std::thread::spawn(move || chain.wait_for_receipt(hash))
    };
    // Jumps of 30 s, sixty polls each: the first wake-up is already 30 s
    // in, the second past both the 40 s deadline and the 60 s window.
    while !waiter.is_finished() {
        clock.advance(Duration::from_secs(30));
        std::thread::sleep(Duration::from_millis(5));
    }
    let err = waiter.join().unwrap().unwrap_err();
    assert!(matches!(err, ChainError::ReceiptTimeout(_)), "{err}");
}

#[test]
fn clear_disarms_pending_faults() {
    let (chain, key, _) = setup(ChainConfig::default());
    let other = Keypair::from_seed(b"faults-clear");
    chain.faults().drop_next_submissions(5);
    chain.faults().revert_next_calls(5);
    chain.faults().clear();
    chain.transfer(&key.secret, other.address, Wei(1)).unwrap();
    assert_eq!(chain.faults().submissions_dropped(), 0);
}
