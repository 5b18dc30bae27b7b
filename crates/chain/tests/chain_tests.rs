//! End-to-end tests for the simulated chain: funding, transfers, mining,
//! deploys, calls with revert rollback, events, confirmations, and the
//! miner thread on a compressed clock.

use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{
    CallContext, Chain, ChainConfig, ChainError, Contract, ExecStatus, Gas, Revert, Wei,
};
use wedge_crypto::Keypair;
use wedge_sim::Clock;

/// A toy key-value vault used to exercise the contract host.
///
/// Calldata: `[0x01, key, value]` stores; `[0x02, key]` loads;
/// `[0x03]` reverts after attempting a (rolled-back) store;
/// `[0x04, 20-byte addr]` sends 100 wei out; `[0x05]` emits an event.
#[derive(Clone, Default)]
struct Vault {
    slots: std::collections::HashMap<u8, u8>,
}

impl Contract for Vault {
    fn type_name(&self) -> &'static str {
        "Vault"
    }
    fn call(&mut self, ctx: &mut CallContext<'_>, input: &[u8]) -> Result<Vec<u8>, Revert> {
        match input {
            [0x01, key, value] => {
                ctx.charge_storage_set(1)?;
                self.slots.insert(*key, *value);
                Ok(vec![])
            }
            [0x02, key] => {
                ctx.charge_storage_read(1)?;
                Ok(vec![self.slots.get(key).copied().unwrap_or(0)])
            }
            [0x03] => {
                ctx.charge_storage_set(1)?;
                self.slots.insert(0xFF, 0xFF); // must be rolled back
                Err(Revert::new("deliberate failure"))
            }
            [0x04, rest @ ..] if rest.len() == 20 => {
                let mut addr = [0u8; 20];
                addr.copy_from_slice(rest);
                ctx.transfer_out(wedge_chain::Address(addr), Wei(100))?;
                Ok(vec![])
            }
            [0x05] => {
                ctx.emit("Ping", b"pong".to_vec())?;
                Ok(vec![])
            }
            _ => Err(Revert::new("unknown selector")),
        }
    }
    fn clone_box(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }
}

fn setup() -> (Arc<Chain>, Keypair) {
    let chain = Chain::with_defaults(Clock::manual());
    let user = Keypair::from_seed(b"chain-test-user");
    chain.fund(user.address, Wei::from_eth(100));
    (chain, user)
}

#[test]
fn transfer_moves_value_and_charges_fee() {
    let (chain, user) = setup();
    let bob = Keypair::from_seed(b"bob").address;
    let hash = chain.transfer(&user.secret, bob, Wei::from_eth(1)).unwrap();
    assert_eq!(chain.pending_count(), 1);
    chain.mine_block();
    let receipt = chain.receipt(hash).expect("mined");
    assert!(receipt.status.is_success());
    assert_eq!(receipt.gas_used, Gas(21_000));
    assert_eq!(chain.balance(bob), Wei::from_eth(1));
    let expected_fee = Gas(21_000).cost_at(chain.config().gas_price);
    assert_eq!(receipt.fee, expected_fee);
    assert_eq!(
        chain.balance(user.address),
        Wei::from_eth(99).checked_sub(expected_fee).unwrap()
    );
    assert_eq!(chain.total_fees_paid(user.address), expected_fee);
}

#[test]
fn unfunded_sender_rejected_at_submit() {
    let chain = Chain::with_defaults(Clock::manual());
    let poor = Keypair::from_seed(b"poor");
    let err = chain
        .transfer(&poor.secret, Keypair::from_seed(b"x").address, Wei(1))
        .unwrap_err();
    assert!(matches!(err, ChainError::InsufficientBalance { .. }));
}

#[test]
fn nonces_sequence_across_mempool() {
    let (chain, user) = setup();
    let bob = Keypair::from_seed(b"bob2").address;
    // Three transfers in-flight simultaneously must take nonces 0, 1, 2.
    for _ in 0..3 {
        chain.transfer(&user.secret, bob, Wei(10)).unwrap();
    }
    assert_eq!(chain.next_nonce(user.address), 3);
    chain.mine_block();
    assert_eq!(chain.balance(bob), Wei(30));
    assert_eq!(chain.next_nonce(user.address), 3);
}

#[test]
fn deploy_and_call_roundtrip() {
    let (chain, user) = setup();
    let (addr, deploy_hash) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 500)
        .unwrap();
    chain.mine_block();
    let receipt = chain.receipt(deploy_hash).unwrap();
    assert!(receipt.status.is_success());
    assert_eq!(receipt.contract_address, Some(addr));
    assert!(chain.contract_exists(addr));

    let call = chain
        .call_contract(
            &user.secret,
            addr,
            Wei::ZERO,
            vec![0x01, 7, 42],
            Gas(100_000),
        )
        .unwrap();
    chain.mine_block();
    assert!(chain.receipt(call).unwrap().status.is_success());
    // Read back through a view call (free).
    assert_eq!(chain.view(addr, &[0x02, 7]).unwrap(), vec![42]);
    assert_eq!(chain.view(addr, &[0x02, 8]).unwrap(), vec![0]);
}

#[test]
fn revert_rolls_back_contract_state_but_charges_fee() {
    let (chain, user) = setup();
    let (addr, _) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    chain.mine_block();
    let before = chain.balance(user.address);
    let call = chain
        .call_contract(&user.secret, addr, Wei::ZERO, vec![0x03], Gas(100_000))
        .unwrap();
    chain.mine_block();
    let receipt = chain.receipt(call).unwrap();
    assert!(matches!(receipt.status, ExecStatus::Reverted(ref r) if r.contains("deliberate")));
    // Slot 0xFF must not exist (rollback).
    assert_eq!(chain.view(addr, &[0x02, 0xFF]).unwrap(), vec![0]);
    // Fee was still charged.
    assert!(chain.balance(user.address) < before);
    assert_eq!(
        receipt.fee,
        receipt.gas_used.cost_at(chain.config().gas_price)
    );
}

#[test]
fn value_attached_to_reverted_call_is_returned() {
    let (chain, user) = setup();
    let (addr, _) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    chain.mine_block();
    let call = chain
        .call_contract(
            &user.secret,
            addr,
            Wei::from_eth(5),
            vec![0x03],
            Gas(100_000),
        )
        .unwrap();
    chain.mine_block();
    assert!(!chain.receipt(call).unwrap().status.is_success());
    assert_eq!(chain.balance(addr), Wei::ZERO, "endowment rolled back");
}

#[test]
fn contract_can_pay_out_its_balance() {
    let (chain, user) = setup();
    let (addr, _) = chain
        .deploy(
            &user.secret,
            Box::new(Vault::default()),
            Wei::from_eth(1),
            100,
        )
        .unwrap();
    chain.mine_block();
    assert_eq!(chain.balance(addr), Wei::from_eth(1));
    let payee = Keypair::from_seed(b"payee").address;
    let mut data = vec![0x04];
    data.extend_from_slice(&payee.0);
    chain
        .call_contract(&user.secret, addr, Wei::ZERO, data, Gas(100_000))
        .unwrap();
    chain.mine_block();
    assert_eq!(chain.balance(payee), Wei(100));
    assert_eq!(
        chain.balance(addr),
        Wei::from_eth(1).checked_sub(Wei(100)).unwrap()
    );
}

#[test]
fn events_reach_subscribers() {
    let (chain, user) = setup();
    let (addr, _) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    chain.mine_block();
    let events = chain.subscribe_events();
    chain
        .call_contract(&user.secret, addr, Wei::ZERO, vec![0x05], Gas(100_000))
        .unwrap();
    chain.mine_block();
    let log = events.try_recv().expect("event delivered at mining");
    assert_eq!(log.name, "Ping");
    assert_eq!(log.data, b"pong");
    assert_eq!(log.contract, addr);
}

#[test]
fn view_calls_never_persist_or_cost() {
    let (chain, user) = setup();
    let (addr, _) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    chain.mine_block();
    let balance_before = chain.balance(user.address);
    // A view of the store selector would mutate a clone only.
    let _ = chain.view(addr, &[0x01, 1, 1]);
    assert_eq!(chain.view(addr, &[0x02, 1]).unwrap(), vec![0]);
    assert_eq!(chain.balance(user.address), balance_before);
    // Unknown contract.
    assert!(matches!(
        chain.view(wedge_chain::Address([0xAB; 20]), &[]),
        Err(ChainError::UnknownContract(_))
    ));
}

#[test]
fn out_of_gas_reverts() {
    let (chain, user) = setup();
    let (addr, _) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    chain.mine_block();
    // Storage set costs 20k on top of 21k intrinsic; 30k total is too low.
    let call = chain
        .call_contract(&user.secret, addr, Wei::ZERO, vec![0x01, 1, 1], Gas(30_000))
        .unwrap();
    chain.mine_block();
    let receipt = chain.receipt(call).unwrap();
    assert!(matches!(receipt.status, ExecStatus::Reverted(ref r) if r.contains("gas")));
    assert_eq!(chain.view(addr, &[0x02, 1]).unwrap(), vec![0]);
}

#[test]
fn block_timestamps_follow_the_clock() {
    let clock = Clock::manual();
    let chain = Chain::with_defaults(clock.clone());
    clock.advance(Duration::from_secs(100));
    let b1 = chain.mine_block();
    assert_eq!(b1.timestamp, 100);
    clock.advance(Duration::from_secs(13));
    let b2 = chain.mine_block();
    assert_eq!(b2.timestamp, 113);
    assert_eq!(b2.parent, b1.hash);
    assert_eq!(chain.block_number(), 2);
}

#[test]
fn miner_thread_and_confirmations_on_compressed_clock() {
    // 1000x compression: 13 s blocks run every 13 ms of wall time.
    let clock = Clock::compressed(1000.0);
    let config = ChainConfig::default();
    let chain = Chain::new(clock.clone(), config);
    let user = Keypair::from_seed(b"miner-test");
    chain.fund(user.address, Wei::from_eth(10));
    let miner = chain.start_miner();

    let t0 = clock.now();
    let hash = chain
        .transfer(&user.secret, Keypair::from_seed(b"to").address, Wei(5))
        .unwrap();
    let receipt = chain.wait_for_receipt(hash).unwrap();
    let latency = clock.now().since(t0);
    assert!(receipt.status.is_success());
    // Inclusion (≤ 13 s) + 2 confirmations (26 s) ≈ 26–45 simulated seconds.
    assert!(
        latency >= Duration::from_secs(20) && latency <= Duration::from_secs(80),
        "unexpected stage-2-style latency: {latency:?}"
    );
    miner.stop();
}

/// Waits (wall time, bounded) until the chain's head reaches `number`.
fn wait_for_block(chain: &Chain, number: u64) {
    let give_up = std::time::Instant::now() + Duration::from_secs(30);
    while chain.block_number() < number {
        assert!(std::time::Instant::now() < give_up, "no block {number}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn every_miner_handle_shares_one_miner() {
    let clock = Clock::compressed(1000.0);
    let chain = Chain::new(clock.clone(), ChainConfig::default());
    assert_eq!(chain.next_block_due(), None, "no miner yet");
    let first = chain.start_miner();
    let second = chain.start_miner();
    wait_for_block(&chain, 6);
    let due = chain.next_block_due().expect("a miner runs");
    assert!(due.as_secs() >= chain.head().timestamp);
    // One miner sleeps a whole interval before each block; two would mine
    // two blocks per interval, some of them in the same second.
    let blocks = chain.block_range(0, 6);
    for pair in blocks.windows(2) {
        let gap = pair[1].timestamp - pair[0].timestamp;
        assert!(
            gap >= 12,
            "blocks {} and {} are {gap} s apart",
            pair[0].number,
            pair[1].number
        );
    }
    // The miner outlives one of its handles …
    drop(first);
    wait_for_block(&chain, 8);
    // … and stops with the last one.
    second.stop();
    assert_eq!(chain.next_block_due(), None);
    let head = chain.block_number();
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(chain.block_number(), head, "a stopped miner mines nothing");
    // A new handle starts a new miner.
    let _again = chain.start_miner();
    wait_for_block(&chain, head + 1);
}

#[test]
fn inclusion_is_depth_zero_and_confirmation_follows_the_head() {
    let (chain, user) = setup();
    let hash = chain
        .transfer(
            &user.secret,
            Keypair::from_seed(b"inclusion").address,
            Wei(5),
        )
        .unwrap();
    let block = chain.mine_block().number;
    // Mined is enough: the wait returns without a poll (the manual clock
    // never advances, so any sleep would block forever).
    let receipt = chain.wait_for_inclusion(hash, || {}).unwrap();
    assert_eq!(receipt.block_number, block);
    for _ in 0..ChainConfig::default().confirmations {
        assert!(!chain.is_confirmed(block));
        chain.mine_block();
    }
    assert!(chain.is_confirmed(block));
    // Now confirmation-deep, the confirmed wait returns at once too.
    assert_eq!(chain.wait_for_receipt(hash).unwrap().block_number, block);
}

#[test]
fn replay_rejected() {
    let (chain, user) = setup();
    let bob = Keypair::from_seed(b"replay-bob").address;
    let tx = wedge_chain::Transaction {
        nonce: 0,
        to: bob,
        value: Wei(1),
        data: vec![],
        gas_limit: Gas(21_000),
        gas_price: chain.config().gas_price,
        kind: wedge_chain::TxKind::Transfer,
    };
    let signed = tx.sign(&user.secret);
    chain.submit(signed.clone()).unwrap();
    chain.mine_block();
    assert_eq!(chain.balance(bob), Wei(1));
    // Same nonce again: rejected at submit.
    assert!(matches!(
        chain.submit(signed),
        Err(ChainError::NonceTooLow { .. })
    ));
}

#[test]
fn block_gas_limit_defers_overflow_txs() {
    let clock = Clock::manual();
    // The transfer helper reserves a 30k gas limit per tx; two fit in 70k.
    let config = ChainConfig {
        block_gas_limit: Gas(70_000),
        ..Default::default()
    };
    let chain = Chain::new(clock, config);
    let user = Keypair::from_seed(b"full-block");
    chain.fund(user.address, Wei::from_eth(10));
    let bob = Keypair::from_seed(b"bob3").address;
    for _ in 0..3 {
        chain.transfer(&user.secret, bob, Wei(1)).unwrap();
    }
    // Only two 21k transfers fit into a 50k block.
    let b1 = chain.mine_block();
    assert_eq!(b1.tx_hashes.len(), 2);
    let b2 = chain.mine_block();
    assert_eq!(b2.tx_hashes.len(), 1);
    assert_eq!(chain.balance(bob), Wei(3));
}

#[test]
fn filtered_event_subscription_only_sees_its_contract() {
    let (chain, user) = setup();
    let (vault_a, _) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    let (vault_b, _) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    chain.mine_block();
    let only_a = chain.subscribe_contract_events(vault_a);
    let everything = chain.subscribe_events();
    // Ping both contracts.
    chain
        .call_contract(&user.secret, vault_a, Wei::ZERO, vec![0x05], Gas(100_000))
        .unwrap();
    chain
        .call_contract(&user.secret, vault_b, Wei::ZERO, vec![0x05], Gas(100_000))
        .unwrap();
    chain.mine_block();
    // Filtered channel: exactly one event, from vault A.
    let log = only_a.try_recv().unwrap();
    assert_eq!(log.contract, vault_a);
    assert!(only_a.try_recv().is_err(), "no cross-contract leakage");
    // Unfiltered channel: both.
    assert_eq!(everything.try_recv().unwrap().contract, vault_a);
    assert_eq!(everything.try_recv().unwrap().contract, vault_b);
}

#[test]
fn explorer_queries() {
    let (chain, user) = setup();
    let bob = Keypair::from_seed(b"explorer-bob").address;
    chain.transfer(&user.secret, bob, Wei(1)).unwrap();
    chain.transfer(&user.secret, bob, Wei(2)).unwrap();
    chain.mine_block(); // block 1: two txs
    chain.transfer(&user.secret, bob, Wei(3)).unwrap();
    chain.mine_block(); // block 2: one tx
    chain.mine_block(); // block 3: empty

    assert_eq!(chain.head().number, 3);
    assert_eq!(chain.total_transactions(), 3);
    let range = chain.block_range(1, 2);
    assert_eq!(range.len(), 2);
    assert_eq!(range[0].tx_hashes.len(), 2);
    assert_eq!(range[1].tx_hashes.len(), 1);
    // Out-of-range queries clamp instead of panicking.
    assert_eq!(chain.block_range(10, 20).len(), 0);
    let receipts = chain.block_receipts(1);
    assert_eq!(receipts.len(), 2);
    assert!(receipts.iter().all(|r| r.status.is_success()));
    assert!(chain.block_receipts(99).is_empty());
}

#[test]
fn dropped_subscriber_is_pruned() {
    let (chain, user) = setup();
    let (vault, _) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    chain.mine_block();
    {
        let _short_lived = chain.subscribe_events();
        // Receiver dropped here.
    }
    chain
        .call_contract(&user.secret, vault, Wei::ZERO, vec![0x05], Gas(100_000))
        .unwrap();
    // Mining with a dead subscriber must not fail or leak.
    let block = chain.mine_block();
    assert_eq!(block.tx_hashes.len(), 1);
}

#[test]
fn gas_estimation_matches_execution() {
    let (chain, user) = setup();
    let (addr, _) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    chain.mine_block();
    let calldata = vec![0x01, 3, 9];
    let estimate = chain
        .estimate_gas(user.address, addr, Wei::ZERO, &calldata)
        .unwrap();
    // Estimation leaves no trace.
    assert_eq!(chain.view(addr, &[0x02, 3]).unwrap(), vec![0]);
    // Real execution uses exactly the estimated gas.
    let tx = chain
        .call_contract(&user.secret, addr, Wei::ZERO, calldata, estimate)
        .unwrap();
    chain.mine_block();
    let receipt = chain.receipt(tx).unwrap();
    assert!(receipt.status.is_success());
    assert_eq!(receipt.gas_used, estimate);
    // Reverting calls estimate as errors.
    assert!(matches!(
        chain.estimate_gas(user.address, addr, Wei::ZERO, &[0x03]),
        Err(ChainError::Reverted(_))
    ));
    assert!(chain
        .estimate_gas(user.address, wedge_chain::Address([9; 20]), Wei::ZERO, &[])
        .is_err());
}

#[test]
fn deploy_charges_code_deposit_gas() {
    let (chain, user) = setup();
    let (small, tx_small) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 100)
        .unwrap();
    let (large, tx_large) = chain
        .deploy(&user.secret, Box::new(Vault::default()), Wei::ZERO, 3000)
        .unwrap();
    chain.mine_block();
    assert_ne!(small, large);
    let g_small = chain.receipt(tx_small).unwrap().gas_used.0;
    let g_large = chain.receipt(tx_large).unwrap().gas_used.0;
    // 2900 extra bytes × (200 deposit + 16 calldata) = 626,400 extra gas.
    assert_eq!(g_large - g_small, 2900 * 216);
}

#[test]
fn call_to_missing_contract_reverts_with_fee() {
    let (chain, user) = setup();
    let ghost = wedge_chain::Address([0xAA; 20]);
    let tx = chain
        .call_contract(&user.secret, ghost, Wei::ZERO, vec![1, 2, 3], Gas(100_000))
        .unwrap();
    chain.mine_block();
    let receipt = chain.receipt(tx).unwrap();
    assert!(matches!(receipt.status, ExecStatus::Reverted(ref r) if r.contains("no contract")));
    assert!(receipt.fee > Wei::ZERO, "intrinsic gas still charged");
}

#[test]
fn wait_for_receipt_times_out_without_miner() {
    let clock = Clock::manual();
    let config = ChainConfig {
        receipt_timeout: Duration::from_secs(5),
        receipt_poll: Duration::from_secs(1),
        ..Default::default()
    };
    let chain = Chain::new(clock.clone(), config);
    let user = Keypair::from_seed(b"timeout-user");
    chain.fund(user.address, Wei::from_eth(1));
    let hash = chain
        .transfer(&user.secret, Keypair::from_seed(b"x").address, Wei(1))
        .unwrap();
    // Drive the clock from another thread so the poll loop advances.
    let driver = std::thread::spawn({
        let clock = clock.clone();
        move || {
            for _ in 0..10 {
                std::thread::sleep(Duration::from_millis(5));
                clock.advance(Duration::from_secs(1));
            }
        }
    });
    let result = chain.wait_for_receipt(hash);
    driver.join().unwrap();
    assert!(matches!(result, Err(ChainError::ReceiptTimeout(_))));
}

#[test]
fn gas_price_jitter_wobbles_fees_within_bounds() {
    let config = ChainConfig {
        gas_price_jitter: 0.2,
        ..Default::default()
    };
    let chain = Chain::new(Clock::manual(), config);
    let user = Keypair::from_seed(b"jitter");
    chain.fund(user.address, Wei::from_eth(100));
    let bob = Keypair::from_seed(b"jitter-bob").address;
    let base_fee = Gas(21_000).cost_at(wedge_chain::DEFAULT_GAS_PRICE);
    let mut fees = Vec::new();
    for _ in 0..20 {
        let tx = chain.transfer(&user.secret, bob, Wei(1)).unwrap();
        chain.mine_block();
        fees.push(chain.receipt(tx).unwrap().fee);
    }
    // All fees within ±20% of the base; not all identical.
    for fee in &fees {
        let ratio = fee.0 as f64 / base_fee.0 as f64;
        assert!((0.79..=1.21).contains(&ratio), "fee ratio {ratio}");
    }
    assert!(
        fees.windows(2).any(|w| w[0] != w[1]),
        "jitter must vary fees"
    );
    // With jitter off, fees are exact.
    let chain2 = Chain::with_defaults(Clock::manual());
    chain2.fund(user.address, Wei::from_eth(1));
    let tx = chain2.transfer(&user.secret, bob, Wei(1)).unwrap();
    chain2.mine_block();
    assert_eq!(chain2.receipt(tx).unwrap().fee, base_fee);
}
