//! Full DApp-logging-as-a-service lifecycle (paper §4.5) through the
//! facade: deploy all three contracts, subscribe, log, bill, settle.

use std::sync::Arc;
use std::time::Duration;

use wedgeblock::chain::{Chain, ChainConfig, Wei};
use wedgeblock::contracts::PaymentTerms;
use wedgeblock::core::{
    deploy_service, service, NodeConfig, OffchainNode, Publisher, ServiceConfig, Subscription,
};
use wedgeblock::crypto::Identity;
use wedgeblock::sim::Clock;
use wedgeblock::storage::ScratchDir;

/// Inline rather than a `LocalNode`: the deployment carries payment terms.
#[test]
fn end_to_end_logging_as_a_service() {
    let clock = Clock::compressed(2000.0);
    let chain = Chain::new(clock.clone(), ChainConfig::default());
    let operator = Identity::from_seed(b"svc-operator");
    let dapp = Identity::from_seed(b"svc-dapp");
    chain.fund(operator.address(), Wei::from_eth(1000));
    chain.fund(dapp.address(), Wei::from_eth(1000));
    let _miner = chain.start_miner();

    // 1. The operator deploys all three contracts.
    let terms = PaymentTerms {
        offchain_address: operator.address(),
        client_address: dapp.address(),
        period: 60,
        payment_per_period: Wei::from_gwei(1000),
        max_overdue_periods: 60,
    };
    let deployment = deploy_service(
        &chain,
        &operator,
        dapp.address(),
        &ServiceConfig {
            escrow: Wei::from_eth(10),
            payment_terms: Some(terms),
        },
    )
    .unwrap();
    let payment = deployment.payment.expect("payment contract deployed");

    // 2. The dapp verifies the setup, deposits, starts the stream.
    assert!(chain.contract_exists(deployment.root_record));
    assert!(chain.contract_exists(deployment.punishment));
    assert_eq!(chain.balance(deployment.punishment), Wei::from_eth(10));
    let subscription = Subscription::new(Arc::clone(&chain), dapp.clone(), payment);
    subscription.deposit_and_start(Wei::from_eth(1)).unwrap();
    let status = subscription.status().unwrap();
    assert!(status.started && !status.terminated);

    // 3. Logging happens (the service being paid for).
    let dir = ScratchDir::new("svc");
    let node = Arc::new(
        OffchainNode::start(
            operator.clone(),
            NodeConfig {
                batch_size: 50,
                batch_linger: Duration::from_millis(5),
                ..Default::default()
            },
            Arc::clone(&chain),
            deployment.root_record,
            &dir,
        )
        .unwrap(),
    );
    let mut publisher = Publisher::new(
        dapp.clone(),
        Arc::clone(&node),
        Arc::clone(&chain),
        deployment.root_record,
        Some(deployment.punishment),
    );
    let outcome = publisher
        .append_batch((0..100).map(|i| format!("svc-{i}").into_bytes()).collect())
        .unwrap();
    node.wait_stage2_idle(Duration::from_secs(600)).unwrap();
    assert_eq!(outcome.responses.len(), 100);

    // 4. Time passes; the operator withdraws earned fees. (On the
    // compressed clock, the real compute above also consumed simulated
    // billing time, so compute the expectation from actual elapsed periods.)
    let start_time = subscription.status().unwrap().payment_start_time;
    clock.sleep(Duration::from_secs(10 * 60)); // at least ten more periods
    let periods_elapsed = (clock.now().as_secs() - start_time) / 60;
    let earned = service::withdraw_earnings(&chain, &operator, payment).unwrap();
    assert!(
        earned >= Wei::from_gwei(1000 * periods_elapsed as u128)
            && earned <= Wei::from_gwei(1000 * (periods_elapsed as u128 + 20)),
        "expected ≈{periods_elapsed} periods of pay, got {earned}"
    );
    assert!(
        earned >= Wei::from_gwei(10_000),
        "at least the 10 slept periods"
    );

    // 5. The dapp tops up and later terminates; everyone is settled.
    subscription.top_up(Wei::from_gwei(5000)).unwrap();
    subscription.update_status().unwrap();
    subscription.terminate().unwrap();
    let status = subscription.status().unwrap();
    assert!(status.terminated);
    assert!(
        status.balance.is_zero(),
        "contract fully drained at settlement"
    );

    // 6. The engagement ended cleanly — the operator reclaims its escrow.
    let tx = chain
        .call_contract(
            dapp.secret_key(),
            deployment.punishment,
            Wei::ZERO,
            wedgeblock::contracts::Punishment::terminate_calldata(),
            wedgeblock::chain::Gas(300_000),
        )
        .unwrap();
    chain.wait_for_receipt(tx).unwrap();
    let before = chain.balance(operator.address());
    let tx = chain
        .call_contract(
            operator.secret_key(),
            deployment.punishment,
            Wei::ZERO,
            wedgeblock::contracts::Punishment::withdraw_calldata(),
            wedgeblock::chain::Gas(300_000),
        )
        .unwrap();
    let receipt = chain.wait_for_receipt(tx).unwrap();
    assert!(receipt.status.is_success());
    let reclaimed = chain
        .balance(operator.address())
        .checked_add(receipt.fee)
        .unwrap()
        .checked_sub(before)
        .unwrap();
    assert_eq!(reclaimed, Wei::from_eth(10));
}
