//! Use case 1 (paper §2.3): a decentralized IoT data marketplace.
//!
//! Multiple IoT publishers stream readings to a third-party Offchain Node;
//! consumers read verified data back; the node is compensated through the
//! Payment contract's subscription stream (DApp-logging-as-a-service).
//!
//! Run with: `cargo run --example iot_marketplace`

use std::sync::Arc;
use std::time::Duration;

use wedgeblock::chain::{Chain, ChainConfig, Wei};
use wedgeblock::contracts::PaymentTerms;
use wedgeblock::core::{
    deploy_service, service, NodeConfig, OffchainNode, Publisher, Reader, ServiceConfig,
    Subscription,
};
use wedgeblock::crypto::Identity;
use wedgeblock::sim::Clock;

fn main() {
    let clock = Clock::compressed(1000.0);
    let chain = Chain::new(clock.clone(), ChainConfig::default());
    let _miner = chain.start_miner();

    // The marketplace operator (Offchain Node) and a shared publisher
    // cohort address that pays for the service.
    let operator = Identity::from_seed(b"iot-marketplace-operator");
    let cohort = Identity::from_seed(b"iot-publisher-cohort");
    chain.fund(operator.address(), Wei::from_eth(1000));
    chain.fund(cohort.address(), Wei::from_eth(1000));

    // Full service deployment: Root Record + Punishment + Payment.
    // Terms: 0.001 ETH per 3600-second period, 24 overdue periods allowed.
    let terms = PaymentTerms {
        offchain_address: operator.address(),
        client_address: cohort.address(),
        period: 3600,
        payment_per_period: Wei::from_eth_f64(0.001),
        max_overdue_periods: 24,
    };
    let deployment = deploy_service(
        &chain,
        &operator,
        cohort.address(),
        &ServiceConfig {
            escrow: Wei::from_eth(50),
            payment_terms: Some(terms),
        },
    )
    .expect("deploy service");
    let payment = deployment.payment.expect("payment contract");
    println!("marketplace contracts deployed; payment at {payment}");

    // Cohort subscribes: deposit one ETH (1000 hours of service) and start.
    let subscription = Subscription::new(Arc::clone(&chain), cohort.clone(), payment);
    subscription
        .deposit_and_start(Wei::from_eth(1))
        .expect("start subscription");
    println!("subscription started: 0.001 ETH/hour streaming to the operator");

    let data_dir = std::env::temp_dir().join("wedgeblock-iot");
    let _ = std::fs::remove_dir_all(&data_dir);
    let node = Arc::new(
        OffchainNode::start(
            operator.clone(),
            NodeConfig {
                batch_size: 200,
                ..Default::default()
            },
            Arc::clone(&chain),
            deployment.root_record,
            &data_dir,
        )
        .expect("start node"),
    );

    // Three IoT sensors publish concurrently through the shared cohort key
    // (the paper: "If there are multiple Publishers, they can set up a
    // shared address") — but each signs with its own device identity.
    let mut total = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for sensor in ["thermostat", "air-quality", "power-meter"] {
            let node = Arc::clone(&node);
            let chain = Arc::clone(&chain);
            let root_record = deployment.root_record;
            handles.push(scope.spawn(move || {
                let device = Identity::from_seed(sensor.as_bytes());
                let mut publisher = Publisher::new(device, node, chain, root_record, None);
                let readings: Vec<Vec<u8>> = (0..300)
                    .map(|i| format!("{sensor}: sample {i} = {}", i * 7 % 100).into_bytes())
                    .collect();
                let outcome = publisher.append_batch(readings).expect("publish");
                (sensor, outcome.responses.len(), outcome.stage1_commit)
            }));
        }
        for handle in handles {
            let (sensor, count, latency) = handle.join().unwrap();
            println!("{sensor}: {count} readings off-chain-committed in {latency:?}");
            total += count;
        }
    });
    println!("marketplace ingested {total} readings across 3 devices");

    node.wait_stage2_idle(Duration::from_secs(600))
        .expect("stage 2");
    println!(
        "stage-2: {} log positions anchored on-chain for {}",
        node.stats().stage2_committed,
        node.stats().stage2_fees,
    );

    // A consumer fetches a verified reading from the power meter.
    let reader = Reader::new(
        Arc::clone(&node),
        Arc::clone(&chain),
        deployment.root_record,
    );
    let meter = Identity::from_seed(b"power-meter");
    let entry = reader
        .read_by_sequence(meter.address(), 123)
        .expect("consumer read");
    println!(
        "consumer verified reading: {:?} [{:?}]",
        String::from_utf8_lossy(&entry.request.payload),
        entry.phase
    );

    // Service billing: 10 hours pass; the operator withdraws earnings.
    clock.sleep(Duration::from_secs(10 * 3600));
    let earned = service::withdraw_earnings(&chain, &operator, payment).expect("withdraw");
    println!("operator withdrew {earned} for ~10 hours of service");
    let status = subscription.status().expect("status");
    println!(
        "subscription: {} unreserved deposit remaining",
        status.balance.saturating_sub(status.reserved_for_edge)
    );
}
