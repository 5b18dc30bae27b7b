//! Catch a cheater: the punishment flow end-to-end.
//!
//! The Offchain Node is configured to equivocate — it signs honest stage-1
//! responses but blockchain-commits a different digest. The publisher
//! detects the mismatch during stage-2 verification and uses its signed
//! response as evidence to drain the node's escrow through the Punishment
//! contract (paper Definition 3.1, clause 2).
//!
//! Run with: `cargo run --example catch_a_cheater`

use std::sync::Arc;
use std::time::Duration;

use wedgeblock::chain::{Chain, ChainConfig, Wei};
use wedgeblock::contracts::{Punishment, PunishmentStatus};
use wedgeblock::core::{
    deploy_service, EvidenceKind, NodeBehavior, NodeConfig, OffchainNode, Publisher, ServiceConfig,
    Stage2Verdict,
};
use wedgeblock::crypto::Identity;
use wedgeblock::sim::Clock;

fn main() {
    let clock = Clock::compressed(1000.0);
    let chain = Chain::new(clock, ChainConfig::default());
    let _miner = chain.start_miner();

    let node_identity = Identity::from_seed(b"cheating-node");
    let client_identity = Identity::from_seed(b"vigilant-client");
    chain.fund(node_identity.address(), Wei::from_eth(100));
    chain.fund(client_identity.address(), Wei::from_eth(100));

    let escrow = Wei::from_eth(32);
    let deployment = deploy_service(
        &chain,
        &node_identity,
        client_identity.address(),
        &ServiceConfig {
            escrow,
            payment_terms: None,
        },
    )
    .expect("deploy");
    println!("node escrowed {escrow} in the Punishment contract");

    // The node will equivocate on every batch.
    let data_dir = std::env::temp_dir().join("wedgeblock-cheater");
    let _ = std::fs::remove_dir_all(&data_dir);
    let node = Arc::new(
        OffchainNode::start(
            node_identity,
            NodeConfig {
                batch_size: 50,
                behavior: NodeBehavior::CommitWrongRoot { from_log: 0 },
                ..Default::default()
            },
            Arc::clone(&chain),
            deployment.root_record,
            &data_dir,
        )
        .expect("start node"),
    );

    let mut publisher = Publisher::new(
        client_identity,
        Arc::clone(&node),
        Arc::clone(&chain),
        deployment.root_record,
        Some(deployment.punishment),
    );

    // Stage 1 looks perfectly honest — the responses verify.
    let entries: Vec<Vec<u8>> = (0..50)
        .map(|i| format!("asset-transfer-{i}").into_bytes())
        .collect();
    let outcome = publisher.append_batch(entries).expect("append");
    println!(
        "stage 1: {} signed responses, all verified ✓",
        outcome.responses.len()
    );

    // Stage 2 exposes the lie.
    node.wait_stage2_idle(Duration::from_secs(600))
        .expect("stage 2");
    let verdict = publisher
        .verify_blockchain_commit(&outcome.responses[0])
        .expect("verify");
    assert_eq!(
        verdict,
        Stage2Verdict::Punishable(EvidenceKind::RootMismatch)
    );
    println!("stage 2: on-chain digest ≠ signed digest — the node LIED");

    // The signed response is court-admissible evidence.
    let balance_before = chain.balance(publisher.address());
    let receipt = publisher
        .verify_all_and_punish(&outcome.responses)
        .expect("punish")
        .expect("mismatch found");
    assert!(receipt.status.is_success());
    let status = Punishment::decode_status(
        &chain
            .view(deployment.punishment, &Punishment::status_calldata())
            .unwrap(),
    )
    .unwrap();
    assert_eq!(status, PunishmentStatus::Punished);
    let gained = chain
        .balance(publisher.address())
        .checked_add(receipt.fee)
        .unwrap()
        .checked_sub(balance_before)
        .unwrap();
    println!(
        "punishment invoked: escrow of {gained} transferred to the client \
         (all-or-nothing), contract terminated"
    );
    assert_eq!(gained, escrow);
}
