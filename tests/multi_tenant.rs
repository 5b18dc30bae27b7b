//! Platform multi-tenancy: several independent Offchain Nodes (separate
//! operators, separate contract suites) share one chain without
//! interference — including isolated punishments.

use std::sync::Arc;
use std::time::Duration;

use wedgeblock::chain::{Chain, ChainConfig, Wei};
use wedgeblock::contracts::{Punishment, PunishmentStatus};
use wedgeblock::core::{
    deploy_service, NodeBehavior, NodeConfig, OffchainNode, Publisher, ServiceConfig, Stage2Verdict,
};
use wedgeblock::crypto::Identity;
use wedgeblock::sim::Clock;

struct Tenant {
    node: Arc<OffchainNode>,
    publisher: Publisher,
    punishment: wedgeblock::chain::Address,
}

fn tenant(chain: &Arc<Chain>, tag: &str, behavior: NodeBehavior) -> Tenant {
    let node_id = Identity::from_seed(format!("tenant-node-{tag}").as_bytes());
    let client_id = Identity::from_seed(format!("tenant-client-{tag}").as_bytes());
    chain.fund(node_id.address(), Wei::from_eth(1000));
    chain.fund(client_id.address(), Wei::from_eth(1000));
    let deployment = deploy_service(
        chain,
        &node_id,
        client_id.address(),
        &ServiceConfig {
            escrow: Wei::from_eth(4),
            payment_terms: None,
        },
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("wedge-tenant-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let node = Arc::new(
        OffchainNode::start(
            node_id,
            NodeConfig {
                batch_size: 20,
                batch_linger: Duration::from_millis(5),
                behavior,
                ..Default::default()
            },
            Arc::clone(chain),
            deployment.root_record,
            &dir,
        )
        .unwrap(),
    );
    let publisher = Publisher::new(
        client_id,
        Arc::clone(&node),
        Arc::clone(chain),
        deployment.root_record,
        Some(deployment.punishment),
    );
    Tenant {
        node,
        publisher,
        punishment: deployment.punishment,
    }
}

#[test]
fn tenants_share_the_chain_without_interference() {
    let clock = Clock::compressed(2000.0);
    let chain = Chain::new(clock, ChainConfig::default());
    let _miner = chain.start_miner();

    // Three tenants: two honest, one equivocating.
    let mut honest_a = tenant(&chain, "a", NodeBehavior::Honest);
    let mut honest_b = tenant(&chain, "b", NodeBehavior::Honest);
    let mut evil = tenant(
        &chain,
        "evil",
        NodeBehavior::CommitWrongRoot { from_log: 0 },
    );

    let data = |tag: &str| -> Vec<Vec<u8>> {
        (0..20).map(|i| format!("{tag}-{i}").into_bytes()).collect()
    };
    let out_a = honest_a.publisher.append_batch(data("a")).unwrap();
    let out_b = honest_b.publisher.append_batch(data("b")).unwrap();
    let out_evil = evil.publisher.append_batch(data("evil")).unwrap();

    honest_a
        .node
        .wait_stage2_idle(Duration::from_secs(600))
        .unwrap();
    honest_b
        .node
        .wait_stage2_idle(Duration::from_secs(600))
        .unwrap();
    evil.node
        .wait_stage2_idle(Duration::from_secs(600))
        .unwrap();

    // Each tenant's log ids start at 0 on its own Root Record — identical
    // indices, different contracts, no collisions.
    assert_eq!(out_a.responses[0].entry_id.log_id, 0);
    assert_eq!(out_b.responses[0].entry_id.log_id, 0);
    assert_eq!(
        honest_a
            .publisher
            .verify_blockchain_commit(&out_a.responses[0])
            .unwrap(),
        Stage2Verdict::Committed
    );
    assert_eq!(
        honest_b
            .publisher
            .verify_blockchain_commit(&out_b.responses[0])
            .unwrap(),
        Stage2Verdict::Committed
    );

    // Only the cheating tenant's escrow is touched.
    let receipt = evil
        .publisher
        .verify_all_and_punish(&out_evil.responses)
        .unwrap()
        .expect("evil tenant punished");
    assert!(receipt.status.is_success());
    assert_eq!(chain.balance(evil.punishment), Wei::ZERO);
    assert_eq!(chain.balance(honest_a.punishment), Wei::from_eth(4));
    assert_eq!(chain.balance(honest_b.punishment), Wei::from_eth(4));
    let status = |addr| {
        Punishment::decode_status(&chain.view(addr, &Punishment::status_calldata()).unwrap())
            .unwrap()
    };
    assert_eq!(status(evil.punishment), PunishmentStatus::Punished);
    assert_eq!(status(honest_a.punishment), PunishmentStatus::Active);
    assert_eq!(status(honest_b.punishment), PunishmentStatus::Active);

    // Cross-tenant evidence is worthless: an honest tenant's response
    // cannot drain another tenant's escrow (different offchain_address).
    let cross = Punishment::invoke_calldata(
        out_a.responses[0].entry_id.log_id,
        &out_a.responses[0].merkle_root,
        &out_a.responses[0].proof.to_bytes(),
        &out_a.responses[0].leaf,
        &out_a.responses[0].signature,
        &out_a.responses[0].attestation.to_bytes(),
    );
    let client_b = Identity::from_seed(b"tenant-client-b");
    let tx = chain
        .call_contract(
            client_b.secret_key(),
            honest_b.punishment,
            Wei::ZERO,
            cross,
            wedgeblock::chain::Gas(5_000_000),
        )
        .unwrap();
    let receipt = chain.wait_for_receipt(tx).unwrap();
    assert!(
        !receipt.status.is_success(),
        "cross-tenant evidence rejected"
    );
    assert_eq!(chain.balance(honest_b.punishment), Wei::from_eth(4));
}
