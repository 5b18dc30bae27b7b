//! Platform multi-tenancy: several independent Offchain Nodes (separate
//! operators, separate contract suites) share one chain without
//! interference — including isolated punishments.

use std::sync::Arc;
use std::time::Duration;

use wedgeblock::chain::{Chain, ChainConfig, Wei};
use wedgeblock::contracts::{Punishment, PunishmentStatus};
use wedgeblock::core::{LocalNode, NodeBehavior, NodeConfig, Stage2Verdict};
use wedgeblock::sim::Clock;

fn tenant(chain: &Arc<Chain>, tag: &str, behavior: NodeBehavior) -> LocalNode {
    let config = NodeConfig {
        batch_size: 20,
        batch_linger: Duration::from_millis(5),
        behavior,
        ..Default::default()
    };
    LocalNode::start_on(chain, &format!("tenant-{tag}"), config).unwrap()
}

#[test]
fn tenants_share_the_chain_without_interference() {
    // One chain; each tenant brings its own miner, so blocks come more
    // often than on a single-node chain.
    let chain = Chain::new(Clock::compressed(2000.0), ChainConfig::default());

    // Three tenants: two honest, one equivocating.
    let honest_a = tenant(&chain, "a", NodeBehavior::Honest);
    let honest_b = tenant(&chain, "b", NodeBehavior::Honest);
    let evil = tenant(
        &chain,
        "evil",
        NodeBehavior::CommitWrongRoot { from_log: 0 },
    );
    let (mut publisher_a, mut publisher_b, mut publisher_evil) =
        (honest_a.publisher(), honest_b.publisher(), evil.publisher());

    let data = |tag: &str| -> Vec<Vec<u8>> {
        (0..20).map(|i| format!("{tag}-{i}").into_bytes()).collect()
    };
    let out_a = publisher_a.append_batch(data("a")).unwrap();
    let out_b = publisher_b.append_batch(data("b")).unwrap();
    let out_evil = publisher_evil.append_batch(data("evil")).unwrap();

    honest_a
        .node()
        .wait_stage2_idle(Duration::from_secs(600))
        .unwrap();
    honest_b
        .node()
        .wait_stage2_idle(Duration::from_secs(600))
        .unwrap();
    evil.node()
        .wait_stage2_idle(Duration::from_secs(600))
        .unwrap();

    // Each tenant's log ids start at 0 on its own Root Record — identical
    // indices, different contracts, no collisions.
    assert_eq!(out_a.responses[0].entry_id.log_id, 0);
    assert_eq!(out_b.responses[0].entry_id.log_id, 0);
    assert_eq!(
        publisher_a
            .verify_blockchain_commit(&out_a.responses[0])
            .unwrap(),
        Stage2Verdict::Committed
    );
    assert_eq!(
        publisher_b
            .verify_blockchain_commit(&out_b.responses[0])
            .unwrap(),
        Stage2Verdict::Committed
    );

    // Only the cheating tenant's escrow is touched.
    let receipt = publisher_evil
        .verify_all_and_punish(&out_evil.responses)
        .unwrap()
        .expect("evil tenant punished");
    assert!(receipt.status.is_success());
    assert_eq!(chain.balance(evil.punishment), Wei::ZERO);
    assert_eq!(chain.balance(honest_a.punishment), LocalNode::ESCROW);
    assert_eq!(chain.balance(honest_b.punishment), LocalNode::ESCROW);
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
    let client_b = &honest_b.client_identity;
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
    assert_eq!(chain.balance(honest_b.punishment), LocalNode::ESCROW);
}
