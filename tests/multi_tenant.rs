//! Platform multi-tenancy: several independent Offchain Nodes (separate
//! operators, separate contract suites) share one chain without
//! interference — including isolated punishments.

use std::sync::Arc;
use std::time::Duration;

use wedgeblock::chain::{Chain, ChainConfig, Wei};
use wedgeblock::contracts::{Punishment, PunishmentStatus};
use wedgeblock::core::{LocalNode, NodeBehavior, NodeConfig};
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
    let audit = |tenant: &LocalNode, replies, punishments| {
        let mut t = tenant.transcript();
        (t.replies, t.punishments) = (replies, punishments);
        tenant.audit(&mut t).unwrap()
    };

    // Only the cheating tenant's escrow is touched.
    let receipt = publisher_evil
        .verify_all_and_punish(&out_evil.responses)
        .unwrap()
        .expect("evil tenant punished");
    let evidence = (out_evil.responses[0].clone(), receipt.tx_hash);
    let verdict = audit(&evil, out_evil.responses, vec![evidence]);
    assert!(verdict.is_settled() && verdict.payouts == 1, "{verdict:?}");
    assert_eq!(chain.balance(evil.punishment), Wei::ZERO);
    let status = |addr| {
        Punishment::decode_status(&chain.view(addr, &Punishment::status_calldata()).unwrap())
            .unwrap()
    };
    assert_eq!(status(evil.punishment), PunishmentStatus::Punished);

    // Cross-tenant evidence is worthless: an honest tenant's response
    // cannot drain another tenant's escrow (different offchain_address).
    let tx = publisher_b.punish(&out_a.responses[0]).unwrap().tx_hash;
    let cross = (out_a.responses[0].clone(), tx);
    for (tenant, replies, punishments) in [
        (&honest_a, out_a.responses, vec![]),
        (&honest_b, out_b.responses, vec![cross]),
    ] {
        let verdict = audit(tenant, replies, punishments);
        assert!(verdict.is_settled() && verdict.payouts == 0, "{verdict:?}");
        assert_eq!(chain.balance(tenant.punishment), LocalNode::ESCROW);
        assert_eq!(status(tenant.punishment), PunishmentStatus::Active);
    }
}
