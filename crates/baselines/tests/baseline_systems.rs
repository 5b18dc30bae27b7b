//! System-level tests for the three baselines, including the Table-1
//! ordering sanity checks (who should win on what).

use std::sync::Arc;
use std::time::Duration;

use wedge_baselines::{OclConfig, OclSystem, RhlConfig, RhlSystem, SoclSystem};
use wedge_chain::{Chain, ChainConfig, Wei};
use wedge_core::{LocalNode, NodeConfig};
use wedge_crypto::signer::Identity;
use wedge_sim::Clock;

fn chain_with_miner(tag: &str) -> (Arc<Chain>, Identity, wedge_chain::MinerHandle) {
    let clock = Clock::compressed(2000.0);
    let chain = Chain::new(clock, ChainConfig::default());
    let id = Identity::from_seed(format!("baseline-{tag}").as_bytes());
    chain.fund(id.address(), Wei::from_eth(1_000_000));
    let miner = chain.start_miner();
    (chain, id, miner)
}

fn payloads(n: usize, size: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut p = format!("op-{i}-").into_bytes();
            p.resize(size, 0x5A);
            p
        })
        .collect()
}

#[test]
fn ocl_commits_and_charges_heavily() {
    let (chain, id, _miner) = chain_with_miner("ocl");
    let ocl = OclSystem::deploy(Arc::clone(&chain), id, OclConfig::default()).unwrap();
    let data = payloads(40, 1024);
    let outcome = ocl.append_and_commit(&data).unwrap();
    assert_eq!(outcome.costs.operations, 40);
    assert!(outcome.costs.fees > Wei::ZERO);
    assert!(
        outcome.commit_latency >= Duration::from_secs(13),
        "must span blocks"
    );
    // Entries are really on-chain.
    assert_eq!(ocl.read(7).unwrap(), data[7]);
    // ~700k gas/KB at 100 gwei ≈ 0.07 ETH per op: enormous.
    assert!(outcome.costs.cost_per_op() > Wei::from_eth_f64(0.01));
}

#[test]
fn socl_commit_waits_for_chain_but_costs_like_wedgeblock() {
    let config = NodeConfig {
        batch_size: 50,
        batch_linger: Duration::from_millis(5),
        ..Default::default()
    };
    let w = LocalNode::start("socl", config).unwrap();
    let mut socl = SoclSystem::new(
        Arc::clone(&w.chain),
        Arc::clone(w.node()),
        w.client_identity.clone(),
        w.root_record,
    );
    let outcome = socl.append_and_commit(payloads(100, 1024)).unwrap();
    assert_eq!(outcome.costs.operations, 100);
    // Synchronous trust: latency spans inclusion + confirmations.
    assert!(outcome.commit_latency >= Duration::from_secs(20));
    // Cost is digest-only: orders cheaper than OCL per op.
    assert!(outcome.costs.cost_per_op() < Wei::from_eth_f64(0.001));
    assert!(outcome.stage1_wall < Duration::from_secs(5));
}

#[test]
fn rhl_fast_stage1_but_ocl_like_cost_and_day_long_finality() {
    let (chain, id, _miner) = chain_with_miner("rhl");
    let rhl = RhlSystem::deploy(Arc::clone(&chain), id, RhlConfig::default()).unwrap();
    let outcome = rhl.append_and_commit(&payloads(40, 1024)).unwrap();
    assert_eq!(outcome.costs.operations, 40);
    // Stage 1 is compute-only: sub-second for 40 ops.
    assert!(outcome.stage1_wall < Duration::from_secs(2));
    // But cost per op is OCL-like (raw ops on-chain)...
    assert!(outcome.costs.cost_per_op() > Wei::from_eth_f64(0.01));
    // ...and finality waits out the challenge window.
    assert!(outcome.finality_latency >= Duration::from_secs(86_400));
}

#[test]
fn table1_orderings_hold() {
    // The qualitative Table-1 claims, in one test: cost(WB/SOCL) ≪
    // cost(OCL/RHL); stage-1 latency (WB/RHL) ≪ commit latency (OCL/SOCL).
    // The WedgeBlock node's deployment brings the chain and its miner.
    let config = NodeConfig {
        batch_size: 40,
        batch_linger: Duration::from_millis(5),
        ..Default::default()
    };
    let w = LocalNode::start("t1", config).unwrap();
    let chain = Arc::clone(&w.chain);
    let id = Identity::from_seed(b"baseline-t1");
    chain.fund(id.address(), Wei::from_eth(1_000_000));
    let data = payloads(40, 1024);

    let ocl = OclSystem::deploy(Arc::clone(&chain), id.clone(), OclConfig::default()).unwrap();
    let ocl_out = ocl.append_and_commit(&data).unwrap();

    let rhl_id = Identity::from_seed(b"t1-rhl");
    chain.fund(rhl_id.address(), Wei::from_eth(1_000_000));
    let rhl = RhlSystem::deploy(Arc::clone(&chain), rhl_id, RhlConfig::default()).unwrap();
    let rhl_out = rhl.append_and_commit(&data).unwrap();

    let mut socl = SoclSystem::new(
        chain,
        Arc::clone(w.node()),
        w.client_identity.clone(),
        w.root_record,
    );
    let socl_out = socl.append_and_commit(data).unwrap();

    // Cost ordering (per op).
    let wb_socl_cost = socl_out.costs.cost_per_op().0 as f64;
    let ocl_cost = ocl_out.costs.cost_per_op().0 as f64;
    let rhl_cost = rhl_out.costs.cost_per_op().0 as f64;
    assert!(
        ocl_cost / wb_socl_cost > 50.0,
        "OCL {ocl_cost} vs WB/SOCL {wb_socl_cost}"
    );
    assert!(
        rhl_cost / wb_socl_cost > 50.0,
        "RHL {rhl_cost} vs WB/SOCL {wb_socl_cost}"
    );

    // Latency ordering: stage-1 (real, sub-second) vs chain commit (tens of
    // simulated seconds).
    assert!(rhl_out.stage1_wall < Duration::from_secs(2));
    assert!(socl_out.stage1_wall < Duration::from_secs(5));
    assert!(ocl_out.commit_latency >= Duration::from_secs(13));
    assert!(socl_out.commit_latency >= Duration::from_secs(13));
}
