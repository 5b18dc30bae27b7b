//! Workload generation and world setup shared by every experiment.
//!
//! lint: allow-file(panic) — workload setup runs before any measurement; aborting on a malformed world is the correct failure mode for a bench tool

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_chain::{Chain, ChainConfig, Wei};
use wedge_core::{deploy_service, NodeConfig, OffchainNode, Publisher, ServiceConfig};
use wedge_crypto::signer::Identity;
use wedge_sim::Clock;

/// Default key size used throughout the paper's workloads (64 B).
pub const KEY_SIZE: usize = 64;
/// Default value size (1024 B); key+value ≈ 1 KB entries.
pub const VALUE_SIZE: usize = 1024;

/// Generates `n` key-value payloads of `key_size + value_size` bytes with
/// pseudo-random content (seeded: runs are reproducible).
pub fn kv_payloads(n: usize, key_size: usize, value_size: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut payload = vec![0u8; key_size + value_size];
            rng.fill(payload.as_mut_slice());
            payload
        })
        .collect()
}

/// A ready-to-measure deployment: chain + miner + contracts + node +
/// publisher.
///
/// Fields drop in declaration order: the publisher and the node first (the
/// node's shutdown completes stage-2 work, which needs blocks), then the
/// miner, and the scratch directory last.
pub struct World {
    /// A funded publisher.
    pub publisher: Publisher,
    /// The node under test.
    pub node: Arc<OffchainNode>,
    /// Keeps blocks flowing; stops on drop.
    pub miner: Option<wedge_chain::MinerHandle>,
    /// The simulated chain.
    pub chain: Arc<Chain>,
    /// Its clock (compressed).
    pub clock: Clock,
    /// Root Record address.
    pub root_record: wedge_chain::Address,
    /// Punishment address.
    pub punishment: wedge_chain::Address,
    /// Scratch directory (cleaned at construction and on drop).
    pub dir: std::path::PathBuf,
    /// Node identity (for restarts / extra roles).
    pub node_identity: Identity,
    _cleanup: RemoveOnDrop,
}

/// Removes a directory tree when dropped.
struct RemoveOnDrop(std::path::PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl World {
    /// Builds a world with the given node configuration. `compression` is
    /// the clock speed-up (1000 ⇒ 13 s blocks every 13 ms).
    pub fn new(tag: &str, node_config: NodeConfig, compression: f64) -> World {
        let clock = Clock::compressed(compression);
        let chain = Chain::new(clock.clone(), ChainConfig::default());
        let node_identity = Identity::from_seed(format!("bench-node-{tag}").as_bytes());
        let client_identity = Identity::from_seed(format!("bench-client-{tag}").as_bytes());
        chain.fund(node_identity.address(), Wei::from_eth(1_000_000));
        chain.fund(client_identity.address(), Wei::from_eth(1_000_000));
        let miner = chain.start_miner();
        let deployment = deploy_service(
            &chain,
            &node_identity,
            client_identity.address(),
            &ServiceConfig {
                escrow: Wei::from_eth(32),
                payment_terms: None,
            },
        )
        .expect("deploy service");
        let dir = std::env::temp_dir().join(format!("wedge-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let node = Arc::new(
            OffchainNode::start(
                node_identity.clone(),
                node_config,
                Arc::clone(&chain),
                deployment.root_record,
                &dir,
            )
            .expect("start node"),
        );
        let publisher = Publisher::new(
            client_identity,
            Arc::clone(&node),
            Arc::clone(&chain),
            deployment.root_record,
            Some(deployment.punishment),
        );
        World {
            chain,
            clock,
            node,
            publisher,
            root_record: deployment.root_record,
            punishment: deployment.punishment,
            miner: Some(miner),
            _cleanup: RemoveOnDrop(dir.clone()),
            dir,
            node_identity,
        }
    }

    /// Waits until all flushed positions are blockchain-committed.
    pub fn settle(&self) {
        self.node
            .wait_stage2_idle(Duration::from_secs(3600))
            .expect("stage 2 settled");
    }
}

/// Experiment scale profile: `quick` finishes the full suite in minutes;
/// `full` approaches the paper's workload sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Reduced workloads (default).
    Quick,
    /// Paper-scale workloads.
    Full,
}

impl Profile {
    /// Picks the paper-scale count or the reduced one.
    pub fn scale(&self, full: usize, quick: usize) -> usize {
        match self {
            Profile::Quick => quick,
            Profile::Full => full,
        }
    }
}
