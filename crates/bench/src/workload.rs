//! Workload generation shared by every experiment.
//!
//! lint: allow-file(panic) — workload setup runs before any measurement; aborting on a malformed world is the correct failure mode for a bench tool

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_core::LocalNode;

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

/// Waits until all of the node's flushed positions are blockchain-committed.
pub fn settle(world: &LocalNode) {
    world
        .node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("stage 2 settled");
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
