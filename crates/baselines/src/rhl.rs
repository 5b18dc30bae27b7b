//! RHL: rollup-inspired hybrid logging (paper §6.3).
//!
//! Stage 1 mirrors WedgeBlock: the off-chain node batches operations, builds
//! a digest, and returns signed acknowledgements immediately. But to enable
//! fraud proofs, the node must also post the *raw operations* on-chain
//! (costing like OCL), and nothing is final until the challenge window —
//! hours to days — expires.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_chain::{Address, Chain, Gas, Wei};
use wedge_contracts::RhlRollup;
use wedge_core::CoreError;
use wedge_crypto::signer::Identity;
use wedge_merkle::MerkleTree;
use wedge_pool::WorkPool;

use crate::CommitCosts;

/// RHL tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RhlConfig {
    /// Operations per on-chain batch posting.
    pub ops_per_batch: usize,
    /// Challenge window in simulated seconds (rollups: up to days).
    pub challenge_window: u64,
    /// Escrow backing fraud proofs.
    pub escrow: Wei,
}

impl Default for RhlConfig {
    fn default() -> Self {
        RhlConfig {
            ops_per_batch: 20,
            challenge_window: 86_400, // one day
            escrow: Wei::from_eth(5),
        }
    }
}

/// Result of an RHL commit run.
#[derive(Clone, Debug)]
pub struct RhlOutcome {
    /// Cost summary (posting raw ops on-chain).
    pub costs: CommitCosts,
    /// Wall time of stage-1 (digest + signed acks) — RHL's headline
    /// latency, comparable to WedgeBlock's.
    pub stage1_wall: Duration,
    /// Simulated time until all postings confirmed.
    pub posting_latency: Duration,
    /// Simulated time until finality: posting + challenge window.
    pub finality_latency: Duration,
}

impl RhlOutcome {
    /// Stage-1 throughput in MB per (real) second — the number RHL reports
    /// in Table 1.
    pub fn stage1_throughput_mb_s(&self) -> f64 {
        if self.stage1_wall.is_zero() {
            return 0.0;
        }
        self.costs.bytes as f64 / 1e6 / self.stage1_wall.as_secs_f64()
    }
}

/// The RHL system: a posting node and its rollup contract.
pub struct RhlSystem {
    chain: Arc<Chain>,
    poster: Identity,
    contract: Address,
    config: RhlConfig,
}

impl RhlSystem {
    /// Deploys the rollup contract (with escrow) and returns the handle.
    pub fn deploy(
        chain: Arc<Chain>,
        poster: Identity,
        config: RhlConfig,
    ) -> Result<RhlSystem, CoreError> {
        let (contract, tx) = chain.deploy(
            poster.secret_key(),
            Box::new(RhlRollup::new(poster.address(), config.challenge_window)),
            config.escrow,
            RhlRollup::CODE_LEN,
        )?;
        chain.wait_for_receipt(tx)?;
        Ok(RhlSystem {
            chain,
            poster,
            contract,
            config,
        })
    }

    /// The deployed contract address.
    pub fn contract(&self) -> Address {
        self.contract
    }

    /// Appends `payloads`: issues stage-1 acknowledgements (measured in
    /// wall time), posts all operations on-chain, and reports both the
    /// posting latency and the finality horizon.
    ///
    /// Stage 1 performs the same per-operation work a WedgeBlock node does,
    /// so the Table-1 throughput comparison is apples-to-apples: verify the
    /// client's request signature, build the batch tree, and return a
    /// signed per-op acknowledgement carrying the op's inclusion proof.
    pub fn append_and_commit(&self, payloads: &[Vec<u8>]) -> Result<RhlOutcome, CoreError> {
        let clock = self.chain.clock().clone();
        let pool = WorkPool::with_available_parallelism();
        // Clients sign their requests before submission (outside the node's
        // stage-1 timer, as in the WedgeBlock measurements).
        let client = Identity::from_seed(b"rhl-client");
        let numbered: Vec<(u64, Vec<u8>)> = (0..).zip(payloads.iter().cloned()).collect();
        let requests: Vec<wedge_core::AppendRequest> = pool.map(&numbered, |(seq, payload)| {
            wedge_core::AppendRequest::new(client.secret_key(), *seq, payload.clone())
        });

        let stage1_started = Instant::now();
        let mut digests = Vec::new();
        for chunk in requests.chunks(self.config.ops_per_batch.max(1)) {
            // Verify client signatures (parallel), as the honest node must.
            let ok = pool.map(chunk, |req| req.verify().is_ok());
            if ok.iter().any(|v| !v) {
                return Err(CoreError::RequestRejected("bad client signature"));
            }
            let leaves: Vec<Vec<u8>> = chunk.iter().map(|r| r.leaf_bytes()).collect();
            let tree = MerkleTree::from_leaves(&leaves)
                .map_err(|_| CoreError::RequestRejected("empty RHL batch"))?;
            let key = *self.poster.secret_key();
            let acks = pool.map(&(0..chunk.len()).collect::<Vec<_>>(), |&i| {
                // lint: allow(panic) — `i < chunk.len()` == the tree's leaf count, so the proof index is in range by construction
                let proof = tree.prove(i).expect("in range");
                wedge_crypto::sign_message(&key, &proof.to_bytes())
            });
            std::hint::black_box(&acks);
            digests.push(tree.root());
        }
        let stage1_wall = stage1_started.elapsed();

        // Post operations + digests on-chain.
        let posting_started = clock.now();
        let mut costs = CommitCosts {
            bytes: payloads.iter().map(|p| p.len() as u64).sum(),
            operations: payloads.len() as u64,
            fees: Wei::ZERO,
        };
        let mut pending = Vec::new();
        for (chunk, digest) in payloads
            .chunks(self.config.ops_per_batch.max(1))
            .zip(&digests)
        {
            let calldata = RhlRollup::submit_calldata(chunk, digest);
            let words: u64 = chunk.iter().map(|e| e.len().div_ceil(32) as u64).sum();
            let gas_limit = Gas(120_000 + 30 * calldata.len() as u64 + 21_000 * words);
            let hash = self.chain.call_contract(
                self.poster.secret_key(),
                self.contract,
                Wei::ZERO,
                calldata,
                gas_limit,
            )?;
            pending.push(hash);
        }
        for hash in pending {
            let receipt = self.chain.wait_for_receipt(hash)?;
            if !receipt.status.is_success() {
                return Err(CoreError::RequestRejected("RHL posting reverted"));
            }
            // lint: allow(panic) — u128 fee accumulator cannot overflow before the simulated chain runs out of Wei; aborting the experiment is correct if it somehow does
            costs.fees = costs.fees.checked_add(receipt.fee).expect("fee overflow");
        }
        let posting_latency = clock.now().since(posting_started);
        Ok(RhlOutcome {
            costs,
            stage1_wall,
            posting_latency,
            finality_latency: posting_latency + Duration::from_secs(self.config.challenge_window),
        })
    }
}
