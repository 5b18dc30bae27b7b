//! The epoch coordinator: one root-of-roots transaction per epoch.
//!
//! Each epoch the coordinator
//!
//! 1. **collects** every shard's pending batch-root group
//!    (`epoch_report`) — an unreachable shard simply contributes an empty
//!    group this epoch and re-reports the same positions next time (the
//!    shard side is stateless, see `wedge_core::node` epoch docs). When
//!    every shard is empty the call returns at once;
//! 2. **holds** the epoch, unless a shard already reports a full group,
//!    until the send moment of the chain's next block — the one hold the
//!    single node's stage 2 uses ([`send_slot`]) — and then collects again,
//!    so whatever flushed during the hold rides along and the epoch still
//!    makes that block;
//! 3. **folds** each shard's roots into a shard epoch root, and the N
//!    shard roots into the cluster root-of-roots — the exact fold the
//!    [`ClusterRoot`] contract recomputes on-chain from calldata;
//! 4. **lands** one `Commit-Epoch` transaction through the same
//!    [`ChainCommitter`] retry engine the single node's stage 2 uses, with
//!    the contract's `tail_epoch` as the "did it land?" probe: a receipt
//!    timeout does not mean the transaction missed, and the contract's
//!    sequential single-write rule turns any duplicate into a revert —
//!    each epoch lands **exactly once**;
//! 5. **acknowledges** the covered groups (`epoch_commit`); a lost ack is
//!    harmless (the shard re-reports, the stale-epoch guard rejects
//!    out-of-order acks — `wedge-check`'s epoch model exercises why).
//!
//! The coordinator keeps an [`EpochRecord`] per committed epoch and serves
//! [`ClusterProof`]s from it: entry → shard root → on-chain cluster root.

use std::sync::Arc;

use wedge_chain::{Address, Chain, ChainError, Gas, TxHash, Wei};
use wedge_contracts::ClusterRoot;
use wedge_core::chain_commit::{
    missed_slot, send_slot, ChainCommitter, CommitTarget, Event, Landed,
};
use wedge_core::{CoreError, EntryId, EpochCommit, ShardGroup, Stage2RetryPolicy};
use wedge_crypto::hash::Hash32;
use wedge_crypto::signer::Identity;
use wedge_merkle::MerkleTree;

use crate::proof::ClusterProof;
use crate::router::ClusterClient;

/// One shard's slice of a committed epoch.
#[derive(Clone, Debug)]
pub struct ShardEpoch {
    /// First covered log position (empty shards carry their frontier).
    pub start: u64,
    /// The covered batch roots (empty when the shard had nothing pending).
    pub roots: Vec<Hash32>,
    /// The shard's epoch root: the Merkle fold of `roots`, or
    /// [`Hash32::ZERO`] for an empty shard.
    pub shard_root: Hash32,
}

impl ShardEpoch {
    /// Whether this epoch covered any of the shard's positions.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Whether `log_id` is covered by this slice.
    pub fn covers(&self, log_id: u64) -> bool {
        log_id >= self.start && log_id < self.start + self.roots.len() as u64
    }
}

/// A committed epoch: everything needed to rebuild its proofs.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// The epoch number (sequential from 0).
    pub epoch: u64,
    /// The on-chain root-of-roots.
    pub cluster_root: Hash32,
    /// The `Commit-Epoch` transaction (zero when recovered by
    /// reconciliation without a visible receipt).
    pub tx_hash: Hash32,
    /// Block that mined it.
    pub block_number: u64,
    /// Gas the transaction consumed.
    pub gas_used: Gas,
    /// Fee the coordinator paid.
    pub fee: Wei,
    /// Per-shard slices, indexed by shard id.
    pub shards: Vec<ShardEpoch>,
}

/// Coordinator counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordinatorStats {
    /// Epochs committed on-chain.
    pub epochs_committed: u64,
    /// `Commit-Epoch` submissions attempted (retries included).
    pub txs_submitted: u64,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Attempts whose outcome was recovered from the contract state after
    /// a lost/timed-out receipt.
    pub reconciled: u64,
    /// `epoch_report` calls that failed (shard treated as empty).
    pub reports_failed: u64,
    /// `epoch_commit` acknowledgements that failed (shard will
    /// re-report).
    pub acks_failed: u64,
    /// Total gas across committed epochs.
    pub gas_total: u64,
    /// Total fees across committed epochs.
    pub fees_total: Wei,
    /// Held epochs that were mined after the block they were held for
    /// (the coordinator's `NodeStats::stage2_slot_misses`).
    pub slot_misses: u64,
}

/// Drives the cluster's root-of-roots commits.
pub struct EpochCoordinator {
    chain: Arc<Chain>,
    identity: Identity,
    contract: Address,
    max_group: usize,
    committer: ChainCommitter,
    next_epoch: u64,
    records: Vec<EpochRecord>,
    stats: CoordinatorStats,
}

impl EpochCoordinator {
    /// Deploys a [`ClusterRoot`] bound to `identity` and returns the
    /// coordinator driving it.
    pub fn deploy(
        chain: Arc<Chain>,
        identity: Identity,
        max_group: usize,
    ) -> Result<EpochCoordinator, CoreError> {
        let (contract, tx) = chain.deploy(
            identity.secret_key(),
            Box::new(ClusterRoot::new(identity.address())),
            Wei::ZERO,
            ClusterRoot::CODE_LEN,
        )?;
        chain.wait_for_receipt(tx)?;
        Ok(EpochCoordinator::new(chain, identity, contract, max_group))
    }

    /// Wraps an already-deployed contract (e.g. after a coordinator
    /// restart — `next_epoch` resumes from the contract's tail).
    pub fn new(
        chain: Arc<Chain>,
        identity: Identity,
        contract: Address,
        max_group: usize,
    ) -> EpochCoordinator {
        let next_epoch = tail_epoch(&chain, contract);
        EpochCoordinator {
            committer: ChainCommitter::new(Arc::clone(&chain), Stage2RetryPolicy::default()),
            chain,
            identity,
            contract,
            max_group: max_group.max(1),
            next_epoch,
            records: Vec::new(),
            stats: CoordinatorStats::default(),
        }
    }

    /// The `ClusterRoot` contract address.
    pub fn contract(&self) -> Address {
        self.contract
    }

    /// The next epoch to be committed.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CoordinatorStats {
        self.stats
    }

    /// Records of every epoch this coordinator committed.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Runs one epoch: collect → hold → fold → commit on-chain →
    /// acknowledge. Returns `None` (and submits nothing) when every shard
    /// reported an empty group.
    pub fn run_epoch(&mut self, router: &ClusterClient) -> Result<Option<&EpochRecord>, CoreError> {
        let epoch = self.next_epoch;
        let mut shards = self.collect(router);
        let mut held_for = None;
        if shards.iter().any(|s| !s.is_empty())
            && shards.iter().all(|s| s.roots.len() < self.max_group)
        {
            if let Some(slot) = send_slot(&self.chain) {
                let clock = self.chain.clock();
                clock.sleep(slot.send_at.since(clock.now()));
                held_for = Some(slot.due);
                // Shards report statelessly: this covers what flushed
                // during the hold as well.
                shards = self.collect(router);
            }
        }
        if shards.iter().all(ShardEpoch::is_empty) {
            return Ok(None);
        }
        // The on-chain fold takes one leaf per shard — empty shards
        // contribute the zero root, keeping every shard at a fixed leaf
        // index (= shard id) so proofs don't depend on which shards were
        // active.
        let shard_roots: Vec<Hash32> = shards.iter().map(|s| s.shard_root).collect();
        let cluster_root = ClusterRoot::fold_roots(&shard_roots)
            .ok_or(CoreError::RequestRejected("cluster with zero shards"))?;
        let landed = self.commit_on_chain(epoch, &shard_roots)?;
        let on_chain = match &landed {
            Landed::Mined(receipt) => ClusterRoot::decode_root(&receipt.output),
            Landed::Reconciled { .. } => self.on_chain_root(epoch).ok(),
        };
        if on_chain != Some(cluster_root) {
            // Only possible when another coordinator landed this epoch:
            // acknowledge nothing and resume from the contract's tail.
            self.next_epoch = tail_epoch(&self.chain, self.contract);
            return Err(CoreError::RequestRejected(
                "epoch landed on-chain with a different root-of-roots",
            ));
        }
        // `None`: landed through a transaction we cannot see a receipt for.
        let (tx_hash, block_number, gas_used, fee) = match landed.receipt() {
            Some(r) => (r.tx_hash, r.block_number, r.gas_used, r.fee),
            None => (TxHash::ZERO, 0, Gas::ZERO, Wei::ZERO),
        };

        // Acknowledge the covered groups. A failed ack is not fatal: the
        // shard re-reports the same positions and a later epoch covers
        // them again (idempotently, under a fresh root-of-roots).
        for (shard, slice) in shards.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            let ack = router.backend(shard).epoch_commit(EpochCommit {
                epoch,
                start: slice.start,
                count: slice.roots.len() as u64,
                tx_hash,
                block_number,
            });
            if ack.is_err() {
                self.stats.acks_failed += 1;
            }
        }

        self.stats.epochs_committed += 1;
        self.stats.slot_misses +=
            u64::from(held_for.is_some_and(|due| missed_slot(&self.chain, due, landed.mined_by())));
        self.stats.gas_total += gas_used.0;
        self.stats.fees_total = self
            .stats
            .fees_total
            .checked_add(fee)
            .unwrap_or(self.stats.fees_total);
        self.next_epoch = epoch + 1;
        self.records.push(EpochRecord {
            epoch,
            cluster_root,
            tx_hash,
            block_number,
            gas_used,
            fee,
            shards,
        });
        Ok(self.records.last())
    }

    /// Collects every shard's pending group. Report failures count in
    /// `reports_failed` and contribute an empty slice.
    fn collect(&mut self, router: &ClusterClient) -> Vec<ShardEpoch> {
        (0..router.shards())
            .map(|shard| {
                let group = match router.backend(shard).epoch_report(self.max_group) {
                    Ok(group) => group,
                    Err(_) => {
                        self.stats.reports_failed += 1;
                        ShardGroup::default()
                    }
                };
                let shard_root = fold_shard(&group.roots);
                ShardEpoch {
                    start: group.start,
                    roots: group.roots,
                    shard_root,
                }
            })
            .collect()
    }

    /// Lands `Commit-Epoch` for `epoch` exactly once.
    fn commit_on_chain(&mut self, epoch: u64, shard_roots: &[Hash32]) -> Result<Landed, CoreError> {
        let mut tx = EpochTx {
            chain: &self.chain,
            identity: &self.identity,
            contract: self.contract,
            epoch,
            calldata: ClusterRoot::commit_epoch_calldata(epoch, shard_roots),
            // Base cost + per-shard calldata/hashing margin.
            gas_limit: Gas(150_000 + 30_000 * shard_roots.len() as u64),
            stats: &mut self.stats,
        };
        let landed = self
            .committer
            .commit(&mut tx)
            .map_err(|_| CoreError::RequestRejected("epoch commit retries exhausted"))?;
        if matches!(landed, Landed::Reconciled { .. }) {
            self.stats.reconciled += 1;
        }
        Ok(landed)
    }

    /// Builds the [`ClusterProof`] for `(shard, id)` from the newest epoch
    /// record covering it, reading the signed response from the shard.
    pub fn prove(
        &self,
        router: &ClusterClient,
        shard: usize,
        id: EntryId,
    ) -> Result<ClusterProof, CoreError> {
        let record = self
            .records
            .iter()
            .rev()
            .find(|r| r.shards.get(shard).is_some_and(|s| s.covers(id.log_id)))
            .ok_or(CoreError::NotYetBlockchainCommitted { log_id: id.log_id })?;
        let slice = &record.shards[shard];
        let response = router.backend(shard).read_entry(id)?;

        let shard_leaves: Vec<&[u8]> = slice
            .roots
            .iter()
            .map(|r| r.as_bytes().as_slice())
            .collect();
        let shard_tree = MerkleTree::from_leaves(&shard_leaves)
            .map_err(|_| CoreError::RequestRejected("empty shard epoch slice"))?;
        let shard_proof = shard_tree
            .prove((id.log_id - slice.start) as usize)
            .map_err(|_| CoreError::RequestRejected("shard proof index out of range"))?;

        let cluster_leaves: Vec<Hash32> = record.shards.iter().map(|s| s.shard_root).collect();
        let leaf_refs: Vec<&[u8]> = cluster_leaves
            .iter()
            .map(|r| r.as_bytes().as_slice())
            .collect();
        let cluster_tree = MerkleTree::from_leaves(&leaf_refs)
            .map_err(|_| CoreError::RequestRejected("cluster with zero shards"))?;
        let cluster_proof = cluster_tree
            .prove(shard)
            .map_err(|_| CoreError::RequestRejected("cluster proof index out of range"))?;

        Ok(ClusterProof {
            epoch: record.epoch,
            shard: shard as u64,
            response,
            shard_proof,
            shard_root: slice.shard_root,
            cluster_proof,
        })
    }

    /// Reads the epoch's root-of-roots back from the contract (for
    /// verifying proofs against the *on-chain* digest, not the
    /// coordinator's memory).
    pub fn on_chain_root(&self, epoch: u64) -> Result<Hash32, CoreError> {
        let out = self
            .chain
            .view(self.contract, &ClusterRoot::get_epoch_root_calldata(epoch))?;
        ClusterRoot::decode_root(&out)
            .ok_or(CoreError::RequestRejected("epoch not committed on-chain"))
    }
}

/// One epoch's `Commit-Epoch` transaction as a [`CommitTarget`].
struct EpochTx<'a> {
    chain: &'a Chain,
    identity: &'a Identity,
    contract: Address,
    epoch: u64,
    calldata: Vec<u8>,
    gas_limit: Gas,
    stats: &'a mut CoordinatorStats,
}

impl CommitTarget for EpochTx<'_> {
    fn submit(&mut self) -> Result<TxHash, ChainError> {
        self.chain.call_contract(
            self.identity.secret_key(),
            self.contract,
            Wei::ZERO,
            self.calldata.clone(),
            self.gas_limit,
        )
    }

    /// Past the contract's tail means an earlier attempt landed (a delayed
    /// receipt, or a revert caused by our own earlier attempt advancing the
    /// tail).
    fn landed(&mut self) -> bool {
        tail_epoch(self.chain, self.contract) > self.epoch
    }

    fn observe(&mut self, event: Event) {
        if let Event::Submitting { attempt } = event {
            self.stats.txs_submitted += 1;
            if attempt > 1 {
                self.stats.retries += 1;
            }
        }
    }
}

/// The contract's next uncommitted epoch (0 when unreadable).
fn tail_epoch(chain: &Chain, contract: Address) -> u64 {
    chain
        .view(contract, &ClusterRoot::get_tail_epoch_calldata())
        .ok()
        .and_then(|out| ClusterRoot::decode_u64(&out))
        .unwrap_or(0)
}

/// The shard epoch root: Merkle fold of the reported batch roots, or the
/// zero root for an empty (or unreachable) shard.
fn fold_shard(roots: &[Hash32]) -> Hash32 {
    let leaves: Vec<&[u8]> = roots.iter().map(|r| r.as_bytes().as_slice()).collect();
    MerkleTree::from_leaves(&leaves)
        .map(|t| t.root())
        .unwrap_or(Hash32::ZERO)
}
