//! The epoch coordinator: one root-of-roots transaction per epoch.
//!
//! Each [`EpochCoordinator::run_epoch`] call is one step of the pipeline
//! the single node's stage-2 thread runs: the next epoch can go out as
//! soon as the last one is mined, and mined epochs wait in the same
//! [`InFlight`] FIFO until they are confirmation-deep. A call
//!
//! 1. **collects** every shard's pending batch-root group
//!    (`epoch_report`) beyond what the epochs already in flight will
//!    commit: it asks for `max_group` plus the roots in flight and drops
//!    those that follow on from the shard's frontier (the shard side is
//!    stateless, see `wedge_core::node` epoch docs). An unreachable shard
//!    simply contributes an empty group and re-reports the same positions
//!    next time;
//! 2. with **nothing new** anywhere, waits for the oldest epoch in flight
//!    to confirm and goes to step 6 — or, with nothing in flight either,
//!    returns `None` at once;
//! 3. **holds** the epoch, unless a shard already reports a full group,
//!    until the send moment of the chain's next block — the hold the
//!    single node's stage 2 uses — or, when that moment has passed, of the
//!    block after ([`open_slot`]), and then collects again, so whatever
//!    flushed during the hold rides along and the epoch still makes that
//!    block. Behind an epoch in flight, a held epoch goes out only if no
//!    shard flushed during the hold's last send margin: while the shards
//!    are still flushing, the call sends nothing and waits for the oldest
//!    epoch in flight to confirm (step 6), and the next call sends what
//!    flushed in one epoch. Sent mid-stream, it would leave the stream's
//!    last batches, however few, to a whole `Commit-Epoch` of their own,
//!    and the number of epochs a burst of appends takes would follow the
//!    host's speed;
//! 4. **folds** each shard's roots into a shard epoch root, and the N
//!    shard roots into the cluster root-of-roots — the exact fold the
//!    [`ClusterRoot`] contract recomputes on-chain from calldata;
//! 5. **lands** one `Commit-Epoch` transaction through the same
//!    [`ChainCommitter::include`] retry ladder the single node's stage 2
//!    uses — returning once it is mined, so at most one coordinator
//!    transaction is ever unmined — with the contract's `tail_epoch` as the
//!    "did it land?" probe: a receipt timeout does not mean the transaction
//!    missed, and the contract's sequential single-write rule turns any
//!    duplicate into a revert — each epoch lands **exactly once**. The
//!    mined epoch joins the FIFO;
//! 6. **acknowledges** the covered groups of the oldest epoch in flight
//!    (`epoch_commit`) if it is now confirmation-deep, records it and
//!    returns it — at most one per call, in epoch order, so at most
//!    `confirmations + 1` epochs are ever in flight. A lost ack costs one
//!    more epoch: its positions stay at the shard's frontier, so the next
//!    collection covers them again, and an epoch already in flight past
//!    them is rejected by the shard as a commitment gap (the stale-epoch
//!    guard rejects out-of-order acks — `wedge-check`'s epoch model
//!    exercises why).
//!
//! The coordinator keeps an [`EpochRecord`] per acknowledged epoch and
//! serves [`ClusterProof`]s from it: entry → shard root → on-chain cluster
//! root. An epoch still in flight has no record yet, so nothing is proved
//! or acknowledged before it is confirmation-deep; a coordinator that
//! stops with epochs in flight leaves their positions pending, and the next
//! coordinator covers them again in a later epoch.

use std::sync::Arc;

use wedge_chain::{Address, Chain, ChainError, Gas, TxHash, Wei};
use wedge_contracts::ClusterRoot;
use wedge_core::chain_commit::{
    missed_slot, open_slot, ChainCommitter, CommitTarget, Event, InFlight, Landed,
};
use wedge_core::{CoreError, EntryId, EpochCommit, ShardGroup, Stage2RetryPolicy};
use wedge_crypto::hash::Hash32;
use wedge_crypto::signer::Identity;
use wedge_merkle::MerkleTree;
use wedge_sim::SimInstant;

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

/// An epoch on chain: everything needed to acknowledge it and to rebuild
/// its proofs.
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
    /// Epochs confirmed on chain and acknowledged to their shards (one
    /// [`EpochRecord`] each).
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
    /// Total gas across landed epochs.
    pub gas_total: u64,
    /// Total fees across landed epochs.
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
    /// Mined epochs awaiting confirmation, oldest first.
    in_flight: InFlight<EpochRecord>,
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
    /// restart — `next_epoch` resumes from the contract's tail, and the
    /// positions of epochs the last coordinator left in flight are covered
    /// again by later epochs).
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
            in_flight: InFlight::default(),
            records: Vec::new(),
            stats: CoordinatorStats::default(),
        }
    }

    /// A fresh coordinator on the same chain, identity and contract — what
    /// a restart leaves: the records and the epochs in flight are gone, and
    /// `next_epoch` resumes from the contract's tail.
    pub fn restarted(&self) -> EpochCoordinator {
        EpochCoordinator::new(
            Arc::clone(&self.chain),
            self.identity.clone(),
            self.contract,
            self.max_group,
        )
    }

    /// The `ClusterRoot` contract address.
    pub fn contract(&self) -> Address {
        self.contract
    }

    /// The next epoch to be sent: the contract's tail, once the last
    /// send has landed.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CoordinatorStats {
        self.stats
    }

    /// Records of every epoch this coordinator acknowledged, in epoch
    /// order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Runs one pipelined step: collect what is not yet in flight → hold →
    /// fold → send once mined, then acknowledge the oldest epoch in flight
    /// if it is confirmation-deep. With nothing new to send — or, behind an
    /// epoch in flight, with shards still flushing at the end of the hold —
    /// the step waits for the oldest epoch in flight to confirm instead.
    /// Returns the epoch acknowledged, or `None` (and submits nothing)
    /// when nothing was pending or in flight — or when what this call sent
    /// is not yet confirmation-deep.
    ///
    /// A failed send still acknowledges and records an epoch that became
    /// confirmation-deep meanwhile (read it from [`records`]) before it
    /// returns the error, so a chain outage holds back only new epochs.
    ///
    /// [`records`]: EpochCoordinator::records
    pub fn run_epoch(&mut self, router: &ClusterClient) -> Result<Option<&EpochRecord>, CoreError> {
        let sent = match self.collect_held(router) {
            Some((shards, held_for)) => self.send(shards, held_for),
            None => {
                if let Some(oldest) = self.in_flight.oldest() {
                    self.committer.confirm(oldest);
                }
                Ok(())
            }
        };
        let acknowledged = self.acknowledge_confirmed(router);
        sent.map(|()| acknowledged)
    }

    /// Collects every shard's new roots and decides whether they go out
    /// now. Unless they are all empty or one is full, holds them until the
    /// send moment of the first block they can still make and collects
    /// again. Behind an epoch in flight they go out only if the shards
    /// flushed nothing during the hold's last send margin: while they are
    /// still flushing, a send would leave what flushes next for yet another
    /// `Commit-Epoch`. Returns the epoch to send and the due time of the
    /// block it was held for, or `None` to send nothing this call.
    fn collect_held(
        &mut self,
        router: &ClusterClient,
    ) -> Option<(Vec<ShardEpoch>, Option<SimInstant>)> {
        let shards = self.collect(router);
        if shards.iter().all(ShardEpoch::is_empty) {
            return None;
        }
        if self.any_full(&shards) {
            return Some((shards, None));
        }
        let Some(slot) = open_slot(&self.chain) else {
            return Some((shards, None));
        };
        let chain = Arc::clone(&self.chain);
        let clock = chain.clock();
        let quiet_from = if self.in_flight.is_empty() {
            None
        } else {
            // `send_at` lies one send margin before the block is due.
            let margin = slot.due.since(slot.send_at);
            clock.sleep(slot.send_at.since(clock.now()).saturating_sub(margin));
            Some(self.collect(router))
        };
        clock.sleep(slot.send_at.since(clock.now()));
        // Shards report statelessly: this covers what flushed during the
        // hold as well.
        let shards = self.collect(router);
        let quiet = quiet_from.is_none_or(|before| {
            before
                .iter()
                .zip(&shards)
                .all(|(a, b)| a.roots.len() == b.roots.len())
        });
        (quiet || self.any_full(&shards)).then_some((shards, Some(slot.due)))
    }

    /// Whether a shard reports a full group.
    fn any_full(&self, shards: &[ShardEpoch]) -> bool {
        shards.iter().any(|s| s.roots.len() >= self.max_group)
    }

    /// Folds `shards` into the next epoch, lands it and queues it in the
    /// FIFO.
    fn send(
        &mut self,
        shards: Vec<ShardEpoch>,
        held_for: Option<SimInstant>,
    ) -> Result<(), CoreError> {
        let epoch = self.next_epoch;
        // The on-chain fold takes one leaf per shard — empty shards
        // contribute the zero root, keeping every shard at a fixed leaf
        // index (= shard id) so proofs don't depend on which shards were
        // active.
        let shard_roots: Vec<Hash32> = shards.iter().map(|s| s.shard_root).collect();
        let cluster_root = ClusterRoot::fold_roots(&shard_roots)
            .ok_or(CoreError::RequestRejected("cluster with zero shards"))?;
        let landed = self.include(epoch, &shard_roots)?;
        let on_chain = match &landed {
            Landed::Mined(receipt) => ClusterRoot::decode_root(&receipt.output),
            Landed::Reconciled { .. } => self.on_chain_root(epoch).ok(),
        };
        if on_chain != Some(cluster_root) {
            // Only possible when another coordinator landed this epoch:
            // acknowledge nothing of it and resume from the contract's tail.
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
        self.stats.slot_misses +=
            u64::from(held_for.is_some_and(|due| missed_slot(&self.chain, due, landed.mined_by())));
        self.stats.gas_total += gas_used.0;
        self.stats.fees_total = self
            .stats
            .fees_total
            .checked_add(fee)
            .unwrap_or(self.stats.fees_total);
        self.next_epoch = epoch + 1;
        let record = EpochRecord {
            epoch,
            cluster_root,
            tx_hash,
            block_number,
            gas_used,
            fee,
            shards,
        };
        self.in_flight.push(record, landed);
        Ok(())
    }

    /// Acknowledges the covered groups of the oldest epoch in flight if it
    /// is confirmation-deep, and records it. A failed ack is not fatal: the
    /// shard's frontier stays before those positions, so the next
    /// collection picks them up again and a later epoch covers them
    /// (idempotently, under a fresh root-of-roots).
    fn acknowledge_confirmed(&mut self, router: &ClusterClient) -> Option<&EpochRecord> {
        let (record, _) = self.in_flight.pop_confirmed(&self.chain)?;
        for (shard, slice) in record.shards.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            let ack = router.backend(shard).epoch_commit(EpochCommit {
                epoch: record.epoch,
                start: slice.start,
                count: slice.roots.len() as u64,
                tx_hash: record.tx_hash,
                block_number: record.block_number,
            });
            if ack.is_err() {
                self.stats.acks_failed += 1;
            }
        }
        self.stats.epochs_committed += 1;
        self.records.push(record);
        self.records.last()
    }

    /// Collects every shard's pending group beyond the positions the
    /// epochs in flight will commit once acknowledged. The report starts
    /// at the shard's committed frontier, so it is asked for `max_group`
    /// more roots than are in flight, and the covered ones are dropped.
    /// Report failures count in `reports_failed` and contribute an empty
    /// slice.
    fn collect(&mut self, router: &ClusterClient) -> Vec<ShardEpoch> {
        (0..router.shards())
            .map(|shard| {
                let slices = || {
                    self.in_flight
                        .iter()
                        .filter_map(move |r| r.shards.get(shard))
                };
                let in_flight: usize = slices().map(|s| s.roots.len()).sum();
                let group = match router
                    .backend(shard)
                    .epoch_report(self.max_group + in_flight)
                {
                    Ok(group) => group,
                    Err(_) => {
                        self.stats.reports_failed += 1;
                        ShardGroup::default()
                    }
                };
                // Walk the in-flight slices in epoch order from the
                // frontier: one that starts past what the earlier ones
                // reach (an earlier epoch's ack failed) will be rejected
                // as a commitment gap, so the gap is collected again.
                let start = slices()
                    .filter(|s| !s.is_empty())
                    .fold(group.start, |reach, s| {
                        if s.start <= reach {
                            reach.max(s.start + s.roots.len() as u64)
                        } else {
                            reach
                        }
                    });
                let roots: Vec<Hash32> = group
                    .roots
                    .into_iter()
                    .skip((start - group.start) as usize)
                    .take(self.max_group)
                    .collect();
                let shard_root = fold_shard(&roots);
                ShardEpoch {
                    start,
                    roots,
                    shard_root,
                }
            })
            .collect()
    }

    /// Lands `Commit-Epoch` for `epoch` exactly once, returning once it is
    /// mined.
    fn include(&mut self, epoch: u64, shard_roots: &[Hash32]) -> Result<Landed, CoreError> {
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
            .include(&mut tx)
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
