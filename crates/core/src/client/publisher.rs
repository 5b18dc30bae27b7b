//! The Publisher role (paper §4.2): signs append requests, collects and
//! verifies stage-1 responses, later verifies stage-2 commitment against the
//! Root Record contract, and invokes the Punishment contract on any
//! inconsistency (links #1, #4 and #5 of Figure 2).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use wedge_chain::{Address, Chain, Gas, Receipt, Wei};
use wedge_contracts::Punishment;
use wedge_crypto::signer::Identity;
use wedge_pool::WorkPool;

use super::judge::{judge, RootLookup, Stage2Verdict};
use crate::api::LogService;
use crate::error::CoreError;
use crate::node_key::NodeKey;
use crate::types::{AppendRequest, SignedResponse};

/// Latency breakdown of one publisher append batch (the Figure 4/6
/// measurements).
#[derive(Clone, Debug)]
pub struct AppendOutcome {
    /// Verified stage-1 responses, in request order.
    pub responses: Vec<SignedResponse>,
    /// Wall time until the first response arrived ("First operation
    /// delay").
    pub first_response: Duration,
    /// Wall time until the last response arrived ("Last operation delay").
    pub last_response: Duration,
    /// Wall time until all responses were received *and verified*
    /// ("Stage 1 commitment delay").
    pub stage1_commit: Duration,
}

/// A publisher client bound to one Offchain Node.
pub struct Publisher {
    identity: Identity,
    service: Arc<dyn LogService>,
    node_key: NodeKey,
    chain: Arc<Chain>,
    roots: RootLookup,
    punishment: Option<Address>,
    next_sequence: u64,
    /// Workers for parallel signing/verification.
    pool: WorkPool,
    /// Optional durable store for issued responses (punishment evidence).
    receipts: Option<super::receipts::ReceiptStore>,
}

/// Result of a [`Publisher::verify_pending`] sweep.
#[derive(Debug, Default)]
pub struct PendingSweep {
    /// Receipts newly confirmed blockchain-committed.
    pub verified: usize,
    /// Receipts whose positions are not yet committed.
    pub still_pending: usize,
    /// Set when a punishable receipt was found and punished.
    pub punished: Option<Receipt>,
}

impl Publisher {
    /// Creates a publisher talking to `node`, verifying against
    /// `root_record`, and (optionally) armed with a Punishment contract.
    pub fn new(
        identity: Identity,
        service: Arc<impl LogService + 'static>,
        chain: Arc<Chain>,
        root_record: Address,
        punishment: Option<Address>,
    ) -> Publisher {
        let service: Arc<dyn LogService> = service;
        let node_key = NodeKey::new(service.node_public_key());
        Publisher {
            identity,
            service,
            node_key,
            roots: RootLookup::new(Arc::clone(&chain), root_record),
            chain,
            punishment,
            next_sequence: 0,
            pool: WorkPool::with_available_parallelism(),
            receipts: None,
        }
    }

    /// Starts sequence numbering at `sequence` — required when a publisher
    /// restarts and must not collide with its own already-logged entries.
    pub fn with_starting_sequence(mut self, sequence: u64) -> Publisher {
        self.next_sequence = sequence;
        self
    }

    /// Attaches a durable [`super::receipts::ReceiptStore`]: every stage-1
    /// response is persisted, and [`Publisher::verify_pending`] sweeps
    /// unverified ones against the chain — across restarts. The response
    /// *is* the punishment evidence, so a careful publisher never holds it
    /// only in memory.
    pub fn with_receipt_store(
        mut self,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<Publisher, CoreError> {
        let store = super::receipts::ReceiptStore::open(dir)?;
        // Resume sequence numbering after the newest stored receipt —
        // *not* the newest pending one: after a restart with every receipt
        // already verified, the pending set is empty and resuming from it
        // would restart at sequence 0, colliding with the publisher's own
        // logged entries. The store length covers even receipts whose
        // request bytes no longer decode.
        let resume = store
            .last()
            .ok()
            .flatten()
            .and_then(|r| r.request().ok().map(|q| q.sequence + 1))
            .unwrap_or(0)
            .max(store.len())
            .max(self.next_sequence);
        self.next_sequence = resume;
        self.receipts = Some(store);
        Ok(self)
    }

    /// The attached receipt store, if any.
    pub fn receipt_store(&self) -> Option<&super::receipts::ReceiptStore> {
        self.receipts.as_ref()
    }

    /// Sweeps all unverified stored receipts: committed ones advance the
    /// watermark; the first punishable one triggers punishment (AoN — further
    /// sweeping is pointless once the escrow is seized). Returns a summary.
    pub fn verify_pending(&self) -> Result<PendingSweep, CoreError> {
        let store = self
            .receipts
            .as_ref()
            .ok_or(CoreError::RequestRejected("no receipt store attached"))?;
        let base = store.verified_watermark();
        let pending = store.pending()?;
        let mut sweep = PendingSweep::default();
        for (i, response) in pending.iter().enumerate() {
            match self.verify_blockchain_commit(response)? {
                Stage2Verdict::Committed => {
                    sweep.verified += 1;
                    store.mark_verified(base + i as u64 + 1)?;
                }
                Stage2Verdict::NotYet => {
                    sweep.still_pending = pending.len() - i;
                    break; // later positions commit strictly after this one
                }
                Stage2Verdict::Punishable(_) => {
                    let receipt = self.punish(response)?;
                    sweep.punished = Some(receipt);
                    store.mark_verified(base + i as u64 + 1)?;
                    break;
                }
            }
        }
        Ok(sweep)
    }

    /// The publisher's address.
    pub fn address(&self) -> Address {
        self.identity.address()
    }

    /// The next sequence number this publisher will assign.
    pub fn next_sequence(&self) -> u64 {
        self.next_sequence
    }

    /// Appends a list of payloads: signs each as an [`AppendRequest`] with a
    /// fresh sequence number, submits them as one message, then collects and
    /// verifies every response (completing stage-1 commitment).
    pub fn append_batch(&mut self, payloads: Vec<Vec<u8>>) -> Result<AppendOutcome, CoreError> {
        if payloads.is_empty() {
            return Ok(AppendOutcome {
                responses: Vec::new(),
                first_response: Duration::ZERO,
                last_response: Duration::ZERO,
                stage1_commit: Duration::ZERO,
            });
        }
        let n = payloads.len();
        let first_seq = self.next_sequence;
        self.next_sequence += n as u64;
        // Sign requests in parallel (paper: ECDSA across all cores).
        let key = *self.identity.secret_key();
        let numbered: Vec<(u64, Vec<u8>)> = (first_seq..).zip(payloads).collect();
        let requests: Vec<AppendRequest> = self.pool.map(&numbered, |(seq, payload)| {
            AppendRequest::new(&key, *seq, payload.clone())
        });
        let by_sequence: HashMap<u64, &AppendRequest> =
            requests.iter().map(|r| (r.sequence, r)).collect();

        let started = Instant::now();
        let (reply_tx, reply_rx) = unbounded();
        for request in &requests {
            let tx = reply_tx.clone();
            self.service.submit_request(
                request.clone(),
                Box::new(move |outcome| {
                    let _ = tx.send(outcome);
                }),
            )?;
        }
        drop(reply_tx);
        // Buffered transports hold append frames until flushed; one flush
        // for the whole burst keeps it a single socket write.
        self.service.flush();

        // Collect responses one by one, timing first and last arrivals.
        let mut responses = Vec::with_capacity(n);
        let mut first_response = Duration::ZERO;
        for i in 0..n {
            let reply = reply_rx
                .recv()
                .map_err(|_| CoreError::NodeStopped)?
                .map_err(|_| CoreError::RequestRejected("node rejected request"))?;
            if i == 0 {
                first_response = started.elapsed();
            }
            responses.push(reply);
        }
        let last_response = started.elapsed();

        // Verify all responses (parallel), matching each to its request.
        let node_key = &self.node_key;
        let verdicts = self.pool.map(&responses, |resp| {
            let req = match resp.request() {
                Ok(r) => r,
                Err(_) => return false,
            };
            by_sequence
                .get(&req.sequence)
                .is_some_and(|orig| node_key.verify(resp).is_ok() && resp.leaf == orig.leaf_bytes())
        });
        if let Some(bad) = verdicts.iter().position(|ok| !ok) {
            return Err(CoreError::ProofInvalid {
                entry_id: responses[bad].entry_id,
            });
        }
        let stage1_commit = started.elapsed();
        // Return responses in request (sequence) order.
        responses.sort_by_key(|r| r.request().map(|q| q.sequence).unwrap_or(u64::MAX));
        // Persist the evidence before handing it out.
        if let Some(store) = &self.receipts {
            store.save_all(&responses)?;
        }
        Ok(AppendOutcome {
            responses,
            first_response,
            last_response,
            stage1_commit,
        })
    }

    /// Link #4 of Figure 2: judges a signed response against the Root
    /// Record contract ([`super::judge()`]).
    pub fn verify_blockchain_commit(
        &self,
        response: &SignedResponse,
    ) -> Result<Stage2Verdict, CoreError> {
        Ok(judge(response, self.roots.root(response.entry_id.log_id)?))
    }

    /// Polls until the response's log position is blockchain-committed (or
    /// punishable), up to `timeout` of simulated time.
    pub fn wait_blockchain_commit(
        &self,
        response: &SignedResponse,
        timeout: Duration,
    ) -> Result<Stage2Verdict, CoreError> {
        let clock = self.chain.clock().clone();
        let start = clock.now();
        loop {
            match self.verify_blockchain_commit(response)? {
                Stage2Verdict::NotYet => {}
                verdict => return Ok(verdict),
            }
            if clock.now().since(start) > timeout {
                return Ok(Stage2Verdict::NotYet);
            }
            clock.sleep(Duration::from_millis(500));
        }
    }

    /// Link #5 of Figure 2: submits the signed response to the Punishment
    /// contract. Returns the receipt; on a proven lie the escrow has been
    /// transferred to this client.
    pub fn punish(&self, response: &SignedResponse) -> Result<Receipt, CoreError> {
        let punishment = self.punishment.ok_or(CoreError::RequestRejected(
            "no punishment contract configured",
        ))?;
        let calldata = Punishment::invoke_calldata(
            response.entry_id.log_id,
            &response.merkle_root,
            &response.proof.to_bytes(),
            &response.leaf,
            &response.signature,
            &response.attestation.to_bytes(),
        );
        let hash = self.chain.call_contract(
            self.identity.secret_key(),
            punishment,
            Wei::ZERO,
            calldata,
            Gas(5_000_000),
        )?;
        Ok(self.chain.wait_for_receipt(hash)?)
    }

    /// Convenience: verify stage 2 for every response and punish the first
    /// punishable one found. Returns the punished entry's receipt, if any.
    pub fn verify_all_and_punish(
        &self,
        responses: &[SignedResponse],
    ) -> Result<Option<Receipt>, CoreError> {
        for response in responses {
            if let Stage2Verdict::Punishable(_) = self.verify_blockchain_commit(response)? {
                return Ok(Some(self.punish(response)?));
            }
        }
        Ok(None)
    }
}
