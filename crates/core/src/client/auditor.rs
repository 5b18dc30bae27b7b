//! The Auditor role (paper §4.2): scans a range of log entries and verifies
//! every one of them, separating read time from verification time (the
//! Figure 9 measurement).

use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_chain::{Address, Chain};
use wedge_pool::WorkPool;

use super::judge::{judge, judge_root, EvidenceKind, RootLookup, Stage2Verdict};
use crate::api::LogService;
use crate::error::CoreError;
use crate::node_key::NodeKey;
use crate::publisher_keys::PublisherKeys;
use crate::types::{AppendRequest, EntryId};

/// Outcome of one audit scan.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Entries read and verified.
    pub entries_checked: usize,
    /// Entries whose verification failed (with the failing id).
    pub failures: Vec<EntryId>,
    /// Total wall time of the audit.
    pub total_time: Duration,
    /// Wall time spent verifying (signature + proof + publisher signature).
    pub verify_time: Duration,
}

/// Court-admissible evidence of a lying node, as gathered by
/// [`Auditor::find_evidence`]: a signed response that the Punishment
/// contract will accept.
#[derive(Clone, Debug)]
pub struct Evidence {
    /// The inconsistent signed response.
    pub response: crate::types::SignedResponse,
    /// Why it is punishable.
    pub kind: EvidenceKind,
}

impl AuditReport {
    /// True when every audited entry verified.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fraction of total time spent in verification (paper reports ~42%).
    pub fn verify_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.verify_time.as_secs_f64() / self.total_time.as_secs_f64()
    }
}

/// An auditor client bound to one Offchain Node.
pub struct Auditor {
    service: Arc<dyn LogService>,
    /// The node's key: a log position's responses share one attestation,
    /// so auditing it costs one ECDSA verification, not one per entry.
    node_key: NodeKey,
    /// The committed digests, one view call per position.
    roots: RootLookup,
    /// Publisher keys recovered so far; each log position's embedded
    /// requests verify as one batch against them, on the calling thread:
    /// `verify_time` is the Figure 9 single-auditor measurement.
    publisher_keys: PublisherKeys,
    calling_thread: WorkPool,
}

impl Auditor {
    /// Creates an auditor.
    pub fn new(
        service: Arc<impl LogService + 'static>,
        chain: Arc<Chain>,
        root_record: Address,
    ) -> Auditor {
        let service: Arc<dyn LogService> = service;
        let node_key = NodeKey::new(service.node_public_key());
        Auditor {
            service,
            node_key,
            roots: RootLookup::new(chain, root_record),
            publisher_keys: PublisherKeys::default(),
            calling_thread: WorkPool::new(1),
        }
    }

    /// ECDSA checks of the node's signature this auditor has run: one per
    /// distinct attestation, not one per response.
    pub fn node_signature_checks(&self) -> u64 {
        self.node_key.ecdsa_checks()
    }

    /// Publisher-signature verdicts for one log position's leaves, index
    /// aligned; an undecodable leaf is a failure.
    fn publishers_ok<'a>(&self, leaves: impl Iterator<Item = &'a [u8]>) -> Vec<bool> {
        let decoded: Vec<Option<AppendRequest>> = leaves
            .map(|leaf| AppendRequest::from_leaf_bytes(leaf).ok())
            .collect();
        let requests: Vec<&AppendRequest> = decoded.iter().flatten().collect();
        let mut verdicts = self
            .publisher_keys
            .verify_batch(&requests, &self.calling_thread)
            .verdicts
            .into_iter();
        decoded
            .iter()
            .map(|request| request.is_some() && verdicts.next() == Some(true))
            .collect()
    }

    /// Audits `entry_budget` entries starting at log position `from_log`,
    /// reading whole positions at a time and verifying every response
    /// against the blockchain-committed digest.
    pub fn audit(&self, from_log: u64, entry_budget: usize) -> Result<AuditReport, CoreError> {
        let started = Instant::now();
        let mut report = AuditReport::default();
        let mut log_id = from_log;
        let positions = self.service.positions();
        while report.entries_checked < entry_budget && log_id < positions {
            let responses = self.service.read_position(log_id)?;
            let onchain = self.roots.root(log_id)?;
            let verify_started = Instant::now();
            let budget = entry_budget - report.entries_checked;
            let responses = responses.get(..budget).unwrap_or(&responses);
            let publishers_ok = self.publishers_ok(responses.iter().map(|r| r.leaf.as_slice()));
            for (response, publisher_ok) in responses.iter().zip(publishers_ok) {
                let ok = self.node_key.verify(response).is_ok()
                    && publisher_ok
                    && judge_root(response, onchain) == Stage2Verdict::Committed;
                if !ok {
                    report.failures.push(response.entry_id);
                }
                report.entries_checked += 1;
            }
            report.verify_time += verify_started.elapsed();
            log_id += 1;
        }
        report.total_time = started.elapsed();
        Ok(report)
    }

    /// Scans log positions `[from_log, to_log)` hunting for *punishable*
    /// inconsistencies, returning the first piece of evidence found.
    ///
    /// This is the watchdog loop a third-party auditing service would run:
    /// read signed responses, compare against the Root Record, and keep the
    /// signed response whenever the node's own signature convicts it. The
    /// returned [`Evidence::response`] can be handed directly to
    /// [`crate::client::Publisher::punish`] (or any client with a
    /// punishment contract).
    pub fn find_evidence(&self, from_log: u64, to_log: u64) -> Result<Option<Evidence>, CoreError> {
        let positions = self.service.positions().min(to_log);
        for log_id in from_log..positions {
            let onchain = self.roots.root(log_id)?;
            if onchain.is_none() {
                // Not yet committed: nothing adjudicable at this position.
                continue;
            }
            for response in self.service.read_position(log_id)? {
                // Only node-signed responses are evidence; skip anything
                // whose signature does not recover to the node.
                if !self.node_key.recovers(&response) {
                    continue;
                }
                if let Stage2Verdict::Punishable(kind) = judge(&response, onchain) {
                    return Ok(Some(Evidence { response, kind }));
                }
            }
        }
        Ok(None)
    }

    /// Extension: audits a range using the node's [`wedge_merkle::RangeProof`] scan API —
    /// one proof per log position instead of one per entry. Dramatically
    /// cheaper verification; the ablation benchmark compares both.
    pub fn audit_with_range_proofs(
        &self,
        from_log: u64,
        entry_budget: usize,
    ) -> Result<AuditReport, CoreError> {
        let started = Instant::now();
        let mut report = AuditReport::default();
        let mut log_id = from_log;
        let positions = self.service.positions();
        while report.entries_checked < entry_budget && log_id < positions {
            let count = self
                .service
                .position_len(log_id)
                .ok_or(CoreError::EntryNotFound(EntryId { log_id, offset: 0 }))?;
            let take = count.min((entry_budget - report.entries_checked) as u32);
            let (leaves, proof, root) = self.service.scan(log_id, 0, take)?;
            let onchain = self.roots.root(log_id)?;
            let verify_started = Instant::now();
            let proof_ok = proof.verify(&leaves, &root).is_ok() && onchain == Some(root);
            let publishers_ok = self.publishers_ok(leaves.iter().map(Vec::as_slice));
            for (offset, publisher_ok) in publishers_ok.into_iter().enumerate() {
                if !(proof_ok && publisher_ok) {
                    report.failures.push(EntryId {
                        log_id,
                        offset: offset as u32,
                    });
                }
                report.entries_checked += 1;
            }
            report.verify_time += verify_started.elapsed();
            log_id += 1;
        }
        report.total_time = started.elapsed();
        Ok(report)
    }
}
