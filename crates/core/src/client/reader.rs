//! The User (reader) role (paper §4.2, read requests): fetches entries from
//! the Offchain Node and verifies them — stage-1 trust from the node's
//! signature and proof, stage-2 trust by checking the Root Record contract.

use std::sync::Arc;

use wedge_chain::{Address, Chain};

use super::judge::{judge_root, RootLookup, Stage2Verdict};
use crate::api::LogService;
use crate::error::CoreError;
use crate::node_key::NodeKey;
use crate::publisher_keys::PublisherKeys;
use crate::types::{AppendRequest, CommitPhase, EntryId, SignedResponse};

/// A verified read result.
#[derive(Clone, Debug)]
pub struct VerifiedEntry {
    /// Where the entry lives.
    pub entry_id: EntryId,
    /// The decoded original append request.
    pub request: AppendRequest,
    /// The trust level established for this read.
    pub phase: CommitPhase,
}

/// A reader client bound to one Offchain Node.
pub struct Reader {
    service: Arc<dyn LogService>,
    /// The node's key, remembering the last attestation it accepted.
    node_key: NodeKey,
    /// Blockchain-committed digests, each looked up once.
    roots: RootLookup,
    /// Publisher keys recovered so far: a publisher's later entries verify
    /// against the remembered key (same verdicts as a fresh recovery).
    publisher_keys: PublisherKeys,
}

impl Reader {
    /// Creates a reader.
    pub fn new(
        service: Arc<impl LogService + 'static>,
        chain: Arc<Chain>,
        root_record: Address,
    ) -> Reader {
        let service: Arc<dyn LogService> = service;
        let node_key = NodeKey::new(service.node_public_key());
        Reader {
            service,
            node_key,
            roots: RootLookup::new(chain, root_record),
            publisher_keys: PublisherKeys::default(),
        }
    }

    /// Number of on-chain lookups this reader has performed (cache misses).
    pub fn chain_lookups(&self) -> u64 {
        self.roots.views()
    }

    /// ECDSA verifications of the node's signature this reader has run: one
    /// per distinct attestation, not one per response.
    pub fn node_signature_checks(&self) -> u64 {
        self.node_key.ecdsa_checks()
    }

    /// Reads and stage-1-verifies one entry: node signature, proof position,
    /// proof-root consistency, and the embedded publisher signature.
    pub fn read(&self, id: EntryId) -> Result<VerifiedEntry, CoreError> {
        let response = self.service.read_entry(id)?;
        self.verify_response(&response)
    }

    /// Reads by `(publisher, sequence)`.
    pub fn read_by_sequence(
        &self,
        publisher: Address,
        sequence: u64,
    ) -> Result<VerifiedEntry, CoreError> {
        let response = self.service.read_entry_by_sequence(publisher, sequence)?;
        self.verify_response(&response)
    }

    /// Reads a group of entries in one operation (one round trip on
    /// networked transports).
    pub fn read_many(&self, ids: &[EntryId]) -> Vec<Result<VerifiedEntry, CoreError>> {
        self.service
            .read_entries(ids)
            .into_iter()
            .map(|r| r.and_then(|resp| self.verify_response(&resp)))
            .collect()
    }

    /// Full verification of a response, upgrading to
    /// [`CommitPhase::BlockchainCommitted`] when the Root Record digest
    /// matches (Definition 3.2 trust).
    pub fn verify_response(&self, response: &SignedResponse) -> Result<VerifiedEntry, CoreError> {
        self.node_key.verify(response)?;
        let request = response.request()?;
        self.publisher_keys.verify(&request)?;
        let phase = match judge_root(response, self.roots.root(response.entry_id.log_id)?) {
            Stage2Verdict::Committed => CommitPhase::BlockchainCommitted,
            Stage2Verdict::NotYet => CommitPhase::OffchainCommitted,
            // The node lied: surface the punishable condition rather than
            // a silent downgrade.
            Stage2Verdict::Punishable(_) => {
                return Err(CoreError::BlockchainMismatch {
                    entry_id: response.entry_id,
                })
            }
        };
        Ok(VerifiedEntry {
            entry_id: response.entry_id,
            request,
            phase,
        })
    }

    /// Stage-1-only verification (no chain round-trip) — the fast path a
    /// client uses when it accepts lazy (deterrence-based) trust.
    pub fn read_lazy(&self, id: EntryId) -> Result<VerifiedEntry, CoreError> {
        let response = self.service.read_entry(id)?;
        self.verify_lazy(response)
    }

    /// Lazy-trust read by `(publisher, sequence)`.
    pub fn read_lazy_by_sequence(
        &self,
        publisher: Address,
        sequence: u64,
    ) -> Result<VerifiedEntry, CoreError> {
        let response = self.service.read_entry_by_sequence(publisher, sequence)?;
        self.verify_lazy(response)
    }

    fn verify_lazy(
        &self,
        response: crate::types::SignedResponse,
    ) -> Result<VerifiedEntry, CoreError> {
        self.node_key.verify(&response)?;
        let request = response.request()?;
        self.publisher_keys.verify(&request)?;
        Ok(VerifiedEntry {
            entry_id: response.entry_id,
            request,
            phase: CommitPhase::OffchainCommitted,
        })
    }
}
