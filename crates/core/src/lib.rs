//! # wedge-core
//!
//! The WedgeBlock system itself (paper §3–4): the **Lazy-Minimum Trust**
//! secure logging protocol.
//!
//! - [`node::OffchainNode`] — batched stage-1 ingestion (Merkle tree +
//!   local persistence + signed responses), asynchronous stage-2 digest
//!   commitment to the Root Record contract, verified reads/audits, and
//!   injectable malicious behaviours for adversarial testing.
//! - [`client::Publisher`] / [`client::Reader`] / [`client::Auditor`] — the
//!   three client roles of §4.2, including stage-2 verification and the
//!   punishment trigger.
//! - [`service`] — the DApp-logging-as-a-service deployment glue (§4.5).
//! - [`LocalNode`] — a whole in-process deployment (chain, miner,
//!   contracts, node, scratch directory) for tests and benchmarks.
//! - [`chain_commit`] — the exactly-once retry engine behind every lazy
//!   on-chain write (the node's stage 2, the cluster's epochs).
//! - [`audit()`] — one pure verdict on a run's [`Transcript`]: the safety
//!   definitions 3.1 and 3.2 and the log's guarantees, checked from what
//!   the clients hold and what the chain recorded. The test suites judge
//!   their runs with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod audit;
pub mod chain_commit;
pub mod client;
pub mod config;
pub mod error;
mod local;
pub mod node;
mod node_key;
mod publisher_keys;
pub mod service;
pub mod types;

pub use api::LogService;
pub use audit::{audit, Transcript, Verdict, Violation};
pub use client::{
    AppendOutcome, AuditReport, Auditor, Evidence, EvidenceKind, PendingSweep, Publisher, Reader,
    ReceiptStore, Stage2Verdict, VerifiedEntry,
};
pub use config::{NodeBehavior, NodeConfig, Stage2Mode, Stage2RetryPolicy, TierConfig};
pub use error::CoreError;
pub use local::LocalNode;
pub use node::{NodeStats, OffchainNode};
pub use node_key::NodeKey;
pub use publisher_keys::{PublisherKeys, Verified};
pub use service::{deploy_service, ServiceConfig, ServiceDeployment, Subscription};
pub use types::{
    AppendRequest, CommitPhase, EntryId, EpochCommit, ShardGroup, SignedResponse, Stage2Record,
};
