//! # wedge-contracts
//!
//! The WedgeBlock smart contracts (paper §4.4–4.5), transcribed from the
//! paper's Algorithms 1–3 and run by the `wedge-chain` contract host:
//!
//! - [`RootRecord`] — the on-chain digest store (Algorithm 1).
//! - [`Punishment`] — escrow + AoN punishment via `recoverSigner`
//!   (Algorithm 2).
//! - [`Payment`] — the logging-as-a-service subscription stream
//!   (Algorithm 3).
//! - [`ClusterRoot`] — the sharded cluster's per-epoch root-of-roots
//!   commit (one transaction covers every shard's group).
//!
//! Plus the two baseline contracts the evaluation compares against:
//!
//! - [`OclLog`] — raw on-chain logging (OCL).
//! - [`RhlRollup`] — rollup-inspired hybrid logging with fraud-proof
//!   challenges (RHL).
//!
//! [`response_digest`] and [`attestation_digest`] define the exact bytes an
//! Offchain Node signs for a batch of stage-1 responses, shared with the
//! Punishment contract's verification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster_root;
mod digest;
mod ocl_log;
mod payment;
mod punishment;
mod rhl_rollup;
mod root_record;

pub use cluster_root::ClusterRoot;
pub use digest::{
    attestation_digest, attestation_from_bytes, response_digest, response_digest_bytes,
    MAX_ATTESTATION_PATH,
};
pub use ocl_log::OclLog;
pub use payment::{Payment, PaymentStatus, PaymentTerms};
pub use punishment::{Punishment, PunishmentStatus};
pub use rhl_rollup::{BatchStatus, RhlRollup};
pub use root_record::RootRecord;
