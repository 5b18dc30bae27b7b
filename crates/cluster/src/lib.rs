//! # wedge-cluster
//!
//! Sharded multi-node WedgeBlock: N Offchain Nodes each own a hash-sliced
//! partition of the log namespace and run stage 1 at full speed, while a
//! single **epoch coordinator** folds every shard's pending batch roots
//! into one on-chain *root-of-roots* transaction per epoch — on-chain cost
//! stays one transaction per epoch regardless of shard count, so aggregate
//! append throughput scales with N while gas per entry falls.
//!
//! - [`ShardMap`] / [`ClusterEntryId`] — stateless keccak placement of
//!   publishers onto shards.
//! - [`ClusterClient`] — the shard-aware router: appends by publisher,
//!   reads by cluster id or `(publisher, sequence)`, cross-shard fan-out,
//!   in-place failover.
//! - [`EpochCoordinator`] / [`EpochRecord`] — collect → hold → fold →
//!   send → acknowledge once confirmed, the next epoch sent while the last
//!   one confirms, with exactly-once epoch commits under chain faults.
//! - [`ClusterProof`] — entry → shard epoch root → on-chain cluster root,
//!   also exposed as a `wedge_merkle::ComposedProof`.
//! - [`LocalCluster`] — in-process N-shard deployment for tests and the
//!   `repro -- cluster` benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epoch;
mod local;
mod proof;
mod router;
mod shard;

pub use epoch::{CoordinatorStats, EpochCoordinator, EpochRecord, ShardEpoch};
pub use local::{identity_on_shard, ClusterConfig, LocalCluster};
pub use proof::ClusterProof;
pub use router::ClusterClient;
pub use shard::{ClusterEntryId, ShardMap};
