//! # wedge-storage
//!
//! Durable storage substrate for the Offchain Node: a segmented, CRC-checked
//! append-only record log with crash recovery ([`LogStore`]), plus the
//! replica fan-out used for the paper's replicated-liveness experiments
//! ([`Replicator`]).
//!
//! Records are framed once ([`Frames`]: magic, length, CRC, payload) by
//! whoever produces the batch; the primary store and every replica write
//! those same bytes with one `write(2)` per segment run
//! ([`LogStore::append_frames`], [`Replicator::replicate_frames`]).
//!
//! A store is sealed segments plus exactly one tail. When the tail fills,
//! rotation seals it in place — a locator block and a CRC'd footer are
//! appended to the same file and it is renamed `.wlog` → `.wcold`, so every
//! payload byte is written once — and sealed segments are self-describing
//! (reopening is O(tail)), read through cached `pread` handles, and
//! eventually deleted by the retention policy once they age past the
//! punishment window ([`LogStore::retire_up_to`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod cold;
mod crc32;
mod error;
mod replication;
mod scratch;
mod segment;
mod sidecar;
mod store;

pub use cold::ColdSegment;
pub use crc32::crc32;
pub use error::StorageError;
pub use replication::{Batch, ReplicationHandle, Replicator};
pub use scratch::ScratchDir;
pub use segment::Frames;
pub use sidecar::write_atomic;
pub use store::{LogStore, RecoveryStats, StoreConfig, SyncPolicy, SyncStats, TierStats};
