//! # wedge-net
//!
//! TCP transport for the WedgeBlock logging service, mirroring the paper's
//! prototype in which the Offchain Node and the client roles are separate
//! processes communicating over RPC (§5).
//!
//! - [`NodeServer`] — serves any [`wedge_core::LogService`] (normally an
//!   `OffchainNode`) on a TCP address: one reader thread and one coalescing
//!   writer thread per connection, pooled frame buffers, and [`NetStats`]
//!   metering.
//! - [`RemoteNode`] — a client connection that itself implements
//!   `LogService`, so `Publisher`, `Reader` and `Auditor` work across the
//!   network unchanged.
//!
//! One connection is multiplexed: every frame carries a request id, and
//! asynchronous append replies (issued at batch-flush time) interleave with
//! synchronous reads. A client that wants more parallelism opens more
//! connections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod client;
mod server;
mod stats;
pub mod wire;

pub use client::RemoteNode;
pub use server::{NodeServer, ServerConfig};
pub use stats::NetStats;
