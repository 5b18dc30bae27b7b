//! Executable models of the system's riskiest concurrent protocols.
//!
//! Each model mirrors one protocol from `crates/core`/`crates/net`/
//! `crates/cluster` using
//! `check::` primitives, asserts the protocol's invariants, and takes a
//! `broken` flag that re-introduces the hazard the real code is built to
//! avoid — proving the checker finds the bug, not just that the fixed
//! protocol passes.

pub mod epoch;
pub mod shutdown;
pub mod slow_client;
