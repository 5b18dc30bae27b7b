//! # wedge-sim
//!
//! Simulation-time substrate: a scalable [`Clock`] that lets blockchain
//! timings (13 s block intervals, ~43 s stage-2 latency) run at
//! millisecond-scale wall time while preserving every latency ratio.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;

pub use clock::{Clock, SimInstant};
