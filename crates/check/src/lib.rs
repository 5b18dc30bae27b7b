//! `wedge-check` — a vendored, dependency-free "loom-lite": a deterministic
//! scheduler that exhaustively explores thread interleavings of small
//! executable models, with DPOR-style sleep-set pruning.
//!
//! WedgeBlock's safety story (reply ⇒ durable, exactly-once stage-2 commit,
//! gapless positions) rests on the Offchain Node never wedging or racing.
//! The static rules in `wedge-lint` (L7–L9) catch structural hazards; this
//! crate *executes* the three riskiest protocols under every schedule up to
//! a bound and asserts their invariants in each one:
//!
//! - [`models::shutdown`] — pipeline shutdown drain via sender-drop order,
//! - [`models::slow_client`] — `deliver_append` grace-then-kill vs. the
//!   coalescing writer's drain,
//! - [`models::epoch`] — epoch root collection vs. late shard reports.
//!
//! Models are plain closures using `check::` primitives in place of `std`/
//! `crossbeam` ones: [`sync::Mutex`], [`sync::atomic`], [`channel`],
//! [`thread::spawn`], plus [`nondet`] for explicit decision points. Run one
//! with [`explore`] (bounded) or [`check`] (default bounds); the returned
//! [`Report`] carries explored/pruned schedule counts and the first failing
//! schedule, if any. See `docs/model-checking.md` for how to write a model.
//!
//! This crate is deliberately NOT covered by the workspace's panic-freedom
//! lint: a model checker *reports* bugs by panicking the failing schedule.

#![forbid(unsafe_code)]

mod rt;

pub mod channel;
pub mod models;
pub mod sync;
pub mod thread;

pub use rt::{check, explore, nondet, nondet_bool, yield_now, Config, Report};
