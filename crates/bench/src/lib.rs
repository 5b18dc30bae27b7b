//! # wedge-bench
//!
//! Shared experiment harness for regenerating every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index). The
//! `repro` binary drives the experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod workload;
