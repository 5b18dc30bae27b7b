//! # WedgeBlock
//!
//! A from-scratch Rust reproduction of *WedgeBlock: An Off-Chain Secure
//! Logging Platform for Blockchain Applications* (EDBT 2023).
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`crypto`] | `wedge-crypto` | Keccak-256, SHA-256, secp256k1 ECDSA with recovery |
//! | [`merkle`] | `wedge-merkle` | Merkle trees, inclusion proofs, multiproofs |
//! | [`sim`] | `wedge-sim` | scaled simulation clock |
//! | [`storage`] | `wedge-storage` | segmented append-only log store |
//! | [`chain`] | `wedge-chain` | simulated Ethereum: accounts, gas, blocks, contracts |
//! | [`contracts`] | `wedge-contracts` | RootRecord, Punishment, Payment (+ baseline contracts) |
//! | [`core`] | `wedge-core` | the LMT protocol: Offchain Node + client roles |
//! | [`baselines`] | `wedge-baselines` | OCL / SOCL / RHL comparison systems |
//!
//! See `examples/quickstart.rs` for the fastest way in, and `DESIGN.md` for
//! the full architecture and per-experiment index.

#![forbid(unsafe_code)]

pub use wedge_baselines as baselines;
pub use wedge_chain as chain;
pub use wedge_contracts as contracts;
pub use wedge_core as core;
pub use wedge_crypto as crypto;
pub use wedge_merkle as merkle;
pub use wedge_net as net;
pub use wedge_sim as sim;
pub use wedge_storage as storage;
