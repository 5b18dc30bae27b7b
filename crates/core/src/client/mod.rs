//! Client roles (paper §4.2): [`Publisher`], [`Reader`] (the paper's User),
//! and [`Auditor`]. All three decide a response against the chain with one
//! function, [`judge()`]; where the response's proof has just been checked
//! (the Reader, the Auditor's scan), with its root comparison alone.

mod auditor;
mod judge;
mod publisher;
mod reader;
mod receipts;

pub use auditor::{AuditReport, Auditor, Evidence};
pub(crate) use judge::RootLookup;
pub use judge::{judge, EvidenceKind, Stage2Verdict};
pub use publisher::{AppendOutcome, PendingSweep, Publisher};
pub use reader::{Reader, VerifiedEntry};
pub use receipts::ReceiptStore;
