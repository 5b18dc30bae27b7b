//! The stage-1 flush pipeline (paper §4.3, append requests).
//!
//! Requests accumulate into the *current batch*; a batch flushes when it
//! reaches `batch_size` or after `batch_linger` of quiet. A flushed batch
//! then flows through three pipelined stages connected by bounded channels
//! (depth [`crate::NodeConfig::pipeline_depth`]), so batch N+1's signature
//! verification overlaps batch N's fsync and replication:
//!
//! 1. **collect** — batch requests and *check* them: verify publisher
//!    signatures (parallel), reply to the invalid ones at once, then
//!    encode the survivors' leaves, frame them as log records (the only
//!    CRC pass a payload gets) and hash them as Merkle leaves in one pass
//!    on the work pool, each worker its own span. The open batch is a
//!    checked prefix plus an unchecked tail; the tail is checked while
//!    the batch fills whenever the ingest queue is momentarily empty and
//!    every publisher in it has a run of at least `EARLY_RUN` requests
//!    there, and whatever is left is checked when the batch closes. The
//!    batch goes downstream as a `VerifiedBatch`: the surviving requests
//!    in arrival order (`msgs`), their leaf encodings (`leaves`), those
//!    leaves framed as log records, one part per worker span of each
//!    check (`frames`), and their Merkle leaf hashes (`leaf_hashes`), all
//!    index-aligned;
//! 2. **persist** — fold the batch's Merkle tree over the collect stage's
//!    leaf hashes (interior levels parallel above
//!    [`crate::NodeConfig::merkle_parallel_cutoff`]), prepend the header
//!    record to the collect stage's frames, hand the same frames to the
//!    replicas and to the local store (link #2 of Figure 2), then join
//!    both — the stage pays max(local, replication) instead of the sum;
//! 3. **deliver** — sign the batch's responses (one node signature over the
//!    Merkle root of their digests, each reply carrying its path), wait for the
//!    group-commit fsync covering the batch, register the batch in
//!    the write plane (publishing a new read snapshot), deliver the
//!    replies (completing link #1 — stage-1 / off-chain commitment), and
//!    wake the stage-2 committer, which derives its pending group from the
//!    published snapshot (link #3).
//!
//! Shutdown drains exactly-once by construction: when the ingest channel
//! disconnects, collect checks and flushes its partial batch (checked
//! prefix and tail) and drops its sender;
//! persist drains, exits, and drops *its* sender; deliver drains and exits.
//! Every accepted request gets exactly one reply — success from deliver, or
//! an error from deliver when its batch failed to persist.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use wedge_chain::Address;
use wedge_crypto::Hash32;
use wedge_merkle::{hash_leaves, MerkleTree};
use wedge_pool::WorkPool;
use wedge_storage::Frames;

use crate::config::NodeBehavior;
use crate::types::{AppendRequest, EntryId, SignedResponse};

use super::state::{encode_header, frame_leaves, BatchMeta};
use super::{tamper, IngestMsg, Shared};

/// A signature-verified batch, bound for the persist stage (and, while
/// it fills, the collect stage's checked prefix).
#[derive(Default)]
struct VerifiedBatch {
    msgs: Vec<IngestMsg>,
    /// Leaf encodings, index-aligned with `msgs`.
    leaves: Vec<Vec<u8>>,
    /// The leaves framed as log records: one part per worker span of each
    /// check, in order.
    frames: Vec<Frames>,
    /// Merkle leaf hashes of `leaves`, index-aligned.
    leaf_hashes: Vec<Hash32>,
}

/// A persist-stage outcome, bound for the deliver stage. Failures travel
/// the same channel so replies stay in submission order.
enum PersistOutcome {
    /// Durable on the local store (and replicated, when configured).
    Persisted {
        msgs: Vec<IngestMsg>,
        /// The collect stage's leaf encodings, moved into the responses.
        leaves: Vec<Vec<u8>>,
        tree: MerkleTree,
        log_id: u64,
        first_record: u64,
    },
    /// The local append failed; `log_id` was not consumed.
    Failed { msgs: Vec<IngestMsg>, error: String },
}

/// Batcher main loop: runs the three pipeline stages on scoped threads and
/// returns once all of them have drained and exited.
pub(crate) fn run(shared: Arc<Shared>, rx: Receiver<IngestMsg>, stage2_wake: Sender<()>) {
    let depth = shared.config.pipeline_depth.max(1);
    let (persist_tx, persist_rx) = bounded::<VerifiedBatch>(depth);
    let (deliver_tx, deliver_rx) = bounded::<PersistOutcome>(depth);
    let shared = &shared;
    let _ = crossbeam::thread::scope(move |scope| {
        scope.spawn(move |_| collect_stage(shared, rx, persist_tx));
        scope.spawn(move |_| persist_stage(shared, persist_rx, deliver_tx));
        scope.spawn(move |_| deliver_stage(shared, deliver_rx, stage2_wake));
    });
}

/// Hands a value downstream, counting a `pipeline_stalls` when the bounded
/// queue is full and the send has to block. Returns the value when the
/// receiving stage is gone (unreachable while the scope is alive — each
/// receiver outlives its senders — but never silently dropped).
fn send_downstream<T>(shared: &Shared, tx: &Sender<T>, value: T) -> Result<(), T> {
    match tx.try_send(value) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(value)) => {
            shared.stats.lock().pipeline_stalls += 1;
            tx.send(value).map_err(|e| e.0)
        }
        Err(TrySendError::Disconnected(value)) => Err(value),
    }
}

/// Stage 1: accumulate requests into batches, check each arriving prefix
/// while the batch fills, and hand closed batches to the persist stage.
///
/// An empty ingest channel only ever *triggers* an early check; the loop
/// still ends on disconnect alone, so no request queued behind a
/// momentarily empty channel is lost.
fn collect_stage(shared: &Shared, rx: Receiver<IngestMsg>, persist_tx: Sender<VerifiedBatch>) {
    let mut filling = Filling::default();
    loop {
        match rx.recv_timeout(shared.config.batch_linger) {
            Ok(msg) => {
                filling.push(msg);
                if filling.received >= shared.config.batch_size {
                    filling.forward(shared, &persist_tx);
                } else if filling.ripe() && rx.is_empty() {
                    filling.check(shared, true);
                }
            }
            Err(RecvTimeoutError::Timeout) => filling.forward(shared, &persist_tx),
            Err(RecvTimeoutError::Disconnected) => {
                filling.forward(shared, &persist_tx);
                break; // drops persist_tx: the persist stage drains and exits
            }
        }
    }
}

/// Requests of one publisher an unchecked tail must hold, for every
/// publisher in it, before the collect stage checks it early. A run of `n`
/// requests under a remembered key is checked with one equation whose
/// multi-scalar multiplication costs ~39 / 33 / 28 / 24 bucket additions
/// per item at n = 128 / 256 / 500 / 1,000 (`msm_u128`'s window choice), so
/// cutting a batch's runs at ≥ 256 costs little over checking them whole;
/// many light publishers (runs under the combined equation's minimum)
/// never meet it and are checked at close, as one pass.
const EARLY_RUN: usize = 256;

/// The open batch: the checked prefix in persist-ready form (survivors
/// only, rejects already answered) and the unchecked tail behind it.
#[derive(Default)]
struct Filling {
    checked: VerifiedBatch,
    unchecked: Vec<IngestMsg>,
    /// Requests received into this batch, rejects included: the batch is
    /// the first `batch_size` received, minus its rejects.
    received: usize,
    /// Requests per publisher in `unchecked`.
    runs: HashMap<Address, usize>,
    /// Publishers in `unchecked` with fewer than [`EARLY_RUN`] requests
    /// there.
    short_runs: usize,
}

impl Filling {
    fn push(&mut self, msg: IngestMsg) {
        let run = self.runs.entry(msg.request.publisher).or_default();
        *run += 1;
        match *run {
            1 => self.short_runs += 1,
            EARLY_RUN => self.short_runs -= 1,
            _ => {}
        }
        self.unchecked.push(msg);
        self.received += 1;
    }

    /// Whether checking the tail now leaves every publisher's run at least
    /// [`EARLY_RUN`] long.
    fn ripe(&self) -> bool {
        !self.unchecked.is_empty() && self.short_runs == 0
    }

    /// Verifies the unchecked tail's publisher signatures (parallel,
    /// against the remembered publisher keys — see
    /// [`crate::PublisherKeys`]), replies to the rejects, and appends the
    /// survivors, encoded, framed and leaf-hashed, to the checked prefix.
    /// `early`: the batch is still filling.
    fn check(&mut self, shared: &Shared, early: bool) {
        let mut tail = std::mem::take(&mut self.unchecked);
        self.runs.clear();
        self.short_runs = 0;
        if shared.config.verify_requests && !tail.is_empty() {
            let requests: Vec<&AppendRequest> = tail.iter().map(|m| &m.request).collect();
            let verified = shared.publisher_keys.verify_batch(&requests, &shared.pool);
            let checked = requests.len() as u64;
            let mut kept = Vec::with_capacity(tail.len());
            let mut rejected = Vec::new();
            for (msg, ok) in tail.into_iter().zip(verified.verdicts) {
                if ok {
                    kept.push(msg);
                } else {
                    rejected.push(msg);
                }
            }
            {
                // Count before replying so observers never see a rejection
                // reply ahead of its counter.
                let mut stats = shared.stats.lock();
                stats.requests_verified_cached += checked - verified.recovered;
                stats.requests_verified_recovered += verified.recovered;
                stats.requests_rejected += rejected.len() as u64;
                if early {
                    stats.requests_verified_early += checked;
                }
            }
            for msg in rejected {
                (msg.reply)(Err("invalid request signature".into()));
            }
            tail = kept;
        }
        self.checked.extend(tail, &shared.pool);
    }

    /// Closes the batch: checks the remainder and hands the survivors to
    /// the persist stage.
    fn forward(&mut self, shared: &Shared, persist_tx: &Sender<VerifiedBatch>) {
        self.check(shared, false);
        self.received = 0;
        let batch = std::mem::take(&mut self.checked);
        if batch.msgs.is_empty() {
            return;
        }
        if let Err(lost) = send_downstream(shared, persist_tx, batch) {
            for msg in lost.msgs {
                (msg.reply)(Err("node pipeline stopped".into()));
            }
        }
    }
}

impl VerifiedBatch {
    /// Appends `msgs` with their leaves encoded, framed and hashed on the
    /// pool.
    fn extend(&mut self, msgs: Vec<IngestMsg>, pool: &WorkPool) {
        if msgs.is_empty() {
            return;
        }
        let requests: Vec<&AppendRequest> = msgs.iter().map(|m| &m.request).collect();
        let (leaves, frames, leaf_hashes) = encode_frame_and_hash(&requests, pool);
        self.msgs.extend(msgs);
        self.leaves.extend(leaves);
        self.frames.extend(frames);
        self.leaf_hashes.extend(leaf_hashes);
    }
}

/// Encodes every request's leaf, frames the leaves as log records and
/// hashes them as Merkle leaves, one contiguous span per worker: returns
/// the leaves and their hashes in request order, and the frames as one
/// part per span, whose concatenation is the requests' leaf records
/// exactly as framing them one by one would lay them out.
fn encode_frame_and_hash(
    requests: &[&AppendRequest],
    pool: &WorkPool,
) -> (Vec<Vec<u8>>, Vec<Frames>, Vec<Hash32>) {
    let spans = pool.fold_chunks(requests, |span| {
        let leaves: Vec<Vec<u8>> = span.iter().map(|r| r.leaf_bytes()).collect();
        let frames = frame_leaves(&leaves);
        let hashes = hash_leaves(&leaves);
        (leaves, frames, hashes)
    });
    let mut leaves = Vec::with_capacity(requests.len());
    let mut parts = Vec::with_capacity(spans.len());
    let mut hashes = Vec::with_capacity(requests.len());
    for (span_leaves, frames, span_hashes) in spans {
        leaves.extend(span_leaves);
        parts.push(frames);
        hashes.extend(span_hashes);
    }
    (leaves, parts, hashes)
}

/// Stage 2: Merkle tree, durable local append, replica fan-out. Owns the
/// log-position counter — a position is consumed only by a successful
/// append, so a persist failure leaves the sequence gapless.
fn persist_stage(
    shared: &Shared,
    persist_rx: Receiver<VerifiedBatch>,
    deliver_tx: Sender<PersistOutcome>,
) {
    // The only writer of new positions; seeded once from the recovered
    // state. Registration (deliver stage) trails this counter by at most
    // the pipeline depth.
    let mut next_log_id = shared.snapshot().batches.len() as u64;
    let cutoff = shared.config.merkle_parallel_cutoff;
    while let Ok(VerifiedBatch {
        msgs,
        leaves,
        frames,
        leaf_hashes,
    }) = persist_rx.recv()
    {
        // `msgs` was checked non-empty by the collect stage, the only
        // failure mode of the builder, which folds the interior levels
        // over the collect stage's leaf hashes.
        let merkle_start = std::time::Instant::now();
        let (tree, par_chunks) =
            MerkleTree::from_leaf_hashes_parallel_counted(leaf_hashes, &shared.pool, cutoff)
                // lint: allow(panic) — non-empty batch invariant upheld upstream
                .expect("non-empty batch");
        let merkle_elapsed = merkle_start.elapsed();
        let root = tree.root();
        let log_id = next_log_id;

        let mut parts = Vec::with_capacity(frames.len() + 1);
        parts.push(Frames::from_payloads(&[encode_header(
            log_id,
            leaves.len() as u32,
            &root,
        )]));
        parts.extend(frames);
        let parts = Arc::new(parts);

        // Overlap: hand the batch to the replicas *before* paying for local
        // durability, then join both below — the stage costs
        // max(local, replication) instead of the sum. Should the local
        // append then fail, the replicas hold a superset of the primary
        // log; they are crash-recovery copies, not the ground truth, so a
        // never-acknowledged batch on a replica is harmless.
        let replication = shared
            .replicator
            .as_ref()
            .map(|replicator| (replicator, replicator.replicate_frames(Arc::clone(&parts))));
        let local_start = std::time::Instant::now();
        let append_result = shared.store.append_frames(&parts);
        let local_elapsed = local_start.elapsed();

        let outcome = match append_result {
            Ok(header_record) => {
                next_log_id += 1;
                // Replicate before acknowledging (the paper's
                // stronger-liveness configuration waits for replica acks).
                if let Some((replicator, handle)) = replication {
                    if handle.wait() < replicator.replica_count() {
                        shared.stats.lock().replication_shortfalls += 1;
                    }
                }
                PersistOutcome::Persisted {
                    msgs,
                    leaves,
                    tree,
                    log_id,
                    first_record: header_record + 1,
                }
            }
            Err(err) => {
                // Storage is the node's ground truth: without a durable copy
                // no stage-1 response may be signed. Reject the batch (via
                // the deliver stage, keeping reply order) instead of taking
                // the node down.
                PersistOutcome::Failed {
                    msgs,
                    error: format!("local log append failed: {err}"),
                }
            }
        };
        {
            let mut stats = shared.stats.lock();
            stats.merkle_par_chunks += par_chunks;
            stats.merkle_hash_ns += merkle_elapsed.as_nanos() as u64;
            if shared.replicator.is_some() {
                // Local persistence time that ran concurrently with the
                // in-flight replica sends.
                stats.replication_overlap_ns += local_elapsed.as_nanos() as u64;
            }
        }
        if let Err(lost) = send_downstream(shared, &deliver_tx, outcome) {
            let (msgs, error) = match lost {
                PersistOutcome::Persisted { msgs, .. } => (msgs, "node pipeline stopped".into()),
                PersistOutcome::Failed { msgs, error } => (msgs, error),
            };
            for msg in msgs {
                (msg.reply)(Err(error.clone()));
            }
        }
    }
    // deliver_tx drops here: the deliver stage drains and exits.
}

/// Stage 3: sign the responses, register the batch (publishing a new read
/// snapshot *before* any reply goes out, so a read issued right after a
/// response always succeeds), deliver replies, wake the stage-2 committer.
fn deliver_stage(shared: &Shared, deliver_rx: Receiver<PersistOutcome>, stage2_wake: Sender<()>) {
    while let Ok(outcome) = deliver_rx.recv() {
        let (batch, leaves, tree, log_id, first_record) = match outcome {
            PersistOutcome::Persisted {
                msgs,
                leaves,
                tree,
                log_id,
                first_record,
            } => (msgs, leaves, tree, log_id, first_record),
            PersistOutcome::Failed { msgs, error } => {
                shared.stats.lock().requests_rejected += msgs.len() as u64;
                for msg in msgs {
                    (msg.reply)(Err(error.clone()));
                }
                continue;
            }
        };
        let root = tree.root();

        // Assemble proofs in parallel, attach the collect stage's leaves,
        // then sign the whole batch of responses with one signature.
        let tampering = matches!(shared.config.behavior, NodeBehavior::TamperResponses { .. })
            && shared.config.behavior.affects(log_id);
        let node_key = *shared.identity.secret_key();
        let responses: Vec<SignedResponse> = {
            let tree = &tree;
            let offsets: Vec<usize> = (0..batch.len()).collect();
            let proofs = shared.pool.map(&offsets, |&offset| {
                // lint: allow(panic) — `offset` enumerates the same batch
                // the tree was built from, so it is always in range
                tree.prove(offset).expect("offset in range")
            });
            let prepared = proofs
                .into_iter()
                .zip(leaves)
                .enumerate()
                .map(|(offset, (proof, mut leaf))| {
                    if tampering {
                        tamper(&mut leaf);
                    }
                    let entry_id = EntryId {
                        log_id,
                        offset: offset as u32,
                    };
                    (entry_id, root, proof, leaf)
                })
                .collect();
            SignedResponse::sign_batch(&node_key, prepared, shared.pool.workers())
        };

        // Group-commit reply-release rule: no reply (and no snapshot
        // registration) may be released before the fsync covering the
        // batch's records completed. Signing above already overlapped the
        // wait.
        let last_record = first_record + batch.len() as u64 - 1;
        let durable = shared.store.ensure_durable(last_record);

        // Register the batch in the write plane — one publication makes the
        // whole batch (metadata + sequence entries + entry count) visible
        // atomically; readers see all of it or none of it.
        let entries: Vec<((wedge_chain::Address, u64), u32)> = batch
            .iter()
            .enumerate()
            .map(|(offset, msg)| ((msg.request.publisher, msg.request.sequence), offset as u32))
            .collect();
        let count = batch.len() as u32;
        let flushed_at = shared.chain.clock().now();
        shared.mutate(move |plane| {
            plane.register_batch(
                BatchMeta {
                    log_id,
                    first_record,
                    count,
                    tree,
                    flushed_at,
                },
                entries,
            );
        });
        {
            let mut stats = shared.stats.lock();
            stats.entries_ingested += batch.len() as u64;
            stats.bytes_ingested += batch
                .iter()
                .map(|m| m.request.payload.len() as u64)
                .sum::<u64>();
            stats.batches_flushed += 1;
            stats.attestations_signed += 1;
        }

        match durable {
            Ok(()) => {
                for (msg, response) in batch.into_iter().zip(responses) {
                    (msg.reply)(Ok(response));
                }
            }
            Err(err) => {
                // The batch stays registered (log positions must remain
                // dense) but was never confirmed durable; acknowledging it
                // would break the reply ⇒ durable invariant. Fail the
                // replies instead — to a client this is indistinguishable
                // from a node crash before the response.
                let error = format!("durability sync failed: {err}");
                shared.stats.lock().requests_rejected += batch.len() as u64;
                for msg in batch {
                    (msg.reply)(Err(error.clone()));
                }
            }
        }

        // The batch is in the published snapshot, which is where the
        // committer finds it: one token is enough however many batches it
        // covers, and a full slot (or a node without a committer thread)
        // needs no wake-up at all.
        let _ = stage2_wake.try_send(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Framing on the pool is invisible on disk: whatever the worker
    /// count, the parts concatenate to the leaf records framed one at a
    /// time (magic, length, CRC, tagged leaf), and the leaves come back in
    /// request order.
    #[test]
    fn frames_built_by_any_number_of_workers_are_the_per_record_bytes() {
        let key = wedge_crypto::SecretKey::from_seed(b"framing publisher");
        let requests: Vec<AppendRequest> = (0..37u64)
            .map(|i| AppendRequest::new(&key, i, vec![i as u8; (i as usize * 29) % 300]))
            .collect();
        let refs: Vec<&AppendRequest> = requests.iter().collect();
        let mut per_record = Vec::new();
        for request in &requests {
            let leaf = request.leaf_bytes();
            let mut record = vec![0x02];
            record.extend_from_slice(&(leaf.len() as u32).to_be_bytes());
            record.extend_from_slice(&leaf);
            per_record.extend_from_slice(&0x5742u16.to_be_bytes());
            per_record.extend_from_slice(&(record.len() as u32).to_be_bytes());
            per_record.extend_from_slice(&wedge_storage::crc32(&record).to_be_bytes());
            per_record.extend_from_slice(&record);
        }
        for workers in [1, 2, 8] {
            let pool = WorkPool::new(workers);
            let (leaves, parts, hashes) = encode_frame_and_hash(&refs, &pool);
            assert_eq!(parts.len(), pool.planned_chunks(refs.len()).max(1));
            let bytes: Vec<u8> = parts.iter().flat_map(Frames::as_bytes).copied().collect();
            assert_eq!(bytes, per_record, "{workers} workers");
            let expect: Vec<Vec<u8>> = requests.iter().map(AppendRequest::leaf_bytes).collect();
            assert_eq!(leaves, expect, "{workers} workers");
            let expect: Vec<Hash32> = expect.iter().map(|l| wedge_merkle::hash_leaf(l)).collect();
            assert_eq!(hashes, expect, "{workers} workers");
        }
    }

    /// A batch checked as arriving prefixes is the batch checked whole:
    /// the same leaves, the same frame bytes and the same leaf hashes in
    /// the same order, on any number of workers, and the tree persist
    /// folds over those hashes has the serial tree's root.
    #[test]
    fn a_batch_built_from_prefixes_is_the_whole_batch_byte_for_byte() {
        let key = wedge_crypto::SecretKey::from_seed(b"prefix publisher");
        let requests: Vec<AppendRequest> = (0..300u64)
            .map(|i| AppendRequest::new(&key, i, vec![i as u8; (i as usize * 37) % 500]))
            .collect();
        let msgs = |range: std::ops::Range<usize>| -> Vec<IngestMsg> {
            requests[range]
                .iter()
                .map(|request| IngestMsg {
                    request: request.clone(),
                    reply: Box::new(|_| {}),
                })
                .collect()
        };
        let leaves: Vec<Vec<u8>> = requests.iter().map(AppendRequest::leaf_bytes).collect();
        let root = MerkleTree::from_leaves(&leaves).unwrap().root();
        for workers in [1, 2, 8] {
            let pool = WorkPool::new(workers);
            let mut whole = VerifiedBatch::default();
            whole.extend(msgs(0..300), &pool);
            for cuts in [&[1, 2][..], &[5, 133, 134, 299], &[256], &[0, 300]] {
                let mut prefixes = VerifiedBatch::default();
                let mut start = 0;
                for &end in cuts.iter().chain([&300]) {
                    prefixes.extend(msgs(start..end), &pool);
                    start = end;
                }
                let sequences = |b: &VerifiedBatch| -> Vec<u64> {
                    b.msgs.iter().map(|m| m.request.sequence).collect()
                };
                let bytes = |b: &VerifiedBatch| -> Vec<u8> {
                    b.frames
                        .iter()
                        .flat_map(Frames::as_bytes)
                        .copied()
                        .collect()
                };
                let context = format!("{workers} workers, cuts {cuts:?}");
                assert_eq!(sequences(&prefixes), sequences(&whole), "{context}");
                assert_eq!(prefixes.leaves, whole.leaves, "{context}");
                assert_eq!(prefixes.leaves, leaves, "{context}");
                assert_eq!(bytes(&prefixes), bytes(&whole), "{context}");
                assert_eq!(prefixes.leaf_hashes, whole.leaf_hashes, "{context}");
                let (tree, _) =
                    MerkleTree::from_leaf_hashes_parallel_counted(prefixes.leaf_hashes, &pool, 2)
                        .unwrap();
                assert_eq!(tree.root(), root, "{context}");
            }
        }
    }
}
