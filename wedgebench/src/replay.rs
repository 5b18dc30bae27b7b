//! The layer replay of a traced run: the workload's request stream pushed
//! batch by batch, one batch at a time, through each layer's public
//! functions in the order the node's batcher calls them, on a fresh store
//! directory. Nothing overlaps, so each number is one layer's own time.
//!
//! The per-op numbers are wall time. Stages the node runs on its work pool
//! are run on a pool here too; for the CPU budget their wall time counts
//! once per worker that shared the work.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use wedge_chain::Encoder;
use wedge_core::{AppendRequest, EntryId, SignedResponse};
use wedge_merkle::MerkleTree;
use wedge_net::wire::{
    decode_request_frame, encode_reply_into, encode_request_into, Reply, Request,
};
use wedge_pool::WorkPool;
use wedge_storage::{LogStore, Replicator};

use crate::fixed;
use crate::load;
use crate::outcome::Metrics;
use crate::scenario::publisher;
use crate::stats;

/// Responses signed one at a time for `crypto.sign_single_us`.
const SINGLE_SIGNS: usize = 200;

pub struct Replay {
    pub metrics: Metrics,
    /// Σ over layers of CPU-busy µs per operation.
    pub busy_us_per_op: f64,
    /// Σ over the stages between a batch closing and its replies leaving,
    /// in ms per batch.
    pub service_ms_per_batch: f64,
}

/// Wall µs spent in `f`, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let began = Instant::now();
    let out = f();
    (began.elapsed().as_secs_f64() * 1e6, out)
}

pub fn run(seed: u64, entry_bytes: usize, scratch: &Path) -> Result<Replay, String> {
    let config = fixed::node_config();
    let batch_size = config.batch_size;
    let batches = fixed::REPLAY_BATCHES;
    let identity = publisher(0);
    let node_key = *publisher(9).secret_key();
    let requests = load::presign(&identity, seed, 0, 0, batches * batch_size, entry_bytes);

    let dir = scratch.join("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let store = LogStore::open(dir.join("log"), config.store.clone())
        .map_err(|e| format!("replay store: {e}"))?;
    let replicator = Replicator::spawn(
        dir.join("replicas"),
        config.replicas,
        config.store.clone(),
        config.replica_link_delay,
    )
    .map_err(|e| format!("replay replicas: {e}"))?;
    let pool = WorkPool::new(config.worker_threads);
    // Workers that share a pooled stage of one batch.
    let par = pool.planned_chunks(batch_size).max(1) as f64;

    let process_before = stats::process();
    // Σ µs per stage over all batches.
    let [mut enc_req, mut dec_req, mut verify, mut leaf, mut merkle, mut replicate] = [0.0f64; 6];
    let [mut append, mut prove, mut sign, mut durable, mut enc_reply] = [0.0f64; 5];
    let mut par_chunks = 0u64;
    let mut last_responses: Vec<SignedResponse> = Vec::new();

    for (log_id, batch) in requests.chunks(batch_size).enumerate() {
        let log_id = log_id as u64;

        // wedge-net, client then server side of the request path.
        let wire_requests: Vec<Request> = batch.iter().cloned().map(Request::Append).collect();
        let (us, frames) = timed(|| {
            wire_requests
                .iter()
                .enumerate()
                .map(|(i, request)| {
                    let mut frame = Vec::new();
                    encode_request_into(&mut frame, i as u64, request).map(|()| frame)
                })
                .collect::<Result<Vec<_>, _>>()
        });
        enc_req += us;
        let frames = frames.map_err(|e| format!("encode request: {e}"))?;
        let (us, decoded) = timed(|| {
            frames
                .iter()
                .map(|frame| decode_request_frame(&frame[4..]))
                .collect::<Result<Vec<_>, _>>()
        });
        dec_req += us;
        decoded.map_err(|e| format!("decode request: {e}"))?;

        // Collect stage: publisher signatures on the pool, leaf encoding.
        let refs: Vec<&AppendRequest> = batch.iter().collect();
        let (us, verdicts) = timed(|| pool.map(&refs, |request| request.verify().is_ok()));
        verify += us;
        if verdicts.contains(&false) {
            return Err("replay: a pre-signed request failed verification".into());
        }
        let (us, leaves) = timed(|| {
            batch
                .iter()
                .map(AppendRequest::leaf_bytes)
                .collect::<Vec<_>>()
        });
        leaf += us;

        // Persist stage: Merkle tree, record encoding, replicas, local log.
        let (us, built) = timed(|| {
            MerkleTree::from_leaves_parallel_counted(&leaves, &pool, config.merkle_parallel_cutoff)
        });
        merkle += us;
        let (tree, chunks) = built.map_err(|e| format!("merkle: {e}"))?;
        par_chunks += chunks;
        let root = tree.root();
        // The node's record framing (tag, length-prefixed body); the tags
        // themselves are private to the node and do not matter to the store.
        let (us, records) = timed(|| {
            let mut records = Vec::with_capacity(leaves.len() + 1);
            let mut header = Encoder::with_capacity(53);
            header
                .u8(0)
                .u64(log_id)
                .u64(leaves.len() as u64)
                .bytes(root.as_bytes());
            records.push(header.finish());
            records.extend(leaves.iter().map(|leaf| {
                let mut enc = Encoder::with_capacity(1 + leaf.len());
                enc.u8(1).bytes(leaf);
                enc.finish()
            }));
            Arc::new(records)
        });
        leaf += us;
        let (us, acked) = timed(|| replicator.replicate_begin(Arc::clone(&records)).wait());
        replicate += us;
        if acked < replicator.replica_count() {
            return Err("replay: a replica did not acknowledge".into());
        }
        let (us, appended) = timed(|| store.append_batch(&records[..]));
        append += us;
        let header_record = appended.map_err(|e| format!("append: {e}"))?;

        // Deliver stage: proofs on the pool, batch signing, durability.
        let items: Vec<(usize, &AppendRequest)> = batch.iter().enumerate().collect();
        let (us, prepared) = timed(|| {
            pool.map(&items, |(offset, request)| {
                let proof = tree.prove(*offset).expect("offset within the batch");
                let id = EntryId {
                    log_id,
                    offset: *offset as u32,
                };
                (id, root, proof, request.leaf_bytes())
            })
        });
        prove += us;
        let (us, responses) =
            timed(|| SignedResponse::sign_batch(&node_key, prepared, pool.workers()));
        sign += us;
        let (us, synced) = timed(|| store.ensure_durable(header_record + batch.len() as u64));
        durable += us;
        synced.map_err(|e| format!("ensure_durable: {e}"))?;

        // wedge-net, server side of the reply path.
        let replies: Vec<Reply> = responses.iter().cloned().map(Reply::Response).collect();
        let (us, encoded) = timed(|| {
            let mut egress = Vec::new();
            replies
                .iter()
                .enumerate()
                .try_for_each(|(i, reply)| encode_reply_into(&mut egress, i as u64, reply))
                .map(|()| egress.len())
        });
        enc_reply += us;
        encoded.map_err(|e| format!("encode reply: {e}"))?;
        last_responses = responses;
    }
    let process = stats::process().since(&process_before);
    let store_counters = stats::store(&store);

    // Per-item signing, as the read path does it.
    let singles: Vec<&SignedResponse> = last_responses.iter().take(SINGLE_SIGNS).collect();
    let (single_us, _) = timed(|| {
        for response in &singles {
            std::hint::black_box(SignedResponse::sign(
                &node_key,
                response.entry_id,
                response.merkle_root,
                response.proof.clone(),
                response.leaf.clone(),
            ));
        }
    });

    drop(replicator);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let ops = requests.len() as f64;
    let n = batches as f64;
    let mut metrics = Metrics::default();
    let mut per_op = |name, total_us: f64| metrics.put(name, total_us / ops, requests.len());
    per_op("net.encode_request_us", enc_req);
    per_op("net.decode_request_us", dec_req);
    per_op("net.encode_reply_us", enc_reply);
    per_op("core.collect.verify_us_per_op", verify);
    per_op("core.collect.leaf_encode_us_per_op", leaf);
    per_op("merkle.build_us_per_op", merkle);
    per_op("merkle.prove_us_per_op", prove);
    per_op("crypto.sign_batch_us_per_op", sign);
    per_op("storage.append_us_per_op", append);
    metrics.put("storage.durable_wait_us_per_batch", durable / n, batches);
    metrics.put("storage.replicate_us_per_batch", replicate / n, batches);
    metrics.put(
        "storage.fsyncs_per_batch",
        store_counters.get("fsyncs") / n,
        batches,
    );
    metrics.put(
        "crypto.sign_single_us",
        single_us / singles.len().max(1) as f64,
        singles.len(),
    );
    let hashes = process.get("hashes_computed");
    metrics.put("crypto.hashes_per_op", hashes / ops, 1);
    metrics.put(
        "crypto.x4_share",
        4.0 * process.get("hash_batches_x4") / hashes.max(1.0),
        1,
    );
    metrics.put(
        "pool.chunks_dispatched",
        pool.chunks_dispatched() as f64 / n,
        batches,
    );
    let merkle_par = if par_chunks > 0 { par } else { 1.0 };

    // CPU: pooled stages keep `par` workers busy for their wall time; each
    // replica repeats the local append on its own thread.
    let busy_us = enc_req
        + dec_req
        + enc_reply
        + leaf
        + append * (1.0 + config.replicas as f64)
        + (verify + prove + sign) * par
        + merkle * merkle_par;
    // Service: what stands between a closed batch and its replies; the
    // replicas work while the local append runs, so the longer one counts.
    let service_us =
        verify + leaf + merkle + append.max(replicate) + prove + sign + durable + enc_reply;
    Ok(Replay {
        metrics,
        busy_us_per_op: busy_us / ops,
        service_ms_per_batch: service_us / n / 1e3,
    })
}
