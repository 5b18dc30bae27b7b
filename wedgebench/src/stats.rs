//! Every read of a product stats struct (`NodeStats`, `NetStats`,
//! `SyncStats`, `TierStats`, `RecoveryStats`, `CoordinatorStats`, and the
//! process-wide hash and pool counters) lives in this file: ROADMAP plans to
//! replace those structs with one telemetry plane, and then only this file
//! changes. End-to-end metrics never come from here.

use std::collections::BTreeMap;

use wedge_cluster::EpochCoordinator;
use wedge_core::OffchainNode;
use wedge_net::NodeServer;
use wedge_storage::LogStore;

use crate::outcome::Metrics;

/// A snapshot of named monotonic counters.
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn put(&mut self, name: &'static str, value: u64) {
        *self.0.entry(name).or_insert(0.0) += value as f64;
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(name, value)| (*name, value - earlier.get(name)))
                .collect(),
        )
    }

    /// Adds another snapshot in (the shards of a cluster).
    pub fn absorb(&mut self, other: &Counters) {
        for (name, value) in &other.0 {
            *self.0.entry(name).or_insert(0.0) += value;
        }
    }
}

/// Process-wide counters: Keccak digests and pool clamping.
pub fn process() -> Counters {
    let mut c = Counters::default();
    c.put("hashes_computed", wedge_crypto::hash::hashes_computed());
    c.put("hash_batches_x4", wedge_crypto::hash::hash_batches_x4());
    c.put(
        "oversubscription_avoided",
        wedge_pool::oversubscription_avoided(),
    );
    c
}

pub fn node(node: &OffchainNode) -> Counters {
    let stats = node.stats();
    let mut c = Counters::default();
    c.put("batches_flushed", stats.batches_flushed);
    c.put("entries_ingested", stats.entries_ingested);
    c.put("requests_rejected", stats.requests_rejected);
    c.put("pipeline_stalls", stats.pipeline_stalls);
    c.put("merkle_par_chunks", stats.merkle_par_chunks);
    c.put("fsyncs_coalesced", stats.fsyncs_coalesced);
    c.put("replication_shortfalls", stats.replication_shortfalls);
    c.put("segments_sealed", stats.segments_sealed);
    c.put("restart_replayed_records", stats.restart_replayed_records);
    c.put("stage2_txs_submitted", stats.stage2_txs_submitted);
    c.put("stage2_committed", stats.stage2_committed);
    c.put("stage2_retries", stats.stage2_retries);
    c.put("stage2_failed", stats.stage2_failed);
    c.put("stage2_gas", stats.stage2_gas.0);
    c
}

pub fn net(server: &NodeServer) -> Counters {
    let stats = server.stats();
    let mut c = Counters::default();
    c.put("frames_rx", stats.frames_rx);
    c.put("rx_bytes", stats.rx_bytes);
    c.put("tx_bytes", stats.tx_bytes);
    c.put("replies_sent", stats.replies_sent);
    c.put("writes_issued", stats.writes_issued);
    c.put("queue_shed", stats.queue_shed);
    c.put("slow_client_kills", stats.slow_client_kills);
    c.put("buffer_pool_hits", stats.buffer_pool_hits);
    c.put("buffer_pool_misses", stats.buffer_pool_misses);
    c
}

pub fn coordinator(coordinator: &EpochCoordinator) -> Counters {
    let stats = coordinator.stats();
    let mut c = Counters::default();
    c.put("epochs_committed", stats.epochs_committed);
    c.put("txs_submitted", stats.txs_submitted);
    c.put("retries", stats.retries);
    c.put("gas_total", stats.gas_total);
    let groups: usize = coordinator
        .records()
        .iter()
        .flat_map(|record| record.shards.iter().map(|slice| slice.roots.len()))
        .sum();
    c.put("groups_folded", groups as u64);
    c
}

pub fn store(store: &LogStore) -> Counters {
    let sync = store.sync_stats();
    let tier = store.tier_stats();
    let recovery = store.recovery_stats();
    let mut c = Counters::default();
    c.put("fsyncs", sync.fsyncs);
    c.put("fsyncs_coalesced", sync.fsyncs_coalesced);
    c.put("cold_segments", tier.cold_segments);
    c.put("hot_segments", tier.hot_segments);
    c.put("segments_sealed", tier.segments_sealed);
    c.put("cold_reads", tier.cold_reads);
    c.put("scanned_records", recovery.scanned_records);
    c.put("scanned_segments", recovery.scanned_segments);
    c
}

/// The per-layer metrics that are `NodeStats` deltas over the windows.
pub fn put_node_layers(delta: &Counters, gas_used: f64, m: &mut Metrics) {
    for (metric, counter) in [
        ("core.batches_flushed", "batches_flushed"),
        ("core.pipeline_stalls", "pipeline_stalls"),
        ("core.requests_rejected", "requests_rejected"),
        ("merkle.par_chunks", "merkle_par_chunks"),
        ("storage.fsyncs_coalesced", "fsyncs_coalesced"),
        ("storage.replication_shortfalls", "replication_shortfalls"),
        ("storage.segments_sealed", "segments_sealed"),
        ("core.stage2.txs_submitted", "stage2_txs_submitted"),
        ("core.stage2.retries", "stage2_retries"),
        ("core.stage2.failed", "stage2_failed"),
    ] {
        m.put(metric, delta.get(counter), 1);
    }
    // A single node commits for itself; the shards of a cluster leave it to
    // the coordinator and submit nothing.
    let txs = delta.get("stage2_txs_submitted");
    if txs > 0.0 {
        m.put(
            "core.stage2.positions_per_tx",
            delta.get("stage2_committed") / txs,
            1,
        );
        m.put("chain.gas_per_tx", gas_used / txs, 1);
    }
}

/// The per-layer metrics that are process-wide counter deltas. The hash
/// count covers client and server, which share the process; the replay
/// gives the node's own.
pub fn put_process_layers(delta: &Counters, ops: usize, m: &mut Metrics) {
    m.put(
        "crypto.hashes_per_op",
        delta.get("hashes_computed") / ops.max(1) as f64,
        1,
    );
    m.put(
        "pool.oversubscription_avoided",
        delta.get("oversubscription_avoided"),
        1,
    );
}

/// The per-layer metrics that are `NetStats` deltas; `frames` is the
/// operations the windows sent over the wire.
pub fn put_net_layers(delta: &Counters, frames: usize, m: &mut Metrics) {
    let per = |total: &str, count: &str| delta.get(total) / delta.get(count).max(1.0);
    m.put("net.rx_bytes_per_op", per("rx_bytes", "frames_rx"), 1);
    m.put("net.tx_bytes_per_op", per("tx_bytes", "replies_sent"), 1);
    m.put(
        "net.replies_per_write",
        per("replies_sent", "writes_issued"),
        1,
    );
    let acquisitions = delta.get("buffer_pool_hits") + delta.get("buffer_pool_misses");
    m.put(
        "net.pool_hit_ratio",
        delta.get("buffer_pool_hits") / acquisitions.max(1.0),
        1,
    );
    m.put("net.queue_shed", delta.get("queue_shed"), 1);
    m.put("net.slow_client_kills", delta.get("slow_client_kills"), 1);
    m.put(
        "net.frames_rx_per_op",
        delta.get("frames_rx") / frames.max(1) as f64,
        1,
    );
}
