//! The benchmark's contract: workload names, metric names, units, bounds.
//! `BENCHMARK.json` at the repository root says the same thing to the
//! acceptance driver; a unit test keeps the two in step.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    AppendSat,
    AppendPaced,
    ReadBesideWrite,
    ClusterInproc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AppendSat,
        Workload::AppendPaced,
        Workload::ReadBesideWrite,
        Workload::ClusterInproc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AppendSat => "append_sat",
            Workload::AppendPaced => "append_paced",
            Workload::ReadBesideWrite => "read_beside_write",
            Workload::ClusterInproc => "cluster_inproc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (`BENCHMARK.json` carries the
    /// same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::AppendSat => {
                "closed loop over TCP, 2 x 2048 in flight, 1088 B entries: every compute layer is busy, so per-op savings in crypto, merkle, storage and net show here"
            }
            Workload::AppendPaced => {
                "open loop over TCP at 2 x 1000 ops/s (a quarter of saturation): compute is idle and replies wait on batch fill, linger, group commit and the chain, so batching-policy changes show here"
            }
            Workload::ReadBesideWrite => {
                "verified reads (cold set plus hot tail) on one connection beside 2000 ops/s of appends on another: a write-path gain that costs readers, or the reverse, shows here"
            }
            Workload::ClusterInproc => {
                "no wedge-net: 2-shard LocalCluster, 320 B entries, epoch commits: net changes predict no change here; guards the epoch committer, root-of-roots fold and router"
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the share of
/// the baseline median by which it may worsen before it is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// Every workload reports every one of these. The timed ones are the median
/// over a run's rounds. Their bounds are the widest the acceptance contract
/// allows, 25 %: on the 2-core reference box the quartile spread over ten
/// seeds is 1-13 % in a quiet hour and reached 23 % in a noisy one (see the
/// README). The read metrics did not repeat within any bound there and are
/// per-layer metrics.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "median of the run's complete set-ups: chain, contracts, node with replicas, server, connections, 4000 warm-up appends pre-signed, acknowledged and settled on chain",
    },
    EndToEnd {
        name: "append_ops_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "acknowledged durable appends per second over a timed window",
    },
    EndToEnd {
        name: "append_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "median time from an append's submit call (closed loop) or due time (open loop) to its reply callback",
    },
    EndToEnd {
        name: "append_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "99th percentile of the same",
    },
    EndToEnd {
        name: "stage2_lag_p50_sim_s",
        unit: "sim_s",
        better: Lower,
        bound: 0.20,
        what: "median simulated seconds from a position's last reply to the first RootRecord view (polled every simulated second) that shows its root under the chain's confirmation depth; on the cluster, to the return of the covering run_epoch",
    },
    EndToEnd {
        name: "gas_per_op",
        unit: "gas/op",
        better: Lower,
        bound: 0.25,
        what: "gas used after set-up divided by acknowledged appends",
    },
    EndToEnd {
        name: "disk_bytes_per_payload_byte",
        unit: "B/B",
        better: Lower,
        bound: 0.02,
        what: "bytes in the primary store directory divided by acknowledged payload bytes",
    },
];

/// A per-layer metric: moves when one layer changes; has no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by a `--trace 1` run. A metric of a layer the workload bypasses
/// reads 0 (no `net.*` on `cluster_inproc`, no `cluster.*` elsewhere).
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.batch_fill_ms", "ms", Lower),
    layer("core.queue_wait_p50_ms", "ms", Lower),
    layer("core.batch_service_ms", "ms", Lower),
    layer("core.ops_per_batch", "count", Higher),
    layer("core.batches_flushed", "count", Lower),
    layer("core.pipeline_stalls", "count", Lower),
    layer("core.requests_rejected", "count", Lower),
    layer("core.collect.verify_us_per_op", "us", Lower),
    layer("core.collect.leaf_encode_us_per_op", "us", Lower),
    layer("merkle.build_us_per_op", "us", Lower),
    layer("merkle.prove_us_per_op", "us", Lower),
    layer("merkle.par_chunks", "count", Higher),
    layer("crypto.sign_batch_us_per_op", "us", Lower),
    layer("crypto.sign_single_us", "us", Lower),
    layer("crypto.hashes_per_op", "count", Lower),
    layer("crypto.x4_share", "ratio", Higher),
    layer("storage.append_us_per_op", "us", Lower),
    layer("storage.durable_wait_us_per_batch", "us", Lower),
    layer("storage.fsyncs_per_batch", "count", Lower),
    layer("storage.fsyncs_coalesced", "count", Higher),
    layer("storage.replicate_us_per_batch", "us", Lower),
    layer("storage.replication_shortfalls", "count", Lower),
    layer("storage.read_hot_us", "us", Lower),
    layer("storage.read_cold_us", "us", Lower),
    layer("storage.segments_sealed", "count", Higher),
    layer("storage.reopen_ms", "ms", Lower),
    layer("storage.replayed_records", "count", Lower),
    layer("core.read_node_us", "us", Lower),
    layer("core.client.verify_response_us", "us", Lower),
    layer("core.client.chain_lookups", "count", Lower),
    layer("read_ops_s", "1/s", Higher),
    layer("read_p50_ms", "ms", Lower),
    layer("read_p99_ms", "ms", Lower),
    layer("net.encode_request_us", "us", Lower),
    layer("net.decode_request_us", "us", Lower),
    layer("net.encode_reply_us", "us", Lower),
    layer("net.rx_bytes_per_op", "B", Lower),
    layer("net.tx_bytes_per_op", "B", Lower),
    layer("net.submit_call_us", "us", Lower),
    layer("net.flush_call_us", "us", Lower),
    layer("net.replies_per_write", "count", Higher),
    layer("net.pool_hit_ratio", "ratio", Higher),
    layer("net.queue_shed", "count", Lower),
    layer("net.slow_client_kills", "count", Lower),
    layer("net.frames_rx_per_op", "count", Lower),
    layer("net.added_p50_ms", "ms", Lower),
    layer("net.throughput_ratio", "ratio", Higher),
    layer("net.read_rtt_us", "us", Lower),
    layer("core.stage2.positions_per_tx", "count", Higher),
    layer("core.stage2.txs_submitted", "count", Lower),
    layer("core.stage2.retries", "count", Lower),
    layer("core.stage2.failed", "count", Lower),
    layer("core.stage2.lag_p99_sim_s", "sim_s", Lower),
    layer("chain.gas_per_tx", "gas", Lower),
    layer("chain.blocks_mined", "count", Lower),
    layer("cluster.epochs_committed", "count", Lower),
    layer("cluster.txs_per_epoch", "count", Lower),
    layer("cluster.groups_per_epoch", "count", Higher),
    layer("cluster.retries", "count", Lower),
    layer("cluster.run_epoch_ms", "ms", Lower),
    layer("cluster.shard_imbalance", "ratio", Lower),
    layer("pool.chunks_dispatched", "count", Lower),
    layer("pool.oversubscription_avoided", "count", Lower),
    layer("gen.late_p99_ms", "ms", Lower),
    layer("proc.rss_growth_mb", "MB", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("budget.cpu_accounted_share", "ratio", Higher),
    layer("budget.service_accounted_share", "ratio", Higher),
];

/// The text of `BENCHMARK.json`: this table in the acceptance driver's
/// format (`wedgebench spec` prints it).
pub fn benchmark_json() -> String {
    use crate::json::Json;
    let list = |items: Vec<Json>| {
        let rows: Vec<String> = items
            .iter()
            .map(|item| format!("    {}", item.render()))
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "wedgebench/Cargo.toml",
        "--",
    ];
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.name())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.name())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"wedgebench\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(command.iter().map(|c| Json::str(*c)).collect()).render(),
        crate::fixed::RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// Names start with a letter or digit and use only letters, digits, `_`,
    /// `.` and `-`, at most 64 of them.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Units use letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        assert!(valid_name("core.collect.verify_us_per_op"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
        assert!(valid_unit("gas/op"));
        assert!(!valid_unit("a unit"));
        let mut seen = BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary reports. They must say the same thing.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate with `wedgebench spec > BENCHMARK.json`"
        );
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(text.len() < 64 * 1024);
    }
}
