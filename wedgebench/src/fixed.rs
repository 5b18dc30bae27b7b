//! The fixed set-up: the same on every commit and recorded in every result.
//! Nothing here is a product knob; changing a value here changes what every
//! number means, so it is its own change with a re-measured baseline.

use std::time::Duration;

use wedge_chain::ChainConfig;
use wedge_core::NodeConfig;
use wedge_net::ServerConfig;
use wedge_storage::{StoreConfig, SyncPolicy};

use crate::json::Json;

/// How long one run measures, as `BENCHMARK.json` tells the driver; also
/// the default of `--seconds`. A multiple of [`ROUNDS`], so that an
/// open-loop round is a whole number of full batches.
pub const RUN_SECONDS: u64 = 15;
/// 13 s blocks become 130 ms real, so stage-2 lag (~0.4 s real) is far above
/// scheduler noise while a run still sees dozens of blocks.
pub const COMPRESSION: f64 = 100.0;
/// Load generator threads, connections and publisher identities (`nproc`).
pub const GENERATORS: usize = 2;
/// Appends each closed-loop connection keeps in flight.
pub const WINDOW: usize = 2048;
/// A closed-loop connection tops its window up (one flush) once this many
/// slots are free, so a reply does not cost a one-frame socket write.
pub const TOP_UP: usize = 256;
/// Untimed appends before every timed window: two full batches.
pub const WARMUP_OPS: usize = 4000;
/// Paper default entry: 64 B key + 1 KB value.
pub const ENTRY_BYTES: usize = 64 + 1024;
/// Smallest entry, used where per-op cost should dominate.
pub const SMALL_ENTRY_BYTES: usize = 320;
/// Open-loop rate per generator on `append_paced`.
pub const PACED_OPS_S: f64 = 1000.0;
/// Open-loop writer rate on `read_beside_write`.
pub const BESIDE_WRITE_OPS_S: f64 = 2000.0;
/// Entries preloaded, settled and sealed before `read_beside_write` reads.
pub const PRELOAD_OPS: usize = 24_000;
/// Verified reads of a run, shared among its rounds: each window of
/// appends is followed by its share, reading what the window wrote.
pub const READBACK_READS: usize = 2500;
/// Closed-loop runs are fixed by operation count so that both sides of a
/// comparison receive byte-identical inputs: `--seconds` times these
/// nominal rates (today's saturation on the 2-core reference box).
pub const SAT_NOMINAL_OPS_S: usize = 8000;
pub const CLUSTER_NOMINAL_OPS_S: usize = 12_000;
/// Rounds a run's timed work is split into; each timed metric is the
/// median of its rounds.
pub const ROUNDS: usize = 5;
/// Background load per core during an `append_paced` run: busy for
/// `KEEP_BUSY` of every `KEEP_BUSY_PERIOD` (see `load::KeepBusy`).
pub const KEEP_BUSY: Duration = Duration::from_micros(200);
pub const KEEP_BUSY_PERIOD: Duration = Duration::from_micros(1000);
/// A round whose open-loop generator is later than this at p99 is left out
/// of the run's medians (and a run with most rounds late is invalid).
/// With generator and node on the same two cores a batch's verify burst
/// delays the generator by milliseconds (p99 1-3 ms on `append_paced`, up
/// to 16 ms seen beside a closed-loop reader); latency is timed from the
/// due time, so lateness is counted, and 25 ms is 3% of the median measured.
pub const MAX_LATE_P99_MS: f64 = 25.0;
/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Seconds between `run_epoch` calls on the cluster (one block interval).
pub const EPOCH_EVERY_SIM_S: u64 = 13;
/// Batches pushed through each layer by the replay of a traced run.
pub const REPLAY_BATCHES: usize = 6;
/// Any wait on the system under test gives up after this long.
pub const PATIENCE: Duration = Duration::from_secs(60);

const GROUP_COMMIT_BATCHES: usize = 8;
const GROUP_COMMIT_DELAY: Duration = Duration::from_millis(2);
const SEGMENT_BYTES: u64 = 8 << 20;
const REPLICAS: usize = 2;

/// Shipped batching defaults (`batch_size` 2000, `batch_linger` 20 ms,
/// `verify_requests` on) with the paper's durable, replicated configuration
/// and segments small enough that sealing and checkpointing run many cycles.
pub fn node_config() -> NodeConfig {
    NodeConfig {
        replicas: REPLICAS,
        store: StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: GROUP_COMMIT_BATCHES,
                max_delay: GROUP_COMMIT_DELAY,
            },
            max_segment_bytes: SEGMENT_BYTES,
            ..StoreConfig::default()
        },
        ..NodeConfig::default()
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig::default()
}

pub fn chain_config() -> ChainConfig {
    ChainConfig::default()
}

/// The fixed set-up as recorded in every result document.
pub fn describe() -> Json {
    let node = node_config();
    let num = |n: usize| Json::Num(n as f64);
    Json::obj([
        ("transport", Json::str("tcp over host loopback 127.0.0.1")),
        ("clock_compression", Json::Num(COMPRESSION)),
        ("generators", num(GENERATORS)),
        ("connections", num(GENERATORS)),
        ("window_per_connection", num(WINDOW)),
        ("top_up", num(TOP_UP)),
        ("warmup_ops", num(WARMUP_OPS)),
        ("entry_bytes", num(ENTRY_BYTES)),
        ("small_entry_bytes", num(SMALL_ENTRY_BYTES)),
        ("paced_ops_s_per_generator", Json::Num(PACED_OPS_S)),
        ("beside_write_ops_s", Json::Num(BESIDE_WRITE_OPS_S)),
        ("preload_ops", num(PRELOAD_OPS)),
        ("readback_reads", num(READBACK_READS)),
        ("sat_nominal_ops_s", num(SAT_NOMINAL_OPS_S)),
        ("cluster_nominal_ops_s", num(CLUSTER_NOMINAL_OPS_S)),
        ("setup_reps", num(SETUP_REPS)),
        ("rounds", num(ROUNDS)),
        (
            "keep_busy_share_per_core_on_append_paced",
            Json::Num(KEEP_BUSY.as_secs_f64() / KEEP_BUSY_PERIOD.as_secs_f64()),
        ),
        ("replay_batches", num(REPLAY_BATCHES)),
        (
            "node",
            Json::obj([
                ("batch_size", num(node.batch_size)),
                (
                    "batch_linger_ms",
                    Json::Num(node.batch_linger.as_secs_f64() * 1e3),
                ),
                ("verify_requests", Json::Bool(node.verify_requests)),
                ("worker_threads", num(node.worker_threads)),
                ("pipeline_depth", num(node.pipeline_depth)),
                ("stage2_max_group", num(node.stage2_max_group)),
                ("replicas", num(node.replicas)),
                (
                    "sync",
                    Json::str(format!(
                        "GroupCommit {{ max_batches: {GROUP_COMMIT_BATCHES}, max_delay: {GROUP_COMMIT_DELAY:?} }}"
                    )),
                ),
                ("max_segment_bytes", Json::Num(SEGMENT_BYTES as f64)),
            ]),
        ),
        ("server", Json::str("ServerConfig::default()")),
        ("chain", Json::str("ChainConfig::default()")),
        ("cluster_shards", num(GENERATORS)),
    ])
}
