//! A traced run (`--trace 1`): the per-layer numbers of one workload.
//!
//! End-to-end numbers come from untraced runs. The traced run repeats the
//! workload three ways, one short window each — untraced, traced, and (for
//! the TCP workloads) as an in-process twin with the node itself as the
//! `LogService` — then replays the request stream through each layer. The
//! difference between the first two is what tracing costs; between the
//! first and third, what `wedge-net` adds. Per-layer metrics have no bound
//! and no need of ten-run steadiness, so the windows are short.

use std::path::Path;

use crate::cluster;
use crate::outcome::{Outcome, Plan};
use crate::replay;
use crate::scenario;
use crate::spec::Workload;
use crate::trace;
use crate::world::Transport;

/// Seconds of the single window of each of a traced run's three passes.
const TRACE_WINDOW_S: u64 = 4;

/// Reads of each pass: the fewest that support a p99.
const TRACE_READS: usize = 1000;

pub fn run_plan(plan: &Plan, scratch: &Path) -> Result<Outcome, String> {
    match plan.workload {
        Workload::ClusterInproc => cluster::run(plan),
        _ => scenario::run(plan, scratch),
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    trace_file: &Path,
) -> Result<Outcome, String> {
    let window = Plan::new(workload, seed, seconds.clamp(1, TRACE_WINDOW_S));
    let base = Plan {
        setup_reps: 1,
        rounds: 1,
        readback_reads: TRACE_READS,
        ..window
    };
    let untraced = run_plan(&base, scratch)?;
    let mut traced = run_plan(
        &Plan {
            trace: true,
            ..base.clone()
        },
        scratch,
    )?;
    let twin = match workload {
        Workload::ClusterInproc => None,
        _ => Some(run_plan(
            &Plan {
                transport: Transport::InProcess,
                ..base.clone()
            },
            scratch,
        )?),
    };
    let replay = replay::run(seed, base.entry_bytes, scratch)?;

    trace::write(trace_file, workload.name(), &traced.spans)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let mut metrics = std::mem::take(&mut traced.metrics);
    for measured in &replay.metrics.0 {
        metrics.put(measured.name, measured.value, measured.samples);
    }

    // What tracing cost, on the number the workload exists for.
    let open_loop = matches!(workload, Workload::AppendPaced | Workload::ReadBesideWrite);
    let overhead = if open_loop {
        let clean = untraced.metrics.value("append_p50_ms");
        (metrics.value("append_p50_ms") - clean) / clean
    } else {
        let clean = untraced.metrics.value("append_ops_s");
        (clean - metrics.value("append_ops_s")) / clean
    };
    metrics.put("trace.overhead_share", overhead, 1);

    if let Some(twin) = &twin {
        let tcp = &untraced.metrics;
        metrics.put(
            "net.added_p50_ms",
            tcp.value("append_p50_ms") - twin.metrics.value("append_p50_ms"),
            1,
        );
        metrics.put(
            "net.throughput_ratio",
            tcp.value("append_ops_s") / twin.metrics.value("append_ops_s"),
            1,
        );
        metrics.put(
            "net.read_rtt_us",
            (tcp.value("read_p50_ms") - twin.metrics.value("read_p50_ms")) * 1e3,
            1,
        );
    }

    // How much of the wall the layers explain. Under saturation the cores
    // are the budget: cores ÷ throughput is the CPU time one op may use.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let per_op_budget_us = cores * 1e6 / untraced.metrics.value("append_ops_s");
    metrics.put(
        "budget.cpu_accounted_share",
        replay.busy_us_per_op / per_op_budget_us,
        1,
    );
    let service_ms = metrics.value("core.batch_service_ms");
    if service_ms > 0.0 {
        metrics.put(
            "budget.service_accounted_share",
            replay.service_ms_per_batch / service_ms,
            1,
        );
    }

    let mut outcome = Outcome {
        metrics,
        rounds: std::mem::take(&mut traced.rounds),
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        problems: Vec::new(),
        invalid: untraced.invalid.or(traced.invalid.take()),
        spans: Vec::new(),
    };
    outcome.problems.extend(untraced.problems);
    outcome.problems.append(&mut traced.problems);
    if let Some(twin) = twin {
        outcome.attempted += twin.attempted;
        outcome.failed += twin.failed;
        outcome.problems.extend(twin.problems);
        outcome.invalid = outcome.invalid.or(twin.invalid);
    }
    Ok(outcome)
}
