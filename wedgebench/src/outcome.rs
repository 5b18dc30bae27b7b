//! What one run of one workload produces.

use std::time::Instant;

use crate::batches::Op;
use crate::spec::Workload;
use crate::summary;
use crate::trace::Span;
use crate::world::Transport;

use crate::fixed;

/// The sizes of one run. Production plans come from [`Plan::new`]; tests
/// shrink the counts and keep everything else.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub transport: Transport,
    pub trace: bool,
    /// Complete set-ups to time; the last one is measured on.
    pub setup_reps: usize,
    /// Untimed appends before the window, all generators together.
    pub warmup_ops: usize,
    /// Entries appended, settled and sealed before the window.
    pub preload_ops: usize,
    /// Appends of the timed windows, all rounds and generators together.
    pub timed_ops: usize,
    /// Rounds the timed work is split into: each is a window of appends
    /// followed, once settled on chain, by its share of the reads.
    pub rounds: usize,
    pub entry_bytes: usize,
    /// Verified reads after the windows, all rounds together
    /// (`read_beside_write` reads inside its windows instead).
    pub readback_reads: usize,
}

impl Plan {
    /// The plan that measures for about `seconds`: open-loop workloads by
    /// their schedule, closed-loop ones by operation count at the nominal
    /// rate, so inputs are identical for a given seed on any commit.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let seconds = seconds.max(1) as usize;
        let (timed_ops, entry_bytes, preload_ops) = match workload {
            Workload::AppendSat => (fixed::SAT_NOMINAL_OPS_S * seconds, fixed::ENTRY_BYTES, 0),
            Workload::AppendPaced => (
                (fixed::PACED_OPS_S as usize) * fixed::GENERATORS * seconds,
                fixed::ENTRY_BYTES,
                0,
            ),
            Workload::ReadBesideWrite => (
                (fixed::BESIDE_WRITE_OPS_S as usize) * seconds,
                fixed::ENTRY_BYTES,
                fixed::PRELOAD_OPS,
            ),
            Workload::ClusterInproc => (
                fixed::CLUSTER_NOMINAL_OPS_S * seconds,
                fixed::SMALL_ENTRY_BYTES,
                0,
            ),
        };
        Plan {
            workload,
            seed,
            transport: match workload {
                Workload::ClusterInproc => Transport::InProcess,
                _ => Transport::Tcp,
            },
            trace: false,
            setup_reps: fixed::SETUP_REPS,
            warmup_ops: fixed::WARMUP_OPS,
            preload_ops,
            // A whole number of operations per round and generator.
            timed_ops: timed_ops - timed_ops % (fixed::ROUNDS * fixed::GENERATORS),
            rounds: fixed::ROUNDS,
            entry_bytes,
            readback_reads: fixed::READBACK_READS,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a ratio of totals).
    pub samples: usize,
}

#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Measured>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.retain(|m| m.name != name);
        self.0.push(Measured {
            name,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.iter().find(|m| m.name == name).copied()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// The timed metrics of each round, in order.
    pub rounds: Vec<Metrics>,
    /// Operations issued: every append (warm-up and preload included) and
    /// every read.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed verification.
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Set when the run measured something other than it claims (an
    /// open-loop generator that ran late in most rounds).
    pub invalid: Option<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Sets every timed metric to its median over the rounds. One window
    /// is at the mercy of whatever else the host does for those seconds;
    /// the median of several short ones is not.
    ///
    /// A round whose open-loop generator ran late (p99 beyond
    /// [`fixed::MAX_LATE_P99_MS`]) measured something other than its
    /// schedule says and is left out; the run is invalid unless more than
    /// half of its rounds remain.
    pub fn report_median_round(&mut self) {
        let on_time: Vec<&Metrics> = self
            .rounds
            .iter()
            .filter(|round| round.value("gen.late_p99_ms") <= fixed::MAX_LATE_P99_MS)
            .collect();
        if on_time.len() * 2 <= self.rounds.len() {
            self.invalid = Some(format!(
                "open-loop generator ran more than {} ms late at p99 in {} of {} rounds",
                fixed::MAX_LATE_P99_MS,
                self.rounds.len() - on_time.len(),
                self.rounds.len()
            ));
        }
        let names: Vec<&'static str> = on_time
            .iter()
            .flat_map(|round| round.0.iter().map(|m| m.name))
            .collect();
        for name in names {
            let of_rounds: Vec<Measured> = on_time.iter().filter_map(|r| r.get(name)).collect();
            // A metric some round could not support (too few samples for a
            // p99) is left out, and the run reports it missing.
            if of_rounds.len() < on_time.len() {
                continue;
            }
            let mut values: Vec<f64> = of_rounds.iter().map(|m| m.value).collect();
            summary::sort(&mut values);
            let samples = of_rounds.iter().map(|m| m.samples).sum();
            if let Some(median) = summary::median(&values) {
                self.metrics.put(name, median, samples);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.invalid.is_none()
    }
}

/// The timed metrics of one round: its window of acknowledged appends and
/// its verified reads.
pub fn round_metrics(
    ops: &[Op],
    window_start: Instant,
    read_ms: &mut [f64],
    read_elapsed_s: f64,
) -> Result<Metrics, String> {
    let window_end = ops
        .iter()
        .map(|op| op.replied)
        .max()
        .ok_or("no append of a timed window was acknowledged")?;
    let window_s = window_end
        .saturating_duration_since(window_start)
        .as_secs_f64();
    let mut metrics = Metrics::default();
    metrics.put("append_ops_s", ops.len() as f64 / window_s, ops.len());
    let mut append_ms: Vec<f64> = ops
        .iter()
        .map(|op| {
            op.replied
                .saturating_duration_since(op.started)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    put_latency(
        &mut metrics,
        "append_p50_ms",
        "append_p99_ms",
        &mut append_ms,
    );
    if read_elapsed_s > 0.0 && !read_ms.is_empty() {
        metrics.put(
            "read_ops_s",
            read_ms.len() as f64 / read_elapsed_s,
            read_ms.len(),
        );
    }
    put_latency(&mut metrics, "read_p50_ms", "read_p99_ms", read_ms);
    Ok(metrics)
}

/// Latency samples in ms → `(p50, p99)` metrics under the given names. The
/// p99 is withheld (and the run marked incorrect by the caller's missing
/// metric) when fewer than ten samples lie beyond it.
pub fn put_latency(
    metrics: &mut Metrics,
    p50: &'static str,
    p99: &'static str,
    samples_ms: &mut [f64],
) {
    summary::sort(samples_ms);
    if let Some(value) = summary::percentile(samples_ms, 0.5) {
        metrics.put(p50, value, samples_ms.len());
    }
    if let Some(value) = summary::tail_percentile(samples_ms, 0.99) {
        metrics.put(p99, value, samples_ms.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(p50: f64, late_p99: f64) -> Metrics {
        let mut metrics = Metrics::default();
        metrics.put("append_p50_ms", p50, 100);
        metrics.put("gen.late_p99_ms", late_p99, 100);
        metrics
    }

    #[test]
    fn a_run_reports_the_median_of_its_on_time_rounds() {
        let mut outcome = Outcome {
            rounds: vec![
                round(700.0, 1.0),
                round(900.0, 2.0),
                round(100.0, fixed::MAX_LATE_P99_MS + 1.0), // late: left out
                round(800.0, 1.5),
                round(750.0, 0.5),
            ],
            ..Outcome::default()
        };
        outcome.report_median_round();
        assert_eq!(outcome.metrics.value("append_p50_ms"), 775.0);
        assert_eq!(outcome.metrics.get("append_p50_ms").unwrap().samples, 400);
        assert!(outcome.invalid.is_none());
    }

    #[test]
    fn a_run_with_most_rounds_late_is_invalid() {
        let late = fixed::MAX_LATE_P99_MS + 1.0;
        let mut outcome = Outcome {
            rounds: vec![round(700.0, late), round(900.0, 1.0)],
            ..Outcome::default()
        };
        outcome.report_median_round();
        assert!(outcome.invalid.is_some());
        assert!(!outcome.correct());
    }

    #[test]
    fn a_metric_one_round_cannot_support_goes_missing() {
        let mut short = round(700.0, 1.0);
        short.put("append_p99_ms", 1200.0, 2000);
        let mut outcome = Outcome {
            rounds: vec![short, round(800.0, 1.0)],
            ..Outcome::default()
        };
        outcome.report_median_round();
        assert!(outcome.metrics.get("append_p99_ms").is_none());
        assert_eq!(outcome.metrics.value("append_p50_ms"), 750.0);
    }
}
