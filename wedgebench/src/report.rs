//! Output: the one-line result the acceptance driver reads, the lines a
//! person reads, and the machine-readable document of a whole invocation
//! (host, build, fixed set-up, every run, median and quartiles per metric).

use std::path::Path;
use std::process::Command;

use crate::fixed;
use crate::json::Json;
use crate::outcome::Outcome;
use crate::spec::{self, Workload};
use crate::summary;

/// One metric of a run as reported: per-layer metrics carry no bound.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    bound: Option<f64>,
}

/// One finished run, as kept for the document.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub outcome: Outcome,
}

impl Run {
    /// The metrics this run reports: every end-to-end metric untraced,
    /// every per-layer metric traced. A per-layer metric of a layer the
    /// workload bypasses reads 0.
    fn reported(&self) -> Vec<Reported> {
        if self.trace {
            spec::PER_LAYER
                .iter()
                .map(|m| {
                    let got = self.outcome.metrics.get(m.name);
                    Reported {
                        name: m.name,
                        unit: m.unit,
                        value: got.map_or(0.0, |g| g.value),
                        samples: got.map_or(0, |g| g.samples),
                        bound: None,
                    }
                })
                .collect()
        } else {
            spec::END_TO_END
                .iter()
                .filter_map(|m| {
                    let got = self.outcome.metrics.get(m.name)?;
                    Some(Reported {
                        name: m.name,
                        unit: m.unit,
                        value: got.value,
                        samples: got.samples,
                        bound: Some(m.bound),
                    })
                })
                .collect()
        }
    }

    /// End-to-end metrics the run could not produce (too few samples for a
    /// p99, nothing committed): such a run is not correct.
    pub fn missing(&self) -> Vec<&'static str> {
        if self.trace {
            return Vec::new();
        }
        spec::END_TO_END
            .iter()
            .filter(|m| self.outcome.metrics.get(m.name).is_none())
            .map(|m| m.name)
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.outcome.correct() && self.missing().is_empty()
    }

    /// `failed` as the driver counts it: at least one when the run is not
    /// correct for a reason that is not a failed operation.
    fn failed(&self) -> u64 {
        match (self.correct(), self.outcome.failed) {
            (false, 0) => 1,
            (_, failed) => failed,
        }
    }

    /// The last line of standard output, exactly the keys the driver reads.
    pub fn contract_line(&self) -> String {
        let metrics = self.reported().into_iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    pub fn print_human(&self) {
        println!(
            "# {} seed={} seconds={} trace={}",
            self.workload.name(),
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        for Reported {
            name,
            unit,
            value,
            samples,
            bound,
        } in self.reported()
        {
            let bound = bound.map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            println!("{name:<36} {value:>16.4} {unit:<7} n={samples}{bound}");
            // A timed metric is the median of its rounds; show them all.
            let rounds: Vec<String> = self
                .outcome
                .rounds
                .iter()
                .filter_map(|round| round.get(name))
                .map(|m| format!("{:.4}", m.value))
                .collect();
            if !self.trace && rounds.len() > 1 {
                println!("{:<36} rounds: {}", "", rounds.join(" "));
            }
        }
        let attempted = self.outcome.attempted.max(1);
        println!(
            "{:<36} {:>16.6} ratio   ({} of {attempted} operations)",
            "failed_share",
            self.failed() as f64 / attempted as f64,
            self.failed(),
        );
        for (k, round) in self.outcome.rounds.iter().enumerate() {
            let late = round.value("gen.late_p99_ms");
            if late > fixed::MAX_LATE_P99_MS {
                println!(
                    "ROUND {} LEFT OUT: its generator ran {late:.1} ms late at p99 (limit {} ms)",
                    k + 1,
                    fixed::MAX_LATE_P99_MS
                );
            }
        }
        for name in self.missing() {
            println!("MISSING {name}: too few samples to report it");
        }
        for problem in &self.outcome.problems {
            println!("CHECK FAILED: {problem}");
        }
        if let Some(reason) = &self.outcome.invalid {
            println!("INVALID RUN: {reason}");
        }
    }

    fn document(&self) -> Json {
        let metrics = self.reported().into_iter().map(|m| {
            let mut fields = vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
                ("samples", Json::Num(m.samples as f64)),
            ];
            if let Some(bound) = m.bound {
                fields.push(("bound", Json::Num(bound)));
            }
            if let Some(metric) = spec::end_to_end(m.name) {
                fields.push(("what", Json::str(metric.what)));
            }
            (m.name, Json::obj(fields))
        });
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.outcome.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            (
                "problems",
                Json::Arr(self.outcome.problems.iter().map(Json::str).collect()),
            ),
            (
                "rounds",
                Json::Arr(
                    self.outcome
                        .rounds
                        .iter()
                        .map(|round| {
                            Json::obj(round.0.iter().map(|m| (m.name, Json::Num(m.value))))
                        })
                        .collect(),
                ),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// The filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|line| {
                    let mut fields = line.split_whitespace();
                    let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
                    path.starts_with(mount)
                        .then(|| (mount.len(), fstype.to_owned()))
                })
                .max_by_key(|(len, _)| *len)
        })
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// Host and build, recorded with every result.
pub fn environment(scratch: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::str(cpu)),
        ("rustc", Json::str(env!("WEDGEBENCH_RUSTC"))),
        ("rustflags", Json::str(env!("WEDGEBENCH_RUSTFLAGS"))),
        ("scratch_filesystem", Json::str(filesystem_of(scratch))),
        (
            "caveats",
            Json::str(
                "client and server share this host's cores over loopback; the page cache is not discarded before the restart check, so it checks recovery and not power-loss durability; stage-2 lag is in simulated seconds",
            ),
        ),
    ])
}

/// Median, quartiles and spread per `(workload, metric)` over the runs.
fn summaries(runs: &[Run]) -> Json {
    let mut out = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let of_kind: Vec<&Run> = runs
                .iter()
                .filter(|r| r.workload == workload && r.trace == trace)
                .collect();
            let Some(first) = of_kind.first() else {
                continue;
            };
            let metrics = first
                .reported()
                .into_iter()
                .map(|Reported { name, unit, .. }| {
                    let mut values: Vec<f64> = of_kind
                        .iter()
                        .filter_map(|r| r.outcome.metrics.get(name).map(|m| m.value))
                        .collect();
                    summary::sort(&mut values);
                    let mut fields = vec![
                        ("unit", Json::str(unit)),
                        ("runs", Json::Num(values.len() as f64)),
                        (
                            "median",
                            Json::Num(summary::median(&values).unwrap_or(f64::NAN)),
                        ),
                    ];
                    if let Some((q1, _, q3)) = summary::quartiles(&values) {
                        fields.push(("q1", Json::Num(q1)));
                        fields.push(("q3", Json::Num(q3)));
                        fields.push((
                            "spread",
                            Json::Num(summary::spread(&values).unwrap_or(f64::NAN)),
                        ));
                    }
                    if let Some(m) = spec::end_to_end(name) {
                        fields.push(("bound", Json::Num(m.bound)));
                    }
                    (name, Json::obj(fields))
                });
            out.push(Json::obj([
                ("workload", Json::str(workload.name())),
                ("trace", Json::Bool(trace)),
                ("metrics", Json::obj(metrics)),
            ]));
        }
    }
    Json::Arr(out)
}

pub fn print_summaries(runs: &[Run]) {
    let Json::Arr(groups) = summaries(runs) else {
        return;
    };
    for group in &groups {
        let name = group.get("workload").and_then(Json::as_str).unwrap_or("");
        println!("# {name}: median [q1, q3] spread over the runs");
        for (metric, fields) in group.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let num = |key| fields.get(key).and_then(Json::as_f64);
            let unit = fields.get("unit").and_then(Json::as_str).unwrap_or("");
            match (num("median"), num("q1"), num("q3"), num("spread")) {
                (Some(median), Some(q1), Some(q3), Some(spread)) => println!(
                    "{metric:<36} {median:>14.4} [{q1:.4}, {q3:.4}] {unit:<7} spread {:.2}%",
                    spread * 100.0
                ),
                (Some(median), ..) => println!("{metric:<36} {median:>14.4} {unit}"),
                _ => {}
            }
        }
    }
}

/// The whole invocation as one JSON document.
pub fn document(runs: &[Run], scratch: &Path) -> Json {
    Json::obj([
        ("benchmark", Json::str("wedgebench")),
        ("environment", environment(scratch)),
        ("fixed_setup", fixed::describe()),
        ("runs", Json::Arr(runs.iter().map(Run::document).collect())),
        ("summary", summaries(runs)),
    ])
}
