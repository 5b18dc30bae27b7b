//! `wedgebench compare <a.json> <b.json>`: one row per (workload,
//! end-to-end metric) with both medians, their ratio with its base, the
//! metric's bound and a verdict. `a` is the base.

use crate::json::Json;
use crate::spec::{self, Better, Workload};
use crate::summary;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Within,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// Either side's run-to-run spread is wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a_median: f64,
    pub b_median: f64,
    pub a_spread: Option<f64>,
    pub b_spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative when `b` is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(
    better: Better,
    bound: f64,
    a: f64,
    b: f64,
    a_spread: Option<f64>,
    b_spread: Option<f64>,
) -> Verdict {
    if a_spread.is_some_and(|s| s > bound) || b_spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening(better, a, b) > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// The values of one end-to-end metric over a document's untraced runs of
/// one workload, sorted.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let mut values: Vec<f64> = doc
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace") == Some(&Json::Bool(false))
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect();
    summary::sort(&mut values);
    values
}

pub fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        for metric in spec::END_TO_END {
            let a_values = values(a, workload.name(), metric.name);
            let b_values = values(b, workload.name(), metric.name);
            let (Some(a_median), Some(b_median)) =
                (summary::median(&a_values), summary::median(&b_values))
            else {
                continue;
            };
            let a_spread = summary::spread(&a_values);
            let b_spread = summary::spread(&b_values);
            rows.push(Row {
                workload: workload.name(),
                metric: metric.name,
                unit: metric.unit,
                a_median,
                b_median,
                a_spread,
                b_spread,
                bound: metric.bound,
                verdict: verdict(
                    metric.better,
                    metric.bound,
                    a_median,
                    b_median,
                    a_spread,
                    b_spread,
                ),
            });
        }
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<18} {:<36} {:>14} {:>14} {:>22} {:>7} {:>15}  verdict",
        "workload", "metric", "a median", "b median", "b/a (base a)", "bound", "spread a/b"
    );
    let percent = |s: Option<f64>| s.map_or("-".into(), |s| format!("{:.1}%", s * 100.0));
    for row in rows {
        println!(
            "{:<18} {:<36} {:>14.4} {:>14.4} {:>9.4} of {:>9.4} {:>6.0}% {:>7}/{:<7}  {}",
            row.workload,
            format!("{} [{}]", row.metric, row.unit),
            row.a_median,
            row.b_median,
            row.b_median / row.a_median,
            row.a_median,
            row.bound * 100.0,
            percent(row.a_spread),
            percent(row.b_spread),
            row.verdict.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // Throughput down 5% with a 7% bound: within. Down 10%: worse.
        assert_eq!(
            verdict(Higher, 0.07, 100.0, 95.0, Some(0.01), Some(0.01)),
            Verdict::Within
        );
        assert_eq!(
            verdict(Higher, 0.07, 100.0, 90.0, Some(0.01), Some(0.01)),
            Verdict::Worse
        );
        // Throughput up is never worse.
        assert_eq!(
            verdict(Higher, 0.07, 100.0, 150.0, None, None),
            Verdict::Within
        );
        // Latency up 12% with a 10% bound: worse; down: within.
        assert_eq!(
            verdict(Lower, 0.10, 50.0, 56.0, Some(0.02), Some(0.02)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Lower, 0.10, 50.0, 30.0, Some(0.02), Some(0.02)),
            Verdict::Within
        );
        // A spread wider than the bound on either side cannot resolve it,
        // whatever the medians say.
        assert_eq!(
            verdict(Lower, 0.10, 50.0, 80.0, Some(0.15), Some(0.02)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Lower, 0.10, 50.0, 50.0, Some(0.02), Some(0.11)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn rows_come_from_the_untraced_runs_of_both_documents() {
        let run = |workload: &str, trace: bool, ops: f64| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("trace", Json::Bool(trace)),
                (
                    "metrics",
                    Json::obj([("append_ops_s", Json::obj([("value", Json::Num(ops))]))]),
                ),
            ])
        };
        let doc = |values: &[f64]| {
            let mut runs: Vec<Json> = values
                .iter()
                .map(|&v| run("append_sat", false, v))
                .collect();
            runs.push(run("append_sat", true, 1.0)); // traced: ignored
            Json::obj([("runs", Json::Arr(runs))])
        };
        let a = doc(&[1000.0, 1010.0, 990.0]);
        let b = doc(&[600.0, 610.0, 590.0]);
        let rows = rows(&a, &b);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "append_ops_s");
        assert_eq!(rows[0].a_median, 1000.0);
        assert_eq!(rows[0].b_median, 600.0);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(super::rows(&a, &a)[0].verdict, Verdict::Within);
    }
}
