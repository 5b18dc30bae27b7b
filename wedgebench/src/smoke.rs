//! A 2,000-op smoke of each workload with every correctness check on, plus
//! a short traced run. One test, so the workloads run one after another:
//! they time things, and two at once on two cores would only measure each
//! other.

use crate::outcome::{Outcome, Plan};
use crate::report::Run;
use crate::spec::{self, Workload};
use crate::traced;

fn small(workload: Workload) -> Plan {
    Plan {
        setup_reps: 1,
        warmup_ops: 200,
        preload_ops: match workload {
            Workload::ReadBesideWrite => 2000,
            _ => 0,
        },
        timed_ops: 2000,
        rounds: 1,
        // The fewest reads that still support a p99 (ten samples beyond).
        readback_reads: 1000,
        ..Plan::new(workload, 7, 1)
    }
}

fn assert_clean(workload: Workload, outcome: &Outcome) {
    assert!(
        outcome.problems.is_empty(),
        "{}: {:?}",
        workload.name(),
        outcome.problems
    );
    assert_eq!(outcome.failed, 0, "{}", workload.name());
    assert!(outcome.attempted >= 2000 + 200, "{}", workload.name());
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    let (scratch, traces) = crate::output_dirs().expect("output dirs");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    // `LocalCluster` places its shards under the temp dir.
    std::env::set_var("TMPDIR", &scratch);

    for workload in Workload::ALL {
        let outcome = traced::run_plan(&small(workload), &scratch).expect("run completes");
        assert_clean(workload, &outcome);
        for metric in spec::END_TO_END {
            // `read_beside_write` reads for as long as its writer runs; a
            // slow build may fit too few reads for a p99, nothing else may
            // be missing.
            let optional = workload == Workload::ReadBesideWrite && metric.name == "read_p99_ms";
            let got = outcome.metrics.get(metric.name);
            assert!(
                got.is_some() || optional,
                "{} lacks {}",
                workload.name(),
                metric.name
            );
            if let Some(got) = got {
                assert!(
                    got.value.is_finite() && got.value > 0.0,
                    "{} {} = {}",
                    workload.name(),
                    metric.name,
                    got.value
                );
            }
        }
        let run = Run {
            workload,
            seed: 7,
            seconds: 1,
            trace: false,
            outcome,
        };
        let line = crate::json::Json::parse(&run.contract_line()).expect("contract line parses");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(line.get(key).is_some(), "contract line lacks {key}");
        }
    }

    // The traced run: every per-layer metric present in the result line,
    // the trace file written, the replay and the twin in agreement with the
    // checks.
    let file = traces.join("trace_smoke.json");
    let outcome =
        traced::run(Workload::AppendSat, 7, 1, &scratch, &file).expect("traced run completes");
    assert_clean(Workload::AppendSat, &outcome);
    for name in [
        "core.batch_service_ms",
        "core.collect.verify_us_per_op",
        "merkle.build_us_per_op",
        "crypto.sign_batch_us_per_op",
        "storage.append_us_per_op",
        "storage.reopen_ms",
        "net.encode_request_us",
        "net.submit_call_us",
        "net.throughput_ratio",
        "budget.cpu_accounted_share",
    ] {
        let got = outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("no {name}"));
        assert!(
            got.value.is_finite() && got.value > 0.0,
            "{name} = {}",
            got.value
        );
    }
    let spans = std::fs::read_to_string(&file).expect("trace file written");
    assert!(
        crate::json::Json::parse(&spans).is_ok(),
        "trace file is JSON"
    );
    for name in ["\"submit\"", "\"flush\"", "\"reply\"", "\"read\"", "\"op\""] {
        assert!(spans.contains(name), "trace lacks {name} spans");
    }

    let _ = std::fs::remove_file(&file);
    let _ = std::fs::remove_dir_all(&scratch);
}
