//! `wedgebench`: one networked end-to-end benchmark of WedgeBlock with an
//! outside-in layer budget. See `README.md` beside `Cargo.toml`.

mod batches;
mod cluster;
mod compare;
mod fixed;
mod json;
mod load;
mod outcome;
mod replay;
mod report;
mod scenario;
mod spec;
mod stats;
mod summary;
mod trace;
mod traced;
mod world;

#[cfg(test)]
mod smoke;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use outcome::Plan;
use report::Run;
use spec::Workload;

const USAGE: &str = "\
usage: wedgebench --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
                  [--repeat N] [--out FILE]
       wedgebench compare <a.json> <b.json>
       wedgebench spec        (prints BENCHMARK.json)

workloads: append_sat append_paced read_beside_write cluster_inproc
The last line of standard output is one JSON object: for a single run,
{correct, attempted, failed, metrics}; otherwise the whole document.";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: fixed::RUN_SECONDS,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a number"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?]
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60),
            "--trace" => parsed.trace = number()? != 0,
            "--repeat" => parsed.repeat = number()?.max(1) as usize,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// Where this run may write: scratch space beside the executable and
/// `<target dir>/wedgebench/` for trace files, so everything stays inside
/// the build directory of the checkout the benchmark runs from.
fn output_dirs() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = exe.parent().ok_or("executable has no directory")?;
    let target_dir = profile_dir.parent().unwrap_or(profile_dir);
    Ok((
        profile_dir
            .join("wedgebench-scratch")
            .join(std::process::id().to_string()),
        target_dir.join("wedgebench"),
    ))
}

fn run_all(args: &Args, scratch: &Path, traces: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for _ in 0..args.repeat {
        for &workload in &args.workloads {
            let outcome = if args.trace {
                let file = traces.join(format!("trace_{}.json", workload.name()));
                traced::run(workload, args.seed, args.seconds, scratch, &file)?
            } else {
                traced::run_plan(&Plan::new(workload, args.seed, args.seconds), scratch)?
            };
            let run = Run {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                outcome,
            };
            run.print_human();
            runs.push(run);
        }
    }
    Ok(runs)
}

fn bench(args: &Args) -> Result<bool, String> {
    let (scratch, traces) = output_dirs()?;
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    // `LocalCluster` places its shards under the temp dir; keep that inside
    // the scratch directory too. Set before any thread exists.
    std::env::set_var("TMPDIR", &scratch);
    let result = run_all(args, &scratch, &traces);
    let _ = std::fs::remove_dir_all(&scratch);
    let runs = result?;

    let document = report::document(&runs, &scratch);
    if let Some(out) = &args.out {
        std::fs::write(out, document.render() + "\n")
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    match runs.as_slice() {
        [single] => println!("{}", single.contract_line()),
        _ => {
            report::print_summaries(&runs);
            println!("{}", document.render());
        }
    }
    Ok(runs.iter().all(Run::correct))
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let rows = compare::rows(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two documents share no end-to-end metric".into());
    }
    compare::print(&rows);
    Ok(rows
        .iter()
        .all(|row| row.verdict == compare::Verdict::Within))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [command, a, b] if command == "compare" => compare(a, b),
        [command] if command == "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => parse_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| bench(&args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("wedgebench: {error}");
            ExitCode::from(2)
        }
    }
}
