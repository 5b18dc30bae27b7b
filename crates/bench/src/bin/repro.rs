//! `repro` — regenerates the paper's evaluation tables and figures.
//!
//! ```text
//! cargo run -p wedge-bench --release --bin repro -- all [--full]
//! cargo run -p wedge-bench --release --bin repro -- fig3
//! ```
//!
//! Experiments: `fig3 fig4 fig5 fig6 fig7 fig8 fig9 table1 signing hashing
//! punish faults tiers cluster`.
//! Results are printed and also written to `results/<exp>.md`.

use std::time::Instant;

use wedge_bench::harness::{self, Table};
use wedge_bench::workload::Profile;

fn write_result(name: &str, table: &Table) {
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.md");
    if let Err(e) = std::fs::write(&path, table.to_markdown()) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

fn run(name: &str, profile: Profile) {
    let started = Instant::now();
    let table: Table = match name {
        "fig3" => harness::fig3(profile),
        "fig4" => harness::fig4(profile),
        "fig5" => harness::fig5(profile),
        "fig6" => harness::fig6(profile),
        "fig7" => harness::fig7(profile),
        "fig8" => harness::fig8(profile),
        "fig9" => harness::fig9(profile),
        "table1" => harness::table1(profile),
        "signing" => harness::signing(profile),
        "hashing" => harness::hashing(profile),
        "punish" => harness::punishment_economics(),
        "faults" => harness::fault_tolerance(profile),
        "tiers" => harness::tiers(profile),
        "cluster" => harness::cluster(profile),
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    };
    println!("{}", table.to_markdown());
    println!(
        "[{name} completed in {:.1} s]\n",
        started.elapsed().as_secs_f64()
    );
    write_result(name, &table);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile = if args.iter().any(|a| a == "--full") {
        Profile::Full
    } else {
        Profile::Quick
    };
    let targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let all = [
        "fig3", "fig4", "fig5", "fig6", "fig7", "table1", "fig8", "fig9", "signing", "hashing",
        "punish", "faults", "tiers", "cluster",
    ];
    let selected: Vec<&str> = if targets.is_empty() || targets == ["all"] {
        all.to_vec()
    } else {
        targets
    };
    println!(
        "# WedgeBlock reproduction — profile: {profile:?}\n\
         (on-chain latencies are reported in simulated seconds; off-chain\n\
         compute in real time. See EXPERIMENTS.md.)\n"
    );
    for name in selected {
        run(name, profile);
    }
}
