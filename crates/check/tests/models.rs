//! Drives the protocol models through the explorer: the fixed
//! protocols must hold their invariants across every explored interleaving
//! (>1,000 of them), and each deliberately broken variant must fail —
//! proving the checker can actually find the bugs it exists to find.

use check::Config;

fn cfg() -> Config {
    Config {
        max_schedules: 8_000,
        max_steps: 2_000,
    }
}

#[test]
fn shutdown_drain_holds_in_every_interleaving() {
    let report = check::models::shutdown::run(false, cfg());
    println!("shutdown: {report}");
    assert!(report.failure.is_none(), "{report}");
    assert!(
        report.explored > 1_000,
        "state space too small to be meaningful: {report}"
    );
}

#[test]
fn shutdown_try_recv_drain_loses_replies() {
    let report = check::models::shutdown::run(true, cfg());
    println!("shutdown(broken): {report}");
    assert!(
        report.failure.is_some(),
        "dropping the drain-to-disconnect ordering must fail: {report}"
    );
}

#[test]
fn slow_client_grace_then_kill_holds_in_every_interleaving() {
    let report = check::models::slow_client::run(false, cfg());
    println!("slow_client: {report}");
    assert!(report.failure.is_none(), "{report}");
    assert!(
        report.explored > 1_000,
        "state space too small to be meaningful: {report}"
    );
}

#[test]
fn slow_client_blocking_send_wedges() {
    let report = check::models::slow_client::run(true, cfg());
    println!("slow_client(broken): {report}");
    let failure = report.failure.expect("the PR 5 blocking send must wedge");
    assert!(failure.contains("deadlock"), "wrong failure: {failure}");
}

#[test]
fn epoch_collection_holds_in_every_interleaving() {
    let report = check::models::epoch::run(false, cfg());
    println!("epoch: {report}");
    assert!(report.failure.is_none(), "{report}");
    assert!(
        report.explored > 1_000,
        "state space too small to be meaningful: {report}"
    );
}

#[test]
fn epoch_untagged_collection_folds_stale_roots() {
    let report = check::models::epoch::run(true, cfg());
    println!("epoch(broken): {report}");
    let failure = report
        .failure
        .expect("dropping the epoch-tag check must fold a stale root");
    assert!(
        failure.contains("stale shard root"),
        "wrong failure: {failure}"
    );
}
