//! End-to-end self-tests for the `xtask lint` binary.
//!
//! Each test materialises a miniature workspace in a temp directory, runs
//! the real binary against it with `--root`, and asserts on the exit status
//! and diagnostics. A final test runs the binary against this repository
//! itself and requires a clean pass.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Output;

use wedge_storage::ScratchDir;

/// Creates a per-test fixture directory, removed when the guard drops.
fn fixture_dir(name: &str) -> ScratchDir {
    let dir = ScratchDir::new(&format!("lint-selftest-{name}"));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

fn run_lint(root: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(root)
        .output()
        .unwrap()
}

fn run_allows(root: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--allows", "--root"])
        .arg(root)
        .output()
        .unwrap()
}

const FORBID: &str = "#![forbid(unsafe_code)]\n";

/// Lays down a workspace skeleton where every linted crate root exists and
/// carries the L4 header; tests then overwrite individual files.
fn skeleton(root: &Path) {
    write(root, "src/lib.rs", FORBID);
    for krate in ["crypto", "core", "chain", "storage", "merkle"] {
        write(root, &format!("crates/{krate}/src/lib.rs"), FORBID);
    }
}

#[test]
fn seeded_violations_fail_with_diagnostics() {
    let root = fixture_dir("seeded");
    skeleton(&root);
    // L1 (unwrap) + L4 (missing forbid header) in the crypto crate root,
    // plus an L3 secret comparison.
    write(
        &root,
        "crates/crypto/src/lib.rs",
        "pub fn open(x: Option<u8>, secret: &[u8], other: &[u8]) -> u8 {\n\
         \x20   if secret == other {\n\
         \x20       return 0;\n\
         \x20   }\n\
         \x20   x.unwrap()\n\
         }\n",
    );
    // L2: bare arithmetic on a balance line in the chain crate.
    write(
        &root,
        "crates/chain/src/fees.rs",
        "pub fn total(balance: u128, fee: u128) -> u128 {\n\
         \x20   balance + fee\n\
         }\n",
    );
    // L5: channel send while a Shared.stats guard is held, in the node dir.
    // L6: write-plane guard held across storage I/O, in the same file.
    write(
        &root,
        "crates/core/src/node/mod.rs",
        "fn requeue(shared: &Shared, tx: Sender<u64>) {\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   let _ = tx.send(stats.flushed_batches);\n\
         }\n\
         fn persist(shared: &Shared) {\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   shared.store.sync();\n\
         \x20   drop(plane);\n\
         }\n",
    );

    // L7: two functions acquiring write_plane and stats in opposite orders.
    write(
        &root,
        "crates/core/src/node/order.rs",
        "fn publish(shared: &Shared) {\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   drop(stats);\n\
         \x20   drop(plane);\n\
         }\n\
         fn report(shared: &Shared) {\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   drop(plane);\n\
         \x20   drop(stats);\n\
         }\n",
    );
    // L8: the PR 5 slow-client shape — two spawned workers joined by a ring
    // of bounded channels where every send blocks.
    write(
        &root,
        "crates/net/src/ring.rs",
        "fn spawn_pair() {\n\
         \x20   let (req_tx, req_rx) = bounded::<u64>(4);\n\
         \x20   let (rsp_tx, rsp_rx) = bounded::<u64>(4);\n\
         \x20   std::thread::spawn(move || reader(req_rx, rsp_tx));\n\
         \x20   std::thread::spawn(move || writer(rsp_rx, req_tx));\n\
         }\n\
         fn reader(req_rx: Receiver<u64>, rsp_tx: Sender<u64>) {\n\
         \x20   while let Ok(v) = req_rx.recv() {\n\
         \x20       let _ = rsp_tx.send(v);\n\
         \x20   }\n\
         }\n\
         fn writer(rsp_rx: Receiver<u64>, req_tx: Sender<u64>) {\n\
         \x20   while let Ok(v) = rsp_rx.recv() {\n\
         \x20       let _ = req_tx.send(v);\n\
         \x20   }\n\
         }\n",
    );
    // L9: a durability call inside a coalescing-writer region.
    write(
        &root,
        "crates/net/src/wr.rs",
        "fn run_coalescing_writer(store: &Store) {\n\
         \x20   store.ensure_durable();\n\
         }\n",
    );

    let out = run_lint(&root);
    assert!(!out.status.success(), "seeded workspace must fail the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for code in [
        "[L1]", "[L2]", "[L3]", "[L4]", "[L5]", "[L6]", "[L7]", "[L8]", "[L9]",
    ] {
        assert!(
            stdout.contains(code),
            "missing {code} diagnostic in:\n{stdout}"
        );
    }
    assert!(
        stderr.contains("violation(s)"),
        "stderr summary missing:\n{stderr}"
    );
}

#[test]
fn guard_rules_see_the_calls_the_node_makes() {
    let root = fixture_dir("guard-ops");
    skeleton(&root);
    // The persist and deliver stages' own calls (replication, batch
    // signing) under the write plane, storage I/O one helper away, and a
    // `stats` guard held across a helper that sends.
    write(
        &root,
        "crates/core/src/node/persist.rs",
        "fn persist(shared: &Shared, replicator: &Replicator, key: &SecretKey, items: Items) {\n\
         \x20   shared.mutate(|plane| {\n\
         \x20       let handle = replicator.replicate_frames(Arc::clone(&plane.frames));\n\
         \x20       let signed = SignedResponse::sign_batch(key, items, &shared.pool);\n\
         \x20       plane.register(handle, signed);\n\
         \x20   });\n\
         }\n\
         fn deliver(shared: &Shared, replicator: &Replicator, key: &SecretKey, items: Items) {\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   let handle = replicator.replicate_frames(Arc::clone(&plane.frames));\n\
         \x20   let signed = SignedResponse::sign_batch(key, items, &shared.pool);\n\
         \x20   sync_store(shared);\n\
         \x20   drop(plane);\n\
         }\n\
         fn sync_store(shared: &Shared) {\n\
         \x20   shared.store.sync();\n\
         }\n\
         fn report(shared: &Shared, tx: &Sender<u64>) {\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   notify(tx);\n\
         \x20   drop(stats);\n\
         }\n\
         fn notify(tx: &Sender<u64>) {\n\
         \x20   let _ = tx.send(1);\n\
         }\n",
    );
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "seeded guard ops must fail:\n{stdout}"
    );
    let file = "crates/core/src/node/persist.rs";
    for (line, code) in [
        (3, "L6"),
        (4, "L6"),
        (10, "L6"),
        (11, "L6"),
        (12, "L6"),
        (20, "L5"),
    ] {
        assert!(
            stdout.contains(&format!("{file}:{line}: [{code}]")),
            "missing {code} finding on line {line}:\n{stdout}"
        );
    }
    assert_eq!(stdout.lines().count(), 6, "exactly six findings:\n{stdout}");
    assert!(
        stdout.contains("via call to `sync_store()`") && stdout.contains("via call to `notify()`"),
        "inlined findings must name the helper:\n{stdout}"
    );
}

#[test]
fn clean_fixture_passes() {
    let root = fixture_dir("clean");
    skeleton(&root);
    // Same shapes as the seeded test, but written the way the lint demands:
    // checked arithmetic, ct_eq, no guard across send, allow() escape hatch.
    write(
        &root,
        "crates/crypto/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn open(x: Option<u8>, secret: &[u8], other: &[u8]) -> u8 {\n\
         \x20   if secret.ct_eq(other) {\n\
         \x20       return 0;\n\
         \x20   }\n\
         \x20   // lint: allow(panic) — fixture exercising the escape hatch\n\
         \x20   x.unwrap()\n\
         }\n",
    );
    write(
        &root,
        "crates/chain/src/fees.rs",
        "pub fn total(balance: u128, fee: u128) -> u128 {\n\
         \x20   balance.saturating_add(fee)\n\
         }\n",
    );
    write(
        &root,
        "crates/core/src/node/mod.rs",
        "fn requeue(shared: &Shared, tx: Sender<u64>) {\n\
         \x20   let len = { shared.stats.lock().flushed_batches };\n\
         \x20   let _ = tx.send(len);\n\
         }\n\
         fn persist(shared: &Shared) {\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   drop(plane);\n\
         \x20   shared.store.sync();\n\
         \x20   shared.mutate(|plane| plane.entry_count += 1);\n\
         }\n",
    );

    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "clean fixture must pass, got:\n{stdout}"
    );
    assert!(
        stdout.contains("wedge-lint: clean"),
        "missing clean banner:\n{stdout}"
    );
}

#[test]
fn missing_allow_reason_is_rejected() {
    let root = fixture_dir("noreason");
    skeleton(&root);
    // An allow marker with no reason after the dash must NOT suppress.
    write(
        &root,
        "crates/merkle/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn f(x: Option<u8>) -> u8 {\n\
         \x20   // lint: allow(panic)\n\
         \x20   x.unwrap()\n\
         }\n",
    );
    let out = run_lint(&root);
    assert!(!out.status.success(), "reason-less allow must not suppress");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("[L1]"),
        "expected the unwrap to be flagged:\n{stdout}"
    );
}

#[test]
fn concurrency_clean_fixture_passes() {
    let root = fixture_dir("conc-clean");
    skeleton(&root);
    // The same three shapes as the seeded L7/L8/L9 fixtures, written the way
    // the lints demand: one global lock order, a shed edge breaking the
    // channel ring, and durability work kept off the writer thread.
    write(
        &root,
        "crates/core/src/node/order.rs",
        "fn publish(shared: &Shared) {\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   drop(stats);\n\
         \x20   drop(plane);\n\
         }\n\
         fn report(shared: &Shared) {\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   drop(stats);\n\
         \x20   drop(plane);\n\
         }\n",
    );
    write(
        &root,
        "crates/net/src/ring.rs",
        "fn spawn_pair() {\n\
         \x20   let (req_tx, req_rx) = bounded::<u64>(4);\n\
         \x20   let (rsp_tx, rsp_rx) = bounded::<u64>(4);\n\
         \x20   std::thread::spawn(move || reader(req_rx, rsp_tx));\n\
         \x20   std::thread::spawn(move || writer(rsp_rx, req_tx));\n\
         }\n\
         fn reader(req_rx: Receiver<u64>, rsp_tx: Sender<u64>) {\n\
         \x20   while let Ok(v) = req_rx.recv() {\n\
         \x20       let _ = rsp_tx.send(v);\n\
         \x20   }\n\
         }\n\
         fn writer(rsp_rx: Receiver<u64>, req_tx: Sender<u64>) {\n\
         \x20   while let Ok(v) = rsp_rx.recv() {\n\
         \x20       let _ = req_tx.try_send(v);\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root,
        "crates/net/src/wr.rs",
        "fn run_coalescing_writer(tx: &Sender<u64>) {\n\
         \x20   let _ = tx.try_send(7);\n\
         }\n\
         fn persist_stage(store: &Store) {\n\
         \x20   store.ensure_durable();\n\
         }\n",
    );

    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "clean concurrency fixture must pass, got:\n{stdout}"
    );
}

#[test]
fn seeded_lock_order_inversion_names_the_cycle() {
    let root = fixture_dir("l7-cycle");
    skeleton(&root);
    write(
        &root,
        "crates/core/src/node/order.rs",
        "fn publish(shared: &Shared) {\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   drop(stats);\n\
         \x20   drop(plane);\n\
         }\n\
         fn report(shared: &Shared) {\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   drop(plane);\n\
         \x20   drop(stats);\n\
         }\n",
    );
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success());
    assert!(
        stdout.contains("[L7]") && stdout.contains("lock-order cycle"),
        "expected a named lock-order cycle:\n{stdout}"
    );
}

#[test]
fn raw_strings_do_not_trigger_lints() {
    let root = fixture_dir("rawstr");
    skeleton(&root);
    // A raw string full of needle text must be invisible to every rule,
    // including across embedded quotes and fake comment closers.
    write(
        &root,
        "crates/core/src/node/doc.rs",
        "pub fn doc() -> &'static str {\n\
         \x20   r#\"call .unwrap() or panic!(); secret == other; \"quoted\" */ text\n\
         spanning lines with stats.lock() and tx.send(x) inside\"#\n\
         }\n",
    );
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "raw-string contents must not be linted:\n{stdout}"
    );
}

#[test]
fn nested_macro_bodies_are_still_linted() {
    let root = fixture_dir("macrobody");
    skeleton(&root);
    // A violation nested two brace levels deep inside a macro definition
    // must still be found — the token-tree pass descends into every group.
    write(
        &root,
        "crates/core/src/node/mac.rs",
        "macro_rules! bump {\n\
         \x20   ($shared:expr) => {{\n\
         \x20       let stats = $shared.stats.lock();\n\
         \x20       let plane = $shared.write_plane.lock();\n\
         \x20       drop(plane);\n\
         \x20       drop(stats);\n\
         \x20   }};\n\
         }\n\
         fn publish(shared: &Shared) {\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   drop(stats);\n\
         \x20   drop(plane);\n\
         }\n",
    );
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success() && stdout.contains("[L7]"),
        "inversion inside a macro body must be found:\n{stdout}"
    );
}

#[test]
fn multi_line_method_chain_locks_are_tracked() {
    let root = fixture_dir("chainwrap");
    skeleton(&root);
    // A lock call wrapped across lines must still bind its guard.
    write(
        &root,
        "crates/core/src/node/wrap.rs",
        "fn publish(shared: &Shared) {\n\
         \x20   let plane = shared\n\
         \x20       .write_plane\n\
         \x20       .lock();\n\
         \x20   let stats = shared.stats.lock();\n\
         \x20   drop(stats);\n\
         \x20   drop(plane);\n\
         }\n\
         fn report(shared: &Shared) {\n\
         \x20   let stats = shared\n\
         \x20       .stats\n\
         \x20       .lock();\n\
         \x20   let plane = shared.write_plane.lock();\n\
         \x20   drop(plane);\n\
         \x20   drop(stats);\n\
         }\n",
    );
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success() && stdout.contains("[L7]"),
        "wrapped-chain locks must still form edges:\n{stdout}"
    );
}

#[test]
fn allow_comment_inside_macro_body_suppresses() {
    let root = fixture_dir("macroallow");
    skeleton(&root);
    write(
        &root,
        "crates/merkle/src/mac.rs",
        "macro_rules! take {\n\
         \x20   ($x:expr) => {\n\
         \x20       // lint: allow(panic) — fixture: macro expands only over known-Some values\n\
         \x20       $x.unwrap()\n\
         \x20   };\n\
         }\n",
    );
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "allow marker inside a macro body must suppress:\n{stdout}"
    );
}

#[test]
fn allows_audit_lists_markers_and_flags_stale() {
    let root = fixture_dir("allows");
    skeleton(&root);
    // One live marker, one marker whose violation has since been fixed, and
    // one file-level marker covering two sites.
    write(
        &root,
        "crates/merkle/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn live(x: Option<u8>) -> u8 {\n\
         \x20   // lint: allow(panic) — fixture: input validated by caller\n\
         \x20   x.unwrap()\n\
         }\n\
         pub fn fixed(x: Option<u8>) -> u8 {\n\
         \x20   // lint: allow(panic) — fixture: this marker no longer suppresses anything\n\
         \x20   x.unwrap_or(0)\n\
         }\n",
    );
    write(
        &root,
        "crates/storage/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         //! lint: allow-file(panic) — fixture: scratch tool, aborting is fine\n\
         pub fn a(x: Option<u8>) -> u8 {\n\
         \x20   x.unwrap()\n\
         }\n\
         pub fn b(x: Option<u8>) -> u8 {\n\
         \x20   x.expect(\"b\")\n\
         }\n",
    );

    // The lint itself passes: every violation is suppressed.
    let lint = run_lint(&root);
    assert!(
        lint.status.success(),
        "suppressed fixture must lint clean:\n{}",
        String::from_utf8_lossy(&lint.stdout)
    );

    // The audit fails: the marker in `fixed` suppresses nothing.
    let out = run_allows(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "stale marker must fail the audit");
    assert!(
        stdout.contains("STALE (suppresses nothing)"),
        "stale marker must be called out:\n{stdout}"
    );
    assert!(
        stdout.contains("allow-file(panic)") && stdout.contains("[used]"),
        "file-level marker must be listed as used:\n{stdout}"
    );
    assert!(
        stdout.contains("input validated by caller"),
        "reasons must be listed:\n{stdout}"
    );
}

#[test]
fn allows_audit_rejects_unknown_rule_names() {
    let root = fixture_dir("allows-unknown");
    skeleton(&root);
    write(
        &root,
        "crates/storage/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn f() {\n\
         \x20   // lint: allow(panics) — typo'd rule name\n\
         \x20   let _ = 1;\n\
         }\n",
    );
    let out = run_allows(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "unknown rule name must fail");
    assert!(
        stdout.contains("STALE (unknown rule)"),
        "unknown rule must be called out:\n{stdout}"
    );
}

#[test]
fn this_workspace_allows_are_all_used() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap();
    let out = run_allows(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "every allow marker in the repository must still suppress something:\n{stdout}"
    );
}

#[test]
fn this_workspace_is_clean() {
    // crates/xtask/tests -> workspace root is two levels above the manifest.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap();
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the repository itself must pass wedge-lint:\n{stdout}"
    );
}
