//! Regression tests for PR 2's satellite bugfixes.

use std::time::Duration;

use wedge_core::{LocalNode, NodeConfig};

fn world(tag: &str, batch_size: usize) -> LocalNode {
    let config = NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(5),
        ..Default::default()
    };
    LocalNode::start(tag, config).expect("start node")
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("entry-{i}").into_bytes()).collect()
}

/// Regression: `scan_range`'s bounds check computed `start + count` with
/// wrapping u32 arithmetic, so `start = u32::MAX, count = 2` wrapped to 1
/// and sailed past validation straight into the store.
#[test]
fn scan_range_rejects_overflowing_bounds() {
    let w = world("scan-overflow", 8);
    let mut p = w.publisher();
    p.append_batch(payloads(8)).expect("append");
    // Sanity: the honest scan works.
    let (leaves, proof, root) = w.node().scan_range(0, 2, 4).expect("honest scan");
    assert_eq!(leaves.len(), 4);
    proof.verify(&leaves, &root).expect("proof verifies");
    // The wrapping inputs must be rejected, not served.
    assert!(w.node().scan_range(0, u32::MAX, 2).is_err());
    assert!(w.node().scan_range(0, u32::MAX, u32::MAX).is_err());
    assert!(w.node().scan_range(0, 2, u32::MAX).is_err());
    // Zero-length scans stay rejected too.
    assert!(w.node().scan_range(0, 0, 0).is_err());
    drop(p);
    w.node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .unwrap();
}

/// Regression: a publisher restarting after *all* its receipts were
/// verified resumed sequence numbering from the (empty) pending set —
/// i.e. at 0 — and collided with its own already-logged entries.
#[test]
fn publisher_restart_after_full_verify_resumes_sequence() {
    let w = world("pub-restart", 10);
    let receipts_dir = w.dir().join("publisher-receipts");
    let mut p = w
        .publisher()
        .with_receipt_store(&receipts_dir)
        .expect("receipt store");
    p.append_batch(payloads(20)).expect("append");
    w.node()
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("stage 2 commits");
    // Verify every stored receipt so the pending set drains completely.
    let sweep = p.verify_pending().expect("sweep");
    assert_eq!(sweep.verified, 20);
    assert_eq!(sweep.still_pending, 0);
    assert_eq!(p.receipt_store().unwrap().pending_count(), 0);
    drop(p);
    // Restart: the publisher must resume *after* its own logged entries.
    let mut p = w
        .publisher()
        .with_receipt_store(&receipts_dir)
        .expect("reopen receipt store");
    assert_eq!(
        p.next_sequence(),
        20,
        "restart after full verify must not reuse sequences"
    );
    // And the resumed stream must not collide: new sequences read back as
    // the new entries.
    p.append_batch(payloads(5)).expect("append after restart");
    let resp = w
        .node()
        .read_by_sequence(p.address(), 20)
        .expect("sequence 20 exists exactly once");
    assert_eq!(resp.request().unwrap().payload, b"entry-0".to_vec());
    assert_eq!(p.next_sequence(), 25);
}
