//! `LocalNode`'s drop order holds under its own clients: a publisher held
//! across a restart and past the deployment's drop neither blocks the drop
//! nor keeps (or re-creates) the node's directory.

use std::time::Duration;

use wedge_core::{LocalNode, NodeConfig};

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("local-{i}").into_bytes()).collect()
}

/// Replicas, a restart under a held publisher, then a drop while the
/// publisher is still held: the drop finishes, the directory is gone, and
/// the publisher cannot bring the node back.
#[test]
fn drops_cleanly_with_a_publisher_held_across_a_restart() {
    let config = || NodeConfig {
        batch_size: 4,
        batch_linger: Duration::from_millis(5),
        replicas: 2,
        ..Default::default()
    };
    let mut local = LocalNode::start("local-drop", config()).unwrap();
    let dir = local.dir().to_path_buf();
    let mut publisher = local.publisher();
    publisher.append_batch(payloads(8)).unwrap();
    local.restart(config()).unwrap();
    // The held publisher talks to the restarted node.
    publisher.append_batch(payloads(8)).unwrap();
    assert_eq!(local.node().entry_count(), 16);
    assert!(dir.join("replicas").exists());

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(local);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("dropping the deployment hung");
    assert!(!dir.exists(), "{} left behind", dir.display());
    assert!(publisher.append_batch(payloads(1)).is_err());
    drop(publisher);
    assert!(!dir.exists(), "{} re-created", dir.display());
}
