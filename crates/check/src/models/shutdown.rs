//! Pipeline shutdown drain via sender-drop ordering.
//!
//! Mirrors the batcher pipeline in `crates/core/src/node/batcher.rs`:
//! collect → persist → deliver stages joined by bounded channels, shut down
//! by dropping the upstream sender so each stage drains to disconnect and
//! its own sender drop cascades the shutdown downstream.
//!
//! Invariants asserted in every interleaving:
//! - **no reply lost**: every request accepted before shutdown is
//!   delivered downstream exactly once, in order;
//! - **no double delivery**: (covered by the exact-sequence assert);
//! - **termination**: the pipeline always drains and joins (a wedge shows
//!   up as a deadlock, which the checker reports).
//!
//! Stage 1 holds requests the way the node's collect stage does: the open
//! batch is a checked prefix plus an unchecked tail. A momentarily empty
//! queue is when it checks the tail early, and the batch stays open; a
//! full batch goes downstream, and the disconnect flushes whatever is
//! held, prefix and tail.
//!
//! `broken: true` replaces stage 1's drain-to-disconnect loop with a
//! `try_recv`-until-empty loop — the stage can observe a momentarily empty
//! queue and shut down while requests are still in flight, losing replies.

use crate::channel::{bounded, Sender, TryRecvError};
use crate::{explore, thread, Config, Report};

const REQUESTS: u64 = 3;

/// Requests per batch: with three requests, one batch closes on size and
/// the disconnect flushes the next.
const BATCH: usize = 2;

/// Sends the held batch downstream, in order.
fn forward(tx: &Sender<u64>, held: &mut Vec<u64>) -> Result<(), ()> {
    for v in held.drain(..) {
        tx.send(v).map_err(|_| ())?;
    }
    Ok(())
}

fn model(broken: bool) {
    // The broken variant loses a reply the moment stage 1 observes "empty"
    // before the producer's first send — a root-level scheduling choice.
    // One request keeps that losing branch within the DFS budget; the
    // fixed variant keeps the full load to maximise explored interleavings.
    let requests = if broken { 1 } else { REQUESTS };
    let (req_tx, req_rx) = bounded::<u64>(2);
    let (mid_tx, mid_rx) = bounded::<u64>(2);
    let (out_tx, out_rx) = bounded::<u64>(2);

    // Stage 1 (collect): forwards requests downstream; its sender drop on
    // exit is what tells the persist stage the pipeline is closed.
    let stage1 = thread::spawn(move || {
        if broken {
            // The hazard: "empty right now" is not "closed".
            while let Ok(v) = req_rx.try_recv() {
                if mid_tx.send(v).is_err() {
                    break;
                }
            }
        } else {
            let mut checked: Vec<u64> = Vec::new();
            let mut tail: Vec<u64> = Vec::new();
            loop {
                let next = match req_rx.try_recv() {
                    Ok(v) => Some(v),
                    Err(TryRecvError::Empty) => {
                        // Empty right now: check the tail early, then wait
                        // for more — the batch stays open.
                        checked.append(&mut tail);
                        req_rx.recv().ok()
                    }
                    Err(TryRecvError::Disconnected) => None,
                };
                let Some(v) = next else {
                    break;
                };
                tail.push(v);
                if checked.len() + tail.len() >= BATCH {
                    checked.append(&mut tail);
                    if forward(&mid_tx, &mut checked).is_err() {
                        return;
                    }
                }
            }
            // Disconnected: the held prefix and the tail both go down.
            checked.append(&mut tail);
            let _ = forward(&mid_tx, &mut checked);
        }
    });

    // Stage 2 (persist): drains to disconnect, cascading the shutdown.
    let stage2 = thread::spawn(move || {
        while let Ok(v) = mid_rx.recv() {
            if out_tx.send(v).is_err() {
                break;
            }
        }
    });

    // Stage 3 (deliver): collects everything until its upstream closes.
    let stage3 = thread::spawn(move || {
        let mut delivered = Vec::new();
        while let Ok(v) = out_rx.recv() {
            delivered.push(v);
        }
        delivered
    });

    // The producer accepts the requests, then shuts down by dropping its
    // sender; stage 1's recv loop sees the disconnect after draining.
    for v in 1..=requests {
        req_tx.send(v).expect("pipeline accepts before shutdown");
    }
    drop(req_tx);

    stage1.join();
    stage2.join();
    let delivered = stage3.join().unwrap_or_default();
    let expected: Vec<u64> = (1..=requests).collect();
    assert_eq!(
        delivered, expected,
        "shutdown drain lost or duplicated replies"
    );
}

/// Explores the shutdown-drain model under `config`.
pub fn run(broken: bool, config: Config) -> Report {
    explore(config, move || model(broken))
}
