//! Model-based testing: a long random sequence of appends, reads,
//! sequence-lookups, audits and node restarts is executed against the real
//! system AND an in-memory reference model; after every step the two must
//! agree.
//!
//! This is the "many small correct steps compose" check that unit tests
//! can't give: restarts interleave with appends, reads hit every region of
//! the log, and verified phases must be monotone (an entry seen
//! blockchain-committed can never regress). `wedge_core::audit` judges the
//! whole run: every reply survives every later restart, positions stay
//! gapless, and each lands on chain exactly once.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_core::{
    AppendRequest, CommitPhase, EntryId, EvidenceKind, LocalNode, NodeBehavior, NodeConfig,
    Publisher, SignedResponse, Stage2Verdict,
};
use wedge_crypto::signer::Identity;

/// The reference model: what the log must contain.
#[derive(Default)]
struct Model {
    /// All payloads in append order (global entry order).
    entries: Vec<Vec<u8>>,
    /// `(publisher_idx, sequence)` → global entry index.
    by_sequence: HashMap<(usize, u64), usize>,
    /// Next sequence per publisher.
    next_seq: Vec<u64>,
}

const BATCH: usize = 16;

fn entry_id_for(global: usize) -> EntryId {
    EntryId {
        log_id: (global / BATCH) as u64,
        offset: (global % BATCH) as u32,
    }
}

#[test]
fn random_workload_agrees_with_model() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let publishers: Vec<Identity> = (0..3)
        .map(|i| Identity::from_seed(format!("model-pub-{i}").as_bytes()))
        .collect();
    let config = || NodeConfig {
        batch_size: BATCH,
        batch_linger: Duration::from_millis(5),
        ..Default::default()
    };
    let mut w = LocalNode::start("model", config()).unwrap();
    let mut t = w.transcript();

    let mut model = Model {
        next_seq: vec![0; publishers.len()],
        ..Default::default()
    };

    let mut restarts = 0;
    for step in 0..60 {
        match rng.gen_range(0..100) {
            // ---- append a full batch from a random publisher (70%).
            0..=69 => {
                let who = rng.gen_range(0..publishers.len());
                let payloads: Vec<Vec<u8>> = (0..BATCH)
                    .map(|i| format!("step{step}-p{who}-e{i}-{}", rng.gen::<u32>()).into_bytes())
                    .collect();
                let mut publisher = Publisher::new(
                    publishers[who].clone(),
                    Arc::clone(w.node()),
                    Arc::clone(&w.chain),
                    w.root_record,
                    None,
                )
                .with_starting_sequence(model.next_seq[who]);
                let outcome = publisher.append_batch(payloads.clone()).unwrap();
                assert_eq!(outcome.responses.len(), BATCH, "step {step}");
                t.replies.extend(outcome.responses);
                for payload in payloads {
                    let global = model.entries.len();
                    model.by_sequence.insert((who, model.next_seq[who]), global);
                    model.next_seq[who] += 1;
                    model.entries.push(payload);
                }
            }
            // ---- random verified read by entry id (15%).
            70..=84 => {
                if model.entries.is_empty() {
                    continue;
                }
                w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
                let reader = w.reader();
                let global = rng.gen_range(0..model.entries.len());
                let entry = reader.read(entry_id_for(global)).unwrap();
                assert_eq!(
                    entry.request.payload, model.entries[global],
                    "step {step}: entry {global} diverged"
                );
                assert_eq!(entry.phase, CommitPhase::BlockchainCommitted);
            }
            // ---- random read by (publisher, sequence) (10%).
            85..=94 => {
                if model.by_sequence.is_empty() {
                    continue;
                }
                let reader = w.reader();
                let (&(who, seq), &global) = model
                    .by_sequence
                    .iter()
                    .nth(rng.gen_range(0..model.by_sequence.len()))
                    .unwrap();
                let entry = reader
                    .read_lazy_by_sequence(publishers[who].address(), seq)
                    .unwrap();
                assert_eq!(entry.request.payload, model.entries[global], "step {step}");
            }
            // ---- restart the node from its log alone (5%): without the
            // checkpoints the restart replays every batch, so a replay
            // that drops or repeats one is seen.
            _ => {
                w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
                w.shutdown().unwrap();
                std::fs::remove_dir_all(w.dir().join("checkpoints")).unwrap();
                w.restart(config()).unwrap();
                t.restarted(&**w.node());
                restarts += 1;
            }
        }
    }

    assert!(restarts > 0, "the seed restarts the node");
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let verdict = w.audit(&mut t).unwrap();
    assert!(verdict.is_settled(), "{verdict:?}");
    // Final sweep: every model entry is served verbatim and verified.
    let reader = w.reader();
    for (global, payload) in model.entries.iter().enumerate() {
        let entry = reader.read(entry_id_for(global)).unwrap();
        assert_eq!(&entry.request.payload, payload);
    }
}

/// What Algorithm 2 must say about one signed response — a function of the
/// node's behaviour and the response's log position alone, whichever way
/// the response was signed (append reply, whole-position read, single read).
fn expected_verdict(behavior: NodeBehavior, log_id: u64) -> Stage2Verdict {
    match behavior {
        NodeBehavior::CommitWrongRoot { .. } if behavior.affects(log_id) => {
            Stage2Verdict::Punishable(EvidenceKind::RootMismatch)
        }
        NodeBehavior::TamperResponses { .. } if behavior.affects(log_id) => {
            Stage2Verdict::Punishable(EvidenceKind::BogusProof)
        }
        NodeBehavior::OmitStage2 { .. } if behavior.affects(log_id) => Stage2Verdict::NotYet,
        _ => Stage2Verdict::Committed,
    }
}

/// The punishability model under the Merkle-batched signature: for every
/// `NodeBehavior`, every signed response the node hands out — batched append
/// replies, batched position reads, single reads — gets exactly the verdict
/// the per-response scheme gave it, and a lie is punished exactly once.
#[test]
fn every_lie_is_punished_exactly_once() {
    const ENTRIES: u64 = 3 * BATCH as u64;
    let behaviors = [
        NodeBehavior::Honest,
        NodeBehavior::CommitWrongRoot { from_log: 1 },
        NodeBehavior::TamperResponses { from_log: 1 },
        NodeBehavior::OmitStage2 { from_log: 1 },
    ];
    for (run, behavior) in behaviors.into_iter().enumerate() {
        let config = NodeConfig {
            batch_size: BATCH,
            batch_linger: Duration::from_millis(5),
            behavior,
            ..Default::default()
        };
        let w = LocalNode::start(&format!("lies-{run}"), config).unwrap();
        let (node, client) = (w.node(), &w.client_identity);

        // Raw submits: a tampered reply would fail a Publisher's own checks,
        // and it is exactly the evidence wanted here.
        let (tx, rx) = crossbeam::channel::unbounded();
        for sequence in 0..ENTRIES {
            let payload = format!("lie-{sequence}").into_bytes();
            let request = AppendRequest::new(client.secret_key(), sequence, payload);
            node.submit(request, tx.clone()).unwrap();
        }
        let mut evidence: Vec<SignedResponse> = (0..ENTRIES)
            .map(|_| rx.recv().unwrap().expect("append accepted"))
            .collect();
        node.wait_stage2_idle(Duration::from_secs(600)).unwrap();
        // At least three positions (more when the linger closed one early).
        let positions = node.log_positions();
        assert!(positions >= ENTRIES / BATCH as u64);
        for log_id in 0..positions {
            evidence.extend(node.read_log_position(log_id).unwrap());
            evidence.push(node.read(EntryId { log_id, offset: 0 }).unwrap());
        }
        // Honest positions first, so the calls before the first punishment
        // meet every kind of verdict.
        evidence.sort_by_key(|response| response.entry_id.log_id);

        // Every response goes to the Punishment contract; the audit holds
        // each call's outcome to Algorithm 2 and the payouts to one.
        let publisher = w.publisher();
        let mut t = w.transcript();
        for response in evidence {
            let receipt = publisher.punish(&response).unwrap();
            t.punishments.push((response, receipt.tx_hash));
        }
        let verdict = w.audit(&mut t).unwrap();
        assert!(verdict.is_safe(), "{behavior:?}: {verdict:?}");
        let model = (0..positions).map(|log_id| (log_id, expected_verdict(behavior, log_id)));
        let lies = verdict.lies.iter().map(|(id, kind)| (id.log_id, *kind));
        let pending = verdict.pending.iter().copied();
        assert!(
            lies.eq(model.clone().filter_map(|(log_id, v)| match v {
                Stage2Verdict::Punishable(kind) => Some((log_id, kind)),
                _ => None,
            })),
            "{behavior:?}: {verdict:?}"
        );
        assert!(
            pending
                .eq(model.filter_map(|(log_id, v)| (v == Stage2Verdict::NotYet).then_some(log_id))),
            "{behavior:?}: {verdict:?}"
        );
    }
}
