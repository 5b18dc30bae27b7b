//! Model-based testing: a long random sequence of appends, reads,
//! sequence-lookups, audits and node restarts is executed against the real
//! system AND an in-memory reference model; after every step the two must
//! agree.
//!
//! This is the "many small correct steps compose" check that unit tests
//! can't give: restarts interleave with appends, reads hit every region of
//! the log, and verified phases must be monotone (an entry seen
//! blockchain-committed can never regress).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_chain::Wei;
use wedge_contracts::Punishment;
use wedge_core::{
    AppendRequest, CommitPhase, EntryId, LocalNode, NodeBehavior, NodeConfig, Publisher,
    SignedResponse,
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

    let mut model = Model {
        next_seq: vec![0; publishers.len()],
        ..Default::default()
    };

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
            // ---- restart the node (5%).
            _ => {
                w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
                w.restart(config()).unwrap();
                assert_eq!(
                    w.node().entry_count(),
                    model.entries.len() as u64,
                    "step {step}: restart lost entries"
                );
            }
        }
        // Global invariants after every step.
        assert_eq!(w.node().entry_count(), model.entries.len() as u64);
        assert_eq!(
            w.node().log_positions(),
            (model.entries.len() / BATCH) as u64
        );
    }

    // Final sweep: every model entry is served verbatim and verified.
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let reader = w.reader();
    for (global, payload) in model.entries.iter().enumerate() {
        let entry = reader.read(entry_id_for(global)).unwrap();
        assert_eq!(&entry.request.payload, payload);
    }
}

/// What Algorithm 2 must say about one signed response — a function of the
/// node's behaviour and the response's log position alone, whichever way
/// the response was signed (append reply, whole-position read, single read).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verdict {
    /// Consistent with the chain: the call succeeds and pays nothing.
    Consistent,
    /// Root mismatch (line 6) or bogus proof (line 10): seizes the escrow.
    Punishable,
    /// Position never committed: the call reverts.
    NotAdjudicable,
}

fn expected_verdict(behavior: NodeBehavior, log_id: u64) -> Verdict {
    match behavior {
        NodeBehavior::CommitWrongRoot { .. } | NodeBehavior::TamperResponses { .. }
            if behavior.affects(log_id) =>
        {
            Verdict::Punishable
        }
        NodeBehavior::OmitStage2 { .. } if behavior.affects(log_id) => Verdict::NotAdjudicable,
        _ => Verdict::Consistent,
    }
}

/// The punishability model under the Merkle-batched signature: for every
/// `NodeBehavior`, every signed response the node hands out — batched append
/// replies, batched position reads, single reads — gets exactly the verdict
/// the per-response scheme gave it, and a lie is punished exactly once.
#[test]
fn every_lie_is_punished_exactly_once() {
    const ESCROW: Wei = LocalNode::ESCROW;
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
        let (node, chain, client) = (w.node(), &w.chain, &w.client_identity);

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
        // Honest positions first, so the model's "before the first
        // punishment" half sees every kind of verdict.
        evidence.sort_by_key(|response| response.entry_id.log_id);

        let publisher = w.publisher();
        let before = chain.balance(client.address());
        let mut fees = Wei::ZERO;
        let mut punished = 0u32;
        for response in &evidence {
            let id = response.entry_id;
            let receipt = publisher.punish(response).unwrap();
            fees = fees.checked_add(receipt.fee).unwrap();
            let seized = Punishment::decode_invoke_result(&receipt.output);
            if punished > 0 {
                // All-or-nothing: the contract is spent, nothing pays twice.
                assert!(!receipt.status.is_success(), "{behavior:?} {id}");
                continue;
            }
            match expected_verdict(behavior, id.log_id) {
                Verdict::Consistent => {
                    assert!(receipt.status.is_success(), "{behavior:?} {id}");
                    assert_eq!(seized, Some(false), "{behavior:?} {id}");
                }
                Verdict::NotAdjudicable => {
                    assert!(!receipt.status.is_success(), "{behavior:?} {id}");
                }
                Verdict::Punishable => {
                    assert!(receipt.status.is_success(), "{behavior:?} {id}");
                    assert_eq!(seized, Some(true), "{behavior:?} {id}");
                    punished += 1;
                }
            }
        }
        let lies =
            (0..positions).any(|log_id| expected_verdict(behavior, log_id) == Verdict::Punishable);
        assert_eq!(punished, lies as u32, "{behavior:?}");
        let gained = chain
            .balance(client.address())
            .checked_add(fees)
            .unwrap()
            .checked_sub(before)
            .unwrap();
        assert_eq!(gained, Wei(ESCROW.0 * punished as u128), "{behavior:?}");
        assert_eq!(
            chain.balance(w.punishment),
            Wei(ESCROW.0 * (1 - punished) as u128)
        );
    }
}
