//! The collect stage checks a filling batch early — verifies, answers the
//! rejects, encodes, frames and leaf-hashes what has arrived — whenever the
//! ingest queue is momentarily empty and every publisher in the unchecked
//! tail has a run of at least 256 requests there. None of that may change
//! what a batch is: the first `batch_size` requests received, in arrival
//! order, minus the rejects, at dense positions, under the root of the
//! serial Merkle tree over their leaves.

use std::sync::mpsc;
use std::time::Duration;

use wedge_core::{AppendRequest, EntryId, LocalNode, NodeConfig, OffchainNode, SignedResponse};
use wedge_crypto::signer::Identity;
use wedge_merkle::MerkleTree;

/// Long enough that no batch in these tests closes by linger: each one
/// closes on size or at the shutdown drain.
const NO_LINGER: Duration = Duration::from_secs(600);
const REPLY_WAIT: Duration = Duration::from_secs(120);

type Outcome = (usize, Result<SignedResponse, String>);

fn start(tag: &str, batch_size: usize) -> LocalNode {
    let config = NodeConfig {
        batch_size,
        batch_linger: NO_LINGER,
        worker_threads: 2,
        ..Default::default()
    };
    LocalNode::start(tag, config).expect("start node")
}

/// Submits `requests[range]`, tagging each reply with its arrival index.
fn submit(
    node: &OffchainNode,
    requests: &[AppendRequest],
    range: std::ops::Range<usize>,
    replies: &mpsc::Sender<Outcome>,
) {
    for i in range {
        let tx = replies.clone();
        node.submit_with(
            requests[i].clone(),
            Box::new(move |outcome| {
                let _ = tx.send((i, outcome));
            }),
        )
        .expect("node running");
    }
}

/// Collects `n` replies into `slots`, failing on a second reply for any
/// request.
fn collect(
    rx: &mpsc::Receiver<Outcome>,
    n: usize,
    slots: &mut [Option<Result<SignedResponse, String>>],
) {
    for _ in 0..n {
        let (i, outcome) = rx.recv_timeout(REPLY_WAIT).expect("a reply in time");
        assert!(
            slots[i].replace(outcome).is_none(),
            "request {i} answered twice"
        );
    }
}

/// Two publishers in strict alternation, bad signatures early in the first
/// prefix, the batch held open (no linger) while its first 600 requests
/// are checked: the rejects are answered before the batch closes, and
/// every position holds exactly what the whole-batch path puts there.
#[test]
fn early_checks_keep_batches_and_answer_rejects_before_close() {
    const BATCH: usize = 700;
    const TOTAL: usize = 1300;
    let publishers: Vec<Identity> = (0..2)
        .map(|p| Identity::from_seed(format!("early-pub-{p}").as_bytes()))
        .collect();
    let bad_early = [1usize, 4, 9, 300];
    let bad_late = [650usize, 1000];
    let mut requests: Vec<AppendRequest> = (0..TOTAL)
        .map(|i| {
            let publisher = &publishers[i % 2];
            AppendRequest::new(
                publisher.secret_key(),
                (i / 2) as u64,
                format!("entry {i}").into_bytes(),
            )
        })
        .collect();
    for &i in bad_early.iter().chain(&bad_late) {
        requests[i].payload.push(b'!');
    }

    let w = start("interleaved", BATCH);
    let node = w.node();
    let (tx, rx) = mpsc::channel();
    let mut slots: Vec<Option<Result<SignedResponse, String>>> = vec![None; TOTAL];

    // 300 requests per publisher: once the collect stage has caught up,
    // the whole tail holds runs of ≥ 256 and is checked early.
    submit(node, &requests, 0..600, &tx);
    collect(&rx, bad_early.len(), &mut slots);
    for &i in &bad_early {
        assert!(
            matches!(&slots[i], Some(Err(e)) if e.contains("invalid request signature")),
            "request {i}: {:?}",
            slots[i].as_ref().map(|o| o.as_ref().err())
        );
    }
    let stats = node.stats();
    assert_eq!(node.log_positions(), 0, "the first batch is still open");
    assert_eq!(stats.requests_rejected, bad_early.len() as u64);
    assert!(
        (512..=600).contains(&stats.requests_verified_early),
        "early verdicts: {}",
        stats.requests_verified_early
    );

    // Close the first batch on size; the second closes at the drain.
    submit(node, &requests, 600..TOTAL, &tx);
    node.begin_shutdown();
    collect(&rx, TOTAL - bad_early.len(), &mut slots);

    let bad = |i: &usize| bad_early.contains(i) || bad_late.contains(i);
    let batches: Vec<Vec<usize>> = [0..BATCH, BATCH..TOTAL]
        .into_iter()
        .map(|range| range.filter(|i| !bad(i)).collect())
        .collect();
    assert_eq!(node.log_positions(), batches.len() as u64);
    for (log_id, members) in batches.iter().enumerate() {
        let stored = node
            .read_log_position(log_id as u64)
            .expect("position readable");
        assert_eq!(stored.len(), members.len(), "position {log_id}");
        let leaves: Vec<Vec<u8>> = members.iter().map(|&i| requests[i].leaf_bytes()).collect();
        let root = MerkleTree::from_leaves(&leaves).unwrap().root();
        for (offset, (&i, response)) in members.iter().zip(&stored).enumerate() {
            let expect_id = EntryId {
                log_id: log_id as u64,
                offset: offset as u32,
            };
            assert_eq!(response.entry_id, expect_id);
            assert_eq!(
                response.leaf, leaves[offset],
                "position {log_id}, offset {offset}"
            );
            assert_eq!(response.merkle_root, root, "position {log_id}");
            let reply = slots[i]
                .as_ref()
                .expect("answered")
                .as_ref()
                .expect("accepted");
            assert_eq!(reply.entry_id, expect_id, "request {i}");
        }
    }
    for i in bad_late {
        assert!(
            matches!(&slots[i], Some(Err(_))),
            "request {i} must be refused"
        );
    }
    assert_eq!(
        node.stats().requests_rejected,
        (bad_early.len() + bad_late.len()) as u64
    );
}

/// 200 publishers with 10 requests each: every run is far below 256, so
/// nothing is checked before the batch closes, and the batch is checked
/// in one pass exactly as before early checks existed. The batch is one
/// request short of full, so its last arrival finds the queue empty with
/// the batch still open: only the run rule keeps that arrival from
/// checking the whole tail early.
#[test]
fn many_light_publishers_never_check_early() {
    const PUBLISHERS: usize = 200;
    const EACH: usize = 10;
    let publishers: Vec<Identity> = (0..PUBLISHERS)
        .map(|p| Identity::from_seed(format!("early-light-{p}").as_bytes()))
        .collect();
    let requests: Vec<AppendRequest> = (0..PUBLISHERS * EACH)
        .map(|i| {
            let publisher = &publishers[i % PUBLISHERS];
            AppendRequest::new(
                publisher.secret_key(),
                (i / PUBLISHERS) as u64,
                vec![i as u8; 40],
            )
        })
        .collect();
    let w = start("light", requests.len() + 1);
    let node = w.node();
    let (tx, rx) = mpsc::channel();
    let mut slots: Vec<Option<Result<SignedResponse, String>>> = vec![None; requests.len()];
    submit(node, &requests, 0..requests.len(), &tx);
    node.begin_shutdown();
    collect(&rx, requests.len(), &mut slots);
    assert!(slots.iter().all(|s| matches!(s, Some(Ok(_)))));
    let stats = node.stats();
    assert_eq!(stats.requests_verified_early, 0);
    assert_eq!(stats.batches_flushed, 1);
    assert_eq!(stats.entries_ingested, requests.len() as u64);
}
