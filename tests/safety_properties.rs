//! The paper's safety definitions as executable properties.
//!
//! - **Definition 3.1 (Off-chain-commit Safety)**: any off-chain committed
//!   `i-e` pair either (1) matches what is eventually blockchain-committed,
//!   or (2) the client can *prove* the node lied — and the proof is accepted
//!   by the Punishment contract.
//! - **Definition 3.2 (Blockchain-committed Safety)**: two clients reading
//!   blockchain-committed responses for the same index always agree.
//!
//! Each run is judged by `wedgeblock::core::audit` over what the clients
//! hold and what the chain recorded.

use std::time::Duration;

use wedgeblock::chain::Wei;
use wedgeblock::contracts::RootRecord;
use wedgeblock::core::{LocalNode, NodeBehavior, NodeConfig};

fn world(tag: &str, behavior: NodeBehavior) -> LocalNode {
    let config = NodeConfig {
        batch_size: 25,
        batch_linger: Duration::from_millis(5),
        behavior,
        ..Default::default()
    };
    LocalNode::start(&format!("safety-{tag}"), config).unwrap()
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("safety-entry-{i}").into_bytes())
        .collect()
}

#[test]
fn definition_3_1_clause_1_honest_node() {
    // Clause 1: the off-chain committed pair IS what gets blockchain
    // committed.
    let w = world("d31-honest", NodeBehavior::Honest);
    let mut t = w.transcript();
    t.replies = w.publisher().append_batch(payloads(25)).unwrap().responses;
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let verdict = w.audit(&mut t).unwrap();
    assert!(verdict.is_settled(), "{verdict:?}");
}

#[test]
fn definition_3_1_clause_2_lying_node_is_provable() {
    // Clause 2: when the node blockchain-commits e' ≠ e, the client's signed
    // response alone convinces the Punishment contract.
    let w = world("d31-liar", NodeBehavior::CommitWrongRoot { from_log: 0 });
    let mut publisher = w.publisher();
    let mut t = w.transcript();
    t.replies = publisher.append_batch(payloads(25)).unwrap().responses;
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    // The contract pays out on exactly this evidence.
    let evidence = t.replies[0].clone();
    let receipt = publisher.punish(&evidence).unwrap();
    t.punishments.push((evidence, receipt.tx_hash));
    let verdict = w.audit(&mut t).unwrap();
    assert!(verdict.is_settled(), "{verdict:?}");
    assert_eq!((verdict.lies.len(), verdict.payouts), (1, 1), "{verdict:?}");
    assert_eq!(w.chain.balance(w.punishment), Wei::ZERO);
}

#[test]
fn definition_3_1_fabricated_evidence_is_rejected() {
    // The dual of clause 2: a client cannot frame an honest node. Evidence
    // not actually signed by the node is rejected by the contract.
    let w = world("d31-frame", NodeBehavior::Honest);
    let mut publisher = w.publisher();
    let mut t = w.transcript();
    t.replies = publisher.append_batch(payloads(25)).unwrap().responses;
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    // Honest response: the punishment call must NOT pay out.
    let receipt = publisher.punish(&t.replies[0]).unwrap();
    t.punishments.push((t.replies[0].clone(), receipt.tx_hash));
    let verdict = w.audit(&mut t).unwrap();
    assert!(verdict.is_settled(), "{verdict:?}");
    assert_eq!(verdict.payouts, 0, "escrow untouched");
}

#[test]
fn definition_3_2_blockchain_committed_readers_agree() {
    // Two independent readers with blockchain-committed responses for the
    // same index always see the same entry.
    let w = world("d32", NodeBehavior::Honest);
    let mut publisher = w.publisher();
    let outcome = publisher.append_batch(payloads(25)).unwrap();
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    let reader1 = w.reader();
    let reader2 = w.reader();
    for response in &outcome.responses {
        let e1 = reader1.read(response.entry_id).unwrap();
        let e2 = reader2.read(response.entry_id).unwrap();
        assert_eq!(e1.phase, wedgeblock::core::CommitPhase::BlockchainCommitted);
        assert_eq!(e1.request.payload, e2.request.payload);
        assert_eq!(e1.request.sequence, e2.request.sequence);
    }
}

#[test]
fn root_record_single_write_blocks_rewriting_history() {
    // The mechanism behind Definition 3.2: once index i holds a digest, not
    // even the node itself can change it.
    let w = world("d32-rewrite", NodeBehavior::Honest);
    let mut t = w.transcript();
    t.replies = w.publisher().append_batch(payloads(25)).unwrap().responses;
    w.node().wait_stage2_idle(Duration::from_secs(600)).unwrap();
    // Forge an update attempt for index 0 signed by the node's own key.
    let node_key = &w.node_identity;
    let tx = w
        .chain
        .call_contract(
            node_key.secret_key(),
            w.root_record,
            Wei::ZERO,
            RootRecord::update_records_calldata(0, &[wedgeblock::crypto::Hash32([0xBB; 32])]),
            wedgeblock::chain::Gas(500_000),
        )
        .unwrap();
    let receipt = w.chain.wait_for_receipt(tx).unwrap();
    assert!(!receipt.status.is_success(), "history rewrite must revert");
    let verdict = w.audit(&mut t).unwrap();
    assert!(verdict.is_settled(), "{verdict:?}");
}
