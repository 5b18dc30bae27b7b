//! Adversarial tests for the Punishment contract: every clause of
//! Algorithm 2 exercised against a live chain with real ECDSA signatures
//! and Merkle proofs.

use std::sync::Arc;

use wedge_chain::{Chain, Gas, Wei};
use wedge_contracts::{
    attestation_digest, response_digest, Punishment, PunishmentStatus, RootRecord,
};
use wedge_crypto::ecdsa::sign_prehashed;
use wedge_crypto::hash::Hash32;
use wedge_crypto::{Keypair, Signature};
use wedge_merkle::MerkleTree;
use wedge_sim::Clock;

struct Harness {
    chain: Arc<Chain>,
    node: Keypair,
    client: Keypair,
    root_record: wedge_chain::Address,
    punishment: wedge_chain::Address,
}

const ESCROW: Wei = Wei::from_eth(10);

fn setup() -> Harness {
    let chain = Chain::with_defaults(Clock::manual());
    let node = Keypair::from_seed(b"punish-node");
    let client = Keypair::from_seed(b"punish-client");
    chain.fund(node.address, Wei::from_eth(100));
    chain.fund(client.address, Wei::from_eth(100));
    let (root_record, _) = chain
        .deploy(
            &node.secret,
            Box::new(RootRecord::new(node.address)),
            Wei::ZERO,
            RootRecord::CODE_LEN,
        )
        .unwrap();
    let (punishment, _) = chain
        .deploy(
            &node.secret,
            Box::new(Punishment::new(client.address, node.address, root_record)),
            ESCROW,
            Punishment::CODE_LEN,
        )
        .unwrap();
    chain.mine_block();
    Harness {
        chain,
        node,
        client,
        root_record,
        punishment,
    }
}

/// Builds a batch, blockchain-commits its root at index 0, and returns the
/// tree plus batch data.
fn commit_batch(h: &Harness, batch: &[Vec<u8>]) -> MerkleTree {
    let tree = MerkleTree::from_leaves(batch).unwrap();
    h.chain
        .call_contract(
            &h.node.secret,
            h.root_record,
            Wei::ZERO,
            RootRecord::update_records_calldata(0, &[tree.root()]),
            Gas(1_000_000),
        )
        .unwrap();
    h.chain.mine_block();
    tree
}

/// Signs a response tuple exactly as the honest/malicious node would sign
/// it on its own (a batch of one): the signature and the serialized
/// single-leaf attestation.
fn sign_response(
    node: &Keypair,
    index: u64,
    root: &Hash32,
    proof_bytes: &[u8],
    raw: &[u8],
) -> (Signature, Vec<u8>) {
    sign_batch(node, &[response_digest(index, root, proof_bytes, raw)]).remove(0)
}

/// Signs a batch of response digests as the node does: one signature over
/// the attested root of the tree of digests, plus each digest's path.
fn sign_batch(node: &Keypair, digests: &[[u8; 32]]) -> Vec<(Signature, Vec<u8>)> {
    let tree = MerkleTree::from_leaves(digests).unwrap();
    let sig = sign_prehashed(&node.secret, &attestation_digest(&tree.root()));
    (0..digests.len())
        .map(|i| (sig, tree.prove(i).unwrap().to_bytes()))
        .collect()
}

fn invoke(h: &Harness, calldata: Vec<u8>) -> wedge_chain::Receipt {
    let tx = h
        .chain
        .call_contract(
            &h.client.secret,
            h.punishment,
            Wei::ZERO,
            calldata,
            Gas(5_000_000),
        )
        .unwrap();
    h.chain.mine_block();
    h.chain.receipt(tx).unwrap()
}

fn status(h: &Harness) -> PunishmentStatus {
    let out = h
        .chain
        .view(h.punishment, &Punishment::status_calldata())
        .unwrap();
    Punishment::decode_status(&out).unwrap()
}

#[test]
fn honest_response_is_not_punished() {
    let h = setup();
    let batch: Vec<Vec<u8>> = (0..8).map(|i| format!("entry-{i}").into_bytes()).collect();
    let tree = commit_batch(&h, &batch);
    let proof = tree.prove(3).unwrap().to_bytes();
    let sig = sign_response(&h.node, 0, &tree.root(), &proof, &batch[3]);
    let receipt = invoke(
        &h,
        Punishment::invoke_calldata(0, &tree.root(), &proof, &batch[3], &sig.0, &sig.1),
    );
    assert!(receipt.status.is_success());
    assert_eq!(
        Punishment::decode_invoke_result(&receipt.output),
        Some(false)
    );
    assert_eq!(status(&h), PunishmentStatus::Active);
    assert_eq!(h.chain.balance(h.punishment), ESCROW, "escrow intact");
}

#[test]
fn equivocation_drains_escrow_to_client() {
    // The node signed a response for root R' but blockchain-committed R.
    let h = setup();
    let honest: Vec<Vec<u8>> = (0..8).map(|i| format!("entry-{i}").into_bytes()).collect();
    commit_batch(&h, &honest);
    // The lie: a different batch, consistent within itself.
    let forged: Vec<Vec<u8>> = (0..8).map(|i| format!("forged-{i}").into_bytes()).collect();
    let forged_tree = MerkleTree::from_leaves(&forged).unwrap();
    let proof = forged_tree.prove(3).unwrap().to_bytes();
    let sig = sign_response(&h.node, 0, &forged_tree.root(), &proof, &forged[3]);

    let client_before = h.chain.balance(h.client.address);
    let receipt = invoke(
        &h,
        Punishment::invoke_calldata(0, &forged_tree.root(), &proof, &forged[3], &sig.0, &sig.1),
    );
    assert!(receipt.status.is_success());
    assert_eq!(
        Punishment::decode_invoke_result(&receipt.output),
        Some(true)
    );
    assert_eq!(status(&h), PunishmentStatus::Punished);
    assert_eq!(h.chain.balance(h.punishment), Wei::ZERO);
    // Client received the full escrow (minus its own gas fee).
    let gained = h
        .chain
        .balance(h.client.address)
        .checked_add(receipt.fee)
        .unwrap()
        .checked_sub(client_before)
        .unwrap();
    assert_eq!(gained, ESCROW);
    assert!(receipt.logs.iter().any(|l| l.name == "Punished"));
}

#[test]
fn bogus_proof_drains_escrow() {
    // The node signed a (root, proof, data) tuple whose proof does not
    // reproduce the root.
    let h = setup();
    let batch: Vec<Vec<u8>> = (0..8).map(|i| format!("entry-{i}").into_bytes()).collect();
    let tree = commit_batch(&h, &batch);
    // Proof for leaf 3 but data from leaf 4: reconstruction mismatches.
    let proof = tree.prove(3).unwrap().to_bytes();
    let sig = sign_response(&h.node, 0, &tree.root(), &proof, &batch[4]);
    let receipt = invoke(
        &h,
        Punishment::invoke_calldata(0, &tree.root(), &proof, &batch[4], &sig.0, &sig.1),
    );
    assert!(receipt.status.is_success());
    assert_eq!(
        Punishment::decode_invoke_result(&receipt.output),
        Some(true)
    );
    assert_eq!(status(&h), PunishmentStatus::Punished);
}

#[test]
fn forged_signature_cannot_trigger_punishment() {
    // A malicious *client* fabricates a response and signs it itself.
    let h = setup();
    let batch: Vec<Vec<u8>> = (0..8).map(|i| format!("entry-{i}").into_bytes()).collect();
    commit_batch(&h, &batch);
    let forged_root = Hash32([0xEE; 32]);
    let fake_tree = MerkleTree::from_leaves(&[b"fake".to_vec()]).unwrap();
    let proof = fake_tree.prove(0).unwrap().to_bytes();
    // Signed by the CLIENT, not the node.
    let sig = sign_response(&h.client, 0, &forged_root, &proof, b"fake");
    let receipt = invoke(
        &h,
        Punishment::invoke_calldata(0, &forged_root, &proof, b"fake", &sig.0, &sig.1),
    );
    assert!(!receipt.status.is_success(), "must revert: wrong signer");
    assert_eq!(status(&h), PunishmentStatus::Active);
    assert_eq!(h.chain.balance(h.punishment), ESCROW);
}

#[test]
fn replayed_signature_over_different_fields_fails() {
    // Take an honest signature but swap the raw data: recovery yields a
    // different address, so the contract rejects it.
    let h = setup();
    let batch: Vec<Vec<u8>> = (0..8).map(|i| format!("entry-{i}").into_bytes()).collect();
    let tree = commit_batch(&h, &batch);
    let proof = tree.prove(3).unwrap().to_bytes();
    let sig = sign_response(&h.node, 0, &tree.root(), &proof, &batch[3]);
    let receipt = invoke(
        &h,
        Punishment::invoke_calldata(0, &tree.root(), &proof, b"swapped data", &sig.0, &sig.1),
    );
    assert!(!receipt.status.is_success());
    assert_eq!(status(&h), PunishmentStatus::Active);
}

/// A batch of five responses of committed position 0 — four honest, one
/// (index 4) with a bogus proof — signed with one signature. Returns each
/// response's calldata parts `(proof, raw)` and `(signature, attestation)`.
#[allow(clippy::type_complexity)]
fn signed_batch(h: &Harness) -> (Hash32, Vec<(Vec<u8>, Vec<u8>)>, Vec<(Signature, Vec<u8>)>) {
    let batch: Vec<Vec<u8>> = (0..8).map(|i| format!("entry-{i}").into_bytes()).collect();
    let tree = commit_batch(h, &batch);
    let mut parts: Vec<(Vec<u8>, Vec<u8>)> = (0..4)
        .map(|i| (tree.prove(i).unwrap().to_bytes(), batch[i].clone()))
        .collect();
    // Proof for leaf 4 with the data of leaf 5: line 10 material.
    parts.push((tree.prove(4).unwrap().to_bytes(), batch[5].clone()));
    let digests: Vec<[u8; 32]> = parts
        .iter()
        .map(|(proof, raw)| response_digest(0, &tree.root(), proof, raw))
        .collect();
    (tree.root(), parts, sign_batch(&h.node, &digests))
}

#[test]
fn batched_signature_keeps_every_response_individually_adjudicable() {
    let h = setup();
    let (root, parts, signed) = signed_batch(&h);
    // The honest four pay nothing, each under its own path.
    for i in 0..4 {
        let (proof, raw) = &parts[i];
        let receipt = invoke(
            &h,
            Punishment::invoke_calldata(0, &root, proof, raw, &signed[i].0, &signed[i].1),
        );
        assert!(receipt.status.is_success(), "response {i}");
        assert_eq!(
            Punishment::decode_invoke_result(&receipt.output),
            Some(false)
        );
    }
    assert_eq!(h.chain.balance(h.punishment), ESCROW);
    // The bogus one, sharing their signature, seizes the escrow (line 10).
    let (proof, raw) = &parts[4];
    let receipt = invoke(
        &h,
        Punishment::invoke_calldata(0, &root, proof, raw, &signed[4].0, &signed[4].1),
    );
    assert_eq!(
        Punishment::decode_invoke_result(&receipt.output),
        Some(true)
    );
    assert_eq!(status(&h), PunishmentStatus::Punished);
    assert_eq!(h.chain.balance(h.punishment), Wei::ZERO);
}

/// No attestation but a response's own makes the contract recover the node:
/// every mismatched, mangled or foreign path reverts at line 2, and neither
/// an honest response nor the punishable one pays out that way.
#[test]
fn framing_attempts_revert_and_pay_nothing() {
    let h = setup();
    let (root, parts, signed) = signed_batch(&h);
    let sig = signed[0].0;
    // A second batch the node signed (for an uncommitted position).
    let foreign = sign_batch(
        &h.node,
        &[
            response_digest(9, &root, &parts[0].0, &parts[0].1),
            response_digest(9, &root, &parts[1].0, &parts[1].1),
        ],
    );
    let path_of = |i: usize| wedge_merkle::MerkleProof::from_bytes(&signed[i].1).unwrap();
    let mut truncated = path_of(4);
    truncated.path.pop();
    let mut beheaded = path_of(4);
    beheaded.path.remove(0);
    let mut extended = path_of(4);
    extended.path.push(extended.path[0]);
    let mut overlong = path_of(4);
    overlong.path.resize(33, overlong.path[0]);

    // (response index, signature, attestation) — none is the response's own.
    let attempts: Vec<(usize, Signature, Vec<u8>)> = vec![
        (4, sig, signed[3].1.clone()),           // another entry's path
        (3, sig, signed[4].1.clone()),           // ...and the swap
        (0, sig, signed[1].1.clone()),           // honest response, sibling's path
        (4, sig, truncated.to_bytes()),          // one node short at the top
        (4, sig, beheaded.to_bytes()),           // one node short at the leaf
        (4, sig, extended.to_bytes()),           // one node too many
        (4, sig, overlong.to_bytes()),           // longer than any batch allows
        (4, sig, signed[4].1[..20].to_vec()),    // malformed bytes
        (4, foreign[0].0, signed[4].1.clone()),  // batch B's signature
        (0, foreign[0].0, foreign[0].1.clone()), // batch B's whole attestation
    ];
    for (n, (i, signature, attestation)) in attempts.iter().enumerate() {
        let (proof, raw) = &parts[*i];
        let receipt = invoke(
            &h,
            Punishment::invoke_calldata(0, &root, proof, raw, signature, attestation),
        );
        assert!(!receipt.status.is_success(), "attempt {n} must revert");
        assert_eq!(status(&h), PunishmentStatus::Active, "attempt {n}");
        assert_eq!(h.chain.balance(h.punishment), ESCROW, "attempt {n}");
    }
}

#[test]
fn attestation_fold_is_charged_as_gas() {
    // Same response signed alone and in a batch of 2,048: the longer path
    // costs its calldata plus one modeled keccak per node.
    let h = setup();
    let batch: Vec<Vec<u8>> = (0..8).map(|i| format!("entry-{i}").into_bytes()).collect();
    let tree = commit_batch(&h, &batch);
    let proof = tree.prove(3).unwrap().to_bytes();
    let digest = response_digest(0, &tree.root(), &proof, &batch[3]);
    let mut digests = vec![[0x11u8; 32]; 2_048];
    digests[77] = digest;
    let alone = sign_batch(&h.node, &[digest]).remove(0);
    let batched = sign_batch(&h.node, &digests).swap_remove(77);
    let gas = |signed: &(Signature, Vec<u8>)| {
        let calldata =
            Punishment::invoke_calldata(0, &tree.root(), &proof, &batch[3], &signed.0, &signed.1);
        let receipt = invoke(&h, calldata);
        assert_eq!(
            Punishment::decode_invoke_result(&receipt.output),
            Some(false)
        );
        receipt.gas_used.0
    };
    let (alone, batched) = (gas(&alone), gas(&batched));
    let extra = batched - alone;
    // 11 nodes: 48 gas of hashing each, 33 calldata bytes each at ≤ 16.
    assert!(
        (11 * 48 + 11 * 33 * 4..=11 * 48 + 11 * 33 * 16).contains(&extra),
        "alone {alone}, batched {batched}"
    );
}

#[test]
fn uncommitted_index_cannot_be_punished() {
    // Stage 2 has not happened for index 7; punishing would penalize mere
    // latency, so the contract reverts.
    let h = setup();
    let batch: Vec<Vec<u8>> = (0..4).map(|i| format!("e{i}").into_bytes()).collect();
    let tree = MerkleTree::from_leaves(&batch).unwrap();
    let proof = tree.prove(0).unwrap().to_bytes();
    let sig = sign_response(&h.node, 7, &tree.root(), &proof, &batch[0]);
    let receipt = invoke(
        &h,
        Punishment::invoke_calldata(7, &tree.root(), &proof, &batch[0], &sig.0, &sig.1),
    );
    assert!(!receipt.status.is_success());
    assert!(matches!(
        receipt.status,
        wedge_chain::ExecStatus::Reverted(ref r) if r.contains("not yet blockchain-committed")
    ));
}

#[test]
fn punishment_fires_only_once() {
    let h = setup();
    let honest: Vec<Vec<u8>> = (0..4).map(|i| format!("e{i}").into_bytes()).collect();
    commit_batch(&h, &honest);
    let forged_tree = MerkleTree::from_leaves(&[b"lie".to_vec()]).unwrap();
    let proof = forged_tree.prove(0).unwrap().to_bytes();
    let sig = sign_response(&h.node, 0, &forged_tree.root(), &proof, b"lie");
    let calldata =
        Punishment::invoke_calldata(0, &forged_tree.root(), &proof, b"lie", &sig.0, &sig.1);
    let first = invoke(&h, calldata.clone());
    assert!(first.status.is_success());
    // AoN: the contract is dead; a second invocation reverts.
    let second = invoke(&h, calldata);
    assert!(!second.status.is_success());
}

#[test]
fn clean_termination_refunds_escrow_to_node() {
    let h = setup();
    // Client ends the engagement.
    let tx = h
        .chain
        .call_contract(
            &h.client.secret,
            h.punishment,
            Wei::ZERO,
            Punishment::terminate_calldata(),
            Gas(200_000),
        )
        .unwrap();
    h.chain.mine_block();
    assert!(h.chain.receipt(tx).unwrap().status.is_success());
    assert_eq!(status(&h), PunishmentStatus::Terminated);
    // Node reclaims the escrow.
    let node_before = h.chain.balance(h.node.address);
    let tx = h
        .chain
        .call_contract(
            &h.node.secret,
            h.punishment,
            Wei::ZERO,
            Punishment::withdraw_calldata(),
            Gas(200_000),
        )
        .unwrap();
    h.chain.mine_block();
    let receipt = h.chain.receipt(tx).unwrap();
    assert!(receipt.status.is_success());
    assert_eq!(status(&h), PunishmentStatus::Refunded);
    let gained = h
        .chain
        .balance(h.node.address)
        .checked_add(receipt.fee)
        .unwrap()
        .checked_sub(node_before)
        .unwrap();
    assert_eq!(gained, ESCROW);
}

#[test]
fn node_cannot_withdraw_before_termination() {
    let h = setup();
    let tx = h
        .chain
        .call_contract(
            &h.node.secret,
            h.punishment,
            Wei::ZERO,
            Punishment::withdraw_calldata(),
            Gas(200_000),
        )
        .unwrap();
    h.chain.mine_block();
    assert!(!h.chain.receipt(tx).unwrap().status.is_success());
    assert_eq!(h.chain.balance(h.punishment), ESCROW);
}

#[test]
fn stranger_cannot_terminate() {
    let h = setup();
    let stranger = Keypair::from_seed(b"stranger-terminate");
    h.chain.fund(stranger.address, Wei::from_eth(1));
    let tx = h
        .chain
        .call_contract(
            &stranger.secret,
            h.punishment,
            Wei::ZERO,
            Punishment::terminate_calldata(),
            Gas(200_000),
        )
        .unwrap();
    h.chain.mine_block();
    assert!(!h.chain.receipt(tx).unwrap().status.is_success());
    assert_eq!(status(&h), PunishmentStatus::Active);
}
