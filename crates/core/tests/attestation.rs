//! The Merkle-batched node signature `S_o`, from the client's side.
//!
//! One ECDSA signature covers a whole batch of responses, yet each response
//! must stay an individually attributable, individually checkable statement:
//! these tests pin that every reply verifies alone, that no reply can be
//! dressed in another's attestation (an honest node is not framable, a
//! forged reply does not verify), the wire form byte for byte, and that a
//! client pays one ECDSA verification per distinct attestation — never a
//! stale accept.

use std::time::Duration;

use wedge_contracts::attestation_digest;
use wedge_core::{
    AppendRequest, CoreError, EntryId, LocalNode, NodeConfig, NodeKey, SignedResponse,
};
use wedge_crypto::{keccak256, verify_prehashed, Hash32, Keypair};
use wedge_merkle::{hash_leaf, hash_node, MerkleProof, MerkleTree, ProofNode, Side};

fn node() -> Keypair {
    Keypair::from_seed(b"attestation-node")
}

/// `n` responses of log position `log_id`, signed as one batch on `threads`
/// workers, with the requests they answer.
fn batch(log_id: u64, n: usize, threads: usize) -> (Vec<AppendRequest>, Vec<SignedResponse>) {
    let publisher = Keypair::from_seed(b"attestation-publisher");
    let requests: Vec<AppendRequest> = (0..n)
        .map(|i| {
            let payload = format!("position {log_id} entry {i}").into_bytes();
            AppendRequest::new(&publisher.secret, i as u64, payload)
        })
        .collect();
    let leaves: Vec<Vec<u8>> = requests.iter().map(AppendRequest::leaf_bytes).collect();
    let tree = MerkleTree::from_leaves(&leaves).unwrap();
    let prepared = leaves
        .into_iter()
        .enumerate()
        .map(|(i, leaf)| {
            let id = EntryId {
                log_id,
                offset: i as u32,
            };
            (id, tree.root(), tree.prove(i).unwrap(), leaf)
        })
        .collect();
    let responses = SignedResponse::sign_batch(&node().secret, prepared, threads);
    (requests, responses)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn is_bad_signature(result: Result<(), CoreError>) -> bool {
    matches!(result, Err(CoreError::BadResponseSignature { .. }))
}

#[test]
fn sign_is_a_batch_of_one() {
    let (requests, batch_of_one) = batch(4, 1, 1);
    let response = &batch_of_one[0];
    let alone = SignedResponse::sign(
        &node().secret,
        response.entry_id,
        response.merkle_root,
        response.proof.clone(),
        response.leaf.clone(),
    );
    assert_eq!(alone.to_bytes(), response.to_bytes());
    assert!(alone.attestation.path.is_empty());
    alone
        .verify_for_request(&node().public, &requests[0])
        .unwrap();
}

#[test]
fn every_reply_of_a_batch_verifies_alone_under_one_signature() {
    for n in [1usize, 2, 3, 5, 8, 33, 200] {
        let (requests, responses) = batch(1, n, 1);
        assert_eq!(responses.len(), n);
        for (request, response) in requests.iter().zip(&responses) {
            response
                .verify_for_request(&node().public, request)
                .unwrap();
            assert_eq!(response.signature, responses[0].signature);
            assert_eq!(response.attestation.leaf_count, n as u64);
        }
        // The worker count changes who hashes, never a byte.
        let (_, pooled) = batch(1, n, 4);
        for (a, b) in responses.iter().zip(&pooled) {
            assert_eq!(a.to_bytes(), b.to_bytes());
        }
    }
}

#[test]
fn empty_batch_signs_nothing() {
    assert!(SignedResponse::sign_batch(&node().secret, Vec::new(), 4).is_empty());
}

/// Every way of dressing a reply in an attestation that is not its own is
/// rejected, by the stateless check and by a `NodeKey` that has just
/// accepted the honest sibling (the memo never widens the accept set).
#[test]
fn framing_negatives_are_rejected() {
    let (_, a) = batch(1, 8, 1);
    let (_, b) = batch(2, 8, 1);
    let key = NodeKey::new(node().public);
    let rejected = |forged: &SignedResponse| {
        key.verify(&a[5]).unwrap(); // memo holds batch A's attestation
        is_bad_signature(forged.verify(&node().public)) && is_bad_signature(key.verify(forged))
    };

    // A valid signature with another entry's path.
    let mut other_path = a[2].clone();
    other_path.attestation = a[3].attestation.clone();
    assert!(rejected(&other_path));

    // Two entries' paths swapped: neither verifies.
    let (mut x, mut y) = (a[0].clone(), a[7].clone());
    std::mem::swap(&mut x.attestation, &mut y.attestation);
    assert!(rejected(&x) && rejected(&y));

    // A path truncated by one node, at either end.
    let mut short_top = a[4].clone();
    short_top.attestation.path.pop();
    assert!(rejected(&short_top));
    let mut short_bottom = a[4].clone();
    short_bottom.attestation.path.remove(0);
    assert!(rejected(&short_bottom));

    // A path extended by one node.
    let mut long = a[4].clone();
    long.attestation.path.push(ProofNode {
        hash: Hash32([0x5A; 32]),
        side: Side::Right,
    });
    assert!(rejected(&long));

    // A response of batch A carrying batch B's signature, and B's whole
    // attestation.
    let mut foreign_sig = a[1].clone();
    foreign_sig.signature = b[1].signature;
    assert!(rejected(&foreign_sig));
    foreign_sig.attestation = b[1].attestation.clone();
    assert!(rejected(&foreign_sig));

    // Tampering with the statement itself moves the digest off the tree.
    let mut tampered = a[6].clone();
    *tampered.leaf.last_mut().unwrap() ^= 0xFF;
    assert!(rejected(&tampered));

    // The honest ones still verify.
    for response in a.iter().chain(&b) {
        response.verify(&node().public).unwrap();
        key.verify(response).unwrap();
    }
}

/// Leaves and interior nodes of the attestation tree live under different
/// domain tags, so an interior node can never be offered as a response
/// digest with the rest of the path above it.
#[test]
fn interior_node_cannot_pass_for_a_response_digest() {
    let (_, responses) = batch(1, 4, 1);
    let interior = hash_node(
        &hash_leaf(&responses[0].digest()),
        &hash_leaf(&responses[1].digest()),
    );
    // Sanity: that is the node the signed root was folded from.
    assert_eq!(responses[0].attestation.path.len(), 2);
    let above = MerkleProof {
        leaf_index: 0,
        leaf_count: 2,
        path: responses[0].attestation.path[1..].to_vec(),
    };
    assert_eq!(
        attestation_digest(&above.compute_root_from_hash(interior)),
        responses[0].attested_digest(),
    );
    // Offered as a *leaf*, it is hashed under the leaf tag and folds to a
    // root the node never signed.
    let forged = attestation_digest(&above.compute_root(interior.as_bytes()));
    assert_ne!(forged, responses[0].attested_digest());
    assert!(verify_prehashed(&node().public, &forged, &responses[0].signature).is_err());
}

#[test]
fn wire_form_golden_bytes() {
    // A batch of one: the whole encoding.
    let (_, one) = batch(4, 1, 1);
    let bytes = one[0].to_bytes();
    assert_eq!(hex(&bytes), GOLDEN_BATCH_OF_ONE);
    let parsed = SignedResponse::from_bytes(&bytes).unwrap();
    assert_eq!(parsed.to_bytes(), bytes);
    parsed.verify(&node().public).unwrap();

    // Reply 1,234 of a batch of 2,000: length and digest of the encoding.
    let (requests, many) = batch(7, 2_000, 2);
    let reply = &many[1_234];
    let bytes = reply.to_bytes();
    assert_eq!(reply.attestation.path.len(), 11); // ⌈log₂ 2,000⌉
                                                  // What the attestation adds to a reply: length prefix, proof header,
                                                  // 33 B per node.
    let without = 129 + reply.proof.encoded_len() + reply.leaf.len();
    assert_eq!(bytes.len(), without + 4 + 18 + 33 * 11);
    assert_eq!(bytes.capacity(), bytes.len(), "capacity estimate is exact");
    assert_eq!(
        hex(&keccak256(&bytes)),
        "eac42ef1b0afd20235680237b21e936d062c97f8ca1bea4e2f9db7ae05d5de5c",
    );
    let parsed = SignedResponse::from_bytes(&bytes).unwrap();
    assert_eq!(parsed.to_bytes(), bytes);
    parsed
        .verify_for_request(&node().public, &requests[1_234])
        .unwrap();
}

const GOLDEN_BATCH_OF_ONE: &str = concat!(
    // log_id 4
    "0000000000000004",
    // offset 0
    "0000000000000000",
    // merkle_root (length-prefixed)
    "00000020bf2a1686c68723e069590a47ceb727dd337fca1b07829814fe88f6fc",
    "e95ab8b5",
    // proof: leaf 0 of 1, empty path
    "00000012000000000000000000000000000000010000",
    // leaf: publisher, sequence, payload, S_p
    "0000007b000000146aa7f720dd92810501eeebf9cdea91f514188c3c00000000",
    "0000000000000012706f736974696f6e203420656e7472792030000000419f3f",
    "a49abafbd5847614f77700db5b8e150ee217a495f02ea0ec2fcda0670c3a6b99",
    "8c22127fabb8363231049b23aee6d25d65c63acd3c67c3440e4e9762ed1d00",
    // S_o
    "00000041bee3fda0ae5733645517f81388c1cff4cd70a69de85017da01c51ed1",
    "0c0448127cee421842d2bdf87ecf5c49cebfc258a46b35cc75eb832f24b6173c",
    "158062f501",
    // attestation: leaf 0 of 1, empty path
    "00000012000000000000000000000000000000010000",
);

#[test]
fn from_bytes_rejects_bad_attestation_paths() {
    let (_, responses) = batch(1, 8, 1);
    let good = responses[3].to_bytes();
    let attestation_len = 4 + responses[3].attestation.encoded_len();
    let head = &good[..good.len() - attestation_len];
    let with_attestation = |attestation: &[u8]| {
        let mut bytes = head.to_vec();
        bytes.extend_from_slice(&(attestation.len() as u32).to_be_bytes());
        bytes.extend_from_slice(attestation);
        SignedResponse::from_bytes(&bytes)
    };
    let path_of = |nodes: usize| MerkleProof {
        leaf_index: 0,
        leaf_count: 1,
        path: vec![
            ProofNode {
                hash: Hash32([7; 32]),
                side: Side::Left,
            };
            nodes
        ],
    };
    let own = responses[3].attestation.to_bytes();
    with_attestation(&own)
        .unwrap()
        .verify(&node().public)
        .unwrap();

    // Missing, truncated, trailing bytes, bad side byte, lying path count.
    assert!(SignedResponse::from_bytes(head).is_err());
    assert!(with_attestation(&[]).is_err());
    assert!(with_attestation(&own[..own.len() - 1]).is_err());
    let mut trailing = good.clone();
    trailing.push(0);
    assert!(SignedResponse::from_bytes(&trailing).is_err());
    let mut bad_side = own.clone();
    bad_side[18] = 2;
    assert!(with_attestation(&bad_side).is_err());
    let mut lying_count = own.clone();
    lying_count[17] += 1;
    assert!(with_attestation(&lying_count).is_err());

    // The longest path a batch can have parses (and then fails to verify);
    // one node more is refused at the door.
    let longest = with_attestation(&path_of(32).to_bytes()).unwrap();
    assert!(is_bad_signature(longest.verify(&node().public)));
    assert!(with_attestation(&path_of(33).to_bytes()).is_err());
}

#[test]
fn node_key_verifies_once_per_distinct_attestation() {
    let (_, first) = batch(1, 2_000, 2);
    let (_, second) = batch(2, 50, 1);
    let key = NodeKey::new(node().public);
    for response in &first {
        key.verify(response).unwrap();
    }
    assert_eq!(key.ecdsa_checks(), 1, "2,000 responses of one position");
    for response in &second {
        key.verify(response).unwrap();
    }
    assert_eq!(
        key.ecdsa_checks(),
        2,
        "a second position is verified afresh"
    );

    // Same attested digest, different signature: verified afresh, rejected.
    let mut resigned = second[9].clone();
    resigned.signature = first[0].signature;
    assert!(is_bad_signature(key.verify(&resigned)));
    assert_eq!(key.ecdsa_checks(), 3);
    // Same signature, different attested digest: likewise.
    let mut moved = second[9].clone();
    moved.attestation = second[10].attestation.clone();
    assert!(is_bad_signature(key.verify(&moved)));
    assert_eq!(key.ecdsa_checks(), 4);
    // A remembered verdict is the verdict: asked again, still rejected;
    // and the honest pair it displaced is verified afresh, and accepted.
    assert!(is_bad_signature(key.verify(&moved)));
    assert_eq!(key.ecdsa_checks(), 4);
    key.verify(&second[9]).unwrap();
    assert_eq!(key.ecdsa_checks(), 5);
    // Somebody else's key accepts nothing, however often it is asked.
    let stranger = NodeKey::new(Keypair::from_seed(b"attestation-stranger").public);
    assert!(is_bad_signature(stranger.verify(&first[0])));
    assert!(is_bad_signature(stranger.verify(&first[0])));
    assert!(!stranger.recovers(&first[0]));

    // The evidence-side check memoises the same way.
    let recoveries = key.ecdsa_checks();
    assert!(first.iter().all(|response| key.recovers(response)));
    assert_eq!(key.ecdsa_checks(), recoveries + 1);
    assert!(!key.recovers(&resigned));
    assert_eq!(key.ecdsa_checks(), recoveries + 2);
}

/// Reader and Auditor against a live node: a 2,000-entry position costs one
/// ECDSA verification of the node's signature, a second position one more.
#[test]
fn reader_and_auditor_pay_one_verification_per_position() {
    let config = NodeConfig {
        batch_size: 2_000,
        batch_linger: Duration::from_millis(50),
        ..Default::default()
    };
    let w = LocalNode::start("attestation-live", config).unwrap();
    let node = w.node();
    let mut publisher = w.publisher();
    let payloads = |n: usize| (0..n).map(|i| format!("live-{i}").into_bytes()).collect();
    publisher.append_batch(payloads(2_000)).unwrap();
    publisher.append_batch(payloads(40)).unwrap(); // closes on the linger
    node.wait_stage2_idle(Duration::from_secs(600)).unwrap();
    assert_eq!(node.log_positions(), 2);

    let reader = w.reader();
    let position = node.read_log_position(0).unwrap();
    assert_eq!(position.len(), 2_000);
    for response in &position {
        reader.verify_response(response).unwrap();
    }
    assert_eq!(reader.node_signature_checks(), 1);
    for response in &node.read_log_position(1).unwrap() {
        reader.verify_response(response).unwrap();
    }
    assert_eq!(reader.node_signature_checks(), 2);
    // A grouped read is one more attestation, whatever it spans.
    let ids: Vec<EntryId> = (0..64)
        .map(|i| EntryId {
            log_id: i % 2,
            offset: i as u32 / 2,
        })
        .collect();
    assert!(reader.read_many(&ids).iter().all(Result::is_ok));
    assert_eq!(reader.node_signature_checks(), 3);

    let auditor = w.auditor();
    let report = auditor.audit(0, 2_040).unwrap();
    assert!(report.is_clean(), "{:?}", report.failures);
    assert_eq!(report.entries_checked, 2_040);
    assert_eq!(auditor.node_signature_checks(), 2);
    assert!(auditor.find_evidence(0, 2).unwrap().is_none());
    assert_eq!(
        auditor.node_signature_checks(),
        4,
        "one recovery per position"
    );
    let ranged = auditor.audit_with_range_proofs(0, 2_040).unwrap();
    assert!(ranged.is_clean());
    assert_eq!(
        auditor.node_signature_checks(),
        4,
        "range scans carry no S_o"
    );
}
