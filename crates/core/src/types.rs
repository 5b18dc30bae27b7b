//! The WedgeBlock protocol data model (paper §4.1).
//!
//! - [`AppendRequest`] — the paper's tuple `A = (S_p, [n, X])`: a payload
//!   `X` with a client-side sequence number `n`, signed by the publisher.
//! - [`SignedResponse`] — the paper's tuple `R = (S_o, [X, P, i])`: the
//!   Offchain Node's off-chain-commit promise, carrying the stage-1 proof.
//! - [`EntryId`] — the paper's index `i`: a log position (batch) plus the
//!   entry's offset inside the batch.
//! - [`Stage2Record`] — the paper's tuple `V = (i, R_f)` committed to the
//!   Root Record contract.

use wedge_chain::{Decoder, Encoder};
use wedge_contracts::{
    attestation_digest, attestation_from_bytes, response_digest, response_digest_bytes,
};
use wedge_crypto::ecdsa::Signature;
use wedge_crypto::hash::{keccak256_batch_pairs, keccak256_prefixed, Hash32};
use wedge_crypto::keys::Address;
use wedge_crypto::{recover_prehashed, sign_prehashed, PublicKey, SecretKey};
use wedge_merkle::{MerkleProof, MerkleTree};
use wedge_pool::WorkPool;

use crate::error::CoreError;

/// Identifies one log entry: which log position (batch) it belongs to and
/// where it sits inside the batch's Data List.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntryId {
    /// The monotonically increasing log position (paper's Log ID).
    pub log_id: u64,
    /// Offset within the batch.
    pub offset: u32,
}

impl core::fmt::Display for EntryId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}", self.log_id, self.offset)
    }
}

/// Commit progress of a log position (paper §3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitPhase {
    /// Received, not yet flushed into a batch.
    Pending,
    /// Stage 1 complete: persisted locally, signed response issued.
    OffchainCommitted,
    /// Stage 2 complete: digest confirmed in the Root Record contract.
    BlockchainCommitted,
}

/// The paper's append tuple `A = (S_p, [n, X])`.
#[derive(Clone, Debug)]
pub struct AppendRequest {
    /// The publisher's address (recoverable from the signature; carried for
    /// cheap indexing).
    pub publisher: Address,
    /// Client-side monotonically increasing sequence number `n`.
    pub sequence: u64,
    /// The data object `X`.
    pub payload: Vec<u8>,
    /// Publisher's signature `S_p` over `(n, X)`.
    pub signature: Signature,
}

impl AppendRequest {
    /// The digest the publisher signs: Keccak-256 of the [`Encoder`] bytes of
    /// `(u64 sequence, bytes payload)`, streamed through the sponge so the
    /// payload is never copied just to be hashed.
    fn signing_digest(sequence: u64, payload: &[u8]) -> [u8; 32] {
        keccak256_prefixed(&Self::signing_head(sequence, payload), payload)
    }

    /// The [`Encoder`] bytes that precede the payload in the signed
    /// message: the sequence number and the payload's length prefix.
    fn signing_head(sequence: u64, payload: &[u8]) -> [u8; 12] {
        let mut head = [0u8; 12];
        head[..8].copy_from_slice(&sequence.to_be_bytes());
        head[8..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        head
    }

    /// `requests[i].digest()` for every request, four per Keccak pass.
    pub(crate) fn signing_digests(requests: &[&AppendRequest]) -> Vec<[u8; 32]> {
        let heads: Vec<[u8; 12]> = requests
            .iter()
            .map(|r| Self::signing_head(r.sequence, &r.payload))
            .collect();
        let messages: Vec<(&[u8], &[u8])> = heads
            .iter()
            .zip(requests)
            .map(|(head, r)| (&head[..], &r.payload[..]))
            .collect();
        keccak256_batch_pairs(&messages)
            .into_iter()
            .map(|digest| digest.0)
            .collect()
    }

    /// Builds and signs an append request.
    pub fn new(key: &SecretKey, sequence: u64, payload: Vec<u8>) -> AppendRequest {
        let digest = Self::signing_digest(sequence, &payload);
        let signature = sign_prehashed(key, &digest);
        AppendRequest {
            publisher: key.public_key().address(),
            sequence,
            payload,
            signature,
        }
    }

    /// The digest this request's signature covers.
    pub(crate) fn digest(&self) -> [u8; 32] {
        Self::signing_digest(self.sequence, &self.payload)
    }

    /// Full public-key recovery from `digest` (this request's
    /// [`AppendRequest::digest`], which the caller has already computed):
    /// the signer's key, provided its address is the claimed publisher.
    pub(crate) fn recover_publisher(&self, digest: &[u8; 32]) -> Result<PublicKey, CoreError> {
        let bad = CoreError::BadRequestSignature {
            publisher: self.publisher,
        };
        match recover_prehashed(digest, &self.signature) {
            Ok(key) if key.address() == self.publisher => Ok(key),
            _ => Err(bad),
        }
    }

    /// Verifies the publisher's signature and address binding. Verifiers
    /// that see a publisher more than once should hold a
    /// [`crate::PublisherKeys`] instead: same verdicts, no recovery once
    /// the publisher has been seen twice.
    pub fn verify(&self) -> Result<(), CoreError> {
        self.recover_publisher(&self.digest()).map(|_| ())
    }

    /// The canonical Merkle-leaf bytes: the *entire* signed tuple, so the
    /// on-chain digest commits to payload, ordering and attribution.
    pub fn leaf_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(110 + self.payload.len());
        enc.bytes(self.publisher.as_bytes())
            .u64(self.sequence)
            .bytes(&self.payload)
            .bytes(&self.signature.to_bytes());
        enc.finish()
    }

    /// Parses leaf bytes back into a request (used by auditors scanning the
    /// raw log).
    pub fn from_leaf_bytes(bytes: &[u8]) -> Result<AppendRequest, CoreError> {
        let mut dec = Decoder::new(bytes);
        let addr: [u8; 20] = dec.bytes_fixed().map_err(CoreError::Decode)?;
        let sequence = dec.u64().map_err(CoreError::Decode)?;
        let payload = dec.bytes().map_err(CoreError::Decode)?.to_vec();
        let sig: [u8; 65] = dec.bytes_fixed().map_err(CoreError::Decode)?;
        dec.finish().map_err(CoreError::Decode)?;
        let signature =
            Signature::from_bytes(&sig).map_err(|_| CoreError::BadRequestSignature {
                publisher: Address(addr),
            })?;
        Ok(AppendRequest {
            publisher: Address(addr),
            sequence,
            payload,
            signature,
        })
    }
}

/// The paper's response tuple `R = (S_o, [X, P, i])`: the Offchain Node's
/// signed off-chain-commit promise for one entry.
///
/// `S_o` is a Merkle-batched signature: the node signs once per batch of
/// responses, over the root of a tree whose leaves are the responses'
/// [`SignedResponse::digest`]s, and each response carries its path in that
/// tree. The pair `(signature, attestation)` is a node signature on this
/// response's digest and on no other statement.
#[derive(Clone, Debug)]
pub struct SignedResponse {
    /// Where the entry was placed.
    pub entry_id: EntryId,
    /// The batch's Merkle root `R_f` the node promises to commit on-chain.
    pub merkle_root: Hash32,
    /// Inclusion proof of the entry's leaf under `merkle_root`.
    pub proof: MerkleProof,
    /// The leaf bytes (the full signed request tuple).
    pub leaf: Vec<u8>,
    /// The node's signature over [`SignedResponse::attested_digest`],
    /// shared by every response signed in the same call.
    pub signature: Signature,
    /// Path from this response's digest to the root `signature` covers
    /// (empty for a response signed on its own).
    pub attestation: MerkleProof,
}

impl SignedResponse {
    /// The digest that makes this response a node-signed statement — shared
    /// byte-for-byte with the Punishment contract (Algorithm 2 line 1).
    pub fn digest(&self) -> [u8; 32] {
        response_digest(
            self.entry_id.log_id,
            &self.merkle_root,
            &self.proof.to_bytes(),
            &self.leaf,
        )
    }

    /// The digest `signature` must cover: [`SignedResponse::digest`] folded
    /// up the attestation path, under the attestation domain tag.
    pub fn attested_digest(&self) -> [u8; 32] {
        attestation_digest(&self.attestation.compute_root(&self.digest()))
    }

    /// Signs a response tuple as the Offchain Node: a batch of one.
    pub fn sign(
        node_key: &SecretKey,
        entry_id: EntryId,
        merkle_root: Hash32,
        proof: MerkleProof,
        leaf: Vec<u8>,
    ) -> SignedResponse {
        let attestation = MerkleProof {
            leaf_index: 0,
            leaf_count: 1,
            path: Vec::new(),
        };
        let digest = response_digest(entry_id.log_id, &merkle_root, &proof.to_bytes(), &leaf);
        let attested = attestation_digest(&attestation.compute_root(&digest));
        SignedResponse {
            entry_id,
            merkle_root,
            proof,
            leaf,
            signature: sign_prehashed(node_key, &attested),
            attestation,
        }
    }

    /// Signs the prepared `(entry_id, merkle_root, proof, leaf)` tuples with
    /// **one** ECDSA signature: the response digests (hashed on up to
    /// `threads` workers) become the leaves of a Merkle tree, the node signs
    /// that tree's root, and response `i` carries leaf `i`'s path.
    pub fn sign_batch(
        node_key: &SecretKey,
        items: Vec<(EntryId, Hash32, MerkleProof, Vec<u8>)>,
        threads: usize,
    ) -> Vec<SignedResponse> {
        // Per worker: encode the chunk's response preimages, then digest
        // them through the ×4 interleaved batch path — same bytes as
        // per-item `response_digest`.
        let digests: Vec<Hash32> = WorkPool::new(threads).map_chunks(&items, |chunk| {
            let preimages: Vec<Vec<u8>> = chunk
                .iter()
                .map(|(id, root, proof, leaf)| {
                    response_digest_bytes(id.log_id, root, &proof.to_bytes(), leaf)
                })
                .collect();
            let preimage_refs: Vec<&[u8]> = preimages.iter().map(|p| p.as_slice()).collect();
            wedge_crypto::keccak256_batch(&preimage_refs)
        });
        let Ok(tree) = MerkleTree::from_leaves(&digests) else {
            return Vec::new(); // nothing to sign
        };
        let signature = sign_prehashed(node_key, &attestation_digest(&tree.root()));
        items
            .into_iter()
            .enumerate()
            .map(|(i, (entry_id, merkle_root, proof, leaf))| SignedResponse {
                entry_id,
                merkle_root,
                proof,
                leaf,
                signature,
                // lint: allow(panic) — `i` enumerates the very digests the
                // tree was built from, so it is always in range
                attestation: tree.prove(i).expect("leaf in range"),
            })
            .collect()
    }

    /// Full client-side stage-1 verification:
    /// 1. the node's signature is valid over the root this response's
    ///    digest folds up to,
    /// 2. the proof reproduces the signed root from the leaf,
    /// 3. the proof's position matches the claimed entry id.
    ///
    /// One-off form; clients checking many responses keep a
    /// [`crate::NodeKey`], which builds the key's table once and remembers
    /// the last attestation it accepted.
    pub fn verify(&self, node_public: &PublicKey) -> Result<(), CoreError> {
        crate::NodeKey::new(*node_public).verify(self)
    }

    /// Checks 2 and 3 of [`SignedResponse::verify`]: position and data proof.
    pub(crate) fn verify_proof(&self) -> Result<(), CoreError> {
        if self.proof.leaf_index != self.entry_id.offset as u64 {
            return Err(CoreError::ProofPositionMismatch {
                entry_id: self.entry_id,
                proof_index: self.proof.leaf_index,
            });
        }
        self.proof
            .verify(&self.leaf, &self.merkle_root)
            .map_err(|_| CoreError::ProofInvalid {
                entry_id: self.entry_id,
            })?;
        Ok(())
    }

    /// Like [`SignedResponse::verify`], additionally checking that the leaf
    /// is exactly the request the client sent (detects payload tampering).
    pub fn verify_for_request(
        &self,
        node_public: &PublicKey,
        request: &AppendRequest,
    ) -> Result<(), CoreError> {
        self.verify(node_public)?;
        if self.leaf != request.leaf_bytes() {
            return Err(CoreError::LeafMismatch {
                entry_id: self.entry_id,
            });
        }
        Ok(())
    }

    /// The embedded request (decoded from the leaf).
    pub fn request(&self) -> Result<AppendRequest, CoreError> {
        AppendRequest::from_leaf_bytes(&self.leaf)
    }

    /// Wire serialization (used by the TCP transport).
    pub fn to_bytes(&self) -> Vec<u8> {
        let proof_bytes = self.proof.to_bytes();
        let attestation_bytes = self.attestation.to_bytes();
        // 16 B of ids, five length prefixes, the root and the signature.
        let mut enc = Encoder::with_capacity(
            133 + proof_bytes.len() + self.leaf.len() + attestation_bytes.len(),
        );
        enc.u64(self.entry_id.log_id)
            .u64(self.entry_id.offset as u64)
            .bytes(self.merkle_root.as_bytes())
            .bytes(&proof_bytes)
            .bytes(&self.leaf)
            .bytes(&self.signature.to_bytes())
            .bytes(&attestation_bytes);
        enc.finish()
    }

    /// Parses the wire form. The signature is structurally validated; full
    /// verification still requires [`SignedResponse::verify`].
    pub fn from_bytes(bytes: &[u8]) -> Result<SignedResponse, CoreError> {
        let mut dec = Decoder::new(bytes);
        let log_id = dec.u64().map_err(CoreError::Decode)?;
        let offset = dec.u64().map_err(CoreError::Decode)? as u32;
        let root: [u8; 32] = dec.bytes_fixed().map_err(CoreError::Decode)?;
        let proof_bytes = dec.bytes().map_err(CoreError::Decode)?;
        let proof = merkle_proof_from_bytes(proof_bytes)?;
        let leaf = dec.bytes().map_err(CoreError::Decode)?.to_vec();
        let sig: [u8; 65] = dec.bytes_fixed().map_err(CoreError::Decode)?;
        let attestation = attestation_from_bytes(dec.bytes().map_err(CoreError::Decode)?)
            .map_err(|_| CoreError::RequestRejected("malformed attestation path"))?;
        dec.finish().map_err(CoreError::Decode)?;
        let entry_id = EntryId { log_id, offset };
        let signature = Signature::from_bytes(&sig)
            .map_err(|_| CoreError::BadResponseSignature { entry_id })?;
        Ok(SignedResponse {
            entry_id,
            merkle_root: Hash32(root),
            proof,
            leaf,
            signature,
            attestation,
        })
    }
}

/// Parses a Merkle proof, mapping the error into this crate's type.
fn merkle_proof_from_bytes(bytes: &[u8]) -> Result<MerkleProof, CoreError> {
    MerkleProof::from_bytes(bytes).map_err(|_| CoreError::RequestRejected("malformed merkle proof"))
}

/// The paper's stage-2 record `V = (i, R_f)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stage2Record {
    /// Log position.
    pub log_id: u64,
    /// The batch digest committed on-chain.
    pub merkle_root: Hash32,
}

/// One shard's pending contribution to a cluster epoch: the contiguous run
/// of flushed-but-uncommitted batch roots starting at the shard's
/// blockchain-committed frontier. Returned by `epoch_report`; an empty
/// `roots` means the shard has nothing pending.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ShardGroup {
    /// First uncommitted log position (the shard's committed frontier).
    pub start: u64,
    /// Batch roots for positions `start..start + roots.len()`.
    pub roots: Vec<Hash32>,
}

impl ShardGroup {
    /// Whether the shard reported nothing pending.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

/// The coordinator's acknowledgement closing a cluster epoch for one shard:
/// the group it reported is now covered by the on-chain root-of-roots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpochCommit {
    /// The cluster epoch that covered the group (strictly increasing).
    pub epoch: u64,
    /// First log position of the covered group.
    pub start: u64,
    /// Number of covered positions.
    pub count: u64,
    /// The root-of-roots transaction hash (zero when recovered without
    /// provenance).
    pub tx_hash: Hash32,
    /// Block that mined the root-of-roots transaction.
    pub block_number: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::Keypair;
    use wedge_merkle::MerkleTree;

    fn request(seq: u64) -> (Keypair, AppendRequest) {
        let kp = Keypair::from_seed(b"types-publisher");
        let req = AppendRequest::new(&kp.secret, seq, format!("payload-{seq}").into_bytes());
        (kp, req)
    }

    #[test]
    fn append_request_roundtrip() {
        let (_, req) = request(7);
        req.verify().unwrap();
        let parsed = AppendRequest::from_leaf_bytes(&req.leaf_bytes()).unwrap();
        assert_eq!(parsed.sequence, 7);
        assert_eq!(parsed.payload, req.payload);
        assert_eq!(parsed.publisher, req.publisher);
        parsed.verify().unwrap();
    }

    /// A signature's nonce-y hint rides beside what is signed and stored,
    /// never inside it: leaf bytes, signing digests and a response's bytes
    /// are the same with and without it, and a stored leaf parses without
    /// one.
    #[test]
    fn the_nonce_y_hint_is_in_no_leaf_digest_or_response() {
        let (kp, req) = request(7);
        assert!(req.signature.nonce_y.is_some());
        let mut bare = req.clone();
        bare.signature.nonce_y = None;
        assert_eq!(req.leaf_bytes(), bare.leaf_bytes());
        assert_eq!(req.digest(), bare.digest());
        assert_eq!(
            AppendRequest::signing_digests(&[&req, &bare]),
            [req.digest(); 2]
        );
        let parsed = AppendRequest::from_leaf_bytes(&req.leaf_bytes()).unwrap();
        assert_eq!(parsed.signature, req.signature);
        assert_eq!(parsed.signature.nonce_y, None);

        let leaves = vec![req.leaf_bytes()];
        let tree = MerkleTree::from_leaves(&leaves).unwrap();
        let id = EntryId {
            log_id: 0,
            offset: 0,
        };
        let proof = tree.prove(0).unwrap();
        let response = SignedResponse::sign(&kp.secret, id, tree.root(), proof, leaves[0].clone());
        assert!(response.signature.nonce_y.is_some());
        let mut bare_response = response.clone();
        bare_response.signature.nonce_y = None;
        assert_eq!(response.to_bytes(), bare_response.to_bytes());
    }

    #[test]
    fn signing_digest_is_keccak_of_the_encoder_bytes() {
        // Payload lengths around every boundary of the streamed form: empty,
        // one byte, the 136-byte sponge rate (for the payload alone and for
        // the 12-byte head plus payload), the benchmark's 1,088 B, 64 KiB.
        for len in [0usize, 1, 123, 124, 125, 135, 136, 137, 1_088, 65_536] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            let sequence = 0x0102_0304_0506_0708 ^ len as u64;
            let mut enc = Encoder::with_capacity(12 + len);
            enc.u64(sequence).bytes(&payload);
            assert_eq!(
                AppendRequest::signing_digest(sequence, &payload),
                wedge_crypto::keccak256(&enc.finish()),
                "payload length {len}"
            );
        }
    }

    /// The batched digests equal the per-item ones at the same boundary
    /// lengths, five requests per length (one lockstep group of four plus a
    /// scalar remainder), lengths and publishers interleaved in one call —
    /// the shape of a collect-stage worker span before grouping.
    #[test]
    fn batched_signing_digests_match_per_item() {
        let publishers: Vec<AppendRequest> = (0..3u8)
            .map(|p| {
                let kp = Keypair::from_seed(&[b'd', p]);
                AppendRequest::new(&kp.secret, 0, Vec::new())
            })
            .collect();
        let lengths = [0usize, 1, 123, 124, 125, 135, 136, 137, 1_088, 65_536];
        let requests: Vec<AppendRequest> = (0..5 * lengths.len())
            .map(|i| {
                let len = lengths[i % lengths.len()];
                let mut request = publishers[i % publishers.len()].clone();
                request.sequence = (i as u64) << 40 | len as u64;
                request.payload = (0..len).map(|b| (b * 7 + i) as u8).collect();
                request
            })
            .collect();
        let refs: Vec<&AppendRequest> = requests.iter().collect();
        let digests = AppendRequest::signing_digests(&refs);
        assert_eq!(digests.len(), refs.len());
        for (request, digest) in refs.iter().zip(&digests) {
            assert_eq!(
                *digest,
                request.digest(),
                "length {}",
                request.payload.len()
            );
        }
        assert!(AppendRequest::signing_digests(&[]).is_empty());
    }

    #[test]
    fn tampered_request_detected() {
        let (_, mut req) = request(1);
        req.payload.push(b'!');
        assert!(req.verify().is_err());
        let (_, mut req) = request(1);
        req.sequence = 2;
        assert!(req.verify().is_err());
        let (_, mut req) = request(1);
        req.publisher = Address([9; 20]);
        assert!(req.verify().is_err());
    }

    #[test]
    fn response_sign_verify_roundtrip() {
        let node = Keypair::from_seed(b"types-node");
        let (_, req) = request(3);
        let leaves = vec![req.leaf_bytes(), b"other".to_vec()];
        let tree = MerkleTree::from_leaves(&leaves).unwrap();
        let response = SignedResponse::sign(
            &node.secret,
            EntryId {
                log_id: 5,
                offset: 0,
            },
            tree.root(),
            tree.prove(0).unwrap(),
            req.leaf_bytes(),
        );
        response.verify(&node.public).unwrap();
        response.verify_for_request(&node.public, &req).unwrap();
        assert_eq!(response.request().unwrap().sequence, 3);
    }

    #[test]
    fn response_detects_payload_swap() {
        let node = Keypair::from_seed(b"types-node");
        let (kp, req) = request(3);
        let other = AppendRequest::new(&kp.secret, 4, b"other payload".to_vec());
        let leaves = vec![req.leaf_bytes(), other.leaf_bytes()];
        let tree = MerkleTree::from_leaves(&leaves).unwrap();
        // Node responds with the WRONG entry for this request.
        let response = SignedResponse::sign(
            &node.secret,
            EntryId {
                log_id: 5,
                offset: 1,
            },
            tree.root(),
            tree.prove(1).unwrap(),
            other.leaf_bytes(),
        );
        // Structurally valid...
        response.verify(&node.public).unwrap();
        // ...but not for the client's request.
        assert!(matches!(
            response.verify_for_request(&node.public, &req),
            Err(CoreError::LeafMismatch { .. })
        ));
    }

    #[test]
    fn response_detects_wrong_signer() {
        let node = Keypair::from_seed(b"types-node");
        let impostor = Keypair::from_seed(b"impostor");
        let (_, req) = request(1);
        let tree = MerkleTree::from_leaves(&[req.leaf_bytes()]).unwrap();
        let response = SignedResponse::sign(
            &impostor.secret,
            EntryId {
                log_id: 0,
                offset: 0,
            },
            tree.root(),
            tree.prove(0).unwrap(),
            req.leaf_bytes(),
        );
        assert!(response.verify(&node.public).is_err());
    }

    #[test]
    fn response_detects_position_mismatch() {
        let node = Keypair::from_seed(b"types-node");
        let (_, req) = request(1);
        let leaves = vec![req.leaf_bytes(), b"x".to_vec()];
        let tree = MerkleTree::from_leaves(&leaves).unwrap();
        // Claimed offset 1 but proof is for leaf 0.
        let response = SignedResponse::sign(
            &node.secret,
            EntryId {
                log_id: 0,
                offset: 1,
            },
            tree.root(),
            tree.prove(0).unwrap(),
            req.leaf_bytes(),
        );
        assert!(matches!(
            response.verify(&node.public),
            Err(CoreError::ProofPositionMismatch { .. })
        ));
    }

    #[test]
    fn response_detects_tampered_proof() {
        let node = Keypair::from_seed(b"types-node");
        let (_, req) = request(1);
        let leaves = vec![req.leaf_bytes(), b"x".to_vec()];
        let tree = MerkleTree::from_leaves(&leaves).unwrap();
        let mut response = SignedResponse::sign(
            &node.secret,
            EntryId {
                log_id: 0,
                offset: 0,
            },
            tree.root(),
            tree.prove(0).unwrap(),
            req.leaf_bytes(),
        );
        // Tamper with the root after signing: signature check fails first.
        response.merkle_root = Hash32([0xAA; 32]);
        assert!(response.verify(&node.public).is_err());
    }
}
