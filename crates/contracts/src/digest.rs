//! The canonical signed-response digest shared between the Offchain Node
//! and the Punishment contract.
//!
//! Algorithm 2 line 1 computes `msgHash ← hash(index, merkleRoot,
//! merkleProof, rawData)` and recovers the signer from the client-supplied
//! signature. The Offchain Node must sign *exactly* these bytes when it
//! off-chain-commits a response (paper §4.1's tuple `R`), so the encoding
//! lives here, in one place, used by both sides.
//!
//! The node does not sign that digest directly: per batch of responses it
//! builds one Merkle tree whose leaves are the responses' digests and signs
//! [`attestation_digest`] of that tree's root. A response carries its path
//! in the tree (its *attestation*), and both sides fold the line-1 digest up
//! that path before `recoverSigner` — a signature on the root is a signature
//! on every leaf digest under it, and on nothing else: leaves and interior
//! nodes are hashed under different domain tags.

use wedge_chain::Encoder;
use wedge_crypto::hash::{keccak256, keccak256_prefixed, Hash32};
use wedge_merkle::{MerkleError, MerkleProof};

/// Domain tag of the one digest the node signs per batch of responses.
const ATTESTATION_TAG: &[u8] = b"wedge-attestation-v1:";

/// Longest attestation path a response may carry: a batch's offsets are
/// `u32`, so no honest tree is deeper.
pub const MAX_ATTESTATION_PATH: usize = 32;

/// The digest `S_o` covers, given the root of the tree of response digests.
/// A response is node-signed iff `S_o` recovers to the node over
/// `attestation_digest(&attestation.compute_root(&response_digest(..)))`.
pub fn attestation_digest(attestation_root: &Hash32) -> [u8; 32] {
    keccak256_prefixed(ATTESTATION_TAG, attestation_root.as_bytes())
}

/// Parses a serialized attestation path, bounding its length.
pub fn attestation_from_bytes(bytes: &[u8]) -> Result<MerkleProof, MerkleError> {
    let attestation = MerkleProof::from_bytes(bytes)?;
    if attestation.path.len() > MAX_ATTESTATION_PATH {
        return Err(MerkleError::MalformedProof("attestation path too long"));
    }
    Ok(attestation)
}

/// Computes the digest the Offchain Node signs for one response `R`:
/// the promise "`raw_data` lives at `index` under Merkle root `merkle_root`,
/// provable by `proof_bytes`".
pub fn response_digest(
    index: u64,
    merkle_root: &Hash32,
    proof_bytes: &[u8],
    raw_data: &[u8],
) -> [u8; 32] {
    keccak256(&response_digest_bytes(
        index,
        merkle_root,
        proof_bytes,
        raw_data,
    ))
}

/// The exact preimage [`response_digest`] hashes. Exposed so callers
/// producing many responses at once (the stage-1 batcher) can encode every
/// preimage first and push them through the ×4 `keccak256_batch` path
/// instead of hashing one response at a time.
pub fn response_digest_bytes(
    index: u64,
    merkle_root: &Hash32,
    proof_bytes: &[u8],
    raw_data: &[u8],
) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(64 + proof_bytes.len() + raw_data.len());
    enc.u64(index)
        .bytes(merkle_root.as_bytes())
        .bytes(proof_bytes)
        .bytes(raw_data);
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic() {
        let root = Hash32([1; 32]);
        let a = response_digest(5, &root, b"proof", b"data");
        let b = response_digest(5, &root, b"proof", b"data");
        assert_eq!(a, b);
    }

    #[test]
    fn digest_binds_every_field() {
        let root = Hash32([1; 32]);
        let base = response_digest(5, &root, b"proof", b"data");
        assert_ne!(base, response_digest(6, &root, b"proof", b"data"));
        assert_ne!(
            base,
            response_digest(5, &Hash32([2; 32]), b"proof", b"data")
        );
        assert_ne!(base, response_digest(5, &root, b"proofX", b"data"));
        assert_ne!(base, response_digest(5, &root, b"proof", b"dataX"));
    }

    #[test]
    fn field_boundaries_are_unambiguous() {
        let root = Hash32([0; 32]);
        // Moving a byte between proof and data must change the digest.
        let a = response_digest(0, &root, b"ab", b"c");
        let b = response_digest(0, &root, b"a", b"bc");
        assert_ne!(a, b);
    }

    #[test]
    fn attestation_digest_is_domain_separated() {
        // Neither a bare root, nor a leaf or node hash of it, is what the
        // node signs.
        let root = Hash32([3; 32]);
        let signed = attestation_digest(&root);
        assert_ne!(signed, root.0);
        assert_ne!(signed, wedge_merkle::hash_leaf(root.as_bytes()).0);
        assert_ne!(signed, attestation_digest(&Hash32([4; 32])));
    }

    #[test]
    fn attestation_paths_are_length_bounded() {
        let node = wedge_merkle::ProofNode {
            hash: Hash32([9; 32]),
            side: wedge_merkle::Side::Left,
        };
        let path_of = |nodes: usize| MerkleProof {
            leaf_index: 0,
            leaf_count: 1,
            path: vec![node; nodes],
        };
        let longest = path_of(MAX_ATTESTATION_PATH);
        assert_eq!(attestation_from_bytes(&longest.to_bytes()), Ok(longest));
        assert!(attestation_from_bytes(&path_of(MAX_ATTESTATION_PATH + 1).to_bytes()).is_err());
        assert!(attestation_from_bytes(&[]).is_err());
    }
}
