//! The Punishment smart contract (paper §4.4, Algorithm 2).
//!
//! Holds the Offchain Node's escrow and implements the all-or-nothing (AoN)
//! punishment strategy of §3.3: the first proven malicious act drains the
//! *entire* escrow to the client and terminates the contract.
//!
//! A response `R` is provably malicious in exactly two ways (paper):
//! 1. its signed Merkle root differs from the one blockchain-committed at
//!    that index in the Root Record contract (equivocation), or
//! 2. its Merkle proof does not reproduce its own signed root (bogus proof).
//!
//! Both checks require only the signed response — none of the raw batch data
//! needs to be on-chain, which is what makes WedgeBlock's punishments cheap
//! compared to rollup-style fraud proofs.
//!
//! The node's signature `S_o` is Merkle-batched (see [`crate::digest`]): the
//! call carries the response's attestation path, and line 2 recovers the
//! signer over the attested fold of the line-1 digest. Every other line is
//! the paper's.

use wedge_chain::{CallContext, Contract, Decoder, Encoder, Revert};
use wedge_crypto::ecdsa::{recover_prehashed, Signature};
use wedge_crypto::hash::Hash32;
use wedge_crypto::keys::Address;
use wedge_merkle::MerkleProof;

use crate::digest::{attestation_digest, attestation_from_bytes, response_digest};
use crate::root_record::RootRecord;

/// Method selectors.
mod selector {
    /// `Invoke-Punishment` (Algorithm 2).
    pub const INVOKE_PUNISHMENT: u8 = 0x01;
    /// Client signals the end of the service engagement.
    pub const TERMINATE: u8 = 0x02;
    /// Offchain Node reclaims the escrow of a cleanly terminated contract.
    pub const WITHDRAW_ESCROW: u8 = 0x03;
    /// Status getter.
    pub const GET_STATUS: u8 = 0x04;
}

/// Modeled cost of one keccak of the attestation fold (`30 + 6` per word of
/// a 65-byte node preimage on Ethereum).
const ATTESTATION_HASH_GAS: u64 = 48;

/// Lifecycle of the punishment contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PunishmentStatus {
    /// Escrow armed; service in progress.
    Active,
    /// Punishment fired; escrow paid to the client.
    Punished,
    /// Ended cleanly by the client; escrow reclaimable by the node.
    Terminated,
    /// Escrow reclaimed after clean termination.
    Refunded,
}

/// The Punishment contract state.
#[derive(Clone)]
pub struct Punishment {
    /// Immutable at deployment: the client compensated on punishment.
    client_address: Address,
    /// Immutable at deployment: the accused Offchain Node.
    offchain_address: Address,
    /// Immutable at deployment: the Root Record contract consulted for the
    /// blockchain-committed digest.
    root_contract: Address,
    status: PunishmentStatus,
}

impl Punishment {
    /// Notional deployed-code size for gas realism.
    pub const CODE_LEN: usize = 2_400;

    /// Creates the contract; the escrow is the deploy endowment (plus any
    /// later plain transfers).
    pub fn new(
        client_address: Address,
        offchain_address: Address,
        root_contract: Address,
    ) -> Punishment {
        Punishment {
            client_address,
            offchain_address,
            root_contract,
            status: PunishmentStatus::Active,
        }
    }

    /// Encodes `Invoke-Punishment` calldata from the components of a signed
    /// response `R`; `attestation_bytes` is the serialized path from the
    /// response's digest to the root `signature` covers.
    pub fn invoke_calldata(
        index: u64,
        merkle_root: &Hash32,
        proof_bytes: &[u8],
        raw_data: &[u8],
        signature: &Signature,
        attestation_bytes: &[u8],
    ) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(
            136 + proof_bytes.len() + raw_data.len() + attestation_bytes.len(),
        );
        enc.u8(selector::INVOKE_PUNISHMENT)
            .u64(index)
            .bytes(merkle_root.as_bytes())
            .bytes(proof_bytes)
            .bytes(raw_data)
            .bytes(&signature.to_bytes())
            .bytes(attestation_bytes);
        enc.finish()
    }

    /// Encodes the client's terminate call.
    pub fn terminate_calldata() -> Vec<u8> {
        vec![selector::TERMINATE]
    }

    /// Encodes the node's escrow-withdrawal call.
    pub fn withdraw_calldata() -> Vec<u8> {
        vec![selector::WITHDRAW_ESCROW]
    }

    /// Encodes the status getter.
    pub fn status_calldata() -> Vec<u8> {
        vec![selector::GET_STATUS]
    }

    /// Decodes the status getter output.
    pub fn decode_status(output: &[u8]) -> Option<PunishmentStatus> {
        match output.first()? {
            0 => Some(PunishmentStatus::Active),
            1 => Some(PunishmentStatus::Punished),
            2 => Some(PunishmentStatus::Terminated),
            3 => Some(PunishmentStatus::Refunded),
            _ => None,
        }
    }

    /// Decodes the output of `Invoke-Punishment`: `true` iff the escrow was
    /// seized.
    pub fn decode_invoke_result(output: &[u8]) -> Option<bool> {
        match output.first()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Pays the whole escrow to the client (AoN) and terminates.
    fn punish(&mut self, ctx: &mut CallContext<'_>, why: &'static str) -> Result<Vec<u8>, Revert> {
        let escrow = ctx.contract_balance();
        ctx.transfer_out(self.client_address, escrow)?;
        self.status = PunishmentStatus::Punished;
        ctx.charge_storage_reset(1)?;
        ctx.emit("Punished", {
            let mut enc = Encoder::with_capacity(64);
            enc.bytes(why.as_bytes()).u128(escrow.0);
            enc.finish()
        })?;
        Ok(vec![1])
    }

    /// Algorithm 2, transcribed.
    fn invoke_punishment(
        &mut self,
        ctx: &mut CallContext<'_>,
        input: &mut Decoder<'_>,
    ) -> Result<Vec<u8>, Revert> {
        if self.status != PunishmentStatus::Active {
            return Err(Revert::new("punishment contract is not active"));
        }
        let index = input.u64().map_err(|e| Revert::new(e.to_string()))?;
        let merkle_root: [u8; 32] = input
            .bytes_fixed()
            .map_err(|e| Revert::new(e.to_string()))?;
        let merkle_root = Hash32(merkle_root);
        let proof_bytes = input
            .bytes()
            .map_err(|e| Revert::new(e.to_string()))?
            .to_vec();
        let raw_data = input
            .bytes()
            .map_err(|e| Revert::new(e.to_string()))?
            .to_vec();
        let sig_bytes: [u8; 65] = input
            .bytes_fixed()
            .map_err(|e| Revert::new(e.to_string()))?;
        let attestation =
            attestation_from_bytes(input.bytes().map_err(|e| Revert::new(e.to_string()))?)
                .map_err(|e| Revert::new(format!("malformed attestation: {e}")))?;
        input.finish().map_err(|e| Revert::new(e.to_string()))?;
        let signature = Signature::from_bytes(&sig_bytes)
            .map_err(|e| Revert::new(format!("malformed signature: {e}")))?;

        // Line 1: msgHash <- hash(index, merkleRoot, merkleProof, rawData).
        let msg_hash = response_digest(index, &merkle_root, &proof_bytes, &raw_data);
        // The node signed the root of a tree of such digests: fold msgHash
        // up its path (leaf hash + one node per step + the tagged root).
        let folds = attestation.path.len() as u64 + 2;
        ctx.charge(wedge_chain::Gas(ATTESTATION_HASH_GAS * folds))?;
        let attested = attestation_digest(&attestation.compute_root(&msg_hash));
        // ECDSA recovery costs ~3k gas on Ethereum (ecrecover precompile).
        ctx.charge(wedge_chain::Gas(3_000))?;
        // Line 2: recoverSigner(attested(msgHash), signature) !=
        // offchain_address?
        let signer = recover_prehashed(&attested, &signature)
            .map_err(|_| Revert::new("signature recovery failed"))?
            .address();
        if signer != self.offchain_address {
            return Err(Revert::new("signature is not from the offchain node"));
        }

        // Line 5: recordedRoot <- rootContract.getRootAtIndex(index).
        let out = ctx.call_view(self.root_contract, &RootRecord::get_root_calldata(index))?;
        let recorded = RootRecord::decode_root(&out);
        match recorded {
            // No digest committed yet: a mismatch cannot be adjudicated.
            // (Stage 2 is asynchronous; punishing before commitment would
            // let clients seize escrow for mere latency.)
            None => return Err(Revert::new("index not yet blockchain-committed")),
            // Line 6: recordedRoot != merkleRoot -> punish (equivocation:
            // the node signed one root and committed another).
            Some(root) if root != merkle_root => {
                return self.punish(ctx, "committed root differs from signed root");
            }
            Some(_) => {}
        }

        // Line 9: reconstruct the root from the proof.
        let proof = MerkleProof::from_bytes(&proof_bytes)
            .map_err(|e| Revert::new(format!("malformed proof: {e}")))?;
        let reconstructed = proof.compute_root(&raw_data);
        // Line 10: reconstructedRoot != merkleRoot -> punish (the node signed
        // a proof that does not validate its own root).
        if reconstructed != merkle_root {
            return self.punish(ctx, "merkle proof does not reproduce signed root");
        }
        // Response was consistent: no punishment.
        Ok(vec![0])
    }
}

impl Contract for Punishment {
    fn type_name(&self) -> &'static str {
        "Punishment"
    }

    fn call(&mut self, ctx: &mut CallContext<'_>, input: &[u8]) -> Result<Vec<u8>, Revert> {
        let mut dec = Decoder::new(input);
        let sel = dec.u8().map_err(|_| Revert::new("empty calldata"))?;
        match sel {
            selector::INVOKE_PUNISHMENT => self.invoke_punishment(ctx, &mut dec),
            selector::TERMINATE => {
                if ctx.sender != self.client_address {
                    return Err(Revert::new("only the client may terminate"));
                }
                if self.status != PunishmentStatus::Active {
                    return Err(Revert::new("not active"));
                }
                self.status = PunishmentStatus::Terminated;
                ctx.charge_storage_reset(1)?;
                ctx.emit("Terminated", Vec::new())?;
                Ok(Vec::new())
            }
            selector::WITHDRAW_ESCROW => {
                if ctx.sender != self.offchain_address {
                    return Err(Revert::new("only the offchain node may withdraw"));
                }
                if self.status != PunishmentStatus::Terminated {
                    return Err(Revert::new("service not cleanly terminated"));
                }
                let escrow = ctx.contract_balance();
                ctx.transfer_out(self.offchain_address, escrow)?;
                self.status = PunishmentStatus::Refunded;
                ctx.charge_storage_reset(1)?;
                ctx.emit("EscrowRefunded", escrow.0.to_be_bytes().to_vec())?;
                Ok(Vec::new())
            }
            selector::GET_STATUS => {
                ctx.charge_storage_read(1)?;
                Ok(vec![match self.status {
                    PunishmentStatus::Active => 0,
                    PunishmentStatus::Punished => 1,
                    PunishmentStatus::Terminated => 2,
                    PunishmentStatus::Refunded => 3,
                }])
            }
            other => Err(Revert::new(format!("unknown selector 0x{other:02x}"))),
        }
    }

    fn clone_box(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }
}
