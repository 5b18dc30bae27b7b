//! The wire protocol: length-prefixed frames carrying canonical-encoded
//! messages.
//!
//! Frame layout: `len (u32 BE) || kind (u8) || req_id (u64 BE) || body`.
//! Every client message carries a `req_id` the server echoes, so replies —
//! including append replies, which arrive asynchronously at batch-flush
//! time — can be routed back to their callers over one multiplexed
//! connection.
//!
//! Frames are built in one contiguous buffer and shipped with a single
//! `write_all` (the pre-coalescing path issued four). The
//! [`encode_request_into`]/[`encode_reply_into`] entry points append a
//! complete frame to a caller-supplied buffer, so pooled allocations can be
//! reused across frames and several replies can share one egress buffer.
//! The unit tests pin one frame of every request and reply kind to golden
//! bytes (docs/protocol.md has the frame table).
//!
//! An APPEND body is `bytes(leaf) || bytes(nonce y, 32 B)`: the request's
//! leaf bytes (exactly what the log stores) and the y-coordinate of its
//! signature's nonce point, which the signer already computed, so the node
//! checks `y² = x³ + 7` instead of taking a square root
//! ([`wedge_crypto::ecdsa::Signature::nonce_y`]). The field is mandatory; a
//! sender without the y sends 32 zero bytes, which no curve point has. The
//! node never trusts it: a wrong y costs that square root and nothing else.

use std::io::{self, Read, Write};

use wedge_chain::{Decoder, Encoder};
use wedge_core::{AppendRequest, CoreError, EntryId, EpochCommit, ShardGroup, SignedResponse};
use wedge_crypto::hash::Hash32;
use wedge_crypto::keys::Address;
use wedge_crypto::secp256k1::Fe;
use wedge_merkle::RangeProof;

/// Maximum accepted frame size (guards against hostile length prefixes).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Client → server messages.
#[derive(Debug)]
pub enum Request {
    /// Fetch the node's public key and log shape.
    Hello,
    /// Submit one append request.
    Append(AppendRequest),
    /// Read one entry.
    Read(EntryId),
    /// Read by `(publisher, sequence)`.
    ReadSeq(Address, u64),
    /// Read a group of entries in one round trip.
    ReadMany(Vec<EntryId>),
    /// Read a whole log position.
    ReadPosition(u64),
    /// Range scan with multiproof.
    Scan {
        /// Log position.
        log_id: u64,
        /// First offset.
        start: u32,
        /// Entries to scan.
        count: u32,
    },
    /// Log shape: positions, entries, and one position's length.
    Meta {
        /// Position whose length to report (`u64::MAX` for none).
        log_id: u64,
    },
    /// Cluster epoch collection: ask the shard for its pending batch-root
    /// group (coordinator → shard).
    EpochReport {
        /// Maximum roots to report.
        max_group: u64,
    },
    /// Cluster epoch acknowledgement: the reported group is covered by a
    /// confirmed root-of-roots transaction (coordinator → shard).
    EpochCommit(EpochCommit),
}

/// Server → client messages.
#[derive(Debug)]
pub enum Reply {
    /// Hello reply: node public key (uncompressed) + shape.
    Hello {
        /// The node's public key bytes.
        public_key: [u8; 64],
    },
    /// A signed response (append/read/read-seq).
    Response(SignedResponse),
    /// A batch of signed responses (read-position).
    Responses(Vec<SignedResponse>),
    /// Per-entry results of a `ReadMany`.
    ManyResults(Vec<Result<SignedResponse, WireError>>),
    /// A range scan result.
    Scan {
        /// The raw leaves.
        leaves: Vec<Vec<u8>>,
        /// The multiproof.
        proof: RangeProof,
        /// The position's root.
        root: Hash32,
    },
    /// Log shape.
    Meta {
        /// Flushed log positions.
        positions: u64,
        /// Total entries.
        entries: u64,
        /// Length of the requested position, or `None` when it does not
        /// exist. Encoded as an explicit presence flag on the wire — an
        /// in-band `u32::MAX` sentinel would be indistinguishable from a
        /// real (capped) length.
        position_len: Option<u32>,
    },
    /// The shard's pending batch-root group.
    EpochGroup(ShardGroup),
    /// Epoch acknowledgement applied: newly committed position count.
    EpochCommitted {
        /// Positions newly marked blockchain-committed.
        newly: u64,
    },
    /// The operation failed.
    Error(WireError),
}

/// A remote failure, carried inside the `R_ERROR` (and `R_MANY` error-arm)
/// message byte string.
///
/// A generic error is the raw UTF-8 message, while structured errors start
/// with a `0x00` byte (which cannot open legitimate UTF-8 error text)
/// followed by a code byte and fixed-width fields, then the human-readable
/// message. A reader that lossily decodes the whole byte string still sees
/// the message text; [`WireError::from_wire_bytes`] recovers the fields,
/// so the client raises the same [`CoreError`] the node did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// An uncategorized failure, carried as text.
    Generic(String),
    /// The requested entry does not exist.
    EntryNotFound {
        /// The id the failing request named.
        id: EntryId,
        /// Human-readable description.
        message: String,
    },
    /// No entry is recorded for `(publisher, sequence)`.
    SequenceNotFound {
        /// The publisher the failing request named.
        publisher: Address,
        /// The sequence number it named.
        sequence: u64,
        /// Human-readable description.
        message: String,
    },
}

/// Structured-error escape byte: legitimate UTF-8 error text never starts
/// with NUL.
const ERR_ESCAPE: u8 = 0x00;
/// Structured code: generic message that happens to start with NUL.
const ERR_CODE_GENERIC: u8 = 0x00;
/// Structured code: entry not found, fields `log_id u64 BE || offset u32 BE`.
const ERR_CODE_NOT_FOUND: u8 = 0x01;
/// Structured code: sequence not found, fields `publisher (20 B) ||
/// sequence u64 BE`.
const ERR_CODE_SEQUENCE_NOT_FOUND: u8 = 0x02;

impl WireError {
    /// Builds a generic (text-only) error.
    pub fn generic(message: impl Into<String>) -> WireError {
        WireError::Generic(message.into())
    }

    /// Maps a service-side error, preserving structure where the protocol
    /// has a code for it.
    pub fn from_service_error(e: &CoreError) -> WireError {
        match e {
            CoreError::EntryNotFound(id) => WireError::EntryNotFound {
                id: *id,
                message: e.to_string(),
            },
            CoreError::SequenceNotFound {
                publisher,
                sequence,
            } => WireError::SequenceNotFound {
                publisher: *publisher,
                sequence: *sequence,
                message: e.to_string(),
            },
            other => WireError::Generic(other.to_string()),
        }
    }

    /// The message byte string carried on the wire.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        match self {
            WireError::Generic(message) => {
                if message.as_bytes().first() == Some(&ERR_ESCAPE) {
                    // Defensive: escape a message that would otherwise be
                    // mistaken for a structured error.
                    let mut out = Vec::with_capacity(2 + message.len());
                    out.push(ERR_ESCAPE);
                    out.push(ERR_CODE_GENERIC);
                    out.extend_from_slice(message.as_bytes());
                    out
                } else {
                    message.as_bytes().to_vec()
                }
            }
            WireError::EntryNotFound { id, message } => {
                let mut out = Vec::with_capacity(14 + message.len());
                out.push(ERR_ESCAPE);
                out.push(ERR_CODE_NOT_FOUND);
                out.extend_from_slice(&id.log_id.to_be_bytes());
                out.extend_from_slice(&id.offset.to_be_bytes());
                out.extend_from_slice(message.as_bytes());
                out
            }
            WireError::SequenceNotFound {
                publisher,
                sequence,
                message,
            } => {
                let mut out = Vec::with_capacity(30 + message.len());
                out.push(ERR_ESCAPE);
                out.push(ERR_CODE_SEQUENCE_NOT_FOUND);
                out.extend_from_slice(&publisher.0);
                out.extend_from_slice(&sequence.to_be_bytes());
                out.extend_from_slice(message.as_bytes());
                out
            }
        }
    }

    /// Parses a message byte string. Unknown structured codes and malformed
    /// field blocks degrade to [`WireError::Generic`] with the lossy text,
    /// so a newer peer never makes an older one error out.
    pub fn from_wire_bytes(bytes: &[u8]) -> WireError {
        let fallback = || WireError::Generic(String::from_utf8_lossy(bytes).into_owned());
        if bytes.first() != Some(&ERR_ESCAPE) {
            return fallback();
        }
        match bytes.get(1) {
            Some(&ERR_CODE_GENERIC) => WireError::Generic(
                String::from_utf8_lossy(bytes.get(2..).unwrap_or(&[])).into_owned(),
            ),
            Some(&ERR_CODE_NOT_FOUND) => {
                let (Some(log_bytes), Some(off_bytes)) = (bytes.get(2..10), bytes.get(10..14))
                else {
                    return fallback();
                };
                let mut log = [0u8; 8];
                log.copy_from_slice(log_bytes);
                let mut off = [0u8; 4];
                off.copy_from_slice(off_bytes);
                WireError::EntryNotFound {
                    id: EntryId {
                        log_id: u64::from_be_bytes(log),
                        offset: u32::from_be_bytes(off),
                    },
                    message: String::from_utf8_lossy(bytes.get(14..).unwrap_or(&[])).into_owned(),
                }
            }
            Some(&ERR_CODE_SEQUENCE_NOT_FOUND) => {
                let (Some(publisher_bytes), Some(seq_bytes)) =
                    (bytes.get(2..22), bytes.get(22..30))
                else {
                    return fallback();
                };
                let mut publisher = [0u8; 20];
                publisher.copy_from_slice(publisher_bytes);
                let mut sequence = [0u8; 8];
                sequence.copy_from_slice(seq_bytes);
                WireError::SequenceNotFound {
                    publisher: Address(publisher),
                    sequence: u64::from_be_bytes(sequence),
                    message: String::from_utf8_lossy(bytes.get(30..).unwrap_or(&[])).into_owned(),
                }
            }
            _ => fallback(),
        }
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Generic(message) => f.write_str(message),
            WireError::EntryNotFound { id, message } => {
                if message.is_empty() {
                    write!(f, "entry {id} not found")
                } else {
                    f.write_str(message)
                }
            }
            WireError::SequenceNotFound {
                publisher,
                sequence,
                message,
            } => {
                if message.is_empty() {
                    write!(f, "no entry for publisher {publisher} sequence {sequence}")
                } else {
                    f.write_str(message)
                }
            }
        }
    }
}

impl From<String> for WireError {
    fn from(message: String) -> WireError {
        WireError::Generic(message)
    }
}

mod kind {
    pub const HELLO: u8 = 0x01;
    pub const APPEND: u8 = 0x02;
    pub const READ: u8 = 0x03;
    pub const READ_SEQ: u8 = 0x04;
    pub const READ_POSITION: u8 = 0x05;
    pub const READ_MANY: u8 = 0x08;
    pub const SCAN: u8 = 0x06;
    pub const META: u8 = 0x07;
    pub const EPOCH_REPORT: u8 = 0x09;
    pub const EPOCH_COMMIT: u8 = 0x0A;

    pub const R_HELLO: u8 = 0x81;
    pub const R_RESPONSE: u8 = 0x82;
    pub const R_RESPONSES: u8 = 0x83;
    pub const R_SCAN: u8 = 0x84;
    pub const R_META: u8 = 0x85;
    pub const R_MANY: u8 = 0x86;
    pub const R_EPOCH_GROUP: u8 = 0x87;
    pub const R_EPOCH_COMMITTED: u8 = 0x88;
    pub const R_ERROR: u8 = 0xFF;
}

fn io_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Encodes a range proof for the wire.
fn encode_range_proof(enc: &mut Encoder, proof: &RangeProof) {
    enc.u64(proof.start).u64(proof.count).u64(proof.leaf_count);
    enc.u64(proof.siblings.len() as u64);
    for sibling in &proof.siblings {
        enc.bytes(sibling.as_bytes());
    }
}

fn decode_range_proof(dec: &mut Decoder<'_>) -> io::Result<RangeProof> {
    let start = dec.u64().map_err(|_| io_err("proof.start"))?;
    let count = dec.u64().map_err(|_| io_err("proof.count"))?;
    let leaf_count = dec.u64().map_err(|_| io_err("proof.leaf_count"))?;
    let n = dec.u64().map_err(|_| io_err("proof.siblings"))?;
    if n > dec.remaining() as u64 {
        return Err(io_err("sibling count exceeds frame"));
    }
    let mut siblings = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let h: [u8; 32] = dec.bytes_fixed().map_err(|_| io_err("sibling"))?;
        siblings.push(Hash32(h));
    }
    Ok(RangeProof {
        start,
        count,
        leaf_count,
        siblings,
    })
}

impl Request {
    /// Encodes the body into `enc`, returning the frame kind.
    fn encode_body(&self, enc: &mut Encoder) -> u8 {
        match self {
            Request::Hello => kind::HELLO,
            Request::Append(request) => {
                let nonce_y = request.signature.nonce_y.map_or([0; 32], Fe::to_be_bytes);
                enc.bytes(&request.leaf_bytes()).bytes(&nonce_y);
                kind::APPEND
            }
            Request::Read(id) => {
                enc.u64(id.log_id).u64(id.offset as u64);
                kind::READ
            }
            Request::ReadSeq(addr, seq) => {
                enc.bytes(addr.as_bytes()).u64(*seq);
                kind::READ_SEQ
            }
            Request::ReadPosition(log_id) => {
                enc.u64(*log_id);
                kind::READ_POSITION
            }
            Request::ReadMany(ids) => {
                enc.u64(ids.len() as u64);
                for id in ids {
                    enc.u64(id.log_id).u64(id.offset as u64);
                }
                kind::READ_MANY
            }
            Request::Scan {
                log_id,
                start,
                count,
            } => {
                enc.u64(*log_id).u64(*start as u64).u64(*count as u64);
                kind::SCAN
            }
            Request::Meta { log_id } => {
                enc.u64(*log_id);
                kind::META
            }
            Request::EpochReport { max_group } => {
                enc.u64(*max_group);
                kind::EPOCH_REPORT
            }
            Request::EpochCommit(commit) => {
                enc.u64(commit.epoch)
                    .u64(commit.start)
                    .u64(commit.count)
                    .bytes(commit.tx_hash.as_bytes())
                    .u64(commit.block_number);
                kind::EPOCH_COMMIT
            }
        }
    }

    /// Decodes from kind + body.
    fn decode(kind: u8, body: &[u8]) -> io::Result<Request> {
        let mut dec = Decoder::new(body);
        let request = match kind {
            kind::HELLO => Request::Hello,
            kind::APPEND => {
                let leaf = dec.bytes().map_err(|_| io_err("append leaf"))?;
                let mut request =
                    AppendRequest::from_leaf_bytes(leaf).map_err(|_| io_err("append request"))?;
                let nonce_y: [u8; 32] = dec.bytes_fixed().map_err(|_| io_err("append nonce y"))?;
                request.signature.nonce_y = Some(Fe::from_be_bytes(&nonce_y));
                Request::Append(request)
            }
            kind::READ => Request::Read(EntryId {
                log_id: dec.u64().map_err(|_| io_err("log_id"))?,
                offset: dec.u64().map_err(|_| io_err("offset"))? as u32,
            }),
            kind::READ_SEQ => {
                let addr: [u8; 20] = dec.bytes_fixed().map_err(|_| io_err("addr"))?;
                let seq = dec.u64().map_err(|_| io_err("seq"))?;
                Request::ReadSeq(Address(addr), seq)
            }
            kind::READ_POSITION => Request::ReadPosition(dec.u64().map_err(|_| io_err("log_id"))?),
            kind::READ_MANY => {
                let n = dec.u64().map_err(|_| io_err("count"))?;
                if n > 1_000_000 {
                    return Err(io_err("read-many too large"));
                }
                let mut ids = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    ids.push(EntryId {
                        log_id: dec.u64().map_err(|_| io_err("log_id"))?,
                        offset: dec.u64().map_err(|_| io_err("offset"))? as u32,
                    });
                }
                Request::ReadMany(ids)
            }
            kind::SCAN => Request::Scan {
                log_id: dec.u64().map_err(|_| io_err("log_id"))?,
                start: dec.u64().map_err(|_| io_err("start"))? as u32,
                count: dec.u64().map_err(|_| io_err("count"))? as u32,
            },
            kind::META => Request::Meta {
                log_id: dec.u64().map_err(|_| io_err("log_id"))?,
            },
            kind::EPOCH_REPORT => Request::EpochReport {
                max_group: dec.u64().map_err(|_| io_err("max_group"))?,
            },
            kind::EPOCH_COMMIT => {
                let epoch = dec.u64().map_err(|_| io_err("epoch"))?;
                let start = dec.u64().map_err(|_| io_err("start"))?;
                let count = dec.u64().map_err(|_| io_err("count"))?;
                let tx: [u8; 32] = dec.bytes_fixed().map_err(|_| io_err("tx_hash"))?;
                let block_number = dec.u64().map_err(|_| io_err("block"))?;
                Request::EpochCommit(EpochCommit {
                    epoch,
                    start,
                    count,
                    tx_hash: Hash32(tx),
                    block_number,
                })
            }
            other => return Err(io_err(&format!("unknown request kind 0x{other:02x}"))),
        };
        dec.finish().map_err(|_| io_err("trailing bytes"))?;
        Ok(request)
    }
}

impl Reply {
    /// Encodes the body into `enc`, returning the frame kind.
    fn encode_body(&self, enc: &mut Encoder) -> u8 {
        match self {
            Reply::Hello { public_key } => {
                enc.bytes(public_key);
                kind::R_HELLO
            }
            Reply::Response(response) => {
                enc.bytes(&response.to_bytes());
                kind::R_RESPONSE
            }
            Reply::Responses(responses) => {
                enc.u64(responses.len() as u64);
                for response in responses {
                    enc.bytes(&response.to_bytes());
                }
                kind::R_RESPONSES
            }
            Reply::ManyResults(results) => {
                enc.u64(results.len() as u64);
                for result in results {
                    match result {
                        Ok(response) => {
                            enc.u8(1).bytes(&response.to_bytes());
                        }
                        Err(error) => {
                            enc.u8(0).bytes(&error.to_wire_bytes());
                        }
                    }
                }
                kind::R_MANY
            }
            Reply::Scan {
                leaves,
                proof,
                root,
            } => {
                enc.u64(leaves.len() as u64);
                for leaf in leaves {
                    enc.bytes(leaf);
                }
                encode_range_proof(enc, proof);
                enc.bytes(root.as_bytes());
                kind::R_SCAN
            }
            Reply::Meta {
                positions,
                entries,
                position_len,
            } => {
                enc.u64(*positions).u64(*entries);
                match position_len {
                    Some(len) => enc.u8(1).u64(*len as u64),
                    None => enc.u8(0),
                };
                kind::R_META
            }
            Reply::EpochGroup(group) => {
                enc.u64(group.start).u64(group.roots.len() as u64);
                for root in &group.roots {
                    enc.bytes(root.as_bytes());
                }
                kind::R_EPOCH_GROUP
            }
            Reply::EpochCommitted { newly } => {
                enc.u64(*newly);
                kind::R_EPOCH_COMMITTED
            }
            Reply::Error(error) => {
                enc.bytes(&error.to_wire_bytes());
                kind::R_ERROR
            }
        }
    }

    fn decode(kind: u8, body: &[u8]) -> io::Result<Reply> {
        let mut dec = Decoder::new(body);
        let reply = match kind {
            kind::R_HELLO => {
                let pk: [u8; 64] = dec.bytes_fixed().map_err(|_| io_err("public key"))?;
                Reply::Hello { public_key: pk }
            }
            kind::R_RESPONSE => {
                let bytes = dec.bytes().map_err(|_| io_err("response"))?;
                Reply::Response(
                    SignedResponse::from_bytes(bytes).map_err(|_| io_err("response body"))?,
                )
            }
            kind::R_RESPONSES => {
                let n = dec.u64().map_err(|_| io_err("count"))?;
                if n > dec.remaining() as u64 {
                    return Err(io_err("count exceeds frame"));
                }
                let mut responses = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let bytes = dec.bytes().map_err(|_| io_err("response"))?;
                    responses.push(
                        SignedResponse::from_bytes(bytes).map_err(|_| io_err("response body"))?,
                    );
                }
                Reply::Responses(responses)
            }
            kind::R_SCAN => {
                let n = dec.u64().map_err(|_| io_err("leaf count"))?;
                if n > dec.remaining() as u64 {
                    return Err(io_err("count exceeds frame"));
                }
                let mut leaves = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    leaves.push(dec.bytes().map_err(|_| io_err("leaf"))?.to_vec());
                }
                let proof = decode_range_proof(&mut dec)?;
                let root: [u8; 32] = dec.bytes_fixed().map_err(|_| io_err("root"))?;
                Reply::Scan {
                    leaves,
                    proof,
                    root: Hash32(root),
                }
            }
            kind::R_MANY => {
                let n = dec.u64().map_err(|_| io_err("count"))?;
                if n > dec.remaining() as u64 {
                    return Err(io_err("count exceeds frame"));
                }
                let mut results = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let ok = dec.u8().map_err(|_| io_err("flag"))?;
                    let body = dec.bytes().map_err(|_| io_err("body"))?;
                    results.push(match ok {
                        1 => Ok(SignedResponse::from_bytes(body)
                            .map_err(|_| io_err("response body"))?),
                        0 => Err(WireError::from_wire_bytes(body)),
                        _ => return Err(io_err("bad result flag")),
                    });
                }
                Reply::ManyResults(results)
            }
            kind::R_META => {
                let positions = dec.u64().map_err(|_| io_err("positions"))?;
                let entries = dec.u64().map_err(|_| io_err("entries"))?;
                let position_len = match dec.u8().map_err(|_| io_err("len flag"))? {
                    0 => None,
                    1 => Some(dec.u64().map_err(|_| io_err("len"))? as u32),
                    _ => return Err(io_err("bad len flag")),
                };
                Reply::Meta {
                    positions,
                    entries,
                    position_len,
                }
            }
            kind::R_EPOCH_GROUP => {
                let start = dec.u64().map_err(|_| io_err("start"))?;
                let n = dec.u64().map_err(|_| io_err("root count"))?;
                if n > dec.remaining() as u64 {
                    return Err(io_err("count exceeds frame"));
                }
                let mut roots = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let h: [u8; 32] = dec.bytes_fixed().map_err(|_| io_err("root"))?;
                    roots.push(Hash32(h));
                }
                Reply::EpochGroup(ShardGroup { start, roots })
            }
            kind::R_EPOCH_COMMITTED => Reply::EpochCommitted {
                newly: dec.u64().map_err(|_| io_err("newly"))?,
            },
            kind::R_ERROR => {
                let msg = dec.bytes().map_err(|_| io_err("error message"))?;
                Reply::Error(WireError::from_wire_bytes(msg))
            }
            other => return Err(io_err(&format!("unknown reply kind 0x{other:02x}"))),
        };
        dec.finish().map_err(|_| io_err("trailing bytes"))?;
        Ok(reply)
    }
}

/// Appends one complete frame (`len || kind || req_id || body`) to `buf`,
/// encoding the body in place — no intermediate allocation. On a too-large
/// frame the buffer is rolled back to its prior length.
fn encode_frame_into(
    buf: &mut Vec<u8>,
    req_id: u64,
    encode_body: impl FnOnce(&mut Encoder) -> u8,
) -> io::Result<()> {
    let start = buf.len();
    let mut enc = Encoder::from_vec(std::mem::take(buf));
    // Length and kind are patched once the body size is known.
    enc.u32(0);
    enc.u8(0);
    enc.u64(req_id);
    let kind = encode_body(&mut enc);
    let mut out = enc.finish();
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        out.truncate(start);
        *buf = out;
        return Err(io_err("frame too large"));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    out[start + 4] = kind;
    *buf = out;
    Ok(())
}

/// Appends a request frame to `buf`.
pub fn encode_request_into(buf: &mut Vec<u8>, req_id: u64, request: &Request) -> io::Result<()> {
    encode_frame_into(buf, req_id, |enc| request.encode_body(enc))
}

/// Appends a reply frame to `buf`. Several replies can be encoded into one
/// buffer and shipped with a single socket write.
pub fn encode_reply_into(buf: &mut Vec<u8>, req_id: u64, reply: &Reply) -> io::Result<()> {
    encode_frame_into(buf, req_id, |enc| reply.encode_body(enc))
}

/// Splits a raw frame (everything after the length prefix) into
/// `(kind, req_id, body)`.
fn split_frame(frame: &[u8]) -> io::Result<(u8, u64, &[u8])> {
    let (Some(&kind), Some(id_bytes), Some(body)) =
        (frame.first(), frame.get(1..9), frame.get(9..))
    else {
        return Err(io_err("frame too short"));
    };
    let mut id = [0u8; 8];
    id.copy_from_slice(id_bytes);
    Ok((kind, u64::from_be_bytes(id), body))
}

/// Reads one frame: `(kind, req_id, body)`.
fn read_frame(r: &mut impl Read) -> io::Result<(u8, u64, Vec<u8>)> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if !(9..=MAX_FRAME).contains(&len) {
        return Err(io_err("bad frame length"));
    }
    let mut frame = vec![0u8; len];
    r.read_exact(&mut frame)?;
    let (kind, req_id, body) = split_frame(&frame)?;
    Ok((kind, req_id, body.to_vec()))
}

/// Decodes a request from a raw frame (everything after the length prefix):
/// `kind (1) || req_id (8) || body`. Used by servers that manage framing
/// themselves (e.g. with interruptible reads into pooled buffers).
pub fn decode_request_frame(frame: &[u8]) -> io::Result<(u64, Request)> {
    let (kind, req_id, body) = split_frame(frame)?;
    Ok((req_id, Request::decode(kind, body)?))
}

/// Sends a request frame: one buffer, one write.
pub fn send_request(w: &mut impl Write, req_id: u64, request: &Request) -> io::Result<()> {
    let mut frame = Vec::new();
    encode_request_into(&mut frame, req_id, request)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Receives a request frame.
pub fn recv_request(r: &mut impl Read) -> io::Result<(u64, Request)> {
    let (kind, req_id, body) = read_frame(r)?;
    Ok((req_id, Request::decode(kind, &body)?))
}

/// Sends a reply frame: one buffer, one write.
pub fn send_reply(w: &mut impl Write, req_id: u64, reply: &Reply) -> io::Result<()> {
    let mut frame = Vec::new();
    encode_reply_into(&mut frame, req_id, reply)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Receives a reply frame.
pub fn recv_reply(r: &mut impl Read) -> io::Result<(u64, Reply)> {
    let (kind, req_id, body) = read_frame(r)?;
    Ok((req_id, Reply::decode(kind, &body)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::Keypair;
    use wedge_merkle::MerkleTree;

    /// A frame assembled by hand: `len || kind || req_id || body`.
    fn raw_frame(kind: u8, req_id: u64, body: &[u8]) -> Vec<u8> {
        let len = (1 + 8 + body.len()) as u32;
        [&len.to_be_bytes()[..], &[kind], &req_id.to_be_bytes(), body].concat()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn sample_append() -> AppendRequest {
        let kp = Keypair::from_seed(b"wire");
        AppendRequest::new(&kp.secret, 7, b"wire-payload".to_vec())
    }

    /// One request of every kind, then an append whose sender has no nonce
    /// y (a signature parsed from its 65 bytes).
    fn sample_requests() -> Vec<Request> {
        let kp = Keypair::from_seed(b"wire");
        let mut bare = sample_append();
        bare.signature.nonce_y = None;
        vec![
            Request::Hello,
            Request::Append(sample_append()),
            Request::Read(EntryId {
                log_id: 3,
                offset: 9,
            }),
            Request::ReadSeq(kp.address, 42),
            Request::ReadPosition(5),
            Request::ReadMany(vec![
                EntryId {
                    log_id: 1,
                    offset: 0,
                },
                EntryId {
                    log_id: 2,
                    offset: 4,
                },
            ]),
            Request::Scan {
                log_id: 1,
                start: 2,
                count: 3,
            },
            Request::Meta { log_id: u64::MAX },
            Request::EpochReport { max_group: 16 },
            Request::EpochCommit(EpochCommit {
                epoch: 3,
                start: 12,
                count: 4,
                tx_hash: Hash32([0xAB; 32]),
                block_number: 77,
            }),
            Request::Append(bare),
        ]
    }

    fn sample_replies() -> Vec<Reply> {
        let node = Keypair::from_seed(b"wire-node");
        let kp = Keypair::from_seed(b"wire-pub");
        let request = AppendRequest::new(&kp.secret, 0, b"x".to_vec());
        let leaves = vec![request.leaf_bytes(), b"other".to_vec()];
        let tree = MerkleTree::from_leaves(&leaves).unwrap();
        let response = SignedResponse::sign(
            &node.secret,
            EntryId {
                log_id: 0,
                offset: 0,
            },
            tree.root(),
            tree.prove(0).unwrap(),
            leaves[0].clone(),
        );
        let scan_proof = RangeProof::generate(&tree, 0, 2).unwrap();
        vec![
            Reply::Hello {
                public_key: node.public.to_bytes(),
            },
            Reply::Response(response.clone()),
            Reply::Responses(vec![response.clone(), response.clone()]),
            Reply::ManyResults(vec![Ok(response), Err(WireError::generic("read failed"))]),
            Reply::Scan {
                leaves: leaves.clone(),
                proof: scan_proof,
                root: tree.root(),
            },
            Reply::Meta {
                positions: 1,
                entries: 2,
                position_len: Some(2),
            },
            Reply::Meta {
                positions: 1,
                entries: 2,
                position_len: None,
            },
            Reply::Meta {
                positions: 1,
                entries: 2,
                // A real length of u32::MAX must survive the round trip —
                // it used to be the in-band "absent" sentinel.
                position_len: Some(u32::MAX),
            },
            Reply::EpochGroup(ShardGroup {
                start: 12,
                roots: vec![Hash32([0x11; 32]), Hash32([0x22; 32])],
            }),
            Reply::EpochGroup(ShardGroup::default()),
            Reply::EpochCommitted { newly: 4 },
            Reply::Error(WireError::generic("nope")),
        ]
    }

    #[test]
    fn request_frames_roundtrip() {
        let requests = sample_requests();
        let mut buf = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            send_request(&mut buf, i as u64, request).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for (i, original) in requests.iter().enumerate() {
            let (req_id, decoded) = recv_request(&mut cursor).unwrap();
            assert_eq!(req_id, i as u64);
            assert_eq!(format!("{decoded:?}"), format!("{original:?}"));
        }
    }

    #[test]
    fn reply_frames_roundtrip() {
        let node = Keypair::from_seed(b"wire-node");
        let replies = sample_replies();
        let mut buf = Vec::new();
        for (i, reply) in replies.iter().enumerate() {
            send_reply(&mut buf, i as u64, reply).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for (i, original) in replies.iter().enumerate() {
            let (req_id, decoded) = recv_reply(&mut cursor).unwrap();
            assert_eq!(req_id, i as u64);
            // Deep checks for the interesting ones.
            match (i, decoded) {
                (0, Reply::Hello { public_key }) => {
                    assert_eq!(public_key, node.public.to_bytes())
                }
                (1, Reply::Response(r)) => {
                    r.verify(&node.public).unwrap();
                }
                (2, Reply::Responses(rs)) => assert_eq!(rs.len(), 2),
                (3, Reply::ManyResults(rs)) => {
                    assert!(rs[0].is_ok());
                    assert_eq!(
                        rs[1].as_ref().err(),
                        Some(&WireError::generic("read failed"))
                    );
                }
                (
                    4,
                    Reply::Scan {
                        leaves,
                        proof,
                        root,
                    },
                ) => {
                    proof.verify(&leaves, &root).unwrap();
                }
                (5, Reply::Meta { position_len, .. }) => assert_eq!(position_len, Some(2)),
                (6, Reply::Meta { position_len, .. }) => assert_eq!(position_len, None),
                (7, Reply::Meta { position_len, .. }) => {
                    assert_eq!(position_len, Some(u32::MAX));
                }
                (8, Reply::EpochGroup(group)) => {
                    assert_eq!(group.start, 12);
                    assert_eq!(group.roots, vec![Hash32([0x11; 32]), Hash32([0x22; 32])]);
                }
                (9, Reply::EpochGroup(group)) => {
                    assert!(group.is_empty());
                    assert_eq!(group.start, 0);
                }
                (10, Reply::EpochCommitted { newly }) => assert_eq!(newly, 4),
                (11, Reply::Error(err)) => {
                    assert_eq!(err, WireError::generic("nope"));
                }
                (i, other) => panic!("reply {i} ({original:?}) decoded wrong: {other:?}"),
            }
        }
    }

    /// `sample_append()`'s leaf bytes: `bytes(publisher) || u64 sequence ||
    /// bytes(payload) || bytes(65-B signature)`.
    const APPEND_LEAF: &str = concat!(
        "00000014",
        "eb4fb8dab65b574cfff0a089b264e4fb5ed5e2df",
        "0000000000000007",
        "0000000c",
        "776972652d7061796c6f6164",
        "00000041",
        "a6395b211e5148b3ac1e826ca1d4f5788d63564711d1e5ea27b2d8a59f826717",
        "4e4bf510f203bf4934ade13ddc79841ea2b3813fdde02b76a5d6637902f2504f",
        "00",
    );
    /// The y-coordinate of that signature's nonce point.
    const APPEND_NONCE_Y: &str = "e0a1c1e9cfe6fa8031800594075164c75b5a6593c3af50d890698f0b1aba08e0";
    const NO_NONCE_Y: &str = "0000000000000000000000000000000000000000000000000000000000000000";

    /// `sample_requests()` as sent with request id = index, field by field:
    /// `len || kind || req_id || body`.
    const GOLDEN_REQUESTS: [&[&str]; 11] = [
        &["00000009", "01", "0000000000000000"],
        &[
            "000000a6",
            "02",
            "0000000000000001",
            "00000075",
            APPEND_LEAF,
            "00000020",
            APPEND_NONCE_Y,
        ],
        &[
            "00000019",
            "03",
            "0000000000000002",
            "0000000000000003",
            "0000000000000009",
        ],
        &[
            "00000029",
            "04",
            "0000000000000003",
            "00000014",
            "eb4fb8dab65b574cfff0a089b264e4fb5ed5e2df",
            "000000000000002a",
        ],
        &["00000011", "05", "0000000000000004", "0000000000000005"],
        &[
            "00000031",
            "08",
            "0000000000000005",
            "0000000000000002",
            "0000000000000001",
            "0000000000000000",
            "0000000000000002",
            "0000000000000004",
        ],
        &[
            "00000021",
            "06",
            "0000000000000006",
            "0000000000000001",
            "0000000000000002",
            "0000000000000003",
        ],
        &["00000011", "07", "0000000000000007", "ffffffffffffffff"],
        &["00000011", "09", "0000000000000008", "0000000000000010"],
        &[
            "0000004d",
            "0a",
            "0000000000000009",
            "0000000000000003",
            "000000000000000c",
            "0000000000000004",
            "00000020",
            "abababababababababababababababababababababababababababababababab",
            "000000000000004d",
        ],
        &[
            "000000a6",
            "02",
            "000000000000000a",
            "00000075",
            APPEND_LEAF,
            "00000020",
            NO_NONCE_Y,
        ],
    ];

    /// `sample_replies()` as sent with request id = index; the three that
    /// carry signed responses as `(length, keccak256 of the frame)` — the
    /// response bytes themselves are pinned in `wedge-core`'s attestation
    /// tests.
    const GOLDEN_REPLIES: [&[&str]; 12] = [
        &[
            "0000004d",
            "81",
            "0000000000000000",
            "00000040",
            "51376398bcfcc06dd7480d45680ea2d43b22de7173080a76db2f8f6637160965",
            "dd878d5e6fa5c7ddf1a3b805f15043cabf0de7080088c87560687ecf4f4513c5",
        ],
        &[
            "325",
            "0949ff622a913bda08bdd3be8afac4a2c26e8ad11c04c809e29c16b46e80f553",
        ],
        &[
            "645",
            "a94fdd58d20fa85cde3f95e17e10cada14738a4abed1a1887b408fa9ef51f58a",
        ],
        &[
            "350",
            "71d3bd470ce9e235d2e114cef3edc4105d33d3fb96c48679aa0bfa6492edcff1",
        ],
        &[
            "000000cc",
            "84",
            "0000000000000004",
            "0000000000000002",
            "0000006a",
            "00000014",
            "ea93eb449da5ef6b5c26ef8d4627fbaca351b5f6",
            "0000000000000000",
            "00000001",
            "78",
            "00000041",
            "056fd16615baa6b590c4c89631d173057542f059d143467a6b0ad08e8369d2d6",
            "61b486223d7b8375cabd671f77b5d2f1311881d93d35486884fd3dfa87522e03",
            "01",
            "00000005",
            "6f74686572",
            "0000000000000000",
            "0000000000000002",
            "0000000000000002",
            "0000000000000000",
            "00000020",
            "63e0e668396680aef3229bf8e393cdf8b25629558b8983c7e174e4c6d8922405",
        ],
        &[
            "00000022",
            "85",
            "0000000000000005",
            "0000000000000001",
            "0000000000000002",
            "01",
            "0000000000000002",
        ],
        &[
            "0000001a",
            "85",
            "0000000000000006",
            "0000000000000001",
            "0000000000000002",
            "00",
        ],
        &[
            "00000022",
            "85",
            "0000000000000007",
            "0000000000000001",
            "0000000000000002",
            "01",
            "00000000ffffffff",
        ],
        &[
            "00000061",
            "87",
            "0000000000000008",
            "000000000000000c",
            "0000000000000002",
            "00000020",
            "1111111111111111111111111111111111111111111111111111111111111111",
            "00000020",
            "2222222222222222222222222222222222222222222222222222222222222222",
        ],
        &[
            "00000019",
            "87",
            "0000000000000009",
            "0000000000000000",
            "0000000000000000",
        ],
        &["00000011", "88", "000000000000000a", "0000000000000004"],
        &["00000011", "ff", "000000000000000b", "00000004", "6e6f7065"],
    ];

    #[test]
    fn frames_match_golden_bytes() {
        assert_eq!(sample_requests().len(), GOLDEN_REQUESTS.len());
        assert_eq!(sample_replies().len(), GOLDEN_REPLIES.len());
        for (i, (request, golden)) in sample_requests().iter().zip(GOLDEN_REQUESTS).enumerate() {
            let mut frame = Vec::new();
            send_request(&mut frame, i as u64, request).unwrap();
            assert_eq!(hex(&frame), golden.concat(), "request {i}");
        }
        for (i, (reply, golden)) in sample_replies().iter().zip(GOLDEN_REPLIES).enumerate() {
            let mut frame = Vec::new();
            send_reply(&mut frame, i as u64, reply).unwrap();
            match golden {
                [len, digest] if len.len() < 8 => {
                    assert_eq!(frame.len().to_string(), *len, "reply {i}");
                    assert_eq!(hex(&wedge_crypto::keccak256(&frame)), *digest, "reply {i}");
                }
                _ => assert_eq!(hex(&frame), golden.concat(), "reply {i}"),
            }
        }
    }

    #[test]
    fn append_frames_carry_the_nonce_y_and_reject_the_old_layout() {
        let request = sample_append();
        let mut frame = Vec::new();
        send_request(&mut frame, 1, &Request::Append(request.clone())).unwrap();
        let decode = |frame: &[u8]| decode_request_frame(&frame[4..]);
        match decode(&frame) {
            Ok((1, Request::Append(decoded))) => {
                assert_eq!(decoded.signature, request.signature);
                assert_eq!(decoded.signature.nonce_y, request.signature.nonce_y);
                assert_eq!(decoded.leaf_bytes(), request.leaf_bytes());
            }
            other => panic!("append decoded wrong: {other:?}"),
        }
        // Zeros (no y) and any other 32 bytes decode; what they are worth is
        // the verifier's business, never the decoder's.
        for y in [[0u8; 32], [0xFF; 32]] {
            let body = [&frame[13..frame.len() - 32], &y[..]].concat();
            match decode(&raw_frame(kind::APPEND, 1, &body)) {
                Ok((_, Request::Append(decoded))) => {
                    assert_eq!(decoded.signature.nonce_y, Some(Fe::from_be_bytes(&y)));
                    assert_eq!(decoded.verify().is_ok(), request.verify().is_ok());
                }
                other => panic!("append with y {y:02x?} decoded wrong: {other:?}"),
            }
        }
        // The layout before the field (the leaf alone), a truncated y, a
        // short y and trailing bytes after it are errors, never a panic.
        let leaf_only = {
            let mut enc = Encoder::new();
            enc.bytes(&request.leaf_bytes());
            enc.finish()
        };
        let body = &frame[13..];
        let mut short_y = body[..body.len() - 36].to_vec();
        short_y.extend_from_slice(&31u32.to_be_bytes());
        short_y.extend_from_slice(&[7; 31]);
        for bad in [
            leaf_only,
            body[..body.len() - 1].to_vec(),
            body[..body.len() - 32].to_vec(),
            short_y,
            [body, &[0][..]].concat(),
        ] {
            let frame = raw_frame(kind::APPEND, 1, &bad);
            assert!(decode(&frame).is_err());
            assert!(recv_request(&mut std::io::Cursor::new(frame)).is_err());
        }
    }

    #[test]
    fn encode_into_appends_and_rolls_back() {
        // Frames append after existing content (coalescing), and an
        // oversized frame rolls the buffer back untouched.
        let mut buf = b"prefix".to_vec();
        encode_reply_into(&mut buf, 9, &Reply::Error(WireError::generic("x"))).unwrap();
        assert_eq!(&buf[..6], b"prefix");
        let mut single = Vec::new();
        send_reply(&mut single, 9, &Reply::Error(WireError::generic("x"))).unwrap();
        assert_eq!(&buf[6..], &single[..]);

        let before = buf.clone();
        // An over-limit body must error and roll the buffer back.
        let oversized = encode_frame_into(&mut buf, 0, |enc| {
            enc.bytes(&vec![0u8; MAX_FRAME]);
            0x42
        });
        assert!(oversized.is_err());
        assert_eq!(buf, before, "failed encode must not leave partial bytes");
    }

    #[test]
    fn structured_errors_roundtrip_with_real_entry_id() {
        let id = EntryId {
            log_id: 12,
            offset: 34,
        };
        let err = WireError::from_service_error(&CoreError::EntryNotFound(id));
        let mut buf = Vec::new();
        send_reply(&mut buf, 1, &Reply::Error(err.clone())).unwrap();
        let (_, decoded) = recv_reply(&mut std::io::Cursor::new(buf)).unwrap();
        match decoded {
            Reply::Error(WireError::EntryNotFound { id: got, message }) => {
                assert_eq!(got, id);
                assert!(message.contains("not found"));
            }
            other => panic!("structured error lost: {other:?}"),
        }
        // Old peers lossily decode the message byte string and dispatch on
        // the "not found" needle — the structured bytes must keep it.
        let wire = err.to_wire_bytes();
        assert!(String::from_utf8_lossy(&wire).contains("not found"));
        // And plain-text errors stay byte-identical to the old encoding.
        let generic = WireError::generic("remote node error: boom");
        assert_eq!(generic.to_wire_bytes(), b"remote node error: boom");
    }

    #[test]
    fn legacy_plain_text_errors_decode_as_generic() {
        // A frame from an old peer: R_ERROR body is just the UTF-8 text.
        let mut enc = Encoder::new();
        enc.bytes(b"entry 3/7 not found");
        let frame = raw_frame(0xFF, 5, &enc.finish());
        let (req_id, decoded) = recv_reply(&mut std::io::Cursor::new(frame)).unwrap();
        assert_eq!(req_id, 5);
        assert_eq!(
            decoded_error(decoded),
            WireError::Generic("entry 3/7 not found".into())
        );
        // Defensive escape: a generic message starting with NUL survives.
        let nul = WireError::generic("\0weird");
        assert_eq!(WireError::from_wire_bytes(&nul.to_wire_bytes()), nul);
        // Unknown structured code degrades to generic, not an error.
        let unknown = WireError::from_wire_bytes(&[0x00, 0x7F, b'h', b'i']);
        assert!(matches!(unknown, WireError::Generic(_)));
    }

    /// Each structured error code pinned to its bytes (`escape || code ||
    /// fields || message`), and each decoded back to itself.
    #[test]
    fn structured_error_codes_match_golden_bytes() {
        let publisher = Address([0x5A; 20]);
        let cases = [
            (
                WireError::EntryNotFound {
                    id: EntryId {
                        log_id: 3,
                        offset: 7,
                    },
                    message: "m".into(),
                },
                concat!("00", "01", "0000000000000003", "00000007", "6d"),
            ),
            (
                WireError::SequenceNotFound {
                    publisher,
                    sequence: 99,
                    message: "m".into(),
                },
                concat!(
                    "00",
                    "02",
                    "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a",
                    "0000000000000063",
                    "6d"
                ),
            ),
        ];
        for (err, golden) in cases {
            assert_eq!(hex(&err.to_wire_bytes()), golden, "{err:?}");
            assert_eq!(WireError::from_wire_bytes(&err.to_wire_bytes()), err);
        }
        // A truncated field block degrades to generic text.
        let short = WireError::from_wire_bytes(&[0x00, 0x02, 0x5A, 0x5A]);
        assert!(matches!(short, WireError::Generic(_)));
    }

    fn decoded_error(reply: Reply) -> WireError {
        match reply {
            Reply::Error(err) => err,
            other => panic!("expected error reply, got {other:?}"),
        }
    }

    #[test]
    fn hostile_frames_rejected() {
        // Oversized length prefix.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        buf.extend_from_slice(&[0; 16]);
        assert!(recv_request(&mut std::io::Cursor::new(buf)).is_err());
        // Unknown kind.
        let buf = raw_frame(0x77, 0, b"");
        assert!(recv_request(&mut std::io::Cursor::new(buf)).is_err());
        // Truncated body.
        let mut buf = Vec::new();
        send_request(
            &mut buf,
            1,
            &Request::Read(EntryId {
                log_id: 0,
                offset: 0,
            }),
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        assert!(recv_request(&mut std::io::Cursor::new(buf)).is_err());
    }
}
