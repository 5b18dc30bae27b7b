//! The client-side connection: a [`RemoteNode`] implements
//! [`LogService`] over TCP, so `Publisher`/`Reader`/`Auditor` work against a
//! networked Offchain Node exactly as they do in-process.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use wedge_core::node::ReplyFn;
use wedge_core::{
    AppendRequest, CoreError, EntryId, EpochCommit, LogService, ShardGroup, SignedResponse,
};
use wedge_crypto::hash::Hash32;
use wedge_crypto::keys::Address;
use wedge_crypto::PublicKey;
use wedge_merkle::RangeProof;

use crate::wire::{encode_request_into, recv_reply, Reply, Request, WireError};

/// How a pending request wants its reply delivered.
enum PendingSlot {
    /// Synchronous caller blocked on a channel.
    Channel(Sender<Reply>),
    /// Asynchronous append continuation.
    Append(ReplyFn),
}

struct Shared {
    pending: Mutex<HashMap<u64, PendingSlot>>,
}

/// A connection to a remote WedgeBlock node.
///
/// One TCP connection is multiplexed across all operations; a background
/// reader thread dispatches tagged replies. Dropping the `RemoteNode`
/// closes the connection (outstanding appends get an error reply).
///
/// Writes are buffered. By default every request is flushed immediately;
/// [`RemoteNode::set_buffered_appends`] defers flushing of appends until
/// [`LogService::flush`] (or any synchronous round trip), letting a batch
/// of appends share one socket write.
pub struct RemoteNode {
    writer: Mutex<BufWriter<TcpStream>>,
    /// When false, appends stay in the write buffer until a flush.
    autoflush: AtomicBool,
    /// Set on the first write/flush failure. A failed write can leave half
    /// a frame in the buffer or on the socket, so no later frame may
    /// follow it — every subsequent send fails fast instead of
    /// desynchronizing the stream's framing.
    poisoned: AtomicBool,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    public_key: PublicKey,
    timeout: Duration,
    reader_thread: Option<std::thread::JoinHandle<()>>,
}

impl RemoteNode {
    /// Connects and performs the hello handshake (fetching the node's
    /// public key for client-side verification).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<RemoteNode> {
        RemoteNode::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// Connects with a custom per-operation timeout.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> std::io::Result<RemoteNode> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader_stream = stream.try_clone()?;
        let shared = Arc::new(Shared {
            pending: Mutex::new(HashMap::new()),
        });
        let reader_shared = Arc::clone(&shared);
        let reader_thread = std::thread::Builder::new()
            .name("wedge-net-client-reader".into())
            .spawn(move || {
                let mut reader = BufReader::new(reader_stream);
                // Reads until the connection closes (recv_reply errors).
                while let Ok((req_id, reply)) = recv_reply(&mut reader) {
                    let slot = reader_shared.pending.lock().remove(&req_id);
                    match slot {
                        Some(PendingSlot::Channel(tx)) => {
                            let _ = tx.send(reply);
                        }
                        Some(PendingSlot::Append(callback)) => match reply {
                            Reply::Response(response) => callback(Ok(response)),
                            Reply::Error(error) => callback(Err(error.to_string())),
                            other => callback(Err(format!("unexpected append reply: {other:?}"))),
                        },
                        None => {} // late reply for a timed-out caller
                    }
                }
                // Fail everything still pending.
                let mut pending = reader_shared.pending.lock();
                for (_, slot) in pending.drain() {
                    if let PendingSlot::Append(callback) = slot {
                        callback(Err("connection closed".into()));
                    }
                }
            })?;

        let mut node = RemoteNode {
            writer: Mutex::new(BufWriter::new(stream)),
            autoflush: AtomicBool::new(true),
            poisoned: AtomicBool::new(false),
            shared,
            next_id: AtomicU64::new(1),
            // A syntactically valid placeholder; the handshake below
            // overwrites it before `connect` returns.
            public_key: wedge_crypto::Keypair::from_seed(b"handshake-pending").public,
            timeout,
            reader_thread: Some(reader_thread),
        };
        // Handshake.
        match node.round_trip(Request::Hello)? {
            Reply::Hello { public_key } => {
                node.public_key = PublicKey::from_bytes(&public_key).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad node key")
                })?;
            }
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad hello reply: {other:?}"),
                ))
            }
        }
        Ok(node)
    }

    /// Switches buffered-append mode: when buffered, append frames queue in
    /// the write buffer until [`LogService::flush`] or the next synchronous
    /// round trip, so a burst shares one socket write. Synchronous requests
    /// always flush (they block on the reply).
    pub fn set_buffered_appends(&self, buffered: bool) {
        self.autoflush.store(!buffered, Ordering::Relaxed);
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Encodes and writes one request frame; flushes when asked. Any
    /// write/flush failure is fatal for the connection: the stream may hold
    /// a half-written frame, so the connection is poisoned (all later sends
    /// fail fast) and shut down rather than left to desynchronize framing.
    fn send(&self, req_id: u64, request: &Request, flush: bool) -> std::io::Result<()> {
        let mut frame = Vec::new();
        encode_request_into(&mut frame, req_id, request)?;
        let mut writer = self.writer.lock();
        // Checked under the lock: a sender that lost the race to a failing
        // sender must not append after its partial frame.
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "connection poisoned by an earlier write failure",
            ));
        }
        let outcome =
            writer
                .write_all(&frame)
                .and_then(|()| if flush { writer.flush() } else { Ok(()) });
        if outcome.is_err() {
            self.poisoned.store(true, Ordering::Relaxed);
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
        }
        outcome
    }

    /// Sends `request` and blocks for its tagged reply.
    fn round_trip(&self, request: Request) -> std::io::Result<Reply> {
        let req_id = self.next_id();
        let (tx, rx) = bounded(1);
        self.shared
            .pending
            .lock()
            .insert(req_id, PendingSlot::Channel(tx));
        // Synchronous callers always flush — any buffered appends ride
        // along in the same write.
        if let Err(e) = self.send(req_id, &request, true) {
            self.shared.pending.lock().remove(&req_id);
            return Err(e);
        }
        rx.recv_timeout(self.timeout).map_err(|_| {
            self.shared.pending.lock().remove(&req_id);
            std::io::Error::new(std::io::ErrorKind::TimedOut, "request timed out")
        })
    }

    fn rpc(&self, request: Request) -> Result<Reply, CoreError> {
        match self.round_trip(request) {
            Ok(Reply::Error(error)) => Err(remote_error(error)),
            Ok(reply) => Ok(reply),
            Err(_) => Err(CoreError::NodeStopped),
        }
    }
}

/// Maps a wire error back into the client-side error the node raised:
/// structured errors carry their fields, anything else stays text.
fn remote_error(error: WireError) -> CoreError {
    match error {
        WireError::EntryNotFound { id, .. } => CoreError::EntryNotFound(id),
        WireError::SequenceNotFound {
            publisher,
            sequence,
            ..
        } => CoreError::SequenceNotFound {
            publisher,
            sequence,
        },
        WireError::Generic(message) => CoreError::Remote(message),
    }
}

impl LogService for RemoteNode {
    fn node_public_key(&self) -> PublicKey {
        self.public_key
    }

    fn submit_request(&self, request: AppendRequest, reply: ReplyFn) -> Result<(), CoreError> {
        let req_id = self.next_id();
        self.shared
            .pending
            .lock()
            .insert(req_id, PendingSlot::Append(reply));
        let flush = self.autoflush.load(Ordering::Relaxed);
        if self.send(req_id, &Request::Append(request), flush).is_err() {
            // Reclaim and fail the continuation.
            if let Some(PendingSlot::Append(callback)) = self.shared.pending.lock().remove(&req_id)
            {
                callback(Err("connection closed".into()));
            }
            return Err(CoreError::NodeStopped);
        }
        Ok(())
    }

    fn flush(&self) {
        let mut writer = self.writer.lock();
        if writer.flush().is_err() {
            // Same rule as `send`: a failed flush may leave a partial
            // frame behind; nothing may be written after it.
            self.poisoned.store(true, Ordering::Relaxed);
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
        }
    }

    fn read_entry(&self, id: EntryId) -> Result<SignedResponse, CoreError> {
        match self.rpc(Request::Read(id))? {
            Reply::Response(response) => Ok(response),
            _ => Err(CoreError::RequestRejected("unexpected reply")),
        }
    }

    fn read_entries(&self, ids: &[EntryId]) -> Vec<Result<SignedResponse, CoreError>> {
        match self.rpc(Request::ReadMany(ids.to_vec())) {
            Ok(Reply::ManyResults(results)) if results.len() == ids.len() => results
                .into_iter()
                .map(|r| r.map_err(remote_error))
                .collect(),
            Ok(_) | Err(_) => ids
                .iter()
                .map(|_| Err(CoreError::Remote("read-many failed".into())))
                .collect(),
        }
    }

    fn read_entry_by_sequence(
        &self,
        publisher: Address,
        sequence: u64,
    ) -> Result<SignedResponse, CoreError> {
        match self.rpc(Request::ReadSeq(publisher, sequence))? {
            Reply::Response(response) => Ok(response),
            _ => Err(CoreError::RequestRejected("unexpected reply")),
        }
    }

    fn read_position(&self, log_id: u64) -> Result<Vec<SignedResponse>, CoreError> {
        match self.rpc(Request::ReadPosition(log_id))? {
            Reply::Responses(responses) => Ok(responses),
            _ => Err(CoreError::RequestRejected("unexpected reply")),
        }
    }

    fn position_len(&self, log_id: u64) -> Option<u32> {
        match self.rpc(Request::Meta { log_id }) {
            Ok(Reply::Meta { position_len, .. }) => position_len,
            _ => None,
        }
    }

    fn scan(
        &self,
        log_id: u64,
        start: u32,
        count: u32,
    ) -> Result<(Vec<Vec<u8>>, RangeProof, Hash32), CoreError> {
        match self.rpc(Request::Scan {
            log_id,
            start,
            count,
        })? {
            Reply::Scan {
                leaves,
                proof,
                root,
            } => Ok((leaves, proof, root)),
            _ => Err(CoreError::RequestRejected("unexpected reply")),
        }
    }

    fn positions(&self) -> u64 {
        self.meta(u64::MAX).0
    }

    fn entries(&self) -> u64 {
        self.meta(u64::MAX).1
    }

    fn meta(&self, log_id: u64) -> (u64, u64, Option<u32>) {
        // One round trip instead of three; the server answers from one
        // snapshot, so the triple is internally consistent.
        match self.rpc(Request::Meta { log_id }) {
            Ok(Reply::Meta {
                positions,
                entries,
                position_len,
            }) => (positions, entries, position_len),
            _ => (0, 0, None),
        }
    }

    fn epoch_report(&self, max_group: usize) -> Result<ShardGroup, CoreError> {
        match self.rpc(Request::EpochReport {
            max_group: max_group as u64,
        })? {
            Reply::EpochGroup(group) => Ok(group),
            _ => Err(CoreError::RequestRejected("unexpected reply")),
        }
    }

    fn epoch_commit(&self, commit: EpochCommit) -> Result<u64, CoreError> {
        match self.rpc(Request::EpochCommit(commit))? {
            Reply::EpochCommitted { newly } => Ok(newly),
            _ => Err(CoreError::RequestRejected("unexpected reply")),
        }
    }
}

impl Drop for RemoteNode {
    fn drop(&mut self) {
        // Flush buffered appends, then close the connection; the reader
        // thread exits on EOF.
        {
            let mut writer = self.writer.lock();
            let _ = writer.flush();
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.reader_thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_errors_carry_the_real_entry_id() {
        let id = EntryId {
            log_id: 6,
            offset: 2,
        };
        let err = remote_error(WireError::EntryNotFound {
            id,
            message: "entry 6/2 not found".into(),
        });
        assert!(matches!(err, CoreError::EntryNotFound(got) if got == id));
    }

    #[test]
    fn sequence_not_found_keeps_its_fields_and_text_stays_text() {
        let publisher = wedge_crypto::Keypair::from_seed(b"remote-error").address;
        let missing = CoreError::SequenceNotFound {
            publisher,
            sequence: 99,
        };
        let err = remote_error(WireError::from_service_error(&missing));
        assert_eq!(err.to_string(), missing.to_string());
        assert!(matches!(
            err,
            CoreError::SequenceNotFound { publisher: p, sequence: 99 } if p == publisher
        ));
        // No needle matching: a text error is a remote error, whatever it says.
        let err = remote_error(WireError::Generic("entry 6/2 not found".into()));
        assert!(matches!(err, CoreError::Remote(_)));
    }
}
