//! The node-side TCP server: a fixed-size connection worker pool with
//! coalescing writers and pooled frame buffers.
//!
//! Topology: one blocking accept thread feeds accepted sockets into a
//! bounded channel; `workers` persistent (reader, writer) thread pairs take
//! connections from it, so serving a connection costs no thread spawn. The
//! reader parses request frames into pooled buffers and dispatches them;
//! all replies — synchronous reads and asynchronous append callbacks alike
//! — go through a **bounded** per-session reply queue to the pair's
//! coalescing writer, which drains every ready reply into one pooled
//! egress buffer and ships the batch in a single socket write. When a
//! client stops draining and its queue stays full, synchronous replies are
//! shed ([`NetStats::queue_shed`]) instead of growing node memory, while an
//! undeliverable **append** reply kills the connection after a bounded
//! grace period ([`NetStats::slow_client_kills`]) — append callers block
//! without a timeout, so they must see a reply or a dead socket, never
//! silence. Healthy connections on other worker pairs are unaffected.
//!
//! The reply-release rule from the durability plane is preserved: replies
//! reach this layer only after the entry is durable, and this layer only
//! ever delays or drops them — it never invents one.

use std::io::Write as _;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, SendTimeoutError, Sender, TrySendError};
use wedge_core::LogService;

use crate::buffer::BufferPool;
use crate::stats::{NetCounters, NetStats};
use crate::wire::{decode_request_frame, encode_reply_into, Reply, Request, WireError};

/// Maximum replies coalesced into one socket write.
const COALESCE_MAX_REPLIES: u64 = 64;
/// Soft cap on a coalesced egress batch, in bytes.
const COALESCE_MAX_BYTES: usize = 1 << 20;
/// Frame buffers retained by the shared pool.
const POOL_MAX_BUFFERS: usize = 64;
/// Buffers grown beyond this many bytes are not returned to the pool.
const POOL_MAX_RETAINED: usize = 1 << 20;

/// Tuning for [`NodeServer`]: the sizes and patience windows a deployment
/// (or a test provoking overload) has a reason to move. The defaults suit
/// tests and production.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connection worker pairs (one reader + one writer thread each).
    /// `0` means one pair per available core, clamped to `[8, 16]` — the
    /// floor guarantees a default server can host a default-sized
    /// [`crate::RemoteNodePool`] (4 stripes) with headroom even on small
    /// machines, since a connection beyond the pool waits for a pair to
    /// free up.
    pub workers: usize,
    /// Accepted connections allowed to wait for a free worker pair; beyond
    /// this the accept loop sheds the connection.
    pub pending_connections: usize,
    /// Depth of each session's bounded reply queue. When a client stops
    /// draining and the queue stays full, synchronous replies are shed;
    /// append replies kill the connection after [`ServerConfig::append_reply_grace`].
    pub reply_queue_depth: usize,
    /// How long an append reply may wait for queue space before the
    /// connection is declared dead and killed. Appends cannot be silently
    /// shed (the client blocks on them without a timeout), so this bounds
    /// both the batcher-thread stall and the client's worst-case hang.
    pub append_reply_grace: Duration,
    /// A writer stalled on one socket write longer than this kills the
    /// connection instead of holding its worker pair hostage.
    pub write_stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            pending_connections: 128,
            reply_queue_depth: 1024,
            append_reply_grace: Duration::from_millis(250),
            write_stall_timeout: Duration::from_secs(10),
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
            .clamp(8, 16)
    }
}

/// State shared by the accept loop, the worker pairs, and the handle.
struct ServerShared {
    service: Arc<dyn LogService>,
    stop: AtomicBool,
    counters: NetCounters,
    pool: BufferPool,
    config: ServerConfig,
}

/// One connection handed from a reader worker to its writer mate.
struct WriterSession {
    stream: TcpStream,
    reply_rx: Receiver<(u64, Reply)>,
}

/// The reply-delivery side of one session, shared with every pending append
/// callback. Besides the bounded queue it carries a kill handle: an append
/// reply that cannot be queued within the grace period kills the connection
/// (see [`deliver_append`]) instead of being silently shed.
struct SessionSender {
    tx: Sender<(u64, Reply)>,
    /// Socket handle used only to shut the connection down.
    kill: TcpStream,
    /// Set once the session has been killed; later replies drop instantly
    /// instead of waiting out the grace period again.
    dead: AtomicBool,
}

/// A running WedgeBlock TCP endpoint. Stops (and joins its threads) on drop.
pub struct NodeServer {
    local_addr: SocketAddr,
    listener: TcpListener,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NodeServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves `service`
    /// with the default [`ServerConfig`].
    pub fn bind(addr: &str, service: Arc<dyn LogService>) -> std::io::Result<NodeServer> {
        NodeServer::bind_with_config(addr, service, ServerConfig::default())
    }

    /// Binds with explicit tuning.
    pub fn bind_with_config(
        addr: &str,
        service: Arc<dyn LogService>,
        config: ServerConfig,
    ) -> std::io::Result<NodeServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let accept_listener = listener.try_clone()?;
        let shared = Arc::new(ServerShared {
            service,
            stop: AtomicBool::new(false),
            counters: NetCounters::default(),
            pool: BufferPool::new(POOL_MAX_BUFFERS, POOL_MAX_RETAINED),
            config: config.clone(),
        });
        let (conn_tx, conn_rx) = bounded::<TcpStream>(config.pending_connections.max(1));
        let mut workers = Vec::new();
        for i in 0..config.effective_workers() {
            let (session_tx, session_rx) = bounded::<WriterSession>(1);
            let (ack_tx, ack_rx) = bounded::<()>(1);
            let writer_shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("wedge-net-writer-{i}"))
                    .spawn(move || writer_worker(session_rx, ack_tx, writer_shared))?,
            );
            let reader_shared = Arc::clone(&shared);
            let reader_rx = conn_rx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("wedge-net-conn-{i}"))
                    .spawn(move || reader_worker(reader_rx, session_tx, ack_rx, reader_shared))?,
            );
        }
        drop(conn_rx);
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("wedge-net-accept".into())
            .spawn(move || accept_loop(accept_listener, conn_tx, accept_shared))?;
        Ok(NodeServer {
            local_addr,
            listener,
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the RPC-plane counters.
    pub fn stats(&self) -> NetStats {
        self.shared.counters.snapshot(&self.shared.pool)
    }

    /// Connections shed because every worker pair was busy and the pending
    /// queue was full.
    pub fn dropped_connections(&self) -> u64 {
        self.shared
            .counters
            .connections_shed
            .load(Ordering::Relaxed)
    }

    /// Stops accepting and joins all server threads. Sessions mid-flight
    /// notice the stop flag at their next read-timeout check point.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // The accept thread blocks in `accept()`. Flipping the listener to
        // non-blocking only affects *future* accept calls — on Linux it
        // does not interrupt one already parked — so the wake connection
        // below is load-bearing, and it is retried: a single failed
        // connect (transient SYN-queue pressure, odd routing) must not
        // wedge shutdown/Drop on an unjoinable thread forever.
        let _ = self.listener.set_nonblocking(true);
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let mut woken = false;
        for attempt in 0..5 {
            if TcpStream::connect_timeout(&wake, Duration::from_millis(200)).is_ok() {
                woken = true;
                break;
            }
            if attempt + 1 < 5 {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        if !woken {
            // The host cannot reach its own listener: the accept thread may
            // still be parked, and joining it (or the workers fed by its
            // channel) could hang forever. Detach instead — the threads die
            // with the process; a wedged Drop would take the caller with
            // them.
            self.accept_thread.take();
            self.workers.drain(..);
            return;
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // The accept loop owned `conn_tx`; its exit disconnects the reader
        // workers, whose exits disconnect their writer mates.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections and feeds them to the worker pool, shedding when the
/// pending queue is full. Blocking accept: no sleep-poll, so connection
/// establishment costs no added latency.
fn accept_loop(listener: TcpListener, conn_tx: Sender<TcpStream>, shared: Arc<ServerShared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.stop.load(Ordering::Relaxed) {
                    break; // the shutdown wake-up connection
                }
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        // Every worker busy and the backlog full: shed.
                        // The client sees EOF and can retry.
                        shared
                            .counters
                            .connections_shed
                            .fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Only reachable after shutdown flipped the listener to
                // non-blocking.
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
                // lint: allow(blocking) — shutdown-only drain poll: the listener is non-blocking here and no client traffic flows any more
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

/// A persistent reader worker: serves connections from the queue, one at a
/// time, handing each session's write half to its dedicated writer mate.
fn reader_worker(
    conn_rx: Receiver<TcpStream>,
    session_tx: Sender<WriterSession>,
    ack_rx: Receiver<()>,
    shared: Arc<ServerShared>,
) {
    while let Ok(stream) = conn_rx.recv() {
        shared.counters.connection_opened();
        serve_session(stream, &session_tx, &ack_rx, &shared);
        shared.counters.connection_closed();
    }
}

/// Serves one connection until EOF, protocol violation, or shutdown.
fn serve_session(
    stream: TcpStream,
    session_tx: &Sender<WriterSession>,
    ack_rx: &Receiver<()>,
    shared: &Arc<ServerShared>,
) {
    let _ = stream.set_nodelay(true);
    // Reads time out periodically so the session notices shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let kill_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let _ = writer_stream.set_write_timeout(Some(shared.config.write_stall_timeout));
    // The bounded reply queue: sync reads and async append callbacks all
    // funnel through it to the coalescing writer.
    let (reply_tx, reply_rx) = bounded::<(u64, Reply)>(shared.config.reply_queue_depth.max(1));
    // Handing the write half to the writer mate closes a bounded(1) ring
    // (session out, ack back), but the pair runs in strict lockstep: this
    // thread never sends a second session before draining the previous ack
    // (`ack_rx.recv()` below), so neither queue can be full at a send.
    // `crates/check`'s slow-client model explores this handoff exhaustively.
    if session_tx
        // lint: allow(chan) — session/ack pair alternates in strict lockstep; one session in flight, ack drained before the next send
        .send(WriterSession {
            stream: writer_stream,
            reply_rx,
        })
        .is_err()
    {
        return; // writer mate gone: shutdown in progress
    }
    let session = Arc::new(SessionSender {
        tx: reply_tx,
        kill: kill_stream,
        dead: AtomicBool::new(false),
    });
    let mut reader = std::io::BufReader::new(stream);
    loop {
        let mut frame = shared.pool.get();
        match read_frame_interruptible(&mut reader, &shared.stop, &mut frame) {
            Ok(true) => {}
            Ok(false) | Err(_) => break, // shutdown, EOF, or violation
        }
        shared.counters.frames_rx.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .rx_bytes
            .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
        let (req_id, request) = match decode_request_frame(&frame) {
            Ok(decoded) => decoded,
            Err(_) => break,
        };
        // The decoded request owns its data; return the rx buffer to the
        // pool before dispatching.
        drop(frame);
        handle(shared, req_id, request, &session);
    }
    drop(session);
    // The writer exits once every reply sender — including clones held by
    // pending append callbacks — has dropped, so no durable reply that can
    // still be delivered is abandoned. Its ack bounds the session.
    let _ = ack_rx.recv();
}

/// A persistent writer worker: runs the coalescing writer for each session
/// its reader mate hands over, acking completion in between.
fn writer_worker(
    session_rx: Receiver<WriterSession>,
    ack_tx: Sender<()>,
    shared: Arc<ServerShared>,
) {
    while let Ok(session) = session_rx.recv() {
        run_coalescing_writer(session, &shared);
        // lint: allow(chan) — ack half of the strictly-alternating session/ack ring; the reader drained the previous ack before this session existed
        if ack_tx.send(()).is_err() {
            break;
        }
    }
}

/// Drains the session's reply queue: every ready reply is encoded into one
/// pooled egress buffer and the batch ships in a single socket write.
fn run_coalescing_writer(session: WriterSession, shared: &ServerShared) {
    let WriterSession {
        mut stream,
        reply_rx,
    } = session;
    // recv() returns Err only once the reader and every pending append
    // callback have dropped their senders — the session is over.
    'session: while let Ok((req_id, reply)) = reply_rx.recv() {
        let mut batch = shared.pool.get();
        // An oversized reply cannot be framed for this peer: count it and
        // tear the session down — but only after flushing whatever was
        // already encoded into the batch, so durable replies queued ahead
        // of the bad one still reach the peer. `encode_reply_into` rolls
        // the buffer back on failure, so the batch stays frame-aligned.
        let mut fatal_encode = false;
        let mut encoded = 0u64;
        if encode_reply_into(&mut batch, req_id, &reply).is_err() {
            shared
                .counters
                .encode_failures
                .fetch_add(1, Ordering::Relaxed);
            fatal_encode = true;
        } else {
            encoded = 1;
            while encoded < COALESCE_MAX_REPLIES && batch.len() < COALESCE_MAX_BYTES {
                match reply_rx.try_recv() {
                    Ok((id, next)) => {
                        if encode_reply_into(&mut batch, id, &next).is_err() {
                            shared
                                .counters
                                .encode_failures
                                .fetch_add(1, Ordering::Relaxed);
                            fatal_encode = true;
                            break;
                        }
                        encoded += 1;
                    }
                    Err(_) => break,
                }
            }
        }
        if !batch.is_empty() {
            if stream.write_all(&batch).is_err() {
                break 'session;
            }
            let c = &shared.counters;
            c.writes_issued.fetch_add(1, Ordering::Relaxed);
            c.replies_sent.fetch_add(encoded, Ordering::Relaxed);
            c.replies_coalesced
                .fetch_add(encoded.saturating_sub(1), Ordering::Relaxed);
            c.tx_bytes.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        if fatal_encode {
            break 'session;
        }
    }
    // Kill both halves so a reader blocked mid-frame on this peer notices.
    // Late replies from still-pending append callbacks hit a disconnected
    // queue once `reply_rx` drops here and are discarded: the entry is
    // already durable, the peer is gone.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads one length-prefixed frame into `frame` (a pooled buffer). Read
/// timeouts *between* frames are shutdown-check points (returning
/// `Ok(false)` once `stop` is set); a timeout mid-frame never
/// desynchronizes — partial bytes are retained and the read resumes.
fn read_frame_interruptible(
    reader: &mut impl std::io::Read,
    stop: &AtomicBool,
    frame: &mut Vec<u8>,
) -> std::io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    if !read_full(reader, &mut len_bytes, stop, true)? {
        return Ok(false);
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if !(9..=crate::wire::MAX_FRAME).contains(&len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad frame length",
        ));
    }
    frame.clear();
    frame.resize(len, 0);
    // Mid-frame: ignore the stop flag so framing stays intact.
    read_full(reader, frame, stop, false)?;
    Ok(true)
}

/// Fills `buf`, tolerating timeouts. With `abortable` set, a timeout before
/// the first byte arrives returns `Ok(false)` when `stop` is set.
fn read_full(
    reader: &mut impl std::io::Read,
    buf: &mut [u8],
    stop: &AtomicBool,
    abortable: bool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                if abortable && filled == 0 && stop.load(Ordering::Relaxed) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Queues one **synchronous** reply, shedding (never blocking) when the
/// bounded queue is full — the slow-client policy. Shedding is safe here
/// because the caller blocks with its own request timeout and recovers.
fn deliver(shared: &ServerShared, session: &SessionSender, req_id: u64, reply: Reply) {
    if session.dead.load(Ordering::Relaxed) {
        return; // connection already killed
    }
    match session.tx.try_send((req_id, reply)) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            shared.counters.queue_shed.fetch_add(1, Ordering::Relaxed);
        }
        Err(TrySendError::Disconnected(_)) => {} // session already over
    }
}

/// Queues one **append** reply. Unlike synchronous replies these must never
/// be silently shed on a live connection: the client's append continuation
/// fires only on reply or connection close (no timeout), and pooled clients
/// hold an in-flight window slot until it does — one dropped reply would
/// hang the publisher forever and leak the slot. So on queue-full the
/// batcher blocks for a bounded grace period, and if the writer still has
/// not drained, the connection is killed: the client's reader then fails
/// every pending append at once ("connection closed"), releasing all slots.
/// The `dead` flag makes the grace period a once-per-connection cost.
fn deliver_append(shared: &ServerShared, session: &SessionSender, req_id: u64, reply: Reply) {
    if session.dead.load(Ordering::Relaxed) {
        return; // connection already killed: the client has been failed
    }
    match session.tx.try_send((req_id, reply)) {
        Ok(()) => {}
        Err(TrySendError::Full(item)) => {
            match session
                .tx
                .send_timeout(item, shared.config.append_reply_grace)
            {
                Ok(()) => {}
                Err(SendTimeoutError::Timeout(_)) => {
                    session.dead.store(true, Ordering::Relaxed);
                    shared
                        .counters
                        .slow_client_kills
                        .fetch_add(1, Ordering::Relaxed);
                    // Killing both halves errors the writer's in-flight
                    // write and EOFs the client's reader, which fails all
                    // of the peer's pending callbacks.
                    let _ = session.kill.shutdown(Shutdown::Both);
                }
                Err(SendTimeoutError::Disconnected(_)) => {} // session over
            }
        }
        Err(TrySendError::Disconnected(_)) => {} // session already over
    }
}

/// Dispatches one request; errors become [`Reply::Error`] frames.
fn handle(shared: &Arc<ServerShared>, req_id: u64, request: Request, session: &Arc<SessionSender>) {
    let service = &shared.service;
    let reply = match request {
        Request::Hello => Reply::Hello {
            public_key: service.node_public_key().to_bytes(),
        },
        Request::Append(append) => {
            // Asynchronous: the callback fires at batch flush, on the
            // batcher thread, and routes through the bounded reply queue.
            // All append outcomes — including the synchronous rejection
            // below — go through `deliver_append`: a client blocked on an
            // append must get a reply or a dead connection, never silence.
            let callback_session = Arc::clone(session);
            let callback_shared = Arc::clone(shared);
            let outcome = service.submit_request(
                append,
                Box::new(move |result| {
                    let reply = match result {
                        Ok(response) => Reply::Response(response),
                        Err(message) => Reply::Error(WireError::generic(message)),
                    };
                    deliver_append(&callback_shared, &callback_session, req_id, reply);
                }),
            );
            match outcome {
                Ok(()) => return, // reply comes later
                Err(e) => {
                    let reply = Reply::Error(WireError::from_service_error(&e));
                    deliver_append(shared, session, req_id, reply);
                    return;
                }
            }
        }
        Request::Read(id) => match service.read_entry(id) {
            Ok(response) => Reply::Response(response),
            Err(e) => Reply::Error(WireError::from_service_error(&e)),
        },
        Request::ReadSeq(publisher, sequence) => {
            match service.read_entry_by_sequence(publisher, sequence) {
                Ok(response) => Reply::Response(response),
                Err(e) => Reply::Error(WireError::from_service_error(&e)),
            }
        }
        Request::ReadPosition(log_id) => match service.read_position(log_id) {
            Ok(responses) => Reply::Responses(responses),
            Err(e) => Reply::Error(WireError::from_service_error(&e)),
        },
        Request::ReadMany(ids) => Reply::ManyResults(
            service
                .read_entries(&ids)
                .into_iter()
                .map(|r| r.map_err(|e| WireError::from_service_error(&e)))
                .collect(),
        ),
        Request::Scan {
            log_id,
            start,
            count,
        } => match service.scan(log_id, start, count) {
            Ok((leaves, proof, root)) => Reply::Scan {
                leaves,
                proof,
                root,
            },
            Err(e) => Reply::Error(WireError::from_service_error(&e)),
        },
        Request::Meta { log_id } => {
            // One `meta` call so the three values come from one snapshot.
            let (positions, entries, position_len) = service.meta(log_id);
            Reply::Meta {
                positions,
                entries,
                position_len,
            }
        }
        Request::EpochReport { max_group } => match service.epoch_report(max_group as usize) {
            Ok(group) => Reply::EpochGroup(group),
            Err(e) => Reply::Error(WireError::from_service_error(&e)),
        },
        Request::EpochCommit(commit) => match service.epoch_commit(commit) {
            Ok(newly) => Reply::EpochCommitted { newly },
            Err(e) => Reply::Error(WireError::from_service_error(&e)),
        },
    };
    deliver(shared, session, req_id, reply);
}
