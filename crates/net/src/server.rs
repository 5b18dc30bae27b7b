//! The node-side TCP server: one reader and one coalescing writer per
//! connection, with pooled frame buffers.
//!
//! Topology: one blocking accept thread spawns a session thread per
//! accepted connection, up to [`ServerConfig::max_connections`] live
//! sessions (beyond that it sheds, [`NetStats::connections_shed`]). The
//! session thread spawns its connection's writer, parses request frames
//! into pooled buffers and dispatches them; all replies — synchronous reads
//! and asynchronous append callbacks alike — go through a **bounded**
//! per-session reply queue to that coalescing writer, which drains every
//! ready reply into one pooled egress buffer and ships the batch in a
//! single socket write. When a client stops draining and its queue stays
//! full, synchronous replies are shed ([`NetStats::queue_shed`]) instead of
//! growing node memory, while an undeliverable **append** reply kills the
//! connection after a bounded grace period ([`NetStats::slow_client_kills`])
//! — append callers block without a timeout, so they must see a reply or a
//! dead socket, never silence. Other connections are unaffected.
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
    /// Connections served at once. Each costs two threads (reader and
    /// writer); a connection accepted while this many are live is shed.
    pub max_connections: usize,
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
    /// connection instead of holding its threads hostage.
    pub write_stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 128,
            reply_queue_depth: 1024,
            append_reply_grace: Duration::from_millis(250),
            write_stall_timeout: Duration::from_secs(10),
        }
    }
}

/// State shared by the accept loop, the sessions, the handle and every
/// pending append callback. The service is not part of it: the sessions
/// hold it, so a stopped server lets go of the service even while the
/// service still holds callbacks of appends it has not replied to.
struct ServerShared {
    stop: AtomicBool,
    counters: NetCounters,
    pool: BufferPool,
    config: ServerConfig,
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
    /// Returns the sessions still live when it exits.
    accept_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
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
            stop: AtomicBool::new(false),
            counters: NetCounters::default(),
            pool: BufferPool::new(POOL_MAX_BUFFERS, POOL_MAX_RETAINED),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("wedge-net-accept".into())
            .spawn(move || accept_loop(accept_listener, accept_shared, service))?;
        Ok(NodeServer {
            local_addr,
            listener,
            shared,
            accept_thread: Some(accept_thread),
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
            // still be parked, and joining it (or the sessions it holds)
            // could hang forever. Detach instead — the threads die with the
            // process; a wedged Drop would take the caller with them.
            self.accept_thread.take();
            return;
        }
        let Some(accept) = self.accept_thread.take() else {
            return;
        };
        // Each session joins its own writer before it finishes.
        for session in accept.join().unwrap_or_default() {
            let _ = session.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections and gives each its own session thread, shedding
/// when [`ServerConfig::max_connections`] sessions are live. Blocking
/// accept: no sleep-poll, so connection establishment costs no added
/// latency. Returns the handles of the sessions still running at exit.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    service: Arc<dyn LogService>,
) -> Vec<JoinHandle<()>> {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    let mut next = 0u64;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.stop.load(Ordering::Relaxed) {
                    break; // the shutdown wake-up connection
                }
                let c = &shared.counters;
                c.connections_accepted.fetch_add(1, Ordering::Relaxed);
                sessions.retain(|session| !session.is_finished());
                if c.active_connections.load(Ordering::Relaxed) as usize
                    >= shared.config.max_connections
                {
                    // Every session slot taken: shed. The client sees EOF
                    // and can retry.
                    c.connections_shed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                c.connection_opened();
                let session_shared = Arc::clone(&shared);
                let session_service = Arc::clone(&service);
                let spawned = std::thread::Builder::new()
                    .name(format!("wedge-net-conn-{next}"))
                    .spawn(move || {
                        serve_session(stream, next, &session_shared, &*session_service);
                        session_shared.counters.connection_closed();
                    });
                next += 1;
                match spawned {
                    Ok(session) => sessions.push(session),
                    Err(_) => {
                        c.connection_closed();
                        c.connections_shed.fetch_add(1, Ordering::Relaxed);
                    }
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
    sessions
}

/// Serves one connection until EOF, protocol violation, or shutdown.
fn serve_session(stream: TcpStream, n: u64, shared: &Arc<ServerShared>, service: &dyn LogService) {
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
    let writer_shared = Arc::clone(shared);
    let writer = match std::thread::Builder::new()
        .name(format!("wedge-net-writer-{n}"))
        .spawn(move || run_coalescing_writer(writer_stream, reply_rx, &writer_shared))
    {
        Ok(writer) => writer,
        Err(_) => return,
    };
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
        handle(shared, service, req_id, request, &session);
    }
    drop(session);
    // The writer exits once every reply sender — including clones held by
    // pending append callbacks — has dropped, so no durable reply that can
    // still be delivered is abandoned.
    let _ = writer.join();
}

/// Drains the session's reply queue: every ready reply is encoded into one
/// pooled egress buffer and the batch ships in a single socket write.
fn run_coalescing_writer(
    mut stream: TcpStream,
    reply_rx: Receiver<(u64, Reply)>,
    shared: &ServerShared,
) {
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
/// fires only on reply or connection close (no timeout), so one dropped
/// reply would hang the publisher forever. So on queue-full the batcher
/// blocks for a bounded grace period, and if the writer still has not
/// drained, the connection is killed: the client's reader then fails every
/// pending append at once ("connection closed").
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
fn handle(
    shared: &Arc<ServerShared>,
    service: &dyn LogService,
    req_id: u64,
    request: Request,
    session: &Arc<SessionSender>,
) {
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
