//! Integration coverage for the wire-speed RPC plane: accept-loop latency,
//! one session per connection up to `max_connections`, slow-client
//! shedding on the bounded reply queues, the single-round-trip meta call,
//! structured errors through the full stack, and the reply-release rule
//! (reply ⇒ durable) across a node restart through the TCP path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_core::{AppendRequest, CoreError, EntryId, LocalNode, LogService, NodeConfig, Publisher};
use wedge_crypto::signer::Identity;
use wedge_net::wire::{send_request, Request};
use wedge_net::{NodeServer, RemoteNode, ServerConfig};
use wedge_storage::{StoreConfig, SyncPolicy};

/// A node on a fresh chain and a server in front of it. Bind the pair in
/// this order (`let (w, server) = …`) so the server drops first.
fn net_world(
    tag: &str,
    node_config: NodeConfig,
    server_config: ServerConfig,
) -> (LocalNode, NodeServer) {
    let w = LocalNode::start(&format!("plane-{tag}"), node_config).expect("start node");
    let server =
        NodeServer::bind_with_config("127.0.0.1:0", Arc::clone(w.node()) as _, server_config)
            .expect("bind server");
    (w, server)
}

fn quick_node_config() -> NodeConfig {
    NodeConfig {
        batch_size: 25,
        batch_linger: Duration::from_millis(5),
        ..Default::default()
    }
}

fn publisher(w: &LocalNode, service: Arc<impl LogService + 'static>) -> Publisher {
    Publisher::new(
        w.client_identity.clone(),
        service,
        Arc::clone(&w.chain),
        w.root_record,
        None,
    )
}

fn payloads(n: usize, size: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut p = format!("plane-{i}-").into_bytes();
            p.resize(size.max(p.len()), 0xAB);
            p
        })
        .collect()
}

/// The accept path must serve new connections immediately: the old accept
/// loop slept 10 ms between polls, adding up to 10 ms to every
/// time-to-first-reply. Each connect + hello is timed against a round trip
/// on a connection already open, so a slow host slows both sides alike:
/// the median connect may cost at most 5 ms more than the median round
/// trip.
#[test]
fn connect_handshake_has_no_accept_poll_latency() {
    let (_w, server) = net_world("latency", quick_node_config(), ServerConfig::default());
    let addr = server.local_addr();
    // Also the warm-up (lazy init, first-connection costs).
    let open = RemoteNode::connect(addr).expect("warmup connect");
    let median = |time: &dyn Fn() -> Duration| {
        let mut samples: Vec<Duration> = (0..31).map(|_| time()).collect();
        samples.sort();
        samples[samples.len() / 2]
    };
    let connect = median(&|| {
        let started = Instant::now();
        // Each connect completes a hello round trip, so it observes the
        // full accept-to-first-reply path.
        let remote = RemoteNode::connect(addr).expect("connect");
        let elapsed = started.elapsed();
        drop(remote);
        elapsed
    });
    let round_trip = median(&|| {
        let started = Instant::now();
        open.positions();
        started.elapsed()
    });
    assert!(
        connect < round_trip + Duration::from_millis(5),
        "median connect {connect:?} against a {round_trip:?} round trip: \
         the accept path is adding poll latency"
    );
    assert_eq!(server.stats().connections_shed, 0);
}

/// A client that stops draining its socket must not grow node memory: its
/// bounded reply queue fills, further replies are shed (counted), and a
/// healthy connection beside it is unaffected.
#[test]
fn slow_client_sheds_replies_without_hurting_others() {
    let server_config = ServerConfig {
        reply_queue_depth: 4,
        write_stall_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let (w, server) = net_world("shed", quick_node_config(), server_config);
    let addr = server.local_addr();
    // Publish through a second, default-config server over the same node:
    // burst append replies would overrun the depth-4 queue under test. Fat
    // payloads make reply frames fill the socket buffers quickly.
    let side_server =
        NodeServer::bind("127.0.0.1:0", Arc::clone(w.node()) as _).expect("bind side server");
    {
        let remote = Arc::new(RemoteNode::connect(side_server.local_addr()).expect("connect side"));
        let mut p = publisher(&w, remote);
        p.append_batch(payloads(32, 8 * 1024)).expect("append");
    }

    // The slow client: floods Read requests, never drains a single reply.
    // How many replies the loopback buffers swallow is the host's business
    // (megabytes on some kernels), so flood until the first shed instead of
    // a fixed count: the writer stalls once the kernel buffers fill, and the
    // bounded queue (depth 4) then sheds. The flood stays a few hundred
    // requests ahead of the server's reader (this is the only connection
    // to `server`), so its own sends never block on unread requests.
    let mut slow = std::net::TcpStream::connect(addr).expect("raw connect");
    let target = EntryId {
        log_id: 0,
        offset: 0,
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut sent = 0u64;
    loop {
        let stats = server.stats();
        if stats.queue_shed > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no shed observed after {sent} reads: {stats:?}"
        );
        if sent >= stats.frames_rx + 256 {
            std::thread::sleep(Duration::from_millis(1));
        } else if send_request(&mut slow, sent, &Request::Read(target)).is_ok() {
            sent += 1;
        } else {
            break; // the server gave up on the stalled session
        }
    }
    // Node memory is bounded: at most queue-depth replies are parked for
    // the slow session; everything else was dropped, not buffered.
    let stats = server.stats();
    assert!(stats.queue_shed > 0);

    // A healthy client on another connection still gets served.
    let healthy =
        RemoteNode::connect_with_timeout(addr, Duration::from_secs(5)).expect("healthy connect");
    let response = healthy.read_entry(target).expect("healthy read");
    response
        .verify(&w.node().public_key())
        .expect("verified read while peer is stalled");
    drop(healthy);
    // Unblock the stalled writer so server shutdown is prompt.
    let _ = slow.shutdown(std::net::Shutdown::Both);
}

/// An append reply that cannot be queued must kill the connection, not be
/// silently shed: the client's append continuation fires only on reply or
/// connection close, so a shed reply on a live connection would hang the
/// publisher forever. The kill fails every
/// pending append on the peer at once; other connections are unaffected.
#[test]
fn undeliverable_append_reply_kills_connection_instead_of_hanging() {
    let server_config = ServerConfig {
        reply_queue_depth: 2,
        append_reply_grace: Duration::from_millis(100),
        write_stall_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let (w, server) = net_world("appendkill", quick_node_config(), server_config);
    let addr = server.local_addr();
    // A raw publisher that floods signed appends and never reads a single
    // reply: the kernel buffers fill, the depth-2 reply queue fills, and
    // the next undeliverable append reply must kill the connection.
    let key = *w.client_identity.secret_key();
    let mut slow = std::net::TcpStream::connect(addr).expect("raw connect");
    for seq in 0..600u64 {
        let request = AppendRequest::new(&key, seq, vec![0xCD; 16 * 1024]);
        // On slow machines the server may kill the connection before the
        // flood finishes; a send error (broken pipe / reset) is the kill
        // arriving early, which is exactly the behaviour under test.
        if send_request(&mut slow, seq + 1, &Request::Append(request)).is_err() {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().slow_client_kills == 0 {
        assert!(
            Instant::now() < deadline,
            "append flood never killed the connection: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // A healthy client is unaffected by the dead peer.
    let healthy =
        RemoteNode::connect_with_timeout(addr, Duration::from_secs(5)).expect("healthy connect");
    assert_eq!(healthy.entries(), w.node().entry_count());
    drop(healthy);
    let _ = slow.shutdown(std::net::Shutdown::Both);
}

/// A stopped server lets go of its node even while appends it forwarded
/// still await their replies. Their callbacks once held the node through
/// the server's shared state: a deployment dropped right after the server
/// of a killed connection then could not shut its node down, removed the
/// node's directory while the node still ran, and the node's final
/// checkpoint — written once the last callback let go — put
/// `checkpoints/` back in the temp directory.
#[test]
fn a_stopped_server_lets_go_of_the_node_while_appends_await_replies() {
    let server_config = ServerConfig {
        reply_queue_depth: 2,
        append_reply_grace: Duration::from_millis(100),
        write_stall_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    // Full batches flush at once, and their unread replies get the flooding
    // connection killed; the partial batch the flood ends on waits out the
    // linger, its replies pending.
    let node_config = NodeConfig {
        batch_size: 25,
        batch_linger: Duration::from_secs(60),
        ..Default::default()
    };
    let (mut w, server) = net_world("release", node_config, server_config);
    let key = *w.client_identity.secret_key();
    let mut slow = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    for seq in 0..601u64 {
        let request = AppendRequest::new(&key, seq, vec![0xEF; 16 * 1024]);
        if send_request(&mut slow, seq + 1, &Request::Append(request)).is_err() {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().slow_client_kills == 0 {
        assert!(Instant::now() < deadline, "the flood was never killed");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(slow);
    drop(server);
    w.shutdown()
        .expect("the stopped server still holds the node through pending appends");
}

/// `meta()` costs one frame, and `positions()`/`entries()` each make a
/// fresh Meta round trip, so they see an append made on another
/// connection right after it is replied to.
#[test]
fn meta_pair_is_one_round_trip() {
    let (w, server) = net_world("metapair", quick_node_config(), ServerConfig::default());
    let writer = Arc::new(RemoteNode::connect(server.local_addr()).expect("connect"));
    let mut p = publisher(&w, Arc::clone(&writer));
    p.append_batch(payloads(50, 64)).expect("append");
    let remote = RemoteNode::connect(server.local_addr()).expect("fresh connect");
    let base = server.stats().frames_rx;
    let (positions, entries, position_len) = remote.meta(0);
    assert_eq!(positions, w.node().log_positions());
    assert_eq!(entries, w.node().entry_count());
    assert_eq!(position_len, w.node().read_log_position_len(0));
    assert_eq!(
        server.stats().frames_rx - base,
        1,
        "the positions/entries/length triple must share one Meta RPC"
    );
    for round in 1..4 {
        p.append_batch(payloads(25, 64)).expect("append");
        assert_eq!(
            remote.positions(),
            w.node().log_positions(),
            "round {round}: positions stale after an append"
        );
        assert_eq!(
            remote.entries(),
            w.node().entry_count(),
            "round {round}: entries stale after an append"
        );
    }
}

/// Not-found errors must carry the real `EntryId` across the wire instead
/// of the historical `u64::MAX` sentinel fabricated by string matching.
#[test]
fn entry_not_found_carries_real_id_over_tcp() {
    let (_w, server) = net_world("notfound", quick_node_config(), ServerConfig::default());
    let remote = RemoteNode::connect(server.local_addr()).expect("connect");
    let missing = EntryId {
        log_id: 7,
        offset: 3,
    };
    match remote.read_entry(missing) {
        Err(CoreError::EntryNotFound(id)) => {
            assert_eq!(id, missing, "sentinel id leaked through the wire");
        }
        other => panic!("expected EntryNotFound, got {other:?}"),
    }
}

/// A missing `(publisher, sequence)` fails over TCP exactly as it does in
/// process: the same variant with the same fields, not remote text.
#[test]
fn sequence_not_found_carries_publisher_and_sequence_over_tcp() {
    let (w, server) = net_world("seqmissing", quick_node_config(), ServerConfig::default());
    let remote = RemoteNode::connect(server.local_addr()).expect("connect");
    let publisher = w.client_identity.address();
    let local = w.node().read_entry_by_sequence(publisher, 99);
    assert!(
        matches!(
            local,
            Err(CoreError::SequenceNotFound { publisher: p, sequence: 99 }) if p == publisher
        ),
        "in process: {local:?}"
    );
    match remote.read_entry_by_sequence(publisher, 99) {
        Err(CoreError::SequenceNotFound {
            publisher: got,
            sequence,
        }) => {
            assert_eq!(got, publisher);
            assert_eq!(sequence, 99);
        }
        other => panic!("expected SequenceNotFound over TCP, got {other:?}"),
    }
}

/// A default server serves every connection at once: 20 clients, held
/// open together, each complete a verified read. Frame buffers recycle
/// across the connections.
#[test]
fn every_connection_is_served_at_once() {
    let (w, server) = net_world("manyconns", quick_node_config(), ServerConfig::default());
    let addr = server.local_addr();
    {
        let remote = Arc::new(RemoteNode::connect(addr).expect("connect"));
        let mut p = publisher(&w, remote);
        p.append_batch(payloads(40, 64)).expect("append");
    }
    let clients: Vec<RemoteNode> = (0..20)
        .map(|i| {
            RemoteNode::connect_with_timeout(addr, Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("client {i} not served: {e}"))
        })
        .collect();
    let node_key = w.node().public_key();
    std::thread::scope(|scope| {
        for (i, client) in clients.iter().enumerate() {
            scope.spawn(move || {
                let id = EntryId {
                    log_id: 0,
                    offset: i as u32 % 25,
                };
                let response = client
                    .read_entry(id)
                    .unwrap_or_else(|e| panic!("client {i}: {e}"));
                assert_eq!(response.entry_id, id);
                response
                    .verify(&node_key)
                    .unwrap_or_else(|e| panic!("client {i}: {e}"));
            });
        }
    });
    let stats = server.stats();
    assert!(stats.peak_connections >= 20, "stats: {stats:?}");
    assert_eq!(stats.connections_shed, 0, "stats: {stats:?}");
    assert!(
        stats.buffer_pool_hits > 0,
        "rx/tx frame buffers never recycled: {stats:?}"
    );
    drop(clients);
}

/// Beyond `max_connections` live sessions the accept loop sheds: the extra
/// client sees its socket closed, and once a session ends a new client is
/// served again.
#[test]
fn connections_beyond_max_connections_are_shed() {
    let server_config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let (_w, server) = net_world("maxconns", quick_node_config(), server_config);
    let addr = server.local_addr();
    let first = RemoteNode::connect(addr).expect("first connect");
    let second = RemoteNode::connect(addr).expect("second connect");

    let mut third = std::net::TcpStream::connect(addr).expect("raw connect");
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut byte = [0u8; 1];
    match std::io::Read::read(&mut third, &mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("third connection was not shed: {other:?}"),
    }
    assert_eq!(server.stats().connections_shed, 1);
    assert_eq!(second.entries(), 0, "live sessions unaffected");

    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().active_connections > 1 {
        assert!(Instant::now() < deadline, "{:?}", server.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
    let fourth = RemoteNode::connect(addr).expect("served once a slot frees");
    assert_eq!(fourth.entries(), 0);
    let stats = server.stats();
    assert_eq!(stats.connections_shed, 1, "stats: {stats:?}");
    assert_eq!(stats.peak_connections, 2, "stats: {stats:?}");
}

/// The reply-release rule survives the coalescing writer: every entry a
/// group-commit node replied to **through TCP** must still be there after
/// a restart — the coalescing writer may delay or shed replies but never
/// releases one before durability.
#[test]
fn replied_entries_survive_restart_through_tcp() {
    let group_commit = NodeConfig {
        batch_size: 8,
        batch_linger: Duration::from_millis(5),
        verify_requests: false,
        replicas: 2,
        replica_link_delay: Duration::from_micros(100),
        store: StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 4,
                max_delay: Duration::from_millis(50),
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let total = 64usize;
    let (mut w, server) = net_world("restart", group_commit.clone(), ServerConfig::default());
    {
        let remote = Arc::new(RemoteNode::connect(server.local_addr()).expect("connect"));
        let mut p = publisher(&w, remote);
        // append_batch returns only once every reply crossed the wire —
        // i.e. once the node promised durability for all entries.
        p.append_batch(payloads(total, 64)).expect("append");
        w.node()
            .wait_stage2_idle(Duration::from_secs(3600))
            .expect("stage2 idle");
    }
    // Tear down the whole serving stack, then restart over the same dir.
    drop(server);
    w.restart(group_commit).expect("restart node");
    assert_eq!(
        w.node().entry_count(),
        total as u64,
        "replied entries lost across restart: reply-release rule broken"
    );
}

/// One bad signature among 2,000 requests over TCP costs exactly one
/// rejection. The first batches are first contact (full recovery); the bad
/// request arrives once both publishers' keys are remembered, so it takes
/// the hostile path — cached check rejects, full recovery confirms — and
/// every neighbour in its batch is still accepted from the cache.
#[test]
fn one_bad_signature_among_two_thousand_rejects_only_itself() {
    let total = 2_000usize;
    let bad = 1_234usize;
    let config = NodeConfig {
        batch_size: 250,
        batch_linger: Duration::from_millis(20),
        ..Default::default()
    };
    let (w, server) = net_world("hostile", config, ServerConfig::default());
    let other = Identity::from_seed(b"plane-client-hostile-2");
    let publishers = [&w.client_identity, &other];
    let mut requests: Vec<AppendRequest> = (0..total)
        .map(|i| {
            let key = publishers[i % 2].secret_key();
            AppendRequest::new(key, (i / 2) as u64, format!("hostile-{i}").into_bytes())
        })
        .collect();
    requests[bad].payload.push(b'!'); // damaged after signing

    let remote = RemoteNode::connect(server.local_addr()).expect("connect");
    remote.set_buffered_appends(true);
    let (tx, rx) = crossbeam::channel::unbounded();
    for (i, request) in requests.iter().enumerate() {
        let tx = tx.clone();
        remote
            .submit_request(
                request.clone(),
                Box::new(move |outcome| {
                    let _ = tx.send((i, outcome));
                }),
            )
            .expect("submit");
    }
    remote.flush();

    let node_key = w.node().public_key();
    let mut placed = std::collections::BTreeSet::new();
    for _ in 0..total {
        let (i, outcome) = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("every request gets a reply");
        if i == bad {
            let error = outcome.expect_err("the damaged request must be refused");
            assert!(error.contains("invalid request signature"), "{error}");
        } else {
            let response = outcome.unwrap_or_else(|e| panic!("request {i} refused: {e}"));
            response
                .verify_for_request(&node_key, &requests[i])
                .unwrap_or_else(|e| panic!("reply {i}: {e}"));
            assert!(placed.insert(response.entry_id), "position reused");
        }
    }

    // Log positions and offsets stay dense: the rejected request left no gap.
    let positions = w.node().log_positions();
    let mut expect = std::collections::BTreeSet::new();
    for log_id in 0..positions {
        let count = w
            .node()
            .read_log_position_len(log_id)
            .expect("dense positions");
        expect.extend((0..count).map(|offset| EntryId { log_id, offset }));
    }
    assert_eq!(placed, expect);
    assert_eq!(w.node().entry_count(), total as u64 - 1);

    let stats = w.node().stats();
    assert_eq!(stats.requests_rejected, 1, "{stats:?}");
    assert_eq!(stats.entries_ingested, total as u64 - 1);
    assert_eq!(
        stats.requests_verified_cached + stats.requests_verified_recovered,
        total as u64
    );
    assert!(
        stats.requests_verified_cached >= (total - bad) as u64 - 1,
        "remembered keys unused: {stats:?}"
    );
}

/// The node signs once per batch, not once per reply: 2,000 appends over TCP
/// in one 2,000-entry batch cost exactly one node ECDSA signature, every
/// reply still verifies on its own against the request that caused it, and
/// a whole-position read or a grouped read adds one signature each.
#[test]
fn two_thousand_replies_cost_one_node_signature() {
    let total = 2_000usize;
    let config = NodeConfig {
        batch_size: total,
        batch_linger: Duration::from_secs(5),
        ..Default::default()
    };
    let (w, server) = net_world("onesig", config, ServerConfig::default());
    let requests: Vec<AppendRequest> = (0..total)
        .map(|i| {
            let key = w.client_identity.secret_key();
            AppendRequest::new(key, i as u64, format!("onesig-{i}").into_bytes())
        })
        .collect();

    let remote = RemoteNode::connect(server.local_addr()).expect("connect");
    remote.set_buffered_appends(true);
    let (tx, rx) = crossbeam::channel::unbounded();
    for (i, request) in requests.iter().enumerate() {
        let tx = tx.clone();
        remote
            .submit_request(
                request.clone(),
                Box::new(move |outcome| {
                    let _ = tx.send((i, outcome));
                }),
            )
            .expect("submit");
    }
    remote.flush();

    let node_key = w.node().public_key();
    let mut signatures = std::collections::BTreeSet::new();
    for _ in 0..total {
        let (i, outcome) = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("every request gets a reply");
        let response = outcome.unwrap_or_else(|e| panic!("request {i} refused: {e}"));
        response
            .verify_for_request(&node_key, &requests[i])
            .unwrap_or_else(|e| panic!("reply {i}: {e}"));
        assert_eq!(response.attestation.leaf_count, total as u64);
        // At most ⌈log₂ 2,000⌉ nodes (odd nodes are promoted, not paired).
        assert!(response.attestation.path.len() <= 11);
        signatures.insert(response.signature.to_bytes().to_vec());
    }
    assert_eq!(signatures.len(), 1, "one signature shared by the batch");
    let stats = w.node().stats();
    assert_eq!(stats.batches_flushed, 1, "{stats:?}");
    assert_eq!(stats.attestations_signed, stats.batches_flushed);

    // Reads sign once per call, never once per entry.
    let position = remote.read_position(0).expect("read position");
    assert_eq!(position.len(), total);
    assert_eq!(w.node().stats().attestations_signed, 2);
    let ids: Vec<EntryId> = (0..50)
        .map(|i| EntryId {
            log_id: if i == 7 { 9 } else { 0 }, // one miss among the hits
            offset: i * 13,
        })
        .collect();
    let many = remote.read_entries(&ids);
    assert_eq!(w.node().stats().attestations_signed, 3);
    for (i, (id, result)) in ids.iter().zip(&many).enumerate() {
        match result {
            Ok(response) => {
                assert_eq!(response.entry_id, *id);
                response.verify(&node_key).expect("grouped read verifies");
            }
            Err(e) => assert!(i == 7, "entry {i}: {e}"),
        }
    }
    assert!(many[7].is_err());
    for response in position.iter().step_by(97) {
        response.verify(&node_key).expect("position read verifies");
    }
    remote.read_entry(ids[0]).expect("single read");
    assert_eq!(w.node().stats().attestations_signed, 4);
}
