//! RPC-plane metrics, surfaced from [`crate::NodeServer`] the way
//! `NodeStats` is from the node.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters shared by the accept loop, the session readers, and
/// their coalescing writers. Snapshot with [`NetCounters::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct NetCounters {
    pub connections_accepted: AtomicU64,
    pub connections_shed: AtomicU64,
    pub active_connections: AtomicU64,
    pub peak_connections: AtomicU64,
    pub frames_rx: AtomicU64,
    pub rx_bytes: AtomicU64,
    pub tx_bytes: AtomicU64,
    pub replies_sent: AtomicU64,
    pub replies_coalesced: AtomicU64,
    pub writes_issued: AtomicU64,
    pub queue_shed: AtomicU64,
    pub slow_client_kills: AtomicU64,
    pub encode_failures: AtomicU64,
}

impl NetCounters {
    /// Registers a newly served connection, maintaining the peak.
    pub(crate) fn connection_opened(&self) {
        let now = self.active_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(now, Ordering::Relaxed);
    }

    /// Registers a finished connection.
    pub(crate) fn connection_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Copies every counter into an owned snapshot, folding in the buffer
    /// pool's hit/miss counts.
    pub(crate) fn snapshot(&self, pool: &crate::buffer::BufferPool) -> NetStats {
        NetStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            replies_sent: self.replies_sent.load(Ordering::Relaxed),
            replies_coalesced: self.replies_coalesced.load(Ordering::Relaxed),
            writes_issued: self.writes_issued.load(Ordering::Relaxed),
            queue_shed: self.queue_shed.load(Ordering::Relaxed),
            slow_client_kills: self.slow_client_kills.load(Ordering::Relaxed),
            encode_failures: self.encode_failures.load(Ordering::Relaxed),
            buffer_pool_hits: pool.hits(),
            buffer_pool_misses: pool.misses(),
        }
    }
}

/// A point-in-time snapshot of the server's RPC-plane counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted by the listener.
    pub connections_accepted: u64,
    /// Accepted connections shed because `ServerConfig::max_connections`
    /// sessions were already live.
    pub connections_shed: u64,
    /// Connections currently being served.
    pub active_connections: u64,
    /// High-water mark of concurrently served connections.
    pub peak_connections: u64,
    /// Request frames received (all kinds).
    pub frames_rx: u64,
    /// Bytes received, including frame headers.
    pub rx_bytes: u64,
    /// Bytes written, including frame headers.
    pub tx_bytes: u64,
    /// Reply frames written to sockets.
    pub replies_sent: u64,
    /// Replies that shared a socket write with a predecessor — for each
    /// coalesced batch of `n` replies, `n - 1` are counted here.
    pub replies_coalesced: u64,
    /// Socket writes issued by the coalescing writers. Under load this is
    /// strictly less than `replies_sent`.
    pub writes_issued: u64,
    /// Synchronous replies dropped because a connection's bounded reply
    /// queue was full (the slow-client shedding policy). Append replies are
    /// never counted here: an undeliverable append reply kills the
    /// connection instead ([`NetStats::slow_client_kills`]).
    pub queue_shed: u64,
    /// Connections killed because an append reply could not be queued
    /// within the grace period. Append replies must never be silently shed
    /// on a live connection — the client blocks on them with no timeout —
    /// so the server fails the whole connection, which fails every pending append on the
    /// client at once.
    pub slow_client_kills: u64,
    /// Replies dropped because they failed to encode (oversized frame).
    /// The connection is torn down afterwards, but replies already encoded
    /// into the same batch are flushed first.
    pub encode_failures: u64,
    /// Frame-buffer acquisitions served from the pool.
    pub buffer_pool_hits: u64,
    /// Frame-buffer acquisitions that had to allocate.
    pub buffer_pool_misses: u64,
}

impl NetStats {
    /// Fraction of buffer acquisitions served from the pool, in `[0, 1]`.
    pub fn buffer_pool_hit_rate(&self) -> f64 {
        let total = self.buffer_pool_hits + self.buffer_pool_misses;
        if total == 0 {
            return 0.0;
        }
        self.buffer_pool_hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut s = NetStats::default();
        assert_eq!(s.buffer_pool_hit_rate(), 0.0);
        s.buffer_pool_hits = 3;
        s.buffer_pool_misses = 1;
        assert!((s.buffer_pool_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let c = NetCounters::default();
        c.connection_opened();
        c.connection_opened();
        c.connection_closed();
        c.connection_opened();
        let pool = crate::buffer::BufferPool::new(0, 0);
        let snap = c.snapshot(&pool);
        assert_eq!(snap.active_connections, 2);
        assert_eq!(snap.peak_connections, 2);
    }
}
