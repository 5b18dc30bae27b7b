//! Batch replication to follower stores.
//!
//! The paper's Figure 3/5 "replicated" curves forward each received batch to
//! two other machines before (or while) building the Merkle tree, for a
//! stronger liveness guarantee (§4.7). Here each replica is a thread owning
//! its own [`LogStore`]; the primary fans batches out over channels and can
//! either wait for acknowledgements (synchronous replication) or continue
//! immediately.
//!
//! A batch travels already framed: every replica receives the same
//! `Arc<Vec<Frames>>` the primary writes and appends it as-is, computing no
//! CRC and copying no record, so the three stores hold byte-identical
//! segment files.
//!
//! A replica whose append or fsync failed may lack that batch, or hold a
//! sealed prefix of it; every later batch would sit behind that hole. So
//! from its first failure until it is reopened it refuses every batch, and
//! the primary sees the shortfall on each one instead of counting a copy
//! with a hole in it as durable.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};

use crate::error::StorageError;
use crate::segment::Frames;
use crate::store::{LogStore, StoreConfig};

/// A batch of unframed payloads, as [`Replicator::replicate_begin`] takes it.
pub type Batch = Arc<Vec<Vec<u8>>>;

/// In-flight replication started by [`Replicator::replicate_frames`].
///
/// The sends have already been handed to every replica; [`wait`] collects
/// the acknowledgements. Dropping the handle abandons the wait without
/// cancelling the sends (the replicas still apply the batch).
///
/// [`wait`]: ReplicationHandle::wait
#[must_use = "dropping the handle abandons the acknowledgements"]
pub struct ReplicationHandle {
    acks: Vec<Receiver<Result<(), String>>>,
}

impl ReplicationHandle {
    /// Blocks until every replica has acknowledged (or hung up); returns
    /// the number that confirmed the write. A confirmed write has been
    /// fsynced on that replica.
    pub fn wait(self) -> usize {
        self.acks
            .into_iter()
            .filter(|rx| matches!(rx.recv(), Ok(Ok(()))))
            .count()
    }

    /// Replicas the batch was handed to (upper bound on [`wait`]'s result).
    ///
    /// [`wait`]: ReplicationHandle::wait
    pub fn expected(&self) -> usize {
        self.acks.len()
    }
}

enum Command {
    Replicate {
        batch: Arc<Vec<Frames>>,
        ack: Sender<Result<(), String>>,
    },
    Shutdown,
}

/// Handle to one replica thread.
struct Replica {
    commands: Sender<Command>,
    handle: Option<JoinHandle<()>>,
    /// The store the thread writes, for tests to read its sync counters.
    #[cfg(test)]
    store: Arc<LogStore>,
}

/// Fans append batches out to `n` follower stores.
pub struct Replicator {
    replicas: Vec<Replica>,
    /// Simulated per-batch link delay applied by each replica before
    /// acknowledging (models the network the paper's prototype crossed).
    link_delay: Duration,
}

impl Replicator {
    /// Spawns `n` replica threads, each with a store under
    /// `base_dir/replica-<i>`.
    pub fn spawn(
        base_dir: impl Into<PathBuf>,
        n: usize,
        config: StoreConfig,
        link_delay: Duration,
    ) -> Result<Replicator, StorageError> {
        let base_dir = base_dir.into();
        let mut replicas = Vec::with_capacity(n);
        for i in 0..n {
            let dir = base_dir.join(format!("replica-{i}"));
            let store = Arc::new(LogStore::open(&dir, config.clone())?);
            let served = Arc::clone(&store);
            let (tx, rx): (Sender<Command>, Receiver<Command>) = bounded(16);
            let handle = std::thread::Builder::new()
                .name(format!("wedge-replica-{i}"))
                .spawn(move || {
                    // The first failure, refused with every later batch.
                    let mut failed: Option<String> = None;
                    while let Ok(cmd) = rx.recv() {
                        match cmd {
                            Command::Replicate { batch, ack } => {
                                if !link_delay.is_zero() {
                                    std::thread::sleep(link_delay);
                                }
                                // An ack counts as a durable copy, so it
                                // waits for an fsync covering the batch.
                                // Directly: no neighbouring batch can arrive
                                // to share it while the primary waits.
                                let result = match &failed {
                                    Some(first) => {
                                        Err(format!("replica lost an earlier batch: {first}"))
                                    }
                                    None => served
                                        .append_frames(&batch)
                                        .and_then(|_| served.sync_pending())
                                        .map_err(|e| e.to_string()),
                                };
                                if let (None, Err(e)) = (&failed, &result) {
                                    failed = Some(e.clone());
                                }
                                let _ = ack.send(result);
                            }
                            Command::Shutdown => break,
                        }
                    }
                })?;
            replicas.push(Replica {
                commands: tx,
                handle: Some(handle),
                #[cfg(test)]
                store,
            });
        }
        Ok(Replicator {
            replicas,
            link_delay,
        })
    }

    /// Ships a framed batch to every replica and returns immediately with
    /// a [`ReplicationHandle`] for collecting the acknowledgements later.
    /// Every replica appends the shared frames as-is
    /// ([`LogStore::append_frames`]).
    ///
    /// This is the overlap primitive: the caller can run its local append
    /// of the same frames + fsync while the replicas work, then `wait`,
    /// paying max(local, replication) instead of the sum.
    pub fn replicate_frames(&self, batch: Arc<Vec<Frames>>) -> ReplicationHandle {
        let mut acks = Vec::with_capacity(self.replicas.len());
        for replica in &self.replicas {
            let (ack_tx, ack_rx) = bounded(1);
            if replica
                .commands
                .send(Command::Replicate {
                    batch: batch.clone(),
                    ack: ack_tx,
                })
                .is_ok()
            {
                acks.push(ack_rx);
            }
        }
        ReplicationHandle { acks }
    }

    /// Frames `batch` once and ships it as [`Replicator::replicate_frames`]
    /// does.
    pub fn replicate_begin(&self, batch: Batch) -> ReplicationHandle {
        self.replicate_frames(Arc::new(vec![Frames::from_payloads(&batch[..])]))
    }

    /// Ships a batch to every replica and waits for all acknowledgements.
    ///
    /// Returns the number of replicas that confirmed the write.
    pub fn replicate_sync(&self, batch: Vec<Vec<u8>>) -> usize {
        self.replicate_begin(Arc::new(batch)).wait()
    }

    /// Ships a batch without waiting for acknowledgements (lazy fan-out).
    pub fn replicate_async(&self, batch: Vec<Vec<u8>>) {
        drop(self.replicate_begin(Arc::new(batch)));
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Fault injection: stops replica `idx`'s thread (it stops acking).
    /// Subsequent `replicate_sync` calls report the shortfall.
    pub fn stop_replica(&self, idx: usize) {
        if let Some(replica) = self.replicas.get(idx) {
            let _ = replica.commands.send(Command::Shutdown);
        }
    }

    /// The configured link delay.
    pub fn link_delay(&self) -> Duration {
        self.link_delay
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        for replica in &self.replicas {
            let _ = replica.commands.send(Command::Shutdown);
        }
        for replica in &mut self.replicas {
            if let Some(handle) = replica.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyncPolicy;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wedge-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sync_replication_acks_all() {
        let dir = tempdir("sync");
        let repl = Replicator::spawn(&dir, 2, StoreConfig::default(), Duration::ZERO).unwrap();
        let acked = repl.replicate_sync(vec![b"r0".to_vec(), b"r1".to_vec()]);
        assert_eq!(acked, 2);
        drop(repl);
        // Each replica persisted the batch.
        for i in 0..2 {
            let store =
                LogStore::open(dir.join(format!("replica-{i}")), StoreConfig::default()).unwrap();
            assert_eq!(store.len(), 2);
            assert_eq!(store.read(1).unwrap(), b"r1");
        }
    }

    #[test]
    fn async_replication_eventually_lands() {
        let dir = tempdir("async");
        let repl = Replicator::spawn(&dir, 1, StoreConfig::default(), Duration::ZERO).unwrap();
        repl.replicate_async(vec![b"lazy".to_vec()]);
        drop(repl); // drop joins threads, draining the queue
        let store = LogStore::open(dir.join("replica-0"), StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn begin_then_wait_overlaps_with_local_work() {
        let dir = tempdir("begin");
        let repl =
            Replicator::spawn(&dir, 2, StoreConfig::default(), Duration::from_millis(5)).unwrap();
        let batch: Batch = Arc::new(vec![b"o0".to_vec(), b"o1".to_vec()]);
        let handle = repl.replicate_begin(batch);
        assert_eq!(handle.expected(), 2);
        // "Local work" happens here while the replicas apply the batch.
        let marker = std::time::Instant::now();
        assert_eq!(handle.wait(), 2);
        // wait() blocked at most ~link_delay + append, not per-replica sums.
        assert!(marker.elapsed() < Duration::from_secs(2));
        drop(repl);
        for i in 0..2 {
            let store =
                LogStore::open(dir.join(format!("replica-{i}")), StoreConfig::default()).unwrap();
            assert_eq!(store.len(), 2);
        }
    }

    /// An ack is a durable copy: every acknowledged batch has been fsynced
    /// on the replica, one fsync per batch (the inline threshold sync is
    /// not repeated).
    #[test]
    fn acks_wait_for_a_covering_fsync() {
        let config = StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 8,
                max_delay: Duration::from_secs(60),
            },
            ..StoreConfig::default()
        };
        let repl = Replicator::spawn(tempdir("gc"), 2, config, Duration::ZERO).unwrap();
        for b in 1..=10u64 {
            assert_eq!(repl.replicate_sync(vec![b.to_be_bytes().to_vec(); 3]), 2);
            for replica in &repl.replicas {
                let fsyncs = replica.store.sync_stats().fsyncs;
                assert_eq!(fsyncs, b, "batch {b}");
            }
        }
    }

    /// A replica that failed a batch lacks it (or holds a sealed prefix of
    /// it), so it must not acknowledge the batches queued behind the hole —
    /// not even once the cause is gone.
    #[test]
    fn a_replica_that_failed_a_batch_acknowledges_nothing_after_it() {
        let dir = tempdir("hole");
        let repl = Replicator::spawn(&dir, 1, small_segments(), Duration::ZERO).unwrap();
        let batch = |b: u8| vec![vec![b; 40]];
        assert_eq!(repl.replicate_sync(batch(0)), 1);
        // A directory squats on the replica's next tail: the next batch
        // needs a rotation and cannot create the successor.
        let squatter = dir.join("replica-0").join("seg-0000000001.wlog");
        std::fs::create_dir(&squatter).unwrap();
        assert_eq!(repl.replicate_sync(batch(1)), 0);
        std::fs::remove_dir(&squatter).unwrap();
        // The store itself could take this batch now; the replica must not.
        assert_eq!(repl.replicate_sync(batch(2)), 0);
        assert_eq!(repl.replicas[0].store.len(), 1);
        drop(repl);
        // Reopened (a restart), it takes batches again.
        let repl = Replicator::spawn(&dir, 1, small_segments(), Duration::ZERO).unwrap();
        assert_eq!(repl.replicate_sync(batch(3)), 1);
        assert_eq!(repl.replicas[0].store.len(), 2);
    }

    fn small_segments() -> StoreConfig {
        StoreConfig {
            max_segment_bytes: 64,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn zero_replicas_is_noop() {
        let repl =
            Replicator::spawn(tempdir("zero"), 0, StoreConfig::default(), Duration::ZERO).unwrap();
        assert_eq!(repl.replicate_sync(vec![b"x".to_vec()]), 0);
        assert_eq!(repl.replica_count(), 0);
    }

    #[test]
    fn multiple_batches_ordered() {
        let dir = tempdir("order");
        let repl = Replicator::spawn(&dir, 1, StoreConfig::default(), Duration::ZERO).unwrap();
        for b in 0..5u32 {
            let batch = (0..3).map(|i| format!("b{b}-{i}").into_bytes()).collect();
            assert_eq!(repl.replicate_sync(batch), 1);
        }
        drop(repl);
        let store = LogStore::open(dir.join("replica-0"), StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 15);
        assert_eq!(store.read(7).unwrap(), b"b2-1");
    }
}
