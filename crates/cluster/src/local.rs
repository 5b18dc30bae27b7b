//! An in-process cluster deployment: N epoch-mode shards over one
//! simulated chain, a router, and the epoch coordinator — the cluster
//! counterpart of the single-node [`wedge_core::LocalNode`], used by tests
//! and benchmarks.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{Chain, ChainConfig, MinerHandle, Wei};
use wedge_core::node::ReplyFn;
use wedge_core::{
    AppendRequest, CoreError, EntryId, LogService, NodeConfig, OffchainNode, SignedResponse,
    Stage2Mode,
};
use wedge_crypto::hash::Hash32;
use wedge_crypto::keys::Address;
use wedge_crypto::signer::Identity;
use wedge_crypto::PublicKey;
use wedge_merkle::RangeProof;
use wedge_sim::Clock;

use crate::epoch::EpochCoordinator;
use crate::router::ClusterClient;
use crate::shard::ShardMap;

/// Cluster deployment parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of shard nodes.
    pub shards: usize,
    /// Per-shard node configuration (`stage2_mode` is forced to
    /// [`Stage2Mode::Epoch`]).
    pub node: NodeConfig,
    /// Maximum batch roots one epoch pulls per shard.
    pub epoch_max_group: usize,
    /// Simulated-clock compression for the chain.
    pub compression: f64,
    /// Chain parameters (fault tests shorten `receipt_timeout`).
    pub chain: ChainConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: 4,
            node: NodeConfig::default(),
            epoch_max_group: 16,
            compression: 2000.0,
            chain: ChainConfig::default(),
        }
    }
}

/// A running in-process cluster.
pub struct LocalCluster {
    /// The shared simulated chain.
    pub chain: Arc<Chain>,
    /// Its (compressed) clock.
    pub clock: Clock,
    /// The shard-aware router.
    pub router: ClusterClient,
    /// The epoch coordinator (mutably drive it via
    /// [`LocalCluster::run_epoch`]).
    pub coordinator: EpochCoordinator,
    nodes: Vec<Option<Arc<OffchainNode>>>,
    identities: Vec<Identity>,
    dirs: Vec<PathBuf>,
    node_config: NodeConfig,
    miner: Option<MinerHandle>,
    base_dir: PathBuf,
}

impl LocalCluster {
    /// Boots a cluster: chain + miner, the `ClusterRoot` contract, and
    /// `config.shards` epoch-mode nodes under a scratch directory keyed by
    /// `tag`.
    pub fn start(tag: &str, config: ClusterConfig) -> Result<LocalCluster, CoreError> {
        let clock = Clock::compressed(config.compression);
        let chain = Chain::new(clock.clone(), config.chain.clone());
        let coordinator_id = Identity::from_seed(format!("cluster-coord-{tag}").as_bytes());
        chain.fund(coordinator_id.address(), Wei::from_eth(1_000_000));
        let miner = chain.start_miner();
        let coordinator =
            EpochCoordinator::deploy(Arc::clone(&chain), coordinator_id, config.epoch_max_group)?;

        let base_dir =
            std::env::temp_dir().join(format!("wedge-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base_dir);
        let mut node_config = config.node.clone();
        node_config.stage2_mode = Stage2Mode::Epoch;

        let mut nodes = Vec::with_capacity(config.shards.max(1));
        let mut identities = Vec::new();
        let mut dirs = Vec::new();
        let mut backends: Vec<Arc<dyn LogService>> = Vec::new();
        for shard in 0..config.shards.max(1) {
            let identity = Identity::from_seed(format!("cluster-{tag}-shard-{shard}").as_bytes());
            let dir = base_dir.join(format!("shard-{shard}"));
            let node = Arc::new(OffchainNode::start(
                identity.clone(),
                node_config.clone(),
                Arc::clone(&chain),
                coordinator.contract(),
                &dir,
            )?);
            backends.push(Arc::clone(&node) as Arc<dyn LogService>);
            nodes.push(Some(node));
            identities.push(identity);
            dirs.push(dir);
        }
        Ok(LocalCluster {
            chain,
            clock,
            router: ClusterClient::new(backends),
            coordinator,
            nodes,
            identities,
            dirs,
            node_config,
            miner: Some(miner),
            base_dir,
        })
    }

    /// The shard node, when up.
    pub fn node(&self, shard: usize) -> Option<&Arc<OffchainNode>> {
        self.nodes.get(shard).and_then(|n| n.as_ref())
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.nodes.len()
    }

    /// Drives one pipelined coordinator step over the router
    /// ([`EpochCoordinator::run_epoch`]). Returns whether an epoch became
    /// confirmation-deep and was acknowledged in this call — false when
    /// nothing was pending or in flight, or when the epoch this call sent
    /// is still confirming.
    pub fn run_epoch(&mut self) -> Result<bool, CoreError> {
        Ok(self.coordinator.run_epoch(&self.router)?.is_some())
    }

    /// Runs coordinator steps until every running shard's flushed positions
    /// are blockchain-committed — each step that sends nothing waits for
    /// the oldest epoch in flight to confirm — or `timeout` of
    /// simulated time passes.
    pub fn settle(&mut self, timeout: Duration) -> Result<(), CoreError> {
        let start = self.clock.now();
        loop {
            self.run_epoch()?;
            let idle = self
                .nodes
                .iter()
                .flatten()
                .all(|node| node.wait_stage2_idle(Duration::ZERO).is_ok());
            if idle {
                return Ok(());
            }
            if self.clock.now().since(start) > timeout {
                return Err(CoreError::NotYetBlockchainCommitted { log_id: 0 });
            }
            self.clock.sleep(Duration::from_millis(50));
        }
    }

    /// Restarts the coordinator on its deployed contract: what it kept in
    /// memory — its records and the epochs it had in flight — is lost, and
    /// the new one resumes from the contract's tail.
    pub fn restart_coordinator(&mut self) {
        self.coordinator = self.coordinator.restarted();
    }

    /// Takes shard `shard` down: the router fails over to a stub that
    /// rejects every operation (clean errors, no hangs), and the node shuts
    /// down — flushing its pipeline and writing its final checkpoint, the
    /// state the restart path recovers from.
    pub fn crash_shard(&mut self, shard: usize) {
        if let Some(node) = self.nodes[shard].take() {
            let key = node.public_key();
            node.begin_shutdown();
            // Swap the router first so new operations fail fast while the
            // old backend's Arcs drain and the node joins its workers.
            self.router
                .replace_shard(shard, Arc::new(DownShard { public_key: key }));
            drop(node);
        }
    }

    /// Restarts a crashed shard from its data directory (checkpoint +
    /// tail replay) and fails the router back over to it.
    pub fn restart_shard(&mut self, shard: usize) -> Result<(), CoreError> {
        if self.nodes[shard].is_some() {
            self.crash_shard(shard);
        }
        let node = Arc::new(OffchainNode::start(
            self.identities[shard].clone(),
            self.node_config.clone(),
            Arc::clone(&self.chain),
            self.coordinator.contract(),
            &self.dirs[shard],
        )?);
        self.router
            .replace_shard(shard, Arc::clone(&node) as Arc<dyn LogService>);
        self.nodes[shard] = Some(node);
        Ok(())
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        self.miner.take();
        // Swap the router's backends out so node Arcs actually drop and
        // the nodes shut down before the scratch directory goes away.
        for shard in 0..self.nodes.len() {
            if let Some(node) = self.nodes[shard].take() {
                let key = node.public_key();
                self.router
                    .replace_shard(shard, Arc::new(DownShard { public_key: key }));
                drop(node);
            }
        }
        let _ = std::fs::remove_dir_all(&self.base_dir);
    }
}

/// Failover placeholder while a shard is down: every operation fails fast
/// with a clean error instead of hanging.
struct DownShard {
    public_key: PublicKey,
}

impl LogService for DownShard {
    fn node_public_key(&self) -> PublicKey {
        self.public_key
    }
    fn submit_request(&self, _request: AppendRequest, reply: ReplyFn) -> Result<(), CoreError> {
        reply(Err("shard is down".into()));
        Err(CoreError::NodeStopped)
    }
    fn read_entry(&self, _id: EntryId) -> Result<SignedResponse, CoreError> {
        Err(CoreError::NodeStopped)
    }
    fn read_entry_by_sequence(
        &self,
        _publisher: Address,
        _sequence: u64,
    ) -> Result<SignedResponse, CoreError> {
        Err(CoreError::NodeStopped)
    }
    fn read_position(&self, _log_id: u64) -> Result<Vec<SignedResponse>, CoreError> {
        Err(CoreError::NodeStopped)
    }
    fn position_len(&self, _log_id: u64) -> Option<u32> {
        None
    }
    fn scan(
        &self,
        _log_id: u64,
        _start: u32,
        _count: u32,
    ) -> Result<(Vec<Vec<u8>>, RangeProof, Hash32), CoreError> {
        Err(CoreError::NodeStopped)
    }
    fn positions(&self) -> u64 {
        0
    }
    fn entries(&self) -> u64 {
        0
    }
}

/// Finds an identity seeded from `tag` whose address the map places on
/// `shard` — deterministic, so tests and benches can aim load at a
/// specific shard.
pub fn identity_on_shard(map: ShardMap, shard: usize, tag: &str) -> Identity {
    for n in 0..u32::MAX {
        let identity = Identity::from_seed(format!("{tag}-{n}").as_bytes());
        if map.shard_of(identity.address()) == shard % map.len() {
            return identity;
        }
    }
    // lint: allow(panic) — 2^32 keccak-spread seeds over at most a few
    // hundred shards cannot all miss one shard; test/bench helper only
    unreachable!("a shard placement must exist among 2^32 seeds")
}
