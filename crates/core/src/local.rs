//! An in-process single-node deployment: a simulated chain with a miner,
//! the contract suite, and one Offchain Node over a scratch directory — the
//! single-node counterpart of `wedge_cluster::LocalCluster`, used by tests
//! and benchmarks.

use std::path::Path;
use std::sync::Arc;

use parking_lot::RwLock;
use wedge_chain::{Address, Chain, ChainConfig, MinerHandle, Wei};
use wedge_crypto::hash::Hash32;
use wedge_crypto::signer::Identity;
use wedge_crypto::PublicKey;
use wedge_merkle::RangeProof;
use wedge_sim::Clock;
use wedge_storage::ScratchDir;

use crate::node::ReplyFn;
use crate::{
    audit, deploy_service, AppendRequest, Auditor, CoreError, EntryId, EpochCommit, LogService,
    NodeConfig, OffchainNode, Publisher, Reader, ServiceConfig, ShardGroup, SignedResponse,
    Transcript, Verdict,
};

/// A running single-node deployment.
///
/// Dropping it shuts the node down while the miner still runs (shutdown
/// lands pending stage-2 work, which needs blocks), then stops the miner,
/// then removes the node's directory. The clients it hands out reach the
/// node through a link that shutdown clears, so a client that outlives the
/// deployment keeps neither the node nor its directory alive, and one held
/// across [`LocalNode::restart`] talks to the restarted node.
pub struct LocalNode {
    /// The simulated chain.
    pub chain: Arc<Chain>,
    /// The node's identity, derived from the tag.
    pub node_identity: Identity,
    /// The client's identity, derived from the tag: funded, and the
    /// Punishment contract's beneficiary.
    pub client_identity: Identity,
    /// Root Record contract address.
    pub root_record: Address,
    /// Punishment contract address, holding [`LocalNode::ESCROW`].
    pub punishment: Address,
    // Drop order: node, link, miner, dir.
    node: Arc<OffchainNode>,
    link: Arc<NodeLink>,
    _miner: MinerHandle,
    dir: ScratchDir,
}

impl LocalNode {
    /// The escrow the node locks in its Punishment contract.
    pub const ESCROW: Wei = Wei::from_eth(32);

    /// Boots a node on a fresh chain (default configuration, clock
    /// compressed 2000×: 13 s blocks every 6.5 ms of wall time).
    pub fn start(tag: &str, config: NodeConfig) -> Result<LocalNode, CoreError> {
        let chain = Chain::new(Clock::compressed(2000.0), ChainConfig::default());
        LocalNode::start_on(&chain, tag, config)
    }

    /// Boots a node on the caller's chain: funds the identities derived
    /// from `tag`, starts a miner, deploys the contract suite, and starts
    /// the node over a fresh scratch directory.
    pub fn start_on(
        chain: &Arc<Chain>,
        tag: &str,
        config: NodeConfig,
    ) -> Result<LocalNode, CoreError> {
        let node_identity = Identity::from_seed(format!("node-{tag}").as_bytes());
        let client_identity = Identity::from_seed(format!("client-{tag}").as_bytes());
        chain.fund(node_identity.address(), Wei::from_eth(1_000_000));
        chain.fund(client_identity.address(), Wei::from_eth(1_000_000));
        let miner = chain.start_miner();
        let deployment = deploy_service(
            chain,
            &node_identity,
            client_identity.address(),
            &ServiceConfig {
                escrow: LocalNode::ESCROW,
                payment_terms: None,
            },
        )?;
        let dir = ScratchDir::new(tag);
        let node = Arc::new(OffchainNode::start(
            node_identity.clone(),
            config,
            Arc::clone(chain),
            deployment.root_record,
            &dir,
        )?);
        let link = Arc::new(NodeLink {
            public_key: node.public_key(),
            node: RwLock::new(Some(Arc::clone(&node))),
        });
        Ok(LocalNode {
            chain: Arc::clone(chain),
            node_identity,
            client_identity,
            root_record: deployment.root_record,
            punishment: deployment.punishment,
            node,
            link,
            _miner: miner,
            dir,
        })
    }

    /// The running node.
    pub fn node(&self) -> &Arc<OffchainNode> {
        &self.node
    }

    /// The node's data directory.
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    /// A publisher for the client identity, armed with the Punishment
    /// contract.
    pub fn publisher(&self) -> Publisher {
        Publisher::new(
            self.client_identity.clone(),
            Arc::clone(&self.link),
            Arc::clone(&self.chain),
            self.root_record,
            Some(self.punishment),
        )
    }

    /// A reader verifying against the Root Record.
    pub fn reader(&self) -> Reader {
        Reader::new(
            Arc::clone(&self.link),
            Arc::clone(&self.chain),
            self.root_record,
        )
    }

    /// An auditor verifying against the Root Record.
    pub fn auditor(&self) -> Auditor {
        Auditor::new(
            Arc::clone(&self.link),
            Arc::clone(&self.chain),
            self.root_record,
        )
    }

    /// An empty transcript of this deployment's node.
    pub fn transcript(&self) -> Transcript {
        Transcript::new(self.link.public_key)
    }

    /// Reads this deployment's chain record into `transcript`, then audits
    /// it.
    pub fn audit(&self, transcript: &mut Transcript) -> Result<Verdict, CoreError> {
        transcript.read_chain(&self.chain, self.root_record, self.punishment)?;
        Ok(audit(transcript))
    }

    /// Shuts the node down — flushes the partial batch, lands pending
    /// stage-2 work, joins its threads and writes the final checkpoint —
    /// and keeps the chain, miner and directory. The node stays readable
    /// through [`LocalNode::node`]; handed-out clients get
    /// [`CoreError::NodeStopped`] until [`LocalNode::restart`]. Idempotent.
    /// Fails, after stopping ingestion, while anything besides this
    /// deployment still holds the node's `Arc`.
    pub fn shutdown(&mut self) -> Result<(), CoreError> {
        self.node.begin_shutdown();
        self.link.node.write().take();
        Arc::get_mut(&mut self.node)
            .map(OffchainNode::shutdown)
            .ok_or(CoreError::RequestRejected("the node is still shared"))
    }

    /// Shuts the node down and starts it again over the same directory
    /// and identity (checkpoint plus tail replay) with `config`.
    pub fn restart(&mut self, config: NodeConfig) -> Result<(), CoreError> {
        self.shutdown()?;
        let node = Arc::new(OffchainNode::start(
            self.node_identity.clone(),
            config,
            Arc::clone(&self.chain),
            self.root_record,
            &self.dir,
        )?);
        *self.link.node.write() = Some(Arc::clone(&node));
        self.node = node;
        Ok(())
    }
}

impl Drop for LocalNode {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The clients' way to the node: [`LocalNode::restart`] repoints it, and
/// shutting the node down clears it.
struct NodeLink {
    public_key: PublicKey,
    node: RwLock<Option<Arc<OffchainNode>>>,
}

impl NodeLink {
    fn node(&self) -> Result<Arc<OffchainNode>, CoreError> {
        self.node.read().clone().ok_or(CoreError::NodeStopped)
    }
}

impl LogService for NodeLink {
    fn node_public_key(&self) -> PublicKey {
        self.public_key
    }
    fn submit_request(&self, request: AppendRequest, reply: ReplyFn) -> Result<(), CoreError> {
        self.node()?.submit_request(request, reply)
    }
    fn read_entry(&self, id: EntryId) -> Result<SignedResponse, CoreError> {
        self.node()?.read_entry(id)
    }
    fn read_entries(&self, ids: &[EntryId]) -> Vec<Result<SignedResponse, CoreError>> {
        match self.node() {
            Ok(node) => node.read_entries(ids),
            Err(_) => ids.iter().map(|_| Err(CoreError::NodeStopped)).collect(),
        }
    }
    fn read_entry_by_sequence(
        &self,
        publisher: Address,
        sequence: u64,
    ) -> Result<SignedResponse, CoreError> {
        self.node()?.read_entry_by_sequence(publisher, sequence)
    }
    fn read_position(&self, log_id: u64) -> Result<Vec<SignedResponse>, CoreError> {
        self.node()?.read_position(log_id)
    }
    fn position_len(&self, log_id: u64) -> Option<u32> {
        self.node().ok()?.position_len(log_id)
    }
    fn scan(
        &self,
        log_id: u64,
        start: u32,
        count: u32,
    ) -> Result<(Vec<Vec<u8>>, RangeProof, Hash32), CoreError> {
        self.node()?.scan(log_id, start, count)
    }
    fn positions(&self) -> u64 {
        self.node().map_or(0, |node| node.positions())
    }
    fn entries(&self) -> u64 {
        self.node().map_or(0, |node| node.entries())
    }
    fn meta(&self, log_id: u64) -> (u64, u64, Option<u32>) {
        self.node()
            .map_or((0, 0, None), |node| LogService::meta(&*node, log_id))
    }
    fn epoch_report(&self, max_group: usize) -> Result<ShardGroup, CoreError> {
        LogService::epoch_report(&*self.node()?, max_group)
    }
    fn epoch_commit(&self, commit: EpochCommit) -> Result<u64, CoreError> {
        LogService::epoch_commit(&*self.node()?, commit)
    }
}
