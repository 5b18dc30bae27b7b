//! Bring-up and tear-down of the single-node system under test: simulated
//! chain with a miner, the contract suite, a durable replicated
//! `OffchainNode`, and (over TCP) a `NodeServer` on host loopback.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use wedge_chain::{Address, Chain, MinerHandle, Wei};
use wedge_core::{deploy_service, LogService, OffchainNode, Reader, ServiceConfig};
use wedge_crypto::signer::Identity;
use wedge_net::{NodeServer, RemoteNode};
use wedge_sim::Clock;

use crate::fixed;

/// Whether load reaches the node through `wedge-net` or by direct calls
/// (the in-process twin of a traced run).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    Tcp,
    InProcess,
}

/// One client's handle on the node.
#[derive(Clone)]
pub enum Link {
    Tcp(Arc<RemoteNode>),
    InProcess(Arc<OffchainNode>),
}

impl Link {
    pub fn service(&self) -> Arc<dyn LogService> {
        match self {
            Link::Tcp(remote) => Arc::clone(remote) as Arc<dyn LogService>,
            Link::InProcess(node) => Arc::clone(node) as Arc<dyn LogService>,
        }
    }

    pub fn reader(&self, chain: &Arc<Chain>, root_record: Address) -> Reader {
        match self {
            Link::Tcp(remote) => Reader::new(Arc::clone(remote), Arc::clone(chain), root_record),
            Link::InProcess(node) => Reader::new(Arc::clone(node), Arc::clone(chain), root_record),
        }
    }
}

pub struct World {
    pub chain: Arc<Chain>,
    pub clock: Clock,
    pub root_record: Address,
    pub transport: Transport,
    node: Option<Arc<OffchainNode>>,
    server: Option<NodeServer>,
    identity: Identity,
    dir: PathBuf,
    miner: Option<MinerHandle>,
}

impl World {
    /// Starts chain, miner, contracts, node and (for TCP) server under a
    /// fresh directory `scratch/tag`.
    pub fn start(scratch: &Path, tag: &str, transport: Transport) -> Result<World, String> {
        let clock = Clock::compressed(fixed::COMPRESSION);
        let chain = Chain::new(clock.clone(), fixed::chain_config());
        let identity = Identity::from_seed(b"wedgebench-node");
        let client = Identity::from_seed(b"wedgebench-client");
        chain.fund(identity.address(), Wei::from_eth(1_000_000));
        chain.fund(client.address(), Wei::from_eth(1_000_000));
        let miner = chain.start_miner();
        let deployment = deploy_service(
            &chain,
            &identity,
            client.address(),
            &ServiceConfig {
                escrow: Wei::from_eth(32),
                payment_terms: None,
            },
        )
        .map_err(|e| format!("deploy contracts: {e}"))?;
        let dir = scratch.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let mut world = World {
            chain,
            clock,
            root_record: deployment.root_record,
            transport,
            node: None,
            server: None,
            identity,
            dir,
            miner: Some(miner),
        };
        world.start_node()?;
        Ok(world)
    }

    /// Starts (or restarts, recovering from the same directory) the node.
    pub fn start_node(&mut self) -> Result<(), String> {
        let node = Arc::new(
            OffchainNode::start(
                self.identity.clone(),
                fixed::node_config(),
                Arc::clone(&self.chain),
                self.root_record,
                &self.dir,
            )
            .map_err(|e| format!("start node: {e}"))?,
        );
        if self.transport == Transport::Tcp {
            let server = NodeServer::bind_with_config(
                "127.0.0.1:0",
                Arc::clone(&node) as Arc<dyn LogService>,
                fixed::server_config(),
            )
            .map_err(|e| format!("bind server: {e}"))?;
            self.server = Some(server);
        }
        self.node = Some(node);
        Ok(())
    }

    /// Shuts server and node down (final checkpoint included). Every `Link`
    /// must have been dropped, or the node outlives this call.
    pub fn stop_node(&mut self) -> Result<(), String> {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
        match self.node.take().map(Arc::try_unwrap) {
            None | Some(Ok(_)) => Ok(()),
            Some(Err(_)) => Err("node still referenced at shutdown".into()),
        }
    }

    pub fn node(&self) -> &Arc<OffchainNode> {
        self.node.as_ref().expect("node is running")
    }

    pub fn server(&self) -> Option<&NodeServer> {
        self.server.as_ref()
    }

    /// A new client handle: a buffered-append `RemoteNode` connection, or
    /// the node itself.
    pub fn connect(&self) -> Result<Link, String> {
        match &self.server {
            Some(server) => {
                let remote = RemoteNode::connect(server.local_addr())
                    .map_err(|e| format!("connect: {e}"))?;
                remote.set_buffered_appends(true);
                Ok(Link::Tcp(Arc::new(remote)))
            }
            None => Ok(Link::InProcess(Arc::clone(self.node()))),
        }
    }

    /// The primary's store directory (replicas live beside it).
    pub fn store_dir(&self) -> PathBuf {
        self.dir.join("log")
    }
}

impl Drop for World {
    fn drop(&mut self) {
        // Node first: its shutdown completes queued stage-2 work, which
        // needs blocks. Then the miner, then the directory.
        let _ = self.stop_node();
        self.miner.take();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
