//! The simulated blockchain: mempool, mining, execution, receipts, events.
//!
//! One [`Chain`] stands in for the Ethereum Ropsten network the paper
//! deployed against. Blocks are produced by a miner thread on the
//! simulation clock (default every 13 simulated seconds, the paper-era
//! Ethereum average); a transaction is *confirmed* once `confirmations`
//! further blocks exist, which is what [`Chain::wait_for_receipt`] waits
//! for — together these reproduce the paper's ~43 s stage-2 commitment
//! latency when run in real time, and the same figure in simulated seconds
//! when the clock is compressed.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use wedge_crypto::hash::Hash32;
use wedge_crypto::keys::SecretKey;
use wedge_sim::{Clock, SimInstant};

use crate::block::{Block, EventLog, ExecStatus, Receipt};
use crate::contract::{CallContext, Contract, ContractRegistry, WorldState};
use crate::error::ChainError;
use crate::faults::ChainFaults;
use crate::gas::{GasSchedule, DEFAULT_GAS_PRICE};
use crate::tx::{contract_address, SignedTransaction, Transaction, TxKind};
use crate::types::{Address, BlockNumber, Gas, TxHash, Wei};

/// Chain behaviour knobs.
#[derive(Clone, Debug)]
pub struct ChainConfig {
    /// Simulated time between blocks (Ethereum paper-era average: ~13 s).
    pub block_interval: Duration,
    /// Blocks that must sit on top of a transaction before
    /// [`Chain::wait_for_receipt`] reports it committed.
    pub confirmations: u64,
    /// Per-block gas ceiling (Ethereum: 30M).
    pub block_gas_limit: Gas,
    /// Gas cost table.
    pub schedule: GasSchedule,
    /// Default gas price applied by the convenience transaction builders.
    pub gas_price: Wei,
    /// Simulated interval between receipt polls.
    pub receipt_poll: Duration,
    /// Simulated deadline for [`Chain::wait_for_receipt`].
    pub receipt_timeout: Duration,
    /// Relative gas-price jitter applied by the convenience builders
    /// (0.0 = deterministic). The paper observed its Table-1 cost
    /// irregularities came from Ropsten fee fluctuation; setting e.g. 0.2
    /// reproduces that ±20% wobble.
    pub gas_price_jitter: f64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            block_interval: Duration::from_secs(13),
            confirmations: 2,
            block_gas_limit: Gas(30_000_000),
            schedule: GasSchedule::default(),
            gas_price: DEFAULT_GAS_PRICE,
            receipt_poll: Duration::from_millis(500),
            receipt_timeout: Duration::from_secs(3600),
            gas_price_jitter: 0.0,
        }
    }
}

struct Inner {
    state: WorldState,
    contracts: ContractRegistry,
    pending: VecDeque<SignedTransaction>,
    /// Contract objects travelling alongside their deploy transactions.
    pending_deploys: HashMap<TxHash, Box<dyn Contract>>,
    blocks: Vec<Block>,
    receipts: HashMap<TxHash, Receipt>,
    /// Cumulative fees paid per account — the bench cost metric.
    fees_paid: HashMap<Address, Wei>,
    total_gas: Gas,
}

/// An event subscription: optional contract filter + delivery channel.
struct Subscriber {
    filter: Option<Address>,
    sender: Sender<EventLog>,
}

/// The simulated chain. Cheap to share via `Arc`.
pub struct Chain {
    inner: Mutex<Inner>,
    clock: Clock,
    config: ChainConfig,
    subscribers: Mutex<Vec<Subscriber>>,
    /// Seeded RNG for gas-price jitter (deterministic across runs).
    price_rng: Mutex<rand::rngs::StdRng>,
    /// Deterministic fault injection (drops, reverts, receipt delays).
    faults: ChainFaults,
    /// The running miner every [`MinerHandle`] shares, if any.
    miner: Mutex<Weak<Miner>>,
    /// When the running miner mines its next block.
    next_due: Mutex<Option<SimInstant>>,
}

impl Chain {
    /// Creates a chain with a genesis block at the clock's current time.
    pub fn new(clock: Clock, config: ChainConfig) -> Arc<Chain> {
        let genesis = Block {
            number: 0,
            timestamp: clock.now().as_secs(),
            parent: Hash32::ZERO,
            tx_hashes: Vec::new(),
            gas_used: Gas::ZERO,
            hash: Block::compute_hash(0, clock.now().as_secs(), &Hash32::ZERO, &[]),
        };
        Arc::new(Chain {
            inner: Mutex::new(Inner {
                state: WorldState::default(),
                contracts: ContractRegistry::new(),
                pending: VecDeque::new(),
                pending_deploys: HashMap::new(),
                blocks: vec![genesis],
                receipts: HashMap::new(),
                fees_paid: HashMap::new(),
                total_gas: Gas::ZERO,
            }),
            clock,
            config,
            subscribers: Mutex::new(Vec::new()),
            price_rng: Mutex::new(<rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                0x5745_4447_4550_5243,
            )),
            faults: ChainFaults::default(),
            miner: Mutex::new(Weak::new()),
            next_due: Mutex::new(None),
        })
    }

    /// The gas price the convenience builders will use for the next
    /// transaction: the configured base, optionally jittered.
    fn effective_gas_price(&self) -> Wei {
        if self.config.gas_price_jitter <= 0.0 {
            return self.config.gas_price;
        }
        use rand::Rng;
        let jitter = self.config.gas_price_jitter.min(0.95);
        let factor = 1.0 + self.price_rng.lock().gen_range(-jitter..=jitter);
        Wei((self.config.gas_price.0 as f64 * factor) as u128)
    }

    /// Convenience: default config on the given clock.
    pub fn with_defaults(clock: Clock) -> Arc<Chain> {
        Chain::new(clock, ChainConfig::default())
    }

    /// The chain's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The chain's configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// The chain's fault-injection hooks (see [`ChainFaults`]).
    pub fn faults(&self) -> &ChainFaults {
        &self.faults
    }

    // ---------------------------------------------------------------- fund

    /// Genesis faucet: credits `addr` with `amount` (test/bench setup).
    pub fn fund(&self, addr: Address, amount: Wei) {
        self.inner.lock().state.credit(addr, amount);
    }

    // -------------------------------------------------------------- submit

    /// Validates and enqueues a signed transaction.
    pub fn submit(&self, signed: SignedTransaction) -> Result<TxHash, ChainError> {
        signed.verify()?;
        if self.faults.take_submission_drop() {
            return Err(ChainError::SubmissionDropped(signed.hash));
        }
        let mut inner = self.inner.lock();
        let next = Self::next_nonce_locked(&inner, signed.from);
        if signed.tx.nonce < inner.state.nonce(signed.from) {
            return Err(ChainError::NonceTooLow {
                expected: next,
                got: signed.tx.nonce,
            });
        }
        let needed = signed
            .tx
            .gas_limit
            .cost_at(signed.tx.gas_price)
            .checked_add(signed.tx.value)
            .unwrap_or(Wei(u128::MAX));
        let available = inner.state.balance(signed.from);
        if available < needed {
            return Err(ChainError::InsufficientBalance {
                address: signed.from,
                needed,
                available,
            });
        }
        let hash = signed.hash;
        inner.pending.push_back(signed);
        Ok(hash)
    }

    fn next_nonce_locked(inner: &Inner, addr: Address) -> u64 {
        let base = inner.state.nonce(addr);
        let in_flight = inner.pending.iter().filter(|t| t.from == addr).count() as u64;
        base + in_flight
    }

    /// The next nonce `addr` should sign with (accounts for mempool
    /// residents).
    pub fn next_nonce(&self, addr: Address) -> u64 {
        Self::next_nonce_locked(&self.inner.lock(), addr)
    }

    // --------------------------------------------- convenience tx builders

    /// Builds, signs and submits a value transfer.
    pub fn transfer(&self, key: &SecretKey, to: Address, value: Wei) -> Result<TxHash, ChainError> {
        let from = key.public_key().address();
        let tx = Transaction {
            nonce: self.next_nonce(from),
            to,
            value,
            data: Vec::new(),
            gas_limit: Gas(30_000),
            gas_price: self.effective_gas_price(),
            kind: TxKind::Transfer,
        };
        self.submit(tx.sign(key))
    }

    /// Builds, signs and submits a contract call.
    pub fn call_contract(
        &self,
        key: &SecretKey,
        to: Address,
        value: Wei,
        data: Vec<u8>,
        gas_limit: Gas,
    ) -> Result<TxHash, ChainError> {
        let from = key.public_key().address();
        let tx = Transaction {
            nonce: self.next_nonce(from),
            to,
            value,
            data,
            gas_limit,
            gas_price: self.effective_gas_price(),
            kind: TxKind::Call,
        };
        self.submit(tx.sign(key))
    }

    /// Builds, signs and submits a contract deployment.
    ///
    /// `code_len` is the notional init-code size used for gas realism.
    /// Returns the contract's (deterministic) address and the deploy tx
    /// hash.
    pub fn deploy(
        &self,
        key: &SecretKey,
        contract: Box<dyn Contract>,
        endowment: Wei,
        code_len: usize,
    ) -> Result<(Address, TxHash), ChainError> {
        let from = key.public_key().address();
        let nonce = self.next_nonce(from);
        let addr = contract_address(from, nonce);
        let tx = Transaction {
            nonce,
            to: addr,
            value: endowment,
            // Synthetic non-zero init-code bytes so intrinsic gas scales
            // with the declared code size.
            data: vec![0xC5; code_len],
            gas_limit: Gas(3_000_000u64.saturating_add((code_len as u64).saturating_mul(200))),
            gas_price: self.effective_gas_price(),
            kind: TxKind::Deploy,
        };
        let signed = tx.sign(key);
        let hash = signed.hash;
        {
            // Stash the contract object before submission so mining can
            // never observe a deploy tx without its object.
            self.inner.lock().pending_deploys.insert(hash, contract);
        }
        match self.submit(signed) {
            Ok(h) => Ok((addr, h)),
            Err(e) => {
                self.inner.lock().pending_deploys.remove(&hash);
                Err(e)
            }
        }
    }

    // -------------------------------------------------------------- mining

    /// Mines one block from the mempool. Returns the new block.
    pub fn mine_block(&self) -> Block {
        let mut inner = self.inner.lock();
        let timestamp = self.clock.now().as_secs();
        let number = inner.blocks.len() as BlockNumber;
        // lint: allow(panic) — `blocks` starts with genesis and only grows
        let parent = inner.blocks.last().expect("genesis exists").hash;

        let mut tx_hashes = Vec::new();
        let mut block_gas = Gas::ZERO;
        let mut all_logs = Vec::new();
        while let Some(candidate) = inner.pending.front() {
            if block_gas.saturating_add(candidate.tx.gas_limit) > self.config.block_gas_limit
                && !tx_hashes.is_empty()
            {
                break; // block full; head-of-line waits for the next block
            }
            let Some(signed) = inner.pending.pop_front() else {
                break;
            };
            let receipt = self.execute(&mut inner, &signed, number, timestamp);
            block_gas = block_gas.saturating_add(receipt.gas_used);
            all_logs.extend(receipt.logs.iter().cloned());
            tx_hashes.push(signed.hash);
            inner.receipts.insert(signed.hash, receipt);
        }
        inner.total_gas = inner.total_gas.saturating_add(block_gas);
        let block = Block {
            number,
            timestamp,
            parent,
            hash: Block::compute_hash(number, timestamp, &parent, &tx_hashes),
            tx_hashes,
            gas_used: block_gas,
        };
        inner.blocks.push(block.clone());
        drop(inner);
        // Fan events out to subscribers after releasing the chain lock;
        // drop subscribers whose receiver hung up.
        let mut subs = self.subscribers.lock();
        subs.retain(|sub| {
            all_logs
                .iter()
                .filter(|log| sub.filter.is_none_or(|addr| addr == log.contract))
                .all(|log| sub.sender.send(log.clone()).is_ok())
        });
        block
    }

    /// Executes one transaction against the locked state.
    fn execute(
        &self,
        inner: &mut Inner,
        signed: &SignedTransaction,
        block_number: BlockNumber,
        timestamp: u64,
    ) -> Receipt {
        let schedule = &self.config.schedule;
        let from = signed.from;
        let tx = &signed.tx;
        let fail = |status: ExecStatus| Receipt {
            tx_hash: signed.hash,
            status,
            gas_used: Gas::ZERO,
            fee: Wei::ZERO,
            block_number,
            output: Vec::new(),
            logs: Vec::new(),
            contract_address: None,
        };

        // Nonce must match exactly at execution time.
        if tx.nonce != inner.state.nonce(from) {
            return fail(ExecStatus::Reverted(format!(
                "invalid nonce {} (expected {})",
                tx.nonce,
                inner.state.nonce(from)
            )));
        }
        // Upfront solvency: worst-case fee + value.
        let upfront = tx
            .gas_limit
            .cost_at(tx.gas_price)
            .checked_add(tx.value)
            .unwrap_or(Wei(u128::MAX));
        if inner.state.balance(from) < upfront {
            return fail(ExecStatus::Reverted("insufficient balance".into()));
        }

        inner.state.bump_nonce(from);
        let intrinsic = schedule.intrinsic(&tx.data);
        let (status, gas_used, output, logs, created) = match tx.kind {
            TxKind::Transfer => {
                // lint: allow(panic) — solvency verified by the upfront
                // check at the top of execute()
                inner.state.debit(from, tx.value).expect("upfront-checked");
                inner.state.credit(tx.to, tx.value);
                (ExecStatus::Success, intrinsic, Vec::new(), Vec::new(), None)
            }
            TxKind::Deploy => {
                let gas = intrinsic.saturating_add(schedule.deploy(tx.data.len()));
                match inner.pending_deploys.remove(&signed.hash) {
                    Some(contract) => {
                        // lint: allow(panic) — solvency verified by the
                        // upfront check at the top of execute()
                        inner.state.debit(from, tx.value).expect("upfront-checked");
                        inner.state.credit(tx.to, tx.value);
                        inner.contracts.insert(tx.to, contract);
                        (
                            ExecStatus::Success,
                            gas,
                            Vec::new(),
                            Vec::new(),
                            Some(tx.to),
                        )
                    }
                    None => (
                        ExecStatus::Reverted("deploy object missing".into()),
                        intrinsic,
                        Vec::new(),
                        Vec::new(),
                        None,
                    ),
                }
            }
            TxKind::Call if self.faults.take_call_revert() => (
                ExecStatus::Reverted("injected fault: forced revert".into()),
                intrinsic,
                Vec::new(),
                Vec::new(),
                None,
            ),
            TxKind::Call => {
                match inner.contracts.remove(&tx.to) {
                    None => (
                        ExecStatus::Reverted(format!("no contract at {}", tx.to)),
                        intrinsic,
                        Vec::new(),
                        Vec::new(),
                        None,
                    ),
                    Some(mut contract) => {
                        // Snapshot for rollback.
                        let state_snapshot = inner.state.snapshot();
                        let contract_snapshot = contract.clone_box();
                        // Value moves before the call, as on Ethereum.
                        // lint: allow(panic) — solvency verified by the
                        // upfront check at the top of execute()
                        inner.state.debit(from, tx.value).expect("upfront-checked");
                        inner.state.credit(tx.to, tx.value);
                        let mut base = intrinsic;
                        if !tx.value.is_zero() {
                            base = base.saturating_add(Gas(schedule.call_value));
                        }
                        let mut ctx = CallContext::new(
                            from,
                            tx.value,
                            tx.to,
                            block_number,
                            timestamp,
                            schedule,
                            base,
                            tx.gas_limit,
                            &mut inner.state,
                            &mut inner.contracts,
                            false,
                        );
                        match contract.call(&mut ctx, &tx.data) {
                            Ok(output) => {
                                let logs = ctx.take_logs();
                                let gas = ctx.gas_used();
                                inner.contracts.insert(tx.to, contract);
                                (ExecStatus::Success, gas, output, logs, None)
                            }
                            Err(revert) => {
                                let gas = ctx.gas_used().min(tx.gas_limit);
                                drop(ctx);
                                inner.state = state_snapshot;
                                inner.contracts.insert(tx.to, contract_snapshot);
                                (
                                    ExecStatus::Reverted(revert.reason),
                                    gas,
                                    Vec::new(),
                                    Vec::new(),
                                    None,
                                )
                            }
                        }
                    }
                }
            }
        };

        // Fee is charged on success *and* revert (as on Ethereum).
        let fee = gas_used.cost_at(tx.gas_price);
        inner
            .state
            .debit(from, fee)
            // lint: allow(panic) — `gas_used <= gas_limit`, so the fee is
            // covered by the upfront `gas_limit × price + value` check
            .expect("fee covered by upfront check");
        let paid = inner.fees_paid.entry(from).or_insert(Wei::ZERO);
        *paid = paid.saturating_add(fee);

        Receipt {
            tx_hash: signed.hash,
            status,
            gas_used,
            fee,
            block_number,
            output,
            logs,
            contract_address: created,
        }
    }

    // -------------------------------------------------------------- miners

    /// Starts the chain's miner, producing a block every
    /// [`ChainConfig::block_interval`] (simulated), or shares the one
    /// already running: a chain has at most one miner however many
    /// deployments it hosts. The miner stops when its last handle drops.
    pub fn start_miner(self: &Arc<Chain>) -> MinerHandle {
        let mut slot = self.miner.lock();
        if let Some(miner) = slot.upgrade() {
            return MinerHandle { _miner: miner };
        }
        let chain = Arc::clone(self);
        let (stop, stopped) = bounded::<()>(0);
        let due = self.clock.now().add(self.config.block_interval);
        *self.next_due.lock() = Some(due);
        let thread = std::thread::Builder::new()
            .name("wedge-miner".into())
            .spawn(move || chain.mine_until(&stopped, due))
            // lint: allow(panic) — thread spawn fails only under resource
            // exhaustion at startup; no miner means no chain progress anyway
            .expect("spawn miner");
        let miner = Arc::new(Miner {
            stop: Some(stop),
            thread: Some(thread),
        });
        *slot = Arc::downgrade(&miner);
        MinerHandle { _miner: miner }
    }

    /// The miner thread: sleeps until the block is `due`, announces the
    /// next one, one block interval on, and mines — until every handle has
    /// dropped `stopped`'s sender. Announcing first means whoever sees a
    /// receipt of this block already sees the next block's due time.
    fn mine_until(&self, stopped: &Receiver<()>, mut due: SimInstant) {
        loop {
            let wait = due.since(self.clock.now());
            let stop = match self.clock.compression() {
                Some(factor) => {
                    stopped.recv_timeout(wait.div_f64(factor)) != Err(RecvTimeoutError::Timeout)
                }
                None => {
                    self.clock.sleep(wait);
                    stopped.try_recv() == Err(TryRecvError::Disconnected)
                }
            };
            if stop {
                break;
            }
            due = self.clock.now().add(self.config.block_interval);
            *self.next_due.lock() = Some(due);
            self.mine_block();
        }
        // A miner started after the last handle dropped owns the schedule.
        let slot = self.miner.lock();
        if slot.strong_count() == 0 {
            *self.next_due.lock() = None;
        }
    }

    /// When the running miner will mine the next block, `None` when no
    /// miner runs — the in-process analogue of Ethereum's fixed slot
    /// schedule. Blocks come no earlier than this; a busy host may mine
    /// them a little later.
    pub fn next_block_due(&self) -> Option<SimInstant> {
        *self.next_due.lock()
    }

    // ------------------------------------------------------------- queries

    /// Current head block number.
    pub fn block_number(&self) -> BlockNumber {
        self.inner.lock().blocks.len() as BlockNumber - 1
    }

    /// A block by number.
    pub fn block(&self, number: BlockNumber) -> Option<Block> {
        self.inner.lock().blocks.get(number as usize).cloned()
    }

    /// Account balance.
    pub fn balance(&self, addr: Address) -> Wei {
        self.inner.lock().state.balance(addr)
    }

    /// Receipt of a mined transaction, if any.
    pub fn receipt(&self, hash: TxHash) -> Option<Receipt> {
        self.inner.lock().receipts.get(&hash).cloned()
    }

    /// Cumulative fees paid by `addr` (the bench monetary-cost metric).
    pub fn total_fees_paid(&self, addr: Address) -> Wei {
        self.inner
            .lock()
            .fees_paid
            .get(&addr)
            .copied()
            .unwrap_or(Wei::ZERO)
    }

    /// Total gas consumed across all blocks.
    pub fn total_gas_used(&self) -> Gas {
        self.inner.lock().total_gas
    }

    /// Total fees burned across all accounts (fees leave circulation; this
    /// is the conservation-law counterpart of the faucet).
    pub fn total_fees_burned(&self) -> Wei {
        Wei(self.inner.lock().fees_paid.values().map(|w| w.0).sum())
    }

    /// Transactions waiting in the mempool.
    pub fn pending_count(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Whether a contract exists at `addr`.
    pub fn contract_exists(&self, addr: Address) -> bool {
        self.inner.lock().contracts.contains_key(&addr)
    }

    /// Estimates the gas a contract call would consume (Ethereum
    /// `eth_estimateGas`): executes against clones of the contract and
    /// state, discards all effects, and returns the metered gas.
    pub fn estimate_gas(
        &self,
        from: Address,
        to: Address,
        value: Wei,
        data: &[u8],
    ) -> Result<Gas, ChainError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let block_number = inner.blocks.len() as BlockNumber - 1;
        let timestamp = self.clock.now().as_secs();
        let mut contract = inner
            .contracts
            .remove(&to)
            .ok_or(ChainError::UnknownContract(to))?;
        let pristine = contract.clone_box();
        let state_snapshot = inner.state.snapshot();
        // Credit the call value as execution would, so balance-dependent
        // paths meter realistically.
        inner.state.credit(to, value);
        let schedule = self.config.schedule;
        let intrinsic = schedule.intrinsic(data);
        let mut ctx = CallContext::new(
            from,
            value,
            to,
            block_number,
            timestamp,
            &schedule,
            intrinsic,
            self.config.block_gas_limit,
            &mut inner.state,
            &mut inner.contracts,
            false,
        );
        let result = contract.call(&mut ctx, data);
        let gas = ctx.gas_used();
        drop(ctx);
        // Discard every effect.
        inner.state = state_snapshot;
        inner.contracts.insert(to, pristine);
        match result {
            Ok(_) => Ok(gas),
            Err(revert) => Err(ChainError::Reverted(revert.reason)),
        }
    }

    /// Executes a read-only call against the current state (no gas fees, no
    /// persistence — Ethereum `eth_call`).
    pub fn view(&self, to: Address, input: &[u8]) -> Result<Vec<u8>, ChainError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let block_number = inner.blocks.len() as BlockNumber - 1;
        let timestamp = self.clock.now().as_secs();
        let mut contract = inner
            .contracts
            .remove(&to)
            .ok_or(ChainError::UnknownContract(to))?;
        let clone = contract.clone_box();
        let schedule = self.config.schedule;
        let mut ctx = CallContext::new(
            Address::ZERO,
            Wei::ZERO,
            to,
            block_number,
            timestamp,
            &schedule,
            Gas::ZERO,
            Gas(u64::MAX),
            &mut inner.state,
            &mut inner.contracts,
            true,
        );
        let result = contract.call(&mut ctx, input);
        drop(ctx);
        // Restore the pristine clone: view calls never persist mutations.
        inner.contracts.insert(to, clone);
        result.map_err(|r| ChainError::Reverted(r.reason))
    }

    /// Blocks until `hash` is mined *and* confirmed
    /// ([`ChainConfig::confirmations`] deep). Requires a running miner (or
    /// interleaved [`Chain::mine_block`] calls from another thread).
    pub fn wait_for_receipt(&self, hash: TxHash) -> Result<Receipt, ChainError> {
        self.wait_at_depth(hash, self.config.confirmations, &mut || {})
    }

    /// Blocks until `hash` is mined (depth 0), under the same patience
    /// window and receipt faults as [`Chain::wait_for_receipt`], calling
    /// `between_polls` after each poll interval it sleeps. A revert shows
    /// here as soon as it is mined; [`Chain::is_confirmed`] on the
    /// receipt's block says when a success is confirmation-deep.
    pub fn wait_for_inclusion(
        &self,
        hash: TxHash,
        mut between_polls: impl FnMut(),
    ) -> Result<Receipt, ChainError> {
        self.wait_at_depth(hash, 0, &mut between_polls)
    }

    /// Whether a transaction mined in `block` has
    /// [`ChainConfig::confirmations`] blocks on top of it. The chain has no
    /// reorgs, so once mined a transaction only ever gets deeper.
    pub fn is_confirmed(&self, block: BlockNumber) -> bool {
        self.block_number() >= block.saturating_add(self.config.confirmations)
    }

    fn wait_at_depth(
        &self,
        hash: TxHash,
        depth: u64,
        between_polls: &mut dyn FnMut(),
    ) -> Result<Receipt, ChainError> {
        // Patience is measured on the clock, not summed from the polls
        // asked for: a loaded host overruns its sleeps.
        let deadline = self.clock.now().add(self.config.receipt_timeout);
        loop {
            let now = self.clock.now();
            let deep = {
                let inner = self.inner.lock();
                inner.receipts.get(&hash).and_then(|receipt| {
                    let head = inner.blocks.len() as BlockNumber - 1;
                    (head >= receipt.block_number + depth).then(|| receipt.clone())
                })
            };
            if let Some(receipt) = deep {
                // A delay fault hides the receipt for a while — from the
                // caller's side the chain is simply congested. A sleep that
                // overran the deadline must not see past the window
                // either: the receipt is judged when patience ran out.
                if !self.faults.receipt_hidden(hash, now.min(deadline)) {
                    return Ok(receipt);
                }
            }
            if now >= deadline {
                return Err(ChainError::ReceiptTimeout(hash));
            }
            self.clock.sleep(self.config.receipt_poll);
            between_polls();
        }
    }

    /// Subscribes to all contract events (fired at mining time).
    pub fn subscribe_events(&self) -> Receiver<EventLog> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push(Subscriber {
            filter: None,
            sender: tx,
        });
        rx
    }

    /// Subscribes to events emitted by one contract only — the push-based
    /// notification pattern of paper §2.2 ("transmits information from
    /// on-chain smart contracts to off-chain subscribers").
    pub fn subscribe_contract_events(&self, contract: Address) -> Receiver<EventLog> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push(Subscriber {
            filter: Some(contract),
            sender: tx,
        });
        rx
    }

    /// The current head block.
    pub fn head(&self) -> Block {
        self.inner
            .lock()
            .blocks
            .last()
            // lint: allow(panic) — `blocks` starts with genesis, only grows
            .expect("genesis exists")
            .clone()
    }

    /// Historical blocks in `[from, to]`, clamped to the chain (an
    /// explorer-style range query).
    pub fn block_range(&self, from: BlockNumber, to: BlockNumber) -> Vec<Block> {
        let inner = self.inner.lock();
        let hi = (to as usize + 1).min(inner.blocks.len());
        let lo = (from as usize).min(hi);
        inner
            .blocks
            .get(lo..hi)
            .map(<[Block]>::to_vec)
            .unwrap_or_default()
    }

    /// All receipts of a block, in execution order (explorer view).
    pub fn block_receipts(&self, number: BlockNumber) -> Vec<Receipt> {
        let inner = self.inner.lock();
        let Some(block) = inner.blocks.get(number as usize) else {
            return Vec::new();
        };
        block
            .tx_hashes
            .iter()
            .filter_map(|h| inner.receipts.get(h).cloned())
            .collect()
    }

    /// Total transactions mined across all blocks.
    pub fn total_transactions(&self) -> u64 {
        let inner = self.inner.lock();
        inner.blocks.iter().map(|b| b.tx_hashes.len() as u64).sum()
    }
}

/// The one miner thread of a chain.
struct Miner {
    /// Dropped to stop the thread.
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Miner {
    fn drop(&mut self) {
        self.stop.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A share of the chain's miner ([`Chain::start_miner`]); the miner stops
/// when the last share is dropped.
pub struct MinerHandle {
    _miner: Arc<Miner>,
}

impl MinerHandle {
    /// Drops this share, stopping the miner and waiting for its thread
    /// when it was the last one.
    pub fn stop(self) {}
}
