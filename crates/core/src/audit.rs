//! The transcript auditor: one verdict on a whole run, from what its
//! clients hold and what the chain recorded — never from the node's own
//! counters. A log's guarantees are checked from the public record, not
//! from a participant's memory.
//!
//! A run collects a [`Transcript`] as it goes and reads the chain's record
//! into it with [`Transcript::read_chain`]; [`audit`] then does no I/O.
//! Every response is judged by [`judge`], the function the client roles
//! decide with. `docs/protocol.md` §5 maps each check to its guarantee.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use wedge_chain::{Address, Chain, Decoder, TxHash};
use wedge_contracts::Punishment;
use wedge_crypto::hash::Hash32;
use wedge_crypto::PublicKey;

use crate::api::LogService;
use crate::client::{judge, EvidenceKind, RootLookup, Stage2Verdict};
use crate::error::CoreError;
use crate::node_key::NodeKey;
use crate::types::{EntryId, SignedResponse};

/// Everything an auditor needs to judge a run.
pub struct Transcript {
    /// The node's key: only responses it signed are evidence (Algorithm 2,
    /// line 2).
    pub node: PublicKey,
    /// Every signed response clients were handed, in arrival order.
    pub replies: Vec<SignedResponse>,
    /// Each restart of the node, in order: how many replies had arrived
    /// before it, and the log it recovered read back (`log[i]` is position
    /// `i`'s responses).
    pub restarts: Vec<(usize, Vec<Vec<SignedResponse>>)>,
    /// Each `Invoke-Punishment` a client sent: the response it presented
    /// and the transaction that carried it.
    pub punishments: Vec<(SignedResponse, TxHash)>,
    /// What the chain recorded, in execution order.
    pub chain: Vec<Fact>,
}

/// One fact the chain recorded, from a mined receipt.
#[derive(Clone, Debug)]
pub enum Fact {
    /// `RecordsUpdated(start, …)`, with the digests the Root Record holds
    /// from `start` on.
    RecordsUpdated(u64, Vec<Hash32>),
    /// [`Transcript::punishments`]`[call]` ran: `None` when it reverted,
    /// else whether it seized the escrow.
    Invoked(usize, Option<bool>),
    /// A `Punished` event: the escrow was paid out.
    Punished,
}

/// A guarantee the run broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A held response that does not recover to the node's key.
    Unsigned(EntryId),
    /// Definition 3.1: a response is punishable, and the escrow was never
    /// paid.
    Unpunished,
    /// A payout while no held response is punishable.
    Framed,
    /// The escrow was paid more than once.
    PaidTwice,
    /// A punishment call whose outcome is not Algorithm 2's, given the
    /// chain when it ran.
    Misjudged(EntryId),
    /// Definition 3.2: two committed responses for one entry disagree.
    Disagree(EntryId),
    /// Definition 3.2 and exactly-once commit: a write starting off the
    /// Root Record's tail rewrites a position or skips one.
    OutOfOrder(u64),
    /// Reply ⇒ durable: a reply missing from a later restart's log.
    Lost(EntryId),
    /// Gapless positions: a recovered position that is empty or holds an
    /// entry out of place.
    Gap(u64),
    /// A restart recovers each entry once: a recovered entry whose request
    /// the same log already holds at an earlier place.
    Duplicate(EntryId),
}

/// [`audit`]'s verdict on a transcript.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Every guarantee the run broke.
    pub violations: Vec<Violation>,
    /// Algorithm 2's lies: the first punishable response held at each
    /// position, in the order held.
    pub lies: Vec<(EntryId, EvidenceKind)>,
    /// Positions with held responses the Root Record does not hold yet.
    pub pending: BTreeSet<u64>,
    /// `Punished` events.
    pub payouts: usize,
}

impl Verdict {
    /// No guarantee broken.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// Safe, and the Root Record holds every position clients hold a
    /// response for.
    pub fn is_settled(&self) -> bool {
        self.is_safe() && self.pending.is_empty()
    }
}

impl Transcript {
    /// An empty transcript of the node with key `node`.
    pub fn new(node: PublicKey) -> Transcript {
        Transcript {
            node,
            replies: Vec::new(),
            restarts: Vec::new(),
            punishments: Vec::new(),
            chain: Vec::new(),
        }
    }

    /// Records a restart: reads back every position `node` recovered. A
    /// position that does not read back is recorded empty (a gap).
    pub fn restarted(&mut self, node: &dyn LogService) {
        let log = (0..node.positions())
            .map(|log_id| node.read_position(log_id).unwrap_or_default())
            .collect();
        self.restarts.push((self.replies.len(), log));
    }

    /// Replaces [`Transcript::chain`] with what the chain's receipts say
    /// about `root_record`, `punishment` and the punishment calls.
    pub fn read_chain(
        &mut self,
        chain: &Arc<Chain>,
        root_record: Address,
        punishment: Address,
    ) -> Result<(), CoreError> {
        let calls: HashMap<TxHash, usize> = (self.punishments.iter().enumerate())
            .map(|(call, (_, tx))| (*tx, call))
            .collect();
        let roots = RootLookup::new(Arc::clone(chain), root_record);
        self.chain.clear();
        for receipt in (1..=chain.block_number()).flat_map(|n| chain.block_receipts(n)) {
            if let Some(&call) = calls.get(&receipt.tx_hash) {
                let seized = (receipt.status.is_success())
                    .then(|| Punishment::decode_invoke_result(&receipt.output))
                    .flatten();
                self.chain.push(Fact::Invoked(call, seized));
            }
            for log in &receipt.logs {
                if log.contract == punishment && log.name == "Punished" {
                    self.chain.push(Fact::Punished);
                }
                if log.contract != root_record || log.name != "RecordsUpdated" {
                    continue;
                }
                let mut data = Decoder::new(&log.data);
                let (Ok(start), Ok(count)) = (data.u64(), data.u64()) else {
                    continue;
                };
                let written = (start..start.saturating_add(count))
                    .map(|log_id| Ok(roots.root(log_id)?.unwrap_or(Hash32::ZERO)))
                    .collect::<Result<_, CoreError>>()?;
                self.chain.push(Fact::RecordsUpdated(start, written));
            }
        }
        Ok(())
    }
}

/// Judges a run: Definitions 3.1 and 3.2, exactly-once commit, at most one
/// payout (and one when a lie exists), reply ⇒ durable across every later
/// restart, gapless positions, and each entry recovered once. Pure: reads
/// only the transcript.
pub fn audit(t: &Transcript) -> Verdict {
    let mut verdict = Verdict::default();
    let violations = &mut verdict.violations;
    let node = NodeKey::new(t.node);
    // The Root Record replayed from its writes: `roots[i]` is position i's.
    let mut roots: Vec<Hash32> = Vec::new();
    for fact in &t.chain {
        match fact {
            Fact::RecordsUpdated(start, _) if *start != roots.len() as u64 => {
                violations.push(Violation::OutOfOrder(*start));
            }
            Fact::RecordsUpdated(_, written) => roots.extend(written),
            Fact::Invoked(call, seized) => {
                let Some((response, _)) = t.punishments.get(*call) else {
                    continue;
                };
                let onchain = roots.get(response.entry_id.log_id as usize).copied();
                let expected = match judge(response, onchain) {
                    _ if verdict.payouts > 0 || !node.recovers(response) => None,
                    Stage2Verdict::NotYet => None,
                    Stage2Verdict::Committed => Some(false),
                    Stage2Verdict::Punishable(_) => Some(true),
                };
                if expected != *seized {
                    violations.push(Violation::Misjudged(response.entry_id));
                }
            }
            Fact::Punished => verdict.payouts += 1,
        }
    }

    // What the node handed out must carry its signature; what a client
    // presents for punishment may be anything.
    let handed_out = (t.replies.iter())
        .chain(t.restarts.iter().flat_map(|(_, log)| log.iter().flatten()))
        .map(|response| (response, true));
    let presented = t.punishments.iter().map(|(response, _)| (response, false));
    let mut committed: HashMap<EntryId, &[u8]> = HashMap::new();
    for (response, signed) in handed_out.chain(presented) {
        let id = response.entry_id;
        if !node.recovers(response) {
            if signed {
                violations.push(Violation::Unsigned(id));
            }
            continue;
        }
        match judge(response, roots.get(id.log_id as usize).copied()) {
            Stage2Verdict::NotYet => {
                verdict.pending.insert(id.log_id);
            }
            Stage2Verdict::Punishable(kind) => {
                if !verdict.lies.iter().any(|(lie, _)| lie.log_id == id.log_id) {
                    verdict.lies.push((id, kind));
                }
            }
            Stage2Verdict::Committed => {
                if *committed.entry(id).or_insert(&response.leaf) != response.leaf {
                    violations.push(Violation::Disagree(id));
                }
            }
        }
    }
    match (verdict.lies.is_empty(), verdict.payouts) {
        (false, 0) => violations.push(Violation::Unpunished),
        (true, 1..) => violations.push(Violation::Framed),
        _ => {}
    }
    if verdict.payouts > 1 {
        violations.push(Violation::PaidTwice);
    }

    for (replies_before, log) in &t.restarts {
        let mut recovered = HashSet::new();
        for (log_id, position) in (0u64..).zip(log) {
            let in_place = (0u32..)
                .zip(position)
                .all(|(offset, response)| response.entry_id == EntryId { log_id, offset });
            if position.is_empty() || !in_place {
                violations.push(Violation::Gap(log_id));
            }
            for response in position {
                if !recovered.insert(&response.leaf) {
                    violations.push(Violation::Duplicate(response.entry_id));
                }
            }
        }
        for reply in t.replies.iter().take(*replies_before) {
            let id = reply.entry_id;
            let kept = (log.get(id.log_id as usize))
                .and_then(|position| position.get(id.offset as usize))
                .is_some_and(|r| r.merkle_root == reply.merkle_root && r.leaf == reply.leaf);
            if !kept {
                violations.push(Violation::Lost(id));
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::Keypair;

    fn transcript(chain: Vec<Fact>) -> Transcript {
        Transcript {
            chain,
            ..Transcript::new(Keypair::from_seed(b"audit-node").public)
        }
    }

    #[test]
    fn a_write_off_the_tail_is_a_rewrite_or_a_gap() {
        let write = |start, n| Fact::RecordsUpdated(start, vec![Hash32([7; 32]); n]);
        let verdict = audit(&transcript(vec![write(0, 2), write(1, 1), write(3, 1)]));
        assert_eq!(
            verdict.violations,
            [Violation::OutOfOrder(1), Violation::OutOfOrder(3)]
        );
        assert!(verdict.pending.is_empty() && verdict.lies.is_empty());
    }

    #[test]
    fn payouts_without_a_lie_frame_the_node_and_the_second_pays_twice() {
        let verdict = audit(&transcript(vec![Fact::Punished, Fact::Punished]));
        assert_eq!(verdict.payouts, 2);
        assert_eq!(
            verdict.violations,
            [Violation::Framed, Violation::PaidTwice]
        );
        assert!(audit(&transcript(Vec::new())).is_settled());
    }

    #[test]
    fn a_restart_that_recovers_an_entry_twice_is_caught() {
        let key = Keypair::from_seed(b"audit-node").secret;
        let proof = wedge_merkle::MerkleProof {
            leaf_index: 0,
            leaf_count: 1,
            path: Vec::new(),
        };
        let at = |log_id| EntryId { log_id, offset: 0 };
        let sign = |id| SignedResponse::sign(&key, id, Hash32::ZERO, proof.clone(), vec![1]);
        let mut t = transcript(Vec::new());
        t.restarts
            .push((0, vec![vec![sign(at(0))], vec![sign(at(1))]]));
        assert_eq!(audit(&t).violations, [Violation::Duplicate(at(1))]);
    }
}
