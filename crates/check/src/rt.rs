//! The deterministic scheduler and DFS explorer.
//!
//! Stateless model checking by re-execution: the model closure runs many
//! times on real OS threads, but only one model thread is ever unparked at
//! a time. Every visible operation (lock, unlock, channel op, atomic op,
//! endpoint drop, join, spawn start, nondet choice) is a *scheduling
//! point*: the thread parks, the coordinator — running on the caller's
//! thread — picks who goes next. The sequence of picks is a schedule; the
//! explorer walks the tree of schedules depth-first, replaying a recorded
//! prefix and extending it at the frontier, with sleep-set pruning
//! (Godefroid) to skip commuting interleavings it has already covered.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};

// ---------------------------------------------------------------------------
// Operations and independence
// ---------------------------------------------------------------------------

/// One visible operation, as declared by a thread at its scheduling point.
/// The `usize` is the object id (or target thread for `Join`, arm count for
/// `Choice`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    Start,
    Yield,
    Lock(usize),
    Unlock(usize),
    Send(usize),
    TrySend(usize),
    Recv(usize),
    TryRecv(usize),
    Disconnect(usize),
    AtLoad(usize),
    AtStore(usize),
    Join(usize),
    Choice(usize),
}

impl Op {
    /// The shared object this op touches, if any. Purely thread-local ops
    /// return `None` and commute with everything.
    fn object(self) -> Option<usize> {
        match self {
            Op::Start | Op::Yield | Op::Choice(_) => None,
            Op::Lock(o)
            | Op::Unlock(o)
            | Op::Send(o)
            | Op::TrySend(o)
            | Op::Recv(o)
            | Op::TryRecv(o)
            | Op::Disconnect(o)
            | Op::AtLoad(o)
            | Op::AtStore(o) => Some(o),
            // Conservative: joining observes another thread's whole life.
            Op::Join(_) => None,
        }
    }

    fn describe(self) -> String {
        match self {
            Op::Start => "start".into(),
            Op::Yield => "yield".into(),
            Op::Lock(o) => format!("lock(o{o})"),
            Op::Unlock(o) => format!("unlock(o{o})"),
            Op::Send(o) => format!("send(o{o})"),
            Op::TrySend(o) => format!("try_send(o{o})"),
            Op::Recv(o) => format!("recv(o{o})"),
            Op::TryRecv(o) => format!("try_recv(o{o})"),
            Op::Disconnect(o) => format!("disconnect(o{o})"),
            Op::AtLoad(o) => format!("load(o{o})"),
            Op::AtStore(o) => format!("store(o{o})"),
            Op::Join(t) => format!("join(t{t})"),
            Op::Choice(n) => format!("choice({n})"),
        }
    }
}

/// Two ops are independent when executing them in either order reaches the
/// same state: different objects, purely local ops, or two plain loads of
/// the same atomic. `Join` is conservatively dependent with everything.
fn independent(a: Op, b: Op) -> bool {
    if matches!(a, Op::Join(_)) || matches!(b, Op::Join(_)) {
        return false;
    }
    match (a.object(), b.object()) {
        (None, _) | (_, None) => true,
        (Some(x), Some(y)) if x != y => true,
        _ => matches!((a, b), (Op::AtLoad(_), Op::AtLoad(_))),
    }
}

/// What a granted operation resolved to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) enum Outcome {
    /// The op proceeded (lock taken, message slot reserved, …).
    #[default]
    Ok,
    /// A channel op observed the other side gone.
    Disconnected,
    /// `try_send` on a full queue.
    Full,
    /// `try_recv` on an empty queue.
    Empty,
    /// The arm a `Choice` resolved to.
    Arm(usize),
    /// The run is being torn down; unwind/return quickly.
    Abort,
}

// ---------------------------------------------------------------------------
// Shared runtime state
// ---------------------------------------------------------------------------

pub(crate) enum ObjState {
    Lock {
        held: bool,
    },
    Chan {
        len: usize,
        cap: usize,
        senders: usize,
        receivers: usize,
    },
    Atomic,
}

#[derive(Default)]
struct RtState {
    objects: Vec<ObjState>,
    /// Threads parked at a scheduling point, with the op they want.
    waiting: BTreeMap<usize, Op>,
    finished: BTreeSet<usize>,
    /// Total threads registered this run (tids are 0..spawned).
    spawned: usize,
    /// The single thread currently allowed to run.
    granted: Option<usize>,
    /// Outcome for the thread being granted.
    outcome: Outcome,
    /// Tear-down mode: every scheduling point returns `Abort` immediately.
    abort: bool,
    /// First failure observed this run (later ones are tear-down noise).
    failure: Option<String>,
    /// Executed (tid, op) pairs, for the failure report.
    trace: Vec<(usize, Op)>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Runtime {
    state: StdMutex<RtState>,
    cv: Condvar,
}

fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Runtime {
    fn new() -> Arc<Runtime> {
        Arc::new(Runtime {
            state: StdMutex::new(RtState::default()),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn register_object(&self, obj: ObjState) -> usize {
        let mut st = relock(self.state.lock());
        st.objects.push(obj);
        st.objects.len() - 1
    }

    pub(crate) fn register_thread(&self) -> usize {
        let mut st = relock(self.state.lock());
        let tid = st.spawned;
        st.spawned += 1;
        tid
    }

    pub(crate) fn stash_handle(&self, h: std::thread::JoinHandle<()>) {
        relock(self.state.lock()).os_handles.push(h);
    }

    /// Adjusts a channel's endpoint counts without a scheduling point
    /// (cloning can never *disable* anything: counts only grow).
    pub(crate) fn chan_clone(&self, id: usize, sender: bool) {
        let mut st = relock(self.state.lock());
        if let ObjState::Chan {
            senders, receivers, ..
        } = &mut st.objects[id]
        {
            if sender {
                *senders += 1;
            } else {
                *receivers += 1;
            }
        }
    }

    /// Parks the calling thread at a scheduling point and blocks until the
    /// coordinator grants it. Object-state effects of the op are applied
    /// here, under the state lock, before user code continues.
    pub(crate) fn sched_point(&self, me: usize, op: Op) -> Outcome {
        let mut st = relock(self.state.lock());
        if st.abort {
            return Outcome::Abort;
        }
        st.waiting.insert(me, op);
        st.granted = None;
        self.cv.notify_all();
        loop {
            if st.abort {
                st.waiting.remove(&me);
                self.cv.notify_all();
                return Outcome::Abort;
            }
            if st.granted == Some(me) {
                break;
            }
            st = relock(self.cv.wait(st));
        }
        st.waiting.remove(&me);
        let outcome = st.outcome;
        Self::apply(&mut st, op, outcome);
        outcome
    }

    /// Applies the coordinator-visible effect of a granted op.
    fn apply(st: &mut RtState, op: Op, outcome: Outcome) {
        match op {
            Op::Lock(id) => {
                if let ObjState::Lock { held } = &mut st.objects[id] {
                    *held = true;
                }
            }
            Op::Unlock(id) => {
                if let ObjState::Lock { held } = &mut st.objects[id] {
                    *held = false;
                }
            }
            Op::Send(id) | Op::TrySend(id) if outcome == Outcome::Ok => {
                if let ObjState::Chan { len, .. } = &mut st.objects[id] {
                    *len += 1;
                }
            }
            Op::Send(_) | Op::TrySend(_) => {}
            Op::Recv(id) | Op::TryRecv(id) if outcome == Outcome::Ok => {
                if let ObjState::Chan { len, .. } = &mut st.objects[id] {
                    *len -= 1;
                }
            }
            Op::Recv(_) | Op::TryRecv(_) => {}
            Op::Disconnect(id) => {
                if let ObjState::Chan {
                    senders, receivers, ..
                } = &mut st.objects[id]
                {
                    // The endpoint records which side it is via outcome-free
                    // convention: Disconnect is emitted by Sender and
                    // Receiver drops; the caller adjusts counts directly.
                    let _ = (senders, receivers);
                }
            }
            _ => {}
        }
    }

    /// Directly decrements an endpoint count (called by the endpoint drop
    /// *after* its `Disconnect` scheduling point was granted).
    pub(crate) fn chan_drop(&self, id: usize, sender: bool) {
        let mut st = relock(self.state.lock());
        if let ObjState::Chan {
            senders, receivers, ..
        } = &mut st.objects[id]
        {
            if sender {
                *senders = senders.saturating_sub(1);
            } else {
                *receivers = receivers.saturating_sub(1);
            }
        }
    }

    pub(crate) fn thread_finished(&self, me: usize) {
        let mut st = relock(self.state.lock());
        st.finished.insert(me);
        st.waiting.remove(&me);
        if st.granted == Some(me) {
            st.granted = None;
        }
        self.cv.notify_all();
    }

    pub(crate) fn record_panic(&self, me: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut st = relock(self.state.lock());
        if st.abort || st.failure.is_some() {
            return; // tear-down noise
        }
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic>".to_string());
        st.failure = Some(format!("thread t{me} panicked: {msg}"));
        st.abort = true;
        self.cv.notify_all();
    }

    /// Whether an op could proceed right now if granted.
    fn enabled(st: &RtState, op: Op) -> bool {
        match op {
            Op::Lock(id) => matches!(st.objects[id], ObjState::Lock { held: false }),
            Op::Send(id) => match st.objects[id] {
                ObjState::Chan {
                    len,
                    cap,
                    receivers,
                    ..
                } => receivers == 0 || len < cap,
                _ => true,
            },
            Op::Recv(id) => match st.objects[id] {
                ObjState::Chan { len, senders, .. } => len > 0 || senders == 0,
                _ => true,
            },
            Op::Join(tid) => st.finished.contains(&tid),
            _ => true,
        }
    }

    /// The outcome a (currently enabled) op resolves to.
    fn resolve(st: &RtState, op: Op) -> Outcome {
        match op {
            Op::Send(id) | Op::TrySend(id) => match st.objects[id] {
                ObjState::Chan {
                    len,
                    cap,
                    receivers,
                    ..
                } => {
                    if receivers == 0 {
                        Outcome::Disconnected
                    } else if len < cap {
                        Outcome::Ok
                    } else {
                        Outcome::Full
                    }
                }
                _ => Outcome::Ok,
            },
            Op::Recv(id) | Op::TryRecv(id) => match st.objects[id] {
                ObjState::Chan { len, senders, .. } => {
                    if len > 0 {
                        Outcome::Ok
                    } else if senders == 0 {
                        Outcome::Disconnected
                    } else {
                        Outcome::Empty
                    }
                }
                _ => Outcome::Ok,
            },
            _ => Outcome::Ok,
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local current runtime
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Runtime>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

pub(crate) fn current() -> (Arc<Runtime>, usize) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("check:: primitives may only be used inside check::explore")
    })
}

fn set_current(rt: Arc<Runtime>, tid: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((rt, tid)));
}

/// Runs `f` as model thread `tid`: registers the runtime in TLS, parks at
/// the `Start` scheduling point, and reports finish/panic to the runtime.
pub(crate) fn run_model_thread<T, F>(
    rt: Arc<Runtime>,
    tid: usize,
    slot: Arc<StdMutex<Option<T>>>,
    f: F,
) where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    set_current(rt.clone(), tid);
    let result = catch_unwind(AssertUnwindSafe(|| {
        if rt.sched_point(tid, Op::Start) == Outcome::Abort {
            return None;
        }
        Some(f())
    }));
    match result {
        Ok(Some(v)) => *relock(slot.lock()) = Some(v),
        Ok(None) => {}
        Err(payload) => rt.record_panic(tid, payload),
    }
    rt.thread_finished(tid);
}

// ---------------------------------------------------------------------------
// The DFS explorer
// ---------------------------------------------------------------------------

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Stop after this many completed schedules.
    pub max_schedules: usize,
    /// Fail a run that makes more scheduling decisions than this (a model
    /// that spins forever would otherwise hang the explorer).
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_schedules: 1_000_000,
            max_steps: 20_000,
        }
    }
}

/// What exploring a model produced.
#[derive(Clone, Debug)]
pub struct Report {
    /// Complete schedules executed.
    pub explored: usize,
    /// Alternatives skipped by sleep-set pruning (plus sleep-blocked runs).
    pub pruned: usize,
    /// The first invariant violation, deadlock, or panic found, with the
    /// schedule that produced it. `None` means every explored interleaving
    /// upheld the model's asserts.
    pub failure: Option<String>,
}

impl Report {
    /// Panics with the failure message if any interleaving failed.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "model checking failed after {} schedules: {f}",
                self.explored
            );
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            None => write!(
                f,
                "ok: {} schedules explored, {} pruned, all invariants held",
                self.explored, self.pruned
            ),
            Some(err) => write!(
                f,
                "FAILED after {} schedules ({} pruned): {err}",
                self.explored, self.pruned
            ),
        }
    }
}

/// One decision node in the schedule tree.
enum Node {
    Sched {
        /// Threads enabled at this state, in tid order.
        enabled: Vec<usize>,
        /// The op each parked thread would run (for independence checks).
        ops: BTreeMap<usize, Op>,
        /// Threads whose subtrees are already covered; never (re)picked.
        sleep: BTreeSet<usize>,
        /// Threads actually explored from here.
        tried: BTreeSet<usize>,
        /// The pick for the run in progress.
        cur: usize,
    },
    Arm {
        arms: usize,
        cur: usize,
    },
}

/// Explores every schedule of `model` within `config`'s bounds.
pub fn explore<F>(config: Config, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let mut stack: Vec<Node> = Vec::new();
    let mut explored = 0usize;
    let mut pruned = 0usize;
    let mut failure = None;

    loop {
        let rt = Runtime::new();
        let run = run_once(&rt, &mut stack, &model, &config);
        match run {
            RunResult::Complete => explored += 1,
            RunResult::SleepBlocked => pruned += 1,
            RunResult::Failed(msg) => {
                explored += 1;
                failure = Some(msg);
                break;
            }
        }
        if explored >= config.max_schedules {
            break;
        }
        if !advance(&mut stack, &mut pruned) {
            break;
        }
    }
    Report {
        explored,
        pruned,
        failure,
    }
}

/// Explores with default bounds.
pub fn check<F>(model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    explore(Config::default(), model)
}

enum RunResult {
    Complete,
    /// Every enabled thread was asleep at a fresh node: this run is a
    /// permutation of one already explored.
    SleepBlocked,
    Failed(String),
}

/// Executes one run, replaying `stack[..]`'s picks and extending the stack
/// at the frontier.
fn run_once(
    rt: &Arc<Runtime>,
    stack: &mut Vec<Node>,
    model: &Arc<dyn Fn() + Send + Sync>,
    config: &Config,
) -> RunResult {
    // Thread 0 runs the model closure itself.
    let tid = rt.register_thread();
    debug_assert_eq!(tid, 0);
    let slot = Arc::new(StdMutex::new(None::<()>));
    {
        let rt2 = rt.clone();
        let model = model.clone();
        let slot = slot.clone();
        let h = std::thread::Builder::new()
            .name("model-t0".into())
            .spawn(move || run_model_thread(rt2, 0, slot, move || model()))
            .expect("spawn model thread");
        rt.stash_handle(h);
    }

    let mut depth = 0usize;
    let mut sleep_blocked = false;
    let mut st = relock(rt.state.lock());
    loop {
        // Wait until every registered thread is parked or finished.
        while st.granted.is_some() || st.waiting.len() + st.finished.len() < st.spawned {
            st = relock(rt.cv.wait(st));
        }
        if st.finished.len() == st.spawned {
            break; // run over (normally or after abort drain)
        }
        if st.abort {
            // Threads only park before abort flips; wake any stragglers.
            rt.cv.notify_all();
            st = relock(rt.cv.wait(st));
            continue;
        }
        let enabled: Vec<usize> = st
            .waiting
            .iter()
            .filter(|(_, &op)| Runtime::enabled(&st, op))
            .map(|(&tid, _)| tid)
            .collect();
        if enabled.is_empty() {
            let parked: Vec<String> = st
                .waiting
                .iter()
                .map(|(t, op)| format!("t{t}:{}", op.describe()))
                .collect();
            st.failure = Some(format!(
                "deadlock: every thread is blocked ({})",
                parked.join(", ")
            ));
            st.abort = true;
            rt.cv.notify_all();
            continue;
        }
        if st.trace.len() >= config.max_steps {
            st.failure = Some(format!(
                "model exceeded max_steps ({}): likely non-termination",
                config.max_steps
            ));
            st.abort = true;
            rt.cv.notify_all();
            continue;
        }

        // Pick the next thread: replay the stack, or extend it.
        let pick = if depth < stack.len() {
            match &stack[depth] {
                Node::Sched { cur, .. } => *cur,
                Node::Arm { .. } => unreachable!("Arm node at a thread decision"),
            }
        } else {
            let sleep0 = inherited_sleep(stack, &st.waiting);
            match enabled.iter().copied().find(|t| !sleep0.contains(t)) {
                Some(t) => {
                    let ops = st.waiting.clone();
                    let mut tried = BTreeSet::new();
                    tried.insert(t);
                    stack.push(Node::Sched {
                        enabled: enabled.clone(),
                        ops,
                        sleep: sleep0,
                        tried,
                        cur: t,
                    });
                    t
                }
                None => {
                    // All enabled threads are asleep: nothing new down here.
                    sleep_blocked = true;
                    st.abort = true;
                    rt.cv.notify_all();
                    continue;
                }
            }
        };
        depth += 1;
        let op = st.waiting[&pick];

        // A Choice op carries a second, arm-level decision.
        let mut outcome = Runtime::resolve(&st, op);
        if let Op::Choice(arms) = op {
            let arm = if depth < stack.len() {
                match &stack[depth] {
                    Node::Arm { cur, .. } => *cur,
                    Node::Sched { .. } => unreachable!("Sched node at an arm decision"),
                }
            } else {
                stack.push(Node::Arm { arms, cur: 0 });
                0
            };
            depth += 1;
            outcome = Outcome::Arm(arm);
        }

        st.trace.push((pick, op));
        st.outcome = outcome;
        st.granted = Some(pick);
        rt.cv.notify_all();
    }

    let failure = st.failure.take();
    let trace = std::mem::take(&mut st.trace);
    let handles = std::mem::take(&mut st.os_handles);
    drop(st);
    for h in handles {
        let _ = h.join();
    }

    if let Some(msg) = failure {
        if sleep_blocked {
            // A failure after the run was already being torn down as
            // redundant cannot happen (abort suppresses later failures),
            // but keep the branch total.
            return RunResult::SleepBlocked;
        }
        let shown: Vec<String> = trace
            .iter()
            .rev()
            .take(40)
            .rev()
            .map(|(t, op)| format!("t{t}:{}", op.describe()))
            .collect();
        let ellipsis = if trace.len() > 40 { "… " } else { "" };
        return RunResult::Failed(format!(
            "{msg}\n  schedule: {ellipsis}{}",
            shown.join(" → ")
        ));
    }
    if sleep_blocked {
        return RunResult::SleepBlocked;
    }
    RunResult::Complete
}

/// The sleep set a fresh node inherits: every thread asleep at the nearest
/// `Sched` ancestor whose pending op is independent of the op that ancestor
/// just ran (Godefroid's sleep-set propagation). Threads that moved since
/// (no longer parked on the same op) are dropped conservatively.
fn inherited_sleep(stack: &[Node], waiting: &BTreeMap<usize, Op>) -> BTreeSet<usize> {
    for node in stack.iter().rev() {
        if let Node::Sched {
            ops, sleep, cur, ..
        } = node
        {
            let cur_op = ops[cur];
            return sleep
                .iter()
                .copied()
                .filter(|s| waiting.get(s) == Some(&ops[s]) && independent(ops[s], cur_op))
                .collect();
        }
    }
    BTreeSet::new()
}

/// Moves the stack to the next unexplored schedule; false when exhausted.
fn advance(stack: &mut Vec<Node>, pruned: &mut usize) -> bool {
    loop {
        let Some(top) = stack.last_mut() else {
            return false;
        };
        match top {
            Node::Arm { arms, cur } => {
                *cur += 1;
                if *cur < *arms {
                    return true;
                }
                stack.pop();
            }
            Node::Sched {
                enabled,
                sleep,
                tried,
                cur,
                ..
            } => {
                sleep.insert(*cur);
                if let Some(next) = enabled.iter().copied().find(|t| !sleep.contains(t)) {
                    tried.insert(next);
                    *cur = next;
                    return true;
                }
                *pruned += enabled.iter().filter(|t| !tried.contains(t)).count();
                stack.pop();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Nondeterministic choice
// ---------------------------------------------------------------------------

/// Explores every value in `0..n` as a separate branch.
pub fn nondet(n: usize) -> usize {
    assert!(n > 0, "nondet(0) has no arms");
    let (rt, me) = current();
    match rt.sched_point(me, Op::Choice(n)) {
        Outcome::Arm(k) => k,
        _ => 0, // abort tear-down: any arm will do
    }
}

/// Explores both booleans as separate branches.
pub fn nondet_bool() -> bool {
    nondet(2) == 1
}

/// A scheduling point with no effect: lets the explorer interleave here.
pub fn yield_now() {
    let (rt, me) = current();
    let _ = rt.sched_point(me, Op::Yield);
}
