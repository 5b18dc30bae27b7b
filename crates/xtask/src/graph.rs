//! The token-tree lints: one guard-region walker for L5, L6, L7 and L9,
//! and the channel graph for L8.
//!
//! Both work on the functions of the analysis corpus (`CONCURRENCY_CORPUS`:
//! the node, net, cluster and storage sources). The walker goes through
//! every function body once and reports each lock acquisition and each
//! guarded operation together with the regions live at that token: a
//! let-bound lock guard (until `drop(guard)` or the end of its scope), the
//! argument span of a `Shared::mutate(..)` call (which holds `write_plane`),
//! or a whole writer/accept function. A closure handed to `spawn` starts
//! with no live region (it is a new thread), and a call to a corpus
//! function is inlined one level deep: while a region is live, the callee's
//! own acquisitions and operations count at the call site.
//!
//! * **L7 lock-order** — an acquisition while another guard is live is an
//!   edge `held → taken`; a cycle in the union graph is two threads taking
//!   the same pair of locks in opposite orders, a deadlock waiting for the
//!   right interleaving.
//! * **L5 `lock`, L6 `plane`, L9 `blocking`** — one row each of
//!   `GUARD_RULES`: the region that arms the rule, the operations it
//!   forbids while that region is live, and the files it covers.
//! * **L8 channel-capacity cycles** — extracts every `bounded(N)` /
//!   `unbounded()` channel and the send/recv sites that connect thread
//!   functions, then flags a cycle made entirely of *bounded* edges whose
//!   sends are all *blocking* (`send()` with no `try_send` / `send_timeout`
//!   shed path). A full queue anywhere on such a ring wedges every thread
//!   on it — the shape of the PR 5 slow-client hang.
//!
//! The analyses are advisory and name-based (a field called `stats` is
//! assumed to be the same logical lock everywhere); the escape hatch for a
//! reviewed false positive is the usual allow comment with a reason.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::tree::{extract_fns, tokenize, FnItem, Token, TokenKind};
use crate::{mask_source, suppressor, Diagnostic, Lint, MaskedLine};

/// One corpus file, parsed once and shared by the analyses.
pub struct SourceFile {
    /// Path used in diagnostics (workspace-relative).
    pub rel: PathBuf,
    /// Masked lines (for the allow machinery).
    pub lines: Vec<MaskedLine>,
    /// The token tree.
    pub tokens: Vec<Token>,
    /// Extracted `fn` items (non-test only).
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Parses source text into the corpus representation.
    pub fn parse(rel: PathBuf, text: &str) -> SourceFile {
        let lines = mask_source(text);
        let tokens = tokenize(&lines);
        let fns = extract_fns(&tokens)
            .into_iter()
            .filter(|f| !f.in_test)
            .collect();
        SourceFile {
            rel,
            lines,
            tokens,
            fns,
        }
    }
}

/// Runs L5–L9 over the corpus. Returned diagnostics include suppressed
/// ones (`suppressed_by` set); the caller filters.
pub fn lint_concurrency(files: &[SourceFile]) -> Vec<Diagnostic> {
    let events = walk_corpus(files);
    let mut diags = lint_lock_order(files, &events);
    diags.extend(lint_channel_cycles(files));
    diags.extend(lint_guard_rules(files, &events));
    diags
}

fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "match"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "fn"
            | "move"
            | "in"
            | "else"
            | "break"
            | "continue"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
    )
}

/// Matches `name.lock()` / `name.read()` / `name.write()` (empty argument
/// list — `read(&mut buf)` is I/O, not a lock) at `toks[i..]`. Returns the
/// lock name, the 0-based line of the lock word, and tokens consumed.
fn match_lock_call(toks: &[Token], i: usize) -> Option<(String, usize, usize)> {
    let name = toks.get(i)?.ident()?;
    if !toks.get(i + 1)?.is_punct('.') {
        return None;
    }
    let word = toks.get(i + 2)?.ident()?;
    if !matches!(word, "lock" | "read" | "write") {
        return None;
    }
    if !toks.get(i + 3)?.group('(')?.is_empty() {
        return None;
    }
    Some((name.to_string(), toks[i + 2].line, 4))
}

/// Matches a call at `toks[i..]` (the index of the name) that can be
/// resolved to a same-named `fn` in this corpus: a free call `name(...)`,
/// a path call `path::name(...)`, or a `self.name(...)` method call.
/// Method calls on any other receiver (`guard.flush()`, `stream.shutdown()`)
/// are skipped — the receiver's type is unknown here, so inlining by name
/// alone would attribute some unrelated function's behaviour to the caller.
/// Definitions (`fn name(`) and keywords don't count either.
fn match_call(toks: &[Token], i: usize) -> Option<&str> {
    let name = toks[i].ident()?;
    if is_keyword(name) {
        return None;
    }
    toks.get(i + 1)?.group('(')?;
    if i >= 1 && toks[i - 1].ident() == Some("fn") {
        return None;
    }
    if i >= 1 && toks[i - 1].is_punct('.') && (i < 2 || toks[i - 2].ident() != Some("self")) {
        return None;
    }
    Some(name)
}

// ---------------------------------------------------------------------------
// The guard-region walker
// ---------------------------------------------------------------------------

/// A region live at some token.
#[derive(Clone, Debug)]
struct Held {
    /// The guard variable, `mutate`, or the worker function's name.
    name: String,
    /// The lock it holds; `None` for a writer/accept function region.
    lock: Option<String>,
}

/// An operation some guard rule forbids: any `.store.` access, a
/// `replicate_*()`, `sign()` / `sign_batch()` / `sign_prehashed*()` or
/// durability (`ensure_durable()`, `fsync()`, `sync_all()`, `sync_data()`)
/// call, a channel `.send()`, `TcpStream::connect()` or `thread::sleep()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Store,
    Replicate,
    Sign,
    Durable,
    Send,
    Connect,
    Sleep,
}

/// What the walker saw at one token.
#[derive(Clone, Debug, PartialEq)]
enum What {
    /// A lock acquisition.
    Acquire(String),
    /// A guarded operation and its description.
    Op(Op, String),
}

/// One walker report: what happened on which 0-based line, which regions
/// were live, and a note for diagnostics: the call an inlined event came
/// through, or that an acquisition opens a `mutate` span; else empty.
struct Event {
    line: usize,
    what: What,
    why: String,
    live: Vec<Held>,
}

/// Matches an [`Op`] at `toks[i..]`, with its description.
fn match_op(toks: &[Token], i: usize) -> Option<(Op, String)> {
    let at = |k: usize| toks.get(i + k);
    if toks[i].is_punct('.') {
        return match at(1)?.ident()? {
            "store" if at(2)?.is_punct('.') => Some((Op::Store, "`.store.` I/O".to_string())),
            "send" if at(2)?.group('(').is_some() => {
                Some((Op::Send, "channel `send()`".to_string()))
            }
            _ => None,
        };
    }
    let name = toks[i].ident()?;
    at(1)?.group('(')?;
    if i >= 1 && toks[i - 1].ident() == Some("fn") {
        return None;
    }
    let after_path = |target: &str| {
        i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].ident() == Some(target)
    };
    let (op, kind) = match name {
        "ensure_durable" | "fsync" | "sync_all" | "sync_data" => {
            (Op::Durable, "storage durability")
        }
        "sign" | "sign_batch" => (Op::Sign, "signing"),
        _ if name.starts_with("sign_prehashed") => (Op::Sign, "signing"),
        _ if name.starts_with("replicate_") => (Op::Replicate, "replication"),
        "connect" if after_path("TcpStream") => {
            let desc = "`TcpStream::connect()` (unbounded blocking connect)";
            return Some((Op::Connect, desc.to_string()));
        }
        "sleep" if after_path("thread") => {
            return Some((Op::Sleep, "`thread::sleep()`".to_string()))
        }
        _ => return None,
    };
    Some((op, format!("`{name}()` ({kind})")))
}

/// Everything a function does directly, in order of first appearance:
/// what a call to it contributes under one-level inlining.
type Summaries = BTreeMap<String, Vec<What>>;

struct Walker<'a> {
    /// `None` while the summaries themselves are built (no inlining).
    inline: Option<&'a Summaries>,
    events: Vec<Event>,
}

impl Walker<'_> {
    fn emit(&mut self, live: &[Held], line: usize, what: What, why: &str) {
        self.events.push(Event {
            line,
            what,
            why: why.to_string(),
            live: live.to_vec(),
        });
    }

    fn walk(&mut self, toks: &[Token], live: &mut Vec<Held>, fn_name: &str) {
        let mut i = 0;
        while i < toks.len() {
            // `drop(guard)` retires the guard.
            if toks[i].ident() == Some("drop") {
                if let Some(children) = toks.get(i + 1).and_then(|t| t.group('(')) {
                    if let [only] = children {
                        if let Some(name) = only.ident() {
                            live.retain(|held| held.name != name);
                        }
                    }
                    i += 2;
                    continue;
                }
            }
            // `Shared::mutate(..)` holds the write-plane lock for the span
            // of its argument list (the closure runs under the guard).
            if toks[i].is_punct('.') && toks.get(i + 1).and_then(|t| t.ident()) == Some("mutate") {
                if let Some(children) = toks.get(i + 2).and_then(|t| t.group('(')) {
                    let lock = "write_plane".to_string();
                    let line = toks[i + 1].line;
                    self.emit(
                        live,
                        line,
                        What::Acquire(lock.clone()),
                        "Shared::mutate region",
                    );
                    live.push(Held {
                        name: "mutate".to_string(),
                        lock: Some(lock),
                    });
                    self.walk(children, live, fn_name);
                    live.retain(|held| held.name != "mutate");
                    i += 3;
                    continue;
                }
            }
            // A lock acquisition, and a new guard when it is the whole
            // right-hand side of a `let`.
            if let Some((lock, line, n)) = match_lock_call(toks, i) {
                self.emit(live, line, What::Acquire(lock.clone()), "");
                if toks.get(i + n).is_some_and(|t| t.is_punct(';')) {
                    if let Some(name) = stmt_let_binding(toks, i) {
                        live.push(Held {
                            name,
                            lock: Some(lock),
                        });
                    }
                }
                i += n;
                continue;
            }
            if let Some((op, desc)) = match_op(toks, i) {
                let line = toks[i + usize::from(toks[i].is_punct('.'))].line;
                self.emit(live, line, What::Op(op, desc), "");
            }
            // One-level inlining: a call made while a region is live counts
            // everything the callee does directly.
            if let (Some(summaries), Some(callee)) = (self.inline, match_call(toks, i)) {
                if !live.is_empty() && callee != fn_name {
                    let why = format!("via call to `{callee}()`");
                    for what in summaries.get(callee).into_iter().flatten() {
                        self.emit(live, toks[i].line, what.clone(), &why);
                    }
                }
            }
            if let TokenKind::Group(_, children) = &toks[i].kind {
                // A closure handed to `spawn` (or `spawn_scoped`) runs on a
                // fresh thread: it does not inherit the caller's live
                // regions.
                if i >= 1 && starts_thread(&toks[i - 1]) {
                    self.walk(children, &mut Vec::new(), fn_name);
                } else {
                    let mark = live.len();
                    self.walk(children, live, fn_name);
                    live.truncate(mark);
                }
            }
            i += 1;
        }
    }
}

/// Whether `tok` names a call that runs its closure argument on a new
/// thread: `thread::spawn`, a scope's `spawn`, or `Builder::spawn_scoped`.
fn starts_thread(tok: &Token) -> bool {
    matches!(tok.ident(), Some("spawn" | "spawn_scoped"))
}

fn is_worker_region(name: &str) -> bool {
    name.contains("writer") || name.contains("accept")
}

fn walk_fn(f: &FnItem, inline: Option<&Summaries>) -> Vec<Event> {
    let mut walker = Walker {
        inline,
        events: Vec::new(),
    };
    let mut live = Vec::new();
    if is_worker_region(&f.name) {
        live.push(Held {
            name: f.name.clone(),
            lock: None,
        });
    }
    walker.walk(&f.body, &mut live, &f.name);
    walker.events
}

/// Walks every corpus function twice: once to summarise what each does
/// directly (same-named functions merge), then with those summaries
/// inlined at call sites. Returns the second walk's events, per file.
fn walk_corpus(files: &[SourceFile]) -> Vec<Vec<Event>> {
    let mut summaries = Summaries::new();
    for f in files.iter().flat_map(|file| &file.fns) {
        let summary = summaries.entry(f.name.clone()).or_default();
        for event in walk_fn(f, None) {
            if !summary.contains(&event.what) {
                summary.push(event.what);
            }
        }
    }
    files
        .iter()
        .map(|file| {
            file.fns
                .iter()
                .flat_map(|f| walk_fn(f, Some(&summaries)))
                .collect()
        })
        .collect()
}

/// Finds the `let [mut] name =` opening the statement that the token at
/// `at` belongs to (scanning back to the previous `;` at this level).
fn stmt_let_binding(toks: &[Token], at: usize) -> Option<String> {
    let mut start = at;
    while start > 0 && !toks[start - 1].is_punct(';') {
        start -= 1;
    }
    if toks.get(start)?.ident()? != "let" {
        return None;
    }
    let mut j = start + 1;
    if toks.get(j)?.ident() == Some("mut") {
        j += 1;
    }
    let name = toks.get(j)?.ident()?;
    if !toks.get(j + 1)?.is_punct('=') {
        return None;
    }
    if name == "_" {
        return None;
    }
    Some(name.to_string())
}

// ---------------------------------------------------------------------------
// L7: lock-order cycles
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct LockEdge {
    from: String,
    to: String,
    file: usize,
    line: usize, // 0-based
    why: String,
}

fn lint_lock_order(files: &[SourceFile], events: &[Vec<Event>]) -> Vec<Diagnostic> {
    // An acquisition while a guard is live orders the two locks.
    let mut edges: Vec<LockEdge> = Vec::new();
    for (file, events) in events.iter().enumerate() {
        for event in events {
            let What::Acquire(lock) = &event.what else {
                continue;
            };
            for held in event.live.iter().filter_map(|held| held.lock.as_ref()) {
                let edge = LockEdge {
                    from: held.clone(),
                    to: lock.clone(),
                    file,
                    line: event.line,
                    why: event.why.clone(),
                };
                if !edges.iter().any(|e| {
                    (&e.from, &e.to, e.file, e.line) == (&edge.from, &edge.to, file, edge.line)
                }) {
                    edges.push(edge);
                }
            }
        }
    }

    let suppressed: Vec<Option<usize>> = edges
        .iter()
        .map(|e| suppressor(&files[e.file].lines, e.line, Lint::LockOrder))
        .collect();

    let mut diags = Vec::new();
    // Live findings: cycles among unsuppressed edges only (an allow on one
    // edge of a ring deliberately breaks the ring).
    let active: Vec<&LockEdge> = edges
        .iter()
        .zip(&suppressed)
        .filter(|(_, s)| s.is_none())
        .map(|(e, _)| e)
        .collect();
    for edge in &active {
        if let Some(path) = cycle_path(&active, &edge.from, &edge.to) {
            diags.push(lock_diag(files, edge, &path, None));
        }
    }
    // Suppressed findings (for the `--allows` staleness audit): an allow
    // marker stays "used" while the edge it hides would still close a
    // cycle in the full graph.
    let all: Vec<&LockEdge> = edges.iter().collect();
    for (edge, sup) in edges.iter().zip(&suppressed) {
        if let Some(marker) = sup {
            if let Some(path) = cycle_path(&all, &edge.from, &edge.to) {
                diags.push(lock_diag(files, edge, &path, Some(*marker)));
            }
        }
    }
    diags
}

fn lock_diag(
    files: &[SourceFile],
    edge: &LockEdge,
    path: &[String],
    suppressed_by: Option<usize>,
) -> Diagnostic {
    let mut cycle = String::new();
    for name in path {
        let _ = write!(cycle, "`{name}` → ");
    }
    let _ = write!(
        cycle,
        "`{}`",
        path.first().map(String::as_str).unwrap_or("")
    );
    let via = if edge.why.is_empty() {
        String::new()
    } else {
        format!(" ({})", edge.why)
    };
    Diagnostic {
        file: files[edge.file].rel.clone(),
        line: edge.line + 1,
        lint: Lint::LockOrder,
        message: format!(
            "acquiring `{}` while holding `{}`{via} closes the lock-order cycle {cycle}; \
             two threads taking these locks in opposite orders deadlock — pick one order \
             (suppress with `// lint: allow(lockorder) — <reason>`)",
            edge.to, edge.from
        ),
        suppressed_by,
    }
}

/// If adding `from → to` closes a cycle (i.e. `from` is reachable from
/// `to` over the given edges), returns the lock names along one shortest
/// `from → … → from` cycle, starting at `from`.
fn cycle_path<E: std::borrow::Borrow<LockEdge>>(
    edges: &[E],
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    if from == to {
        return Some(vec![from.to_string()]);
    }
    // BFS from `to` back to `from`.
    let mut prev: BTreeMap<String, String> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(to.to_string());
    let mut seen = BTreeSet::new();
    seen.insert(to.to_string());
    while let Some(node) = queue.pop_front() {
        if node == from {
            // Reconstruct from → to → … → from.
            let mut path = vec![from.to_string()];
            let mut cur = from.to_string();
            while let Some(p) = prev.get(&cur) {
                path.push(p.clone());
                cur = p.clone();
            }
            path.reverse();
            let mut out = vec![from.to_string()];
            out.extend(path.into_iter().filter(|n| n != from));
            return Some(out);
        }
        for e in edges {
            let e = e.borrow();
            if e.from == node && !seen.contains(&e.to) {
                seen.insert(e.to.clone());
                prev.insert(e.to.clone(), node.clone());
                queue.push_back(e.to.clone());
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// L8: bounded-channel cycles
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Channel {
    bounded: bool,
    cap: String,
    line: usize, // 0-based decl line
}

#[derive(Clone, Debug)]
struct ChanSite {
    fn_idx: usize,
    name: String,
    op: String,
    line: usize,
    in_spawn: bool,
}

#[derive(Clone, Debug)]
struct CallSite {
    caller: usize,
    callee: String,
    /// For each argument position, the single identifier it passes (after
    /// stripping `&`/`mut`/`.clone()`), if it is that simple.
    args: Vec<Option<String>>,
    spawned: bool,
}

const SEND_OPS: &[&str] = &["send", "try_send", "send_timeout"];
const RECV_OPS: &[&str] = &["recv", "try_recv", "recv_timeout"];

/// Per-file channel extraction: declarations, aliases, send/recv sites,
/// and call sites for parameter resolution.
struct FileChannels {
    channels: Vec<Channel>,
    /// endpoint name → channel index.
    names: BTreeMap<String, usize>,
    sites: Vec<ChanSite>,
    calls: Vec<CallSite>,
}

fn extract_channels(file: &SourceFile) -> FileChannels {
    let mut fc = FileChannels {
        channels: Vec::new(),
        names: BTreeMap::new(),
        sites: Vec::new(),
        calls: Vec::new(),
    };
    // Declarations: `let (tx, rx) = bounded::<T>(cap);` / `= unbounded();`.
    fn decl_scan(toks: &[Token], fc: &mut FileChannels) {
        let mut i = 0;
        while i < toks.len() {
            if let TokenKind::Group(_, children) = &toks[i].kind {
                decl_scan(children, fc);
            }
            if toks[i].ident() == Some("let") {
                if let Some((tx, rx)) = tuple_binding(toks, i + 1) {
                    if let Some((bounded, cap, line)) = channel_ctor(toks, i + 2) {
                        let key = fc.channels.len();
                        fc.channels.push(Channel { bounded, cap, line });
                        fc.names.insert(tx, key);
                        fc.names.insert(rx, key);
                    }
                }
            }
            i += 1;
        }
    }
    decl_scan(&file.tokens, &mut fc);

    // Aliases: `let a = b;` / `let a = b.clone();` and struct-literal field
    // inits `field: endpoint`. Iterated so chains resolve.
    for _ in 0..3 {
        alias_scan(&file.tokens, &mut fc.names);
    }

    // Send/recv sites and call sites, per function.
    for (fn_idx, f) in file.fns.iter().enumerate() {
        site_scan(&f.body, fn_idx, false, &mut fc);
    }
    fc
}

/// Matches a `(a, b)` tuple pattern at `toks[at]`, returning both names.
fn tuple_binding(toks: &[Token], at: usize) -> Option<(String, String)> {
    let children = toks.get(at)?.group('(')?;
    let idents: Vec<&str> = children.iter().filter_map(|t| t.ident()).collect();
    let puncts = children.iter().filter(|t| t.is_punct(',')).count();
    if puncts != 1 {
        return None;
    }
    // Allow `mut` on either binding.
    let names: Vec<&&str> = idents.iter().filter(|s| **s != "mut").collect();
    if names.len() != 2 {
        return None;
    }
    Some((names[0].to_string(), names[1].to_string()))
}

/// Matches `= bounded…(cap);` / `= unbounded…();` starting at the `=`.
fn channel_ctor(toks: &[Token], at: usize) -> Option<(bool, String, usize)> {
    if !toks.get(at)?.is_punct('=') {
        return None;
    }
    let ctor = toks.get(at + 1)?.ident()?;
    let bounded = match ctor {
        "bounded" => true,
        "unbounded" => false,
        _ => return None,
    };
    let line = toks[at + 1].line;
    // Skip an optional turbofish (which may itself contain paren groups,
    // e.g. `bounded::<(u64, Reply)>`): the argument list is the *last*
    // paren group before the terminating `;`.
    let mut args = None;
    let mut j = at + 2;
    while j < toks.len() && !toks[j].is_punct(';') {
        if let Some(children) = toks[j].group('(') {
            args = Some(children);
        }
        j += 1;
    }
    let cap = args.map(flatten_tokens).unwrap_or_default();
    Some((bounded, cap, line))
}

fn flatten_tokens(toks: &[Token]) -> String {
    let mut out = String::new();
    for t in toks {
        match &t.kind {
            TokenKind::Ident(s) => {
                if !out.is_empty() && out.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    out.push(' ');
                }
                out.push_str(s);
            }
            TokenKind::Punct(c) => out.push(*c),
            TokenKind::Group(d, children) => {
                out.push(*d);
                out.push_str(&flatten_tokens(children));
                out.push(match d {
                    '(' => ')',
                    '[' => ']',
                    _ => '}',
                });
            }
        }
    }
    out
}

fn alias_scan(toks: &[Token], names: &mut BTreeMap<String, usize>) {
    let mut i = 0;
    while i < toks.len() {
        if let TokenKind::Group(_, children) = &toks[i].kind {
            alias_scan(children, names);
        }
        // `let a = b;` / `let a = b.clone();`
        if toks[i].ident() == Some("let") {
            let mut j = i + 1;
            if toks.get(j).and_then(|t| t.ident()) == Some("mut") {
                j += 1;
            }
            if let (Some(a), Some(eq)) = (toks.get(j).and_then(|t| t.ident()), toks.get(j + 1)) {
                if eq.is_punct('=') {
                    if let Some(b) = simple_endpoint_expr(&toks[j + 2..]) {
                        if let Some(&key) = names.get(&b) {
                            names.entry(a.to_string()).or_insert(key);
                        }
                    }
                }
            }
        }
        // Struct-literal field init `field: endpoint` (single colon).
        if i >= 1
            && toks[i].is_punct(':')
            && !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks[i - 1].is_punct(':')
        {
            let field = toks[i - 1].ident();
            let value = toks.get(i + 1).and_then(|t| t.ident());
            let terminated = match toks.get(i + 2) {
                None => true,
                Some(t) => t.is_punct(','),
            };
            if let (Some(field), Some(value)) = (field, value) {
                if terminated {
                    if let Some(&key) = names.get(value) {
                        names.entry(field.to_string()).or_insert(key);
                    }
                }
            }
        }
        i += 1;
    }
}

/// Matches an expression that is just an endpoint: `name;`,
/// `name.clone();` — returns the name.
fn simple_endpoint_expr(toks: &[Token]) -> Option<String> {
    let name = toks.first()?.ident()?;
    match toks.get(1) {
        Some(t) if t.is_punct(';') => Some(name.to_string()),
        Some(t) if t.is_punct('.') => {
            if toks.get(2)?.ident()? == "clone"
                && toks.get(3)?.group('(')?.is_empty()
                && toks.get(4)?.is_punct(';')
            {
                Some(name.to_string())
            } else {
                None
            }
        }
        _ => None,
    }
}

fn site_scan(toks: &[Token], fn_idx: usize, in_spawn: bool, fc: &mut FileChannels) {
    let mut i = 0;
    while i < toks.len() {
        // `name.op(` where op is a channel operation.
        if let (Some(name), Some(dot), Some(op)) = (
            toks[i].ident(),
            toks.get(i + 1),
            toks.get(i + 2).and_then(|t| t.ident()),
        ) {
            if dot.is_punct('.')
                && (SEND_OPS.contains(&op) || RECV_OPS.contains(&op))
                && toks.get(i + 3).and_then(|t| t.group('(')).is_some()
            {
                fc.sites.push(ChanSite {
                    fn_idx,
                    name: name.to_string(),
                    op: op.to_string(),
                    line: toks[i + 2].line,
                    in_spawn,
                });
            }
        }
        // Plain calls `callee(args)` for parameter resolution.
        if let Some(callee) = match_call(toks, i) {
            if let Some(group) = toks.get(i + 1).and_then(|t| t.group('(')) {
                let args = split_args(group)
                    .into_iter()
                    .map(|arg| arg_endpoint(&arg))
                    .collect();
                fc.calls.push(CallSite {
                    caller: fn_idx,
                    callee: callee.to_string(),
                    args,
                    spawned: in_spawn,
                });
            }
        }
        if let TokenKind::Group(_, children) = &toks[i].kind {
            let spawned = in_spawn || (i >= 1 && starts_thread(&toks[i - 1]));
            site_scan(children, fn_idx, spawned, fc);
        }
        i += 1;
    }
}

fn split_args(children: &[Token]) -> Vec<Vec<Token>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    for t in children {
        if t.is_punct(',') {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push(t.clone());
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The single identifier an argument passes, if the argument is that
/// simple (`x`, `&x`, `&mut x`, `x.clone()`).
fn arg_endpoint(arg: &[Token]) -> Option<String> {
    let mut toks: Vec<&Token> = arg.iter().collect();
    while toks
        .first()
        .is_some_and(|t| t.is_punct('&') || t.ident() == Some("mut"))
    {
        toks.remove(0);
    }
    let name = toks.first()?.ident()?;
    match toks.len() {
        1 => Some(name.to_string()),
        4 => {
            if toks[1].is_punct('.')
                && toks[2].ident() == Some("clone")
                && toks[3].group('(').is_some_and(<[Token]>::is_empty)
            {
                Some(name.to_string())
            } else {
                None
            }
        }
        _ => None,
    }
}

#[derive(Clone, Debug)]
struct ChanEdge {
    from: String,
    to: String,
    channel: usize,
    blocking: bool,
    bounded: bool,
    line: usize, // 0-based line of the send site anchoring the edge
}

/// (fn, param position) → every (channel, caller, spawned) binding.
type ParamResolution = BTreeMap<(usize, usize), Vec<(usize, usize, bool)>>;

fn lint_channel_cycles(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        let fc = extract_channels(file);
        if fc.channels.is_empty() {
            continue;
        }
        // Resolve parameter-passed endpoints to channels, to a fixpoint.
        let mut param_res: ParamResolution = BTreeMap::new();
        let fn_index: BTreeMap<&str, usize> = file
            .fns
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        for _ in 0..4 {
            let mut changed = false;
            for call in &fc.calls {
                let Some(&callee) = fn_index.get(call.callee.as_str()) else {
                    continue;
                };
                for (pos, arg) in call.args.iter().enumerate() {
                    let Some(arg) = arg else { continue };
                    let mut bindings: Vec<(usize, usize, bool)> = Vec::new();
                    if let Some(&key) = fc.names.get(arg) {
                        bindings.push((key, call.caller, call.spawned));
                    } else if let Some(q) =
                        file.fns[call.caller].params.iter().position(|p| p == arg)
                    {
                        if let Some(upstream) = param_res.get(&(call.caller, q)) {
                            for &(key, ..) in upstream.clone().iter() {
                                bindings.push((key, call.caller, call.spawned));
                            }
                        }
                    }
                    let entry = param_res.entry((callee, pos)).or_default();
                    for b in bindings {
                        if !entry.contains(&b) {
                            entry.push(b);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Thread-owner attribution for a function's sites: the function
        // itself when it is spawned as a thread entry (or never called in
        // this file); otherwise the owners of its same-thread callers.
        let spawn_called: BTreeSet<usize> = fc
            .calls
            .iter()
            .filter(|c| c.spawned)
            .filter_map(|c| fn_index.get(c.callee.as_str()).copied())
            .collect();
        let callers_of = |f: usize| -> Vec<usize> {
            fc.calls
                .iter()
                .filter(|c| !c.spawned && fn_index.get(c.callee.as_str()) == Some(&f))
                .map(|c| c.caller)
                .collect()
        };
        fn owners_rec(
            f: usize,
            depth: usize,
            visiting: &mut BTreeSet<usize>,
            spawn_called: &BTreeSet<usize>,
            callers_of: &dyn Fn(usize) -> Vec<usize>,
        ) -> BTreeSet<usize> {
            let mut out = BTreeSet::new();
            let callers = callers_of(f);
            if depth == 0 || spawn_called.contains(&f) || callers.is_empty() {
                out.insert(f);
            }
            if depth > 0 && !visiting.contains(&f) {
                visiting.insert(f);
                for c in callers {
                    out.extend(owners_rec(c, depth - 1, visiting, spawn_called, callers_of));
                }
                visiting.remove(&f);
            }
            out
        }
        let owners = |f: usize| -> BTreeSet<usize> {
            let mut visiting = BTreeSet::new();
            owners_rec(f, 4, &mut visiting, &spawn_called, &callers_of)
        };

        // Resolve each site to (channel, owning thread functions).
        struct Resolved {
            channel: usize,
            owner: usize,
            op: String,
            line: usize,
        }
        let mut resolved: Vec<Resolved> = Vec::new();
        for site in &fc.sites {
            let mut push = |channel: usize, owner_set: BTreeSet<usize>| {
                for owner in owner_set {
                    resolved.push(Resolved {
                        channel,
                        owner,
                        op: site.op.clone(),
                        line: site.line,
                    });
                }
            };
            if let Some(&key) = fc.names.get(&site.name) {
                if site.in_spawn {
                    // A send inside a spawned closure belongs to the thread
                    // started there, not to the enclosing function's callers.
                    push(key, BTreeSet::from([site.fn_idx]));
                } else {
                    push(key, owners(site.fn_idx));
                }
            } else if let Some(pos) = file.fns[site.fn_idx]
                .params
                .iter()
                .position(|p| *p == site.name)
            {
                if let Some(bindings) = param_res.get(&(site.fn_idx, pos)) {
                    for &(key, caller, spawned) in bindings.clone().iter() {
                        if spawned {
                            push(key, BTreeSet::from([site.fn_idx]));
                        } else {
                            push(key, owners(caller));
                        }
                    }
                }
            }
        }

        // Edges: every (sender thread → receiver thread) pair per channel.
        let mut edges: Vec<ChanEdge> = Vec::new();
        for (key, chan) in fc.channels.iter().enumerate() {
            let senders: Vec<&Resolved> = resolved
                .iter()
                .filter(|r| r.channel == key && SEND_OPS.contains(&r.op.as_str()))
                .collect();
            let receivers: BTreeSet<usize> = resolved
                .iter()
                .filter(|r| r.channel == key && RECV_OPS.contains(&r.op.as_str()))
                .map(|r| r.owner)
                .collect();
            for s in &senders {
                for &r in &receivers {
                    if s.owner == r {
                        continue;
                    }
                    let edge = ChanEdge {
                        from: file.fns[s.owner].name.clone(),
                        to: file.fns[r].name.clone(),
                        channel: key,
                        blocking: s.op == "send",
                        bounded: chan.bounded,
                        line: s.line,
                    };
                    let dup = edges.iter_mut().find(|e| {
                        e.from == edge.from && e.to == edge.to && e.channel == edge.channel
                    });
                    match dup {
                        // A blocking send site dominates a shedding one on
                        // the same edge (the edge can block).
                        Some(e) => {
                            if edge.blocking && !e.blocking {
                                e.blocking = true;
                                e.line = edge.line;
                            }
                        }
                        None => edges.push(edge),
                    }
                }
            }
        }

        // Hard edges — bounded channel, blocking send, no shed — are the
        // only ones that can wedge; a cycle made entirely of them deadlocks
        // once every queue on the ring is full.
        let hard: Vec<&ChanEdge> = edges.iter().filter(|e| e.bounded && e.blocking).collect();
        let suppressed: Vec<Option<usize>> = hard
            .iter()
            .map(|e| suppressor(&file.lines, e.line, Lint::ChannelCycle))
            .collect();
        let active: Vec<&ChanEdge> = hard
            .iter()
            .zip(&suppressed)
            .filter(|(_, s)| s.is_none())
            .map(|(e, _)| *e)
            .collect();
        for edge in &active {
            if let Some(path) = chan_cycle_path(&active, edge) {
                diags.push(chan_diag(file, &fc, edge, &path, None));
            }
        }
        for (edge, sup) in hard.iter().zip(&suppressed) {
            if let Some(marker) = sup {
                if let Some(path) = chan_cycle_path(&hard, edge) {
                    diags.push(chan_diag(file, &fc, edge, &path, Some(*marker)));
                }
            }
        }
    }
    diags
}

/// If `edge` lies on a cycle of hard edges, returns the thread functions
/// along it, starting at `edge.from`.
fn chan_cycle_path(edges: &[&ChanEdge], edge: &ChanEdge) -> Option<Vec<String>> {
    // BFS from edge.to back to edge.from over hard edges.
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(edge.to.as_str());
    let mut seen: BTreeSet<&str> = BTreeSet::from([edge.to.as_str()]);
    while let Some(node) = queue.pop_front() {
        if node == edge.from {
            let mut path = vec![edge.from.clone()];
            let mut cur = edge.from.as_str();
            while let Some(&p) = prev.get(cur) {
                if p == edge.from {
                    break;
                }
                path.push(p.to_string());
                cur = p;
            }
            path.reverse();
            let mut out = vec![edge.from.clone()];
            out.extend(path.into_iter().filter(|n| *n != edge.from));
            return Some(out);
        }
        for e in edges {
            if e.from == node && !seen.contains(e.to.as_str()) {
                seen.insert(e.to.as_str());
                prev.insert(e.to.as_str(), node);
                queue.push_back(e.to.as_str());
            }
        }
    }
    None
}

fn chan_diag(
    file: &SourceFile,
    fc: &FileChannels,
    edge: &ChanEdge,
    path: &[String],
    suppressed_by: Option<usize>,
) -> Diagnostic {
    let chan = &fc.channels[edge.channel];
    let mut ring = String::new();
    for name in path {
        let _ = write!(ring, "`{name}` → ");
    }
    let _ = write!(ring, "`{}`", path.first().map(String::as_str).unwrap_or(""));
    Diagnostic {
        file: file.rel.clone(),
        line: edge.line + 1,
        lint: Lint::ChannelCycle,
        message: format!(
            "blocking `send()` on the bounded({}) channel declared on line {} closes the \
             channel cycle {ring} with no shed path; once every queue on the ring is full all \
             of these threads wedge — use `try_send`/`send_timeout` or break the ring \
             (suppress with `// lint: allow(chan) — <reason>`)",
            chan.cap,
            chan.line + 1
        ),
        suppressed_by,
    }
}

// ---------------------------------------------------------------------------
// L5, L6, L9: operations forbidden while a region is live
// ---------------------------------------------------------------------------

/// One guard rule: while its region is live, none of its operations may
/// run, directly or through a one-level call.
struct GuardRule {
    lint: Lint,
    /// The lock whose guard arms the rule; `None` arms it for the whole
    /// body of a writer/accept function.
    region: Option<&'static str>,
    ops: &'static [Op],
    /// Path prefix of the files the rule covers (`None`: the whole corpus).
    scope: Option<&'static str>,
    /// The finding, with `{op}` and `{region}` filled in.
    message: &'static str,
}

const GUARD_RULES: &[GuardRule] = &[
    GuardRule {
        lint: Lint::LockAcrossSend,
        region: Some("stats"),
        ops: &[Op::Send],
        scope: Some("crates/core/src/node"),
        message: "{op} while the `{region}` guard (Shared.stats) is held risks deadlock and \
                  blocks readers; drop the guard first",
    },
    GuardRule {
        lint: Lint::WritePlaneAcrossIo,
        region: Some("write_plane"),
        ops: &[Op::Store, Op::Replicate, Op::Sign, Op::Durable, Op::Send],
        scope: Some("crates/core/src/node"),
        message: "{op} inside the write-plane region `{region}` stalls every writer and \
                  delays snapshot publication; do the I/O before or after the mutation",
    },
    GuardRule {
        lint: Lint::BlockingInWorker,
        region: None,
        ops: &[Op::Durable, Op::Connect, Op::Sleep],
        scope: None,
        message: "{op} inside the worker region `{region}` stalls the RPC plane for every \
                  connected client; move storage-speed work to a pipeline thread",
    },
];

/// At most one finding per rule and line.
fn lint_guard_rules(files: &[SourceFile], events: &[Vec<Event>]) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (file, events) in files.iter().zip(events) {
        for rule in GUARD_RULES {
            if rule.scope.is_some_and(|scope| !file.rel.starts_with(scope)) {
                continue;
            }
            for event in events {
                let What::Op(op, desc) = &event.what else {
                    continue;
                };
                let Some(region) = event
                    .live
                    .iter()
                    .find(|held| held.lock.as_deref() == rule.region)
                else {
                    continue;
                };
                let line = event.line + 1;
                if !rule.ops.contains(op)
                    || diags
                        .iter()
                        .any(|d| d.lint == rule.lint && d.file == file.rel && d.line == line)
                {
                    continue;
                }
                let op = if event.why.is_empty() {
                    desc.clone()
                } else {
                    format!("{desc} {}", event.why)
                };
                let message = rule
                    .message
                    .replace("{op}", &op)
                    .replace("{region}", &region.name);
                diags.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    lint: rule.lint,
                    message: format!(
                        "{message} (suppress with `// lint: allow({}) — <reason>`)",
                        rule.lint.allow_name()
                    ),
                    suppressed_by: suppressor(&file.lines, event.line, rule.lint),
                });
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn corpus(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter()
            .map(|(name, text)| SourceFile::parse(Path::new(name).to_path_buf(), text))
            .collect()
    }

    /// Findings of one lint over `files`, suppressed ones included.
    fn findings(lint: Lint, files: &[SourceFile]) -> Vec<Diagnostic> {
        lint_concurrency(files)
            .into_iter()
            .filter(|d| d.lint == lint)
            .collect()
    }

    fn active(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags
            .into_iter()
            .filter(|d| d.suppressed_by.is_none())
            .collect()
    }

    #[test]
    fn l7_flags_inverted_lock_order() {
        let src = "fn f(shared: &Shared) {\n\
                   \x20   let stats = shared.stats.lock();\n\
                   \x20   let plane = shared.write_plane.lock();\n\
                   \x20   drop(plane);\n\
                   \x20   drop(stats);\n\
                   }\n\
                   fn g(shared: &Shared) {\n\
                   \x20   let plane = shared.write_plane.lock();\n\
                   \x20   let stats = shared.stats.lock();\n\
                   }\n";
        let diags = active(findings(Lint::LockOrder, &corpus(&[("a.rs", src)])));
        assert!(!diags.is_empty(), "inversion must be flagged");
        assert!(diags[0].message.contains("lock-order cycle"));
    }

    #[test]
    fn l7_consistent_order_is_clean() {
        let src = "fn f(shared: &Shared) {\n\
                   \x20   let stats = shared.stats.lock();\n\
                   \x20   let plane = shared.write_plane.lock();\n\
                   }\n\
                   fn g(shared: &Shared) {\n\
                   \x20   let stats = shared.stats.lock();\n\
                   \x20   shared.write_plane.lock().bump();\n\
                   }\n";
        assert!(active(findings(Lint::LockOrder, &corpus(&[("a.rs", src)]))).is_empty());
    }

    #[test]
    fn l7_inlines_one_call_level() {
        let a = "fn f(shared: &Shared) {\n\
                 \x20   let stats = shared.stats.lock();\n\
                 \x20   helper(shared);\n\
                 }\n";
        let b = "fn helper(shared: &Shared) {\n\
                 \x20   let plane = shared.write_plane.lock();\n\
                 }\n\
                 fn g(shared: &Shared) {\n\
                 \x20   let plane = shared.write_plane.lock();\n\
                 \x20   let stats = shared.stats.lock();\n\
                 }\n";
        let diags = active(findings(
            Lint::LockOrder,
            &corpus(&[("a.rs", a), ("b.rs", b)]),
        ));
        assert!(!diags.is_empty(), "cycle through a callee must be flagged");
    }

    #[test]
    fn l7_guard_tracking_respects_drop_scope_and_temporaries() {
        // drop() ends the region; a temporary never opens one; a spawned
        // closure does not inherit the caller's guards.
        let src = "fn f(shared: &Shared) {\n\
                   \x20   let stats = shared.stats.lock();\n\
                   \x20   drop(stats);\n\
                   \x20   let plane = shared.write_plane.lock();\n\
                   }\n\
                   fn g(shared: &Shared) {\n\
                   \x20   shared.write_plane.lock().bump();\n\
                   \x20   let stats = shared.stats.lock();\n\
                   }\n\
                   fn h(shared: &Shared) {\n\
                   \x20   let plane = shared.write_plane.lock();\n\
                   \x20   thread::spawn(move || {\n\
                   \x20       let stats = shared.stats.lock();\n\
                   \x20   });\n\
                   }\n";
        assert!(active(findings(Lint::LockOrder, &corpus(&[("a.rs", src)]))).is_empty());
    }

    #[test]
    fn l7_follows_multiline_method_chains() {
        // A guard binding may wrap across lines: the lock call and its `;`
        // need not share a line with the `let`.
        let src = "fn f(shared: &Shared) {\n\
                   \x20   let stats = shared\n\
                   \x20       .stats\n\
                   \x20       .lock();\n\
                   \x20   let plane = shared.write_plane.lock();\n\
                   }\n\
                   fn g(shared: &Shared) {\n\
                   \x20   let plane = shared\n\
                   \x20       .write_plane\n\
                   \x20       .lock();\n\
                   \x20   let stats = shared.stats.lock();\n\
                   }\n";
        let diags = active(findings(Lint::LockOrder, &corpus(&[("a.rs", src)])));
        assert!(!diags.is_empty(), "wrapped chains must still bind guards");
    }

    #[test]
    fn l8_flags_bounded_blocking_ring() {
        let src = "fn setup() {\n\
                   \x20   let (req_tx, req_rx) = bounded::<u64>(1);\n\
                   \x20   let (resp_tx, resp_rx) = bounded::<u64>(1);\n\
                   \x20   thread::spawn(move || client(req_tx, resp_rx));\n\
                   \x20   thread::spawn(move || server(req_rx, resp_tx));\n\
                   }\n\
                   fn client(req_tx: Sender<u64>, resp_rx: Receiver<u64>) {\n\
                   \x20   req_tx.send(1).unwrap();\n\
                   \x20   let _ = resp_rx.recv();\n\
                   }\n\
                   fn server(req_rx: Receiver<u64>, resp_tx: Sender<u64>) {\n\
                   \x20   resp_tx.send(2).unwrap();\n\
                   \x20   let _ = req_rx.recv();\n\
                   }\n";
        let diags = active(lint_channel_cycles(&corpus(&[("a.rs", src)])));
        assert!(!diags.is_empty(), "bounded blocking ring must be flagged");
        assert!(diags[0].message.contains("channel cycle"));
    }

    #[test]
    fn l8_spawn_scoped_starts_a_thread() {
        // The ring of `l8_flags_bounded_blocking_ring`, its ends started
        // through named scoped threads: still two threads, still a cycle.
        let src = "fn setup() {\n\
                   \x20   let (req_tx, req_rx) = bounded::<u64>(1);\n\
                   \x20   let (resp_tx, resp_rx) = bounded::<u64>(1);\n\
                   \x20   thread::scope(|scope| {\n\
                   \x20       let a = Builder::new().name(\"a\".into());\n\
                   \x20       a.spawn_scoped(scope, move || client(req_tx, resp_rx));\n\
                   \x20       let b = Builder::new().name(\"b\".into());\n\
                   \x20       b.spawn_scoped(scope, move || server(req_rx, resp_tx));\n\
                   \x20   });\n\
                   }\n\
                   fn client(req_tx: Sender<u64>, resp_rx: Receiver<u64>) {\n\
                   \x20   req_tx.send(1).unwrap();\n\
                   \x20   let _ = resp_rx.recv();\n\
                   }\n\
                   fn server(req_rx: Receiver<u64>, resp_tx: Sender<u64>) {\n\
                   \x20   resp_tx.send(2).unwrap();\n\
                   \x20   let _ = req_rx.recv();\n\
                   }\n";
        let diags = active(lint_channel_cycles(&corpus(&[("a.rs", src)])));
        assert!(!diags.is_empty(), "a spawn_scoped ring must be flagged");
        assert!(diags[0].message.contains("channel cycle"));

        // A guard held by the scope's owner is not held inside the
        // scoped thread.
        let src = "fn h(shared: &Shared) {\n\
                   \x20   let plane = shared.write_plane.lock();\n\
                   \x20   Builder::new().spawn_scoped(scope, move || {\n\
                   \x20       let stats = shared.stats.lock();\n\
                   \x20   });\n\
                   }\n\
                   fn g(shared: &Shared) {\n\
                   \x20   let stats = shared.stats.lock();\n\
                   \x20   let plane = shared.write_plane.lock();\n\
                   }\n";
        assert!(active(findings(Lint::LockOrder, &corpus(&[("a.rs", src)]))).is_empty());
    }

    #[test]
    fn l8_shed_edge_breaks_the_ring() {
        let src = "fn setup() {\n\
                   \x20   let (req_tx, req_rx) = bounded::<u64>(1);\n\
                   \x20   let (resp_tx, resp_rx) = bounded::<u64>(1);\n\
                   \x20   thread::spawn(move || client(req_tx, resp_rx));\n\
                   \x20   thread::spawn(move || server(req_rx, resp_tx));\n\
                   }\n\
                   fn client(req_tx: Sender<u64>, resp_rx: Receiver<u64>) {\n\
                   \x20   req_tx.send(1).unwrap();\n\
                   \x20   let _ = resp_rx.recv();\n\
                   }\n\
                   fn server(req_rx: Receiver<u64>, resp_tx: Sender<u64>) {\n\
                   \x20   let _ = resp_tx.try_send(2);\n\
                   \x20   let _ = req_rx.recv();\n\
                   }\n";
        assert!(active(lint_channel_cycles(&corpus(&[("a.rs", src)]))).is_empty());
    }

    #[test]
    fn l8_unbounded_edge_breaks_the_ring() {
        let src = "fn setup() {\n\
                   \x20   let (req_tx, req_rx) = bounded::<u64>(1);\n\
                   \x20   let (resp_tx, resp_rx) = unbounded::<u64>();\n\
                   \x20   thread::spawn(move || client(req_tx, resp_rx));\n\
                   \x20   thread::spawn(move || server(req_rx, resp_tx));\n\
                   }\n\
                   fn client(req_tx: Sender<u64>, resp_rx: Receiver<u64>) {\n\
                   \x20   req_tx.send(1).unwrap();\n\
                   \x20   let _ = resp_rx.recv();\n\
                   }\n\
                   fn server(req_rx: Receiver<u64>, resp_tx: Sender<u64>) {\n\
                   \x20   resp_tx.send(2).unwrap();\n\
                   \x20   let _ = req_rx.recv();\n\
                   }\n";
        assert!(active(lint_channel_cycles(&corpus(&[("a.rs", src)]))).is_empty());
    }

    #[test]
    fn l8_resolves_helper_sends_to_the_calling_thread() {
        // The blocking send lives in a helper; the pipeline is linear, so
        // no cycle — and the helper's send must not be orphaned either.
        let src = "fn setup() {\n\
                   \x20   let (a_tx, a_rx) = bounded::<u64>(4);\n\
                   \x20   thread::spawn(move || stage_one(a_tx));\n\
                   \x20   thread::spawn(move || stage_two(a_rx));\n\
                   }\n\
                   fn push<T>(tx: &Sender<T>, value: T) {\n\
                   \x20   if tx.try_send(value).is_err() {\n\
                   \x20       tx.send(value).ok();\n\
                   \x20   }\n\
                   }\n\
                   fn stage_one(a_tx: Sender<u64>) {\n\
                   \x20   push(&a_tx, 1);\n\
                   }\n\
                   fn stage_two(a_rx: Receiver<u64>) {\n\
                   \x20   let _ = a_rx.recv();\n\
                   }\n";
        assert!(active(lint_channel_cycles(&corpus(&[("a.rs", src)]))).is_empty());
    }

    #[test]
    fn l9_flags_durability_in_writer_region() {
        let src = "fn run_coalescing_writer(shared: &Shared) {\n\
                   \x20   shared.store.ensure_durable(7);\n\
                   }\n";
        let diags = active(findings(Lint::BlockingInWorker, &corpus(&[("a.rs", src)])));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("ensure_durable"));
    }

    #[test]
    fn l9_one_level_deep_and_clean_regions() {
        let a = "fn accept_loop(shared: &Shared) {\n\
                 \x20   persist_now(shared);\n\
                 }\n\
                 fn persist_now(shared: &Shared) {\n\
                 \x20   shared.store.ensure_durable(7);\n\
                 }\n\
                 fn deliver_stage(shared: &Shared) {\n\
                 \x20   shared.store.ensure_durable(7);\n\
                 }\n";
        let diags = active(findings(Lint::BlockingInWorker, &corpus(&[("a.rs", a)])));
        assert_eq!(diags.len(), 1, "only the accept-loop call is a finding");
        assert!(diags[0].message.contains("persist_now"));
    }

    #[test]
    fn allows_suppress_graph_findings() {
        let src = "fn run_writer(shared: &Shared) {\n\
                   \x20   // lint: allow(blocking) — test fixture\n\
                   \x20   shared.store.ensure_durable(7);\n\
                   }\n";
        let diags = findings(Lint::BlockingInWorker, &corpus(&[("a.rs", src)]));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].suppressed_by.is_some(), "marker line recorded");
    }
}
