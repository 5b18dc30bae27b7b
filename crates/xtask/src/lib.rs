//! The `wedge-lint` static-analysis pass.
//!
//! Every rule reads source masked by [`mask_source`] (comments and strings
//! blanked out, `#[cfg(test)]` items marked), so only library code is
//! checked. The rules enforce project invariants that rustc and clippy
//! don't. Line rules, on the masked text:
//!
//! * **L1 `panic`** — no `unwrap()` / `expect()` / `panic!` (and, in
//!   `wedge-storage`/`wedge-chain`, no non-literal indexing) in non-test
//!   library code of the protocol crates. A node that dies mid-Stage-1
//!   silently breaks the accountability guarantee.
//! * **L2 `arith`** — bare `+`/`-`/`*` on balance/gas/fee/nonce values in
//!   `wedge-chain` must be `checked_*`/`saturating_*`: silent wrap-around
//!   in money math is a protocol bug, not a crash.
//! * **L3 `ct`** — comparisons of secret-bearing bytes in `wedge-crypto`
//!   (scalars, HMAC tags, signature components) must go through
//!   [`ct_eq`](../wedge_crypto/ct/index.html); `==` short-circuits and
//!   leaks timing.
//! * **L4 `unsafe`** — every crate root carries `#![forbid(unsafe_code)]`.
//!
//! Token-tree rules ([`tree`], [`graph`]), on the node, net, cluster and
//! storage sources. One walker tracks which guard or region is live at each
//! token; L5, L6, L7 and L9 read its reports, L8 builds the channel graph:
//!
//! * **L5 `lock`** — no `Shared.stats` guard live across a channel
//!   `send()` in `crates/core/src/node/`.
//! * **L6 `plane`** — no write-plane region (a `write_plane` guard, or the
//!   span of a `Shared::mutate(..)` call) live across storage I/O,
//!   replication, signing, durability or a channel send in
//!   `crates/core/src/node/`: I/O under it stalls every writer and delays
//!   what readers see.
//! * **L7 `lockorder`** — no cycle in the union lock-acquisition order.
//! * **L8 `chan`** — no ring of bounded channels whose sends all block:
//!   one full queue on such a ring wedges every thread on it.
//! * **L9 `blocking`** — no storage durability, blocking connect, or sleep
//!   inside a coalescing-writer or accept-loop function.
//!
//! A finding is suppressed per-site with a trailing or preceding comment of
//! the form `// lint: allow(<name>) — <reason>`, or for a whole file with
//! `// lint: allow-file(<name>) — <reason>`; the reason is mandatory.
//! `cargo run -p xtask -- lint --allows` audits every marker and fails on
//! stale ones.
//!
//! Run with `cargo run -p xtask -- lint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod tree;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The individual lints. The `allow` name is what the escape-hatch comment
/// uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lint {
    /// L1: panic-freedom in protocol library code.
    Panic,
    /// L2: checked/saturating arithmetic on money and gas.
    Arith,
    /// L3: constant-time comparison of secret material.
    ConstantTime,
    /// L4: `#![forbid(unsafe_code)]` on every crate root.
    ForbidUnsafe,
    /// L5: no `Shared.stats` guard held across `send()`.
    LockAcrossSend,
    /// L6: no write-plane region covering I/O, signing, or a send.
    WritePlaneAcrossIo,
    /// L7: no cycle in the lock-acquisition order graph.
    LockOrder,
    /// L8: no ring of bounded channels whose sends all block.
    ChannelCycle,
    /// L9: no blocking call inside a writer/accept worker region.
    BlockingInWorker,
}

impl Lint {
    /// Short code used in diagnostics (`L1`..`L9`).
    pub fn code(self) -> &'static str {
        match self {
            Lint::Panic => "L1",
            Lint::Arith => "L2",
            Lint::ConstantTime => "L3",
            Lint::ForbidUnsafe => "L4",
            Lint::LockAcrossSend => "L5",
            Lint::WritePlaneAcrossIo => "L6",
            Lint::LockOrder => "L7",
            Lint::ChannelCycle => "L8",
            Lint::BlockingInWorker => "L9",
        }
    }

    /// Name accepted by the `// lint: allow(<name>)` escape hatch.
    pub fn allow_name(self) -> &'static str {
        match self {
            Lint::Panic => "panic",
            Lint::Arith => "arith",
            Lint::ConstantTime => "ct",
            Lint::ForbidUnsafe => "unsafe",
            Lint::LockAcrossSend => "lock",
            Lint::WritePlaneAcrossIo => "plane",
            Lint::LockOrder => "lockorder",
            Lint::ChannelCycle => "chan",
            Lint::BlockingInWorker => "blocking",
        }
    }

    /// Every lint that has a usable allow name (L4 has none: the fix is to
    /// add the header, not to suppress the finding).
    pub fn all_allowable() -> &'static [Lint] {
        &[
            Lint::Panic,
            Lint::Arith,
            Lint::ConstantTime,
            Lint::LockAcrossSend,
            Lint::WritePlaneAcrossIo,
            Lint::LockOrder,
            Lint::ChannelCycle,
            Lint::BlockingInWorker,
        ]
    }
}

/// One finding, pointing at a file and 1-based line.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// File the finding is in (as given to the linter).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable description.
    pub message: String,
    /// When an allow marker suppresses this finding: the 1-based line of
    /// the marker. `lint_workspace` filters suppressed findings out; the
    /// `--allows` audit uses them to prove each marker still earns its
    /// keep.
    pub suppressed_by: Option<usize>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint.code(),
            self.message
        )
    }
}

/// A source line after masking: code with comments/strings blanked out,
/// plus the text of any `//` comment and position metadata.
#[derive(Clone, Debug)]
pub struct MaskedLine {
    /// The line with string/char literals and comments replaced by spaces.
    pub code: String,
    /// Text of the `//` comment on this line, if any (without the slashes).
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// Masks comments and string/char literals so later passes can match
/// tokens without being fooled by `"panic!"` inside a string, and records
/// `#[cfg(test)]` regions.
pub fn mask_source(text: &str) -> Vec<MaskedLine> {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }

    let bytes: Vec<char> = text.chars().collect();
    let mut state = State::Normal;
    let mut lines: Vec<MaskedLine> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();

    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();

        if c == '\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            lines.push(MaskedLine {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                in_test: false,
            });
            i += 1;
            continue;
        }

        match state {
            State::Normal => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Str;
                    code.push(' ');
                }
                'r' if matches!(next, Some('"') | Some('#')) => {
                    // Possible raw string r"..." / r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        for _ in i..=j {
                            code.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    code.push(c);
                }
                '\'' => {
                    // Lifetime ('a) vs char literal ('x', '\n', '\u{1F4A9}').
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && bytes.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        code.push(c);
                    } else {
                        state = State::Char;
                        code.push(' ');
                    }
                }
                _ => code.push(c),
            },
            State::LineComment => {
                comment.push(c);
                code.push(' ');
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                code.push(' ');
            }
            State::Str => {
                if c == '\\' {
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Normal;
                }
                code.push(' ');
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        state = State::Normal;
                        for _ in 0..=hashes {
                            code.push(' ');
                        }
                        i += 1 + hashes;
                        continue;
                    }
                }
                code.push(' ');
            }
            State::Char => {
                if c == '\\' {
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    state = State::Normal;
                }
                code.push(' ');
            }
        }
        i += 1;
    }
    lines.push(MaskedLine {
        code,
        comment,
        in_test: false,
    });

    annotate_regions(&mut lines);
    lines
}

/// Fills in `in_test` by scanning braces and `#[cfg(test)]` attributes.
fn annotate_regions(lines: &mut [MaskedLine]) {
    let mut depth: usize = 0;
    // Depths at which a #[cfg(test)] item body was opened.
    let mut test_regions: Vec<usize> = Vec::new();
    let mut test_pending = false;

    for line in lines.iter_mut() {
        let compact: String = line.code.split_whitespace().collect();
        if compact.contains("#[cfg(test)]") {
            test_pending = true;
        }
        // A line is "test" if we're already inside a region, or the
        // attribute that opens one has been seen.
        line.in_test = !test_regions.is_empty() || test_pending;

        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if test_pending {
                        test_regions.push(depth);
                        test_pending = false;
                    }
                }
                '}' => {
                    if test_regions.last() == Some(&depth) {
                        test_regions.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
    }
}

/// True when `comment` carries the marker `lint: allow{suffix}(<name>)`
/// with a non-empty reason after it.
fn comment_has_marker(comment: &str, name: &str, file_level: bool) -> bool {
    let kind = if file_level { "allow-file" } else { "allow" };
    let needle = format!("lint: {kind}({name})");
    match comment.find(&needle) {
        Some(pos) => {
            let rest = comment[pos + needle.len()..].trim_start_matches([' ', '—', '-', ':']);
            !rest.trim().is_empty()
        }
        None => false,
    }
}

/// When the finding on 0-based line `idx` is suppressed by an
/// `// lint: allow(<name>) — reason` comment on the same or previous
/// line(s), or a file-wide `// lint: allow-file(<name>) — reason` marker,
/// returns the marker's **1-based** line.
pub(crate) fn suppressor(lines: &[MaskedLine], idx: usize, lint: Lint) -> Option<usize> {
    let name = lint.allow_name();
    let site = |comment: &str| comment_has_marker(comment, name, false);
    if site(&lines[idx].comment) {
        return Some(idx + 1);
    }
    // Scan upward through the contiguous block of comment-only lines
    // immediately above the flagged line, so a wrapped allow comment
    // (marker on its first line) still suppresses.
    let mut i = idx;
    let mut found = None;
    while i > 0 && found.is_none() {
        i -= 1;
        let line = &lines[i];
        if !line.code.trim().is_empty() {
            // A line with code ends the comment block, but its trailing
            // comment still counts (allow on the previous statement's line).
            if site(&line.comment) {
                found = Some(i + 1);
            }
            break;
        }
        if line.comment.is_empty() {
            break; // blank line ends the block
        }
        if site(&line.comment) {
            found = Some(i + 1);
        }
    }
    if found.is_some() {
        return found;
    }
    // File-level marker anywhere in the file.
    lines
        .iter()
        .position(|l| comment_has_marker(&l.comment, name, true))
        .map(|i| i + 1)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn prev_non_space(code: &str, pos: usize) -> Option<char> {
    code[..pos].chars().rev().find(|c| !c.is_whitespace())
}

/// L1: panic-freedom. `check_indexing` additionally flags non-literal
/// index expressions (enabled for `wedge-storage` and `wedge-chain`).
pub fn lint_panic(file: &Path, lines: &[MaskedLine], check_indexing: bool) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut findings: Vec<String> = Vec::new();

        for (needle, what) in [(".unwrap()", "unwrap()"), (".expect(", "expect()")] {
            if code.contains(needle) {
                findings.push(format!(
                    "`{what}` in library code can take the node down; return a typed error \
                     or restructure (suppress with `// lint: allow(panic) — <reason>`)"
                ));
            }
        }
        for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
            if let Some(pos) = code.find(mac) {
                let ok_boundary =
                    pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap_or(' '));
                if ok_boundary {
                    findings.push(format!(
                        "`{mac}` in library code can take the node down; return a typed error \
                         (suppress with `// lint: allow(panic) — <reason>`)"
                    ));
                }
            }
        }
        if check_indexing {
            findings.extend(find_panicky_indexing(code));
        }

        for message in findings {
            diags.push(Diagnostic {
                file: file.to_path_buf(),
                line: idx + 1,
                lint: Lint::Panic,
                message,
                suppressed_by: suppressor(lines, idx, Lint::Panic),
            });
        }
    }
    diags
}

/// Flags `expr[index]` where `index` is not a plain integer literal.
fn find_panicky_indexing(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '[' {
            let prefix_end = code.char_indices().nth(i).map(|(b, _)| b).unwrap_or(0);
            let prev = prev_non_space(code, prefix_end);
            let is_index = matches!(prev, Some(p) if is_ident_char(p) || p == ')' || p == ']');
            // `&'a [u8]` is a type, not an indexing expression: the token
            // before the bracket is a lifetime. Likewise a keyword before
            // the bracket (`&mut [u8]`, `return [a, b]`, `as [T; 2]`,
            // `let [a, b] = pair`) starts a type, an array literal, or a
            // slice pattern, never an index.
            let (after_lifetime, after_keyword) = {
                let before: Vec<char> = code[..prefix_end]
                    .chars()
                    .rev()
                    .skip_while(|c| c.is_whitespace())
                    .collect();
                let ident_len = before.iter().take_while(|c| is_ident_char(**c)).count();
                let word: String = before[..ident_len].iter().rev().collect();
                let keyword = matches!(
                    word.as_str(),
                    "mut"
                        | "dyn"
                        | "impl"
                        | "as"
                        | "in"
                        | "return"
                        | "break"
                        | "else"
                        | "match"
                        | "let"
                );
                (before.get(ident_len) == Some(&'\''), keyword)
            };
            if is_index && !after_lifetime && !after_keyword {
                // Find the matching close bracket on this line.
                let mut depth = 1;
                let mut j = i + 1;
                while j < chars.len() && depth > 0 {
                    match chars[j] {
                        '[' => depth += 1,
                        ']' => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                if depth == 0 {
                    let inner: String = chars[i + 1..j - 1].iter().collect();
                    let trimmed = inner.trim();
                    let literal = !trimmed.is_empty()
                        && trimmed.chars().all(|c| c.is_ascii_digit() || c == '_');
                    // `[T; N]` is an array type/repeat literal and `[..]`
                    // is the full-range slice — neither can panic.
                    let exempt = trimmed.contains(';') || trimmed == "..";
                    if !trimmed.is_empty() && !literal && !exempt {
                        out.push(format!(
                            "indexing with `[{trimmed}]` can panic; use `.get(..)` and handle \
                             the miss (suppress with `// lint: allow(panic) — <reason>`)"
                        ));
                    }
                    i = j;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

const MONEY_KEYWORDS: &[&str] = &["balance", "amount", "fee", "gas", "nonce", "wei", "supply"];

/// L2: checked arithmetic on money/gas lines in `wedge-chain`.
pub fn lint_arith(file: &Path, lines: &[MaskedLine]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let lower = code.to_lowercase();
        if !MONEY_KEYWORDS.iter().any(|k| lower.contains(k)) {
            continue;
        }
        // Float math (price jitter models) is out of scope for L2.
        if lower.contains("f64") || lower.contains("f32") {
            continue;
        }
        if let Some(op) = find_bare_arith(code) {
            diags.push(Diagnostic {
                file: file.to_path_buf(),
                line: idx + 1,
                lint: Lint::Arith,
                message: format!(
                    "bare `{op}` on balance/gas values can overflow silently; use \
                     `checked_*`/`saturating_*` (suppress with \
                     `// lint: allow(arith) — <reason>`)"
                ),
                suppressed_by: suppressor(lines, idx, Lint::Arith),
            });
        }
    }
    diags
}

/// Finds the first bare binary `+`, `-`, `*` (or compound `+=`, `-=`,
/// `*=`) between value-like tokens, ignoring unary minus, derefs,
/// `->`, and range/borrow punctuation.
fn find_bare_arith(code: &str) -> Option<char> {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if !matches!(c, '+' | '-' | '*') {
            continue;
        }
        let next = chars.get(i + 1).copied();
        // `->` is not arithmetic.
        if c == '-' && next == Some('>') {
            continue;
        }
        // Binary operators need a value on the left; otherwise this is
        // unary minus, a deref, or part of a pattern.
        let prefix_end = code.char_indices().nth(i).map(|(b, _)| b).unwrap_or(0);
        let prev = prev_non_space(code, prefix_end);
        let has_left_value = matches!(prev, Some(p) if is_ident_char(p) || p == ')' || p == ']');
        if !has_left_value {
            continue;
        }
        // `&mut`-style and doc artifacts never reach here (masked).
        return Some(c);
    }
    None
}

const SECRET_KEYWORDS: &[&str] = &[
    "secret",
    "tag",
    "mac",
    "hmac",
    "signature",
    // The signing-wall paths: RFC 6979 nonces and the wNAF digit streams
    // derived from them are secret-dependent, so equality tests on them
    // must not short-circuit either.
    "nonce",
    "wnaf",
];

/// L3: constant-time comparison of secret material in `wedge-crypto`.
pub fn lint_ct(file: &Path, lines: &[MaskedLine]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let trimmed = code.trim_start();
        let lower = code.to_lowercase();

        // Derived PartialEq on a secret-bearing type is variable-time.
        if trimmed.starts_with("#[derive(") && code.contains("PartialEq") {
            let names_secret = lines
                .iter()
                .skip(idx + 1)
                .take(3)
                .any(|l| l.code.contains("struct Secret"));
            if names_secret {
                diags.push(Diagnostic {
                    file: file.to_path_buf(),
                    line: idx + 1,
                    lint: Lint::ConstantTime,
                    message: "derived `PartialEq` on a secret-bearing type compares \
                              variable-time; implement it via `ct_eq` (suppress with \
                              `// lint: allow(ct) — <reason>`)"
                        .to_string(),
                    suppressed_by: suppressor(lines, idx, Lint::ConstantTime),
                });
            }
            continue;
        }
        if trimmed.starts_with('#') {
            continue;
        }
        if !(code.contains("==") || code.contains("!=")) {
            continue;
        }
        if code.contains("ct_eq") {
            continue;
        }
        let touches_secret = SECRET_KEYWORDS.iter().any(|k| lower.contains(k))
            || lower.contains("sig.r")
            || lower.contains("sig.s");
        if touches_secret {
            diags.push(Diagnostic {
                file: file.to_path_buf(),
                line: idx + 1,
                lint: Lint::ConstantTime,
                message: "`==`/`!=` on secret-bearing bytes short-circuits and leaks \
                          timing; compare through `ct_eq` (suppress with \
                          `// lint: allow(ct) — <reason>`)"
                    .to_string(),
                suppressed_by: suppressor(lines, idx, Lint::ConstantTime),
            });
        }
    }
    diags
}

/// L4: the crate root must carry `#![forbid(unsafe_code)]`.
pub fn lint_forbid_unsafe(file: &Path, lines: &[MaskedLine]) -> Vec<Diagnostic> {
    let found = lines.iter().any(|l| {
        let compact: String = l.code.split_whitespace().collect();
        compact.contains("#![forbid(unsafe_code)]")
    });
    if found {
        Vec::new()
    } else {
        vec![Diagnostic {
            file: file.to_path_buf(),
            line: 1,
            lint: Lint::ForbidUnsafe,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            suppressed_by: None,
        }]
    }
}

/// Which line rules run on a file.
#[derive(Clone, Copy, Debug, Default)]
pub struct LintSet {
    /// Run L1.
    pub panic: bool,
    /// Also flag non-literal indexing under L1.
    pub panic_indexing: bool,
    /// Run L2.
    pub arith: bool,
    /// Run L3.
    pub ct: bool,
}

/// Lints one file's source text with the given lint set, returning every
/// finding — including suppressed ones, with `suppressed_by` set.
pub fn lint_source_all(file: &Path, text: &str, set: LintSet) -> Vec<Diagnostic> {
    let lines = mask_source(text);
    let mut diags = Vec::new();
    if set.panic {
        diags.extend(lint_panic(file, &lines, set.panic_indexing));
    }
    if set.arith {
        diags.extend(lint_arith(file, &lines));
    }
    if set.ct {
        diags.extend(lint_ct(file, &lines));
    }
    diags
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Crates whose library code must be panic-free (L1). `pool` is included
/// so no panic path can escape a pool worker unawares: the pool re-raises
/// or converts worker panics, and its own plumbing must not add new ones.
/// `net` is included because a hostile peer controls every byte its
/// decoders and connection workers see: a reachable panic there is a
/// remote crash of the node process. `sim`, `bench`, `baselines`, and
/// `contracts` are harness/reference code, but a panic there still aborts
/// an experiment mid-run — their escapes go through the reasoned allow
/// hatch. `cluster` is included because the router and epoch coordinator
/// sit on the serving path of every shard at once: a panic there takes
/// down the whole cluster's front door, not one node. `check` is
/// excluded: a model checker *reports* bugs by panicking the failing
/// schedule.
const PANIC_FREE_CRATES: &[&str] = &[
    "crypto",
    "core",
    "chain",
    "storage",
    "merkle",
    "pool",
    "net",
    "sim",
    "bench",
    "baselines",
    "contracts",
    "cluster",
];

/// Directories whose files feed the token-tree rules (L5–L9).
const CONCURRENCY_CORPUS: &[&str] = &[
    "crates/core/src/node",
    "crates/net/src",
    "crates/cluster/src",
    "crates/storage/src",
];

/// Everything one pass over the workspace produces: the full diagnostic
/// list (suppressed findings included) and every scanned file, for the
/// allow audit.
pub struct WorkspaceScan {
    /// All findings, suppressed ones carrying their marker line.
    pub diags: Vec<Diagnostic>,
    /// Every `(workspace-relative path, source text)` the pass read.
    pub files: Vec<(PathBuf, String)>,
}

/// Runs every rule over a workspace rooted at `root`, keeping suppressed
/// findings (tagged with their marker) and the scanned file list.
pub fn scan_workspace(root: &Path) -> io::Result<WorkspaceScan> {
    let mut diags = Vec::new();
    let mut scanned: Vec<(PathBuf, String)> = Vec::new();

    for crate_name in PANIC_FREE_CRATES {
        let src = root.join("crates").join(crate_name).join("src");
        let mut files = Vec::new();
        walk_rs_files(&src, &mut files)?;
        for file in files {
            let text = fs::read_to_string(&file)?;
            // The rebuilt Keccak hot paths (`hash/keccak.rs`, `hash/keccak4.rs`)
            // are held to the indexing rule too: the unrolled permutations use
            // only literal lane indices, so any computed index slipping in is a
            // bug. (The loop-based oracle they are tested against lives under
            // `crates/crypto/tests/`, which no rule walks.)
            let keccak_hot_path = *crate_name == "crypto"
                && file.parent().is_some_and(|p| p.ends_with("hash"))
                && file
                    .file_name()
                    .and_then(|f| f.to_str())
                    .is_some_and(|f| f.starts_with("keccak"));
            let set = LintSet {
                panic: true,
                panic_indexing: matches!(*crate_name, "storage" | "chain") || keccak_hot_path,
                arith: *crate_name == "chain",
                ct: *crate_name == "crypto",
            };
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            diags.extend(lint_source_all(&rel, &text, set));
            scanned.push((rel, text));
        }
    }

    // L5–L9 over the concurrency corpus.
    let mut corpus = Vec::new();
    for dir in CONCURRENCY_CORPUS {
        let mut files = Vec::new();
        walk_rs_files(&root.join(dir), &mut files)?;
        for file in files {
            let text = fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            corpus.push(graph::SourceFile::parse(rel, text.as_str()));
        }
    }
    diags.extend(graph::lint_concurrency(&corpus));

    // L4 on every workspace crate root (vendored stand-ins included via
    // their own headers; they are not walked here).
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    let crates_dir = root.join("crates");
    if crates_dir.exists() {
        for entry in fs::read_dir(&crates_dir)? {
            let lib = entry?.path().join("src/lib.rs");
            if lib.exists() {
                roots.push(lib);
            }
        }
    }
    roots.sort();
    for file in roots {
        let text = fs::read_to_string(&file)?;
        let lines = mask_source(&text);
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        diags.extend(lint_forbid_unsafe(&rel, &lines));
        if !scanned.iter().any(|(p, _)| *p == rel) {
            scanned.push((rel, text));
        }
    }

    Ok(WorkspaceScan {
        diags,
        files: scanned,
    })
}

/// Runs the whole pass over a workspace rooted at `root`, returning only
/// unsuppressed findings.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(scan_workspace(root)?
        .diags
        .into_iter()
        .filter(|d| d.suppressed_by.is_none())
        .collect())
}

/// One `lint: allow(...)` / `lint: allow-file(...)` marker found in the
/// workspace, with its audit verdict.
#[derive(Clone, Debug)]
pub struct AllowMarker {
    /// File the marker is in (workspace-relative).
    pub file: PathBuf,
    /// 1-based line of the marker.
    pub line: usize,
    /// True for the file-wide `allow-file` form.
    pub file_level: bool,
    /// The rule name inside the parentheses.
    pub name: String,
    /// The reason text after the marker (may be empty — which is itself a
    /// defect: reason-less markers never suppress anything).
    pub reason: String,
    /// True when at least one finding is currently suppressed by this
    /// marker. A marker that suppresses nothing is stale and must go.
    pub used: bool,
    /// True when the name matches a rule with a working escape hatch.
    pub known: bool,
}

impl AllowMarker {
    /// Stale markers fail the audit: unknown rule, missing reason, or no
    /// finding left to suppress.
    pub fn stale(&self) -> bool {
        !self.used
    }
}

/// Extracts every allow marker from one comment line.
fn markers_in_comment(comment: &str) -> Vec<(bool, String, String)> {
    let mut out = Vec::new();
    for (needle, file_level) in [("lint: allow-file(", true), ("lint: allow(", false)] {
        let mut from = 0;
        while let Some(pos) = comment[from..].find(needle) {
            let start = from + pos + needle.len();
            let Some(close) = comment[start..].find(')') else {
                break;
            };
            let name = comment[start..start + close].trim().to_string();
            let reason = comment[start + close + 1..]
                .trim_start_matches([' ', '—', '-', ':'])
                .trim()
                .to_string();
            out.push((file_level, name, reason));
            from = start + close + 1;
        }
    }
    out
}

/// Audits every allow marker in the workspace: lists each with its rule
/// and reason, and checks that each still suppresses at least one finding
/// (markers whose target stopped triggering are stale — the escape hatch
/// must not rot).
pub fn audit_allows(root: &Path) -> io::Result<Vec<AllowMarker>> {
    let scan = scan_workspace(root)?;
    let known_names: Vec<&str> = Lint::all_allowable()
        .iter()
        .map(|l| l.allow_name())
        .collect();
    let mut markers = Vec::new();
    for (rel, text) in &scan.files {
        let lines = mask_source(text);
        for (idx, line) in lines.iter().enumerate() {
            for (file_level, name, reason) in markers_in_comment(&line.comment) {
                // Placeholders in prose — "allow(<name>)", "allow(...)" —
                // are documentation, not markers: a real allow name is a
                // plain identifier.
                if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    continue;
                }
                let known = known_names.contains(&name.as_str());
                let used = known
                    && !reason.is_empty()
                    && scan.diags.iter().any(|d| {
                        d.file == *rel
                            && d.suppressed_by == Some(idx + 1)
                            && d.lint.allow_name() == name
                    });
                markers.push(AllowMarker {
                    file: rel.clone(),
                    line: idx + 1,
                    file_level,
                    name,
                    reason,
                    used,
                    known,
                });
            }
        }
    }
    markers.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(markers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(text: &str, set: LintSet) -> Vec<Diagnostic> {
        lint_source_all(Path::new("test.rs"), text, set)
            .into_iter()
            .filter(|d| d.suppressed_by.is_none())
            .collect()
    }

    const PANIC_ONLY: LintSet = LintSet {
        panic: true,
        panic_indexing: false,
        arith: false,
        ct: false,
    };

    #[test]
    fn masks_strings_and_comments() {
        let lines = mask_source("let x = \"panic!\"; // .unwrap()\nlet y = 1;");
        assert!(!lines[0].code.contains("panic!"));
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains(".unwrap()"));
    }

    #[test]
    fn flags_unwrap_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn g() { y.unwrap(); }\n}\n";
        let diags = lint_str(src, PANIC_ONLY);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "fn f() {\n    // lint: allow(panic) — startup only\n    x.unwrap();\n}\n";
        assert!(lint_str(src, PANIC_ONLY).is_empty());
        let no_reason = "fn f() {\n    // lint: allow(panic)\n    x.unwrap();\n}\n";
        assert_eq!(lint_str(no_reason, PANIC_ONLY).len(), 1);
        // A wrapped comment with the marker on its first line suppresses.
        let wrapped = "fn f() {\n    // lint: allow(panic) — startup only;\n    // continues here\n    x.unwrap();\n}\n";
        assert!(lint_str(wrapped, PANIC_ONLY).is_empty());
        // A blank line between the comment block and the code breaks it.
        let detached = "fn f() {\n    // lint: allow(panic) — reason\n\n    x.unwrap();\n}\n";
        assert_eq!(lint_str(detached, PANIC_ONLY).len(), 1);
    }

    #[test]
    fn indexing_rules() {
        let set = LintSet {
            panic: true,
            panic_indexing: true,
            ..Default::default()
        };
        assert_eq!(lint_str("fn f() { let x = buf[i]; }", set).len(), 1);
        assert!(lint_str("fn f() { let x = buf[0]; }", set).is_empty());
        assert!(lint_str("fn f() { let x: [u8; 32] = [0u8; 32]; }", set).is_empty());
        assert!(lint_str("#[derive(Debug)]\nstruct S;", set).is_empty());
        assert!(lint_str("fn f() { let v = vec![0u8; n]; }", set).is_empty());
        // Keywords before a bracket start a type or array literal.
        assert!(lint_str("fn f(buf: &mut [u8]) {}", set).is_empty());
        assert!(lint_str("fn f() -> [u8; 2] { return [a, b]; }", set).is_empty());
        assert!(lint_str("fn f(x: &dyn Fn(&mut [u8])) {}", set).is_empty());
        // Slice patterns are patterns, not indexing (the ×4 Keccak batch
        // paths destructure quads this way).
        assert!(lint_str("fn f() { let [a, b, c, d] = quad; }", set).is_empty());
        assert!(lint_str("fn f() { if let [a, b] = *pair { g(a, b); } }", set).is_empty());
        // ...but `let x = buf[i]` is still indexing: `buf`, not `let`,
        // precedes the bracket.
        assert_eq!(lint_str("fn f() { let x = table[idx]; }", set).len(), 1);
    }

    #[test]
    fn arith_rules() {
        let set = LintSet {
            arith: true,
            ..Default::default()
        };
        assert_eq!(lint_str("fn f() { balance += fee; }", set).len(), 1);
        assert_eq!(
            lint_str("fn f() { let x = gas_used * price; }", set).len(),
            1
        );
        assert!(lint_str("fn f() { let x = gas.checked_mul(price); }", set).is_empty());
        // Non-money arithmetic is out of scope.
        assert!(lint_str("fn f() { let x = a + b; }", set).is_empty());
        // Unary minus and -> are not arithmetic.
        assert!(lint_str("fn fee(x: i64) -> i64 { -x }", set).is_empty());
    }

    #[test]
    fn ct_rules() {
        let set = LintSet {
            ct: true,
            ..Default::default()
        };
        assert_eq!(lint_str("fn f() { if tag == expected { } }", set).len(), 1);
        assert!(lint_str("fn f() { if ct_eq(&tag, &expected) { } }", set).is_empty());
        assert_eq!(
            lint_str(
                "#[derive(Clone, PartialEq)]\npub struct SecretKey(u8);",
                set
            )
            .len(),
            1
        );
        assert!(lint_str("fn f() { if count == 3 { } }", set).is_empty());
        // Signing-wall material: nonce and wNAF-stream comparisons are
        // secret-dependent too.
        assert_eq!(lint_str("fn f() { if nonce == other { } }", set).len(), 1);
        assert_eq!(
            lint_str("fn f() { if wnaf_digit != expected { } }", set).len(),
            1
        );
        assert!(lint_str("fn f() { if ct_eq(&nonce_bytes, &other) { } }", set).is_empty());
    }

    /// Unsuppressed `lint` findings of the guard-region walker, with `text`
    /// as a node source file.
    fn walker_findings(text: &str, lint: Lint) -> Vec<Diagnostic> {
        let file = graph::SourceFile::parse(PathBuf::from("crates/core/src/node/test.rs"), text);
        graph::lint_concurrency(&[file])
            .into_iter()
            .filter(|d| d.lint == lint && d.suppressed_by.is_none())
            .collect()
    }

    #[test]
    fn lock_rules() {
        let lint_str = |src: &str| walker_findings(src, Lint::LockAcrossSend);
        let bad = "fn f() {\n    let st = shared.stats.lock();\n    tx.send(1);\n}\n";
        assert_eq!(lint_str(bad).len(), 1);
        let dropped =
            "fn f() {\n    let st = shared.stats.lock();\n    drop(st);\n    tx.send(1);\n}\n";
        assert!(lint_str(dropped).is_empty());
        let scoped =
            "fn f() {\n    {\n        let st = shared.stats.lock();\n    }\n    tx.send(1);\n}\n";
        assert!(lint_str(scoped).is_empty());
        let temp = "fn f() {\n    shared.stats.lock().x += 1;\n    tx.send(1);\n}\n";
        assert!(lint_str(temp).is_empty());
    }

    #[test]
    fn plane_rules_guard_bindings() {
        let lint_str = |src: &str| walker_findings(src, Lint::WritePlaneAcrossIo);
        let bad = "fn f() {\n    let plane = shared.write_plane.lock();\n    \
                   shared.store.append(x);\n}\n";
        let diags = lint_str(bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint.code(), "L6");
        let dropped = "fn f() {\n    let plane = shared.write_plane.lock();\n    \
                       drop(plane);\n    shared.store.append(x);\n}\n";
        assert!(lint_str(dropped).is_empty());
        let temp = "fn f() {\n    let n = shared.write_plane.lock().batches.len();\n    \
                    shared.store.append(x);\n}\n";
        assert!(lint_str(temp).is_empty());
        for op in ["r.replicate_frames(x);", "Resp::sign(k);", "tx.send(1);"] {
            let src =
                format!("fn f() {{\n    let plane = shared.write_plane.lock();\n    {op}\n}}\n");
            assert_eq!(lint_str(&src).len(), 1, "op `{op}` must be flagged");
        }
    }

    #[test]
    fn plane_rules_mutate_regions() {
        let lint_str = |src: &str| walker_findings(src, Lint::WritePlaneAcrossIo);
        // Multi-line mutate closure doing storage I/O.
        let bad = "fn f() {\n    shared.mutate(|plane| {\n        \
                   shared.store.truncate(n);\n    });\n}\n";
        assert_eq!(lint_str(bad).len(), 1);
        // I/O after the closure has closed is fine.
        let after = "fn f() {\n    shared.mutate(|plane| {\n        plane.push(x);\n    });\n    \
                     shared.store.truncate(n);\n}\n";
        assert!(lint_str(after).is_empty());
        // Single-line mutate calls are checked inline.
        let inline_bad = "fn f() { shared.mutate(|plane| plane.set(shared.store.len())); }\n";
        assert_eq!(lint_str(inline_bad).len(), 1);
        let inline_ok = "fn f() { shared.mutate(|plane| plane.bump()); }\n";
        assert!(lint_str(inline_ok).is_empty());
        // The allow comment suppresses with a reason.
        let allowed = "fn f() {\n    shared.mutate(|plane| {\n        \
                       // lint: allow(plane) — test fixture\n        \
                       shared.store.truncate(n);\n    });\n}\n";
        assert!(lint_str(allowed).is_empty());
    }

    #[test]
    fn forbid_unsafe_rule() {
        let lines = mask_source("//! doc\n#![forbid(unsafe_code)]\n");
        assert!(lint_forbid_unsafe(Path::new("lib.rs"), &lines).is_empty());
        let lines = mask_source("//! doc\npub fn f() {}\n");
        assert_eq!(lint_forbid_unsafe(Path::new("lib.rs"), &lines).len(), 1);
    }
}
