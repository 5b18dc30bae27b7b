//! The token-tree layer: turns masked source lines into line-tagged tokens
//! and brace/paren/bracket-matched trees, and extracts `fn` items with their
//! parameter names.
//!
//! The rules in [`crate::graph`] (L5–L9) run on it: a token tree follows a
//! method chain wrapped across lines or a guard bound inside a macro body,
//! and keeps the line of every token for diagnostics. It deliberately stays
//! a *lexer with matching*, not a parser: masking (see
//! [`crate::mask_source`]) has already removed strings, chars, and comments,
//! so what remains is plain tokens and three kinds of delimiter to pair up.

use crate::MaskedLine;

/// One lexed token. Identifiers keep their text; every other non-delimiter
/// character is a [`TokenKind::Punct`]. Delimited runs become
/// [`TokenKind::Group`]s.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// An identifier, keyword, or number literal (`foo`, `fn`, `1024`).
    Ident(String),
    /// A single punctuation character (`.`, `;`, `=`, `|`, …).
    Punct(char),
    /// A delimited subtree; the `char` is the opening delimiter
    /// (`(`, `[`, or `{`).
    Group(char, Vec<Token>),
}

/// A token plus where it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 0-based index into the masked-line array (1-based line minus one).
    pub line: usize,
    /// True when the token sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// The children of a group opened by `delim`, if this token is one.
    pub fn group(&self, delim: char) -> Option<&[Token]> {
        match &self.kind {
            TokenKind::Group(d, children) if *d == delim => Some(children),
            _ => None,
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes masked lines into a flat token list (no delimiter matching yet).
fn lex(lines: &[MaskedLine]) -> Vec<Token> {
    let mut out = Vec::new();
    for (line_idx, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if is_ident_char(c) {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(chars[start..i].iter().collect()),
                    line: line_idx,
                    in_test: line.in_test,
                });
                continue;
            }
            out.push(Token {
                kind: TokenKind::Punct(c),
                line: line_idx,
                in_test: line.in_test,
            });
            i += 1;
        }
    }
    out
}

fn close_of(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// Builds brace/paren/bracket-matched trees from masked lines. Unbalanced
/// input is tolerated best-effort: a stray closer is dropped, an unclosed
/// group is closed at end of input — the analyses over the tree are
/// advisory lints, not a compiler front end.
pub fn tokenize(lines: &[MaskedLine]) -> Vec<Token> {
    let flat = lex(lines);
    let mut stack: Vec<(char, usize, bool, Vec<Token>)> = Vec::new();
    let mut top: Vec<Token> = Vec::new();
    for tok in flat {
        match tok.kind {
            TokenKind::Punct(c @ ('(' | '[' | '{')) => {
                stack.push((c, tok.line, tok.in_test, Vec::new()));
            }
            TokenKind::Punct(c @ (')' | ']' | '}')) => {
                // Pop if the closer matches the innermost open delimiter;
                // otherwise drop the stray closer.
                if stack.last().is_some_and(|(open, ..)| close_of(*open) == c) {
                    let (open, line, in_test, children) = stack.pop().expect("checked non-empty");
                    let group = Token {
                        kind: TokenKind::Group(open, children),
                        line,
                        in_test,
                    };
                    match stack.last_mut() {
                        Some((.., parent)) => parent.push(group),
                        None => top.push(group),
                    }
                }
            }
            _ => match stack.last_mut() {
                Some((.., parent)) => parent.push(tok),
                None => top.push(tok),
            },
        }
    }
    // Close any unterminated groups at end of input.
    while let Some((open, line, in_test, children)) = stack.pop() {
        let group = Token {
            kind: TokenKind::Group(open, children),
            line,
            in_test,
        };
        match stack.last_mut() {
            Some((.., parent)) => parent.push(group),
            None => top.push(group),
        }
    }
    top
}

/// A function item extracted from the token tree.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Parameter names in declaration order (`self` and destructured
    /// patterns contribute an empty-string placeholder so positions stay
    /// aligned with call-site arguments).
    pub params: Vec<String>,
    /// The tokens of the body block.
    pub body: Vec<Token>,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// True when the whole item is inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Extracts every `fn` item in the tree, descending into `mod`/`impl`/fn
/// bodies (so methods and nested items are all found).
pub fn extract_fns(tokens: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    collect_fns(tokens, &mut out);
    out
}

fn collect_fns(tokens: &[Token], out: &mut Vec<FnItem>) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() == Some("fn") {
            if let Some((item, next)) = parse_fn(tokens, i) {
                collect_fns(&item.body, out);
                out.push(item);
                i = next;
                continue;
            }
        }
        // A `macro_rules! name { … }` definition becomes a pseudo-function:
        // code inside macro bodies acquires the same locks and channels as
        // code anywhere else, so the graph lints must see it.
        if tokens[i].ident() == Some("macro_rules")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            if let (Some(name), Some(body)) = (
                tokens.get(i + 2).and_then(|t| t.ident()),
                tokens.get(i + 3).and_then(|t| t.group('{')),
            ) {
                let item = FnItem {
                    name: name.to_string(),
                    params: Vec::new(),
                    body: body.to_vec(),
                    line: tokens[i].line,
                    in_test: tokens[i].in_test,
                };
                collect_fns(&item.body, out);
                out.push(item);
                i += 4;
                continue;
            }
        }
        if let TokenKind::Group('{', children) = &tokens[i].kind {
            collect_fns(children, out);
        }
        i += 1;
    }
}

/// Parses one `fn` item starting at `at` (the `fn` keyword). Returns the
/// item and the index just past its body. Trait-method declarations without
/// a body yield `None`.
fn parse_fn(tokens: &[Token], at: usize) -> Option<(FnItem, usize)> {
    let name_tok = tokens.get(at + 1)?;
    let name = name_tok.ident()?.to_string();
    // Find the parameter list: the first `(` group after the name that is
    // not inside a generic parameter list. `<`/`>` are plain puncts, so a
    // bound like `F: Fn(u8)` would otherwise donate its paren group; track
    // angle depth, ignoring the `>` of a `->` arrow.
    let mut i = at + 2;
    let mut params_at = None;
    let mut angle: i32 = 0;
    let mut prev_dash = false;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Group('(', _) if angle == 0 => {
                params_at = Some(i);
                break;
            }
            TokenKind::Group('{', _) | TokenKind::Punct(';') => return None,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') if !prev_dash => angle = (angle - 1).max(0),
            _ => {}
        }
        prev_dash = tokens[i].is_punct('-');
        i += 1;
    }
    let params_at = params_at?;
    let params = parse_params(tokens[params_at].group('(')?);
    // Find the body: the first `{` group before a `;` (a `;` first means a
    // bodiless trait/extern declaration). A `where` clause or return type
    // may sit in between; any `{` group inside those would be unusual
    // enough to accept the approximation.
    let mut j = params_at + 1;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Group('{', children) => {
                let item = FnItem {
                    name,
                    params,
                    body: children.clone(),
                    line: tokens[at].line,
                    in_test: tokens[at].in_test,
                };
                return Some((item, j + 1));
            }
            TokenKind::Punct(';') => return None,
            _ => j += 1,
        }
    }
    None
}

/// Extracts parameter names: for each comma-separated parameter at the top
/// level of the list, the last identifier before the `:` (so `mut stream:
/// TcpStream` yields `stream`). `self` receivers and destructuring patterns
/// yield an empty placeholder.
fn parse_params(children: &[Token]) -> Vec<String> {
    let mut params = Vec::new();
    let mut start = 0;
    let mut i = 0;
    loop {
        let at_end = i == children.len();
        if at_end || children[i].is_punct(',') {
            let param = &children[start..i];
            if !param.is_empty() {
                params.push(param_name(param));
            }
            start = i + 1;
        }
        if at_end {
            break;
        }
        i += 1;
    }
    params
}

fn param_name(param: &[Token]) -> String {
    let colon = param.iter().position(|t| t.is_punct(':'));
    let pattern = match colon {
        Some(c) => &param[..c],
        None => param, // `self` / `&mut self`
    };
    let mut name = None;
    for tok in pattern {
        if let Some(id) = tok.ident() {
            if id != "mut" && id != "self" {
                name = Some(id.to_string());
            }
        }
        if matches!(tok.kind, TokenKind::Group(..)) {
            return String::new(); // destructuring pattern
        }
    }
    name.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask_source;

    fn tree(src: &str) -> Vec<Token> {
        tokenize(&mask_source(src))
    }

    #[test]
    fn lexes_and_matches_groups() {
        let toks = tree("fn f(x: u8) { g(x); }\n");
        assert_eq!(toks[0].ident(), Some("fn"));
        assert_eq!(toks[1].ident(), Some("f"));
        assert!(toks[2].group('(').is_some());
        let body = toks[3].group('{').unwrap();
        assert_eq!(body[0].ident(), Some("g"));
        assert!(body[1].group('(').is_some());
        assert!(body[2].is_punct(';'));
    }

    #[test]
    fn tracks_lines_across_wrapped_chains() {
        let toks = tree("let g = shared\n    .stats\n    .lock();\n");
        let stats = toks.iter().find(|t| t.ident() == Some("stats")).unwrap();
        assert_eq!(stats.line, 1);
        let lock = toks.iter().find(|t| t.ident() == Some("lock")).unwrap();
        assert_eq!(lock.line, 2);
    }

    #[test]
    fn tolerates_unbalanced_input() {
        // A stray closer is dropped; an unclosed group closes at EOF.
        let toks = tree("} fn f() { g(\n");
        assert!(toks.iter().any(|t| t.ident() == Some("fn")));
        let toks = tree("fn f() { if x { y()\n");
        assert!(!toks.is_empty());
    }

    #[test]
    fn extracts_fns_with_params() {
        let src =
            "impl S {\n    fn writer(mut stream: TcpStream, shared: &Arc<Shared>) {\n        \
                   stream.flush();\n    }\n}\nfn top<T: Send>(tx: &Sender<T>, value: T) {}\n";
        let fns = extract_fns(&tree(src));
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"writer"));
        assert!(names.contains(&"top"));
        let writer = fns.iter().find(|f| f.name == "writer").unwrap();
        assert_eq!(writer.params, vec!["stream", "shared"]);
        let top = fns.iter().find(|f| f.name == "top").unwrap();
        assert_eq!(top.params, vec!["tx", "value"]);
    }

    #[test]
    fn skips_bodiless_trait_methods() {
        let src = "trait T {\n    fn must(&self) -> u8;\n    fn has(&self) -> u8 { 0 }\n}\n";
        let fns = extract_fns(&tree(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "has");
        assert_eq!(fns[0].params, vec![""]);
    }

    #[test]
    fn masking_still_applies_in_tree() {
        // Tokens inside strings/raw strings/comments never reach the tree.
        let src = "fn f() { let s = r#\"bounded(1).send(\"#; /* lock() */ }\n";
        let toks = tree(src);
        fn has_ident(toks: &[Token], name: &str) -> bool {
            toks.iter().any(|t| match &t.kind {
                TokenKind::Ident(s) => s == name,
                TokenKind::Group(_, c) => has_ident(c, name),
                _ => false,
            })
        }
        assert!(!has_ident(&toks, "bounded"));
        assert!(!has_ident(&toks, "lock"));
    }
}
