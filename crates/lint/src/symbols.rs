//! The workspace symbol graph: a lightweight, std-only approximation of
//! "who defines what and who calls whom", built from the lexer's token
//! stream — no `rustc`, no `syn`.
//!
//! The graph deliberately trades resolution fidelity for zero dependencies:
//!
//! - **Items** (`fn` / `struct`, with their `impl`/`trait`
//!   context) are recovered by brace-tracking over the token stream.
//! - **Call edges** are *identifier approximations*: `foo(..)` edges to
//!   every workspace function named `foo`; `Type::foo(..)` resolves by
//!   `impl` block, then file stem, else to nothing (an unmatched
//!   qualifier names a type outside the workspace). Method receivers are
//!   typed where the syntax allows — `self.m()` via the enclosing impl,
//!   `self.field.m()` via struct fields, `param.m()` via the signature —
//!   and resolve like qualifiers; only untypeable receivers (locals,
//!   call chains) edge to every candidate, an over-approximation the
//!   taint pass inherits (rare collisions are suppressed at the call
//!   site with a reasoned `allow`, see DESIGN.md §17).
//!
//! Functions inside `#[cfg(test)]` ranges are excluded: test code may
//! freely read clocks, and test helpers must not become call-edge targets.
//! [`Tier::Exempt`] files are excluded entirely so bench harness functions
//! (whose whole purpose is timing) never become taint sources through a
//! name collision.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use crate::lexer::{Lexed, Token, TokenKind};
use crate::manifest::Tier;

/// One analyzed source file, shared by the graph and the taint pass.
pub struct FileUnit {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub tier: Tier,
    pub lexed: Lexed,
    /// Line ranges covered by `#[cfg(test)]` items.
    pub excluded: Vec<RangeInclusive<u32>>,
}

impl FileUnit {
    /// True when `line` falls inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.excluded.iter().any(|r| r.contains(&line))
    }
}

/// A function (or method) definition.
#[derive(Clone, Debug)]
pub struct FnSym {
    pub name: String,
    /// The `impl`/`trait` self-type this function is defined under.
    pub impl_type: Option<String>,
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the body's closing brace (== `line` for bodyless decls).
    pub end_line: u32,
    pub tier: Tier,
    /// Whether the signature declares a non-`()` return type. The taint
    /// pass only propagates through value-returning functions: a function
    /// returning `()` cannot hand wall-clock data back to its caller
    /// (out-parameter flows are out of scope, documented in DESIGN.md §17).
    pub returns_value: bool,
    /// Named parameters as `(name, type identifiers)` pairs (receiver
    /// `self` and pattern parameters are skipped); used to type
    /// `param.method(..)` receivers.
    pub params: Vec<(String, Vec<String>)>,
    pub calls: Vec<CallRef>,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallRef {
    pub name: String,
    /// `Some("Type")` for `Type::name(..)` calls (with `Self` resolved to
    /// the enclosing impl type); `None` for bare and method calls.
    pub qualifier: Option<String>,
    /// `true` for `receiver.name(..)` method calls.
    pub method: bool,
    /// Receiver syntax for a method call, when it is simple enough to
    /// type later (chained and deeply-nested receivers stay `None`).
    pub recv: Option<Recv>,
    /// Type identifiers inferred for the receiver (filled by
    /// [`SymbolGraph::build`]'s typing post-pass from struct fields, fn
    /// parameters, and the enclosing impl type). `None` means the
    /// receiver could not be typed and resolution over-approximates.
    pub recv_types: Option<Vec<String>>,
    pub line: u32,
}

/// The receiver of a method call, as written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recv {
    /// `self.method(..)`.
    SelfValue,
    /// `self.field.method(..)`.
    SelfField(String),
    /// `name.method(..)` — a local variable or fn parameter.
    Var(String),
}

/// A struct definition with its named fields (as `(name, type
/// identifiers)` pairs: every identifier in the declared type, in order,
/// so `Arc<Mutex<Router>>` yields `[Arc, Mutex, Router]`), which lets call
/// resolution type `self.field.m(..)` receivers through wrapper types.
#[derive(Clone, Debug)]
pub struct StructSym {
    pub name: String,
    pub file: String,
    pub line: u32,
    pub fields: Vec<(String, Vec<String>)>,
}

/// The whole-workspace symbol graph.
#[derive(Default)]
pub struct SymbolGraph {
    pub fns: Vec<FnSym>,
    pub structs: Vec<StructSym>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolGraph {
    /// Builds the graph from every non-exempt file unit.
    pub fn build(units: &[FileUnit]) -> SymbolGraph {
        let mut g = SymbolGraph::default();
        for unit in units {
            if unit.tier == Tier::Exempt {
                continue;
            }
            parse_file(unit, &mut g);
        }
        for (i, f) in g.fns.iter().enumerate() {
            g.by_name.entry(f.name.clone()).or_default().push(i);
        }
        g.type_receivers();
        g
    }

    /// The typing post-pass: fills [`CallRef::recv_types`] for method
    /// calls whose receiver syntax is simple enough to look up —
    /// `self.m()` through the enclosing impl type, `self.field.m()`
    /// through the struct table, `param.m()` through the fn signature.
    fn type_receivers(&mut self) {
        let SymbolGraph { fns, structs, .. } = self;
        for f in fns.iter_mut() {
            let impl_type = f.impl_type.clone();
            let params = f.params.clone();
            let file = f.file.clone();
            for call in &mut f.calls {
                let Some(recv) = &call.recv else { continue };
                call.recv_types = match recv {
                    Recv::SelfValue => impl_type.as_ref().map(|t| vec![t.clone()]),
                    Recv::SelfField(field) => impl_type
                        .as_deref()
                        .and_then(|t| find_struct(structs, t, &file))
                        .and_then(|s| {
                            s.fields
                                .iter()
                                .find(|(n, _)| n == field)
                                .map(|(_, tys)| tys.clone())
                        }),
                    Recv::Var(name) => params
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, tys)| tys.clone()),
                };
            }
        }
    }

    /// Function indices defined with the given name (any file).
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Resolves a call to its candidate definitions.
    ///
    /// Qualified calls (`Q::f`) resolve by impl-type match first, then by
    /// file stem (`module::f`); a qualifier matching *neither* names a
    /// type outside the workspace (std, deps, generic parameters) and
    /// resolves to nothing — falling back to every `f` would drown the
    /// taint pass in `BytesMut::new`-style collisions. Typed method
    /// receivers (`self.f()`, `self.field.f()`, `param.f()`) resolve the
    /// same way, trying each receiver type identifier in declaration
    /// order so wrappers fall through (`Arc<Mutex<Router>>` resolves via
    /// `Router`). Only untypeable receivers (locals, call chains) edge to
    /// every candidate — the documented over-approximation.
    pub fn resolve(&self, call: &CallRef) -> Vec<usize> {
        let cands = self.fns_named(&call.name);
        if cands.is_empty() {
            return Vec::new();
        }
        if let Some(q) = &call.qualifier {
            return self.by_type_then_stem(cands, std::slice::from_ref(q));
        }
        if call.method {
            if let Some(tys) = &call.recv_types {
                return self.by_type_then_stem(cands, tys);
            }
        }
        cands.to_vec()
    }

    /// Filters candidates by the first type name that matches an
    /// `impl` block, else a file stem; no match at all resolves empty
    /// (the receiver/qualifier names a type outside the workspace).
    fn by_type_then_stem(&self, cands: &[usize], names: &[String]) -> Vec<usize> {
        for q in names {
            let by_type: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].impl_type.as_deref() == Some(q.as_str()))
                .collect();
            if !by_type.is_empty() {
                return by_type;
            }
            let by_stem: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| file_stem(&self.fns[i].file) == q.as_str())
                .collect();
            if !by_stem.is_empty() {
                return by_stem;
            }
        }
        Vec::new()
    }

    /// The innermost function whose line span contains `line` in `file`,
    /// if any.
    pub fn fn_at(&self, file: &str, line: u32) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.line <= line && line <= f.end_line)
            .min_by_key(|(_, f)| f.end_line - f.line)
            .map(|(i, _)| i)
    }
}

/// Finds the struct named `name`, preferring a definition in `file`
/// (impl blocks usually sit next to their struct); otherwise the
/// definition must be workspace-unique to count.
fn find_struct<'a>(structs: &'a [StructSym], name: &str, file: &str) -> Option<&'a StructSym> {
    let matches: Vec<&StructSym> = structs.iter().filter(|s| s.name == name).collect();
    matches
        .iter()
        .find(|s| s.file == file)
        .copied()
        .or(if matches.len() == 1 {
            Some(matches[0])
        } else {
            None
        })
}

/// Collects the identifiers of a type expression beginning at `from`,
/// stopping at a depth-0 `,` / `;` or an unmatched closer. Returns the
/// identifiers and the index of the stopping token. A `>` completing a
/// `->` arrow (fn-pointer/`Fn` trait returns) is not a closer.
fn type_idents(toks: &[Token], from: usize, end: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0i32;
    let mut j = from;
    while j < end {
        match &toks[j].kind {
            TokenKind::Punct('(')
            | TokenKind::Punct('[')
            | TokenKind::Punct('{')
            | TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') if j > from && toks[j - 1].kind.is_punct('-') => {
                // `->` arrow, not a generics closer.
            }
            TokenKind::Punct(')')
            | TokenKind::Punct(']')
            | TokenKind::Punct('}')
            | TokenKind::Punct('>') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokenKind::Punct(',') | TokenKind::Punct(';') if depth == 0 => break,
            TokenKind::Ident(s) if !is_keyword(s) => idents.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    (idents, j)
}

/// `crates/engine/src/net.rs` → `net`.
pub fn file_stem(path: &str) -> &str {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base)
}

/// Keywords that look like calls when followed by `(`.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "let"
            | "else"
            | "in"
            | "as"
            | "move"
            | "mut"
            | "ref"
            | "unsafe"
            | "fn"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "mod"
            | "pub"
            | "use"
            | "where"
            | "dyn"
            | "box"
            | "await"
    )
}

struct FnSpan {
    sym: FnSym,
    /// Token index range of the body (exclusive of the braces' outside).
    body: Option<(usize, usize)>,
}

fn parse_file(unit: &FileUnit, g: &mut SymbolGraph) {
    let toks = &unit.lexed.tokens;
    let mut spans: Vec<FnSpan> = Vec::new();

    // Pass 1: item extraction with impl/trait context tracking.
    // `impl_stack` holds (type_name, depth_of_open_brace).
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('{') => {
                depth += 1;
                i += 1;
            }
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                while impl_stack.last().map(|(_, d)| *d > depth).unwrap_or(false) {
                    impl_stack.pop();
                }
                i += 1;
            }
            TokenKind::Ident(s)
                if (s == "impl" || s == "trait") && !unit.is_test_line(toks[i].line) =>
            {
                if let Some((name, body_open)) = parse_impl_header(toks, i) {
                    impl_stack.push((name, depth + 1));
                    depth += 1;
                    i = body_open + 1;
                } else {
                    i += 1;
                }
            }
            TokenKind::Ident(s) if s == "fn" && !unit.is_test_line(toks[i].line) => {
                if let Some(parsed) = parse_fn(toks, i) {
                    let (name, returns_value, params, body, end_line) = parsed;
                    spans.push(FnSpan {
                        sym: FnSym {
                            name,
                            impl_type: impl_stack.last().map(|(n, _)| n.clone()),
                            file: unit.rel.clone(),
                            line: toks[i].line,
                            end_line,
                            tier: unit.tier,
                            returns_value,
                            params,
                            calls: Vec::new(),
                        },
                        body,
                    });
                }
                // Continue INTO the signature/body so nested fns are found;
                // brace depth stays consistent because we only advanced past
                // the `fn` keyword.
                i += 1;
            }
            TokenKind::Ident(s) if s == "struct" && !unit.is_test_line(toks[i].line) => {
                if let Some(s) = parse_struct(toks, i, &unit.rel) {
                    g.structs.push(s);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }

    // Pass 2: attribute calls to the innermost enclosing function body.
    collect_calls(toks, &mut spans);

    for span in spans {
        g.fns.push(span.sym);
    }
}

/// Parses an `impl`/`trait` header starting at `i`; returns the self-type
/// name and the index of the opening body brace.
fn parse_impl_header(toks: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('{') if angle <= 0 => {
                return last_ident.map(|n| (n, j));
            }
            TokenKind::Punct(';') if angle <= 0 => return None, // `impl Foo;` — malformed, bail
            TokenKind::Ident(s) if angle <= 0 => {
                if s == "where" {
                    // Everything after `where` is bounds; the self type is
                    // already in `last_ident`.
                    let name = last_ident?;
                    let open = find_punct(toks, j, '{')?;
                    return Some((name, open));
                }
                if s == "for" {
                    last_ident = None; // the self type follows
                } else if s != "dyn" && s != "unsafe" && s != "impl" && s != "trait" {
                    last_ident = Some(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

fn find_punct(toks: &[Token], from: usize, c: char) -> Option<usize> {
    (from..toks.len()).find(|&j| toks[j].kind.is_punct(c))
}

/// Parses a `fn` item starting at the `fn` keyword. Returns
/// `(name, returns_value, params, body_token_range, end_line)`.
#[allow(clippy::type_complexity)]
fn parse_fn(
    toks: &[Token],
    i: usize,
) -> Option<(
    String,
    bool,
    Vec<(String, Vec<String>)>,
    Option<(usize, usize)>,
    u32,
)> {
    // `fn(` is a function-pointer type, not an item.
    let name = toks.get(i + 1)?.kind.as_ident()?.to_string();
    let mut j = i + 2;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut returns_value = false;
    let mut sig_open: Option<usize> = None;
    let mut sig_done = false;
    let mut params: Vec<(String, Vec<String>)> = Vec::new();
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct('(') => {
                // The first depth-0 paren outside generics opens the
                // parameter list (generic bounds like `Fn(u32)` come
                // earlier but sit inside `<..>`).
                if paren == 0 && angle <= 0 && !sig_done && sig_open.is_none() {
                    sig_open = Some(j);
                }
                paren += 1;
            }
            TokenKind::Punct(')') => {
                paren -= 1;
                if paren == 0 {
                    if let Some(open) = sig_open.take() {
                        params = parse_params(toks, open + 1, j);
                        sig_done = true;
                    }
                }
            }
            TokenKind::Punct('<') if paren == 0 => angle += 1,
            TokenKind::Punct('>') if paren == 0 && angle > 0 => {
                // Part of generics — unless it completes a `->` arrow,
                // which is handled below before we get here.
                angle -= 1;
            }
            TokenKind::Punct('-')
                if toks
                    .get(j + 1)
                    .map(|t| t.kind.is_punct('>'))
                    .unwrap_or(false)
                    && paren == 0 =>
            {
                // Return arrow. `-> ()` (unit) does not count as a value.
                let unit_return = toks
                    .get(j + 2)
                    .map(|t| t.kind.is_punct('('))
                    .unwrap_or(false)
                    && toks
                        .get(j + 3)
                        .map(|t| t.kind.is_punct(')'))
                        .unwrap_or(false)
                    && toks
                        .get(j + 4)
                        .map(|t| t.kind.is_punct('{') || t.kind.is_punct(';'))
                        .unwrap_or(true);
                returns_value = !unit_return;
                j += 2;
                continue;
            }
            TokenKind::Punct('{') if paren == 0 => {
                // Body found: match braces.
                let (end, end_line) = match_brace(toks, j);
                return Some((name, returns_value, params, Some((j + 1, end)), end_line));
            }
            TokenKind::Punct(';') if paren == 0 => {
                return Some((name, returns_value, params, None, toks[j].line));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses the parameter list between a signature's parens into
/// `(name, type identifiers)` pairs. The receiver, `mut` markers, and
/// pattern parameters (`(a, b): …`) are skipped.
fn parse_params(toks: &[Token], from: usize, to: usize) -> Vec<(String, Vec<String>)> {
    let mut params = Vec::new();
    let mut j = from;
    while j < to {
        if toks[j].kind.as_ident() == Some("mut") {
            j += 1;
            continue;
        }
        let name = toks[j].kind.as_ident();
        let single_colon = toks
            .get(j + 1)
            .map(|t| t.kind.is_punct(':'))
            .unwrap_or(false)
            && !toks
                .get(j + 2)
                .map(|t| t.kind.is_punct(':'))
                .unwrap_or(false);
        if let (Some(name), true) = (name, single_colon) {
            if !is_keyword(name) && name != "self" {
                let (tys, stop) = type_idents(toks, j + 2, to);
                params.push((name.to_string(), tys));
                j = stop + 1; // past the separating `,`
                continue;
            }
        }
        // Anything else (`&mut self`, patterns): skip to the next
        // top-level comma.
        let (_, stop) = type_idents(toks, j, to);
        j = stop.max(j) + 1;
    }
    params
}

/// Given the index of an opening `{`, returns (index of matching `}`,
/// its line).
fn match_brace(toks: &[Token], open: usize) -> (usize, u32) {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return (j, toks[j].line);
                }
            }
            _ => {}
        }
        j += 1;
    }
    let line = toks.last().map(|t| t.line).unwrap_or(0);
    (toks.len(), line)
}

fn parse_struct(toks: &[Token], i: usize, file: &str) -> Option<StructSym> {
    let name = toks.get(i + 1)?.kind.as_ident()?.to_string();
    // Find `{` before any `;` (unit struct) or `(` (tuple struct).
    let mut j = i + 2;
    let mut angle = 0i32;
    let open = loop {
        match &toks.get(j)?.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('{') if angle <= 0 => break j,
            TokenKind::Punct(';') | TokenKind::Punct('(') if angle <= 0 => return None,
            _ => {}
        }
        j += 1;
    };
    let (close, _) = match_brace(toks, open);
    let mut fields = Vec::new();
    let mut j = open + 1;
    while j + 1 < close {
        // `name : Type` — a single colon (not `::`) after the ident;
        // `type_idents` then consumes the whole type, so nested generics
        // never masquerade as field names.
        let name = toks[j].kind.as_ident();
        let single_colon = toks[j + 1].kind.is_punct(':')
            && !toks
                .get(j + 2)
                .map(|t| t.kind.is_punct(':'))
                .unwrap_or(false)
            && !toks
                .get(j.wrapping_sub(1))
                .map(|t| t.kind.is_punct(':'))
                .unwrap_or(false);
        if let (Some(field), true) = (name, single_colon) {
            if !is_keyword(field) {
                let (tys, stop) = type_idents(toks, j + 2, close);
                fields.push((field.to_string(), tys));
                j = stop + 1; // past the separating `,`
                continue;
            }
        }
        j += 1;
    }
    Some(StructSym {
        name,
        file: file.to_string(),
        line: toks[i].line,
        fields,
    })
}

/// Attributes every call to the innermost function body containing it.
fn collect_calls(toks: &[Token], spans: &mut [FnSpan]) {
    // Sort body ranges for an innermost-wins sweep.
    let mut order: Vec<usize> = (0..spans.len())
        .filter(|&s| spans[s].body.is_some())
        .collect();
    order.sort_by_key(|&s| spans[s].body.unwrap().0);

    for k in 0..toks.len() {
        let TokenKind::Ident(name) = &toks[k].kind else {
            continue;
        };
        if is_keyword(name) {
            continue;
        }
        let owner = innermost_owner(spans, &order, k);
        let Some(owner) = owner else { continue };

        // Call site: `name (` — optionally through a turbofish
        // `name :: < .. > (`. Macro invocations (`name !`) are skipped.
        if toks
            .get(k + 1)
            .map(|t| t.kind.is_punct('!'))
            .unwrap_or(false)
        {
            continue;
        }
        let mut call_paren = toks
            .get(k + 1)
            .map(|t| t.kind.is_punct('('))
            .unwrap_or(false);
        if !call_paren
            && toks
                .get(k + 1)
                .map(|t| t.kind.is_punct(':'))
                .unwrap_or(false)
            && toks
                .get(k + 2)
                .map(|t| t.kind.is_punct(':'))
                .unwrap_or(false)
            && toks
                .get(k + 3)
                .map(|t| t.kind.is_punct('<'))
                .unwrap_or(false)
        {
            // Turbofish: scan to the matching `>` then expect `(`.
            let mut a = 0i32;
            let mut j = k + 3;
            while j < toks.len() {
                match &toks[j].kind {
                    TokenKind::Punct('<') => a += 1,
                    TokenKind::Punct('>') => {
                        a -= 1;
                        if a == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            call_paren = toks
                .get(j + 1)
                .map(|t| t.kind.is_punct('('))
                .unwrap_or(false);
        }
        if !call_paren {
            continue;
        }

        let method = k > 0 && toks[k - 1].kind.is_punct('.');
        let qualifier = if !method
            && k >= 3
            && toks[k - 1].kind.is_punct(':')
            && toks[k - 2].kind.is_punct(':')
        {
            toks[k - 3]
                .kind
                .as_ident()
                .map(|q| resolve_self(q, &spans[owner].sym))
        } else {
            None
        };
        let recv = if method { recv_syntax(toks, k) } else { None };
        spans[owner].sym.calls.push(CallRef {
            name: name.clone(),
            qualifier,
            method,
            recv,
            recv_types: None,
            line: toks[k].line,
        });
    }
}

/// Classifies the receiver of the method call whose name sits at token
/// `k` (so `k - 1` is the `.`). Only the three simple shapes are typed;
/// chained receivers (`a.b.c.m()`, `f().m()`) return `None`.
fn recv_syntax(toks: &[Token], k: usize) -> Option<Recv> {
    let ident = |n: usize| toks.get(k.checked_sub(n)?).and_then(|t| t.kind.as_ident());
    let punct = |n: usize, c: char| {
        k.checked_sub(n)
            .and_then(|i| toks.get(i))
            .map(|t| t.kind.is_punct(c))
            .unwrap_or(false)
    };
    let r2 = ident(2)?;
    if punct(3, '.') {
        // `x . field . m (` — typed only when `x` is `self`.
        if ident(4) == Some("self") && !punct(5, '.') {
            return Some(Recv::SelfField(r2.to_string()));
        }
        return None;
    }
    if punct(3, ':') {
        return None; // `Path::x . m (` — a const/static receiver.
    }
    if r2 == "self" {
        return Some(Recv::SelfValue);
    }
    Some(Recv::Var(r2.to_string()))
}

/// Rewrites a `Self` qualifier to the enclosing impl type.
fn resolve_self(q: &str, owner: &FnSym) -> String {
    if q == "Self" {
        if let Some(t) = &owner.impl_type {
            return t.clone();
        }
    }
    q.to_string()
}

/// The innermost fn body containing token index `k`.
fn innermost_owner(spans: &[FnSpan], order: &[usize], k: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut best_len = usize::MAX;
    for &s in order {
        let (lo, hi) = spans[s].body.unwrap();
        if lo <= k && k < hi && hi - lo < best_len {
            best = Some(s);
            best_len = hi - lo;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn unit(rel: &str, src: &str) -> FileUnit {
        FileUnit {
            rel: rel.to_string(),
            tier: crate::manifest::tier_for(rel),
            lexed: lex(src),
            excluded: Vec::new(),
        }
    }

    fn graph(files: &[(&str, &str)]) -> SymbolGraph {
        let units: Vec<FileUnit> = files.iter().map(|(r, s)| unit(r, s)).collect();
        SymbolGraph::build(&units)
    }

    #[test]
    fn extracts_fns_with_impl_context_and_returns() {
        let g = graph(&[(
            "crates/sched/src/a.rs",
            "pub struct T { x: u64 }\n\
             impl T {\n    pub fn get(&self) -> u64 { self.helper() }\n    fn put(&mut self) { }\n}\n\
             fn free() -> Result<(), String> { Ok(()) }\n\
             fn unit_ret() -> () { }\n",
        )]);
        let get = &g.fns[g.fns_named("get")[0]];
        assert_eq!(get.impl_type.as_deref(), Some("T"));
        assert!(get.returns_value);
        let put = &g.fns[g.fns_named("put")[0]];
        assert!(!put.returns_value);
        assert!(g.fns[g.fns_named("free")[0]].returns_value);
        assert!(!g.fns[g.fns_named("unit_ret")[0]].returns_value);
    }

    #[test]
    fn call_edges() {
        let g = graph(&[(
            "crates/sched/src/a.rs",
            "fn a() { b(); T::c(); x.d(); E::Variant; println!(\"e()\"); }\n\
             fn b() {}\n",
        )]);
        let a = &g.fns[g.fns_named("a")[0]];
        let names: Vec<&str> = a.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"b"));
        assert!(names.contains(&"c"));
        assert!(names.contains(&"d"));
        assert!(!names.contains(&"println"));
        let c = a.calls.iter().find(|c| c.name == "c").unwrap();
        assert_eq!(c.qualifier.as_deref(), Some("T"));
    }

    #[test]
    fn trait_for_impl_records_self_type() {
        let g = graph(&[(
            "crates/sched/src/a.rs",
            "impl Encode for Envelope { fn encode(&self) -> u8 { 0 } }",
        )]);
        let e = &g.fns[g.fns_named("encode")[0]];
        assert_eq!(e.impl_type.as_deref(), Some("Envelope"));
    }

    #[test]
    fn struct_fields_with_types() {
        let g = graph(&[(
            "crates/engine/src/net.rs",
            "struct Link { seq: AtomicU64, connected: AtomicBool, epoch: Arc<Mutex<Router>> }",
        )]);
        assert_eq!(g.structs[0].name, "Link");
        assert_eq!(
            g.structs[0].fields[0],
            ("seq".to_string(), vec!["AtomicU64".to_string()])
        );
        assert_eq!(g.structs[0].fields[1].1, vec!["AtomicBool".to_string()]);
        // Wrapper generics are kept in order so receiver typing can fall
        // through `Arc`/`Mutex` to the workspace type.
        assert_eq!(g.structs[0].fields[2].1, vec!["Arc", "Mutex", "Router"]);
    }

    #[test]
    fn qualified_resolution_prefers_impl_type_then_stem() {
        let g = graph(&[
            (
                "crates/obs/src/lib.rs",
                "pub struct ObsHub;\nimpl ObsHub { pub fn new() -> Self { ObsHub } }",
            ),
            (
                "crates/engine/src/core.rs",
                "pub struct Core;\nimpl Core { pub fn new() -> Self { Core } }\n\
                 fn mk() { let _ = Core::new(); }",
            ),
        ]);
        let mk = &g.fns[g.fns_named("mk")[0]];
        let call = mk.calls.iter().find(|c| c.name == "new").unwrap();
        let targets = g.resolve(call);
        assert_eq!(targets.len(), 1);
        assert_eq!(g.fns[targets[0]].impl_type.as_deref(), Some("Core"));
    }

    #[test]
    fn self_field_receiver_resolves_through_wrappers() {
        let g = graph(&[
            (
                "crates/engine/src/router.rs",
                "pub struct Router;\nimpl Router { pub fn send(&self) {} }",
            ),
            (
                "crates/engine/src/cluster.rs",
                "pub struct Injector;\nimpl Injector { pub fn send(&self) {} }",
            ),
            (
                "crates/engine/src/core.rs",
                "pub struct Core { router: Arc<Mutex<Router>>, outputs: Sender<u8> }\n\
                 impl Core {\n\
                     fn a(&self) { self.router.send(); }\n\
                     fn b(&self) { self.outputs.send(); }\n\
                 }",
            ),
        ]);
        // `self.router.send()` types through Arc<Mutex<Router>> → Router,
        // NOT to the unrelated Injector::send.
        let a = &g.fns[g.fns_named("a")[0]];
        let t = g.resolve(a.calls.iter().find(|c| c.name == "send").unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(g.fns[t[0]].impl_type.as_deref(), Some("Router"));
        // `self.outputs.send()` types to an external channel — no edges.
        let b = &g.fns[g.fns_named("b")[0]];
        assert!(g
            .resolve(b.calls.iter().find(|c| c.name == "send").unwrap())
            .is_empty());
    }

    #[test]
    fn param_receiver_resolves_by_declared_type() {
        let g = graph(&[
            (
                "crates/engine/src/cluster.rs",
                "pub struct Injector;\nimpl Injector { pub fn send(&self) {} }",
            ),
            (
                "crates/model/src/reference.rs",
                "fn on_message(ctx: &mut dyn EngineCtx, n: u32) { ctx.send(); }\n\
                 fn relay(inj: &Injector) { inj.send(); }",
            ),
        ]);
        // `ctx: &mut dyn EngineCtx` — no workspace impl or module named
        // EngineCtx here, so the call resolves to nothing rather than to
        // the unrelated Injector::send.
        let f = &g.fns[g.fns_named("on_message")[0]];
        assert_eq!(f.params.len(), 2);
        assert_eq!(
            f.params[0],
            ("ctx".to_string(), vec!["EngineCtx".to_string()])
        );
        assert!(g
            .resolve(f.calls.iter().find(|c| c.name == "send").unwrap())
            .is_empty());
        // A param declared with a workspace type resolves precisely.
        let r = &g.fns[g.fns_named("relay")[0]];
        let t = g.resolve(r.calls.iter().find(|c| c.name == "send").unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(g.fns[t[0]].impl_type.as_deref(), Some("Injector"));
    }

    #[test]
    fn self_and_local_receivers() {
        let g = graph(&[(
            "crates/engine/src/log.rs",
            "pub struct Wal;\nimpl Wal { pub fn append(&self) {} }\n\
             pub struct MessageLog;\nimpl MessageLog {\n\
                 fn go(&self) { self.append(); }\n\
                 fn append(&self) { let wal = mk(); wal.append(); }\n\
             }",
        )]);
        // `self.append()` stays inside the impl type.
        let go = &g.fns[g.fns_named("go")[0]];
        let t = g.resolve(go.calls.iter().find(|c| c.name == "append").unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(g.fns[t[0]].impl_type.as_deref(), Some("MessageLog"));
        // A local (`wal`) is untypeable: the documented over-approximation
        // keeps every candidate so real cross-type edges survive.
        let ml = g
            .fns_named("append")
            .iter()
            .map(|&i| &g.fns[i])
            .find(|f| f.impl_type.as_deref() == Some("MessageLog"))
            .unwrap();
        let t = g.resolve(
            ml.calls
                .iter()
                .find(|c| c.name == "append" && c.method)
                .unwrap(),
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unknown_qualifier_resolves_to_nothing() {
        // `BytesMut::new()` — BytesMut is not a workspace type, so the call
        // must NOT edge to unrelated workspace fns that happen to be named
        // `new` (that fallback drowned the taint pass in false positives).
        let g = graph(&[
            (
                "crates/engine/src/config.rs",
                "pub struct Placement;\nimpl Placement { pub fn new() -> Self { Placement } }",
            ),
            (
                "crates/codec/src/buf.rs",
                "fn mk() { let _ = BytesMut::new(); }",
            ),
        ]);
        let mk = &g.fns[g.fns_named("mk")[0]];
        let call = mk.calls.iter().find(|c| c.name == "new").unwrap();
        assert_eq!(call.qualifier.as_deref(), Some("BytesMut"));
        assert!(g.resolve(call).is_empty());
    }

    #[test]
    fn self_qualifier_resolves_to_impl_type() {
        let g = graph(&[(
            "crates/sched/src/a.rs",
            "struct A; impl A { fn f() { Self::g(); } fn g() {} }\n\
             struct B; impl B { fn g() {} }",
        )]);
        let f = &g.fns[g.fns_named("f")[0]];
        let call = f.calls.iter().find(|c| c.name == "g").unwrap();
        assert_eq!(call.qualifier.as_deref(), Some("A"));
        let targets = g.resolve(call);
        assert_eq!(targets.len(), 1);
        assert_eq!(g.fns[targets[0]].impl_type.as_deref(), Some("A"));
    }

    #[test]
    fn nested_fn_owns_its_calls() {
        let g = graph(&[(
            "crates/sched/src/a.rs",
            "fn outer() {\n    fn inner() { leaf(); }\n    inner();\n}\nfn leaf() {}\n",
        )]);
        let outer = &g.fns[g.fns_named("outer")[0]];
        let inner = &g.fns[g.fns_named("inner")[0]];
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
        assert!(!outer.calls.iter().any(|c| c.name == "leaf"));
        assert!(inner.calls.iter().any(|c| c.name == "leaf"));
    }
}
