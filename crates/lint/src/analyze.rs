//! The analysis engine: walks the workspace, excludes test code, applies
//! rules per tier, and reconciles findings against in-source suppressions.
//!
//! Suppression syntax (line comments only):
//!
//! ```text
//! // tart-lint: allow(WALLCLOCK) -- phi-accrual needs real inter-arrival times
//! let now = Instant::now();
//! ```
//!
//! A directive suppresses matching findings on its own line (trailing
//! comment) or the line directly below. The `-- reason` is mandatory:
//! a reasonless allow is itself an error (`UNDOC-ALLOW`), and an allow that
//! suppressed nothing is flagged (`UNUSED-ALLOW`) so stale fences get
//! cleaned up instead of silently widening.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, CommentLine, Token, TokenKind};
use crate::manifest::{tier_for, Tier};
use crate::rules::{scan, RuleId};
use crate::symbols::{FileUnit, SymbolGraph};
use crate::taint::taint_pass;

/// One diagnostic, post-suppression. Every finding is an error.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
    /// Witness for interprocedural findings (call path down to the raw
    /// hazard, outermost frame first); empty for single-line rules.
    pub path: Vec<String>,
}

/// One parsed `tart-lint: allow(...)` directive.
#[derive(Clone, Debug)]
pub struct Suppression {
    pub file: String,
    pub line: u32,
    pub rules: Vec<RuleId>,
    pub reason: Option<String>,
    /// How many findings this directive silenced.
    pub hits: u32,
}

/// The full audit result for a workspace.
#[derive(Clone, Debug, Default)]
pub struct Audit {
    pub findings: Vec<Finding>,
    pub suppressions: Vec<Suppression>,
    pub files_scanned: usize,
}

impl Audit {
    pub fn suppressed(&self) -> u32 {
        self.suppressions.iter().map(|s| s.hits).sum()
    }

    /// Human-oriented diagnostics, one per line (plus indented call-path
    /// witness lines for interprocedural findings), and a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{} [{}] {}",
                f.file,
                f.line,
                f.rule.as_str(),
                f.message
            );
            for step in &f.path {
                let _ = writeln!(out, "    | {step}");
            }
        }
        let _ = writeln!(
            out,
            "tart-lint: {} files scanned, {} errors, {} findings suppressed by {} allow(s)",
            self.files_scanned,
            self.findings.len(),
            self.suppressed(),
            self.suppressions.len(),
        );
        out
    }
}

/// Audits every production source file under `root` (a workspace root).
///
/// Scanned: `src/**/*.rs` and `crates/*/src/**/*.rs`. Excluded: `target/`,
/// `shims/` (third-party API stand-ins), `tests/`, `benches/`, `examples/`,
/// and fixture directories — the fence guards production code; test code
/// may freely use wall clocks and hash maps.
pub fn audit_workspace(root: &Path) -> io::Result<Audit> {
    Ok(audit_sources(&collect_workspace_sources(root)?))
}

/// Reads every production source file under `root` as `(relative path,
/// source)` pairs, in sorted order — the input shape of [`audit_sources`].
fn collect_workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(file)?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Lexes one file and marks its `#[cfg(test)]` line ranges.
pub(crate) fn make_unit(rel: &str, src: &str) -> FileUnit {
    let lexed = lex(src);
    let excluded = test_ranges(&lexed.tokens);
    FileUnit {
        rel: rel.to_string(),
        tier: tier_for(rel),
        lexed,
        excluded,
    }
}

/// Audits a set of `(workspace-relative path, source)` pairs as one
/// workspace: the per-file lexical rules, then the interprocedural taint
/// pass over the symbol graph, all reconciled against the same in-source
/// suppressions. This is the engine behind [`audit_workspace`]; tests call
/// it directly with in-memory files.
pub fn audit_sources(files: &[(String, String)]) -> Audit {
    let mut audit = Audit {
        files_scanned: files.len(),
        ..Audit::default()
    };

    // Per-file lexical rules. Exempt files are not scanned and do not join
    // the graph, but reasonless directives in them are still hygiene
    // errors (no unused-check: nothing can match in an unscanned file).
    let mut units: Vec<FileUnit> = Vec::new();
    let mut directives: Vec<Vec<Suppression>> = Vec::new();
    for (rel, src) in files {
        let unit = make_unit(rel, src);
        let mut dirs = parse_directives(rel, &unit.lexed.comments);
        if unit.tier == Tier::Exempt {
            flush_directives(rel, dirs, false, &mut audit);
            continue;
        }
        // Directives inside test code suppress nothing by construction;
        // drop them rather than flagging them as stale.
        dirs.retain(|d| !unit.is_test_line(d.line));
        for hit in scan(&unit.lexed.tokens, unit.tier) {
            if !unit.is_test_line(hit.line) {
                let finding = Finding {
                    file: rel.clone(),
                    line: hit.line,
                    rule: hit.rule,
                    message: hit.message,
                    path: Vec::new(),
                };
                reconcile(finding, &mut dirs, &mut audit);
            }
        }
        units.push(unit);
        directives.push(dirs);
    }

    // The one workspace pass: interprocedural taint over the symbol graph.
    let graph = SymbolGraph::build(&units);
    for finding in taint_pass(&units, &graph) {
        if let Some(idx) = units.iter().position(|u| u.rel == finding.file) {
            reconcile(finding, &mut directives[idx], &mut audit);
        }
    }

    // Directive hygiene, after every rule had its chance to consume an
    // allow.
    for (unit, dirs) in units.into_iter().zip(directives) {
        flush_directives(&unit.rel, dirs, true, &mut audit);
    }

    // Deterministic report order (the auditor practices what it preaches).
    audit.findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule.as_str()).cmp(&(&b.file, b.line, b.rule.as_str()))
    });
    audit
}

/// Matches one pre-suppression finding against its file's directives: a
/// directive on the finding's line or the line directly above consumes
/// it; otherwise it is reported.
fn reconcile(finding: Finding, directives: &mut [Suppression], audit: &mut Audit) {
    // Same-line (trailing) directives take precedence so that two adjacent
    // annotated lines each consume their own directive.
    let names = |d: &Suppression| d.rules.contains(&finding.rule);
    let matched = directives
        .iter()
        .position(|d| d.line == finding.line && names(d))
        .or_else(|| {
            directives
                .iter()
                .position(|d| d.line + 1 == finding.line && names(d))
        });
    match matched {
        Some(idx) => directives[idx].hits += 1,
        None => audit.findings.push(finding),
    }
}

/// Moves directives into the audit, flagging undocumented and unused ones.
fn flush_directives(
    rel_path: &str,
    directives: Vec<Suppression>,
    check_unused: bool,
    audit: &mut Audit,
) {
    for d in directives {
        let hygiene = if d.reason.is_none() {
            Some((
                RuleId::UndocAllow,
                "suppression without a reason: write \
                 `// tart-lint: allow(RULE) -- why this is sound`"
                    .to_string(),
            ))
        } else if check_unused && d.hits == 0 {
            let names: Vec<&str> = d.rules.iter().map(|r| r.as_str()).collect();
            Some((
                RuleId::UnusedAllow,
                format!(
                    "allow({}) suppressed nothing; remove the stale directive",
                    names.join(", ")
                ),
            ))
        } else {
            None
        };
        if let Some((rule, message)) = hygiene {
            audit.findings.push(Finding {
                file: rel_path.to_string(),
                line: d.line,
                rule,
                message,
                path: Vec::new(),
            });
        }
        audit.suppressions.push(d);
    }
}

/// Parses `tart-lint: allow(RULE[, RULE...]) [-- reason]` directives out of
/// the comment stream.
fn parse_directives(file: &str, comments: &[CommentLine]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Only plain `//` comments carry directives. Doc comments (`///`,
        // `//!`) are prose — a rendered example like the one above must not
        // act as a suppression.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(idx) = c.text.find("tart-lint:") else {
            continue;
        };
        let rest = c.text[idx + "tart-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<RuleId> = rest[..close].split(',').filter_map(RuleId::parse).collect();
        if rules.is_empty() {
            continue;
        }
        let tail = rest[close + 1..].trim_start();
        let reason = tail.strip_prefix("--").map(|r| r.trim().to_string());
        let reason = reason.filter(|r| !r.is_empty());
        out.push(Suppression {
            file: file.to_string(),
            line: c.line,
            rules,
            reason,
            hits: 0,
        });
    }
    out
}

/// Line ranges covered by `#[cfg(test)]` items (usually `mod tests { .. }`).
///
/// Token-level heuristic: on seeing an attribute containing both `cfg` and
/// `test`, skip any further attributes, then consume the next item — up to
/// its matching close brace, or the terminating semicolon for brace-less
/// items. Strings and comments are already gone, so brace counting is safe.
pub(crate) fn test_ranges(tokens: &[Token]) -> Vec<std::ops::RangeInclusive<u32>> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].kind.is_punct('#') {
            i += 1;
            continue;
        }
        let Some((attr_end, is_test)) = attribute_span(tokens, i) else {
            i += 1;
            continue;
        };
        if !is_test {
            i = attr_end;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any stacked attributes after the cfg(test) one.
        let mut j = attr_end;
        while j < tokens.len() && tokens[j].kind.is_punct('#') {
            match attribute_span(tokens, j) {
                Some((end, _)) => j = end,
                None => break,
            }
        }
        // Consume the item: first `{` to its match, or a `;` before any `{`.
        let mut depth = 0usize;
        let mut end_line = start_line;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end_line = tokens[j].line;
                        j += 1;
                        break;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => {
                    end_line = tokens[j].line;
                    j += 1;
                    break;
                }
                _ => {}
            }
            end_line = tokens[j].line;
            j += 1;
        }
        ranges.push(start_line..=end_line);
        i = j;
    }
    ranges
}

/// If `tokens[i]` opens an attribute (`#[...]`), returns the index just past
/// its closing `]` and whether it mentions both `cfg` and `test`.
fn attribute_span(tokens: &[Token], i: usize) -> Option<(usize, bool)> {
    if !tokens[i].kind.is_punct('#') {
        return None;
    }
    let mut j = i + 1;
    // Inner attributes: `#![...]`.
    if tokens.get(j).map(|t| t.kind.is_punct('!')).unwrap_or(false) {
        j += 1;
    }
    if !tokens.get(j).map(|t| t.kind.is_punct('[')).unwrap_or(false) {
        return None;
    }
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((j + 1, saw_cfg && saw_test));
                }
            }
            TokenKind::Ident(s) if s == "cfg" => saw_cfg = true,
            TokenKind::Ident(s) if s == "test" => saw_test = true,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Recursively collects `.rs` files under `dir`, skipping test-only trees.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(
                name.as_str(),
                "target" | "tests" | "benches" | "examples" | "fixtures" | "shims"
            ) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Audit {
        audit_sources(&[(rel.to_string(), src.to_string())])
    }

    #[test]
    fn cfg_test_modules_are_excluded() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn t() { let _ = Instant::now(); }\n}\n";
        let a = run("crates/sched/src/lib.rs", src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn trailing_and_preceding_allows_both_work() {
        let src = "\
// tart-lint: allow(WALLCLOCK) -- sanctioned boundary\n\
let a = Instant::now();\n\
let b = Instant::now(); // tart-lint: allow(WALLCLOCK) -- also fine\n";
        let a = run("crates/sched/src/lib.rs", src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressed(), 2);
    }

    #[test]
    fn reasonless_allow_is_an_error() {
        let src = "// tart-lint: allow(WALLCLOCK)\nlet a = Instant::now();\n";
        let a = run("crates/sched/src/lib.rs", src);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, RuleId::UndocAllow);
    }

    #[test]
    fn unused_allow_is_an_error() {
        let src = "// tart-lint: allow(WALLCLOCK) -- nothing here\nlet a = 1;\n";
        let a = run("crates/sched/src/lib.rs", src);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, RuleId::UnusedAllow);
    }

    #[test]
    fn directive_must_name_the_right_rule() {
        let src = "// tart-lint: allow(HASH-ITER) -- wrong rule\nlet a = Instant::now();\n";
        let a = run("crates/sched/src/lib.rs", src);
        // WALLCLOCK still fires, and the HASH-ITER allow is unused.
        assert_eq!(a.findings.len(), 2, "{:?}", a.findings);
    }

    #[test]
    fn text_lines_have_the_documented_shape() {
        let a = run("crates/sched/src/x.rs", "let t = Instant::now();");
        let text = a.render_text();
        assert!(
            text.starts_with("crates/sched/src/x.rs:1 [WALLCLOCK] `Instant::now()`"),
            "{text}"
        );
    }
}
