//! Interprocedural taint: tracks wall-clock / entropy / environment data
//! from the function that *reads* it to the deterministic-tier call edge
//! that *imports* it.
//!
//! The lexical rules catch `Instant::now()` written inside a
//! Deterministic-tier file. It cannot catch the laundered form — a
//! deterministic handler calling an innocent-looking ops helper whose
//! return value is derived from the clock one hop (or three hops) away.
//! Replay-debugging practice (PAPERS.md, cs/0311019) says this is the form
//! that actually breaks replay in the field.
//!
//! Model, deliberately simple and over-approximate:
//!
//! - **Seed:** any non-exempt, *value-returning* function whose body
//!   contains a raw WALLCLOCK / AMBIENT-RAND / AMBIENT-ENV hazard
//!   (scanned under the Deterministic policy whatever the file's tier — an
//!   ops-plane clock read is locally legal but still taints what it
//!   returns). Functions returning `()` absorb their hazards: they cannot
//!   hand the value back (out-parameter flows are out of scope, §17).
//! - **Propagate:** a value-returning function that calls a tainted
//!   value-returning function is tainted, transitively, across files.
//! - **Report:** a call from a Deterministic-tier function to a tainted
//!   **Ops-tier** function is a `TAINT-FLOW` finding, with the full call
//!   path down to the raw read printed as a witness. Tainted
//!   Deterministic-tier functions (`clock::HandlerTimer`, `RealClock`)
//!   are the *sanctioned* boundaries — calls to them are the approved way
//!   in, carry their own line-level allows, and are never flagged as
//!   targets.
//!
//! Precision notes: method calls resolve through the graph's receiver
//! typing (struct fields, fn parameters, the enclosing impl type — see
//! DESIGN.md §17), so `self.router.send(..)` only edges to `Router`'s
//! `send`. Untypeable receivers (locals, call chains) still
//! over-approximate to every same-named candidate; the rare residual
//! collision (e.g. an `OpenOptions` builder chain hitting a workspace
//! `open`) is suppressed at the call site with a reasoned
//! `allow(TAINT-FLOW)` — which keeps it visible and counted.

use std::collections::BTreeMap;

use crate::analyze::Finding;
use crate::manifest::Tier;
use crate::rules::{is_taint_source, scan, RuleId};
use crate::symbols::{FileUnit, SymbolGraph};

/// Why a function is tainted.
#[derive(Clone, Debug)]
enum Cause {
    /// A raw hazard at `line`, matched by `rule`.
    Seed { line: u32, rule: RuleId },
    /// A call at `line` to the (tainted) function with this graph index.
    Call { line: u32, callee: usize },
}

/// Runs the taint pass over the workspace. `units` must be the non-exempt
/// file set the graph was built from.
pub fn taint_pass(units: &[FileUnit], graph: &SymbolGraph) -> Vec<Finding> {
    // Seed: raw hazards inside value-returning function bodies. The scan
    // runs under the Deterministic policy so ops files yield hits too.
    let mut tainted: BTreeMap<usize, Cause> = BTreeMap::new();
    for unit in units {
        for hit in scan(&unit.lexed.tokens, Tier::Deterministic) {
            if !is_taint_source(hit.rule) || unit.is_test_line(hit.line) {
                continue;
            }
            let Some(f) = graph.fn_at(&unit.rel, hit.line) else {
                continue; // hazard outside any fn body (consts, statics)
            };
            if graph.fns[f].returns_value {
                tainted.entry(f).or_insert(Cause::Seed {
                    line: hit.line,
                    rule: hit.rule,
                });
            }
        }
    }

    // Propagate to fixpoint through value-returning callers.
    loop {
        let mut changed = false;
        for f in 0..graph.fns.len() {
            if tainted.contains_key(&f) || !graph.fns[f].returns_value {
                continue;
            }
            let hit = graph.fns[f].calls.iter().find_map(|c| {
                graph
                    .resolve(c)
                    .into_iter()
                    .find(|&t| t != f && tainted.contains_key(&t) && graph.fns[t].returns_value)
                    .map(|t| (c.line, t))
            });
            if let Some((line, callee)) = hit {
                tainted.insert(f, Cause::Call { line, callee });
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Report: Deterministic caller → tainted Ops callee.
    let mut out = Vec::new();
    let mut seen: Vec<(String, u32, usize)> = Vec::new();
    for f in 0..graph.fns.len() {
        let caller = &graph.fns[f];
        if caller.tier != Tier::Deterministic {
            continue;
        }
        for call in &caller.calls {
            let Some(target) = graph
                .resolve(call)
                .into_iter()
                .find(|&t| graph.fns[t].tier == Tier::Ops && tainted.contains_key(&t))
            else {
                continue;
            };
            let key = (caller.file.clone(), call.line, target);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let path = witness(graph, &tainted, f, call.line, target);
            let t = &graph.fns[target];
            out.push(Finding {
                file: caller.file.clone(),
                line: call.line,
                rule: RuleId::TaintFlow,
                message: format!(
                    "deterministic `{}` calls ops-tier `{}` whose return value \
                     carries nondeterministic data; log the value or route it \
                     through a sanctioned boundary (path below)",
                    caller.name, t.name,
                ),
                path,
            });
        }
    }
    out
}

/// Builds the human-readable call-path witness, outermost frame first,
/// ending at the raw read.
fn witness(
    graph: &SymbolGraph,
    tainted: &BTreeMap<usize, Cause>,
    caller: usize,
    call_line: u32,
    target: usize,
) -> Vec<String> {
    let mut path = Vec::new();
    let c = &graph.fns[caller];
    path.push(format!(
        "{}:{}: `{}` [Deterministic] calls `{}`",
        c.file,
        call_line,
        display_name(graph, caller),
        display_name(graph, target),
    ));
    let mut cur = target;
    // The via-chain is acyclic by construction (each link points at a
    // function tainted strictly earlier), but cap it defensively.
    for _ in 0..graph.fns.len() {
        let f = &graph.fns[cur];
        match tainted.get(&cur) {
            Some(Cause::Seed { line, rule }) => {
                path.push(format!(
                    "{}:{}: `{}` [{:?}] reads a raw {} source",
                    f.file,
                    line,
                    display_name(graph, cur),
                    f.tier,
                    rule.as_str(),
                ));
                break;
            }
            Some(Cause::Call { line, callee }) => {
                path.push(format!(
                    "{}:{}: `{}` [{:?}] calls `{}`",
                    f.file,
                    line,
                    display_name(graph, cur),
                    f.tier,
                    display_name(graph, *callee),
                ));
                cur = *callee;
            }
            None => break,
        }
    }
    path
}

fn display_name(graph: &SymbolGraph, f: usize) -> String {
    let sym = &graph.fns[f];
    match &sym.impl_type {
        Some(t) => format!("{}::{}", t, sym.name),
        None => sym.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::make_unit;

    fn units(files: &[(&str, &str)]) -> Vec<FileUnit> {
        files.iter().map(|(rel, src)| make_unit(rel, src)).collect()
    }

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let us = units(files);
        let graph = SymbolGraph::build(&us);
        taint_pass(&us, &graph)
    }

    #[test]
    fn one_hop_leak_is_flagged_with_path() {
        // Ops helper returns clock data; deterministic caller imports it.
        let hits = run(&[
            (
                "crates/engine/src/net.rs",
                "pub fn uptime_ms() -> u64 { Instant::now().elapsed().as_millis() as u64 }",
            ),
            (
                "crates/engine/src/core.rs",
                "pub fn handle() -> u64 { uptime_ms() }",
            ),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RuleId::TaintFlow);
        assert_eq!(hits[0].file, "crates/engine/src/core.rs");
        assert_eq!(hits[0].path.len(), 2, "{:?}", hits[0].path);
        assert!(hits[0].path[1].contains("WALLCLOCK"), "{:?}", hits[0].path);
    }

    #[test]
    fn unit_returning_helpers_absorb_taint() {
        // The ops fn reads the clock but returns (): nothing flows back.
        let hits = run(&[
            (
                "crates/engine/src/net.rs",
                "pub fn log_time() { let _ = Instant::now(); }",
            ),
            (
                "crates/engine/src/core.rs",
                "pub fn handle() { log_time(); }",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn det_tier_sanctioned_boundary_is_not_a_target() {
        // clock.rs is Deterministic tier: a tainted det fn is sanctioned.
        let hits = run(&[
            (
                "crates/engine/src/clock.rs",
                "pub fn start() -> u64 { Instant::now().elapsed().as_nanos() as u64 }",
            ),
            (
                "crates/engine/src/core.rs",
                "pub fn handle() -> u64 { start() }",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn ops_to_ops_flow_is_fine() {
        let hits = run(&[
            (
                "crates/engine/src/net.rs",
                "pub fn now_ms() -> u64 { Instant::now().elapsed().as_millis() as u64 }",
            ),
            (
                "crates/engine/src/cluster.rs",
                "pub fn pace() -> u64 { now_ms() }",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn taint_crosses_three_files() {
        let hits = run(&[
            (
                "crates/obs/src/lib.rs",
                "fn now_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }",
            ),
            (
                "crates/engine/src/wal.rs",
                "pub fn stamp() -> u64 { now_ns() + 1 }",
            ),
            (
                "crates/engine/src/core.rs",
                "pub fn handle() -> u64 { stamp() }",
            ),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].path.len(), 3, "{:?}", hits[0].path);
        let joined = hits[0].path.join("\n");
        assert!(joined.contains("core.rs"), "{joined}");
        assert!(joined.contains("wal.rs"), "{joined}");
        assert!(joined.contains("obs/src/lib.rs"), "{joined}");
    }

    #[test]
    fn test_code_reads_do_not_seed() {
        let hits = run(&[
            (
                "crates/engine/src/net.rs",
                "pub fn helper() -> u64 { 1 }\n\
                 #[cfg(test)]\nmod tests {\n    pub fn helper2() -> u64 { Instant::now().elapsed().as_millis() as u64 }\n}\n",
            ),
            (
                "crates/engine/src/core.rs",
                "pub fn handle() -> u64 { helper() }",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn recursion_terminates() {
        let hits = run(&[
            (
                "crates/engine/src/net.rs",
                "pub fn a(n: u64) -> u64 { if n > 0 { a(n - 1) } else { Instant::now().elapsed().as_millis() as u64 } }",
            ),
            (
                "crates/engine/src/core.rs",
                "pub fn handle() -> u64 { a(3) }",
            ),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
    }
}
