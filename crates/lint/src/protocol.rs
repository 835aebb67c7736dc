//! Protocol exhaustiveness: every registered `Envelope` match site must
//! keep handling its registered variant set.
//!
//! `rustc` checks match exhaustiveness *syntactically* — and the two most
//! replay-critical sites defeat it by design: `decode` matches on a wire
//! *tag* with a wildcard error arm, and several ops loops (`standby`,
//! `supervise`, the replay service) use `_ =>` to ignore traffic that is
//! not theirs. Adding envelope tag 15 therefore compiles clean while the
//! decoder silently rejects it and replay never sees it.
//!
//! This pass closes the gap with a **site registry**: each entry names a
//! file, a function, and the set of variants that function must *mention*
//! (`Envelope::Variant` or `Self::Variant` anywhere in its body — a match
//! arm, an `if let`, or a construction site all count). `All` entries
//! (encode, decode, `core::handle`) fail when a new variant lands without
//! touching them; `Only` entries pin the protocol subset a site exists to
//! handle, so a refactor cannot silently drop, say, `Die` handling from
//! the standby plane. A registered function missing from a present file is
//! itself a finding — the registry cannot rot silently.

use crate::rules::{PassHit, RuleId};
use crate::symbols::{FileUnit, SymbolGraph};

/// What a registered site must mention.
pub enum Requirement {
    /// Every variant of the enum (protocol-total sites).
    All,
    /// Exactly this registered subset (other mentions are fine).
    Only(&'static [&'static str]),
}

/// One registered `Envelope` match site.
pub struct Site {
    /// Workspace-relative path suffix of the file that hosts the site.
    pub file_suffix: &'static str,
    /// The function (by name) that performs the match.
    pub func: &'static str,
    pub req: Requirement,
    /// Why this site is registered (printed in findings).
    pub why: &'static str,
}

/// The Envelope-site registry. Keep in sync with DESIGN.md §17.
///
/// Absent files are skipped (so fixture subsets and partial workspaces
/// audit cleanly); a registered function missing from a *present* file is
/// an error.
pub const SITES: &[Site] = &[
    Site {
        file_suffix: "engine/src/envelope.rs",
        func: "encode",
        req: Requirement::All,
        why: "the wire writer must serialize every variant",
    },
    Site {
        file_suffix: "engine/src/envelope.rs",
        func: "decode",
        req: Requirement::All,
        why: "the wire reader's tag match has a wildcard error arm rustc cannot check",
    },
    Site {
        file_suffix: "engine/src/envelope.rs",
        func: "wire",
        req: Requirement::Only(&[
            "Data",
            "Silence",
            "Probe",
            "ReplayRequest",
            "ReplayDone",
            "TrimAck",
            "Eos",
            "StandbyInput",
        ]),
        why: "per-wire routing: every wire-scoped variant must expose its WireId",
    },
    Site {
        file_suffix: "engine/src/envelope.rs",
        func: "faultable",
        req: Requirement::Only(&["Data", "Silence"]),
        why: "the fault injector may only disturb payload traffic",
    },
    Site {
        file_suffix: "engine/src/core.rs",
        func: "handle",
        req: Requirement::All,
        why: "the engine delivery loop is protocol-total: unhandled kinds stall replay",
    },
    Site {
        file_suffix: "engine/src/standby.rs",
        func: "on_envelope",
        req: Requirement::Only(&["StandbyInput", "Die"]),
        why: "the warm-standby plane must keep hearing each engine's input head",
    },
    Site {
        file_suffix: "engine/src/supervise.rs",
        func: "start",
        req: Requirement::Only(&["Heartbeat"]),
        why: "the failure detector must keep reading liveness beacons",
    },
    Site {
        file_suffix: "engine/src/cluster.rs",
        func: "spawn_replay_service",
        req: Requirement::Only(&["ReplayRequest", "Die"]),
        why: "the replay service must answer replay requests and shut down on Die",
    },
];

/// Runs the protocol pass: checks every registered site against the
/// `Envelope` enum found in the graph. No enum, no findings (fixture sets
/// without a protocol are fine).
pub fn protocol_pass(units: &[FileUnit], graph: &SymbolGraph) -> Vec<PassHit> {
    let Some(envelope) = graph.enums.iter().find(|e| e.name == "Envelope") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for site in SITES {
        let Some(unit) = units.iter().find(|u| u.rel.ends_with(site.file_suffix)) else {
            continue;
        };
        let site_fns: Vec<usize> = (0..graph.fns.len())
            .filter(|&i| graph.fns[i].file == unit.rel && graph.fns[i].name == site.func)
            .collect();
        if site_fns.is_empty() {
            out.push(PassHit {
                file: unit.rel.clone(),
                line: 1,
                rule: RuleId::EnvelopeNonexhaustive,
                message: format!(
                    "registered Envelope site `{}` is missing from this file; \
                     update the site registry in crates/lint/src/protocol.rs \
                     if it moved ({})",
                    site.func, site.why
                ),
                path: Vec::new(),
            });
            continue;
        }
        let mentioned = |variant: &str| {
            site_fns.iter().any(|&i| {
                graph.fns[i]
                    .qualified_refs
                    .iter()
                    .any(|(q, m)| q == "Envelope" && m == variant)
            })
        };
        let required: Vec<&str> = match site.req {
            Requirement::All => envelope.variants.iter().map(|v| v.as_str()).collect(),
            Requirement::Only(list) => list.to_vec(),
        };
        let missing: Vec<&str> = required.into_iter().filter(|v| !mentioned(v)).collect();
        if !missing.is_empty() {
            let line = graph.fns[site_fns[0]].line;
            out.push(PassHit {
                file: unit.rel.clone(),
                line,
                rule: RuleId::EnvelopeNonexhaustive,
                message: format!(
                    "`{}` no longer handles registered Envelope variant(s) {}; \
                     {} — handle them or update the site registry in \
                     crates/lint/src/protocol.rs",
                    site.func,
                    missing.join(", "),
                    site.why
                ),
                path: missing
                    .iter()
                    .map(|v| {
                        format!(
                            "{}:{}: variant `Envelope::{}` declared here",
                            envelope.file, envelope.line, v
                        )
                    })
                    .collect(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::test_ranges;
    use crate::lexer::lex;
    use crate::manifest::tier_for;
    use crate::symbols::FileUnit;

    fn run(files: &[(&str, &str)]) -> Vec<PassHit> {
        let units: Vec<FileUnit> = files
            .iter()
            .map(|(rel, src)| {
                let lexed = lex(src);
                let excluded = test_ranges(&lexed.tokens);
                FileUnit {
                    rel: rel.to_string(),
                    tier: tier_for(rel),
                    lexed,
                    excluded,
                }
            })
            .collect();
        let graph = SymbolGraph::build(&units);
        protocol_pass(&units, &graph)
    }

    const MINI_ENUM: &str = "pub enum Envelope { Data { wire: u8 }, Die }\n";

    #[test]
    fn complete_sites_pass() {
        let hits = run(&[(
            "crates/engine/src/envelope.rs",
            &format!(
                "{MINI_ENUM}\
                 impl Envelope {{\n\
                     fn encode(&self) -> u8 {{ match self {{ Envelope::Data {{ .. }} => 0, Envelope::Die => 1 }} }}\n\
                     fn decode(t: u8) -> u8 {{ match t {{ 0 => 0, _ => {{ let _ = Envelope::Data {{ wire: 0 }}; let _ = Envelope::Die; 1 }} }} }}\n\
                     fn wire(&self) -> u8 {{ match self {{ Envelope::Data {{ wire }} => *wire, _ => 0 }} }}\n\
                     fn faultable(&self) -> bool {{ matches!(self, Envelope::Data {{ .. }}) }}\n\
                 }}\n"
            ),
        )]);
        // `wire` and `faultable` Only-sets include variants this mini enum
        // lacks (Silence etc.) — those registered names are still required.
        // Use a dedicated registry subset instead: just check encode/decode
        // style sites pass by asserting no finding mentions them.
        assert!(
            !hits
                .iter()
                .any(|h| h.message.contains("`encode`") || h.message.contains("`decode`")),
            "{hits:?}"
        );
    }

    #[test]
    fn dropped_variant_fires() {
        let hits = run(&[(
            "crates/engine/src/core.rs",
            &format!(
                "{MINI_ENUM}\
                 pub fn handle(e: Envelope) -> u8 {{ match e {{ Envelope::Data {{ .. }} => 0, _ => 1 }} }}\n"
            ),
        )]);
        let h = hits
            .iter()
            .find(|h| h.message.contains("`handle`"))
            .expect("handle finding");
        assert_eq!(h.rule, RuleId::EnvelopeNonexhaustive);
        assert!(h.message.contains("Die"), "{}", h.message);
        assert!(!h.path.is_empty());
    }

    #[test]
    fn missing_registered_fn_in_present_file_fires() {
        let hits = run(&[(
            "crates/engine/src/standby.rs",
            &format!("{MINI_ENUM}fn other() {{}}\n"),
        )]);
        assert!(
            hits.iter()
                .any(|h| h.message.contains("`on_envelope`") && h.message.contains("missing")),
            "{hits:?}"
        );
    }

    #[test]
    fn no_envelope_enum_means_no_findings() {
        let hits = run(&[("crates/engine/src/core.rs", "pub fn handle() {}")]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn absent_files_are_skipped() {
        // Only the enum's own file present: registry sites elsewhere skip.
        let hits = run(&[("crates/engine/src/standby.rs", MINI_ENUM)]);
        // standby.rs IS present and lacks on_envelope → that one fires;
        // core.rs / envelope.rs / supervise.rs sites must not.
        assert!(hits.iter().all(|h| h.file.contains("standby")), "{hits:?}");
    }
}
