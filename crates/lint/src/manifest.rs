//! The determinism-tier manifest: which parts of the workspace must stay
//! replayable, and which are ops-plane or exempt.
//!
//! TART's recovery story (PAPER.md §II) is checkpoint + deterministic
//! replay. That is only sound if the *replayable core* — everything whose
//! behaviour is reconstructed from the message log — never observes
//! wall-clock time, ambient randomness, hash-iteration order, or the
//! environment. The manifest pins each path to a tier; each rule decides
//! per tier whether it applies (see [`crate::rules`]).
//!
//! Longest-prefix match wins, so a specific file entry overrides its
//! crate's default. New engine modules default to [`Tier::Deterministic`]:
//! the fence fails closed.

/// How strictly a path is audited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Part of the replayable core: every determinism rule applies.
    /// Handlers, codecs, schedulers, checkpointed containers.
    Deterministic,
    /// Ops plane: runs *around* the replayable core (failure detection,
    /// transport, chaos injection, durability I/O). Wall-clock reads are
    /// part of the job and allowed in place; what is fenced instead is the
    /// *boundary*: the interprocedural taint pass (`TAINT-FLOW`) errors
    /// when a deterministic-tier function obtains a value whose data flow
    /// reaches an ops-plane clock/rand/env read, and ambient randomness
    /// stays an error even here (a seeded `DetRng` exists on both planes).
    Ops,
    /// Not audited (measurement harnesses whose entire purpose is timing).
    Exempt,
}

/// `(path prefix, tier)` — paths are workspace-relative with `/` separators.
///
/// Keep this table in sync with the tier table in DESIGN.md §12.
pub const TIERS: &[(&str, Tier)] = &[
    // Pure deterministic crates: the paper's replayable core.
    ("crates/vtime/", Tier::Deterministic),
    ("crates/codec/", Tier::Deterministic),
    ("crates/stats/", Tier::Deterministic),
    ("crates/model/", Tier::Deterministic),
    ("crates/estimator/", Tier::Deterministic),
    ("crates/silence/", Tier::Deterministic),
    ("crates/sched/", Tier::Deterministic),
    ("crates/sim/", Tier::Deterministic),
    // The façade crate re-exports the core; keep it fenced.
    ("src/", Tier::Deterministic),
    // Engine: deterministic by default (fail closed). The ops-plane modules
    // below are listed explicitly; anything new lands in the fenced tier
    // until someone consciously moves it.
    ("crates/engine/", Tier::Deterministic),
    // Verified replay (DESIGN.md §15): the hashing, sealing and bisection
    // paths must themselves be deterministic, or the divergence detector
    // would raise phantoms. Listed explicitly — despite matching the
    // deterministic defaults above — so a future re-tiering of their parent
    // prefixes cannot silently unfence them.
    ("crates/model/src/hash.rs", Tier::Deterministic),
    ("crates/engine/src/checkpoint.rs", Tier::Deterministic),
    ("crates/engine/src/verify.rs", Tier::Deterministic),
    // The scheduler/replay heart of the engine, pinned for the same reason:
    // it must never drift onto the ops plane by a parent re-tier.
    ("crates/engine/src/core.rs", Tier::Deterministic),
    ("crates/engine/src/supervise.rs", Tier::Ops),
    ("crates/engine/src/standby.rs", Tier::Ops),
    ("crates/engine/src/chaos.rs", Tier::Ops),
    // The router decides *which inbox*, never message content or per-link
    // order; its chaos-latency stalls read the wall clock, so it lives on
    // the ops plane (DESIGN.md §18 has the determinism argument).
    ("crates/engine/src/router.rs", Tier::Ops),
    ("crates/engine/src/cluster.rs", Tier::Ops),
    ("crates/engine/src/net.rs", Tier::Ops),
    // The socket reactor (DESIGN.md §18): transport timing — reconnect
    // backoff, idle ticks — is its whole job.
    ("crates/engine/src/reactor.rs", Tier::Ops),
    ("crates/engine/src/wal.rs", Tier::Ops),
    ("crates/engine/src/store.rs", Tier::Ops),
    ("crates/engine/src/config.rs", Tier::Ops),
    // Observability: telemetry *about* the core, never state *inside* it.
    // Wall-clock stamps are its purpose, so it lives on the ops plane; the
    // engine core only ever calls opaque obs methods.
    ("crates/obs/", Tier::Ops),
    // The auditor itself: no wall-clock or randomness either, but its rule
    // tables name hazards in string literals (which the lexer skips).
    ("crates/lint/", Tier::Ops),
    // Measurement harness: its entire purpose is wall-clock timing.
    ("crates/bench/", Tier::Exempt),
];

/// Resolves the tier for a workspace-relative path (longest prefix wins).
/// Unknown paths are audited as Deterministic.
pub fn tier_for(rel_path: &str) -> Tier {
    let mut best: Option<(&str, Tier)> = None;
    for (prefix, tier) in TIERS {
        if rel_path.starts_with(prefix) && best.map(|(p, _)| prefix.len() > p.len()).unwrap_or(true)
        {
            best = Some((prefix, *tier));
        }
    }
    best.map(|(_, t)| t).unwrap_or(Tier::Deterministic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        assert_eq!(tier_for("crates/engine/src/core.rs"), Tier::Deterministic);
        assert_eq!(tier_for("crates/engine/src/supervise.rs"), Tier::Ops);
        assert_eq!(tier_for("crates/engine/src/chaos.rs"), Tier::Ops);
        assert_eq!(tier_for("crates/engine/src/reactor.rs"), Tier::Ops);
    }

    #[test]
    fn unknown_paths_fail_closed() {
        assert_eq!(tier_for("crates/brand_new/src/lib.rs"), Tier::Deterministic);
    }

    #[test]
    fn verified_replay_modules_are_fenced() {
        // The hash/seal/bisect paths are pinned Deterministic by explicit
        // entries, independent of their crate-prefix defaults.
        assert_eq!(tier_for("crates/model/src/hash.rs"), Tier::Deterministic);
        assert_eq!(
            tier_for("crates/engine/src/checkpoint.rs"),
            Tier::Deterministic
        );
        assert_eq!(tier_for("crates/engine/src/verify.rs"), Tier::Deterministic);
    }

    #[test]
    fn bench_is_exempt() {
        assert_eq!(tier_for("crates/bench/src/lib.rs"), Tier::Exempt);
    }
}
