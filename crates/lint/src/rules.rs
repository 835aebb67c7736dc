//! The rule catalogue: what breaks replay, and how each hazard is matched
//! against the token stream.
//!
//! Rules are deliberately *syntactic*. A type-resolving analysis would be
//! nicer, but the workspace builds with no registry access (no `syn`, no
//! dylint), and replay-debugging practice shows the payoff is in having the
//! fence at all: hazards like a stray `Instant::now` are found by tooling,
//! not review (Sundmark et al., AADEBUG 2003). False positives are handled
//! by explicit, counted `// tart-lint: allow(RULE) -- reason` suppressions.
//! Every finding is an error.

use crate::lexer::Token;
use crate::manifest::Tier;

/// Stable rule identifiers (also the names used in `allow(...)` directives).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// Wall-clock reads (`Instant::now`, `SystemTime`, `UNIX_EPOCH`).
    Wallclock,
    /// Ambient randomness (`thread_rng`, `from_entropy`, `OsRng`, ...).
    AmbientRand,
    /// `HashMap`/`HashSet` in a deterministic tier: iteration order can
    /// leak into checkpoint images and send order.
    HashIter,
    /// Environment and filesystem reads in deterministic code.
    AmbientEnv,
    /// A call path from a Deterministic-tier function into an Ops-tier
    /// function whose return value (transitively) carries wall-clock,
    /// entropy, or environment data. Interprocedural; the finding prints
    /// the full call path (see [`crate::taint`]).
    TaintFlow,
    /// An `allow` directive with no `-- reason`.
    UndocAllow,
    /// An `allow` directive that suppressed nothing.
    UnusedAllow,
}

impl RuleId {
    /// Every rule, in catalogue order.
    pub const ALL: [RuleId; 7] = [
        RuleId::Wallclock,
        RuleId::AmbientRand,
        RuleId::HashIter,
        RuleId::AmbientEnv,
        RuleId::TaintFlow,
        RuleId::UndocAllow,
        RuleId::UnusedAllow,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            RuleId::Wallclock => "WALLCLOCK",
            RuleId::AmbientRand => "AMBIENT-RAND",
            RuleId::HashIter => "HASH-ITER",
            RuleId::AmbientEnv => "AMBIENT-ENV",
            RuleId::TaintFlow => "TAINT-FLOW",
            RuleId::UndocAllow => "UNDOC-ALLOW",
            RuleId::UnusedAllow => "UNUSED-ALLOW",
        }
    }

    /// Parses a rule name (as written inside `allow(...)`).
    pub fn parse(s: &str) -> Option<RuleId> {
        let s = s.trim();
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// Whether this rule reports findings in the given tier.
    pub fn applies_in(&self, tier: Tier) -> bool {
        use RuleId::*;
        use Tier::*;
        match (self, tier) {
            (_, Exempt) => false,
            // Ambient randomness stays banned everywhere: even ops code
            // must thread entropy through the seeded DetRng so chaos runs
            // and reconnect jitter stay reproducible.
            (AmbientRand, Deterministic | Ops) => true,
            // Wall-clock reads, hash-iteration order and env reads only
            // corrupt the fenced core. The ops plane reads clocks, disks
            // and registries as part of its job; the *boundary* is guarded
            // path-sensitively by TAINT-FLOW instead of per-line allows
            // (the pre-taint regime annotated every ops read, which proved
            // pure noise — ~19 allows said "ops-plane: real time is fine
            // here" without once finding a leak).
            (Wallclock | HashIter | AmbientEnv, Deterministic) => true,
            (Wallclock | HashIter | AmbientEnv, Ops) => false,
            // Interprocedural: a deterministic caller reaching tainted ops
            // code is the leak itself; ops-to-ops flows are the job.
            (TaintFlow, Deterministic) => true,
            (TaintFlow, Ops) => false,
            // Directive hygiene is handled by the engine, tier-independent.
            (UndocAllow | UnusedAllow, _) => true,
        }
    }
}

/// A matched hazard before suppression is applied.
#[derive(Clone, Debug)]
pub struct Hit {
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
}

/// The raw-hazard subset used for taint seeding: these rules mark a
/// function as *reading* nondeterministic inputs regardless of the tier's
/// lexical policy (an ops-plane clock read is locally fine but still
/// taints the value it returns).
pub fn is_taint_source(rule: RuleId) -> bool {
    matches!(
        rule,
        RuleId::Wallclock | RuleId::AmbientRand | RuleId::AmbientEnv
    )
}

/// Runs every pattern rule over a token stream. `tier` selects which rules
/// apply.
pub fn scan(tokens: &[Token], tier: Tier) -> Vec<Hit> {
    let mut hits = Vec::new();
    let mut push = |line: u32, rule: RuleId, message: String| {
        if rule.applies_in(tier) {
            hits.push(Hit {
                line,
                rule,
                message,
            });
        }
    };
    for (i, tok) in tokens.iter().enumerate() {
        let Some(ident) = tok.kind.as_ident() else {
            continue;
        };
        let line = tok.line;
        match ident {
            // ---- WALLCLOCK -------------------------------------------------
            "Instant" if followed_by_path(tokens, i, "now") => push(
                line,
                RuleId::Wallclock,
                "`Instant::now()` reads the wall clock; replay cannot reproduce it. \
                 Use the engine clock abstraction (tart_engine::clock) or virtual time."
                    .to_string(),
            ),
            "SystemTime" => push(
                line,
                RuleId::Wallclock,
                "`SystemTime` observes the wall clock; replay cannot reproduce it. \
                 Stamp external input via a TimeSource instead."
                    .to_string(),
            ),
            "UNIX_EPOCH" => push(
                line,
                RuleId::Wallclock,
                "`UNIX_EPOCH` arithmetic implies a wall-clock read.".to_string(),
            ),
            // ---- AMBIENT-RAND ----------------------------------------------
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" | "RandomState" => push(
                line,
                RuleId::AmbientRand,
                format!(
                    "`{ident}` draws ambient entropy; two replays diverge. \
                     Use tart_stats::DetRng with a seed from the logged configuration."
                ),
            ),
            "random" if preceded_by_path(tokens, i, "rand") => push(
                line,
                RuleId::AmbientRand,
                "`rand::random()` draws from the thread RNG; replays diverge.".to_string(),
            ),
            // ---- HASH-ITER -------------------------------------------------
            "HashMap" | "HashSet" => push(
                line,
                RuleId::HashIter,
                format!(
                    "`{ident}` in a deterministic tier: iteration order is \
                     randomized per-process and leaks into checkpoint images, \
                     send order, and replay. Use BTreeMap/BTreeSet or emit sorted."
                ),
            ),
            // ---- AMBIENT-ENV -----------------------------------------------
            "env"
                if preceded_by_path(tokens, i, "std")
                    || followed_by_any(tokens, i, &["var", "vars", "var_os"]) =>
            {
                push(
                    line,
                    RuleId::AmbientEnv,
                    "environment reads are invisible to the message log; a replica \
                     or a replay may see a different value."
                        .to_string(),
                )
            }
            "read_to_string" | "read_dir" => push(
                line,
                RuleId::AmbientEnv,
                format!("`{ident}` reads outside the logged input channel."),
            ),
            "File" if followed_by_path(tokens, i, "open") => push(
                line,
                RuleId::AmbientEnv,
                "`File::open` in deterministic code: file contents are not \
                 part of the message log, so replay cannot reproduce them."
                    .to_string(),
            ),
            "fs" if followed_by_any(tokens, i, &["read", "read_to_string", "read_dir"]) => push(
                line,
                RuleId::AmbientEnv,
                "filesystem reads are invisible to the message log.".to_string(),
            ),
            _ => {}
        }
    }
    hits
}

/// `tokens[i]` then `::` then `name`.
fn followed_by_path(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens
        .get(i + 1)
        .map(|t| t.kind.is_punct(':'))
        .unwrap_or(false)
        && tokens
            .get(i + 2)
            .map(|t| t.kind.is_punct(':'))
            .unwrap_or(false)
        && tokens
            .get(i + 3)
            .and_then(|t| t.kind.as_ident())
            .map(|s| s == name)
            .unwrap_or(false)
}

fn followed_by_any(tokens: &[Token], i: usize, names: &[&str]) -> bool {
    names.iter().any(|n| followed_by_path(tokens, i, n))
}

/// `name` then `::` then `tokens[i]`.
fn preceded_by_path(tokens: &[Token], i: usize, name: &str) -> bool {
    i >= 3
        && tokens[i - 1].kind.is_punct(':')
        && tokens[i - 2].kind.is_punct(':')
        && tokens[i - 3]
            .kind
            .as_ident()
            .map(|s| s == name)
            .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_src(src: &str, tier: Tier) -> Vec<Hit> {
        scan(&lex(src).tokens, tier)
    }

    #[test]
    fn wallclock_fires_in_deterministic_tier() {
        let hits = scan_src("let t = Instant::now();", Tier::Deterministic);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::Wallclock);
    }

    #[test]
    fn hash_iter_is_ops_exempt() {
        let src = "let m: HashMap<u8, u8> = HashMap::new();";
        assert_eq!(scan_src(src, Tier::Deterministic).len(), 2);
        assert!(scan_src(src, Tier::Ops).is_empty());
    }

    #[test]
    fn instant_elapsed_alone_does_not_fire() {
        // Storing/holding an Instant is caught where it is created.
        assert!(scan_src("let d = epoch.elapsed();", Tier::Deterministic).is_empty());
    }

    #[test]
    fn parse_round_trips_every_rule() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.as_str()), Some(rule));
        }
        assert_eq!(RuleId::parse("UNSAFE"), None);
    }
}
