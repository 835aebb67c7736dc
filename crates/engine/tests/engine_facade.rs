//! The engine's facade is pinned: every name `crates/engine/src/lib.rs`
//! exports (`pub use`, `pub mod`) and every public item of `pub mod net` is
//! in [`FACADE`] with the reason it is public, and nothing else is. rustc
//! never calls a `pub` item dead, so a name exported without a reason would
//! hide whether the system still runs it. Widening the facade means editing
//! this list.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every public name of the engine crate (`net::` items under their module),
/// one reason per line, `reason: names`. A name is public for one of two
/// reasons:
///
/// - `cluster`: part of the `Cluster` API — in `tart::prelude`, in the
///   signature or a public field of something reachable from `Cluster`,
///   `ClusterConfig` (and its nested configs), `Injector` or a type they
///   return, or the `tart-obs` report API behind `Cluster::write_obs_report`;
/// - `benchmark <token>`: used by the frozen benchmark, which must still
///   contain `<token>` (the name itself, or the call that returns it) under
///   `benchmark/src`. A pin the benchmark no longer needs is stale.
const FACADE: &str = "
cluster: ChaosEvent ChaosHandle ChaosOptions ChaosPlan ChaosReport DiskFault
cluster: LogicalClock RealClock TimeSource Cluster ComponentRecovery CrashReport
cluster: DeployError EngineRecovery Injector PromoteError RecoveryReport
cluster: ClusterConfig DurabilityConfig Placement StandbyConfig SupervisionConfig
cluster: OutputRecord FaultPlan StandbyStatus SupervisionMetrics DurabilityPolicy
cluster: check_report write_report EngineObs Histogram ObsEvent ObsEventKind
cluster: ObsHub ObsSnapshot ReportRequirements
benchmark verify_chain: verify_chain ChainDefect
benchmark EngineCheckpoint: EngineCheckpoint
benchmark ReplicaStore: ReplicaStore
benchmark EngineCore: EngineCore
benchmark Flow: Flow
benchmark Envelope: Envelope
benchmark Router: Router
benchmark MessageLog: MessageLog
benchmark MessageLog::durable: LogError
benchmark CheckpointStore: CheckpointStore
benchmark CheckpointStore::open: StoreError
benchmark load_chain: LoadedChain
benchmark FsyncPolicy: FsyncPolicy
benchmark Wal: Wal
benchmark Wal::create: WalError
benchmark Wal::open: WalRecovery
benchmark tart_engine::net: net
benchmark encode_batch_into: net::encode_batch_into
benchmark read_batch: net::read_batch
benchmark remote_engine_with: net::remote_engine_with
benchmark ReconnectPolicy: net::ReconnectPolicy
benchmark RemoteLink: net::RemoteLink
benchmark .snapshot(): net::LinkHealth
benchmark TcpInbound: net::TcpInbound
";

/// `(name, benchmark token)` for every pinned name; `None` for `cluster`.
fn pins() -> Vec<(&'static str, Option<&'static str>)> {
    let mut out = Vec::new();
    for line in FACADE.lines().filter(|l| !l.is_empty()) {
        let (reason, names) = line.split_once(": ").expect("`reason: names`");
        let token = reason.strip_prefix("benchmark ");
        assert!(token.is_some() || reason == "cluster", "reason `{reason}`");
        out.extend(names.split_whitespace().map(|name| (name, token)));
    }
    out
}

fn pinned() -> BTreeSet<String> {
    pins()
        .into_iter()
        .map(|(name, _)| name.to_owned())
        .collect()
}

fn source(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The names `lib.rs` exports: each `pub mod` and the last segment (or
/// each braced item) of each `pub use` statement.
fn exported(lib: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for statement in lib.split(';') {
        let statement = statement.trim();
        let statement = &statement[statement.rfind("\npub ").map_or(0, |i| i + 1)..];
        if let Some(module) = statement.strip_prefix("pub mod ") {
            out.insert(module.trim().to_owned());
        } else if let Some(path) = statement.strip_prefix("pub use ") {
            let items = match path.split_once('{') {
                Some((_, list)) => list.trim_end_matches('}'),
                None => path.rsplit("::").next().unwrap_or(path),
            };
            let items = items.split(',').map(str::trim).filter(|i| !i.is_empty());
            out.extend(items.map(str::to_owned));
        }
    }
    out
}

/// The public items `net.rs` declares outside its tests, as `net::Name`.
fn net_items(net: &str) -> BTreeSet<String> {
    let code = net.split("#[cfg(test)]").next().unwrap_or(net);
    let kinds = ["fn", "struct", "enum", "trait", "type", "const", "static"];
    let mut out = BTreeSet::new();
    for line in code.lines() {
        for rest in kinds
            .iter()
            .filter_map(|k| line.strip_prefix(&format!("pub {k} ")))
        {
            let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            out.insert(format!("net::{}", &rest[..end.unwrap_or(rest.len())]));
        }
    }
    out
}

#[test]
fn the_facade_exports_exactly_the_pinned_names() {
    let mut public = exported(&source("crates/engine/src/lib.rs"));
    public.extend(net_items(&source("crates/engine/src/net.rs")));
    let pinned = pinned();
    assert_eq!(pinned.len(), pins().len(), "a name is pinned twice");
    let unpinned: Vec<_> = public.difference(&pinned).collect();
    assert!(
        unpinned.is_empty(),
        "exported without a reason; pin it here, or seal it: {unpinned:?}"
    );
    let gone: Vec<_> = pinned.difference(&public).collect();
    assert!(gone.is_empty(), "pinned but no longer exported: {gone:?}");
}

#[test]
fn every_benchmark_pin_is_still_used_by_the_benchmark() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmark/src");
    let mut sources = String::new();
    for entry in std::fs::read_dir(&dir).expect("benchmark/src") {
        sources += &std::fs::read_to_string(entry.expect("entry").path()).expect("source");
    }
    let stale: Vec<_> = pins()
        .into_iter()
        .filter(|(_, token)| token.is_some_and(|t| !sources.contains(t)))
        .collect();
    assert!(
        stale.is_empty(),
        "benchmark/src no longer names these; seal them or pin them as cluster: {stale:?}"
    );
}

#[test]
fn the_parser_sees_a_planted_export() {
    let lib = source("crates/engine/src/lib.rs");
    let planted = format!("{lib}\npub use retention::RetentionBuffer;\npub mod reactor;\n");
    let extra: Vec<_> = exported(&planted).difference(&pinned()).cloned().collect();
    assert_eq!(extra, ["RetentionBuffer", "reactor"]);
    let net = "pub fn planted() {}\n#[cfg(test)]\npub fn in_tests() {}\n";
    assert_eq!(Vec::from_iter(net_items(net)), ["net::planted"]);
}
