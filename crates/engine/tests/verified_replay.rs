//! Verified replay end-to-end (DESIGN.md §15): seeded state corruption is
//! **detected** — not silently resumed — and recovery still converges.
//!
//! The drill models the failure the chain seal cannot catch on its own:
//! recorded checkpoint metadata that is internally consistent (CRC valid,
//! seals recomputed) but no longer matches what deterministic replay
//! reproduces — the on-disk signature of a nondeterministic original run
//! or of memory corruption that was checkpointed before crashing. The
//! cluster must raise a structured divergence (counter + timeline event +
//! flight dump), discard the divergent suffix, and reconverge from the
//! longest verified prefix; the offline bisector must name the first
//! divergent member and virtual time.

use std::path::{Path, PathBuf};
use std::time::Duration;

use tart_codec::{crc32, Encode};
use tart_engine::{
    verify_replay, CheckpointStore, Cluster, ClusterConfig, DurabilityPolicy, EngineCheckpoint,
    OutputRecord, Placement, ReplayVerdict,
};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{self, fan_in_app};
use tart_model::{AppSpec, BlockId, Value};
use tart_vtime::{EngineId, VirtualTime};

const SENTENCES: &[(&str, &str)] = &[
    ("client1", "alpha beta gamma"),
    ("client2", "beta gamma delta"),
    ("client1", "gamma delta epsilon"),
    ("client2", "delta epsilon alpha"),
    ("client1", "epsilon alpha beta"),
    ("client2", "alpha beta gamma delta"),
    ("client1", "beta delta"),
    ("client2", "gamma epsilon alpha beta"),
];

fn paper_config(spec: &AppSpec) -> ClusterConfig {
    let mut config = ClusterConfig::logical_time();
    for c in spec.components() {
        let est = if c.name().starts_with("Sender") {
            EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000)
        } else {
            EstimatorSpec::per_iteration(BlockId(0), 400_000)
        };
        config = config.with_estimator(c.id(), est);
    }
    config
}

fn two_engine_placement(spec: &AppSpec) -> Placement {
    let mut p = Placement::new();
    for c in spec.components() {
        let engine = if c.name() == "Merger" { 1 } else { 0 };
        p.assign(c.id(), EngineId::new(engine));
    }
    p
}

fn normalize(outputs: Vec<OutputRecord>) -> Vec<(u64, String)> {
    Cluster::dedup_outputs(outputs)
        .into_iter()
        .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
        .collect()
}

fn failure_free_run() -> Vec<(u64, String)> {
    let spec = fan_in_app(2).expect("valid app");
    let cluster = Cluster::deploy(
        spec.clone(),
        two_engine_placement(&spec),
        paper_config(&spec),
    )
    .expect("deploys");
    for (client, sentence) in SENTENCES {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    normalize(cluster.shutdown())
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tart-vreplay-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Drives six sentences in three checkpointed strides so engine 0's durable
/// chain has the shape `[full, delta, delta]`, then crashes the cluster.
fn run_and_crash(dir: &Path) -> Vec<OutputRecord> {
    let spec = fan_in_app(2).expect("valid app");
    // Manual checkpoint cadence (the huge `checkpoint_every` never fires on
    // its own) with a full only every 4th capture: three strides give one
    // full plus two deltas per engine.
    let config = paper_config(&spec)
        .with_checkpoint_every(100_000)
        .with_durability(dir, DurabilityPolicy::Strict)
        .with_full_checkpoint_every(4);
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for chunk in SENTENCES[..6].chunks(2) {
        for (client, sentence) in chunk {
            cluster
                .injector(client)
                .expect("injector")
                .send(Value::from(*sentence));
        }
        // Let the sends land so each checkpoint captures real progress
        // (an empty delta is re-captured as a full, changing the shape).
        std::thread::sleep(Duration::from_millis(250));
        for engine in cluster.engine_ids() {
            cluster.checkpoint_now(engine);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    cluster.crash()
}

/// On-disk checkpoint file name, mirroring the store's naming scheme.
fn ckpt_path(dir: &Path, engine: u32, generation: u64, is_full: bool) -> PathBuf {
    let suffix = if is_full { "" } else { "-d" };
    dir.join("ckpt")
        .join(format!("ckpt-e{engine:04}-g{generation:08}{suffix}.bin"))
}

/// Rewrites generation `generation` of `engine` with `ckpt`, CRC frame
/// recomputed — byte-level checks will pass; only hash verification can
/// object to what's inside.
fn rewrite_checkpoint(dir: &Path, engine: u32, generation: u64, ckpt: &EngineCheckpoint) {
    let body = ckpt.to_bytes();
    let mut framed = Vec::with_capacity(body.len() + 8);
    framed.extend_from_slice(&(body.len() as u32).to_be_bytes());
    framed.extend_from_slice(&crc32(&body).to_be_bytes());
    framed.extend_from_slice(&body);
    std::fs::write(
        ckpt_path(dir, engine, generation, ckpt.is_self_contained()),
        framed,
    )
    .expect("rewrite checkpoint");
}

/// Corrupts engine 0's durable chain from its first delta onward: every
/// recorded clock from that horizon is skewed one tick, and the seals are
/// recomputed so the chain is *structurally* pristine. This is exactly what
/// a nondeterministic original run leaves behind — checkpoints that verify
/// byte-for-byte but describe state replay will never reproduce. Returns
/// the pristine chain and the virtual time of the first divergent horizon.
fn skew_chain_from_first_delta(dir: &Path) -> (Vec<EngineCheckpoint>, VirtualTime) {
    let store = CheckpointStore::open(dir.join("ckpt")).expect("open store");
    let e0 = EngineId::new(0);
    let loaded = store
        .load_chain(e0)
        .expect("chain loads")
        .expect("engine 0 persisted a chain");
    assert!(
        loaded.chain.len() >= 3 && !loaded.chain[1].is_self_contained(),
        "drill needs a [full, delta, delta] chain, got {} members",
        loaded.chain.len()
    );
    let first_divergent_vt = *loaded.chain[1].clocks.values().next().expect("clocks");
    let base_generation = loaded.generation + 1 - loaded.chain.len() as u64;
    let mut prev_seal = loaded.chain[0].chain_seal;
    for (i, member) in loaded.chain.iter().enumerate().skip(1) {
        let mut skewed = member.clone();
        for clock in skewed.clocks.values_mut() {
            *clock = VirtualTime::from_ticks(clock.as_ticks() + 1);
        }
        let base = if skewed.is_self_contained() {
            tart_model::StateHash::ZERO
        } else {
            prev_seal
        };
        skewed.seal(&base);
        prev_seal = skewed.chain_seal;
        rewrite_checkpoint(dir, 0, base_generation + i as u64, &skewed);
    }
    (loaded.chain, first_divergent_vt)
}

#[test]
fn corrupted_chain_is_detected_bisected_and_recovered_around() {
    let dir = fresh_dir("drill");
    let dump = dir.join("flight-dump.json");
    // Route flight dumps to a file we can assert on. Set before recovery;
    // this test binary owns the process, and no other test here dumps.
    std::env::set_var("TART_FLIGHT_DUMP", &dump);

    let pre = run_and_crash(&dir);
    let (_pristine, first_divergent_vt) = skew_chain_from_first_delta(&dir);

    let spec = fan_in_app(2).expect("valid app");
    let placement = two_engine_placement(&spec);
    let e0 = EngineId::new(0);
    let e1 = EngineId::new(1);

    // The skewed chain is structurally pristine: CRC frames and chain seals
    // all verify, so the store serves the full three-member chain.
    let store = CheckpointStore::open(dir.join("ckpt")).expect("open store");
    let skewed = store.load_chain(e0).expect("loads").expect("present");
    assert_eq!(
        skewed.chain.len(),
        3,
        "seal-consistent corruption must pass the structural layer"
    );
    assert!(!skewed.fell_back);

    // Offline bisect: the first divergent member is the first delta, and
    // the fault names the skewed horizon.
    let faults = store.faults(e0).expect("fault log");
    let verdict = verify_replay(
        &spec,
        &placement,
        &paper_config(&spec),
        e0,
        &skewed.chain,
        &faults,
    );
    match verdict {
        ReplayVerdict::Diverged { index, seq, fault } => {
            assert_eq!(index, 1, "first delta is the first divergent member");
            assert_eq!(seq, skewed.chain[1].seq);
            assert_eq!(
                fault.vt,
                VirtualTime::from_ticks(first_divergent_vt.as_ticks() + 1),
                "fault reports the first divergent virtual time"
            );
            assert!(fault.component.is_some(), "component-level divergence");
            assert_ne!(fault.expected, fault.actual);
        }
        other => panic!("expected a divergence, got {other:?}"),
    }
    // Engine 1 was not touched: its chain replays clean.
    let clean = store.load_chain(e1).expect("loads").expect("present");
    let verdict = verify_replay(
        &spec,
        &placement,
        &paper_config(&spec),
        e1,
        &clean.chain,
        &store.faults(e1).expect("fault log"),
    );
    assert_eq!(
        verdict,
        ReplayVerdict::Clean {
            members: clean.chain.len()
        }
    );
    drop(store);

    // Hash-verified cold restart: both skewed deltas are rejected (one per
    // retry), engine 0 restores from the full head alone, and replay
    // regenerates the difference — outputs stay byte-identical.
    let config = paper_config(&spec)
        .with_checkpoint_every(100_000)
        .with_durability(&dir, DurabilityPolicy::Strict)
        .with_full_checkpoint_every(4);
    let (cluster, report) =
        Cluster::recover_from_disk(spec.clone(), placement.clone(), config).expect("recovers");
    let rec0 = report
        .engines
        .iter()
        .find(|e| e.engine == e0)
        .expect("engine 0 in report");
    assert!(rec0.fell_back, "divergent suffix discarded");
    for (client, sentence) in &SENTENCES[6..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();

    let snap = cluster.obs_snapshot();
    assert!(
        snap.divergences_detected >= 2,
        "both skewed deltas raise divergences, got {}",
        snap.divergences_detected
    );
    assert!(snap.state_hashes_computed > 0, "hashes recorded");
    assert!(
        dump.exists(),
        "each rejection dumps the flight recorder for forensics"
    );

    let mut all = pre;
    all.extend(cluster.shutdown());
    assert_eq!(
        normalize(all),
        failure_free_run(),
        "recovery around detected corruption must still converge"
    );
    std::env::remove_var("TART_FLIGHT_DUMP");
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupts engine 0's durable chain **from its full head onward** — every
/// generation's recorded clocks skewed, seals recomputed — so hash
/// verification rejects the entire chain. Same shape as
/// [`skew_chain_from_first_delta`], but nothing survives.
fn skew_entire_chain(dir: &Path) {
    let store = CheckpointStore::open(dir.join("ckpt")).expect("open store");
    let loaded = store
        .load_chain(EngineId::new(0))
        .expect("chain loads")
        .expect("engine 0 persisted a chain");
    let base_generation = loaded.generation + 1 - loaded.chain.len() as u64;
    let mut prev_seal = tart_model::StateHash::ZERO;
    for (i, member) in loaded.chain.iter().enumerate() {
        let mut skewed = member.clone();
        for clock in skewed.clocks.values_mut() {
            *clock = VirtualTime::from_ticks(clock.as_ticks() + 1);
        }
        let base = if skewed.is_self_contained() {
            tart_model::StateHash::ZERO
        } else {
            prev_seal
        };
        skewed.seal(&base);
        prev_seal = skewed.chain_seal;
        rewrite_checkpoint(dir, 0, base_generation + i as u64, &skewed);
    }
}

#[test]
fn exhausted_chain_is_a_structured_terminal_error() {
    // Every generation of engine 0's chain diverges: the restore loop must
    // discard all of them and surface a structured error — NOT restore
    // vacuously (which would silently erase the engine's history) and NOT
    // panic (which would poison the host lock).
    let dir = fresh_dir("exhaust");
    let _ = run_and_crash(&dir);
    skew_entire_chain(&dir);

    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec)
        .with_checkpoint_every(100_000)
        .with_durability(&dir, DurabilityPolicy::Strict)
        .with_full_checkpoint_every(4);
    let outcome = Cluster::recover_from_disk(spec.clone(), two_engine_placement(&spec), config);
    let Err(err) = outcome else {
        panic!("an exhausted chain must refuse to recover");
    };
    match err {
        tart_engine::DeployError::DurabilityUnavailable(msg) => {
            assert!(
                msg.contains("failed verification"),
                "error names the verification failure, got: {msg}"
            );
            assert!(
                msg.contains("all 3"),
                "error reports how many generations were discarded, got: {msg}"
            );
        }
        other => panic!("expected DurabilityUnavailable, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_chain_replays_without_divergence() {
    let dir = fresh_dir("clean");
    let pre = run_and_crash(&dir);

    let spec = fan_in_app(2).expect("valid app");
    let placement = two_engine_placement(&spec);
    // Every engine's untouched chain passes the offline verifier whole.
    let store = CheckpointStore::open(dir.join("ckpt")).expect("open store");
    for engine in store.engines() {
        let loaded = store.load_chain(engine).expect("loads").expect("present");
        let verdict = verify_replay(
            &spec,
            &placement,
            &paper_config(&spec),
            engine,
            &loaded.chain,
            &store.faults(engine).expect("fault log"),
        );
        assert_eq!(
            verdict,
            ReplayVerdict::Clean {
                members: loaded.chain.len()
            },
            "clean chain for {engine} must verify end-to-end"
        );
    }
    drop(store);

    let config = paper_config(&spec)
        .with_checkpoint_every(100_000)
        .with_durability(&dir, DurabilityPolicy::Strict)
        .with_full_checkpoint_every(4);
    let (cluster, report) =
        Cluster::recover_from_disk(spec.clone(), placement, config).expect("recovers");
    for e in &report.engines {
        assert!(!e.fell_back, "clean chains restore whole");
    }
    for (client, sentence) in &SENTENCES[6..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();

    let snap = cluster.obs_snapshot();
    assert_eq!(snap.divergences_detected, 0, "clean replay reconverges");
    assert!(
        snap.state_hashes_computed > 0,
        "restore verification recorded its hash work"
    );

    let mut all = pre;
    all.extend(cluster.shutdown());
    assert_eq!(normalize(all), failure_free_run());
    std::fs::remove_dir_all(&dir).ok();
}
