//! Cold restart: a cluster running with the crash-safe durability layer is
//! killed **in its entirety** — no surviving replica, no warm process — and
//! relaunched from nothing but the on-disk WAL + checkpoint store. The
//! deduplicated outputs of crash + recovery must be byte-identical to a run
//! that never failed, including when the crash tore the final WAL record or
//! rotted the newest checkpoint generation.
//!
//! This extends the paper's single-failure transparency argument (§II.F) to
//! whole-cluster failure: external inputs replay from stable storage
//! (§II.E), engine state restores from the newest durable checkpoint that
//! verifies, and deterministic re-execution regenerates everything between
//! the restart point and the crash instant.

use std::path::{Path, PathBuf};
use std::time::Duration;

use tart_engine::{
    ChaosOptions, ChaosPlan, Cluster, ClusterConfig, DeployError, DurabilityConfig, FsyncPolicy,
    OutputRecord, Placement, StandbyConfig,
};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{self, fan_in_app};
use tart_model::{AppSpec, BlockId, Value};
use tart_vtime::EngineId;

const SENTENCES: &[(&str, &str)] = &[
    ("client1", "alpha beta gamma"),
    ("client2", "beta gamma delta"),
    ("client1", "gamma delta epsilon"),
    ("client2", "delta epsilon alpha"),
    ("client1", "epsilon alpha beta"),
    ("client2", "alpha beta gamma delta"),
    ("client1", "beta delta"),
    ("client2", "gamma epsilon alpha beta"),
    ("client1", "delta alpha"),
    ("client2", "epsilon beta gamma"),
];

fn paper_config(spec: &AppSpec) -> ClusterConfig {
    let mut config = ClusterConfig::logical_time().with_checkpoint_every(2);
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

/// The reference: same workload, no durability, no failure.
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
    let dir = std::env::temp_dir().join(format!("tart-cold-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Deploys with durability, drives the first `upto` sentences, forces both
/// engines to checkpoint, and crashes the whole cluster. Returns whatever
/// outputs had surfaced before the lights went out.
fn run_and_crash(dir: &Path, upto: usize) -> Vec<OutputRecord> {
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_durability(dir, FsyncPolicy::Always);
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for (client, sentence) in &SENTENCES[..upto] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    // Let processing settle, then force a durable generation on each engine
    // so recovery exercises restore-from-checkpoint, not just full replay.
    std::thread::sleep(Duration::from_millis(150));
    for engine in cluster.engine_ids() {
        cluster.checkpoint_now(engine);
    }
    std::thread::sleep(Duration::from_millis(150));
    cluster.crash()
}

/// Relaunches from `dir`, drives the remaining sentences (from `resume_at`),
/// and shuts down cleanly. Returns the recovery report and the outputs.
fn recover_and_finish(
    dir: &Path,
    resume_at: usize,
) -> (tart_engine::RecoveryReport, Vec<OutputRecord>) {
    recover_and_finish_with(dir, FsyncPolicy::Always, resume_at)
}

/// [`recover_and_finish`] under an explicit fsync policy.
fn recover_and_finish_with(
    dir: &Path,
    policy: FsyncPolicy,
    resume_at: usize,
) -> (tart_engine::RecoveryReport, Vec<OutputRecord>) {
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_durability(dir, policy);
    let (cluster, report) =
        Cluster::recover_from_disk(spec.clone(), two_engine_placement(&spec), config)
            .expect("recovers");
    for (client, sentence) in &SENTENCES[resume_at..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    (report, cluster.shutdown())
}

#[test]
fn clean_durable_run_is_transparent() {
    let dir = fresh_dir("clean");
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_durability(&dir, FsyncPolicy::Always);
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for (client, sentence) in SENTENCES {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    let outs = normalize(cluster.shutdown());
    assert_eq!(
        outs,
        failure_free_run(),
        "durability must not perturb outputs"
    );
    // The layer actually wrote: a WAL segment and (post-drain) checkpoints.
    assert!(
        std::fs::read_dir(dir.join("wal")).unwrap().next().is_some(),
        "WAL populated"
    );
    assert!(
        std::fs::read_dir(dir.join("ckpt"))
            .unwrap()
            .next()
            .is_some(),
        "checkpoint store populated"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Whole-cluster crash, cold restart with a warm standby configured, then a
/// single-engine failure: the standby plane `recover_from_disk` assembled
/// must tail the restored incarnation's chain like any other, so the second
/// failure is a warm promotion.
#[test]
fn warm_promotion_after_a_cold_restart_is_byte_identical() {
    let dir = fresh_dir("restart-warm");
    let crash_at = 4;
    let pre = run_and_crash(&dir, crash_at);

    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec)
        .with_durability(&dir, FsyncPolicy::Always)
        .with_warm_standby(StandbyConfig {
            trailing_horizon_ticks: 1,
            apply_interval: Duration::from_millis(1),
        });
    let (mut cluster, _report) =
        Cluster::recover_from_disk(spec.clone(), two_engine_placement(&spec), config)
            .expect("recovers");
    let merger = EngineId::new(1);
    let send = |cluster: &Cluster, range: std::ops::Range<usize>| {
        for (client, sentence) in &SENTENCES[range] {
            let injector = cluster.injector(client).expect("injector");
            injector.send(Value::from(*sentence));
        }
    };
    send(&cluster, crash_at..8);
    // A restored engine's first checkpoint is a full generation; the slot
    // anchors on it once a later capture pushes it out of the horizon.
    let anchored = |cluster: &Cluster| {
        let status = cluster.standby_status(merger);
        status.is_some_and(|s| s.anchored && s.applied >= 1)
    };
    for _ in 0..1_000 {
        if anchored(&cluster) {
            break;
        }
        cluster.checkpoint_now(merger);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        anchored(&cluster),
        "standby never re-anchored: {:?}",
        cluster.standby_status(merger)
    );

    cluster.kill(merger);
    cluster.promote(merger).expect("promotion succeeds");
    send(&cluster, 8..SENTENCES.len());
    cluster.finish_inputs();
    let snap = cluster.obs_snapshot();
    assert_eq!(snap.warm_promotions, 1, "the restarted plane was warm");
    assert_eq!(snap.cold_promotions, 0);
    assert_eq!(snap.standby_demotions, 0);

    let mut all = pre;
    all.extend(cluster.shutdown());
    assert_eq!(
        normalize(all),
        failure_free_run(),
        "cold restart, then warm failover, must equal the never-crashed run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_restart_is_byte_identical() {
    let dir = fresh_dir("restart");
    let crash_at = 6;
    let pre = run_and_crash(&dir, crash_at);
    let (report, post) = recover_and_finish(&dir, crash_at);

    assert_eq!(report.wal_records, crash_at, "every send was durable");
    assert_eq!(report.wal_truncated_bytes, 0, "clean WAL tail");
    for e in &report.engines {
        assert!(
            e.generation.is_some(),
            "engine {:?} restored from a durable checkpoint",
            e.engine
        );
        assert!(!e.fell_back, "newest generation verified");
    }

    let mut all = pre;
    all.extend(post);
    assert_eq!(
        normalize(all),
        failure_free_run(),
        "crash + cold restart must be invisible after dedup"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_restart_truncates_torn_wal_tail() {
    let dir = fresh_dir("torn");
    let crash_at = 6;
    let pre = run_and_crash(&dir, crash_at);

    // Tear the final WAL record: the crash interrupted the last write.
    let wal = dir.join("wal");
    let newest = std::fs::read_dir(&wal)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("a WAL segment exists");
    let len = std::fs::metadata(&newest).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .unwrap();
    f.set_len(len - 3).unwrap();
    f.sync_all().unwrap();
    drop(f);

    // The torn send (sentence 6) was never durable, so the client re-sends
    // it — exactly what a real producer does when its last send was never
    // acknowledged. The logical clock resumes from the durable log, so the
    // re-send reproduces the original timestamp.
    let (report, post) = recover_and_finish(&dir, crash_at - 1);
    assert_eq!(report.wal_records, crash_at - 1, "torn record discarded");
    assert!(report.wal_truncated_bytes > 0, "tail truncation reported");

    let mut all = pre;
    all.extend(post);
    assert_eq!(
        normalize(all),
        failure_free_run(),
        "torn-tail recovery must still converge to the failure-free run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_restart_truncates_torn_group_commit_tail() {
    // Under group commit a whole window of appends shares one `sync_all`,
    // so a crash can tear *several* trailing records at once — the torn
    // tail is a partial batch, not a single half-written frame. Recovery
    // must truncate every record at or past the tear and let the producer
    // re-send the lost batch.
    let dir = fresh_dir("torn-group");
    let crash_at = 6;
    let group = FsyncPolicy::GroupCommit {
        max_records: 4,
        max_delay: Duration::from_millis(5),
    };
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_durability(&dir, group);
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for (client, sentence) in &SENTENCES[..crash_at] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    std::thread::sleep(Duration::from_millis(150));
    for engine in cluster.engine_ids() {
        cluster.checkpoint_now(engine);
    }
    std::thread::sleep(Duration::from_millis(150));
    let pre = cluster.crash();

    // Walk the frame headers of the newest segment and cut into the body
    // of the second-to-last record: the final two appends of the commit
    // window vanish together.
    let wal = dir.join("wal");
    let newest = std::fs::read_dir(&wal)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("a WAL segment exists");
    let bytes = std::fs::read(&newest).unwrap();
    let mut starts = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        starts.push(pos);
        pos += 8 + len;
    }
    assert!(starts.len() >= 2, "need at least two records to tear");
    let cut = starts[starts.len() - 2] + 12;
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .unwrap();
    f.set_len(cut as u64).unwrap();
    f.sync_all().unwrap();
    drop(f);

    let (report, post) = recover_and_finish_with(&dir, group, crash_at - 2);
    assert_eq!(report.wal_records, crash_at - 2, "partial batch discarded");
    assert!(report.wal_truncated_bytes > 0, "tail truncation reported");

    let mut all = pre;
    all.extend(post);
    assert_eq!(
        normalize(all),
        failure_free_run(),
        "torn group-commit tail must still converge to the failure-free run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_restart_falls_back_when_newest_generation_is_corrupt() {
    let dir = fresh_dir("rot");
    let crash_at = 6;
    let pre = run_and_crash(&dir, crash_at);

    // Rot the newest checkpoint generation of engine 0: recovery must fall
    // back one generation and replay the difference.
    let ckpt = dir.join("ckpt");
    let newest = std::fs::read_dir(&ckpt)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-e0000-g"))
        })
        .max()
        .expect("engine 0 persisted at least one generation");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();

    let (report, post) = recover_and_finish(&dir, crash_at);
    let e0 = report
        .engines
        .iter()
        .find(|e| e.engine == EngineId::new(0))
        .expect("engine 0 in report");
    assert!(e0.fell_back, "newest generation rejected, fell back one");
    assert!(e0.generation.is_some(), "an older generation verified");

    let mut all = pre;
    all.extend(post);
    assert_eq!(
        normalize(all),
        failure_free_run(),
        "one-generation fallback must still converge to the failure-free run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_restart_survives_losing_a_delta_chain_base() {
    // Delta checkpoints are worthless without their base full generation.
    // Build per-engine chains of the shape [full, delta, full], damage the
    // newest full of engine 0 (stranding nothing — but simulating a crash
    // that rotted the base a later delta would have built on), and recover:
    // the store must fall back to the older full + delta chain and replay
    // the difference.
    let dir = fresh_dir("delta-base");
    let spec = fan_in_app(2).expect("valid app");
    // No automatic checkpoints: the test drives the cadence by hand so the
    // on-disk chain shape is deterministic. Full every 2nd checkpoint.
    let config = paper_config(&spec)
        .with_checkpoint_every(100_000)
        .with_durability(&dir, FsyncPolicy::Always)
        .with_full_checkpoint_every(2);
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    let crash_at = 6;
    for chunk in SENTENCES[..crash_at].chunks(2) {
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
    let pre = cluster.crash();

    // The cadence must actually have produced deltas for engine 0.
    let ckpt = dir.join("ckpt");
    let e0_files: Vec<String> = std::fs::read_dir(&ckpt)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("ckpt-e0000-g"))
        .collect();
    assert!(
        e0_files.iter().any(|n| n.ends_with("-d.bin")),
        "expected delta generations for engine 0, got {e0_files:?}"
    );
    // Damage engine 0's newest *full* generation.
    let newest_full = e0_files
        .iter()
        .filter(|n| !n.ends_with("-d.bin"))
        .max()
        .expect("engine 0 persisted a full generation");
    let path = ckpt.join(newest_full);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let (report, post) = recover_and_finish(&dir, crash_at);
    let e0 = report
        .engines
        .iter()
        .find(|e| e.engine == EngineId::new(0))
        .expect("engine 0 in report");
    assert!(e0.fell_back, "damaged full forces an older restore chain");
    assert!(e0.generation.is_some(), "an older chain verified");

    let mut all = pre;
    all.extend(post);
    assert_eq!(
        normalize(all),
        failure_free_run(),
        "chain fallback must still converge to the failure-free run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deploy_refuses_a_populated_durability_dir() {
    let dir = fresh_dir("refuse");
    let _ = run_and_crash(&dir, 2);
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_durability(&dir, FsyncPolicy::Always);
    let err = Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).unwrap_err();
    assert_eq!(
        err,
        DeployError::DurabilityDirNotEmpty,
        "prior state must not be silently orphaned"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_requires_durability_config() {
    let spec = fan_in_app(2).expect("valid app");
    let err = Cluster::recover_from_disk(
        spec.clone(),
        two_engine_placement(&spec),
        paper_config(&spec),
    )
    .unwrap_err();
    assert_eq!(err, DeployError::DurabilityNotConfigured);
}

#[test]
fn seeded_disk_faults_cannot_break_cold_restart() {
    // Each seed draws a different combination of post-mortem disk faults
    // from the chaos generator; recovery must converge regardless. Every
    // assertion carries the seed so a failure reproduces exactly.
    for seed in [1u64, 42, 0xD15C] {
        let dir = fresh_dir(&format!("chaos-{seed}"));
        let crash_at = 6;
        let pre = run_and_crash(&dir, crash_at);

        let opts = ChaosOptions {
            disk_faults: 2,
            ..ChaosOptions::fast()
        };
        let engines = [EngineId::new(0), EngineId::new(1)];
        let plan = ChaosPlan::generate(seed, &engines, &opts);
        let applied = plan.apply_disk_faults(&dir).expect("fault surgery");

        let spec = fan_in_app(2).expect("valid app");
        let config = paper_config(&spec).with_durability(&dir, FsyncPolicy::Always);
        let (cluster, report) =
            Cluster::recover_from_disk(spec.clone(), two_engine_placement(&spec), config)
                .unwrap_or_else(|e| {
                    panic!("seed {seed:#x}: recovery failed after faults {applied:?}: {e}")
                });
        // A torn WAL tail may have eaten the final (unacknowledged) send;
        // the producer resumes from whatever the log durably holds.
        let resume_at = report.wal_records;
        assert!(
            resume_at == crash_at || resume_at == crash_at - 1,
            "seed {seed:#x}: unexpected WAL survivor count {resume_at} (faults {applied:?})"
        );
        for (client, sentence) in &SENTENCES[resume_at..] {
            cluster
                .injector(client)
                .expect("injector")
                .send(Value::from(*sentence));
        }
        cluster.finish_inputs();
        let post = cluster.shutdown();

        let mut all = pre;
        all.extend(post);
        assert_eq!(
            normalize(all),
            failure_free_run(),
            "seed {seed:#x}: outputs diverged after disk faults {applied:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn sealed_segment_rot_is_refused() {
    // Bit-rot in a sealed, fsynced WAL segment is stable storage decaying —
    // not a crash artifact. Recovery must refuse loudly, never replay
    // garbage. A tiny rotation threshold forces multiple segments so a
    // sealed one exists to rot.
    use tart_engine::DiskFault;
    let dir = fresh_dir("sealed-rot");
    let spec = fan_in_app(2).expect("valid app");
    let mut config = paper_config(&spec);
    config.durability = Some(DurabilityConfig {
        wal_segment_bytes: 64,
        ..DurabilityConfig::new(dir.clone(), FsyncPolicy::Always)
    });
    let cluster = Cluster::deploy(spec.clone(), two_engine_placement(&spec), config.clone())
        .expect("deploys");
    for (client, sentence) in &SENTENCES[..6] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    std::thread::sleep(Duration::from_millis(100));
    let _ = cluster.crash();

    let applied = DiskFault::BitFlipSealedSegment
        .apply(&dir)
        .expect("surgery");
    assert!(applied, "64-byte segments must have rotated at least once");
    assert!(!DiskFault::BitFlipSealedSegment.recoverable());

    let err = match Cluster::recover_from_disk(spec.clone(), two_engine_placement(&spec), config) {
        Err(e) => e,
        Ok(_) => panic!("rotted sealed segment must refuse recovery"),
    };
    assert!(
        matches!(err, DeployError::DurabilityUnavailable(_)),
        "got {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn losing_the_checkpoint_dir_mid_run_degrades_gracefully() {
    // When the disk dies under a live cluster, persists fail and `TrimAck`s
    // stop advancing — retention grows, but outputs stay correct.
    let dir = fresh_dir("degrade");
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_durability(&dir, FsyncPolicy::Always);
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for (client, sentence) in &SENTENCES[..5] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    std::thread::sleep(Duration::from_millis(100));
    std::fs::remove_dir_all(dir.join("ckpt")).expect("pull the disk");
    for (client, sentence) in &SENTENCES[5..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    let outs = normalize(cluster.shutdown());
    assert_eq!(
        outs,
        failure_free_run(),
        "disk loss must not corrupt outputs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Component id by name — tier assignment needs ids, specs name components.
fn component_id(spec: &AppSpec, name: &str) -> tart_vtime::ComponentId {
    spec.components()
        .iter()
        .find(|c| c.name() == name)
        .unwrap_or_else(|| panic!("component {name} exists"))
        .id()
}

#[test]
fn mixed_tier_crash_reports_and_recovers_per_component_loss() {
    // The tiered durability contract, end to end: Sender1's inputs ride the
    // Strict lane (fsynced before the send returns), Sender2's ride the
    // Buffered lane (acknowledged inside the open group-commit window), and
    // the crash drill reports per component exactly what the open window
    // cost. Recovery then accounts for every component's recovered inputs,
    // the producer re-drives only the lost tail, and the deduplicated
    // outputs converge to the failure-free run — a Buffered record is never
    // applied twice, a Strict record never lost.
    use tart_engine::DurabilityPolicy;
    let dir = fresh_dir("mixed-tier");
    let spec = fan_in_app(2).expect("valid app");
    let strict = component_id(&spec, "Sender1");
    let buffered = component_id(&spec, "Sender2");
    let tiered = |spec: &AppSpec| {
        paper_config(spec)
            .with_durability(&dir, FsyncPolicy::Always)
            .with_default_tier(DurabilityPolicy::Strict)
            .with_component_tier(
                buffered,
                DurabilityPolicy::Buffered {
                    // A window far wider than the test: only Strict barriers
                    // (and the crash) close it, so the loss is deterministic.
                    flush_window: Duration::from_secs(3600),
                },
            )
    };
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), tiered(&spec)).expect("deploys");
    for (client, sentence) in SENTENCES {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    std::thread::sleep(Duration::from_millis(150));
    for engine in cluster.engine_ids() {
        cluster.checkpoint_now(engine);
    }
    std::thread::sleep(Duration::from_millis(150));
    let (pre, crash) = cluster.crash_with_report();

    assert!(
        !crash.lost_inputs.contains_key(&strict),
        "a Strict component must never lose an acknowledged input: {crash:?}"
    );
    assert!(
        crash.memory_only_inputs.is_empty(),
        "no InMemory tier in this drill: {crash:?}"
    );
    // SENTENCES alternate client1 (Strict) / client2 (Buffered) and end on
    // client2: every earlier Buffered send was pinned down by the next
    // Strict barrier, so the open window holds exactly the final send.
    let lost = crash.lost_inputs.get(&buffered).copied().unwrap_or(0);
    assert_eq!(lost, 1, "exactly the open window is lost: {crash:?}");

    let (cluster, report) =
        Cluster::recover_from_disk(spec.clone(), two_engine_placement(&spec), tiered(&spec))
            .expect("recovers");
    let recovered = |id| {
        report
            .components
            .iter()
            .find(|c| c.component == id)
            .unwrap_or_else(|| panic!("component {id} in recovery report"))
    };
    let client1_sends = SENTENCES.iter().filter(|(c, _)| *c == "client1").count() as u64;
    let client2_sends = SENTENCES.len() as u64 - client1_sends;
    assert_eq!(recovered(strict).tier, Some(DurabilityPolicy::Strict));
    assert_eq!(recovered(strict).recovered_inputs, client1_sends);
    assert!(!recovered(strict).replay_from_peers_only);
    assert_eq!(
        recovered(buffered).recovered_inputs,
        client2_sends - lost,
        "the recovered shortfall is exactly the crash report's loss"
    );

    // The producer re-drives its unacknowledged tail (the final sentence),
    // as a real client does when a send was never acked.
    for (client, sentence) in &SENTENCES[SENTENCES.len() - lost as usize..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    let post = cluster.shutdown();

    let mut all = pre;
    all.extend(post);
    assert_eq!(
        normalize(all),
        failure_free_run(),
        "mixed-tier crash + recovery must converge: no Strict loss, no Buffered double-apply"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_memory_component_recovers_via_peer_replay_byte_identically() {
    // The InMemory tier persists nothing — its external inputs never touch
    // the WAL and its engines never persist a checkpoint — yet single-engine
    // failure is still transparent: the passive replica restores state and
    // peer replay (the in-process message log and upstream retention)
    // regenerates the gap, byte-identically.
    use tart_engine::{DurabilityPolicy, Wal};
    let dir = fresh_dir("inmem-tier");
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec)
        .with_durability(&dir, FsyncPolicy::Always)
        .with_default_tier(DurabilityPolicy::InMemory);
    let mut cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for (client, sentence) in &SENTENCES[..6] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    std::thread::sleep(Duration::from_millis(150));
    for engine in cluster.engine_ids() {
        cluster.checkpoint_now(engine);
    }
    std::thread::sleep(Duration::from_millis(150));
    // Fail-stop the engine hosting both senders: its state and every
    // in-flight envelope die with it. Promotion restores the replica and
    // replays the senders' external wires from the in-process log.
    cluster.kill(EngineId::new(0));
    cluster.promote(EngineId::new(0)).expect("promotes");
    for (client, sentence) in &SENTENCES[6..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    let outs = normalize(cluster.shutdown());
    assert_eq!(
        outs,
        failure_free_run(),
        "InMemory-tier failover must be byte-identical to the failure-free run"
    );
    // And the disk really was left out of it: the WAL holds zero records
    // and the checkpoint store persisted zero generations.
    let (wal, recovery) =
        Wal::open(dir.join("wal"), 1 << 20, FsyncPolicy::Always).expect("reopen wal");
    drop(wal);
    assert_eq!(
        recovery.records.len(),
        0,
        "InMemory inputs never hit the WAL"
    );
    let persisted = std::fs::read_dir(dir.join("ckpt"))
        .expect("ckpt dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
        .count();
    assert_eq!(persisted, 0, "InMemory engines never persist checkpoints");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn undrained_outputs_survive_a_crash_after_a_durable_checkpoint() {
    // The nastiest window in the durability protocol: an input is durably
    // consumed by a persisted checkpoint, its output sits in the volatile
    // outputs channel, and the process dies before the consumer drains it.
    // Replay will never regenerate that output (its input is behind the
    // restored consumed watermark), so the checkpoint itself must carry it
    // and recovery must re-emit it. Discarding *everything* the crashed run
    // produced models a consumer that saw none of it.
    let dir = fresh_dir("undrained");
    let lost = run_and_crash(&dir, SENTENCES.len());
    assert!(
        !lost.is_empty(),
        "the crashed run must have produced (and then lost) outputs"
    );
    drop(lost); // the consumer never saw any of them

    let (report, outs) = recover_and_finish(&dir, SENTENCES.len());
    assert_eq!(report.wal_records, SENTENCES.len(), "all inputs durable");
    assert_eq!(
        normalize(outs),
        failure_free_run(),
        "recovery alone must re-emit every output the consumer never drained"
    );
    std::fs::remove_dir_all(&dir).ok();
}
