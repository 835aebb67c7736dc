//! Chaos soak: a supervised cluster absorbs seeded crashes, partitions and
//! latency spikes with **zero manual intervention**, and its deduplicated
//! outputs are byte-identical to a failure-free run.
//!
//! This is the paper's transparency claim under the harshest harness the
//! repo has: the supervisor's phi-accrual failure detector must notice each
//! unannounced fail-stop from missing heartbeats alone and run the
//! kill → promote → replay drill on its own, while the chaos driver is
//! simultaneously dropping and delaying payload traffic.

use std::time::{Duration, Instant};

use tart_engine::{
    ChaosOptions, ChaosPlan, Cluster, ClusterConfig, DurabilityPolicy, OutputRecord, Placement,
    StandbyConfig, SupervisionConfig,
};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{self, fan_in_app};
use tart_model::{AppSpec, BlockId, Value};
use tart_vtime::EngineId;

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

/// With `TART_SOAK_TIERS=mixed` in the environment, the soaked cluster runs
/// with disk durability enabled and a mixed tier assignment — the ledger-like
/// Merger Strict, one ingest-like sender Buffered, the other cache-like
/// sender InMemory — so the nightly matrix proves the zero-divergence gate
/// holds when all three durability tiers persist side by side.
fn with_soak_tiers(spec: &AppSpec, mut config: ClusterConfig, seed: u64) -> ClusterConfig {
    if std::env::var("TART_SOAK_TIERS").as_deref() != Ok("mixed") {
        return config;
    }
    let dir = std::env::temp_dir().join(format!("tart-soak-tiers-{}-{seed:x}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    config = config.with_durability(dir, DurabilityPolicy::Strict);
    for c in spec.components() {
        let tier = match c.name() {
            "Merger" => DurabilityPolicy::Strict,
            "Sender1" => DurabilityPolicy::Buffered {
                flush_window: Duration::from_millis(50),
            },
            _ => DurabilityPolicy::InMemory,
        };
        config = config.with_component_tier(c.id(), tier);
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

fn normalize(outputs: Vec<OutputRecord>) -> Vec<(u64, String)> {
    Cluster::dedup_outputs(outputs)
        .into_iter()
        .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
        .collect()
}

/// The reference: same workload, same pacing, no supervision, no chaos.
fn failure_free_run(pace: Duration) -> Vec<(u64, String)> {
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
        std::thread::sleep(pace);
    }
    cluster.finish_inputs();
    normalize(cluster.shutdown())
}

/// Soaks a supervised cluster under a seeded chaos plan and returns the
/// normalized outputs. Panics if any crash went unrecovered. With
/// `standby`, the warm plane runs alongside the supervisor, so automatic
/// promotions mix warm takeovers (slot anchored at crash time) with cold
/// replays (crash landed mid-catch-up) — both must stay transparent.
fn chaos_run(
    seed: u64,
    opts: &ChaosOptions,
    pace: Duration,
    standby: Option<StandbyConfig>,
) -> Vec<(u64, String)> {
    let spec = fan_in_app(2).expect("valid app");
    let mut config = paper_config(&spec).with_supervision(SupervisionConfig::fast());
    if let Some(s) = standby {
        config = config.with_warm_standby(s);
    }
    config = with_soak_tiers(&spec, config, seed);
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");

    let plan = ChaosPlan::generate(seed, &cluster.engine_ids(), opts);
    let chaos = cluster.launch_chaos(plan);

    // Inject the workload while the cluster is being tormented. No kill(),
    // no promote() — recovery is entirely the supervisor's job.
    for (client, sentence) in SENTENCES {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
        std::thread::sleep(pace);
    }

    let report = chaos.wait();
    assert_eq!(
        report.unrecovered, 0,
        "every injected crash must be auto-recovered (report: {report:?})"
    );
    assert_eq!(u64::from(opts.crashes), report.crashes);

    let metrics = cluster
        .supervision_metrics()
        .expect("supervision is enabled");
    assert!(
        metrics.failovers >= u64::from(opts.crashes),
        "one automatic failover per crash at least, got {metrics:?}"
    );
    assert!(metrics.heartbeats_seen > 0, "engines heartbeat");

    // Observability: the soak must produce a validating obs report holding
    // the quantities the paper's evaluation is phrased in (§II.H, §IV).
    let snap = cluster.obs_snapshot();
    eprintln!(
        "chaos-soak seed {seed:#x}: delivered={} checkpoints={} checkpoint_bytes={} \
         probes={} silence_adverts={} replay_requests={}",
        snap.delivered,
        snap.checkpoints,
        snap.checkpoint_bytes,
        snap.probes,
        snap.silence_adverts,
        snap.replay_requests,
    );
    assert!(snap.delivered > 0, "deliveries recorded");
    assert!(
        snap.pessimism_wait_ns.count() > 0,
        "pessimism waits measured"
    );
    assert!(
        !snap.silence_per_wire.is_empty(),
        "per-wire silence totals recorded"
    );
    assert!(
        snap.failovers >= 1,
        "failover promotions land in the obs timeline"
    );
    // Verified replay (DESIGN.md §15): every checkpoint and every promotion
    // hashed state, and in a clean soak — chaos only crashes engines, it
    // never corrupts their state — replay must reconverge every time.
    assert!(
        snap.state_hashes_computed > 0,
        "checkpoints and promotions record state hashes"
    );
    assert_eq!(
        snap.divergences_detected, 0,
        "a clean soak must replay without a single divergence"
    );
    eprintln!(
        "chaos-soak seed {seed:#x}: state_hashes_computed={} divergences_detected={} \
         warm_promotions={} cold_promotions={} standby_applied={} standby_demotions={}",
        snap.state_hashes_computed,
        snap.divergences_detected,
        snap.warm_promotions,
        snap.cold_promotions,
        snap.standby_applied,
        snap.standby_demotions,
    );
    assert_eq!(
        snap.standby_demotions, 0,
        "chaos only crashes engines; it never corrupts standby state"
    );
    let path = cluster.write_obs_report().expect("obs report written");
    let text = std::fs::read_to_string(&path).expect("obs report readable");
    let req = tart_engine::ReportRequirements {
        failover_event: true,
        pessimism_samples: true,
        silence_totals: true,
        zero_divergence: true,
    };
    assert_eq!(
        tart_engine::check_report(&text, req),
        Ok(()),
        "obs report must pass the CI gate's validation"
    );
    eprintln!(
        "chaos-soak seed {seed:#x}: obs report at {}",
        path.display()
    );

    cluster.finish_inputs();
    normalize(cluster.shutdown())
}

#[test]
fn chaos_soak_outputs_match_failure_free_run() {
    let opts = ChaosOptions {
        duration: Duration::from_millis(2_500),
        crashes: 2,
        partitions: 2,
        latency_spikes: 2,
        max_latency: Duration::from_millis(20),
        disturbance_len: Duration::from_millis(150),
        disk_faults: 0,
    };
    // Pace the workload across the chaos window so disturbances land
    // mid-stream, not after the fact.
    let pace = Duration::from_millis(200);

    let clean = failure_free_run(pace);
    assert_eq!(clean.len(), SENTENCES.len(), "reference run is complete");

    let tormented = chaos_run(0xC4A05, &opts, pace, None);
    assert_eq!(
        clean, tormented,
        "deduplicated chaos outputs must be byte-identical to the failure-free run"
    );
}

#[test]
fn fast_preset_smoke() {
    // The CI smoke configuration: sub-second, one of each disturbance.
    let pace = Duration::from_millis(80);
    let clean = failure_free_run(pace);
    // Warm standby on in the CI smoke: automatic promotions take the warm
    // path when the slot is anchored and must stay byte-identical either way.
    let tormented = chaos_run(
        7,
        &ChaosOptions::fast(),
        pace,
        Some(StandbyConfig {
            trailing_horizon_ticks: 50_000,
            apply_interval: Duration::from_millis(1),
        }),
    );
    assert_eq!(clean, tormented);
}

/// The nightly soak: several times the CI window, more of every
/// disturbance, seed taken from `$TART_SOAK_SEED` so the matrix in
/// `soak-extended.yml` covers distinct schedules. Even seeds run with the
/// warm-standby plane enabled (a tight horizon, so automatic promotions mix
/// warm takeovers with cold mid-catch-up fallbacks); odd seeds run the
/// pure cold path — across the matrix both recovery modes soak nightly,
/// and the zero-divergence gate holds for both. Ignored by default — run
/// explicitly with `-- --ignored`.
#[test]
#[ignore = "nightly soak; run explicitly with -- --ignored"]
fn extended_soak() {
    let seed = std::env::var("TART_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let opts = ChaosOptions {
        duration: Duration::from_secs(8),
        crashes: 4,
        partitions: 4,
        latency_spikes: 4,
        max_latency: Duration::from_millis(30),
        disturbance_len: Duration::from_millis(200),
        disk_faults: 0,
    };
    // Even seeds soak with the warm plane, odd seeds stay pure cold — the
    // seed matrix covers both recovery modes.
    let standby = seed.is_multiple_of(2).then(|| StandbyConfig {
        trailing_horizon_ticks: 50_000,
        apply_interval: Duration::from_millis(1),
    });
    // Spread the workload across most of the chaos window.
    let pace = Duration::from_millis(650);
    let clean = failure_free_run(pace);
    let tormented = chaos_run(seed, &opts, pace, standby);
    assert_eq!(
        clean, tormented,
        "extended soak (seed {seed}) must stay byte-identical to the failure-free run"
    );
}

#[test]
fn supervised_cluster_is_transparent_when_nothing_fails() {
    // Supervision alone must not disturb outputs (heartbeats ride the
    // control plane; the detector never fires on a healthy cluster).
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_supervision(SupervisionConfig::fast());
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for (client, sentence) in SENTENCES {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    // Give the detector time to misbehave if it were going to.
    std::thread::sleep(Duration::from_millis(300));
    cluster.finish_inputs();
    let metrics = cluster.supervision_metrics().expect("supervision on");
    assert!(metrics.heartbeats_seen > 0);
    let outs = normalize(cluster.shutdown());
    assert_eq!(outs, failure_free_run(Duration::ZERO));
}

#[test]
fn manual_kills_stay_manual_under_supervision() {
    // A deliberate fail-stop (operator action) must NOT be auto-recovered:
    // the supervisor only owns engines it believes alive.
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_supervision(SupervisionConfig::fast());
    let mut cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for (client, sentence) in &SENTENCES[..4] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    std::thread::sleep(Duration::from_millis(50));
    cluster.kill(EngineId::new(1));

    // Well past the suspicion timeout: still no automatic failover.
    let deadline = Instant::now() + Duration::from_millis(600);
    while Instant::now() < deadline {
        let m = cluster.supervision_metrics().expect("supervision on");
        assert_eq!(m.failovers, 0, "manual kill must not be auto-promoted");
        std::thread::sleep(Duration::from_millis(20));
    }

    cluster
        .promote(EngineId::new(1))
        .expect("manual promotion of a killed engine succeeds");
    for (client, sentence) in &SENTENCES[4..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    let outs = normalize(cluster.shutdown());
    assert_eq!(
        outs,
        failure_free_run(Duration::ZERO),
        "recovery transparent"
    );
}
