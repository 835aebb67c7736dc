//! Warm-standby failover end-to-end: the LLFT-style standby plane keeps a
//! passive core pre-applied to within the trailing horizon, promotion takes
//! over from it in bounded time, and every degraded path — stale standby,
//! hash-diverged standby, mistimed promotion — falls back to the cold
//! hash-verified drill without losing byte-identical convergence.

use std::time::{Duration, Instant};

use tart_engine::{Cluster, ClusterConfig, OutputRecord, Placement, PromoteError, StandbyConfig};
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
];

fn paper_config(spec: &AppSpec) -> ClusterConfig {
    let mut config = ClusterConfig::logical_time().with_checkpoint_every(1);
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

/// A tight standby: one-tick horizon, millisecond apply cadence, so the
/// plane catches up as fast as checkpoints stream.
fn tight_standby() -> StandbyConfig {
    StandbyConfig {
        trailing_horizon_ticks: 1,
        apply_interval: Duration::from_millis(1),
    }
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

/// Polls `cluster.standby_status` until `pred` holds (or panics after 5 s).
fn await_standby(
    cluster: &Cluster,
    engine: EngineId,
    what: &str,
    pred: impl Fn(&tart_engine::StandbyStatus) -> bool,
) -> tart_engine::StandbyStatus {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(s) = cluster.standby_status(engine) {
            if pred(&s) {
                return s;
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for standby {engine} to become {what}: {:?}",
            cluster.standby_status(engine)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The single-source invariant: the standby has no copy of the chain, only
/// a cursor into the replica's, so what it has applied plus what it has yet
/// to is exactly what the replica holds for the current incarnation.
fn assert_tails_the_replica(cluster: &Cluster, engine: EngineId) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let before = cluster.replica_depth(engine);
        let status = cluster.standby_status(engine).expect("slot exists");
        if cluster.replica_depth(engine) == before {
            assert_eq!(status.applied as usize + status.pending, before);
            return;
        }
        assert!(Instant::now() < deadline, "replica never went quiet");
    }
}

#[test]
fn warm_promotion_takes_over_from_the_standby() {
    let reference_outs = failure_free_run();

    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_warm_standby(tight_standby());
    let mut cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    let merger = EngineId::new(1);

    for (client, sentence) in &SENTENCES[..4] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    // The standby must anchor on the merger's first full checkpoint and
    // pre-apply members as later captures push the head past the one-tick
    // horizon.
    let status = await_standby(&cluster, merger, "anchored", |s| {
        s.anchored && s.applied >= 1
    });
    assert!(!status.demoted);
    assert_tails_the_replica(&cluster, merger);

    cluster.kill(merger);
    cluster
        .promote(merger)
        .expect("promotion of a killed engine succeeds");

    for (client, sentence) in &SENTENCES[4..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    // The slot now tails the promoted incarnation's chain, from its head.
    await_standby(&cluster, merger, "re-anchored", |s| s.anchored);
    assert_tails_the_replica(&cluster, merger);

    let snap = cluster.obs_snapshot();
    assert_eq!(snap.warm_promotions, 1, "promotion rode the warm path");
    assert_eq!(snap.cold_promotions, 0);
    assert!(snap.standby_applied >= 1, "pre-applies were counted");
    assert!(
        snap.standby_lag_ticks.count() >= 1,
        "each pre-apply records its lag behind the head"
    );
    assert_eq!(snap.promotion_latency_ns.count(), 1);
    assert_eq!(snap.standby_demotions, 0);
    assert_eq!(
        snap.divergences_detected, 0,
        "a clean warm takeover verifies without divergence"
    );

    assert_eq!(
        normalize(cluster.shutdown()),
        reference_outs,
        "warm promotion must stay byte-identical to the failure-free run"
    );
}

#[test]
fn diverged_standby_is_demoted_and_cold_path_converges() {
    let reference_outs = failure_free_run();

    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_warm_standby(tight_standby());
    let mut cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    let merger = EngineId::new(1);

    for (client, sentence) in &SENTENCES[..4] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    await_standby(&cluster, merger, "anchored", |s| {
        s.anchored && s.applied >= 1
    });

    // Seed the divergence: the next member the standby applies carries a
    // tampered digest, modelling a standby whose memory went bad. The
    // authoritative replica chain is untouched.
    assert!(cluster.corrupt_standby(merger), "standby plane is running");
    for (client, sentence) in &SENTENCES[4..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    let status = await_standby(&cluster, merger, "demoted", |s| s.demoted);
    assert!(
        !status.anchored,
        "a demoted slot holds no takeover candidate"
    );

    cluster.kill(merger);
    cluster
        .promote(merger)
        .expect("cold fallback promotion succeeds");
    cluster.finish_inputs();

    let snap = cluster.obs_snapshot();
    assert_eq!(snap.standby_demotions, 1, "the divergence demoted the slot");
    assert_eq!(
        snap.warm_promotions, 0,
        "a demoted standby must never be promoted warm"
    );
    assert_eq!(
        snap.cold_promotions, 1,
        "promotion fell back to cold replay"
    );
    assert!(
        snap.divergences_detected >= 1,
        "the tampered digest surfaced as a recorded divergence"
    );

    assert_eq!(
        normalize(cluster.shutdown()),
        reference_outs,
        "recovery around a demoted standby must still converge byte-identically"
    );
}

#[test]
fn kill_during_catch_up_falls_back_cold_and_converges() {
    let reference_outs = failure_free_run();

    // The default ~100 ms virtual-time horizon dwarfs this workload's
    // timeline: every streamed checkpoint is still inside the horizon when
    // the kill lands, so the standby holds pending members it never applied
    // — the mid-catch-up shape.
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_warm_standby(StandbyConfig::default());
    let mut cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    let merger = EngineId::new(1);

    for (client, sentence) in &SENTENCES[..4] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    await_standby(&cluster, merger, "receiving the stream", |s| s.pending >= 1);

    cluster.kill(merger);
    cluster
        .promote(merger)
        .expect("promotion of a killed engine succeeds");
    for (client, sentence) in &SENTENCES[4..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();

    let snap = cluster.obs_snapshot();
    assert_eq!(
        snap.warm_promotions, 0,
        "an unanchored standby is not a takeover candidate"
    );
    assert_eq!(snap.cold_promotions, 1);
    assert_eq!(snap.standby_demotions, 0, "catch-up lag is not divergence");
    assert_eq!(snap.divergences_detected, 0);

    assert_eq!(
        normalize(cluster.shutdown()),
        reference_outs,
        "killing mid-catch-up must still converge via the cold path"
    );
}

#[test]
fn mistimed_promotion_is_a_structured_error_not_a_panic() {
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_warm_standby(tight_standby());
    let mut cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");

    // A supervisor racing a live engine must degrade gracefully: the error
    // names the engine and the cluster keeps running.
    match cluster.promote(EngineId::new(1)) {
        Err(PromoteError::EngineStillAlive(e)) => assert_eq!(e, EngineId::new(1)),
        other => panic!("promoting a live engine must be rejected, got {other:?}"),
    }
    match cluster.promote(EngineId::new(77)) {
        Err(PromoteError::UnknownEngine(e)) => assert_eq!(e, EngineId::new(77)),
        other => panic!("promoting an undeployed engine must be rejected, got {other:?}"),
    }

    // The rejected promotions poisoned nothing: the workload still runs to
    // completion, failure drills included.
    for (client, sentence) in SENTENCES {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    assert_eq!(normalize(cluster.shutdown()), failure_free_run());
}

#[test]
fn standby_status_is_absent_without_the_plane() {
    let spec = fan_in_app(2).expect("valid app");
    let cluster = Cluster::deploy(
        spec.clone(),
        two_engine_placement(&spec),
        paper_config(&spec),
    )
    .expect("deploys");
    assert_eq!(cluster.standby_status(EngineId::new(1)), None);
    assert!(!cluster.corrupt_standby(EngineId::new(1)));
    cluster.finish_inputs();
    let _ = cluster.shutdown();
}
