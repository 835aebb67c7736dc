//! Workspace-level integration tests: the public `tart` API exercised end
//! to end — determinism, recovery, and the simulation studies, through the
//! same facade a downstream user sees.

use tart::prelude::*;
use tart::reference::{self, SENDER_LOOP_BLOCK};
use tart::{Cluster, ExecMode, FanInSim, SimConfig};

fn paper_config(spec: &AppSpec) -> ClusterConfig {
    let mut config = ClusterConfig::logical_time();
    for c in spec.components() {
        let est = if c.name().starts_with("Sender") {
            EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, 61_000)
        } else {
            EstimatorSpec::constant(VirtualDuration::from_micros(400))
        };
        config = config.with_estimator(c.id(), est);
    }
    config
}

fn workload() -> Vec<(&'static str, &'static str)> {
    vec![
        ("client1", "a b c"),
        ("client2", "c d"),
        ("client1", "a c d e"),
        ("client2", "e"),
        ("client1", "b b b"),
        ("client2", "a d e"),
    ]
}

fn run_once(spec_fn: impl Fn() -> AppSpec, engines: u32) -> Vec<(u64, String)> {
    let spec = spec_fn();
    let placement = Placement::round_robin(&spec, engines);
    let cluster = Cluster::deploy(spec.clone(), placement, paper_config(&spec)).expect("deploys");
    for (client, sentence) in workload() {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(sentence));
    }
    cluster.finish_inputs();
    let mut outs: Vec<(u64, String)> = cluster
        .shutdown()
        .into_iter()
        .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
        .collect();
    outs.sort();
    outs
}

#[test]
fn outputs_identical_across_runs_and_placements() {
    let spec = || reference::fan_in_app(2).expect("valid");
    let one_engine = run_once(spec, 1);
    let two_engines_a = run_once(spec, 2);
    let two_engines_b = run_once(spec, 2);
    let three_engines = run_once(spec, 3);
    assert_eq!(one_engine.len(), 6);
    assert_eq!(
        one_engine, two_engines_a,
        "placement does not change behaviour"
    );
    assert_eq!(
        two_engines_a, two_engines_b,
        "repetition does not change behaviour"
    );
    assert_eq!(one_engine, three_engines);
}

#[test]
fn word_count_totals_are_correct() {
    // Independent of scheduling, the merger's final total must equal the
    // ground-truth word-count semantics applied in virtual-time order.
    let outs = run_once(|| reference::fan_in_app(2).expect("valid"), 2);
    let finals: Vec<i64> = outs
        .iter()
        .filter_map(|(_, p)| {
            // Extract "total: N" from the rendered map.
            p.split("total: ")
                .nth(1)?
                .trim_end_matches('}')
                .parse()
                .ok()
        })
        .collect();
    assert_eq!(finals.len(), 6);
    // Totals are non-decreasing (counts only accumulate).
    for w in finals.windows(2) {
        assert!(w[1] >= w[0], "running totals never decrease: {finals:?}");
    }
}

#[test]
fn wider_fan_in_works() {
    let spec = reference::fan_in_app(5).expect("valid");
    let placement = Placement::round_robin(&spec, 3);
    let cluster = Cluster::deploy(spec.clone(), placement, paper_config(&spec)).expect("deploys");
    for i in 0..5 {
        cluster
            .injector(&format!("client{}", i + 1))
            .expect("injector")
            .send(Value::from("x y z"));
    }
    cluster.finish_inputs();
    let outs = cluster.shutdown();
    assert_eq!(outs.len(), 5);
}

#[test]
fn failover_under_load_is_transparent() {
    let spec = reference::fan_in_app(2).expect("valid");
    let reference_run = run_once(|| reference::fan_in_app(2).expect("valid"), 2);

    let placement = Placement::round_robin(&spec, 2);
    let config = paper_config(&spec).with_checkpoint_every(1);
    let mut cluster = Cluster::deploy(spec.clone(), placement, config).expect("deploys");
    let work = workload();
    for (client, sentence) in &work[..3] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    // Collect early outputs, give checkpoints a moment to ship.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut outs = cluster.take_outputs();
    for engine in [EngineId::new(0), EngineId::new(1)] {
        cluster.kill(engine);
        cluster
            .promote(engine)
            .expect("promotion of a killed engine succeeds");
    }
    for (client, sentence) in &work[3..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    outs.extend(cluster.shutdown());
    let mut deduped: Vec<(u64, String)> = Cluster::dedup_outputs(outs)
        .into_iter()
        .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
        .collect();
    deduped.sort();
    assert_eq!(
        deduped, reference_run,
        "serial double failover is invisible"
    );
}

#[test]
fn simulation_smoke_matches_paper_shape() {
    let mut cfg = SimConfig::paper_iii_a();
    cfg.messages_per_sender = 2_000;
    let mut nondet_cfg = cfg.clone();
    nondet_cfg.mode = ExecMode::NonDeterministic;
    let nondet = FanInSim::new(nondet_cfg).run();
    let det = FanInSim::new(cfg).run();
    let overhead = det.overhead_percent_vs(&nondet);
    assert!(
        overhead > -2.0 && overhead < 12.0,
        "determinism overhead plausible: {overhead:.1}%"
    );
    assert_eq!(det.completed, 4_000);
}

#[test]
fn recalibration_mid_run_keeps_cluster_consistent() {
    let spec = reference::fan_in_app(2).expect("valid");
    let s1 = spec.component_by_name("Sender1").expect("exists").id();
    let placement = Placement::round_robin(&spec, 2);
    let config = paper_config(&spec).with_checkpoint_every(2);
    let mut cluster = Cluster::deploy(spec.clone(), placement, config).expect("deploys");
    let work = workload();
    for (client, sentence) in &work[..3] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    std::thread::sleep(std::time::Duration::from_millis(30));
    let mut outs = cluster.take_outputs();
    // Re-calibrate Sender1 mid-run (a determinism fault), then fail and
    // recover the engine hosting it: the fault log must survive.
    cluster.recalibrate(s1, EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, 62_000));
    std::thread::sleep(std::time::Duration::from_millis(30));
    let merger_engine = EngineId::new(0); // round_robin: c0=Merger→e0
    cluster.kill(merger_engine);
    cluster
        .promote(merger_engine)
        .expect("promotion of a killed engine succeeds");
    for (client, sentence) in &work[3..] {
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    outs.extend(cluster.shutdown());
    let deduped = Cluster::dedup_outputs(outs);
    assert_eq!(deduped.len(), 6, "all six outputs delivered exactly once");
}

#[test]
fn instrumented_components_auto_recalibrate() {
    use std::sync::Arc;
    use tart::reference::{ConstantService, IN_PORT, OUT_PORT};
    use tart::Instrumented;

    // A pipeline of un-instrumented components wrapped by `Instrumented`:
    // the wrapper supplies per-port and payload-weight features, and the
    // engine's dynamic re-tuning fits an estimator from them (§II.G.4).
    let mut b = AppSpec::builder();
    let stage1 = b.component(
        "Stage1",
        Arc::new(|| Box::new(Instrumented::new(ConstantService::new())) as Box<dyn Component>),
    );
    let stage2 = b.component(
        "Stage2",
        Arc::new(|| Box::new(Instrumented::new(ConstantService::new())) as Box<dyn Component>),
    );
    b.wire_in("source", stage1, IN_PORT);
    b.wire(stage1, OUT_PORT, stage2, IN_PORT);
    b.wire_out(stage2, OUT_PORT, "sink");
    let spec = b.build().expect("valid");

    let placement = Placement::single_engine(&spec);
    let config = ClusterConfig::logical_time().with_auto_recalibrate_after(5);
    let cluster = Cluster::deploy(spec, placement, config).expect("deploys");
    for i in 0..12 {
        cluster
            .injector("source")
            .expect("injector")
            .send(Value::from(format!("payload number {i}")));
    }
    cluster.finish_inputs();
    // Obs must show the determinism faults before shutdown.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut outs = Vec::new();
    while outs.len() < 12 && std::time::Instant::now() < deadline {
        outs.extend(cluster.take_outputs());
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let recalibrations = cluster.obs_snapshot().recalibrations;
    assert!(
        recalibrations >= 2,
        "both wrapped stages should re-tune, got {recalibrations}"
    );
    outs.extend(cluster.shutdown());
    assert_eq!(outs.len(), 12, "re-tuning never disturbs delivery");
}
