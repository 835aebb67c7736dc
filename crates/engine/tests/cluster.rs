//! Threaded end-to-end tests of the TART cluster: determinism across runs,
//! failover with transparent recovery, and lossy/duplicating links.

// Test code: free to use wall clocks and hash maps (the determinism fence guards production code only).
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use tart_engine::{Cluster, ClusterConfig, FaultPlan, OutputRecord, Placement};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{self, fan_in_app};
use tart_model::{BlockId, Value};
use tart_vtime::EngineId;

/// Paper-style configuration for the Fig 1 app.
fn paper_config(spec: &tart_model::AppSpec) -> ClusterConfig {
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

/// Waits until the cluster has emitted `n` outputs (or panics after 10 s).
fn await_outputs(cluster: &Cluster, n: usize) -> Vec<OutputRecord> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut outs = Vec::new();
    while outs.len() < n {
        outs.extend(cluster.take_outputs());
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {n} outputs, have {}",
            outs.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    outs
}

fn run_workload(
    placement: fn(&tart_model::AppSpec) -> Placement,
    config: impl Fn(&tart_model::AppSpec) -> ClusterConfig,
    sentences: &[(&str, &str)],
) -> Vec<OutputRecord> {
    let spec = fan_in_app(2).expect("valid app");
    let cluster = Cluster::deploy(spec.clone(), placement(&spec), config(&spec)).expect("deploys");
    for (client, sentence) in sentences {
        cluster
            .injector(client)
            .expect("injector exists")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    cluster.shutdown()
}

fn two_engine_placement(spec: &tart_model::AppSpec) -> Placement {
    let mut p = Placement::new();
    p.assign(
        spec.component_by_name("Sender1").unwrap().id(),
        EngineId::new(0),
    );
    p.assign(
        spec.component_by_name("Sender2").unwrap().id(),
        EngineId::new(0),
    );
    p.assign(
        spec.component_by_name("Merger").unwrap().id(),
        EngineId::new(1),
    );
    p
}

const SENTENCES: &[(&str, &str)] = &[
    ("client1", "the cat sat"),
    ("client2", "on the mat"),
    ("client1", "the cat saw the dog"),
    ("client2", "the dog ran"),
    ("client1", "cats and dogs"),
    ("client2", "it rained cats"),
];

#[test]
fn single_engine_cluster_processes_everything() {
    let outs = run_workload(Placement::single_engine, paper_config, SENTENCES);
    assert_eq!(outs.len(), SENTENCES.len());
    // Outputs are sequence-numbered 1..=6 by the merger.
    let mut seqs: Vec<i64> = outs
        .iter()
        .map(|o| o.payload.get("seq").unwrap().as_i64().unwrap())
        .collect();
    seqs.sort();
    assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
}

#[test]
fn two_engine_cluster_matches_single_engine() {
    let single = run_workload(Placement::single_engine, paper_config, SENTENCES);
    let double = run_workload(two_engine_placement, paper_config, SENTENCES);
    // Placement is transparent: identical outputs, identical virtual times.
    let key = |outs: &[OutputRecord]| {
        let mut v: Vec<(u64, String)> = outs
            .iter()
            .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&single), key(&double));
}

#[test]
fn repeated_runs_are_deterministic() {
    let a = run_workload(two_engine_placement, paper_config, SENTENCES);
    let b = run_workload(two_engine_placement, paper_config, SENTENCES);
    let key = |outs: &[OutputRecord]| {
        let mut v: Vec<(u64, String)> = outs
            .iter()
            .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&a), key(&b), "same inputs ⇒ byte-identical outputs");
}

#[test]
fn lazy_silence_still_completes() {
    let lazy = |spec: &tart_model::AppSpec| {
        paper_config(spec).with_silence(tart_silence::SilencePolicy::Lazy)
    };
    let outs = run_workload(two_engine_placement, lazy, SENTENCES);
    assert_eq!(outs.len(), SENTENCES.len());
}

#[test]
fn lossy_duplicating_links_are_masked() {
    let faulty = |spec: &tart_model::AppSpec| {
        paper_config(spec)
            .with_faults(FaultPlan {
                drop_prob: 0.10,
                dup_prob: 0.10,
                seed: 99,
            })
            .with_checkpoint_every(3)
    };
    let clean = run_workload(two_engine_placement, paper_config, SENTENCES);
    let lossy = run_workload(two_engine_placement, faulty, SENTENCES);
    let key = |outs: &[OutputRecord]| {
        let mut v: Vec<(u64, String)> = Cluster::dedup_outputs(outs.to_vec())
            .iter()
            .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        key(&clean),
        key(&lossy),
        "loss and duplication are fully masked by gap replay + timestamp dedup"
    );
}

#[test]
fn failover_is_transparent_modulo_stutter() {
    // Reference run, no failure.
    let reference_outs = run_workload(two_engine_placement, paper_config, SENTENCES);

    // Failure run: kill the merger's engine mid-stream, then promote.
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_checkpoint_every(2);
    let cluster_placement = two_engine_placement(&spec);
    let mut cluster = Cluster::deploy(spec.clone(), cluster_placement, config).expect("deploys");

    // First half of the workload.
    for (client, sentence) in &SENTENCES[..3] {
        cluster
            .injector(client)
            .unwrap()
            .send(Value::from(*sentence));
    }
    // Let the merger make progress and checkpoint.
    let mut early = await_outputs(&cluster, 1);
    std::thread::sleep(Duration::from_millis(20));
    early.extend(cluster.take_outputs());

    // Fail-stop the merger engine: state and in-flight messages vanish.
    cluster.kill(EngineId::new(1));
    // Second half arrives while the engine is dead (the log captures it;
    // sender-engine outputs go to the void).
    for (client, sentence) in &SENTENCES[3..] {
        cluster
            .injector(client)
            .unwrap()
            .send(Value::from(*sentence));
    }
    // Promote the passive replica: checkpoint restore + replay.
    cluster
        .promote(EngineId::new(1))
        .expect("promotion of a killed engine succeeds");

    cluster.finish_inputs();
    let mut outs = cluster.shutdown();
    outs.extend(early);

    // Modulo output stutter (§II.A), the observable behaviour equals the
    // failure-free run: same virtual times, same payloads.
    let deduped = Cluster::dedup_outputs(outs);
    let key = |outs: &[OutputRecord]| {
        let mut v: Vec<(u64, String)> = outs
            .iter()
            .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&deduped), key(&reference_outs));
}

#[test]
fn killing_a_sender_engine_recovers_too() {
    let reference_outs = run_workload(two_engine_placement, paper_config, SENTENCES);

    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_checkpoint_every(1);
    let mut cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for (client, sentence) in &SENTENCES[..4] {
        cluster
            .injector(client)
            .unwrap()
            .send(Value::from(*sentence));
    }
    let mut early = await_outputs(&cluster, 1);
    std::thread::sleep(Duration::from_millis(20));
    early.extend(cluster.take_outputs());

    // Kill the SENDER engine this time: the merger survives and dedupes the
    // re-sent stream by timestamp.
    cluster.kill(EngineId::new(0));
    cluster
        .promote(EngineId::new(0))
        .expect("promotion of a killed engine succeeds");
    for (client, sentence) in &SENTENCES[4..] {
        cluster
            .injector(client)
            .unwrap()
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    let mut outs = cluster.shutdown();
    outs.extend(early);
    let outs = Cluster::dedup_outputs(outs);

    let key = |outs: &[OutputRecord]| {
        let mut v: Vec<(u64, String)> = outs
            .iter()
            .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&outs), key(&reference_outs));
}

#[test]
fn metrics_and_replica_depth_are_observable() {
    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_checkpoint_every(2);
    let cluster =
        Cluster::deploy(spec.clone(), Placement::single_engine(&spec), config).expect("deploys");
    for (client, sentence) in SENTENCES {
        cluster
            .injector(client)
            .unwrap()
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    let _ = await_outputs(&cluster, SENTENCES.len());
    let metrics = cluster.engine_metrics(EngineId::new(0)).expect("engine 0");
    assert!(metrics.processed >= 12, "senders + merger deliveries");
    assert!(cluster.replica_depth(EngineId::new(0)) >= 1);
    assert_eq!(cluster.fault_counts(), (0, 0));
    let _ = cluster.shutdown();
}

#[test]
fn deploy_rejects_incomplete_placement() {
    let spec = fan_in_app(2).expect("valid app");
    let placement = Placement::new(); // nothing assigned
    assert!(Cluster::deploy(spec, placement, ClusterConfig::logical_time()).is_err());
}

#[test]
fn aggressive_silence_policy_completes_in_the_engine() {
    let aggressive = |spec: &tart_model::AppSpec| {
        paper_config(spec).with_silence(tart_silence::SilencePolicy::Aggressive {
            max_quiet: tart_vtime::VirtualDuration::from_micros(200),
        })
    };
    let outs = run_workload(two_engine_placement, aggressive, SENTENCES);
    assert_eq!(outs.len(), SENTENCES.len());
}

#[test]
fn non_deterministic_baseline_delivers_same_payload_multiset() {
    // The arrival-order baseline gives no ordering or timestamp guarantees,
    // but it must not lose or duplicate messages either.
    let det = run_workload(two_engine_placement, paper_config, SENTENCES);
    let nondet = run_workload(
        two_engine_placement,
        |spec| paper_config(spec).non_deterministic(),
        SENTENCES,
    );
    assert_eq!(nondet.len(), det.len());
    // Sequence numbers 1..=6 each appear exactly once.
    let mut seqs: Vec<i64> = nondet
        .iter()
        .map(|o| o.payload.get("seq").unwrap().as_i64().unwrap())
        .collect();
    seqs.sort();
    assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
}

#[test]
fn link_delay_estimates_shift_output_virtual_times() {
    let spec = fan_in_app(2).expect("valid app");
    let merger = spec.component_by_name("Merger").unwrap().id();
    let consumer_wire = spec.output_wires_of(merger)[0].id();

    let plain = run_workload(two_engine_placement, paper_config, &SENTENCES[..2]);
    let delayed = run_workload(
        two_engine_placement,
        |spec| {
            let mut c = paper_config(spec);
            c.link_delay
                .insert(consumer_wire, tart_vtime::VirtualDuration::from_micros(250));
            c
        },
        &SENTENCES[..2],
    );
    assert_eq!(plain.len(), delayed.len());
    let mut plain_vts: Vec<u64> = plain.iter().map(|o| o.vt.as_ticks()).collect();
    let mut delayed_vts: Vec<u64> = delayed.iter().map(|o| o.vt.as_ticks()).collect();
    plain_vts.sort();
    delayed_vts.sort();
    for (p, d) in plain_vts.iter().zip(&delayed_vts) {
        assert_eq!(
            *d,
            p + 250_000,
            "the constant transmission-delay estimate shifts every output vt"
        );
    }
}

#[test]
fn same_engine_can_fail_and_recover_repeatedly() {
    let reference_outs = run_workload(two_engine_placement, paper_config, SENTENCES);

    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_checkpoint_every(1);
    let mut cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    let mut outs = Vec::new();
    for (i, (client, sentence)) in SENTENCES.iter().enumerate() {
        cluster
            .injector(client)
            .unwrap()
            .send(Value::from(*sentence));
        if i == 1 || i == 3 {
            // Fail the merger engine twice across the run; each promotion
            // must checkpoint-restore and replay cleanly (the single-failure
            // assumption allows repeated failures once recovery completes).
            std::thread::sleep(Duration::from_millis(30));
            outs.extend(cluster.take_outputs());
            cluster.kill(EngineId::new(1));
            cluster
                .promote(EngineId::new(1))
                .expect("promotion of a killed engine succeeds");
        }
    }
    cluster.finish_inputs();
    outs.extend(cluster.shutdown());
    let key = |outs: &[OutputRecord]| {
        let mut v: Vec<(u64, String)> = outs
            .iter()
            .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        key(&Cluster::dedup_outputs(outs)),
        key(&reference_outs),
        "two failures of the same engine stay invisible"
    );
}

#[test]
fn silence_policy_switches_live_without_a_fault() {
    // Start lazy, switch to curiosity mid-run (§II.G.4 allows this with no
    // determinism fault); behaviour must equal an all-curiosity run.
    let reference_outs = run_workload(two_engine_placement, paper_config, SENTENCES);

    let spec = fan_in_app(2).expect("valid app");
    let config = paper_config(&spec).with_silence(tart_silence::SilencePolicy::Lazy);
    let cluster =
        Cluster::deploy(spec.clone(), two_engine_placement(&spec), config).expect("deploys");
    for (client, sentence) in &SENTENCES[..3] {
        cluster
            .injector(client)
            .unwrap()
            .send(Value::from(*sentence));
    }
    cluster.set_silence_policy(tart_silence::SilencePolicy::Curiosity);
    for (client, sentence) in &SENTENCES[3..] {
        cluster
            .injector(client)
            .unwrap()
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    let outs = cluster.shutdown();
    let metrics = |outs: &[OutputRecord]| {
        let mut v: Vec<(u64, String)> = outs
            .iter()
            .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        metrics(&outs),
        metrics(&reference_outs),
        "switching silence policies changes nothing observable"
    );
}

#[test]
fn two_way_calls_work_through_the_cluster() {
    use std::sync::Arc;
    use tart_model::{CheckpointMode, Component, Ctx, RestoreError, Snapshot};
    use tart_vtime::{PortId, VirtualTime};

    struct Gateway;
    impl Component for Gateway {
        fn on_message(&mut self, _p: PortId, msg: &Value, ctx: &mut dyn Ctx) {
            // Two-way call to the pricing service, then forward the sum.
            let quote = ctx.call(PortId::new(1), msg.clone());
            let total = msg.as_i64().unwrap_or(0) + quote.as_i64().unwrap_or(0);
            ctx.send(PortId::new(2), Value::I64(total));
        }
        fn checkpoint(&mut self, _m: CheckpointMode, vt: VirtualTime) -> Snapshot {
            Snapshot::new(vt)
        }
        fn restore(&mut self, _s: &Snapshot) -> Result<(), RestoreError> {
            Ok(())
        }
    }
    struct Pricer;
    impl Component for Pricer {
        fn on_message(&mut self, _p: PortId, _m: &Value, _c: &mut dyn Ctx) {}
        fn on_call(&mut self, _p: PortId, req: &Value, ctx: &mut dyn Ctx) -> Value {
            ctx.tick_block(BlockId(0), 1);
            Value::I64(req.as_i64().unwrap_or(0) * 10)
        }
        fn checkpoint(&mut self, _m: CheckpointMode, vt: VirtualTime) -> Snapshot {
            Snapshot::new(vt)
        }
        fn restore(&mut self, _s: &Snapshot) -> Result<(), RestoreError> {
            Ok(())
        }
    }

    let mut b = tart_model::AppSpec::builder();
    let gw = b.component(
        "Gateway",
        Arc::new(|| Box::new(Gateway) as Box<dyn Component>),
    );
    let pricer = b.component(
        "Pricer",
        Arc::new(|| Box::new(Pricer) as Box<dyn Component>),
    );
    b.wire_in("orders", gw, PortId::new(0));
    b.wire(gw, PortId::new(1), pricer, PortId::new(0));
    b.wire_out(gw, PortId::new(2), "billing");
    let spec = b.build().expect("valid");
    // Calls must stay same-engine.
    let placement = Placement::single_engine(&spec);
    let cluster = Cluster::deploy(spec, placement, ClusterConfig::logical_time()).expect("deploys");
    for order in [3i64, 7, 11] {
        cluster.injector("orders").unwrap().send(Value::I64(order));
    }
    cluster.finish_inputs();
    let outs = cluster.shutdown();
    let mut totals: Vec<i64> = outs.iter().map(|o| o.payload.as_i64().unwrap()).collect();
    totals.sort();
    assert_eq!(totals, vec![33, 77, 121], "order + 10×order per request");
}
