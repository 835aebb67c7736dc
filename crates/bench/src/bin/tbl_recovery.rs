//! Recovery drill — the correctness claim of §II.A/§II.F, measured.
//!
//! Runs the Fig 1 application on two engines, kills the merger's engine
//! mid-stream, promotes the passive replica, and verifies that the
//! delivered output (after the consumer's stutter compensation) is
//! byte-identical to a failure-free run. Also reports the recovery cost —
//! checkpoint bytes the cluster shipped before the kill, time to the first
//! post-promotion output, output stutter — as a function of the checkpoint
//! interval (the paper's "checkpoint frequency is a tuning parameter"
//! trade-off, §II.F.2).

use std::time::Duration;

use tart_bench::{print_table, quick_mode};
use tart_engine::{Cluster, ClusterConfig, OutputRecord, Placement};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{self, fan_in_app};
use tart_model::{AppSpec, BlockId, Value};
use tart_stats::DetRng;
use tart_vtime::EngineId;

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

fn two_engine(spec: &AppSpec) -> Placement {
    let mut p = Placement::new();
    for c in spec.components() {
        let engine = if c.name() == "Merger" { 1 } else { 0 };
        p.assign(c.id(), EngineId::new(engine));
    }
    p
}

fn sentences(n: usize) -> Vec<(String, String)> {
    let vocab = [
        "the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "slow", "jumped",
    ];
    let mut rng = DetRng::seed_from(42);
    (0..n)
        .map(|i| {
            let words = rng.gen_range_u64(1, 8);
            let s: Vec<&str> = (0..words)
                .map(|_| vocab[rng.gen_range_u64(0, vocab.len() as u64 - 1) as usize])
                .collect();
            (format!("client{}", i % 2 + 1), s.join(" "))
        })
        .collect()
}

fn canonical(outs: Vec<OutputRecord>) -> Vec<(u64, String)> {
    let mut v: Vec<(u64, String)> = Cluster::dedup_outputs(outs)
        .into_iter()
        .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
        .collect();
    v.sort();
    v
}

fn main() {
    let quick = quick_mode();
    let n = if quick { 60 } else { 400 };
    let workload = sentences(n);
    println!("Recovery drill: {n} sentences, merger engine killed mid-stream");

    // Failure-free reference.
    let spec = fan_in_app(2).expect("valid app");
    let cluster =
        Cluster::deploy(spec.clone(), two_engine(&spec), paper_config(&spec)).expect("deploys");
    for (client, s) in &workload {
        cluster
            .injector(client)
            .unwrap()
            .send(Value::from(s.as_str()));
    }
    cluster.finish_inputs();
    let reference_out = canonical(cluster.shutdown());
    assert_eq!(reference_out.len(), n);

    let mut rows = Vec::new();
    for checkpoint_every in [1u64, 5, 20, 100] {
        let spec = fan_in_app(2).expect("valid app");
        let config = paper_config(&spec).with_checkpoint_every(checkpoint_every);
        let mut cluster =
            Cluster::deploy(spec.clone(), two_engine(&spec), config).expect("deploys");
        let half = n / 2;
        for (client, s) in &workload[..half] {
            cluster
                .injector(client)
                .unwrap()
                .send(Value::from(s.as_str()));
        }
        // Give the merger time to process and checkpoint, keeping whatever
        // outputs appear.
        let mut outs = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while outs.len() < half / 2 && std::time::Instant::now() < deadline {
            outs.extend(cluster.take_outputs());
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        outs.extend(cluster.take_outputs());

        let ckpt_bytes_before = cluster.obs_snapshot().checkpoint_bytes;
        cluster.kill(EngineId::new(1));
        for (client, s) in &workload[half..] {
            cluster
                .injector(client)
                .unwrap()
                .send(Value::from(s.as_str()));
        }
        // Recovery time: from starting the promotion until the restored
        // engine's first (replayed or fresh) output reaches the consumer.
        let promote_start = std::time::Instant::now();
        cluster
            .promote(EngineId::new(1))
            .expect("promotion of a killed engine succeeds");
        let recovery_us = loop {
            let fresh = cluster.take_outputs();
            if !fresh.is_empty() {
                outs.extend(fresh);
                break promote_start.elapsed().as_micros();
            }
            assert!(
                promote_start.elapsed() < Duration::from_secs(20),
                "recovery stalled at interval {checkpoint_every}"
            );
            std::thread::sleep(Duration::from_micros(50));
        };
        cluster.finish_inputs();
        let late = cluster.shutdown();
        let metrics = late.len(); // count before moving
        outs.extend(late);
        let recovered = canonical(outs);
        let identical = recovered == reference_out;
        rows.push(vec![
            checkpoint_every.to_string(),
            ckpt_bytes_before.to_string(),
            format!("{:.1}", recovery_us as f64 / 1_000.0),
            metrics.to_string(),
            if identical { "YES".into() } else { "NO".into() },
        ]);
        assert!(
            identical,
            "recovery must reproduce the failure-free output (interval {checkpoint_every})"
        );
    }
    print_table(
        "Recovery transparency vs checkpoint interval (output ≡ failure-free, §II.A)",
        &[
            "ckpt every N msgs",
            "ckpt bytes shipped (cluster)",
            "recovery ms (promote → first output)",
            "post-failure outputs (incl. stutter)",
            "output identical",
        ],
        &rows,
    );
    println!("\nShape check PASSED: recovery transparent at every checkpoint interval.");
}
