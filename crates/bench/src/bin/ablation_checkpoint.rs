//! Ablation — checkpoint frequency and incremental checkpointing (§II.F.2).
//!
//! "The checkpoint frequency is a tuning parameter: more frequent
//! checkpointing reduces recovery time but increases overhead." This
//! ablation runs the Fig 1 application on one engine with a growing
//! word-count table and reports, per checkpoint interval: checkpoints
//! taken, total bytes shipped to the replica, and bytes per checkpoint —
//! demonstrating how the incremental `CkptMap` journal keeps frequent
//! checkpoints cheap compared to full-state captures.

use tart_bench::{print_table, quick_mode};
use tart_engine::{Cluster, ClusterConfig, Placement};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{self, fan_in_app};
use tart_model::{BlockId, Value};
use tart_stats::DetRng;

fn main() {
    let quick = quick_mode();
    let n = if quick { 200 } else { 2_000 };
    println!("Checkpoint ablation: {n} sentences through the Fig 1 app");

    let mut rng = DetRng::seed_from(7);
    let workload: Vec<(String, String)> = (0..n)
        .map(|i| {
            let words: Vec<String> = (0..rng.gen_range_u64(1, 19))
                .map(|_| format!("word{}", rng.gen_range_u64(0, 500)))
                .collect();
            (format!("client{}", i % 2 + 1), words.join(" "))
        })
        .collect();

    let mut rows = Vec::new();
    for interval in [1u64, 10, 100, 1_000] {
        let spec = fan_in_app(2).expect("valid app");
        let mut config = ClusterConfig::logical_time().with_checkpoint_every(interval);
        for c in spec.components() {
            let est = if c.name().starts_with("Sender") {
                EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000)
            } else {
                EstimatorSpec::per_iteration(BlockId(0), 400_000)
            };
            config = config.with_estimator(c.id(), est);
        }
        let cluster = Cluster::deploy(
            spec,
            Placement::single_engine(&fan_in_app(2).unwrap()),
            config,
        )
        .expect("deploys");
        for (client, s) in &workload {
            cluster
                .injector(client)
                .unwrap()
                .send(Value::from(s.as_str()));
        }
        cluster.finish_inputs();
        // Counters must be read before shutdown consumes the cluster, once
        // every delivery and the checkpoint it made due have been counted
        // (a delivery is counted before its handler runs).
        let wait = std::time::Instant::now();
        let metrics = loop {
            let snap = cluster.obs_snapshot();
            let settled =
                snap.delivered >= (n as u64) * 2 && snap.checkpoints >= snap.delivered / interval;
            if settled || wait.elapsed().as_secs() > 30 {
                break snap;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        let _ = cluster.shutdown();
        let per_ckpt = metrics
            .checkpoint_bytes
            .checked_div(metrics.checkpoints)
            .unwrap_or(0);
        rows.push(vec![
            interval.to_string(),
            metrics.checkpoints.to_string(),
            metrics.checkpoint_bytes.to_string(),
            per_ckpt.to_string(),
        ]);
    }
    print_table(
        "Checkpoint interval ablation (incremental CkptMap journaling, §II.F.2)",
        &[
            "every N msgs",
            "checkpoints",
            "total bytes",
            "bytes/checkpoint",
        ],
        &rows,
    );

    let total_at = |row: usize| rows[row][2].parse::<u64>().expect("numeric");
    assert!(
        total_at(0) > total_at(2),
        "frequent checkpointing must ship more total bytes"
    );
    let per_at = |row: usize| rows[row][3].parse::<u64>().expect("numeric");
    assert!(
        per_at(0) < per_at(2),
        "incremental deltas keep frequent checkpoints individually small"
    );
    println!(
        "\nShape check PASSED: total checkpoint volume rises with frequency while per-checkpoint \
         size falls (incremental journaling at work)."
    );
}
