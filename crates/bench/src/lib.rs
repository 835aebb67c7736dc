//! Shared harness for the TART reproduction's figure and table binaries.
//!
//! Each figure/table of the paper's evaluation (§III) has a binary in
//! `src/bin/` that regenerates it; this library carries what they share:
//! table rendering, the Fig 5 relay application, and the live measurement
//! loop that times requests through a real [`Cluster`].
//!
//! | Paper artifact | Binary |
//! |----------------|--------|
//! | Fig 2 (estimator fit) | `fig2_estimator_fit` |
//! | Fig 3 (latency vs variability) | `fig3_variability` |
//! | §III.A throughput text | `tbl_saturation` |
//! | §III.A dumb-estimator text | `tbl_dumb_estimator` |
//! | Fig 4 (estimator sensitivity) | `fig4_estimator_sensitivity` |
//! | Fig 5 (real two-engine run) | `fig5_distributed` |
//! | Recovery correctness (§II.F) | `tbl_recovery` |
//! | Silence-policy ablation (§II.G.3) | `ablation_silence` |
//! | Checkpoint-interval ablation (§II.F.2) | `ablation_checkpoint` |
//!
//! Every binary accepts `--quick` for a fast smoke run with reduced
//! parameters (used by CI); defaults reproduce the paper's scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tart_engine::{Cluster, ClusterConfig, Placement};
use tart_model::{AppSpec, BlockId, CheckpointMode, Component, Ctx, RestoreError, Snapshot, Value};
use tart_vtime::{EngineId, PortId, VirtualTime};

/// Returns `true` if `--quick` was passed (reduced-scale smoke run).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints a Markdown-style table: header row, separator, then rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let body: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("| {} |", body.join(" | "));
    };
    fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        fmt_row(row);
    }
}

/// A relay merger for the Fig 5 measurement: forwards each request's id so
/// the harness can match outputs back to send times ("constant-time
/// services", §III.C).
#[derive(Debug, Default)]
pub struct RelayMerger {
    forwarded: u64,
}

impl Component for RelayMerger {
    fn on_message(&mut self, _port: PortId, msg: &Value, ctx: &mut dyn Ctx) {
        ctx.tick_block(BlockId(0), 1);
        self.forwarded += 1;
        ctx.send(PortId::new(1), msg.clone());
    }

    fn checkpoint(&mut self, _mode: CheckpointMode, vt: VirtualTime) -> Snapshot {
        Snapshot::new(vt)
    }

    fn restore(&mut self, _snapshot: &Snapshot) -> Result<(), RestoreError> {
        Ok(())
    }
}

/// Builds the Fig 5 application: two constant-time relay "senders" fanning
/// into a relay merger, all forwarding the request id.
///
/// # Panics
///
/// Panics if the topology fails validation (it cannot).
pub fn fig5_app() -> AppSpec {
    use tart_model::reference::ConstantService;
    let mut b = AppSpec::builder();
    let merger = b.component(
        "Merger",
        Arc::new(|| Box::new(RelayMerger::default()) as Box<dyn Component>),
    );
    let s1 = b.component(
        "Service1",
        Arc::new(|| Box::new(ConstantService::new()) as Box<dyn Component>),
    );
    let s2 = b.component(
        "Service2",
        Arc::new(|| Box::new(ConstantService::new()) as Box<dyn Component>),
    );
    b.wire_in("client1", s1, PortId::new(0));
    b.wire_in("client2", s2, PortId::new(0));
    b.wire(s1, PortId::new(1), merger, PortId::new(0));
    b.wire(s2, PortId::new(1), merger, PortId::new(0));
    b.wire_out(merger, PortId::new(1), "consumer");
    b.build().expect("fig5 topology is valid")
}

/// The two-machine placement of §III.C: "the Sender components were on one
/// engine, the Merger on a second."
pub fn fig5_placement(spec: &AppSpec) -> Placement {
    let mut p = Placement::new();
    p.assign(
        spec.component_by_name("Service1").unwrap().id(),
        EngineId::new(0),
    );
    p.assign(
        spec.component_by_name("Service2").unwrap().id(),
        EngineId::new(0),
    );
    p.assign(
        spec.component_by_name("Merger").unwrap().id(),
        EngineId::new(1),
    );
    p
}

/// Result of one live Fig 5 run: per-request latencies in the order the
/// requests were sent.
#[derive(Clone, Debug)]
pub struct LiveRun {
    /// Per-request latency, microseconds.
    pub latencies_us: Vec<f64>,
}

impl LiveRun {
    /// Mean latency, µs.
    pub fn mean_us(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        self.latencies_us.iter().sum::<f64>() / self.latencies_us.len() as f64
    }

    /// Nearest-rank percentile, µs.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        assert!(!self.latencies_us.is_empty(), "empty run");
        let mut v = self.latencies_us.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        let rank = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[rank]
    }

    /// Averages over consecutive buckets of `size` requests — the series
    /// shape Fig 5 plots per web request.
    pub fn bucket_means_us(&self, size: usize) -> Vec<f64> {
        self.latencies_us
            .chunks(size.max(1))
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect()
    }
}

/// Drives `requests` alternating web requests through a live cluster built
/// from `config`, measuring real end-to-end latency per request.
///
/// A heartbeat thread promises external silence every `heartbeat_us`
/// microseconds, standing in for the real-time silence tracking a TART
/// scheduler performs for idle external producers.
///
/// # Panics
///
/// Panics if the cluster fails to deploy or the run stalls for 30 seconds.
pub fn run_fig5(
    config: ClusterConfig,
    requests: usize,
    gap: Duration,
    heartbeat_us: u64,
) -> LiveRun {
    let spec = fig5_app();
    let placement = fig5_placement(&spec);
    run_live(spec, placement, config, requests, gap, heartbeat_us)
}

/// Generalized live measurement: drives `requests` id-stamped messages
/// through any relay topology whose external output echoes the request id,
/// alternating across all external producers, and measures real end-to-end
/// latency per request.
///
/// # Panics
///
/// Panics if the cluster fails to deploy or the run stalls for 30 seconds.
pub fn run_live(
    spec: AppSpec,
    placement: Placement,
    config: ClusterConfig,
    requests: usize,
    gap: Duration,
    heartbeat_us: u64,
) -> LiveRun {
    let clients: Vec<String> = spec
        .external_inputs()
        .iter()
        .map(|w| match w.from() {
            tart_model::Endpoint::External { name } => name.clone(),
            _ => unreachable!("external inputs start externally"),
        })
        .collect();
    let cluster = Cluster::deploy(spec, placement, config).expect("live topology deploys");

    // Heartbeat thread: idle external producers promise silence.
    let stop = Arc::new(AtomicBool::new(false));
    let hb_stop = Arc::clone(&stop);
    let hb_cluster_inj: Vec<_> = clients
        .iter()
        .map(|n| cluster.injector(n).expect("injector").clone())
        .collect();
    let heartbeat = std::thread::spawn(move || {
        while !hb_stop.load(Ordering::Relaxed) {
            for inj in &hb_cluster_inj {
                inj.heartbeat();
            }
            std::thread::sleep(Duration::from_micros(heartbeat_us));
        }
    });

    let mut send_times: Vec<Instant> = Vec::with_capacity(requests);
    let mut latencies = vec![f64::NAN; requests];
    let mut received = 0usize;
    let deadline_slack = Duration::from_secs(30);
    let mut last_progress = Instant::now();

    for i in 0..requests {
        let client = &clients[i % clients.len()];
        send_times.push(Instant::now());
        cluster
            .injector(client)
            .expect("injector")
            .send(Value::I64(i as i64));
        // Collect whatever has come back.
        for out in cluster.take_outputs() {
            if let Some(id) = out.payload.as_i64() {
                let id = id as usize;
                if id < requests && latencies[id].is_nan() {
                    latencies[id] = send_times[id].elapsed().as_nanos() as f64 / 1_000.0;
                    received += 1;
                    last_progress = Instant::now();
                }
            }
        }
        std::thread::sleep(gap);
    }
    cluster.finish_inputs();
    // Collect the bulk of the tail. Under lazy propagation the final
    // message on each wire cannot clear pessimism until end-of-stream, so
    // this wait is bounded and the graceful drain below resolves the rest.
    let tail_deadline = Instant::now() + Duration::from_secs(2);
    while received < requests && Instant::now() < tail_deadline {
        for out in cluster.take_outputs() {
            if let Some(id) = out.payload.as_i64() {
                let id = id as usize;
                if id < requests && latencies[id].is_nan() {
                    latencies[id] = send_times[id].elapsed().as_nanos() as f64 / 1_000.0;
                    received += 1;
                    last_progress = Instant::now();
                }
            }
        }
        assert!(
            last_progress.elapsed() < deadline_slack,
            "fig5 run stalled with {received}/{requests} responses"
        );
        std::thread::sleep(Duration::from_micros(50));
    }
    stop.store(true, Ordering::Relaxed);
    let _ = heartbeat.join();
    // Drain: end-of-stream silence releases anything still held.
    for out in cluster.shutdown() {
        if let Some(id) = out.payload.as_i64() {
            let id = id as usize;
            if id < requests && latencies[id].is_nan() {
                latencies[id] = send_times[id].elapsed().as_nanos() as f64 / 1_000.0;
                received += 1;
            }
        }
    }
    assert_eq!(
        received, requests,
        "every request must eventually be answered"
    );
    LiveRun {
        latencies_us: latencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tart_model::RecordingCtx;

    #[test]
    fn relay_merger_forwards_ids() {
        let mut m = RelayMerger::default();
        let mut ctx = RecordingCtx::at(VirtualTime::ZERO);
        m.on_message(PortId::new(0), &Value::I64(42), &mut ctx);
        assert_eq!(ctx.sends(), &[(PortId::new(1), Value::I64(42))]);
        let snap = m.checkpoint(CheckpointMode::Full, VirtualTime::ZERO);
        assert!(m.restore(&snap).is_ok());
    }

    #[test]
    fn fig5_topology_shape() {
        let spec = fig5_app();
        assert_eq!(spec.components().len(), 3);
        assert_eq!(spec.external_inputs().len(), 2);
        assert_eq!(spec.external_outputs().len(), 1);
        let p = fig5_placement(&spec);
        assert!(p.covers(&spec));
        assert_eq!(p.engines().len(), 2);
    }

    #[test]
    fn live_run_statistics() {
        let run = LiveRun {
            latencies_us: vec![100.0, 200.0, 300.0, 400.0],
        };
        assert_eq!(run.mean_us(), 250.0);
        assert_eq!(run.percentile_us(0.0), 100.0);
        assert_eq!(run.percentile_us(100.0), 400.0);
        assert_eq!(run.bucket_means_us(2), vec![150.0, 350.0]);
        assert_eq!(
            LiveRun {
                latencies_us: vec![]
            }
            .mean_us(),
            0.0
        );
    }

    #[test]
    fn table_rendering_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
