//! What one workload run hands back to `main`, and the helpers every
//! workload uses to fill it in.
//!
//! A run is a handful of *epochs*: each deploys the application afresh,
//! drives the measured load, drills one recovery, shuts down and verifies.
//! Every end-to-end figure is the median over the epochs. On a two-core box
//! with three busy threads one deployment's figures depend on where the
//! scheduler happened to put them; the median over independent deployments
//! does not.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::check::{verify, Reference};
use crate::drive::Driver;
use crate::layers;
use crate::measure::{percentile, process_cpu_ms, thread_cpu_ms, PeakRss};

/// Command-line parameters of a run.
pub struct RunCtx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out/`, which is also the process's working directory.
    pub out_dir: PathBuf,
}

/// Timed set-ups at the start of a run.
pub const SETUP_REPEATS: usize = 25;

impl RunCtx {
    /// The share of `--seconds` the measured phase of one of `epochs` may take.
    pub fn epoch_seconds(&self, epochs: u64) -> f64 {
        self.seconds / epochs as f64
    }

    /// Whether spans are recorded during `epoch`: in the traced run every
    /// other epoch, so the rate difference between the two kinds is what
    /// tracing costs.
    pub fn traces(&self, epoch: u64) -> bool {
        self.trace && epoch.is_multiple_of(2)
    }
}

/// A per-layer figure with the number of samples behind it.
pub type Layers = BTreeMap<&'static str, (f64, u64)>;

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (messages sent plus recovery rounds) and failed
    /// (output missing at its deadline, duplicated, or not the reference's).
    pub attempted: u64,
    pub failed: u64,
    /// Messages of the latest measured phase (obs counters are per these).
    pub measured_inputs: u64,
    /// Per timed set-up: inputs from the seed, directories and deployment, s.
    pub setup_s: Vec<f64>,
    /// Per epoch: peak resident memory of the deployment, recovery included,
    /// kB per 1,000 messages it took.
    pub rss_kb_per_kmsg: Vec<f64>,
    /// Per epoch (per round for the failover workloads): outputs per second
    /// of the measured phase, first send to last output.
    pub rates: Vec<f64>,
    /// Per entry of `rates`: whether it was measured with spans on.
    pub rate_traced: Vec<bool>,
    /// Per epoch: latency quantiles of the measured phase, µs, the first
    /// tenth of the samples dropped as warm-up.
    pub latency_p50_us: Vec<f64>,
    pub latency_p90_us: Vec<f64>,
    /// Per recovery round: failure → first fresh output, ms.
    pub recovery_ms: Vec<f64>,
    /// Per epoch: CPU of every thread but the generator, ms per 1,000 inputs.
    pub cpu_ms_per_kmsg: Vec<f64>,
    /// Every latency and open-loop inject-lag sample of the run, for the
    /// tail diagnostics.
    pub all_latency_us: Vec<f64>,
    pub all_inject_lag_ns: Vec<f64>,
    /// Per-layer figures read from the run itself (obs counters, spans);
    /// the probes are added by `main`.
    pub layers: Layers,
    /// Why the run is not `correct`, for stderr.
    pub complaints: Vec<String>,
}

impl Outcome {
    pub fn complain(&mut self, failed_ops: u64, what: impl Into<String>) {
        self.failed += failed_ops;
        self.complaints.push(what.into());
    }

    pub fn layer(&mut self, name: &'static str, value: f64, samples: u64) {
        self.layers.insert(name, (value, samples));
    }
}

/// Sets up [`SETUP_REPEATS`] times before anything else has touched the
/// heap, tearing each down again, and books the durations: what a fresh
/// process pays before its first timed operation. One set-up takes
/// milliseconds, too short to be steady alone.
pub fn time_set_ups<P>(
    outcome: &mut Outcome,
    mut set_up: impl FnMut() -> P,
    mut tear_down: impl FnMut(P),
) {
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let prepared = set_up();
        outcome.setup_s.push(started.elapsed().as_secs_f64());
        tear_down(prepared);
    }
}

/// CPU time of the system under test: the whole process minus the calling
/// (generator) thread, whose polling would otherwise dominate an open loop.
pub struct CpuMeter {
    process_ms: f64,
    generator_ms: f64,
}

impl CpuMeter {
    pub fn start() -> Self {
        CpuMeter {
            process_ms: process_cpu_ms(),
            generator_ms: thread_cpu_ms(),
        }
    }

    pub fn ms_per_kmsg(&self, inputs: u64) -> f64 {
        let process = process_cpu_ms() - self.process_ms;
        let generator = thread_cpu_ms() - self.generator_ms;
        (process - generator).max(0.0) / (inputs.max(1) as f64 / 1_000.0)
    }
}

/// Books the measured phase of one epoch: its rate (`None`: the outputs did
/// not all arrive, which verification will count), CPU and latencies.
pub fn book_measured_phase(
    outcome: &mut Outcome,
    driver: &Driver,
    rate: Option<f64>,
    cpu: &CpuMeter,
) {
    match rate {
        Some(rate) => {
            outcome.rates.push(rate);
            outcome.rate_traced.push(driver.tracer.is_on());
        }
        None => outcome.complain(
            0,
            format!(
                "{} outputs missing at the drain deadline",
                driver.outstanding()
            ),
        ),
    }
    outcome.measured_inputs = driver.sent();
    outcome.cpu_ms_per_kmsg.push(cpu.ms_per_kmsg(driver.sent()));
    book_latencies(outcome, driver);
}

/// Books the epoch's peak resident memory per 1,000 messages it took. Call
/// when the deployment has done all its work and before it is verified (the
/// reference's expected outputs are the harness's memory, not the system's).
pub fn book_memory(outcome: &mut Outcome, driver: &Driver, memory: &PeakRss) {
    outcome
        .rss_kb_per_kmsg
        .push(memory.take_kb() as f64 / (driver.sent().max(1) as f64 / 1e3));
}

/// Latency quantiles of the driver's current samples; the first tenth is
/// warm-up.
pub fn book_latencies(outcome: &mut Outcome, driver: &Driver) {
    let warm_up = driver.latency_ns.len() / 10;
    let mut us: Vec<f64> = driver.latency_ns[warm_up..]
        .iter()
        .map(|ns| *ns as f64 / 1e3)
        .collect();
    us.sort_by(f64::total_cmp);
    if !us.is_empty() {
        outcome.latency_p50_us.push(percentile(&us, 0.5));
        outcome.latency_p90_us.push(percentile(&us, 0.9));
    }
    outcome.all_latency_us.extend(us);
    outcome
        .all_inject_lag_ns
        .extend(driver.inject_lag_ns.iter().map(|ns| *ns as f64));
}

/// The end of every epoch: the engine's outputs against the reference fed
/// the same inputs in send order.
pub fn verify_epoch(outcome: &mut Outcome, driver: &mut Driver, reference: &mut dyn Reference) {
    let expected: Vec<(i64, i64)> = driver
        .clients_of
        .iter()
        .enumerate()
        .map(|(i, client)| reference.feed(*client as usize, driver.payload(i as u64)))
        .collect();
    let verdict = verify(&expected, std::mem::take(&mut driver.outs));
    if verdict.failed() > 0 {
        outcome.complain(
            verdict.failed(),
            format!("outputs differ from the reference: {verdict:?}"),
        );
    }
    outcome.attempted += driver.sent();
}

/// The end of every run: the generator's diagnostics and the trace file.
pub fn close_run(outcome: &mut Outcome, driver: &Driver, ctx: &RunCtx) {
    layers::from_driver(driver, outcome);
    if ctx.trace {
        let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
        if let Err(e) = driver.tracer.write_json(&path) {
            outcome.complain(0, format!("trace not written: {e}"));
        }
    }
}

/// Longest any single wait for outputs may take.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(15);
/// Longest a recovery round may take to show its first fresh output.
pub const RECOVERY_LIMIT: Duration = Duration::from_secs(15);
/// Longest an engine call that joins threads (shutdown, crash) may take.
pub const JOIN_LIMIT: Duration = Duration::from_secs(15);
