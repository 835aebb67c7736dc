//! `tart-benchmark`: one workload per process, end-to-end metrics untraced,
//! per-layer metrics traced. See `benchmark/README.md`.

// A measurement harness: wall-clock reads are its purpose.
#![allow(clippy::disallowed_methods)]

mod check;
mod drive;
mod failover;
mod fanin;
mod gen;
mod layers;
mod ledger;
mod measure;
mod metrics;
mod outcome;
mod probes;
mod repeat;
mod tcp;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use crate::measure::{median, peak_rss_kb};
use crate::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::outcome::{Outcome, RunCtx};

/// No workload may run longer than this, whatever went wrong.
const WATCHDOG: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: tart-benchmark --workload <{}> [--seed <u64>] [--seconds <s>] \
         [--trace [0|1]] [--repeat <k>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 0,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--repeat" => args.repeat = value().parse().unwrap_or_else(|_| usage()),
            // `--trace` alone means on; `--trace 0|1` is the driver's form.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds.is_nan() || args.seconds <= 0.0
    {
        usage();
    }
    args
}

/// `benchmark/out/`, next to the manifest this binary was built from.
/// `cargo run` exports the manifest directory at run time; a binary started
/// by hand falls back to where it was compiled.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

fn run_workload(ctx: &RunCtx) -> Outcome {
    match ctx.workload.as_str() {
        "fanin_open" => fanin::run(&fanin::FANIN_OPEN, ctx),
        "fanin_saturate" => fanin::run(&fanin::FANIN_SATURATE, ctx),
        "durable_steady" => fanin::run(&fanin::DURABLE_STEADY, ctx),
        "tcp_saturate" => tcp::run(ctx),
        "failover_cold" => failover::run(false, ctx),
        "failover_warm" => failover::run(true, ctx),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

fn json_metrics(table: &[Metric], value_of: impl Fn(&str) -> f64) -> String {
    table
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                value_of(m.name),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let args = parse_args();
    if args.repeat > 0 {
        std::process::exit(repeat::run(
            &args.workload,
            args.seed,
            args.seconds,
            args.repeat,
        ));
    }

    // Everything the engine writes to the working directory (flight dumps,
    // obs reports, durability directories) lands in benchmark/out/.
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).expect("create benchmark/out");
    std::env::set_current_dir(&out_dir).expect("enter benchmark/out");
    std::env::set_var("TART_FLIGHT_DUMP", out_dir.join("flight-dump.json"));
    std::env::set_var("TART_OBS_REPORT", out_dir.join("obs-report.json"));

    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("watchdog: workload still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });

    let ctx = RunCtx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir,
    };
    let mut outcome = run_workload(&ctx);
    if outcome
        .layers
        .get("core.divergences")
        .is_some_and(|d| d.0 > 0.0)
    {
        outcome.complain(1, "state divergence detected");
    }
    if ctx.trace {
        probes::run(&ctx, &mut outcome);
    }

    let peak_kb = peak_rss_kb() as f64;
    let samples_of = |name: &str| -> &[f64] {
        match name {
            "throughput_msgs_per_s" => &outcome.rates,
            "latency_p50_us" => &outcome.latency_p50_us,
            "latency_p90_us" => &outcome.latency_p90_us,
            "recovery_ms_p50" => &outcome.recovery_ms,
            "cpu_ms_per_kmsg" => &outcome.cpu_ms_per_kmsg,
            "rss_kb_per_kmsg" => &outcome.rss_kb_per_kmsg,
            "setup_s" => &outcome.setup_s,
            other => unreachable!("no samples for end-to-end metric {other}"),
        }
    };
    // Every end-to-end figure is a median: over the run's epochs, its
    // recovery rounds or its timed set-ups.
    let end_to_end = |name: &str| median(samples_of(name));
    outcome
        .layers
        .insert("process.peak_rss_mb", (peak_kb / 1024.0, 1));
    let layer = |name: &str| outcome.layers.get(name).map_or(0.0, |l| l.0);

    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace
    );
    let body = if ctx.trace {
        for m in PER_LAYER {
            let n = outcome.layers.get(m.name).map_or(0, |l| l.1);
            println!("{:<40} {:>16.4} {:<8} n={n}", m.name, layer(m.name), m.unit);
        }
        json_metrics(PER_LAYER, layer)
    } else {
        for m in END_TO_END {
            println!(
                "{:<40} {:>16.4} {:<8} n={}",
                m.name,
                end_to_end(m.name),
                m.unit,
                samples_of(m.name).len()
            );
        }
        json_metrics(END_TO_END, end_to_end)
    };
    for complaint in &outcome.complaints {
        eprintln!("FAILED: {complaint}");
    }
    let correct = outcome.failed == 0 && outcome.complaints.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    // Helper threads a missed deadline left behind must not keep us alive.
    std::process::exit(if correct { 0 } else { 1 });
}
