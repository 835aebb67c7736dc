//! `tart-obs` — obs-report tooling for CI.
//!
//! ```text
//! tart-obs --check-report <path> [--require-failover] [--require-pessimism]
//!          [--require-silence] [--require-zero-divergence]
//! ```
//!
//! Validates an `obs-report.json` produced by the chaos soak or the
//! cold-restart drill: the full key schema, a
//! nonzero delivered count, and optionally the chaos-specific requirements
//! (a recorded failover promotion, pessimism-wait samples, per-wire
//! silence totals, zero verified-replay divergences). Exit code 0 on a
//! valid report, 1 on violations (each printed on its own line), 2 on
//! usage errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use tart_obs::{check_report, ReportRequirements};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tart-obs --check-report <path> \
         [--require-failover] [--require-pessimism] [--require-silence] \
         [--require-zero-divergence]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut req = ReportRequirements::default();
    let mut iter = args.iter();
    match iter.next().map(String::as_str) {
        Some("--check-report") => {}
        _ => return usage(),
    }
    for arg in iter {
        match arg.as_str() {
            "--require-failover" => req.failover_event = true,
            "--require-pessimism" => req.pessimism_samples = true,
            "--require-silence" => req.silence_totals = true,
            "--require-zero-divergence" => req.zero_divergence = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    let Some(path) = path else { return usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("tart-obs: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_report(&text, req) {
        Ok(()) => {
            println!("tart-obs: {path} is a valid obs report");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("tart-obs: {path}: {p}");
            }
            eprintln!("tart-obs: {} problem(s) found", problems.len());
            ExitCode::FAILURE
        }
    }
}
