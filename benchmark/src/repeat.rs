//! `--repeat <k>`: the repeatability check shipped with the benchmark.
//!
//! Runs the workload `k` times, each in a fresh process with the next seed,
//! and prints per end-to-end metric the median, the quartiles, their
//! distance as a share of the median (the spread a bound must stay above)
//! and the max/min ratio.

use std::process::{Command, Stdio};

use crate::measure::percentile;
use crate::metrics::END_TO_END;

/// The number after `"<name>": {"value": ` in a result line.
pub fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// First and third quartile the way Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), which is what the acceptance check uses.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let at = |q: f64| {
        let n = sorted.len();
        let pos = q * (n as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        let a = sorted[lo - 1];
        let b = sorted[lo.min(n - 1)];
        a + (b - a) * frac
    };
    (at(0.25), at(0.75))
}

/// Returns the process exit code: 0 when every run was correct.
pub fn run(workload: &str, seed: u64, seconds: f64, k: usize) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut incorrect = 0;
    for i in 0..k as u64 {
        let child = Command::new(&exe)
            .args(["--workload", workload, "--seed", &(seed + i).to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("start a run");
        // `wait_with_output` reads to the end and reaps the child.
        let output = child.wait_with_output().expect("collect a run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout.lines().last().unwrap_or_default();
        if !output.status.success() || !result.contains("\"correct\": true") {
            incorrect += 1;
            eprintln!("run {i} (seed {}) was not correct: {result}", seed + i);
            continue;
        }
        for (m, values) in END_TO_END.iter().zip(samples.iter_mut()) {
            if let Some(v) = metric_value(result, m.name) {
                values.push(v);
            }
        }
        eprintln!("run {i} (seed {}) done", seed + i);
    }
    println!(
        "workload {workload}: {k} runs, seeds {seed}..{}, {incorrect} incorrect",
        seed + k as u64
    );
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>10} {:>8}  unit",
        "metric", "median", "q1", "q3", "iqr/med", "max/min"
    );
    for (m, values) in END_TO_END.iter().zip(samples.iter_mut()) {
        if values.len() < 2 {
            continue;
        }
        values.sort_by(f64::total_cmp);
        let med = percentile(values, 0.5);
        let (q1, q3) = quartiles(values);
        println!(
            "{:<24} {:>14.4} {:>14.4} {:>14.4} {:>10.4} {:>8.3}  {}",
            m.name,
            med,
            q1,
            q3,
            (q3 - q1) / med,
            values[values.len() - 1] / values[0],
            m.unit
        );
    }
    i32::from(incorrect > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_metric_out_of_a_result_line() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"a_us": {"value": 12.5, "unit": "us"}, "b": {"value": 3e-2, "unit": "s"}}}"#;
        assert_eq!(metric_value(line, "a_us"), Some(12.5));
        assert_eq!(metric_value(line, "b"), Some(0.03));
        assert_eq!(metric_value(line, "c"), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }
}
