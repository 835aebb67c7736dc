//! Live estimator calibration and determinism faults.
//!
//! TART's virtual times come from estimators; the better the estimate, the
//! less pessimism delay. This example shows the full lifecycle from §II.H
//! and §II.G.4:
//!
//! 1. start with a rough "known costs per instruction" guess;
//! 2. measure real handler times while processing;
//! 3. fit the coefficient by linear regression (the paper's Eq. 2);
//! 4. install it as a **determinism fault** — logged with its virtual time
//!    so replay uses the old estimator before the switch point and the new
//!    one after.
//!
//! Run with:
//!
//! ```text
//! cargo run --example calibration
//! ```

use std::time::Instant;

use tart::prelude::*;
use tart::reference::{WordCountSender, IN_PORT, SENDER_LOOP_BLOCK};
use tart::tart_model::RecordingCtx;
use tart::{Calibrator, EstimatorSchedule};

fn main() {
    // 1. The rough static guess: 500 ns per loop iteration.
    let initial = EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, 500);
    let mut schedule = EstimatorSchedule::new(initial);
    println!(
        "initial estimator: {:?}",
        schedule.active_at(VirtualTime::ZERO)
    );

    // 2. Run the real component, sampling features and measured times — the
    //    runtime does this transparently; here we drive it by hand.
    let mut component = WordCountSender::new();
    let mut calibrator = Calibrator::new(300);
    let vocab: Vec<String> = (0..500)
        .map(|i| format!("vocabulary-word-{i:03}"))
        .collect();
    let mut virtual_now = VirtualTime::ZERO;
    let mut sentence_no = 0u64;
    while !calibrator.is_ready() {
        sentence_no += 1;
        let words: Vec<Value> = (0..(sentence_no % 19 + 1))
            .map(|w| Value::from(vocab[((sentence_no * 7 + w) % 500) as usize].as_str()))
            .collect();
        let sentence = Value::List(words);
        let mut ctx = RecordingCtx::at(virtual_now);
        let start = Instant::now();
        for _ in 0..100 {
            component.on_message(IN_PORT, &sentence, &mut ctx);
        }
        let measured = (start.elapsed().as_nanos() / 100) as u64;
        let features = ctx.take_features();
        // The context accumulated 100 runs of features; scale down.
        let per_run = Features::single(SENDER_LOOP_BLOCK, features.count(SENDER_LOOP_BLOCK) / 100);
        virtual_now = virtual_now + schedule.estimate_at(virtual_now, &per_run);
        calibrator.add_sample(per_run, measured.max(1));
    }
    println!(
        "collected {} samples up to {virtual_now}",
        calibrator.sample_count()
    );

    // 3. Fit the paper's through-origin regression.
    let (fitted, fit) = calibrator
        .fit_through_origin(SENDER_LOOP_BLOCK)
        .expect("enough samples");
    println!(
        "fitted: {:?}  (R² = {:.3}, residual skew {:+.2})",
        fitted,
        fit.r_squared,
        fit.residuals.skewness()
    );

    // 4. Install it as a determinism fault at the next tick. The fault
    //    record is what the runtime logs synchronously to the replica.
    let fault = schedule
        .recalibrate_at(virtual_now.next(), fitted)
        .expect("strictly later than any prior switch");
    println!(
        "determinism fault logged: switch at {} to {:?}",
        fault.vt, fault.new_spec
    );

    // Replay honours the switch point: before it, the old estimate; after
    // it, the new one.
    let probe = Features::single(SENDER_LOOP_BLOCK, 10);
    let before = schedule.estimate_at(fault.vt.prev(), &probe);
    let after = schedule.estimate_at(fault.vt, &probe);
    println!("estimate for 10 iterations: before switch {before}, after switch {after}");
    assert_eq!(
        before.as_ticks(),
        5_000,
        "old coefficient until the logged vt"
    );
    assert_ne!(before, after, "new coefficient from the logged vt on");

    // A replica replaying the fault log reconstructs the same schedule.
    let mut replayed = EstimatorSchedule::new(EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, 500));
    replayed.apply_fault(&fault).expect("fault log is monotone");
    assert_eq!(replayed, schedule);
    println!("replayed schedule identical — recalibration survives failover.");
}
