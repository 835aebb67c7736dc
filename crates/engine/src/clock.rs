//! Time sources for stamping external input, plus the engine's only other
//! sanctioned wall-clock access: handler-duration measurement.
//!
//! Everything in the replayable core observes time through this module.
//! tart-lint enforces that (`WALLCLOCK` rule, DESIGN.md §12): the two
//! `Instant::now` reads below carry the only `allow` fences in the
//! deterministic engine tier, so any new wall-clock read elsewhere in the
//! scheduler fails the audit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tart_vtime::VirtualTime;

/// Produces the timestamps given to external messages as they enter the
/// system.
///
/// "Because the message is logged, it is safe to use the actual real time as
/// the virtual time of this message" (§II.E). Production deployments use
/// [`RealClock`]; tests use [`LogicalClock`] so whole-cluster runs are
/// reproducible.
pub trait TimeSource: Send + Sync {
    /// The current time in ticks (nanoseconds).
    fn now(&self) -> VirtualTime;

    /// Ensures subsequent [`TimeSource::now`] calls return strictly more
    /// than `vt`. Cold restart uses this to move a deterministic clock past
    /// the last timestamp recovered from the log, so re-driven external
    /// sends reproduce the timestamps of an uncrashed run. Clocks that
    /// cannot regress (like [`RealClock`]) need not do anything.
    fn advance_to(&self, vt: VirtualTime) {
        let _ = vt;
    }
}

/// Monotonic wall-clock time, measured from the moment the clock was
/// created.
#[derive(Clone, Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Creates a clock whose tick zero is now.
    pub fn new() -> Self {
        RealClock {
            // tart-lint: allow(WALLCLOCK) -- RealClock *is* the sanctioned boundary: §II.E logs the stamp, so replay reads the log, not the clock
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl TimeSource for RealClock {
    fn now(&self) -> VirtualTime {
        VirtualTime::from_ticks(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// A deterministic clock that advances by a fixed step on every query.
///
/// Two cluster runs that make the same sequence of `now()` calls observe the
/// same timestamps, making end-to-end runs replayable in tests.
#[derive(Clone, Debug)]
pub struct LogicalClock {
    counter: Arc<AtomicU64>,
    step: u64,
}

impl LogicalClock {
    /// Creates a clock advancing `step` ticks per query.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero (timestamps must be strictly increasing).
    pub fn new(step: u64) -> Self {
        assert!(step > 0, "logical clock step must be positive");
        LogicalClock {
            counter: Arc::new(AtomicU64::new(0)),
            step,
        }
    }
}

impl TimeSource for LogicalClock {
    fn now(&self) -> VirtualTime {
        let prev = self.counter.fetch_add(self.step, Ordering::SeqCst);
        VirtualTime::from_ticks(prev + self.step)
    }

    fn advance_to(&self, vt: VirtualTime) {
        self.counter.fetch_max(vt.as_ticks(), Ordering::SeqCst);
    }
}

/// A running measurement of one handler execution, used to feed the
/// estimator calibrator (§III: estimates are fitted to *measured* service
/// times).
///
/// The measurement itself is wall-clock — it has to be; it is measuring the
/// hardware — but the value never flows into virtual time directly: it goes
/// through [`tart_estimator::Calibrator`], and a re-fit is logged as a
/// `DeterminismFault` so replay reproduces the estimator switch instead of
/// the measurement. The same measurement also feeds the estimator-residual
/// histogram in `tart-obs` (estimate vs. measured, per delivery) — again a
/// one-way flow out of the core. Keeping the read here (rather than in the
/// scheduler) gives the audit a single choke point.
#[derive(Clone, Copy, Debug)]
pub struct HandlerTimer {
    started: Instant,
}

impl HandlerTimer {
    /// Starts measuring.
    pub fn start() -> Self {
        HandlerTimer {
            // tart-lint: allow(WALLCLOCK) -- measures real handler duration for calibration; consumed via the logged DeterminismFault path, never by replayed code
            started: Instant::now(),
        }
    }

    /// Nanoseconds since [`HandlerTimer::start`], saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn logical_clock_steps_deterministically() {
        let c = LogicalClock::new(1_000);
        assert_eq!(c.now(), VirtualTime::from_ticks(1_000));
        assert_eq!(c.now(), VirtualTime::from_ticks(2_000));
        // Clones share the counter (one logical timeline per cluster).
        let c2 = c.clone();
        assert_eq!(c2.now(), VirtualTime::from_ticks(3_000));
        assert_eq!(c.now(), VirtualTime::from_ticks(4_000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_rejected() {
        let _ = LogicalClock::new(0);
    }

    #[test]
    fn advance_to_restores_a_logical_timeline() {
        let c = LogicalClock::new(1_000);
        // A cold restart replaying three logged sends lands the clock here.
        c.advance_to(VirtualTime::from_ticks(3_000));
        assert_eq!(
            c.now(),
            VirtualTime::from_ticks(4_000),
            "resumes past the log"
        );
        // advance_to never regresses.
        c.advance_to(VirtualTime::from_ticks(100));
        assert_eq!(c.now(), VirtualTime::from_ticks(5_000));
        // RealClock accepts (and ignores) the hint.
        let r = RealClock::new();
        r.advance_to(VirtualTime::from_ticks(1));
        let _ = r.now();
    }

    #[test]
    fn usable_as_trait_objects() {
        let clocks: Vec<Arc<dyn TimeSource>> =
            vec![Arc::new(RealClock::new()), Arc::new(LogicalClock::new(1))];
        for c in clocks {
            let _ = c.now();
        }
    }
}
