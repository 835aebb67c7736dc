//! Heartbeat failure detection and automatic failover.
//!
//! Engines under supervision emit [`Envelope::Heartbeat`] beacons on the
//! reliable control plane every [`SupervisionConfig::heartbeat_interval`].
//! A dedicated supervisor thread collects them under the
//! [`crate::router`] sentinel inbox and runs one [`FailureDetector`] per
//! engine: a phi-accrual score (Hayashibara et al.) over the observed
//! inter-arrival distribution, with a hard
//! [`SupervisionConfig::suspicion_timeout`] upper bound. When an engine is
//! suspected, the supervisor runs the *same* kill → promote → replay drill
//! a human operator would ([`crate::Cluster::kill`] +
//! [`crate::Cluster::promote`]) — which is why a false positive merely
//! costs one recovery (output stutter, deduplicated downstream), never
//! correctness: deterministic replay makes failover transparent whether
//! the victim was dead or merely slow.
//!
//! Manual kills remain manual: the supervisor only recovers engines it
//! still believes alive, so a test (or operator) that fail-stops an engine
//! deliberately keeps control of when it comes back.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use tart_vtime::EngineId;

use crate::cluster::EngineHost;
use crate::config::SupervisionConfig;
use crate::router::SUPERVISOR_ENGINE;
use crate::{Envelope, Router};

/// Heartbeats remembered per engine for the inter-arrival estimate.
const DETECTOR_WINDOW: usize = 32;

/// Per-engine liveness estimator: phi-accrual over heartbeat inter-arrival
/// times, plus a hard timeout bound.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    /// Recent inter-arrival gaps, newest last.
    window: VecDeque<Duration>,
    last_beat: Instant,
    heartbeat_interval: Duration,
}

impl FailureDetector {
    /// A fresh detector that treats `now` as the first beacon (granting a
    /// full grace period before any suspicion).
    pub fn new(heartbeat_interval: Duration, now: Instant) -> Self {
        FailureDetector {
            window: VecDeque::with_capacity(DETECTOR_WINDOW),
            last_beat: now,
            heartbeat_interval,
        }
    }

    /// Records a beacon arrival.
    pub fn heartbeat(&mut self, now: Instant) {
        let gap = now.saturating_duration_since(self.last_beat);
        if self.window.len() == DETECTOR_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(gap);
        self.last_beat = now;
    }

    /// Forgets history, treating `now` as a fresh first beacon — called
    /// after a failover (new incarnation) or while an engine is
    /// deliberately down.
    pub fn reset(&mut self, now: Instant) {
        self.window.clear();
        self.last_beat = now;
    }

    /// The phi-accrual suspicion score at `now`: `-log10` of the
    /// probability that a live engine would still be silent after this
    /// long, under an exponential inter-arrival model fitted to the
    /// observed mean. Grows without bound as silence stretches.
    pub fn phi(&self, now: Instant) -> f64 {
        let elapsed = now.saturating_duration_since(self.last_beat);
        // Until the window fills, fall back to the configured interval;
        // clamp the mean so bursts of queued beacons (tiny observed gaps)
        // cannot make the detector hair-triggered.
        let mean = if self.window.is_empty() {
            self.heartbeat_interval
        } else {
            self.window.iter().sum::<Duration>() / self.window.len() as u32
        };
        let mean = mean.max(self.heartbeat_interval / 2).as_secs_f64();
        elapsed.as_secs_f64() / mean.max(1e-9) * std::f64::consts::LOG10_E
    }

    /// Whether the engine should be declared failed at `now` under `cfg`.
    pub fn suspect(&self, now: Instant, cfg: &SupervisionConfig) -> bool {
        let elapsed = now.saturating_duration_since(self.last_beat);
        if elapsed >= cfg.suspicion_timeout {
            return true;
        }
        match cfg.phi_threshold {
            // Never suspect inside one beacon period, whatever phi says.
            Some(threshold) => elapsed > cfg.heartbeat_interval && self.phi(now) > threshold,
            None => false,
        }
    }
}

/// Counters exposed by the liveness supervisor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisionMetrics {
    /// Heartbeat beacons received.
    pub heartbeats_seen: u64,
    /// Engines declared failed by the detector.
    pub suspicions: u64,
    /// Automatic kill → promote drills completed.
    pub failovers: u64,
}

/// The supervisor thread handle: owns the failure detectors and drives
/// automatic failover through the shared [`EngineHost`].
pub(crate) struct Supervisor {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    metrics: Arc<Mutex<SupervisionMetrics>>,
    router: Router,
}

impl Supervisor {
    /// Registers the supervisor inbox and starts the detector loop.
    pub(crate) fn start(host: Arc<EngineHost>, cfg: SupervisionConfig) -> Supervisor {
        let (tx, rx) = unbounded::<Envelope>();
        host.router.register(SUPERVISOR_ENGINE, tx);
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Mutex::new(SupervisionMetrics::default()));
        let router = host.router.clone();
        let stop_thread = Arc::clone(&stop);
        let metrics_thread = Arc::clone(&metrics);
        let thread = std::thread::Builder::new()
            .name("tart-supervisor".into())
            .spawn(move || {
                let start = Instant::now();
                let mut detectors: HashMap<EngineId, FailureDetector> = host
                    .engine_ids()
                    .into_iter()
                    .map(|id| (id, FailureDetector::new(cfg.heartbeat_interval, start)))
                    .collect();
                while !stop_thread.load(Ordering::Relaxed) {
                    // Collect every beacon already queued before judging.
                    let mut beacons = Vec::new();
                    match rx.recv_timeout(cfg.poll_interval) {
                        Ok(env) => beacons.push(env),
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                    }
                    beacons.extend(rx.try_iter());
                    let now = Instant::now();
                    for env in beacons {
                        if let Envelope::Heartbeat { engine, .. } = env {
                            metrics_thread.lock().heartbeats_seen += 1;
                            detectors
                                .entry(engine)
                                .or_insert_with(|| {
                                    FailureDetector::new(cfg.heartbeat_interval, now)
                                })
                                .heartbeat(now);
                        }
                    }
                    for id in host.engine_ids() {
                        let now = Instant::now();
                        let suspected = {
                            let det = detectors.entry(id).or_insert_with(|| {
                                FailureDetector::new(cfg.heartbeat_interval, now)
                            });
                            if !host.is_alive(id) {
                                // Deliberately killed: recovery stays
                                // manual. Keep the detector fresh so a
                                // later promote is not instantly
                                // re-suspected.
                                det.reset(now);
                                continue;
                            }
                            det.suspect(now, &cfg)
                        };
                        if suspected {
                            metrics_thread.lock().suspicions += 1;
                            host.kill(id);
                            match host.promote(id) {
                                Ok(()) => {
                                    // The promotion just appended its
                                    // event; dump the timeline that led to
                                    // it while it is hot.
                                    crate::cluster::dump_flight(
                                        &host.obs,
                                        &format!("supervisor promoted {id}"),
                                    );
                                    metrics_thread.lock().failovers += 1;
                                }
                                Err(err) => {
                                    // Nothing restorable (or a racing
                                    // promotion): leave the engine dead
                                    // rather than thrash. The drill did not
                                    // complete, so `failovers` stays put.
                                    crate::cluster::dump_flight(
                                        &host.obs,
                                        &format!("supervisor promotion of {id} failed: {err}"),
                                    );
                                }
                            }
                            // Flapping guard: the kill → promote drill
                            // blocked this loop, so EVERY detector's view
                            // of "recent silence" is stale — not just the
                            // promoted engine's. Reset them all, or the
                            // next poll cascades one recovery into a storm
                            // of spurious failovers.
                            let fresh = Instant::now();
                            for det in detectors.values_mut() {
                                det.reset(fresh);
                            }
                        }
                    }
                }
            })
            .expect("spawn supervisor thread");
        Supervisor {
            stop,
            thread: Some(thread),
            metrics,
            router,
        }
    }

    /// A snapshot of the counters.
    pub(crate) fn metrics(&self) -> SupervisionMetrics {
        self.metrics.lock().clone()
    }

    /// The shared counters (live view, for the chaos driver).
    pub(crate) fn metrics_handle(&self) -> Arc<Mutex<SupervisionMetrics>> {
        Arc::clone(&self.metrics)
    }

    /// Stops the detector loop and joins the thread.
    pub(crate) fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.router.deregister(SUPERVISOR_ENGINE);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisionConfig {
        SupervisionConfig {
            heartbeat_interval: Duration::from_millis(10),
            suspicion_timeout: Duration::from_millis(100),
            phi_threshold: Some(8.0),
            poll_interval: Duration::from_millis(5),
        }
    }

    #[test]
    fn regular_beacons_are_never_suspected() {
        let cfg = cfg();
        let t0 = Instant::now();
        let mut det = FailureDetector::new(cfg.heartbeat_interval, t0);
        let mut now = t0;
        for _ in 0..50 {
            now += Duration::from_millis(10);
            det.heartbeat(now);
            assert!(!det.suspect(now + Duration::from_millis(1), &cfg));
        }
        assert!(det.phi(now + Duration::from_millis(10)) < 1.0);
    }

    #[test]
    fn silence_crosses_phi_before_hard_timeout() {
        let cfg = cfg();
        let t0 = Instant::now();
        let mut det = FailureDetector::new(cfg.heartbeat_interval, t0);
        let mut now = t0;
        for _ in 0..20 {
            now += Duration::from_millis(10);
            det.heartbeat(now);
        }
        // phi > 8 at roughly 8 / log10(e) * mean ≈ 184 ms of silence — but
        // the 100 ms hard timeout fires first with this config; with the
        // hard bound lifted, phi alone still convicts.
        let lenient = SupervisionConfig {
            suspicion_timeout: Duration::from_secs(3600),
            ..cfg.clone()
        };
        assert!(!det.suspect(now + Duration::from_millis(50), &lenient));
        assert!(det.suspect(now + Duration::from_millis(250), &lenient));
        // Hard timeout convicts even with phi disabled.
        let timeout_only = SupervisionConfig {
            phi_threshold: None,
            ..cfg
        };
        assert!(!det.suspect(now + Duration::from_millis(50), &timeout_only));
        assert!(det.suspect(now + Duration::from_millis(150), &timeout_only));
    }

    #[test]
    fn burst_arrivals_do_not_hair_trigger() {
        let cfg = cfg();
        let t0 = Instant::now();
        let mut det = FailureDetector::new(cfg.heartbeat_interval, t0);
        // 32 beacons delivered in the same instant (queued burst): the mean
        // clamp keeps one beacon period of silence unsuspicious.
        for _ in 0..32 {
            det.heartbeat(t0);
        }
        assert!(!det.suspect(t0 + Duration::from_millis(11), &cfg));
    }

    #[test]
    fn reset_grants_a_fresh_grace_period() {
        let cfg = cfg();
        let t0 = Instant::now();
        let mut det = FailureDetector::new(cfg.heartbeat_interval, t0);
        let late = t0 + Duration::from_millis(500);
        assert!(det.suspect(late, &cfg));
        det.reset(late);
        assert!(!det.suspect(late + Duration::from_millis(5), &cfg));
    }
}
