//! TART observability: telemetry *about* the deterministic core, never
//! state *inside* it.
//!
//! The paper's evaluation (§II.H, §IV) is phrased in quantities the engine
//! historically could not report: how long each message sat
//! released-but-blocked on silence (pessimism delay), how many silence
//! adverts each wire carried, how far the estimator's prediction was from
//! the measured handler cost, and what actually happened — in order — when
//! a replica was promoted. `tart-obs` provides those as:
//!
//! * a **metrics registry** ([`ObsHub`]): atomic counters plus fixed-bucket
//!   [`Histogram`]s, cheap enough for the delivery hot path;
//! * a **flight recorder** ([`FlightRecorder`]): a bounded ring of
//!   structured [`ObsEvent`]s dumped as JSON on panic, on crash drills and
//!   on failover promotions;
//! * a **snapshot export** ([`ObsSnapshot`]): the canonical
//!   `obs-report.json` consumed by the `observability-gate` CI job via
//!   `tart-obs --check-report`.
//!
//! # Determinism contract
//!
//! This crate is **Ops tier** in the lint manifest: it reads the wall clock
//! (that is its purpose) behind two annotated sites, and nothing in it may
//! ever flow back into checkpointed component state, virtual time, or any
//! replayed decision. The engine core only calls opaque recording methods
//! on [`EngineObs`]; a detached hub (the default in unit tests) records
//! into private state and changes nothing observable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tart_vtime::{ComponentId, EngineId, VirtualTime, WireId};

pub mod hist;
pub mod json;
pub mod recorder;
pub mod snapshot;

pub use hist::{Histogram, LAST_BUCKET, NUM_BUCKETS};
pub use recorder::{FlightRecorder, ObsEvent, ObsEventKind};
pub use snapshot::{check_report, ObsSnapshot, ReportRequirements, SNAPSHOT_VERSION};

/// Flight-recorder capacity: enough for the full timeline of a CI soak,
/// bounded against unbounded growth in long benches.
const RECORDER_CAP: usize = 4096;

/// Cap on outstanding arrival stamps per (engine, wire): a wire that never
/// delivers (severed, or a baseline-mode path that bypasses the gate) must
/// not grow the map without bound.
const PENDING_CAP: usize = 8192;

/// Engine id used for cluster-level events recorded outside any engine.
const NO_ENGINE: u32 = u32::MAX;

#[derive(Default)]
struct Counters {
    delivered: AtomicU64,
    silence_adverts: AtomicU64,
    probes: AtomicU64,
    replay_requests: AtomicU64,
    failovers: AtomicU64,
    recalibrations: AtomicU64,
    wal_syncs: AtomicU64,
    checkpoint_persists: AtomicU64,
    state_hashes_computed: AtomicU64,
    divergences_detected: AtomicU64,
    standby_applied: AtomicU64,
    standby_demotions: AtomicU64,
    warm_promotions: AtomicU64,
    cold_promotions: AtomicU64,
}

#[derive(Default)]
struct Inner {
    wal_group_occupancy: Histogram,
    wal_fsync_strict_ns: Histogram,
    wal_fsync_buffered_ns: Histogram,
    checkpoint_persist_ns: Histogram,
    standby_lag_ticks: Histogram,
    promotion_latency_ns: Histogram,
}

/// Hot-path recording state, sharded per engine so the per-delivery path
/// (arrival stamp, pessimism match, timeline event, residual) takes one
/// mutex that only its own engine thread contends on. The cluster-wide
/// `Inner` mutex is reserved for cold paths (WAL, checkpoints, standby).
#[derive(Default)]
struct Shard {
    pessimism_wait_ns: Histogram,
    estimator_residual_ns: Histogram,
    silence_per_wire: BTreeMap<u32, u64>,
    /// wire → vt ticks → arrival stamp (ns since hub epoch).
    pending: BTreeMap<u32, BTreeMap<u64, u64>>,
    /// Per-engine slice of the flight-recorder timeline, bounded at
    /// [`RECORDER_CAP`] events like the cluster-level ring.
    events: std::collections::VecDeque<ObsEvent>,
    events_dropped: u64,
}

impl Shard {
    fn push_event(&mut self, event: ObsEvent) {
        if self.events.len() == RECORDER_CAP {
            self.events.pop_front();
            self.events_dropped = self.events_dropped.saturating_add(1);
        }
        self.events.push_back(event);
    }
}

/// The shared metrics registry + flight recorder. One hub serves a whole
/// cluster; engines record through per-engine [`EngineObs`] handles.
pub struct ObsHub {
    epoch: Instant,
    counters: Counters,
    inner: Mutex<Inner>,
    shards: Mutex<Vec<(u32, Arc<Mutex<Shard>>)>>,
    recorder: FlightRecorder,
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub::new()
    }
}

impl ObsHub {
    /// A fresh hub. The creation instant becomes the zero point for every
    /// event stamp.
    #[allow(clippy::disallowed_methods)]
    pub fn new() -> Self {
        ObsHub {
            epoch: Instant::now(),
            counters: Counters::default(),
            inner: Mutex::new(Inner::default()),
            shards: Mutex::new(Vec::new()),
            recorder: FlightRecorder::new(RECORDER_CAP),
        }
    }

    /// Nanoseconds since the hub was created.
    #[allow(clippy::disallowed_methods)]
    fn now_ns(&self) -> u64 {
        let elapsed = Instant::now().saturating_duration_since(self.epoch);
        u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
    }

    /// A recording handle bound to one engine. Handles for the same engine
    /// id share one hot-path shard.
    pub fn engine(self: &Arc<Self>, id: EngineId) -> EngineObs {
        let shard = {
            let mut shards = self.shards.lock().expect("obs shards poisoned");
            match shards.iter().find(|(e, _)| *e == id.raw()) {
                Some((_, shard)) => Arc::clone(shard),
                None => {
                    let shard = Arc::new(Mutex::new(Shard::default()));
                    shards.push((id.raw(), Arc::clone(&shard)));
                    shard
                }
            }
        };
        EngineObs {
            hub: Arc::clone(self),
            engine: id.raw(),
            shard,
        }
    }

    /// The full timeline — cluster-level ring plus every engine shard's
    /// slice — merged in stamp order, with the total evicted-event count.
    fn merged_events(&self) -> (Vec<ObsEvent>, u64) {
        let mut events = self.recorder.events();
        let mut dropped = self.recorder.dropped();
        for (_, shard) in self.shards.lock().expect("obs shards poisoned").iter() {
            let shard = shard.lock().expect("obs shard poisoned");
            events.extend(shard.events.iter().cloned());
            dropped = dropped.saturating_add(shard.events_dropped);
        }
        events.sort_by_key(|e| e.at_ns);
        (events, dropped)
    }

    fn push_event(&self, engine: u32, kind: ObsEventKind) {
        self.recorder.push(ObsEvent {
            at_ns: self.now_ns(),
            engine,
            kind,
        });
    }

    /// Records a replica promotion (supervisor- or operator-driven).
    pub fn failover(&self, engine: EngineId) {
        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        self.push_event(engine.raw(), ObsEventKind::FailoverPromotion);
    }

    /// Records one checkpoint the warm standby pre-applied (and hash-
    /// verified) in the background, with its replication lag behind the
    /// primary's head in virtual-time ticks.
    pub fn standby_applied(&self, lag_ticks: u64) {
        self.counters
            .standby_applied
            .fetch_add(1, Ordering::Relaxed);
        let mut inner = self.lock();
        inner.standby_lag_ticks.record(lag_ticks);
    }

    /// Records a warm standby demoting itself to cold-replay mode after a
    /// streamed checkpoint failed hash verification at `vt`.
    pub fn standby_demotion(&self, engine: EngineId, vt: VirtualTime) {
        self.counters
            .standby_demotions
            .fetch_add(1, Ordering::Relaxed);
        self.push_event(
            engine.raw(),
            ObsEventKind::StandbyDemotion { vt: vt.as_ticks() },
        );
    }

    /// Records a completed promotion: `warm` when it started from the
    /// standby's pre-applied state, with its wall latency.
    pub fn promotion_complete(&self, engine: EngineId, warm: bool, latency_ns: u64) {
        let counter = if warm {
            &self.counters.warm_promotions
        } else {
            &self.counters.cold_promotions
        };
        counter.fetch_add(1, Ordering::Relaxed);
        {
            let mut inner = self.lock();
            inner.promotion_latency_ns.record(latency_ns);
        }
        self.push_event(
            engine.raw(),
            ObsEventKind::PromotionComplete { warm, latency_ns },
        );
    }

    /// Records one WAL group-commit window closing with `occupancy`
    /// records in it.
    pub fn wal_group_commit(&self, occupancy: u64) {
        self.counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.lock();
        inner.wal_group_occupancy.record(occupancy);
    }

    /// Records one WAL fsync's wall latency, split by durability lane:
    /// `strict` when a Strict-tier append forced the window closed,
    /// buffered otherwise (flush-window deadlines, record caps, legacy
    /// policies). The benchmark's `wal.fsync_buffered_p50_us` row reads the
    /// buffered one.
    pub fn wal_fsync_ns(&self, strict: bool, ns: u64) {
        let mut inner = self.lock();
        if strict {
            inner.wal_fsync_strict_ns.record(ns);
        } else {
            inner.wal_fsync_buffered_ns.record(ns);
        }
    }

    /// Records `n` deterministic state hashes computed by verified replay
    /// (per-component digests plus the combined engine digest).
    pub fn state_hashes_computed(&self, n: u64) {
        self.counters
            .state_hashes_computed
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records a detected state divergence: a recomputed state hash that
    /// did not match the digest recorded at checkpoint time. `component`
    /// is `None` when engine-level bookkeeping (not any one component's
    /// state) diverged.
    pub fn divergence(&self, engine: EngineId, component: Option<ComponentId>, vt: VirtualTime) {
        self.counters
            .divergences_detected
            .fetch_add(1, Ordering::Relaxed);
        self.push_event(
            engine.raw(),
            ObsEventKind::Divergence {
                component: component.map_or(u32::MAX, |c| c.raw()),
                vt: vt.as_ticks(),
            },
        );
    }

    /// Records one durable checkpoint persist and its wall latency.
    pub fn checkpoint_persisted(&self, elapsed_ns: u64) {
        self.counters
            .checkpoint_persists
            .fetch_add(1, Ordering::Relaxed);
        let mut inner = self.lock();
        inner.checkpoint_persist_ns.record(elapsed_ns);
    }

    /// The flight-recorder dump (`{"events_dropped":…,"events":[…]}`),
    /// emitted on panics, crash drills and promotions.
    pub fn dump_events_json(&self) -> String {
        self.dump_events_json_tail(usize::MAX)
    }

    /// Like [`ObsHub::dump_events_json`] but bounded to the newest `limit`
    /// events (older ones fold into the dump's `events_dropped`).
    pub fn dump_events_json_tail(&self, limit: usize) -> String {
        let (events, dropped) = self.merged_events();
        recorder::render_dump(&events, dropped, limit)
    }

    /// Copies every metric and the event timeline into an [`ObsSnapshot`].
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut pessimism_wait_ns = Histogram::new();
        let mut estimator_residual_ns = Histogram::new();
        let mut silence_per_wire: BTreeMap<u32, u64> = BTreeMap::new();
        for (_, shard) in self.shards.lock().expect("obs shards poisoned").iter() {
            let shard = shard.lock().expect("obs shard poisoned");
            pessimism_wait_ns.merge(&shard.pessimism_wait_ns);
            estimator_residual_ns.merge(&shard.estimator_residual_ns);
            for (wire, n) in &shard.silence_per_wire {
                *silence_per_wire.entry(*wire).or_insert(0) += n;
            }
        }
        let (events, events_dropped) = self.merged_events();
        let inner = self.lock();
        ObsSnapshot {
            version: SNAPSHOT_VERSION,
            delivered: self.counters.delivered.load(Ordering::Relaxed),
            silence_adverts: self.counters.silence_adverts.load(Ordering::Relaxed),
            probes: self.counters.probes.load(Ordering::Relaxed),
            replay_requests: self.counters.replay_requests.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            recalibrations: self.counters.recalibrations.load(Ordering::Relaxed),
            wal_syncs: self.counters.wal_syncs.load(Ordering::Relaxed),
            checkpoint_persists: self.counters.checkpoint_persists.load(Ordering::Relaxed),
            state_hashes_computed: self.counters.state_hashes_computed.load(Ordering::Relaxed),
            divergences_detected: self.counters.divergences_detected.load(Ordering::Relaxed),
            standby_applied: self.counters.standby_applied.load(Ordering::Relaxed),
            standby_demotions: self.counters.standby_demotions.load(Ordering::Relaxed),
            warm_promotions: self.counters.warm_promotions.load(Ordering::Relaxed),
            cold_promotions: self.counters.cold_promotions.load(Ordering::Relaxed),
            events_dropped,
            pessimism_wait_ns,
            estimator_residual_ns,
            wal_group_occupancy: inner.wal_group_occupancy.clone(),
            wal_fsync_strict_ns: inner.wal_fsync_strict_ns.clone(),
            wal_fsync_buffered_ns: inner.wal_fsync_buffered_ns.clone(),
            checkpoint_persist_ns: inner.checkpoint_persist_ns.clone(),
            standby_lag_ticks: inner.standby_lag_ticks.clone(),
            promotion_latency_ns: inner.promotion_latency_ns.clone(),
            silence_per_wire,
            events,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("obs hub poisoned")
    }
}

/// Per-engine recording handle: a cheap `Arc` wrapper the engine core calls
/// through. Every method is opaque to the core — no wall-clock value ever
/// crosses back over this boundary.
#[derive(Clone)]
pub struct EngineObs {
    hub: Arc<ObsHub>,
    engine: u32,
    /// This engine's hot-path shard: the per-delivery recording path locks
    /// only this, never the cluster-wide hub mutex.
    shard: Arc<Mutex<Shard>>,
}

impl EngineObs {
    /// A handle recording into its own private hub. Used as the default in
    /// directly-constructed engines (unit tests) so recording is always
    /// safe; a cluster replaces it via `EngineCore::set_obs`.
    pub fn detached(id: EngineId) -> EngineObs {
        Arc::new(ObsHub::new()).engine(id)
    }

    /// The hub this handle records into.
    pub fn hub(&self) -> &Arc<ObsHub> {
        &self.hub
    }

    fn shard_lock(&self) -> std::sync::MutexGuard<'_, Shard> {
        self.shard.lock().expect("obs shard poisoned")
    }

    /// Stamps a message's arrival at the pessimistic gate. The stamp is
    /// matched (by wire and vt) when the message is delivered; the
    /// difference is its pessimism wait.
    pub fn message_arrived(&self, wire: WireId, vt: VirtualTime) {
        let now = self.hub.now_ns();
        let mut shard = self.shard_lock();
        let pending = shard.pending.entry(wire.raw()).or_default();
        if pending.len() >= PENDING_CAP {
            pending.pop_first();
        }
        pending.insert(vt.as_ticks(), now);
    }

    /// Records a delivery: counts it, appends a timeline event, and — when
    /// the arrival was stamped — records the pessimism wait.
    pub fn message_delivered(&self, wire: WireId, vt: VirtualTime) {
        self.hub.counters.delivered.fetch_add(1, Ordering::Relaxed);
        let now = self.hub.now_ns();
        let mut shard = self.shard_lock();
        if let Some(arrived) = shard
            .pending
            .get_mut(&wire.raw())
            .and_then(|p| p.remove(&vt.as_ticks()))
        {
            let wait = now.saturating_sub(arrived);
            shard.pessimism_wait_ns.record(wait);
        }
        shard.push_event(ObsEvent {
            at_ns: now,
            engine: self.engine,
            kind: ObsEventKind::Delivery {
                wire: wire.raw(),
                vt: vt.as_ticks(),
            },
        });
    }

    /// Records a silence advert for `wire` advancing its watermark
    /// `through` the given virtual time.
    pub fn silence_sent(&self, wire: WireId, through: VirtualTime) {
        self.hub
            .counters
            .silence_adverts
            .fetch_add(1, Ordering::Relaxed);
        let now = self.hub.now_ns();
        let mut shard = self.shard_lock();
        *shard.silence_per_wire.entry(wire.raw()).or_insert(0) += 1;
        shard.push_event(ObsEvent {
            at_ns: now,
            engine: self.engine,
            kind: ObsEventKind::SilenceAdvance {
                wire: wire.raw(),
                through: through.as_ticks(),
            },
        });
    }

    /// Records a curiosity probe asking for silence through `needed`.
    pub fn probe_sent(&self, wire: WireId, needed: VirtualTime) {
        self.hub.counters.probes.fetch_add(1, Ordering::Relaxed);
        let now = self.hub.now_ns();
        self.shard_lock().push_event(ObsEvent {
            at_ns: now,
            engine: self.engine,
            kind: ObsEventKind::Probe {
                wire: wire.raw(),
                needed: needed.as_ticks(),
            },
        });
    }

    /// Records a replay request for the gap starting after `from`.
    pub fn replay_requested(&self, wire: WireId, from: VirtualTime) {
        self.hub
            .counters
            .replay_requests
            .fetch_add(1, Ordering::Relaxed);
        let now = self.hub.now_ns();
        self.shard_lock().push_event(ObsEvent {
            at_ns: now,
            engine: self.engine,
            kind: ObsEventKind::ReplayRequest {
                wire: wire.raw(),
                from: from.as_ticks(),
            },
        });
    }

    /// Records the estimator residual for one handler run: the estimate in
    /// vt ticks (≡ ns) against the measured wall cost in ns.
    pub fn estimator_residual(&self, estimated_ns: u64, measured_ns: u64) {
        self.shard_lock()
            .estimator_residual_ns
            .record(estimated_ns.abs_diff(measured_ns));
    }

    /// Records `n` deterministic state hashes computed on this engine.
    pub fn state_hashes_computed(&self, n: u64) {
        self.hub.state_hashes_computed(n);
    }

    /// Records a detected state divergence on this engine (see
    /// [`ObsHub::divergence`]).
    pub fn divergence(&self, component: Option<ComponentId>, vt: VirtualTime) {
        self.hub
            .divergence(EngineId::new(self.engine), component, vt);
    }

    /// Records a determinism fault: a recalibrated estimator scheduled for
    /// `component` effective at `vt`.
    pub fn recalibration(&self, component: ComponentId, vt: VirtualTime) {
        self.hub
            .counters
            .recalibrations
            .fetch_add(1, Ordering::Relaxed);
        self.hub.push_event(
            self.engine,
            ObsEventKind::RecalibrationFault {
                component: component.raw(),
                vt: vt.as_ticks(),
            },
        );
    }
}

/// Records an event not attributable to any engine (reserved for future
/// cluster-level timeline entries).
pub fn cluster_event(hub: &ObsHub, kind: ObsEventKind) {
    hub.push_event(NO_ENGINE, kind);
}

/// Where `obs-report.json` goes: `$TART_OBS_REPORT` when set, otherwise
/// `obs-report.json` in the current directory.
pub fn report_path() -> PathBuf {
    std::env::var_os("TART_OBS_REPORT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("obs-report.json"))
}

/// Writes the canonical JSON report to [`report_path`] and returns the
/// path written.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_report(snapshot: &ObsSnapshot) -> std::io::Result<PathBuf> {
    let path = report_path();
    let mut body = snapshot.to_json();
    body.push('\n');
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(n: u32) -> WireId {
        WireId::new(n)
    }

    #[test]
    fn pessimism_wait_is_measured_between_arrival_and_delivery() {
        let hub = Arc::new(ObsHub::new());
        let obs = hub.engine(EngineId::new(0));
        obs.message_arrived(wire(1), VirtualTime::from_ticks(100));
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.message_delivered(wire(1), VirtualTime::from_ticks(100));
        let snap = hub.snapshot();
        assert_eq!(snap.delivered, 1);
        assert_eq!(snap.pessimism_wait_ns.count(), 1);
        assert!(
            snap.pessimism_wait_ns.max() >= 1_000_000,
            "a 2ms hold must register at least 1ms of wait, got {}ns",
            snap.pessimism_wait_ns.max()
        );
    }

    #[test]
    fn unstamped_delivery_still_counts() {
        let hub = Arc::new(ObsHub::new());
        let obs = hub.engine(EngineId::new(0));
        obs.message_delivered(wire(9), VirtualTime::from_ticks(5));
        let snap = hub.snapshot();
        assert_eq!(snap.delivered, 1);
        assert_eq!(snap.pessimism_wait_ns.count(), 0);
    }

    #[test]
    fn per_wire_silence_totals_accumulate() {
        let hub = Arc::new(ObsHub::new());
        let obs = hub.engine(EngineId::new(1));
        obs.silence_sent(wire(0), VirtualTime::from_ticks(10));
        obs.silence_sent(wire(0), VirtualTime::from_ticks(20));
        obs.silence_sent(wire(3), VirtualTime::from_ticks(20));
        let snap = hub.snapshot();
        assert_eq!(snap.silence_adverts, 3);
        assert_eq!(snap.silence_per_wire.get(&0), Some(&2));
        assert_eq!(snap.silence_per_wire.get(&3), Some(&1));
    }

    #[test]
    fn pending_stamps_are_bounded() {
        let hub = Arc::new(ObsHub::new());
        let obs = hub.engine(EngineId::new(0));
        for vt in 0..(PENDING_CAP as u64 + 10) {
            obs.message_arrived(wire(0), VirtualTime::from_ticks(vt));
        }
        let shard = obs.shard_lock();
        assert_eq!(shard.pending[&0].len(), PENDING_CAP);
    }

    #[test]
    fn snapshot_round_trips_through_codec_and_json() {
        let hub = Arc::new(ObsHub::new());
        let obs = hub.engine(EngineId::new(2));
        obs.message_arrived(wire(1), VirtualTime::from_ticks(7));
        obs.message_delivered(wire(1), VirtualTime::from_ticks(7));
        obs.probe_sent(wire(1), VirtualTime::from_ticks(9));
        obs.replay_requested(wire(1), VirtualTime::from_ticks(0));
        obs.recalibration(ComponentId::new(4), VirtualTime::from_ticks(11));
        hub.failover(EngineId::new(2));
        hub.wal_group_commit(64);
        hub.checkpoint_persisted(5_000);
        let snap = hub.snapshot();
        use tart_codec::{Decode, Encode};
        let bytes = snap.to_bytes();
        let back = ObsSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(
            check_report(&snap.to_json(), ReportRequirements::default()),
            Ok(())
        );
    }

    #[test]
    fn dump_contains_failover_timeline() {
        let hub = Arc::new(ObsHub::new());
        hub.failover(EngineId::new(1));
        let dump = hub.dump_events_json();
        assert!(dump.contains("failover_promotion"), "{dump}");
    }
}
