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
//! * a **metrics registry** ([`ObsHub`]): counters plus fixed-bucket
//!   [`Histogram`]s, sharded per engine so the delivery hot path takes one
//!   uncontended lock;
//! * a **flight recorder**: each shard's bounded ring of structured
//!   [`ObsEvent`]s, dumped as JSON on panic, on crash drills and on failover
//!   promotions;
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

use std::collections::{BTreeMap, VecDeque};
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
pub use recorder::{ObsEvent, ObsEventKind};
pub use snapshot::{check_report, ObsSnapshot, ReportRequirements, SNAPSHOT_VERSION};

/// Flight-recorder capacity of each shard's ring: enough for the full
/// timeline of a CI soak, bounded against unbounded growth in long benches.
const RECORDER_CAP: usize = 4096;

/// Cap on outstanding arrival stamps per (engine, wire): a wire that never
/// delivers (severed, or a baseline-mode path that bypasses the gate) must
/// not grow the map without bound.
const PENDING_CAP: usize = 8192;

/// Shard id of cluster-level events recorded outside any engine thread
/// (promotions, standby demotions, divergences).
const NO_ENGINE: u32 = u32::MAX;

/// Cluster-plane counters: recorded by the WAL, the checkpoint store, the
/// standby plane and the promotion path, never by an engine's hot path.
#[derive(Default)]
struct Counters {
    failovers: AtomicU64,
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

/// Everything one engine records, keyed by engine id and cumulative across
/// its incarnations: a promoted replica (and a warm standby's passive core)
/// records into the same shard. The per-delivery path (counter, arrival
/// stamp, pessimism match, timeline event, residual) takes this one mutex,
/// which only its own engine thread contends on. The cluster-wide `Inner`
/// mutex is reserved for cold paths (WAL, checkpoint persists, standby).
#[derive(Default)]
struct Shard {
    delivered: u64,
    silence_adverts: u64,
    probes: u64,
    replay_requests: u64,
    recalibrations: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    pessimism_wait_ns: Histogram,
    estimator_residual_ns: Histogram,
    silence_per_wire: BTreeMap<u32, u64>,
    /// wire → vt ticks → arrival stamp (ns since hub epoch).
    pending: BTreeMap<u32, BTreeMap<u64, u64>>,
    /// This shard's flight-recorder ring, bounded at [`RECORDER_CAP`].
    events: VecDeque<ObsEvent>,
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

    /// Adds this shard's counters, histograms and timeline into `snap`.
    fn add_to(&self, snap: &mut ObsSnapshot) {
        snap.delivered += self.delivered;
        snap.silence_adverts += self.silence_adverts;
        snap.probes += self.probes;
        snap.replay_requests += self.replay_requests;
        snap.recalibrations += self.recalibrations;
        snap.checkpoints += self.checkpoints;
        snap.checkpoint_bytes += self.checkpoint_bytes;
        snap.events_dropped += self.events_dropped;
        snap.pessimism_wait_ns.merge(&self.pessimism_wait_ns);
        snap.estimator_residual_ns
            .merge(&self.estimator_residual_ns);
        for (wire, n) in &self.silence_per_wire {
            *snap.silence_per_wire.entry(*wire).or_insert(0) += n;
        }
        snap.events.extend(self.events.iter().cloned());
    }
}

/// The shared metrics registry and flight recorder. One hub serves a whole
/// cluster; engines record through per-engine [`EngineObs`] handles.
pub struct ObsHub {
    epoch: Instant,
    counters: Counters,
    inner: Mutex<Inner>,
    shards: Mutex<Vec<(u32, Arc<Mutex<Shard>>)>>,
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub::new()
    }
}

impl ObsHub {
    /// A fresh hub. The creation instant becomes the zero point for every
    /// event stamp.
    pub fn new() -> Self {
        ObsHub {
            epoch: Instant::now(),
            counters: Counters::default(),
            inner: Mutex::new(Inner::default()),
            shards: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the hub was created.
    fn now_ns(&self) -> u64 {
        let elapsed = Instant::now().saturating_duration_since(self.epoch);
        u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
    }

    /// The shard for `engine`, created on first use.
    fn shard(&self, engine: u32) -> Arc<Mutex<Shard>> {
        let mut shards = self.shards.lock().expect("obs shards poisoned");
        if let Some((_, shard)) = shards.iter().find(|(e, _)| *e == engine) {
            return Arc::clone(shard);
        }
        let shard = Arc::new(Mutex::new(Shard::default()));
        shards.push((engine, Arc::clone(&shard)));
        shard
    }

    /// A recording handle bound to one engine. Handles for the same engine
    /// id share one shard.
    pub fn engine(self: &Arc<Self>, id: EngineId) -> EngineObs {
        EngineObs {
            hub: Arc::clone(self),
            engine: id.raw(),
            shard: self.shard(id.raw()),
        }
    }

    /// Appends a cluster-level event about `engine` to the [`NO_ENGINE`]
    /// shard's ring.
    fn push_event(&self, engine: u32, kind: ObsEventKind) {
        let event = ObsEvent {
            at_ns: self.now_ns(),
            engine,
            kind,
        };
        let shard = self.shard(NO_ENGINE);
        shard.lock().expect("obs shard poisoned").push_event(event);
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
    /// buffered otherwise (flush-window deadlines, record caps, rotations,
    /// explicit syncs). The benchmark's `wal.fsync_buffered_p50_us` row reads the
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
        let snap = self.snapshot();
        render_dump(&snap.events, snap.events_dropped, limit)
    }

    /// Copies every metric and the event timeline into an [`ObsSnapshot`]:
    /// the cluster-plane counters plus the sum of every shard.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut snap = {
            let inner = self.lock();
            let c = &self.counters;
            ObsSnapshot {
                version: SNAPSHOT_VERSION,
                failovers: c.failovers.load(Ordering::Relaxed),
                wal_syncs: c.wal_syncs.load(Ordering::Relaxed),
                checkpoint_persists: c.checkpoint_persists.load(Ordering::Relaxed),
                state_hashes_computed: c.state_hashes_computed.load(Ordering::Relaxed),
                divergences_detected: c.divergences_detected.load(Ordering::Relaxed),
                standby_applied: c.standby_applied.load(Ordering::Relaxed),
                standby_demotions: c.standby_demotions.load(Ordering::Relaxed),
                warm_promotions: c.warm_promotions.load(Ordering::Relaxed),
                cold_promotions: c.cold_promotions.load(Ordering::Relaxed),
                wal_group_occupancy: inner.wal_group_occupancy.clone(),
                wal_fsync_strict_ns: inner.wal_fsync_strict_ns.clone(),
                wal_fsync_buffered_ns: inner.wal_fsync_buffered_ns.clone(),
                checkpoint_persist_ns: inner.checkpoint_persist_ns.clone(),
                standby_lag_ticks: inner.standby_lag_ticks.clone(),
                promotion_latency_ns: inner.promotion_latency_ns.clone(),
                ..ObsSnapshot::default()
            }
        };
        for (_, shard) in self.shards.lock().expect("obs shards poisoned").iter() {
            shard.lock().expect("obs shard poisoned").add_to(&mut snap);
        }
        snap.events.sort_by_key(|e| e.at_ns);
        snap
    }

    /// One engine's shard alone: what its handles recorded, across every
    /// incarnation. Cluster-plane counters read zero; [`ObsHub::snapshot`]
    /// is those plus the sum of every shard.
    pub fn engine_snapshot(&self, engine: EngineId) -> ObsSnapshot {
        let mut snap = ObsSnapshot {
            version: SNAPSHOT_VERSION,
            ..ObsSnapshot::default()
        };
        let shard = self.shard(engine.raw());
        shard.lock().expect("obs shard poisoned").add_to(&mut snap);
        snap
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

    /// Updates this engine's shard with `count` and appends `kind` to its
    /// ring, under one lock; `count` also gets the event's stamp.
    fn record(&self, kind: ObsEventKind, count: impl FnOnce(&mut Shard, u64)) {
        let at_ns = self.hub.now_ns();
        let mut shard = self.shard_lock();
        count(&mut shard, at_ns);
        shard.push_event(ObsEvent {
            at_ns,
            engine: self.engine,
            kind,
        });
    }

    /// Records a delivery: counts it, appends a timeline event, and — when
    /// the arrival was stamped — records the pessimism wait.
    pub fn message_delivered(&self, wire: WireId, vt: VirtualTime) {
        let (wire, vt) = (wire.raw(), vt.as_ticks());
        self.record(ObsEventKind::Delivery { wire, vt }, |shard, now| {
            shard.delivered += 1;
            if let Some(arrived) = shard.pending.get_mut(&wire).and_then(|p| p.remove(&vt)) {
                shard.pessimism_wait_ns.record(now.saturating_sub(arrived));
            }
        });
    }

    /// Records a silence advert for `wire` advancing its watermark
    /// `through` the given virtual time.
    pub fn silence_sent(&self, wire: WireId, through: VirtualTime) {
        let (wire, through) = (wire.raw(), through.as_ticks());
        self.record(
            ObsEventKind::SilenceAdvance { wire, through },
            |shard, _| {
                shard.silence_adverts += 1;
                *shard.silence_per_wire.entry(wire).or_insert(0) += 1;
            },
        );
    }

    /// Records a curiosity probe asking for silence through `needed`.
    pub fn probe_sent(&self, wire: WireId, needed: VirtualTime) {
        let kind = ObsEventKind::Probe {
            wire: wire.raw(),
            needed: needed.as_ticks(),
        };
        self.record(kind, |shard, _| shard.probes += 1);
    }

    /// Records a replay request for the gap starting after `from`.
    pub fn replay_requested(&self, wire: WireId, from: VirtualTime) {
        let kind = ObsEventKind::ReplayRequest {
            wire: wire.raw(),
            from: from.as_ticks(),
        };
        self.record(kind, |shard, _| shard.replay_requests += 1);
    }

    /// Records a determinism fault: a recalibrated estimator scheduled for
    /// `component` effective at `vt`.
    pub fn recalibration(&self, component: ComponentId, vt: VirtualTime) {
        let kind = ObsEventKind::RecalibrationFault {
            component: component.raw(),
            vt: vt.as_ticks(),
        };
        self.record(kind, |shard, _| shard.recalibrations += 1);
    }

    /// Records one checkpoint taken and shipped to the replica, `bytes`
    /// long once encoded.
    pub fn checkpoint_taken(&self, bytes: u64) {
        let mut shard = self.shard_lock();
        shard.checkpoints += 1;
        shard.checkpoint_bytes += bytes;
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
}

/// Renders an event timeline as the canonical dump object
/// (`{"events_dropped":…,"events":[…]}`), keeping only the newest `limit`
/// events and folding everything older into `events_dropped`.
fn render_dump(events: &[ObsEvent], dropped: u64, limit: usize) -> String {
    let skip = events.len().saturating_sub(limit);
    let mut w = json::JsonWriter::new();
    w.begin_obj();
    w.field_u64("events_dropped", dropped.saturating_add(skip as u64));
    w.key("events");
    w.begin_arr();
    for e in &events[skip..] {
        w.arr_item(|w| e.write_json(w));
    }
    w.end_arr();
    w.end_obj();
    w.finish()
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
    fn snapshot_sums_the_engine_shards() {
        let hub = Arc::new(ObsHub::new());
        let (a, b) = (hub.engine(EngineId::new(0)), hub.engine(EngineId::new(1)));
        a.message_delivered(wire(1), VirtualTime::from_ticks(1));
        b.message_delivered(wire(2), VirtualTime::from_ticks(1));
        b.checkpoint_taken(40);
        // A second handle for engine 1 — a promoted incarnation — shares
        // its shard.
        hub.engine(EngineId::new(1)).checkpoint_taken(60);
        hub.failover(EngineId::new(1));
        let one = hub.engine_snapshot(EngineId::new(1));
        assert_eq!(
            (one.delivered, one.checkpoints, one.checkpoint_bytes),
            (1, 2, 100)
        );
        assert_eq!(one.failovers, 0, "cluster-plane counters are not a shard's");
        let all = hub.snapshot();
        assert_eq!((all.delivered, all.checkpoints, all.failovers), (2, 2, 1));
    }

    /// Records `n` probes on engine 0, the `i`th needing tick `i`.
    fn probes(n: u64) -> Arc<ObsHub> {
        let hub = Arc::new(ObsHub::new());
        let obs = hub.engine(EngineId::new(0));
        for i in 0..n {
            obs.probe_sent(wire(1), VirtualTime::from_ticks(i));
        }
        hub
    }

    fn needed(event: &ObsEvent) -> u64 {
        match event.kind {
            ObsEventKind::Probe { needed, .. } => needed,
            _ => panic!("not a probe: {event:?}"),
        }
    }

    #[test]
    fn rings_evict_oldest_and_count_drops() {
        let snap = probes(RECORDER_CAP as u64 + 2).snapshot();
        assert_eq!(snap.events.len(), RECORDER_CAP);
        assert_eq!(needed(&snap.events[0]), 2, "the two oldest were evicted");
        assert_eq!(snap.events_dropped, 2);

        let hub = Arc::new(ObsHub::new());
        for _ in 0..RECORDER_CAP + 3 {
            hub.failover(EngineId::new(1));
        }
        let snap = hub.snapshot();
        assert_eq!((snap.events.len(), snap.events_dropped), (RECORDER_CAP, 3));
    }

    #[test]
    fn tail_dump_folds_older_events_into_the_drop_count() {
        let dump = probes(6).dump_events_json_tail(2);
        let parsed = json::parse(&dump).expect("valid json");
        let events = parsed.get("events").and_then(json::Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("needed").and_then(json::Json::as_u64),
            Some(4)
        );
        assert_eq!(
            parsed.get("events_dropped").and_then(json::Json::as_u64),
            Some(4),
            "the four skipped events count as dropped"
        );
    }

    #[test]
    fn dump_merges_engine_and_cluster_rings_in_stamp_order() {
        let hub = probes(1);
        hub.failover(EngineId::new(1));
        let parsed = json::parse(&hub.dump_events_json()).expect("valid json");
        let events = parsed.get("events").and_then(json::Json::as_arr).unwrap();
        let kinds: Vec<_> = events
            .iter()
            .map(|e| e.get("kind").and_then(json::Json::as_str))
            .collect();
        assert_eq!(kinds, [Some("probe"), Some("failover_promotion")]);
    }
}
