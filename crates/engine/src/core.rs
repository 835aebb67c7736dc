//! The single-threaded engine state machine.
//!
//! [`EngineCore`] owns everything one execution engine needs: its hosted
//! components, the deterministic input mux, retention buffers, silence
//! bookkeeping, recovery stashes and checkpoint machinery. It is *pure
//! state*: envelopes go in ([`EngineCore::handle`]), work gets done
//! ([`EngineCore::pump`]), envelopes go out through the [`Router`]. The
//! threaded wrapper in [`crate::Cluster`] is a thin loop around it, which is
//! what makes the recovery protocol unit-testable without threads.

use std::collections::BTreeMap;

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use tart_estimator::{Calibrator, DeterminismFault, EstimatorSchedule};
use tart_model::{AppSpec, CheckpointMode, Component, Value};
use tart_sched::{GateDecision, InputMux};
use tart_silence::{ProbeTracker, SilenceAdvertiser, SilencePolicy};
use tart_vtime::{ComponentId, EngineId, PortId, VirtualTime, WireId};

use crate::checkpoint::{combined_state_hash, DivergenceFault};
use crate::ctx::EngineCtx;
use crate::{
    CheckpointStore, ClusterConfig, EngineCheckpoint, Envelope, Placement, ReplicaStore,
    RetentionBuffer, Router,
};
use tart_model::{StateHash, StateHasher};

/// Where an incoming wire's ticks come from.
#[derive(Clone, Debug, PartialEq, Eq)]
enum WireSource {
    /// Another component on this same engine.
    Local,
    /// A component on another engine.
    Remote(EngineId),
    /// An external producer (replays come from the message log, served by
    /// the cluster).
    External,
}

/// Where an outgoing wire's ticks go.
#[derive(Clone, Debug, PartialEq, Eq)]
enum WireDest {
    /// A component on this same engine.
    Local,
    /// A component on another engine.
    Remote(EngineId),
    /// An external consumer with this name.
    External(String),
}

/// An external output record: `(consumer, wire, vt, payload)`.
#[derive(Clone, Debug, PartialEq)]
pub struct OutputRecord {
    /// The external consumer's name.
    pub consumer: String,
    /// The wire that delivered it.
    pub wire: WireId,
    /// The output's virtual time (duplicate vts identify stutter).
    pub vt: VirtualTime,
    /// The payload.
    pub payload: Value,
}

/// Counters an engine maintains (shared with the cluster for inspection).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineMetrics {
    /// Messages delivered to components.
    pub processed: u64,
    /// Duplicate data envelopes discarded by timestamp (§II.F.4).
    pub duplicates_dropped: u64,
    /// Soft checkpoints taken.
    pub checkpoints: u64,
    /// Serialized checkpoint bytes shipped to the replica.
    pub checkpoint_bytes: u64,
    /// Checkpoints taken in incremental (delta) mode.
    pub delta_checkpoints: u64,
    /// Serialized bytes of delta-mode checkpoints (compare against
    /// `checkpoint_bytes` for the incremental-checkpoint savings).
    pub delta_checkpoint_bytes: u64,
    /// Curiosity probes sent.
    pub probes_sent: u64,
    /// Probe replies / silence advances transmitted.
    pub silence_sent: u64,
    /// Replay requests served from retention.
    pub replays_served: u64,
    /// Replay requests this engine issued (loss detected or restore).
    pub replay_requests_sent: u64,
    /// Gaps detected via the `prev_vt` chain.
    pub losses_detected: u64,
    /// External outputs emitted (including stutter duplicates).
    pub outputs_emitted: u64,
    /// Determinism faults taken.
    pub determinism_faults: u64,
    /// Data envelopes received (before any filtering).
    pub data_received: u64,
}

/// The live, shared form of [`EngineMetrics`]: one relaxed atomic per
/// counter, so the delivery hot path bumps counters without a lock (the
/// same pattern as `tart-obs`'s counter registry). Readers take a
/// [`SharedEngineMetrics::snapshot`]; counters are monotone and
/// independent, so a snapshot is only ever behind, never torn into
/// impossible states.
///
/// Metrics are telemetry: they are never read back by replayed logic and
/// never enter checkpoints, so relaxed ordering is sufficient.
#[derive(Debug, Default)]
pub struct SharedEngineMetrics {
    pub(crate) processed: AtomicU64,
    pub(crate) duplicates_dropped: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
    pub(crate) checkpoint_bytes: AtomicU64,
    pub(crate) delta_checkpoints: AtomicU64,
    pub(crate) delta_checkpoint_bytes: AtomicU64,
    pub(crate) probes_sent: AtomicU64,
    pub(crate) silence_sent: AtomicU64,
    pub(crate) replays_served: AtomicU64,
    pub(crate) replay_requests_sent: AtomicU64,
    pub(crate) losses_detected: AtomicU64,
    pub(crate) outputs_emitted: AtomicU64,
    pub(crate) determinism_faults: AtomicU64,
    pub(crate) data_received: AtomicU64,
}

impl SharedEngineMetrics {
    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> EngineMetrics {
        EngineMetrics {
            processed: self.processed.load(AtomicOrdering::Relaxed),
            duplicates_dropped: self.duplicates_dropped.load(AtomicOrdering::Relaxed),
            checkpoints: self.checkpoints.load(AtomicOrdering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(AtomicOrdering::Relaxed),
            delta_checkpoints: self.delta_checkpoints.load(AtomicOrdering::Relaxed),
            delta_checkpoint_bytes: self.delta_checkpoint_bytes.load(AtomicOrdering::Relaxed),
            probes_sent: self.probes_sent.load(AtomicOrdering::Relaxed),
            silence_sent: self.silence_sent.load(AtomicOrdering::Relaxed),
            replays_served: self.replays_served.load(AtomicOrdering::Relaxed),
            replay_requests_sent: self.replay_requests_sent.load(AtomicOrdering::Relaxed),
            losses_detected: self.losses_detected.load(AtomicOrdering::Relaxed),
            outputs_emitted: self.outputs_emitted.load(AtomicOrdering::Relaxed),
            determinism_faults: self.determinism_faults.load(AtomicOrdering::Relaxed),
            data_received: self.data_received.load(AtomicOrdering::Relaxed),
        }
    }
}

/// In-flight recovery state for one input wire: arrivals are stashed until
/// the replay burst completes, then applied in virtual-time order.
#[derive(Debug, Default)]
struct RecoveryStash {
    /// vt → (prev_vt, payload).
    data: BTreeMap<VirtualTime, (VirtualTime, Value)>,
    /// Highest silence promise heard while recovering.
    silence: Option<VirtualTime>,
    /// The virtual time the outstanding replay request started from; used
    /// with [`Envelope::ReplayDone`]'s frame count to verify completeness.
    requested_from: VirtualTime,
}

/// What the engine loop should do after handling an envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Keep running.
    Continue,
    /// Fail-stop immediately.
    Die,
    /// Enter draining mode (exit once idle).
    Drain,
}

/// One execution engine's complete state (see module docs).
pub struct EngineCore {
    id: EngineId,
    spec: AppSpec,
    config: ClusterConfig,
    /// Hosted components, taken out during handler execution.
    components: BTreeMap<ComponentId, Option<Box<dyn Component>>>,
    mux: InputMux<Value>,
    estimators: BTreeMap<ComponentId, EstimatorSchedule>,
    /// Input-wire bookkeeping.
    wire_source: BTreeMap<WireId, WireSource>,
    consumed: BTreeMap<WireId, VirtualTime>,
    recovering: BTreeMap<WireId, RecoveryStash>,
    probes: ProbeTracker,
    /// Output-wire bookkeeping.
    wire_dest: BTreeMap<WireId, WireDest>,
    retention: BTreeMap<WireId, RetentionBuffer>,
    advertisers: BTreeMap<WireId, SilenceAdvertiser>,
    /// Deterministic per-output-wire send watermark (checkpointed: replays
    /// must reproduce identical virtual times).
    sent_watermark: BTreeMap<WireId, VirtualTime>,
    /// Reusable buffer for routing a handler's sends without a per-send
    /// allocation (scratch only — never checkpointed).
    out_wire_scratch: Vec<WireId>,
    router: Router,
    replica: ReplicaStore,
    /// On-disk checkpoint store, when the cluster runs with durability.
    /// Checkpoints tee here; `TrimAck`s wait for the persist to succeed.
    durable: Option<Arc<CheckpointStore>>,
    /// Whether checkpoint persists fsync before shipping (`true`, the
    /// Strict/legacy path) or leave writeback to the kernel (`false`, the
    /// Buffered tier — see [`CheckpointStore::persist_with`]).
    durable_sync: bool,
    /// Consumed watermarks as of the *previous* durable full generation —
    /// the watermarks `TrimAck`s are allowed to carry. Recovery may fall
    /// back a whole restore chain (to the previous full), so upstream
    /// retention must keep everything past the full generation *before* the
    /// newest; acking one full generation late guarantees exactly that.
    durable_acked: BTreeMap<WireId, VirtualTime>,
    outputs: crossbeam::channel::Sender<OutputRecord>,
    /// Dynamic re-tuning state: per-component sample collectors, present
    /// only while auto-recalibration is armed for that component.
    calibrators: BTreeMap<ComponentId, Calibrator>,
    processed_since_ckpt: u64,
    ckpt_seq: u64,
    next_ckpt_full: bool,
    /// Seal of the most recent checkpoint in the hash chain; the next delta
    /// generation seals over it ([`EngineCheckpoint::seal`]).
    last_chain_seal: StateHash,
    /// Deliveries since the last between-checkpoint bookkeeping digest
    /// (only advanced when [`ClusterConfig::hash_state_every`] is set).
    deliveries_since_hash: u64,
    /// Durable checkpoints since the last full generation, for the
    /// `full_checkpoint_every` cadence.
    ckpts_since_full: u32,
    /// Output wires whose end-of-stream marker has been transmitted
    /// (graceful drain only).
    eos_sent: std::collections::BTreeSet<WireId>,
    metrics: Arc<SharedEngineMetrics>,
    /// Telemetry handle (ops plane). Strictly write-only from the core's
    /// perspective: nothing recorded here is ever read back, so it cannot
    /// influence replayed decisions, and none of it enters checkpoints.
    obs: tart_obs::EngineObs,
}

impl EngineCore {
    /// Builds the engine hosting `placement.components_on(id)`.
    ///
    /// # Panics
    ///
    /// Panics if the placement assigns no component to this engine.
    pub fn new(
        id: EngineId,
        spec: &AppSpec,
        placement: &Placement,
        config: &ClusterConfig,
        router: Router,
        replica: ReplicaStore,
        outputs: crossbeam::channel::Sender<OutputRecord>,
    ) -> Self {
        let local = placement.components_on(id);
        assert!(!local.is_empty(), "engine {id} hosts no components");
        let mut components = BTreeMap::new();
        let mut mux = InputMux::new();
        let mut estimators = BTreeMap::new();
        let mut wire_source = BTreeMap::new();
        let mut wire_dest = BTreeMap::new();
        let mut retention = BTreeMap::new();
        let mut advertisers = BTreeMap::new();
        for &cid in &local {
            let cspec = spec.component(cid).expect("placed component exists");
            components.insert(cid, Some(cspec.instantiate()));
            estimators.insert(cid, EstimatorSchedule::new(config.estimator_for(cid)));
            let inputs: Vec<WireId> = spec.input_wires_of(cid).iter().map(|w| w.id()).collect();
            mux.add_component(cid, inputs.iter().copied());
            for w in spec.input_wires_of(cid) {
                let source = match w.from().component() {
                    Some(src) if placement.engine_of(src) == Some(id) => WireSource::Local,
                    Some(src) => WireSource::Remote(
                        placement.engine_of(src).expect("placement covers the app"),
                    ),
                    None => WireSource::External,
                };
                wire_source.insert(w.id(), source);
            }
            for w in spec.output_wires_of(cid) {
                let dest = match w.to() {
                    tart_model::Endpoint::Component { component, .. } => {
                        if placement.engine_of(*component) == Some(id) {
                            WireDest::Local
                        } else {
                            WireDest::Remote(
                                placement
                                    .engine_of(*component)
                                    .expect("placement covers the app"),
                            )
                        }
                    }
                    tart_model::Endpoint::External { name } => WireDest::External(name.clone()),
                };
                let is_external = matches!(dest, WireDest::External(_));
                wire_dest.insert(w.id(), dest);
                if !is_external {
                    // External consumers track stutter by timestamp; they
                    // need neither replay retention nor silence.
                    retention.insert(w.id(), RetentionBuffer::new(w.id()));
                    advertisers.insert(w.id(), SilenceAdvertiser::new(w.id()));
                }
            }
        }
        let calibrators = match config.auto_recalibrate_after {
            Some(n) => local
                .iter()
                .map(|&cid| (cid, Calibrator::new(n as usize)))
                .collect(),
            None => BTreeMap::new(),
        };
        EngineCore {
            id,
            spec: spec.clone(),
            config: config.clone(),
            components,
            mux,
            estimators,
            wire_source,
            consumed: BTreeMap::new(),
            recovering: BTreeMap::new(),
            probes: ProbeTracker::new(),
            wire_dest,
            retention,
            advertisers,
            sent_watermark: BTreeMap::new(),
            out_wire_scratch: Vec::new(),
            router,
            replica,
            durable: None,
            durable_sync: true,
            durable_acked: BTreeMap::new(),
            outputs,
            calibrators,
            processed_since_ckpt: 0,
            ckpt_seq: 0,
            next_ckpt_full: true,
            last_chain_seal: StateHash::ZERO,
            deliveries_since_hash: 0,
            ckpts_since_full: 0,
            eos_sent: std::collections::BTreeSet::new(),
            metrics: Arc::new(SharedEngineMetrics::default()),
            // tart-lint: allow(TAINT-FLOW) -- obs handle construction: the hub's epoch stamp is telemetry zero-point, never read back by replayed logic
            obs: tart_obs::EngineObs::detached(id),
        }
    }

    /// This engine's id.
    pub fn id(&self) -> EngineId {
        self.id
    }

    /// Attaches the on-disk checkpoint store: every checkpoint is now also
    /// persisted — as a full generation every
    /// [`crate::DurabilityConfig::full_checkpoint_every`] checkpoints and as
    /// a delta against the last full one in between — and retention
    /// `TrimAck`s are gated on a *full* persist succeeding, one full
    /// generation behind.
    ///
    /// External output wires gain retention buffers of their own: the
    /// outputs channel is volatile, so an output whose producing input is
    /// durably consumed would otherwise be lost to a whole-process crash
    /// before the consumer's next drain (replay never regenerates it — the
    /// input sits behind the restored consumed watermark). Checkpoints
    /// capture these buffers and cold restart re-emits them, duplicates
    /// collapsing by timestamp downstream. The buffers hold exactly the
    /// not-yet-drained outputs: [`crate::Cluster::take_outputs`] acks what
    /// it hands to the consumer with ordinary `TrimAck`s.
    pub fn set_durable(&mut self, store: Arc<CheckpointStore>) {
        self.durable = Some(store);
        for (w, dest) in &self.wire_dest {
            if matches!(dest, WireDest::External(_)) {
                self.retention
                    .entry(*w)
                    .or_insert_with(|| RetentionBuffer::new(*w));
            }
        }
    }

    /// Chooses between fsynced (`true`, default — the Strict/legacy
    /// durability behaviour) and kernel-scheduled (`false` — the
    /// [`crate::DurabilityPolicy::Buffered`] tier) checkpoint persists.
    /// Persist-before-ship ordering and TrimAck gating are unchanged either
    /// way; only the fsync on the checkpoint file moves.
    pub fn set_durable_sync(&mut self, sync: bool) {
        self.durable_sync = sync;
    }

    /// Attaches the cluster's observability handle. Obs state is telemetry
    /// only: it lives outside checkpointed component state, is never read
    /// by the core, and a directly-constructed engine records into a
    /// private detached hub until a cluster installs the shared one.
    pub fn set_obs(&mut self, obs: tart_obs::EngineObs) {
        self.obs = obs;
    }

    /// Repoints this core at a different replica store. Used at warm
    /// promotion: the standby plane builds its background core before the
    /// promotion-time replica exists, so the fresh store is swapped in when
    /// the core goes live.
    pub(crate) fn set_replica(&mut self, replica: ReplicaStore) {
        self.replica = replica;
    }

    /// Shared handle to this engine's metrics.
    pub fn metrics_handle(&self) -> Arc<SharedEngineMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A snapshot of the current metrics.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics.snapshot()
    }

    /// Total messages pending in this engine's gates.
    pub fn pending_len(&self) -> usize {
        self.mux.pending_len()
    }

    /// Whether any input wire is still in recovery.
    pub fn is_recovering(&self) -> bool {
        !self.recovering.is_empty()
    }

    /// One step of the graceful-drain cascade: every component whose inputs
    /// are exhausted (all wires silent through the end of time, nothing
    /// pending) will never run again, so its output wires receive their
    /// end-of-stream markers — which lets downstream components drain in
    /// turn, across engines. Returns `true` once every hosted component is
    /// exhausted and every marker is out: the engine may exit.
    pub fn drain_step(&mut self) -> bool {
        if self.is_recovering() {
            return false;
        }
        let mut all_done = true;
        let cids: Vec<ComponentId> = self.mux.component_ids().collect();
        for cid in cids {
            let gate = self.mux.gate(cid);
            let exhausted = gate.pending_len() == 0
                && gate
                    .wire_ids()
                    .all(|w| gate.accounted_through(w) == VirtualTime::MAX);
            if !exhausted {
                all_done = false;
                continue;
            }
            let outs: Vec<WireId> = self
                .spec
                .output_wires_of(cid)
                .iter()
                .map(|w| w.id())
                // External wires may retain too (durable output capture)
                // but never speak the EOS protocol — consumers are not
                // engines.
                .filter(|w| {
                    !matches!(self.wire_dest.get(w), Some(WireDest::External(_)))
                        && self.retention.contains_key(w)
                        && !self.eos_sent.contains(w)
                })
                .collect();
            for wire in outs {
                self.eos_sent.insert(wire);
                let last_data = self
                    .retention
                    .get(&wire)
                    .and_then(RetentionBuffer::last_sent)
                    .unwrap_or(VirtualTime::ZERO);
                let dest = self.wire_dest[&wire].clone();
                self.transmit(&dest, Envelope::Eos { wire, last_data });
            }
        }
        all_done
    }

    // -- Envelope handling --------------------------------------------------

    /// Processes one incoming envelope.
    ///
    /// Exposed so embedders (and the protocol test-suite) can drive an
    /// engine without a thread; [`crate::Cluster`] wraps this in its own
    /// loop.
    pub fn handle(&mut self, env: Envelope) -> Flow {
        match env {
            Envelope::Data {
                wire,
                vt,
                prev_vt,
                payload,
            } => {
                self.on_data(wire, vt, prev_vt, payload);
                Flow::Continue
            }
            Envelope::Silence {
                wire,
                through,
                last_data,
            } => {
                self.on_silence(wire, through, last_data);
                Flow::Continue
            }
            Envelope::Eos { wire, last_data } => {
                self.on_silence(wire, VirtualTime::MAX, last_data);
                Flow::Continue
            }
            Envelope::Probe {
                wire,
                needed_through,
            } => {
                self.answer_probe(wire, needed_through);
                Flow::Continue
            }
            Envelope::ReplayRequest { wire, from } => {
                self.serve_replay(wire, from);
                Flow::Continue
            }
            Envelope::ReplayDone {
                wire,
                through,
                frames,
            } => {
                self.finish_recovery(wire, through, frames);
                Flow::Continue
            }
            Envelope::TrimAck { wire, through } => {
                if let Some(buf) = self.retention.get_mut(&wire) {
                    buf.trim_through(through);
                }
                Flow::Continue
            }
            Envelope::Checkpoint => {
                self.take_checkpoint();
                Flow::Continue
            }
            Envelope::Recalibrate { component, spec } => {
                self.recalibrate(component, spec);
                Flow::Continue
            }
            Envelope::SetSilencePolicy { policy } => {
                // Safe without a determinism fault: the identities of silent
                // ticks depend only on estimators; this changes only how
                // eagerly silence is communicated (§II.G.4).
                self.config.silence = policy;
                self.pump();
                Flow::Continue
            }
            // Heartbeats are addressed to the supervisor inbox, never to an
            // engine; one arriving here (a mis-route) is ignored.
            Envelope::Heartbeat { .. } => Flow::Continue,
            // Input-head advances are addressed to the standby plane's
            // sentinel inbox, never to an engine; one arriving here (a
            // mis-route) is ignored.
            Envelope::StandbyInput { .. } => Flow::Continue,
            Envelope::Die => Flow::Die,
            Envelope::Drain => Flow::Drain,
        }
    }

    fn on_data(&mut self, wire: WireId, vt: VirtualTime, prev_vt: VirtualTime, payload: Value) {
        self.metrics
            .data_received
            .fetch_add(1, AtomicOrdering::Relaxed);
        // Warm standby: every external arrival is already logged (and thus
        // replayable), so advancing the standby plane's notion of this
        // engine's input head costs one control-plane envelope and lets the
        // plane pace its trailing-horizon pre-apply. Best-effort — with no
        // plane registered the router drops the envelope silently.
        if self.config.standby.is_some()
            && self.wire_source.get(&wire) == Some(&WireSource::External)
        {
            self.router.send(
                crate::router::STANDBY_ENGINE,
                Envelope::StandbyInput {
                    engine: self.id,
                    wire,
                    vt,
                },
            );
        }
        if let Some(stash) = self.recovering.get_mut(&wire) {
            stash.data.insert(vt, (prev_vt, payload));
            return;
        }
        let Some(target) = self.mux.target_of(wire) else {
            return; // not our wire (stale routing); drop
        };
        self.probes.on_reply(wire);
        let gate = self.mux.gate(target);
        let heard = gate.has_heard(wire);
        let accounted = gate.accounted_through(wire);
        // Gap detection via the prev_vt chain (§II.F.4): if the predecessor
        // tick never arrived, a message was lost — stash this one and ask
        // the source to replay the hole.
        let gap = self.config.deterministic
            && prev_vt > VirtualTime::ZERO
            && (!heard || prev_vt > accounted);
        if gap {
            self.metrics
                .losses_detected
                .fetch_add(1, AtomicOrdering::Relaxed);
            let from = if heard {
                accounted.next()
            } else {
                VirtualTime::ZERO
            };
            self.enter_recovery(wire, from);
            self.recovering
                .get_mut(&wire)
                .expect("just entered recovery")
                .data
                .insert(vt, (prev_vt, payload));
            return;
        }
        if !self.config.deterministic {
            // Baseline mode: a conventional runtime — process immediately,
            // in real-time arrival order, no pessimism, no recoverability.
            let dequeue_vt = vt.max_with(self.mux.gate(target).clock());
            self.process_delivery(target, wire, vt, dequeue_vt, payload);
            self.metrics.processed.fetch_add(1, AtomicOrdering::Relaxed);
            return;
        }
        match self.mux.push_message(wire, vt, payload) {
            Ok(()) => {
                // Pessimism-wait stamp: the message is now held by the gate
                // until silence releases it; delivery pops the stamp.
                self.obs.message_arrived(wire, vt);
            }
            Err(_) => {
                // Timestamp at or below the accounted watermark: a replayed
                // or link-duplicated message. "The duplicate messages will
                // have duplicate timestamps and will be discarded" (§II.F.4).
                self.metrics
                    .duplicates_dropped
                    .fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }

    fn on_silence(&mut self, wire: WireId, through: VirtualTime, last_data: VirtualTime) {
        if !self.config.deterministic {
            // The arrival-order baseline has no tick accounting to keep
            // honest; silence only matters for the drain handshake.
            if self.mux.target_of(wire).is_some() {
                self.mux.promise_silence(wire, through);
            }
            return;
        }
        if let Some(stash) = self.recovering.get_mut(&wire) {
            stash.silence = Some(stash.silence.map_or(through, |s| s.max(through)));
            return;
        }
        let Some(target) = self.mux.target_of(wire) else {
            return;
        };
        self.probes.on_reply(wire);
        // Tail-loss detection: the sender has transmitted data through
        // `last_data`, but our account never saw it — a message with no
        // successor was lost. Applying `through` now would mask the hole.
        let gate = self.mux.gate(target);
        let heard = gate.has_heard(wire);
        let accounted = gate.accounted_through(wire);
        if last_data > VirtualTime::ZERO && (!heard || last_data > accounted) {
            self.metrics
                .losses_detected
                .fetch_add(1, AtomicOrdering::Relaxed);
            let from = if heard {
                accounted.next()
            } else {
                VirtualTime::ZERO
            };
            self.enter_recovery(wire, from);
            let stash = self
                .recovering
                .get_mut(&wire)
                .expect("just entered recovery");
            stash.silence = Some(through);
            return;
        }
        self.mux.promise_silence(wire, through);
    }

    /// Marks `wire` recovering (stashing all arrivals) and issues a replay
    /// request starting at `from`.
    fn enter_recovery(&mut self, wire: WireId, from: VirtualTime) {
        let stash = self.recovering.entry(wire).or_default();
        stash.requested_from = from;
        self.request_replay(wire, from);
    }

    fn request_replay(&mut self, wire: WireId, from: VirtualTime) {
        self.metrics
            .replay_requests_sent
            .fetch_add(1, AtomicOrdering::Relaxed);
        self.obs.replay_requested(wire, from);
        match &self.wire_source[&wire] {
            WireSource::Local => {
                // Self-request: serve immediately from restored retention.
                self.serve_replay(wire, from);
            }
            WireSource::Remote(engine) => {
                let engine = *engine;
                self.router
                    .send(engine, Envelope::ReplayRequest { wire, from });
            }
            WireSource::External => {
                // The cluster supervisor answers external replays from the
                // message log (§II.F.4: "if the 'sender' is an external
                // component rather than another TART component, then the
                // messages are re-sent from the log").
                self.router.send(
                    crate::router::EXTERNAL_ENGINE,
                    Envelope::ReplayRequest { wire, from },
                );
            }
        }
    }

    /// Serves a replay request for a wire sourced on this engine.
    fn serve_replay(&mut self, wire: WireId, from: VirtualTime) {
        let Some(buf) = self.retention.get(&wire) else {
            return;
        };
        self.metrics
            .replays_served
            .fetch_add(1, AtomicOrdering::Relaxed);
        let frames = buf.replay_from(from);
        let count = frames.len() as u64;
        let dest = self.wire_dest[&wire].clone();
        let mut prev = VirtualTime::ZERO;
        for (vt, payload) in frames {
            self.transmit(
                &dest,
                Envelope::Data {
                    wire,
                    vt,
                    prev_vt: prev,
                    payload,
                },
            );
            prev = vt;
        }
        let through = self
            .advertisers
            .get(&wire)
            .map(SilenceAdvertiser::advertised_through)
            .unwrap_or(VirtualTime::ZERO);
        self.transmit(
            &dest,
            Envelope::ReplayDone {
                wire,
                through,
                frames: count,
            },
        );
    }

    fn finish_recovery(&mut self, wire: WireId, through: VirtualTime, frames: u64) {
        let Some(stash) = self.recovering.remove(&wire) else {
            // Not recovering: a ReplayDone doubles as an authoritative
            // silence promise (it cannot be lost — control plane).
            if self.mux.target_of(wire).is_some() {
                self.mux.promise_silence(wire, through);
            }
            return;
        };
        // Completeness check: replayed frames travel the faultable data
        // plane and can be lost again. If the burst is short, keep the
        // stash and re-request. A horizon below the requested start is a
        // valid answer — after a cold restart a checkpoint can be newer
        // than the source's surviving log, and the source truthfully
        // accounts for nothing in the requested span.
        let received = if through < stash.requested_from {
            0
        } else {
            stash.data.range(stash.requested_from..=through).count() as u64
        };
        if received < frames {
            let from = stash.requested_from;
            self.recovering.insert(wire, stash);
            self.recovering
                .get_mut(&wire)
                .expect("reinserted")
                .requested_from = from;
            self.request_replay(wire, from);
            return;
        }
        // Accept the covered prefix.
        let mut refeed = Vec::new();
        for (vt, (prev_vt, payload)) in stash.data {
            if vt <= through {
                if self.mux.target_of(wire).is_some()
                    && self.mux.push_message(wire, vt, payload).is_err()
                {
                    self.metrics
                        .duplicates_dropped
                        .fetch_add(1, AtomicOrdering::Relaxed);
                }
            } else {
                refeed.push((vt, prev_vt, payload));
            }
        }
        let silent = stash.silence.map_or(through, |s| s.max(through));
        if self.mux.target_of(wire).is_some() {
            self.mux.promise_silence(wire, silent);
        }
        // Frames past the replay horizon re-enter the normal path: their
        // prev_vt chains re-detect any hole that remains and re-request.
        for (vt, prev_vt, payload) in refeed {
            self.on_data(wire, vt, prev_vt, payload);
        }
    }

    /// Answers a curiosity probe for an output wire of this engine: compute
    /// the freshest truthful silence bound and transmit it (§II.H). If the
    /// bound cannot cover the receiver's need, the probe *cascades*: this
    /// component's own lagging inputs are probed in turn, so curiosity
    /// propagates through intermediate components of a deeper graph.
    fn answer_probe(&mut self, wire: WireId, needed_through: VirtualTime) {
        let Some(source) = self.spec.wire(wire).and_then(|w| w.from().component()) else {
            return;
        };
        if !self.components.contains_key(&source) {
            return; // not hosted here (stale probe after re-placement)
        }
        let bound = self.silence_bound(source, wire);
        if bound < needed_through {
            let mut visited = std::collections::BTreeSet::new();
            self.cascade_probe(source, needed_through, &mut visited);
        }
        let changed = self
            .advertisers
            .get_mut(&wire)
            .and_then(|adv| adv.advance_to(bound));
        // Reply with the watermark even when unchanged: the prior advance
        // may have been lost, and silence is idempotent.
        let through = self
            .advertisers
            .get(&wire)
            .map(SilenceAdvertiser::advertised_through)
            .unwrap_or(bound);
        let dest = self.wire_dest[&wire].clone();
        let _ = changed;
        self.metrics
            .silence_sent
            .fetch_add(1, AtomicOrdering::Relaxed);
        self.obs.silence_sent(wire, through);
        let last_data = self
            .retention
            .get(&wire)
            .and_then(RetentionBuffer::last_sent)
            .unwrap_or(VirtualTime::ZERO);
        self.transmit(
            &dest,
            Envelope::Silence {
                wire,
                through,
                last_data,
            },
        );
    }

    /// The silence oracle for a component hosted here: no output on `wire`
    /// can carry a virtual time at or below the returned bound.
    ///
    /// `dequeue >= max(component clock, earliest possible input)`, plus the
    /// component's minimum work and the wire's link delay (§II.H).
    fn silence_bound(&self, component: ComponentId, wire: WireId) -> VirtualTime {
        let gate = self.mux.gate(component);
        let earliest_input = gate
            .wire_ids()
            .map(|w| gate.earliest_possible_vt(w))
            .min()
            .unwrap_or(VirtualTime::ZERO);
        let base = gate.clock().max_with(earliest_input);
        let bound = base
            .saturating_add(self.config.min_work_for(component))
            .saturating_add(self.config.link_delay_for(wire));
        // One tick earlier than the earliest possible delivery; also never
        // below what the send watermark already implies.
        let floor = self
            .sent_watermark
            .get(&wire)
            .copied()
            .unwrap_or(VirtualTime::ZERO);
        bound.prev().max_with(floor)
    }

    // -- Execution ----------------------------------------------------------

    /// Delivers every currently deliverable message, interleaving local
    /// self-probes until quiescent. Returns the number of messages
    /// processed. Call after [`EngineCore::handle`].
    pub fn pump(&mut self) -> u64 {
        let mut processed = 0;
        loop {
            while let Some((cid, decision)) = self.mux.poll() {
                let GateDecision::Deliver {
                    wire,
                    vt,
                    dequeue_vt,
                    msg,
                } = decision
                else {
                    unreachable!("poll only returns deliveries");
                };
                self.process_delivery(cid, wire, vt, dequeue_vt, msg);
                processed += 1;
            }
            // Under curiosity-style policies, probe whoever we are stuck
            // on. Local probes resolve synchronously and may unblock more
            // deliveries; keep going until they stop making progress.
            if !(self.config.silence.probes() && self.issue_probes()) {
                break;
            }
        }
        if processed > 0 {
            self.metrics
                .processed
                .fetch_add(processed, AtomicOrdering::Relaxed);
        }
        processed
    }

    fn process_delivery(
        &mut self,
        cid: ComponentId,
        wire: WireId,
        vt: VirtualTime,
        dequeue_vt: VirtualTime,
        msg: Value,
    ) {
        self.consumed.insert(wire, vt);
        self.obs.message_delivered(wire, vt);
        let in_port = self
            .spec
            .wire(wire)
            .and_then(|w| w.to().port())
            .unwrap_or(PortId::new(0));
        let mut component = self
            .components
            .get_mut(&cid)
            .expect("delivery to hosted component")
            .take()
            .expect("component not reentrantly executing");
        let measure = self.calibrators.contains_key(&cid);
        // HandlerTimer is the sanctioned wall-clock boundary (§II.E): the
        // measurement feeds calibration via the logged DeterminismFault
        // path and the obs estimator-residual histogram — never virtual
        // time directly.
        let started = crate::clock::HandlerTimer::start();
        let mut ctx = EngineCtx::new(self, cid, dequeue_vt);
        component.on_message(in_port, &msg, &mut ctx);
        let EngineCtx {
            sends, features, ..
        } = ctx;
        self.components.insert(cid, Some(component));
        let measured = started.elapsed_ns();
        if measure {
            self.observe_sample(cid, features.clone(), measured);
        }

        // Completion time from the active estimator (§II.E): this is the
        // component's new clock.
        let est = self.estimators[&cid].estimate_at(dequeue_vt, &features);
        self.obs.estimator_residual(est.as_ticks(), measured);
        let completion = dequeue_vt + est;
        self.mux.gate_mut(cid).advance_clock(completion);

        // Route the outputs.
        self.route_sends(cid, completion, sends);

        self.processed_since_ckpt += 1;
        if let Some(every) = self.config.hash_state_every {
            self.deliveries_since_hash += 1;
            if self.deliveries_since_hash >= every {
                self.deliveries_since_hash = 0;
                self.hash_bookkeeping();
            }
        }
        if self.processed_since_ckpt >= self.config.checkpoint_every {
            self.take_checkpoint();
        }
    }

    /// Between-checkpoint verified-replay cadence: digests the engine's
    /// deterministic bookkeeping — consumed and sent watermarks plus
    /// component clocks — the pure slice of checkpointable state that can
    /// be hashed without draining the components' incremental journals.
    /// The digest itself is discarded (there is no recorded reference
    /// between checkpoints); what it buys is a heartbeat in the
    /// `state_hashes_computed` counter proving the hash cadence is alive.
    fn hash_bookkeeping(&mut self) {
        let clocks: BTreeMap<ComponentId, VirtualTime> = self
            .mux
            .component_ids()
            .map(|c| (c, self.mux.gate(c).clock()))
            .collect();
        let mut buf = bytes::BytesMut::new();
        use tart_codec::Encode;
        self.consumed.encode(&mut buf);
        self.sent_watermark.encode(&mut buf);
        clocks.encode(&mut buf);
        let mut h = StateHasher::new();
        h.update(&buf);
        let _ = h.finish();
        self.obs.state_hashes_computed(1);
    }

    /// Stamps and transmits one output message on `out_wire`.
    fn emit(&mut self, out_wire: WireId, completion: VirtualTime, seq: u64, payload: Value) {
        let base = completion
            + self.config.link_delay_for(out_wire)
            + tart_vtime::VirtualDuration::from_ticks(seq);
        // Deterministic per-wire monotonicity bump: `sent_watermark` is part
        // of checkpointed state, so replays reproduce identical stamps.
        let prev = self.sent_watermark.get(&out_wire).copied();
        let out_vt = match prev {
            Some(w) if base <= w => w.next(),
            _ => base,
        };
        self.sent_watermark.insert(out_wire, out_vt);

        let dest = self.wire_dest[&out_wire].clone();
        if let WireDest::External(consumer) = &dest {
            // Under durability external wires retain too (see
            // `set_durable`): the channel below is volatile, and the
            // checkpoint about to durably consume this output's input must
            // carry the bytes to re-emit it after a whole-process crash.
            if let Some(buf) = self.retention.get_mut(&out_wire) {
                buf.record(out_vt, payload.clone());
            }
            self.metrics
                .outputs_emitted
                .fetch_add(1, AtomicOrdering::Relaxed);
            let _ = self.outputs.send(OutputRecord {
                consumer: consumer.clone(),
                wire: out_wire,
                vt: out_vt,
                payload,
            });
            return;
        }
        if let Some(adv) = self.advertisers.get_mut(&out_wire) {
            adv.record_data(out_vt);
        }
        let prev_vt = prev.unwrap_or(VirtualTime::ZERO);
        if let Some(buf) = self.retention.get_mut(&out_wire) {
            buf.record(out_vt, payload.clone());
        }
        self.transmit(
            &dest,
            Envelope::Data {
                wire: out_wire,
                vt: out_vt,
                prev_vt,
                payload,
            },
        );
    }

    fn transmit(&mut self, dest: &WireDest, env: Envelope) {
        match dest {
            WireDest::Local => {
                // Same-engine delivery without leaving the core.
                let _ = self.handle(env);
            }
            WireDest::Remote(engine) => self.router.send(*engine, env),
            WireDest::External(_) => unreachable!("external outputs use the output channel"),
        }
    }

    /// Executes a same-engine two-way call (see [`crate::ctx::EngineCtx`]).
    ///
    /// # Panics
    ///
    /// Panics on calls to components hosted elsewhere, on unwired call
    /// ports, and on reentrant call cycles.
    pub(crate) fn execute_call(
        &mut self,
        caller: ComponentId,
        port: PortId,
        req: Value,
        now: VirtualTime,
    ) -> Value {
        let wires = self.spec.wires_from_port(caller, port);
        let wire = wires
            .first()
            .unwrap_or_else(|| panic!("call port {port} of {caller} is not wired"));
        let callee = wire
            .to()
            .component()
            .expect("calls cannot target external consumers");
        let callee_port = wire.to().port().expect("component endpoint has a port");
        let mut component = self
            .components
            .get_mut(&callee)
            .unwrap_or_else(|| panic!("cross-engine calls are not supported (callee {callee})"))
            .take()
            .unwrap_or_else(|| panic!("call cycle detected at {callee}"));
        let arrival = now.max_with(self.mux.gate(callee).clock());
        let mut sub = EngineCtx::new(self, callee, arrival);
        let reply = component.on_call(callee_port, &req, &mut sub);
        let EngineCtx {
            sends, features, ..
        } = sub;
        self.components.insert(callee, Some(component));
        let est = self.estimators[&callee].estimate_at(arrival, &features);
        let completion = arrival + est;
        self.mux.gate_mut(callee).advance_clock(completion);
        self.route_sends(callee, completion, sends);
        reply
    }

    /// Routes a handler's buffered sends: one emit per (send, out-wire)
    /// pair. Reuses a scratch wire list and moves (rather than clones) the
    /// payload into the last wire's emit — the common single-wire fan-out
    /// never copies the payload.
    fn route_sends(
        &mut self,
        from: ComponentId,
        completion: VirtualTime,
        sends: Vec<(PortId, Value)>,
    ) {
        let mut out_wires = std::mem::take(&mut self.out_wire_scratch);
        for (seq, (port, payload)) in sends.into_iter().enumerate() {
            out_wires.clear();
            out_wires.extend(self.spec.wires_from_port(from, port).iter().map(|w| w.id()));
            if let Some((&last, rest)) = out_wires.split_last() {
                for &w in rest {
                    self.emit(w, completion, seq as u64, payload.clone());
                }
                self.emit(last, completion, seq as u64, payload);
            }
        }
        out_wires.clear();
        self.out_wire_scratch = out_wires;
    }

    /// Sends curiosity probes for every blocked gate's lagging wires.
    /// Returns `true` if a *local* probe advanced silence (more deliveries
    /// may have become possible).
    fn issue_probes(&mut self) -> bool {
        let mut local_progress = false;
        let blocked = self.mux.blocked();
        for (_cid, decision) in blocked {
            let GateDecision::Blocked { lagging, .. } = decision else {
                continue;
            };
            for (wire, needed) in lagging {
                match &self.wire_source[&wire] {
                    WireSource::Local => {
                        // Probe ourselves directly: compute the bound and
                        // promise it on the local gate.
                        let Some(source) = self.spec.wire(wire).and_then(|w| w.from().component())
                        else {
                            continue;
                        };
                        let bound = self.silence_bound(source, wire);
                        if let Some(adv) = self.advertisers.get_mut(&wire) {
                            if let Some(through) = adv.advance_to(bound) {
                                self.mux.promise_silence(wire, through);
                                local_progress = true;
                            }
                        }
                        if bound < needed {
                            // The local sender itself is waiting on inputs:
                            // cascade the curiosity upstream.
                            let mut visited = std::collections::BTreeSet::new();
                            self.cascade_probe(source, needed, &mut visited);
                        }
                    }
                    WireSource::Remote(engine) => {
                        let engine = *engine;
                        if self.probes.should_probe(wire, needed) {
                            self.metrics
                                .probes_sent
                                .fetch_add(1, AtomicOrdering::Relaxed);
                            self.obs.probe_sent(wire, needed);
                            self.router.send(
                                engine,
                                Envelope::Probe {
                                    wire,
                                    needed_through: needed,
                                },
                            );
                        }
                    }
                    WireSource::External => {
                        // External producers are not probed; their silence
                        // comes from injector heartbeats (§II.E logs + real
                        // time stamps make them self-accounting).
                    }
                }
            }
        }
        local_progress
    }

    /// Probes every lagging input of `component` so its silence bound can
    /// grow — the transitive step of curiosity-driven propagation. Probing
    /// a little too deep is harmless (silence is idempotent); probing too
    /// shallow wedges layered merges.
    fn cascade_probe(
        &mut self,
        component: ComponentId,
        needed: VirtualTime,
        visited: &mut std::collections::BTreeSet<ComponentId>,
    ) {
        if !visited.insert(component) {
            return;
        }
        let wires: Vec<WireId> = self.mux.gate(component).wire_ids().collect();
        for wire in wires {
            if self.mux.gate(component).earliest_possible_vt(wire) > needed {
                continue; // this input already accounts far enough
            }
            match self.wire_source[&wire].clone() {
                WireSource::Remote(engine) => {
                    if self.probes.should_probe(wire, needed) {
                        self.metrics
                            .probes_sent
                            .fetch_add(1, AtomicOrdering::Relaxed);
                        self.obs.probe_sent(wire, needed);
                        self.router.send(
                            engine,
                            Envelope::Probe {
                                wire,
                                needed_through: needed,
                            },
                        );
                    }
                }
                WireSource::Local => {
                    let Some(source) = self.spec.wire(wire).and_then(|w| w.from().component())
                    else {
                        continue;
                    };
                    let bound = self.silence_bound(source, wire);
                    if let Some(adv) = self.advertisers.get_mut(&wire) {
                        if let Some(through) = adv.advance_to(bound) {
                            self.mux.promise_silence(wire, through);
                        }
                    }
                    if bound < needed {
                        self.cascade_probe(source, needed, visited);
                    }
                }
                WireSource::External => {
                    // External producers advance via injector heartbeats.
                }
            }
        }
    }

    /// Idle-tick maintenance: forget outstanding probes (replies may have
    /// been lost) and re-evaluate. Under the aggressive policy, volunteer
    /// fresh silence on every output wire.
    pub fn on_idle_tick(&mut self) {
        self.probes = ProbeTracker::new();
        if matches!(self.config.silence, SilencePolicy::Aggressive { .. }) {
            self.broadcast_silence();
        }
        self.pump();
    }

    /// Volunteers the current silence bound on every output wire.
    pub(crate) fn broadcast_silence(&mut self) {
        let wires: Vec<WireId> = self.retention.keys().copied().collect();
        for wire in wires {
            let Some(source) = self.spec.wire(wire).and_then(|w| w.from().component()) else {
                continue;
            };
            let bound = self.silence_bound(source, wire);
            let advance = self
                .advertisers
                .get_mut(&wire)
                .and_then(|adv| adv.advance_to(bound));
            if let Some(through) = advance {
                self.metrics
                    .silence_sent
                    .fetch_add(1, AtomicOrdering::Relaxed);
                self.obs.silence_sent(wire, through);
                let dest = self.wire_dest[&wire].clone();
                let last_data = self
                    .retention
                    .get(&wire)
                    .and_then(RetentionBuffer::last_sent)
                    .unwrap_or(VirtualTime::ZERO);
                self.transmit(
                    &dest,
                    Envelope::Silence {
                        wire,
                        through,
                        last_data,
                    },
                );
            }
        }
    }

    // -- Checkpointing and recovery ------------------------------------------

    /// Takes a soft checkpoint and ships it to the replica (§II.F.2);
    /// under durability, also persists it and gates the retention
    /// `TrimAck`s on the persist succeeding.
    pub fn take_checkpoint(&mut self) {
        self.processed_since_ckpt = 0;
        // Durable generations persist as deltas against the last full one;
        // a full every `full_checkpoint_every` anchors the chain so restore
        // replays at most one full + a bounded delta tail.
        let durable_full_due = self.durable.is_some() && {
            let every = self
                .config
                .durability
                .as_ref()
                .map_or(1, |d| d.full_checkpoint_every.max(1));
            self.ckpts_since_full + 1 >= every
        };
        let mode = if self.next_ckpt_full || durable_full_due {
            CheckpointMode::Full
        } else {
            CheckpointMode::Incremental
        };
        self.next_ckpt_full = false;
        let mut ckpt = EngineCheckpoint::new(self.id, self.ckpt_seq);
        self.ckpt_seq += 1;
        let cids: Vec<ComponentId> = self.mux.component_ids().collect();
        for cid in cids {
            let clock = self.mux.gate(cid).clock();
            let component = self
                .components
                .get_mut(&cid)
                .expect("hosted")
                .as_mut()
                .expect("not executing");
            ckpt.components
                .insert(cid, component.checkpoint(mode, clock));
            ckpt.clocks.insert(cid, clock);
        }
        // A delta in which nothing changed carries no chunks at all, and on
        // disk an all-empty checkpoint is indistinguishable from (and would
        // be classified as) a self-contained full — one that seeds a restore
        // chain with nothing. Re-capture it as a genuine full generation.
        let mode = if self.durable.is_some()
            && mode == CheckpointMode::Incremental
            && ckpt.is_self_contained()
        {
            for (cid, snap) in &mut ckpt.components {
                let clock = ckpt.clocks[cid];
                let component = self
                    .components
                    .get_mut(cid)
                    .expect("hosted")
                    .as_mut()
                    .expect("not executing");
                *snap = component.checkpoint(CheckpointMode::Full, clock);
            }
            CheckpointMode::Full
        } else {
            mode
        };
        for (w, vt) in &self.consumed {
            ckpt.consumed.insert(*w, *vt);
        }
        for (w, vt) in &self.sent_watermark {
            ckpt.sent.insert(*w, *vt);
        }
        // In-flight retention rides with the checkpoint. Local wires always
        // (sender and receiver state die together, so the replica is the
        // only copy); every wire under durability (a whole-cluster crash
        // kills the remote receivers' upstreams too — each engine must
        // bring its own send-side retention back from disk).
        let durable = self.durable.is_some();
        for (w, dest) in &self.wire_dest {
            let local = *dest == WireDest::Local;
            if !(local || durable) {
                continue;
            }
            if let Some(buf) = self.retention.get_mut(w) {
                if local {
                    if let Some(consumed) = self.consumed.get(w) {
                        buf.trim_through(*consumed);
                    }
                }
                let frames = buf.replay_from(VirtualTime::ZERO);
                if !frames.is_empty() {
                    ckpt.retention.insert(*w, frames);
                }
            }
        }
        // Verified replay: record every component's deterministic state
        // digest and the combined engine digest, then seal the checkpoint
        // into the hash chain. Self-contained generations restart the chain
        // so any suffix anchored at a full verifies independently — exactly
        // the shape `load_chain` can fall back to.
        let hashed: Vec<ComponentId> = ckpt.components.keys().copied().collect();
        for cid in hashed {
            let clock = ckpt.clocks[&cid];
            let component = self
                .components
                .get_mut(&cid)
                .expect("hosted")
                .as_mut()
                .expect("not executing");
            ckpt.component_hashes
                .insert(cid, component.state_hash(clock));
        }
        ckpt.state_hash = combined_state_hash(
            &ckpt.component_hashes,
            &ckpt.clocks,
            &ckpt.consumed,
            &ckpt.sent,
        );
        ckpt.seal(&self.last_chain_seal);
        self.last_chain_seal = ckpt.chain_seal;
        self.obs
            .state_hashes_computed(ckpt.component_hashes.len() as u64 + 1);
        let bytes = tart_codec::Encode::to_bytes(&ckpt).len() as u64;
        self.metrics
            .checkpoints
            .fetch_add(1, AtomicOrdering::Relaxed);
        self.metrics
            .checkpoint_bytes
            .fetch_add(bytes, AtomicOrdering::Relaxed);
        if mode == CheckpointMode::Incremental {
            self.metrics
                .delta_checkpoints
                .fetch_add(1, AtomicOrdering::Relaxed);
            self.metrics
                .delta_checkpoint_bytes
                .fetch_add(bytes, AtomicOrdering::Relaxed);
        }
        // Persist BEFORE shipping: once anyone can see this checkpoint, it
        // must be able to survive a whole-cluster crash.
        let persisted = match &self.durable {
            // tart-lint: allow(TAINT-FLOW) -- durability ack only: persist's wall-clock read times the fsync; the bool gates shipping and restore re-derives from the store itself
            Some(store) => store.persist_with(&ckpt, self.durable_sync).is_ok(),
            None => true,
        };
        // Shipped once: a warm standby tails this same chain by cursor.
        self.replica.push_checkpoint(ckpt);
        if !persisted {
            // The disk refused the new generation: upstream retention must
            // keep serving from the last durable consumed watermarks, so no
            // TrimAck may advance. A delta skipped on disk would leave a
            // hole in the chain, so the next checkpoint re-anchors with a
            // full generation. The replica still has the checkpoint for
            // single-failure promotion.
            self.next_ckpt_full = true;
            return;
        }
        if self.durable.is_some() {
            self.ckpts_since_full = match mode {
                CheckpointMode::Full => 0,
                CheckpointMode::Incremental => self.ckpts_since_full + 1,
            };
        }
        // Downstream of our inputs: acknowledge what is *durably* covered
        // so upstream retention can trim. Without durability that is simply
        // the current consumed watermark; with it, acks only move at *full*
        // persists — a delta is worthless without its base chain, and
        // recovery may fall back a whole chain — and the watermark lags one
        // full generation (see `durable_acked`).
        let acks: Vec<(WireId, VirtualTime)> = if self.durable.is_some() {
            if mode == CheckpointMode::Full {
                let acks = self.durable_acked.iter().map(|(w, vt)| (*w, *vt)).collect();
                self.durable_acked = self.consumed.clone();
                acks
            } else {
                Vec::new()
            }
        } else {
            self.consumed.iter().map(|(w, vt)| (*w, *vt)).collect()
        };
        for (wire, through) in acks {
            if let Some(WireSource::Remote(engine)) = self.wire_source.get(&wire) {
                self.router
                    .send(*engine, Envelope::TrimAck { wire, through });
            }
        }
    }

    /// Rebuilds state from a checkpoint chain plus the fault log, then
    /// marks every input wire as recovering and issues replay requests —
    /// to upstream engines for internal wires, to the cluster supervisor
    /// (message log) for external wires.
    ///
    /// # Errors
    ///
    /// This is a verified-replay horizon: after the chain is applied, every
    /// component's state digest — and the combined engine digest — is
    /// recomputed and compared against the hashes the chain tail recorded
    /// at checkpoint time. A mismatch (bit rot, a torn replica, or
    /// nondeterministic re-execution) returns a [`DivergenceFault`]
    /// *before* any recovered output escapes; the engine must not be run
    /// after a divergent restore.
    pub fn restore(
        &mut self,
        chain: &[EngineCheckpoint],
        faults: &[(ComponentId, DeterminismFault)],
    ) -> Result<(), DivergenceFault> {
        self.restore_from(chain, 0, faults)
    }

    /// [`EngineCore::restore`] for a core that already carries the chain's
    /// first `applied` members — a warm standby's head start; a fresh core
    /// passes 0. Only the snapshots after them are applied; bookkeeping,
    /// retention, the tail digests and replay arming then run over the
    /// whole chain exactly as a from-scratch restore runs them.
    pub(crate) fn restore_from(
        &mut self,
        chain: &[EngineCheckpoint],
        applied: usize,
        faults: &[(ComponentId, DeterminismFault)],
    ) -> Result<(), DivergenceFault> {
        // Apply snapshots in shipped order.
        for ckpt in &chain[applied..] {
            self.apply_member_snapshots(ckpt);
        }
        self.apply_faults(faults);
        if chain.is_empty() {
            // No checkpoint ever shipped: restart from scratch; replay
            // everything from the beginning.
            let wires: Vec<WireId> = self.wire_source.keys().copied().collect();
            for wire in wires {
                self.enter_recovery(wire, VirtualTime::ZERO);
            }
            return Ok(());
        }
        self.finish_restore(chain)
    }

    /// Applies one chain member's component snapshots, in place. No
    /// scheduler bookkeeping, no verification, no router traffic — safe to
    /// run against a core that is not (yet) the live engine, which is
    /// exactly how the warm-standby plane pre-applies the stream in the
    /// background (`crate::standby`).
    pub(crate) fn apply_member_snapshots(&mut self, ckpt: &EngineCheckpoint) {
        for (cid, snap) in &ckpt.components {
            let component = self
                .components
                .get_mut(cid)
                .expect("checkpoint names hosted component")
                .as_mut()
                .expect("not executing");
            component
                .restore(snap)
                .expect("replica checkpoint chain is well-formed");
        }
    }

    /// Reinstalls the determinism-fault log: re-calibrations in order
    /// (§II.G.4), whether or not a checkpoint was ever shipped — replay
    /// must use the old estimator up to each logged switch point and the
    /// new one after (the paper's time-100,000,000 example).
    fn apply_faults(&mut self, faults: &[(ComponentId, DeterminismFault)]) {
        for (cid, fault) in faults {
            if let Some(schedule) = self.estimators.get_mut(cid) {
                schedule
                    .apply_fault(fault)
                    .expect("fault log is monotone per component");
                self.metrics
                    .determinism_faults
                    .fetch_add(1, AtomicOrdering::Relaxed);
            }
            // Replay must not re-tune a second time at a different point:
            // the logged fault already covers this component.
            self.calibrators.remove(cid);
        }
    }

    /// Verifies the digests `ckpt` recorded against live component state —
    /// which must already reflect the chain up to and including `ckpt` —
    /// then the combined engine digest over the checkpoint's own recorded
    /// bookkeeping. Pure read of component state: no scheduler or router
    /// side effects, so the standby plane runs it after every background
    /// pre-apply and the cold path runs the identical check at the chain
    /// tail inside [`EngineCore::finish_restore`].
    pub(crate) fn verify_member(&mut self, ckpt: &EngineCheckpoint) -> Result<(), DivergenceFault> {
        let mut recomputed = BTreeMap::new();
        for (cid, expected) in &ckpt.component_hashes {
            let clock = ckpt.clocks.get(cid).copied().unwrap_or(VirtualTime::ZERO);
            let component = self
                .components
                .get_mut(cid)
                .expect("checkpoint names hosted component")
                .as_mut()
                .expect("not executing");
            let actual = component.state_hash(clock);
            if actual != *expected {
                self.obs.divergence(Some(*cid), clock);
                return Err(DivergenceFault {
                    component: Some(*cid),
                    vt: clock,
                    expected: *expected,
                    actual,
                });
            }
            recomputed.insert(*cid, actual);
        }
        self.obs.state_hashes_computed(recomputed.len() as u64 + 1);
        let combined = combined_state_hash(&recomputed, &ckpt.clocks, &ckpt.consumed, &ckpt.sent);
        if combined != ckpt.state_hash {
            let vt = ckpt
                .clocks
                .values()
                .copied()
                .max()
                .unwrap_or(VirtualTime::ZERO);
            self.obs.divergence(None, vt);
            return Err(DivergenceFault {
                component: None,
                vt,
                expected: ckpt.state_hash,
                actual: combined,
            });
        }
        Ok(())
    }

    /// Completes a restore whose component snapshots are already applied:
    /// scheduler bookkeeping and retention from the chain, digest
    /// verification at the tail, re-emission of retained external outputs,
    /// and replay-request arming for every input wire.
    ///
    /// # Errors
    ///
    /// A [`DivergenceFault`] when the applied state fails the tail digests.
    ///
    /// # Panics
    ///
    /// Panics on an empty chain (the empty case restores vacuously in
    /// [`EngineCore::restore_from`] and never reaches here).
    fn finish_restore(&mut self, chain: &[EngineCheckpoint]) -> Result<(), DivergenceFault> {
        let last = chain
            .last()
            .expect("finish_restore requires a non-empty chain");
        // Scheduler bookkeeping from the last checkpoint.
        for (cid, clock) in &last.clocks {
            self.mux.gate_mut(*cid).advance_clock(*clock);
        }
        for (w, vt) in &last.consumed {
            self.consumed.insert(*w, *vt);
        }
        for (w, vt) in &last.sent {
            self.sent_watermark.insert(*w, *vt);
            if let Some(buf) = self.retention.get_mut(w) {
                buf.reset_chain(Some(*vt));
            }
            // Everything through the send watermark was accounted to the
            // receiver before the failure; the advertiser must know, or
            // replay bursts would close with a zero horizon.
            if let Some(adv) = self.advertisers.get_mut(w) {
                adv.record_data(*vt);
            }
        }
        // In-flight retention from the chain (later checkpoints extend
        // earlier ones; `record` ignores frames at or before the back, and
        // `reset_chain` above cleared the buffers, so replaying the chain's
        // captures in order rebuilds each buffer exactly).
        for ckpt in chain {
            for (w, frames) in &ckpt.retention {
                if let Some(buf) = self.retention.get_mut(w) {
                    for (vt, payload) in frames {
                        buf.record(*vt, payload.clone());
                    }
                }
            }
        }
        // The chain's full head is the most conservative restart point a
        // future recovery could fall back to (a damaged delta tail strands
        // everything after the head): acks may advance to *its* consumed
        // watermarks at the next full persist, no further.
        let base = chain
            .iter()
            .rev()
            .find(|c| c.is_self_contained())
            .unwrap_or(last);
        self.durable_acked = base.consumed.iter().map(|(w, vt)| (*w, *vt)).collect();
        // Verified replay: the chain tail recorded a digest of every
        // component's state and of the engine bookkeeping; the restored
        // state must reproduce them exactly, or recovery did not
        // reconverge. Checked before any recovered output escapes below.
        self.last_chain_seal = last.chain_seal;
        self.verify_member(last)?;
        // External outputs: the channel the originals went down died with
        // the process, and their producing inputs are consumed per this
        // chain, so replay will never regenerate them — re-emit every
        // retained (= not yet drained-and-acked) frame now. A consumer that
        // did see some of them discards the duplicates by timestamp.
        let externals: Vec<(WireId, String)> = self
            .wire_dest
            .iter()
            .filter_map(|(w, d)| match d {
                WireDest::External(name) => Some((*w, name.clone())),
                _ => None,
            })
            .collect();
        for (w, consumer) in externals {
            let frames = match self.retention.get(&w) {
                Some(buf) => buf.replay_from(VirtualTime::ZERO),
                None => Vec::new(),
            };
            for (vt, payload) in frames {
                self.metrics
                    .outputs_emitted
                    .fetch_add(1, AtomicOrdering::Relaxed);
                let _ = self.outputs.send(OutputRecord {
                    consumer: consumer.clone(),
                    wire: w,
                    vt,
                    payload,
                });
            }
        }
        self.next_ckpt_full = true;
        self.ckpts_since_full = 0;
        self.ckpt_seq = last.seq + 1;
        // Every input wire: dedupe floor at the consumed watermark, then
        // recover via replay.
        let wires: Vec<WireId> = self.wire_source.keys().copied().collect();
        for wire in wires {
            let consumed = self.consumed.get(&wire).copied();
            if let Some(vt) = consumed {
                self.mux.promise_silence(wire, vt);
            }
            let from = consumed.map_or(VirtualTime::ZERO, VirtualTime::next);
            self.enter_recovery(wire, from);
        }
        Ok(())
    }

    /// Feeds one measured handler execution to the component's calibrator;
    /// once enough samples accumulate, fits block 0 by the paper's
    /// through-origin regression and installs the result as a determinism
    /// fault (§II.G.4's dynamic re-tuning). Each component re-tunes at most
    /// once per activation — faults are "an extra overhead whose frequency
    /// we expect to minimize".
    fn observe_sample(
        &mut self,
        cid: ComponentId,
        features: tart_model::Features,
        measured_ns: u64,
    ) {
        let Some(calibrator) = self.calibrators.get_mut(&cid) else {
            return;
        };
        calibrator.add_sample(features, measured_ns.max(1));
        if !calibrator.is_ready() {
            return;
        }
        let fitted = calibrator.fit_through_origin(tart_model::BlockId(0)).ok();
        self.calibrators.remove(&cid);
        if let Some((spec, _fit)) = fitted {
            self.recalibrate(cid, spec);
        }
    }

    /// Installs a re-calibrated estimator, synchronously logging the
    /// determinism fault first (§II.G.4).
    pub(crate) fn recalibrate(
        &mut self,
        component: ComponentId,
        spec: tart_estimator::EstimatorSpec,
    ) {
        let Some(schedule) = self.estimators.get_mut(&component) else {
            return;
        };
        let clock = self.mux.gate(component).clock();
        let latest = schedule
            .iter()
            .last()
            .map(|(vt, _)| vt)
            .unwrap_or(VirtualTime::ZERO);
        let vt = clock.max_with(latest).next();
        let fault = DeterminismFault { vt, new_spec: spec };
        // Log BEFORE use: replay must see the fault even if we crash
        // immediately after switching. Under durability the disk log is
        // part of that guarantee — if it refuses the record, skip the
        // re-calibration entirely (keeping the old estimator is always
        // safe; using a spec a cold restart would never learn of is not).
        if let Some(store) = &self.durable {
            // tart-lint: allow(TAINT-FLOW) -- fault-log ack only: the Err branch deterministically keeps the old estimator; the store's dir scan never reaches engine state
            if store.log_fault(self.id, component, &fault).is_err() {
                self.calibrators.remove(&component);
                return;
            }
        }
        self.replica.log_fault(component, fault.clone());
        self.estimators
            .get_mut(&component)
            .expect("checked above")
            .apply_fault(&fault)
            .expect("switch time is past every earlier switch");
        self.metrics
            .determinism_faults
            .fetch_add(1, AtomicOrdering::Relaxed);
        self.obs.recalibration(component, vt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use crossbeam::channel::unbounded;
    use tart_estimator::EstimatorSpec;
    use tart_model::reference::{self, fan_in_app};
    use tart_model::BlockId;

    fn vt(t: u64) -> VirtualTime {
        VirtualTime::from_ticks(t)
    }

    /// A single-engine core for the Fig 1 app with paper-style estimators.
    fn single_core() -> (EngineCore, crossbeam::channel::Receiver<OutputRecord>) {
        let spec = fan_in_app(2).unwrap();
        let placement = Placement::single_engine(&spec);
        let mut config = ClusterConfig::logical_time().with_checkpoint_every(1_000);
        for name in ["Sender1", "Sender2"] {
            let cid = spec.component_by_name(name).unwrap().id();
            config = config.with_estimator(
                cid,
                EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000),
            );
        }
        let merger = spec.component_by_name("Merger").unwrap().id();
        config = config.with_estimator(merger, EstimatorSpec::per_iteration(BlockId(0), 400_000));
        let router = Router::new(FaultPlan::none());
        let replica = ReplicaStore::new();
        let (tx, rx) = unbounded();
        let core = EngineCore::new(
            EngineId::new(0),
            &spec,
            &placement,
            &config,
            router,
            replica,
            tx,
        );
        (core, rx)
    }

    fn client_wires(core: &EngineCore) -> (WireId, WireId) {
        let ins = core.spec.external_inputs();
        (ins[0].id(), ins[1].id())
    }

    fn data(wire: WireId, t: u64, prev: u64, payload: &str) -> Envelope {
        Envelope::Data {
            wire,
            vt: vt(t),
            prev_vt: vt(prev),
            payload: Value::from(payload),
        }
    }

    #[test]
    fn paper_example_flows_end_to_end() {
        let (mut core, outputs) = single_core();
        let (w1, w2) = client_wires(&core);
        // §II.E: sentences of length 3 and 2 at times 50 000 and 80 000.
        assert_eq!(core.handle(data(w1, 50_000, 0, "a b c")), Flow::Continue);
        assert_eq!(core.handle(data(w2, 80_000, 0, "d e")), Flow::Continue);
        core.pump();
        // Senders ran, but the merger needs client silence to proceed
        // (clients might still deliver earlier external messages).
        core.handle(Envelope::Eos {
            wire: w1,
            last_data: vt(50_000),
        });
        core.handle(Envelope::Eos {
            wire: w2,
            last_data: vt(80_000),
        });
        core.pump();
        let outs: Vec<OutputRecord> = outputs.try_iter().collect();
        assert_eq!(outs.len(), 2, "merger emitted one output per sentence");
        // Sender2's message (vt 202 000) processed before Sender1's (233 000):
        // output vts are 202 000+400 000 and max(233 000, 602 000)+400 000.
        assert_eq!(outs[0].vt, vt(602_000));
        assert_eq!(outs[1].vt, vt(1_002_000));
        assert_eq!(outs[0].payload.get("seq").unwrap(), &Value::I64(1));
        assert_eq!(outs[1].payload.get("seq").unwrap(), &Value::I64(2));
        assert_eq!(core.metrics().processed, 4);
    }

    #[test]
    fn duplicate_data_is_discarded_by_timestamp() {
        let (mut core, _outputs) = single_core();
        let (w1, _) = client_wires(&core);
        core.handle(data(w1, 50_000, 0, "a"));
        core.handle(data(w1, 50_000, 0, "a")); // duplicated by the link
        core.pump();
        assert_eq!(core.metrics().duplicates_dropped, 1);
    }

    #[test]
    fn lost_message_triggers_replay_request_via_prev_chain() {
        let (mut core, _outputs) = single_core();
        let (w1, _) = client_wires(&core);
        core.handle(data(w1, 50_000, 0, "a"));
        // The message at 60 000 was lost; its successor names it.
        core.handle(data(w1, 70_000, 60_000, "c"));
        assert!(core.is_recovering());
        let m = core.metrics();
        assert_eq!(m.losses_detected, 1);
        assert_eq!(m.replay_requests_sent, 1);
        // The replay arrives (external wires are served by the cluster; here
        // we hand-feed what the log would resend).
        core.handle(data(w1, 60_000, 50_000, "b"));
        core.handle(Envelope::ReplayDone {
            wire: w1,
            through: vt(70_000),
            frames: 1,
        });
        assert!(!core.is_recovering());
        core.pump();
        assert_eq!(
            core.metrics().processed,
            3,
            "all three sentences processed in order"
        );
    }

    #[test]
    fn checkpoint_restore_reproduces_state_and_outputs() {
        // Run A: process, checkpoint, process more, recording outputs.
        let (mut a, outputs_a) = single_core();
        let (w1, w2) = client_wires(&a);
        a.handle(data(w1, 50_000, 0, "x y"));
        a.handle(data(w2, 60_000, 0, "x"));
        a.pump();
        a.handle(Envelope::Checkpoint);
        let replica = a.replica.clone();
        assert_eq!(replica.len(), 1);
        a.handle(data(w1, 900_000, 50_000, "x z"));
        a.handle(Envelope::Eos {
            wire: w1,
            last_data: vt(900_000),
        });
        a.handle(Envelope::Eos {
            wire: w2,
            last_data: vt(60_000),
        });
        a.pump();
        let outs_a: Vec<OutputRecord> = outputs_a.try_iter().collect();
        assert_eq!(outs_a.len(), 3);

        // Run B: a fresh core restored from A's replica — the failover path.
        let (mut b, outputs_b) = single_core();
        b.restore(&replica.chain(), &replica.faults())
            .expect("restore verifies against recorded hashes");
        assert!(b.is_recovering());
        assert_eq!(
            b.metrics().replay_requests_sent,
            4,
            "all four input wires (two external, two internal) ask for replay"
        );
        // The cluster supervisor would replay the log; hand-feed it here.
        b.handle(data(w1, 900_000, 50_000, "x z"));
        b.handle(Envelope::ReplayDone {
            wire: w1,
            through: VirtualTime::MAX,
            frames: 1,
        });
        b.handle(Envelope::ReplayDone {
            wire: w2,
            through: VirtualTime::MAX,
            frames: 0,
        });
        assert!(!b.is_recovering());
        b.pump();
        let outs_b: Vec<OutputRecord> = outputs_b.try_iter().collect();
        // At checkpoint time the merger had processed one message; the
        // restored engine re-executes the remaining two with IDENTICAL
        // virtual times and payloads as A's second and third outputs:
        // determinism makes recovery invisible (modulo stutter).
        assert_eq!(outs_b.len(), 2);
        assert_eq!(outs_b[0].vt, outs_a[1].vt);
        assert_eq!(outs_b[0].payload, outs_a[1].payload);
        assert_eq!(outs_b[1].vt, outs_a[2].vt);
        assert_eq!(outs_b[1].payload, outs_a[2].payload);
    }

    #[test]
    fn restore_without_any_checkpoint_replays_from_zero() {
        let (mut a, _out) = single_core();
        let replica = a.replica.clone();
        a.restore(&replica.chain(), &[])
            .expect("restore verifies against recorded hashes");
        assert!(a.is_recovering());
        assert_eq!(a.metrics().replay_requests_sent, 4);
    }

    #[test]
    fn recalibration_is_logged_and_survives_restore() {
        let (mut a, _out) = single_core();
        let (w1, w2) = client_wires(&a);
        let s1 = a.spec.component_by_name("Sender1").unwrap().id();
        a.handle(data(w1, 50_000, 0, "a b c"));
        a.pump();
        a.handle(Envelope::Checkpoint);
        // Re-calibrate Sender1 from 61 000 to 62 000 ticks/iteration.
        a.handle(Envelope::Recalibrate {
            component: s1,
            spec: EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 62_000),
        });
        let replica = a.replica.clone();
        assert_eq!(replica.faults().len(), 1);
        a.handle(data(w1, 900_000, 50_000, "d e f"));
        a.handle(Envelope::Eos {
            wire: w1,
            last_data: vt(900_000),
        });
        a.handle(Envelope::Eos {
            wire: w2,
            last_data: VirtualTime::ZERO,
        });
        a.pump();
        let orig_watermark = a.sent_watermark.clone();

        // Restore: the fault log reinstalls the new coefficient, so the
        // re-executed message reproduces the same output time.
        let (mut b, _out_b) = single_core();
        b.restore(&replica.chain(), &replica.faults())
            .expect("restore verifies against recorded hashes");
        assert_eq!(b.metrics().determinism_faults, 1);
        for wire in [w1, w2] {
            let frames = if wire == w1 {
                b.handle(data(w1, 900_000, 50_000, "d e f"));
                1
            } else {
                0
            };
            b.handle(Envelope::ReplayDone {
                wire,
                through: VirtualTime::MAX,
                frames,
            });
        }
        b.pump();
        assert_eq!(b.sent_watermark, orig_watermark);
    }

    #[test]
    fn probe_answer_reports_truthful_bound() {
        // Two engines: senders on e0, merger on e1. We drive e0 directly and
        // capture what it sends to e1 through the router.
        let spec = fan_in_app(2).unwrap();
        let s1 = spec.component_by_name("Sender1").unwrap().id();
        let s2 = spec.component_by_name("Sender2").unwrap().id();
        let merger = spec.component_by_name("Merger").unwrap().id();
        let mut placement = Placement::new();
        placement
            .assign(s1, EngineId::new(0))
            .assign(s2, EngineId::new(0))
            .assign(merger, EngineId::new(1));
        let config = ClusterConfig::logical_time()
            .with_estimator(
                s1,
                EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000),
            )
            .with_estimator(
                s2,
                EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000),
            );
        let router = Router::new(FaultPlan::none());
        let (e1_tx, e1_rx) = unbounded();
        router.register(EngineId::new(1), e1_tx);
        let (out_tx, _out_rx) = unbounded();
        let mut e0 = EngineCore::new(
            EngineId::new(0),
            &spec,
            &placement,
            &config,
            router.clone(),
            ReplicaStore::new(),
            out_tx,
        );
        let sender_out_wire = spec.output_wires_of(s1)[0].id();
        let client1 = spec.external_inputs()[0].id();

        // With the client silent through 1 000 000, an idle Sender1 cannot
        // produce anything before 1 000 000 + min_work.
        e0.handle(Envelope::Silence {
            wire: client1,
            through: vt(1_000_000),
            last_data: VirtualTime::ZERO,
        });
        e0.handle(Envelope::Probe {
            wire: sender_out_wire,
            needed_through: vt(5_000_000),
        });
        let replies: Vec<Envelope> = e1_rx.try_iter().collect();
        assert_eq!(replies.len(), 1);
        match &replies[0] {
            Envelope::Silence { wire, through, .. } => {
                assert_eq!(*wire, sender_out_wire);
                assert_eq!(
                    *through,
                    vt(1_000_001),
                    "earliest input + 1 tick min work - 1"
                );
            }
            other => panic!("expected silence reply, got {other:?}"),
        }
    }

    #[test]
    fn trim_ack_shrinks_retention() {
        let (mut core, _out) = single_core();
        let (w1, w2) = client_wires(&core);
        core.handle(data(w1, 50_000, 0, "a b"));
        core.handle(data(w2, 60_000, 0, "c"));
        core.pump();
        let s1 = core.spec.component_by_name("Sender1").unwrap().id();
        let internal = core.spec.output_wires_of(s1)[0].id();
        assert_eq!(core.retention[&internal].len(), 1);
        let sent_vt = core.retention[&internal].last_sent().unwrap();
        core.handle(Envelope::TrimAck {
            wire: internal,
            through: sent_vt,
        });
        assert_eq!(core.retention[&internal].len(), 0);
    }

    #[test]
    fn drain_and_die_flows() {
        let (mut core, _out) = single_core();
        assert_eq!(core.handle(Envelope::Drain), Flow::Drain);
        assert_eq!(core.handle(Envelope::Die), Flow::Die);
    }

    #[test]
    fn same_engine_call_executes_inline() {
        use std::sync::Arc;
        use tart_model::{AppSpec, CheckpointMode, Ctx, RestoreError, Snapshot};

        /// Calls its port-1 neighbour and forwards the reply.
        #[derive(Default)]
        struct Caller;
        impl Component for Caller {
            fn on_message(&mut self, _p: PortId, msg: &Value, ctx: &mut dyn Ctx) {
                let reply = ctx.call(PortId::new(1), msg.clone());
                ctx.send(PortId::new(2), reply);
            }
            fn checkpoint(&mut self, _m: CheckpointMode, vt: VirtualTime) -> Snapshot {
                Snapshot::new(vt)
            }
            fn restore(&mut self, _s: &Snapshot) -> Result<(), RestoreError> {
                Ok(())
            }
        }
        /// Doubles what it is asked.
        #[derive(Default)]
        struct Doubler;
        impl Component for Doubler {
            fn on_message(&mut self, _p: PortId, _m: &Value, _c: &mut dyn Ctx) {}
            fn on_call(&mut self, _p: PortId, req: &Value, _c: &mut dyn Ctx) -> Value {
                Value::I64(req.as_i64().unwrap_or(0) * 2)
            }
            fn checkpoint(&mut self, _m: CheckpointMode, vt: VirtualTime) -> Snapshot {
                Snapshot::new(vt)
            }
            fn restore(&mut self, _s: &Snapshot) -> Result<(), RestoreError> {
                Ok(())
            }
        }

        let mut b = AppSpec::builder();
        let caller = b.component(
            "Caller",
            Arc::new(|| Box::new(Caller) as Box<dyn Component>),
        );
        let doubler = b.component(
            "Doubler",
            Arc::new(|| Box::new(Doubler) as Box<dyn Component>),
        );
        b.wire_in("in", caller, PortId::new(0));
        b.wire(caller, PortId::new(1), doubler, PortId::new(0));
        b.wire_out(caller, PortId::new(2), "out");
        let spec = b.build().unwrap();
        let placement = Placement::single_engine(&spec);
        let config = ClusterConfig::logical_time();
        let (tx, rx) = unbounded();
        let mut core = EngineCore::new(
            EngineId::new(0),
            &spec,
            &placement,
            &config,
            Router::new(FaultPlan::none()),
            ReplicaStore::new(),
            tx,
        );
        let in_wire = spec.external_inputs()[0].id();
        core.handle(Envelope::Data {
            wire: in_wire,
            vt: vt(1_000),
            prev_vt: VirtualTime::ZERO,
            payload: Value::I64(21),
        });
        core.pump();
        let outs: Vec<OutputRecord> = rx.try_iter().collect();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].payload, Value::I64(42));
    }

    #[test]
    fn auto_recalibration_logs_a_fault_and_survives_restore() {
        let spec = fan_in_app(2).unwrap();
        let placement = Placement::single_engine(&spec);
        let mut config = ClusterConfig::logical_time().with_auto_recalibrate_after(3);
        for name in ["Sender1", "Sender2"] {
            let cid = spec.component_by_name(name).unwrap().id();
            config = config.with_estimator(
                cid,
                EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000),
            );
        }
        let replica = ReplicaStore::new();
        let (tx, _rx) = unbounded();
        let mut core = EngineCore::new(
            EngineId::new(0),
            &spec,
            &placement,
            &config,
            Router::new(FaultPlan::none()),
            replica.clone(),
            tx,
        );
        let (w1, _) = client_wires(&core);
        // Three measured executions arm and fire the re-calibration.
        core.handle(data(w1, 50_000, 0, "a b c"));
        core.handle(data(w1, 150_000, 50_000, "d e"));
        core.handle(data(w1, 250_000, 150_000, "f g h i"));
        core.pump();
        let m = core.metrics();
        assert!(
            m.determinism_faults >= 1,
            "dynamic re-tuning should have fired, metrics: {m:?}"
        );
        assert!(!replica.faults().is_empty(), "fault logged synchronously");

        // A restored engine replays the fault and does not re-tune again.
        let (tx2, _rx2) = unbounded();
        let mut restored = EngineCore::new(
            EngineId::new(0),
            &spec,
            &placement,
            &config,
            Router::new(FaultPlan::none()),
            ReplicaStore::new(),
            tx2,
        );
        restored
            .restore(&replica.chain(), &replica.faults())
            .expect("restore verifies against recorded hashes");
        assert!(restored.metrics().determinism_faults >= 1);
    }
}
