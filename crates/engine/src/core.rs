//! The single-threaded engine state machine.
//!
//! [`EngineCore`] owns everything one execution engine needs: its hosted
//! components, the deterministic input mux, retention buffers, silence
//! bookkeeping, recovery stashes and checkpoint machinery. It is *pure
//! state*: envelopes go in ([`EngineCore::handle`]), work gets done
//! ([`EngineCore::pump`]), envelopes go out through the [`Router`]. The
//! threaded wrapper in [`crate::Cluster`] is a thin loop around it, which is
//! what makes the recovery protocol unit-testable without threads.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tart_estimator::{Calibrator, DeterminismFault, EstimatorSchedule};
use tart_model::{AppSpec, CheckpointMode, Component, Endpoint, Features, Value};
use tart_sched::{GateDecision, InputMux};
use tart_silence::{ProbeTracker, SilenceAdvertiser, SilencePolicy};
use tart_vtime::{ComponentId, EngineId, PortId, VirtualDuration, VirtualTime, WireId};

use crate::checkpoint::{combined_state_hash, DivergenceFault};
use crate::ctx::EngineCtx;
use crate::retention::RetentionBuffer;
use crate::{
    CheckpointStore, ClusterConfig, DurabilityPolicy, EngineCheckpoint, Envelope, Placement,
    ReplicaStore, Router,
};
use tart_model::StateHash;

/// Where an incoming wire's ticks come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WireSource {
    /// Another component on this same engine.
    Local,
    /// A component on another engine.
    Remote(EngineId),
    /// An external producer (replays come from the message log, served by
    /// the cluster).
    External,
}

/// Where an internal outgoing wire's ticks go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WireDest {
    /// A component on this same engine.
    Local,
    /// A component on another engine.
    Remote(EngineId),
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

/// The receiver's record of one input wire of a hosted component.
struct InputWire {
    source: WireSource,
    /// The hosted component and port the wire delivers to.
    to: ComponentId,
    port: PortId,
    /// Tick of the last message delivered from this wire; `None` until the
    /// first delivery (checkpoints list only wires that have consumed).
    consumed: Option<VirtualTime>,
    /// Consumed watermark as of the *previous* full capture — the
    /// watermark the next `TrimAck` may carry, on every durability tier.
    /// Recovery may fall back a whole restore chain (to the previous full),
    /// from the replica or from disk, so upstream retention must keep
    /// everything past the full capture *before* the newest; acking one
    /// full generation late guarantees exactly that.
    ack_through: Option<VirtualTime>,
    /// Present while the wire is recovering.
    recovering: Option<RecoveryStash>,
}

/// The sender's record of one output wire of a hosted component.
struct OutputWire {
    /// The hosted sender, its minimum work and the wire's link delay —
    /// the config terms of the silence bound, resolved at construction.
    from: ComponentId,
    min_work: VirtualDuration,
    link_delay: VirtualDuration,
    /// Deterministic send watermark (checkpointed: replays must reproduce
    /// identical virtual times); `None` until the first send.
    sent: Option<VirtualTime>,
    kind: OutputKind,
}

enum OutputKind {
    Internal(InternalWire),
    /// To an external consumer. External consumers track stutter by
    /// timestamp; they need neither replay retention nor silence, and never
    /// speak the EOS protocol — consumers are not engines. `retention`
    /// exists only under durability (see [`EngineCore::set_durable`]).
    External {
        consumer: String,
        retention: Option<RetentionBuffer>,
    },
}

/// What only a wire to another component has: it is retained for replay,
/// advertises silence, and closes with EOS on graceful drain.
struct InternalWire {
    dest: WireDest,
    retention: RetentionBuffer,
    advertiser: SilenceAdvertiser,
    /// The end-of-stream marker has been transmitted.
    eos_sent: bool,
}

impl OutputWire {
    fn internal_mut(&mut self) -> Option<&mut InternalWire> {
        match &mut self.kind {
            OutputKind::Internal(internal) => Some(internal),
            OutputKind::External { .. } => None,
        }
    }

    fn retention_mut(&mut self) -> Option<&mut RetentionBuffer> {
        match &mut self.kind {
            OutputKind::Internal(internal) => Some(&mut internal.retention),
            OutputKind::External { retention, .. } => retention.as_mut(),
        }
    }
}

/// One hosted component and what the engine keeps beside it.
struct Hosted {
    /// Taken out during handler execution.
    component: Option<Box<dyn Component>>,
    estimator: EstimatorSchedule,
    /// Dynamic re-tuning state: the sample collector, present only while
    /// auto-recalibration is armed for this component.
    calibrator: Option<Calibrator>,
    /// Output wires by sending port, in id order (more than one means
    /// broadcast); shared so routing a send holds no borrow of the table.
    out_ports: BTreeMap<PortId, Arc<[WireId]>>,
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
    config: ClusterConfig,
    mux: InputMux<Value>,
    /// One record per input wire, per output wire and per hosted component,
    /// built once in [`EngineCore::new`]. Ordered maps: checkpoint capture
    /// and probe order iterate them.
    inputs: BTreeMap<WireId, InputWire>,
    outputs: BTreeMap<WireId, OutputWire>,
    hosted: BTreeMap<ComponentId, Hosted>,
    probes: ProbeTracker,
    /// Probes this engine could not cover yet: output wire → the highest
    /// `needed_through` asked beyond its silence bound. [`EngineCore::pump`]
    /// answers them as the bound moves. Volatile: never checkpointed.
    held_probes: BTreeMap<WireId, VirtualTime>,
    router: Router,
    replica: ReplicaStore,
    /// On-disk checkpoint store, when the cluster runs with durability,
    /// and whether persists fsync ([`CheckpointStore::persist_with`]).
    /// Checkpoints tee here; `TrimAck`s wait for the persist to succeed.
    durable: Option<(Arc<CheckpointStore>, bool)>,
    output_tx: crossbeam::channel::Sender<OutputRecord>,
    processed_since_ckpt: u64,
    ckpt_seq: u64,
    next_ckpt_full: bool,
    /// Seal of the most recent checkpoint in the hash chain; the next delta
    /// generation seals over it ([`EngineCheckpoint::seal`]).
    last_chain_seal: StateHash,
    /// Durable checkpoints since the last full generation, for the
    /// `full_checkpoint_every` cadence.
    ckpts_since_full: u32,
    /// Without durability the full cadence is counted in bytes instead:
    /// `payload_bytes()` of the last Full capture, and of the Incremental
    /// ones shipped since.
    full_bytes: usize,
    delta_bytes_since_full: usize,
    /// Telemetry handle (ops plane), and the engine's only counters.
    /// Strictly write-only from the core's perspective: nothing recorded
    /// here is ever read back, so it cannot influence replayed decisions,
    /// and none of it enters checkpoints. Restore and pre-apply record no
    /// live-traffic counter: a warm standby's passive core shares this
    /// engine's shard.
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
        let engine_of = |c: ComponentId| placement.engine_of(c).expect("placement covers the app");
        let mut mux = InputMux::new();
        let mut inputs = BTreeMap::new();
        let mut out_wires = BTreeMap::new();
        let mut hosted = BTreeMap::new();
        for &cid in &local {
            let cspec = spec.component(cid).expect("placed component exists");
            let in_wires = spec.input_wires_of(cid);
            mux.add_component(cid, in_wires.iter().map(|w| w.id()));
            for w in in_wires {
                let source = match w.from().component() {
                    Some(src) if engine_of(src) == id => WireSource::Local,
                    Some(src) => WireSource::Remote(engine_of(src)),
                    None => WireSource::External,
                };
                inputs.insert(
                    w.id(),
                    InputWire {
                        source,
                        to: cid,
                        port: w.to().port().unwrap_or(PortId::new(0)),
                        consumed: None,
                        ack_through: None,
                        recovering: None,
                    },
                );
            }
            let mut out_ports: BTreeMap<PortId, Vec<WireId>> = BTreeMap::new();
            for w in spec.output_wires_of(cid) {
                if let Some(port) = w.from().port() {
                    out_ports.entry(port).or_default().push(w.id());
                }
                let kind = match w.to() {
                    Endpoint::Component { component, .. } => OutputKind::Internal(InternalWire {
                        dest: match engine_of(*component) {
                            e if e == id => WireDest::Local,
                            e => WireDest::Remote(e),
                        },
                        retention: RetentionBuffer::default(),
                        advertiser: SilenceAdvertiser::new(w.id()),
                        eos_sent: false,
                    }),
                    Endpoint::External { name } => OutputKind::External {
                        consumer: name.clone(),
                        retention: None,
                    },
                };
                out_wires.insert(
                    w.id(),
                    OutputWire {
                        from: cid,
                        min_work: config.min_work_for(cid),
                        link_delay: config.link_delay_for(w.id()),
                        sent: None,
                        kind,
                    },
                );
            }
            hosted.insert(
                cid,
                Hosted {
                    component: Some(cspec.instantiate()),
                    estimator: EstimatorSchedule::new(config.estimator_for(cid)),
                    calibrator: config
                        .auto_recalibrate_after
                        .map(|n| Calibrator::new(n as usize)),
                    out_ports: out_ports.into_iter().map(|(p, w)| (p, w.into())).collect(),
                },
            );
        }
        EngineCore {
            id,
            config: config.clone(),
            mux,
            inputs,
            outputs: out_wires,
            hosted,
            probes: ProbeTracker::new(),
            held_probes: BTreeMap::new(),
            router,
            replica,
            durable: None,
            output_tx: outputs,
            processed_since_ckpt: 0,
            ckpt_seq: 0,
            next_ckpt_full: true,
            last_chain_seal: StateHash::ZERO,
            ckpts_since_full: 0,
            full_bytes: 0,
            delta_bytes_since_full: 0,
            // tart-lint: allow(TAINT-FLOW) -- obs handle construction: the hub's epoch stamp is telemetry zero-point, never read back by replayed logic
            obs: tart_obs::EngineObs::detached(id),
        }
    }

    /// Attaches the on-disk checkpoint store at the engine's durability
    /// `tier`: every checkpoint is now also persisted — as a full
    /// generation every
    /// [`crate::DurabilityConfig::full_checkpoint_every`] checkpoints and as
    /// a delta against the last full one in between — and retention
    /// `TrimAck`s, one full capture behind on every tier, also wait for
    /// that full's persist to succeed.
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
    ///
    /// The tier picks the checkpoint fsync: [`DurabilityPolicy::Strict`]
    /// persists with a data fsync before shipping,
    /// [`DurabilityPolicy::Buffered`] leaves writeback to the kernel
    /// (persist-before-ship ordering and `TrimAck` gating are the same
    /// either way), and [`DurabilityPolicy::InMemory`] attaches nothing —
    /// its only recovery sources are the passive replica and peer replay,
    /// so a whole-process crash restarts it from scratch.
    pub(crate) fn set_durable(&mut self, store: Arc<CheckpointStore>, tier: DurabilityPolicy) {
        if tier == DurabilityPolicy::InMemory {
            return;
        }
        self.durable = Some((store, tier == DurabilityPolicy::Strict));
        for out in self.outputs.values_mut() {
            if let OutputKind::External { retention, .. } = &mut out.kind {
                retention.get_or_insert_with(RetentionBuffer::default);
            }
        }
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

    /// Whether any input wire is still in recovery.
    pub(crate) fn is_recovering(&self) -> bool {
        self.inputs.values().any(|i| i.recovering.is_some())
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
            let markers: Vec<(WireId, WireDest, VirtualTime)> = self
                .outputs
                .iter_mut()
                .filter(|(_, out)| out.from == cid)
                .filter_map(|(w, out)| {
                    let internal = out.internal_mut().filter(|i| !i.eos_sent)?;
                    internal.eos_sent = true;
                    let last_data = internal.retention.last_sent();
                    Some((*w, internal.dest, last_data.unwrap_or(VirtualTime::ZERO)))
                })
                .collect();
            for (wire, dest, last_data) in markers {
                self.transmit(dest, Envelope::Eos { wire, last_data });
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
            } => self.on_data(wire, vt, prev_vt, payload),
            Envelope::Silence {
                wire,
                through,
                last_data,
            } => self.on_silence(wire, through, last_data),
            Envelope::Eos { wire, last_data } => self.on_silence(wire, VirtualTime::MAX, last_data),
            Envelope::Probe {
                wire,
                needed_through,
            } => self.answer_probe(wire, needed_through),
            Envelope::ReplayRequest { wire, from } => self.serve_replay(wire, from),
            Envelope::ReplayDone {
                wire,
                through,
                frames,
            } => self.finish_recovery(wire, through, frames),
            Envelope::TrimAck { wire, through } => {
                let out = self.outputs.get_mut(&wire);
                if let Some(buf) = out.and_then(OutputWire::retention_mut) {
                    buf.trim_through(through);
                }
            }
            Envelope::Checkpoint => self.take_checkpoint(),
            Envelope::Recalibrate { component, spec } => self.recalibrate(component, spec),
            Envelope::SetSilencePolicy { policy } => {
                // Safe without a determinism fault: the identities of silent
                // ticks depend only on estimators; this changes only how
                // eagerly silence is communicated (§II.G.4).
                self.config.silence = policy;
                self.pump();
            }
            // Heartbeats are addressed to the supervisor inbox, never to an
            // engine; one arriving here (a mis-route) is ignored.
            Envelope::Heartbeat { .. } => {}
            // Input-head advances are addressed to the standby plane's
            // sentinel inbox, never to an engine; one arriving here (a
            // mis-route) is ignored.
            Envelope::StandbyInput { .. } => {}
            Envelope::Die => return Flow::Die,
            Envelope::Drain => return Flow::Drain,
        }
        Flow::Continue
    }

    fn on_data(&mut self, wire: WireId, vt: VirtualTime, prev_vt: VirtualTime, payload: Value) {
        let Some(input) = self.inputs.get_mut(&wire) else {
            return; // not our wire (stale routing); drop
        };
        // Warm standby: every external arrival is already logged (and thus
        // replayable), so advancing the standby plane's notion of this
        // engine's input head costs one control-plane envelope and lets the
        // plane pace its trailing-horizon pre-apply. Best-effort — with no
        // plane registered the router drops the envelope silently.
        if self.config.standby.is_some() && input.source == WireSource::External {
            self.router.send(
                crate::router::STANDBY_ENGINE,
                Envelope::StandbyInput {
                    engine: self.id,
                    wire,
                    vt,
                },
            );
        }
        if let Some(stash) = &mut input.recovering {
            stash.data.insert(vt, (prev_vt, payload));
            return;
        }
        let target = input.to;
        self.probes.on_reply(wire);
        if !self.config.deterministic {
            // Baseline mode: a conventional runtime — process immediately,
            // in real-time arrival order, no pessimism, no recoverability.
            let dequeue_vt = vt.max_with(self.mux.gate(target).clock());
            self.process_delivery(target, wire, vt, dequeue_vt, payload);
            return;
        }
        // Gap detection via the prev_vt chain (§II.F.4): if the predecessor
        // tick never arrived, a message was lost — stash this one and ask
        // the source to replay the hole.
        if let Some(from) = self.gap_before(wire, target, prev_vt) {
            self.enter_recovery(wire, from, |stash| {
                stash.data.insert(vt, (prev_vt, payload));
            });
            return;
        }
        // A timestamp at or below the accounted watermark is a replayed or
        // link-duplicated message, refused by the gate: "the duplicate
        // messages will have duplicate timestamps and will be discarded"
        // (§II.F.4).
        if self.mux.push_message(wire, vt, payload).is_ok() {
            // Pessimism-wait stamp: the message is now held by the gate
            // until silence releases it; delivery pops the stamp.
            self.obs.message_arrived(wire, vt);
        }
    }

    fn on_silence(&mut self, wire: WireId, through: VirtualTime, last_data: VirtualTime) {
        let Some(input) = self.inputs.get_mut(&wire) else {
            return;
        };
        if !self.config.deterministic {
            // The arrival-order baseline has no tick accounting to keep
            // honest; silence only matters for the drain handshake.
            self.mux.promise_silence(wire, through);
            return;
        }
        if let Some(stash) = &mut input.recovering {
            stash.silence = Some(stash.silence.map_or(through, |s| s.max(through)));
            return;
        }
        let target = input.to;
        self.probes.on_reply(wire);
        // Tail-loss detection: the sender has transmitted data through
        // `last_data`, but our account never saw it — a message with no
        // successor was lost. Applying `through` now would mask the hole.
        if let Some(from) = self.gap_before(wire, target, last_data) {
            self.enter_recovery(wire, from, |stash| stash.silence = Some(through));
            return;
        }
        self.mux.promise_silence(wire, through);
    }

    /// The gap check behind data and silence arrivals: the sender says its
    /// last data tick before this arrival was `chained`; if `target`'s gate
    /// never accounted for it, a message was lost. Returns where the replay
    /// must start.
    fn gap_before(
        &self,
        wire: WireId,
        target: ComponentId,
        chained: VirtualTime,
    ) -> Option<VirtualTime> {
        let gate = self.mux.gate(target);
        let heard = gate.has_heard(wire);
        let accounted = gate.accounted_through(wire);
        if chained == VirtualTime::ZERO || (heard && chained <= accounted) {
            return None;
        }
        Some(if heard {
            accounted.next()
        } else {
            VirtualTime::ZERO
        })
    }

    /// Marks `wire` recovering (stashing all arrivals), issues a replay
    /// request starting at `from`, and lets the caller `park` the arrival
    /// that exposed the gap. A local source answers in full before the
    /// request returns; an arrival still naming a hole after that was never
    /// sent by it, and is dropped.
    fn enter_recovery(
        &mut self,
        wire: WireId,
        from: VirtualTime,
        park: impl FnOnce(&mut RecoveryStash),
    ) {
        let Some(input) = self.inputs.get_mut(&wire) else {
            return;
        };
        let stash = input.recovering.get_or_insert_with(RecoveryStash::default);
        stash.requested_from = from;
        let source = input.source;
        self.request_replay(wire, source, from);
        let input = self.inputs.get_mut(&wire);
        if let Some(stash) = input.and_then(|i| i.recovering.as_mut()) {
            park(stash);
        }
    }

    fn request_replay(&mut self, wire: WireId, source: WireSource, from: VirtualTime) {
        self.obs.replay_requested(wire, from);
        let engine = match source {
            // Self-request: serve immediately from restored retention.
            WireSource::Local => return self.serve_replay(wire, from),
            WireSource::Remote(engine) => engine,
            // The cluster supervisor answers external replays from the
            // message log (§II.F.4: "if the 'sender' is an external
            // component rather than another TART component, then the
            // messages are re-sent from the log").
            WireSource::External => crate::router::EXTERNAL_ENGINE,
        };
        self.router
            .send(engine, Envelope::ReplayRequest { wire, from });
    }

    /// The internal half of output `wire`'s record; `None` for an external
    /// output or a wire not sent from here.
    fn internal_out(&mut self, wire: WireId) -> Option<&mut InternalWire> {
        self.outputs.get_mut(&wire)?.internal_mut()
    }

    /// Serves a replay request for an internal wire sourced on this engine.
    fn serve_replay(&mut self, wire: WireId, from: VirtualTime) {
        let Some(internal) = self.internal_out(wire) else {
            return;
        };
        let (dest, through) = (internal.dest, internal.advertiser.advertised_through());
        let frames = internal.retention.replay_from(from);
        let sent = frames.len() as u64;
        let mut prev = VirtualTime::ZERO;
        for (vt, payload) in frames {
            self.transmit(
                dest,
                Envelope::Data {
                    wire,
                    vt,
                    prev_vt: prev,
                    payload,
                },
            );
            prev = vt;
        }
        self.transmit(
            dest,
            Envelope::ReplayDone {
                wire,
                through,
                frames: sent,
            },
        );
    }

    fn finish_recovery(&mut self, wire: WireId, through: VirtualTime, frames: u64) {
        let Some(input) = self.inputs.get_mut(&wire) else {
            return;
        };
        let Some(stash) = input.recovering.take() else {
            // Not recovering: a ReplayDone doubles as an authoritative
            // silence promise (it cannot be lost — control plane).
            self.mux.promise_silence(wire, through);
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
            let (source, from) = (input.source, stash.requested_from);
            input.recovering = Some(stash);
            self.request_replay(wire, source, from);
            return;
        }
        // Accept the covered prefix.
        let mut refeed = Vec::new();
        for (vt, (prev_vt, payload)) in stash.data {
            if vt <= through {
                // Duplicates are refused by timestamp, as in `on_data`.
                let _ = self.mux.push_message(wire, vt, payload);
            } else {
                refeed.push((vt, prev_vt, payload));
            }
        }
        let silent = stash.silence.map_or(through, |s| s.max(through));
        self.mux.promise_silence(wire, silent);
        // Frames past the replay horizon re-enter the normal path: their
        // prev_vt chains re-detect any hole that remains and re-request.
        for (vt, prev_vt, payload) in refeed {
            self.on_data(wire, vt, prev_vt, payload);
        }
    }

    /// Answers a curiosity probe for an internal output wire of this
    /// engine: compute the freshest truthful silence bound and transmit it
    /// (§II.H). If the bound cannot cover the receiver's need, the probe
    /// *cascades* — this component's own lagging inputs are probed in turn,
    /// so curiosity propagates through intermediate components of a deeper
    /// graph — and is *held*: answered now only if the watermark advanced,
    /// then from [`EngineCore::pump`] each time the bound moves, until it
    /// covers the need. An unchanged watermark would only draw the same
    /// probe straight back.
    fn answer_probe(&mut self, wire: WireId, needed_through: VirtualTime) {
        let Some((source, bound)) = self.silence_bound(wire) else {
            return; // not sent from here (stale probe after re-placement)
        };
        if bound < needed_through {
            self.cascade_probe(source, needed_through, &mut BTreeSet::new());
            let held = self.held_probes.entry(wire).or_insert(needed_through);
            *held = (*held).max(needed_through);
        }
        let advanced = self.advertise(wire, bound).is_some();
        // A covered need is answered even when the watermark is unchanged:
        // the prior advance may have been lost, and silence is idempotent.
        if advanced || bound >= needed_through {
            self.send_silence(wire);
        }
    }

    /// Re-evaluates every held probe: transmits silence where the bound
    /// advanced, and releases the hold once the bound covers its need.
    fn answer_held_probes(&mut self) {
        for (wire, needed) in std::mem::take(&mut self.held_probes) {
            if self.refresh_silence(wire).is_some_and(|b| b < needed) {
                self.held_probes.insert(wire, needed);
            }
        }
    }

    /// Offers `wire`'s current silence bound and transmits it if the
    /// receiver does not know that much yet. Returns the bound.
    fn refresh_silence(&mut self, wire: WireId) -> Option<VirtualTime> {
        let (_, bound) = self.silence_bound(wire)?;
        if self.advertise(wire, bound).is_some() {
            self.send_silence(wire);
        }
        Some(bound)
    }

    /// The silence oracle for an internal output wire of this engine: no
    /// output on `wire` can carry a virtual time at or below the returned
    /// bound. Also names the sending component.
    ///
    /// `dequeue >= max(component clock, earliest possible input)`, plus the
    /// component's minimum work and the wire's link delay (§II.H).
    fn silence_bound(&self, wire: WireId) -> Option<(ComponentId, VirtualTime)> {
        let out = self.outputs.get(&wire)?;
        if !matches!(out.kind, OutputKind::Internal(_)) {
            return None;
        }
        let gate = self.mux.gate(out.from);
        let earliest_input = gate
            .wire_ids()
            .map(|w| gate.earliest_possible_vt(w))
            .min()
            .unwrap_or(VirtualTime::ZERO);
        let base = gate.clock().max_with(earliest_input);
        let bound = base
            .saturating_add(out.min_work)
            .saturating_add(out.link_delay);
        // One tick earlier than the earliest possible delivery; also never
        // below what the send watermark already implies.
        let floor = out.sent.unwrap_or(VirtualTime::ZERO);
        Some((out.from, bound.prev().max_with(floor)))
    }

    /// Offers `bound` to `wire`'s advertiser; `Some(watermark)` if the
    /// receiver does not know that much yet.
    fn advertise(&mut self, wire: WireId, bound: VirtualTime) -> Option<VirtualTime> {
        self.internal_out(wire)?.advertiser.advance_to(bound)
    }

    /// Transmits `wire`'s advertised silence watermark, with the last data
    /// tick so the receiver can detect tail loss.
    fn send_silence(&mut self, wire: WireId) {
        let Some(internal) = self.internal_out(wire) else {
            return;
        };
        let (dest, through) = (internal.dest, internal.advertiser.advertised_through());
        let last_data = internal.retention.last_sent().unwrap_or(VirtualTime::ZERO);
        self.obs.silence_sent(wire, through);
        self.transmit(
            dest,
            Envelope::Silence {
                wire,
                through,
                last_data,
            },
        );
    }

    // -- Execution ----------------------------------------------------------

    /// Delivers every currently deliverable message, interleaving local
    /// self-probes until quiescent, then answers held probes whose bound
    /// moved. Returns the number of messages processed. Call after
    /// [`EngineCore::handle`].
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
        self.answer_held_probes();
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
        let in_port = match self.inputs.get_mut(&wire) {
            Some(input) => {
                input.consumed = Some(vt);
                input.port
            }
            None => PortId::new(0),
        };
        self.obs.message_delivered(wire, vt);
        let mut component = self.take_component(cid);
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
        let measured = started.elapsed_ns();
        self.observe_sample(cid, &features, measured);
        let est = self.complete_run(cid, component, dequeue_vt, &features, sends);
        self.obs.estimator_residual(est.as_ticks(), measured);

        self.processed_since_ckpt += 1;
        if self.processed_since_ckpt >= self.config.checkpoint_every {
            self.take_checkpoint();
        }
    }

    /// Takes `cid`'s component out of its record for a handler run.
    ///
    /// # Panics
    ///
    /// Panics if `cid` is not hosted here or is already executing (a
    /// reentrant call cycle).
    fn take_component(&mut self, cid: ComponentId) -> Box<dyn Component> {
        self.hosted
            .get_mut(&cid)
            .and_then(|h| h.component.take())
            .unwrap_or_else(|| panic!("{cid} is not hosted here or is already executing"))
    }

    /// Closes a handler run that began at `at`: the component returns to
    /// its record, the active estimator prices the run (§II.E) — that
    /// completion time is the component's new clock — and the buffered
    /// sends are routed. Returns the estimate.
    fn complete_run(
        &mut self,
        cid: ComponentId,
        component: Box<dyn Component>,
        at: VirtualTime,
        features: &Features,
        sends: Vec<(PortId, Value)>,
    ) -> VirtualDuration {
        let Some(h) = self.hosted.get_mut(&cid) else {
            return VirtualDuration::ZERO;
        };
        h.component = Some(component);
        let est = h.estimator.estimate_at(at, features);
        let completion = at + est;
        self.mux.gate_mut(cid).advance_clock(completion);
        self.route_sends(cid, completion, sends);
        est
    }

    /// Stamps and transmits one output message on `out_wire`.
    fn emit(&mut self, out_wire: WireId, completion: VirtualTime, seq: u64, payload: Value) {
        let Some(out) = self.outputs.get_mut(&out_wire) else {
            return;
        };
        let base = completion + out.link_delay + VirtualDuration::from_ticks(seq);
        // Deterministic per-wire monotonicity bump: `sent` is part of
        // checkpointed state, so replays reproduce identical stamps.
        let prev = out.sent;
        let out_vt = match prev {
            Some(w) if base <= w => w.next(),
            _ => base,
        };
        out.sent = Some(out_vt);
        match &mut out.kind {
            OutputKind::External {
                consumer,
                retention,
            } => {
                // Under durability external wires retain too (see
                // `set_durable`): the channel below is volatile, and the
                // checkpoint about to durably consume this output's input must
                // carry the bytes to re-emit it after a whole-process crash.
                if let Some(buf) = retention {
                    buf.record(out_vt, payload.clone());
                }
                let _ = self.output_tx.send(OutputRecord {
                    consumer: consumer.clone(),
                    wire: out_wire,
                    vt: out_vt,
                    payload,
                });
            }
            OutputKind::Internal(internal) => {
                internal.advertiser.record_data(out_vt);
                internal.retention.record(out_vt, payload.clone());
                let dest = internal.dest;
                self.transmit(
                    dest,
                    Envelope::Data {
                        wire: out_wire,
                        vt: out_vt,
                        prev_vt: prev.unwrap_or(VirtualTime::ZERO),
                        payload,
                    },
                );
            }
        }
    }

    fn transmit(&mut self, dest: WireDest, env: Envelope) {
        match dest {
            WireDest::Local => {
                // Same-engine delivery without leaving the core.
                let _ = self.handle(env);
            }
            WireDest::Remote(engine) => self.router.send(engine, env),
        }
    }

    /// Executes a same-engine two-way call (see [`crate::ctx::EngineCtx`]).
    ///
    /// # Panics
    ///
    /// Panics on call ports not wired to a component on this engine, and
    /// on reentrant call cycles.
    pub(crate) fn execute_call(
        &mut self,
        caller: ComponentId,
        port: PortId,
        req: Value,
        now: VirtualTime,
    ) -> Value {
        let wire = self
            .hosted
            .get(&caller)
            .and_then(|h| h.out_ports.get(&port)?.first());
        let Some(callee) = wire.and_then(|w| self.inputs.get(w)) else {
            panic!("call port {port} of {caller} is not wired to a component on this engine");
        };
        let (callee, callee_port) = (callee.to, callee.port);
        let mut component = self.take_component(callee);
        let arrival = now.max_with(self.mux.gate(callee).clock());
        let mut sub = EngineCtx::new(self, callee, arrival);
        let reply = component.on_call(callee_port, &req, &mut sub);
        let EngineCtx {
            sends, features, ..
        } = sub;
        self.complete_run(callee, component, arrival, &features, sends);
        reply
    }

    /// Routes a handler's buffered sends: one emit per (send, out-wire)
    /// pair. Moves (rather than clones) the payload into the last wire's
    /// emit — the common single-wire fan-out never copies the payload.
    fn route_sends(
        &mut self,
        from: ComponentId,
        completion: VirtualTime,
        sends: Vec<(PortId, Value)>,
    ) {
        for (seq, (port, payload)) in sends.into_iter().enumerate() {
            let wires = self.hosted.get(&from).and_then(|h| h.out_ports.get(&port));
            let Some(wires) = wires.cloned() else {
                continue;
            };
            if let Some((&last, rest)) = wires.split_last() {
                for &w in rest {
                    self.emit(w, completion, seq as u64, payload.clone());
                }
                self.emit(last, completion, seq as u64, payload);
            }
        }
    }

    /// Sends curiosity probes for every blocked gate's lagging wires.
    /// Returns `true` if a *local* probe advanced silence (more deliveries
    /// may have become possible).
    fn issue_probes(&mut self) -> bool {
        let mut local_progress = false;
        for (_cid, decision) in self.mux.blocked() {
            let GateDecision::Blocked { lagging, .. } = decision else {
                continue;
            };
            for (wire, needed) in lagging {
                local_progress |= self.probe_input(wire, needed, &mut BTreeSet::new());
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
        visited: &mut BTreeSet<ComponentId>,
    ) {
        if !visited.insert(component) {
            return;
        }
        let wires: Vec<WireId> = self.mux.gate(component).wire_ids().collect();
        for wire in wires {
            if self.mux.gate(component).earliest_possible_vt(wire) > needed {
                continue; // this input already accounts far enough
            }
            self.probe_input(wire, needed, visited);
        }
    }

    /// Asks whoever feeds input `wire` for silence through `needed`.
    /// Returns `true` if a local sender's bound advanced this engine's own
    /// gate.
    fn probe_input(
        &mut self,
        wire: WireId,
        needed: VirtualTime,
        visited: &mut BTreeSet<ComponentId>,
    ) -> bool {
        match self.inputs.get(&wire).map(|i| i.source) {
            Some(WireSource::Local) => {
                // Probe ourselves directly: compute the bound and
                // promise it on the local gate.
                let Some((source, bound)) = self.silence_bound(wire) else {
                    return false;
                };
                let advanced = self.advertise(wire, bound);
                if let Some(through) = advanced {
                    self.mux.promise_silence(wire, through);
                }
                if bound < needed {
                    // The local sender itself is waiting on inputs:
                    // cascade the curiosity upstream.
                    self.cascade_probe(source, needed, visited);
                }
                advanced.is_some()
            }
            Some(WireSource::Remote(engine)) => {
                if self.probes.should_probe(wire, needed) {
                    self.obs.probe_sent(wire, needed);
                    self.router.send(
                        engine,
                        Envelope::Probe {
                            wire,
                            needed_through: needed,
                        },
                    );
                }
                false
            }
            // External producers are not probed; their silence
            // comes from injector heartbeats (§II.E logs + real
            // time stamps make them self-accounting).
            Some(WireSource::External) | None => false,
        }
    }

    /// Idle-tick maintenance: forget outstanding probes and re-evaluate.
    /// This is the retry for a lost reply: a sender answers a held probe
    /// once, so the re-probe draws an immediate answer if its bound now
    /// covers the need, and a fresh hold otherwise. Under the aggressive
    /// policy, volunteer fresh silence on every output wire.
    pub fn on_idle_tick(&mut self) {
        self.probes = ProbeTracker::new();
        if matches!(self.config.silence, SilencePolicy::Aggressive { .. }) {
            self.broadcast_silence();
        }
        self.pump();
    }

    /// Volunteers the current silence bound on every internal output wire.
    fn broadcast_silence(&mut self) {
        let wires: Vec<WireId> = self.outputs.keys().copied().collect();
        for wire in wires {
            self.refresh_silence(wire);
        }
    }

    // -- Checkpointing and recovery ------------------------------------------

    /// The hosted component `cid`, for checkpoint capture and restore.
    ///
    /// # Panics
    ///
    /// Panics if `cid` is not hosted here (a checkpoint from another
    /// placement) or is mid-handler.
    fn component_mut(&mut self, cid: ComponentId) -> &mut dyn Component {
        self.hosted
            .get_mut(&cid)
            .and_then(|h| h.component.as_deref_mut())
            .expect("checkpointed component is hosted here and not executing")
    }

    /// Takes a soft checkpoint and ships it to the replica (§II.F.2);
    /// under durability, also persists it and gates the retention
    /// `TrimAck`s on the persist succeeding.
    pub(crate) fn take_checkpoint(&mut self) {
        self.processed_since_ckpt = 0;
        // Generations ship as deltas against the last full one; a periodic
        // full anchors the chain so restore replays at most one full + a
        // bounded delta tail. Under durability the period is the configured
        // `full_checkpoint_every` count (TrimAcks move with it). Without, it
        // needs no knob: a full is due once the deltas since the last one
        // weigh as much as it did, so a chain never exceeds twice its full
        // and fulls at most double the bytes shipped.
        let durable = self.durable.is_some();
        let full_due = if durable {
            let every = self
                .config
                .durability
                .as_ref()
                .map_or(1, |d| d.full_checkpoint_every.max(1));
            self.ckpts_since_full + 1 >= every
        } else {
            self.delta_bytes_since_full >= self.full_bytes
        };
        let mode = if self.next_ckpt_full || full_due {
            CheckpointMode::Full
        } else {
            CheckpointMode::Incremental
        };
        self.next_ckpt_full = false;
        let mut ckpt = EngineCheckpoint::new(self.id, self.ckpt_seq);
        self.ckpt_seq += 1;
        let cids: Vec<ComponentId> = self.hosted.keys().copied().collect();
        for cid in cids {
            let clock = self.mux.gate(cid).clock();
            ckpt.components
                .insert(cid, self.component_mut(cid).checkpoint(mode, clock));
            ckpt.clocks.insert(cid, clock);
        }
        // A delta in which nothing changed carries no chunks at all, and on
        // disk an all-empty checkpoint is indistinguishable from (and would
        // be classified as) a self-contained full — one that seeds a restore
        // chain with nothing. Re-capture it as a genuine full generation.
        let mode = if durable && mode == CheckpointMode::Incremental && ckpt.is_self_contained() {
            for (cid, clock) in &ckpt.clocks {
                let snap = self
                    .component_mut(*cid)
                    .checkpoint(CheckpointMode::Full, *clock);
                ckpt.components.insert(*cid, snap);
            }
            CheckpointMode::Full
        } else {
            mode
        };
        // Only wires that have consumed / sent something are listed.
        for (w, input) in &self.inputs {
            ckpt.consumed.extend(input.consumed.map(|vt| (*w, vt)));
        }
        for (w, out) in &self.outputs {
            ckpt.sent.extend(out.sent.map(|vt| (*w, vt)));
        }
        // In-flight retention rides with the checkpoint. Local wires always
        // (sender and receiver state die together, so the replica is the
        // only copy); every wire under durability (a whole-cluster crash
        // kills the remote receivers' upstreams too — each engine must
        // bring its own send-side retention back from disk).
        for (w, out) in &mut self.outputs {
            let local = matches!(&out.kind, OutputKind::Internal(i) if i.dest == WireDest::Local);
            if !(local || durable) {
                continue;
            }
            if let Some(buf) = out.retention_mut() {
                if local {
                    if let Some(consumed) = ckpt.consumed.get(w) {
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
        // the shape the seal walk can fall back to.
        for (cid, clock) in &ckpt.clocks {
            ckpt.component_hashes
                .insert(*cid, self.component_mut(*cid).state_hash(*clock));
        }
        ckpt.state_hash = combined_state_hash(
            &ckpt.component_hashes,
            &ckpt.clocks,
            &ckpt.consumed,
            &ckpt.sent,
        );
        let bytes = ckpt.seal(&self.last_chain_seal) as u64;
        self.last_chain_seal = ckpt.chain_seal;
        self.obs
            .state_hashes_computed(ckpt.component_hashes.len() as u64 + 1);
        self.obs.checkpoint_taken(bytes);
        // Persist BEFORE shipping: once anyone can see this checkpoint, it
        // must be able to survive a whole-cluster crash.
        let persisted = match &self.durable {
            // tart-lint: allow(TAINT-FLOW) -- durability ack only: persist's wall-clock read times the fsync; the bool gates shipping and restore re-derives from the store itself
            Some((store, sync)) => store.persist_with(&ckpt, *sync).is_ok(),
            None => true,
        };
        match mode {
            CheckpointMode::Full => {
                self.full_bytes = ckpt.payload_bytes();
                self.delta_bytes_since_full = 0;
            }
            CheckpointMode::Incremental => self.delta_bytes_since_full += ckpt.payload_bytes(),
        }
        // Shipped once: a warm standby tails this same chain by cursor. The
        // capture mode rides along — it, not the content, says whether this
        // member can open a restore.
        self.replica.push_checkpoint(ckpt, mode);
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
        if durable {
            self.ckpts_since_full = match mode {
                CheckpointMode::Full => 0,
                CheckpointMode::Incremental => self.ckpts_since_full + 1,
            };
        }
        // Downstream of our inputs: acknowledge what every chain a recovery
        // may fall back to covers, so upstream retention can trim. Acks only
        // move at *full* captures — a delta is worthless without its base
        // chain, and recovery may fall back a whole chain — and the
        // watermark lags one full generation (see `ack_through`). The rule is
        // the same on every tier: the replica keeps two chains just as the
        // disk store does.
        if mode != CheckpointMode::Full {
            return;
        }
        for (&wire, input) in &mut self.inputs {
            let through = std::mem::replace(&mut input.ack_through, input.consumed);
            if let (Some(through), WireSource::Remote(engine)) = (through, input.source) {
                self.router
                    .send(engine, Envelope::TrimAck { wire, through });
            }
        }
    }

    /// Rebuilds state from a checkpoint chain plus the fault log, then
    /// marks every input wire as recovering and issues replay requests —
    /// to upstream engines for internal wires, to the cluster supervisor
    /// (message log) for external wires.
    ///
    /// The core may already carry the chain's first `applied` members — a
    /// warm standby's head start; a fresh core passes 0. Only the snapshots
    /// after them are applied; bookkeeping, retention, the tail digests and
    /// replay arming then run over the whole chain exactly as a
    /// from-scratch restore runs them. Members are only read: owned
    /// (`&[EngineCheckpoint]`) or shared with the replica that holds them
    /// (`&[Arc<EngineCheckpoint>]`).
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
    pub(crate) fn restore_from<C: Borrow<EngineCheckpoint>>(
        &mut self,
        chain: &[C],
        applied: usize,
        faults: &[(ComponentId, DeterminismFault)],
    ) -> Result<(), DivergenceFault> {
        // Apply snapshots in shipped order.
        for ckpt in &chain[applied..] {
            self.apply_member_snapshots(ckpt.borrow());
        }
        self.apply_faults(faults);
        if let Some(last) = chain.last() {
            self.finish_restore(chain, last.borrow())?;
        }
        // Every input wire: dedupe floor at the consumed watermark, then
        // recover via replay. (No checkpoint ever shipped: nothing is
        // consumed; replay everything from the beginning.)
        let wires: Vec<(WireId, Option<VirtualTime>)> =
            self.inputs.iter().map(|(w, i)| (*w, i.consumed)).collect();
        for (wire, consumed) in wires {
            if let Some(vt) = consumed {
                self.mux.promise_silence(wire, vt);
            }
            let from = consumed.map_or(VirtualTime::ZERO, VirtualTime::next);
            self.enter_recovery(wire, from, |_| {});
        }
        Ok(())
    }

    /// Applies one chain member's component snapshots, in place. No
    /// scheduler bookkeeping, no verification, no router traffic — safe to
    /// run against a core that is not (yet) the live engine, which is
    /// exactly how the warm-standby plane pre-applies the stream in the
    /// background (`crate::standby`).
    pub(crate) fn apply_member_snapshots(&mut self, ckpt: &EngineCheckpoint) {
        for (cid, snap) in &ckpt.components {
            self.component_mut(*cid)
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
            let Some(h) = self.hosted.get_mut(cid) else {
                continue;
            };
            h.estimator
                .apply_fault(fault)
                .expect("fault log is monotone per component");
            // Replay must not re-tune a second time at a different point:
            // the logged fault already covers this component.
            h.calibrator = None;
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
            let actual = self.component_mut(*cid).state_hash(clock);
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
    /// scheduler bookkeeping and retention from the chain (`last` is its
    /// tail), digest verification at the tail, and re-emission of retained
    /// external outputs. The caller then arms replay on every input wire.
    ///
    /// # Errors
    ///
    /// A [`DivergenceFault`] when the applied state fails the tail digests.
    fn finish_restore<C: Borrow<EngineCheckpoint>>(
        &mut self,
        chain: &[C],
        last: &EngineCheckpoint,
    ) -> Result<(), DivergenceFault> {
        // Scheduler bookkeeping from the last checkpoint.
        for (cid, clock) in &last.clocks {
            self.mux.gate_mut(*cid).advance_clock(*clock);
        }
        // The chain's full head is the most conservative restart point a
        // future recovery could fall back to (a damaged delta tail strands
        // everything after the head): acks may advance to *its* consumed
        // watermarks at the next full persist, no further.
        let base = chain
            .iter()
            .map(Borrow::borrow)
            .rev()
            .find(|c| c.is_self_contained())
            .unwrap_or(last);
        for (w, input) in &mut self.inputs {
            input.consumed = last.consumed.get(w).copied().or(input.consumed);
            input.ack_through = base.consumed.get(w).copied();
        }
        for (w, vt) in &last.sent {
            let Some(out) = self.outputs.get_mut(w) else {
                continue;
            };
            out.sent = Some(*vt);
            if let Some(buf) = out.retention_mut() {
                buf.reset_chain(Some(*vt));
            }
            // Everything through the send watermark was accounted to the
            // receiver before the failure; the advertiser must know, or
            // replay bursts would close with a zero horizon.
            if let Some(internal) = out.internal_mut() {
                internal.advertiser.record_data(*vt);
            }
        }
        // In-flight retention from the chain (later checkpoints extend
        // earlier ones; `record` ignores frames at or before the back, and
        // `reset_chain` above cleared the buffers, so replaying the chain's
        // captures in order rebuilds each buffer exactly).
        for ckpt in chain {
            for (w, frames) in &ckpt.borrow().retention {
                if let Some(buf) = self.outputs.get_mut(w).and_then(OutputWire::retention_mut) {
                    for (vt, payload) in frames {
                        buf.record(*vt, payload.clone());
                    }
                }
            }
        }
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
        for (w, out) in &self.outputs {
            let OutputKind::External {
                consumer,
                retention: Some(buf),
            } = &out.kind
            else {
                continue;
            };
            for (vt, payload) in buf.replay_from(VirtualTime::ZERO) {
                let _ = self.output_tx.send(OutputRecord {
                    consumer: consumer.clone(),
                    wire: *w,
                    vt,
                    payload,
                });
            }
        }
        self.next_ckpt_full = true;
        self.ckpts_since_full = 0;
        self.ckpt_seq = last.seq + 1;
        Ok(())
    }

    /// Feeds one measured handler execution to the component's calibrator;
    /// once enough samples accumulate, fits block 0 by the paper's
    /// through-origin regression and installs the result as a determinism
    /// fault (§II.G.4's dynamic re-tuning). Each component re-tunes at most
    /// once per activation — faults are "an extra overhead whose frequency
    /// we expect to minimize".
    fn observe_sample(&mut self, cid: ComponentId, features: &Features, measured_ns: u64) {
        let Some(h) = self.hosted.get_mut(&cid) else {
            return;
        };
        let Some(calibrator) = &mut h.calibrator else {
            return;
        };
        calibrator.add_sample(features.clone(), measured_ns.max(1));
        if !calibrator.is_ready() {
            return;
        }
        let fitted = calibrator.fit_through_origin(tart_model::BlockId(0)).ok();
        h.calibrator = None;
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
        let Some(h) = self.hosted.get_mut(&component) else {
            return;
        };
        let clock = self.mux.gate(component).clock();
        let latest = h
            .estimator
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
        if let Some((store, _)) = &self.durable {
            // tart-lint: allow(TAINT-FLOW) -- fault-log ack only: the Err branch deterministically keeps the old estimator; the store's dir scan never reaches engine state
            if store.log_fault(self.id, component, &fault).is_err() {
                h.calibrator = None;
                return;
            }
        }
        self.replica.log_fault(component, fault.clone());
        h.estimator
            .apply_fault(&fault)
            .expect("switch time is past every earlier switch");
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
        single_core_every(1_000)
    }

    /// The Fig 1 estimators under logical time.
    fn fig1_config(spec: &AppSpec, checkpoint_every: u64) -> ClusterConfig {
        let mut config = ClusterConfig::logical_time().with_checkpoint_every(checkpoint_every);
        for c in spec.components() {
            let est = if c.name().starts_with("Sender") {
                EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000)
            } else {
                EstimatorSpec::per_iteration(BlockId(0), 400_000)
            };
            config = config.with_estimator(c.id(), est);
        }
        config
    }

    /// [`single_core`] checkpointing every `checkpoint_every` messages.
    fn single_core_every(
        checkpoint_every: u64,
    ) -> (EngineCore, crossbeam::channel::Receiver<OutputRecord>) {
        let spec = fan_in_app(2).unwrap();
        let placement = Placement::single_engine(&spec);
        let config = fig1_config(&spec, checkpoint_every);
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

    fn client_wires() -> (WireId, WireId) {
        let spec = fan_in_app(2).unwrap();
        let ins = spec.external_inputs();
        (ins[0].id(), ins[1].id())
    }

    /// Every output wire's send watermark.
    fn sent(core: &EngineCore) -> Vec<(WireId, Option<VirtualTime>)> {
        core.outputs.iter().map(|(w, o)| (*w, o.sent)).collect()
    }

    /// What `core` recorded into its (detached) obs hub.
    fn obs(core: &EngineCore) -> tart_obs::ObsSnapshot {
        core.obs.hub().snapshot()
    }

    fn retained(core: &mut EngineCore, wire: WireId) -> &RetentionBuffer {
        let out = core.outputs.get_mut(&wire).unwrap();
        out.retention_mut().unwrap()
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
        let (w1, w2) = client_wires();
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
        assert_eq!(obs(&core).delivered, 4);
    }

    #[test]
    fn duplicate_data_is_discarded_by_timestamp() {
        let (mut core, _outputs) = single_core();
        let (w1, _) = client_wires();
        core.handle(data(w1, 50_000, 0, "a"));
        core.handle(data(w1, 50_000, 0, "a")); // duplicated by the link
        core.pump();
        assert_eq!(
            obs(&core).delivered,
            1,
            "the duplicate never runs a handler"
        );
    }

    #[test]
    fn lost_message_triggers_replay_request_via_prev_chain() {
        let (mut core, _outputs) = single_core();
        let (w1, _) = client_wires();
        core.handle(data(w1, 50_000, 0, "a"));
        // The message at 60 000 was lost; its successor names it.
        core.handle(data(w1, 70_000, 60_000, "c"));
        assert!(core.is_recovering(), "the loss was detected");
        assert_eq!(obs(&core).replay_requests, 1);
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
            obs(&core).delivered,
            3,
            "all three sentences processed in order"
        );
    }

    #[test]
    fn checkpoint_restore_reproduces_state_and_outputs() {
        // Run A: process, checkpoint, process more, recording outputs.
        let (mut a, outputs_a) = single_core();
        let (w1, w2) = client_wires();
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
        b.restore_from(&replica.chain(), 0, &replica.faults())
            .expect("restore verifies against recorded hashes");
        assert!(b.is_recovering());
        assert_eq!(
            obs(&b).replay_requests,
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

    /// Pins the checkpoint encoding across commits: one full and two delta
    /// generations of the paper example, byte length and final chain seal.
    /// The literals were recorded before the engine's state moved into
    /// per-wire / per-component tables; a change to either means a
    /// checkpoint byte was reordered, added or dropped.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let (mut core, _outputs) = single_core();
        let (w1, w2) = client_wires();
        core.handle(data(w1, 50_000, 0, "a b c"));
        core.handle(data(w2, 80_000, 0, "d e"));
        core.pump();
        // Full: senders ran, the merger is still waiting on client silence,
        // so `consumed` / `sent` name only the wires that have moved.
        core.take_checkpoint();
        core.handle(data(w1, 900_000, 50_000, "x z"));
        core.pump();
        core.take_checkpoint();
        core.handle(data(w2, 950_000, 80_000, "q"));
        core.handle(Envelope::Eos {
            wire: w1,
            last_data: vt(900_000),
        });
        core.handle(Envelope::Eos {
            wire: w2,
            last_data: vt(950_000),
        });
        core.pump();
        core.take_checkpoint();
        let chain = core.replica.chain();
        assert_eq!(chain.len(), 3);
        assert!(chain[0].is_self_contained() && !chain[2].is_self_contained());
        let bytes: usize = chain
            .iter()
            .map(|c| tart_codec::Encode::to_bytes(c).len())
            .sum();
        assert_eq!(bytes, 788);
        let snap = obs(&core);
        assert_eq!(
            (snap.checkpoints, snap.checkpoint_bytes),
            (3, 788),
            "the seal step reports the encoded length"
        );
        assert_eq!(
            chain[2].chain_seal.to_string(),
            "debebed82b50c8e02b8f4d83bd99f4519c7250920aab6d93890d3144895e179c"
        );
    }

    /// Feeds one fresh-worded sentence and checkpoints; returns whether the
    /// member just shipped anchors a chain, and its payload size.
    fn checkpoint_after_message(core: &mut EngineCore, i: u64) -> (bool, usize) {
        let (w1, _) = client_wires();
        let prev = if i == 0 { 0 } else { i * 10_000 };
        core.handle(data(w1, (i + 1) * 10_000, prev, &format!("w{i} x{i}")));
        core.pump();
        core.take_checkpoint();
        let held = core.replica.held();
        let newest = held.members.len() - 1;
        (
            held.anchors.last() == Some(&newest),
            held.members[newest].payload_bytes(),
        )
    }

    #[test]
    fn non_durable_fulls_follow_the_byte_cadence() {
        let (mut core, _outputs) = single_core();
        let (mut full, mut deltas, mut fulls) = (0, 0, 0);
        let mut longest_tail = 0;
        for i in 0..60 {
            let (anchor, bytes) = checkpoint_after_message(&mut core, i);
            assert_eq!(
                anchor,
                i == 0 || deltas >= full,
                "member {i}: full exactly when {deltas} delta bytes >= the full's {full}"
            );
            if anchor {
                (full, deltas, fulls) = (bytes, 0, fulls + 1);
            } else {
                deltas += bytes;
                longest_tail = longest_tail.max(core.replica.held().members.len());
            }
        }
        assert!(fulls >= 3, "the cadence came round more than once");
        assert!(longest_tail >= 3, "and left room for deltas in between");
        assert_eq!(core.replica.len(), 60);
        assert!(core.replica.held().anchors.len() <= crate::checkpoint::KEPT_GENERATIONS);
    }

    #[test]
    fn durable_fulls_keep_the_configured_count() {
        let dir = std::env::temp_dir().join(format!("tart-core-cadence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = fan_in_app(2).unwrap();
        let config = ClusterConfig::logical_time()
            .with_checkpoint_every(1_000)
            .with_durability(&dir, DurabilityPolicy::Strict)
            .with_full_checkpoint_every(4);
        let mut core = EngineCore::new(
            EngineId::new(0),
            &spec,
            &Placement::single_engine(&spec),
            &config,
            Router::new(FaultPlan::none()),
            ReplicaStore::new(),
            unbounded().0,
        );
        core.set_durable(
            Arc::new(CheckpointStore::open(&dir).unwrap()),
            DurabilityPolicy::Strict,
        );
        let anchors: Vec<bool> = (0..6)
            .map(|i| checkpoint_after_message(&mut core, i).0)
            .collect();
        assert_eq!(anchors, [true, false, false, false, true, false]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_without_any_checkpoint_replays_from_zero() {
        let (mut a, _out) = single_core();
        let replica = a.replica.clone();
        a.restore_from(&replica.chain(), 0, &[])
            .expect("restore verifies against recorded hashes");
        assert!(a.is_recovering());
        assert_eq!(obs(&a).replay_requests, 4);
    }

    #[test]
    fn recalibration_is_logged_and_survives_restore() {
        let (mut a, _out) = single_core();
        let (w1, w2) = client_wires();
        let s1 = fan_in_app(2)
            .unwrap()
            .component_by_name("Sender1")
            .unwrap()
            .id();
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
        let orig_watermark = sent(&a);

        // Restore: the fault log reinstalls the new coefficient, so the
        // re-executed message reproduces the same output time.
        let (mut b, _out_b) = single_core();
        b.restore_from(&replica.chain(), 0, &replica.faults())
            .expect("restore verifies against recorded hashes");
        assert_eq!(obs(&b).recalibrations, 0, "restore is not a live re-tune");
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
        assert_eq!(sent(&b), orig_watermark);
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
        let (w1, w2) = client_wires();
        core.handle(data(w1, 50_000, 0, "a b"));
        core.handle(data(w2, 60_000, 0, "c"));
        core.pump();
        let spec = fan_in_app(2).unwrap();
        let s1 = spec.component_by_name("Sender1").unwrap().id();
        let internal = spec.output_wires_of(s1)[0].id();
        let buf = retained(&mut core, internal);
        assert_eq!(buf.replay_from(VirtualTime::ZERO).len(), 1);
        let sent_vt = buf.last_sent().unwrap();
        core.handle(Envelope::TrimAck {
            wire: internal,
            through: sent_vt,
        });
        let buf = retained(&mut core, internal);
        assert_eq!(buf.replay_from(VirtualTime::ZERO).len(), 0);
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
        let (w1, _) = client_wires();
        // Three measured executions arm and fire the re-calibration.
        core.handle(data(w1, 50_000, 0, "a b c"));
        core.handle(data(w1, 150_000, 50_000, "d e"));
        core.handle(data(w1, 250_000, 150_000, "f g h i"));
        core.pump();
        let fired = obs(&core).recalibrations;
        assert!(fired >= 1, "dynamic re-tuning should have fired");
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
            .restore_from(&replica.chain(), 0, &replica.faults())
            .expect("restore verifies against recorded hashes");
        assert_eq!(obs(&restored).recalibrations, 0, "no second re-tune");
        let faulted = replica.faults()[0].0;
        assert!(
            restored.hosted[&faulted].calibrator.is_none(),
            "the logged fault disarmed the calibrator"
        );
    }

    /// Property tests of the recovery protocol, driven thread-free through
    /// the stepping API. These are the paper's correctness claims as
    /// machine-checked properties:
    ///
    /// * delivery and output are independent of envelope interleaving
    ///   (determinism, §II.D);
    /// * checkpoint + replay from *any* prefix reproduces the original
    ///   outputs exactly (§II.F);
    /// * arbitrary duplication of data envelopes is absorbed (§II.F.4);
    /// * a wire-addressed envelope naming a wire this engine does not send
    ///   or receive on — the external output included — is dropped, never a
    ///   panic;
    /// * a curiosity probe the sender cannot cover yet is held and answered
    ///   when its silence bound moves, one merge layer deep or two.
    mod protocol {
        use super::*;
        use crossbeam::channel::Receiver;
        use proptest::prelude::*;
        use tart_model::reference::{ConstantService, IN_PORT, OUT_PORT};

        /// One external message: (client index 0/1, timestamp, sentence).
        type ExtMsg = (usize, u64, String);

        /// Generates per-client monotone message streams.
        fn arb_workload() -> impl Strategy<Value = Vec<ExtMsg>> {
            let word = prop_oneof![
                Just("cat"),
                Just("dog"),
                Just("the"),
                Just("ran"),
                Just("sat")
            ];
            let sentence = proptest::collection::vec(word, 1..6).prop_map(|w| w.join(" "));
            proptest::collection::vec((0usize..2, 1u64..1_000, sentence), 1..14).prop_map(|raw| {
                // Make timestamps strictly increasing per client.
                let mut clocks = [0u64; 2];
                raw.into_iter()
                    .map(|(c, gap, s)| {
                        clocks[c] += gap;
                        (c, clocks[c], s)
                    })
                    .collect()
            })
        }

        fn wires() -> [WireId; 2] {
            let (w1, w2) = client_wires();
            [w1, w2]
        }

        /// The Fig 1 deployment's one external output wire (Merger → consumer).
        fn output_wire() -> WireId {
            fan_in_app(2).unwrap().external_outputs()[0].id()
        }

        /// Attaches a checkpoint store in a fresh temp directory, which gives
        /// the external output wire a retention buffer. Returns the directory.
        fn make_durable(core: &mut EngineCore, tag: &str) -> std::path::PathBuf {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("tart-proto-{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            core.set_durable(
                Arc::new(CheckpointStore::open(&dir).expect("open store")),
                DurabilityPolicy::Strict,
            );
            dir
        }

        /// Hands `queues` to `core` in a deterministic interleaving chosen by
        /// `seed` (xorshift), keeping each queue's order, pumping after each.
        fn interleave(core: &mut EngineCore, queues: &[Vec<Envelope>; 2], seed: u64) {
            let mut state = seed | 1;
            let mut cursors = [0usize; 2];
            loop {
                let live: Vec<usize> = (0..2).filter(|&c| cursors[c] < queues[c].len()).collect();
                if live.is_empty() {
                    break;
                }
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let pick = live[(state % live.len() as u64) as usize];
                core.handle(queues[pick][cursors[pick]].clone());
                cursors[pick] += 1;
                core.pump();
            }
            core.pump();
        }

        fn drained(outputs: &Receiver<OutputRecord>) -> Vec<(u64, String)> {
            outputs
                .try_iter()
                .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
                .collect()
        }

        /// Feeds a workload in a deterministic interleaving chosen by `seed`,
        /// closing both wires with Eos; returns the output stream.
        fn run_interleaved(workload: &[ExtMsg], seed: u64) -> Vec<(u64, String)> {
            let (mut core, outputs) = single_core();
            let wires = wires();
            // Per-client envelope queues, preserving per-wire order.
            let mut queues: [Vec<Envelope>; 2] = [Vec::new(), Vec::new()];
            let mut prev = [0u64; 2];
            for (client, ts, sentence) in workload {
                queues[*client].push(data(wires[*client], *ts, prev[*client], sentence));
                prev[*client] = *ts;
            }
            for (client, wire) in wires.iter().enumerate() {
                queues[client].push(Envelope::Eos {
                    wire: *wire,
                    last_data: vt(prev[client]),
                });
            }
            interleave(&mut core, &queues, seed);
            drop(core);
            drained(&outputs)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Determinism: any arrival interleaving yields the identical
            /// output stream — order, virtual times and payloads.
            #[test]
            fn outputs_independent_of_interleaving(
                workload in arb_workload(),
                seed_a in any::<u64>(),
                seed_b in any::<u64>(),
            ) {
                let a = run_interleaved(&workload, seed_a);
                let b = run_interleaved(&workload, seed_b);
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(a.len(), workload.len(), "one output per sentence");
            }

            /// Recovery: restoring from the replica at any checkpoint cadence
            /// and replaying the log reproduces the original outputs (modulo
            /// stutter, which dedups by timestamp).
            #[test]
            fn replay_from_checkpoint_reproduces_outputs(
                workload in arb_workload(),
                checkpoint_every in 1u64..6,
                seed in any::<u64>(),
            ) {
                // Original run, capturing the replica.
                let (mut core, outputs) = single_core_every(checkpoint_every);
                let replica = core.replica.clone();
                let wires = wires();
                let mut prev = [0u64; 2];
                let mut log: Vec<(usize, u64, u64, String)> = Vec::new();
                for (client, ts, sentence) in &workload {
                    core.handle(data(wires[*client], *ts, prev[*client], sentence));
                    core.pump();
                    log.push((*client, *ts, prev[*client], sentence.clone()));
                    prev[*client] = *ts;
                }
                for (client, wire) in wires.iter().enumerate() {
                    core.handle(Envelope::Eos { wire: *wire, last_data: vt(prev[client]) });
                }
                core.pump();
                drop(core);
                let original = drained(&outputs);

                // Crash after the full run; promote from the replica chain and
                // replay the external log.
                let (mut restored, outputs_b) = single_core_every(checkpoint_every);
                let chain = replica.chain();
                restored
                    .restore_from(&chain, 0, &replica.faults())
                    .expect("restore verifies against recorded hashes");
                // The "cluster" serves each wire's replay request: everything
                // in the log from one past the checkpointed consumed watermark,
                // with the frame count of exactly that range (as the
                // supervisor does).
                let consumed_floor = |wire: WireId| {
                    chain
                        .last()
                        .and_then(|c| c.consumed.get(&wire))
                        .map(|vt| vt.as_ticks())
                        .unwrap_or(0)
                };
                let mut per_wire: [Vec<Envelope>; 2] = [Vec::new(), Vec::new()];
                for (client, ts, prev_ts, sentence) in &log {
                    if *ts > consumed_floor(wires[*client]) {
                        per_wire[*client].push(data(wires[*client], *ts, *prev_ts, sentence));
                    }
                }
                for (client, wire) in wires.iter().enumerate() {
                    let frames = per_wire[client].len() as u64;
                    per_wire[client].push(Envelope::ReplayDone {
                        wire: *wire,
                        through: VirtualTime::MAX,
                        frames,
                    });
                }
                interleave(&mut restored, &per_wire, seed);
                drop(restored);
                let replayed = drained(&outputs_b);

                // The replayed outputs must be a suffix of the original:
                // everything past the last checkpoint, byte-identical.
                prop_assert!(
                    replayed.len() <= original.len(),
                    "no phantom outputs: {} > {}",
                    replayed.len(),
                    original.len()
                );
                prop_assert_eq!(
                    &original[original.len() - replayed.len()..],
                    &replayed[..],
                    "re-execution reproduces the post-checkpoint outputs exactly"
                );
            }

            /// Every wire-addressed envelope kind × every wire id — client
            /// inputs, internal wires, the external output, unknown ids — is
            /// handled or dropped, with and without durability (which changes
            /// what the output wire's record holds). Both envelopes arrive
            /// from the network.
            #[test]
            fn wire_addressed_envelopes_never_panic(
                a in 0u64..2_000_000,
                b in 0u64..2_000_000,
                frames in 0u64..3,
                durable in any::<bool>(),
                warm in any::<bool>(),
            ) {
                let (mut core, _outputs) = single_core_every(2);
                let dir = durable.then(|| make_durable(&mut core, "never-panic"));
                if warm {
                    for (client, wire) in wires().into_iter().enumerate() {
                        core.handle(data(wire, 1_000 + client as u64, 0, "cat sat"));
                    }
                    core.pump();
                }
                let wires = fan_in_app(2).unwrap().wires().len() as u32;
                for id in 0..=wires + 1 {
                    let wire = WireId::new(id);
                    let envelopes = [
                        data(wire, a, b, "dog"),
                        Envelope::Silence { wire, through: vt(a), last_data: vt(b) },
                        Envelope::Eos { wire, last_data: vt(b) },
                        Envelope::Probe { wire, needed_through: vt(a) },
                        Envelope::ReplayRequest { wire, from: vt(b) },
                        Envelope::ReplayDone { wire, through: vt(a), frames },
                        Envelope::TrimAck { wire, through: vt(a) },
                    ];
                    for env in envelopes {
                        prop_assert_eq!(core.handle(env), Flow::Continue);
                        core.pump();
                    }
                }
                drop(core);
                if let Some(dir) = dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }

            /// Duplicate absorption: doubling every data envelope changes
            /// nothing.
            #[test]
            fn duplicated_data_is_absorbed(workload in arb_workload()) {
                let wires = wires();
                let run = |dup: bool| {
                    let (mut core, outputs) = single_core();
                    let mut prev = [0u64; 2];
                    for (client, ts, sentence) in &workload {
                        let env = data(wires[*client], *ts, prev[*client], sentence);
                        core.handle(env.clone());
                        if dup {
                            core.handle(env);
                        }
                        core.pump();
                        prev[*client] = *ts;
                    }
                    for (client, wire) in wires.iter().enumerate() {
                        core.handle(Envelope::Eos { wire: *wire, last_data: vt(prev[client]) });
                    }
                    core.pump();
                    drop(core);
                    drained(&outputs)
                };
                prop_assert_eq!(run(false), run(true));
            }
        }

        #[test]
        fn silence_only_workload_produces_no_output() {
            let (mut core, outputs) = single_core_every(10);
            for wire in wires() {
                core.handle(Envelope::Silence {
                    wire,
                    through: vt(1_000_000),
                    last_data: VirtualTime::ZERO,
                });
            }
            core.pump();
            drop(core);
            assert_eq!(outputs.try_iter().count(), 0);
        }

        /// A probe can arrive from the network naming any wire; the external
        /// output has no silence to speak, so the probe is dropped like an
        /// unknown wire's.
        #[test]
        fn probe_naming_the_external_output_is_dropped() {
            let (mut core, _outputs) = single_core_every(10);
            let probe = Envelope::Probe {
                wire: output_wire(),
                needed_through: vt(5_000_000),
            };
            assert_eq!(core.handle(probe), Flow::Continue);
        }

        /// Under durability the external output retains (for re-emission
        /// after a cold restart), but it still has no upstream to replay to.
        #[test]
        fn replay_request_naming_the_durable_external_output_is_dropped() {
            let (mut core, outputs) = single_core_every(10);
            let dir = make_durable(&mut core, "replay-output");
            let request = Envelope::ReplayRequest {
                wire: output_wire(),
                from: VirtualTime::ZERO,
            };
            assert_eq!(core.handle(request), Flow::Continue);
            assert_eq!(outputs.try_iter().count(), 0, "nothing was re-sent");
            let _ = std::fs::remove_dir_all(dir);
        }

        /// Hands `core` everything queued in its inbox, then pumps.
        fn step(core: &mut EngineCore, inbox: &Receiver<Envelope>) {
            for env in inbox.try_iter() {
                core.handle(env);
            }
            core.pump();
        }

        /// The `(wire, through)` of every `Silence` in `inbox`, draining it.
        fn silences(inbox: &Receiver<Envelope>) -> Vec<(WireId, VirtualTime)> {
            inbox
                .try_iter()
                .filter_map(|env| match env {
                    Envelope::Silence { wire, through, .. } => Some((wire, through)),
                    _ => None,
                })
                .collect()
        }

        /// A Router whose inboxes for `engines` are fresh channels, returned
        /// in the same order.
        fn router_with_inboxes<const N: usize>(
            engines: [u32; N],
        ) -> (Router, [Receiver<Envelope>; N]) {
            let router = Router::new(FaultPlan::none());
            let inboxes = engines.map(|e| {
                let (tx, rx) = unbounded();
                router.register(EngineId::new(e), tx);
                rx
            });
            (router, inboxes)
        }

        /// The merger waits on Sender2's wire through Sender1's newest output; the
        /// sender engine cannot cover that until client 2 speaks. Answering each
        /// probe with the unchanged watermark (the old rule) only drew the same
        /// probe straight back: the sender holds it instead, answers once when the
        /// bound covers the need, and answers a covered re-probe at once — the
        /// retry after a lost reply.
        #[test]
        fn an_uncoverable_probe_is_held_until_the_bound_covers_it() {
            let spec = fan_in_app(2).expect("valid");
            let mut placement = Placement::new();
            for c in spec.components() {
                placement.assign(c.id(), EngineId::new(u32::from(c.name() == "Merger")));
            }
            let (router, [merger_inbox]) = router_with_inboxes([1]);
            let mut senders = EngineCore::new(
                EngineId::new(0),
                &spec,
                &placement,
                &fig1_config(&spec, 1_000),
                router,
                ReplicaStore::new(),
                unbounded().0,
            );
            let [client1, client2] = wires();
            let sender2 = spec.component_by_name("Sender2").expect("Sender2").id();
            let sender2_wire = spec.output_wires_of(sender2)[0].id();
            // Both clients speak once, so both sender wires carry data.
            senders.handle(data(client1, 1_000, 0, "cat sat"));
            senders.handle(data(client2, 2_000, 0, "dog"));
            senders.pump();
            // Client 1 speaks again; the merger now needs Sender2's wire accounted
            // through Sender1's new output.
            let _ = merger_inbox.try_iter().count();
            senders.handle(data(client1, 900_000, 1_000, "the cat ran"));
            senders.pump();
            let need = merger_inbox
                .try_iter()
                .find_map(|env| match env {
                    Envelope::Data { vt, .. } => Some(vt),
                    _ => None,
                })
                .expect("Sender1 forwarded its count");
            let probe = Envelope::Probe {
                wire: sender2_wire,
                needed_through: need,
            };
            for attempt in 1..=2 {
                senders.handle(probe.clone());
                senders.pump();
                assert_eq!(silences(&merger_inbox), [], "probe {attempt} is held");
            }

            // Client 2's heartbeat moves Sender2's bound past the need: the held
            // probe is answered from the pump, once, with no new probe.
            senders.handle(Envelope::Silence {
                wire: client2,
                through: need,
                last_data: vt(2_000),
            });
            senders.pump();
            let answer = silences(&merger_inbox);
            assert_eq!(answer.len(), 1, "one answer: {answer:?}");
            let (wire, through) = answer[0];
            assert_eq!(wire, sender2_wire);
            assert!(through >= need, "{through:?} covers {need:?}");

            // Loss backstop: that answer is lost and the merger probes again. The
            // bound covers the need, so the unchanged watermark goes out at once.
            senders.handle(probe);
            assert_eq!(silences(&merger_inbox), [(sender2_wire, through)]);

            // Nothing is held any more: a later heartbeat volunteers nothing.
            senders.handle(Envelope::Silence {
                wire: client2,
                through: vt(need.as_ticks() + 1_000_000),
                last_data: vt(2_000),
            });
            senders.pump();
            assert_eq!(silences(&merger_inbox), []);
        }

        /// The depth-2 merge tree of `ablation_tree`, placed as there — leaves on
        /// engine 0, mid merges on engine 1 — except that the root sits on engine
        /// 2, whose inbox is captured, so its probe reaches the mid layer over the
        /// router. Mid1 cannot cover the root's probe: it holds it and cascades to
        /// the leaves, which hold theirs in turn. Once the clients' silence reaches
        /// the leaves, each layer pushes its answer from its pump, and the root
        /// hears silence through its need without probing a second time.
        #[test]
        fn a_held_probe_cascades_and_each_layer_answers_when_its_bound_moves() {
            let service = || Arc::new(|| Box::new(ConstantService::new()) as Box<dyn Component>);
            let mut b = AppSpec::builder();
            let mut placement = Placement::new();
            let root = b.component("Root", service());
            placement.assign(root, EngineId::new(2));
            let mids = ["Mid1", "Mid2"].map(|name| b.component(name, service()));
            let mut clients = Vec::new();
            let mut mid1_inputs = Vec::new();
            for i in 0..4 {
                let leaf = b.component(&format!("Leaf{}", i + 1), service());
                placement.assign(leaf, EngineId::new(0));
                clients.push(b.wire_in(&format!("client{}", i + 1), leaf, IN_PORT));
                let up = b.wire(leaf, OUT_PORT, mids[i / 2], IN_PORT);
                if i < 2 {
                    mid1_inputs.push(up);
                }
            }
            let downstream = mids.map(|mid| {
                placement.assign(mid, EngineId::new(1));
                b.wire(mid, OUT_PORT, root, IN_PORT)
            });
            b.wire_out(root, OUT_PORT, "consumer");
            let spec = b.build().expect("valid merge tree");
            let config = ClusterConfig::logical_time();
            let (router, [leaf_inbox, mid_inbox, root_inbox]) = router_with_inboxes([0, 1, 2]);
            let [mut leaves, mut merges] = [0, 1].map(|e| {
                EngineCore::new(
                    EngineId::new(e),
                    &spec,
                    &placement,
                    &config,
                    router.clone(),
                    ReplicaStore::new(),
                    unbounded().0,
                )
            });
            let need = vt(500_000);
            let covering = |inbox: &Receiver<Envelope>, wire: WireId| {
                silences(inbox)
                    .into_iter()
                    .filter(|&(w, through)| w == wire && through >= need)
                    .count()
            };

            // The root's one probe: Mid1 holds it and cascades to both its leaves.
            merges.handle(Envelope::Probe {
                wire: downstream[0],
                needed_through: need,
            });
            merges.pump();
            assert_eq!(covering(&root_inbox, downstream[0]), 0);
            let cascaded: Vec<Envelope> = leaf_inbox.try_iter().collect();
            let probed: Vec<WireId> = cascaded
                .iter()
                .filter_map(|env| match env {
                    Envelope::Probe { wire, .. } => Some(*wire),
                    _ => None,
                })
                .collect();
            assert_eq!(probed, mid1_inputs, "Mid1 probes both of its leaves");
            for env in cascaded {
                leaves.handle(env);
            }
            leaves.pump();
            step(&mut merges, &mid_inbox);
            assert_eq!(
                covering(&root_inbox, downstream[0]),
                0,
                "nothing covers yet"
            );

            // The clients' silence reaches the leaves; the leaves answer Mid1 from
            // their pump, and Mid1 answers the root from its own.
            for client in &clients[..2] {
                leaves.handle(Envelope::Silence {
                    wire: *client,
                    through: need,
                    last_data: VirtualTime::ZERO,
                });
            }
            leaves.pump();
            step(&mut merges, &mid_inbox);
            assert_eq!(covering(&root_inbox, downstream[0]), 1, "Mid1 answers once");
            let reprobes = leaf_inbox
                .try_iter()
                .filter(|env| matches!(env, Envelope::Probe { .. }))
                .count();
            assert_eq!(reprobes, 0, "no probe beyond the cascade");
        }
    }
}
