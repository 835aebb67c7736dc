//! Cluster deployment, external I/O, failover orchestration.

// Ops-plane module (tart-lint tier: Ops): wall-clock reads and hash maps never flow into the replayable core; the interprocedural TAINT-FLOW pass fences the boundary, so raw reads need no per-line allows here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use tart_estimator::EstimatorSpec;
use tart_model::{AppSpec, Value};
use tart_vtime::{ComponentId, EngineId, VirtualTime, WireId};

use crate::chaos::{ChaosHandle, ChaosPlan};
use crate::checkpoint::{seal_step, HeldChain};
use crate::core::{EngineCore, Flow};
use crate::router::{EXTERNAL_ENGINE, SUPERVISOR_ENGINE};
use crate::standby::{StandbyPlane, StandbyStatus, WarmCandidate};
use crate::store::CheckpointStore;
use crate::supervise::{SupervisionMetrics, Supervisor};
use crate::{
    ClusterConfig, DurabilityConfig, DurabilityPolicy, EngineMetrics, Envelope, MessageLog,
    OutputRecord, Placement, ReplicaStore, Router, SharedEngineMetrics,
};

/// Cap on envelopes an engine batches per loop iteration, so a saturated
/// inbox cannot starve heartbeat emission indefinitely.
const BATCH_LIMIT: usize = 128;

/// Errors raised at deployment time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeployError {
    /// The placement does not assign every component.
    IncompletePlacement,
    /// [`Cluster::deploy`] with durability found prior on-disk state in the
    /// durability directory. Starting fresh over old state would silently
    /// orphan a recoverable run — use [`Cluster::recover_from_disk`], or
    /// point at an empty directory.
    DurabilityDirNotEmpty,
    /// [`Cluster::recover_from_disk`] was called without
    /// [`ClusterConfig::with_durability`].
    DurabilityNotConfigured,
    /// The durability layer could not be brought up (WAL or checkpoint
    /// store unopenable, or unrecoverably corrupt).
    DurabilityUnavailable(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::IncompletePlacement => {
                write!(f, "placement does not cover every component")
            }
            DeployError::DurabilityDirNotEmpty => {
                write!(
                    f,
                    "durability directory holds prior state; recover_from_disk or use an empty dir"
                )
            }
            DeployError::DurabilityNotConfigured => {
                write!(
                    f,
                    "recover_from_disk requires ClusterConfig::with_durability"
                )
            }
            DeployError::DurabilityUnavailable(why) => {
                write!(f, "durability layer unavailable: {why}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// Errors raised by [`Cluster::promote`].
///
/// A mistimed promotion — from a racing supervisor, an operator script, or
/// a chaos drill — degrades to a structured error the caller can log and
/// retry, instead of unwinding inside the host lock and poisoning every
/// later cluster operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PromoteError {
    /// The engine id was never deployed on this cluster.
    UnknownEngine(EngineId),
    /// The engine is still alive — fail-stop it ([`Cluster::kill`]) first.
    EngineStillAlive(EngineId),
    /// Hash verification discarded **every** generation of a non-empty
    /// checkpoint chain: nothing restorable survives, and resuming from
    /// scratch would silently discard the engine's entire history. The
    /// engine is left dead; its flight-recorder dumps say which members
    /// diverged.
    ChainExhausted {
        /// The engine whose chain was exhausted.
        engine: EngineId,
        /// Generations verification discarded on the way to empty.
        discarded: usize,
    },
}

impl fmt::Display for PromoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromoteError::UnknownEngine(e) => write!(f, "engine {e} was never deployed"),
            PromoteError::EngineStillAlive(e) => {
                write!(f, "engine {e} is still alive; kill it before promoting")
            }
            PromoteError::ChainExhausted { engine, discarded } => write!(
                f,
                "engine {engine}: all {discarded} checkpoint generations failed verification"
            ),
        }
    }
}

impl std::error::Error for PromoteError {}

/// Shared per-external-wire producer state: the timestamp floor (covering
/// data and heartbeat silence) so data and silence never contradict.
struct SourceState {
    wire: WireId,
    target: EngineId,
    /// Every tick `<= watermark` is accounted (data sent or silence
    /// promised).
    watermark: Option<VirtualTime>,
    /// The last data tick actually sent (the `prev_vt` chain head).
    last_data: Option<VirtualTime>,
    finished: bool,
}

/// A handle for feeding one external producer's messages into the system.
///
/// Sends are timestamped with the cluster clock, logged (§II.E: external
/// messages are the only logged messages), and routed to the engine hosting
/// the destination component.
#[derive(Clone)]
pub struct Injector {
    name: String,
    state: Arc<Mutex<SourceState>>,
    log: Arc<Mutex<MessageLog>>,
    router: Router,
    clock: Arc<dyn crate::TimeSource>,
}

impl Injector {
    /// Sends one external message; returns the virtual time it was stamped
    /// with.
    ///
    /// # Panics
    ///
    /// Panics if [`Injector::finish`] was already called.
    pub fn send(&self, payload: Value) -> VirtualTime {
        let mut state = self.state.lock();
        assert!(!state.finished, "injector {} already finished", self.name);
        let now = self.clock.now();
        let ts = match state.watermark {
            Some(w) => now.max_with(w.next()),
            None => now,
        };
        state.watermark = Some(ts);
        let prev_vt = state.last_data.unwrap_or(VirtualTime::ZERO);
        state.last_data = Some(ts);
        self.log
            .lock()
            .append(state.wire, ts, &payload)
            .expect("timestamps are monotone by construction");
        self.router.send(
            state.target,
            Envelope::Data {
                wire: state.wire,
                vt: ts,
                prev_vt,
                payload,
            },
        );
        ts
    }

    /// Promises silence up to (just before) the present: an idle external
    /// producer's way of letting downstream pessimism resolve.
    pub fn heartbeat(&self) {
        let mut state = self.state.lock();
        if state.finished {
            return;
        }
        let bound = self.clock.now().prev();
        if state.watermark.is_none_or(|w| bound > w) {
            state.watermark = Some(bound);
            self.router.send(
                state.target,
                Envelope::Silence {
                    wire: state.wire,
                    through: bound,
                    last_data: state.last_data.unwrap_or(VirtualTime::ZERO),
                },
            );
        }
    }

    /// Declares end-of-stream: unbounded silence. No further sends allowed.
    pub fn finish(&self) {
        let mut state = self.state.lock();
        if state.finished {
            return;
        }
        state.finished = true;
        self.router.send(
            state.target,
            Envelope::Eos {
                wire: state.wire,
                last_data: state.last_data.unwrap_or(VirtualTime::ZERO),
            },
        );
    }

    /// The producer's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for Injector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Injector")
            .field("name", &self.name)
            .finish()
    }
}

struct EngineSlot {
    sender: Sender<Envelope>,
    thread: Option<JoinHandle<()>>,
    replica: ReplicaStore,
    metrics: Arc<SharedEngineMetrics>,
    alive: bool,
}

/// The thread-safe core of a deployed cluster: everything needed to start,
/// fail-stop and promote engines. Shared (via `Arc`) between the
/// user-facing [`Cluster`] handle and the liveness [`Supervisor`] thread so
/// failover can be driven from either side with identical semantics.
pub(crate) struct EngineHost {
    spec: AppSpec,
    placement: Placement,
    pub(crate) config: ClusterConfig,
    pub(crate) router: Router,
    outputs_tx: Sender<OutputRecord>,
    engines: Mutex<HashMap<EngineId, EngineSlot>>,
    /// On-disk checkpoint store every hosted core tees into, when the
    /// cluster runs with durability.
    durable: Option<Arc<CheckpointStore>>,
    /// Cluster-wide observability hub: every engine core, the WAL and the
    /// checkpoint store record into it. Ops-plane only; nothing here ever
    /// feeds back into checkpointed state.
    pub(crate) obs: Arc<tart_obs::ObsHub>,
    /// Warm-standby plane ([`ClusterConfig::with_warm_standby`]): tails
    /// every engine's replica chain and pre-applies it in the background
    /// so promotion only replays the unapplied tail.
    pub(crate) standby: Option<StandbyPlane>,
}

/// What [`EngineHost::restore_verified`] hands back.
struct Restored {
    core: EngineCore,
    /// Verification forced a shorter chain than the caller supplied.
    fell_back: bool,
    /// The core is a warm standby's head start, not one built from scratch.
    warm: bool,
}

/// Dumps the engine's flight recorder if its thread unwinds — the timeline
/// that led to the panic is exactly what a postmortem needs, and it is gone
/// once the ring is dropped.
struct FlightDumpOnPanic {
    hub: Arc<tart_obs::ObsHub>,
    engine: EngineId,
}

impl Drop for FlightDumpOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            dump_flight(&self.hub, &format!("engine {} panicked", self.engine));
        }
    }
}

/// Writes a flight-recorder dump where operators can find it: the file
/// named by `$TART_FLIGHT_DUMP` when set (pure JSON, overwritten per dump),
/// stderr otherwise.
pub(crate) fn dump_flight(hub: &tart_obs::ObsHub, why: &str) {
    if let Some(path) = std::env::var_os("TART_FLIGHT_DUMP") {
        let path = std::path::PathBuf::from(path);
        let dump = hub.dump_events_json();
        if std::fs::write(&path, format!("{dump}\n")).is_ok() {
            eprintln!(
                "[tart-obs] flight recorder ({why}) written to {}",
                path.display()
            );
            return;
        }
    }
    // Stderr fallback: bounded, or a busy soak would bury the log under
    // megabytes of timeline. The file path above gets the full ring.
    eprintln!(
        "[tart-obs] flight recorder ({why}): {}",
        hub.dump_events_json_tail(STDERR_DUMP_EVENTS)
    );
}

/// Newest events kept in a stderr flight dump (see [`dump_flight`]).
const STDERR_DUMP_EVENTS: usize = 256;

impl EngineHost {
    /// All deployed engine ids, ascending.
    pub(crate) fn engine_ids(&self) -> Vec<EngineId> {
        let mut ids: Vec<EngineId> = self.engines.lock().keys().copied().collect();
        ids.sort();
        ids
    }

    /// Whether `engine` is believed alive (not yet [`EngineHost::kill`]ed).
    /// An engine that crashed without being killed still reads alive — the
    /// failure detector exists precisely to notice that case.
    pub(crate) fn is_alive(&self, engine: EngineId) -> bool {
        self.engines.lock().get(&engine).is_some_and(|s| s.alive)
    }

    /// The durability tier an engine's persistence plane runs at: the
    /// **strictest** tier across its hosted components (one Strict
    /// component on an engine pins the whole engine's checkpoints to
    /// fsynced persists — engines checkpoint atomically, so the plane
    /// cannot split one engine's generation across tiers). `None` — the
    /// legacy always-durable path — when durability is off or any hosted
    /// component resolves to no tier.
    fn engine_tier(&self, engine: EngineId) -> Option<DurabilityPolicy> {
        let d = self.config.durability.as_ref()?;
        let mut tier: Option<DurabilityPolicy> = None;
        for c in self.placement.components_on(engine) {
            match d.tier_for(c, Some(engine)) {
                Some(t) => tier = Some(tier.map_or(t, |cur| cur.max(t))),
                None => return None,
            }
        }
        tier
    }

    /// The one place an [`EngineCore`] is assembled — fresh starts, every
    /// restore attempt and the standby's passive cores all come through
    /// here, so none of them can drift apart in wiring. The checkpoint
    /// store is attached per the engine's resolved tier: Strict (and
    /// legacy) persist-and-fsync before shipping, Buffered persists without
    /// the fsync, InMemory skips the store entirely — its only recovery
    /// sources are the passive replica and peer replay, so a whole-process
    /// crash restarts it from scratch.
    pub(crate) fn build_core(&self, engine: EngineId, replica: ReplicaStore) -> EngineCore {
        let mut core = EngineCore::new(
            engine,
            &self.spec,
            &self.placement,
            &self.config,
            self.router.clone(),
            replica,
            self.outputs_tx.clone(),
        );
        if let Some(store) = &self.durable {
            match self.engine_tier(engine) {
                Some(DurabilityPolicy::InMemory) => {}
                Some(DurabilityPolicy::Buffered { .. }) => {
                    core.set_durable(Arc::clone(store));
                    core.set_durable_sync(false);
                }
                Some(DurabilityPolicy::Strict) | None => core.set_durable(Arc::clone(store)),
            }
        }
        core.set_obs(self.obs.engine(engine));
        core
    }

    /// Points the warm standby (when one runs) at `engine`'s new
    /// incarnation, whose checkpoints will land in `replica`. Returns the
    /// head start the standby built from the previous incarnation's chain,
    /// if it holds one.
    fn attach_standby(&self, engine: EngineId, replica: &ReplicaStore) -> Option<WarmCandidate> {
        self.standby.as_ref()?.attach(engine, replica.clone())
    }

    fn start_engine(&self, id: EngineId) {
        let (tx, rx) = unbounded::<Envelope>();
        self.router.register(id, tx.clone());
        let replica = ReplicaStore::new();
        self.attach_standby(id, &replica);
        let core = self.build_core(id, replica.clone());
        self.launch(id, core, tx, rx, replica, false);
    }

    /// Starts `core`'s loop as `engine`'s live incarnation, reading the
    /// already-registered inbox `sender` feeds.
    fn launch(
        &self,
        engine: EngineId,
        core: EngineCore,
        sender: Sender<Envelope>,
        rx: Receiver<Envelope>,
        replica: ReplicaStore,
        restored: bool,
    ) {
        let metrics = core.metrics_handle();
        let thread = self.spawn_engine_loop(engine, core, rx, restored);
        self.engines.lock().insert(
            engine,
            EngineSlot {
                sender,
                thread: Some(thread),
                replica,
                metrics,
                alive: true,
            },
        );
    }

    /// The engine main loop, shared by fresh starts and promotions: receive
    /// → handle → pump → drain bookkeeping, plus (when supervision is on)
    /// periodic heartbeat emission to the supervisor inbox.
    fn spawn_engine_loop(
        &self,
        id: EngineId,
        mut core: EngineCore,
        rx: Receiver<Envelope>,
        restored: bool,
    ) -> JoinHandle<()> {
        let mut idle = Duration::from_micros(self.config.idle_poll_micros);
        let heartbeat = self
            .config
            .supervision
            .as_ref()
            .map(|s| s.heartbeat_interval);
        if let Some(interval) = heartbeat {
            // Wake at least twice per beacon period even if the configured
            // idle poll is coarser.
            idle = idle.min(interval / 2).max(Duration::from_micros(50));
        }
        let router = self.router.clone();
        let flight_guard = FlightDumpOnPanic {
            hub: Arc::clone(&self.obs),
            engine: id,
        };
        let suffix = if restored { "r" } else { "" };
        std::thread::Builder::new()
            .name(format!("tart-engine-{}{suffix}", id.raw()))
            .spawn(move || {
                let _flight_guard = flight_guard;
                let mut draining = false;
                let mut seq = 0u64;
                let mut next_hb = Instant::now();
                let mut batch: Vec<Envelope> = Vec::with_capacity(BATCH_LIMIT);
                loop {
                    if let Some(interval) = heartbeat {
                        let now = Instant::now();
                        if now >= next_hb {
                            router.send(SUPERVISOR_ENGINE, Envelope::Heartbeat { engine: id, seq });
                            seq += 1;
                            next_hb = now + interval;
                        }
                    }
                    // One wakeup drains up to BATCH_LIMIT queued envelopes
                    // in a single channel-lock round-trip (bounded so
                    // heartbeats keep flowing under load). A `Die` mid-batch
                    // drops the rest — exactly the fail-stop inbox loss.
                    batch.clear();
                    match rx.recv_batch_timeout(&mut batch, BATCH_LIMIT, idle) {
                        Ok(_) => {
                            for env in batch.drain(..) {
                                match core.handle(env) {
                                    Flow::Die => return, // fail-stop: drop everything
                                    Flow::Drain => draining = true,
                                    Flow::Continue => {}
                                }
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            core.on_idle_tick();
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                    }
                    core.pump();
                    if draining && core.drain_step() {
                        core.take_checkpoint();
                        return;
                    }
                }
            })
            .expect("spawn engine thread")
    }

    /// Fail-stops `engine`: its thread exits immediately, losing all state
    /// and all envelopes in its inbox (the §II.A failure model). Returns
    /// once the thread is gone.
    pub(crate) fn kill(&self, engine: EngineId) {
        self.router.send(engine, Envelope::Die);
        self.router.deregister(engine);
        let thread = {
            let mut engines = self.engines.lock();
            match engines.get_mut(&engine) {
                Some(slot) => {
                    slot.alive = false;
                    slot.thread.take()
                }
                None => None,
            }
        };
        // Join outside the lock: the dying thread never takes it, but other
        // callers (metrics readers, the supervisor poll) shouldn't wait.
        if let Some(t) = thread {
            let _ = t.join();
        }
    }

    /// The restore pipeline: restores what `held` offers into a core for
    /// `engine` with hash verification (DESIGN.md §15). One selection rule:
    /// the newest anchored chain — the last member captured in Full mode
    /// and everything after it. A `head_start` — a warm standby's core that
    /// already absorbed and verified every member before its cursor — skips
    /// the part of that chain it holds: only the tail after it is
    /// seal-checked and applied, the seal at the cursor committing to the
    /// prefix. A cursor at or behind the anchor is still a head start: the
    /// anchor restores over the standby's core as any mid-chain full does.
    ///
    /// A chain-seal defect truncates at the defective member before
    /// anything is restored; a post-restore state-hash divergence discards
    /// the tainted core and retries — a diverged head start impeaches the
    /// standby, not the chain, so the same chain is retried from scratch; a
    /// diverged from-scratch attempt drops the newest member. Once the
    /// newest chain is used up the same rule selects the previous one.
    /// Holding nothing restores vacuously, so the loop always terminates.
    /// Discarding a core is safe because the core verifies *before* its
    /// first router send: a failed attempt is invisible to peers. Each
    /// rejection dumps the flight ring for forensics (the divergence
    /// counter and timeline event are recorded inside the core).
    ///
    /// # Errors
    ///
    /// When **originally non-empty** holdings are discarded down to nothing
    /// — every generation of every kept chain defective or divergent — the
    /// error carries how many generations were thrown away. Restoring
    /// vacuously in that case would silently erase the engine's entire
    /// history; the caller decides (promotion surfaces
    /// [`PromoteError::ChainExhausted`], cold restart surfaces
    /// [`DeployError::DurabilityUnavailable`]). Holdings that were empty to
    /// begin with still restore vacuously: a never-checkpointed engine
    /// legitimately restarts from scratch.
    fn restore_verified(
        &self,
        engine: EngineId,
        replica: &ReplicaStore,
        mut held: HeldChain,
        faults: &[(ComponentId, tart_estimator::DeterminismFault)],
        mut head_start: Option<WarmCandidate>,
    ) -> Result<Restored, usize> {
        let original_len = held.members.len();
        let mut fell_back = false;
        loop {
            if held.members.is_empty() && original_len > 0 {
                dump_flight(
                    &self.obs,
                    &format!(
                        "chain exhausted for {engine}: all {original_len} generations discarded"
                    ),
                );
                return Err(original_len);
            }
            let anchor = held.newest_anchor();
            let chain = held.members.get(anchor..).unwrap_or_default();
            // How far into this chain the head start reaches.
            let applied = head_start
                .as_ref()
                .map_or(0, |c| c.applied.saturating_sub(held.floor + anchor));
            let mut prev = applied.checked_sub(1).map(|i| chain[i].chain_seal);
            let mut defect = None;
            for (index, ckpt) in chain.iter().enumerate().skip(applied) {
                match seal_step(prev, index, ckpt) {
                    Ok(seal) => prev = Some(seal),
                    Err(d) => {
                        defect = Some((index, d));
                        break;
                    }
                }
            }
            if let Some((index, defect)) = defect {
                dump_flight(&self.obs, &format!("chain defect for {engine}: {defect}"));
                held.truncate(anchor + index);
                fell_back = true;
                continue;
            }
            let warm = head_start.is_some();
            let mut core = match head_start.take() {
                Some(cand) => {
                    // The standby built its core before this incarnation's
                    // replica existed.
                    let mut core = cand.core;
                    core.set_replica(replica.clone());
                    core
                }
                None => self.build_core(engine, replica.clone()),
            };
            match core.restore_from(chain, applied, faults) {
                Ok(()) => {
                    return Ok(Restored {
                        core,
                        fell_back,
                        warm,
                    })
                }
                Err(fault) => {
                    dump_flight(
                        &self.obs,
                        &format!("state divergence for {engine} (warm: {warm}): {fault}"),
                    );
                    if !warm {
                        held.truncate(held.members.len().saturating_sub(1));
                        fell_back = true;
                    }
                }
            }
        }
    }

    /// Promotes `engine`'s passive replica: rebuilds the components from the
    /// checkpoint chain and the determinism-fault log, re-registers the
    /// inbox, and replays — from upstream retention for internal wires and
    /// from the message log for external wires (§II.F.3–4).
    ///
    /// A cold promotion restores the replica's newest anchored chain — one
    /// full and its delta tail, however long the incarnation ran. With a
    /// warm standby ([`ClusterConfig::with_warm_standby`]) whose slot is
    /// anchored, the restore starts from its pre-applied core — the
    /// sub-horizon promotion path. Warm or cold, the restore is
    /// hash-verified the same way ([`EngineHost::restore_verified`]): a
    /// corrupted or divergent suffix is discarded — a whole chain if need
    /// be — rather than corrupt state resumed.
    ///
    /// # Errors
    ///
    /// See [`PromoteError`]. On [`PromoteError::ChainExhausted`] the engine
    /// is left dead and deregistered — resuming from nothing would silently
    /// erase its history.
    pub(crate) fn promote(&self, engine: EngineId) -> Result<(), PromoteError> {
        let t0 = Instant::now();
        let replica = {
            let engines = self.engines.lock();
            let slot = engines
                .get(&engine)
                .ok_or(PromoteError::UnknownEngine(engine))?;
            if slot.alive {
                return Err(PromoteError::EngineStillAlive(engine));
            }
            slot.replica.clone()
        };
        let held = replica.held();
        let faults = replica.faults();

        let fresh_replica = ReplicaStore::new();
        self.obs.failover(engine);
        let warm = self.attach_standby(engine, &fresh_replica);

        // Register the new inbox FIRST so the replay responses triggered by
        // restore (and live traffic) reach the restored engine.
        let (tx, rx) = unbounded::<Envelope>();
        self.router.register(engine, tx.clone());

        let restored = match self.restore_verified(engine, &fresh_replica, held, &faults, warm) {
            Ok(restored) => restored,
            Err(discarded) => {
                self.router.deregister(engine);
                return Err(PromoteError::ChainExhausted { engine, discarded });
            }
        };
        self.launch(engine, restored.core, tx, rx, fresh_replica, true);
        self.obs
            .promotion_complete(engine, restored.warm, t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn engine_metrics(&self, engine: EngineId) -> Option<EngineMetrics> {
        self.engines
            .lock()
            .get(&engine)
            .map(|s| s.metrics.snapshot())
    }

    fn replica_depth(&self, engine: EngineId) -> usize {
        self.engines
            .lock()
            .get(&engine)
            .map_or(0, |s| s.replica.len())
    }
}

/// A deployed TART application: engines on threads, passive replicas,
/// external injectors and collectors, and the failover machinery.
///
/// See the crate-level example. The manual failure drill is:
///
/// ```text
/// cluster.kill(engine);     // fail-stop: state and in-flight traffic lost
/// cluster.promote(engine);  // replica restores checkpoint, replays, resumes
/// ```
///
/// With [`ClusterConfig::with_supervision`] the same drill runs
/// automatically: engines heartbeat a supervisor thread whose failure
/// detector fail-stops and promotes any engine that goes quiet — no manual
/// calls required.
pub struct Cluster {
    host: Arc<EngineHost>,
    injectors: HashMap<String, Injector>,
    log: Arc<Mutex<MessageLog>>,
    outputs_rx: Receiver<OutputRecord>,
    replay_service: Option<JoinHandle<()>>,
    supervisor: Option<Supervisor>,
}

impl Cluster {
    /// Deploys `spec` across engines per `placement` and starts every
    /// engine thread (plus the liveness supervisor when
    /// [`ClusterConfig::supervision`] is set).
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::IncompletePlacement`] if any component is
    /// unassigned.
    pub fn deploy(
        spec: AppSpec,
        placement: Placement,
        config: ClusterConfig,
    ) -> Result<Cluster, DeployError> {
        if !placement.covers(&spec) {
            return Err(DeployError::IncompletePlacement);
        }
        let (log, durable) = match &config.durability {
            Some(d) => {
                let (log, store) = open_fresh_durability(d)?;
                (log, Some(store))
            }
            None => (MessageLog::in_memory(), None),
        };
        let mut cluster = Cluster::assemble(spec, placement, config, log, durable);
        for engine in cluster.host.placement.engines() {
            cluster.host.start_engine(engine);
        }
        cluster.start_supervisor();
        Ok(cluster)
    }

    /// Cold-restarts a cluster from the on-disk state a previous
    /// (crashed) deployment left in `config.durability.dir`: the WAL is
    /// scanned (truncating any torn tail), each engine restores from its
    /// newest checkpoint generation that verifies (falling back one if the
    /// newest is corrupt), the determinism-fault logs are re-applied, and
    /// every engine replays forward — from the WAL for external wires, from
    /// recovered retention plus deterministic re-execution for internal
    /// ones. Deduplicated outputs are byte-identical to a run that never
    /// crashed (§II.F.4 extended to whole-cluster failure).
    ///
    /// The cluster clock is advanced past the last logged timestamp so
    /// re-driven external sends continue the original timeline.
    ///
    /// # Errors
    ///
    /// [`DeployError::DurabilityNotConfigured`] without
    /// [`ClusterConfig::with_durability`];
    /// [`DeployError::DurabilityUnavailable`] when the WAL has mid-file
    /// (non-tail) corruption or an engine's every checkpoint generation
    /// fails verification.
    pub fn recover_from_disk(
        spec: AppSpec,
        placement: Placement,
        config: ClusterConfig,
    ) -> Result<(Cluster, RecoveryReport), DeployError> {
        if !placement.covers(&spec) {
            return Err(DeployError::IncompletePlacement);
        }
        let Some(d) = config.durability.clone() else {
            return Err(DeployError::DurabilityNotConfigured);
        };
        let unavailable = |e: &dyn fmt::Display| DeployError::DurabilityUnavailable(e.to_string());
        let (log, wal_recovery) =
            MessageLog::durable(d.dir.join("wal"), d.wal_segment_bytes, d.policy)
                .map_err(|e| unavailable(&e))?;
        let store =
            Arc::new(CheckpointStore::open(d.dir.join("ckpt")).map_err(|e| unavailable(&e))?);
        // Read every engine's restart point from disk BEFORE starting any
        // thread: all fallible work happens while the cluster is still
        // inert, so an error cannot strand half-started engines.
        let mut restart_points = Vec::new();
        for engine in placement.engines() {
            let loaded = store.load_chain(engine).map_err(|e| unavailable(&e))?;
            let faults = store.faults(engine).map_err(|e| unavailable(&e))?;
            restart_points.push((engine, loaded, faults));
        }
        let mut cluster = Cluster::assemble(spec, placement, config, log, Some(store));
        let host = Arc::clone(&cluster.host);
        // Phase 1: register EVERY inbox (the log-replay service already is)
        // before any restore runs — restore sends replay requests to peers,
        // which must queue in live channels rather than vanish.
        let inboxes: Vec<_> = restart_points
            .iter()
            .map(|(engine, ..)| {
                let (tx, rx) = unbounded::<Envelope>();
                host.router.register(*engine, tx.clone());
                (tx, rx)
            })
            .collect();
        // Phase 2: restore each engine and start its loop.
        let components = component_recoveries(&host.spec, &host.placement, &d, &cluster.log.lock());
        let mut report = RecoveryReport {
            wal_records: wal_recovery.records.len(),
            wal_truncated_bytes: wal_recovery.truncated_bytes,
            wal_segments: wal_recovery.segments,
            engines: Vec::new(),
            components,
        };
        for ((engine, loaded, faults), (tx, rx)) in restart_points.into_iter().zip(inboxes) {
            let (chain, generation, fell_back) = match loaded {
                Some(l) => (l.chain, Some(l.generation), l.fell_back),
                None => (Vec::new(), None, false),
            };
            let replica = ReplicaStore::new();
            let head_start = host.attach_standby(engine, &replica);
            // Hash-verified cold restart: the loaded chain passed the
            // store's CRC and seal checks, and restore re-derives the live
            // state hash against the recorded one — a divergent suffix is
            // discarded rather than resumed. A chain discarded to nothing
            // is terminal: tear down whatever already started and report,
            // rather than resuming an engine with its history erased.
            let held = HeldChain::from_disk(chain);
            let restored = match host.restore_verified(engine, &replica, held, &faults, head_start)
            {
                Ok(restored) => restored,
                Err(discarded) => {
                    for started in host.engine_ids() {
                        host.kill(started);
                    }
                    host.router.send(EXTERNAL_ENGINE, Envelope::Die);
                    return Err(DeployError::DurabilityUnavailable(format!(
                            "engine {engine}: all {discarded} restored checkpoint generations failed verification"
                        )));
                }
            };
            host.launch(engine, restored.core, tx, rx, replica, true);
            report.engines.push(EngineRecovery {
                engine,
                generation,
                fell_back: fell_back || restored.fell_back,
            });
        }
        cluster.start_supervisor();
        Ok((cluster, report))
    }

    /// Everything [`Cluster::deploy`] and [`Cluster::recover_from_disk`]
    /// share: router, obs hub, standby plane, host, one injector per
    /// external producer and the log-replay service, around whichever `log`
    /// and checkpoint store the caller opened. No engine runs yet. Producers
    /// resume exactly where the log ends — nowhere, for a fresh one — so
    /// after a cold restart the watermark floor continues the `prev_vt`
    /// chain, and the clock the timeline, past everything already durable.
    fn assemble(
        spec: AppSpec,
        placement: Placement,
        config: ClusterConfig,
        mut log: MessageLog,
        durable: Option<Arc<CheckpointStore>>,
    ) -> Cluster {
        let router = Router::new(config.faults.clone());
        let (outputs_tx, outputs_rx) = unbounded();
        let obs = Arc::new(tart_obs::ObsHub::new());
        if let Some(d) = &config.durability {
            apply_wire_tiers(&spec, &placement, d, &mut log);
        }
        log.set_obs(Arc::clone(&obs));
        if let Some(store) = &durable {
            store.set_obs(Arc::clone(&obs));
        }
        let mut sources = HashMap::new();
        let mut injectors = HashMap::new();
        let log = Arc::new(Mutex::new(log));
        for w in spec.external_inputs() {
            let name = match w.from() {
                tart_model::Endpoint::External { name } => name.clone(),
                _ => unreachable!("external input wires start externally"),
            };
            let target_component = w.to().component().expect("external inputs feed components");
            let target = placement
                .engine_of(target_component)
                .expect("placement covers the app");
            let logged = log.lock().last_vt(w.id());
            if let Some(vt) = logged {
                config.clock.advance_to(vt);
            }
            let state = Arc::new(Mutex::new(SourceState {
                wire: w.id(),
                target,
                watermark: logged,
                last_data: logged,
                finished: false,
            }));
            sources.insert(w.id(), Arc::clone(&state));
            injectors.insert(
                name.clone(),
                Injector {
                    name,
                    state,
                    log: Arc::clone(&log),
                    router: router.clone(),
                    clock: Arc::clone(&config.clock),
                },
            );
        }
        let host = Arc::new_cyclic(|host| EngineHost {
            standby: config
                .standby
                .clone()
                .map(|cfg| StandbyPlane::start(cfg, router.clone(), host.clone())),
            spec,
            placement,
            config,
            router,
            outputs_tx,
            engines: Mutex::new(HashMap::new()),
            durable,
            obs,
        });
        let mut cluster = Cluster {
            host,
            injectors,
            log,
            outputs_rx,
            replay_service: None,
            supervisor: None,
        };
        cluster.spawn_replay_service(sources);
        cluster
    }

    fn start_supervisor(&mut self) {
        if let Some(supervision) = self.host.config.supervision.clone() {
            self.supervisor = Some(Supervisor::start(Arc::clone(&self.host), supervision));
        }
    }

    /// The replay service answers replay requests for external wires from
    /// the message log (§II.F.4: external messages "are re-sent from the
    /// log").
    fn spawn_replay_service(&mut self, sources: HashMap<WireId, Arc<Mutex<SourceState>>>) {
        let (tx, rx) = unbounded::<Envelope>();
        self.host.router.register(EXTERNAL_ENGINE, tx);
        let router = self.host.router.clone();
        let log = Arc::clone(&self.log);
        let thread = std::thread::Builder::new()
            .name("tart-log-replay".into())
            .spawn(move || {
                while let Ok(env) = rx.recv() {
                    match env {
                        Envelope::ReplayRequest { wire, from } => {
                            let Some(source) = sources.get(&wire) else {
                                continue;
                            };
                            let target = source.lock().target;
                            let frames = log.lock().replay_from(wire, from);
                            let count = frames.len() as u64;
                            let mut prev = VirtualTime::ZERO;
                            for (vt, payload) in frames {
                                router.send(
                                    target,
                                    Envelope::Data {
                                        wire,
                                        vt,
                                        prev_vt: prev,
                                        payload,
                                    },
                                );
                                prev = vt;
                            }
                            let through = {
                                let s = source.lock();
                                if s.finished {
                                    VirtualTime::MAX
                                } else {
                                    s.watermark.unwrap_or(VirtualTime::ZERO)
                                }
                            };
                            router.send(
                                target,
                                Envelope::ReplayDone {
                                    wire,
                                    through,
                                    frames: count,
                                },
                            );
                        }
                        Envelope::Die => return,
                        _ => {}
                    }
                }
            })
            .expect("spawn log-replay thread");
        self.replay_service = Some(thread);
    }

    /// The injector for the external producer `name`.
    pub fn injector(&self, name: &str) -> Option<&Injector> {
        self.injectors.get(name)
    }

    /// Declares end-of-stream on every external producer.
    pub fn finish_inputs(&self) {
        for inj in self.injectors.values() {
            inj.finish();
        }
    }

    /// Heartbeats every idle external producer (promising silence up to
    /// now), unsticking downstream pessimism delays in real-time runs.
    pub fn heartbeat_inputs(&self) {
        for inj in self.injectors.values() {
            inj.heartbeat();
        }
    }

    /// Triggers an immediate soft checkpoint on `engine`.
    pub fn checkpoint_now(&self, engine: EngineId) {
        self.host.router.send(engine, Envelope::Checkpoint);
    }

    /// Switches the silence propagation strategy on every engine, live.
    /// No determinism fault is needed: only the communication of silence
    /// changes, never which ticks are silent (§II.G.4).
    pub fn set_silence_policy(&self, policy: tart_silence::SilencePolicy) {
        let engines = self.host.engines.lock();
        for (id, slot) in engines.iter() {
            if slot.alive {
                self.host
                    .router
                    .send(*id, Envelope::SetSilencePolicy { policy });
            }
        }
    }

    /// Installs a re-calibrated estimator for `component` (a determinism
    /// fault, logged before use — §II.G.4).
    pub fn recalibrate(&self, component: ComponentId, spec: EstimatorSpec) {
        if let Some(engine) = self.host.placement.engine_of(component) {
            self.host
                .router
                .send(engine, Envelope::Recalibrate { component, spec });
        }
    }

    /// Fail-stops `engine` (the manual failure drill; see
    /// [`EngineHost::kill`]). Under supervision, the supervisor leaves
    /// manually killed engines alone — recovery stays manual via
    /// [`Cluster::promote`].
    pub fn kill(&mut self, engine: EngineId) {
        self.host.kill(engine);
    }

    /// Promotes `engine`'s passive replica (the manual recovery drill; see
    /// [`EngineHost::promote`]). Warm when a standby slot is anchored,
    /// cold otherwise.
    ///
    /// # Errors
    ///
    /// See [`PromoteError`] — promoting a live or unknown engine, or one
    /// whose every checkpoint generation failed verification, reports
    /// instead of panicking.
    pub fn promote(&mut self, engine: EngineId) -> Result<(), PromoteError> {
        self.host.promote(engine)
    }

    /// The warm-standby slot view for `engine`: `None` when no standby
    /// plane is configured or `engine` was never deployed.
    pub fn standby_status(&self, engine: EngineId) -> Option<StandbyStatus> {
        self.host.standby.as_ref().and_then(|p| p.status(engine))
    }

    /// Chaos hook: corrupt a recorded digest on the next checkpoint
    /// `engine`'s warm standby applies, forcing a divergence demotion (the
    /// standby-divergence drill). The authoritative replica chain is
    /// untouched, so recovery still converges through the cold path.
    /// Returns `false` when no standby plane is running.
    pub fn corrupt_standby(&self, engine: EngineId) -> bool {
        match &self.host.standby {
            Some(plane) => {
                plane.corrupt_next(engine);
                true
            }
            None => false,
        }
    }

    /// All deployed engine ids, ascending.
    pub fn engine_ids(&self) -> Vec<EngineId> {
        self.host.engine_ids()
    }

    /// A snapshot of `engine`'s metrics.
    pub fn engine_metrics(&self, engine: EngineId) -> Option<EngineMetrics> {
        self.host.engine_metrics(engine)
    }

    /// A snapshot of the liveness supervisor's counters, when supervision
    /// is enabled.
    pub fn supervision_metrics(&self) -> Option<SupervisionMetrics> {
        self.supervisor.as_ref().map(|s| s.metrics())
    }

    /// `(dropped, duplicated)` counts from the link fault injector.
    pub fn fault_counts(&self) -> (u64, u64) {
        self.host.router.fault_counts()
    }

    /// The cluster's observability hub (metrics registry + flight
    /// recorder). Shared by every engine, the WAL and the checkpoint store.
    pub fn obs(&self) -> &Arc<tart_obs::ObsHub> {
        &self.host.obs
    }

    /// A point-in-time copy of every obs metric plus the event timeline.
    pub fn obs_snapshot(&self) -> tart_obs::ObsSnapshot {
        self.host.obs.snapshot()
    }

    /// Writes the canonical `obs-report.json` for this cluster (to
    /// `$TART_OBS_REPORT`, or `obs-report.json` in the current directory)
    /// and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_obs_report(&self) -> std::io::Result<std::path::PathBuf> {
        tart_obs::write_report(&self.host.obs.snapshot())
    }

    /// Number of checkpoints `engine` has shipped to its replica this
    /// incarnation. Monotone; the replica itself holds only the newest two
    /// anchored chains of them.
    pub fn replica_depth(&self, engine: EngineId) -> usize {
        self.host.replica_depth(engine)
    }

    /// Starts a background chaos driver executing `plan` against this
    /// cluster: crashes are injected as unannounced fail-stops that the
    /// supervisor must detect and recover, partitions and latency spikes
    /// disturb payload links.
    ///
    /// # Panics
    ///
    /// Panics if supervision is not enabled — without a failure detector,
    /// injected crashes would never be recovered.
    pub fn launch_chaos(&self, plan: ChaosPlan) -> ChaosHandle {
        let supervisor = self
            .supervisor
            .as_ref()
            .expect("launch_chaos requires ClusterConfig::with_supervision");
        crate::chaos::launch(self.host.router.clone(), supervisor.metrics_handle(), plan)
    }

    /// Non-blocking drain of whatever outputs have been produced so far.
    ///
    /// Handing a record to the caller is the consumer-side ack: the owning
    /// engine gets an ordinary `TrimAck` so that, under durability, its
    /// external output-retention buffer can drop everything a cold restart
    /// no longer needs to re-emit. Outputs never drained stay retained —
    /// and ride in every checkpoint — until someone takes them.
    pub fn take_outputs(&self) -> Vec<OutputRecord> {
        let outs: Vec<OutputRecord> = self.outputs_rx.try_iter().collect();
        let mut drained: BTreeMap<WireId, VirtualTime> = BTreeMap::new();
        for o in &outs {
            let hi = drained.entry(o.wire).or_insert(o.vt);
            if o.vt > *hi {
                *hi = o.vt;
            }
        }
        if !drained.is_empty() {
            let engines = self.host.engines.lock();
            for (wire, through) in drained {
                let owner = self
                    .host
                    .spec
                    .wire(wire)
                    .and_then(|w| w.from().component())
                    .and_then(|c| self.host.placement.engine_of(c));
                if let Some(slot) = owner.and_then(|e| engines.get(&e)) {
                    if slot.alive {
                        let _ = slot.sender.send(Envelope::TrimAck { wire, through });
                    }
                }
            }
        }
        outs
    }

    /// Abruptly fail-stops the **entire cluster** — every engine killed in
    /// place, no drain, no final checkpoint — approximating a whole-process
    /// `SIGKILL` while keeping the test in-process. Whatever had reached
    /// disk at this instant is all a later [`Cluster::recover_from_disk`]
    /// gets. Returns the outputs that had already been collected.
    pub fn crash(mut self) -> Vec<OutputRecord> {
        self.crash_inner(false).0
    }

    /// [`Cluster::crash`], plus per-component loss accounting: the WAL's
    /// open group-commit window is dropped on the floor (a plain `crash`
    /// lets the backend flush it on drop, which a real `SIGKILL` would
    /// not), and the report says exactly how many external inputs each
    /// component had inside that window ([`CrashReport::lost_inputs`]) and
    /// how many were on memory-only wires and were never persisted at all
    /// ([`CrashReport::memory_only_inputs`]).
    ///
    /// This is the drill behind the tier loss bounds in `DURABILITY.md`:
    /// Strict components must never appear in `lost_inputs`, Buffered
    /// components lose at most one open window.
    pub fn crash_with_report(mut self) -> (Vec<OutputRecord>, CrashReport) {
        self.crash_inner(true)
    }

    fn crash_inner(&mut self, discard_open_window: bool) -> (Vec<OutputRecord>, CrashReport) {
        dump_flight(&self.host.obs, "cluster crash drill");
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.stop();
        }
        for id in self.host.engine_ids() {
            self.host.kill(id);
        }
        let mut report = CrashReport::default();
        if discard_open_window {
            let log_crash = self.log.lock().crash_discard();
            let component_of: BTreeMap<WireId, ComponentId> = self
                .host
                .spec
                .external_inputs()
                .iter()
                .filter_map(|w| Some((w.id(), w.to().component()?)))
                .collect();
            for (bucket, wires) in [
                (&mut report.lost_inputs, log_crash.lost),
                (&mut report.memory_only_inputs, log_crash.memory_only),
            ] {
                for (wire, n) in wires {
                    if let Some(c) = component_of.get(&wire) {
                        *bucket.entry(*c).or_insert(0) += n;
                    }
                }
            }
        }
        self.host.router.send(EXTERNAL_ENGINE, Envelope::Die);
        if let Some(t) = self.replay_service.take() {
            let _ = t.join();
        }
        (self.outputs_rx.try_iter().collect(), report)
    }

    /// Gracefully drains and joins every engine, returning all external
    /// outputs (including any recovery stutter — see
    /// [`Cluster::dedup_outputs`]).
    pub fn shutdown(mut self) -> Vec<OutputRecord> {
        // Stop the liveness supervisor FIRST: draining engines stop
        // heartbeating, and the detector must not "recover" them mid-exit.
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.stop();
        }
        {
            let engines = self.host.engines.lock();
            for slot in engines.values() {
                if slot.alive {
                    let _ = slot.sender.send(Envelope::Drain);
                }
            }
        }
        let threads: Vec<JoinHandle<()>> = {
            let mut engines = self.host.engines.lock();
            engines
                .values_mut()
                .filter_map(|s| s.thread.take())
                .collect()
        };
        for t in threads {
            let _ = t.join();
        }
        self.host.router.send(EXTERNAL_ENGINE, Envelope::Die);
        if let Some(t) = self.replay_service.take() {
            let _ = t.join();
        }
        self.outputs_rx.try_iter().collect()
    }

    /// Removes output stutter: keeps, per wire, only the first record at
    /// each virtual time, in virtual-time order — exactly the compensation
    /// the paper expects monotonic-output consumers to apply (§II.A).
    pub fn dedup_outputs(mut outputs: Vec<OutputRecord>) -> Vec<OutputRecord> {
        outputs.sort_by_key(|o| (o.wire, o.vt));
        outputs.dedup_by_key(|o| (o.wire, o.vt));
        outputs.sort_by_key(|o| (o.vt, o.wire));
        outputs
    }
}

/// What [`Cluster::recover_from_disk`] found on disk.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// External-input records recovered from the WAL.
    pub wal_records: usize,
    /// Bytes truncated from the WAL's torn tail (0 on a clean shutdown).
    pub wal_truncated_bytes: u64,
    /// WAL segments scanned.
    pub wal_segments: usize,
    /// Per-engine restart points, in engine-id order.
    pub engines: Vec<EngineRecovery>,
    /// Per-component external-input accounting, in component-id order.
    pub components: Vec<ComponentRecovery>,
}

/// One component's external-input recovery accounting in a
/// [`RecoveryReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentRecovery {
    /// The component.
    pub component: ComponentId,
    /// Its resolved durability tier; `None` means the legacy engine-wide
    /// fsync policy governed its inputs.
    pub tier: Option<DurabilityPolicy>,
    /// External-input records recovered from the WAL for this component's
    /// wires. Compared against the pre-crash append count, the shortfall
    /// is exactly what sat inside the open flush window (Buffered) or was
    /// never persisted (InMemory).
    pub recovered_inputs: u64,
    /// `true` for [`DurabilityPolicy::InMemory`] components: nothing was
    /// on disk by design, and peer replay is the only recovery source.
    pub replay_from_peers_only: bool,
}

/// Per-component cost of a [`Cluster::crash_with_report`] drill. Absent
/// components lost nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Buffered-tier external inputs inside the open group-commit window
    /// at the instant of the crash — bounded by one flush window
    /// ([`crate::BUFFERED_MAX_RECORDS`] records) per wire. A Strict
    /// component appearing here is a durability-contract violation.
    pub lost_inputs: BTreeMap<ComponentId, u64>,
    /// InMemory-tier external inputs, never persisted by design.
    pub memory_only_inputs: BTreeMap<ComponentId, u64>,
}

/// Pins every tiered external-input wire of `log` to its resolved
/// durability tier (component → engine → cluster default). Unresolved
/// wires keep the legacy engine-wide fsync-policy path.
fn apply_wire_tiers(
    spec: &AppSpec,
    placement: &Placement,
    d: &DurabilityConfig,
    log: &mut MessageLog,
) {
    for w in spec.external_inputs() {
        let Some(c) = w.to().component() else {
            continue;
        };
        if let Some(tier) = d.tier_for(c, placement.engine_of(c)) {
            log.set_wire_tier(w.id(), tier);
        }
    }
}

/// Builds the per-component recovery accounting for a cold restart: how
/// many external inputs each component got back from the WAL, under which
/// tier.
fn component_recoveries(
    spec: &AppSpec,
    placement: &Placement,
    d: &DurabilityConfig,
    log: &MessageLog,
) -> Vec<ComponentRecovery> {
    let mut per: BTreeMap<ComponentId, ComponentRecovery> = BTreeMap::new();
    for w in spec.external_inputs() {
        let Some(c) = w.to().component() else {
            continue;
        };
        let tier = d.tier_for(c, placement.engine_of(c));
        let entry = per.entry(c).or_insert_with(|| ComponentRecovery {
            component: c,
            tier,
            recovered_inputs: 0,
            replay_from_peers_only: matches!(tier, Some(DurabilityPolicy::InMemory)),
        });
        entry.recovered_inputs += log.wire_len(w.id()) as u64;
    }
    per.into_values().collect()
}

/// One engine's restart point in a [`RecoveryReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineRecovery {
    /// The engine.
    pub engine: EngineId,
    /// The checkpoint generation it restored from; `None` means no durable
    /// checkpoint existed and it restarted from scratch (full replay).
    pub generation: Option<u64>,
    /// `true` if recovery did not restore through the newest persisted
    /// generation — a damaged full or delta forced a shorter or older
    /// restore chain.
    pub fell_back: bool,
}

/// Brings up the durability layer for a **fresh** deployment: refuses a
/// directory holding prior WAL/checkpoint state (that state belongs to
/// [`Cluster::recover_from_disk`]).
fn open_fresh_durability(
    d: &DurabilityConfig,
) -> Result<(MessageLog, Arc<CheckpointStore>), DeployError> {
    for sub in ["wal", "ckpt"] {
        let p = d.dir.join(sub);
        let populated = std::fs::read_dir(&p)
            .map(|mut it| it.next().is_some())
            .unwrap_or(false);
        if populated {
            return Err(DeployError::DurabilityDirNotEmpty);
        }
    }
    std::fs::create_dir_all(&d.dir)
        .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?;
    let (log, _recovery) = MessageLog::durable(d.dir.join("wal"), d.wal_segment_bytes, d.policy)
        .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?;
    let store = CheckpointStore::open(d.dir.join("ckpt"))
        .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?;
    Ok((log, Arc::new(store)))
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("engines", &self.host.engines.lock().len())
            .field("injectors", &self.injectors.len())
            .field("supervised", &self.supervisor.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::KEPT_GENERATIONS;
    use crate::StandbyConfig;
    use tart_model::reference::fan_in_app;
    use tart_model::{
        BlockId, CheckpointMode, CkptCell, CkptMap, Component, Ctx, RestoreError, Snapshot,
    };
    use tart_vtime::PortId;

    const SENTENCES: &[(&str, &str)] = &[
        ("client1", "alpha beta gamma"),
        ("client2", "beta gamma delta"),
        ("client1", "gamma delta epsilon"),
        ("client2", "delta epsilon alpha"),
        ("client1", "epsilon alpha beta"),
        ("client2", "alpha beta gamma delta"),
    ];
    const ENGINE: EngineId = EngineId::new(0);

    /// One engine, a checkpoint per message, a one-tick warm standby.
    fn deploy() -> Cluster {
        let spec = fan_in_app(2).expect("valid app");
        let config = ClusterConfig::logical_time()
            .with_checkpoint_every(1)
            .with_warm_standby(StandbyConfig {
                trailing_horizon_ticks: 1,
                apply_interval: Duration::from_millis(1),
            });
        Cluster::deploy(spec.clone(), Placement::single_engine(&spec), config).expect("deploys")
    }

    fn send(cluster: &Cluster, sentences: &[(&str, &str)]) {
        for (client, sentence) in sentences {
            let injector = cluster.injector(client).expect("injector");
            injector.send(Value::from(*sentence));
        }
    }

    fn await_standby(cluster: &Cluster, pred: impl Fn(&StandbyStatus) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cluster.standby_status(ENGINE).is_some_and(|s| pred(&s)) {
            let status = cluster.standby_status(ENGINE);
            assert!(Instant::now() < deadline, "standby stuck at {status:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn finish(cluster: Cluster) -> Vec<(VirtualTime, String)> {
        cluster.finish_inputs();
        Cluster::dedup_outputs(cluster.shutdown())
            .into_iter()
            .map(|o| (o.vt, o.payload.to_string()))
            .collect()
    }

    /// The seal covers `retention`, which a restore replays from every
    /// chain member, and the state digests do not. A full generation whose
    /// retention was rewritten after sealing therefore passes every digest
    /// check; only the seal catches it. The cold path truncates the chain
    /// there, so the standby must refuse to carry its core past it.
    #[test]
    fn standby_refuses_a_full_generation_with_a_broken_seal() {
        let reference = {
            let cluster = deploy();
            send(&cluster, SENTENCES);
            finish(cluster)
        };

        let mut cluster = deploy();
        send(&cluster, &SENTENCES[..4]);
        await_standby(&cluster, |s| s.anchored && s.applied >= 1);

        ship_forged_chain(&replica_of(&cluster));

        await_standby(&cluster, |s| !s.anchored);
        let status = cluster.standby_status(ENGINE).expect("slot exists");
        assert!(!status.demoted, "a refused member is not divergence");
        assert!(status.pending >= 2, "the cursor parks at the forged member");

        cluster.kill(ENGINE);
        cluster.promote(ENGINE).expect("cold promotion succeeds");
        send(&cluster, &SENTENCES[4..]);
        let snap = cluster.obs_snapshot();
        assert_eq!(
            (snap.warm_promotions, snap.cold_promotions),
            (0, 1),
            "a parked standby is no head start"
        );
        assert_eq!(snap.standby_demotions, 0);
        assert_eq!(
            finish(cluster),
            reference,
            "the cold path truncated the forged member and replayed around it"
        );
    }

    /// Two checkpointed fields that dirty independently: a request `>= 0`
    /// bumps a key and the sequence, a negative one only the sequence. The
    /// map starts with 64 keys, so a full outweighs dozens of deltas.
    struct Tally {
        hits: CkptMap<String, u64>,
        seq: CkptCell<u64>,
    }

    impl Component for Tally {
        fn on_message(&mut self, _port: PortId, msg: &Value, ctx: &mut dyn Ctx) {
            ctx.tick_block(BlockId(0), 1);
            if let Some(i) = msg.as_i64().filter(|i| *i >= 0) {
                let key = format!("key-{:02}", i % 64);
                let hits = self.hits.get(&key).copied().unwrap_or(0);
                self.hits.insert(key, hits + 1);
            }
            self.seq.update(|s| *s += 1);
            ctx.send(PortId::new(1), Value::I64(*self.seq.get() as i64));
        }

        fn checkpoint(&mut self, mode: CheckpointMode, vt: VirtualTime) -> Snapshot {
            let mut snap = Snapshot::new(vt);
            if let Some(chunk) = self.hits.take_chunk(mode) {
                snap.put("hits", chunk);
            }
            if let Some(chunk) = self.seq.take_chunk(mode) {
                snap.put("seq", chunk);
            }
            snap
        }

        fn restore(&mut self, snapshot: &Snapshot) -> Result<(), RestoreError> {
            for (field, chunk) in snapshot.iter() {
                let applied = match field {
                    "hits" => self.hits.apply_chunk(chunk),
                    "seq" => self.seq.apply_chunk(chunk),
                    other => {
                        return Err(RestoreError::UnknownField {
                            field: other.to_owned(),
                        })
                    }
                };
                applied.map_err(|source| RestoreError::Corrupt {
                    field: field.to_owned(),
                    source,
                })?;
            }
            Ok(())
        }
    }

    /// One engine hosting a [`Tally`], a checkpoint per message.
    fn deploy_tally(standby: Option<StandbyConfig>) -> Cluster {
        let mut b = AppSpec::builder();
        let tally = b.component(
            "Tally",
            Arc::new(|| {
                let mut hits = CkptMap::new();
                for k in 0..64 {
                    hits.insert(format!("key-{k:02}"), 0);
                }
                Box::new(Tally {
                    hits,
                    seq: CkptCell::new(0),
                }) as Box<dyn Component>
            }),
        );
        b.wire_in("requests", tally, PortId::new(0));
        b.wire_out(tally, PortId::new(1), "acks");
        let spec = b.build().expect("valid app");
        let mut config = ClusterConfig::logical_time().with_checkpoint_every(1);
        if let Some(standby) = standby {
            config = config.with_warm_standby(standby);
        }
        Cluster::deploy(spec.clone(), Placement::single_engine(&spec), config).expect("deploys")
    }

    /// Sends `requests` and waits until each one's checkpoint has shipped.
    fn tally(cluster: &Cluster, requests: impl IntoIterator<Item = i64>) {
        let injector = cluster.injector("requests").expect("injector");
        let mut depth = cluster.replica_depth(ENGINE);
        for request in requests {
            injector.send(Value::I64(request));
            depth += 1;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seen = 0;
        while seen < depth {
            let now = cluster.replica_depth(ENGINE);
            assert!(now >= seen, "replica_depth is monotone");
            assert!(Instant::now() < deadline, "stuck at depth {now}/{depth}");
            seen = now;
            std::thread::yield_now();
        }
    }

    fn replica_of(cluster: &Cluster) -> ReplicaStore {
        cluster.host.engines.lock()[&ENGINE].replica.clone()
    }

    /// Ships a forged chain as the replica's newest: a full whose retention
    /// was rewritten after sealing — the seal covers `retention`, the state
    /// digests do not, so only the seal catches it — and a later delta.
    fn ship_forged_chain(replica: &ReplicaStore) {
        let held = replica.held();
        let mut full = (*held.members[0]).clone();
        assert!(full.is_self_contained(), "chains open with a full");
        let newest = held.members.last().expect("non-empty");
        full.seq = newest.seq + 1;
        let bogus = (VirtualTime::from_ticks(1), Value::from("never sent"));
        full.retention
            .entry(WireId::new(0))
            .or_default()
            .push(bogus);
        assert!(seal_step(None, 0, &full).is_err(), "seal is now stale");
        // A later capture, so everything before it leaves a standby's horizon.
        let mut delta = (**newest).clone();
        delta.seq = full.seq + 1;
        for clock in delta.clocks.values_mut() {
            *clock = VirtualTime::from_ticks(clock.as_ticks() + 1_000);
        }
        replica.push_checkpoint(full, CheckpointMode::Full);
        replica.push_checkpoint(delta, CheckpointMode::Incremental);
    }

    /// An incremental snapshot that omits its clean fields *reads*
    /// self-contained. Only the capture mode may make an anchor: restoring
    /// from this member alone would resume with an empty map.
    #[test]
    fn a_self_contained_looking_delta_is_not_an_anchor() {
        let script = [0, 1, -1, 2, -1, 3];
        let reference = {
            let cluster = deploy_tally(None);
            tally(&cluster, script);
            finish(cluster)
        };

        let mut cluster = deploy_tally(None);
        tally(&cluster, script[..3].iter().copied());
        let held = replica_of(&cluster).held();
        assert_eq!(held.members.len(), 3);
        assert!(
            held.members[2].is_self_contained() && !held.members[1].is_self_contained(),
            "the cell-only interval ships {{seq: Full}} and nothing else"
        );
        assert_eq!(held.anchors, [0], "only the Full-mode capture anchors");

        cluster.kill(ENGINE);
        let restored = cluster
            .host
            .restore_verified(ENGINE, &ReplicaStore::new(), held, &[], None)
            .expect("restores");
        assert!(!restored.fell_back, "nothing had to be discarded");
        drop(restored);
        cluster.promote(ENGINE).expect("promotes");
        tally(&cluster, script[3..].iter().copied());
        assert_eq!(cluster.obs_snapshot().divergences_detected, 0);
        assert_eq!(finish(cluster), reference);
    }

    #[test]
    fn a_forged_newest_chain_falls_back_to_the_previous_one() {
        let reference = {
            let cluster = deploy_tally(None);
            tally(&cluster, 0..8);
            finish(cluster)
        };

        let mut cluster = deploy_tally(None);
        tally(&cluster, 0..5);
        cluster.kill(ENGINE);
        ship_forged_chain(&replica_of(&cluster));
        cluster
            .promote(ENGINE)
            .expect("the previous chain restores");
        tally(&cluster, 5..8);
        assert_eq!(cluster.obs_snapshot().divergences_detected, 0);
        assert_eq!(finish(cluster), reference);
    }

    #[test]
    fn exhausting_both_chains_is_a_structured_error() {
        let mut cluster = deploy_tally(None);
        tally(&cluster, 0..5);
        cluster.kill(ENGINE);
        let replica = replica_of(&cluster);
        ship_forged_chain(&replica);
        ship_forged_chain(&replica);
        assert_eq!(replica.chain().len(), 4, "the genuine chain was pruned");
        assert_eq!(
            cluster.promote(ENGINE),
            Err(PromoteError::ChainExhausted {
                engine: ENGINE,
                discarded: 4
            }),
            "both kept chains were tried, and both counted"
        );
    }

    /// The acceptance bound, end to end: 300 checkpoints ship, the replica
    /// keeps two chains of them, each chain's deltas (but for the one that
    /// tipped it) weigh less than its full, and promotion is transparent.
    #[test]
    fn a_long_incarnation_keeps_a_bounded_replica_and_promotes_transparently() {
        let reference = {
            let cluster = deploy_tally(None);
            tally(&cluster, 0..310);
            finish(cluster)
        };

        let mut cluster = deploy_tally(None);
        tally(&cluster, 0..300);
        assert_eq!(cluster.replica_depth(ENGINE), 300);
        let shipped = cluster.engine_metrics(ENGINE).expect("alive").checkpoints;
        assert_eq!(
            shipped, 300,
            "depth counts what was shipped, not what is held"
        );

        let held = replica_of(&cluster).held();
        assert_eq!(held.floor + held.members.len(), 300);
        assert_eq!(held.anchors.len(), KEPT_GENERATIONS);
        assert_eq!(held.anchors[0], 0, "held members open at an anchor");
        assert!(held.members.len() < 150, "held {}", held.members.len());
        let ends = held.anchors.iter().copied().skip(1);
        for (&start, end) in held.anchors.iter().zip(ends.chain([held.members.len()])) {
            let full = held.members[start].payload_bytes();
            let deltas: usize = (start + 1..end.saturating_sub(1))
                .map(|i| held.members[i].payload_bytes())
                .sum();
            assert!(
                deltas < full,
                "chain at {start}: {deltas} delta bytes, full {full}"
            );
        }

        cluster.kill(ENGINE);
        cluster.promote(ENGINE).expect("promotes");
        tally(&cluster, 300..310);
        let snap = cluster.obs_snapshot();
        assert_eq!((snap.cold_promotions, snap.divergences_detected), (1, 0));
        assert_eq!(finish(cluster), reference);
    }

    /// A standby trailing one and a half chains behind the head is passed
    /// by the replica's floor once per chain. Each time it re-anchors on the
    /// full the held members open with; its cursor stays a position in the
    /// shipped sequence, and the core it built is still a head start.
    #[test]
    fn a_standby_the_floor_has_passed_re_anchors_and_still_promotes_warm() {
        let (reference, horizon) = {
            let cluster = deploy_tally(None);
            tally(&cluster, 0..300);
            let held = replica_of(&cluster).held();
            let clock = |i: usize| {
                let clocks = &held.members[i].clocks;
                clocks.values().max().expect("one component").as_ticks()
            };
            let chain = held.anchors[1] as u64;
            let per_member = (clock(held.anchors[1]) - clock(0)) / chain;
            tally(&cluster, 300..310);
            (finish(cluster), per_member * (chain + chain / 2))
        };

        let mut cluster = deploy_tally(Some(StandbyConfig {
            trailing_horizon_ticks: horizon,
            apply_interval: Duration::from_millis(1),
        }));
        // One at a time: the standby measures its horizon from the newest
        // *input* it has heard of, so a burst would age every member at once.
        for request in 0..300 {
            tally(&cluster, [request]);
        }
        await_standby(&cluster, |s| s.anchored);
        let status = cluster.standby_status(ENGINE).expect("slot exists");
        assert_eq!(
            status.applied as usize + status.pending,
            cluster.replica_depth(ENGINE),
            "the cursor still tails the shipped sequence"
        );
        assert!(
            status.applied > cluster.obs_snapshot().standby_applied,
            "the cursor skipped members the replica pruned: {status:?}"
        );

        cluster.kill(ENGINE);
        cluster.promote(ENGINE).expect("promotes");
        tally(&cluster, 300..310);
        let snap = cluster.obs_snapshot();
        assert_eq!((snap.warm_promotions, snap.cold_promotions), (1, 0));
        assert_eq!((snap.standby_demotions, snap.divergences_detected), (0, 0));
        assert_eq!(finish(cluster), reference);
    }
}
