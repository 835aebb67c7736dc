//! Deployment configuration: placement and runtime tuning.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use tart_estimator::EstimatorSpec;
use tart_model::{AppSpec, BlockId};
use tart_silence::SilencePolicy;
use tart_vtime::{ComponentId, EngineId, VirtualDuration, WireId};

use crate::{DurabilityPolicy, FaultPlan, FsyncPolicy, LogicalClock, RealClock, TimeSource};

/// Assigns components to execution engines — the placement service of
/// §II.C ("a placement service assigns individual components to execution
/// engines within the distributed system").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Placement {
    assignments: BTreeMap<ComponentId, EngineId>,
}

impl Placement {
    /// Creates an empty placement.
    pub fn new() -> Self {
        Placement::default()
    }

    /// Assigns `component` to `engine`.
    pub fn assign(&mut self, component: ComponentId, engine: EngineId) -> &mut Self {
        self.assignments.insert(component, engine);
        self
    }

    /// Places every component of `spec` on engine 0.
    pub fn single_engine(spec: &AppSpec) -> Self {
        let mut p = Placement::new();
        for c in spec.components() {
            p.assign(c.id(), EngineId::new(0));
        }
        p
    }

    /// Round-robins components across `n` engines in id order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn round_robin(spec: &AppSpec, n: u32) -> Self {
        assert!(n > 0, "need at least one engine");
        let mut p = Placement::new();
        for (i, c) in spec.components().iter().enumerate() {
            p.assign(c.id(), EngineId::new(i as u32 % n));
        }
        p
    }

    /// The engine hosting `component`.
    pub fn engine_of(&self, component: ComponentId) -> Option<EngineId> {
        self.assignments.get(&component).copied()
    }

    /// All engines used, deduplicated, ascending.
    pub fn engines(&self) -> Vec<EngineId> {
        let mut v: Vec<EngineId> = self.assignments.values().copied().collect();
        v.sort();
        v.dedup();
        v
    }

    /// The components hosted on `engine`, ascending.
    pub fn components_on(&self, engine: EngineId) -> Vec<ComponentId> {
        self.assignments
            .iter()
            .filter(|(_, e)| **e == engine)
            .map(|(c, _)| *c)
            .collect()
    }

    /// Returns `true` if every component of `spec` is assigned.
    pub fn covers(&self, spec: &AppSpec) -> bool {
        spec.components()
            .iter()
            .all(|c| self.assignments.contains_key(&c.id()))
    }
}

/// Failure-detector tuning for the self-healing supervisor.
///
/// Engines emit [`crate::Envelope::Heartbeat`] beacons every
/// `heartbeat_interval`; the supervisor suspects an engine when either its
/// phi-accrual score crosses `phi_threshold` or no beacon has arrived for
/// `suspicion_timeout` (the hard bound). A suspected engine is fail-stopped
/// and its replica promoted automatically — the same kill → promote →
/// replay path as a manual failover, so a false positive costs a recovery,
/// never correctness.
#[derive(Clone, Debug)]
pub struct SupervisionConfig {
    /// How often each engine emits a liveness heartbeat.
    pub heartbeat_interval: Duration,
    /// Hard bound: an engine unheard-from for this long is declared failed
    /// regardless of the phi score.
    pub suspicion_timeout: Duration,
    /// Phi-accrual suspicion threshold (à la Hayashibara et al.); `None`
    /// falls back to the plain `suspicion_timeout` detector.
    pub phi_threshold: Option<f64>,
    /// How often the supervisor re-evaluates liveness between beacons.
    pub poll_interval: Duration,
}

impl Default for SupervisionConfig {
    /// Production-flavoured: 250 ms beacons, 2 s hard timeout, phi 8.
    fn default() -> Self {
        SupervisionConfig {
            heartbeat_interval: Duration::from_millis(250),
            suspicion_timeout: Duration::from_secs(2),
            phi_threshold: Some(8.0),
            poll_interval: Duration::from_millis(50),
        }
    }
}

impl SupervisionConfig {
    /// Test-flavoured: tight intervals so failover completes in tens of
    /// milliseconds. The suspicion timeout still leaves generous headroom
    /// over the beacon period to ride out scheduler hiccups on loaded CI
    /// machines.
    pub fn fast() -> Self {
        SupervisionConfig {
            heartbeat_interval: Duration::from_millis(10),
            suspicion_timeout: Duration::from_millis(400),
            phi_threshold: Some(8.0),
            poll_interval: Duration::from_millis(5),
        }
    }
}

/// Warm-standby (hot-failover) tuning.
///
/// Enabled via [`ClusterConfig::with_warm_standby`]. A passive standby
/// plane tails each engine's replica chain and hears its external-input
/// head (LLFT-style leader-follower replication); the standby
/// pre-applies checkpoints in the background once they trail the primary's
/// virtual-time head by `trailing_horizon_ticks`, verifying every applied
/// checkpoint against its recorded state hash. Promotion then replays only
/// the unapplied tail, so recovery latency is bounded by the horizon
/// instead of growing with log depth — the availability guarantee: *the
/// replay starting point is never older than the trailing horizon*.
#[derive(Clone, Debug)]
pub struct StandbyConfig {
    /// How far (in virtual-time ticks ≈ ns) the standby trails the
    /// primary's head before pre-applying a shipped checkpoint. The
    /// margin keeps the standby from racing ahead of retention trims while
    /// bounding the replay tail a promotion must cover.
    pub trailing_horizon_ticks: u64,
    /// How often the standby plane drains its inbox and applies eligible
    /// checkpoints.
    pub apply_interval: Duration,
}

impl Default for StandbyConfig {
    /// ~100 ms of virtual time (the documented availability bound), 5 ms
    /// apply cadence.
    fn default() -> Self {
        StandbyConfig {
            trailing_horizon_ticks: 100_000_000,
            apply_interval: Duration::from_millis(5),
        }
    }
}

/// Where and how a cluster persists its crash-safe state.
///
/// Enabled via [`ClusterConfig::with_durability`]. Inside `dir` the cluster
/// keeps `wal/` (the segmented external-input log) and `ckpt/` (the
/// generation-managed checkpoint store + determinism-fault logs). With
/// durability on, checkpoints persist as delta generations against the last
/// full one (a full every `full_checkpoint_every` checkpoints anchors each
/// chain), retention `TrimAck`s wait for a *full* generation to be durable
/// and lag one full generation (recovery may fall back a whole chain), and
/// [`crate::Cluster::recover_from_disk`] can cold-restart the whole cluster
/// from `dir`.
///
/// The tier table (`component_tiers` / `engine_tiers` / `default_tier`)
/// refines the single cluster-wide `policy` into per-component
/// [`DurabilityPolicy`] contracts (see `DURABILITY.md`): a component's tier
/// decides how its external inputs ride the shared WAL (Strict closes the
/// group-commit window, Buffered rides it, InMemory skips the log) and how
/// its engine's checkpoints persist. Components with no resolved tier keep
/// the legacy behaviour: WAL appends follow `policy` and checkpoint
/// persists fsync.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Root directory for all persistent state.
    pub dir: std::path::PathBuf,
    /// When WAL appends are forced to disk (legacy cluster-wide lane, used
    /// by wires whose destination component resolves to no tier).
    pub policy: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub wal_segment_bytes: u64,
    /// Persist a full (self-contained) checkpoint every this many durable
    /// checkpoints; the ones between are deltas against it. `1` restores
    /// the original always-full behaviour; higher values trade restore
    /// replay length (at most one full + `full_checkpoint_every - 1`
    /// deltas) for much smaller steady-state checkpoint writes.
    pub full_checkpoint_every: u32,
    /// Cluster-wide default durability tier for components without a more
    /// specific entry. `None` keeps the legacy (untiered) contract.
    pub default_tier: Option<DurabilityPolicy>,
    /// Per-engine tier overrides: apply to every component placed on the
    /// engine unless the component has its own entry.
    pub engine_tiers: BTreeMap<EngineId, DurabilityPolicy>,
    /// Per-component tier overrides — the most specific level, wins over
    /// engine and cluster defaults.
    pub component_tiers: BTreeMap<ComponentId, DurabilityPolicy>,
}

impl DurabilityConfig {
    /// A durability config rooted at `dir` with the given legacy fsync
    /// policy, default segment threshold (1 MiB), full-checkpoint cadence
    /// (4) and an empty tier table.
    pub fn new(dir: impl Into<std::path::PathBuf>, policy: FsyncPolicy) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            policy,
            wal_segment_bytes: 1 << 20,
            full_checkpoint_every: 4,
            default_tier: None,
            engine_tiers: BTreeMap::new(),
            component_tiers: BTreeMap::new(),
        }
    }

    /// Resolves `component`'s durability tier: component entry, else its
    /// engine's entry, else the cluster default, else `None` (legacy
    /// untiered contract).
    pub fn tier_for(
        &self,
        component: ComponentId,
        engine: Option<EngineId>,
    ) -> Option<DurabilityPolicy> {
        if let Some(t) = self.component_tiers.get(&component) {
            return Some(*t);
        }
        if let Some(e) = engine {
            if let Some(t) = self.engine_tiers.get(&e) {
                return Some(*t);
            }
        }
        self.default_tier
    }
}

/// Cluster-wide runtime tuning (§II.G's controls).
#[derive(Clone)]
pub struct ClusterConfig {
    /// Deterministic (virtual-time-ordered) scheduling. Disabling it gives
    /// the paper's measurement baseline: a conventional runtime processing
    /// messages in real-time arrival order — overhead-free but
    /// unrecoverable (§III's "non-deterministic" mode).
    pub deterministic: bool,
    /// Silence propagation strategy.
    ///
    /// Note: in the live engine, [`SilencePolicy::HyperAggressive`] behaves
    /// like curiosity without the bias floor. Sound bias promises require
    /// logging each pre-promise like a determinism fault (a promise made
    /// from volatile idle state constrains which ticks may carry data after
    /// a replay); the paper leaves this dynamic machinery as future work
    /// (§IV), and so does this engine — the simulator implements the full
    /// bias algorithm for the §III studies.
    pub silence: SilencePolicy,
    /// Take a soft checkpoint after this many processed messages per
    /// engine ("the checkpoint frequency is a tuning parameter", §II.F.2).
    pub checkpoint_every: u64,
    /// Per-component estimators; components without an entry default to
    /// 1 tick per execution of block 0.
    pub estimators: BTreeMap<ComponentId, EstimatorSpec>,
    /// Per-component minimum handler cost, used in silence oracles
    /// ("the computation time of the shortest possible processing", §II.H).
    pub min_work: BTreeMap<ComponentId, VirtualDuration>,
    /// Per-wire transmission-delay estimate added to output virtual times
    /// (constant, per §II.G.1's "crude estimate … based upon expected
    /// communication delay").
    pub link_delay: BTreeMap<WireId, VirtualDuration>,
    /// Timestamp source for external input.
    pub clock: Arc<dyn TimeSource>,
    /// Link-fault injection plan.
    pub faults: FaultPlan,
    /// How long an engine blocks on an empty inbox before re-evaluating
    /// (also the re-probe period after lost probes), in microseconds.
    pub idle_poll_micros: u64,
    /// Dynamic re-tuning (§II.G.4): after this many measured handler
    /// executions, a component's estimator is re-fitted by linear
    /// regression on block 0 and installed as a determinism fault.
    /// `None` disables measurement entirely (no timing overhead).
    pub auto_recalibrate_after: Option<u64>,
    /// Heartbeat-driven automatic failover. `None` (the default) keeps the
    /// original manual drill — [`crate::Cluster::kill`] then
    /// [`crate::Cluster::promote`] — as the only recovery path.
    pub supervision: Option<SupervisionConfig>,
    /// Crash-safe durability: segmented WAL + on-disk checkpoint store.
    /// `None` (the default) keeps all recovery state in memory, where a
    /// whole-process crash is unrecoverable.
    pub durability: Option<DurabilityConfig>,
    /// Warm-standby failover: a passive plane pre-applies each engine's
    /// checkpoint chain up to a trailing horizon, so promotion replays only
    /// the unapplied tail. `None` (the default) keeps promotion on the cold
    /// path (full chain replay through `restore_verified`).
    pub standby: Option<StandbyConfig>,
}

impl ClusterConfig {
    /// Production-flavoured defaults: real clock, curiosity silence,
    /// checkpoint every 100 messages, no faults.
    pub fn real_time() -> Self {
        ClusterConfig {
            deterministic: true,
            silence: SilencePolicy::Curiosity,
            checkpoint_every: 100,
            estimators: BTreeMap::new(),
            min_work: BTreeMap::new(),
            link_delay: BTreeMap::new(),
            clock: Arc::new(RealClock::new()),
            faults: FaultPlan::none(),
            idle_poll_micros: 200,
            auto_recalibrate_after: None,
            supervision: None,
            durability: None,
            standby: None,
        }
    }

    /// Test-flavoured defaults: logical clock stepping 1 ms per event so
    /// whole-cluster runs are reproducible.
    pub fn logical_time() -> Self {
        ClusterConfig {
            clock: Arc::new(LogicalClock::new(1_000_000)),
            ..ClusterConfig::real_time()
        }
    }

    /// Sets the estimator for a component (builder style).
    pub fn with_estimator(mut self, component: ComponentId, spec: EstimatorSpec) -> Self {
        self.estimators.insert(component, spec);
        self
    }

    /// Sets the silence policy (builder style).
    pub fn with_silence(mut self, policy: SilencePolicy) -> Self {
        self.silence = policy;
        self
    }

    /// Selects the non-deterministic (arrival-order) baseline mode
    /// (builder style).
    pub fn non_deterministic(mut self) -> Self {
        self.deterministic = false;
        self
    }

    /// Sets the fault plan (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enables the crash-safe durability layer rooted at `dir` (builder
    /// style): external inputs go through a fsync-policied segmented WAL,
    /// checkpoints are persisted to a generation-managed on-disk store, and
    /// the cluster becomes cold-restartable via
    /// [`crate::Cluster::recover_from_disk`]. Uses a 1 MiB WAL segment
    /// threshold and a full checkpoint every 4 durable generations; set
    /// [`ClusterConfig::durability`] directly to tune them.
    pub fn with_durability(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        policy: FsyncPolicy,
    ) -> Self {
        self.durability = Some(DurabilityConfig::new(dir, policy));
        self
    }

    /// Sets the cluster-wide default durability tier (builder style): every
    /// component without a more specific engine or component entry resolves
    /// to `tier`. See `DURABILITY.md` for the contract each tier carries.
    ///
    /// # Panics
    ///
    /// Panics if durability is not enabled.
    pub fn with_default_tier(mut self, tier: DurabilityPolicy) -> Self {
        self.durability
            .as_mut()
            .expect("enable durability before assigning tiers")
            .default_tier = Some(tier);
        self
    }

    /// Assigns a durability tier to every component placed on `engine`
    /// (builder style); per-component entries still win.
    ///
    /// # Panics
    ///
    /// Panics if durability is not enabled.
    pub fn with_engine_tier(mut self, engine: EngineId, tier: DurabilityPolicy) -> Self {
        self.durability
            .as_mut()
            .expect("enable durability before assigning tiers")
            .engine_tiers
            .insert(engine, tier);
        self
    }

    /// Assigns a durability tier to one component (builder style) — the
    /// most specific level of the tier table.
    ///
    /// # Panics
    ///
    /// Panics if durability is not enabled.
    pub fn with_component_tier(mut self, component: ComponentId, tier: DurabilityPolicy) -> Self {
        self.durability
            .as_mut()
            .expect("enable durability before assigning tiers")
            .component_tiers
            .insert(component, tier);
        self
    }

    /// Sets the durable full-checkpoint cadence (builder style); `1` makes
    /// every durable checkpoint full.
    ///
    /// # Panics
    ///
    /// Panics if durability is not enabled or `every` is zero.
    pub fn with_full_checkpoint_every(mut self, every: u32) -> Self {
        assert!(every > 0, "full-checkpoint cadence must be positive");
        self.durability
            .as_mut()
            .expect("enable durability before tuning its cadence")
            .full_checkpoint_every = every;
        self
    }

    /// Enables dynamic estimator re-tuning after `samples` measured handler
    /// executions per component (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn with_auto_recalibrate_after(mut self, samples: u64) -> Self {
        assert!(samples > 0, "need at least one sample to calibrate");
        self.auto_recalibrate_after = Some(samples);
        self
    }

    /// Enables heartbeat-driven automatic failover (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the suspicion timeout does not exceed the heartbeat
    /// interval — such a detector would suspect healthy engines between
    /// beacons.
    pub fn with_supervision(mut self, supervision: SupervisionConfig) -> Self {
        assert!(
            supervision.suspicion_timeout > supervision.heartbeat_interval,
            "suspicion timeout must exceed the heartbeat interval"
        );
        self.supervision = Some(supervision);
        self
    }

    /// Enables warm-standby failover (builder style): a passive standby
    /// plane pre-applies each engine's checkpoint chain up to the
    /// configured trailing horizon, bounding promotion latency (see
    /// [`StandbyConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if the trailing horizon is zero — a zero-horizon standby
    /// would race the primary's retention trims.
    pub fn with_warm_standby(mut self, standby: StandbyConfig) -> Self {
        assert!(
            standby.trailing_horizon_ticks > 0,
            "standby trailing horizon must be positive"
        );
        self.standby = Some(standby);
        self
    }

    /// Sets the checkpoint interval (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint_every = every;
        self
    }

    /// The estimator for `component` (falling back to the default).
    pub fn estimator_for(&self, component: ComponentId) -> EstimatorSpec {
        self.estimators
            .get(&component)
            .cloned()
            .unwrap_or_else(|| EstimatorSpec::per_iteration(BlockId(0), 1))
    }

    /// The minimum-work bound for `component`.
    pub fn min_work_for(&self, component: ComponentId) -> VirtualDuration {
        self.min_work
            .get(&component)
            .copied()
            .unwrap_or(VirtualDuration::TICK)
    }

    /// The link-delay estimate for `wire`.
    pub fn link_delay_for(&self, wire: WireId) -> VirtualDuration {
        self.link_delay
            .get(&wire)
            .copied()
            .unwrap_or(VirtualDuration::ZERO)
    }
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("silence", &self.silence)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("estimators", &self.estimators.len())
            .field("supervision", &self.supervision)
            .field("durability", &self.durability)
            .field("standby", &self.standby)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tart_model::reference::fan_in_app;

    #[test]
    fn single_engine_placement_covers_everything() {
        let spec = fan_in_app(2).unwrap();
        let p = Placement::single_engine(&spec);
        assert!(p.covers(&spec));
        assert_eq!(p.engines(), vec![EngineId::new(0)]);
        assert_eq!(p.components_on(EngineId::new(0)).len(), 3);
        assert_eq!(p.engine_of(ComponentId::new(0)), Some(EngineId::new(0)));
        assert_eq!(p.engine_of(ComponentId::new(99)), None);
    }

    #[test]
    fn round_robin_spreads_components() {
        let spec = fan_in_app(3).unwrap(); // 4 components
        let p = Placement::round_robin(&spec, 2);
        assert!(p.covers(&spec));
        assert_eq!(p.engines(), vec![EngineId::new(0), EngineId::new(1)]);
        assert_eq!(p.components_on(EngineId::new(0)).len(), 2);
        assert_eq!(p.components_on(EngineId::new(1)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn round_robin_rejects_zero() {
        let spec = fan_in_app(1).unwrap();
        let _ = Placement::round_robin(&spec, 0);
    }

    #[test]
    fn manual_placement() {
        let spec = fan_in_app(2).unwrap();
        let merger = spec.component_by_name("Merger").unwrap().id();
        let s1 = spec.component_by_name("Sender1").unwrap().id();
        let s2 = spec.component_by_name("Sender2").unwrap().id();
        let mut p = Placement::new();
        p.assign(s1, EngineId::new(0))
            .assign(s2, EngineId::new(0))
            .assign(merger, EngineId::new(1));
        assert!(p.covers(&spec));
        assert_eq!(p.components_on(EngineId::new(1)), vec![merger]);
    }

    #[test]
    fn config_defaults_and_builders() {
        let cfg = ClusterConfig::logical_time()
            .with_checkpoint_every(10)
            .with_silence(SilencePolicy::Lazy)
            .with_estimator(
                ComponentId::new(0),
                EstimatorSpec::per_iteration(BlockId(0), 61_000),
            )
            .with_faults(FaultPlan::none());
        assert_eq!(cfg.checkpoint_every, 10);
        assert_eq!(cfg.silence, SilencePolicy::Lazy);
        assert_eq!(
            cfg.estimator_for(ComponentId::new(0)),
            EstimatorSpec::per_iteration(BlockId(0), 61_000)
        );
        // Fallbacks.
        assert_eq!(
            cfg.estimator_for(ComponentId::new(5)),
            EstimatorSpec::per_iteration(BlockId(0), 1)
        );
        assert_eq!(cfg.min_work_for(ComponentId::new(5)), VirtualDuration::TICK);
        assert_eq!(cfg.link_delay_for(WireId::new(3)), VirtualDuration::ZERO);
        assert!(format!("{cfg:?}").contains("ClusterConfig"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_checkpoint_interval_rejected() {
        let _ = ClusterConfig::logical_time().with_checkpoint_every(0);
    }

    #[test]
    fn supervision_is_off_by_default_and_opt_in() {
        let cfg = ClusterConfig::logical_time();
        assert!(cfg.supervision.is_none(), "manual failover is the default");
        let cfg = cfg.with_supervision(SupervisionConfig::fast());
        let s = cfg.supervision.expect("enabled");
        assert!(s.suspicion_timeout > s.heartbeat_interval);
    }

    #[test]
    fn warm_standby_is_off_by_default_and_opt_in() {
        let cfg = ClusterConfig::logical_time();
        assert!(cfg.standby.is_none(), "cold promotion is the default");
        let cfg = cfg.with_warm_standby(StandbyConfig::default());
        let s = cfg.standby.expect("enabled");
        assert_eq!(s.trailing_horizon_ticks, 100_000_000, "~100ms of vt");
    }

    #[test]
    #[should_panic(expected = "trailing horizon must be positive")]
    fn zero_standby_horizon_rejected() {
        let _ = ClusterConfig::logical_time().with_warm_standby(StandbyConfig {
            trailing_horizon_ticks: 0,
            apply_interval: Duration::from_millis(1),
        });
    }

    #[test]
    #[should_panic(expected = "suspicion timeout must exceed")]
    fn degenerate_supervision_rejected() {
        let _ = ClusterConfig::logical_time().with_supervision(SupervisionConfig {
            heartbeat_interval: Duration::from_millis(50),
            suspicion_timeout: Duration::from_millis(50),
            phi_threshold: None,
            poll_interval: Duration::from_millis(5),
        });
    }

    #[test]
    fn tier_resolution_is_component_then_engine_then_default() {
        let c0 = ComponentId::new(0);
        let c1 = ComponentId::new(1);
        let c2 = ComponentId::new(2);
        let e0 = EngineId::new(0);
        let e1 = EngineId::new(1);
        let buffered = DurabilityPolicy::Buffered {
            flush_window: Duration::from_millis(5),
        };
        let cfg = ClusterConfig::logical_time()
            .with_durability("/tmp/unused", FsyncPolicy::Always)
            .with_default_tier(buffered)
            .with_engine_tier(e1, DurabilityPolicy::InMemory)
            .with_component_tier(c0, DurabilityPolicy::Strict);
        let d = cfg.durability.expect("enabled");
        // Component entry wins over everything, even its engine's.
        assert_eq!(d.tier_for(c0, Some(e1)), Some(DurabilityPolicy::Strict));
        // Engine entry wins over the cluster default.
        assert_eq!(d.tier_for(c1, Some(e1)), Some(DurabilityPolicy::InMemory));
        // Default covers the rest, with or without a known engine.
        assert_eq!(d.tier_for(c1, Some(e0)), Some(buffered));
        assert_eq!(d.tier_for(c2, None), Some(buffered));
        // No default → legacy untiered contract.
        let bare = DurabilityConfig::new("/tmp/unused", FsyncPolicy::Always);
        assert_eq!(bare.tier_for(c2, Some(e0)), None);
    }

    #[test]
    fn tier_ordering_tracks_strictness() {
        let buffered = DurabilityPolicy::Buffered {
            flush_window: Duration::from_millis(5),
        };
        assert!(DurabilityPolicy::InMemory < buffered);
        assert!(buffered < DurabilityPolicy::Strict);
        // Engine tier = max over hosted components relies on this order.
        assert_eq!(
            DurabilityPolicy::InMemory.max(DurabilityPolicy::Strict),
            DurabilityPolicy::Strict
        );
    }

    #[test]
    #[should_panic(expected = "enable durability before assigning tiers")]
    fn tiers_without_durability_rejected() {
        let _ = ClusterConfig::logical_time().with_default_tier(DurabilityPolicy::Strict);
    }
}
