//! TART — Time-Aware Run-Time.
//!
//! A Rust reproduction of *"Deterministic Replay for Transparent Recovery in
//! Component-Oriented Middleware"* (Strom, Dorai, Feng, Zheng — ICDCS 2009):
//! component-oriented event-processing middleware in which networks of
//! stateful components execute **deterministically** by scheduling all
//! message handling in *virtual-time* order, making **checkpoint + replay**
//! a complete, low-overhead recovery mechanism. The repository README has
//! the architecture overview and `DESIGN.md` the full system inventory.
//!
//! # The short version
//!
//! 1. Write components against [`Component`]: handle messages, keep state in
//!    checkpointable containers ([`CkptMap`], [`CkptCell`], [`CkptVec`]),
//!    report loop counts through [`Ctx::tick_block`].
//! 2. Wire them statically with [`AppSpec::builder`].
//! 3. Deploy with [`Cluster::deploy`] under a [`Placement`] and a
//!    [`ClusterConfig`] carrying per-component [`EstimatorSpec`]s.
//! 4. Feed external input through [`Injector`]s (timestamped and logged),
//!    collect external output, and let the runtime checkpoint to passive
//!    replicas. On a failure, [`Cluster::kill`] + [`Cluster::promote`]
//!    recovers transparently — downstream sees at most *output stutter*.
//!
//! # Example
//!
//! ```
//! use tart::prelude::*;
//!
//! // The paper's Fig 1 application: two word-count senders → merger.
//! let spec = reference::fan_in_app(2)?;
//! let placement = Placement::single_engine(&spec);
//! let mut config = ClusterConfig::logical_time();
//! for name in ["Sender1", "Sender2"] {
//!     let id = spec.component_by_name(name).unwrap().id();
//!     config = config.with_estimator(
//!         id,
//!         EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000),
//!     );
//! }
//! let cluster = Cluster::deploy(spec, placement, config)?;
//! cluster.injector("client1").unwrap().send("the cat sat".into());
//! cluster.injector("client2").unwrap().send("on the mat".into());
//! cluster.finish_inputs();
//! let outputs = cluster.shutdown();
//! assert_eq!(outputs.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`tart_vtime`] | virtual time, intervals, wire clocks |
//! | [`tart_codec`] | canonical binary codec, CRC32 |
//! | [`tart_stats`] | deterministic RNG, distributions, regression |
//! | [`tart_model`] | components, payloads, topology, checkpointable state |
//! | [`tart_estimator`] | estimators, calibration, determinism faults |
//! | [`tart_silence`] | lazy/curiosity/aggressive/bias silence propagation |
//! | [`tart_sched`] | the deterministic pessimistic merge gate |
//! | [`tart_sim`] | the §III.A/§III.B discrete-event simulator |
//! | [`tart_engine`] | the real runtime: engines, checkpointing, failover |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tart_codec;
pub use tart_engine;
pub use tart_estimator;
pub use tart_model;
pub use tart_sched;
pub use tart_silence;
pub use tart_sim;
pub use tart_stats;
pub use tart_vtime;

pub use tart_engine::{
    check_report, write_report, ChaosEvent, ChaosHandle, ChaosOptions, ChaosPlan, ChaosReport,
    Cluster, ClusterConfig, DeployError, DiskFault, DurabilityConfig, DurabilityPolicy,
    EngineRecovery, FaultPlan, Injector, LogicalClock, ObsEvent, ObsEventKind, ObsHub, ObsSnapshot,
    OutputRecord, Placement, RealClock, RecoveryReport, ReportRequirements, SupervisionConfig,
    SupervisionMetrics, TimeSource,
};
pub use tart_estimator::{
    Calibrator, DeterminismFault, Estimator, EstimatorSchedule, EstimatorSpec,
};
pub use tart_model::{
    reference, AppSpec, BlockId, CheckpointMode, CkptCell, CkptMap, CkptVec, Component, Ctx,
    Features, Instrumented, RestoreError, Snapshot, StateChunk, Value,
};
pub use tart_silence::SilencePolicy;
pub use tart_sim::{ExecMode, FanInSim, IterationDist, JitterModel, SimConfig, SimReport};
pub use tart_vtime::{
    ComponentId, EngineId, EventStamp, Interval, IntervalSet, PortId, VirtualDuration, VirtualTime,
    WireId,
};

/// The most common imports, for glob use.
pub mod prelude {
    pub use tart_engine::{
        ChaosOptions, ChaosPlan, Cluster, ClusterConfig, FaultPlan, Injector, OutputRecord,
        Placement, SupervisionConfig,
    };
    pub use tart_estimator::{Estimator, EstimatorSpec};
    pub use tart_model::{
        reference, AppSpec, BlockId, CheckpointMode, CkptCell, CkptMap, CkptVec, Component, Ctx,
        Features, RestoreError, Snapshot, Value,
    };
    pub use tart_silence::SilencePolicy;
    pub use tart_vtime::{ComponentId, EngineId, PortId, VirtualDuration, VirtualTime, WireId};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_usable() {
        let vt = VirtualTime::from_micros(1);
        let d = VirtualDuration::from_micros(1);
        assert_eq!((vt + d).as_ticks(), 2_000);
        let spec = reference::fan_in_app(1).unwrap();
        assert_eq!(spec.components().len(), 2);
        let _policy = SilencePolicy::Curiosity;
        let _mode = ExecMode::Deterministic;
    }

    #[test]
    fn prelude_compiles_for_glob_import() {
        #[allow(unused_imports)]
        use crate::prelude::*;
        let _ = Value::from("ok");
    }
}
