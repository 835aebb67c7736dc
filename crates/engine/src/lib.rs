//! The TART runtime: execution engines, transport, logging, checkpointing,
//! failover and replay.
//!
//! This crate is the "real system" counterpart of the simulator: it actually
//! executes [`tart_model::Component`]s, spread across *execution engines*
//! (§II.C) — each engine a thread hosting a set of components with one
//! deterministic scheduler. It implements the full recovery design of §II.F:
//!
//! * **Tick tracking** — every tick on every wire is accounted as data or
//!   silence; data envelopes chain their predecessor's virtual time so a
//!   receiver can detect losses.
//! * **Logging** — only messages from *external producers* are logged
//!   ([`MessageLog`], in memory or in the segmented, CRC-framed [`Wal`]);
//!   inter-component traffic is never logged.
//! * **Soft checkpointing** — engines periodically capture incremental
//!   [`EngineCheckpoint`]s and ship them asynchronously to a passive
//!   [`ReplicaStore`].
//! * **Failover** — [`Cluster::kill`] fail-stops an engine (state and
//!   in-flight messages lost); [`Cluster::promote`] restores its replica
//!   from the checkpoint chain.
//! * **Supervision** — with [`ClusterConfig::with_supervision`], engines
//!   heartbeat a supervisor thread whose phi-accrual failure detector runs
//!   the same kill → promote → replay drill automatically; the seeded
//!   chaos harness ([`ChaosPlan`]) soak-tests that path with unannounced
//!   crashes, link partitions and latency spikes.
//! * **Replay** — the restored engine asks each upstream for the tick
//!   ranges it is missing; senders resend from in-memory retention buffers
//!   (or the log, for external wires), and duplicates are discarded by
//!   timestamp (§II.F.4). Downstream engines see *output stutter*, which
//!   consumers compensate for by sequence number (§II.A).
//!
//! Determinism makes all of this work: because components are scheduled in
//! virtual-time order, re-execution from a checkpoint reproduces byte-
//! identical state and messages.
//!
//! # Example
//!
//! ```
//! use tart_engine::{Cluster, ClusterConfig, Placement};
//! use tart_model::reference::fan_in_app;
//!
//! let spec = fan_in_app(2)?;
//! // All components on one engine, logical (test) time.
//! let placement = Placement::single_engine(&spec);
//! let mut cluster = Cluster::deploy(spec, placement, ClusterConfig::logical_time())?;
//! cluster.injector("client1").expect("client1 exists").send("the cat".into());
//! cluster.finish_inputs();
//! let outputs = cluster.shutdown();
//! assert_eq!(outputs.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod checkpoint;
mod clock;
mod cluster;
mod config;
mod core;
mod ctx;
mod envelope;
mod log;
pub mod net;
mod reactor;
mod retention;
mod router;
mod standby;
mod store;
mod supervise;
mod verify;
mod wal;

pub use chaos::{ChaosEvent, ChaosHandle, ChaosOptions, ChaosPlan, ChaosReport, DiskFault};
pub use checkpoint::{
    combined_state_hash, verify_chain, ChainDefect, DivergenceFault, EngineCheckpoint, ReplicaStore,
};
pub use clock::{LogicalClock, RealClock, TimeSource};
pub use cluster::{
    Cluster, ComponentRecovery, CrashReport, DeployError, EngineRecovery, Injector, PromoteError,
    RecoveryReport,
};
pub use config::{ClusterConfig, DurabilityConfig, Placement, StandbyConfig, SupervisionConfig};
pub use core::{EngineCore, Flow, OutputRecord};
pub use envelope::Envelope;
pub use log::{LogCrash, LogError, MessageLog};
pub use retention::RetentionBuffer;
pub use router::{FaultPlan, Router};
pub use standby::StandbyStatus;
pub use store::{CheckpointStore, LoadedChain, LoadedCheckpoint, StoreError};
pub use supervise::{FailureDetector, SupervisionMetrics};
pub use tart_obs::{
    check_report, write_report, EngineObs, Histogram, ObsEvent, ObsEventKind, ObsHub, ObsSnapshot,
    ReportRequirements,
};
pub use verify::{verify_replay, ReplayVerdict};
pub use wal::{DurabilityPolicy, FsyncPolicy, Wal, WalError, WalRecovery, BUFFERED_MAX_RECORDS};
