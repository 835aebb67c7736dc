//! The warm-standby plane: background pre-apply of each engine's replica
//! chain.
//!
//! With [`crate::StandbyConfig`] enabled, a single background thread keeps
//! one passive [`EngineCore`] per engine and **tails that engine's
//! authoritative [`ReplicaStore`] chain by cursor** — the same chain a cold
//! promotion restores from; there is no second checkpoint channel. The only
//! thing an engine sends the plane is its external-input head
//! ([`Envelope::StandbyInput`], to the sentinel inbox
//! [`crate::router::STANDBY_ENGINE`]). A member is pre-applied once it is at
//! least [`crate::StandbyConfig::trailing_horizon_ticks`] of virtual time
//! behind the engine's observed head, after passing the same seal rule the
//! cold path applies ([`seal_step`]) and being verified against its
//! recorded state digests ([`EngineCore::verify_member`]).
//!
//! A hash mismatch **demotes** the slot: the tainted core is dropped and
//! the slot stops absorbing, so promotion falls back to the cold restore
//! instead of taking over with bad state (LLFT's leader/follower
//! discipline, hardened by DESIGN.md §15's verified replay). A member that
//! fails its seal parks the slot the same way without counting as
//! divergence: the cold path will truncate the chain at that member, so
//! nothing past it may be absorbed either.
//!
//! At promotion, [`StandbyPlane::attach`] hands over the pre-applied core
//! and how many chain members it reflects; `EngineHost::promote` applies
//! only the chain tail after that and runs the ordinary tail-digest
//! activation.

// Ops-plane module (tart-lint tier: Ops): the standby plane runs on wall-clock pacing and never feeds state back into the replayable core until promotion swaps a verified core in; the interprocedural TAINT-FLOW pass fences the boundary, so raw reads need no per-line allows here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use tart_model::StateHash;
use tart_vtime::{EngineId, VirtualTime};

use crate::checkpoint::seal_step;
use crate::cluster::{dump_flight, EngineHost};
use crate::config::StandbyConfig;
use crate::core::EngineCore;
use crate::router::STANDBY_ENGINE;
use crate::{EngineCheckpoint, Envelope, ReplicaStore, Router};

/// Point-in-time view of one engine's standby slot (test and operator
/// introspection; see [`crate::Cluster::standby_status`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StandbyStatus {
    /// The slot's cursor: how many of the members shipped this incarnation
    /// its core accounts for — each one verified and pre-applied, or
    /// superseded by a later full the slot re-anchored on after the replica
    /// pruned past it.
    pub applied: u64,
    /// Chain members shipped but not yet absorbed — still inside the
    /// trailing horizon, or behind a parked cursor. Always the count the
    /// replica has been shipped ([`crate::Cluster::replica_depth`]) minus
    /// `applied`.
    pub pending: usize,
    /// Whether the slot currently holds a chain-consistent core (a warm
    /// takeover candidate).
    pub anchored: bool,
    /// Whether a digest mismatch demoted this slot to cold-replay mode.
    pub demoted: bool,
}

/// What [`StandbyPlane::attach`] hands to a warm promotion.
pub(crate) struct WarmCandidate {
    /// The pre-applied passive core.
    pub(crate) core: EngineCore,
    /// The slot's cursor — an absolute position in the replica chain. The
    /// core reflects every member shipped before it (each one absorbed was
    /// seal-stepped and digest-verified), or, when the cursor was just
    /// re-anchored at the replica's floor, an older state that the
    /// Full-mode member at the cursor supersedes.
    pub(crate) applied: usize,
}

/// One engine's passive slot for one incarnation.
struct StandbySlot {
    /// The chain this slot tails.
    replica: ReplicaStore,
    /// Absolute position of the next member to absorb (see
    /// [`WarmCandidate::applied`]).
    cursor: usize,
    /// Seal of member `cursor - 1`, which the next delta must chain from;
    /// `None` at the chain's head and after re-anchoring at the floor.
    seal: Option<StateHash>,
    /// The background core; `None` until the chain's first member anchors
    /// it, and again once the slot is parked or demoted.
    core: Option<EngineCore>,
    /// Highest virtual time observed for this engine (checkpoint captures
    /// and external-input arrivals both advance it).
    head: VirtualTime,
    /// The member at `cursor` failed the seal rule: the cold path truncates
    /// there, so the cursor is parked for the rest of this incarnation.
    parked: bool,
    demoted: bool,
    /// Chaos hook: flip a recorded digest on the next member applied, to
    /// drill the demotion path ([`StandbyPlane::corrupt_next`]).
    tamper_next: bool,
}

struct PlaneShared {
    slots: Mutex<BTreeMap<EngineId, StandbySlot>>,
    stop: AtomicBool,
}

/// The cluster-wide warm-standby plane: one background thread, one slot
/// per engine. Owned by `EngineHost`; torn down on drop.
pub(crate) struct StandbyPlane {
    shared: Arc<PlaneShared>,
    router: Router,
    thread: Option<JoinHandle<()>>,
}

impl StandbyPlane {
    /// Registers the sentinel inbox and starts the pre-apply thread. `host`
    /// is where passive cores get built (`EngineHost::build_core`); it is
    /// weak because the host owns this plane.
    pub(crate) fn start(
        cfg: StandbyConfig,
        router: Router,
        host: Weak<EngineHost>,
    ) -> StandbyPlane {
        let (tx, rx) = unbounded::<Envelope>();
        router.register(STANDBY_ENGINE, tx);
        let shared = Arc::new(PlaneShared {
            slots: Mutex::new(BTreeMap::new()),
            stop: AtomicBool::new(false),
        });
        let shared_thread = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("tart-standby".into())
            .spawn(move || {
                while !shared_thread.stop.load(Ordering::Relaxed) {
                    match rx.recv_timeout(cfg.apply_interval) {
                        Ok(env) => {
                            on_envelope(&shared_thread, env);
                            for env in rx.try_iter() {
                                on_envelope(&shared_thread, env);
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                    }
                    apply_eligible(&shared_thread, cfg.trailing_horizon_ticks, &host);
                }
            })
            .expect("spawn standby thread");
        StandbyPlane {
            shared,
            router,
            thread: Some(thread),
        }
    }

    /// Points `engine`'s slot at a new incarnation's `replica` chain,
    /// cursor at its head. Returns the warm candidate the previous
    /// incarnation's slot held, if it was anchored — a parked or demoted
    /// slot's verdict applies only to the incarnation it watched.
    pub(crate) fn attach(&self, engine: EngineId, replica: ReplicaStore) -> Option<WarmCandidate> {
        let fresh = StandbySlot {
            replica,
            cursor: 0,
            seal: None,
            core: None,
            head: VirtualTime::ZERO,
            parked: false,
            demoted: false,
            tamper_next: false,
        };
        let was = self.shared.slots.lock().insert(engine, fresh)?;
        Some(WarmCandidate {
            core: was.core?,
            applied: was.cursor,
        })
    }

    /// The current slot view for `engine` (`None` for an engine this plane
    /// was never attached to).
    pub(crate) fn status(&self, engine: EngineId) -> Option<StandbyStatus> {
        self.shared
            .slots
            .lock()
            .get(&engine)
            .map(|s| StandbyStatus {
                applied: s.cursor as u64,
                pending: s.replica.len().saturating_sub(s.cursor),
                anchored: s.core.is_some(),
                demoted: s.demoted,
            })
    }

    /// Chaos hook: corrupt a recorded digest on the next member the slot
    /// applies, forcing the demotion drill without touching the
    /// authoritative replica chain.
    pub(crate) fn corrupt_next(&self, engine: EngineId) {
        if let Some(slot) = self.shared.slots.lock().get_mut(&engine) {
            slot.tamper_next = true;
        }
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.router.deregister(STANDBY_ENGINE);
        if let Some(t) = self.thread.take() {
            // The plane thread briefly holds the host while building a
            // core; if every other owner lets go in that window, the host
            // — and this plane — drop on the plane thread, which cannot
            // join itself. It sees the stop flag and exits on its own.
            if t.thread().id() != std::thread::current().id() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for StandbyPlane {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A checkpoint's capture-time virtual clock: the max across components.
fn ckpt_vt(ckpt: &EngineCheckpoint) -> VirtualTime {
    ckpt.clocks
        .values()
        .copied()
        .max()
        .unwrap_or(VirtualTime::ZERO)
}

fn on_envelope(shared: &PlaneShared, env: Envelope) {
    match env {
        Envelope::StandbyInput { engine, vt, .. } => {
            if let Some(slot) = shared.slots.lock().get_mut(&engine) {
                slot.head = slot.head.max_with(vt);
            }
        }
        Envelope::Die => { /* plane shutdown rides the stop flag */ }
        _ => { /* mis-routed traffic; the data plane never targets us */ }
    }
}

/// Absorbs, per slot, every chain member past the cursor that has fallen
/// behind the trailing horizon. Holding the slots lock across the apply is
/// fine: the only contended operations (`attach`, `status`,
/// `corrupt_next`) run at promotion or test cadence, not per-message. The
/// replica's own lock is held only long enough to share the tail.
fn apply_eligible(shared: &PlaneShared, horizon: u64, host: &Weak<EngineHost>) {
    let mut slots = shared.slots.lock();
    for (engine, slot) in slots.iter_mut() {
        if slot.parked || slot.demoted {
            continue; // cold-replay mode until the next incarnation
        }
        let (start, tail) = slot.replica.tail(slot.cursor);
        if start > slot.cursor {
            // The replica pruned past a trailing cursor. What it holds opens
            // with a Full-mode member, which restores over the core exactly
            // as a mid-chain full does: re-anchor there.
            slot.cursor = start;
            slot.seal = None;
        }
        if let Some(newest) = tail.last() {
            slot.head = slot.head.max_with(ckpt_vt(newest));
        }
        for ckpt in &tail {
            if ckpt_vt(ckpt).as_ticks().saturating_add(horizon) > slot.head.as_ticks() {
                break; // still inside the horizon; stay trailing
            }
            if !apply_one(*engine, slot, ckpt, host) {
                break;
            }
        }
    }
}

/// Absorbs the member at the slot's cursor. Returns whether the slot can
/// take the next one.
fn apply_one(
    engine: EngineId,
    slot: &mut StandbySlot,
    ckpt: &EngineCheckpoint,
    host: &Weak<EngineHost>,
) -> bool {
    let Some(host) = host.upgrade() else {
        return false; // cluster tearing down
    };
    let seal = match seal_step(slot.seal, slot.cursor, ckpt) {
        Ok(seal) => seal,
        Err(defect) => {
            // Not divergence — nothing was applied — but the cold path
            // truncates the chain here, so a core carried past this member
            // would resume from bytes cold promotion refuses.
            slot.core = None;
            slot.parked = true;
            dump_flight(
                &host.obs,
                &format!("standby for {engine} parked, promotion will go cold: {defect}"),
            );
            return false;
        }
    };
    // Only the chain's first member finds no core, and the seal rule just
    // vouched that it is self-contained. Later full generations restore
    // over the existing core, exactly as the cold path applies a full onto
    // a head start's already-restored state.
    let core = slot
        .core
        .get_or_insert_with(|| host.build_core(engine, ReplicaStore::new()));
    core.apply_member_snapshots(ckpt);
    let verdict = if std::mem::take(&mut slot.tamper_next) {
        let mut tampered = ckpt.clone();
        if let Some(hash) = tampered.component_hashes.values_mut().next() {
            hash.0[0] ^= 0xFF;
        }
        core.verify_member(&tampered)
    } else {
        core.verify_member(ckpt)
    };
    match verdict {
        Ok(()) => {
            slot.cursor += 1;
            slot.seal = Some(seal);
            let lag = slot
                .head
                .as_ticks()
                .saturating_sub(ckpt_vt(ckpt).as_ticks());
            host.obs.standby_applied(lag);
            true
        }
        Err(fault) => {
            // Demote: drop the tainted core and absorb nothing more of this
            // incarnation's chain. Promotion will go cold, which replays
            // the verified chain from scratch — slower, never wrong.
            slot.core = None;
            slot.demoted = true;
            host.obs.standby_demotion(engine, fault.vt);
            dump_flight(
                &host.obs,
                &format!("standby for {engine} diverged, demoted to cold replay: {fault}"),
            );
            false
        }
    }
}
