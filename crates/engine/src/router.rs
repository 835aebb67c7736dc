//! Inter-engine message routing with fault injection.
//!
//! # Hot path (DESIGN.md §18)
//!
//! The router is on every delivery path, so its read side is built around
//! an **epoch-swapped dense routing table**: an immutable [`RouteTable`]
//! snapshot (a dense `Vec` indexed by engine id plus three fixed sentinel
//! slots) behind a generation counter. Registration and failover build a
//! new snapshot and swap it in under a write lock; senders validate a
//! thread-local cached snapshot with **one atomic epoch load** and then
//! index straight into the slot — no hash, no lock, no allocation. Fault
//! and chaos machinery sits entirely behind a single `disturbed` flag:
//! when no fault plan or chaos schedule is armed, `send` never touches
//! either mutex.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Sender;
use parking_lot::{Mutex, RwLock};
use tart_stats::DetRng;
use tart_vtime::EngineId;

/// Sentinel engine id under which the cluster supervisor registers: the
/// service that answers replay requests for *external* wires from the
/// message log.
pub(crate) const EXTERNAL_ENGINE: EngineId = EngineId::new(u32::MAX);

/// Sentinel engine id under which the liveness supervisor registers: the
/// inbox that collects [`Envelope::Heartbeat`] beacons and drives automatic
/// failover.
pub(crate) const SUPERVISOR_ENGINE: EngineId = EngineId::new(u32::MAX - 1);

/// Sentinel engine id under which the warm-standby plane registers: the
/// inbox that collects every primary's [`Envelope::StandbyInput`] head
/// advances (the checkpoints themselves are read from each engine's
/// [`crate::ReplicaStore`] chain, not sent). When no standby plane is
/// running, envelopes to this id vanish silently.
pub(crate) const STANDBY_ENGINE: EngineId = EngineId::new(u32::MAX - 2);

use crate::Envelope;

/// Dense-slot ceiling: engine ids below this index directly into the
/// snapshot's `Vec`; ids above it (other than the three sentinels) fall
/// into a small spill list so a pathological id can't balloon the table.
const DENSE_CAP: u32 = 1 << 16;

/// Link-fault injection plan: probabilistic drop and duplication of payload
/// traffic (Data/Silence envelopes), exercising the correctness criterion's
/// "link failures (causing loss, re-ordering, or duplication of messages
/// sent over physical links)" (§II.A).
///
/// Duplicated envelopes are delivered back-to-back; combined with drops on
/// retransmission paths this also produces effective re-ordering of silence
/// relative to data. Control-plane envelopes are never disturbed.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Probability a faultable envelope is silently dropped.
    pub drop_prob: f64,
    /// Probability a faultable envelope is delivered twice.
    pub dup_prob: f64,
    /// Seed for the fault RNG.
    pub seed: u64,
}

impl FaultPlan {
    /// No faults at all.
    pub fn none() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            dup_prob: 0.0,
            seed: 0,
        }
    }

    /// Returns `true` if this plan can never disturb traffic.
    pub fn is_noop(&self) -> bool {
        self.drop_prob == 0.0 && self.dup_prob == 0.0
    }
}

/// One immutable routing snapshot: engine id → inbox sender. Snapshots are
/// never mutated after publication — registration builds a new one and
/// swaps it in, so a sender holding an older snapshot still sees a
/// consistent (if momentarily stale) view, exactly like an in-flight
/// packet routed by the previous forwarding table.
#[derive(Default)]
struct RouteTable {
    /// Dense slots indexed by raw engine id (`id < DENSE_CAP`).
    slots: Vec<Option<Sender<Envelope>>>,
    /// The three reserved high ids: EXTERNAL, SUPERVISOR, STANDBY.
    sentinels: [Option<Sender<Envelope>>; 3],
    /// Rare ids ≥ `DENSE_CAP` that aren't sentinels.
    spill: Vec<(EngineId, Sender<Envelope>)>,
}

/// Where an engine id lives inside a [`RouteTable`].
enum Slot {
    Dense(usize),
    Sentinel(usize),
    Spill,
}

fn slot_of(engine: EngineId) -> Slot {
    match engine.raw() {
        r if r == u32::MAX => Slot::Sentinel(0),
        r if r == u32::MAX - 1 => Slot::Sentinel(1),
        r if r == u32::MAX - 2 => Slot::Sentinel(2),
        r if r < DENSE_CAP => Slot::Dense(r as usize),
        _ => Slot::Spill,
    }
}

impl RouteTable {
    fn lookup(&self, engine: EngineId) -> Option<&Sender<Envelope>> {
        match slot_of(engine) {
            Slot::Dense(i) => self.slots.get(i).and_then(|s| s.as_ref()),
            Slot::Sentinel(i) => self.sentinels[i].as_ref(),
            Slot::Spill => self
                .spill
                .iter()
                .find(|(e, _)| *e == engine)
                .map(|(_, tx)| tx),
        }
    }

    /// A structural clone with `engine`'s slot replaced by `inbox`
    /// (`None` deregisters). Cloning a `Sender` is an `Arc` bump.
    fn with(&self, engine: EngineId, inbox: Option<Sender<Envelope>>) -> RouteTable {
        let mut next = RouteTable {
            slots: self.slots.clone(),
            sentinels: self.sentinels.clone(),
            spill: self.spill.clone(),
        };
        match slot_of(engine) {
            Slot::Dense(i) => {
                if next.slots.len() <= i {
                    next.slots.resize_with(i + 1, || None);
                }
                next.slots[i] = inbox;
            }
            Slot::Sentinel(i) => next.sentinels[i] = inbox,
            Slot::Spill => {
                next.spill.retain(|(e, _)| *e != engine);
                if let Some(tx) = inbox {
                    next.spill.push((engine, tx));
                }
            }
        }
        next
    }

    fn registered(&self) -> usize {
        self.slots.iter().flatten().count()
            + self.sentinels.iter().flatten().count()
            + self.spill.len()
    }
}

/// The swap side of the epoch protocol: writers build a new snapshot under
/// the write lock, publish it, then bump the epoch (release). Readers load
/// the epoch (acquire) and reuse their thread-local snapshot while it
/// matches; on a mismatch they take the read lock once to refresh. The
/// epoch bump *after* the table store means a reader can at worst observe
/// a table newer than its epoch — never older — so a matching epoch always
/// proves the cached snapshot is current.
struct RouteShared {
    epoch: AtomicU64,
    table: RwLock<Arc<RouteTable>>,
}

/// One per-thread cache entry: `(router identity, epoch, table)`. Holding
/// the `Arc<RouteShared>` keeps the identity allocation alive, so a pointer
/// match can never be an ABA false positive from a freed and reused address.
type RouteCacheEntry = (Arc<RouteShared>, u64, Arc<RouteTable>);

thread_local! {
    /// Per-thread snapshot caches, one entry per recently used router.
    static ROUTE_CACHE: RefCell<Vec<RouteCacheEntry>> = const { RefCell::new(Vec::new()) };
}

/// Cap on distinct routers cached per thread; tests build routers by the
/// hundred, and each entry pins its snapshot's senders until evicted.
const ROUTE_CACHE_CAP: usize = 4;

impl RouteShared {
    fn new() -> Arc<RouteShared> {
        Arc::new(RouteShared {
            epoch: AtomicU64::new(1),
            table: RwLock::new(Arc::new(RouteTable::default())),
        })
    }

    /// Runs `f` against the current snapshot via the thread-local cache:
    /// one atomic epoch load on a hit, one read-lock + `Arc` clone on a
    /// miss (first send on this thread, or a swap happened).
    fn with_table<R>(self: &Arc<Self>, f: impl FnOnce(&RouteTable) -> R) -> R {
        let epoch = self.epoch.load(Ordering::Acquire);
        ROUTE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            for (shared, cached_epoch, table) in cache.iter_mut() {
                if Arc::ptr_eq(shared, self) {
                    if *cached_epoch != epoch {
                        *table = Arc::clone(&self.table.read());
                        *cached_epoch = epoch;
                    }
                    return f(table);
                }
            }
            let table = Arc::clone(&self.table.read());
            let result = f(&table);
            if cache.len() >= ROUTE_CACHE_CAP {
                cache.remove(0);
            }
            cache.push((Arc::clone(self), epoch, table));
            result
        })
    }

    /// Publishes a snapshot derived from the current one by `edit`, then
    /// bumps the epoch so every cached snapshot invalidates.
    fn swap(&self, engine: EngineId, inbox: Option<Sender<Envelope>>) {
        let mut guard = self.table.write();
        *guard = Arc::new(guard.with(engine, inbox));
        drop(guard);
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

/// Routes envelopes to engine inboxes, with hot-swappable targets (failover
/// replaces a dead engine's inbox) and optional fault injection.
///
/// Cloneable and shared by every engine, injector and the failover manager.
#[derive(Clone)]
pub struct Router {
    routes: Arc<RouteShared>,
    faults: Arc<Mutex<FaultState>>,
    /// Armed-flag fast path: true iff the fault plan can disturb traffic
    /// **or** any partition/latency chaos is scheduled. While false,
    /// `send` touches neither the fault nor the chaos mutex.
    disturbed: Arc<AtomicBool>,
    /// True iff the (construction-time, immutable) fault plan is not a
    /// no-op; folded into `disturbed` whenever the chaos schedule changes.
    faults_armed: bool,
    /// Fast-path guard: set whenever any partition or latency injection is
    /// configured, so fault-free sends never take the chaos lock.
    chaos_active: Arc<AtomicBool>,
    chaos: Arc<Mutex<ChaosState>>,
}

struct FaultState {
    plan: FaultPlan,
    rng: DetRng,
    dropped: u64,
    duplicated: u64,
}

/// Scheduled link disturbance toward one engine (chaos harness).
#[derive(Clone, Copy, Default)]
struct LinkChaos {
    partitioned: bool,
    latency: Duration,
}

#[derive(Default)]
struct ChaosState {
    links: HashMap<EngineId, LinkChaos>,
    partition_drops: u64,
}

impl Router {
    /// Creates a router with the given fault plan.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = DetRng::seed_from(plan.seed);
        let faults_armed = !plan.is_noop();
        Router {
            routes: RouteShared::new(),
            faults: Arc::new(Mutex::new(FaultState {
                plan,
                rng,
                dropped: 0,
                duplicated: 0,
            })),
            disturbed: Arc::new(AtomicBool::new(faults_armed)),
            faults_armed,
            chaos_active: Arc::new(AtomicBool::new(false)),
            chaos: Arc::new(Mutex::new(ChaosState::default())),
        }
    }

    /// Registers (or replaces, during failover) the inbox of `engine` by
    /// publishing a new routing snapshot.
    pub fn register(&self, engine: EngineId, inbox: Sender<Envelope>) {
        self.routes.swap(engine, Some(inbox));
    }

    /// Removes an engine's inbox (its channel closes once the engine thread
    /// drops the receiver). Subsequent sends to it vanish — exactly the
    /// fail-stop message-loss semantics.
    pub fn deregister(&self, engine: EngineId) {
        self.routes.swap(engine, None);
    }

    /// Sends `env` to `engine`. Envelopes to unknown/dead engines are
    /// dropped silently (in-transit loss at failure). Faultable envelopes
    /// pass through the fault plan and any active partition/latency chaos;
    /// control-plane traffic is never disturbed.
    ///
    /// Fast path: when nothing is armed (the overwhelmingly common case),
    /// this is one atomic load for the armed flag, one for the routing
    /// epoch, and an indexed slot read — no locks, no hashing, and the
    /// envelope is moved, never cloned.
    pub fn send(&self, engine: EngineId, env: Envelope) {
        if self.disturbed.load(Ordering::Relaxed) && env.faultable() {
            self.send_disturbed(engine, env);
        } else {
            self.raw_send(engine, env);
        }
    }

    /// The slow path: chaos schedule (partition/latency) then the fault
    /// plan (drop/duplicate). Only entered while something is armed.
    #[cold]
    fn send_disturbed(&self, engine: EngineId, env: Envelope) {
        if self.chaos_active.load(Ordering::Relaxed) {
            let delay = {
                let mut c = self.chaos.lock();
                let link = c.links.get(&engine).copied().unwrap_or_default();
                if link.partitioned {
                    c.partition_drops += 1;
                    return;
                }
                link.latency
            };
            if !delay.is_zero() {
                // Sender-side stall: the paying cost lands on the
                // sending engine, like a congested egress link.
                std::thread::sleep(delay);
            }
        }
        if self.faults_armed {
            let mut f = self.faults.lock();
            let roll = f.rng.next_f64();
            if roll < f.plan.drop_prob {
                f.dropped += 1;
                return;
            }
            if roll < f.plan.drop_prob + f.plan.dup_prob {
                f.duplicated += 1;
                drop(f);
                // The only clone in the router: a duplicate that is
                // actually delivered twice.
                self.raw_send(engine, env.clone());
                self.raw_send(engine, env);
                return;
            }
        }
        self.raw_send(engine, env);
    }

    /// Starts or stops dropping payload traffic toward `engine` — a
    /// one-directional link partition. Control-plane envelopes (heartbeats,
    /// replay coordination) still flow, so a partition causes message loss
    /// that gap detection must recover, never a spurious failover.
    pub fn set_partition(&self, engine: EngineId, active: bool) {
        let mut c = self.chaos.lock();
        c.links.entry(engine).or_default().partitioned = active;
        self.refresh_chaos_flag(&c);
    }

    /// Sets an artificial sender-side delay on payload traffic toward
    /// `engine` ([`Duration::ZERO`] clears it).
    pub fn set_latency(&self, engine: EngineId, delay: Duration) {
        let mut c = self.chaos.lock();
        c.links.entry(engine).or_default().latency = delay;
        self.refresh_chaos_flag(&c);
    }

    fn refresh_chaos_flag(&self, c: &ChaosState) {
        let active = c
            .links
            .values()
            .any(|l| l.partitioned || !l.latency.is_zero());
        self.chaos_active.store(active, Ordering::Relaxed);
        self.disturbed
            .store(active || self.faults_armed, Ordering::Relaxed);
    }

    /// Number of payload envelopes dropped by link partitions.
    pub fn partition_drops(&self) -> u64 {
        self.chaos.lock().partition_drops
    }

    fn raw_send(&self, engine: EngineId, env: Envelope) {
        self.routes.with_table(|t| {
            if let Some(tx) = t.lookup(engine) {
                // A closed channel means the engine died between lookup and
                // send: the message is lost in transit, which replay covers.
                let _ = tx.send(env);
            }
        });
    }

    /// `(dropped, duplicated)` counts from the fault injector.
    pub fn fault_counts(&self) -> (u64, u64) {
        let f = self.faults.lock();
        (f.dropped, f.duplicated)
    }

    /// Whether `engine` currently has a registered inbox.
    pub fn is_registered(&self, engine: EngineId) -> bool {
        self.routes.with_table(|t| t.lookup(engine).is_some())
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("engines", &self.routes.with_table(|t| t.registered()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use tart_model::Value;
    use tart_vtime::{VirtualTime, WireId};

    fn data(n: u64) -> Envelope {
        Envelope::Data {
            wire: WireId::new(0),
            vt: VirtualTime::from_ticks(n),
            prev_vt: VirtualTime::ZERO,
            payload: Value::I64(n as i64),
        }
    }

    #[test]
    fn routes_to_registered_engine() {
        let router = Router::new(FaultPlan::none());
        let (tx, rx) = unbounded();
        router.register(EngineId::new(0), tx);
        assert!(router.is_registered(EngineId::new(0)));
        router.send(EngineId::new(0), data(1));
        assert_eq!(rx.try_recv().unwrap(), data(1));
    }

    #[test]
    fn unknown_engine_drops_silently() {
        let router = Router::new(FaultPlan::none());
        router.send(EngineId::new(9), data(1));
        assert!(!router.is_registered(EngineId::new(9)));
    }

    #[test]
    fn sentinel_ids_route_without_bloating_the_dense_table() {
        let router = Router::new(FaultPlan::none());
        for sentinel in [EXTERNAL_ENGINE, SUPERVISOR_ENGINE, STANDBY_ENGINE] {
            let (tx, rx) = unbounded();
            router.register(sentinel, tx);
            router.send(sentinel, data(7));
            assert_eq!(rx.try_recv().unwrap(), data(7));
            router.deregister(sentinel);
            assert!(!router.is_registered(sentinel));
        }
    }

    #[test]
    fn spill_ids_above_the_dense_cap_still_route() {
        let router = Router::new(FaultPlan::none());
        let odd = EngineId::new(DENSE_CAP + 17);
        let (tx, rx) = unbounded();
        router.register(odd, tx);
        assert!(router.is_registered(odd));
        router.send(odd, data(3));
        assert_eq!(rx.try_recv().unwrap(), data(3));
        router.deregister(odd);
        router.send(odd, data(4));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn deregister_then_send_loses_message() {
        let router = Router::new(FaultPlan::none());
        let (tx, rx) = unbounded();
        router.register(EngineId::new(0), tx);
        router.deregister(EngineId::new(0));
        router.send(EngineId::new(0), data(1));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn register_swaps_inbox_for_failover() {
        let router = Router::new(FaultPlan::none());
        let (tx1, rx1) = unbounded();
        let (tx2, rx2) = unbounded();
        router.register(EngineId::new(0), tx1);
        router.register(EngineId::new(0), tx2);
        router.send(EngineId::new(0), data(1));
        assert!(rx1.try_recv().is_err(), "old inbox no longer receives");
        assert_eq!(rx2.try_recv().unwrap(), data(1));
    }

    #[test]
    fn reregistration_mid_traffic_lands_on_the_new_inbox() {
        // Failover regression: a sender thread is mid-stream when the
        // failover manager swaps the inbox. Everything sent after the swap
        // (established by a rendezvous channel, so the swap happens-before
        // the second half) must land on the new inbox only.
        let router = Router::new(FaultPlan::none());
        let (tx1, rx1) = unbounded();
        router.register(EngineId::new(0), tx1);

        let (first_half_done_tx, first_half_done_rx) = unbounded::<()>();
        let (swapped_tx, swapped_rx) = unbounded::<()>();
        let sender_router = router.clone();
        let sender = std::thread::spawn(move || {
            for i in 0..500 {
                sender_router.send(EngineId::new(0), data(i));
            }
            first_half_done_tx.send(()).unwrap();
            swapped_rx.recv().unwrap();
            for i in 500..1000 {
                sender_router.send(EngineId::new(0), data(i));
            }
        });

        first_half_done_rx.recv().unwrap();
        let (tx2, rx2) = unbounded();
        router.register(EngineId::new(0), tx2);
        swapped_tx.send(()).unwrap();
        sender.join().unwrap();

        let old: Vec<Envelope> = rx1.try_iter().collect();
        let new: Vec<Envelope> = rx2.try_iter().collect();
        assert_eq!(old.len(), 500, "first half lands on the original inbox");
        assert_eq!(new.len(), 500, "second half all lands on the new inbox");
        assert_eq!(new[0], data(500), "nothing from the first half leaked");
        assert_eq!(
            old.len() + new.len(),
            1000,
            "the swap neither drops nor duplicates"
        );
    }

    #[test]
    fn fault_plan_drops_and_duplicates_statistically() {
        let plan = FaultPlan {
            drop_prob: 0.2,
            dup_prob: 0.1,
            seed: 42,
        };
        let router = Router::new(plan);
        let (tx, rx) = unbounded();
        router.register(EngineId::new(0), tx);
        let n = 10_000;
        for i in 0..n {
            router.send(EngineId::new(0), data(i));
        }
        let received = rx.try_iter().count() as f64;
        let (dropped, duplicated) = router.fault_counts();
        assert!(dropped > 0 && duplicated > 0);
        // Expected: n * (1 - 0.2 + 0.1) = 0.9 n.
        let expect = n as f64 * 0.9;
        assert!(
            (received - expect).abs() < expect * 0.1,
            "received {received} vs expected {expect}"
        );
    }

    #[test]
    fn control_traffic_is_never_faulted() {
        let plan = FaultPlan {
            drop_prob: 1.0,
            dup_prob: 0.0,
            seed: 1,
        };
        let router = Router::new(plan);
        let (tx, rx) = unbounded();
        router.register(EngineId::new(0), tx);
        router.send(EngineId::new(0), Envelope::Checkpoint);
        router.send(
            EngineId::new(0),
            Envelope::ReplayRequest {
                wire: WireId::new(0),
                from: VirtualTime::ZERO,
            },
        );
        assert_eq!(rx.try_iter().count(), 2);
        // But all data dies under drop_prob = 1.
        router.send(EngineId::new(0), data(1));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn partition_blocks_payload_but_not_control() {
        let router = Router::new(FaultPlan::none());
        let (tx, rx) = unbounded();
        router.register(EngineId::new(0), tx);
        router.set_partition(EngineId::new(0), true);
        router.send(EngineId::new(0), data(1));
        router.send(
            EngineId::new(0),
            Envelope::Heartbeat {
                engine: EngineId::new(0),
                seq: 0,
            },
        );
        let got: Vec<Envelope> = rx.try_iter().collect();
        assert_eq!(
            got,
            vec![Envelope::Heartbeat {
                engine: EngineId::new(0),
                seq: 0
            }],
            "partition drops data, control plane flows"
        );
        assert_eq!(router.partition_drops(), 1);

        router.set_partition(EngineId::new(0), false);
        router.send(EngineId::new(0), data(2));
        assert_eq!(rx.try_recv().unwrap(), data(2), "healed link delivers");
        assert_eq!(router.partition_drops(), 1);
    }

    #[test]
    fn latency_delays_but_delivers() {
        let router = Router::new(FaultPlan::none());
        let (tx, rx) = unbounded();
        router.register(EngineId::new(0), tx);
        router.set_latency(EngineId::new(0), std::time::Duration::from_millis(20));
        let t0 = std::time::Instant::now();
        router.send(EngineId::new(0), data(1));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        assert_eq!(rx.try_recv().unwrap(), data(1));
        router.set_latency(EngineId::new(0), std::time::Duration::ZERO);
        let t1 = std::time::Instant::now();
        router.send(EngineId::new(0), data(2));
        assert!(t1.elapsed() < std::time::Duration::from_millis(20));
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let plan = FaultPlan {
            drop_prob: 0.3,
            dup_prob: 0.2,
            seed: 7,
        };
        let run = || {
            let router = Router::new(plan.clone());
            let (tx, rx) = unbounded();
            router.register(EngineId::new(0), tx);
            for i in 0..1_000 {
                router.send(EngineId::new(0), data(i));
            }
            rx.try_iter()
                .map(|e| match e {
                    Envelope::Data { vt, .. } => vt.as_ticks(),
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
