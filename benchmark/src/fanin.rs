//! The Fig 1 fan-in application on an in-process `Cluster`: `fanin_open`,
//! `fanin_saturate` and `durable_steady`.

use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use tart_engine::{Cluster, ClusterConfig, DurabilityPolicy, FsyncPolicy, Injector, Placement};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{fan_in_app, SENDER_LOOP_BLOCK};
use tart_model::{AppSpec, BlockId, Value};
use tart_silence::SilencePolicy;
use tart_vtime::EngineId;

use crate::check::{FanInReference, Out};
use crate::drive::{Driver, Sut};
use crate::gen::{poisson_schedule, sentence_pool, Arrival};
use crate::layers;
use crate::measure::{with_deadline, PeakRss};
use crate::outcome::{
    book_measured_phase, book_memory, close_run, time_set_ups, verify_epoch, CpuMeter, Outcome,
    RunCtx, DRAIN_LIMIT, JOIN_LIMIT, RECOVERY_LIMIT,
};
use crate::trace::{SpanId, Tracer};

pub const CLIENTS: usize = 2;
/// Messages the closed loops keep outstanding.
pub const WINDOW: u64 = 4_096;
/// Offered rate per client of `fanin_open`, msgs/s: about a tenth of what
/// `fanin_saturate` sustains, so latency is pessimism wait, not queueing.
const OPEN_RATE_PER_CLIENT: f64 = 10_000.0;
/// Messages injected while the failed engine is down.
const BURST_WHILE_DOWN: u64 = 4;
/// Messages sent after each recovery: what was restored must keep working.
pub const AFTER_RECOVERY: u64 = 1_000;
/// `durable_steady` idles this long before the crash: five flush windows,
/// after which a Buffered tier must have nothing left to lose.
const IDLE_BEFORE_CRASH: Duration = Duration::from_millis(50);

/// The measured load of one epoch.
pub enum Load {
    /// Open loop at [`OPEN_RATE_PER_CLIENT`] for the epoch's share of
    /// `--seconds`.
    Open,
    /// Closed loop, [`WINDOW`] outstanding, over this many messages.
    Closed { messages: u64 },
}

/// How a fan-in workload loads and persists.
pub struct Plan {
    /// Deployments per run. A sub-second epoch is long enough to be in
    /// steady state and short enough that a run affords many of them, which
    /// is what makes their median steady.
    pub epochs: u64,
    pub load: Load,
    pub checkpoint_every: u64,
    pub durable: bool,
}

pub const FANIN_OPEN: Plan = Plan {
    epochs: 9,
    load: Load::Open,
    checkpoint_every: 64,
    durable: false,
};
pub const FANIN_SATURATE: Plan = Plan {
    epochs: 9,
    load: Load::Closed { messages: 60_000 },
    checkpoint_every: 64,
    durable: false,
};
pub const DURABLE_STEADY: Plan = Plan {
    epochs: 9,
    load: Load::Closed { messages: 30_000 },
    checkpoint_every: 256,
    durable: true,
};

/// Senders on engine 0, merger on engine 1 (the paper's §III.C split).
pub fn placement(spec: &AppSpec) -> Placement {
    let mut placement = Placement::new();
    for c in spec.components() {
        let engine = if c.name() == "Merger" { 1 } else { 0 };
        placement.assign(c.id(), EngineId::new(engine));
    }
    placement
}

/// Logical time, curiosity silence and the estimators of
/// `crates/bench/src/bin/throughput.rs`.
pub fn base_config(spec: &AppSpec) -> ClusterConfig {
    let mut config = ClusterConfig::logical_time().with_silence(SilencePolicy::Curiosity);
    for c in spec.components() {
        let estimator = if c.name().starts_with("Sender") {
            EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, 61_000)
        } else {
            EstimatorSpec::per_iteration(BlockId(0), 400_000)
        };
        config = config.with_estimator(c.id(), estimator);
    }
    config.idle_poll_micros = 200;
    config
}

fn config(plan: &Plan, spec: &AppSpec, dir: &Path) -> ClusterConfig {
    let config = base_config(spec).with_checkpoint_every(plan.checkpoint_every);
    if !plan.durable {
        return config;
    }
    config
        .with_durability(
            dir,
            FsyncPolicy::GroupCommit {
                max_records: 64,
                max_delay: Duration::from_millis(5),
            },
        )
        .with_default_tier(DurabilityPolicy::Buffered {
            flush_window: Duration::from_millis(10),
        })
}

/// A deployed cluster and its injectors behind the generator's interface.
pub struct ClusterSut {
    cluster: Option<Cluster>,
    injectors: Vec<Injector>,
}

impl ClusterSut {
    /// `Cluster::deploy` under a `cluster.deploy` span.
    pub fn deploy(
        tracer: &mut Tracer,
        spec: AppSpec,
        placement: Placement,
        config: ClusterConfig,
        clients: &[&str],
    ) -> Self {
        let cluster = tracer.span("cluster.deploy", 0, SpanId::NONE, || {
            Cluster::deploy(spec, placement, config).expect("application deploys")
        });
        ClusterSut::new(cluster, clients)
    }

    pub fn new(cluster: Cluster, clients: &[&str]) -> Self {
        let injectors = clients
            .iter()
            .map(|name| cluster.injector(name).expect("declared client").clone())
            .collect();
        ClusterSut {
            cluster: Some(cluster),
            injectors,
        }
    }

    /// `false` once a crash drill has consumed the cluster and the restart
    /// has not (yet) replaced it.
    pub fn is_deployed(&self) -> bool {
        self.cluster.is_some()
    }

    pub fn cluster(&self) -> &Cluster {
        self.cluster.as_ref().expect("cluster is deployed")
    }

    pub fn cluster_mut(&mut self) -> &mut Cluster {
        self.cluster.as_mut().expect("cluster is deployed")
    }

    fn take(&mut self) -> Cluster {
        self.injectors.clear();
        self.cluster.take().expect("cluster is deployed")
    }

    /// Ends the inputs, drains and joins the cluster under a
    /// `cluster.shutdown` span, handing the remaining outputs to the driver.
    /// `false` if it does not finish within [`JOIN_LIMIT`].
    pub fn shut_down(&mut self, driver: &mut Driver) -> bool {
        let cluster = self.take();
        let span = driver.tracer.begin("cluster.shutdown", 0, SpanId::NONE);
        let rest = with_deadline(JOIN_LIMIT, move || {
            cluster.finish_inputs();
            cluster.shutdown().iter().map(Out::of).collect::<Vec<_>>()
        });
        driver.tracer.end(span);
        match rest {
            Some(rest) => {
                driver.outs.extend(rest);
                true
            }
            None => false,
        }
    }
}

impl Sut for ClusterSut {
    fn send(&mut self, client: usize, payload: Value) {
        self.injectors[client].send(payload);
    }

    fn poll(&mut self, sink: &mut Vec<Out>) {
        sink.extend(self.cluster().take_outputs().iter().map(Out::of));
    }

    fn idle(&mut self) {
        self.cluster().heartbeat_inputs();
    }
}

/// The inputs, a pure function of the seed.
struct Inputs {
    pool: Rc<Vec<Value>>,
    schedule: Vec<Arrival>,
}

fn inputs(plan: &Plan, ctx: &RunCtx) -> Inputs {
    let schedule = match plan.load {
        Load::Open => poisson_schedule(
            ctx.seed,
            CLIENTS as u8,
            OPEN_RATE_PER_CLIENT,
            ctx.epoch_seconds(plan.epochs),
        ),
        Load::Closed { .. } => Vec::new(),
    };
    Inputs {
        pool: Rc::new(sentence_pool(ctx.seed)),
        schedule,
    }
}

/// A fresh durability directory (when the plan has one) and a deployment.
fn deploy(plan: &Plan, spec: &AppSpec, dir: &Path, tracer: &mut Tracer) -> ClusterSut {
    if plan.durable {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).expect("durability directory under benchmark/out");
    }
    ClusterSut::deploy(
        tracer,
        spec.clone(),
        placement(spec),
        config(plan, spec, dir),
        &["client1", "client2"],
    )
}

pub fn run(plan: &Plan, ctx: &RunCtx) -> Outcome {
    let mut outcome = Outcome::default();
    let mut driver = Driver::new();
    let spec = fan_in_app(CLIENTS).expect("fan-in topology is valid");
    let dir = ctx.out_dir.join("durable");
    time_set_ups(
        &mut outcome,
        || {
            (
                inputs(plan, ctx),
                deploy(plan, &spec, &dir, &mut driver.tracer),
            )
        },
        |(_, mut sut)| {
            sut.shut_down(&mut Driver::new());
        },
    );
    let Inputs { pool, schedule } = inputs(plan, ctx);
    let memory = PeakRss::start();
    for epoch in 0..plan.epochs {
        driver.tracer.set_on(ctx.traces(epoch));
        memory.take_kb();
        let mut sut = deploy(plan, &spec, &dir, &mut driver.tracer);
        driver.begin_epoch(Rc::clone(&pool));

        // Measured phase.
        let cpu = CpuMeter::start();
        driver.begin_sampling();
        let rate = match plan.load {
            Load::Open => driver.open_loop(&mut sut, &schedule, DRAIN_LIMIT),
            Load::Closed { messages } => {
                let limit = Duration::from_secs_f64(ctx.epoch_seconds(plan.epochs));
                let until = Instant::now() + limit;
                driver.closed_loop(&mut sut, CLIENTS, WINDOW, messages, until, DRAIN_LIMIT)
            }
        };
        driver.end_sampling();
        book_measured_phase(&mut outcome, &driver, rate, &cpu);
        if ctx.trace {
            layers::from_cluster(sut.cluster(), driver.sent(), &mut outcome.layers);
            if let Some(ratio) = driver.last_over_first_decile() {
                outcome.layer("cluster.rate_last_over_first_decile", ratio, 1);
            }
        }

        // One recovery, then proof that what was restored still works.
        outcome.attempted += 1;
        let recovered = if plan.durable {
            cold_restart(
                plan,
                &spec,
                &dir,
                &mut sut,
                &mut driver,
                &mut outcome,
                epoch,
            )
        } else {
            fail_over(&mut sut, &mut driver, epoch)
        };
        match recovered {
            Some(ms) => {
                outcome.recovery_ms.push(ms);
                if !driver.send_and_drain(&mut sut, CLIENTS, WINDOW, AFTER_RECOVERY, DRAIN_LIMIT) {
                    outcome.complain(
                        0,
                        format!("epoch {epoch}: post-recovery traffic did not drain"),
                    );
                }
            }
            None => {
                outcome.complain(1, format!("epoch {epoch}: recovery missed its deadline"));
                if !sut.is_deployed() {
                    // The crashed cluster never came back: nothing is left
                    // to shut down or to verify against.
                    outcome.attempted += driver.sent();
                    break;
                }
            }
        }

        book_memory(&mut outcome, &driver, &memory);
        layers::recovery_counters(&sut.cluster().obs_snapshot(), &mut outcome.layers);
        if !sut.shut_down(&mut driver) {
            outcome.complain(1, "cluster shutdown did not finish");
        }
        if plan.durable {
            if ctx.trace {
                layers::from_checkpoint_dir(&dir.join("ckpt"), &mut outcome.layers);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        verify_epoch(&mut outcome, &mut driver, &mut FanInReference::new(CLIENTS));
    }
    close_run(&mut outcome, &driver, ctx);
    outcome
}

/// Fail-stops the sender engine (its word-count tables and whatever the
/// input log holds past its last checkpoint are what recovery must rebuild),
/// injects while it is down, promotes its replica and times kill → first
/// fresh output.
fn fail_over(sut: &mut ClusterSut, driver: &mut Driver, epoch: u64) -> Option<f64> {
    let engine = EngineId::new(0);
    let before = driver.completed;
    let op = driver.tracer.begin("op.recovery", epoch, SpanId::NONE);
    let started = Instant::now();
    driver
        .tracer
        .span("cluster.kill", epoch, op, || sut.cluster_mut().kill(engine));
    for _ in 0..BURST_WHILE_DOWN {
        driver.send_next(sut, CLIENTS);
    }
    let promoted = driver.tracer.span("cluster.promote_cold", epoch, op, || {
        sut.cluster_mut().promote(engine)
    });
    if let Err(e) = promoted {
        eprintln!("promotion failed: {e}");
        return None;
    }
    let fresh = driver.await_recovery(sut, (op, epoch), before, RECOVERY_LIMIT, None);
    fresh.then(|| started.elapsed().as_secs_f64() * 1e3)
}

/// Crashes the whole cluster after an idle period, restarts it from disk and
/// times restart → first fresh output. The Buffered tier must lose nothing
/// after the idle period, and recovery must find every input ever sent.
fn cold_restart(
    plan: &Plan,
    spec: &AppSpec,
    dir: &Path,
    sut: &mut ClusterSut,
    driver: &mut Driver,
    outcome: &mut Outcome,
    epoch: u64,
) -> Option<f64> {
    std::thread::sleep(IDLE_BEFORE_CRASH);
    let before = driver.completed;
    // A restart starts a fresh obs hub: read this incarnation's counters now.
    layers::recovery_counters(&sut.cluster().obs_snapshot(), &mut outcome.layers);
    let cluster = sut.take();
    let op = driver.tracer.begin("op.recovery", epoch, SpanId::NONE);
    let crash = driver.tracer.begin("cluster.crash", epoch, op);
    let (pending, report) = with_deadline(JOIN_LIMIT, move || cluster.crash_with_report())?;
    driver.tracer.end(crash);
    driver.outs.extend(pending.iter().map(Out::of));
    let lost: u64 = report.lost_inputs.values().sum();
    if lost > 0 {
        outcome.complain(
            lost,
            format!("epoch {epoch}: crash lost {lost} inputs after the idle period"),
        );
    }

    let started = Instant::now();
    let recover = driver.tracer.begin("cluster.recover_from_disk", epoch, op);
    let (spec, placement, config) = (spec.clone(), placement(spec), config(plan, spec, dir));
    let recovered = with_deadline(JOIN_LIMIT, move || {
        Cluster::recover_from_disk(spec, placement, config)
    })?;
    driver.tracer.end(recover);
    let (cluster, report) = match recovered {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("recover_from_disk failed: {e}");
            return None;
        }
    };
    let recovered_inputs: u64 = report.components.iter().map(|c| c.recovered_inputs).sum();
    if recovered_inputs != driver.sent() {
        outcome.complain(
            driver.sent().abs_diff(recovered_inputs),
            format!(
                "epoch {epoch}: recovered {recovered_inputs} inputs of {} sent",
                driver.sent()
            ),
        );
    }
    *sut = ClusterSut::new(cluster, &["client1", "client2"]);
    for _ in 0..CLIENTS {
        driver.send_next(sut, CLIENTS);
    }
    let fresh = driver.await_recovery(sut, (op, epoch), before, RECOVERY_LIMIT, None);
    fresh.then(|| started.elapsed().as_secs_f64() * 1e3)
}
