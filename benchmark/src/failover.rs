//! `failover_cold` and `failover_warm`: kill → first fresh output on the
//! heavy-state ledger of `crates/bench/src/bin/failover.rs`.
//!
//! One engine, a checkpoint per message, 20,000 checkpointed keys: snapshot,
//! state hash, chain verification, restore and (warm) the standby plane do
//! nearly all the work and the message hot path almost none. Cold promotes
//! from the passive replica's whole chain; warm from a standby that has
//! already applied all but the tail.

use std::rc::Rc;
use std::time::{Duration, Instant};

use tart_engine::{Cluster, ClusterConfig, Placement, StandbyConfig};
use tart_estimator::EstimatorSpec;
use tart_model::{BlockId, Value};
use tart_stats::DetRng;
use tart_vtime::EngineId;

use crate::check::LedgerReference;
use crate::drive::Driver;
use crate::fanin::ClusterSut;
use crate::gen::POOL;
use crate::layers;
use crate::ledger::ledger_app;
use crate::measure::PeakRss;
use crate::outcome::{
    book_latencies, book_memory, close_run, time_set_ups, verify_epoch, CpuMeter, Outcome, RunCtx,
    DRAIN_LIMIT, RECOVERY_LIMIT,
};
use crate::trace::{SpanId, Tracer};

pub const LEDGER_KEYS: usize = 20_000;
/// Messages per round before the kill: the chain a cold promotion restores.
const ROUND_MESSAGES: u64 = 96;
const BURST_WHILE_DOWN: u64 = 4;
/// Deployments per run; a cold round alone takes over a second.
const EPOCHS: u64 = 4;
/// Rounds per deployment: fixed, so that every epoch carries the same work,
/// and cut short only if the first round used up the epoch's share of
/// `--seconds`.
const ROUNDS: u64 = 2;
const ENGINE: EngineId = EngineId::new(0);
/// Longest the standby may take to absorb a round.
const STANDBY_LIMIT: Duration = Duration::from_secs(10);

/// Seeded request ids; the ledger maps each onto three accounts.
pub fn request_pool(seed: u64) -> Vec<Value> {
    let mut rng = DetRng::seed_from(seed);
    (0..POOL)
        .map(|_| Value::I64(rng.gen_range_u64(0, 999_999) as i64))
        .collect()
}

fn deploy(warm: bool, tracer: &mut Tracer) -> ClusterSut {
    let spec = ledger_app(LEDGER_KEYS);
    let ledger = spec.component_by_name("Ledger").expect("ledger").id();
    let mut config = ClusterConfig::logical_time()
        .with_checkpoint_every(1)
        .with_estimator(ledger, EstimatorSpec::per_iteration(BlockId(0), 10_000));
    if warm {
        config = config.with_warm_standby(StandbyConfig {
            trailing_horizon_ticks: 1,
            apply_interval: Duration::from_millis(1),
        });
    }
    let placement = Placement::single_engine(&spec);
    ClusterSut::deploy(tracer, spec, placement, config, &["requests"])
}

/// Waits until the standby has absorbed everything outside its one-tick
/// horizon. `pending <= 1` alone holds vacuously while checkpoints are still
/// in flight on the control plane, so the applied count must also go quiet
/// for several apply intervals (as `failover.rs` does).
fn await_standby(cluster: &Cluster) -> Result<(), String> {
    let deadline = Instant::now() + STANDBY_LIMIT;
    let mut last_applied = u64::MAX;
    let mut stable = 0;
    loop {
        if let Some(status) = cluster.standby_status(ENGINE) {
            if status.demoted {
                return Err("standby was demoted".into());
            }
            if status.anchored && status.pending <= 1 && status.applied == last_applied {
                stable += 1;
                if stable >= 8 {
                    return Ok(());
                }
            } else {
                stable = 0;
            }
            last_applied = status.applied;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "standby did not catch up: {:?}",
                cluster.standby_status(ENGINE)
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One round: steady traffic that grows the chain one full-ledger member per
/// message, then the drill — fail-stop, a burst lands in the log while the
/// engine is dead, promote, wait for the first post-recovery output.
fn round(
    warm: bool,
    sut: &mut ClusterSut,
    driver: &mut Driver,
    outcome: &mut Outcome,
    id: u64,
) -> Result<(), String> {
    driver.begin_sampling();
    let ingest = driver.tracer.begin("op.ingest", id, SpanId::NONE);
    let until = Instant::now() + DRAIN_LIMIT;
    let rate = driver.closed_loop(sut, 1, ROUND_MESSAGES, ROUND_MESSAGES, until, DRAIN_LIMIT);
    driver.tracer.end(ingest);
    driver.end_sampling();
    outcome.rates.push(rate.ok_or("ingest did not drain")?);
    outcome.rate_traced.push(driver.tracer.is_on());
    if warm {
        await_standby(sut.cluster())?;
    }

    let before = driver.completed;
    let op = driver.tracer.begin("op.recovery", id, SpanId::NONE);
    let started = Instant::now();
    driver
        .tracer
        .span("cluster.kill", id, op, || sut.cluster_mut().kill(ENGINE));
    for _ in 0..BURST_WHILE_DOWN {
        driver.send_next(sut, 1);
    }
    let promote_span = if warm {
        "cluster.promote_warm"
    } else {
        "cluster.promote_cold"
    };
    driver
        .tracer
        .span(promote_span, id, op, || sut.cluster_mut().promote(ENGINE))
        .map_err(|e| format!("promotion failed: {e}"))?;
    let fresh = driver.await_recovery(sut, (op, id), before, RECOVERY_LIMIT, None);
    if !fresh {
        return Err("no fresh output after promotion".into());
    }
    outcome
        .recovery_ms
        .push(started.elapsed().as_secs_f64() * 1e3);
    if !driver.drain(sut, DRAIN_LIMIT) {
        return Err("post-recovery burst did not drain".into());
    }
    Ok(())
}

pub fn run(warm: bool, ctx: &RunCtx) -> Outcome {
    let mut outcome = Outcome::default();
    let mut driver = Driver::new();
    time_set_ups(
        &mut outcome,
        || (request_pool(ctx.seed), deploy(warm, &mut driver.tracer)),
        |(_, mut sut)| {
            sut.shut_down(&mut Driver::new());
        },
    );
    let pool = Rc::new(request_pool(ctx.seed));
    let memory = PeakRss::start();
    for epoch in 0..EPOCHS {
        driver.tracer.set_on(ctx.traces(epoch));
        memory.take_kb();
        let mut sut = deploy(warm, &mut driver.tracer);
        driver.begin_epoch(Rc::clone(&pool));

        let cpu = CpuMeter::start();
        let until = Instant::now() + Duration::from_secs_f64(ctx.epoch_seconds(EPOCHS));
        let mut rounds = 0;
        while rounds < ROUNDS && (rounds == 0 || Instant::now() < until) {
            outcome.attempted += 1;
            let id = epoch * 1_000 + rounds;
            if let Err(why) = round(warm, &mut sut, &mut driver, &mut outcome, id) {
                outcome.complain(1, format!("epoch {epoch} round {rounds}: {why}"));
                break;
            }
            rounds += 1;
        }
        outcome.measured_inputs = driver.sent();
        outcome.cpu_ms_per_kmsg.push(cpu.ms_per_kmsg(driver.sent()));
        book_memory(&mut outcome, &driver, &memory);
        book_latencies(&mut outcome, &driver);

        // Every round must have ridden the intended path, or the figure is
        // of something else: a warm round that promoted cold is a failed
        // operation.
        let snap = sut.cluster().obs_snapshot();
        let (intended, other) = if warm {
            (snap.warm_promotions, snap.cold_promotions)
        } else {
            (snap.cold_promotions, snap.warm_promotions)
        };
        if other > 0 || intended != rounds {
            outcome.complain(
                other.max(1),
                format!(
                    "epoch {epoch}: {} warm and {} cold promotions in {rounds} {} rounds",
                    snap.warm_promotions,
                    snap.cold_promotions,
                    if warm { "warm" } else { "cold" },
                ),
            );
        }
        if ctx.trace {
            layers::from_cluster(sut.cluster(), driver.sent(), &mut outcome.layers);
        }
        layers::recovery_counters(&snap, &mut outcome.layers);
        if !sut.shut_down(&mut driver) {
            outcome.complain(1, "cluster shutdown did not finish");
        }
        verify_epoch(
            &mut outcome,
            &mut driver,
            &mut LedgerReference::new(LEDGER_KEYS),
        );
    }
    close_run(&mut outcome, &driver, ctx);
    outcome
}
