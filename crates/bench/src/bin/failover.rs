//! Failover latency — cold promotion, aged cold promotion and warm
//! standby, measured.
//!
//! Two availability claims (DESIGN.md §5, §16) on a heavy-state ledger
//! (tens of thousands of checkpointed keys, a checkpoint per message),
//! written to `BENCH_failover.json` at the workspace root (committed —
//! later sessions diff against it):
//!
//! - **cold** — no standby: promotion restores the passive replica's
//!   newest anchored chain — one full and the deltas since, each member
//!   seal-checked, the tail's state digests recomputed — then replays.
//!   The replica keeps only the newest two such chains, so the cost is set
//!   by the state's size, not by how long the incarnation ran.
//! - **cold, aged** — the same drill with four times the traffic before
//!   each kill. If promotion cost grew with the incarnation's age this arm
//!   would read ~4x the cold one; it must stay within 2x.
//! - **warm** — tight-horizon standby: members were applied and verified in
//!   the background as they streamed; promotion starts from that core and
//!   applies only what it has not absorbed.
//!
//! Each round kills the ledger engine mid-traffic (a burst lands in the
//! log while it is dead) and times kill → first post-recovery output.
//! `--quick` runs reduced parameters, leaves the committed baseline
//! untouched, and *gates*: warm p99 must not exceed cold p99 (the standby
//! is never the slower path), aged-cold p99 must stay within 2x of cold
//! p99, and — when a committed `BENCH_failover.json` exists — the current
//! cold/warm speedup must be at least half the committed one. Ratios only,
//! never absolute latencies: CI hardware varies, "one arm divided by
//! another on the same box" does not.

// Measurement harness (tart-lint tier: Exempt): its purpose is wall-clock timing.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use tart_bench::{print_table, quick_mode};
use tart_engine::{Cluster, ClusterConfig, OutputRecord, Placement, StandbyConfig};
use tart_estimator::EstimatorSpec;
use tart_model::{
    AppSpec, BlockId, CheckpointMode, CkptCell, CkptMap, Component, Ctx, RestoreError, Snapshot,
    Value,
};
use tart_vtime::{EngineId, PortId, VirtualTime};

/// A ledger with deliberately heavy checkpointed state: every snapshot
/// carries all `keys` accounts, so restoring even a short chain costs real
/// work — the cost the warm standby takes off the promotion path.
struct Ledger {
    accounts: CkptMap<String, u64>,
    seq: CkptCell<u64>,
}

impl Ledger {
    fn new(keys: usize) -> Self {
        let mut accounts = CkptMap::new();
        for k in 0..keys {
            accounts.insert(format!("acct-{k:06}"), 0);
        }
        Ledger {
            accounts,
            seq: CkptCell::new(0),
        }
    }
}

impl Component for Ledger {
    fn on_message(&mut self, _port: PortId, msg: &Value, ctx: &mut dyn Ctx) {
        ctx.tick_block(BlockId(0), 1);
        let i = msg.as_i64().unwrap_or(0) as u64;
        let n = self.accounts.len() as u64;
        for stride in [1u64, 7, 13] {
            let key = format!("acct-{:06}", (i * stride) % n);
            let v = self.accounts.get(&key).copied().unwrap_or(0);
            self.accounts.insert(key, v + 1);
        }
        self.seq.update(|s| *s += 1);
        ctx.send(PortId::new(1), Value::I64(*self.seq.get() as i64));
    }

    fn checkpoint(&mut self, _mode: CheckpointMode, vt: VirtualTime) -> Snapshot {
        // Always a full capture — the §II.F.2 "large structure" checkpointed
        // wholesale, with no incremental journal. Every chain member carries
        // the entire ledger, so the engine's byte cadence re-anchors every
        // other checkpoint and a cold restore pays for two images at most.
        let mut snap = Snapshot::new(vt);
        if let Some(chunk) = self.accounts.take_chunk(CheckpointMode::Full) {
            snap.put("accounts", chunk);
        }
        if let Some(chunk) = self.seq.take_chunk(CheckpointMode::Full) {
            snap.put("seq", chunk);
        }
        snap
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), RestoreError> {
        for (field, chunk) in snapshot.iter() {
            let result = match field {
                "accounts" => self.accounts.apply_chunk(chunk),
                "seq" => self.seq.apply_chunk(chunk),
                other => {
                    return Err(RestoreError::UnknownField {
                        field: other.to_owned(),
                    })
                }
            };
            result.map_err(|source| RestoreError::Corrupt {
                field: field.to_owned(),
                source,
            })?;
        }
        Ok(())
    }
}

fn ledger_app(keys: usize) -> AppSpec {
    let mut b = AppSpec::builder();
    let ledger = b.component(
        "Ledger",
        Arc::new(move || Box::new(Ledger::new(keys)) as Box<dyn Component>),
    );
    b.wire_in("requests", ledger, PortId::new(0));
    b.wire_out(ledger, PortId::new(1), "acks");
    b.build().expect("ledger topology is valid")
}

struct Scenario {
    keys: usize,
    rounds: usize,
    msgs_per_round: usize,
    burst: usize,
}

/// Runs one failover scenario and returns per-round kill→first-fresh-output
/// latencies (seconds). `standby` decides warm vs cold.
fn run(s: &Scenario, standby: Option<StandbyConfig>) -> Vec<f64> {
    let warm = standby.is_some();
    let spec = ledger_app(s.keys);
    let mut config = ClusterConfig::logical_time()
        .with_checkpoint_every(1)
        .with_estimator(
            spec.component_by_name("Ledger").expect("ledger").id(),
            EstimatorSpec::per_iteration(BlockId(0), 10_000),
        );
    if let Some(sb) = standby {
        config = config.with_warm_standby(sb);
    }
    let placement = Placement::single_engine(&spec);
    let engine = EngineId::new(0);
    let mut cluster = Cluster::deploy(spec, placement, config).expect("deploys");

    let mut latencies = Vec::with_capacity(s.rounds);
    let mut sent = 0usize;
    let mut outputs: Vec<OutputRecord> = Vec::new();
    for round in 0..s.rounds {
        // Steady traffic: the chain grows one member per message.
        for _ in 0..s.msgs_per_round {
            cluster
                .injector("requests")
                .expect("injector")
                .send(Value::I64(sent as i64));
            sent += 1;
        }
        // Drain until the engine has chewed through the round (dedup later;
        // stutter makes raw counts over-complete, never under-complete).
        await_distinct(&cluster, &mut outputs, sent, "round ingest");
        if warm {
            // Let the standby absorb everything outside the one-tick
            // horizon. `pending <= 1` alone is not enough — it holds
            // vacuously while checkpoints are still in flight on the
            // control plane — so also require the applied count to go
            // quiet for several apply intervals.
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut last_applied = u64::MAX;
            let mut stable = 0;
            loop {
                if let Some(st) = cluster.standby_status(engine) {
                    assert!(!st.demoted, "bench stream must never diverge");
                    if st.anchored && st.pending <= 1 && st.applied == last_applied {
                        stable += 1;
                        if stable >= 8 {
                            break;
                        }
                    } else {
                        stable = 0;
                    }
                    last_applied = st.applied;
                }
                assert!(
                    Instant::now() < deadline,
                    "standby failed to catch up in round {round}: {:?}",
                    cluster.standby_status(engine)
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        // The measured drill: fail-stop, a burst lands in the log while the
        // engine is dead, promote, wait for the first post-recovery output.
        let t0 = Instant::now();
        cluster.kill(engine);
        for _ in 0..s.burst {
            cluster
                .injector("requests")
                .expect("injector")
                .send(Value::I64(sent as i64));
            sent += 1;
        }
        cluster
            .promote(engine)
            .expect("promotion of a killed engine succeeds");
        loop {
            let fresh = cluster.take_outputs();
            if !fresh.is_empty() {
                outputs.extend(fresh);
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "recovery stalled in round {round} ({} mode)",
                if warm { "warm" } else { "cold" }
            );
            std::thread::yield_now();
        }
        latencies.push(t0.elapsed().as_secs_f64());
        await_distinct(&cluster, &mut outputs, sent, "post-recovery burst");
    }
    // Every round must have ridden the intended path, or the comparison
    // is meaningless.
    let snap = cluster.obs_snapshot();
    if warm {
        assert_eq!(
            snap.warm_promotions as usize, s.rounds,
            "every warm-mode round must promote from the standby"
        );
    } else {
        assert_eq!(
            snap.cold_promotions as usize, s.rounds,
            "every cold-mode round must restore from the replica"
        );
    }
    assert_eq!(snap.standby_demotions, 0, "bench stream must never diverge");
    assert_eq!(snap.divergences_detected, 0);
    cluster.finish_inputs();
    outputs.extend(cluster.shutdown());

    // Transparency check: after stutter dedup the ledger acked every
    // request exactly once, in sequence — replay reproduced the run.
    let mut seqs: Vec<i64> = Cluster::dedup_outputs(outputs)
        .iter()
        .map(|o| o.payload.as_i64().expect("ack seq"))
        .collect();
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        (1..=sent as i64).collect::<Vec<_>>(),
        "{} failover must stay transparent",
        if warm { "warm" } else { "cold" }
    );
    latencies
}

/// Polls outputs until `expected` *distinct* sequence numbers arrived
/// (replay stutter duplicates, it never skips).
fn await_distinct(cluster: &Cluster, outputs: &mut Vec<OutputRecord>, expected: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        outputs.extend(cluster.take_outputs());
        let mut seqs: Vec<i64> = outputs.iter().filter_map(|o| o.payload.as_i64()).collect();
        seqs.sort_unstable();
        seqs.dedup();
        if seqs.len() >= expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {} of {expected} acks",
            seqs.len()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let quick = quick_mode();
    // Quick keeps the full scenario shape (state size sets the cold/warm
    // ratio) and trims only the round count, so its ratios are comparable
    // to the committed full-run baseline.
    let s = Scenario {
        keys: 20_000,
        rounds: if quick { 3 } else { 15 },
        msgs_per_round: 96,
        burst: 4,
    };
    let aged = Scenario {
        msgs_per_round: 4 * s.msgs_per_round,
        ..s
    };
    let horizon = StandbyConfig {
        trailing_horizon_ticks: 1,
        apply_interval: Duration::from_millis(1),
    };
    println!(
        "Failover drill: {} rounds x {} msgs ({} aged), {} ledger keys, burst {} while dead",
        s.rounds, s.msgs_per_round, aged.msgs_per_round, s.keys, s.burst
    );

    let ms = 1_000.0;
    let p50_p99 = |mut latencies: Vec<f64>| {
        latencies.sort_by(f64::total_cmp);
        (
            percentile(&latencies, 0.50) * ms,
            percentile(&latencies, 0.99) * ms,
        )
    };
    let (cold_p50, cold_p99) = p50_p99(run(&s, None));
    let (aged_p50, aged_p99) = p50_p99(run(&aged, None));
    let (warm_p50, warm_p99) = p50_p99(run(&s, Some(horizon)));
    let speedup_p50 = cold_p50 / warm_p50;
    let speedup_p99 = cold_p99 / warm_p99;
    let aging_p50 = aged_p50 / cold_p50;
    let aging_p99 = aged_p99 / cold_p99;

    print_table(
        "Kill → first fresh output (ms)",
        &["mode", "p50", "p99"],
        &[
            vec![
                "cold (newest anchored chain)".into(),
                format!("{cold_p50:.2}"),
                format!("{cold_p99:.2}"),
            ],
            vec![
                "cold, 4x older incarnation".into(),
                format!("{aged_p50:.2}"),
                format!("{aged_p99:.2}"),
            ],
            vec![
                "warm (standby head start)".into(),
                format!("{warm_p50:.2}"),
                format!("{warm_p99:.2}"),
            ],
            vec![
                "cold/warm speedup".into(),
                format!("{speedup_p50:.1}x"),
                format!("{speedup_p99:.1}x"),
            ],
            vec![
                "aged/cold".into(),
                format!("{aging_p50:.2}x"),
                format!("{aging_p99:.2}x"),
            ],
        ],
    );

    // Baseline comparison BEFORE overwriting the file. Ratios only.
    let baseline = std::fs::read_to_string("BENCH_failover.json").ok();
    let mut regressions = Vec::new();
    if let Some(base) = &baseline {
        if let Some(was) = json_f64(base, "speedup_p99") {
            if speedup_p99 < was / 2.0 {
                regressions.push(format!(
                    "speedup_p99: {speedup_p99:.1}x vs committed {was:.1}x"
                ));
            }
        }
    } else {
        eprintln!("no committed BENCH_failover.json — first run, nothing to compare");
    }

    // Quick mode gates against the committed baseline but never refreshes
    // it — only a full run's numbers are worth committing.
    if !quick {
        let json = format!(
            "{{\n  \"bench\": \"failover\",\n  \"mode\": \"full\",\n  \
             \"rounds\": {},\n  \"msgs_per_round\": {},\n  \
             \"aged_msgs_per_round\": {},\n  \
             \"ledger_keys\": {},\n  \"burst_while_dead\": {},\n  \
             \"trailing_horizon_ticks\": 1,\n  \
             \"cold_p50_ms\": {cold_p50:.2},\n  \"cold_p99_ms\": {cold_p99:.2},\n  \
             \"aged_cold_p50_ms\": {aged_p50:.2},\n  \"aged_cold_p99_ms\": {aged_p99:.2},\n  \
             \"warm_p50_ms\": {warm_p50:.2},\n  \"warm_p99_ms\": {warm_p99:.2},\n  \
             \"speedup_p50\": {speedup_p50:.1},\n  \"speedup_p99\": {speedup_p99:.1},\n  \
             \"aging_p50\": {aging_p50:.2},\n  \"aging_p99\": {aging_p99:.2}\n}}\n",
            s.rounds, s.msgs_per_round, aged.msgs_per_round, s.keys, s.burst,
        );
        std::fs::write("BENCH_failover.json", &json).expect("write BENCH_failover.json");
        println!("wrote BENCH_failover.json");
    }

    if quick {
        tart_bench::write_quick_ratios(
            "failover",
            &[
                ("speedup_p50", speedup_p50),
                ("speedup_p99", speedup_p99),
                ("aging_p50", aging_p50),
                ("aging_p99", aging_p99),
            ],
        );
        assert!(
            warm_p99 <= cold_p99,
            "the warm path must never be the slower one \
             (cold {cold_p99:.2}ms, warm {warm_p99:.2}ms)"
        );
        assert!(
            aging_p99 <= 2.0,
            "cold promotion must not grow with the incarnation's age: {}x the traffic \
             cost {aging_p99:.2}x (cold {cold_p99:.2}ms, aged {aged_p99:.2}ms)",
            aged.msgs_per_round / s.msgs_per_round
        );
        assert!(
            regressions.is_empty(),
            ">2x regression vs committed baseline: {regressions:?}"
        );
        println!(
            "quick gates passed (warm p99 <= cold p99, aged cold p99 <= 2x cold, \
             no >2x baseline regression)"
        );
    }
}

/// Pulls `"key": <number>` out of a flat JSON document. Good enough for
/// the baseline file this binary itself writes.
fn json_f64(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
