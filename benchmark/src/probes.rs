//! Layer probes: each calls one layer's public function directly in a timed
//! loop, with the payloads of the workload being traced, and reports the
//! cost per call. Together with how often a message crosses each layer they
//! give the budget that `budget.accounted_share` sums up.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::unbounded;
use tart_codec::{Decode, Encode};
use tart_engine::net::{encode_batch_into, read_batch};
use tart_engine::{
    verify_chain, CheckpointStore, ClusterConfig, DurabilityPolicy, EngineCheckpoint, EngineCore,
    Envelope, FaultPlan, FsyncPolicy, MessageLog, Placement, ReplicaStore, Router, Wal,
};
use tart_estimator::{Estimator, EstimatorSpec};
use tart_model::reference::{fan_in_app, ConstantService, IN_PORT, OUT_PORT, SENDER_LOOP_BLOCK};
use tart_model::{AppSpec, CheckpointMode, CkptMap, Component, Features, Value};
use tart_sched::{GateDecision, InputMux, MergeGate};
use tart_vtime::{ComponentId, EngineId, VirtualTime, WireId};

use crate::failover;
use crate::fanin::{base_config, placement};
use crate::gen::{poisson_schedule, sentence_pool};
use crate::ledger::{ledger_app, Ledger};
use crate::measure::{median, ns_per_op};
use crate::outcome::{Layers, Outcome, RunCtx};

/// Envelopes per batch frame in the net probes: a typical busy-link fill.
const BATCH: usize = 64;
const GROUP_COMMIT: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_records: 64,
    max_delay: Duration::from_millis(5),
};
const BUFFERED: DurabilityPolicy = DurabilityPolicy::Buffered {
    flush_window: Duration::from_millis(10),
};
/// `DurabilityConfig::new`'s segment size.
const SEGMENT_BYTES: u64 = 1 << 20;
/// Chain length of the checkpoint probes.
const CHAIN_MEMBERS: usize = 32;

fn vt(ticks: u64) -> VirtualTime {
    VirtualTime::from_ticks(ticks)
}

fn data(wire: WireId, i: u64, payload: &Value) -> Envelope {
    Envelope::Data {
        wire,
        vt: vt((i + 1) * 1_000_000),
        prev_vt: vt(i * 1_000_000),
        payload: payload.clone(),
    }
}

fn fresh_dir(root: &Path, name: &str) -> std::path::PathBuf {
    let dir = root.join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs every probe and files the results under `outcome.layers`.
pub fn run(ctx: &RunCtx, outcome: &mut Outcome) {
    let ledger_workload = ctx.workload.starts_with("failover");
    let payloads = if ledger_workload {
        failover::request_pool(ctx.seed)
    } else {
        sentence_pool(ctx.seed)
    };
    let layers = &mut outcome.layers;
    codec_and_net(&payloads, layers);
    router(layers);
    sched(ctx.seed, &payloads, layers);
    estimator(layers);
    log_and_wal(&ctx.out_dir, &payloads, layers);
    // The sender engine counts words: it needs sentences whatever the workload.
    let sentences;
    let for_senders = if ledger_workload {
        sentences = sentence_pool(ctx.seed);
        &sentences
    } else {
        &payloads
    };
    store(&ctx.out_dir, for_senders, layers);
    checkpoint_chain(&payloads, layers);
    model(layers);
    core_lane(&payloads, layers);
    budget(&ctx.workload, outcome);
}

fn put(layers: &mut Layers, name: &'static str, value: f64, samples: usize) {
    layers.insert(name, (value, samples as u64));
}

fn codec_and_net(payloads: &[Value], layers: &mut Layers) {
    let wire = WireId::new(7);
    let envelopes: Vec<Envelope> = (0..1_024)
        .map(|i| data(wire, i, &payloads[i as usize % payloads.len()]))
        .collect();
    let mut buf = BytesMut::with_capacity(4_096);
    let n = 200_000;
    let encode = ns_per_op(n, |i| {
        buf.clear();
        black_box(&envelopes[i % envelopes.len()]).encode(&mut buf);
        black_box(&buf);
    });
    put(layers, "codec.envelope_encode_ns", encode, n);
    let encoded: Vec<Vec<u8>> = envelopes.iter().map(Encode::to_bytes).collect();
    let decode = ns_per_op(n, |i| {
        black_box(Envelope::from_bytes(black_box(&encoded[i % encoded.len()])).expect("decodes"));
    });
    put(layers, "codec.envelope_decode_ns", decode, n);

    let target = EngineId::new(1);
    let batches: Vec<Vec<(EngineId, Envelope)>> = envelopes
        .chunks(BATCH)
        .map(|c| c.iter().map(|e| (target, e.clone())).collect())
        .collect();
    let n = 4_000;
    let encode_batch = ns_per_op(n, |i| {
        buf.clear();
        encode_batch_into(&mut buf, black_box(&batches[i % batches.len()]));
        black_box(&buf);
    });
    put(
        layers,
        "net.encode_batch_ns_per_env",
        encode_batch / BATCH as f64,
        n * BATCH,
    );
    let frames: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| {
            let mut f = BytesMut::new();
            encode_batch_into(&mut f, b);
            f.to_vec()
        })
        .collect();
    let read = ns_per_op(n, |i| {
        let mut cursor = Cursor::new(frames[i % frames.len()].as_slice());
        black_box(read_batch(&mut cursor).expect("reads").expect("one batch"));
    });
    put(
        layers,
        "net.read_batch_ns_per_env",
        read / BATCH as f64,
        n * BATCH,
    );
}

fn router(layers: &mut Layers) {
    let router = Router::new(FaultPlan::none());
    let engine = EngineId::new(9);
    let (tx, rx) = unbounded();
    router.register(engine, tx);
    let n = 200_000;
    let send = ns_per_op(n, |i| {
        router.send(
            engine,
            Envelope::Probe {
                wire: WireId::new(1),
                needed_through: vt(i as u64),
            },
        );
    });
    black_box(rx.try_iter().count());
    put(layers, "router.send_ns", send, n);
}

fn sched(seed: u64, payloads: &[Value], layers: &mut Layers) {
    let (w1, w2) = (WireId::new(1), WireId::new(2));
    // Two wires alternating: each iteration pushes two messages and pops two,
    // and the other wire always holds a later one, so nothing blocks.
    let mut gate: MergeGate<Value> = MergeGate::new([w1, w2]);
    let n = 200_000;
    let push_pop = ns_per_op(n, |i| {
        let t = 2 * i as u64;
        let payload = &payloads[i % payloads.len()];
        gate.push_message(w1, vt(t + 1), payload.clone())
            .expect("monotone");
        gate.push_message(w2, vt(t + 2), payload.clone())
            .expect("monotone");
        black_box(gate.try_next());
        black_box(gate.try_next());
    });
    put(layers, "sched.gate_push_pop_ns", push_pop / 2.0, 2 * n);

    // The sender engine's shape: two components, one input wire each.
    let mut mux: InputMux<Value> = InputMux::new();
    mux.add_component(ComponentId::new(1), [w1]);
    mux.add_component(ComponentId::new(2), [w2]);
    let poll = ns_per_op(n, |i| {
        let wire = if i % 2 == 0 { w1 } else { w2 };
        mux.push_message(wire, vt(i as u64 + 1), payloads[i % payloads.len()].clone())
            .expect("monotone");
        black_box(mux.poll());
    });
    put(layers, "sched.mux_poll_ns", poll, n);

    // The merger's gate fed the open-loop arrival trace with no silence
    // promised: how often asking for the next message finds it held back.
    let mut gate: MergeGate<()> = MergeGate::new([w1, w2]);
    let (mut calls, mut blocked) = (0u64, 0u64);
    for arrival in poisson_schedule(seed, 2, 10_000.0, 1.0) {
        let wire = if arrival.client == 0 { w1 } else { w2 };
        if gate.push_message(wire, vt(arrival.due_ns + 1), ()).is_err() {
            continue; // two arrivals in one nanosecond on one wire
        }
        loop {
            calls += 1;
            match gate.try_next() {
                GateDecision::Deliver { .. } => {}
                GateDecision::Blocked { .. } => {
                    blocked += 1;
                    break;
                }
                GateDecision::Idle => break,
            }
        }
    }
    put(
        layers,
        "sched.gate_blocked_share",
        blocked as f64 / calls.max(1) as f64,
        calls as usize,
    );
}

fn estimator(layers: &mut Layers) {
    let spec = EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, 61_000);
    let n = 1_000_000;
    let eval = ns_per_op(n, |i| {
        let features = Features::single(SENDER_LOOP_BLOCK, 3 + (i % 6) as u64);
        black_box(spec.estimate(black_box(&features)));
    });
    put(layers, "estimator.eval_ns", eval, n);
}

fn log_and_wal(out_dir: &Path, payloads: &[Value], layers: &mut Layers) {
    let wire = WireId::new(1);
    let mut log = MessageLog::in_memory();
    let n = 100_000;
    let append = ns_per_op(n, |i| {
        log.append(wire, vt(i as u64 + 1), &payloads[i % payloads.len()])
            .expect("monotone");
    });
    put(layers, "log.append_ns_inmemory", append, n);
    // Re-reading the last 1,000 of 100,000 entries, as a restart after a
    // recent checkpoint does.
    let replays: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            black_box(log.replay_from(wire, vt(n as u64 - 999)));
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    put(
        layers,
        "log.replay_from_us_per_kmsg",
        median(&replays),
        replays.len(),
    );
    drop(log);

    let dir = fresh_dir(out_dir, "probe-log");
    if let Ok((mut log, _)) = MessageLog::durable(&dir, SEGMENT_BYTES, GROUP_COMMIT) {
        log.set_wire_tier(wire, BUFFERED);
        let n = 30_000;
        let append = ns_per_op(n, |i| {
            log.append(wire, vt(i as u64 + 1), &payloads[i % payloads.len()])
                .expect("appends");
        });
        put(layers, "log.append_ns_buffered", append, n);
    }
    std::fs::remove_dir_all(&dir).ok();

    let body = data(wire, 1, &payloads[0]).to_bytes();
    let dir = fresh_dir(out_dir, "probe-wal");
    if let Ok(mut wal) = Wal::create(&dir, SEGMENT_BYTES, GROUP_COMMIT) {
        let n = 100_000;
        let buffered = ns_per_op(n, |_| {
            wal.append_lane(&body, BUFFERED).expect("appends");
        });
        put(layers, "wal.append_lane_ns_buffered", buffered, n);
        wal.sync().expect("syncs");
        let n = 30;
        let strict = ns_per_op(n, |_| {
            wal.append_lane(&body, DurabilityPolicy::Strict)
                .expect("appends");
        });
        put(layers, "wal.append_lane_us_strict", strict / 1e3, n);
        wal.sync().expect("syncs");
        drop(wal);
        // Reopening verifies and returns every record: the 100,030 above.
        let started = Instant::now();
        let reopened = Wal::open(&dir, SEGMENT_BYTES, GROUP_COMMIT);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if let Ok((_, recovery)) = reopened {
            let records = recovery.records.len();
            put(
                layers,
                "wal.recover_ms_per_100k",
                ms * 100_000.0 / records.max(1) as f64,
                records,
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Drives engine 0 of the fan-in application (both senders) on the calling
/// thread and returns the checkpoints it pushed to its replica: real
/// engine-made members with real word-count deltas.
fn sender_engine_chain(payloads: &[Value], messages: u64) -> Vec<EngineCheckpoint> {
    let spec = fan_in_app(2).expect("fan-in topology is valid");
    let config = base_config(&spec).with_checkpoint_every(64);
    let wires: Vec<WireId> = spec.external_inputs().iter().map(|w| w.id()).collect();
    let router = Router::new(FaultPlan::none());
    let (tx, merger_inbox) = unbounded();
    router.register(EngineId::new(1), tx);
    let replica = ReplicaStore::new();
    let (outs, _outs_rx) = unbounded();
    let mut core = EngineCore::new(
        EngineId::new(0),
        &spec,
        &placement(&spec),
        &config,
        router,
        replica.clone(),
        outs,
    );
    let mut last = [0u64; 2];
    for i in 0..messages {
        let client = (i % 2) as usize;
        let stamp = (i + 1) * 1_000_000;
        core.handle(Envelope::Data {
            wire: wires[client],
            vt: vt(stamp),
            prev_vt: vt(last[client]),
            payload: payloads[i as usize % payloads.len()].clone(),
        });
        last[client] = stamp;
        core.pump();
    }
    drop(merger_inbox);
    replica.chain()
}

fn store(out_dir: &Path, payloads: &[Value], layers: &mut Layers) {
    // One full and three deltas: the longest chain a cluster with the
    // default `full_checkpoint_every` of 4 ever has to load.
    let chain = sender_engine_chain(payloads, 64 * 4 + 1);
    let Some(delta) = chain.iter().rfind(|c| !c.is_self_contained()) else {
        return;
    };
    let dir = fresh_dir(out_dir, "probe-store");
    let Ok(store) = CheckpointStore::open(&dir) else {
        return;
    };
    if chain.iter().any(|c| store.persist_with(c, false).is_err()) {
        return;
    }
    let loads: Vec<f64> = (0..10)
        .map(|_| {
            let started = Instant::now();
            black_box(store.load_chain(delta.engine).ok());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    put(layers, "store.load_chain_ms", median(&loads), chain.len());
    // Then the same delta over and over, the way the Buffered tier persists
    // (no data fsync): flat if a persist is O(1) in the generation count.
    let mut us = Vec::with_capacity(2_064);
    for _ in 0..2_064 {
        let started = Instant::now();
        if store.persist_with(delta, false).is_err() {
            break;
        }
        us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    if us.len() == 2_064 {
        put(layers, "store.persist_us_gen16", median(&us[8..24]), 16);
        put(
            layers,
            "store.persist_us_gen2048",
            median(&us[2_040..2_056]),
            16,
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The ledger engine driven by hand with a checkpoint per message: the chain
/// a cold promotion restores, member by member.
fn checkpoint_chain(payloads: &[Value], layers: &mut Layers) {
    let spec = ledger_app(failover::LEDGER_KEYS);
    let config = ClusterConfig::logical_time().with_checkpoint_every(1);
    let wire = spec.external_inputs()[0].id();
    let replica = ReplicaStore::new();
    let (outs, _outs_rx) = unbounded();
    let mut core = EngineCore::new(
        EngineId::new(0),
        &spec,
        &Placement::single_engine(&spec),
        &config,
        Router::new(FaultPlan::none()),
        replica.clone(),
        outs,
    );
    for i in 0..CHAIN_MEMBERS as u64 {
        // The ledger takes integers; a sentence counts as request 0.
        core.handle(data(wire, i, &payloads[i as usize % payloads.len()]));
        core.pump();
    }
    let chain = replica.chain();
    let Some(last) = chain.last() else {
        return;
    };
    // `durable_steady` has already read these two off its own disk.
    let retained: usize = last.retention.values().map(Vec::len).sum();
    layers
        .entry("checkpoint.payload_bytes_last")
        .or_insert((last.payload_bytes() as f64, 1));
    layers
        .entry("checkpoint.retention_entries_last")
        .or_insert((retained as f64, 1));
    let encode = ns_per_op(chain.len(), |i| {
        black_box(chain[i].to_bytes());
    });
    put(layers, "checkpoint.encode_us", encode / 1e3, chain.len());
    let started = Instant::now();
    let verified = verify_chain(&chain);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if verified.is_ok() {
        put(layers, "checkpoint.verify_chain_ms", ms, chain.len());
    }
}

fn model(layers: &mut Layers) {
    let mut map: CkptMap<String, u64> = CkptMap::new();
    for k in 0..failover::LEDGER_KEYS {
        map.insert(format!("acct-{k:06}"), 0);
    }
    let n = 20;
    let mut full_chunk = None;
    let full = ns_per_op(n, |_| {
        full_chunk = black_box(map.take_chunk(CheckpointMode::Full));
    });
    put(layers, "model.ckptmap_take_chunk_full_us", full / 1e3, n);
    let n = 2_000;
    let delta = ns_per_op(n, |i| {
        for stride in [1usize, 7, 13] {
            let key = format!("acct-{:06}", (i * stride) % failover::LEDGER_KEYS);
            map.insert(key, i as u64);
        }
        black_box(map.take_chunk(CheckpointMode::Incremental));
    });
    put(layers, "model.ckptmap_take_chunk_delta_us", delta / 1e3, n);
    if let Some(chunk) = full_chunk {
        let n = 20;
        let apply = ns_per_op(n, |_| {
            let mut fresh: CkptMap<String, u64> = CkptMap::new();
            fresh.apply_chunk(&chunk).expect("applies");
            black_box(fresh.len());
        });
        put(layers, "model.apply_chunk_full_us", apply / 1e3, n);
    }
    let mut ledger = Ledger::new(failover::LEDGER_KEYS);
    let n = 20;
    let hash = ns_per_op(n, |i| {
        black_box(ledger.state_hash(vt(i as u64)));
    });
    put(layers, "model.state_hash_us", hash / 1e3, n);
}

/// `client → ConstantService → consumer`: one input wire, so no pessimism.
fn relay_app() -> AppSpec {
    let mut b = AppSpec::builder();
    let relay = b.component(
        "Relay",
        Arc::new(|| Box::new(ConstantService::new()) as Box<dyn Component>),
    );
    b.wire_in("client", relay, IN_PORT);
    b.wire_out(relay, OUT_PORT, "consumer");
    b.build().expect("relay topology is valid")
}

/// One `EngineCore` hosting a constant-work relay, driven on the calling
/// thread: `handle` + `pump` per message, no channels, no other thread.
fn core_lane(payloads: &[Value], layers: &mut Layers) {
    let spec = relay_app();
    let config = ClusterConfig::logical_time().with_checkpoint_every(64);
    let wire = spec.external_inputs()[0].id();
    let (outs, outs_rx) = unbounded();
    let mut core = EngineCore::new(
        EngineId::new(0),
        &spec,
        &Placement::single_engine(&spec),
        &config,
        Router::new(FaultPlan::none()),
        ReplicaStore::new(),
        outs,
    );
    let n = 200_000;
    let per_msg = ns_per_op(n, |i| {
        core.handle(data(wire, i as u64, &payloads[i % payloads.len()]));
        core.pump();
        if i % 1_024 == 0 {
            black_box(outs_rx.try_iter().count());
        }
    });
    put(layers, "core.handle_pump_ns_per_msg", per_msg, n);
}

/// Σ(layer cost × crossings per message) against the CPU the traced run
/// actually spent per message on the engine side. The generator thread is
/// in neither figure, so `Injector::send` and `take_outputs` are left out.
fn budget(workload: &str, outcome: &mut Outcome) {
    let layer = |name: &str| outcome.layers.get(name).map_or(0.0, |l| l.0);
    let handle_pump = layer("core.handle_pump_ns_per_msg");
    let persists_per_msg = layer("store.persists") / outcome.measured_inputs.max(1) as f64;
    let accounted = match workload {
        // Sender hop and merger hop.
        "fanin_open" | "fanin_saturate" => 2.0 * handle_pump,
        "durable_steady" => {
            2.0 * handle_pump + layer("store.persist_us_p50") * 1e3 * persists_per_msg
        }
        // The sender→merger hop also crosses the batch encoder and decoder.
        "tcp_saturate" => {
            2.0 * handle_pump
                + layer("net.encode_batch_ns_per_env")
                + layer("net.read_batch_ns_per_env")
        }
        // One hop, and a full-ledger capture, hash and encode per message.
        _ => {
            handle_pump
                + 1e3
                    * (layer("model.ckptmap_take_chunk_full_us")
                        + layer("model.state_hash_us")
                        + layer("checkpoint.encode_us"))
        }
    };
    let spent = median(&outcome.cpu_ms_per_kmsg) * 1e3; // ms/kmsg = µs/msg → ns/msg
    if spent > 0.0 {
        outcome
            .layers
            .insert("budget.accounted_share", (accounted / spent, 1));
        outcome
            .layers
            .insert("budget.unaccounted_ns_per_msg", (spent - accounted, 1));
    }
}
