//! A genuinely distributed run: the Fig 1 application split across two
//! engine processes-worth of state, each with its own router, joined only
//! by real TCP sockets — the §III.C "actual multi-engine implementation"
//! shape, over an actual wire.
//!
//! The outputs must be identical to the single-process deployment of the
//! same workload: placement (and transport!) transparency.

use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use tart_engine::net::{remote_engine_with, ReconnectPolicy, RemoteLink, TcpInbound};
use tart_engine::{
    Cluster, ClusterConfig, EngineCore, Envelope, FaultPlan, Flow, OutputRecord, Placement,
    ReplicaStore, Router,
};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{self, fan_in_app};
use tart_model::{BlockId, Value};
use tart_vtime::{EngineId, VirtualTime, WireId};

fn paper_config(spec: &tart_model::AppSpec) -> ClusterConfig {
    let mut config = ClusterConfig::logical_time();
    for c in spec.components() {
        let est = if c.name().starts_with("Sender") {
            EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000)
        } else {
            EstimatorSpec::per_iteration(BlockId(0), 400_000)
        };
        config = config.with_estimator(c.id(), est);
    }
    config
}

fn two_engine_placement(spec: &tart_model::AppSpec) -> Placement {
    let mut p = Placement::new();
    for c in spec.components() {
        let engine = if c.name() == "Merger" { 1 } else { 0 };
        p.assign(c.id(), EngineId::new(engine));
    }
    p
}

/// Timestamps mirror the in-process reference's logical clock, which steps
/// 1 ms per injected message across both clients.
const WORKLOAD: &[(usize, u64, &str)] = &[
    (0, 1_000_000, "the cat sat"),
    (1, 2_000_000, "on the mat"),
    (0, 3_000_000, "the cat saw the dog"),
    (1, 4_000_000, "the dog ran"),
    (0, 5_000_000, "cats and dogs"),
    (1, 6_000_000, "it rained cats"),
];

/// Runs an engine core on its own thread until drained.
fn spawn_engine(
    mut core: EngineCore,
    inbox: crossbeam::channel::Receiver<Envelope>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut draining = false;
        loop {
            match inbox.recv_timeout(Duration::from_micros(200)) {
                Ok(env) => match core.handle(env) {
                    Flow::Die => return,
                    Flow::Drain => draining = true,
                    Flow::Continue => {}
                },
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => core.on_idle_tick(),
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            }
            core.pump();
            if draining && core.drain_step() {
                return;
            }
        }
    })
}

/// The reference: same workload through the ordinary in-process cluster.
fn single_process_reference() -> Vec<(u64, String)> {
    let spec = fan_in_app(2).expect("valid");
    let cluster = Cluster::deploy(
        spec.clone(),
        two_engine_placement(&spec),
        paper_config(&spec),
    )
    .expect("deploys");
    for (client, _ts, sentence) in WORKLOAD {
        cluster
            .injector(&format!("client{}", client + 1))
            .expect("injector")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    let mut outs: Vec<(u64, String)> = cluster
        .shutdown()
        .into_iter()
        .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
        .collect();
    outs.sort();
    outs
}

/// Routes `engine`'s traffic in `router` to the loopback port `port`,
/// reconnecting under the default policy.
fn link(router: &Router, engine: EngineId, port: u16) -> RemoteLink {
    remote_engine_with(
        router,
        engine,
        ("127.0.0.1", port),
        ReconnectPolicy::default(),
    )
    .expect("link")
}

#[test]
fn fig1_over_real_tcp_matches_in_process_run() {
    let reference = single_process_reference();

    // --- "Host A": sender engine with its own router. -------------------
    let spec = fan_in_app(2).expect("valid");
    let placement = two_engine_placement(&spec);
    let config = paper_config(&spec);

    let router_a = Router::new(FaultPlan::none());
    let (a_tx, a_rx) = unbounded();
    router_a.register(EngineId::new(0), a_tx);
    let (outs_a_tx, _outs_a_rx) = unbounded::<OutputRecord>();
    let core_a = EngineCore::new(
        EngineId::new(0),
        &spec,
        &placement,
        &config,
        router_a.clone(),
        ReplicaStore::new(),
        outs_a_tx,
    );

    // --- "Host B": merger engine with its own router. --------------------
    let router_b = Router::new(FaultPlan::none());
    let (b_tx, b_rx) = unbounded();
    router_b.register(EngineId::new(1), b_tx);
    let (outs_b_tx, outs_b_rx) = unbounded::<OutputRecord>();
    let core_b = EngineCore::new(
        EngineId::new(1),
        &spec,
        &placement,
        &config,
        router_b.clone(),
        ReplicaStore::new(),
        outs_b_tx,
    );

    // --- The wire between the hosts: real TCP, both directions. ----------
    let inbound_b = TcpInbound::listen("127.0.0.1:0", router_b.clone()).expect("bind B");
    let inbound_a = TcpInbound::listen("127.0.0.1:0", router_a.clone()).expect("bind A");
    let _out_a_to_b = link(&router_a, EngineId::new(1), inbound_b.port());
    let _out_b_to_a = link(&router_b, EngineId::new(0), inbound_a.port());

    let engine_a = spawn_engine(core_a, a_rx);
    let engine_b = spawn_engine(core_b, b_rx);

    // --- External clients inject at host A (logged timestamps fixed). ----
    let client_wires: Vec<WireId> = spec.external_inputs().iter().map(|w| w.id()).collect();
    let mut prev = [0u64; 2];
    let mut last = [0u64; 2];
    for (client, ts, sentence) in WORKLOAD {
        router_a.send(
            EngineId::new(0),
            Envelope::Data {
                wire: client_wires[*client],
                vt: VirtualTime::from_ticks(*ts),
                prev_vt: VirtualTime::from_ticks(prev[*client]),
                payload: Value::from(*sentence),
            },
        );
        prev[*client] = *ts;
        last[*client] = *ts;
    }
    for (client, wire) in client_wires.iter().enumerate() {
        router_a.send(
            EngineId::new(0),
            Envelope::Eos {
                wire: *wire,
                last_data: VirtualTime::from_ticks(last[client]),
            },
        );
    }
    router_a.send(EngineId::new(0), Envelope::Drain);
    router_b.send(EngineId::new(1), Envelope::Drain);

    // --- Collect and compare. --------------------------------------------
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut outs = Vec::new();
    while outs.len() < WORKLOAD.len() && Instant::now() < deadline {
        if let Ok(o) = outs_b_rx.recv_timeout(Duration::from_millis(50)) {
            outs.push((o.vt.as_ticks(), o.payload.to_string()));
        }
    }
    engine_a.join().expect("engine A drains");
    engine_b.join().expect("engine B drains");
    outs.sort();

    // The TCP deployment used explicit timestamps; the in-process reference
    // used the logical clock stepping 1 ms per send — the same values by
    // construction. Outputs must match exactly.
    assert_eq!(outs, reference, "TCP transport is behaviourally invisible");
}

#[test]
fn severed_tcp_link_reconnects_and_replay_restores_the_stream() {
    let reference = single_process_reference();

    let spec = fan_in_app(2).expect("valid");
    let placement = two_engine_placement(&spec);
    let config = paper_config(&spec);

    let router_a = Router::new(FaultPlan::none());
    let (a_tx, a_rx) = unbounded();
    router_a.register(EngineId::new(0), a_tx);
    let (outs_a_tx, _outs_a_rx) = unbounded::<OutputRecord>();
    let core_a = EngineCore::new(
        EngineId::new(0),
        &spec,
        &placement,
        &config,
        router_a.clone(),
        ReplicaStore::new(),
        outs_a_tx,
    );

    let router_b = Router::new(FaultPlan::none());
    let (b_tx, b_rx) = unbounded();
    router_b.register(EngineId::new(1), b_tx);
    let (outs_b_tx, outs_b_rx) = unbounded::<OutputRecord>();
    let core_b = EngineCore::new(
        EngineId::new(1),
        &spec,
        &placement,
        &config,
        router_b.clone(),
        ReplicaStore::new(),
        outs_b_tx,
    );

    let inbound_b = TcpInbound::listen("127.0.0.1:0", router_b.clone()).expect("bind B");
    let inbound_a = TcpInbound::listen("127.0.0.1:0", router_a.clone()).expect("bind A");
    let fast = ReconnectPolicy {
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        multiplier: 2.0,
        jitter: 0.5,
        max_attempts: 0,
    };
    let link_a_to_b = remote_engine_with(
        &router_a,
        EngineId::new(1),
        ("127.0.0.1", inbound_b.port()),
        fast,
    )
    .expect("link");
    // The reverse (replay-request) direction stays intact throughout.
    let _link_b_to_a = link(&router_b, EngineId::new(0), inbound_a.port());

    let engine_a = spawn_engine(core_a, a_rx);
    let engine_b = spawn_engine(core_b, b_rx);

    let client_wires: Vec<WireId> = spec.external_inputs().iter().map(|w| w.id()).collect();
    let mut prev = [0u64; 2];
    let mut last = [0u64; 2];
    let mut inject = |(client, ts, sentence): (usize, u64, &str)| {
        router_a.send(
            EngineId::new(0),
            Envelope::Data {
                wire: client_wires[client],
                vt: VirtualTime::from_ticks(ts),
                prev_vt: VirtualTime::from_ticks(prev[client]),
                payload: Value::from(sentence),
            },
        );
        prev[client] = ts;
        last[client] = ts;
    };

    // First third flows over the healthy link.
    for w in &WORKLOAD[..2] {
        inject(*w);
    }
    std::thread::sleep(Duration::from_millis(100));

    // Sever the A→B connection mid-run, inject while it is down (the
    // engine-A outputs toward the merger become in-transit loss), then wait
    // for the writer to notice and self-heal.
    inbound_b.sever_connections();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut nudge = 0u64;
    while link_a_to_b.snapshot().reconnects == 0 && Instant::now() < deadline {
        if nudge < 2 {
            inject(WORKLOAD[2 + nudge as usize]);
            nudge += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for w in &WORKLOAD[2 + nudge as usize..4] {
        inject(*w);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !link_a_to_b.snapshot().connected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let health = link_a_to_b.snapshot();
    assert!(health.connected, "A→B link must self-heal");
    assert!(health.reconnects >= 1, "reconnect must be counted");

    // Remainder (and end-of-stream) over the healed link. The merger's gap
    // detection sees the missing prev_vt chain and requests replay from
    // engine A's retention buffer.
    for w in &WORKLOAD[4..] {
        inject(*w);
    }
    for (client, wire) in client_wires.iter().enumerate() {
        router_a.send(
            EngineId::new(0),
            Envelope::Eos {
                wire: *wire,
                last_data: VirtualTime::from_ticks(last[client]),
            },
        );
    }

    // Collect the merger's outputs BEFORE draining engine A: recovering the
    // frames dropped during the outage needs A alive to answer the
    // merger's probe/replay traffic. Draining A first would be a race —
    // if A exits before the merger notices its gaps, the replay request
    // goes unanswered and the merger can never finish accounting. Replay
    // may stutter, so count *unique* outputs.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut outs = std::collections::BTreeSet::new();
    while outs.len() < WORKLOAD.len() && Instant::now() < deadline {
        if let Ok(o) = outs_b_rx.recv_timeout(Duration::from_millis(50)) {
            outs.insert((o.vt.as_ticks(), o.payload.to_string()));
        }
    }
    let outs: Vec<(u64, String)> = outs.into_iter().collect();

    // Assert before joining so a recovery failure reports a diff instead
    // of wedging the test on a drain that can never complete.
    assert_eq!(
        outs, reference,
        "a severed-and-healed TCP link must be invisible in the output stream"
    );

    router_a.send(EngineId::new(0), Envelope::Drain);
    router_b.send(EngineId::new(1), Envelope::Drain);
    engine_a.join().expect("engine A drains");
    engine_b.join().expect("engine B drains");
}
