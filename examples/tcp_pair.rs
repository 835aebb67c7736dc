//! Two engine "hosts" joined by real TCP sockets.
//!
//! The paper's §III.C experiment ran the senders on one machine and the
//! merger on another. This example builds exactly that split with the
//! `tart_engine::net` building blocks: each host has its own router; remote
//! engines are spliced in over length-prefixed, CRC-protected TCP frames.
//! Run the two halves in one process here; in production each half would be
//! its own process on its own machine, connected by the same three calls.
//!
//! Run with:
//!
//! ```text
//! cargo run --example tcp_pair
//! ```

use std::time::Duration;

use crossbeam::channel::unbounded;
use tart::prelude::*;
use tart::reference::{fan_in_app, SENDER_LOOP_BLOCK};
use tart::tart_engine::net::{remote_engine_with, ReconnectPolicy, TcpInbound};
use tart::tart_engine::{EngineCore, Envelope, Flow, ReplicaStore, Router};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = fan_in_app(2)?;
    let mut placement = Placement::new();
    for c in spec.components() {
        let engine = if c.name() == "Merger" { 1 } else { 0 };
        placement.assign(c.id(), EngineId::new(engine));
    }
    let mut config = ClusterConfig::logical_time();
    for c in spec.components() {
        let est = if c.name().starts_with("Sender") {
            EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, 61_000)
        } else {
            EstimatorSpec::constant(VirtualDuration::from_micros(400))
        };
        config = config.with_estimator(c.id(), est);
    }

    // ---- "Host A": the sender engine. -----------------------------------
    let router_a = Router::new(FaultPlan::none());
    let (a_tx, a_rx) = unbounded();
    router_a.register(EngineId::new(0), a_tx);
    let (outs_a, _drop_a) = unbounded();
    let core_a = EngineCore::new(
        EngineId::new(0),
        &spec,
        &placement,
        &config,
        router_a.clone(),
        ReplicaStore::new(),
        outs_a,
    );

    // ---- "Host B": the merger engine. ------------------------------------
    let router_b = Router::new(FaultPlan::none());
    let (b_tx, b_rx) = unbounded();
    router_b.register(EngineId::new(1), b_tx);
    let (outs_b, collected) = unbounded();
    let core_b = EngineCore::new(
        EngineId::new(1),
        &spec,
        &placement,
        &config,
        router_b.clone(),
        ReplicaStore::new(),
        outs_b,
    );

    // ---- The actual network between them. --------------------------------
    let inbound_b = TcpInbound::listen("127.0.0.1:0", router_b.clone())?;
    let inbound_a = TcpInbound::listen("127.0.0.1:0", router_a.clone())?;
    let port_a = ("127.0.0.1", inbound_a.port());
    let port_b = ("127.0.0.1", inbound_b.port());
    println!("host A listening on {port_a:?}, host B on {port_b:?}");
    // Keep the link handles alive: dropping a RemoteLink stops its writer.
    let policy = ReconnectPolicy::default();
    let link_a_to_b = remote_engine_with(&router_a, EngineId::new(1), port_b, policy.clone())?;
    let link_b_to_a = remote_engine_with(&router_b, EngineId::new(0), port_a, policy)?;

    // ---- Run both engine loops. -------------------------------------------
    let run = |mut core: EngineCore, rx: crossbeam::channel::Receiver<Envelope>| {
        std::thread::spawn(move || {
            let mut draining = false;
            loop {
                match rx.recv_timeout(Duration::from_micros(200)) {
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
    };
    let engine_a = run(core_a, a_rx);
    let engine_b = run(core_b, b_rx);

    // ---- External input arrives at host A. --------------------------------
    let wires: Vec<WireId> = spec.external_inputs().iter().map(|w| w.id()).collect();
    let workload = [
        (0usize, 1_000_000u64, "tcp frames carry ticks"),
        (1, 2_000_000, "across real sockets"),
        (0, 3_000_000, "and determinism survives"),
        (1, 4_000_000, "the journey intact"),
    ];
    let mut prev = [0u64; 2];
    for (client, ts, sentence) in workload {
        router_a.send(
            EngineId::new(0),
            Envelope::Data {
                wire: wires[client],
                vt: VirtualTime::from_ticks(ts),
                prev_vt: VirtualTime::from_ticks(prev[client]),
                payload: Value::from(sentence),
            },
        );
        prev[client] = ts;
    }
    for (client, wire) in wires.iter().enumerate() {
        router_a.send(
            EngineId::new(0),
            Envelope::Eos {
                wire: *wire,
                last_data: VirtualTime::from_ticks(prev[client]),
            },
        );
    }
    router_a.send(EngineId::new(0), Envelope::Drain);
    router_b.send(EngineId::new(1), Envelope::Drain);
    engine_a.join().expect("host A drains");
    engine_b.join().expect("host B drains");

    println!("\nconsumer (host B) received:");
    let mut n = 0;
    while let Ok(out) = collected.try_recv() {
        println!("  {} → {}", out.vt, out.payload);
        n += 1;
    }
    assert_eq!(n, workload.len());
    println!(
        "\nlink A→B health: {:?}\nlink B→A health: {:?}",
        link_a_to_b.snapshot(),
        link_b_to_a.snapshot()
    );
    println!("\nSame virtual times as any other transport — the network is invisible.");
    Ok(())
}
