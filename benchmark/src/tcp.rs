//! `tcp_saturate`: the fan-in application split over two routers joined by
//! real loopback sockets, assembled by hand like `examples/tcp_pair.rs`.
//!
//! Every sender→merger message and every probe or silence reply crosses the
//! reactor, the batch framing and the codec, while `MessageLog`, `Injector`
//! and the `Cluster` collector are not involved at all.

use std::rc::Rc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use tart_engine::net::{remote_engine_with, ReconnectPolicy, RemoteLink, TcpInbound};
use tart_engine::{
    EngineCore, Envelope, FaultPlan, Flow, ObsHub, OutputRecord, ReplicaStore, Router,
};
use tart_model::reference::fan_in_app;
use tart_model::Value;
use tart_vtime::{EngineId, VirtualTime, WireId};

use crate::check::{FanInReference, Out};
use crate::drive::{Driver, Sut};
use crate::fanin::{base_config, placement, AFTER_RECOVERY, CLIENTS, WINDOW};
use crate::gen::sentence_pool;
use crate::layers;
use crate::measure::PeakRss;
use crate::outcome::{
    book_measured_phase, book_memory, close_run, time_set_ups, verify_epoch, CpuMeter, Outcome,
    RunCtx, DRAIN_LIMIT, JOIN_LIMIT, RECOVERY_LIMIT,
};
use crate::trace::SpanId;

/// The logical clock of the hand-made injector: 1 ms per event, as
/// `ClusterConfig::logical_time()` steps.
const TICK: u64 = 1_000_000;
/// Deployments per run and messages of each one's closed loop (see
/// `fanin::Plan::epochs`).
const EPOCHS: u64 = 9;
const MESSAGES: u64 = 80_000;
const BURST_AFTER_SEVER: u64 = 4;
/// Live traffic during an outage: one message this often.
const TRICKLE: Duration = Duration::from_micros(500);
const ENGINE_A: EngineId = EngineId::new(0);
const ENGINE_B: EngineId = EngineId::new(1);

/// Reconnect quickly and without jitter, so a recovery measures the
/// transport and the replay rather than a random back-off.
const RECONNECT: ReconnectPolicy = ReconnectPolicy {
    initial_backoff: Duration::from_millis(5),
    max_backoff: Duration::from_millis(50),
    multiplier: 2.0,
    jitter: 0.0,
    max_attempts: 0,
};

/// Runs one engine core until it drains or dies — the loop of
/// `examples/tcp_pair.rs`.
fn spawn_engine(mut core: EngineCore, inbox: Receiver<Envelope>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut draining = false;
        loop {
            match inbox.recv_timeout(Duration::from_micros(200)) {
                Ok(env) => match core.handle(env) {
                    Flow::Die => return,
                    Flow::Drain => draining = true,
                    Flow::Continue => {}
                },
                Err(RecvTimeoutError::Timeout) => core.on_idle_tick(),
                Err(RecvTimeoutError::Disconnected) => return,
            }
            core.pump();
            if draining && core.drain_step() {
                return;
            }
        }
    })
}

struct TcpSut {
    router_a: Router,
    router_b: Router,
    // Held for their lifetime: dropping a listener or a link closes it.
    inbound_b: TcpInbound,
    _inbound_a: TcpInbound,
    link_a_to_b: RemoteLink,
    link_b_to_a: RemoteLink,
    engines: Vec<JoinHandle<()>>,
    outputs: Receiver<OutputRecord>,
    obs: Arc<ObsHub>,
    wires: Vec<WireId>,
    clock: u64,
    last_data: [u64; CLIENTS],
}

impl TcpSut {
    fn deploy() -> TcpSut {
        let spec = fan_in_app(CLIENTS).expect("fan-in topology is valid");
        let placement = placement(&spec);
        let config = base_config(&spec).with_checkpoint_every(64);
        let (outs_tx, outputs) = unbounded();
        let obs = Arc::new(ObsHub::new());
        // One "host": its own router, one engine core on its own thread.
        let host = |id: EngineId| {
            let router = Router::new(FaultPlan::none());
            let (tx, rx) = unbounded();
            router.register(id, tx);
            let mut core = EngineCore::new(
                id,
                &spec,
                &placement,
                &config,
                router.clone(),
                ReplicaStore::new(),
                outs_tx.clone(),
            );
            core.set_obs(obs.engine(id));
            (router, spawn_engine(core, rx))
        };
        let (router_a, engine_a) = host(ENGINE_A);
        let (router_b, engine_b) = host(ENGINE_B);
        let engines = vec![engine_a, engine_b];
        let inbound_b = TcpInbound::listen("127.0.0.1:0", router_b.clone()).expect("bind B");
        let inbound_a = TcpInbound::listen("127.0.0.1:0", router_a.clone()).expect("bind A");
        let link_a_to_b = remote_engine_with(
            &router_a,
            ENGINE_B,
            ("127.0.0.1", inbound_b.port()),
            RECONNECT,
        )
        .expect("link A→B");
        let link_b_to_a = remote_engine_with(
            &router_b,
            ENGINE_A,
            ("127.0.0.1", inbound_a.port()),
            RECONNECT,
        )
        .expect("link B→A");
        TcpSut {
            router_a,
            router_b,
            inbound_b,
            _inbound_a: inbound_a,
            link_a_to_b,
            link_b_to_a,
            engines,
            outputs,
            obs,
            wires: spec.external_inputs().iter().map(|w| w.id()).collect(),
            clock: 0,
            last_data: [0; CLIENTS],
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += TICK;
        self.clock
    }

    /// End of stream, drain, join. The caller has collected every output
    /// first: recovering a frame lost in flight needs engine A alive to
    /// answer the merger, so A must not drain while outputs are missing.
    fn shut_down(self) -> bool {
        for (client, wire) in self.wires.iter().enumerate() {
            self.router_a.send(
                ENGINE_A,
                Envelope::Eos {
                    wire: *wire,
                    last_data: VirtualTime::from_ticks(self.last_data[client]),
                },
            );
        }
        self.router_a.send(ENGINE_A, Envelope::Drain);
        self.router_b.send(ENGINE_B, Envelope::Drain);
        let deadline = Instant::now() + JOIN_LIMIT;
        while !self.engines.iter().all(JoinHandle::is_finished) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.engines.into_iter().all(|t| t.join().is_ok())
    }
}

impl Sut for TcpSut {
    fn send(&mut self, client: usize, payload: Value) {
        let vt = self.tick();
        self.router_a.send(
            ENGINE_A,
            Envelope::Data {
                wire: self.wires[client],
                vt: VirtualTime::from_ticks(vt),
                prev_vt: VirtualTime::from_ticks(self.last_data[client]),
                payload,
            },
        );
        self.last_data[client] = vt;
    }

    fn poll(&mut self, sink: &mut Vec<Out>) {
        sink.extend(self.outputs.try_iter().map(|o| Out::of(&o)));
    }

    fn idle(&mut self) {
        for client in 0..CLIENTS {
            let through = self.tick() - 1;
            self.router_a.send(
                ENGINE_A,
                Envelope::Silence {
                    wire: self.wires[client],
                    through: VirtualTime::from_ticks(through),
                    last_data: VirtualTime::from_ticks(self.last_data[client]),
                },
            );
        }
    }
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let mut outcome = Outcome::default();
    let mut driver = Driver::new();
    time_set_ups(
        &mut outcome,
        || (sentence_pool(ctx.seed), TcpSut::deploy()),
        |(_, sut)| {
            sut.shut_down();
        },
    );
    let pool = Rc::new(sentence_pool(ctx.seed));
    let memory = PeakRss::start();
    for epoch in 0..EPOCHS {
        driver.tracer.set_on(ctx.traces(epoch));
        memory.take_kb();
        let mut sut = driver
            .tracer
            .span("cluster.deploy", epoch, SpanId::NONE, TcpSut::deploy);
        driver.begin_epoch(Rc::clone(&pool));

        let cpu = CpuMeter::start();
        driver.begin_sampling();
        let until = Instant::now() + Duration::from_secs_f64(ctx.epoch_seconds(EPOCHS));
        let rate = driver.closed_loop(&mut sut, CLIENTS, WINDOW, MESSAGES, until, DRAIN_LIMIT);
        driver.end_sampling();
        book_measured_phase(&mut outcome, &driver, rate, &cpu);
        if ctx.trace {
            layers::from_obs(&sut.obs.snapshot(), driver.sent(), &mut outcome.layers);
            if let Some(ratio) = driver.last_over_first_decile() {
                outcome.layer("cluster.rate_last_over_first_decile", ratio, 1);
            }
        }

        // Recovery: the receiver drops the A→B connection; frames in flight
        // are lost, the link reconnects, the merger sees the gap in the
        // prev_vt chain and asks engine A's retention buffer to replay.
        outcome.attempted += 1;
        let before = driver.completed;
        let op = driver.tracer.begin("op.recovery", epoch, SpanId::NONE);
        let severed = Instant::now();
        sut.inbound_b.sever_connections();
        for _ in 0..BURST_AFTER_SEVER {
            driver.send_next(&mut sut, CLIENTS);
        }
        let trickle = Some((CLIENTS, TRICKLE));
        let fresh = driver.await_recovery(&mut sut, (op, epoch), before, RECOVERY_LIMIT, trickle);
        if fresh {
            outcome
                .recovery_ms
                .push(severed.elapsed().as_secs_f64() * 1e3);
            if !driver.send_and_drain(&mut sut, CLIENTS, WINDOW, AFTER_RECOVERY, DRAIN_LIMIT) {
                outcome.complain(
                    0,
                    format!("epoch {epoch}: post-recovery traffic did not drain"),
                );
            }
        } else {
            outcome.complain(1, format!("epoch {epoch}: recovery missed its deadline"));
        }

        book_memory(&mut outcome, &driver, &memory);
        layers::recovery_counters(&sut.obs.snapshot(), &mut outcome.layers);
        if ctx.trace {
            let (ab, ba) = (sut.link_a_to_b.snapshot(), sut.link_b_to_a.snapshot());
            let batches = ab.batches_sent + ba.batches_sent;
            let envelopes = ab.envelopes_batched + ba.envelopes_batched;
            let dropped = ab.dropped_frames + ba.dropped_frames;
            outcome.layer("net.batches_sent", batches as f64, batches);
            outcome.layer(
                "net.envelopes_per_batch",
                envelopes as f64 / batches.max(1) as f64,
                batches,
            );
            outcome.layer("net.dropped_frames", dropped as f64, dropped);
        }
        let outputs = sut.outputs.clone();
        let shutdown = driver.tracer.begin("cluster.shutdown", epoch, SpanId::NONE);
        if !sut.shut_down() {
            outcome.complain(1, "engines did not drain");
        }
        driver.tracer.end(shutdown);
        driver.outs.extend(outputs.try_iter().map(|o| Out::of(&o)));
        verify_epoch(&mut outcome, &mut driver, &mut FanInReference::new(CLIENTS));
    }
    close_run(&mut outcome, &driver, ctx);
    outcome
}
