//! Property tests of the recovery protocol, driven thread-free through the
//! public [`EngineCore`] stepping API.
//!
//! These are the paper's correctness claims as machine-checked properties:
//!
//! * delivery and output are independent of envelope interleaving
//!   (determinism, §II.D);
//! * checkpoint + replay from *any* prefix reproduces the original outputs
//!   exactly (§II.F);
//! * arbitrary duplication of data envelopes is absorbed (§II.F.4);
//! * a wire-addressed envelope naming a wire this engine does not send or
//!   receive on — the external output included — is dropped, never a panic;
//! * a curiosity probe the sender cannot cover yet is held and answered
//!   when its silence bound moves, one merge layer deep or two.

use crossbeam::channel::{unbounded, Receiver};
use proptest::prelude::*;
use std::sync::Arc;
use tart_engine::{
    CheckpointStore, ClusterConfig, EngineCore, Envelope, FaultPlan, Flow, OutputRecord, Placement,
    ReplicaStore, Router,
};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{self, fan_in_app, ConstantService, IN_PORT, OUT_PORT};
use tart_model::{AppSpec, BlockId, Component, Value};
use tart_vtime::{EngineId, VirtualTime, WireId};

fn vt(t: u64) -> VirtualTime {
    VirtualTime::from_ticks(t)
}

/// The Fig 1 estimators under logical time.
fn fig1_config(spec: &AppSpec, checkpoint_every: u64) -> ClusterConfig {
    let mut config = ClusterConfig::logical_time().with_checkpoint_every(checkpoint_every);
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

/// Builds a single-engine Fig 1 core plus its output drain.
fn build_core(checkpoint_every: u64) -> (EngineCore, Receiver<OutputRecord>, ReplicaStore) {
    let spec = fan_in_app(2).expect("valid");
    let placement = Placement::single_engine(&spec);
    let config = fig1_config(&spec, checkpoint_every);
    let replica = ReplicaStore::new();
    let (tx, rx) = unbounded();
    let core = EngineCore::new(
        EngineId::new(0),
        &spec,
        &placement,
        &config,
        Router::new(FaultPlan::none()),
        replica.clone(),
        tx,
    );
    (core, rx, replica)
}

/// One external message: (client index 0/1, timestamp, sentence).
type ExtMsg = (usize, u64, String);

/// Generates per-client monotone message streams.
fn arb_workload() -> impl Strategy<Value = Vec<ExtMsg>> {
    let word = prop_oneof![
        Just("cat"),
        Just("dog"),
        Just("the"),
        Just("ran"),
        Just("sat")
    ];
    let sentence = proptest::collection::vec(word, 1..6).prop_map(|w| w.join(" "));
    proptest::collection::vec((0usize..2, 1u64..1_000, sentence), 1..14).prop_map(|raw| {
        // Make timestamps strictly increasing per client.
        let mut clocks = [0u64; 2];
        raw.into_iter()
            .map(|(c, gap, s)| {
                clocks[c] += gap;
                (c, clocks[c], s)
            })
            .collect()
    })
}

/// Client wires of the Fig 1 single-engine deployment.
fn client_wires() -> [WireId; 2] {
    let spec = fan_in_app(2).expect("valid");
    let ins = spec.external_inputs();
    [ins[0].id(), ins[1].id()]
}

/// The Fig 1 deployment's one external output wire (Merger → consumer).
fn output_wire() -> WireId {
    fan_in_app(2).expect("valid").external_outputs()[0].id()
}

/// Attaches a checkpoint store in a fresh temp directory, which gives the
/// external output wire a retention buffer. Returns the directory.
fn make_durable(core: &mut EngineCore, tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tart-proto-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    core.set_durable(Arc::new(CheckpointStore::open(&dir).expect("open store")));
    dir
}

fn data_env(wire: WireId, ts: u64, prev: u64, sentence: &str) -> Envelope {
    Envelope::Data {
        wire,
        vt: vt(ts),
        prev_vt: vt(prev),
        payload: Value::from(sentence),
    }
}

/// Feeds a workload in a deterministic interleaving chosen by `seed`,
/// closing both wires with Eos; returns the output stream.
fn run_interleaved(workload: &[ExtMsg], seed: u64, checkpoint_every: u64) -> Vec<(u64, String)> {
    let (mut core, outputs, _replica) = build_core(checkpoint_every);
    let wires = client_wires();
    // Per-client envelope queues, preserving per-wire order.
    let mut queues: [Vec<Envelope>; 2] = [Vec::new(), Vec::new()];
    let mut prev = [0u64; 2];
    let mut last = [0u64; 2];
    for (client, ts, sentence) in workload {
        queues[*client].push(data_env(wires[*client], *ts, prev[*client], sentence));
        prev[*client] = *ts;
        last[*client] = *ts;
    }
    for (client, wire) in wires.iter().enumerate() {
        queues[client].push(Envelope::Eos {
            wire: *wire,
            last_data: vt(last[client]),
        });
    }
    // xorshift interleaver.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut cursors = [0usize; 2];
    loop {
        let live: Vec<usize> = (0..2).filter(|&c| cursors[c] < queues[c].len()).collect();
        if live.is_empty() {
            break;
        }
        let pick = live[(next() % live.len() as u64) as usize];
        core.handle(queues[pick][cursors[pick]].clone());
        cursors[pick] += 1;
        core.pump();
    }
    core.pump();
    drop(core);
    outputs
        .try_iter()
        .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Determinism: any arrival interleaving yields the identical output
    /// stream — order, virtual times and payloads.
    #[test]
    fn outputs_independent_of_interleaving(
        workload in arb_workload(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let a = run_interleaved(&workload, seed_a, 1_000);
        let b = run_interleaved(&workload, seed_b, 1_000);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), workload.len(), "one output per sentence");
    }

    /// Recovery: restoring from the replica at any checkpoint cadence and
    /// replaying the log reproduces the original outputs (modulo stutter,
    /// which dedups by timestamp).
    #[test]
    fn replay_from_checkpoint_reproduces_outputs(
        workload in arb_workload(),
        checkpoint_every in 1u64..6,
        seed in any::<u64>(),
    ) {
        // Original run, capturing the replica.
        let (mut core, outputs, replica) = build_core(checkpoint_every);
        let wires = client_wires();
        let mut prev = [0u64; 2];
        let mut last = [0u64; 2];
        let mut log: Vec<(usize, u64, u64, String)> = Vec::new();
        for (client, ts, sentence) in &workload {
            core.handle(data_env(wires[*client], *ts, prev[*client], sentence));
            core.pump();
            log.push((*client, *ts, prev[*client], sentence.clone()));
            prev[*client] = *ts;
            last[*client] = *ts;
        }
        for (client, wire) in wires.iter().enumerate() {
            core.handle(Envelope::Eos { wire: *wire, last_data: vt(last[client]) });
        }
        core.pump();
        drop(core);
        let original: Vec<(u64, String)> = outputs
            .try_iter()
            .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
            .collect();

        // Crash after the full run; promote from the replica chain and
        // replay the external log.
        let (mut restored, outputs_b, _replica_b) = build_core(checkpoint_every);
        let chain = replica.chain();
        restored
            .restore(&chain, &replica.faults())
            .expect("restore verifies against recorded hashes");
        // The "cluster" serves each wire's replay request: everything in
        // the log from one past the checkpointed consumed watermark, with
        // the frame count of exactly that range (as the supervisor does).
        let consumed_floor = |wire: WireId| {
            chain
                .last()
                .and_then(|c| c.consumed.get(&wire))
                .map(|vt| vt.as_ticks())
                .unwrap_or(0)
        };
        let mut per_wire: [Vec<Envelope>; 2] = [Vec::new(), Vec::new()];
        for (client, ts, prev_ts, sentence) in &log {
            if *ts > consumed_floor(wires[*client]) {
                per_wire[*client].push(data_env(wires[*client], *ts, *prev_ts, sentence));
            }
        }
        for (client, wire) in wires.iter().enumerate() {
            let frames = per_wire[client].len() as u64;
            per_wire[client].push(Envelope::ReplayDone {
                wire: *wire,
                through: VirtualTime::MAX,
                frames,
            });
        }
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cursors = [0usize; 2];
        loop {
            let live: Vec<usize> = (0..2).filter(|&c| cursors[c] < per_wire[c].len()).collect();
            if live.is_empty() {
                break;
            }
            let pick = live[(next() % live.len() as u64) as usize];
            restored.handle(per_wire[pick][cursors[pick]].clone());
            cursors[pick] += 1;
            restored.pump();
        }
        restored.pump();
        drop(restored);
        let replayed: Vec<(u64, String)> = outputs_b
            .try_iter()
            .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
            .collect();

        // The replayed outputs must be a suffix of the original: everything
        // past the last checkpoint, byte-identical.
        prop_assert!(
            replayed.len() <= original.len(),
            "no phantom outputs: {} > {}",
            replayed.len(),
            original.len()
        );
        prop_assert_eq!(
            &original[original.len() - replayed.len()..],
            &replayed[..],
            "re-execution reproduces the post-checkpoint outputs exactly"
        );
    }

    /// Every wire-addressed envelope kind × every wire id — client inputs,
    /// internal wires, the external output, unknown ids — is handled or
    /// dropped, with and without durability (which changes what the output
    /// wire's record holds). Both envelopes arrive from the network.
    #[test]
    fn wire_addressed_envelopes_never_panic(
        a in 0u64..2_000_000,
        b in 0u64..2_000_000,
        frames in 0u64..3,
        durable in any::<bool>(),
        warm in any::<bool>(),
    ) {
        let (mut core, _outputs, _replica) = build_core(2);
        let dir = durable.then(|| make_durable(&mut core, "never-panic"));
        if warm {
            for (client, wire) in client_wires().into_iter().enumerate() {
                core.handle(data_env(wire, 1_000 + client as u64, 0, "cat sat"));
            }
            core.pump();
        }
        let wires = fan_in_app(2).expect("valid").wires().len() as u32;
        for id in 0..=wires + 1 {
            let wire = WireId::new(id);
            let envelopes = [
                Envelope::Data { wire, vt: vt(a), prev_vt: vt(b), payload: Value::from("dog") },
                Envelope::Silence { wire, through: vt(a), last_data: vt(b) },
                Envelope::Eos { wire, last_data: vt(b) },
                Envelope::Probe { wire, needed_through: vt(a) },
                Envelope::ReplayRequest { wire, from: vt(b) },
                Envelope::ReplayDone { wire, through: vt(a), frames },
                Envelope::TrimAck { wire, through: vt(a) },
            ];
            for env in envelopes {
                prop_assert_eq!(core.handle(env), Flow::Continue);
                core.pump();
            }
        }
        drop(core);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Duplicate absorption: doubling every data envelope changes nothing.
    #[test]
    fn duplicated_data_is_absorbed(workload in arb_workload()) {
        let wires = client_wires();
        let run = |dup: bool| {
            let (mut core, outputs, _replica) = build_core(1_000);
            let mut prev = [0u64; 2];
            let mut last = [0u64; 2];
            for (client, ts, sentence) in &workload {
                let env = data_env(wires[*client], *ts, prev[*client], sentence);
                core.handle(env.clone());
                if dup {
                    core.handle(env);
                }
                core.pump();
                prev[*client] = *ts;
                last[*client] = *ts;
            }
            for (client, wire) in wires.iter().enumerate() {
                core.handle(Envelope::Eos { wire: *wire, last_data: vt(last[client]) });
            }
            core.pump();
            drop(core);
            outputs
                .try_iter()
                .map(|o| (o.vt.as_ticks(), o.payload.to_string()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(false), run(true));
    }
}

#[test]
fn silence_only_workload_produces_no_output() {
    let (mut core, outputs, _replica) = build_core(10);
    for wire in client_wires() {
        core.handle(Envelope::Silence {
            wire,
            through: vt(1_000_000),
            last_data: VirtualTime::ZERO,
        });
    }
    core.pump();
    drop(core);
    assert_eq!(outputs.try_iter().count(), 0);
}

/// A probe can arrive from the network naming any wire; the external output
/// has no silence to speak, so the probe is dropped like an unknown wire's.
#[test]
fn probe_naming_the_external_output_is_dropped() {
    let (mut core, _outputs, _replica) = build_core(10);
    let probe = Envelope::Probe {
        wire: output_wire(),
        needed_through: vt(5_000_000),
    };
    assert_eq!(core.handle(probe), Flow::Continue);
}

/// Under durability the external output retains (for re-emission after a
/// cold restart), but it still has no upstream to replay to.
#[test]
fn replay_request_naming_the_durable_external_output_is_dropped() {
    let (mut core, _outputs, _replica) = build_core(10);
    let dir = make_durable(&mut core, "replay-output");
    let request = Envelope::ReplayRequest {
        wire: output_wire(),
        from: VirtualTime::ZERO,
    };
    assert_eq!(core.handle(request), Flow::Continue);
    assert_eq!(core.metrics().replays_served, 0);
    let _ = std::fs::remove_dir_all(dir);
}

/// Hands `core` everything queued in its inbox, then pumps.
fn step(core: &mut EngineCore, inbox: &Receiver<Envelope>) {
    for env in inbox.try_iter() {
        core.handle(env);
    }
    core.pump();
}

/// The `(wire, through)` of every `Silence` in `inbox`, draining it.
fn silences(inbox: &Receiver<Envelope>) -> Vec<(WireId, VirtualTime)> {
    inbox
        .try_iter()
        .filter_map(|env| match env {
            Envelope::Silence { wire, through, .. } => Some((wire, through)),
            _ => None,
        })
        .collect()
}

/// A Router whose inboxes for `engines` are fresh channels, returned in
/// the same order.
fn router_with_inboxes<const N: usize>(engines: [u32; N]) -> (Router, [Receiver<Envelope>; N]) {
    let router = Router::new(FaultPlan::none());
    let inboxes = engines.map(|e| {
        let (tx, rx) = unbounded();
        router.register(EngineId::new(e), tx);
        rx
    });
    (router, inboxes)
}

/// The merger waits on Sender2's wire through Sender1's newest output; the
/// sender engine cannot cover that until client 2 speaks. Answering each
/// probe with the unchanged watermark (the old rule) only drew the same
/// probe straight back: the sender holds it instead, answers once when the
/// bound covers the need, and answers a covered re-probe at once — the
/// retry after a lost reply.
#[test]
fn an_uncoverable_probe_is_held_until_the_bound_covers_it() {
    let spec = fan_in_app(2).expect("valid");
    let mut placement = Placement::new();
    for c in spec.components() {
        placement.assign(c.id(), EngineId::new(u32::from(c.name() == "Merger")));
    }
    let (router, [merger_inbox]) = router_with_inboxes([1]);
    let mut senders = EngineCore::new(
        EngineId::new(0),
        &spec,
        &placement,
        &fig1_config(&spec, 1_000),
        router,
        ReplicaStore::new(),
        unbounded().0,
    );
    let [client1, client2] = client_wires();
    let sender2 = spec.component_by_name("Sender2").expect("Sender2").id();
    let sender2_wire = spec.output_wires_of(sender2)[0].id();
    // Both clients speak once, so both sender wires carry data.
    senders.handle(data_env(client1, 1_000, 0, "cat sat"));
    senders.handle(data_env(client2, 2_000, 0, "dog"));
    senders.pump();
    // Client 1 speaks again; the merger now needs Sender2's wire accounted
    // through Sender1's new output.
    let _ = merger_inbox.try_iter().count();
    senders.handle(data_env(client1, 900_000, 1_000, "the cat ran"));
    senders.pump();
    let need = merger_inbox
        .try_iter()
        .find_map(|env| match env {
            Envelope::Data { vt, .. } => Some(vt),
            _ => None,
        })
        .expect("Sender1 forwarded its count");
    let probe = Envelope::Probe {
        wire: sender2_wire,
        needed_through: need,
    };
    for attempt in 1..=2 {
        senders.handle(probe.clone());
        senders.pump();
        assert_eq!(silences(&merger_inbox), [], "probe {attempt} is held");
    }

    // Client 2's heartbeat moves Sender2's bound past the need: the held
    // probe is answered from the pump, once, with no new probe.
    senders.handle(Envelope::Silence {
        wire: client2,
        through: need,
        last_data: vt(2_000),
    });
    senders.pump();
    let answer = silences(&merger_inbox);
    assert_eq!(answer.len(), 1, "one answer: {answer:?}");
    let (wire, through) = answer[0];
    assert_eq!(wire, sender2_wire);
    assert!(through >= need, "{through:?} covers {need:?}");

    // Loss backstop: that answer is lost and the merger probes again. The
    // bound covers the need, so the unchanged watermark goes out at once.
    senders.handle(probe);
    assert_eq!(silences(&merger_inbox), [(sender2_wire, through)]);

    // Nothing is held any more: a later heartbeat volunteers nothing.
    senders.handle(Envelope::Silence {
        wire: client2,
        through: vt(need.as_ticks() + 1_000_000),
        last_data: vt(2_000),
    });
    senders.pump();
    assert_eq!(silences(&merger_inbox), []);
}

/// The depth-2 merge tree of `ablation_tree`, placed as there — leaves on
/// engine 0, mid merges on engine 1 — except that the root sits on engine
/// 2, whose inbox is captured, so its probe reaches the mid layer over the
/// router. Mid1 cannot cover the root's probe: it holds it and cascades to
/// the leaves, which hold theirs in turn. Once the clients' silence reaches
/// the leaves, each layer pushes its answer from its pump, and the root
/// hears silence through its need without probing a second time.
#[test]
fn a_held_probe_cascades_and_each_layer_answers_when_its_bound_moves() {
    let service = || Arc::new(|| Box::new(ConstantService::new()) as Box<dyn Component>);
    let mut b = AppSpec::builder();
    let mut placement = Placement::new();
    let root = b.component("Root", service());
    placement.assign(root, EngineId::new(2));
    let mids = ["Mid1", "Mid2"].map(|name| b.component(name, service()));
    let mut clients = Vec::new();
    let mut mid1_inputs = Vec::new();
    for i in 0..4 {
        let leaf = b.component(&format!("Leaf{}", i + 1), service());
        placement.assign(leaf, EngineId::new(0));
        clients.push(b.wire_in(&format!("client{}", i + 1), leaf, IN_PORT));
        let up = b.wire(leaf, OUT_PORT, mids[i / 2], IN_PORT);
        if i < 2 {
            mid1_inputs.push(up);
        }
    }
    let downstream = mids.map(|mid| {
        placement.assign(mid, EngineId::new(1));
        b.wire(mid, OUT_PORT, root, IN_PORT)
    });
    b.wire_out(root, OUT_PORT, "consumer");
    let spec = b.build().expect("valid merge tree");
    let config = ClusterConfig::logical_time();
    let (router, [leaf_inbox, mid_inbox, root_inbox]) = router_with_inboxes([0, 1, 2]);
    let [mut leaves, mut merges] = [0, 1].map(|e| {
        EngineCore::new(
            EngineId::new(e),
            &spec,
            &placement,
            &config,
            router.clone(),
            ReplicaStore::new(),
            unbounded().0,
        )
    });
    let need = vt(500_000);
    let covering = |inbox: &Receiver<Envelope>, wire: WireId| {
        silences(inbox)
            .into_iter()
            .filter(|&(w, through)| w == wire && through >= need)
            .count()
    };

    // The root's one probe: Mid1 holds it and cascades to both its leaves.
    merges.handle(Envelope::Probe {
        wire: downstream[0],
        needed_through: need,
    });
    merges.pump();
    assert_eq!(covering(&root_inbox, downstream[0]), 0);
    let cascaded: Vec<Envelope> = leaf_inbox.try_iter().collect();
    let probed: Vec<WireId> = cascaded
        .iter()
        .filter_map(|env| match env {
            Envelope::Probe { wire, .. } => Some(*wire),
            _ => None,
        })
        .collect();
    assert_eq!(probed, mid1_inputs, "Mid1 probes both of its leaves");
    for env in cascaded {
        leaves.handle(env);
    }
    leaves.pump();
    step(&mut merges, &mid_inbox);
    assert_eq!(
        covering(&root_inbox, downstream[0]),
        0,
        "nothing covers yet"
    );

    // The clients' silence reaches the leaves; the leaves answer Mid1 from
    // their pump, and Mid1 answers the root from its own.
    for client in &clients[..2] {
        leaves.handle(Envelope::Silence {
            wire: *client,
            through: need,
            last_data: VirtualTime::ZERO,
        });
    }
    leaves.pump();
    step(&mut merges, &mid_inbox);
    assert_eq!(covering(&root_inbox, downstream[0]), 1, "Mid1 answers once");
    assert_eq!(
        merges.metrics().probes_sent,
        2,
        "no probe beyond the cascade"
    );
}
