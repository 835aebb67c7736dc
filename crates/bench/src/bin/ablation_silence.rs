//! Ablation — silence propagation strategies (§II.G.3).
//!
//! Compares lazy, curiosity, aggressive and hyper-aggressive (bias)
//! propagation in the §III.A simulation, reporting latency, probe traffic
//! and explicit silence volume. The paper measures lazy vs curiosity
//! (Fig 5) and describes aggressive/hyper-aggressive qualitatively; this
//! ablation quantifies all four under identical load.

use tart_bench::{print_table, quick_mode};
use tart_silence::SilencePolicy;
use tart_sim::{ExecMode, FanInSim, SimConfig};
use tart_vtime::VirtualDuration;

fn main() {
    let quick = quick_mode();
    let messages = if quick { 3_000 } else { 30_000 };
    println!("Silence-policy ablation: {messages} messages per sender");

    let mut base = SimConfig::paper_iii_a();
    base.messages_per_sender = messages;

    let nondet = {
        let mut cfg = base.clone();
        cfg.mode = ExecMode::NonDeterministic;
        FanInSim::new(cfg).run()
    };

    let policies = [
        ("lazy", SilencePolicy::Lazy),
        ("curiosity", SilencePolicy::Curiosity),
        (
            "aggressive (200µs)",
            SilencePolicy::Aggressive {
                max_quiet: VirtualDuration::from_micros(200),
            },
        ),
        (
            "hyper-aggressive (bias 100µs)",
            SilencePolicy::HyperAggressive {
                bias: VirtualDuration::from_micros(100),
            },
        ),
    ];

    let mut rows = Vec::new();
    let mut by_name = std::collections::HashMap::new();
    for (name, policy) in policies {
        let mut cfg = base.clone();
        cfg.silence = policy;
        let report = FanInSim::new(cfg).run();
        by_name.insert(name, report.avg_latency_micros());
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", report.avg_latency_micros()),
            format!("{:+.1}%", report.overhead_percent_vs(&nondet)),
            report.probes.to_string(),
            report.silence_advances.to_string(),
            format!(
                "{:.1}",
                report.pessimism_delay_ns as f64 / 1_000.0 / report.completed.max(1) as f64
            ),
        ]);
    }
    rows.insert(
        0,
        vec![
            "non-deterministic".into(),
            format!("{:.1}", nondet.avg_latency_micros()),
            "—".into(),
            "0".into(),
            "0".into(),
            "0.0".into(),
        ],
    );
    print_table(
        "Silence propagation ablation (§II.G.3)",
        &[
            "policy",
            "latency µs",
            "ovh vs non-det",
            "probes",
            "silence msgs",
            "pessimism µs/msg",
        ],
        &rows,
    );

    assert!(
        by_name["lazy"] > by_name["curiosity"],
        "lazy must cost more than curiosity"
    );
    println!("\nShape check PASSED: lazy > curiosity in latency, as in Fig 5.");
}
