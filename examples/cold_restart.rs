//! Cold restart: survive the loss of the *whole* cluster.
//!
//! Replica promotion (see the `failover` example) handles one engine dying
//! while its peers keep running. This example exercises the harsher drill:
//! every process is gone at once — power cut, `kill -9`, kernel panic — and
//! the only survivors are the on-disk write-ahead log and checkpoint store.
//! Relaunching from that directory must reproduce, after dropping stuttered
//! duplicates by timestamp, exactly the failure-free output.
//!
//! Three modes, built for a CI drill that SIGKILLs the process mid-run:
//!
//! ```text
//! cargo run --example cold_restart -- clean          # failure-free reference
//! cargo run --example cold_restart -- crash <dir>    # run with durability; expects to be killed
//! cargo run --example cold_restart -- recover <dir>  # relaunch from <dir>, finish the workload
//! ```
//!
//! Each mode prints one `consumer\twire\tvt\tpayload` line per output; the
//! union of the `crash` and `recover` lines, deduplicated, must equal the
//! `clean` lines (`sort -u crash recover | diff - <(sort -u clean)`).

use std::io::Write;
use std::time::Duration;

use tart::prelude::*;
use tart::reference::{self, SENDER_LOOP_BLOCK};
use tart::{Cluster, DurabilityPolicy};

const SENTENCES: &[(&str, &str)] = &[
    ("client1", "alpha beta gamma"),
    ("client2", "beta gamma delta"),
    ("client1", "gamma delta epsilon"),
    ("client2", "delta epsilon alpha"),
    ("client1", "epsilon alpha beta"),
    ("client2", "alpha beta gamma delta"),
    ("client1", "beta delta"),
    ("client2", "gamma epsilon alpha beta"),
    ("client1", "delta alpha"),
    ("client2", "epsilon beta gamma"),
];

fn config(spec: &AppSpec) -> ClusterConfig {
    let mut config = ClusterConfig::logical_time().with_checkpoint_every(2);
    for c in spec.components() {
        let est = if c.name().starts_with("Sender") {
            EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, 61_000)
        } else {
            EstimatorSpec::per_iteration(BlockId(0), 400_000)
        };
        config = config.with_estimator(c.id(), est);
    }
    config
}

fn placement(spec: &AppSpec) -> Placement {
    let mut p = Placement::new();
    for c in spec.components() {
        let engine = if c.name() == "Merger" { 1 } else { 0 };
        p.assign(c.id(), EngineId::new(engine));
    }
    p
}

/// Prints outputs in a line format stable across runs, flushing each line
/// so a SIGKILL loses at most the line being written.
fn print_outputs(outputs: Vec<OutputRecord>) {
    let mut stdout = std::io::stdout().lock();
    for o in Cluster::dedup_outputs(outputs) {
        writeln!(
            stdout,
            "{}\t{}\t{}\t{}",
            o.consumer,
            o.wire,
            o.vt.as_ticks(),
            o.payload
        )
        .expect("stdout");
        stdout.flush().expect("stdout");
    }
}

/// Failure-free reference run: no durability, no crash.
fn clean() {
    let spec = reference::fan_in_app(2).expect("valid topology");
    let cluster = Cluster::deploy(spec.clone(), placement(&spec), config(&spec)).expect("deploys");
    for (client, sentence) in SENTENCES {
        cluster
            .injector(client)
            .expect("client exists")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    print_outputs(cluster.shutdown());
}

/// Runs the workload with the durability layer on, pacing the sends and
/// streaming outputs as they surface. Never exits on its own: the harness
/// is expected to SIGKILL this process at an arbitrary moment.
fn crash(dir: &str) {
    let spec = reference::fan_in_app(2).expect("valid topology");
    let config = config(&spec).with_durability(dir, DurabilityPolicy::Strict);
    let cluster = Cluster::deploy(spec.clone(), placement(&spec), config).expect("deploys");
    for (i, (client, sentence)) in SENTENCES.iter().enumerate() {
        cluster
            .injector(client)
            .expect("client exists")
            .send(Value::from(*sentence));
        std::thread::sleep(Duration::from_millis(120));
        if i % 2 == 1 {
            for engine in cluster.engine_ids() {
                cluster.checkpoint_now(engine);
            }
        }
        print_outputs(cluster.take_outputs());
    }
    // Keep streaming until the lights go out.
    loop {
        std::thread::sleep(Duration::from_millis(50));
        print_outputs(cluster.take_outputs());
    }
}

/// Relaunches from the durable directory, re-sends everything the WAL
/// never made durable, and finishes the workload.
fn recover(dir: &str) {
    let spec = reference::fan_in_app(2).expect("valid topology");
    let config = config(&spec).with_durability(dir, DurabilityPolicy::Strict);
    let (cluster, report) = Cluster::recover_from_disk(spec.clone(), placement(&spec), config)
        .expect("recovers from disk");
    eprintln!(
        "recovered: {} durable sends, {} bytes torn, {} engines restored",
        report.wal_records,
        report.wal_truncated_bytes,
        report.engines.len()
    );
    // Anything past the durable record count was never acknowledged; a real
    // producer re-sends it, and the restored logical clock reproduces the
    // original timestamps so duplicates collapse by vt downstream.
    for (client, sentence) in &SENTENCES[report.wal_records.min(SENTENCES.len())..] {
        cluster
            .injector(client)
            .expect("client exists")
            .send(Value::from(*sentence));
    }
    cluster.finish_inputs();
    // Snapshot only after shutdown() has drained the engines: the counters
    // are live, and a report taken mid-drain undercounts deliveries.
    let obs = std::sync::Arc::clone(cluster.obs());
    print_outputs(cluster.shutdown());
    match tart::write_report(&obs.snapshot()) {
        Ok(path) => eprintln!("obs report written to {}", path.display()),
        Err(e) => eprintln!("obs report not written: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("clean") => clean(),
        Some("crash") => crash(args.get(2).expect("usage: crash <dir>")),
        Some("recover") => recover(args.get(2).expect("usage: recover <dir>")),
        _ => {
            eprintln!("usage: cold_restart clean | crash <dir> | recover <dir>");
            std::process::exit(2);
        }
    }
}
