//! The names and units the benchmark prints. `BENCHMARK.json` at the repo
//! root lists the same tables; a test keeps the two from drifting apart.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

pub const WORKLOADS: &[&str] = &[
    "fanin_open",
    "fanin_saturate",
    "tcp_saturate",
    "durable_steady",
    "failover_cold",
    "failover_warm",
];

/// Printed by every workload of the untraced run.
pub const END_TO_END: &[Metric] = &[
    m("throughput_msgs_per_s", "msgs/s"),
    m("latency_p50_us", "us"),
    m("latency_p90_us", "us"),
    m("recovery_ms_p50", "ms"),
    m("cpu_ms_per_kmsg", "ms/kmsg"),
    m("rss_kb_per_kmsg", "kB/kmsg"),
    m("setup_s", "s"),
];

/// Printed by every workload of the traced run; a layer the workload does
/// not touch reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("codec.envelope_encode_ns", "ns"),
    m("codec.envelope_decode_ns", "ns"),
    m("net.encode_batch_ns_per_env", "ns"),
    m("net.read_batch_ns_per_env", "ns"),
    m("net.envelopes_per_batch", "count"),
    m("net.batches_sent", "count"),
    m("net.dropped_frames", "count"),
    m("router.send_ns", "ns"),
    m("sched.gate_push_pop_ns", "ns"),
    m("sched.mux_poll_ns", "ns"),
    m("sched.gate_blocked_share", "ratio"),
    m("silence.probes_per_msg", "1/msg"),
    m("silence.adverts_per_msg", "1/msg"),
    m("silence.pessimism_wait_p50_us", "us"),
    m("silence.pessimism_wait_p99_us", "us"),
    m("estimator.eval_ns", "ns"),
    m("log.append_ns_inmemory", "ns"),
    m("log.append_ns_buffered", "ns"),
    m("log.replay_from_us_per_kmsg", "us/kmsg"),
    m("wal.append_lane_ns_buffered", "ns"),
    m("wal.append_lane_us_strict", "us"),
    m("wal.syncs_per_kmsg", "1/kmsg"),
    m("wal.fsync_buffered_p50_us", "us"),
    m("wal.recover_ms_per_100k", "ms"),
    m("store.persist_us_p50", "us"),
    m("store.persist_us_p99", "us"),
    m("store.persists", "count"),
    m("store.persist_us_gen16", "us"),
    m("store.persist_us_gen2048", "us"),
    m("store.load_chain_ms", "ms"),
    m("checkpoint.payload_bytes_last", "bytes"),
    m("checkpoint.retention_entries_last", "count"),
    m("checkpoint.encode_us", "us"),
    m("checkpoint.verify_chain_ms", "ms"),
    m("model.ckptmap_take_chunk_full_us", "us"),
    m("model.ckptmap_take_chunk_delta_us", "us"),
    m("model.apply_chunk_full_us", "us"),
    m("model.state_hash_us", "us"),
    m("standby.applied", "count"),
    m("standby.lag_ticks_p50", "ticks"),
    m("standby.warm_promotions", "count"),
    m("standby.cold_promotions", "count"),
    m("standby.demotions", "count"),
    m("core.handle_pump_ns_per_msg", "ns"),
    m("core.delivered_per_input", "1/msg"),
    m("core.replay_requests", "count"),
    m("core.divergences", "count"),
    m("cluster.send_ns_p50", "ns"),
    m("cluster.take_outputs_ns_per_msg", "ns"),
    m("cluster.deploy_ms", "ms"),
    m("cluster.kill_ms", "ms"),
    m("cluster.promote_ms_cold", "ms"),
    m("cluster.promote_ms_warm", "ms"),
    m("cluster.crash_ms", "ms"),
    m("cluster.recover_from_disk_ms", "ms"),
    m("cluster.shutdown_ms", "ms"),
    m("cluster.round_ingest_ms", "ms"),
    m("cluster.rate_last_over_first_decile", "ratio"),
    m("obs.events_dropped", "count"),
    m("obs.snapshot_us", "us"),
    m("generator.inject_lag_max_ms", "ms"),
    m("generator.inject_lag_p99_us", "us"),
    m("generator.latency_p99_us", "us"),
    m("generator.latency_p999_us", "us"),
    m("generator.trace_overhead_pct", "%"),
    m("budget.accounted_share", "ratio"),
    m("budget.unaccounted_ns_per_msg", "ns"),
    m("process.peak_rss_mb", "MB"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "...", "unit": "..."` pairs of one array of
    /// `BENCHMARK.json`, in order. The file is flat enough that splitting on
    /// the keys is a sufficient parser.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let at = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[at..];
        let body = &body[..body.find(']').expect("section is an array")];
        let field = |entry: &str, key: &str| {
            let rest = &entry[entry.find(&format!("\"{key}\""))? + key.len() + 2..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_owned())
        };
        body.split('{')
            .skip(1)
            .map(|e| {
                (
                    field(e, "name").expect("name"),
                    field(e, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    fn table(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
