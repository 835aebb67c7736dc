//! Per-layer figures read off a finished run: obs counters and histograms,
//! engine metrics, the newest on-disk checkpoint, and the generator's spans.

use std::path::Path;

use tart_engine::{CheckpointStore, Cluster, Histogram, ObsSnapshot};

use crate::drive::Driver;
use crate::measure::{median, supported_percentile};
use crate::outcome::{Layers, Outcome};

/// Quantile `p` of a power-of-two histogram, interpolated linearly inside
/// the bucket it falls in (bucket `i ≥ 1` spans `[2^(i-1), 2^i)`).
pub fn hist_quantile(h: &Histogram, p: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let rank = (h.count() as f64 * p).max(1.0);
    let mut below = 0u64;
    for (bucket, n) in h.nonzero_buckets() {
        if (below + n) as f64 >= rank {
            if bucket == 0 {
                return 0.0;
            }
            let lo = (1u64 << (bucket - 1)) as f64;
            let hi = (lo * 2.0).min(h.max() as f64 + 1.0).max(lo);
            return lo + (hi - lo) * (rank - below as f64) / n as f64;
        }
        below += n;
    }
    h.max() as f64
}

/// Counters and histograms of the cluster's obs hub, per input where a
/// ratio says more than a count.
pub fn from_obs(snap: &ObsSnapshot, inputs: u64, layers: &mut Layers) {
    let per_msg = |n: u64| n as f64 / inputs.max(1) as f64;
    let us = |ns: f64| ns / 1e3;
    layers.insert(
        "silence.probes_per_msg",
        (per_msg(snap.probes), snap.probes),
    );
    layers.insert(
        "silence.adverts_per_msg",
        (per_msg(snap.silence_adverts), snap.silence_adverts),
    );
    let wait = &snap.pessimism_wait_ns;
    layers.insert(
        "silence.pessimism_wait_p50_us",
        (us(hist_quantile(wait, 0.5)), wait.count()),
    );
    layers.insert(
        "silence.pessimism_wait_p99_us",
        (us(hist_quantile(wait, 0.99)), wait.count()),
    );
    layers.insert(
        "wal.syncs_per_kmsg",
        (per_msg(snap.wal_syncs) * 1e3, snap.wal_syncs),
    );
    let fsync = &snap.wal_fsync_buffered_ns;
    layers.insert(
        "wal.fsync_buffered_p50_us",
        (us(hist_quantile(fsync, 0.5)), fsync.count()),
    );
    let persist = &snap.checkpoint_persist_ns;
    layers.insert(
        "store.persist_us_p50",
        (us(hist_quantile(persist, 0.5)), persist.count()),
    );
    layers.insert(
        "store.persist_us_p99",
        (us(hist_quantile(persist, 0.99)), persist.count()),
    );
    layers.insert(
        "store.persists",
        (snap.checkpoint_persists as f64, snap.checkpoint_persists),
    );
    layers.insert(
        "standby.applied",
        (snap.standby_applied as f64, snap.standby_applied),
    );
    let lag = &snap.standby_lag_ticks;
    layers.insert(
        "standby.lag_ticks_p50",
        (hist_quantile(lag, 0.5), lag.count()),
    );
    layers.insert(
        "core.delivered_per_input",
        (per_msg(snap.delivered), snap.delivered),
    );
    layers.insert(
        "obs.events_dropped",
        (snap.events_dropped as f64, snap.events_dropped),
    );
}

/// The counters recovery moves, read once at the end of each cluster
/// incarnation and summed (a cold restart starts a fresh obs hub).
pub fn recovery_counters(snap: &ObsSnapshot, layers: &mut Layers) {
    for (name, n) in [
        ("standby.warm_promotions", snap.warm_promotions),
        ("standby.cold_promotions", snap.cold_promotions),
        ("standby.demotions", snap.standby_demotions),
        ("core.replay_requests", snap.replay_requests),
        ("core.divergences", snap.divergences_detected),
    ] {
        let total = layers.entry(name).or_insert((0.0, 0));
        total.0 += n as f64;
        total.1 += n;
    }
}

/// [`from_obs`] of a live cluster, and what taking the snapshot cost.
pub fn from_cluster(cluster: &Cluster, inputs: u64, layers: &mut Layers) {
    let started = std::time::Instant::now();
    let snap = cluster.obs_snapshot();
    layers.insert(
        "obs.snapshot_us",
        (started.elapsed().as_secs_f64() * 1e6, 1),
    );
    from_obs(&snap, inputs, layers);
}

/// Size of what the engines last handed the store: the newest generation of
/// every engine under `dir`, summed.
pub fn from_checkpoint_dir(dir: &Path, layers: &mut Layers) {
    let Ok(store) = CheckpointStore::open(dir) else {
        return;
    };
    let (mut bytes, mut retained, mut engines) = (0usize, 0usize, 0u64);
    for engine in store.engines() {
        if let Ok(Some(loaded)) = store.load_chain(engine) {
            if let Some(last) = loaded.chain.last() {
                bytes += last.payload_bytes();
                retained += last.retention.values().map(Vec::len).sum::<usize>();
                engines += 1;
            }
        }
    }
    layers.insert("checkpoint.payload_bytes_last", (bytes as f64, engines));
    layers.insert(
        "checkpoint.retention_entries_last",
        (retained as f64, engines),
    );
}

/// The generator's own diagnostics, what tracing cost, and the spans around
/// the generator's calls.
pub fn from_driver(driver: &Driver, outcome: &mut Outcome) {
    let mut lag = std::mem::take(&mut outcome.all_inject_lag_ns);
    lag.sort_by(f64::total_cmp);
    let n = lag.len() as u64;
    if lag.last().is_some_and(|worst| *worst > 10e6) {
        // Reported, not failed: on a two-core box one lost timeslice is enough.
        eprintln!("warning: the generator ran more than 10 ms late; this run's open-loop latencies include its stalls");
    }
    outcome.layer(
        "generator.inject_lag_max_ms",
        lag.last().copied().unwrap_or(0.0) / 1e6,
        n,
    );
    outcome.layer(
        "generator.inject_lag_p99_us",
        supported_percentile(&lag, 0.99) / 1e3,
        n,
    );
    let mut latency = std::mem::take(&mut outcome.all_latency_us);
    latency.sort_by(f64::total_cmp);
    let n = latency.len() as u64;
    outcome.layer(
        "generator.latency_p99_us",
        supported_percentile(&latency, 0.99),
        n,
    );
    outcome.layer(
        "generator.latency_p999_us",
        supported_percentile(&latency, 0.999),
        n,
    );

    let rates_where = |traced: bool| -> Vec<f64> {
        outcome
            .rates
            .iter()
            .zip(&outcome.rate_traced)
            .filter(|(_, t)| **t == traced)
            .map(|(r, _)| *r)
            .collect()
    };
    let (on, off) = (rates_where(true), rates_where(false));
    if !on.is_empty() && !off.is_empty() {
        let (on, off) = (median(&on), median(&off));
        outcome.layer(
            "generator.trace_overhead_pct",
            (off - on) / off * 100.0,
            outcome.rates.len() as u64,
        );
    }
    if driver.polled_outputs > 0 {
        outcome.layer(
            "cluster.take_outputs_ns_per_msg",
            driver.poll_ns as f64 / driver.polled_outputs as f64,
            driver.polled_outputs,
        );
    }
    for (span, metric, scale) in [
        ("cluster.send", "cluster.send_ns_p50", 1.0),
        ("cluster.deploy", "cluster.deploy_ms", 1e-6),
        ("cluster.kill", "cluster.kill_ms", 1e-6),
        ("cluster.promote_cold", "cluster.promote_ms_cold", 1e-6),
        ("cluster.promote_warm", "cluster.promote_ms_warm", 1e-6),
        ("cluster.crash", "cluster.crash_ms", 1e-6),
        (
            "cluster.recover_from_disk",
            "cluster.recover_from_disk_ms",
            1e-6,
        ),
        ("cluster.shutdown", "cluster.shutdown_ms", 1e-6),
        ("op.ingest", "cluster.round_ingest_ms", 1e-6),
    ] {
        let durations = driver.tracer.durations_ns(span);
        if !durations.is_empty() {
            outcome.layer(metric, median(&durations) * scale, durations.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_inside_a_power_of_two_bucket() {
        let mut h = Histogram::new();
        assert_eq!(hist_quantile(&h, 0.5), 0.0);
        for v in 1_024..2_048u64 {
            h.record(v);
        }
        let p50 = hist_quantile(&h, 0.5);
        assert!((1_500.0..1_560.0).contains(&p50), "{p50}");
        // A far outlier moves the maximum, not the median.
        h.record(1 << 30);
        let p50 = hist_quantile(&h, 0.5);
        assert!((1_500.0..1_560.0).contains(&p50), "{p50}");
        assert!(hist_quantile(&h, 1.0) >= (1u64 << 29) as f64);
    }
}
