//! `ObsSnapshot`: the exported obs report, canonical in two forms.
//!
//! A snapshot is a point-in-time copy of everything the hub has measured.
//! It serializes two ways, both canonical:
//!
//! * **binary** via `tart-codec` ([`tart_codec::Encode`]/[`Decode`]) — the
//!   same varint/sorted-map discipline as checkpoints, so a snapshot can be
//!   embedded in durable artifacts and byte-compared;
//! * **JSON** via [`ObsSnapshot::to_json`] — the `obs-report.json` format
//!   emitted by the chaos soak, the cold-restart drill and the throughput
//!   bench, validated in CI by `tart-obs --check-report`.
//!
//! Field order is fixed (declaration order) in both encodings; re-encoding
//! a decoded snapshot reproduces the input byte-for-byte (see the proptest
//! in `tests/roundtrip.rs`).

use std::collections::BTreeMap;

use bytes::BytesMut;
use tart_codec::{Decode, DecodeError, Encode, Reader};

use crate::hist::{bucket_upper_bound, Histogram};
use crate::json::{self, Json, JsonWriter};
use crate::recorder::ObsEvent;

/// Current report schema version.
///
/// v2 added the verified-replay counters (`state_hashes_computed`,
/// `divergences_detected`); v3 added the warm-standby counters
/// (`standby_applied`, `standby_demotions`, `warm_promotions`,
/// `cold_promotions`) and histograms (`standby_lag_ticks`,
/// `promotion_latency_ns`); v4 added the per-tier WAL fsync-latency
/// histograms (`wal_fsync_strict_ns`, `wal_fsync_buffered_ns`); v5 added
/// the engine checkpoint counters (`checkpoints`, `checkpoint_bytes`), and
/// every engine-recorded counter became a sum over per-engine shards.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Point-in-time export of every obs metric plus the flight-recorder
/// timeline. See the module docs for the serialization contract.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ObsSnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Messages that left the pessimistic gate and ran their handler.
    pub delivered: u64,
    /// Silence adverts transmitted (probe answers + broadcasts).
    pub silence_adverts: u64,
    /// Curiosity probes sent.
    pub probes: u64,
    /// Replay requests sent after gap detection.
    pub replay_requests: u64,
    /// Replica promotions (supervisor- or operator-driven).
    pub failovers: u64,
    /// Determinism faults: estimator recalibrations scheduled.
    pub recalibrations: u64,
    /// WAL fsync windows closed (group commits).
    pub wal_syncs: u64,
    /// Soft checkpoints engines took and shipped to their replicas.
    pub checkpoints: u64,
    /// Encoded bytes of those checkpoints.
    pub checkpoint_bytes: u64,
    /// Checkpoints persisted to the durable store.
    pub checkpoint_persists: u64,
    /// Deterministic state hashes computed by verified replay (per-component
    /// digests plus combined engine digests).
    pub state_hashes_computed: u64,
    /// State divergences detected: recomputed hashes that did not match the
    /// digest recorded at checkpoint time. Zero in any clean run.
    pub divergences_detected: u64,
    /// Checkpoints the warm standby pre-applied (and hash-verified) in the
    /// background.
    pub standby_applied: u64,
    /// Warm standbys demoted to cold-replay mode after a streamed
    /// checkpoint failed hash verification.
    pub standby_demotions: u64,
    /// Promotions that started from the standby's pre-applied state.
    pub warm_promotions: u64,
    /// Promotions that replayed the full chain (no usable standby).
    pub cold_promotions: u64,
    /// Flight-recorder events evicted to stay within the ring cap.
    pub events_dropped: u64,
    /// Wall time a message sat released-but-blocked on silence, ns.
    pub pessimism_wait_ns: Histogram,
    /// |estimated − measured| handler cost, ns (estimate in vt ticks ≡ ns).
    pub estimator_residual_ns: Histogram,
    /// Records per WAL group-commit window at fsync time.
    pub wal_group_occupancy: Histogram,
    /// Wall-clock latency of WAL fsyncs forced by Strict-tier appends, ns.
    pub wal_fsync_strict_ns: Histogram,
    /// Wall-clock latency of every other WAL fsync (flush-window deadlines,
    /// record caps, rotations, explicit syncs), ns.
    pub wal_fsync_buffered_ns: Histogram,
    /// Wall-clock latency of `CheckpointStore::persist_with`, ns.
    pub checkpoint_persist_ns: Histogram,
    /// Standby replication lag at each background apply: how far the
    /// applied checkpoint trailed the primary's head, in vt ticks.
    pub standby_lag_ticks: Histogram,
    /// Wall-clock promotion latency (kill acknowledged → restored engine
    /// running), ns; warm and cold promotions both record here.
    pub promotion_latency_ns: Histogram,
    /// Silence adverts per raw wire id.
    pub silence_per_wire: BTreeMap<u32, u64>,
    /// Flight-recorder timeline, oldest first.
    pub events: Vec<ObsEvent>,
}

impl Encode for ObsSnapshot {
    fn encode(&self, buf: &mut BytesMut) {
        self.version.encode(buf);
        self.delivered.encode(buf);
        self.silence_adverts.encode(buf);
        self.probes.encode(buf);
        self.replay_requests.encode(buf);
        self.failovers.encode(buf);
        self.recalibrations.encode(buf);
        self.wal_syncs.encode(buf);
        self.checkpoints.encode(buf);
        self.checkpoint_bytes.encode(buf);
        self.checkpoint_persists.encode(buf);
        self.state_hashes_computed.encode(buf);
        self.divergences_detected.encode(buf);
        self.standby_applied.encode(buf);
        self.standby_demotions.encode(buf);
        self.warm_promotions.encode(buf);
        self.cold_promotions.encode(buf);
        self.events_dropped.encode(buf);
        self.pessimism_wait_ns.encode(buf);
        self.estimator_residual_ns.encode(buf);
        self.wal_group_occupancy.encode(buf);
        self.wal_fsync_strict_ns.encode(buf);
        self.wal_fsync_buffered_ns.encode(buf);
        self.checkpoint_persist_ns.encode(buf);
        self.standby_lag_ticks.encode(buf);
        self.promotion_latency_ns.encode(buf);
        self.silence_per_wire.encode(buf);
        self.events.encode(buf);
    }
}

impl Decode for ObsSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ObsSnapshot {
            version: u32::decode(r)?,
            delivered: u64::decode(r)?,
            silence_adverts: u64::decode(r)?,
            probes: u64::decode(r)?,
            replay_requests: u64::decode(r)?,
            failovers: u64::decode(r)?,
            recalibrations: u64::decode(r)?,
            wal_syncs: u64::decode(r)?,
            checkpoints: u64::decode(r)?,
            checkpoint_bytes: u64::decode(r)?,
            checkpoint_persists: u64::decode(r)?,
            state_hashes_computed: u64::decode(r)?,
            divergences_detected: u64::decode(r)?,
            standby_applied: u64::decode(r)?,
            standby_demotions: u64::decode(r)?,
            warm_promotions: u64::decode(r)?,
            cold_promotions: u64::decode(r)?,
            events_dropped: u64::decode(r)?,
            pessimism_wait_ns: Histogram::decode(r)?,
            estimator_residual_ns: Histogram::decode(r)?,
            wal_group_occupancy: Histogram::decode(r)?,
            wal_fsync_strict_ns: Histogram::decode(r)?,
            wal_fsync_buffered_ns: Histogram::decode(r)?,
            checkpoint_persist_ns: Histogram::decode(r)?,
            standby_lag_ticks: Histogram::decode(r)?,
            promotion_latency_ns: Histogram::decode(r)?,
            silence_per_wire: BTreeMap::decode(r)?,
            events: Vec::decode(r)?,
        })
    }
}

fn write_hist(w: &mut JsonWriter, key: &str, h: &Histogram) {
    w.key(key);
    w.begin_obj();
    w.field_u64("count", h.count());
    w.field_u64("sum", h.sum());
    w.field_u64("max", h.max());
    w.key("buckets");
    w.begin_arr();
    for (i, n) in h.nonzero_buckets() {
        w.arr_item(|w| {
            w.begin_obj();
            w.field_u64("le", bucket_upper_bound(i));
            w.field_u64("n", n);
            w.end_obj();
        });
    }
    w.end_arr();
    w.end_obj();
}

impl ObsSnapshot {
    /// Renders the canonical `obs-report.json` document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_u64("version", u64::from(self.version));
        w.field_u64("delivered", self.delivered);
        w.field_u64("silence_adverts", self.silence_adverts);
        w.field_u64("probes", self.probes);
        w.field_u64("replay_requests", self.replay_requests);
        w.field_u64("failovers", self.failovers);
        w.field_u64("recalibrations", self.recalibrations);
        w.field_u64("wal_syncs", self.wal_syncs);
        w.field_u64("checkpoints", self.checkpoints);
        w.field_u64("checkpoint_bytes", self.checkpoint_bytes);
        w.field_u64("checkpoint_persists", self.checkpoint_persists);
        w.field_u64("state_hashes_computed", self.state_hashes_computed);
        w.field_u64("divergences_detected", self.divergences_detected);
        w.field_u64("standby_applied", self.standby_applied);
        w.field_u64("standby_demotions", self.standby_demotions);
        w.field_u64("warm_promotions", self.warm_promotions);
        w.field_u64("cold_promotions", self.cold_promotions);
        w.field_u64("events_dropped", self.events_dropped);
        write_hist(&mut w, "pessimism_wait_ns", &self.pessimism_wait_ns);
        write_hist(&mut w, "estimator_residual_ns", &self.estimator_residual_ns);
        write_hist(&mut w, "wal_group_occupancy", &self.wal_group_occupancy);
        write_hist(&mut w, "wal_fsync_strict_ns", &self.wal_fsync_strict_ns);
        write_hist(&mut w, "wal_fsync_buffered_ns", &self.wal_fsync_buffered_ns);
        write_hist(&mut w, "checkpoint_persist_ns", &self.checkpoint_persist_ns);
        write_hist(&mut w, "standby_lag_ticks", &self.standby_lag_ticks);
        write_hist(&mut w, "promotion_latency_ns", &self.promotion_latency_ns);
        w.key("silence_per_wire");
        w.begin_obj();
        for (wire, n) in &self.silence_per_wire {
            w.field_u64(&wire.to_string(), *n);
        }
        w.end_obj();
        w.key("events");
        w.begin_arr();
        for e in &self.events {
            w.arr_item(|w| e.write_json(w));
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

/// Extra requirements `check_report` can enforce beyond the base schema.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReportRequirements {
    /// Require evidence of ≥ 1 promotion: a nonzero `failovers` counter or
    /// a `failover_promotion` event in the timeline. (The counter is
    /// authoritative — the bounded event ring may have evicted the event
    /// under heavy probe/silence traffic.)
    pub failover_event: bool,
    /// Require a nonzero pessimism-wait histogram.
    pub pessimism_samples: bool,
    /// Require at least one per-wire silence total.
    pub silence_totals: bool,
    /// Require `divergences_detected` to be exactly zero: verified replay
    /// recomputed state hashes and every one matched its recorded digest.
    /// Clean soaks and gates set this; corruption drills must NOT.
    pub zero_divergence: bool,
}

/// Top-level keys every report must carry.
const REQUIRED_KEYS: &[&str] = &[
    "version",
    "delivered",
    "silence_adverts",
    "probes",
    "replay_requests",
    "failovers",
    "recalibrations",
    "wal_syncs",
    "checkpoints",
    "checkpoint_bytes",
    "checkpoint_persists",
    "state_hashes_computed",
    "divergences_detected",
    "standby_applied",
    "standby_demotions",
    "warm_promotions",
    "cold_promotions",
    "events_dropped",
    "pessimism_wait_ns",
    "estimator_residual_ns",
    "wal_group_occupancy",
    "wal_fsync_strict_ns",
    "wal_fsync_buffered_ns",
    "checkpoint_persist_ns",
    "standby_lag_ticks",
    "promotion_latency_ns",
    "silence_per_wire",
    "events",
];

const HIST_KEYS: &[&str] = &["count", "sum", "max", "buckets"];

/// Validates an `obs-report.json` document: schema keys, a nonzero
/// delivered count, and any extra [`ReportRequirements`].
///
/// # Errors
///
/// Returns every violation found, one message per line's worth.
pub fn check_report(text: &str, req: ReportRequirements) -> Result<(), Vec<String>> {
    let doc = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };
    let mut problems = Vec::new();
    if doc.as_obj().is_none() {
        return Err(vec!["top level is not an object".into()]);
    }
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            problems.push(format!("missing required key '{key}'"));
        }
    }
    for key in [
        "pessimism_wait_ns",
        "estimator_residual_ns",
        "wal_group_occupancy",
        "wal_fsync_strict_ns",
        "wal_fsync_buffered_ns",
        "checkpoint_persist_ns",
        "standby_lag_ticks",
        "promotion_latency_ns",
    ] {
        if let Some(hist) = doc.get(key) {
            for sub in HIST_KEYS {
                if hist.get(sub).is_none() {
                    problems.push(format!("histogram '{key}' missing '{sub}'"));
                }
            }
        }
    }
    match doc.get("version").and_then(Json::as_u64) {
        Some(v) if v == u64::from(SNAPSHOT_VERSION) => {}
        Some(v) => problems.push(format!(
            "unsupported report version {v} (expected {SNAPSHOT_VERSION})"
        )),
        None => {}
    }
    if doc.get("delivered").and_then(Json::as_u64) == Some(0) {
        problems.push("zero delivered messages: the run measured nothing".into());
    }
    if req.failover_event {
        let counted = doc.get("failovers").and_then(Json::as_u64).unwrap_or(0) > 0;
        let in_timeline = doc
            .get("events")
            .and_then(Json::as_arr)
            .is_some_and(|events| {
                events
                    .iter()
                    .any(|e| e.get("kind").and_then(Json::as_str) == Some("failover_promotion"))
            });
        if !counted && !in_timeline {
            problems.push("no failover promotion recorded (counter or timeline)".into());
        }
    }
    if req.pessimism_samples
        && doc
            .get("pessimism_wait_ns")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            == 0
    {
        problems.push("pessimism_wait_ns histogram is empty".into());
    }
    if req.silence_totals
        && doc
            .get("silence_per_wire")
            .and_then(Json::as_obj)
            .is_none_or(<[(String, Json)]>::is_empty)
    {
        problems.push("silence_per_wire has no totals".into());
    }
    if req.zero_divergence {
        match doc.get("divergences_detected").and_then(Json::as_u64) {
            Some(0) => {}
            Some(n) => problems.push(format!(
                "{n} state divergence(s) detected: replay did not reconverge"
            )),
            None => problems.push("divergences_detected is missing or not a number".into()),
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::ObsEventKind;

    fn sample() -> ObsSnapshot {
        let mut snap = ObsSnapshot {
            version: SNAPSHOT_VERSION,
            delivered: 10,
            silence_adverts: 4,
            probes: 2,
            replay_requests: 1,
            failovers: 1,
            recalibrations: 0,
            wal_syncs: 3,
            checkpoints: 7,
            checkpoint_bytes: 2_048,
            checkpoint_persists: 5,
            state_hashes_computed: 20,
            divergences_detected: 0,
            standby_applied: 6,
            standby_demotions: 0,
            warm_promotions: 1,
            cold_promotions: 1,
            events_dropped: 0,
            ..ObsSnapshot::default()
        };
        snap.pessimism_wait_ns.record(1_500);
        snap.estimator_residual_ns.record(0);
        snap.wal_group_occupancy.record(64);
        snap.wal_fsync_strict_ns.record(900_000);
        snap.wal_fsync_buffered_ns.record(400_000);
        snap.checkpoint_persist_ns.record(80_000);
        snap.standby_lag_ticks.record(120_000_000);
        snap.promotion_latency_ns.record(2_000_000);
        snap.silence_per_wire.insert(0, 3);
        snap.silence_per_wire.insert(4, 1);
        snap.events.push(ObsEvent {
            at_ns: 10,
            engine: 1,
            kind: ObsEventKind::FailoverPromotion,
        });
        snap
    }

    #[test]
    fn codec_round_trip_is_byte_identical() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = ObsSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.to_json(), snap.to_json());
    }

    #[test]
    fn valid_report_passes_all_requirements() {
        let json = sample().to_json();
        let req = ReportRequirements {
            failover_event: true,
            pessimism_samples: true,
            silence_totals: true,
            zero_divergence: true,
        };
        assert_eq!(check_report(&json, req), Ok(()));
    }

    #[test]
    fn missing_keys_and_zero_delivered_fail() {
        let errs = check_report("{}", ReportRequirements::default()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing required key")));

        let mut snap = sample();
        snap.delivered = 0;
        let errs = check_report(&snap.to_json(), ReportRequirements::default()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("zero delivered")));
    }

    #[test]
    fn chaos_requirements_catch_thin_reports() {
        let mut snap = sample();
        snap.events.clear();
        snap.failovers = 0;
        snap.pessimism_wait_ns = Histogram::new();
        snap.silence_per_wire.clear();
        let req = ReportRequirements {
            failover_event: true,
            pessimism_samples: true,
            silence_totals: true,
            zero_divergence: false,
        };
        let errs = check_report(&snap.to_json(), req).unwrap_err();
        assert_eq!(errs.len(), 3, "{errs:?}");
    }

    #[test]
    fn zero_divergence_requirement_rejects_divergent_runs() {
        let mut snap = sample();
        let req = ReportRequirements {
            zero_divergence: true,
            ..ReportRequirements::default()
        };
        assert_eq!(check_report(&snap.to_json(), req), Ok(()));
        snap.divergences_detected = 2;
        let errs = check_report(&snap.to_json(), req).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("2 state divergence")),
            "{errs:?}"
        );
        // A report predating the counters cannot satisfy the requirement.
        let errs = check_report("{\"delivered\": 1}", req).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("divergences_detected is missing")),
            "{errs:?}"
        );
    }

    #[test]
    fn failover_counter_satisfies_requirement_when_event_was_evicted() {
        // A long soak's probe and silence traffic can push the promotion
        // event out of the bounded ring; the counter must still count.
        let mut snap = sample();
        snap.events.clear();
        snap.events_dropped = 30_000;
        let req = ReportRequirements {
            failover_event: true,
            ..ReportRequirements::default()
        };
        assert_eq!(check_report(&snap.to_json(), req), Ok(()));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(check_report("not json", ReportRequirements::default()).is_err());
        assert!(check_report("[1,2]", ReportRequirements::default()).is_err());
    }
}
