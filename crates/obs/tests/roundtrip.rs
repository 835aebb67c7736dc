//! Property tests: `ObsSnapshot` is canonical in both encodings.
//!
//! The obs report is diffed byte-for-byte in CI, so the serialization must
//! be canonical: decode(encode(x)) == x, re-encoding a decoded snapshot
//! reproduces the exact bytes, and the JSON projection of a decoded
//! snapshot matches the original's.

use proptest::prelude::*;
use tart_codec::{Decode, Encode};
use tart_obs::{Histogram, ObsEvent, ObsEventKind, ObsSnapshot, SNAPSHOT_VERSION};

fn arb_kind() -> impl Strategy<Value = ObsEventKind> {
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(wire, vt)| ObsEventKind::Delivery { wire, vt }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(wire, through)| ObsEventKind::SilenceAdvance { wire, through }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(wire, needed)| ObsEventKind::Probe { wire, needed }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(wire, from)| ObsEventKind::ReplayRequest { wire, from }),
        Just(ObsEventKind::FailoverPromotion),
        (any::<u32>(), any::<u64>())
            .prop_map(|(component, vt)| ObsEventKind::RecalibrationFault { component, vt }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(component, vt)| ObsEventKind::Divergence { component, vt }),
        any::<u64>().prop_map(|vt| ObsEventKind::StandbyDemotion { vt }),
        (any::<bool>(), any::<u64>())
            .prop_map(|(warm, latency_ns)| ObsEventKind::PromotionComplete { warm, latency_ns }),
    ]
}

fn arb_event() -> impl Strategy<Value = ObsEvent> {
    (any::<u64>(), any::<u32>(), arb_kind()).prop_map(|(at_ns, engine, kind)| ObsEvent {
        at_ns,
        engine,
        kind,
    })
}

fn arb_hist() -> impl Strategy<Value = Histogram> {
    proptest::collection::vec(any::<u64>(), 0..32).prop_map(|samples| {
        let mut h = Histogram::new();
        for s in samples {
            h.record(s);
        }
        h
    })
}

fn arb_snapshot() -> impl Strategy<Value = ObsSnapshot> {
    (
        proptest::collection::vec(any::<u64>(), 17),
        // Two nested 4-tuples: the proptest shim implements `Strategy` for
        // tuples of limited arity, so eight histograms ride as 4 + 4.
        (
            (arb_hist(), arb_hist(), arb_hist(), arb_hist()),
            (arb_hist(), arb_hist(), arb_hist(), arb_hist()),
        ),
        proptest::collection::btree_map(any::<u32>(), any::<u64>(), 0..16),
        proptest::collection::vec(arb_event(), 0..24),
    )
        .prop_map(|(counters, hists, silence_per_wire, events)| {
            let (
                (pessimism, residual, occupancy, fsync_strict),
                (fsync_buffered, persist, lag, promotion),
            ) = hists;
            ObsSnapshot {
                version: SNAPSHOT_VERSION,
                delivered: counters[0],
                silence_adverts: counters[1],
                probes: counters[2],
                replay_requests: counters[3],
                failovers: counters[4],
                recalibrations: counters[5],
                wal_syncs: counters[6],
                checkpoints: counters[7],
                checkpoint_bytes: counters[8],
                checkpoint_persists: counters[9],
                state_hashes_computed: counters[10],
                divergences_detected: counters[11],
                standby_applied: counters[12],
                standby_demotions: counters[13],
                warm_promotions: counters[14],
                cold_promotions: counters[15],
                events_dropped: counters[16],
                pessimism_wait_ns: pessimism,
                estimator_residual_ns: residual,
                wal_group_occupancy: occupancy,
                wal_fsync_strict_ns: fsync_strict,
                wal_fsync_buffered_ns: fsync_buffered,
                checkpoint_persist_ns: persist,
                standby_lag_ticks: lag,
                promotion_latency_ns: promotion,
                silence_per_wire,
                events,
            }
        })
}

proptest! {
    #[test]
    fn snapshot_codec_roundtrip_is_byte_identical(snap in arb_snapshot()) {
        let bytes = snap.to_bytes();
        let back = ObsSnapshot::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.to_bytes(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn snapshot_json_is_canonical_across_roundtrip(snap in arb_snapshot()) {
        let json = snap.to_json();
        let back = ObsSnapshot::from_bytes(&snap.to_bytes()).expect("decodes");
        prop_assert_eq!(back.to_json(), json, "JSON projection must survive the codec");
        // And the JSON itself must parse with the bundled parser.
        tart_obs::json::parse(&json).expect("report parses");
    }
}
