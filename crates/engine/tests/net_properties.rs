//! Property tests of the TCP frame codec: batches of every envelope kind
//! round-trip through `write_batch`/`read_batch`, and *no* truncation of a
//! valid frame can ever decode into wrong envelopes — the reader either
//! reports a torn frame (`UnexpectedEof`), corruption (`InvalidData`), or a
//! clean EOF at a frame boundary. A batch shares one CRC, so damage
//! anywhere rejects *every* envelope in it.

use std::io::ErrorKind;

use bytes::BytesMut;
use proptest::prelude::*;
use tart_engine::net::{read_batch, write_batch};
use tart_engine::Envelope;
use tart_estimator::EstimatorSpec;
use tart_model::{BlockId, Value};
use tart_silence::SilencePolicy;
use tart_vtime::{ComponentId, EngineId, VirtualDuration, VirtualTime, WireId};

fn arb_vt() -> impl Strategy<Value = VirtualTime> {
    (0u64..u64::MAX / 2).prop_map(VirtualTime::from_ticks)
}

fn arb_wire() -> impl Strategy<Value = WireId> {
    (0u32..1_000).prop_map(WireId::new)
}

fn arb_payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::I64),
        "[a-z ]{0,24}".prop_map(Value::from),
        (any::<i64>(), "[a-z]{1,8}")
            .prop_map(|(n, s)| Value::map([("n", Value::I64(n)), ("s", Value::from(s)),])),
    ]
}

fn arb_policy() -> impl Strategy<Value = SilencePolicy> {
    prop_oneof![
        Just(SilencePolicy::Lazy),
        Just(SilencePolicy::Curiosity),
        (1u64..1_000_000).prop_map(|us| SilencePolicy::Aggressive {
            max_quiet: VirtualDuration::from_micros(us),
        }),
    ]
}

fn arb_estimator() -> impl Strategy<Value = EstimatorSpec> {
    prop_oneof![
        (0u16..16, 1u64..1_000_000)
            .prop_map(|(b, per)| EstimatorSpec::per_iteration(BlockId(b), per)),
        (1u64..1_000_000).prop_map(|us| EstimatorSpec::constant(VirtualDuration::from_micros(us))),
    ]
}

/// Every [`Envelope`] variant, with arbitrary field values.
fn arb_envelope() -> impl Strategy<Value = Envelope> {
    prop_oneof![
        (arb_wire(), arb_vt(), arb_vt(), arb_payload()).prop_map(|(wire, vt, prev_vt, payload)| {
            Envelope::Data {
                wire,
                vt,
                prev_vt,
                payload,
            }
        }),
        (arb_wire(), arb_vt(), arb_vt()).prop_map(|(wire, through, last_data)| {
            Envelope::Silence {
                wire,
                through,
                last_data,
            }
        }),
        (arb_wire(), arb_vt()).prop_map(|(wire, needed_through)| Envelope::Probe {
            wire,
            needed_through,
        }),
        (arb_wire(), arb_vt()).prop_map(|(wire, from)| Envelope::ReplayRequest { wire, from }),
        (arb_wire(), arb_vt(), any::<u64>()).prop_map(|(wire, through, frames)| {
            Envelope::ReplayDone {
                wire,
                through,
                frames,
            }
        }),
        (arb_wire(), arb_vt()).prop_map(|(wire, through)| Envelope::TrimAck { wire, through }),
        Just(Envelope::Checkpoint),
        Just(Envelope::Die),
        Just(Envelope::Drain),
        arb_policy().prop_map(|policy| Envelope::SetSilencePolicy { policy }),
        (arb_wire(), arb_vt()).prop_map(|(wire, last_data)| Envelope::Eos { wire, last_data }),
        (0u32..64, arb_estimator()).prop_map(|(c, spec)| Envelope::Recalibrate {
            component: ComponentId::new(c),
            spec,
        }),
        (0u32..16, any::<u64>()).prop_map(|(e, seq)| Envelope::Heartbeat {
            engine: EngineId::new(e),
            seq,
        }),
    ]
}

/// A batch of envelopes with arbitrary per-envelope targets.
fn arb_batch() -> impl Strategy<Value = Vec<(EngineId, Envelope)>> {
    proptest::collection::vec(
        ((0u32..1_000).prop_map(EngineId::new), arb_envelope()),
        0..8,
    )
}

proptest! {
    /// A batch of N envelopes round-trips through one batch frame intact —
    /// order, targets and payloads all preserved. An empty batch writes
    /// nothing at all.
    #[test]
    fn batches_round_trip(batch in arb_batch()) {
        let mut buf = Vec::new();
        let mut scratch = BytesMut::new();
        write_batch(&mut buf, &batch, &mut scratch).expect("write to memory");
        if batch.is_empty() {
            prop_assert!(buf.is_empty(), "empty batch must touch nothing");
        } else {
            let mut cursor = &buf[..];
            let decoded = read_batch(&mut cursor).expect("valid batch decodes");
            prop_assert_eq!(decoded, Some(batch));
            prop_assert_eq!(read_batch(&mut cursor).expect("clean tail"), None);
        }
    }

    /// Truncating a batch frame at *every* byte offset yields a clean EOF
    /// (cut at the boundary), `UnexpectedEof`, or `InvalidData` — never a
    /// partial batch.
    #[test]
    fn batch_truncation_never_yields_envelopes(batch in arb_batch()) {
        let mut buf = Vec::new();
        let mut scratch = BytesMut::new();
        write_batch(&mut buf, &batch, &mut scratch).expect("write to memory");
        for cut in 0..buf.len() {
            let mut cursor = &buf[..cut];
            match read_batch(&mut cursor) {
                Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at the boundary"),
                Ok(Some(decoded)) => prop_assert!(
                    false,
                    "truncation at {cut}/{} yielded {} envelopes",
                    buf.len(),
                    decoded.len()
                ),
                Err(e) => prop_assert!(
                    matches!(e.kind(), ErrorKind::UnexpectedEof | ErrorKind::InvalidData),
                    "unexpected error kind {:?} at cut {cut}",
                    e.kind()
                ),
            }
        }
    }

    /// One flipped byte anywhere in a batch frame rejects the *whole*
    /// batch: the single CRC covers every envelope, so no prefix of the
    /// batch may survive the damage.
    #[test]
    fn batch_corruption_rejects_every_envelope(
        batch in arb_batch(),
        flip_byte in any::<u8>(),
        pos_seed in any::<u64>(),
    ) {
        if batch.is_empty() {
            return; // nothing on the wire to corrupt
        }
        let mut buf = Vec::new();
        let mut scratch = BytesMut::new();
        write_batch(&mut buf, &batch, &mut scratch).expect("write to memory");
        let pos = (pos_seed % buf.len() as u64) as usize;
        let flip = if flip_byte == 0 { 0xff } else { flip_byte };
        buf[pos] ^= flip;
        let mut cursor = &buf[..];
        match read_batch(&mut cursor) {
            Ok(Some(decoded)) => prop_assert!(
                false,
                "corrupt batch (byte {pos} ^ {flip:#04x}) yielded {} envelopes",
                decoded.len()
            ),
            Ok(None) => prop_assert!(false, "corrupt batch read as clean EOF"),
            Err(e) => prop_assert!(
                matches!(e.kind(), ErrorKind::UnexpectedEof | ErrorKind::InvalidData),
                "unexpected error kind {:?}",
                e.kind()
            ),
        }
    }
}
