//! Property tests of the crash-safe durability layer (§II.E's stable
//! storage, done properly):
//!
//! - [`EngineCheckpoint`] survives its canonical encoding exactly — the
//!   restart point is the bytes, so the bytes must be the checkpoint.
//! - No truncation of a WAL segment, at *any* byte offset, can surface a
//!   wrong record: recovery always yields a verified prefix of what was
//!   appended, and reports exactly the bytes it discarded.
//! - No single-byte corruption can either: the scan stops at the damaged
//!   frame and everything before it is intact.
//! - The checkpoint store's manifest is expendable — destroying it must
//!   never cost a generation, because the store rebuilds it from the
//!   checkpoint files themselves.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use tart_codec::{Decode, Encode};
use tart_engine::{CheckpointStore, DurabilityPolicy, EngineCheckpoint, Wal};
use tart_model::{Snapshot, StateChunk, Value};
use tart_vtime::{ComponentId, EngineId, VirtualTime, WireId};

/// A scratch directory unique to this process *and* proptest case.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tart-durprop-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn arb_vt() -> impl Strategy<Value = VirtualTime> {
    (0u64..u64::MAX / 2).prop_map(VirtualTime::from_ticks)
}

fn arb_payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::I64),
        "[a-z ]{0,16}".prop_map(Value::from),
    ]
}

fn arb_chunk() -> impl Strategy<Value = StateChunk> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(StateChunk::Full),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(StateChunk::Delta),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        arb_vt(),
        proptest::collection::btree_map("[a-z]{1,8}", arb_chunk(), 0..4),
    )
        .prop_map(|(vt, fields)| {
            let mut s = Snapshot::new(vt);
            for (k, c) in fields {
                s.put(&k, c);
            }
            s
        })
}

/// An [`EngineCheckpoint`] with every field populated arbitrarily,
/// including the retention capture that cold restart depends on.
fn arb_checkpoint() -> impl Strategy<Value = EngineCheckpoint> {
    (
        (
            0u32..64,
            0u64..1_000_000,
            proptest::collection::btree_map(0u32..64, arb_snapshot(), 0..3),
            proptest::collection::btree_map(0u32..64, arb_vt(), 0..3),
        ),
        (
            proptest::collection::btree_map(0u32..256, arb_vt(), 0..4),
            proptest::collection::btree_map(0u32..256, arb_vt(), 0..4),
            proptest::collection::btree_map(
                0u32..256,
                proptest::collection::vec((arb_vt(), arb_payload()), 0..4),
                0..3,
            ),
        ),
    )
        .prop_map(
            |((engine, seq, components, clocks), (consumed, sent, retention))| {
                let mut c = EngineCheckpoint::new(EngineId::new(engine), seq);
                c.components = components
                    .into_iter()
                    .map(|(k, v)| (ComponentId::new(k), v))
                    .collect();
                c.clocks = clocks
                    .into_iter()
                    .map(|(k, v)| (ComponentId::new(k), v))
                    .collect();
                c.consumed = consumed
                    .into_iter()
                    .map(|(k, v)| (WireId::new(k), v))
                    .collect();
                c.sent = sent.into_iter().map(|(k, v)| (WireId::new(k), v)).collect();
                c.retention = retention
                    .into_iter()
                    .map(|(k, v)| (WireId::new(k), v))
                    .collect();
                c
            },
        )
}

/// Forces every chunk full so the checkpoint persists as a self-contained
/// generation — the store refuses a delta with no full base, and
/// `load_latest` has full-only semantics. Seals it the way the live
/// checkpoint path does (self-contained members restart the seal chain),
/// since the store's loaders verify seals.
fn self_contained(mut c: EngineCheckpoint) -> EngineCheckpoint {
    for snap in c.components.values_mut() {
        let fields: Vec<(String, Vec<u8>)> = snap
            .iter()
            .map(|(k, chunk)| (k.to_owned(), chunk.bytes().to_vec()))
            .collect();
        for (k, bytes) in fields {
            snap.put(&k, StateChunk::Full(bytes));
        }
    }
    c.seal(&tart_model::StateHash::ZERO);
    c
}

/// Arbitrary WAL record bodies. Never empty: the WAL rejects empty bodies
/// by contract (`crc32(b"") == 0`, so an empty-record frame would be eight
/// zero bytes — indistinguishable from preallocation padding).
fn arb_records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 1..10)
}

/// Writes `records` into a fresh single-segment WAL and returns the
/// segment file's path alongside the directory.
fn write_wal(dir: &PathBuf, records: &[Vec<u8>]) -> PathBuf {
    // Appends stage until the final sync: one fsync per case.
    let buffered = DurabilityPolicy::Buffered {
        flush_window: std::time::Duration::from_secs(3600),
    };
    let mut wal = Wal::create(dir, u64::MAX, buffered).expect("create wal");
    for r in records {
        wal.append(r).expect("append");
    }
    wal.sync().expect("sync");
    drop(wal);
    std::fs::read_dir(dir)
        .expect("wal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("one segment")
}

proptest! {
    /// The checkpoint codec is exact: decode(encode(c)) == c for every
    /// field, including retention frames.
    #[test]
    fn checkpoint_round_trips(ckpt in arb_checkpoint()) {
        let bytes = ckpt.to_bytes();
        let back = EngineCheckpoint::from_bytes(&bytes).expect("well-formed bytes decode");
        prop_assert_eq!(back, ckpt);
    }

    /// Chopping the segment at every possible byte offset: recovery never
    /// invents or corrupts a record — it returns an exact prefix and
    /// accounts for every discarded byte.
    #[test]
    fn truncation_at_every_offset_yields_a_verified_prefix(records in arb_records()) {
        let dir = scratch("trunc");
        let seg = write_wal(&dir, &records);
        let full = std::fs::read(&seg).expect("segment bytes");

        for cut in 0..=full.len() {
            std::fs::write(&seg, &full[..cut]).expect("truncate copy");
            let (wal, recovery) =
                Wal::open(&dir, u64::MAX, DurabilityPolicy::Strict).expect("open truncated wal");
            drop(wal);
            prop_assert!(
                recovery.records.len() <= records.len(),
                "cut at {cut}: more records than written"
            );
            for (i, rec) in recovery.records.iter().enumerate() {
                prop_assert_eq!(rec, &records[i], "cut at {}: record {} corrupted", cut, i);
            }
            // Everything kept + everything discarded + any zero bytes kept
            // as preallocation padding is everything read. (An all-zero
            // tail is padding by contract, not a torn record: it is neither
            // counted as truncated nor kept past the WAL's clean-close trim
            // to its logical length.)
            let kept = std::fs::metadata(&seg).expect("meta").len();
            let accounted = kept + recovery.truncated_bytes;
            prop_assert!(
                accounted <= cut as u64,
                "cut at {cut}: recovery accounted for more bytes than exist"
            );
            prop_assert!(
                full[accounted as usize..cut].iter().all(|b| *b == 0),
                "cut at {cut}: unaccounted bytes must be all-zero padding"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping a single byte anywhere in the segment: the CRC (or frame
    /// bounds) catch it, and recovery still yields an intact prefix.
    #[test]
    fn single_byte_corruption_never_surfaces_a_wrong_record(
        records in arb_records(),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let dir = scratch("flip");
        let seg = write_wal(&dir, &records);
        let mut bytes = std::fs::read(&seg).expect("segment bytes");
        prop_assert!(!bytes.is_empty(), "at least one record means at least one frame");
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        std::fs::write(&seg, &bytes).expect("write corrupted");

        let (wal, recovery) =
            Wal::open(&dir, u64::MAX, DurabilityPolicy::Strict).expect("open corrupted wal");
        drop(wal);
        prop_assert!(recovery.records.len() < records.len(), "damage must drop something");
        for (i, rec) in recovery.records.iter().enumerate() {
            prop_assert_eq!(rec, &records[i], "record {} corrupted by unrelated flip", i);
        }
        prop_assert!(recovery.truncated_bytes > 0, "discarded bytes must be reported");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Tearing a mixed-lane group-commit tail at any offset past the last
    /// strict record: every Strict append survives (its fsync pinned it and
    /// every record staged before it), no record is ever surfaced twice,
    /// and recovered records keep append order. This is the torn-tail half
    /// of the tiered-durability contract (DURABILITY.md: Strict loss == 0,
    /// Buffered loss confined to the unsynced tail).
    #[test]
    fn torn_mixed_lane_tail_never_loses_strict_or_duplicates_buffered(
        lanes in proptest::collection::vec(any::<bool>(), 1..24),
        cut_seed in any::<u64>(),
    ) {
        let dir = scratch("mixed");
        let buffered = DurabilityPolicy::Buffered {
            flush_window: std::time::Duration::from_secs(3600),
        };
        let mut bodies = Vec::new();
        {
            let mut wal = Wal::create(&dir, u64::MAX, DurabilityPolicy::Strict).expect("create wal");
            for (i, strict) in lanes.iter().enumerate() {
                let body = if *strict {
                    format!("s-{i:03}").into_bytes()
                } else {
                    format!("b-{i:03}").into_bytes()
                };
                let tier = if *strict { DurabilityPolicy::Strict } else { buffered };
                wal.append_lane(&body, tier).expect("append_lane");
                bodies.push(body);
            }
            // Drop (clean close) flushes the open buffered window to the
            // kernel *unsynced* — the on-disk image models a process that
            // wrote its tail but never got the fsync out.
        }
        let seg = std::fs::read_dir(&dir)
            .expect("wal dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .expect("one segment");
        let full = std::fs::read(&seg).expect("segment bytes");

        // Frame-walk to the end of the last Strict body: its fsync made
        // everything up to and including it durable (buffered records
        // staged before a strict append ride the same synced job), so a
        // real crash can only tear *after* this point.
        let mut safe_end = 0usize;
        let mut off = 0usize;
        while off + 8 <= full.len() {
            let len = u32::from_be_bytes(full[off..off + 4].try_into().unwrap()) as usize;
            let crc = u32::from_be_bytes(full[off + 4..off + 8].try_into().unwrap());
            if len == 0 && crc == 0 {
                break; // preallocation padding
            }
            let body_end = off + 8 + len;
            if body_end > full.len() {
                break;
            }
            if full[off + 8..body_end].starts_with(b"s-") {
                safe_end = body_end;
            }
            off = body_end;
        }

        let span = full.len() - safe_end;
        let cut = safe_end + (cut_seed % (span as u64 + 1)) as usize;
        std::fs::write(&seg, &full[..cut]).expect("tear tail");

        let (wal, recovery) =
            Wal::open(&dir, u64::MAX, DurabilityPolicy::Strict).expect("open torn wal");
        drop(wal);

        let mut seen = std::collections::BTreeSet::new();
        for rec in &recovery.records {
            prop_assert!(seen.insert(rec.clone()), "record surfaced twice: {:?}", rec);
            prop_assert!(bodies.contains(rec), "recovered a record never appended");
        }
        // Append order is preserved: recovered records appear in the same
        // relative order they were appended in.
        let mut last = None;
        for rec in &recovery.records {
            let idx = bodies.iter().position(|b| b == rec).expect("known body");
            prop_assert!(last.is_none_or(|l| idx > l), "append order violated");
            last = Some(idx);
        }
        // Every Strict body survives the tear.
        for (i, body) in bodies.iter().enumerate() {
            if lanes[i] {
                prop_assert!(
                    recovery.records.contains(body),
                    "strict record {} lost by a tear at {}", i, cut
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The manifest is a cache, not the truth: overwrite it with garbage
    /// (or delete it) and every persisted generation is still loadable.
    #[test]
    fn manifest_corruption_never_costs_a_generation(
        ckpts in proptest::collection::vec(arb_checkpoint(), 1..4),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = scratch("manifest");
        let store = CheckpointStore::open(&dir).expect("open store");
        let mut newest = std::collections::BTreeMap::new();
        for c in &ckpts {
            let c = self_contained(c.clone());
            let generation = store.persist_with(&c, true).expect("persist");
            newest.insert(c.engine, (generation, c));
        }
        drop(store);
        std::fs::write(dir.join("MANIFEST"), &garbage).expect("corrupt manifest");

        let store = CheckpointStore::open(&dir).expect("reopen rebuilds from listing");
        for (engine, (generation, ckpt)) in newest {
            let loaded = store
                .load_latest(engine)
                .expect("load after manifest loss")
                .expect("generation still present");
            prop_assert_eq!(loaded.generation, generation);
            prop_assert!(!loaded.fell_back);
            prop_assert_eq!(loaded.checkpoint, ckpt);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
