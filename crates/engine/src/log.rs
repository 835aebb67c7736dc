//! The external-input message log.
//!
//! "When a message arrives at the system from an external source, it is (a)
//! given a timestamp, and then is (b) logged — either to external stable
//! storage, or to the backup machine. … Only external messages are logged"
//! (§II.E). The log is the replay source for external wires after a
//! failover.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::Path;

use bytes::BytesMut;
use tart_codec::{Decode, DecodeError, Encode};
use tart_model::Value;
use tart_vtime::{VirtualTime, WireId};

use crate::wal::{DurabilityPolicy, Wal, WalError, WalRecovery};

/// Errors from the message log.
#[derive(Debug)]
pub enum LogError {
    /// A persisted record failed its CRC or decode check.
    Corrupt(DecodeError),
    /// The segmented-WAL backend failed.
    Storage(WalError),
    /// A record's timestamp was not strictly increasing for its wire.
    NonMonotonic {
        /// The offending wire.
        wire: WireId,
        /// The offending timestamp.
        got: VirtualTime,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Corrupt(e) => write!(f, "log record corrupt: {e}"),
            LogError::Storage(e) => write!(f, "log storage failed: {e}"),
            LogError::NonMonotonic { wire, got } => {
                write!(
                    f,
                    "log record for {wire} at {got} is not after its predecessor"
                )
            }
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Corrupt(e) => Some(e),
            LogError::Storage(e) => Some(e),
            LogError::NonMonotonic { .. } => None,
        }
    }
}

impl From<DecodeError> for LogError {
    fn from(e: DecodeError) -> Self {
        LogError::Corrupt(e)
    }
}

impl From<WalError> for LogError {
    fn from(e: WalError) -> Self {
        LogError::Storage(e)
    }
}

/// One logged external message.
#[derive(Clone, Debug, PartialEq)]
struct LogRecord {
    wire: WireId,
    vt: VirtualTime,
    payload: Value,
}

impl Encode for LogRecord {
    fn encode(&self, buf: &mut BytesMut) {
        self.wire.encode(buf);
        self.vt.encode(buf);
        self.payload.encode(buf);
    }
}

impl Decode for LogRecord {
    fn decode(r: &mut tart_codec::Reader<'_>) -> Result<Self, DecodeError> {
        Ok(LogRecord {
            wire: WireId::decode(r)?,
            vt: VirtualTime::decode(r)?,
            payload: Value::decode(r)?,
        })
    }
}

/// An append-only log of timestamped external messages, indexed by wire,
/// optionally persisted to the segmented [`Wal`].
///
/// # Example
///
/// ```
/// use tart_engine::MessageLog;
/// use tart_model::Value;
/// use tart_vtime::{VirtualTime, WireId};
///
/// let mut log = MessageLog::in_memory();
/// let w = WireId::new(0);
/// log.append(w, VirtualTime::from_ticks(100), &Value::from("payload"))?;
/// let replayed = log.replay_from(w, VirtualTime::ZERO);
/// assert_eq!(replayed.len(), 1);
/// # Ok::<(), tart_engine::LogError>(())
/// ```
pub struct MessageLog {
    /// wire → (vt → payload); BTreeMap gives range replay directly.
    entries: BTreeMap<WireId, BTreeMap<VirtualTime, Value>>,
    backend: Backend,
    /// Per-wire durability tier. Wires absent from the map ride the WAL's
    /// default lane.
    wire_tiers: BTreeMap<WireId, DurabilityPolicy>,
    /// Buffered-lane appends that may still be inside the open flush
    /// window: `(wal record index, wire)`. Pruned lazily against the WAL's
    /// durable index; consumed by [`MessageLog::crash_discard`] for the
    /// per-wire loss report.
    window: VecDeque<(u64, WireId)>,
    /// Per-wire count of appends routed memory-only ([`DurabilityPolicy::InMemory`]).
    memory_only: BTreeMap<WireId, u64>,
}

/// Per-wire loss accounting from [`MessageLog::crash_discard`]: what a
/// crash at this instant costs each durability tier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogCrash {
    /// Buffered-lane records that were still inside the open flush window
    /// (staged in user space, never handed to the kernel), per wire. This
    /// is the *exact* Buffered loss: closed windows already queued for the
    /// flusher drain to the kernel before the report is taken.
    pub lost: BTreeMap<WireId, u64>,
    /// Appends on [`DurabilityPolicy::InMemory`] wires, per wire. Never
    /// persisted by design; recovery must replay them from peers.
    pub memory_only: BTreeMap<WireId, u64>,
}

/// Where appended records are persisted.
enum Backend {
    /// Nowhere: in-memory only (the "backup machine" flavour).
    Memory,
    /// The segmented WAL, one lane per tier (the durable flavour).
    Wal(Wal),
}

impl MessageLog {
    /// Creates a purely in-memory log (the "backup machine" flavour).
    pub fn in_memory() -> Self {
        MessageLog {
            entries: BTreeMap::new(),
            backend: Backend::Memory,
            wire_tiers: BTreeMap::new(),
            window: VecDeque::new(),
            memory_only: BTreeMap::new(),
        }
    }

    /// Opens (or creates) a log backed by the segmented [`Wal`] in `dir`,
    /// replaying whatever it holds. Wires without a pinned tier ride the
    /// `default` lane. The returned [`WalRecovery`] reports the recovered
    /// record count and any bytes truncated from a torn tail.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Storage`] if the WAL cannot be opened (including
    /// sealed-segment corruption) or [`LogError::Corrupt`] if a CRC-valid
    /// record fails to decode.
    pub fn durable(
        dir: impl AsRef<Path>,
        segment_bytes: u64,
        default: impl Into<DurabilityPolicy>,
    ) -> Result<(Self, WalRecovery), LogError> {
        // tart-lint: allow(TAINT-FLOW) -- recovery boundary: Wal::open re-reads the durable log, which is the replay source itself; same bytes, same recovery
        let (wal, recovery) = Wal::open(dir, segment_bytes, default)?;
        let mut log = MessageLog::in_memory();
        for body in &recovery.records {
            let record = LogRecord::from_bytes(body)?;
            log.insert(record)?;
        }
        log.backend = Backend::Wal(wal);
        Ok((log, recovery))
    }

    /// Attaches the observability hub to the WAL backend (no-op for the
    /// in-memory flavour): group-commit window occupancy and
    /// per-tier fsync latency are recorded at every sync.
    pub fn set_obs(&mut self, hub: std::sync::Arc<tart_obs::ObsHub>) {
        if let Backend::Wal(wal) = &mut self.backend {
            wal.set_obs(hub);
        }
    }

    /// Pins `wire` to a durability tier: [`DurabilityPolicy::Strict`]
    /// blocks until the record is fsynced, [`DurabilityPolicy::Buffered`]
    /// rides the group-commit window, and [`DurabilityPolicy::InMemory`]
    /// skips persistence entirely (recovery replays those wires from
    /// peers). Unpinned wires ride the WAL's default lane.
    pub fn set_wire_tier(&mut self, wire: WireId, tier: DurabilityPolicy) {
        self.wire_tiers.insert(wire, tier);
    }

    fn insert(&mut self, record: LogRecord) -> Result<(), LogError> {
        let per_wire = self.entries.entry(record.wire).or_default();
        if let Some((&last, _)) = per_wire.iter().next_back() {
            if record.vt <= last {
                return Err(LogError::NonMonotonic {
                    wire: record.wire,
                    got: record.vt,
                });
            }
        }
        per_wire.insert(record.vt, record.payload);
        Ok(())
    }

    /// Appends one external message.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::NonMonotonic`] if `vt` does not exceed the wire's
    /// last logged timestamp, or [`LogError::Storage`] if persistence fails.
    pub fn append(
        &mut self,
        wire: WireId,
        vt: VirtualTime,
        payload: &Value,
    ) -> Result<(), LogError> {
        let record = LogRecord {
            wire,
            vt,
            payload: payload.clone(),
        };
        let body = record.to_bytes();
        self.insert(record)?;
        let tier = match (self.wire_tiers.get(&wire), &self.backend) {
            (Some(&pinned), _) => pinned,
            (None, Backend::Wal(wal)) => wal.default_tier(),
            (None, Backend::Memory) => return Ok(()),
        };
        if tier == DurabilityPolicy::InMemory {
            // Memory-only tier: never persisted, whatever the backend.
            *self.memory_only.entry(wire).or_insert(0) += 1;
            return Ok(());
        }
        let Backend::Wal(wal) = &mut self.backend else {
            return Ok(());
        };
        // tart-lint: allow(TAINT-FLOW) -- durable append: the WAL ack carries no clock reading; record bytes, not group-commit times, enter the log
        let idx = wal.append_lane(&body, tier)?;
        if matches!(tier, DurabilityPolicy::Buffered { .. }) {
            // Prune entries the flusher has already made durable, then
            // track this one until it is.
            let durable = wal.durable_index();
            while self.window.front().is_some_and(|(i, _)| *i <= durable) {
                self.window.pop_front();
            }
            self.window.push_back((idx, wire));
        }
        Ok(())
    }

    /// Simulates a hard crash of the logging process: the WAL's open flush
    /// window is dropped on the floor (closed windows already queued for
    /// the flusher still drain to the kernel) and the per-wire cost is
    /// reported. The in-memory backend loses nothing extra, but memory-only
    /// wires are still reported.
    ///
    /// After this call the log refuses further appends on the WAL backend;
    /// it exists for crash drills, not production shutdown.
    pub fn crash_discard(&mut self) -> LogCrash {
        let mut crash = LogCrash {
            lost: BTreeMap::new(),
            memory_only: std::mem::take(&mut self.memory_only),
        };
        if let Backend::Wal(wal) = &mut self.backend {
            let written = wal.crash_discard();
            for (idx, wire) in self.window.drain(..) {
                if idx > written {
                    *crash.lost.entry(wire).or_insert(0) += 1;
                }
            }
        }
        crash
    }

    /// Forces any buffered appends to stable storage whatever their lane
    /// (no-op for the in-memory flavour).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Storage`] if the fsync fails.
    pub fn sync(&mut self) -> Result<(), LogError> {
        match &mut self.backend {
            Backend::Memory => Ok(()),
            Backend::Wal(wal) => wal.sync().map_err(LogError::from),
        }
    }

    /// All logged messages on `wire` with `vt >= from`, in order.
    pub fn replay_from(&self, wire: WireId, from: VirtualTime) -> Vec<(VirtualTime, Value)> {
        self.entries
            .get(&wire)
            .map(|m| m.range(from..).map(|(vt, v)| (*vt, v.clone())).collect())
            .unwrap_or_default()
    }

    /// The last logged timestamp on `wire`.
    pub fn last_vt(&self, wire: WireId) -> Option<VirtualTime> {
        self.entries
            .get(&wire)
            .and_then(|m| m.keys().next_back().copied())
    }

    /// Number of logged records on `wire`.
    pub fn wire_len(&self, wire: WireId) -> usize {
        self.entries.get(&wire).map_or(0, BTreeMap::len)
    }

    /// Total records across all wires.
    pub fn len(&self) -> usize {
        self.entries.values().map(BTreeMap::len).sum()
    }

    /// Returns `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for MessageLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let backend = match &self.backend {
            Backend::Memory => "memory",
            Backend::Wal(_) => "wal",
        };
        f.debug_struct("MessageLog")
            .field("records", &self.len())
            .field("backend", &backend)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(t: u64) -> VirtualTime {
        VirtualTime::from_ticks(t)
    }

    fn w(n: u32) -> WireId {
        WireId::new(n)
    }

    #[test]
    fn in_memory_append_and_replay() {
        let mut log = MessageLog::in_memory();
        assert!(log.is_empty());
        log.append(w(0), vt(10), &Value::I64(1)).unwrap();
        log.append(w(0), vt(20), &Value::I64(2)).unwrap();
        log.append(w(1), vt(15), &Value::I64(3)).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.last_vt(w(0)), Some(vt(20)));
        assert_eq!(log.last_vt(w(9)), None);

        let all = log.replay_from(w(0), VirtualTime::ZERO);
        assert_eq!(all, vec![(vt(10), Value::I64(1)), (vt(20), Value::I64(2))]);
        let tail = log.replay_from(w(0), vt(11));
        assert_eq!(tail, vec![(vt(20), Value::I64(2))]);
        let exact = log.replay_from(w(0), vt(20));
        assert_eq!(exact.len(), 1);
        assert!(log.replay_from(w(0), vt(21)).is_empty());
        assert!(log.replay_from(w(7), VirtualTime::ZERO).is_empty());
    }

    #[test]
    fn rejects_non_monotonic_timestamps_per_wire() {
        let mut log = MessageLog::in_memory();
        log.append(w(0), vt(10), &Value::Unit).unwrap();
        assert!(matches!(
            log.append(w(0), vt(10), &Value::Unit),
            Err(LogError::NonMonotonic { .. })
        ));
        assert!(log.append(w(0), vt(5), &Value::Unit).is_err());
        // Other wires are independent timelines.
        log.append(w(1), vt(5), &Value::Unit).unwrap();
    }

    #[test]
    fn durable_backend_round_trips_through_the_wal() {
        let dir = std::env::temp_dir().join(format!("tart-log-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut log, rec) = MessageLog::durable(&dir, 64, DurabilityPolicy::Strict).unwrap();
            assert_eq!(rec.records.len(), 0);
            for t in 1..=8 {
                log.append(w(0), vt(t), &Value::from(format!("m{t}")))
                    .unwrap();
            }
            log.sync().unwrap();
        }
        let (log, rec) = MessageLog::durable(&dir, 64, DurabilityPolicy::Strict).unwrap();
        assert_eq!(rec.records.len(), 8);
        assert_eq!(rec.truncated_bytes, 0);
        assert!(rec.segments > 1, "tiny threshold forces rotation");
        assert_eq!(log.len(), 8);
        assert_eq!(log.last_vt(w(0)), Some(vt(8)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiered_wires_route_to_their_lanes() {
        use std::time::Duration;
        let dir = std::env::temp_dir().join(format!("tart-log-tiers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lost_on_w1;
        {
            let (mut log, rec) =
                MessageLog::durable(&dir, u64::MAX, DurabilityPolicy::Strict).unwrap();
            assert!(rec.records.is_empty());
            log.set_wire_tier(w(0), DurabilityPolicy::Strict);
            log.set_wire_tier(
                w(1),
                DurabilityPolicy::Buffered {
                    flush_window: Duration::from_secs(3600),
                },
            );
            log.set_wire_tier(w(2), DurabilityPolicy::InMemory);
            for t in 1..=4 {
                log.append(w(0), vt(t), &Value::from(format!("strict-{t}")))
                    .unwrap();
                log.append(w(1), vt(t), &Value::from(format!("buffered-{t}")))
                    .unwrap();
                log.append(w(2), vt(t), &Value::from(format!("memory-{t}")))
                    .unwrap();
            }
            // All three tiers replay locally before the crash.
            assert_eq!(log.len(), 12);
            let crash = log.crash_discard();
            assert_eq!(crash.memory_only.get(&w(2)), Some(&4));
            assert!(
                crash.lost.keys().all(|wire| *wire == w(1)),
                "only the buffered wire can lose inside the open window: {crash:?}"
            );
            lost_on_w1 = crash.lost.get(&w(1)).copied().unwrap_or(0);
            assert!(lost_on_w1 <= 4);
        }
        let (log, rec) = MessageLog::durable(&dir, u64::MAX, DurabilityPolicy::Strict).unwrap();
        // Strict records all survive; InMemory never touched the WAL.
        assert_eq!(log.replay_from(w(0), VirtualTime::ZERO).len(), 4);
        assert!(log.replay_from(w(2), VirtualTime::ZERO).is_empty());
        // Buffered loses exactly what the crash report claimed.
        assert_eq!(
            log.replay_from(w(1), VirtualTime::ZERO).len() as u64 + lost_on_w1,
            4
        );
        assert_eq!(rec.records.len(), log.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_append_pins_interleaved_buffered_records() {
        use std::time::Duration;
        let dir = std::env::temp_dir().join(format!("tart-log-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut log, _) =
                MessageLog::durable(&dir, u64::MAX, DurabilityPolicy::Strict).unwrap();
            log.set_wire_tier(w(0), DurabilityPolicy::Strict);
            log.set_wire_tier(
                w(1),
                DurabilityPolicy::Buffered {
                    flush_window: Duration::from_secs(3600),
                },
            );
            // Buffered first, then a strict append: the strict barrier
            // forces the open window closed, so the buffered record is
            // durable too and the crash report shows zero loss.
            log.append(w(1), vt(1), &Value::from("riding")).unwrap();
            log.append(w(0), vt(1), &Value::from("barrier")).unwrap();
            let crash = log.crash_discard();
            assert!(
                crash.lost.is_empty(),
                "strict barrier pinned the window: {crash:?}"
            );
        }
        let (log, _) = MessageLog::durable(&dir, u64::MAX, DurabilityPolicy::Strict).unwrap();
        assert_eq!(log.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display() {
        let e = LogError::NonMonotonic {
            wire: w(1),
            got: vt(9),
        };
        assert!(e.to_string().contains("w1"));
        let e = LogError::Corrupt(DecodeError::ChecksumMismatch);
        assert!(e.to_string().contains("corrupt"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
