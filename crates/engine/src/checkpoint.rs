//! Engine checkpoints and the passive replica store.

use std::collections::BTreeMap;

use std::fmt;

use bytes::BytesMut;
use parking_lot::Mutex;
use std::sync::Arc;
use tart_codec::{Decode, DecodeError, Encode, Reader};
use tart_estimator::DeterminismFault;
use tart_model::{Snapshot, StateHash, StateHasher, Value};
use tart_vtime::{ComponentId, EngineId, VirtualTime, WireId};

/// A soft checkpoint of one engine's state (§II.F.2).
///
/// Carries, per hosted component, a [`Snapshot`] (full on the first
/// checkpoint, incremental afterwards) plus the scheduler bookkeeping a
/// promoted replica needs: component clocks, per-input-wire consumed
/// watermarks (where to ask for replay from), and per-output-wire send
/// watermarks (where the `prev_vt` chain stood).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineCheckpoint {
    /// The engine whose state this is.
    pub engine: EngineId,
    /// Monotone checkpoint sequence number.
    pub seq: u64,
    /// Per-component state snapshots.
    pub components: BTreeMap<ComponentId, Snapshot>,
    /// Per-component virtual clocks at capture time.
    pub clocks: BTreeMap<ComponentId, VirtualTime>,
    /// Per-input-wire: virtual time of the last *consumed* (processed)
    /// message. Replay after restore starts one tick later.
    pub consumed: BTreeMap<WireId, VirtualTime>,
    /// Per-output-wire: virtual time of the last transmitted data tick.
    pub sent: BTreeMap<WireId, VirtualTime>,
    /// Per-output-wire retention contents at capture time: in-flight
    /// messages the sender may still be asked to replay. Always captured
    /// for wires whose both endpoints live on this engine (sender and
    /// receiver state die together); captured for every wire under
    /// durability, where a whole-cluster crash voids the single-failure
    /// assumption and every upstream's volatile retention dies too.
    pub retention: BTreeMap<WireId, Vec<(VirtualTime, Value)>>,
    /// Per-component state digests at capture time (verified replay,
    /// DESIGN.md §15). Recomputed at every replay horizon; a mismatch is a
    /// [`DivergenceFault`] attributed to the offending component.
    pub component_hashes: BTreeMap<ComponentId, StateHash>,
    /// Combined engine-state digest at capture time: the component digests
    /// folded with the scheduler bookkeeping (clocks, consumed, sent) via
    /// [`combined_state_hash`].
    pub state_hash: StateHash,
    /// Hash-chain seal: the digest of the previous checkpoint's seal folded
    /// with this checkpoint's own canonical bytes (everything except this
    /// field). The seal chain restarts ([`StateHash::ZERO`] predecessor) at
    /// every self-contained checkpoint, so any chain beginning at a full
    /// generation verifies independently. A flipped byte anywhere in a
    /// stored member — snapshots, watermarks, or the recorded digests
    /// themselves — breaks the seal of that member and every later delta.
    pub chain_seal: StateHash,
}

impl EngineCheckpoint {
    /// Creates an empty checkpoint shell.
    pub fn new(engine: EngineId, seq: u64) -> Self {
        EngineCheckpoint {
            engine,
            seq,
            components: BTreeMap::new(),
            clocks: BTreeMap::new(),
            consumed: BTreeMap::new(),
            sent: BTreeMap::new(),
            retention: BTreeMap::new(),
            component_hashes: BTreeMap::new(),
            state_hash: StateHash::ZERO,
            chain_seal: StateHash::ZERO,
        }
    }

    /// Total serialized payload bytes across component snapshots (the
    /// checkpoint-overhead metric).
    pub fn payload_bytes(&self) -> usize {
        self.components.values().map(Snapshot::payload_bytes).sum()
    }

    /// Returns `true` if every component snapshot is restorable on its own
    /// (no delta chunks). Self-contained checkpoints are *full* generations
    /// in the durable store; anything else is a *delta* that needs a base.
    pub fn is_self_contained(&self) -> bool {
        self.components.values().all(Snapshot::is_self_contained)
    }

    /// Computes the seal this checkpoint should carry when chained after a
    /// predecessor whose seal is `prev`: the predecessor's seal folded with
    /// this checkpoint's canonical bytes (everything except `chain_seal`).
    /// Self-contained checkpoints restart the seal chain: `prev` is ignored
    /// for them and [`StateHash::ZERO`] folded in its place.
    pub fn seal_over(&self, prev: &StateHash) -> StateHash {
        let mut h = StateHasher::new();
        h.update_hash(if self.is_self_contained() {
            &StateHash::ZERO
        } else {
            prev
        });
        let mut buf = BytesMut::new();
        self.encode_sans_seal(&mut buf);
        h.update(&buf);
        h.finish()
    }

    /// Stamps `chain_seal` in place, chained after `prev` (see
    /// [`EngineCheckpoint::seal_over`]).
    pub fn seal(&mut self, prev: &StateHash) {
        self.chain_seal = self.seal_over(prev);
    }

    fn encode_sans_seal(&self, buf: &mut BytesMut) {
        self.engine.encode(buf);
        self.seq.encode(buf);
        self.components.encode(buf);
        self.clocks.encode(buf);
        self.consumed.encode(buf);
        self.sent.encode(buf);
        self.retention.encode(buf);
        self.component_hashes.encode(buf);
        self.state_hash.encode(buf);
    }
}

impl Encode for EngineCheckpoint {
    fn encode(&self, buf: &mut BytesMut) {
        self.encode_sans_seal(buf);
        self.chain_seal.encode(buf);
    }
}

impl Decode for EngineCheckpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EngineCheckpoint {
            engine: EngineId::decode(r)?,
            seq: u64::decode(r)?,
            components: BTreeMap::decode(r)?,
            clocks: BTreeMap::decode(r)?,
            consumed: BTreeMap::decode(r)?,
            sent: BTreeMap::decode(r)?,
            retention: BTreeMap::decode(r)?,
            component_hashes: BTreeMap::decode(r)?,
            state_hash: StateHash::decode(r)?,
            chain_seal: StateHash::decode(r)?,
        })
    }
}

/// Folds the per-component digests and the scheduler bookkeeping into the
/// engine-level digest recorded as [`EngineCheckpoint::state_hash`].
///
/// Retention is deliberately **outside** the hash domain: its contents
/// depend on downstream `TrimAck` arrival timing, which is real-time
/// nondeterministic and legitimately differs between a run and its replay.
pub fn combined_state_hash(
    component_hashes: &BTreeMap<ComponentId, StateHash>,
    clocks: &BTreeMap<ComponentId, VirtualTime>,
    consumed: &BTreeMap<WireId, VirtualTime>,
    sent: &BTreeMap<WireId, VirtualTime>,
) -> StateHash {
    let mut buf = BytesMut::new();
    component_hashes.encode(&mut buf);
    clocks.encode(&mut buf);
    consumed.encode(&mut buf);
    sent.encode(&mut buf);
    let mut h = StateHasher::new();
    h.update(&buf);
    h.finish()
}

/// A defect found while hash-verifying a checkpoint chain, before any state
/// is restored from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainDefect {
    /// Member `index` (checkpoint `seq`) fails its chain seal
    /// ([`EngineCheckpoint::chain_seal`]): its bytes — snapshots,
    /// watermarks or recorded digests — changed after sealing.
    BrokenSeal {
        /// Position in the chain (0 = oldest).
        index: usize,
        /// The checkpoint's sequence number.
        seq: u64,
    },
    /// The chain opens with a delta: nothing to chain its seal from (and
    /// nothing to restore it onto).
    DeltaWithoutBase {
        /// Position in the chain (0 = oldest).
        index: usize,
        /// The checkpoint's sequence number.
        seq: u64,
    },
}

impl fmt::Display for ChainDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainDefect::BrokenSeal { index, seq } => {
                write!(f, "checkpoint #{index} (seq {seq}) fails its chain seal")
            }
            ChainDefect::DeltaWithoutBase { index, seq } => {
                write!(f, "checkpoint #{index} (seq {seq}) is a delta with no base")
            }
        }
    }
}

/// Hash-verifies a checkpoint chain: every member's stored seal must match
/// a recomputation over its own bytes chained from its predecessor
/// (restarting at each self-contained member). Returns the first defect.
///
/// This is the chain-integrity half of verified replay; the semantic half —
/// live state matching [`EngineCheckpoint::state_hash`] after the chain is
/// applied — runs in `EngineCore::restore`.
///
/// # Errors
///
/// Returns the first [`ChainDefect`] encountered, oldest member first.
pub fn verify_chain(chain: &[EngineCheckpoint]) -> Result<(), ChainDefect> {
    let mut prev = None;
    for (index, ckpt) in chain.iter().enumerate() {
        prev = Some(seal_step(prev, index, ckpt)?);
    }
    Ok(())
}

/// The seal rule, one member at a time — the only place it is written down.
/// `ckpt` sits at position `index` of its chain and `prev` is the seal of
/// the member before it (`None` when `ckpt` opens the chain). Returns the
/// seal the next member chains from.
///
/// Every consumer of a chain steps through this: [`verify_chain`], the
/// restore pipeline's unabsorbed tail, the warm standby as it pre-applies,
/// and the durable store's loaders. Fulls and deltas get the identical
/// check, so no consumer can absorb a member another would have truncated.
///
/// # Errors
///
/// [`ChainDefect::DeltaWithoutBase`] for a delta with no predecessor,
/// [`ChainDefect::BrokenSeal`] when the stored seal does not recompute.
pub(crate) fn seal_step(
    prev: Option<StateHash>,
    index: usize,
    ckpt: &EngineCheckpoint,
) -> Result<StateHash, ChainDefect> {
    let seq = ckpt.seq;
    let base = match prev {
        Some(seal) => seal,
        None if ckpt.is_self_contained() => StateHash::ZERO,
        None => return Err(ChainDefect::DeltaWithoutBase { index, seq }),
    };
    if ckpt.seal_over(&base) != ckpt.chain_seal {
        return Err(ChainDefect::BrokenSeal { index, seq });
    }
    Ok(ckpt.chain_seal)
}

/// Raised when state recomputed at a replay horizon disagrees with the
/// digest recorded at checkpoint time — the replica or restore chain did
/// **not** reconverge to the checkpointed state (bit rot in a warm replica,
/// an undetected nondeterministic handler, or corrupted scheduler
/// bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DivergenceFault {
    /// The component whose state diverged, or `None` when the mismatch is
    /// in engine-level bookkeeping (clocks / consumed / sent watermarks).
    pub component: Option<ComponentId>,
    /// The virtual time of the replay horizon where the check ran.
    pub vt: VirtualTime,
    /// The digest recorded at checkpoint time.
    pub expected: StateHash,
    /// The digest recomputed from live state.
    pub actual: StateHash,
}

impl fmt::Display for DivergenceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.component {
            Some(c) => write!(
                f,
                "state divergence in component {c} at vt {}: expected {} got {}",
                self.vt.as_ticks(),
                self.expected.short_hex(),
                self.actual.short_hex(),
            ),
            None => write!(
                f,
                "engine bookkeeping divergence at vt {}: expected {} got {}",
                self.vt.as_ticks(),
                self.expected.short_hex(),
                self.actual.short_hex(),
            ),
        }
    }
}

impl std::error::Error for DivergenceFault {}

/// The passive replica: holds checkpoint chains and the synchronously
/// logged determinism faults, does no processing until promoted (§I.B,
/// §II.F.3).
///
/// Shared between the active engine (writer), the failover manager and —
/// when one runs — the warm standby, which tails the chain by cursor
/// (readers) behind a mutex; checkpoint shipping is "asynchronous" in the
/// sense that the engine never waits for the replica to apply anything.
#[derive(Clone, Default)]
pub struct ReplicaStore {
    inner: Arc<Mutex<ReplicaInner>>,
}

#[derive(Default)]
struct ReplicaInner {
    /// Checkpoint chain in seq order: one full head + incremental tail.
    /// Members are immutable once shipped, so readers share them.
    chain: Vec<Arc<EngineCheckpoint>>,
    /// Determinism faults logged synchronously (§II.G.4), per component.
    faults: Vec<(ComponentId, DeterminismFault)>,
}

impl ReplicaStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ReplicaStore::default()
    }

    /// Accepts a shipped checkpoint. Checkpoints with stale sequence
    /// numbers (possible when a promoted engine restarts the sequence) are
    /// appended regardless; order of arrival is the order of application.
    pub fn push_checkpoint(&self, ckpt: EngineCheckpoint) {
        self.inner.lock().chain.push(Arc::new(ckpt));
    }

    /// Synchronously logs a determinism fault. Must complete before the
    /// engine uses the re-calibrated estimator.
    pub fn log_fault(&self, component: ComponentId, fault: DeterminismFault) {
        self.inner.lock().faults.push((component, fault));
    }

    /// The checkpoint chain, oldest first.
    pub fn chain(&self) -> Vec<EngineCheckpoint> {
        self.tail(0).iter().map(|c| (**c).clone()).collect()
    }

    /// The chain from position `from` on, oldest first, sharing the members
    /// rather than copying them. The lock is released before returning, so
    /// a reader can take as long as it likes over what it got.
    pub(crate) fn tail(&self, from: usize) -> Vec<Arc<EngineCheckpoint>> {
        let inner = self.inner.lock();
        inner.chain.get(from..).unwrap_or_default().to_vec()
    }

    /// All logged determinism faults, oldest first.
    pub fn faults(&self) -> Vec<(ComponentId, DeterminismFault)> {
        self.inner.lock().faults.clone()
    }

    /// Number of checkpoints held.
    pub fn len(&self) -> usize {
        self.inner.lock().chain.len()
    }

    /// Returns `true` if no checkpoint has ever been shipped.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().chain.is_empty()
    }
}

impl std::fmt::Debug for ReplicaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ReplicaStore")
            .field("checkpoints", &inner.chain.len())
            .field("faults", &inner.faults.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tart_estimator::EstimatorSpec;
    use tart_model::{BlockId, StateChunk};
    use tart_vtime::VirtualDuration;

    fn vt(t: u64) -> VirtualTime {
        VirtualTime::from_ticks(t)
    }

    fn sample_checkpoint(seq: u64) -> EngineCheckpoint {
        let mut ckpt = EngineCheckpoint::new(EngineId::new(1), seq);
        let mut snap = Snapshot::new(vt(100));
        snap.put("counts", StateChunk::Full(vec![1, 2, 3]));
        ckpt.components.insert(ComponentId::new(0), snap);
        ckpt.clocks.insert(ComponentId::new(0), vt(100));
        ckpt.consumed.insert(WireId::new(2), vt(90));
        ckpt.sent.insert(WireId::new(3), vt(95));
        ckpt.retention
            .insert(WireId::new(3), vec![(vt(95), Value::from("in-flight"))]);
        ckpt
    }

    #[test]
    fn checkpoint_round_trips() {
        let ckpt = sample_checkpoint(7);
        let bytes = ckpt.to_bytes();
        assert_eq!(EngineCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
        assert_eq!(ckpt.payload_bytes(), 3);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ckpt = EngineCheckpoint::new(EngineId::new(0), 0);
        assert_eq!(
            EngineCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap(),
            ckpt
        );
        assert_eq!(ckpt.payload_bytes(), 0);
    }

    #[test]
    fn replica_accumulates_chain() {
        let store = ReplicaStore::new();
        assert!(store.is_empty());
        store.push_checkpoint(sample_checkpoint(0));
        store.push_checkpoint(sample_checkpoint(1));
        assert_eq!(store.len(), 2);
        let chain = store.chain();
        assert_eq!(chain[0].seq, 0);
        assert_eq!(chain[1].seq, 1);
        assert_eq!(store.tail(1)[0].seq, 1, "readers share members by position");
        assert!(store.tail(2).is_empty() && store.tail(9).is_empty());
    }

    #[test]
    fn replica_logs_faults_in_order() {
        let store = ReplicaStore::new();
        let f1 = DeterminismFault {
            vt: vt(1_000),
            new_spec: EstimatorSpec::per_iteration(BlockId(0), 62_000),
        };
        let f2 = DeterminismFault {
            vt: vt(2_000),
            new_spec: EstimatorSpec::constant(VirtualDuration::from_micros(600)),
        };
        store.log_fault(ComponentId::new(0), f1.clone());
        store.log_fault(ComponentId::new(1), f2.clone());
        let faults = store.faults();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0], (ComponentId::new(0), f1));
        assert_eq!(faults[1], (ComponentId::new(1), f2));
    }

    fn delta_checkpoint(seq: u64) -> EngineCheckpoint {
        let mut ckpt = EngineCheckpoint::new(EngineId::new(1), seq);
        let mut snap = Snapshot::new(vt(200));
        snap.put("counts", StateChunk::Delta(vec![9]));
        ckpt.components.insert(ComponentId::new(0), snap);
        ckpt
    }

    #[test]
    fn seal_chain_verifies_and_detects_tampering() {
        let mut full = sample_checkpoint(0);
        assert!(full.is_self_contained());
        full.seal(&StateHash::ZERO);
        let mut delta = delta_checkpoint(1);
        assert!(!delta.is_self_contained());
        delta.seal(&full.chain_seal);
        let chain = vec![full.clone(), delta.clone()];
        assert_eq!(verify_chain(&chain), Ok(()));

        // Tamper with the delta's recorded digest after sealing: the seal
        // covers it, so verification pinpoints the delta.
        let mut tampered = delta.clone();
        tampered.state_hash = StateHash([0xEE; 32]);
        assert_eq!(
            verify_chain(&[full.clone(), tampered]),
            Err(ChainDefect::BrokenSeal { index: 1, seq: 1 })
        );

        // Tamper with the full base instead: the base breaks first.
        let mut bad_base = full.clone();
        bad_base.consumed.insert(WireId::new(9), vt(1));
        assert_eq!(
            verify_chain(&[bad_base, delta.clone()]),
            Err(ChainDefect::BrokenSeal { index: 0, seq: 0 })
        );

        // A chain opening with a delta has nothing to verify against.
        assert_eq!(
            verify_chain(&[delta]),
            Err(ChainDefect::DeltaWithoutBase { index: 0, seq: 1 })
        );
        assert_eq!(verify_chain(&[]), Ok(()));
    }

    #[test]
    fn seal_chain_restarts_at_full_members() {
        let mut full1 = sample_checkpoint(0);
        full1.seal(&StateHash::ZERO);
        let mut delta1 = delta_checkpoint(1);
        delta1.seal(&full1.chain_seal);
        let mut full2 = sample_checkpoint(2);
        full2.seal(&StateHash::ZERO);
        let mut delta2 = delta_checkpoint(3);
        delta2.seal(&full2.chain_seal);
        // The whole history verifies...
        assert_eq!(
            verify_chain(&[full1, delta1, full2.clone(), delta2.clone()]),
            Ok(())
        );
        // ...and so does the suffix starting at the newer full generation —
        // exactly what the durable store loads after pruning.
        assert_eq!(verify_chain(&[full2, delta2]), Ok(()));
    }

    #[test]
    fn divergence_fault_displays() {
        let fault = DivergenceFault {
            component: Some(ComponentId::new(3)),
            vt: vt(1_000),
            expected: StateHash([0xAA; 32]),
            actual: StateHash([0xBB; 32]),
        };
        let text = fault.to_string();
        assert!(text.contains("divergence"));
        assert!(text.contains("aaaa"));
        assert!(text.contains("bbbb"));
        let meta = DivergenceFault {
            component: None,
            ..fault
        };
        assert!(meta.to_string().contains("bookkeeping"));
    }

    #[test]
    fn combined_hash_covers_every_section() {
        let mut hashes = BTreeMap::new();
        hashes.insert(ComponentId::new(0), StateHash([1; 32]));
        let mut clocks = BTreeMap::new();
        clocks.insert(ComponentId::new(0), vt(10));
        let mut consumed = BTreeMap::new();
        consumed.insert(WireId::new(0), vt(5));
        let mut sent = BTreeMap::new();
        sent.insert(WireId::new(1), vt(7));
        let base = combined_state_hash(&hashes, &clocks, &consumed, &sent);

        let mut hashes2 = hashes.clone();
        hashes2.insert(ComponentId::new(0), StateHash([2; 32]));
        assert_ne!(
            base,
            combined_state_hash(&hashes2, &clocks, &consumed, &sent)
        );
        let mut clocks2 = clocks.clone();
        clocks2.insert(ComponentId::new(0), vt(11));
        assert_ne!(
            base,
            combined_state_hash(&hashes, &clocks2, &consumed, &sent)
        );
        let mut consumed2 = consumed.clone();
        consumed2.insert(WireId::new(0), vt(6));
        assert_ne!(
            base,
            combined_state_hash(&hashes, &clocks, &consumed2, &sent)
        );
        let mut sent2 = sent.clone();
        sent2.insert(WireId::new(1), vt(8));
        assert_ne!(
            base,
            combined_state_hash(&hashes, &clocks, &consumed, &sent2)
        );
        assert_eq!(
            base,
            combined_state_hash(&hashes, &clocks, &consumed, &sent)
        );
    }

    #[test]
    fn store_is_cloneable_and_shared() {
        let a = ReplicaStore::new();
        let b = a.clone();
        a.push_checkpoint(sample_checkpoint(0));
        assert_eq!(b.len(), 1, "clones share the store");
        assert!(format!("{a:?}").contains("ReplicaStore"));
    }
}
