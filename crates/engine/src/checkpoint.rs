//! Engine checkpoints and the passive replica store.

use std::collections::BTreeMap;

use std::fmt;

use bytes::BytesMut;
use parking_lot::Mutex;
use std::sync::Arc;
use tart_codec::{Decode, DecodeError, Encode, Reader};
use tart_estimator::DeterminismFault;
use tart_model::{CheckpointMode, Snapshot, StateHash, StateHasher, Value};
use tart_vtime::{ComponentId, EngineId, VirtualTime, WireId};

use crate::store::KEPT_GENERATIONS;

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
        self.seal_and_len(prev).0
    }

    /// Stamps `chain_seal` in place, chained after `prev` (see
    /// [`EngineCheckpoint::seal_over`]). Returns the length of the canonical
    /// encoding — the bytes just hashed plus the seal — so a caller that
    /// wants the size need not serialize a second time.
    pub fn seal(&mut self, prev: &StateHash) -> usize {
        let (seal, len) = self.seal_and_len(prev);
        self.chain_seal = seal;
        len
    }

    /// The seal over `prev` and the length of [`Encode::to_bytes`], from one
    /// serialization.
    fn seal_and_len(&self, prev: &StateHash) -> (StateHash, usize) {
        let mut h = StateHasher::new();
        h.update_hash(if self.is_self_contained() {
            &StateHash::ZERO
        } else {
            prev
        });
        // Snapshot payloads dominate; the slack covers the bookkeeping maps
        // of a small engine, and anything larger grows the buffer as before.
        let mut buf = BytesMut::with_capacity(self.payload_bytes() + 1024);
        self.encode_sans_seal(&mut buf);
        h.update(&buf);
        (h.finish(), buf.len() + self.chain_seal.0.len())
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

/// The members a restore may read, oldest first, with the positions that
/// anchor them: what a [`ReplicaStore`] still holds, or one chain loaded
/// from disk.
#[derive(Clone, Default)]
pub(crate) struct HeldChain {
    /// How many members were shipped before `members[0]` and since pruned.
    pub(crate) floor: usize,
    pub(crate) members: Vec<Arc<EngineCheckpoint>>,
    /// Indices into `members` of the *anchors*: the members the engine
    /// captured in [`CheckpointMode::Full`], ascending. The capture mode is
    /// the authority — [`EngineCheckpoint::is_self_contained`] is inferred
    /// from content and is vacuously true of an incremental snapshot that
    /// omits its clean fields (DESIGN.md §15).
    pub(crate) anchors: Vec<usize>,
}

impl HeldChain {
    /// A chain as [`crate::CheckpointStore::load_chain`] returns it: one
    /// full head and the deltas against it.
    pub(crate) fn from_disk(chain: Vec<EngineCheckpoint>) -> Self {
        HeldChain {
            floor: 0,
            anchors: (0..chain.len().min(1)).collect(), // the head, if any
            members: chain.into_iter().map(Arc::new).collect(),
        }
    }

    /// Where the newest anchored chain opens (0 when nothing anchors).
    pub(crate) fn newest_anchor(&self) -> usize {
        self.anchors.last().copied().unwrap_or(0)
    }

    /// Discards `members[len..]` and the anchors among them.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.members.truncate(len);
        self.anchors.retain(|a| *a < len);
    }
}

/// The passive replica: holds checkpoint chains and the synchronously
/// logged determinism faults, does no processing until promoted (§I.B,
/// §II.F.3).
///
/// Shared between the active engine (writer), the failover manager and —
/// when one runs — the warm standby, which tails the chain by cursor
/// (readers) behind a mutex; checkpoint shipping is "asynchronous" in the
/// sense that the engine never waits for the replica to apply anything.
///
/// Bounded the way the on-disk store is: only the newest two
/// (`KEPT_GENERATIONS`) anchored chains are held, so a promotion restores
/// one full and its delta tail however old the incarnation is. *Positions*
/// stay absolute — members ever shipped — so a cursor into the chain keeps
/// its meaning across pruning.
#[derive(Clone, Default)]
pub struct ReplicaStore {
    inner: Arc<Mutex<ReplicaInner>>,
}

#[derive(Default)]
struct ReplicaInner {
    /// The newest [`KEPT_GENERATIONS`] anchored chains in shipped order:
    /// full, deltas, full, deltas. Members are immutable once shipped, so
    /// readers share them.
    held: HeldChain,
    /// Determinism faults logged synchronously (§II.G.4), per component.
    /// Never pruned: replay re-applies every one.
    faults: Vec<(ComponentId, DeterminismFault)>,
}

impl ReplicaStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ReplicaStore::default()
    }

    /// Accepts a shipped checkpoint and the mode the engine captured it in.
    /// A [`CheckpointMode::Full`] member anchors a new chain; once more than
    /// two (`KEPT_GENERATIONS`) chains are held the oldest is dropped whole.
    /// Order of arrival is the order of application.
    pub fn push_checkpoint(&self, ckpt: EngineCheckpoint, mode: CheckpointMode) {
        let held = &mut self.inner.lock().held;
        if mode == CheckpointMode::Full {
            held.anchors.push(held.members.len());
            if held.anchors.len() > KEPT_GENERATIONS {
                let cut = held.anchors[held.anchors.len() - KEPT_GENERATIONS];
                held.members.drain(..cut);
                held.anchors.retain(|a| *a >= cut);
                held.anchors.iter_mut().for_each(|a| *a -= cut);
                held.floor += cut;
            }
        }
        held.members.push(Arc::new(ckpt));
    }

    /// Synchronously logs a determinism fault. Must complete before the
    /// engine uses the re-calibrated estimator.
    pub fn log_fault(&self, component: ComponentId, fault: DeterminismFault) {
        self.inner.lock().faults.push((component, fault));
    }

    /// The held members, oldest first, always opening at an anchor. A deep
    /// copy for tests and probes; no production path calls it.
    pub fn chain(&self) -> Vec<EngineCheckpoint> {
        let held = self.held();
        held.members.iter().map(|c| (**c).clone()).collect()
    }

    /// Everything currently held, sharing the members.
    pub(crate) fn held(&self) -> HeldChain {
        self.inner.lock().held.clone()
    }

    /// The chain from absolute position `from` on, oldest first, sharing the
    /// members rather than copying them, and the position the first one
    /// sits at: `from`, or the floor when pruning has passed `from`. The
    /// lock is released before returning, so a reader can take as long as it
    /// likes over what it got.
    pub(crate) fn tail(&self, from: usize) -> (usize, Vec<Arc<EngineCheckpoint>>) {
        let inner = self.inner.lock();
        let held = &inner.held;
        let start = from.max(held.floor);
        let members = held.members.get(start - held.floor..).unwrap_or_default();
        (start, members.to_vec())
    }

    /// All logged determinism faults, oldest first.
    pub fn faults(&self) -> Vec<(ComponentId, DeterminismFault)> {
        self.inner.lock().faults.clone()
    }

    /// Number of checkpoints shipped (held or since pruned).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.held.floor + inner.held.members.len()
    }

    /// Returns `true` if no checkpoint has ever been shipped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ReplicaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ReplicaStore")
            .field("shipped", &(inner.held.floor + inner.held.members.len()))
            .field("held", &inner.held.members.len())
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

    /// Ships a sealed chain of `modes` in order (seq = position).
    fn shipped(modes: &[CheckpointMode]) -> ReplicaStore {
        let store = ReplicaStore::new();
        let mut prev = StateHash::ZERO;
        for (seq, mode) in modes.iter().enumerate() {
            let mut ckpt = match mode {
                CheckpointMode::Full => sample_checkpoint(seq as u64),
                CheckpointMode::Incremental => delta_checkpoint(seq as u64),
            };
            ckpt.seal(&prev);
            prev = ckpt.chain_seal;
            store.push_checkpoint(ckpt, *mode);
        }
        store
    }

    fn held_seqs(store: &ReplicaStore) -> Vec<u64> {
        store.chain().iter().map(|c| c.seq).collect()
    }

    #[test]
    fn replica_holds_the_newest_two_anchored_chains() {
        use CheckpointMode::{Full as F, Incremental as I};
        let store = ReplicaStore::new();
        assert!(store.is_empty() && store.chain().is_empty());

        // Two chains: nothing to prune yet.
        let store = shipped(&[F, I, I, F, I]);
        assert_eq!(held_seqs(&store), [0, 1, 2, 3, 4]);
        assert_eq!(store.held().anchors, [0, 3]);
        assert_eq!(store.len(), 5);

        // A third anchor drops the oldest chain whole — never part of one.
        let store = shipped(&[F, I, I, F, I, F]);
        assert_eq!(held_seqs(&store), [3, 4, 5]);
        let held = store.held();
        assert_eq!((held.floor, held.anchors), (3, vec![0, 2]));
        assert_eq!(store.len(), 6, "len counts every member shipped");

        // Back-to-back fulls are one-member chains; deltas never prune.
        let store = shipped(&[F, F, F, F, I, I, I]);
        assert_eq!(held_seqs(&store), [2, 3, 4, 5, 6]);
        assert_eq!(store.len(), 7);
        assert_eq!(store.held().newest_anchor(), 1);
        assert_eq!(verify_chain(&store.chain()), Ok(()), "opens at an anchor");

        // Readers address members by absolute position; a cursor the floor
        // has passed is clamped to it and told so.
        let (start, tail) = store.tail(5);
        assert_eq!((start, tail.len(), tail[0].seq), (5, 2, 5));
        let (start, tail) = store.tail(0);
        assert_eq!((start, tail.len(), tail[0].seq), (2, 5, 2));
        assert_eq!(store.tail(7), (7, vec![]));
        assert_eq!(store.tail(9), (9, vec![]));
    }

    #[test]
    fn pruning_never_touches_the_fault_log() {
        let store = shipped(&[CheckpointMode::Full]);
        let fault = DeterminismFault {
            vt: vt(1_000),
            new_spec: EstimatorSpec::per_iteration(BlockId(0), 62_000),
        };
        store.log_fault(ComponentId::new(0), fault.clone());
        for seq in 1..6 {
            store.push_checkpoint(sample_checkpoint(seq), CheckpointMode::Full);
        }
        assert_eq!(held_seqs(&store), [4, 5]);
        assert_eq!(store.faults(), [(ComponentId::new(0), fault)]);
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
        a.push_checkpoint(sample_checkpoint(0), CheckpointMode::Full);
        assert_eq!(b.len(), 1, "clones share the store");
        assert!(format!("{a:?}").contains("ReplicaStore"));
    }
}
