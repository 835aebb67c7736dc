//! The on-disk checkpoint store.
//!
//! Checkpoints are the replay starting points; replay is only as available
//! as they are. The in-memory [`crate::ReplicaStore`] covers single-engine
//! failures, this store covers the rest: it is the replica's on-disk twin.
//! Each persisted [`EngineCheckpoint`] becomes a **generation** — a
//! CRC-framed file written to a temp name and atomically renamed — and the
//! directory listing is the only index: rename is atomic, so every
//! `ckpt-*.bin` is either fully present or absent.
//!
//! A generation is either **full** (self-contained: every component
//! snapshot restores alone, and it anchors a chain) or a **delta** against
//! the chain since the previous full; the kind is in the file name (`-d`
//! suffix for deltas). The store keeps and picks chains by the replica's
//! rules: `checkpoint::expired` decides what survives — whole chains back
//! through the `KEPT_GENERATIONS`-th newest full — and
//! [`CheckpointStore::load_chain`] runs the seal walk a promotion runs over
//! everything kept (DESIGN.md §10).
//!
//! Determinism faults (§II.G.4) are logged synchronously to an append-only
//! CRC-framed file per engine, fsynced per record, because a re-calibrated
//! estimator must never outlive its fault record.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use tart_codec::{crc32, Decode, Encode};
use tart_estimator::DeterminismFault;
use tart_vtime::{ComponentId, EngineId};

use crate::checkpoint::{expired, EngineCheckpoint, HeldChain};
use crate::wal::{scan_segment, sync_dir, FRAME_HEADER};

/// Errors from the checkpoint store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A persisted artifact failed verification beyond repair.
    Corrupt {
        /// What failed (file name or description).
        what: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint store i/o failed: {e}"),
            StoreError::Corrupt { what } => write!(f, "checkpoint store corrupt: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A restorable checkpoint chain loaded back from disk: one full head
/// followed by every verified delta against it, oldest first. Restoring
/// applies the snapshots in order (the replica chain does the same).
#[derive(Clone, Debug, PartialEq)]
pub struct LoadedChain {
    /// Newest generation number included in the chain.
    pub generation: u64,
    /// True when the chain stops short of the engine's newest persisted
    /// generation (a damaged delta truncated it, or a damaged full forced
    /// fallback to the previous full chain).
    pub fell_back: bool,
    /// The checkpoints to apply, oldest first; the head is always full.
    pub chain: Vec<EngineCheckpoint>,
}

/// Everything the store keeps for one engine, read back by `load_kept`.
pub(crate) struct KeptChain {
    /// The members that read back, oldest first, anchored at the full
    /// generations among them.
    pub(crate) held: HeldChain,
    /// The generation of each of `held`'s members.
    pub(crate) generations: Vec<u64>,
    /// The newest generation kept, readable or not; `None` when the engine
    /// never persisted one.
    pub(crate) newest: Option<u64>,
}

impl KeptChain {
    /// The generation of the newest member `held` still holds — after a
    /// seal walk or a restore, the top of the chain that survived.
    pub(crate) fn top(&self) -> Option<u64> {
        let len = self.held.members.len();
        len.checked_sub(1).map(|i| self.generations[i])
    }
}

/// One engine's kept generations, oldest first: `(generation, is_full)`.
type Generations = Vec<(u64, bool)>;

/// Positions of the full generations — the anchors — among `gens`.
fn anchors(gens: &[(u64, bool)]) -> impl DoubleEndedIterator<Item = usize> + '_ {
    gens.iter()
        .enumerate()
        .filter(|(_, (_, full))| *full)
        .map(|(i, _)| i)
}

/// Write-temp + atomic-rename durable checkpoint storage, indexed by its
/// directory listing.
///
/// Shared freely (`Clone`); all methods take `&self`.
pub struct CheckpointStore {
    dir: PathBuf,
    /// engine raw id → its kept generations (the listing, pruned).
    index: Mutex<BTreeMap<u32, Generations>>,
    /// engine raw id → open fault-log file handle.
    fault_logs: Mutex<BTreeMap<u32, File>>,
    /// Observability hub; persist latency lands in its histogram. The
    /// store is on the ops plane, so timing here keeps the engine core
    /// free of wall-clock reads.
    obs: Mutex<Option<Arc<tart_obs::ObsHub>>>,
}

fn ckpt_file_name(engine: u32, generation: u64, is_full: bool) -> String {
    let kind = if is_full { "" } else { "-d" };
    format!("ckpt-e{engine:04}-g{generation:08}{kind}.bin")
}

fn fault_log_name(engine: u32) -> String {
    format!("faults-e{engine:04}.log")
}

/// Frames `body` as `u32 len | u32 crc | body` (the repo-wide on-disk frame).
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + FRAME_HEADER);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(body).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// then rename over the target, so a reader never sees a torn file. With
/// `sync` the temp file is fsynced before the rename. `sync = false` lets
/// the kernel schedule the data writeback — the Buffered durability tier's
/// checkpoint persist. Process crashes lose nothing either way: renamed
/// data survives the process. The caller fsyncs the directory.
fn write_atomic(path: &Path, bytes: &[u8], sync: bool) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        if sync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

impl CheckpointStore {
    /// Opens (creating if absent) a checkpoint store rooted at `dir`.
    ///
    /// The index is the directory listing, pruned by the retention rule
    /// (`checkpoint::expired`); any other file in the directory is
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be created or
    /// read.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut index = scan_ckpt_files(&dir)?;
        for gens in index.values_mut() {
            gens.drain(..expired(anchors(gens)));
        }
        Ok(CheckpointStore {
            dir,
            index: Mutex::new(index),
            fault_logs: Mutex::new(BTreeMap::new()),
            obs: Mutex::new(None),
        })
    }

    /// Attaches the observability hub; subsequent [`CheckpointStore::persist_with`]
    /// calls record their latency in its checkpoint-persist histogram.
    pub(crate) fn set_obs(&self, hub: Arc<tart_obs::ObsHub>) {
        *self.obs.lock() = Some(hub);
    }

    /// Engines with at least one persisted generation.
    pub fn engines(&self) -> Vec<EngineId> {
        self.index
            .lock()
            .iter()
            .filter(|(_, gens)| !gens.is_empty())
            .map(|(e, _)| EngineId::new(*e))
            .collect()
    }

    /// Persists `ckpt` as a new generation for its engine: the checkpoint
    /// file written atomically, the directory fsynced, then generations the
    /// retention rule expires (`checkpoint::expired`) pruned.
    /// Whether the generation is full or a delta is derived from the
    /// checkpoint itself ([`EngineCheckpoint::is_self_contained`]) and
    /// recorded in the file name. Returns the new generation number.
    ///
    /// With `sync` (the [`crate::DurabilityPolicy::Strict`] tier) the
    /// checkpoint is durable on return — the moment a durability-gated
    /// `TrimAck` may be emitted. `sync = false` is the
    /// [`crate::DurabilityPolicy::Buffered`] tier's persist: the file still
    /// lands atomically (readers never see a torn generation, and a
    /// *process* crash loses nothing), but the data fsync is left to the
    /// kernel, so a *machine* crash may roll the engine back to an older
    /// generation. The directory is always fsynced: a generation is listed
    /// durably before anything older is unlinked.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if any write, fsync or rename fails (the
    /// previous generation remains the newest kept in that case), or
    /// [`StoreError::Corrupt`] for a delta with no full base on disk —
    /// such a generation could never restore.
    pub fn persist_with(&self, ckpt: &EngineCheckpoint, sync: bool) -> Result<u64, StoreError> {
        let persist_started = std::time::Instant::now();
        let engine = ckpt.engine.raw();
        let is_full = ckpt.is_self_contained();
        let mut index = self.index.lock();
        let gens = index.entry(engine).or_default();
        if !is_full && anchors(gens).next().is_none() {
            return Err(StoreError::Corrupt {
                what: format!("delta checkpoint for {} has no full base", ckpt.engine),
            });
        }
        let generation = gens.last().map_or(0, |(g, _)| g + 1);
        let path = self.dir.join(ckpt_file_name(engine, generation, is_full));
        write_atomic(&path, &frame(&ckpt.to_bytes()), sync)?;
        sync_dir(&self.dir)?;
        gens.push((generation, is_full));
        let cut = expired(anchors(gens));
        for (g, full) in gens.drain(..cut) {
            fs::remove_file(self.dir.join(ckpt_file_name(engine, g, full))).ok();
        }
        if let Some(obs) = &*self.obs.lock() {
            let elapsed = persist_started.elapsed().as_nanos();
            obs.checkpoint_persisted(u64::try_from(elapsed).unwrap_or(u64::MAX));
        }
        Ok(generation)
    }

    /// Every kept member of `engine`, oldest first, as a replica would
    /// hold them: anchored at the full generations (the file names say
    /// which). A missing, torn, CRC-failed or undecodable file is left out;
    /// the seal walk then rejects whatever chained over it, so a damaged
    /// delta still truncates its chain and a damaged full still falls back
    /// to the previous chain.
    pub(crate) fn load_kept(&self, engine: EngineId) -> KeptChain {
        let gens = self
            .index
            .lock()
            .get(&engine.raw())
            .cloned()
            .unwrap_or_default();
        let mut kept = KeptChain {
            held: HeldChain::default(),
            generations: Vec::with_capacity(gens.len()),
            newest: gens.last().map(|(g, _)| *g),
        };
        for (g, full) in gens {
            let path = self.dir.join(ckpt_file_name(engine.raw(), g, full));
            let Some(ckpt) = read_framed_checkpoint(&path) else {
                continue;
            };
            if full {
                kept.held.anchors.push(kept.held.members.len());
            }
            kept.held.members.push(Arc::new(ckpt));
            kept.generations.push(g);
        }
        kept
    }

    /// Loads the newest restorable chain for `engine`: everything kept
    /// (`load_kept`) through the seal walk a promotion runs — the newest
    /// full that verifies plus every consecutive verified delta after it.
    /// Verification is two layers: the CRC frame (torn or bit-rotted
    /// bytes) and the chain seal (a member whose recorded state hash or
    /// payload was rewritten under a recomputed CRC). A damaged delta
    /// truncates the chain there (everything before it is still a
    /// consistent restore point); a damaged full falls back to the previous
    /// full's chain. `Ok(None)` when the engine has no generations at all.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] when every kept full generation
    /// fails verification.
    pub fn load_chain(&self, engine: EngineId) -> Result<Option<LoadedChain>, StoreError> {
        let mut kept = self.load_kept(engine);
        let Some(newest) = kept.newest else {
            return Ok(None);
        };
        let (anchor, _) = kept.held.seal_walk(0, |_| {});
        let Some(generation) = kept.top() else {
            return Err(StoreError::Corrupt {
                what: format!("all kept checkpoint generations for {engine} failed verification"),
            });
        };
        let chain = kept.held.members.drain(anchor..);
        Ok(Some(LoadedChain {
            generation,
            fell_back: generation != newest,
            chain: chain.map(Arc::unwrap_or_clone).collect(),
        }))
    }

    /// Synchronously logs a determinism fault for `engine`: CRC-framed,
    /// appended, fsynced before returning. The directory is fsynced when
    /// the log is first opened, so a machine crash cannot drop the new
    /// file's entry.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the append or fsync fails.
    pub(crate) fn log_fault(
        &self,
        engine: EngineId,
        component: ComponentId,
        fault: &DeterminismFault,
    ) -> Result<(), StoreError> {
        let mut logs = self.fault_logs.lock();
        let file = match logs.entry(engine.raw()) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(fault_log_name(engine.raw())))?;
                sync_dir(&self.dir)?;
                e.insert(file)
            }
        };
        let body = (component, fault.clone()).to_bytes();
        file.write_all(&frame(&body))?;
        file.sync_all()?;
        Ok(())
    }

    /// All durably logged determinism faults for `engine`, oldest first.
    /// The log is scanned like a WAL tail: records up to the first invalid
    /// frame are kept (a torn final append is the expected crash artifact);
    /// the rest are discarded.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] if a CRC-valid record fails to
    /// decode, or [`StoreError::Io`] on read failure.
    pub(crate) fn faults(
        &self,
        engine: EngineId,
    ) -> Result<Vec<(ComponentId, DeterminismFault)>, StoreError> {
        let path = self.dir.join(fault_log_name(engine.raw()));
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => f.read_to_end(&mut bytes).map(|_| ())?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        }
        let scan = scan_segment(&bytes);
        let mut out = Vec::with_capacity(scan.records.len());
        for body in &scan.records {
            let rec = <(ComponentId, DeterminismFault)>::from_bytes(body).map_err(|e| {
                StoreError::Corrupt {
                    what: format!("fault log record for {engine}: {e}"),
                }
            })?;
            out.push(rec);
        }
        Ok(out)
    }
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("generations", &*self.index.lock())
            .finish()
    }
}

/// Lists the `ckpt-*.bin` files present, per engine, oldest first,
/// unpruned.
fn scan_ckpt_files(dir: &Path) -> Result<BTreeMap<u32, Generations>, StoreError> {
    let mut index: BTreeMap<u32, Generations> = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some((engine, generation, is_full)) = parse_ckpt_name(&name.to_string_lossy()) {
            index.entry(engine).or_default().push((generation, is_full));
        }
    }
    for gens in index.values_mut() {
        gens.sort_unstable();
    }
    Ok(index)
}

/// Parses `ckpt-e0001-g00000002.bin` → `(1, 2, true)` and the delta form
/// `ckpt-e0001-g00000002-d.bin` → `(1, 2, false)`.
pub(crate) fn parse_ckpt_name(name: &str) -> Option<(u32, u64, bool)> {
    let rest = name.strip_prefix("ckpt-e")?.strip_suffix(".bin")?;
    let (engine, gen_part) = rest.split_once("-g")?;
    let (generation, is_full) = match gen_part.strip_suffix("-d") {
        Some(g) => (g, false),
        None => (gen_part, true),
    };
    Some((engine.parse().ok()?, generation.parse().ok()?, is_full))
}

/// Reads a CRC-framed checkpoint file; `None` on any verification failure
/// (the caller leaves the generation out).
fn read_framed_checkpoint(path: &Path) -> Option<EngineCheckpoint> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < FRAME_HEADER {
        return None;
    }
    let len = u32::from_be_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_be_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if FRAME_HEADER + len != bytes.len() {
        return None;
    }
    let body = &bytes[FRAME_HEADER..];
    if crc32(body) != crc {
        return None;
    }
    EngineCheckpoint::from_bytes(body).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::KEPT_GENERATIONS;
    use tart_estimator::EstimatorSpec;
    use tart_model::{BlockId, Snapshot, StateChunk, StateHash};
    use tart_vtime::{VirtualTime, WireId};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tart-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn vt(t: u64) -> VirtualTime {
        VirtualTime::from_ticks(t)
    }

    fn sample(engine: u32, seq: u64) -> EngineCheckpoint {
        let mut ckpt = EngineCheckpoint::new(EngineId::new(engine), seq);
        let mut snap = Snapshot::new(vt(seq * 10));
        snap.put("state", StateChunk::Full(vec![seq as u8; 4]));
        ckpt.components.insert(ComponentId::new(0), snap);
        ckpt.clocks.insert(ComponentId::new(0), vt(seq * 10));
        ckpt.consumed.insert(WireId::new(1), vt(seq * 10));
        // Full checkpoints are self-contained, so they can self-seal.
        ckpt.seal(&StateHash::ZERO);
        ckpt
    }

    /// Seals `chain` in order, restarting the seal chain at every
    /// self-contained member — exactly what `EngineCore::take_checkpoint`
    /// produces live.
    fn seal_chain(chain: &mut [EngineCheckpoint]) {
        let mut prev = StateHash::ZERO;
        for c in chain.iter_mut() {
            c.seal(&prev);
            prev = c.chain_seal;
        }
    }

    #[test]
    fn persist_and_reload() {
        let dir = tmp("reload");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.engines().is_empty());
        assert_eq!(store.persist_with(&sample(1, 0), true).unwrap(), 0);
        assert_eq!(store.persist_with(&sample(1, 1), true).unwrap(), 1);
        assert_eq!(store.engines(), vec![EngineId::new(1)]);

        // A fresh open (new process) sees the same state via the listing.
        let store = CheckpointStore::open(&dir).unwrap();
        let loaded = store.load_chain(EngineId::new(1)).unwrap().unwrap();
        assert_eq!(loaded.generation, 1);
        assert!(!loaded.fell_back);
        assert_eq!(loaded.chain, vec![sample(1, 1)]);
        assert_eq!(store.load_chain(EngineId::new(9)).unwrap(), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_generations_are_pruned() {
        let dir = tmp("prune");
        let store = CheckpointStore::open(&dir).unwrap();
        for seq in 0..5 {
            store.persist_with(&sample(0, seq), true).unwrap();
        }
        assert_eq!(store.load_kept(EngineId::new(0)).generations, vec![3, 4]);
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let n = e.unwrap().file_name().to_string_lossy().into_owned();
                n.starts_with("ckpt-").then_some(n)
            })
            .collect();
        assert_eq!(
            files.len(),
            KEPT_GENERATIONS,
            "pruned to kept set: {files:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_generation_falls_back_one() {
        let dir = tmp("fallback");
        let store = CheckpointStore::open(&dir).unwrap();
        store.persist_with(&sample(2, 0), true).unwrap();
        store.persist_with(&sample(2, 1), true).unwrap();
        // Flip a byte in the newest generation's body.
        let newest = dir.join(ckpt_file_name(2, 1, true));
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();

        let store = CheckpointStore::open(&dir).unwrap();
        let loaded = store.load_chain(EngineId::new(2)).unwrap().unwrap();
        assert!(loaded.fell_back, "newest failed, previous served");
        assert_eq!(loaded.generation, 0);
        assert_eq!(loaded.chain, vec![sample(2, 0)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generations_corrupt_is_an_error() {
        let dir = tmp("allbad");
        let store = CheckpointStore::open(&dir).unwrap();
        store.persist_with(&sample(0, 0), true).unwrap();
        store.persist_with(&sample(0, 1), true).unwrap();
        for g in 0..2 {
            let path = dir.join(ckpt_file_name(0, g, true));
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            fs::write(&path, &bytes).unwrap();
        }
        assert!(matches!(
            store.load_chain(EngineId::new(0)),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_log_round_trips_and_tolerates_torn_tail() {
        let dir = tmp("faults");
        let store = CheckpointStore::open(&dir).unwrap();
        let e = EngineId::new(0);
        assert!(store.faults(e).unwrap().is_empty());
        let f1 = DeterminismFault {
            vt: vt(500),
            new_spec: EstimatorSpec::per_iteration(BlockId(0), 70_000),
        };
        let f2 = DeterminismFault {
            vt: vt(900),
            new_spec: EstimatorSpec::per_iteration(BlockId(1), 80_000),
        };
        store.log_fault(e, ComponentId::new(4), &f1).unwrap();
        store.log_fault(e, ComponentId::new(5), &f2).unwrap();
        let got = store.faults(e).unwrap();
        assert_eq!(
            got,
            vec![(ComponentId::new(4), f1.clone()), (ComponentId::new(5), f2)]
        );

        // Tear the final record: it is discarded, the first survives.
        let path = dir.join(fault_log_name(0));
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        let store = CheckpointStore::open(&dir).unwrap();
        let got = store.faults(e).unwrap();
        assert_eq!(got, vec![(ComponentId::new(4), f1)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multiple_engines_are_independent() {
        let dir = tmp("multi");
        let store = CheckpointStore::open(&dir).unwrap();
        store.persist_with(&sample(0, 0), true).unwrap();
        store.persist_with(&sample(1, 0), true).unwrap();
        store.persist_with(&sample(1, 1), true).unwrap();
        assert_eq!(store.load_kept(EngineId::new(0)).generations, vec![0]);
        assert_eq!(store.load_kept(EngineId::new(1)).generations, vec![0, 1]);
        assert_eq!(store.engines(), vec![EngineId::new(0), EngineId::new(1)]);
        assert!(format!("{store:?}").contains("CheckpointStore"));
        fs::remove_dir_all(&dir).ok();
    }

    /// A delta checkpoint: one component snapshot carrying a delta chunk.
    fn delta_sample(engine: u32, seq: u64) -> EngineCheckpoint {
        let mut ckpt = EngineCheckpoint::new(EngineId::new(engine), seq);
        let mut snap = Snapshot::new(vt(seq * 10));
        snap.put("state", StateChunk::Delta(vec![seq as u8; 2]));
        ckpt.components.insert(ComponentId::new(0), snap);
        ckpt.clocks.insert(ComponentId::new(0), vt(seq * 10));
        ckpt.consumed.insert(WireId::new(1), vt(seq * 10));
        ckpt
    }

    #[test]
    fn delta_chain_round_trips_and_survives_a_reopen() {
        let dir = tmp("chain");
        let store = CheckpointStore::open(&dir).unwrap();
        let e = EngineId::new(4);
        let mut want = vec![sample(4, 0), delta_sample(4, 1), delta_sample(4, 2)];
        seal_chain(&mut want);
        for c in &want {
            store.persist_with(c, true).unwrap(); // full g0, delta g1, delta g2
        }
        assert_eq!(store.load_kept(e).generations, vec![0, 1, 2]);

        let loaded = store.load_chain(e).unwrap().unwrap();
        assert_eq!(loaded.generation, 2);
        assert!(!loaded.fell_back);
        assert_eq!(loaded.chain, want);

        // The kinds live in the file names: a reopened store indexes the
        // listing and reconstructs the same chain.
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.load_chain(e).unwrap().unwrap(), loaded);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_delta_truncates_the_chain() {
        let dir = tmp("chain-trunc");
        let store = CheckpointStore::open(&dir).unwrap();
        let e = EngineId::new(5);
        let mut persisted = vec![sample(5, 0), delta_sample(5, 1), delta_sample(5, 2)];
        seal_chain(&mut persisted);
        for c in &persisted {
            store.persist_with(c, true).unwrap();
        }
        // Damage the middle delta: the chain must stop before it, even
        // though the newest delta is intact (it builds on the damaged one).
        let mid = dir.join(ckpt_file_name(5, 1, false));
        let mut bytes = fs::read(&mid).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&mid, &bytes).unwrap();

        let loaded = store.load_chain(e).unwrap().unwrap();
        assert!(loaded.fell_back);
        assert_eq!(loaded.generation, 0, "only the full head survives");
        assert_eq!(loaded.chain, vec![persisted[0].clone()]);
        fs::remove_dir_all(&dir).ok();
    }

    /// Satellite regression for verified replay: a delta whose *stored
    /// state hash* was rewritten — with the CRC frame recomputed so the
    /// byte-level check passes — must still truncate the chain at that
    /// delta, exactly like a bad CRC would. Only the chain seal catches
    /// this class of corruption.
    #[test]
    fn delta_with_rewritten_state_hash_is_truncated() {
        let dir = tmp("chain-badhash");
        let store = CheckpointStore::open(&dir).unwrap();
        let e = EngineId::new(9);
        let mut persisted = vec![sample(9, 0), delta_sample(9, 1), delta_sample(9, 2)];
        seal_chain(&mut persisted);
        for c in &persisted {
            store.persist_with(c, true).unwrap();
        }
        // Rewrite the middle delta's recorded state hash and re-frame it
        // with a freshly computed CRC: the frame verifies, the seal cannot.
        let mid = dir.join(ckpt_file_name(9, 1, false));
        let bytes = fs::read(&mid).unwrap();
        let mut tampered = EngineCheckpoint::from_bytes(&bytes[FRAME_HEADER..]).unwrap();
        tampered.state_hash = tart_model::hash_of(&u64::MAX);
        fs::write(&mid, frame(&tampered.to_bytes())).unwrap();

        let loaded = store.load_chain(e).unwrap().unwrap();
        assert!(loaded.fell_back);
        assert_eq!(loaded.generation, 0, "truncated at the rewritten delta");
        assert_eq!(loaded.chain, vec![persisted[0].clone()]);

        // The same rewrite on the full head is caught too: with only one
        // full on disk, the chain load reports irrecoverable corruption.
        let head = dir.join(ckpt_file_name(9, 0, true));
        let bytes = fs::read(&head).unwrap();
        let mut tampered = EngineCheckpoint::from_bytes(&bytes[FRAME_HEADER..]).unwrap();
        tampered.state_hash = tart_model::hash_of(&u64::MAX);
        fs::write(&head, frame(&tampered.to_bytes())).unwrap();
        assert!(matches!(
            store.load_chain(e),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_full_falls_back_to_the_previous_chain() {
        let dir = tmp("chain-fallback");
        let store = CheckpointStore::open(&dir).unwrap();
        let e = EngineId::new(6);
        let mut persisted = vec![
            sample(6, 0),       // full g0
            delta_sample(6, 1), // delta g1
            sample(6, 2),       // full g2
            delta_sample(6, 3), // delta g3
        ];
        seal_chain(&mut persisted);
        for c in &persisted {
            store.persist_with(c, true).unwrap();
        }
        // Damage the newest full: its delta g3 is orphaned, and the store
        // must fall back to the older full chain g0+g1.
        let newest_full = dir.join(ckpt_file_name(6, 2, true));
        let mut bytes = fs::read(&newest_full).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x08;
        fs::write(&newest_full, &bytes).unwrap();

        let loaded = store.load_chain(e).unwrap().unwrap();
        assert!(loaded.fell_back);
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.chain, persisted[..2].to_vec());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruning_keeps_whole_chains() {
        let dir = tmp("chain-prune");
        let store = CheckpointStore::open(&dir).unwrap();
        let e = EngineId::new(7);
        // Chains: [F0 d1] [F2 d3] [F4 d5] — pruning floors at the
        // 2nd-newest full, so the g0 chain goes and both newer chains stay.
        let mut persisted: Vec<EngineCheckpoint> = (0..6u64)
            .map(|seq| {
                if seq % 2 == 0 {
                    sample(7, seq)
                } else {
                    delta_sample(7, seq)
                }
            })
            .collect();
        seal_chain(&mut persisted);
        for c in &persisted {
            store.persist_with(c, true).unwrap();
        }
        assert_eq!(store.load_kept(e).generations, vec![2, 3, 4, 5]);
        assert!(
            !dir.join(ckpt_file_name(7, 0, true)).exists(),
            "old full pruned"
        );
        assert!(
            !dir.join(ckpt_file_name(7, 1, false)).exists(),
            "old delta pruned"
        );
        let loaded = store.load_chain(e).unwrap().unwrap();
        assert_eq!(loaded.generation, 5);
        assert_eq!(loaded.chain.len(), 2, "newest full + its delta");

        // A prune a crash interrupted leaves an expired generation listed:
        // opening applies the same retention rule, so it stays out.
        fs::write(
            dir.join(ckpt_file_name(7, 0, true)),
            frame(&persisted[0].to_bytes()),
        )
        .unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.load_kept(e).generations, vec![2, 3, 4, 5]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_without_a_full_base_is_refused() {
        let dir = tmp("orphan-delta");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(matches!(
            store.persist_with(&delta_sample(8, 0), true),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display() {
        let e = StoreError::Corrupt { what: "x".into() };
        assert!(e.to_string().contains("corrupt"));
        let e = StoreError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    /// Properties of checkpoints on their way to and from disk.
    mod properties {
        use super::*;
        use proptest::prelude::*;
        use tart_model::Value;

        /// A scratch directory unique to this process *and* proptest case.
        fn scratch(tag: &str) -> PathBuf {
            static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            tmp(&format!("prop-{tag}-{n}"))
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
        /// generation — the store refuses a delta with no full base. Seals it the
        /// way the live checkpoint path does (self-contained members restart the
        /// seal chain), since the store's loader verifies seals.
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

        proptest! {
        /// The checkpoint codec is exact: decode(encode(c)) == c for every
        /// field, including retention frames.
        #[test]
        fn checkpoint_round_trips(ckpt in arb_checkpoint()) {
            let bytes = ckpt.to_bytes();
            let back = EngineCheckpoint::from_bytes(&bytes).expect("well-formed bytes decode");
            prop_assert_eq!(back, ckpt);
        }
        /// The directory listing is the only index: a stray file beside the
        /// generations — the generation list an older build kept, say — is
        /// ignored, and every persisted generation still loads.
        #[test]
        fn a_stray_file_never_costs_a_generation(
            ckpts in proptest::collection::vec(arb_checkpoint(), 1..4),
            garbage in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let dir = scratch("stray");
            let store = CheckpointStore::open(&dir).expect("open store");
            let mut newest = std::collections::BTreeMap::new();
            for c in &ckpts {
                let c = self_contained(c.clone());
                let generation = store.persist_with(&c, true).expect("persist");
                newest.insert(c.engine, (generation, c));
            }
            drop(store);
            std::fs::write(dir.join("MANIFEST"), &garbage).expect("stray file");

            let store = CheckpointStore::open(&dir).expect("reopen from the listing");
            for (engine, (generation, ckpt)) in newest {
                let loaded = store
                    .load_chain(engine)
                    .expect("load beside a stray file")
                    .expect("generation still present");
                prop_assert_eq!(loaded.generation, generation);
                prop_assert!(!loaded.fell_back);
                prop_assert_eq!(loaded.chain, vec![ckpt]);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        }
    }
}
