//! The on-disk checkpoint store.
//!
//! Checkpoints are the replay starting points; replay is only as available
//! as they are. The in-memory [`crate::ReplicaStore`] covers single-engine
//! failures, this store covers the rest: each persisted
//! [`EngineCheckpoint`] becomes a **generation** — a CRC-framed file
//! written to a temp name, fsynced, then atomically renamed — and a CRC'd
//! **manifest** records, per engine, the generations that exist, newest
//! last.
//!
//! A generation is either **full** (self-contained: every component
//! snapshot restores alone) or a **delta** against the chain since the
//! previous full (`-d` filename suffix; the manifest wire format is
//! unchanged). [`CheckpointStore::load_chain`] reconstructs the newest
//! restorable chain — one full head plus its verified deltas, oldest
//! first — truncating at the first damaged delta and falling back to the
//! previous full chain when a full itself is damaged (DESIGN.md §13). The
//! store keeps generations back through the [`KEPT_GENERATIONS`]-th-newest
//! full, so a whole chain can rot and recovery still succeeds. If the
//! manifest is unreadable it is rebuilt from the directory listing.
//!
//! Determinism faults (§II.G.4) are logged synchronously to an append-only
//! CRC-framed file per engine, fsynced per record, because a re-calibrated
//! estimator must never outlive its fault record.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use tart_codec::{crc32, Decode, Encode};
use tart_estimator::DeterminismFault;
use tart_vtime::{ComponentId, EngineId};

use crate::checkpoint::{seal_step, EngineCheckpoint};
use crate::wal::{scan_segment, sync_dir, FRAME_HEADER};

const MANIFEST: &str = "MANIFEST";
/// Full checkpoint chains kept per engine (each full plus its trailing
/// deltas). Two, so one whole chain can be corrupt and recovery still
/// succeeds — which is also why `TrimAck`s lag one *full* generation.
pub(crate) const KEPT_GENERATIONS: usize = 2;

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

/// A checkpoint loaded back from disk.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadedCheckpoint {
    /// Generation number the checkpoint was read from.
    pub generation: u64,
    /// Whether the newest generation failed verification and this is the
    /// previous one.
    pub fell_back: bool,
    /// The checkpoint itself.
    pub checkpoint: EngineCheckpoint,
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

/// The in-memory view of what exists on disk, all under one lock.
#[derive(Default)]
struct Index {
    /// engine raw id → all generation numbers, oldest first, newest last.
    gens: BTreeMap<u32, Vec<u64>>,
    /// engine raw id → the subset of generations that are full
    /// (self-contained) checkpoints, ascending.
    fulls: BTreeMap<u32, Vec<u64>>,
}

/// Write-temp + fsync + atomic-rename durable checkpoint storage with a
/// CRC'd generation manifest.
///
/// Shared freely (`Clone`); all methods take `&self`.
pub struct CheckpointStore {
    dir: PathBuf,
    index: Mutex<Index>,
    /// engine raw id → open fault-log file handle.
    fault_logs: Mutex<BTreeMap<u32, File>>,
    /// Observability hub; persist latency lands in its histogram. The
    /// store is on the ops plane, so timing here keeps the engine core
    /// free of wall-clock reads.
    obs: Mutex<Option<std::sync::Arc<tart_obs::ObsHub>>>,
}

fn ckpt_name(engine: u32, generation: u64) -> String {
    format!("ckpt-e{engine:04}-g{generation:08}.bin")
}

/// Delta generations carry a `-d` marker so the kind survives a manifest
/// rebuild (the manifest wire format itself only stores numbers).
fn delta_ckpt_name(engine: u32, generation: u64) -> String {
    format!("ckpt-e{engine:04}-g{generation:08}-d.bin")
}

fn ckpt_file_name(engine: u32, generation: u64, is_full: bool) -> String {
    if is_full {
        ckpt_name(engine, generation)
    } else {
        delta_ckpt_name(engine, generation)
    }
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
/// `sync` the temp file is fsynced before the rename and the directory
/// after it. `sync = false` lets the kernel schedule the writeback — the
/// Buffered durability tier's checkpoint persist, which trades a
/// machine-crash window for not paying two fsyncs per generation. Process
/// crashes lose nothing either way: renamed data survives the process.
fn write_atomic(dir: &Path, path: &Path, bytes: &[u8], sync: bool) -> Result<(), StoreError> {
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
    if sync {
        sync_dir(dir)?;
    }
    Ok(())
}

impl CheckpointStore {
    /// Opens (creating if absent) a checkpoint store rooted at `dir`.
    ///
    /// Reads the manifest if present; if the manifest is missing or fails
    /// its CRC, rebuilds it from the checkpoint files actually on disk
    /// (rename is atomic, so every `ckpt-*.bin` is either fully present or
    /// absent — the listing is trustworthy even after a crash).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be created or
    /// read.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Generation kinds (full vs delta) live in the filenames, so the
        // listing is scanned either way; the manifest only contributes the
        // authoritative generation list when it verifies.
        let (listed_gens, listed_fulls) = scan_ckpt_files(&dir)?;
        let index = match read_manifest(&dir.join(MANIFEST)) {
            Some(gens) => {
                let mut fulls = listed_fulls;
                for (engine, f) in fulls.iter_mut() {
                    let known = gens.get(engine).cloned().unwrap_or_default();
                    f.retain(|g| known.binary_search(g).is_ok());
                }
                Index { gens, fulls }
            }
            None => rebuilt_index(listed_gens, listed_fulls),
        };
        Ok(CheckpointStore {
            dir,
            index: Mutex::new(index),
            fault_logs: Mutex::new(BTreeMap::new()),
            obs: Mutex::new(None),
        })
    }

    /// Attaches the observability hub; subsequent [`CheckpointStore::persist_with`]
    /// calls record their latency in its checkpoint-persist histogram.
    pub fn set_obs(&self, hub: std::sync::Arc<tart_obs::ObsHub>) {
        *self.obs.lock() = Some(hub);
    }

    /// True if the store holds no checkpoint for any engine.
    pub fn is_empty(&self) -> bool {
        self.index.lock().gens.values().all(Vec::is_empty)
    }

    /// Engines with at least one persisted generation.
    pub fn engines(&self) -> Vec<EngineId> {
        self.index
            .lock()
            .gens
            .iter()
            .filter(|(_, gens)| !gens.is_empty())
            .map(|(e, _)| EngineId::new(*e))
            .collect()
    }

    /// Generation numbers currently kept for `engine`, oldest first.
    pub fn generations(&self, engine: EngineId) -> Vec<u64> {
        self.index
            .lock()
            .gens
            .get(&engine.raw())
            .cloned()
            .unwrap_or_default()
    }

    /// The subset of kept generations that are full (self-contained)
    /// checkpoints, oldest first.
    pub fn full_generations(&self, engine: EngineId) -> Vec<u64> {
        self.index
            .lock()
            .fulls
            .get(&engine.raw())
            .cloned()
            .unwrap_or_default()
    }

    /// Persists `ckpt` as a new generation for its engine: checkpoint file
    /// written atomically, manifest updated atomically, generations older
    /// than the two (`KEPT_GENERATIONS`) newest fulls' chains pruned.
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
    /// generation. The manifest update is always fsynced — it is tiny,
    /// shared across engines, and a stale manifest would orphan every
    /// tier's generations, not just the buffered engine's.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if any write, fsync or rename fails (the
    /// previous generation remains the manifest's newest in that case), or
    /// [`StoreError::Corrupt`] for a delta with no full base on disk —
    /// such a generation could never restore.
    pub fn persist_with(&self, ckpt: &EngineCheckpoint, sync: bool) -> Result<u64, StoreError> {
        let persist_started = std::time::Instant::now();
        let engine = ckpt.engine.raw();
        let is_full = ckpt.is_self_contained();
        let index = &mut *self.index.lock();
        let gens = index.gens.entry(engine).or_default();
        let fulls = index.fulls.entry(engine).or_default();
        if !is_full && fulls.is_empty() {
            return Err(StoreError::Corrupt {
                what: format!("delta checkpoint for {} has no full base", ckpt.engine),
            });
        }
        let generation = gens.last().map_or(0, |g| g + 1);
        let path = self.dir.join(ckpt_file_name(engine, generation, is_full));
        write_atomic(&self.dir, &path, &frame(&ckpt.to_bytes()), sync)?;
        gens.push(generation);
        if is_full {
            fulls.push(generation);
        }
        // Keep every generation back through the KEPT_GENERATIONS-th-newest
        // full: a full plus its trailing deltas form one restore chain, and
        // two whole chains must survive for the corruption fallback.
        let mut expired: Vec<(u64, bool)> = Vec::new();
        if fulls.len() > KEPT_GENERATIONS {
            let floor = fulls[fulls.len() - KEPT_GENERATIONS];
            let cut = gens.partition_point(|&g| g < floor);
            for g in gens.drain(..cut) {
                expired.push((g, fulls.binary_search(&g).is_ok()));
            }
            fulls.retain(|&g| g >= floor);
        }
        write_manifest(&self.dir, &index.gens)?;
        // Prune only after the manifest no longer references the old
        // generations; a crash between the two steps leaves harmless
        // unreferenced files that the next rebuild ignores or re-adopts.
        for (g, f) in expired {
            fs::remove_file(self.dir.join(ckpt_file_name(engine, g, f))).ok();
        }
        if let Some(obs) = &*self.obs.lock() {
            let elapsed = persist_started.elapsed().as_nanos();
            obs.checkpoint_persisted(u64::try_from(elapsed).unwrap_or(u64::MAX));
        }
        Ok(generation)
    }

    /// Loads the newest **full** generation for `engine` that passes
    /// verification, falling back at most one full. `Ok(None)` when the
    /// engine has no generations at all. Delta generations are skipped —
    /// use [`CheckpointStore::load_chain`] to restore through them.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] when every kept full generation
    /// fails verification, or [`StoreError::Io`] on read failure.
    pub fn load_latest(&self, engine: EngineId) -> Result<Option<LoadedCheckpoint>, StoreError> {
        if self.generations(engine).is_empty() {
            return Ok(None);
        }
        let fulls = self.full_generations(engine);
        for (attempt, &generation) in fulls.iter().rev().take(KEPT_GENERATIONS).enumerate() {
            let path = self.dir.join(ckpt_name(engine.raw(), generation));
            if let Some(checkpoint) = read_framed_checkpoint(&path) {
                // CRC guards the bytes; the seal guards the recorded state
                // hash itself. A full whose seal does not recompute is as
                // unusable as a torn one.
                if seal_step(None, 0, &checkpoint).is_err() {
                    continue;
                }
                return Ok(Some(LoadedCheckpoint {
                    generation,
                    fell_back: attempt > 0,
                    checkpoint,
                }));
            }
        }
        Err(StoreError::Corrupt {
            what: format!("all kept checkpoint generations for {engine} failed verification"),
        })
    }

    /// Loads the newest restorable chain for `engine`: the newest full
    /// generation that verifies, plus every consecutive verified delta
    /// after it. Verification is two layers: the CRC frame (torn or
    /// bit-rotted bytes) and the chain seal (a member whose recorded state
    /// hash or payload was rewritten under a recomputed CRC). A damaged
    /// delta truncates the chain there (everything before it is still a
    /// consistent restore point); a damaged full falls back to the previous
    /// full's chain. `Ok(None)` when the engine has no generations at all.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] when every kept full generation
    /// fails verification, or [`StoreError::Io`] on read failure.
    pub fn load_chain(&self, engine: EngineId) -> Result<Option<LoadedChain>, StoreError> {
        let (gens, fulls) = {
            let index = self.index.lock();
            (
                index.gens.get(&engine.raw()).cloned().unwrap_or_default(),
                index.fulls.get(&engine.raw()).cloned().unwrap_or_default(),
            )
        };
        let Some(&newest) = gens.last() else {
            return Ok(None);
        };
        let heads: Vec<u64> = fulls.iter().rev().take(KEPT_GENERATIONS).copied().collect();
        for (i, &head) in heads.iter().enumerate() {
            let head_path = self.dir.join(ckpt_name(engine.raw(), head));
            let Some(full) = read_framed_checkpoint(&head_path) else {
                continue; // damaged full: fall back to the previous chain
            };
            let Ok(mut prev_seal) = seal_step(None, 0, &full) else {
                continue; // seal-broken full: treated exactly like a torn one
            };
            // Deltas that belong to this chain: after this full, before the
            // next-newer full (for the newest chain there is none).
            let upper = if i == 0 { u64::MAX } else { heads[i - 1] };
            let mut chain = vec![full];
            let mut top = head;
            for &g in gens.iter().filter(|&&g| g > head && g < upper) {
                let is_full = fulls.binary_search(&g).is_ok();
                let path = self.dir.join(ckpt_file_name(engine.raw(), g, is_full));
                // A chain is only valid through its last intact link;
                // everything before the damage still restores. The seal
                // chains each member over its predecessor and covers the
                // recorded state hash, so a delta whose stored hash was
                // rewritten (CRC re-framed and all) truncates the chain
                // exactly like a torn one.
                let Some(c) = read_framed_checkpoint(&path) else {
                    break;
                };
                let Ok(seal) = seal_step(Some(prev_seal), chain.len(), &c) else {
                    break;
                };
                prev_seal = seal;
                chain.push(c);
                top = g;
            }
            return Ok(Some(LoadedChain {
                generation: top,
                fell_back: top != newest,
                chain,
            }));
        }
        Err(StoreError::Corrupt {
            what: format!("all kept checkpoint generations for {engine} failed verification"),
        })
    }

    /// Synchronously logs a determinism fault for `engine`: CRC-framed,
    /// appended, fsynced before returning.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the append or fsync fails.
    pub fn log_fault(
        &self,
        engine: EngineId,
        component: ComponentId,
        fault: &DeterminismFault,
    ) -> Result<(), StoreError> {
        let mut logs = self.fault_logs.lock();
        let file = match logs.entry(engine.raw()) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => e.insert(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(fault_log_name(engine.raw())))?,
            ),
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
    pub fn faults(
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

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("manifest", &self.index.lock().gens)
            .finish()
    }
}

/// Reads and verifies the manifest; `None` means missing or corrupt (the
/// caller rebuilds from the directory listing).
fn read_manifest(path: &Path) -> Option<BTreeMap<u32, Vec<u64>>> {
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
    BTreeMap::<u32, Vec<u64>>::from_bytes(body).ok()
}

fn write_manifest(dir: &Path, manifest: &BTreeMap<u32, Vec<u64>>) -> Result<(), StoreError> {
    write_atomic(dir, &dir.join(MANIFEST), &frame(&manifest.to_bytes()), true)
}

/// Lists the `ckpt-*.bin` files present: `(all generations, full
/// generations)` per engine, sorted ascending, unpruned.
type CkptListing = (BTreeMap<u32, Vec<u64>>, BTreeMap<u32, Vec<u64>>);

fn scan_ckpt_files(dir: &Path) -> Result<CkptListing, StoreError> {
    let mut gens: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut fulls: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some((engine, generation, is_full)) = parse_ckpt_name(&name) {
            gens.entry(engine).or_default().push(generation);
            if is_full {
                fulls.entry(engine).or_default().push(generation);
            }
        }
    }
    for v in gens.values_mut().chain(fulls.values_mut()) {
        v.sort_unstable();
    }
    Ok((gens, fulls))
}

/// Reconstructs the index from a directory listing, keeping generations
/// back through the [`KEPT_GENERATIONS`]-th-newest full per engine (the
/// same retention rule [`CheckpointStore::persist_with`] applies).
fn rebuilt_index(mut gens: BTreeMap<u32, Vec<u64>>, mut fulls: BTreeMap<u32, Vec<u64>>) -> Index {
    for (engine, g) in gens.iter_mut() {
        let f = fulls.entry(*engine).or_default();
        if f.len() > KEPT_GENERATIONS {
            let floor = f[f.len() - KEPT_GENERATIONS];
            g.retain(|&x| x >= floor);
            f.retain(|&x| x >= floor);
        }
    }
    Index { gens, fulls }
}

/// Parses `ckpt-e0001-g00000002.bin` → `(1, 2, true)` and the delta form
/// `ckpt-e0001-g00000002-d.bin` → `(1, 2, false)`.
fn parse_ckpt_name(name: &str) -> Option<(u32, u64, bool)> {
    let rest = name.strip_prefix("ckpt-e")?.strip_suffix(".bin")?;
    let (engine, gen_part) = rest.split_once("-g")?;
    let (generation, is_full) = match gen_part.strip_suffix("-d") {
        Some(g) => (g, false),
        None => (gen_part, true),
    };
    Some((engine.parse().ok()?, generation.parse().ok()?, is_full))
}

/// Reads a CRC-framed checkpoint file; `None` on any verification failure
/// (the caller falls back a generation).
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
        assert!(store.is_empty());
        assert_eq!(store.persist_with(&sample(1, 0), true).unwrap(), 0);
        assert_eq!(store.persist_with(&sample(1, 1), true).unwrap(), 1);
        assert_eq!(store.engines(), vec![EngineId::new(1)]);

        // A fresh open (new process) sees the same state via the manifest.
        let store = CheckpointStore::open(&dir).unwrap();
        let loaded = store.load_latest(EngineId::new(1)).unwrap().unwrap();
        assert_eq!(loaded.generation, 1);
        assert!(!loaded.fell_back);
        assert_eq!(loaded.checkpoint, sample(1, 1));
        assert_eq!(store.load_latest(EngineId::new(9)).unwrap(), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_generations_are_pruned() {
        let dir = tmp("prune");
        let store = CheckpointStore::open(&dir).unwrap();
        for seq in 0..5 {
            store.persist_with(&sample(0, seq), true).unwrap();
        }
        assert_eq!(store.generations(EngineId::new(0)), vec![3, 4]);
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
        let newest = dir.join(ckpt_name(2, 1));
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();

        let store = CheckpointStore::open(&dir).unwrap();
        let loaded = store.load_latest(EngineId::new(2)).unwrap().unwrap();
        assert!(loaded.fell_back, "newest failed, previous served");
        assert_eq!(loaded.generation, 0);
        assert_eq!(loaded.checkpoint, sample(2, 0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generations_corrupt_is_an_error() {
        let dir = tmp("allbad");
        let store = CheckpointStore::open(&dir).unwrap();
        store.persist_with(&sample(0, 0), true).unwrap();
        store.persist_with(&sample(0, 1), true).unwrap();
        for g in 0..2 {
            let path = dir.join(ckpt_name(0, g));
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            fs::write(&path, &bytes).unwrap();
        }
        assert!(matches!(
            store.load_latest(EngineId::new(0)),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_rebuilt_from_directory() {
        let dir = tmp("manifest");
        let store = CheckpointStore::open(&dir).unwrap();
        store.persist_with(&sample(3, 0), true).unwrap();
        store.persist_with(&sample(3, 1), true).unwrap();
        // Stomp the manifest.
        fs::write(dir.join(MANIFEST), b"not a manifest at all").unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        let loaded = store.load_latest(EngineId::new(3)).unwrap().unwrap();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.checkpoint, sample(3, 1));
        // Missing manifest rebuilds too.
        fs::remove_file(dir.join(MANIFEST)).unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.generations(EngineId::new(3)), vec![0, 1]);
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
        assert_eq!(store.generations(EngineId::new(0)), vec![0]);
        assert_eq!(store.generations(EngineId::new(1)), vec![0, 1]);
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
    fn delta_chain_round_trips_and_survives_manifest_loss() {
        let dir = tmp("chain");
        let store = CheckpointStore::open(&dir).unwrap();
        let e = EngineId::new(4);
        let mut want = vec![sample(4, 0), delta_sample(4, 1), delta_sample(4, 2)];
        seal_chain(&mut want);
        for c in &want {
            store.persist_with(c, true).unwrap(); // full g0, delta g1, delta g2
        }
        assert_eq!(store.full_generations(e), vec![0]);

        let loaded = store.load_chain(e).unwrap().unwrap();
        assert_eq!(loaded.generation, 2);
        assert!(!loaded.fell_back);
        assert_eq!(loaded.chain, want);

        // The kinds live in the filenames: stomp the manifest and the
        // rebuilt store still reconstructs the same chain.
        fs::write(dir.join(MANIFEST), b"garbage").unwrap();
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
        let mid = dir.join(delta_ckpt_name(5, 1));
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
        let mid = dir.join(delta_ckpt_name(9, 1));
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
        let head = dir.join(ckpt_name(9, 0));
        let bytes = fs::read(&head).unwrap();
        let mut tampered = EngineCheckpoint::from_bytes(&bytes[FRAME_HEADER..]).unwrap();
        tampered.state_hash = tart_model::hash_of(&u64::MAX);
        fs::write(&head, frame(&tampered.to_bytes())).unwrap();
        assert!(matches!(
            store.load_chain(e),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            store.load_latest(e),
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
        let newest_full = dir.join(ckpt_name(6, 2));
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
        assert_eq!(store.generations(e), vec![2, 3, 4, 5]);
        assert_eq!(store.full_generations(e), vec![2, 4]);
        assert!(!dir.join(ckpt_name(7, 0)).exists(), "old full pruned");
        assert!(
            !dir.join(delta_ckpt_name(7, 1)).exists(),
            "old delta pruned"
        );
        let loaded = store.load_chain(e).unwrap().unwrap();
        assert_eq!(loaded.generation, 5);
        assert_eq!(loaded.chain.len(), 2, "newest full + its delta");
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
}
