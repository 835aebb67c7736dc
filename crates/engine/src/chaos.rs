//! Seeded chaos schedules for soak-testing the self-healing cluster.
//!
//! A [`ChaosPlan`] is a deterministic, seed-reproducible timeline of
//! disturbances: unannounced engine crashes (fail-stops the supervisor
//! must detect and recover on its own), one-directional link partitions,
//! and sender-side latency spikes. [`crate::Cluster::launch_chaos`] runs
//! the plan on a background driver thread; the soak test then asserts
//! that the deduplicated outputs of the tormented run are byte-identical
//! to a failure-free run — the paper's transparency claim, exercised
//! end-to-end with zero manual `kill`/`promote` calls.
//!
//! The driver enforces the paper's single-failure assumption (§II.A): after
//! injecting a crash it waits for the supervisor to complete the failover
//! before firing the next event.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use std::sync::Arc;
use tart_stats::DetRng;
use tart_vtime::EngineId;

use crate::store::parse_ckpt_name;
use crate::supervise::SupervisionMetrics;
use crate::{Envelope, Router};

/// How long the driver waits for the supervisor to recover a crash before
/// recording it as unrecovered and moving on.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(10);

/// One scheduled disturbance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Unannounced fail-stop: the engine's thread exits instantly, nobody
    /// is told. Detection and recovery are entirely the supervisor's job.
    Crash(EngineId),
    /// Start dropping payload traffic toward an engine (control plane
    /// still flows, so this loses data — not liveness).
    PartitionStart(EngineId),
    /// Heal the partition toward an engine.
    PartitionEnd(EngineId),
    /// Start delaying payload traffic toward an engine by the given amount.
    LatencyStart(EngineId, Duration),
    /// End the latency spike toward an engine.
    LatencyEnd(EngineId),
}

/// A post-mortem disk fault: damage dealt to a durability directory
/// *between* a whole-cluster crash and the subsequent
/// [`crate::Cluster::recover_from_disk`], simulating what real disks do to
/// processes that die mid-write (or to files that sit idle too long).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Shear bytes off the end of the newest WAL segment — the classic torn
    /// final write. Recovery truncates the tail and the producer re-sends
    /// its unacknowledged message.
    TornWalTail,
    /// Flip one bit inside a **sealed** (fsynced, non-final) WAL segment —
    /// stable storage decaying at rest. Unrecoverable by design: recovery
    /// must refuse loudly rather than replay garbage.
    BitFlipSealedSegment,
    /// Flip one bit in the newest checkpoint generation, full or delta.
    /// Recoverable: the store leaves the generation out, restore falls back
    /// to the chain before it and replay covers the difference.
    CorruptNewestCheckpoint,
}

impl DiskFault {
    /// Whether [`crate::Cluster::recover_from_disk`] is expected to succeed
    /// after this fault (`false` means recovery must *refuse*, which is
    /// also a form of correctness).
    pub fn recoverable(&self) -> bool {
        !matches!(self, DiskFault::BitFlipSealedSegment)
    }

    /// Applies the fault to the durability directory `dir` (the one passed
    /// to [`crate::ClusterConfig::with_durability`]). Returns `false` if
    /// the directory holds no applicable target (e.g. no sealed segment
    /// exists yet) — the fault is then a no-op.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading or rewriting the target files.
    pub fn apply(&self, dir: &Path) -> io::Result<bool> {
        match self {
            DiskFault::TornWalTail => {
                let Some(seg) = newest_segment(&dir.join("wal"))? else {
                    return Ok(false);
                };
                let len = std::fs::metadata(&seg)?.len();
                if len < 4 {
                    return Ok(false);
                }
                let f = std::fs::OpenOptions::new().write(true).open(&seg)?;
                f.set_len(len - 3)?;
                f.sync_all()?;
                Ok(true)
            }
            DiskFault::BitFlipSealedSegment => {
                let wal = dir.join("wal");
                let mut segs = segments(&wal)?;
                if segs.len() < 2 {
                    return Ok(false); // no sealed segment yet
                }
                segs.sort();
                flip_bit_mid_file(&segs[0])?;
                Ok(true)
            }
            DiskFault::CorruptNewestCheckpoint => {
                let ckpt = dir.join("ckpt");
                let mut newest: Option<(u64, std::path::PathBuf)> = None;
                for entry in std::fs::read_dir(&ckpt)? {
                    let path = entry?.path();
                    let Some((_, gen, _)) = path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .and_then(parse_ckpt_name)
                    else {
                        continue;
                    };
                    if newest.as_ref().is_none_or(|(g, _)| gen > *g) {
                        newest = Some((gen, path));
                    }
                }
                let Some((_, path)) = newest else {
                    return Ok(false);
                };
                flip_bit_mid_file(&path)?;
                Ok(true)
            }
        }
    }
}

fn segments(wal: &Path) -> io::Result<Vec<std::path::PathBuf>> {
    Ok(std::fs::read_dir(wal)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect())
}

fn newest_segment(wal: &Path) -> io::Result<Option<std::path::PathBuf>> {
    Ok(segments(wal)?.into_iter().max())
}

fn flip_bit_mid_file(path: &Path) -> io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Ok(());
    }
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(path, &bytes)
}

/// Shape parameters for [`ChaosPlan::generate`].
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Span of the schedule; all events land inside it.
    pub duration: Duration,
    /// Number of unannounced crashes.
    pub crashes: u32,
    /// Number of partition windows.
    pub partitions: u32,
    /// Number of latency-spike windows.
    pub latency_spikes: u32,
    /// Upper bound on injected latency.
    pub max_latency: Duration,
    /// Length of each partition/latency window.
    pub disturbance_len: Duration,
    /// Number of *recoverable* post-mortem disk faults to seed into
    /// [`ChaosPlan::disk_faults`] — applied by the harness between a
    /// whole-cluster crash and the cold restart, not by the live driver.
    pub disk_faults: u32,
}

impl Default for ChaosOptions {
    /// A multi-second soak: several crashes, partitions and spikes.
    fn default() -> Self {
        ChaosOptions {
            duration: Duration::from_secs(6),
            crashes: 3,
            partitions: 2,
            latency_spikes: 2,
            max_latency: Duration::from_millis(30),
            disturbance_len: Duration::from_millis(200),
            disk_faults: 2,
        }
    }
}

impl ChaosOptions {
    /// A sub-second smoke preset for CI: one crash, one partition, one
    /// latency spike.
    pub fn fast() -> Self {
        ChaosOptions {
            duration: Duration::from_millis(900),
            crashes: 1,
            partitions: 1,
            latency_spikes: 1,
            max_latency: Duration::from_millis(10),
            disturbance_len: Duration::from_millis(80),
            disk_faults: 1,
        }
    }
}

/// A deterministic disturbance timeline: `(offset from start, event)` in
/// ascending offset order. Same seed + same engines + same options ⇒ same
/// plan, so chaos failures reproduce.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// The seed the plan was generated from (kept for reporting).
    pub seed: u64,
    /// The schedule, ascending by offset.
    pub events: Vec<(Duration, ChaosEvent)>,
    /// Seeded post-mortem disk faults (all [`DiskFault::recoverable`]),
    /// for harnesses that crash the whole cluster and restart it from
    /// disk. The live driver never touches these — apply them via
    /// [`ChaosPlan::apply_disk_faults`] while the cluster is down.
    pub disk_faults: Vec<DiskFault>,
}

impl ChaosPlan {
    /// Generates a plan from `seed` over the given engines.
    ///
    /// Crashes are spread across the span (each in its own slot, so
    /// recoveries don't overlap — the single-failure assumption);
    /// partitions and latency spikes start anywhere that lets their window
    /// finish inside the span.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or the options ask for a disturbance
    /// window longer than the span.
    pub fn generate(seed: u64, engines: &[EngineId], opts: &ChaosOptions) -> ChaosPlan {
        assert!(!engines.is_empty(), "chaos needs at least one engine");
        assert!(
            opts.disturbance_len <= opts.duration,
            "disturbance window exceeds the plan span"
        );
        let mut rng = DetRng::seed_from(seed);
        let span_ms = opts.duration.as_millis() as u64;
        let mut events: Vec<(Duration, ChaosEvent)> = Vec::new();
        let pick =
            |rng: &mut DetRng| engines[rng.gen_range_u64(0, engines.len() as u64 - 1) as usize];

        // One crash per slot, jittered within the slot's middle half.
        let slot = span_ms / (u64::from(opts.crashes) + 1).max(1);
        for i in 0..u64::from(opts.crashes) {
            let base = slot * (i + 1);
            let jitter = rng.gen_range_u64(0, (slot / 2).max(1)) as i64 - (slot / 4) as i64;
            let at = base.saturating_add_signed(jitter).min(span_ms);
            events.push((Duration::from_millis(at), ChaosEvent::Crash(pick(&mut rng))));
        }

        let window_ms = opts.disturbance_len.as_millis() as u64;
        let latest_start = span_ms.saturating_sub(window_ms);
        for _ in 0..opts.partitions {
            let at = rng.gen_range_u64(0, latest_start.max(1));
            let engine = pick(&mut rng);
            events.push((
                Duration::from_millis(at),
                ChaosEvent::PartitionStart(engine),
            ));
            events.push((
                Duration::from_millis(at + window_ms),
                ChaosEvent::PartitionEnd(engine),
            ));
        }
        for _ in 0..opts.latency_spikes {
            let at = rng.gen_range_u64(0, latest_start.max(1));
            let engine = pick(&mut rng);
            let delay = Duration::from_millis(
                rng.gen_range_u64(1, opts.max_latency.as_millis().max(1) as u64),
            );
            events.push((
                Duration::from_millis(at),
                ChaosEvent::LatencyStart(engine, delay),
            ));
            events.push((
                Duration::from_millis(at + window_ms),
                ChaosEvent::LatencyEnd(engine),
            ));
        }

        events.sort_by_key(|(at, _)| *at);

        // Post-mortem disk faults: drawn from the recoverable kinds only —
        // a seeded soak must be able to restart; the must-refuse kind
        // (sealed-segment rot) is exercised by dedicated tests.
        const RECOVERABLE: [DiskFault; 2] =
            [DiskFault::TornWalTail, DiskFault::CorruptNewestCheckpoint];
        let disk_faults = (0..opts.disk_faults)
            .map(|_| RECOVERABLE[rng.gen_range_u64(0, RECOVERABLE.len() as u64 - 1) as usize])
            .collect();

        ChaosPlan {
            seed,
            events,
            disk_faults,
        }
    }

    /// Applies this plan's seeded disk faults to the durability directory
    /// `dir`. Call between [`crate::Cluster::crash`] and
    /// [`crate::Cluster::recover_from_disk`]. Returns the faults that found
    /// a target (the rest were no-ops on this particular on-disk state).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying file surgery.
    pub fn apply_disk_faults(&self, dir: &Path) -> io::Result<Vec<DiskFault>> {
        let mut applied = Vec::new();
        for fault in &self.disk_faults {
            if fault.apply(dir)? {
                applied.push(*fault);
            }
        }
        Ok(applied)
    }
}

/// What the chaos driver actually did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Crashes injected.
    pub crashes: u64,
    /// Partition windows opened.
    pub partitions: u64,
    /// Latency windows opened.
    pub latency_spikes: u64,
    /// Crashes the supervisor failed to recover within the driver's
    /// timeout — nonzero means the soak must fail.
    pub unrecovered: u64,
}

/// Handle on a running chaos driver; [`ChaosHandle::wait`] blocks until
/// the whole plan has executed (and every crash recovered).
pub struct ChaosHandle {
    thread: JoinHandle<ChaosReport>,
}

impl ChaosHandle {
    /// Blocks until the plan is done, returning the report.
    pub fn wait(self) -> ChaosReport {
        self.thread.join().expect("chaos driver panicked")
    }
}

/// Spawns the driver thread (crate-internal; reached via
/// [`crate::Cluster::launch_chaos`]).
pub(crate) fn launch(
    router: Router,
    supervision: Arc<Mutex<SupervisionMetrics>>,
    plan: ChaosPlan,
) -> ChaosHandle {
    let thread = std::thread::Builder::new()
        .name("tart-chaos".into())
        .spawn(move || {
            let start = Instant::now();
            let mut report = ChaosReport::default();
            let mut disturbed: BTreeSet<EngineId> = BTreeSet::new();
            for (offset, event) in plan.events {
                if let Some(wait) = (start + offset).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                match event {
                    ChaosEvent::Crash(id) => {
                        let before = supervision.lock().failovers;
                        // Die travels the control plane: a crash lands even
                        // on a partitioned engine.
                        router.send(id, Envelope::Die);
                        report.crashes += 1;
                        // Single-failure assumption: hold further events
                        // until the supervisor finished this recovery.
                        let deadline = Instant::now() + RECOVERY_TIMEOUT;
                        while supervision.lock().failovers <= before && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        if supervision.lock().failovers <= before {
                            report.unrecovered += 1;
                        }
                    }
                    ChaosEvent::PartitionStart(id) => {
                        router.set_partition(id, true);
                        disturbed.insert(id);
                        report.partitions += 1;
                    }
                    ChaosEvent::PartitionEnd(id) => router.set_partition(id, false),
                    ChaosEvent::LatencyStart(id, delay) => {
                        router.set_latency(id, delay);
                        disturbed.insert(id);
                        report.latency_spikes += 1;
                    }
                    ChaosEvent::LatencyEnd(id) => router.set_latency(id, Duration::ZERO),
                }
            }
            // Leave the cluster clean whatever the plan contained.
            for id in disturbed {
                router.set_partition(id, false);
                router.set_latency(id, Duration::ZERO);
            }
            report
        })
        .expect("spawn chaos driver");
    ChaosHandle { thread }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines(n: u32) -> Vec<EngineId> {
        (0..n).map(EngineId::new).collect()
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let opts = ChaosOptions::default();
        let a = ChaosPlan::generate(7, &engines(3), &opts);
        let b = ChaosPlan::generate(7, &engines(3), &opts);
        assert_eq!(a.events, b.events);
        let c = ChaosPlan::generate(8, &engines(3), &opts);
        assert_ne!(a.events, c.events, "different seed, different schedule");
    }

    #[test]
    fn plans_have_the_requested_shape() {
        let opts = ChaosOptions {
            crashes: 4,
            partitions: 3,
            latency_spikes: 2,
            ..ChaosOptions::default()
        };
        let plan = ChaosPlan::generate(42, &engines(2), &opts);
        let count = |f: fn(&ChaosEvent) -> bool| plan.events.iter().filter(|(_, e)| f(e)).count();
        assert_eq!(count(|e| matches!(e, ChaosEvent::Crash(_))), 4);
        assert_eq!(count(|e| matches!(e, ChaosEvent::PartitionStart(_))), 3);
        assert_eq!(count(|e| matches!(e, ChaosEvent::PartitionEnd(_))), 3);
        assert_eq!(count(|e| matches!(e, ChaosEvent::LatencyStart(..))), 2);
        assert_eq!(count(|e| matches!(e, ChaosEvent::LatencyEnd(_))), 2);
        // Ascending offsets, all inside the span (window ends included).
        let max = opts.duration + opts.disturbance_len;
        let mut prev = Duration::ZERO;
        for (at, _) in &plan.events {
            assert!(*at >= prev && *at <= max);
            prev = *at;
        }
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn empty_engine_set_rejected() {
        let _ = ChaosPlan::generate(1, &[], &ChaosOptions::default());
    }

    #[test]
    fn corrupt_newest_checkpoint_rots_a_delta() {
        let dir = std::env::temp_dir().join(format!("tart-chaos-rot-{}", std::process::id()));
        let ckpt = dir.join("ckpt");
        std::fs::create_dir_all(&ckpt).unwrap();
        let full = ckpt.join("ckpt-e0000-g00000000.bin");
        let delta = ckpt.join("ckpt-e0000-g00000001-d.bin");
        std::fs::write(&full, [0u8; 16]).unwrap();
        std::fs::write(&delta, [0u8; 16]).unwrap();
        assert!(DiskFault::CorruptNewestCheckpoint.apply(&dir).unwrap());
        assert_ne!(std::fs::read(&delta).unwrap(), [0u8; 16], "delta rotted");
        assert_eq!(std::fs::read(&full).unwrap(), [0u8; 16], "full untouched");
        std::fs::remove_dir_all(&dir).ok();
    }
}
