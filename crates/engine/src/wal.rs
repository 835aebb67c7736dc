//! A segmented, CRC-framed write-ahead log with tiered append lanes.
//!
//! The paper requires external messages to be logged "either to external
//! stable storage, or to the backup machine" (§II.E). This module is the
//! stable-storage half done properly: an append-only log split into
//! fixed-threshold **segments**, each record framed as
//! `u32 length (BE) | u32 crc32 (BE) | body`, where each append picks the
//! [`DurabilityPolicy`] lane that decides when it is forced to disk
//! ([`Wal::append_lane`]).
//!
//! # Write path
//!
//! Appends **frame into a user-space staging buffer** and hand completed
//! commit windows to a background flusher thread as jobs; the flusher owns
//! all file I/O (seek + write + fsync + rotation). Encoding therefore never
//! blocks on `sync_all` — while one buffer is being synced the next window
//! accumulates in a recycled spare (double buffering). Lanes share the one
//! log, so record order on disk is exactly append order across tiers:
//!
//! - [`DurabilityPolicy::Strict`] promotes the staging buffer with an fsync
//!   and blocks until the record is durable. A strict record riding behind
//!   buffered records forces the whole open window to disk with it.
//! - [`DurabilityPolicy::Buffered`] stages and returns immediately; the
//!   flusher closes the window when its `flush_window` deadline expires or
//!   when `BUFFERED_MAX_RECORDS` records have accumulated.
//! - [`DurabilityPolicy::InMemory`] records never reach the WAL at all
//!   (callers skip it; the lane API refuses them).
//!
//! Segments are **preallocated** to the rotation threshold (up to 1 GiB) so
//! steady-state appends never extend the file, and the flusher keeps one
//! preallocated spare (`wal-NNNNNNNN.pre`) ready to rename into place at
//! rotation — a one-deep recycle pool. Sealing truncates the segment to its
//! logical length, so sealed segments are always exact-sized.
//!
//! # Recovery
//!
//! Recovery ([`Wal::open`]) scans every segment in order. Sealed segments
//! (every segment but the last) were fsynced at rotation and must parse
//! completely — any corruption there is a hard [`WalError::Corrupt`]. The
//! *final* segment may legitimately end in a torn record (the crash the log
//! exists to survive): the scan stops at the first invalid record, truncates
//! the file back to the last valid one, and reports how many bytes were
//! discarded in the [`WalRecovery`] report. An **all-zero tail** is
//! preallocation padding, not a torn record: it is kept in place and
//! reported as zero truncated bytes.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tart_codec::crc32;

/// Per-record frame overhead: u32 length + u32 crc.
pub(crate) const FRAME_HEADER: usize = 8;

/// Record cap on a [`DurabilityPolicy::Buffered`] commit window: the window
/// closes early once this many records have staged, whatever the
/// `flush_window` deadline says. This is the "one flush window" that bounds
/// Buffered loss in DURABILITY.md, and the cap the mixed-tier crash loop in
/// `tests/cold_restart.rs` asserts against.
pub(crate) const BUFFERED_MAX_RECORDS: u32 = 512;

/// Segments at or below this size are preallocated to the rotation
/// threshold at creation (and recycled through the spare pool). Larger
/// thresholds — e.g. the `u64::MAX` used by single-segment tests — grow on
/// demand instead.
const PREALLOC_LIMIT: u64 = 1 << 30;

/// The single wall-clock read of the WAL plane. Group-commit windows,
/// per-tier flush deadlines, and fsync-latency telemetry all take their
/// `Instant`s here — this is the one reasoned TAINT-FLOW boundary for the
/// module. Commit pacing decides *when* bytes reach disk, never *which*
/// bytes, so replayed logic cannot observe it.
fn wall_now() -> Instant {
    Instant::now()
}

/// The older spelling of the Buffered lane, kept only because the
/// benchmark (`benchmark/`) still passes it to [`Wal::create`], [`Wal::open`],
/// [`crate::MessageLog::durable`] and [`crate::ClusterConfig::with_durability`].
/// Every such parameter takes `impl Into<DurabilityPolicy>`, and this
/// converts to [`DurabilityPolicy::Buffered`] with `flush_window:
/// max_delay`. `max_records` is ignored: the Buffered window is capped at
/// `BUFFERED_MAX_RECORDS`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// One fsync per commit window, closed after `max_delay`.
    GroupCommit {
        /// Ignored; the window closes at `BUFFERED_MAX_RECORDS`.
        max_records: u32,
        /// Becomes the Buffered lane's `flush_window`.
        max_delay: Duration,
    },
}

impl From<FsyncPolicy> for DurabilityPolicy {
    fn from(policy: FsyncPolicy) -> Self {
        let FsyncPolicy::GroupCommit { max_delay, .. } = policy;
        DurabilityPolicy::Buffered {
            flush_window: max_delay,
        }
    }
}

/// Per-component durability tier (ROADMAP item 3; see DURABILITY.md for the
/// normative contract table).
///
/// The derived ordering is by strictness — `InMemory < Buffered < Strict` —
/// so the strictest tier hosted by an engine is the `max()` of its
/// components' tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DurabilityPolicy {
    /// No stable storage at all: the component's inputs live only in
    /// memory and its recovery source is peer replay (upstream retention
    /// buffers). A machine crash loses whatever peers cannot resend.
    InMemory,
    /// Inputs ride the shared group-commit window and are acknowledged
    /// before they are durable: a crash loses at most the open window
    /// (`flush_window` of time, capped at `BUFFERED_MAX_RECORDS`
    /// records).
    Buffered {
        /// Maximum age of a staged record before the flusher forces the
        /// window closed.
        flush_window: Duration,
    },
    /// Every input is fsynced before the append returns: acknowledged
    /// records are never lost, and a strict append forces any riding
    /// buffered records down with it.
    Strict,
}

/// Errors from the write-ahead log.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A sealed (non-final) segment failed verification — stable storage
    /// itself has decayed, which truncation must not paper over.
    Corrupt {
        /// File name of the offending segment.
        segment: String,
        /// Byte offset of the first bad record within it.
        offset: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o failed: {e}"),
            WalError::Corrupt { segment, offset } => {
                write!(f, "sealed wal segment {segment} corrupt at offset {offset}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Records recovered, oldest first, with frames already verified.
    pub records: Vec<Vec<u8>>,
    /// Bytes discarded from the torn/corrupt tail of the final segment
    /// (zero on a clean shutdown; preallocation padding does not count).
    pub truncated_bytes: u64,
    /// Number of segment files scanned.
    pub segments: usize,
}

/// One scanned segment: the valid records and where validity ended.
pub(crate) struct SegmentScan {
    pub(crate) records: Vec<Vec<u8>>,
    /// Offset just past the last valid record.
    pub(crate) valid_len: u64,
    /// Total bytes in the file.
    pub(crate) file_len: u64,
}

pub(crate) fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if pos + FRAME_HEADER > bytes.len() {
            break; // torn header
        }
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 && crc == 0 {
            // Eight zero bytes are preallocation padding, never a record:
            // empty bodies are refused at append time precisely so the
            // scanner can tell padding from data.
            break;
        }
        let end = pos + FRAME_HEADER + len;
        if end > bytes.len() {
            break; // torn body
        }
        let body = &bytes[pos + FRAME_HEADER..end];
        if crc32(body) != crc {
            break; // corrupt record — caller decides whether that is fatal
        }
        records.push(body.to_vec());
        pos = end;
    }
    SegmentScan {
        records,
        valid_len: pos as u64,
        file_len: bytes.len() as u64,
    }
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:08}.seg")
}

fn spare_name(index: u64) -> String {
    format!("wal-{index:08}.pre")
}

/// Appends one `u32 length | u32 crc32 | body` frame to `buf`.
fn frame_into(buf: &mut Vec<u8>, body: &[u8]) {
    buf.reserve(body.len() + FRAME_HEADER);
    buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
    buf.extend_from_slice(&crc32(body).to_be_bytes());
    buf.extend_from_slice(body);
}

/// One unit of flusher work: a closed commit window (or a bare fsync /
/// rotation marker) bound for a specific segment offset.
struct Job {
    segment: u64,
    offset: u64,
    buf: Vec<u8>,
    /// Highest record index covered once this job lands.
    high: u64,
    /// Records carried in `buf` (zero for bare fsync / seal jobs).
    records: u32,
    sync: bool,
    /// Whether a strict-lane append closed this window (telemetry only).
    strict: bool,
    rotate_after: bool,
    /// Logical length to seal the segment at when rotating.
    seal_len: u64,
}

/// Everything the appender and the flusher share, under one mutex.
struct State {
    /// Open commit window: frames staged in user space, not yet handed to
    /// the flusher.
    staging: Vec<u8>,
    staging_records: u32,
    /// When the flusher must force the open window closed.
    staging_deadline: Option<Instant>,
    /// Segment the staging buffer will land in.
    staging_segment: u64,
    /// Bytes of that segment already promoted to the flusher.
    staging_offset: u64,
    segment_bytes: u64,
    /// Records assigned an index so far (1-based; 0 = none).
    assigned: u64,
    /// Highest index handed to the kernel (written, maybe unsynced).
    written_index: u64,
    /// Highest index covered by a completed fsync.
    durable_index: u64,
    jobs: VecDeque<Job>,
    inflight: bool,
    /// First flusher I/O failure; sticky — surfaces on every later call.
    error: Option<(std::io::ErrorKind, String)>,
    shutdown: bool,
    /// Set by [`Wal::crash_discard`]: the open window is gone and shutdown
    /// must not flush or tidy the files.
    crashed: bool,
    /// Recycled window buffers (double buffering).
    spare_bufs: Vec<Vec<u8>>,
    obs: Option<Arc<tart_obs::ObsHub>>,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the flusher: new job, new deadline, shutdown, crash.
    work: Condvar,
    /// Wakes appenders waiting on durability or drain.
    done: Condvar,
}

fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stages one framed record into the open window; returns its index.
fn stage(st: &mut State, body: &[u8]) -> u64 {
    frame_into(&mut st.staging, body);
    st.staging_records += 1;
    st.assigned += 1;
    st.assigned
}

/// Closes the open window into a flusher job. Rotation is decided here — a
/// window that pushes the segment past its threshold seals it (sealing
/// always fsyncs, whatever `sync` says). No-op when there is nothing to
/// write and no rotation due.
fn promote_locked(st: &mut State, sync: bool, strict: bool) {
    let rotate = st.staging_offset + st.staging.len() as u64 >= st.segment_bytes;
    if st.staging.is_empty() && !rotate {
        return;
    }
    let buf = std::mem::replace(&mut st.staging, st.spare_bufs.pop().unwrap_or_default());
    let seal_len = st.staging_offset + buf.len() as u64;
    let job = Job {
        segment: st.staging_segment,
        offset: st.staging_offset,
        high: st.assigned,
        records: st.staging_records,
        sync: sync || rotate,
        strict,
        rotate_after: rotate,
        seal_len,
        buf,
    };
    st.staging_records = 0;
    st.staging_deadline = None;
    if rotate {
        st.staging_segment += 1;
        st.staging_offset = 0;
    } else {
        st.staging_offset = seal_len;
    }
    st.jobs.push_back(job);
}

/// The flusher's side of the world: file handles and the spare-segment
/// recycle pool. Lives on the flusher thread; never touches the mutex.
struct FlusherIo {
    dir: PathBuf,
    segment_bytes: u64,
    prealloc: bool,
    current: Option<(u64, File)>,
    spare: Option<(u64, PathBuf)>,
}

impl FlusherIo {
    fn file_for(&mut self, segment: u64) -> std::io::Result<&File> {
        let cached = matches!(&self.current, Some((idx, _)) if *idx == segment);
        if !cached {
            let path = self.dir.join(segment_name(segment));
            let file = OpenOptions::new().write(true).open(&path)?;
            self.current = Some((segment, file));
        }
        Ok(&self.current.as_ref().expect("segment file cached").1)
    }

    fn create_segment(&self, path: &Path) -> std::io::Result<File> {
        let f = OpenOptions::new().create_new(true).write(true).open(path)?;
        if self.prealloc {
            f.set_len(self.segment_bytes)?;
        }
        Ok(f)
    }

    /// Makes segment `index` the current file: renames the preallocated
    /// spare into place when it matches, creates fresh otherwise, and
    /// fsyncs the directory so the new name is durable.
    fn install_segment(&mut self, index: u64) -> std::io::Result<()> {
        let path = self.dir.join(segment_name(index));
        let file = match self.spare.take() {
            Some((spare_idx, spare_path)) if spare_idx == index => {
                fs::rename(&spare_path, &path)?;
                OpenOptions::new().write(true).open(&path)?
            }
            Some((_, spare_path)) => {
                let _ = fs::remove_file(&spare_path);
                self.create_segment(&path)?
            }
            None => self.create_segment(&path)?,
        };
        sync_dir(&self.dir)?;
        self.current = Some((index, file));
        Ok(())
    }

    /// Best-effort: keep one preallocated `.pre` file ready for the next
    /// rotation. Failure here never fails an append — the rotation path
    /// just falls back to `create_new`.
    fn replenish_spare(&mut self, index: u64) {
        if !self.prealloc || self.spare.is_some() {
            return;
        }
        let path = self.dir.join(spare_name(index));
        match OpenOptions::new().create_new(true).write(true).open(&path) {
            Ok(f) if f.set_len(self.segment_bytes).is_ok() => {
                self.spare = Some((index, path));
            }
            Ok(_) => {
                let _ = fs::remove_file(&path);
            }
            Err(_) => {}
        }
    }

    fn discard_spare(&mut self) {
        if let Some((_, path)) = self.spare.take() {
            let _ = fs::remove_file(path);
        }
    }

    fn process(&mut self, job: &Job, obs: Option<&tart_obs::ObsHub>) -> std::io::Result<()> {
        {
            let mut file = self.file_for(job.segment)?;
            if !job.buf.is_empty() {
                file.seek(SeekFrom::Start(job.offset))?;
                file.write_all(&job.buf)?;
            }
            if job.sync {
                let t0 = wall_now();
                file.sync_data()?;
                let ns = wall_now().duration_since(t0).as_nanos() as u64;
                if let Some(hub) = obs {
                    if job.records > 0 {
                        hub.wal_group_commit(u64::from(job.records));
                    }
                    hub.wal_fsync_ns(job.strict, ns);
                }
            }
            if job.rotate_after {
                file.set_len(job.seal_len)?;
                file.sync_all()?;
            }
        }
        if job.rotate_after {
            self.current = None;
            self.install_segment(job.segment + 1)?;
            self.replenish_spare(job.segment + 2);
        }
        Ok(())
    }
}

fn run_flusher(shared: Arc<Shared>, mut io: FlusherIo) {
    let mut g = lock_state(&shared);
    loop {
        if let Some(mut job) = g.jobs.pop_front() {
            g.inflight = true;
            let obs = g.obs.clone();
            drop(g);
            let result = io.process(&job, obs.as_deref());
            g = lock_state(&shared);
            g.inflight = false;
            match result {
                Ok(()) => {
                    g.written_index = g.written_index.max(job.high);
                    if job.sync {
                        g.durable_index = g.durable_index.max(job.high);
                    }
                    let mut buf = std::mem::take(&mut job.buf);
                    if !buf.is_empty() && g.spare_bufs.len() < 2 {
                        buf.clear();
                        g.spare_bufs.push(buf);
                    }
                }
                Err(e) => {
                    if g.error.is_none() {
                        g.error = Some((e.kind(), e.to_string()));
                    }
                }
            }
            shared.done.notify_all();
            continue;
        }
        if g.shutdown {
            break;
        }
        if !g.staging.is_empty() && !g.crashed {
            if let Some(deadline) = g.staging_deadline {
                let now = wall_now();
                if now >= deadline {
                    promote_locked(&mut g, true, false);
                    continue;
                }
                let (guard, _) = shared
                    .work
                    .wait_timeout(g, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                g = guard;
                continue;
            }
        }
        g = shared.work.wait(g).unwrap_or_else(PoisonError::into_inner);
    }
    let crashed = g.crashed;
    drop(g);
    if !crashed {
        io.discard_spare();
    }
}

/// Removes stray preallocated spares; they are advisory and never hold data.
fn clear_spares(dir: &Path) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".pre") {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// A segmented, CRC-framed append-only log of opaque byte records.
///
/// # Example
///
/// ```
/// use tart_engine::{DurabilityPolicy, Wal};
///
/// let dir = std::env::temp_dir().join(format!("wal-doc-{}", std::process::id()));
/// let mut wal = Wal::create(&dir, 1024, DurabilityPolicy::Strict)?;
/// wal.append_lane(b"hello", DurabilityPolicy::Strict)?;
/// drop(wal);
/// let (wal, recovery) = Wal::open(&dir, 1024, DurabilityPolicy::Strict)?;
/// assert_eq!(recovery.records, vec![b"hello".to_vec()]);
/// assert_eq!(recovery.truncated_bytes, 0);
/// drop(wal);
/// std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), tart_engine::WalError>(())
/// ```
pub struct Wal {
    dir: PathBuf,
    /// The lane a record rides unless its caller pins one.
    default: DurabilityPolicy,
    shared: Arc<Shared>,
    flusher: Option<JoinHandle<()>>,
}

impl Wal {
    /// Creates a fresh WAL in `dir` (which must be empty of segments),
    /// rotating segments once they exceed `segment_bytes`; records ride the
    /// `default` lane unless their caller pins one.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the directory cannot be created or
    /// already contains segment files.
    pub fn create(
        dir: impl AsRef<Path>,
        segment_bytes: u64,
        default: impl Into<DurabilityPolicy>,
    ) -> Result<Self, WalError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if !list_segments(&dir)?.is_empty() {
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "wal directory already contains segments; use Wal::open to recover",
            )));
        }
        clear_spares(&dir)?;
        let segment_bytes = segment_bytes.max(FRAME_HEADER as u64 + 1);
        let first = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(dir.join(segment_name(0)))?;
        if segment_bytes <= PREALLOC_LIMIT {
            first.set_len(segment_bytes)?;
        }
        drop(first);
        Ok(Wal::start(dir, segment_bytes, default.into(), 0, 0))
    }

    /// Opens an existing WAL, verifying every record. Sealed segments must
    /// be fully valid; a torn or corrupt tail of the final segment is
    /// truncated away and reported. An all-zero tail is preallocation
    /// padding and is kept.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Corrupt`] for sealed-segment corruption or
    /// [`WalError::Io`] on read failure.
    pub fn open(
        dir: impl AsRef<Path>,
        segment_bytes: u64,
        default: impl Into<DurabilityPolicy>,
    ) -> Result<(Self, WalRecovery), WalError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        clear_spares(&dir)?;
        let segments = list_segments(&dir)?;
        if segments.is_empty() {
            let wal = Wal::create(&dir, segment_bytes, default)?;
            return Ok((wal, WalRecovery::default()));
        }
        let mut recovery = WalRecovery {
            segments: segments.len(),
            ..WalRecovery::default()
        };
        let last = segments.len() - 1;
        let mut last_valid_len = 0u64;
        for (i, (index, path)) in segments.iter().enumerate() {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let scan = scan_segment(&bytes);
            if scan.valid_len < scan.file_len {
                let tail_is_padding = bytes[scan.valid_len as usize..].iter().all(|b| *b == 0);
                if tail_is_padding {
                    // Preallocation padding past the last record — clean.
                } else if i < last {
                    return Err(WalError::Corrupt {
                        segment: segment_name(*index),
                        offset: scan.valid_len,
                    });
                } else {
                    // Torn or corrupt tail of the active segment: truncate
                    // back to the last valid record so appends continue
                    // cleanly.
                    recovery.truncated_bytes = scan.file_len - scan.valid_len;
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(scan.valid_len)?;
                    f.sync_all()?;
                }
            }
            if i == last {
                last_valid_len = scan.valid_len;
            }
            recovery.records.extend(scan.records);
        }
        let segment_bytes = segment_bytes.max(FRAME_HEADER as u64 + 1);
        let active_index = segments[last].0;
        let wal = Wal::start(
            dir,
            segment_bytes,
            default.into(),
            active_index,
            last_valid_len,
        );
        // A recovered active segment past the threshold seals immediately
        // (an empty promote still rotates when the offset is past the
        // threshold).
        {
            let mut g = wal.lock();
            if g.staging_offset >= g.segment_bytes {
                promote_locked(&mut g, true, false);
                wal.shared.work.notify_one();
            }
        }
        Ok((wal, recovery))
    }

    fn start(
        dir: PathBuf,
        segment_bytes: u64,
        default: DurabilityPolicy,
        staging_segment: u64,
        staging_offset: u64,
    ) -> Self {
        let state = State {
            staging: Vec::new(),
            staging_records: 0,
            staging_deadline: None,
            staging_segment,
            staging_offset,
            segment_bytes,
            assigned: 0,
            written_index: 0,
            durable_index: 0,
            jobs: VecDeque::new(),
            inflight: false,
            error: None,
            shutdown: false,
            crashed: false,
            spare_bufs: Vec::new(),
            obs: None,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let io = FlusherIo {
            dir: dir.clone(),
            segment_bytes,
            prealloc: segment_bytes <= PREALLOC_LIMIT,
            current: None,
            spare: None,
        };
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tart-wal-flusher".into())
                .spawn(move || run_flusher(shared, io))
                .expect("spawn wal flusher thread")
        };
        Wal {
            dir,
            default,
            shared,
            flusher: Some(flusher),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        lock_state(&self.shared)
    }

    fn check_error(st: &State) -> Result<(), WalError> {
        if let Some((kind, msg)) = &st.error {
            return Err(WalError::Io(std::io::Error::new(*kind, msg.clone())));
        }
        Ok(())
    }

    fn reject_empty(body: &[u8]) -> Result<(), WalError> {
        if body.is_empty() {
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "empty record bodies are not supported (an all-zero frame is \
                 indistinguishable from preallocation padding)",
            )));
        }
        Ok(())
    }

    /// Blocks until every record up to `idx` is fsynced (or the flusher has
    /// failed).
    fn wait_durable(&self, idx: u64) -> Result<(), WalError> {
        let mut g = self.lock();
        loop {
            if g.durable_index >= idx {
                return Ok(());
            }
            Self::check_error(&g)?;
            g = self
                .shared
                .done
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The lane a record rides unless its caller pins one (the tier given
    /// to [`Wal::create`] or [`Wal::open`]).
    pub(crate) fn default_tier(&self) -> DurabilityPolicy {
        self.default
    }

    /// Appends one record on an explicit durability lane. All lanes share
    /// the same segments, so disk order is append order across tiers.
    /// Returns the record's 1-based index within this process's session
    /// (compare with `Wal::durable_index`).
    ///
    /// - [`DurabilityPolicy::Strict`]: forces the open window (including
    ///   any riding buffered records) to disk and blocks until durable.
    /// - [`DurabilityPolicy::Buffered`]: stages and returns; the flusher
    ///   closes the window at the `flush_window` deadline or at
    ///   `BUFFERED_MAX_RECORDS` staged records, whichever comes first.
    /// - [`DurabilityPolicy::InMemory`]: refused — such records must never
    ///   reach the WAL; the caller keeps them in memory only.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on write/fsync failure, for an empty body,
    /// or for the `InMemory` tier.
    pub fn append_lane(&mut self, body: &[u8], tier: DurabilityPolicy) -> Result<u64, WalError> {
        Self::reject_empty(body)?;
        match tier {
            DurabilityPolicy::InMemory => Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "InMemory records never reach the WAL",
            ))),
            DurabilityPolicy::Strict => {
                let idx = {
                    let mut g = self.lock();
                    Self::check_error(&g)?;
                    let idx = stage(&mut g, body);
                    promote_locked(&mut g, true, true);
                    self.shared.work.notify_one();
                    idx
                };
                self.wait_durable(idx)?;
                Ok(idx)
            }
            DurabilityPolicy::Buffered { flush_window } => {
                let mut g = self.lock();
                Self::check_error(&g)?;
                let idx = stage(&mut g, body);
                let rotate_pending = g.staging_offset + g.staging.len() as u64 >= g.segment_bytes;
                if g.staging_records >= BUFFERED_MAX_RECORDS || rotate_pending {
                    promote_locked(&mut g, true, false);
                } else {
                    let d = wall_now() + flush_window;
                    g.staging_deadline = Some(match g.staging_deadline {
                        Some(cur) => cur.min(d),
                        None => d,
                    });
                }
                self.shared.work.notify_one();
                Ok(idx)
            }
        }
    }

    /// Forces everything appended so far to stable storage and closes any
    /// open commit window. Blocks until the fsync completes.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the fsync fails.
    pub fn sync(&mut self) -> Result<(), WalError> {
        let target = {
            let mut g = self.lock();
            Self::check_error(&g)?;
            let target = g.assigned;
            if !g.staging.is_empty() {
                promote_locked(&mut g, true, false);
                self.shared.work.notify_one();
            } else if g.durable_index < target || !g.jobs.is_empty() {
                // Everything staged is already queued or written; a bare
                // fsync job (FIFO behind any pending writes) covers it.
                let job = Job {
                    segment: g.staging_segment,
                    offset: g.staging_offset,
                    buf: Vec::new(),
                    high: target,
                    records: 0,
                    sync: true,
                    strict: false,
                    rotate_after: false,
                    seal_len: g.staging_offset,
                };
                g.jobs.push_back(job);
                self.shared.work.notify_one();
            }
            target
        };
        self.wait_durable(target)
    }

    /// Simulates a process crash for recovery drills: the open commit
    /// window (records staged but not yet handed to the kernel) is
    /// discarded, queued windows drain to the file, and the WAL refuses
    /// further tidying on drop — files are left exactly as the "crash"
    /// found them, preallocation padding included. Returns the highest
    /// record index that reached the kernel (what [`Wal::open`] will
    /// recover after an in-process crash).
    pub(crate) fn crash_discard(&mut self) -> u64 {
        let mut g = self.lock();
        g.crashed = true;
        g.staging.clear();
        g.staging_records = 0;
        g.staging_deadline = None;
        self.shared.work.notify_all();
        while !g.jobs.is_empty() || g.inflight {
            g = self
                .shared
                .done
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
        g.written_index
    }

    /// Attaches the observability hub: every subsequent fsync records its
    /// latency (split by strict vs buffered lane) and how many appends the
    /// closed window accumulated.
    pub(crate) fn set_obs(&mut self, hub: Arc<tart_obs::ObsHub>) {
        self.lock().obs = Some(hub);
    }

    /// Highest record index covered by a completed fsync (1-based; 0 =
    /// none). Indices count appends within this process's session.
    pub(crate) fn durable_index(&self) -> u64 {
        self.lock().durable_index
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let (segment, len, crashed) = {
            let mut g = self.lock();
            if !g.crashed && !g.staging.is_empty() {
                promote_locked(&mut g, false, false);
            }
            g.shutdown = true;
            self.shared.work.notify_all();
            (g.staging_segment, g.staging_offset, g.crashed)
        };
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        if !crashed {
            // Clean close: trim preallocation padding so the active
            // segment's file length equals its logical length.
            if let Ok(f) = OpenOptions::new()
                .write(true)
                .open(self.dir.join(segment_name(segment)))
            {
                let _ = f.set_len(len);
            }
        }
    }
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.lock();
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("segment", &g.staging_segment)
            .field("assigned", &g.assigned)
            .field("durable", &g.durable_index)
            .field("default", &self.default)
            .finish()
    }
}

/// All segment files in `dir`, ascending by index.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            segments.push((index, entry.path()));
        }
    }
    segments.sort();
    Ok(segments)
}

/// Fsyncs a directory so renames/creations within it are durable (no-op on
/// platforms where directories cannot be opened).
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match File::open(dir) {
        Ok(f) => f.sync_all(),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tart-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Appends on the log's default lane.
    fn append(wal: &mut Wal, body: &[u8]) -> Result<u64, WalError> {
        wal.append_lane(body, wal.default_tier())
    }

    /// Records staged in `wal`'s open commit window.
    fn staged(wal: &Wal) -> u32 {
        wal.lock().staging_records
    }

    /// Segment files in `dir` (sealed + active; spares excluded).
    fn segments(dir: &Path) -> usize {
        fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".seg")
            })
            .count()
    }

    /// Polls for an asynchronous flusher effect (deadline syncs land on the
    /// flusher's clock, not the appender's).
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = wall_now() + Duration::from_secs(10);
        while !cond() {
            assert!(wall_now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn round_trip_and_reopen() {
        let dir = tmp("roundtrip");
        {
            let mut wal = Wal::create(&dir, 4096, DurabilityPolicy::Strict).unwrap();
            append(&mut wal, b"one").unwrap();
            append(&mut wal, b"two").unwrap();
            append(&mut wal, b"three").unwrap();
        }
        let (mut wal, rec) = Wal::open(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        assert_eq!(
            rec.records,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.segments, 1);
        // Appends continue after recovery.
        append(&mut wal, b"four").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        assert_eq!(rec.records.len(), 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_segments_at_threshold() {
        let dir = tmp("rotate");
        let mut wal = Wal::create(&dir, 32, DurabilityPolicy::Strict).unwrap();
        for i in 1..=10u8 {
            append(&mut wal, &[i; 16]).unwrap();
        }
        assert!(segments(&dir) > 1, "threshold forces rotation");
        drop(wal);
        let (_, rec) = Wal::open(&dir, 32, DurabilityPolicy::Strict).unwrap();
        assert_eq!(rec.records.len(), 10);
        assert!(rec.segments > 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = tmp("torn");
        {
            let mut wal = Wal::create(&dir, 4096, DurabilityPolicy::Strict).unwrap();
            append(&mut wal, b"keep-me").unwrap();
            append(&mut wal, b"torn-away").unwrap();
        }
        let seg = dir.join(segment_name(0));
        let full = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(full - 4).unwrap();
        drop(f);
        let (mut wal, rec) = Wal::open(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        assert_eq!(rec.records, vec![b"keep-me".to_vec()]);
        assert_eq!(
            rec.truncated_bytes,
            b"torn-away".len() as u64 + FRAME_HEADER as u64 - 4
        );
        // The file was physically truncated: a fresh append lands cleanly.
        append(&mut wal, b"after").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        assert_eq!(rec.records, vec![b"keep-me".to_vec(), b"after".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_tail_of_final_segment_is_truncated() {
        let dir = tmp("crc-tail");
        {
            let mut wal = Wal::create(&dir, 4096, DurabilityPolicy::Strict).unwrap();
            append(&mut wal, b"solid").unwrap();
            append(&mut wal, b"rotten").unwrap();
        }
        let seg = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();
        let (_, rec) = Wal::open(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        assert_eq!(rec.records, vec![b"solid".to_vec()]);
        assert!(rec.truncated_bytes > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preallocated_padding_is_not_a_torn_tail() {
        let dir = tmp("padding");
        let mut wal = Wal::create(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        append(&mut wal, b"one").unwrap();
        append(&mut wal, b"two").unwrap();
        wal.sync().unwrap();
        let survived = wal.crash_discard();
        assert_eq!(survived, 2);
        drop(wal);
        let seg = dir.join(segment_name(0));
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            4096,
            "a crash leaves the preallocated padding in place"
        );
        let (_, rec) = Wal::open(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(rec.truncated_bytes, 0, "zero padding is not a torn tail");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_segment_corruption_is_fatal() {
        let dir = tmp("sealed");
        {
            let mut wal = Wal::create(&dir, 24, DurabilityPolicy::Strict).unwrap();
            for i in 1..=6u8 {
                append(&mut wal, &[i; 16]).unwrap();
            }
            assert!(segments(&dir) > 1);
        }
        // Flip a byte in the FIRST (sealed) segment's first record body.
        let seg = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        bytes[FRAME_HEADER + 2] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        match Wal::open(&dir, 24, DurabilityPolicy::Strict) {
            Err(WalError::Corrupt { segment, offset }) => {
                assert_eq!(segment, segment_name(0));
                assert_eq!(offset, 0);
            }
            other => panic!("expected sealed corruption, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_spelling_is_a_buffered_lane() {
        let dir = tmp("group-delay");
        let policy = FsyncPolicy::GroupCommit {
            max_records: 1_000_000,
            max_delay: Duration::from_millis(10),
        };
        assert_eq!(
            DurabilityPolicy::from(policy),
            DurabilityPolicy::Buffered {
                flush_window: Duration::from_millis(10)
            }
        );
        let mut wal = Wal::create(&dir, 4096, policy).unwrap();
        append(&mut wal, b"opens-the-window").unwrap();
        assert_eq!(staged(&wal), 1, "a buffered append returns open");
        // The flusher's own deadline timer forces the sync — no second
        // append is needed.
        wait_for("deadline fsync", || wal.durable_index() == 1);
        assert_eq!(staged(&wal), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_lane_blocks_until_durable() {
        let dir = tmp("strict");
        let mut wal = Wal::create(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        let idx = wal
            .append_lane(b"ledger", DurabilityPolicy::Strict)
            .unwrap();
        assert_eq!(idx, 1);
        assert_eq!(
            wal.durable_index(),
            1,
            "a strict append returns only after its fsync completed"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_append_closes_the_buffered_window() {
        let dir = tmp("strict-closes");
        let buffered = DurabilityPolicy::Buffered {
            flush_window: Duration::from_secs(3600),
        };
        let mut wal = Wal::create(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        wal.append_lane(b"buffered-1", buffered).unwrap();
        wal.append_lane(b"buffered-2", buffered).unwrap();
        assert_eq!(staged(&wal), 2);
        wal.append_lane(b"strict", DurabilityPolicy::Strict)
            .unwrap();
        assert_eq!(staged(&wal), 0);
        assert_eq!(
            wal.durable_index(),
            3,
            "the strict fsync carried the riding buffered records with it"
        );
        drop(wal);
        let (_, rec) = Wal::open(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        assert_eq!(
            rec.records,
            vec![
                b"buffered-1".to_vec(),
                b"buffered-2".to_vec(),
                b"strict".to_vec()
            ],
            "lanes share one log: disk order is append order"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn buffered_lane_flushes_at_record_cap() {
        let dir = tmp("buffered-cap");
        let buffered = DurabilityPolicy::Buffered {
            flush_window: Duration::from_secs(3600),
        };
        let mut wal = Wal::create(&dir, 1 << 24, DurabilityPolicy::Strict).unwrap();
        for _ in 0..BUFFERED_MAX_RECORDS {
            wal.append_lane(b"x", buffered).unwrap();
        }
        assert_eq!(staged(&wal), 0, "the cap closed the window");
        wait_for("cap fsync", || {
            wal.durable_index() == u64::from(BUFFERED_MAX_RECORDS)
        });
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn buffered_lane_flushes_at_deadline() {
        let dir = tmp("buffered-deadline");
        let buffered = DurabilityPolicy::Buffered {
            flush_window: Duration::from_millis(10),
        };
        let mut wal = Wal::create(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        wal.append_lane(b"hot-path", buffered).unwrap();
        assert_eq!(staged(&wal), 1, "buffered append returns open");
        wait_for("flush-window fsync", || wal.durable_index() == 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_discard_drops_the_open_window() {
        let dir = tmp("crash-discard");
        let buffered = DurabilityPolicy::Buffered {
            flush_window: Duration::from_secs(3600),
        };
        let mut wal = Wal::create(&dir, u64::MAX, DurabilityPolicy::Strict).unwrap();
        append(&mut wal, b"written").unwrap();
        wal.sync().unwrap();
        wal.append_lane(b"still-staged", buffered).unwrap();
        let survived = wal.crash_discard();
        assert_eq!(survived, 1, "the open window never reached the kernel");
        drop(wal);
        let (_, rec) = Wal::open(&dir, u64::MAX, DurabilityPolicy::Strict).unwrap();
        assert_eq!(rec.records, vec![b"written".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_lane_is_refused() {
        let dir = tmp("in-memory");
        let mut wal = Wal::create(&dir, 4096, DurabilityPolicy::Strict).unwrap();
        assert!(matches!(
            wal.append_lane(b"x", DurabilityPolicy::InMemory),
            Err(WalError::Io(_))
        ));
        assert!(matches!(append(&mut wal, b""), Err(WalError::Io(_))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_maintains_a_preallocated_spare() {
        let dir = tmp("spare");
        let mut wal = Wal::create(&dir, 32, DurabilityPolicy::Strict).unwrap();
        for i in 1..=4u8 {
            append(&mut wal, &[i; 16]).unwrap();
        }
        wal.sync().unwrap();
        assert!(segments(&dir) > 1, "rotation happened");
        let spares = |d: &Path| {
            fs::read_dir(d)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .ends_with(".pre")
                })
                .count()
        };
        assert_eq!(spares(&dir), 1, "one recycled spare stands ready");
        drop(wal);
        assert_eq!(spares(&dir), 0, "clean shutdown tidies the spare");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_populated_directory() {
        let dir = tmp("refuse");
        {
            let mut wal = Wal::create(&dir, 4096, DurabilityPolicy::Strict).unwrap();
            append(&mut wal, b"existing").unwrap();
        }
        assert!(matches!(
            Wal::create(&dir, 4096, DurabilityPolicy::Strict),
            Err(WalError::Io(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display() {
        let e = WalError::Corrupt {
            segment: "wal-00000000.seg".into(),
            offset: 12,
        };
        assert!(e.to_string().contains("offset 12"));
        let e = WalError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
