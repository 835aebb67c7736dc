//! TCP transport: the multi-host building block.
//!
//! The paper's §III.C measurement ran on two physical machines. The
//! in-process [`Router`] covers single-host deployments and
//! tests; this module extends it across hosts: every [`Envelope`] is
//! [`Encode`]-stable, so a frame is just a length-prefixed, CRC-protected
//! batch of `(target engine, envelope)` pairs on a TCP stream (which is
//! itself reliable and FIFO, matching the §II.A link model; loss at
//! *failure* is still covered by the replay protocol).
//!
//! Topology: each process runs a [`TcpInbound`] acceptor that delivers
//! arriving frames into its local router, and registers a
//! [`remote_engine`] proxy in that router for every engine hosted
//! elsewhere. Wires between hosts then work exactly like local ones.
//!
//! The outbound proxy is *self-healing*: when the connection breaks, the
//! link reconnects with exponential backoff and jitter (see
//! [`ReconnectPolicy`]) while counting — never hiding — the frames lost in
//! the gap. Lost frames are exactly in-transit loss under the §II.A
//! failure model, so the replay protocol restores the stream once the link
//! heals; [`RemoteLink::health`] exposes the drop/reconnect counters so
//! operators can see it happening.
//!
//! I/O model: there is no thread per connection in either direction. Every
//! outbound [`RemoteLink`] and every accepted [`TcpInbound`] stream is
//! serviced by the process-wide **reactor** (see [`crate::reactor`] and
//! DESIGN.md §18) — one thread multiplexing all sockets in nonblocking
//! mode, so connection count costs a buffer, not a stack.
//!
//! Hot path: the reactor drains a link's whole outbound queue per flush
//! window into a single **batch frame** (one write stream, one CRC — see
//! [`write_batch`]/[`read_batch`] and DESIGN.md §13), encoding envelopes
//! *by reference* into a reusable scratch buffer — no clone, no per-send
//! allocation. Superseded silence adverts are coalesced per wire before
//! encoding; silence watermarks are monotone, so only the newest matters.
//! Batch frames are the only wire format: a lone envelope travels as a
//! batch of one.
//!
//! # Example
//!
//! ```no_run
//! use tart_engine::net::{remote_engine, TcpInbound};
//! use tart_engine::{FaultPlan, Router};
//! use tart_vtime::EngineId;
//!
//! // Host B: accept frames for the engines it hosts.
//! let router_b = Router::new(FaultPlan::none());
//! let inbound = TcpInbound::listen("0.0.0.0:7400", router_b.clone())?;
//!
//! // Host A: route engine 1's traffic over TCP to host B.
//! let router_a = Router::new(FaultPlan::none());
//! let link = remote_engine(&router_a, EngineId::new(1), &format!("hostb:{}", inbound.port()))?;
//! assert!(link.snapshot().connected);
//! # Ok::<(), std::io::Error>(())
//! ```

// Ops-plane module (tart-lint tier: Ops): wall-clock reads and hash maps never flow into the replayable core; the interprocedural TAINT-FLOW pass fences the boundary, so raw reads need no per-line allows here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use tart_codec::{crc32, Decode, Encode, Reader};
use tart_vtime::EngineId;

use crate::{Envelope, Router};

/// Maximum accepted frame body, guarding against corrupt length prefixes.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Cap on envelopes coalesced into one batch frame, bounding frame size
/// and the blast radius of a torn batch.
pub(crate) const MAX_BATCH: usize = 1024;

/// Encodes a whole batch as **one** frame into `buf`, **by reference** — no
/// envelope clone, no intermediate allocation:
/// `u32 BE body length | u32 BE crc32(body) | body`, where the body is a
/// varint envelope count followed by that many `(target, envelope)` pairs
/// (byte-identical to the codec's `Vec` encoding). One CRC covers the whole
/// batch, so any single corrupt byte rejects it entirely. An empty batch
/// encodes to nothing at all.
pub fn encode_batch_into(buf: &mut BytesMut, batch: &[(EngineId, Envelope)]) {
    if batch.is_empty() {
        return;
    }
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 8]); // header patched below
    (batch.len() as u64).encode(buf);
    for (target, env) in batch {
        target.encode(buf);
        env.encode(buf);
    }
    patch_header(buf, start);
}

/// Back-patches the `len | crc` header of the frame that starts at
/// `start`, whose body was appended after an 8-byte placeholder.
fn patch_header(buf: &mut BytesMut, start: usize) {
    let body_len = buf.len() - start - 8;
    let crc = crc32(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&(body_len as u32).to_be_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_be_bytes());
}

/// Writes `batch` as one batch frame via a caller-owned `scratch` buffer
/// (cleared, reused across calls — the hot path never allocates once the
/// buffer has grown to its working size). Writing an empty batch is a
/// no-op: no bytes touch the stream.
///
/// # Errors
///
/// Propagates I/O failures from the underlying stream.
pub fn write_batch(
    w: &mut impl Write,
    batch: &[(EngineId, Envelope)],
    scratch: &mut BytesMut,
) -> io::Result<()> {
    scratch.clear();
    encode_batch_into(scratch, batch);
    if scratch.is_empty() {
        return Ok(());
    }
    w.write_all(scratch)
}

/// Body length a frame header declares, refused above [`MAX_FRAME`] —
/// checked before anything is allocated or awaited on its say-so.
fn declared_len(header: &[u8]) -> io::Result<usize> {
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    Ok(len as usize)
}

/// The one `len | crc | body` validator, incremental: the CRC-verified
/// body of the frame at the front of `buf` (which spans `8 + body.len()`
/// bytes), or `Ok(None)` while `buf` holds only a prefix of it.
fn front_frame(buf: &[u8]) -> io::Result<Option<&[u8]>> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let total = 8 + declared_len(buf)?;
    if buf.len() < total {
        return Ok(None);
    }
    let crc = u32::from_be_bytes(buf[4..8].try_into().expect("4 bytes"));
    let body = &buf[8..total];
    if crc32(body) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(body))
}

/// Consumes one complete batch frame from the front of `buf`, or returns
/// `Ok(None)` if the buffer holds only a prefix (a frame may arrive split
/// across any number of reads). The reactor's inbound parser, and — fed
/// exactly one frame's bytes — the blocking [`read_batch`].
pub(crate) fn pop_frame(buf: &mut Vec<u8>) -> io::Result<Option<Vec<(EngineId, Envelope)>>> {
    let Some(body) = front_frame(buf)? else {
        return Ok(None);
    };
    let total = 8 + body.len();
    let batch = decode_batch_body(body)?;
    buf.drain(..total);
    Ok(Some(batch))
}

/// Blocks for exactly one frame's bytes — the header, then the body length
/// it declares; `Ok(None)` is a clean EOF at a frame boundary. Validation
/// is left to the parser the bytes are handed to.
fn read_frame_bytes(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut buf = vec![0u8; 8];
    // Distinguish clean EOF (no bytes) from a torn header.
    match r.read(&mut buf[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut buf[1..])?,
    }
    let len = declared_len(&buf)?;
    buf.resize(8 + len, 0);
    r.read_exact(&mut buf[8..])?;
    Ok(Some(buf))
}

/// Reads one batch frame; `Ok(None)` signals a clean EOF at a frame
/// boundary. The CRC covers the whole batch: a single corrupt byte rejects
/// every envelope in it (no partial delivery from a damaged frame).
///
/// # Errors
///
/// Returns `InvalidData` on CRC mismatch, oversized length, or a malformed
/// body; `UnexpectedEof` on a mid-frame disconnect; and propagates other
/// I/O failures.
pub fn read_batch(r: &mut impl Read) -> io::Result<Option<Vec<(EngineId, Envelope)>>> {
    match read_frame_bytes(r)? {
        Some(mut buf) => pop_frame(&mut buf),
        None => Ok(None),
    }
}

/// Decodes a CRC-verified batch body into its `(target, envelope)` pairs.
fn decode_batch_body(body: &[u8]) -> io::Result<Vec<(EngineId, Envelope)>> {
    let invalid =
        |e: tart_codec::DecodeError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    let mut rd = Reader::new(body);
    let count = u64::decode(&mut rd).map_err(invalid)?;
    if count > MAX_BATCH as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("batch of {count} envelopes exceeds the {MAX_BATCH} cap"),
        ));
    }
    let mut batch = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let target = EngineId::decode(&mut rd).map_err(invalid)?;
        let env = Envelope::decode(&mut rd).map_err(invalid)?;
        batch.push((target, env));
    }
    if rd.remaining() != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes after batch body",
        ));
    }
    Ok(batch)
}

/// Drops every silence advert superseded by a later one for the same
/// `(target, wire)` within the batch, preserving the order of the kept
/// envelopes. Silence watermarks are monotone per wire — an advert
/// promises "no data through `through`", so the newest advert subsumes
/// every earlier one and dropping them loses no information (DESIGN.md
/// §13). Data, probes and control envelopes are never touched.
pub(crate) fn coalesce_silence(batch: &mut Vec<(EngineId, Envelope)>) {
    let mut last: std::collections::BTreeMap<(u32, u32), usize> = std::collections::BTreeMap::new();
    let mut adverts = 0usize;
    for (i, (target, env)) in batch.iter().enumerate() {
        if let Envelope::Silence { wire, .. } = env {
            last.insert((target.raw(), wire.raw()), i);
            adverts += 1;
        }
    }
    if adverts == last.len() {
        return; // nothing superseded
    }
    let mut idx = 0;
    batch.retain(|(target, env)| {
        let keep = match env {
            Envelope::Silence { wire, .. } => last[&(target.raw(), wire.raw())] == idx,
            _ => true,
        };
        idx += 1;
        keep
    });
}

/// Accepts TCP connections and feeds every arriving frame into the local
/// router — the receive half of a multi-host deployment.
///
/// Connections are *not* threads: the listener and every accepted stream
/// are handed to the process-wide [`crate::reactor`], whose single thread
/// multiplexes them (nonblocking reads, incremental frame reassembly)
/// alongside every outbound [`RemoteLink`].
pub struct TcpInbound {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    streams: Arc<Mutex<Vec<(u64, TcpStream)>>>,
}

impl TcpInbound {
    /// Binds `addr` and registers the listener with the process-wide
    /// reactor, which accepts and reads on its multiplexing thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn listen(addr: impl ToSocketAddrs, router: Router) -> io::Result<TcpInbound> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let streams: Arc<Mutex<Vec<(u64, TcpStream)>>> = Arc::new(Mutex::new(Vec::new()));
        crate::reactor::global().add_inbound(crate::reactor::InboundTask::new(
            listener,
            router,
            Arc::clone(&streams),
            Arc::clone(&stop),
        ));
        Ok(TcpInbound {
            local,
            stop,
            streams,
        })
    }

    /// The bound port (useful with a `0` bind).
    pub fn port(&self) -> u16 {
        self.local.port()
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Forcibly closes every currently-accepted connection (the listener
    /// keeps accepting new ones) — a receiver-side link sever for fault
    /// drills. Peers see a broken pipe on their next write and enter their
    /// reconnect loop.
    pub fn sever_connections(&self) {
        let mut streams = self.streams.lock();
        for (_, s) in streams.drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for TcpInbound {
    fn drop(&mut self) {
        // The reactor drops the listener and every accepted stream on its
        // next pass; severing here makes in-flight reads fail immediately.
        self.stop.store(true, Ordering::Relaxed);
        self.sever_connections();
    }
}

/// Backoff tuning for a [`remote_engine`] link.
#[derive(Clone, Debug)]
pub struct ReconnectPolicy {
    /// Delay before the first reconnect attempt of an outage.
    pub initial_backoff: Duration,
    /// Cap on the delay between attempts.
    pub max_backoff: Duration,
    /// Multiplier applied to the delay after each failed attempt.
    pub multiplier: f64,
    /// Fraction of each delay randomized (0.0 = none, 1.0 = the delay may
    /// double), de-synchronizing reconnect storms across links.
    pub jitter: f64,
    /// Attempts per outage before the link gives up (`0` = retry forever).
    pub max_attempts: u32,
}

impl Default for ReconnectPolicy {
    /// 50 ms → 5 s exponential (×2) with 50 % jitter, retrying forever.
    fn default() -> Self {
        ReconnectPolicy {
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
            multiplier: 2.0,
            jitter: 0.5,
            max_attempts: 0,
        }
    }
}

/// A point-in-time view of a [`RemoteLink`]'s transport state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkHealth {
    /// Whether a TCP connection is currently established.
    pub connected: bool,
    /// Connection incarnations so far (1 after the initial connect).
    pub epoch: u64,
    /// Successful re-connections after an outage.
    pub reconnects: u64,
    /// Frames dropped because no connection was up (in-transit loss; the
    /// replay protocol recovers the stream contents).
    pub dropped_frames: u64,
    /// The writer exhausted [`ReconnectPolicy::max_attempts`] and stopped
    /// trying; frames keep being counted as dropped.
    pub gave_up: bool,
    /// Batch frames flushed onto the wire (one `write_all` each).
    pub batches_sent: u64,
    /// Envelopes carried by those batches; `envelopes_batched /
    /// batches_sent` is the link's achieved coalescing factor.
    pub envelopes_batched: u64,
}

#[derive(Default)]
pub(crate) struct LinkState {
    /// Seqlock sequence: odd while the writer is inside an update group.
    /// Readers that overlap a group retry, so related counters (e.g.
    /// `batches_sent` / `envelopes_batched`, or `connected` /
    /// `reconnects`) can never tear apart in a [`LinkHealth`] snapshot.
    seq: AtomicU64,
    pub(crate) connected: AtomicBool,
    pub(crate) epoch: AtomicU64,
    pub(crate) reconnects: AtomicU64,
    pub(crate) dropped_frames: AtomicU64,
    pub(crate) gave_up: AtomicBool,
    pub(crate) batches_sent: AtomicU64,
    pub(crate) envelopes_batched: AtomicU64,
}

impl LinkState {
    /// Runs `group` as one atomic update with respect to
    /// [`LinkState::snapshot`].
    pub(crate) fn update(&self, group: impl FnOnce(&Self)) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        group(self);
        self.seq.fetch_add(1, Ordering::SeqCst);
    }

    /// Seqlock read: a consistent point-in-time copy of every counter,
    /// retried while an update group is in progress.
    fn snapshot(&self) -> LinkHealth {
        loop {
            let before = self.seq.load(Ordering::SeqCst);
            if before.is_multiple_of(2) {
                let health = LinkHealth {
                    connected: self.connected.load(Ordering::SeqCst),
                    epoch: self.epoch.load(Ordering::SeqCst),
                    reconnects: self.reconnects.load(Ordering::SeqCst),
                    dropped_frames: self.dropped_frames.load(Ordering::SeqCst),
                    gave_up: self.gave_up.load(Ordering::SeqCst),
                    batches_sent: self.batches_sent.load(Ordering::SeqCst),
                    envelopes_batched: self.envelopes_batched.load(Ordering::SeqCst),
                };
                if self.seq.load(Ordering::SeqCst) == before {
                    return health;
                }
            }
            std::hint::spin_loop();
        }
    }
}

/// Handle on an outbound link created by [`remote_engine`]: exposes link
/// health and detaches the link from the reactor (dropping the handle also
/// detaches it). There is no thread per link — every link is serviced by
/// the process-wide [`crate::reactor`] thread.
pub struct RemoteLink {
    engine: EngineId,
    stop: Arc<AtomicBool>,
    state: Arc<LinkState>,
}

impl RemoteLink {
    /// The remote engine this link forwards to.
    pub fn engine(&self) -> EngineId {
        self.engine
    }

    /// A **consistent** point-in-time copy of the transport counters:
    /// counters the writer updates together (a batch's `batches_sent` /
    /// `envelopes_batched`, a reconnect's `connected` / `epoch` /
    /// `reconnects`) are taken together, never mid-update.
    pub fn snapshot(&self) -> LinkHealth {
        self.state.snapshot()
    }

    /// Alias for [`RemoteLink::snapshot`], kept for call-site familiarity.
    pub fn health(&self) -> LinkHealth {
        self.snapshot()
    }

    /// Detaches the link: the reactor drops its stream and queue on the
    /// next pass.
    pub fn stop(self) {}
}

impl Drop for RemoteLink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for RemoteLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteLink")
            .field("engine", &self.engine)
            .field("health", &self.snapshot())
            .finish()
    }
}

/// Registers `engine` in `router` as a remote engine reachable at `addr`
/// with the default [`ReconnectPolicy`]; see [`remote_engine_with`].
///
/// # Errors
///
/// Propagates the initial connection failure.
pub fn remote_engine(
    router: &Router,
    engine: EngineId,
    addr: impl ToSocketAddrs,
) -> io::Result<RemoteLink> {
    remote_engine_with(router, engine, addr, ReconnectPolicy::default())
}

/// Registers `engine` in `router` as a remote engine reachable at `addr`:
/// envelopes routed to it are forwarded over a dedicated TCP connection
/// serviced by the process-wide [`crate::reactor`] thread.
///
/// The initial connection is made synchronously (so a misconfigured
/// address fails fast). Afterwards the link self-heals: on a broken
/// connection the reactor drops queued envelopes (counting them —
/// in-transit loss, recovered by replay) while reconnecting under
/// `policy`'s exponential backoff with jitter. If `policy.max_attempts` is
/// exhausted the link gives up for good and only counts drops.
///
/// # Errors
///
/// Propagates address-resolution and initial-connection failures.
pub fn remote_engine_with(
    router: &Router,
    engine: EngineId,
    addr: impl ToSocketAddrs,
    policy: ReconnectPolicy,
) -> io::Result<RemoteLink> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        ));
    }
    let stream = TcpStream::connect(&addrs[..])?;
    stream.set_nodelay(true).ok();
    stream.set_nonblocking(true)?;

    let (tx, rx) = unbounded::<Envelope>();
    router.register(engine, tx);
    let stop = Arc::new(AtomicBool::new(false));
    let state = Arc::new(LinkState::default());
    // One update group: a snapshot racing with construction must never see
    // `connected` without the epoch that made it true.
    state.update(|st| {
        st.connected.store(true, Ordering::SeqCst);
        st.epoch.store(1, Ordering::SeqCst);
    });
    crate::reactor::global().add_link(crate::reactor::LinkTask::new(
        engine,
        rx,
        stream,
        addrs,
        policy,
        Arc::clone(&state),
        Arc::clone(&stop),
    ));
    Ok(RemoteLink {
        engine,
        stop,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use crossbeam::channel::unbounded;
    use std::time::Instant;
    use tart_model::Value;
    use tart_vtime::{VirtualTime, WireId};

    fn data(n: u64) -> Envelope {
        Envelope::Data {
            wire: WireId::new(0),
            vt: VirtualTime::from_ticks(n),
            prev_vt: VirtualTime::from_ticks(n.saturating_sub(1)),
            payload: Value::map([("n", Value::I64(n as i64))]),
        }
    }

    fn silence(wire: u32, through: u64) -> Envelope {
        Envelope::Silence {
            wire: WireId::new(wire),
            through: VirtualTime::from_ticks(through),
            last_data: VirtualTime::from_ticks(through.saturating_sub(1)),
        }
    }

    #[test]
    fn batch_round_trip_over_buffer() {
        let batch = vec![
            (EngineId::new(1), data(3)),
            (EngineId::new(2), Envelope::Checkpoint),
            (EngineId::new(1), silence(0, 9)),
        ];
        let mut scratch = BytesMut::new();
        let mut buf = Vec::new();
        write_batch(&mut buf, &batch, &mut scratch).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_batch(&mut cursor).unwrap(), Some(batch));
        assert_eq!(read_batch(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn empty_batch_writes_nothing() {
        let mut scratch = BytesMut::new();
        let mut buf = Vec::new();
        write_batch(&mut buf, &[], &mut scratch).unwrap();
        assert!(buf.is_empty(), "empty batch is a no-op on the stream");
        let mut cursor = &buf[..];
        assert_eq!(read_batch(&mut cursor).unwrap(), None);
    }

    #[test]
    fn corrupt_batch_rejects_every_envelope() {
        let batch = vec![(EngineId::new(0), data(1)), (EngineId::new(0), data(2))];
        let mut scratch = BytesMut::new();
        let mut buf = Vec::new();
        write_batch(&mut buf, &batch, &mut scratch).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let mut cursor = &buf[..];
        let err = read_batch(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn coalescing_keeps_only_the_newest_silence_per_wire() {
        let mut batch = vec![
            (EngineId::new(1), silence(0, 5)),
            (EngineId::new(1), data(6)),
            (EngineId::new(1), silence(0, 9)),
            (EngineId::new(1), silence(1, 3)),
            (EngineId::new(2), silence(0, 4)),
        ];
        coalesce_silence(&mut batch);
        assert_eq!(
            batch,
            vec![
                (EngineId::new(1), data(6)),
                (EngineId::new(1), silence(0, 9)),
                (EngineId::new(1), silence(1, 3)),
                (EngineId::new(2), silence(0, 4)),
            ],
            "only the superseded wire-0 advert goes; order is preserved"
        );
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        let mut cursor = &buf[..];
        let err = read_batch(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_header_is_eof_error() {
        let buf = [0u8; 3];
        let mut cursor = &buf[..];
        let err = read_batch(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn envelopes_cross_a_real_socket() {
        // Receiving side: a router with a plain channel standing in for an
        // engine inbox.
        let router_b = Router::new(FaultPlan::none());
        let (tx, rx) = unbounded();
        router_b.register(EngineId::new(1), tx);
        let inbound = TcpInbound::listen("127.0.0.1:0", router_b.clone()).unwrap();

        // Sending side: engine 1 is remote.
        let router_a = Router::new(FaultPlan::none());
        let link =
            remote_engine(&router_a, EngineId::new(1), ("127.0.0.1", inbound.port())).unwrap();
        assert!(link.snapshot().connected);
        assert_eq!(link.snapshot().epoch, 1);

        for n in 0..100 {
            router_a.send(EngineId::new(1), data(n));
        }
        router_a.send(EngineId::new(1), Envelope::Drain);

        let mut got = Vec::new();
        loop {
            let env = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("frame should arrive over TCP");
            if env == Envelope::Drain {
                break;
            }
            got.push(env);
        }
        assert_eq!(got.len(), 100);
        for (n, env) in got.into_iter().enumerate() {
            assert_eq!(env, data(n as u64), "frames arrive in order, intact");
        }
        let health = link.snapshot();
        assert_eq!(health.dropped_frames, 0);
        assert_eq!(
            health.envelopes_batched, 101,
            "every envelope (100 data + drain) crossed in a batch"
        );
        assert!(
            (1..=101).contains(&health.batches_sent),
            "between one flush for everything and one per envelope, got {}",
            health.batches_sent
        );
        link.stop();
    }

    #[test]
    fn severed_link_reconnects_with_backoff_and_counts_drops() {
        let router_b = Router::new(FaultPlan::none());
        let (tx, rx) = unbounded();
        router_b.register(EngineId::new(2), tx);
        let inbound = TcpInbound::listen("127.0.0.1:0", router_b.clone()).unwrap();

        let router_a = Router::new(FaultPlan::none());
        let policy = ReconnectPolicy {
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            multiplier: 2.0,
            jitter: 0.5,
            max_attempts: 0,
        };
        let link = remote_engine_with(
            &router_a,
            EngineId::new(2),
            ("127.0.0.1", inbound.port()),
            policy,
        )
        .unwrap();

        router_a.send(EngineId::new(2), data(0));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            data(0),
            "link works before the sever"
        );

        // Sever the established connection from the receiving side, then
        // keep sending until the writer notices the broken pipe and heals
        // the link (the listener kept accepting). `connected` can flip back
        // quickly, so the assertions use the monotonic counters.
        inbound.sever_connections();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut n = 1u64;
        while link.snapshot().reconnects == 0 && Instant::now() < deadline {
            router_a.send(EngineId::new(2), data(n));
            n += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while !link.snapshot().connected && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let healed = link.snapshot();
        assert!(healed.connected, "link should self-heal");
        assert!(healed.dropped_frames >= 1, "drops are counted, not hidden");
        assert_eq!(healed.epoch, 2, "second connection incarnation");
        assert_eq!(healed.reconnects, 1);
        assert!(!healed.gave_up);

        // And traffic flows again on the new connection.
        while rx.try_recv().is_ok() {} // discard pre-sever stragglers
        router_a.send(EngineId::new(2), data(9999));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut delivered = false;
        while Instant::now() < deadline {
            if let Ok(env) = rx.recv_timeout(Duration::from_millis(200)) {
                if env == data(9999) {
                    delivered = true;
                    break;
                }
            }
        }
        assert!(delivered, "traffic resumes after the reconnect");
        link.stop();
    }

    #[test]
    fn bounded_retry_gives_up() {
        // Connect, then drop the listener entirely so reconnects must fail.
        let router_b = Router::new(FaultPlan::none());
        let inbound = TcpInbound::listen("127.0.0.1:0", router_b).unwrap();
        let port = inbound.port();

        let router_a = Router::new(FaultPlan::none());
        let policy = ReconnectPolicy {
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(8),
            multiplier: 2.0,
            jitter: 0.0,
            max_attempts: 3,
        };
        let link =
            remote_engine_with(&router_a, EngineId::new(3), ("127.0.0.1", port), policy).unwrap();
        drop(inbound); // closes the listener and severs the connection

        let deadline = Instant::now() + Duration::from_secs(10);
        while !link.snapshot().gave_up && Instant::now() < deadline {
            router_a.send(EngineId::new(3), data(1));
            std::thread::sleep(Duration::from_millis(5));
        }
        let health = link.snapshot();
        assert!(health.gave_up, "bounded retry must eventually give up");
        assert!(!health.connected);
        assert!(health.dropped_frames >= 1);
        link.stop();
    }
}
