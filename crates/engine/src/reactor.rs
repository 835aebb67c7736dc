//! The transport reactor: one thread, every socket.
//!
//! The first multi-host implementation spent a thread per connection — a
//! writer thread per [`crate::net::RemoteLink`] plus a reader thread per
//! accepted inbound stream. That model charges every link a stack and a
//! scheduler slot, which is exactly the wrong shape for a mesh: an
//! N-engine deployment holds O(N) links per process, and the paper's
//! premise (fault-tolerance machinery off the critical path) extends to
//! not taxing the OS scheduler with idle transport threads.
//!
//! This module replaces all of those threads with a single process-wide
//! reactor. Every socket it owns is nonblocking; one loop multiplexes:
//!
//! * **outbound links** — drain the link's router queue into one batch
//!   frame (silence-coalesced, CRC'd, encoded by reference into the link's
//!   reusable buffer), then push bytes until the kernel says
//!   `WouldBlock`; partial writes persist in the buffer across passes.
//!   Reconnect backoff, drop accounting and give-up semantics are the
//!   same [`ReconnectPolicy`] state machine the per-thread writer ran.
//! * **inbound listeners** — accept new streams, read whatever bytes are
//!   available, and reassemble batch frames incrementally from a per-
//!   connection buffer (a frame may arrive split across any number of
//!   reads; [`pop_frame`] consumes only complete, CRC-verified frames —
//!   the same parser the blocking `net::read_batch` runs).
//!
//! Readiness is discovered by *polling* the nonblocking sockets on a
//! short tick rather than by an OS readiness API: the workspace carries
//! `#![forbid(unsafe_code)]` and no FFI crates, which rules out
//! `epoll`/`kqueue` bindings. The loop compensates the way the engine
//! cores do (`idle_poll_micros`): when a pass moves no bytes it parks on
//! the control channel for [`IDLE_TICK`] (so new links still attach
//! instantly), and while any socket is making progress it spins without
//! sleeping. The reactor thread starts lazily on the first link or
//! listener and lives for the process — an idle reactor costs one parked
//! thread, the same as the old model's cheapest case.
//!
//! Determinism: none of this is visible to replay. The reactor moves
//! already-sequenced envelopes between routers; ordering per link is FIFO
//! (one TCP stream), and loss on a broken link is counted in
//! [`LinkState`] and recovered by the replay protocol exactly as before.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use tart_stats::DetRng;
use tart_vtime::EngineId;

use crate::net::{
    coalesce_silence, encode_batch_into, pop_frame, LinkState, ReconnectPolicy, MAX_BATCH,
};
use crate::{Envelope, Router};

/// How long the reactor parks on its control channel when a full pass
/// moved no bytes. Mirrors the engines' `idle_poll_micros` order of
/// magnitude: cheap enough to keep first-byte latency low, long enough
/// that an idle process doesn't burn a core.
const IDLE_TICK: Duration = Duration::from_micros(500);

/// Bound on one blocking reconnect attempt. Attempts run on the reactor
/// thread, so a black-holed peer must not stall every other link for the
/// kernel's default connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Read chunk for inbound streams (one shared scratch, not per-connection).
const READ_CHUNK: usize = 64 * 1024;

/// Control messages from link/listener constructors to the reactor loop.
enum Ctrl {
    AddLink(Box<LinkTask>),
    AddInbound(Box<InboundTask>),
}

/// Handle to the process-wide reactor; cloneless — constructors go
/// through [`global`].
pub(crate) struct Reactor {
    ctrl: Sender<Ctrl>,
}

/// The process-wide reactor, started lazily on first use.
pub(crate) fn global() -> &'static Reactor {
    static REACTOR: OnceLock<Reactor> = OnceLock::new();
    REACTOR.get_or_init(|| {
        let (tx, rx) = unbounded();
        std::thread::Builder::new()
            .name("tart-net-reactor".into())
            .spawn(move || run(rx))
            .expect("spawn reactor thread");
        Reactor { ctrl: tx }
    })
}

impl Reactor {
    /// Attaches an outbound link; it is serviced from the next pass on.
    pub(crate) fn add_link(&self, task: LinkTask) {
        let _ = self.ctrl.send(Ctrl::AddLink(Box::new(task)));
    }

    /// Attaches an inbound listener; it is serviced from the next pass on.
    pub(crate) fn add_inbound(&self, task: InboundTask) {
        let _ = self.ctrl.send(Ctrl::AddInbound(Box::new(task)));
    }
}

/// The reactor loop: drain control, pump every listener and link, park
/// briefly when nothing moved.
fn run(ctrl: Receiver<Ctrl>) {
    let mut links: Vec<LinkTask> = Vec::new();
    let mut inbounds: Vec<InboundTask> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    loop {
        let mut progress = false;
        loop {
            match ctrl.try_recv() {
                Ok(msg) => {
                    attach(msg, &mut links, &mut inbounds);
                    progress = true;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        inbounds.retain_mut(|inbound| {
            if inbound.stop.load(Ordering::Relaxed) {
                return false; // drops listener + streams
            }
            progress |= inbound.pump(&mut scratch);
            true
        });
        links.retain_mut(|link| match link.pump() {
            LinkPass::Progress => {
                progress = true;
                true
            }
            LinkPass::Idle => true,
            LinkPass::Detach => false,
        });
        if !progress {
            // Park on the control channel: a new link attaching wakes the
            // loop immediately; otherwise this is the readiness tick.
            match ctrl.recv_timeout(IDLE_TICK) {
                Ok(msg) => attach(msg, &mut links, &mut inbounds),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

fn attach(msg: Ctrl, links: &mut Vec<LinkTask>, inbounds: &mut Vec<InboundTask>) {
    match msg {
        Ctrl::AddLink(l) => links.push(*l),
        Ctrl::AddInbound(i) => inbounds.push(*i),
    }
}

/// Outcome of one service pass over a link.
enum LinkPass {
    /// Bytes or envelopes moved.
    Progress,
    /// Nothing to do.
    Idle,
    /// The link is done (handle dropped, or every sender gone): remove it.
    Detach,
}

/// One outbound link: the state the dedicated writer thread used to keep
/// on its stack, now a plain struct the reactor iterates.
pub(crate) struct LinkTask {
    engine: EngineId,
    rx: Receiver<Envelope>,
    stream: Option<TcpStream>,
    addrs: Vec<SocketAddr>,
    policy: ReconnectPolicy,
    state: Arc<LinkState>,
    stop: Arc<AtomicBool>,
    rng: DetRng,
    /// Encoded-but-unflushed frame bytes; `written` of them are already on
    /// the wire. Survives `WouldBlock` across passes.
    outbuf: BytesMut,
    written: usize,
    /// Envelope count inside `outbuf` — batch counters are bumped only
    /// when the frame fully flushes, drop counters if the link breaks
    /// with the frame in flight (same accounting as the blocking writer).
    outbuf_envs: u64,
    batch: Vec<(EngineId, Envelope)>,
    backoff: Duration,
    attempts: u32,
    next_attempt: Instant,
}

impl LinkTask {
    /// Packages a freshly-connected (nonblocking) stream for the reactor.
    pub(crate) fn new(
        engine: EngineId,
        rx: Receiver<Envelope>,
        stream: TcpStream,
        addrs: Vec<SocketAddr>,
        policy: ReconnectPolicy,
        state: Arc<LinkState>,
        stop: Arc<AtomicBool>,
    ) -> LinkTask {
        let backoff = policy.initial_backoff;
        LinkTask {
            engine,
            rx,
            stream: Some(stream),
            addrs,
            policy,
            state,
            stop,
            rng: DetRng::seed_from(0x9e3779b9 ^ u64::from(engine.raw())),
            outbuf: BytesMut::with_capacity(4096),
            written: 0,
            outbuf_envs: 0,
            batch: Vec::new(),
            backoff,
            attempts: 0,
            next_attempt: Instant::now(),
        }
    }

    /// One service pass: reconnect if due, refill the out-buffer from the
    /// router queue, push bytes until the kernel blocks.
    fn pump(&mut self) -> LinkPass {
        if self.stop.load(Ordering::Relaxed) {
            return LinkPass::Detach;
        }
        let mut progress = false;

        let give_up = self.policy.max_attempts > 0 && self.attempts >= self.policy.max_attempts;
        if self.stream.is_none() && give_up {
            self.state.update(|h| h.gave_up = true);
        }
        if self.stream.is_none() && !give_up && Instant::now() >= self.next_attempt {
            progress |= self.try_reconnect();
        }

        // Refill only when the previous frame fully flushed, so the
        // envelope count in flight is exact for drop accounting.
        let mut senders_gone = false;
        if self.outbuf.is_empty() {
            self.batch.clear();
            while self.batch.len() < MAX_BATCH {
                match self.rx.try_recv() {
                    Ok(env) => self.batch.push((self.engine, env)),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        senders_gone = true;
                        break;
                    }
                }
            }
            if !self.batch.is_empty() {
                progress = true;
                coalesce_silence(&mut self.batch);
                let count = self.batch.len() as u64;
                if self.stream.is_some() {
                    encode_batch_into(&mut self.outbuf, &self.batch);
                    self.written = 0;
                    self.outbuf_envs = count;
                } else {
                    // Broken or absent connection: the whole batch is
                    // in-transit loss (replay recovers the stream).
                    self.state.update(|h| h.dropped_frames += count);
                }
            }
        }

        if !self.outbuf.is_empty() {
            progress |= self.flush();
        }
        if senders_gone && self.outbuf.is_empty() {
            return LinkPass::Detach;
        }
        if progress {
            LinkPass::Progress
        } else {
            LinkPass::Idle
        }
    }

    /// Pushes buffered frame bytes until done or `WouldBlock`; a write
    /// error turns the frame into counted in-transit loss and schedules a
    /// reconnect.
    fn flush(&mut self) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        let mut progress = false;
        loop {
            match stream.write(&self.outbuf[self.written..]) {
                Ok(0) => {
                    self.on_disconnect();
                    return true;
                }
                Ok(n) => {
                    progress = true;
                    self.written += n;
                    if self.written == self.outbuf.len() {
                        let count = self.outbuf_envs;
                        self.state.update(|h| {
                            h.batches_sent += 1;
                            h.envelopes_batched += count;
                        });
                        self.outbuf.clear();
                        self.written = 0;
                        self.outbuf_envs = 0;
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progress,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.on_disconnect();
                    return true;
                }
            }
        }
    }

    /// Marks the connection lost: pending frame envelopes become counted
    /// loss, backoff restarts jittered.
    fn on_disconnect(&mut self) {
        let pending = self.outbuf_envs;
        self.stream = None;
        self.outbuf.clear();
        self.written = 0;
        self.outbuf_envs = 0;
        self.state.update(|h| {
            h.dropped_frames += pending;
            h.connected = false;
        });
        self.backoff = self.policy.initial_backoff;
        self.attempts = 0;
        self.next_attempt = Instant::now()
            + self
                .backoff
                .mul_f64(1.0 + self.policy.jitter * self.rng.next_f64());
    }

    /// One bounded reconnect attempt (the same backoff math the blocking
    /// writer used; `CONNECT_TIMEOUT` keeps a black-holed peer from
    /// stalling other links).
    fn try_reconnect(&mut self) -> bool {
        let connected = self
            .addrs
            .iter()
            .find_map(|addr| TcpStream::connect_timeout(addr, CONNECT_TIMEOUT).ok());
        match connected {
            Some(s) => {
                s.set_nodelay(true).ok();
                if s.set_nonblocking(true).is_err() {
                    // A stream we cannot drive nonblocking is useless to
                    // the reactor; treat the attempt as failed.
                    self.note_failed_attempt();
                    return false;
                }
                self.stream = Some(s);
                self.state.update(|h| {
                    h.connected = true;
                    h.epoch += 1;
                    h.reconnects += 1;
                });
                self.backoff = self.policy.initial_backoff;
                self.attempts = 0;
                true
            }
            None => {
                self.note_failed_attempt();
                false
            }
        }
    }

    fn note_failed_attempt(&mut self) {
        self.attempts += 1;
        // Jitter stretches the delay by up to `jitter` of itself — never
        // shortens it, so backoff stays monotone under the cap.
        let jittered = self
            .backoff
            .mul_f64(1.0 + self.policy.jitter * self.rng.next_f64());
        self.next_attempt = Instant::now() + jittered;
        self.backoff = self
            .backoff
            .mul_f64(self.policy.multiplier.max(1.0))
            .min(self.policy.max_backoff);
    }
}

/// One accepted inbound stream plus its frame-reassembly buffer.
struct Conn {
    id: u64,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One listening socket: accepts streams and reassembles batch frames.
pub(crate) struct InboundTask {
    listener: TcpListener,
    router: Router,
    conns: Vec<Conn>,
    /// Clones of accepted streams, shared with `TcpInbound` so
    /// `sever_connections` can shut them down from any thread.
    shared: Arc<Mutex<Vec<(u64, TcpStream)>>>,
    stop: Arc<AtomicBool>,
    next_conn: u64,
}

impl InboundTask {
    /// Packages a nonblocking listener for the reactor.
    pub(crate) fn new(
        listener: TcpListener,
        router: Router,
        shared: Arc<Mutex<Vec<(u64, TcpStream)>>>,
        stop: Arc<AtomicBool>,
    ) -> InboundTask {
        InboundTask {
            listener,
            router,
            conns: Vec::new(),
            shared,
            stop,
            next_conn: 0,
        }
    }

    /// One service pass: accept whatever is queued, then read and deliver
    /// complete frames from every connection.
    fn pump(&mut self, scratch: &mut [u8]) -> bool {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    if let Ok(clone) = stream.try_clone() {
                        self.shared.lock().push((id, clone));
                    }
                    self.conns.push(Conn {
                        id,
                        stream,
                        buf: Vec::new(),
                    });
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        let router = &self.router;
        let shared = &self.shared;
        self.conns
            .retain_mut(|conn| match conn.pump(router, scratch) {
                Ok(moved) => {
                    progress |= moved;
                    true
                }
                Err(_) => {
                    // Closed or broken: drop our stream and the sever clone.
                    shared.lock().retain(|(id, _)| *id != conn.id);
                    false
                }
            });
        progress
    }
}

impl Conn {
    /// Reads available bytes and delivers every complete frame. `Err`
    /// means the connection is finished (clean EOF included).
    fn pump(&mut self, router: &Router, scratch: &mut [u8]) -> io::Result<bool> {
        let mut progress = false;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    // Clean EOF: deliver what is already complete, then
                    // report the connection finished.
                    while let Some(batch) = pop_frame(&mut self.buf)? {
                        for (target, env) in batch {
                            router.send(target, env);
                        }
                    }
                    return Err(io::Error::from(io::ErrorKind::UnexpectedEof));
                }
                Ok(n) => {
                    progress = true;
                    self.buf.extend_from_slice(&scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while let Some(batch) = pop_frame(&mut self.buf)? {
            progress = true;
            for (target, env) in batch {
                router.send(target, env);
            }
        }
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{remote_engine, TcpInbound};
    use crate::{FaultPlan, Router};
    use tart_model::Value;
    use tart_vtime::{VirtualTime, WireId};

    fn data(n: u64) -> Envelope {
        Envelope::Data {
            wire: WireId::new(0),
            vt: VirtualTime::from_ticks(n),
            prev_vt: VirtualTime::from_ticks(n.saturating_sub(1)),
            payload: Value::I64(n as i64),
        }
    }

    fn frame_bytes(batch: &[(EngineId, Envelope)]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, batch);
        buf[..].to_vec()
    }

    #[test]
    fn pop_frame_waits_for_a_complete_frame() {
        let frame = frame_bytes(&[(EngineId::new(1), data(7))]);
        let mut buf = Vec::new();
        // Feed the frame one byte at a time: no prefix may decode early.
        for (i, b) in frame.iter().enumerate() {
            buf.push(*b);
            let out = pop_frame(&mut buf).unwrap();
            if i + 1 < frame.len() {
                assert!(out.is_none(), "no frame before byte {}", frame.len());
            } else {
                assert_eq!(out, Some(vec![(EngineId::new(1), data(7))]));
            }
        }
        assert!(buf.is_empty(), "complete frame fully consumed");
    }

    #[test]
    fn pop_frame_consumes_back_to_back_frames() {
        let mut buf = frame_bytes(&[(EngineId::new(1), data(1))]);
        buf.extend(frame_bytes(&[(EngineId::new(2), data(2))]));
        assert_eq!(
            pop_frame(&mut buf).unwrap(),
            Some(vec![(EngineId::new(1), data(1))])
        );
        assert_eq!(
            pop_frame(&mut buf).unwrap(),
            Some(vec![(EngineId::new(2), data(2))])
        );
        assert_eq!(pop_frame(&mut buf).unwrap(), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn pop_frame_rejects_corrupt_bodies() {
        let mut buf = frame_bytes(&[(EngineId::new(1), data(1))]);
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let err = pop_frame(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn one_reactor_services_many_links() {
        // Three independent outbound links and one inbound listener, all
        // multiplexed by the single reactor thread — every envelope
        // arrives on the right inbox.
        let router_b = Router::new(FaultPlan::none());
        let inboxes: Vec<_> = (1..=3)
            .map(|e| {
                let (tx, rx) = unbounded();
                router_b.register(EngineId::new(e), tx);
                rx
            })
            .collect();
        let inbound = TcpInbound::listen("127.0.0.1:0", router_b.clone()).unwrap();

        let router_a = Router::new(FaultPlan::none());
        let links: Vec<_> = (1..=3)
            .map(|e| {
                remote_engine(&router_a, EngineId::new(e), ("127.0.0.1", inbound.port())).unwrap()
            })
            .collect();

        for n in 0..50u64 {
            for e in 1..=3u32 {
                router_a.send(EngineId::new(e), data(n * 10 + u64::from(e)));
            }
        }
        for (i, rx) in inboxes.iter().enumerate() {
            let e = i as u64 + 1;
            for n in 0..50u64 {
                let env = rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("delivery via the shared reactor");
                assert_eq!(env, data(n * 10 + e), "per-link FIFO order holds");
            }
        }
        for link in links {
            assert_eq!(link.snapshot().dropped_frames, 0);
            link.stop();
        }
    }
}
