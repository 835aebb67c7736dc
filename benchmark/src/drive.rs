//! The load generator: one thread that sends, polls and keeps the books.
//!
//! Everything under test sits behind [`Sut`]; the generator knows nothing
//! about clusters or sockets. Message `i` of an epoch (0-based, in send
//! order) produces the output whose sequence number is `i + 1` — both
//! reference applications number their outputs — which is how latencies are
//! matched without a map.

use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

use tart_model::Value;

use crate::check::Out;
use crate::gen::Arrival;
use crate::trace::{SpanId, Tracer};

/// The system under test, as the generator sees it.
pub trait Sut {
    /// Injects one external message on `client`.
    fn send(&mut self, client: usize, payload: Value);
    /// Moves every output produced so far into `sink`.
    fn poll(&mut self, sink: &mut Vec<Out>);
    /// Promises silence on every external input (an idle producer's
    /// heartbeat). Without it the last message of a fan-in waits forever for
    /// the other client's wire.
    fn idle(&mut self);
}

/// One in this many messages and polls gets a span in the traced run.
pub const SPAN_SAMPLING: u64 = 64;
/// Pause between heartbeats while the generator has nothing to send; each
/// heartbeat is an envelope, so an unpaced loop would flood the engines.
const IDLE_PAUSE: Duration = Duration::from_micros(100);
/// Pause of a closed loop whose window is full and whose poll came back
/// empty. A millisecond is a fraction of the window's worth of work, so the
/// engines never starve, and the generator wakes a thousand times a second
/// instead of preempting them constantly on a two-core box.
const WINDOW_FULL_PAUSE: Duration = Duration::from_millis(1);
/// Pause of an open loop with nothing due and nothing to collect.
const OPEN_LOOP_PAUSE: Duration = Duration::from_micros(20);

pub struct Driver {
    pool: Rc<Vec<Value>>,
    clock: Instant,
    /// Client of each message of this epoch, in send order (the reference
    /// replays it).
    pub clients_of: Vec<u8>,
    /// When each message was sent — or, in the open loop, was due.
    sent_at_ns: Vec<u64>,
    /// Every raw output of this epoch, stutter included.
    pub outs: Vec<Out>,
    /// Highest sequence number seen: the count of completed operations.
    pub completed: u64,
    /// Send (or due) → observed latency of each fresh output, while sampling.
    pub latency_ns: Vec<u64>,
    /// How late each open-loop send ran.
    pub inject_lag_ns: Vec<u64>,
    sampling: bool,
    pub tracer: Tracer,
    open_ops: VecDeque<(u64, SpanId)>,
    polls: u64,
    /// Time inside `Sut::poll` and the outputs it returned, while tracing.
    pub poll_ns: u64,
    pub polled_outputs: u64,
}

impl Driver {
    pub fn new() -> Self {
        Driver {
            pool: Rc::new(Vec::new()),
            clock: Instant::now(),
            clients_of: Vec::new(),
            sent_at_ns: Vec::new(),
            outs: Vec::new(),
            completed: 0,
            latency_ns: Vec::new(),
            inject_lag_ns: Vec::new(),
            sampling: false,
            tracer: Tracer::new(false),
            open_ops: VecDeque::new(),
            polls: 0,
            poll_ns: 0,
            polled_outputs: 0,
        }
    }

    /// Starts the books of a fresh deployment whose input is `pool`.
    pub fn begin_epoch(&mut self, pool: Rc<Vec<Value>>) {
        self.pool = pool;
        self.clients_of.clear();
        self.sent_at_ns.clear();
        self.outs.clear();
        self.completed = 0;
        self.latency_ns.clear();
        self.inject_lag_ns.clear();
        self.sampling = false;
        self.open_ops.clear();
    }

    pub fn sent(&self) -> u64 {
        self.sent_at_ns.len() as u64
    }

    pub fn outstanding(&self) -> u64 {
        self.sent() - self.completed
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// The payload of message `index`: the pool, cycled.
    pub fn payload(&self, index: u64) -> &Value {
        &self.pool[index as usize % self.pool.len()]
    }

    /// Sends the next message on `client`, booked as sent at `at_ns`.
    fn send_at(&mut self, sut: &mut dyn Sut, client: usize, at_ns: u64) {
        let index = self.sent();
        let payload = self.payload(index).clone();
        self.clients_of.push(client as u8);
        self.sent_at_ns.push(at_ns);
        if self.tracer.is_on() && index.is_multiple_of(SPAN_SAMPLING) {
            let op = self.tracer.begin("op.message", index, SpanId::NONE);
            self.tracer
                .span("cluster.send", index, op, || sut.send(client, payload));
            self.open_ops.push_back((index + 1, op));
        } else {
            sut.send(client, payload);
        }
    }

    /// Sends the next message now, clients in rotation.
    pub fn send_next(&mut self, sut: &mut dyn Sut, clients: usize) {
        let client = self.sent() as usize % clients;
        let now = self.now_ns();
        self.send_at(sut, client, now);
    }

    /// Collects outputs; returns how many were fresh (not replay stutter).
    pub fn poll(&mut self, sut: &mut dyn Sut) -> u64 {
        let before = self.outs.len();
        self.polls += 1;
        if self.tracer.is_on() {
            let started = Instant::now();
            if self.polls.is_multiple_of(SPAN_SAMPLING) {
                let outs = &mut self.outs;
                self.tracer
                    .span("cluster.take_outputs", self.polls, SpanId::NONE, || {
                        sut.poll(outs)
                    });
            } else {
                sut.poll(&mut self.outs);
            }
            self.poll_ns += started.elapsed().as_nanos() as u64;
            self.polled_outputs += (self.outs.len() - before) as u64;
        } else {
            sut.poll(&mut self.outs);
        }
        if self.outs.len() == before {
            return 0;
        }
        let now = self.now_ns();
        let was = self.completed;
        for i in before..self.outs.len() {
            let seq = self.outs[i].seq;
            // Anything at or below the high-water mark is stutter; anything
            // the generator never sent is left for verification to reject.
            if seq <= self.completed as i64 || seq as u64 > self.sent() {
                continue;
            }
            if self.sampling {
                for done in self.completed..seq as u64 {
                    self.latency_ns
                        .push(now.saturating_sub(self.sent_at_ns[done as usize]));
                }
            }
            self.completed = seq as u64;
        }
        while let Some(&(seq, op)) = self.open_ops.front() {
            if seq > self.completed {
                break;
            }
            self.tracer.end(op);
            self.open_ops.pop_front();
        }
        self.completed - was
    }

    /// Latencies are sampled between `begin_sampling` and `end_sampling`.
    pub fn begin_sampling(&mut self) {
        self.sampling = true;
    }

    pub fn end_sampling(&mut self) {
        self.sampling = false;
    }

    /// Closed loop: keeps `window` messages outstanding until `messages` have
    /// been sent or `until` passes, whichever is first, then waits for the
    /// outputs. The count is what normally ends it — equal work on every
    /// commit keeps the figures that grow with volume (recovery time,
    /// memory, the slow-down of a long run) comparable — and the clock keeps
    /// a slow run from overrunning. Returns outputs per second from the
    /// first send to the last output, or `None` if the outputs did not all
    /// arrive within `drain_limit`.
    pub fn closed_loop(
        &mut self,
        sut: &mut dyn Sut,
        clients: usize,
        window: u64,
        messages: u64,
        until: Instant,
        drain_limit: Duration,
    ) -> Option<f64> {
        let started_ns = self.now_ns();
        let base = self.completed;
        let target = self.sent() + messages;
        while self.sent() < target && Instant::now() < until {
            while self.outstanding() < window && self.sent() < target {
                self.send_next(sut, clients);
            }
            if self.poll(sut) == 0 {
                std::thread::sleep(WINDOW_FULL_PAUSE);
            }
        }
        let drained = self.drain(sut, drain_limit);
        let elapsed_ns = (self.now_ns() - started_ns).max(1);
        drained.then(|| (self.completed - base) as f64 * 1e9 / elapsed_ns as f64)
    }

    /// Output rate over the last tenth of the epoch's sampled messages
    /// divided by the rate over the first tenth: 1.0 when throughput is flat.
    /// Both tenths hold the same number of messages, so it is the inverse
    /// ratio of their durations. Only meaningful while every message of the
    /// epoch so far was sampled, which makes sample `i` message `i`.
    pub fn last_over_first_decile(&self) -> Option<f64> {
        let n = self.latency_ns.len();
        let tenth = n / 10;
        if tenth == 0 {
            return None;
        }
        let done_ns = |i: usize| self.sent_at_ns[i] + self.latency_ns[i];
        let first = done_ns(tenth - 1).saturating_sub(self.sent_at_ns[0]);
        let last = done_ns(n - 1).saturating_sub(done_ns(n - 1 - tenth));
        (last > 0).then(|| first as f64 / last as f64)
    }

    /// Open loop: sends every arrival when it is due, whatever the system
    /// does, then waits (heartbeating) for the tail. Latency runs from the
    /// due instant, so a stall charges every message queued behind it.
    /// Returns outputs per second, or `None` if the tail did not drain.
    pub fn open_loop(
        &mut self,
        sut: &mut dyn Sut,
        schedule: &[Arrival],
        drain_limit: Duration,
    ) -> Option<f64> {
        let started_ns = self.now_ns();
        let base = self.completed;
        let mut next = 0;
        while next < schedule.len() {
            let mut idle = true;
            loop {
                let now = self.now_ns() - started_ns;
                let Some(arrival) = schedule.get(next).filter(|a| a.due_ns <= now) else {
                    break;
                };
                self.inject_lag_ns.push(now - arrival.due_ns);
                self.send_at(sut, arrival.client as usize, started_ns + arrival.due_ns);
                next += 1;
                idle = false;
            }
            if self.poll(sut) == 0 && idle {
                // Sleep rather than spin or yield: with two cores a generator
                // that stays runnable makes the engines wait out its
                // timeslice, and whole runs read milliseconds at p90. The
                // price is a polling grain of this pause plus the kernel's
                // timer slack (about 70 µs in all) on every latency.
                std::thread::sleep(OPEN_LOOP_PAUSE);
            }
        }
        let drained = self.drain(sut, drain_limit);
        let elapsed_ns = (self.now_ns() - started_ns).max(1);
        drained.then(|| (self.completed - base) as f64 * 1e9 / elapsed_ns as f64)
    }

    /// Sends `count` more messages, at most `window` outstanding, and waits
    /// for all of them. `false` on a missed deadline.
    pub fn send_and_drain(
        &mut self,
        sut: &mut dyn Sut,
        clients: usize,
        window: u64,
        count: u64,
        limit: Duration,
    ) -> bool {
        let until = Instant::now() + limit;
        self.closed_loop(sut, clients, window, count, until, limit)
            .is_some()
    }

    /// Waits until every sent message has produced its output, heartbeating
    /// the idle inputs. `false` when `limit` expires first.
    pub fn drain(&mut self, sut: &mut dyn Sut, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            self.poll(sut);
            if self.outstanding() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            sut.idle();
            std::thread::sleep(IDLE_PAUSE);
        }
    }

    /// The tail of every recovery drill: [`Driver::await_fresh`] under a
    /// `wait.first_output` span, then closes the drill's `op` span.
    pub fn await_recovery(
        &mut self,
        sut: &mut dyn Sut,
        op: (SpanId, u64),
        after: u64,
        limit: Duration,
        trickle: Option<(usize, Duration)>,
    ) -> bool {
        let wait = self.tracer.begin("wait.first_output", op.1, op.0);
        let fresh = self.await_fresh(sut, after, limit, trickle);
        self.tracer.end(wait);
        self.tracer.end(op.0);
        fresh
    }

    /// Waits for the first output beyond `after`; `false` on a missed
    /// deadline. With `trickle = (clients, period)` one more message is sent
    /// every `period` while waiting: a frame lost in flight is only noticed
    /// when a later one arrives, so a silent sender would never recover it.
    fn await_fresh(
        &mut self,
        sut: &mut dyn Sut,
        after: u64,
        limit: Duration,
        trickle: Option<(usize, Duration)>,
    ) -> bool {
        let deadline = Instant::now() + limit;
        let mut last_idle = Instant::now();
        let mut last_trickle = Instant::now();
        loop {
            self.poll(sut);
            if self.completed > after {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            match trickle {
                Some((clients, period)) if now.duration_since(last_trickle) >= period => {
                    self.send_next(sut, clients);
                    last_trickle = now;
                }
                _ => {}
            }
            if now.duration_since(last_idle) >= IDLE_PAUSE {
                sut.idle();
                last_idle = now;
            }
            std::thread::yield_now();
        }
    }
}
