//! Output verification against an independent reference.
//!
//! The reference drives `tart_model::reference::{WordCountSender, Merger}`
//! (and the benchmark's [`Ledger`]) directly, single-threaded, in send
//! order — no engine, no scheduler, no virtual time. Under the logical clock
//! the engine's output stream is a pure function of the send order, so after
//! stutter removal it must equal the reference sequence exactly, across
//! every kill, crash and promote.

use tart_engine::OutputRecord;
use tart_model::reference::{Merger, WordCountSender, IN_PORT};
use tart_model::{Component, RecordingCtx, Value};
use tart_vtime::VirtualTime;

use crate::ledger::Ledger;

/// One external output, reduced to what verification and latency matching
/// need: 24 bytes instead of an `OutputRecord` with its strings and map, so
/// a multi-million-message run does not measure the harness's own memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Out {
    /// Virtual time of the output; replay stutter repeats it.
    pub vt: u64,
    /// The component's own sequence number (1 for the first input).
    pub seq: i64,
    /// The rest of the payload: the merger's running total, 0 for the ledger.
    pub body: i64,
}

impl Out {
    /// A payload neither reference component could have emitted gets the
    /// sequence number -1, which nothing expects, so verification counts it.
    pub fn of(record: &OutputRecord) -> Out {
        let field = |key: &str| record.payload.get(key).and_then(Value::as_i64);
        let (seq, body) = match record.payload.as_i64() {
            Some(seq) => (seq, 0),
            None => field("seq").zip(field("total")).unwrap_or((-1, 0)),
        };
        Out {
            vt: record.vt.as_ticks(),
            seq,
            body,
        }
    }
}

/// What the application under test should emit for each input, in order.
pub trait Reference {
    /// Feeds the next input (in send order); returns the expected output's
    /// `(seq, body)`.
    fn feed(&mut self, client: usize, payload: &Value) -> (i64, i64);
}

fn single_send(component: &mut dyn Component, payload: &Value) -> Value {
    let mut ctx = RecordingCtx::at(VirtualTime::ZERO);
    component.on_message(IN_PORT, payload, &mut ctx);
    let mut sends = ctx.take_sends();
    assert_eq!(sends.len(), 1, "reference components send exactly once");
    sends.remove(0).1
}

/// The Fig 1 application: one word-count sender per client into the merger.
pub struct FanInReference {
    senders: Vec<WordCountSender>,
    merger: Merger,
}

impl FanInReference {
    pub fn new(clients: usize) -> Self {
        FanInReference {
            senders: (0..clients).map(|_| WordCountSender::new()).collect(),
            merger: Merger::new(),
        }
    }
}

impl Reference for FanInReference {
    fn feed(&mut self, client: usize, payload: &Value) -> (i64, i64) {
        let count = single_send(&mut self.senders[client], payload);
        let out = single_send(&mut self.merger, &count);
        let field = |k: &str| {
            out.get(k)
                .and_then(Value::as_i64)
                .expect("merger output shape")
        };
        (field("seq"), field("total"))
    }
}

/// The single-component ledger application.
pub struct LedgerReference(Ledger);

impl LedgerReference {
    pub fn new(keys: usize) -> Self {
        LedgerReference(Ledger::new(keys))
    }
}

impl Reference for LedgerReference {
    fn feed(&mut self, _client: usize, payload: &Value) -> (i64, i64) {
        let ack = single_send(&mut self.0, payload);
        (ack.as_i64().expect("ledger acks are integers"), 0)
    }
}

/// How the engine's output stream differs from the reference; every count
/// is a number of failed operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Expected outputs that never arrived.
    pub missing: u64,
    /// Outputs that arrived more than once even after stutter removal, or
    /// that no input accounts for.
    pub duplicated: u64,
    /// Outputs whose payload differs from the reference.
    pub mismatched: u64,
    /// Outputs that arrived ahead of an earlier one (virtual-time order
    /// disagrees with send order).
    pub reordered: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.missing + self.duplicated + self.mismatched + self.reordered
    }
}

/// Compares the engine's raw outputs with `expected` (one `(seq, body)` per
/// input, in send order, `seq` counting from 1).
///
/// Stutter is removed the way `Cluster::dedup_outputs` does it — first
/// record per virtual time, in virtual-time order — on the compact records.
pub fn verify(expected: &[(i64, i64)], mut got: Vec<Out>) -> Verdict {
    got.sort_by_key(|o| o.vt);
    got.dedup_by_key(|o| o.vt);
    let mut verdict = Verdict::default();
    let mut seen = vec![false; expected.len()];
    let mut highest = 0i64;
    for o in &got {
        let slot = usize::try_from(o.seq - 1)
            .ok()
            .filter(|i| *i < expected.len());
        match slot {
            None => verdict.duplicated += 1,
            Some(i) if seen[i] => verdict.duplicated += 1,
            Some(i) => {
                seen[i] = true;
                if expected[i] != (o.seq, o.body) {
                    verdict.mismatched += 1;
                } else if o.seq < highest {
                    verdict.reordered += 1;
                }
                highest = highest.max(o.seq);
            }
        }
    }
    verdict.missing = seen.iter().filter(|s| !**s).count() as u64;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_run(n: i64) -> (Vec<(i64, i64)>, Vec<Out>) {
        let expected: Vec<(i64, i64)> = (1..=n).map(|s| (s, s * 10)).collect();
        let got = expected
            .iter()
            .map(|&(seq, body)| Out {
                vt: seq as u64 * 1_000,
                seq,
                body,
            })
            .collect();
        (expected, got)
    }

    #[test]
    fn accepts_a_clean_run_and_replay_stutter() {
        let (expected, mut got) = clean_run(5);
        assert_eq!(verify(&expected, got.clone()), Verdict::default());
        // Stutter: the same virtual times again, in any arrival order.
        got.extend_from_within(1..4);
        got.swap(0, 6);
        assert_eq!(verify(&expected, got), Verdict::default());
    }

    #[test]
    fn rejects_a_dropped_output() {
        let (expected, mut got) = clean_run(5);
        got.remove(2);
        let v = verify(&expected, got);
        assert_eq!((v.missing, v.failed()), (1, 1));
    }

    #[test]
    fn rejects_a_duplicated_output() {
        let (expected, mut got) = clean_run(5);
        // Same payload at a *new* virtual time: not stutter, a real duplicate.
        got.push(Out {
            vt: 9_999,
            ..got[1]
        });
        let v = verify(&expected, got);
        assert_eq!((v.duplicated, v.failed()), (1, 1));
    }

    #[test]
    fn rejects_a_reordered_output() {
        let (expected, mut got) = clean_run(5);
        let (a, b) = (got[1].vt, got[2].vt);
        got[1].vt = b;
        got[2].vt = a;
        let v = verify(&expected, got);
        assert_eq!((v.reordered, v.failed()), (1, 1));
    }

    #[test]
    fn rejects_a_wrong_payload_and_an_unaccounted_output() {
        let (expected, mut got) = clean_run(3);
        got[0].body += 1;
        got.push(Out {
            vt: 77_000,
            seq: 4,
            body: 40,
        });
        let v = verify(&expected, got);
        assert_eq!((v.mismatched, v.duplicated, v.failed()), (1, 1, 2));
    }

    #[test]
    fn fan_in_reference_follows_code_body_1() {
        let mut r = FanInReference::new(2);
        assert_eq!(r.feed(0, &Value::from("a b a")), (1, 1));
        assert_eq!(
            r.feed(1, &Value::from("a b")),
            (2, 1),
            "senders keep separate tables"
        );
        assert_eq!(r.feed(0, &Value::from("a")), (3, 3));
        let mut l = LedgerReference::new(8);
        assert_eq!(l.feed(0, &Value::I64(5)), (1, 0));
        assert_eq!(l.feed(0, &Value::I64(5)), (2, 0));
    }
}
