//! Per-wire output retention for replay.

use std::collections::VecDeque;

use tart_model::Value;
use tart_vtime::VirtualTime;

/// Keeps the messages a sender has transmitted on one wire until the
/// receiver's checkpoints make them unnecessary.
///
/// "If an engine fails … the sending engine will be asked to replay
/// messages" (§II.F.3). Inter-component messages are never logged; the
/// retention buffer is the volatile store replay draws from. Buffers trim
/// on [`TrimAck`](crate::Envelope::TrimAck): once the receiver checkpoints
/// state covering tick `t`, ticks `<= t` can never be requested again
/// (under the single-failure assumption of the paper's footnote 1).
#[derive(Clone, Debug, Default)]
pub(crate) struct RetentionBuffer {
    /// `(vt, payload)` in strictly increasing vt order.
    entries: VecDeque<(VirtualTime, Value)>,
    /// Last transmitted data tick (for the `prev_vt` chain), even if
    /// trimmed.
    last_sent: Option<VirtualTime>,
}

impl RetentionBuffer {
    /// Records a transmitted message. Re-executions after a restore may
    /// legally re-record old virtual times; they are kept only if not
    /// already present.
    pub(crate) fn record(&mut self, vt: VirtualTime, payload: Value) {
        match self.entries.back() {
            Some((last, _)) if *last >= vt => {
                // Replay re-send of something still retained: ignore.
            }
            _ => self.entries.push_back((vt, payload)),
        }
        if self.last_sent.is_none_or(|l| vt > l) {
            self.last_sent = Some(vt);
        }
    }

    /// The previous data tick to chain into the next message's `prev_vt`.
    pub(crate) fn last_sent(&self) -> Option<VirtualTime> {
        self.last_sent
    }

    /// Restores the `prev_vt` chain head after a promote (the restored
    /// engine re-sends from its checkpoint; receivers key duplicates off
    /// timestamps, so the chain restarts from the checkpoint's watermark).
    pub(crate) fn reset_chain(&mut self, last_sent: Option<VirtualTime>) {
        self.entries.clear();
        self.last_sent = last_sent;
    }

    /// Everything retained with `vt >= from`, in order.
    pub(crate) fn replay_from(&self, from: VirtualTime) -> Vec<(VirtualTime, Value)> {
        self.entries
            .iter()
            .filter(|(vt, _)| *vt >= from)
            .cloned()
            .collect()
    }

    /// Drops entries with `vt <= through`.
    pub(crate) fn trim_through(&mut self, through: VirtualTime) {
        while let Some((vt, _)) = self.entries.front() {
            if *vt <= through {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(t: u64) -> VirtualTime {
        VirtualTime::from_ticks(t)
    }

    /// How many messages `buf` retains.
    fn held(buf: &RetentionBuffer) -> usize {
        buf.replay_from(VirtualTime::ZERO).len()
    }

    #[test]
    fn records_and_replays_in_order() {
        let mut buf = RetentionBuffer::default();
        assert_eq!(held(&buf), 0);
        buf.record(vt(10), Value::I64(1));
        buf.record(vt(20), Value::I64(2));
        buf.record(vt(30), Value::I64(3));
        assert_eq!(held(&buf), 3);
        assert_eq!(buf.last_sent(), Some(vt(30)));
        assert_eq!(
            buf.replay_from(vt(15)),
            vec![(vt(20), Value::I64(2)), (vt(30), Value::I64(3))]
        );
        assert_eq!(buf.replay_from(vt(31)), vec![]);
        assert_eq!(buf.replay_from(VirtualTime::ZERO).len(), 3);
    }

    #[test]
    fn trim_drops_covered_prefix() {
        let mut buf = RetentionBuffer::default();
        for t in [10, 20, 30] {
            buf.record(vt(t), Value::Unit);
        }
        buf.trim_through(vt(20));
        assert_eq!(held(&buf), 1);
        assert_eq!(
            buf.replay_from(VirtualTime::ZERO),
            vec![(vt(30), Value::Unit)]
        );
        // Trim is idempotent and tolerant of over-trim.
        buf.trim_through(vt(100));
        assert_eq!(held(&buf), 0);
        // last_sent survives trimming (prev_vt chain must not regress).
        assert_eq!(buf.last_sent(), Some(vt(30)));
    }

    #[test]
    fn re_recording_old_vts_is_ignored() {
        let mut buf = RetentionBuffer::default();
        buf.record(vt(10), Value::I64(1));
        buf.record(vt(20), Value::I64(2));
        // A replay re-send of vt 10 while it is still retained: no dup.
        buf.record(vt(10), Value::I64(1));
        assert_eq!(held(&buf), 2);
        assert_eq!(buf.last_sent(), Some(vt(20)));
    }

    #[test]
    fn reset_chain_for_promoted_replica() {
        let mut buf = RetentionBuffer::default();
        buf.record(vt(10), Value::I64(1));
        buf.reset_chain(Some(vt(5)));
        assert_eq!(held(&buf), 0);
        assert_eq!(buf.last_sent(), Some(vt(5)));
        // Re-execution from the checkpoint refills.
        buf.record(vt(8), Value::I64(8));
        assert_eq!(buf.last_sent(), Some(vt(8)));
        assert_eq!(held(&buf), 1);
    }
}
