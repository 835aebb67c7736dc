//! Inter-engine wire protocol.

use bytes::{BufMut, BytesMut};
use tart_codec::{Decode, DecodeError, Encode, Reader};
use tart_estimator::EstimatorSpec;
use tart_model::Value;
use tart_silence::SilencePolicy;
use tart_vtime::ComponentId;
use tart_vtime::{EngineId, VirtualTime, WireId};

/// Everything that travels between engines (and from injectors into
/// engines).
///
/// All communication is reliable and FIFO per link (§II.A); fault injection
/// in the transport deliberately violates this for Data and Silence
/// envelopes to exercise the gap-detection and replay paths.
#[derive(Clone, Debug, PartialEq)]
pub enum Envelope {
    /// A data tick on a wire.
    Data {
        /// The wire.
        wire: WireId,
        /// This message's virtual time.
        vt: VirtualTime,
        /// The virtual time of the previous data tick on this wire
        /// ([`VirtualTime::ZERO`] for the first). A receiver that never saw
        /// `prev_vt` knows a message was lost and requests replay.
        prev_vt: VirtualTime,
        /// The payload.
        payload: Value,
    },
    /// An explicit promise that `wire` is silent through `through`.
    Silence {
        /// The wire.
        wire: WireId,
        /// All ticks `<= through` are accounted.
        through: VirtualTime,
        /// The last data tick the sender has transmitted
        /// ([`VirtualTime::ZERO`] if none). A receiver whose account does
        /// not include `last_data` knows a message was lost even when no
        /// successor data ever arrives.
        last_data: VirtualTime,
    },
    /// A curiosity probe: the receiver of `wire` needs its ticks accounted
    /// through `needed_through` (§II.H).
    Probe {
        /// The probed wire.
        wire: WireId,
        /// Silence needed through this time.
        needed_through: VirtualTime,
    },
    /// Request to resend all retained data ticks on `wire` with
    /// `vt >= from`, followed by a [`Envelope::ReplayDone`] marker.
    ReplayRequest {
        /// The wire to replay.
        wire: WireId,
        /// Resend everything from this virtual time on.
        from: VirtualTime,
    },
    /// Marks the end of a replay burst: the wire is accounted through
    /// `through`; the receiver may flush its recovery stash.
    ReplayDone {
        /// The replayed wire.
        wire: WireId,
        /// Accounted watermark after replay.
        through: VirtualTime,
        /// Number of data frames the burst contained. A receiver that
        /// collected fewer (replay frames can be lost too) re-requests
        /// instead of flushing.
        frames: u64,
    },
    /// Downstream acknowledgement that all ticks on `wire` through
    /// `through` are covered by a checkpoint; the sender may trim its
    /// retention buffer.
    TrimAck {
        /// The wire.
        wire: WireId,
        /// Retention at or below this time may be discarded.
        through: VirtualTime,
    },
    /// Trigger an immediate soft checkpoint.
    Checkpoint,
    /// Fail-stop: the engine dies instantly, losing all state and any
    /// unprocessed envelopes (the failure model of §II.A).
    Die,
    /// Graceful shutdown after draining all pending deliverable work.
    Drain,
    /// Switch the engine's silence propagation strategy at runtime. Lazy,
    /// curiosity and aggressive propagation "can be arbitrarily mixed
    /// and/or dynamically changed without requiring a determinism fault"
    /// (§II.G.4) — only how silence is *communicated* changes, never which
    /// ticks are silent.
    SetSilencePolicy {
        /// The new policy.
        policy: SilencePolicy,
    },
    /// End-of-stream on a wire: the sender will never transmit again, so
    /// the wire is silent forever past `last_data`. Travels the reliable
    /// control plane (unlike [`Envelope::Silence`]) because a lost final
    /// silence would wedge a draining receiver.
    Eos {
        /// The wire.
        wire: WireId,
        /// The last data tick ever transmitted (tail-loss detection).
        last_data: VirtualTime,
    },
    /// Install a re-calibrated estimator for a hosted component. The engine
    /// logs the resulting determinism fault synchronously before using the
    /// new estimator (§II.G.4).
    Recalibrate {
        /// The component whose estimator changes.
        component: ComponentId,
        /// The replacement estimator.
        spec: EstimatorSpec,
    },
    /// Periodic liveness beacon from an engine to the cluster supervisor.
    /// Travels the reliable control plane (never fault-injected): the
    /// failure detector must only suspect engines that actually stopped,
    /// not engines behind a lossy payload link.
    Heartbeat {
        /// The engine reporting in.
        engine: EngineId,
        /// Monotone per-incarnation sequence number (restarts from zero
        /// after failover, letting the supervisor spot the new incarnation).
        seq: u64,
    },
    /// The primary's virtual-time head advancing: one logged external
    /// input was delivered at `vt` on `wire`. The standby uses the head to
    /// compute its trailing horizon and its replication lag; the payload
    /// itself still replays from retention/log on promotion.
    StandbyInput {
        /// The primary engine whose head advanced.
        engine: EngineId,
        /// The external wire the input arrived on.
        wire: WireId,
        /// The input's virtual time (the new head).
        vt: VirtualTime,
    },
}

impl Envelope {
    /// The wire this envelope concerns, if any.
    pub fn wire(&self) -> Option<WireId> {
        match self {
            Envelope::Data { wire, .. }
            | Envelope::Silence { wire, .. }
            | Envelope::Probe { wire, .. }
            | Envelope::ReplayRequest { wire, .. }
            | Envelope::ReplayDone { wire, .. }
            | Envelope::TrimAck { wire, .. }
            | Envelope::Eos { wire, .. }
            | Envelope::StandbyInput { wire, .. } => Some(*wire),
            _ => None,
        }
    }

    /// Returns `true` for the envelope kinds the fault injector may
    /// disturb (payload traffic; the control plane stays reliable).
    pub fn faultable(&self) -> bool {
        matches!(self, Envelope::Data { .. } | Envelope::Silence { .. })
    }
}

const TAG_DATA: u8 = 0;
const TAG_SILENCE: u8 = 1;
const TAG_PROBE: u8 = 2;
const TAG_REPLAY_REQUEST: u8 = 3;
const TAG_REPLAY_DONE: u8 = 4;
const TAG_TRIM_ACK: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_DIE: u8 = 7;
const TAG_DRAIN: u8 = 8;
const TAG_RECALIBRATE: u8 = 9;
const TAG_EOS: u8 = 10;
const TAG_SET_SILENCE: u8 = 11;
const TAG_HEARTBEAT: u8 = 12;
// 13 is retired (it carried a second copy of every checkpoint to the warm
// standby, which now tails the replica chain instead). Never reassign it: a
// peer still speaking the old protocol must get an unknown-tag error, not a
// misparse.
const TAG_STANDBY_INPUT: u8 = 14;

impl Encode for Envelope {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Envelope::Data {
                wire,
                vt,
                prev_vt,
                payload,
            } => {
                buf.put_u8(TAG_DATA);
                wire.encode(buf);
                vt.encode(buf);
                prev_vt.encode(buf);
                payload.encode(buf);
            }
            Envelope::Silence {
                wire,
                through,
                last_data,
            } => {
                buf.put_u8(TAG_SILENCE);
                wire.encode(buf);
                through.encode(buf);
                last_data.encode(buf);
            }
            Envelope::Probe {
                wire,
                needed_through,
            } => {
                buf.put_u8(TAG_PROBE);
                wire.encode(buf);
                needed_through.encode(buf);
            }
            Envelope::ReplayRequest { wire, from } => {
                buf.put_u8(TAG_REPLAY_REQUEST);
                wire.encode(buf);
                from.encode(buf);
            }
            Envelope::ReplayDone {
                wire,
                through,
                frames,
            } => {
                buf.put_u8(TAG_REPLAY_DONE);
                wire.encode(buf);
                through.encode(buf);
                frames.encode(buf);
            }
            Envelope::TrimAck { wire, through } => {
                buf.put_u8(TAG_TRIM_ACK);
                wire.encode(buf);
                through.encode(buf);
            }
            Envelope::Checkpoint => buf.put_u8(TAG_CHECKPOINT),
            Envelope::Die => buf.put_u8(TAG_DIE),
            Envelope::Drain => buf.put_u8(TAG_DRAIN),
            Envelope::Recalibrate { component, spec } => {
                buf.put_u8(TAG_RECALIBRATE);
                component.encode(buf);
                spec.encode(buf);
            }
            Envelope::Eos { wire, last_data } => {
                buf.put_u8(TAG_EOS);
                wire.encode(buf);
                last_data.encode(buf);
            }
            Envelope::SetSilencePolicy { policy } => {
                buf.put_u8(TAG_SET_SILENCE);
                policy.encode(buf);
            }
            Envelope::Heartbeat { engine, seq } => {
                buf.put_u8(TAG_HEARTBEAT);
                engine.encode(buf);
                seq.encode(buf);
            }
            Envelope::StandbyInput { engine, wire, vt } => {
                buf.put_u8(TAG_STANDBY_INPUT);
                engine.encode(buf);
                wire.encode(buf);
                vt.encode(buf);
            }
        }
    }
}

impl Decode for Envelope {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            TAG_DATA => Ok(Envelope::Data {
                wire: WireId::decode(r)?,
                vt: VirtualTime::decode(r)?,
                prev_vt: VirtualTime::decode(r)?,
                payload: Value::decode(r)?,
            }),
            TAG_SILENCE => Ok(Envelope::Silence {
                wire: WireId::decode(r)?,
                through: VirtualTime::decode(r)?,
                last_data: VirtualTime::decode(r)?,
            }),
            TAG_PROBE => Ok(Envelope::Probe {
                wire: WireId::decode(r)?,
                needed_through: VirtualTime::decode(r)?,
            }),
            TAG_REPLAY_REQUEST => Ok(Envelope::ReplayRequest {
                wire: WireId::decode(r)?,
                from: VirtualTime::decode(r)?,
            }),
            TAG_REPLAY_DONE => Ok(Envelope::ReplayDone {
                wire: WireId::decode(r)?,
                through: VirtualTime::decode(r)?,
                frames: u64::decode(r)?,
            }),
            TAG_TRIM_ACK => Ok(Envelope::TrimAck {
                wire: WireId::decode(r)?,
                through: VirtualTime::decode(r)?,
            }),
            TAG_CHECKPOINT => Ok(Envelope::Checkpoint),
            TAG_DIE => Ok(Envelope::Die),
            TAG_DRAIN => Ok(Envelope::Drain),
            TAG_RECALIBRATE => Ok(Envelope::Recalibrate {
                component: ComponentId::decode(r)?,
                spec: EstimatorSpec::decode(r)?,
            }),
            TAG_EOS => Ok(Envelope::Eos {
                wire: WireId::decode(r)?,
                last_data: VirtualTime::decode(r)?,
            }),
            TAG_SET_SILENCE => Ok(Envelope::SetSilencePolicy {
                policy: SilencePolicy::decode(r)?,
            }),
            TAG_HEARTBEAT => Ok(Envelope::Heartbeat {
                engine: EngineId::decode(r)?,
                seq: u64::decode(r)?,
            }),
            TAG_STANDBY_INPUT => Ok(Envelope::StandbyInput {
                engine: EngineId::decode(r)?,
                wire: WireId::decode(r)?,
                vt: VirtualTime::decode(r)?,
            }),
            tag => Err(DecodeError::InvalidTag {
                tag,
                type_name: "Envelope",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(t: u64) -> VirtualTime {
        VirtualTime::from_ticks(t)
    }

    #[test]
    fn all_variants_round_trip() {
        let w = WireId::new(3);
        let variants = vec![
            Envelope::Data {
                wire: w,
                vt: vt(100),
                prev_vt: vt(50),
                payload: Value::from("hello"),
            },
            Envelope::Silence {
                wire: w,
                through: vt(99),
                last_data: vt(40),
            },
            Envelope::Probe {
                wire: w,
                needed_through: vt(200),
            },
            Envelope::ReplayRequest {
                wire: w,
                from: vt(10),
            },
            Envelope::ReplayDone {
                wire: w,
                through: vt(500),
                frames: 3,
            },
            Envelope::TrimAck {
                wire: w,
                through: vt(20),
            },
            Envelope::Checkpoint,
            Envelope::Die,
            Envelope::Drain,
            Envelope::Recalibrate {
                component: ComponentId::new(2),
                spec: tart_estimator::EstimatorSpec::per_iteration(tart_model::BlockId(0), 61_000),
            },
            Envelope::Eos {
                wire: w,
                last_data: vt(77),
            },
            Envelope::SetSilencePolicy {
                policy: tart_silence::SilencePolicy::Curiosity,
            },
            Envelope::Heartbeat {
                engine: EngineId::new(5),
                seq: u64::MAX,
            },
            Envelope::StandbyInput {
                engine: EngineId::new(2),
                wire: w,
                vt: vt(123),
            },
        ];
        for env in variants {
            let bytes = env.to_bytes();
            assert_eq!(Envelope::from_bytes(&bytes).unwrap(), env, "{env:?}");
        }
    }

    #[test]
    fn wire_accessor() {
        let w = WireId::new(1);
        assert_eq!(
            Envelope::Silence {
                wire: w,
                through: vt(1),
                last_data: vt(0)
            }
            .wire(),
            Some(w)
        );
        assert_eq!(Envelope::Checkpoint.wire(), None);
        assert_eq!(Envelope::Die.wire(), None);
        assert_eq!(Envelope::Drain.wire(), None);
    }

    #[test]
    fn only_payload_traffic_is_faultable() {
        let w = WireId::new(1);
        assert!(Envelope::Data {
            wire: w,
            vt: vt(1),
            prev_vt: vt(0),
            payload: Value::Unit
        }
        .faultable());
        assert!(Envelope::Silence {
            wire: w,
            through: vt(1),
            last_data: vt(0)
        }
        .faultable());
        assert!(!Envelope::Probe {
            wire: w,
            needed_through: vt(1)
        }
        .faultable());
        assert!(!Envelope::ReplayRequest {
            wire: w,
            from: vt(1)
        }
        .faultable());
        assert!(!Envelope::ReplayDone {
            wire: w,
            through: vt(1),
            frames: 0
        }
        .faultable());
        assert!(!Envelope::Checkpoint.faultable());
        assert!(
            !Envelope::Heartbeat {
                engine: EngineId::new(0),
                seq: 1
            }
            .faultable(),
            "the failure detector must not be confused by injected link faults"
        );
        assert!(
            !Envelope::StandbyInput {
                engine: EngineId::new(0),
                wire: w,
                vt: vt(1)
            }
            .faultable(),
            "standby replication rides the reliable control plane"
        );
    }

    #[test]
    fn junk_and_retired_tags_rejected() {
        // 13 once streamed checkpoints to the standby; it stays unknown.
        for tag in [13, 42] {
            assert!(matches!(
                Envelope::from_bytes(&[tag]),
                Err(DecodeError::InvalidTag { tag: t, .. }) if t == tag
            ));
        }
    }
}
