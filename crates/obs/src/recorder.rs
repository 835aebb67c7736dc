//! Flight-recorder events: the structured timeline entries each
//! [`crate::ObsHub`] shard keeps in its bounded ring.
//!
//! Chaos-soak failures used to come with a bare output diff; the flight
//! recorder attaches a causal timeline — what was delivered, which silence
//! adverts moved the watermark, which probes fired, which replays ran and
//! which engines were promoted — so a diverging run can be read like a
//! black-box transcript. Rings evict their oldest events, never allocate
//! past the cap, and report the eviction count, so a truncated timeline is
//! visible as such.
//!
//! Events carry a wall-clock offset in nanoseconds since the owning hub was
//! created. That stamp is *telemetry about* the run, taken on the ops
//! plane; it never feeds back into virtual time or checkpointed state.

use bytes::BytesMut;
use tart_codec::{Decode, DecodeError, Encode, Reader};

use crate::json::JsonWriter;

/// What happened. Field meanings follow the engine wire protocol: `wire` is
/// the raw `WireId`, `vt`/`through`/`needed`/`from` are virtual-time ticks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsEventKind {
    /// A message left the pessimistic gate and ran its handler.
    Delivery {
        /// Raw wire id the message arrived on.
        wire: u32,
        /// Virtual timestamp of the message.
        vt: u64,
    },
    /// A silence advert moved a wire's watermark forward.
    SilenceAdvance {
        /// Raw wire id the advert covers.
        wire: u32,
        /// Silence watermark in ticks: no message at or before this vt.
        through: u64,
    },
    /// A curiosity probe asked an upstream engine for silence.
    Probe {
        /// Raw wire id being probed.
        wire: u32,
        /// The vt the prober needs silence through.
        needed: u64,
    },
    /// A replay of logged messages was requested after a gap was detected.
    ReplayRequest {
        /// Raw wire id with the gap.
        wire: u32,
        /// First missing vt (exclusive predecessor), in ticks.
        from: u64,
    },
    /// A replica was promoted to primary (supervisor- or operator-driven).
    FailoverPromotion,
    /// A determinism fault: an estimator recalibration was scheduled.
    RecalibrationFault {
        /// Raw component id whose estimator misbehaved.
        component: u32,
        /// Virtual time the new estimator takes effect, in ticks.
        vt: u64,
    },
    /// Verified replay caught a state divergence: a recomputed state hash
    /// did not match the one recorded at checkpoint time.
    Divergence {
        /// Raw component id whose state diverged (`u32::MAX` when the
        /// mismatch is in engine-level bookkeeping, not any one component).
        component: u32,
        /// Virtual time of the divergent replay horizon, in ticks.
        vt: u64,
    },
    /// A warm standby demoted itself to cold-replay mode: a streamed
    /// checkpoint failed hash verification (or broke the seal chain), so
    /// the standby's pre-applied state can no longer be trusted.
    StandbyDemotion {
        /// Virtual time of the checkpoint that failed verification, in
        /// ticks.
        vt: u64,
    },
    /// A replica promotion completed, warm (standby pre-applied state plus
    /// tail replay) or cold (full chain replay).
    PromotionComplete {
        /// `true` when the promotion started from the standby's
        /// pre-applied state.
        warm: bool,
        /// Wall-clock promotion latency (kill acknowledged → restored
        /// engine running), in nanoseconds.
        latency_ns: u64,
    },
}

impl ObsEventKind {
    fn tag(&self) -> u8 {
        match self {
            ObsEventKind::Delivery { .. } => 0,
            ObsEventKind::SilenceAdvance { .. } => 1,
            ObsEventKind::Probe { .. } => 2,
            ObsEventKind::ReplayRequest { .. } => 3,
            ObsEventKind::FailoverPromotion => 4,
            ObsEventKind::RecalibrationFault { .. } => 5,
            ObsEventKind::Divergence { .. } => 6,
            ObsEventKind::StandbyDemotion { .. } => 7,
            ObsEventKind::PromotionComplete { .. } => 8,
        }
    }

    /// Stable snake_case name used in the JSON report.
    pub fn name(&self) -> &'static str {
        match self {
            ObsEventKind::Delivery { .. } => "delivery",
            ObsEventKind::SilenceAdvance { .. } => "silence_advance",
            ObsEventKind::Probe { .. } => "probe",
            ObsEventKind::ReplayRequest { .. } => "replay_request",
            ObsEventKind::FailoverPromotion => "failover_promotion",
            ObsEventKind::RecalibrationFault { .. } => "recalibration_fault",
            ObsEventKind::Divergence { .. } => "divergence",
            ObsEventKind::StandbyDemotion { .. } => "standby_demotion",
            ObsEventKind::PromotionComplete { .. } => "promotion_complete",
        }
    }
}

/// One flight-recorder entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// Nanoseconds since the owning [`crate::ObsHub`] was created.
    pub at_ns: u64,
    /// Raw id of the engine the event happened on or concerns.
    pub engine: u32,
    /// What happened.
    pub kind: ObsEventKind,
}

impl ObsEvent {
    /// Appends this event as one canonical JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.field_u64("at_ns", self.at_ns);
        w.field_u64("engine", u64::from(self.engine));
        w.field_str("kind", self.kind.name());
        match &self.kind {
            ObsEventKind::Delivery { wire, vt } => {
                w.field_u64("wire", u64::from(*wire));
                w.field_u64("vt", *vt);
            }
            ObsEventKind::SilenceAdvance { wire, through } => {
                w.field_u64("wire", u64::from(*wire));
                w.field_u64("through", *through);
            }
            ObsEventKind::Probe { wire, needed } => {
                w.field_u64("wire", u64::from(*wire));
                w.field_u64("needed", *needed);
            }
            ObsEventKind::ReplayRequest { wire, from } => {
                w.field_u64("wire", u64::from(*wire));
                w.field_u64("from", *from);
            }
            ObsEventKind::FailoverPromotion => {}
            ObsEventKind::RecalibrationFault { component, vt } => {
                w.field_u64("component", u64::from(*component));
                w.field_u64("vt", *vt);
            }
            ObsEventKind::Divergence { component, vt } => {
                w.field_u64("component", u64::from(*component));
                w.field_u64("vt", *vt);
            }
            ObsEventKind::StandbyDemotion { vt } => {
                w.field_u64("vt", *vt);
            }
            ObsEventKind::PromotionComplete { warm, latency_ns } => {
                w.field_str("mode", if *warm { "warm" } else { "cold" });
                w.field_u64("latency_ns", *latency_ns);
            }
        }
        w.end_obj();
    }
}

impl Encode for ObsEvent {
    fn encode(&self, buf: &mut BytesMut) {
        self.at_ns.encode(buf);
        self.engine.encode(buf);
        buf.extend_from_slice(&[self.kind.tag()]);
        match &self.kind {
            ObsEventKind::Delivery { wire, vt } => {
                wire.encode(buf);
                vt.encode(buf);
            }
            ObsEventKind::SilenceAdvance { wire, through } => {
                wire.encode(buf);
                through.encode(buf);
            }
            ObsEventKind::Probe { wire, needed } => {
                wire.encode(buf);
                needed.encode(buf);
            }
            ObsEventKind::ReplayRequest { wire, from } => {
                wire.encode(buf);
                from.encode(buf);
            }
            ObsEventKind::FailoverPromotion => {}
            ObsEventKind::RecalibrationFault { component, vt } => {
                component.encode(buf);
                vt.encode(buf);
            }
            ObsEventKind::Divergence { component, vt } => {
                component.encode(buf);
                vt.encode(buf);
            }
            ObsEventKind::StandbyDemotion { vt } => {
                vt.encode(buf);
            }
            ObsEventKind::PromotionComplete { warm, latency_ns } => {
                buf.extend_from_slice(&[u8::from(*warm)]);
                latency_ns.encode(buf);
            }
        }
    }
}

impl Decode for ObsEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let at_ns = u64::decode(r)?;
        let engine = u32::decode(r)?;
        let kind = match r.read_u8()? {
            0 => ObsEventKind::Delivery {
                wire: u32::decode(r)?,
                vt: u64::decode(r)?,
            },
            1 => ObsEventKind::SilenceAdvance {
                wire: u32::decode(r)?,
                through: u64::decode(r)?,
            },
            2 => ObsEventKind::Probe {
                wire: u32::decode(r)?,
                needed: u64::decode(r)?,
            },
            3 => ObsEventKind::ReplayRequest {
                wire: u32::decode(r)?,
                from: u64::decode(r)?,
            },
            4 => ObsEventKind::FailoverPromotion,
            5 => ObsEventKind::RecalibrationFault {
                component: u32::decode(r)?,
                vt: u64::decode(r)?,
            },
            6 => ObsEventKind::Divergence {
                component: u32::decode(r)?,
                vt: u64::decode(r)?,
            },
            7 => ObsEventKind::StandbyDemotion {
                vt: u64::decode(r)?,
            },
            8 => ObsEventKind::PromotionComplete {
                warm: r.read_u8()? != 0,
                latency_ns: u64::decode(r)?,
            },
            tag => {
                return Err(DecodeError::InvalidTag {
                    tag,
                    type_name: "ObsEventKind",
                })
            }
        };
        Ok(ObsEvent {
            at_ns,
            engine,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_event_kinds_round_trip() {
        let kinds = [
            ObsEventKind::Delivery {
                wire: 3,
                vt: 61_827,
            },
            ObsEventKind::SilenceAdvance {
                wire: 0,
                through: 99,
            },
            ObsEventKind::Probe { wire: 7, needed: 1 },
            ObsEventKind::ReplayRequest { wire: 2, from: 0 },
            ObsEventKind::FailoverPromotion,
            ObsEventKind::RecalibrationFault {
                component: 4,
                vt: u64::MAX,
            },
            ObsEventKind::Divergence {
                component: u32::MAX,
                vt: 42,
            },
            ObsEventKind::StandbyDemotion { vt: 9_000 },
            ObsEventKind::PromotionComplete {
                warm: true,
                latency_ns: 1_500_000,
            },
            ObsEventKind::PromotionComplete {
                warm: false,
                latency_ns: 80_000_000,
            },
        ];
        for kind in kinds {
            let event = ObsEvent {
                at_ns: 5,
                engine: 1,
                kind,
            };
            let bytes = event.to_bytes();
            assert_eq!(ObsEvent::from_bytes(&bytes).unwrap(), event);
        }
    }
}
