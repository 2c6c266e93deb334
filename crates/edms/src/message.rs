//! Messages exchanged between EDMS nodes (paper §3: "flex-offers, supply
//! and demand measurements, forecasts, etc.").

use mirabel_aggregate::FlexOfferUpdate;
use mirabel_core::codec::{CodecError, Wire};
use mirabel_core::{
    ActorId, FlexOffer, FlexOfferId, NodeId, Price, RegionId, ScheduledFlexOffer, TimeSlot,
};

/// The message vocabulary of the EDMS.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Prosumer → BRP: a new flex-offer.
    SubmitOffer(FlexOffer),
    /// BRP → prosumer: the offer entered the pool; estimated value.
    OfferAccepted {
        /// The offer.
        offer: FlexOfferId,
        /// Estimated flexibility value in `[0,1]`.
        value: f64,
    },
    /// BRP → prosumer: the offer was waived; the open contract applies.
    OfferRejected {
        /// The offer.
        offer: FlexOfferId,
    },
    /// BRP → prosumer (or TSO → BRP): a scheduled assignment plus agreed
    /// discount.
    Assignment {
        /// The resolved schedule.
        schedule: ScheduledFlexOffer,
        /// Flexibility discount (EUR/kWh of scheduled energy).
        discount_per_kwh: Price,
    },
    /// Prosumer → BRP: metered energy for past slots (kWh per slot).
    Measurement {
        /// The metered actor.
        actor: ActorId,
        /// First slot of the readings.
        start: TimeSlot,
        /// kWh per slot (positive consumption, negative production).
        values: Vec<f64>,
    },
    /// BRP → TSO: macro (aggregated) flex-offer **deltas** for
    /// higher-level balancing. The BRP forwards the change stream its
    /// aggregation pipeline emits — inserts carry the new/updated macro
    /// offer value, deletes carry only the id — instead of re-sending
    /// full pool snapshots, so a trickle change at level 1 stays a
    /// trickle on the level 2 → level 3 wire.
    MacroOfferDeltas(Vec<FlexOfferUpdate>),
    /// TSO → BRP: the receiver detected a gap in the sender's sequenced
    /// delta stream (a `MacroOfferDeltas` envelope was lost or is still
    /// in flight) and asks for a state snapshot to re-anchor on.
    ResyncRequest,
    /// BRP → TSO: the answer to a [`Message::ResyncRequest`] — a bounded
    /// snapshot of *every* macro offer the sender currently exports. The
    /// receiver diffs it against its pooled view of that sender and
    /// splices only the differences into its live plan, so a lost delta
    /// costs one extra round-trip instead of silent divergence.
    ResyncSnapshot {
        /// The sender's complete current export set.
        offers: Vec<FlexOffer>,
    },
    /// Regional TSO → peer regions (federation exchange bus): net
    /// surplus/deficit **macro-offer deltas** in export-id space — the
    /// same delta-wire contract as [`Message::MacroOfferDeltas`], lifted
    /// one level: instead of BRPs trickling macro offers to their TSO,
    /// regional TSOs trickle their exportable surplus to every peer
    /// region. Bounded by construction (only offers that changed since
    /// the last publication are carried), so cross-border traffic stays
    /// a tiny fraction of intra-region wire bytes.
    ExchangeOfferDeltas(Vec<FlexOfferUpdate>),
    /// Liveness beacon piggybacked on the existing sequenced streams
    /// (failure detection, PR 10). In the hierarchy it flows TSO → BRP
    /// (each commit round) and BRP → TSO (rounds with nothing to flush),
    /// so both ends of a link hear each other at least once per cycle.
    /// `seen` is the sender's cumulative count of applied
    /// [`Message::MacroOfferDeltas`] envelopes from the receiver — a
    /// piggybacked acknowledgement the receiver compares against its own
    /// flush count to detect unacked flushes and drive bounded
    /// retransmission (as an idempotent [`Message::ResyncSnapshot`],
    /// never a replayed delta batch).
    Heartbeat {
        /// Cumulative count of the receiver's delta flushes the sender
        /// has applied.
        seen: u64,
    },
    /// Rejoining BRP → TSO (reconciliation handshake, PR 10): the
    /// assignments the BRP committed *locally* while its TSO link was
    /// down (islanded mode), stamped provisional in its datastore and
    /// WAL. The TSO audits them deterministically: a reported offer it
    /// no longer pools is **adopted** (the BRP's local decision stands),
    /// one it still pools is **superseded** (the TSO's next global plan
    /// re-decides it via the normal delta-splice).
    ProvisionalReport {
        /// First slot of the islanded window the report covers.
        window_start: TimeSlot,
        /// The provisional local assignments.
        assignments: Vec<ScheduledFlexOffer>,
    },
}

/// A routed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender node.
    pub from: NodeId,
    /// Recipient node.
    pub to: NodeId,
    /// Slot at which the message was sent.
    pub sent_at: TimeSlot,
    /// Position in the `(from, to)` stream, stamped by the network at
    /// send time (before any failure injection, so a dropped envelope
    /// still consumes its slot and the receiver can detect the gap).
    /// `None` on envelopes handed to a node directly, bypassing the
    /// network — those are delivered unchecked.
    pub seq: Option<u64>,
    /// Payload.
    pub message: Message,
    /// Federation region the envelope was routed in (tenant-registry
    /// pattern: the tenant id rides the event envelope). Stamped by the
    /// region's [`Network`](crate::comm::Network) at route time;
    /// [`RegionId::DEFAULT`] on direct hand-offs and on every envelope
    /// of a single-hierarchy deployment. Pure metadata: it never
    /// influences routing or planning, only isolation book-keeping, WAL
    /// namespacing and chaos targeting.
    pub region: RegionId,
}

impl Wire for Message {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Message::SubmitOffer(offer) => {
                out.push(0);
                offer.encode(out);
            }
            Message::OfferAccepted { offer, value } => {
                out.push(1);
                offer.encode(out);
                value.encode(out);
            }
            Message::OfferRejected { offer } => {
                out.push(2);
                offer.encode(out);
            }
            Message::Assignment {
                schedule,
                discount_per_kwh,
            } => {
                out.push(3);
                schedule.encode(out);
                discount_per_kwh.encode(out);
            }
            Message::Measurement {
                actor,
                start,
                values,
            } => {
                out.push(4);
                actor.encode(out);
                start.encode(out);
                values.encode(out);
            }
            Message::MacroOfferDeltas(updates) => {
                out.push(5);
                updates.encode(out);
            }
            Message::ResyncRequest => out.push(6),
            Message::ResyncSnapshot { offers } => {
                out.push(7);
                offers.encode(out);
            }
            Message::ExchangeOfferDeltas(updates) => {
                out.push(8);
                updates.encode(out);
            }
            Message::Heartbeat { seen } => {
                out.push(9);
                seen.encode(out);
            }
            Message::ProvisionalReport {
                window_start,
                assignments,
            } => {
                out.push(10);
                window_start.encode(out);
                assignments.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let (&tag, rest) = buf.split_first().ok_or(CodecError::UnexpectedEof)?;
        *buf = rest;
        match tag {
            0 => Ok(Message::SubmitOffer(FlexOffer::decode(buf)?)),
            1 => Ok(Message::OfferAccepted {
                offer: FlexOfferId::decode(buf)?,
                value: f64::decode(buf)?,
            }),
            2 => Ok(Message::OfferRejected {
                offer: FlexOfferId::decode(buf)?,
            }),
            3 => Ok(Message::Assignment {
                schedule: ScheduledFlexOffer::decode(buf)?,
                discount_per_kwh: Price::decode(buf)?,
            }),
            4 => Ok(Message::Measurement {
                actor: ActorId::decode(buf)?,
                start: TimeSlot::decode(buf)?,
                values: Vec::<f64>::decode(buf)?,
            }),
            5 => Ok(Message::MacroOfferDeltas(Vec::<FlexOfferUpdate>::decode(
                buf,
            )?)),
            6 => Ok(Message::ResyncRequest),
            7 => Ok(Message::ResyncSnapshot {
                offers: Vec::<FlexOffer>::decode(buf)?,
            }),
            8 => Ok(Message::ExchangeOfferDeltas(
                Vec::<FlexOfferUpdate>::decode(buf)?,
            )),
            9 => Ok(Message::Heartbeat {
                seen: u64::decode(buf)?,
            }),
            10 => Ok(Message::ProvisionalReport {
                window_start: TimeSlot::decode(buf)?,
                assignments: Vec::<ScheduledFlexOffer>::decode(buf)?,
            }),
            other => Err(CodecError::InvalidTag {
                what: "Message",
                tag: u64::from(other),
            }),
        }
    }
}

impl Wire for Envelope {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.to.encode(out);
        self.sent_at.encode(out);
        self.seq.encode(out);
        self.message.encode(out);
        self.region.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Envelope {
            from: NodeId::decode(buf)?,
            to: NodeId::decode(buf)?,
            sent_at: TimeSlot::decode(buf)?,
            seq: Option::<u64>::decode(buf)?,
            message: Message::decode(buf)?,
            region: RegionId::decode(buf)?,
        })
    }
}

impl Envelope {
    /// Convenience constructor (unsequenced, default region; the network
    /// stamps `seq` and `region` when the envelope is routed).
    pub fn new(from: NodeId, to: NodeId, sent_at: TimeSlot, message: Message) -> Envelope {
        Envelope {
            from,
            to,
            sent_at,
            seq: None,
            message,
            region: RegionId::DEFAULT,
        }
    }

    /// Builder step: pin an explicit stream sequence number (tests and
    /// direct node-to-node hand-offs that bypass the network).
    pub fn with_seq(mut self, seq: u64) -> Envelope {
        self.seq = Some(seq);
        self
    }

    /// Builder step: pin an explicit region id (tests and direct
    /// hand-offs; routed envelopes get theirs stamped by the network).
    pub fn in_region(mut self, region: RegionId) -> Envelope {
        self.region = region;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip() {
        let e = Envelope::new(
            NodeId(1),
            NodeId(2),
            TimeSlot(5),
            Message::OfferRejected {
                offer: FlexOfferId(9),
            },
        );
        assert_eq!(e.from, NodeId(1));
        assert_eq!(e.to, NodeId(2));
        assert_eq!(e.region, RegionId::DEFAULT);
        assert!(matches!(e.message, Message::OfferRejected { .. }));
        let stamped = e.in_region(RegionId(3));
        assert_eq!(stamped.region, RegionId(3));
    }

    #[test]
    fn heartbeat_and_provisional_report_roundtrip() {
        let hb = Message::Heartbeat { seen: 42 };
        assert_eq!(Message::from_bytes(&hb.to_bytes()).unwrap(), hb);
        let report = Message::ProvisionalReport {
            window_start: TimeSlot(96),
            assignments: Vec::new(),
        };
        assert_eq!(Message::from_bytes(&report.to_bytes()).unwrap(), report);
    }
}
