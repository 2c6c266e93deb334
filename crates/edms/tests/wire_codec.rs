//! Wire-codec roundtrips for every [`Message`] variant.
//!
//! The core crate proves the primitive and domain-type codecs
//! ([`mirabel_core::codec`]); these tests prove the *protocol* layer on
//! top of them — each `Message` variant, the [`Envelope`] framing
//! (including the optional stream sequence number), and the WAL's
//! [`EventRecord`] wrapper — survives encode → decode losslessly. Every
//! byte a node persists or puts on the wire goes through exactly these
//! paths.

use mirabel_aggregate::FlexOfferUpdate;
use mirabel_core::codec::Wire;
use mirabel_core::{
    ActorId, Energy, EnergyRange, FlexOffer, FlexOfferId, NodeId, OfferKind, Price, Profile,
    RegionId, ScheduledFlexOffer, Slice, TimeSlot,
};
use mirabel_edms::{DedupRx, Envelope, EventRecord, Message, SequencedRxState, StreamStats};
use proptest::prelude::*;

/// A small but fully parameterised offer: enough degrees of freedom to
/// exercise every field the codec writes, while offer-structure depth is
/// covered by the core crate's own `FlexOffer` roundtrip property.
fn offer_from(id: u64, production: bool, es: i64, tf: u32, lo: f64, width: f64) -> FlexOffer {
    let kind = if production {
        OfferKind::Production
    } else {
        OfferKind::Consumption
    };
    let profile = Profile::new(vec![Slice::new(
        2,
        EnergyRange::new(lo, lo + width).unwrap(),
    )
    .unwrap()])
    .unwrap();
    FlexOffer::builder(id, id ^ 0xdead_beef)
        .kind(kind)
        .earliest_start(TimeSlot(es))
        .latest_start(TimeSlot(es + tf as i64))
        .assignment_before(TimeSlot(es - 1))
        .profile(profile)
        .unit_price(Price(0.25))
        .build()
        .unwrap()
}

fn roundtrip(msg: &Message) -> Message {
    Message::from_bytes(&msg.to_bytes()).unwrap()
}

/// The only variant with no payload: a plain unit check suffices.
#[test]
fn resync_request_roundtrips() {
    let msg = Message::ResyncRequest;
    assert_eq!(roundtrip(&msg), msg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_submit_offer_roundtrip(
        id in any::<u64>(),
        production in any::<bool>(),
        es in -1_000i64..1_000,
        tf in 0u32..64,
        lo in -10.0f64..10.0,
        width in 0.0f64..10.0,
    ) {
        let msg = Message::SubmitOffer(offer_from(id, production, es, tf, lo, width));
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn prop_offer_accepted_roundtrip(id in any::<u64>(), value in 0.0f64..1.0) {
        let msg = Message::OfferAccepted {
            offer: FlexOfferId(id),
            value,
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn prop_offer_rejected_roundtrip(id in any::<u64>()) {
        let msg = Message::OfferRejected {
            offer: FlexOfferId(id),
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn prop_assignment_roundtrip(
        id in any::<u64>(),
        start in -500i64..500,
        energies in proptest::collection::vec(-20.0f64..20.0, 0..8),
        discount in 0.0f64..1.0,
    ) {
        let msg = Message::Assignment {
            schedule: ScheduledFlexOffer {
                offer_id: FlexOfferId(id),
                start: TimeSlot(start),
                slot_energies: energies.into_iter().map(Energy::from_kwh).collect(),
            },
            discount_per_kwh: Price(discount),
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn prop_measurement_roundtrip(
        actor in any::<u64>(),
        start in -1_000i64..1_000,
        values in proptest::collection::vec(-50.0f64..50.0, 0..16),
    ) {
        let msg = Message::Measurement {
            actor: ActorId(actor),
            start: TimeSlot(start),
            values,
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn prop_macro_offer_deltas_roundtrip(
        deltas in proptest::collection::vec(
            (any::<bool>(), any::<u64>(), -500i64..500, 0u32..32),
            0..8
        ),
    ) {
        let updates = deltas
            .into_iter()
            .map(|(insert, id, es, tf)| {
                if insert {
                    FlexOfferUpdate::Insert(offer_from(id, false, es, tf, 1.0, 2.0))
                } else {
                    FlexOfferUpdate::Delete(FlexOfferId(id))
                }
            })
            .collect();
        let msg = Message::MacroOfferDeltas(updates);
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn prop_resync_snapshot_roundtrip(
        offers in proptest::collection::vec(
            (any::<u64>(), any::<bool>(), -500i64..500, 0u32..32),
            0..6
        ),
    ) {
        let msg = Message::ResyncSnapshot {
            offers: offers
                .into_iter()
                .map(|(id, production, es, tf)| offer_from(id, production, es, tf, 0.5, 1.5))
                .collect(),
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    /// The federation's cross-border delta batches reuse the intra-region
    /// update vocabulary; the envelope tag and payload must survive.
    #[test]
    fn prop_exchange_offer_deltas_roundtrip(
        deltas in proptest::collection::vec(
            (any::<bool>(), any::<u64>(), -500i64..500, 0u32..32),
            0..8
        ),
    ) {
        let updates = deltas
            .into_iter()
            .map(|(insert, id, es, tf)| {
                if insert {
                    FlexOfferUpdate::Insert(offer_from(id, true, es, tf, 0.5, 1.0))
                } else {
                    FlexOfferUpdate::Delete(FlexOfferId(id))
                }
            })
            .collect();
        let msg = Message::ExchangeOfferDeltas(updates);
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    /// Envelope framing: routing ids, send slot, the optional stream
    /// sequence number and the region tag must all survive, around any
    /// payload.
    #[test]
    fn prop_envelope_roundtrip(
        from in any::<u64>(),
        to in any::<u64>(),
        sent_at in -1_000i64..1_000,
        sequenced in any::<bool>(),
        seq in any::<u64>(),
        region in any::<u64>(),
        value in 0.0f64..1.0,
    ) {
        let mut env = Envelope::new(
            NodeId(from),
            NodeId(to),
            TimeSlot(sent_at),
            Message::OfferAccepted { offer: FlexOfferId(7), value },
        )
        .in_region(RegionId(region));
        if sequenced {
            env = env.with_seq(seq);
        }
        let back = Envelope::from_bytes(&env.to_bytes()).unwrap();
        prop_assert_eq!(back, env);
    }

    /// The failure detector's liveness beacon: the cumulative ack
    /// cursor it piggybacks must survive the frame.
    #[test]
    fn prop_heartbeat_roundtrip(seen in any::<u64>()) {
        let msg = Message::Heartbeat { seen };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    /// The reconciliation hand-off: an islanded window's provisional
    /// macro ledger — window start plus every schedule, including the
    /// empty hand-off marker — must survive the frame.
    #[test]
    fn prop_provisional_report_roundtrip(
        window_start in -1_000i64..1_000,
        schedules in proptest::collection::vec(
            (any::<u64>(), -500i64..500, proptest::collection::vec(-20.0f64..20.0, 0..6)),
            0..6
        ),
    ) {
        let msg = Message::ProvisionalReport {
            window_start: TimeSlot(window_start),
            assignments: schedules
                .into_iter()
                .map(|(id, start, energies)| ScheduledFlexOffer {
                    offer_id: FlexOfferId(id),
                    start: TimeSlot(start),
                    slot_energies: energies.into_iter().map(Energy::from_kwh).collect(),
                })
                .collect(),
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    /// A [`SequencedRx`] freeze-frame — cursor, parked envelopes, buffer
    /// cap, resync flag, counters — survives the snapshot codec.
    #[test]
    fn prop_sequenced_rx_state_roundtrip(
        next_expected in any::<u64>(),
        parked in proptest::collection::vec((any::<u64>(), 0.0f64..1.0), 0..5),
        buffer_cap in 1u64..1_024,
        resync_pending in any::<bool>(),
        delivered in any::<u32>(),
        duplicates in any::<u32>(),
    ) {
        let state = SequencedRxState {
            next_expected,
            buffered: parked
                .into_iter()
                .map(|(seq, value)| {
                    Envelope::new(
                        NodeId(1),
                        NodeId(9_999),
                        TimeSlot(0),
                        Message::OfferAccepted { offer: FlexOfferId(seq), value },
                    )
                    .with_seq(seq)
                })
                .collect(),
            buffer_cap,
            resync_pending,
            stats: StreamStats {
                delivered: delivered as u64,
                duplicates: duplicates as u64,
                ..StreamStats::default()
            },
        };
        let back = SequencedRxState::from_bytes(&state.to_bytes()).unwrap();
        prop_assert_eq!(back, state);
    }

    /// A [`DedupRx`] frozen mid-stream and rebuilt from its exported
    /// state is *behaviorally* identical to the original: the exported
    /// tuple matches, and both filters give the same accept/reject
    /// verdict on any follow-up stream (duplicates of pre-freeze
    /// deliveries included).
    #[test]
    fn prop_dedup_rx_state_roundtrips_behaviorally(
        before in proptest::collection::vec(0u64..64, 0..48),
        after in proptest::collection::vec(0u64..64, 0..48),
    ) {
        let mut original = DedupRx::default();
        for seq in &before {
            original.accept(Some(*seq));
        }
        let (delivered_below, seen, duplicates) = original.export_state();
        let mut restored = DedupRx::from_state(delivered_below, seen, duplicates);
        prop_assert_eq!(restored.export_state(), original.export_state());
        for seq in &after {
            prop_assert_eq!(restored.accept(Some(*seq)), original.accept(Some(*seq)));
        }
        prop_assert_eq!(restored.export_state(), original.export_state());
        prop_assert_eq!(restored.duplicates, original.duplicates);
    }

    /// The WAL's event wrapper: ids, causation link, replay-safety flag,
    /// the recorded clock and the region tag must all survive alongside
    /// the envelope.
    #[test]
    fn prop_event_record_roundtrip(
        event_id in any::<u64>(),
        caused in any::<bool>(),
        causation in any::<u64>(),
        replay_safe in any::<bool>(),
        recorded_at in -1_000i64..1_000,
        id in any::<u64>(),
        region in any::<u64>(),
    ) {
        let record = EventRecord {
            event_id,
            causation_id: caused.then_some(causation),
            replay_safe,
            recorded_at: TimeSlot(recorded_at),
            envelope: Envelope::new(
                NodeId(1),
                NodeId(2),
                TimeSlot(recorded_at),
                Message::OfferRejected { offer: FlexOfferId(id) },
            )
            .in_region(RegionId(region)),
            region: RegionId(region),
        };
        let back = EventRecord::from_bytes(&record.to_bytes()).unwrap();
        prop_assert_eq!(back, record);
    }
}
