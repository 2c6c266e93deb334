//! Wire-codec roundtrips for every [`Message`] variant.
//!
//! The core crate proves the primitive and domain-type codecs
//! ([`mirabel_core::codec`]); these tests prove the *protocol* layer on
//! top of them — each `Message` variant, the [`Envelope`] framing
//! (including the optional stream sequence number), and the WAL's
//! [`EventRecord`] wrapper — survives encode → decode losslessly. Every
//! byte a node persists or puts on the wire goes through exactly these
//! paths. The reverse holds too: arbitrary, mutated and crafted bytes
//! decode to a value or an error, never a panic, and an offer no node
//! can compute with is refused at the decoder.

use mirabel_aggregate::{AggregationParams, FlexOfferUpdate};
use mirabel_core::codec::Wire;
use mirabel_core::{
    ActorId, Energy, EnergyRange, FlexOffer, FlexOfferId, NodeId, OfferKind, Price, Profile,
    RegionId, ScheduledFlexOffer, Slice, SlotSpan, TimeSlot,
};
use mirabel_edms::{
    DedupRx, Deltas, Envelope, EventRecord, MemWalStore, Message, NodeWal, Offers, RuntimeConfig,
    SequencedRx, StreamStats, TsoNode, WalConfig, WalStore,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

    /// A [`SequencedRx`] row — cursor, parked envelopes, resync flag,
    /// counters — written as an independent tuple decodes
    /// as the live guard, which reports what the row says and re-encodes
    /// to the same bytes.
    #[test]
    fn prop_sequenced_rx_state_roundtrip(
        next_expected in any::<u64>(),
        parked in proptest::collection::vec((any::<u64>(), 0.0f64..1.0), 0..5),
        resync_pending in any::<bool>(),
        delivered in any::<u32>(),
        duplicates in any::<u32>(),
    ) {
        // A guard parks each sequence number once, in order.
        let mut parked = parked;
        parked.sort_by_key(|&(seq, _)| seq);
        parked.dedup_by_key(|&mut (seq, _)| seq);
        let parked: Vec<Envelope> = parked
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
            .collect();
        let stats = StreamStats {
            delivered: delivered as u64,
            duplicates: duplicates as u64,
            ..StreamStats::default()
        };
        let count = parked.len();
        let row = (next_expected, (parked, (resync_pending, stats))).to_bytes();
        let rx = SequencedRx::from_bytes(&row).unwrap();
        prop_assert_eq!(rx.to_bytes(), row);
        prop_assert_eq!(rx.buffered(), count);
        prop_assert_eq!(rx.resync_pending(), resync_pending);
        prop_assert_eq!(rx.stats(), stats);
    }

    /// A [`DedupRx`] frozen mid-stream and decoded from its snapshot row
    /// is *behaviorally* identical to the original: the rows match, and
    /// both filters give the same accept/reject verdict on any follow-up
    /// stream (duplicates of pre-freeze deliveries included).
    #[test]
    fn prop_dedup_rx_state_roundtrips_behaviorally(
        before in proptest::collection::vec(0u64..64, 0..48),
        after in proptest::collection::vec(0u64..64, 0..48),
    ) {
        let mut original = DedupRx::default();
        for seq in &before {
            original.accept(Some(*seq));
        }
        let mut restored = DedupRx::from_bytes(&original.to_bytes()).unwrap();
        prop_assert_eq!(restored.to_bytes(), original.to_bytes());
        for seq in &after {
            prop_assert_eq!(restored.accept(Some(*seq)), original.accept(Some(*seq)));
        }
        prop_assert_eq!(restored.to_bytes(), original.to_bytes());
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
        };
        let back = EventRecord::from_bytes(&record.to_bytes()).unwrap();
        prop_assert_eq!(back, record);
    }
}

/// The bytes `FlexOffer::encode` writes for offer `id`, field by field,
/// so they can carry values the builder refuses: slices are
/// `(duration, min, max)` and the price and bounds may be non-finite.
fn raw_offer(id: u64, es: i64, ls: i64, slices: &[(SlotSpan, f64, f64)], price: f64) -> Vec<u8> {
    let range = |lo: f64, hi: f64| EnergyRange::new(lo, hi).unwrap();
    let slices: Vec<Slice> = slices
        .iter()
        .map(|&(d, lo, hi)| Slice::new(d, range(lo, hi)).unwrap())
        .collect();
    let mut out = Vec::new();
    FlexOfferId(id).encode(&mut out);
    ActorId(1).encode(&mut out);
    OfferKind::Consumption.encode(&mut out);
    TimeSlot(es).encode(&mut out); // assignment_before
    TimeSlot(es).encode(&mut out);
    TimeSlot(ls).encode(&mut out);
    slices.encode(&mut out);
    Price(price).encode(&mut out);
    out
}

/// Offers each field of which decodes, that no node can compute with:
/// a latest end past the last slot, a profile longer than `SlotSpan`,
/// a start window wider than it, and non-finite bounds or prices.
fn crafted_offers(id: u64) -> Vec<Vec<u8>> {
    let inf = f64::INFINITY;
    let slot = [(2, 1.0, 2.0)];
    vec![
        raw_offer(id, i64::MAX - 5, i64::MAX - 1, &[(8, 1.0, 2.0)], 0.25),
        raw_offer(id, 0, 4, &[(3_000_000_000, 1.0, 2.0); 2], 0.25),
        raw_offer(id, i64::MIN + 10, i64::MAX - 10, &slot, 0.25),
        raw_offer(id, 0, 4, &[(2, 1.0, inf)], 0.25),
        raw_offer(id, 0, 4, &[(2, -inf, 1.0)], 0.25),
        raw_offer(id, 0, 4, &slot, f64::NAN),
        raw_offer(id, 0, 4, &slot, inf),
    ]
}

/// `bytes` with the first occurrence of `from` replaced by `to`.
fn splice(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let at = bytes
        .windows(from.len())
        .position(|w| w == from)
        .expect("the placeholder is encoded inside");
    [&bytes[..at], to, &bytes[at + from.len()..]].concat()
}

/// A recovering TSO drops the WAL frame that carries a crafted offer
/// (the replay ends there) instead of pooling it or panicking.
#[test]
fn tso_recovery_drops_a_frame_carrying_a_crafted_offer() {
    let tso_id = NodeId(99);
    let runtime = || RuntimeConfig {
        budget_evaluations: 1_000,
        ..RuntimeConfig::default()
    };
    let placeholder = sample_offer(2_000_000_001);
    for crafted in crafted_offers(2_000_000_001) {
        let mut tso = TsoNode::with_config(tso_id, AggregationParams::p0(), runtime());
        tso.attach_wal(NodeWal::in_memory(WalConfig::default()));
        for (from, offer) in [(1, sample_offer(1_000_000_001)), (2, placeholder.clone())] {
            let deltas = Message::MacroOfferDeltas(vec![FlexOfferUpdate::Insert(offer)]);
            tso.handle(
                Envelope::new(NodeId(from), tso_id, TimeSlot(0), deltas),
                TimeSlot(0),
            );
        }
        let (_, mut frames) = tso.take_wal().unwrap().into_store().load().unwrap();
        frames[1] = splice(&frames[1], &placeholder.to_bytes(), &crafted);
        let mut store = MemWalStore::new();
        for frame in &frames {
            store.append(frame).unwrap();
        }
        let (recovered, _) = TsoNode::recover(
            tso_id,
            AggregationParams::p0(),
            runtime(),
            Box::new(store),
            WalConfig::default(),
            TimeSlot(1),
        )
        .expect("recovery degrades, it does not fail");
        assert_eq!(recovered.pooled_ids(), vec![FlexOfferId(1_000_000_001)]);
    }
}

/// The BRP snapshot as its public tuple: `(pool, duplicate filters)`.
type BrpTuple = (Vec<(FlexOffer, NodeId)>, Vec<(u64, ((u64, Vec<u64>), u64))>);

/// A stream guard's row as a tuple:
/// `(next_expected, (parked, (resync_pending, stats)))`.
type StreamRow = (u64, (Vec<Envelope>, (bool, StreamStats)));

/// The TSO snapshot as its public tuple:
/// `(pool, (streams, (applied, (adopted, superseded))))`.
type TsoTuple = (
    Vec<(FlexOffer, NodeId)>,
    (Vec<(NodeId, StreamRow)>, (Vec<(NodeId, u64)>, (u64, u64))),
);

/// Use what a decoder let through the way a node would first use it.
fn touch_offer(offer: &FlexOffer) {
    let _ = (
        offer.duration(),
        offer.latest_end(),
        offer.time_flexibility(),
    );
}

fn touch_message(message: &Message) {
    match message {
        Message::SubmitOffer(offer) => touch_offer(offer),
        Message::ResyncSnapshot { offers } => offers.iter().for_each(touch_offer),
        Message::MacroOfferDeltas(updates) | Message::ExchangeOfferDeltas(updates) => {
            for update in updates {
                if let FlexOfferUpdate::Insert(offer) = update {
                    touch_offer(offer);
                }
            }
        }
        _ => {}
    }
}

/// Decode `bytes` as every type a node reads from the wire or its WAL.
/// A panic anywhere in here fails the test.
fn decode_all(bytes: &[u8]) {
    if let Ok(envelope) = Envelope::from_bytes(bytes) {
        touch_message(&envelope.message);
    }
    if let Ok(record) = EventRecord::from_bytes(bytes) {
        touch_message(&record.envelope.message);
    }
    if let Ok((pool, _)) = BrpTuple::from_bytes(bytes) {
        pool.iter().for_each(|(offer, _)| touch_offer(offer));
    }
    if let Ok((pool, (streams, _))) = TsoTuple::from_bytes(bytes) {
        pool.iter().for_each(|(offer, _)| touch_offer(offer));
        for (_, (_, (parked, _))) in &streams {
            parked.iter().for_each(|e| touch_message(&e.message));
        }
    }
    // The pool and port a recovering node decodes.
    if let Ok((pool, _)) = <(Vec<(FlexOffer, NodeId)>, Offers)>::from_bytes(bytes) {
        pool.iter().for_each(|(offer, _)| touch_offer(offer));
    }
    if let Ok((pool, _)) = <(Vec<(FlexOffer, NodeId)>, Deltas)>::from_bytes(bytes) {
        pool.iter().for_each(|(offer, _)| touch_offer(offer));
    }
}

fn sample_offer(id: u64) -> FlexOffer {
    offer_from(id, false, 120, 8, 1.0, 2.0)
}

/// One envelope per `Message` variant.
fn every_variant() -> Vec<Envelope> {
    let offer = sample_offer;
    let schedule = ScheduledFlexOffer {
        offer_id: FlexOfferId(3),
        start: TimeSlot(122),
        slot_energies: vec![Energy::from_kwh(1.5); 2],
    };
    let deltas = || {
        vec![
            FlexOfferUpdate::Insert(offer(4)),
            FlexOfferUpdate::Delete(FlexOfferId(5)),
        ]
    };
    let messages = vec![
        Message::SubmitOffer(offer(1)),
        Message::OfferAccepted {
            offer: FlexOfferId(1),
            value: 0.5,
        },
        Message::OfferRejected {
            offer: FlexOfferId(2),
        },
        Message::Assignment {
            schedule: schedule.clone(),
            discount_per_kwh: Price(0.1),
        },
        Message::Measurement {
            actor: ActorId(7),
            start: TimeSlot(96),
            values: vec![1.0, -2.5],
        },
        Message::MacroOfferDeltas(deltas()),
        Message::ResyncRequest,
        Message::ResyncSnapshot {
            offers: vec![offer(6), offer(7)],
        },
        Message::ExchangeOfferDeltas(deltas()),
        Message::Heartbeat { seen: 3 },
        Message::ProvisionalReport {
            window_start: TimeSlot(96),
            assignments: vec![schedule],
        },
    ];
    messages
        .into_iter()
        .enumerate()
        .map(|(i, message)| {
            Envelope::new(NodeId(1), NodeId(2), TimeSlot(i as i64), message)
                .with_seq(i as u64)
                .in_region(RegionId(1))
        })
        .collect()
}

/// Overwrite, flip a bit, truncate, or insert, at a random place.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let at = rng.gen_range(0..=bytes.len());
    match rng.gen_range(0..4u8) {
        0 if at < bytes.len() => bytes[at] = rng.gen_range(0..=u8::MAX),
        1 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        2 => bytes.truncate(at),
        _ => bytes.insert(at, rng.gen_range(0..=u8::MAX)),
    }
}

/// Random byte strings, 1–3 mutations of a valid encoding of every
/// message variant (as an envelope, and inside a WAL record), and the
/// crafted offers inside the envelopes that carry offers: every decoder
/// returns `Ok` or `Err`, and what it lets through can be used.
#[test]
fn decoders_survive_arbitrary_and_mutated_bytes() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..50_000 {
        let len = rng.gen_range(0..64usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        decode_all(&bytes);
    }

    let envelopes = every_variant();
    let mut seeds: Vec<Vec<u8>> = envelopes.iter().map(Envelope::to_bytes).collect();
    seeds.extend(envelopes.iter().enumerate().map(|(i, envelope)| {
        EventRecord {
            event_id: i as u64,
            causation_id: Some(1),
            replay_safe: true,
            recorded_at: TimeSlot(5),
            envelope: envelope.clone(),
        }
        .to_bytes()
    }));
    for seed in &seeds {
        decode_all(seed);
        for _ in 0..10_000 {
            let mut bytes = seed.clone();
            for _ in 0..rng.gen_range(1..=3usize) {
                mutate(&mut rng, &mut bytes);
            }
            decode_all(&bytes);
        }
    }

    let mut spliced = 0;
    for bytes in seeds.iter().take(envelopes.len()) {
        for id in [1, 4, 6] {
            let placeholder = sample_offer(id).to_bytes();
            if !bytes.windows(placeholder.len()).any(|w| w == placeholder) {
                continue;
            }
            for crafted in crafted_offers(id) {
                let bytes = splice(bytes, &placeholder, &crafted);
                assert!(Envelope::from_bytes(&bytes).is_err());
                decode_all(&bytes);
                spliced += 1;
            }
        }
    }
    assert_eq!(
        spliced,
        4 * crafted_offers(0).len(),
        "every offer-carrying variant"
    );
}
