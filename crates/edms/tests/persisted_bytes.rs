//! The bytes a planner node persists are a compatibility contract: a
//! WAL store written by one build must recover under the next.
//!
//! Three parts:
//!
//! 1. **Pinned bytes.** A scripted BRP (TSO mode: ingest, upward flush,
//!    one islanded commit, a restart hand-off, a heal) and a scripted TSO
//!    (delta streams with a gap, heartbeat, provisional audit, resync,
//!    one committed round) run over in-memory WALs at three snapshot
//!    cadences, and an FNV-1a digest of everything `WalStore::load`
//!    returns — snapshot and frames — is compared against constants
//!    recorded before the node layer moved onto the shared journal. A
//!    refactor that changes one persisted byte, or the point at which a
//!    snapshot is installed, fails here.
//! 2. **Corrupt stores degrade.** The same stores, with the snapshot or
//!    one tail frame truncated at every offset or one bit flipped per
//!    byte: `recover` returns `Ok` and never panics at either level, and
//!    a recovered TSO's aggregates equal a from-scratch aggregation of
//!    its pool. With one byte appended, an undecodable snapshot means the
//!    same thing at both levels — restore nothing, replay the tail. A
//!    snapshot row or frame that puts a cursor or counter at `u64::MAX`
//!    degrades the stream; the next increment saturates.
//! 3. **The encoders at scale.** A node writes its snapshot straight from
//!    its live state: the pool, then the child port through the port's
//!    own codec, which is also what recovery decodes. A BRP with hundreds
//!    of senders and a TSO with hundreds of child streams — gaps,
//!    duplicates and out-of-order sends included — check every snapshot
//!    they install: it decodes as a tuple type written independently
//!    here and re-encodes to the same bytes, it decodes as the pool and
//!    the live port and re-encodes to the same bytes, and recovering from
//!    the store at that point rebuilds the never-crashed node's pool.

use mirabel_aggregate::{
    AggregatedFlexOffer, AggregationParams, AggregationPipeline, FlexOfferUpdate,
};
use mirabel_core::codec::{put_u64, take_u64, Wire};
use mirabel_core::{
    EnergyRange, FlexOffer, FlexOfferId, NodeId, Profile, ScheduledFlexOffer, TimeSlot,
};
use mirabel_edms::{
    BrpConfig, BrpNode, Deltas, Envelope, EventRecord, LinkHealthConfig, LoadedLog, MemWalStore,
    Message, NodeWal, OfferState, Offers, RuntimeConfig, StreamStats, TsoNode, WalConfig, WalStore,
};
use mirabel_schedule::MarketPrices;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const BRP: NodeId = NodeId(3);
const TSO: NodeId = NodeId(99);

/// Snapshot cadences the scripts run at: compaction after every event
/// (the store is all snapshot), every fourth (snapshot plus tail), and
/// never within the script (all frames).
const CADENCES: [usize; 3] = [1, 4, 256];

/// FNV-1a 64 over everything a store loads: the snapshot (presence,
/// length, bytes) and every frame (length, bytes), in order.
fn store_digest(store: &mut dyn WalStore) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let (snapshot, frames) = store.load().expect("in-memory load cannot fail");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    match snapshot {
        Some(bytes) => eat(&mut h, &bytes),
        None => eat(&mut h, b"no snapshot"),
    }
    for frame in &frames {
        eat(&mut h, frame);
    }
    h
}

fn micro_offer(id: u64) -> FlexOffer {
    FlexOffer::builder(id, 50 + id)
        .earliest_start(TimeSlot(110 + (id as i64 % 3)))
        .time_flexibility(8)
        .assignment_before(TimeSlot(90))
        .profile(Profile::uniform(2, EnergyRange::new(1.0, 2.0).unwrap()))
        .build()
        .unwrap()
}

fn macro_offer(id: u64, es: i64) -> FlexOffer {
    FlexOffer::builder(id, 1)
        .earliest_start(TimeSlot(es))
        .time_flexibility(8)
        .assignment_before(TimeSlot(es - 10))
        .profile(Profile::uniform(4, EnergyRange::new(5.0, 10.0).unwrap()))
        .build()
        .unwrap()
}

/// Silence of 4+ slots is `Down`; retransmits effectively disabled.
fn brp_config() -> BrpConfig {
    BrpConfig {
        forward_to_tso: true,
        budget_evaluations: 2_000,
        link_health: LinkHealthConfig {
            suspect_after: 2,
            down_after: 4,
            retransmit_base: 1_000_000,
            max_retransmits: 0,
        },
        ..BrpConfig::default()
    }
}

fn tso_runtime() -> RuntimeConfig {
    RuntimeConfig {
        budget_evaluations: 2_000,
        ..RuntimeConfig::default()
    }
}

fn brp_round(brp: &mut BrpNode, now: i64) -> Vec<Envelope> {
    let (mut out, _) = brp.prepare_plan(
        TimeSlot(now),
        TimeSlot(96),
        vec![-1.0; 96],
        MarketPrices::flat(96, 0.08, 0.03, 100.0),
        vec![0.2; 96],
    );
    if let Some((assignments, _)) = brp.commit_plan(TimeSlot(now)) {
        out.extend(assignments);
    }
    out
}

fn submit(brp: &mut BrpNode, offer: FlexOffer, from: u64, seq: u64, now: i64) {
    let env = Envelope::new(
        NodeId(from),
        BRP,
        TimeSlot(now),
        Message::SubmitOffer(offer),
    )
    .with_seq(seq);
    brp.handle(env, TimeSlot(now));
}

fn recover_brp(store: Box<dyn WalStore>, cadence: usize, now: i64) -> (BrpNode, Vec<Envelope>) {
    BrpNode::recover(
        BRP,
        Some(TSO),
        brp_config(),
        store,
        WalConfig {
            snapshot_every: cadence,
        },
        TimeSlot(now),
    )
    .expect("in-memory stores cannot fail")
}

/// Where the BRP script stops and hands its store over.
#[derive(Clone, Copy, PartialEq)]
enum BrpStage {
    /// Crashed right after its first islanded commit.
    MidIsland,
    /// After the restart that handed the rebuilt ledger off.
    Restarted,
    /// After a second island healed over the live link.
    Healed,
}

const BRP_STAGES: [BrpStage; 3] = [BrpStage::MidIsland, BrpStage::Restarted, BrpStage::Healed];

/// Run the BRP script up to `stage` and return the store it leaves.
fn brp_store(cadence: usize, stage: BrpStage) -> Box<dyn WalStore> {
    let mut brp = BrpNode::new(BRP, Some(TSO), brp_config());
    brp.attach_wal(NodeWal::in_memory(WalConfig {
        snapshot_every: cadence,
    }));
    // Ingest: six submissions, one sender skipping a sequence number so
    // its duplicate filter persists a non-empty `seen` set, one
    // network-duplicated envelope that must not reach the log.
    for i in 0..6u64 {
        submit(&mut brp, micro_offer(i), 100 + i, 0, 0);
    }
    submit(&mut brp, micro_offer(6), 100, 2, 0);
    submit(&mut brp, micro_offer(6), 100, 2, 0);
    // Round 1: link presumed up, the staged deltas flush upward.
    let out = brp_round(&mut brp, 10);
    assert!(matches!(out[0].message, Message::MacroOfferDeltas(_)));
    // Round 2: ten silent slots — the node islands and commits locally.
    let out = brp_round(&mut brp, 20);
    assert_eq!(out.len(), 7, "islanded commit assigns the whole pool");
    assert!(brp.provisional_count() > 0);
    let store = brp.take_wal().expect("attached").into_store();
    if stage == BrpStage::MidIsland {
        return store;
    }

    // Restart mid-island: while the commit marker is still in the tail
    // the rebuilt ledger ships with the recovery, and `recover` itself
    // logs the hand-off. (A snapshot holds the pool and the duplicate
    // filters only, so a compaction after the commit retires the marker
    // and the restart has no ledger to hand off — cadence 1 pins that
    // store too.)
    let (mut brp, out) = recover_brp(store, cadence, 21);
    let snapshot = out.last().expect("recovery re-anchors the parent");
    assert!(matches!(snapshot.message, Message::ResyncSnapshot { .. }));
    if stage == BrpStage::Restarted {
        return brp
            .take_wal()
            .expect("recovery resumes the log")
            .into_store();
    }

    // Second island, then a heal over the live link: fresh offers, a
    // flushing round that starts the restarted detector's silence
    // clock, a silent round, a parent heartbeat, the reconciling round.
    for i in 10..14u64 {
        submit(&mut brp, micro_offer(i), 100 + i, 1, 22);
    }
    let out = brp_round(&mut brp, 30);
    assert!(matches!(out[0].message, Message::MacroOfferDeltas(_)));
    let out = brp_round(&mut brp, 40);
    assert_eq!(out.len(), 4, "second island commits the new offers");
    let beat = Envelope::new(TSO, BRP, TimeSlot(41), Message::Heartbeat { seen: 1 }).with_seq(0);
    brp.handle(beat, TimeSlot(41));
    submit(&mut brp, micro_offer(20), 120, 0, 41);
    let out = brp_round(&mut brp, 42);
    assert!(matches!(out[0].message, Message::ProvisionalReport { .. }));
    assert!(matches!(out[1].message, Message::ResyncSnapshot { .. }));
    brp.take_wal().expect("attached").into_store()
}

fn recover_tso(store: Box<dyn WalStore>, cadence: usize, now: i64) -> (TsoNode, Vec<Envelope>) {
    TsoNode::recover(
        TSO,
        AggregationParams::p0(),
        tso_runtime(),
        store,
        WalConfig {
            snapshot_every: cadence,
        },
        TimeSlot(now),
    )
    .expect("in-memory stores cannot fail")
}

/// The store the TSO script leaves behind, plus the live node's
/// observable state for the recovery comparison.
fn tso_store(cadence: usize) -> (Box<dyn WalStore>, TsoNode) {
    let mut tso = TsoNode::with_config(TSO, AggregationParams::p0(), tso_runtime());
    tso.attach_wal(NodeWal::in_memory(WalConfig {
        snapshot_every: cadence,
    }));
    let send = |tso: &mut TsoNode, from: u64, seq: u64, now: i64, message: Message| {
        let env = Envelope::new(NodeId(from), TSO, TimeSlot(now), message).with_seq(seq);
        tso.handle(env, TimeSlot(now))
    };
    let insert = |id: u64, es: i64| FlexOfferUpdate::Insert(macro_offer(id, es));
    // Two in-order streams.
    send(
        &mut tso,
        1,
        0,
        0,
        Message::MacroOfferDeltas(vec![
            insert(1_000_000_001, 120),
            insert(1_000_000_002, 121),
            insert(1_000_000_003, 400),
        ]),
    );
    send(
        &mut tso,
        2,
        0,
        0,
        Message::MacroOfferDeltas(vec![insert(2_000_000_001, 120), insert(2_000_000_002, 130)]),
    );
    send(&mut tso, 2, 1, 1, Message::Heartbeat { seen: 0 });
    // A gap on BRP 1's stream: seq 2 arrives before seq 1, is parked (the
    // snapshot persists the parked envelope) and answered with a resync
    // request; the late seq 1 closes the gap.
    let out = send(
        &mut tso,
        1,
        2,
        2,
        Message::MacroOfferDeltas(vec![insert(1_000_000_004, 122)]),
    );
    assert!(matches!(out[0].message, Message::ResyncRequest));
    send(
        &mut tso,
        1,
        1,
        2,
        Message::MacroOfferDeltas(vec![FlexOfferUpdate::Delete(FlexOfferId(1_000_000_002))]),
    );
    // Reconciliation: one pooled offer adopted, one unknown superseded.
    send(
        &mut tso,
        2,
        2,
        3,
        Message::ProvisionalReport {
            window_start: TimeSlot(96),
            assignments: vec![
                ScheduledFlexOffer::at_min(&macro_offer(2_000_000_002, 130), TimeSlot(130)),
                ScheduledFlexOffer::at_min(&macro_offer(2_000_000_777, 130), TimeSlot(130)),
            ],
        },
    );
    // A snapshot that re-anchors BRP 2 on a changed export set.
    send(
        &mut tso,
        2,
        3,
        3,
        Message::ResyncSnapshot {
            offers: vec![
                macro_offer(2_000_000_001, 120),
                macro_offer(2_000_000_003, 125),
            ],
        },
    );
    assert_eq!(tso.provisional_audit(), (1, 1));
    // One committed round: assignment markers reach the log.
    let (beats, _) = tso.prepare_plan(
        TimeSlot(100),
        TimeSlot(96),
        vec![-5.0; 96],
        MarketPrices::flat(96, 0.08, 0.03, 1000.0),
        vec![0.2; 96],
    );
    assert_eq!(beats.len(), 2);
    let (assignments, _) = tso.commit_plan(TimeSlot(100)).expect("live plan");
    assert_eq!(assignments.len(), 4, "the window's offers are assigned");
    // Traffic after the commit.
    send(
        &mut tso,
        1,
        3,
        101,
        Message::MacroOfferDeltas(vec![insert(1_000_000_005, 410)]),
    );
    let store = tso.take_wal().expect("attached").into_store();
    (store, tso)
}

/// Digests of the persisted format, one row per cadence in [`CADENCES`]:
/// the BRP's three stores, then the TSO's. A declared format change
/// regenerates them; anything else that moves them is a bug.
const PINNED: [([u64; 3], u64); 3] = [
    (
        [
            0x0e2f_f178_8e8c_bed7,
            0x0e2f_f178_8e8c_bed7,
            0xfed2_085b_4db5_3fdb,
        ],
        0xd27f_e09f_58cb_f70b,
    ),
    (
        [
            0x4f70_f8d1_d5e3_9632,
            0x35fa_6056_7519_d0c9,
            0xfe95_8ca1_b6b7_629c,
        ],
        0xbc5c_05d1_fd44_3697,
    ),
    (
        [
            0x5c21_6eb0_d74e_45c6,
            0x53a7_b3dd_8feb_6b25,
            0xa11b_e6fd_a48d_bf7e,
        ],
        0x7244_d9a6_5972_a712,
    ),
];

#[test]
fn persisted_bytes_are_pinned() {
    let mut seen = Vec::new();
    for cadence in CADENCES {
        let brp = BRP_STAGES.map(|stage| store_digest(&mut *brp_store(cadence, stage)));
        let (mut tso, _) = tso_store(cadence);
        seen.push((brp, store_digest(&mut *tso)));
    }
    assert_eq!(
        seen, PINNED,
        "a persisted byte (or a compaction point) changed: {seen:#x?}"
    );
}

#[test]
fn pinned_stores_recover_to_the_live_state() {
    for cadence in CADENCES {
        let mid_island = brp_store(cadence, BrpStage::MidIsland);
        let (node, out) = recover_brp(mid_island, cadence, 21);
        if cadence != 1 {
            assert_eq!(out.len(), 2, "ledger hand-off, then the snapshot");
            assert!(matches!(out[0].message, Message::ProvisionalReport { .. }));
        }
        assert_eq!((node.pool_size(), node.provisional_count()), (0, 0));
        let healed = brp_store(cadence, BrpStage::Healed);
        let (node, out) = recover_brp(healed, cadence, 43);
        assert_eq!(out.len(), 1, "nothing provisional left to hand off");
        assert_eq!((node.pool_size(), node.provisional_count()), (1, 0));

        let (store, live) = tso_store(cadence);
        let (node, out) = recover_tso(store, cadence, 102);
        assert_eq!(out.len(), 2, "one resync request per known BRP");
        assert_eq!(node.pooled_ids(), live.pooled_ids());
        assert_eq!(node.provisional_audit(), live.provisional_audit());
        for brp in [NodeId(1), NodeId(2)] {
            assert_eq!(node.stream_stats(brp), live.stream_stats(brp));
        }
    }
}

/// The snapshot carries a BRP's pool, not its `DataStore`: a BRP
/// recovered from a compaction point counts only the submissions its
/// tail replays, so the closing report's `accepted` / `rejected`
/// undercount after every crash-restart. A known gap, pinned here
/// (ROADMAP item 3, hole (iv)).
#[test]
fn a_brp_recovered_from_a_snapshot_recounts_only_its_tail() {
    let wal_config = WalConfig { snapshot_every: 2 };
    let mut live = BrpNode::new(BRP, None, BrpConfig::default());
    live.attach_wal(NodeWal::new(Box::new(MemWalStore::new()), wal_config));
    for id in 1..=5 {
        submit(&mut live, micro_offer(id), 100 + id, 0, 0);
    }
    let store = live.take_wal().expect("attached").into_store();
    let (recovered, _) = BrpNode::recover(
        BRP,
        None,
        BrpConfig::default(),
        store,
        wal_config,
        TimeSlot(1),
    )
    .unwrap();
    assert_eq!((live.pool_size(), recovered.pool_size()), (5, 5));
    let accepted = |node: &BrpNode| node.store.count_in_state(OfferState::Accepted);
    assert_eq!((accepted(&live), accepted(&recovered)), (5, 1));
}

/// A fresh store holding `snapshot` (if any) and `frames`.
fn store_with(snapshot: Option<&[u8]>, frames: &[Vec<u8>]) -> Box<dyn WalStore> {
    let mut store = MemWalStore::new();
    if let Some(snapshot) = snapshot {
        store.install_snapshot(snapshot).unwrap();
    }
    for frame in frames {
        store.append(frame).unwrap();
    }
    Box::new(store)
}

/// `bytes` truncated at each offset, then with one bit flipped per byte.
fn corruptions(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let truncated = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let flipped = (0..bytes.len()).map(|at| {
        let mut copy = bytes.to_vec();
        copy[at] ^= 1 << (at % 8);
        copy
    });
    truncated.chain(flipped)
}

/// Copies of `store` with its snapshot corrupted.
fn corrupted(mut store: Box<dyn WalStore>) -> Vec<Box<dyn WalStore>> {
    let (snapshot, frames) = store.load().unwrap();
    let snapshot = snapshot.expect("cadence 4 installs a snapshot");
    corruptions(&snapshot)
        .map(|bytes| store_with(Some(&bytes), &frames))
        .collect()
}

/// Hand `check` the snapshot of `store` and a copy of its tail with
/// frame `k` corrupted, for every frame `k` and every corruption of it.
fn for_each_corrupt_frame(
    mut store: Box<dyn WalStore>,
    mut check: impl FnMut(Option<&[u8]>, &[Vec<u8>], usize),
) {
    let (snapshot, frames) = store.load().unwrap();
    for (k, frame) in frames.iter().enumerate() {
        for bytes in corruptions(frame) {
            let mut copy = frames.clone();
            copy[k] = bytes;
            check(snapshot.as_deref(), &copy, k);
        }
    }
}

#[test]
fn corrupt_snapshots_degrade_without_panicking() {
    // Cadence 4 leaves a snapshot *and* a tail, so a rejected snapshot
    // still has frames to replay over the empty node. The helpers unwrap
    // `recover`'s result: an `Err` or a panic fails the test alike.
    for stage in [BrpStage::MidIsland, BrpStage::Healed] {
        for copy in corrupted(brp_store(4, stage)) {
            recover_brp(copy, 4, 50);
        }
    }
    for copy in corrupted(tso_store(4).0) {
        recover_tso(copy, 4, 102);
    }
}

/// Index aggregates by their member-id sets: with the bin-packer off the
/// partition is a pure function of the pooled offers, whatever history
/// built it.
fn by_members(pipeline: &AggregationPipeline) -> BTreeMap<Vec<FlexOfferId>, AggregatedFlexOffer> {
    pipeline
        .aggregates()
        .map(|a| (a.member_ids.to_vec(), a.clone()))
        .collect()
}

/// A recovered TSO's aggregates equal a from-scratch aggregation of its
/// pool: member sets bit-equal, bounds and price within 1e-6.
fn assert_aggregates_fold_from_scratch(tso: &TsoNode, context: &str) {
    let pooled = tso.pooled_ids().into_iter().map(|id| {
        tso.pooled_offer(id)
            .expect("a pooled id has an offer")
            .clone()
    });
    let scratch = AggregationPipeline::from_scratch(AggregationParams::p0(), None, pooled);
    let live = by_members(tso.pipeline());
    let fresh = by_members(&scratch);
    assert_eq!(
        live.keys().collect::<Vec<_>>(),
        fresh.keys().collect::<Vec<_>>(),
        "{context}: member sets differ"
    );
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * y.abs().max(1.0);
    for (members, a) in &live {
        let b = &fresh[members];
        assert_eq!(a.profile.total_duration(), b.profile.total_duration());
        for (x, y) in a.profile.slot_ranges().zip(b.profile.slot_ranges()) {
            assert!(
                close(x.min().kwh(), y.min().kwh()) && close(x.max().kwh(), y.max().kwh()),
                "{context}: folded {x} vs from-scratch {y}"
            );
        }
        assert!(close(a.unit_price.eur(), b.unit_price.eur()), "{context}");
    }
}

#[test]
fn corrupt_frames_degrade_without_panicking() {
    // Cadence 4 corrupts the tail behind a snapshot, cadence 256 a store
    // that is all frames. A frame that no longer decodes ends the replay;
    // one that decodes to a different event is replayed like any other.
    for cadence in [4, 256] {
        for stage in BRP_STAGES {
            for_each_corrupt_frame(brp_store(cadence, stage), |snapshot, frames, _| {
                recover_brp(store_with(snapshot, frames), cadence, 50);
            });
        }
        // The TSO also crashes after every frame from the corrupted one
        // on: a wrongly folded aggregate can be planned and committed
        // away before the end of the script.
        for_each_corrupt_frame(tso_store(cadence).0, |snapshot, frames, k| {
            for end in k + 1..=frames.len() {
                let (tso, _) = recover_tso(store_with(snapshot, &frames[..end]), cadence, 102);
                let context = format!("cadence {cadence}, frame {k}, crash after {end} frames");
                assert_aggregates_fold_from_scratch(&tso, &context);
            }
        });
    }
}

#[test]
fn trailing_snapshot_bytes_restore_nothing_at_both_levels() {
    // An undecodable snapshot means the same thing at both levels: it is
    // not half-trusted — nothing is restored and only the tail replays.
    // Cadence 1: the whole state is in the snapshot, the tail is empty.
    let with_trailing_byte = |mut store: Box<dyn WalStore>| {
        let (snapshot, frames) = store.load().unwrap();
        assert!(frames.is_empty());
        let mut bytes = snapshot.expect("snapshot installed");
        bytes.push(0);
        store_with(Some(&bytes), &frames)
    };
    let (node, _) = recover_brp(with_trailing_byte(brp_store(1, BrpStage::Healed)), 1, 43);
    assert_eq!(node.pool_size(), 0, "BRP restored from a rejected snapshot");

    let (node, out) = recover_tso(with_trailing_byte(tso_store(1).0), 1, 102);
    assert!(
        node.pooled_ids().is_empty(),
        "TSO restored from a rejected snapshot"
    );
    assert!(out.is_empty(), "no stream survived to re-anchor");
}

/// A store holding `state` behind a snapshot header (if any), then one
/// replay-safe frame per envelope, recorded when it was sent.
fn store_of(state: Option<Vec<u8>>, envelopes: Vec<Envelope>) -> Box<dyn WalStore> {
    let snapshot = state.map(|state| {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 0);
        bytes.extend(state);
        bytes
    });
    let frames: Vec<Vec<u8>> = envelopes
        .into_iter()
        .zip(1..)
        .map(|(envelope, event_id)| {
            EventRecord {
                event_id,
                causation_id: None,
                replay_safe: true,
                recorded_at: envelope.sent_at,
                envelope,
            }
            .to_bytes()
        })
        .collect();
    store_with(snapshot.as_deref(), &frames)
}

#[test]
fn cursors_and_counters_at_u64_max_saturate() {
    const MAX: u64 = u64::MAX;
    let child = NodeId(1);
    let from_child =
        |seq: u64, message: Message| Envelope::new(child, TSO, TimeSlot(1), message).with_seq(seq);
    let deltas = |seq: u64, id: u64| {
        let insert = FlexOfferUpdate::Insert(macro_offer(id, 120));
        from_child(seq, Message::MacroOfferDeltas(vec![insert]))
    };
    // A TSO snapshot: one stream row for the child, its applied count
    // and the audit counters.
    let tso_state = |rx: StreamRow, applied: u64, audit: (u64, u64)| {
        let pool: Vec<(FlexOffer, NodeId)> = Vec::new();
        (pool, (vec![(child, rx)], (vec![(child, applied)], audit))).to_bytes()
    };
    let cursor_at =
        |next_expected: u64, stats: StreamStats| (next_expected, (Vec::new(), (false, stats)));
    let delivered_max = StreamStats {
        delivered: MAX,
        ..StreamStats::default()
    };
    let tso_stores = [
        // A replayed resync snapshot that anchors the stream at MAX.
        store_of(
            None,
            vec![from_child(
                MAX,
                Message::ResyncSnapshot {
                    offers: vec![macro_offer(1_000_000_001, 120)],
                },
            )],
        ),
        // A restored cursor at MAX, then the frame at that position.
        store_of(
            Some(tso_state(cursor_at(MAX, StreamStats::default()), 0, (0, 0))),
            vec![deltas(MAX, 1_000_000_002)],
        ),
        // A restored delivery counter at MAX, then an in-order frame.
        store_of(
            Some(tso_state(cursor_at(0, delivered_max), 0, (0, 0))),
            vec![deltas(0, 1_000_000_003)],
        ),
        // Applied and audit counters at MAX, then an applied batch and a
        // report that adopts one offer and supersedes another.
        store_of(
            Some(tso_state(
                cursor_at(0, StreamStats::default()),
                MAX,
                (MAX, MAX),
            )),
            vec![
                deltas(0, 1_000_000_004),
                from_child(
                    1,
                    Message::ProvisionalReport {
                        window_start: TimeSlot(96),
                        assignments: vec![
                            ScheduledFlexOffer::at_min(
                                &macro_offer(1_000_000_004, 120),
                                TimeSlot(120),
                            ),
                            ScheduledFlexOffer::at_min(
                                &macro_offer(1_000_000_777, 120),
                                TimeSlot(120),
                            ),
                        ],
                    },
                ),
            ],
        ),
    ];
    for (case, store) in tso_stores.into_iter().enumerate() {
        let (mut tso, _) = recover_tso(store, 256, 2);
        // The node keeps handling: more traffic on the saturated stream,
        // then a whole planning round, heartbeats included.
        tso.handle(deltas(MAX, 1_000_000_100), TimeSlot(3));
        tso.prepare_plan(
            TimeSlot(100),
            TimeSlot(96),
            vec![-5.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 1000.0),
            vec![0.2; 96],
        );
        tso.commit_plan(TimeSlot(100));
        match case {
            2 => assert_eq!(tso.stream_stats(child).delivered, MAX),
            3 => assert_eq!(tso.provisional_audit(), (MAX, MAX)),
            _ => {}
        }
    }

    // A BRP duplicate-filter row whose watermark sits at MAX, then a
    // submission at that position.
    let sender = 100;
    let state: BrpTuple = (Vec::new(), vec![(sender, ((MAX, Vec::new()), 0))]);
    let submission = |now: i64| {
        let offer = Message::SubmitOffer(micro_offer(1));
        Envelope::new(NodeId(sender), BRP, TimeSlot(now), offer).with_seq(MAX)
    };
    let store = store_of(Some(state.to_bytes()), vec![submission(0)]);
    let (mut brp, _) = recover_brp(store, 256, 1);
    brp.handle(submission(1), TimeSlot(1));
    brp_round(&mut brp, 10);

    // Two duplicate-filter rows whose counters sum past MAX: the node's
    // total saturates.
    let rows = vec![
        (sender, ((0, Vec::new()), MAX)),
        (sender + 1, ((0, Vec::new()), 5)),
    ];
    let state: BrpTuple = (Vec::new(), rows);
    let (brp, _) = recover_brp(store_of(Some(state.to_bytes()), Vec::new()), 256, 1);
    assert_eq!(brp.dedup_duplicates(), MAX);
}

// ---------------------------------------------------------------------
// The snapshot encoders at scale: hundreds of senders, gaps, duplicates.
// ---------------------------------------------------------------------

/// A BRP snapshot as the public tuple it decodes as: the pool with its
/// sources, then `(sender, ((delivered_below, seen), duplicates))` rows.
type BrpTuple = (Vec<(FlexOffer, NodeId)>, Vec<(u64, ((u64, Vec<u64>), u64))>);

/// A stream guard's row as the tuple it decodes as:
/// `(next_expected, (parked, (resync_pending, stats)))`.
type StreamRow = (u64, (Vec<Envelope>, (bool, StreamStats)));

/// A TSO snapshot as the public tuple it decodes as: the pool with its
/// sources, then the stream guards, the applied counters and the audit.
type TsoTuple = (
    Vec<(FlexOffer, NodeId)>,
    (Vec<(NodeId, StreamRow)>, (Vec<(NodeId, u64)>, (u64, u64))),
);

/// A BRP snapshot as the node itself decodes it: the pool, then the port.
type BrpLive = (Vec<(FlexOffer, NodeId)>, Offers);

/// A TSO snapshot as the node itself decodes it: the pool, then the port.
type TsoLive = (Vec<(FlexOffer, NodeId)>, Deltas);

/// An in-memory store shared with the test, so every snapshot a live node
/// installs can be checked the moment it lands.
#[derive(Debug, Clone, Default)]
struct Shared(Arc<Mutex<(MemWalStore, usize)>>);

impl Shared {
    /// Snapshots installed so far.
    fn installs(&self) -> usize {
        self.0.lock().unwrap().1
    }

    /// A copy of the store as it stands: the snapshot (header stripped)
    /// and a fresh store holding snapshot and tail.
    fn copy(&self) -> (Vec<u8>, Box<dyn WalStore>) {
        let (snapshot, frames) = self.0.lock().unwrap().0.load().unwrap();
        let snapshot = snapshot.expect("a snapshot was installed");
        let mut state = snapshot.as_slice();
        take_u64(&mut state).expect("the event-id header");
        (state.to_vec(), store_with(Some(&snapshot), &frames))
    }
}

impl WalStore for Shared {
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.0.lock().unwrap().0.append(frame)
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
        let mut shared = self.0.lock().unwrap();
        shared.1 += 1;
        shared.0.install_snapshot(snapshot)
    }

    fn load(&mut self) -> std::io::Result<LoadedLog> {
        self.0.lock().unwrap().0.load()
    }
}

/// Whether `state` decodes exactly as `T` and re-encodes to itself.
fn reencodes_as<T: Wire>(state: &[u8]) -> bool {
    T::from_bytes(state).is_ok_and(|value| value.to_bytes() == state)
}

/// Sends per sender (or child stream) in the scale scripts.
const SCALE_SENDS: u64 = 3;

/// The sequence numbers sender `s` sends, in order: every fifth skips
/// one (a gap the filter remembers), every seventh repeats one (a
/// duplicate the filter drops), every eleventh sends out of order.
fn scale_seqs(s: u64) -> Vec<u64> {
    let mut seqs: Vec<u64> = (0..SCALE_SENDS).collect();
    if s.is_multiple_of(5) {
        seqs.retain(|&q| q != 1);
    }
    if s.is_multiple_of(7) {
        seqs.insert(1, 0);
    }
    if s.is_multiple_of(11) {
        seqs.swap(0, 1);
    }
    seqs
}

/// Recover a BRP from `store` and compare it with the live node.
fn assert_brp_recovers(store: Box<dyn WalStore>, cadence: usize, live: &BrpNode, now: i64) {
    let (node, _) = BrpNode::recover(
        BRP,
        None,
        scale_brp_config(),
        store,
        WalConfig {
            snapshot_every: cadence,
        },
        TimeSlot(now),
    )
    .unwrap();
    assert_eq!(node.pool_size(), live.pool_size(), "cadence {cadence}");
    assert_eq!(node.pool_digest(), live.pool_digest(), "cadence {cadence}");
    assert_eq!(node.dedup_duplicates(), live.dedup_duplicates());
}

/// Recover a TSO from `store` and compare it with the live node.
fn assert_tso_recovers(store: Box<dyn WalStore>, cadence: usize, live: &TsoNode) {
    let (node, _) = recover_tso(store, cadence, 0);
    let ids = live.pooled_ids();
    assert_eq!(node.pooled_ids(), ids, "cadence {cadence}");
    for id in ids {
        assert_eq!(node.pooled_offer(id), live.pooled_offer(id));
        assert_eq!(node.source_of(id), live.source_of(id));
    }
    for c in 1..=SCALE_CHILDREN {
        assert_eq!(node.stream_stats(NodeId(c)), live.stream_stats(NodeId(c)));
    }
}

fn scale_brp_config() -> BrpConfig {
    BrpConfig {
        budget_evaluations: 2_000,
        ..BrpConfig::default()
    }
}

/// Child streams of the TSO scale script.
const SCALE_CHILDREN: u64 = 200;

#[test]
fn brp_snapshots_at_scale_reencode_and_recover_the_live_pool() {
    const SENDERS: u64 = 300;
    for cadence in CADENCES {
        let shared = Shared::default();
        let mut brp = BrpNode::new(BRP, None, scale_brp_config());
        brp.attach_wal(NodeWal::new(
            Box::new(shared.clone()),
            WalConfig {
                snapshot_every: cadence,
            },
        ));
        let mut checked = 0;
        let mut check = |brp: &BrpNode, now: i64| {
            if shared.installs() == checked {
                return;
            }
            checked = shared.installs();
            let (state, store) = shared.copy();
            assert!(reencodes_as::<BrpTuple>(&state), "cadence {cadence}");
            assert!(reencodes_as::<BrpLive>(&state), "cadence {cadence}");
            let (_, rows) = BrpTuple::from_bytes(&state).unwrap();
            assert!(
                rows.windows(2).all(|w| w[0].0 < w[1].0),
                "rows in sender order"
            );
            assert_brp_recovers(store, cadence, brp, now);
        };
        let sends: Vec<_> = (0..SENDERS).map(|s| (s, scale_seqs(s))).collect();
        for round in 0..=SCALE_SENDS as usize {
            for (s, seqs) in &sends {
                let Some(&seq) = seqs.get(round) else {
                    continue;
                };
                let id = 1 + s * SCALE_SENDS + seq;
                submit(&mut brp, micro_offer(id), 1_000 + s, seq, 0);
                check(&brp, 0);
            }
            if round == 1 {
                // A committed round in the middle: assignment markers
                // reach the log and the pool shrinks.
                brp_round(&mut brp, 1);
                check(&brp, 1);
            }
        }
        assert!(shared.installs() > 0, "cadence {cadence} compacted");
        assert!(brp.dedup_duplicates() > 0);
        // The last snapshot and the tail behind it.
        assert_brp_recovers(shared.copy().1, cadence, &brp, 1);
    }
}

#[test]
fn tso_snapshots_at_scale_reencode_and_recover_the_live_pool() {
    for cadence in CADENCES {
        let shared = Shared::default();
        let mut tso = TsoNode::with_config(TSO, AggregationParams::p0(), tso_runtime());
        tso.attach_wal(NodeWal::new(
            Box::new(shared.clone()),
            WalConfig {
                snapshot_every: cadence,
            },
        ));
        let mut checked = 0;
        let mut check = |tso: &TsoNode| {
            if shared.installs() == checked {
                return;
            }
            checked = shared.installs();
            let (state, store) = shared.copy();
            assert!(reencodes_as::<TsoTuple>(&state), "cadence {cadence}");
            assert!(reencodes_as::<TsoLive>(&state), "cadence {cadence}");
            assert_tso_recovers(store, cadence, tso);
        };
        let send = |tso: &mut TsoNode, c: u64, seq: u64| {
            // Each batch inserts one macro offer; the last also retires
            // the child's first.
            let export = |k: u64| c * 1_000_000_000 + k;
            let mut updates = vec![FlexOfferUpdate::Insert(macro_offer(
                export(seq + 1),
                120 + (c % 8) as i64,
            ))];
            if seq == SCALE_SENDS - 1 {
                updates.push(FlexOfferUpdate::Delete(FlexOfferId(export(1))));
            }
            let env = Envelope::new(
                NodeId(c),
                TSO,
                TimeSlot(0),
                Message::MacroOfferDeltas(updates),
            )
            .with_seq(seq);
            tso.handle(env, TimeSlot(0));
        };
        let sends: Vec<_> = (1..=SCALE_CHILDREN).map(|c| (c, scale_seqs(c))).collect();
        for round in 0..=SCALE_SENDS as usize {
            for (c, seqs) in &sends {
                let Some(&seq) = seqs.get(round) else {
                    continue;
                };
                send(&mut tso, *c, seq);
                check(&tso);
            }
        }
        let gapped = tso.stream_stats(NodeId(5));
        assert!(gapped.resyncs_requested > 0, "child 5 left a gap");
        // The late batches close the gaps: what a snapshot parked behind
        // them must be delivered after a recovery too.
        for c in (5..=SCALE_CHILDREN).step_by(5) {
            send(&mut tso, c, 1);
            check(&tso);
        }
        assert!(shared.installs() > 0, "cadence {cadence} compacted");
        // The last snapshot and the tail behind it.
        assert_tso_recovers(shared.copy().1, cadence, &tso);
    }
}
