//! The accumulate-then-flush ingest seam, checked against an **eager
//! twin**: the same [`BrpNode`] with a flush forced after every call —
//! i.e. the one-pipeline-pass-per-submission behaviour the staged buffer
//! replaced.
//!
//! Two facts shape what "the same" can mean:
//!
//! * A bulk flush folds a group's new members in id order, an eager one
//!   in arrival order. The offers here use dyadic energies, so every
//!   profile sum is exact and order cannot show up in the low bits.
//! * Aggregate ids name sub-groups in allocation order. A group that is
//!   created *and* emptied inside one buffer (a same-id replacement that
//!   changes bucket, an offer that expires before its first flush) never
//!   reaches the aggregator, so the bulk node skips the id the eager twin
//!   burns on it, and later ids — hence export ids — are shifted. The
//!   pooled offers are the same; their names are not.
//!
//! [`bulk_ingest_is_byte_identical_to_eager_ingest`] therefore keeps
//! replacements in their bucket and moves the clock only between rounds
//! (what the simulation's drivers do) and demands byte equality of every
//! envelope in both directions. [`bulk_ingest_is_equivalent_under_id_renaming`]
//! lifts both restrictions and demands what is left once aggregate ids
//! are treated as opaque: identical prosumer-facing envelopes, pool and
//! datastore, and an identical parent-side pooled view with ids erased.

use super::*;
use crate::wal::NodeWal;
use mirabel_core::{EnergyRange, FlexOfferId, Price, Profile, ScheduledFlexOffer};
use mirabel_schedule::MarketPrices;
use proptest::prelude::*;
use std::collections::BTreeMap;

const PARENT: NodeId = NodeId(99);
const WINDOW: TimeSlot = TimeSlot(384);
const HORIZON: usize = 96;

/// TSO link that never trips and never retransmits: the schedules below
/// carry no heartbeats.
fn config(forward_to_tso: bool) -> BrpConfig {
    BrpConfig {
        forward_to_tso,
        budget_evaluations: 1_000,
        link_health: LinkHealthConfig {
            suspect_after: 1_000_000,
            down_after: 2_000_000,
            retransmit_base: 1_000_000,
            max_retransmits: 0,
        },
        ..BrpConfig::default()
    }
}

fn node(forward_to_tso: bool) -> BrpNode {
    BrpNode::new(
        NodeId(3),
        forward_to_tso.then_some(PARENT),
        config(forward_to_tso),
    )
}

/// `bucket` picks one of four similarity groups of the default `p3(8, 8)`
/// thresholds; `variant` only moves the (dyadic) energy band.
fn offer(id: u64, bucket: u8, variant: u8, deadline: i64) -> FlexOffer {
    let lo = 1.0 + 0.5 * f64::from(variant);
    FlexOffer::builder(id, id)
        .earliest_start(TimeSlot(400 + 9 * i64::from(bucket)))
        .time_flexibility(4)
        .assignment_before(TimeSlot(deadline))
        .profile(Profile::uniform(2, EnergyRange::new(lo, lo + 1.0).unwrap()))
        .build()
        .unwrap()
}

fn submit(brp: &mut BrpNode, o: FlexOffer, now: TimeSlot) -> Vec<Envelope> {
    let from = NodeId(1_000 + o.id().value());
    brp.handle(
        Envelope::new(from, brp.id, now, Message::SubmitOffer(o)),
        now,
    )
}

/// After a flush the pipeline's slab holds exactly the pool.
fn assert_slab_is_pool(brp: &BrpNode) {
    assert_eq!(brp.engine.pipeline().offer_count(), brp.pool_size());
    for id in brp.pooled_ids() {
        assert_eq!(brp.engine.pipeline().offer(id), brp.pooled_offer(id));
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A prosumer submits (or replaces, when the id is pooled) an offer.
    Submit(FlexOffer),
    /// An earlier submission arrives again, verbatim.
    Resubmit(usize),
    /// Advance the clock by `before`, run `prepare_plan` (expiry, flush,
    /// forward or schedule), advance by `after`.
    Round { before: i64, after: i64 },
    /// `commit_plan`.
    Commit,
    /// The parent asks for a resync snapshot.
    Resync,
    /// The parent assigns one of the macro offers it pools.
    Assign(usize),
}

/// Random interleavings. Without `renaming`, a replacement keeps its
/// bucket and the clock only moves after a round.
fn ops(renaming: bool) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..12, 0u64..8, 0u8..4, 0u8..4, 0i64..8, 0usize..64),
        1..60,
    )
    .prop_map(move |raw| {
        raw.into_iter()
            .map(|(kind, id, bucket, variant, k, pick)| match kind {
                0..=5 => {
                    let bucket = if renaming { bucket } else { (id % 4) as u8 };
                    Op::Submit(offer(id, bucket, variant, 10 + 12 * k))
                }
                6 => Op::Resubmit(pick),
                7 | 8 => Op::Round {
                    before: if renaming { 3 * k } else { 0 },
                    after: pick as i64 % 20,
                },
                9 => Op::Commit,
                10 => Op::Resync,
                _ => Op::Assign(pick),
            })
            .collect()
    })
}

/// A macro offer with its (opaque) export id erased.
fn id_erased(o: &FlexOffer) -> String {
    format!(
        "{:?}",
        (
            o.kind(),
            o.earliest_start(),
            o.latest_start(),
            o.assignment_before(),
            o.profile(),
            o.unit_price()
        )
    )
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Envelopes to prosumers, in emission order.
    down: Vec<Envelope>,
    /// Envelopes to the parent, in emission order.
    up: Vec<Envelope>,
    /// The parent's pooled view of this node after every op, ids erased.
    parent_views: Vec<Vec<String>>,
    reports: Vec<PlanReport>,
    pool_digest: u64,
    offer_states: BTreeMap<FlexOfferId, OfferState>,
    row_counts: (usize, usize),
    exported: Vec<FlexOfferId>,
}

fn run(ops: &[Op], forward_to_tso: bool, eager: bool) -> Observed {
    let mut brp = node(forward_to_tso);
    let mut now = TimeSlot(0);
    let mut sent: Vec<FlexOffer> = Vec::new();
    // What a TSO would pool of this node: export id → macro offer.
    let mut pooled: BTreeMap<FlexOfferId, FlexOffer> = BTreeMap::new();
    let (mut down, mut up) = (Vec::new(), Vec::new());
    let (mut parent_views, mut reports) = (Vec::new(), Vec::new());
    for op in ops {
        let out = match op {
            Op::Submit(o) => {
                sent.push(o.clone());
                submit(&mut brp, o.clone(), now)
            }
            Op::Resubmit(k) if !sent.is_empty() => {
                submit(&mut brp, sent[k % sent.len()].clone(), now)
            }
            Op::Resubmit(_) => Vec::new(),
            Op::Round { before, after } => {
                now += *before as u32;
                let (out, report) = brp.prepare_plan(
                    now,
                    WINDOW,
                    vec![-1.0; HORIZON],
                    MarketPrices::flat(HORIZON, 0.08, 0.03, 100.0),
                    vec![0.2; HORIZON],
                );
                reports.push(report);
                now += *after as u32;
                out
            }
            Op::Commit => brp.commit_plan(now).map(|(out, _)| out).unwrap_or_default(),
            Op::Resync => brp.handle(
                Envelope::new(PARENT, brp.id, now, Message::ResyncRequest),
                now,
            ),
            Op::Assign(k) if !pooled.is_empty() => {
                // Pick by content, so twins whose export ids differ are
                // still handed "the same" macro offer; like a committing
                // TSO, the parent drops what it assigns.
                let mut by_content: Vec<(String, FlexOfferId)> =
                    pooled.iter().map(|(id, o)| (id_erased(o), *id)).collect();
                by_content.sort();
                let id = by_content[k % by_content.len()].1;
                let macro_offer = pooled.remove(&id).expect("picked from the view");
                let schedule =
                    ScheduledFlexOffer::at_min(&macro_offer, macro_offer.earliest_start());
                brp.handle(
                    Envelope::new(
                        PARENT,
                        brp.id,
                        now,
                        Message::Assignment {
                            schedule,
                            discount_per_kwh: Price(0.01),
                        },
                    ),
                    now,
                )
            }
            Op::Assign(_) => Vec::new(),
        };
        // A round and a commit end on a flush, the eager twin every op.
        if eager {
            brp.flush_staged();
        }
        if eager || matches!(op, Op::Round { .. } | Op::Commit) {
            assert_slab_is_pool(&brp);
        }
        for env in out {
            if env.to != PARENT {
                down.push(env);
                continue;
            }
            match &env.message {
                Message::MacroOfferDeltas(deltas) => {
                    for d in deltas {
                        match d {
                            FlexOfferUpdate::Insert(o) => pooled.insert(o.id(), o.clone()),
                            FlexOfferUpdate::Delete(id) => pooled.remove(id),
                        };
                    }
                }
                Message::ResyncSnapshot { offers } => {
                    pooled = offers.iter().map(|o| (o.id(), o.clone())).collect();
                }
                _ => {}
            }
            up.push(env);
        }
        let mut view: Vec<String> = pooled.values().map(id_erased).collect();
        view.sort();
        parent_views.push(view);
    }
    brp.flush_staged();
    assert_slab_is_pool(&brp);
    Observed {
        down,
        up,
        parent_views,
        reports,
        pool_digest: brp.pool_digest(),
        offer_states: brp.store.offer_states(),
        row_counts: brp.store.row_counts(),
        exported: brp.exported_offer_ids(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bulk_ingest_is_byte_identical_to_eager_ingest(
        ops in ops(false),
        forward in 0u8..2,
    ) {
        let forward = forward == 1;
        prop_assert_eq!(run(&ops, forward, false), run(&ops, forward, true));
    }

    #[test]
    fn bulk_ingest_is_equivalent_under_id_renaming(ops in ops(true)) {
        // TSO mode only: a node that schedules locally walks its
        // aggregates in id order, and the schedulers are order-sensitive.
        let (bulk, eager) = (run(&ops, true, false), run(&ops, true, true));
        prop_assert_eq!(&bulk.down, &eager.down);
        prop_assert_eq!(&bulk.parent_views, &eager.parent_views);
        prop_assert_eq!(bulk.pool_digest, eager.pool_digest);
        prop_assert_eq!(&bulk.offer_states, &eager.offer_states);
        prop_assert_eq!(bulk.row_counts, eager.row_counts);
        prop_assert_eq!(bulk.exported.len(), eager.exported.len());
    }
}

fn round(brp: &mut BrpNode, now: i64) -> (Vec<Envelope>, PlanReport) {
    brp.prepare_plan(
        TimeSlot(now),
        WINDOW,
        vec![-1.0; HORIZON],
        MarketPrices::flat(HORIZON, 0.08, 0.03, 100.0),
        vec![0.2; HORIZON],
    )
}

#[test]
fn a_wave_costs_one_emission_per_touched_aggregate() {
    // The count witness: 40 submissions into two similarity groups go
    // through the pipeline once, at the round's read point — two
    // aggregate emissions (and two staged exports), not forty.
    let mut brp = node(true);
    for i in 0..40 {
        submit(
            &mut brp,
            offer(i, (i % 2) as u8, (i % 4) as u8, 200),
            TimeSlot(0),
        );
    }
    assert_eq!(brp.engine.pipeline().delta_stats().emitted, 0, "staged");
    let (out, report) = round(&mut brp, 0);
    let stats = brp.engine.pipeline().delta_stats();
    assert_eq!(stats.emitted, 2, "one emission per touched aggregate");
    assert_eq!(stats.folded_in, 40);
    assert_eq!(report.forwarded, 2);
    assert!(matches!(&out[0].message, Message::MacroOfferDeltas(d) if d.len() == 2));

    // A trickle after the wave is a trickle: one more emission.
    submit(&mut brp, offer(77, 0, 0, 200), TimeSlot(1));
    round(&mut brp, 1);
    assert_eq!(brp.engine.pipeline().delta_stats().emitted, 3);
}

#[test]
fn crash_with_a_staged_buffer_recovers_to_the_twins_state() {
    // Round 1 flushes and forwards four offers; five more are then
    // WAL-appended but still staged when the node dies, and
    // `snapshot_every: 3` lands a compaction snapshot mid-buffer. Ids
    // ascend, so the snapshot's id-ordered pool replays in arrival order.
    let wal_config = WalConfig { snapshot_every: 3 };
    let mut brp = node(true);
    brp.attach_wal(NodeWal::in_memory(wal_config));
    let mut twin = node(true);
    for i in 0..4 {
        for n in [&mut brp, &mut twin] {
            submit(n, offer(i, (i % 2) as u8, 0, 200), TimeSlot(0));
        }
    }
    assert_eq!(round(&mut brp, 0), round(&mut twin, 0));
    for i in 4..9 {
        for n in [&mut brp, &mut twin] {
            submit(n, offer(i, (i % 3) as u8, 1, 200), TimeSlot(1));
        }
    }
    assert_eq!(
        brp.engine.pipeline().offer_count(),
        4,
        "the second wave is staged, not flushed"
    );
    assert!(
        brp.wal().unwrap().tail_len() < 5,
        "a compaction snapshot landed inside the staged buffer"
    );

    let store = brp.take_wal().unwrap().into_store();
    drop(brp);
    let (mut recovered, out) = BrpNode::recover(
        NodeId(3),
        Some(PARENT),
        config(true),
        store,
        wal_config,
        TimeSlot(2),
    )
    .unwrap();

    // The recovery snapshot is what the never-crashed twin answers a
    // resync request with — staged submissions included.
    let expected = twin.handle(
        Envelope::new(PARENT, NodeId(3), TimeSlot(2), Message::ResyncRequest),
        TimeSlot(2),
    );
    assert_eq!(out, expected);
    let Message::ResyncSnapshot { offers } = &out[0].message else {
        panic!("expected ResyncSnapshot, got {:?}", out[0].message);
    };
    assert_eq!(offers.len(), 3, "all three buckets exported");
    assert_eq!(recovered.outbox(), twin.outbox());
    assert_eq!(recovered.exported_offer_ids(), twin.exported_offer_ids());
    assert_eq!(recovered.pool_digest(), twin.pool_digest());

    // And the next wave forwards the same delta from both.
    for n in [&mut recovered, &mut twin] {
        submit(n, offer(20, 1, 2, 200), TimeSlot(3));
    }
    let (out, report) = round(&mut recovered, 3);
    assert_eq!((out, report.clone()), round(&mut twin, 3));
    assert_eq!(report.forwarded, 1);
}
