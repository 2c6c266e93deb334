//! Delta-fold correctness: replaying random insert/delete/re-insert
//! sequences through the incremental pipeline must leave exactly the
//! aggregates a from-scratch rebuild of the surviving offer set
//! produces — member sets identical, folded bounds within float
//! tolerance — and the shard-parallel flush must emit the same update
//! stream for any thread count.

use mirabel_aggregate::{
    AggregatedFlexOffer, AggregationParams, AggregationPipeline, FlexOfferUpdate,
};
use mirabel_core::exec::Pool;
use mirabel_core::{EnergyRange, FlexOffer, FlexOfferGenerator, FlexOfferId, Profile, TimeSlot};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn offer(id: u64, es: i64, tf: u32, dur: u32, lo: f64, width: f64) -> FlexOffer {
    FlexOffer::builder(id, 1)
        .earliest_start(TimeSlot(es))
        .time_flexibility(tf)
        .profile(Profile::uniform(
            dur,
            EnergyRange::new(lo, lo + width).unwrap(),
        ))
        .build()
        .unwrap()
}

/// Index the current aggregates by their (sorted) member-id sets.
/// Aggregate ids differ between pipelines with different histories, but
/// with the bin-packer disabled the *membership partition* is a pure
/// function of the surviving offer set, so keying on it aligns the two.
fn by_members(p: &AggregationPipeline) -> BTreeMap<Vec<FlexOfferId>, AggregatedFlexOffer> {
    p.aggregates()
        .map(|a| (a.member_ids.to_vec(), a.clone()))
        .collect()
}

fn assert_aggregates_match(incremental: &AggregationPipeline, scratch: &AggregationPipeline) {
    let inc = by_members(incremental);
    let scr = by_members(scratch);
    assert_eq!(
        inc.keys().collect::<Vec<_>>(),
        scr.keys().collect::<Vec<_>>(),
        "member-set partitions differ"
    );
    for (members, a) in &inc {
        let b = &scr[members];
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.earliest_start, b.earliest_start);
        assert_eq!(a.latest_start, b.latest_start);
        assert_eq!(a.assignment_before, b.assignment_before);
        assert_eq!(a.duration(), b.duration());
        for (k, (x, y)) in a
            .profile
            .slot_ranges()
            .zip(b.profile.slot_ranges())
            .enumerate()
        {
            let tol = 1e-6 * y.max().kwh().abs().max(1.0);
            assert!(
                (x.min() - y.min()).kwh().abs() <= tol && (x.max() - y.max()).kwh().abs() <= tol,
                "slot {k} of {members:?}: delta {x} vs scratch {y}"
            );
        }
        let tol = 1e-6 * b.unit_price.eur().abs().max(1.0);
        assert!((a.unit_price.eur() - b.unit_price.eur()).abs() <= tol);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random insert/delete/re-insert sequences: after every batch the
    /// delta-folded pipeline equals a from-scratch rebuild of the
    /// surviving offer set.
    #[test]
    fn delta_fold_equals_from_scratch(
        ops in proptest::collection::vec(
            // (id, earliest start, time flexibility, duration, lo, width, insert?)
            (0u64..20, 0i64..40, 0u32..12, 1u32..5, 0.0f64..3.0, 0.0f64..2.0, any::<bool>()),
            1..60,
        ),
        sat in 0u32..6,
        tft in 0u32..6,
        batch in 1usize..8,
    ) {
        let params = AggregationParams::p3(sat, tft);
        let mut incremental = AggregationPipeline::new(params, None);
        let mut live: BTreeMap<u64, FlexOffer> = BTreeMap::new();

        for chunk in ops.chunks(batch) {
            let mut updates = Vec::new();
            for &(id, es, tf, dur, lo, w, insert) in chunk {
                if insert {
                    let o = offer(id, es, tf, dur, lo, w);
                    live.insert(id, o.clone());
                    updates.push(FlexOfferUpdate::Insert(o));
                } else {
                    live.remove(&id);
                    updates.push(FlexOfferUpdate::Delete(FlexOfferId(id)));
                }
            }
            incremental.apply(updates);
        }

        let scratch = AggregationPipeline::from_scratch(params, None, live.values().cloned());
        prop_assert_eq!(incremental.report().offer_count, live.len());
        assert_aggregates_match(&incremental, &scratch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bin-packed pipeline under the same random churn: bin
    /// assignments are history-dependent, so instead of comparing the
    /// partition against a from-scratch build, assert the structural
    /// invariants — no offer lost, caps respected, and every aggregate's
    /// delta-folded bounds exactly match a reference fold of its
    /// resolved members. Batches with several same-bin deletes are the
    /// regression surface here (the BRP batches a whole round's deletes
    /// into one apply).
    #[test]
    fn binpacked_delta_fold_keeps_invariants(
        ops in proptest::collection::vec(
            (0u64..16, 0i64..20, 0u32..8, 1u32..4, 0.0f64..3.0, 0.0f64..2.0, any::<bool>()),
            1..60,
        ),
        cap in 1usize..5,
        batch in 1usize..10,
    ) {
        use mirabel_aggregate::{AggregatedFlexOffer as Agg, BinPackerConfig};
        use mirabel_core::AggregateId;
        let mut p = AggregationPipeline::new(
            AggregationParams::p3(4, 4),
            Some(BinPackerConfig::max_members(cap)),
        );
        let mut live: BTreeMap<u64, FlexOffer> = BTreeMap::new();
        for chunk in ops.chunks(batch) {
            let mut updates = Vec::new();
            for &(id, es, tf, dur, lo, w, insert) in chunk {
                if insert {
                    let o = offer(id, es, tf, dur, lo, w);
                    live.insert(id, o.clone());
                    updates.push(FlexOfferUpdate::Insert(o));
                } else {
                    live.remove(&id);
                    updates.push(FlexOfferUpdate::Delete(FlexOfferId(id)));
                }
            }
            p.apply(updates);
        }
        prop_assert_eq!(p.report().offer_count, live.len());
        let mut seen: Vec<u64> = Vec::new();
        for a in p.aggregates() {
            prop_assert!(a.member_count() <= cap, "cap {} exceeded", cap);
            seen.extend(a.member_ids.iter().map(|id| id.value()));
            // Delta-folded bounds equal a reference fold of the members.
            let members: Vec<FlexOffer> = a
                .member_ids
                .iter()
                .map(|id| p.offer(id).expect("member in slab").clone())
                .collect();
            let reference = Agg::build(AggregateId(a.id.value()), &members);
            prop_assert_eq!(a.earliest_start, reference.earliest_start);
            prop_assert_eq!(a.latest_start, reference.latest_start);
            for (x, y) in a.profile.slot_ranges().zip(reference.profile.slot_ranges()) {
                prop_assert!(
                    (x.min() - y.min()).kwh().abs() <= 1e-6
                        && (x.max() - y.max()).kwh().abs() <= 1e-6
                );
            }
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, live.keys().copied().collect::<Vec<u64>>());
    }
}

/// 1-thread and N-thread flushes must emit byte-identical update
/// streams (ids included) and leave identical aggregate state: the
/// shard-parallel fold merges in sorted sub-group order and allocates
/// fresh aggregate ids during the merge, never on the workers.
#[test]
fn parallel_flush_is_deterministic() {
    let offers: Vec<FlexOffer> = FlexOfferGenerator::with_seed(23).take(3000).collect();
    let run = |threads: usize| {
        let mut p = AggregationPipeline::new(AggregationParams::p3(8, 8), None);
        p.set_flush_pool(Pool::new(threads));
        let mut streams = Vec::new();
        // Insert in batches, then delete a third, then re-insert some
        // with mutated attributes.
        for chunk in offers.chunks(400) {
            streams.push(p.apply(chunk.iter().cloned().map(FlexOfferUpdate::Insert).collect()));
        }
        streams.push(
            p.apply(
                offers
                    .iter()
                    .step_by(3)
                    .map(|o| FlexOfferUpdate::Delete(o.id()))
                    .collect(),
            ),
        );
        streams.push(
            p.apply(
                offers
                    .iter()
                    .step_by(7)
                    .map(|o| {
                        let mutated = FlexOffer::builder(o.id().value(), 1)
                            .kind(o.kind())
                            .earliest_start(o.earliest_start() + 2u32)
                            .time_flexibility(o.time_flexibility())
                            .profile(o.profile().clone())
                            .unit_price(o.unit_price())
                            .build()
                            .unwrap();
                        FlexOfferUpdate::Insert(mutated)
                    })
                    .collect(),
            ),
        );
        let finals: Vec<AggregatedFlexOffer> = p.aggregates().cloned().collect();
        (streams, finals)
    };
    let single = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            single,
            run(threads),
            "thread count {threads} changed the stream"
        );
    }
}
