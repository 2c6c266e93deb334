//! Million-offer aggregation scale benches: the paper's trader node
//! ingests more than 10⁶ micro flex-offers per day, so the pipeline must
//! (a) build aggregates from scratch at that volume, (b) absorb trickle
//! updates at a cost independent of the group size (delta-fold, not
//! re-fold), and (c) speed flushes up with worker threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mirabel_aggregate::{
    AggregatedFlexOffer, AggregationParams, AggregationPipeline, FlexOfferUpdate,
};
use mirabel_core::exec::Pool;
use mirabel_core::{
    AggregateId, EnergyRange, FlexOffer, FlexOfferGenerator, FlexOfferId, Profile, TimeSlot,
};

fn identical_offer(id: u64) -> FlexOffer {
    FlexOffer::builder(id, 1)
        .earliest_start(TimeSlot(10))
        .time_flexibility(8)
        .profile(Profile::uniform(4, EnergyRange::new(0.5, 2.0).unwrap()))
        .build()
        .unwrap()
}

/// From-scratch builds at 100 k and 10⁶ offers (generation included —
/// it is a small constant fraction of the fold).
fn from_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation_scale_from_scratch");
    group.sample_size(3);
    for &n in &[100_000u64, 1_000_000] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                AggregationPipeline::from_scratch(
                    AggregationParams::p3(16, 16),
                    None,
                    FlexOfferGenerator::with_seed(1).take(n as usize),
                )
                .aggregate_count()
            })
        });
    }
    group.finish();
}

/// Single-offer trickle updates against groups of growing size: the
/// delta-fold makes the cost flat in the member count.
fn trickle(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation_scale_trickle");
    group.sample_size(10);
    for &n in &[10u64, 100, 1_000, 10_000] {
        let mut pipeline = AggregationPipeline::from_scratch(
            AggregationParams::p0(),
            None,
            (0..n).map(identical_offer),
        );
        assert_eq!(pipeline.aggregate_count(), 1);
        let mut next = n;
        group.bench_with_input(BenchmarkId::new("insert_delete", n), &n, move |b, _| {
            b.iter(|| {
                pipeline.apply(vec![FlexOfferUpdate::Insert(identical_offer(next))]);
                pipeline.apply(vec![FlexOfferUpdate::Delete(FlexOfferId(next))]);
                next += 1;
            })
        });
    }
    // Reference: the pre-delta per-update cost — clone the member list
    // through the stream and re-fold it from scratch (compare against
    // `insert_delete/1000`; the acceptance bar is ≥10×).
    let members: Vec<FlexOffer> = (0..1_000).map(identical_offer).collect();
    group.bench_function("refold_reference/1000", move |b| {
        b.iter(|| {
            let cloned = members.to_vec();
            AggregatedFlexOffer::build(AggregateId(0), &cloned).member_count()
        })
    });
    group.finish();
}

/// Emission churn on huge groups: one member in, one member out of a
/// 10 k / 100 k-member aggregate. The delta *fold* was already O(Δ);
/// this pins the last O(members) leftover — the per-emission member-id
/// snapshot. With the chunked `MemberIds` the snapshot is a chunk-table
/// clone (O(members ⁄ 512) pointer bumps), so the curve must stay
/// near-flat from 10 k to 100 k members instead of growing 10×.
fn emission_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation_scale_emission_churn");
    group.sample_size(10);
    for &n in &[10_000u64, 100_000] {
        let mut pipeline = AggregationPipeline::from_scratch(
            AggregationParams::p0(),
            None,
            (0..n).map(identical_offer),
        );
        assert_eq!(pipeline.aggregate_count(), 1);
        let mut next = n;
        group.bench_with_input(BenchmarkId::new("insert_delete", n), &n, move |b, _| {
            b.iter(|| {
                let out = pipeline.apply(vec![FlexOfferUpdate::Insert(identical_offer(next))]);
                assert_eq!(out.len(), 1);
                pipeline.apply(vec![FlexOfferUpdate::Delete(FlexOfferId(next))]);
                next += 1;
            })
        });
    }
    group.finish();
}

/// Shard-parallel flush: one churn batch touching 128 groups of 4 000
/// members each (one insert + one delete per group, a single flush),
/// folded on 1 vs 4 worker threads. The group-builder phase is
/// O(batch) and serial; the per-group fold + aggregate emission
/// dominates and shards cleanly by group hash. The emitted streams are
/// identical for any thread count; only wall-clock differs — on
/// single-core runners (CI containers are often pinned to one CPU) the
/// two series converge, since no thread count can add cycles there.
fn parallel_flush(c: &mut Criterion) {
    const GROUPS: u64 = 128;
    const MEMBERS: u64 = 4_000;
    let offer_in_group = |g: u64, i: u64| {
        FlexOffer::builder(g * 1_000_000 + i, 1)
            .earliest_start(TimeSlot((g * 100) as i64))
            .time_flexibility(8)
            .profile(Profile::uniform(16, EnergyRange::new(0.5, 2.0).unwrap()))
            .build()
            .unwrap()
    };
    let mut group = c.benchmark_group("aggregation_scale_flush_threads");
    group.sample_size(10);
    group.throughput(Throughput::Elements(GROUPS));
    for &threads in &[1usize, 4] {
        let mut p = AggregationPipeline::new(AggregationParams::p0(), None);
        p.set_flush_pool(Pool::new(threads));
        p.apply(
            (0..GROUPS)
                .flat_map(|g| (0..MEMBERS).map(move |i| offer_in_group(g, i)))
                .map(FlexOfferUpdate::Insert)
                .collect(),
        );
        assert_eq!(p.aggregate_count(), GROUPS as usize);
        let mut round = 0;
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            move |b, _| {
                b.iter(|| {
                    // Per group: retire one member, admit a replacement —
                    // one combined flush touching all 128 aggregates.
                    let mut batch = Vec::with_capacity(2 * GROUPS as usize);
                    for g in 0..GROUPS {
                        batch.push(FlexOfferUpdate::Delete(FlexOfferId(
                            g * 1_000_000 + round % MEMBERS,
                        )));
                        batch.push(FlexOfferUpdate::Insert(offer_in_group(g, MEMBERS + round)));
                    }
                    round += 1;
                    p.apply(batch)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    from_scratch,
    trickle,
    emission_churn,
    parallel_flush
);
criterion_main!(benches);
