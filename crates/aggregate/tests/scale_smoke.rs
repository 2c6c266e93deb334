//! Release-mode throughput smoke tests, run in CI via
//! `cargo test --release -- --ignored`.
//!
//! Wall-clock assertions only fire in release builds (debug builds
//! cross-check every emitted aggregate against the reference fold,
//! which is exactly the overhead these tests exist to avoid timing).

use mirabel_aggregate::{
    AggregatedFlexOffer, AggregationParams, AggregationPipeline, FlexOfferUpdate,
};
use mirabel_core::exec::Pool;
use mirabel_core::{AggregateId, EnergyRange, FlexOffer, FlexOfferGenerator, Profile, TimeSlot};
use std::time::{Duration, Instant};

fn identical_offer(id: u64) -> FlexOffer {
    FlexOffer::builder(id, 1)
        .earliest_start(TimeSlot(10))
        .time_flexibility(8)
        .profile(Profile::uniform(4, EnergyRange::new(0.5, 2.0).unwrap()))
        .build()
        .unwrap()
}

/// Median wall-clock of `reps` executions of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
#[ignore = "throughput smoke; run with cargo test --release -- --ignored"]
fn hundred_k_offers_aggregate_under_wall_clock_bound() {
    let t0 = Instant::now();
    let pipeline = AggregationPipeline::from_scratch(
        AggregationParams::p3(16, 16),
        None,
        FlexOfferGenerator::with_seed(7).take(100_000),
    );
    let elapsed = t0.elapsed();
    let report = pipeline.report();
    assert_eq!(report.offer_count, 100_000);
    assert!(report.compression_ratio() > 1.0);
    println!(
        "100k from-scratch: {elapsed:?}, {} aggregates, stats {:?}",
        report.aggregate_count,
        pipeline.delta_stats()
    );
    // Generous bound: the build runs in well under a second in release;
    // 60 s only catches catastrophic regressions (and stays green on
    // slow shared CI runners).
    #[cfg(not(debug_assertions))]
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
}

#[test]
#[ignore = "throughput smoke; run with cargo test --release -- --ignored"]
fn trickle_update_beats_full_refold_tenfold_on_1k_group() {
    const N: u64 = 1_000;
    // One p0 group of 1 000 identical offers → a single 1 000-member
    // aggregate.
    let members: Vec<FlexOffer> = (0..N).map(identical_offer).collect();
    let mut pipeline =
        AggregationPipeline::from_scratch(AggregationParams::p0(), None, members.iter().cloned());
    assert_eq!(pipeline.aggregate_count(), 1);

    // Delta path: one insert + one delete per iteration (the group
    // returns to 1 000 members, so every sample sees the same size).
    let mut next = N;
    let trickle = median_time(64, || {
        pipeline.apply(vec![FlexOfferUpdate::Insert(identical_offer(next))]);
        pipeline.apply(vec![FlexOfferUpdate::Delete(mirabel_core::FlexOfferId(
            next,
        ))]);
        next += 1;
    });

    // Re-fold path: what the pre-delta pipeline paid per trickle update —
    // clone the full member list through the update stream and fold it
    // from scratch.
    let refold = median_time(64, || {
        let cloned = members.to_vec();
        std::hint::black_box(AggregatedFlexOffer::build(AggregateId(0), &cloned));
    });

    println!("trickle(insert+delete) {trickle:?} vs refold {refold:?}");
    #[cfg(not(debug_assertions))]
    assert!(
        refold >= trickle * 10,
        "delta-fold must beat the full re-fold ≥10×: trickle {trickle:?}, refold {refold:?}"
    );
}

#[test]
#[ignore = "throughput smoke; run with cargo test --release -- --ignored"]
fn shared_pool_trickle_flush_no_worse_than_spawned_workers_on_1k_groups() {
    // The chatty-caller case the shared executor exists for: a trickle
    // batch touching 8 live 1 000-member groups per flush. The baseline
    // re-creates the flush pool every apply — the spawn/join cost
    // profile of the old per-flush `std::thread::scope` workers. The
    // persistent pool must be no worse (in practice it wins by the
    // whole spawn/join cost; the 1.5× margin only absorbs CI jitter).
    //
    // This bound is the only place the two are compared; what a flush
    // costs inside a planning round is the layered benchmark's
    // `aggregate.flush_ms`, and what the pool buys `exec.width_speedup`.
    const GROUPS: u64 = 8;
    const MEMBERS: u64 = 1_000;
    const WIDTH: usize = 4;
    let member = |id: u64, g: u64| {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(10 + (g * 100) as i64))
            .time_flexibility(8)
            .profile(Profile::uniform(4, EnergyRange::new(0.5, 2.0).unwrap()))
            .build()
            .unwrap()
    };
    let seeded = || {
        let mut p = AggregationPipeline::new(AggregationParams::p0(), None);
        p.apply(
            (0..GROUPS)
                .flat_map(|g| {
                    (0..MEMBERS).map(move |k| FlexOfferUpdate::Insert(member(g * 1_000_000 + k, g)))
                })
                .collect(),
        );
        assert_eq!(p.aggregate_count(), GROUPS as usize);
        p
    };
    // One churn round: a fresh member into every group, last round's
    // extra back out — each flush fans out across all 8 groups.
    let churn = |p: &mut AggregationPipeline, i: u64| {
        let mut batch = Vec::with_capacity(2 * GROUPS as usize);
        for g in 0..GROUPS {
            let base = g * 1_000_000 + 500_000;
            if i > 0 {
                batch.push(FlexOfferUpdate::Delete(mirabel_core::FlexOfferId(
                    base + i - 1,
                )));
            }
            batch.push(FlexOfferUpdate::Insert(member(base + i, g)));
        }
        std::hint::black_box(p.apply(batch).len());
    };

    let mut shared = seeded();
    shared.set_flush_pool(Pool::new(WIDTH));
    let mut i = 0u64;
    let pooled = median_time(64, || {
        churn(&mut shared, i);
        i += 1;
    });

    let mut respawned = seeded();
    let mut j = 0u64;
    let spawned = median_time(64, || {
        respawned.set_flush_pool(Pool::new(WIDTH));
        churn(&mut respawned, j);
        j += 1;
    });

    println!("trickle flush: shared pool {pooled:?} vs per-flush spawn {spawned:?}");
    #[cfg(not(debug_assertions))]
    assert!(
        pooled <= spawned + spawned / 2,
        "persistent pool must not lose to per-flush worker spawning: \
         pooled {pooled:?}, spawned {spawned:?}"
    );
}
