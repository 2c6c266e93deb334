//! Ablation: the optional bin-packer (paper §4).
//!
//! Cost of enabling the bin-packer on a population with many identical
//! offers (its target case) vs a diverse population (where it only adds
//! overhead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mirabel_aggregate::{AggregationParams, AggregationPipeline, BinPackerConfig};
use mirabel_core::{EnergyRange, FlexOffer, FlexOfferGenerator, Profile, TimeSlot};

fn identical_offers(n: usize) -> Vec<FlexOffer> {
    (0..n as u64)
        .map(|i| {
            FlexOffer::builder(i, 1)
                .earliest_start(TimeSlot(10))
                .time_flexibility(8)
                .profile(Profile::uniform(2, EnergyRange::new(1.0, 2.0).unwrap()))
                .build()
                .unwrap()
        })
        .collect()
}

fn binpack(c: &mut Criterion) {
    let identical = identical_offers(5_000);
    let diverse: Vec<_> = FlexOfferGenerator::with_seed(4).take(5_000).collect();

    let mut group = c.benchmark_group("ablation_binpacker_5k");
    group.sample_size(10);
    for (pop_name, offers) in [("identical", &identical), ("diverse", &diverse)] {
        for (bp_name, bp) in [
            ("off", None),
            ("max50", Some(BinPackerConfig::max_members(50))),
        ] {
            group.bench_with_input(
                BenchmarkId::new(pop_name.to_string(), bp_name),
                &(offers, bp),
                |b, (offers, bp)| {
                    b.iter(|| {
                        AggregationPipeline::from_scratch(
                            AggregationParams::p0(),
                            *bp,
                            offers.iter().cloned(),
                        )
                        .aggregate_count()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, binpack);
criterion_main!(benches);
