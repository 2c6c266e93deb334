//! Figure 5's qualitative claims, asserted at the first step of the
//! `fig5` bin's quick run: 12 500 offers from the bin's generator,
//! inserts only, bin-packer off, under the paper's four parameter sets.
//!
//! * (a) compression: P0 < P1, P0 < P2, P1 < P3 and P2 < P3 — each
//!   tolerance a set adds groups more offers together;
//! * (c) time-flexibility loss: none at P0 and P2, which both group only
//!   offers of equal time flexibility, and 0 < loss(P1) < loss(P3).

use mirabel_aggregate::{
    AggregationParams, AggregationPipeline, AggregationReport, FlexOfferUpdate,
};
use mirabel_core::FlexOfferGenerator;

const OFFERS: usize = 12_500;

fn aggregate(params: AggregationParams) -> AggregationReport {
    let mut pipeline = AggregationPipeline::new(params, None);
    let offers = FlexOfferGenerator::with_seed(2012).take(OFFERS);
    pipeline.apply(offers.map(FlexOfferUpdate::Insert).collect());
    let report = pipeline.report();
    assert_eq!(report.offer_count, OFFERS);
    report
}

/// Time flexibility the aggregation took away, in slots.
fn loss(report: &AggregationReport) -> u64 {
    report.total_time_flexibility - report.retained_time_flexibility
}

#[test]
fn fig5_compression_and_flexibility_loss_are_ordered() {
    let p0 = aggregate(AggregationParams::p0());
    let p1 = aggregate(AggregationParams::p1(16));
    let p2 = aggregate(AggregationParams::p2(16));
    let p3 = aggregate(AggregationParams::p3(16, 16));

    let compression = |r: &AggregationReport| r.compression_ratio();
    assert!(compression(&p0) < compression(&p1));
    assert!(compression(&p0) < compression(&p2));
    assert!(compression(&p1) < compression(&p3));
    assert!(compression(&p2) < compression(&p3));

    assert_eq!(loss(&p0), 0);
    assert_eq!(loss(&p2), 0);
    assert!(0 < loss(&p1));
    assert!(loss(&p1) < loss(&p3));
}
