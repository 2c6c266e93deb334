//! The chained aggregation pipeline (paper §4): group-builder →
//! (optional) bin-packer → n-to-1 aggregator, with incremental **delta**
//! updates flowing through all three and every offer value stored once
//! in the pipeline's [`OfferSlab`].
//!
//! The paper's component *accumulates* flex-offer updates in the
//! group-builder and processes them **in bulk** when aggregates are
//! needed. [`AggregationPipeline::accumulate`] /
//! [`AggregationPipeline::flush`] are that mode: a caller that ingests a
//! wave of submissions stages each one for the price of a `Vec` push and
//! pays one chain pass per wave — one group flush, one bin-packing and
//! one profile re-fold per *touched aggregate*, not per update.
//! [`AggregationPipeline::apply`] is the two back-to-back.

use crate::aggregate::AggregatedFlexOffer;
use crate::binpack::BinPacker;
use crate::config::{AggregationParams, BinPackerConfig};
use crate::group::GroupBuilder;
use crate::metrics::{AggregationReport, DeltaStats};
use crate::nto1::{DisaggregationError, NToOneAggregator};
use crate::slab::OfferSlab;
use crate::update::{AggregateUpdate, FlexOfferUpdate};
use mirabel_core::exec::Pool;
use mirabel_core::{AggregateId, FlexOffer, FlexOfferId, ScheduledFlexOffer};

/// The full aggregation component.
#[derive(Debug)]
pub struct AggregationPipeline {
    slab: OfferSlab,
    groups: GroupBuilder,
    binpacker: Option<BinPacker>,
    aggregator: NToOneAggregator,
}

impl AggregationPipeline {
    /// Pipeline with the given thresholds; `binpacker: None` disables the
    /// bin-packer (as in the Figure 5 experiment).
    pub fn new(params: AggregationParams, binpacker: Option<BinPackerConfig>) -> Self {
        AggregationPipeline {
            slab: OfferSlab::new(),
            groups: GroupBuilder::new(params),
            binpacker: binpacker.map(BinPacker::new),
            aggregator: NToOneAggregator::new(),
        }
    }

    /// Worker pool used by the shard-parallel flush (the n-to-1 fold is
    /// partitioned by group hash, one shard per pool lane). The emitted
    /// update stream is identical for any pool; the default is the
    /// shared [`Pool::global`] executor.
    pub fn set_flush_pool(&mut self, pool: Pool) {
        self.aggregator.set_pool(pool);
    }

    /// Queue offer updates without processing them — the paper's §4 bulk
    /// mode: "flex-offer updates are accumulated within the group-builder
    /// until their further processing is invoked". Until the next
    /// [`flush`](Self::flush) every accessor of this pipeline (aggregates,
    /// slab lookups, counts, disaggregation) still describes the state as
    /// of the previous flush.
    pub fn accumulate(&mut self, updates: impl IntoIterator<Item = FlexOfferUpdate>) {
        self.groups.accumulate(updates);
    }

    /// Run everything accumulated so far through the whole chain in one
    /// pass — each touched group is flushed, bin-packed and re-folded
    /// once, however many of the accumulated updates hit it — and return
    /// the aggregated flex-offer updates. The updates are processed in
    /// accumulation order, so the resulting grouping and membership equal
    /// applying them one [`apply`](Self::apply) at a time; what a batch
    /// skips are the intermediate aggregate snapshots (and the aggregate
    /// id a group that is created *and* emptied inside one batch would
    /// have been given).
    pub fn flush(&mut self) -> Vec<AggregateUpdate> {
        if self.groups.pending_len() == 0 {
            return Vec::new();
        }
        let group_updates = self.groups.flush(&mut self.slab);
        let subgroup_updates = match &mut self.binpacker {
            Some(bp) => bp.apply(group_updates, &self.slab),
            None => BinPacker::passthrough(group_updates),
        };
        self.aggregator.apply(subgroup_updates, &self.slab)
    }

    /// [`accumulate`](Self::accumulate) + [`flush`](Self::flush): run a
    /// batch of offer updates (and anything accumulated before it)
    /// through the whole chain; returns the aggregated flex-offer updates.
    pub fn apply(&mut self, updates: Vec<FlexOfferUpdate>) -> Vec<AggregateUpdate> {
        self.accumulate(updates);
        self.flush()
    }

    /// Convenience: aggregate a whole offer set from scratch.
    pub fn from_scratch(
        params: AggregationParams,
        binpacker: Option<BinPackerConfig>,
        offers: impl IntoIterator<Item = FlexOffer>,
    ) -> AggregationPipeline {
        let mut p = AggregationPipeline::new(params, binpacker);
        p.apply(offers.into_iter().map(FlexOfferUpdate::Insert).collect());
        p
    }

    /// Iterate current aggregates (ascending aggregate id).
    pub fn aggregates(&self) -> impl Iterator<Item = &AggregatedFlexOffer> {
        self.aggregator.aggregates()
    }

    /// Aggregates as plain flex-offers for the scheduler, in stable id
    /// order (schedulers are order-sensitive; the aggregate store
    /// iterates in id order by construction). An aggregate whose sums
    /// left the finite range is no valid offer and is skipped.
    pub fn macro_offers(&self) -> Vec<FlexOffer> {
        self.aggregator
            .aggregates()
            .filter_map(|a| a.to_flex_offer().ok())
            .collect()
    }

    /// Look up one aggregate.
    pub fn aggregate(&self, id: AggregateId) -> Option<&AggregatedFlexOffer> {
        self.aggregator.aggregate(id)
    }

    /// Look up one pooled micro offer in the slab.
    pub fn offer(&self, id: FlexOfferId) -> Option<&FlexOffer> {
        self.slab.get(id)
    }

    /// Disaggregate a scheduled aggregate (see
    /// [`NToOneAggregator::disaggregate`]).
    pub fn disaggregate(
        &self,
        id: AggregateId,
        schedule: &ScheduledFlexOffer,
    ) -> Result<Vec<ScheduledFlexOffer>, DisaggregationError> {
        self.aggregator.disaggregate(id, schedule, &self.slab)
    }

    /// Current quality metrics (Figure 5 quantities).
    pub fn report(&self) -> AggregationReport {
        let mut total_tf = 0u64;
        let mut retained = 0u64;
        let mut offers = 0usize;
        for agg in self.aggregator.aggregates() {
            let agg_tf = agg.time_flexibility() as u64;
            let members = self
                .aggregator
                .member_ids(agg.id)
                .expect("aggregate has members");
            offers += members.len();
            for mid in members.iter() {
                let m = self.slab.get(mid).expect("member is in the slab");
                total_tf += m.time_flexibility() as u64;
                retained += agg_tf;
            }
        }
        AggregationReport {
            offer_count: offers,
            aggregate_count: self.aggregator.aggregate_count(),
            total_time_flexibility: total_tf,
            retained_time_flexibility: retained,
        }
    }

    /// Cumulative delta-fold statistics of the n-to-1 stage.
    pub fn delta_stats(&self) -> DeltaStats {
        self.aggregator.stats()
    }

    /// Number of similarity groups currently maintained.
    pub fn group_count(&self) -> usize {
        self.groups.group_count()
    }

    /// Number of offers currently pooled in the slab.
    pub fn offer_count(&self) -> usize {
        self.slab.len()
    }

    /// Number of aggregates currently maintained.
    pub fn aggregate_count(&self) -> usize {
        self.aggregator.aggregate_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, FlexOfferGenerator, FlexOfferId, Profile, TimeSlot};

    fn offer(id: u64, start: i64, tf: u32) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(start))
            .time_flexibility(tf)
            .profile(Profile::uniform(2, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap()
    }

    #[test]
    fn p0_has_zero_flexibility_loss() {
        let offers: Vec<FlexOffer> = FlexOfferGenerator::with_seed(3).take(2000).collect();
        let p = AggregationPipeline::from_scratch(AggregationParams::p0(), None, offers);
        let r = p.report();
        assert_eq!(r.offer_count, 2000);
        assert_eq!(r.time_flexibility_loss(), 0);
        assert!(r.compression_ratio() >= 1.0);
    }

    #[test]
    fn p1_loses_flexibility_p2_does_not() {
        let offers: Vec<FlexOffer> = FlexOfferGenerator::with_seed(3).take(2000).collect();
        let p1 = AggregationPipeline::from_scratch(AggregationParams::p1(16), None, offers.clone());
        let p2 = AggregationPipeline::from_scratch(AggregationParams::p2(16), None, offers);
        assert!(p1.report().time_flexibility_loss() > 0);
        assert_eq!(p2.report().time_flexibility_loss(), 0);
    }

    #[test]
    fn wider_tolerances_compress_more() {
        let offers: Vec<FlexOffer> = FlexOfferGenerator::with_seed(5).take(5000).collect();
        let p0 = AggregationPipeline::from_scratch(AggregationParams::p0(), None, offers.clone());
        let p3 = AggregationPipeline::from_scratch(AggregationParams::p3(32, 32), None, offers);
        assert!(
            p3.report().compression_ratio() > p0.report().compression_ratio(),
            "p3 {} <= p0 {}",
            p3.report().compression_ratio(),
            p0.report().compression_ratio()
        );
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let offers: Vec<FlexOffer> = FlexOfferGenerator::with_seed(7).take(1000).collect();
        let scratch =
            AggregationPipeline::from_scratch(AggregationParams::p3(8, 8), None, offers.clone());
        let mut incremental = AggregationPipeline::new(AggregationParams::p3(8, 8), None);
        for chunk in offers.chunks(100) {
            incremental.apply(chunk.iter().cloned().map(FlexOfferUpdate::Insert).collect());
        }
        assert_eq!(scratch.aggregate_count(), incremental.aggregate_count());
        assert_eq!(scratch.report(), incremental.report());
    }

    #[test]
    fn accumulate_then_flush_is_one_pass_over_the_batch() {
        // 1000 offers staged in dribs, one replacement and one delete on
        // top: a single flush emits each touched aggregate once and lands
        // in the state one-at-a-time application reaches.
        let offers: Vec<FlexOffer> = FlexOfferGenerator::with_seed(7).take(1000).collect();
        let mut eager = AggregationPipeline::new(AggregationParams::p3(8, 8), None);
        let mut bulk = AggregationPipeline::new(AggregationParams::p3(8, 8), None);
        let mut updates: Vec<FlexOfferUpdate> = offers
            .iter()
            .cloned()
            .map(FlexOfferUpdate::Insert)
            .collect();
        updates.push(FlexOfferUpdate::Insert(offers[3].clone()));
        updates.push(FlexOfferUpdate::Delete(offers[5].id()));
        for u in &updates {
            eager.apply(vec![u.clone()]);
            bulk.accumulate([u.clone()]);
        }
        assert_eq!(bulk.aggregate_count(), 0, "nothing derived moves yet");
        assert_eq!(bulk.offer_count(), 0);
        let emitted = bulk.flush();
        assert_eq!(emitted.len(), bulk.aggregate_count());
        assert_eq!(bulk.delta_stats().emitted as usize, bulk.aggregate_count());
        assert!(eager.delta_stats().emitted >= 1000);
        assert_eq!(bulk.report(), eager.report());
        assert_eq!(bulk.offer_count(), 999);
        assert!(
            bulk.flush().is_empty(),
            "an empty buffer flushes to nothing"
        );
    }

    #[test]
    fn deletes_reverse_inserts() {
        let offers: Vec<FlexOffer> = FlexOfferGenerator::with_seed(9).take(500).collect();
        let mut p = AggregationPipeline::new(AggregationParams::p3(8, 8), None);
        p.apply(
            offers
                .iter()
                .cloned()
                .map(FlexOfferUpdate::Insert)
                .collect(),
        );
        assert!(p.aggregate_count() > 0);
        let stats_before = p.delta_stats();
        assert_eq!(stats_before.folded_in, 500);
        p.apply(
            offers
                .iter()
                .map(|o| FlexOfferUpdate::Delete(o.id()))
                .collect(),
        );
        assert_eq!(p.aggregate_count(), 0);
        assert_eq!(p.group_count(), 0);
        assert_eq!(p.offer_count(), 0);
        assert_eq!(p.report().offer_count, 0);
    }

    #[test]
    fn binpacker_bounds_aggregate_sizes() {
        // 100 identical offers: without the bin-packer one aggregate,
        // with max_members=10 exactly ten.
        let offers: Vec<FlexOffer> = (0..100).map(|i| offer(i, 10, 4)).collect();
        let without =
            AggregationPipeline::from_scratch(AggregationParams::p0(), None, offers.clone());
        assert_eq!(without.aggregate_count(), 1);
        let with = AggregationPipeline::from_scratch(
            AggregationParams::p0(),
            Some(BinPackerConfig::max_members(10)),
            offers,
        );
        assert_eq!(with.aggregate_count(), 10);
        for a in with.aggregates() {
            assert!(a.member_count() <= 10);
        }
        // both preserve all offers
        assert_eq!(with.report().offer_count, 100);
    }

    #[test]
    fn scheduling_roundtrip_through_pipeline() {
        let offers: Vec<FlexOffer> = (0..10).map(|i| offer(i, 10, 4)).collect();
        let p = AggregationPipeline::from_scratch(AggregationParams::p0(), None, offers.clone());
        let macros = p.macro_offers();
        assert_eq!(macros.len(), 1);
        let schedule = ScheduledFlexOffer::at_fraction(&macros[0], TimeSlot(12), 0.5);
        let agg_id = AggregateId(macros[0].id().value());
        let micro = p.disaggregate(agg_id, &schedule).unwrap();
        assert_eq!(micro.len(), 10);
        for s in &micro {
            let m = offers.iter().find(|o| o.id() == s.offer_id).unwrap();
            s.validate_against(m, 1e-9).unwrap();
        }
    }

    #[test]
    fn update_of_existing_offer_replaces_it() {
        let mut p = AggregationPipeline::new(AggregationParams::p0(), None);
        p.apply(vec![FlexOfferUpdate::Insert(offer(1, 10, 4))]);
        // the same offer id arrives again with new attributes
        p.apply(vec![FlexOfferUpdate::Insert(offer(1, 50, 8))]);
        assert_eq!(p.report().offer_count, 1);
        let aggs: Vec<_> = p.aggregates().collect();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].earliest_start, TimeSlot(50));
        assert_eq!(
            p.offer(FlexOfferId(1)).unwrap().earliest_start(),
            TimeSlot(50)
        );
    }

    #[test]
    fn flush_threads_do_not_change_results() {
        let offers: Vec<FlexOffer> = FlexOfferGenerator::with_seed(11).take(2000).collect();
        let run = |threads: usize| {
            let mut p = AggregationPipeline::new(AggregationParams::p3(8, 8), None);
            p.set_flush_pool(Pool::new(threads));
            let mut streams = Vec::new();
            for chunk in offers.chunks(500) {
                streams.push(p.apply(chunk.iter().cloned().map(FlexOfferUpdate::Insert).collect()));
            }
            let aggregates: Vec<AggregatedFlexOffer> = p.aggregates().cloned().collect();
            (streams, aggregates)
        };
        assert_eq!(run(1), run(4));
    }
}
