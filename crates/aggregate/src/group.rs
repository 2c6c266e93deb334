//! The group-builder (paper §4): partitions flex-offers into disjoint
//! similarity groups based on the aggregation thresholds.
//!
//! Offers are bucketed on a grid over (kind, earliest start, time
//! flexibility, optionally duration); a tolerance of `t` slots yields
//! buckets of width `t + 1`, so attribute values within one group deviate
//! by at most `t`. Updates are accumulated and, when flushed, the offer
//! values move into the pipeline's [`OfferSlab`] and the group changes
//! are emitted as **member deltas** (`added` ids / `removed` owned
//! values) for the bin-packer / aggregator — a flush touching one offer
//! emits O(1) delta entries, never a member snapshot.

use crate::config::AggregationParams;
use crate::slab::OfferSlab;
use crate::update::{FlexOfferUpdate, GroupUpdate};
use mirabel_core::{FlexOffer, FlexOfferId, GroupId, OfferKind};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

/// Bucketed similarity key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct GroupKey {
    kind_production: bool,
    start_bucket: i64,
    tf_bucket: u32,
    duration_bucket: Option<u32>,
}

/// Per-flush membership delta of one group.
#[derive(Debug, Default)]
struct DeltaAcc {
    added: BTreeSet<FlexOfferId>,
    removed: Vec<FlexOffer>,
}

/// Incremental similarity grouping.
#[derive(Debug)]
pub struct GroupBuilder {
    params: AggregationParams,
    /// Group id and current member ids (values live in the slab).
    groups: HashMap<GroupKey, (GroupId, BTreeSet<FlexOfferId>)>,
    /// Reverse index: offer → its group key.
    index: HashMap<FlexOfferId, GroupKey>,
    /// Updates accumulated since the last flush.
    pending: Vec<FlexOfferUpdate>,
    next_group: u64,
}

impl GroupBuilder {
    /// Empty builder with the given thresholds.
    pub fn new(params: AggregationParams) -> GroupBuilder {
        GroupBuilder {
            params,
            groups: HashMap::new(),
            index: HashMap::new(),
            pending: Vec::new(),
            next_group: 0,
        }
    }

    /// The thresholds in use.
    pub fn params(&self) -> &AggregationParams {
        &self.params
    }

    fn key_of(&self, offer: &FlexOffer) -> GroupKey {
        let sa_w = self.params.start_after_tolerance as i64 + 1;
        let tf_w = self.params.time_flexibility_tolerance + 1;
        GroupKey {
            kind_production: offer.kind() == OfferKind::Production,
            start_bucket: offer.earliest_start().index().div_euclid(sa_w),
            tf_bucket: offer.time_flexibility() / tf_w,
            duration_bucket: self
                .params
                .duration_tolerance
                .map(|t| offer.duration() / (t + 1)),
        }
    }

    /// Queue updates without processing ("flex-offer updates are
    /// accumulated within the group-builder until their further processing
    /// is invoked").
    pub fn accumulate(&mut self, updates: impl IntoIterator<Item = FlexOfferUpdate>) {
        self.pending.extend(updates);
    }

    /// Number of queued, unprocessed updates.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Process all queued updates, moving offer values into `slab`, and
    /// emit the per-group membership deltas in deterministic (sorted
    /// group key) order.
    pub fn flush(&mut self, slab: &mut OfferSlab) -> Vec<GroupUpdate> {
        let pending = std::mem::take(&mut self.pending);
        let mut acc: HashMap<GroupKey, DeltaAcc> = HashMap::new();
        for u in pending {
            match u {
                FlexOfferUpdate::Insert(offer) => self.insert(offer, slab, &mut acc),
                FlexOfferUpdate::Delete(id) => self.delete(id, slab, &mut acc),
            }
        }

        // Deterministic emission order: group ids and downstream aggregate
        // ids must not depend on hash iteration order.
        let mut touched: Vec<GroupKey> = acc.keys().copied().collect();
        touched.sort_unstable();
        let mut out = Vec::with_capacity(touched.len());
        for key in touched {
            let delta = acc.remove(&key).expect("key from acc");
            let Some((gid, members)) = self.groups.get(&key) else {
                continue;
            };
            if members.is_empty() {
                let gid = *gid;
                self.groups.remove(&key);
                out.push(GroupUpdate::Removed { group: gid });
            } else if !(delta.added.is_empty() && delta.removed.is_empty()) {
                let mut removed = delta.removed;
                removed.sort_by_key(|o| o.id());
                out.push(GroupUpdate::Upsert {
                    group: *gid,
                    added: delta.added.into_iter().collect(),
                    removed,
                });
            }
        }
        out
    }

    fn insert(
        &mut self,
        offer: FlexOffer,
        slab: &mut OfferSlab,
        acc: &mut HashMap<GroupKey, DeltaAcc>,
    ) {
        let id = offer.id();
        let key = self.key_of(&offer);
        let displaced = slab.insert(offer);
        match self.index.insert(id, key) {
            Some(old) if old != key => {
                // Moved between groups: leave the old one…
                if let Some((_, members)) = self.groups.get_mut(&old) {
                    members.remove(&id);
                }
                let old_acc = acc.entry(old).or_default();
                if !old_acc.added.remove(&id) {
                    // The old value was folded into the old group before
                    // this flush — downstream must subtract it.
                    old_acc
                        .removed
                        .push(displaced.expect("indexed offer is in the slab"));
                }
                self.join(id, key, acc);
            }
            Some(_) => {
                // Same group, new attribute values: old value out, new
                // value in (unless the old value was itself added this
                // flush and never left the builder).
                let a = acc.entry(key).or_default();
                if !a.added.contains(&id) {
                    a.removed
                        .push(displaced.expect("indexed offer is in the slab"));
                }
                a.added.insert(id);
            }
            None => {
                debug_assert!(displaced.is_none(), "unindexed offer was in the slab");
                self.join(id, key, acc);
            }
        }
    }

    /// Register `id` as a member of the group at `key`, creating the
    /// group on first use.
    fn join(&mut self, id: FlexOfferId, key: GroupKey, acc: &mut HashMap<GroupKey, DeltaAcc>) {
        let (_, members) = match self.groups.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let gid = GroupId(self.next_group);
                self.next_group += 1;
                e.insert((gid, BTreeSet::new()))
            }
        };
        members.insert(id);
        acc.entry(key).or_default().added.insert(id);
    }

    fn delete(
        &mut self,
        id: FlexOfferId,
        slab: &mut OfferSlab,
        acc: &mut HashMap<GroupKey, DeltaAcc>,
    ) {
        let Some(key) = self.index.remove(&id) else {
            return;
        };
        if let Some((_, members)) = self.groups.get_mut(&key) {
            members.remove(&id);
        }
        let removed = slab.remove(id).expect("indexed offer is in the slab");
        let a = acc.entry(key).or_default();
        if !a.added.remove(&id) {
            a.removed.push(removed);
        }
    }

    /// Current number of non-empty groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total offers currently grouped.
    pub fn offer_count(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, Profile, TimeSlot};

    fn offer(id: u64, start: i64, tf: u32) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(start))
            .time_flexibility(tf)
            .profile(Profile::uniform(2, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap()
    }

    fn inserts(offers: Vec<FlexOffer>) -> Vec<FlexOfferUpdate> {
        offers.into_iter().map(FlexOfferUpdate::Insert).collect()
    }

    /// Collected (added ids, removed ids) across all upserts of a flush.
    fn delta_ids(updates: &[GroupUpdate]) -> (Vec<u64>, Vec<u64>) {
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for u in updates {
            if let GroupUpdate::Upsert {
                added: a,
                removed: r,
                ..
            } = u
            {
                added.extend(a.iter().map(|id| id.value()));
                removed.extend(r.iter().map(|o| o.id().value()));
            }
        }
        added.sort_unstable();
        removed.sort_unstable();
        (added, removed)
    }

    #[test]
    fn p0_groups_only_identical_attributes() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p0());
        gb.accumulate(inserts(vec![
            offer(1, 10, 4),
            offer(2, 10, 4),
            offer(3, 10, 5), // different TF
            offer(4, 11, 4), // different start
        ]));
        let updates = gb.flush(&mut slab);
        assert_eq!(gb.group_count(), 3);
        assert_eq!(updates.len(), 3);
        assert_eq!(gb.offer_count(), 4);
        assert_eq!(slab.len(), 4);
    }

    #[test]
    fn tolerances_widen_buckets() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p3(4, 4));
        gb.accumulate(inserts(vec![
            offer(1, 10, 4),
            offer(2, 12, 6), // within ±4 of both
        ]));
        gb.flush(&mut slab);
        // bucket width 5: starts 10,12 both in bucket 2; tf 4,6 — 4/5=0, 6/5=1.
        // tf values land in different buckets here, so choose values that share one:
        assert_eq!(gb.group_count(), 2);
        let mut slab2 = OfferSlab::new();
        let mut gb2 = GroupBuilder::new(AggregationParams::p3(4, 4));
        gb2.accumulate(inserts(vec![offer(1, 10, 5), offer(2, 12, 8)]));
        gb2.flush(&mut slab2);
        assert_eq!(gb2.group_count(), 1);
    }

    #[test]
    fn bucket_deviation_never_exceeds_tolerance() {
        // Property: two offers in the same bucket differ by at most the
        // tolerance in each attribute.
        let params = AggregationParams::p3(7, 3);
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(params);
        let offers: Vec<FlexOffer> = (0..500)
            .map(|i| offer(i, (i % 97) as i64, (i % 13) as u32))
            .collect();
        gb.accumulate(inserts(offers));
        for u in gb.flush(&mut slab) {
            if let GroupUpdate::Upsert { added, .. } = u {
                let members: Vec<&FlexOffer> =
                    added.iter().map(|id| slab.get(*id).unwrap()).collect();
                for a in &members {
                    for b in &members {
                        assert!(
                            (a.earliest_start() - b.earliest_start()).unsigned_abs()
                                <= params.start_after_tolerance as u64
                        );
                        assert!(
                            a.time_flexibility().abs_diff(b.time_flexibility())
                                <= params.time_flexibility_tolerance
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn consumption_production_never_mix() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p3(1000, 1000));
        let cons = offer(1, 10, 4);
        let prod = FlexOffer::builder(2, 1)
            .kind(OfferKind::Production)
            .earliest_start(TimeSlot(10))
            .time_flexibility(4)
            .profile(Profile::uniform(2, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap();
        gb.accumulate(inserts(vec![cons]));
        gb.accumulate(vec![FlexOfferUpdate::Insert(prod)]);
        gb.flush(&mut slab);
        assert_eq!(gb.group_count(), 2);
    }

    #[test]
    fn delete_emits_owned_value_and_removes_empty_groups() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p0());
        gb.accumulate(inserts(vec![offer(1, 5, 2), offer(2, 5, 2)]));
        gb.flush(&mut slab);
        assert_eq!(gb.group_count(), 1);

        gb.accumulate(vec![FlexOfferUpdate::Delete(FlexOfferId(1))]);
        let u1 = gb.flush(&mut slab);
        assert_eq!(u1.len(), 1);
        match &u1[0] {
            GroupUpdate::Upsert { added, removed, .. } => {
                assert!(added.is_empty());
                assert_eq!(removed.len(), 1);
                assert_eq!(removed[0].id(), FlexOfferId(1));
                assert_eq!(removed[0].earliest_start(), TimeSlot(5));
            }
            other => panic!("expected upsert, got {other:?}"),
        }
        assert!(!slab.contains(FlexOfferId(1)));

        gb.accumulate(vec![FlexOfferUpdate::Delete(FlexOfferId(2))]);
        let u2 = gb.flush(&mut slab);
        assert!(matches!(&u2[0], GroupUpdate::Removed { .. }));
        assert_eq!(gb.group_count(), 0);
        assert_eq!(gb.offer_count(), 0);
        assert!(slab.is_empty());
    }

    #[test]
    fn delete_unknown_offer_is_noop() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p0());
        gb.accumulate(vec![FlexOfferUpdate::Delete(FlexOfferId(99))]);
        assert!(gb.flush(&mut slab).is_empty());
    }

    #[test]
    fn reinsert_moves_between_groups() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p0());
        gb.accumulate(inserts(vec![offer(1, 5, 2)]));
        gb.flush(&mut slab);
        // same id, different attributes: moves to a new group
        gb.accumulate(inserts(vec![offer(1, 50, 9)]));
        let updates = gb.flush(&mut slab);
        assert_eq!(gb.group_count(), 1);
        assert_eq!(gb.offer_count(), 1);
        assert_eq!(slab.len(), 1);
        // old group removed + new group upserted with the id
        assert_eq!(updates.len(), 2);
        assert!(updates
            .iter()
            .any(|u| matches!(u, GroupUpdate::Removed { .. })));
        let (added, removed) = delta_ids(&updates);
        assert_eq!(added, vec![1]);
        // the old value vanished with its whole group, so no subtraction
        // delta is needed for it
        assert!(removed.is_empty());
    }

    #[test]
    fn replacement_in_same_group_emits_old_value_and_new_id() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p3(100, 100));
        gb.accumulate(inserts(vec![offer(1, 5, 2), offer(2, 6, 3)]));
        gb.flush(&mut slab);
        assert_eq!(gb.group_count(), 1);
        // same id, same bucket, different attribute values
        gb.accumulate(inserts(vec![offer(1, 7, 4)]));
        let updates = gb.flush(&mut slab);
        assert_eq!(updates.len(), 1);
        match &updates[0] {
            GroupUpdate::Upsert { added, removed, .. } => {
                assert_eq!(added, &vec![FlexOfferId(1)]);
                assert_eq!(removed.len(), 1);
                assert_eq!(removed[0].earliest_start(), TimeSlot(5));
            }
            other => panic!("expected upsert, got {other:?}"),
        }
        assert_eq!(
            slab.get(FlexOfferId(1)).unwrap().earliest_start(),
            TimeSlot(7)
        );
    }

    #[test]
    fn insert_then_delete_in_one_flush_cancels_out() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p0());
        gb.accumulate(inserts(vec![offer(1, 5, 2)]));
        gb.flush(&mut slab);
        // Offer 2 joins and leaves within one batch: the group must see
        // no delta for it at all.
        gb.accumulate(vec![
            FlexOfferUpdate::Insert(offer(2, 5, 2)),
            FlexOfferUpdate::Delete(FlexOfferId(2)),
        ]);
        let updates = gb.flush(&mut slab);
        assert!(updates.is_empty(), "got {updates:?}");
        assert_eq!(gb.offer_count(), 1);
        assert!(!slab.contains(FlexOfferId(2)));
    }

    #[test]
    fn accumulate_defers_processing() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p0());
        gb.accumulate(inserts(vec![offer(1, 5, 2)]));
        assert_eq!(gb.pending_len(), 1);
        assert_eq!(gb.group_count(), 0); // not yet processed
        gb.flush(&mut slab);
        assert_eq!(gb.pending_len(), 0);
        assert_eq!(gb.group_count(), 1);
    }

    #[test]
    fn flush_batches_touch_each_group_once() {
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(AggregationParams::p0());
        gb.accumulate(inserts((0..100).map(|i| offer(i, 5, 2)).collect()));
        let updates = gb.flush(&mut slab);
        assert_eq!(updates.len(), 1); // all in one group, one update
        let (added, removed) = delta_ids(&updates);
        assert_eq!(added.len(), 100);
        assert!(removed.is_empty());
    }

    #[test]
    fn duration_tolerance_optional_dimension() {
        let mut params = AggregationParams::p0();
        params.duration_tolerance = Some(0);
        let mut slab = OfferSlab::new();
        let mut gb = GroupBuilder::new(params);
        let mut long = offer(2, 10, 4);
        // Rebuild with a longer profile.
        long = FlexOffer::builder(long.id().value(), 1)
            .earliest_start(TimeSlot(10))
            .time_flexibility(4)
            .profile(Profile::uniform(5, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap();
        gb.accumulate(inserts(vec![offer(1, 10, 4), long]));
        gb.flush(&mut slab);
        assert_eq!(gb.group_count(), 2); // durations 2 vs 5 split
    }
}
