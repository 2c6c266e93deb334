//! The n-to-1 aggregator (paper §4): maintains one [`AggregatedFlexOffer`]
//! per sub-group and disaggregates scheduled aggregates back into micro
//! schedules.
//!
//! ## Delta-folding
//!
//! The aggregator no longer re-folds a sub-group's full member list on
//! every change. Each internal `AggregateEntry` keeps incremental state — value
//! multisets for the min-folded attributes (earliest start, time
//! flexibility, assignment deadline, profile end), the per-slot Minkowski
//! energy sums, and the running price/energy totals — so applying a
//! member delta costs O(changed members × profile length + log group),
//! independent of the group size. Float drift from repeated add/subtract
//! is bounded by a periodic exact re-fold (every `REFOLD_OPS` member
//! operations the entry is rebuilt from the slab), and every emitted
//! aggregate is cross-checked against [`AggregatedFlexOffer::build`] in
//! debug builds — the same trust-but-verify pattern as the scheduler's
//! `DeltaEvaluator` vs `cost::evaluate`.
//!
//! ## Shard-parallel flush
//!
//! Sub-group deltas of one flush are independent across groups, so
//! [`NToOneAggregator::apply`] partitions them by group-id hash into
//! one shard per lane of the shared worker pool
//! ([`mirabel_core::exec::Pool`] — the same persistent executor behind
//! `incremental::repair_parallel`, so a trickle flush wakes parked
//! workers instead of spawning threads) and
//! merges the folded results in sorted sub-group order. Fresh aggregate
//! ids are assigned during the sorted merge, so the emitted update
//! stream — ids included — is identical for any pool width.

use crate::aggregate::AggregatedFlexOffer;
use crate::members::MemberIds;
use crate::metrics::DeltaStats;
use crate::slab::OfferSlab;
use crate::update::{AggregateUpdate, SubgroupId, SubgroupUpdate};
use mirabel_core::exec::Pool;
use mirabel_core::{
    AggregateId, DomainError, EnergyRange, FlexOffer, FlexOfferId, OfferKind, Price, Profile,
    ScheduledFlexOffer, TimeSlot,
};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Member operations (adds + removes) an entry absorbs before the next
/// exact re-fold squashes accumulated float drift.
const REFOLD_OPS: u32 = 4096;

/// A removed member value more than this many times the running sum it
/// leaves behind (or 1, for a smaller sum) has cancelled the low bits
/// the other members contributed to that sum: the entry re-folds exactly
/// before it is emitted instead of waiting for [`REFOLD_OPS`].
const CANCEL_RATIO: f64 = 1e6;

/// Errors from disaggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum DisaggregationError {
    /// No aggregate with that id is maintained.
    UnknownAggregate(AggregateId),
    /// The schedule violates the aggregate's constraints.
    InvalidSchedule(DomainError),
}

impl std::fmt::Display for DisaggregationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DisaggregationError::UnknownAggregate(id) => write!(f, "unknown aggregate {id}"),
            DisaggregationError::InvalidSchedule(e) => write!(f, "invalid schedule: {e}"),
        }
    }
}

impl std::error::Error for DisaggregationError {}

/// Insert `v` into a value multiset.
fn multi_insert<K: Ord>(set: &mut BTreeMap<K, u32>, v: K) {
    *set.entry(v).or_insert(0) += 1;
}

/// Remove `v` from a value multiset.
fn multi_remove<K: Ord + std::fmt::Debug>(set: &mut BTreeMap<K, u32>, v: K) {
    match set.get_mut(&v) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            set.remove(&v);
        }
        None => panic!("value {v:?} not in multiset"),
    }
}

/// Incrementally folded state of one aggregate.
#[derive(Debug, Clone)]
struct AggregateEntry {
    kind: OfferKind,
    /// Member ids, ascending (chunked; emission snapshots share chunks).
    members: MemberIds,
    /// Multiset of member earliest starts (min = aggregate start).
    starts: BTreeMap<i64, u32>,
    /// Multiset of member time flexibilities (min = aggregate TF).
    flexes: BTreeMap<u32, u32>,
    /// Multiset of member assignment deadlines (min = aggregate's).
    deadlines: BTreeMap<i64, u32>,
    /// Multiset of member profile end slots (max = aggregate span end).
    ends: BTreeMap<i64, u32>,
    /// Slot of `lo[0]`/`hi[0]`; `<=` the current aggregate start.
    base: i64,
    /// Per-slot Minkowski minimum energies relative to `base`.
    lo: Vec<f64>,
    /// Per-slot Minkowski maximum energies relative to `base`.
    hi: Vec<f64>,
    /// Σ member max total energy (price weighting denominator).
    energy: f64,
    /// Σ member max total energy × unit price.
    weighted_price: f64,
    /// Member operations since the last exact re-fold.
    ops: u32,
    /// Snapshot emitted for (and after) the last delta application.
    aggregate: AggregatedFlexOffer,
}

impl AggregateEntry {
    fn empty() -> AggregateEntry {
        AggregateEntry {
            kind: OfferKind::Consumption,
            members: MemberIds::new(),
            starts: BTreeMap::new(),
            flexes: BTreeMap::new(),
            deadlines: BTreeMap::new(),
            ends: BTreeMap::new(),
            base: 0,
            lo: Vec::new(),
            hi: Vec::new(),
            energy: 0.0,
            weighted_price: 0.0,
            ops: 0,
            aggregate: AggregatedFlexOffer {
                id: AggregateId(0),
                kind: OfferKind::Consumption,
                earliest_start: TimeSlot(0),
                latest_start: TimeSlot(0),
                assignment_before: TimeSlot(0),
                profile: Profile::uniform(1, EnergyRange::ZERO),
                unit_price: Price::ZERO,
                member_ids: MemberIds::new(),
            },
        }
    }

    /// Fold one member in: O(profile length + log group).
    fn add(&mut self, o: &FlexOffer) {
        if self.members.is_empty() {
            self.kind = o.kind();
            self.base = o.earliest_start().index();
        }
        debug_assert_eq!(o.kind(), self.kind, "aggregate must not mix kinds");
        let es = o.earliest_start().index();
        multi_insert(&mut self.starts, es);
        multi_insert(&mut self.flexes, o.time_flexibility());
        multi_insert(&mut self.deadlines, o.assignment_before().index());
        multi_insert(&mut self.ends, es + o.duration() as i64);

        if es < self.base {
            let pad = (self.base - es) as usize;
            self.lo.splice(0..0, std::iter::repeat_n(0.0, pad));
            self.hi.splice(0..0, std::iter::repeat_n(0.0, pad));
            self.base = es;
        }
        let offset = (es - self.base) as usize;
        let need = offset + o.duration() as usize;
        if self.lo.len() < need {
            self.lo.resize(need, 0.0);
            self.hi.resize(need, 0.0);
        }
        for (k, r) in o.profile().slot_ranges().enumerate() {
            self.lo[offset + k] += r.min().kwh();
            self.hi[offset + k] += r.max().kwh();
        }

        let e = o.profile().max_total_energy().kwh();
        self.energy += e;
        self.weighted_price += e * o.unit_price().eur();

        self.members.insert(o.id()); // panics if already present
        self.ops += 1;
    }

    /// Fold one member out: the exact inverse of [`add`](Self::add).
    /// A removal that cancels a sum (see [`CANCEL_RATIO`]) makes the
    /// next emission re-fold.
    fn remove(&mut self, o: &FlexOffer) {
        let es = o.earliest_start().index();
        multi_remove(&mut self.starts, es);
        multi_remove(&mut self.flexes, o.time_flexibility());
        multi_remove(&mut self.deadlines, o.assignment_before().index());
        multi_remove(&mut self.ends, es + o.duration() as i64);

        let mut cancelled = false;
        let mut subtract = |sum: &mut f64, v: f64| {
            *sum -= v;
            cancelled |= sum.is_nan() || v.abs() > CANCEL_RATIO * sum.abs().max(1.0);
        };
        let offset = (es - self.base) as usize;
        for (k, r) in o.profile().slot_ranges().enumerate() {
            subtract(&mut self.lo[offset + k], r.min().kwh());
            subtract(&mut self.hi[offset + k], r.max().kwh());
        }

        let e = o.profile().max_total_energy().kwh();
        subtract(&mut self.energy, e);
        subtract(&mut self.weighted_price, e * o.unit_price().eur());

        self.members.remove(o.id()); // panics if absent
        self.ops += 1;
        if cancelled {
            self.ops = self.ops.max(REFOLD_OPS);
        }
    }

    /// Drop the (≈ zero) slots outside the surviving members' span so the
    /// emitted profile starts at the aggregate's earliest start.
    fn compact(&mut self) {
        let es = *self.starts.keys().next().expect("non-empty aggregate");
        if es > self.base {
            let cut = (es - self.base) as usize;
            self.lo.drain(0..cut);
            self.hi.drain(0..cut);
            self.base = es;
        }
        let end = *self.ends.keys().next_back().expect("non-empty aggregate");
        let span = (end - self.base) as usize;
        self.lo.truncate(span);
        self.hi.truncate(span);
    }

    /// Rebuild the folded state exactly from the member values in `slab`
    /// (drift squash; costs the same as a from-scratch fold).
    fn refold(&mut self, slab: &OfferSlab) {
        let members = std::mem::take(&mut self.members);
        let snapshot = self.aggregate.clone();
        *self = AggregateEntry::empty();
        self.aggregate = snapshot;
        for id in members.iter() {
            self.add(slab.get(id).expect("member is in the slab"));
        }
        self.ops = 0;
    }

    /// Refresh the emitted snapshot from the folded state.
    fn refresh(&mut self, id: AggregateId) {
        let earliest = *self.starts.keys().next().expect("non-empty aggregate");
        let flex = *self.flexes.keys().next().expect("non-empty aggregate");
        let deadline = *self.deadlines.keys().next().expect("non-empty aggregate");
        let ranges: Vec<EnergyRange> = self
            .lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| {
                // Repeated subtraction can invert a degenerate range by a
                // few ulps; clamp instead of failing.
                EnergyRange::new(l.min(h), h).expect("folded bounds are ordered")
            })
            .collect();
        let profile = Profile::from_slot_ranges(ranges)
            .expect("span >= 1")
            .normalize();
        let unit_price = if self.energy > 0.0 {
            Price(self.weighted_price / self.energy)
        } else {
            Price::ZERO
        };
        self.aggregate = AggregatedFlexOffer {
            id,
            kind: self.kind,
            earliest_start: TimeSlot(earliest),
            latest_start: TimeSlot(earliest) + flex,
            assignment_before: TimeSlot(deadline),
            profile,
            unit_price,
            // Chunk-table clone: O(members ⁄ chunk) pointer bumps, so a
            // trickle emission never re-copies a huge group's id list.
            member_ids: self.members.clone(),
        };
    }

    /// Debug-build cross-check: the delta-folded snapshot must agree with
    /// the reference from-scratch fold (same pattern as `DeltaEvaluator`
    /// vs `cost::evaluate`).
    #[cfg(debug_assertions)]
    fn assert_matches_build(&self, slab: &OfferSlab) {
        let members: Vec<FlexOffer> = self
            .members
            .iter()
            .map(|id| slab.get(id).expect("member is in the slab").clone())
            .collect();
        let reference = AggregatedFlexOffer::build(self.aggregate.id, &members);
        let a = &self.aggregate;
        debug_assert_eq!(a.kind, reference.kind);
        debug_assert_eq!(a.earliest_start, reference.earliest_start);
        debug_assert_eq!(a.latest_start, reference.latest_start);
        debug_assert_eq!(a.assignment_before, reference.assignment_before);
        debug_assert_eq!(a.member_ids, reference.member_ids);
        debug_assert_eq!(
            a.profile.total_duration(),
            reference.profile.total_duration()
        );
        for (k, (ours, theirs)) in a
            .profile
            .slot_ranges()
            .zip(reference.profile.slot_ranges())
            .enumerate()
        {
            let tol = 1e-6 * theirs.max().kwh().abs().max(1.0);
            debug_assert!(
                (ours.min() - theirs.min()).kwh().abs() <= tol
                    && (ours.max() - theirs.max()).kwh().abs() <= tol,
                "slot {k}: folded {ours} diverged from reference {theirs}"
            );
        }
        let tol = 1e-6 * reference.unit_price.eur().abs().max(1.0);
        debug_assert!(
            (a.unit_price.eur() - reference.unit_price.eur()).abs() <= tol,
            "price {} diverged from reference {}",
            a.unit_price,
            reference.unit_price
        );
    }
}

/// Result of folding one sub-group's delta on a worker.
#[derive(Debug)]
enum Outcome {
    Upsert {
        entry: Box<AggregateEntry>,
        stats: DeltaStats,
    },
    Removed,
}

/// Maintains aggregates per sub-group; performs disaggregation.
#[derive(Debug)]
pub struct NToOneAggregator {
    by_subgroup: BTreeMap<SubgroupId, AggregateId>,
    store: BTreeMap<AggregateId, AggregateEntry>,
    next_id: u64,
    pool: Pool,
    stats: DeltaStats,
}

impl Default for NToOneAggregator {
    fn default() -> NToOneAggregator {
        NToOneAggregator::new()
    }
}

impl NToOneAggregator {
    /// Empty aggregator, flushing on the shared global worker pool.
    pub fn new() -> NToOneAggregator {
        NToOneAggregator {
            by_subgroup: BTreeMap::new(),
            store: BTreeMap::new(),
            next_id: 0,
            pool: Pool::global().clone(),
            stats: DeltaStats::default(),
        }
    }

    /// Worker pool the flush fold is dispatched onto (one shard per
    /// lane; ignored below 2 touched groups). The emitted update stream
    /// is identical for any pool width.
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// Cumulative delta-fold statistics.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Fold one sub-group delta into `entry`.
    fn fold(
        entry: &mut AggregateEntry,
        id: AggregateId,
        added: Vec<FlexOfferId>,
        removed: Vec<FlexOffer>,
        slab: &OfferSlab,
    ) -> DeltaStats {
        let mut stats = DeltaStats {
            folded_out: removed.len() as u64,
            folded_in: added.len() as u64,
            emitted: 1,
            refolds: 0,
        };
        for offer in &removed {
            entry.remove(offer);
        }
        for id in added {
            entry.add(slab.get(id).expect("added offer is in the slab"));
        }
        debug_assert!(
            !entry.members.is_empty(),
            "sub-group upserts are never empty"
        );
        if entry.ops >= REFOLD_OPS {
            entry.refold(slab);
            stats.refolds += 1;
        }
        entry.compact();
        entry.refresh(id);
        #[cfg(debug_assertions)]
        entry.assert_matches_build(slab);
        stats
    }

    /// Consume sub-group deltas; maintain aggregates; emit aggregate
    /// updates. Folding is partitioned by group-id hash across the
    /// lanes of [`set_pool`](Self::set_pool)'s worker pool; results are
    /// merged (and fresh aggregate ids assigned) in sorted sub-group
    /// order, so the output is deterministic for any pool width.
    pub fn apply(
        &mut self,
        updates: Vec<SubgroupUpdate>,
        slab: &OfferSlab,
    ) -> Vec<AggregateUpdate> {
        // Take each touched sub-group's entry out of the store so the
        // workers own them exclusively.
        struct Work {
            subgroup: SubgroupId,
            id: Option<AggregateId>,
            entry: Box<AggregateEntry>,
            added: Vec<FlexOfferId>,
            removed: Vec<FlexOffer>,
        }
        let mut outcomes: Vec<(SubgroupId, Option<AggregateId>, Outcome)> = Vec::new();
        let mut work: Vec<Work> = Vec::new();
        for u in updates {
            match u {
                SubgroupUpdate::Removed { subgroup } => {
                    let id = self.by_subgroup.get(&subgroup).copied();
                    outcomes.push((subgroup, id, Outcome::Removed));
                }
                SubgroupUpdate::Upsert {
                    subgroup,
                    added,
                    removed,
                } => {
                    let id = self.by_subgroup.get(&subgroup).copied();
                    let entry = id
                        .and_then(|i| self.store.remove(&i))
                        .map(Box::new)
                        .unwrap_or_else(|| Box::new(AggregateEntry::empty()));
                    work.push(Work {
                        subgroup,
                        id,
                        entry,
                        added,
                        removed,
                    });
                }
            }
        }

        // Shard by group-id hash; all sub-groups of one group land on one
        // lane, preserving their relative order. Each shard sits behind a
        // mutex only so the lane that claims task `i` can take ownership
        // of shard `i`; there is no contention. One lane runs inline.
        let lanes = self.pool.width().min(work.len());
        let mut shards: Vec<Vec<Work>> = (0..lanes).map(|_| Vec::new()).collect();
        for w in work {
            let h = w.subgroup.group.value().wrapping_mul(0x9e37_79b9_7f4a_7c15);
            shards[(h >> 32) as usize % lanes].push(w);
        }
        let shards: Vec<Mutex<Vec<Work>>> = shards.into_iter().map(Mutex::new).collect();
        let folded: Vec<Vec<(SubgroupId, Option<AggregateId>, Outcome)>> =
            self.pool.run(lanes, |i| {
                let shard = std::mem::take(&mut *shards[i].lock().expect("unpoisoned"));
                shard
                    .into_iter()
                    .map(|w| {
                        let mut entry = w.entry;
                        let stats = Self::fold(
                            &mut entry,
                            w.id.unwrap_or(AggregateId(0)),
                            w.added,
                            w.removed,
                            slab,
                        );
                        (w.subgroup, w.id, Outcome::Upsert { entry, stats })
                    })
                    .collect()
            });
        outcomes.extend(folded.into_iter().flatten());

        // Deterministic merge: sorted sub-group order fixes both the
        // emission order and the allocation order of fresh aggregate ids.
        outcomes.sort_by_key(|(sg, _, _)| *sg);
        let mut out = Vec::with_capacity(outcomes.len());
        for (subgroup, id, outcome) in outcomes {
            match outcome {
                Outcome::Removed => {
                    if let Some(id) = id {
                        self.by_subgroup.remove(&subgroup);
                        self.store.remove(&id);
                        out.push(AggregateUpdate::Removed(id));
                    }
                }
                Outcome::Upsert { mut entry, stats } => {
                    let id = id.unwrap_or_else(|| {
                        let id = AggregateId(self.next_id);
                        self.next_id += 1;
                        self.by_subgroup.insert(subgroup, id);
                        id
                    });
                    entry.aggregate.id = id;
                    self.stats.absorb(stats);
                    out.push(AggregateUpdate::Upsert(entry.aggregate.clone()));
                    self.store.insert(id, *entry);
                }
            }
        }
        out
    }

    /// Iterate the maintained aggregates in ascending id order.
    pub fn aggregates(&self) -> impl Iterator<Item = &AggregatedFlexOffer> {
        self.store.values().map(|e| &e.aggregate)
    }

    /// Look up one aggregate.
    pub fn aggregate(&self, id: AggregateId) -> Option<&AggregatedFlexOffer> {
        self.store.get(&id).map(|e| &e.aggregate)
    }

    /// The member ids of one aggregate, ascending. Resolve values against
    /// the pipeline's offer slab.
    pub fn member_ids(&self, id: AggregateId) -> Option<&MemberIds> {
        self.store.get(&id).map(|e| &e.members)
    }

    /// Number of maintained aggregates.
    pub fn aggregate_count(&self) -> usize {
        self.store.len()
    }

    /// Disaggregate a scheduled aggregate into scheduled micro
    /// flex-offers (paper: "quite straightforward" because the
    /// disaggregation requirement holds by construction).
    ///
    /// The aggregate-level start shift `δ = schedule.start −
    /// aggregate.earliest_start` is applied to every member; per aggregate
    /// slot, the scheduled energy is positioned at the same fraction of
    /// each member's `[min, max]` range as it is within the aggregate's
    /// summed range.
    pub fn disaggregate(
        &self,
        id: AggregateId,
        schedule: &ScheduledFlexOffer,
        slab: &OfferSlab,
    ) -> Result<Vec<ScheduledFlexOffer>, DisaggregationError> {
        let entry = self
            .store
            .get(&id)
            .ok_or(DisaggregationError::UnknownAggregate(id))?;
        let agg = &entry.aggregate;
        let as_offer = agg
            .to_flex_offer()
            .map_err(DisaggregationError::InvalidSchedule)?;
        schedule
            .validate_against(&as_offer, 1e-6)
            .map_err(DisaggregationError::InvalidSchedule)?;

        let delta = (schedule.start - agg.earliest_start) as u32;
        // Per-aggregate-slot fill fraction.
        let fractions: Vec<f64> = agg
            .profile
            .slot_ranges()
            .zip(&schedule.slot_energies)
            .map(|(range, &e)| range.fraction_of(e))
            .collect();

        let mut out = Vec::with_capacity(entry.members.len());
        for mid in entry.members.iter() {
            let m = slab.get(mid).expect("member is in the slab");
            let offset = (m.earliest_start() - agg.earliest_start) as usize;
            let start = m.earliest_start() + delta;
            // Exact capacity: a receiver may keep this buffer as it is.
            let mut slot_energies = Vec::with_capacity(m.duration() as usize);
            slot_energies.extend(
                m.profile()
                    .slot_ranges()
                    .enumerate()
                    .map(|(k, r)| r.lerp(fractions[offset + k])),
            );
            let s = ScheduledFlexOffer {
                offer_id: m.id(),
                start,
                slot_energies,
            };
            debug_assert!(s.validate_against(m, 1e-6).is_ok());
            out.push(s);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{Energy, EnergyRange, GroupId};
    use proptest::prelude::*;

    fn member(id: u64, start: i64, tf: u32, slots: u32, lo: f64, hi: f64) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(start))
            .time_flexibility(tf)
            .profile(Profile::uniform(slots, EnergyRange::new(lo, hi).unwrap()))
            .build()
            .unwrap()
    }

    fn sg(g: u64, i: u32) -> SubgroupId {
        SubgroupId {
            group: GroupId(g),
            index: i,
        }
    }

    /// Stock the slab and produce the add-only delta for one sub-group.
    fn add_update(
        slab: &mut OfferSlab,
        subgroup: SubgroupId,
        members: Vec<FlexOffer>,
    ) -> SubgroupUpdate {
        let added = members.iter().map(|o| o.id()).collect();
        for o in members {
            slab.insert(o);
        }
        SubgroupUpdate::Upsert {
            subgroup,
            added,
            removed: vec![],
        }
    }

    fn aggregator_with(members: Vec<FlexOffer>) -> (NToOneAggregator, OfferSlab, AggregateId) {
        let mut slab = OfferSlab::new();
        let mut agg = NToOneAggregator::new();
        let u = add_update(&mut slab, sg(0, 0), members);
        let updates = agg.apply(vec![u], &slab);
        let id = match &updates[0] {
            AggregateUpdate::Upsert(a) => a.id,
            _ => panic!("expected upsert"),
        };
        (agg, slab, id)
    }

    #[test]
    fn incremental_add_reuses_aggregate_id() {
        let mut slab = OfferSlab::new();
        let mut agg = NToOneAggregator::new();
        let u = add_update(&mut slab, sg(0, 0), vec![member(1, 10, 4, 2, 1.0, 2.0)]);
        let u1 = agg.apply(vec![u], &slab);
        let u = add_update(&mut slab, sg(0, 0), vec![member(2, 10, 4, 2, 1.0, 2.0)]);
        let u2 = agg.apply(vec![u], &slab);
        let id1 = match &u1[0] {
            AggregateUpdate::Upsert(a) => a.id,
            _ => panic!(),
        };
        let id2 = match &u2[0] {
            AggregateUpdate::Upsert(a) => a.id,
            _ => panic!(),
        };
        assert_eq!(id1, id2);
        assert_eq!(agg.aggregate_count(), 1);
        assert_eq!(agg.aggregate(id1).unwrap().member_count(), 2);
    }

    #[test]
    fn removal_emits_removed() {
        let mut slab = OfferSlab::new();
        let mut agg = NToOneAggregator::new();
        let u = add_update(&mut slab, sg(0, 0), vec![member(1, 10, 4, 2, 1.0, 2.0)]);
        agg.apply(vec![u], &slab);
        let out = agg.apply(vec![SubgroupUpdate::Removed { subgroup: sg(0, 0) }], &slab);
        assert!(matches!(out[0], AggregateUpdate::Removed(_)));
        assert_eq!(agg.aggregate_count(), 0);
        // double removal is a no-op
        let out2 = agg.apply(vec![SubgroupUpdate::Removed { subgroup: sg(0, 0) }], &slab);
        assert!(out2.is_empty());
    }

    #[test]
    fn delta_remove_matches_rebuild() {
        // Fold three members in, remove the one that defines every min:
        // the delta-folded result must match a fresh build of the rest.
        let a = member(1, 8, 2, 4, 0.5, 3.0); // earliest start + min TF
        let b = member(2, 10, 6, 2, 1.0, 2.0);
        let c = member(3, 12, 9, 3, 0.0, 1.5);
        let (mut agg, mut slab, id) = aggregator_with(vec![a.clone(), b.clone(), c.clone()]);
        let removed = slab.remove(a.id()).unwrap();
        let out = agg.apply(
            vec![SubgroupUpdate::Upsert {
                subgroup: sg(0, 0),
                added: vec![],
                removed: vec![removed],
            }],
            &slab,
        );
        let folded = match &out[0] {
            AggregateUpdate::Upsert(a) => a.clone(),
            _ => panic!("expected upsert"),
        };
        let reference = AggregatedFlexOffer::build(id, &[b, c]);
        assert_eq!(folded.earliest_start, reference.earliest_start);
        assert_eq!(folded.latest_start, reference.latest_start);
        assert_eq!(folded.member_ids, reference.member_ids);
        assert_eq!(folded.duration(), reference.duration());
        for (x, y) in folded
            .profile
            .slot_ranges()
            .zip(reference.profile.slot_ranges())
        {
            assert!(x.min().approx_eq(y.min(), 1e-9) && x.max().approx_eq(y.max(), 1e-9));
        }
    }

    #[test]
    fn cancelling_removal_refolds_before_emitting() {
        // A member 1.8e19 times larger than the other absorbs its low
        // bits: subtracting it back out of the running sum would leave
        // 0 kWh where the other member's 10 kWh remain.
        let small = member(1, 10, 4, 1, 5.0, 10.0);
        let huge = member(2, 10, 4, 1, 5.0, 1.8e20);
        let (mut agg, mut slab, _) = aggregator_with(vec![small, huge.clone()]);
        let removed = slab.remove(huge.id()).unwrap();
        let out = agg.apply(
            vec![SubgroupUpdate::Upsert {
                subgroup: sg(0, 0),
                added: vec![],
                removed: vec![removed],
            }],
            &slab,
        );
        let AggregateUpdate::Upsert(folded) = &out[0] else {
            panic!("expected upsert");
        };
        let slot = folded.profile.slot_ranges().next().unwrap();
        assert_eq!((slot.min().kwh(), slot.max().kwh()), (5.0, 10.0));
    }

    #[test]
    fn pool_width_does_not_change_the_stream() {
        let mk = |width: usize| {
            let mut slab = OfferSlab::new();
            let mut agg = NToOneAggregator::new();
            agg.set_pool(Pool::new(width));
            let mut streams = Vec::new();
            // Ten groups, three rounds of updates.
            for round in 0..3u64 {
                let updates: Vec<SubgroupUpdate> = (0..10u64)
                    .map(|g| {
                        add_update(
                            &mut slab,
                            sg(g, 0),
                            vec![member(
                                1000 * round + g,
                                (10 + g) as i64,
                                4,
                                2,
                                1.0,
                                2.0 + round as f64,
                            )],
                        )
                    })
                    .collect();
                streams.push(agg.apply(updates, &slab));
            }
            streams
        };
        // Serial (width 1) is the reference; 2 and 8 lanes must emit a
        // bit-identical stream, fresh aggregate ids included.
        let reference = mk(1);
        assert_eq!(reference, mk(2));
        assert_eq!(reference, mk(8));
    }

    #[test]
    fn disaggregate_identical_members_splits_energy() {
        let (agg, slab, id) = aggregator_with(vec![
            member(1, 10, 4, 2, 1.0, 2.0),
            member(2, 10, 4, 2, 1.0, 2.0),
        ]);
        let macro_offer = agg.aggregate(id).unwrap().to_flex_offer().unwrap();
        // schedule at δ=2, all slots at 3.0 (i.e. fraction 0.5 of [2,4])
        let schedule = ScheduledFlexOffer {
            offer_id: macro_offer.id(),
            start: TimeSlot(12),
            slot_energies: vec![Energy::from_kwh(3.0); 2],
        };
        let micro = agg.disaggregate(id, &schedule, &slab).unwrap();
        assert_eq!(micro.len(), 2);
        for s in &micro {
            assert_eq!(s.start, TimeSlot(12));
            for e in &s.slot_energies {
                assert!(e.approx_eq(Energy::from_kwh(1.5), 1e-9));
            }
        }
    }

    #[test]
    fn disaggregate_respects_member_windows() {
        // members at different earliest starts (P2-style group)
        let (agg, slab, id) = aggregator_with(vec![
            member(1, 10, 4, 2, 1.0, 1.0),
            member(2, 12, 4, 2, 2.0, 2.0),
        ]);
        let a = agg.aggregate(id).unwrap();
        assert_eq!(a.earliest_start, TimeSlot(10));
        let macro_offer = a.to_flex_offer().unwrap();
        let schedule = ScheduledFlexOffer::at_min(&macro_offer, TimeSlot(13)); // δ=3
        let micro = agg.disaggregate(id, &schedule, &slab).unwrap();
        assert_eq!(micro[0].start, TimeSlot(13)); // 10 + 3
        assert_eq!(micro[1].start, TimeSlot(15)); // 12 + 3
        for (s, mid) in micro.iter().zip(agg.member_ids(id).unwrap().iter()) {
            s.validate_against(slab.get(mid).unwrap(), 1e-9).unwrap();
        }
    }

    #[test]
    fn disaggregate_rejects_bad_schedule() {
        let (agg, slab, id) = aggregator_with(vec![member(1, 10, 4, 2, 1.0, 2.0)]);
        let macro_offer = agg.aggregate(id).unwrap().to_flex_offer().unwrap();
        let bad_start = ScheduledFlexOffer::at_min(&macro_offer, TimeSlot(99));
        assert!(matches!(
            agg.disaggregate(id, &bad_start, &slab),
            Err(DisaggregationError::InvalidSchedule(_))
        ));
        let unknown = agg.disaggregate(AggregateId(999), &bad_start, &slab);
        assert!(matches!(
            unknown,
            Err(DisaggregationError::UnknownAggregate(_))
        ));
    }

    #[test]
    fn disaggregate_at_min_validates_members() {
        let (agg, slab, id) = aggregator_with(vec![
            member(1, 10, 6, 3, 0.5, 1.5),
            member(2, 11, 8, 2, 1.0, 4.0),
        ]);
        let macro_offer = agg.aggregate(id).unwrap().to_flex_offer().unwrap();
        let at_min = ScheduledFlexOffer::at_min(&macro_offer, TimeSlot(14));
        let micro = agg.disaggregate(id, &at_min, &slab).unwrap();
        for (s, mid) in micro.iter().zip(agg.member_ids(id).unwrap().iter()) {
            let m = slab.get(mid).unwrap();
            s.validate_against(m, 1e-9).unwrap();
            assert!(s
                .total_energy()
                .approx_eq(m.profile().min_total_energy(), 1e-9));
        }
    }

    proptest! {
        /// The disaggregation requirement (paper §4): for ANY valid
        /// schedule of the aggregate, disaggregation yields valid member
        /// schedules whose per-slot energies sum to the aggregate's.
        #[test]
        fn disaggregation_requirement_holds(
            starts in proptest::collection::vec(0i64..20, 1..6),
            tfs in proptest::collection::vec(0u32..12, 6),
            durs in proptest::collection::vec(1u32..5, 6),
            los in proptest::collection::vec(0.0f64..3.0, 6),
            widths in proptest::collection::vec(0.0f64..2.0, 6),
            delta_frac in 0.0f64..1.0,
            fill in 0.0f64..1.0,
        ) {
            let members: Vec<FlexOffer> = starts
                .iter()
                .enumerate()
                .map(|(i, &s)| member(
                    i as u64,
                    s,
                    tfs[i],
                    durs[i],
                    los[i],
                    los[i] + widths[i],
                ))
                .collect();
            let (agg, slab, id) = aggregator_with(members.clone());
            let a = agg.aggregate(id).unwrap();
            let macro_offer = a.to_flex_offer().unwrap();

            let delta = (a.time_flexibility() as f64 * delta_frac).floor() as u32;
            let start = a.earliest_start + delta;
            let schedule = ScheduledFlexOffer::at_fraction(&macro_offer, start, fill);
            schedule.validate_against(&macro_offer, 1e-9).unwrap();

            let micro = agg.disaggregate(id, &schedule, &slab).unwrap();
            prop_assert_eq!(micro.len(), members.len());

            // every member schedule valid
            for s in &micro {
                let m = members.iter().find(|m| m.id() == s.offer_id).unwrap();
                prop_assert!(s.validate_against(m, 1e-6).is_ok());
            }

            // per-slot energy conservation
            for (k, &agg_e) in schedule.slot_energies.iter().enumerate() {
                let t = schedule.start + k as u32;
                let sum: Energy = micro.iter().map(|s| s.energy_at(t)).sum();
                prop_assert!(
                    sum.approx_eq(agg_e, 1e-6),
                    "slot {} sum {} != aggregate {}", k, sum, agg_e
                );
            }
        }
    }
}
