//! Update streams between the aggregation sub-components (paper §4).
//!
//! "It accepts a set of flex-offer updates … and produces a set of
//! aggregated flex-offer updates. … the group-builder internally maintains
//! similar flex-offer groups and produces group-updates … the bin-packer
//! … produce\[s\] sub-group updates … the produced sub-group updates are
//! issued to the n-to-1 aggregator."
//!
//! ## Delta streams
//!
//! Group and sub-group updates carry member **deltas**, not member
//! snapshots: `added` lists the ids of offers that joined (their values
//! live in the pipeline's [`OfferSlab`](crate::slab::OfferSlab)), and
//! `removed` carries the **owned** previous values of offers that left —
//! ownership moves down the stream, so a removal is never cloned, and the
//! n-to-1 aggregator has the exact old value it must subtract from its
//! delta-folded bounds. An offer whose attributes changed in place
//! appears in both lists (old value out, new id in).

use crate::aggregate::AggregatedFlexOffer;
use mirabel_core::codec::{CodecError, Wire};
use mirabel_core::{FlexOffer, FlexOfferId, GroupId};

/// Input to the pipeline: offer arrivals and removals (accepted or
/// expiring offers — "those with approaching assignment before time").
#[derive(Debug, Clone, PartialEq)]
pub enum FlexOfferUpdate {
    /// A new offer entered the pool.
    Insert(FlexOffer),
    /// An offer left the pool (expired, withdrawn, or executed).
    Delete(FlexOfferId),
}

impl Wire for FlexOfferUpdate {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FlexOfferUpdate::Insert(offer) => {
                out.push(0);
                offer.encode(out);
            }
            FlexOfferUpdate::Delete(id) => {
                out.push(1);
                id.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let (&tag, rest) = buf.split_first().ok_or(CodecError::UnexpectedEof)?;
        *buf = rest;
        match tag {
            0 => Ok(FlexOfferUpdate::Insert(FlexOffer::decode(buf)?)),
            1 => Ok(FlexOfferUpdate::Delete(FlexOfferId::decode(buf)?)),
            other => Err(CodecError::InvalidTag {
                what: "FlexOfferUpdate",
                tag: u64::from(other),
            }),
        }
    }
}

/// Output of the group-builder: which similarity groups changed, as
/// member deltas.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupUpdate {
    /// A group was created or its membership changed.
    Upsert {
        /// The group.
        group: GroupId,
        /// Offers that joined, in ascending id order; resolve against the
        /// pipeline's offer slab.
        added: Vec<FlexOfferId>,
        /// Previous values of offers that left (owned, in ascending id
        /// order) — what downstream delta-folds subtract.
        removed: Vec<FlexOffer>,
    },
    /// A group became empty and was removed.
    Removed {
        /// The group.
        group: GroupId,
    },
}

/// Identifier of a bin-packed sub-group: the parent group plus an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubgroupId {
    /// Parent similarity group.
    pub group: GroupId,
    /// Sub-group index within the parent.
    pub index: u32,
}

impl std::fmt::Display for SubgroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.group, self.index)
    }
}

/// Output of the bin-packer: which bounded sub-groups changed, as member
/// deltas (same conventions as [`GroupUpdate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SubgroupUpdate {
    /// A sub-group was created or changed.
    Upsert {
        /// The sub-group.
        subgroup: SubgroupId,
        /// Ids of offers that joined this sub-group.
        added: Vec<FlexOfferId>,
        /// Previous values of offers that left this sub-group.
        removed: Vec<FlexOffer>,
    },
    /// A sub-group disappeared.
    Removed {
        /// The sub-group.
        subgroup: SubgroupId,
    },
}

/// Output of the n-to-1 aggregator: created/changed/deleted aggregates.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateUpdate {
    /// Aggregate created or recomputed.
    Upsert(AggregatedFlexOffer),
    /// Aggregate removed.
    Removed(mirabel_core::AggregateId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flex_offer_update_wire_roundtrip() {
        use mirabel_core::{EnergyRange, Profile, TimeSlot};
        let offer = FlexOffer::builder(5, 2)
            .earliest_start(TimeSlot(100))
            .time_flexibility(8)
            .assignment_before(TimeSlot(90))
            .profile(Profile::uniform(4, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap();
        for u in [
            FlexOfferUpdate::Insert(offer),
            FlexOfferUpdate::Delete(FlexOfferId(77)),
        ] {
            let back = FlexOfferUpdate::from_bytes(&u.to_bytes()).unwrap();
            assert_eq!(back, u);
        }
        assert!(FlexOfferUpdate::from_bytes(&[9]).is_err());
    }

    #[test]
    fn subgroup_id_display() {
        let id = SubgroupId {
            group: GroupId(3),
            index: 2,
        };
        assert_eq!(id.to_string(), "grp3#2");
    }

    #[test]
    fn subgroup_id_ordering() {
        let a = SubgroupId {
            group: GroupId(1),
            index: 5,
        };
        let b = SubgroupId {
            group: GroupId(2),
            index: 0,
        };
        assert!(a < b);
    }
}
