//! Strongly-typed identifiers.
//!
//! Every entity class gets its own id newtype so that a flex-offer id can
//! never be confused with, say, a node id at a call site.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Raw numeric value.
            #[inline]
            pub fn value(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

define_id!(
    /// Identifier of a flex-offer (micro or scheduled).
    FlexOfferId,
    "fo"
);
define_id!(
    /// Identifier of a market actor (prosumer, BRP, TSO).
    ActorId,
    "actor"
);
define_id!(
    /// Identifier of an EDMS node.
    NodeId,
    "node"
);
define_id!(
    /// Identifier of a similarity group inside the group-builder.
    GroupId,
    "grp"
);
define_id!(
    /// Identifier of an aggregated (macro) flex-offer.
    AggregateId,
    "agg"
);
define_id!(
    /// Identifier of a federation region (one national TSO hierarchy).
    ///
    /// Region ids are pure metadata: they ride envelopes and WAL event
    /// records (tenant-registry style) for isolation, recovery and chaos
    /// targeting, but never influence planning or RNG behaviour inside a
    /// region — a region run solo is bit-identical to the same region run
    /// inside a federation.
    RegionId,
    "region"
);

impl RegionId {
    /// The implicit region of a single-hierarchy deployment.
    pub const DEFAULT: RegionId = RegionId(0);
}

impl Default for RegionId {
    fn default() -> Self {
        RegionId::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(FlexOfferId(7).to_string(), "fo7");
        assert_eq!(ActorId(1).to_string(), "actor1");
        assert_eq!(NodeId(2).to_string(), "node2");
        assert_eq!(GroupId(3).to_string(), "grp3");
        assert_eq!(AggregateId(4).to_string(), "agg4");
        assert_eq!(RegionId(5).to_string(), "region5");
    }

    #[test]
    fn region_default_is_zero() {
        assert_eq!(RegionId::default(), RegionId::DEFAULT);
        assert_eq!(RegionId::DEFAULT.value(), 0);
    }
}
