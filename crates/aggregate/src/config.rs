//! Aggregation thresholds and bin-packer bounds (paper §4).

/// User-defined aggregation thresholds: "two flex-offers are allowed to be
/// aggregated together only if their attribute values (e.g., duration,
/// start after time) deviate by no more than user-specified thresholds."
///
/// A tolerance of `t` slots means attribute values are bucketed into
/// cells of width `t + 1`, so any two offers in the same group deviate by
/// at most `t` slots in that attribute.
///
/// The presets `p0`…`p3` are the four parameter combinations of the
/// Figure 5 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationParams {
    /// Maximum deviation of *earliest start* ("Start After Time") within a
    /// group, in slots.
    pub start_after_tolerance: u32,
    /// Maximum deviation of *time flexibility* within a group, in slots.
    pub time_flexibility_tolerance: u32,
    /// Optional maximum deviation of profile duration within a group;
    /// `None` leaves duration unconstrained.
    pub duration_tolerance: Option<u32>,
}

impl AggregationParams {
    /// P0: Start After Time and Time Flexibility must be equal.
    pub fn p0() -> AggregationParams {
        AggregationParams {
            start_after_tolerance: 0,
            time_flexibility_tolerance: 0,
            duration_tolerance: None,
        }
    }

    /// P1: small Time Flexibility variation allowed, identical Start After
    /// Time required.
    pub fn p1(tf_tolerance: u32) -> AggregationParams {
        AggregationParams {
            start_after_tolerance: 0,
            time_flexibility_tolerance: tf_tolerance,
            duration_tolerance: None,
        }
    }

    /// P2: small Start After Time variation allowed, identical Time
    /// Flexibility required.
    pub fn p2(sa_tolerance: u32) -> AggregationParams {
        AggregationParams {
            start_after_tolerance: sa_tolerance,
            time_flexibility_tolerance: 0,
            duration_tolerance: None,
        }
    }

    /// P3: small variation of both attributes allowed.
    pub fn p3(sa_tolerance: u32, tf_tolerance: u32) -> AggregationParams {
        AggregationParams {
            start_after_tolerance: sa_tolerance,
            time_flexibility_tolerance: tf_tolerance,
            duration_tolerance: None,
        }
    }
}

impl Default for AggregationParams {
    fn default() -> AggregationParams {
        AggregationParams::p0()
    }
}

/// Bin-packer bounds (paper §4): "lower and upper bounds on one of the
/// following aggregated flex-offer properties: (1) the number of
/// flex-offers included into a single aggregate, (2) the amount of energy
/// (or time flexibility) an aggregated flex-offer has to offer".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BinPackerConfig {
    /// Maximum members per aggregate.
    pub max_members: Option<usize>,
    /// Minimum members per aggregate (smaller remainders are still
    /// emitted, flagged as underfull, so no offer is dropped).
    pub min_members: Option<usize>,
    /// Maximum total maximum-energy (kWh) per aggregate.
    pub max_energy_kwh: Option<f64>,
}

impl BinPackerConfig {
    /// Bound only the member count.
    pub fn max_members(n: usize) -> BinPackerConfig {
        BinPackerConfig {
            max_members: Some(n),
            ..BinPackerConfig::default()
        }
    }

    /// Bound only the aggregate energy.
    pub fn max_energy(kwh: f64) -> BinPackerConfig {
        BinPackerConfig {
            max_energy_kwh: Some(kwh),
            ..BinPackerConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_semantics() {
        assert_eq!(AggregationParams::p0().start_after_tolerance, 0);
        assert_eq!(AggregationParams::p0().time_flexibility_tolerance, 0);
        let p1 = AggregationParams::p1(8);
        assert_eq!(p1.start_after_tolerance, 0);
        assert_eq!(p1.time_flexibility_tolerance, 8);
        let p2 = AggregationParams::p2(8);
        assert_eq!(p2.start_after_tolerance, 8);
        assert_eq!(p2.time_flexibility_tolerance, 0);
        let p3 = AggregationParams::p3(4, 8);
        assert_eq!(p3.start_after_tolerance, 4);
        assert_eq!(p3.time_flexibility_tolerance, 8);
    }

    #[test]
    fn binpacker_builders() {
        let c = BinPackerConfig::max_members(100);
        assert_eq!(c.max_members, Some(100));
        assert_eq!(c.max_energy_kwh, None);
        let e = BinPackerConfig::max_energy(500.0);
        assert_eq!(e.max_energy_kwh, Some(500.0));
    }
}
