//! Aggregation quality metrics: the quantities plotted in Figure 5.

/// Snapshot of the aggregation state quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationReport {
    /// Micro flex-offers currently aggregated.
    pub offer_count: usize,
    /// Macro (aggregated) flex-offers maintained.
    pub aggregate_count: usize,
    /// Sum of member time flexibilities before aggregation (slots).
    pub total_time_flexibility: u64,
    /// Sum over members of the time flexibility they retain inside their
    /// aggregate (the aggregate's minimum-member flexibility).
    pub retained_time_flexibility: u64,
}

impl AggregationReport {
    /// Compression ratio: micro offers per macro offer (Figure 5(a)).
    pub fn compression_ratio(&self) -> f64 {
        if self.aggregate_count == 0 {
            if self.offer_count == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.offer_count as f64 / self.aggregate_count as f64
        }
    }

    /// Total time flexibility lost to aggregation, in slots.
    pub fn time_flexibility_loss(&self) -> u64 {
        self.total_time_flexibility
            .saturating_sub(self.retained_time_flexibility)
    }

    /// Loss of time flexibility per flex-offer (Figure 5(c)).
    pub fn loss_per_offer(&self) -> f64 {
        if self.offer_count == 0 {
            0.0
        } else {
            self.time_flexibility_loss() as f64 / self.offer_count as f64
        }
    }

    /// Fraction of the original time flexibility retained.
    pub fn retention(&self) -> f64 {
        if self.total_time_flexibility == 0 {
            1.0
        } else {
            self.retained_time_flexibility as f64 / self.total_time_flexibility as f64
        }
    }
}

/// Counters of the n-to-1 aggregator's delta-fold machinery: how much
/// work the incremental path did and how often the drift-bounding exact
/// re-fold kicked in. Cheap observability for the 10⁶-offer ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Members folded *into* aggregates by delta updates.
    pub folded_in: u64,
    /// Members folded *out of* aggregates by delta updates.
    pub folded_out: u64,
    /// Exact re-folds performed to squash accumulated float drift.
    pub refolds: u64,
    /// Aggregate snapshots emitted.
    pub emitted: u64,
}

impl DeltaStats {
    /// Merge another counter set into this one.
    pub fn absorb(&mut self, other: DeltaStats) {
        self.folded_in += other.folded_in;
        self.folded_out += other.folded_out;
        self.refolds += other.refolds;
        self.emitted += other.emitted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_stats_absorb() {
        let mut a = DeltaStats {
            folded_in: 3,
            folded_out: 1,
            refolds: 0,
            emitted: 2,
        };
        a.absorb(DeltaStats {
            folded_in: 2,
            folded_out: 2,
            refolds: 1,
            emitted: 1,
        });
        assert_eq!(a.folded_in, 5);
        assert_eq!(a.folded_out, 3);
        assert_eq!(a.refolds, 1);
        assert_eq!(a.emitted, 3);
    }

    #[test]
    fn ratios() {
        let r = AggregationReport {
            offer_count: 100,
            aggregate_count: 25,
            total_time_flexibility: 1000,
            retained_time_flexibility: 900,
        };
        assert_eq!(r.compression_ratio(), 4.0);
        assert_eq!(r.time_flexibility_loss(), 100);
        assert_eq!(r.loss_per_offer(), 1.0);
        assert!((r.retention() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_state() {
        let r = AggregationReport {
            offer_count: 0,
            aggregate_count: 0,
            total_time_flexibility: 0,
            retained_time_flexibility: 0,
        };
        assert_eq!(r.compression_ratio(), 1.0);
        assert_eq!(r.loss_per_offer(), 0.0);
        assert_eq!(r.retention(), 1.0);
    }

    #[test]
    fn saturating_loss() {
        // retained can never exceed total in practice; guard anyway
        let r = AggregationReport {
            offer_count: 1,
            aggregate_count: 1,
            total_time_flexibility: 5,
            retained_time_flexibility: 7,
        };
        assert_eq!(r.time_flexibility_loss(), 0);
    }
}
