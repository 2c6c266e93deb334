//! The four workloads: which hierarchy each one builds, and why.
//!
//! A workload is a shape (levels, population, scheduler, failure
//! script) plus `cycles` rounds per rep. How many reps a run times is
//! decided by the run's time budget, never by the workload.

use mirabel_core::exec::Pool;
use mirabel_core::NodeId;
use mirabel_edms::chaos::{crash_of, delay_burst, loss_storm, partition_between};
use mirabel_edms::{
    ChaosPlan, FailureModel, FederationConfig, LinkHealthConfig, SchedulerKind, SimulationConfig,
    WalConfig,
};

/// The TSO's node id in every region (fixed by `RegionSim::new`).
pub const TSO: NodeId = NodeId(9_999);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The common-case round.
    Steady10k,
    /// Scheduling-bound rounds.
    SchedDeep,
    /// Durable hierarchy under a scripted storm.
    DurableStorm,
    /// The scale point: four regions under a federation.
    Fed100k,
}

/// Every workload, in the order they are run and printed.
pub const WORKLOADS: [Workload; 4] = [
    Workload::Steady10k,
    Workload::SchedDeep,
    Workload::DurableStorm,
    Workload::Fed100k,
];

impl Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady10k => "steady_10k",
            Workload::SchedDeep => "sched_deep",
            Workload::DurableStorm => "durable_storm",
            Workload::Fed100k => "fed_100k",
        }
    }

    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Steady10k => {
                "Common-case 3-level round at 10k prosumers: BRP ingest, disaggregation, comm \
                 and the prosumer wave do the work; schedule and wal almost none."
            }
            Workload::SchedDeep => {
                "2-level, 2k prosumers, Hybrid scheduler at 20k evaluations: schedule and \
                 exec::Pool dominate, ingest and comm are small; a scheduler change shows here."
            }
            Workload::DurableStorm => {
                "steady_10k plus WALs, duplication, loss storm, delays, a partition and two \
                 crash-restarts: wal append and recover, wire resync, dedup and islanding run."
            }
            Workload::Fed100k => {
                "Federation of 4 regions x 25k prosumers: working set beyond cache and whole \
                 regions in parallel, so pool width and serial phases weigh differently."
            }
        }
    }

    /// Regions run side by side under a `Federation` (1 = a plain
    /// `RegionSim`).
    pub fn regions(self) -> usize {
        match self {
            Workload::Fed100k => 4,
            _ => 1,
        }
    }

    /// Timed reps in a run of `seconds`. The rates are what the 2-core
    /// reference box completes at pool width 1, so a run times about
    /// `seconds` there; fixing the rep count (not the wall time) keeps
    /// every count and ratio a function of the seed alone.
    pub fn reps(self, seconds: f64) -> usize {
        let per_20s = match self {
            Workload::Steady10k => 24.0,
            Workload::SchedDeep => 7.0,
            Workload::DurableStorm => 8.0,
            Workload::Fed100k => 3.0,
        };
        ((per_20s * seconds / 20.0).round() as usize).max(1)
    }

    /// Seconds one host-speed probe sample takes between this
    /// workload's rounds on the reference box when the host is quiet:
    /// the scale its round timings are reported at. It differs between
    /// workloads because a round leaves more or less of the probe's table
    /// in the cache. `None` where round time does not follow the probe:
    /// `sched_deep`'s scheduler loops run in a core's private caches
    /// (slope 0.1 against the probe, where the other three read 0.55 and
    /// more), so its timings stay as measured.
    pub fn probe_reference_s(self) -> Option<f64> {
        match self {
            Workload::Steady10k => Some(0.006_7),
            Workload::SchedDeep => None,
            Workload::DurableStorm => Some(0.006_5),
            Workload::Fed100k => Some(0.009_3),
        }
    }

    /// Whether the script injects faults. Then `assigned_frac < 1` is
    /// the designed degradation; on every other workload it must be 1.
    pub fn stormy(self) -> bool {
        self == Workload::DurableStorm
    }

    /// The region shape for `seed` on `pool`. `quick` divides the
    /// population by ten (smoke runs; never a baseline).
    pub fn region(self, seed: u64, pool: &Pool, quick: bool) -> SimulationConfig {
        let scale = if quick { 10 } else { 1 };
        let steady = SimulationConfig {
            brps: 4,
            prosumers_per_brp: 2_500 / scale,
            cycles: 6,
            offers_per_prosumer: 1,
            failure: FailureModel::reliable(),
            seed,
            use_tso: true,
            scheduler: SchedulerKind::Greedy,
            budget_evaluations: 2_000,
            refine_fraction: 0.1,
            repair_chains: 4,
            pool: pool.clone(),
            ..SimulationConfig::default()
        };
        match self {
            Workload::Steady10k => steady,
            Workload::SchedDeep => SimulationConfig {
                prosumers_per_brp: 500 / scale,
                use_tso: false,
                scheduler: SchedulerKind::Hybrid,
                budget_evaluations: 20_000,
                ..steady
            },
            Workload::DurableStorm => SimulationConfig {
                cycles: 12,
                wal: Some(WalConfig::default()),
                failure: FailureModel::reliable().duplicated(0.02),
                // Trips inside the two-cycle partition and never
                // retransmits: a lost flush heals by resync alone.
                link_health: LinkHealthConfig {
                    suspect_after: 100,
                    down_after: 150,
                    retransmit_base: 10_000,
                    max_retransmits: 0,
                },
                // Cycles 9-11 stay quiet so every rep ends converged.
                chaos: ChaosPlan::reliable()
                    .phase(delay_burst(1, 2, 2, 4))
                    .phase(loss_storm(2, 4, 0.3))
                    .phase(partition_between(4, 7, NodeId(1), TSO))
                    .phase(crash_of(7, NodeId(2)))
                    .phase(crash_of(8, TSO)),
                ..steady
            },
            Workload::Fed100k => SimulationConfig {
                brps: 2,
                prosumers_per_brp: 12_500 / scale,
                refine_fraction: 0.05,
                ..steady
            },
        }
    }

    /// The federation around [`Workload::region`] (`regions() > 1` only).
    pub fn federation(self, seed: u64, pool: &Pool, quick: bool) -> FederationConfig {
        FederationConfig {
            regions: self.regions(),
            sim: self.region(seed, pool, quick),
            ..FederationConfig::default()
        }
    }
}
