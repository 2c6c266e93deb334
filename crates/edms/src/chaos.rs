//! Chaos campaigns: scripted failure storms with an invariant checker.
//!
//! The paper claims the EDMS must keep operating over unreliable
//! wide-area links; this module *attacks* that claim instead of assuming
//! it. A campaign drives [`simulate`] twice from the same seed — once
//! through a scripted [`ChaosPlan`] (loss storms, delay/reorder bursts,
//! partition-then-heal, prosumer churn) and once over a reliable
//! network — and then checks:
//!
//! * **offer conservation** — every submitted offer terminates exactly
//!   once (assignment or open-contract fallback), chaos or not;
//! * **no phantom offers** — nothing stays pooled at the TSO without a
//!   backing BRP export once the dust settles;
//! * **energy conservation** — no committed schedule violates its
//!   offer's energy bounds;
//! * **convergence** — after the last chaos phase plus a quiet period,
//!   the per-cycle plan signatures are **bit-identical** to the no-chaos
//!   run's: the sequenced wire, resync snapshots, dead-letter replay and
//!   deadline expiry must jointly erase every trace of the storm, not
//!   merely survive it;
//! * **islanded imbalance bound** — every window a BRP balanced locally
//!   (TSO link `Down`) must commit at a cost no worse than the
//!   local-only optimum it found at prepare time: islanding
//!   degrades service to the local optimum, never below it.
//!
//! The comparison is meaningful because everything stochastic outside
//! the network — offer generation, forecasts, churn — draws from RNG
//! streams independent of delivery outcomes, and every planner derives
//! its scheduling seeds from the window being planned rather than from
//! its history (see [`crate::runtime::PlannerNode`]'s life-cycle).

use crate::comm::{ChaosPhase, ChaosPlan, FailureModel};
use crate::federation::{Federation, FederationConfig, FederationReport};
use crate::simulation::{simulate, SimulationConfig, SimulationReport};
use mirabel_core::{NodeId, RegionId, TimeSlot, SLOTS_PER_DAY};
use std::ops::Range;

/// The slot range covered by simulation cycles `[start_cycle, end_cycle)`.
pub fn cycle_span(start_cycle: usize, end_cycle: usize) -> (TimeSlot, TimeSlot) {
    let s = SLOTS_PER_DAY as i64;
    (
        TimeSlot(start_cycle as i64 * s),
        TimeSlot(end_cycle as i64 * s),
    )
}

/// A loss storm: drop each message with probability `p` during cycles
/// `[start_cycle, end_cycle)`.
pub fn loss_storm(start_cycle: usize, end_cycle: usize, p: f64) -> ChaosPhase {
    let (start, end) = cycle_span(start_cycle, end_cycle);
    ChaosPhase::new(start, end, FailureModel::drop(p))
}

/// A delay burst: fixed `delay` plus up to `jitter` extra slots of random
/// delay (which reorders) during cycles `[start_cycle, end_cycle)`.
pub fn delay_burst(start_cycle: usize, end_cycle: usize, delay: u32, jitter: u32) -> ChaosPhase {
    let (start, end) = cycle_span(start_cycle, end_cycle);
    ChaosPhase::new(start, end, FailureModel::delay(delay).jittered_by(jitter))
}

/// A partition: the `a ↔ b` link is cut (both directions) during cycles
/// `[start_cycle, end_cycle)` and heals afterwards, replaying the
/// retained envelopes in their original stream order.
pub fn partition_between(start_cycle: usize, end_cycle: usize, a: NodeId, b: NodeId) -> ChaosPhase {
    let (start, end) = cycle_span(start_cycle, end_cycle);
    ChaosPhase::new(start, end, FailureModel::reliable()).with_partitions(vec![(a, b)])
}

/// A crash-restart: `node` loses its entire in-memory state at the start
/// of `cycle` and is rebuilt from its write-ahead log (snapshot + tail
/// replay, then a resync snapshot to its parent) before the round is
/// pumped. Requires the simulation to run with WALs attached
/// ([`crate::simulation::SimulationConfig::wal`]).
///
/// The phase is **zero-length** (`start == end`): a crash is an instant,
/// not a windowed disturbance, so it never overrides the baseline
/// failure model and the quiet-tail overlap check treats it as ending
/// the moment it fires.
pub fn crash_of(cycle: usize, node: NodeId) -> ChaosPhase {
    let (start, _) = cycle_span(cycle, cycle + 1);
    ChaosPhase::new(start, start, FailureModel::reliable()).with_crashes(vec![node])
}

/// A chaos campaign: a simulation whose [`ChaosPlan`] ends at least
/// `quiet_cycles` before the run does.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The simulation to drive — including its chaos plan and churn.
    pub sim: SimulationConfig,
    /// Trailing cycles guaranteed chaos-free. The campaign compares the
    /// last `quiet_cycles - 1` cycles' plan signatures against the
    /// baseline run; the first quiet cycle is the settle cycle, where
    /// resync round-trips and deadline expiry finish erasing the storm.
    /// Values below 2 are treated as 2.
    pub quiet_cycles: usize,
}

/// One checked invariant that did not hold.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The chaos plan extends into the configured quiet tail — the
    /// campaign cannot judge convergence.
    ChaosOverlapsQuietTail,
    /// Submitted ≠ assigned + fallbacks: an offer vanished or terminated
    /// twice.
    OfferNotConserved {
        /// Offers submitted over the run.
        submitted: usize,
        /// Offers that reached a terminal state.
        terminal: usize,
    },
    /// Unexpired TSO pool entries with no backing BRP export.
    PhantomOffers(usize),
    /// Committed schedules violating their offer's energy bounds.
    EnergyViolations(usize),
    /// A quiet-tail cycle's plan signature differs from the baseline
    /// run's.
    Diverged {
        /// The differing cycle (0-based).
        cycle: usize,
        /// The chaos run's signature for that cycle.
        chaos: u64,
        /// The baseline run's signature for that cycle.
        baseline: u64,
    },
    /// An islanded planning window committed at a cost above the
    /// local-only optimum its BRP prepared — degraded-mode repair made
    /// the imbalance worse instead of bounding it.
    IslandedImbalanceExceeded {
        /// First slot of the offending islanded window.
        window_start: TimeSlot,
        /// Cost the islanded commit realized.
        committed: f64,
        /// The local-only optimum found at prepare time.
        prepared: f64,
    },
}

/// Outcome of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The run through the chaos plan.
    pub chaos: SimulationReport,
    /// The same seed over a reliable network (chaos plan and baseline
    /// failure model stripped; churn kept — it is workload, not
    /// network).
    pub baseline: SimulationReport,
    /// Number of trailing cycles whose signatures were compared.
    pub compared_cycles: usize,
    /// Every invariant that did not hold (empty = the system self-healed
    /// completely).
    pub violations: Vec<InvariantViolation>,
}

impl CampaignReport {
    /// Whether the chaos run self-healed completely.
    pub fn converged(&self) -> bool {
        self.violations.is_empty()
    }

    /// A printable multi-line summary (used by the examples).
    pub fn summary(&self) -> String {
        let c = &self.chaos;
        let n = c.network;
        let mut out = format!(
            "chaos run: {} offers, {} assigned, {} fallbacks, {} replans, {} crash-restarts\n\
             network:   {} sent, {} enqueued, {} delivered, {} dropped, {} duplicated,\n\
             \x20          {} dead-lettered, {} replayed, {} evicted\n\
             invariants: {} phantom offers, {} energy violations\n\
             islanding:  {} islanded windows, {} provisional adopted, {} superseded\n\
             convergence: last {} cycle signatures vs no-chaos baseline — ",
            c.offers_submitted,
            c.assigned,
            c.fallbacks,
            c.replans,
            c.crashes,
            n.sent,
            n.enqueued,
            n.delivered,
            n.dropped,
            n.duplicated,
            n.dead_lettered,
            n.replayed,
            n.dropped_dead_letters,
            c.phantom_offers,
            c.energy_violations,
            c.islanded.len(),
            c.provisional_adopted,
            c.provisional_superseded,
            self.compared_cycles,
        );
        if self.converged() {
            out.push_str("bit-identical");
        } else {
            out.push_str(&format!("{} violation(s):", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("\n  - {v:?}"));
            }
        }
        out
    }
}

/// Run a chaos campaign: the scripted run, its reliable twin, and the
/// invariant checks.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let quiet = cfg.quiet_cycles.max(2);
    let cycles = cfg.sim.cycles;
    let mut violations = Vec::new();

    let quiet_start = cycle_span(cycles.saturating_sub(quiet), cycles).0;
    if cfg.sim.chaos.phases.iter().any(|p| p.end > quiet_start) {
        violations.push(InvariantViolation::ChaosOverlapsQuietTail);
    }

    let chaos = simulate(cfg.sim.clone());
    let baseline = simulate(SimulationConfig {
        chaos: ChaosPlan::reliable(),
        failure: FailureModel::reliable(),
        ..cfg.sim.clone()
    });

    // Convergence: the quiet tail minus the settle cycle must hash
    // bit-identically to the baseline run.
    let compared_cycles = (quiet - 1).min(cycles);
    violations.extend(check(&chaos, &baseline, cycles - compared_cycles..cycles));

    CampaignReport {
        chaos,
        baseline,
        compared_cycles,
        violations,
    }
}

/// The invariants every campaign run is held to — offer conservation, no
/// phantoms, energy bounds, the islanded imbalance bound — plus
/// convergence: `run`'s plan signature must equal `twin`'s on every
/// cycle in `cycles`.
fn check(
    run: &SimulationReport,
    twin: &SimulationReport,
    cycles: Range<usize>,
) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    let terminal = run.assigned + run.fallbacks;
    if terminal != run.offers_submitted {
        violations.push(InvariantViolation::OfferNotConserved {
            submitted: run.offers_submitted,
            terminal,
        });
    }
    if run.phantom_offers > 0 {
        violations.push(InvariantViolation::PhantomOffers(run.phantom_offers));
    }
    if run.energy_violations > 0 {
        violations.push(InvariantViolation::EnergyViolations(run.energy_violations));
    }
    // Islanded windows: the committed cost is bounded by the local-only
    // optimum found at prepare time (incremental repair only improves).
    for round in &run.islanded {
        if let (Some(prepared), Some(committed)) = (round.prepared_cost, round.committed_cost) {
            if committed > prepared + 1e-6 {
                violations.push(InvariantViolation::IslandedImbalanceExceeded {
                    window_start: round.window_start,
                    committed,
                    prepared,
                });
            }
        }
    }
    for cycle in cycles {
        let (c, b) = (run.plan_signatures[cycle], twin.plan_signatures[cycle]);
        if c != b {
            violations.push(InvariantViolation::Diverged {
                cycle,
                chaos: c,
                baseline: b,
            });
        }
    }
    violations
}

/// A federation campaign: storm exactly one region of a federation and
/// prove **fault isolation** on top of the usual invariants.
#[derive(Debug, Clone)]
pub struct FederationCampaignConfig {
    /// The federation to drive. Its `sim.chaos` plan is re-scoped to
    /// [`FederationCampaignConfig::storm_region`] by the campaign.
    pub federation: FederationConfig,
    /// The single region the chaos plan targets.
    pub storm_region: RegionId,
    /// Trailing chaos-free cycles (semantics as
    /// [`CampaignConfig::quiet_cycles`]).
    pub quiet_cycles: usize,
}

/// Outcome of one federation campaign.
#[derive(Debug, Clone)]
pub struct FederationCampaignReport {
    /// The federated run with the storm scoped to one region.
    pub federation: FederationReport,
    /// Per-region violations. Untouched regions are held to the
    /// strictest standard — their **entire report** must equal the solo
    /// twin's, surfaced as [`InvariantViolation::Diverged`] per
    /// differing cycle (or cycle 0 for any non-signature field) — while
    /// the stormed region is judged like a normal campaign: invariants
    /// plus quiet-tail convergence against its reliable twin.
    pub violations: Vec<(RegionId, InvariantViolation)>,
    /// Number of trailing cycles compared for the stormed region.
    pub compared_cycles: usize,
}

impl FederationCampaignReport {
    /// Whether every region self-healed and isolation held.
    pub fn converged(&self) -> bool {
        self.violations.is_empty()
    }

    /// A printable multi-line summary (used by the federation example).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, region) in self.federation.regions.iter().enumerate() {
            out.push_str(&format!(
                "region {i}: {} offers, {} assigned, {} fallbacks, {} dropped, {} replayed\n",
                region.offers_submitted,
                region.assigned,
                region.fallbacks,
                region.network.dropped,
                region.network.replayed,
            ));
        }
        let x = &self.federation.exchange;
        out.push_str(&format!(
            "exchange: {} delta envelopes, {} snapshots, {:.1} kWh matched, converged: {}\n",
            x.deltas_published, x.snapshots_served, x.matched_kwh, x.converged,
        ));
        if self.converged() {
            out.push_str("isolation + convergence: clean");
        } else {
            out.push_str(&format!("{} violation(s):", self.violations.len()));
            for (r, v) in &self.violations {
                out.push_str(&format!("\n  - {r}: {v:?}"));
            }
        }
        out
    }
}

/// Run a federation campaign: scope the chaos plan to one region, run
/// the federation, and check each region against its solo twin.
///
/// The twin of region `r` is `simulate(Federation::region_config(cfg,
/// r))` — the *exact* configuration the federation hands that region,
/// including the region-scoped chaos. For untouched regions the scoped
/// plan resolves to [`ChaosPlan::reliable`], so twin equality is the
/// fault-isolation proof: a storm inside region `k` must not move one
/// byte of any other region's report. The stormed region's twin keeps
/// the storm, so it is additionally compared against a *reliable* twin
/// on the quiet tail, exactly like [`run_campaign`].
pub fn run_federation_campaign(cfg: &FederationCampaignConfig) -> FederationCampaignReport {
    let quiet = cfg.quiet_cycles.max(2);
    let mut violations: Vec<(RegionId, InvariantViolation)> = Vec::new();

    let mut fed_cfg = cfg.federation.clone();
    fed_cfg.sim.chaos = fed_cfg.sim.chaos.clone().in_region(cfg.storm_region);

    let cycles = fed_cfg.sim.cycles;
    let quiet_start = cycle_span(cycles.saturating_sub(quiet), cycles).0;
    if fed_cfg.sim.chaos.phases.iter().any(|p| p.end > quiet_start) {
        violations.push((cfg.storm_region, InvariantViolation::ChaosOverlapsQuietTail));
    }

    let federation = Federation::run(fed_cfg.clone());

    let compared_cycles = (quiet - 1).min(cycles);
    for (i, report) in federation.regions.iter().enumerate() {
        let region = RegionId(i as u64);
        let region_cfg = Federation::region_config(&fed_cfg, region);
        let found = if region == cfg.storm_region {
            // The stormed region converges like a normal campaign: its
            // quiet tail must match a reliable twin bit-for-bit.
            let reliable = simulate(SimulationConfig {
                chaos: ChaosPlan::reliable(),
                failure: FailureModel::reliable(),
                ..region_cfg
            });
            check(report, &reliable, cycles - compared_cycles..cycles)
        } else {
            // Fault isolation: the untouched region's FULL report —
            // every counter, every cycle's signature — must equal the
            // solo twin's.
            let twin = simulate(region_cfg);
            let mut found = check(report, &twin, 0..cycles);
            if *report != twin && report.plan_signatures == twin.plan_signatures {
                // Signatures matched but some other field differs —
                // still an isolation breach; flag it on cycle 0.
                found.push(InvariantViolation::Diverged {
                    cycle: 0,
                    chaos: 0,
                    baseline: 0,
                });
            }
            found
        };
        violations.extend(found.into_iter().map(|v| (region, v)));
    }

    FederationCampaignReport {
        federation,
        violations,
        compared_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sim(cycles: usize) -> SimulationConfig {
        SimulationConfig {
            brps: 2,
            prosumers_per_brp: 4,
            cycles,
            offers_per_prosumer: 1,
            use_tso: true,
            budget_evaluations: 2_000,
            seed: 42,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn loss_storm_campaign_converges() {
        let report = run_campaign(&CampaignConfig {
            sim: SimulationConfig {
                chaos: ChaosPlan::reliable().phase(loss_storm(1, 2, 0.5)),
                ..small_sim(5)
            },
            quiet_cycles: 3,
        });
        assert!(
            report.converged(),
            "loss storm must self-heal:\n{}",
            report.summary()
        );
        assert!(report.chaos.network.dropped > 0, "storm must actually drop");
    }

    #[test]
    fn crash_restart_campaign_converges() {
        let report = run_campaign(&CampaignConfig {
            sim: SimulationConfig {
                chaos: ChaosPlan::reliable().phase(crash_of(2, NodeId(1))),
                wal: Some(crate::wal::WalConfig::default()),
                ..small_sim(5)
            },
            quiet_cycles: 3,
        });
        assert_eq!(report.chaos.crashes, 1, "the crash must actually fire");
        assert_eq!(report.baseline.crashes, 0, "the twin never crashes");
        assert!(
            report.converged(),
            "crash-restart must self-heal via WAL recovery:\n{}",
            report.summary()
        );
    }

    /// Detector horizons that trip inside a two-cycle partition:
    /// ~1.5 cycles of silence is `Down`. Retransmits are pushed out of
    /// the run so the test isolates the islanding path.
    fn tight_link_health() -> crate::wire::LinkHealthConfig {
        crate::wire::LinkHealthConfig {
            suspect_after: 100,
            down_after: 150,
            retransmit_base: 10_000,
            max_retransmits: 0,
        }
    }

    #[test]
    fn islanding_campaign_with_tso_crash_and_partition_converges() {
        // The full degraded-mode loop under one campaign: a two-cycle
        // BRP↔TSO partition islands BRP 1 (local provisional balancing),
        // the heal reconciles its ledger, and a later TSO crash-restart
        // recovers from the WAL and re-anchors every BRP — after which
        // the quiet tail must be bit-identical to the never-faulted twin.
        let tso = NodeId(9_999);
        let report = run_campaign(&CampaignConfig {
            sim: SimulationConfig {
                chaos: ChaosPlan::reliable()
                    .phase(partition_between(1, 3, NodeId(1), tso))
                    .phase(crash_of(4, tso)),
                wal: Some(crate::wal::WalConfig::default()),
                link_health: tight_link_health(),
                ..small_sim(8)
            },
            quiet_cycles: 3,
        });
        assert_eq!(report.chaos.crashes, 1, "the TSO crash must fire");
        assert!(
            !report.chaos.islanded.is_empty(),
            "the partition must island BRP 1:\n{}",
            report.summary()
        );
        assert!(
            report.chaos.islanded.iter().any(|r| r.assignments > 0),
            "islanded rounds must produce provisional assignments"
        );
        assert!(
            report.chaos.provisional_adopted + report.chaos.provisional_superseded > 0,
            "the heal must audit the provisional ledger:\n{}",
            report.summary()
        );
        assert!(
            report.baseline.islanded.is_empty(),
            "the twin never islands"
        );
        assert!(
            report.converged(),
            "islanded BRP must reconcile and the TSO re-anchor:\n{}",
            report.summary()
        );
    }

    #[test]
    fn tso_crash_without_wal_is_amnesia_but_still_converges() {
        // No WAL: the crashed TSO restarts cold. The BRP resync protocol
        // plus per-cycle offer expiry must still erase the damage by the
        // quiet tail.
        let report = run_campaign(&CampaignConfig {
            sim: SimulationConfig {
                chaos: ChaosPlan::reliable().phase(crash_of(2, NodeId(9_999))),
                ..small_sim(6)
            },
            quiet_cycles: 3,
        });
        assert_eq!(report.chaos.crashes, 1);
        assert!(
            report.converged(),
            "cold TSO restart must self-heal:\n{}",
            report.summary()
        );

        // A 2-level region has no TSO: the same crash executes nothing.
        let two_level = |chaos| {
            simulate(SimulationConfig {
                use_tso: false,
                chaos,
                ..small_sim(6)
            })
        };
        let crashed = two_level(ChaosPlan::reliable().phase(crash_of(2, NodeId(9_999))));
        assert_eq!(crashed.crashes, 0);
        assert_eq!(crashed, two_level(ChaosPlan::reliable()));
    }

    #[test]
    fn chaos_overlapping_quiet_tail_is_flagged() {
        let report = run_campaign(&CampaignConfig {
            sim: SimulationConfig {
                // The storm runs into the final cycle: no quiet period.
                chaos: ChaosPlan::reliable().phase(loss_storm(0, 5, 0.4)),
                ..small_sim(5)
            },
            quiet_cycles: 2,
        });
        assert!(report
            .violations
            .contains(&InvariantViolation::ChaosOverlapsQuietTail));
    }

    #[test]
    fn no_chaos_campaign_is_trivially_identical() {
        let report = run_campaign(&CampaignConfig {
            sim: small_sim(3),
            quiet_cycles: 2,
        });
        assert!(report.converged(), "{}", report.summary());
        assert_eq!(report.chaos, report.baseline);
    }

    #[test]
    fn cycle_span_maps_cycles_to_slots() {
        let (a, b) = cycle_span(1, 3);
        assert_eq!(a, TimeSlot(SLOTS_PER_DAY as i64));
        assert_eq!(b, TimeSlot(3 * SLOTS_PER_DAY as i64));
    }

    #[test]
    fn check_flags_an_islanded_commit_above_its_prepared_cost() {
        let mut run = simulate(small_sim(1));
        let twin = run.clone();
        run.islanded.push(crate::runtime::IslandedRound {
            window_start: TimeSlot(0),
            eligible: 1,
            prepared_cost: Some(10.0),
            committed_cost: Some(10.0 + 1e-3),
            assignments: 1,
        });
        assert!(matches!(
            check(&run, &twin, 0..1).as_slice(),
            [InvariantViolation::IslandedImbalanceExceeded { .. }]
        ));
    }

    #[test]
    fn federation_campaign_isolates_a_regional_storm() {
        let report = run_federation_campaign(&FederationCampaignConfig {
            federation: FederationConfig {
                regions: 3,
                sim: SimulationConfig {
                    chaos: ChaosPlan::reliable().phase(loss_storm(1, 2, 0.5)),
                    ..small_sim(5)
                },
                ..FederationConfig::default()
            },
            storm_region: RegionId(1),
            quiet_cycles: 3,
        });
        assert!(
            report.converged(),
            "storm in region 1 must stay in region 1 and self-heal:\n{}",
            report.summary()
        );
        // The storm must actually have dropped traffic in region 1 and
        // nowhere else.
        assert!(report.federation.regions[1].network.dropped > 0);
        assert_eq!(report.federation.regions[0].network.dropped, 0);
        assert_eq!(report.federation.regions[2].network.dropped, 0);

        // A federated island: region 1's BRP 1 loses its TSO for two
        // cycles, then the TSO crash-restarts. The stormed region is held
        // to the islanded bound; the others never island.
        let tso = NodeId(9_999);
        let report = run_federation_campaign(&FederationCampaignConfig {
            federation: FederationConfig {
                regions: 3,
                sim: SimulationConfig {
                    chaos: ChaosPlan::reliable()
                        .phase(partition_between(1, 3, NodeId(1), tso))
                        .phase(crash_of(4, tso)),
                    wal: Some(crate::wal::WalConfig::default()),
                    link_health: tight_link_health(),
                    ..small_sim(8)
                },
                ..FederationConfig::default()
            },
            storm_region: RegionId(1),
            quiet_cycles: 3,
        });
        assert!(
            report.converged(),
            "islanded region 1 must reconcile and stay isolated:\n{}",
            report.summary()
        );
        let regions = &report.federation.regions;
        assert!(!regions[1].islanded.is_empty(), "BRP 1 must island");
        assert!(regions[0].islanded.is_empty());
        assert!(regions[2].islanded.is_empty());
    }

    #[test]
    fn federation_campaign_flags_storm_overlapping_quiet_tail() {
        let report = run_federation_campaign(&FederationCampaignConfig {
            federation: FederationConfig {
                regions: 2,
                sim: SimulationConfig {
                    chaos: ChaosPlan::reliable().phase(loss_storm(0, 5, 0.4)),
                    ..small_sim(5)
                },
                ..FederationConfig::default()
            },
            storm_region: RegionId(0),
            quiet_cycles: 2,
        });
        assert!(report
            .violations
            .contains(&(RegionId(0), InvariantViolation::ChaosOverlapsQuietTail)));
    }
}
