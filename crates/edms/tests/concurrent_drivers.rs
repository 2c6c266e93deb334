//! The concurrent-driver determinism suite.
//!
//! `simulate()` drives every node of a hierarchy level concurrently on
//! the shared [`Pool`] (PR 7's parallel level pump). The contract is the
//! workspace-wide one: **pool width never changes output** — a width-8
//! run must be bit-identical to the width-1 (serial) run, plan
//! signatures included, with chaos raging or not. This suite pins that
//! at widths 1/2/8, proves the chaos-convergence invariants of the
//! campaign harness survive concurrent drivers, and asserts the pump
//! dispatches real pool batches with zero inline-serial fallbacks (the
//! silent serialization that motivated the submission-queue executor).

use mirabel_core::exec::Pool;
use mirabel_core::NodeId;
use mirabel_edms::chaos::{
    delay_burst, loss_storm, partition_between, run_campaign, CampaignConfig,
};
use mirabel_edms::{simulate, ChaosPlan, FailureModel, SimulationConfig};

const TSO: NodeId = NodeId(9_999);
const BRP0: NodeId = NodeId(1);

/// A hierarchy busy enough that every wave has multi-node levels,
/// refinement replans, message delays, and churn — the paths the
/// parallel pump must not perturb.
fn busy_three_level(width: usize) -> SimulationConfig {
    SimulationConfig {
        brps: 4,
        prosumers_per_brp: 6,
        cycles: 4,
        offers_per_prosumer: 2,
        use_tso: true,
        failure: FailureModel::delay(2),
        churn_fraction: 0.10,
        budget_evaluations: 3_000,
        seed: 7_007,
        pool: Pool::new(width),
        ..SimulationConfig::default()
    }
}

#[test]
fn plan_signatures_bit_identical_at_widths_1_2_8() {
    let serial = simulate(busy_three_level(1));
    assert!(serial.assigned > 0, "baseline assigned nothing: {serial:?}");
    assert!(!serial.plan_signatures.is_empty());
    for width in [2, 8] {
        let concurrent = simulate(busy_three_level(width));
        assert_eq!(
            serial.plan_signatures, concurrent.plan_signatures,
            "plan signatures diverged at pool width {width}"
        );
        assert_eq!(
            serial, concurrent,
            "simulation report diverged at pool width {width}"
        );
    }
}

#[test]
fn two_level_mode_is_width_independent_too() {
    // No TSO: the BRP level carries the live plans and the commit wave,
    // so the parallel pump drives level 2 end to end.
    let mk = |width| {
        simulate(SimulationConfig {
            brps: 3,
            prosumers_per_brp: 5,
            cycles: 3,
            seed: 99,
            pool: Pool::new(width),
            ..SimulationConfig::default()
        })
    };
    let serial = mk(1);
    assert_eq!(serial, mk(2));
    assert_eq!(serial, mk(8));
}

#[test]
fn chaos_campaign_converges_under_concurrent_drivers() {
    // The PR 6 flagship invariants — offer conservation, no phantom
    // offers, no energy violations, quiet-tail signatures equal to the
    // no-chaos twin — must hold with every level driven concurrently,
    // and the whole campaign report must match the serial run's.
    let campaign = |width| CampaignConfig {
        sim: SimulationConfig {
            brps: 3,
            prosumers_per_brp: 4,
            cycles: 8,
            offers_per_prosumer: 2,
            use_tso: true,
            budget_evaluations: 3_000,
            seed: 2_026,
            churn_fraction: 0.10,
            chaos: ChaosPlan::reliable()
                .phase(loss_storm(1, 2, 0.35))
                .phase(delay_burst(2, 3, 2, 3))
                .phase(partition_between(3, 4, BRP0, TSO)),
            pool: Pool::new(width),
            ..SimulationConfig::default()
        },
        quiet_cycles: 4,
    };
    let concurrent = run_campaign(&campaign(4));
    assert!(
        concurrent.converged(),
        "campaign did not self-heal under concurrent drivers:\n{}",
        concurrent.summary()
    );
    assert!(
        concurrent.chaos.network.dropped > 0,
        "storm dropped nothing"
    );

    let serial = run_campaign(&campaign(1));
    assert_eq!(
        serial.chaos, concurrent.chaos,
        "chaos run diverged between serial and concurrent drivers"
    );
    assert_eq!(serial.baseline, concurrent.baseline);
    assert_eq!(serial.violations, concurrent.violations);
}

#[test]
fn concurrent_pump_dispatches_without_inline_fallbacks() {
    // The executor's queue replaced the run-lock whose busy path silently
    // serialized concurrent calls. A full simulation must dispatch real
    // batches (level pumps, prosumer chunks, nested repair chains) and
    // record zero inline-serial fallbacks.
    let pool = Pool::new(8);
    let report = simulate(SimulationConfig {
        pool: pool.clone(),
        ..busy_three_level(8)
    });
    assert!(report.assigned > 0);
    let stats = pool.stats();
    assert!(
        stats.batches_run > 0,
        "the pump dispatched no pool batches: {stats:?}"
    );
    assert!(stats.batch_tasks >= stats.batches_run);
    assert_eq!(
        stats.inline_serial_fallbacks, 0,
        "concurrent drivers fell back to inline-serial: {stats:?}"
    );
}

/// EU-scale smoke (`--ignored`; run in release): one full planning round
/// over a million prosumers — 8 BRPs × 125k — through the concurrent
/// level pump on the global (core-sized) pool. Correctness probes only;
/// throughput is the layered benchmark's `round_ms_p50` / `offers_per_s`
/// (`steady_10k`) and `exec.width_speedup`.
#[test]
#[ignore = "release-scale: ~1M prosumers, run with --ignored"]
fn million_prosumer_round_survives_concurrent_drivers() {
    let report = simulate(SimulationConfig {
        brps: 8,
        prosumers_per_brp: 125_000,
        cycles: 1,
        offers_per_prosumer: 1,
        use_tso: true,
        budget_evaluations: 2_000,
        refine_fraction: 0.05,
        seed: 1_000_000,
        pool: Pool::global().clone(),
        ..SimulationConfig::default()
    });
    assert_eq!(report.offers_submitted, 1_000_000);
    assert_eq!(
        report.assigned + report.fallbacks,
        report.offers_submitted,
        "offer conservation broke at scale"
    );
    assert!(report.assigned > 0, "nothing assigned at scale");
    assert_eq!(report.energy_violations, 0);
    assert_eq!(report.phantom_offers, 0);
    assert!(report.imbalance_after <= report.imbalance_before);
}
