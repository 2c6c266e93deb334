//! Federation determinism suite: the same seeded population, sliced
//! into 1, 2 or 4 regions and driven at pool widths 1, 2 and 8.
//!
//! What must hold:
//!
//! * **invariants per region, any split** — offer conservation
//!   (`submitted == assigned + fallbacks`), zero phantom offers, zero
//!   energy violations, imbalance reduced;
//! * **width invariance** — for a fixed split, the *entire*
//!   [`FederationReport`] (every counter, every per-region plan
//!   signature, the exchange accounting) is bit-identical at widths 1,
//!   2 and 8: parallelism changes wall-clock only;
//! * **solo-twin equality** — region `r` of a federation equals
//!   `simulate(Federation::region_config(&cfg, r))` run alone: the
//!   federation observes regions, it never perturbs them;
//! * **exchange health** — on a reliable bus the gateways converge and
//!   deltas actually flow.
//!
//! The release-scale rounds (the full 4k-prosumer population, and the
//! headline 4 × 250k configuration) are `#[ignore]`d; run them with
//! `cargo test --release -- --ignored`.

use mirabel_core::exec::Pool;
use mirabel_core::RegionId;
use mirabel_edms::federation::{Federation, FederationConfig, FederationReport};
use mirabel_edms::{simulate, SimulationConfig};

/// One region's shape when the fixed population is split `regions`
/// ways: `total_brps / regions` BRPs, same prosumers per BRP.
fn split_shape(total_brps: usize, regions: usize, per_brp: usize, pool: Pool) -> FederationConfig {
    assert_eq!(total_brps % regions, 0, "split must be exact");
    FederationConfig {
        regions,
        sim: SimulationConfig {
            brps: total_brps / regions,
            prosumers_per_brp: per_brp,
            cycles: 2,
            offers_per_prosumer: 1,
            use_tso: true,
            budget_evaluations: 2_000,
            seed: 2_024,
            pool,
            ..SimulationConfig::default()
        },
        ..FederationConfig::default()
    }
}

fn assert_invariants(report: &FederationReport, label: &str) {
    for (r, region) in report.regions.iter().enumerate() {
        assert_eq!(
            region.assigned + region.fallbacks,
            region.offers_submitted,
            "{label}: offer conservation broke in region {r}"
        );
        assert_eq!(
            region.phantom_offers, 0,
            "{label}: phantom offers in region {r}"
        );
        assert_eq!(
            region.energy_violations, 0,
            "{label}: energy violations in region {r}"
        );
        assert!(
            region.imbalance_after <= region.imbalance_before,
            "{label}: scheduling made imbalance worse in region {r}"
        );
    }
}

/// The split/width matrix at CI scale: every split of the population
/// holds the invariants, and within a split the full federation report
/// is invariant to pool width.
#[test]
fn splits_hold_invariants_and_width_never_changes_a_report() {
    for &regions in &[1usize, 2, 4] {
        let per_width: Vec<FederationReport> = [1usize, 2, 8]
            .iter()
            .map(|&w| Federation::run(split_shape(4, regions, 32, Pool::new(w))))
            .collect();
        assert_invariants(&per_width[0], &format!("{regions}-region split"));
        assert_eq!(
            per_width[0], per_width[1],
            "{regions}-region split: width 1 vs 2 diverged"
        );
        assert_eq!(
            per_width[1], per_width[2],
            "{regions}-region split: width 2 vs 8 diverged"
        );
    }
    // Intra-region byte metering (off above) counts the same at any width.
    let metered = |width| {
        Federation::run(FederationConfig {
            meter_bytes: true,
            ..split_shape(4, 4, 32, Pool::new(width))
        })
    };
    let narrow = metered(1);
    assert!(narrow.intra_region_bytes() > 0);
    assert_eq!(narrow, metered(8), "metered 4-region split: width 1 vs 8");
}

/// Fault isolation without chaos: every region inside a federation is
/// bit-identical to its solo twin, at any width.
#[test]
fn federated_regions_equal_their_solo_twins() {
    let cfg = split_shape(4, 4, 32, Pool::new(4));
    let report = Federation::run(cfg.clone());
    for r in 0..4 {
        let twin = simulate(Federation::region_config(&cfg, RegionId(r as u64)));
        assert_eq!(
            report.regions[r as usize], twin,
            "region {r} diverged from its solo twin"
        );
    }
}

/// The exchange layer on a reliable bus: deltas flow (each cycle's
/// export snapshot churns the published set) and every gateway's
/// imported views converge onto its peers' exports.
#[test]
fn exchange_converges_and_carries_traffic() {
    let report = Federation::run(split_shape(4, 4, 32, Pool::new(2)));
    assert!(report.exchange.converged, "reliable bus must converge");
    assert!(
        report.exchange.deltas_published > 0,
        "exports must churn across cycles: {:?}",
        report.exchange
    );
    assert!(
        report.exchange.bus.bytes_sent > 0,
        "the bus is always byte-metered"
    );
    assert_eq!(report.exchange.streams.resyncs_requested, 0);
}

/// The full 4k-prosumer population (4 BRPs × 1000) as 1, 2 and 4
/// regions at width 8: invariants per split, plus width 1-vs-8 equality
/// on the 4-region split. Debug-mode runtime is ~10s per federation
/// run, hence `--ignored`.
#[test]
#[ignore = "4k-prosumer population: ~1 min, run with --ignored (release recommended)"]
fn four_thousand_prosumer_population_splits_cleanly() {
    for &regions in &[1usize, 2, 4] {
        let report = Federation::run(split_shape(4, regions, 1_000, Pool::new(8)));
        assert_invariants(&report, &format!("4k population, {regions} regions"));
        let total: usize = report.regions.iter().map(|r| r.offers_submitted).sum();
        assert_eq!(total, 8_000, "4k prosumers × 2 cycles × 1 offer");
    }
    let narrow = Federation::run(split_shape(4, 4, 1_000, Pool::new(1)));
    let wide = Federation::run(split_shape(4, 4, 1_000, Pool::new(8)));
    assert_eq!(narrow, wide, "4-region 4k split: width 1 vs 8 diverged");
}

/// The headline configuration: 4 regions × 250k prosumers — the same
/// million-prosumer population the monolithic hierarchy's release smoke
/// drives, sharded. Correctness probes plus the exchange-traffic bound;
/// throughput is the layered benchmark's `fed_100k` workload, the
/// traffic itself `federation.exchange_byte_ratio` / `.deltas_published`.
#[test]
#[ignore = "release-scale: 4 × 250k prosumers, run with --release -- --ignored"]
fn four_region_million_prosumer_round() {
    let report = Federation::run(FederationConfig {
        regions: 4,
        sim: SimulationConfig {
            brps: 2,
            prosumers_per_brp: 125_000,
            cycles: 1,
            offers_per_prosumer: 1,
            use_tso: true,
            budget_evaluations: 2_000,
            refine_fraction: 0.05,
            seed: 1_000_000,
            pool: Pool::global().clone(),
            ..SimulationConfig::default()
        },
        meter_bytes: true,
        ..FederationConfig::default()
    });
    assert_invariants(&report, "4 × 250k");
    let total: usize = report.regions.iter().map(|r| r.offers_submitted).sum();
    assert_eq!(total, 1_000_000);
    assert!(report.exchange.converged);
    let ratio = report.exchange_byte_ratio();
    assert!(
        ratio < 0.01,
        "cross-border traffic must stay under 1% of intra-region bytes, got {ratio}"
    );
}
