//! Chaos campaigns through the full three-level hierarchy.
//!
//! The flagship robustness test: scripted storms (≥30% loss, delay
//! bursts, BRP↔TSO partition-then-heal, 10% prosumer churn) driven
//! through [`simulate`] must leave **no trace** — zero invariant
//! violations and, after a quiet period, plan signatures bit-identical
//! to a twin run that never saw the storm. Plus property tests over
//! random chaos plans and a pool-width determinism check.

use mirabel_aggregate::{AggregationParams, FlexOfferUpdate};
use mirabel_core::exec::Pool;
use mirabel_core::{
    EnergyRange, FlexOffer, FlexOfferId, NodeId, Profile, ScheduledFlexOffer, TimeSlot,
};
use mirabel_edms::chaos::{
    crash_of, delay_burst, loss_storm, partition_between, run_campaign, CampaignConfig,
};
use mirabel_edms::{
    simulate, BrpConfig, BrpNode, ChaosPlan, Envelope, FailureModel, LinkHealthConfig, Message,
    NodeWal, RuntimeConfig, SimulationConfig, TsoNode, WalConfig,
};
use mirabel_schedule::MarketPrices;
use proptest::prelude::*;

/// The simulation's fixed node ids: BRP `b` is `NodeId(1 + b)`, the TSO
/// is `NodeId(9_999)`.
const TSO: NodeId = NodeId(9_999);
const BRP0: NodeId = NodeId(1);

fn three_level(cycles: usize, seed: u64) -> SimulationConfig {
    SimulationConfig {
        brps: 3,
        prosumers_per_brp: 4,
        cycles,
        offers_per_prosumer: 2,
        use_tso: true,
        budget_evaluations: 3_000,
        seed,
        ..SimulationConfig::default()
    }
}

/// The acceptance scenario: a 35% loss storm, a delay/reorder burst, a
/// BRP↔TSO partition that heals, and 10% join/leave churn throughout —
/// followed by a quiet tail that must be bit-identical to the no-chaos
/// twin.
#[test]
fn scripted_campaign_self_heals_bit_identically() {
    let plan = ChaosPlan::reliable()
        .phase(loss_storm(1, 2, 0.35))
        .phase(delay_burst(2, 3, 2, 3))
        .phase(partition_between(3, 4, BRP0, TSO));
    let report = run_campaign(&CampaignConfig {
        sim: SimulationConfig {
            chaos: plan,
            churn_fraction: 0.10,
            ..three_level(8, 2024)
        },
        quiet_cycles: 4,
    });

    // The storm must actually have raged…
    let n = report.chaos.network;
    assert!(
        n.dropped > 0,
        "loss storm dropped nothing:\n{}",
        report.summary()
    );
    assert!(n.dead_lettered > 0, "partition/churn dead-lettered nothing");
    assert!(n.replayed > 0, "healing replayed nothing");

    // …and still be erased completely.
    assert!(
        report.converged(),
        "campaign did not self-heal:\n{}",
        report.summary()
    );
}

/// The durability acceptance scenario: two different BRPs crash-restart
/// mid-campaign (one of them during a loss storm), losing every byte of
/// in-memory state. Each rebuilds from its write-ahead log — snapshot +
/// tail replay, with `snapshot_every: 8` forcing real compaction mid-run
/// — re-registers (dead letters replay), and re-anchors the TSO through
/// an unsolicited resync snapshot. The quiet tail must be bit-identical
/// to the twin that never crashed.
#[test]
fn crash_campaign_recovers_bit_identically() {
    let plan = ChaosPlan::reliable()
        .phase(loss_storm(1, 2, 0.3))
        .phase(crash_of(2, BRP0))
        .phase(crash_of(3, NodeId(2)));
    let report = run_campaign(&CampaignConfig {
        sim: SimulationConfig {
            chaos: plan,
            churn_fraction: 0.10,
            wal: Some(WalConfig { snapshot_every: 8 }),
            ..three_level(7, 99)
        },
        quiet_cycles: 3,
    });
    assert_eq!(report.chaos.crashes, 2, "both crashes must fire");
    assert_eq!(report.baseline.crashes, 0, "the twin never crashes");
    assert!(
        report.chaos.network.replayed > 0,
        "re-registration replayed nothing:\n{}",
        report.summary()
    );
    assert!(
        report.converged(),
        "crash recovery left a trace:\n{}",
        report.summary()
    );
}

/// Duplicate delivery is filtered at every level (sequenced wire at the
/// TSO, dedup guard at the BRPs, idempotent prosumer transitions): a
/// heavily-duplicating network produces the exact plans of a reliable
/// one.
#[test]
fn duplication_is_invisible_to_outcomes() {
    let seed = 77;
    let noisy = simulate(SimulationConfig {
        failure: FailureModel::reliable().duplicated(0.5),
        ..three_level(4, seed)
    });
    let clean = simulate(three_level(4, seed));

    assert!(
        noisy.network.duplicated > 0,
        "nothing duplicated: {noisy:?}"
    );
    assert_eq!(noisy.plan_signatures, clean.plan_signatures);
    assert_eq!(noisy.assigned, clean.assigned);
    assert_eq!(noisy.fallbacks, clean.fallbacks);
    assert_eq!(noisy.assigned + noisy.fallbacks, noisy.offers_submitted);
    assert_eq!(noisy.phantom_offers, 0);
    assert_eq!(noisy.energy_violations, 0);
}

/// Journaling is observably inert: with nothing crashing, a run whose
/// nodes append to write-ahead logs — compacting after every event,
/// every sixteenth, or never within the run — reports exactly what the
/// run without logs reports, with and without a TSO.
#[test]
fn wal_is_invisible_to_outcomes() {
    for use_tso in [false, true] {
        let run = |wal: Option<WalConfig>| {
            simulate(SimulationConfig {
                prosumers_per_brp: 12,
                use_tso,
                churn_fraction: 0.10,
                wal,
                ..three_level(3, 42)
            })
        };
        let bare = run(None);
        assert!(bare.assigned > 0, "nothing assigned: {bare:?}");
        for snapshot_every in [1, 16, 256] {
            assert_eq!(
                run(Some(WalConfig { snapshot_every })),
                bare,
                "use_tso {use_tso}, snapshot_every {snapshot_every}"
            );
        }
    }
}

/// The same chaos seed must produce bit-identical campaign reports at
/// any worker-pool width — chaos recovery is deterministic, not merely
/// eventually consistent.
#[test]
fn chaos_campaign_deterministic_across_pool_widths() {
    let campaign = |pool: Pool| {
        run_campaign(&CampaignConfig {
            sim: SimulationConfig {
                chaos: ChaosPlan::reliable()
                    .phase(loss_storm(1, 2, 0.4))
                    .phase(partition_between(2, 3, BRP0, TSO)),
                churn_fraction: 0.10,
                pool,
                ..three_level(6, 1312)
            },
            quiet_cycles: 3,
        })
    };
    let narrow = campaign(Pool::new(1));
    let wide = campaign(Pool::new(8));
    assert_eq!(narrow, wide);
    assert!(narrow.converged(), "{}", narrow.summary());
}

/// Detector horizons that trip inside a two-cycle BRP↔TSO partition;
/// retransmits pushed beyond the run so the islanding path is isolated.
fn tight_link_health() -> LinkHealthConfig {
    LinkHealthConfig {
        suspect_after: 100,
        down_after: 150,
        retransmit_base: 10_000,
        max_retransmits: 0,
    }
}

/// The islanded-mode degraded loop — partition-driven islanding with
/// provisional local balancing, heal-time reconciliation, and a
/// WAL-backed TSO crash-restart — must be bit-identical at any worker
/// pool width, at the full campaign-report level (islanded rounds,
/// adopt/supersede audit counts, plan signatures, everything).
#[test]
fn islanding_campaign_deterministic_across_pool_widths() {
    let campaign = |pool: Pool| {
        run_campaign(&CampaignConfig {
            sim: SimulationConfig {
                chaos: ChaosPlan::reliable()
                    .phase(partition_between(1, 3, BRP0, TSO))
                    .phase(crash_of(4, TSO)),
                wal: Some(WalConfig { snapshot_every: 16 }),
                link_health: tight_link_health(),
                pool,
                ..three_level(8, 512)
            },
            quiet_cycles: 3,
        })
    };
    let narrow = campaign(Pool::new(1));
    let dual = campaign(Pool::new(2));
    let wide = campaign(Pool::new(8));
    assert!(
        !narrow.chaos.islanded.is_empty(),
        "the partition must island BRP 1:\n{}",
        narrow.summary()
    );
    assert_eq!(narrow.chaos.crashes, 1, "the TSO crash must fire");
    assert_eq!(narrow, dual);
    assert_eq!(narrow, wide);
    assert!(narrow.converged(), "{}", narrow.summary());

    // The limit case: horizons that trip on the first poll island every
    // BRP in every window (BRP 1 is cut off for good on top), so all
    // balancing is local. Flexibility is then assigned provisionally,
    // not dropped.
    let cut_off = |pool: Pool| {
        simulate(SimulationConfig {
            chaos: ChaosPlan::reliable().phase(partition_between(0, 8, BRP0, TSO)),
            link_health: LinkHealthConfig {
                suspect_after: 0,
                down_after: 0,
                ..tight_link_health()
            },
            pool,
            ..three_level(8, 512)
        })
    };
    let islanded = cut_off(Pool::new(1));
    assert_eq!(islanded, cut_off(Pool::new(8)));
    assert_eq!(
        islanded.islanded.len(),
        3 * 8,
        "a local pass per BRP and cycle"
    );
    assert!(islanded.islanded.iter().all(|round| round.assignments > 0));
    assert!(islanded.assigned > 0);
    assert_eq!(
        islanded.assigned + islanded.fallbacks,
        islanded.offers_submitted
    );
    assert_eq!(islanded.phantom_offers + islanded.energy_violations, 0);
}

/// The crash scaffold both node-level twin checks share: feed `events`
/// into a WAL-backed node and its WAL-less twin, and `crash` the former —
/// only its WAL store survives, `recover` rebuilds it — right before
/// event `crash_at` (after the last one when `crash_at` is past the
/// end). Returns the rebuilt node and the twin.
fn crash_mid_stream<N, E>(
    (mut node, mut twin): (N, N),
    events: &[E],
    crash_at: usize,
    apply: impl Fn(&mut N, usize, &E),
    crash: impl Fn(N) -> N,
) -> (N, N) {
    let crash_at = crash_at.min(events.len());
    for (i, event) in events.iter().enumerate() {
        if i == crash_at {
            node = crash(node);
        }
        apply(&mut node, i, event);
        apply(&mut twin, i, event);
    }
    if crash_at == events.len() {
        node = crash(node);
    }
    (node, twin)
}

/// One step of the TSO twin's input: an envelope off the (lossy,
/// duplicating) BRP → TSO wire, or a full planning round.
#[derive(Debug, Clone)]
enum TsoStep {
    Deliver(Envelope),
    PlanRound,
}

/// Macro offer `slot` of BRP `brp`, in export-id space. Slots 0..=4 fit
/// the planning window `[96, 192)`, slot 5 lies beyond it and stays
/// pooled; `hi` varies the value under an unchanged id. Deadlines sit
/// far past the twin's clock (one slot per step): pool expiry at
/// `prepare_plan` is not journaled, so a twin check that let offers
/// expire would compare a replayed pool against an aged one.
fn tso_macro_offer(brp: u64, slot: u64, hi: u64) -> FlexOffer {
    let es = 100 + 20 * slot as i64;
    FlexOffer::builder(brp * 1_000_000_000 + slot, brp)
        .earliest_start(TimeSlot(es))
        .time_flexibility(8)
        .assignment_before(TimeSlot(es - 10))
        .profile(Profile::uniform(
            4,
            EnergyRange::new(2.0, 6.0 + hi as f64).unwrap(),
        ))
        .build()
        .unwrap()
}

/// Turn raw `(kind, brp, a, b, jitter)` draws into TSO steps, stamping
/// each envelope with its sender's stream sequence number the way the
/// network would — except that `jitter` 0 first burns a number (a lost
/// envelope: the receiver sees a gap) and `jitter` 1 reuses the previous
/// one (a network duplicate).
fn tso_steps(raw: &[(u8, u64, u64, u64, u8)]) -> Vec<TsoStep> {
    let tso = NodeId(99);
    let mut next_seq = [0u64; 3];
    raw.iter()
        .map(|&(kind, brp, a, b, jitter)| {
            let from = 1 + brp;
            let id = |slot: u64| FlexOfferId(from * 1_000_000_000 + slot);
            let message = match kind {
                0..=2 => {
                    let mut updates = vec![FlexOfferUpdate::Insert(tso_macro_offer(from, a, b))];
                    if b % 2 == 1 {
                        updates.push(FlexOfferUpdate::Delete(id(b)));
                    }
                    Message::MacroOfferDeltas(updates)
                }
                3 => Message::Heartbeat { seen: a },
                4 => Message::ResyncSnapshot {
                    offers: vec![tso_macro_offer(from, a, 0), tso_macro_offer(from, b, a)],
                },
                // One entry the sender may well pool (adopt), one it
                // cannot: the id belongs to a peer BRP (supersede).
                5 => Message::ProvisionalReport {
                    window_start: TimeSlot(96),
                    assignments: [(from, a), (1 + (brp + 1) % 3, b)]
                        .map(|(owner, slot)| {
                            let offer = tso_macro_offer(owner, slot, 0);
                            ScheduledFlexOffer::at_min(&offer, offer.earliest_start())
                        })
                        .to_vec(),
                },
                _ => return TsoStep::PlanRound,
            };
            let seq = &mut next_seq[brp as usize];
            match jitter {
                0 => *seq += 1,
                1 => *seq = seq.saturating_sub(1),
                _ => {}
            }
            let env = Envelope::new(NodeId(from), tso, TimeSlot(0), message).with_seq(*seq);
            *seq += 1;
            TsoStep::Deliver(env)
        })
        .collect()
}

/// One step of the BRP twin's input: a prosumer submission of an offer
/// starting at `es` with `tf` slots of time flexibility, or a full
/// planning round, which assigns every pooled offer.
#[derive(Debug, Clone)]
enum BrpStep {
    Submit(i64, u32),
    PlanRound,
}

fn tso_prepare(tso: &mut TsoNode, now: TimeSlot) -> Vec<Envelope> {
    let prices = MarketPrices::flat(96, 0.08, 0.03, 1000.0);
    tso.prepare_plan(now, TimeSlot(96), vec![-3.0; 96], prices, vec![0.2; 96])
        .0
}

proptest! {
    /// The TSO mirror of `random_crash_point_replays_to_identical_pool`:
    /// a random stream of delta batches, heartbeats, resync snapshots and
    /// provisional reports from three BRPs — with lost and duplicated
    /// sequence numbers — interleaved with prepare + commit rounds, fed to
    /// a WAL-backed TSO and a WAL-less twin. The former crashes at a
    /// random step; snapshot + tail replay (commit markers included) must
    /// leave the pool, every stream guard's counters, the reconciliation
    /// audit and the acks the next round's heartbeats carry exactly where
    /// the twin's stand.
    #[test]
    fn random_tso_crash_point_replays_to_identical_state(
        raw in proptest::collection::vec((0u8..8, 0u64..3, 0u64..6, 0u64..6, 0u8..6), 1..28),
        crash_at in 0usize..28,
        snapshot_every in 1usize..16,
    ) {
        let wal_config = WalConfig { snapshot_every };
        let tso_id = NodeId(99);
        let runtime = || RuntimeConfig { budget_evaluations: 400, ..RuntimeConfig::default() };
        let fresh = || TsoNode::with_config(tso_id, AggregationParams::p0(), runtime());
        let mut tso = fresh();
        tso.attach_wal(NodeWal::in_memory(wal_config));
        let (mut tso, mut twin) = crash_mid_stream(
            (tso, fresh()),
            &tso_steps(&raw),
            crash_at,
            |node, i, step| {
                let now = TimeSlot(i as i64);
                match step {
                    TsoStep::Deliver(envelope) => drop(node.handle(envelope.clone(), now)),
                    TsoStep::PlanRound => {
                        tso_prepare(node, now);
                        node.commit_plan(now);
                    }
                }
            },
            |mut node| {
                let store = node.take_wal().expect("WAL attached").into_store();
                let (rebuilt, out) = TsoNode::recover(
                    tso_id,
                    AggregationParams::p0(),
                    runtime(),
                    store,
                    wal_config,
                    TimeSlot(crash_at as i64),
                )
                .expect("in-memory stores cannot fail");
                assert!(out.iter().all(|e| matches!(e.message, Message::ResyncRequest)));
                rebuilt
            },
        );

        prop_assert_eq!(tso.pooled_ids(), twin.pooled_ids());
        prop_assert_eq!(tso.aggregate_count(), twin.aggregate_count());
        for brp in 1..=3 {
            prop_assert_eq!(tso.stream_stats(NodeId(brp)), twin.stream_stats(NodeId(brp)));
        }
        prop_assert_eq!(tso.provisional_audit(), twin.provisional_audit());
        let now = TimeSlot(raw.len() as i64);
        prop_assert_eq!(tso_prepare(&mut tso, now), tso_prepare(&mut twin, now));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random chaos plan confined to the first half of the run —
    /// loss up to 50%, delays, jitter, duplication, an optional BRP↔TSO
    /// partition, up to 15% churn — self-heals: conservation holds,
    /// no phantom offers, no energy violations, and the quiet tail is
    /// bit-identical to the no-chaos twin.
    #[test]
    fn random_chaos_plans_self_heal(
        seed in 0u64..1_000,
        drop_p in 0.0f64..0.5,
        delay in 0u32..3,
        jitter in 0u32..4,
        dup_p in 0.0f64..0.3,
        churn in 0.0f64..0.15,
        partition in any::<bool>(),
    ) {
        let failure = FailureModel::drop(drop_p)
            .delayed_by(delay)
            .jittered_by(jitter)
            .duplicated(dup_p);
        let mut plan = ChaosPlan::reliable()
            .phase(loss_storm(0, 1, drop_p))
            .phase(mirabel_edms::ChaosPhase::new(
                mirabel_edms::chaos::cycle_span(1, 2).0,
                mirabel_edms::chaos::cycle_span(1, 2).1,
                failure,
            ));
        if partition {
            plan = plan.phase(partition_between(2, 3, BRP0, TSO));
        }
        let report = run_campaign(&CampaignConfig {
            sim: SimulationConfig {
                chaos: plan,
                churn_fraction: churn,
                brps: 2,
                prosumers_per_brp: 3,
                offers_per_prosumer: 1,
                budget_evaluations: 1_500,
                ..three_level(6, seed)
            },
            quiet_cycles: 3,
        });
        prop_assert!(
            report.converged(),
            "random chaos did not self-heal (seed {}):\n{}",
            seed,
            report.summary()
        );
    }

    /// Crashing a random BRP at a random cycle of a random campaign —
    /// under a random loss storm, churn, and snapshot cadence — replays
    /// to the exact state of the never-crashed twin: the quiet-tail plan
    /// signatures are bit-identical.
    #[test]
    fn random_crashes_replay_to_identical_plans(
        seed in 0u64..1_000,
        crash_cycle in 1usize..3,
        crashed_brp in 0u64..2,
        drop_p in 0.0f64..0.4,
        churn in 0.0f64..0.10,
        snapshot_every in 4usize..64,
    ) {
        let plan = ChaosPlan::reliable()
            .phase(loss_storm(0, 1, drop_p))
            .phase(crash_of(crash_cycle, NodeId(1 + crashed_brp)));
        let report = run_campaign(&CampaignConfig {
            sim: SimulationConfig {
                chaos: plan,
                churn_fraction: churn,
                wal: Some(WalConfig { snapshot_every }),
                brps: 2,
                prosumers_per_brp: 3,
                offers_per_prosumer: 1,
                budget_evaluations: 1_500,
                ..three_level(6, seed)
            },
            quiet_cycles: 3,
        });
        prop_assert_eq!(report.chaos.crashes, 1);
        prop_assert!(
            report.converged(),
            "random crash did not replay cleanly (seed {}):\n{}",
            seed,
            report.summary()
        );
    }

    /// The node-level twin check behind the campaign assertion: feed a
    /// random stream of offers and 2-level planning rounds into a
    /// WAL-backed BRP and its WAL-less twin, crash the former at a random
    /// point mid-stream, and the recovered pool must match the twin's
    /// entry for entry (`pool_digest` hashes the canonical encoding of
    /// every pooled offer) — assigned offers must not come back.
    #[test]
    fn random_crash_point_replays_to_identical_pool(
        raw in proptest::collection::vec((1i64..80, 0u32..8, 0u8..5), 1..24),
        crash_at in 0usize..24,
        snapshot_every in 1usize..16,
    ) {
        let wal_config = WalConfig { snapshot_every };
        let brp_id = NodeId(1);
        let config = BrpConfig::default();
        let mut brp = BrpNode::new(brp_id, None, config.clone());
        brp.attach_wal(NodeWal::in_memory(wal_config));
        let twin = BrpNode::new(brp_id, None, config.clone());
        let now = TimeSlot(0);
        let steps: Vec<BrpStep> = raw
            .iter()
            .map(|&(es, tf, kind)| match kind {
                0 => BrpStep::PlanRound,
                _ => BrpStep::Submit(es, tf),
            })
            .collect();

        let (brp, twin) = crash_mid_stream(
            (brp, twin),
            &steps,
            crash_at,
            |node, i, step| match *step {
                BrpStep::Submit(es, tf) => {
                    let offer = FlexOffer::builder(i as u64, 500 + i as u64)
                        .earliest_start(TimeSlot(es))
                        .latest_start(TimeSlot(es + tf as i64))
                        .assignment_before(TimeSlot(es))
                        .profile(Profile::uniform(2, EnergyRange::new(1.0, 2.0).unwrap()))
                        .build()
                        .unwrap();
                    let from = NodeId(500 + i as u64);
                    node.handle(Envelope::new(from, brp_id, now, Message::SubmitOffer(offer)), now);
                }
                BrpStep::PlanRound => {
                    let prices = MarketPrices::flat(96, 0.08, 0.03, 100.0);
                    node.prepare_plan(now, TimeSlot(0), vec![-1.0; 96], prices, vec![0.2; 96]);
                    node.commit_plan(now);
                }
            },
            |mut node| {
                let store = node.take_wal().expect("WAL attached").into_store();
                let (rebuilt, out) =
                    BrpNode::recover(brp_id, None, config.clone(), store, wal_config, now)
                        .expect("in-memory stores cannot fail");
                assert!(out.is_empty(), "local-mode recovery emits nothing");
                rebuilt
            },
        );

        prop_assert_eq!(brp.pool_size(), twin.pool_size());
        prop_assert_eq!(brp.pool_digest(), twin.pool_digest());
    }
}

/// Release-scale campaign smoke for CI's `--ignored` step: a bigger
/// hierarchy, a longer storm, full churn — still bit-identical after
/// the quiet tail.
#[test]
#[ignore = "release-scale chaos smoke; run with --ignored"]
fn release_scale_campaign_smoke() {
    let plan = ChaosPlan::reliable()
        .phase(loss_storm(1, 3, 0.4))
        .phase(delay_burst(3, 4, 2, 4))
        .phase(partition_between(4, 6, BRP0, TSO))
        .phase(partition_between(4, 6, NodeId(2), TSO));
    let report = run_campaign(&CampaignConfig {
        sim: SimulationConfig {
            brps: 4,
            prosumers_per_brp: 10,
            offers_per_prosumer: 2,
            budget_evaluations: 8_000,
            chaos: plan,
            churn_fraction: 0.10,
            ..three_level(10, 424242)
        },
        quiet_cycles: 4,
    });
    assert!(
        report.converged(),
        "release-scale campaign did not self-heal:\n{}",
        report.summary()
    );
    assert!(report.chaos.network.dropped > 0);
    assert!(report.chaos.network.replayed > 0);
}

/// Release-scale islanded-mode smoke for CI's `--ignored` step. The
/// loss storm drops enough TSO heartbeats that a BRP's detector trips
/// `Down` and it islands; its heal-time `ProvisionalReport` is then
/// sent straight into the next partition window, so reconciliation
/// rides the dead-letter replay path — the report reaches the TSO at
/// the partition heal, over a delta stream that still carries a
/// storm-loss gap, and must be audited anyway. A WAL-backed TSO
/// crash-restart afterwards re-anchors every BRP, and the quiet tail
/// is bit-identical despite full churn.
#[test]
#[ignore = "release-scale islanded-mode smoke; run with --ignored"]
fn release_scale_islanding_smoke() {
    let plan = ChaosPlan::reliable()
        .phase(loss_storm(1, 3, 0.3))
        .phase(partition_between(2, 4, BRP0, TSO))
        .phase(partition_between(3, 5, NodeId(2), TSO))
        .phase(crash_of(6, TSO));
    let report = run_campaign(&CampaignConfig {
        sim: SimulationConfig {
            brps: 4,
            prosumers_per_brp: 10,
            offers_per_prosumer: 2,
            budget_evaluations: 8_000,
            chaos: plan,
            churn_fraction: 0.10,
            wal: Some(WalConfig { snapshot_every: 16 }),
            link_health: tight_link_health(),
            ..three_level(10, 131_072)
        },
        quiet_cycles: 4,
    });
    assert_eq!(report.chaos.crashes, 1, "the TSO crash must fire");
    assert!(
        !report.chaos.islanded.is_empty(),
        "partitions must island BRPs:\n{}",
        report.summary()
    );
    assert!(
        report.chaos.provisional_adopted + report.chaos.provisional_superseded > 0,
        "the heal must audit provisional ledgers:\n{}",
        report.summary()
    );
    assert!(
        report.converged(),
        "islanded-mode campaign left a trace:\n{}",
        report.summary()
    );
}

/// Release-scale crash-recovery smoke for CI's `--ignored` step: three
/// crash-restarts across a bigger hierarchy — one during a loss storm,
/// one during a partition, one repeat crash of the same BRP — with an
/// aggressive snapshot cadence so compaction churns throughout.
#[test]
#[ignore = "release-scale crash-recovery smoke; run with --ignored"]
fn release_scale_crash_recovery_smoke() {
    let plan = ChaosPlan::reliable()
        .phase(loss_storm(1, 3, 0.4))
        .phase(crash_of(2, BRP0))
        .phase(partition_between(3, 5, NodeId(2), TSO))
        .phase(crash_of(4, NodeId(3)))
        .phase(crash_of(5, BRP0));
    let report = run_campaign(&CampaignConfig {
        sim: SimulationConfig {
            brps: 4,
            prosumers_per_brp: 10,
            offers_per_prosumer: 2,
            budget_evaluations: 8_000,
            chaos: plan,
            churn_fraction: 0.10,
            wal: Some(WalConfig { snapshot_every: 16 }),
            ..three_level(10, 777_777)
        },
        quiet_cycles: 4,
    });
    assert_eq!(report.chaos.crashes, 3);
    assert!(
        report.converged(),
        "release-scale crash recovery left a trace:\n{}",
        report.summary()
    );
    assert!(report.chaos.network.replayed > 0);
}
