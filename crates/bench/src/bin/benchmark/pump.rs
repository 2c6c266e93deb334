//! The traced pump: the benchmark's own serial re-implementation of one
//! region's cycle choreography over the public node API, with a span
//! around every call into a layer.
//!
//! It follows `RegionSim::run_cycle` step for step — same seeds, same
//! node construction, same clock, same routing order — so on the same
//! seed it drives the nodes to the plans the program's driver reaches
//! (`trace.signature_match`). What it leaves out is the driver's own
//! work (shadow accounting, export snapshots, pool dispatch), which is
//! exactly what `simulation.driver_gap_ms` then measures. Nodes of one
//! level are driven one after another, so spans never overlap; run it
//! on a width-1 pool so nothing inside a node runs concurrently either.
//!
//! Loops over one layer are batched into one span with an item count
//! (all submits, then all routes) where the program interleaves them
//! per item; the calls and their order per layer are unchanged, and a
//! span per item would cost more than the calls it measures.

use crate::inputs::{gen_offer, window_baseline};
use crate::trace::Tracer;
use crate::workloads::TSO;
use mirabel_aggregate::AggregationParams;
use mirabel_core::{ActorId, FlexOffer, NodeId, RegionId, TimeSlot, SLOTS_PER_DAY};
use mirabel_edms::{
    BrpConfig, BrpNode, Envelope, IslandedRound, LinkHealthStats, Network, NetworkStats, Node,
    NodeWal, ProsumerNode, ReplanReport, RuntimeConfig, SimulationConfig, StreamStats, TsoNode,
};
use mirabel_forecast::ForecastHub;
use mirabel_schedule::MarketPrices;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Everything one pump rep observed.
#[derive(Debug, Default)]
pub struct PumpRun {
    /// Wall seconds of every round, round 0 included.
    pub round_secs: Vec<f64>,
    /// Per-round signature of the committed execution, computed as the
    /// program's driver computes its `plan_signatures`.
    pub signatures: Vec<u64>,
    /// Offers submitted.
    pub offers_submitted: usize,
    /// Offers executed under an assignment.
    pub assigned: usize,
    /// Offers that fell back to the open contract.
    pub fallbacks: usize,
    /// Committed schedules outside their offer's energy bounds.
    pub energy_violations: usize,
    /// Unexpired offers pooled at the TSO that no BRP exports.
    pub phantom_offers: usize,
    /// Crash-restarts performed.
    pub crashes: usize,
    /// The network's delivery counters (metering stays off: encoding
    /// every envelope would be charged to `comm.route`).
    pub network: NetworkStats,
    /// The TSO's per-BRP sequenced-stream counters, summed.
    pub streams: StreamStats,
    /// The BRPs' TSO-link failure-detector counters, summed.
    pub link_health: LinkHealthStats,
    /// Network duplicates the BRPs' dedup filters dropped.
    pub dedup_duplicates: u64,
    /// Islanded planning rounds the BRPs ran.
    pub islanded: Vec<IslandedRound>,
    /// Provisional macro assignments the TSO `(adopted, superseded)`.
    pub provisional: (u64, u64),
    /// Macro offers eligible at the TSO, per round (3-level only).
    pub tso_macro_offers: Vec<usize>,
    /// Every incremental replan, both levels.
    pub replans: Vec<ReplanReport>,
    /// Every envelope routed in round 0, for the direct layer drives.
    pub envelopes: Vec<Envelope>,
    /// Every offer submitted in round 0, for the direct layer drives.
    pub offers: Vec<FlexOffer>,
}

/// The network plus the spans and round-0 capture around its calls.
struct Wire {
    network: Network,
    /// Clone routed envelopes into `captured` (round 0 only: it is
    /// excluded from every timing, so the clones cost nothing measured).
    capturing: bool,
    captured: Vec<Envelope>,
}

impl Wire {
    fn advance(&mut self, tracer: &mut Tracer, now: TimeSlot) {
        tracer.begin("comm.advance");
        self.network.advance(now);
        tracer.end(1);
    }

    fn route(&mut self, tracer: &mut Tracer, envelopes: Vec<Envelope>) {
        if envelopes.is_empty() {
            return;
        }
        if self.capturing {
            self.captured.extend(envelopes.iter().cloned());
        }
        let n = envelopes.len() as u64;
        tracer.begin("comm.route");
        self.network.send_all(envelopes);
        tracer.end(n);
    }

    fn drain(
        &mut self,
        tracer: &mut Tracer,
        nodes: impl Iterator<Item = NodeId>,
        now: TimeSlot,
    ) -> Vec<Vec<Envelope>> {
        tracer.begin("comm.drain");
        let inboxes: Vec<Vec<Envelope>> = nodes.map(|id| self.network.drain(id, now)).collect();
        tracer.end(inboxes.iter().map(|i| i.len() as u64).sum());
        inboxes
    }
}

/// As `simulation::make_brp_config`: initial build and crash-restart
/// must configure a BRP identically.
fn brp_config(cfg: &SimulationConfig) -> BrpConfig {
    BrpConfig {
        scheduler: cfg.scheduler,
        budget_evaluations: cfg.budget_evaluations,
        forward_to_tso: cfg.use_tso,
        repair_chains: cfg.repair_chains.max(1),
        pool: cfg.pool.clone(),
        link_health: cfg.link_health,
        ..BrpConfig::default()
    }
}

/// As `simulation::make_tso_runtime`.
fn tso_runtime(cfg: &SimulationConfig) -> RuntimeConfig {
    RuntimeConfig {
        budget_evaluations: cfg.budget_evaluations,
        repair_chains: cfg.repair_chains.max(1),
        pool: cfg.pool.clone(),
        ..RuntimeConfig::default()
    }
}

/// One prosumer wave: drain every inbox, handle, optionally pass the
/// deadline, route replies (prosumers never reply; kept for symmetry
/// with the program's wave).
fn prosumer_wave(
    tracer: &mut Tracer,
    wire: &mut Wire,
    prosumers: &mut [ProsumerNode],
    now: TimeSlot,
    on_slot_at: Option<TimeSlot>,
) {
    let inboxes = wire.drain(tracer, prosumers.iter().map(|p| p.id), now);
    let mut replies = Vec::new();
    let mut handled = 0;
    tracer.begin("prosumer.handle");
    for (p, inbox) in prosumers.iter_mut().zip(inboxes) {
        handled += inbox.len() as u64;
        for envelope in inbox {
            replies.extend(Node::handle(p, envelope, now));
        }
    }
    tracer.end(handled);
    if let Some(slot) = on_slot_at {
        tracer.begin("prosumer.on_slot");
        for p in prosumers.iter_mut() {
            p.on_slot(slot);
        }
        tracer.end(prosumers.len() as u64);
    }
    wire.route(tracer, replies);
}

/// As `simulation::plan_signature`.
fn plan_signature(prosumers: &[ProsumerNode], window: TimeSlot, horizon: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    };
    for p in prosumers {
        p.for_each_committed_in_window(
            window,
            window + horizon,
            |id, assigned, start, energies| {
                mix(id.value());
                mix((start.index() as u64) << 1 | assigned as u64);
                for e in energies {
                    mix(e.kwh().to_bits());
                }
            },
        );
    }
    h
}

/// Pump `cfg.cycles` rounds of the region `cfg` describes, recording
/// spans into `tracer`. Churn is not implemented (no workload uses it).
pub fn run(cfg: &SimulationConfig, tracer: &mut Tracer) -> PumpRun {
    assert!(cfg.churn_fraction == 0.0, "the pump does not churn");
    let s = SLOTS_PER_DAY;
    let horizon = s as usize;
    let mut run = PumpRun::default();

    // --- Topology, as `RegionSim::new` builds it -----------------------
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut network = Network::new(cfg.failure, cfg.seed ^ 0xabcd);
    network.set_region(RegionId::DEFAULT);
    network.set_chaos(cfg.chaos.clone());
    let mut tso = TsoNode::with_config(TSO, AggregationParams::p0(), tso_runtime(cfg));
    if cfg.use_tso {
        network.register(TSO);
        if let Some(wal_config) = cfg.wal {
            tso.attach_wal(NodeWal::in_memory(wal_config));
        }
    }
    let parent = cfg.use_tso.then_some(TSO);
    let mut brps: Vec<BrpNode> = (0..cfg.brps)
        .map(|b| {
            let id = NodeId(1 + b as u64);
            network.register(id);
            let mut brp = BrpNode::new(id, parent, brp_config(cfg));
            if let Some(wal_config) = cfg.wal {
                brp.attach_wal(NodeWal::in_memory(wal_config));
            }
            brp
        })
        .collect();
    let hub = ForecastHub::new();
    let brp_subs: Vec<u64> = brps.iter().map(|_| hub.subscribe(horizon, 0.0)).collect();
    let tso_sub = cfg.use_tso.then(|| hub.subscribe(horizon, 0.0));
    let subscribers = (brp_subs.len() + usize::from(cfg.use_tso)) as u64;
    let mut prosumers: Vec<ProsumerNode> = Vec::new();
    for b in 0..cfg.brps {
        for k in 0..cfg.prosumers_per_brp {
            let id = NodeId(10_000 + (b * cfg.prosumers_per_brp + k) as u64);
            network.register(id);
            prosumers.push(ProsumerNode::new(
                id,
                ActorId(id.value()),
                NodeId(1 + b as u64),
            ));
        }
    }
    let total_flex =
        (cfg.brps * cfg.prosumers_per_brp * cfg.offers_per_prosumer) as f64 * 1.8 * 4.0;
    let scale = (total_flex / s as f64).max(0.5);
    let mut next_offer_id = 1u64;
    let mut wire = Wire {
        network,
        capturing: false,
        captured: Vec::new(),
    };

    for c in 0..cfg.cycles {
        let round_started = Instant::now();
        tracer.set_round(c);
        tracer.begin("round");
        wire.capturing = c == 0;
        let t0 = TimeSlot((c as i64) * s as i64);
        let window = t0 + s;
        let deadline = t0 + s / 2;
        wire.advance(tracer, t0);

        // 1. Prosumers issue offers for the next window.
        tracer.begin("phase.submit");
        tracer.begin("input.gen");
        let mut offers = Vec::with_capacity(prosumers.len() * cfg.offers_per_prosumer);
        for (i, p) in prosumers.iter().enumerate() {
            for _ in 0..cfg.offers_per_prosumer {
                let offer = gen_offer(next_offer_id, p.actor, window, s, deadline, &mut rng);
                next_offer_id += 1;
                offers.push((i, offer));
            }
        }
        let submitted = offers.len() as u64;
        tracer.end(submitted);
        run.offers_submitted += offers.len();
        if c == 0 {
            run.offers = offers.iter().map(|(_, o)| o.clone()).collect();
        }
        tracer.begin("prosumer.submit");
        let envelopes: Vec<Envelope> = offers
            .into_iter()
            .map(|(i, offer)| prosumers[i].submit(offer, t0))
            .collect();
        tracer.end(submitted);
        wire.route(tracer, envelopes);
        tracer.end(submitted);

        // 1c. Scheduled crash-restarts: only the WAL store survives.
        let crashed = cfg.chaos.crashes_between(t0, t0 + s);
        if !crashed.is_empty() {
            tracer.begin("phase.crash");
            for &node in &crashed {
                let is_tso = cfg.use_tso && node == TSO;
                let brp_index = brps.iter().position(|b| b.id == node);
                if !is_tso && brp_index.is_none() {
                    continue;
                }
                run.crashes += 1;
                wire.network.deregister(node);
                let recovery_out = if is_tso {
                    let store = tso.take_wal().map(NodeWal::into_store);
                    tracer.begin("wal.recover");
                    let (rebuilt, out) = match (store, cfg.wal) {
                        (Some(store), Some(wal_config)) => TsoNode::recover(
                            TSO,
                            AggregationParams::p0(),
                            tso_runtime(cfg),
                            store,
                            wal_config,
                            t0,
                        )
                        .expect("in-memory WAL stores cannot fail"),
                        _ => (
                            TsoNode::with_config(TSO, AggregationParams::p0(), tso_runtime(cfg)),
                            Vec::new(),
                        ),
                    };
                    tracer.end(1);
                    tso = rebuilt;
                    out
                } else {
                    let idx = brp_index.expect("checked above");
                    let store = brps[idx].take_wal().map(NodeWal::into_store);
                    tracer.begin("wal.recover");
                    let (rebuilt, out) = match (store, cfg.wal) {
                        (Some(store), Some(wal_config)) => {
                            BrpNode::recover(node, parent, brp_config(cfg), store, wal_config, t0)
                                .expect("in-memory WAL stores cannot fail")
                        }
                        _ => (BrpNode::new(node, parent, brp_config(cfg)), Vec::new()),
                    };
                    tracer.end(1);
                    brps[idx] = rebuilt;
                    out
                };
                wire.network.register(node);
                wire.route(tracer, recovery_out);
            }
            tracer.end(crashed.len() as u64);
        }

        // 2. Planning wave, bottom-up: BRPs ingest and prepare (or
        //    flush macro deltas upward), then the TSO splices and plans.
        tracer.begin("phase.plan");
        tracer.begin("input.gen");
        let forecast0 = window_baseline(scale, horizon, &mut rng);
        let prices = MarketPrices::flat(horizon, 0.09, 0.02, scale * 0.4);
        let penalties = vec![0.2; horizon];
        tracer.end(1);
        tracer.begin("forecast.pubsub");
        hub.publish(&forecast0);
        tracer.end(subscribers);

        let now = t0 + 4u32;
        wire.advance(tracer, now);
        let inboxes = wire.drain(tracer, brps.iter().map(|b| b.id), now);
        tracer.begin("forecast.pubsub");
        let events: Vec<_> = brp_subs
            .iter()
            .map(|&sub| hub.poll(sub).expect("initial publish always notifies"))
            .collect();
        tracer.end(events.len() as u64);
        let mut outs = Vec::with_capacity(brps.len());
        for ((brp, inbox), event) in brps.iter_mut().zip(inboxes).zip(events) {
            let mut out = Vec::new();
            tracer.begin("brp.ingest");
            let n = inbox.len() as u64;
            for envelope in inbox {
                out.extend(brp.handle(envelope, now));
            }
            tracer.end(n);
            tracer.begin("brp.prepare");
            let (envelopes, _report) = brp.prepare_plan(
                now,
                window,
                event.forecast,
                prices.clone(),
                penalties.clone(),
            );
            tracer.end(1);
            out.extend(envelopes);
            outs.push(out);
        }
        for out in outs {
            wire.route(tracer, out);
        }
        if let Some(sub) = tso_sub {
            let now = t0 + 8u32;
            wire.advance(tracer, now);
            let inbox = wire
                .drain(tracer, std::iter::once(TSO), now)
                .pop()
                .expect("one node drained");
            tracer.begin("forecast.pubsub");
            let event = hub.poll(sub).expect("initial publish always notifies");
            tracer.end(1);
            let mut out = Vec::new();
            tracer.begin("tso.splice");
            let n = inbox.len() as u64;
            for envelope in inbox {
                out.extend(tso.handle(envelope, now));
            }
            tracer.end(n);
            tracer.begin("tso.prepare");
            let (envelopes, report) =
                tso.prepare_plan(now, window, event.forecast, prices, penalties);
            tracer.end(1);
            run.tso_macro_offers.push(report.eligible_macro);
            out.extend(envelopes);
            wire.route(tracer, out);
        }
        tracer.end(1);

        // 2b. Prosumers see accept/reject decisions.
        tracer.begin("phase.decide");
        let t2 = t0 + 8u32;
        wire.advance(tracer, t2);
        prosumer_wave(tracer, &mut wire, &mut prosumers, t2, None);
        tracer.end(1);

        // 3. Intra-day refinement: every level replans incrementally.
        if cfg.refine_fraction > 0.0 {
            tracer.begin("phase.refine");
            tracer.begin("input.gen");
            let mut refined = forecast0;
            for v in refined.iter_mut() {
                if rng.gen_bool(cfg.refine_fraction.clamp(0.0, 1.0)) {
                    *v += scale * rng.gen_range(-0.3..0.3);
                }
            }
            tracer.end(1);
            tracer.begin("forecast.pubsub");
            hub.publish(&refined);
            let brp_events: Vec<_> = brp_subs.iter().map(|&sub| hub.poll(sub)).collect();
            let tso_event = tso_sub.and_then(|sub| hub.poll(sub));
            tracer.end(subscribers);
            tracer.begin("brp.replan");
            for (brp, event) in brps.iter_mut().zip(&brp_events) {
                run.replans
                    .extend(event.as_ref().and_then(|e| brp.on_forecast_event(e)));
            }
            tracer.end(brps.len() as u64);
            if let Some(event) = tso_event {
                tracer.begin("tso.replan");
                run.replans.extend(tso.on_forecast_event(&event));
                tracer.end(1);
            }
            tracer.end(1);
        }

        // 4. Commit wave, top-down: the TSO assigns macro offers, each
        //    BRP disaggregates them (or commits its own local plan).
        tracer.begin("phase.commit");
        let mut now = t0 + 12u32;
        if cfg.use_tso {
            wire.advance(tracer, now);
            let inbox = wire
                .drain(tracer, std::iter::once(TSO), now)
                .pop()
                .expect("one node drained");
            let mut out = Vec::new();
            tracer.begin("tso.splice");
            let n = inbox.len() as u64;
            for envelope in inbox {
                out.extend(tso.handle(envelope, now));
            }
            tracer.end(n);
            tracer.begin("tso.commit");
            out.extend(tso.commit_plan(now).map(|(e, _)| e).unwrap_or_default());
            tracer.end(1);
            wire.route(tracer, out);
            now += 4u32;
        }
        wire.advance(tracer, now);
        let inboxes = wire.drain(tracer, brps.iter().map(|b| b.id), now);
        let mut outs = Vec::with_capacity(brps.len());
        for (brp, inbox) in brps.iter_mut().zip(inboxes) {
            let mut out = Vec::new();
            tracer.begin("brp.disagg");
            for envelope in inbox {
                out.extend(brp.handle(envelope, now));
            }
            out.extend(brp.commit_plan(now).map(|(e, _)| e).unwrap_or_default());
            tracer.end(out.len() as u64);
            outs.push(out);
        }
        for out in outs {
            wire.route(tracer, out);
        }
        tracer.end(1);

        // 5. Prosumers receive assignments; the deadline passes.
        tracer.begin("phase.execute");
        let t5 = t0 + 20u32;
        wire.advance(tracer, t5);
        prosumer_wave(tracer, &mut wire, &mut prosumers, t5, Some(window));
        tracer.begin("pump.signature");
        run.signatures.push(plan_signature(&prosumers, window, s));
        tracer.end(1);
        tracer.end(1);

        for b in brps.iter_mut() {
            run.islanded.extend(b.take_islanded_rounds());
        }
        tracer.end(1);
        run.round_secs.push(round_started.elapsed().as_secs_f64());
    }

    // --- Closing probes, as `RegionSim::finish` runs them ---------------
    run.assigned = prosumers.iter().map(ProsumerNode::assigned_count).sum();
    run.fallbacks = prosumers.iter().map(ProsumerNode::fallback_count).sum();
    run.energy_violations = prosumers.iter().map(|p| p.energy_violations(1e-6)).sum();
    if cfg.use_tso {
        let end = TimeSlot((cfg.cycles as i64 + 1) * s as i64);
        let exported: BTreeSet<u64> = brps
            .iter()
            .flat_map(|b| b.exported_offer_ids())
            .map(|id| id.value())
            .collect();
        run.phantom_offers = tso
            .pooled_ids()
            .iter()
            .filter(|id| !exported.contains(&id.value()))
            .filter(|id| tso.pooled_offer(**id).is_some_and(|o| !o.is_expired(end)))
            .count();
    }
    for b in &brps {
        run.streams.absorb(&tso.stream_stats(b.id));
        run.link_health.absorb(&b.link_health_stats());
        run.dedup_duplicates += b.dedup_duplicates();
    }
    run.provisional = tso.provisional_audit();
    run.network = wire.network.stats();
    run.envelopes = wire.captured;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::exec::Pool;
    use mirabel_edms::simulate;

    fn tiny(use_tso: bool) -> SimulationConfig {
        SimulationConfig {
            brps: 2,
            prosumers_per_brp: 20,
            cycles: 3,
            offers_per_prosumer: 1,
            seed: 7,
            use_tso,
            budget_evaluations: 500,
            pool: Pool::new(1),
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn pump_conserves_offers_and_matches_the_program() {
        for use_tso in [false, true] {
            let cfg = tiny(use_tso);
            let mut tracer = Tracer::new(true);
            let run = run(&cfg, &mut tracer);
            assert_eq!(run.offers_submitted, 2 * 20 * 3);
            assert_eq!(run.assigned + run.fallbacks, run.offers_submitted);
            assert_eq!(run.energy_violations, 0);
            assert_eq!(run.phantom_offers, 0);
            assert!(run.assigned > 0, "nothing assigned (use_tso {use_tso})");
            // Same seed, same plans as the program's own driver.
            let report = simulate(cfg);
            assert_eq!(run.signatures, report.plan_signatures);
            assert_eq!(run.assigned, report.assigned);
            // One root span per round, and round 0 captured its inputs.
            let roots = tracer.spans().iter().filter(|s| s.parent.is_none());
            assert_eq!(roots.count(), 3);
            assert_eq!(run.offers.len(), 40);
            assert!(run.envelopes.len() >= 40);
        }
    }

    #[test]
    fn untraced_pump_reaches_the_same_plans() {
        let cfg = tiny(true);
        let mut off = Tracer::new(false);
        let untraced = run(&cfg, &mut off);
        let traced = run(&cfg, &mut Tracer::new(true));
        assert!(off.spans().is_empty());
        assert_eq!(untraced.signatures, traced.signatures);
    }
}
