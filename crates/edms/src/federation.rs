//! Multi-region federation: sharded TSO hierarchies with cross-border
//! macro-offer exchange.
//!
//! One [`Federation`] owns `N` regions. Each region is a complete,
//! self-contained [`RegionSim`] — its own [`Network`], node-id space,
//! WAL namespace and RNG streams (the per-region seed is a splitmix
//! derivation of the base seed and the region id, so regions are
//! statistically independent shards of the same configured population).
//! On top sits a single **exchange layer**: every regional TSO owns an
//! [`ExchangeGateway`] that publishes its net exportable surplus as
//! bounded [`Message::ExchangeOfferDeltas`] batches — the same
//! delta-wire contract the intra-region macro-offer stream uses, in
//! the TSO's export-id space — onto an inter-regional bus with its own
//! sequenced-stream guards and resync path.
//!
//! ## Parallelism and determinism
//!
//! Regions share **no mutable state**, so [`Federation::run_cycle`]
//! hands each region's entire intra-region wave to the pool as one
//! `run_each` task: whole regions plan concurrently, and within each
//! region the usual level waves parallelize on the same lanes (nested
//! `run_each`). Only the exchange splice at the top is serial, and it
//! walks regions in region order — so every report stays bit-identical
//! at any pool width *and* any region count split of the same
//! population.
//!
//! ## The exchange is advisory netting
//!
//! Imported macro offers never enter a region's planning state: the
//! exchange *observes* each region's pre-flexibility residual
//! ([`RegionSim::cycle_residual`]) and the published surplus, and
//! settles the matchable energy at federation level
//! ([`ExchangeReport::matched_kwh`]). This is deliberate — it keeps a
//! region inside a federation byte-for-byte identical to the same
//! region simulated solo (the fault-isolation proof in
//! [`run_federation_campaign`](crate::chaos::run_federation_campaign)
//! depends on it). Binding cross-border assignment — feeding imported
//! offers into the importing TSO's scheduling pipeline — is future
//! work and would trade that isolation for coupling.
//!
//! [`Message::ExchangeOfferDeltas`]: crate::message::Message::ExchangeOfferDeltas

use crate::comm::{splitmix, ChaosPlan, FailureModel, Network, NetworkStats};
use crate::message::{Envelope, Message};
use crate::simulation::{RegionSim, SimulationConfig, SimulationReport};
use crate::wire::{LinkHealthStats, SequencedRx, StreamRx, StreamStats};
use mirabel_aggregate::FlexOfferUpdate;
use mirabel_core::exec::Task;
use mirabel_core::{FlexOffer, FlexOfferId, NodeId, RegionId, TimeSlot, SLOTS_PER_DAY};
use std::collections::BTreeMap;

/// Upper bound on exchange pump rounds per cycle: publish, then at most
/// three request/snapshot round-trips. The bus is drained to quiescence
/// within the bound or left to self-heal next cycle (deadline expiry
/// cleans stale imports either way).
const EXCHANGE_ROUNDS: usize = 4;

/// Macro offers a region may export per cycle (bounds the exchange
/// batch, and with it cross-border traffic).
const EXPORT_CAP: usize = 64;

/// A regional TSO's cross-border endpoint: publishes the region's
/// exportable surplus as deltas, maintains a sequenced, resyncable view
/// of every peer's exports.
///
/// The gateway speaks the exact PR 4 delta-wire contract on the same
/// stream receiver the TSO runs for its BRPs —
/// [`Message::ExchangeOfferDeltas`] batches guarded per peer by a
/// [`SequencedRx`], gaps answered with
/// [`Message::ResyncRequest`], snapshots replacing the imported view —
/// so the exchange inherits the intra-region wire's self-healing story
/// unchanged.
///
/// [`Message::ExchangeOfferDeltas`]: crate::message::Message::ExchangeOfferDeltas
/// [`Message::ResyncRequest`]: crate::message::Message::ResyncRequest
#[derive(Debug)]
pub struct ExchangeGateway {
    region: RegionId,
    endpoint: NodeId,
    /// What this gateway last published, by export id — the diff base.
    exports: BTreeMap<FlexOfferId, FlexOffer>,
    /// Per-peer stream receivers on the bus.
    streams: StreamRx,
    /// Per-peer imported view: peer endpoint → its published offers.
    /// Offers stay in the *exporter's* id space; keeping one map per
    /// peer is what makes id collisions across regions impossible.
    imports: BTreeMap<NodeId, BTreeMap<FlexOfferId, FlexOffer>>,
    /// Delta envelopes published onto the bus.
    pub deltas_published: u64,
    /// Resync snapshots served to peers.
    pub snapshots_served: u64,
}

impl ExchangeGateway {
    /// A gateway for `region`, reachable on the bus as `endpoint`.
    pub fn new(region: RegionId, endpoint: NodeId) -> ExchangeGateway {
        ExchangeGateway {
            region,
            endpoint,
            exports: BTreeMap::new(),
            streams: StreamRx::default(),
            imports: BTreeMap::new(),
            deltas_published: 0,
            snapshots_served: 0,
        }
    }

    /// The region this gateway exports for.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The gateway's bus address.
    pub fn endpoint(&self) -> NodeId {
        self.endpoint
    }

    /// Publish the region's current exportable set: diff `current`
    /// against the last published view — deletes first, then inserts,
    /// both ascending by id — and address one identical
    /// `ExchangeOfferDeltas` envelope to every peer. An unchanged set
    /// publishes nothing (the steady-state cost of the exchange is zero
    /// envelopes, exactly like the intra-region delta wire).
    pub fn publish(
        &mut self,
        current: &[FlexOffer],
        peers: &[NodeId],
        now: TimeSlot,
    ) -> Vec<Envelope> {
        let next: BTreeMap<FlexOfferId, FlexOffer> =
            current.iter().map(|o| (o.id(), o.clone())).collect();

        let mut diff: Vec<FlexOfferUpdate> = self
            .exports
            .keys()
            .filter(|id| !next.contains_key(id))
            .map(|id| FlexOfferUpdate::Delete(*id))
            .collect();
        for (id, offer) in &next {
            if self.exports.get(id) != Some(offer) {
                diff.push(FlexOfferUpdate::Insert(offer.clone()));
            }
        }
        if diff.is_empty() {
            return Vec::new();
        }

        self.exports = next;
        self.deltas_published += peers.len() as u64;
        peers
            .iter()
            .map(|&peer| {
                Envelope::new(
                    self.endpoint,
                    peer,
                    now,
                    Message::ExchangeOfferDeltas(diff.clone()),
                )
            })
            .collect()
    }

    /// Handle one bus envelope; returns protocol replies (resync
    /// requests, served snapshots) to route back. Deltas and snapshots
    /// go through the per-peer stream receiver: a gap answers with a
    /// resync request, and a snapshot replaces that peer's imported view
    /// before the buffered tail re-applies.
    pub fn handle(&mut self, envelope: Envelope, now: TimeSlot) -> Vec<Envelope> {
        let from = envelope.from;
        match envelope.message {
            Message::ExchangeOfferDeltas(_) | Message::ResyncSnapshot { .. } => {
                let (snapshot, deliver, reply) = self.streams.receive(self.endpoint, envelope, now);
                if let Some(offers) = snapshot {
                    self.imports
                        .insert(from, offers.into_iter().map(|o| (o.id(), o)).collect());
                }
                for env in deliver {
                    if let Message::ExchangeOfferDeltas(updates) = env.message {
                        self.apply_deltas(env.from, updates);
                    }
                }
                reply.into_iter().collect()
            }
            Message::ResyncRequest => {
                self.snapshots_served += 1;
                vec![Envelope::new(
                    self.endpoint,
                    from,
                    now,
                    Message::ResyncSnapshot {
                        offers: self.exports.values().cloned().collect(),
                    },
                )]
            }
            _ => Vec::new(),
        }
    }

    fn apply_deltas(&mut self, from: NodeId, updates: Vec<FlexOfferUpdate>) {
        let view = self.imports.entry(from).or_default();
        for u in updates {
            match u {
                FlexOfferUpdate::Insert(offer) => {
                    view.insert(offer.id(), offer);
                }
                FlexOfferUpdate::Delete(id) => {
                    view.remove(&id);
                }
            }
        }
    }

    /// This gateway's current published exports (ascending id).
    pub fn exports(&self) -> impl Iterator<Item = &FlexOffer> {
        self.exports.values()
    }

    /// Total imported macro offers across all peers.
    pub fn imported_count(&self) -> usize {
        self.imports.values().map(BTreeMap::len).sum()
    }

    /// Sum of the per-peer sequenced-stream counters.
    pub fn stream_rollup(&self) -> StreamStats {
        self.streams.rx.values().map(SequencedRx::stats).sum()
    }

    /// Whether this gateway's imported view of `peer` equals `exports`
    /// — the convergence probe.
    fn in_sync_with(&self, peer: NodeId, exports: &BTreeMap<FlexOfferId, FlexOffer>) -> bool {
        static EMPTY: BTreeMap<FlexOfferId, FlexOffer> = BTreeMap::new();
        self.imports.get(&peer).unwrap_or(&EMPTY) == exports
    }
}

/// Federation parameters: `regions` copies of the `sim` shape, glued by
/// the exchange layer.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of regions. Each gets the full `sim` population
    /// (`sim.brps × sim.prosumers_per_brp` prosumers), so splitting a
    /// fixed population across more regions means shrinking `sim`.
    pub regions: usize,
    /// The per-region simulation shape. `sim.seed` is the **base**
    /// seed: region `r` runs with
    /// [`Federation::region_seed`]`(sim.seed, r)`. `sim.chaos` may be
    /// scoped with [`ChaosPlan::in_region`]; unscoped plans hit every
    /// region.
    pub sim: SimulationConfig,
    /// Time-phased chaos on the bus alone (storms that hit only the
    /// cross-border links, leaving every region internally healthy).
    pub exchange_chaos: ChaosPlan,
    /// Meter wire bytes on every region network (the bus is always
    /// metered). Off by default: metering changes `NetworkStats` and
    /// therefore full-report equality against unmetered twins, so only
    /// the throughput bench turns it on.
    pub meter_bytes: bool,
}

impl Default for FederationConfig {
    fn default() -> FederationConfig {
        FederationConfig {
            regions: 2,
            sim: SimulationConfig::default(),
            exchange_chaos: ChaosPlan::reliable(),
            meter_bytes: false,
        }
    }
}

/// Cross-border exchange outcome, accumulated over the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExchangeReport {
    /// Delta envelopes published onto the bus (all gateways).
    pub deltas_published: u64,
    /// Resync snapshots served (all gateways).
    pub snapshots_served: u64,
    /// Energy matched by the federation-level advisory netting: per
    /// cycle, `min(Σ regional baseline deficit, Σ exported surplus
    /// energy)`, summed over cycles.
    pub matched_kwh: f64,
    /// Macro offers held in imported views at the end of the run.
    pub imported_offers: usize,
    /// Bus delivery counters. `bytes_sent` is always metered — the
    /// exchange-traffic ratio is the federation's headline bound.
    pub bus: NetworkStats,
    /// Sum of every gateway's per-peer sequenced-stream counters.
    pub streams: StreamStats,
    /// Whether every gateway's imported views matched every peer's
    /// exports when the run ended.
    pub converged: bool,
}

/// Per-region row of [`FederationStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// The region.
    pub region: RegionId,
    /// The region network's global delivery counters.
    pub network: NetworkStats,
    /// Envelopes currently retained in the region's dead-letter queue.
    pub dead_letters: usize,
    /// The region TSO's per-BRP sequenced-stream rollup.
    pub streams: StreamStats,
    /// Duplicates dropped by the region's BRP dedup filters.
    pub dedup_duplicates: u64,
    /// The region BRPs' TSO-link failure-detector counters, summed.
    pub link_health: LinkHealthStats,
    /// Outbox flushes the region's BRPs have sent but not yet seen
    /// acked by a TSO heartbeat.
    pub unacked_flushes: u64,
}

/// Point-in-time federation health rollup: one row per region plus the
/// cross-region exchange row.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationStats {
    /// Per-region rows, region-ordered.
    pub regions: Vec<RegionStats>,
    /// The inter-regional bus's delivery counters.
    pub exchange_bus: NetworkStats,
    /// All gateways' sequenced-stream counters, summed.
    pub exchange_streams: StreamStats,
}

/// Final federation outcome: every region's full [`SimulationReport`]
/// plus the exchange accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationReport {
    /// Per-region reports, region-ordered. Region `r` here is
    /// bit-identical to `simulate(Federation::region_config(&cfg, r))`
    /// run solo — the federation adds observation, never interference.
    pub regions: Vec<SimulationReport>,
    /// The cross-border exchange accounting.
    pub exchange: ExchangeReport,
}

impl FederationReport {
    /// Wire bytes routed inside regions (requires
    /// [`FederationConfig::meter_bytes`]; zero otherwise).
    pub fn intra_region_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.network.bytes_sent).sum()
    }

    /// Cross-border bytes as a fraction of intra-region bytes — the
    /// headline bound (< 1% at the 4 × 250k configuration). `NaN`-free:
    /// returns 0.0 when nothing was metered.
    pub fn exchange_byte_ratio(&self) -> f64 {
        let intra = self.intra_region_bytes();
        if intra == 0 {
            return 0.0;
        }
        self.exchange.bus.bytes_sent as f64 / intra as f64
    }
}

/// `N` sharded TSO hierarchies under one exchange layer.
pub struct Federation {
    cfg: FederationConfig,
    sims: Vec<RegionSim>,
    gateways: Vec<ExchangeGateway>,
    bus: Network,
    matched_kwh: f64,
}

impl Federation {
    /// Derive region `r`'s RNG seed from the base seed: a double
    /// splitmix keeps the per-region streams statistically independent
    /// even for adjacent region ids and small base seeds.
    pub fn region_seed(base: u64, region: RegionId) -> u64 {
        splitmix(base ^ splitmix(0x9e37_79b9_7f4a_7c15u64.wrapping_add(region.value())))
    }

    /// The exact [`SimulationConfig`] region `r` runs under: the shared
    /// shape with the region-derived seed, and the chaos plan only if
    /// it targets this region ([`ChaosPlan::applies_to`]). Public so
    /// campaigns and tests can construct a region's **solo twin** —
    /// `simulate(Federation::region_config(&cfg, r))` reproduces the
    /// federation's region `r` byte-for-byte.
    pub fn region_config(cfg: &FederationConfig, region: RegionId) -> SimulationConfig {
        let mut sim = cfg.sim.clone();
        sim.seed = Federation::region_seed(cfg.sim.seed, region);
        if !sim.chaos.applies_to(region) {
            sim.chaos = ChaosPlan::reliable();
        }
        sim
    }

    /// Build the federation: `regions` hierarchies plus the bus. Bus
    /// endpoints are `NodeId(1 + r)` — they live in the bus's own
    /// address space, disjoint from every region network.
    pub fn new(cfg: FederationConfig) -> Federation {
        assert!(cfg.regions > 0, "a federation needs at least one region");
        let mut bus = Network::new(FailureModel::reliable(), splitmix(cfg.sim.seed ^ 0x0b05));
        bus.set_chaos(cfg.exchange_chaos.clone());
        // The ratio bound is the exchange's contract; the bus is always
        // metered so it holds without opting the whole run in.
        bus.set_metering(true);

        let mut sims = Vec::with_capacity(cfg.regions);
        let mut gateways = Vec::with_capacity(cfg.regions);
        for r in 0..cfg.regions {
            let region = RegionId(r as u64);
            let mut sim = RegionSim::new(Federation::region_config(&cfg, region), region);
            if cfg.meter_bytes {
                sim.network_mut().set_metering(true);
            }
            let endpoint = NodeId(1 + r as u64);
            bus.register(endpoint);
            gateways.push(ExchangeGateway::new(region, endpoint));
            sims.push(sim);
        }

        Federation {
            cfg,
            sims,
            gateways,
            bus,
            matched_kwh: 0.0,
        }
    }

    /// The configuration the federation was built from.
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
    }

    /// The region simulations, region-ordered.
    pub fn regions(&self) -> &[RegionSim] {
        &self.sims
    }

    /// The exchange gateways, region-ordered.
    pub fn gateways(&self) -> &[ExchangeGateway] {
        &self.gateways
    }

    /// Run one federated cycle: every region's full intra-region wave
    /// in parallel (one `run_each` task per region — regions share no
    /// mutable state), then the serial, region-ordered exchange splice.
    pub fn run_cycle(&mut self, c: usize) {
        let tasks: Vec<Task<'_, ()>> = self
            .sims
            .iter_mut()
            .map(|sim| Box::new(move || sim.run_cycle(c)) as Task<'_, ()>)
            .collect();
        self.cfg.sim.pool.run_each(tasks);

        self.exchange_splice(c);
    }

    /// The serial exchange splice: at `t0 + 22` (after the cycle's
    /// final prosumer pump, before the next cycle's submissions) each
    /// gateway publishes its TSO's exportable surplus, the bus pumps to
    /// quiescence (bounded rounds), and the federation settles the
    /// advisory netting for the cycle.
    fn exchange_splice(&mut self, c: usize) {
        let now = TimeSlot((c as i64) * SLOTS_PER_DAY as i64 + 22);
        self.bus.advance(now);

        let endpoints: Vec<NodeId> = self
            .gateways
            .iter()
            .map(ExchangeGateway::endpoint)
            .collect();
        for round in 0..EXCHANGE_ROUNDS {
            let mut activity = false;
            for r in 0..self.sims.len() {
                // Publishing is idempotent within the splice: after the
                // first round the diff against `exports` is empty, so
                // later rounds only pump resync traffic.
                let surplus = self.sims[r].exportable_surplus(now, EXPORT_CAP);
                let peers: Vec<NodeId> = endpoints
                    .iter()
                    .copied()
                    .filter(|&p| p != endpoints[r])
                    .collect();
                let published = self.gateways[r].publish(&surplus, &peers, now);
                activity |= !published.is_empty();
                self.bus.send_all(published);

                let inbox = self.bus.drain(endpoints[r], now);
                activity |= !inbox.is_empty();
                for env in inbox {
                    let replies = self.gateways[r].handle(env, now);
                    activity |= !replies.is_empty();
                    self.bus.send_all(replies);
                }
            }
            if !activity && round > 0 {
                break;
            }
        }

        // Advisory settlement: the energy the federation could shift
        // across borders this cycle — capped both by what regions are
        // short (baseline deficit) and by what was actually exported, at
        // each published macro offer's profile maximum.
        let deficit: f64 = self.sims.iter().map(|sim| sim.cycle_residual(c).0).sum();
        let offered: f64 = self
            .gateways
            .iter()
            .flat_map(|g| g.exports())
            .map(|o| o.profile().max_total_energy().kwh())
            .sum();
        self.matched_kwh += deficit.min(offered);
    }

    /// Whether every gateway's imported view of every peer matches that
    /// peer's current exports — the bus has fully propagated.
    pub fn exchange_converged(&self) -> bool {
        self.gateways.iter().enumerate().all(|(i, g)| {
            self.gateways
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .all(|(_, peer)| g.in_sync_with(peer.endpoint, &peer.exports))
        })
    }

    /// Point-in-time health rollup: one row per region plus the
    /// exchange row.
    pub fn stats(&self) -> FederationStats {
        FederationStats {
            regions: self.sims.iter().map(RegionSim::stats).collect(),
            exchange_bus: self.bus.stats(),
            exchange_streams: self.exchange_streams(),
        }
    }

    /// Every gateway's stream counters, summed.
    fn exchange_streams(&self) -> StreamStats {
        self.gateways
            .iter()
            .map(ExchangeGateway::stream_rollup)
            .sum()
    }

    /// Close every region and assemble the federation report.
    pub fn finish(self) -> FederationReport {
        let converged = self.exchange_converged();
        let exchange = ExchangeReport {
            deltas_published: self.gateways.iter().map(|g| g.deltas_published).sum(),
            snapshots_served: self.gateways.iter().map(|g| g.snapshots_served).sum(),
            matched_kwh: self.matched_kwh,
            imported_offers: self
                .gateways
                .iter()
                .map(ExchangeGateway::imported_count)
                .sum(),
            bus: self.bus.stats(),
            streams: self.exchange_streams(),
            converged,
        };
        FederationReport {
            regions: self.sims.into_iter().map(RegionSim::finish).collect(),
            exchange,
        }
    }

    /// Run a full federation: every cycle, then the report.
    pub fn run(cfg: FederationConfig) -> FederationReport {
        let cycles = cfg.sim.cycles;
        let mut fed = Federation::new(cfg);
        for c in 0..cycles {
            fed.run_cycle(c);
        }
        fed.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brp::SchedulerKind;
    use crate::simulation::simulate;
    use mirabel_core::exec::Pool;

    fn region_shape(cycles: usize) -> SimulationConfig {
        SimulationConfig {
            brps: 2,
            prosumers_per_brp: 4,
            cycles,
            offers_per_prosumer: 1,
            use_tso: true,
            scheduler: SchedulerKind::Greedy,
            budget_evaluations: 2_000,
            seed: 7,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn region_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..8)
            .map(|r| Federation::region_seed(7, RegionId(r)))
            .collect();
        let unique: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
        assert!(!seeds.contains(&7), "derived seeds must not echo the base");
    }

    #[test]
    fn federated_region_equals_solo_twin() {
        let cfg = FederationConfig {
            regions: 3,
            sim: region_shape(3),
            ..FederationConfig::default()
        };
        let report = Federation::run(cfg.clone());
        assert_eq!(report.regions.len(), 3);
        for r in 0..3 {
            let twin = simulate(Federation::region_config(&cfg, RegionId(r as u64)));
            assert_eq!(
                report.regions[r], twin,
                "region {r} inside the federation must equal its solo twin"
            );
        }
    }

    #[test]
    fn exchange_publishes_and_converges_on_reliable_bus() {
        let report = Federation::run(FederationConfig {
            regions: 2,
            sim: region_shape(3),
            ..FederationConfig::default()
        });
        assert!(report.exchange.converged, "reliable bus must converge");
        assert!(
            report.exchange.deltas_published > 0,
            "TSO pools change across cycles — deltas must flow"
        );
        assert!(report.exchange.bus.bytes_sent > 0, "bus is always metered");
        assert_eq!(report.exchange.streams.resyncs_requested, 0);

        // A 2-level region has no TSO, so it pools nothing to export.
        let two_level = Federation::run(FederationConfig {
            regions: 2,
            sim: SimulationConfig {
                use_tso: false,
                ..region_shape(3)
            },
            ..FederationConfig::default()
        });
        assert_eq!(two_level.exchange.deltas_published, 0);
    }

    #[test]
    fn exchange_self_heals_after_bus_storm() {
        // A loss storm on the bus alone for cycles 1–2, then a quiet
        // tail: the quiet cycles' fresh deltas expose the sequence gaps
        // and the resync snapshots re-anchor every stream. (Convergence
        // under *persistent* tail loss is impossible by construction —
        // a dropped final delta with no traffic after it is
        // undetectable — which is exactly why campaigns storm in
        // phases.)
        let stormy = Federation::run(FederationConfig {
            regions: 2,
            sim: region_shape(5),
            exchange_chaos: ChaosPlan::reliable().phase(crate::chaos::loss_storm(1, 3, 0.6)),
            ..FederationConfig::default()
        });
        assert!(
            stormy.exchange.bus.dropped > 0,
            "the storm must actually drop bus traffic: {:?}",
            stormy.exchange.bus
        );
        assert!(
            stormy.exchange.converged,
            "resync must re-anchor every stormed stream: {:?}",
            stormy.exchange
        );
        // The regions never see the bus storm.
        let clean = Federation::run(FederationConfig {
            regions: 2,
            sim: region_shape(5),
            ..FederationConfig::default()
        });
        assert_eq!(stormy.regions, clean.regions);
    }

    #[test]
    fn gateway_publish_diffs_and_empty_diff_is_silent() {
        let mut g = ExchangeGateway::new(RegionId(0), NodeId(1));
        let offer = FlexOffer::builder(5, 1)
            .earliest_start(TimeSlot(100))
            .latest_start(TimeSlot(110))
            .assignment_before(TimeSlot(99))
            .profile(mirabel_core::Profile::uniform(
                2,
                mirabel_core::EnergyRange::new(0.0, 2.0).unwrap(),
            ))
            .build()
            .unwrap();
        let peers = [NodeId(2)];
        let first = g.publish(std::slice::from_ref(&offer), &peers, TimeSlot(0));
        assert_eq!(first.len(), 1, "one envelope per peer");
        let again = g.publish(std::slice::from_ref(&offer), &peers, TimeSlot(1));
        assert!(again.is_empty(), "unchanged set publishes nothing");
        let retract = g.publish(&[], &peers, TimeSlot(2));
        assert_eq!(retract.len(), 1, "retraction publishes deletes");
        match &retract[0].message {
            Message::ExchangeOfferDeltas(updates) => {
                assert_eq!(updates, &vec![FlexOfferUpdate::Delete(FlexOfferId(5))]);
            }
            other => panic!("expected deltas, got {other:?}"),
        }
    }

    #[test]
    fn width_does_not_change_the_federation_report() {
        let base = FederationConfig {
            regions: 2,
            sim: region_shape(2),
            ..FederationConfig::default()
        };
        let narrow = Federation::run(FederationConfig {
            sim: SimulationConfig {
                pool: Pool::new(1),
                ..base.sim.clone()
            },
            ..base.clone()
        });
        let wide = Federation::run(FederationConfig {
            sim: SimulationConfig {
                pool: Pool::new(8),
                ..base.sim.clone()
            },
            ..base.clone()
        });
        assert_eq!(narrow, wide);
    }
}
