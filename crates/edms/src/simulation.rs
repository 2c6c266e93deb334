//! End-to-end balancing simulation of a three-level EDMS hierarchy.
//!
//! Reproduces the paper's Figure 1 narrative: flexible demand, aggregated
//! from many prosumers, is shifted into the hours where RES production is
//! available, reducing the absolute residual imbalance compared to the
//! traditional (open-contract) world — while remaining robust to message
//! loss and missed deadlines, which only convert offers back into open
//! contracts.
//!
//! ## The wave
//!
//! The paper repeats one process at every level, and the driver repeats
//! one traversal: each step of a cycle is a *wave* over one level's
//! nodes — the BRPs, the TSO, or the prosumers. A 3-level region has a
//! TSO; a 2-level region simply has none, and its BRPs plan and commit
//! on their own. Planning waves run bottom-up (a BRP's macro-offer
//! deltas must reach the TSO before it prepares); commit waves run
//! top-down (the TSO's assignments must reach the BRPs before they
//! disaggregate).
//!
//! The nodes of one level never message each other, only the levels
//! above and below, so a wave splits into three phases:
//!
//! 1. **Drain**, serially in node order: every node's due envelopes
//!    leave the network. This is the only step that needs
//!    `&mut Network`, and it consumes no randomness.
//! 2. **Drive**, on the shared [`Pool`]: each run of `chunk` nodes is
//!    one `run_each` task, in which every node handles its drained
//!    envelopes and then takes the wave's step with its own input
//!    (`prepare_plan`, `commit_plan`, a prosumer's `on_slot`). A planner
//!    level runs one node per task, so every BRP plans concurrently, and
//!    nested pool use inside a node (repair chains, flush shards) queues
//!    behind the level batch on the same lanes. Prosumers run in fixed
//!    chunks, so the task partition does not depend on the pool width.
//! 3. **Route**, serially in node order: each node's replies, then its
//!    step envelopes.
//!
//! Because routing is node-ordered and serial, the network's per-link
//! sequence numbers, failure rolls and delivery tie-breaks see exactly
//! the order a serial pump produces: pool width changes wall-clock time,
//! never a message, a plan, or a signature. The forecast refinement
//! sends nothing, so it needs no wave: every planner of the region
//! replans in one `run_each` batch.
//!
//! ## Forecasts are pub/sub all the way up
//!
//! Every planner — **including the TSO** — subscribes to the
//! [`ForecastHub`]. Each cycle publishes a day-ahead baseline; planners
//! prepare from their own polled event. A later intra-day *refinement*
//! (a few slots move, the rest stay put) reaches all levels as a typed
//! [`ForecastEvent`](mirabel_forecast::ForecastEvent), and each level
//! replans with change-proportional work — rebase the live evaluator on
//! exactly the changed slots, repair with parallel multi-start chains —
//! instead of rebuilding and resolving its scheduling problem. Execution
//! and the imbalance accounting use the refined baseline as ground truth.
//!
//! ## Closing report
//!
//! [`RegionSim::finish`] prices the run as Σ|baseline + flexible load|
//! over every executed slot, once for each of two worlds, and each
//! world's flexible load is one dense per-slot ledger (origin slot plus
//! a `Vec<f64>`):
//!
//! * the **shadow** ledger holds the open-contract execution (earliest
//!   start, maximum energy) of every offer ever submitted — what would
//!   have run with no scheduling at all. It is filled as offers are
//!   generated, in submission order;
//! * the **realized** ledger holds what the prosumers actually committed
//!   to (assignments and fallbacks). It is filled in `finish()` by one
//!   pass over each prosumer's committed schedules
//!   ([`ProsumerNode::for_each_committed_load`]), so the accounting costs
//!   O(offers × duration) however many cycles ran; the window loop only
//!   reads `baseline + ledger[slot]`.
//!
//! **Addition order is part of the result.** Float addition does not
//! associate, and `imbalance_before` / `imbalance_after` are compared
//! bit for bit between twin runs, so the realized ledger adds in the
//! order the reference does — [`ProsumerNode::flexible_load_at`] summed
//! over the prosumer list for each slot: within one prosumer its offers
//! in offer-id order into a partial of their own, then the partials in
//! prosumer-list order. Terms that are zero are skipped; they change no
//! sum. The tests hold `finish()` to that reference on random configs.

use crate::brp::{BrpConfig, BrpNode, SchedulerKind};
use crate::comm::{ChaosPlan, FailureModel, Network, NetworkStats};
use crate::datastore::OfferState;
use crate::federation::RegionStats;
use crate::message::Envelope;
use crate::prosumer::ProsumerNode;
use crate::runtime::{ChildPort, IslandedRound, Node, PlannerNode, RuntimeConfig};
use crate::tso::TsoNode;
use crate::wal::{NodeWal, WalConfig};
use crate::wire::{LinkHealthConfig, LinkHealthStats};
use mirabel_aggregate::AggregationParams;
use mirabel_core::exec::{Pool, Task};
use mirabel_core::{
    ActorId, EnergyRange, FlexOffer, NodeId, Price, Profile, RegionId, ScheduledFlexOffer, Slice,
    TimeSlot, SLOTS_PER_DAY,
};
use mirabel_forecast::ForecastHub;
use mirabel_schedule::MarketPrices;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::f64::consts::PI;
use std::iter::repeat;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of BRP nodes.
    pub brps: usize,
    /// Prosumers per BRP.
    pub prosumers_per_brp: usize,
    /// Planning cycles (one day each).
    pub cycles: usize,
    /// Flex-offers issued per prosumer per cycle.
    pub offers_per_prosumer: usize,
    /// Baseline network failure injection (active outside chaos phases).
    pub failure: FailureModel,
    /// Time-phased chaos schedule driven through the network as the
    /// simulation clock advances — loss storms, delay bursts,
    /// partition-then-heal. [`ChaosPlan::reliable`] disables it.
    pub chaos: ChaosPlan,
    /// Per-cycle probability that each prosumer toggles between online
    /// and offline right after the submission step (join/leave churn).
    /// Offline prosumers submit nothing; messages addressed to them
    /// dead-letter and replay when they re-register. Churn draws from
    /// its own RNG stream, so the same seed produces the same schedule
    /// whether or not chaos is injected — the basis of the campaigns'
    /// chaos-vs-baseline comparison.
    pub churn_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Route macro offers through a TSO (3-level) instead of scheduling
    /// at the BRPs (2-level).
    pub use_tso: bool,
    /// BRP scheduling algorithm.
    pub scheduler: SchedulerKind,
    /// Scheduling budget (cost evaluations per plan).
    pub budget_evaluations: usize,
    /// Fraction of baseline slots perturbed by the intra-day forecast
    /// refinement each cycle (0.0 disables refinements).
    pub refine_fraction: f64,
    /// Parallel multi-start chains per incremental repair.
    pub repair_chains: usize,
    /// Worker pool shared by every planning node in the hierarchy. The
    /// pool width never changes any result.
    pub pool: Pool,
    /// Attach an in-memory write-ahead log with this configuration to
    /// every BRP. Required for [`ChaosPhase::crashes`] phases to recover
    /// state: a crashed BRP rebuilds from snapshot + tail replay and
    /// resyncs its parent. With `None`, a scheduled crash is total
    /// amnesia — the node restarts cold and only deadline expiry plus
    /// the resync protocol limit the damage.
    ///
    /// [`ChaosPhase::crashes`]: crate::comm::ChaosPhase::crashes
    pub wal: Option<WalConfig>,
    /// Failure-detector horizons every BRP runs against its TSO link.
    /// The default (~2–3 silent day-cycles) never trips in a healthy
    /// hierarchy; islanding campaigns tighten it so a partitioned TSO is
    /// declared `Down` within the partition window.
    pub link_health: LinkHealthConfig,
}

impl Default for SimulationConfig {
    fn default() -> SimulationConfig {
        SimulationConfig {
            brps: 2,
            prosumers_per_brp: 5,
            cycles: 3,
            offers_per_prosumer: 2,
            failure: FailureModel::default(),
            chaos: ChaosPlan::reliable(),
            churn_fraction: 0.0,
            seed: 1,
            use_tso: false,
            scheduler: SchedulerKind::Greedy,
            budget_evaluations: 8_000,
            refine_fraction: 0.1,
            repair_chains: 4,
            pool: Pool::global().clone(),
            wal: None,
            link_health: LinkHealthConfig::default(),
        }
    }
}

/// Simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Flex-offers submitted by prosumers.
    pub offers_submitted: usize,
    /// Offers accepted by BRPs.
    pub accepted: usize,
    /// Offers rejected at acceptance time.
    pub rejected: usize,
    /// Offers executed under a schedule assignment.
    pub assigned: usize,
    /// Offers that fell back to the open contract.
    pub fallbacks: usize,
    /// Incremental replans triggered by forecast refinement events
    /// (across every hierarchy level, TSO included).
    pub replans: usize,
    /// Σ|residual| if every offer had run on the open contract.
    pub imbalance_before: f64,
    /// Σ|residual| with the realized (scheduled + fallback) execution.
    pub imbalance_after: f64,
    /// Network delivery counters.
    pub network: NetworkStats,
    /// Signature of the committed execution per cycle (stable micro
    /// offer ids, assignment flags, starts, per-slot energies).
    /// The chaos campaigns' convergence probe: after a storm plus a
    /// quiet period, these must return to the no-chaos run's values.
    pub plan_signatures: Vec<u64>,
    /// Unexpired offers still pooled at the TSO with no backing BRP
    /// export at the end of the run — stale ghosts a lost delta left
    /// behind that neither expiry nor resync cleaned up.
    pub phantom_offers: usize,
    /// Committed prosumer schedules that violate their originating
    /// offer's energy bounds (must be zero under any chaos).
    pub energy_violations: usize,
    /// Crash-restarts executed by the chaos schedule.
    pub crashes: usize,
    /// Islanded planning rounds the BRPs ran (cycle-then-node order):
    /// windows a BRP balanced locally because its TSO link was `Down`.
    /// Empty unless a fault actually severed a link long enough for the
    /// failure detectors to trip.
    pub islanded: Vec<IslandedRound>,
    /// Provisional macro assignments the TSO adopted at reconciliation
    /// (the islanded BRP's local decision stands).
    pub provisional_adopted: u64,
    /// Provisional macro assignments the TSO superseded (it had already
    /// assigned or dropped the offer on its side of the partition).
    pub provisional_superseded: u64,
}

impl SimulationReport {
    /// Relative imbalance reduction achieved by scheduling.
    pub fn imbalance_reduction(&self) -> f64 {
        if self.imbalance_before <= 0.0 {
            0.0
        } else {
            1.0 - self.imbalance_after / self.imbalance_before
        }
    }
}

/// Ground-truth baseline imbalance for one execution window: evening-
/// peaking non-flexible demand minus a midday RES bump (cf. Figure 1).
fn window_baseline(scale: f64, horizon: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..horizon)
        .map(|i| {
            let x = i as f64 / horizon as f64;
            let demand = 0.6 + 0.4 * (2.0 * PI * (x - 0.80)).cos();
            let res = 1.5 * (-((x - 0.5) * (x - 0.5)) / 0.02).exp();
            scale * (demand - res + rng.gen_range(-0.05..0.05))
        })
        .collect()
}

/// Generate one prosumer offer executing inside `[window, window+S)`.
fn gen_offer(
    id: u64,
    owner: ActorId,
    window: TimeSlot,
    horizon: u32,
    deadline: TimeSlot,
    rng: &mut StdRng,
) -> FlexOffer {
    let dur = rng.gen_range(2..=6u32);
    let base = rng.gen_range(0.5..2.5);
    let width = base * rng.gen_range(0.1..0.4);
    let profile = Profile::new(vec![Slice {
        duration: dur,
        energy: EnergyRange::new(base, base + width).expect("ordered"),
    }])
    .expect("non-empty");
    let es = rng.gen_range(0..(horizon - dur));
    let max_tf = horizon - dur - es;
    let tf = if max_tf == 0 {
        0
    } else {
        rng.gen_range(0..=max_tf)
    };
    FlexOffer::builder(id, owner.value())
        .earliest_start(window + es)
        .time_flexibility(tf)
        .assignment_before(deadline.min(window + es))
        .profile(profile)
        .unit_price(Price(0.02))
        .build()
        .expect("generated offers are valid")
}

/// Prosumers handled per task in a prosumer wave. Fixed (not derived
/// from pool width) so the task partition — and therefore every result
/// — is identical at any width; 64 keeps per-task dispatch cost
/// negligible against hundreds of handled envelopes.
const PROSUMER_CHUNK: usize = 64;

/// The TSO's node id: above the BRPs (`1..=brps`) and below the
/// prosumers (above 10_000), so no id collides with it at any scale.
const TSO: NodeId = NodeId(9_999);

/// One wave over `nodes` at `now` (see "The wave" in the module docs):
/// drain every inbox serially in node order; drive runs of `chunk` nodes
/// on the pool, each node handling its inbox and then taking `step` with
/// its own input; route every node's replies, then its step envelopes,
/// in node order.
fn wave<N: Node + Send, T: Send>(
    pool: &Pool,
    network: &mut Network,
    nodes: &mut [N],
    chunk: usize,
    now: TimeSlot,
    inputs: impl IntoIterator<Item = T>,
    step: impl Fn(&mut N, T) -> Vec<Envelope> + Sync,
) {
    network.advance(now);
    let inboxes: Vec<Vec<Envelope>> = nodes
        .iter()
        .map(|node| network.drain(node.node_id(), now))
        .collect();
    let mut work = inboxes.into_iter().zip(inputs);
    let step = &step;
    let mut tasks: Vec<Task<Vec<Envelope>>> = Vec::new();
    for run in nodes.chunks_mut(chunk) {
        let run_work: Vec<_> = work.by_ref().take(run.len()).collect();
        tasks.push(Box::new(move || {
            let mut out = Vec::new();
            for (node, (inbox, input)) in run.iter_mut().zip(run_work) {
                for envelope in inbox {
                    out.extend(node.handle(envelope, now));
                }
                out.extend(step(node, input));
            }
            out
        }));
    }
    for out in pool.run_each(tasks) {
        network.send_all(out);
    }
}

/// A prosumer's step: its clock moves to `slot`, if it has one. A
/// prosumer never replies.
fn tick(prosumer: &mut ProsumerNode, slot: Option<TimeSlot>) -> Vec<Envelope> {
    if let Some(slot) = slot {
        prosumer.on_slot(slot);
    }
    Vec::new()
}

/// A planner's step in the commit wave: disaggregate its live plan at
/// `now` (nothing without one).
fn commit<P: ChildPort>(node: &mut PlannerNode<P>, now: TimeSlot) -> Vec<Envelope> {
    node.commit_plan(now)
        .map(|(out, _)| out)
        .unwrap_or_default()
}

/// A planner's task in the refinement batch: its forecast event is
/// polled now, and the task replans on it. Yields whether it replanned.
fn replan<'a, P: ChildPort>(
    node: &'a mut PlannerNode<P>,
    hub: &ForecastHub,
    subscriptions: &BTreeMap<NodeId, u64>,
) -> Task<'a, bool> {
    let event = hub.poll(subscriptions[&node.id]);
    Box::new(move || event.is_some_and(|e| node.on_forecast_event(&e).is_some()))
}

/// Signature of the committed execution of one cycle's window, over the
/// (ordered) prosumer list. Uses the stable sim-assigned micro offer
/// ids, so two runs that converge to the same plans hash equal.
///
/// Mixes whole 64-bit words (multiply-xorshift per word) rather than
/// FNV-ing individual bytes: the signature is an equality probe between
/// twin runs, not a digest, and this sweep over every committed offer
/// runs once per cycle on the simulation's hot path.
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

/// Signed flexible load per slot (kWh, consumption positive), dense over
/// the slot range it has been asked to hold: an origin slot plus one
/// `f64` per slot from there, grown on demand in either direction. The
/// closing report keeps two — see "Closing report" in the module docs.
#[derive(Debug, Default)]
struct SlotLedger {
    origin: i64,
    load: Vec<f64>,
}

impl SlotLedger {
    /// The `len` slots from `start`, zero where nothing was added yet.
    fn slots_mut(&mut self, start: TimeSlot, len: usize) -> &mut [f64] {
        let from = start.index();
        if self.load.is_empty() {
            self.origin = from;
        }
        if from < self.origin {
            let pad = (self.origin - from) as usize;
            self.load.splice(0..0, std::iter::repeat_n(0.0, pad));
            self.origin = from;
        }
        let at = (from - self.origin) as usize;
        if self.load.len() < at + len {
            self.load.resize(at + len, 0.0);
        }
        &mut self.load[at..at + len]
    }

    /// Slot `t` alone.
    fn slot_mut(&mut self, t: TimeSlot) -> &mut f64 {
        &mut self.slots_mut(t, 1)[0]
    }

    /// The load at `t`; zero outside the range held.
    fn at(&self, t: TimeSlot) -> f64 {
        usize::try_from(t.index() - self.origin)
            .ok()
            .and_then(|i| self.load.get(i))
            .copied()
            .unwrap_or(0.0)
    }
}

/// One region's entire hierarchy plus the state its cycle loop carries:
/// the unit a [`Federation`](crate::federation::Federation) drives on
/// its own [`Pool`] lane, and what [`simulate`] runs exactly one of.
///
/// A region owns its own [`Network`], node set, RNG streams and
/// accounting — regions share **no** mutable state, which is why entire
/// intra-region waves can run concurrently across regions and why a
/// region inside a federation is bit-identical to the same region run
/// solo through [`simulate`]. The region id is stamped onto every
/// routed envelope (and thus every WAL record) but never consulted by
/// any planning or randomness decision.
#[derive(Debug)]
pub struct RegionSim {
    cfg: SimulationConfig,
    region: RegionId,
    rng: StdRng,
    churn_rng: StdRng,
    network: Network,
    /// The TSO of a 3-level region; a 2-level region has none.
    tso: Option<TsoNode>,
    brps: Vec<BrpNode>,
    prosumers: Vec<ProsumerNode>,
    hub: ForecastHub,
    subscriptions: BTreeMap<NodeId, u64>,
    next_offer_id: u64,
    offers_submitted: usize,
    replans: usize,
    crashes: usize,
    /// Shadow open-contract execution of every submitted offer, added
    /// in submission order.
    shadow_load: SlotLedger,
    /// The ground-truth baseline of every executed window, by start slot.
    baselines: Vec<(TimeSlot, Vec<f64>)>,
    plan_signatures: Vec<u64>,
    /// Islanded planning rounds drained from the BRPs, cycle-then-node
    /// ordered.
    islanded: Vec<IslandedRound>,
    /// Prosumer indices currently churned out of the network.
    offline: BTreeSet<usize>,
    scale: f64,
    /// The TSO's pooled macro offers, snapshotted between the planning
    /// and commit waves of the last cycle — the only point in a cycle
    /// where the region's exportable surplus exists (commit consumes
    /// assigned offers, the deadline expires the rest). Read-only
    /// capture: it never feeds back into planning, so a federated
    /// region stays bit-identical to its solo twin.
    export_pool: Vec<FlexOffer>,
}

impl RegionSim {
    /// Build one region's hierarchy. `region` is stamped onto routed
    /// envelopes but has no behavioural effect; `cfg.seed` alone
    /// determines every result (the federation derives a distinct seed
    /// per region before calling this).
    pub fn new(cfg: SimulationConfig, region: RegionId) -> RegionSim {
        let s = SLOTS_PER_DAY;
        let rng = StdRng::seed_from_u64(cfg.seed);
        // Churn draws from its own stream: the join/leave schedule must
        // be a function of the seed alone, identical whether or not
        // chaos is injected, and must not perturb offer generation.
        let churn_rng = StdRng::seed_from_u64(cfg.seed ^ 0x00c0_ffee);
        let mut network = Network::new(cfg.failure, cfg.seed ^ 0xabcd);
        network.set_region(region);
        network.set_chaos(cfg.chaos.clone());

        // --- Topology -------------------------------------------------
        let tso = cfg.use_tso.then(|| {
            network.register(TSO);
            // The TSO gets the same durability treatment as the BRPs:
            // with a WAL attached, a scheduled TSO crash recovers from
            // snapshot + tail replay and re-anchors every BRP stream.
            let mut tso = new_tso(&cfg);
            if let Some(wal_config) = cfg.wal {
                tso.attach_wal(NodeWal::in_memory(wal_config));
            }
            tso
        });

        let brps: Vec<BrpNode> = (0..cfg.brps)
            .map(|b| {
                let id = NodeId(1 + b as u64);
                network.register(id);
                let mut brp = new_brp(&cfg, id);
                if let Some(wal_config) = cfg.wal {
                    brp.attach_wal(NodeWal::in_memory(wal_config));
                }
                brp
            })
            .collect();

        // Forecast pub/sub: EVERY planner — the BRPs, then the TSO if
        // there is one — subscribes to baseline updates for the planning
        // horizon; refinements arrive as typed slot-range events.
        let hub = ForecastHub::new();
        let subscriptions: BTreeMap<NodeId, u64> = brps
            .iter()
            .map(|b| b.id)
            .chain(tso.as_ref().map(|t| t.id))
            .map(|id| (id, hub.subscribe(s as usize, 0.0)))
            .collect();

        // Prosumer ids live above 10_000, indexed globally — disjoint
        // from the BRPs (1..=brps) and the TSO (9_999) at ANY scale. The
        // old `1_000 * (1 + b) + k` scheme collided across BRPs beyond
        // 1k prosumers each, and at 125k per BRP a prosumer landed on
        // the TSO's id and silently drained its macro-offer deltas.
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

        let total_flex_per_window =
            (cfg.brps * cfg.prosumers_per_brp * cfg.offers_per_prosumer) as f64 * 1.8 * 4.0;
        let scale = (total_flex_per_window / s as f64).max(0.5);
        let cycles = cfg.cycles;

        RegionSim {
            cfg,
            region,
            rng,
            churn_rng,
            network,
            tso,
            brps,
            prosumers,
            hub,
            subscriptions,
            next_offer_id: 1,
            offers_submitted: 0,
            replans: 0,
            crashes: 0,
            shadow_load: SlotLedger::default(),
            baselines: Vec::new(),
            plan_signatures: Vec::with_capacity(cycles),
            islanded: Vec::new(),
            offline: BTreeSet::new(),
            scale,
            export_pool: Vec::new(),
        }
    }

    /// The region this hierarchy belongs to.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The region's network (stats rollups, metering toggles).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the region's network (the federation enables
    /// byte metering through this before the first cycle).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Per-cycle committed-execution signatures so far.
    pub fn plan_signatures(&self) -> &[u64] {
        &self.plan_signatures
    }

    /// Point-in-time health of the region: its network, the TSO's
    /// per-BRP stream counters, and the BRPs' dedup and TSO-link counters
    /// — one row of the federation rollup.
    pub fn stats(&self) -> RegionStats {
        let mut link_health = LinkHealthStats::default();
        for b in &self.brps {
            link_health.absorb(&b.link_health_stats());
        }
        RegionStats {
            region: self.region,
            network: self.network.stats(),
            dead_letters: self.network.dead_letters().len(),
            streams: self
                .brps
                .iter()
                .flat_map(|b| self.tso.as_ref().map(|t| t.stream_stats(b.id)))
                .sum(),
            dedup_duplicates: self.brps.iter().map(BrpNode::dedup_duplicates).sum(),
            link_health,
            unacked_flushes: self.brps.iter().map(BrpNode::unacked_flushes).sum(),
        }
    }

    /// The macro offers this region's TSO can export across the
    /// federation: the pool snapshot taken between the last cycle's
    /// planning and commit waves, minus anything expired by `now`, in
    /// export-id space, ascending id, capped at `cap`. Empty in a 2-level
    /// region (no TSO, nothing pooled to export).
    pub fn exportable_surplus(&self, now: TimeSlot, cap: usize) -> Vec<FlexOffer> {
        self.export_pool
            .iter()
            .filter(|o| !o.is_expired(now))
            .take(cap)
            .cloned()
            .collect()
    }

    /// `(deficit, surplus)` kWh of cycle `c`'s ground-truth baseline:
    /// the pre-flexibility residual the exchange's advisory netting
    /// matches imported macro offers against. Baseline-only by design —
    /// O(slots), no prosumer walk on the serial exchange splice.
    pub fn cycle_residual(&self, c: usize) -> (f64, f64) {
        let Some((_, baseline)) = self.baselines.get(c) else {
            return (0.0, 0.0);
        };
        let mut deficit = 0.0;
        let mut surplus = 0.0;
        for &b in baseline {
            if b > 0.0 {
                deficit += b;
            } else {
                surplus -= b;
            }
        }
        (deficit, surplus)
    }

    /// Run one planning cycle (one simulated day).
    pub fn run_cycle(&mut self, c: usize) {
        let s = SLOTS_PER_DAY;
        let RegionSim {
            cfg,
            rng,
            churn_rng,
            network,
            tso,
            brps,
            prosumers,
            hub,
            subscriptions,
            next_offer_id,
            offers_submitted,
            replans,
            crashes,
            shadow_load,
            baselines,
            plan_signatures,
            islanded,
            offline,
            scale,
            export_pool,
            ..
        } = self;
        let pool = &cfg.pool;
        // The TSO level: empty in a 2-level region.
        let tso_level = tso.as_mut_slice();
        let scale = *scale;
        let t0 = TimeSlot((c as i64) * s as i64);
        let window = t0 + s; // next-day execution window
        let deadline = t0 + s / 2;
        network.advance(t0);

        // 1. Prosumers issue offers for the next window. Churned-out
        //    prosumers are gone: they submit nothing.
        for (i, p) in prosumers.iter_mut().enumerate() {
            if offline.contains(&i) {
                continue;
            }
            for _ in 0..cfg.offers_per_prosumer {
                let offer = gen_offer(*next_offer_id, p.actor, window, s, deadline, rng);
                *next_offer_id += 1;
                *offers_submitted += 1;
                // Shadow world: open contract (earliest start, max energy).
                let open = ScheduledFlexOffer::open_contract(&offer);
                let sign = offer.demand_sign();
                let slots = shadow_load.slots_mut(open.start, open.slot_energies.len());
                for (load, e) in slots.iter_mut().zip(&open.slot_energies) {
                    *load += sign * e.kwh();
                }
                let env = p.submit(offer, t0);
                network.route(env);
            }
        }

        // 1b. Join/leave churn, rolled for every prosumer every cycle so
        //     the schedule is a pure function of the seed. A leaver
        //     departs right after submitting — the interesting case:
        //     its accept/reject and assignment messages dead-letter and
        //     replay if it comes back. A joiner re-registers (replaying
        //     its dead letters) and first expires anything that went
        //     stale while it was away, so a replayed late assignment is
        //     ignored identically in chaos and baseline runs.
        if cfg.churn_fraction > 0.0 {
            for (i, p) in prosumers.iter_mut().enumerate() {
                if !churn_rng.gen_bool(cfg.churn_fraction.clamp(0.0, 1.0)) {
                    continue;
                }
                if offline.remove(&i) {
                    network.register(p.id);
                    p.on_slot(t0);
                } else {
                    offline.insert(i);
                    network.deregister(p.id);
                }
            }
        }

        // 1c. Crash-restarts scheduled for this cycle, BRP or TSO alike:
        //     the node's entire in-memory state is destroyed; only its
        //     WAL store (the "disk") survives. Recovery mirrors real node
        //     churn: deregister (queued messages — including this round's
        //     still-undrained submissions — dead-letter), rebuild from
        //     snapshot + tail replay, re-register (the dead letters
        //     replay into the fresh inbox), and route the recovery
        //     envelopes — a BRP's resync snapshot re-anchors the TSO's
        //     pooled view of it, a TSO's resync requests are each
        //     answered with a full export snapshot that re-seeds the
        //     stream. With no WAL attached the crash is total amnesia:
        //     the node restarts cold and re-learns its pool only through
        //     resyncs and fresh traffic.
        for node in cfg.chaos.crashes_between(t0, t0 + s) {
            let recovery_out = if let Some(brp) = brps.iter_mut().find(|b| b.id == node) {
                restart(brp, new_brp(cfg, node), cfg, t0)
            } else if let Some(tso) = tso_level.iter_mut().find(|t| t.id == node) {
                restart(tso, new_tso(cfg), cfg, t0)
            } else {
                continue;
            };
            *crashes += 1;
            network.deregister(node);
            network.register(node);
            network.send_all(recovery_out);
        }

        // 2. Planning wave, bottom-up: the day-ahead baseline forecast is
        //    published once; each level pumps its inbox (submissions at
        //    the BRPs, macro-offer deltas at the TSO) and prepares a live
        //    plan from its own pub/sub event, polled in node order (the
        //    only hub step). A level's upward envelopes are in flight
        //    before the next level pumps.
        let forecast0 = window_baseline(scale, s as usize, rng);
        let prices = MarketPrices::flat(s as usize, 0.09, 0.02, scale * 0.4);
        let penalties = vec![0.2; s as usize];
        hub.publish(&forecast0);
        let event = |id| {
            hub.poll(subscriptions[&id])
                .expect("initial publish always notifies")
        };
        let now = t0 + 4u32;
        let events: Vec<_> = brps.iter().map(|b| event(b.id)).collect();
        wave(pool, network, brps, 1, now, events, |brp, e| {
            let (p, q) = (prices.clone(), penalties.clone());
            brp.prepare_plan(now, window, e.forecast, p, q).0
        });
        let now = t0 + 8u32;
        let events: Vec<_> = tso_level.iter().map(|t| event(t.id)).collect();
        wave(pool, network, tso_level, 1, now, events, |tso, e| {
            let (p, q) = (prices.clone(), penalties.clone());
            tso.prepare_plan(now, window, e.forecast, p, q).0
        });

        // 2b. Prosumers see accept/reject decisions.
        let (t2, idle) = (t0 + 8u32, repeat(None));
        wave(pool, network, prosumers, PROSUMER_CHUNK, t2, idle, tick);

        // 3. Intra-day forecast refinement: a few slots move (RES ramps,
        //    weather fronts), the rest stay put. The refined forecast is
        //    the execution ground truth; every level receives it as a
        //    typed change event and replans incrementally — O(changed),
        //    no problem reconstruction anywhere in the hierarchy.
        let baseline = if cfg.refine_fraction > 0.0 {
            let mut refined = forecast0.clone();
            for v in refined.iter_mut() {
                if rng.gen_bool(cfg.refine_fraction.clamp(0.0, 1.0)) {
                    *v += scale * rng.gen_range(-0.3..0.3);
                }
            }
            hub.publish(&refined);
            // Replans are node-local (no envelopes, no network), so the
            // whole hierarchy repairs concurrently in one batch: poll
            // every subscription serially (BRPs, then the TSO), then
            // drive every node.
            let tasks: Vec<_> = brps
                .iter_mut()
                .map(|brp| replan(brp, hub, subscriptions))
                .chain(tso_level.iter_mut().map(|t| replan(t, hub, subscriptions)))
                .collect();
            *replans += pool
                .run_each(tasks)
                .into_iter()
                .filter(|&replanned| replanned)
                .count();
            refined
        } else {
            forecast0
        };
        baselines.push((window, baseline.clone()));

        // 3b. Snapshot the TSO's pooled macro offers for the federation
        //     exchange: this — after planning and refinement, before
        //     commit — is the only point in a cycle where the region's
        //     exportable surplus exists (commit consumes assigned
        //     offers; the deadline expires the rest by cycle end). The
        //     snapshot is read-only and RNG-free: planning never sees it.
        export_pool.clear();
        for tso in tso_level.iter() {
            export_pool.extend(tso.pool.values().map(|(offer, _)| offer.clone()));
        }

        // 4. Commit wave, top-down: the TSO disaggregates its (possibly
        //    repaired) plan into per-BRP assignments; each BRP pumps
        //    those into micro assignments, or commits its own local plan
        //    in a 2-level region. Commit times are staggered 4 slots a
        //    level, top-down, so a level's assignments are deliverable
        //    before the level below pumps.
        let now = t0 + 12u32;
        wave(pool, network, tso_level, 1, now, repeat(now), commit);
        let now = now + 4 * tso_level.len() as u32;
        wave(pool, network, brps, 1, now, repeat(now), commit);

        // 5. Prosumers receive assignments; deadline passes at window
        //    start — unassigned offers fall back to the open contract.
        //    A churned-out prosumer's clock stands still.
        let t5 = t0 + 20u32;
        let slots = (0..prosumers.len()).map(|i| (!offline.contains(&i)).then_some(window));
        wave(pool, network, prosumers, PROSUMER_CHUNK, t5, slots, tick);

        plan_signatures.push(plan_signature(prosumers, window, s));

        // 6. Collect this cycle's islanded planning rounds, in BRP
        //    order — the chaos invariant checker audits each window's
        //    committed cost against its local-only optimum.
        for b in brps.iter_mut() {
            islanded.extend(b.take_islanded_rounds());
        }
    }

    /// Close the run and produce its report: bring churned-out
    /// prosumers back for the closing sweep, account imbalances against
    /// the shadow open-contract world, and run the invariant probes.
    pub fn finish(mut self) -> SimulationReport {
        self.closing_sweep();
        self.report()
    }

    /// The slot after the last executed window.
    fn end(&self) -> TimeSlot {
        TimeSlot((self.cfg.cycles as i64 + 1) * SLOTS_PER_DAY as i64)
    }

    /// Closing sweep (churn only): bring every churned-out prosumer back
    /// so the run's accounting is closed — anything still pending falls
    /// back, then the replayed dead letters drain. Without churn nothing
    /// is offline and this does nothing.
    fn closing_sweep(&mut self) {
        if self.cfg.churn_fraction <= 0.0 {
            return;
        }
        let end = self.end();
        let RegionSim {
            cfg,
            network,
            prosumers,
            offline,
            ..
        } = self;
        network.advance(end);
        for (i, p) in prosumers.iter_mut().enumerate() {
            if offline.remove(&i) {
                network.register(p.id);
            }
            p.on_slot(end);
        }
        let (pool, idle) = (&cfg.pool, repeat(None));
        wave(pool, network, prosumers, PROSUMER_CHUNK, end, idle, tick);
    }

    /// The report of a swept run: imbalance accounting from the two slot
    /// ledgers (module docs, "Closing report"), offer-state tallies, and
    /// the invariant probes.
    fn report(self) -> SimulationReport {
        let end = self.end();
        let prosumers = &self.prosumers;
        let brps = &self.brps;
        let tso = self.tso.as_ref();

        // --- Accounting -------------------------------------------------
        let realized = realized_load(prosumers);
        let mut imbalance_before = 0.0;
        let mut imbalance_after = 0.0;
        for (window, baseline) in &self.baselines {
            for (i, &b) in baseline.iter().enumerate() {
                let t = *window + i as u32;
                imbalance_before += (b + self.shadow_load.at(t)).abs();
                imbalance_after += (b + realized.at(t)).abs();
            }
        }

        let mut accepted = 0;
        let mut rejected = 0;
        for b in brps {
            let counts = b.store.state_counts();
            accepted += counts.of(OfferState::Accepted)
                + counts.of(OfferState::Assigned)
                + counts.of(OfferState::Provisional)
                + counts.of(OfferState::Expired);
            rejected += counts.of(OfferState::Rejected);
        }

        // Invariant probes. Phantom offers: anything still pooled at the
        // TSO that no BRP exports and whose deadline has not already
        // passed (the latter are cleaned by the next expiry sweep by
        // construction).
        let phantom_offers = tso.map_or(0, |tso| {
            let exported: BTreeSet<u64> = brps
                .iter()
                .flat_map(|b| b.exported_offer_ids())
                .map(|id| id.value())
                .collect();
            tso.pool
                .iter()
                .filter(|(id, _)| !exported.contains(&id.value()))
                .filter(|(_, (offer, _))| !offer.is_expired(end))
                .count()
        });
        let energy_violations = prosumers.iter().map(|p| p.energy_violations(1e-6)).sum();
        let (provisional_adopted, provisional_superseded) =
            tso.map_or((0, 0), TsoNode::provisional_audit);

        SimulationReport {
            offers_submitted: self.offers_submitted,
            accepted,
            rejected,
            assigned: prosumers.iter().map(|p| p.assigned_count()).sum(),
            fallbacks: prosumers.iter().map(|p| p.fallback_count()).sum(),
            replans: self.replans,
            imbalance_before,
            imbalance_after,
            network: self.network.stats(),
            plan_signatures: self.plan_signatures,
            phantom_offers,
            energy_violations,
            crashes: self.crashes,
            islanded: self.islanded,
            provisional_adopted,
            provisional_superseded,
        }
    }
}

/// The realized flexible load of a run, per slot: one pass over every
/// prosumer's committed schedules. A prosumer's offers first add up in a
/// partial of its own (offer-id order), and the partials then join the
/// total in prosumer-list order — the addition order of summing
/// [`ProsumerNode::flexible_load_at`] over the list for each slot, which
/// float addition needs to give the same bits.
fn realized_load(prosumers: &[ProsumerNode]) -> SlotLedger {
    let mut total = SlotLedger::default();
    let mut partial = SlotLedger::default();
    let mut touched: Vec<TimeSlot> = Vec::new();
    for p in prosumers {
        p.for_each_committed_load(|t, kwh| {
            *partial.slot_mut(t) += kwh;
            touched.push(t);
        });
        // A slot two of the prosumer's offers share is listed twice: the
        // first visit moves the whole partial, the second adds the zero
        // left behind.
        for t in touched.drain(..) {
            *total.slot_mut(t) += std::mem::take(partial.slot_mut(t));
        }
    }
    total
}

/// Crash `node` — only its WAL store survives — and rebuild it as `fresh`
/// from that store; with no WAL the crash is total amnesia. Returns the
/// recovery envelopes to route.
fn restart<P: ChildPort>(
    node: &mut PlannerNode<P>,
    fresh: PlannerNode<P>,
    cfg: &SimulationConfig,
    now: TimeSlot,
) -> Vec<Envelope> {
    let store = node.take_wal().map(NodeWal::into_store).zip(cfg.wal);
    let (rebuilt, out) = match store {
        Some((store, wal)) => fresh
            .recover_from(store, wal, now)
            .expect("in-memory WAL stores cannot fail"),
        None => (fresh, Vec::new()),
    };
    *node = rebuilt;
    out
}

/// One BRP builder for initial construction AND crash-restarts: a
/// recovered BRP must be configured exactly like the node it replaces.
fn new_brp(cfg: &SimulationConfig, id: NodeId) -> BrpNode {
    let config = BrpConfig {
        scheduler: cfg.scheduler,
        budget_evaluations: cfg.budget_evaluations,
        forward_to_tso: cfg.use_tso,
        repair_chains: cfg.repair_chains.max(1),
        pool: cfg.pool.clone(),
        link_health: cfg.link_health,
        ..BrpConfig::default()
    };
    BrpNode::new(id, cfg.use_tso.then_some(TSO), config)
}

/// The TSO's builder, likewise.
fn new_tso(cfg: &SimulationConfig) -> TsoNode {
    let runtime = RuntimeConfig {
        budget_evaluations: cfg.budget_evaluations,
        repair_chains: cfg.repair_chains.max(1),
        pool: cfg.pool.clone(),
        ..RuntimeConfig::default()
    };
    TsoNode::with_config(TSO, AggregationParams::p0(), runtime)
}

/// Run the simulation: one [`RegionSim`] (the implicit
/// [`RegionId::DEFAULT`] region), every cycle, then the closing report.
pub fn simulate(cfg: SimulationConfig) -> SimulationReport {
    let cycles = cfg.cycles;
    let mut sim = RegionSim::new(cfg, RegionId::DEFAULT);
    for c in 0..cycles {
        sim.run_cycle(c);
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{Federation, FederationConfig};
    use proptest::prelude::*;

    #[test]
    fn two_level_scheduling_reduces_imbalance() {
        let report = simulate(SimulationConfig::default());
        assert_eq!(report.offers_submitted, 2 * 5 * 2 * 3);
        assert!(report.assigned > 0, "no assignments: {report:?}");
        assert!(
            report.imbalance_after < report.imbalance_before,
            "after {} >= before {}",
            report.imbalance_after,
            report.imbalance_before
        );
        assert!(report.imbalance_reduction() > 0.0);
    }

    #[test]
    fn three_level_hierarchy_works() {
        let report = simulate(SimulationConfig {
            use_tso: true,
            ..SimulationConfig::default()
        });
        assert!(report.assigned > 0, "TSO path produced no assignments");
        assert!(report.imbalance_after < report.imbalance_before);
    }

    #[test]
    fn three_level_hierarchy_replans_at_the_tso() {
        // In 3-level mode the BRPs forward deltas instead of holding
        // live plans, so every incremental replan happens at the TSO —
        // which subscribes to the hub like any BRP and reacts to each
        // cycle's refinement event.
        let report = simulate(SimulationConfig {
            use_tso: true,
            seed: 9,
            ..SimulationConfig::default()
        });
        assert!(
            report.replans > 0,
            "TSO should replan on refinements: {report:?}"
        );
        assert!(report.assigned > 0);
    }

    #[test]
    fn total_message_loss_degrades_gracefully() {
        let report = simulate(SimulationConfig {
            failure: FailureModel::drop(1.0),
            ..SimulationConfig::default()
        });
        // nothing assigned, everything falls back — but nothing crashes
        assert_eq!(report.assigned, 0);
        assert_eq!(report.fallbacks, report.offers_submitted);
        // realized load equals the open-contract shadow world
        assert!((report.imbalance_after - report.imbalance_before).abs() < 1e-6);
    }

    #[test]
    fn partial_loss_lands_between_extremes() {
        let lossless = simulate(SimulationConfig {
            seed: 11,
            ..SimulationConfig::default()
        });
        let lossy = simulate(SimulationConfig {
            seed: 11,
            failure: FailureModel::drop(0.4),
            ..SimulationConfig::default()
        });
        assert!(lossy.fallbacks > 0);
        assert!(lossy.assigned < lossless.assigned + lossless.fallbacks);
        assert!(lossy.network.dropped > 0);
        // every offer ends in exactly one terminal state
        assert_eq!(
            lossy.assigned + lossy.fallbacks,
            lossy.offers_submitted,
            "offer conservation: {lossy:?}"
        );
    }

    #[test]
    fn offer_conservation_without_failures() {
        let r = simulate(SimulationConfig {
            seed: 23,
            cycles: 2,
            ..SimulationConfig::default()
        });
        assert_eq!(r.assigned + r.fallbacks, r.offers_submitted);
        assert_eq!(r.accepted + r.rejected, r.offers_submitted);
    }

    #[test]
    fn offer_conservation_with_tso_and_loss() {
        // The delta wire self-heals under loss: a dropped MacroOfferDeltas
        // envelope leaves ghost/stale entries in the TSO pool only until
        // their assignment deadline (TSO-side expiry), and every offer
        // still terminates exactly once (assignment or open-contract
        // fallback) — the paper's graceful-degradation guarantee at
        // level 3.
        for drop in [0.2, 0.5] {
            let r = simulate(SimulationConfig {
                seed: 37,
                use_tso: true,
                cycles: 4,
                failure: FailureModel::drop(drop),
                ..SimulationConfig::default()
            });
            assert_eq!(
                r.assigned + r.fallbacks,
                r.offers_submitted,
                "conservation at drop {drop}: {r:?}"
            );
        }
    }

    #[test]
    fn offer_conservation_with_tso_and_delays() {
        let r = simulate(SimulationConfig {
            seed: 29,
            use_tso: true,
            failure: FailureModel::delay(3),
            ..SimulationConfig::default()
        });
        assert_eq!(r.assigned + r.fallbacks, r.offers_submitted);
        assert!(r.assigned > 0, "delayed TSO path assigned nothing: {r:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = simulate(SimulationConfig {
            seed: 5,
            ..SimulationConfig::default()
        });
        let b = simulate(SimulationConfig {
            seed: 5,
            ..SimulationConfig::default()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_per_seed_with_tso_and_delay() {
        let mk = || {
            simulate(SimulationConfig {
                seed: 31,
                use_tso: true,
                failure: FailureModel::delay(2),
                ..SimulationConfig::default()
            })
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn forecast_refinements_trigger_incremental_replans() {
        let report = simulate(SimulationConfig {
            seed: 7,
            ..SimulationConfig::default()
        });
        assert!(report.replans > 0, "refinements should replan: {report:?}");
        assert!(report.imbalance_after < report.imbalance_before);
    }

    #[test]
    fn disabling_refinement_means_no_replans() {
        let report = simulate(SimulationConfig {
            seed: 7,
            refine_fraction: 0.0,
            ..SimulationConfig::default()
        });
        assert_eq!(report.replans, 0);
        assert!(report.assigned > 0);
    }

    /// Run `cfg` to the end and hold its closing report to the reference
    /// it replaced, bit for bit: a per-slot map of open contracts filled
    /// offer by offer, the realized load of a slot as
    /// `flexible_load_at` summed over the prosumer list, and every state
    /// count as a filter over the latest-state map.
    fn checked_report(cfg: SimulationConfig) -> SimulationReport {
        let cycles = cfg.cycles;
        let mut sim = RegionSim::new(cfg, RegionId::DEFAULT);
        for c in 0..cycles {
            sim.run_cycle(c);
        }
        sim.closing_sweep();

        // A slot only ever sees one cycle's offers, so prosumer-list then
        // offer-id order is submission order for every slot.
        let mut shadow: BTreeMap<i64, f64> = BTreeMap::new();
        for offer in sim.prosumers.iter().flat_map(|p| p.submitted_offers()) {
            let open = ScheduledFlexOffer::open_contract(offer);
            for (i, e) in open.slot_energies.iter().enumerate() {
                *shadow.entry(open.start.index() + i as i64).or_insert(0.0) +=
                    offer.demand_sign() * e.kwh();
            }
        }
        let realized = realized_load(&sim.prosumers);
        let (mut before, mut after) = (0.0, 0.0);
        for (window, baseline) in &sim.baselines {
            for (i, &b) in baseline.iter().enumerate() {
                let t = *window + i as u32;
                let open = shadow.get(&t.index()).copied().unwrap_or(0.0);
                let scanned: f64 = sim.prosumers.iter().map(|p| p.flexible_load_at(t)).sum();
                // Slot by slot, not only in the sums below: one slot's
                // last-bit difference can round away in a run-long total.
                // (`==` on floats is exact but for the sign of a zero,
                // which no |baseline + load| sees.)
                assert_eq!(sim.shadow_load.at(t), open, "shadow load at {t:?}");
                assert_eq!(realized.at(t), scanned, "realized load at {t:?}");
                before += (b + open).abs();
                after += (b + scanned).abs();
            }
        }
        let in_state = |state: OfferState| -> usize {
            sim.brps
                .iter()
                .flat_map(|b| b.store.offer_states().into_values())
                .filter(|&s| s == state)
                .count()
        };
        let accepted = in_state(OfferState::Accepted)
            + in_state(OfferState::Assigned)
            + in_state(OfferState::Provisional)
            + in_state(OfferState::Expired);
        let rejected = in_state(OfferState::Rejected);

        let report = sim.report();
        assert_eq!(report.imbalance_before.to_bits(), before.to_bits());
        assert_eq!(report.imbalance_after.to_bits(), after.to_bits());
        assert_eq!((report.accepted, report.rejected), (accepted, rejected));
        report
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn closing_report_matches_the_per_slot_scan(
            seed in 0u64..1_000_000,
            use_tso in 0u8..2,
            brps in 1usize..4,
            prosumers_per_brp in 1usize..6,
            // Up to eight a day, so that a prosumer's own offers share
            // slots often: only there can a wrong addition order show.
            offers_per_prosumer in 1usize..9,
            cycles in 1usize..4,
            fault in 0u8..4,
            churn in 0u8..2,
        ) {
            let failure = match fault {
                0 => FailureModel::reliable(),
                1 => FailureModel::drop(0.3),
                2 => FailureModel::delay(2).jittered_by(3),
                _ => FailureModel::drop(0.1).duplicated(0.3),
            };
            let cfg = SimulationConfig {
                brps,
                prosumers_per_brp,
                cycles,
                offers_per_prosumer,
                failure,
                churn_fraction: if churn == 1 { 0.3 } else { 0.0 },
                seed,
                use_tso: use_tso == 1,
                budget_evaluations: 100,
                repair_chains: 1,
                ..SimulationConfig::default()
            };
            let report = checked_report(cfg);
            prop_assert!(report.offers_submitted > 0);
        }
    }

    #[test]
    fn federated_closing_reports_match_the_scan_and_their_solo_twins() {
        let cfg = FederationConfig {
            regions: 2,
            sim: SimulationConfig {
                brps: 2,
                prosumers_per_brp: 4,
                cycles: 3,
                offers_per_prosumer: 6,
                failure: FailureModel::drop(0.2).duplicated(0.2),
                churn_fraction: 0.25,
                seed: 7,
                use_tso: true,
                budget_evaluations: 1_000,
                ..SimulationConfig::default()
            },
            ..FederationConfig::default()
        };
        let report = Federation::run(cfg.clone());
        for (r, region) in report.regions.iter().enumerate() {
            let twin = checked_report(Federation::region_config(&cfg, RegionId(r as u64)));
            assert_eq!(*region, twin, "region {r} diverged from its solo twin");
        }
    }

    #[test]
    fn slot_ledger_grows_both_ways_and_reads_zero_outside() {
        let mut ledger = SlotLedger::default();
        assert_eq!(ledger.at(TimeSlot(5)), 0.0);
        ledger
            .slots_mut(TimeSlot(100), 3)
            .copy_from_slice(&[1.0, 2.0, 3.0]);
        *ledger.slot_mut(TimeSlot(97)) += 7.0;
        *ledger.slot_mut(TimeSlot(104)) -= 4.0;
        let read: Vec<f64> = (96..106).map(|t| ledger.at(TimeSlot(t))).collect();
        assert_eq!(read, [0.0, 7.0, 0.0, 0.0, 1.0, 2.0, 3.0, 0.0, -4.0, 0.0]);
        assert_eq!(ledger.at(TimeSlot(-1_000)), 0.0);
    }

    /// Release-scale witness that the closing report is linear in the
    /// offers handled: over a long run it must cost less than the rounds
    /// it reports on. The run-long per-slot scan it replaced took five
    /// times the rounds at this shape (5.1 s against 0.95 s) where this
    /// takes a twentieth (28 ms against 0.64 s), so host speed cancels.
    #[test]
    #[ignore = "release-scale smoke: run with cargo test --release -- --ignored"]
    fn long_run_report_is_cheaper_than_its_rounds() {
        let cfg = SimulationConfig {
            brps: 4,
            prosumers_per_brp: 500,
            cycles: 48,
            offers_per_prosumer: 1,
            use_tso: true,
            seed: 42,
            ..SimulationConfig::default()
        };
        let cycles = cfg.cycles;
        let mut sim = RegionSim::new(cfg, RegionId::DEFAULT);
        let rounds = std::time::Instant::now();
        for c in 0..cycles {
            sim.run_cycle(c);
        }
        let rounds = rounds.elapsed();
        let closing = std::time::Instant::now();
        let report = sim.finish();
        let closing = closing.elapsed();
        assert_eq!(report.assigned + report.fallbacks, report.offers_submitted);
        assert!(
            closing < rounds,
            "finish() took {closing:?}, the {cycles} rounds {rounds:?}"
        );
    }
}
