//! A 4-level tree built from the two planner node types that exist:
//! prosumers → two BRPs (offers down, parent A) → A, an intermediate
//! aggregator (deltas down, parent TSO) → the TSO (deltas down, no
//! parent). Everything runs over a duplicating [`Network`]; planning
//! waves go bottom-up and commit waves top-down, as in the simulation.
//!
//! The tree must assign every accepted offer exactly once, the TSO must
//! pool nothing A does not export (nor A anything a BRP does not), and a
//! WAL-backed A crash-restarted mid-run must end with the prosumer
//! assignments of its never-crashed twin.

use mirabel_aggregate::AggregationParams;
use mirabel_core::{ActorId, EnergyRange, FlexOffer, FlexOfferId, NodeId, Profile, TimeSlot};
use mirabel_edms::{
    BrpConfig, BrpNode, Envelope, FailureModel, Message, Network, Node, NodeWal, OfferState,
    ProsumerNode, RuntimeConfig, TsoNode, WalConfig,
};
use mirabel_schedule::MarketPrices;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::slice;

const BRPS: [NodeId; 2] = [NodeId(1), NodeId(2)];
const AGG: NodeId = NodeId(500);
const TSO: NodeId = NodeId(9_999);
const SLOTS: u32 = 96;
const PROSUMERS_PER_BRP: usize = 5;
const WAL: WalConfig = WalConfig { snapshot_every: 4 };

fn runtime() -> RuntimeConfig {
    RuntimeConfig {
        budget_evaluations: 1_500,
        ..RuntimeConfig::default()
    }
}

fn aggregator() -> TsoNode {
    TsoNode::with_parent(AGG, TSO, AggregationParams::p0(), runtime())
}

fn brp(id: NodeId) -> BrpNode {
    let config = BrpConfig {
        forward_to_tso: true,
        budget_evaluations: 1_500,
        ..BrpConfig::default()
    };
    BrpNode::new(id, Some(AGG), config)
}

/// One level's wave, serially in node order: each node handles its
/// inbox, takes `step`, and what it sent is routed. Returns the offer
/// ids of the assignments the level sent.
fn wave<N: Node>(
    network: &mut Network,
    nodes: &mut [N],
    now: TimeSlot,
    step: impl Fn(&mut N) -> Vec<Envelope>,
) -> Vec<FlexOfferId> {
    network.advance(now);
    let mut assigned = Vec::new();
    for node in nodes {
        let mut out = Vec::new();
        for envelope in network.drain(node.node_id(), now) {
            out.extend(node.handle(envelope, now));
        }
        out.extend(step(node));
        assigned.extend(out.iter().filter_map(|e| match &e.message {
            Message::Assignment { schedule, .. } => Some(schedule.offer_id),
            _ => None,
        }));
        network.send_all(out);
    }
    assigned
}

struct Tree {
    network: Network,
    rng: StdRng,
    prosumers: Vec<ProsumerNode>,
    brps: Vec<BrpNode>,
    agg: TsoNode,
    tso: TsoNode,
    next_offer: u64,
    /// Offer ids of every assignment a BRP sent down, as emitted (before
    /// the network duplicates anything).
    assigned: Vec<FlexOfferId>,
}

impl Tree {
    fn new(seed: u64, agg_wal: bool) -> Tree {
        let mut network = Network::new(FailureModel::reliable().duplicated(0.3), seed);
        for id in BRPS.into_iter().chain([AGG, TSO]) {
            network.register(id);
        }
        let brps = BRPS.into_iter().map(brp).collect();
        let mut prosumers = Vec::new();
        for (b, brp) in BRPS.into_iter().enumerate() {
            for k in 0..PROSUMERS_PER_BRP {
                let id = NodeId(10_000 + (b * PROSUMERS_PER_BRP + k) as u64);
                network.register(id);
                prosumers.push(ProsumerNode::new(id, ActorId(id.value()), brp));
            }
        }
        let mut agg = aggregator();
        if agg_wal {
            agg.attach_wal(NodeWal::in_memory(WAL));
        }
        Tree {
            network,
            rng: StdRng::seed_from_u64(seed),
            prosumers,
            brps,
            agg,
            tso: TsoNode::with_config(TSO, AggregationParams::p0(), runtime()),
            next_offer: 1,
            assigned: Vec::new(),
        }
    }

    fn offer(&mut self, owner: ActorId, window: TimeSlot, deadline: TimeSlot) -> FlexOffer {
        let dur = self.rng.gen_range(2..=6u32);
        let es = self.rng.gen_range(0..SLOTS - dur);
        let tf = self.rng.gen_range(0..=(SLOTS - dur - es).min(12));
        let lo = self.rng.gen_range(0.5..2.5);
        let id = self.next_offer;
        self.next_offer += 1;
        FlexOffer::builder(id, owner.value())
            .earliest_start(window + es)
            .time_flexibility(tf)
            .assignment_before(deadline)
            .profile(Profile::uniform(
                dur,
                EnergyRange::new(lo, lo * 1.3).unwrap(),
            ))
            .build()
            .unwrap()
    }

    fn prosumer_wave(&mut self, now: TimeSlot, deadline_passes: Option<TimeSlot>) {
        wave(&mut self.network, &mut self.prosumers, now, |p| {
            if let Some(slot) = deadline_passes {
                p.on_slot(slot);
            }
            Vec::new()
        });
    }

    /// One day: submissions, the planning wave bottom-up, the commit wave
    /// top-down, execution. A crash of A, when asked for, lands right
    /// after the submissions: only its WAL store survives.
    fn run_cycle(&mut self, c: u32, crash_agg: bool) {
        let t0 = TimeSlot(i64::from(c * SLOTS));
        let (window, deadline) = (t0 + SLOTS, t0 + SLOTS / 2);
        self.network.advance(t0);
        for i in 0..self.prosumers.len() {
            for _ in 0..2 {
                let offer = self.offer(self.prosumers[i].actor, window, deadline);
                let envelope = self.prosumers[i].submit(offer, t0);
                self.network.route(envelope);
            }
        }
        if crash_agg {
            let store = self.agg.take_wal().expect("WAL attached").into_store();
            self.network.deregister(AGG);
            let (rebuilt, out) = aggregator()
                .recover_from(store, WAL, t0)
                .expect("in-memory stores cannot fail");
            self.agg = rebuilt;
            self.network.register(AGG);
            self.network.send_all(out);
        }

        let baseline: Vec<f64> = (0..SLOTS)
            .map(|s| if (30..60).contains(&s) { -6.0 } else { 2.0 })
            .collect();
        let prices = MarketPrices::flat(SLOTS as usize, 0.09, 0.02, 4.0);
        let penalties = vec![0.2; SLOTS as usize];
        let now = t0 + 4;
        let sent = wave(&mut self.network, &mut self.brps, now, |brp| {
            let (b, p, q) = (baseline.clone(), prices.clone(), penalties.clone());
            brp.prepare_plan(now, window, b, p, q).0
        });
        self.assigned.extend(sent);
        for (node, now) in [(&mut self.agg, t0 + 8), (&mut self.tso, t0 + 12)] {
            wave(&mut self.network, slice::from_mut(node), now, |node| {
                let (b, p, q) = (baseline.clone(), prices.clone(), penalties.clone());
                node.prepare_plan(now, window, b, p, q).0
            });
        }
        self.prosumer_wave(t0 + 14, None);
        for (node, now) in [(&mut self.tso, t0 + 16), (&mut self.agg, t0 + 20)] {
            wave(&mut self.network, slice::from_mut(node), now, |node| {
                node.commit_plan(now)
                    .map(|(out, _)| out)
                    .unwrap_or_default()
            });
        }
        let now = t0 + 24;
        let sent = wave(&mut self.network, &mut self.brps, now, |brp| {
            brp.commit_plan(now).map(|(out, _)| out).unwrap_or_default()
        });
        self.assigned.extend(sent);
        self.prosumer_wave(t0 + 28, Some(window));
    }

    /// Every prosumer's committed execution: (offer, assigned?, start).
    fn plans(&self) -> Vec<(FlexOfferId, bool, TimeSlot)> {
        let mut plans = Vec::new();
        for p in &self.prosumers {
            p.for_each_committed_in_window(TimeSlot(0), TimeSlot(i64::MAX), |id, a, s, _| {
                plans.push((id, a, s));
            });
        }
        plans
    }
}

const CYCLES: u32 = 4;

#[test]
fn four_level_tree_assigns_every_offer_once_and_pools_no_phantoms() {
    let mut tree = Tree::new(41, false);
    for c in 0..CYCLES {
        tree.run_cycle(c, false);
        let below_agg: BTreeSet<FlexOfferId> = tree
            .brps
            .iter()
            .flat_map(BrpNode::exported_offer_ids)
            .collect();
        let below_tso: BTreeSet<FlexOfferId> = tree.agg.exported_offer_ids().into_iter().collect();
        for id in tree.tso.pooled_ids() {
            assert!(
                below_tso.contains(&id),
                "cycle {c}: TSO pools {id:?}, A does not export it"
            );
        }
        for id in tree.agg.pooled_ids() {
            assert!(
                below_agg.contains(&id),
                "cycle {c}: A pools {id:?}, no BRP exports it"
            );
        }
    }
    assert!(
        tree.network.stats().duplicated > 0,
        "the network duplicated nothing"
    );

    let assigned: usize = tree
        .brps
        .iter()
        .map(|b| b.store.count_in_state(OfferState::Assigned))
        .sum();
    let distinct: BTreeMap<FlexOfferId, usize> =
        tree.assigned.iter().fold(BTreeMap::new(), |mut n, id| {
            *n.entry(*id).or_default() += 1;
            n
        });
    assert!(assigned > 0, "nothing was assigned");
    assert!(
        distinct.values().all(|&n| n == 1),
        "an offer was assigned twice"
    );
    assert_eq!(distinct.len(), assigned);
    let submitted = (CYCLES as usize) * tree.prosumers.len() * 2;
    let rejected: usize = tree
        .brps
        .iter()
        .map(|b| b.store.count_in_state(OfferState::Rejected))
        .sum();
    assert_eq!(
        assigned + rejected,
        submitted,
        "an accepted offer went unassigned"
    );
    let executed: usize = tree
        .prosumers
        .iter()
        .map(ProsumerNode::assigned_count)
        .sum();
    assert_eq!(executed, assigned);
}

#[test]
fn crash_restarted_aggregator_ends_with_its_twins_assignments() {
    let mut crashed = Tree::new(7, true);
    let mut twin = Tree::new(7, false);
    for c in 0..CYCLES {
        crashed.run_cycle(c, c == 2);
        twin.run_cycle(c, false);
    }
    assert!(
        crashed.agg.wal().is_some(),
        "the log resumes after recovery"
    );
    assert!(twin.plans().iter().any(|&(_, assigned, _)| assigned));
    assert_eq!(crashed.plans(), twin.plans());
}

/// Parent traffic is deduplicated by the child port, not by the link: a
/// BRP's offers port drops a network duplicate of its parent's envelope,
/// but the deltas port of an intermediate aggregator admits every copy,
/// so it counts (and journals) the duplicate. A known gap, pinned here
/// (ROADMAP item 3, hole (iii)).
#[test]
fn a_duplicated_parent_envelope_is_dropped_by_a_brp_but_admitted_by_an_aggregator() {
    let heartbeat =
        |from, to| Envelope::new(from, to, TimeSlot(1), Message::Heartbeat { seen: 0 }).with_seq(0);
    let mut b = brp(BRPS[0]);
    let mut a = aggregator();
    for _ in 0..2 {
        b.handle(heartbeat(AGG, b.id), TimeSlot(1));
        a.handle(heartbeat(TSO, a.id), TimeSlot(1));
    }
    assert_eq!(b.link_health_stats().heartbeats_seen, 1);
    assert_eq!(a.link_health_stats().heartbeats_seen, 2);
}
