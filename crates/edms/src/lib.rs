//! # mirabel-edms
//!
//! The MIRABEL node architecture and hierarchy (paper §2, §3).
//!
//! The EDMS is a hierarchy of **homogeneous** nodes — "the process is
//! essentially repeated at a higher level" — and this crate makes that
//! literal: every planning level is one node type, [`PlannerNode`], whose
//! pool of the offers below it and whose prepare → replan → commit
//! life-cycle are defined once in [`runtime`]; levels differ only in the
//! child port they speak downwards — how offers reach the pool and what
//! the level records about them — and in whether they have a parent:
//!
//! * **level 1** — [`prosumer`]s issue flex-offers, execute assignments,
//!   and fall back to the open contract on loss or missed deadlines;
//! * **level 2** — a [`brp`] (balance-responsible party) is a planner node
//!   over prosumer offers ([`Offers`]): it accepts, aggregates, forecasts,
//!   schedules, disaggregates and prices them, keeping its plan **live**
//!   on a delta evaluator between scheduling and commitment — or, linked
//!   to a TSO, forwards its aggregates up as a delta stream;
//! * **level 3** — the [`tso`] is a planner node over its children's
//!   *macro-offer delta streams* ([`Deltas`]): a trickle change at level
//!   1 arrives at level 3 as a trickle
//!   ([`Message::MacroOfferDeltas`](message::Message)), is spliced into
//!   the live level-3 plan in O(changed), and never forces a problem
//!   reconstruction. The same node with a parent
//!   ([`TsoNode::with_parent`]) is an intermediate aggregator, so a
//!   deeper tree is a topology, not a new node type;
//! * **federation** — the same repetition, once more, *above* the
//!   national hierarchies: a [`federation::Federation`] shards the
//!   population into `N` regions — each a complete hierarchy with its
//!   own [`Network`], node-id space and splitmix-derived RNG streams —
//!   and glues the regional TSOs with a bounded cross-border
//!   *macro-offer exchange* over an inter-regional bus that reuses the
//!   intra-region delta-wire contract
//!   ([`Message::ExchangeOfferDeltas`](message::Message),
//!   [`SequencedRx`] guards, resync snapshots). Regions share no
//!   mutable state, so whole regions run concurrently on the worker
//!   pool; only the region-ordered exchange splice is serial, keeping
//!   every report bit-identical at any pool width and any region
//!   count. Every [`Envelope`] — and so every [`EventRecord`] framing
//!   one — carries the [`mirabel_core::RegionId`] it was routed in
//!   (tenant-registry pattern) — pure metadata for
//!   isolation book-keeping, WAL namespacing and region-scoped chaos
//!   ([`ChaosPlan::in_region`](comm::ChaosPlan::in_region)), never an
//!   input to planning.
//!
//! ## Degraded operation: detect → island → recover → reconcile
//!
//! The paper's premise — "the overall system would gracefully behave as
//! in the traditional setting" when coordination fails — is implemented
//! as a four-stage loop that every BRP↔TSO link runs continuously:
//!
//! 1. **detect** — [`wire::LinkHealth`] turns heartbeats piggybacked on
//!    the sequenced delta streams ([`Message::Heartbeat`](message::Message))
//!    plus deterministic ack-timeout tracking into an
//!    `Up → Suspect → Down → Recovering` link-state machine, and the
//!    same detector drives bounded exponential-backoff retransmits of
//!    unacked outbox flushes (always as idempotent resync snapshots,
//!    never replayed deltas);
//! 2. **island** — a node whose parent link is `Down` keeps balancing: it
//!    plans its own pool locally, and the commit stamps every assignment
//!    [`OfferState::Provisional`] in the store *and* the WAL, so even a
//!    degraded window is durable and bounded by the local-only optimum
//!    ([`IslandedRound`]);
//! 3. **recover** — a crashed planner node
//!    ([`PlannerNode::recover_from`]) rebuilds from snapshot + tail
//!    replay, re-registers, and re-anchors every peer stream — a resync
//!    snapshot up, a resync request down;
//! 4. **reconcile** — when the link heals (`Recovering`), the rejoining
//!    BRP ships its provisional ledger
//!    ([`Message::ProvisionalReport`](message::Message)) *before* the
//!    re-anchoring snapshot; the TSO audits each provisional macro
//!    assignment — still pooled from that BRP → **adopt**, already
//!    planned elsewhere → **supersede** — so the hierarchy converges
//!    back to the exact plans of a never-islanded twin
//!    ([`chaos::run_campaign`] proves the quiet tail bit-identical).
//!
//! Components per the paper's LEDMS description:
//!
//! * [`runtime`] — the unified node runtime: the one [`PlannerNode`]
//!   (aggregation pipeline plus a live
//!   [`DeltaEvaluator`](mirabel_schedule::DeltaEvaluator) plus
//!   pub/sub-driven incremental replanning) and the [`Node`] trait the
//!   simulation's wave drains. Every parallel path of a node — flush
//!   shards and repair chains — dispatches onto the worker pool in its
//!   [`RuntimeConfig`]; by default that is the process-wide
//!   [`mirabel_core::exec::Pool::global`] executor, so an entire
//!   hierarchy wakes one set of persistent parked workers instead of
//!   spawning threads per node per round (and the pool width never
//!   changes any plan);
//! * [`comm`] — the Communication component: an in-process message
//!   network with deterministic delivery ordering, rich failure
//!   injection (loss, delay, jitter/reorder, duplication), per-link
//!   partitions, time-phased [`ChaosPlan`] schedules,
//!   per-link stream sequencing and a dead-letter queue that replays on
//!   partition heal or node re-registration;
//! * [`wire`] — the self-healing receive side of that wire:
//!   [`SequencedRx`] turns the per-link sequence
//!   numbers into exactly-once in-order delivery with gap detection,
//!   out-of-order buffering and resync requests (a lost delta degrades
//!   to one extra round-trip instead of silent divergence),
//!   [`DedupRx`] gives at-most-once semantics where
//!   ordering doesn't matter, and [`LinkHealth`] supplies the
//!   failure-detection half of the degraded-operation loop above;
//! * [`message`] — the message vocabulary exchanged between nodes,
//!   including the repair protocol
//!   ([`ResyncRequest`](message::Message::ResyncRequest) /
//!   [`ResyncSnapshot`](message::Message::ResyncSnapshot)) that splices
//!   a bounded state snapshot into the live delta stream;
//! * [`datastore`] — the Data Management component, the read side of
//!   the node's journal: metered measurements (read back as net load)
//!   and one current-state column per flex-offer with a per-state
//!   tally; transition history and committed schedules stay in the
//!   [`wal`];
//! * [`wal`] — the **event-sourced persistence layer**, and the one
//!   place the journal contract every planner node follows is stated:
//!   [`EventRecord`]s appended to a pluggable [`WalStore`] before the
//!   node's state mutates, replay-unsafe markers for what planning
//!   emitted, snapshot-then-truncate compaction. A crashed planner node
//!   rebuilds from snapshot + tail replay, re-registers (the
//!   dead-letter queue replays what it missed), and re-anchors its
//!   sequenced streams through the resync-snapshot path;
//! * [`prosumer`] — the leaf role; [`brp`] / [`tso`] — the two child
//!   ports of the planner node, wiring the aggregation, forecasting,
//!   scheduling and negotiation crates together on the shared runtime;
//! * [`simulation`] — an end-to-end balancing simulation of a full
//!   three-level hierarchy: one wave that drives every level,
//!   pub/sub-driven intra-day forecast refinements replanned
//!   incrementally at **every** level, join/leave prosumer churn, and
//!   the open-contract fallback on message loss or missed deadlines
//!   ("the overall system would gracefully behave as in the traditional
//!   setting");
//! * [`chaos`] — campaigns that *prove* the robustness story: scripted
//!   storms (loss, delay bursts, BRP↔TSO partition-then-heal, churn,
//!   mid-round BRP **and TSO** crash-restarts recovering from the WAL)
//!   driven through the simulation, with an invariant checker asserting
//!   offer conservation, zero phantom offers, energy-bound compliance,
//!   the islanded imbalance bound (`committed <= prepared` per
//!   [`IslandedRound`]) — and post-chaos **convergence**: after a quiet
//!   period the plan signatures must be bit-identical to a
//!   never-disturbed twin run.
//!   Federation campaigns
//!   ([`run_federation_campaign`]) hold every region to the same checker
//!   and add the **fault-isolation** proof: storm one region
//!   ([`ChaosPlan::in_region`](comm::ChaosPlan::in_region)) and every
//!   untouched region's full report stays bit-identical to its solo
//!   twin;
//! * [`federation`] — the multi-region layer itself: [`RegionSim`]
//!   shards driven concurrently, [`ExchangeGateway`]s diffing each
//!   TSO's exportable surplus onto the bus, advisory federation-level
//!   settlement, and per-region + exchange health rollups
//!   ([`Federation::stats`](federation::Federation::stats)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brp;
pub mod chaos;
pub mod comm;
pub mod datastore;
pub mod federation;
pub mod message;
pub mod prosumer;
pub mod runtime;
pub mod simulation;
pub mod tso;
pub mod wal;
pub mod wire;

pub use brp::{BrpConfig, BrpNode, Offers};
pub use chaos::{
    run_campaign, run_federation_campaign, CampaignConfig, CampaignReport,
    FederationCampaignConfig, FederationCampaignReport, InvariantViolation,
};
pub use comm::{
    ChaosPhase, ChaosPlan, DeadLetterQueue, DeadLetterReason, FailureModel, Network, NetworkStats,
};
pub use datastore::{DataStore, OfferState, StateCounts};
pub use federation::{
    ExchangeGateway, ExchangeReport, Federation, FederationConfig, FederationReport,
    FederationStats, RegionStats,
};
pub use message::{Envelope, Message};
pub use prosumer::ProsumerNode;
pub use runtime::{
    IslandedRound, Node, OfferDeltaReport, PlanReport, PlannerNode, ReplanReport, RuntimeConfig,
    SchedulerKind,
};
pub use simulation::{simulate, RegionSim, SimulationConfig, SimulationReport};
pub use tso::{Deltas, TsoNode};
pub use wal::{EventRecord, FileWalStore, LoadedLog, MemWalStore, NodeWal, WalConfig, WalStore};
pub use wire::{
    DedupRx, LinkHealth, LinkHealthConfig, LinkHealthStats, LinkState, SequencedRx, StreamStats,
};
