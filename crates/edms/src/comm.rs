//! The Communication component: an in-process network between nodes with
//! failure injection, chaos schedules, and a self-healing wire.
//!
//! The paper's data-management challenges include "managing very
//! large-scale wide-area distributed systems, providing high availability
//! and fault tolerance" — and its answer is graceful degradation: lost
//! messages only mean flexibilities time out and prosumers fall back to
//! the open contract. This module supplies both halves of that story:
//!
//! * **Failure injection.** A [`FailureModel`] drops, delays, jitters
//!   (reorders), and duplicates messages; a [`ChaosPlan`] schedules
//!   time-phased models and per-link partitions (loss storms, delay
//!   bursts, partition-then-heal) that [`Network::advance`] applies as
//!   simulated time passes.
//! * **The sequenced wire.** [`Network::route`] stamps every envelope
//!   with a per-`(from, to)` stream sequence number *before* rolling for
//!   failures, so a dropped envelope still consumes its slot and the
//!   receiver can detect the gap (see [`crate::wire`] for the
//!   receiver-side guards and the resync protocol they drive).
//! * **Dead letters.** Envelopes that cannot be delivered — recipient
//!   unregistered, or the link partitioned — are retained in a
//!   [`DeadLetterQueue`] and replayed when the partition heals or the
//!   node (re-)registers, rather than silently discarded. Randomly
//!   *dropped* envelopes are **not** retained: healing those is the
//!   resync protocol's job, and a real lossy link keeps no copies.
//!
//! Delivery accounting distinguishes [`NetworkStats::enqueued`] (the
//! envelope entered an inbox at route time) from
//! [`NetworkStats::delivered`] (the recipient actually drained it), so
//! chaos reports don't overcount messages still stuck behind a partition
//! or a delay at the end of a run.

use crate::message::Envelope;
use mirabel_core::codec::Wire;
use mirabel_core::{NodeId, RegionId, TimeSlot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;

/// Multiply-fold hasher for the network's internal integer-keyed maps
/// (interned link keys, per-sender guard tables). The keys are node ids
/// the simulation itself assigns — SipHash's flood resistance buys
/// nothing here, and its per-probe cost lands on every routed message.
#[derive(Debug, Default)]
pub(crate) struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the integer keys below).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = splitmix(n);
    }

    fn write_u128(&mut self, n: u128) {
        self.0 = splitmix((n as u64).rotate_left(32) ^ (n >> 64) as u64);
    }
}

/// The splitmix64 finalizer — full-avalanche, so `HashMap`'s low-bit
/// bucket masking sees well-mixed values. Also the federation's region
/// seed derivation primitive (each region's RNG stream is a splitmix of
/// the base seed and the region id).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash-map state for maps keyed by simulation-assigned ids.
pub(crate) type IdHashBuilder = BuildHasherDefault<IdHasher>;

/// Message-loss, delay, jitter, and duplication injection.
///
/// Build with the fluent constructors instead of struct literals:
///
/// ```
/// use mirabel_edms::FailureModel;
///
/// let lossy = FailureModel::drop(0.4);
/// let slow = FailureModel::delay(3);
/// let chaotic = FailureModel::drop(0.1).delayed_by(2).jittered_by(4).duplicated(0.05);
/// assert_eq!(chaotic.drop_probability, 0.1);
/// assert_eq!(chaotic.delay_slots, 2);
/// assert_eq!(chaotic.jitter_slots, 4);
/// assert_eq!(chaotic.duplicate_probability, 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Probability that a message is silently dropped.
    pub drop_probability: f64,
    /// Fixed delivery delay in slots.
    pub delay_slots: u32,
    /// Random *extra* delay in `0..=jitter_slots`, rolled per envelope.
    /// Non-zero jitter reorders messages across drains: a later send can
    /// mature before an earlier one.
    pub jitter_slots: u32,
    /// Probability that a delivered message is enqueued twice (same
    /// stream sequence number — a true network duplicate).
    pub duplicate_probability: f64,
}

impl Default for FailureModel {
    fn default() -> FailureModel {
        FailureModel::reliable()
    }
}

impl FailureModel {
    /// Lossless, instant, exactly-once delivery.
    pub fn reliable() -> FailureModel {
        FailureModel {
            drop_probability: 0.0,
            delay_slots: 0,
            jitter_slots: 0,
            duplicate_probability: 0.0,
        }
    }

    /// Drop each message with probability `p` (clamped to `[0, 1]` at
    /// send time).
    pub fn drop(p: f64) -> FailureModel {
        FailureModel {
            drop_probability: p,
            ..FailureModel::reliable()
        }
    }

    /// Delay every delivered message by `slots`.
    pub fn delay(slots: u32) -> FailureModel {
        FailureModel::reliable().delayed_by(slots)
    }

    /// Builder step: add a fixed delivery delay to this model.
    pub fn delayed_by(mut self, slots: u32) -> FailureModel {
        self.delay_slots = slots;
        self
    }

    /// Builder step: add up to `slots` of random extra delay (reorder).
    pub fn jittered_by(mut self, slots: u32) -> FailureModel {
        self.jitter_slots = slots;
        self
    }

    /// Builder step: duplicate each delivered message with probability
    /// `p`.
    pub fn duplicated(mut self, p: f64) -> FailureModel {
        self.duplicate_probability = p;
        self
    }
}

/// One timed phase of a [`ChaosPlan`]: while `start <= now < end`, the
/// network injects `failure` and severs every link in `partitions`
/// (bidirectionally); at `start` the harness crash-restarts every node
/// in `crashes`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPhase {
    /// First slot (inclusive) at which the phase is active.
    pub start: TimeSlot,
    /// First slot after the phase (exclusive).
    pub end: TimeSlot,
    /// Failure model injected while the phase is active.
    pub failure: FailureModel,
    /// Node pairs whose links (both directions) are cut while the phase
    /// is active. Envelopes routed across a cut link are dead-lettered
    /// and replayed when the partition heals.
    pub partitions: Vec<(NodeId, NodeId)>,
    /// Nodes whose in-memory state is destroyed when the phase begins.
    /// The network itself ignores this field — it is a schedule for the
    /// simulation harness, which deregisters the node, rebuilds it from
    /// its WAL (snapshot + tail replay) and re-registers it (replaying
    /// dead letters accumulated while it was down).
    pub crashes: Vec<NodeId>,
}

impl ChaosPhase {
    /// A phase injecting `failure` on every link over `[start, end)`.
    pub fn new(start: TimeSlot, end: TimeSlot, failure: FailureModel) -> ChaosPhase {
        ChaosPhase {
            start,
            end,
            failure,
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Builder step: also cut these links while the phase is active.
    pub fn with_partitions(mut self, partitions: Vec<(NodeId, NodeId)>) -> ChaosPhase {
        self.partitions = partitions;
        self
    }

    /// Builder step: also crash-restart these nodes when the phase
    /// begins.
    pub fn with_crashes(mut self, crashes: Vec<NodeId>) -> ChaosPhase {
        self.crashes = crashes;
        self
    }
}

/// A time-phased schedule of failure models and partitions. Outside any
/// phase the network falls back to its baseline model (reliable unless
/// overridden). Phases are matched in order; the first phase containing
/// `now` wins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// The scheduled phases.
    pub phases: Vec<ChaosPhase>,
    /// Federation scoping: `None` storms every region the plan is handed
    /// to (and the whole network in a single-hierarchy run); `Some(r)`
    /// restricts the storm to region `r` — the federation gives every
    /// other region a [`ChaosPlan::reliable`] plan instead, which is how
    /// fault isolation between regions is proven.
    pub region: Option<RegionId>,
}

impl ChaosPlan {
    /// No chaos: the network stays on its baseline model throughout.
    pub fn reliable() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Builder step: append a phase.
    pub fn phase(mut self, phase: ChaosPhase) -> ChaosPlan {
        self.phases.push(phase);
        self
    }

    /// Builder step: scope the whole plan to one federation region.
    pub fn in_region(mut self, region: RegionId) -> ChaosPlan {
        self.region = Some(region);
        self
    }

    /// Whether this plan storms the given region (unscoped plans storm
    /// every region).
    pub fn applies_to(&self, region: RegionId) -> bool {
        self.region.is_none_or(|r| r == region)
    }

    /// The phase active at `now`, if any.
    fn active(&self, now: TimeSlot) -> Option<&ChaosPhase> {
        self.phases.iter().find(|p| p.start <= now && now < p.end)
    }

    /// Nodes scheduled to crash in `[from, to)`: every node listed by a
    /// phase whose window *starts* in that range, phase order preserved,
    /// duplicates removed. The simulation queries this once per cycle
    /// and executes the crash-restarts before pumping the round.
    pub fn crashes_between(&self, from: TimeSlot, to: TimeSlot) -> Vec<NodeId> {
        let mut out = Vec::new();
        for phase in &self.phases {
            if from <= phase.start && phase.start < to {
                for &node in &phase.crashes {
                    if !out.contains(&node) {
                        out.push(node);
                    }
                }
            }
        }
        out
    }
}

/// Per-link delivery counters (also the shape of the global roll-up).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Envelopes handed to the network.
    pub sent: u64,
    /// Envelopes that entered an inbox at route time.
    pub enqueued: u64,
    /// Envelopes actually drained by their recipient.
    pub delivered: u64,
    /// Envelopes dropped by failure injection.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Envelopes retained in the dead-letter queue (recipient
    /// unregistered or link partitioned).
    pub dead_lettered: u64,
    /// Dead letters re-enqueued after a partition healed or the node
    /// (re-)registered.
    pub replayed: u64,
    /// Dead letters evicted (oldest first) because their link exceeded
    /// the queue's per-link retention cap — bounded memory under a
    /// never-healing partition costs the oldest retained envelopes.
    pub dropped_dead_letters: u64,
    /// Encoded wire bytes offered to the network (counted at route time,
    /// before failure injection). Zero unless byte metering is enabled
    /// ([`Network::set_metering`]) — metering encodes every envelope and
    /// is off by default to keep the reliable hot path allocation-lean.
    /// The federation uses it to prove cross-border exchange traffic is
    /// a vanishing fraction of intra-region traffic.
    pub bytes_sent: u64,
}

/// Why an envelope landed in the [`DeadLetterQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadLetterReason {
    /// The recipient has no inbox (never registered, or deregistered
    /// with messages still queued).
    Unregistered,
    /// The `(from, to)` link was cut by a partition.
    Partitioned,
}

/// One retained undeliverable envelope.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The envelope, stream sequence number already stamped.
    pub envelope: Envelope,
    /// Why it could not be delivered.
    pub reason: DeadLetterReason,
    /// Interned index of the `(from, to)` link, so replay updates the
    /// link's stats without a map lookup.
    link: u32,
}

/// Retention queue for undeliverable envelopes, replayed on recovery
/// ([`Network::advance`] after a partition heals, [`Network::register`]
/// when a node comes back).
///
/// Retention is **bounded per link**: once a `(from, to)` link holds
/// [`DeadLetterQueue::per_link_cap`] letters, pushing another evicts
/// that link's oldest (counted in
/// [`NetworkStats::dropped_dead_letters`]). A partition that never
/// heals therefore costs bounded memory, and the freshest traffic —
/// the part a resync snapshot cannot reconstruct from — is what
/// survives to replay.
#[derive(Debug)]
pub struct DeadLetterQueue {
    letters: Vec<DeadLetter>,
    /// Letters retained per interned link id (links past the end hold
    /// none), so the cap check in `push` reads one counter instead of
    /// scanning the queue — a held partition pushes thousands of letters
    /// onto a long queue.
    per_link: Vec<u32>,
    per_link_cap: usize,
}

impl Default for DeadLetterQueue {
    fn default() -> DeadLetterQueue {
        DeadLetterQueue {
            letters: Vec::new(),
            per_link: Vec::new(),
            per_link_cap: DeadLetterQueue::DEFAULT_PER_LINK_CAP,
        }
    }
}

impl DeadLetterQueue {
    /// Default per-link retention bound.
    pub const DEFAULT_PER_LINK_CAP: usize = 1024;

    /// Retained envelopes, oldest first.
    pub fn letters(&self) -> &[DeadLetter] {
        &self.letters
    }

    /// Number of retained envelopes.
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// The per-link retention bound.
    pub fn per_link_cap(&self) -> usize {
        self.per_link_cap
    }

    /// Retain a letter; if its link is at the cap, evict and return that
    /// link's oldest letter (the caller accounts the drop).
    fn push(&mut self, letter: DeadLetter) -> Option<DeadLetter> {
        let link = letter.link;
        if self.per_link.len() <= link as usize {
            self.per_link.resize(link as usize + 1, 0);
        }
        let held = &mut self.per_link[link as usize];
        // One out, one in: an eviction leaves the link's count as it was.
        let evicted = if *held as usize >= self.per_link_cap {
            let oldest = self
                .letters
                .iter()
                .position(|l| l.link == link)
                .expect("cap >= 1, so at least one letter on the link");
            Some(self.letters.remove(oldest))
        } else {
            *held += 1;
            None
        };
        self.letters.push(letter);
        evicted
    }

    /// Remove and return every letter `pred` selects, preserving order.
    fn take_if(&mut self, mut pred: impl FnMut(&DeadLetter) -> bool) -> Vec<DeadLetter> {
        let per_link = &mut self.per_link;
        let (taken, kept) = std::mem::take(&mut self.letters)
            .into_iter()
            .partition(|l| {
                let take = pred(l);
                if take {
                    per_link[l.link as usize] -= 1;
                }
                take
            });
        self.letters = kept;
        taken
    }
}

/// One queued message with its delivery metadata.
#[derive(Debug)]
struct InFlight {
    /// First slot at which the message can be drained.
    available: TimeSlot,
    /// Global arrival number — the tie-breaker that makes
    /// delayed-delivery ordering total (duplicates get fresh numbers;
    /// the per-link *stream* number lives in `envelope.seq`).
    arrival: u64,
    /// Interned index of the `(from, to)` link, so drain-time stats
    /// need no map lookup.
    link: u32,
    envelope: Envelope,
}

/// Per-link bookkeeping: the stream sequence counter and the link's
/// delivery stats.
#[derive(Debug, Default)]
struct LinkState {
    next_seq: u64,
    stats: NetworkStats,
}

/// The in-process message network.
#[derive(Debug)]
pub struct Network {
    /// Per-node inboxes. Like `links`, the map is only ever probed by key,
    /// never walked, so its process-random order cannot leak into results;
    /// a probe here is on every route and drain.
    inboxes: HashMap<NodeId, Vec<InFlight>, IdHashBuilder>,
    /// Per-`(from, to)` link interning, keyed by the packed pair. The
    /// hot paths resolve a link to its dense index exactly once per
    /// [`Network::route`]; everything downstream (enqueue, drain,
    /// dead-letter replay) carries the index and touches `link_states`
    /// by position — the sequenced wire's only structural cost on the
    /// reliable path is this one lookup. A `HashMap` is safe here:
    /// the map is never iterated, only probed by key, so its
    /// process-random order can never leak into results.
    links: HashMap<u128, u32, IdHashBuilder>,
    /// Stream counters and stats, indexed by interned link id.
    link_states: Vec<LinkState>,
    /// Baseline model, active outside any chaos phase.
    baseline: FailureModel,
    /// The model currently in force (baseline or an active phase's).
    failure: FailureModel,
    /// Time-phased chaos schedule applied by [`Network::advance`].
    chaos: ChaosPlan,
    /// Links cut by the currently active chaos phase (stored both ways).
    phase_cuts: BTreeSet<(NodeId, NodeId)>,
    dead_letters: DeadLetterQueue,
    rng: StdRng,
    stats: NetworkStats,
    next_arrival: u64,
    /// The federation region this network belongs to; stamped onto every
    /// routed envelope. [`RegionId::DEFAULT`] for single-hierarchy runs.
    region: RegionId,
    /// Whether [`Network::route`] encodes each envelope to count its
    /// wire bytes ([`NetworkStats::bytes_sent`]). Off by default.
    metering: bool,
    /// Reusable encode scratch for metering, so a metered network costs
    /// one encode per envelope but no per-envelope allocation.
    meter_buf: Vec<u8>,
}

impl Network {
    /// Reliable network.
    pub fn reliable() -> Network {
        Network::new(FailureModel::reliable(), 0)
    }

    /// Network with the given baseline failure model and RNG seed.
    pub fn new(failure: FailureModel, seed: u64) -> Network {
        Network {
            inboxes: HashMap::default(),
            links: HashMap::default(),
            link_states: Vec::new(),
            baseline: failure,
            failure,
            chaos: ChaosPlan::reliable(),
            phase_cuts: BTreeSet::new(),
            dead_letters: DeadLetterQueue::default(),
            rng: StdRng::seed_from_u64(seed),
            stats: NetworkStats::default(),
            next_arrival: 0,
            region: RegionId::DEFAULT,
            metering: false,
            meter_buf: Vec::new(),
        }
    }

    /// Assign the network to a federation region: every envelope routed
    /// from here on is stamped with `region` (tenant-registry pattern),
    /// so it carries its tenant through the wire, the WAL and recovery.
    pub fn set_region(&mut self, region: RegionId) {
        self.region = region;
    }

    /// The federation region this network routes for.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Toggle wire-byte metering ([`NetworkStats::bytes_sent`]). Costs
    /// one codec encode per routed envelope while enabled.
    pub fn set_metering(&mut self, on: bool) {
        self.metering = on;
    }

    /// Install a time-phased chaos schedule; call [`Network::advance`]
    /// as simulated time passes to apply it.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = plan;
    }

    /// Apply the chaos schedule for slot `now`: switch the active
    /// failure model, update phase partitions, and replay dead letters
    /// whose links have healed. Call once per simulation step (or
    /// whenever `now` advances).
    pub fn advance(&mut self, now: TimeSlot) {
        let (failure, cuts) = match self.chaos.active(now) {
            Some(phase) => {
                let mut cuts = BTreeSet::new();
                for &(a, b) in &phase.partitions {
                    cuts.insert((a, b));
                    cuts.insert((b, a));
                }
                (phase.failure, cuts)
            }
            None => (self.baseline, BTreeSet::new()),
        };
        self.failure = failure;
        self.phase_cuts = cuts;
        self.replay_healed(now);
    }

    /// Register a node so it can receive messages. Dead letters
    /// addressed to it are replayed into its fresh inbox (delivered from
    /// their original `sent_at`).
    pub fn register(&mut self, node: NodeId) {
        self.inboxes.entry(node).or_default();
        let letters = self
            .dead_letters
            .take_if(|l| l.reason == DeadLetterReason::Unregistered && l.envelope.to == node);
        for letter in letters {
            let available = letter.envelope.sent_at;
            self.replay(letter.envelope, available, letter.link);
        }
    }

    /// Remove a node from the network (prosumer churn, crash). Its
    /// queued in-flight messages move to the dead-letter queue and are
    /// replayed if it re-registers.
    pub fn deregister(&mut self, node: NodeId) {
        let Some(q) = self.inboxes.remove(&node) else {
            return;
        };
        for m in q {
            self.stats.dead_lettered += 1;
            self.link_states[m.link as usize].stats.dead_lettered += 1;
            self.dead_letter(DeadLetter {
                envelope: m.envelope,
                reason: DeadLetterReason::Unregistered,
                link: m.link,
            });
        }
    }

    /// Retain a dead letter, accounting the eviction if its link was at
    /// the retention cap.
    fn dead_letter(&mut self, letter: DeadLetter) {
        if let Some(evicted) = self.dead_letters.push(letter) {
            self.stats.dropped_dead_letters += 1;
            self.link_states[evicted.link as usize]
                .stats
                .dropped_dead_letters += 1;
        }
    }

    /// Override the dead-letter queue's per-link retention bound (0 is
    /// clamped to 1 — the queue always keeps a link's freshest letter).
    pub fn set_dead_letter_cap(&mut self, cap: usize) {
        self.dead_letters.per_link_cap = cap.max(1);
    }

    /// Pack a directed link into the interning key.
    fn link_key(from: NodeId, to: NodeId) -> u128 {
        ((from.value() as u128) << 64) | to.value() as u128
    }

    /// Intern the `(from, to)` link, returning its dense index.
    fn link_idx(&mut self, from: NodeId, to: NodeId) -> u32 {
        let next = self.link_states.len() as u32;
        let idx = *self.links.entry(Self::link_key(from, to)).or_insert(next);
        if idx == next {
            self.link_states.push(LinkState::default());
        }
        idx
    }

    /// Route one message into the network; it becomes visible to the
    /// recipient after the active model's delay (or never, if dropped).
    ///
    /// The envelope's per-`(from, to)` stream sequence number is stamped
    /// **before** any failure roll, so drops and partitions still
    /// consume their slot and the receiver's [`crate::wire::SequencedRx`]
    /// can detect the gap.
    pub fn route(&mut self, mut envelope: Envelope) {
        self.stats.sent += 1;
        envelope.region = self.region;
        let link = self.link_idx(envelope.from, envelope.to);
        let ls = &mut self.link_states[link as usize];
        ls.stats.sent += 1;
        envelope.seq = Some(ls.next_seq);
        ls.next_seq += 1;
        if self.metering {
            self.meter_buf.clear();
            envelope.encode(&mut self.meter_buf);
            let bytes = self.meter_buf.len() as u64;
            self.stats.bytes_sent += bytes;
            self.link_states[link as usize].stats.bytes_sent += bytes;
        }

        if self.phase_cuts.contains(&(envelope.from, envelope.to)) {
            self.stats.dead_lettered += 1;
            self.link_states[link as usize].stats.dead_lettered += 1;
            self.dead_letter(DeadLetter {
                envelope,
                reason: DeadLetterReason::Partitioned,
                link,
            });
            return;
        }
        if self.failure.drop_probability > 0.0
            && self
                .rng
                .gen_bool(self.failure.drop_probability.clamp(0.0, 1.0))
        {
            self.stats.dropped += 1;
            self.link_states[link as usize].stats.dropped += 1;
            return;
        }
        let duplicate = self.failure.duplicate_probability > 0.0
            && self
                .rng
                .gen_bool(self.failure.duplicate_probability.clamp(0.0, 1.0));
        if duplicate {
            self.stats.duplicated += 1;
            self.link_states[link as usize].stats.duplicated += 1;
            let copy = envelope.clone();
            self.enqueue(copy, link);
        }
        self.enqueue(envelope, link);
    }

    /// Enqueue one (surviving) envelope with the active model's delay
    /// and jitter.
    fn enqueue(&mut self, envelope: Envelope, link: u32) {
        let mut delay = self.failure.delay_slots;
        if self.failure.jitter_slots > 0 {
            delay += self.rng.gen_range(0..=self.failure.jitter_slots);
        }
        let available = envelope.sent_at + delay;
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        match self.inboxes.get_mut(&envelope.to) {
            Some(q) => {
                q.push(InFlight {
                    available,
                    arrival,
                    link,
                    envelope,
                });
                self.stats.enqueued += 1;
                self.link_states[link as usize].stats.enqueued += 1;
            }
            None => {
                self.stats.dead_lettered += 1;
                self.link_states[link as usize].stats.dead_lettered += 1;
                self.dead_letter(DeadLetter {
                    envelope,
                    reason: DeadLetterReason::Unregistered,
                    link,
                });
            }
        }
    }

    /// Re-enqueue one dead letter, deliverable from `available`. Replays
    /// bypass failure injection: the envelope already survived routing
    /// once.
    fn replay(&mut self, envelope: Envelope, available: TimeSlot, link: u32) {
        let Some(q) = self.inboxes.get_mut(&envelope.to) else {
            // Recipient still gone: keep waiting.
            self.dead_letter(DeadLetter {
                envelope,
                reason: DeadLetterReason::Unregistered,
                link,
            });
            return;
        };
        self.stats.replayed += 1;
        self.stats.enqueued += 1;
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        q.push(InFlight {
            available,
            arrival,
            link,
            envelope,
        });
        let ls = &mut self.link_states[link as usize];
        ls.stats.replayed += 1;
        ls.stats.enqueued += 1;
    }

    /// Replay every partitioned dead letter whose link is clear again.
    fn replay_healed(&mut self, now: TimeSlot) {
        let cuts = &self.phase_cuts;
        let healed = self.dead_letters.take_if(|l| {
            l.reason == DeadLetterReason::Partitioned
                && !cuts.contains(&(l.envelope.from, l.envelope.to))
        });
        for letter in healed {
            self.replay(letter.envelope, now, letter.link);
        }
    }

    /// Route many messages.
    pub fn send_all(&mut self, envelopes: impl IntoIterator<Item = Envelope>) {
        for e in envelopes {
            self.route(e);
        }
    }

    /// Drain the messages available to `node` at time `now`.
    ///
    /// Delivery order within one drain is explicitly deterministic:
    /// messages are handed over sorted by `(sent_at, from, arrival)`.
    /// Under a delay model, several sends can mature in the same slot —
    /// the sort guarantees their relative order never depends on inbox
    /// insertion history. (Jitter still reorders *across* drains: a
    /// later send can mature in an earlier slot.)
    ///
    /// An inbox drained empty holds no buffer, and the network keeps no
    /// scratch buffers: a node's inbox memory lives only while messages
    /// wait in it, and the next message routed to it allocates afresh.
    /// With one inbox per prosumer, buffers kept by idle inboxes would
    /// outweigh the rest of the network's heap.
    pub fn drain(&mut self, node: NodeId, now: TimeSlot) -> Vec<Envelope> {
        let Some(q) = self.inboxes.get_mut(&node) else {
            return Vec::new();
        };
        if q.is_empty() {
            return Vec::new();
        }
        let mut due = std::mem::take(q);
        if due.iter().any(|m| m.available > now) {
            // Some messages are not due yet (a delay or jitter model):
            // they stay queued in the inbox's buffer, in their relative
            // order. That order is load-bearing: `deregister` dead-letters
            // the inbox in it and replays stamp fresh `arrival` numbers,
            // which are the delivery tie-breaker for same-`(sent_at,
            // from)` messages.
            let ready: Vec<InFlight> = due.extract_if(.., |m| m.available <= now).collect();
            *q = std::mem::replace(&mut due, ready);
            if due.is_empty() {
                return Vec::new();
            }
        }
        // `arrival` is globally unique, so the key is total and an
        // unstable sort is deterministic.
        due.sort_unstable_by_key(|m| (m.envelope.sent_at, m.envelope.from, m.arrival));
        self.stats.delivered += due.len() as u64;
        for m in &due {
            self.link_states[m.link as usize].stats.delivered += 1;
        }
        // Collected into a fresh, exact-size vector, so the drained buffer
        // is released here rather than by whoever handles the envelopes.
        let mut envelopes = Vec::with_capacity(due.len());
        envelopes.extend(due.into_iter().map(|m| m.envelope));
        envelopes
    }

    /// Number of undelivered messages queued for `node`.
    pub fn pending(&self, node: NodeId) -> usize {
        self.inboxes.get(&node).map_or(0, |q| q.len())
    }

    /// Global delivery counters.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Delivery counters for the directed `from → to` link (zeros if the
    /// link never carried a message).
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> NetworkStats {
        self.links
            .get(&Self::link_key(from, to))
            .map_or(NetworkStats::default(), |&i| {
                self.link_states[i as usize].stats
            })
    }

    /// The retained undeliverable envelopes.
    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.dead_letters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use mirabel_core::FlexOfferId;

    fn env(to: u64, at: i64) -> Envelope {
        Envelope::new(
            NodeId(0),
            NodeId(to),
            TimeSlot(at),
            Message::OfferRejected {
                offer: FlexOfferId(1),
            },
        )
    }

    #[test]
    fn reliable_delivery() {
        let mut n = Network::reliable();
        n.register(NodeId(1));
        n.route(env(1, 0));
        let got = n.drain(NodeId(1), TimeSlot(0));
        assert_eq!(got.len(), 1);
        assert_eq!(n.stats().enqueued, 1);
        assert_eq!(n.stats().delivered, 1);
        assert!(n.drain(NodeId(1), TimeSlot(0)).is_empty());
    }

    #[test]
    fn route_stamps_region() {
        let mut n = Network::reliable();
        n.set_region(RegionId(7));
        n.register(NodeId(1));
        // Sender claims a bogus region; the network overrides with its
        // own — the stamp is routing metadata, not sender-controlled.
        n.route(env(1, 0).in_region(RegionId(99)));
        let got = n.drain(NodeId(1), TimeSlot(0));
        assert_eq!(got[0].region, RegionId(7));
        assert_eq!(n.region(), RegionId(7));
    }

    #[test]
    fn metering_counts_wire_bytes() {
        let mut n = Network::reliable();
        n.register(NodeId(1));
        n.route(env(1, 0));
        assert_eq!(n.stats().bytes_sent, 0, "metering is off by default");
        n.set_metering(true);
        n.route(env(1, 0));
        // Same envelope the network routed: seq 1 on the 0→1 link,
        // default region.
        let expected = env(1, 0).with_seq(1).to_bytes().len() as u64;
        assert_eq!(n.stats().bytes_sent, expected);
        assert_eq!(n.link_stats(NodeId(0), NodeId(1)).bytes_sent, expected);
    }

    #[test]
    fn chaos_plan_region_scoping() {
        let plan = ChaosPlan::reliable().phase(ChaosPhase::new(
            TimeSlot(0),
            TimeSlot(4),
            FailureModel::drop(1.0),
        ));
        assert!(plan.applies_to(RegionId(0)), "unscoped plans storm all");
        assert!(plan.applies_to(RegionId(3)));
        let scoped = plan.in_region(RegionId(3));
        assert!(!scoped.applies_to(RegionId(0)));
        assert!(scoped.applies_to(RegionId(3)));
    }

    #[test]
    fn route_stamps_per_link_stream_sequence() {
        let mut n = Network::reliable();
        n.register(NodeId(1));
        n.register(NodeId(2));
        n.route(env(1, 0));
        n.route(env(2, 0)); // different link: its own stream
        n.route(env(1, 0));
        let to1 = n.drain(NodeId(1), TimeSlot(0));
        let to2 = n.drain(NodeId(2), TimeSlot(0));
        assert_eq!(
            to1.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![Some(0), Some(1)]
        );
        assert_eq!(to2[0].seq, Some(0));
    }

    #[test]
    fn dropped_envelope_still_consumes_its_stream_slot() {
        let mut n = Network::new(FailureModel::drop(1.0), 1);
        n.register(NodeId(1));
        n.route(env(1, 0)); // seq 0, dropped
        n.set_chaos(ChaosPlan::reliable());
        // Switch to reliable mid-stream (baseline stays lossy, so force
        // it off via a plan-free advance after replacing the baseline).
        n.failure = FailureModel::reliable();
        n.route(env(1, 0));
        let got = n.drain(NodeId(1), TimeSlot(0));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, Some(1), "the drop consumed seq 0");
    }

    #[test]
    fn unregistered_recipient_dead_letters_and_replays_on_register() {
        let mut n = Network::reliable();
        n.route(env(42, 0));
        assert_eq!(n.stats().dead_lettered, 1);
        assert_eq!(n.dead_letters().len(), 1);
        // The node comes up: the letter replays into its inbox.
        n.register(NodeId(42));
        assert_eq!(n.stats().replayed, 1);
        assert!(n.dead_letters().is_empty());
        assert_eq!(n.drain(NodeId(42), TimeSlot(0)).len(), 1);
    }

    #[test]
    fn deregister_dead_letters_queued_messages() {
        let mut n = Network::reliable();
        n.register(NodeId(1));
        n.route(env(1, 0));
        n.deregister(NodeId(1));
        assert!(!n.inboxes.contains_key(&NodeId(1)));
        assert_eq!(n.dead_letters().len(), 1);
        // Messages routed while it is gone also dead-letter.
        n.route(env(1, 1));
        assert_eq!(n.dead_letters().len(), 2);
        // Re-register: both replay, original order preserved by
        // (sent_at, from, arrival).
        n.register(NodeId(1));
        let got = n.drain(NodeId(1), TimeSlot(10));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].sent_at, TimeSlot(0));
        assert_eq!(got[1].sent_at, TimeSlot(1));
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let mut n = Network::new(FailureModel::drop(1.0), 1);
        n.register(NodeId(1));
        for _ in 0..10 {
            n.route(env(1, 0));
        }
        assert_eq!(n.stats().dropped, 10);
        assert!(n.drain(NodeId(1), TimeSlot(100)).is_empty());
    }

    #[test]
    fn partial_drop_rate() {
        let mut n = Network::new(FailureModel::drop(0.5), 7);
        n.register(NodeId(1));
        for _ in 0..200 {
            n.route(env(1, 0));
        }
        let s = n.stats();
        assert_eq!(s.dropped + s.enqueued, 200);
        assert!(s.dropped > 50 && s.dropped < 150, "dropped {}", s.dropped);
    }

    #[test]
    fn duplication_enqueues_same_stream_seq_twice() {
        let mut n = Network::new(FailureModel::reliable().duplicated(1.0), 1);
        n.register(NodeId(1));
        n.route(env(1, 0));
        let got = n.drain(NodeId(1), TimeSlot(0));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, got[1].seq, "a duplicate is the same envelope");
        assert_eq!(n.stats().duplicated, 1);
        assert_eq!(n.stats().enqueued, 2);
    }

    #[test]
    fn delayed_delivery() {
        let mut n = Network::new(FailureModel::delay(3), 1);
        n.register(NodeId(1));
        n.route(env(1, 10));
        assert!(n.drain(NodeId(1), TimeSlot(12)).is_empty());
        assert_eq!(n.pending(NodeId(1)), 1);
        assert_eq!(n.drain(NodeId(1), TimeSlot(13)).len(), 1);
    }

    #[test]
    fn jitter_reorders_across_drains() {
        // With jitter up to 8 slots, some pair of consecutive sends
        // matures out of order for this seed.
        let mut n = Network::new(FailureModel::reliable().jittered_by(8), 3);
        n.register(NodeId(1));
        for at in 0..20 {
            n.route(env(1, at));
        }
        let mut arrival_order = Vec::new();
        for now in 0..40 {
            for e in n.drain(NodeId(1), TimeSlot(now)) {
                arrival_order.push(e.seq.unwrap());
            }
        }
        assert_eq!(arrival_order.len(), 20);
        let mut sorted = arrival_order.clone();
        sorted.sort_unstable();
        assert_ne!(arrival_order, sorted, "jitter should reorder the stream");
    }

    #[test]
    fn delayed_delivery_order_is_sent_at_from_arrival() {
        // Three messages from different senders, sent out of (sent_at,
        // from) order, all maturing before the same drain: the handover
        // must sort by (sent_at, from, arrival) — never by insertion
        // order.
        let mut n = Network::new(FailureModel::delay(5), 1);
        n.register(NodeId(1));
        let from = |f: u64, at: i64| {
            Envelope::new(
                NodeId(f),
                NodeId(1),
                TimeSlot(at),
                Message::OfferRejected {
                    offer: FlexOfferId(f),
                },
            )
        };
        n.route(from(9, 2));
        n.route(from(5, 1));
        n.route(from(5, 1)); // same (sent_at, from): arrival breaks the tie
        n.route(from(3, 1));
        let got = n.drain(NodeId(1), TimeSlot(100));
        let order: Vec<(i64, u64)> = got
            .iter()
            .map(|e| (e.sent_at.index(), e.from.value()))
            .collect();
        assert_eq!(order, vec![(1, 3), (1, 5), (1, 5), (2, 9)]);
        // Replaying the same sequence yields the identical order.
        let mut m = Network::new(FailureModel::delay(5), 1);
        m.register(NodeId(1));
        m.route(from(9, 2));
        m.route(from(5, 1));
        m.route(from(5, 1));
        m.route(from(3, 1));
        assert_eq!(m.drain(NodeId(1), TimeSlot(100)), got);
    }

    #[test]
    fn drain_preserves_undue_messages() {
        let mut n = Network::new(FailureModel::delay(5), 1);
        n.register(NodeId(1));
        n.route(env(1, 0)); // due at 5
        n.route(env(1, 10)); // due at 15
        assert_eq!(n.drain(NodeId(1), TimeSlot(5)).len(), 1);
        assert_eq!(n.pending(NodeId(1)), 1);
        assert_eq!(n.drain(NodeId(1), TimeSlot(15)).len(), 1);
    }

    /// A plan whose first phase, over `[0, 10)`, cuts `first`, and whose
    /// second, over `[10, 20)`, cuts only `second` — so it heals every
    /// link of `first` it leaves out.
    fn cut_then_heal(first: Vec<(NodeId, NodeId)>, second: Vec<(NodeId, NodeId)>) -> ChaosPlan {
        let phase = |start, end, cuts| {
            ChaosPhase::new(TimeSlot(start), TimeSlot(end), FailureModel::reliable())
                .with_partitions(cuts)
        };
        ChaosPlan::reliable()
            .phase(phase(0, 10, first))
            .phase(phase(10, 20, second))
    }

    #[test]
    fn partition_dead_letters_then_heals_and_replays() {
        let mut n = Network::reliable();
        n.register(NodeId(1));
        n.set_chaos(cut_then_heal(vec![(NodeId(0), NodeId(1))], vec![]));
        n.advance(TimeSlot(0));
        n.route(env(1, 0));
        n.route(env(1, 1));
        assert_eq!(n.stats().dead_lettered, 2);
        assert!(n.drain(NodeId(1), TimeSlot(5)).is_empty());
        // Heal: the retained envelopes replay, deliverable from `now`.
        n.advance(TimeSlot(10));
        assert_eq!(n.stats().replayed, 2);
        let got = n.drain(NodeId(1), TimeSlot(10));
        assert_eq!(got.len(), 2);
        // Stream seq was stamped at original route time, in order.
        assert_eq!(got[0].seq, Some(0));
        assert_eq!(got[1].seq, Some(1));
    }

    #[test]
    fn chaos_plan_phases_switch_models_and_partitions() {
        let storm = ChaosPhase::new(TimeSlot(10), TimeSlot(20), FailureModel::drop(1.0));
        let split = ChaosPhase::new(TimeSlot(20), TimeSlot(30), FailureModel::reliable())
            .with_partitions(vec![(NodeId(0), NodeId(1))]);
        let mut n = Network::reliable();
        n.register(NodeId(1));
        n.set_chaos(ChaosPlan::reliable().phase(storm).phase(split));

        // Before the storm: reliable.
        n.advance(TimeSlot(0));
        n.route(env(1, 0));
        assert_eq!(n.drain(NodeId(1), TimeSlot(0)).len(), 1);

        // Storm: everything drops.
        n.advance(TimeSlot(10));
        n.route(env(1, 10));
        assert_eq!(n.stats().dropped, 1);

        // Partition phase: dead-lettered instead.
        n.advance(TimeSlot(20));
        n.route(env(1, 20));
        n.route(env(1, 21));
        assert_eq!(n.stats().dead_lettered, 2);
        assert!(n.drain(NodeId(1), TimeSlot(25)).is_empty());

        // After the plan: heal + replay, deliverable from `now`, with the
        // stream seqs stamped at original route time, in order.
        n.advance(TimeSlot(30));
        assert_eq!(n.stats().replayed, 2);
        let got = n.drain(NodeId(1), TimeSlot(30));
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![Some(2), Some(3)]
        );
        assert_eq!(n.failure, FailureModel::reliable());
        assert!(n.phase_cuts.is_empty());
    }

    #[test]
    fn dead_letter_cap_evicts_oldest_per_link() {
        let mut n = Network::reliable();
        n.set_dead_letter_cap(3);
        n.register(NodeId(1));
        let (to1, to2) = ((NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)));
        n.set_chaos(cut_then_heal(vec![to1, to2], vec![to2]));
        n.advance(TimeSlot(0));
        for at in 0..5 {
            n.route(env(1, at));
        }
        // Cap 3: the two oldest letters on the 0→1 link were evicted.
        assert_eq!(n.dead_letters().len(), 3);
        assert_eq!(n.stats().dropped_dead_letters, 2);
        assert_eq!(
            n.link_stats(NodeId(0), NodeId(1)).dropped_dead_letters,
            2,
            "evictions are accounted on the evicted letter's link"
        );
        // Another link is unaffected by the first link's pressure.
        n.register(NodeId(2));
        n.route(env(2, 0));
        assert_eq!(n.dead_letters().len(), 4);
        assert_eq!(n.stats().dropped_dead_letters, 2);
        // Heal 0→1 (0→2 stays cut): only the freshest three replay —
        // their stream sequence numbers show the oldest two are gone for
        // good (the receiver's resync protocol reconstructs what they
        // carried).
        n.advance(TimeSlot(10));
        assert_eq!(n.dead_letters().len(), 1);
        let got = n.drain(NodeId(1), TimeSlot(10));
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![Some(2), Some(3), Some(4)]
        );
    }

    /// The queue's per-link counters against a recount of its letters.
    fn assert_counts_match_recount(n: &Network) {
        let q = &n.dead_letters;
        let mut recount = vec![0u32; q.per_link.len()];
        for l in &q.letters {
            recount[l.link as usize] += 1;
        }
        assert_eq!(q.per_link, recount);
    }

    #[test]
    fn dead_letter_link_counts_survive_eviction_replay_and_heal() {
        let mut n = Network::reliable();
        n.set_dead_letter_cap(3);
        n.register(NodeId(1));
        n.set_chaos(cut_then_heal(vec![(NodeId(0), NodeId(1))], vec![]));
        n.advance(TimeSlot(0));
        // Interleave a partitioned link (0→1, pushed past its cap), an
        // unregistered recipient (0→2) and one that never comes back (0→3).
        for at in 0..5 {
            n.route(env(1, at));
            n.route(env(2, at));
            if at < 2 {
                n.route(env(3, at));
            }
            assert_counts_match_recount(&n);
        }
        assert_eq!(n.dead_letters().len(), 3 + 3 + 2);
        assert_eq!(n.stats().dropped_dead_letters, 4);
        let retained: Vec<(u64, Option<u64>)> = n
            .dead_letters()
            .letters()
            .iter()
            .map(|l| (l.envelope.to.value(), l.envelope.seq))
            .collect();
        assert_eq!(
            retained,
            [
                (3, Some(0)),
                (3, Some(1)),
                (1, Some(2)),
                (2, Some(2)),
                (1, Some(3)),
                (2, Some(3)),
                (1, Some(4)),
                (2, Some(4)),
            ],
            "each link keeps its freshest three, queue order untouched"
        );

        // `register` replays 0→2 only; the freed link then refills.
        n.register(NodeId(2));
        assert_counts_match_recount(&n);
        assert_eq!(n.stats().replayed, 3);
        n.deregister(NodeId(2)); // its three queued messages dead-letter again
        assert_counts_match_recount(&n);
        n.route(env(2, 9)); // at the cap: evicts 0→2's oldest
        assert_counts_match_recount(&n);
        assert_eq!(n.stats().dropped_dead_letters, 5);

        // Heal replays 0→1; 0→2 and 0→3 stay retained.
        n.advance(TimeSlot(10));
        assert_counts_match_recount(&n);
        assert_eq!(n.drain(NodeId(1), TimeSlot(10)).len(), 3);
        assert_eq!(n.dead_letters().len(), 3 + 2);
        n.route(env(3, 10));
        n.route(env(3, 11)); // fourth letter on 0→3: evicts its oldest
        assert_counts_match_recount(&n);
        assert_eq!(n.dead_letters().len(), 3 + 3);
        assert_eq!(n.stats().dropped_dead_letters, 6);
    }

    #[test]
    fn chaos_plan_schedules_crashes() {
        let plan = ChaosPlan::reliable()
            .phase(
                ChaosPhase::new(TimeSlot(10), TimeSlot(12), FailureModel::reliable())
                    .with_crashes(vec![NodeId(5), NodeId(7)]),
            )
            .phase(
                ChaosPhase::new(TimeSlot(11), TimeSlot(13), FailureModel::reliable())
                    .with_crashes(vec![NodeId(7), NodeId(9)]),
            );
        assert!(!plan.phases.is_empty());
        assert!(plan.crashes_between(TimeSlot(0), TimeSlot(10)).is_empty());
        assert_eq!(
            plan.crashes_between(TimeSlot(10), TimeSlot(11)),
            vec![NodeId(5), NodeId(7)]
        );
        assert_eq!(
            plan.crashes_between(TimeSlot(10), TimeSlot(20)),
            vec![NodeId(5), NodeId(7), NodeId(9)],
            "duplicates collapse, phase order preserved"
        );
    }

    #[test]
    fn per_link_stats_are_tracked() {
        let mut n = Network::reliable();
        n.register(NodeId(1));
        n.register(NodeId(2));
        n.route(env(1, 0));
        n.route(env(1, 0));
        n.route(env(2, 0));
        n.drain(NodeId(1), TimeSlot(0));
        let link1 = n.link_stats(NodeId(0), NodeId(1));
        assert_eq!(link1.sent, 2);
        assert_eq!(link1.enqueued, 2);
        assert_eq!(link1.delivered, 2);
        let link2 = n.link_stats(NodeId(0), NodeId(2));
        assert_eq!(link2.sent, 1);
        assert_eq!(link2.delivered, 0, "routed but not yet drained");
        assert_eq!(n.link_stats(NodeId(5), NodeId(6)), NetworkStats::default());
    }
}
