//! Receiver-side guards for the sequenced delta wire, plus the link
//! failure detector behind degraded (islanded) operation.
//!
//! Since PR 4 the BRP → TSO wire carries *stateful* delta streams: a
//! single lost `MacroOfferDeltas` envelope silently diverges the
//! receiver's pool until deadline expiry papers over it. The network
//! stamps every routed envelope with a per-`(from, to)` sequence number
//! ([`crate::Envelope::seq`]); this module holds the receiver-side
//! disciplines built on it:
//!
//! * [`SequencedRx`] — exactly-once, **in-order** delivery for stateful
//!   streams. Duplicates are dropped, out-of-order envelopes are
//!   buffered until the gap closes, and a detected gap asks the caller
//!   to request a resync from the sender (the sender answers with a
//!   bounded state snapshot, turning a lost delta into one extra
//!   round-trip instead of silent divergence). A receiver of several
//!   senders' streams — the TSO's child port, a federation gateway —
//!   keeps one per sender in a crate-private `StreamRx`, which turns a
//!   gap into the resync request and a snapshot into the re-anchor.
//! * [`DedupRx`] — an at-most-once filter for streams whose messages are
//!   self-contained (submissions, assignments): duplicates injected by
//!   the network are dropped, gaps are let through — a lost submission
//!   is a negotiation-level loss the deadline fallback already covers.
//!
//! Both guards treat unsequenced envelopes (`seq == None`, i.e. handed
//! to the node directly without a network) as deliverable, so direct
//! unit-test hand-offs keep working unchecked.
//!
//! PR 10 adds the **detect → island → recover → reconcile** robustness
//! loop, whose detection half lives here:
//!
//! * **detect** — [`LinkHealth`] is a deterministic, slot-clocked
//!   failure detector for one link: heartbeats
//!   ([`Message::Heartbeat`])
//!   piggyback on the existing sequenced streams, and silence drives
//!   the `Up → Suspect → Down` edge of the state machine while renewed
//!   traffic drives `Down → Recovering → Up`. The same detector keeps
//!   the link's acks: the heartbeat's cumulative `seen` counter acts as
//!   a piggybacked ack for outbox flushes, and an unacked flush is
//!   retransmitted — as an idempotent resync *snapshot*, never a
//!   replayed delta batch — under exponential backoff with a bounded
//!   attempt budget.
//! * **island** — a planner node whose parent link is `Down` plans its
//!   own pool locally (see [`PlannerNode`](crate::runtime::PlannerNode)),
//!   stamping assignments provisional.
//! * **recover** — both node roles rebuild from their WAL
//!   ([`crate::wal`]); each guard is its own snapshot row (its [`Wire`]
//!   impl), restored bit-for-bit: a TSO's stream guards, a BRP's filters.
//! * **reconcile** — on heal the rejoining BRP ships its provisional
//!   assignments
//!   ([`Message::ProvisionalReport`])
//!   and an unsolicited snapshot; the TSO adopts or supersedes through
//!   the normal delta-splice.

use crate::message::{Envelope, Message};
use mirabel_core::codec::{put_u64, CodecError, Wire};
use mirabel_core::{FlexOffer, NodeId, TimeSlot};
use std::collections::{BTreeMap, BTreeSet};

/// Counters kept by a [`SequencedRx`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Envelopes delivered in order (including buffered ones released
    /// when their gap closed).
    pub delivered: u64,
    /// Duplicate envelopes dropped.
    pub duplicates: u64,
    /// Envelopes that arrived ahead of a gap and were buffered.
    pub buffered: u64,
    /// Resync requests the guard asked the caller to send.
    pub resyncs_requested: u64,
    /// Snapshots accepted (stream re-anchored).
    pub resyncs_applied: u64,
    /// Buffered out-of-order envelopes discarded because the buffer hit
    /// its cap (the stream then re-anchors on a resync snapshot).
    pub overflow_dropped: u64,
}

impl StreamStats {
    /// Accumulate another guard's counters. Rollups (a TSO's per-BRP
    /// streams, a federation gateway's per-peer streams) sum into one
    /// row with this instead of exposing every link. Counters restored
    /// from a snapshot can sit anywhere, so the sums saturate.
    pub fn absorb(&mut self, other: &StreamStats) {
        let add = |a: &mut u64, b: u64| *a = a.saturating_add(b);
        add(&mut self.delivered, other.delivered);
        add(&mut self.duplicates, other.duplicates);
        add(&mut self.buffered, other.buffered);
        add(&mut self.resyncs_requested, other.resyncs_requested);
        add(&mut self.resyncs_applied, other.resyncs_applied);
        add(&mut self.overflow_dropped, other.overflow_dropped);
    }
}

/// The one rollup: a set of streams' counters summed into one row.
impl std::iter::Sum for StreamStats {
    fn sum<I: Iterator<Item = StreamStats>>(streams: I) -> StreamStats {
        streams.fold(StreamStats::default(), |mut total, s| {
            total.absorb(&s);
            total
        })
    }
}

/// Cap on a [`SequencedRx`]'s out-of-order buffer. Beyond this many
/// parked envelopes the guard stops buffering, drops what it parked,
/// and relies on the (already requested) resync snapshot to re-anchor —
/// bounding memory during long partitions.
pub const DEFAULT_BUFFER_CAP: usize = 1024;

/// In-order, exactly-once delivery guard for one inbound stateful
/// stream (one sender).
#[derive(Debug, Default)]
pub struct SequencedRx {
    /// The next sequence number that can be delivered.
    next_expected: u64,
    /// Out-of-order envelopes parked until the gap below them closes or
    /// a snapshot supersedes them.
    buffer: BTreeMap<u64, Envelope>,
    /// Whether a resync request is believed to be in flight. Kept for
    /// reporting; the guard still re-requests on every gapped arrival,
    /// because the request itself can be lost on the same bad link.
    resync_pending: bool,
    stats: StreamStats,
}

impl SequencedRx {
    /// Offer one envelope to the guard. Returns the envelopes now
    /// deliverable **in stream order** (possibly empty) plus whether the
    /// caller should send a resync request to the stream's sender.
    ///
    /// A gapped arrival always asks for a resync — even while one is
    /// already pending — since requests travel the same lossy link as
    /// the deltas; the sender's snapshot answer is idempotent.
    ///
    /// The cursor and the counters can be restored from a snapshot at
    /// any value, so every increment saturates: a stream whose cursor
    /// reached `u64::MAX` is degraded, not a panic.
    pub fn receive(&mut self, envelope: Envelope) -> (Vec<Envelope>, bool) {
        let stats = &mut self.stats;
        let Some(seq) = envelope.seq else {
            // Unsequenced: direct hand-off, deliver unchecked.
            stats.delivered = stats.delivered.saturating_add(1);
            return (vec![envelope], false);
        };
        if seq < self.next_expected || self.buffer.contains_key(&seq) {
            stats.duplicates = stats.duplicates.saturating_add(1);
            return (Vec::new(), false);
        }
        if seq > self.next_expected {
            if self.buffer.len() >= DEFAULT_BUFFER_CAP {
                // Overflow: a long gap has parked more than the cap.
                // Everything buffered (and this arrival) is discarded —
                // the resync snapshot the caller sends for supersedes
                // all of it — so memory stays bounded during long
                // partitions instead of growing with the backlog.
                let dropped = self.buffer.len() as u64 + 1;
                stats.overflow_dropped = stats.overflow_dropped.saturating_add(dropped);
                self.buffer.clear();
                stats.resyncs_requested = stats.resyncs_requested.saturating_add(1);
                self.resync_pending = true;
                return (Vec::new(), true);
            }
            self.buffer.insert(seq, envelope);
            stats.buffered = stats.buffered.saturating_add(1);
            stats.resyncs_requested = stats.resyncs_requested.saturating_add(1);
            self.resync_pending = true;
            return (Vec::new(), true);
        }
        // In order: deliver it plus every buffered successor that is now
        // consecutive.
        let mut out = vec![envelope];
        self.next_expected = seq.saturating_add(1);
        self.release(&mut out);
        if self.buffer.is_empty() {
            // The gap (if any) closed by late arrival; nothing is parked.
            self.resync_pending = false;
        }
        (out, false)
    }

    /// Move every parked envelope that is now consecutive onto `out`
    /// (which already holds the ones delivered before them) and count
    /// them all delivered.
    fn release(&mut self, out: &mut Vec<Envelope>) {
        while let Some(e) = self.buffer.remove(&self.next_expected) {
            out.push(e);
            self.next_expected = self.next_expected.saturating_add(1);
        }
        self.stats.delivered = self.stats.delivered.saturating_add(out.len() as u64);
    }

    /// Re-anchor the stream on a snapshot that carried sequence number
    /// `seq`: everything at or below it is superseded by the snapshot,
    /// buffered successors are released in order. Returns the released
    /// envelopes. Pass `None` for an unsequenced (direct) snapshot; the
    /// guard then resets to the highest buffered position.
    pub fn resynced(&mut self, seq: Option<u64>) -> Vec<Envelope> {
        self.stats.resyncs_applied = self.stats.resyncs_applied.saturating_add(1);
        self.resync_pending = false;
        let anchor = match seq {
            Some(s) => s,
            // Unsequenced snapshot: it reflects the sender's current
            // state, so everything buffered so far is superseded.
            None => match self.buffer.keys().next_back() {
                Some(&max) => max,
                None => return Vec::new(),
            },
        };
        self.next_expected = self.next_expected.max(anchor.saturating_add(1));
        // Superseded by the snapshot.
        self.buffer = self.buffer.split_off(&self.next_expected);
        let mut out = Vec::new();
        self.release(&mut out);
        out
    }

    /// Whether a resync request is currently believed to be in flight.
    pub fn resync_pending(&self) -> bool {
        self.resync_pending
    }

    /// Envelopes parked behind a gap.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Delivery counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }
}

/// A guard's row in a WAL snapshot: sequencing cursor, parked envelopes
/// (in sequence order), pending-resync flag and counters. A
/// compaction writes it from the live guard; a crashed receiver decoded
/// from it resumes the stream exactly where it stood — no spurious gap,
/// no double delivery.
impl Wire for SequencedRx {
    fn encode(&self, out: &mut Vec<u8>) {
        self.next_expected.encode(out);
        put_u64(out, self.buffer.len() as u64);
        for envelope in self.buffer.values() {
            envelope.encode(out);
        }
        self.resync_pending.encode(out);
        self.stats.encode(out);
    }

    /// Parked envelopes without a sequence number (impossible for a
    /// guard that parked them, but representable on the wire) are
    /// dropped rather than trusted.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let next_expected = u64::decode(buf)?;
        let parked = Vec::<Envelope>::decode(buf)?;
        Ok(SequencedRx {
            next_expected,
            buffer: parked
                .into_iter()
                .filter_map(|e| Some((e.seq?, e)))
                .collect(),
            resync_pending: bool::decode(buf)?,
            stats: StreamStats::decode(buf)?,
        })
    }
}

impl Wire for StreamStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.delivered.encode(out);
        self.duplicates.encode(out);
        self.buffered.encode(out);
        self.resyncs_requested.encode(out);
        self.resyncs_applied.encode(out);
        self.overflow_dropped.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(StreamStats {
            delivered: u64::decode(buf)?,
            duplicates: u64::decode(buf)?,
            buffered: u64::decode(buf)?,
            resyncs_requested: u64::decode(buf)?,
            resyncs_applied: u64::decode(buf)?,
            overflow_dropped: u64::decode(buf)?,
        })
    }
}

/// The receive side of several senders' sequenced streams, one
/// [`SequencedRx`] per sender.
#[derive(Debug, Default)]
pub(crate) struct StreamRx {
    pub(crate) rx: BTreeMap<NodeId, SequencedRx>,
}

impl StreamRx {
    /// Take one envelope of its sender's stream, received by `me` at
    /// `now`: a snapshot re-anchors the stream and releases what was
    /// buffered beyond it; anything else is sequenced, and a gap asks the
    /// sender for a resync. Returns, in the order the receiver applies
    /// them, a [`Message::ResyncSnapshot`]'s offers (which supersede its
    /// view of the sender), the envelopes now deliverable in stream
    /// order, and the [`Message::ResyncRequest`] to send back, if any.
    pub(crate) fn receive(
        &mut self,
        me: NodeId,
        envelope: Envelope,
        now: TimeSlot,
    ) -> (Option<Vec<FlexOffer>>, Vec<Envelope>, Option<Envelope>) {
        let (from, seq) = (envelope.from, envelope.seq);
        let rx = self.rx.entry(from).or_default();
        if let Message::ResyncSnapshot { offers } = envelope.message {
            return (Some(offers), rx.resynced(seq), None);
        }
        let (deliver, gap) = rx.receive(envelope);
        let reply = gap.then(|| Envelope::new(me, from, now, Message::ResyncRequest));
        (None, deliver, reply)
    }
}

/// Health of one monitored link, as seen by the failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkState {
    /// Traffic is fresh; the peer is presumed alive.
    Up,
    /// Silence exceeded [`LinkHealthConfig::suspect_after`]; the peer
    /// may be slow, partitioned, or dead.
    Suspect,
    /// Silence exceeded [`LinkHealthConfig::down_after`]; the peer is
    /// presumed unreachable and the node may island itself.
    Down,
    /// Traffic resumed after `Down`; the node runs its reconciliation
    /// handshake before trusting the link again.
    Recovering,
}

/// Tuning knobs for [`LinkHealth`]. All
/// horizons are in slots (the deterministic simulation clock), so
/// detection behaviour is bit-identical at any worker-pool width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkHealthConfig {
    /// Slots of silence before `Up` degrades to `Suspect`.
    pub suspect_after: i64,
    /// Slots of silence before `Suspect` degrades to `Down`
    /// (must be ≥ `suspect_after`).
    pub down_after: i64,
    /// Backoff base for unacked-flush retransmits: attempt `n` waits
    /// `retransmit_base << n` slots before firing.
    pub retransmit_base: i64,
    /// Retransmit attempts per unacked frontier before giving up and
    /// leaving recovery to the resync path.
    pub max_retransmits: u32,
}

impl Default for LinkHealthConfig {
    fn default() -> LinkHealthConfig {
        // A healthy hierarchy exchanges heartbeats roughly once per
        // 96-slot day cycle, so ~2 silent cycles is suspicious and ~3
        // is presumed dead.
        LinkHealthConfig {
            suspect_after: 200,
            down_after: 300,
            retransmit_base: 192,
            max_retransmits: 3,
        }
    }
}

/// Counters kept by a [`LinkHealth`] detector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkHealthStats {
    /// `Up → Suspect` transitions observed.
    pub suspects: u64,
    /// `* → Down` transitions observed.
    pub downs: u64,
    /// `Recovering → Up` transitions observed (completed heals).
    pub recoveries: u64,
    /// Heartbeat envelopes processed on this link.
    pub heartbeats_seen: u64,
    /// Unacked-flush retransmits fired on this link.
    pub retransmits: u64,
}

impl LinkHealthStats {
    /// Accumulate another detector's counters (per-region rollups).
    pub fn absorb(&mut self, other: &LinkHealthStats) {
        self.suspects += other.suspects;
        self.downs += other.downs;
        self.recoveries += other.recoveries;
        self.heartbeats_seen += other.heartbeats_seen;
        self.retransmits += other.retransmits;
    }
}

/// Deterministic ack-timeout failure detector for one link, and the
/// link's piggybacked-ack bookkeeping for outbox flushes.
///
/// Purely slot-clocked: [`heard`](Self::heard) records peer traffic,
/// [`tick`](Self::tick) advances the state machine against the silence
/// horizon. No wall clock, no randomness — the same schedule of calls
/// always produces the same transition sequence, which is what lets the
/// chaos campaigns compare islanded runs bit-for-bit across pool
/// widths.
///
/// The sender counts flushes ([`on_flush`](Self::on_flush)); the peer's
/// heartbeats carry its cumulative applied count ([`Message::Heartbeat`]'s
/// `seen`, fed to [`on_ack`](Self::on_ack)). When the frontier stays
/// unacked past an exponentially backed-off deadline,
/// [`due_retransmit`](Self::due_retransmit) fires — at most
/// [`LinkHealthConfig::max_retransmits`] times per frontier. The
/// retransmit payload is the sender's idempotent state *snapshot*
/// (`ResyncSnapshot`), never a replayed delta batch: a re-sent batch
/// would take a fresh sequence number and could regress newer state.
#[derive(Debug, Clone)]
pub struct LinkHealth {
    state: LinkState,
    /// Last slot at which the peer was heard; `None` until first
    /// traffic or first tick (the detector starts its silence clock at
    /// whichever comes first, so a node booted into a dead link still
    /// detects it, just counted from boot).
    last_heard: Option<TimeSlot>,
    config: LinkHealthConfig,
    stats: LinkHealthStats,
    /// Flushes sent on this link so far.
    flushes_sent: u64,
    /// Highest cumulative applied count acked by the peer.
    acked: u64,
    /// Slot the current unacked frontier started waiting at.
    pending_since: Option<TimeSlot>,
    /// Retransmit attempts fired for the current frontier.
    attempts: u32,
}

impl LinkHealth {
    /// A detector in `Up` with the given horizons.
    pub fn new(config: LinkHealthConfig) -> LinkHealth {
        LinkHealth {
            state: LinkState::Up,
            last_heard: None,
            config,
            stats: LinkHealthStats::default(),
            flushes_sent: 0,
            acked: 0,
            pending_since: None,
            attempts: 0,
        }
    }

    /// Record peer traffic at `now`. `Suspect` heals straight back to
    /// `Up`; `Down` only advances to `Recovering` — the owning node
    /// must run its reconciliation handshake and let the next
    /// [`tick`](Self::tick) confirm the heal.
    pub fn heard(&mut self, now: TimeSlot) {
        self.last_heard = Some(match self.last_heard {
            Some(prev) if prev.0 > now.0 => prev,
            _ => now,
        });
        match self.state {
            LinkState::Suspect => self.state = LinkState::Up,
            LinkState::Down => self.state = LinkState::Recovering,
            LinkState::Up | LinkState::Recovering => {}
        }
    }

    /// Record a heartbeat (also counts as traffic).
    pub fn heard_heartbeat(&mut self, now: TimeSlot) {
        self.stats.heartbeats_seen += 1;
        self.heard(now);
    }

    /// Advance the detector to `now` and return the current state.
    pub fn tick(&mut self, now: TimeSlot) -> LinkState {
        let since = match self.last_heard {
            Some(at) => now.0.saturating_sub(at.0),
            None => {
                // First observation: start the silence clock here.
                self.last_heard = Some(now);
                0
            }
        };
        match self.state {
            LinkState::Up | LinkState::Suspect => {
                if since >= self.config.down_after {
                    self.state = LinkState::Down;
                    self.stats.downs += 1;
                } else if since >= self.config.suspect_after {
                    if self.state == LinkState::Up {
                        self.stats.suspects += 1;
                    }
                    self.state = LinkState::Suspect;
                }
            }
            LinkState::Recovering => {
                if since >= self.config.down_after {
                    // The heal did not stick.
                    self.state = LinkState::Down;
                    self.stats.downs += 1;
                } else if since <= self.config.suspect_after {
                    self.state = LinkState::Up;
                    self.stats.recoveries += 1;
                }
            }
            LinkState::Down => {}
        }
        self.state
    }

    /// Current state without advancing the clock.
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// Detector counters.
    pub fn stats(&self) -> LinkHealthStats {
        self.stats
    }

    /// Record one outbox flush at `now`.
    pub fn on_flush(&mut self, now: TimeSlot) {
        self.flushes_sent += 1;
        if self.pending_since.is_none() {
            self.pending_since = Some(now);
            self.attempts = 0;
        }
    }

    /// Record the peer's cumulative applied count from a heartbeat.
    /// Returns whether the current frontier is now fully acked.
    pub fn on_ack(&mut self, seen: u64) -> bool {
        self.acked = self.acked.max(seen);
        if self.acked >= self.flushes_sent {
            self.pending_since = None;
            self.attempts = 0;
            true
        } else {
            false
        }
    }

    /// Whether an unacked frontier has outwaited its backoff deadline.
    /// Firing consumes one attempt, counts one retransmit in
    /// [`stats`](Self::stats) and restarts the (doubled) backoff clock;
    /// after the attempt budget is spent the link stays quiet and leaves
    /// recovery to the resync path.
    pub fn due_retransmit(&mut self, now: TimeSlot) -> bool {
        let Some(since) = self.pending_since else {
            return false;
        };
        if self.attempts >= self.config.max_retransmits {
            return false;
        }
        let wait = self.config.retransmit_base << self.attempts.min(31);
        if now.0.saturating_sub(since.0) >= wait {
            self.attempts += 1;
            self.pending_since = Some(now);
            self.stats.retransmits += 1;
            true
        } else {
            false
        }
    }

    /// Flushes the peer has not acknowledged yet.
    pub fn unacked(&self) -> u64 {
        self.flushes_sent.saturating_sub(self.acked)
    }
}

/// Sequence numbers remembered per stream before compaction kicks in.
/// Old duplicates below the compacted watermark are re-delivered instead
/// of dropped — harmless, since [`DedupRx`] only guards handlers that
/// are idempotent anyway.
const DEDUP_WINDOW: usize = 1024;

/// At-most-once filter for one inbound stream of self-contained
/// messages: drops network-injected duplicates, lets gaps through.
#[derive(Debug, Default)]
pub struct DedupRx {
    /// Every sequence number below this has been delivered (or
    /// compacted away).
    delivered_below: u64,
    /// Delivered sequence numbers at or above the watermark.
    seen: BTreeSet<u64>,
    /// Duplicates dropped.
    pub duplicates: u64,
}

impl DedupRx {
    /// Whether an envelope with this sequence number should be
    /// delivered. Unsequenced envelopes always deliver.
    pub fn accept(&mut self, seq: Option<u64>) -> bool {
        let Some(seq) = seq else {
            return true;
        };
        // In-order fast path (the reliable wire): nothing is parked, so
        // delivery is a watermark bump — no tree operations at all.
        // A watermark restored from a snapshot can sit at `u64::MAX`;
        // it saturates there, degrading the filter instead of panicking.
        if seq == self.delivered_below && self.seen.is_empty() {
            self.delivered_below = seq.saturating_add(1);
            return true;
        }
        if seq < self.delivered_below || !self.seen.insert(seq) {
            self.duplicates = self.duplicates.saturating_add(1);
            return false;
        }
        // Advance the watermark over any now-contiguous prefix.
        while self.seen.remove(&self.delivered_below) {
            self.delivered_below = self.delivered_below.saturating_add(1);
        }
        // Bound memory under permanent gaps (a lost envelope's slot
        // never fills): compact the oldest remembered numbers away.
        while self.seen.len() > DEDUP_WINDOW {
            if let Some(&min) = self.seen.iter().next() {
                self.seen.remove(&min);
                self.delivered_below = self.delivered_below.max(min.saturating_add(1));
            }
        }
        true
    }
}

/// A filter's row in a WAL snapshot: `delivered_below`, the `seen`
/// numbers ascending, `duplicates`. Recovery resumes exactly where the
/// crashed node's duplicate window stood.
impl Wire for DedupRx {
    fn encode(&self, out: &mut Vec<u8>) {
        self.delivered_below.encode(out);
        put_u64(out, self.seen.len() as u64);
        for seq in &self.seen {
            seq.encode(out);
        }
        self.duplicates.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(DedupRx {
            delivered_below: u64::decode(buf)?,
            seen: Vec::<u64>::decode(buf)?.into_iter().collect(),
            duplicates: u64::decode(buf)?,
        })
    }
}

/// Decode a snapshot's `(key, value)` rows, the bytes of a `Vec<(K, V)>`,
/// straight into the map `empty` makes for the row count (capped by the
/// bytes left): a transient vector of 10 k rows cost a BRP recovery ~600
/// page faults (glibc's adaptive mmap / trim thresholds), and so did a
/// hash map grown by doubling to its size.
pub(crate) fn decode_rows<K: Wire, V: Wire, M: Extend<(K, V)>>(
    buf: &mut &[u8],
    empty: impl FnOnce(usize) -> M,
) -> Result<M, CodecError> {
    let rows = usize::decode(buf)?;
    let mut map = empty(rows.min(buf.len()));
    for _ in 0..rows {
        map.extend([<(K, V)>::decode(buf)?]);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use mirabel_core::{FlexOfferId, NodeId, TimeSlot};

    fn env(seq: u64) -> Envelope {
        Envelope::new(
            NodeId(1),
            NodeId(2),
            TimeSlot(0),
            Message::OfferRejected {
                offer: FlexOfferId(seq),
            },
        )
        .with_seq(seq)
    }

    fn seqs(envelopes: &[Envelope]) -> Vec<u64> {
        envelopes.iter().map(|e| e.seq.unwrap()).collect()
    }

    #[test]
    fn in_order_stream_delivers_immediately() {
        let mut rx = SequencedRx::default();
        for s in 0..5 {
            let (out, resync) = rx.receive(env(s));
            assert_eq!(seqs(&out), vec![s]);
            assert!(!resync);
        }
        assert_eq!(rx.stats().delivered, 5);
        assert_eq!(rx.stats().resyncs_requested, 0);
    }

    #[test]
    fn duplicate_is_dropped() {
        let mut rx = SequencedRx::default();
        rx.receive(env(0));
        let (out, resync) = rx.receive(env(0));
        assert!(out.is_empty());
        assert!(!resync);
        assert_eq!(rx.stats().duplicates, 1);
    }

    #[test]
    fn gap_buffers_and_requests_resync_until_closed() {
        let mut rx = SequencedRx::default();
        rx.receive(env(0));
        // 1 is lost; 2 and 3 arrive.
        let (out, resync) = rx.receive(env(2));
        assert!(out.is_empty());
        assert!(resync, "gap must request a resync");
        // Still gapped: re-request (the first request may be lost too).
        let (out, resync) = rx.receive(env(3));
        assert!(out.is_empty());
        assert!(resync);
        assert!(rx.resync_pending());
        assert_eq!(rx.buffered(), 2);
        // The lost envelope finally arrives late: the whole run drains
        // in order.
        let (out, resync) = rx.receive(env(1));
        assert_eq!(seqs(&out), vec![1, 2, 3]);
        assert!(!resync);
        assert!(!rx.resync_pending());
    }

    #[test]
    fn snapshot_supersedes_gap_and_releases_successors() {
        let mut rx = SequencedRx::default();
        rx.receive(env(0));
        rx.receive(env(2)); // gap at 1
        rx.receive(env(4)); // gap at 3
                            // Snapshot stamped seq 5: 1–4 are superseded (their effect is in
                            // the snapshot), nothing is buffered beyond it.
        let released = rx.resynced(Some(5));
        assert!(released.is_empty());
        assert!(!rx.resync_pending());
        assert_eq!(rx.buffered(), 0);
        // The stream continues cleanly at 6.
        let (out, resync) = rx.receive(env(6));
        assert_eq!(seqs(&out), vec![6]);
        assert!(!resync);
        // Late duplicates of superseded envelopes are dropped.
        let (out, _) = rx.receive(env(2));
        assert!(out.is_empty());
    }

    #[test]
    fn snapshot_releases_buffered_beyond_it() {
        let mut rx = SequencedRx::default();
        rx.receive(env(0));
        rx.receive(env(3)); // gaps at 1, 2
        rx.receive(env(4));
        // Snapshot stamped 2 (sent after deltas 1 and 2, before 3): the
        // buffered 3 and 4 apply on top, in order.
        let released = rx.resynced(Some(2));
        assert_eq!(seqs(&released), vec![3, 4]);
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn unsequenced_envelopes_bypass_the_guard() {
        let mut rx = SequencedRx::default();
        let direct = Envelope::new(NodeId(1), NodeId(2), TimeSlot(0), Message::ResyncRequest);
        let (out, resync) = rx.receive(direct);
        assert_eq!(out.len(), 1);
        assert!(!resync);
    }

    #[test]
    fn dedup_drops_duplicates_lets_gaps_through() {
        let mut rx = DedupRx::default();
        assert!(rx.accept(Some(0)));
        assert!(!rx.accept(Some(0)));
        // Gap: 1 is lost, 2 delivers anyway.
        assert!(rx.accept(Some(2)));
        assert!(!rx.accept(Some(2)));
        // The late 1 is not a duplicate.
        assert!(rx.accept(Some(1)));
        assert!(!rx.accept(Some(1)));
        assert_eq!(rx.duplicates, 3);
        assert!(rx.accept(None), "unsequenced always delivers");
    }

    #[test]
    fn buffer_overflow_drops_and_forces_resync() {
        let mut rx = SequencedRx::default();
        rx.receive(env(0));
        // Seq 1 lost; 2 ..= cap + 1 park (cap reached), cap + 2 overflows.
        let cap = DEFAULT_BUFFER_CAP as u64;
        for s in 2..=cap + 1 {
            let (out, resync) = rx.receive(env(s));
            assert!(out.is_empty());
            assert!(resync);
        }
        assert_eq!(rx.buffered(), DEFAULT_BUFFER_CAP);
        let (out, resync) = rx.receive(env(cap + 2));
        assert!(out.is_empty());
        assert!(resync, "overflow still asks for a resync");
        assert_eq!(rx.buffered(), 0, "parked envelopes were discarded");
        assert_eq!(rx.stats().overflow_dropped, cap + 1);
        // The snapshot (stamped cap + 2) re-anchors the stream; the next
        // one flows.
        let released = rx.resynced(Some(cap + 2));
        assert!(released.is_empty());
        let (out, resync) = rx.receive(env(cap + 3));
        assert_eq!(seqs(&out), vec![cap + 3]);
        assert!(!resync);
    }

    #[test]
    fn dedup_state_export_restore_roundtrip() {
        let mut rx = DedupRx::default();
        for s in [0u64, 1, 3, 7] {
            rx.accept(Some(s));
        }
        rx.accept(Some(3)); // one duplicate
        let row = rx.to_bytes();
        // `((delivered_below, seen), duplicates)`, written independently.
        assert_eq!(row, ((2u64, vec![3u64, 7]), 1u64).to_bytes());
        let mut restored = DedupRx::from_bytes(&row).unwrap();
        assert_eq!(restored.to_bytes(), row);
        // Same acceptance behaviour as the original going forward.
        assert!(!restored.accept(Some(7)), "remembered as delivered");
        assert!(restored.accept(Some(2)), "gap slot still deliverable");
        assert_eq!(restored.duplicates, 2);
    }

    #[test]
    fn dedup_window_is_bounded_under_permanent_gaps() {
        let mut rx = DedupRx::default();
        // Seq 0 never arrives: every later number stays in `seen` until
        // compaction bounds it.
        for s in 1..(DEDUP_WINDOW as u64 + 100) {
            assert!(rx.accept(Some(s)));
        }
        assert!(rx.seen.len() <= DEDUP_WINDOW);
    }

    #[test]
    fn sequenced_rx_state_freezes_and_restores_mid_gap() {
        let mut rx = SequencedRx::default();
        rx.receive(env(0));
        rx.receive(env(2)); // gap at 1 parks seq 2
        let row = rx.to_bytes();
        // `(next_expected, (parked, (resync_pending, stats)))`, written
        // independently.
        let parked = vec![env(2)];
        let described = (1u64, (parked, (true, rx.stats()))).to_bytes();
        assert_eq!(row, described, "encoded in place, byte for byte");
        // Wire roundtrip, then resume: the late 1 still drains 1 and 2.
        let mut restored = SequencedRx::from_bytes(&row).unwrap();
        assert_eq!(restored.to_bytes(), row);
        assert_eq!(restored.buffered(), 1);
        assert!(restored.resync_pending());
        let (out, resync) = restored.receive(env(1));
        assert_eq!(seqs(&out), vec![1, 2]);
        assert!(!resync);
        assert_eq!(restored.stats().delivered, rx.stats().delivered + 2);
    }

    #[test]
    fn link_health_walks_up_suspect_down_recovering_up() {
        let config = LinkHealthConfig {
            suspect_after: 10,
            down_after: 20,
            ..LinkHealthConfig::default()
        };
        let mut health = LinkHealth::new(config);
        assert_eq!(health.tick(TimeSlot(0)), LinkState::Up);
        assert_eq!(health.tick(TimeSlot(9)), LinkState::Up);
        assert_eq!(health.tick(TimeSlot(10)), LinkState::Suspect);
        // Fresh traffic heals Suspect straight back to Up.
        health.heard(TimeSlot(11));
        assert_eq!(health.tick(TimeSlot(12)), LinkState::Up);
        // Silence past the down horizon islands the link.
        assert_eq!(health.tick(TimeSlot(31)), LinkState::Down);
        assert_eq!(health.tick(TimeSlot(99)), LinkState::Down, "Down is sticky");
        // Traffic resumes: Recovering first, Up once the next tick
        // confirms the traffic is fresh.
        health.heard_heartbeat(TimeSlot(100));
        assert_eq!(health.state(), LinkState::Recovering);
        assert_eq!(health.tick(TimeSlot(101)), LinkState::Up);
        let stats = health.stats();
        assert_eq!(stats.suspects, 1);
        assert_eq!(stats.downs, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.heartbeats_seen, 1);
    }

    #[test]
    fn link_health_recovering_can_relapse_to_down() {
        let config = LinkHealthConfig {
            suspect_after: 10,
            down_after: 20,
            ..LinkHealthConfig::default()
        };
        let mut health = LinkHealth::new(config);
        health.tick(TimeSlot(0));
        assert_eq!(health.tick(TimeSlot(25)), LinkState::Down);
        health.heard(TimeSlot(26));
        assert_eq!(health.state(), LinkState::Recovering);
        // No further traffic: the heal did not stick.
        assert_eq!(health.tick(TimeSlot(50)), LinkState::Down);
        assert_eq!(health.stats().downs, 2);
        assert_eq!(health.stats().recoveries, 0);
    }

    #[test]
    fn retransmits_back_off_exponentially_and_are_bounded() {
        let mut link = LinkHealth::new(LinkHealthConfig {
            retransmit_base: 4,
            max_retransmits: 2,
            ..LinkHealthConfig::default()
        });
        link.on_flush(TimeSlot(0));
        assert_eq!(link.unacked(), 1);
        assert!(!link.due_retransmit(TimeSlot(3)));
        // First deadline: base << 0 = 4 slots.
        assert!(link.due_retransmit(TimeSlot(4)));
        // Second deadline doubles: base << 1 = 8 slots after the retry.
        assert!(!link.due_retransmit(TimeSlot(11)));
        assert!(link.due_retransmit(TimeSlot(12)));
        // Attempt budget spent: the link stays quiet forever after.
        assert!(!link.due_retransmit(TimeSlot(10_000)));
        assert_eq!(link.stats().retransmits, 2, "each firing is counted");
        // A full ack clears the frontier and re-arms the link.
        assert!(link.on_ack(1));
        link.on_flush(TimeSlot(10_100));
        assert!(link.due_retransmit(TimeSlot(10_104)));
        // Partial acks do not clear the frontier.
        link.on_flush(TimeSlot(10_105));
        assert!(!link.on_ack(2));
        assert_eq!(link.unacked(), 1);
    }
}
