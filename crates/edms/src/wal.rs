//! Per-node write-ahead event log: append-before-apply durability for
//! the wire.
//!
//! The paper's EDMS "stores flex-offers, supply and demand measurements,
//! forecasts, etc." so that every actor level can recover and audit its
//! state. This module is that persistence substrate for the
//! reproduction, and — the hierarchy being homogeneous — the *one* place
//! its rules are decided: every planner node keeps its durable half in a
//! crate-private `Journal`, and its two child ports differ only in what
//! they snapshot.
//!
//! ## The journal contract
//!
//! * **Append before apply.** Every envelope a node accepts is appended
//!   to the [`WalStore`] as an [`EventRecord`] frame *before* the node
//!   mutates any in-memory state (`Journal::ingest`), stamped with the
//!   handling clock so a replayed deadline decision matches the
//!   original. The frame is the record's [`Wire`] bytes, encoded from
//!   the borrowed envelope into one reused buffer: no record value is
//!   built on the way to the store.
//! * **Markers are replay-unsafe and carry their cause.** What a node
//!   *emits* as the durable effect of planning — an upward outbox flush,
//!   an islanded commit ledger and the hand-off that clears it, the
//!   assignments a parentless node commits — is appended with
//!   `replay_safe = false` and
//!   the event id of the last ingested envelope as `causation_id`
//!   (`Journal::mark`). Recovery never re-handles a marker; the owning
//!   node re-applies it as the state transition it recorded.
//! * **Detached while replaying.** A journal without a [`NodeWal`]
//!   ignores every call. A node being rebuilt replays its tail with the
//!   reopened log held aside and attaches it only afterwards, so a
//!   replayed event cannot re-append (and the replies it regenerates,
//!   already sent before the crash, are dropped by the caller).
//! * **Snapshot, then truncate.** Every [`WalConfig::snapshot_every`]
//!   appended events the node installs its encoded state and the store
//!   truncates the log, so recovery costs O(snapshot + tail), never
//!   O(lifetime). The node writes the snapshot straight from its live
//!   state into one buffer behind the `next_event_id` header; the
//!   snapshot is never built as a value, and the buffer is handed to
//!   the store once and dropped. A store that fails the install keeps
//!   its log, and the install is retried after another
//!   `snapshot_every` events. A snapshot that does not decode *exactly*
//!   — cut short, malformed, or with bytes left over — restores nothing
//!   at either level; the tail still replays, and the resync protocol
//!   heals the rest.
//!
//! A crashed node rebuilds by reopening its store, restoring the
//! snapshot, replaying the tail and re-anchoring its sequenced streams
//! through the resync-snapshot path
//! ([`PlannerNode::recover_from`](crate::runtime::PlannerNode::recover_from)).
//!
//! Two stores are provided: [`MemWalStore`] (deterministic simulations
//! and chaos campaigns) and [`FileWalStore`] (length- and
//! checksum-framed files on disk, tolerant of a torn tail write).

use crate::message::Envelope;
use mirabel_core::codec::{put_u64, take_u64, CodecError, Wire};
use mirabel_core::TimeSlot;
use std::fs;
use std::io::{Read, Write as IoWrite};
use std::path::{Path, PathBuf};

/// Tuning knobs for a node's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Install a snapshot (and truncate the log) after this many
    /// appended events — the bound on replay length.
    pub snapshot_every: usize,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            snapshot_every: 256,
        }
    }
}

/// One durable record: the event envelope around a wire envelope. The
/// record's federation region is [`Envelope::region`], which the frame
/// already carries.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotonic per-node event id (also the WAL position).
    pub event_id: u64,
    /// The ingested event that caused this one — e.g. an outbox flush
    /// caused by the round's planning — when the producer knows it.
    pub causation_id: Option<u64>,
    /// Whether recovery may replay this record through the node's
    /// message handler. Ingested envelopes are replay-safe; outbound
    /// flush markers are not (they replay as state transitions — "the
    /// outbox was emptied here" — instead of being re-handled).
    pub replay_safe: bool,
    /// The slot at which the node originally handled the envelope —
    /// replaying with the same clock keeps time-dependent decisions
    /// (acceptance, expiry) identical to the first execution.
    pub recorded_at: TimeSlot,
    /// The wire envelope.
    pub envelope: Envelope,
}

/// The bytes of an [`EventRecord`], written from its fields by
/// reference — [`NodeWal::append`] frames a borrowed envelope with it.
fn encode_record(
    out: &mut Vec<u8>,
    event_id: u64,
    causation_id: Option<u64>,
    replay_safe: bool,
    recorded_at: TimeSlot,
    envelope: &Envelope,
) {
    event_id.encode(out);
    causation_id.encode(out);
    replay_safe.encode(out);
    recorded_at.encode(out);
    envelope.encode(out);
}

impl Wire for EventRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_record(
            out,
            self.event_id,
            self.causation_id,
            self.replay_safe,
            self.recorded_at,
            &self.envelope,
        );
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(EventRecord {
            event_id: u64::decode(buf)?,
            causation_id: Option::<u64>::decode(buf)?,
            replay_safe: bool::decode(buf)?,
            recorded_at: TimeSlot::decode(buf)?,
            envelope: Envelope::decode(buf)?,
        })
    }
}

/// What a [`WalStore`] reads back: the installed snapshot (if any)
/// plus the frames appended since it was installed.
pub type LoadedLog = (Option<Vec<u8>>, Vec<Vec<u8>>);

/// Pluggable storage behind a node's WAL.
///
/// A store holds at most one snapshot plus the frames appended since it
/// was installed. Frames are opaque byte strings (encoded
/// [`EventRecord`]s); the store only guarantees order and atomicity of
/// [`install_snapshot`](WalStore::install_snapshot) (which truncates
/// the frame log).
pub trait WalStore: std::fmt::Debug + Send {
    /// Append one encoded event frame after the current log tail.
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()>;
    /// Replace the snapshot and truncate the appended frames.
    fn install_snapshot(&mut self, snapshot: &[u8]) -> std::io::Result<()>;
    /// Read back `(snapshot, frames appended since it)`.
    fn load(&mut self) -> std::io::Result<LoadedLog>;
}

/// In-memory store: deterministic, used by simulations and chaos
/// campaigns (the "disk" survives the node because the harness owns it).
///
/// The tail is one byte log plus the end offset of each frame in it, so
/// a warm append copies the frame and allocates nothing; a journal
/// truncates it every [`WalConfig::snapshot_every`] events, which bounds
/// what it keeps.
#[derive(Debug, Default)]
pub struct MemWalStore {
    snapshot: Option<Vec<u8>>,
    log: Vec<u8>,
    /// Where each frame of `log` ends, in append order.
    ends: Vec<usize>,
}

impl MemWalStore {
    /// An empty store.
    pub fn new() -> MemWalStore {
        MemWalStore::default()
    }
}

impl WalStore for MemWalStore {
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.log.extend_from_slice(frame);
        self.ends.push(self.log.len());
        Ok(())
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
        self.snapshot = Some(snapshot.to_vec());
        self.log.clear();
        self.ends.clear();
        Ok(())
    }

    fn load(&mut self) -> std::io::Result<LoadedLog> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let frames = starts
            .zip(&self.ends)
            .map(|(start, &end)| self.log[start..end].to_vec())
            .collect();
        Ok((self.snapshot.clone(), frames))
    }
}

/// FNV-1a 32-bit checksum guarding each on-disk frame against torn or
/// bit-rotted writes.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// File-backed store: `snapshot.bin` plus `wal.log` in one directory.
///
/// Log frames are `[len: u32 LE][fnv1a32: u32 LE][payload]`; a torn
/// tail (incomplete length, short payload, or checksum mismatch) ends
/// the replay at the last intact frame instead of failing recovery, and
/// `load` truncates the file there so later appends stay readable.
/// Snapshots are written to a temporary file and renamed into place, so
/// a crash mid-install leaves the previous snapshot readable.
#[derive(Debug)]
pub struct FileWalStore {
    dir: PathBuf,
    log: Option<fs::File>,
    /// The framed bytes of the last append, reused by the next.
    frame: Vec<u8>,
}

impl FileWalStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<FileWalStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(FileWalStore {
            dir,
            log: None,
            frame: Vec::new(),
        })
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn log_file(&mut self) -> std::io::Result<&mut fs::File> {
        let file = match self.log.take() {
            Some(file) => file,
            None => fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.log_path())?,
        };
        Ok(self.log.insert(file))
    }

    /// The intact frames at the head of `bytes`, and how many bytes
    /// they span.
    fn parse_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
        let mut frames = Vec::new();
        let mut rest = bytes;
        while let Some((&[l0, l1, l2, l3, s0, s1, s2, s3], body)) = rest.split_first_chunk() {
            let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
            let Some((payload, after)) = body.split_at_checked(len) else {
                break; // torn tail: length runs past EOF
            };
            if fnv1a32(payload) != u32::from_le_bytes([s0, s1, s2, s3]) {
                break; // torn or corrupt tail
            }
            frames.push(payload.to_vec());
            rest = after;
        }
        (frames, bytes.len() - rest.len())
    }
}

impl WalStore for FileWalStore {
    /// One `write` per frame (an unbuffered `File` needs no flush),
    /// framed in a buffer the store keeps.
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let mut buf = std::mem::take(&mut self.frame);
        buf.clear();
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&fnv1a32(frame).to_le_bytes());
        buf.extend_from_slice(frame);
        let written = self.log_file().and_then(|file| file.write_all(&buf));
        self.frame = buf;
        written
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        fs::write(&tmp, snapshot)?;
        fs::rename(&tmp, self.snapshot_path())?;
        // Truncate the log: everything below the snapshot is compacted.
        self.log = None;
        fs::write(self.log_path(), [])?;
        Ok(())
    }

    fn load(&mut self) -> std::io::Result<LoadedLog> {
        let snapshot = match fs::read(self.snapshot_path()) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let frames = match fs::File::open(self.log_path()) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                let (frames, intact) = FileWalStore::parse_frames(&bytes);
                if intact < bytes.len() {
                    // Cut the torn tail off: `append` would write behind
                    // it, and every later load would stop there again.
                    self.log = None;
                    fs::OpenOptions::new()
                        .write(true)
                        .open(self.log_path())?
                        .set_len(intact as u64)?;
                }
                frames
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok((snapshot, frames))
    }
}

/// A node's write-ahead log: event-id assignment, append-before-apply
/// framing, and snapshot-then-truncate compaction over a [`WalStore`].
///
/// The snapshot bytes a node hands to [`install_snapshot`] are opaque
/// here; `NodeWal` prefixes them with its own header (`next_event_id`)
/// so recovery resumes the event-id sequence exactly.
///
/// [`install_snapshot`]: NodeWal::install_snapshot
#[derive(Debug)]
pub struct NodeWal {
    store: Box<dyn WalStore>,
    config: WalConfig,
    next_event_id: u64,
    appended_since_snapshot: usize,
    /// The tail length at which compaction is next due: `snapshot_every`
    /// after an install, and `snapshot_every` further on after one the
    /// store failed.
    snapshot_due_at: usize,
    /// Length of the last snapshot installed: the capacity hint of the
    /// next one.
    snapshot_len: usize,
    /// The frame of the last append, reused by the next.
    frame: Vec<u8>,
    /// Append/install failures swallowed so far (durability degrades to
    /// best-effort rather than crashing the node on a full disk).
    io_errors: u64,
}

impl NodeWal {
    /// A WAL over the given store.
    pub fn new(store: Box<dyn WalStore>, config: WalConfig) -> NodeWal {
        NodeWal {
            store,
            config,
            next_event_id: 0,
            appended_since_snapshot: 0,
            snapshot_due_at: config.snapshot_every,
            snapshot_len: 0,
            frame: Vec::new(),
            io_errors: 0,
        }
    }

    /// Convenience: a WAL over a fresh in-memory store.
    pub fn in_memory(config: WalConfig) -> NodeWal {
        NodeWal::new(Box::new(MemWalStore::new()), config)
    }

    /// Reopen a store after a crash: returns the WAL (event-id sequence
    /// resumed), the node snapshot installed last (if any), and the
    /// event records appended since it, in order. Undecodable tail
    /// records end the replay early rather than failing it, and a store
    /// whose ids reach `u64::MAX` resumes there: the sequence saturates.
    pub fn recover(
        mut store: Box<dyn WalStore>,
        config: WalConfig,
    ) -> std::io::Result<(NodeWal, Option<Vec<u8>>, Vec<EventRecord>)> {
        let (snapshot_bytes, frames) = store.load()?;
        let mut wal = NodeWal::new(store, config);
        wal.snapshot_len = snapshot_bytes.as_ref().map_or(0, Vec::len);
        // The header is cut off in place: a copy of the state would be a
        // second snapshot-sized allocation on every recovery.
        let snapshot = snapshot_bytes.and_then(|mut bytes| {
            let mut state = bytes.as_slice();
            wal.next_event_id = take_u64(&mut state).ok()?;
            let header = bytes.len() - state.len();
            bytes.drain(..header);
            Some(bytes)
        });
        let mut records = Vec::with_capacity(frames.len());
        for frame in &frames {
            match EventRecord::from_bytes(frame) {
                Ok(rec) => {
                    wal.next_event_id = wal.next_event_id.max(rec.event_id.saturating_add(1));
                    records.push(rec);
                }
                Err(_) => break,
            }
        }
        wal.appended_since_snapshot = records.len();
        Ok((wal, snapshot, records))
    }

    /// Append one event **before** the node applies it. Returns the
    /// assigned event id.
    pub fn append(
        &mut self,
        envelope: &Envelope,
        causation_id: Option<u64>,
        replay_safe: bool,
        recorded_at: TimeSlot,
    ) -> u64 {
        let event_id = self.next_event_id;
        self.next_event_id = event_id.saturating_add(1);
        self.frame.clear();
        encode_record(
            &mut self.frame,
            event_id,
            causation_id,
            replay_safe,
            recorded_at,
            envelope,
        );
        if self.store.append(&self.frame).is_err() {
            self.io_errors += 1;
        }
        self.appended_since_snapshot += 1;
        event_id
    }

    /// Whether compaction is due (the owning node should encode its
    /// state and call [`install_snapshot`](Self::install_snapshot)).
    pub fn wants_snapshot(&self) -> bool {
        self.appended_since_snapshot >= self.snapshot_due_at
    }

    /// Install a node-state snapshot and truncate the log.
    pub fn install_snapshot(&mut self, state: &[u8]) {
        let mut snapshot = self.snapshot_buffer();
        snapshot.extend_from_slice(state);
        self.install(&snapshot);
    }

    /// A buffer holding the snapshot header, for the node state to be
    /// written behind. Sized like the last snapshot plus an eighth, so a
    /// pool that grew a little since does not reallocate it, and rounded
    /// up to a power of two, the sizes a growing buffer takes anyway:
    /// with odd sizes, glibc's adaptive mmap threshold kept about 1 MiB
    /// more resident on a crash-restart workload (measured, 2-core VM).
    fn snapshot_buffer(&self) -> Vec<u8> {
        let capacity = self.snapshot_len + self.snapshot_len / 8 + 10;
        let mut snapshot = Vec::with_capacity(capacity.next_power_of_two());
        put_u64(&mut snapshot, self.next_event_id);
        snapshot
    }

    /// Hand a snapshot begun by `snapshot_buffer` to the store, which
    /// truncates the log. If the store fails, the log stays and the
    /// install is retried after another `snapshot_every` appends.
    fn install(&mut self, snapshot: &[u8]) {
        self.snapshot_len = snapshot.len();
        if self.store.install_snapshot(snapshot).is_ok() {
            self.appended_since_snapshot = 0;
            self.snapshot_due_at = self.config.snapshot_every;
        } else {
            self.io_errors += 1;
            self.snapshot_due_at = self.appended_since_snapshot + self.config.snapshot_every;
        }
    }

    /// Events appended since the last snapshot (the replay length a
    /// crash right now would incur).
    pub fn tail_len(&self) -> usize {
        self.appended_since_snapshot
    }

    /// The next event id this WAL will assign.
    pub fn next_event_id(&self) -> u64 {
        self.next_event_id
    }

    /// Append/install failures swallowed so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Tear down the WAL and return the underlying store — the "disk" a
    /// simulated crash leaves behind for [`NodeWal::recover`].
    pub fn into_store(self) -> Box<dyn WalStore> {
        self.store
    }
}

/// The durable half of a planner node: the optional [`NodeWal`] plus
/// the causation link for the markers it logs. See the module docs for
/// the contract; every method is a no-op while no WAL is attached.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    wal: Option<NodeWal>,
    /// Event id of the most recently ingested envelope.
    last_ingest: Option<u64>,
}

impl Journal {
    /// Start (or resume) logging into `wal`.
    pub(crate) fn attach(&mut self, wal: NodeWal) {
        self.wal = Some(wal);
    }

    /// The attached WAL, if any.
    pub(crate) fn wal(&self) -> Option<&NodeWal> {
        self.wal.as_ref()
    }

    /// Stop logging and hand the WAL back.
    pub(crate) fn detach(&mut self) -> Option<NodeWal> {
        self.wal.take()
    }

    /// Log an accepted inbound envelope, before the node applies it.
    pub(crate) fn ingest(&mut self, envelope: &Envelope, now: TimeSlot) {
        if let Some(wal) = self.wal.as_mut() {
            self.last_ingest = Some(wal.append(envelope, None, true, now));
        }
    }

    /// Log a replay-unsafe marker, caused by the last ingested envelope.
    pub(crate) fn mark(&mut self, marker: &Envelope, now: TimeSlot) {
        if let Some(wal) = self.wal.as_mut() {
            wal.append(marker, self.last_ingest, false, now);
        }
    }

    /// Once the tail has reached [`WalConfig::snapshot_every`]: the
    /// snapshot buffer, header written, for the node to encode its state
    /// into and hand to [`compact`](Self::compact).
    pub(crate) fn snapshot_due(&self) -> Option<Vec<u8>> {
        let wal = self.wal.as_ref().filter(|wal| wal.wants_snapshot())?;
        Some(wal.snapshot_buffer())
    }

    /// Install a snapshot begun by [`snapshot_due`](Self::snapshot_due)
    /// and truncate the log. Taken by value, so the buffer is freed as
    /// soon as the store holds its copy.
    pub(crate) fn compact(&mut self, snapshot: Vec<u8>) {
        if let Some(wal) = self.wal.as_mut() {
            wal.install(&snapshot);
        }
    }

    /// Reopen the store a crashed node left behind: the journal to attach
    /// once the tail is replayed, the snapshot if one is installed and
    /// decodes exactly, and the events appended since it.
    pub(crate) fn reopen<S: Wire>(
        store: Box<dyn WalStore>,
        config: WalConfig,
    ) -> std::io::Result<(Journal, Option<S>, Vec<EventRecord>)> {
        let (wal, snapshot, tail) = NodeWal::recover(store, config)?;
        let journal = Journal {
            wal: Some(wal),
            last_ingest: None,
        };
        let snapshot = snapshot.and_then(|bytes| S::from_bytes(&bytes).ok());
        Ok((journal, snapshot, tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use mirabel_core::{FlexOfferId, NodeId, RegionId};

    fn env(n: u64) -> Envelope {
        Envelope::new(
            NodeId(1),
            NodeId(2),
            TimeSlot(n as i64),
            Message::OfferRejected {
                offer: FlexOfferId(n),
            },
        )
        .with_seq(n)
    }

    #[test]
    fn event_record_roundtrip() {
        let rec = EventRecord {
            event_id: 42,
            causation_id: Some(7),
            replay_safe: true,
            recorded_at: TimeSlot(-3),
            envelope: env(9).in_region(RegionId(3)),
        };
        let back = EventRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn mem_store_append_snapshot_truncate() {
        let mut wal = NodeWal::in_memory(WalConfig { snapshot_every: 3 });
        assert_eq!(wal.append(&env(0), None, true, TimeSlot(0)), 0);
        assert_eq!(wal.append(&env(1), Some(0), true, TimeSlot(0)), 1);
        assert!(!wal.wants_snapshot());
        wal.append(&env(2), None, true, TimeSlot(1));
        assert!(wal.wants_snapshot(), "cap reached");
        wal.install_snapshot(b"state-1");
        assert_eq!(wal.tail_len(), 0);
        wal.append(&env(3), None, true, TimeSlot(2));

        // "Crash": recover from the same store.
        let NodeWal { store, .. } = wal;
        let (wal2, snapshot, records) =
            NodeWal::recover(store, WalConfig { snapshot_every: 3 }).unwrap();
        assert_eq!(snapshot.as_deref(), Some(b"state-1".as_slice()));
        assert_eq!(records.len(), 1, "only the post-snapshot tail replays");
        assert_eq!(records[0].event_id, 3);
        assert_eq!(wal2.next_event_id(), 4, "event-id sequence resumes");
    }

    #[test]
    fn a_store_at_the_last_event_id_recovers_and_appends() {
        let recover_and_append = |store: MemWalStore| {
            let (mut wal, _, _) = NodeWal::recover(Box::new(store), WalConfig::default()).unwrap();
            assert_eq!(wal.append(&env(1), None, true, TimeSlot(1)), u64::MAX);
            assert_eq!(wal.next_event_id(), u64::MAX, "the sequence saturates");
        };
        // A frame carrying the last id.
        let mut store = MemWalStore::new();
        let frame = EventRecord {
            event_id: u64::MAX,
            causation_id: None,
            replay_safe: true,
            recorded_at: TimeSlot(0),
            envelope: env(0),
        };
        store.append(&frame.to_bytes()).unwrap();
        recover_and_append(store);
        // A snapshot header resuming at it.
        let mut store = MemWalStore::new();
        let mut header = Vec::new();
        put_u64(&mut header, u64::MAX);
        store.install_snapshot(&header).unwrap();
        recover_and_append(store);
    }

    #[test]
    fn journal_is_inert_detached_and_links_markers_to_their_ingest() {
        let config = WalConfig { snapshot_every: 3 };
        let mut journal = Journal::default();
        journal.ingest(&env(0), TimeSlot(0));
        journal.mark(&env(1), TimeSlot(0));
        journal.compact(vec![7]);
        assert!(journal.snapshot_due().is_none());
        assert!(journal.detach().is_none(), "detached calls log nothing");

        journal.attach(NodeWal::in_memory(config));
        journal.mark(&env(2), TimeSlot(1)); // nothing ingested yet
        journal.ingest(&env(3), TimeSlot(1));
        journal.mark(&env(4), TimeSlot(2));
        assert!(journal.snapshot_due().is_some());
        let store = journal.detach().unwrap().into_store();
        let (mut journal, snapshot, tail) = Journal::reopen::<u64>(store, config).unwrap();
        assert_eq!(snapshot, None);
        let links: Vec<_> = tail
            .iter()
            .map(|r| (r.event_id, r.causation_id, r.replay_safe))
            .collect();
        assert_eq!(
            links,
            vec![(0, None, false), (1, None, true), (2, Some(1), false)]
        );

        // A snapshot restores only if it decodes exactly: the pair below
        // reads back as a pair, and as nothing when asked for one `u64`.
        let mut snapshot = journal.snapshot_due().expect("the reopened tail is due");
        (9u64, 4u64).encode(&mut snapshot);
        journal.compact(snapshot);
        let store = journal.detach().unwrap().into_store();
        let (mut journal, snapshot, tail) = Journal::reopen::<(u64, u64)>(store, config).unwrap();
        assert_eq!((snapshot, tail.len()), (Some((9, 4)), 0));
        let store = journal.detach().unwrap().into_store();
        let (_, snapshot, _) = Journal::reopen::<u64>(store, config).unwrap();
        assert_eq!(snapshot, None, "trailing bytes reject the snapshot");
    }

    #[test]
    fn file_store_roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "mirabel-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = Box::new(FileWalStore::open(&dir).unwrap());
            let mut wal = NodeWal::new(store, WalConfig::default());
            wal.append(&env(0), None, true, TimeSlot(0));
            wal.install_snapshot(b"snap");
            wal.append(&env(1), None, true, TimeSlot(1));
            wal.append(&env(2), Some(1), false, TimeSlot(1));
        }
        // Simulate a torn tail: append garbage half-frame bytes.
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join("wal.log"))
                .unwrap();
            f.write_all(&[0xEE, 0xFF, 0x00, 0x00, 0x12]).unwrap();
        }
        let store = Box::new(FileWalStore::open(&dir).unwrap());
        let (wal, snapshot, records) = NodeWal::recover(store, WalConfig::default()).unwrap();
        assert_eq!(snapshot.as_deref(), Some(b"snap".as_slice()));
        assert_eq!(records.len(), 2, "intact frames survive the torn tail");
        assert_eq!(records[1].causation_id, Some(1));
        assert!(!records[1].replay_safe);
        assert_eq!(wal.next_event_id(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_a_torn_tail_recovery_are_readable() {
        let dir = std::env::temp_dir().join(format!(
            "mirabel-wal-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut store = FileWalStore::open(&dir).unwrap();
        store.append(b"first").unwrap();
        let first_len = fs::read(dir.join("wal.log")).unwrap().len();
        store.append(b"second").unwrap();
        let intact = fs::read(dir.join("wal.log")).unwrap();

        // The last frame cut at every offset, then whole but corrupt.
        let mut damaged: Vec<Vec<u8>> = (first_len..intact.len())
            .map(|cut| intact[..cut].to_vec())
            .collect();
        let mut flipped = intact.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        damaged.push(flipped);

        for log in damaged {
            fs::write(dir.join("wal.log"), &log).unwrap();
            let mut store = FileWalStore::open(&dir).unwrap();
            let (_, frames) = store.load().unwrap();
            assert_eq!(frames, vec![b"first".to_vec()], "{} bytes", log.len());
            store.append(b"third").unwrap();
            let (_, frames) = FileWalStore::open(&dir).unwrap().load().unwrap();
            assert_eq!(
                frames,
                vec![b"first".to_vec(), b"third".to_vec()],
                "{} bytes",
                log.len()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_torn_at_every_offset_keeps_the_whole_frames() {
        let dir = std::env::temp_dir().join(format!(
            "mirabel-wal-every-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let open = || Box::new(FileWalStore::open(&dir).unwrap());
        let recover = || NodeWal::recover(open(), WalConfig::default()).unwrap();
        {
            let mut wal = NodeWal::new(open(), WalConfig::default());
            wal.append(&env(0), None, true, TimeSlot(0));
            wal.install_snapshot(b"state");
            for n in 1..=6 {
                wal.append(&env(n), None, true, TimeSlot(n as i64));
            }
        }
        let log = fs::read(dir.join("wal.log")).unwrap();
        let snapshot = fs::read(dir.join("snapshot.bin")).unwrap();
        let (_, frames) = open().load().unwrap();
        let ends: Vec<usize> = frames
            .iter()
            .scan(0, |end, frame| {
                *end += 8 + frame.len();
                Some(*end)
            })
            .collect();
        assert_eq!((frames.len(), ends.last()), (6, Some(&log.len())));

        for cut in 0..=log.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            fs::write(dir.join("wal.log"), &log[..cut]).unwrap();
            let (_, loaded) = open().load().unwrap();
            assert_eq!(loaded, frames[..whole], "cut at {cut}");
            let intact = whole.checked_sub(1).map_or(0, |last| ends[last]);
            let len = fs::metadata(dir.join("wal.log")).unwrap().len();
            assert_eq!(len, intact as u64, "the torn tail is cut off at {cut}");

            let (mut wal, restored, tail) = recover();
            assert_eq!(restored.as_deref(), Some(b"state".as_slice()));
            assert_eq!(tail.len(), whole, "cut at {cut}");
            wal.append(&env(7), None, true, TimeSlot(7));
            let (_, _, tail) = recover();
            assert_eq!(tail.len(), whole + 1, "cut at {cut}");
            assert_eq!(tail.last().unwrap().envelope, env(7), "cut at {cut}");
        }

        fs::write(dir.join("wal.log"), &log).unwrap();
        for cut in 0..snapshot.len() {
            fs::write(dir.join("snapshot.bin"), &snapshot[..cut]).unwrap();
            let (_, _, tail) = recover();
            assert_eq!(tail.len(), 6, "snapshot cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_install_survives_missing_log() {
        let dir = std::env::temp_dir().join(format!(
            "mirabel-wal-snap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = Box::new(FileWalStore::open(&dir).unwrap());
        let mut wal = NodeWal::new(store, WalConfig::default());
        wal.install_snapshot(b"only-snapshot");
        let store = Box::new(FileWalStore::open(&dir).unwrap());
        let (_, snapshot, records) = NodeWal::recover(store, WalConfig::default()).unwrap();
        assert_eq!(snapshot.as_deref(), Some(b"only-snapshot".as_slice()));
        assert!(records.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
