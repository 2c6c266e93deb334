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
//! * **Append before apply.** Every envelope a node accepts is encoded
//!   with the [`Wire`] codec, wrapped in an [`EventRecord`] and appended
//!   to the [`WalStore`] *before* the node mutates any in-memory state
//!   (`Journal::ingest`), stamped with the handling clock so a replayed
//!   deadline decision matches the original.
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
//!   O(lifetime). A snapshot that does not decode *exactly* — cut
//!   short, malformed, or with bytes left over — restores nothing at
//!   either level; the tail still replays, and the resync protocol heals
//!   the rest.
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
use mirabel_core::{NodeId, RegionId, TimeSlot};
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

/// One durable record: the event envelope around a wire envelope.
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
    /// Federation region the event belongs to (tenant-registry pattern:
    /// the tenant id rides the durable record, denormalized from
    /// [`Envelope::region`] so region-scoped audits and per-region WAL
    /// namespaces don't have to peel the envelope).
    pub region: RegionId,
}

impl Wire for EventRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.event_id.encode(out);
        self.causation_id.encode(out);
        self.replay_safe.encode(out);
        self.recorded_at.encode(out);
        self.envelope.encode(out);
        self.region.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(EventRecord {
            event_id: u64::decode(buf)?,
            causation_id: Option::<u64>::decode(buf)?,
            replay_safe: bool::decode(buf)?,
            recorded_at: TimeSlot::decode(buf)?,
            envelope: Envelope::decode(buf)?,
            region: RegionId::decode(buf)?,
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
#[derive(Debug, Default)]
pub struct MemWalStore {
    snapshot: Option<Vec<u8>>,
    frames: Vec<Vec<u8>>,
}

impl MemWalStore {
    /// An empty store.
    pub fn new() -> MemWalStore {
        MemWalStore::default()
    }
}

impl WalStore for MemWalStore {
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.frames.push(frame.to_vec());
        Ok(())
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
        self.snapshot = Some(snapshot.to_vec());
        self.frames.clear();
        Ok(())
    }

    fn load(&mut self) -> std::io::Result<LoadedLog> {
        Ok((self.snapshot.clone(), self.frames.clone()))
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
}

impl FileWalStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<FileWalStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(FileWalStore { dir, log: None })
    }

    /// Open a store in the federation's per-region WAL namespace:
    /// `root/region-<r>/node-<n>`. Every region owns a disjoint
    /// directory subtree, so region-scoped recovery, archival and
    /// deletion are directory operations that cannot touch a peer
    /// region's logs.
    pub fn open_namespaced(
        root: impl AsRef<Path>,
        region: RegionId,
        node: NodeId,
    ) -> std::io::Result<FileWalStore> {
        FileWalStore::open(
            root.as_ref()
                .join(format!("region-{}", region.value()))
                .join(format!("node-{}", node.value())),
        )
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn log_file(&mut self) -> std::io::Result<&mut fs::File> {
        if self.log.is_none() {
            self.log = Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.log_path())?,
            );
        }
        Ok(self.log.as_mut().expect("just opened"))
    }

    /// The intact frames at the head of `bytes`, and how many bytes
    /// they span.
    fn parse_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
        let mut frames = Vec::new();
        let mut at = 0usize;
        while bytes.len() - at >= 8 {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            let sum = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
            let start = at + 8;
            let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
                break; // torn tail: length runs past EOF
            };
            let payload = &bytes[start..end];
            if fnv1a32(payload) != sum {
                break; // torn or corrupt tail
            }
            frames.push(payload.to_vec());
            at = end;
        }
        (frames, at)
    }
}

impl WalStore for FileWalStore {
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(frame.len() + 8);
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&fnv1a32(frame).to_le_bytes());
        buf.extend_from_slice(frame);
        let file = self.log_file()?;
        file.write_all(&buf)?;
        file.flush()
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
        let mut next_event_id = 0;
        let snapshot = match snapshot_bytes {
            Some(bytes) => {
                let mut buf = bytes.as_slice();
                match take_u64(&mut buf) {
                    Ok(id) => {
                        next_event_id = id;
                        Some(buf.to_vec())
                    }
                    Err(_) => None,
                }
            }
            None => None,
        };
        let mut records = Vec::with_capacity(frames.len());
        for frame in &frames {
            match EventRecord::from_bytes(frame) {
                Ok(rec) => {
                    next_event_id = next_event_id.max(rec.event_id.saturating_add(1));
                    records.push(rec);
                }
                Err(_) => break,
            }
        }
        let wal = NodeWal {
            store,
            config,
            next_event_id,
            appended_since_snapshot: records.len(),
            io_errors: 0,
        };
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
        let record = EventRecord {
            event_id,
            causation_id,
            replay_safe,
            recorded_at,
            region: envelope.region,
            envelope: envelope.clone(),
        };
        if self.store.append(&record.to_bytes()).is_err() {
            self.io_errors += 1;
        }
        self.appended_since_snapshot += 1;
        event_id
    }

    /// Whether compaction is due (the owning node should encode its
    /// state and call [`install_snapshot`](Self::install_snapshot)).
    pub fn wants_snapshot(&self) -> bool {
        self.appended_since_snapshot >= self.config.snapshot_every
    }

    /// Install a node-state snapshot and truncate the log.
    pub fn install_snapshot(&mut self, state: &[u8]) {
        let mut bytes = Vec::with_capacity(state.len() + 10);
        put_u64(&mut bytes, self.next_event_id);
        bytes.extend_from_slice(state);
        if self.store.install_snapshot(&bytes).is_err() {
            self.io_errors += 1;
        } else {
            self.appended_since_snapshot = 0;
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

    /// Whether the tail has reached [`WalConfig::snapshot_every`].
    pub(crate) fn wants_snapshot(&self) -> bool {
        self.wal.as_ref().is_some_and(NodeWal::wants_snapshot)
    }

    /// Install the node's state as the new snapshot and truncate the log.
    /// Taken by value: the state is as large as its encoding, so it is
    /// freed before the store copies the bytes.
    pub(crate) fn compact(&mut self, state: impl Wire) {
        if let Some(wal) = self.wal.as_mut() {
            let bytes = state.to_bytes();
            drop(state);
            wal.install_snapshot(&bytes);
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
    use mirabel_core::{FlexOfferId, NodeId};

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
            region: RegionId(3),
        };
        let back = EventRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn namespaced_stores_are_disjoint_per_region() {
        let root = std::env::temp_dir().join(format!(
            "mirabel-wal-ns-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let mut a = FileWalStore::open_namespaced(&root, RegionId(0), NodeId(1)).unwrap();
        let mut b = FileWalStore::open_namespaced(&root, RegionId(1), NodeId(1)).unwrap();
        a.append(b"region-0-frame").unwrap();
        b.append(b"region-1-frame").unwrap();
        assert!(root
            .join("region-0")
            .join("node-1")
            .join("wal.log")
            .exists());
        assert!(root
            .join("region-1")
            .join("node-1")
            .join("wal.log")
            .exists());
        // Dropping one region's namespace leaves the peer untouched.
        fs::remove_dir_all(root.join("region-0")).unwrap();
        let (_, frames) = b.load().unwrap();
        assert_eq!(frames, vec![b"region-1-frame".to_vec()]);
        let _ = fs::remove_dir_all(&root);
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
            region: RegionId::DEFAULT,
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
        journal.compact(7u64);
        assert!(!journal.wants_snapshot());
        assert!(journal.detach().is_none(), "detached calls log nothing");

        journal.attach(NodeWal::in_memory(config));
        journal.mark(&env(2), TimeSlot(1)); // nothing ingested yet
        journal.ingest(&env(3), TimeSlot(1));
        journal.mark(&env(4), TimeSlot(2));
        assert!(journal.wants_snapshot());
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
        journal.compact((9u64, 4u64));
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
