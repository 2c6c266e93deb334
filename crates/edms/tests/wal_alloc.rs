//! Allocation regression test for the write-ahead log: the journal
//! writes bytes, not copies. An append frames the borrowed envelope in a
//! buffer the WAL reuses and the in-memory store keeps its tail in one
//! byte log, so a warm append allocates nothing; a compaction encodes
//! the node straight from its pool into one buffer, so its allocation
//! count does not depend on how many offers are pooled. A per-record or
//! per-offer `clone()` creeping back in costs at least one allocation
//! per frame or per offer; the bounds below allow neither.
//!
//! The counter is a `GlobalAlloc` wrapper local to this test binary (the
//! library itself forbids `unsafe`), counting per thread so the harness's
//! own threads cannot disturb it.

use mirabel_core::{EnergyRange, FlexOffer, NodeId, Profile, TimeSlot};
use mirabel_edms::{BrpConfig, BrpNode, Envelope, Message, NodeWal, WalConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // `const` and `Drop`-free, so touching it from inside the allocator
    // never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that cannot allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const BRP: NodeId = NodeId(1);

fn offer(id: u64) -> FlexOffer {
    FlexOffer::builder(id, 50 + id % 97)
        .earliest_start(TimeSlot(110 + (id % 5) as i64))
        .time_flexibility(8)
        .assignment_before(TimeSlot(90))
        .profile(Profile::uniform(
            2 + (id % 3) as u32,
            EnergyRange::new(1.0, 2.0).unwrap(),
        ))
        .build()
        .unwrap()
}

/// Submission `i`, from its own sender; every third sender skipped a
/// sequence number, so its duplicate filter holds a non-empty `seen` set.
fn submission(i: u64) -> Envelope {
    let seq = u64::from(i.is_multiple_of(3));
    Envelope::new(
        NodeId(10_000 + i),
        BRP,
        TimeSlot(0),
        Message::SubmitOffer(offer(i)),
    )
    .with_seq(seq)
}

#[test]
fn warm_appends_allocate_a_small_constant() {
    const APPENDS: usize = 1_000;
    let envelopes: Vec<Envelope> = (0..APPENDS as u64).map(submission).collect();
    let mut wal = NodeWal::in_memory(WalConfig {
        snapshot_every: APPENDS,
    });
    // Warm-up: one full tail sizes the frame buffer and the store's log,
    // and the compaction that truncates it keeps both.
    for envelope in &envelopes {
        wal.append(envelope, None, true, TimeSlot(0));
    }
    assert!(wal.wants_snapshot());
    wal.install_snapshot(b"state");

    let (_, allocations) = allocations_of(|| {
        for (i, envelope) in envelopes.iter().enumerate() {
            wal.append(envelope, Some(i as u64), true, TimeSlot(1));
        }
    });
    // The parent of the change that added this test measured at least
    // two allocations per frame (a record clone and its encoding).
    assert!(
        allocations <= 4,
        "{allocations} allocations for {APPENDS} warm appends"
    );
}

/// Allocations of the submission that triggers a compaction with
/// `pooled` offers in the pool (the submission included).
fn compaction_allocations(pooled: u64) -> u64 {
    const CADENCE: usize = 4;
    assert_eq!(pooled % CADENCE as u64, 0, "the last submission compacts");
    let mut brp = BrpNode::new(BRP, None, BrpConfig::default());
    brp.attach_wal(NodeWal::in_memory(WalConfig {
        snapshot_every: CADENCE,
    }));
    for i in 0..pooled - 1 {
        brp.handle(submission(i), TimeSlot(0));
    }
    let last = submission(pooled - 1);
    let (replies, allocations) = allocations_of(|| brp.handle(last, TimeSlot(0)));
    assert_eq!(replies.len(), 1);
    assert_eq!(brp.pool_size() as u64, pooled);
    assert_eq!(brp.wal().unwrap().tail_len(), 0, "the submission compacted");
    allocations
}

#[test]
fn a_compaction_allocates_independently_of_the_pool() {
    let small = compaction_allocations(100);
    let large = compaction_allocations(2_000);
    // The parent of the change that added this test cloned every pooled
    // offer into a snapshot value: at least one allocation per offer.
    assert!(
        small.abs_diff(large) <= 8,
        "a compaction over 100 offers allocated {small} times, over 2000 {large} times"
    );
}
