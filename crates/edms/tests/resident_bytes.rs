//! Resident-memory regression tests: what the network and the nodes keep
//! on the heap once their work is done.
//!
//! - An inbox drained empty holds no buffer, so routing a burst of
//!   envelopes through a network and draining every node leaves the
//!   network's heap where it was.
//! - A prosumer keeps a compact record per committed offer, not the offer,
//!   so a region's heap after a run grows by a bounded number of bytes per
//!   submitted offer.
//!
//! The counter is a `GlobalAlloc` wrapper local to this test binary (the
//! library itself forbids `unsafe`) that tracks live bytes per thread, so
//! the harness's own threads cannot disturb it. The region runs on a
//! width-1 pool, whose one lane is the calling thread: every allocation
//! it makes is counted here.

use mirabel_core::{FlexOfferId, NodeId, Pool, RegionId, TimeSlot};
use mirabel_edms::{Envelope, Message, Network, RegionSim, SchedulerKind, SimulationConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // `const` and `Drop`-free, so touching it from inside the allocator
    // never allocates or registers a destructor.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    LIVE_BYTES.with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter update that cannot allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated and not yet freed on this thread.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const NODES: u64 = 1_000;

/// Route `per_node` envelopes to each of the [`NODES`] nodes, then drain
/// every node and drop what it delivered.
fn route_and_drain(network: &mut Network, per_node: usize, now: TimeSlot) {
    for k in 0..per_node {
        for to in 1..=NODES {
            network.route(Envelope::new(
                NodeId(0),
                NodeId(to),
                now,
                Message::OfferRejected {
                    offer: FlexOfferId(k as u64),
                },
            ));
        }
    }
    for to in 1..=NODES {
        assert_eq!(network.drain(NodeId(to), now).len(), per_node);
    }
}

#[test]
fn drained_inboxes_give_their_buffers_back() {
    let mut network = Network::reliable();
    for to in 1..=NODES {
        network.register(NodeId(to));
    }
    // One envelope per node first, so every link is interned and its
    // counters exist before the measurement starts.
    route_and_drain(&mut network, 1, TimeSlot(0));
    let before = live_bytes();
    route_and_drain(&mut network, 10, TimeSlot(1));
    let retained = live_bytes() - before;
    // Nothing needs to remain. The bound allows for at most two scratch
    // buffers of one drain's size: 16 in-flight slots each (a 10-message
    // inbox grows to 16), a slot well under 256 bytes. Inboxes that kept
    // their buffers would hold at least 2 MB here, a 16-slot buffer for
    // each of the thousand nodes.
    assert!(
        retained <= 2 * 16 * 256,
        "{retained} bytes retained after 10 000 envelopes to 1 000 nodes"
    );
    assert_eq!(network.stats().delivered, 11 * NODES);
}

#[test]
fn a_region_keeps_a_bounded_record_per_offer() {
    let (brps, prosumers_per_brp, cycles) = (2, 500, 6);
    let cfg = SimulationConfig {
        brps,
        prosumers_per_brp,
        cycles,
        offers_per_prosumer: 1,
        seed: 42,
        use_tso: true,
        scheduler: SchedulerKind::Greedy,
        budget_evaluations: 2_000,
        pool: Pool::new(1),
        ..SimulationConfig::default()
    };
    let before = live_bytes();
    let mut sim = RegionSim::new(cfg, RegionId::DEFAULT);
    for c in 0..cycles {
        sim.run_cycle(c);
    }
    let retained = live_bytes() - before;
    let report = sim.finish();
    assert_eq!(report.offers_submitted, brps * prosumers_per_brp * cycles);
    assert_eq!(report.assigned, report.offers_submitted);
    // Measured on x86-64: about 272 bytes per offer since each BRP keeps
    // one state entry per offer; three 32-byte fact rows per offer came
    // to about 382, and keeping every prosumer's offers whole and a
    // buffer in every idle inbox to about 955. The bound keeps the
    // earlier bound's headroom (600 over about 410).
    let per_offer = retained as f64 / report.offers_submitted as f64;
    assert!(
        per_offer <= 400.0,
        "{per_offer:.0} bytes retained per submitted offer ({retained} in all)"
    );
}
