//! Allocation regression test for the evolutionary scheduler: once the
//! first generations have sized every buffer, a further generation must
//! allocate (almost) nothing — individuals are recycled through
//! `clone_from`, children are priced on one residual buffer and the
//! memetic step re-arms one evaluator. A per-child or per-gene `clone()`
//! creeping back in costs tens to hundreds of allocations per generation
//! and grows with the offer count; the bound below does neither.
//!
//! The counter is a `GlobalAlloc` wrapper local to this test binary (the
//! library itself forbids `unsafe`), counting per thread so the harness's
//! own threads cannot disturb it.

use mirabel_schedule::{scenario, Budget, EaConfig, EvolutionaryScheduler, ScenarioConfig};
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

/// Allocations (and reallocations) one EA run makes on this thread.
fn allocations_of_run(offer_count: usize, budget: usize) -> u64 {
    let problem = scenario(ScenarioConfig {
        offer_count,
        seed: 17,
        ..ScenarioConfig::default()
    });
    let before = ALLOCATIONS.with(Cell::get);
    let result = EvolutionaryScheduler::default().run(&problem, Budget::evaluations(budget), 5);
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(result.evaluations, budget);
    after - before
}

#[test]
fn extra_generations_allocate_a_small_constant() {
    let cfg = EaConfig::default();
    // Evaluations one generation consumes: the children, the evaluator
    // re-arm and the hill-climb moves.
    let per_generation = cfg.population - cfg.elitism + 1 + cfg.local_search_moves;
    let base = 200 * per_generation;
    let extra_generations = (base / per_generation) as f64;

    // What is left at steady state: a hill-climb move landing a buffer on
    // an offer with a longer profile than it has held so far (each buffer
    // grows a bounded number of times) and the trajectory's amortized
    // growth. Measured 0.2 per generation at 16 offers and 1.9 at 128;
    // the parent of the change that added this test measured 830 at 16.
    let mut max_per_generation = 4.0;
    // Debug builds cross-check every priced child and every applied or
    // reverted move against `evaluate()`, which allocates its slot table
    // and its residual: at most 2 x 2 per evaluation (measured 124 per
    // generation, against 861 for the parent's debug build).
    if cfg!(debug_assertions) {
        max_per_generation += 4.0 * per_generation as f64;
    }

    for offer_count in [16, 128] {
        let short = allocations_of_run(offer_count, base);
        let long = allocations_of_run(offer_count, 2 * base);
        let per_extra_generation = long.saturating_sub(short) as f64 / extra_generations;
        assert!(
            per_extra_generation <= max_per_generation,
            "{offer_count} offers: {per_extra_generation:.2} allocations per extra generation \
             ({short} at {base} evaluations, {long} at {})",
            2 * base
        );
    }
}
