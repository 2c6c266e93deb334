//! The shared deterministic worker pool every parallel path in the
//! workspace runs on (paper §5 calls for partition-parallel model
//! estimation; the same executor also drives shard-parallel aggregate
//! flushes, parallel repair chains, and — since the concurrent node
//! drivers landed — whole hierarchy nodes planning side by side).
//!
//! ## Why a persistent pool
//!
//! MIRABEL's node runs forecasting, aggregation and scheduling
//! *continuously*: every trickle flush and every incremental replan used
//! to spawn (and join) a fresh set of `std::thread::scope` workers,
//! paying thread creation latency on the steady-state hot path — often
//! more than the work itself for a few-microsecond trickle fold. A
//! [`Pool`] keeps its workers parked on a condvar between calls, so
//! dispatching a batch of tasks costs a wake-up, not a spawn.
//!
//! ## One queue, many callers
//!
//! The pool's heart is a single FIFO **work queue** shared by every
//! lane. One kind of work flows through it: **batches**
//! ([`Pool::run`]), `n_tasks` closures `f(0) .. f(n-1)` whose results
//! come back **in task-index order**. Lanes claim indices from a shared
//! counter, so any number of lanes can chew on the same batch.
//! Heterogeneous fan-out ([`Pool::run_each`]) is a batch over a vector
//! of one-shot tasks.
//!
//! Because the queue is shared, **concurrent top-level callers share
//! workers**. An earlier revision serialized here: a busy `run` meant
//! any nested or racing `run` silently fell back to inline-serial
//! execution on its caller — correct, but a 32-core box simulating 10k
//! prosumers planned its nodes one at a time. Now a `run` that arrives
//! while another is in flight enqueues its batch behind it and all
//! lanes — workers, the first caller, the second caller — drain the
//! queue together. Callers waiting for their own batch *help*: they
//! execute other queued work instead of blocking, which both keeps
//! cores busy and makes a `run` from inside a pool task deadlock-free
//! at any width. [`Pool::stats`] exposes the dispatch counters;
//! `inline_serial_fallbacks` staying at zero **is** the claim that the
//! old pathological path is gone.
//!
//! ## Why determinism survives
//!
//! [`Pool::run`] returns results **in task-index order**, whatever the
//! worker count or OS scheduling. Callers therefore keep the invariant
//! the whole workspace is built on: *parallelism never changes output*.
//! The aggregate flush merges shard results in sorted sub-group order,
//! best-of-K repair chains tie-break on chain index, and the
//! simulation's level pump sends each node's envelopes in node-list
//! order — all of which reduce to "results arrive indexed by task, not
//! by completion time".
//! Which lane runs a task is scheduling-dependent, but since each task
//! is a pure function of its index, the *result vector* is
//! bit-identical for any width.
//!
//! ## Sizing and sharing
//!
//! [`Pool::global`] is the lazily-created process-wide default, sized to
//! [`std::thread::available_parallelism`]. Components default to it, so
//! an entire `edms` hierarchy — every BRP, the TSO, their pipelines and
//! repair chains — shares one set of worker threads instead of spawning
//! per node per round. Pass an explicit [`Pool::new`] handle (they are
//! cheap `Arc` clones) to isolate a component or to pin a width in
//! benchmarks; `Pool::new(1)` spawns nothing and executes `run` calls
//! inline on the caller.
//!
//! Panics propagate: if a batch task panics, the pool finishes the
//! batch, then re-raises the payload of the lowest-indexed panicking
//! task on the caller (deterministic). The pool stays usable after.
#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A lifetime-erased pointer to a `run` call's shared task closure.
///
/// Only ever dereferenced by a lane that claimed a task index `<
/// n_tasks`; `Pool::run` does not retire the job (and so does not
/// return, keeping the closure alive) until every claimed index has
/// finished.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and
// `Pool::run` guarantees it outlives every dereference (see `TaskRef`).
unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

impl TaskRef {
    /// Erase the closure's lifetime so parked workers can hold it.
    ///
    /// # Safety
    /// The caller must keep the closure alive (and unmoved) until the
    /// job it is published under has been retired.
    unsafe fn erase<'a>(task: &'a (dyn Fn(usize) + Sync + 'a)) -> TaskRef {
        // SAFETY: only the lifetime is transmuted; the vtable and data
        // pointer are unchanged.
        let widened = unsafe {
            std::mem::transmute::<&'a (dyn Fn(usize) + Sync + 'a), &'static (dyn Fn(usize) + Sync)>(
                task,
            )
        };
        TaskRef(widened)
    }
}

/// One published batch of tasks. Lanes (workers and any helping caller)
/// claim indices from `next`; `pending` counts unfinished tasks.
struct Job {
    task: TaskRef,
    n_tasks: usize,
    next: AtomicUsize,
    pending: AtomicUsize,
}

/// State guarded by the pool mutex: the shared FIFO work queue.
struct QueueState {
    /// Claimable batches from [`Pool::run`]. A batch stays at the front
    /// until every index has been claimed, so any number of lanes work
    /// it concurrently.
    queue: VecDeque<Arc<Job>>,
    /// Set on drop; workers exit.
    shutdown: bool,
}

/// The batch to claim from next, discarding exhausted ones. A
/// non-exhausted batch is *cloned out* but left at the front so other
/// lanes keep claiming from it.
fn next_job(st: &mut QueueState) -> Option<Arc<Job>> {
    while let Some(job) = st.queue.front() {
        if job.next.load(Ordering::Relaxed) < job.n_tasks {
            return Some(Arc::clone(job));
        }
        // Fully claimed: stragglers are someone else's `pending` wait,
        // not claimable work.
        st.queue.pop_front();
    }
    None
}

struct Shared {
    state: Mutex<QueueState>,
    /// Workers park here between batches.
    work: Condvar,
    /// Batch callers park here; notified on every batch retirement and
    /// new enqueue (so a parked helper can pick the new work up).
    done: Condvar,
}

impl Shared {
    /// Claim and run `job` indices (outside the lock) until the batch is
    /// exhausted; the lane that finishes the last task wakes the batch's
    /// caller. Never unwinds: the batch runner catches its own panics.
    fn run_batch_tasks(&self, job: &Job) {
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.n_tasks {
                break;
            }
            // SAFETY: i < n_tasks, so the job is not yet retired and the
            // caller is keeping the closure alive (see `Pool::run`).
            unsafe { (*job.task.0)(i) };
            if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last task of the batch: wake the caller. Taking the
                // lock orders the notify after the caller's wait.
                let _st = self.state.lock().unwrap();
                self.done.notify_all();
            }
        }
    }

    /// Push a batch and wake everyone who could claim from it.
    fn enqueue(&self, job: Arc<Job>) {
        let mut st = self.state.lock().unwrap();
        st.queue.push_back(job);
        self.work.notify_all();
        self.done.notify_all();
    }
}

/// A boxed one-shot task for [`Pool::run_each`]: may borrow from the
/// caller's stack (`'a`), runs exactly once on some pool lane.
pub type Task<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// Dispatch counters (monotonic since pool creation), via [`Pool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0: batches are the pool's one kind of queued work. The
    /// field stays for readers that still sum it.
    pub tasks_submitted: u64,
    /// Indexed batches dispatched to the queue by [`Pool::run`].
    pub batches_run: u64,
    /// Total task indices across those batches.
    pub batch_tasks: u64,
    /// `run` calls served inline **by design**: width-1 pools and
    /// single-task batches, where queue dispatch could only add cost.
    pub inline_runs: u64,
    /// `run` calls (more than one task, width above one) that executed
    /// inline-serial because the pool could not be shared. The queue
    /// architecture has no such path — this counter exists so the
    /// concurrent-driver tests can pin it at zero, and so any future
    /// reintroduction of a serializing fast path has to show up here.
    pub inline_serial_fallbacks: u64,
}

/// Monotonic dispatch counters (see [`PoolStats`]).
#[derive(Default)]
struct StatCounters {
    batches: AtomicU64,
    batch_tasks: AtomicU64,
    inline_runs: AtomicU64,
    inline_fallbacks: AtomicU64,
}

struct Inner {
    width: usize,
    shared: Arc<Shared>,
    stats: StatCounters,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A persistent, deterministic worker pool (see the [module docs](self)).
///
/// Cloning a `Pool` clones a cheap handle to the same workers; the
/// threads are joined when the last handle drops.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("width", &self.inner.width)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Pool with `width` execution lanes: the calling thread plus
    /// `width - 1` parked worker threads. `Pool::new(1)` spawns nothing
    /// and runs every task inline. `width == 0` is clamped to 1.
    pub fn new(width: usize) -> Pool {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(width.saturating_sub(1));
        for k in 1..width {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("mirabel-exec-{k}"))
                .spawn(move || worker_loop(&shared));
            match spawned {
                Ok(h) => handles.push(h),
                // Degrade gracefully: fewer lanes, identical results —
                // the caller participates, so the pool still makes
                // progress even with zero workers.
                Err(_) => break,
            }
        }
        Pool {
            inner: Arc::new(Inner {
                width,
                shared,
                stats: StatCounters::default(),
                handles,
            }),
        }
    }

    /// The process-wide default pool, created on first use and sized to
    /// [`std::thread::available_parallelism`]. Every component defaults
    /// to this handle, so one set of worker threads serves the whole
    /// hierarchy.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Pool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    /// Total execution lanes (the calling thread counts as one). Callers
    /// use this to size work partitions; output must never depend on it.
    pub fn width(&self) -> usize {
        self.inner.width
    }

    /// Snapshot of the dispatch counters. The interesting invariant:
    /// [`PoolStats::inline_serial_fallbacks`] stays zero — concurrent
    /// and nested `run`s share the queue instead of degrading.
    pub fn stats(&self) -> PoolStats {
        let s = &self.inner.stats;
        PoolStats {
            tasks_submitted: 0,
            batches_run: s.batches.load(Ordering::Relaxed),
            batch_tasks: s.batch_tasks.load(Ordering::Relaxed),
            inline_runs: s.inline_runs.load(Ordering::Relaxed),
            inline_serial_fallbacks: s.inline_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Execute `f(0) .. f(n_tasks - 1)` across the pool's lanes and
    /// return the results **in task-index order** — bit-identical to
    /// `(0..n_tasks).map(f).collect()` for any pool width, provided each
    /// task is a pure function of its index.
    ///
    /// The calling thread claims tasks alongside the workers, and while
    /// waiting for its own stragglers it helps execute *other* queued
    /// work — so concurrent `run`s from different threads and `run`s
    /// nested inside pool tasks all share the same lanes, with no
    /// serialization and no deadlock. A width-1 pool (or a single task)
    /// degenerates to an inline serial loop with no synchronization.
    ///
    /// If one or more tasks panic, the batch still runs to completion
    /// and the payload of the lowest-indexed panicking task is re-raised
    /// here; the pool remains usable afterwards.
    pub fn run<R, F>(&self, n_tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n_tasks == 0 {
            return Vec::new();
        }
        // Inline by design (not a fallback): nothing to parallelize.
        if self.inner.width == 1 || n_tasks == 1 {
            self.inner.stats.inline_runs.fetch_add(1, Ordering::Relaxed);
            return (0..n_tasks).map(f).collect();
        }
        self.inner.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stats
            .batch_tasks
            .fetch_add(n_tasks as u64, Ordering::Relaxed);

        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_tasks));
        let first_panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
        let runner = |i: usize| match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(r) => results.lock().unwrap().push((i, r)),
            Err(payload) => {
                let mut slot = first_panic.lock().unwrap();
                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                    *slot = Some((i, payload));
                }
            }
        };

        // SAFETY: `runner` (and everything it borrows) outlives the job:
        // `run` only returns after observing `pending == 0`, i.e. after
        // every claimed task index has finished, and lanes never
        // dereference the task pointer for indices >= n_tasks (`next`
        // only grows, so every claim after exhaustion is out of range).
        let task = unsafe { TaskRef::erase(&runner) };
        let job = Arc::new(Job {
            task,
            n_tasks,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n_tasks),
        });
        let shared = &self.inner.shared;
        shared.enqueue(Arc::clone(&job));

        // The caller is a lane too: claim from its own batch first.
        shared.run_batch_tasks(&job);

        // Wait for the workers' stragglers — helping with any *other*
        // queued work meanwhile, so a concurrent caller's batch is not
        // starved by this one parking.
        let mut st = shared.state.lock().unwrap();
        while job.pending.load(Ordering::Acquire) != 0 {
            match next_job(&mut st) {
                Some(other) => {
                    drop(st);
                    shared.run_batch_tasks(&other);
                    st = shared.state.lock().unwrap();
                }
                None => st = shared.done.wait(st).unwrap(),
            }
        }
        // Retire the job: drop any queue entry still holding it so the
        // erased task pointer cannot outlive this frame via the queue.
        st.queue.retain(|j| !Arc::ptr_eq(j, &job));
        drop(st);

        if let Some((_, payload)) = first_panic.into_inner().unwrap() {
            resume_unwind(payload);
        }
        let mut out = results.into_inner().unwrap();
        debug_assert_eq!(out.len(), n_tasks);
        out.sort_unstable_by_key(|&(i, _)| i);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Run a vector of **distinct** one-shot tasks and return their
    /// results in input order — heterogeneous fan-out like "drive every
    /// node of this hierarchy level once".
    ///
    /// Each task runs exactly once on some lane; results are joined in
    /// task order, so output is bit-identical for any pool width. Tasks
    /// may borrow from the caller's stack (they are kept alive until
    /// every task has finished, via [`Pool::run`]).
    pub fn run_each<'a, R>(&self, tasks: Vec<Task<'a, R>>) -> Vec<R>
    where
        R: Send,
    {
        let slots: Vec<Mutex<Option<Task<'a, R>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.run(slots.len(), |i| {
            let task = slots[i]
                .lock()
                .unwrap()
                .take()
                .expect("each task index is claimed exactly once");
            task()
        })
    }
}

/// Body of a parked worker thread: wait for a queued batch, claim its
/// indices until exhausted, park again.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = next_job(&mut st) {
                    break job;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        shared.run_batch_tasks(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_arrive_in_task_index_order() {
        let pool = Pool::new(4);
        let out = pool.run(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_to_serial_for_any_width() {
        let reference: Vec<u64> = (0..33).map(|i| i as u64 * 7 + 1).collect();
        for width in [1, 2, 3, 8] {
            let pool = Pool::new(width);
            assert_eq!(pool.run(33, |i| i as u64 * 7 + 1), reference);
        }
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Many batches on one pool: every batch completes and no state
        // leaks between them (a stale claim counter or queue entry would
        // hang or misindex immediately).
        let pool = Pool::new(3);
        let hits = AtomicU64::new(0);
        for round in 0..100u64 {
            let out = pool.run(5, |i| {
                hits.fetch_add(1, Ordering::Relaxed);
                round * 10 + i as u64
            });
            assert_eq!(out, (0..5).map(|i| round * 10 + i).collect::<Vec<_>>());
        }
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn propagates_the_lowest_indexed_panic() {
        let pool = Pool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i % 2 == 1 {
                    panic!("task {i} failed");
                }
                i
            })
        }))
        .expect_err("the batch must panic");
        let msg = caught
            .downcast_ref::<String>()
            .expect("panic! with format produces a String");
        assert_eq!(msg, "task 1 failed");
        // The pool survives a panicking batch.
        assert_eq!(pool.run(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn nested_run_shares_the_queue() {
        // A run inside a run used to fall back to inline-serial; now the
        // inner batch is queued and claimable by every lane. Results are
        // identical either way — and no fallback is recorded.
        let pool = Pool::new(4);
        let out = pool.run(4, |i| pool.run(3, |j| i * 10 + j));
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..3).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
        assert_eq!(pool.stats().inline_serial_fallbacks, 0);
    }

    #[test]
    fn concurrent_runs_share_workers_without_fallback() {
        // Two threads race top-level `run`s on one pool. Before the
        // shared queue, the loser of the run-lock executed inline-serial;
        // now both batches dispatch and both come back index-ordered.
        let pool = Pool::new(4);
        let a = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.run(40, |i| i as u64 * 3))
        };
        let b = pool.run(40, |i| i as u64 * 5);
        let a = a.join().expect("no panic");
        assert_eq!(a, (0..40).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(b, (0..40).map(|i| i * 5).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!(stats.inline_serial_fallbacks, 0);
        assert_eq!(stats.batches_run, 2);
        assert_eq!(stats.batch_tasks, 80);
    }

    #[test]
    fn run_each_runs_fnonce_tasks_in_order() {
        // Heterogeneous borrowed tasks: each runs exactly once, results
        // come back in input order for any width.
        let data: Vec<u64> = (0..8).map(|i| i * 11).collect();
        for width in [1, 2, 4] {
            let pool = Pool::new(width);
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = data
                .iter()
                .map(|v| {
                    let v = *v;
                    Box::new(move || v + 1) as Box<dyn FnOnce() -> u64 + Send + '_>
                })
                .collect();
            assert_eq!(
                pool.run_each(tasks),
                data.iter().map(|v| v + 1).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn stats_track_dispatch_modes() {
        let pool = Pool::new(4);
        assert_eq!(pool.stats(), PoolStats::default());
        pool.run(8, |i| i); // queued batch
        pool.run(1, |i| i); // inline by design (single task)
        let s = pool.stats();
        assert_eq!(s.batches_run, 1);
        assert_eq!(s.batch_tasks, 8);
        assert_eq!(s.inline_runs, 1);
        assert_eq!(s.inline_serial_fallbacks, 0);

        let narrow = Pool::new(1);
        narrow.run(8, |i| i); // width-1: inline by design
        assert_eq!(narrow.stats().inline_runs, 1);
        assert_eq!(narrow.stats().batches_run, 0);
    }

    #[test]
    fn zero_tasks_and_width_clamp() {
        let pool = Pool::new(0);
        assert_eq!(pool.width(), 1);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i), vec![0]);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = Pool::global();
        let b = Pool::global();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        assert!(a.width() >= 1);
        assert_eq!(a.run(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn tasks_borrow_caller_state() {
        // The whole point of the scope-style API: tasks read borrowed
        // slices without copying them into the closure.
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let pool = Pool::new(4);
        let sums = pool.run(4, |w| data[w * 250..(w + 1) * 250].iter().sum::<f64>());
        let total: f64 = sums.iter().sum();
        assert_eq!(total, data.iter().sum::<f64>());
    }
}
