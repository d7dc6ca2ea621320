//! Persistent work-stealing pool for limb- and op-level fan-out.
//!
//! RNS limbs never interact inside an NTT conversion, a pointwise product,
//! a rescale correction, or a key-switch decomposition, so those loops
//! parallelize as independent jobs (the same dependency-free pattern as
//! the fig6 waterline sweep — no external crates). Earlier revisions
//! spawned fresh `std::thread::scope` workers per call; the per-call spawn
//! overhead (~17µs, visible in the `BENCH_kernels.json` fanout rows as a
//! 0.96× "speedup") made small fan-outs *slower* than the serial loop.
//! Jobs now run on a process-wide persistent [`Pool`]: workers park on a
//! condvar, keep per-worker deques, and steal from their siblings, so
//! dispatching a batch costs a queue push and a wake instead of a spawn —
//! and batches whose estimated work falls below `PARALLEL_CUTOFF_NS` (16 µs)
//! stay inline, which fixes the small-size regression outright.
//!
//! Every job is deterministic and writes only its own item, so results
//! are bit-identical for any thread count; [`crate::CkksParams::threads`]
//! `= 1` always takes the plain serial loop.

//! The pool's park/wake and batch-drain protocols are model-checked: all
//! sync primitives come from the [`fhe_conc::sync`] facade (plain std
//! re-exports in ordinary builds, controlled-scheduler shims under
//! `--cfg fhe_conc`), and `tests/conc_models.rs` re-derives the scan→park
//! lost-wakeup race this design closes (see the `conc_model` module,
//! compiled only in checker builds).

use std::collections::VecDeque;

use fhe_conc::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use fhe_conc::sync::{thread, Arc, Condvar, Mutex, OnceLock};

#[cfg(debug_assertions)]
use fhe_conc::sync::atomic::AtomicU64;

/// Batches estimated to finish faster than this stay serial. Waking a
/// parked worker costs a few microseconds of queue push + condvar signal,
/// so splitting work below ~4× that merely moves time from compute to
/// handoff. Calibrated from the `BENCH_kernels.json` fanout rows, where
/// per-call scoped spawns lost ~17µs on a ~400µs batch; the persistent
/// pool's dispatch is roughly an order of magnitude cheaper.
pub(crate) const PARALLEL_CUTOFF_NS: u64 = 16_000;

/// Per-coefficient cost hints (nanoseconds) kernel call sites use to size
/// their batches against [`PARALLEL_CUTOFF_NS`]. These only steer the
/// serial cutoff — a wrong hint costs throughput, never correctness.
pub(crate) mod cost {
    /// Forward/inverse NTT over a limb: `O(N log N)` butterflies.
    pub(crate) const NTT: u64 = 10;
    /// Pointwise modular passes over a limb (mul, mul-accumulate).
    pub(crate) const POINTWISE: u64 = 2;
}

/// One submitted fan-out: a shared job closure plus claim/finish state.
///
/// Workers that pop a copy of the batch claim job indices from `cursor`
/// until it is exhausted; the final finisher flips `done` and signals the
/// submitter. Stale copies popped after exhaustion claim an out-of-range
/// index and return without ever touching `f`.
struct Batch {
    /// Type-erased borrow of the submitter's job closure. Dereferenced
    /// only for claimed indices `< jobs`; [`Batch::wait`] keeps the
    /// submitting frame (and thus the borrow) alive until every claimed
    /// job has completed.
    f: *const (dyn Fn(usize) + Sync),
    jobs: usize,
    cursor: AtomicUsize,
    completed: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    cv: Condvar,
    /// Debug-build liveness stamp: `u64::MAX` while the submitting `run`
    /// frame is alive, overwritten with a retirement generation once
    /// `run` returns. Any job that claims an in-range index after that
    /// point would dereference a dangling `f`, so `work` asserts on it.
    #[cfg(debug_assertions)]
    retired_at: AtomicU64,
}

// SAFETY: `f` is only read under the liveness protocol in the field docs;
// the remaining state is atomics and locks.
unsafe impl Send for Batch {}
// SAFETY: shared access is the same protocol as above — `f` is read-only
// behind the liveness guarantee, everything else is atomics and locks.
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and runs jobs until the cursor is exhausted. Called by the
    /// submitting thread and by every worker that pops this batch.
    fn work(&self) {
        loop {
            let j = self.cursor.fetch_add(1, Ordering::Relaxed);
            if j >= self.jobs {
                return;
            }
            #[cfg(debug_assertions)]
            {
                let retired = self.retired_at.load(Ordering::Acquire);
                assert_eq!(
                    retired,
                    u64::MAX,
                    "pool batch claimed job {j} after its run() frame retired it \
                     at generation {retired}: the borrow behind `f` is dead"
                );
            }
            // SAFETY: `j < jobs` implies the submitter is still blocked in
            // `wait`, so the closure behind `f` is alive.
            let f = unsafe { &*self.f };
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(j))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            if self.completed.fetch_add(1, Ordering::Release) + 1 == self.jobs {
                *self.done.lock().expect("batch lock") = true;
                self.cv.notify_all();
            }
        }
    }

    /// Blocks the submitter until every job has completed, then
    /// propagates any job panic.
    fn wait(&self) {
        if self.completed.load(Ordering::Acquire) != self.jobs {
            let mut done = self.done.lock().expect("batch lock");
            while !*done {
                done = self.cv.wait(done).expect("batch lock");
            }
        }
        if self.panicked.load(Ordering::Acquire) {
            panic!("a pool job panicked");
        }
    }
}

struct Shared {
    /// One deque per worker; submissions round-robin across them and idle
    /// workers steal oldest-first from their siblings.
    queues: Vec<Mutex<VecDeque<Arc<Batch>>>>,
    /// Bumped on every submission. Workers snapshot it before scanning
    /// the deques and park only while it is unchanged, which closes the
    /// scan→park window — a submission between scan and park flips the
    /// version and the worker rescans instead of sleeping.
    version: Mutex<u64>,
    cv: Condvar,
    rr: AtomicUsize,
    shutdown: AtomicBool,
    /// Debug-build monotone count of retired batches; stamps
    /// [`Batch::retired_at`] when a `run` frame exits.
    #[cfg(debug_assertions)]
    retire_gen: AtomicU64,
}

impl Shared {
    /// Pops from the worker's own deque (newest first — depth-first on
    /// nested batches), then steals from siblings (oldest first).
    fn find_task(&self, me: usize) -> Option<Arc<Batch>> {
        let w = self.queues.len();
        if let Some(t) = self.queues[me].lock().expect("queue lock").pop_back() {
            return Some(t);
        }
        for i in 1..w {
            let q = (me + i) % w;
            if let Some(t) = self.queues[q].lock().expect("queue lock").pop_front() {
                return Some(t);
            }
        }
        None
    }

    /// Distributes `copies` references to the batch across the deques and
    /// wakes the workers.
    fn push(&self, batch: &Arc<Batch>, copies: usize) {
        for _ in 0..copies {
            let q = self.rr.fetch_add(1, Ordering::Relaxed) % self.queues.len();
            self.queues[q]
                .lock()
                .expect("queue lock")
                .push_back(Arc::clone(batch));
        }
        *self.version.lock().expect("version lock") += 1;
        self.cv.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        let seen = *shared.version.lock().expect("version lock");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = shared.find_task(me) {
            task.work();
            continue;
        }
        let mut v = shared.version.lock().expect("version lock");
        while *v == seen && !shared.shutdown.load(Ordering::Acquire) {
            v = shared.cv.wait(v).expect("version lock");
        }
    }
}

/// A persistent work-stealing thread pool (see [`Pool::global`] for the
/// process-wide instance every evaluator shares).
///
/// Submission is batch-oriented: [`Pool::run`] shares one job closure
/// across `jobs` indices, lets parked workers steal shares, and has the
/// calling thread participate in its own batch. Nested `run` calls from
/// inside a job therefore always make progress even when every worker is
/// busy — which is what lets the op-level DAG executor and the per-limb
/// kernel fan-out coexist on the same pool without a reserved-thread
/// split.
pub struct Pool {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl Pool {
    /// Spawns a pool with `workers` parked worker threads. The calling
    /// thread joins each batch it submits, so peak concurrency per batch
    /// is `workers + 1`.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            version: Mutex::new(0),
            cv: Condvar::new(),
            rr: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            retire_gen: AtomicU64::new(0),
        });
        for me in 0..workers {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("fhe-pool-{me}"))
                .spawn(move || worker_loop(shared, me))
                .expect("spawn pool worker");
        }
        Pool { shared }
    }

    /// The process-wide pool, spawned on first use and sized to the
    /// machine's available parallelism.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Pool::new(std::thread::available_parallelism().map_or(1, |n| n.get())))
    }

    /// Number of worker threads (excluding submitting callers).
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Runs `f(j)` for every `j` in `0..jobs`, fanning jobs across at most
    /// `max_concurrency` threads (the caller plus worker shares) and
    /// blocking until all jobs finish. A panic inside any job is
    /// propagated to the caller after the batch drains.
    pub fn run(&self, jobs: usize, max_concurrency: usize, f: &(dyn Fn(usize) + Sync)) {
        if jobs == 0 {
            return;
        }
        let helpers = jobs
            .saturating_sub(1)
            .min(max_concurrency.saturating_sub(1))
            .min(self.workers());
        if helpers == 0 {
            for j in 0..jobs {
                f(j);
            }
            return;
        }
        // SAFETY: lifetime erasure — the batch stores a raw borrow of `f`.
        // `Batch::work` dereferences it only for claimed indices, and
        // `wait` below does not return until every claimed index has
        // completed, so no dereference outlives this frame. Stale batch
        // copies popped later observe an exhausted cursor and never touch
        // `f`.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let batch = Arc::new(Batch {
            f: f_static,
            jobs,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            cv: Condvar::new(),
            #[cfg(debug_assertions)]
            retired_at: AtomicU64::new(u64::MAX),
        });
        self.shared.push(&batch, helpers);
        batch.work();
        batch.wait();
        // Retire the batch before `f`'s borrow ends: any straggler copy
        // that still claims an in-range index past this point trips the
        // assertion in `work` instead of dereferencing a dangling closure.
        #[cfg(debug_assertions)]
        batch.retired_at.store(
            self.shared.retire_gen.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Release,
        );
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        *self.shared.version.lock().expect("version lock") += 1;
        self.shared.cv.notify_all();
    }
}

/// Shares a `&mut` slice base pointer across pool jobs; every job touches
/// only its own index, so the aliasing is disjoint by construction.
struct SlicePtr<T>(*mut T);

// SAFETY: jobs dereference disjoint indices of a live `&mut [T]`.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

thread_local! {
    /// Per-thread scratch reused across every job this thread runs (see
    /// [`for_each_with_scratch`]).
    static SCRATCH: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f(index, &mut items[index])` for every item on the global pool,
/// capped at `threads`-way concurrency. `est_item_ns` is the caller's
/// per-item cost hint (see [`cost`]); batches whose estimated total falls
/// below [`PARALLEL_CUTOFF_NS`] run inline on the calling thread.
pub(crate) fn for_each<T, F>(threads: usize, est_item_ns: u64, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 || est_item_ns.saturating_mul(n as u64) < PARALLEL_CUTOFF_NS {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let base = SlicePtr(items.as_mut_ptr());
    let base = &base;
    Pool::global().run(n, threads, &|j| {
        // SAFETY: `j < n`, and the batch hands each index to exactly one
        // job, so this `&mut` is unaliased.
        let item = unsafe { &mut *base.0.add(j) };
        f(j, item);
    });
}

/// Like [`for_each`], but each job additionally borrows a scratch buffer
/// reused across every job its thread processes — rescale and key-switch
/// corrections need one `N`-length temporary per limb, and the
/// thread-local cache caps allocations at one per thread for the life of
/// the process instead of one per limb.
pub(crate) fn for_each_with_scratch<T, F>(threads: usize, est_item_ns: u64, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T, &mut Vec<u64>) + Sync,
{
    for_each(threads, est_item_ns, items, |i, item| {
        let mut scratch = SCRATCH.with(|s| s.take());
        f(i, item, &mut scratch);
        SCRATCH.with(|s| *s.borrow_mut() = scratch);
    });
}

/// Parallel `(0..count).map(f).collect()` over the pool, preserving index
/// order. Used for the per-limb key-switch decomposition, where each job
/// builds an owned polynomial.
pub(crate) fn map_range<T, F>(threads: usize, est_item_ns: u64, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for_each(threads, est_item_ns, &mut slots, |i, slot| {
        *slot = Some(f(i))
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Miniature re-derivations of the pool's park/wake protocol for the
/// `fhe-conc` model checker (checker builds only). These distill the
/// worker loop in [`worker_loop`] down to its synchronization skeleton so
/// the exhaustive scheduler can cover every interleaving in milliseconds:
/// one worker, one submitter, one queued item.
///
/// The *unversioned* variant reproduces the bug the version stamp exists
/// to close (the PR 7 scan→park race): the worker scans the queue, finds
/// nothing, and only then parks — so a push landing in that gap signals a
/// condvar nobody is waiting on yet, and the worker sleeps forever. The
/// *versioned* variant is the shipped protocol: the worker snapshots the
/// submission version before scanning and re-checks it under the lock
/// before parking, so the late push flips the version and the park is
/// skipped.
#[cfg(fhe_conc)]
#[doc(hidden)]
pub mod conc_model {
    use std::collections::VecDeque;

    use fhe_conc::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use fhe_conc::sync::{thread, Arc, Condvar, Mutex};

    struct MiniShared {
        queue: Mutex<VecDeque<u32>>,
        version: Mutex<u64>,
        cv: Condvar,
        shutdown: AtomicBool,
        processed: AtomicUsize,
        done: Mutex<bool>,
        done_cv: Condvar,
    }

    fn mini_worker(s: &MiniShared, versioned: bool) {
        loop {
            let seen = *s.version.lock().expect("version lock");
            if let Some(_item) = s.queue.lock().expect("queue lock").pop_front() {
                if s.processed.fetch_add(1, Ordering::SeqCst) + 1 == 1 {
                    *s.done.lock().expect("done lock") = true;
                    s.done_cv.notify_all();
                }
                continue;
            }
            if s.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut v = s.version.lock().expect("version lock");
            if versioned {
                // Shipped protocol: park only while no submission has
                // landed since the scan above.
                while *v == seen && !s.shutdown.load(Ordering::SeqCst) {
                    v = s.cv.wait(v).expect("version lock");
                }
            } else if !s.shutdown.load(Ordering::SeqCst) {
                // BUG (pre-fix PR 7 variant): parks without re-checking
                // the version, so a push between the scan and this wait
                // already fired its notify into the void.
                let _v = s.cv.wait(v).expect("version lock");
            }
        }
    }

    /// One submitter pushes one item and waits for it to be processed,
    /// then shuts the worker down. Under the checker, `versioned = false`
    /// must deadlock (lost wakeup) in some interleaving and
    /// `versioned = true` must pass exhaustively.
    pub fn park_model(versioned: bool) {
        let s = Arc::new(MiniShared {
            queue: Mutex::new(VecDeque::new()),
            version: Mutex::new(0),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            processed: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        let s2 = Arc::clone(&s);
        let worker = thread::spawn(move || mini_worker(&s2, versioned));

        // Submit: queue first, then version bump + wake (same order as
        // `Shared::push`).
        s.queue.lock().expect("queue lock").push_back(7);
        *s.version.lock().expect("version lock") += 1;
        s.cv.notify_all();

        // Wait for the item to drain (proper wait loop — the submitter
        // side is not the protocol under test).
        let mut done = s.done.lock().expect("done lock");
        while !*done {
            done = s.done_cv.wait(done).expect("done lock");
        }
        drop(done);

        s.shutdown.store(true, Ordering::SeqCst);
        *s.version.lock().expect("version lock") += 1;
        s.cv.notify_all();
        worker.join().expect("worker joins");
        assert_eq!(s.processed.load(Ordering::SeqCst), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Large enough to clear the serial cutoff for any non-trivial batch.
    const HEAVY: u64 = 10_000_000;

    #[test]
    fn serial_and_parallel_agree() {
        for threads in [1usize, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..17).collect();
            for_each(threads, HEAVY, &mut items, |i, x| *x = *x * 3 + i as u64);
            let expect: Vec<u64> = (0..17).map(|i| i * 3 + i).collect();
            assert_eq!(items, expect, "threads = {threads}");
        }
    }

    #[test]
    fn scratch_variant_agrees_and_reuses() {
        for threads in [1usize, 4] {
            let mut items: Vec<u64> = (0..9).collect();
            for_each_with_scratch(threads, HEAVY, &mut items, |i, x, scratch| {
                scratch.clear();
                scratch.extend((0..=i as u64).map(|k| k + *x));
                *x = scratch.iter().sum();
            });
            let expect: Vec<u64> = (0..9u64).map(|i| (0..=i).map(|k| k + i).sum()).collect();
            assert_eq!(items, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_range_preserves_order() {
        for threads in [1usize, 3] {
            let out = map_range(threads, HEAVY, 13, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn small_batches_stay_on_the_calling_thread() {
        let me = std::thread::current().id();
        let mut seen = vec![None; 8];
        for_each(8, 1, &mut seen, |_, slot| {
            *slot = Some(std::thread::current().id())
        });
        assert!(
            seen.iter().all(|t| *t == Some(me)),
            "sub-cutoff batches must not be dispatched to the pool"
        );
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = Pool::new(3);
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, 8, &|j| {
            counts[j].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_batches_make_progress_without_deadlock() {
        let pool = Pool::new(2);
        let total = AtomicUsize::new(0);
        pool.run(4, 4, &|_| {
            pool.run(4, 4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn job_panics_propagate_to_the_submitter() {
        let pool = Pool::new(1);
        let hit = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(4, 4, &|j| {
                hit.fetch_add(1, Ordering::Relaxed);
                assert!(j != 2, "boom");
            });
        }));
        assert!(result.is_err(), "the job panic must reach the caller");
        assert_eq!(hit.load(Ordering::Relaxed), 4, "the batch still drains");
    }

    #[test]
    fn zero_and_single_job_batches_run_inline() {
        let pool = Pool::new(2);
        pool.run(0, 4, &|_| panic!("no jobs to run"));
        let me = std::thread::current().id();
        let ran_on = Mutex::new(None);
        pool.run(1, 4, &|_| {
            *ran_on.lock().unwrap() = Some(std::thread::current().id())
        });
        assert_eq!(*ran_on.lock().unwrap(), Some(me));
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Pool::new(2);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    pool.run(16, 4, &|_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }
}
