//! `fhe-conc`: an in-tree deterministic-interleaving model checker for the
//! workspace's synchronization protocols, in the spirit of loom/shuttle
//! (crates.io is unavailable offline, so the checker is built in-tree).
//!
//! # Two build modes
//!
//! The crate compiles in one of two modes, selected by the custom
//! `--cfg fhe_conc` flag (set via `RUSTFLAGS="--cfg fhe_conc"`):
//!
//! * **std mode** (`cfg(not(fhe_conc))`, the default): [`sync`] is a set of
//!   zero-cost re-exports of `std::sync` / `std::thread`. Production builds
//!   pay nothing — the facade compiles away entirely. [`model`] and
//!   [`check`] run the model closure **once** with real threads
//!   (*passthrough*), so doc-examples and smoke tests exercise the entry
//!   points in ordinary `cargo test` runs.
//! * **checker mode** (`cfg(fhe_conc)`): every type in [`sync`] is a shim
//!   whose operations are *schedule points* — the calling thread parks and a
//!   controlling scheduler decides which thread runs next, exploring
//!   interleavings across repeated executions of the model closure:
//!   bounded-exhaustive DFS with DPOR-style sleep-set reduction for small
//!   models, and seeded PCT randomized-priority scheduling for larger ones,
//!   with deadlock detection, lost-wakeup classification for condvars and a
//!   numbered counterexample trace on failure.
//!
//! # What the checker models (and what it weakens)
//!
//! See [`sync`] for the precise memory-model contract. In short: the
//! checker explores *interleavings* under sequential consistency — every
//! atomic executes with SeqCst-equivalent visibility regardless of the
//! `Ordering` argument, so `SeqCst`/`AcqRel`/`Acquire`/`Release` protocols
//! are modeled faithfully (their bugs are interleaving bugs) while bugs
//! that *require* weak-memory reordering of `Relaxed` accesses are out of
//! scope. Condvars never wake spuriously under the checker (protocols must
//! still use `while` loops — std may wake spuriously), and `notify_one`
//! wakes the longest-waiting thread (FIFO).
//!
//! # Writing a model
//!
//! A model is a closure that builds its state *inside* the closure (fresh
//! per execution), spawns threads through [`sync::thread`], joins or
//! otherwise terminates every thread it spawns, and asserts its invariants
//! with ordinary `assert!`. See [`model`] for a runnable example and
//! DESIGN.md §13 for the full guide.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod sync;

#[cfg(fhe_conc)]
mod engine;
#[cfg(fhe_conc)]
mod shim;

use std::fmt;

/// How the scheduler explores interleavings.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Depth-first enumeration of all schedules, bounded by a preemption
    /// budget and an execution cap, with sleep-set pruning of redundant
    /// reorderings of independent operations. For small protocol models.
    Exhaustive {
        /// Stop after this many executions even if un-explored schedules
        /// remain ([`ModelOutcome::complete`] reports whether the search
        /// finished).
        max_executions: u64,
        /// Maximum number of *preemptive* context switches per schedule
        /// (switching away from a thread that could have continued);
        /// forced switches — the running thread blocked or finished — are
        /// free. `None` removes the bound. Empirically almost all real
        /// concurrency bugs manifest within 2–3 preemptions (CHESS).
        preemption_bound: Option<usize>,
    },
    /// Probabilistic concurrency testing: each execution assigns random
    /// per-thread priorities from a seeded RNG, runs the highest-priority
    /// enabled thread, and demotes the front-runner at `depth - 1` random
    /// change points. For models too large to enumerate (the real pool,
    /// cache and serve protocols).
    Pct {
        /// Base RNG seed; execution `i` derives its schedule from
        /// `seed + i`, so a failing seed replays exactly.
        seed: u64,
        /// Number of randomized executions.
        executions: u64,
        /// PCT depth `d`: schedules with up to `d - 1` priority-change
        /// points are covered.
        depth: usize,
    },
}

/// Scheduler configuration for [`check`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Exploration strategy.
    pub mode: Mode,
    /// Per-execution step budget: an execution exceeding this many
    /// schedule points fails as a suspected livelock.
    pub max_steps: usize,
}

impl Config {
    /// Bounded-exhaustive DFS defaults: up to 100 000 executions, at most
    /// 3 preemptions per schedule, 20 000 steps per execution.
    pub fn exhaustive() -> Config {
        Config {
            mode: Mode::Exhaustive {
                max_executions: 100_000,
                preemption_bound: Some(3),
            },
            max_steps: 20_000,
        }
    }

    /// PCT defaults for a given seed/iteration budget (depth 3).
    pub fn pct(seed: u64, executions: u64) -> Config {
        Config {
            mode: Mode::Pct {
                seed,
                executions,
                depth: 3,
            },
            max_steps: 200_000,
        }
    }
}

/// One executed schedule point in a counterexample trace.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// Model-thread id (0 is the model closure itself).
    pub tid: usize,
    /// Thread name (`t{tid}` unless the spawner named it).
    pub thread: String,
    /// Human-readable operation, e.g. `lock m0` or `wait c1 (releases m0)`.
    pub op: String,
    /// `file:line` of the synchronization call.
    pub location: String,
}

/// Why a model failed.
#[derive(Debug, Clone)]
pub enum FailureKind {
    /// A model thread panicked (failed assertion or explicit panic).
    Panic,
    /// No runnable thread remained while some thread was still blocked.
    Deadlock {
        /// `true` when every blocked thread was parked in a condvar wait —
        /// the signature of a lost wakeup (a notify that raced ahead of
        /// the wait it was meant to release).
        lost_wakeup: bool,
    },
    /// An execution exceeded [`Config::max_steps`] — suspected livelock.
    StepBoundExceeded,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::Deadlock { lost_wakeup: true } => write!(f, "deadlock (lost wakeup)"),
            FailureKind::Deadlock { lost_wakeup: false } => write!(f, "deadlock"),
            FailureKind::StepBoundExceeded => write!(f, "step bound exceeded"),
        }
    }
}

/// A failing schedule: what went wrong plus the numbered interleaving that
/// triggered it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Failure class.
    pub kind: FailureKind,
    /// Panic message / deadlock description.
    pub message: String,
    /// The schedule that produced the failure, in execution order.
    pub trace: Vec<TraceStep>,
}

impl Failure {
    /// Renders the failure as a numbered step listing (the last 200 steps
    /// for very long schedules).
    pub fn render(&self) -> String {
        let mut out = format!("model failure: {}\n  {}\n", self.kind, self.message);
        let skip = self.trace.len().saturating_sub(200);
        if skip > 0 {
            out.push_str(&format!("  … {skip} earlier steps elided …\n"));
        }
        for (i, step) in self.trace.iter().enumerate().skip(skip) {
            out.push_str(&format!(
                "  #{:<4} [t{} {}] {} @ {}\n",
                i, step.tid, step.thread, step.op, step.location
            ));
        }
        out
    }
}

/// The result of checking one model.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// Model name (as passed to [`check`]).
    pub name: String,
    /// Interleavings executed to completion (including a failing one).
    pub executions: u64,
    /// Executions cut short by sleep-set pruning (their continuations are
    /// covered by an explored sibling schedule).
    pub pruned: u64,
    /// `true` when an exhaustive search enumerated every schedule within
    /// its preemption bound (always `false` for PCT and passthrough).
    pub complete: bool,
    /// The first failing schedule, if any.
    pub failure: Option<Failure>,
}

impl ModelOutcome {
    /// `true` when no failing schedule was found.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Checks `model` under `config` and returns the outcome without
/// panicking. In std builds this runs the closure once with real threads
/// (passthrough) and reports one execution.
///
/// On failure, if the `FHE_CONC_TRACE_DIR` environment variable is set the
/// rendered counterexample is additionally written to
/// `$FHE_CONC_TRACE_DIR/<name>.trace.txt` (CI uploads these as artifacts).
pub fn check<F>(name: &str, config: Config, model: F) -> ModelOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    let outcome = check_inner(name, &config, model);
    if let Some(failure) = &outcome.failure {
        if let Ok(dir) = std::env::var("FHE_CONC_TRACE_DIR") {
            if !dir.is_empty() {
                let _ = std::fs::create_dir_all(&dir);
                let path = std::path::Path::new(&dir).join(format!("{name}.trace.txt"));
                let _ = std::fs::write(path, failure.render());
            }
        }
    }
    outcome
}

#[cfg(fhe_conc)]
fn check_inner<F>(name: &str, config: &Config, model: F) -> ModelOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    engine::check_model(name, config, std::sync::Arc::new(model))
}

#[cfg(not(fhe_conc))]
fn check_inner<F>(name: &str, _config: &Config, model: F) -> ModelOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    // Passthrough: one real-threaded execution, so std-mode test runs
    // still drive the model end to end.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&model));
    ModelOutcome {
        name: name.to_string(),
        executions: 1,
        pruned: 0,
        complete: false,
        failure: result.err().map(|payload| Failure {
            kind: FailureKind::Panic,
            message: panic_message(&*payload),
            trace: Vec::new(),
        }),
    }
}

/// Best-effort string form of a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Explores every interleaving of `model` under the default
/// [`Config::exhaustive`] bounds and panics with a numbered
/// counterexample trace if any schedule fails. In std builds (no
/// `--cfg fhe_conc`) the model runs once with real threads.
///
/// ```
/// use fhe_conc::sync::{thread, Arc, Mutex};
///
/// // Two racing increments through a mutex: every interleaving sums to 2.
/// fhe_conc::model(|| {
///     let n = Arc::new(Mutex::new(0u32));
///     let n2 = Arc::clone(&n);
///     let t = thread::spawn(move || *n2.lock().unwrap() += 1);
///     *n.lock().unwrap() += 1;
///     t.join().unwrap();
///     assert_eq!(*n.lock().unwrap(), 2);
/// });
/// ```
pub fn model<F>(model: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let outcome = check("model", Config::exhaustive(), model);
    if let Some(failure) = outcome.failure {
        panic!("{}", failure.render());
    }
}

/// A small stable id for the calling thread.
///
/// Under the checker this is the model-thread id (deterministic across
/// replays of a schedule — `0` for the model closure, then spawn order),
/// which is what makes per-thread sharding decisions like the poly-pool's
/// home shard replay-stable. In std builds it is an arbitrary but fixed
/// per-thread counter.
pub fn current_thread_id() -> usize {
    #[cfg(fhe_conc)]
    {
        if let Some(tid) = engine::model_thread_id() {
            return tid;
        }
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}
