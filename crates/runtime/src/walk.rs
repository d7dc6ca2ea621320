//! The runner loop of the DAG walk and the process-wide budget of helper
//! threads its runners come from.
//!
//! Both are written on the [`fhe_conc::sync`] facade, so
//! `tests/conc_models.rs` model-checks [`Walk::run`], with a stub per node,
//! and [`RunnerBudget::take`] as the encrypted executor runs them.

use std::sync::PoisonError;

use fhe_conc::sync::atomic::{AtomicUsize, Ordering};
use fhe_conc::sync::{Condvar, Mutex, OnceLock};
use fhe_ir::{DepConsumer, DepGraph};

/// The walk mutex is held only around frontier bookkeeping, whose one
/// panic (`DepConsumer::complete` on a node retired twice) is itself a
/// broken invariant — short of that, no runner observes it poisoned.
const WALK_LOCK: &str = "walk lock is never poisoned";

/// One walk of a [`DepGraph`]: the frontier its runners share under one
/// mutex, and a condvar that wakes idle runners whenever a retirement
/// readies new nodes or the walk halts.
///
/// A node's run returns `Ok(T)`, kept with the node in retirement order, or
/// `Err(E)`: the first error halts the walk, and every runner exits at its
/// next pop.
#[derive(Debug)]
pub struct Walk<'g, T, E> {
    graph: &'g DepGraph,
    state: Mutex<State<T, E>>,
    ready: Condvar,
}

#[derive(Debug)]
struct State<T, E> {
    consumer: DepConsumer,
    /// Set by the first error or by a runner's unwind.
    halted: bool,
    error: Option<E>,
    retired: Vec<(usize, T)>,
}

impl<'g, T, E> Walk<'g, T, E> {
    /// A walk of `graph` with every dependence-free node ready.
    pub fn new(graph: &'g DepGraph) -> Self {
        Walk {
            graph,
            state: Mutex::new(State {
                consumer: DepConsumer::new(graph),
                halted: false,
                error: None,
                retired: Vec::new(),
            }),
            ready: Condvar::new(),
        }
    }

    /// One runner: takes the ready node earliest in the schedule, runs it
    /// and retires it, until every node has retired or the walk halts. A
    /// runner that unwinds (a backend assertion on a schedule the validator
    /// accepted) halts the walk on its way out, so its siblings parked on
    /// the condvar exit and the panic reaches the caller instead of every
    /// runner waiting forever.
    pub fn run(&self, run_node: impl Fn(usize) -> Result<T, E>) {
        let _halt = HaltOnUnwind(self);
        while let Some(node) = self.next() {
            let result = run_node(node);
            self.retire(node, result);
        }
    }

    /// Blocks until a node is ready and takes it; `None` once every node
    /// has retired or the walk has halted. Public only so the protocol
    /// models can rebuild pre-fix runner loops from the shipped steps.
    #[doc(hidden)]
    pub fn next(&self) -> Option<usize> {
        let mut s = self.state.lock().expect(WALK_LOCK);
        loop {
            if s.halted || s.consumer.is_done() {
                return None;
            }
            if let Some(node) = s.consumer.pop_ready() {
                return Some(node);
            }
            s = self.ready.wait(s).expect(WALK_LOCK);
        }
    }

    /// Retires `node` with its run's result (see [`Walk::next`]).
    #[doc(hidden)]
    pub fn retire(&self, node: usize, result: Result<T, E>) {
        let mut s = self.state.lock().expect(WALK_LOCK);
        match result {
            Ok(value) => {
                s.retired.push((node, value));
                s.consumer.complete(self.graph, node);
            }
            Err(e) => {
                s.halted = true;
                s.error.get_or_insert(e);
            }
        }
        drop(s);
        self.ready.notify_all();
    }

    /// Runs the walk on the calling thread and on up to `runners − 1`
    /// scoped helpers taken from the process-wide [`RunnerBudget`],
    /// returning how many runners ran. A runner's panic reaches the caller,
    /// with its own payload, once every runner has exited.
    pub fn run_scoped(
        &self,
        runners: usize,
        run_node: impl Fn(usize) -> Result<T, E> + Sync,
    ) -> usize
    where
        T: Send,
        E: Send,
    {
        let helpers = RunnerBudget::global().take(runners.saturating_sub(1));
        let runner = || self.run(&run_node);
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..helpers.count()).map(|_| scope.spawn(runner)).collect();
            runner();
            for helper in spawned {
                if let Err(panic) = helper.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        1 + helpers.count()
    }

    /// Ends the walk: every node with its run's value, in retirement
    /// order, or the first error.
    ///
    /// # Panics
    ///
    /// Panics if the walk neither failed nor retired every node (no runner
    /// ran it to the end).
    pub fn finish(self) -> Result<Vec<(usize, T)>, E> {
        let s = self.state.into_inner().expect(WALK_LOCK);
        if let Some(e) = s.error {
            return Err(e);
        }
        assert!(s.consumer.is_done(), "walk retired every node");
        Ok(s.retired)
    }
}

/// Halts the walk when its runner unwinds.
struct HaltOnUnwind<'w, 'g, T, E>(&'w Walk<'g, T, E>);

impl<T, E> Drop for HaltOnUnwind<'_, '_, T, E> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let walk = self.0;
            walk.state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .halted = true;
            walk.ready.notify_all();
        }
    }
}

/// Helper threads the walks of concurrent requests may run beside their
/// callers. [`Walk::run_scoped`] takes what it asks for from one
/// process-wide budget, one helper per available hardware thread
/// ([`default_runners`]), without waiting, and gives it back when the walk
/// ends; a walk that finds the budget spent runs with fewer runners, which
/// changes no output byte (the walk's outputs are the same at every
/// width). The count publishes no other data, so its operations are
/// `Relaxed`.
#[derive(Debug)]
pub struct RunnerBudget {
    free: AtomicUsize,
}

impl RunnerBudget {
    /// A budget of `helpers` threads.
    pub const fn new(helpers: usize) -> Self {
        RunnerBudget {
            free: AtomicUsize::new(helpers),
        }
    }

    fn global() -> &'static RunnerBudget {
        static GLOBAL: OnceLock<RunnerBudget> = OnceLock::new();
        GLOBAL.get_or_init(|| RunnerBudget::new(default_runners()))
    }

    /// Takes up to `want` helpers, as many as are free.
    pub fn take(&self, want: usize) -> Helpers<'_> {
        let free = (self.free).fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| {
            Some(free - want.min(free))
        });
        Helpers {
            budget: self,
            count: want.min(free.unwrap_or(0)),
        }
    }
}

/// Helpers taken from a [`RunnerBudget`]; dropping this gives them back.
#[derive(Debug)]
pub struct Helpers<'b> {
    budget: &'b RunnerBudget,
    count: usize,
}

impl Helpers<'_> {
    /// How many helpers were taken.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Drop for Helpers<'_> {
    fn drop(&mut self) {
        self.budget.free.fetch_add(self.count, Ordering::Relaxed);
    }
}

/// Runners of a walk that asks for `0`: the machine's available
/// parallelism.
pub fn default_runners() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
