//! Model-checked protocol suite (checker builds only): the `fhe-conc`
//! deterministic scheduler driving the workspace's real concurrent
//! protocols and their distilled skeletons.
//!
//! Two planted regressions anchor the suite — the checker must *find*
//! them, not merely pass the fixed code:
//!
//! - the PR 12 halt in the DAG walker (a runner that leaves the loop on a
//!   failing node without halting the walk leaves its sibling parked on
//!   the frontier forever);
//! - the PR 9 submit/shutdown race in the serve layer (a submitter that
//!   only checks the shutdown flag before taking the queue lock strands
//!   its ticket on a drained queue).
//!
//! The fixed protocols then pass exhaustively (the walker's own runner
//! loop with a stub per node, the serve skeletons, the real `PolyPool` and
//! the compile cache's single flight) or across committed PCT seeds (the
//! compile cache's LRU admission, whose per-execution step counts are too
//! large for full enumeration).
//!
//! Run with: `RUSTFLAGS="--cfg fhe_conc" cargo test --test conc_models`
//! (the `conc-smoke` CI job; in ordinary builds this file is empty).
#![cfg(fhe_conc)]

use std::collections::HashMap;
use std::sync::Mutex as StdMutex;

use std::sync::atomic::{
    AtomicBool as StdAtomicBool, AtomicUsize as StdAtomicUsize, Ordering as StdOrdering,
};

use fhe_ckks::PolyPool;
use fhe_conc::sync::atomic::{AtomicUsize, Ordering};
use fhe_conc::sync::{thread, Arc};
use fhe_conc::{check, Config, FailureKind, Mode};
use fhe_ir::{text, CompileParams, CostModel, DepGraph, DepKind, ScaleCompiler};
use fhe_runtime::walk::{RunnerBudget, Walk};
use fhe_serve::server::conc_model::{quarantine_admission_model, submit_shutdown_model};
use fhe_serve::CompileCache;
use reserve_core::ReserveCompiler;

/// Fixed PCT seed for the large-model tier; committed so CI failures
/// replay bit-identically (`Config::pct` derives per-execution seeds from
/// it deterministically).
const PCT_SEED: u64 = 0x5EED_CAFE_F00D_0001;
/// Schedules per PCT model (the issue's acceptance floor).
const PCT_EXECUTIONS: u64 = 200;

fn exhaustive() -> Config {
    Config::exhaustive()
}

/// Unbounded exhaustive search for the small skeletons: no preemption
/// bound, so `complete` means every interleaving (modulo sleep-set
/// equivalence) was visited.
fn exhaustive_unbounded() -> Config {
    Config {
        mode: Mode::Exhaustive {
            max_executions: 200_000,
            preemption_bound: None,
        },
        max_steps: 50_000,
    }
}

fn pct() -> Config {
    Config::pct(PCT_SEED, PCT_EXECUTIONS)
}

// ---------------------------------------------------------------------
// DAG walker: the executor's runner loop (PR 12 halt) and runner budget
// ---------------------------------------------------------------------

/// The node the failing models fail: the diamond's first rotation.
const FAILING: usize = 1;

/// A diamond whose two middle nodes read one input: `x → {x≪1, x≪2} → +`.
/// The later rotation frees `x`, so an anti edge orders the earlier one
/// before it. Built once and leaked, so model threads can share it.
fn diamond() -> &'static DepGraph {
    let b = fhe_ir::Builder::new("diamond", 4);
    let x = b.input("x");
    let program = b.finish(vec![x.clone().rotate(1) + x.rotate(2)]);
    let scheduled = ReserveCompiler::full()
        .compile(&program, &CompileParams::new(30))
        .expect("compiles")
        .scheduled;
    let map = scheduled.validate().expect("valid");
    let graph = DepGraph::build(&scheduled, &map, &CostModel::paper_table3(), false);
    let kinds: Vec<DepKind> = (0..graph.nodes().len())
        .flat_map(|n| graph.preds(n).iter().map(|&(_, kind)| kind))
        .collect();
    assert_eq!(graph.nodes().len(), 4, "input, two rotations, add");
    assert!(
        kinds.contains(&DepKind::Anti),
        "the second rotation frees x"
    );
    Box::leak(Box::new(graph))
}

/// What a stub run of every node saw: how often each node ran, and
/// whether any node started before one of its dependences had finished.
/// Plain std atomics: they record, they are not part of the protocol, so
/// they add no schedule points.
struct Ledger {
    graph: &'static DepGraph,
    runs: Vec<StdAtomicUsize>,
    out_of_order: StdAtomicBool,
}

impl Ledger {
    fn new(graph: &'static DepGraph) -> Self {
        Ledger {
            graph,
            runs: (0..graph.nodes().len())
                .map(|_| StdAtomicUsize::new(0))
                .collect(),
            out_of_order: StdAtomicBool::new(false),
        }
    }

    /// The stub `run_node`: checks the node's dependences ran, counts the
    /// run, and fails [`FAILING`] when asked to.
    fn run(&self, node: usize, fail: bool) -> Result<usize, &'static str> {
        let ran = |p: usize| self.runs[p].load(StdOrdering::SeqCst) > 0;
        if !self.graph.preds(node).iter().all(|&(p, _)| ran(p)) {
            self.out_of_order.store(true, StdOrdering::SeqCst);
        }
        self.runs[node].fetch_add(1, StdOrdering::SeqCst);
        if fail && node == FAILING {
            return Err("node failed");
        }
        Ok(node)
    }

    fn runs(&self, node: usize) -> usize {
        self.runs[node].load(StdOrdering::SeqCst)
    }
}

/// Runs one walk of `graph` on the calling model thread plus `helpers`
/// spawned ones, each calling the shipped runner loop with the stub.
fn walk_with_stub(
    graph: &'static DepGraph,
    ledger: &Arc<Ledger>,
    helpers: usize,
    fail: bool,
) -> Result<Vec<(usize, usize)>, &'static str> {
    let walk = Arc::new(Walk::new(graph));
    let spawned: Vec<_> = (0..helpers)
        .map(|_| {
            let (walk, ledger) = (walk.clone(), ledger.clone());
            thread::spawn(move || walk.run(|node| ledger.run(node, fail)))
        })
        .collect();
    walk.run(|node| ledger.run(node, fail));
    for t in spawned {
        t.join().expect("runner exits");
    }
    Arc::into_inner(walk).expect("runners joined").finish()
}

#[test]
fn walker_without_the_halt_parks_a_sibling_forever() {
    // PR 12's pre-fix loop: a runner whose node fails leaves the loop the
    // way an unwind does, without retiring the node or halting the walk.
    // Its successors never become ready, so the sibling parked on the
    // frontier condvar waits forever. (A real panic would fail the model
    // on its own, so the failing runner returns instead.)
    let graph = diamond();
    let outcome = check("walker-no-halt", exhaustive(), move || {
        let ledger = Arc::new(Ledger::new(graph));
        let walk = Arc::new(Walk::<usize, &str>::new(graph));
        let pre_fix = |walk: &Walk<'_, usize, &str>, ledger: &Ledger| {
            while let Some(node) = walk.next() {
                match ledger.run(node, true) {
                    Ok(value) => walk.retire(node, Ok(value)),
                    Err(_) => return,
                }
            }
        };
        let sibling = {
            let (walk, ledger) = (walk.clone(), ledger.clone());
            thread::spawn(move || pre_fix(&walk, &ledger))
        };
        pre_fix(&walk, &ledger);
        sibling.join().expect("sibling exits");
    });
    let failure = outcome
        .failure
        .expect("the checker must rediscover the unhalted walk");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "the sibling never wakes, got {failure:?}"
    );
    assert!(
        !failure.trace.is_empty(),
        "a replayable counterexample schedule is recorded"
    );
}

#[test]
fn walker_with_a_failing_node_halts_every_runner_exhaustively() {
    // The shipped loop: the failing node's error halts the walk, every
    // runner exits, the walk reports the error, and nothing that depends
    // on the failed node runs.
    let graph = diamond();
    let outcome = check("walker-failing-node", exhaustive_unbounded(), move || {
        let ledger = Arc::new(Ledger::new(graph));
        let result = walk_with_stub(graph, &ledger, 1, true);
        assert_eq!(result, Err("node failed"));
        assert_eq!(ledger.runs(FAILING), 1);
        assert_eq!(ledger.runs(3), 0, "the add waits on the failed rotation");
        assert!(!ledger.out_of_order.load(StdOrdering::SeqCst));
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(outcome.complete, "small model fully explored");
    assert!(outcome.executions >= 2);
}

#[test]
fn walker_retires_a_diamond_once_and_in_dependence_order_exhaustively() {
    // Two and three runners over the diamond: every node runs once, after
    // its dependences (the anti edge included), and retires once. Two
    // runners are explored without a preemption bound; three, within the
    // default bound of three preemptions per schedule.
    let graph = diamond();
    for (helpers, config) in [(1, exhaustive_unbounded()), (2, exhaustive())] {
        let outcome = check("walker-diamond", config, move || {
            let ledger = Arc::new(Ledger::new(graph));
            let retired = walk_with_stub(graph, &ledger, helpers, false).expect("no node fails");
            let mut nodes: Vec<usize> = retired.iter().map(|&(node, _)| node).collect();
            assert!(retired.iter().all(|&(node, value)| node == value));
            nodes.sort_unstable();
            assert_eq!(nodes, [0, 1, 2, 3], "every node retires once");
            assert!((0..4).all(|n| ledger.runs(n) == 1), "every node runs once");
            assert!(
                !ledger.out_of_order.load(StdOrdering::SeqCst),
                "no node runs before its dependences"
            );
        });
        assert!(
            outcome.passed(),
            "{} runners: {:?}",
            helpers + 1,
            outcome.failure
        );
        assert!(
            outcome.complete,
            "{} runners: every schedule explored",
            helpers + 1
        );
        assert!(outcome.executions >= 2);
    }
}

#[test]
fn two_walks_never_hold_more_helpers_than_the_budget() {
    // Two concurrent walks ask for two helpers each from a budget of one:
    // between them they never hold more than one, neither waits for it,
    // both retire every node, and the budget is whole again afterwards.
    let graph = diamond();
    let outcome = check("walker-budget", exhaustive(), move || {
        let budget = Arc::new(RunnerBudget::new(1));
        let held = Arc::new(StdAtomicUsize::new(0));
        let request = {
            let (budget, held) = (budget.clone(), held.clone());
            move || {
                let helpers = budget.take(2);
                let now = held.fetch_add(helpers.count(), StdOrdering::SeqCst) + helpers.count();
                assert!(now <= 1, "{now} helpers held against a budget of one");
                let ledger = Arc::new(Ledger::new(graph));
                let retired = walk_with_stub(graph, &ledger, helpers.count(), false);
                assert_eq!(retired.expect("no node fails").len(), 4);
                held.fetch_sub(helpers.count(), StdOrdering::SeqCst);
            }
        };
        let other = thread::spawn(request.clone());
        request();
        other.join().expect("the other walk ends");
        assert_eq!(budget.take(2).count(), 1, "every helper went back");
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(outcome.executions >= 2);
}

// ---------------------------------------------------------------------
// Serve layer: enqueue/shutdown (PR 9 race) and quarantine admission
// ---------------------------------------------------------------------

#[test]
fn submit_without_under_lock_recheck_strands_a_ticket() {
    let outcome = check("submit-shutdown-unchecked", exhaustive(), || {
        submit_shutdown_model(false)
    });
    let failure = outcome
        .failure
        .expect("the checker must rediscover the submit/shutdown race");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "the stranded ticket leaves its submitter blocked forever, got {failure:?}"
    );
}

#[test]
fn submit_shutdown_with_recheck_passes_exhaustively() {
    let outcome = check("submit-shutdown-fixed", exhaustive(), || {
        submit_shutdown_model(true)
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(outcome.executions >= 2);
}

#[test]
fn quarantine_admission_is_ordered_exhaustively() {
    let outcome = check("quarantine-admission", exhaustive(), || {
        quarantine_admission_model()
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(outcome.executions >= 2);
}

// ---------------------------------------------------------------------
// Compile cache: single-flight and LRU admission on the real type
// ---------------------------------------------------------------------

fn tiny_program(name: &str) -> fhe_ir::Program {
    let b = fhe_ir::Builder::new(name, 4);
    let x = b.input("x");
    let y = b.input("y");
    text::parse(&text::print(&b.finish(vec![x * y]))).expect("round-trips")
}

#[test]
fn cold_key_compiles_exactly_once_in_every_interleaving() {
    // Two threads race get_or_compile on the same cold key. The
    // single-flight claim must serialize them into exactly one compile
    // and one hit, and both must share the same scheduled program.
    let outcome = check("cache-single-flight", exhaustive(), || {
        let cache = Arc::new(CompileCache::new(None));
        let program = Arc::new(tiny_program("sf"));
        let params = CompileParams::new(30);
        let t = {
            let (cache, program) = (cache.clone(), program.clone());
            thread::spawn(move || {
                let compiler = ReserveCompiler::full();
                cache
                    .get_or_compile(&program, &params, &compiler)
                    .expect("compiles")
                    .scheduled
            })
        };
        let compiler = ReserveCompiler::full();
        let mine = cache
            .get_or_compile(&program, &params, &compiler)
            .expect("compiles")
            .scheduled;
        let theirs = t.join().expect("peer compiles");
        assert!(
            Arc::ptr_eq(&mine, &theirs),
            "both callers share one cached schedule"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one compile");
        assert_eq!(stats.hits, 1, "the loser of the flight race hits");
        assert_eq!(stats.entries, 1);
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(
        outcome.executions >= 2,
        "the flight race has more than one schedule"
    );
}

#[test]
fn lru_never_evicts_the_just_inserted_entry_under_contention() {
    // A budget far below one entry forces an eviction decision on every
    // insert; the `e.tick != tick` filter must keep the entry that was
    // inserted by the *current* lookup, in every interleaving of two
    // threads inserting distinct keys.
    let outcome = check("cache-lru-admission", pct(), || {
        let cache = Arc::new(CompileCache::new(Some(1)));
        let t = {
            let cache = cache.clone();
            thread::spawn(move || {
                let compiler = ReserveCompiler::full();
                let program = tiny_program("lru-a");
                cache
                    .get_or_compile(&program, &CompileParams::new(30), &compiler)
                    .expect("compiles despite the tiny budget")
            })
        };
        let compiler = ReserveCompiler::full();
        let program = tiny_program("lru-b");
        cache
            .get_or_compile(&program, &CompileParams::new(30), &compiler)
            .expect("compiles despite the tiny budget");
        t.join().expect("peer compiles");
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert!(
            stats.entries >= 1,
            "the most recent insert always survives its own eviction pass"
        );
        assert_eq!(
            stats.evictions as usize + stats.entries,
            2,
            "every inserted entry is either cached or counted evicted"
        );
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert_eq!(outcome.executions, PCT_EXECUTIONS);
}

// ---------------------------------------------------------------------
// Poly pool: counter exactness at quiescence
// ---------------------------------------------------------------------

#[test]
fn pool_counters_are_exact_in_every_interleaving() {
    const DEGREE: usize = 8;
    const LIMB_BYTES: u64 = (DEGREE * 8) as u64;
    let outcome = check("polypool-counters", exhaustive(), || {
        let pool = Arc::new(PolyPool::new(DEGREE));
        let worker = {
            let pool = pool.clone();
            thread::spawn(move || {
                let bufs = pool.take_raw(1);
                pool.put(bufs);
            })
        };
        let bufs = pool.take_raw(2);
        pool.put(bufs);
        worker.join().expect("worker balances its traffic");
        // Quiescence: both threads joined, so the exactness claims in the
        // module docs must hold as cross-field invariants.
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 3, "every checkout counted once");
        assert_eq!(s.returns, 3, "every buffer returned exactly once");
        assert_eq!(s.live_bytes, 0, "balanced take/put leaves nothing live");
        assert!(
            s.peak_bytes >= 2 * LIMB_BYTES && s.peak_bytes <= 3 * LIMB_BYTES,
            "peak brackets the true high-water mark, got {}",
            s.peak_bytes
        );
        assert_eq!(
            s.free_bytes,
            (s.returns - s.hits) * LIMB_BYTES,
            "parked bytes equal net returns"
        );
        assert_eq!(
            pool.parked_buffers() as u64 * LIMB_BYTES,
            s.free_bytes,
            "shard contents sum to the global free-byte counter"
        );
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(
        outcome.executions >= 2,
        "shard traffic interleaves in more than one order"
    );
}

// ---------------------------------------------------------------------
// Exploration sanity on this suite's own scale
// ---------------------------------------------------------------------

#[test]
fn exhaustive_models_here_really_explore_multiple_schedules() {
    // Meta-check: a two-thread race visits both orders; recording the
    // distinct observations guards against a scheduler regression that
    // silently serializes.
    let observed: Arc<StdMutex<HashMap<&'static str, u64>>> =
        Arc::new(StdMutex::new(HashMap::new()));
    let observed2 = observed.clone();
    let outcome = check("exploration-sanity", exhaustive_unbounded(), move || {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || x2.store(1, Ordering::SeqCst));
        let label = if x.load(Ordering::SeqCst) == 0 {
            "load-first"
        } else {
            "store-first"
        };
        *observed2.lock().unwrap().entry(label).or_insert(0) += 1;
        t.join().expect("joins");
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    let observed = observed.lock().unwrap();
    assert!(
        observed.contains_key("load-first") && observed.contains_key("store-first"),
        "both orders visited: {observed:?}"
    );
}
