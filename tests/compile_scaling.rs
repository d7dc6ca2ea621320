//! Scaling gates for the compile pipeline's cleanup, rescale hoisting and
//! verification tail, on the paper-size LeNet-5 (11 664 ops in, a 9 411-op
//! schedule out, 2 877 rescales hoisted).
//!
//! The shared `cleanup` that every compile starts with must cost a small
//! share of the scale management it prepares: at most 0.15 ×. As four
//! whole-program rebuilds repeated until none changed anything it cost
//! about 0.3 × (release and debug); as one forward sweep and a DCE, about
//! 0.05 ×.
//!
//! Rescale hoisting is scale management itself, so it is held to a share
//! of the whole: at most 0.25 ×. Repeating a whole-program round — validate,
//! use lists, candidate sets, a rebuild — until one applied nothing (nine
//! rounds here) it cost 0.38–0.48 × in release and 0.45–0.49 × in debug;
//! revisiting only what the last round changed, with one rebuild at the
//! end, 0.09–0.14 × (release) and 0.07–0.10 × (debug).
//!
//! The dependence analysis — DAG, work/span/width profile, race-freedom
//! proof — must cost what its input costs: at most a quarter of the scale
//! management it verifies. With a ready-list scan per scheduled node and an
//! ancestor bitset it cost 27 × (release; > 10 × in a debug build); with a
//! list schedule at each of twelve widths, about 0.6 × (0.5 × in a debug
//! build), which this gate fails; with work, span and width from one sweep,
//! under 0.1 ×; with an unrestricted ancestor search per linear-combination
//! member, 0.19–0.29 × (0.21–0.25 × in debug), which failed it again; with
//! one walk per group and the DAG's edge lists in one allocation,
//! 0.07–0.11 × (0.09–0.11 × in debug). Since the pass also reads the
//! report's memory estimate off its graph, 0.10–0.12 × (0.16 × in debug).
//!
//! `lint` must cost at most 0.15 × the scale management: folding every slot
//! of the 352 weight vectors on each compile it cost 0.40–0.58 × (0.21–0.23
//! × in debug); reading the range each vector records when it is made,
//! 0.06–0.09 × (0.04–0.05 ×). `translation-validate` re-runs the cleanup on the
//! source and matches the schedule against it, so it must cost at most
//! 2.5 × the `cleanup` pass: comparing the two sides' shared weight vectors
//! slot by slot it cost 4.9–6.6 × (7.3 × in debug); comparing them by
//! allocation first, 0.8–1.3 ×.
//!
//! And a compile must account for its own time: the report's `total_time`
//! has to cover the wall measured around `compile`, which it did to 63 %
//! while the profile was computed a second time after the clock was read.
//! What it spends outside every recorded pass — `total_time` less the pass
//! walls — must stay at most 0.06 × the scale management: while the
//! report's memory and latency estimates derived the buffer discipline a
//! second time after the `depgraph` pass, it was 0.07–0.11 × (0.10–0.11 ×
//! in debug); reading both off the pass's one graph, 0.03–0.04 × (0.03 ×).
//!
//! The allocation order and the reserve allocation are held to the
//! `typecheck` pass, a walk over the same solution that checks every
//! typing rule once: `order` at most 8 × and `alloc` at most 5.25 ×. With
//! a chain walk all the way to the return per heavy op and Euclid's gcd on
//! `i128` per rational, `order` cost 10.4–11.4 × and `alloc` 7.9–8.1 ×
//! (release; 33–43 × and 4.5–5.1 × in debug); stopping each walk at the
//! first ranked value, with machine-word rationals and flat per-value
//! tables, 3.3–3.6 × and 3.7–4.0 × (5.0–6.3 × and 2.9–4.0 × in debug). In
//! a debug build the rationals' machine-word paths save little over an
//! `i128` remainder, a precompiled runtime call there, so only a release
//! build tells the two allocations apart.
//!
//! Every gate compares two walls of one process, so the host's speed
//! cancels; each takes the best of three compiles, so one preemption does
//! not decide.

use std::time::{Duration, Instant};

use fhe_ir::{CompileParams, ScaleCompiler};
use fhe_workloads::lenet::{self, LenetConfig};
use reserve_core::ReserveCompiler;

#[test]
fn lenet5_analysis_costs_what_its_input_costs_and_the_report_accounts_for_the_compile() {
    let program = lenet::build(&LenetConfig::lenet5());
    let params = CompileParams::new(30);
    let passes = [
        "cleanup",
        "hoist",
        "depgraph",
        "lint",
        "translation-validate",
        "order",
        "alloc",
        "typecheck",
    ];
    let mut best = [Duration::MAX; 8];
    let mut scale_management = Duration::MAX;
    let mut unattributed = Duration::MAX;
    let mut covered = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let compiled = ReserveCompiler::full()
            .compile(&program, &params)
            .expect("LeNet-5 compiles");
        let wall = t.elapsed();
        let report = &compiled.report;
        for (best, name) in best.iter_mut().zip(passes) {
            *best = (*best).min(report.trace.pass(name).expect("the pass ran").wall);
        }
        scale_management = scale_management.min(report.scale_management_time);
        unattributed =
            unattributed.min(report.total_time.saturating_sub(report.trace.total_time()));
        covered = covered.max(report.total_time.as_secs_f64() / wall.as_secs_f64());
    }
    let [cleanup, hoist, depgraph, lint, tv, order, alloc, typecheck] = best;
    let share = |pass: Duration| pass.as_secs_f64() / scale_management.as_secs_f64();
    let tv_per_cleanup = tv.as_secs_f64() / cleanup.as_secs_f64();
    let per_typecheck = |pass: Duration| pass.as_secs_f64() / typecheck.as_secs_f64();
    println!(
        "cleanup {cleanup:?} ({:.3} x), hoist {hoist:?} ({:.3} x), depgraph {depgraph:?} \
         ({:.3} x), lint {lint:?} ({:.3} x), scale management {scale_management:?}; \
         translation-validate {tv:?} ({tv_per_cleanup:.2} x cleanup); \
         unattributed {unattributed:?} ({:.3} x); total_time covers {:.1} %; order {order:?} \
         ({:.2} x typecheck), alloc {alloc:?} ({:.2} x), typecheck {typecheck:?}",
        share(cleanup),
        share(hoist),
        share(depgraph),
        share(lint),
        share(unattributed),
        covered * 100.0,
        per_typecheck(order),
        per_typecheck(alloc),
    );
    assert!(
        share(cleanup) <= 0.15,
        "cleanup pass {cleanup:?} vs scale management {scale_management:?}"
    );
    assert!(
        share(hoist) <= 0.25,
        "hoist pass {hoist:?} vs scale management {scale_management:?}"
    );
    assert!(
        depgraph <= scale_management / 4,
        "depgraph pass {depgraph:?} vs scale management {scale_management:?}"
    );
    assert!(
        share(lint) <= 0.15,
        "lint pass {lint:?} vs scale management {scale_management:?}"
    );
    assert!(
        tv_per_cleanup <= 2.5,
        "translation-validate pass {tv:?} vs cleanup pass {cleanup:?}"
    );
    assert!(
        share(unattributed) <= 0.06,
        "{unattributed:?} outside every pass vs scale management {scale_management:?}"
    );
    assert!(
        covered >= 0.95,
        "total_time covers {:.1} % of the compile's wall",
        covered * 100.0
    );
    assert!(
        per_typecheck(order) <= 8.0,
        "order pass {order:?} vs typecheck pass {typecheck:?}"
    );
    assert!(
        per_typecheck(alloc) <= 5.25,
        "alloc pass {alloc:?} vs typecheck pass {typecheck:?}"
    );
}
