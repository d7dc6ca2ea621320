//! Scaling gates for the compile pipeline's cleanup and verification
//! tail, on the paper-size LeNet-5 (11 664 ops in, a 9 411-op schedule out).
//!
//! The shared `cleanup` that every compile starts with must cost a small
//! share of the scale management it prepares: at most 0.15 ×. As four
//! whole-program rebuilds repeated until none changed anything it cost
//! about 0.3 × (release and debug); as one forward sweep and a DCE, about
//! 0.05 ×.
//!
//! The dependence analysis — DAG, work/span/width profile, race-freedom
//! proof — must cost what its input costs: at most a quarter of the scale
//! management it verifies. With a ready-list scan per scheduled node and an
//! ancestor bitset it cost 27 × (release; > 10 × in a debug build); with a
//! list schedule at each of twelve widths, about 0.6 × (0.5 × in a debug
//! build), which this gate fails; with work, span and width from one sweep,
//! under 0.1 ×. And a
//! compile must account for its own time: the report's `total_time` has to
//! cover the wall measured around `compile`, which it did to 63 % while the
//! profile was computed a second time after the clock was read.
//!
//! All three gates compare two walls of one process, so the host's speed
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
    let (mut cleanup, mut depgraph, mut scale_management) =
        (Duration::MAX, Duration::MAX, Duration::MAX);
    let mut covered = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let compiled = ReserveCompiler::full()
            .compile(&program, &params)
            .expect("LeNet-5 compiles");
        let wall = t.elapsed();
        let report = &compiled.report;
        let wall_of = |name| report.trace.pass(name).expect("the pass ran").wall;
        cleanup = cleanup.min(wall_of("cleanup"));
        depgraph = depgraph.min(wall_of("depgraph"));
        scale_management = scale_management.min(report.scale_management_time);
        covered = covered.max(report.total_time.as_secs_f64() / wall.as_secs_f64());
    }
    let share = |pass: Duration| pass.as_secs_f64() / scale_management.as_secs_f64();
    println!(
        "cleanup {cleanup:?} ({:.3} x), depgraph {depgraph:?} ({:.3} x), \
         scale management {scale_management:?}, total_time covers {:.1} %",
        share(cleanup),
        share(depgraph),
        covered * 100.0
    );
    assert!(
        share(cleanup) <= 0.15,
        "cleanup pass {cleanup:?} vs scale management {scale_management:?}"
    );
    assert!(
        depgraph <= scale_management / 4,
        "depgraph pass {depgraph:?} vs scale management {scale_management:?}"
    );
    assert!(
        covered >= 0.95,
        "total_time covers {:.1} % of the compile's wall",
        covered * 100.0
    );
}
