//! Two requests walking one session at once share the process-wide runner
//! budget (`fhe_runtime::walk::RunnerBudget`): each asks for four runners,
//! gets the caller plus whatever helpers are free, and returns the bytes a
//! one-runner walk returns — a walk's outputs do not depend on its width.

use std::thread;

use fhe_reserve::prelude::*;
use fhe_reserve::runtime::walk::default_runners;
use fhe_reserve::runtime::{execute_parallel_with_keys, ExecOptions, ParOptions, SessionKeys};
use fhe_reserve::workloads::regression;

fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn concurrent_walks_share_the_runner_budget_and_keep_their_bytes() {
    let slots = 64;
    let program = regression::polynomial(slots, 1);
    let inputs = regression::polynomial_inputs(slots, 3);
    let params = CompileParams {
        output_reserve_bits: 8,
        ..CompileParams::new(30)
    };
    let scheduled = ReserveCompiler::full()
        .compile(&program, &params)
        .expect("compiles")
        .scheduled;
    let exec = ExecOptions {
        poly_degree: 2 * slots,
        seed: 11,
        threads: 1,
        ..ExecOptions::default()
    };
    let keys = SessionKeys::for_schedule(&scheduled, &exec).expect("keys");
    let walk = |workers: usize| {
        let options = ParOptions {
            exec: exec.clone(),
            workers,
            fusion: true,
        };
        execute_parallel_with_keys(&scheduled, &inputs, &options, &keys, None, 5)
            .expect("the schedule runs")
    };
    let want = bits(&walk(1).outputs);
    let reports = thread::scope(|scope| {
        let other = scope.spawn(|| walk(4));
        let mine = walk(4);
        [mine, other.join().expect("the other walk ends")]
    });
    for report in &reports {
        assert_eq!(bits(&report.outputs), want, "a width-4 walk's bytes");
        assert!(
            report.workers >= 1 && report.workers <= 1 + default_runners(),
            "{} runners against a budget of {} helpers",
            report.workers,
            default_runners()
        );
    }
}
