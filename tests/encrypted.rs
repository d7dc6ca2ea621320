//! Real-encryption integration: compile benchmarks with each compiler and
//! execute them on the `fhe-ckks` backend ([`execute_encrypted`], the plain
//! walk), checking the decrypted outputs against the plaintext reference
//! the report carries via the shared [`outputs_close`] diff helper.

use fhe_reserve::prelude::*;

/// The serial backend at `N = poly_degree` (the program must have `N/2`
/// slots).
fn backend(poly_degree: usize, seed: u64) -> ExecOptions {
    ExecOptions {
        poly_degree,
        seed,
        threads: 1,
        ..ExecOptions::default()
    }
}

fn with_output_reserve(waterline: u32, bits: u32) -> CompileParams {
    let mut params = CompileParams::new(waterline);
    params.output_reserve_bits = bits;
    params
}

#[test]
fn encrypted_sobel_matches_reference() {
    // An 8×8 image is 64 slots, so the backend degree is N = 128.
    let program = fhe_reserve::workloads::image::sobel(8);
    let inputs = fhe_reserve::workloads::image::image_inputs(8, 5);
    let compiled = ReserveCompiler::full()
        .compile(&program, &with_output_reserve(30, 4))
        .unwrap();
    let run = execute_encrypted(&compiled.scheduled, &inputs, &backend(128, 1)).unwrap();
    outputs_close(&run.outputs, &run.reference, 1e-2)
        .unwrap_or_else(|e| panic!("sobel encrypted: {e}"));
}

#[test]
fn encrypted_linear_regression_trains() {
    let n = 128;
    let program = fhe_reserve::workloads::regression::linear(n, 2);
    let inputs = fhe_reserve::workloads::regression::linear_inputs(n, 21);
    let compiled = ReserveCompiler::full()
        .compile(&program, &with_output_reserve(35, 4))
        .unwrap();
    let run = execute_encrypted(&compiled.scheduled, &inputs, &backend(256, 99)).unwrap();
    outputs_close(&run.outputs, &run.reference, 1e-2)
        .unwrap_or_else(|e| panic!("regression encrypted: {e}"));
    // The decrypted weight must match the plaintext-trained weight.
    assert!((run.outputs[0][0] - run.reference[0][0]).abs() < 1e-2);
    assert!(run.reference[0][0] > 0.0, "training moved the weight");
}

#[test]
fn encrypted_execution_agrees_across_compilers() {
    // The same program compiled by EVA, Hecate, and the reserve compiler
    // must decrypt to the same values (modulo noise) — all three driven
    // through the ScaleCompiler trait, executed by the same backend.
    let n = 128;
    let program = fhe_reserve::workloads::mlp::mlp(n, 4, 3);
    let inputs = fhe_reserve::workloads::mlp::mlp_inputs(n, 3);
    // Only the reserve compiler consumes `output_reserve_bits`; EVA and
    // Hecate ignore it, so one params value serves all three.
    let mut params = CompileParams::new(30);
    params.output_reserve_bits = 2;

    let compilers: Vec<Box<dyn ScaleCompiler>> = vec![
        Box::new(EvaCompiler),
        Box::new(HecateCompiler {
            max_iterations: 60,
            patience: 60,
            seed: 2,
        }),
        Box::new(ReserveCompiler::full()),
    ];
    let mut outs = Vec::new();
    for c in &compilers {
        let compiled = c.compile(&program, &params).unwrap();
        let run = execute_encrypted(&compiled.scheduled, &inputs, &backend(256, 99)).unwrap();
        outputs_close(&run.outputs, &run.reference, 1e-2)
            .unwrap_or_else(|e| panic!("{}: {e}", c.name()));
        outs.push(run.outputs);
    }
    for other in &outs[1..] {
        outputs_close(other, &outs[0], 2e-2)
            .unwrap_or_else(|e| panic!("compilers disagree under encryption: {e}"));
    }
}

#[test]
fn encrypted_tiny_lenet_runs_all_eleven_levels() {
    let cfg = fhe_reserve::workloads::lenet::LenetConfig::tiny(128);
    let program = fhe_reserve::workloads::lenet::build(&cfg);
    let inputs = fhe_reserve::workloads::lenet::lenet_inputs(&cfg, 13);
    // Depth 11 with a large waterline keeps levels deep — the heaviest
    // encrypted test in the suite.
    let compiled = ReserveCompiler::full()
        .compile(&program, &with_output_reserve(30, 4))
        .unwrap();
    let run = execute_encrypted(&compiled.scheduled, &inputs, &backend(256, 4)).unwrap();
    outputs_close(&run.outputs, &run.reference, 0.05)
        .unwrap_or_else(|e| panic!("lenet encrypted: {e}"));
    assert!(run.ops_executed > 100);
}

#[test]
fn encrypted_run_evaluates_plain_sub_expressions_in_the_clear() {
    // Every compiler's cleanup folds plain-only arithmetic into constants,
    // so only a hand-written schedule makes the executor's prologue evaluate
    // it: a rotated constant vector and a constant × constant product, each
    // feeding a cipher op. (No other encrypted case has an `Op::Rotate` — or
    // any arithmetic — on a plain value.)
    use fhe_reserve::ir::{InputSpec, Op};
    let slots = 64;
    let ramp: Vec<f64> = (0..slots).map(|i| i as f64 / slots as f64).collect();
    let mut p = Program::new("plain-subexpr", slots);
    let x = p.push(Op::Input { name: "x".into() });
    let c = p.push(Op::Const {
        value: ramp.clone().into(),
    });
    let rotated = p.push(Op::Rotate(c, 3));
    let half = p.push(Op::Const { value: 0.5.into() });
    let product = p.push(Op::Mul(half, c));
    let scaled = p.push(Op::Mul(x, rotated));
    let sum = p.push(Op::Add(scaled, product));
    p.set_outputs(vec![sum]);
    let scheduled = ScheduledProgram {
        program: p,
        params: CompileParams::new(30),
        inputs: vec![InputSpec {
            scale_bits: 30.into(),
            level: 2,
        }],
    };
    scheduled.validate().expect("legal by hand");

    let xs: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.3).sin()).collect();
    let inputs = [("x".to_string(), xs.clone())].into_iter().collect();
    let run = execute_encrypted(&scheduled, &inputs, &backend(2 * slots, 6)).unwrap();
    let expected: Vec<f64> = (0..slots)
        .map(|i| xs[i] * ramp[(i + 3) % slots] + 0.5 * ramp[i])
        .collect();
    assert_eq!(run.reference, vec![expected], "the interpreter's answer");
    outputs_close(&run.outputs, &run.reference, 1e-4)
        .unwrap_or_else(|e| panic!("plain sub-expressions: {e}"));
}
