//! Real-encryption integration: compile benchmarks with each compiler and
//! execute them on the `fhe-ckks` backend through the unified [`Executor`]
//! interface, checking the decrypted outputs against the plaintext
//! reference via the shared [`outputs_close`] diff helper.

use fhe_reserve::prelude::*;
use fhe_reserve::runtime::{ExecOptions, ParOptions};

fn exec() -> CkksExec {
    // 256 slots = N/2 for N = 512: matches the Size::Test LeNet slot count.
    CkksExec {
        options: ParOptions::plain_walk(ExecOptions {
            poly_degree: 256,
            seed: 99,
            threads: 1,
            ..ExecOptions::default()
        }),
    }
}

fn with_output_reserve(waterline: u32, bits: u32) -> Options {
    let mut o = Options::new(waterline);
    o.params.output_reserve_bits = bits;
    o
}

#[test]
fn encrypted_sobel_matches_reference() {
    // An 8×8 image is 64 slots, so the backend degree is N = 128.
    let program = fhe_reserve::workloads::image::sobel(8);
    let ckks = CkksExec {
        options: ParOptions::plain_walk(ExecOptions {
            poly_degree: 128,
            seed: 1,
            threads: 1,
            ..ExecOptions::default()
        }),
    };
    let inputs = fhe_reserve::workloads::image::image_inputs(8, 5);
    let compiled = compile(&program, &with_output_reserve(30, 4)).unwrap();
    let run = ckks.execute(&compiled.scheduled, &inputs).unwrap();
    outputs_close(&run.outputs, &run.reference, 1e-2)
        .unwrap_or_else(|e| panic!("sobel encrypted: {e}"));
}

#[test]
fn encrypted_linear_regression_trains() {
    let n = 128;
    let program = fhe_reserve::workloads::regression::linear(n, 2);
    let inputs = fhe_reserve::workloads::regression::linear_inputs(n, 21);
    let compiled = compile(&program, &with_output_reserve(35, 4)).unwrap();
    let run = exec().execute(&compiled.scheduled, &inputs).unwrap();
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
            options: HecateOptions {
                max_iterations: 60,
                patience: 60,
                seed: 2,
            },
        }),
        Box::new(ReserveCompiler::full()),
    ];
    let mut outs = Vec::new();
    for c in &compilers {
        let compiled = c.compile(&program, &params).unwrap();
        let run = exec().execute(&compiled.scheduled, &inputs).unwrap();
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
    let compiled = compile(&program, &with_output_reserve(30, 4)).unwrap();
    let ckks = CkksExec {
        options: ParOptions::plain_walk(ExecOptions {
            poly_degree: 256,
            seed: 4,
            threads: 1,
            ..ExecOptions::default()
        }),
    };
    let run = ckks.execute(&compiled.scheduled, &inputs).unwrap();
    outputs_close(&run.outputs, &run.reference, 0.05)
        .unwrap_or_else(|e| panic!("lenet encrypted: {e}"));
    assert!(run.trace.ops_executed > 100);
}
