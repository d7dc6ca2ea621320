//! Quickstart: write an FHE program, compile it with the reserve compiler,
//! and run it three ways — in the clear, on the noise simulator, and under
//! real RNS-CKKS encryption.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;

use fhe_reserve::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write the paper's running example x³·(y² + y) with plain operators.
    //    128 slots = one ciphertext holds 128 values (SIMD).
    let slots = 128;
    let b = Builder::new("quickstart", slots);
    let x = b.input("x");
    let y = b.input("y");
    let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
    let program = b.finish(vec![q]);
    println!(
        "source program:\n{}",
        fhe_reserve::ir::text::print(&program)
    );

    // 2. Compile: the reserve analysis assigns scales/levels and inserts all
    //    rescale/modswitch/upscale operations.
    let mut params = CompileParams::new(30); // waterline 2^30
    params.output_reserve_bits = 4; // headroom for outputs up to 2^4
    let compiled = ReserveCompiler::full().compile(&program, &params)?;
    println!(
        "compiled program:\n{}",
        fhe_reserve::ir::text::print(&compiled.scheduled.program)
    );
    println!(
        "scale management took {:?}; estimated latency {:.1} ms at level {}",
        compiled.report.scale_management_time,
        compiled.report.estimated_latency_us / 1000.0,
        compiled.report.max_level
    );

    // 3. Bind inputs.
    let mut inputs = HashMap::new();
    inputs.insert(
        "x".to_string(),
        (0..slots).map(|i| (i as f64 * 0.1).sin()).collect(),
    );
    inputs.insert(
        "y".to_string(),
        (0..slots).map(|i| (i as f64 * 0.05).cos()).collect(),
    );

    // 4a. Reference run in the clear.
    let reference = plain::execute(&compiled.scheduled.program, &inputs);

    // 4b. Noise simulation (fast, models CKKS noise).
    let noisy = simulate(&compiled.scheduled, &inputs, &NoiseModel::default()).unwrap();
    println!(
        "noise-simulated max error: {:.3e}",
        plain::max_abs_diff(&noisy, &reference)
    );

    // 4c. Real encrypted execution (N = 256 so N/2 slots match the program).
    let report = execute_encrypted(
        &compiled.scheduled,
        &inputs,
        &ExecOptions {
            poly_degree: 2 * slots,
            seed: 42,
            threads: 1,
            ..ExecOptions::default()
        },
    )
    .unwrap();
    let error = plain::max_abs_diff(&report.outputs, &reference);
    println!(
        "encrypted run: {} homomorphic ops in {:?} (total {:?}), max error {error:.3e}",
        report.ops_executed, report.op_time, report.total_time,
    );
    println!(
        "slot 3: plaintext {:.6}, decrypted {:.6}",
        reference[0][3], report.outputs[0][3]
    );
    assert!(error < 1e-2);
    Ok(())
}
