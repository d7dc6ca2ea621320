//! Privacy-preserving linear-regression training: two epochs of batch
//! gradient descent over encrypted samples, with the trained weights
//! decrypted at the end.
//!
//! ```sh
//! cargo run --example regression_training --release
//! ```

#![forbid(unsafe_code)]

use fhe_reserve::prelude::*;
use fhe_reserve::{runtime, workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 512; // samples, packed in one ciphertext
    let epochs = 2;
    let program = workloads::regression::linear(n, epochs);
    let inputs = workloads::regression::linear_inputs(n, 1234);
    println!(
        "linear regression: {} samples, {} epochs, {} ops, depth {}",
        n,
        epochs,
        program.num_ops(),
        fhe_reserve::ir::analysis::circuit_depth(&program)
    );

    let mut params = CompileParams::new(35);
    params.output_reserve_bits = 4;
    let compiled = ReserveCompiler::full().compile(&program, &params)?;
    println!(
        "compiled to {} ops at level {} (estimated {:.1} ms)",
        compiled.report.ops_after,
        compiled.report.max_level,
        compiled.report.estimated_latency_us / 1000.0
    );

    let report = runtime::execute_encrypted(
        &compiled.scheduled,
        &inputs,
        &runtime::ExecOptions {
            poly_degree: 2 * n,
            seed: 77,
            threads: 1,
            ..runtime::ExecOptions::default()
        },
    )
    .unwrap();

    // The data was generated from y ≈ 0.7·x + 0.2 (plus noise); two GD
    // steps with lr = 0.1 move the encrypted model towards it.
    let w = report.outputs[0][0];
    let b = report.outputs[1][0];
    println!("trained (encrypted) model: w = {w:.4}, b = {b:.4}  [truth: 0.7, 0.2]");
    let reference = plain::execute(&compiled.scheduled.program, &inputs);
    let error = plain::max_abs_diff(&report.outputs, &reference);
    println!(
        "plaintext training agrees: w = {:.4}, b = {:.4} (max error {error:.2e})",
        reference[0][0], reference[1][0],
    );
    assert!(error < 1e-2);
    assert!(w > 0.0 && b > 0.0);
    Ok(())
}
