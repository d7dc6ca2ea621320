//! Encrypted Sobel edge detection, comparing the three compilers.
//!
//! Builds the paper's SF benchmark on a 16×16 image, compiles it with EVA,
//! Hecate and the reserve compiler, prints their scale-management plans and
//! estimated latencies, and runs the reserve plan under real encryption.
//!
//! ```sh
//! cargo run --example sobel_filter --release
//! ```

#![forbid(unsafe_code)]

use fhe_reserve::prelude::*;
use fhe_reserve::{runtime, workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let width = 16; // 256 pixels packed in one ciphertext
    let program = workloads::image::sobel(width);
    let inputs = workloads::image::image_inputs(width, 7);
    let params = CompileParams::new(25);
    let cost = CostModel::paper_table3();

    // EVA: conservative forward analysis.
    let eva = EvaCompiler.compile(&program, &params)?;
    // Hecate: exploration (bounded here for demo purposes).
    let explorer = HecateCompiler {
        max_iterations: 1500,
        patience: 500,
        seed: 1,
    };
    let hecate = explorer.compile(&program, &params)?;
    // This work: reserve analysis.
    let mut ours_params = params;
    ours_params.output_reserve_bits = 4;
    let ours = ReserveCompiler::full().compile(&program, &ours_params)?;

    println!("compiler   est. latency   scale mgmt time   rescale/modswitch/upscale");
    for (name, sched, us, time) in [
        (
            "EVA",
            &eva.scheduled,
            eva.report.estimated_latency_us,
            eva.report.scale_management_time,
        ),
        (
            "Hecate",
            &hecate.scheduled,
            hecate.report.estimated_latency_us,
            hecate.report.scale_management_time,
        ),
        (
            "reserve",
            &ours.scheduled,
            ours.report.estimated_latency_us,
            ours.report.scale_management_time,
        ),
    ] {
        let (rs, ms, us_ops) = sched.scale_management_counts();
        println!(
            "{name:<10} {:>9.1} ms {:>15.3?}   {rs}/{ms}/{us_ops}",
            us / 1000.0,
            time
        );
        let _ = cost.at_level(fhe_reserve::ir::OpClass::Rotate, 1);
    }
    println!(
        "hecate explored {} candidate plans; the reserve compiler none.",
        hecate.report.iterations
    );

    // Run the reserve plan under real encryption.
    let report = runtime::execute_encrypted(
        &ours.scheduled,
        &inputs,
        &runtime::ExecOptions {
            poly_degree: 2 * width * width,
            seed: 3,
            threads: 1,
            ..runtime::ExecOptions::default()
        },
    )
    .unwrap();
    let reference = plain::execute(&ours.scheduled.program, &inputs);
    println!(
        "encrypted sobel: {} ops, wall-clock {:?}, max error {:.3e}",
        report.ops_executed,
        report.op_time,
        plain::max_abs_diff(&report.outputs, &reference)
    );
    // Show a few edge magnitudes.
    for i in [17, 18, 19] {
        println!(
            "pixel {i}: |∇I|² plaintext {:.5}, decrypted {:.5}",
            reference[0][i], report.outputs[0][i]
        );
    }
    Ok(())
}
