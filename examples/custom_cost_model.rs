//! Calibrating the compiler's cost model from real backend measurements.
//!
//! The compilers ship with the paper's Table 3 latencies; this example
//! measures this machine's `fhe-ckks` latencies instead, rebuilds the cost
//! model from them, and shows how the calibrated model changes (or
//! confirms) the reserve compiler's plan.
//!
//! ```sh
//! cargo run --example custom_cost_model --release
//! ```

use fhe_reserve::prelude::*;
use fhe_reserve::{ckks, runtime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Measure the real backend (small degree for a fast demo).
    let params = ckks::CkksParams {
        poly_degree: 1 << 11,
        max_level: 5,
        modulus_bits: 45,
        special_bits: 46,
        error_std: 3.2,
        threads: 1,
    };
    println!("measuring backend op latencies (N = 2^11, levels 1-4)...");
    let rows = runtime::microbench::measure(params, 4, 2, 1);
    for (class, lat) in &rows {
        let cells: Vec<String> = lat.iter().map(|v| format!("{v:>8.0}")).collect();
        println!("  {:<20} {} us", class.name(), cells.join(" "));
    }

    // 2. Build a calibrated cost model.
    let calibrated = CostModel::from_rows(rows);

    // 3. Compile a workload under both models and compare the plans.
    let program = fhe_reserve::workloads::image::sobel(16);
    let params = CompileParams::new(25);
    let measured = ReserveCompiler {
        cost_model: calibrated.clone(),
        ..ReserveCompiler::full()
    };

    let with_paper = ReserveCompiler::full().compile(&program, &params)?;
    let with_measured = measured.compile(&program, &params)?;

    let est_ms = |s: &ScheduledProgram, model: &CostModel| {
        model.program_cost(&s.program, &s.validate().unwrap()) / 1000.0
    };
    let paper = CostModel::paper_table3();

    println!(
        "\nplan under paper cost model:      {} ops, {} hoists",
        with_paper.report.ops_after, with_paper.report.hoists
    );
    println!(
        "plan under calibrated cost model: {} ops, {} hoists",
        with_measured.report.ops_after, with_measured.report.hoists
    );
    println!(
        "\nestimated latency (paper model):      {:.1} ms vs {:.1} ms",
        est_ms(&with_paper.scheduled, &paper),
        est_ms(&with_measured.scheduled, &paper)
    );
    println!(
        "estimated latency (calibrated model): {:.1} ms vs {:.1} ms",
        est_ms(&with_paper.scheduled, &calibrated),
        est_ms(&with_measured.scheduled, &calibrated)
    );
    println!("\n(the calibrated-model plan should never be worse under its own model)");
    assert!(
        est_ms(&with_measured.scheduled, &calibrated)
            <= est_ms(&with_paper.scheduled, &calibrated) * 1.05
    );
    Ok(())
}
