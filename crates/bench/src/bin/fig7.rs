//! Fig. 7: output error (log₂ of the max absolute error) of EVA, Hecate and
//! this work at waterlines 2^20 and 2^40, measured with the noise-injection
//! simulator on each benchmark's synthetic inputs.
//!
//! Expected shape (paper §8.2): errors at W=2^40 are far below W=2^20, and
//! this work's errors are at or below the baselines' because the reserve
//! analysis does not unnecessarily minimize scales.

#![forbid(unsafe_code)]

use fhe_bench::{compile_all, hecate_budget, print_table, standard_compilers, CliArgs};
use fhe_runtime::{plain, simulate, NoiseModel};

fn main() {
    let args = CliArgs::parse();
    let suite = fhe_bench::selected_suite(&args);
    let names: Vec<String> = standard_compilers(1)
        .iter()
        .map(|c| c.name().to_string())
        .collect();
    // Compilation leaves the clear values bit-identical, so the source
    // program's one plaintext run is every schedule's reference.
    let references: Vec<_> = (suite.iter())
        .map(|w| plain::execute(&w.program, &w.inputs))
        .collect();

    for waterline in [20u32, 40] {
        println!(
            "Fig. 7{}: error (log2) at waterline 2^{waterline}.\n",
            if waterline == 20 { "a" } else { "b" }
        );
        let mut headers = vec!["Benchmark"];
        headers.extend(names.iter().map(String::as_str));
        let mut rows = Vec::new();
        for (w, reference) in suite.iter().zip(&references) {
            eprintln!("simulating {} at W=2^{waterline} ...", w.name);
            // Sweeps multiply Hecate's cost by the number of points; cap the
            // exploration budget to keep the harness under a few minutes.
            let budget = hecate_budget(&args, w.program.num_ops()).min(2000);
            let outs = compile_all(&standard_compilers(budget), &w.program, waterline);
            let mut row = vec![w.name.to_string()];
            for out in &outs {
                let noisy = simulate(&out.scheduled, &w.inputs, &NoiseModel::default())
                    .expect("schedules validate");
                let error = plain::max_abs_diff(&noisy, reference);
                row.push(format!("{:.1}", error.max(f64::MIN_POSITIVE).log2()));
            }
            rows.push(row);
        }
        print_table(&headers, &rows);
        println!();
    }
    println!("(lower is better; paper Fig. 7 reports this work at or below the baselines,");
    println!(" with every error dropping by ~20 log2 units from W=2^20 to W=2^40)");
}
