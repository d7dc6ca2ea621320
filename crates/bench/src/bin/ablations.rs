//! Extra ablations beyond the paper's Fig. 8:
//!
//! 1. **Allocation ordering** (§6.1): the cost-prioritized order vs a naive
//!    reverse-topological order — quantifies how much prioritizing heavy
//!    chains contributes to the final plan.
//! 2. **Static error bounds**: the closed-form worst-case error estimate
//!    (an ELASM-direction extension) next to the simulated error.

#![forbid(unsafe_code)]

use fhe_analysis::NoiseDomain;
use fhe_bench::{print_table, CliArgs};
use fhe_ir::pipeline::ScaleCompiler;
use fhe_ir::CompileParams;
use fhe_runtime::{plain, simulate, NoiseModel};
use reserve_core::{OrderingStrategy, ReserveCompiler};

fn main() {
    let args = CliArgs::parse();
    let suite = fhe_bench::selected_suite(&args);
    let waterline = 20;
    let params = CompileParams::new(waterline);

    println!("Ablation A: allocation ordering (latency, ms, W = 2^{waterline}).\n");
    // Both variants are full reserve pipelines differing only in visit
    // order — driven through the same ScaleCompiler interface as the
    // paper's comparisons.
    let naive_compiler = ReserveCompiler {
        ordering: OrderingStrategy::ReverseTopological,
        ..ReserveCompiler::full()
    };
    let paper_compiler = ReserveCompiler::full();
    let headers = ["Benchmark", "Naive order", "Cost-priority (paper)", "Delta"];
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    // Include the paper's worked example: its redistribution is contended
    // (x³ and y² both want budget from s), so ordering visibly matters.
    let fig2a = {
        let b = fhe_ir::Builder::new("fig2a", 8);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        fhe_workloads::Workload {
            name: "Fig2a",
            program: b.finish(vec![q]),
            inputs: std::collections::HashMap::new(),
        }
    };
    let mut suite_a: Vec<&fhe_workloads::Workload> = vec![&fig2a];
    suite_a.extend(suite.iter());
    for w in suite_a {
        eprintln!("ordering ablation: {} ...", w.name);
        let naive = naive_compiler
            .compile(&w.program, &params)
            .expect("compiles");
        let paper = paper_compiler
            .compile(&w.program, &params)
            .expect("compiles");
        let ratio = paper.report.estimated_latency_us / naive.report.estimated_latency_us;
        ratios.push(ratio);
        rows.push(vec![
            w.name.to_string(),
            format!("{:.1}", naive.report.estimated_latency_us / 1000.0),
            format!("{:.1}", paper.report.estimated_latency_us / 1000.0),
            format!("{:+.1}%", (ratio - 1.0) * 100.0),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "geomean: cost-priority ordering changes latency by {:+.1}%",
        (fhe_bench::geomean(&ratios) - 1.0) * 100.0
    );
    println!("(§6.4: reserve analysis is locally optimal *per order*; the order");
    println!(" changes which local optimum is found, so deltas can go either way)\n");

    println!("Ablation B: static error bound vs simulated error (log2, W = 2^{waterline}).\n");
    let headers = ["Benchmark", "Simulated", "Static bound", "Slack (bits)"];
    let mut rows = Vec::new();
    for w in &suite {
        eprintln!("error ablation: {} ...", w.name);
        let compiled = paper_compiler
            .compile(&w.program, &params)
            .expect("compiles");
        let noisy =
            simulate(&compiled.scheduled, &w.inputs, &NoiseModel::default()).expect("validates");
        let simulated = plain::max_abs_diff(&noisy, &plain::execute(&w.program, &w.inputs))
            .max(f64::MIN_POSITIVE)
            .log2();
        let bound = NoiseDomain::default()
            .output_bounds(&compiled.scheduled)
            .expect("validates")
            .iter()
            .fold(f64::MIN_POSITIVE, |a, &b| a.max(b))
            .log2();
        rows.push(vec![
            w.name.to_string(),
            format!("{simulated:.1}"),
            format!("{bound:.1}"),
            format!("{:.1}", bound - simulated),
        ]);
    }
    print_table(&headers, &rows);
    println!("\n(the bound must sit above the simulation; small slack = tight model)");
}
