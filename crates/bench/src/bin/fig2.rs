//! Fig. 2: the worked example `x³ · (y² + y)` at waterline 2^20 — EVA's
//! conservative plan vs the reserve analysis (step 1) vs reserve analysis +
//! rescale hoisting (step 2). Costs in hundreds of µs, as in the figure.

#![forbid(unsafe_code)]

use fhe_bench::print_table;
use fhe_ir::pipeline::ScaleCompiler;
use fhe_ir::{Builder, CompileParams};
use reserve_core::{Mode, ReserveCompiler};

fn main() {
    let b = Builder::new("fig2a", 8);
    let x = b.input("x");
    let y = b.input("y");
    let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
    let program = b.finish(vec![q]);
    let params = CompileParams::new(20);

    println!("Fig. 2: scale management plans for x^3 * (y^2 + y), W = 2^20, R = 2^60.\n");
    // The figure's plan ladder plus Hecate, each with the paper's reported
    // cost where the figure gives one.
    let plans: Vec<(&str, Box<dyn ScaleCompiler>, &str)> = vec![
        ("EVA (Fig. 2b)", Box::new(fhe_baselines::EvaCompiler), "390"),
        (
            "Reserve analysis (Fig. 2c)",
            Box::new(ReserveCompiler::with_mode(Mode::Ra)),
            "353",
        ),
        (
            "+ rescale hoisting (Fig. 2d)",
            Box::new(ReserveCompiler::full()),
            "335",
        ),
        (
            "Hecate (exploration)",
            Box::new(fhe_baselines::HecateCompiler::with_budget(2000)),
            "-",
        ),
    ];

    let outs: Vec<_> = plans
        .iter()
        .map(|(name, c, _)| {
            c.compile(&program, &params)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect();

    let headers = [
        "Plan",
        "Cost (x100us)",
        "Paper",
        "Rescales",
        "Upscales",
        "Modswitches",
    ];
    let rows: Vec<Vec<String>> = plans
        .iter()
        .zip(&outs)
        .map(|((name, _, paper), out)| {
            let (rs, ms, us) = out.scheduled.scale_management_counts();
            vec![
                name.to_string(),
                format!("{:.1}", out.report.estimated_latency_us / 100.0),
                paper.to_string(),
                rs.to_string(),
                us.to_string(),
                ms.to_string(),
            ]
        })
        .collect();
    print_table(&headers, &rows);

    let (eva, ra, full) = (&outs[0].report, &outs[1].report, &outs[2].report);
    println!("\nThe reserve plan (this work):");
    println!("{}", fhe_ir::text::print(&outs[2].scheduled.program));
    println!(
        "Per-pass trace of the winning plan:\n{}",
        full.trace.summary()
    );
    assert!(
        full.estimated_latency_us < ra.estimated_latency_us
            && ra.estimated_latency_us < eva.estimated_latency_us
    );
}
