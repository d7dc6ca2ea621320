//! Table 4: compile time and scale-management time of EVA, Hecate and this
//! work on the eight benchmarks (speedups over Hecate).
//!
//! `--fast` runs reduced benchmark sizes and exploration budgets;
//! `--json <path>` writes every compile report including per-pass traces.

#![forbid(unsafe_code)]

use fhe_bench::{
    compile_all, diagnostics_cell, fmt_ms, geomean, hecate_budget, print_table, report_json,
    standard_compilers, CliArgs,
};
use fhe_ir::json::Json;

fn main() {
    let args = CliArgs::parse();
    let waterline = 30;
    let suite = fhe_bench::selected_suite(&args);

    println!("Table 4: Compile time of EVA, Hecate, and this work (W = 2^{waterline}).\n");
    let headers = [
        "Benchmark",
        "# Ops",
        "# Iters",
        "EVA (ms)",
        "Hecate (ms)",
        "This work (ms)",
        "Speedup",
        "EVA SM (ms)",
        "Hecate SM (ms)",
        "This work SM (ms)",
        "SM Speedup",
        "CP (us)",
        "Width",
        "Lint/TV (EVA|Hec|ours)",
    ];
    let mut rows = Vec::new();
    let mut total_speedups = Vec::new();
    let mut sm_speedups = Vec::new();
    let mut json_rows = Vec::new();
    for w in &suite {
        eprintln!("compiling {} ({} ops)...", w.name, w.program.num_ops());
        let budget = hecate_budget(&args, w.program.num_ops());
        let outs = compile_all(&standard_compilers(budget), &w.program, waterline);
        // By standard_compilers convention: EVA first, this work last.
        let (eva, hec, ours) = (&outs[0].report, &outs[1].report, &outs[2].report);
        let speedup = hec.total_time.as_secs_f64() / ours.total_time.as_secs_f64();
        let sm_speedup =
            hec.scale_management_time.as_secs_f64() / ours.scale_management_time.as_secs_f64();
        total_speedups.push(speedup);
        sm_speedups.push(sm_speedup);
        rows.push(vec![
            w.name.to_string(),
            w.program.num_ops().to_string(),
            hec.iterations.to_string(),
            fmt_ms(eva.total_time),
            fmt_ms(hec.total_time),
            fmt_ms(ours.total_time),
            format!("{speedup:.2}x"),
            fmt_ms(eva.scale_management_time),
            fmt_ms(hec.scale_management_time),
            fmt_ms(ours.scale_management_time),
            format!("{sm_speedup:.0}x"),
            format!("{:.0}", ours.parallelism.span_us),
            ours.parallelism.max_width.to_string(),
            format!(
                "{} | {} | {}",
                diagnostics_cell(eva),
                diagnostics_cell(hec),
                diagnostics_cell(ours)
            ),
        ]);
        json_rows.push(Json::obj([
            ("benchmark", Json::from(w.name)),
            ("ops", Json::from(w.program.num_ops())),
            ("critical_path_us", Json::from(ours.parallelism.span_us)),
            ("max_width", Json::from(ours.parallelism.max_width)),
            (
                "reports",
                Json::Array(outs.iter().map(|o| report_json(&o.report)).collect()),
            ),
        ]));
    }
    print_table(&headers, &rows);
    let geo_total = geomean(&total_speedups);
    let geo_sm = geomean(&sm_speedups);
    println!(
        "\ngeomean speedup over Hecate: total compile {geo_total:.2}x, scale management {geo_sm:.0}x"
    );
    println!("(paper: 24.44x total, 15526x scale management — with 14763-iteration budgets)");
    args.emit_json(&Json::obj([
        ("table", Json::from("table4")),
        ("waterline", Json::from(waterline)),
        ("geomean_total_speedup", Json::from(geo_total)),
        ("geomean_sm_speedup", Json::from(geo_sm)),
        ("rows", Json::Array(json_rows)),
    ]));
}
