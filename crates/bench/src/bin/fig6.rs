//! Fig. 6: estimated program latency of EVA, Hecate and this work for
//! waterline parameters 15–50, per benchmark (seconds, Table 3 cost model).
//!
//! `--fast` uses reduced benchmarks and exploration budgets; `--json <path>`
//! additionally writes every series point with its full compile report.

#![forbid(unsafe_code)]

use fhe_bench::{
    compile_all, hecate_budget, print_table, report_json, standard_compilers, CliArgs,
};
use fhe_ir::json::Json;

fn main() {
    let args = CliArgs::parse();
    let waterlines: Vec<u32> = (15..=50).step_by(5).collect();
    let suite = fhe_bench::selected_suite(&args);
    let names: Vec<String> = standard_compilers(1)
        .iter()
        .map(|c| c.name().to_string())
        .collect();

    println!("Fig. 6: Latency (s) of EVA, Hecate, and this work for waterlines 15-50.\n");
    let mut improvement_over_eva = Vec::new();
    let mut vs_hecate = Vec::new();
    let mut json_benchmarks = Vec::new();
    for w in &suite {
        eprintln!("sweeping {} ...", w.name);
        // Sweeps multiply Hecate's cost by the point count; cap the budget
        // to keep the harness to minutes.
        let budget = hecate_budget(&args, w.program.num_ops()).min(2000);
        // The eight waterline points are independent; sweep them on scoped
        // threads (latency here is *estimated*, so parallelism cannot skew
        // the results the way it would for wall-clock measurements).
        let points: Vec<Vec<fhe_ir::pipeline::Compiled>> = std::thread::scope(|scope| {
            let handles: Vec<_> = waterlines
                .iter()
                .map(|&wl| {
                    let program = &w.program;
                    scope.spawn(move || compile_all(&standard_compilers(budget), program, wl))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep thread"))
                .collect()
        });

        let mut headers: Vec<&str> = vec!["W"];
        headers.extend(names.iter().map(String::as_str));
        headers.push("vs EVA");
        let mut rows = Vec::new();
        let mut json_points = Vec::new();
        for (&wl, outs) in waterlines.iter().zip(&points) {
            // By standard_compilers convention: EVA first, this work last.
            let eva = outs[0].report.estimated_latency_us;
            let hec = outs[1].report.estimated_latency_us;
            let ours = outs.last().expect("nonempty").report.estimated_latency_us;
            improvement_over_eva.push(ours / eva);
            vs_hecate.push(ours / hec);
            let mut row = vec![wl.to_string()];
            row.extend(
                outs.iter()
                    .map(|o| format!("{:.3}", o.report.estimated_latency_us / 1e6)),
            );
            row.push(format!("{:+.1}%", (ours / eva - 1.0) * 100.0));
            rows.push(row);
            json_points.push(Json::obj([
                ("waterline", Json::from(wl)),
                (
                    "reports",
                    Json::Array(outs.iter().map(|o| report_json(&o.report)).collect()),
                ),
            ]));
        }
        println!("({})", w.name);
        print_table(&headers, &rows);
        println!();
        json_benchmarks.push(Json::obj([
            ("benchmark", Json::from(w.name)),
            ("points", Json::Array(json_points)),
        ]));
    }
    let geo = fhe_bench::geomean(&improvement_over_eva);
    let geo_h = fhe_bench::geomean(&vs_hecate);
    println!(
        "geomean latency vs EVA: {:.3} ({:.1}% faster; paper reports 41.8% improvement)",
        geo,
        (1.0 - geo) * 100.0
    );
    println!("geomean latency vs Hecate: {geo_h:.3} (paper: similar performance)");
    args.emit_json(&Json::obj([
        ("figure", Json::from("fig6")),
        ("geomean_vs_eva", Json::from(geo)),
        ("geomean_vs_hecate", Json::from(geo_h)),
        ("benchmarks", Json::Array(json_benchmarks)),
    ]));
}
