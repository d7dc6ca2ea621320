//! Fig. 8: performance breakdown of the proposed algorithms — BA (backward
//! analysis only), RA (+ reserve redistribution), and this work (+ rescale
//! hoisting) — normalized by BA, at waterlines 2^20 and 2^40.
//!
//! Expected shape (paper §8.3): redistribution (RA) helps benchmarks with
//! ciphertext×ciphertext products of *distinct* values (it cannot help
//! squarings, the bulk of the DL benchmarks); hoisting helps benchmarks
//! with external summations (image kernels, NNs) and not the rotation-heavy
//! internal summations of the regressions.
//!
//! `--json <path>` writes every (waterline, benchmark, mode) compile report.

#![forbid(unsafe_code)]

use fhe_bench::{ablation_compilers, compile_all, geomean, print_table, report_json, CliArgs};
use fhe_ir::json::Json;

fn main() {
    let args = CliArgs::parse();
    let suite = fhe_bench::selected_suite(&args);
    let compilers = ablation_compilers();
    let names: Vec<String> = compilers.iter().map(|c| c.name().to_string()).collect();

    let mut json_sweeps = Vec::new();
    for waterline in [20u32, 40] {
        println!(
            "Fig. 8{}: latency normalized by BA, waterline 2^{waterline}.\n",
            if waterline == 20 { "a" } else { "b" }
        );
        let mut headers = vec!["Benchmark"];
        headers.extend(names.iter().map(String::as_str));
        let mut rows = Vec::new();
        let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); compilers.len()];
        let mut json_rows = Vec::new();
        for w in &suite {
            eprintln!("ablating {} at W=2^{waterline} ...", w.name);
            let outs = compile_all(&compilers, &w.program, waterline);
            // By ablation_compilers convention the first entry (BA) is the
            // normalization baseline.
            let base = outs[0].report.estimated_latency_us;
            let mut row = vec![w.name.to_string()];
            for (i, out) in outs.iter().enumerate() {
                let r = out.report.estimated_latency_us / base;
                ratios[i].push(r);
                row.push(format!("{r:.3}"));
            }
            rows.push(row);
            json_rows.push(Json::obj([
                ("benchmark", Json::from(w.name)),
                (
                    "reports",
                    Json::Array(outs.iter().map(|o| report_json(&o.report)).collect()),
                ),
            ]));
        }
        let mut gmean_row = vec!["GMean".to_string()];
        gmean_row.extend(ratios.iter().map(|r| format!("{:.3}", geomean(r))));
        rows.push(gmean_row);
        print_table(&headers, &rows);
        println!();
        json_sweeps.push(Json::obj([
            ("waterline", Json::from(waterline)),
            (
                "geomeans",
                Json::Array(ratios.iter().map(|r| Json::from(geomean(r))).collect()),
            ),
            ("rows", Json::Array(json_rows)),
        ]));
    }
    println!("(paper: RA and this work achieve 9.1%/11.6% speedup over BA at W=2^20");
    println!(" and 7.4%/19.6% at W=2^40)");
    args.emit_json(&Json::obj([
        ("figure", Json::from("fig8")),
        (
            "modes",
            Json::Array(names.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
        ("sweeps", Json::Array(json_sweeps)),
    ]));
}
