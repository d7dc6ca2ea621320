//! Table 3: latency of RNS-CKKS operations for levels 1 to 5 (µs),
//! measured on this repository's `fhe-ckks` backend.
//!
//! Default parameters use `N = 2^13` so the table finishes in seconds;
//! `--paper` switches to the paper's `N = 2^15`, `R = 2^60` (minutes in
//! this pure-Rust backend). The reproduction target is the *shape*: latency
//! grows with level, and `mul cc ≫ rotate ≫ rescale ≫ mul cp ≫ adds ≫
//! modswitch`, as in the paper. `--json <path>` writes the measured matrix.

#![forbid(unsafe_code)]

use fhe_bench::{print_table, standard_compilers, CliArgs};
use fhe_ckks::CkksParams;
use fhe_ir::json::Json;
use fhe_ir::CostModel;
use fhe_runtime::microbench;
use fhe_workloads::Size;

fn main() {
    let args = CliArgs::parse();
    let levels = 5usize;
    let params = if args.paper {
        CkksParams {
            poly_degree: 1 << 15,
            max_level: levels + 1,
            ..CkksParams::paper_eval(levels + 1)
        }
    } else {
        CkksParams {
            poly_degree: 1 << 13,
            max_level: levels + 1,
            modulus_bits: 50,
            special_bits: 51,
            error_std: 3.2,
            threads: 1,
        }
    };
    let reps = if args.fast { 1 } else { 3 };
    let poly_degree = params.poly_degree;
    eprintln!(
        "measuring N=2^{}, {} levels, {} reps (this is real encrypted computation)...",
        params.poly_degree.trailing_zeros(),
        levels,
        reps
    );
    let rows = microbench::measure(params, levels, reps, 0xBEEF);

    println!("Table 3: Latency of RNS-CKKS operations for level 1 to 5 (us).");
    println!("(measured on fhe-ckks; paper's reference values in EXPERIMENTS.md)\n");
    let headers: Vec<&str> = ["Op", "1", "2", "3", "4", "5"][..levels + 1].to_vec();
    let mut table = Vec::new();
    // Paper's row order: cheapest first.
    let mut sorted = rows.clone();
    sorted.sort_by(|a, b| a.1[0].partial_cmp(&b.1[0]).expect("finite"));
    for (class, lat) in &sorted {
        let mut row = vec![class.name().to_string()];
        row.extend(lat.iter().map(|v| format!("{v:.0}")));
        table.push(row);
    }
    print_table(&headers, &table);

    // Critical-path profile of the golden workloads under the measured
    // (not paper) cost model: what the depgraph analyzer predicts a
    // DAG-parallel executor could reach on *this* machine.
    let calibrated = CostModel::from_rows(rows.clone());
    let ours = &standard_compilers(1)[2];
    let mut cp_rows = Vec::new();
    let mut cp_json = Vec::new();
    println!("\nCritical path under the measured cost model (this work's schedules):");
    for w in &fhe_workloads::suite(Size::Test) {
        let Ok(out) = ours.compile(&w.program, &fhe_ir::CompileParams::new(30)) else {
            continue;
        };
        let map = out
            .scheduled
            .validate()
            .expect("compiled schedules validate");
        let est = fhe_ir::DepGraph::build(&out.scheduled, &map, &calibrated, true).estimate();
        cp_rows.push(vec![
            w.name.to_string(),
            format!("{:.0}", est.work_us),
            format!("{:.0}", est.span_us),
            format!("{:.2}x", est.parallelism()),
            est.max_width.to_string(),
        ]);
        cp_json.push(Json::obj([
            ("benchmark", Json::from(w.name)),
            ("work_us", Json::from(est.work_us)),
            ("critical_path_us", Json::from(est.span_us)),
            ("max_width", Json::from(est.max_width)),
        ]));
    }
    print_table(
        &["Benchmark", "Work (us)", "CP (us)", "Parallelism", "Width"],
        &cp_rows,
    );

    // Shape checks mirroring the paper's ordering claims.
    let get = |name: &str| -> &Vec<f64> {
        &rows
            .iter()
            .find(|(c, _)| c.name() == name)
            .expect("present")
            .1
    };
    let mul = get("cipher x cipher");
    let rot = get("rotate (cipher)");
    let rs = get("rescale (cipher)");
    assert!(
        mul[levels - 1] > rot[levels - 1] * 0.5,
        "mul and rotate dominate"
    );
    assert!(rot[0] > rs[0], "rotate > rescale at level 1");
    assert!(mul[levels - 1] > mul[0] * 2.0, "mul grows with level");
    println!("\nshape check passed: cost grows with level; mul/rotate dominate.");

    args.emit_json(&Json::obj([
        ("table", Json::from("table3")),
        ("poly_degree", Json::from(poly_degree)),
        ("levels", Json::from(levels)),
        ("reps", Json::from(reps)),
        (
            "ops",
            Json::Array(
                rows.iter()
                    .map(|(class, lat)| {
                        Json::obj([
                            ("op", Json::from(class.name())),
                            (
                                "latency_us",
                                Json::Array(lat.iter().map(|&v| Json::from(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("critical_path", Json::Array(cp_json)),
    ]));
}
