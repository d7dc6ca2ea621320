//! # fhe-bench — harnesses reproducing every table and figure of the paper
//!
//! One binary per experiment (see DESIGN.md §5):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table3` | Table 3 — RNS-CKKS op latency per level (measured on `fhe-ckks`) |
//! | `table4` | Table 4 — compile time and scale-management time, EVA/Hecate/this work |
//! | `fig2`   | Fig. 2 — the worked example's cost story |
//! | `fig6`   | Fig. 6 — latency vs waterline (15–50) per benchmark per compiler |
//! | `fig7`   | Fig. 7 — output error at waterlines 2^20 and 2^40 |
//! | `fig8`   | Fig. 8 — ablation BA / RA / this work |
//!
//! Each prints the same rows/series the paper reports. Absolute numbers
//! differ from the paper's SEAL-on-i7 testbed; the *shape* (who wins, by
//! roughly what factor, where crossovers fall) is the reproduction target
//! and is recorded against the paper in EXPERIMENTS.md.
//!
//! Every harness drives the compilers through the workspace-wide
//! [`ScaleCompiler`] trait — the binaries iterate `&[&dyn ScaleCompiler]`
//! and never dispatch on a concrete compiler, so adding a scale-management
//! strategy to the comparison is one [`standard_compilers`] entry.
//! `fig6`/`fig8`/`table3`/`table4` additionally accept `--json <path>` and
//! emit their [`CompileReport`]/trace fields machine-readably
//! ([`fhe_ir::json`]).
//!
//! Two more binaries measure what the paper does not and the repository's
//! `benchmark/` harness does not either: `kernels` (hot paths against the
//! reference kernels they replaced) and `mem` (peak working set per
//! Galois-key policy). They share this crate's front end — [`CliArgs`],
//! [`Baseline`], [`gate`] — and are the only ones that gate: `kernels` on
//! ratios within its run, `mem` against the committed `BENCH_mem.json`
//! record (`--check-baseline`). Wall-clock claims about the executor and
//! the service layer live in `benchmark/`, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use fhe_baselines::{EvaCompiler, HecateCompiler};
use fhe_ir::diag::Finding;
use fhe_ir::json::{self, Json};
use fhe_ir::pipeline::{CompileReport, Compiled, ScaleCompiler};
use fhe_ir::{CompileParams, Program};
use fhe_workloads::{suite, Size, Workload};
use reserve_core::{Mode, ReserveCompiler};

/// The paper's three-way comparison — EVA, Hecate (with the given
/// exploration budget), and this work — in table order. By convention EVA
/// is first and this work last; harness summaries rely on that.
pub fn standard_compilers(hecate_budget: usize) -> Vec<Box<dyn ScaleCompiler>> {
    vec![
        Box::new(EvaCompiler),
        Box::new(HecateCompiler {
            max_iterations: hecate_budget,
            patience: hecate_budget / 4 + 50,
            seed: 0xCA7,
        }),
        Box::new(ReserveCompiler::full()),
    ]
}

/// Fig. 8's ablation ladder: BA, RA, this work — in the paper's order
/// (the first entry is the normalization baseline).
pub fn ablation_compilers() -> Vec<Box<dyn ScaleCompiler>> {
    Mode::ALL
        .iter()
        .map(|&m| Box::new(ReserveCompiler::with_mode(m)) as Box<dyn ScaleCompiler>)
        .collect()
}

/// Compiles `program` at `waterline` with every compiler, in order.
///
/// # Panics
///
/// Panics if any compiler fails — the harness workloads are all expected
/// to compile.
pub fn compile_all(
    compilers: &[Box<dyn ScaleCompiler>],
    program: &Program,
    waterline: u32,
) -> Vec<Compiled> {
    let params = CompileParams::new(waterline);
    compilers
        .iter()
        .map(|c| {
            c.compile(program, &params)
                .unwrap_or_else(|e| panic!("{} compiles the benchmarks: {e}", c.name()))
        })
        .collect()
}

/// The benchmark suite selected by CLI flags: `--fast` shrinks programs to
/// test size, otherwise the paper's sizes are used.
pub fn selected_suite(args: &CliArgs) -> Vec<Workload> {
    suite(if args.fast { Size::Test } else { Size::Paper })
}

/// Hecate's exploration budget given the flags (the paper's runs used
/// thousands of iterations; `--fast` caps exploration).
pub fn hecate_budget(args: &CliArgs, ops: usize) -> usize {
    if args.fast {
        100
    } else {
        // Scale with program size, bounded: mirrors the paper's Table 4
        // iteration counts (hundreds for small kernels, thousands beyond).
        (ops * 8).clamp(500, 15000)
    }
}

/// The one CLI front end of the harness binaries.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    /// Run reduced-size benchmarks / budgets.
    pub fast: bool,
    /// Use paper-scale CKKS parameters where applicable (`table3`).
    pub paper: bool,
    /// Also write the results as JSON to this path.
    pub json: Option<PathBuf>,
    /// Gate the run against this committed record (`mem`).
    pub check_baseline: Option<PathBuf>,
    /// Values of the flags the binary declared itself, in command-line order.
    extra: Vec<(String, String)>,
}

impl CliArgs {
    /// Parses the table and figure binaries' flags from `std::env::args`;
    /// anything else exits 2.
    pub fn parse() -> Self {
        Self::parse_or_exit(&["--fast", "--paper", "--json <path>"])
    }

    /// Parses a gated binary's flags from `std::env::args`: the three below
    /// and the value-taking flags it declares in `extra`, each spelled as
    /// its usage (`"--budget <keys>"`) and read back with
    /// [`CliArgs::value`]; anything else exits 2.
    pub fn parse_gated(extra: &[&str]) -> Self {
        let shared = ["--fast", "--json <path>", "--check-baseline <path>"];
        Self::parse_or_exit(&[&shared, extra].concat())
    }

    fn parse_or_exit(usage: &[&str]) -> Self {
        Self::parse_from(std::env::args().skip(1), usage).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    fn parse_from(mut args: impl Iterator<Item = String>, usage: &[&str]) -> Result<Self, String> {
        let mut parsed = CliArgs::default();
        while let Some(flag) = args.next() {
            if !usage
                .iter()
                .any(|u| u.split(' ').next() == Some(flag.as_str()))
            {
                let supported = usage.join(", ");
                return Err(format!("unknown flag `{flag}` (supported: {supported})"));
            }
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{flag} requires an argument"))
            };
            match flag.as_str() {
                "--fast" => parsed.fast = true,
                "--paper" => parsed.paper = true,
                "--json" => parsed.json = Some(value()?.into()),
                "--check-baseline" => parsed.check_baseline = Some(value()?.into()),
                _ => {
                    let value = value()?;
                    parsed.extra.push((flag, value));
                }
            }
        }
        Ok(parsed)
    }

    /// The value given for a flag the binary declared through
    /// [`CliArgs::parse_gated`] (the last, if it was repeated).
    pub fn value(&self, flag: &str) -> Option<&str> {
        let given = self.extra.iter().rev().find(|(f, _)| f == flag);
        given.map(|(_, v)| v.as_str())
    }

    /// Writes `value` to the `--json` path, if one was given.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn emit_json(&self, value: &Json) {
        if let Some(path) = &self.json {
            std::fs::write(path, format!("{value}\n"))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("wrote {}", path.display());
        }
    }

    /// The `--check-baseline` gate: hands `conditions` the number the
    /// committed record holds under top-level `key` and [`gate`]s on what it
    /// returns. Succeeds without the flag.
    ///
    /// # Panics
    ///
    /// Panics, naming the file and the key, if the record cannot be read, is
    /// not JSON, or holds no number there.
    pub fn gate_on_baseline(
        &self,
        key: &str,
        conditions: impl FnOnce(f64) -> Vec<(bool, String)>,
    ) -> ExitCode {
        let Some(path) = &self.check_baseline else {
            return ExitCode::SUCCESS;
        };
        let committed = Baseline::read(path)
            .and_then(|b| b.number(key))
            .unwrap_or_else(|e| panic!("{e}"));
        let code = gate(&conditions(committed));
        if code == ExitCode::SUCCESS {
            eprintln!("baseline check passed");
        }
        code
    }
}

/// Top-level keys of the committed `BENCH_*.json` records that a gate reads
/// back — shared by the binaries that write them and
/// `tests/bench_baselines.rs`, so a renamed key cannot leave a gate reading
/// nothing.
pub mod keys {
    /// `BENCH_mem.json`: peak bytes under the budgeted lazy key policy.
    pub const LAZY_BUDGET_PEAK_BYTES: &str = "lazy_budget_peak_bytes";
}

/// A committed result record (`BENCH_*.json`), parsed.
#[derive(Debug, Clone)]
pub struct Baseline {
    path: PathBuf,
    doc: Json,
}

impl Baseline {
    /// Reads and parses the record at `path`.
    ///
    /// # Errors
    ///
    /// Names the file if it cannot be read or is not JSON.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::parse(path, &text)
    }

    /// Parses `text` as the record stored at `path`.
    ///
    /// # Errors
    ///
    /// Names the file if `text` is not JSON.
    pub fn parse(path: &Path, text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Baseline {
            path: path.to_path_buf(),
            doc,
        })
    }

    /// The number under the record's top-level `key`.
    ///
    /// # Errors
    ///
    /// Names the file and the key if the record's top level has no number
    /// there.
    pub fn number(&self, key: &str) -> Result<f64, String> {
        self.doc.get(key).and_then(Json::as_f64).ok_or_else(|| {
            format!(
                "{}: no number under top-level key \"{key}\"",
                self.path.display()
            )
        })
    }
}

/// Prints a `FAIL: …` line for every condition that does not hold and
/// yields the process's exit code: success only if all of them do.
pub fn gate(conditions: &[(bool, String)]) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for (_, failure) in conditions.iter().filter(|(holds, _)| !holds) {
        eprintln!("FAIL: {failure}");
        code = ExitCode::FAILURE;
    }
    code
}

/// A [`CompileReport`]'s lint findings and translation-validation verdict
/// as a compact table cell: `"clean ✓"`, `"2 warn ✓"`, `"1 err ✗"`, …
pub fn diagnostics_cell(report: &CompileReport) -> String {
    let errors = report
        .findings
        .iter()
        .filter(|f| f.severity >= fhe_ir::diag::Severity::Error)
        .count();
    let warnings = report.findings.len() - errors;
    let lints = match (errors, warnings) {
        (0, 0) => "clean".to_string(),
        (0, w) => format!("{w} warn"),
        (e, 0) => format!("{e} err"),
        (e, w) => format!("{e} err {w} warn"),
    };
    let tv = match report.translation_validated {
        Some(true) => "✓",
        Some(false) => "✗",
        None => "-",
    };
    format!("{lints} {tv}")
}

/// A [`CompileReport`] as a JSON object, including the per-pass trace
/// (wall times in µs; level `null` before scheduling), the lint findings,
/// and the translation-validation verdict.
pub fn report_json(report: &CompileReport) -> Json {
    let trace: Vec<Json> = report
        .trace
        .passes
        .iter()
        .map(|p| {
            Json::obj([
                ("pass", Json::from(p.name.as_str())),
                ("kind", Json::from(p.kind.label())),
                ("wall_us", Json::from(p.wall.as_secs_f64() * 1e6)),
                ("ops_before", Json::from(p.ops_before)),
                ("ops_after", Json::from(p.ops_after)),
                (
                    "max_level_before",
                    p.max_level_before.map_or(Json::Null, Json::from),
                ),
                (
                    "max_level_after",
                    p.max_level_after.map_or(Json::Null, Json::from),
                ),
                (
                    "notes",
                    Json::Array(p.notes.iter().map(|n| Json::from(n.as_str())).collect()),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("compiler", Json::from(report.compiler.as_str())),
        (
            "scale_management_us",
            Json::from(report.scale_management_time.as_secs_f64() * 1e6),
        ),
        (
            "total_us",
            Json::from(report.total_time.as_secs_f64() * 1e6),
        ),
        ("iterations", Json::from(report.iterations)),
        ("ops_before", Json::from(report.ops_before)),
        ("ops_after", Json::from(report.ops_after)),
        ("hoists", Json::from(report.hoists)),
        (
            "estimated_latency_us",
            Json::from(report.estimated_latency_us),
        ),
        ("max_level", Json::from(report.max_level)),
        (
            "memory",
            Json::obj([
                ("peak_bytes", Json::from(report.memory.peak_bytes as usize)),
                (
                    "poly_peak_bytes",
                    Json::from(report.memory.poly_peak_bytes as usize),
                ),
                ("key_bytes", Json::from(report.memory.key_bytes as usize)),
                ("galois_keys", Json::from(report.memory.galois_keys)),
            ]),
        ),
        (
            "parallelism",
            Json::obj([
                ("work_us", Json::from(report.parallelism.work_us)),
                ("span_us", Json::from(report.parallelism.span_us)),
                ("max_width", Json::from(report.parallelism.max_width)),
            ]),
        ),
        (
            "findings",
            Json::Array(report.findings.iter().map(Finding::to_json).collect()),
        ),
        (
            "translation_validated",
            report.translation_validated.map_or(Json::Null, Json::Bool),
        ),
        ("trace", Json::Array(trace)),
    ])
}

/// Formats a duration in ms with Table 4-style precision.
pub fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 1000.0 {
        format!("{:.1}E3", ms / 1000.0)
    } else if ms >= 10.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.4}")
    }
}

/// Prints an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len().max(1) as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], usage: &[&str]) -> Result<CliArgs, String> {
        CliArgs::parse_from(args.iter().map(|a| a.to_string()), usage)
    }

    #[test]
    fn each_binary_kind_accepts_its_own_flags_and_no_others() {
        let paper = ["--fast", "--paper", "--json <path>"];
        let a = parse(&["--fast", "--paper", "--json", "out.json"], &paper).unwrap();
        assert!(a.fast && a.paper && a.check_baseline.is_none());
        assert_eq!(a.json.as_deref(), Some(Path::new("out.json")));
        let err = parse(&["--check-baseline", "b.json"], &paper).unwrap_err();
        assert_eq!(
            err,
            "unknown flag `--check-baseline` (supported: --fast, --paper, --json <path>)"
        );

        let mem = [
            "--fast",
            "--json <path>",
            "--check-baseline <path>",
            "--workload <name>",
            "--budget <keys>",
        ];
        let given = [
            "--budget",
            "2",
            "--check-baseline",
            "b.json",
            "--budget",
            "3",
        ];
        let a = parse(&given, &mem).unwrap();
        assert_eq!(a.check_baseline.as_deref(), Some(Path::new("b.json")));
        assert_eq!(a.value("--budget"), Some("3"), "the last one wins");
        assert_eq!(a.value("--workload"), None);
        assert_eq!(
            parse(&["--paper"], &mem).unwrap_err(),
            "unknown flag `--paper` (supported: --fast, --json <path>, \
             --check-baseline <path>, --workload <name>, --budget <keys>)"
        );
        assert!(
            parse(&["--workload", "PR"], &mem[..3]).is_err(),
            "undeclared"
        );
        assert_eq!(
            parse(&["--fast", "--workload"], &mem).unwrap_err(),
            "--workload requires an argument"
        );
    }

    #[test]
    fn baseline_numbers_come_from_the_top_level_and_errors_name_file_and_key() {
        let path = Path::new("BENCH_x.json");
        let b = Baseline::parse(path, r#"{"rows": [{"peak": 1}], "peak": 2, "name": "x"}"#)
            .expect("parses");
        assert_eq!(b.number("peak"), Ok(2.0));
        for key in ["rows", "name", "absent"] {
            let err = b.number(key).unwrap_err();
            assert!(err.contains("BENCH_x.json") && err.contains(key), "{err}");
        }
        let err = Baseline::parse(path, "{").unwrap_err();
        assert!(err.contains("BENCH_x.json"), "{err}");
        let err = Baseline::read(Path::new("/nonexistent/BENCH_y.json")).unwrap_err();
        assert!(err.contains("BENCH_y.json"), "{err}");
    }

    #[test]
    fn gate_fails_if_any_condition_does_not_hold() {
        assert_eq!(gate(&[]), ExitCode::SUCCESS);
        assert_eq!(
            gate(&[(true, "a".into()), (true, "b".into())]),
            ExitCode::SUCCESS
        );
        assert_eq!(
            gate(&[(true, "a".into()), (false, "b".into())]),
            ExitCode::FAILURE
        );
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn standard_compilers_produce_valid_schedules() {
        let w = &fhe_workloads::suite(Size::Test)[0];
        let compilers = standard_compilers(30);
        assert_eq!(compilers[0].name(), "EVA");
        assert_eq!(compilers.last().unwrap().name(), "This work");
        for out in compile_all(&compilers, &w.program, 25) {
            assert!(out.scheduled.validate().is_ok(), "{}", out.report.compiler);
            assert!(out.report.estimated_latency_us > 0.0);
        }
    }

    #[test]
    fn ablation_ladder_is_ba_first() {
        let names: Vec<String> = ablation_compilers()
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        assert_eq!(names, ["BA", "RA", "This work"]);
    }

    #[test]
    fn report_json_round_trips_key_fields() {
        let w = &fhe_workloads::suite(Size::Test)[0];
        let out = compile_all(&standard_compilers(30), &w.program, 25);
        let j = format!("{}", report_json(&out[2].report));
        assert!(j.contains("\"compiler\":\"This work\""));
        assert!(j.contains("\"pass\":\"hoist\""));
        assert!(j.contains("\"max_level\":"));
        assert!(j.contains("\"translation_validated\":true"), "{j}");
        assert!(j.contains("\"findings\":"), "{j}");
        assert!(j.contains("\"memory\":{\"peak_bytes\":"), "{j}");
        let mem = &out[2].report.memory;
        assert!(mem.peak_bytes >= mem.poly_peak_bytes + mem.key_bytes);
        assert!(mem.peak_bytes > 0);
        assert!(j.contains("\"parallelism\":{\"work_us\":"), "{j}");
        let par = &out[2].report.parallelism;
        assert!(par.span_us <= par.work_us + 1e-9);
        assert!(par.max_width >= 1);
    }

    #[test]
    fn diagnostics_cell_reports_tv_and_findings() {
        let w = &fhe_workloads::suite(Size::Test)[0];
        let out = compile_all(&standard_compilers(30), &w.program, 25);
        for o in &out {
            let cell = diagnostics_cell(&o.report);
            assert!(cell.ends_with('✓'), "{}: {cell}", o.report.compiler);
        }
    }
}
