//! Golden-file regression tests of the per-pass pipeline traces: the
//! op-count/level deltas each compiler's passes report for the paper's
//! worked example and two workloads must match the checked-in snapshots.
//! If a compiler change legitimately alters a trace, regenerate with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! and review the diff like any other code change.
//!
//! `PipelineTrace::summary()` deliberately omits wall times, so these
//! snapshots are deterministic across machines.

use fhe_reserve::prelude::*;

fn fig2a() -> Program {
    let b = Builder::new("fig2a", 8);
    let x = b.input("x");
    let y = b.input("y");
    let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
    b.finish(vec![q])
}

/// The three compilers under test, with a fixed deterministic Hecate
/// budget so the explored-iterations note in its trace is stable.
fn compilers() -> Vec<Box<dyn ScaleCompiler>> {
    vec![
        Box::new(EvaCompiler),
        Box::new(HecateCompiler {
            options: HecateOptions {
                max_iterations: 200,
                patience: 200,
                seed: 7,
            },
        }),
        Box::new(ReserveCompiler::full()),
    ]
}

fn check(name: &str, rendered: String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {name}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        rendered, expected,
        "pipeline trace for {name} drifted from its golden snapshot; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn trace_all(program: &Program, waterline: u32) -> String {
    let params = CompileParams::new(waterline);
    let mut out = String::new();
    for compiler in compilers() {
        let compiled = compiler.compile(program, &params).expect("compiles");
        assert!(
            !compiled.report.trace.passes.is_empty(),
            "{}: trace must record at least one pass",
            compiler.name()
        );
        out.push_str(&format!("== {} ==\n", compiler.name()));
        out.push_str(&compiled.report.trace.summary());
        out.push_str(&format!(
            "final: {} ops, max level {}\n\n",
            compiled.report.ops_after, compiled.report.max_level
        ));
    }
    out
}

#[test]
fn fig2_trace_is_stable_under_all_compilers() {
    check("trace_fig2a_w20.txt", trace_all(&fig2a(), 20));
}

#[test]
fn mlp_trace_is_stable_under_all_compilers() {
    let program = fhe_reserve::workloads::mlp::mlp(64, 4, 3);
    check("trace_mlp_w30.txt", trace_all(&program, 30));
}

#[test]
fn regression_trace_is_stable_under_all_compilers() {
    let program = fhe_reserve::workloads::regression::linear(64, 2);
    check("trace_regression_w30.txt", trace_all(&program, 30));
}

/// The three programs above, with the waterline their snapshot uses.
fn golden_programs() -> [(Program, u32); 3] {
    [
        (fig2a(), 20),
        (fhe_reserve::workloads::mlp::mlp(64, 4, 3), 30),
        (fhe_reserve::workloads::regression::linear(64, 2), 30),
    ]
}

fn pass_names(trace: &PipelineTrace) -> Vec<&str> {
    trace.passes.iter().map(|r| r.name.as_str()).collect()
}

/// The snapshots pin `Mode::Full` only; BA and RA run the same phases
/// without `hoist`, under the same names the harness looks up.
#[test]
fn ablation_modes_record_fulls_passes_minus_hoist() {
    for (program, waterline) in golden_programs() {
        let params = CompileParams::new(waterline);
        let full = ReserveCompiler::full().compile(&program, &params).unwrap();
        let mut expected = pass_names(&full.report.trace);
        expected.retain(|&name| name != "hoist");
        assert_eq!(expected.len() + 1, full.report.trace.passes.len());
        for mode in [Mode::Ba, Mode::Ra] {
            let out = ReserveCompiler::with_mode(mode)
                .compile(&program, &params)
                .unwrap();
            assert_eq!(pass_names(&out.report.trace), expected, "{mode:?}");
            assert_eq!(out.report.hoists, 0, "{mode:?}");
        }
    }
}

/// The report's Table 4 columns are the trace read back, for every
/// compiler and ablation mode.
#[test]
fn report_columns_agree_with_the_trace() {
    let mut all = compilers();
    all.push(Box::new(ReserveCompiler::with_mode(Mode::Ba)));
    all.push(Box::new(ReserveCompiler::with_mode(Mode::Ra)));
    for (program, waterline) in golden_programs() {
        for compiler in &all {
            let report = compiler
                .compile(&program, &CompileParams::new(waterline))
                .expect("compiles")
                .report;
            let who = format!("{} on {}", compiler.name(), program.name());
            let trace = &report.trace;
            let cleanup = trace.pass("cleanup").expect("every compiler cleans up");
            assert_eq!(report.ops_before, cleanup.ops_after, "{who}");
            let last = trace.passes.last().unwrap();
            assert_eq!(Some(report.max_level), last.max_level_after, "{who}");
            let scale_management: std::time::Duration = trace
                .passes
                .iter()
                .filter(|r| r.kind == fhe_reserve::ir::PassKind::ScaleManagement)
                .map(|r| r.wall)
                .sum();
            assert_eq!(report.scale_management_time, scale_management, "{who}");
        }
    }
}
