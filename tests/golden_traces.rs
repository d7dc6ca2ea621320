//! Golden-file regression tests of the per-pass pipeline traces: the
//! op-count/level deltas each compiler's passes report for the paper's
//! worked example and two workloads must match the checked-in snapshots,
//! asserting the pass-pipeline refactor stays behavior-preserving. If a
//! compiler change legitimately alters a trace, regenerate with:
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
