//! Golden-file regression tests: the compiled schedules for the worked
//! example must match the checked-in snapshots exactly. If a compiler
//! change alters a plan, regenerate with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_schedules
//! ```
//!
//! and review the diff like any other code change.

use fhe_reserve::ir::text;
use fhe_reserve::prelude::*;

fn fig2a() -> fhe_ir::Program {
    let b = Builder::new("fig2a", 8);
    let x = b.input("x");
    let y = b.input("y");
    let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
    b.finish(vec![q])
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
        "schedule for {name} drifted from its golden snapshot; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn render(s: &fhe_ir::ScheduledProgram) -> String {
    let mut out = text::print(&s.program);
    for (i, spec) in s.inputs.iter().enumerate() {
        out.push_str(&format!(
            "// input {i}: scale 2^{}, level {}\n",
            spec.scale_bits, spec.level
        ));
    }
    out
}

#[test]
fn reserve_schedule_is_stable() {
    let compiled = ReserveCompiler::full()
        .compile(&fig2a(), &CompileParams::new(20))
        .unwrap();
    check("fig2a_reserve_w20.fhe", render(&compiled.scheduled));
}

#[test]
fn reserve_ra_schedule_is_stable() {
    let compiled = ReserveCompiler::with_mode(Mode::Ra)
        .compile(&fig2a(), &CompileParams::new(20))
        .unwrap();
    check("fig2a_ra_w20.fhe", render(&compiled.scheduled));
}

#[test]
fn eva_schedule_is_stable() {
    let out = EvaCompiler
        .compile(&fig2a(), &CompileParams::new(20))
        .unwrap();
    check("fig2a_eva_w20.fhe", render(&out.scheduled));
}

#[test]
fn sobel_reserve_schedule_is_stable() {
    let program = fhe_reserve::workloads::image::sobel(8);
    let compiled = ReserveCompiler::full()
        .compile(&program, &CompileParams::new(30))
        .unwrap();
    check("sobel8_reserve_w30.fhe", render(&compiled.scheduled));
}
