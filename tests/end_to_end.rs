//! End-to-end integration: every benchmark × every compiler must produce a
//! validating schedule that computes the same function as the source
//! program, and the compilers must relate the way the paper reports
//! (reserve ≈ Hecate ≲ EVA in latency).
//!
//! All compilers are driven through the unified [`ScaleCompiler`] trait and
//! all executions through the [`Executor`] trait + the shared
//! [`outputs_close`] diff helper — no per-compiler or per-backend dispatch.

use fhe_reserve::prelude::*;
use fhe_reserve::runtime;

/// The paper's three compilers behind one interface (fixed Hecate budget
/// for determinism).
fn compilers() -> Vec<Box<dyn ScaleCompiler>> {
    vec![
        Box::new(EvaCompiler),
        Box::new(HecateCompiler {
            options: HecateOptions {
                max_iterations: 300,
                patience: 300,
                seed: 11,
            },
        }),
        Box::new(ReserveCompiler::full()),
    ]
}

fn compile_all(program: &Program, waterline: u32) -> Vec<(String, ScheduledProgram)> {
    let params = CompileParams::new(waterline);
    compilers()
        .iter()
        .map(|c| {
            let compiled = c
                .compile(program, &params)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", c.name()));
            (c.name().to_string(), compiled.scheduled)
        })
        .collect()
}

#[test]
fn all_workloads_compile_and_validate_under_all_compilers() {
    for w in suite(Size::Test) {
        for waterline in [20, 40] {
            for (name, s) in compile_all(&w.program, waterline) {
                s.validate()
                    .unwrap_or_else(|e| panic!("{} W={waterline} {name}: {e:?}", w.name));
            }
        }
    }
}

#[test]
fn compilation_preserves_semantics_exactly() {
    // Scale-management ops are value-identities, so the scheduled program
    // must plain-execute to exactly the source program's outputs.
    for w in suite(Size::Test) {
        let reference = runtime::plain::execute(&w.program, &w.inputs);
        for (name, s) in compile_all(&w.program, 30) {
            let run = PlainExec.execute(&s, &w.inputs).expect("validates");
            outputs_close(&run.outputs, &reference, 1e-9)
                .unwrap_or_else(|e| panic!("{} {name}: {e}", w.name));
        }
    }
}

#[test]
fn reserve_beats_eva_latency_overall() {
    // The paper claims a 41.8% average improvement over EVA, with occasional
    // small per-point losses (§8.2 reports up to 6.5% vs Hecate). Require:
    // never more than 5% worse on any point, and clearly better on average.
    let eva = EvaCompiler;
    let ours = ReserveCompiler::full();
    let mut ratios = Vec::new();
    for w in suite(Size::Test) {
        for waterline in [20, 35, 45] {
            let params = CompileParams::new(waterline);
            let eva_cost = eva
                .compile(&w.program, &params)
                .unwrap()
                .report
                .estimated_latency_us;
            let our_cost = ours
                .compile(&w.program, &params)
                .unwrap()
                .report
                .estimated_latency_us;
            assert!(
                our_cost <= eva_cost * 1.05,
                "{} W={waterline}: reserve {our_cost:.0}µs ≫ EVA {eva_cost:.0}µs",
                w.name
            );
            ratios.push(our_cost / eva_cost);
        }
    }
    let geomean = (ratios.iter().map(|x| x.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        geomean < 0.90,
        "reserve should be clearly faster than EVA on average, got ratio {geomean:.3}"
    );
}

#[test]
fn noise_simulation_runs_every_compiled_workload() {
    let sim = NoiseSimExec::default();
    for w in suite(Size::Test) {
        let (_, ours) = compile_all(&w.program, 40).pop().expect("reserve is last");
        let run = sim
            .execute(&ours, &w.inputs)
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
        assert!(
            run.max_abs_error() < 1e-3,
            "{}: noisy error {} too large at W=2^40",
            w.name,
            run.max_abs_error()
        );
    }
}

#[test]
fn ablation_ordering_holds_on_average() {
    // Fig. 8: BA ≥ RA ≥ Full in latency (geomean across the suite).
    let params = CompileParams::new(20);
    let modes: Vec<ReserveCompiler> = Mode::ALL
        .iter()
        .map(|&m| ReserveCompiler::with_mode(m))
        .collect();
    let mut ratios_ra = Vec::new();
    let mut ratios_full = Vec::new();
    for w in suite(Size::Test) {
        let cost: Vec<f64> = modes
            .iter()
            .map(|c| {
                c.compile(&w.program, &params)
                    .unwrap()
                    .report
                    .estimated_latency_us
            })
            .collect();
        let (cb, cr, cf) = (cost[0], cost[1], cost[2]);
        ratios_ra.push(cr / cb);
        ratios_full.push(cf / cb);
        assert!(
            cf <= cb * 1.001,
            "{}: full {cf:.0} worse than BA {cb:.0}",
            w.name
        );
    }
    let geomean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    assert!(geomean(&ratios_full) <= geomean(&ratios_ra) + 1e-9);
    assert!(
        geomean(&ratios_full) < 1.0,
        "full pipeline must help overall"
    );
}
