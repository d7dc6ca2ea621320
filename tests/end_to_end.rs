//! End-to-end integration: every benchmark × every compiler must produce a
//! validating schedule that computes the same function as the source
//! program, and the compilers must relate the way the paper reports
//! (reserve ≈ Hecate ≲ EVA in latency).
//!
//! All compilers are driven through the unified [`ScaleCompiler`] trait;
//! the clear-value interpreter ([`plain`]) is the reference every other run
//! is compared with, through the shared [`outputs_close`] diff helper.

use fhe_reserve::prelude::*;

/// The paper's three compilers behind one interface (fixed Hecate budget
/// for determinism).
fn compilers() -> Vec<Box<dyn ScaleCompiler>> {
    vec![
        Box::new(EvaCompiler),
        Box::new(HecateCompiler {
            max_iterations: 300,
            patience: 300,
            seed: 11,
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
        let reference = plain::execute(&w.program, &w.inputs);
        for (name, s) in compile_all(&w.program, 30) {
            s.validate().expect("validates");
            let outputs = plain::execute(&s.program, &w.inputs);
            outputs_close(&outputs, &reference, 1e-9)
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
    for w in suite(Size::Test) {
        let (_, ours) = compile_all(&w.program, 40).pop().expect("reserve is last");
        let run = simulate(&ours, &w.inputs, &NoiseModel::default())
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
        assert!(
            run.max_abs_error() < 1e-3,
            "{}: noisy error {} too large at W=2^40",
            w.name,
            run.max_abs_error()
        );
    }
}

fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// FNV-1a over the bit pattern of every output slot, continuing from `h`.
fn fold_bits(mut h: u64, outputs: &[Vec<f64>]) -> u64 {
    for v in outputs.iter().flatten() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn the_simulator_is_the_interpreter_plus_the_same_seeded_noise() {
    // One digest per compiler (EVA, Hecate, reserve — `compilers()` order)
    // over the default-model outputs of the whole test suite, recorded on
    // commit 9b25f6f, where `simulate` still carried its own copy of the op
    // semantics. They move if the values, the set of noisy ops or the order
    // of the RNG draws do.
    const PINNED: [(u32, [u64; 3]); 2] = [
        (
            20,
            [
                0x38ea_1903_11f4_2b7e,
                0xf2d8_12f9_2bad_149c,
                0x6676_9555_1233_0e51,
            ],
        ),
        (
            40,
            [
                0xd391_8d92_b793_4f34,
                0x750b_516b_9459_85e8,
                0xd329_2e83_c30d_4127,
            ],
        ),
    ];
    let silent = NoiseModel {
        noise_bits: f64::NEG_INFINITY,
        seed: 1,
    };
    for (waterline, pinned) in PINNED {
        let mut digests = [0xcbf2_9ce4_8422_2325u64; 3];
        for w in suite(Size::Test) {
            for (k, (name, s)) in compile_all(&w.program, waterline).iter().enumerate() {
                // Without noise the simulator *is* the interpreter.
                let exact = simulate(s, &w.inputs, &silent).unwrap();
                assert_eq!(
                    bits(&exact.outputs),
                    bits(&plain::execute(&s.program, &w.inputs)),
                    "{} {name} W={waterline}",
                    w.name
                );
                let noisy = simulate(s, &w.inputs, &NoiseModel::default()).unwrap();
                digests[k] = fold_bits(digests[k], &noisy.outputs);
            }
        }
        assert_eq!(digests, pinned, "W={waterline}: got {digests:#x?}");
    }
}

#[test]
fn every_value_is_visible_without_rewriting_the_outputs() {
    for w in suite(Size::Test) {
        let compiled = ReserveCompiler::full().compile(&w.program, &CompileParams::new(30));
        // A dead op: nothing reads it and it is no output.
        let mut program = compiled.expect("compiles").scheduled.program;
        let x = program.inputs()[0];
        let dead = program.push(fhe_reserve::ir::Op::Neg(x));
        let values = plain::values(&program, &w.inputs);
        assert_eq!(values.len(), program.num_ops(), "{}", w.name);
        let outputs: Vec<Vec<f64>> = (program.outputs().iter())
            .map(|o| values[o.index()].clone())
            .collect();
        assert_eq!(
            bits(&outputs),
            bits(&plain::execute(&program, &w.inputs)),
            "{}",
            w.name
        );
        let negated: Vec<f64> = values[x.index()].iter().map(|v| -v).collect();
        assert_eq!(values[dead.index()], negated, "{}", w.name);
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
