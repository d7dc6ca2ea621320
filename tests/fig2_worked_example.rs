//! The paper's worked example (Fig. 2): `x³ · (y² + y)` at waterline 2^20.
//!
//! Paper numbers (hundreds of µs, from Table 3): EVA's plan costs 390
//! (Fig. 2b); the reserve analysis alone reaches ≈353 (Fig. 2c); with
//! rescale hoisting ≈335 (Fig. 2d). Our cost accounting differs slightly on
//! `upscale` (we charge it as cipher×plain at the operand level), so the
//! assertions use bands around those values.

use fhe_reserve::prelude::*;
use fhe_reserve::{baselines, runtime};

fn fig2a() -> fhe_ir::Program {
    let b = Builder::new("fig2a", 8);
    let x = b.input("x");
    let y = b.input("y");
    let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
    b.finish(vec![q])
}

fn cost_hundreds(s: &ScheduledProgram) -> f64 {
    let map = s.validate().unwrap();
    CostModel::paper_table3().program_cost(&s.program, &map) / 100.0
}

#[test]
fn fig2_cost_story() {
    let p = fig2a();
    let params = CompileParams::new(20);

    let eva = baselines::eva::compile(&p, &params).unwrap().scheduled;
    let eva_cost = cost_hundreds(&eva);
    assert!(
        (385.0..400.0).contains(&eva_cost),
        "EVA ≈390, got {eva_cost:.1}"
    );

    let ra = compile(&p, &Options::with_mode(20, Mode::Ra))
        .unwrap()
        .scheduled;
    let ra_cost = cost_hundreds(&ra);
    assert!(
        (345.0..375.0).contains(&ra_cost),
        "step 1 ≈353, got {ra_cost:.1}"
    );

    let full = compile(&p, &Options::new(20)).unwrap().scheduled;
    let full_cost = cost_hundreds(&full);
    assert!(
        (325.0..355.0).contains(&full_cost),
        "step 2 ≈335, got {full_cost:.1}"
    );

    assert!(full_cost < ra_cost && ra_cost < eva_cost);

    // Hecate's exploration lands near the reserve compiler's plan.
    let hec = baselines::hecate::compile(
        &p,
        &params,
        &baselines::HecateOptions {
            max_iterations: 2000,
            patience: 2000,
            seed: 5,
        },
    )
    .unwrap();
    let hec_cost = cost_hundreds(&hec.scheduled);
    assert!(
        hec_cost < eva_cost && hec_cost < full_cost * 1.15,
        "Hecate ({hec_cost:.1}) should approach the reserve plan ({full_cost:.1})"
    );
    assert!(hec.report.iterations > 100, "exploration actually explored");
}

#[test]
fn fig2_input_levels_match_paper() {
    // Both EVA and this work encrypt Fig. 2a's inputs at level 2.
    let p = fig2a();
    let eva = baselines::eva::compile(&p, &CompileParams::new(20))
        .unwrap()
        .scheduled;
    let ours = compile(&p, &Options::new(20)).unwrap().scheduled;
    assert_eq!(eva.validate().unwrap().max_level(), 2);
    assert_eq!(ours.validate().unwrap().max_level(), 2);
    // EVA encrypts at the waterline scale; the reserve plan upscales inputs
    // to 40 bits so the output fully utilizes its modulus.
    assert_eq!(eva.inputs[0].scale_bits, Frac::from(20));
    assert_eq!(ours.inputs[0].scale_bits, Frac::from(40));
}

#[test]
fn fig2_all_plans_compute_the_same_function() {
    let p = fig2a();
    let mut inputs = std::collections::HashMap::new();
    inputs.insert(
        "x".to_string(),
        vec![1.5, -0.5, 2.0, 0.1, 0.0, 1.0, -1.0, 0.7],
    );
    inputs.insert(
        "y".to_string(),
        vec![0.5, 1.0, -2.0, 3.0, 0.2, -0.2, 1.1, 0.0],
    );
    let reference = runtime::plain::execute(&p, &inputs);
    let params = CompileParams::new(20);
    let eva = baselines::eva::compile(&p, &params).unwrap().scheduled;
    let ours = compile(&p, &Options::new(20)).unwrap().scheduled;
    for s in [&eva, &ours] {
        let got = runtime::plain::execute(&s.program, &inputs);
        assert_eq!(got, reference);
    }
}
