//! Edge-case coverage for the shared RNS-CKKS validator, the cost model,
//! and the schedule utilities — the paths the happy-path suites don't hit.

use fhe_ir::{InputSpec, Op, Program, ScheduleError, ScheduledProgram, ValueId};
use fhe_reserve::prelude::*;

fn one_input_schedule(
    build: impl FnOnce(&mut Program, ValueId) -> ValueId,
    scale_bits: i64,
    level: u32,
    params: CompileParams,
) -> ScheduledProgram {
    let mut p = Program::new("edge", 4);
    let x = p.push(Op::Input { name: "x".into() });
    let out = build(&mut p, x);
    p.set_outputs(vec![out]);
    ScheduledProgram {
        program: p,
        params,
        inputs: vec![InputSpec {
            scale_bits: Frac::from(scale_bits),
            level,
        }],
    }
}

#[test]
fn exceeds_max_level_flagged() {
    let mut params = CompileParams::new(20);
    params.max_level = 2;
    let s = one_input_schedule(|_, x| x, 30, 3, params);
    let errs = s.validate().unwrap_err();
    assert!(errs
        .iter()
        .any(|e| matches!(e, ScheduleError::ExceedsMaxLevel { level: 3, .. })));
}

#[test]
fn non_positive_upscale_flagged() {
    let params = CompileParams::new(20);
    let s = one_input_schedule(|p, x| p.push(Op::Upscale(x, Frac::from(0))), 30, 1, params);
    let errs = s.validate().unwrap_err();
    assert!(errs
        .iter()
        .any(|e| matches!(e, ScheduleError::NonPositiveUpscale { .. })));
}

#[test]
fn scale_management_on_plain_flagged() {
    let params = CompileParams::new(20);
    let mut p = Program::new("edge", 4);
    let x = p.push(Op::Input { name: "x".into() });
    let c = p.push(Op::Const { value: 1.0.into() });
    let r = p.push(Op::Rescale(c));
    let m = p.push(Op::Mul(x, r));
    p.set_outputs(vec![m]);
    let s = ScheduledProgram {
        program: p,
        params,
        inputs: vec![InputSpec {
            scale_bits: Frac::from(20),
            level: 1,
        }],
    };
    let errs = s.validate().unwrap_err();
    assert!(errs
        .iter()
        .any(|e| matches!(e, ScheduleError::ScaleManagementOnPlain { .. })));
}

#[test]
fn multiple_violations_all_reported() {
    // One schedule, three different violations.
    let params = CompileParams::new(20);
    let mut p = Program::new("edge", 4);
    let x = p.push(Op::Input { name: "x".into() }); // below waterline
    let y = p.push(Op::Input { name: "y".into() });
    let a = p.push(Op::Add(x, y)); // scale mismatch
    let r = p.push(Op::Rescale(a)); // level underflow at level 1
    p.set_outputs(vec![r]);
    let s = ScheduledProgram {
        program: p,
        params,
        inputs: vec![
            InputSpec {
                scale_bits: Frac::from(10),
                level: 1,
            },
            InputSpec {
                scale_bits: Frac::from(25),
                level: 1,
            },
        ],
    };
    let errs = s.validate().unwrap_err();
    assert!(errs.len() >= 3, "got {errs:?}");
    assert!(errs
        .iter()
        .any(|e| matches!(e, ScheduleError::BelowWaterline { .. })));
    assert!(errs
        .iter()
        .any(|e| matches!(e, ScheduleError::ScaleMismatch { .. })));
    assert!(errs
        .iter()
        .any(|e| matches!(e, ScheduleError::LevelUnderflow { .. })));
    // Errors display without panicking.
    for e in &errs {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn mul_overflow_at_exact_boundary_is_allowed() {
    // scale == level·R is legal (reserve 0, the paper's full utilization);
    // one bit more is not.
    let params = CompileParams::new(20);
    let ok = one_input_schedule(|p, x| p.push(Op::Mul(x, x)), 30, 1, params);
    assert!(ok.validate().is_ok(), "scale 60 at level 1 is exactly Q");
    let bad = one_input_schedule(|p, x| p.push(Op::Mul(x, x)), 31, 1, params);
    let errs = bad.validate().unwrap_err();
    assert!(errs
        .iter()
        .any(|e| matches!(e, ScheduleError::Overflow { .. })));
}

#[test]
fn level_mismatch_after_one_sided_modswitch_flagged() {
    // Dropping one operand's level without the other makes the add
    // ill-typed: RNS limbs no longer line up.
    let params = CompileParams::new(20);
    let s = one_input_schedule(
        |p, x| {
            let dropped = p.push(Op::ModSwitch(x));
            p.push(Op::Add(x, dropped))
        },
        30,
        2,
        params,
    );
    let errs = s.validate().unwrap_err();
    assert!(
        errs.iter()
            .any(|e| matches!(e, ScheduleError::LevelMismatch { lhs: 2, rhs: 1, .. })),
        "got {errs:?}"
    );
}

#[test]
fn level_mismatch_between_inputs_flagged() {
    // Two inputs pinned at different levels by their specs.
    let params = CompileParams::new(20);
    let mut p = Program::new("edge", 4);
    let x = p.push(Op::Input { name: "x".into() });
    let y = p.push(Op::Input { name: "y".into() });
    let m = p.push(Op::Mul(x, y));
    p.set_outputs(vec![m]);
    let s = ScheduledProgram {
        program: p,
        params,
        inputs: vec![
            InputSpec {
                scale_bits: Frac::from(30),
                level: 3,
            },
            InputSpec {
                scale_bits: Frac::from(30),
                level: 2,
            },
        ],
    };
    let errs = s.validate().unwrap_err();
    assert!(
        errs.iter()
            .any(|e| matches!(e, ScheduleError::LevelMismatch { lhs: 3, rhs: 2, .. })),
        "got {errs:?}"
    );
}

#[test]
fn upscale_past_modulus_overflows() {
    // An otherwise-legal upscale that pushes the scale past Q = R^l must
    // report Overflow on the upscaled value, not merely fail downstream.
    let params = CompileParams::new(20);
    let s = one_input_schedule(|p, x| p.push(Op::Upscale(x, Frac::from(31))), 30, 1, params);
    let errs = s.validate().unwrap_err();
    assert!(
        errs.iter().any(|e| matches!(
            e,
            ScheduleError::Overflow { scale_bits, level: 1, .. } if *scale_bits == Frac::from(61)
        )),
        "got {errs:?}"
    );
}

#[test]
fn overflow_reports_offending_value_and_level() {
    // Deep schedule: the squaring at level 2 overflows (scale 80 > 2·60
    // fails only at level 1 — here 35+35 = 70 ≤ 120 is fine, but a second
    // squaring without rescale demands 140 > 120).
    let params = CompileParams::new(20);
    let s = one_input_schedule(
        |p, x| {
            let sq = p.push(Op::Mul(x, x));
            p.push(Op::Mul(sq, sq))
        },
        35,
        2,
        params,
    );
    let errs = s.validate().unwrap_err();
    let overflow = errs
        .iter()
        .find_map(|e| match e {
            ScheduleError::Overflow {
                op,
                scale_bits,
                level,
            } => Some((*op, *scale_bits, *level)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no Overflow in {errs:?}"));
    assert_eq!(overflow.1, Frac::from(140));
    assert_eq!(overflow.2, 2);
}

#[test]
fn modulus_level_and_counts() {
    let params = CompileParams::new(20);
    let s = one_input_schedule(
        |p, x| {
            let m = p.push(Op::Mul(x, x));
            let r = p.push(Op::Rescale(m));
            let u = p.push(Op::Upscale(r, Frac::from(5)));
            p.push(Op::ModSwitch(u))
        },
        40,
        3,
        params,
    );
    assert_eq!(s.validate().unwrap().max_level(), 3);
    assert_eq!(s.scale_management_counts(), (1, 1, 1));
}

#[test]
fn cost_model_charges_modswitch_and_upscale() {
    let params = CompileParams::new(20);
    let s = one_input_schedule(
        |p, x| {
            let u = p.push(Op::Upscale(x, Frac::from(10)));
            p.push(Op::ModSwitch(u))
        },
        30,
        2,
        params,
    );
    let map = s.validate().unwrap();
    let cm = CostModel::paper_table3();
    // upscale charged as cipher×plain at level 2 (421), modswitch at its
    // result level 1 (48).
    let cost = cm.program_cost(&s.program, &map);
    assert_eq!(cost, 421.0 + 48.0);
}

#[test]
fn input_named_and_editor_outputs() {
    let mut p = Program::new("edge", 4);
    let x = p.push(Op::Input {
        name: "alpha".into(),
    });
    let y = p.push(Op::Input {
        name: "beta".into(),
    });
    let s = p.push(Op::Add(x, y));
    p.set_outputs(vec![s, x]);
    assert_eq!(p.input_named("beta"), Some(y));
}

/// The failing pass's name is what the fuzz oracle's `Divergence` location
/// and `ServeError` messages are built from.
#[test]
fn too_deep_a_program_fails_in_each_compilers_own_pass() {
    let b = Builder::new("deep", 4);
    let mut acc = b.input("x");
    for _ in 0..8 {
        acc = acc.clone() * acc;
    }
    let program = b.finish(vec![acc]);
    let mut params = CompileParams::new(50);
    params.max_level = 3;
    let cases: [(Box<dyn ScaleCompiler>, &str); 5] = [
        (Box::new(ReserveCompiler::with_mode(Mode::Ba)), "typecheck"),
        (Box::new(ReserveCompiler::with_mode(Mode::Ra)), "typecheck"),
        (Box::new(ReserveCompiler::full()), "typecheck"),
        (Box::new(EvaCompiler), "legalize"),
        (Box::new(HecateCompiler::with_budget(20)), "explore"),
    ];
    for (compiler, pass) in cases {
        let err = compiler.compile(&program, &params).unwrap_err();
        assert_eq!(err.compiler, compiler.name());
        assert_eq!(err.error.pass, pass, "{err}");
        assert!(!err.error.diagnostics.is_empty(), "{err}");
    }
}
