//! Property-style tests: random programs through the whole toolchain.
//!
//! For arbitrary DAG programs, every compiler must emit a schedule that
//! (a) passes the RNS-CKKS validator, (b) computes exactly the same
//! function as the source, and (c) respects the reserve type system; and
//! the core IR utilities (text format, passes, rationals) must uphold
//! their invariants.
//!
//! The workspace builds offline (no proptest), so each property runs as a
//! deterministic seeded loop: every case is reproducible from its printed
//! case index.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fhe_ir::{Frac, Op, Program, ValueId};
use fhe_reserve::prelude::*;
use fhe_reserve::runtime;

/// A recipe for one random op over already-defined values.
#[derive(Debug, Clone)]
enum OpRecipe {
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Neg(usize),
    Rotate(usize, i64),
    Const(f64),
}

fn random_recipe(rng: &mut StdRng) -> OpRecipe {
    match rng.gen_range(0usize..6) {
        0 => OpRecipe::Add(
            rng.gen_range(0usize..1 << 16),
            rng.gen_range(0usize..1 << 16),
        ),
        1 => OpRecipe::Sub(
            rng.gen_range(0usize..1 << 16),
            rng.gen_range(0usize..1 << 16),
        ),
        2 => OpRecipe::Mul(
            rng.gen_range(0usize..1 << 16),
            rng.gen_range(0usize..1 << 16),
        ),
        3 => OpRecipe::Neg(rng.gen_range(0usize..1 << 16)),
        4 => OpRecipe::Rotate(rng.gen_range(0usize..1 << 16), rng.gen_range(-4i64..4)),
        _ => OpRecipe::Const(rng.gen_range(-100i64..100) as f64 / 100.0),
    }
}

fn random_recipes(rng: &mut StdRng, max_len: usize) -> Vec<OpRecipe> {
    let len = rng.gen_range(1usize..max_len);
    (0..len).map(|_| random_recipe(rng)).collect()
}

/// Materializes a random program with bounded multiplicative depth (so it
/// always fits `max_level`), plus matching inputs.
fn build_program(recipes: &[OpRecipe], num_inputs: usize) -> (Program, HashMap<String, Vec<f64>>) {
    const SLOTS: usize = 8;
    const MAX_DEPTH: u32 = 6;
    let mut p = Program::new("random", SLOTS);
    let mut depth: Vec<u32> = Vec::new(); // muls consumed so far per value
    for i in 0..num_inputs {
        p.push(Op::Input {
            name: format!("in{i}"),
        });
        depth.push(0);
    }
    for r in recipes {
        let n = p.num_ops();
        let pick = |raw: usize| ValueId((raw % n) as u32);
        let (op, d) = match r.clone() {
            OpRecipe::Add(a, b) => {
                let (a, b) = (pick(a), pick(b));
                (Op::Add(a, b), depth[a.index()].max(depth[b.index()]))
            }
            OpRecipe::Sub(a, b) => {
                let (a, b) = (pick(a), pick(b));
                (Op::Sub(a, b), depth[a.index()].max(depth[b.index()]))
            }
            OpRecipe::Mul(a, b) => {
                let (a, b) = (pick(a), pick(b));
                let d = depth[a.index()].max(depth[b.index()]) + 1;
                if d > MAX_DEPTH {
                    // Too deep: degrade to an addition to bound the level.
                    (Op::Add(a, b), d - 1)
                } else {
                    (Op::Mul(a, b), d)
                }
            }
            OpRecipe::Neg(a) => {
                let a = pick(a);
                (Op::Neg(a), depth[a.index()])
            }
            OpRecipe::Rotate(a, k) => {
                let a = pick(a);
                (Op::Rotate(a, k), depth[a.index()])
            }
            OpRecipe::Const(v) => (Op::Const { value: v.into() }, 0),
        };
        p.push(op);
        depth.push(d);
    }
    // Output: the last ciphertext value (guaranteed: inputs are cipher).
    let out = p
        .ids()
        .rev()
        .find(|&id| p.is_cipher(id))
        .expect("at least one cipher value");
    p.set_outputs(vec![out]);
    let inputs = (0..num_inputs)
        .map(|i| {
            (
                format!("in{i}"),
                (0..SLOTS)
                    .map(|s| ((s + i) as f64 * 0.11).sin() * 0.5)
                    .collect(),
            )
        })
        .collect();
    (p, inputs)
}

fn outputs_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.iter()
                .zip(y)
                .all(|(u, v)| (u - v).abs() <= 1e-9 * v.abs().max(1.0))
        })
}

#[test]
fn reserve_compiler_is_sound_on_random_programs() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x5E5EED ^ case);
        let recipes = random_recipes(&mut rng, 40);
        let num_inputs = rng.gen_range(1usize..4);
        let waterline = rng.gen_range(15u32..50);
        let mode = Mode::ALL[rng.gen_range(0usize..3)];
        let (program, inputs) = build_program(&recipes, num_inputs);
        let compiled = ReserveCompiler::with_mode(mode)
            .compile(&program, &CompileParams::new(waterline))
            .expect("bounded-depth programs always compile");
        // (a) validator accepts.
        assert!(
            compiled.scheduled.validate().is_ok(),
            "case {case}: validator rejected"
        );
        // (b) semantics preserved exactly.
        let reference = runtime::plain::execute(&program, &inputs);
        let got = runtime::plain::execute(&compiled.scheduled.program, &inputs);
        assert!(
            outputs_equal(&got, &reference),
            "case {case}: outputs diverged"
        );
    }
}

#[test]
fn baselines_are_sound_on_random_programs() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xBA5E ^ case);
        let recipes = random_recipes(&mut rng, 30);
        let num_inputs = rng.gen_range(1usize..3);
        let waterline = rng.gen_range(15u32..50);
        let (program, inputs) = build_program(&recipes, num_inputs);
        let params = CompileParams::new(waterline);
        let reference = runtime::plain::execute(&program, &inputs);

        let eva = EvaCompiler
            .compile(&program, &params)
            .expect("EVA compiles");
        assert!(
            eva.scheduled.validate().is_ok(),
            "case {case}: EVA validator rejected"
        );
        assert!(
            outputs_equal(
                &runtime::plain::execute(&eva.scheduled.program, &inputs),
                &reference
            ),
            "case {case}: EVA outputs diverged"
        );

        let hec = HecateCompiler {
            max_iterations: 20,
            patience: 20,
            seed: 9,
        }
        .compile(&program, &params)
        .expect("Hecate compiles");
        assert!(
            hec.scheduled.validate().is_ok(),
            "case {case}: Hecate validator rejected"
        );
        assert!(
            outputs_equal(
                &runtime::plain::execute(&hec.scheduled.program, &inputs),
                &reference
            ),
            "case {case}: Hecate outputs diverged"
        );
    }
}

#[test]
fn reserve_solutions_type_check() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x7CEC ^ case);
        let recipes = random_recipes(&mut rng, 40);
        let waterline = rng.gen_range(15u32..50);
        let redistribute = rng.gen_range(0u8..2) == 1;
        let (program, _) = build_program(&recipes, 2);
        let program = fhe_ir::passes::cleanup(&program);
        let params = CompileParams::new(waterline);
        let order =
            fhe_reserve::compiler::allocation_order(&program, &params, &CostModel::paper_table3());
        let sol = fhe_reserve::compiler::allocate(&program, &params, &order, redistribute);
        let errors = fhe_reserve::compiler::types::check(&program, &params, &sol);
        assert!(errors.is_empty(), "case {case}: type errors: {errors:?}");
    }
}

#[test]
fn text_roundtrip_on_random_programs() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x7E27 ^ case);
        let recipes = random_recipes(&mut rng, 30);
        let (program, _) = build_program(&recipes, 2);
        let text = fhe_ir::text::print(&program);
        let back = fhe_ir::text::parse(&text).expect("printer output parses");
        assert_eq!(
            fhe_ir::text::print(&back),
            text,
            "case {case}: roundtrip changed text"
        );
    }
}

#[test]
fn cleanup_preserves_semantics() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xC1EA ^ case);
        let recipes = random_recipes(&mut rng, 40);
        let (program, inputs) = build_program(&recipes, 2);
        let cleaned = fhe_ir::passes::cleanup(&program);
        assert!(
            cleaned.num_ops() <= program.num_ops(),
            "case {case}: cleanup grew the program"
        );
        let reference = runtime::plain::execute(&program, &inputs);
        let got = runtime::plain::execute(&cleaned, &inputs);
        assert!(
            outputs_equal(&got, &reference),
            "case {case}: cleanup changed semantics"
        );
        assert_eq!(
            fhe_ir::text::print(&fhe_ir::passes::cleanup(&cleaned)),
            fhe_ir::text::print(&cleaned),
            "case {case}: cleanup is not a fixpoint"
        );
    }
}

#[test]
fn frac_field_laws() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xF2AC ^ case);
        let mut frac = || {
            let n = rng.gen_range(-1000i64..1000);
            let d = rng.gen_range(1i64..60);
            Frac::ratio(n as i128, d as i128)
        };
        let (a, b, c) = (frac(), frac(), frac());
        assert_eq!(a + b, b + a, "case {case}");
        assert_eq!((a + b) + c, a + (b + c), "case {case}");
        assert_eq!(a * (b + c), a * b + a * c, "case {case}");
        assert_eq!(a - a, Frac::ZERO, "case {case}");
        // Ceiling and the paper's fractional part are consistent:
        // x = ⌈x⌉ − 1 + {x}.
        assert_eq!(
            Frac::from(a.ceil()) - Frac::from(1) + a.paper_frac(),
            a,
            "case {case}"
        );
        // {x} ∈ (0, 1].
        assert!(
            a.paper_frac() > Frac::ZERO && a.paper_frac() <= Frac::from(1),
            "case {case}: paper_frac out of range"
        );
    }
}

/// A magnitude in `[2^64, 2^66)`, beyond `u64`.
fn wide(rng: &mut StdRng) -> i128 {
    (1 << 64) + 3 * i128::from(rng.gen_range(0u64..u64::MAX))
}

/// `num / den` in lowest terms with `den > 0`, by Euclid on `i128`: the
/// reference [`Frac`]'s machine-word fast paths must agree with.
fn euclid(num: i128, den: i128) -> (i128, i128) {
    let (mut a, mut b) = (num, den);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    let g = a.abs();
    if g == 0 {
        return (0, 1);
    }
    let sign = if den < 0 { -1 } else { 1 };
    (sign * num / g, sign * den / g)
}

#[test]
fn frac_fast_paths_match_an_i128_euclid_reference() {
    // Each value is drawn from one of six kinds, so every fast path and the
    // `i128` fallback (a numerator or denominator beyond `u64`) meet each
    // other. At most one operand is wide, which keeps every product the
    // reference forms inside `i128`.
    let draw = |rng: &mut StdRng, kind: u32, den: i128| -> (i128, i128) {
        let mut small = |lo: i64, hi: i64| i128::from(rng.gen_range(lo..hi));
        let num = small(-1000, 1000);
        match kind {
            0 => (num, small(1, 240)),
            1 => (num, 1),
            2 => (0, small(1, 60)),
            3 => (num, den),
            // In [2^64, 2^66), beyond `u64`.
            4 => (
                (num.signum() | 1) * wide(rng),
                i128::from(rng.gen_range(1i64..1 << 10)),
            ),
            _ => (num, wide(rng)),
        }
    };
    for case in 0..4000u64 {
        let mut rng = StdRng::seed_from_u64(0xFA57 ^ case);
        let ka = rng.gen_range(0u32..6);
        let (an, ad) = draw(&mut rng, ka, 60);
        // The right operand shares the left's denominator one time in six,
        // unless that denominator is wide.
        let kb = if ka >= 4 {
            rng.gen_range(0u32..3)
        } else {
            rng.gen_range(0u32..6)
        };
        let (bn, bd) = draw(&mut rng, kb, ad);
        let (a, b) = (Frac::ratio(an, ad), Frac::ratio(bn, bd));
        let pair = |x: Frac| (x.numer(), x.denom());
        let (an, ad) = euclid(an, ad);
        let (bn, bd) = euclid(bn, bd);
        assert_eq!(pair(a), (an, ad), "case {case}: ratio");
        assert_eq!(pair(b), (bn, bd), "case {case}: ratio");
        assert_eq!(
            pair(a + b),
            euclid(an * bd + bn * ad, ad * bd),
            "case {case}: +"
        );
        assert_eq!(
            pair(a - b),
            euclid(an * bd - bn * ad, ad * bd),
            "case {case}: −"
        );
        assert_eq!(pair(a * b), euclid(an * bn, ad * bd), "case {case}: ×");
        if bn != 0 {
            assert_eq!(pair(a / b), euclid(an * bd, ad * bn), "case {case}: ÷");
        }
        assert_eq!(a.cmp(&b), (an * bd).cmp(&(bn * ad)), "case {case}: cmp");
        let floor = an.div_euclid(ad);
        let ceil = floor + i128::from(an.rem_euclid(ad) != 0);
        assert_eq!(a.floor(), floor, "case {case}: floor");
        assert_eq!(a.ceil(), ceil, "case {case}: ceil");
        assert_eq!(
            pair(a.paper_frac()),
            euclid(an + ad - ceil * ad, ad),
            "case {case}: paper_frac"
        );
    }
}

#[test]
fn reserve_is_invariant_under_rescale_in_schedules() {
    // For every rescale in a compiled schedule, the reserve
    // (level·R − scale) of input and output is identical — the paper's
    // central invariant.
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x2E5C ^ case);
        let recipes = random_recipes(&mut rng, 30);
        let waterline = rng.gen_range(15u32..50);
        let (program, _) = build_program(&recipes, 2);
        let compiled = ReserveCompiler::full()
            .compile(&program, &CompileParams::new(waterline))
            .unwrap();
        let map = compiled.scheduled.validate().unwrap();
        let sp = &compiled.scheduled.program;
        let r = Frac::from(compiled.scheduled.params.rescale_bits);
        for id in sp.ids() {
            if let Op::Rescale(src) = sp.op(id) {
                let res_in = Frac::from(map.level(*src)) * r - map.scale_bits(*src);
                let res_out = Frac::from(map.level(id)) * r - map.scale_bits(id);
                assert_eq!(
                    res_in, res_out,
                    "case {case}: rescale at {id} changed reserve"
                );
            }
        }
    }
}
