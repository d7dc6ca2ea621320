//! Exactness of the scalar path: a plain operand that holds one value in
//! every slot skips the encoder (no FFT, no NTTs) and becomes its residues,
//! and every result must be the bytes the encoder path gives for the same
//! splat — the encoder stays the oracle.
//!
//! * `scalar_ops_match_the_encoder_limb_for_limb`: cipher × scalar,
//!   cipher ± scalar and scalar − cipher at every level, for zero, signed
//!   zero, negative, tiny and large values.
//! * `large_upscales_match_an_encoded_identity`: upscale factors from 2 to
//!   past 2^64 against multiplying by an all-ones plaintext encoded at the
//!   factor.
//! * `extended_scalars_match_the_encoder_over_q_l_p` and
//!   `scalar_linear_terms_match_the_encoder`: the `Q_l·P` residues, a
//!   member with two scalar terms and one with a scalar and a vector term.
//! * `scalar_constants_run_byte_for_byte_as_splat_vectors`: the encrypted
//!   executor on a program with scalar constants against the same program
//!   with each constant spelled as a splat vector.

use std::collections::HashMap;

use fhe_reserve::ckks::{
    encrypt_symmetric, Ciphertext, CkksContext, CkksParams, Evaluator, KeyGenerator, PlainFactor,
    Plaintext,
};
use fhe_reserve::prelude::*;
use fhe_reserve::runtime::{execute_encrypted, ExecOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEVELS: usize = 4;
const SCALE: f64 = 1_073_741_824.0; // 2^30
const WEIGHT_SCALE: f64 = 33_554_432.0; // 2^25

/// Zero, signed zero, one, negative, tiny (rounds to zero at the scale),
/// small but nonzero, and large values of either sign.
const VALUES: [f64; 9] = [0.0, -0.0, 1.0, -1.5, 1e-13, 3.1e-8, 0.3, 1.25e6, -7.75e6];

fn context() -> CkksContext {
    CkksContext::new(CkksParams {
        poly_degree: 128,
        max_level: LEVELS,
        modulus_bits: 45,
        special_bits: 46,
        error_std: 3.2,
        threads: 1,
    })
}

fn encrypted(
    ctx: &CkksContext,
    kg: &KeyGenerator<'_>,
    level: usize,
    rng: &mut StdRng,
) -> Ciphertext {
    let values: Vec<f64> = (0..ctx.slots()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let pt = Evaluator::new(ctx, None, Default::default())
        .encoder()
        .encode(&values, SCALE, level);
    encrypt_symmetric(ctx, &kg.secret_key(), &pt, rng)
}

fn assert_same(got: &Ciphertext, want: &Ciphertext, what: &str) {
    assert_eq!(got.level, want.level, "{what}: level");
    assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{what}: scale");
    for i in 0..got.level {
        assert_eq!(got.c0.limb(i), want.c0.limb(i), "{what}: c0 limb {i}");
        assert_eq!(got.c1.limb(i), want.c1.limb(i), "{what}: c1 limb {i}");
    }
}

#[test]
fn scalar_ops_match_the_encoder_limb_for_limb() {
    let ctx = context();
    let mut rng = StdRng::seed_from_u64(0x5CA1_0001);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let ev = Evaluator::new(&ctx, None, Default::default());
    for level in 1..=LEVELS {
        let ct = encrypted(&ctx, &kg, level, &mut rng);
        let negated = ev.neg(&ct);
        for c in VALUES {
            let splat = vec![c; ctx.slots()];
            let minus: Vec<f64> = splat.iter().map(|x| -x).collect();
            let what = |op: &str| format!("{op} at level {level}, c = {c:e}");
            assert_same(
                &ev.mul_scalar(&ct, c, WEIGHT_SCALE),
                &ev.mul_plain_values(&ct, &splat, WEIGHT_SCALE),
                &what("cipher × scalar"),
            );
            assert_same(
                &ev.add_scalar(&ct, c),
                &ev.add_plain_values(&ct, &splat),
                &what("cipher + scalar"),
            );
            assert_same(
                &ev.add_scalar(&ct, -c),
                &ev.add_plain_values(&ct, &minus),
                &what("cipher − scalar"),
            );
            assert_same(
                &ev.add_scalar(&negated, c),
                &ev.add_plain_values(&negated, &splat),
                &what("scalar − cipher"),
            );
        }
    }
}

#[test]
fn large_upscales_match_an_encoded_identity() {
    let ctx = context();
    let mut rng = StdRng::seed_from_u64(0x5CA1_0002);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let ev = Evaluator::new(&ctx, None, Default::default());
    let factors = [
        2.0,
        7.0,
        2f64.powi(40),
        2f64.powi(53) - 1.0,
        2f64.powi(53),
        2f64.powi(53) + 2.0,
        3.0 * 2f64.powi(60),
        2f64.powi(64),
        1.5 * 2f64.powi(64),
        2f64.powi(80),
    ];
    let ones = vec![1.0; ctx.slots()];
    for level in 1..=LEVELS {
        let ct = encrypted(&ctx, &kg, level, &mut rng);
        for factor in factors {
            assert_same(
                &ev.upscale(&ct, factor),
                &ev.mul_plain_values(&ct, &ones, factor),
                &format!("upscale by {factor:e} at level {level}"),
            );
        }
    }
}

#[test]
fn extended_scalars_match_the_encoder_over_q_l_p() {
    let ctx = context();
    let ev = Evaluator::new(&ctx, None, Default::default());
    let enc = ev.encoder();
    let alpha = ctx.specials().len();
    for level in 1..=LEVELS {
        for c in VALUES {
            let s = enc.encode_scalar_extended(c, WEIGHT_SCALE, level);
            let pt = enc.encode_extended_in(ev.pool(), &vec![c; ctx.slots()], WEIGHT_SCALE, level);
            let residues = s.scalar.residues();
            assert_eq!(residues.len(), level + alpha);
            for (i, &r) in residues.iter().enumerate() {
                assert!(
                    pt.poly.limb(i).iter().all(|&x| x == r),
                    "c = {c:e}, level {level}, limb {i}"
                );
            }
            pt.poly.recycle(ev.pool());
        }
    }
}

#[test]
fn scalar_linear_terms_match_the_encoder() {
    let ctx = context();
    let mut rng = StdRng::seed_from_u64(0x5CA1_0003);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let ev = Evaluator::new(&ctx, None, kg.galois_keys([1i64], &mut rng));
    let enc = ev.encoder();
    let pool = ev.pool();
    let sum = |a: Plaintext, b: Plaintext| {
        let mut a = a;
        a.poly.add_assign(&ctx, &b.poly);
        a
    };
    let splat = |c: f64| vec![c; ctx.slots()];
    let vector: Vec<f64> = (0..ctx.slots()).map(|i| (i as f64 * 0.37).sin()).collect();
    for level in 1..=LEVELS {
        let ct = encrypted(&ctx, &kg, level, &mut rng);
        let digits = ev.decompose_for_rotations(&ct);
        let accumulate = |factor: PlainFactor<'_>| {
            let mut acc = ev.linear_accumulator(level);
            ev.try_accumulate_rotation(&ct, &digits, 1, &mut [(&mut acc, factor)])
                .expect("a key for step 1");
            ev.finish_accumulator(acc)
        };
        for (a, b) in [(0.75, -2.5e6), (-1.5, 3.1e-8), (0.3, 0.3), (1e-13, -0.0)] {
            // Two scalar terms: their residues summed.
            let mut scalars = enc.encode_scalar_extended(a, WEIGHT_SCALE, level);
            let more = enc.encode_scalar_extended(b, WEIGHT_SCALE, level);
            scalars.scalar.add_assign(&ctx, &more.scalar);
            let encoded = sum(
                enc.encode_extended_in(pool, &splat(a), WEIGHT_SCALE, level),
                enc.encode_extended_in(pool, &splat(b), WEIGHT_SCALE, level),
            );
            assert_same(
                &accumulate(PlainFactor::Scalar(&scalars)),
                &accumulate(PlainFactor::Encoded(&encoded)),
                &format!("two scalar terms {a:e} + {b:e} at level {level}"),
            );
            // A scalar and a vector term: the scalar added into the vector's
            // encoding.
            let mut mixed = enc.encode_extended_in(pool, &vector, WEIGHT_SCALE, level);
            let scalar = enc.encode_scalar_extended(a, WEIGHT_SCALE, level);
            mixed.poly.add_scalar_assign(&ctx, &scalar.scalar);
            let both = sum(
                enc.encode_extended_in(pool, &vector, WEIGHT_SCALE, level),
                enc.encode_extended_in(pool, &splat(a), WEIGHT_SCALE, level),
            );
            assert_same(
                &accumulate(PlainFactor::Encoded(&mixed)),
                &accumulate(PlainFactor::Encoded(&both)),
                &format!("a scalar {a:e} and a vector term at level {level}"),
            );
        }
        ev.recycle_decomposition(digits);
    }
}

/// A program over one input exercising every scalar site of the executor:
/// cipher × scalar, cipher ± scalar, scalar − cipher, and a linear
/// combination whose members carry two scalar terms, or a scalar and a
/// vector term. `constant` makes each constant, as a scalar or a splat.
fn program(slots: usize, constant: impl Fn(&Builder, f64) -> Expr) -> Program {
    let b = Builder::new("scalars", slots);
    let x = b.input("x");
    let k = |c: f64| constant(&b, c);
    let weights: Vec<f64> = (0..slots).map(|i| ((i % 7) as f64 - 3.0) * 0.1).collect();
    let scaled = x.clone() * k(0.75) + k(-0.3);
    let minus = k(2.5) - x.clone() * k(1.5);
    let shifted = x.clone() - k(0.125);
    let r1 = x.clone().rotate(1);
    let r2 = x.clone().rotate(2);
    let combination = b.sum([
        r1.clone() * k(0.5),
        r1 * k(-0.25),
        r2.clone() * k(0.375),
        r2 * b.constant(weights),
        x * k(0.625),
    ]);
    b.finish(vec![scaled, minus, shifted, combination])
}

#[test]
fn scalar_constants_run_byte_for_byte_as_splat_vectors() {
    let slots = 64;
    let scalars = program(slots, |b, c| b.constant(c));
    let splats = program(slots, |b, c| b.constant(vec![c; slots]));
    let mut params = CompileParams::new(30);
    params.output_reserve_bits = 4;
    let inputs: HashMap<String, Vec<f64>> = [(
        "x".to_string(),
        (0..slots).map(|i| (i as f64 * 0.21).cos()).collect(),
    )]
    .into();
    let options = ExecOptions {
        poly_degree: 2 * slots,
        seed: 11,
        threads: 1,
        ..ExecOptions::default()
    };
    let run = |p: &Program| {
        let compiled = ReserveCompiler::full()
            .compile(p, &params)
            .expect("compiles");
        let report = execute_encrypted(&compiled.scheduled, &inputs, &options).expect("runs");
        assert!(report.linear_groups > 0, "the combination forms a group");
        report.outputs
    };
    let (got, want) = (run(&scalars), run(&splats));
    let bits = |o: &[Vec<f64>]| -> Vec<Vec<u64>> {
        o.iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&got), bits(&want));
    let reference = fhe_reserve::runtime::plain::execute(&scalars, &inputs);
    let err = fhe_reserve::runtime::max_abs_diff(&got, &reference);
    assert!(err < 1e-2, "decrypted error {err}");
}
