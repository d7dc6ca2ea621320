//! Hybrid key switching in `fhe-ckks`: `⌈l/α⌉` digits over `α = ⌈L/3⌉`
//! special primes.
//!
//! * `alpha_one_outputs_match_the_recorded_digest` pins the bytes of
//!   `rotate`, `conjugate`, `mul`, `rotate_hoisted` and a lazily keyed
//!   rotation at `N = 256`, `L = 2` (α = 1). At `L ≤ 3` the key switch is
//!   the single-prime one: the first digest was recorded on the commit
//!   before grouped digits existed. It was re-recorded once, when keys
//!   began to store their uniform halves as seeds and encryption to expand
//!   its mask from one: the random draws moved, the arithmetic did not
//!   (the limb-exact oracle named below checks it at `L = 1..=3` too).
//! * `decrypted_key_switch_error_stays_under_the_per_op_noise_bound` runs
//!   every key-switched op at every level of chains `L = 1..=10` (α = 1, 1,
//!   1, 2, 2, 2, 3, 3, 3, 4), so every partial last digit, and holds the
//!   decrypted error to the noise domain's per-op term.
//! * `memory_closed_forms_match_the_backend` holds `fhe_ir::memory`'s copy
//!   of the key and digit sizes to the backend's objects for `L = 1..=16`
//!   and every key level `l_k ≤ L`. Both count a key's `k0` limbs and
//!   neither its seeds.
//! * `level_sized_keys_are_the_full_keys_cut_and_switch_to_the_same_bytes`
//!   holds every level-sized key to the full key restricted, limb for limb,
//!   and every key-switched op at or below its level to the full key's
//!   output bytes (`L = 1..=10`).
//! * `a_key_cache_deepens_on_demand_to_the_same_bytes` asks the lazy cache
//!   for a shallow key, then a deep one, with and without a one-key budget.
//! * `eager_program_keys_are_exactly_the_static_model` holds the compile
//!   report's static `key_bytes` to the key material a session generates
//!   for the schedule, on the whole suite under all three compilers.
//!
//! The limb-exact oracle of the same ops (ModUp, inner product and ModDown
//! rebuilt on reference kernels) is `fhe-ckks`'s own
//! `galois_and_relinearization_match_the_eager_oracle`.

use std::sync::Arc;

use fhe_reserve::analysis::noise::DEFAULT_NOISE_BITS;
use fhe_reserve::ckks::poly::RnsPoly;
use fhe_reserve::ckks::{
    decomposition_limbs, decrypt, encrypt_symmetric, ksw_key_limbs, rotation_to_galois,
    special_prime_count, Ciphertext, CkksContext, CkksParams, Encoder, Evaluator, KeyCache,
    KeyGenerator,
};
use fhe_reserve::ir::memory;
use fhe_reserve::prelude::*;
use fhe_reserve::runtime::{ExecOptions, KeyPolicy, SessionKeys};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn context(poly_degree: usize, max_level: usize) -> CkksContext {
    CkksContext::new(CkksParams {
        poly_degree,
        max_level,
        modulus_bits: 45,
        special_bits: 46,
        error_std: 3.2,
        threads: 1,
    })
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn ct_words(ct: &Ciphertext) -> Vec<u64> {
    let mut words = vec![ct.level as u64, ct.scale.to_bits()];
    for poly in [&ct.c0, &ct.c1] {
        for i in 0..poly.level() {
            words.extend_from_slice(poly.limb(i));
        }
    }
    words
}

#[test]
fn alpha_one_outputs_match_the_recorded_digest() {
    let ctx = context(256, 2);
    assert_eq!(ctx.specials().len(), 1);
    let mut rng = StdRng::seed_from_u64(0xA1FA_0001);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.secret_key();
    let relin = kg.relin_key(&mut rng);
    let galois = kg.galois_keys_with_conjugation([1i64, 2, 5, -3], &mut rng);
    let ev = Evaluator::new(&ctx, Some(relin), galois);
    let lazy = Evaluator::new(&ctx, None, Default::default())
        .with_key_cache_handle(Arc::new(KeyCache::new(kg.secret_key(), 0xCAFE, None)));
    let slots = ctx.slots();
    let a: Vec<f64> = (0..slots).map(|i| ((i % 11) as f64 - 5.0) * 0.1).collect();
    let b: Vec<f64> = (0..slots).map(|i| ((i % 7) as f64) * 0.15).collect();
    let scale = 2f64.powi(40);
    let top_a = encrypt_symmetric(&ctx, &sk, &ev.encoder().encode(&a, scale, 2), &mut rng);
    let top_b = encrypt_symmetric(&ctx, &sk, &ev.encoder().encode(&b, scale, 2), &mut rng);
    let mut words = Vec::new();
    for (ca, cb) in [
        (top_a.clone(), top_b.clone()),
        (ev.mod_switch(&top_a), ev.mod_switch(&top_b)),
    ] {
        let mut outs = vec![
            ev.rotate(&ca, 1),
            ev.rotate(&ca, -3),
            ev.conjugate(&ca),
            ev.mul(&ca, &cb),
            lazy.rotate(&ca, 7),
        ];
        outs.extend(ev.rotate_hoisted(&ca, &[1, 2, 5]));
        for out in &outs {
            words.extend(ct_words(out));
        }
    }
    assert_eq!(
        digest(words),
        0x481b_0376_aa1d_483f,
        "the α = 1 key switch no longer produces the single-prime bytes"
    );
}

/// `‖decrypt(got) − want‖₁` over the coefficients, checking that the
/// difference is one small integer polynomial on every limb.
fn l1_error(ctx: &CkksContext, got: &RnsPoly, want: &RnsPoly) -> i64 {
    let mut diff = got.clone();
    diff.sub_assign(ctx, want);
    diff.to_coeff(ctx);
    let mut l1 = 0;
    for k in 0..ctx.degree() {
        let e = ctx.moduli()[0].center(diff.limb(0)[k]);
        for i in 1..diff.level() {
            assert_eq!(
                ctx.moduli()[i].center(diff.limb(i)[k]),
                e,
                "limb {i}, coefficient {k}"
            );
        }
        l1 += e.abs();
    }
    l1
}

#[test]
fn decrypted_key_switch_error_stays_under_the_per_op_noise_bound() {
    // A coefficient error of ℓ1 norm `E` moves every decoded slot of a
    // ciphertext at scale `m` by at most `E / m`; the noise domain charges
    // each key switch `2^DEFAULT_NOISE_BITS / m`.
    let bound = 2f64.powf(DEFAULT_NOISE_BITS) as i64;
    let mut worst = 0;
    for big_l in 1..=10 {
        let ctx = context(256, big_l);
        assert_eq!(ctx.specials().len(), special_prime_count(big_l));
        let mut rng = StdRng::seed_from_u64(0x5EED + big_l as u64);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let ev = Evaluator::new(
            &ctx,
            Some(kg.relin_key(&mut rng)),
            kg.galois_keys_with_conjugation([1i64, 3], &mut rng),
        );
        let values: Vec<f64> = (0..ctx.slots())
            .map(|i| ((i % 9) as f64 - 4.0) * 0.2)
            .collect();
        for level in 1..=big_l {
            let pt = ev.encoder().encode(&values, 2f64.powi(30), level);
            let a = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
            let b = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
            let (ma, mb) = (decrypt(&ctx, &sk, &a).poly, decrypt(&ctx, &sk, &b).poly);
            let permuted = |g: usize| {
                let mut p = ma.clone();
                p.automorphism_reference(&ctx, g);
                p
            };
            let (r1, r3) = (rotation_to_galois(&ctx, 1), rotation_to_galois(&ctx, 3));
            let hoisted = ev.rotate_hoisted(&a, &[3, 1]);
            let cases = [
                ("rotate", ev.rotate(&a, 3), permuted(r3)),
                (
                    "conjugate",
                    ev.conjugate(&a),
                    permuted(2 * ctx.degree() - 1),
                ),
                ("hoisted 3", hoisted[0].clone(), permuted(r3)),
                ("hoisted 1", hoisted[1].clone(), permuted(r1)),
                ("mul", ev.mul(&a, &b), ma.mul(&ctx, &mb)),
            ];
            for (op, ct, want) in cases {
                let e = l1_error(&ctx, &decrypt(&ctx, &sk, &ct).poly, &want);
                assert!(
                    e <= bound,
                    "L = {big_l}, level {level}, {op}: ‖e‖₁ = {e} > 2^{DEFAULT_NOISE_BITS}"
                );
                worst = worst.max(e);
            }
        }
    }
    assert!(worst > 0, "the key switch adds some noise");
}

#[test]
fn memory_closed_forms_match_the_backend() {
    const N: usize = 64;
    for big_l in 1..=16usize {
        let ctx = context(N, big_l);
        let mut rng = StdRng::seed_from_u64(big_l as u64);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        for key_level in 0..=big_l {
            let what = format!("L = {big_l}, l_k = {key_level}");
            let key_limbs = memory::ksw_key_limbs(key_level as u64, big_l as u64);
            assert_eq!(
                key_limbs as usize,
                ksw_key_limbs(key_level, big_l),
                "{what}"
            );
            let key = kg.relin_key_at(key_level, &mut rng);
            assert_eq!(key.key().level(), key_level, "{what}");
            assert_eq!(key.key().byte_size(), key_limbs as usize * N * 8, "{what}");
        }
        let ev = Evaluator::new(&ctx, Some(kg.relin_key(&mut rng)), Default::default());
        let sk = kg.secret_key();
        for level in 1..=big_l {
            let pt = ev.encoder().encode(&[0.5], 2f64.powi(20), level);
            let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
            let digits = ev.decompose_for_rotations(&ct);
            let limbs = memory::decomposition_limbs(level as u64, big_l as u64);
            assert_eq!(limbs as usize, decomposition_limbs(level, big_l));
            assert_eq!(
                digits.byte_size(),
                limbs as usize * N * 8,
                "L = {big_l}, level {level}"
            );
            ev.recycle_decomposition(digits);
        }
    }
}

#[test]
fn level_sized_keys_are_the_full_keys_cut_and_switch_to_the_same_bytes() {
    for big_l in 1..=10usize {
        let ctx = context(256, big_l);
        let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(0x1E5E + big_l as u64));
        let sk = kg.secret_key();
        let keygen_seed = 0xD1CE + big_l as u64;
        let mut rng = StdRng::seed_from_u64(keygen_seed);
        let relin = kg.relin_key(&mut rng);
        let full = kg.galois_keys_with_conjugation([1i64, 3], &mut rng);
        let full_ev = Evaluator::new(&ctx, Some(relin.clone()), full.clone());
        let mut enc = StdRng::seed_from_u64(0xE4C);
        let values: Vec<f64> = (0..ctx.slots()).map(|i| (i % 13) as f64 * 0.1).collect();
        // Per level: the operands and the full keys' outputs.
        let expected: Vec<(Ciphertext, Ciphertext, Vec<Vec<u64>>)> = (1..=big_l)
            .map(|level| {
                let pt = full_ev.encoder().encode(&values, 2f64.powi(30), level);
                let a = encrypt_symmetric(&ctx, &sk, &pt, &mut enc);
                let b = encrypt_symmetric(&ctx, &sk, &pt, &mut enc);
                let outs = switched(&full_ev, &a, &b);
                (a, b, outs)
            })
            .collect();
        for key_level in 1..=big_l {
            let what = format!("L = {big_l}, l_k = {key_level}");
            // The same keygen stream, asked for level-sized keys.
            let mut rng = StdRng::seed_from_u64(keygen_seed);
            let sized_relin = kg.relin_key_at(key_level, &mut rng);
            let sized = kg.galois_keys_at([(1i64, key_level), (3, key_level)], &mut rng);
            assert_eq!(
                sized_relin.key(),
                &relin.key().restricted(&ctx, key_level),
                "{what}: relin"
            );
            assert_eq!(sized.elements().count(), 2, "{what}");
            for g in sized.elements() {
                let want = full.get(g).expect("full key").restricted(&ctx, key_level);
                assert_eq!(sized.get(g), Some(&want), "{what}: element {g}");
            }
            // The conjugation key is cut from the full one; the rotation
            // keys are the keygen's, which the loop above equated.
            let ev = Evaluator::new(&ctx, Some(sized_relin), full.restricted(&ctx, key_level));
            for (level, (a, b, want)) in expected.iter().enumerate().take(key_level) {
                assert_eq!(&switched(&ev, a, b), want, "{what}, op level {}", level + 1);
            }
        }
    }
}

/// The bytes of every key-switched op on `a` (and `b`): rotation,
/// conjugation, relinearizing mul and a hoisted pair of rotations.
fn switched(ev: &Evaluator<'_>, a: &Ciphertext, b: &Ciphertext) -> Vec<Vec<u64>> {
    let mut outs = vec![ev.rotate(a, 3), ev.conjugate(a), ev.mul(a, b)];
    outs.extend(ev.rotate_hoisted(a, &[1, 3]));
    outs.iter().map(ct_words).collect()
}

#[test]
fn a_key_cache_deepens_on_demand_to_the_same_bytes() {
    // α = 2 at L = 6: a level-2 key holds one digit pair, a level-5 key
    // three, the last partial.
    let ctx = context(256, 6);
    let mut rng = StdRng::seed_from_u64(0xDEE9);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.secret_key();
    let encode = |level| Encoder::new(&ctx).encode(&[0.25, -0.5, 0.75], 2f64.powi(30), level);
    let shallow = encrypt_symmetric(&ctx, &sk, &encode(2), &mut rng);
    let deep = encrypt_symmetric(&ctx, &sk, &encode(5), &mut rng);
    let deep_key = ksw_key_limbs(5, 6) * ctx.degree() * 8;
    for budget in [None, Some(deep_key)] {
        let run = |order: [&Ciphertext; 2]| {
            let cache = Arc::new(KeyCache::new(sk.clone(), 0xCAFE, budget));
            let ev =
                Evaluator::new(&ctx, None, Default::default()).with_key_cache_handle(cache.clone());
            let outs: Vec<Vec<u64>> = order.iter().map(|ct| ct_words(&ev.rotate(ct, 1))).collect();
            (outs, cache.stats())
        };
        let (up, up_stats) = run([&shallow, &deep]);
        assert_eq!((up_stats.misses, up_stats.hits), (2, 0), "{budget:?}");
        assert_eq!(
            up_stats.bytes, deep_key,
            "{budget:?}: only the deep key stays"
        );
        assert_eq!(up_stats.peak_bytes, deep_key, "{budget:?}: never both");
        let (mut down, down_stats) = run([&deep, &shallow]);
        down.reverse();
        assert_eq!((down_stats.misses, down_stats.hits), (1, 1), "{budget:?}");
        assert_eq!(down_stats.bytes, deep_key, "{budget:?}");
        assert_eq!(
            up, down,
            "{budget:?}: the order levels are asked in is invisible"
        );
    }
}

#[test]
fn eager_program_keys_are_exactly_the_static_model() {
    let compilers: Vec<Box<dyn ScaleCompiler>> = vec![
        Box::new(EvaCompiler),
        Box::new(HecateCompiler {
            max_iterations: 100,
            patience: 100,
            seed: 11,
        }),
        Box::new(ReserveCompiler::full()),
    ];
    let params = CompileParams::new(30);
    for workload in suite(Size::Test) {
        for compiler in &compilers {
            let what = format!("{} on {}", compiler.name(), workload.name);
            let out = compiler
                .compile(&workload.program, &params)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let options = ExecOptions {
                poly_degree: 2 * workload.program.slots(),
                seed: 0x5EED,
                threads: 1,
                keys: KeyPolicy::EagerProgram,
                rotation_hoisting: true,
            };
            let keys = SessionKeys::for_schedule(&out.scheduled, &options)
                .unwrap_or_else(|e| panic!("{what}: {e:?}"));
            assert_eq!(
                keys.key_bytes(),
                out.report.memory.key_bytes,
                "{what}: generated vs static key bytes"
            );
        }
    }
}
