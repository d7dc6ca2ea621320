//! Hybrid key switching in `fhe-ckks`: `⌈l/α⌉` digits over `α = ⌈L/3⌉`
//! special primes.
//!
//! * `alpha_one_outputs_match_the_recorded_digest` pins the bytes of
//!   `rotate`, `conjugate`, `mul`, `rotate_hoisted` and a lazily keyed
//!   rotation at `N = 256`, `L = 2` (α = 1) to a digest recorded on the
//!   commit before grouped digits existed: at `L ≤ 3` the key switch is the
//!   single-prime one, bit for bit.
//! * `decrypted_key_switch_error_stays_under_the_per_op_noise_bound` runs
//!   every key-switched op at every level of chains `L = 1..=10` (α = 1, 1,
//!   1, 2, 2, 2, 3, 3, 3, 4), so every partial last digit, and holds the
//!   decrypted error to the noise domain's per-op term.
//! * `memory_closed_forms_match_the_backend` holds `fhe_ir::memory`'s copy
//!   of the key and digit sizes to the backend's objects for `L = 1..=16`.
//!
//! The limb-exact oracle of the same ops (ModUp, inner product and ModDown
//! rebuilt on reference kernels) is `fhe-ckks`'s own
//! `galois_and_relinearization_match_the_eager_oracle`.

use std::sync::Arc;

use fhe_reserve::analysis::noise::DEFAULT_NOISE_BITS;
use fhe_reserve::ckks::poly::RnsPoly;
use fhe_reserve::ckks::{
    decomposition_limbs, decrypt, encrypt_symmetric, ksw_key_limbs, rotation_to_galois,
    special_prime_count, Ciphertext, CkksContext, CkksParams, Evaluator, KeyCache, KeyGenerator,
};
use fhe_reserve::ir::memory;
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
        0x96c6_9fb7_97f1_c830,
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
        let relin = kg.relin_key(&mut rng);
        let key_limbs = memory::ksw_key_limbs(big_l as u64);
        assert_eq!(key_limbs as usize, ksw_key_limbs(big_l), "L = {big_l}");
        assert_eq!(relin.byte_size(), key_limbs as usize * N * 8, "L = {big_l}");
        let ev = Evaluator::new(&ctx, Some(relin), Default::default());
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
