//! Property-style tests of the RNS-CKKS scheme: homomorphism laws over
//! random data, round-trips, and noise growth sanity.
//!
//! The workspace builds offline (no proptest), so each property runs as a
//! deterministic seeded loop: every case is reproducible from its printed
//! case index.

use fhe_ckks::{
    decrypt, encrypt_symmetric, CkksContext, CkksParams, Encoder, Evaluator, GaloisKeys,
    KeyGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ctx() -> CkksContext {
    CkksContext::new(CkksParams {
        poly_degree: 128,
        max_level: 3,
        modulus_bits: 45,
        special_bits: 46,
        error_std: 3.2,
        threads: 1,
    })
}

fn random_values(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-4.0f64..4.0)).collect()
}

#[test]
fn encode_decode_roundtrip() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xE0DE ^ case);
        let values = random_values(&mut rng, 64);
        let level = rng.gen_range(1usize..3);
        let ctx = ctx();
        let enc = Encoder::new(&ctx);
        let pt = enc.encode(&values, 2f64.powi(30), level);
        let back = enc.decode(&pt);
        for (a, b) in back.iter().zip(&values) {
            assert!((a - b).abs() < 1e-6, "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn homomorphic_add_mul() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xADD3 ^ case);
        let xs = random_values(&mut rng, 64);
        let ys = random_values(&mut rng, 64);
        let ctx = ctx();
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let relin = kg.relin_key(&mut rng);
        let ev = Evaluator::new(&ctx, Some(relin), GaloisKeys::default());
        let scale = 2f64.powi(40);
        let ca = encrypt_symmetric(&ctx, &sk, &ev.encoder().encode(&xs, scale, 2), &mut rng);
        let cb = encrypt_symmetric(&ctx, &sk, &ev.encoder().encode(&ys, scale, 2), &mut rng);

        let sum = ev.encoder().decode(&decrypt(&ctx, &sk, &ev.add(&ca, &cb)));
        let prod = ev
            .encoder()
            .decode(&decrypt(&ctx, &sk, &ev.rescale(&ev.mul(&ca, &cb))));
        for i in 0..64 {
            assert!(
                (sum[i] - (xs[i] + ys[i])).abs() < 1e-3,
                "case {case}: add slot {i}"
            );
            assert!(
                (prod[i] - xs[i] * ys[i]).abs() < 1e-2,
                "case {case}: mul slot {i}: {} vs {}",
                prod[i],
                xs[i] * ys[i]
            );
        }
    }
}

#[test]
fn rotation_composes() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x207A7E ^ case);
        let xs = random_values(&mut rng, 64);
        let k1 = rng.gen_range(0i64..8);
        let k2 = rng.gen_range(0i64..8);
        let ctx = ctx();
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let gk = kg.galois_keys([k1, k2, k1 + k2], &mut rng);
        let ev = Evaluator::new(&ctx, None, gk);
        let ca = encrypt_symmetric(
            &ctx,
            &sk,
            &ev.encoder().encode(&xs, 2f64.powi(35), 1),
            &mut rng,
        );
        // rotate(rotate(x, k1), k2) == rotate(x, k1 + k2)
        let double = ev.rotate(&ev.rotate(&ca, k1), k2);
        let single = ev.rotate(&ca, k1 + k2);
        let d = ev.encoder().decode(&decrypt(&ctx, &sk, &double));
        let s = ev.encoder().decode(&decrypt(&ctx, &sk, &single));
        for i in 0..16 {
            assert!(
                (d[i] - s[i]).abs() < 1e-1,
                "case {case}: slot {i}: {} vs {}",
                d[i],
                s[i]
            );
        }
    }
}

#[test]
fn symmetric_encryption_roundtrips() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x9B ^ case);
        let xs = random_values(&mut rng, 32);
        let ctx = ctx();
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let enc = Encoder::new(&ctx);
        let pt = enc.encode(&xs, 2f64.powi(35), 1);
        let c_sym = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
        let d_sym = enc.decode(&decrypt(&ctx, &sk, &c_sym));
        for i in 0..32 {
            assert!(
                (d_sym[i] - xs[i]).abs() < 1e-3,
                "case {case}: symmetric slot {i}"
            );
        }
    }
}

#[test]
fn barrett_and_shoup_agree_with_u128_reference() {
    use fhe_ckks::modular::Modulus;
    // Chain-prime sizes the backend actually uses, plus a modulus just
    // under the 2^62 headroom bound where Barrett/Shoup error terms are
    // tightest.
    let moduli = [
        fhe_ckks::primes::ntt_primes(45, 1 << 7, 1)[0],
        fhe_ckks::primes::ntt_primes(50, 1 << 12, 1)[0],
        fhe_ckks::primes::ntt_primes(60, 1 << 13, 1)[0],
        (1u64 << 62) - 57,
    ];
    for q in moduli {
        let m = Modulus::new(q);
        let mut rng = StdRng::seed_from_u64(0xBA2_2E77 ^ q);
        let boundary = [0u64, 1, 2, q / 2, q - 2, q - 1];
        // Boundary operands cross-paired, then 10k random pairs.
        let pairs = boundary
            .iter()
            .flat_map(|&a| boundary.iter().map(move |&b| (a, b)))
            .chain((0..10_000).map(|_| (rng.gen::<u64>() % q, rng.gen::<u64>() % q)));
        for (case, (a, b)) in pairs.enumerate() {
            let expect = m.mul_reference(a, b);
            assert_eq!(m.mul(a, b), expect, "q={q} case {case}: barrett {a}*{b}");
            let b_shoup = m.shoup(b);
            assert_eq!(
                m.mul_shoup(a, b, b_shoup),
                expect,
                "q={q} case {case}: shoup {a}*{b}"
            );
        }
    }
}

#[test]
fn harvey_ntt_matches_reference_all_degrees() {
    use fhe_ckks::modular::Modulus;
    use fhe_ckks::ntt::NttTable;
    for log_n in 4..=13u32 {
        let n = 1usize << log_n;
        let q = fhe_ckks::primes::ntt_primes(50, n, 1)[0];
        let m = Modulus::new(q);
        let t = NttTable::new(m, n);
        let mut rng = StdRng::seed_from_u64(0x4172 ^ u64::from(log_n));
        let orig: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q).collect();
        let mut fast = orig.clone();
        let mut reference = orig.clone();
        t.forward(&mut fast);
        t.forward_reference(&mut reference);
        assert_eq!(fast, reference, "forward n={n}");
        t.inverse(&mut fast);
        t.inverse_reference(&mut reference);
        assert_eq!(fast, reference, "inverse n={n}");
        assert_eq!(fast, orig, "roundtrip n={n}");
    }
}

#[test]
fn modswitch_preserves_values() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x305 ^ case);
        let xs = random_values(&mut rng, 32);
        let ctx = ctx();
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let ev = Evaluator::new(&ctx, None, GaloisKeys::default());
        let ca = encrypt_symmetric(
            &ctx,
            &sk,
            &ev.encoder().encode(&xs, 2f64.powi(35), 3),
            &mut rng,
        );
        let dropped = ev.mod_switch(&ev.mod_switch(&ca));
        assert_eq!(dropped.level, 1, "case {case}");
        let d = ev.encoder().decode(&decrypt(&ctx, &sk, &dropped));
        for i in 0..32 {
            assert!((d[i] - xs[i]).abs() < 1e-3, "case {case}: slot {i}");
        }
    }
}
