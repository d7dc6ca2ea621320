//! Exactness of the float↔RNS boundary of `fhe-ckks`.
//!
//! The conversion between `f64` coefficients and RNS residues is exact
//! integer arithmetic, so it has one right answer per input:
//!
//! * `float_to_rns_matches_a_big_integer_oracle` holds
//!   [`RnsPoly::from_real_coeffs`] to an oracle written here in `u128`
//!   arithmetic (hardware `%`, doubling for the power of two — nothing
//!   shared with `Modulus`), over 45-, 50- and 61-bit chains.
//! * `encode_limbs_match_the_recorded_digests` and
//!   `decode_values_match_the_recorded_bits` compare against digests
//!   recorded from the commit *before* the conversion was rebuilt, so the
//!   rebuilt boundary is bit-identical to the one every other golden,
//!   ciphertext and benchmark digest was produced with. The encoder's FFT is
//!   part of what they pin: regenerate (`UPDATE_GOLDEN=1 cargo test --test
//!   encoding_exactness`) only for a change that means to move those bits.

use fhe_ckks::poly::RnsPoly;
use fhe_ckks::{CkksContext, CkksParams, Encoder, Plaintext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn context(poly_degree: usize, max_level: usize, modulus_bits: u32) -> CkksContext {
    CkksContext::new(CkksParams {
        poly_degree,
        max_level,
        modulus_bits,
        special_bits: modulus_bits.min(60) + 1,
        error_std: 3.2,
        threads: 1,
    })
}

/// `round(x) mod q` in `[0, q)`, by big-integer arithmetic on the value
/// itself: halve exactly until the magnitude fits a `u128`, reduce with the
/// hardware `%`, and double the residue back up.
fn oracle(x: f64, q: u64) -> u64 {
    let r = x.round();
    let q = q as u128;
    let mut mag = r.abs();
    let mut doublings = 0u32;
    // Dividing by a power of two is exact, and a magnitude ≥ 2^100 has
    // binary exponent ≥ 48, so it stays an integer.
    while mag >= 2f64.powi(100) {
        mag /= 2f64.powi(32);
        doublings += 32;
    }
    assert_eq!(mag.fract(), 0.0, "halving kept {x:e} an integer");
    let mut residue = (mag as u128) % q;
    for _ in 0..doublings {
        residue = (residue * 2) % q;
    }
    if r < 0.0 && residue != 0 {
        residue = q - residue;
    }
    residue as u64
}

/// The values every prime is tested on: the edges of the mantissa and of
/// the word, and random mantissas at every binary exponent up to 2^250 —
/// far past `Q/2` of the two-prime chains below.
fn probe_values(seed: u64) -> Vec<f64> {
    let mut values = vec![0.0, -0.0, 1.0, -1.0, 0.4, -0.4, 0.5, -0.5, 1.5, -2.5];
    for k in [52, 53, 54, 62, 63, 64, 80, 200] {
        let p = 2f64.powi(k);
        // Where 2^k ∓ 1 is no `f64`, the neighbours are the adjacent floats.
        let below = if k <= 53 {
            p - 1.0
        } else {
            f64::from_bits(p.to_bits() - 1)
        };
        let above = if k <= 52 {
            p + 1.0
        } else {
            f64::from_bits(p.to_bits() + 1)
        };
        for v in [below, p, above] {
            values.extend([v, -v]);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for exp in 0..=250 {
        for _ in 0..40 {
            // A full 53-bit mantissa with its top bit at 2^exp; below 2^52
            // that leaves fractional bits for the rounding to resolve.
            let mant = (1u64 << 52) | (rng.gen::<u64>() >> 12);
            let v = mant as f64 * 2f64.powi(exp - 52);
            values.push(if rng.gen::<bool>() { v } else { -v });
        }
    }
    values
}

#[test]
fn float_to_rns_matches_a_big_integer_oracle() {
    const N: usize = 2048;
    for bits in [45u32, 50, 61] {
        let ctx = context(N, 2, bits);
        let values = probe_values(0xF10A7 + u64::from(bits));
        assert!(values.len() >= 10_000, "{} probes", values.len());
        let q_half = ctx.moduli()[..2]
            .iter()
            .map(|m| m.value() as f64)
            .product::<f64>()
            / 2.0;
        assert!(values.iter().filter(|v| v.abs() >= q_half).count() > 1000);
        for chunk in values.chunks(N) {
            let mut coeffs = chunk.to_vec();
            coeffs.resize(N, 0.0);
            // Both chain primes and the special prime.
            let poly = RnsPoly::from_real_coeffs(&ctx, 2, true, &coeffs);
            assert!(!poly.is_ntt());
            for (limb, m) in ctx.basis().iter().enumerate() {
                let got = poly.limb(limb);
                for (k, &x) in coeffs.iter().enumerate() {
                    assert_eq!(
                        got[k],
                        oracle(x, m.value()),
                        "{bits}-bit chain, q = {}, x = {x:e} ({:#018x})",
                        m.value(),
                        x.to_bits()
                    );
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "non-finite")]
fn from_real_coeffs_rejects_nan() {
    let ctx = context(64, 1, 45);
    let mut coeffs = vec![0.0; 64];
    coeffs[17] = f64::NAN;
    let _ = RnsPoly::from_real_coeffs(&ctx, 1, false, &coeffs);
}

#[test]
#[should_panic(expected = "non-finite")]
fn from_real_coeffs_rejects_infinity() {
    let ctx = context(64, 1, 45);
    let mut coeffs = vec![0.0; 64];
    coeffs[63] = f64::NEG_INFINITY;
    let _ = RnsPoly::from_real_coeffs(&ctx, 1, false, &coeffs);
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn check_golden(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {name}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        rendered, expected,
        "{name}: the float↔RNS boundary no longer produces the recorded bits"
    );
}

#[test]
fn encode_limbs_match_the_recorded_digests() {
    let mut rendered = String::new();
    // (N, L, log2 scale): the benchmark's two rings at its waterline, and a
    // scale past 2^80 where every coefficient exceeds a machine word.
    for (n, levels, scale_bits) in [(8192usize, 5usize, 40i32), (2048, 2, 40), (2048, 2, 90)] {
        let ctx = context(n, levels, 60);
        let encoder = Encoder::new(&ctx);
        let mut rng = StdRng::seed_from_u64(0xE1C0DE ^ n as u64 ^ scale_bits as u64);
        let values: Vec<f64> = (0..ctx.slots()).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let pt = encoder.encode(&values, 2f64.powi(scale_bits), levels);
        assert!(pt.poly.is_ntt());
        for limb in 0..levels {
            rendered.push_str(&format!(
                "encode N={n} L={levels} scale=2^{scale_bits} limb {limb}: {:016x}\n",
                digest(pt.poly.limb(limb).iter().copied())
            ));
        }
    }
    check_golden("encode_limbs.digest", &rendered);
}

#[test]
fn decode_values_match_the_recorded_bits() {
    const N: usize = 128;
    let ctx = context(N, 10, 60);
    let encoder = Encoder::new(&ctx);
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    let mut rendered = String::new();
    let mut record = |what: &str, level: usize, poly: RnsPoly| {
        let pt = Plaintext {
            poly,
            scale: 2f64.powi(40),
            level,
        };
        let decoded = encoder.decode(&pt);
        assert_eq!(decoded.len(), N / 2);
        rendered.push_str(&format!(
            "decode {what} level {level}: {:016x} first {:016x}\n",
            digest(decoded.iter().map(|v| v.to_bits())),
            decoded[0].to_bits()
        ));
    };
    for level in [1usize, 2, 6, 10] {
        // Uniform residues: centered values spread over all of (−Q/2, Q/2].
        record(
            "uniform",
            level,
            RnsPoly::uniform(&ctx, level, false, &mut rng),
        );
        // Coefficients within a few units of ±Q/2, where the centering
        // flips sign: (Q−1)/2 ≡ (qᵢ−1)/2 (mod qᵢ) because Q ≡ 0.
        let mut poly = RnsPoly::zero(&ctx, level, false, false);
        for limb in 0..level {
            let q = ctx.moduli()[limb].value();
            for (k, slot) in poly.limb_mut(limb).iter_mut().enumerate() {
                let offset = (k % 9) as u64; // (Q−1)/2 − 4 ..= (Q−1)/2 + 4
                *slot = ((q - 1) / 2 + q - 4 + offset) % q;
            }
        }
        record("half-Q", level, poly);
    }
    check_golden("decode_f64.digest", &rendered);
}
