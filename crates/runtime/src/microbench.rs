//! Micro-benchmarks of individual RNS-CKKS operations at each level —
//! measures this repository's equivalent of the paper's Table 3.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fhe_ckks::{encrypt_symmetric, Ciphertext, CkksContext, CkksParams, Evaluator, KeyGenerator};
use fhe_ir::{CostModel, OpClass};

use crate::ckks_exec::{backend_params, ExecOptions};

/// One measured row: the op class and its mean latency (µs) per level
/// `1..=levels`.
pub type LatencyRow = (OpClass, Vec<f64>);

/// Measures the latency of every Table 3 op class at levels `1..=levels`.
///
/// A `rescale` at row level `l` operates on a level `l+1` ciphertext (the
/// paper charges rescales at their result level). `reps` controls averaging.
pub fn measure(params: CkksParams, levels: usize, reps: usize, seed: u64) -> Vec<LatencyRow> {
    assert!(
        params.max_level > levels,
        "need max_level > measured levels for rescale"
    );
    let ctx = CkksContext::new(params);
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.secret_key();
    let relin = kg.relin_key(&mut rng);
    let galois = kg.galois_keys([1i64], &mut rng);
    let ev = Evaluator::new(&ctx, Some(relin), galois);

    let values: Vec<f64> = (0..ctx.slots())
        .map(|i| ((i % 17) as f64 - 8.0) * 0.05)
        .collect();
    let fresh = |level: usize, rng: &mut StdRng| -> Ciphertext {
        let pt = ev.encoder().encode(&values, 2f64.powi(40), level);
        encrypt_symmetric(&ctx, &sk, &pt, rng)
    };

    let mut rows: Vec<LatencyRow> = OpClass::ALL
        .iter()
        .map(|&c| (c, Vec::with_capacity(levels)))
        .collect();

    for level in 1..=levels {
        let ct = fresh(level, &mut rng);
        let ct2 = fresh(level, &mut rng);
        let ct_up = fresh(level + 1, &mut rng);
        // add_plain needs a scale-matched plaintext; mul_plain a waterline one.
        let pt_add = ev.encoder().encode(&values, 2f64.powi(40), level);
        let pt_mul = ev.encoder().encode(&values, 2f64.powi(20), level);

        for (class, row) in rows.iter_mut() {
            let t0 = Instant::now();
            for _ in 0..reps {
                match class {
                    OpClass::ModSwitch => {
                        std::hint::black_box(ev.mod_switch(&ct_up));
                    }
                    OpClass::AddPlain => {
                        std::hint::black_box(ev.add_plain(&ct, &pt_add));
                    }
                    OpClass::AddCipher => {
                        std::hint::black_box(ev.add(&ct, &ct2));
                    }
                    OpClass::MulPlain => {
                        std::hint::black_box(ev.mul_plain(&ct, &pt_mul));
                    }
                    OpClass::Rescale => {
                        std::hint::black_box(ev.rescale(&ct_up));
                    }
                    OpClass::Rotate => {
                        std::hint::black_box(ev.rotate(&ct, 1));
                    }
                    OpClass::MulCipher => {
                        std::hint::black_box(ev.mul(&ct, &ct2));
                    }
                }
            }
            row.push(t0.elapsed().as_secs_f64() * 1e6 / reps as f64);
        }
    }
    rows
}

/// [`measure`]s the backend and returns a [`CostModel`] calibrated to *this
/// machine*, replacing the paper's Table 3 numbers, with the parameters
/// [`backend_params`] derives for a scheduled program: `N = 2 × slots`,
/// modulus = the schedule's rescale bits, serial execution.
///
/// This is what makes static span/work predictions comparable to what
/// [`crate::execute_encrypted`] will actually measure single-threaded (the
/// fuzz oracle's span-bound check and the golden-workload parallelism
/// tests): the paper model describes a different machine at `N = 2^15`,
/// while the fuzzer and tests run tiny rings where the cost ratios differ.
pub fn calibrate_backend(
    slots: usize,
    rescale_bits: u32,
    levels: usize,
    reps: usize,
    seed: u64,
) -> CostModel {
    // `from_rows` interpolates, so it needs at least two tabulated levels
    // even for a depth-one schedule.
    let levels = levels.max(2);
    let options = ExecOptions {
        poly_degree: slots * 2,
        threads: 1,
        ..ExecOptions::default()
    };
    let params = backend_params(&options, levels + 1, rescale_bits);
    CostModel::from_rows(measure(params, levels, reps, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_shape_matches_table3() {
        // Small parameters; assert the *shape*, not absolute numbers:
        // cost grows with level, and mul ≫ rotate ≫ rescale ≫ adds.
        let params = CkksParams {
            poly_degree: 1 << 10,
            max_level: 4,
            modulus_bits: 40,
            special_bits: 41,
            error_std: 3.2,
            threads: 1,
        };
        // Each cell is the minimum of five one-rep measurements: load on a
        // shared host only ever adds time, so the minimum keeps the order
        // the kernels' work sets.
        let mut rows = measure(params, 3, 1, 42);
        for _ in 1..5 {
            for ((_, best), (_, row)) in rows.iter_mut().zip(measure(params, 3, 1, 42)) {
                for (b, us) in best.iter_mut().zip(row) {
                    *b = b.min(us);
                }
            }
        }
        let get = |c: OpClass| -> &Vec<f64> {
            &rows.iter().find(|(cl, _)| *cl == c).expect("row present").1
        };
        let mul = get(OpClass::MulCipher);
        let rot = get(OpClass::Rotate);
        let rs = get(OpClass::Rescale);
        let add = get(OpClass::AddCipher);
        // Growth with level.
        assert!(mul[2] > mul[0], "mul cost must grow with level: {mul:?}");
        assert!(rot[2] > rot[0], "rotate cost must grow with level: {rot:?}");
        // Ordering at the top level.
        assert!(mul[2] > rs[2], "mul {} > rescale {}", mul[2], rs[2]);
        assert!(rot[2] > rs[2], "rotate {} > rescale {}", rot[2], rs[2]);
        assert!(rs[2] > add[2], "rescale {} > add {}", rs[2], add[2]);
    }

    #[test]
    fn calibrate_yields_a_usable_cost_model() {
        let model = calibrate_backend(1 << 9, 40, 2, 1, 7);
        for &class in OpClass::ALL.iter() {
            for level in 1..=2usize {
                let us = model.at_level(class, level as u32);
                assert!(us.is_finite() && us > 0.0, "{class:?} level {level}: {us}");
            }
        }
    }
}
