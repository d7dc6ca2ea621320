//! Noise-injection simulator: executes a scheduled program on clear vectors
//! while injecting the RNS-CKKS noise each operation would add.
//!
//! RNS-CKKS noise is (to first order) *scale-independent* in the integer
//! domain: fresh encryption, relinearization (after cipher×cipher), Galois
//! key switching (rotation) and rescaling each add noise of roughly fixed
//! magnitude `B`, so the induced message error is `B / m` for a ciphertext
//! at scale `m` (§8.2 — the reason minimizing scales, as Hecate does,
//! *increases* error). The simulator reads each value's exact scale from
//! the validator and perturbs slots accordingly, which reproduces Fig. 7's
//! error comparison at a tiny fraction of a real encrypted execution's cost.
//!
//! The values themselves come from the clear-value interpreter
//! ([`plain`]); the simulator only hooks into it to perturb the results of
//! the ops [`fhe_analysis::noise::adds_noise`] names — the same set the
//! static bound ([`fhe_analysis::NoiseDomain`]) charges.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fhe_analysis::noise::{adds_noise, DEFAULT_NOISE_BITS};
use fhe_ir::{ScheduleError, ScheduledProgram};

use crate::plain;

/// Noise model configuration.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// log₂ of the integer-domain noise magnitude added by fresh
    /// encryption, relinearization, key switching and rescaling
    /// ([`DEFAULT_NOISE_BITS`] by default, as in the static bound).
    pub noise_bits: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            noise_bits: DEFAULT_NOISE_BITS,
            seed: 0x5EED,
        }
    }
}

/// Result of a noisy execution.
#[derive(Debug, Clone)]
pub struct NoisyRun {
    /// Noisy program outputs.
    pub outputs: Vec<Vec<f64>>,
    /// Noise-free reference outputs.
    pub reference: Vec<Vec<f64>>,
}

impl NoisyRun {
    /// Maximum absolute slot error across all outputs.
    pub fn max_abs_error(&self) -> f64 {
        plain::max_abs_diff(&self.outputs, &self.reference)
    }

    /// log₂ of the maximum absolute error (Fig. 7's "Error(Log)" axis).
    pub fn log2_error(&self) -> f64 {
        self.max_abs_error().max(f64::MIN_POSITIVE).log2()
    }
}

/// Executes a scheduled program with injected noise.
///
/// # Errors
///
/// Returns the schedule's validation errors if it is not legal.
pub fn simulate(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    model: &NoiseModel,
) -> Result<NoisyRun, Vec<ScheduleError>> {
    let map = scheduled.validate()?;
    let program = &scheduled.program;
    let mut rng = StdRng::seed_from_u64(model.seed);
    let live = fhe_ir::analysis::live(program);
    let noise_mag = 2f64.powf(model.noise_bits);
    let values = plain::interpret(
        program,
        inputs,
        |id| live[id.index()],
        |id, slots| {
            if adds_noise(program, id) {
                let err = noise_mag / 2f64.powf(map.scale_bits(id).to_f64());
                for v in slots {
                    *v += rng.gen_range(-1.0..1.0) * err;
                }
            }
        },
    );
    Ok(NoisyRun {
        outputs: plain::outputs_of(program, &values),
        reference: plain::execute(program, inputs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::{Builder, CompileParams};
    use reserve_core::{ReserveCompiler, ScaleCompiler};

    fn inputs(pairs: &[(&str, Vec<f64>)]) -> HashMap<String, Vec<f64>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn fig2a_scheduled(waterline: u32) -> ScheduledProgram {
        let b = Builder::new("fig2a", 8);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        ReserveCompiler::full()
            .compile(&p, &CompileParams::new(waterline))
            .unwrap()
            .scheduled
    }

    #[test]
    fn noisy_outputs_stay_close_to_reference() {
        let s = fig2a_scheduled(30);
        let run = simulate(
            &s,
            &inputs(&[("x", vec![0.5; 8]), ("y", vec![0.25; 8])]),
            &NoiseModel::default(),
        )
        .unwrap();
        assert!(run.max_abs_error() < 1e-2, "error {}", run.max_abs_error());
        assert!(run.max_abs_error() > 0.0, "noise must actually be injected");
    }

    #[test]
    fn larger_waterline_means_smaller_error() {
        let binds = inputs(&[("x", vec![0.5; 8]), ("y", vec![0.25; 8])]);
        let e20 = simulate(&fig2a_scheduled(20), &binds, &NoiseModel::default())
            .unwrap()
            .log2_error();
        let e40 = simulate(&fig2a_scheduled(40), &binds, &NoiseModel::default())
            .unwrap()
            .log2_error();
        assert!(
            e40 < e20 - 10.0,
            "W=2^40 (err 2^{e40:.1}) must be far more accurate than W=2^20 (err 2^{e20:.1})"
        );
    }

    #[test]
    fn zero_noise_model_reproduces_reference() {
        let s = fig2a_scheduled(25);
        let run = simulate(
            &s,
            &inputs(&[("x", vec![1.5; 8]), ("y", vec![-0.5; 8])]),
            &NoiseModel {
                noise_bits: f64::NEG_INFINITY,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(run.max_abs_error(), 0.0);
    }

    #[test]
    fn the_static_bound_dominates_the_simulation() {
        let binds = inputs(&[("x", vec![0.5; 8]), ("y", vec![0.25; 8])]);
        for waterline in [20, 30, 40] {
            let s = fig2a_scheduled(waterline);
            let est = fhe_analysis::NoiseDomain::default()
                .output_bounds(&s)
                .unwrap()[0];
            let sim = simulate(&s, &binds, &NoiseModel::default())
                .unwrap()
                .max_abs_error();
            assert!(
                est >= sim,
                "W={waterline}: static bound {est:.3e} below measured {sim:.3e}"
            );
            // The bound should not be absurdly loose (within ~4 orders).
            assert!(
                est < sim.max(f64::MIN_POSITIVE) * 1e4,
                "W={waterline}: bound too loose"
            );
        }
    }
}
