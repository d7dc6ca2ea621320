//! The unified [`Executor`] interface over the three ways this workspace
//! runs a scheduled program: exact plaintext reference ([`PlainExec`]),
//! noise-injecting simulation ([`NoiseSimExec`]) and real encrypted
//! execution ([`CkksExec`]).
//!
//! Every executor returns the same [`Execution`] artifact — outputs, the
//! plaintext reference, and an [`ExecTrace`] with per-op-class timing — so
//! tests and benches compare backends without per-backend plumbing. The
//! output-diff checks ([`max_abs_diff`], [`outputs_close`]) are the shared
//! correctness oracle between encrypted and plain runs.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fhe_ir::{CostModel, OpClass, ScheduleError, ScheduledProgram};

use crate::ckks_exec::{self, ParOptions};
use crate::noise_sim::{self, NoiseModel};
use crate::plain;

/// Memory counters of one execution (encrypted backend only; the
/// plaintext backends report zeros). Byte figures cover the backend's
/// polynomial pool (live ciphertexts, on-demand plaintexts, pooled
/// temporaries) plus key material; the encoder's FFT scratch is excluded on
/// both the measured and the static side, so the compiler's static bound
/// remains comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// High-water mark of polynomial + key bytes.
    pub peak_bytes: u64,
    /// Polynomial + key bytes live at the end of the window.
    pub live_bytes: u64,
    /// Fresh limb-buffer allocations (pool misses).
    pub allocations: u64,
    /// Pool checkouts served from the free list.
    pub pool_hits: u64,
    /// Pool checkouts that allocated.
    pub pool_misses: u64,
    /// Galois-key lookups served from the static set or cache.
    pub key_hits: u64,
    /// Galois-key lookups that generated a key on demand.
    pub key_misses: u64,
    /// Galois keys evicted under the cache's byte budget.
    pub key_evictions: u64,
    /// High-water mark of Galois-key bytes (cached or static set).
    pub key_bytes_peak: u64,
}

impl MemStats {
    /// Fraction of pool checkouts served from the free list (0 when idle).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// The per-window view of a later snapshot against `start`: monotone
    /// counters (`allocations`, `pool_*`, `key_hits/misses/evictions`)
    /// become deltas, byte figures (`peak_bytes`, `live_bytes`,
    /// `key_bytes_peak`) keep this snapshot's absolute values. This is how
    /// a request executing against a shared pool/cache reports *its own*
    /// traffic while the global counters stay exact — summing the deltas
    /// of serially executed requests reconstructs the global counters.
    pub fn delta_since(&self, start: &MemStats) -> MemStats {
        MemStats {
            peak_bytes: self.peak_bytes,
            live_bytes: self.live_bytes,
            allocations: self.allocations - start.allocations,
            pool_hits: self.pool_hits - start.pool_hits,
            pool_misses: self.pool_misses - start.pool_misses,
            key_hits: self.key_hits - start.key_hits,
            key_misses: self.key_misses - start.key_misses,
            key_evictions: self.key_evictions - start.key_evictions,
            key_bytes_peak: self.key_bytes_peak,
        }
    }
}

/// Timing breakdown of one execution.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// End-to-end wall time (for [`CkksExec`]: including keygen, encryption
    /// and decryption).
    pub total_time: Duration,
    /// Wall time spent in program operations proper.
    pub op_time: Duration,
    /// Number of (cipher) ops executed.
    pub ops_executed: usize,
    /// Wall time and op count per Table 3 op class. Durations are measured
    /// per op only on the encrypted backend; the plaintext backends report
    /// counts with zero durations (their per-op cost is not meaningful).
    pub per_class: Vec<(OpClass, Duration, usize)>,
    /// Whole-run memory counters (encrypted backend; zeros elsewhere).
    pub mem: MemStats,
}

/// Result of running a scheduled program through any [`Executor`].
#[derive(Debug, Clone)]
pub struct Execution {
    /// The executor's outputs (decrypted, for the encrypted backend).
    pub outputs: Vec<Vec<f64>>,
    /// Exact plaintext reference outputs for the same inputs.
    pub reference: Vec<Vec<f64>>,
    /// Timing breakdown.
    pub trace: ExecTrace,
}

impl Execution {
    /// Maximum absolute slot error vs the plaintext reference.
    pub fn max_abs_error(&self) -> f64 {
        max_abs_diff(&self.outputs, &self.reference)
    }

    /// log₂ of the maximum absolute error (Fig. 7's "Error(Log)" axis).
    pub fn log2_error(&self) -> f64 {
        self.max_abs_error().max(f64::MIN_POSITIVE).log2()
    }
}

/// A way to run a [`ScheduledProgram`] on named inputs.
pub trait Executor {
    /// Display name ("plain", "noise-sim", "ckks").
    fn name(&self) -> &str;

    /// Executes `scheduled` on `inputs` (one vector per program input,
    /// padded/truncated to the slot count).
    ///
    /// # Errors
    ///
    /// Returns the schedule's validation errors if it is illegal.
    fn execute(
        &self,
        scheduled: &ScheduledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Execution, Vec<ScheduleError>>;
}

/// Maximum absolute slot difference between two output sets.
///
/// # Panics
///
/// Panics if the two sets disagree in shape — that is itself a diff worth
/// failing loudly on.
pub fn max_abs_diff(actual: &[Vec<f64>], expected: &[Vec<f64>]) -> f64 {
    assert_eq!(actual.len(), expected.len(), "output count mismatch");
    actual
        .iter()
        .zip(expected)
        .flat_map(|(a, e)| {
            assert_eq!(a.len(), e.len(), "output width mismatch");
            a.iter().zip(e).map(|(x, y)| (x - y).abs())
        })
        .fold(0.0, f64::max)
}

/// The shared encrypted/plain output-diff check: `Ok` when every slot of
/// `actual` is within `tol` of `expected`.
///
/// # Errors
///
/// Returns a human-readable description of the worst offending slot.
pub fn outputs_close(actual: &[Vec<f64>], expected: &[Vec<f64>], tol: f64) -> Result<(), String> {
    let worst = max_abs_diff(actual, expected);
    if worst <= tol {
        Ok(())
    } else {
        Err(format!(
            "outputs differ: max |Δ| = {worst:.3e} > tolerance {tol:.3e}"
        ))
    }
}

/// Per-class op counts of the live cipher ops (zero durations — used by the
/// backends that do not time individual ops).
fn class_counts(scheduled: &ScheduledProgram) -> Vec<(OpClass, Duration, usize)> {
    let program = &scheduled.program;
    let live = fhe_ir::analysis::live(program);
    let mut counts = [0usize; OpClass::ALL.len()];
    for id in program.ids() {
        if !live[id.index()] {
            continue;
        }
        if let Some(class) = CostModel::classify(program, id) {
            let slot = OpClass::ALL
                .iter()
                .position(|c| *c == class)
                .expect("class in ALL");
            counts[slot] += 1;
        }
    }
    OpClass::ALL
        .iter()
        .zip(counts)
        .filter(|(_, n)| *n > 0)
        .map(|(&c, n)| (c, Duration::ZERO, n))
        .collect()
}

/// Exact plaintext reference execution (the semantics oracle).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainExec;

impl Executor for PlainExec {
    fn name(&self) -> &str {
        "plain"
    }

    fn execute(
        &self,
        scheduled: &ScheduledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Execution, Vec<ScheduleError>> {
        scheduled.validate()?;
        let t0 = Instant::now();
        let outputs = plain::execute(&scheduled.program, inputs);
        let wall = t0.elapsed();
        let per_class = class_counts(scheduled);
        let ops_executed = per_class.iter().map(|&(_, _, n)| n).sum();
        Ok(Execution {
            reference: outputs.clone(),
            outputs,
            trace: ExecTrace {
                total_time: wall,
                op_time: wall,
                ops_executed,
                per_class,
                ..ExecTrace::default()
            },
        })
    }
}

/// Plaintext execution with the scheme's scale-dependent noise injected
/// per op (drives the paper's Fig. 7 error comparison).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseSimExec {
    /// Noise magnitude and seed.
    pub model: NoiseModel,
}

impl Executor for NoiseSimExec {
    fn name(&self) -> &str {
        "noise-sim"
    }

    fn execute(
        &self,
        scheduled: &ScheduledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Execution, Vec<ScheduleError>> {
        let t0 = Instant::now();
        let run = noise_sim::simulate(scheduled, inputs, &self.model)?;
        let wall = t0.elapsed();
        let per_class = class_counts(scheduled);
        let ops_executed = per_class.iter().map(|&(_, _, n)| n).sum();
        Ok(Execution {
            outputs: run.outputs,
            reference: run.reference,
            trace: ExecTrace {
                total_time: wall,
                op_time: wall,
                ops_executed,
                per_class,
                ..ExecTrace::default()
            },
        })
    }
}

/// Real encrypted execution on the `fhe-ckks` backend
/// ([`ckks_exec::execute_parallel`]), with per-op-class wall-clock timing.
/// Outputs are byte-identical at every `workers` and `fusion` setting;
/// [`ParOptions::plain_walk`] is the serial schedule walk.
#[derive(Debug, Clone, Default)]
pub struct CkksExec {
    /// Backend + walk configuration.
    pub options: ParOptions,
}

impl Executor for CkksExec {
    fn name(&self) -> &str {
        "ckks"
    }

    fn execute(
        &self,
        scheduled: &ScheduledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Execution, Vec<ScheduleError>> {
        let report = ckks_exec::execute_parallel(scheduled, inputs, &self.options)?;
        Ok(Execution {
            outputs: report.outputs,
            reference: report.reference,
            trace: ExecTrace {
                total_time: report.total_time,
                op_time: report.op_time,
                ops_executed: report.ops_executed,
                per_class: report.per_class,
                mem: report.mem,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::Builder;
    use reserve_core::Options;

    fn inputs(pairs: &[(&str, Vec<f64>)]) -> HashMap<String, Vec<f64>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn small_ckks() -> CkksExec {
        CkksExec {
            options: ParOptions::plain_walk(ckks_exec::ExecOptions {
                poly_degree: 256,
                seed: 3,
                threads: 1,
                ..ckks_exec::ExecOptions::default()
            }),
        }
    }

    fn fig2a_scheduled(slots: usize) -> ScheduledProgram {
        let b = Builder::new("fig2a", slots);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        reserve_core::compile(&p, &Options::new(30))
            .unwrap()
            .scheduled
    }

    #[test]
    fn plain_executor_is_exact() {
        let s = fig2a_scheduled(8);
        let binds = inputs(&[("x", vec![0.5; 8]), ("y", vec![0.25; 8])]);
        let run = PlainExec.execute(&s, &binds).unwrap();
        assert_eq!(run.max_abs_error(), 0.0);
        assert!(run.trace.ops_executed > 0);
        assert!(run
            .trace
            .per_class
            .iter()
            .any(|&(c, _, n)| c == OpClass::MulCipher && n > 0));
    }

    #[test]
    fn noise_sim_executor_is_close_but_not_exact() {
        let s = fig2a_scheduled(8);
        let binds = inputs(&[("x", vec![0.5; 8]), ("y", vec![0.25; 8])]);
        let run = NoiseSimExec::default().execute(&s, &binds).unwrap();
        assert!(run.max_abs_error() > 0.0);
        assert!(outputs_close(&run.outputs, &run.reference, 1e-2).is_ok());
    }

    #[test]
    fn all_executors_agree_through_the_shared_diff_check() {
        let s = fig2a_scheduled(128);
        let xs: Vec<f64> = (0..128).map(|i| ((i % 5) as f64 - 2.0) * 0.3).collect();
        let ys: Vec<f64> = (0..128).map(|i| ((i % 7) as f64) * 0.1).collect();
        let binds = inputs(&[("x", xs), ("y", ys)]);
        let executors: Vec<Box<dyn Executor>> = vec![
            Box::new(PlainExec),
            Box::new(NoiseSimExec::default()),
            Box::new(small_ckks()),
        ];
        for ex in &executors {
            let run = ex.execute(&s, &binds).unwrap();
            outputs_close(&run.outputs, &run.reference, 1e-2)
                .unwrap_or_else(|e| panic!("{}: {e}", ex.name()));
        }
    }

    #[test]
    fn ckks_executor_times_per_class() {
        let s = fig2a_scheduled(128);
        let binds = inputs(&[("x", vec![0.5; 128]), ("y", vec![0.25; 128])]);
        let run = small_ckks().execute(&s, &binds).unwrap();
        let timed: Duration = run.trace.per_class.iter().map(|&(_, d, _)| d).sum();
        assert!(timed > Duration::ZERO);
        assert!(timed <= run.trace.op_time);
        // Memory accounting is live on the encrypted backend: a nonzero
        // peak and recycled buffers producing pool hits.
        assert!(run.trace.mem.peak_bytes > 0);
        assert!(run.trace.mem.pool_hit_rate() > 0.0);
    }

    #[test]
    fn diff_check_reports_the_gap() {
        let err = outputs_close(&[vec![1.0, 2.0]], &[vec![1.0, 2.5]], 0.1).unwrap_err();
        assert!(err.contains("5.000e-1"), "got: {err}");
    }
}
