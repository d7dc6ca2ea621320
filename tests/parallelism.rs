//! Golden-workload acceptance test of the dependence/critical-path
//! analyzer (`fhe_ir::depgraph`): for every compiler × workload pair the
//! static span never exceeds the static work, and under a cost model
//! calibrated to this machine's backend the static work tracks the
//! *measured* single-threaded encrypted latency — `span ≤ work ≤ 1.15 ×
//! measured`. Rotation hoisting is disabled on both sides so the per-op
//! cost model and the executed schedule describe the same rotations. The
//! executed schedule still accumulates its linear-combination groups over
//! `Q_l·P` (that does not depend on hoisting), so a member's measured time
//! lacks the division by `P` the model prices per rotation: on programs
//! with groups (SF, HCD, MLP, the LeNets) the model over-prices, which this
//! one-sided bound allows.
//!
//! Calibration and measurement run back to back on the same machine, so
//! the 15% margin absorbs scheduler jitter, not model error; a failed
//! attempt recalibrates from a fresh seed before failing the suite
//! (timing-noise robustness, three attempts per pair).

use std::collections::HashMap;

use fhe_bench::standard_compilers;
use fhe_ir::depgraph::DepGraph;
use fhe_ir::{CompileParams, CostModel};
use fhe_runtime::{execute_encrypted, microbench, ExecOptions};
use fhe_workloads::{suite, Size};

#[test]
fn span_work_and_measured_latency_agree_on_the_golden_suite() {
    let compilers = standard_compilers(1);
    let params = CompileParams::new(30);
    // One calibrated model per schedule shape, shared across pairs.
    let mut models: HashMap<(usize, u32, usize), CostModel> = HashMap::new();

    for w in suite(Size::Test) {
        for compiler in &compilers {
            let compiled = compiler
                .compile(&w.program, &params)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", compiler.name(), w.name));
            let map = compiled
                .scheduled
                .validate()
                .unwrap_or_else(|e| panic!("{} on {}: {e:?}", compiler.name(), w.name));
            let slots = compiled.scheduled.program.slots();
            let rescale_bits = compiled.scheduled.params.rescale_bits;
            let levels = map.max_level() as usize;
            let key = (slots, rescale_bits, levels);

            let mut ok = false;
            let mut detail = String::new();
            for attempt in 0u64..3 {
                let model = models.entry(key).or_insert_with(|| {
                    microbench::calibrate_backend(slots, rescale_bits, levels, 3, 0xCA1B + attempt)
                });
                let est = DepGraph::build(&compiled.scheduled, &map, model, false).estimate();
                // The structural half never depends on timing: the
                // critical path is a subset of the work.
                assert!(
                    est.span_us <= est.work_us + 1e-6,
                    "{} on {}: span {} > work {}",
                    compiler.name(),
                    w.name,
                    est.span_us,
                    est.work_us
                );
                let backend = ExecOptions {
                    poly_degree: slots * 2,
                    seed: 5,
                    threads: 1,
                    rotation_hoisting: false,
                    ..ExecOptions::default()
                };
                let run = execute_encrypted(&compiled.scheduled, &w.inputs, &backend)
                    .unwrap_or_else(|e| panic!("{} on {}: {e:?}", compiler.name(), w.name));
                let measured_us = run.op_time.as_secs_f64() * 1e6;
                if est.work_us <= 1.15 * measured_us {
                    ok = true;
                    break;
                }
                detail = format!(
                    "work {:.1}us > 1.15 x measured {:.1}us (span {:.1}us)",
                    est.work_us, measured_us, est.span_us
                );
                // Recalibrate with a fresh seed before the next attempt.
                models.remove(&key);
            }
            assert!(ok, "{} on {}: {detail}", compiler.name(), w.name);
        }
    }
}
