//! Property tests for the serve layer's log₂-bucket latency histogram and
//! determinism tests for the cost-model → `T(k)` analysis pipeline.
//!
//! The histogram trades exactness for O(1) memory: quantiles are reported
//! as the geometric midpoint of the bucket holding the target rank. The
//! properties pinned here are the ones regression gating relies on:
//! quantiles are monotone in `q`, and every reported quantile lands in
//! the same log₂ bucket (±1 for float rounding at bucket edges) as the
//! exact order-statistic it approximates.
//!
//! The determinism tests pin that `CostModel::from_bench_json` and the
//! depgraph estimate and `T(k)` are pure functions of their inputs — bitwise
//! identical no matter how many threads concurrently recompute them —
//! so `fhe-serve` can cache and share `CompileReport`s across sessions
//! without cross-request nondeterminism.
//!
//! One more pins the report's latency to its two other readings: the
//! report takes `estimated_latency_us` from the dependence graph's work,
//! and Hecate's explorer scores candidates with `CostModel::program_cost`,
//! so all three must agree to the bit on every compile.

use std::time::Duration;

use fhe_bench::standard_compilers;
use fhe_ir::depgraph::DepGraph;
use fhe_ir::{CompileParams, CostModel, OpClass, ScaleCompiler};
use fhe_serve::LatencyHistogram;
use fhe_workloads::{suite, Size};
use reserve_core::ReserveCompiler;

// ---------------------------------------------------------------------
// Histogram properties
// ---------------------------------------------------------------------

/// SplitMix64: tiny deterministic generator so the property runs on the
/// same sample sets everywhere.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The histogram's bucket function, mirrored from `LatencyHistogram::record`.
fn bucket_of(us: u64) -> u32 {
    (64 - us.leading_zeros()).min(63)
}

/// Exact order-statistic reference: the `⌈q·n⌉`-th smallest sample.
fn exact_quantile_us(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as f64;
    let rank = ((q.clamp(0.0, 1.0) * n).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[test]
fn quantiles_are_monotone_and_within_one_bucket_of_exact() {
    // Several deterministic sample distributions: uniform-in-log-space
    // (exercises every bucket width), narrow clusters, and a heavy tail.
    let cases: [(u64, usize, u64); 4] = [
        // (seed, samples, max magnitude in µs)
        (0xA11CE, 500, 1 << 40),
        (0xB0B, 1_000, 1 << 20),
        (0xCAFE, 257, 1 << 10),
        (0xD00D, 64, 1 << 52),
    ];
    for (seed, n, max_us) in cases {
        let mut state = seed;
        let mut samples: Vec<u64> = (0..n)
            .map(|_| {
                // Log-uniform: pick a magnitude, then a value at it, so
                // small and large buckets are both populated.
                let bits = splitmix64(&mut state);
                let shift = (bits >> 58) % 53; // magnitude 2^0 .. 2^52
                (splitmix64(&mut state) % (1u64 << shift).max(1)).min(max_us)
            })
            .collect();
        let h = LatencyHistogram::new();
        for &us in &samples {
            h.record(Duration::from_micros(us));
        }
        samples.sort_unstable();
        assert_eq!(h.count(), n as u64);
        assert_eq!(h.max(), Duration::from_micros(*samples.last().unwrap()));

        let mut prev = Duration::ZERO;
        for step in 0..=100 {
            let q = step as f64 / 100.0;
            let got = h.quantile(q);
            // Monotone: a higher quantile never reports a lower latency.
            assert!(
                got >= prev,
                "seed {seed:#x}: quantile({q}) = {got:?} < quantile({}) = {prev:?}",
                (step - 1) as f64 / 100.0
            );
            prev = got;
            // Accuracy: the reported midpoint lives in the same log₂
            // bucket as the exact order statistic (±1 bucket of slack for
            // float rounding when a midpoint converts back to micros at a
            // bucket edge) — i.e. within the documented 2× error bound.
            let exact = exact_quantile_us(&samples, q);
            let got_us = got.as_micros().min(u128::from(u64::MAX)) as u64;
            let (be, bg) = (bucket_of(exact), bucket_of(got_us));
            assert!(
                be.abs_diff(bg) <= 1,
                "seed {seed:#x}: quantile({q}) bucket {bg} vs exact {exact}µs bucket {be}"
            );
        }

        // p50 and p99 specifically — the two the server publishes.
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert!(h.quantile(0.99) <= Duration::from_micros(2 * samples.last().unwrap() + 1));
        // Mean lies within the sample range.
        let mean_us = h.mean().as_micros() as u64;
        assert!(mean_us >= samples[0] && mean_us <= *samples.last().unwrap());
    }
}

#[test]
fn all_mass_in_one_bucket_reports_that_bucket_for_every_quantile() {
    let h = LatencyHistogram::new();
    for _ in 0..100 {
        h.record(Duration::from_micros(300)); // bucket [256, 512)
    }
    for step in 1..=100 {
        let q = step as f64 / 100.0;
        let us = h.quantile(q).as_micros() as u64;
        assert!(
            (256..512).contains(&us),
            "quantile({q}) = {us}µs escaped the only populated bucket"
        );
    }
}

// ---------------------------------------------------------------------
// CostModel + T(k) determinism across thread counts
// ---------------------------------------------------------------------

/// A measured-latency record in the `table3` bench binary's shape, with
/// deliberately non-table values so a silent fallback to the paper's
/// Table 3 would be caught by the bitwise comparison below.
const BENCH_JSON: &str = r#"{
  "ops": [
    {"op": "modswitch (cipher)", "latency_us": [51.5, 90.25, 160.0, 215.0, 290.0]},
    {"op": "cipher x cipher",    "latency_us": [4000.0, 8200.0, 14000.0, 21500.0]},
    {"op": "rotate (cipher)",    "latency_us": [4500.0, 9400.0, 16000.0]}
  ]
}"#;

/// A program with genuine width so `T(2)` beats `T(1)`: four independent
/// products reduced by a tree of additions.
fn wide_program() -> fhe_ir::Program {
    let b = fhe_ir::Builder::new("tk-determinism", 8);
    let xs: Vec<_> = (0..8).map(|i| b.input(format!("x{i}"))).collect();
    let p0 = xs[0].clone() * xs[1].clone();
    let p1 = xs[2].clone() * xs[3].clone();
    let p2 = xs[4].clone() * xs[5].clone();
    let p3 = xs[6].clone() * xs[7].clone();
    let out = (p0 + p1) * (p2 + p3);
    b.finish(vec![out])
}

/// The static estimate and the bits of `T(k)` at the widths in `WIDTHS`.
fn estimate_once(model: &CostModel) -> (fhe_ir::depgraph::ParallelismEstimate, [u64; 4]) {
    let compiled = ReserveCompiler::full()
        .compile(&wide_program(), &CompileParams::new(30))
        .expect("compiles");
    let map = compiled.scheduled.validate().expect("validates");
    let graph = DepGraph::build(&compiled.scheduled, &map, model, false);
    (graph.estimate(), WIDTHS.map(|k| graph.t_of_k(k).to_bits()))
}

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn bench_json_model_and_t_of_k_are_deterministic_across_thread_counts() {
    let model = CostModel::from_bench_json(BENCH_JSON).expect("parses");

    // The parsed model is a pure function of the JSON: bitwise identical
    // on a reparse, including the linear extrapolation past the table.
    let reparsed = CostModel::from_bench_json(BENCH_JSON).expect("parses");
    for class in OpClass::ALL {
        for level in 1..=12u32 {
            assert_eq!(
                model.at_level(class, level).to_bits(),
                reparsed.at_level(class, level).to_bits(),
                "{class:?} level {level} differs across parses"
            );
        }
    }
    // The custom rows really took effect (no silent Table 3 fallback).
    assert_eq!(model.at_level(OpClass::ModSwitch, 1), 51.5);

    // T(k) is a pure static analysis: recomputing it concurrently from
    // 1, 2 and 4 threads yields the same profile, bit for bit, as the
    // main thread's — no hidden dependence on runtime parallelism.
    let baseline = estimate_once(&model);
    assert!(
        baseline.0.max_width >= 2,
        "workload must expose parallelism, got width {}",
        baseline.0.max_width
    );
    assert!(
        f64::from_bits(baseline.1[1]) < f64::from_bits(baseline.1[0]),
        "T(2) below T(1)"
    );
    for threads in [1usize, 2, 4] {
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| estimate_once(&model)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (est, t_of_k) in results {
            assert_eq!(
                est, baseline.0,
                "estimate differs when recomputed under {threads} threads"
            );
            for ((k, t), bt) in WIDTHS.iter().zip(t_of_k).zip(baseline.1) {
                assert_eq!(t, bt, "T({k}) not bitwise equal");
            }
        }
    }
}

#[test]
fn reported_latency_is_the_program_cost_and_the_graphs_work_to_the_bit() {
    let params = CompileParams::new(30);
    let model = CostModel::paper_table3();
    for w in suite(Size::Test) {
        for compiler in standard_compilers(60) {
            let what = format!("{} on {}", compiler.name(), w.name);
            let compiled = compiler
                .compile(&w.program, &params)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let report = &compiled.report;
            let map = compiled.scheduled.validate().expect("schedule validates");
            let program_cost = model.program_cost(&compiled.scheduled.program, &map);
            assert!(
                report.estimated_latency_us > 0.0,
                "{what}: a costed schedule"
            );
            assert_eq!(
                report.estimated_latency_us.to_bits(),
                program_cost.to_bits(),
                "{what}: estimated latency vs program_cost"
            );
            assert_eq!(
                program_cost.to_bits(),
                report.parallelism.work_us.to_bits(),
                "{what}: program_cost vs the graph's work"
            );
        }
    }
}
