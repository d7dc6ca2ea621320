//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` is printed from
//! these tables (`fhe-benchmark spec`) and a test holds the two together.

use std::collections::BTreeMap;

use crate::json::Json;

/// What one run measures by default; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 18;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pr-deep",
        why: "Polynomial regression, N=8192, reserve L=9 (EVA needs 10): deep and key-switch-bound, where scale management and kernels show; compile and serve do almost nothing.",
    },
    Workload {
        name: "mlp-wide",
        why: "MLP, N=8192, L=5, 16 rotate-then-cipher-x-plain branches: encode and DAG width dominate; all compilers tie, so a scale-management change must not move it.",
    },
    Workload {
        name: "lenet-compile",
        why: "Paper-size LeNet-5 (11664 ops) compiled, never executed: only the compiler passes work, so a backend change must show nothing here.",
    },
    Workload {
        name: "serve-mix",
        why: "FheServer, 2 workers, 4 lazy-key sessions, N=2048, closed loop of 2 clients x 2 tickets, 3 hot texts and 1 in 10 never seen: queue, cache and small-N fixed costs.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these, on its own operation: one
/// warm serial execution (`pr-deep`, `mlp-wide`), one reserve compile
/// (`lenet-compile`), one served request (`serve-mix`).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cold_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_mem_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

/// `(workload, low, high)`: where `paper.exec_ratio_eva` must sit for `run`
/// to pass. At least 1.2 on `pr-deep` is the paper's thesis (EVA needs one
/// level more); within a tenth of 1 on `mlp-wide` is its control (both
/// compilers land on L = 5).
pub const EVA_BANDS: [(&str, f64, f64); 2] =
    [("pr-deep", 1.2, f64::INFINITY), ("mlp-wide", 0.9, 1.1)];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count the program makes that must repeat exactly between two runs
    /// of the same code and seed; `check` fails on any difference.
    pub exact: bool,
}

const fn ms(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: "lower",
        exact: false,
    }
}

const fn of(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: "lower",
        exact: true,
    }
}

/// Layers are the crates. `.top` is the schedule's highest level, `.l1`
/// level 1, `_n` a count. A workload that does not exercise a layer reports
/// 0 for it: that is the prediction "no change" made visible.
pub const PER_LAYER: [PerLayer; 94] = [
    // fhe-ir
    ms("ir.parse_ms"),
    ms("ir.print_ms"),
    ms("ir.validate_ms"),
    ms("ir.pass.cleanup_ms"),
    ms("ir.pass.depgraph_ms"),
    exact("ir.ops_in"),
    exact("ir.ops_out"),
    // reserve-core
    ms("core.compile_ms"),
    ms("core.sm_ms"),
    ms("core.pass.order_ms"),
    ms("core.pass.alloc_ms"),
    ms("core.pass.typecheck_ms"),
    ms("core.pass.place_ms"),
    ms("core.pass.hoist_ms"),
    exact("core.max_level"),
    ms("core.est_latency_ms"),
    exact("core.rescales"),
    // fhe-analysis
    ms("analysis.pass.lint_ms"),
    ms("analysis.pass.tv_ms"),
    exact("analysis.findings"),
    // compile wall minus the sum of its pass walls
    ms("compile.unattributed_ms"),
    // fhe-baselines: the paper's comparison
    ms("baselines.eva.compile_ms"),
    exact("baselines.eva.max_level"),
    ms("baselines.eva.exec_ms"),
    ms("baselines.hecate.compile_ms"),
    ms("baselines.hecate.explore_ms"),
    exact("baselines.hecate.iterations"),
    of("paper.exec_ratio_eva", "ratio", "higher"),
    of("paper.sm_ratio_hecate", "ratio", "higher"),
    // fhe-ckks
    ms("ckks.context_ms"),
    ms("ckks.keygen.relin_ms"),
    ms("ckks.keygen.galois_ms"),
    exact("ckks.keygen.galois_keys"),
    of("ckks.key_mb", "MB", "lower"),
    ms("ckks.encode_ms"),
    ms("ckks.decode_ms"),
    ms("ckks.encrypt_ms"),
    ms("ckks.decrypt_ms"),
    ms("ckks.op.mul.top_ms"),
    ms("ckks.op.mul.l1_ms"),
    ms("ckks.op.rotate.top_ms"),
    ms("ckks.op.rotate.l1_ms"),
    ms("ckks.op.rescale.top_ms"),
    ms("ckks.op.mul_plain.top_ms"),
    ms("ckks.op.add.top_ms"),
    ms("ckks.op.modswitch.top_ms"),
    ms("ckks.op.rotate_hoisted4.top_ms"),
    ms("ckks.op.mul_rescale.top_ms"),
    of("ckks.ntt.forward_us", "us", "lower"),
    of("ckks.ntt.inverse_us", "us", "lower"),
    ms("ckks.poly.to_ntt_ms"),
    ms("ckks.poly.to_coeff_ms"),
    of("ckks.pool.hit_rate", "ratio", "higher"),
    of("ckks.pool.allocations", "count", "lower"),
    of("ckks.keycache.misses", "count", "lower"),
    // fhe-runtime
    ms("runtime.op_ms"),
    ms("runtime.overhead_ms"),
    ms("runtime.plain_ref_ms"),
    ms("runtime.class.mul_cipher_ms"),
    exact("runtime.class.mul_cipher_n"),
    ms("runtime.class.rotate_ms"),
    exact("runtime.class.rotate_n"),
    ms("runtime.class.rescale_ms"),
    exact("runtime.class.rescale_n"),
    ms("runtime.class.mul_plain_ms"),
    exact("runtime.class.mul_plain_n"),
    ms("runtime.class.add_cipher_ms"),
    exact("runtime.class.add_cipher_n"),
    ms("runtime.class.modswitch_ms"),
    exact("runtime.class.modswitch_n"),
    ms("runtime.walk_k1_ms"),
    ms("runtime.walk_k2_ms"),
    of("runtime.par_speedup", "ratio", "higher"),
    ms("runtime.unfused_walk_k1_ms"),
    ms("runtime.unfused_walk_k2_ms"),
    exact("runtime.fused_pairs"),
    exact("runtime.hoisted_groups"),
    of("runtime.model_residual_pct", "%", "lower"),
    ms("runtime.predicted_t2_ms"),
    // fhe-serve
    ms("serve.hit_ms"),
    ms("serve.miss_ms"),
    ms("serve.exec_ms"),
    ms("serve.wait_ms"),
    ms("serve.first_request_ms"),
    of("serve.cache_hit_rate", "ratio", "higher"),
    of("serve.cache_evictions", "count", "lower"),
    of("serve.cpu_util", "ratio", "higher"),
    of("serve.peak_mb", "MB", "lower"),
    of("serve.requests", "count", "higher"),
    of("serve.failed", "count", "lower"),
    // the harness itself
    of("bench.trace_overhead_pct", "%", "lower"),
    of("bench.noise_pct", "%", "lower"),
    of("bench.quiet_share", "ratio", "higher"),
    of("bench.stage_sum_residual_pct", "%", "lower"),
];

/// Metric values by name. Setting a name the tables do not hold is a bug
/// in the harness and panics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the spec tables"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` for every end-to-end metric (`traced` off) or
    /// every per-layer metric (on), in table order; unset ones read 0.
    pub fn rows(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let names: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| s.into()).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", w.name.into()), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
    }

    #[test]
    fn committed_benchmark_json_is_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "rerun `fhe-benchmark spec`");
        assert!(committed.len() <= 64 * 1024);
        let parsed = Json::parse(committed).unwrap();
        let keys: Vec<&str> = parsed.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn rows_cover_every_metric_and_default_to_zero() {
        let mut m = Metrics::default();
        m.set("op_ms", 1.5);
        m.set("serve.hit_ms", 2.5);
        let e2e = m.rows(false);
        assert_eq!(e2e.len(), END_TO_END.len());
        assert!(e2e.contains(&("op_ms", 1.5, "ms")));
        let layers = m.rows(true);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.contains(&("serve.hit_ms", 2.5, "ms")));
        assert!(layers.contains(&("serve.miss_ms", 0.0, "ms")));
    }
}
