//! Per-layer measurements the workloads share. Every layer is measured
//! from outside: by timing calls into its public functions and by reading
//! the reports those functions already return.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fhe_ckks::poly::RnsPoly;
use fhe_ckks::{decrypt, encrypt_symmetric, CkksContext, CkksParams, Evaluator, KeyGenerator};
use fhe_ir::{
    text, CompileParams, CompileReport, Compiled, CostModel, DepGraph, Op, OpClass, Program,
    ScaleCompiler, ScheduledProgram,
};
use fhe_runtime::{rotation_steps, ExecReport, ParReport};

use crate::measure::{median, ms};
use crate::oracle::Tally;
use crate::spec::Metrics;
use crate::trace::{Recorder, SpanId, Timed};

/// Hecate's exploration is capped so that a paper-size compile stays in
/// seconds; the cap is part of the workload definition.
pub const HECATE_ITERATIONS: usize = 60;

fn median_ms(samples: impl IntoIterator<Item = Duration>) -> f64 {
    median(&samples.into_iter().map(ms).collect::<Vec<_>>())
}

/// Median wall of `reps` calls of `f`, in ms.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median_ms((0..reps).map(|_| {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed()
    }))
}

/// One compile under a span, with one child span per pass record of the
/// returned trace.
pub fn compile(
    rec: &Recorder,
    parent: Option<SpanId>,
    request: u64,
    span: &str,
    compiler: &dyn ScaleCompiler,
    program: &Program,
    params: &CompileParams,
) -> Result<(Compiled, Timed), String> {
    let (result, timed) = rec.time(span, parent, request, || compiler.compile(program, params));
    let compiled = result.map_err(|e| e.to_string())?;
    rec.parts(
        timed.id,
        request,
        timed.start,
        compiled
            .report
            .trace
            .passes
            .iter()
            .map(|p| (p.name.as_str(), p.wall)),
    );
    Ok((compiled, timed))
}

/// `fhe-ir`, `reserve-core`, `fhe-analysis` and the reconciliation, from
/// the reports of the reserve compiles this run made (medians).
pub fn compile_metrics(
    m: &mut Metrics,
    source: &Program,
    scheduled: &ScheduledProgram,
    samples: &[(Duration, CompileReport)],
) {
    let pass = |name: &str| {
        median_ms(
            samples
                .iter()
                .map(|(_, r)| r.trace.pass(name).map_or(Duration::ZERO, |p| p.wall)),
        )
    };
    m.set("ir.pass.cleanup_ms", pass("cleanup"));
    m.set("ir.pass.depgraph_ms", pass("depgraph"));
    m.set("core.pass.order_ms", pass("order"));
    m.set("core.pass.alloc_ms", pass("alloc"));
    m.set("core.pass.typecheck_ms", pass("typecheck"));
    m.set("core.pass.place_ms", pass("place"));
    m.set("core.pass.hoist_ms", pass("hoist"));
    m.set("analysis.pass.lint_ms", pass("lint"));
    m.set("analysis.pass.tv_ms", pass("translation-validate"));
    m.set(
        "core.compile_ms",
        median_ms(samples.iter().map(|(w, _)| *w)),
    );
    m.set(
        "core.sm_ms",
        median_ms(samples.iter().map(|(_, r)| r.scale_management_time)),
    );
    m.set(
        "compile.unattributed_ms",
        median_ms(
            samples
                .iter()
                .map(|(w, r)| w.saturating_sub(r.trace.total_time())),
        ),
    );
    let report = &samples[0].1;
    m.set("core.max_level", report.max_level as f64);
    m.set("core.est_latency_ms", report.estimated_latency_us / 1e3);
    m.set("analysis.findings", report.findings.len() as f64);
    m.set("ir.ops_in", source.num_ops() as f64);
    m.set("ir.ops_out", scheduled.program.num_ops() as f64);
    m.set(
        "core.rescales",
        scheduled
            .program
            .count_ops(|op| matches!(op, Op::Rescale(_))) as f64,
    );
}

/// `fhe-ir`'s text and validation costs on this workload's program: what
/// the service pays per request before it reaches the cache.
pub fn text_metrics(m: &mut Metrics, source: &Program, scheduled: &ScheduledProgram, reps: usize) {
    let printed = text::print(source);
    m.set("ir.print_ms", time_ms(reps, || text::print(source)));
    m.set("ir.parse_ms", time_ms(reps, || text::parse(&printed)));
    m.set("ir.validate_ms", time_ms(reps, || scheduled.validate()));
}

/// Compiles with EVA and capped Hecate, `reps` times each in turn, and
/// returns EVA's schedule for the encrypted comparison.
pub fn baseline_metrics(
    m: &mut Metrics,
    rec: &Recorder,
    tally: &mut Tally,
    program: &Program,
    params: &CompileParams,
    reps: usize,
) -> Option<ScheduledProgram> {
    let eva = fhe_baselines::EvaCompiler;
    let hecate = fhe_baselines::HecateCompiler::with_budget(HECATE_ITERATIONS);
    let (mut eva_runs, mut hecate_runs) = (Vec::new(), Vec::new());
    for i in 0..reps as u64 {
        let (request, what) = (900 + i, "baseline compile");
        if let Some((c, t)) = tally.op(what, || {
            compile(rec, None, request, "compile.eva", &eva, program, params)
        }) {
            eva_runs.push((t.wall, c));
        }
        if let Some((c, t)) = tally.op(what, || {
            compile(
                rec,
                None,
                request,
                "compile.hecate",
                &hecate,
                program,
                params,
            )
        }) {
            hecate_runs.push((t.wall, c));
        }
    }
    if let Some((_, c)) = hecate_runs.first() {
        m.set(
            "baselines.hecate.compile_ms",
            median_ms(hecate_runs.iter().map(|(w, _)| *w)),
        );
        m.set(
            "baselines.hecate.explore_ms",
            median_ms(
                hecate_runs
                    .iter()
                    .map(|(_, c)| c.report.scale_management_time),
            ),
        );
        m.set("baselines.hecate.iterations", c.report.iterations as f64);
        if let Some(reserve_sm) = m.get("core.sm_ms").filter(|&v| v > 0.0) {
            let explore = m.get("baselines.hecate.explore_ms").unwrap_or(0.0);
            // Base: reserve's scale-management time on the same program.
            m.set("paper.sm_ratio_hecate", explore / reserve_sm);
        }
    }
    let (_, first) = eva_runs.first()?;
    m.set(
        "baselines.eva.compile_ms",
        median_ms(eva_runs.iter().map(|(w, _)| *w)),
    );
    m.set("baselines.eva.max_level", first.report.max_level as f64);
    Some(first.scheduled.clone())
}

/// The layer replay of `fhe-ckks` on a context shaped like the workload's
/// own: set-up, boundary, Table 3 cells at the schedule's top level and
/// level 1, and the NTT kernels. Returns the additive cost model those
/// cells calibrate for this machine and ring.
pub fn ckks_metrics(
    m: &mut Metrics,
    rec: &Recorder,
    scheduled: &ScheduledProgram,
    poly_degree: usize,
    seed: u64,
) -> CostModel {
    let map = scheduled.validate().expect("a schedule that already ran");
    let top = map.max_level() as usize;
    let params = CkksParams {
        poly_degree,
        max_level: top,
        modulus_bits: scheduled.params.rescale_bits,
        special_bits: scheduled.params.rescale_bits.min(60) + 1,
        error_std: 3.2,
        threads: 1,
    };
    let request = 800;
    let (ctx, t) = rec.time("ckks.context", None, request, || CkksContext::new(params));
    m.set("ckks.context_ms", ms(t.wall));
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.secret_key();
    let (relin, t) = rec.time("ckks.keygen.relin", None, request, || {
        kg.relin_key(&mut rng)
    });
    m.set("ckks.keygen.relin_ms", ms(t.wall));
    let steps = rotation_steps(&scheduled.program);
    let (galois, t) = rec.time("ckks.keygen.galois", None, request, || {
        kg.galois_keys(steps.iter().copied(), &mut rng)
    });
    m.set("ckks.keygen.galois_ms", ms(t.wall));
    m.set("ckks.keygen.galois_keys", galois.elements().count() as f64);
    m.set(
        "ckks.key_mb",
        (sk.byte_size() + relin.byte_size() + galois.byte_size()) as f64 / 1e6,
    );
    drop(galois);

    // Boundary and the cells the grid lacks, with keys for four rotations.
    let hoisted_steps = [1i64, 2, 4, 8];
    let ev = Evaluator::new(&ctx, Some(relin), kg.galois_keys(hoisted_steps, &mut rng));
    let values: Vec<f64> = (0..ctx.slots())
        .map(|i| ((i % 17) as f64 - 8.0) * 0.05)
        .collect();
    let scale = 2f64.powi(scheduled.params.waterline_bits as i32);
    let reps = 5;
    m.set(
        "ckks.encode_ms",
        time_ms(reps, || ev.encoder().encode(&values, scale, top)),
    );
    let pt = ev.encoder().encode(&values, scale, top);
    m.set("ckks.decode_ms", time_ms(reps, || ev.encoder().decode(&pt)));
    m.set(
        "ckks.encrypt_ms",
        time_ms(reps, || encrypt_symmetric(&ctx, &sk, &pt, &mut rng)),
    );
    let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
    let ct2 = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
    m.set("ckks.decrypt_ms", time_ms(reps, || decrypt(&ctx, &sk, &ct)));
    m.set(
        "ckks.op.rotate_hoisted4.top_ms",
        time_ms(reps, || ev.rotate_hoisted(&ct, &hoisted_steps)),
    );
    if top >= 2 {
        m.set(
            "ckks.op.mul_rescale.top_ms",
            time_ms(reps, || ev.mul_rescale(&ct, &ct2)),
        );
    }

    // Kernels: one limb, then the whole chain.
    let mut limb: Vec<u64> = (0..poly_degree as u64).collect();
    let table = ctx.table(0);
    m.set(
        "ckks.ntt.forward_us",
        time_ms(21, || table.forward(&mut limb)) * 1e3,
    );
    m.set(
        "ckks.ntt.inverse_us",
        time_ms(21, || table.inverse(&mut limb)) * 1e3,
    );
    let mut poly = RnsPoly::uniform(&ctx, top, false, &mut rng);
    let (mut to_coeff, mut to_ntt) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        poly.to_coeff(&ctx);
        to_coeff.push(t.elapsed());
        let t = Instant::now();
        poly.to_ntt(&ctx);
        to_ntt.push(t.elapsed());
    }
    m.set("ckks.poly.to_coeff_ms", median_ms(to_coeff));
    m.set("ckks.poly.to_ntt_ms", median_ms(to_ntt));
    drop(ev);

    // The grid: every class at every level, through the runtime's own
    // micro-benchmark (it needs one spare level for `rescale`).
    let levels = top.max(2);
    let grid_params = CkksParams {
        max_level: levels + 1,
        ..params
    };
    let (rows, _) = rec.time("ckks.table3_grid", None, request, || {
        fhe_runtime::microbench::measure(grid_params, levels, 3, seed)
    });
    let cell = |class: OpClass, level: usize| {
        rows.iter()
            .find(|(c, _)| *c == class)
            .map_or(0.0, |(_, per_level)| per_level[level - 1] / 1e3)
    };
    m.set("ckks.op.mul.top_ms", cell(OpClass::MulCipher, top));
    m.set("ckks.op.mul.l1_ms", cell(OpClass::MulCipher, 1));
    m.set("ckks.op.rotate.top_ms", cell(OpClass::Rotate, top));
    m.set("ckks.op.rotate.l1_ms", cell(OpClass::Rotate, 1));
    m.set("ckks.op.rescale.top_ms", cell(OpClass::Rescale, top));
    m.set("ckks.op.mul_plain.top_ms", cell(OpClass::MulPlain, top));
    m.set("ckks.op.add.top_ms", cell(OpClass::AddCipher, top));
    m.set("ckks.op.modswitch.top_ms", cell(OpClass::ModSwitch, top));
    CostModel::from_rows(rows)
}

fn class_names(class: OpClass) -> Option<(&'static str, &'static str)> {
    Some(match class {
        OpClass::MulCipher => ("runtime.class.mul_cipher_ms", "runtime.class.mul_cipher_n"),
        OpClass::Rotate => ("runtime.class.rotate_ms", "runtime.class.rotate_n"),
        OpClass::Rescale => ("runtime.class.rescale_ms", "runtime.class.rescale_n"),
        OpClass::MulPlain => ("runtime.class.mul_plain_ms", "runtime.class.mul_plain_n"),
        OpClass::AddCipher => ("runtime.class.add_cipher_ms", "runtime.class.add_cipher_n"),
        OpClass::ModSwitch => ("runtime.class.modswitch_ms", "runtime.class.modswitch_n"),
        OpClass::AddPlain => return None,
    })
}

/// The serial executor as `ExecReport` describes it: op time, what the
/// wall holds besides ops, the per-class split and the pool counters.
pub fn serial_metrics(m: &mut Metrics, samples: &[(Duration, ExecReport)]) {
    m.set(
        "runtime.op_ms",
        median_ms(samples.iter().map(|(_, r)| r.op_time)),
    );
    m.set(
        "runtime.overhead_ms",
        median_ms(samples.iter().map(|(w, r)| w.saturating_sub(r.op_time))),
    );
    for &class in OpClass::ALL.iter() {
        let Some((ms_name, n_name)) = class_names(class) else {
            continue;
        };
        let of_class = |r: &ExecReport| {
            r.per_class
                .iter()
                .find(|(c, _, _)| *c == class)
                .map_or((Duration::ZERO, 0), |&(_, d, n)| (d, n))
        };
        m.set(
            ms_name,
            median_ms(samples.iter().map(|(_, r)| of_class(r).0)),
        );
        m.set(n_name, of_class(&samples[0].1).1 as f64);
    }
    let mem = &samples[0].1.mem;
    m.set("ckks.pool.hit_rate", mem.pool_hit_rate());
    m.set("ckks.pool.allocations", mem.allocations as f64);
    m.set("ckks.keycache.misses", mem.key_misses as f64);
}

/// The per-class children of an executor span, from its report.
pub fn class_parts(rec: &Recorder, timed: &Timed, request: u64, report: &ExecReport) {
    rec.parts(
        timed.id,
        request,
        timed.start,
        report
            .per_class
            .iter()
            .map(|(class, wall, _)| (class.name(), *wall)),
    );
}

/// The DAG walker from `ParReport`, given its runs at (1 runner, fused),
/// (k, fused), (1, unfused), (k, unfused).
pub fn walk_metrics(m: &mut Metrics, walks: &[Vec<ParReport>; 4]) {
    let walk_ms = |runs: &[ParReport]| median_ms(runs.iter().map(|r| r.walk_time));
    let [fused_k1, fused_k2, unfused_k1, unfused_k2] = walks;
    m.set("runtime.walk_k1_ms", walk_ms(fused_k1));
    m.set("runtime.walk_k2_ms", walk_ms(fused_k2));
    // Base: the fused one-runner walk.
    m.set("runtime.par_speedup", walk_ms(fused_k1) / walk_ms(fused_k2));
    m.set("runtime.unfused_walk_k1_ms", walk_ms(unfused_k1));
    m.set("runtime.unfused_walk_k2_ms", walk_ms(unfused_k2));
    m.set("runtime.fused_pairs", fused_k2[0].fused as f64);
    m.set("runtime.hoisted_groups", fused_k2[0].hoisted_groups as f64);
}

/// The paper's additive cost model, tested: the calibrated cells summed
/// over the schedule against the measured op time, and the dependence
/// graph's two-worker prediction under the same cells.
pub fn model_metrics(
    m: &mut Metrics,
    model: &CostModel,
    scheduled: &ScheduledProgram,
    hoisting: bool,
) {
    let map = scheduled.validate().expect("a schedule that already ran");
    let predicted_ms = model.program_cost(&scheduled.program, &map) / 1e3;
    if let Some(op_ms) = m.get("runtime.op_ms").filter(|&v| v > 0.0) {
        // Base: the measured op time of the serial executor.
        m.set(
            "runtime.model_residual_pct",
            (predicted_ms - op_ms).abs() / op_ms * 100.0,
        );
    }
    let graph = DepGraph::build(scheduled, &map, model, hoisting);
    m.set("runtime.predicted_t2_ms", graph.t_of_k(2) / 1e3);
}
