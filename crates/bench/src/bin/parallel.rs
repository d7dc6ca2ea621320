//! DAG-parallelism benchmark: validates the measured `T(k)` of the
//! parallel executor against the depgraph's prediction, per golden
//! workload, at k ∈ {1, 2, 4, 8} runners.
//!
//! ```text
//! parallel [--fast] [--json PATH] [--check-baseline PATH]
//! ```
//!
//! Method. A serial (`workers = 1`) unfused, unhoisted run measures every
//! op's wall latency (`ParReport::node_times`). Those samples calibrate a
//! per-class per-level [`CostModel`] (the same shape as Table 3), and the
//! depgraph built from that model yields the *prediction* `t_of_k(k)`.
//! The *measured* `T(k)` replays the actual per-node latencies through
//! the same list scheduler ([`DepGraph::list_schedule`]) over the same DAG
//! — virtual time, so the number is honest on any host, including the
//! single-core CI container (`"mode": "virtual"` in the JSON; real
//! wall-clock walk times are reported alongside for every `k` the host
//! has cores for). The two series differ only where per-op latencies
//! deviate from their class/level means, so
//!
//! ```text
//! span ≤ T(k) ≤ 1.15 × predicted(k) + 40µs     for every workload and k
//! ```
//!
//! is the validation gate: it fails if the depgraph's edges miss a
//! dependence (replay would beat the span) or the cost model loses
//! contact with the measured kernels (replay would blow the 1.15 cap).
//! The additive 40µs term is the virtual clock's noise floor (see
//! [`NOISE_FLOOR_US`]); it matters only on the sub-millisecond workloads.
//!
//! A second series runs fusion + rotation hoisting on, measuring the
//! end-to-end op-phase speedup at 4 workers over the serial unfused
//! baseline — `--check-baseline BENCH_parallel.json` requires ≥ 1.5× on
//! at least two workloads and no >20% regression of the total fused
//! `T(4)` against the committed record (the CI `parallel-smoke` gate).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use fhe_bench::json::{json_number, Json};
use fhe_bench::print_table;
use fhe_ir::depgraph::DepGraph;
use fhe_ir::pipeline::ScaleCompiler;
use fhe_ir::{CompileParams, CostModel, ScheduledProgram};
use fhe_runtime::{execute_parallel, plain, ExecOptions, KeyPolicy, ParOptions, ParReport};
use fhe_workloads::{suite, Size, Workload};
use reserve_core::ReserveCompiler;

/// Runner counts the acceptance sweep covers.
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Measured-vs-predicted cap per workload per width.
const RATIO_CAP: f64 = 1.15;
/// Additive noise floor (µs) subtracted from the measured replay before
/// the ratio gate. Per-node latencies carry O(µs) one-sided noise that
/// min-over-reps cannot remove when the spike repeats within a process
/// (allocator/ASLR layout); at high k the replay is a sum over the
/// ~dozen critical-path nodes, so the virtual clock has an absolute
/// uncertainty of a few tens of µs regardless of workload size. 40µs is
/// ~30% of the smallest workload's span and < 0.6% of every other
/// workload's T(8), so the floor only desensitizes the gate where the
/// signal is genuinely below the measurement noise.
const NOISE_FLOOR_US: f64 = 40.0;
/// Required op-phase speedup at 4 workers…
const SPEEDUP_FLOOR: f64 = 1.5;
/// …on at least this many golden workloads.
const SPEEDUP_WORKLOADS: usize = 2;

struct Args {
    fast: bool,
    json: Option<PathBuf>,
    check_baseline: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        fast: false,
        json: None,
        check_baseline: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        let value = |iter: &mut dyn Iterator<Item = String>, flag: &str| -> String {
            iter.next().unwrap_or_else(|| {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--fast" => args.fast = true,
            "--json" => args.json = Some(value(&mut iter, "--json").into()),
            "--check-baseline" => {
                args.check_baseline = Some(value(&mut iter, "--check-baseline").into())
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (supported: --fast, --json <path>, \
                     --check-baseline <path>)"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Compiles a workload with the smallest waterline/output-reserve pair
/// whose schedule fits the backend's modulus budget.
fn compile_fitting(w: &Workload) -> ScheduledProgram {
    for waterline_bits in [30u32, 35, 40] {
        for reserve_bits in [2u32, 4, 6, 8] {
            let mut params = CompileParams::new(waterline_bits);
            params.output_reserve_bits = reserve_bits;
            let Ok(compiled) = ReserveCompiler::full().compile(&w.program, &params) else {
                continue;
            };
            if plain::schedule_fits_backend(&compiled.scheduled, &w.inputs) {
                return compiled.scheduled;
            }
        }
    }
    panic!("{}: no waterline/reserve makes the schedule fit", w.name);
}

fn run(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    workers: usize,
    fusion: bool,
    hoisting: bool,
) -> ParReport {
    let options = ParOptions {
        exec: ExecOptions {
            poly_degree: scheduled.program.slots() * 2,
            seed: 0xDA6,
            threads: 1,
            // Eager keys: lazy generation would charge first-use keygen
            // to whichever rotate node touches a step first, skewing that
            // node far above its class mean.
            keys: KeyPolicy::EagerProgram,
            rotation_hoisting: hoisting,
        },
        workers,
        fusion,
    };
    let report = execute_parallel(scheduled, inputs, &options)
        .unwrap_or_else(|e| panic!("{}: {e:?}", scheduled.program.name()));
    assert!(
        report.max_abs_error() < 1e-1,
        "{}: error {} at {workers} workers",
        scheduled.program.name(),
        report.max_abs_error()
    );
    report
}

/// Per-node measured latencies (µs), indexed like `graph.nodes()`, taking
/// each node's *minimum* across repetitions (same seed → identical
/// computation, so the min is the node's deterministic compute floor —
/// robust against one-sided scheduler/allocator spikes that a mean keeps
/// a share of). Nodes the walk never times (plain ops, inputs — executed
/// in the serial prologue) cost zero, matching the cost model.
fn node_costs(graph: &DepGraph, reports: &[ParReport]) -> Vec<f64> {
    let mut costs = vec![f64::INFINITY; graph.nodes().len()];
    for report in reports {
        for (id, d) in &report.node_times {
            if let Some(i) = graph.node(*id) {
                costs[i] = costs[i].min(d.as_secs_f64() * 1e6);
            }
        }
    }
    for c in &mut costs {
        if !c.is_finite() {
            *c = 0.0;
        }
    }
    costs
}

/// Calibrates a [`CostModel`] from the serial run's per-node latencies:
/// each class's row holds the mean measured µs per level, with unsampled
/// levels filled by linear interpolation between the nearest sampled
/// neighbours (clamped at the ends). Classes the program never executes
/// keep the paper's Table 3 row — their nodes do not exist in the graph.
fn calibrate(scheduled: &ScheduledProgram, graph: &DepGraph, costs: &[f64]) -> CostModel {
    let map = scheduled.validate().expect("schedule validates");
    let mut samples: HashMap<(usize, u32), (f64, usize)> = HashMap::new();
    let mut class_of: HashMap<usize, fhe_ir::OpClass> = HashMap::new();
    for (node, &us) in graph.nodes().iter().zip(costs) {
        let (Some(class), Some(level)) = (node.class, CostModel::charge_level(node.id, &map))
        else {
            continue;
        };
        let e = samples.entry((class as usize, level)).or_insert((0.0, 0));
        e.0 += us;
        e.1 += 1;
        class_of.insert(class as usize, class);
    }
    let mut rows = Vec::new();
    for (&ci, &class) in &class_of {
        let mut levels: Vec<(u32, f64)> = samples
            .iter()
            .filter(|((c, _), _)| *c == ci)
            .map(|((_, l), (sum, n))| (*l, sum / *n as f64))
            .collect();
        levels.sort_by_key(|&(l, _)| l);
        let max_level = levels.last().expect("class has samples").0.max(2);
        let mut row = Vec::with_capacity(max_level as usize);
        for l in 1..=max_level {
            let at = levels.partition_point(|&(sl, _)| sl < l);
            let v = match (at.checked_sub(1).map(|i| levels[i]), levels.get(at)) {
                (_, Some(&(sl, sv))) if sl == l => sv,
                (None, Some(&(_, sv))) => sv, // below the first sample
                (Some((_, pv)), None) => pv,  // above the last sample
                (Some((pl, pv)), Some(&(sl, sv))) => {
                    let t = (l - pl) as f64 / (sl - pl) as f64;
                    pv * (1.0 - t) + sv * t
                }
                (None, None) => unreachable!("levels is nonempty"),
            };
            row.push(v);
        }
        rows.push((class, row));
    }
    CostModel::from_rows(rows)
}

struct WorkloadResult {
    name: &'static str,
    slots: usize,
    nodes: usize,
    span_us: f64,
    predicted: Vec<f64>,
    measured: Vec<f64>,
    fused_t: Vec<f64>,
    wall_us: Vec<Option<f64>>,
    speedup_at_4: f64,
    max_ratio: f64,
    fused_pairs: usize,
    hoisted_groups: usize,
    safety_obligations: usize,
}

fn series_json(t: &[f64]) -> Json {
    Json::Array(
        WORKER_SWEEP
            .iter()
            .zip(t)
            .map(|(&k, &t_us)| Json::obj([("k", Json::from(k)), ("t_us", Json::from(t_us))]))
            .collect(),
    )
}

fn workload_json(r: &WorkloadResult) -> Json {
    Json::obj([
        ("workload", Json::from(r.name)),
        ("slots", Json::from(r.slots)),
        ("dag_nodes", Json::from(r.nodes)),
        ("span_us", Json::from(r.span_us)),
        ("predicted", series_json(&r.predicted)),
        ("measured", series_json(&r.measured)),
        ("fused", series_json(&r.fused_t)),
        (
            "wall",
            Json::Array(
                WORKER_SWEEP
                    .iter()
                    .zip(&r.wall_us)
                    .map(|(&k, w)| {
                        Json::obj([
                            ("k", Json::from(k)),
                            ("t_us", w.map_or(Json::Null, Json::from)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("speedup_at_4", Json::from(r.speedup_at_4)),
        ("max_ratio", Json::from(r.max_ratio)),
        ("fused_pairs", Json::from(r.fused_pairs)),
        ("hoisted_groups", Json::from(r.hoisted_groups)),
        ("safety_obligations", Json::from(r.safety_obligations)),
    ])
}

fn bench_workload(w: &Workload, cores: usize) -> WorkloadResult {
    let scheduled = compile_fitting(w);
    let map = scheduled.validate().expect("schedule validates");

    // Serial unfused, unhoisted runs: latency samples per DAG node,
    // minimum across repetitions (the deterministic compute floor) to
    // suppress one-sided timer/allocator/scheduler spikes — a single
    // inflated critical-path node moves the replayed T(k) by its full
    // delta but the class-mean prediction by only delta/bucket-size, so
    // the ratio gate is as noise-sensitive as the noisiest path node.
    const REPS: usize = 5;
    let baselines: Vec<ParReport> = (0..REPS)
        .map(|_| run(&scheduled, &w.inputs, 1, false, false))
        .collect();
    let probe = DepGraph::build(&scheduled, &map, &CostModel::paper_table3(), false);
    let costs = node_costs(&probe, &baselines);
    let model = calibrate(&scheduled, &probe, &costs);
    let graph = DepGraph::build(&scheduled, &map, &model, false);
    let span_us = graph.list_schedule(&costs, graph.nodes().len());

    // Fused + hoisted runs: per-node latencies with the mul·relin·rescale
    // kernel charged at the mul and hoist groups at their leader.
    let fused_runs: Vec<ParReport> = (0..REPS)
        .map(|_| run(&scheduled, &w.inputs, 1, true, true))
        .collect();
    let fused_run = &fused_runs[0];
    let graph_h = DepGraph::build(&scheduled, &map, &model, true);
    let costs_f = node_costs(&graph_h, &fused_runs);

    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    let mut fused_t = Vec::new();
    let mut wall_us = Vec::new();
    for &k in &WORKER_SWEEP {
        predicted.push(graph.t_of_k(k));
        measured.push(graph.list_schedule(&costs, k));
        fused_t.push(graph_h.list_schedule(&costs_f, k));
        // Real wall-clock walk, only meaningful when the host has the
        // cores (k = 1 re-runs serially; skip to keep the bench fast).
        wall_us.push((k > 1 && cores >= k).then(|| {
            run(&scheduled, &w.inputs, k, true, true)
                .walk_time
                .as_secs_f64()
                * 1e6
        }));
    }
    let speedup_at_4 = measured[0] / fused_t[2];
    // Ratio of the measured replay above the virtual-clock noise floor
    // to the prediction — the quantity both the inline gate and the
    // `--check-baseline` gate cap at `RATIO_CAP`.
    let ratio = |m: f64, p: f64| (m - NOISE_FLOOR_US).max(0.0) / p;
    let max_ratio = measured
        .iter()
        .zip(&predicted)
        .map(|(&m, &p)| ratio(m, p))
        .fold(0.0, f64::max);
    for (i, (&m, &p)) in measured.iter().zip(&predicted).enumerate() {
        assert!(
            span_us <= m * (1.0 + 1e-9),
            "{}: replay T({}) = {m:.1}µs beats the span {span_us:.1}µs — \
             the DAG is missing a dependence",
            w.name,
            WORKER_SWEEP[i],
        );
        assert!(
            ratio(m, p) <= RATIO_CAP,
            "{}: measured T({}) = {m:.1}µs exceeds {RATIO_CAP}x the \
             predicted {p:.1}µs (+{NOISE_FLOOR_US}µs noise floor) — the \
             cost model lost contact with the kernels",
            w.name,
            WORKER_SWEEP[i],
        );
    }
    WorkloadResult {
        name: w.name,
        slots: w.program.slots(),
        nodes: graph.nodes().len(),
        span_us,
        predicted,
        measured,
        fused_t,
        wall_us,
        speedup_at_4,
        max_ratio,
        fused_pairs: fused_run.fused,
        hoisted_groups: fused_run.hoisted_groups,
        safety_obligations: fused_run.safety_obligations,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let size = if args.fast { Size::Test } else { Size::Paper };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let results: Vec<WorkloadResult> = suite(size)
        .iter()
        .map(|w| bench_workload(w, cores))
        .collect();

    print_table(
        &[
            "workload",
            "nodes",
            "span ms",
            "T(1) ms",
            "T(4) meas",
            "T(4) pred",
            "T(4) fused",
            "speedup@4",
            "max ratio",
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    format!("{}", r.nodes),
                    format!("{:.2}", r.span_us / 1e3),
                    format!("{:.2}", r.measured[0] / 1e3),
                    format!("{:.2}", r.measured[2] / 1e3),
                    format!("{:.2}", r.predicted[2] / 1e3),
                    format!("{:.2}", r.fused_t[2] / 1e3),
                    format!("{:.2}x", r.speedup_at_4),
                    format!("{:.3}", r.max_ratio),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let fast_enough = results
        .iter()
        .filter(|r| r.speedup_at_4 >= SPEEDUP_FLOOR)
        .count();
    let max_ratio_overall = results.iter().map(|r| r.max_ratio).fold(0.0, f64::max);
    let total_fused_t4_us: f64 = results.iter().map(|r| r.fused_t[2]).sum();
    eprintln!(
        "{fast_enough}/{} workloads reach {SPEEDUP_FLOOR}x at 4 workers; \
         max measured/predicted ratio {max_ratio_overall:.3} (host cores: {cores})",
        results.len()
    );

    let json = Json::obj([
        // Virtual time: T(k) replays measured per-op latencies through the
        // depgraph's list schedule, so the series is exact on any host;
        // `wall` holds real walk times for every k the host has cores for.
        ("mode", Json::from("virtual")),
        ("size", Json::from(if args.fast { "test" } else { "paper" })),
        ("host_cores", Json::from(cores)),
        (
            "workers",
            Json::Array(WORKER_SWEEP.iter().map(|&k| Json::from(k)).collect()),
        ),
        (
            "workloads",
            Json::Array(results.iter().map(workload_json).collect()),
        ),
        ("speedups_ge_floor", Json::from(fast_enough)),
        ("max_ratio_overall", Json::from(max_ratio_overall)),
        ("total_fused_t4_us", Json::from(total_fused_t4_us)),
    ]);
    if let Some(path) = &args.json {
        std::fs::write(path, format!("{json}\n"))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }

    if let Some(baseline_path) = &args.check_baseline {
        let committed = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", baseline_path.display()));
        if fast_enough < SPEEDUP_WORKLOADS {
            eprintln!(
                "FAIL: only {fast_enough} workloads reach {SPEEDUP_FLOOR}x at 4 workers \
                 (need {SPEEDUP_WORKLOADS})"
            );
            return ExitCode::FAILURE;
        }
        if max_ratio_overall > RATIO_CAP {
            eprintln!("FAIL: measured/predicted ratio {max_ratio_overall:.3} exceeds {RATIO_CAP}");
            return ExitCode::FAILURE;
        }
        let committed_t4 =
            json_number(&committed, "total_fused_t4_us").expect("baseline has total_fused_t4_us");
        if total_fused_t4_us > committed_t4 * 1.2 {
            eprintln!(
                "FAIL: total fused T(4) {total_fused_t4_us:.0}µs regressed >20% over \
                 committed {committed_t4:.0}µs"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("baseline check passed");
    }
    ExitCode::SUCCESS
}
