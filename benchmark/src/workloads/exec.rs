//! `pr-deep` and `mlp-wide`: one program compiled by reserve and executed
//! under real encryption at N = 8192, serially and on the DAG walker.
//!
//! The timed operation is one warm serial execution (`op_ms`, `tail_ms`);
//! `throughput` is executions per second on the DAG walker with
//! `min(2, nproc)` runners, fusion and hoisting on (the service's default
//! executor); `cold_ms` is what a one-shot user pays: compile, session keys
//! and the first execution on those fresh keys.

use std::time::{Duration, Instant};

use fhe_ir::{Compiled, Program, ScaleCompiler, ScheduledProgram};
use fhe_runtime::{
    execute_parallel_with_keys, execute_with_keys, ExecOptions, ExecReport, KeyPolicy, ParOptions,
    ParReport, SessionKeys,
};
use fhe_workloads::{mlp, regression};
use reserve_core::ReserveCompiler;

use crate::alloc;
use crate::layers;
use crate::measure::{self, median, ms, tail, Gate, Samples};
use crate::oracle::{self, close, mix, Inputs, Outputs, Tally};
use crate::spec;
use crate::trace::Recorder;
use crate::workloads::{params, Config, Outcome};

const POLY_DEGREE: usize = 8192;
const SLOTS: usize = POLY_DEGREE / 2;
/// The MLP's weights are part of the program under test, not of the
/// seeded input, so they never change.
const MLP_WEIGHTS: u64 = 0x51ED;
/// Share of the timed phase spent on warm executions; the rest is cold runs.
const WARM_SHARE: f64 = 0.7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PrDeep,
    MlpWide,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::PrDeep => "pr-deep",
            Kind::MlpWide => "mlp-wide",
        }
    }

    fn build(self, seed: u64) -> (Program, Inputs) {
        match self {
            Kind::PrDeep => (
                regression::polynomial(SLOTS, 2),
                regression::polynomial_inputs(SLOTS, seed),
            ),
            Kind::MlpWide => (
                mlp::mlp(SLOTS, 16, MLP_WEIGHTS),
                mlp::mlp_inputs(SLOTS, seed),
            ),
        }
    }
}

fn exec_options(seed: u64) -> ExecOptions {
    ExecOptions {
        poly_degree: POLY_DEGREE,
        seed,
        threads: 1,
        keys: KeyPolicy::EagerProgram,
        rotation_hoisting: true,
    }
}

fn par_options(seed: u64, workers: usize, fusion: bool) -> ParOptions {
    ParOptions {
        exec: exec_options(seed),
        workers,
        fusion,
    }
}

fn errors(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

/// Everything a warm execution needs.
struct Scene {
    program: Program,
    inputs: Inputs,
    reference: Outputs,
    compiled: Compiled,
    keys: SessionKeys,
    seed: u64,
}

impl Scene {
    /// One checked serial execution under an `execute` span.
    fn serial(
        &self,
        rec: &Recorder,
        tally: &mut Tally,
        request: u64,
        scheduled: &ScheduledProgram,
        keys: &SessionKeys,
    ) -> Option<(Duration, ExecReport)> {
        tally.op("serial execution", || {
            let (report, timed) = rec.time("execute", None, request, || {
                execute_with_keys(
                    scheduled,
                    &self.inputs,
                    &exec_options(self.seed),
                    keys,
                    None,
                    mix(self.seed, request),
                )
            });
            let report = report.map_err(errors)?;
            close(&report.outputs, &self.reference)?;
            layers::class_parts(rec, &timed, request, &report);
            Ok((timed.wall, report))
        })
    }

    /// One checked execution on the DAG walker.
    fn parallel(
        &self,
        rec: &Recorder,
        tally: &mut Tally,
        request: u64,
        workers: usize,
        fusion: bool,
    ) -> Option<(Duration, ParReport)> {
        tally.op("parallel execution", || {
            let (report, timed) = rec.time("execute_parallel", None, request, || {
                execute_parallel_with_keys(
                    &self.compiled.scheduled,
                    &self.inputs,
                    &par_options(self.seed, workers, fusion),
                    &self.keys,
                    None,
                    mix(self.seed, request),
                )
            });
            let report = report.map_err(errors)?;
            close(&report.outputs, &self.reference)?;
            Ok((timed.wall, report))
        })
    }

    /// The one-shot path, as three stages under one `cold` span. Returns
    /// its wall and the sum of its stages' walls.
    fn cold(
        &self,
        rec: &Recorder,
        tally: &mut Tally,
        request: u64,
    ) -> Option<(Duration, Duration)> {
        tally.op("cold run", || {
            let start = Instant::now();
            let span = rec.open("cold", None, request);
            let (compiled, compile) = layers::compile(
                rec,
                span,
                request,
                "compile",
                &ReserveCompiler::full(),
                &self.program,
                &params(),
            )?;
            let options = exec_options(mix(self.seed, request));
            let (keys, keygen) = rec.time("keygen", span, request, || {
                SessionKeys::for_schedule(&compiled.scheduled, &options)
            });
            let keys = keys.map_err(errors)?;
            let (report, execute) = rec.time("execute", span, request, || {
                execute_with_keys(
                    &compiled.scheduled,
                    &self.inputs,
                    &options,
                    &keys,
                    None,
                    mix(self.seed, request),
                )
            });
            let wall = start.elapsed();
            rec.close(span);
            close(&report.map_err(errors)?.outputs, &self.reference)?;
            Ok((wall, compile.wall + keygen.wall + execute.wall))
        })
    }
}

/// Builds the program and its inputs from the seed, takes the independent
/// reference, compiles, generates keys and warms both executors.
fn set_up(kind: Kind, cfg: &Config, tally: &mut Tally) -> Option<Scene> {
    let (program, inputs) = kind.build(cfg.seed);
    let reference = oracle::reference(&program, &inputs);
    let compiled = tally.op("compile", || {
        ReserveCompiler::full()
            .compile(&program, &params())
            .map_err(|e| e.to_string())
    })?;
    let keys = tally.op("keygen", || {
        SessionKeys::for_schedule(&compiled.scheduled, &exec_options(cfg.seed)).map_err(errors)
    })?;
    let scene = Scene {
        program,
        inputs,
        reference,
        compiled,
        keys,
        seed: cfg.seed,
    };
    let off = Recorder::new(false);
    let (_, serial) = scene.serial(&off, tally, 0, &scene.compiled.scheduled, &scene.keys)?;
    // The walker's pool threads start on first use: two warm-ups.
    scene.parallel(&off, tally, 1, measure::threads(), true)?;
    let (_, parallel) = scene.parallel(&off, tally, 0, measure::threads(), true)?;
    // Requests 0 of both executors share an encryption seed.
    let bits = |o: &Outputs| -> Vec<u64> { o.iter().flatten().map(|v| v.to_bits()).collect() };
    tally.require(
        "serial and parallel executors, same enc_seed",
        if bits(&serial.outputs) == bits(&parallel.outputs) {
            Ok(())
        } else {
            Err("outputs are not bit-identical".into())
        },
    );
    Some(scene)
}

pub fn run(kind: Kind, cfg: &Config, gate: &mut Gate) -> Outcome {
    let mut out = Outcome::default();
    let tally = &mut out.tally;

    // Set-up, three times over; the last one is kept.
    let mut setups = Samples::default();
    let mut scene = None;
    for _ in 0..3 {
        let t = Instant::now();
        scene = set_up(kind, cfg, tally);
        setups.push(t.elapsed().as_secs_f64(), gate.quiet());
    }
    let Some(scene) = scene else {
        return out;
    };
    if cfg.seed == oracle::DEFAULT_SEED {
        let lines = oracle::digest(kind.name(), &scene.reference);
        tally.require(
            "reference digest",
            oracle::check_digest(kind.name(), &lines, cfg.bless),
        );
    }

    let m = &mut out.metrics;
    if cfg.traced {
        traced(kind, cfg, &scene, m, tally, gate);
    } else {
        let off = Recorder::new(false);
        let workers = measure::threads();
        let (mut serial, mut parallel, mut cold) =
            (Samples::default(), Samples::default(), Samples::default());
        let (mut peak, mut request) = (0, 10);
        // The two warm executors alternate, so drift hits both alike. The
        // cold path has a phase of its own: each cold run hands its keys
        // (165 MB on `pr-deep`) back to the allocator, and whatever ran
        // next would pay to fault that memory in again. The machine is
        // probed after every round; see `Gate`.
        measure::until(cfg.seconds * WARM_SHARE, |_| {
            request += 2;
            alloc::reset_peak();
            let one = scene.serial(&off, tally, request, &scene.compiled.scheduled, &scene.keys);
            peak = peak.max(alloc::peak_bytes());
            let two = scene.parallel(&off, tally, request + 1, workers, true);
            let quiet = gate.quiet();
            if let Some((wall, _)) = one {
                serial.push(ms(wall), quiet);
            }
            if let Some((wall, _)) = two {
                parallel.push(ms(wall), quiet);
            }
        });
        measure::until(cfg.seconds * (1.0 - WARM_SHARE), |_| {
            request += 1;
            let run = scene.cold(&off, tally, request);
            let quiet = gate.quiet();
            if let Some((wall, _)) = run {
                cold.push(ms(wall), quiet);
            }
        });
        if serial.is_empty() || parallel.is_empty() || cold.is_empty() {
            return out;
        }
        m.set("setup_s", median(setups.preferred()));
        m.set("op_ms", median(serial.preferred()));
        m.set("tail_ms", tail(serial.preferred()));
        m.set("cold_ms", median(cold.preferred()));
        m.set("throughput", 1e3 / median(parallel.preferred()));
        m.set("peak_mem_mb", peak as f64 / 1e6);
    }
    out
}

/// The traced run: the same executions under spans, the DAG walker at
/// every setting, EVA's schedule beside reserve's, and the layer replay.
fn traced(
    kind: Kind,
    cfg: &Config,
    scene: &Scene,
    m: &mut crate::spec::Metrics,
    tally: &mut Tally,
    gate: &mut Gate,
) {
    let rec = Recorder::new(true);
    let off = Recorder::new(false);
    let scheduled = &scene.compiled.scheduled;

    let mut compiles = Vec::new();
    for i in 0..11 {
        compiles.extend(
            tally
                .op("compile", || {
                    layers::compile(
                        &rec,
                        None,
                        100 + i,
                        "compile",
                        &ReserveCompiler::full(),
                        &scene.program,
                        &params(),
                    )
                })
                .map(|(c, t)| (t.wall, c.report)),
        );
    }
    if compiles.is_empty() {
        return;
    }
    layers::compile_metrics(m, &scene.program, scheduled, &compiles);
    layers::text_metrics(m, &scene.program, scheduled, 5);
    m.set(
        "runtime.plain_ref_ms",
        layers::time_ms(5, || {
            fhe_runtime::plain::execute(&scheduled.program, &scene.inputs)
        }),
    );
    let eva = layers::baseline_metrics(m, &rec, tally, &scene.program, &params(), 3);
    let eva = eva.and_then(|scheduled| {
        let keys = tally.op("keygen (EVA)", || {
            SessionKeys::for_schedule(&scheduled, &exec_options(cfg.seed)).map_err(errors)
        })?;
        Some((scheduled, keys))
    });

    let k = measure::threads();
    let (mut plain, mut spanned, mut eva_ms, mut ratios, mut residuals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut walks: [Vec<ParReport>; 4] = Default::default();
    let mut request = 1000;
    let settings = [(1, true), (k, true), (1, false), (k, false)];
    // Whatever runs first in a round follows the last round's walks, so the
    // untraced/traced pair swaps places and the walker's four settings
    // rotate from round to round. EVA's schedule runs right after the pair
    // it is compared with: the ratio is taken round by round.
    measure::until(cfg.seconds * WARM_SHARE, |round| {
        request += 10;
        let mut pair_ms = Vec::new();
        for spans in [round % 2 == 1, round % 2 == 0] {
            let (recorder, runs) = if spans {
                (&rec, &mut spanned)
            } else {
                (&off, &mut plain)
            };
            let id = request + spans as u64;
            let run = scene.serial(recorder, tally, id, scheduled, &scene.keys);
            pair_ms.extend(run.iter().map(|(wall, _)| ms(*wall)));
            runs.extend(run);
        }
        if let Some((eva_scheduled, eva_keys)) = &eva {
            let run = scene.serial(&rec, tally, request + 6, eva_scheduled, eva_keys);
            if let (Some((wall, _)), &[a, b]) = (&run, &pair_ms[..]) {
                eva_ms.push(ms(*wall));
                // Base: reserve's two warm serial executions of this round.
                ratios.push(ms(*wall) / ((a + b) / 2.0));
            }
        }
        for i in (0..4).map(|i| (i + round) % 4) {
            let (workers, fusion) = settings[i];
            let run = scene.parallel(&rec, tally, request + 2 + i as u64, workers, fusion);
            walks[i].extend(run.map(|(_, r)| r));
        }
        gate.quiet();
    });
    measure::until(cfg.seconds * (1.0 - WARM_SHARE), |_| {
        request += 1;
        residuals.extend(scene.cold(&rec, tally, request).map(|(wall, stages)| {
            (wall.saturating_sub(stages)).as_secs_f64() / wall.as_secs_f64() * 100.0
        }));
    });
    if plain.is_empty() || spanned.is_empty() || walks.iter().any(Vec::is_empty) {
        return;
    }

    let wall_ms = |runs: &[(Duration, ExecReport)]| {
        median(&runs.iter().map(|(w, _)| ms(*w)).collect::<Vec<_>>())
    };
    let (untraced_ms, traced_ms) = (wall_ms(&plain), wall_ms(&spanned));
    m.set(
        "bench.trace_overhead_pct",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
    );
    if !residuals.is_empty() {
        let residual = median(&residuals);
        m.set("bench.stage_sum_residual_pct", residual);
        tally.require(
            "cold stages add up to the cold sample",
            if residual <= 3.0 {
                Ok(())
            } else {
                Err(format!("{residual:.2} % unaccounted"))
            },
        );
    }
    let mut all = plain;
    all.extend(spanned);
    layers::serial_metrics(m, &all);
    if !ratios.is_empty() {
        let ratio = median(&ratios);
        m.set("baselines.eva.exec_ms", median(&eva_ms));
        m.set("paper.exec_ratio_eva", ratio);
        // A timing, not an output: `run` enforces the band, a single
        // workload run only says so.
        let band = spec::EVA_BANDS.iter().find(|band| band.0 == kind.name());
        if let Some(&(_, low, high)) = band.filter(|b| !(b.1..=b.2).contains(&ratio)) {
            eprintln!(
                "{}: paper.exec_ratio_eva {ratio:.3} is outside [{low}, {high}]",
                kind.name()
            );
        }
    }
    layers::walk_metrics(m, &walks);

    let model = layers::ckks_metrics(m, &rec, scheduled, POLY_DEGREE, cfg.seed);
    layers::model_metrics(m, &model, scheduled, true);

    tally.require("trace file", rec.finish(&cfg.trace_dir, kind.name()));
}
