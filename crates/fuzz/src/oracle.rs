//! The differential oracle: one program, every compiler, every executor.
//!
//! Per program the oracle checks, in order:
//!
//! 1. **Textual round-trip** — `parse(print(p))` reproduces `p` exactly.
//! 2. **Metamorphic pass preservation** — DCE and the full cleanup leave
//!    the exact plaintext semantics bit-identical (every rewrite is
//!    IEEE-exact by design).
//! 3. **Compilation** — Reserve, EVA and Hecate must all compile the
//!    program (the generator guarantees compilability); panics are caught
//!    and reported as findings, not crashes.
//! 4. **Schedule invariants** — independently of the validator, every
//!    live cipher value of every schedule respects the waterline, stays
//!    under the level's modulus budget (`scale ≤ level·R`), stays under
//!    the key's max level, and never gains level across an op.
//! 5. **Translation validation** — each compiler's schedule must
//!    bisimulate its source program modulo inserted scale management
//!    (`fhe_analysis::tv`), and the pipeline-recorded verdict must agree
//!    with an independent re-run of the validator.
//! 6. **Static-bound domination** — the interval analysis's per-value
//!    magnitude bound must dominate the magnitude the plain executor
//!    actually observes on every value of every schedule, and — on every
//!    encrypted run — the static noise estimate (interval magnitudes fed
//!    into the noise domain) must dominate the observed error.
//! 7. **Executor agreement** — the validated schedule, plain-executed,
//!    must reproduce the source program's reference bit-for-bit (scale
//!    management is semantically transparent); the noise simulator and the
//!    encrypted executor must agree with the reference — and pairwise with
//!    each other — within a tolerance scaled to the program's dynamic
//!    range; and the encrypted executor with four runners must reproduce
//!    the decrypted outputs of its own plain walk (one runner on the
//!    calling thread — the run the static memory, span and noise bounds
//!    are checked on) *bit-for-bit*: walk width is byte-transparent by
//!    design.
//!
//! Anything that trips becomes a [`Divergence`] with a stable
//! [`Divergence::label`] the shrinker uses to preserve failure identity
//! while minimizing.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fhe_analysis::noise::DEFAULT_NOISE_BITS;
use fhe_analysis::{analyze, AnalysisCx, IntervalDomain, MagnitudeSource, NoiseDomain};
use fhe_baselines::{EvaCompiler, HecateCompiler};
use fhe_ir::{passes, CompileParams, Op, Program, ScaleCompiler, ScheduleError, ScheduledProgram};
use fhe_runtime::{
    execute_parallel, max_abs_diff, plain, simulate, ExecOptions, NoiseModel, ParOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reserve_core::{Mode, ReserveCompiler};

/// What went wrong, structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// `parse(print(p))` did not reproduce `p`.
    RoundTrip,
    /// A cleanup pass changed exact plaintext semantics.
    Metamorphic,
    /// A compiler refused a generator-guaranteed-compilable program.
    CompileFail,
    /// A compiler or executor panicked.
    Panic,
    /// A schedule violated the scale/level type system.
    Invariant,
    /// An executor rejected a schedule its compiler validated.
    ExecError,
    /// Executor outputs disagreed beyond tolerance.
    OutputMismatch,
    /// A schedule failed translation validation against its source.
    TranslationValidation,
    /// A static analysis bound was beaten by an observed value.
    StaticBound,
    /// The depgraph parallelism profile is inconsistent (span > work) or
    /// the measured single-threaded latency fails to dominate the
    /// statically predicted span under a calibrated model.
    SpanBound,
}

impl DivergenceKind {
    fn as_str(self) -> &'static str {
        match self {
            DivergenceKind::RoundTrip => "roundtrip",
            DivergenceKind::Metamorphic => "metamorphic",
            DivergenceKind::CompileFail => "compile-fail",
            DivergenceKind::Panic => "panic",
            DivergenceKind::Invariant => "invariant",
            DivergenceKind::ExecError => "exec-error",
            DivergenceKind::OutputMismatch => "output-mismatch",
            DivergenceKind::TranslationValidation => "tv",
            DivergenceKind::StaticBound => "static-bound",
            DivergenceKind::SpanBound => "span-bound",
        }
    }
}

/// One oracle finding.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Failure class.
    pub kind: DivergenceKind,
    /// Where it happened: `"text"`, a pass name, `"reserve"`,
    /// `"eva:ckks"`, …
    pub stage: String,
    /// Human-readable specifics (panic payload, worst slot diff, …).
    pub detail: String,
}

impl Divergence {
    /// Stable identity used by the shrinker: kind + stage, without the
    /// run-specific detail.
    pub fn label(&self) -> String {
        format!("{}:{}", self.kind.as_str(), self.stage)
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.label(), self.detail)
    }
}

/// What one [`check_program`] run found, and how much of the encrypted
/// column it covered: with [`OracleConfig::run_ckks`] set, every schedule
/// that reaches the executors is counted in exactly one of the two
/// `ckks_schedules_*` fields.
#[derive(Debug, Clone, Default)]
pub struct OracleRun {
    /// Every divergence found (empty = the program is clean).
    pub divergences: Vec<Divergence>,
    /// Schedules (one per compiler) executed under encryption.
    pub ckks_schedules_run: u64,
    /// Schedules the encrypted column skipped because
    /// [`plain::schedule_fits_backend`] said they do not fit — outside the
    /// guarantee, not a divergence, and not evidence either.
    pub ckks_schedules_skipped: u64,
    /// Linear-combination groups the encrypted plain walks accumulated
    /// (`ExecReport::linear_groups`, summed over schedules): how much of
    /// the byte-exactness check ran through the accumulation.
    pub linear_groups_run: u64,
    /// Rescale hoists the compiles applied (`CompileReport::hoists`,
    /// summed; only the full reserve pipeline hoists): how much of the
    /// checking ran over hoisted schedules.
    pub hoists_applied: u64,
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Compilation parameters handed to every compiler. The default
    /// waterline of 35 bits keeps per-op noise (≈ `2^(16 − W)`) far under
    /// the comparison tolerance.
    pub params: CompileParams,
    /// Hecate exploration budget per program (the 20k paper default is
    /// far too slow for fuzzing volume).
    pub hecate_iterations: usize,
    /// Run the real encrypted backend (the most expensive check).
    pub run_ckks: bool,
    /// Also run the reserve compiler's BA/RA ablation modes.
    pub include_ablations: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            params: CompileParams::new(35),
            hecate_iterations: 300,
            run_ckks: true,
            include_ablations: false,
        }
    }
}

/// Seed for the encrypted backend's keygen/encryption randomness.
const CKKS_SEED: u64 = 0xD1FF;

/// Relative tolerance for the noisy executors: the absolute tolerance is
/// `REL_TOL × (1 + max |value|)` over every live value of the program, so
/// cancellation-heavy programs are judged against their true dynamic range.
const REL_TOL: f64 = 1e-2;

/// Extra bits added to the per-op noise term of the *static-bound* check
/// (`NoiseModel::noise_bits` is calibrated against the noise simulator; the
/// real lattice backend's key-switching and encoding noise run a few bits
/// higher). The margin inflates every per-op contribution uniformly, so the
/// bound keeps the exact structural growth of the noise domain — a
/// scale-management bug still beats it by many orders of magnitude.
const STATIC_NOISE_MARGIN_BITS: f64 = 16.0;

/// Multiplier on the measured latency in the span-bound check, absorbing
/// calibration and timing jitter on tiny fuzz programs.
const SPAN_MARGIN: f64 = 1.5;

/// The compiler roster under test.
pub fn compilers(cfg: &OracleConfig) -> Vec<(&'static str, Box<dyn ScaleCompiler>)> {
    let mut v: Vec<(&'static str, Box<dyn ScaleCompiler>)> = vec![
        ("reserve", Box::new(ReserveCompiler::full())),
        ("eva", Box::new(EvaCompiler)),
        (
            "hecate",
            Box::new(HecateCompiler::with_budget(cfg.hecate_iterations)),
        ),
    ];
    if cfg.include_ablations {
        v.push(("reserve-ba", Box::new(ReserveCompiler::with_mode(Mode::Ba))));
        v.push(("reserve-ra", Box::new(ReserveCompiler::with_mode(Mode::Ra))));
    }
    v
}

/// Deterministic input vectors for a program: each input's data depends
/// only on its *name*, so a shrunk or corpus-replayed program sees the
/// same slot values as the original run. Values lie in `[-1, 1)`.
pub fn input_data(program: &Program) -> HashMap<String, Vec<f64>> {
    let slots = program.slots();
    program
        .inputs()
        .iter()
        .filter_map(|&id| match program.op(id) {
            Op::Input { name } => Some(name.clone()),
            _ => None,
        })
        .map(|name| {
            let mut rng = StdRng::seed_from_u64(fnv1a(&name) ^ 0x5EED_F00D);
            let data = (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect();
            (name, data)
        })
        .collect()
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `f`, converting a panic into an error string.
pub fn catching<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    })
}

/// Largest `|slot|` over *every* value of the program (not just outputs):
/// the dynamic range the noisy executors' tolerance must scale with.
fn value_magnitude(program: &Program, inputs: &HashMap<String, Vec<f64>>) -> f64 {
    plain::values(program, inputs)
        .iter()
        .flatten()
        .fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Checks one program against every compiler and executor; returns every
/// divergence found and the encrypted column's coverage, summed over the
/// compilers.
pub fn check_program(program: &Program, cfg: &OracleConfig) -> OracleRun {
    let mut run = OracleRun::default();
    let divs = &mut run.divergences;

    check_roundtrip(program, divs);

    let inputs = input_data(program);
    let reference = match catching(|| plain::execute(program, &inputs)) {
        Ok(r) => r,
        Err(e) => {
            divs.push(Divergence {
                kind: DivergenceKind::Panic,
                stage: "plain:source".into(),
                detail: e,
            });
            return run;
        }
    };

    let magnitude = value_magnitude(program, &inputs);
    if !magnitude.is_finite() {
        divs.push(Divergence {
            kind: DivergenceKind::Invariant,
            stage: "generator".into(),
            detail: "program evaluates to non-finite values".into(),
        });
        return run;
    }
    let tol = REL_TOL * (1.0 + magnitude);

    // Table 1's m·x_max < Q constraint: scale analysis assumes message
    // magnitudes fit the slack between a value's scale and its level's
    // modulus budget. Values of magnitude up to `m` therefore need
    // `⌈log₂(1+m)⌉ + 1` bits of reserve at the outputs, which the
    // backward allocation propagates to every intermediate. Deriving it
    // from the measured dynamic range keeps the oracle honest: without
    // it, reserve's maximize-precision schedules sit at zero slack and
    // any |value| ≥ 1 wraps modulo Q/scale in the real backend.
    let mut params = cfg.params;
    let magnitude_bits = (1.0 + magnitude).log2().ceil() as u32 + 1;
    params.output_reserve_bits = params.output_reserve_bits.max(magnitude_bits);

    check_metamorphic(program, &inputs, &reference, divs);

    for (name, compiler) in compilers(cfg) {
        let divs = &mut run.divergences;
        let compiled = match catching(|| compiler.compile(program, &params)) {
            Err(payload) => {
                divs.push(Divergence {
                    kind: DivergenceKind::Panic,
                    stage: name.into(),
                    detail: payload,
                });
                continue;
            }
            Ok(Err(e)) => {
                divs.push(Divergence {
                    kind: DivergenceKind::CompileFail,
                    stage: name.into(),
                    detail: e.to_string(),
                });
                continue;
            }
            Ok(Ok(c)) => c,
        };
        run.hoists_applied += compiled.report.hoists as u64;
        check_schedule_invariants(&compiled.scheduled, &params, name, divs);
        check_translation_validation(program, &compiled, name, divs);
        check_parallelism_profile(&compiled.report, name, divs);
        let magnitudes = check_interval_bounds(&compiled.scheduled, &inputs, name, divs);
        check_executors(
            &compiled.scheduled,
            &inputs,
            &reference,
            &magnitudes,
            &compiled.report.memory,
            tol,
            name,
            cfg,
            &mut run,
        );
    }
    run
}

/// Independently re-proves the schedule bisimulates the source, and checks
/// the pipeline's recorded verdict agrees with the re-run.
fn check_translation_validation(
    program: &Program,
    compiled: &fhe_ir::pipeline::Compiled,
    compiler: &str,
    divs: &mut Vec<Divergence>,
) {
    let direct = fhe_analysis::validate(program, &compiled.scheduled);
    if let Err(mismatch) = &direct {
        divs.push(Divergence {
            kind: DivergenceKind::TranslationValidation,
            stage: compiler.into(),
            detail: format!("schedule does not bisimulate source: {mismatch}"),
        });
    }
    let recorded = compiled.report.translation_validated;
    if recorded != Some(direct.is_ok()) {
        divs.push(Divergence {
            kind: DivergenceKind::TranslationValidation,
            stage: format!("{compiler}:report"),
            detail: format!(
                "pipeline recorded translation_validated = {recorded:?}, re-run says {}",
                direct.is_ok()
            ),
        });
    }
}

/// Asserts the interval analysis dominates reality: for every live value of
/// the schedule, the statically derived magnitude bound must be ≥ the
/// magnitude the plain executor observes (IEEE rounding is monotone, so
/// endpoint interval arithmetic is a true upper bound — any violation is an
/// analysis bug). Returns the per-value magnitude bounds for the noise
/// check.
fn check_interval_bounds(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    compiler: &str,
    divs: &mut Vec<Divergence>,
) -> Vec<f64> {
    let program = &scheduled.program;
    let intervals = analyze(&IntervalDomain::default(), &AnalysisCx::source(program));
    let magnitudes: Vec<f64> = intervals.iter().map(|iv| iv.magnitude()).collect();
    let Ok(vals) = catching(|| plain::values(program, inputs)) else {
        return magnitudes; // the executor checks report the panic
    };
    let live = fhe_ir::analysis::live(program);
    for (id, slots) in program.ids().zip(&vals) {
        if !live[id.index()] {
            continue;
        }
        let observed = slots.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if observed > magnitudes[id.index()] {
            divs.push(Divergence {
                kind: DivergenceKind::StaticBound,
                stage: format!("{compiler}:interval"),
                detail: format!(
                    "{id}: observed slot magnitude {observed:.6e} beats static bound {:.6e}",
                    magnitudes[id.index()]
                ),
            });
        }
    }
    magnitudes
}

fn check_roundtrip(program: &Program, divs: &mut Vec<Divergence>) {
    let push = |divs: &mut Vec<Divergence>, detail: String| {
        divs.push(Divergence {
            kind: DivergenceKind::RoundTrip,
            stage: "text".into(),
            detail,
        });
    };
    let text = fhe_ir::text::print(program);
    let parsed = match catching(|| fhe_ir::text::parse(&text)) {
        Ok(Ok(p)) => p,
        Ok(Err(e)) => return push(divs, format!("printed program fails to parse: {e}")),
        Err(payload) => return push(divs, format!("parser panicked: {payload}")),
    };
    if let Some(diff) = structural_diff(program, &parsed) {
        push(divs, diff);
    } else if fhe_ir::text::print(&parsed) != text {
        push(divs, "printing is not idempotent".into());
    }
}

/// First structural difference between two programs, if any.
pub fn structural_diff(a: &Program, b: &Program) -> Option<String> {
    if a.name() != b.name() {
        return Some(format!("name {:?} vs {:?}", a.name(), b.name()));
    }
    if a.slots() != b.slots() {
        return Some(format!("slots {} vs {}", a.slots(), b.slots()));
    }
    if a.num_ops() != b.num_ops() {
        return Some(format!("op count {} vs {}", a.num_ops(), b.num_ops()));
    }
    for id in a.ids() {
        if a.op(id) != b.op(id) {
            return Some(format!("op {id}: {:?} vs {:?}", a.op(id), b.op(id)));
        }
    }
    if a.outputs() != b.outputs() {
        return Some(format!("outputs {:?} vs {:?}", a.outputs(), b.outputs()));
    }
    None
}

fn check_metamorphic(
    program: &Program,
    inputs: &HashMap<String, Vec<f64>>,
    reference: &[Vec<f64>],
    divs: &mut Vec<Divergence>,
) {
    let variants: [(&str, Program); 2] = [
        ("dce", passes::dce(program).0),
        ("cleanup", passes::cleanup(program)),
    ];
    for (pass, variant) in variants {
        match catching(|| plain::execute(&variant, inputs)) {
            Err(payload) => divs.push(Divergence {
                kind: DivergenceKind::Panic,
                stage: format!("plain:{pass}"),
                detail: payload,
            }),
            Ok(outputs) => {
                // Every cleanup rewrite is IEEE-exact, so "preserved
                // semantics" means bit-identical, not merely close.
                let worst = max_abs_diff(&outputs, reference);
                if worst != 0.0 {
                    divs.push(Divergence {
                        kind: DivergenceKind::Metamorphic,
                        stage: pass.into(),
                        detail: format!("max |Δ| = {worst:.3e} after {pass}"),
                    });
                }
            }
        }
    }
}

/// Re-derives the scale map and asserts the type-system invariants the
/// paper's Table 1 imposes, independently of the compilers' own
/// validation calls.
fn check_schedule_invariants(
    scheduled: &ScheduledProgram,
    params: &CompileParams,
    compiler: &str,
    divs: &mut Vec<Divergence>,
) {
    let mut push = |detail: String| {
        divs.push(Divergence {
            kind: DivergenceKind::Invariant,
            stage: compiler.into(),
            detail,
        });
    };
    let map = match scheduled.validate() {
        Ok(map) => map,
        Err(errs) => {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            push(format!("schedule fails validation: {}", msgs.join("; ")));
            return;
        }
    };
    let program = &scheduled.program;
    let live = fhe_ir::analysis::live(program);
    let waterline = f64::from(params.waterline_bits);
    let rescale = f64::from(params.rescale_bits);
    for id in program.ids() {
        if !live[id.index()] || !program.is_cipher(id) {
            continue;
        }
        let scale = map.scale_bits(id).to_f64();
        let level = map.level(id);
        if scale < waterline - 1e-9 {
            push(format!(
                "{id}: scale 2^{scale:.2} below waterline 2^{waterline}"
            ));
        }
        if scale > f64::from(level) * rescale + 1e-9 {
            push(format!(
                "{id}: scale 2^{scale:.2} exceeds modulus 2^{} at level {level}",
                f64::from(level) * rescale
            ));
        }
        if level > params.max_level {
            push(format!(
                "{id}: level {level} exceeds max level {}",
                params.max_level
            ));
        }
        // Level monotonicity: an op's result level never exceeds its
        // cipher operands' minimum (rescale/modswitch must drop exactly
        // one).
        let operand_min = program
            .op(id)
            .operands()
            .filter(|&o| program.is_cipher(o))
            .map(|o| map.level(o))
            .min();
        if let Some(lmin) = operand_min {
            let bound = match program.op(id) {
                Op::Rescale(_) | Op::ModSwitch(_) => lmin.saturating_sub(1),
                _ => lmin,
            };
            if level > bound {
                push(format!(
                    "{id}: level {level} above operand bound {bound} ({})",
                    program.op(id).mnemonic()
                ));
            }
        }
    }
}

/// One executor column: runs it, turning a panic or a rejected schedule
/// into a divergence, and holds its outputs to within `allowed` of the
/// reference. Returns the run when it is clean.
fn run_column<T>(
    stage: String,
    allowed: f64,
    reference: &[Vec<f64>],
    divs: &mut Vec<Divergence>,
    run: impl FnOnce() -> Result<T, Vec<ScheduleError>>,
    outputs: impl Fn(&T) -> &[Vec<f64>],
) -> Option<T> {
    let (kind, detail) = match catching(run) {
        Err(payload) => (DivergenceKind::Panic, payload),
        Ok(Err(errs)) => {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            (DivergenceKind::ExecError, msgs.join("; "))
        }
        Ok(Ok(run)) => {
            let worst = max_abs_diff(outputs(&run), reference);
            if worst <= allowed {
                return Some(run);
            }
            (
                DivergenceKind::OutputMismatch,
                format!("max |Δ| vs reference = {worst:.3e} > {allowed:.3e}"),
            )
        }
    };
    divs.push(Divergence {
        kind,
        stage,
        detail,
    });
    None
}

#[allow(clippy::too_many_arguments)]
fn check_executors(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    reference: &[Vec<f64>],
    magnitudes: &[f64],
    static_mem: &fhe_ir::MemoryEstimate,
    tol: f64,
    compiler: &str,
    cfg: &OracleConfig,
    run: &mut OracleRun,
) {
    let encrypt = cfg.run_ckks
        && catching(|| plain::schedule_fits_backend(scheduled, inputs)).unwrap_or(false);
    run.ckks_schedules_run += u64::from(encrypt);
    run.ckks_schedules_skipped += u64::from(cfg.run_ckks && !encrypt);
    let divs = &mut run.divergences;
    let stage = |column: &str| format!("{compiler}:{column}");

    // The exact column: only a schedule that validates is interpreted.
    run_column(
        stage("plain"),
        0.0,
        reference,
        divs,
        || {
            scheduled.validate()?;
            Ok(plain::execute(&scheduled.program, inputs))
        },
        |outputs| outputs,
    );

    let mut noisy_outputs: Vec<(&str, Vec<Vec<f64>>)> = Vec::new();
    let sim = || simulate(scheduled, inputs, &NoiseModel::default());
    if let Some(sim) = run_column(stage("noise-sim"), tol, reference, divs, sim, |o| o) {
        noisy_outputs.push(("noise-sim", sim));
    }

    if encrypt {
        let backend = ExecOptions {
            poly_degree: scheduled.program.slots() * 2,
            seed: CKKS_SEED,
            threads: 1,
            ..ExecOptions::default()
        };
        let ckks = |options: ParOptions| move || execute_parallel(scheduled, inputs, &options);
        let plain_walk = run_column(
            stage("ckks"),
            tol,
            reference,
            divs,
            ckks(ParOptions::plain_walk(backend.clone())),
            |r| &r.outputs,
        );
        // The static bounds are checked on the plain walk.
        if let Some(report) = &plain_walk {
            run.linear_groups_run += report.linear_groups as u64;
            check_noise_bound(
                scheduled,
                magnitudes,
                &report.outputs,
                reference,
                compiler,
                divs,
            );
            check_span_bound(scheduled, report.op_time, compiler, divs);
            // The compiler's static working-set estimate must dominate the
            // peak the runtime's pool + key accounting actually measured
            // (both sides exclude encoder scratch).
            if report.mem.peak_bytes > static_mem.peak_bytes {
                divs.push(Divergence {
                    kind: DivergenceKind::StaticBound,
                    stage: stage("memory"),
                    detail: format!(
                        "measured peak {} bytes beats static bound {} bytes (poly {} + keys {})",
                        report.mem.peak_bytes,
                        static_mem.peak_bytes,
                        static_mem.poly_peak_bytes,
                        static_mem.key_bytes
                    ),
                });
            }
        }
        // The same executor gone wide: checked against the reference like
        // the others, and bit-for-bit against the plain walk — walk width
        // must be byte-transparent.
        let wide = ParOptions {
            exec: backend,
            workers: 4,
            ..ParOptions::default()
        };
        let wide = run_column(stage("ckks-par"), tol, reference, divs, ckks(wide), |r| {
            &r.outputs
        });
        let to_bits = |outs: &[Vec<f64>]| -> Vec<Vec<u64>> {
            outs.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        if let (Some(plain_walk), Some(wide)) = (&plain_walk, &wide) {
            if to_bits(&plain_walk.outputs) != to_bits(&wide.outputs) {
                divs.push(Divergence {
                    kind: DivergenceKind::OutputMismatch,
                    stage: stage("ckks~ckks-par:bits"),
                    detail: "four runners diverge bitwise from the plain walk".into(),
                });
            }
        }
        noisy_outputs.extend(plain_walk.map(|r| ("ckks", r.outputs)));
        noisy_outputs.extend(wide.map(|r| ("ckks-par", r.outputs)));
    }
    // Pairwise agreement between the noisy executors (each is within
    // `tol` of the reference, so demand `2·tol` of each other).
    check_pairwise(&noisy_outputs, tol, compiler, divs);
}

/// Internal consistency of the parallelism profile every compile report
/// carries: span never exceeds work.
fn check_parallelism_profile(
    report: &fhe_ir::pipeline::CompileReport,
    compiler: &str,
    divs: &mut Vec<Divergence>,
) {
    let p = &report.parallelism;
    let eps = 1e-6 + p.work_us * 1e-9;
    if p.span_us > p.work_us + eps {
        divs.push(Divergence {
            kind: DivergenceKind::SpanBound,
            stage: format!("{compiler}:profile"),
            detail: format!("span {:.3}us exceeds work {:.3}us", p.span_us, p.work_us),
        });
    }
}

/// On every encrypted run, the measured single-threaded latency — times
/// [`SPAN_MARGIN`] — must dominate the span a backend-calibrated cost model
/// predicts: the span is the latency floor a DAG-parallel executor could
/// reach, so a serial run beating it means the static analysis under-costs
/// the schedule. The margin absorbs timing jitter, and hoisted rotation-group members (which the backend computes
/// with a shared decomposition, cheaper than the calibrated lone rotation)
/// are credited back explicitly.
fn check_span_bound(
    scheduled: &ScheduledProgram,
    op_time: std::time::Duration,
    compiler: &str,
    divs: &mut Vec<Divergence>,
) {
    use fhe_ir::OpClass;
    use std::sync::{Mutex, OnceLock};

    let Ok(map) = scheduled.validate() else {
        return; // invariant checks already flagged this
    };
    let slots = scheduled.program.slots();
    let levels = map.max_level() as usize;
    let rescale_bits = scheduled.params.rescale_bits;

    type CalibrationCache = Mutex<HashMap<(usize, u32, usize), fhe_ir::CostModel>>;
    static CACHE: OnceLock<CalibrationCache> = OnceLock::new();
    let key = (slots, rescale_bits, levels);

    // The calibration times microsecond ops, so one preemption while it
    // runs (another test thread on a one-core host) inflates a cell several
    // times over, and the cached model with it. Noise only ever adds time,
    // so each cell is the minimum of three calibrations; and a failed check
    // drops the cached model, recalibrates and compares again — only a
    // bound that fails three models is reported.
    let calibrate = |seed: u64| {
        let tabulated = levels.max(2);
        let runs: Vec<fhe_ir::CostModel> = (0..3)
            .map(|i| {
                fhe_runtime::microbench::calibrate_backend(
                    slots,
                    rescale_bits,
                    tabulated,
                    1,
                    seed + i,
                )
            })
            .collect();
        fhe_ir::CostModel::from_rows(OpClass::ALL.iter().map(|&class| {
            let cell = |level| {
                runs.iter()
                    .map(|m| m.at_level(class, level))
                    .fold(f64::INFINITY, f64::min)
            };
            (class, (1..=tabulated as u32).map(cell).collect())
        }))
    };
    let measured_us = op_time.as_secs_f64() * 1e6;
    let mut failure = String::new();
    for attempt in 0..3 {
        let model = CACHE
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("calibration cache poisoned")
            .entry(key)
            .or_insert_with(|| calibrate(0xCA1B + 3 * attempt))
            .clone();
        let graph = fhe_ir::DepGraph::build(scheduled, &map, &model, true);
        let est = graph.estimate();
        let credit_us = hoist_credit_us(&graph, &map, &model);
        if est.span_us <= measured_us * SPAN_MARGIN + credit_us + 200.0 {
            return;
        }
        failure = format!(
            "calibrated span {:.1}us exceeds measured single-thread latency {:.1}us \
             (margin x{:.2} + hoist credit {:.1}us)",
            est.span_us, measured_us, SPAN_MARGIN, credit_us
        );
        CACHE
            .get()
            .expect("initialized above")
            .lock()
            .expect("calibration cache poisoned")
            .remove(&key);
    }
    divs.push(Divergence {
        kind: DivergenceKind::SpanBound,
        stage: format!("{compiler}:measured"),
        detail: failure,
    });
}

/// Credit for the hoisted rotation groups the runtime forms, read off the
/// schedule's graph ([`fhe_ir::DepGraph::rotation_groups`]): every
/// non-leader member runs on a shared decomposition, so its real cost can
/// undercut the calibrated lone-rotation cost by up to the full rotation
/// latency. A group of `n` earns `(n − 1)/n` of its members' summed
/// latency.
fn hoist_credit_us(
    graph: &fhe_ir::DepGraph,
    map: &fhe_ir::ScaleMap,
    model: &fhe_ir::CostModel,
) -> f64 {
    graph
        .rotation_groups()
        .values()
        .map(|group| {
            let n = group.len() as f64;
            let total: f64 = (group.iter())
                .map(|&(id, _)| model.at_level(fhe_ir::OpClass::Rotate, map.level(id)))
                .sum();
            total * (n - 1.0) / n
        })
        .sum()
}

/// The static noise estimate — the noise domain fed with the interval
/// analysis's per-value magnitudes — must dominate the error the encrypted
/// backend actually produced on every output.
fn check_noise_bound(
    scheduled: &ScheduledProgram,
    magnitudes: &[f64],
    outputs: &[Vec<f64>],
    reference: &[Vec<f64>],
    compiler: &str,
    divs: &mut Vec<Divergence>,
) {
    let domain = NoiseDomain {
        noise_bits: DEFAULT_NOISE_BITS + STATIC_NOISE_MARGIN_BITS,
        magnitudes: MagnitudeSource::PerValue(magnitudes.to_vec()),
    };
    let Ok(bounds) = domain.output_bounds(scheduled) else {
        return; // invariant checks already flagged this
    };
    // Both the plain reference and the backend's encode/decode pipeline run
    // in f64 and accumulate *different* roundings — up to ulp-scale
    // differences per op. Allow `num_ops` ulps of the largest intermediate
    // magnitude on top of the lattice-noise bound; still ~13 orders of
    // magnitude below the O(1) error of a genuine scale-management bug.
    let fp_slop = magnitudes.iter().copied().fold(1.0f64, f64::max)
        * f64::EPSILON
        * scheduled.program.num_ops() as f64;
    for (k, (bound, (got, want))) in bounds.iter().zip(outputs.iter().zip(reference)).enumerate() {
        let observed = got
            .iter()
            .zip(want)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        let bound = bound + fp_slop;
        if observed > bound {
            divs.push(Divergence {
                kind: DivergenceKind::StaticBound,
                stage: format!("{compiler}:noise"),
                detail: format!(
                    "output #{k}: observed encrypted error {observed:.6e} beats static \
                     estimate {bound:.6e}"
                ),
            });
        }
    }
}

fn check_pairwise(
    noisy_outputs: &[(&str, Vec<Vec<f64>>)],
    tol: f64,
    compiler: &str,
    divs: &mut Vec<Divergence>,
) {
    for i in 0..noisy_outputs.len() {
        for j in i + 1..noisy_outputs.len() {
            let (a_name, a) = &noisy_outputs[i];
            let (b_name, b) = &noisy_outputs[j];
            let worst = max_abs_diff(a, b);
            if worst > 2.0 * tol {
                divs.push(Divergence {
                    kind: DivergenceKind::OutputMismatch,
                    stage: format!("{compiler}:{a_name}~{b_name}"),
                    detail: format!("pairwise max |Δ| = {worst:.3e} > {:.3e}", 2.0 * tol),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn input_data_depends_only_on_names() {
        let cfg = GenConfig::default();
        let p = generate(7, &cfg);
        let a = input_data(&p);
        let b = input_data(&p);
        assert_eq!(a, b);
        // Different inputs get different data.
        if a.len() >= 2 {
            let vals: Vec<&Vec<f64>> = a.values().collect();
            assert_ne!(vals[0], vals[1]);
        }
    }

    #[test]
    fn clean_programs_produce_no_divergences() {
        let cfg = GenConfig::default();
        let oracle = OracleConfig {
            run_ckks: false,
            ..OracleConfig::default()
        };
        for seed in 100..110 {
            let p = generate(seed, &cfg);
            let run = check_program(&p, &oracle);
            assert!(run.divergences.is_empty(), "seed {seed}: {run:?}");
            assert_eq!(
                (run.ckks_schedules_run, run.ckks_schedules_skipped),
                (0, 0),
                "run_ckks is off: nothing is counted"
            );
        }
    }

    #[test]
    fn span_bound_holds_on_encrypted_runs() {
        // Small rings keep the encrypted backend and its calibration fast;
        // width stress makes the span/work gap nontrivial.
        let cfg = GenConfig {
            slots: 16,
            width_stress: 6,
            ..GenConfig::default()
        };
        let oracle = OracleConfig::default();
        for seed in 300..303 {
            let p = generate(seed, &cfg);
            let divs = check_program(&p, &oracle).divergences;
            assert!(divs.is_empty(), "seed {seed}: {divs:?}");
        }
    }

    #[test]
    fn identity_rotations_earn_no_hoist_credit() {
        // Cleanup drops identity rotations, so the schedule is written by
        // hand: one source rotated by 1, 2 and a full turn.
        let slots = 16;
        let mut p = Program::new("turns", slots);
        let x = p.push(Op::Input { name: "x".into() });
        let turns = [1, 2, slots as i64]
            .into_iter()
            .map(|k| p.push(Op::Rotate(x, k)))
            .collect();
        p.set_outputs(turns);
        let s = ScheduledProgram {
            params: CompileParams::new(30),
            inputs: vec![fhe_ir::InputSpec {
                scale_bits: 30.into(),
                level: 1,
            }],
            program: p,
        };
        let map = s.validate().expect("legal by hand");
        let model = fhe_ir::CostModel::paper_table3();
        let graph = fhe_ir::DepGraph::build(&s, &map, &model, true);
        // Only {1, 2} is a group: two members at level 1 earn one
        // rotation's latency.
        assert_eq!(
            hoist_credit_us(&graph, &map, &model),
            model.at_level(fhe_ir::OpClass::Rotate, 1)
        );
    }

    #[test]
    fn inconsistent_profile_is_flagged() {
        let p = generate(7, &GenConfig::default());
        let compiled = reserve_core::ReserveCompiler::full()
            .compile(&p, &CompileParams::new(35))
            .expect("compiles");
        let mut report = compiled.report;
        report.parallelism.span_us = report.parallelism.work_us * 2.0 + 1.0;
        let mut divs = Vec::new();
        super::check_parallelism_profile(&report, "reserve", &mut divs);
        assert!(divs
            .iter()
            .any(|d| d.kind == DivergenceKind::SpanBound && d.detail.contains("exceeds work")));
    }

    #[test]
    fn catching_captures_panics() {
        assert_eq!(catching(|| 3).unwrap(), 3);
        let err = catching(|| panic!("boom {}", 1)).unwrap_err();
        assert!(err.contains("boom"), "got {err}");
    }
}
