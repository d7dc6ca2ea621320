//! The instrumented pass-pipeline architecture shared by every compiler.
//!
//! Every scale-management compiler in the workspace (the reserve compiler,
//! EVA, Hecate) is a named sequence of [`Pass`]es executed by a
//! [`PassManager`]. The manager records per-pass wall time, op-count and
//! level deltas, and diagnostics into a [`PipelineTrace`], so each
//! compiler's internal phases are observable without touching its
//! algorithms — and so the paper's Table 4 columns (scale-management time
//! vs total time) fall out of the trace instead of hand-rolled `Instant`
//! bookkeeping.
//!
//! The compilers themselves are unified behind [`ScaleCompiler`]: one trait
//! method compiles a [`Program`] under [`CompileParams`] into a
//! [`Compiled`] artifact carrying the schedule plus a [`CompileReport`]
//! with identical fields for every compiler. Benches, tests and tools
//! iterate `&[&dyn ScaleCompiler]` — adding a compiler is one trait impl
//! and zero harness changes.
//!
//! # Example
//!
//! A two-pass pipeline over closures:
//!
//! ```
//! use fhe_ir::pipeline::{PassCx, PassIr, PassKind, PassManager};
//! use fhe_ir::{passes, Builder, CompileParams, CostModel};
//!
//! let b = Builder::new("t", 4);
//! let x = b.input("x");
//! let p = b.finish(vec![x.clone() * x.clone() + x.clone() * x]);
//!
//! let mut cx = PassCx::new(CompileParams::new(20), CostModel::paper_table3());
//! let mut pm = PassManager::new()
//!     .with_fn("cleanup", PassKind::Cleanup, |ir, _cx| {
//!         Ok(PassIr::Source(passes::cleanup(ir.program())))
//!     })
//!     .with_fn("count", PassKind::Analysis, |ir, cx| {
//!         cx.note(format!("{} ops survive", ir.num_ops()));
//!         Ok(ir)
//!     });
//! let (ir, trace) = pm.run(PassIr::Source(p), &mut cx).unwrap();
//! assert_eq!(trace.passes.len(), 2);
//! assert!(trace.passes[0].ops_after < trace.passes[0].ops_before);
//! assert!(ir.num_ops() > 0);
//! ```

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::diag::{Finding, TvVerdict};
use crate::params::CompileParams;
use crate::program::Program;
use crate::schedule::ScheduledProgram;

/// The IR a pass consumes and produces: a source program before scale
/// management, or a scheduled program after rescale placement.
#[derive(Debug, Clone)]
pub enum PassIr {
    /// Arithmetic program without scale-management ops.
    Source(Program),
    /// Compiled program with scale management and input encodings.
    Scheduled(ScheduledProgram),
}

impl PassIr {
    /// The underlying program, whichever stage the IR is at.
    pub fn program(&self) -> &Program {
        match self {
            PassIr::Source(p) => p,
            PassIr::Scheduled(s) => &s.program,
        }
    }

    /// Op count of the underlying program.
    pub fn num_ops(&self) -> usize {
        self.program().num_ops()
    }

    /// The maximum ciphertext level, once the IR is scheduled and legal.
    pub fn max_level(&self) -> Option<u32> {
        match self {
            PassIr::Source(_) => None,
            PassIr::Scheduled(s) => s.validate().ok().map(|m| m.max_level()),
        }
    }

    /// Unwraps the source program, or errors in the named pass.
    ///
    /// # Errors
    ///
    /// Fails when the IR has already been scheduled.
    pub fn try_source(self, pass: &str) -> Result<Program, PassError> {
        match self {
            PassIr::Source(p) => Ok(p),
            PassIr::Scheduled(_) => Err(PassError::new(
                pass,
                "expected a source program, found a scheduled program",
            )),
        }
    }

    /// Unwraps the scheduled program, or errors in the named pass.
    ///
    /// # Errors
    ///
    /// Fails when the IR has not been scheduled yet.
    pub fn try_scheduled(self, pass: &str) -> Result<ScheduledProgram, PassError> {
        match self {
            PassIr::Scheduled(s) => Ok(s),
            PassIr::Source(_) => Err(PassError::new(
                pass,
                "expected a scheduled program, found a source program",
            )),
        }
    }
}

/// What a pass contributes to; drives the [`PipelineTrace`] time split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Pre-scale-management cleanup (CSE/DCE/folding).
    Cleanup,
    /// Pure analysis: computes artifacts, does not rewrite the IR.
    Analysis,
    /// Scale management proper — counted in the paper's "SM time" column.
    ScaleManagement,
    /// Verification (type checking, schedule validation).
    Check,
}

impl PassKind {
    /// Short label used in trace renderings.
    pub fn label(self) -> &'static str {
        match self {
            PassKind::Cleanup => "cleanup",
            PassKind::Analysis => "analysis",
            PassKind::ScaleManagement => "scale-mgmt",
            PassKind::Check => "check",
        }
    }
}

/// A pass failed; carries per-diagnostic detail.
#[derive(Debug, Clone)]
pub struct PassError {
    /// The pass that failed.
    pub pass: String,
    /// One entry per violated constraint or failure reason.
    pub diagnostics: Vec<String>,
}

impl PassError {
    /// A single-diagnostic error.
    pub fn new(pass: impl Into<String>, diagnostic: impl Into<String>) -> Self {
        PassError {
            pass: pass.into(),
            diagnostics: vec![diagnostic.into()],
        }
    }

    /// An error from a list of diagnostics (e.g. type errors).
    pub fn with_diagnostics<D: fmt::Debug>(pass: impl Into<String>, errs: &[D]) -> Self {
        PassError {
            pass: pass.into(),
            diagnostics: errs.iter().map(|e| format!("{e:?}")).collect(),
        }
    }
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pass `{}` failed: {} diagnostic(s)",
            self.pass,
            self.diagnostics.len()
        )?;
        if let Some(first) = self.diagnostics.first() {
            write!(f, "; first: {first}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PassError {}

/// Shared state threaded through a pipeline run: compilation parameters,
/// the cost model, cross-pass artifacts, and instrumentation counters.
#[derive(Debug)]
pub struct PassCx {
    /// RNS-CKKS compilation parameters (waterline, `R`, max level).
    pub params: CompileParams,
    /// Latency model passes may consult (ordering, hoisting, scoring).
    pub cost_model: CostModel,
    /// Candidate plans evaluated (Hecate's `# Iters`; 1 for direct
    /// compilers). Passes add to it via [`PassCx::add_iterations`].
    pub iterations: usize,
    /// Rescale hoists applied (reserve pipeline; 0 elsewhere).
    pub hoists: usize,
    notes: Vec<String>,
    findings: Vec<Finding>,
    artifacts: HashMap<TypeId, Box<dyn Any>>,
}

impl PassCx {
    /// A fresh context with zeroed counters and an empty blackboard.
    pub fn new(params: CompileParams, cost_model: CostModel) -> Self {
        PassCx {
            params,
            cost_model,
            iterations: 0,
            hoists: 0,
            notes: Vec::new(),
            findings: Vec::new(),
            artifacts: HashMap::new(),
        }
    }

    /// Attaches a diagnostic note to the currently running pass's record.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Records a lint finding, surfaced in the final
    /// [`CompileReport::findings`].
    pub fn finding(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Findings recorded so far across all passes.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Counts candidate plans evaluated by the current pass.
    pub fn add_iterations(&mut self, n: usize) {
        self.iterations += n;
    }

    /// Stores a cross-pass artifact, keyed by type (e.g. an allocation
    /// order or a reserve solution). Replaces any previous value of `T`.
    pub fn put<T: Any>(&mut self, artifact: T) {
        self.artifacts.insert(TypeId::of::<T>(), Box::new(artifact));
    }

    /// Borrows a previously stored artifact.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.artifacts
            .get(&TypeId::of::<T>())
            .and_then(|a| a.downcast_ref())
    }

    /// Removes and returns a previously stored artifact.
    pub fn take<T: Any>(&mut self) -> Option<T> {
        self.artifacts
            .remove(&TypeId::of::<T>())
            .and_then(|a| a.downcast().ok())
            .map(|b| *b)
    }
}

/// One compiler phase: a named transformation over [`PassIr`].
pub trait Pass {
    /// The pass's name as shown in traces (e.g. `"alloc"`, `"hoist"`).
    fn name(&self) -> &str;

    /// What the pass's time is attributed to.
    fn kind(&self) -> PassKind {
        PassKind::ScaleManagement
    }

    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Implementations fail with a [`PassError`] naming themselves.
    fn run(&mut self, ir: PassIr, cx: &mut PassCx) -> Result<PassIr, PassError>;
}

struct FnPass<F> {
    name: String,
    kind: PassKind,
    f: F,
}

impl<F> Pass for FnPass<F>
where
    F: FnMut(PassIr, &mut PassCx) -> Result<PassIr, PassError>,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> PassKind {
        self.kind
    }

    fn run(&mut self, ir: PassIr, cx: &mut PassCx) -> Result<PassIr, PassError> {
        (self.f)(ir, cx)
    }
}

/// Instrumentation record of one executed pass.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Pass name.
    pub name: String,
    /// Time attribution class.
    pub kind: PassKind,
    /// Wall time of the pass body.
    pub wall: Duration,
    /// Op count entering the pass.
    pub ops_before: usize,
    /// Op count leaving the pass.
    pub ops_after: usize,
    /// Max ciphertext level entering the pass (`None` before scheduling).
    pub max_level_before: Option<u32>,
    /// Max ciphertext level leaving the pass (`None` before scheduling).
    pub max_level_after: Option<u32>,
    /// Diagnostics the pass attached via [`PassCx::note`].
    pub notes: Vec<String>,
}

impl PassRecord {
    /// Deterministic one-line rendering (no wall time) for golden tests.
    pub fn summary(&self) -> String {
        let lvl = |l: Option<u32>| l.map_or_else(|| "-".to_string(), |v| v.to_string());
        let mut line = format!(
            "{} [{}]: ops {} -> {}, level {} -> {}",
            self.name,
            self.kind.label(),
            self.ops_before,
            self.ops_after,
            lvl(self.max_level_before),
            lvl(self.max_level_after),
        );
        for note in &self.notes {
            line.push_str(&format!("\n  note: {note}"));
        }
        line
    }
}

/// The instrumentation a [`PassManager`] run produces: one record per pass.
#[derive(Debug, Clone, Default)]
pub struct PipelineTrace {
    /// Executed passes, in order.
    pub passes: Vec<PassRecord>,
}

impl PipelineTrace {
    /// Total wall time across all passes.
    pub fn total_time(&self) -> Duration {
        self.passes.iter().map(|p| p.wall).sum()
    }

    /// Wall time of scale-management passes only (the paper's "SM time").
    pub fn scale_management_time(&self) -> Duration {
        self.passes
            .iter()
            .filter(|p| p.kind == PassKind::ScaleManagement)
            .map(|p| p.wall)
            .sum()
    }

    /// The record for a named pass, if it ran.
    pub fn pass(&self, name: &str) -> Option<&PassRecord> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// Deterministic multi-line rendering (no wall times) for golden tests.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for p in &self.passes {
            out.push_str(&p.summary());
            out.push('\n');
        }
        out
    }
}

/// Executes a named sequence of passes, recording a [`PipelineTrace`].
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassManager")
            .field("passes", &names)
            .finish()
    }
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pass (builder style).
    pub fn with(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends a closure as a pass (builder style).
    pub fn with_fn(
        self,
        name: impl Into<String>,
        kind: PassKind,
        f: impl FnMut(PassIr, &mut PassCx) -> Result<PassIr, PassError> + 'static,
    ) -> Self {
        self.with(FnPass {
            name: name.into(),
            kind,
            f,
        })
    }

    /// Runs every pass in sequence, threading `cx` through, and returns the
    /// final IR plus the per-pass trace.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first pass failure.
    pub fn run(
        &mut self,
        mut ir: PassIr,
        cx: &mut PassCx,
    ) -> Result<(PassIr, PipelineTrace), PassError> {
        let mut trace = PipelineTrace::default();
        let mut level_before = ir.max_level();
        for pass in &mut self.passes {
            let ops_before = ir.num_ops();
            cx.notes.clear();
            let t0 = Instant::now();
            ir = pass.run(ir, cx)?;
            let wall = t0.elapsed();
            let max_level_after = ir.max_level();
            trace.passes.push(PassRecord {
                name: pass.name().to_string(),
                kind: pass.kind(),
                wall,
                ops_before,
                ops_after: ir.num_ops(),
                max_level_before: level_before,
                max_level_after,
                notes: std::mem::take(&mut cx.notes),
            });
            level_before = max_level_after;
        }
        Ok((ir, trace))
    }
}

/// The shared cleanup pass (CSE/DCE/folding to fixpoint) every compiler
/// runs before scale management, so op counts stay comparable (§8.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct CleanupPass;

impl Pass for CleanupPass {
    fn name(&self) -> &str {
        "cleanup"
    }

    fn kind(&self) -> PassKind {
        PassKind::Cleanup
    }

    fn run(&mut self, ir: PassIr, _cx: &mut PassCx) -> Result<PassIr, PassError> {
        let p = ir.try_source("cleanup")?;
        Ok(PassIr::Source(crate::passes::cleanup(&p)))
    }
}

/// Validates the scheduled program; fails with the validator's errors.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidatePass;

impl Pass for ValidatePass {
    fn name(&self) -> &str {
        "validate"
    }

    fn kind(&self) -> PassKind {
        PassKind::Check
    }

    fn run(&mut self, ir: PassIr, _cx: &mut PassCx) -> Result<PassIr, PassError> {
        let s = ir.try_scheduled("validate")?;
        if let Err(errs) = s.validate() {
            return Err(PassError::with_diagnostics("validate", &errs));
        }
        Ok(PassIr::Scheduled(s))
    }
}

// ---------------------------------------------------------------------------
// Unified compiler artifacts.
// ---------------------------------------------------------------------------

/// Compilation statistics every compiler reports identically — the union of
/// the paper's Table 4 columns plus the per-pass [`PipelineTrace`].
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// The compiler's label ("EVA", "Hecate", "BA", "RA", "This work").
    pub compiler: String,
    /// Time in scale management proper (sum of `ScaleManagement` passes).
    pub scale_management_time: Duration,
    /// End-to-end compile time including cleanup and validation.
    pub total_time: Duration,
    /// Candidate plans evaluated (1 for direct compilers; Table 4's
    /// `# Iters` for Hecate).
    pub iterations: usize,
    /// Op count entering scale management (after cleanup).
    pub ops_before: usize,
    /// Op count of the scheduled program.
    pub ops_after: usize,
    /// Rescale hoists applied (reserve pipeline; 0 elsewhere).
    pub hoists: usize,
    /// Statically estimated latency of the result (µs).
    pub estimated_latency_us: f64,
    /// Modulus level required of fresh encryptions.
    pub max_level: u32,
    /// Lint findings recorded by analysis passes (empty when the pipeline
    /// runs no lints, or when the schedule is clean).
    pub findings: Vec<Finding>,
    /// Translation-validation verdict: `Some(true)` when the scheduled
    /// program was proven equal to the source modulo scale management,
    /// `Some(false)` on a mismatch, `None` when the pass did not run.
    pub translation_validated: Option<bool>,
    /// Static peak-memory bound of the scheduled program (assuming the
    /// runtime convention `N = 2 × slots`). The fuzz oracle asserts this
    /// dominates every measured execution peak.
    pub memory: crate::memory::MemoryEstimate,
    /// Static parallelism profile of the schedule's dependence DAG:
    /// work/span, maximum width, and the `T(k)` latency-at-width curve —
    /// the depgraph pass's artifact, or the default when none ran.
    /// The fuzz oracle asserts span ≤ work and that a single-threaded
    /// measured run dominates the calibrated span.
    pub parallelism: crate::depgraph::ParallelismEstimate,
    /// Per-pass instrumentation.
    pub trace: PipelineTrace,
}

/// Output of any [`ScaleCompiler`].
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The scheduled program (validates by construction).
    pub scheduled: ScheduledProgram,
    /// Compilation statistics.
    pub report: CompileReport,
}

/// Why compilation failed, uniformly across compilers.
#[derive(Debug, Clone)]
pub struct CompileError {
    /// The compiler that failed.
    pub compiler: String,
    /// The failing pass and its diagnostics.
    pub error: PassError,
}

impl CompileError {
    /// Wraps a pass failure with the compiler's name.
    pub fn in_compiler(compiler: impl Into<String>, error: PassError) -> Self {
        CompileError {
            compiler: compiler.into(),
            error,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} compilation failed: {}", self.compiler, self.error)
    }
}

impl std::error::Error for CompileError {}

/// A scale-management compiler: [`Program`] in, [`Compiled`] out.
///
/// Implementations: the reserve compiler (`reserve_core::ReserveCompiler`,
/// in its three ablation modes), EVA (`fhe_baselines::EvaCompiler`), and
/// Hecate (`fhe_baselines::HecateCompiler`). Harnesses iterate
/// `&[&dyn ScaleCompiler]`, so a new strategy is one impl, zero harness
/// changes.
pub trait ScaleCompiler {
    /// Display label, as used in the paper's tables.
    fn name(&self) -> &str;

    /// Compiles `program` under `params`.
    ///
    /// # Errors
    ///
    /// Fails when the program cannot be scheduled under `params` (most
    /// commonly: depth beyond `params.max_level`).
    fn compile(&self, program: &Program, params: &CompileParams) -> Result<Compiled, CompileError>;
}

/// Assembles the uniform [`Compiled`] artifact from a finished pipeline:
/// validates the schedule, derives the Table 4 columns from the trace and
/// context counters, and estimates latency under the context's cost model.
///
/// # Errors
///
/// Fails (as pass `"validate"`) when the schedule is illegal — a compiler
/// bug, surfaced rather than panicked on so fuzzing can observe it.
pub fn finish_compiled(
    compiler: impl Into<String>,
    scheduled: ScheduledProgram,
    trace: PipelineTrace,
    cx: &PassCx,
    total_time: Duration,
    ops_before: usize,
) -> Result<Compiled, CompileError> {
    let compiler = compiler.into();
    let map = match scheduled.validate() {
        Ok(map) => map,
        Err(errs) => {
            return Err(CompileError::in_compiler(
                compiler,
                PassError::with_diagnostics("validate", &errs),
            ))
        }
    };
    let estimated_latency_us = cx.cost_model.program_cost(&scheduled.program, &map);
    // The report's static bounds assume rotation hoisting, the runtime's
    // default (`ExecOptions::rotation_hoisting`).
    let memory =
        crate::memory::estimate_memory(&scheduled, &map, 2 * scheduled.program.slots(), true);
    // The profile is the depgraph pass's, computed once per compile; like
    // the TV verdict, a pipeline that ran no such pass reports the default.
    let parallelism = cx
        .get::<crate::depgraph::ParallelismEstimate>()
        .cloned()
        .unwrap_or_default();
    let report = CompileReport {
        compiler,
        scale_management_time: trace.scale_management_time(),
        total_time,
        iterations: cx.iterations.max(1),
        ops_before,
        ops_after: scheduled.program.num_ops(),
        hoists: cx.hoists,
        estimated_latency_us,
        max_level: map.max_level(),
        findings: cx.findings().to_vec(),
        translation_validated: cx.get::<TvVerdict>().map(|v| v.validated),
        memory,
        parallelism,
        trace,
    };
    Ok(Compiled { scheduled, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    fn square_sum() -> Program {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let a = x.clone() * x.clone();
        let c = x.clone() * x;
        b.finish(vec![a + c])
    }

    fn cx() -> PassCx {
        PassCx::new(CompileParams::new(20), CostModel::paper_table3())
    }

    #[test]
    fn manager_records_op_deltas_and_notes() {
        let mut cx = cx();
        let mut pm =
            PassManager::new()
                .with(CleanupPass)
                .with_fn("tag", PassKind::Analysis, |ir, cx| {
                    cx.note("hello");
                    Ok(ir)
                });
        let (ir, trace) = pm.run(PassIr::Source(square_sum()), &mut cx).unwrap();
        assert_eq!(trace.passes.len(), 2);
        let cleanup = trace.pass("cleanup").unwrap();
        assert!(
            cleanup.ops_after < cleanup.ops_before,
            "CSE merged the squares"
        );
        assert_eq!(trace.pass("tag").unwrap().notes, vec!["hello".to_string()]);
        assert_eq!(ir.num_ops(), 3); // x, x·x, add
        assert!(trace.total_time() >= trace.scale_management_time());
    }

    #[test]
    fn first_failing_pass_stops_the_pipeline() {
        let mut cx = cx();
        let mut pm = PassManager::new()
            .with_fn("boom", PassKind::ScaleManagement, |_ir, _cx| {
                Err(PassError::new("boom", "nope"))
            })
            .with_fn("unreached", PassKind::ScaleManagement, |ir, _cx| Ok(ir));
        let err = pm.run(PassIr::Source(square_sum()), &mut cx).unwrap_err();
        assert_eq!(err.pass, "boom");
        assert_eq!(err.diagnostics, vec!["nope".to_string()]);
    }

    #[test]
    fn blackboard_stores_and_takes_artifacts() {
        #[derive(Debug, PartialEq)]
        struct Order(Vec<u32>);
        let mut cx = cx();
        cx.put(Order(vec![3, 1, 2]));
        assert_eq!(cx.get::<Order>(), Some(&Order(vec![3, 1, 2])));
        assert_eq!(cx.take::<Order>(), Some(Order(vec![3, 1, 2])));
        assert!(cx.get::<Order>().is_none());
    }

    #[test]
    fn trace_summary_is_deterministic_and_timeless() {
        let mut pm = PassManager::new().with(CleanupPass);
        let (_, trace) = pm.run(PassIr::Source(square_sum()), &mut cx()).unwrap();
        let s = trace.summary();
        assert!(
            s.contains("cleanup [cleanup]: ops 4 -> 3, level - -> -"),
            "got: {s}"
        );
        assert!(
            !s.contains("µs") && !s.contains("ms"),
            "summaries must omit wall time"
        );
    }

    #[test]
    fn stage_mismatch_is_a_pass_error() {
        let mut pm = PassManager::new().with(ValidatePass);
        let err = pm.run(PassIr::Source(square_sum()), &mut cx()).unwrap_err();
        assert_eq!(err.pass, "validate");
    }
}
