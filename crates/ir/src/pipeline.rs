//! The instrumented compile context shared by every compiler.
//!
//! Every scale-management compiler in the workspace (the reserve compiler,
//! EVA, Hecate) is one straight-line function over typed locals. Each of
//! its phases runs inside [`PassCx::record`], which times it and pushes a
//! [`PassRecord`] — name, [`PassKind`], wall time, op-count and level
//! deltas, notes — onto the [`PipelineTrace`] the context is building, so
//! each compiler's internal phases are observable without touching its
//! algorithms and the paper's Table 4 columns (scale-management time vs
//! total time) fall out of the trace.
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
//! Two recorded phases, one rewriting the program and one analysing it:
//!
//! ```
//! use fhe_ir::pipeline::{PassCx, PassKind};
//! use fhe_ir::{Builder, CostModel};
//!
//! let b = Builder::new("t", 4);
//! let x = b.input("x");
//! let p = b.finish(vec![x.clone() * x.clone() + x.clone() * x]);
//!
//! let mut cx = PassCx::new("demo", CostModel::paper_table3());
//! let cleaned = cx.cleanup(&p).unwrap();
//! cx.record("count", PassKind::Analysis, |cx| {
//!     cx.note(format!("{} ops survive", cleaned.num_ops()));
//!     Ok(())
//! })
//! .unwrap();
//! let trace = cx.trace();
//! assert_eq!(trace.passes.len(), 2);
//! assert!(trace.passes[0].ops_after < trace.passes[0].ops_before);
//! assert_eq!(trace.passes[1].notes, ["3 ops survive"]);
//! ```

use std::fmt;
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::depgraph::ParallelismEstimate;
use crate::diag::{Finding, TvVerdict};
use crate::memory::MemoryEstimate;
use crate::params::CompileParams;
use crate::program::Program;
use crate::schedule::{ScaleMap, ScheduleError, ScheduledProgram};

/// What a pass contributes to; drives the [`PipelineTrace`] time split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Pre-scale-management cleanup (identities, folding, CSE, DCE).
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

/// One diagnostic line per error (e.g. type errors, validator errors), in
/// the form a failing phase hands to [`PassCx::record`].
pub fn diagnostics<D: fmt::Debug>(errs: &[D]) -> Vec<String> {
    errs.iter().map(|e| format!("{e:?}")).collect()
}

/// The state of one compile: the cost model, instrumentation counters, and
/// the [`PipelineTrace`] its phases are recorded into.
#[derive(Debug)]
pub struct PassCx {
    /// Latency model phases may consult (ordering, hoisting, scoring).
    pub cost_model: CostModel,
    /// Candidate plans evaluated (Hecate's `# Iters`; 1 for direct
    /// compilers).
    pub iterations: usize,
    /// Rescale hoists applied (reserve compiler; 0 elsewhere).
    pub hoists: usize,
    /// The schedule's dependence-DAG profile, set by the `depgraph` phase
    /// and reported as [`CompileReport::parallelism`] (its work as the
    /// latency).
    pub parallelism: Option<ParallelismEstimate>,
    /// The static memory bound the `depgraph` phase reads off its graph,
    /// reported as [`CompileReport::memory`].
    pub memory: Option<MemoryEstimate>,
    /// The translation-validation verdict, set by the
    /// `translation-validate` phase and reported as
    /// [`CompileReport::translation_validated`].
    pub tv: Option<TvVerdict>,
    compiler: String,
    started: Instant,
    // Shape of the IR as the last recorded phase left it.
    ops: usize,
    max_level: Option<u32>,
    // Op count entering scale management (after cleanup).
    ops_cleaned: usize,
    trace: PipelineTrace,
    notes: Vec<String>,
    findings: Vec<Finding>,
}

impl PassCx {
    /// Starts a compile by `compiler` (its label in reports and errors):
    /// zeroed counters, an empty trace, and the total-time clock running.
    pub fn new(compiler: impl Into<String>, cost_model: CostModel) -> Self {
        PassCx {
            cost_model,
            iterations: 0,
            hoists: 0,
            parallelism: None,
            memory: None,
            tv: None,
            compiler: compiler.into(),
            started: Instant::now(),
            ops: 0,
            max_level: None,
            ops_cleaned: 0,
            trace: PipelineTrace::default(),
            notes: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Runs one phase of the compile: times `phase` and pushes its
    /// [`PassRecord`] under `name`, with the notes the phase attached. A
    /// phase that rewrote the IR is followed by
    /// [`PassCx::rewrote_schedule`]; otherwise the record shows the op
    /// count and level unchanged.
    ///
    /// # Errors
    ///
    /// The diagnostics `phase` fails with, as a [`CompileError`] naming this
    /// compiler and `name`; nothing is recorded for a failed phase.
    pub fn record<T>(
        &mut self,
        name: &str,
        kind: PassKind,
        phase: impl FnOnce(&mut PassCx) -> Result<T, Vec<String>>,
    ) -> Result<T, CompileError> {
        let t0 = Instant::now();
        let out = phase(self);
        let wall = t0.elapsed();
        let out = out.map_err(|diagnostics| self.error(name, diagnostics))?;
        self.push(name, kind, wall);
        Ok(out)
    }

    fn push(&mut self, name: &str, kind: PassKind, wall: Duration) {
        self.trace.passes.push(PassRecord {
            name: name.to_string(),
            kind,
            wall,
            ops_before: self.ops,
            ops_after: self.ops,
            max_level_before: self.max_level,
            max_level_after: self.max_level,
            notes: std::mem::take(&mut self.notes),
        });
    }

    /// The phase just recorded left `scheduled` as the IR: its record and
    /// every later one show this op count and — when the schedule is legal
    /// — this maximum level. Costs one validator walk, not on that phase's
    /// wall time, and returns its verdict for the next phase to reuse.
    ///
    /// # Errors
    ///
    /// The validator's errors when `scheduled` is illegal.
    pub fn rewrote_schedule(
        &mut self,
        scheduled: &ScheduledProgram,
    ) -> Result<ScaleMap, Vec<ScheduleError>> {
        let map = scheduled.validate();
        let max_level = map.as_ref().ok().map(ScaleMap::max_level);
        self.rewrote(scheduled.program.num_ops(), max_level);
        map
    }

    fn rewrote(&mut self, ops: usize, max_level: Option<u32>) {
        self.ops = ops;
        self.max_level = max_level;
        if let Some(last) = self.trace.passes.last_mut() {
            last.ops_after = ops;
            last.max_level_after = max_level;
        }
    }

    /// The shared [`cleanup`](crate::passes::cleanup) phase (identities,
    /// folding, CSE and DCE in one forward sweep) every compiler runs
    /// before scale management, so op counts stay comparable (§8.1). The
    /// cleaned program's op count is the report's `ops_before`.
    ///
    /// # Errors
    ///
    /// Fails as pass `"cleanup"`, with nothing recorded, when the cleaned
    /// program still holds a rescale, modswitch or upscale: scale
    /// management starts from a program without any (a dead one is
    /// removed like any dead op).
    pub fn cleanup(&mut self, program: &Program) -> Result<Program, CompileError> {
        let t0 = Instant::now();
        let cleaned = crate::passes::cleanup(program);
        if let Some(id) = cleaned
            .ids()
            .find(|&id| cleaned.op(id).is_scale_management())
        {
            return Err(self.error(
                "cleanup",
                vec![format!(
                    "the source holds scale management: `{}` at {id} of the cleaned program; \
                     compile a program without rescale, modswitch or upscale ops",
                    cleaned.op(id).mnemonic()
                )],
            ));
        }
        self.ops = program.num_ops();
        self.push("cleanup", PassKind::Cleanup, t0.elapsed());
        self.ops_cleaned = cleaned.num_ops();
        self.rewrote(self.ops_cleaned, None);
        Ok(cleaned)
    }

    /// Attaches a diagnostic note to the currently running phase's record.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Records a lint finding, surfaced in the final
    /// [`CompileReport::findings`].
    pub fn finding(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// The phases recorded so far.
    pub fn trace(&self) -> &PipelineTrace {
        &self.trace
    }

    /// A failure of this compile in the phase `pass`.
    pub fn error(&self, pass: &str, diagnostics: Vec<String>) -> CompileError {
        CompileError {
            compiler: self.compiler.clone(),
            error: PassError {
                pass: pass.to_string(),
                diagnostics,
            },
        }
    }

    /// Assembles the uniform [`Compiled`] artifact from the trace, the
    /// counters, the findings and the phases' estimates, which it moves out
    /// of the context; it runs no analysis. `map` is `scheduled`'s
    /// validation result.
    pub fn finish(&mut self, scheduled: ScheduledProgram, map: &ScaleMap) -> Compiled {
        let trace = std::mem::take(&mut self.trace);
        let parallelism = self.parallelism.take().unwrap_or_default();
        let report = CompileReport {
            compiler: self.compiler.clone(),
            scale_management_time: trace.scale_management_time(),
            total_time: self.started.elapsed(),
            iterations: self.iterations.max(1),
            ops_before: self.ops_cleaned,
            ops_after: scheduled.program.num_ops(),
            hoists: self.hoists,
            estimated_latency_us: parallelism.work_us,
            max_level: map.max_level(),
            findings: std::mem::take(&mut self.findings),
            translation_validated: self.tv.as_ref().map(|v| v.validated),
            memory: self.memory.take().unwrap_or_default(),
            parallelism,
            trace,
        };
        Compiled { scheduled, report }
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

/// The instrumentation one compile produces: one record per phase, in the
/// order [`PassCx::record`] ran them.
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
    /// Statically estimated latency of the result (µs): the `depgraph`
    /// phase's [`ParallelismEstimate::work_us`].
    pub estimated_latency_us: f64,
    /// Modulus level required of fresh encryptions.
    pub max_level: u32,
    /// Lint findings recorded by analysis passes (empty when the pipeline
    /// runs no lints, or when the schedule is clean).
    pub findings: Vec<Finding>,
    /// Translation-validation verdict: `Some(true)` when the scheduled
    /// program was proven equal to the source modulo scale management,
    /// `Some(false)` on a mismatch, `None` when no translation validation
    /// ran.
    pub translation_validated: Option<bool>,
    /// Static peak-memory bound of the scheduled program (`N = 2 × slots`,
    /// rotation hoisting on), from the `depgraph` phase. The fuzz oracle
    /// asserts this dominates every measured execution peak.
    pub memory: MemoryEstimate,
    /// Static parallelism profile of the schedule's dependence DAG: work,
    /// span and maximum width — the `depgraph` phase's, or the default when
    /// none ran.
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
/// changes. The `Debug` rendering is the compiler's configuration: the
/// compile cache keys on it, so it must tell apart any two compilers that
/// may schedule a program differently.
pub trait ScaleCompiler: std::fmt::Debug {
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
        PassCx::new("test", CostModel::paper_table3())
    }

    #[test]
    fn recorder_records_op_deltas_and_notes() {
        let mut cx = cx();
        let cleaned = cx.cleanup(&square_sum()).unwrap();
        cx.record("tag", PassKind::Analysis, |cx| {
            cx.note("hello");
            Ok(())
        })
        .unwrap();
        let trace = cx.trace();
        assert_eq!(trace.passes.len(), 2);
        let cleanup = trace.pass("cleanup").unwrap();
        assert!(
            cleanup.ops_after < cleanup.ops_before,
            "CSE merged the squares"
        );
        let tag = trace.pass("tag").unwrap();
        assert_eq!(tag.notes, vec!["hello".to_string()]);
        assert_eq!((tag.ops_before, tag.ops_after), (3, 3));
        assert_eq!(cleaned.num_ops(), 3); // x, x·x, add
        assert!(trace.total_time() >= trace.scale_management_time());
    }

    #[test]
    fn trace_summary_is_deterministic_and_timeless() {
        let mut cx = cx();
        cx.cleanup(&square_sum()).unwrap();
        let s = cx.trace().summary();
        assert!(
            s.contains("cleanup [cleanup]: ops 4 -> 3, level - -> -"),
            "got: {s}"
        );
        assert!(
            !s.contains("µs") && !s.contains("ms"),
            "summaries must omit wall time"
        );
    }
}
