//! Pipeline integration: [`DepGraphPass`], [`LintPass`] and
//! [`TranslationValidatePass`] plug the analyses into any compiler's
//! [`PassManager`] sequence, recording findings, the parallelism profile,
//! and the TV verdict in the shared [`PassCx`] so they surface in the
//! uniform `CompileReport`. [`with_verification`] appends the three in the
//! order every compiler runs them.

use fhe_ir::depgraph::DepGraph;
use fhe_ir::diag::{Finding, Severity, TvVerdict};
use fhe_ir::pipeline::{Pass, PassCx, PassError, PassIr, PassKind, PassManager};
use fhe_ir::Program;

use crate::lint::{lint_scheduled, LintOptions};
use crate::parallel;
use crate::tv;

/// Appends the verification tail every compiler ends its pipeline with:
/// [`DepGraphPass`], [`LintPass`] under default options, and
/// [`TranslationValidatePass`] against `source`, the program the pipeline
/// is about to compile. What runs after scale management is decided here,
/// once, for the reserve compiler, EVA and Hecate alike.
pub fn with_verification(pipeline: PassManager, source: &Program) -> PassManager {
    pipeline
        .with(DepGraphPass)
        .with(LintPass::default())
        .with(TranslationValidatePass::new(source.clone()))
}

/// Lints the scheduled program and records findings in the context.
///
/// Never fails the pipeline: an invalid schedule is the `validate` pass's
/// job to reject, so this pass notes the skip and moves on.
#[derive(Debug, Clone, Default)]
pub struct LintPass {
    /// Input-range assumptions for the magnitude analysis.
    pub options: LintOptions,
}

impl LintPass {
    /// A lint pass with the given options.
    pub fn new(options: LintOptions) -> Self {
        LintPass { options }
    }
}

impl Pass for LintPass {
    fn name(&self) -> &str {
        "lint"
    }

    fn kind(&self) -> PassKind {
        PassKind::Analysis
    }

    fn run(&mut self, ir: PassIr, cx: &mut PassCx) -> Result<PassIr, PassError> {
        let scheduled = ir.try_scheduled("lint")?;
        match lint_scheduled(&scheduled, &self.options) {
            Ok(findings) => {
                if !findings.is_empty() {
                    cx.note(format!("{} finding(s)", findings.len()));
                }
                for f in findings {
                    cx.finding(f);
                }
            }
            Err(_) => cx.note("skipped: schedule does not validate"),
        }
        Ok(PassIr::Scheduled(scheduled))
    }
}

/// Builds the dependence DAG of the schedule, notes its work/span/width
/// profile and leaves it in the context as a
/// [`ParallelismEstimate`](fhe_ir::depgraph::ParallelismEstimate) artifact
/// (the `CompileReport`'s `parallelism`), and proves the schedule race-free
/// for topological-order parallel execution via [`parallel::check`].
///
/// Never fails the pipeline: the profile is informative and a safety
/// violation is surfaced as an `F008` error finding (the parallel form of
/// the premature-free lint) for the fuzz oracle and the lint CLI to gate
/// on. The graph is built with rotation hoisting on, matching the compile
/// report's memory model and the runtime's default.
#[derive(Debug, Clone, Default)]
pub struct DepGraphPass;

impl Pass for DepGraphPass {
    fn name(&self) -> &str {
        "depgraph"
    }

    fn kind(&self) -> PassKind {
        PassKind::Analysis
    }

    fn run(&mut self, ir: PassIr, cx: &mut PassCx) -> Result<PassIr, PassError> {
        let scheduled = ir.try_scheduled("depgraph")?;
        let Ok(map) = scheduled.validate() else {
            cx.note("skipped: schedule does not validate");
            return Ok(PassIr::Scheduled(scheduled));
        };
        let graph = DepGraph::build(&scheduled, &map, &cx.cost_model, true);
        let est = graph.estimate();
        cx.note(format!(
            "work {:.1}us, span {:.1}us, parallelism {:.2}x, max width {}",
            est.work_us,
            est.span_us,
            est.parallelism(),
            est.max_width
        ));
        cx.put(est);
        let safety = parallel::check(&scheduled, &graph, true);
        if safety.race_free() {
            cx.note(format!(
                "parallel-safety: proved race-free ({} obligation(s), {} freed value(s))",
                safety.obligations, safety.freed_values
            ));
        } else {
            cx.note(format!(
                "parallel-safety: {} unordered hazard(s)",
                safety.violations.len()
            ));
            for v in &safety.violations {
                let at = match v {
                    parallel::Violation::ReadAfterFree { reader, .. } => *reader,
                    parallel::Violation::UnorderedGroupWriter { member, .. } => *member,
                };
                cx.finding(
                    Finding::new("F008", Severity::Error, format!("parallel hazard: {v}")).at(at),
                );
            }
        }
        Ok(PassIr::Scheduled(scheduled))
    }
}

/// Proves the scheduled program bisimulates the source modulo scale
/// management, storing a [`TvVerdict`] artifact and — on mismatch — an
/// `F000` error finding.
///
/// A mismatch does *not* abort compilation: the verdict is recorded so the
/// fuzz oracle can observe it as a divergence and the lint CLI can render
/// it as a diagnostic.
#[derive(Debug, Clone)]
pub struct TranslationValidatePass {
    source: Program,
}

impl TranslationValidatePass {
    /// A TV pass checking against `source` (the pre-compilation program).
    pub fn new(source: Program) -> Self {
        TranslationValidatePass { source }
    }
}

impl Pass for TranslationValidatePass {
    fn name(&self) -> &str {
        "translation-validate"
    }

    fn kind(&self) -> PassKind {
        PassKind::Check
    }

    fn run(&mut self, ir: PassIr, cx: &mut PassCx) -> Result<PassIr, PassError> {
        let scheduled = ir.try_scheduled("translation-validate")?;
        match tv::validate(&self.source, &scheduled) {
            Ok(report) => {
                cx.note(format!(
                    "bisimulation: {} op(s) matched, {} scale-management op(s) stripped",
                    report.matched, report.scale_management_ops
                ));
                cx.put(TvVerdict::pass());
            }
            Err(mismatch) => {
                cx.note(format!("MISMATCH: {mismatch}"));
                let mut finding = Finding::new(
                    "F000",
                    Severity::Error,
                    format!("translation validation failed: {mismatch}"),
                );
                if let Some(op) = mismatch.scheduled_op {
                    finding = finding.at(op);
                }
                cx.finding(finding);
                cx.put(TvVerdict::fail(mismatch.to_string()));
            }
        }
        Ok(PassIr::Scheduled(scheduled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::{Builder, CompileParams, CostModel, Frac, InputSpec, Op, ScheduledProgram};

    fn source() -> Program {
        let b = Builder::new("p", 4);
        let x = b.input("x");
        b.finish(vec![x.clone() * x])
    }

    fn schedule(rotate_bug: bool) -> ScheduledProgram {
        let mut p = Program::new("p", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let x = if rotate_bug {
            p.push(Op::Rotate(x, 1))
        } else {
            x
        };
        let m = p.push(Op::Mul(x, x));
        p.set_outputs(vec![m]);
        // Scale 45 at level 2: the mul lands at scale 90 with 30 bits of
        // slack — below both the F001 threshold and the F005 trigger.
        let spec = InputSpec {
            scale_bits: Frac::from(45),
            level: 2,
        };
        ScheduledProgram {
            program: p,
            params: CompileParams::new(30),
            inputs: vec![spec],
        }
    }

    fn run(s: ScheduledProgram) -> (PassCx, fhe_ir::pipeline::PipelineTrace) {
        let mut cx = PassCx::new(CompileParams::new(30), CostModel::paper_table3());
        let mut pm = PassManager::new()
            .with(LintPass::default())
            .with(TranslationValidatePass::new(source()));
        let (_, trace) = pm.run(PassIr::Scheduled(s), &mut cx).unwrap();
        (cx, trace)
    }

    #[test]
    fn faithful_schedule_passes_both_passes() {
        let (cx, trace) = run(schedule(false));
        assert_eq!(cx.get::<TvVerdict>(), Some(&TvVerdict::pass()));
        assert!(cx.findings().is_empty(), "{:?}", cx.findings());
        let note = &trace.pass("translation-validate").unwrap().notes[0];
        assert!(note.starts_with("bisimulation:"), "{note}");
    }

    #[test]
    fn mismatch_records_f000_without_aborting() {
        let (cx, _) = run(schedule(true));
        let v = cx.get::<TvVerdict>().unwrap();
        assert!(!v.validated);
        assert_eq!(cx.findings().len(), 1);
        assert_eq!(cx.findings()[0].code, "F000");
        assert_eq!(cx.findings()[0].severity, Severity::Error);
    }

    #[test]
    fn depgraph_pass_notes_the_profile_and_proves_safety() {
        let mut cx = PassCx::new(CompileParams::new(30), CostModel::paper_table3());
        let mut pm = PassManager::new().with(DepGraphPass);
        let (_, trace) = pm.run(PassIr::Scheduled(schedule(false)), &mut cx).unwrap();
        assert!(cx.findings().is_empty(), "{:?}", cx.findings());
        let est = cx
            .get::<fhe_ir::ParallelismEstimate>()
            .expect("the profile is left for `finish_compiled`");
        assert!(est.work_us > 0.0 && est.span_us > 0.0, "{est:?}");
        let notes = &trace.pass("depgraph").unwrap().notes;
        assert!(notes[0].starts_with("work "), "{notes:?}");
        assert!(
            notes.iter().any(|n| n.contains("proved race-free")),
            "{notes:?}"
        );
    }

    #[test]
    fn depgraph_pass_skips_an_invalid_schedule() {
        // Mismatched add scales: validation fails, the pass notes the skip.
        let mut p = Program::new("bad", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let m = p.push(Op::Mul(x, x));
        let a = p.push(Op::Add(x, m));
        p.set_outputs(vec![a]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(30),
            inputs: vec![InputSpec {
                scale_bits: Frac::from(45),
                level: 2,
            }],
        };
        let mut cx = PassCx::new(CompileParams::new(30), CostModel::paper_table3());
        let mut pm = PassManager::new().with(DepGraphPass);
        let (_, trace) = pm.run(PassIr::Scheduled(s), &mut cx).unwrap();
        let notes = &trace.pass("depgraph").unwrap().notes;
        assert_eq!(notes[0], "skipped: schedule does not validate");
    }
}
