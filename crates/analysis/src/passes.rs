//! The verification tail every compile ends with. [`finish_verified`] runs
//! the analyses over a finished schedule as three recorded phases —
//! `depgraph`, `lint`, `translation-validate` — leaving findings, the
//! graph's estimates and the TV verdict in the compile's [`PassCx`], and
//! assembles the uniform `Compiled` artifact from it.

use fhe_ir::depgraph::DepGraph;
use fhe_ir::diag::{Finding, Severity, TvVerdict};
use fhe_ir::pipeline::{diagnostics, CompileError, Compiled, PassCx, PassKind};
use fhe_ir::{estimate_memory, Program, ScaleMap, ScheduledProgram};

use crate::lint::{lint_validated, LintOptions};
use crate::parallel;
use crate::tv;

/// Ends a compile of `source` into `scheduled`, the schedule the last
/// recorded phase left: validates it (recording its shape on that phase,
/// as [`PassCx::rewrote_schedule`]), profiles its dependence DAG, lints it
/// under default options, proves it against `source`, and builds the
/// [`Compiled`] artifact. What runs after scale management is decided
/// here, once, for the reserve compiler, EVA and Hecate alike.
///
/// # Errors
///
/// Fails (as pass `"validate"`, before any analysis runs) when the schedule
/// is illegal — a compiler bug, surfaced rather than panicked on so fuzzing
/// can observe it.
pub fn finish_verified(
    cx: &mut PassCx,
    source: &Program,
    scheduled: ScheduledProgram,
) -> Result<Compiled, CompileError> {
    let map = cx
        .rewrote_schedule(&scheduled)
        .map_err(|errs| cx.error("validate", diagnostics(&errs)))?;
    cx.record("depgraph", PassKind::Analysis, |cx| {
        depgraph(cx, &scheduled, &map);
        Ok(())
    })?;
    cx.record("lint", PassKind::Analysis, |cx| {
        let findings = lint_validated(&scheduled, &map, &LintOptions::default());
        if !findings.is_empty() {
            cx.note(format!("{} finding(s)", findings.len()));
        }
        findings.into_iter().for_each(|f| cx.finding(f));
        Ok(())
    })?;
    cx.record("translation-validate", PassKind::Check, |cx| {
        translation_validate(cx, source, &scheduled);
        Ok(())
    })?;
    Ok(cx.finish(scheduled, &map))
}

/// Builds the dependence DAG of the schedule, notes its work/span/width
/// profile and leaves it in [`PassCx::parallelism`], proves the schedule
/// race-free for topological-order parallel execution via
/// [`parallel::check`], and leaves the memory estimate read off the same
/// graph and the proved linear groups in [`PassCx::memory`].
///
/// Never fails the compile: the profile is informative and a safety
/// violation is surfaced as an `F008` error finding (the parallel form of
/// the premature-free lint) for the fuzz oracle and the lint CLI to gate
/// on. The graph is built with rotation hoisting on, the runtime's default
/// (`ExecOptions::rotation_hoisting`), so the report's bounds assume it.
fn depgraph(cx: &mut PassCx, scheduled: &ScheduledProgram, map: &ScaleMap) {
    let graph = DepGraph::build(scheduled, map, &cx.cost_model, true);
    let est = graph.estimate();
    cx.note(format!(
        "work {:.1}us, span {:.1}us, parallelism {:.2}x, max width {}",
        est.work_us,
        est.span_us,
        est.parallelism(),
        est.max_width
    ));
    cx.parallelism = Some(est);
    let safety = parallel::check(scheduled, &graph, true);
    let slots = scheduled.program.slots();
    let memory = estimate_memory(scheduled, map, 2 * slots, &graph, &safety.linear_groups);
    cx.memory = Some(memory);
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
                parallel::Violation::UnorderedGroupWriter { member, .. }
                | parallel::Violation::UnorderedLinearMember { member, .. } => *member,
            };
            cx.finding(
                Finding::new("F008", Severity::Error, format!("parallel hazard: {v}")).at(at),
            );
        }
    }
}

/// Proves the scheduled program bisimulates the source modulo scale
/// management, leaving a [`TvVerdict`] in [`PassCx::tv`] and — on mismatch
/// — an `F000` error finding.
///
/// A mismatch does *not* abort compilation: the verdict is recorded so the
/// fuzz oracle can observe it as a divergence and the lint CLI can render
/// it as a diagnostic.
fn translation_validate(cx: &mut PassCx, source: &Program, scheduled: &ScheduledProgram) {
    match tv::validate(source, scheduled) {
        Ok(report) => {
            cx.note(format!(
                "bisimulation: {} op(s) matched, {} scale-management op(s) stripped",
                report.matched, report.scale_management_ops
            ));
            cx.tv = Some(TvVerdict::pass());
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
            cx.tv = Some(TvVerdict::fail(mismatch.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::{Builder, CompileParams, CostModel, Frac, InputSpec, Op};

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

    fn run(s: ScheduledProgram) -> (PassCx, Result<Compiled, CompileError>) {
        let mut cx = PassCx::new("test", CostModel::paper_table3());
        let out = finish_verified(&mut cx, &source(), s);
        (cx, out)
    }

    #[test]
    fn faithful_schedule_passes_every_phase() {
        let report = run(schedule(false)).1.unwrap().report;
        assert_eq!(report.translation_validated, Some(true));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        let note = &report.trace.pass("translation-validate").unwrap().notes[0];
        assert!(note.starts_with("bisimulation:"), "{note}");
    }

    #[test]
    fn mismatch_records_f000_without_aborting() {
        let report = run(schedule(true)).1.unwrap().report;
        assert_eq!(report.translation_validated, Some(false));
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].code, "F000");
        assert_eq!(report.findings[0].severity, Severity::Error);
    }

    #[test]
    fn depgraph_phase_notes_the_profile_and_proves_safety() {
        let report = run(schedule(false)).1.unwrap().report;
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        let est = &report.parallelism;
        assert!(est.work_us > 0.0 && est.span_us > 0.0, "{est:?}");
        let notes = &report.trace.pass("depgraph").unwrap().notes;
        assert!(notes[0].starts_with("work "), "{notes:?}");
        assert!(
            notes.iter().any(|n| n.contains("proved race-free")),
            "{notes:?}"
        );
    }

    #[test]
    fn an_invalid_schedule_is_rejected_as_validate_before_any_analysis_runs() {
        // Mismatched add scales.
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
        let (cx, out) = run(s);
        let err = out.unwrap_err();
        assert_eq!(
            (err.compiler.as_str(), err.error.pass.as_str()),
            ("test", "validate")
        );
        assert!(!err.error.diagnostics.is_empty());
        assert!(cx.trace().passes.is_empty(), "{}", cx.trace().summary());
    }
}
