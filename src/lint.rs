//! Driver behind the `lint` binary: collects `.fhe` files, runs the
//! abstract-interpretation lints and translation validation from
//! [`fhe_analysis`] over each, and renders/serializes the results.
//!
//! Each file is one pass: every schedule it yields gets its findings, its
//! translation-validation verdict and the work/span/width profile of its
//! dependence DAG under [`LintRun::profile`], with the DAG's Graphviz
//! rendering when [`LintRun::dot`] asks for it.
//!
//! A file is linted in one of two modes, selected by a `// lint-mode:`
//! directive comment:
//!
//! - **compiled** (the default): the file holds a *source* program; every
//!   requested compiler schedules it, and the lints run on each resulting
//!   schedule, rendered against the printed schedule text, beside the
//!   translation-validation verdict (and `F000` finding) the compile
//!   recorded.
//! - **scheduled**: the file holds an already-scheduled program (it may
//!   contain `rescale`/`modswitch`/`upscale` ops); the lints run directly
//!   on it, rendered with carets into the file's own text. Input encodings
//!   come from `// lint-input-scale: N` and `// lint-input-level: N`
//!   directives (defaults: the waterline, level 1).
//!
//! Either mode honors `// lint-keys: 1,2,4` — the deployment's provisioned
//! rotation-key steps — which arms the `F006` over-provisioned-keys check.
//!
//! The fuzz-corpus directives (`// fuzz-waterline:` and friends, see
//! [`fhe_fuzz::corpus`]) are honored for compile parameters, so reproducer
//! files lint under the parameters their divergence was found with. When a
//! file carries no explicit `// fuzz-output-reserve:`, the output reserve
//! is derived statically from the interval analysis
//! ([`required_output_reserve_bits`]), making Table 1's `m·x_max < Q`
//! hypothesis hold by construction for in-range inputs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fhe_analysis::interval::required_output_reserve_bits;
use fhe_analysis::{
    lint_scheduled, render_finding, render_parse_error, IntervalDomain, LintOptions, SourceMap,
};
use fhe_fuzz::corpus;
use fhe_ir::diag::{Finding, Severity};
use fhe_ir::json::Json;
use fhe_ir::pipeline::Compiled;
use fhe_ir::{
    text, CompileParams, CostModel, DepGraph, Frac, InputSpec, Op, ParallelismEstimate, Program,
    ScheduledProgram,
};

/// Options for a lint run over files.
#[derive(Debug, Clone)]
pub struct LintRun {
    /// Compilers scheduling compiled-mode files, by their
    /// [`fhe_serve::compiler_for`] id (`eva`/`hecate`/`reserve`), in report
    /// order.
    pub compilers: Vec<String>,
    /// Assumed input range `[-m, m]` for the magnitude analysis.
    pub input_magnitude: f64,
    /// Per-op costs the parallelism profile is priced under: the paper's
    /// Table 3 by default, or a measured `table3 --json` record.
    pub profile: CostModel,
    /// Render each schedule's dependence DAG as Graphviz DOT.
    pub dot: bool,
}

impl Default for LintRun {
    fn default() -> Self {
        LintRun {
            compilers: vec!["eva".into(), "hecate".into(), "reserve".into()],
            input_magnitude: 1.0,
            profile: CostModel::paper_table3(),
            dot: false,
        }
    }
}

/// Lint results for one scheduled target of a file.
#[derive(Debug)]
pub struct TargetReport {
    /// `"scheduled"` for directly-linted files, else the compiler name.
    pub target: String,
    /// The findings, including an `F000` error on a translation-validation
    /// mismatch.
    pub findings: Vec<Finding>,
    /// Translation-validation verdict; `None` for scheduled-mode files
    /// (there is no separate source to validate against).
    pub translation_validated: Option<bool>,
    /// Rustc-style rendering of the findings (empty when clean).
    pub rendered: String,
    /// A target-level failure (the compiler rejected the program, or the
    /// hand-written schedule does not validate).
    pub error: Option<String>,
    /// Work/span/width profile of the schedule's dependence DAG; `None`
    /// when the target has no valid schedule.
    pub estimate: Option<ParallelismEstimate>,
    /// Graphviz rendering of the DAG (critical path highlighted), when
    /// [`LintRun::dot`] asks for it.
    pub dot: Option<String>,
}

/// All lint results for one file.
#[derive(Debug)]
pub struct FileReport {
    /// The file, as given on the command line.
    pub file: String,
    /// One report per scheduled target.
    pub targets: Vec<TargetReport>,
    /// A file-level failure (unreadable or unparsable), already rendered
    /// with a caret where possible.
    pub error: Option<String>,
}

/// Recursively collects `.fhe` files under each root (a root that is
/// itself a file is taken as-is), sorted for deterministic output.
///
/// # Errors
///
/// Propagates filesystem errors other than a missing root, which yields
/// no files.
pub fn collect_files(roots: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    fn walk(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        if path.is_file() {
            out.push(path.to_path_buf());
            return Ok(());
        }
        let entries = match fs::read_dir(path) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut children: Vec<PathBuf> = entries
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        children.sort();
        for child in children {
            if child.is_dir() {
                walk(&child, out)?;
            } else if child.extension().is_some_and(|x| x == "fhe") {
                out.push(child);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for root in roots {
        walk(root, &mut files)?;
    }
    files.sort();
    files.dedup();
    Ok(files)
}

/// The `// lint-…` directives of a file.
#[derive(Debug, Default)]
struct Directives {
    scheduled_mode: bool,
    input_scale: Option<u32>,
    input_level: Option<u32>,
    has_explicit_reserve: bool,
    requested_keys: Option<Vec<i64>>,
}

fn parse_directives(comments: &[String]) -> Result<Directives, String> {
    let mut d = Directives::default();
    for comment in comments {
        let Some((key, value)) = comment.split_once(':') else {
            continue;
        };
        let value = value.trim();
        let int = |what: &str| -> Result<u32, String> {
            value.parse().map_err(|_| format!("bad {what} `{value}`"))
        };
        match key.trim() {
            "lint-mode" => match value {
                "scheduled" => d.scheduled_mode = true,
                "compiled" => d.scheduled_mode = false,
                other => return Err(format!("bad lint-mode `{other}` (scheduled|compiled)")),
            },
            "lint-input-scale" => d.input_scale = Some(int("lint-input-scale")?),
            "lint-input-level" => d.input_level = Some(int("lint-input-level")?),
            "lint-keys" => {
                let steps = value
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<Vec<i64>, _>>()
                    .map_err(|_| format!("bad lint-keys `{value}` (comma-separated steps)"))?;
                d.requested_keys = Some(steps);
            }
            "fuzz-output-reserve" => d.has_explicit_reserve = true,
            _ => {}
        }
    }
    Ok(d)
}

fn render_findings(findings: &[Finding], map: &SourceMap, label: &str) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&render_finding(f, map, label));
    }
    out
}

/// Compiles `program` with the compiler registered under `name`; the error
/// is the target-level message of a [`TargetReport`].
fn compile_with(name: &str, program: &Program, params: &CompileParams) -> Result<Compiled, String> {
    let compiler = fhe_serve::compiler_for(name)
        .ok_or_else(|| fhe_serve::ServeError::UnknownCompiler(name.into()).to_string())?;
    compiler
        .compile(program, params)
        .map_err(|e| format!("{name}: {e}"))
}

/// One schedule of a file.
enum Target {
    /// The file's own schedule (`// lint-mode: scheduled`).
    Scheduled(ScheduledProgram),
    /// One requested compiler's compile of the file's source program, or the
    /// target-level error it failed with.
    Compiled {
        name: String,
        compiled: Result<Box<Compiled>, String>,
    },
}

impl Target {
    fn name(&self) -> &str {
        match self {
            Target::Scheduled(_) => "scheduled",
            Target::Compiled { name, .. } => name,
        }
    }

    fn schedule(&self) -> Option<&ScheduledProgram> {
        match self {
            Target::Scheduled(scheduled) => Some(scheduled),
            Target::Compiled { compiled, .. } => compiled.as_ref().ok().map(|c| &c.scheduled),
        }
    }
}

/// The per-file front end of [`lint_file`]: parses `content`, reads its
/// directives, and yields the lint options they imply with the file's
/// targets — its own schedule in scheduled mode, else one compile per
/// requested compiler. Every compile runs under the same params: the
/// file's, with the output reserve raised to the interval bound unless the
/// file sets `// fuzz-output-reserve:`. `Err` is the rendered file-level
/// error.
fn parse_file(
    file: &str,
    content: &str,
    run: &LintRun,
) -> Result<(LintOptions, Vec<Target>), String> {
    let (_, comments) =
        text::parse_with_comments(content).map_err(|e| render_parse_error(&e, content, file))?;
    let (case, directives) = corpus::parse_case(content)
        .and_then(|case| Ok((case, parse_directives(&comments)?)))
        .map_err(|e| format!("error: {e}\n  --> {file}\n"))?;
    let options = LintOptions {
        intervals: IntervalDomain::with_input_magnitude(run.input_magnitude),
        requested_rotation_steps: directives.requested_keys,
    };
    let targets = if directives.scheduled_mode {
        let spec = InputSpec {
            scale_bits: Frac::from(directives.input_scale.unwrap_or(case.params.waterline_bits)),
            level: directives.input_level.unwrap_or(1),
        };
        let inputs = case
            .program
            .ids()
            .filter(|&id| matches!(case.program.op(id), Op::Input { .. }))
            .map(|_| spec)
            .collect();
        vec![Target::Scheduled(ScheduledProgram {
            program: case.program,
            params: case.params,
            inputs,
        })]
    } else {
        let mut params = case.params;
        if !directives.has_explicit_reserve {
            params.output_reserve_bits = params.output_reserve_bits.max(
                required_output_reserve_bits(&case.program, &options.intervals),
            );
        }
        run.compilers
            .iter()
            .map(|name| Target::Compiled {
                name: name.clone(),
                compiled: compile_with(name, &case.program, &params).map(Box::new),
            })
            .collect()
    };
    Ok((options, targets))
}

/// Profiles one schedule's dependence DAG under `run.profile`, with its DOT
/// rendering when `run.dot`; nothing when the schedule does not validate.
fn profile(
    name: &str,
    scheduled: &ScheduledProgram,
    run: &LintRun,
) -> Option<(ParallelismEstimate, Option<String>)> {
    let map = scheduled.validate().ok()?;
    let graph = DepGraph::build(scheduled, &map, &run.profile, true);
    let dot = run
        .dot
        .then(|| graph.to_dot(&format!("{}_{name}", scheduled.program.name())));
    Some((graph.estimate(), dot))
}

/// Lints and profiles one target under `options`. A compiled target keeps
/// the `F000` finding and the translation-validation verdict its compile
/// recorded.
fn lint_target(
    file: &str,
    content: &str,
    target: &Target,
    options: &LintOptions,
    run: &LintRun,
) -> TargetReport {
    let profiled = target
        .schedule()
        .and_then(|s| profile(target.name(), s, run));
    let (estimate, dot) = profiled.map_or((None, None), |(e, dot)| (Some(e), dot));
    let mut report = TargetReport {
        target: target.name().into(),
        findings: Vec::new(),
        translation_validated: None,
        rendered: String::new(),
        error: None,
        estimate,
        dot,
    };
    match target {
        Target::Scheduled(scheduled) => match lint_scheduled(scheduled, options) {
            Ok(findings) => {
                report.rendered = render_findings(&findings, &SourceMap::new(content), file);
                report.findings = findings;
            }
            Err(errors) => {
                let joined = errors
                    .iter()
                    .map(|e| format!("  {e}"))
                    .collect::<Vec<_>>()
                    .join("\n");
                report.error = Some(format!("schedule does not validate:\n{joined}"));
            }
        },
        Target::Compiled {
            compiled: Err(error),
            ..
        } => report.error = Some(error.clone()),
        Target::Compiled {
            name,
            compiled: Ok(compiled),
        } => {
            let mut findings = lint_scheduled(&compiled.scheduled, options).unwrap_or_default();
            let tv = compiled.report.findings.iter().filter(|f| f.code == "F000");
            findings.extend(tv.cloned());
            let schedule_text = text::print(&compiled.scheduled.program);
            report.rendered = render_findings(
                &findings,
                &SourceMap::new(&schedule_text),
                &format!("{file}@{name}"),
            );
            report.findings = findings;
            report.translation_validated = compiled.report.translation_validated;
        }
    }
    report
}

/// Lints one file's content. `file` is the display name used in
/// diagnostics (typically the path as given).
pub fn lint_file(file: &str, content: &str, run: &LintRun) -> FileReport {
    let (options, targets) = match parse_file(file, content, run) {
        Ok(parsed) => parsed,
        Err(error) => {
            return FileReport {
                file: file.into(),
                targets: Vec::new(),
                error: Some(error),
            }
        }
    };
    FileReport {
        file: file.into(),
        targets: targets
            .iter()
            .map(|t| lint_target(file, content, t, &options, run))
            .collect(),
        error: None,
    }
}

/// True when `finding` matches any `--deny` selector: `error` and
/// `warning` match by severity (at least that severe), anything else is an
/// exact, case-insensitive code match.
pub fn denied(deny: &[String], finding: &Finding) -> bool {
    deny.iter().any(|d| match d.as_str() {
        "error" => finding.severity >= Severity::Error,
        "warning" => finding.severity >= Severity::Warning,
        code => finding.code.eq_ignore_ascii_case(code),
    })
}

/// Serializes the reports as the `--json` machine-readable form: an array
/// of `{file, error, targets: [{target, error, translation_validated,
/// findings, work_us, span_us, max_width}]}` objects (the profile is `null`
/// for a target without a schedule).
pub fn reports_json(reports: &[FileReport]) -> Json {
    let target_json = |t: &TargetReport| {
        let profiled =
            |field: fn(&ParallelismEstimate) -> Json| t.estimate.as_ref().map_or(Json::Null, field);
        Json::obj([
            ("target", Json::from(t.target.as_str())),
            ("error", t.error.as_deref().map_or(Json::Null, Json::from)),
            (
                "translation_validated",
                t.translation_validated.map_or(Json::Null, Json::Bool),
            ),
            (
                "findings",
                Json::Array(t.findings.iter().map(Finding::to_json).collect()),
            ),
            ("work_us", profiled(|e| e.work_us.into())),
            ("span_us", profiled(|e| e.span_us.into())),
            ("max_width", profiled(|e| e.max_width.into())),
        ])
    };
    Json::Array(
        reports
            .iter()
            .map(|r| {
                Json::obj([
                    ("file", Json::from(r.file.as_str())),
                    ("error", r.error.as_deref().map_or(Json::Null, Json::from)),
                    (
                        "targets",
                        Json::Array(r.targets.iter().map(target_json).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_reports_render_a_caret() {
        let r = lint_file(
            "bad.fhe",
            "program t(slots=4) {\n  %0 = frob %0\n}\n",
            &LintRun::default(),
        );
        let err = r.error.expect("parse error");
        assert!(err.contains("--> bad.fhe:2:8"), "{err}");
        assert!(err.contains('^'), "{err}");
    }

    #[test]
    fn out_of_range_params_are_a_file_error_naming_the_rule() {
        for (directive, rule) in [
            (
                "// fuzz-waterline: 70",
                "must be smaller than the rescaling factor",
            ),
            ("// fuzz-waterline: 0", "waterline must be positive"),
            ("// fuzz-max-level: 0", "max_level must be at least 1"),
        ] {
            let src = format!(
                "{directive}\nprogram t(slots=4) {{\n  %0 = input \"x\"\n  return %0\n}}\n"
            );
            let r = lint_file("p.fhe", &src, &LintRun::default());
            let err = r.error.expect("a file-level error");
            assert!(err.contains(rule), "{directive}: {err}");
            assert!(r.targets.is_empty());
        }
    }

    #[test]
    fn scheduled_mode_lints_the_file_text_directly() {
        let src = "// lint-mode: scheduled\n// lint-input-scale: 95\n// lint-input-level: 2\n\
                   program d(slots=4) {\n  %0 = input \"x\"\n  %1 = rescale %0\n  return %0\n}\n";
        let r = lint_file("d.fhe", src, &LintRun::default());
        assert!(r.error.is_none());
        assert_eq!(r.targets.len(), 1);
        let t = &r.targets[0];
        assert_eq!(t.target, "scheduled");
        assert_eq!(t.translation_validated, None);
        assert_eq!(t.findings.len(), 1);
        assert_eq!(t.findings[0].code, "F002");
        assert!(t.rendered.contains("--> d.fhe:6:3"), "{}", t.rendered);
        assert!(t.rendered.contains("%1 = rescale %0"), "{}", t.rendered);
    }

    #[test]
    fn compiled_mode_validates_translation_for_every_compiler() {
        let src = "program q(slots=8) {\n  %0 = input \"x\"\n  %1 = input \"y\"\n  \
                   %2 = mul %0, %0\n  %3 = mul %2, %0\n  %4 = mul %1, %1\n  \
                   %5 = add %4, %1\n  %6 = mul %3, %5\n  return %6\n}\n";
        let r = lint_file("q.fhe", src, &LintRun::default());
        assert!(r.error.is_none());
        assert_eq!(r.targets.len(), 3);
        for t in &r.targets {
            assert!(t.error.is_none(), "{}: {:?}", t.target, t.error);
            assert_eq!(t.translation_validated, Some(true), "{}", t.target);
            assert!(
                t.findings.iter().all(|f| f.severity < Severity::Error),
                "{}: {:?}",
                t.target,
                t.findings
            );
        }
    }

    #[test]
    fn an_unknown_compiler_name_is_a_target_error_not_the_reserve_schedule() {
        let src = "program q(slots=8) {\n  %0 = input \"x\"\n  %1 = mul %0, %0\n  return %1\n}\n";
        let run = LintRun {
            compilers: vec!["evaa".into(), "eva".into()],
            ..LintRun::default()
        };
        let lint = lint_file("q.fhe", src, &run);
        let unknown = lint.targets[0]
            .error
            .as_deref()
            .expect("`evaa` names no compiler");
        assert!(unknown.contains("unknown compiler `evaa`"), "{unknown}");
        assert_eq!(lint.targets[1].error, None);
        assert_eq!(lint.targets[0].translation_validated, None);
        assert!(lint.targets[0].estimate.is_none());
        assert!(lint.targets[1].estimate.is_some());
    }

    #[test]
    fn deny_selectors_match_severity_and_code() {
        let warn = Finding::new("F002", Severity::Warning, "w");
        let err = Finding::new("F001", Severity::Error, "e");
        let deny = |s: &str| vec![s.to_string()];
        assert!(denied(&deny("warning"), &warn));
        assert!(denied(&deny("warning"), &err));
        assert!(!denied(&deny("error"), &warn));
        assert!(denied(&deny("error"), &err));
        assert!(denied(&deny("f002"), &warn));
        assert!(!denied(&deny("F002"), &err));
    }

    #[test]
    fn lint_profiles_every_compiler_target() {
        let src = "program q(slots=8) {\n  %0 = input \"x\"\n  %1 = input \"y\"\n  \
                   %2 = mul %0, %0\n  %3 = mul %2, %0\n  %4 = mul %1, %1\n  \
                   %5 = add %4, %1\n  %6 = mul %3, %5\n  return %6\n}\n";
        let run = LintRun {
            dot: true,
            ..LintRun::default()
        };
        let r = lint_file("q.fhe", src, &run);
        assert!(r.error.is_none());
        assert_eq!(r.targets.len(), 3);
        let (_, targets) = parse_file("q.fhe", src, &run).expect("parses");
        for (t, target) in r.targets.iter().zip(&targets) {
            assert!(t.error.is_none(), "{}: {:?}", t.target, t.error);
            let est = t.estimate.as_ref().expect("estimate");
            assert!(est.span_us > 0.0 && est.span_us <= est.work_us + 1e-9);
            assert!(est.max_width >= 1);
            let scheduled = target.schedule().expect("compiles");
            let map = scheduled.validate().expect("valid schedule");
            let graph = DepGraph::build(scheduled, &map, &run.profile, true);
            assert!((graph.t_of_k(1) - est.work_us).abs() < 1e-9, "T(1) == work");
            let dot = t.dot.as_ref().expect("dot requested");
            assert!(dot.starts_with("digraph"), "{dot}");
        }
    }

    #[test]
    fn depgraph_profiles_the_schedule_lint_checks_at_the_derived_reserve() {
        // |x·1000·x| reaches 1000, so with no `// fuzz-output-reserve:` the
        // reserve compiler runs at a derived output reserve of 11 bits.
        let src = "// fuzz-waterline: 50\n// fuzz-rescale: 60\n// fuzz-max-level: 30\n\
                   program w(slots=8) {\n  %0 = input \"x\"\n  %1 = const 1000.0\n  \
                   %2 = mul %0, %1\n  %3 = mul %2, %0\n  return %3\n}\n";
        let run = LintRun {
            compilers: vec!["reserve".into()],
            ..LintRun::default()
        };
        let case = corpus::parse_case(src).expect("parses");
        let estimate_at = |params: &CompileParams| {
            let scheduled = compile_with("reserve", &case.program, params)
                .expect("compiles")
                .scheduled;
            let map = scheduled.validate().expect("valid schedule");
            DepGraph::build(&scheduled, &map, &run.profile, true).estimate()
        };
        let mut derived = case.params;
        derived.output_reserve_bits =
            required_output_reserve_bits(&case.program, &IntervalDomain::default());
        assert_ne!(
            estimate_at(&derived).work_us,
            estimate_at(&case.params).work_us,
            "the derived reserve changes the schedule"
        );

        let lint = lint_file("w.fhe", src, &run);
        assert_eq!(lint.targets[0].estimate, Some(estimate_at(&derived)));
    }

    #[test]
    fn lint_profiles_a_scheduled_file_directly() {
        let src = "// lint-mode: scheduled\n// lint-input-scale: 95\n// lint-input-level: 2\n\
                   program d(slots=4) {\n  %0 = input \"x\"\n  %1 = rescale %0\n  return %0\n}\n";
        let r = lint_file("d.fhe", src, &LintRun::default());
        assert!(r.error.is_none());
        assert_eq!(r.targets.len(), 1);
        assert_eq!(r.targets[0].target, "scheduled");
        assert!(r.targets[0].dot.is_none());
        let est = r.targets[0].estimate.as_ref().expect("estimate");
        // A straight-line schedule has span == work.
        assert!((est.span_us - est.work_us).abs() < 1e-9, "{est:?}");
    }

    #[test]
    fn json_report_is_well_formed() {
        let src = "// lint-mode: scheduled\n// lint-input-scale: 95\n// lint-input-level: 2\n\
                   program d(slots=4) {\n  %0 = input \"x\"\n  %1 = rescale %0\n  return %0\n}\n";
        let r = lint_file("d.fhe", src, &LintRun::default());
        let json = reports_json(&[r]).to_string();
        assert!(json.contains("\"file\":\"d.fhe\""), "{json}");
        assert!(json.contains("\"code\":\"F002\""), "{json}");
        assert!(json.contains("\"translation_validated\":null"), "{json}");
        assert!(json.contains("\"max_width\":"), "{json}");
    }
}
