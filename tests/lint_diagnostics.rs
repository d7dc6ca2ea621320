//! Golden-file test of the lint driver's rendered diagnostics: the
//! hand-written corpus case `tests/corpus/lint/dead_rescale.fhe` must
//! produce exactly the checked-in caret-rendered F002 diagnostic.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test lint_diagnostics`
//! and review the diff like any other code change.

use fhe_reserve::lint::{lint_file, LintRun};

const CASE: &str = "tests/corpus/lint/dead_rescale.fhe";

fn check(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {name}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        rendered, expected,
        "rendered lint diagnostic drifted from {name}; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn dead_rescale_diagnostic_matches_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(CASE);
    let content = std::fs::read_to_string(path).expect("demo corpus case exists");
    let report = lint_file(CASE, &content, &LintRun::default());
    assert!(report.error.is_none(), "{:?}", report.error);
    assert_eq!(report.targets.len(), 1);
    let target = &report.targets[0];
    assert!(target.error.is_none(), "{:?}", target.error);
    assert_eq!(target.findings.len(), 1, "{:?}", target.findings);
    assert_eq!(target.findings[0].code, "F002");
    check("lint_dead_rescale.txt", &target.rendered);
}

#[test]
fn over_provisioned_keys_diagnostic_matches_golden() {
    const KEYS_CASE: &str = "tests/corpus/lint/over_provisioned_keys.fhe";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(KEYS_CASE);
    let content = std::fs::read_to_string(path).expect("demo corpus case exists");
    let report = lint_file(KEYS_CASE, &content, &LintRun::default());
    assert!(report.error.is_none(), "{:?}", report.error);
    assert_eq!(report.targets.len(), 1);
    let target = &report.targets[0];
    assert!(target.error.is_none(), "{:?}", target.error);
    assert_eq!(target.findings.len(), 1, "{:?}", target.findings);
    assert_eq!(target.findings[0].code, "F006");
    check("lint_over_provisioned_keys.txt", &target.rendered);
}

#[test]
fn serialized_reduction_diagnostic_matches_golden() {
    const CHAIN_CASE: &str = "tests/corpus/lint/serialized_reduction.fhe";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(CHAIN_CASE);
    let content = std::fs::read_to_string(path).expect("demo corpus case exists");
    let report = lint_file(CHAIN_CASE, &content, &LintRun::default());
    assert!(report.error.is_none(), "{:?}", report.error);
    assert_eq!(report.targets.len(), 1);
    let target = &report.targets[0];
    assert!(target.error.is_none(), "{:?}", target.error);
    assert_eq!(target.findings.len(), 1, "{:?}", target.findings);
    assert_eq!(target.findings[0].code, "F007");
    assert_eq!(
        target.findings[0].severity,
        fhe_reserve::ir::diag::Severity::Warning
    );
    check("lint_serialized_reduction.txt", &target.rendered);
}

#[test]
fn premature_free_diagnostic_matches_golden() {
    // Error severity, so the case lives outside tests/corpus — CI's
    // `--deny error` sweep over the shipped corpus must stay clean.
    const FREE_CASE: &str = "tests/lint_cases/premature_free.fhe";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FREE_CASE);
    let content = std::fs::read_to_string(path).expect("crafted case exists");
    let report = lint_file(FREE_CASE, &content, &LintRun::default());
    assert!(report.error.is_none(), "{:?}", report.error);
    assert_eq!(report.targets.len(), 1);
    let target = &report.targets[0];
    assert!(target.error.is_none(), "{:?}", target.error);
    assert_eq!(target.findings.len(), 1, "{:?}", target.findings);
    assert_eq!(target.findings[0].code, "F008");
    assert_eq!(
        target.findings[0].severity,
        fhe_reserve::ir::diag::Severity::Error
    );
    check("lint_premature_free.txt", &target.rendered);
}

#[test]
fn shipped_corpus_and_examples_are_lint_clean() {
    // The same gate CI runs: every shipped `.fhe` file parses and
    // compiles, every compiled schedule translation-validates, and the
    // eva/reserve schedules carry no error-severity findings. Hecate is
    // exempt from the F001 gate only: its explored schedules satisfy the
    // validator but cannot always statically prove `m·x_max < Q` on
    // adversarial fuzz reproducers — a true positive this lint exists to
    // surface (the reserve compiler provisions magnitude headroom by
    // construction; exploration does not).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = fhe_reserve::lint::collect_files(&[
        root.join("examples/programs"),
        root.join("tests/corpus"),
    ])
    .expect("walk");
    assert!(
        files.len() >= 7,
        "expected shipped .fhe files, got {files:?}"
    );
    for file in files {
        let content = std::fs::read_to_string(&file).expect("readable");
        let report = lint_file(&file.display().to_string(), &content, &LintRun::default());
        assert!(
            report.error.is_none(),
            "{}: {:?}",
            file.display(),
            report.error
        );
        for target in &report.targets {
            assert!(
                target.error.is_none(),
                "{}@{}: {:?}",
                file.display(),
                target.target,
                target.error
            );
            assert!(
                target.findings.iter().all(|f| f.code != "F000"),
                "{}@{}: translation validation failed: {:?}",
                file.display(),
                target.target,
                target.findings
            );
            if target.target != "hecate" {
                assert!(
                    target
                        .findings
                        .iter()
                        .all(|f| f.severity < fhe_reserve::ir::diag::Severity::Error),
                    "{}@{}: {:?}",
                    file.display(),
                    target.target,
                    target.findings
                );
            }
            if target.target != "scheduled" {
                assert_eq!(
                    target.translation_validated,
                    Some(true),
                    "{}@{}",
                    file.display(),
                    target.target
                );
            }
        }
    }
}
