//! Bounded differential-fuzz run plus replay of the committed reproducer
//! corpus. The corpus under `tests/corpus/` holds the shrunk program for
//! every bug the fuzzer has found (each `// fuzz-detail` names the fix);
//! replaying them through the full oracle keeps those bugs fixed. The
//! random sweep is small enough for `cargo test` — the CI `fuzz-smoke`
//! job runs the wider sweep through the `fuzz` binary.

use std::path::Path;

use fhe_fuzz::{load_dir, run_seed, GenConfig, OracleConfig};

/// Every committed reproducer must replay clean: same program, same
/// parameters, same derived inputs as at discovery time.
#[test]
fn corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = load_dir(&dir).expect("corpus parses");
    assert!(
        cases.len() >= 6,
        "expected the committed corpus, found {} case(s) in {}",
        cases.len(),
        dir.display()
    );
    let mut failures = Vec::new();
    for case in &cases {
        let cfg = OracleConfig {
            params: case.params,
            ..OracleConfig::default()
        };
        let divs = fhe_fuzz::check_program(&case.program, &cfg).divergences;
        for d in &divs {
            failures.push(format!(
                "{}: [{}] {}",
                case.path.as_ref().unwrap().display(),
                d.label(),
                d.detail
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus regressions:\n{}",
        failures.join("\n")
    );
}

/// A short random sweep with the default generator and oracle — the
/// every-commit version of the CI fuzz job. 40 seeds keeps this under a
/// few seconds while still exercising every compiler × executor pair,
/// the metamorphic checks and the textual round-trip.
///
/// "Clean" must also say how much was encrypted: the oracle skips the
/// encrypted column for a schedule that does not fit the backend, so the
/// sweep counts both outcomes. A clean seed compiled under every compiler,
/// so each of its schedules reached the executors and is in exactly one of
/// the two counts.
#[test]
fn bounded_random_sweep_is_clean() {
    let gen_cfg = GenConfig::default();
    let oracle_cfg = OracleConfig::default();
    assert!(oracle_cfg.run_ckks, "the sweep covers the encrypted column");
    let columns = fhe_fuzz::compilers(&oracle_cfg).len() as u64;
    let mut divergent = Vec::new();
    let mut encrypted = 0;
    for seed in 0..40 {
        let result = run_seed(seed, &gen_cfg, &oracle_cfg);
        if !result.divergences.is_empty() {
            let labels: Vec<String> = result.divergences.iter().map(|d| d.label()).collect();
            divergent.push(format!("seed {seed}: {}", labels.join(", ")));
            continue;
        }
        assert_eq!(
            result.ckks_schedules_run + result.ckks_schedules_skipped,
            columns,
            "seed {seed}: a schedule was neither encrypted nor counted as skipped"
        );
        encrypted += result.ckks_schedules_run;
    }
    assert!(
        divergent.is_empty(),
        "divergent seeds:\n{}",
        divergent.join("\n")
    );
    assert!(
        encrypted > 0,
        "no schedule of 40 seeds ran under encryption"
    );
}
