//! Translation validation across the paper's full benchmark suite: every
//! compiler's schedule for every workload must bisimulate its source
//! program modulo inserted scale management, and the verdict must be
//! recorded in the compile report by the pipeline's
//! `translation-validate` pass.

use fhe_reserve::prelude::*;

/// The three compilers, with a small fixed Hecate budget so the suite
/// stays fast and deterministic.
fn compilers() -> Vec<Box<dyn ScaleCompiler>> {
    vec![
        Box::new(EvaCompiler),
        Box::new(HecateCompiler {
            options: HecateOptions {
                max_iterations: 100,
                patience: 100,
                seed: 11,
            },
        }),
        Box::new(ReserveCompiler::full()),
    ]
}

#[test]
fn every_compiler_validates_on_every_workload() {
    let params = CompileParams::new(30);
    for workload in suite(Size::Test) {
        for compiler in compilers() {
            let out = compiler
                .compile(&workload.program, &params)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", compiler.name(), workload.name));
            assert_eq!(
                out.report.translation_validated,
                Some(true),
                "{} on {} failed translation validation",
                compiler.name(),
                workload.name
            );
            // The direct checker agrees with the recorded verdict.
            let direct = fhe_reserve::analysis::validate(&workload.program, &out.scheduled);
            assert!(
                direct.is_ok(),
                "{} on {}: {:?}",
                compiler.name(),
                workload.name,
                direct.err()
            );
        }
    }
}
