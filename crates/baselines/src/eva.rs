//! The EVA baseline: conservative forward static scale analysis
//! (Dathathri et al., PLDI'20, as summarized in the paper's §3.1).

use fhe_analysis::finish_verified;
use fhe_ir::pipeline::{CompileError, Compiled, PassCx, PassKind, ScaleCompiler};
use fhe_ir::{CompileParams, CostModel, Program};

use crate::forward::{legalize, ForwardPlan};

/// EVA's label in the paper's tables.
pub const NAME: &str = "EVA";

/// Compiles with EVA's waterline-driven forward analysis.
///
/// # Errors
///
/// Fails (in pass `"legalize"`) when the program's accumulated scale
/// requires more levels than `params.max_level`.
pub fn compile(program: &Program, params: &CompileParams) -> Result<Compiled, CompileError> {
    let mut cx = PassCx::new(NAME, CostModel::paper_table3());
    let cleaned = cx.cleanup(program);
    // Forward waterline legalization with the empty (all-lazy) plan.
    let scheduled = cx.record("legalize", PassKind::ScaleManagement, |cx| {
        cx.iterations += 1;
        legalize(&cleaned, params, &ForwardPlan::empty(cleaned.num_ops()))
            .map_err(|e| vec![format!("{e:?}")])
    })?;
    cx.rewrote_schedule(&scheduled);
    finish_verified(&mut cx, program, scheduled)
}

/// EVA behind the workspace-wide [`ScaleCompiler`] trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvaCompiler;

impl ScaleCompiler for EvaCompiler {
    fn name(&self) -> &str {
        NAME
    }

    fn compile(&self, program: &Program, params: &CompileParams) -> Result<Compiled, CompileError> {
        compile(program, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::Builder;

    #[test]
    fn eva_compiles_and_validates() {
        let b = Builder::new("t", 8);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        let out = compile(&p, &CompileParams::new(20)).unwrap();
        assert_eq!(out.report.max_level, 2);
        assert!(out.report.estimated_latency_us > 0.0);
        assert_eq!(out.report.iterations, 1);
        assert_eq!(out.report.compiler, "EVA");
        let names: Vec<&str> = out
            .report
            .trace
            .passes
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "cleanup",
                "legalize",
                "depgraph",
                "lint",
                "translation-validate"
            ]
        );
        assert_eq!(out.report.translation_validated, Some(true));
    }

    #[test]
    fn depth_beyond_max_level_is_a_compile_error() {
        let b = Builder::new("deep", 4);
        let x = b.input("x");
        let mut acc = x;
        for _ in 0..8 {
            acc = acc.clone() * acc;
        }
        let p = b.finish(vec![acc]);
        let mut params = CompileParams::new(50);
        params.max_level = 3;
        let err = compile(&p, &params).unwrap_err();
        assert_eq!(err.compiler, "EVA");
        assert_eq!(err.error.pass, "legalize");
    }
}
