//! The Hecate baseline: exploration-based scale management
//! (Lee et al., CGO'22, as summarized in the paper's §3.3).
//!
//! Hecate searches the space of scale-management plans with hill climbing:
//! each candidate forces *downscales* (eager upscale+rescale rounds) at
//! chosen program points, is legalized by the proactive-rescaling forward
//! pass, and is scored with the static latency model. The search keeps the
//! best plan seen. Exploration finds the level reductions the reserve
//! analysis derives statically — at the cost of thousands of legalize+score
//! iterations, which is exactly the compile-time gap Table 4 measures.

use fhe_analysis::finish_verified;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fhe_ir::pipeline::{CompileError, Compiled, PassCx, PassKind, ScaleCompiler};
use fhe_ir::{passes, CompileParams, CostModel, Program, ScheduledProgram};

use crate::forward::{legalize, ForwardPlan};

/// Hecate's label in the paper's tables.
pub const NAME: &str = "Hecate";

/// Hecate behind the workspace-wide [`ScaleCompiler`] trait, with its
/// exploration configuration.
#[derive(Debug, Clone)]
pub struct HecateCompiler {
    /// Maximum candidate plans to evaluate.
    pub max_iterations: usize,
    /// Stop after this many consecutive non-improving candidates.
    pub patience: usize,
    /// RNG seed (exploration is randomized but reproducible).
    pub seed: u64,
}

impl Default for HecateCompiler {
    fn default() -> Self {
        HecateCompiler {
            max_iterations: 20_000,
            patience: 2_000,
            seed: 0x4845_4341,
        }
    }
}

impl HecateCompiler {
    /// A compiler with an explicit iteration budget, paper defaults
    /// otherwise.
    pub fn with_budget(max_iterations: usize) -> Self {
        HecateCompiler {
            max_iterations,
            ..HecateCompiler::default()
        }
    }
}

impl ScaleCompiler for HecateCompiler {
    fn name(&self) -> &str {
        NAME
    }

    /// Compiles with Hecate-style hill-climbing exploration.
    ///
    /// # Errors
    ///
    /// Fails (in pass `"explore"`) when even the conservative (EVA) plan
    /// exceeds `params.max_level`, and in pass `"cleanup"` when the program
    /// already holds scale management.
    fn compile(&self, program: &Program, params: &CompileParams) -> Result<Compiled, CompileError> {
        let mut cx = PassCx::new(NAME, CostModel::paper_table3());
        let cleaned = cx.cleanup(program)?;
        let scheduled = cx.record("explore", PassKind::ScaleManagement, |cx| {
            explore(&cleaned, params, self, cx)
        })?;
        finish_verified(&mut cx, program, scheduled)
    }
}

/// The hill-climbing search over [`ForwardPlan`]s: the body of the
/// `explore` phase. Fails when even the empty (EVA) plan does not legalize.
fn explore(
    cleaned: &Program,
    params: &CompileParams,
    hecate: &HecateCompiler,
    cx: &mut PassCx,
) -> Result<ScheduledProgram, Vec<String>> {
    let cost_model = &cx.cost_model;

    // Hecate runs its optimization passes (CSE, DCE) inside every
    // explored iteration "to precisely reflect the explored performance"
    // (§8.1) — that per-iteration weight is part of the compile-time gap
    // Table 4 measures, so we reproduce it here.
    let score = |s: &ScheduledProgram| -> f64 {
        let cleaned = passes::cleanup(&s.program);
        let candidate = if cleaned.inputs().len() == s.inputs.len() {
            ScheduledProgram {
                program: cleaned,
                params: s.params,
                inputs: s.inputs.clone(),
            }
        } else {
            s.clone() // cleanup dropped a dead input; score the original
        };
        match candidate.validate() {
            Ok(map) => cost_model.program_cost(&candidate.program, &map),
            Err(_) => f64::INFINITY,
        }
    };

    // Candidate points: use edges carrying live ciphertext operands.
    let live = fhe_ir::analysis::live(cleaned);
    let mut points: Vec<usize> = Vec::new();
    for id in cleaned.ids() {
        if !live[id.index()] || cleaned.is_plain(id) {
            continue;
        }
        for (slot, operand) in cleaned.op(id).operands().enumerate() {
            if cleaned.is_cipher(operand) {
                points.push(2 * id.index() + slot);
            }
        }
    }

    let mut best_plan = ForwardPlan::empty(cleaned.num_ops());
    let mut best = legalize(cleaned, params, &best_plan).map_err(|e| vec![format!("{e:?}")])?;
    let mut best_cost = score(&best);
    let mut iterations = 1usize;
    let mut since_improvement = 0usize;
    let mut rng = StdRng::seed_from_u64(hecate.seed);

    while iterations < hecate.max_iterations && since_improvement < hecate.patience {
        // Mutate 1–3 random points of the incumbent plan.
        let mut candidate = best_plan.clone();
        let mutations = rng.gen_range(1..=3usize);
        for _ in 0..mutations {
            if points.is_empty() {
                break;
            }
            let p = points[rng.gen_range(0..points.len())];
            candidate.edge[p] = rng.gen_range(0..=ForwardPlan::MAX_CHOICE);
        }
        if candidate == best_plan {
            iterations += 1;
            since_improvement += 1;
            continue;
        }
        iterations += 1;
        match legalize(cleaned, params, &candidate) {
            Ok(s) => {
                let c = score(&s);
                if c < best_cost {
                    best_cost = c;
                    best = s;
                    best_plan = candidate;
                    since_improvement = 0;
                } else {
                    since_improvement += 1;
                }
            }
            Err(_) => since_improvement += 1,
        }
    }

    cx.iterations += iterations;
    cx.note(format!("{iterations} candidate plan(s) explored"));
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvaCompiler;
    use fhe_ir::Builder;

    fn fig2a() -> Program {
        let b = Builder::new("fig2a", 8);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        b.finish(vec![q])
    }

    fn hecate(iters: usize) -> HecateCompiler {
        HecateCompiler {
            max_iterations: iters,
            patience: iters,
            seed: 7,
        }
    }

    #[test]
    fn exploration_beats_eva_on_fig2a() {
        let p = fig2a();
        let params = CompileParams::new(20);
        let eva_out = EvaCompiler.compile(&p, &params).unwrap();
        let hec = hecate(500).compile(&p, &params).unwrap();
        assert!(
            hec.report.estimated_latency_us < eva_out.report.estimated_latency_us,
            "hecate {} should beat EVA {}",
            hec.report.estimated_latency_us,
            eva_out.report.estimated_latency_us
        );
        assert!(hec.report.iterations > 1);
        hec.scheduled.validate().unwrap();
    }

    #[test]
    fn exploration_is_seed_deterministic() {
        let p = fig2a();
        let params = CompileParams::new(30);
        let a = hecate(200).compile(&p, &params).unwrap();
        let b = hecate(200).compile(&p, &params).unwrap();
        assert_eq!(a.report.iterations, b.report.iterations);
        assert_eq!(a.report.estimated_latency_us, b.report.estimated_latency_us);
    }

    #[test]
    fn iterations_flow_into_the_trace_note() {
        let p = fig2a();
        let out = hecate(100).compile(&p, &CompileParams::new(20)).unwrap();
        let explore = out.report.trace.pass("explore").unwrap();
        assert_eq!(
            explore.notes,
            vec![format!(
                "{} candidate plan(s) explored",
                out.report.iterations
            )]
        );
    }
}
