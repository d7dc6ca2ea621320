//! Mul·relin·rescale fusion planning.
//!
//! A cipher×cipher [`Op::Mul`] already folds relinearization into the
//! product pass; when its *sole* consumer is an [`Op::Rescale`], the
//! runtime can run both as one fused kernel that rescales the
//! relinearized pair in place — the mul's full-level result ciphertext
//! (two level-`l` polynomials) is never materialized. The arithmetic is
//! untouched, so fused and unfused execution are bit-identical; fusion
//! only deletes the intermediate buffer traffic and the scheduling gap
//! between the two ops.
//!
//! [`FusionPlan::plan`] finds every fusible pair of a scheduled program
//! and — for the diagnostics layer — every *near miss*: a mul whose
//! rescale exists but cannot fuse because an intervening consumer pins
//! the pre-rescale value (the F009 lint feeds on
//! [`FusionPlan::blocked`]).

use crate::analysis::Lists;
use crate::op::{Op, ValueId};
use crate::program::Program;
use crate::schedule::ScheduledProgram;

/// Why a mul→rescale pair cannot fuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blocker {
    /// The mul's pre-rescale value has consumers besides the rescale (or
    /// is a program output), so it must be materialized anyway.
    ExtraConsumers {
        /// The other consumers pinning the value (outputs excluded).
        others: Vec<ValueId>,
        /// Whether the mul value is itself a program output.
        is_output: bool,
    },
    /// The rescale applies to the mul value only after an intervening
    /// unary op, so the fused kernel's in-place rescale cannot be used.
    Intervening {
        /// The op sitting between the mul and the rescale.
        via: ValueId,
    },
}

/// A mul→rescale pair that was considered for fusion and rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedFusion {
    /// The cipher×cipher multiply.
    pub mul: ValueId,
    /// The rescale that would have fused with it.
    pub rescale: ValueId,
    /// Why the pair stays unfused.
    pub blocker: Blocker,
}

/// The fusion decisions for one scheduled program: which mul ops execute
/// as fused mul·relin·rescale kernels, and the near misses.
#[derive(Debug, Clone, Default)]
pub struct FusionPlan {
    blocked: Vec<BlockedFusion>,
    pairs: Vec<(ValueId, ValueId)>,
}

impl FusionPlan {
    /// Plans fusion for `scheduled`. A pair `(mul, rescale)` fuses iff the
    /// mul is a live cipher×cipher product, the rescale is its only live
    /// consumer, and the mul value is not a program output. Dead ops are
    /// ignored entirely.
    pub fn plan(scheduled: &ScheduledProgram) -> FusionPlan {
        let program = &scheduled.program;
        let live = crate::analysis::live(program);
        let readers = crate::analysis::readers(program, &live);
        FusionPlan::plan_read(program, &live, &readers)
    }

    /// [`FusionPlan::plan`] from the program's [`live`](crate::analysis::live)
    /// ops and their [`readers`](crate::analysis::readers), which the caller
    /// holds.
    pub fn plan_read(program: &Program, live: &[bool], readers: &Lists<ValueId>) -> FusionPlan {
        let users = |id: ValueId| readers.get(id.index());
        let is_output = |id: ValueId| program.outputs().contains(&id);

        let mut plan = FusionPlan::default();
        for id in program.ids().filter(|id| live[id.index()]) {
            let Op::Mul(a, b) = *program.op(id) else {
                continue;
            };
            if !(program.is_cipher(a) && program.is_cipher(b)) {
                continue;
            }
            let direct_rescale = users(id)
                .iter()
                .copied()
                .find(|&u| matches!(program.op(u), Op::Rescale(_)));
            match direct_rescale {
                Some(r) if users(id).len() == 1 && !is_output(id) => {
                    plan.pairs.push((id, r));
                }
                Some(r) => {
                    plan.blocked.push(BlockedFusion {
                        mul: id,
                        rescale: r,
                        blocker: Blocker::ExtraConsumers {
                            others: users(id).iter().copied().filter(|&u| u != r).collect(),
                            is_output: is_output(id),
                        },
                    });
                }
                None => {
                    // Sole-consumer chain mul → unary op → rescale: the
                    // rescale exists but an op intervenes.
                    let [via] = users(id)[..] else {
                        continue;
                    };
                    let unary = matches!(
                        program.op(via),
                        Op::Neg(_) | Op::ModSwitch(_) | Op::Upscale(..)
                    );
                    if !unary || is_output(via) {
                        continue;
                    }
                    if let [r] = users(via)[..] {
                        if matches!(program.op(r), Op::Rescale(_)) {
                            plan.blocked.push(BlockedFusion {
                                mul: id,
                                rescale: r,
                                blocker: Blocker::Intervening { via },
                            });
                        }
                    }
                }
            }
        }
        plan
    }

    /// All fused `(mul, rescale)` pairs, in schedule order.
    pub fn pairs(&self) -> &[(ValueId, ValueId)] {
        &self.pairs
    }

    /// Number of fused pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair fused.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The near misses: pairs that were considered and rejected, in
    /// schedule order of the mul.
    pub fn blocked(&self) -> &[BlockedFusion] {
        &self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::params::CompileParams;
    use crate::program::Program;
    use crate::schedule::{InputSpec, ScheduledProgram};
    use crate::Frac;

    fn scheduled(p: Program) -> ScheduledProgram {
        ScheduledProgram {
            params: CompileParams::new(30),
            inputs: p
                .inputs()
                .iter()
                .map(|_| InputSpec {
                    scale_bits: Frac::from(30u32),
                    level: 2,
                })
                .collect(),
            program: p,
        }
    }

    #[test]
    fn sole_consumer_rescale_fuses() {
        let mut p = Program::new("t", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let m = p.push(Op::Mul(x, y));
        let r = p.push(Op::Rescale(m));
        p.set_outputs(vec![r]);
        let plan = FusionPlan::plan(&scheduled(p));
        assert_eq!(plan.pairs(), &[(m, r)]);
        assert!(plan.blocked().is_empty());
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn extra_consumer_blocks_fusion() {
        let mut p = Program::new("t", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let m = p.push(Op::Mul(x, y));
        let r = p.push(Op::Rescale(m));
        let extra = p.push(Op::Add(m, y)); // second consumer of the raw product
        let out = p.push(Op::Add(r, extra));
        p.set_outputs(vec![out]);
        let plan = FusionPlan::plan(&scheduled(p));
        assert!(plan.is_empty());
        assert_eq!(plan.blocked().len(), 1);
        let b = &plan.blocked()[0];
        assert_eq!((b.mul, b.rescale), (m, r));
        assert_eq!(
            b.blocker,
            Blocker::ExtraConsumers {
                others: vec![extra],
                is_output: false
            }
        );
    }

    #[test]
    fn intervening_op_blocks_fusion() {
        let mut p = Program::new("t", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let m = p.push(Op::Mul(x, y));
        let n = p.push(Op::Neg(m));
        let r = p.push(Op::Rescale(n));
        p.set_outputs(vec![r]);
        let plan = FusionPlan::plan(&scheduled(p));
        assert!(plan.is_empty());
        assert_eq!(plan.blocked().len(), 1);
        assert_eq!(plan.blocked()[0].blocker, Blocker::Intervening { via: n });
    }

    #[test]
    fn output_muls_and_plain_muls_do_not_fuse() {
        let mut p = Program::new("t", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let c = p.push(Op::Const { value: 2.0.into() });
        let pm = p.push(Op::Mul(x, c)); // cipher×plain: no relin, no fusion
        let r1 = p.push(Op::Rescale(pm));
        let m = p.push(Op::Mul(r1, r1));
        let r2 = p.push(Op::Rescale(m));
        p.set_outputs(vec![m, r2]); // raw product is itself an output
        let plan = FusionPlan::plan(&scheduled(p));
        assert!(plan.is_empty());
        assert_eq!(plan.blocked().len(), 1, "output mul is a near miss");
        assert_eq!(
            plan.blocked()[0].blocker,
            Blocker::ExtraConsumers {
                others: vec![],
                is_output: true
            }
        );
    }

    #[test]
    fn dead_rescales_are_ignored() {
        let b = Builder::new("t", 8);
        let x = b.input("x");
        let y = b.input("y");
        let prod = x * y;
        let p = {
            let mut p = b.finish(vec![prod.clone()]);
            // A rescale nobody uses: planning must not pair it.
            let m = p.outputs()[0];
            p.push(Op::Rescale(m));
            p
        };
        let plan = FusionPlan::plan(&scheduled(p));
        assert!(plan.is_empty());
        assert!(plan.blocked().is_empty());
    }
}
