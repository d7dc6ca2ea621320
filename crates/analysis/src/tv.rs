//! Translation validation: prove a compiler's scheduled program equals its
//! source modulo inserted scale management.
//!
//! Every compiler in the workspace first runs the shared, deterministic
//! `passes::cleanup` (identities, folding, CSE and DCE in one forward
//! sweep), then inserts `rescale`/`modswitch`/`upscale` ops — which are
//! message-transparent by the semantics of Table 2. So a schedule is a
//! correct translation iff stripping scale-management ops yields a DAG
//! structurally equal to `cleanup(source)`. [`validate`] checks this by
//! bisimulation from the outputs: each scheduled value is matched to a
//! cleaned-source value with the same op, equal immediate attributes (input
//! name, constant bits, rotation offset), and recursively matched operands,
//! memoized so shared subgraphs are visited once and a value can never
//! match two different source values.

use std::fmt;

use fhe_ir::{passes, Op, Program, ScheduledProgram, ValueId};

/// Evidence of a successful validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TvReport {
    /// Distinct scheduled values matched to source values.
    pub matched: usize,
    /// Scale-management ops stripped while following operands.
    pub scale_management_ops: usize,
}

/// The first structural mismatch found.
#[derive(Debug, Clone, PartialEq)]
pub struct TvMismatch {
    /// Scheduled-program value at the mismatch, if op-local.
    pub scheduled_op: Option<ValueId>,
    /// What differed.
    pub detail: String,
}

impl TvMismatch {
    fn program(detail: impl Into<String>) -> Self {
        TvMismatch {
            scheduled_op: None,
            detail: detail.into(),
        }
    }

    fn at(op: ValueId, detail: impl Into<String>) -> Self {
        TvMismatch {
            scheduled_op: Some(op),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for TvMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.scheduled_op {
            Some(op) => write!(f, "at {op}: {}", self.detail),
            None => f.write_str(&self.detail),
        }
    }
}

/// Follows scale-management ops down to the arithmetic value they wrap.
fn strip(program: &Program, mut id: ValueId, stripped: &mut usize) -> ValueId {
    loop {
        match program.op(id) {
            Op::Rescale(a) | Op::ModSwitch(a) | Op::Upscale(a, _) => {
                *stripped += 1;
                id = *a;
            }
            _ => return id,
        }
    }
}

/// Proves `scheduled` computes the same function as `source`, modulo
/// inserted scale management and the shared cleanup canonicalization.
///
/// # Errors
///
/// Returns the first structural mismatch — which, for the compilers in
/// this workspace, indicates a compiler bug (the fuzz oracle surfaces it
/// as a divergence).
pub fn validate(source: &Program, scheduled: &ScheduledProgram) -> Result<TvReport, TvMismatch> {
    let target = passes::cleanup(source);
    let sp = &scheduled.program;

    if sp.slots() != target.slots() {
        return Err(TvMismatch::program(format!(
            "slot count changed: {} vs source {}",
            sp.slots(),
            target.slots()
        )));
    }
    if sp.outputs().len() != target.outputs().len() {
        return Err(TvMismatch::program(format!(
            "output count changed: {} vs source {}",
            sp.outputs().len(),
            target.outputs().len()
        )));
    }

    let mut stripped = 0usize;
    // sched value -> cleaned-source value it must bisimulate.
    let mut memo: Vec<Option<ValueId>> = vec![None; sp.num_ops()];
    let mut matched = 0usize;
    let mut work: Vec<(ValueId, ValueId)> = sp
        .outputs()
        .iter()
        .zip(target.outputs())
        .map(|(&s, &t)| {
            (
                strip(sp, s, &mut stripped),
                strip(&target, t, &mut stripped),
            )
        })
        .collect();

    while let Some((s, t)) = work.pop() {
        match memo[s.index()] {
            Some(prev) if prev == t => continue,
            Some(prev) => {
                return Err(TvMismatch::at(
                    s,
                    format!("matches two source values ({prev} and {t})"),
                ));
            }
            None => {
                memo[s.index()] = Some(t);
                matched += 1;
            }
        }
        let push_operands = |work: &mut Vec<(ValueId, ValueId)>,
                             stripped: &mut usize,
                             pairs: &[(ValueId, ValueId)]| {
            for &(a, b) in pairs {
                work.push((strip(sp, a, stripped), strip(&target, b, stripped)));
            }
        };
        match (sp.op(s), target.op(t)) {
            (Op::Input { name: a }, Op::Input { name: b }) if a == b => {}
            (Op::Const { value: a }, Op::Const { value: b }) if a == b => {}
            (Op::Add(a1, a2), Op::Add(b1, b2))
            | (Op::Sub(a1, a2), Op::Sub(b1, b2))
            | (Op::Mul(a1, a2), Op::Mul(b1, b2)) => {
                push_operands(&mut work, &mut stripped, &[(*a1, *b1), (*a2, *b2)]);
            }
            (Op::Neg(a), Op::Neg(b)) => {
                push_operands(&mut work, &mut stripped, &[(*a, *b)]);
            }
            (Op::Rotate(a, ka), Op::Rotate(b, kb)) if ka == kb => {
                push_operands(&mut work, &mut stripped, &[(*a, *b)]);
            }
            (sop, top) => {
                return Err(TvMismatch::at(
                    s,
                    format!(
                        "scheduled `{}` does not bisimulate source {t} `{}`",
                        sop.mnemonic(),
                        top.mnemonic()
                    ),
                ));
            }
        }
    }

    Ok(TvReport {
        matched,
        scale_management_ops: stripped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::{Builder, CompileParams, Frac, InputSpec};

    fn source() -> Program {
        let b = Builder::new("tv", 8);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        b.finish(vec![q])
    }

    /// A faithful hand-made schedule: cleanup(source) plus an upscale and a
    /// rescale, inputs encoded at waterline scale.
    fn faithful_schedule() -> ScheduledProgram {
        let cleaned = passes::cleanup(&source());
        let mut p = Program::new(cleaned.name(), cleaned.slots());
        let mut map: Vec<ValueId> = Vec::new();
        for id in cleaned.ids() {
            let op = cleaned.op(id).map_operands(|o| map[o.index()]);
            map.push(p.push(op));
        }
        // Wrap the final output in upscale→rescale (net scale −20 bits).
        let out = map[cleaned.outputs()[0].index()];
        let up = p.push(Op::Upscale(out, Frac::from(40)));
        let rs = p.push(Op::Rescale(up));
        p.set_outputs(vec![rs]);
        let spec = InputSpec {
            scale_bits: Frac::from(20),
            level: 4,
        };
        ScheduledProgram {
            program: p,
            params: CompileParams::new(20),
            inputs: vec![spec, spec],
        }
    }

    #[test]
    fn faithful_schedule_validates() {
        let report = validate(&source(), &faithful_schedule()).expect("bisimulation");
        assert!(report.matched >= 7, "matched {}", report.matched);
        assert_eq!(report.scale_management_ops, 2);
    }

    #[test]
    fn wrong_rotation_offset_is_caught() {
        let b = Builder::new("r", 8);
        let x = b.input("x");
        let src = b.finish(vec![x.rotate(2)]);
        let mut p = Program::new("r", 8);
        let xi = p.push(Op::Input { name: "x".into() });
        let rot = p.push(Op::Rotate(xi, 3)); // compiler "bug": offset drifted
        p.set_outputs(vec![rot]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(20),
            inputs: vec![InputSpec {
                scale_bits: Frac::from(20),
                level: 1,
            }],
        };
        let err = validate(&src, &s).unwrap_err();
        assert!(err.detail.contains("rotate"), "{err}");
    }

    #[test]
    fn swapped_operand_consts_are_caught() {
        let b = Builder::new("c", 4);
        let x = b.input("x");
        let diff = x.clone() - b.constant(2.0);
        let src = b.finish(vec![diff]);
        let mut p = Program::new("c", 4);
        let xi = p.push(Op::Input { name: "x".into() });
        let c = p.push(Op::Const { value: 3.0.into() }); // wrong constant
        let sub = p.push(Op::Sub(xi, c));
        p.set_outputs(vec![sub]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(20),
            inputs: vec![InputSpec {
                scale_bits: Frac::from(20),
                level: 1,
            }],
        };
        let err = validate(&src, &s).unwrap_err();
        assert!(err.detail.contains("bisimulate"), "{err}");
    }

    #[test]
    fn shared_subgraphs_cannot_match_two_sources() {
        // Source: (x·x) + (y·y); schedule returns (x·x) + (x·x). The
        // second operand strips to the same mul as the first, which must
        // fail to match y·y.
        let b = Builder::new("s", 4);
        let x = b.input("x");
        let y = b.input("y");
        let src = b.finish(vec![x.clone() * x + y.clone() * y]);
        let mut p = Program::new("s", 4);
        let xi = p.push(Op::Input { name: "x".into() });
        let _yi = p.push(Op::Input { name: "y".into() });
        let xx = p.push(Op::Mul(xi, xi));
        let add = p.push(Op::Add(xx, xx));
        p.set_outputs(vec![add]);
        let spec = InputSpec {
            scale_bits: Frac::from(20),
            level: 2,
        };
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(20),
            inputs: vec![spec, spec],
        };
        assert!(validate(&src, &s).is_err());
    }
}
