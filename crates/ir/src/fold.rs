//! Constant folding and algebraic canonicalization.
//!
//! Plaintext-only subgraphs can be evaluated at compile time (their values
//! are public), and a handful of algebraic identities remove ops before
//! scale management sees them. Both run inside [`passes::cleanup`]
//! (EVA/Hecate-style pre-optimization).
//!
//! [`passes::cleanup`]: crate::passes::cleanup

use crate::op::{ConstValue, Op, ValueId};
use crate::program::{Program, ProgramEditor};
use crate::semantics::{self, rotation_class};

fn as_const(program: &Program, id: ValueId) -> Option<&ConstValue> {
    match program.op(id) {
        Op::Const { value } => Some(value),
        _ => None,
    }
}

fn is_scalar(program: &Program, id: ValueId, v: f64) -> bool {
    matches!(as_const(program, id), Some(ConstValue::Scalar(s)) if *s == v)
}

/// A constant as a kernel operand: one slot for a scalar, which the
/// [`semantics`] kernels read in every slot.
fn const_slots(value: &ConstValue, slots: usize) -> Vec<f64> {
    match value {
        ConstValue::Scalar(v) => vec![*v],
        ConstValue::Vector(_) => value.to_vec(slots),
    }
}

/// Evaluates plaintext-only arithmetic at compile time with the [`semantics`]
/// kernels, replacing it with `const` ops: scalar operands only give a
/// scalar, anything else a vector. Returns the rewritten program and
/// whether anything changed.
pub fn fold_constants(program: &Program) -> (Program, bool) {
    let slots = program.slots();
    let mut ed = ProgramEditor::new(program);
    let mut changed = false;
    for id in program.ids() {
        ed.emit(id);
        // Only fold plain arithmetic whose operands are (source) constants;
        // one layer folds per pass, and `cleanup` iterates to a fixpoint.
        let op = program.op(id);
        if !program.is_plain(id) || op.is_scale_management() {
            continue;
        }
        let Some(args) = op
            .operands()
            .map(|o| as_const(program, o).map(|c| (o, const_slots(c, slots))))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        let operand = |o: ValueId| {
            let (_, v) = args
                .iter()
                .find(|(a, _)| *a == o)
                .expect("a folded operand");
            v.as_slice()
        };
        let Some(result) = semantics::eval(op, operand) else {
            continue;
        };
        let value = if op
            .operands()
            .all(|o| matches!(as_const(program, o), Some(ConstValue::Scalar(_))))
        {
            ConstValue::Scalar(result[0])
        } else {
            ConstValue::from(result)
        };
        let c = ed.push(Op::Const { value });
        ed.set_mapping(id, c);
        changed = true;
    }
    (ed.finish(), changed)
}

/// Applies algebraic identities:
///
/// - `−(−x) → x`, `rotate(rotate(x, a), b) → rotate(x, a+b)`, and
///   `rotate(x, k) → x` when [`rotation_class`] says `k` is the identity
/// - `x + 0 → x`, `x − 0 → x`, `x · 1 → x`
/// - `x · 0 → 0` and `x − x → 0` (the result becomes a public constant)
pub fn canonicalize(program: &Program) -> (Program, bool) {
    let slots = program.slots();
    let mut ed = ProgramEditor::new(program);
    let mut changed = false;
    for id in program.ids() {
        let replacement: Option<ValueId> = match program.op(id).clone() {
            Op::Neg(a) => match program.op(a) {
                Op::Neg(inner) => Some(ed.map_operand(*inner)),
                _ => None,
            },
            Op::Rotate(a, k) if rotation_class(k, slots).is_none() => Some(ed.map_operand(a)),
            Op::Rotate(a, k) => match program.op(a) {
                Op::Rotate(inner, j) => {
                    let base = ed.map_operand(*inner);
                    Some(match rotation_class(k + j, slots) {
                        None => base,
                        Some(class) => ed.push(Op::Rotate(base, class)),
                    })
                }
                _ => None,
            },
            Op::Add(a, b) if is_scalar(program, b, 0.0) => Some(ed.map_operand(a)),
            Op::Add(a, b) if is_scalar(program, a, 0.0) => Some(ed.map_operand(b)),
            Op::Sub(a, b) if is_scalar(program, b, 0.0) => Some(ed.map_operand(a)),
            Op::Sub(a, b) if a == b => Some(ed.push(Op::Const {
                value: ConstValue::Scalar(0.0),
            })),
            Op::Mul(a, b) if is_scalar(program, b, 1.0) => Some(ed.map_operand(a)),
            Op::Mul(a, b) if is_scalar(program, a, 1.0) => Some(ed.map_operand(b)),
            Op::Mul(a, b) if is_scalar(program, b, 0.0) || is_scalar(program, a, 0.0) => {
                Some(ed.push(Op::Const {
                    value: ConstValue::Scalar(0.0),
                }))
            }
            _ => None,
        };
        match replacement {
            Some(new) => {
                ed.set_mapping(id, new);
                changed = true;
            }
            None => {
                ed.emit(id);
            }
        }
    }
    (ed.finish(), changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    #[test]
    fn folds_plain_subgraph() {
        let b = Builder::new("f", 4);
        let x = b.input("x");
        let k = (b.constant(2.0) + b.constant(3.0)) * b.constant(vec![1.0, 2.0, 3.0, 4.0]);
        let out = x * k;
        let p = b.finish(vec![out]);
        // Folding works one layer per pass; iterate to a fixpoint.
        let (folded, changed) = fold_constants(&p);
        assert!(changed);
        assert!(
            folded
                .ids()
                .any(|id| as_const(&folded, id) == Some(&ConstValue::Scalar(5.0))),
            "scalar ∘ scalar stays a scalar"
        );
        let (folded, _) = fold_constants(&folded);
        // After DCE only: input, one const, one mul remain.
        let (cleaned, _) = crate::passes::dce(&folded);
        assert_eq!(cleaned.num_ops(), 3);
        let c = cleaned
            .ids()
            .find_map(|id| as_const(&cleaned, id))
            .expect("folded const");
        assert_eq!(c.at(1), 10.0);
    }

    #[test]
    fn folds_rotation_of_constant() {
        let b = Builder::new("f", 4);
        let x = b.input("x");
        let k = b.constant(vec![1.0, 2.0, 3.0, 4.0]).rotate(1);
        let out = x + k;
        let p = b.finish(vec![out]);
        let (folded, changed) = fold_constants(&p);
        assert!(changed);
        let (cleaned, _) = crate::passes::dce(&folded);
        let c = cleaned
            .ids()
            .find_map(|id| as_const(&cleaned, id))
            .expect("folded const");
        assert_eq!(c.to_vec(4), vec![2.0, 3.0, 4.0, 1.0]);

        // A rotated scalar is the same scalar, so `x · rotate(0, k)` then
        // canonicalizes to the public zero.
        let b = Builder::new("f", 4);
        let e = b.input("x") * b.constant(0.0).rotate(1);
        let p = b.finish(vec![e]);
        let cleaned = crate::passes::cleanup(&p);
        assert_eq!(cleaned.num_ops(), 1);
        assert_eq!(
            as_const(&cleaned, cleaned.outputs()[0]),
            Some(&ConstValue::Scalar(0.0))
        );
    }

    #[test]
    fn neg_neg_and_rotate_chains_cancel() {
        let b = Builder::new("c", 8);
        let x = b.input("x");
        let e = -(-(x.clone().rotate(3).rotate(5)));
        let p = b.finish(vec![e]);
        let (canon, changed) = canonicalize(&p);
        assert!(changed);
        let (canon, _) = crate::passes::dce(&canon);
        // input + one rotate(8 % 8 = 0)? 3+5=8 ≡ 0 mod slots ⇒ just input.
        assert_eq!(canon.num_ops(), 1);

        // A whole turn either way is the identity, alone or in a chain.
        for steps in [8, -8, 16] {
            let b = Builder::new("c", 8);
            let x = b.input("x");
            let p = b.finish(vec![x.clone().rotate(steps), x.rotate(1).rotate(steps)]);
            let cleaned = crate::passes::cleanup(&p);
            assert_eq!(cleaned.outputs()[0], ValueId(0), "rotate(x, {steps})");
            assert_eq!(
                cleaned.op(cleaned.outputs()[1]),
                &Op::Rotate(ValueId(0), 1),
                "rotate(rotate(x, 1), {steps})"
            );
        }
    }

    #[test]
    fn identity_operands_eliminated() {
        let b = Builder::new("c", 4);
        let x = b.input("x");
        let one = b.constant(1.0);
        let zero = b.constant(0.0);
        let e = (x.clone() * one + zero.clone()) - zero;
        let p = b.finish(vec![e]);
        let (canon, changed) = canonicalize(&p);
        assert!(changed);
        let (canon, _) = crate::passes::dce(&canon);
        assert_eq!(canon.num_ops(), 1, "everything folds away to the input");
    }

    #[test]
    fn sub_self_becomes_zero_constant() {
        let b = Builder::new("c", 4);
        let x = b.input("x");
        let z = x.clone() - x.clone();
        let out = x + z;
        let p = b.finish(vec![out]);
        let (canon, _) = canonicalize(&p);
        // A second canonicalize round folds x + 0 away too.
        let (canon, _) = canonicalize(&canon);
        let (canon, _) = crate::passes::dce(&canon);
        assert_eq!(canon.num_ops(), 1);
    }

    #[test]
    fn semantics_preserved_under_cleanup() {
        // cleanup() (which now includes folding) must not change values.
        let b = Builder::new("s", 4);
        let x = b.input("x");
        let k = b.constant(2.0) * b.constant(vec![1.0, -1.0, 0.5, 0.0]);
        let e = (x.clone() + b.constant(0.0)) * k - (x.clone() - x.clone());
        let p = b.finish(vec![e]);
        let cleaned = crate::passes::cleanup(&p);
        assert!(cleaned.num_ops() < p.num_ops());
        // Spot-check structural result: exactly one cipher mul remains.
        assert_eq!(cleaned.count_ops(|o| matches!(o, Op::Mul(..))), 1);
    }
}
