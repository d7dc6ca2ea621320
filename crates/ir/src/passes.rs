//! The shared cleanup before scale management: algebraic identities,
//! constant folding, common-subexpression and dead-code elimination.
//!
//! Both EVA and Hecate run CSE/DCE as part of compilation (§8.1); every
//! compiler in this workspace applies [`cleanup`] before scale management so
//! that op counts and costs are comparable.

use std::collections::HashMap;
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::Arc;

use crate::analysis::live;
use crate::op::{ConstValue, Op, ValueId};
use crate::program::{Program, ProgramEditor};
use crate::semantics::{self, rotation_class};

/// A hashable structural key for CSE. Floats are keyed by bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OpKey {
    Scalar(u64),
    /// Vector constants are keyed by allocation identity: structurally
    /// equal vectors behind distinct `Arc`s are not merged (hashing
    /// multi-thousand-slot weight vectors would dominate compile time;
    /// missing a merge is only a missed optimization).
    Vector(usize),
    Add(ValueId, ValueId),
    Sub(ValueId, ValueId),
    Mul(ValueId, ValueId),
    Neg(ValueId),
    Rotate(ValueId, i64),
    Rescale(ValueId),
    ModSwitch(ValueId),
    Upscale(ValueId, (i128, i128)),
}

/// The CSE key of `op`, with commutative operands sorted; `None` for
/// inputs, which are never merged.
fn op_key(op: &Op) -> Option<OpKey> {
    Some(match op {
        Op::Input { .. } => return None,
        Op::Const {
            value: ConstValue::Scalar(v),
        } => OpKey::Scalar(v.to_bits()),
        Op::Const {
            value: ConstValue::Vector(v),
        } => OpKey::Vector(Arc::as_ptr(v) as usize),
        Op::Add(a, b) => OpKey::Add(*a.min(b), *a.max(b)),
        Op::Mul(a, b) => OpKey::Mul(*a.min(b), *a.max(b)),
        Op::Sub(a, b) => OpKey::Sub(*a, *b),
        Op::Neg(a) => OpKey::Neg(*a),
        Op::Rotate(a, k) => OpKey::Rotate(*a, *k),
        Op::Rescale(a) => OpKey::Rescale(*a),
        Op::ModSwitch(a) => OpKey::ModSwitch(*a),
        Op::Upscale(a, d) => OpKey::Upscale(*a, (d.numer(), d.denom())),
    })
}

/// Removes ops that cannot reach a program output.
pub fn dce(program: &Program) -> (Program, bool) {
    let live = live(program);
    if live.iter().all(|&l| l) {
        return (program.clone(), false);
    }
    let mut ed = ProgramEditor::new(program);
    for id in program.ids() {
        if live[id.index()] {
            ed.emit(id);
        }
    }
    (ed.finish(), true)
}

/// One forward sweep over the ops in id order, then [`dce`]. Each op's
/// operands are remapped to the cleaned program built so far, and the op
///
/// 1. takes the first identity that matches its cleaned operands:
///    `−(−x) → x`; `rotate(x, k) → x` when [`rotation_class`] calls `k`
///    the identity; `rotate(rotate(x, j), k) → rotate(x, j+k)`; `x + 0`,
///    `0 + x`, `x − 0`, `x · 1`, `1 · x → x`; `x − x`, `x · 0`, `0 · x → 0`;
/// 2. folds, when it is plain arithmetic over constants, into a constant
///    evaluated by the [`semantics`] kernels (a scalar when every operand is
///    a scalar);
/// 3. merges with an identical earlier op.
///
/// Every operand is final when its user is visited (the program is an SSA
/// DAG), so chains collapse in the one sweep and cleaning the result again
/// changes nothing.
///
/// ```
/// use fhe_ir::{Builder, passes};
/// let b = Builder::new("t", 4);
/// let x = b.input("x");
/// let s = (x.clone() * x.clone() + x.clone() * x) * b.constant(1.0);
/// assert_eq!(passes::cleanup(&b.finish(vec![s])).num_ops(), 3); // x, x·x, add
/// ```
pub fn cleanup(program: &Program) -> Program {
    let mut dest = Program::new(program.name(), program.slots());
    let mut map: Vec<ValueId> = Vec::with_capacity(program.num_ops());
    let mut table: HashMap<OpKey, ValueId> = HashMap::new();
    for op in program.ops() {
        let new = match identities(&dest, op.map_operands(|o| map[o.index()])) {
            Break(existing) => existing,
            Continue(op) => {
                let op = fold(&dest, op);
                match op_key(&op) {
                    Some(key) => *table.entry(key).or_insert_with(|| dest.push(op)),
                    None => dest.push(op),
                }
            }
        };
        map.push(new);
    }
    dest.set_outputs(program.outputs().iter().map(|o| map[o.index()]).collect());
    dce(&dest).0
}

/// Step 1 of [`cleanup`]: `Break` with the value `op` equals, or `Continue`
/// with the op (possibly rewritten) to fold and intern.
fn identities(dest: &Program, op: Op) -> ControlFlow<ValueId, Op> {
    let scalar = |id: ValueId, v: f64| match dest.op(id) {
        Op::Const {
            value: ConstValue::Scalar(s),
        } => *s == v,
        _ => false,
    };
    let zero = Op::Const {
        value: ConstValue::Scalar(0.0),
    };
    match op {
        Op::Neg(a) => match *dest.op(a) {
            Op::Neg(x) => Break(x),
            _ => Continue(op),
        },
        Op::Rotate(a, k) if rotation_class(k, dest.slots()).is_none() => Break(a),
        // A rotate in the cleaned program never has a rotate operand, so one
        // merge is final.
        Op::Rotate(a, k) => match *dest.op(a) {
            Op::Rotate(x, j) => match rotation_class(j + k, dest.slots()) {
                None => Break(x),
                Some(class) => Continue(Op::Rotate(x, class)),
            },
            _ => Continue(op),
        },
        Op::Add(a, b) if scalar(b, 0.0) => Break(a),
        Op::Add(a, b) if scalar(a, 0.0) => Break(b),
        Op::Sub(a, b) if scalar(b, 0.0) => Break(a),
        Op::Sub(a, b) if a == b => Continue(zero),
        Op::Mul(a, b) if scalar(b, 1.0) => Break(a),
        Op::Mul(a, b) if scalar(a, 1.0) => Break(b),
        Op::Mul(a, b) if scalar(b, 0.0) || scalar(a, 0.0) => Continue(zero),
        _ => Continue(op),
    }
}

/// Step 2 of [`cleanup`]: `op` as a constant when it is plain arithmetic
/// over constants of `dest`, else `op` itself.
fn fold(dest: &Program, op: Op) -> Op {
    if op.is_scale_management() {
        return op;
    }
    let consts: Option<Vec<&ConstValue>> = op
        .operands()
        .map(|o| match dest.op(o) {
            Op::Const { value } => Some(value),
            _ => None,
        })
        .collect();
    let Some(consts) = consts else {
        return op;
    };
    // A scalar is one slot, which the kernels read in every slot.
    let args: Vec<Vec<f64>> = consts
        .iter()
        .map(|c| match c {
            ConstValue::Scalar(v) => vec![*v],
            vector => vector.to_vec(dest.slots()),
        })
        .collect();
    let operand = |o| args[op.operands().position(|a| a == o).expect("an operand")].as_slice();
    // `None` for inputs and constants, which have no operands to fold.
    let Some(result) = semantics::eval(&op, operand) else {
        return op;
    };
    Op::Const {
        value: if consts.iter().all(|c| matches!(c, ConstValue::Scalar(_))) {
            ConstValue::Scalar(result[0])
        } else {
            ConstValue::from(result)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    fn as_const(program: &Program, id: ValueId) -> Option<&ConstValue> {
        match program.op(id) {
            Op::Const { value } => Some(value),
            _ => None,
        }
    }

    #[test]
    fn folds_plain_subgraph() {
        let b = Builder::new("f", 4);
        let x = b.input("x");
        let k = (b.constant(2.0) + b.constant(3.0)) * b.constant(vec![1.0, 2.0, 3.0, 4.0]);
        let p = b.finish(vec![x * k]);
        // Input, one const, one mul remain.
        let cleaned = cleanup(&p);
        assert_eq!(cleaned.num_ops(), 3);
        let c = cleaned
            .ids()
            .find_map(|id| as_const(&cleaned, id))
            .expect("folded const");
        assert_eq!(c.at(1), 10.0);

        let b = Builder::new("f", 4);
        let x = b.input("x");
        let k = b.constant(2.0) + b.constant(3.0);
        let p = b.finish(vec![x * k]);
        let cleaned = cleanup(&p);
        assert!(
            cleaned
                .ids()
                .any(|id| as_const(&cleaned, id) == Some(&ConstValue::Scalar(5.0))),
            "scalar ∘ scalar stays a scalar"
        );
    }

    #[test]
    fn folds_rotation_of_constant() {
        let b = Builder::new("f", 4);
        let x = b.input("x");
        let k = b.constant(vec![1.0, 2.0, 3.0, 4.0]).rotate(1);
        let p = b.finish(vec![x + k]);
        let cleaned = cleanup(&p);
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
        let cleaned = cleanup(&p);
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
        // 3 + 5 = 8 ≡ 0 mod slots ⇒ just the input.
        assert_eq!(cleanup(&p).num_ops(), 1);

        // A whole turn either way is the identity, alone or in a chain.
        for steps in [8, -8, 16] {
            let b = Builder::new("c", 8);
            let x = b.input("x");
            let p = b.finish(vec![x.clone().rotate(steps), x.rotate(1).rotate(steps)]);
            let cleaned = cleanup(&p);
            assert_eq!(cleaned.outputs()[0], ValueId(0), "rotate(x, {steps})");
            assert_eq!(
                cleaned.op(cleaned.outputs()[1]),
                &Op::Rotate(ValueId(0), 1),
                "rotate(rotate(x, 1), {steps})"
            );
        }

        // A longer chain merges into one rotate by the reduced sum.
        let b = Builder::new("c", 8);
        let x = b.input("x");
        let p = b.finish(vec![x.rotate(3).rotate(3).rotate(3)]);
        let cleaned = cleanup(&p);
        assert_eq!(cleaned.num_ops(), 2);
        assert_eq!(cleaned.op(cleaned.outputs()[0]), &Op::Rotate(ValueId(0), 1));
    }

    #[test]
    fn identity_operands_eliminated() {
        let b = Builder::new("c", 4);
        let x = b.input("x");
        let one = b.constant(1.0);
        let zero = b.constant(0.0);
        let e = (x.clone() * one + zero.clone()) - zero;
        let p = b.finish(vec![e]);
        assert_eq!(
            cleanup(&p).num_ops(),
            1,
            "everything folds away to the input"
        );
    }

    #[test]
    fn sub_self_becomes_zero_constant() {
        let b = Builder::new("c", 4);
        let x = b.input("x");
        let z = x.clone() - x.clone();
        let p = b.finish(vec![x + z]);
        // x − x → 0, then x + 0 → x in the same sweep.
        assert_eq!(cleanup(&p).num_ops(), 1);
    }

    #[test]
    fn semantics_preserved_under_cleanup() {
        let b = Builder::new("s", 4);
        let x = b.input("x");
        let k = b.constant(2.0) * b.constant(vec![1.0, -1.0, 0.5, 0.0]);
        let e = (x.clone() + b.constant(0.0)) * k - (x.clone() - x.clone());
        let p = b.finish(vec![e]);
        let cleaned = cleanup(&p);
        assert!(cleaned.num_ops() < p.num_ops());
        // Spot-check structural result: exactly one cipher mul remains.
        assert_eq!(cleaned.count_ops(|o| matches!(o, Op::Mul(..))), 1);
    }

    #[test]
    fn cse_merges_commutative_muls() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let y = b.input("y");
        let a = x.clone() * y.clone();
        let c = y * x; // same product, swapped operands
        let p = b.finish(vec![a + c]);
        assert_eq!(cleanup(&p).count_ops(|o| matches!(o, Op::Mul(..))), 1);
    }

    #[test]
    fn cse_does_not_merge_sub_operand_orders() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let y = b.input("y");
        let a = x.clone() - y.clone();
        let c = y - x;
        let p = b.finish(vec![a * c]);
        assert_eq!(cleanup(&p).count_ops(|o| matches!(o, Op::Sub(..))), 2);
    }

    #[test]
    fn cse_merges_identical_constants_only() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let c1 = b.constant(2.0);
        let c2 = b.constant(2.0);
        let c3 = b.constant(3.0);
        let e = (x.clone() * c1) + (x.clone() * c2) + (x * c3);
        let p = b.finish(vec![e]);
        let out = cleanup(&p);
        assert_eq!(out.count_ops(|o| matches!(o, Op::Const { .. })), 2);
        // The two x·2 products also merged.
        assert_eq!(out.count_ops(|o| matches!(o, Op::Mul(..))), 2);
    }

    #[test]
    fn cse_never_merges_inputs() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let y = b.input("x"); // same name, still distinct ciphertexts
        let p = b.finish(vec![x + y]);
        let out = cleanup(&p);
        assert_eq!(out.num_ops(), 3);
        assert_eq!(out.inputs().len(), 2);
    }

    #[test]
    fn dce_drops_dead_rotate() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let dead = x.clone().rotate(3);
        drop(dead);
        let out_expr = x.clone() * x;
        let p = b.finish(vec![out_expr]);
        assert_eq!(p.num_ops(), 3);
        let (out, changed) = dce(&p);
        assert!(changed);
        assert_eq!(out.num_ops(), 2);
    }

    #[test]
    fn dce_keeps_inputs_even_if_dead() {
        // Dead *non-input* ops go away; unused inputs are part of the
        // program signature... but our DCE is value-based, so an unused
        // input is dropped too. Verify current (documented) behaviour.
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let _unused = b.input("y");
        let p = b.finish(vec![x]);
        let (out, changed) = dce(&p);
        assert!(changed);
        assert_eq!(out.inputs().len(), 1);
    }

    #[test]
    fn cleanup_reaches_fixpoint() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let a = x.clone() * x.clone();
        let c = x.clone() * x.clone();
        let s = a + c;
        let p = b.finish(vec![s]);
        let out = cleanup(&p);
        // x, x·x, add
        assert_eq!(out.num_ops(), 3);
        let again = cleanup(&out);
        assert_eq!(again.num_ops(), 3);
    }
}
