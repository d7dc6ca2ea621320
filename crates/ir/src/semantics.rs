//! Slot semantics: what each op does to a vector of `f64` slot values.
//!
//! This is the one definition. The runtime's clear-value interpreter
//! (`fhe_runtime::plain`) calls [`eval`] for every op with operands, so
//! plain execution, the noise simulator and the encrypted executor's plain
//! sub-values all read it; constant folding in [`cleanup`] calls it on
//! compile-time constants.
//!
//! The kernels are loops over slices. A one-slot operand of a binary kernel
//! stands for the same value in every slot, so a scalar constant folds
//! without being materialized and scalar ∘ scalar stays one slot.
//!
//! [`rotation_class`] is the one rule for which rotations are the identity:
//! [`cleanup`] drops them, hoisting groups skip them, and no Galois key is
//! drawn for them.
//!
//! [`cleanup`]: crate::passes::cleanup

use crate::op::{Op, ValueId};

/// The class of a rotation by `steps` over `slots` slots: the step reduced
/// into `1..slots`, or `None` when `steps` is a multiple of `slots` — the
/// identity, which moves no slot and needs no key. All rotations of one
/// class share one Galois element, hence one key.
pub fn rotation_class(steps: i64, slots: usize) -> Option<i64> {
    let class = steps.rem_euclid(slots as i64);
    (class != 0).then_some(class)
}

/// The slot values of `op`, given each operand's values through `operand`;
/// `None` for [`Op::Input`] and [`Op::Const`], whose values come from a
/// binding and from the constant. Scale management is a value identity.
///
/// This is the only place an [`Op`] is given `f64` slot semantics.
pub fn eval<'a>(op: &Op, operand: impl Fn(ValueId) -> &'a [f64]) -> Option<Vec<f64>> {
    Some(match *op {
        Op::Input { .. } | Op::Const { .. } => return None,
        Op::Add(a, b) => lanes(operand(a), operand(b), |x, y| x + y),
        Op::Sub(a, b) => lanes(operand(a), operand(b), |x, y| x - y),
        Op::Mul(a, b) => lanes(operand(a), operand(b), |x, y| x * y),
        Op::Neg(a) => neg(operand(a)),
        Op::Rotate(a, k) => rotate(operand(a), k),
        // Its own vector, not a share of the operand's: an interpreter hook
        // may perturb it while the operand still has readers.
        Op::Rescale(a) | Op::ModSwitch(a) | Op::Upscale(a, _) => operand(a).to_vec(),
    })
}

/// Slot-wise `−a`.
pub fn neg(a: &[f64]) -> Vec<f64> {
    a.iter().map(|x| -x).collect()
}

/// Cyclic rotation by `steps`: slot `i` of the result is slot
/// `i + steps (mod len)` of `a`, so a positive step moves slot `steps` to
/// slot 0 — the CKKS Galois rotation convention.
fn rotate(a: &[f64], steps: i64) -> Vec<f64> {
    match rotation_class(steps, a.len()) {
        None => a.to_vec(),
        Some(k) => [&a[k as usize..], &a[..k as usize]].concat(),
    }
}

/// The binary kernel: applies `f` slot by slot, reading a one-slot operand
/// in every slot. The one-slot test is made once per call; `f` is inlined
/// into each op's loop.
#[inline]
fn lanes(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    match (a, b) {
        (&[x], _) => b.iter().map(|&y| f(x, y)).collect(),
        (_, &[y]) => a.iter().map(|&x| f(x, y)).collect(),
        _ => {
            debug_assert_eq!(a.len(), b.len(), "operands differ in slot count");
            a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_convention() {
        assert_eq!(rotate(&[1.0, 2.0, 3.0, 4.0], 1), vec![2.0, 3.0, 4.0, 1.0]);
        assert_eq!(rotate(&[1.0, 2.0, 3.0, 4.0], -1), vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!(rotate(&[1.0, 2.0, 3.0, 4.0], 9), vec![2.0, 3.0, 4.0, 1.0]);
        assert_eq!(rotate(&[1.0, 2.0], 0), vec![1.0, 2.0]);
    }

    #[test]
    fn multiples_of_the_slot_count_are_the_identity() {
        assert_eq!(rotation_class(0, 8), None);
        assert_eq!(rotation_class(8, 8), None);
        assert_eq!(rotation_class(-16, 8), None);
        assert_eq!(rotation_class(9, 8), Some(1));
        assert_eq!(rotation_class(-1, 8), Some(7));
    }

    #[test]
    fn eval_covers_every_op_with_operands_and_broadcasts_one_slot() {
        let vals = [vec![1.0, 2.0], vec![3.0, 4.0], vec![10.0], vec![2.0]];
        let get = |v: ValueId| vals[v.index()].as_slice();
        let (x, y, s, t) = (ValueId(0), ValueId(1), ValueId(2), ValueId(3));
        assert_eq!(eval(&Op::Add(x, y), get), Some(vec![4.0, 6.0]));
        assert_eq!(eval(&Op::Sub(y, x), get), Some(vec![2.0, 2.0]));
        assert_eq!(eval(&Op::Mul(x, y), get), Some(vec![3.0, 8.0]));
        assert_eq!(eval(&Op::Sub(s, x), get), Some(vec![9.0, 8.0]));
        assert_eq!(eval(&Op::Mul(y, t), get), Some(vec![6.0, 8.0]));
        assert_eq!(eval(&Op::Add(s, t), get), Some(vec![12.0]));
        assert_eq!(eval(&Op::Neg(x), get), Some(vec![-1.0, -2.0]));
        assert_eq!(eval(&Op::Rotate(y, -1), get), Some(vec![4.0, 3.0]));
        assert_eq!(eval(&Op::Rotate(s, 3), get), Some(vec![10.0]));
        assert_eq!(eval(&Op::Rescale(x), get), Some(vec![1.0, 2.0]));
        assert_eq!(eval(&Op::Input { name: "x".into() }, get), None);
    }
}
