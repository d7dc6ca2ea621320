//! Operations of the RNS-CKKS arithmetic IR.

use std::fmt;
use std::sync::Arc;

use crate::Frac;

/// Identifier of an SSA value (each op defines exactly one value).
///
/// Within a [`Program`](crate::Program), ids are dense indices assigned in
/// topological order: every operand id is smaller than the id of its user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The dense index of this value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A compile-time plaintext constant: either a scalar splatted across all
/// slots or a full vector of slot values.
#[derive(Debug, Clone)]
pub enum ConstValue {
    /// The same real value in every slot.
    Scalar(f64),
    /// One value per slot (shorter vectors are zero-padded at execution).
    Vector(Arc<SlotVector>),
}

/// The slot values of a vector constant, with their range folded once, when
/// the constant is made: a per-compile analysis reads the range instead of
/// every slot. Dereferences to the values.
pub struct SlotVector {
    values: Vec<f64>,
    range: (f64, f64),
}

impl SlotVector {
    /// Takes `values` and folds their range.
    pub fn new(values: Vec<f64>) -> Self {
        SlotVector {
            range: range(&values),
            values,
        }
    }

    /// `(min, max)` over the values, folded from the first in slot order;
    /// `(∞, −∞)` for no values.
    pub fn range(&self) -> (f64, f64) {
        self.range
    }
}

/// `(min, max)` of `values` as `f64::min` / `f64::max` fold them from the
/// first value in slot order; `(∞, −∞)` for none.
///
/// Eight interleaved folds give the same bits faster: `min` and `max` return
/// one of their operands and skip NaNs, so the order only shows in which
/// zero a zero bound is, or which NaN an all-NaN vector gives — and such a
/// vector is folded again in order.
fn range(values: &[f64]) -> (f64, f64) {
    let Some(&first) = values.first() else {
        return (f64::INFINITY, f64::NEG_INFINITY);
    };
    let fold = |(lo, hi): (f64, f64), &x: &f64| (lo.min(x), hi.max(x));
    let mut lanes = [(first, first); 8];
    let mut chunks = values.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, x) in lanes.iter_mut().zip(chunk) {
            *lane = fold(*lane, x);
        }
    }
    let (lo, hi) = (lanes.iter()).fold(lanes[0], |acc, &(lo, hi)| (acc.0.min(lo), acc.1.max(hi)));
    let (lo, hi) = chunks.remainder().iter().fold((lo, hi), fold);
    if lo == 0.0 || hi == 0.0 || lo.is_nan() {
        values.iter().fold((first, first), fold)
    } else {
        (lo, hi)
    }
}

impl std::ops::Deref for SlotVector {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.values
    }
}

impl fmt::Debug for SlotVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.values.fmt(f)
    }
}

impl ConstValue {
    /// The value at `slot`, honouring scalar splatting and zero padding.
    pub fn at(&self, slot: usize) -> f64 {
        match self {
            ConstValue::Scalar(v) => *v,
            ConstValue::Vector(v) => v.get(slot).copied().unwrap_or(0.0),
        }
    }

    /// Materializes the constant as a dense vector of `slots` values.
    pub fn to_vec(&self, slots: usize) -> Vec<f64> {
        (0..slots).map(|i| self.at(i)).collect()
    }
}

impl PartialEq for ConstValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ConstValue::Scalar(a), ConstValue::Scalar(b)) => a.to_bits() == b.to_bits(),
            // One allocation holds one set of bits: every constant a cleanup
            // did not fold shares its source's `Arc`.
            (ConstValue::Vector(a), ConstValue::Vector(b)) => {
                Arc::ptr_eq(a, b)
                    || (a.len() == b.len()
                        && a.iter()
                            .zip(b.iter())
                            .all(|(x, y)| x.to_bits() == y.to_bits()))
            }
            _ => false,
        }
    }
}

impl From<f64> for ConstValue {
    fn from(v: f64) -> Self {
        ConstValue::Scalar(v)
    }
}

impl From<Vec<f64>> for ConstValue {
    fn from(v: Vec<f64>) -> Self {
        ConstValue::Vector(Arc::new(SlotVector::new(v)))
    }
}

/// One IR operation. Arithmetic ops come from the programmer; scale
/// management ops ([`Rescale`](Op::Rescale), [`ModSwitch`](Op::ModSwitch),
/// [`Upscale`](Op::Upscale)) are inserted by a compiler (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A ciphertext input with a user-facing name.
    Input {
        /// Name used for binding runtime input data.
        name: String,
    },
    /// A plaintext constant (encoded, never encrypted).
    Const {
        /// The constant slot data.
        value: ConstValue,
    },
    /// Elementwise addition. Cipher+cipher requires equal scale and level.
    Add(ValueId, ValueId),
    /// Elementwise subtraction (same constraints as addition).
    Sub(ValueId, ValueId),
    /// Elementwise multiplication. Cipher×cipher requires equal level and
    /// multiplies scales.
    Mul(ValueId, ValueId),
    /// Elementwise negation.
    Neg(ValueId),
    /// Cyclic slot rotation by the given (possibly negative) offset.
    Rotate(ValueId, i64),
    /// Divides scale and modulus by `R`; decreases level by 1.
    Rescale(ValueId),
    /// Drops one modulus limb without changing the scale; level −1.
    ModSwitch(ValueId),
    /// Multiplies by an encoded identity, raising the scale by the given
    /// number of bits without changing the level.
    Upscale(ValueId, Frac),
}

impl Op {
    /// The operands of this op, in order (empty for `Input`/`Const`).
    pub fn operands(&self) -> OperandIter {
        let (a, b) = match *self {
            Op::Input { .. } | Op::Const { .. } => (None, None),
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => (Some(a), Some(b)),
            Op::Neg(a)
            | Op::Rotate(a, _)
            | Op::Rescale(a)
            | Op::ModSwitch(a)
            | Op::Upscale(a, _) => (Some(a), None),
        };
        OperandIter { a, b }
    }

    /// Rewrites each operand through `f`, returning the rewritten op.
    pub fn map_operands(&self, mut f: impl FnMut(ValueId) -> ValueId) -> Op {
        match *self {
            Op::Input { .. } | Op::Const { .. } => self.clone(),
            Op::Add(a, b) => Op::Add(f(a), f(b)),
            Op::Sub(a, b) => Op::Sub(f(a), f(b)),
            Op::Mul(a, b) => Op::Mul(f(a), f(b)),
            Op::Neg(a) => Op::Neg(f(a)),
            Op::Rotate(a, k) => Op::Rotate(f(a), k),
            Op::Rescale(a) => Op::Rescale(f(a)),
            Op::ModSwitch(a) => Op::ModSwitch(f(a)),
            Op::Upscale(a, d) => Op::Upscale(f(a), d),
        }
    }

    /// Whether this is one of the three scale-management operations.
    pub fn is_scale_management(&self) -> bool {
        matches!(self, Op::Rescale(_) | Op::ModSwitch(_) | Op::Upscale(..))
    }

    /// A short lowercase mnemonic (used by the printer and diagnostics).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Const { .. } => "const",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Neg(_) => "neg",
            Op::Rotate(..) => "rotate",
            Op::Rescale(_) => "rescale",
            Op::ModSwitch(_) => "modswitch",
            Op::Upscale(..) => "upscale",
        }
    }
}

/// Iterator over an op's operands. Created by [`Op::operands`].
#[derive(Debug, Clone)]
pub struct OperandIter {
    a: Option<ValueId>,
    b: Option<ValueId>,
}

impl Iterator for OperandIter {
    type Item = ValueId;
    fn next(&mut self) -> Option<ValueId> {
        self.a.take().or_else(|| self.b.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_iterate_in_order() {
        let op = Op::Add(ValueId(3), ValueId(7));
        let v: Vec<_> = op.operands().collect();
        assert_eq!(v, vec![ValueId(3), ValueId(7)]);
        assert_eq!(Op::Input { name: "x".into() }.operands().count(), 0);
        assert_eq!(Op::Neg(ValueId(1)).operands().count(), 1);
    }

    #[test]
    fn map_operands_rewrites() {
        let op = Op::Mul(ValueId(1), ValueId(2));
        let mapped = op.map_operands(|v| ValueId(v.0 + 10));
        assert_eq!(mapped, Op::Mul(ValueId(11), ValueId(12)));
        let rot = Op::Rotate(ValueId(0), -3).map_operands(|v| ValueId(v.0 + 1));
        assert_eq!(rot, Op::Rotate(ValueId(1), -3));
    }

    #[test]
    fn classification() {
        assert!(Op::Rescale(ValueId(0)).is_scale_management());
    }

    #[test]
    fn const_value_access() {
        let s = ConstValue::Scalar(2.5);
        assert_eq!(s.at(0), 2.5);
        assert_eq!(s.at(100), 2.5);
        let v = ConstValue::from(vec![1.0, 2.0]);
        assert_eq!(v.at(1), 2.0);
        assert_eq!(v.at(2), 0.0);
        assert_eq!(v.to_vec(3), vec![1.0, 2.0, 0.0]);
    }

    #[test]
    fn vector_constants_are_equal_exactly_when_their_bits_are() {
        let v = ConstValue::from(vec![1.0, -2.5, 3.0]);
        assert_eq!(v, v.clone(), "one shared allocation");
        let twin = ConstValue::from(vec![1.0, -2.5, 3.0]);
        assert_eq!(v, twin, "two allocations, the same bits");
        assert_ne!(v, ConstValue::from(vec![1.0, -2.5, 3.5]), "last value");
        assert_ne!(v, ConstValue::from(vec![1.0, -2.5]), "length");
        assert_ne!(v, ConstValue::from(vec![1.0, -2.5, 3.0, 0.0]), "padding");
        assert_ne!(
            ConstValue::from(vec![-0.0]),
            ConstValue::from(vec![0.0]),
            "-0.0 and 0.0 differ in their bits"
        );
        assert_ne!(v, ConstValue::Scalar(1.0));
    }

    #[test]
    fn a_vector_records_its_range_when_it_is_made() {
        let range = |v: Vec<f64>| SlotVector::new(v).range();
        // Long enough for the eight interleaved folds and a remainder.
        let ramp: Vec<f64> = (0..21).map(|i| f64::from(i) - 7.5).collect();
        assert_eq!(range(ramp), (-7.5, 12.5));
        assert_eq!(range(vec![-3.0, -1.0, -2.0]), (-3.0, -1.0));
        assert_eq!(range(vec![4.0]), (4.0, 4.0));
        assert_eq!(
            range(vec![f64::NAN, 2.0, -1.0]),
            (-1.0, 2.0),
            "NaNs are skipped"
        );
        let (lo, hi) = range(vec![]);
        assert!(lo == f64::INFINITY && hi == f64::NEG_INFINITY);
    }
}
