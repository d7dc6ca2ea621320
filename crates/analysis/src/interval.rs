//! Slot-magnitude intervals: one `[lo, hi]` per SSA value covering every
//! slot of that value.
//!
//! Soundness relies on IEEE-754 rounding being *monotone*: if every slot of
//! `a` lies in `[a.lo, a.hi]` and every slot of `b` in `[b.lo, b.hi]`, then
//! the rounded result `fl(a ∘ b)` computed by the plain executor is bounded
//! by the rounded endpoint combinations computed here — so the interval of
//! every value *dominates* every concrete slot the executor can produce
//! (the fuzz oracle asserts exactly this on every encrypted run).
//!
//! Scale-management ops are message-transparent (they change the ciphertext
//! representation, not the encoded message), so they are identities in this
//! domain; `rotate` permutes slots and is likewise magnitude-preserving.

use std::collections::HashMap;

use fhe_ir::{ConstValue, Op, ValueId};

use crate::domain::{AbstractDomain, AnalysisCx};

/// A closed interval `[lo, hi]` bounding every slot of a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Interval {
    /// The interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (NaN bounds are rejected by the same check).
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The symmetric interval `[-m, m]`.
    pub fn symmetric(m: f64) -> Self {
        Interval::new(-m.abs(), m.abs())
    }

    /// The magnitude bound `max(|lo|, |hi|)` — the `m` of `m·x_max < Q`.
    pub fn magnitude(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Interval addition.
    pub fn add(&self, o: &Interval) -> Interval {
        Interval {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
        }
    }

    /// Interval subtraction. Note `x − x` over `[a, b]` yields
    /// `[a − b, b − a]`, *not* `[0, 0]`: the domain is non-relational, so
    /// syntactic cancellation must stay conservative.
    pub fn sub(&self, o: &Interval) -> Interval {
        Interval {
            lo: self.lo - o.hi,
            hi: self.hi - o.lo,
        }
    }

    /// Interval negation.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// Interval multiplication (max/min over the four endpoint products).
    pub fn mul(&self, o: &Interval) -> Interval {
        let p = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        Interval {
            lo: p.iter().copied().fold(f64::INFINITY, f64::min),
            hi: p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// The interval of a plaintext constant in a program with `slots`
    /// slots. Vectors shorter than the slot count are zero-padded at
    /// execution, so the hull includes `0` for them.
    ///
    /// The result is the fold of [`Interval::hull`] over the slots in order,
    /// from the first slot or, for a padded vector, from `0`. A vector's
    /// stored [`SlotVector::range`](fhe_ir::SlotVector::range) is that fold
    /// for a vector of exactly `slots` values, and gives the padded fold by
    /// one more hull unless a bound is zero: only then can the sign of the
    /// zero depend on where the fold starts, so the slots are folded again.
    pub fn of_const(value: &ConstValue, slots: usize) -> Interval {
        match value {
            ConstValue::Scalar(v) => Interval::point(*v),
            ConstValue::Vector(v) => {
                let (lo, hi) = v.range();
                let padded = v.is_empty() || v.len() < slots;
                if v.len() == slots && !padded {
                    return Interval { lo, hi };
                }
                if padded && lo != 0.0 && hi != 0.0 {
                    return Interval::point(0.0).hull(&Interval { lo, hi });
                }
                let mut iv = Interval::point(if padded { 0.0 } else { v[0] });
                for &x in v.iter().take(slots) {
                    iv = iv.hull(&Interval::point(x));
                }
                iv
            }
        }
    }
}

/// The interval domain: forward slot-magnitude analysis under assumed input
/// ranges.
#[derive(Debug, Clone)]
pub struct IntervalDomain {
    /// Range assumed for inputs not named in `inputs`. The default is
    /// `[-1, 1]`, matching the normalized inputs of the paper's workloads
    /// and the fuzzer's input generator.
    pub default_input: Interval,
    /// Per-input overrides, keyed by input name.
    pub inputs: HashMap<String, Interval>,
}

impl Default for IntervalDomain {
    fn default() -> Self {
        IntervalDomain {
            default_input: Interval::symmetric(1.0),
            inputs: HashMap::new(),
        }
    }
}

impl IntervalDomain {
    /// A domain assuming every input lies in `[-m, m]`.
    pub fn with_input_magnitude(m: f64) -> Self {
        IntervalDomain {
            default_input: Interval::symmetric(m),
            inputs: HashMap::new(),
        }
    }
}

impl AbstractDomain for IntervalDomain {
    type Value = Interval;

    fn transfer(&self, cx: &AnalysisCx<'_>, id: ValueId, args: &[Interval]) -> Interval {
        match cx.program.op(id) {
            Op::Input { name } => *self.inputs.get(name).unwrap_or(&self.default_input),
            Op::Const { value } => Interval::of_const(value, cx.program.slots()),
            Op::Add(..) => args[0].add(&args[1]),
            Op::Sub(..) => args[0].sub(&args[1]),
            Op::Mul(..) => args[0].mul(&args[1]),
            Op::Neg(_) => args[0].neg(),
            // Rotation permutes slots; the per-value interval already
            // covers all slots. Scale management is message-transparent.
            Op::Rotate(..) | Op::Rescale(_) | Op::ModSwitch(_) | Op::Upscale(..) => args[0],
        }
    }
}

/// The output-reserve bits (Table 1's `⌈log₂(1+m)⌉ + 1`) a program needs
/// under this domain's input assumptions: the interval analogue of the fuzz
/// oracle's measured-magnitude derivation, but a static upper bound.
pub fn required_output_reserve_bits(program: &fhe_ir::Program, domain: &IntervalDomain) -> u32 {
    let intervals = crate::domain::analyze(domain, &AnalysisCx::source(program));
    let live = fhe_ir::analysis::live(program);
    let magnitude = program
        .ids()
        .filter(|id| live[id.index()])
        .map(|id| intervals[id.index()].magnitude())
        .fold(0.0f64, f64::max);
    if !magnitude.is_finite() {
        return u32::MAX;
    }
    (1.0 + magnitude).log2().ceil() as u32 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::analyze;
    use fhe_ir::Builder;

    fn intervals_of(p: &fhe_ir::Program) -> Vec<Interval> {
        analyze(&IntervalDomain::default(), &AnalysisCx::source(p))
    }

    #[test]
    fn negate_flips_asymmetric_interval() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let shifted = x + b.constant(0.75); // [-0.25, 1.75]
        let p = b.finish(vec![-shifted]);
        let iv = intervals_of(&p);
        let out = iv[p.outputs()[0].index()];
        assert_eq!((out.lo, out.hi), (-1.75, 0.25));
    }

    #[test]
    fn mul_by_negative_constant_flips_bounds() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let pos = x * b.constant(0.5) + b.constant(0.5); // [0, 1]
        let out = pos * b.constant(-3.0);
        let p = b.finish(vec![out]);
        let iv = intervals_of(&p);
        let out = iv[p.outputs()[0].index()];
        assert_eq!((out.lo, out.hi), (-3.0, 0.0));
    }

    #[test]
    fn rotate_preserves_magnitude() {
        let b = Builder::new("t", 8);
        let x = b.input("x");
        let scaled = x * b.constant(2.0); // [-2, 2]
        let p = b.finish(vec![scaled.rotate(-3)]);
        let iv = intervals_of(&p);
        let rot = iv[p.outputs()[0].index()];
        assert_eq!((rot.lo, rot.hi), (-2.0, 2.0));
        assert_eq!(rot.magnitude(), 2.0);
    }

    #[test]
    fn x_minus_x_does_not_collapse_to_zero() {
        // The domain is non-relational: x − x over [-1, 1] must stay
        // [-2, 2]. (Cleanup folds syntactic x − x away before compilation,
        // but the analysis must not assume that has happened.)
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let p = b.finish(vec![x.clone() - x]);
        let iv = intervals_of(&p);
        let out = iv[p.outputs()[0].index()];
        assert_eq!((out.lo, out.hi), (-2.0, 2.0));
        assert!(out.magnitude() > 0.0);
    }

    #[test]
    fn short_vector_consts_include_zero_padding() {
        let b = Builder::new("t", 8);
        let c = b.constant(vec![2.0, 3.0]); // slots 2..8 are zero
        let x = b.input("x");
        let p = b.finish(vec![x * c]);
        let iv = intervals_of(&p);
        let cv = iv[0]; // the constant is pushed first
        assert!(matches!(p.op(fhe_ir::ValueId(0)), fhe_ir::Op::Const { .. }));
        assert_eq!((cv.lo, cv.hi), (0.0, 3.0));
    }

    /// `of_const` as it was before vectors recorded their range: the fold
    /// of `hull` over the first `slots` values, from `0` when padded.
    fn folded(value: &ConstValue, slots: usize) -> Interval {
        let ConstValue::Vector(v) = value else {
            unreachable!("vectors only")
        };
        let mut iv = if v.is_empty() || v.len() < slots {
            Interval::point(0.0)
        } else {
            Interval::point(v[0])
        };
        for &x in v.iter().take(slots) {
            iv = iv.hull(&Interval::point(x));
        }
        iv
    }

    #[test]
    fn a_constants_stored_range_is_the_fold_of_its_slots() {
        let bits = |iv: Interval| (iv.lo.to_bits(), iv.hi.to_bits());
        let same = |values: Vec<f64>, slots: usize| {
            let c = ConstValue::from(values);
            assert_eq!(
                bits(Interval::of_const(&c, slots)),
                bits(folded(&c, slots)),
                "{c:?} in {slots} slots"
            );
        };
        // xorshift64: random vectors of every length around the eight lanes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        for len in 1..40 {
            let v: Vec<f64> = (0..len).map(|_| draw()).collect();
            same(v.clone(), len);
            same(v.clone(), 64);
            same(v, len / 2 + 1);
        }
        same(vec![0.5, 1.5], 8); // short, zero-padded
        same(vec![-3.0, -1.0, -2.0, -8.0, -0.5], 5); // all negative
        same(vec![-3.0, -1.0, -2.0], 16); // all negative, padded
        same(vec![0.25], 1); // a single value
        same(vec![0.25], 4);
        same(vec![0.0; 19], 19); // zeros
        same(vec![0.0; 19], 32);
        same(vec![0.0, 1.0, -0.0, 2.0], 8); // a zero bound, padded
        same(vec![], 4);
        // A constant cleanup folded: the sum of two vectors.
        let b = fhe_ir::Builder::new("t", 8);
        let x = b.input("x");
        let sum = b.constant(vec![1.0, -2.0, 3.0]) + b.constant(vec![0.5; 8]);
        let p = fhe_ir::passes::cleanup(&b.finish(vec![x * sum]));
        let folded_const = (p.ops().iter())
            .find_map(|op| match op {
                Op::Const { value } => Some(value.clone()),
                _ => None,
            })
            .expect("the folded constant");
        assert_eq!(folded_const.at(1), -1.5);
        assert_eq!(
            bits(Interval::of_const(&folded_const, 8)),
            bits(folded(&folded_const, 8))
        );
    }

    #[test]
    fn growth_through_a_product_chain() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        let iv = intervals_of(&p);
        let out = iv[p.outputs()[0].index()];
        // |x³| ≤ 1, |y² + y| ≤ 2 ⇒ |q| ≤ 2.
        assert_eq!(out.magnitude(), 2.0);
    }

    #[test]
    fn reserve_derivation_matches_magnitude() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let big = x * b.constant(100.0);
        let p = b.finish(vec![big]);
        // magnitude 100 ⇒ ⌈log₂ 101⌉ + 1 = 8.
        assert_eq!(
            required_output_reserve_bits(&p, &IntervalDomain::default()),
            8
        );
    }
}
