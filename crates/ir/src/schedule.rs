//! Scheduled programs and the RNS-CKKS legality validator.
//!
//! A *scheduled* program is the output of a scale-management compiler: the
//! original arithmetic plus inserted `rescale`/`modswitch`/`upscale` ops and
//! a scale/level assignment for every ciphertext input. From that seed the
//! scale and level of every intermediate value is fully determined by the
//! operation semantics of Table 2; [`ScheduledProgram::validate`] recomputes
//! them and checks every constraint. This validator is the shared
//! correctness oracle for every compiler in the workspace.

use std::fmt;

use crate::op::{Op, ValueId};
use crate::params::CompileParams;
use crate::program::Program;
use crate::Frac;

/// Scale and level a ciphertext input is encrypted at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSpec {
    /// log₂ of the encoding scale.
    pub scale_bits: Frac,
    /// Level (number of modulus limbs) of the fresh ciphertext.
    pub level: u32,
}

/// A compiled program: arithmetic + scale management + input encodings.
#[derive(Debug, Clone)]
pub struct ScheduledProgram {
    /// The rewritten program (contains scale-management ops).
    pub program: Program,
    /// Parameters the program was compiled against.
    pub params: CompileParams,
    /// Per-input scale/level, parallel to `program.inputs()`.
    pub inputs: Vec<InputSpec>,
}

/// Scale/level derived for every ciphertext value of a scheduled program.
#[derive(Debug, Clone)]
pub struct ScaleMap {
    scale_bits: Vec<Option<Frac>>,
    level: Vec<Option<u32>>,
}

impl ScaleMap {
    /// The scale (log₂ bits) of ciphertext value `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a plaintext value.
    pub fn scale_bits(&self, id: ValueId) -> Frac {
        self.scale_bits[id.index()].expect("scale of a plaintext value")
    }

    /// The level of ciphertext value `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a plaintext value.
    pub fn level(&self, id: ValueId) -> u32 {
        self.level[id.index()].expect("level of a plaintext value")
    }

    /// Level if `id` is a ciphertext, else `None`.
    pub fn try_level(&self, id: ValueId) -> Option<u32> {
        self.level[id.index()]
    }

    /// The highest level of any ciphertext value (the modulus level a key
    /// must provide).
    pub fn max_level(&self) -> u32 {
        self.level.iter().flatten().copied().max().unwrap_or(1)
    }
}

/// A violated RNS-CKKS constraint found by [`ScheduledProgram::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// `inputs` length differs from the program's input count.
    InputArity {
        /// Number of program inputs.
        expected: usize,
        /// Number of provided [`InputSpec`]s.
        actual: usize,
    },
    /// Cipher+cipher addition with different operand scales.
    ScaleMismatch {
        /// The offending op.
        op: ValueId,
        /// Scale of the left operand (bits).
        lhs_bits: Frac,
        /// Scale of the right operand (bits).
        rhs_bits: Frac,
    },
    /// Binary cipher op with different operand levels.
    LevelMismatch {
        /// The offending op.
        op: ValueId,
        /// Level of the left operand.
        lhs: u32,
        /// Level of the right operand.
        rhs: u32,
    },
    /// A ciphertext scale exceeded its coefficient modulus (`m > R^l`).
    Overflow {
        /// The offending value.
        op: ValueId,
        /// Its scale in bits.
        scale_bits: Frac,
        /// Its level.
        level: u32,
    },
    /// A ciphertext scale fell below the waterline.
    BelowWaterline {
        /// The offending value.
        op: ValueId,
        /// Its scale in bits.
        scale_bits: Frac,
    },
    /// `rescale`/`modswitch` at level 1 (no limb left to drop).
    LevelUnderflow {
        /// The offending op.
        op: ValueId,
    },
    /// A value needs a level beyond `params.max_level`.
    ExceedsMaxLevel {
        /// The offending value.
        op: ValueId,
        /// The level it requires.
        level: u32,
    },
    /// Scale management applied to a plaintext value.
    ScaleManagementOnPlain {
        /// The offending op.
        op: ValueId,
    },
    /// `upscale` by a non-positive amount.
    NonPositiveUpscale {
        /// The offending op.
        op: ValueId,
    },
    /// A rotation needed a Galois key reaching its level that the runtime
    /// could neither find nor generate (e.g. an explicit key set that omits
    /// a scheduled step, or keys sized for a shallower schedule).
    MissingKey {
        /// The offending rotation op.
        op: ValueId,
        /// The rotation step whose key was unavailable.
        steps: i64,
    },
    /// A cipher × cipher multiply above the level the relinearization key
    /// reaches (keys sized for a shallower schedule).
    MissingRelinKey {
        /// The offending multiply.
        op: ValueId,
        /// Its operands' level.
        level: u32,
    },
    /// An input binding the backend cannot encode: slot `slot` holds a NaN
    /// or an infinity, or lies past the program's slot count. Found by the
    /// encrypted executor before anything is encrypted.
    InvalidInput {
        /// The input's name.
        name: String,
        /// Index of the first offending value.
        slot: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::InputArity { expected, actual } => {
                write!(f, "expected {expected} input specs, got {actual}")
            }
            ScheduleError::ScaleMismatch {
                op,
                lhs_bits,
                rhs_bits,
            } => {
                write!(f, "scale mismatch at {op}: {lhs_bits} vs {rhs_bits} bits")
            }
            ScheduleError::LevelMismatch { op, lhs, rhs } => {
                write!(f, "level mismatch at {op}: {lhs} vs {rhs}")
            }
            ScheduleError::Overflow {
                op,
                scale_bits,
                level,
            } => {
                write!(
                    f,
                    "scale overflow at {op}: {scale_bits} bits exceeds modulus at level {level}"
                )
            }
            ScheduleError::BelowWaterline { op, scale_bits } => {
                write!(f, "scale {scale_bits} bits below waterline at {op}")
            }
            ScheduleError::LevelUnderflow { op } => {
                write!(f, "level underflow (rescale/modswitch at level 1) at {op}")
            }
            ScheduleError::ExceedsMaxLevel { op, level } => {
                write!(f, "value {op} needs level {level} beyond max_level")
            }
            ScheduleError::ScaleManagementOnPlain { op } => {
                write!(f, "scale management op on plaintext value at {op}")
            }
            ScheduleError::NonPositiveUpscale { op } => {
                write!(f, "upscale by a non-positive amount at {op}")
            }
            ScheduleError::MissingKey { op, steps } => {
                write!(f, "missing Galois key for rotation by {steps} at {op}")
            }
            ScheduleError::MissingRelinKey { op, level } => {
                write!(
                    f,
                    "no relinearization key reaches level {level} (cipher × cipher mul at {op})"
                )
            }
            ScheduleError::InvalidInput { name, slot } => {
                write!(
                    f,
                    "input `{name}`: slot {slot} is not finite or lies past the program's slots"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl ScheduledProgram {
    /// Derives scale/level for every ciphertext value and checks every
    /// RNS-CKKS constraint. Returns the derived map, or **all** violations.
    pub fn validate(&self) -> Result<ScaleMap, Vec<ScheduleError>> {
        let p = &self.program;
        let params = &self.params;
        let mut errors = Vec::new();
        let n = p.num_ops();
        let mut map = ScaleMap {
            scale_bits: vec![None; n],
            level: vec![None; n],
        };

        if self.inputs.len() != p.inputs().len() {
            return Err(vec![ScheduleError::InputArity {
                expected: p.inputs().len(),
                actual: self.inputs.len(),
            }]);
        }

        let waterline = params.waterline();
        let rescale = params.rescale();
        let mut input_iter = self.inputs.iter();

        for id in p.ids() {
            if p.is_plain(id) {
                if p.op(id).is_scale_management() {
                    errors.push(ScheduleError::ScaleManagementOnPlain { op: id });
                }
                continue;
            }
            let cipher = |v: ValueId| -> Option<(Frac, u32)> {
                Some((map.scale_bits[v.index()]?, map.level[v.index()]?))
            };
            // Derive (scale, level); None when an operand failed earlier.
            let derived: Option<(Frac, u32)> = match p.op(id) {
                Op::Input { .. } => {
                    let spec = input_iter.next().expect("input count checked above");
                    Some((spec.scale_bits, spec.level))
                }
                Op::Const { .. } => unreachable!("consts are plain"),
                Op::Add(a, b) | Op::Sub(a, b) => match (p.is_cipher(*a), p.is_cipher(*b)) {
                    (true, true) => match (cipher(*a), cipher(*b)) {
                        (Some((sa, la)), Some((sb, lb))) => {
                            if sa != sb {
                                errors.push(ScheduleError::ScaleMismatch {
                                    op: id,
                                    lhs_bits: sa,
                                    rhs_bits: sb,
                                });
                            }
                            if la != lb {
                                errors.push(ScheduleError::LevelMismatch {
                                    op: id,
                                    lhs: la,
                                    rhs: lb,
                                });
                            }
                            Some((sa, la.min(lb)))
                        }
                        _ => None,
                    },
                    (true, false) => cipher(*a),
                    (false, true) => cipher(*b),
                    (false, false) => unreachable!("plain op handled above"),
                },
                Op::Mul(a, b) => match (p.is_cipher(*a), p.is_cipher(*b)) {
                    (true, true) => match (cipher(*a), cipher(*b)) {
                        (Some((sa, la)), Some((sb, lb))) => {
                            if la != lb {
                                errors.push(ScheduleError::LevelMismatch {
                                    op: id,
                                    lhs: la,
                                    rhs: lb,
                                });
                            }
                            Some((sa + sb, la.min(lb)))
                        }
                        _ => None,
                    },
                    // Cipher×plain: the plaintext is encoded at the waterline
                    // (the PMul rule's ρ₂ = l − ω assumption).
                    (true, false) => cipher(*a).map(|(s, l)| (s + waterline, l)),
                    (false, true) => cipher(*b).map(|(s, l)| (s + waterline, l)),
                    (false, false) => unreachable!("plain op handled above"),
                },
                Op::Neg(a) | Op::Rotate(a, _) => cipher(*a),
                Op::Rescale(a) => cipher(*a).and_then(|(s, l)| {
                    if l < 2 {
                        errors.push(ScheduleError::LevelUnderflow { op: id });
                        return None;
                    }
                    Some((s - rescale, l - 1))
                }),
                Op::ModSwitch(a) => cipher(*a).and_then(|(s, l)| {
                    if l < 2 {
                        errors.push(ScheduleError::LevelUnderflow { op: id });
                        return None;
                    }
                    Some((s, l - 1))
                }),
                Op::Upscale(a, delta) => {
                    if *delta <= Frac::ZERO {
                        errors.push(ScheduleError::NonPositiveUpscale { op: id });
                    }
                    cipher(*a).map(|(s, l)| (s + *delta, l))
                }
            };

            if let Some((scale, level)) = derived {
                if scale < waterline {
                    errors.push(ScheduleError::BelowWaterline {
                        op: id,
                        scale_bits: scale,
                    });
                }
                if scale > Frac::from(level) * rescale {
                    errors.push(ScheduleError::Overflow {
                        op: id,
                        scale_bits: scale,
                        level,
                    });
                }
                if level > params.max_level {
                    errors.push(ScheduleError::ExceedsMaxLevel { op: id, level });
                }
                map.scale_bits[id.index()] = Some(scale);
                map.level[id.index()] = Some(level);
            }
        }

        if errors.is_empty() {
            Ok(map)
        } else {
            Err(errors)
        }
    }

    /// Number of scale-management ops the compiler inserted, by kind:
    /// `(rescale, modswitch, upscale)`.
    pub fn scale_management_counts(&self) -> (usize, usize, usize) {
        let p = &self.program;
        (
            p.count_ops(|o| matches!(o, Op::Rescale(_))),
            p.count_ops(|o| matches!(o, Op::ModSwitch(_))),
            p.count_ops(|o| matches!(o, Op::Upscale(..))),
        )
    }
}

/// Incremental FNV-1a (64-bit) over a byte stream: tiny, deterministic
/// across platforms, and dependency-free. Collisions are harmless in the
/// serve compile cache (the full key is compared on lookup); the hash is a
/// cheap fingerprint for bucketing and structural-identity assertions.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn i128(&mut self, v: i128) {
        self.write(&v.to_le_bytes());
    }

    fn frac(&mut self, v: Frac) {
        self.i128(v.numer());
        self.i128(v.denom());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.write(s.as_bytes());
    }
}

impl Program {
    /// A 64-bit content hash of the program *structure*: slot count, op
    /// kinds, operand wiring, rotation steps, upscale deltas, constant bit
    /// patterns, input names, and the output list. The program name is
    /// deliberately ignored — two programs that compute the same DAG hash
    /// equal regardless of what they are called.
    ///
    /// Two programs with equal [`text::print`](crate::text::print) output
    /// hash equal; the converse holds up to FNV collisions.
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.slots() as u64);
        h.u64(self.num_ops() as u64);
        for id in self.ids() {
            match self.op(id) {
                Op::Input { name } => {
                    h.u64(0);
                    h.str(name);
                }
                Op::Const { value } => {
                    h.u64(1);
                    match value {
                        crate::ConstValue::Scalar(v) => {
                            h.u64(0);
                            h.u64(v.to_bits());
                        }
                        crate::ConstValue::Vector(v) => {
                            h.u64(1);
                            h.u64(v.len() as u64);
                            for x in v.iter() {
                                h.u64(x.to_bits());
                            }
                        }
                    }
                }
                Op::Add(a, b) => {
                    h.u64(2);
                    h.u64(a.0 as u64);
                    h.u64(b.0 as u64);
                }
                Op::Sub(a, b) => {
                    h.u64(3);
                    h.u64(a.0 as u64);
                    h.u64(b.0 as u64);
                }
                Op::Mul(a, b) => {
                    h.u64(4);
                    h.u64(a.0 as u64);
                    h.u64(b.0 as u64);
                }
                Op::Neg(a) => {
                    h.u64(5);
                    h.u64(a.0 as u64);
                }
                Op::Rotate(a, k) => {
                    h.u64(6);
                    h.u64(a.0 as u64);
                    h.i128(*k as i128);
                }
                Op::Rescale(a) => {
                    h.u64(7);
                    h.u64(a.0 as u64);
                }
                Op::ModSwitch(a) => {
                    h.u64(8);
                    h.u64(a.0 as u64);
                }
                Op::Upscale(a, d) => {
                    h.u64(9);
                    h.u64(a.0 as u64);
                    h.frac(*d);
                }
            }
        }
        h.u64(self.outputs().len() as u64);
        for &o in self.outputs() {
            h.u64(o.0 as u64);
        }
        h.0
    }
}

impl ScheduledProgram {
    /// A 64-bit content hash of the *schedule*: the
    /// [structural program hash](Program::structural_hash) combined with the
    /// compile parameters and every input's scale/level assignment. Two
    /// schedules with equal hashes execute identically (up to FNV
    /// collisions); the serve-layer compile cache uses this to assert that
    /// an evicted-and-recompiled entry is structurally identical to the
    /// original.
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.program.structural_hash());
        h.u64(self.params.rescale_bits as u64);
        h.u64(self.params.waterline_bits as u64);
        h.u64(self.params.max_level as u64);
        h.u64(self.params.output_reserve_bits as u64);
        h.u64(self.inputs.len() as u64);
        for spec in &self.inputs {
            h.frac(spec.scale_bits);
            h.u64(spec.level as u64);
        }
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    /// EVA's plan for Fig. 2b: inputs at scale 20, level 2; upscale y by 20;
    /// rescale after the final mul.
    fn fig2b() -> ScheduledProgram {
        let params = CompileParams::new(20);
        let mut p = Program::new("fig2b", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let x2 = p.push(Op::Mul(x, x));
        let x3 = p.push(Op::Mul(x, x2));
        let y2 = p.push(Op::Mul(y, y));
        let yup = p.push(Op::Upscale(y, Frac::from(20)));
        let s = p.push(Op::Add(y2, yup));
        let q = p.push(Op::Mul(x3, s));
        let qr = p.push(Op::Rescale(q));
        p.set_outputs(vec![qr]);
        let spec = InputSpec {
            scale_bits: Frac::from(20),
            level: 2,
        };
        ScheduledProgram {
            program: p,
            params,
            inputs: vec![spec, spec],
        }
    }

    #[test]
    fn eva_plan_for_fig2b_validates() {
        let s = fig2b();
        let map = s.validate().expect("EVA's Fig. 2b plan is legal");
        // q = x³·s has scale 60+40 = 100 at level 2 (Fig. 2b), rescaled to 40.
        let q = ValueId(7);
        assert_eq!(map.scale_bits(q), Frac::from(100));
        assert_eq!(map.level(q), 2);
        let qr = ValueId(8);
        assert_eq!(map.scale_bits(qr), Frac::from(40));
        assert_eq!(map.level(qr), 1);
        assert_eq!(map.max_level(), 2);
        assert_eq!(s.scale_management_counts(), (1, 0, 1));
    }

    #[test]
    fn underscaled_inputs_overflow() {
        let mut s = fig2b();
        // Encrypt at level 1: x³·s needs 100 bits > 60.
        for spec in &mut s.inputs {
            spec.level = 1;
        }
        let errs = s.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::Overflow { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::LevelUnderflow { .. })));
    }

    #[test]
    fn scale_mismatch_detected() {
        let params = CompileParams::new(20);
        let mut p = Program::new("bad", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let a = p.push(Op::Add(x, y));
        p.set_outputs(vec![a]);
        let s = ScheduledProgram {
            program: p,
            params,
            inputs: vec![
                InputSpec {
                    scale_bits: Frac::from(20),
                    level: 1,
                },
                InputSpec {
                    scale_bits: Frac::from(30),
                    level: 1,
                },
            ],
        };
        let errs = s.validate().unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], ScheduleError::ScaleMismatch { .. }));
    }

    #[test]
    fn level_mismatch_detected() {
        let params = CompileParams::new(20);
        let mut p = Program::new("bad", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let m = p.push(Op::Mul(x, y));
        p.set_outputs(vec![m]);
        let s = ScheduledProgram {
            program: p,
            params,
            inputs: vec![
                InputSpec {
                    scale_bits: Frac::from(20),
                    level: 2,
                },
                InputSpec {
                    scale_bits: Frac::from(20),
                    level: 1,
                },
            ],
        };
        let errs = s.validate().unwrap_err();
        assert!(matches!(errs[0], ScheduleError::LevelMismatch { .. }));
    }

    #[test]
    fn waterline_violation_detected() {
        let params = CompileParams::new(20);
        let b = Builder::new("w", 4);
        let x = b.input("x");
        let p = b.finish(vec![x]);
        let s = ScheduledProgram {
            program: p,
            params,
            inputs: vec![InputSpec {
                scale_bits: Frac::from(10),
                level: 1,
            }],
        };
        let errs = s.validate().unwrap_err();
        assert!(matches!(errs[0], ScheduleError::BelowWaterline { .. }));
    }

    #[test]
    fn rescale_below_waterline_detected() {
        let params = CompileParams::new(20);
        let mut p = Program::new("r", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let r = p.push(Op::Rescale(x));
        p.set_outputs(vec![r]);
        // 70 − 60 = 10 < 20.
        let s = ScheduledProgram {
            program: p,
            params,
            inputs: vec![InputSpec {
                scale_bits: Frac::from(70),
                level: 2,
            }],
        };
        let errs = s.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::BelowWaterline { .. })));
    }

    #[test]
    fn cipher_plain_mul_adds_waterline() {
        let params = CompileParams::new(20);
        let b = Builder::new("pm", 4);
        let x = b.input("x");
        let c = b.constant(0.5);
        let m = x * c;
        let p = b.finish(vec![m]);
        let s = ScheduledProgram {
            program: p,
            params,
            inputs: vec![InputSpec {
                scale_bits: Frac::from(20),
                level: 1,
            }],
        };
        let map = s.validate().unwrap();
        assert_eq!(map.scale_bits(ValueId(2)), Frac::from(40));
        assert_eq!(map.level(ValueId(2)), 1);
    }

    #[test]
    fn plain_values_have_no_scale() {
        let params = CompileParams::new(20);
        let b = Builder::new("pp", 4);
        let c = b.constant(1.0);
        let d = b.constant(2.0);
        let x = b.input("x");
        let m = c * d + x;
        let p = b.finish(vec![m]);
        let s = ScheduledProgram {
            program: p,
            params,
            inputs: vec![InputSpec {
                scale_bits: Frac::from(20),
                level: 1,
            }],
        };
        let map = s.validate().unwrap();
        assert_eq!(map.try_level(ValueId(0)), None);
        // c·d is still plain; the cipher add (id 4) has a level.
        assert_eq!(map.try_level(ValueId(3)), None);
        assert!(map.try_level(ValueId(4)).is_some());
    }

    #[test]
    fn input_arity_checked() {
        let params = CompileParams::new(20);
        let b = Builder::new("a", 4);
        let x = b.input("x");
        let p = b.finish(vec![x]);
        let s = ScheduledProgram {
            program: p,
            params,
            inputs: vec![],
        };
        let errs = s.validate().unwrap_err();
        assert!(matches!(
            errs[0],
            ScheduleError::InputArity {
                expected: 1,
                actual: 0
            }
        ));
    }

    #[test]
    fn structural_hash_ignores_name_but_not_structure() {
        let a = fig2b();
        let mut b = fig2b();
        assert_eq!(a.structural_hash(), b.structural_hash());

        // Renaming the program does not change the hash.
        let mut renamed = Program::new("other-name", a.program.slots());
        for id in a.program.ids() {
            renamed.push(a.program.op(id).clone());
        }
        renamed.set_outputs(a.program.outputs().to_vec());
        assert_eq!(a.program.structural_hash(), renamed.structural_hash());

        // Changing an input level changes the schedule hash.
        b.inputs[0].level = 3;
        assert_ne!(a.structural_hash(), b.structural_hash());

        // Changing params changes the schedule hash.
        let mut c = fig2b();
        c.params.waterline_bits = 21;
        assert_ne!(a.structural_hash(), c.structural_hash());

        // Changing a rotation step or a constant changes the program hash.
        let mut p1 = Program::new("r", 8);
        let x1 = p1.push(Op::Input { name: "x".into() });
        p1.push(Op::Rotate(x1, 1));
        let mut p2 = Program::new("r", 8);
        let x2 = p2.push(Op::Input { name: "x".into() });
        p2.push(Op::Rotate(x2, 2));
        assert_ne!(p1.structural_hash(), p2.structural_hash());
    }
}
