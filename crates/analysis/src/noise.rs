//! The noise-budget domain: a per-value worst-case message-domain error
//! bound for scheduled programs — the one static error estimate of the
//! workspace (the other error provenance is the runtime's noise-injection
//! simulator, which perturbs exactly the ops [`adds_noise`] names).
//!
//! An extension beyond the paper, in the direction of its ELASM follow-up:
//! every noisy operation — fresh encryption, relinearization, rotation key
//! switching, rescale rounding — contributes `B / m` of message-domain
//! error for a ciphertext at scale `m`, and multiplication amplifies
//! operand errors by the operands' magnitudes. Magnitudes can be a single
//! global `x_max` (Table 1's assumption, the [`Default`]) or per-value
//! bounds from the [`interval`](crate::interval) domain, which the fuzz
//! oracle uses to get a bound it then checks dominates every observed
//! encrypted error. [`NoiseDomain::output_bounds`] is the closed-form error
//! signal of a schedule; [`select_waterline`] turns it into the
//! accuracy/latency trade-off the paper's Figs. 6 and 7 sweep by hand.

use fhe_ir::{Op, Program, ScheduleError, ScheduledProgram, ValueId};

use crate::domain::{analyze, AbstractDomain, AnalysisCx};

/// log₂ of the integer-domain noise magnitude `B` one noisy operation adds,
/// shared by the static bound and the simulator's default model. With
/// `N = 2^15` and σ = 3.2 this is ≈ 16–18 bits.
pub const DEFAULT_NOISE_BITS: f64 = 16.0;

/// Whether op `id` adds noise of its own (beyond what its operands carry):
/// fresh encryption, relinearization after cipher×cipher, the rotation's
/// key switch, rescale rounding — on ciphertexts only.
pub fn adds_noise(program: &Program, id: ValueId) -> bool {
    program.is_cipher(id)
        && match program.op(id) {
            Op::Input { .. } | Op::Rotate(..) | Op::Rescale(_) => true,
            Op::Mul(a, b) => program.is_cipher(*a) && program.is_cipher(*b),
            _ => false,
        }
}

/// Where the `|x|` factors of the multiplication error rule come from.
#[derive(Debug, Clone)]
pub enum MagnitudeSource {
    /// One global bound `x_max` for every value (Table 1's assumption).
    Global(f64),
    /// A per-value magnitude bound, indexed by [`ValueId::index`] — e.g.
    /// `Interval::magnitude` of an interval analysis of the same program.
    PerValue(Vec<f64>),
}

impl MagnitudeSource {
    fn of(&self, id: ValueId) -> f64 {
        match self {
            MagnitudeSource::Global(m) => *m,
            MagnitudeSource::PerValue(v) => v[id.index()],
        }
    }
}

/// The noise domain. Abstract values are worst-case absolute errors in the
/// message domain (`0.0` for plaintext values, which are exact).
#[derive(Debug, Clone)]
pub struct NoiseDomain {
    /// log₂ of the per-operation noise magnitude `B` (the runtime's
    /// `NoiseModel::noise_bits`; both default to [`DEFAULT_NOISE_BITS`]).
    pub noise_bits: f64,
    /// Operand-magnitude bounds for the multiplication rule.
    pub magnitudes: MagnitudeSource,
}

impl Default for NoiseDomain {
    /// The default noise magnitude under Table 1's `x_max = 1`.
    fn default() -> Self {
        NoiseDomain {
            noise_bits: DEFAULT_NOISE_BITS,
            magnitudes: MagnitudeSource::Global(1.0),
        }
    }
}

impl NoiseDomain {
    /// The worst-case absolute error of each program output.
    ///
    /// # Errors
    ///
    /// Returns the schedule's validation errors if it is illegal.
    pub fn output_bounds(
        &self,
        scheduled: &ScheduledProgram,
    ) -> Result<Vec<f64>, Vec<ScheduleError>> {
        let map = scheduled.validate()?;
        let program = &scheduled.program;
        let err = analyze(self, &AnalysisCx::scheduled(program, &map));
        Ok(program.outputs().iter().map(|&o| err[o.index()]).collect())
    }

    /// Per-op message-domain noise `B / 2^scale` for ciphertext `id`.
    fn op_noise(&self, cx: &AnalysisCx<'_>, id: ValueId) -> f64 {
        let map = cx
            .scales
            .expect("noise domain requires a scheduled program's scale map");
        2f64.powf(self.noise_bits) / 2f64.powf(map.scale_bits(id).to_f64())
    }
}

impl AbstractDomain for NoiseDomain {
    type Value = f64;

    fn transfer(&self, cx: &AnalysisCx<'_>, id: ValueId, args: &[f64]) -> f64 {
        let p = cx.program;
        if p.is_plain(id) {
            return 0.0;
        }
        let carried = match p.op(id) {
            Op::Input { .. } | Op::Const { .. } => 0.0,
            Op::Add(..) | Op::Sub(..) => args[0] + args[1],
            Op::Mul(a, b) => {
                // |x·y − x̂·ŷ| ≤ |x|·e_y + |y|·e_x + e_x·e_y.
                let (ma, mb) = (self.magnitudes.of(*a), self.magnitudes.of(*b));
                ma * args[1] + mb * args[0] + args[0] * args[1]
            }
            Op::Neg(_) | Op::Rotate(..) | Op::Rescale(_) | Op::ModSwitch(_) | Op::Upscale(..) => {
                args[0]
            }
        };
        if adds_noise(p, id) {
            carried + self.op_noise(cx, id)
        } else {
            carried
        }
    }
}

/// Selects the smallest waterline (⇒ cheapest program) whose static error
/// bound under `domain` is at most `2^target_log2`, compiling each candidate
/// with the given closure (return `None` for waterlines that fail to
/// compile).
///
/// Smaller waterlines mean lower levels and latency but larger relative
/// noise; this automates the accuracy/latency trade-off the paper's Figs. 6
/// and 7 sweep by hand.
pub fn select_waterline<F>(
    candidates: impl IntoIterator<Item = u32>,
    mut compile: F,
    target_log2: f64,
    domain: &NoiseDomain,
) -> Option<(u32, ScheduledProgram)>
where
    F: FnMut(u32) -> Option<ScheduledProgram>,
{
    let mut sorted: Vec<u32> = candidates.into_iter().collect();
    sorted.sort_unstable();
    for waterline in sorted {
        let Some(scheduled) = compile(waterline) else {
            continue;
        };
        let Ok(errors) = domain.output_bounds(&scheduled) else {
            continue;
        };
        let worst = errors.iter().fold(0.0f64, |a, &b| a.max(b));
        if worst.max(f64::MIN_POSITIVE).log2() <= target_log2 {
            return Some((waterline, scheduled));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::{CompileParams, Frac, InputSpec, Op as IrOp};

    /// `x·y` with both inputs encrypted at the waterline.
    fn one_mul_schedule(waterline: u32) -> ScheduledProgram {
        let mut p = Program::new("n", 4);
        let x = p.push(IrOp::Input { name: "x".into() });
        let y = p.push(IrOp::Input { name: "y".into() });
        let m = p.push(IrOp::Mul(x, y));
        p.set_outputs(vec![m]);
        let spec = InputSpec {
            scale_bits: Frac::from(waterline),
            level: 2,
        };
        ScheduledProgram {
            program: p,
            params: CompileParams::new(waterline),
            inputs: vec![spec, spec],
        }
    }

    #[test]
    fn output_bounds_shrink_with_the_waterline() {
        let bound = |w| NoiseDomain::default().output_bounds(&one_mul_schedule(w));
        let (e20, e40) = (bound(20).unwrap()[0], bound(40).unwrap()[0]);
        assert!(
            e40 < e20 / 1e4,
            "W=2^40 bound {e40:.3e} vs W=2^20 {e20:.3e}"
        );
        // An illegal schedule (an input without a spec) has no bound.
        let mut illegal = one_mul_schedule(20);
        illegal.inputs.pop();
        assert!(NoiseDomain::default().output_bounds(&illegal).is_err());
    }

    #[test]
    fn select_waterline_picks_the_smallest_that_meets_the_target() {
        // Only every fifth waterline "compiles".
        let compile = |w: u32| w.is_multiple_of(5).then(|| one_mul_schedule(w));
        let domain = NoiseDomain::default();
        // A loose target admits a small waterline; a strict one forces a
        // larger waterline; an impossible one yields None.
        let (loose, _) = select_waterline(15..=50, compile, -2.0, &domain).expect("feasible");
        let (strict, s) = select_waterline(15..=50, compile, -20.0, &domain).expect("feasible");
        assert_eq!((loose, strict), (20, 40));
        assert!(domain.output_bounds(&s).unwrap()[0].log2() <= -20.0);
        assert!(select_waterline(15..=50, compile, -200.0, &domain).is_none());
    }

    #[test]
    fn per_value_magnitudes_tighten_the_global_bound() {
        let s = one_mul_schedule(40);
        let map = s.validate().unwrap();
        let cx = AnalysisCx::scheduled(&s.program, &map);
        let global = NoiseDomain {
            noise_bits: 16.0,
            magnitudes: MagnitudeSource::Global(1.0),
        };
        let tight = NoiseDomain {
            noise_bits: 16.0,
            magnitudes: MagnitudeSource::PerValue(vec![0.25, 0.25, 0.0625]),
        };
        let eg = analyze(&global, &cx);
        let et = analyze(&tight, &cx);
        let out = s.program.outputs()[0].index();
        assert!(et[out] < eg[out]);
        assert!(et[out] > 0.0);
    }

    #[test]
    fn plain_values_carry_zero_error() {
        let mut p = Program::new("pl", 4);
        let c = p.push(IrOp::Const { value: 2.0.into() });
        let d = p.push(IrOp::Const { value: 3.0.into() });
        let m = p.push(IrOp::Mul(c, d));
        p.set_outputs(vec![m]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(20),
            inputs: vec![],
        };
        let map = s.validate().unwrap();
        let errs = analyze(
            &NoiseDomain {
                noise_bits: 16.0,
                magnitudes: MagnitudeSource::Global(1.0),
            },
            &AnalysisCx::scheduled(&s.program, &map),
        );
        assert_eq!(errs, vec![0.0, 0.0, 0.0]);
    }
}
