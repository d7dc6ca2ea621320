//! The clear-value interpreter: evaluates a program on clear `f64` vectors.
//! Scale-management ops are value-identities, so the same interpreter runs
//! both source programs and compiled schedules — compilation must not
//! change program semantics, and tests assert exactly that. Every other
//! component that needs slot values (the noise simulator, the encrypted
//! executor's plain sub-values, the fuzz oracle) gets them from the one
//! walker here.
//!
//! [`execute`] is the one oracle. The runners return only what they
//! computed; the caller that checks them runs [`execute`] once and compares
//! with [`max_abs_diff`] or [`outputs_close`].

use std::collections::HashMap;

use fhe_ir::{semantics, Op, Program, ScheduledProgram, ValueId};

/// The one walker that gives a program `f64` slot values: walks `program`
/// in schedule order and evaluates every op `select` picks with
/// [`semantics::eval`], borrowing its operands from the values computed so far.
/// `hook` sees — and may perturb — each result before it is stored. Returns
/// the values indexed by [`ValueId::index`], `None` where `select` said no.
///
/// # Panics
///
/// Panics if a selected input has no binding, or a selected op reads an
/// operand `select` skipped.
pub(crate) fn interpret(
    program: &Program,
    inputs: &HashMap<String, Vec<f64>>,
    select: impl Fn(ValueId) -> bool,
    mut hook: impl FnMut(ValueId, &mut [f64]),
) -> Vec<Option<Vec<f64>>> {
    let slots = program.slots();
    let mut values: Vec<Option<Vec<f64>>> = vec![None; program.num_ops()];
    for id in program.ids().filter(|&id| select(id)) {
        let get = |a: ValueId| -> &[f64] {
            values[a.index()]
                .as_deref()
                .expect("operand evaluated (schedule order)")
        };
        let mut result = match program.op(id) {
            Op::Input { name } => {
                let data = inputs
                    .get(name)
                    .unwrap_or_else(|| panic!("missing input binding `{name}`"));
                (0..slots)
                    .map(|i| data.get(i).copied().unwrap_or(0.0))
                    .collect()
            }
            Op::Const { value } => value.to_vec(slots),
            op => semantics::eval(op, get).expect("an op with operands"),
        };
        hook(id, &mut result);
        values[id.index()] = Some(result);
    }
    values
}

/// The program's outputs out of [`interpret`]'s values.
pub(crate) fn outputs_of(program: &Program, values: &[Option<Vec<f64>>]) -> Vec<Vec<f64>> {
    program
        .outputs()
        .iter()
        .map(|&o| values[o.index()].clone().expect("output evaluated"))
        .collect()
}

/// Executes `program` on named input vectors (each padded/truncated to the
/// slot count).
///
/// Returns one vector per program output.
///
/// # Panics
///
/// Panics if an input binding is missing.
pub fn execute(program: &Program, inputs: &HashMap<String, Vec<f64>>) -> Vec<Vec<f64>> {
    let live = fhe_ir::analysis::live(program);
    let values = interpret(program, inputs, |id| live[id.index()], |_, _| {});
    outputs_of(program, &values)
}

/// Every value of `program` on the given inputs, indexed by
/// [`ValueId::index`] — dead ops included, so a caller can look at
/// intermediates without rewriting the program's output list.
///
/// # Panics
///
/// Panics if an input binding is missing.
pub fn values(program: &Program, inputs: &HashMap<String, Vec<f64>>) -> Vec<Vec<f64>> {
    interpret(program, inputs, |_| true, |_, _| {})
        .into_iter()
        .map(|v| v.expect("every op was selected"))
        .collect()
}

/// Maximum absolute slot difference between two output sets.
///
/// # Panics
///
/// Panics if the two sets disagree in shape — that is itself a diff worth
/// failing loudly on.
pub fn max_abs_diff(actual: &[Vec<f64>], expected: &[Vec<f64>]) -> f64 {
    assert_eq!(actual.len(), expected.len(), "output count mismatch");
    actual
        .iter()
        .zip(expected)
        .flat_map(|(a, e)| {
            assert_eq!(a.len(), e.len(), "output width mismatch");
            a.iter().zip(e).map(|(x, y)| (x - y).abs())
        })
        .fold(0.0, f64::max)
}

/// The shared encrypted/plain output-diff check: `Ok` when every slot of
/// `actual` is within `tol` of `expected`.
///
/// # Errors
///
/// Returns a human-readable description of the worst offending slot.
pub fn outputs_close(actual: &[Vec<f64>], expected: &[Vec<f64>], tol: f64) -> Result<(), String> {
    let worst = max_abs_diff(actual, expected);
    if worst <= tol {
        Ok(())
    } else {
        Err(format!(
            "outputs differ: max |Δ| = {worst:.3e} > tolerance {tol:.3e}"
        ))
    }
}

/// Whether every live cipher value's magnitude fits the slack between its
/// scheduled scale and its level's modulus budget (`|v|·2^scale < Q_l/2`).
/// The type system only guarantees encrypted correctness under this
/// condition; EVA and Hecate never receive the magnitude-derived output
/// reserve (they ignore `output_reserve_bits`), so a schedule can be
/// well-typed yet wrap in the real backend. Such runs are skipped, not
/// flagged — they are outside the guarantee, not a divergence.
///
/// # Panics
///
/// Panics if an input binding is missing (as [`execute`] does).
pub fn schedule_fits_backend(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
) -> bool {
    let Ok(map) = scheduled.validate() else {
        return false;
    };
    let program = &scheduled.program;
    let vals = values(program, inputs);
    let rescale = f64::from(scheduled.params.rescale_bits);
    let live = fhe_ir::analysis::live(program);
    for (id, slots) in program.ids().zip(&vals) {
        if !live[id.index()] || !program.is_cipher(id) {
            continue;
        }
        // The backend realizes an upscale as an exact integer scalar
        // multiply, so a factor far from any integer (a small
        // fractional-bit delta like 2^(1/2)) drifts the actual scale away
        // from the scheduled one — unrealizable in an integer plaintext
        // ring, and outside the encrypted-correctness guarantee.
        if let Op::Upscale(_, delta) = program.op(id) {
            let factor = 2f64.powf(delta.to_f64());
            if factor < 2f64.powi(53) && (factor.round() - factor).abs() / factor > 1e-8 {
                return false;
            }
        }
        let mag = slots.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if mag == 0.0 {
            continue;
        }
        let scale = map.scale_bits(id).to_f64();
        let budget = f64::from(map.level(id)) * rescale;
        // One bit covers the `< Q/2` half plus the chain primes sitting
        // fractionally below 2^rescale.
        if mag.log2() + scale > budget - 1.0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::Builder;

    fn inputs(pairs: &[(&str, Vec<f64>)]) -> HashMap<String, Vec<f64>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn evaluates_fig2a() {
        let b = Builder::new("fig2a", 4);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        let out = execute(
            &p,
            &inputs(&[
                ("x", vec![2.0, 1.0, 0.5, -1.0]),
                ("y", vec![1.0, 2.0, 3.0, 4.0]),
            ]),
        );
        // x³·(y²+y)
        assert_eq!(out[0][0], 8.0 * 2.0);
        assert_eq!(out[0][1], 1.0 * 6.0);
        assert_eq!(out[0][3], -20.0);
    }

    #[test]
    fn scale_management_is_identity() {
        let mut p = fhe_ir::Program::new("sm", 2);
        let x = p.push(Op::Input { name: "x".into() });
        let r = p.push(Op::Rescale(x));
        let m = p.push(Op::ModSwitch(r));
        let u = p.push(Op::Upscale(m, fhe_ir::Frac::from(20)));
        p.set_outputs(vec![u]);
        let out = execute(&p, &inputs(&[("x", vec![3.5, -1.0])]));
        assert_eq!(out[0], vec![3.5, -1.0]);
    }

    #[test]
    fn constants_and_padding() {
        let b = Builder::new("c", 4);
        let x = b.input("x");
        let k = b.constant(vec![10.0, 20.0]);
        let s = x + k;
        let p = b.finish(vec![s]);
        let out = execute(&p, &inputs(&[("x", vec![1.0])]));
        assert_eq!(out[0], vec![11.0, 20.0, 0.0, 0.0]);
    }

    #[test]
    fn diff_check_reports_the_gap() {
        let err = outputs_close(&[vec![1.0, 2.0]], &[vec![1.0, 2.5]], 0.1).unwrap_err();
        assert!(err.contains("5.000e-1"), "got: {err}");
    }

    #[test]
    #[should_panic(expected = "missing input")]
    fn missing_input_panics() {
        let b = Builder::new("m", 2);
        let x = b.input("x");
        let p = b.finish(vec![x]);
        let _ = execute(&p, &HashMap::new());
    }
}
