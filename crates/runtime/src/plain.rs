//! Reference plaintext executor: evaluates a program on clear `f64`
//! vectors. Scale-management ops are value-identities, so the same executor
//! runs both source programs and compiled schedules — compilation must not
//! change program semantics, and tests assert exactly that.

use std::collections::HashMap;

use fhe_ir::{Op, Program, ScheduledProgram, ValueId};

/// Executes `program` on named input vectors (each padded/truncated to the
/// slot count).
///
/// Returns one vector per program output.
///
/// # Panics
///
/// Panics if an input binding is missing.
pub fn execute(program: &Program, inputs: &HashMap<String, Vec<f64>>) -> Vec<Vec<f64>> {
    let slots = program.slots();
    let mut values: Vec<Option<Vec<f64>>> = vec![None; program.num_ops()];
    let live = fhe_ir::analysis::live(program);

    let fetch = |values: &Vec<Option<Vec<f64>>>, id: ValueId| -> Vec<f64> {
        values[id.index()]
            .clone()
            .expect("operand evaluated (topological order)")
    };

    for id in program.ids() {
        if !live[id.index()] {
            continue;
        }
        let result = match program.op(id) {
            Op::Input { name } => {
                let data = inputs
                    .get(name)
                    .unwrap_or_else(|| panic!("missing input binding `{name}`"));
                (0..slots)
                    .map(|i| data.get(i).copied().unwrap_or(0.0))
                    .collect()
            }
            Op::Const { value } => value.to_vec(slots),
            Op::Add(a, b) => binop(&fetch(&values, *a), &fetch(&values, *b), |x, y| x + y),
            Op::Sub(a, b) => binop(&fetch(&values, *a), &fetch(&values, *b), |x, y| x - y),
            Op::Mul(a, b) => binop(&fetch(&values, *a), &fetch(&values, *b), |x, y| x * y),
            Op::Neg(a) => fetch(&values, *a).iter().map(|x| -x).collect(),
            Op::Rotate(a, k) => rotate(&fetch(&values, *a), *k),
            Op::Rescale(a) | Op::ModSwitch(a) | Op::Upscale(a, _) => fetch(&values, *a),
        };
        values[id.index()] = Some(result);
    }

    program
        .outputs()
        .iter()
        .map(|&o| values[o.index()].clone().expect("output evaluated"))
        .collect()
}

fn binop(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// Cyclic rotation by `k` (positive moves slot `k` to slot 0, matching the
/// CKKS Galois rotation convention).
pub fn rotate(a: &[f64], k: i64) -> Vec<f64> {
    let n = a.len() as i64;
    (0..n)
        .map(|i| a[((i + k).rem_euclid(n)) as usize])
        .collect()
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
    let mut all = program.clone();
    all.set_outputs(program.ids().collect());
    let vals = execute(&all, inputs);
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
    fn rotation_convention() {
        assert_eq!(rotate(&[1.0, 2.0, 3.0, 4.0], 1), vec![2.0, 3.0, 4.0, 1.0]);
        assert_eq!(rotate(&[1.0, 2.0, 3.0, 4.0], -1), vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!(rotate(&[1.0, 2.0], 0), vec![1.0, 2.0]);
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
    #[should_panic(expected = "missing input")]
    fn missing_input_panics() {
        let b = Builder::new("m", 2);
        let x = b.input("x");
        let p = b.finish(vec![x]);
        let _ = execute(&p, &HashMap::new());
    }
}
