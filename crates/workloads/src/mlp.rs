//! Multi-layer perceptron inference (MLP): two banded fully-connected
//! layers with squaring activations on a packed vector, batch-SIMD over the
//! slot dimension — the paper's "two matrix multiplications and two square
//! operations with a single input".

use std::collections::HashMap;

use fhe_ir::{Builder, Program};

use crate::data;
use crate::helpers::matvec_diagonals;

/// Builds the MLP benchmark: `x → FC(d₁) → (·)² → FC(d₂) → (·)²` where the
/// FC layers use `diagonals` plaintext diagonals each.
pub fn mlp(slots: usize, diagonals: usize, seed: u64) -> Program {
    let b = Builder::new("mlp", slots);
    let x = b.input("x");
    let w1 = data::diagonals(diagonals, slots, seed);
    let w2 = data::diagonals(diagonals, slots, seed ^ 0x77);
    let h = matvec_diagonals(&b, &x, w1);
    let h = h.clone() * h;
    let o = matvec_diagonals(&b, &h, w2);
    let o = o.clone() * o;
    b.finish(vec![o])
}

/// Input bindings for [`mlp`].
pub fn mlp_inputs(slots: usize, seed: u64) -> HashMap<String, Vec<f64>> {
    let mut m = HashMap::new();
    m.insert("x".to_string(), data::uniform(slots, -1.0, 1.0, seed));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::analysis;
    use fhe_runtime::plain;

    #[test]
    fn op_count_matches_paper_ballpark() {
        // Paper Table 4: MLP 462 ops, depth Conv-x²-…: here 2 FC + 2 sq.
        let p = mlp(16384, 58, 1);
        assert!((380..=560).contains(&p.num_ops()), "MLP: {}", p.num_ops());
        assert_eq!(analysis::circuit_depth(&p), 4);
    }

    #[test]
    fn forward_pass_matches_manual_computation() {
        let slots = 8;
        let p = mlp(slots, 2, 3);
        let inputs = mlp_inputs(slots, 4);
        let out = plain::execute(&p, &inputs);
        // Recompute in the clear.
        let x = &inputs["x"];
        let w1 = data::diagonals(2, slots, 3);
        let w2 = data::diagonals(2, slots, 3 ^ 0x77);
        let fc = |x: &[f64], w: &[Vec<f64>]| -> Vec<f64> {
            (0..slots)
                .map(|i| {
                    w.iter()
                        .enumerate()
                        .map(|(d, diag)| diag[i] * x[(i + d) % slots])
                        .sum::<f64>()
                })
                .collect()
        };
        let h: Vec<f64> = fc(x, &w1).iter().map(|v| v * v).collect();
        let o: Vec<f64> = fc(&h, &w2).iter().map(|v| v * v).collect();
        for (a, e) in out[0].iter().zip(&o) {
            assert!((a - e).abs() < 1e-12, "{a} vs {e}");
        }
    }
}
