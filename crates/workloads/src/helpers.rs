//! Shared circuit-construction helpers: packed convolutions, reductions and
//! diagonal matrix–vector products — the building blocks of the paper's
//! eight benchmarks.

use fhe_ir::{Builder, Expr};

/// Sums a list of expressions as a balanced binary tree (depth `⌈log₂ k⌉`
/// instead of `k − 1`), the natural shape for SIMD summations and the one
/// that lets rescale hoisting cascade in few rounds.
///
/// # Panics
///
/// Panics if `terms` is empty.
pub fn sum_balanced(mut terms: Vec<Expr>) -> Expr {
    assert!(!terms.is_empty(), "sum_balanced of no terms");
    while terms.len() > 1 {
        let mut next = Vec::with_capacity(terms.len().div_ceil(2));
        let mut it = terms.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(a + b),
                None => next.push(a),
            }
        }
        terms = next;
    }
    terms.pop().expect("non-empty")
}

/// Sums all `n` slots into every slot (`n` must be a power of two):
/// `log₂ n` rotate-and-add steps. The result holds `Σ x` replicated.
pub fn rotate_sum_all(expr: Expr, n: usize) -> Expr {
    assert!(
        n.is_power_of_two(),
        "rotate_sum_all needs a power-of-two width"
    );
    let mut acc = expr;
    let mut step = 1usize;
    while step < n {
        acc = acc.clone() + acc.rotate(step as i64);
        step <<= 1;
    }
    acc
}

/// Mean over all `n` slots, replicated into every slot (a rotate-sum
/// followed by a plaintext `1/n` multiply).
pub fn mean_all(b: &Builder, expr: Expr, n: usize) -> Expr {
    rotate_sum_all(expr, n) * b.constant(1.0 / n as f64)
}

/// A 2-D convolution kernel with plaintext weights, applied to an image
/// packed row-major with the given row `width` and element `dilation`
/// (lazy-strided layouts use dilation > 1). Border pixels wrap around —
/// acceptable for latency benchmarks, as in the original EVA/Hecate image
/// kernels.
pub fn conv2d(
    b: &Builder,
    image: &Expr,
    weights: &[Vec<f64>],
    width: usize,
    dilation: usize,
) -> Expr {
    let kh = weights.len();
    let kw = weights[0].len();
    let mut terms = Vec::new();
    for (dy, row) in weights.iter().enumerate() {
        assert_eq!(row.len(), kw, "ragged kernel");
        for (dx, &w) in row.iter().enumerate() {
            if w == 0.0 {
                continue; // skip structural zeros (e.g. Sobel centres)
            }
            let off = ((dy as i64 - (kh / 2) as i64) * width as i64
                + (dx as i64 - (kw / 2) as i64))
                * dilation as i64;
            let shifted = if off == 0 {
                image.clone()
            } else {
                image.rotate(off)
            };
            terms.push(shifted * b.constant(w));
        }
    }
    sum_balanced(terms)
}

/// Sums a `k×k` neighbourhood (all-ones box filter) via rotations only.
pub fn box_sum(image: &Expr, k: usize, width: usize, dilation: usize) -> Expr {
    let half = (k / 2) as i64;
    let mut terms = Vec::new();
    for dy in -half..=half {
        for dx in -half..=half {
            let off = (dy * width as i64 + dx) * dilation as i64;
            terms.push(if off == 0 {
                image.clone()
            } else {
                image.rotate(off)
            });
        }
    }
    sum_balanced(terms)
}

/// Matrix–vector product by the diagonal method: `y = Σ_d diag_d ⊙ rot(x,d)`
/// over `diagonals.len()` plaintext diagonals. This realizes a (banded)
/// fully-connected layer on a packed vector. Each diagonal moves into its
/// constant, uncopied.
pub fn matvec_diagonals(b: &Builder, x: &Expr, diagonals: Vec<Vec<f64>>) -> Expr {
    assert!(!diagonals.is_empty(), "need at least one diagonal");
    let terms = diagonals
        .into_iter()
        .enumerate()
        .map(|(d, diag)| {
            let shifted = if d == 0 {
                x.clone()
            } else {
                x.rotate(d as i64)
            };
            shifted * b.constant(diag)
        })
        .collect();
    sum_balanced(terms)
}

/// 2×2 average pooling on a lazily-strided layout: sums the four taps at
/// the current dilation and scales by 1/4. The output stays in place; the
/// caller doubles the dilation for the next layer.
pub fn avg_pool2(b: &Builder, x: &Expr, width: usize, dilation: usize) -> Expr {
    let d = dilation as i64;
    let w = width as i64;
    let sum = x.clone() + x.rotate(d) + x.rotate(d * w) + x.rotate(d * w + d);
    sum * b.constant(0.25)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_runtime::plain;
    use std::collections::HashMap;

    fn run(p: &fhe_ir::Program, pairs: &[(&str, Vec<f64>)]) -> Vec<Vec<f64>> {
        let inputs: HashMap<String, Vec<f64>> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        plain::execute(p, &inputs)
    }

    #[test]
    fn rotate_sum_all_sums_every_slot() {
        let b = Builder::new("t", 8);
        let x = b.input("x");
        let s = rotate_sum_all(x, 8);
        let p = b.finish(vec![s]);
        let out = run(&p, &[("x", (1..=8).map(|i| i as f64).collect())]);
        for &v in &out[0] {
            assert_eq!(v, 36.0);
        }
    }

    #[test]
    fn mean_all_divides() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let m = mean_all(&b, x, 4);
        let p = b.finish(vec![m]);
        let out = run(&p, &[("x", vec![1.0, 2.0, 3.0, 6.0])]);
        assert_eq!(out[0][0], 3.0);
    }

    #[test]
    fn conv2d_identity_kernel() {
        let b = Builder::new("t", 16);
        let img = b.input("img");
        let id = vec![
            vec![0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0],
        ];
        let c = conv2d(&b, &img, &id, 4, 1);
        let p = b.finish(vec![c]);
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let out = run(&p, &[("img", data.clone())]);
        assert_eq!(out[0], data);
    }

    #[test]
    fn conv2d_shift_kernel() {
        // A kernel with weight 1 at (dy=0, dx=+1) picks the right neighbour.
        let b = Builder::new("t", 16);
        let img = b.input("img");
        let k = vec![
            vec![0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0],
        ];
        let c = conv2d(&b, &img, &k, 4, 1);
        let p = b.finish(vec![c]);
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let out = run(&p, &[("img", data)]);
        // Interior: out[5] = img[6].
        assert_eq!(out[0][5], 6.0);
    }

    #[test]
    fn box_sum_counts_neighbours() {
        let b = Builder::new("t", 16);
        let img = b.input("img");
        let s = box_sum(&img, 3, 4, 1);
        let p = b.finish(vec![s]);
        let out = run(&p, &[("img", vec![1.0; 16])]);
        assert_eq!(out[0][5], 9.0);
    }

    #[test]
    fn matvec_single_diagonal_is_hadamard() {
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let y = matvec_diagonals(&b, &x, vec![vec![2.0, 3.0, 4.0, 5.0]]);
        let p = b.finish(vec![y]);
        let out = run(&p, &[("x", vec![1.0, 1.0, 1.0, 1.0])]);
        assert_eq!(out[0], vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn matvec_two_diagonals() {
        // y[i] = d0[i]·x[i] + d1[i]·x[i+1].
        let b = Builder::new("t", 4);
        let x = b.input("x");
        let y = matvec_diagonals(&b, &x, vec![vec![1.0; 4], vec![1.0; 4]]);
        let p = b.finish(vec![y]);
        let out = run(&p, &[("x", vec![1.0, 2.0, 3.0, 4.0])]);
        assert_eq!(out[0], vec![3.0, 5.0, 7.0, 5.0]);
    }

    #[test]
    fn avg_pool_averages_quad() {
        let b = Builder::new("t", 16);
        let x = b.input("x");
        let pool = avg_pool2(&b, &x, 4, 1);
        let p = b.finish(vec![pool]);
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let out = run(&p, &[("x", data)]);
        // Slot 0 averages slots {0, 1, 4, 5}.
        assert_eq!(out[0][0], (0.0 + 1.0 + 4.0 + 5.0) / 4.0);
    }
}
