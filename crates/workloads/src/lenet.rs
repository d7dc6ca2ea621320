//! LeNet-5 inference (Lenet-5 on MNIST-shaped inputs, Lenet-C on
//! CIFAR-shaped inputs): the paper's deepest benchmarks, with the structure
//! `Conv - (·)² - AvgPool - Conv - (·)² - AvgPool - FC - (·)² - FC - (·)² -
//! FC` (11 multiplicative depths).
//!
//! Feature maps are packed one channel per ciphertext, row-major, with
//! *lazy striding*: pooling keeps values in place and later layers read at
//! doubled dilation — the standard packed-CKKS CNN layout. Weights are
//! seeded random (the experiments measure latency/compile time, not model
//! accuracy; see DESIGN.md substitutions).

use std::collections::HashMap;

use fhe_ir::{Builder, Expr, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data;
use crate::helpers::{avg_pool2, matvec_diagonals, sum_balanced};

/// Shape of a LeNet instance.
#[derive(Debug, Clone)]
pub struct LenetConfig {
    /// Ciphertext slot count.
    pub slots: usize,
    /// Feature-map grid width (images are `grid × grid`).
    pub grid: usize,
    /// Input channels (1 for MNIST, 3 for CIFAR-10).
    pub in_channels: usize,
    /// First/second convolution output channels.
    pub conv_channels: [usize; 2],
    /// Convolution kernel size.
    pub kernel: usize,
    /// Diagonal counts of the three FC layers.
    pub fc_diagonals: [usize; 3],
    /// Weight seed.
    pub seed: u64,
}

impl LenetConfig {
    /// LeNet-5 on MNIST-shaped inputs (paper's `Lenet-5`).
    pub fn lenet5() -> Self {
        LenetConfig {
            slots: 16384,
            grid: 32,
            in_channels: 1,
            conv_channels: [6, 16],
            kernel: 5,
            fc_diagonals: [16, 64, 32],
            seed: 0x1e9e7,
        }
    }

    /// LeNet-5 on CIFAR-shaped inputs (paper's `Lenet-C`): three input
    /// channels.
    pub fn lenet_cifar() -> Self {
        LenetConfig {
            in_channels: 3,
            seed: 0xC1FA5,
            ..Self::lenet5()
        }
    }

    /// A miniature instance for unit tests and encrypted execution.
    pub fn tiny(slots: usize) -> Self {
        LenetConfig {
            slots,
            grid: 8,
            in_channels: 1,
            conv_channels: [2, 2],
            kernel: 3,
            fc_diagonals: [4, 4, 4],
            seed: 7,
        }
    }
}

/// One convolution layer on per-channel ciphertexts with plaintext scalar
/// weights: `out_o = Σ_ic Σ_{dy,dx} w · rot(in_ic, offset)`. Rotations are
/// shared across output channels (CSE merges them).
fn conv_layer(
    b: &Builder,
    inputs: &[Expr],
    out_channels: usize,
    kernel: usize,
    grid: usize,
    dilation: usize,
    rng: &mut StdRng,
) -> Vec<Expr> {
    let half = (kernel / 2) as i64;
    let scale = 1.0 / (kernel * kernel * inputs.len()) as f64;
    (0..out_channels)
        .map(|_| {
            let mut terms = Vec::new();
            for input in inputs {
                for dy in -half..=half {
                    for dx in -half..=half {
                        let off = (dy * grid as i64 + dx) * dilation as i64;
                        let shifted = if off == 0 {
                            input.clone()
                        } else {
                            input.rotate(off)
                        };
                        let w = rng.gen_range(-1.0..1.0) * scale;
                        terms.push(shifted * b.constant(w));
                    }
                }
            }
            sum_balanced(terms)
        })
        .collect()
}

/// Builds a LeNet program per the configuration.
pub fn build(cfg: &LenetConfig) -> Program {
    assert!(
        cfg.grid * cfg.grid <= cfg.slots,
        "grid must fit the slot count"
    );
    let b = Builder::new(
        if cfg.in_channels == 1 {
            "lenet5"
        } else {
            "lenet_c"
        },
        cfg.slots,
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let inputs: Vec<Expr> = (0..cfg.in_channels)
        .map(|i| b.input(format!("image{i}")))
        .collect();

    // Conv1 → square → pool (dilation 1 → 2).
    let c1 = conv_layer(
        &b,
        &inputs,
        cfg.conv_channels[0],
        cfg.kernel,
        cfg.grid,
        1,
        &mut rng,
    );
    let s1: Vec<Expr> = c1.into_iter().map(|c| c.clone() * c).collect();
    let p1: Vec<Expr> = s1.iter().map(|c| avg_pool2(&b, c, cfg.grid, 1)).collect();

    // Conv2 → square → pool (dilation 2 → 4).
    let c2 = conv_layer(
        &b,
        &p1,
        cfg.conv_channels[1],
        cfg.kernel,
        cfg.grid,
        2,
        &mut rng,
    );
    let s2: Vec<Expr> = c2.into_iter().map(|c| c.clone() * c).collect();
    let p2: Vec<Expr> = s2.iter().map(|c| avg_pool2(&b, c, cfg.grid, 2)).collect();

    // FC1 sums banded matvecs over every channel, then squares.
    let h = sum_balanced(
        p2.iter()
            .map(|ch| {
                let w = data::diagonals(cfg.fc_diagonals[0], cfg.slots, rng.gen());
                matvec_diagonals(&b, ch, w)
            })
            .collect(),
    );
    let h = h.clone() * h;

    // FC2 → square → FC3.
    let w2 = data::diagonals(cfg.fc_diagonals[1], cfg.slots, rng.gen());
    let h2 = matvec_diagonals(&b, &h, w2);
    let h2 = h2.clone() * h2;
    let w3 = data::diagonals(cfg.fc_diagonals[2], cfg.slots, rng.gen());
    let out = matvec_diagonals(&b, &h2, w3);
    b.finish(vec![out])
}

/// Input bindings: one synthetic image per input channel.
pub fn lenet_inputs(cfg: &LenetConfig, seed: u64) -> HashMap<String, Vec<f64>> {
    (0..cfg.in_channels)
        .map(|i| {
            (
                format!("image{i}"),
                data::image(cfg.grid * cfg.grid, seed + i as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::{analysis, passes};
    use fhe_runtime::plain;

    #[test]
    fn lenet5_shape_matches_paper() {
        let p = build(&LenetConfig::lenet5());
        // Paper Table 4: Lenet-5 has 8895 ops (before its compiler's CSE);
        // ours lands in the same order of magnitude.
        assert!(
            (4000..=12000).contains(&p.num_ops()),
            "lenet5 has {} ops",
            p.num_ops()
        );
        assert_eq!(
            analysis::circuit_depth(&p),
            11,
            "paper: 11 multiplicative depths"
        );
        assert_eq!(p.slots(), 16384);
    }

    #[test]
    fn lenet_cifar_is_larger() {
        let five = build(&LenetConfig::lenet5());
        let cifar = build(&LenetConfig::lenet_cifar());
        assert!(cifar.num_ops() > five.num_ops());
        assert_eq!(analysis::circuit_depth(&cifar), 11);
        assert_eq!(cifar.inputs().len(), 3);
    }

    #[test]
    fn rotations_are_shared_after_cse() {
        let p = build(&LenetConfig::lenet5());
        let before = p.count_ops(|o| matches!(o, fhe_ir::Op::Rotate(..)));
        let cleaned = passes::cleanup(&p);
        let after = cleaned.count_ops(|o| matches!(o, fhe_ir::Op::Rotate(..)));
        assert!(
            after < before,
            "CSE must merge shared rotations: {after} vs {before}"
        );
    }

    #[test]
    fn tiny_lenet_executes_in_the_clear() {
        let cfg = LenetConfig::tiny(128);
        let p = build(&cfg);
        assert_eq!(analysis::circuit_depth(&p), 11);
        let out = plain::execute(&p, &lenet_inputs(&cfg, 1));
        assert_eq!(out.len(), 1);
        assert!(out[0].iter().all(|v| v.is_finite()));
        // Outputs must be bounded (weights are scaled down) so encrypted
        // execution keeps headroom.
        assert!(out[0].iter().all(|v| v.abs() < 4.0), "outputs bounded");
    }
}
