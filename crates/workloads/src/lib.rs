//! # fhe-workloads — the Reserve paper's eight evaluation benchmarks
//!
//! Circuit builders for the workloads of §8: Sobel Filter (SF), Harris
//! Corner Detection (HCD), Linear/Multivariate/Polynomial Regression
//! (LR/MR/PR), a Multi-Layer Perceptron (MLP), and LeNet-5 on MNIST- and
//! CIFAR-shaped inputs (Lenet-5 / Lenet-C). Each builder returns a plain
//! arithmetic [`fhe_ir::Program`] (no scale management) plus deterministic
//! synthetic inputs, ready for any of the workspace's compilers.
//!
//! # Example
//!
//! ```
//! use fhe_ir::CompileParams;
//! use fhe_workloads::{suite, Size};
//! use reserve_core::{ReserveCompiler, ScaleCompiler};
//! let workloads = suite(Size::Test);
//! assert_eq!(workloads.len(), 8);
//! for w in workloads.iter().take(2) {
//!     let compiled = ReserveCompiler::full().compile(&w.program, &CompileParams::new(30))?;
//!     assert!(compiled.scheduled.validate().is_ok());
//! }
//! # Ok::<(), reserve_core::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod helpers;
pub mod image;
pub mod lenet;
pub mod mlp;
pub mod regression;

use std::collections::HashMap;

use fhe_ir::Program;

/// A benchmark: its circuit and matching input bindings.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name as used in the paper's tables (e.g. `"SF"`, `"Lenet-5"`).
    pub name: &'static str,
    /// The arithmetic circuit (no scale-management ops).
    pub program: Program,
    /// Deterministic synthetic inputs.
    pub inputs: HashMap<String, Vec<f64>>,
}

/// Benchmark sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The paper's evaluation sizes (64×64 images, 16384-sample
    /// regressions, full LeNet) — use for the table/figure harnesses.
    Paper,
    /// Miniature instances for unit tests and encrypted execution.
    Test,
}

/// Builds all eight benchmarks at the given size, in the paper's table
/// order: SF, HCD, LR, MR, PR, MLP, Lenet-5, Lenet-C.
pub fn suite(size: Size) -> Vec<Workload> {
    let seed = 0xBEEF;
    match size {
        Size::Paper => vec![
            Workload {
                name: "SF",
                program: image::sobel(64),
                inputs: image::image_inputs(64, seed),
            },
            Workload {
                name: "HCD",
                program: image::harris(64),
                inputs: image::image_inputs(64, seed),
            },
            Workload {
                name: "LR",
                program: regression::linear(16384, 2),
                inputs: regression::linear_inputs(16384, seed),
            },
            Workload {
                name: "MR",
                program: regression::multivariate(16384, 4, 2),
                inputs: regression::multivariate_inputs(16384, 4, seed),
            },
            Workload {
                name: "PR",
                program: regression::polynomial(16384, 2),
                inputs: regression::polynomial_inputs(16384, seed),
            },
            Workload {
                name: "MLP",
                program: mlp::mlp(16384, 58, seed),
                inputs: mlp::mlp_inputs(16384, seed),
            },
            Workload {
                name: "Lenet-5",
                program: lenet::build(&lenet::LenetConfig::lenet5()),
                inputs: lenet::lenet_inputs(&lenet::LenetConfig::lenet5(), seed),
            },
            Workload {
                name: "Lenet-C",
                program: lenet::build(&lenet::LenetConfig::lenet_cifar()),
                inputs: lenet::lenet_inputs(&lenet::LenetConfig::lenet_cifar(), seed),
            },
        ],
        Size::Test => {
            let tiny_lenet = lenet::LenetConfig::tiny(128);
            let mut tiny_cifar = lenet::LenetConfig::tiny(128);
            tiny_cifar.in_channels = 2;
            vec![
                Workload {
                    name: "SF",
                    program: image::sobel(8),
                    inputs: image::image_inputs(8, seed),
                },
                Workload {
                    name: "HCD",
                    program: image::harris(8),
                    inputs: image::image_inputs(8, seed),
                },
                Workload {
                    name: "LR",
                    program: regression::linear(64, 2),
                    inputs: regression::linear_inputs(64, seed),
                },
                Workload {
                    name: "MR",
                    program: regression::multivariate(64, 3, 2),
                    inputs: regression::multivariate_inputs(64, 3, seed),
                },
                Workload {
                    name: "PR",
                    program: regression::polynomial(64, 2),
                    inputs: regression::polynomial_inputs(64, seed),
                },
                Workload {
                    name: "MLP",
                    program: mlp::mlp(64, 8, seed),
                    inputs: mlp::mlp_inputs(64, seed),
                },
                Workload {
                    name: "Lenet-5",
                    program: lenet::build(&tiny_lenet),
                    inputs: lenet::lenet_inputs(&tiny_lenet, seed),
                },
                Workload {
                    name: "Lenet-C",
                    program: lenet::build(&tiny_cifar),
                    inputs: lenet::lenet_inputs(&tiny_cifar, seed),
                },
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_eight() {
        let names: Vec<&str> = suite(Size::Test).iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["SF", "HCD", "LR", "MR", "PR", "MLP", "Lenet-5", "Lenet-C"]
        );
    }

    #[test]
    fn inputs_bind_every_program_input() {
        for w in suite(Size::Test) {
            for &input in w.program.inputs() {
                if let fhe_ir::Op::Input { name } = w.program.op(input) {
                    assert!(
                        w.inputs.contains_key(name),
                        "{}: input {name} unbound",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn paper_sizes_match_table4_order_of_magnitude() {
        let ops: HashMap<&str, usize> = suite(Size::Paper)
            .iter()
            .map(|w| (w.name, w.program.num_ops()))
            .collect();
        // Paper Table 4 # Ops: SF 60, HCD 110, LR 123, MR 550, PR 183,
        // MLP 462, Lenet-5 8895, Lenet-C 9845.
        assert!(ops["SF"] < ops["HCD"]);
        assert!(ops["MR"] > ops["LR"]);
        assert!(ops["MLP"] > ops["PR"]);
        assert!(ops["Lenet-5"] > ops["MLP"] * 5);
        assert!(ops["Lenet-C"] > ops["Lenet-5"]);
    }

    #[test]
    fn every_test_workload_plain_executes() {
        for w in suite(Size::Test) {
            let out = fhe_runtime::plain::execute(&w.program, &w.inputs);
            assert!(!out.is_empty(), "{} produced no outputs", w.name);
            for o in &out {
                assert!(
                    o.iter().all(|v| v.is_finite()),
                    "{} non-finite output",
                    w.name
                );
            }
        }
    }
}
