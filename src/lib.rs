//! # fhe-reserve — performance-aware scale analysis with reserve for RNS-CKKS
//!
//! A complete Rust reproduction of *"Performance-aware Scale Analysis with
//! Reserve for Homomorphic Encryption"* (Lee et al., ASPLOS 2024): an
//! exploration-free, performance-aware scale-management compiler for
//! RNS-CKKS FHE programs, together with everything needed to evaluate it —
//! an SSA IR, a from-scratch RNS-CKKS scheme, the EVA and Hecate baseline
//! compilers, executors, and the paper's eight ML benchmarks.
//!
//! This crate re-exports the workspace members:
//!
//! - [`ir`] (`fhe-ir`) — programs, the builder DSL, passes, validator, cost
//!   model;
//! - [`analysis`] (`fhe-analysis`) — abstract interpretation, the `F001`…
//!   `F009` lints, translation validation (its mismatches are `F000`; see
//!   also the `lint` binary) and the static error bound with waterline
//!   selection;
//! - [`ckks`] (`fhe-ckks`) — the RNS-CKKS scheme;
//! - [`compiler`] (`reserve-core`) — **the paper's contribution**: reserve
//!   type system, backward reserve analysis, redistribution, rescale
//!   placement and hoisting;
//! - [`baselines`] (`fhe-baselines`) — EVA and Hecate;
//! - [`runtime`] (`fhe-runtime`) — the clear-value interpreter, the noise
//!   simulator built on it and the encrypted executor, each returning only
//!   what it computed: a caller that checks a run compares it with one
//!   `plain::execute` of its own;
//! - [`workloads`] (`fhe-workloads`) — SF, HCD, LR, MR, PR, MLP, Lenet-5,
//!   Lenet-C;
//! - [`serve`] (`fhe-serve`) — the deployment front-end: compile cache,
//!   concurrent multi-session request scheduler, service telemetry.
//!
//! # Quickstart
//!
//! ```
//! use fhe_reserve::prelude::*;
//!
//! // 1. Write an FHE program with ordinary arithmetic.
//! let b = Builder::new("poly", 64);
//! let x = b.input("x");
//! let y = b.input("y");
//! let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
//! let program = b.finish(vec![q]);
//!
//! // 2. Compile: reserve analysis inserts all scale management. Every
//! //    compiler (`ReserveCompiler`, `EvaCompiler`, `HecateCompiler`)
//! //    compiles through the one `ScaleCompiler` trait.
//! let compiled = ReserveCompiler::full().compile(&program, &CompileParams::new(30))?;
//! assert!(compiled.scheduled.validate().is_ok());
//!
//! // 3. Run it (here on the noise simulator; `runtime::execute_encrypted`
//! //    runs the same schedule under real encryption).
//! let mut inputs = std::collections::HashMap::new();
//! inputs.insert("x".to_string(), vec![0.5; 64]);
//! inputs.insert("y".to_string(), vec![0.25; 64]);
//! let noisy = simulate(&compiled.scheduled, &inputs, &NoiseModel::default()).unwrap();
//!
//! // 4. Check it against the one oracle, the clear-value interpreter.
//! let reference = plain::execute(&program, &inputs);
//! assert!(plain::max_abs_diff(&noisy, &reference) < 1e-3);
//! # Ok::<(), fhe_reserve::compiler::CompileError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fhe_analysis as analysis;
pub use fhe_baselines as baselines;
pub use fhe_ckks as ckks;
pub use fhe_ir as ir;
pub use fhe_runtime as runtime;
pub use fhe_serve as serve;
pub use fhe_workloads as workloads;
pub use reserve_core as compiler;

pub mod lint;

/// The most common imports in one place.
pub mod prelude {
    pub use fhe_baselines::{EvaCompiler, HecateCompiler};
    pub use fhe_ir::pipeline::{CompileReport, Compiled, PipelineTrace, ScaleCompiler};
    pub use fhe_ir::{Builder, CompileParams, CostModel, Expr, Frac, Program, ScheduledProgram};
    pub use fhe_runtime::{
        execute_encrypted, outputs_close, plain, simulate, ExecOptions, ExecReport, NoiseModel,
    };
    pub use fhe_serve::{FheServer, Request, ServeError, ServerConfig};
    pub use fhe_workloads::{suite, Size, Workload};
    pub use reserve_core::{Mode, ReserveCompiler};
}
