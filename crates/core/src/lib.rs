//! # reserve-core — performance-aware scale analysis with reserve
//!
//! The primary contribution of *"Performance-aware Scale Analysis with
//! Reserve for Homomorphic Encryption"* (ASPLOS 2024): an exploration-free,
//! performance-aware scale-management compiler for RNS-CKKS programs.
//!
//! The pipeline:
//!
//! 1. **Allocation ordering** ([`ordering`], §6.1) — estimate each op's
//!    latency from its multiplicative depth and visit heavy dependence
//!    chains first.
//! 2. **Reserve allocation** ([`alloc`], §6.2) — walk backward from the
//!    outputs, assigning each ciphertext a *reserve* `ρ = log_R(Q/m)` from
//!    the typing rules of Fig. 5.
//! 3. **Reserve redistribution** ([`alloc`], §6.3) — shave avoidable level
//!    mismatches off multiplications by shifting budget to sibling operands.
//! 4. **Type checking** ([`types`], §5) — independently certify the
//!    solution against the reserve type system.
//! 5. **Rescale placement** ([`placement`], §7) — materialize the solution
//!    with `rescale`/`modswitch`/`upscale` ops.
//! 6. **Rescale hoisting** ([`hoist`], §7) — merge rescales past additions
//!    when the cost model says it pays.
//!
//! [`ReserveCompiler`] is the one way in: its fields pick the ablation
//! [`Mode`], the cost model and the [`OrderingStrategy`], and its
//! [`ScaleCompiler::compile`] runs the pipeline under per-call
//! [`fhe_ir::CompileParams`].
//!
//! # Example
//!
//! Compile the paper's running example `x³ · (y² + y)`:
//!
//! ```
//! use fhe_ir::{Builder, CompileParams};
//! use reserve_core::{ReserveCompiler, ScaleCompiler};
//! let b = Builder::new("example", 4096);
//! let x = b.input("x");
//! let y = b.input("y");
//! let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
//! let program = b.finish(vec![q]);
//! let out = ReserveCompiler::full().compile(&program, &CompileParams::new(20))?;
//! assert_eq!(out.report.max_level, 2);
//! # Ok::<(), reserve_core::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod alloc;
mod compiler;
pub mod hoist;
pub mod ordering;
pub mod placement;
pub mod types;

pub use alloc::{allocate, ReserveSolution};
pub use compiler::{Mode, OrderingStrategy, ReserveCompiler};
pub use fhe_ir::pipeline::{CompileError, CompileReport, ScaleCompiler};
pub use ordering::{allocation_order, naive_order, AllocationOrder};
pub use placement::place;
