//! # fhe-baselines — the EVA and Hecate scale-management baselines
//!
//! Re-implementations of the two compilers the Reserve paper evaluates
//! against:
//!
//! - [`eva`]: conservative forward waterline scale analysis (PLDI'20);
//! - [`hecate`]: exploration-based scale management with hill climbing
//!   (CGO'22).
//!
//! Both share the [`forward`] legalizer and emit [`fhe_ir::ScheduledProgram`]s
//! checked by the same validator as the reserve compiler, so latency, error
//! and compile-time comparisons are apples-to-apples. Each is one struct,
//! [`EvaCompiler`] and [`HecateCompiler`] (whose fields are the exploration
//! budget, patience and seed), and compiles only through its
//! [`ScaleCompiler`] impl, recording its phases through the workspace-wide
//! compile context ([`fhe_ir::pipeline`]) into the same [`CompileReport`] as
//! the reserve compiler.
//!
//! # Example
//!
//! ```
//! use fhe_baselines::{EvaCompiler, ScaleCompiler};
//! use fhe_ir::{Builder, CompileParams};
//! let b = Builder::new("t", 64);
//! let x = b.input("x");
//! let p = b.finish(vec![x.clone() * x]);
//! let eva = EvaCompiler.compile(&p, &CompileParams::new(20))?;
//! assert!(eva.scheduled.validate().is_ok());
//! assert_eq!(eva.report.compiler, "EVA");
//! # Ok::<(), fhe_baselines::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod eva;
pub mod forward;
pub mod hecate;

pub use eva::EvaCompiler;
pub use fhe_ir::pipeline::{CompileError, CompileReport, Compiled, ScaleCompiler};
pub use forward::{legalize, ForwardPlan, LegalizeError};
pub use hecate::HecateCompiler;
