//! # fhe-ir — an SSA IR for RNS-CKKS programs
//!
//! This crate is the substrate shared by every scale-management compiler in
//! the workspace (the reserve compiler of the paper, and the EVA / Hecate
//! baselines). It provides:
//!
//! - a tiny SSA [`Program`] DAG over encrypted vectors with the arithmetic
//!   ops of the paper's Fig. 4 plus the three scale-management ops of
//!   Table 2 ([`Op`]);
//! - an ergonomic [`Builder`] front-end with `+`, `-`, `*` operators;
//! - dataflow [`analysis`] (multiplicative depth, liveness, §6.1 level
//!   estimates);
//! - the shared [`passes::cleanup`] (algebraic identities, constant
//!   folding, CSE, DCE) in one forward sweep;
//! - the slot [`semantics`] of every op on clear `f64` vectors, shared by
//!   constant folding and the runtime's clear-value interpreter;
//! - a textual format ([`text`]) for printing and parsing programs;
//! - the RNS-CKKS legality validator ([`ScheduledProgram::validate`]), the
//!   shared correctness oracle for compiled programs;
//! - the latency [`CostModel`] seeded with the paper's Table 3; and
//! - the instrumented [`pipeline`] every compiler is built on: a compile
//!   context ([`PassCx`]) recording each phase into a [`PipelineTrace`],
//!   with all compilers unified behind the [`ScaleCompiler`] trait
//!   producing a uniform [`CompileReport`].
//!
//! # Example
//!
//! Build the paper's running example `x³ · (y² + y)` and inspect it:
//!
//! ```
//! use fhe_ir::{Builder, analysis};
//! let b = Builder::new("example", 4096);
//! let x = b.input("x");
//! let y = b.input("y");
//! let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
//! let program = b.finish(vec![q]);
//! assert_eq!(analysis::circuit_depth(&program), 3);
//! println!("{}", fhe_ir::text::print(&program));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analysis;
mod builder;
pub mod cost;
pub mod depgraph;
pub mod diag;
mod frac;
pub mod fusion;
pub mod hash;
pub mod json;
pub mod memory;
mod op;
mod params;
pub mod passes;
pub mod pipeline;
mod program;
mod schedule;
pub mod semantics;
pub mod text;

pub use builder::{Builder, Expr};
pub use cost::{CostModel, OpClass};
pub use depgraph::{DepConsumer, DepGraph, DepKind, DepNode, ParallelismEstimate};
pub use diag::{Finding, Severity, TvVerdict};
pub use frac::Frac;
pub use fusion::{BlockedFusion, Blocker, FusionPlan};
pub use memory::{estimate_memory, key_levels, KeyLevels, MemoryEstimate};
pub use op::{ConstValue, Op, OperandIter, SlotVector, ValueId};
pub use params::CompileParams;
pub use pipeline::{
    CompileError, CompileReport, Compiled, PassCx, PassError, PassKind, PassRecord, PipelineTrace,
    ScaleCompiler,
};
pub use program::{Program, ProgramEditor};
pub use schedule::{InputSpec, ScaleMap, ScheduleError, ScheduledProgram};
