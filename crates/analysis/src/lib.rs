//! # fhe-analysis — abstract interpretation, lints, and translation
//! validation for RNS-CKKS programs
//!
//! The paper's central soundness hypothesis (Table 1) is `m · x_max < Q`:
//! the message magnitude times the encoding scale must fit the coefficient
//! modulus. The differential fuzzer *samples* this; the analyses here
//! *prove* it per program — exploration-free, like the reserve compiler
//! itself. The crate provides:
//!
//! - a tiny abstract-interpretation framework over the SSA DAG
//!   ([`AbstractDomain`], [`analyze`]) — programs are DAGs, so one forward
//!   sweep in topological order is a complete fixpoint;
//! - pluggable domains: slot-magnitude [`interval`]s (proving
//!   `m·x_max < Q` statically or pinpointing the op where overflow becomes
//!   possible), scale/level/reserve tracking via the validator's
//!   [`ScaleMap`](fhe_ir::ScaleMap), and a [`noise`] budget domain — the
//!   workspace's one static error bound, with waterline selection on top;
//! - a [`lint`] engine walking domain results into rustc-style diagnostics
//!   (`F001 possible-overflow` … `F005 over-provisioned-modulus`) rendered
//!   with carets into the textual IR by [`render`];
//! - a [`tv`] (translation validation) pass proving a compiler's
//!   [`ScheduledProgram`](fhe_ir::ScheduledProgram) equals its source
//!   [`Program`](fhe_ir::Program) modulo inserted scale-management ops,
//!   by structural bisimulation over the DAG; and
//! - a [`parallel`]-safety checker proving — over the dependence DAG of
//!   `fhe_ir::depgraph` — that any topological-order-respecting parallel
//!   execution is race-free under the runtime's last-use freeing and pool
//!   recycling; and
//! - [`passes`], the tail every compiler ends with, running all of it over
//!   the finished schedule so every
//!   [`CompileReport`](fhe_ir::CompileReport) carries findings, a TV
//!   verdict, and a parallelism profile.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod domain;
pub mod interval;
pub mod lint;
pub mod noise;
pub mod parallel;
pub mod passes;
pub mod render;
pub mod tv;

pub use domain::{analyze, AbstractDomain, AnalysisCx};
pub use interval::{Interval, IntervalDomain};
pub use lint::{explain, lint_scheduled, lint_validated, registry, LintInfo, LintOptions};
pub use noise::{select_waterline, MagnitudeSource, NoiseDomain};
pub use parallel::{SafetyReport, Violation};
pub use passes::finish_verified;
pub use render::{render_finding, render_parse_error, SourceMap};
pub use tv::{validate, TvMismatch, TvReport};
