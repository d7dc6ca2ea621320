//! # fhe-runtime — executors and estimators for scheduled programs
//!
//! Three ways to run a compiled ([`fhe_ir::ScheduledProgram`]) RNS-CKKS
//! program:
//!
//! - [`plain`]: exact plaintext reference execution (the semantics oracle);
//! - [`noise_sim`]: plaintext execution with the scheme's scale-dependent
//!   noise injected per op — drives the paper's error comparison (Fig. 7)
//!   at a tiny fraction of encrypted cost;
//! - [`ckks_exec`]: real encrypted execution on the `fhe-ckks` backend with
//!   wall-clock timing — one walker over the schedule's dependence DAG,
//!   serial at one runner;
//!
//! one way to bound its error without running it — [`error_est`]:
//! closed-form worst-case error bounds (an ELASM-style extension beyond the
//! paper; static *latency* is [`fhe_ir::CostModel::program_cost`], which
//! every [`fhe_ir::CompileReport`] already carries) — plus [`microbench`],
//! which measures this repo's own Table 3.
//!
//! The three executors are unified behind the [`Executor`] trait
//! ([`executor`]): each returns the same [`Execution`] artifact (outputs +
//! plaintext reference + [`ExecTrace`] with per-op-class timing), and the
//! encrypted/plain output-diff check is the shared [`outputs_close`]
//! helper.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ckks_exec;
pub mod error_est;
pub mod executor;
pub mod microbench;
pub mod noise_sim;
pub mod plain;

pub use ckks_exec::{
    execute as execute_encrypted, execute_parallel, execute_parallel_with_keys, execute_with_keys,
    rotation_steps, ExecOptions, ExecReport, KeyPolicy, ParOptions, ParReport, SessionKeys,
};
pub use error_est::{estimate_error, select_waterline, ErrorEstimateOptions};
pub use executor::{
    max_abs_diff, outputs_close, CkksExec, ExecTrace, Execution, Executor, MemStats, NoiseSimExec,
    PlainExec,
};
pub use noise_sim::{simulate, NoiseModel, NoisyRun};
