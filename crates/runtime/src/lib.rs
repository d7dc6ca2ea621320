//! # fhe-runtime — executors for scheduled programs
//!
//! Three ways to run a compiled ([`fhe_ir::ScheduledProgram`]) RNS-CKKS
//! program, each returning only the outputs it computed:
//!
//! - [`plain`]: exact plaintext reference execution — the one clear-value
//!   semantics of the IR, and the oracle everything else is checked against
//!   ([`plain::execute`] returns the outputs, [`plain::values`] every value);
//! - [`noise_sim`]: that same interpreter with the scheme's scale-dependent
//!   noise injected per op ([`simulate`] returns the noisy outputs) — drives
//!   the paper's error comparison (Fig. 7) at a tiny fraction of encrypted
//!   cost;
//! - [`ckks_exec`]: real encrypted execution on the `fhe-ckks` backend with
//!   wall-clock timing ([`ExecReport`]) — one walker over the schedule's
//!   dependence DAG, serial at one runner, whose runner loop and thread
//!   budget are [`walk`];
//!
//! plus [`microbench`], which measures this repo's own Table 3. A caller
//! that checks a run computes the reference once with [`plain::execute`]
//! and compares with [`max_abs_diff`] / [`outputs_close`]. Bounding the error
//! *without* running is `fhe_analysis::NoiseDomain::output_bounds`; static
//! latency is [`fhe_ir::CostModel::program_cost`], which every
//! [`fhe_ir::CompileReport`] already carries.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ckks_exec;
pub mod microbench;
pub mod noise_sim;
pub mod plain;
pub mod walk;

pub use ckks_exec::{
    backend_params, execute as execute_encrypted, execute_parallel, execute_parallel_with_keys,
    execute_with_keys, rotation_steps, ExecOptions, ExecReport, KeyPolicy, MemStats, ParOptions,
    ParReport, SessionKeys,
};
pub use noise_sim::{simulate, NoiseModel};
pub use plain::{max_abs_diff, outputs_close};
