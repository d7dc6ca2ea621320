//! Differential fuzzing for the scale-management pipeline.
//!
//! The paper's claim is semantic: every compiler (Reserve, EVA, Hecate)
//! must produce schedules that compute the *same function* as the source
//! program, up to CKKS noise, while respecting the scale/level type
//! system. Eight hand-written workloads cannot cover the op-mix space, so
//! this crate turns the pipeline into its own oracle:
//!
//! * [`gen`] — seeded random [`fhe_ir::Program`] generator with
//!   configurable op mix, depth and magnitude budgets;
//! * [`oracle`] — the differential harness: all compilers × all
//!   executors, schedule type-system invariants, metamorphic
//!   pass-preservation, textual round-trip;
//! * [`mod@shrink`] — greedy minimizer preserving the failure label;
//! * [`corpus`] — textual reproducers (committed under `tests/corpus/`)
//!   that replay from the file alone.
//!
//! The `fuzz` binary drives a seed range from the command line; the
//! bounded smoke run and corpus replay live in the workspace-level
//! `tests/fuzz_smoke.rs`.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use corpus::{load_dir, parse_case, render_case, write_case, CorpusCase};
pub use fhe_runtime::plain::schedule_fits_backend;
pub use gen::{generate, GenConfig, OpMix};
pub use oracle::{
    check_program, compilers, input_data, structural_diff, Divergence, DivergenceKind,
    OracleConfig, OracleRun,
};
pub use shrink::shrink;

/// Outcome of fuzzing one seed.
#[derive(Debug, Clone)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// The generated program.
    pub program: fhe_ir::Program,
    /// Every divergence the oracle found (empty = clean).
    pub divergences: Vec<Divergence>,
    /// Schedules executed under encryption ([`OracleRun::ckks_schedules_run`]).
    pub ckks_schedules_run: u64,
    /// Schedules the encrypted column skipped as not fitting the backend
    /// ([`OracleRun::ckks_schedules_skipped`]).
    pub ckks_schedules_skipped: u64,
    /// Linear-combination groups accumulated
    /// ([`OracleRun::linear_groups_run`]).
    pub linear_groups_run: u64,
    /// Rescale hoists applied ([`OracleRun::hoists_applied`]).
    pub hoists_applied: u64,
}

/// Generates the program for `seed` and runs the full oracle on it.
pub fn run_seed(seed: u64, gen_cfg: &GenConfig, oracle_cfg: &OracleConfig) -> SeedResult {
    let program = generate(seed, gen_cfg);
    let run = check_program(&program, oracle_cfg);
    SeedResult {
        seed,
        program,
        divergences: run.divergences,
        ckks_schedules_run: run.ckks_schedules_run,
        ckks_schedules_skipped: run.ckks_schedules_skipped,
        linear_groups_run: run.linear_groups_run,
        hoists_applied: run.hoists_applied,
    }
}
