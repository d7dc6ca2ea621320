//! The four workloads. All compile at W = 2^40 with 8 bits of output
//! reserve and R = 2^60: the pair verified to execute correctly under both
//! reserve and EVA (W = 2^30 makes a reserve schedule panic on mismatched
//! operand scales, and EVA silently decrypts garbage at W = 2^30 and 2^45).

use std::path::PathBuf;

use fhe_ir::CompileParams;

use crate::measure::Gate;
use crate::oracle::Tally;
use crate::spec::Metrics;

pub mod exec;
pub mod lenet;
pub mod serve;

/// What the command line asked of one workload run.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub traced: bool,
    /// Where the traced run writes `<workload>.trace.json`.
    pub trace_dir: PathBuf,
    /// Rewrite the committed digests instead of checking them.
    pub bless: bool,
}

/// What one workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// How far one thread's speed moved across the workload, in percent,
    /// and the share of probes that found the machine quiet (see `Gate`).
    pub noise_pct: f64,
    pub quiet_share: f64,
}

pub fn params() -> CompileParams {
    CompileParams {
        output_reserve_bits: 8,
        ..CompileParams::new(40)
    }
}

/// Runs the named workload under a [`Gate`] opened before its set-up and
/// probed once more after its last sample; `None` for a name that is not one.
pub fn run(name: &str, cfg: &Config) -> Option<Outcome> {
    let mut gate = Gate::open();
    let mut outcome = match name {
        "pr-deep" => exec::run(exec::Kind::PrDeep, cfg, &mut gate),
        "mlp-wide" => exec::run(exec::Kind::MlpWide, cfg, &mut gate),
        "lenet-compile" => lenet::run(cfg, &mut gate),
        "serve-mix" => serve::run(cfg, &mut gate),
        _ => return None,
    };
    gate.quiet();
    outcome.noise_pct = gate.noise_pct();
    outcome.quiet_share = gate.quiet_share();
    Some(outcome)
}
