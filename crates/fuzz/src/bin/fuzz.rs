//! Differential fuzzing CLI.
//!
//! ```text
//! fuzz --seed 1 --count 1000 --json fuzz.json
//! ```
//!
//! Runs seeds `S..S+N`, each through every compiler and executor (the
//! encrypted backend on every `--ckks-every`-th seed). Any divergence is
//! shrunk to a minimal reproducer and written into `--shrunk-dir`; the
//! process exits non-zero if any seed diverged.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fhe_fuzz::{check_program, corpus, generate, shrink, GenConfig, OpMix, OracleConfig};
use fhe_ir::json::Json;

struct Args {
    seed: u64,
    count: u64,
    gen_cfg: GenConfig,
    oracle_cfg: OracleConfig,
    ckks_every: u64,
    json: Option<PathBuf>,
    shrunk_dir: PathBuf,
    no_shrink: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed S] [--count N] [--opmix k=w,…] [--json PATH]
            [--ckks-every K] [--no-ckks] [--waterline BITS] [--max-ops N]
            [--slots N] [--width-stress N] [--hecate-iters N] [--ablations]
            [--shrunk-dir DIR] [--no-shrink] [--quiet]

Generates N seeded programs and cross-checks Reserve/EVA/Hecate schedules
under the plain, noise-sim and encrypted executors. Divergences are shrunk
to minimal reproducers in DIR (default fuzz-failures/)."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        count: 100,
        gen_cfg: GenConfig::default(),
        oracle_cfg: OracleConfig::default(),
        ckks_every: 1,
        json: None,
        shrunk_dir: PathBuf::from("fuzz-failures"),
        no_shrink: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => args.seed = parse_or_usage(&value(&mut it, "--seed")),
            "--count" => args.count = parse_or_usage(&value(&mut it, "--count")),
            "--opmix" => {
                args.gen_cfg.opmix = OpMix::parse(&value(&mut it, "--opmix")).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--json" => args.json = Some(PathBuf::from(value(&mut it, "--json"))),
            "--ckks-every" => args.ckks_every = parse_or_usage(&value(&mut it, "--ckks-every")),
            "--no-ckks" => args.oracle_cfg.run_ckks = false,
            "--waterline" => {
                args.oracle_cfg.params.waterline_bits =
                    parse_or_usage(&value(&mut it, "--waterline"));
                if let Err(e) = args.oracle_cfg.params.validate() {
                    eprintln!("--waterline: {e}");
                    usage()
                }
            }
            "--max-ops" => args.gen_cfg.max_ops = parse_or_usage(&value(&mut it, "--max-ops")),
            "--slots" => args.gen_cfg.slots = parse_or_usage(&value(&mut it, "--slots")),
            "--width-stress" => {
                args.gen_cfg.width_stress = parse_or_usage(&value(&mut it, "--width-stress"))
            }
            "--hecate-iters" => {
                args.oracle_cfg.hecate_iterations =
                    parse_or_usage(&value(&mut it, "--hecate-iters"))
            }
            "--ablations" => args.oracle_cfg.include_ablations = true,
            "--shrunk-dir" => args.shrunk_dir = PathBuf::from(value(&mut it, "--shrunk-dir")),
            "--no-shrink" => args.no_shrink = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.gen_cfg.min_ops > args.gen_cfg.max_ops {
        args.gen_cfg.min_ops = args.gen_cfg.max_ops;
    }
    args
}

fn parse_or_usage<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric value `{s}`");
        usage()
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    // Panics in compilers/executors are findings the oracle catches;
    // suppress the default hook's backtrace spam.
    std::panic::set_hook(Box::new(|_| {}));

    let t0 = Instant::now();
    let mut programs = 0u64;
    let mut ops_total = 0usize;
    let mut ckks_seeds = 0u64;
    let mut ckks_schedules_run = 0u64;
    let mut ckks_schedules_skipped = 0u64;
    let mut linear_groups_run = 0u64;
    let mut hoists_applied = 0u64;
    let mut findings: Vec<Json> = Vec::new();
    let mut divergent_seeds = 0u64;

    for seed in args.seed..args.seed + args.count {
        let mut cfg = args.oracle_cfg.clone();
        cfg.run_ckks =
            args.oracle_cfg.run_ckks && (seed - args.seed).is_multiple_of(args.ckks_every.max(1));
        ckks_seeds += u64::from(cfg.run_ckks);
        let program = generate(seed, &args.gen_cfg);
        programs += 1;
        ops_total += program.num_ops();
        let run = check_program(&program, &cfg);
        ckks_schedules_run += run.ckks_schedules_run;
        ckks_schedules_skipped += run.ckks_schedules_skipped;
        linear_groups_run += run.linear_groups_run;
        hoists_applied += run.hoists_applied;
        let divergences = run.divergences;
        if divergences.is_empty() {
            continue;
        }
        divergent_seeds += 1;
        eprintln!("seed {seed}: {} divergence(s)", divergences.len());
        for d in &divergences {
            eprintln!("  {d}");
        }
        let first = &divergences[0];
        let label = first.label();
        let reproducer = if args.no_shrink {
            program.clone()
        } else {
            shrink(&program, &label, &|p| check_program(p, &cfg).divergences)
        };
        let stem = format!("seed_{seed}_{}", label.replace([':', '~', '/'], "_"));
        match corpus::write_case(
            &args.shrunk_dir,
            &stem,
            &reproducer,
            &cfg.params,
            &label,
            &first.detail,
        ) {
            Ok(path) => eprintln!("  shrunk reproducer: {}", path.display()),
            Err(e) => eprintln!("  failed to write reproducer: {e}"),
        }
        findings.push(Json::obj([
            ("seed", Json::from(seed as f64)),
            ("label", Json::from(label.as_str())),
            ("detail", Json::from(first.detail.as_str())),
            ("divergences", Json::from(divergences.len())),
            ("shrunk_ops", Json::from(reproducer.num_ops())),
        ]));
    }

    let elapsed = t0.elapsed().as_secs_f64();
    if !args.quiet {
        println!(
            "fuzz: {programs} programs ({ops_total} ops) in {elapsed:.1}s, \
             {ckks_seeds} seeds with the encrypted column on: \
             {ckks_schedules_run} schedules encrypted, \
             {ckks_schedules_skipped} skipped as not fitting the backend, \
             {linear_groups_run} linear-combination groups accumulated, \
             {hoists_applied} rescales hoisted; \
             {divergent_seeds} divergent seed(s)"
        );
    }
    if let Some(path) = &args.json {
        let report = Json::obj([
            ("seed", Json::from(args.seed as f64)),
            ("count", Json::from(args.count as f64)),
            ("programs", Json::from(programs as f64)),
            ("ops", Json::from(ops_total)),
            ("ckks_seeds", Json::from(ckks_seeds as f64)),
            ("ckks_schedules_run", Json::from(ckks_schedules_run as f64)),
            (
                "ckks_schedules_skipped",
                Json::from(ckks_schedules_skipped as f64),
            ),
            ("linear_groups_run", Json::from(linear_groups_run as f64)),
            ("hoists_applied", Json::from(hoists_applied as f64)),
            ("divergent_seeds", Json::from(divergent_seeds as f64)),
            ("elapsed_s", Json::from(elapsed)),
            (
                "waterline_bits",
                Json::from(args.oracle_cfg.params.waterline_bits),
            ),
            ("findings", Json::Array(findings)),
        ]);
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !args.quiet {
            println!("wrote {}", path.display());
        }
    }
    if divergent_seeds > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
