//! `fhec` — command-line FHE scale-management compiler.
//!
//! Reads a program in the textual IR format, compiles it with the selected
//! scale-management scheme, and prints the scheduled program and/or
//! statistics.
//!
//! ```sh
//! cargo run --release --bin fhec -- program.fhe --waterline 30 --emit text
//! cargo run --release --bin fhec -- program.fhe --compiler eva --emit stats
//! cargo run --release --bin fhec -- program.fhe --run --workers 4
//! ```
//!
//! `--run` executes the compiled schedule on the encrypted backend
//! (deterministic inputs derived from the input names, the fuzz harness's
//! convention) and reports walk telemetry: runners, fused
//! mul·relin·rescale pairs, hoisted rotation groups, linear-combination
//! groups, and the walk time.
//! `--workers 0` (the default) sizes the walk to the host; `--workers 1`
//! is the serial executor; `--no-fusion` disables the fused kernel. Outputs are bit-identical for every worker
//! count and fusion setting. It also prints the backend's total modulus
//! `log₂(Q·P)` — the chain plus the key-switching special primes — and the
//! security level it meets under the HE standard's table, if any, and the
//! session's key bytes beside the compile report's static `key_bytes`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use fhe_reserve::ckks::security::{self, SecurityLevel};
use fhe_reserve::ckks::{special_prime_count, CkksParams};
use fhe_reserve::ir::text;
use fhe_reserve::prelude::*;
use fhe_reserve::runtime::{backend_params, execute_parallel, ExecOptions, ParOptions};

struct Cli {
    input: String,
    params: CompileParams,
    compiler: String,
    mode: Mode,
    emit: String,
    run: bool,
    workers: usize,
    fusion: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut input = None;
    let mut waterline = 30u32;
    let mut compiler = "reserve".to_string();
    let mut mode = Mode::Full;
    let mut emit = "stats".to_string();
    let mut run = false;
    let mut workers = 0usize;
    let mut fusion = true;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--waterline" | "-w" => {
                waterline = args
                    .next()
                    .ok_or("--waterline needs a value")?
                    .parse()
                    .map_err(|e| format!("bad waterline: {e}"))?;
            }
            "--compiler" | "-c" => {
                compiler = args.next().ok_or("--compiler needs eva|hecate|reserve")?;
            }
            "--mode" | "-m" => {
                mode = match args.next().as_deref() {
                    Some("ba") => Mode::Ba,
                    Some("ra") => Mode::Ra,
                    Some("full") => Mode::Full,
                    other => return Err(format!("bad --mode {other:?} (ba|ra|full)")),
                };
            }
            "--emit" | "-e" => {
                emit = args.next().ok_or("--emit needs text|stats|both")?;
            }
            "--run" => run = true,
            "--workers" | "-j" => {
                workers = args
                    .next()
                    .ok_or("--workers needs a count (0 = auto)")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
            }
            "--no-fusion" => fusion = false,
            "--help" | "-h" => {
                return Err("usage: fhec <program.fhe> [--waterline N] \
                            [--compiler eva|hecate|reserve] [--mode ba|ra|full] \
                            [--emit text|stats|both] [--run] [--workers N] [--no-fusion]"
                    .to_string())
            }
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let params = CompileParams {
        waterline_bits: waterline,
        ..CompileParams::default()
    };
    params.validate()?;
    Ok(Cli {
        input: input.ok_or("missing input file (try --help)")?,
        params,
        compiler,
        mode,
        emit,
        run,
        workers,
        fusion,
    })
}

/// One line on the backend's total modulus and the security level it meets.
fn security_line(params: &CkksParams) -> String {
    let bits = security::total_modulus_bits(params);
    let met = [
        (SecurityLevel::Bits256, 256),
        (SecurityLevel::Bits192, 192),
        (SecurityLevel::Bits128, 128),
    ]
    .into_iter()
    .find(|&(level, _)| security::meets(params, level) == Some(true));
    let verdict = match met {
        Some((_, level)) => format!("meets {level}-bit security"),
        None => match security::max_modulus_bits(params.poly_degree, SecurityLevel::Bits128) {
            Some(cap) => format!("below 128-bit security (cap {cap} bits)"),
            None => "below 128-bit security (N below the standard's table)".to_string(),
        },
    };
    format!(
        "run: log2(Q·P) = {bits} bits (L = {} chain + α = {} special primes) at N = {}: {verdict}",
        params.max_level,
        special_prime_count(params.max_level),
        params.poly_degree,
    )
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&cli.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", cli.input);
            return ExitCode::FAILURE;
        }
    };
    let program = match text::parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", cli.input);
            return ExitCode::FAILURE;
        }
    };

    let Some(registered) = fhe_reserve::serve::compiler_for(&cli.compiler) else {
        eprintln!("unknown compiler `{}` (eva|hecate|reserve)", cli.compiler);
        return ExitCode::from(2);
    };
    // The registry holds the full reserve compiler; `--mode` picks its ablation.
    let reserve = registered.name() == Mode::Full.label();
    let compiler: Box<dyn ScaleCompiler> = if reserve {
        Box::new(ReserveCompiler::with_mode(cli.mode))
    } else {
        registered
    };
    let label = if reserve { "reserve" } else { compiler.name() };
    let Compiled { scheduled, report } = match compiler.compile(&program, &cli.params) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{label}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if cli.emit == "text" || cli.emit == "both" {
        print!("{}", text::print(&scheduled.program));
    }
    if cli.emit == "stats" || cli.emit == "both" {
        let (rs, ms, us) = scheduled.scale_management_counts();
        eprintln!(
            "{label}: W=2^{} level={} ops={} rescale={rs} modswitch={ms} upscale={us} \
             est_latency={:.2}ms sm_time={:?}",
            cli.params.waterline_bits,
            report.max_level,
            scheduled.program.num_ops(),
            report.estimated_latency_us / 1000.0,
            report.scale_management_time,
        );
        for (i, spec) in scheduled.inputs.iter().enumerate() {
            eprintln!(
                "  input {i}: scale 2^{}, level {}",
                spec.scale_bits, spec.level
            );
        }
    }
    if cli.run {
        let inputs = fhe_fuzz::input_data(&scheduled.program);
        let options = ParOptions {
            exec: ExecOptions {
                poly_degree: scheduled.program.slots() * 2,
                seed: 0xF4EC,
                threads: 1,
                ..ExecOptions::default()
            },
            workers: cli.workers,
            fusion: cli.fusion,
        };
        eprintln!(
            "{}",
            security_line(&backend_params(
                &options.exec,
                report.max_level as usize,
                scheduled.params.rescale_bits,
            ))
        );
        let memory = report.memory;
        let report = match execute_parallel(&scheduled, &inputs, &options) {
            Ok(r) => r,
            Err(errors) => {
                for e in errors {
                    eprintln!("run: {e}");
                }
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "run: {} runners, {} ops, {} fused mul·relin·rescale, {} hoisted rotation \
             groups, {} linear-combination groups, {} safety obligations discharged",
            report.workers,
            report.ops_executed,
            report.fused,
            report.hoisted_groups,
            report.linear_groups,
            report.safety_obligations,
        );
        let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
        eprintln!(
            "run: walk {:?} (op phase {:?}, total {:?}), peak memory {:.2} MiB, \
             max |error| vs plaintext reference {:.3e}",
            report.walk_time,
            report.op_time,
            report.total_time,
            mib(report.mem.peak_bytes),
            plain::max_abs_diff(
                &report.outputs,
                &plain::execute(&scheduled.program, &inputs)
            ),
        );
        eprintln!(
            "run: keys {:.2} MiB in the session (lazy Galois keys at their ops' levels), \
             {:.2} MiB in the compile report's static model (every key eager)",
            mib(report.mem.key_bytes),
            mib(memory.key_bytes),
        );
        for (i, out) in report.outputs.iter().enumerate() {
            let head: Vec<String> = out.iter().take(4).map(|v| format!("{v:.6}")).collect();
            let ell = if out.len() > 4 { ", …" } else { "" };
            println!("output {i}: [{}{ell}]", head.join(", "));
        }
    }
    ExitCode::SUCCESS
}
