//! The repository's one benchmark. Three ways in:
//!
//! ```text
//! fhe-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>] [--bless]
//! fhe-benchmark run [--seed <n>] [--seconds <s>] [--out <file>] [--trace <dir>] [--bless]
//! fhe-benchmark check <A.json> <B.json>
//! ```
//!
//! The first runs one workload and ends its standard output with one JSON
//! object: `--trace 0` gives the end-to-end metrics with tracing off,
//! `--trace 1` the per-layer metrics of the traced run (which also writes
//! `<workload>.trace.json`, by default under `benchmark/out/`). `run` does
//! that for every workload, each in a process of its own as the driver
//! runs them, and writes a result file with the host record;
//! `check` holds two result files against the bounds. See `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

mod alloc;
mod json;
mod layers;
mod measure;
mod oracle;
mod spec;
mod trace;
mod workloads;

use json::Json;
use workloads::Config;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  fhe-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  fhe-benchmark run [--seed <n>] [--seconds <s>] [--out <file>] [--trace <dir>] [--bless]
  fhe-benchmark check <A.json> <B.json>
  fhe-benchmark spec";

/// A run whose spin probe moved more than this is not evidence of anything.
const NOISE_LIMIT_PCT: f64 = 10.0;

fn default_trace_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `--flag value` pairs after the subcommand; anything else is an error.
fn flags(
    args: &[String],
    known: &[&str],
    switches: &[&str],
) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if switches.contains(&flag.as_str()) {
            out.push((flag.clone(), String::new()));
        } else if known.contains(&flag.as_str()) {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            out.push((flag.clone(), value.clone()));
        } else {
            return Err(format!("unknown argument `{flag}`"));
        }
    }
    Ok(out)
}

fn value<T: std::str::FromStr>(
    flags: &[(String, String)],
    flag: &str,
) -> Result<Option<T>, String> {
    flags
        .iter()
        .find(|(f, _)| f == flag)
        .map(|(_, v)| v.parse().map_err(|_| format!("bad value `{v}` for {flag}")))
        .transpose()
}

/// Runs one workload in this process, prints its rows and ends standard
/// output with the contract's result object.
fn contract(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-dir",
        ],
        &["--bless"],
    )?;
    let name: String = value(&flags, "--workload")?.ok_or("--workload is required")?;
    let cfg = Config {
        seed: value(&flags, "--seed")?.ok_or("--seed is required")?,
        seconds: value(&flags, "--seconds")?.ok_or("--seconds is required")?,
        traced: match value::<u8>(&flags, "--trace")?.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        trace_dir: value(&flags, "--trace-dir")?.unwrap_or_else(default_trace_dir),
        bless: flags.iter().any(|(f, _)| f == "--bless"),
    };
    let mut outcome = workloads::run(&name, &cfg).ok_or(format!("no workload `{name}`"))?;
    if cfg.traced {
        outcome.metrics.set("bench.noise_pct", outcome.noise_pct);
        outcome
            .metrics
            .set("bench.quiet_share", outcome.quiet_share);
    }
    let rows = outcome.metrics.rows(cfg.traced);
    for (metric, value, unit) in &rows {
        println!("{name:<14} {metric:<34} {value:>16.6} {unit}");
    }
    for note in &outcome.tally.notes {
        eprintln!("{name}: FAILED {note}");
    }
    eprintln!(
        "{name}: the machine was quiet at {:.0} % of the probes, one thread's speed moved {:.1} %",
        outcome.quiet_share * 100.0,
        outcome.noise_pct
    );
    // An end-to-end metric that was never set means the run died early;
    // that run is not correct, whatever else it says.
    let complete = cfg.traced
        || rows
            .iter()
            .all(|(metric, _, _)| outcome.metrics.get(metric).is_some());
    let result = Json::obj([
        ("correct", Json::from(outcome.tally.correct() && complete)),
        ("attempted", outcome.tally.attempted.max(1).into()),
        ("failed", outcome.tally.failed.into()),
        (
            "metrics",
            Json::obj(rows.iter().map(|&(metric, value, unit)| {
                (
                    metric,
                    Json::obj([("value", Json::from(value)), ("unit", unit.into())]),
                )
            })),
        ),
    ]);
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a process of its own, exactly as the driver does:
/// an execution's wall time depends on what the allocator saw before it,
/// so workloads must not share a heap. Echoes the child's rows and returns
/// its result object.
fn in_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (rows, result) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{rows}");
    if !output.status.success() {
        return Err(format!("`{}` ended with {}", args.join(" "), output.status));
    }
    Json::parse(result)
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(
        args,
        &["--seed", "--seconds", "--out", "--trace"],
        &["--bless"],
    )?;
    let seed: u64 = value(&flags, "--seed")?.unwrap_or(oracle::DEFAULT_SEED);
    let seconds: f64 = value(&flags, "--seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    let trace_dir: Option<String> = value(&flags, "--trace")?;
    let out: Option<PathBuf> = value(&flags, "--out")?;
    let bless = flags.iter().any(|(f, _)| f == "--bless");

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &spec::WORKLOADS {
        let child = |traced: bool| {
            let mut args: Vec<String> = [
                "--workload",
                w.name,
                "--trace",
                if traced { "1" } else { "0" },
            ]
            .map(String::from)
            .to_vec();
            args.extend(["--seed".into(), seed.to_string()]);
            args.extend(["--seconds".into(), seconds.to_string()]);
            if let Some(dir) = &trace_dir {
                args.extend(["--trace-dir".into(), dir.clone()]);
            }
            if bless && !traced {
                args.push("--bless".into());
            }
            in_child(&args)
        };
        let mut gate = measure::Gate::open();
        let start = Instant::now();
        let result = child(false)?;
        let wall_s = start.elapsed().as_secs_f64();
        let quiet = gate.quiet();
        let noise_pct = gate.noise_pct();
        let correct = |r: &Json| r.get("correct") == Some(&Json::Bool(true));
        all_correct &= correct(&result);
        let mut entry = vec![
            ("wall_s", Json::from(wall_s)),
            ("noise_pct", noise_pct.into()),
            (
                // Too noisy to call: neither a regression nor a pass.
                "status",
                if noise_pct > NOISE_LIMIT_PCT || !quiet {
                    "unresolved"
                } else {
                    "ok"
                }
                .into(),
            ),
            ("end_to_end", result),
        ];
        if trace_dir.is_some() {
            let result = child(true)?;
            all_correct &= correct(&result);
            // The paper's thesis and its control, asserted on the traced run.
            for &(_, low, high) in spec::EVA_BANDS
                .iter()
                .filter(|(name, _, _)| *name == w.name)
            {
                let ratio = result
                    .get("metrics")
                    .and_then(|m| m.get("paper.exec_ratio_eva"))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                let holds = ratio.is_some_and(|r| (low..=high).contains(&r));
                if !holds {
                    eprintln!(
                        "{}: FAILED paper.exec_ratio_eva {ratio:?} is outside [{low}, {high}]",
                        w.name
                    );
                }
                all_correct &= holds;
                entry.push((
                    "paper_assertion",
                    if holds { "holds" } else { "failed" }.into(),
                ));
            }
            entry.push(("per_layer", result));
        }
        workloads.push((w.name, Json::obj(entry)));
    }
    let file = Json::obj([
        ("host", measure::host()),
        ("seed", Json::from(seed)),
        ("seconds", seconds.into()),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(path) = out {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        parent
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, file.pretty()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    } else {
        println!("{}", file.pretty());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One row per workload and end-to-end metric; fails on any difference
/// beyond the metric's bound and on any exact count that differs at all.
fn check(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("check takes two result files".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let metric = |file: &Json, workload: &str, section: &str, name: &str| -> Option<f64> {
        file.get("workloads")?
            .get(workload)?
            .get(section)?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    };
    let unresolved = |file: &Json, workload: &str| {
        file.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("status"))
            .and_then(Json::as_str)
            != Some("ok")
    };
    let mut failures = 0;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "diff%", "bound%"
    );
    for w in &spec::WORKLOADS {
        let noisy = unresolved(&a, w.name) || unresolved(&b, w.name);
        for m in &spec::END_TO_END {
            let (Some(x), Some(y)) = (
                metric(&a, w.name, "end_to_end", m.name),
                metric(&b, w.name, "end_to_end", m.name),
            ) else {
                return Err(format!("{}: {} is missing from a file", w.name, m.name));
            };
            let diff = (y - x).abs() / x.abs();
            let verdict = if diff <= m.bound {
                "ok"
            } else if noisy {
                "unresolved"
            } else {
                failures += 1;
                "FAIL"
            };
            println!(
                "{:<14} {:<28} {x:>14.4} {y:>14.4} {:>8.2} {:>6.1}  {verdict}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            if let (Some(x), Some(y)) = (
                metric(&a, w.name, "per_layer", m.name),
                metric(&b, w.name, "per_layer", m.name),
            ) {
                if x != y {
                    failures += 1;
                    println!(
                        "{:<14} {:<28} {x:>14} {y:>14} {:>8} {:>6}  FAIL (exact count)",
                        w.name, m.name, "", ""
                    );
                }
            }
        }
    }
    println!("{failures} failure(s)");
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => contract(&args),
        _ => Err("no command".into()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("fhe-benchmark: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
