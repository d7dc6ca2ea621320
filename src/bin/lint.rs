//! `lint` — static analysis and translation validation over textual IR
//! files.
//!
//! Collects `.fhe` files and makes one pass over each schedule they yield:
//! the `F001`…`F009` lints (and, for compiled-mode files, translation
//! validation against each compiler's schedule, whose mismatches are
//! `F000`), rendered as rustc-style diagnostics, and one profile line with
//! the schedule's work, critical path (span), asymptotic parallelism and
//! maximum achievable width under a cost model — the paper's Table 3 by
//! default, or a measured `table3 --json` record via `--profile`. `--json`
//! writes all of it as a machine-readable report, and `--dot DIR` writes
//! one Graphviz file per schedule (`--dot -` streams them to stdout). See
//! `fhe_reserve::lint` for the file modes and directives.
//!
//! ```sh
//! cargo run --release --bin lint -- examples/programs tests/corpus
//! cargo run --release --bin lint -- prog.fhe --json report.json --deny error
//! cargo run --release --bin lint -- --explain F007
//! cargo run --release --bin lint -- prog.fhe --profile table3.json --dot out/
//! ```

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fhe_ir::CostModel;
use fhe_reserve::lint::{collect_files, denied, lint_file, reports_json, LintRun};

struct Cli {
    paths: Vec<PathBuf>,
    run: LintRun,
    json: Option<PathBuf>,
    deny: Vec<String>,
    quiet: bool,
    explain: Vec<String>,
    profile: Option<PathBuf>,
    /// Where `--dot` writes its files; `None` streams them to stdout.
    dot_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: lint [paths...] [--compiler eva,hecate,reserve] \
                     [--input-range M] [--json PATH] [--deny error|warning|CODE]... \
                     [--explain CODE]... [--profile TABLE3_JSON] [--dot DIR|-] [--quiet]\n\
                     paths default to examples/programs and tests/corpus;\n\
                     each schedule's work/span/width is priced under --profile \
                     (default: the paper's Table 3)";

fn parse_args() -> Result<Cli, String> {
    let mut paths = Vec::new();
    let mut run = LintRun::default();
    let mut json = None;
    let mut deny = Vec::new();
    let mut quiet = false;
    let mut explain = Vec::new();
    let mut profile = None;
    let mut dot_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--compiler" | "-c" => {
                let value = args.next().ok_or("--compiler needs eva|hecate|reserve")?;
                run.compilers = value.split(',').map(str::to_string).collect();
                for name in &run.compilers {
                    if fhe_reserve::serve::compiler_for(name).is_none() {
                        return Err(format!("unknown compiler `{name}` (eva|hecate|reserve)"));
                    }
                }
            }
            "--input-range" => {
                run.input_magnitude = args
                    .next()
                    .ok_or("--input-range needs a magnitude")?
                    .parse()
                    .map_err(|e| format!("bad input range: {e}"))?;
                if run.input_magnitude.is_nan() || run.input_magnitude <= 0.0 {
                    return Err("input range must be positive".into());
                }
            }
            "--json" => {
                json = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
            }
            "--deny" => {
                deny.push(args.next().ok_or("--deny needs error|warning|<code>")?);
            }
            "--explain" => {
                explain.push(args.next().ok_or("--explain needs a lint code")?);
            }
            "--profile" => {
                profile = Some(PathBuf::from(
                    args.next().ok_or("--profile needs a table3 json path")?,
                ));
            }
            "--dot" => {
                let to = args.next().ok_or("--dot needs a directory (or `-`)")?;
                dot_dir = (to != "-").then(|| PathBuf::from(to));
                run.dot = true;
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if paths.is_empty() {
        paths = vec![
            PathBuf::from("examples/programs"),
            PathBuf::from("tests/corpus"),
        ];
    }
    Ok(Cli {
        paths,
        run,
        json,
        deny,
        quiet,
        explain,
        profile,
        dot_dir,
    })
}

/// Prints the registry entry of every `--explain` code; exits non-zero on
/// an unknown code.
fn run_explain(codes: &[String]) -> ExitCode {
    let mut ok = true;
    for (i, code) in codes.iter().enumerate() {
        let canonical = code.to_ascii_uppercase();
        match fhe_analysis::explain(&canonical) {
            Some(info) => {
                if i > 0 {
                    println!();
                }
                println!("{} ({})", info.code, info.severity.label());
                println!("  {}", info.summary);
                println!();
                for line in info.explanation.split(". ") {
                    let line = line.trim();
                    if !line.is_empty() {
                        let dot = if line.ends_with('.') { "" } else { "." };
                        println!("  {line}{dot}");
                    }
                }
            }
            None => {
                let known: Vec<&str> = fhe_analysis::registry().iter().map(|i| i.code).collect();
                eprintln!(
                    "lint: unknown lint code `{code}` (known: {})",
                    known.join(", ")
                );
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Reads a measured `table3 --json` record as the profile's cost model.
fn load_profile(path: &Path) -> Result<CostModel, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read profile {}: {e}", path.display()))?;
    CostModel::from_bench_json(&text).map_err(|e| format!("bad profile {}: {e}", path.display()))
}

/// Writes one target's DOT rendering: to stdout for `--dot -`, else as
/// `stem@target.dot` in the `--dot` directory.
fn write_dot(cli: &Cli, path: &Path, target: &str, dot: &str) -> Result<(), String> {
    let Some(dir) = &cli.dot_dir else {
        print!("{dot}");
        return Ok(());
    };
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "schedule".into());
    let out = dir.join(format!("{stem}@{target}.dot"));
    std::fs::write(&out, dot).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    if !cli.quiet {
        println!("  wrote {}", out.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut cli = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if !cli.explain.is_empty() {
        return run_explain(&cli.explain);
    }
    let files = match collect_files(&cli.paths) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if files.is_empty() {
        eprintln!("lint: no .fhe files under the given paths");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &cli.profile {
        match load_profile(path) {
            Ok(model) => cli.run.profile = model,
            Err(e) => {
                eprintln!("lint: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &cli.dot_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("lint: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let mut reports = Vec::new();
    let (mut total, mut denied_count, mut errors) = (0usize, 0usize, 0usize);
    for path in &files {
        let name = path.display().to_string();
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("lint: cannot read {name}: {e}");
                errors += 1;
                continue;
            }
        };
        let report = lint_file(&name, &content, &cli.run);
        if let Some(err) = &report.error {
            eprint!("{err}");
            errors += 1;
        }
        for target in &report.targets {
            if let Some(err) = &target.error {
                eprintln!("{name}@{}: {err}", target.target);
                errors += 1;
            }
            total += target.findings.len();
            denied_count += target
                .findings
                .iter()
                .filter(|f| denied(&cli.deny, f))
                .count();
            if !cli.quiet {
                print!("{}", target.rendered);
                if let Some(est) = &target.estimate {
                    println!(
                        "{name}@{}: work {:.1}us, span {:.1}us, parallelism {:.2}x, width {}",
                        target.target,
                        est.work_us,
                        est.span_us,
                        est.parallelism(),
                        est.max_width
                    );
                }
            }
            if let Some(dot) = &target.dot {
                if let Err(e) = write_dot(&cli, path, &target.target, dot) {
                    eprintln!("lint: {e}");
                    errors += 1;
                }
            }
        }
        reports.push(report);
    }

    if let Some(path) = &cli.json {
        if let Err(e) = std::fs::write(path, format!("{}\n", reports_json(&reports))) {
            eprintln!("lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "lint: {} file(s), {total} finding(s), {denied_count} denied, {errors} error(s)",
        files.len()
    );
    if errors > 0 || denied_count > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
