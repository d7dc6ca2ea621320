//! `lenet-compile`: the paper-size LeNet-5 (11 664 ops) through the reserve
//! compiler; nothing is encrypted.
//!
//! The timed operation is one `ReserveCompiler::full().compile` (`op_ms`,
//! `tail_ms`: Table 4's quantity); `cold_ms` adds building the program
//! first; `throughput` is compiles per second with `min(2, nproc)` threads
//! compiling at once, which is what two service workers do when both miss
//! the cache.
//!
//! A compile's output is a schedule. Once per run it is executed in the
//! clear against the source program's reference on the seeded inputs; every
//! timed compile must then reproduce that schedule's structural hash.

use std::time::Instant;

use fhe_ir::Program;
use fhe_workloads::lenet::{self, LenetConfig};
use reserve_core::ReserveCompiler;

use crate::alloc;
use crate::layers;
use crate::measure::{self, median, ms, tail, Gate, Samples};
use crate::oracle::{self, Tally};
use crate::trace::{Recorder, Timed};
use crate::workloads::{params, Config, Outcome};

const NAME: &str = "lenet-compile";

/// One checked compile under a `compile` span.
fn compile(
    rec: &Recorder,
    tally: &mut Tally,
    request: u64,
    program: &Program,
    expected_hash: Option<u64>,
) -> Option<(fhe_ir::Compiled, Timed)> {
    tally.op("compile", || {
        let (compiled, timed) = layers::compile(
            rec,
            None,
            request,
            "compile",
            &ReserveCompiler::full(),
            program,
            &params(),
        )?;
        let hash = compiled.scheduled.structural_hash();
        if expected_hash.is_some_and(|h| h != hash) {
            return Err("the schedule differs from the one that was checked".into());
        }
        Ok((compiled, timed))
    })
}

pub fn run(cfg: &Config, gate: &mut Gate) -> Outcome {
    let mut out = Outcome::default();
    let tally = &mut out.tally;
    let off = Recorder::new(false);
    let config = LenetConfig::lenet5();

    let mut setups = Samples::default();
    let mut warm = None;
    for _ in 0..3 {
        let t = Instant::now();
        let program = lenet::build(&config);
        warm = compile(&off, tally, 0, &program, None).map(|(c, _)| (program, c));
        setups.push(t.elapsed().as_secs_f64(), gate.quiet());
    }
    let Some((program, first)) = warm else {
        return out;
    };

    // The oracle: the schedule computes what the source program computes.
    let inputs = lenet::lenet_inputs(&config, cfg.seed);
    let reference = oracle::reference(&program, &inputs);
    tally.require(
        "schedule against the source program's reference",
        // LeNet's outputs are of order 1e-37: only a relative check sees them.
        oracle::same_in_the_clear(
            &fhe_runtime::plain::execute(&first.scheduled.program, &inputs),
            &reference,
        ),
    );
    if cfg.seed == oracle::DEFAULT_SEED {
        let lines = oracle::digest(NAME, &reference);
        tally.require(
            "reference digest",
            oracle::check_digest(NAME, &lines, cfg.bless),
        );
    }
    let hash = Some(first.scheduled.structural_hash());

    let m = &mut out.metrics;
    if cfg.traced {
        let rec = Recorder::new(true);
        let (mut plain, mut spanned, mut residuals) = (Vec::new(), Vec::new(), Vec::new());
        let mut request = 100;
        measure::until(cfg.seconds, |_| {
            request += 2;
            plain.extend(compile(&off, tally, request, &program, hash).map(|(_, t)| ms(t.wall)));
            // The cold path under spans: build, then compile.
            let start = Instant::now();
            let span = rec.open("cold", None, request + 1);
            let (fresh, build) = rec.time("build", span, request + 1, || lenet::build(&config));
            let run = compile(&rec, tally, request + 1, &fresh, hash);
            rec.close(span);
            if let Some((compiled, timed)) = run {
                // The cold sample ends where the compile does; checking the
                // schedule's hash afterwards is the harness's own time.
                let wall = (timed.start + timed.wall) - start;
                residuals.push(
                    wall.saturating_sub(build.wall + timed.wall).as_secs_f64() / wall.as_secs_f64()
                        * 100.0,
                );
                spanned.push((timed.wall, compiled.report));
            }
            gate.quiet();
        });
        if plain.is_empty() || spanned.is_empty() {
            return out;
        }
        layers::compile_metrics(m, &program, &first.scheduled, &spanned);
        layers::text_metrics(m, &program, &first.scheduled, 1);
        layers::baseline_metrics(m, &rec, tally, &program, &params(), 2);
        let traced_ms = median(&spanned.iter().map(|(w, _)| ms(*w)).collect::<Vec<_>>());
        m.set(
            "bench.trace_overhead_pct",
            (traced_ms - median(&plain)) / median(&plain) * 100.0,
        );
        m.set("bench.stage_sum_residual_pct", median(&residuals));
        tally.require("trace file", rec.finish(&cfg.trace_dir, NAME));
    } else {
        let threads = measure::threads();
        let (mut warm_ms, mut cold_ms, mut per_s) =
            (Samples::default(), Samples::default(), Samples::default());
        let (mut peak, mut request) = (0, 100);
        // The machine is probed after each half of a round; see `Gate`.
        measure::until(cfg.seconds, |_| {
            request += 1;
            let start = Instant::now();
            let fresh = lenet::build(&config);
            alloc::reset_peak();
            let run = compile(&off, tally, request, &fresh, hash);
            peak = peak.max(alloc::peak_bytes());
            drop(fresh);
            let quiet = gate.quiet();
            if let Some((_, timed)) = run {
                cold_ms.push(ms((timed.start + timed.wall) - start), quiet);
                warm_ms.push(ms(timed.wall), quiet);
            }

            // Every thread's compile ends before its hash check starts.
            let start = Instant::now();
            let runs: Vec<(Tally, Option<Instant>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut t = Tally::default();
                            let end = compile(&off, &mut t, request, &program, hash)
                                .map(|(_, c)| c.start + c.wall);
                            (t, end)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("compile threads catch their panics"))
                    .collect()
            });
            let ends: Option<Vec<Instant>> = runs.iter().map(|(_, end)| *end).collect();
            runs.into_iter().for_each(|(t, _)| tally.absorb(t));
            let quiet = gate.quiet();
            if let Some(last) = ends.and_then(|e| e.into_iter().max()) {
                per_s.push(threads as f64 / (last - start).as_secs_f64(), quiet);
            }
        });
        if warm_ms.is_empty() || per_s.is_empty() {
            return out;
        }
        m.set("setup_s", median(setups.preferred()));
        m.set("op_ms", median(warm_ms.preferred()));
        m.set("tail_ms", tail(warm_ms.preferred()));
        m.set("cold_ms", median(cold_ms.preferred()));
        m.set("throughput", median(per_s.preferred()));
        m.set("peak_mem_mb", peak as f64 / 1e6);
    }
    out
}
