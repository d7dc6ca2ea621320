//! Service-layer benchmark: cold-compile vs warm-cache throughput and a
//! concurrent-sessions sweep on the paper's fig. 2a polynomial.
//!
//! ```text
//! serve [--fast] [--json PATH] [--check-baseline PATH]
//! ```
//!
//! Three phases:
//!
//! - `cold` — every request hits an empty compile cache **and** a fresh
//!   session (full compile + keygen + execution): the service's
//!   first-request cost. Run for both the reserve compiler and Hecate.
//! - `warm` — one warmed session issuing repeat requests: compile served
//!   from the cache, keys reused, only encryption/execution remains.
//! - `sweep` — k ∈ {1, 2, 4, 8} sessions submitting concurrently to a
//!   k-worker server: requests/sec and p50/p99 latency vs concurrency.
//!
//! The headline `warm_over_cold` ratio is measured under **Hecate**,
//! whose iterative exploration makes compilation the dominant cold cost —
//! exactly the workload a compile cache exists for. The same ratio under
//! the reserve compiler is reported alongside as the paper's contrast:
//! exploration-free compilation is so fast (~100 µs on fig. 2a) that the
//! cache barely moves its throughput.
//!
//! `--check-baseline BENCH_serve.json` re-runs and exits non-zero when
//! warm throughput falls below 5× Hecate's cold throughput, the warm
//! cache hit rate drops below 0.9, or any request fails — the CI
//! `serve-smoke` gate. Absolute times are machine-dependent and
//! deliberately not gated.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use fhe_bench::{keys, print_table, CliArgs};
use fhe_ir::json::Json;
use fhe_ir::{text, CompileParams};
use fhe_runtime::{ExecOptions, KeyPolicy, ParOptions};
use fhe_serve::{FheServer, Request, ServerConfig};

fn fig2a_text(slots: usize) -> String {
    let b = fhe_ir::Builder::new("fig2a", slots);
    let x = b.input("x");
    let y = b.input("y");
    let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
    text::print(&b.finish(vec![q]))
}

fn inputs_for(slots: usize, salt: usize) -> HashMap<String, Vec<f64>> {
    let xs: Vec<f64> = (0..slots)
        .map(|k| (((k + salt) % 9) as f64 - 4.0) * 0.07)
        .collect();
    let ys: Vec<f64> = (0..slots)
        .map(|k| (((k + 2 * salt) % 5) as f64) * 0.11)
        .collect();
    [("x".to_string(), xs), ("y".to_string(), ys)]
        .into_iter()
        .collect()
}

fn session_options(slots: usize, seed: u64) -> ParOptions {
    ParOptions {
        exec: ExecOptions {
            poly_degree: slots * 2,
            seed,
            threads: 1,
            keys: KeyPolicy::Lazy { budget_bytes: None },
            rotation_hoisting: true,
        },
        workers: 1,
        fusion: true,
    }
}

fn request(session: fhe_serve::SessionId, program: &str, slots: usize, salt: usize) -> Request {
    request_via(session, program, slots, salt, "reserve")
}

fn request_via(
    session: fhe_serve::SessionId,
    program: &str,
    slots: usize,
    salt: usize,
    compiler: &str,
) -> Request {
    Request {
        session,
        program: program.to_string(),
        params: CompileParams::new(30),
        compiler: compiler.into(),
        inputs: inputs_for(slots, salt),
        deadline: None,
    }
}

struct ColdWarm {
    compiler: &'static str,
    cold_rps: f64,
    warm_rps: f64,
    warm_hit_rate: f64,
    failed: u64,
}

impl ColdWarm {
    fn ratio(&self) -> f64 {
        self.warm_rps / self.cold_rps
    }
}

/// Cold (empty cache + fresh session per request) vs warm (one warmed
/// session) throughput through one compiler.
fn cold_warm(program: &str, slots: usize, repeats: usize, compiler: &'static str) -> ColdWarm {
    let server = FheServer::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let t_cold = Instant::now();
    for i in 0..repeats {
        server.cache().clear();
        let session = server.create_session(session_options(slots, 0xC01D + i as u64));
        let resp = server
            .call(request_via(session, program, slots, i, compiler))
            .expect("cold request succeeds");
        assert!(!resp.cache_hit, "cache was cleared: must compile");
    }
    let cold_rps = repeats as f64 / t_cold.elapsed().as_secs_f64();

    let warm_session = server.create_session(session_options(slots, 0x3A17));
    server
        .call(request_via(warm_session, program, slots, 0, compiler))
        .expect("warmup succeeds");
    let warm_before = server.stats();
    let t_warm = Instant::now();
    for i in 0..repeats {
        let resp = server
            .call(request_via(warm_session, program, slots, i, compiler))
            .expect("warm request succeeds");
        assert!(resp.cache_hit, "warm phase must hit the compile cache");
    }
    let warm_rps = repeats as f64 / t_warm.elapsed().as_secs_f64();
    let stats = server.stats();
    ColdWarm {
        compiler,
        cold_rps,
        warm_rps,
        warm_hit_rate: (stats.cache.hits - warm_before.cache.hits) as f64 / repeats as f64,
        failed: stats.failed,
    }
}

struct SweepRow {
    sessions: usize,
    requests: u64,
    failed: u64,
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    peak_bytes: u64,
    cache_hit_rate: f64,
}

fn main() -> ExitCode {
    let args = CliArgs::parse_gated(&[]);
    let (slots, repeats, per_session) = if args.fast { (128, 6, 4) } else { (512, 16, 8) };
    let program = fig2a_text(slots);
    eprintln!("fig2a, {slots} slots (N = {})", slots * 2);

    // -- cold vs warm through each compiler --------------------------------
    let phases = [
        cold_warm(&program, slots, repeats, "hecate"),
        cold_warm(&program, slots, repeats, "reserve"),
    ];
    for p in &phases {
        eprintln!(
            "{:>8}: cold {:.2} req/s, warm {:.2} req/s ({:.1}x, hit rate {:.2})",
            p.compiler,
            p.cold_rps,
            p.warm_rps,
            p.ratio(),
            p.warm_hit_rate
        );
    }
    let hecate = &phases[0];
    let reserve = &phases[1];
    let warm_over_cold = hecate.ratio();
    let warm_hit_rate = hecate.warm_hit_rate.min(reserve.warm_hit_rate);
    let failed_base = phases.iter().map(|p| p.failed).sum::<u64>();

    // -- sweep: k sessions × k workers, concurrent -------------------------
    let mut sweep = Vec::new();
    let mut sweep_failed = 0u64;
    for k in [1usize, 2, 4, 8] {
        let server = FheServer::new(ServerConfig {
            workers: k,
            queue_capacity: 4 * k * per_session,
            ..ServerConfig::default()
        });
        let sessions: Vec<_> = (0..k)
            .map(|s| server.create_session(session_options(slots, 0x5EED + s as u64)))
            .collect();
        // Warm the cache once so the sweep measures execution throughput.
        server
            .call(request(sessions[0], &program, slots, 0))
            .expect("sweep warmup succeeds");
        let t = Instant::now();
        // Per-request latencies are taken from the responses themselves
        // (exact, and excluding the warmup) rather than the server's
        // log-bucketed lifetime histogram.
        let mut latencies_us: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter()
                .enumerate()
                .map(|(s, &session)| {
                    let server = &server;
                    let program = &program;
                    scope.spawn(move || {
                        let tickets: Vec<_> = (0..per_session)
                            .map(|i| {
                                server
                                    .submit(request(session, program, slots, s * per_session + i))
                                    .expect("submits")
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| {
                                let resp = t.wait().expect("sweep request succeeds");
                                resp.latency.as_secs_f64() * 1e6
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let wall = t.elapsed().as_secs_f64();
        latencies_us.sort_by(f64::total_cmp);
        let quantile = |q: f64| -> f64 {
            let idx = ((q * latencies_us.len() as f64).ceil() as usize).max(1) - 1;
            latencies_us[idx.min(latencies_us.len() - 1)]
        };
        let stats = server.stats();
        sweep_failed += stats.failed;
        sweep.push(SweepRow {
            sessions: k,
            requests: (k * per_session) as u64,
            failed: stats.failed,
            rps: (k * per_session) as f64 / wall,
            p50_us: quantile(0.5),
            p99_us: quantile(0.99),
            peak_bytes: stats.peak_bytes(),
            cache_hit_rate: stats.cache.hit_rate(),
        });
    }

    print_table(
        &[
            "sessions", "req", "req/s", "p50 ms", "p99 ms", "peak MiB", "hit rate",
        ],
        &sweep
            .iter()
            .map(|r| {
                vec![
                    r.sessions.to_string(),
                    r.requests.to_string(),
                    format!("{:.2}", r.rps),
                    format!("{:.1}", r.p50_us / 1e3),
                    format!("{:.1}", r.p99_us / 1e3),
                    format!("{:.2}", r.peak_bytes as f64 / (1 << 20) as f64),
                    format!("{:.2}", r.cache_hit_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let failed_total = failed_base + sweep_failed;
    args.emit_json(&Json::obj([
        ("workload", Json::from("fig2a")),
        ("slots", Json::from(slots)),
        ("poly_degree", Json::from(slots * 2)),
        ("cold_requests", Json::from(repeats)),
        ("cold_rps_hecate", Json::from(hecate.cold_rps)),
        ("warm_rps_hecate", Json::from(hecate.warm_rps)),
        (keys::WARM_OVER_COLD, Json::from(warm_over_cold)),
        ("cold_rps_reserve", Json::from(reserve.cold_rps)),
        ("warm_rps_reserve", Json::from(reserve.warm_rps)),
        ("warm_over_cold_reserve", Json::from(reserve.ratio())),
        ("warm_cache_hit_rate", Json::from(warm_hit_rate)),
        ("failed_requests", Json::from(failed_total as usize)),
        (
            "sweep",
            Json::Array(
                sweep
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("sessions", Json::from(r.sessions)),
                            ("requests", Json::from(r.requests as usize)),
                            ("failed", Json::from(r.failed as usize)),
                            ("rps", Json::from(r.rps)),
                            ("p50_us", Json::from(r.p50_us)),
                            ("p99_us", Json::from(r.p99_us)),
                            ("peak_bytes", Json::from(r.peak_bytes as usize)),
                            ("cache_hit_rate", Json::from(r.cache_hit_rate)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));

    args.gate_on_baseline(keys::WARM_OVER_COLD, |committed_ratio| {
        vec![
            (
                committed_ratio >= 5.0,
                format!("committed baseline ratio {committed_ratio:.2}x is below the 5x promise"),
            ),
            (
                warm_over_cold >= 5.0,
                format!("warm throughput {warm_over_cold:.2}x cold fell below the promised 5x"),
            ),
            (
                warm_hit_rate >= 0.9,
                format!("warm cache hit rate {warm_hit_rate:.2} below 0.9"),
            ),
            (failed_total == 0, format!("{failed_total} requests failed")),
        ]
    })
}
