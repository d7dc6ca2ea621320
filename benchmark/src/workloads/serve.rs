//! `serve-mix`: the service path at N = 2048, where per-request fixed costs
//! (parse, validate, reference, allocation, locks) weigh more than NTTs.
//!
//! A **closed loop**: `min(2, nproc)` client threads, each keeping two
//! tickets outstanding and reading replies in submission order, against
//! `FheServer { workers: min(2, nproc), queue_capacity: 64 }` with four
//! lazy-key sessions. The seed orders a fixed mix of three hot texts
//! (`fig2a` 18 : `sobel(32)` 13 : `linear(1024, 2)` 5) in which one request
//! in ten carries a never-seen text (a renamed `fig2a`) that misses the
//! compile cache. The cache budget is 16x the largest hot entry, so the
//! never-seen texts churn the LRU while the hot three stay.
//!
//! The timed operation is one request, submit to reply as the client sees
//! it (`op_ms` p50, `tail_ms` p99 from 1 000 requests up); `throughput`
//! is replies per second; `cold_ms` is a fresh session's first request
//! with a never-seen text: compile miss, lazy keys, execution. Other
//! tenants of the host slow memory beyond L2 by up to a third for tens of
//! milliseconds to minutes at a time, which the `Gate`'s spin loop does not
//! see, and cold requests, all alike, then sit at one of two levels a
//! quarter apart. So they go out in short bursts between the windows of
//! the loop, not in one stretch that such a spell covers or misses, and
//! `cold_ms` is their lower quartile, which stays at the undisturbed level
//! until three requests in four are slowed; their median jumps between the
//! levels once half of them are.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fhe_ir::{text, Builder, Program};
use fhe_runtime::{ExecOptions, KeyPolicy, ParOptions, SessionKeys};
use fhe_serve::{CompileCache, FheServer, Request, Response, ServerConfig, SessionId};
use fhe_workloads::{data, image, regression};
use reserve_core::ReserveCompiler;

use crate::alloc;
use crate::layers;
use crate::measure::{self, median, ms, quantile, tail, Gate, Samples};
use crate::oracle::{self, close, mix, Inputs, Outputs, Tally};
use crate::spec::Metrics;
use crate::trace::Recorder;
use crate::workloads::{params, Config, Outcome};

const NAME: &str = "serve-mix";
const POLY_DEGREE: usize = 2048;
const SLOTS: usize = POLY_DEGREE / 2;
const SESSIONS: u64 = 4;
/// Input vectors per hot program; a request picks one.
const VARIANTS: u64 = 4;
const OUTSTANDING: usize = 2;
/// Cold requests sent back to back between two windows of the loop.
const COLD_BURST: u64 = 8;
/// The fewest cold requests a run reports `cold_ms` from.
const MIN_COLD: usize = 30;
/// How long the closed loop runs between two probes of the machine.
const WINDOW_SECONDS: f64 = 2.0;
/// `peak_mem_mb` is the heap's high-water mark over this many requests.
const PEAK_AFTER: u64 = 400;
/// Index of `linear`, the heaviest hot text, on which the compiler and
/// backend layers are replayed in the traced run.
const HEAVIEST: usize = 2;

/// One hot program: its text (the cache key), seeded inputs and their
/// independent references.
struct Hot {
    label: &'static str,
    program: Program,
    text: String,
    inputs: Vec<Inputs>,
    references: Vec<Outputs>,
}

fn fig2a() -> Program {
    let b = Builder::new("fig2a", SLOTS);
    let x = b.input("x");
    let y = b.input("y");
    let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
    b.finish(vec![q])
}

fn hot_set(seed: u64) -> Vec<Hot> {
    let fig2a_inputs = |s: u64| -> Inputs {
        [
            ("x".to_string(), data::uniform(SLOTS, -1.0, 1.0, s)),
            ("y".to_string(), data::uniform(SLOTS, -1.0, 1.0, s ^ 0xF16)),
        ]
        .into_iter()
        .collect()
    };
    let make = |label: &'static str, program: Program, gen: &dyn Fn(u64) -> Inputs| {
        let inputs: Vec<Inputs> = (0..VARIANTS)
            .map(|v| gen(mix(seed, label.len() as u64 * 100 + v)))
            .collect();
        Hot {
            label,
            text: text::print(&program),
            references: inputs
                .iter()
                .map(|i| oracle::reference(&program, i))
                .collect(),
            inputs,
            program,
        }
    };
    vec![
        make("fig2a", fig2a(), &fig2a_inputs),
        make("sobel", image::sobel(32), &|s| image::image_inputs(32, s)),
        make("linear", regression::linear(SLOTS, 2), &|s| {
            regression::linear_inputs(SLOTS, s)
        }),
    ]
}

/// Request `index` of the stream: a pure function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub session: usize,
    pub program: usize,
    pub variant: usize,
    /// Carries a text no request before it carried.
    pub unseen: bool,
}

/// The stream is cut into blocks of this many requests. Every block holds
/// the same mix in a seeded order, so that two seeds differ in what meets
/// what in the queue and not in how much work they carry.
const BLOCK: u64 = 40;
/// `(program, unseen, requests per block)`: 1 in 10 never seen, the rest
/// `fig2a` 18 : `sobel` 13 : `linear` 5.
const MIX: [(usize, bool, u64); 4] = [(0, true, 4), (0, false, 18), (1, false, 13), (2, false, 5)];

pub fn spec(seed: u64, index: u64) -> Spec {
    let (block, at) = (index / BLOCK, (index % BLOCK) as usize);
    let mut slots: Vec<(usize, bool)> = MIX
        .iter()
        .flat_map(|&(program, unseen, n)| (0..n).map(move |_| (program, unseen)))
        .collect();
    // Fisher-Yates, from the block's own stream.
    let block_seed = mix(seed, block);
    for i in (1..slots.len()).rev() {
        slots.swap(i, (mix(block_seed, i as u64) % (i as u64 + 1)) as usize);
    }
    let (program, unseen) = slots[at];
    let r = mix(seed ^ 0x5E55, index);
    Spec {
        session: (r % SESSIONS) as usize,
        program,
        variant: ((r >> 16) % VARIANTS) as usize,
        unseen,
    }
}

fn session_options(seed: u64) -> ParOptions {
    ParOptions {
        exec: ExecOptions {
            poly_degree: POLY_DEGREE,
            seed,
            threads: 1,
            keys: KeyPolicy::Lazy { budget_bytes: None },
            rotation_hoisting: true,
        },
        workers: 1,
        fusion: true,
    }
}

/// A started server, its sessions, and how long each session's first
/// request took (lazy keygen).
struct Service {
    server: FheServer,
    sessions: Vec<SessionId>,
    first_request_ms: Vec<f64>,
}

impl Service {
    /// A request for variant `variant` of hot program `h`, under its own
    /// text or, renamed, under one the cache has never seen.
    fn request(h: &Hot, variant: usize, session: SessionId, rename: Option<String>) -> Request {
        Request {
            session,
            program: match rename {
                Some(name) => h.text.replacen(h.program.name(), &name, 1),
                None => h.text.clone(),
            },
            params: params(),
            compiler: "reserve".into(),
            inputs: h.inputs[variant].clone(),
            deadline: None,
        }
    }
}

/// A reply the client read, as the client saw it.
struct Reply {
    latency: Duration,
    /// The response's own account: whether compilation was served from
    /// the cache, and the executor's wall. The outputs are checked and let
    /// go, so that the harness's memory does not grow with the run.
    cache_hit: bool,
    exec_time: Duration,
    /// Its place in the stream, and the heap's high-water mark when it was
    /// read.
    index: u64,
    heap_peak: usize,
}

/// One stretch of the closed loop between two probes of the machine.
struct Window {
    replies: Vec<Reply>,
    wall: f64,
    /// Whether both probes found the machine quiet.
    quiet: bool,
}

/// One checked request, submit to reply, under a `request` span whose
/// child is the executor time the response reports.
fn call(
    rec: &Recorder,
    tally: &mut Tally,
    index: u64,
    submitted: Instant,
    reference: &Outputs,
    wait: impl FnOnce() -> Result<Response, fhe_serve::ServeError>,
) -> Option<Reply> {
    tally.op("request", || {
        let response = wait().map_err(|e| e.to_string())?;
        let replied = Instant::now();
        let span = rec.span("request", None, index, submitted, replied);
        rec.span(
            "execute",
            span,
            index,
            replied - response.exec_time,
            replied,
        );
        close(&response.outputs, reference)?;
        Ok(Reply {
            latency: replied - submitted,
            cache_hit: response.cache_hit,
            exec_time: response.exec_time,
            index,
            heap_peak: alloc::peak_bytes(),
        })
    })
}

/// Sizes the cache, starts the server, opens the sessions and sends every
/// session every hot text once, so keys exist and the cache holds them.
fn set_up(hot: &[Hot], seed: u64, tally: &mut Tally) -> Option<Service> {
    let largest = hot
        .iter()
        .filter_map(|h| {
            let scratch = CompileCache::new(None);
            tally.op("compile", || {
                scratch
                    .get_or_compile(&h.program, &params(), &ReserveCompiler::full())
                    .map_err(|e| e.to_string())
            })?;
            Some(scratch.stats().bytes)
        })
        .max()?;
    let server = FheServer::new(ServerConfig {
        workers: measure::threads(),
        queue_capacity: 64,
        default_deadline: None,
        cache_budget_bytes: Some(16 * largest),
    });
    let sessions: Vec<SessionId> = (0..SESSIONS)
        .map(|s| server.create_session(session_options(mix(seed, 1_000 + s))))
        .collect();
    let mut service = Service {
        server,
        sessions,
        first_request_ms: Vec::new(),
    };
    let off = Recorder::new(false);
    for &session in &service.sessions {
        for (program, h) in hot.iter().enumerate() {
            let request = Service::request(h, 0, session, None);
            let submitted = Instant::now();
            let reply = call(&off, tally, 0, submitted, &h.references[0], || {
                service.server.call(request)
            })?;
            if program == 0 {
                service.first_request_ms.push(ms(reply.latency));
            }
        }
    }
    Some(service)
}

/// The closed loop: runs until `seconds` have passed, then drains. Returns
/// the replies read, the wall they took, and the next unused stream index.
fn closed_loop(
    service: &Service,
    hot: &[Hot],
    cfg: &Config,
    rec: &Recorder,
    tally: &mut Tally,
    first_index: u64,
    seconds: f64,
) -> (Vec<Reply>, f64, u64) {
    let clients = measure::threads() as u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Reply>, Tally, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let (mut replies, mut tally) = (Vec::new(), Tally::default());
                    let mut pending = VecDeque::new();
                    let mut index = first_index + c;
                    loop {
                        while pending.len() < OUTSTANDING && Instant::now() < deadline {
                            let spec = spec(cfg.seed, index);
                            let rename = spec.unseen.then(|| format!("fig2a_u{index}"));
                            let request = Service::request(
                                &hot[spec.program],
                                spec.variant,
                                service.sessions[spec.session],
                                rename,
                            );
                            let submitted = Instant::now();
                            pending.push_back((
                                index,
                                spec,
                                submitted,
                                service.server.submit(request),
                            ));
                            index += clients;
                        }
                        let Some((index, spec, submitted, ticket)) = pending.pop_front() else {
                            break;
                        };
                        let reference = &hot[spec.program].references[spec.variant];
                        replies.extend(call(rec, &mut tally, index, submitted, reference, || {
                            ticket?.wait()
                        }));
                    }
                    (replies, tally, index)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads catch their panics"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut replies = Vec::new();
    let mut next = first_index;
    for (r, t, index) in per_client {
        replies.extend(r);
        tally.absorb(t);
        next = next.max(index);
    }
    (replies, wall, next)
}

/// `COLD_BURST` cold requests, one at a time on an otherwise idle server:
/// each is a fresh session's first request and carries a never-seen text.
/// `sent` counts them across bursts, so no two share a text or a seed.
fn cold_burst(
    service: &Service,
    hot: &[Hot],
    cfg: &Config,
    tally: &mut Tally,
    sent: &mut u64,
) -> Vec<f64> {
    let off = Recorder::new(false);
    let mut latencies = Vec::new();
    for probe in *sent..*sent + COLD_BURST {
        let variant = spec(cfg.seed, probe).variant;
        let session = service
            .server
            .create_session(session_options(mix(cfg.seed, 2_000 + probe)));
        let request = Service::request(
            &hot[0],
            variant,
            session,
            Some(format!("fig2a_cold{probe}")),
        );
        let submitted = Instant::now();
        latencies.extend(
            call(
                &off,
                tally,
                probe,
                submitted,
                &hot[0].references[variant],
                || service.server.call(request),
            )
            .map(|r| ms(r.latency)),
        );
    }
    *sent += COLD_BURST;
    latencies
}

fn latencies(replies: &[Reply], keep: impl Fn(&Reply) -> bool) -> Vec<f64> {
    replies
        .iter()
        .filter(|r| keep(r))
        .map(|r| ms(r.latency))
        .collect()
}

pub fn run(cfg: &Config, gate: &mut Gate) -> Outcome {
    let mut out = Outcome::default();
    let tally = &mut out.tally;

    let mut setups = Samples::default();
    let mut scene = None;
    for _ in 0..3 {
        let t = Instant::now();
        let hot = hot_set(cfg.seed);
        // The earlier server shuts down here, before the next starts.
        drop(scene.take());
        scene = set_up(&hot, cfg.seed, tally).map(|service| (hot, service));
        setups.push(t.elapsed().as_secs_f64(), gate.quiet());
    }
    let Some((hot, service)) = scene else {
        return out;
    };
    if cfg.seed == oracle::DEFAULT_SEED {
        let lines: Vec<String> = hot
            .iter()
            .flat_map(|h| {
                h.references
                    .iter()
                    .enumerate()
                    .flat_map(|(v, r)| oracle::digest(&format!("{}.v{v}", h.label), r))
            })
            .collect();
        tally.require(
            "reference digest",
            oracle::check_digest(NAME, &lines, cfg.bless),
        );
    }

    let m = &mut out.metrics;
    let off = Recorder::new(false);
    if cfg.traced {
        let rec = Recorder::new(true);
        let before = service.server.stats();
        // Untraced and traced quarters in the order U T T U, so that drift
        // over the run weighs on both alike.
        let (mut plain, mut replies) = (Vec::new(), Vec::new());
        let (mut plain_wall, mut wall, mut cpu, mut next) = (0.0, 0.0, 0.0, 0);
        for spanned in [false, true, true, false] {
            let cpu_before = measure::cpu_seconds();
            let recorder = if spanned { &rec } else { &off };
            gate.quiet();
            let (r, w, n) = closed_loop(
                &service,
                &hot,
                cfg,
                recorder,
                tally,
                next,
                cfg.seconds / 4.0,
            );
            next = n;
            if spanned {
                replies.extend(r);
                wall += w;
                cpu += measure::cpu_seconds() - cpu_before;
            } else {
                plain.extend(r);
                plain_wall += w;
            }
        }
        if plain.is_empty() || replies.is_empty() {
            return out;
        }
        let stats = service.server.stats();
        let (untraced_rps, traced_rps) =
            (plain.len() as f64 / plain_wall, replies.len() as f64 / wall);
        // Base: the untraced half's replies per second.
        m.set(
            "bench.trace_overhead_pct",
            (untraced_rps - traced_rps) / untraced_rps * 100.0,
        );
        let or_zero = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
        m.set(
            "serve.hit_ms",
            or_zero(latencies(&replies, |r| r.cache_hit)),
        );
        m.set(
            "serve.miss_ms",
            or_zero(latencies(&replies, |r| !r.cache_hit)),
        );
        m.set(
            "serve.exec_ms",
            median(&replies.iter().map(|r| ms(r.exec_time)).collect::<Vec<_>>()),
        );
        m.set(
            "serve.wait_ms",
            median(
                &replies
                    .iter()
                    .map(|r| ms(r.latency.saturating_sub(r.exec_time)))
                    .collect::<Vec<_>>(),
            ),
        );
        m.set("serve.first_request_ms", median(&service.first_request_ms));
        let lookups =
            (stats.cache.hits + stats.cache.misses) - (before.cache.hits + before.cache.misses);
        m.set(
            "serve.cache_hit_rate",
            (stats.cache.hits - before.cache.hits) as f64 / lookups.max(1) as f64,
        );
        m.set(
            "serve.cache_evictions",
            (stats.cache.evictions - before.cache.evictions) as f64,
        );
        m.set("serve.cpu_util", cpu / wall);
        m.set("serve.peak_mb", stats.peak_bytes() as f64 / 1e6);
        m.set("serve.requests", (stats.requests - before.requests) as f64);
        m.set("serve.failed", (stats.failed - before.failed) as f64);
        replay_heaviest(m, &rec, tally, &hot[HEAVIEST], cfg.seed);
        tally.require("trace file", rec.finish(&cfg.trace_dir, NAME));
    } else {
        alloc::reset_peak();
        // The loop runs in windows with a probe of the machine between
        // them (see `Gate`); each window drains before the probe.
        let mut windows: Vec<Window> = Vec::new();
        let mut cold: Vec<f64> = Vec::new();
        let (mut next, mut sent) = (0, 0);
        measure::until(cfg.seconds, |_| {
            let (replies, wall, after) =
                closed_loop(&service, &hot, cfg, &off, tally, next, WINDOW_SECONDS);
            next = after;
            windows.push(Window {
                replies,
                wall,
                quiet: gate.quiet(),
            });
            // A cold request leaves its session's keys on the heap, so the
            // bursts start once the requests behind `peak_mem_mb` are in.
            if next >= PEAK_AFTER {
                cold.extend(cold_burst(&service, &hot, cfg, tally, &mut sent));
            }
        });
        // A run too slow to have got that far still reports.
        let short_by = MIN_COLD.saturating_sub(cold.len());
        for _ in 0..short_by.div_ceil(COLD_BURST as usize) {
            cold.extend(cold_burst(&service, &hot, cfg, tally, &mut sent));
        }
        // The shared pool keeps every fresh encryption's buffers, so the
        // heap grows with each request served: the peak is read at a fixed
        // amount of work, not at whatever the machine's speed allowed.
        let peak = windows
            .iter()
            .flat_map(|w| &w.replies)
            .filter(|r| r.index < PEAK_AFTER)
            .map(|r| r.heap_peak)
            .max()
            .unwrap_or(0);
        // Quiet windows alone, wherever they hold enough: two of them for
        // the median and the rate, a thousand requests for the p99.
        let all: Vec<&Window> = windows.iter().collect();
        let quiet: Vec<&Window> = windows.iter().filter(|w| w.quiet).collect();
        let requests = |ws: &[&Window]| ws.iter().map(|w| w.replies.len()).sum::<usize>();
        let typical_of = if quiet.len() >= 2 { &quiet } else { &all };
        let tail_of = if requests(&quiet) >= 1_000 {
            &quiet
        } else {
            &all
        };
        let latencies_of = |ws: &[&Window]| -> Vec<f64> {
            ws.iter()
                .flat_map(|w| latencies(&w.replies, |_| true))
                .collect()
        };
        let (typical, for_tail) = (latencies_of(typical_of), latencies_of(tail_of));
        let wall: f64 = typical_of.iter().map(|w| w.wall).sum();
        if typical.is_empty() || cold.is_empty() {
            return out;
        }
        m.set("setup_s", median(setups.preferred()));
        m.set("op_ms", quantile(&typical, 0.5));
        m.set("tail_ms", tail(&for_tail));
        m.set("cold_ms", quantile(&cold, 0.25));
        m.set("throughput", typical.len() as f64 / wall);
        m.set("peak_mem_mb", peak as f64 / 1e6);
    }
    out
}

/// The compiler, backend and executor layers on the heaviest hot text,
/// driven directly with a session's options.
fn replay_heaviest(m: &mut Metrics, rec: &Recorder, tally: &mut Tally, hot: &Hot, seed: u64) {
    let mut compiles = Vec::new();
    for i in 0..11 {
        compiles.extend(tally.op("compile", || {
            layers::compile(
                rec,
                None,
                700 + i,
                "compile",
                &ReserveCompiler::full(),
                &hot.program,
                &params(),
            )
        }));
    }
    let Some((first, _)) = compiles.first() else {
        return;
    };
    let scheduled = first.scheduled.clone();
    let samples: Vec<_> = compiles
        .iter()
        .map(|(c, t)| (t.wall, c.report.clone()))
        .collect();
    layers::compile_metrics(m, &hot.program, &scheduled, &samples);
    layers::text_metrics(m, &hot.program, &scheduled, 11);
    m.set(
        "runtime.plain_ref_ms",
        layers::time_ms(11, || {
            fhe_runtime::plain::execute(&scheduled.program, &hot.inputs[0])
        }),
    );
    layers::baseline_metrics(m, rec, tally, &hot.program, &params(), 3);

    let options = session_options(mix(seed, 3_000));
    let Some(keys) = tally.op("keygen", || {
        SessionKeys::for_schedule(&scheduled, &options.exec).map_err(|e| format!("{e:?}"))
    }) else {
        return;
    };
    let mut serial = Vec::new();
    let mut walks: [Vec<fhe_runtime::ParReport>; 4] = Default::default();
    let k = measure::threads();
    for i in 0..5u64 {
        serial.extend(tally.op("serial execution", || {
            let (report, timed) = rec.time("execute", None, 750 + i, || {
                fhe_runtime::execute_with_keys(
                    &scheduled,
                    &hot.inputs[0],
                    &options.exec,
                    &keys,
                    None,
                    mix(seed, i),
                )
            });
            let report = report.map_err(|e| format!("{e:?}"))?;
            close(&report.outputs, &hot.references[0])?;
            layers::class_parts(rec, &timed, 750 + i, &report);
            Ok((timed.wall, report))
        }));
        for (slot, (workers, fusion)) in [(1, true), (k, true), (1, false), (k, false)]
            .into_iter()
            .enumerate()
        {
            walks[slot].extend(tally.op("parallel execution", || {
                let par = ParOptions {
                    workers,
                    fusion,
                    ..options.clone()
                };
                let report = fhe_runtime::execute_parallel_with_keys(
                    &scheduled,
                    &hot.inputs[0],
                    &par,
                    &keys,
                    None,
                    mix(seed, i),
                )
                .map_err(|e| format!("{e:?}"))?;
                close(&report.outputs, &hot.references[0])?;
                Ok(report)
            }));
        }
    }
    if serial.is_empty() || walks.iter().any(Vec::is_empty) {
        return;
    }
    layers::serial_metrics(m, &serial);
    layers::walk_metrics(m, &walks);
    let model = layers::ckks_metrics(m, rec, &scheduled, POLY_DEGREE, seed);
    layers::model_metrics(m, &model, &scheduled, true);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_stream_is_a_pure_function_of_the_seed() {
        let stream = |seed| (0..2_000).map(|i| spec(seed, i)).collect::<Vec<_>>();
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        let s = stream(7);
        for block in s.chunks(BLOCK as usize) {
            let count = |program, unseen| {
                block
                    .iter()
                    .filter(|r| (r.program, r.unseen) == (program, unseen))
                    .count()
            };
            assert_eq!(
                [
                    count(0, true),
                    count(0, false),
                    count(1, false),
                    count(2, false)
                ],
                [4, 18, 13, 5],
                "every block carries the same mix"
            );
        }
        assert!(s
            .iter()
            .all(|r| r.session < SESSIONS as usize && r.variant < VARIANTS as usize));
    }
}
