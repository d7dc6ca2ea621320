//! Fault injection for the service layer: a panicking request (the replay
//! corpus reproducer, submitted with its input binding missing) must come
//! back as a structured [`ServeError::ExecutorPanic`], quarantine **only
//! its own session**, and leave the shared compile cache and polynomial
//! pools serving every other session — no poisoned mutexes, stable
//! [`ServeStats`]. A request whose *data* is bad — a NaN slot, or a constant
//! in the program text that overflows `f64` — is not a panic at all: it is
//! refused with a typed error and its session serves on. Fast-fail admission
//! ([`FheServer::try_submit`]) refuses a request on a full queue without
//! consuming anything of its session.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

use fhe_fuzz::corpus::parse_case;
use fhe_ir::text;
use fhe_runtime::{outputs_close, plain, ExecOptions, ParOptions};
use fhe_serve::{FheServer, Request, ServeError, ServerConfig};

/// The replay-corpus reproducer driving the fault: `wrap_mul_const_chain`
/// (64 slots, a cipher·const multiply chain).
fn corpus_case() -> (String, fhe_ir::CompileParams, usize) {
    let raw = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/corpus/wrap_mul_const_chain.fhe"),
    )
    .expect("corpus case exists");
    let case = parse_case(&raw).expect("corpus case parses");
    let slots = case.program.slots();
    (text::print(&case.program), case.params, slots)
}

fn options(seed: u64, degree: usize) -> ParOptions {
    ParOptions {
        exec: ExecOptions {
            poly_degree: degree,
            seed,
            threads: 1,
            ..ExecOptions::default()
        },
        workers: 1,
        fusion: true,
    }
}

/// The plaintext reference a client holds for `request`.
fn reference(request: &Request) -> Vec<Vec<f64>> {
    plain::execute(&text::parse(&request.program).unwrap(), &request.inputs)
}

fn good_inputs(slots: usize) -> HashMap<String, Vec<f64>> {
    // Small magnitudes: the reproducer's x*2*2 chain stays within the
    // encoder's range, so the request is well-behaved.
    [(
        "x0".to_string(),
        (0..slots).map(|k| ((k % 5) as f64 - 2.0) * 0.05).collect(),
    )]
    .into_iter()
    .collect()
}

#[test]
fn panicking_request_quarantines_only_its_session() {
    let (program, params, slots) = corpus_case();
    let degree = slots * 2;
    let server = FheServer::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let victim = server.create_session(options(0xBAD, degree));
    let bystander = server.create_session(options(0x600D, degree));

    let request = |session, inputs| Request {
        session,
        program: program.clone(),
        params,
        compiler: "reserve".into(),
        inputs,
        deadline: None,
    };

    // Baseline: both sessions serve fine.
    let before_victim = server
        .call(request(victim, good_inputs(slots)))
        .expect("victim serves before the fault");
    let before = server
        .call(request(bystander, good_inputs(slots)))
        .expect("bystander serves");
    outputs_close(
        &before.outputs,
        &reference(&request(bystander, good_inputs(slots))),
        1e-2,
    )
    .expect("accurate");

    // The fault: submit the reproducer with its input binding missing.
    // The executor panics (`missing input binding`); the service must
    // catch it at the request boundary.
    let fault = server.call(request(victim, HashMap::new()));
    match fault {
        Err(ServeError::ExecutorPanic(msg)) => {
            assert!(
                msg.contains("missing input binding"),
                "panic payload surfaced verbatim, got: {msg}"
            );
        }
        other => panic!("expected ExecutorPanic, got {other:?}"),
    }

    // The victim is quarantined — rejected at submission, fast.
    match server.call(request(victim, good_inputs(slots))) {
        Err(ServeError::SessionQuarantined(id)) => assert_eq!(id, victim),
        other => panic!("expected SessionQuarantined, got {other:?}"),
    }

    // The bystander keeps serving through the same shared cache and pool
    // (proving no serve-owned mutex was poisoned), with identical bytes
    // to its pre-fault responses modulo the per-request seed.
    for _ in 0..2 {
        let after = server
            .call(request(bystander, good_inputs(slots)))
            .expect("bystander unaffected by the quarantine");
        assert!(after.cache_hit, "compile cache survived the panic");
        let expected = reference(&request(bystander, good_inputs(slots)));
        outputs_close(&after.outputs, &expected, 1e-2).expect("accurate");
    }

    // Stats are coherent: the panic and the quarantined retry are the
    // only failures, both attributed to the victim.
    // The quarantined retry was rejected at submission and never became
    // a request; 5 reached a worker.
    let stats = server.stats();
    assert_eq!(stats.requests, 5);
    assert_eq!(
        stats.failed, 1,
        "only the panicking request reached a worker"
    );
    assert_eq!(stats.cache.misses, 1);
    assert!(stats.cache.hit_rate() > 0.5);
    let victim_stats = stats.sessions.iter().find(|s| s.id == victim).unwrap();
    let bystander_stats = stats.sessions.iter().find(|s| s.id == bystander).unwrap();
    assert!(victim_stats.quarantined);
    assert_eq!(victim_stats.failures, 1);
    assert_eq!(victim_stats.requests, 2);
    assert!(!bystander_stats.quarantined);
    assert_eq!(bystander_stats.failures, 0);
    assert_eq!(bystander_stats.requests, 3);
    // The shared pool kept recycling across the fault.
    assert_eq!(stats.pools.len(), 1);
    assert!(stats.pools[0].stats.hits > 0);
    assert!(before_victim.mem.peak_bytes > 0);
    assert!(stats.p99_latency >= stats.p50_latency);
    assert!(stats.p50_latency > Duration::ZERO);
}

#[test]
fn keygen_panic_from_client_params_is_caught_at_the_boundary() {
    // `Request.params` is client-controlled. `rescale_bits = 15` passes
    // compilation (scale analysis is symbolic) but panics inside key
    // generation: `ntt_primes` asserts prime sizes in 20..=61 bits. The
    // panic happens *before* the execution phase, so this pins down that
    // the whole pipeline — not just the executor call — is wrapped in
    // `catch_unwind`: with a single worker, an uncaught unwind would kill
    // the only service thread and every later call would hang.
    let server = FheServer::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let victim = server.create_session(options(0x5E5, 256));
    let bystander = server.create_session(options(0xB51, 256));

    let program = {
        use fhe_ir::Builder;
        let b = Builder::new("square", 128);
        let x = b.input("x");
        let sq = x.clone() * x;
        text::print(&b.finish(vec![sq]))
    };
    let request = |session, params| Request {
        session,
        program: program.clone(),
        params,
        compiler: "reserve".into(),
        inputs: [("x".to_string(), vec![0.5; 128])].into_iter().collect(),
        deadline: None,
    };

    let bad_params = fhe_ir::CompileParams::with_rescale_bits(10, 15);
    match server.call(request(victim, bad_params)) {
        Err(ServeError::ExecutorPanic(msg)) => {
            assert!(
                msg.contains("20..=61"),
                "keygen assert surfaced verbatim, got: {msg}"
            );
        }
        other => panic!("expected ExecutorPanic, got {other:?}"),
    }
    let stats = server.stats();
    let victim_stats = stats.sessions.iter().find(|s| s.id == victim).unwrap();
    assert!(victim_stats.quarantined, "pre-execution panic quarantines");

    // The single worker survived the unwind: the bystander is served,
    // and shutdown (run again on drop) joins a live thread.
    let ok = server
        .call(request(bystander, fhe_ir::CompileParams::new(30)))
        .expect("worker survives a pre-execution panic");
    let expected = reference(&request(bystander, fhe_ir::CompileParams::new(30)));
    outputs_close(&ok.outputs, &expected, 1e-2).expect("accurate");
    server.shutdown();
}

#[test]
fn a_non_finite_input_slot_is_a_typed_error_not_a_quarantine() {
    let (program, params, slots) = corpus_case();
    let server = FheServer::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let session = server.create_session(options(0x0BAD_DA7A, slots * 2));
    let request = |inputs| Request {
        session,
        program: program.clone(),
        params,
        compiler: "reserve".into(),
        inputs,
        deadline: None,
    };
    let with_slot = |slot: usize, value: f64| {
        let mut inputs = good_inputs(slots);
        inputs.get_mut("x0").unwrap()[slot] = value;
        inputs
    };
    let mut too_long = good_inputs(slots);
    too_long.get_mut("x0").unwrap().push(0.0);

    for (inputs, bad_slot) in [
        (with_slot(3, f64::NAN), 3),
        (with_slot(slots - 1, f64::NEG_INFINITY), slots - 1),
        (too_long, slots),
    ] {
        match server.call(request(inputs)) {
            Err(ServeError::Schedule(errs)) => assert_eq!(
                errs,
                [fhe_ir::ScheduleError::InvalidInput {
                    name: "x0".into(),
                    slot: bad_slot,
                }]
            ),
            other => panic!("expected a schedule error for slot {bad_slot}, got {other:?}"),
        }
        // The offending session is not quarantined: its next well-formed
        // request is served.
        let ok = server
            .call(request(good_inputs(slots)))
            .expect("session survives its own bad input");
        let expected = reference(&request(good_inputs(slots)));
        outputs_close(&ok.outputs, &expected, 1e-2).expect("accurate");
    }

    let stats = server.stats();
    assert_eq!((stats.requests, stats.failed), (6, 3));
    assert!(!stats.sessions[0].quarantined);
    // Refused before anything was encrypted: nothing is checked out.
    assert_eq!(server.shared_pool(slots * 2).stats().live_bytes, 0);
}

#[test]
fn a_program_of_another_slot_count_is_a_typed_error_not_a_quarantine() {
    // The session's N = 16 holds 8 slots: a 4-slot program does not fit
    // its context, which is the request's fault, found before anything is
    // encrypted.
    let server = FheServer::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let session = server.create_session(options(0x5107, 16));
    let request = |slots: usize| Request {
        session,
        program: format!(
            "program t(slots={slots}) {{\n  %0 = input \"x\"\n  %1 = const 0.5\n  \
             %2 = mul %0, %1\n  return %2\n}}\n"
        ),
        params: fhe_ir::CompileParams::new(30),
        compiler: "reserve".into(),
        inputs: [("x".to_string(), vec![0.25; slots])].into_iter().collect(),
        deadline: None,
    };
    match server.call(request(4)) {
        Err(ServeError::Schedule(errs)) => assert_eq!(
            errs,
            [fhe_ir::ScheduleError::SessionMismatch {
                what: "slots",
                schedule: 4,
                session: 8,
            }]
        ),
        other => panic!("expected a schedule error, got {other:?}"),
    }
    let ok = server.call(request(8)).expect("session serves on");
    outputs_close(&ok.outputs, &reference(&request(8)), 1e-2).expect("accurate");
    let stats = server.stats();
    assert_eq!((stats.requests, stats.failed), (2, 1));
    assert!(!stats.sessions[0].quarantined);
    assert_eq!(server.shared_pool(16).stats().live_bytes, 0);
}

#[test]
fn an_overflowing_constant_is_a_parse_error_not_a_quarantine() {
    // `1e999` is a well-formed literal that `str::parse::<f64>` rounds to
    // +∞. The parser must refuse it: past the parser it compiles, and the
    // encoder panics on it ("cannot reduce non-finite value"), which
    // quarantines the session.
    let server = FheServer::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let session = server.create_session(options(0x1E999, 16));
    let request = |constant: &str| Request {
        session,
        program: format!(
            "program t(slots=8) {{\n  %0 = input \"x\"\n  %1 = const {constant}\n  \
             %2 = mul %0, %1\n  return %2\n}}\n"
        ),
        params: fhe_ir::CompileParams::new(30),
        compiler: "reserve".into(),
        inputs: [("x".to_string(), vec![0.25; 8])].into_iter().collect(),
        deadline: None,
    };
    for constant in ["1e999", "[0.5, -1e999]"] {
        match server.call(request(constant)) {
            Err(ServeError::Parse(msg)) => {
                assert!(
                    msg.contains("line 3") && msg.contains("not finite"),
                    "{msg}"
                );
            }
            other => panic!("expected a parse error for `{constant}`, got {other:?}"),
        }
        let ok = server
            .call(request("0.5"))
            .expect("session survives its own bad program text");
        outputs_close(&ok.outputs, &reference(&request("0.5")), 1e-2).expect("accurate");
    }
    let stats = server.stats();
    assert_eq!((stats.requests, stats.failed), (4, 2));
    assert!(!stats.sessions[0].quarantined);
}

/// The reserve compiler under the service's cache key, held at a gate: it
/// announces that it holds the single-flight claim, then compiles only once
/// released.
struct GatedCompiler {
    inner: reserve_core::ReserveCompiler,
    claimed: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

/// Renders as the wrapped compiler, so it compiles under that compiler's
/// cache key.
impl std::fmt::Debug for GatedCompiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl fhe_ir::ScaleCompiler for GatedCompiler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn compile(
        &self,
        program: &fhe_ir::Program,
        params: &fhe_ir::CompileParams,
    ) -> Result<fhe_ir::Compiled, fhe_ir::CompileError> {
        self.claimed.send(()).expect("test is listening");
        self.release.recv().expect("test releases the gate");
        self.inner.compile(program, params)
    }
}

#[test]
fn try_submit_on_a_full_queue_is_overloaded_and_claims_no_sequence_number() {
    const CAPACITY: usize = 2;
    let (program, params, slots) = corpus_case();
    let server = FheServer::new(ServerConfig {
        workers: 1,
        queue_capacity: CAPACITY,
        ..ServerConfig::default()
    });
    let session = server.create_session(options(0xF011, slots * 2));
    let request = || Request {
        session,
        program: program.clone(),
        params,
        compiler: "reserve".into(),
        inputs: good_inputs(slots),
        deadline: None,
    };

    let (claimed_tx, claimed) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        // Owned by this closure, so a failed assertion below drops it and
        // the gate thread unblocks instead of hanging the scope's join.
        let release = release;
        // Hold the single-flight compile claim on the request's cache key,
        // so the only worker blocks inside the first request it dequeues
        // until the gate opens: no sleeps, no timing.
        scope.spawn(|| {
            let gated = GatedCompiler {
                inner: reserve_core::ReserveCompiler::full(),
                claimed: claimed_tx,
                release: release_rx,
            };
            let source = text::parse(&program).expect("corpus case parses");
            server
                .cache()
                .get_or_compile(&source, &params, &gated)
                .expect("gated compile succeeds");
        });
        claimed.recv().expect("claim is held");

        // 1 + CAPACITY blocking submits: the last returns only once the
        // worker has dequeued the first, so the queue now holds exactly
        // CAPACITY tickets and the worker is parked at the gate.
        let tickets: Vec<_> = (0..=CAPACITY)
            .map(|_| server.submit(request()).expect("accepted"))
            .collect();
        match server.try_submit(request()) {
            Err(ServeError::Overloaded { queued, capacity }) => {
                assert_eq!((queued, capacity), (CAPACITY, CAPACITY));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }

        release.send(()).expect("gate thread is waiting");
        for (i, ticket) in tickets.into_iter().enumerate() {
            let served = ticket.wait().expect("queued request is served");
            assert_eq!(served.seq, i as u64);
            assert!(served.cache_hit, "served from the gated compile");
        }
    });

    // The queue has drained: fast-fail admission accepts again, and the
    // refused request consumed no sequence number.
    let after = server
        .try_submit(request())
        .expect("accepted once the queue drained")
        .wait()
        .expect("served");
    assert_eq!(after.seq, CAPACITY as u64 + 1);
    let stats = server.stats();
    assert_eq!((stats.requests, stats.failed), (CAPACITY as u64 + 2, 0));
}
