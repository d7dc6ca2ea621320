//! Concurrency suite for the service layer: N submitter threads × M
//! sessions against a multi-worker [`FheServer`], under both lazy and
//! eager key provisioning and DAG-executor widths {1, 2, 8} — every
//! response must be **byte-identical** to a serial single-session replay
//! through [`execute_with_keys`] at the same derived encryption seed.
//!
//! This pins the service determinism contract: outputs are a pure
//! function of (schedule, inputs, keys, seed); queue interleavings,
//! worker counts and pool sharing must not move a single bit.

use std::collections::HashMap;
use std::sync::Arc;

use fhe_ir::pipeline::ScaleCompiler;
use fhe_ir::{text, CompileParams};
use fhe_runtime::{
    execute_with_keys, outputs_close, plain, ExecOptions, KeyPolicy, ParOptions, SessionKeys,
};
use fhe_serve::{request_seed, FheServer, Request, ServerConfig};

const SLOTS: usize = 128;
const SESSIONS: usize = 3;
const REQUESTS: usize = 4;

fn fig2a_text() -> String {
    let b = fhe_ir::Builder::new("fig2a", SLOTS);
    let x = b.input("x");
    let y = b.input("y");
    let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
    text::print(&b.finish(vec![q]))
}

fn session_seed(s: usize) -> u64 {
    0x5E55_0000 + s as u64
}

/// Deterministic inputs, distinct per (session, request index).
fn inputs_for(s: usize, i: usize) -> HashMap<String, Vec<f64>> {
    let xs: Vec<f64> = (0..SLOTS)
        .map(|k| (((k + 3 * s + 7 * i) % 11) as f64 - 5.0) * 0.08)
        .collect();
    let ys: Vec<f64> = (0..SLOTS)
        .map(|k| (((k + 5 * s + 2 * i) % 7) as f64) * 0.09)
        .collect();
    [("x".to_string(), xs), ("y".to_string(), ys)]
        .into_iter()
        .collect()
}

fn exec_options(s: usize, keys: KeyPolicy) -> ExecOptions {
    ExecOptions {
        poly_degree: SLOTS * 2,
        seed: session_seed(s),
        threads: 1,
        keys,
        rotation_hoisting: true,
    }
}

/// The serial oracle: one session at a time, one request at a time,
/// through the plain (non-service) executor entry point.
fn serial_reference(keys_policy: &KeyPolicy) -> Vec<Vec<Vec<Vec<f64>>>> {
    let program = text::parse(&fig2a_text()).expect("round-trips");
    let scheduled = reserve_core::ReserveCompiler::full()
        .compile(&program, &CompileParams::new(30))
        .expect("compiles")
        .scheduled;
    (0..SESSIONS)
        .map(|s| {
            let options = exec_options(s, keys_policy.clone());
            let keys = SessionKeys::for_schedule(&scheduled, &options).expect("valid schedule");
            (0..REQUESTS)
                .map(|i| {
                    let inputs = inputs_for(s, i);
                    let report = execute_with_keys(
                        &scheduled,
                        &inputs,
                        &options,
                        &keys,
                        None,
                        request_seed(session_seed(s), i as u64),
                    )
                    .expect("executes");
                    let reference = plain::execute(&scheduled.program, &inputs);
                    outputs_close(&report.outputs, &reference, 1e-2).expect("accurate");
                    report.outputs
                })
                .collect()
        })
        .collect()
}

/// Runs the full matrix for one key policy: for each width w in
/// {1, 2, 8}, w service workers × w DAG runners, all sessions submitting
/// concurrently; asserts byte-identity against the serial oracle.
fn run_matrix(keys_policy: KeyPolicy) {
    let reference = serial_reference(&keys_policy);
    let program_text = fig2a_text();

    for width in [1usize, 2, 8] {
        let server = Arc::new(FheServer::new(ServerConfig {
            workers: width,
            queue_capacity: 64,
            ..ServerConfig::default()
        }));
        let sessions: Vec<_> = (0..SESSIONS)
            .map(|s| {
                server.create_session(ParOptions {
                    exec: exec_options(s, keys_policy.clone()),
                    workers: width,
                    fusion: true,
                })
            })
            .collect();

        // One submitter thread per session, submitting in order (the
        // session's sequence numbers then match the request indices),
        // interleaved arbitrarily across sessions by the scheduler.
        let outputs: Vec<Vec<Vec<Vec<f64>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SESSIONS)
                .map(|s| {
                    let server = server.clone();
                    let session = sessions[s];
                    let text = program_text.clone();
                    scope.spawn(move || {
                        let tickets: Vec<_> = (0..REQUESTS)
                            .map(|i| {
                                server
                                    .submit(Request {
                                        session,
                                        program: text.clone(),
                                        params: CompileParams::new(30),
                                        compiler: "reserve".into(),
                                        inputs: inputs_for(s, i),
                                        deadline: None,
                                    })
                                    .expect("submits")
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .enumerate()
                            .map(|(i, t)| {
                                let resp = t.wait().expect("request succeeds");
                                assert_eq!(resp.seq, i as u64, "submission order is seq order");
                                assert_eq!(
                                    resp.enc_seed,
                                    request_seed(session_seed(s), i as u64),
                                    "seed derivation is the documented pure function"
                                );
                                resp.outputs
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for s in 0..SESSIONS {
            for i in 0..REQUESTS {
                assert_eq!(
                    outputs[s][i], reference[s][i],
                    "width {width}, session {s}, request {i}: concurrent response \
                     must be byte-identical to the serial replay"
                );
            }
        }

        let stats = server.stats();
        assert_eq!(stats.requests, (SESSIONS * REQUESTS) as u64);
        assert_eq!(stats.failed, 0);
        // All sessions submit the same (text, params, compiler): exactly
        // one compile, everything else cache hits.
        assert_eq!(stats.cache.misses, 1, "width {width}");
        assert_eq!(stats.cache.hits, (SESSIONS * REQUESTS - 1) as u64);
        assert_eq!(stats.sessions.len(), SESSIONS);
        for session_stats in &stats.sessions {
            assert_eq!(session_stats.requests, REQUESTS as u64);
            assert!(!session_stats.quarantined);
            assert!(session_stats.peak_bytes > 0);
        }
    }
}

#[test]
fn concurrent_sessions_are_byte_identical_to_serial_replay_lazy() {
    run_matrix(KeyPolicy::Lazy { budget_bytes: None });
}

#[test]
fn concurrent_sessions_are_byte_identical_to_serial_replay_eager() {
    run_matrix(KeyPolicy::EagerProgram);
}
