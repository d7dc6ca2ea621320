//! Multi-session extension of the memory-stats reconstruction test: the
//! pool and Galois-key counters surfaced through [`ServeStats`] must
//! reconcile **exactly** with the per-request [`MemStats`] deltas in each
//! response.
//!
//! With one service worker, requests execute serially against the shared
//! per-degree pool, so summing the per-request deltas across *all*
//! sessions reconstructs the global pool counters; and each session's
//! lazy key cache is touched only by its own requests, so its counters
//! equal that session's summed per-request key traffic.
//!
//! And the pool is a closed system: a request checks out of it every
//! polynomial it holds and returns every one, so serving more requests
//! never grows the free list.

use std::collections::HashMap;

use fhe_ir::{text, CompileParams};
use fhe_runtime::{outputs_close, plain, ExecOptions, KeyPolicy, MemStats, ParOptions};
use fhe_serve::{FheServer, Request, Response, ServerConfig};

const SLOTS: usize = 64;

/// Rotation-heavy program: distinct steps drive the lazy key cache, the
/// mul/rescale churn drives the pool.
fn rotsum_text() -> String {
    let b = fhe_ir::Builder::new("rotsum", SLOTS);
    let x = b.input("x");
    let y = b.input("y");
    let mut acc = x.clone() * y.clone();
    for k in [1i64, 2, 4] {
        acc = acc.rotate(k) + x.clone().rotate(-k) * y.clone();
    }
    text::print(&b.finish(vec![acc]))
}

fn inputs_for(s: usize, i: usize) -> HashMap<String, Vec<f64>> {
    let xs: Vec<f64> = (0..SLOTS)
        .map(|k| (((k + s + i) % 5) as f64 - 2.0) * 0.2)
        .collect();
    let ys: Vec<f64> = (0..SLOTS)
        .map(|k| (((k + 2 * s + 3 * i) % 3) as f64) * 0.3)
        .collect();
    [("x".to_string(), xs), ("y".to_string(), ys)]
        .into_iter()
        .collect()
}

#[test]
fn serve_stats_reconcile_with_per_request_trace_deltas() {
    const SESSIONS: usize = 3;
    const REQUESTS: usize = 3;

    // One service worker: requests serialize, so per-request deltas
    // against the shared pool partition the global counters exactly.
    let server = FheServer::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let text = rotsum_text();
    let program = text::parse(&text).unwrap();
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|s| {
            server.create_session(ParOptions {
                exec: ExecOptions {
                    poly_degree: SLOTS * 2,
                    seed: 0x57A7_5000 + s as u64,
                    threads: 1,
                    keys: KeyPolicy::Lazy { budget_bytes: None },
                    ..ExecOptions::default()
                },
                workers: 1,
                fusion: true,
            })
        })
        .collect();

    let mut responses: Vec<Vec<Response>> = vec![Vec::new(); SESSIONS];
    for i in 0..REQUESTS {
        for (s, &session) in sessions.iter().enumerate() {
            let resp = server
                .call(Request {
                    session,
                    program: text.clone(),
                    params: CompileParams::new(30),
                    compiler: "reserve".into(),
                    inputs: inputs_for(s, i),
                    deadline: None,
                })
                .expect("request succeeds");
            let reference = plain::execute(&program, &inputs_for(s, i));
            outputs_close(&resp.outputs, &reference, 1e-2).expect("accurate");
            responses[s].push(resp);
        }
    }

    let stats = server.stats();
    assert_eq!(stats.requests, (SESSIONS * REQUESTS) as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.pools.len(), 1, "all sessions share one degree");
    let pool = stats.pools[0].stats;

    let sum =
        |f: fn(&MemStats) -> u64| -> u64 { responses.iter().flatten().map(|r| f(&r.mem)).sum() };
    // Global pool counters == Σ per-request deltas, across all sessions.
    assert_eq!(sum(|m| m.pool_hits), pool.hits);
    assert_eq!(sum(|m| m.pool_misses), pool.misses);
    assert!(pool.hits > 0, "warm pool must recycle across requests");

    // Per-session: the ServeStats sums are exactly the per-request sums,
    // and the session's lazy key cache saw exactly its own key traffic.
    for (s, session_stats) in stats.sessions.iter().enumerate() {
        let per_request =
            |f: fn(&MemStats) -> u64| -> u64 { responses[s].iter().map(|r| f(&r.mem)).sum() };
        assert_eq!(session_stats.requests, REQUESTS as u64);
        assert_eq!(session_stats.pool_hits, per_request(|m| m.pool_hits));
        assert_eq!(session_stats.pool_misses, per_request(|m| m.pool_misses));
        assert_eq!(session_stats.key_hits, per_request(|m| m.key_hits));
        assert_eq!(session_stats.key_misses, per_request(|m| m.key_misses));
        assert_eq!(
            session_stats.key_evictions,
            per_request(|m| m.key_evictions)
        );
        assert_eq!(
            session_stats.peak_bytes,
            responses[s].iter().map(|r| r.mem.peak_bytes).max().unwrap()
        );

        let key_cache = session_stats
            .key_cache
            .as_ref()
            .expect("lazy policy exposes a key cache");
        assert_eq!(key_cache.hits, session_stats.key_hits, "session {s}");
        assert_eq!(key_cache.misses, session_stats.key_misses, "session {s}");
        assert_eq!(key_cache.evictions, session_stats.key_evictions);
        // 6 distinct rotation steps, generated once each on first use and
        // then served from the cache on the session's later requests.
        assert_eq!(key_cache.misses, 6, "session {s}");
        assert!(key_cache.hits >= 6 * (REQUESTS as u64 - 1), "session {s}");
    }

    // Compile-cache: one miss, everything else hits (same text + params +
    // compiler across all sessions).
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.hits, (SESSIONS * REQUESTS - 1) as u64);
    assert!(stats.peak_bytes() > 0);
}

#[test]
fn the_pool_free_list_stops_growing_once_warm() {
    let server = FheServer::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let text = rotsum_text();
    let session = server.create_session(ParOptions {
        exec: ExecOptions {
            poly_degree: SLOTS * 2,
            seed: 0x57A7_6000,
            threads: 1,
            ..ExecOptions::default()
        },
        workers: 1,
        fusion: true,
    });
    let serve = |count: usize| {
        for i in 0..count {
            server
                .call(Request {
                    session,
                    program: text.clone(),
                    params: CompileParams::new(30),
                    compiler: "reserve".into(),
                    inputs: inputs_for(0, i),
                    deadline: None,
                })
                .expect("request succeeds");
        }
        let pool = server.shared_pool(SLOTS * 2);
        let stats = pool.stats();
        assert_eq!(stats.live_bytes, 0, "an idle pool has nothing checked out");
        (stats.free_bytes, pool.parked_buffers())
    };
    serve(5); // warm-up: the first requests stock the free list
    let after_20 = serve(20);
    let after_220 = serve(200);
    assert_eq!(
        after_220, after_20,
        "(free bytes, parked buffers) after 200 more requests: each request \
         must return to the pool exactly what it took"
    );
    assert_eq!(after_20.0, (after_20.1 * SLOTS * 2 * 8) as u64);
}
