//! # fhe-serve — compile-cache + concurrent multi-session service layer
//!
//! Deployment front-end over the workspace's compilers and encrypted
//! executors: an [`FheServer`] accepts textual programs from many
//! sessions concurrently, compiles them once through a content-addressed
//! [`CompileCache`], and executes them on the DAG-parallel encrypted
//! backend with per-session key material.
//!
//! Guarantees, in order of importance:
//!
//! - **Determinism under concurrency.** A request's encryption seed is a
//!   pure function of its session's seed and its submission index
//!   ([`request_seed`]); outputs depend only on (schedule, inputs, keys,
//!   seed). Any interleaving of workers and sessions produces responses
//!   byte-identical to a serial single-session replay.
//! - **Session isolation.** Sessions share the compile cache, the
//!   per-degree polynomial pools and the walker's runner budget — never
//!   key material. A panicking request quarantines only its own session
//!   ([`ServeError::ExecutorPanic`]); the shared resources keep serving.
//! - **Structured failure.** Every failure mode is a [`ServeError`]; no
//!   panic crosses the request boundary and no mutex the service owns can
//!   be poisoned by a request.
//! - **Bounded memory.** The compile cache evicts least-recently-used
//!   entries under a byte budget; evicted programs recompile to
//!   structurally identical schedules (compilation is deterministic).
//!
//! Telemetry lives in [`ServeStats`]: throughput, log-bucketed p50/p99
//! latency, cache hit rate, per-degree pool counters and per-session
//! sums that reconcile exactly with the per-request [`MemStats`] deltas
//! (see `tests/serve_stats.rs`).
//!
//! [`MemStats`]: fhe_runtime::MemStats

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod error;
pub mod server;
pub mod session;
pub mod stats;

pub use cache::{CacheStats, CachedCompile, CompileCache};
pub use error::ServeError;
pub use server::{compiler_for, FheServer, Request, Response, ServerConfig, Ticket};
pub use session::{request_seed, SessionId, SessionStats, SessionStore};
pub use stats::{LatencyHistogram, PoolSnapshot, ServeStats};
