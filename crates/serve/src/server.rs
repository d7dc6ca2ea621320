//! The request scheduler: a bounded job queue drained by a fixed pool of
//! service workers, each request compiled through the shared
//! [`CompileCache`] and executed with its session's keys against the
//! shared per-degree polynomial pools.
//!
//! Ordering and determinism: a request's encryption seed is derived from
//! its session's seed and its *submission* sequence number
//! ([`request_seed`]), and encrypted outputs are a pure function of
//! (schedule, inputs, keys, seed). Worker interleaving therefore cannot
//! change any response byte — the concurrency suite replays runs serially
//! and compares exact bytes.
//!
//! Fault isolation: the whole request pipeline — parse, compile, key
//! generation, execution — runs under one `catch_unwind`, so a panic in
//! *any* stage (a compiler panic on a degenerate program, a keygen assert
//! on out-of-range [`CompileParams`], an executor panic on a malformed
//! binding) is returned as [`ServeError::ExecutorPanic`] and quarantines
//! the owning session only; the compile cache and shared pools are
//! untouched (their panic-time cleanup runs on unwind — see
//! `FlightClaim` in `cache.rs` — and the executor's panic sites do not
//! hold their locks), so other sessions keep serving.

use fhe_conc::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fhe_conc::sync::thread::JoinHandle;
use fhe_conc::sync::{thread, Arc, Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fhe_ckks::PolyPool;
use fhe_ir::pipeline::ScaleCompiler;
use fhe_ir::{text, CompileParams};
use fhe_runtime::{execute_parallel_with_keys, MemStats, ParOptions};

use crate::cache::CompileCache;
use crate::error::ServeError;
use crate::session::{request_seed, Session, SessionId, SessionStore};
use crate::stats::{LatencyHistogram, PoolSnapshot, ServeStats};

/// Resolves a compiler id from the service registry. Ids are the
/// lower-case names clients put in [`Request::compiler`]:
/// `"reserve"`/`"this-work"`, `"eva"`, `"hecate"`.
pub fn compiler_for(id: &str) -> Option<Box<dyn ScaleCompiler>> {
    match id {
        "reserve" | "this-work" => Some(Box::new(reserve_core::ReserveCompiler::full())),
        "eva" => Some(Box::new(fhe_baselines::EvaCompiler)),
        "hecate" => Some(Box::new(fhe_baselines::HecateCompiler::default())),
        _ => None,
    }
}

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Service worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity; [`FheServer::submit`] blocks when full
    /// (backpressure), [`FheServer::try_submit`] fails with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that set none (`None` = no deadline).
    /// Deadlines are measured from submission and checked at two points:
    /// when a worker dequeues the job, and again after compile + keygen
    /// just before execution — an expired request fails with
    /// [`ServeError::DeadlineExceeded`] without executing. The deadline
    /// is **not** a response-latency bound: a phase already under way
    /// (compile, keygen, execution) is never aborted, so a request that
    /// passes the last check still runs to completion even if it finishes
    /// past its deadline.
    pub default_deadline: Option<Duration>,
    /// Byte budget of the compile cache (`None` = unbounded).
    pub cache_budget_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            cache_budget_bytes: None,
        }
    }
}

/// One unit of client work: a textual program to compile (through the
/// cache) and execute on the session's keys.
#[derive(Debug, Clone)]
pub struct Request {
    /// The session to execute under.
    pub session: SessionId,
    /// The program in the workspace's textual format. The compile-cache key
    /// is this text parsed and printed again, so texts that differ only in
    /// comments or layout share an entry.
    pub program: String,
    /// Compile parameters (part of the cache key).
    pub params: CompileParams,
    /// Compiler id (part of the cache key); see [`compiler_for`].
    pub compiler: String,
    /// Input bindings, one vector per program input.
    pub inputs: HashMap<String, Vec<f64>>,
    /// Per-request deadline overriding the server default (same
    /// semantics as [`ServerConfig::default_deadline`]: checked at
    /// dequeue and before execution, never aborts a running phase).
    pub deadline: Option<Duration>,
}

/// A successfully served request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Decrypted program outputs. The server never evaluates the program
    /// in the clear: a client checks them against its own reference.
    pub outputs: Vec<Vec<f64>>,
    /// Whether compilation was served from the cache.
    pub cache_hit: bool,
    /// The session-local request index (submission order) the encryption
    /// seed was derived from.
    pub seq: u64,
    /// The derived encryption seed (replayable via [`request_seed`]).
    pub enc_seed: u64,
    /// This request's memory counters: deltas against the shared pool,
    /// absolute byte peaks (see [`MemStats::delta_since`]).
    pub mem: MemStats,
    /// Wall time of the homomorphic phase.
    pub op_time: Duration,
    /// Executor wall time (encrypt + ops + decrypt).
    pub exec_time: Duration,
    /// End-to-end latency: queue wait + compile (or cache hit) + execution.
    pub latency: Duration,
}

#[derive(Debug, Default)]
struct TicketInner {
    slot: Mutex<Option<Result<Response, ServeError>>>,
    done: Condvar,
}

/// A handle to a submitted request's eventual result.
#[derive(Debug)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl Ticket {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Returns the request's [`ServeError`] if it failed.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut slot = self.inner.slot.lock().expect("ticket lock");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.inner.done.wait(slot).expect("ticket wait");
        }
    }
}

struct Job {
    request: Request,
    session: Arc<Session>,
    seq: u64,
    submitted: Instant,
    deadline: Option<Duration>,
    ticket: Arc<TicketInner>,
}

struct ServerInner {
    cfg: ServerConfig,
    cache: CompileCache,
    store: SessionStore,
    pools: Mutex<HashMap<usize, Arc<PolyPool>>>,
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    not_full: Condvar,
    shutdown: AtomicBool,
    latency: LatencyHistogram,
    completed: AtomicU64,
    failed: AtomicU64,
    started: Instant,
}

impl ServerInner {
    /// The shared polynomial pool for limb degree `degree`, created on
    /// first use. Every session executing at this degree recycles through
    /// the same pool.
    fn pool(&self, degree: usize) -> Arc<PolyPool> {
        let mut pools = self.pools.lock().expect("pool map lock");
        pools
            .entry(degree)
            .or_insert_with(|| Arc::new(PolyPool::new(degree)))
            .clone()
    }

    fn fulfill(&self, ticket: &TicketInner, result: Result<Response, ServeError>) {
        if result.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
        *ticket.slot.lock().expect("ticket lock") = Some(result);
        ticket.done.notify_all();
    }

    /// Runs one job end-to-end and fulfills its ticket. Never panics: the
    /// whole pipeline ([`ServerInner::run`]: parse, compile, keygen,
    /// execute) is wrapped in a single `catch_unwind` — any stage can
    /// panic, not just the executor — and every other failure mode maps
    /// to a [`ServeError`].
    fn process(&self, job: Job) {
        let Job {
            request,
            session,
            seq,
            submitted,
            deadline,
            ticket,
        } = job;

        if let Some(deadline) = deadline {
            let waited = submitted.elapsed();
            if waited > deadline {
                session.record_failure();
                self.fulfill(&ticket, Err(ServeError::DeadlineExceeded { waited }));
                return;
            }
        }
        // A panic earlier in the queue may have quarantined the session
        // after this job was accepted.
        if session.is_quarantined() {
            session.record_failure();
            self.fulfill(&ticket, Err(ServeError::SessionQuarantined(session.id())));
            return;
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.run(request, &session, seq, submitted, deadline)
        }));
        match outcome {
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                session.quarantine();
                session.record_failure();
                self.fulfill(&ticket, Err(ServeError::ExecutorPanic(msg)));
            }
            Ok(Err(err)) => {
                session.record_failure();
                self.fulfill(&ticket, Err(err));
            }
            Ok(Ok(response)) => {
                session.record_success(&response.mem);
                self.latency.record(response.latency);
                self.fulfill(&ticket, Ok(response));
            }
        }
    }

    /// The fallible request pipeline: parse → cached compile → session
    /// keys → execute. Every call runs inside [`ServerInner::process`]'s
    /// `catch_unwind`, so a panic anywhere in here surfaces as
    /// [`ServeError::ExecutorPanic`] instead of unwinding through the
    /// worker.
    fn run(
        &self,
        request: Request,
        session: &Session,
        seq: u64,
        submitted: Instant,
        deadline: Option<Duration>,
    ) -> Result<Response, ServeError> {
        let program =
            text::parse(&request.program).map_err(|e| ServeError::Parse(e.to_string()))?;
        let compiler = compiler_for(&request.compiler)
            .ok_or_else(|| ServeError::UnknownCompiler(request.compiler.clone()))?;
        let cached = self
            .cache
            .get_or_compile(&program, &request.params, compiler.as_ref())?;
        let keys = session.keys_for(&cached.scheduled)?;
        // Second deadline check: a cold compile or keygen can dwarf the
        // queue wait, and execution — the expensive phase — is still
        // ahead, so fail the already-late request cheaply instead of
        // running it.
        if let Some(deadline) = deadline {
            let waited = submitted.elapsed();
            if waited > deadline {
                return Err(ServeError::DeadlineExceeded { waited });
            }
        }

        let pool = self.pool(keys.context().degree());
        let enc_seed = request_seed(session.options().exec.seed, seq);
        let options: ParOptions = session.options().clone();
        let report = execute_parallel_with_keys(
            &cached.scheduled,
            &request.inputs,
            &options,
            &keys,
            Some(pool),
            enc_seed,
        )?;
        let latency = submitted.elapsed();
        Ok(Response {
            outputs: report.outputs,
            cache_hit: cached.hit,
            seq,
            enc_seed,
            mem: report.mem,
            op_time: report.op_time,
            exec_time: report.total_time,
            latency,
        })
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue lock");
                loop {
                    if let Some(job) = queue.pop_front() {
                        self.not_full.notify_one();
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    queue = self.not_empty.wait(queue).expect("queue wait");
                }
            };
            self.process(job);
        }
    }
}

/// The multi-session FHE service: compile cache + session store + bounded
/// request queue drained by service workers.
///
/// Dropping the server shuts it down: queued-but-unstarted requests are
/// fulfilled with [`ServeError::ShuttingDown`] and workers are joined.
#[derive(Debug)]
pub struct FheServer {
    inner: Arc<ServerInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ServerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerInner")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl FheServer {
    /// Starts a server with `cfg.workers` service threads.
    pub fn new(cfg: ServerConfig) -> FheServer {
        let workers = cfg.workers.max(1);
        let inner = Arc::new(ServerInner {
            cache: CompileCache::new(cfg.cache_budget_bytes),
            cfg,
            store: SessionStore::new(),
            pools: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            shutdown: AtomicBool::new(false),
            latency: LatencyHistogram::new(),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            started: Instant::now(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                thread::Builder::new()
                    .name(format!("fhe-serve-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn service worker")
            })
            .collect();
        FheServer {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Creates a session executing under `options` and returns its id.
    pub fn create_session(&self, options: ParOptions) -> SessionId {
        self.inner.store.create(options)
    }

    /// Submits a request, blocking while the queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Fails fast — before queuing — with [`ServeError::UnknownSession`],
    /// [`ServeError::SessionQuarantined`], [`ServeError::UnknownCompiler`]
    /// or [`ServeError::ShuttingDown`].
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        self.enqueue(request, true)
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// As [`FheServer::submit`], plus [`ServeError::Overloaded`] when the
    /// queue is at capacity.
    pub fn try_submit(&self, request: Request) -> Result<Ticket, ServeError> {
        self.enqueue(request, false)
    }

    /// Submits and waits: `submit(request)?.wait()`.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] of submission or execution.
    pub fn call(&self, request: Request) -> Result<Response, ServeError> {
        self.submit(request)?.wait()
    }

    fn enqueue(&self, request: Request, block: bool) -> Result<Ticket, ServeError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let session = self
            .inner
            .store
            .get(request.session)
            .ok_or(ServeError::UnknownSession(request.session))?;
        if session.is_quarantined() {
            return Err(ServeError::SessionQuarantined(session.id()));
        }
        if compiler_for(&request.compiler).is_none() {
            return Err(ServeError::UnknownCompiler(request.compiler));
        }

        let ticket = Arc::new(TicketInner::default());
        let deadline = request.deadline.or(self.inner.cfg.default_deadline);
        let mut queue = self.inner.queue.lock().expect("queue lock");
        while queue.len() >= self.inner.cfg.queue_capacity {
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            if !block {
                return Err(ServeError::Overloaded {
                    queued: queue.len(),
                    capacity: self.inner.cfg.queue_capacity,
                });
            }
            queue = self.inner.not_full.wait(queue).expect("queue wait");
        }
        // Re-check while holding the lock: shutdown() sets the flag under
        // this same lock before draining, so a job pushed past this point
        // is guaranteed to be either drained by shutdown or dequeued by a
        // worker — never stranded on a queue nobody will drain.
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        // The sequence number is claimed under the queue lock so that
        // per-session submission order and queue order agree.
        let seq = session.next_seq();
        queue.push_back(Job {
            request,
            session,
            seq,
            submitted: Instant::now(),
            deadline,
            ticket: ticket.clone(),
        });
        drop(queue);
        self.inner.not_empty.notify_one();
        Ok(Ticket { inner: ticket })
    }

    /// A point-in-time snapshot of service counters.
    pub fn stats(&self) -> ServeStats {
        let completed = self.inner.completed.load(Ordering::Relaxed);
        let failed = self.inner.failed.load(Ordering::Relaxed);
        let uptime = self.inner.started.elapsed().as_secs_f64().max(1e-9);
        let mut pools: Vec<PoolSnapshot> = self
            .inner
            .pools
            .lock()
            .expect("pool map lock")
            .iter()
            .map(|(&degree, pool)| PoolSnapshot {
                degree,
                stats: pool.stats(),
            })
            .collect();
        pools.sort_by_key(|p| p.degree);
        ServeStats {
            requests: completed + failed,
            failed,
            requests_per_sec: completed as f64 / uptime,
            p50_latency: self.inner.latency.quantile(0.5),
            p99_latency: self.inner.latency.quantile(0.99),
            mean_latency: self.inner.latency.mean(),
            cache: self.inner.cache.stats(),
            pools,
            sessions: self.inner.store.stats(),
        }
    }

    /// The compile cache (exposed for the bench's cold phase and tests).
    pub fn cache(&self) -> &CompileCache {
        &self.inner.cache
    }

    /// The shared polynomial pool for limb degree `degree` (created on
    /// first use).
    pub fn shared_pool(&self, degree: usize) -> Arc<PolyPool> {
        self.inner.pool(degree)
    }

    /// Stops accepting work, fails queued-but-unstarted requests with
    /// [`ServeError::ShuttingDown`] and joins the workers. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        let drained: Vec<Job> = {
            // The flag is set *under the queue lock* so flag-set and drain
            // are atomic with respect to enqueuers: every job pushed
            // before this point is drained here, and enqueue()'s re-check
            // under the same lock rejects everything after — no job can
            // land on the queue once the workers are told to exit.
            let mut queue = self.inner.queue.lock().expect("queue lock");
            self.inner.shutdown.store(true, Ordering::Release);
            queue.drain(..).collect()
        };
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
        for job in drained {
            job.session.record_failure();
            self.inner
                .fulfill(&job.ticket, Err(ServeError::ShuttingDown));
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker handles"));
        for handle in handles {
            handle.join().expect("service worker exits cleanly");
        }
    }
}

impl Drop for FheServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Miniature re-derivations of the server's enqueue/shutdown and
/// quarantine-admission protocols for the `fhe-conc` model checker
/// (checker builds only).
///
/// `submit_shutdown_model(false)` reproduces the PR 9 race the
/// under-the-lock re-check closes: a submitter that only checks the
/// shutdown flag *before* taking the queue lock can push its job after
/// shutdown has drained the queue and told the workers to exit, stranding
/// a ticket nobody will ever fulfill — the submitter's `wait` then sleeps
/// forever. `submit_shutdown_model(true)` is the shipped protocol (flag
/// set under the queue lock by shutdown, re-checked under the same lock
/// before `push_back`) and must pass exhaustively.
#[cfg(fhe_conc)]
#[doc(hidden)]
pub mod conc_model {
    use std::collections::VecDeque;

    use fhe_conc::sync::atomic::{AtomicBool, Ordering};
    use fhe_conc::sync::{thread, Arc, Condvar, Mutex};

    /// A one-shot result slot standing in for [`super::Ticket`]: `true`
    /// means executed, `false` means failed with shutting-down.
    type MiniTicket = Arc<(Mutex<Option<bool>>, Condvar)>;

    struct MiniServer {
        queue: Mutex<VecDeque<MiniTicket>>,
        not_empty: Condvar,
        shutdown: AtomicBool,
    }

    fn fulfill(ticket: &MiniTicket, ok: bool) {
        *ticket.0.lock().expect("ticket lock") = Some(ok);
        ticket.1.notify_all();
    }

    fn mini_worker(s: &MiniServer) {
        loop {
            let ticket = {
                let mut queue = s.queue.lock().expect("queue lock");
                loop {
                    if let Some(t) = queue.pop_front() {
                        break t;
                    }
                    if s.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = s.not_empty.wait(queue).expect("queue wait");
                }
            };
            fulfill(&ticket, true);
        }
    }

    fn mini_submit(s: &MiniServer, recheck_under_lock: bool) -> Option<MiniTicket> {
        if s.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let ticket: MiniTicket = Arc::new((Mutex::new(None), Condvar::new()));
        let mut queue = s.queue.lock().expect("queue lock");
        if recheck_under_lock && s.shutdown.load(Ordering::SeqCst) {
            // Shipped protocol: shutdown sets the flag under this lock
            // before draining, so seeing it here means the drain already
            // ran (or atomically will, before any worker could exit).
            return None;
        }
        // BUG when `recheck_under_lock` is false (pre-fix PR 9 variant):
        // the drain may have happened between the fast-path check above
        // and this push — the job lands on a queue no worker will drain.
        queue.push_back(Arc::clone(&ticket));
        drop(queue);
        s.not_empty.notify_one();
        Some(ticket)
    }

    fn mini_shutdown(s: &MiniServer) {
        let drained: Vec<MiniTicket> = {
            let mut queue = s.queue.lock().expect("queue lock");
            s.shutdown.store(true, Ordering::SeqCst);
            queue.drain(..).collect()
        };
        s.not_empty.notify_all();
        for ticket in drained {
            fulfill(&ticket, false);
        }
    }

    /// One worker, one racing submitter, shutdown from the model's main
    /// thread. Every accepted ticket must resolve; under the checker the
    /// `recheck_under_lock = false` variant deadlocks (the stranded
    /// submitter waits forever) in some interleaving.
    pub fn submit_shutdown_model(recheck_under_lock: bool) {
        let s = Arc::new(MiniServer {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let worker = {
            let s = Arc::clone(&s);
            thread::spawn(move || mini_worker(&s))
        };
        let submitter = {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                if let Some(ticket) = mini_submit(&s, recheck_under_lock) {
                    let mut slot = ticket.0.lock().expect("ticket lock");
                    while slot.is_none() {
                        slot = ticket.1.wait(slot).expect("ticket wait");
                    }
                }
            })
        };
        mini_shutdown(&s);
        worker.join().expect("worker exits");
        submitter.join().expect("submitter resolves");
    }

    /// How the mini quarantine worker disposed of one job.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Disposal {
        /// The job ran normally.
        Executed,
        /// The job panicked and quarantined its session.
        Panicked,
        /// The job was rejected by the dequeue-time quarantine re-check.
        Rejected,
    }

    /// Quarantine admission: a poison job quarantines the session when
    /// processed; a concurrently submitted normal job may legally execute
    /// only if the worker dequeued it *before* the poison one. The
    /// dequeue-time re-check (mirroring [`super::ServerInner::process`])
    /// makes any post-quarantine execution impossible; the final assert
    /// re-derives exactly that event ordering from the disposal log.
    pub fn quarantine_admission_model() {
        const POISON: u32 = 0;
        const NORMAL: u32 = 1;
        struct State {
            queue: Mutex<VecDeque<u32>>,
            not_empty: Condvar,
            quarantined: AtomicBool,
            log: Mutex<Vec<(u32, Disposal)>>,
        }
        let s = Arc::new(State {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            quarantined: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
        });
        let submit = |s: &State, job: u32| {
            s.queue.lock().expect("queue lock").push_back(job);
            s.not_empty.notify_one();
        };
        let submitters: Vec<_> = [POISON, NORMAL]
            .into_iter()
            .map(|job| {
                let s = Arc::clone(&s);
                thread::spawn(move || submit(&s, job))
            })
            .collect();
        let worker = {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                // Both submissions always land, so processing exactly two
                // jobs terminates in every interleaving.
                for _ in 0..2 {
                    let job = {
                        let mut queue = s.queue.lock().expect("queue lock");
                        loop {
                            if let Some(job) = queue.pop_front() {
                                break job;
                            }
                            queue = s.not_empty.wait(queue).expect("queue wait");
                        }
                    };
                    // Dequeue-time re-check: a panic earlier in the queue
                    // may have quarantined the session after this job was
                    // accepted.
                    let disposal = if s.quarantined.load(Ordering::SeqCst) {
                        Disposal::Rejected
                    } else if job == POISON {
                        s.quarantined.store(true, Ordering::SeqCst);
                        Disposal::Panicked
                    } else {
                        Disposal::Executed
                    };
                    s.log.lock().expect("log lock").push((job, disposal));
                }
            })
        };
        for handle in submitters {
            handle.join().expect("submitter exits");
        }
        worker.join().expect("worker exits");
        let log = s.log.lock().expect("log lock");
        assert_eq!(log.len(), 2, "both jobs disposed exactly once");
        let poison_at = log
            .iter()
            .position(|&(job, _)| job == POISON)
            .expect("poison job processed");
        assert_eq!(log[poison_at].1, Disposal::Panicked);
        for (i, &(job, disposal)) in log.iter().enumerate() {
            if job == NORMAL {
                let expect = if i < poison_at {
                    Disposal::Executed
                } else {
                    Disposal::Rejected
                };
                assert_eq!(
                    disposal,
                    expect,
                    "a job dequeued {} the quarantine event",
                    if i < poison_at { "before" } else { "after" },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::Builder;
    use fhe_runtime::ExecOptions;

    fn fig2a_text(slots: usize) -> String {
        let b = Builder::new("fig2a", slots);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        text::print(&b.finish(vec![q]))
    }

    fn small_session_options(seed: u64) -> ParOptions {
        ParOptions {
            exec: ExecOptions {
                poly_degree: 256,
                seed,
                threads: 1,
                ..ExecOptions::default()
            },
            workers: 1,
            fusion: true,
        }
    }

    fn request(session: SessionId, slots: usize) -> Request {
        Request {
            session,
            program: fig2a_text(slots),
            params: CompileParams::new(30),
            compiler: "reserve".into(),
            inputs: [
                ("x".to_string(), vec![0.5; slots]),
                ("y".to_string(), vec![0.25; slots]),
            ]
            .into_iter()
            .collect(),
            deadline: None,
        }
    }

    #[test]
    fn serves_a_request_and_caches_the_compile() {
        let server = FheServer::new(ServerConfig::default());
        let session = server.create_session(small_session_options(11));
        let a = server.call(request(session, 128)).unwrap();
        assert!(!a.cache_hit);
        let b = server.call(request(session, 128)).unwrap();
        assert!(b.cache_hit);
        // Different seq → different encryption randomness, same values.
        assert_ne!(a.enc_seed, b.enc_seed);
        let req = request(session, 128);
        let program = text::parse(&req.program).unwrap();
        let reference = fhe_runtime::plain::execute(&program, &req.inputs);
        assert!(fhe_runtime::outputs_close(&a.outputs, &reference, 1e-2).is_ok());
        assert!(fhe_runtime::outputs_close(&b.outputs, &reference, 1e-2).is_ok());
        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
        assert!(stats.p50_latency > Duration::ZERO);
        assert!(stats.requests_per_sec > 0.0);
    }

    #[test]
    fn submit_time_errors_are_structured() {
        let server = FheServer::new(ServerConfig::default());
        let session = server.create_session(small_session_options(1));
        assert!(matches!(
            server.call(request(99, 128)),
            Err(ServeError::UnknownSession(99))
        ));
        let mut bad = request(session, 128);
        bad.compiler = "nope".into();
        assert!(matches!(
            server.call(bad),
            Err(ServeError::UnknownCompiler(_))
        ));
        let mut garbled = request(session, 128);
        garbled.program = "not a program".into();
        assert!(matches!(server.call(garbled), Err(ServeError::Parse(_))));
    }

    #[test]
    fn zero_deadline_expires_in_queue() {
        let server = FheServer::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let session = server.create_session(small_session_options(2));
        let mut r = request(session, 128);
        r.deadline = Some(Duration::ZERO);
        // The worker may or may not pick it up before the deadline check;
        // with a zero deadline the check always fails.
        match server.call(r) {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!((stats.requests, stats.failed), (1, 1));
    }

    #[test]
    fn concurrent_submit_and_shutdown_strands_no_ticket() {
        // The flag is set under the queue lock and re-checked under the
        // same lock before push_back, so every accepted ticket resolves
        // (executed or ShuttingDown) no matter how submit and shutdown
        // interleave. Before that fix, a submit racing the drain could
        // push onto a queue no worker would ever drain and its wait()
        // would hang this test forever.
        for round in 0..4u64 {
            let server = Arc::new(FheServer::new(ServerConfig {
                workers: 1,
                queue_capacity: 4,
                ..ServerConfig::default()
            }));
            let session = server.create_session(small_session_options(round));
            let submitters: Vec<_> = (0..3)
                .map(|_| {
                    let server = server.clone();
                    thread::spawn(move || {
                        let mut tickets = Vec::new();
                        for _ in 0..3 {
                            match server.submit(request(session, 128)) {
                                Ok(t) => tickets.push(t),
                                Err(ServeError::ShuttingDown) => break,
                                Err(other) => panic!("unexpected submit error: {other:?}"),
                            }
                        }
                        tickets
                    })
                })
                .collect();
            server.shutdown();
            for handle in submitters {
                for ticket in handle.join().unwrap() {
                    match ticket.wait() {
                        Ok(_) | Err(ServeError::ShuttingDown) => {}
                        Err(other) => panic!("unexpected result: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn shutdown_fails_queued_requests_and_rejects_new_ones() {
        let server = FheServer::new(ServerConfig::default());
        let session = server.create_session(small_session_options(3));
        server.shutdown();
        assert!(matches!(
            server.call(request(session, 128)),
            Err(ServeError::ShuttingDown)
        ));
        // Idempotent (and runs again on drop without hanging).
        server.shutdown();
    }
}
