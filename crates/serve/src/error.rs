//! Structured failure modes of the service layer.
//!
//! Every way a request can fail maps to one [`ServeError`] variant — no
//! panic ever crosses the request boundary (the whole pipeline — parse,
//! compile, key generation, execution — runs under `catch_unwind` and
//! panics surface as [`ServeError::ExecutorPanic`]), and no error ever
//! takes the server down: the worker that produced it moves on to the
//! next job.

use std::fmt;
use std::time::Duration;

use fhe_ir::pipeline::CompileError;
use fhe_ir::ScheduleError;

use crate::session::SessionId;

/// Why a request failed, uniformly across the service pipeline.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The request named a session the store has never issued (or one
    /// that has been removed).
    UnknownSession(SessionId),
    /// The request named a compiler id outside the registry
    /// (see [`crate::server::compiler_for`]).
    UnknownCompiler(String),
    /// The session was quarantined by an earlier panicking request and
    /// accepts no further work.
    SessionQuarantined(SessionId),
    /// The bounded queue was full and the caller asked not to block.
    Overloaded {
        /// Jobs queued at the time of rejection.
        queued: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The request's deadline elapsed before execution started — either
    /// while queued, or during compile/keygen (the deadline is re-checked
    /// just before the execution phase). A request that starts executing
    /// is never aborted; see
    /// [`ServerConfig::default_deadline`](crate::ServerConfig::default_deadline).
    DeadlineExceeded {
        /// Time since submission when the request was abandoned.
        waited: Duration,
    },
    /// The program text did not parse.
    Parse(String),
    /// The compiler rejected the program.
    Compile(CompileError),
    /// The executor refused the request before running it: the schedule
    /// failed validation, its slot count does not fit the session's ring
    /// ([`ScheduleError::SessionMismatch`]), or an input binding cannot be
    /// encoded — a NaN or infinite slot, or more values than slots
    /// ([`ScheduleError::InvalidInput`]). The request's own fault and
    /// nothing else's: the session is not quarantined.
    Schedule(Vec<ScheduleError>),
    /// A stage of the request pipeline (parse, compile, key generation
    /// or execution) panicked. The offending session is quarantined; the
    /// shared pool and caches keep serving other sessions.
    ExecutorPanic(String),
    /// The server was shut down while the request was still queued.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::UnknownCompiler(id) => write!(f, "unknown compiler `{id}`"),
            ServeError::SessionQuarantined(id) => write!(f, "session {id} is quarantined"),
            ServeError::Overloaded { queued, capacity } => {
                write!(f, "server overloaded ({queued}/{capacity} jobs queued)")
            }
            ServeError::DeadlineExceeded { waited } => {
                write!(
                    f,
                    "deadline exceeded {:.1} ms after submission",
                    waited.as_secs_f64() * 1e3
                )
            }
            ServeError::Parse(msg) => write!(f, "program text does not parse: {msg}"),
            ServeError::Compile(err) => write!(f, "compilation failed: {err}"),
            ServeError::Schedule(errs) => {
                write!(f, "schedule invalid ({} errors)", errs.len())?;
                errs.first().map_or(Ok(()), |e| write!(f, ": {e}"))
            }
            ServeError::ExecutorPanic(msg) => write!(f, "executor panicked: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CompileError> for ServeError {
    fn from(err: CompileError) -> Self {
        ServeError::Compile(err)
    }
}

impl From<Vec<ScheduleError>> for ServeError {
    fn from(errs: Vec<ScheduleError>) -> Self {
        ServeError::Schedule(errs)
    }
}
