//! The controlled scheduler behind `cfg(fhe_conc)` builds.
//!
//! One OS thread runs model code at a time: every shim operation is a
//! *schedule point* where the calling thread parks on a shared baton
//! (`Engine.state` + condvar) and the controller — the thread that called
//! [`crate::check`] — decides which parked thread's pending operation runs
//! next. Because only the baton holder executes model code, operations
//! apply atomically and a schedule is replayed exactly by re-issuing the
//! same sequence of choices.
//!
//! Strategies:
//! * [`Dfs`] — depth-first enumeration with a CHESS-style preemption bound
//!   and DPOR-style sleep sets (after exploring thread `t` at a node, `t`
//!   sleeps in sibling branches until a dependent operation executes; if
//!   every enabled thread sleeps the branch is pruned as redundant).
//! * [`Pct`] — seeded randomized priorities with `depth - 1` random
//!   priority-change points per execution (Burckhardt et al.), for models
//!   whose schedule space is too large to enumerate.
//!
//! Failures (assertion panics, deadlocks, lost wakeups, step-bound
//! livelocks) abort the execution: the abort flag makes every schedule
//! point panic with the zero-sized [`AbortExecution`] payload, which
//! thread wrappers catch, so all model threads terminate and the
//! controller can report the recorded trace. Model code that catches
//! unwinds may swallow one abort panic, but its next schedule point
//! re-raises, so threads always exit.

use std::cell::RefCell;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

use crate::{panic_message, Config, Failure, FailureKind, Mode, ModelOutcome, TraceStep};

pub(crate) type Tid = usize;
pub(crate) type ObjId = usize;

/// Panic payload used to unwind model threads when an execution is
/// abandoned (failure found, or branch pruned). Not a model failure.
pub(crate) struct AbortExecution;

/// A pending (or executed) schedule-point operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// First schedule point of every thread (always enabled).
    Start,
    /// Explicit `yield_now` (always enabled).
    Yield,
    /// Atomic load.
    ALoad(ObjId),
    /// Atomic store.
    AStore(ObjId),
    /// Atomic read-modify-write.
    ARmw(ObjId),
    /// Mutex acquire (enabled iff free).
    Lock(ObjId),
    /// Mutex release (always enabled).
    Unlock(ObjId),
    /// RwLock shared acquire (enabled iff no writer).
    RwRead(ObjId),
    /// RwLock exclusive acquire (enabled iff no readers or writer).
    RwWrite(ObjId),
    /// RwLock shared release.
    RwUnRead(ObjId),
    /// RwLock exclusive release.
    RwUnWrite(ObjId),
    /// Condvar wait, phase 1: atomically release the mutex and join the
    /// wait queue (always enabled).
    CvRelease { cv: ObjId, m: ObjId },
    /// Condvar wait, phase 2: leave the queue and reacquire the mutex
    /// (enabled iff notified and the mutex is free).
    CvBlock { cv: ObjId, m: ObjId },
    /// `notify_one` (always enabled; FIFO).
    NotifyOne(ObjId),
    /// `notify_all` (always enabled).
    NotifyAll(ObjId),
    /// Join another model thread (enabled iff it finished).
    Join(Tid),
}

impl OpKind {
    /// The shared objects this operation touches (for dependence checks).
    fn objs(&self) -> (Option<ObjId>, Option<ObjId>) {
        match *self {
            OpKind::Start | OpKind::Yield | OpKind::Join(_) => (None, None),
            OpKind::ALoad(o)
            | OpKind::AStore(o)
            | OpKind::ARmw(o)
            | OpKind::Lock(o)
            | OpKind::Unlock(o)
            | OpKind::RwRead(o)
            | OpKind::RwWrite(o)
            | OpKind::RwUnRead(o)
            | OpKind::RwUnWrite(o)
            | OpKind::NotifyOne(o)
            | OpKind::NotifyAll(o) => (Some(o), None),
            OpKind::CvRelease { cv, m } | OpKind::CvBlock { cv, m } => (Some(cv), Some(m)),
        }
    }

    fn describe(&self) -> String {
        match *self {
            OpKind::Start => "start".into(),
            OpKind::Yield => "yield".into(),
            OpKind::ALoad(o) => format!("load a{o}"),
            OpKind::AStore(o) => format!("store a{o}"),
            OpKind::ARmw(o) => format!("rmw a{o}"),
            OpKind::Lock(o) => format!("lock m{o}"),
            OpKind::Unlock(o) => format!("unlock m{o}"),
            OpKind::RwRead(o) => format!("read-lock rw{o}"),
            OpKind::RwWrite(o) => format!("write-lock rw{o}"),
            OpKind::RwUnRead(o) => format!("read-unlock rw{o}"),
            OpKind::RwUnWrite(o) => format!("write-unlock rw{o}"),
            OpKind::CvRelease { cv, m } => format!("wait c{cv} (releases m{m})"),
            OpKind::CvBlock { cv, m } => format!("wake c{cv} (reacquires m{m})"),
            OpKind::NotifyOne(o) => format!("notify_one c{o}"),
            OpKind::NotifyAll(o) => format!("notify_all c{o}"),
            OpKind::Join(t) => format!("join t{t}"),
        }
    }
}

/// Two operations are *dependent* when reordering them can change the
/// outcome: they touch a common object and are not both atomic loads.
/// (Joins read only monotone thread status, so they commute with
/// everything.) Conservative over-approximation — extra dependence only
/// costs pruning, never soundness.
fn dependent(a: OpKind, b: OpKind) -> bool {
    if let (OpKind::ALoad(_), OpKind::ALoad(_)) = (a, b) {
        return false;
    }
    let (a0, a1) = a.objs();
    let (b0, b1) = b.objs();
    let hit = |x: Option<ObjId>, y: Option<ObjId>| x.is_some() && x == y;
    hit(a0, b0) || hit(a0, b1) || hit(a1, b0) || hit(a1, b1)
}

#[derive(Debug)]
struct CvWaiter {
    tid: Tid,
    notified: bool,
}

#[derive(Debug)]
enum ObjectState {
    Atomic,
    Mutex {
        held_by: Option<Tid>,
    },
    Rw {
        writer: Option<Tid>,
        readers: Vec<Tid>,
    },
    Condvar {
        waiters: Vec<CvWaiter>,
    },
}

/// What a shim registers an object as.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ObjKind {
    Atomic,
    Mutex,
    Rw,
    Condvar,
}

#[derive(Debug, Clone, PartialEq)]
enum ThreadStatus {
    /// Holds the baton (or was just spawned and has not parked yet).
    Running,
    /// Parked at a schedule point with this pending operation.
    Parked(OpKind),
    Finished,
}

struct ThreadRec {
    name: String,
    status: ThreadStatus,
}

struct EngineState {
    active: Option<Tid>,
    threads: Vec<ThreadRec>,
    objects: Vec<ObjectState>,
    trace: Vec<TraceStep>,
    steps: usize,
    abort: bool,
    failure: Option<Failure>,
    /// Process-unique execution stamp (drives lazy object registration in
    /// `const`-constructed shims).
    epoch: u64,
}

pub(crate) struct Engine {
    state: StdMutex<EngineState>,
    cv: StdCondvar,
    max_steps: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Engine>, Tid)>> = const { RefCell::new(None) };
}

/// Process-wide execution counter: every execution of every engine gets a
/// distinct epoch, so stale object ids from earlier models never alias.
static GLOBAL_EPOCH: AtomicU64 = AtomicU64::new(1);

pub(crate) fn current_engine() -> Option<(Arc<Engine>, Tid)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn model_thread_id() -> Option<usize> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(_, tid)| *tid))
}

pub(crate) fn enter_model_thread(engine: &Arc<Engine>, tid: Tid) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(engine), tid)));
}

pub(crate) fn exit_model_thread() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

impl Engine {
    fn new(max_steps: usize) -> Engine {
        Engine {
            state: StdMutex::new(EngineState {
                active: None,
                threads: Vec::new(),
                objects: Vec::new(),
                trace: Vec::new(),
                steps: 0,
                abort: false,
                failure: None,
                epoch: 0,
            }),
            cv: StdCondvar::new(),
            max_steps,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Registers a fresh shared object for the current execution. Called
    /// by the baton-holding thread, so registration order is deterministic
    /// under replay.
    pub(crate) fn register_object(&self, kind: ObjKind) -> ObjId {
        let mut st = self.lock();
        let id = st.objects.len();
        st.objects.push(match kind {
            ObjKind::Atomic => ObjectState::Atomic,
            ObjKind::Mutex => ObjectState::Mutex { held_by: None },
            ObjKind::Rw => ObjectState::Rw {
                writer: None,
                readers: Vec::new(),
            },
            ObjKind::Condvar => ObjectState::Condvar {
                waiters: Vec::new(),
            },
        });
        id
    }

    /// Registers a new model thread (status `Running` until it parks, so
    /// the controller waits for it before scheduling).
    pub(crate) fn register_thread(&self, name: String) -> Tid {
        let mut st = self.lock();
        let tid = st.threads.len();
        st.threads.push(ThreadRec {
            name,
            status: ThreadStatus::Running,
        });
        tid
    }

    /// Parks at a schedule point with pending operation `op`; returns once
    /// the controller grants this thread the baton and the operation's
    /// effect has been applied. Panics with [`AbortExecution`] when the
    /// execution is being abandoned.
    pub(crate) fn schedule_point(&self, tid: Tid, op: OpKind, loc: &'static Location<'static>) {
        // An unwinding destructor may hit schedule points (a drop guard
        // that takes a lock, notifies a condvar, bumps a counter). Such a
        // thread must NEVER re-raise [`AbortExecution`]: a panic while
        // panicking is a process abort. While the execution is still live
        // it parks and gets scheduled like any other op; once the
        // execution is aborting it passes through untracked (below) — the
        // std primitives are the source of truth during teardown, and
        // every model holder releases them on its own unwind.
        let unwinding = std::thread::panicking();
        let mut st = self.lock();
        if st.abort {
            drop(st);
            if unwinding {
                return;
            }
            panic_any(AbortExecution);
        }
        st.threads[tid].status = ThreadStatus::Parked(op);
        st.active = None;
        self.cv.notify_all();
        loop {
            if st.abort {
                // Repair the park before leaving: drain() must not wait
                // on a thread that is about to unwind to completion.
                st.threads[tid].status = ThreadStatus::Running;
                drop(st);
                if unwinding {
                    return;
                }
                panic_any(AbortExecution);
            }
            if st.active == Some(tid) {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.threads[tid].status = ThreadStatus::Running;
        st.steps += 1;
        let thread = st.threads[tid].name.clone();
        st.trace.push(TraceStep {
            tid,
            thread,
            op: op.describe(),
            location: format!("{}:{}", loc.file(), loc.line()),
        });
        if st.steps > self.max_steps {
            if st.failure.is_none() {
                st.failure = Some(Failure {
                    kind: FailureKind::StepBoundExceeded,
                    message: format!(
                        "execution exceeded {} schedule points (suspected livelock)",
                        self.max_steps
                    ),
                    trace: st.trace.clone(),
                });
            }
            st.abort = true;
            self.cv.notify_all();
            drop(st);
            if unwinding {
                return;
            }
            panic_any(AbortExecution);
        }
        apply(&mut st, tid, op);
    }

    /// Best-effort lock-state repair used by guard drops during unwinding,
    /// where a schedule point would double-panic.
    pub(crate) fn force_release(&self, op: OpKind, tid: Tid) {
        let mut st = self.lock();
        apply(&mut st, tid, op);
    }

    /// Marks `tid` finished; a non-abort panic payload records the model
    /// failure (first failure wins) and aborts the execution.
    pub(crate) fn finish_thread(&self, tid: Tid, payload: Option<Box<dyn std::any::Any + Send>>) {
        let mut st = self.lock();
        if let Some(p) = payload {
            if !p.is::<AbortExecution>() {
                if st.failure.is_none() {
                    st.failure = Some(Failure {
                        kind: FailureKind::Panic,
                        message: format!(
                            "thread t{tid} ({}) panicked: {}",
                            st.threads[tid].name,
                            panic_message(&*p)
                        ),
                        trace: st.trace.clone(),
                    });
                }
                st.abort = true;
            }
        }
        st.threads[tid].status = ThreadStatus::Finished;
        st.active = None;
        self.cv.notify_all();
    }

    fn reset(&self) {
        let mut st = self.lock();
        st.active = None;
        st.threads.clear();
        st.objects.clear();
        st.trace.clear();
        st.steps = 0;
        st.abort = false;
        st.failure = None;
        st.epoch = GLOBAL_EPOCH.fetch_add(1, Ordering::Relaxed);
    }

    /// Waits until every model thread of the current execution has exited
    /// (used after setting the abort flag, and at normal completion).
    fn drain(&self) {
        let mut st = self.lock();
        while !st
            .threads
            .iter()
            .all(|t| t.status == ThreadStatus::Finished)
        {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

fn mutex_free(st: &EngineState, m: ObjId) -> bool {
    matches!(st.objects[m], ObjectState::Mutex { held_by: None })
}

fn is_enabled(st: &EngineState, tid: Tid, op: OpKind) -> bool {
    match op {
        OpKind::Lock(m) => mutex_free(st, m),
        OpKind::CvBlock { cv, m } => {
            let notified = match &st.objects[cv] {
                ObjectState::Condvar { waiters } => waiters
                    .iter()
                    .find(|w| w.tid == tid)
                    .map(|w| w.notified)
                    .unwrap_or(false),
                _ => false,
            };
            notified && mutex_free(st, m)
        }
        OpKind::RwRead(o) => matches!(&st.objects[o], ObjectState::Rw { writer: None, .. }),
        OpKind::RwWrite(o) => {
            matches!(&st.objects[o], ObjectState::Rw { writer: None, readers } if readers.is_empty())
        }
        OpKind::Join(t) => st.threads[t].status == ThreadStatus::Finished,
        _ => true,
    }
}

fn apply(st: &mut EngineState, tid: Tid, op: OpKind) {
    match op {
        OpKind::Lock(m) => {
            if let ObjectState::Mutex { held_by } = &mut st.objects[m] {
                *held_by = Some(tid);
            }
        }
        OpKind::Unlock(m) => {
            if let ObjectState::Mutex { held_by } = &mut st.objects[m] {
                *held_by = None;
            }
        }
        OpKind::CvRelease { cv, m } => {
            if let ObjectState::Mutex { held_by } = &mut st.objects[m] {
                *held_by = None;
            }
            if let ObjectState::Condvar { waiters } = &mut st.objects[cv] {
                waiters.push(CvWaiter {
                    tid,
                    notified: false,
                });
            }
        }
        OpKind::CvBlock { cv, m } => {
            if let ObjectState::Condvar { waiters } = &mut st.objects[cv] {
                waiters.retain(|w| w.tid != tid);
            }
            if let ObjectState::Mutex { held_by } = &mut st.objects[m] {
                *held_by = Some(tid);
            }
        }
        OpKind::NotifyOne(cv) => {
            if let ObjectState::Condvar { waiters } = &mut st.objects[cv] {
                if let Some(w) = waiters.iter_mut().find(|w| !w.notified) {
                    w.notified = true;
                }
            }
        }
        OpKind::NotifyAll(cv) => {
            if let ObjectState::Condvar { waiters } = &mut st.objects[cv] {
                for w in waiters.iter_mut() {
                    w.notified = true;
                }
            }
        }
        OpKind::RwRead(o) => {
            if let ObjectState::Rw { readers, .. } = &mut st.objects[o] {
                readers.push(tid);
            }
        }
        OpKind::RwUnRead(o) => {
            if let ObjectState::Rw { readers, .. } = &mut st.objects[o] {
                if let Some(pos) = readers.iter().position(|r| *r == tid) {
                    readers.remove(pos);
                }
            }
        }
        OpKind::RwWrite(o) => {
            if let ObjectState::Rw { writer, .. } = &mut st.objects[o] {
                *writer = Some(tid);
            }
        }
        OpKind::RwUnWrite(o) => {
            if let ObjectState::Rw { writer, .. } = &mut st.objects[o] {
                *writer = None;
            }
        }
        _ => {}
    }
}

enum Choice {
    Run(Tid),
    Prune,
}

trait Strategy {
    /// Picks among the enabled parked threads (with their pending ops).
    fn choose(&mut self, enabled: &[(Tid, OpKind)]) -> Choice;
    /// Observes the chosen operation (sleep-set wakeups, PCT bookkeeping).
    fn on_chosen(&mut self, tid: Tid, op: OpKind);
    /// Advances to the next execution; `false` ends exploration.
    /// `pruned` reports whether the finished execution was cut short by a
    /// sleep-set prune.
    fn next_execution(&mut self, pruned: bool) -> bool;
    fn executions(&self) -> u64;
    fn pruned(&self) -> u64;
    fn complete(&self) -> bool;
}

// ---------------------------------------------------------------------
// Bounded-exhaustive DFS with sleep sets
// ---------------------------------------------------------------------

struct Frame {
    chosen: Tid,
    chosen_op: OpKind,
    untried: Vec<Tid>,
    /// Sleep set at entry to this node: inherited sleepers plus siblings
    /// already explored from here.
    slept: Vec<(Tid, OpKind)>,
    /// `chosen` was swapped in by backtracking; its pending op is filled
    /// in when the replay reaches this node again.
    fresh: bool,
}

struct Dfs {
    stack: Vec<Frame>,
    depth: usize,
    bound: Option<usize>,
    max_execs: u64,
    execs: u64,
    pruned_count: u64,
    complete_flag: bool,
    cur_sleep: Vec<(Tid, OpKind)>,
    preemptions: usize,
    prev: Option<Tid>,
}

impl Dfs {
    fn new(max_execs: u64, bound: Option<usize>) -> Dfs {
        Dfs {
            stack: Vec::new(),
            depth: 0,
            bound,
            max_execs,
            execs: 0,
            pruned_count: 0,
            complete_flag: false,
            cur_sleep: Vec::new(),
            preemptions: 0,
            prev: None,
        }
    }
}

impl Strategy for Dfs {
    fn choose(&mut self, enabled: &[(Tid, OpKind)]) -> Choice {
        let d = self.depth;
        let chosen = if d < self.stack.len() {
            // Replay of the committed prefix.
            let frame = &mut self.stack[d];
            self.cur_sleep = frame.slept.clone();
            if frame.fresh {
                frame.chosen_op = enabled
                    .iter()
                    .find(|(t, _)| *t == frame.chosen)
                    .expect("deterministic replay: backtracked choice still enabled")
                    .1;
                frame.fresh = false;
            }
            frame.chosen
        } else {
            // Frontier: pick among enabled threads not in the sleep set.
            let mut cands: Vec<(Tid, OpKind)> = enabled
                .iter()
                .filter(|(t, _)| !self.cur_sleep.iter().any(|(s, _)| s == t))
                .copied()
                .collect();
            if cands.is_empty() {
                // Every enabled thread sleeps: any continuation reorders
                // only independent operations of an explored schedule.
                return Choice::Prune;
            }
            if let Some(bound) = self.bound {
                if self.preemptions >= bound {
                    if let Some(p) = self.prev {
                        if let Some(&pc) = cands.iter().find(|(t, _)| *t == p) {
                            cands = vec![pc];
                        }
                    }
                }
            }
            // Continue the previously running thread first (cheapest trace
            // to read), then ascending tid.
            cands.sort_by_key(|(t, _)| (Some(*t) != self.prev, *t));
            let (chosen, chosen_op) = cands[0];
            let untried: Vec<Tid> = cands[1..].iter().map(|(t, _)| *t).rev().collect();
            self.stack.push(Frame {
                chosen,
                chosen_op,
                untried,
                slept: self.cur_sleep.clone(),
                fresh: false,
            });
            chosen
        };
        self.depth += 1;
        if let Some(p) = self.prev {
            if p != chosen && enabled.iter().any(|(t, _)| *t == p) {
                self.preemptions += 1;
            }
        }
        Choice::Run(chosen)
    }

    fn on_chosen(&mut self, tid: Tid, op: OpKind) {
        self.cur_sleep.retain(|(_, sop)| !dependent(*sop, op));
        self.prev = Some(tid);
    }

    fn next_execution(&mut self, pruned: bool) -> bool {
        if pruned {
            self.pruned_count += 1;
        } else {
            self.execs += 1;
        }
        if self.execs >= self.max_execs {
            return false;
        }
        loop {
            let Some(top) = self.stack.last_mut() else {
                self.complete_flag = true;
                return false;
            };
            if let Some(next) = top.untried.pop() {
                top.slept.push((top.chosen, top.chosen_op));
                top.chosen = next;
                top.fresh = true;
                break;
            }
            self.stack.pop();
        }
        self.depth = 0;
        self.cur_sleep.clear();
        self.preemptions = 0;
        self.prev = None;
        true
    }

    fn executions(&self) -> u64 {
        self.execs
    }
    fn pruned(&self) -> u64 {
        self.pruned_count
    }
    fn complete(&self) -> bool {
        self.complete_flag
    }
}

// ---------------------------------------------------------------------
// PCT (probabilistic concurrency testing)
// ---------------------------------------------------------------------

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Pct {
    base_seed: u64,
    total: u64,
    done: u64,
    depth: usize,
    rng: u64,
    priorities: Vec<Option<i64>>,
    change_points: Vec<usize>,
    next_low: i64,
    step: usize,
    est_len: usize,
}

impl Pct {
    fn new(seed: u64, executions: u64, depth: usize) -> Pct {
        let mut pct = Pct {
            base_seed: seed,
            total: executions.max(1),
            done: 0,
            depth: depth.max(1),
            rng: 0,
            priorities: Vec::new(),
            change_points: Vec::new(),
            next_low: -1,
            step: 0,
            // Start small so change points land inside short executions;
            // `next_execution` grows this to the longest run seen.
            est_len: 16,
        };
        pct.seed_execution();
        pct
    }

    fn seed_execution(&mut self) {
        self.rng = self
            .base_seed
            .wrapping_add(self.done)
            .wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.priorities.clear();
        self.next_low = -1;
        self.step = 0;
        self.change_points = (0..self.depth.saturating_sub(1))
            .map(|_| 1 + (splitmix64(&mut self.rng) as usize) % self.est_len)
            .collect();
    }

    fn priority(&mut self, tid: Tid) -> i64 {
        if tid >= self.priorities.len() {
            self.priorities.resize(tid + 1, None);
        }
        if self.priorities[tid].is_none() {
            // Positive random base priorities; change points demote below
            // zero, so demoted threads stay demoted.
            self.priorities[tid] = Some((splitmix64(&mut self.rng) >> 1) as i64);
        }
        self.priorities[tid].unwrap()
    }
}

impl Strategy for Pct {
    fn choose(&mut self, enabled: &[(Tid, OpKind)]) -> Choice {
        self.step += 1;
        if self.change_points.contains(&self.step) {
            // Demote the current front-runner among enabled threads.
            if let Some(&(top, _)) = enabled.iter().max_by_key(|(t, _)| (self.priority(*t), *t)) {
                self.next_low -= 1;
                self.priorities[top] = Some(self.next_low);
            }
        }
        let chosen = enabled
            .iter()
            .max_by_key(|(t, _)| (self.priority(*t), *t))
            .expect("choose called with a non-empty enabled set")
            .0;
        Choice::Run(chosen)
    }

    fn on_chosen(&mut self, _tid: Tid, _op: OpKind) {}

    fn next_execution(&mut self, _pruned: bool) -> bool {
        self.done += 1;
        self.est_len = self.est_len.max(self.step);
        if self.done >= self.total {
            return false;
        }
        self.seed_execution();
        true
    }

    fn executions(&self) -> u64 {
        self.done
    }
    fn pruned(&self) -> u64 {
        0
    }
    fn complete(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------

#[derive(PartialEq)]
enum ExecResult {
    AllFinished,
    Pruned,
    Failed,
}

fn run_execution(engine: &Arc<Engine>, strategy: &mut dyn Strategy) -> ExecResult {
    loop {
        let mut st = engine.lock();
        while st.active.is_some() || st.threads.iter().any(|t| t.status == ThreadStatus::Running) {
            st = engine.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.failure.is_some() {
            st.abort = true;
            engine.cv.notify_all();
            drop(st);
            engine.drain();
            return ExecResult::Failed;
        }
        if st
            .threads
            .iter()
            .all(|t| t.status == ThreadStatus::Finished)
        {
            return ExecResult::AllFinished;
        }
        let parked: Vec<(Tid, OpKind)> = st
            .threads
            .iter()
            .enumerate()
            .filter_map(|(tid, t)| match t.status {
                ThreadStatus::Parked(op) => Some((tid, op)),
                _ => None,
            })
            .collect();
        let enabled: Vec<(Tid, OpKind)> = parked
            .iter()
            .filter(|(tid, op)| is_enabled(&st, *tid, *op))
            .copied()
            .collect();
        if enabled.is_empty() {
            let lost_wakeup = parked
                .iter()
                .all(|(_, op)| matches!(op, OpKind::CvBlock { .. }));
            let mut message = String::from("no runnable thread; blocked: ");
            for (i, (tid, op)) in parked.iter().enumerate() {
                if i > 0 {
                    message.push_str(", ");
                }
                message.push_str(&format!(
                    "t{tid} ({}) at `{}`",
                    st.threads[*tid].name,
                    op.describe()
                ));
            }
            st.failure = Some(Failure {
                kind: FailureKind::Deadlock { lost_wakeup },
                message,
                trace: st.trace.clone(),
            });
            st.abort = true;
            engine.cv.notify_all();
            drop(st);
            engine.drain();
            return ExecResult::Failed;
        }
        match strategy.choose(&enabled) {
            Choice::Run(tid) => {
                let op = enabled
                    .iter()
                    .find(|(t, _)| *t == tid)
                    .expect("strategy picked an enabled thread")
                    .1;
                strategy.on_chosen(tid, op);
                st.active = Some(tid);
                engine.cv.notify_all();
            }
            Choice::Prune => {
                st.abort = true;
                engine.cv.notify_all();
                drop(st);
                engine.drain();
                return ExecResult::Pruned;
            }
        }
    }
}

fn spawn_root(engine: &Arc<Engine>, f: Arc<dyn Fn() + Send + Sync>) {
    let tid = engine.register_thread("main".to_string());
    debug_assert_eq!(tid, 0);
    let engine = Arc::clone(engine);
    std::thread::Builder::new()
        .name("fhe-conc-model".to_string())
        .spawn(move || {
            enter_model_thread(&engine, tid);
            let result = catch_unwind(AssertUnwindSafe(|| {
                engine.schedule_point(tid, OpKind::Start, Location::caller());
                f();
            }));
            engine.finish_thread(tid, result.err());
            exit_model_thread();
        })
        .expect("spawn model root thread");
}

/// Silences the default panic hook for the [`AbortExecution`] control-flow
/// panics the scheduler raises on every pruned/aborted execution — outside
/// libtest's output capture (a binary calling `check` directly) each would
/// otherwise print a full "thread panicked" report. Real model panics
/// still reach the previous hook untouched. Installed once per process;
/// never uninstalled, so concurrent `check` calls are safe.
fn silence_abort_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<AbortExecution>() {
                return;
            }
            previous(info);
        }));
    });
}

pub(crate) fn check_model(
    name: &str,
    config: &Config,
    f: Arc<dyn Fn() + Send + Sync>,
) -> ModelOutcome {
    silence_abort_panics();
    let engine = Arc::new(Engine::new(config.max_steps));
    let mut strategy: Box<dyn Strategy> = match config.mode {
        Mode::Exhaustive {
            max_executions,
            preemption_bound,
        } => Box::new(Dfs::new(max_executions.max(1), preemption_bound)),
        Mode::Pct {
            seed,
            executions,
            depth,
        } => Box::new(Pct::new(seed, executions, depth)),
    };
    loop {
        engine.reset();
        spawn_root(&engine, Arc::clone(&f));
        let result = run_execution(&engine, &mut *strategy);
        if result == ExecResult::Failed {
            let failure = engine.lock().failure.clone();
            return ModelOutcome {
                name: name.to_string(),
                executions: strategy.executions() + 1,
                pruned: strategy.pruned(),
                complete: false,
                failure,
            };
        }
        if !strategy.next_execution(result == ExecResult::Pruned) {
            break;
        }
    }
    ModelOutcome {
        name: name.to_string(),
        executions: strategy.executions(),
        pruned: strategy.pruned(),
        complete: strategy.complete(),
        failure: None,
    }
}
