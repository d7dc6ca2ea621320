//! Checker-mode (`cfg(fhe_conc)`) drop-in replacements for `std::sync`
//! primitives. Every operation is a schedule point (see [`crate::engine`]).
//!
//! Shims fall back to plain std behavior when the calling thread is not a
//! model thread (no engine in scope): the same binary can run ordinary
//! stress tests and checker models side by side.
//!
//! Object identity is lazily (re-)registered per execution via an
//! epoch-stamped cell, which is what lets `const fn new` work — atomics in
//! `[const { AtomicU64::new(0) }; N]` arrays register on first use inside
//! the execution that touches them.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar as StdCondvar, LockResult, Mutex as StdMutex, RwLock as StdRwLock};

use crate::engine::{current_engine, Engine, ObjId, ObjKind, OpKind, Tid};

/// Epoch-stamped lazy object id: packs `(epoch << 24) | (id + 1)` into one
/// std atomic, re-registering whenever the stored epoch is stale (new
/// execution). Reads/writes happen only while the owner holds the baton,
/// so registration order is deterministic.
struct ObjCell(std::sync::atomic::AtomicU64);

const ID_BITS: u32 = 24;
const ID_MASK: u64 = (1 << ID_BITS) - 1;

impl ObjCell {
    const fn new() -> ObjCell {
        ObjCell(std::sync::atomic::AtomicU64::new(0))
    }

    fn get(&self, engine: &Arc<Engine>, kind: ObjKind) -> ObjId {
        let epoch = engine.epoch();
        let packed = self.0.load(Ordering::Relaxed);
        if packed >> ID_BITS == epoch && packed & ID_MASK != 0 {
            return ((packed & ID_MASK) - 1) as ObjId;
        }
        let id = engine.register_object(kind);
        assert!((id as u64) < ID_MASK, "object id overflow in one execution");
        self.0
            .store((epoch << ID_BITS) | (id as u64 + 1), Ordering::Relaxed);
        id
    }
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// Checker shim of [`std::sync::Mutex`] (lock/unlock are schedule points;
/// poisoning is not modeled — lock always returns `Ok`).
pub struct Mutex<T> {
    id: ObjCell,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates the mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            id: ObjCell::new(),
            inner: StdMutex::new(value),
        }
    }

    /// Acquires the mutex (a schedule point under the checker).
    #[track_caller]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let loc = Location::caller();
        if let Some((engine, me)) = current_engine() {
            let id = self.id.get(&engine, ObjKind::Mutex);
            engine.schedule_point(me, OpKind::Lock(id), loc);
            // The model grants the lock only when free, and every holder
            // releases the std mutex before parking again, so this never
            // blocks.
            let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            Ok(MutexGuard {
                lock: self,
                inner: Some(inner),
                model: true,
                acquired_at: loc,
            })
        } else {
            let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            Ok(MutexGuard {
                lock: self,
                inner: Some(inner),
                model: false,
                acquired_at: loc,
            })
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.inner.into_inner().unwrap_or_else(|p| p.into_inner()))
    }

    /// Mutable access without locking (no schedule point: `&mut self`
    /// proves exclusivity).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(self.inner.get_mut().unwrap_or_else(|p| p.into_inner()))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Mutex(..)")
    }
}

/// Guard returned by [`Mutex::lock`]; dropping it is a schedule point.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: bool,
    acquired_at: &'static Location<'static>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard not consumed")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard not consumed")
    }
}

impl<T> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MutexGuard(..)")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_none() {
            return; // consumed by Condvar::wait
        }
        if self.model {
            if let Some((engine, me)) = current_engine() {
                let id = self.lock.id.get(&engine, ObjKind::Mutex);
                if std::thread::panicking() {
                    // A schedule point would double-panic; repair the
                    // model lock state directly so model code that
                    // catches the unwind and continues stays consistent.
                    engine.force_release(OpKind::Unlock(id), me);
                } else {
                    engine.schedule_point(me, OpKind::Unlock(id), self.acquired_at);
                }
            }
        }
        self.inner = None;
    }
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

/// Checker shim of [`std::sync::Condvar`]: never wakes spuriously,
/// `notify_one` wakes the longest-waiting thread (FIFO). Wait is modeled
/// as two schedule points — an atomic release-and-enqueue, then a blocked
/// dequeue-and-reacquire enabled only once notified.
pub struct Condvar {
    id: ObjCell,
    inner: StdCondvar,
}

impl Condvar {
    /// Creates the condvar.
    pub const fn new() -> Condvar {
        Condvar {
            id: ObjCell::new(),
            inner: StdCondvar::new(),
        }
    }

    /// Releases `guard`'s mutex, waits for a notification, reacquires.
    #[track_caller]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let loc = Location::caller();
        let lock = guard.lock;
        if guard.model {
            let (engine, me) = current_engine().expect("model guard outside a model thread");
            let cv = self.id.get(&engine, ObjKind::Condvar);
            let m = lock.id.get(&engine, ObjKind::Mutex);
            let std_guard = guard.inner.take(); // disarm the guard's Drop
            engine.schedule_point(me, OpKind::CvRelease { cv, m }, loc);
            drop(std_guard); // baton still held: nobody raced the std lock
            engine.schedule_point(me, OpKind::CvBlock { cv, m }, loc);
            let inner = lock.inner.lock().unwrap_or_else(|p| p.into_inner());
            Ok(MutexGuard {
                lock,
                inner: Some(inner),
                model: true,
                acquired_at: loc,
            })
        } else {
            let std_guard = guard.inner.take().expect("guard not consumed");
            let inner = self
                .inner
                .wait(std_guard)
                .unwrap_or_else(|p| p.into_inner());
            Ok(MutexGuard {
                lock,
                inner: Some(inner),
                model: false,
                acquired_at: loc,
            })
        }
    }

    /// Wakes one waiter (FIFO under the checker).
    #[track_caller]
    pub fn notify_one(&self) {
        if let Some((engine, me)) = current_engine() {
            let id = self.id.get(&engine, ObjKind::Condvar);
            engine.schedule_point(me, OpKind::NotifyOne(id), Location::caller());
        } else {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiter.
    #[track_caller]
    pub fn notify_all(&self) {
        if let Some((engine, me)) = current_engine() {
            let id = self.id.get(&engine, ObjKind::Condvar);
            engine.schedule_point(me, OpKind::NotifyAll(id), Location::caller());
        } else {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar(..)")
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// Checker shim of [`std::sync::RwLock`] (readers block writers and vice
/// versa; poisoning is not modeled).
pub struct RwLock<T> {
    id: ObjCell,
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates the lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            id: ObjCell::new(),
            inner: StdRwLock::new(value),
        }
    }

    /// Acquires shared access.
    #[track_caller]
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let loc = Location::caller();
        if let Some((engine, me)) = current_engine() {
            let id = self.id.get(&engine, ObjKind::Rw);
            engine.schedule_point(me, OpKind::RwRead(id), loc);
            let inner = self.inner.read().unwrap_or_else(|p| p.into_inner());
            Ok(RwLockReadGuard {
                lock: self,
                inner: Some(inner),
                model: true,
                acquired_at: loc,
            })
        } else {
            let inner = self.inner.read().unwrap_or_else(|p| p.into_inner());
            Ok(RwLockReadGuard {
                lock: self,
                inner: Some(inner),
                model: false,
                acquired_at: loc,
            })
        }
    }

    /// Acquires exclusive access.
    #[track_caller]
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let loc = Location::caller();
        if let Some((engine, me)) = current_engine() {
            let id = self.id.get(&engine, ObjKind::Rw);
            engine.schedule_point(me, OpKind::RwWrite(id), loc);
            let inner = self.inner.write().unwrap_or_else(|p| p.into_inner());
            Ok(RwLockWriteGuard {
                lock: self,
                inner: Some(inner),
                model: true,
                acquired_at: loc,
            })
        } else {
            let inner = self.inner.write().unwrap_or_else(|p| p.into_inner());
            Ok(RwLockWriteGuard {
                lock: self,
                inner: Some(inner),
                model: false,
                acquired_at: loc,
            })
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock(..)")
    }
}

macro_rules! rw_guard {
    ($name:ident, $std:ident, $unlock:ident, $($mut_impl:tt)*) => {
        /// RwLock guard; dropping it is a schedule point.
        pub struct $name<'a, T> {
            lock: &'a RwLock<T>,
            inner: Option<std::sync::$std<'a, T>>,
            model: bool,
            acquired_at: &'static Location<'static>,
        }

        impl<T> Deref for $name<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                self.inner.as_ref().expect("guard not consumed")
            }
        }

        $($mut_impl)*

        impl<T> fmt::Debug for $name<'_, T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(concat!(stringify!($name), "(..)"))
            }
        }

        impl<T> Drop for $name<'_, T> {
            fn drop(&mut self) {
                if self.inner.is_none() {
                    return;
                }
                if self.model {
                    if let Some((engine, me)) = current_engine() {
                        let id = self.lock.id.get(&engine, ObjKind::Rw);
                        if std::thread::panicking() {
                            engine.force_release(OpKind::$unlock(id), me);
                        } else {
                            engine.schedule_point(me, OpKind::$unlock(id), self.acquired_at);
                        }
                    }
                }
                self.inner = None;
            }
        }
    };
}

rw_guard!(RwLockReadGuard, RwLockReadGuard, RwUnRead,);
rw_guard!(
    RwLockWriteGuard,
    RwLockWriteGuard,
    RwUnWrite,
    impl<T> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard not consumed")
        }
    }
);

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

macro_rules! atomic_shim {
    ($name:ident, $std:ident, $ty:ty) => {
        /// Checker shim of the std atomic: every operation is a schedule
        /// point executed with SeqCst-equivalent visibility (see
        /// [`crate::sync`] for the ordering contract).
        pub struct $name {
            value: std::sync::atomic::$std,
            id: ObjCell,
        }

        impl $name {
            /// Creates the atomic.
            pub const fn new(value: $ty) -> $name {
                $name {
                    value: std::sync::atomic::$std::new(value),
                    id: ObjCell::new(),
                }
            }

            #[track_caller]
            fn point(&self, make: fn(ObjId) -> OpKind) -> bool {
                if let Some((engine, me)) = current_engine() {
                    let id = self.id.get(&engine, ObjKind::Atomic);
                    engine.schedule_point(me, make(id), Location::caller());
                    true
                } else {
                    false
                }
            }

            /// Atomic load.
            #[track_caller]
            pub fn load(&self, order: Ordering) -> $ty {
                if self.point(OpKind::ALoad) {
                    self.value.load(Ordering::SeqCst)
                } else {
                    self.value.load(order)
                }
            }

            /// Atomic store.
            #[track_caller]
            pub fn store(&self, value: $ty, order: Ordering) {
                if self.point(OpKind::AStore) {
                    self.value.store(value, Ordering::SeqCst)
                } else {
                    self.value.store(value, order)
                }
            }

            /// Atomic swap.
            #[track_caller]
            pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                if self.point(OpKind::ARmw) {
                    self.value.swap(value, Ordering::SeqCst)
                } else {
                    self.value.swap(value, order)
                }
            }

            /// Mutable access (no schedule point: `&mut self`).
            pub fn get_mut(&mut self) -> &mut $ty {
                self.value.get_mut()
            }
        }

        impl Default for $name {
            fn default() -> $name {
                $name::new(Default::default())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                // Raw read on purpose: Debug must not create a schedule
                // point.
                write!(f, "{:?}", self.value.load(Ordering::Relaxed))
            }
        }
    };
}

macro_rules! atomic_shim_int {
    ($name:ident, $std:ident, $ty:ty) => {
        atomic_shim!($name, $std, $ty);

        impl $name {
            /// Atomic add, returning the previous value.
            #[track_caller]
            pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                if self.point(OpKind::ARmw) {
                    self.value.fetch_add(value, Ordering::SeqCst)
                } else {
                    self.value.fetch_add(value, order)
                }
            }

            /// Atomic subtract, returning the previous value.
            #[track_caller]
            pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                if self.point(OpKind::ARmw) {
                    self.value.fetch_sub(value, Ordering::SeqCst)
                } else {
                    self.value.fetch_sub(value, order)
                }
            }

            /// Atomic max, returning the previous value.
            #[track_caller]
            pub fn fetch_max(&self, value: $ty, order: Ordering) -> $ty {
                if self.point(OpKind::ARmw) {
                    self.value.fetch_max(value, Ordering::SeqCst)
                } else {
                    self.value.fetch_max(value, order)
                }
            }

            /// Atomic read-modify-write via a closure (one schedule point:
            /// the model executes it without interference, mirroring a
            /// successful compare-exchange).
            #[track_caller]
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                mut f: F,
            ) -> Result<$ty, $ty>
            where
                F: FnMut($ty) -> Option<$ty>,
            {
                if self.point(OpKind::ARmw) {
                    let cur = self.value.load(Ordering::SeqCst);
                    match f(cur) {
                        Some(next) => {
                            self.value.store(next, Ordering::SeqCst);
                            Ok(cur)
                        }
                        None => Err(cur),
                    }
                } else {
                    self.value.fetch_update(set_order, fetch_order, f)
                }
            }
        }
    };
}

atomic_shim_int!(AtomicU64, AtomicU64, u64);
atomic_shim_int!(AtomicUsize, AtomicUsize, usize);
atomic_shim!(AtomicBool, AtomicBool, bool);

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

/// Checker shims of `std::thread` spawning.
pub mod thread {
    use super::*;
    use crate::engine::{self};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Checker shim of [`std::thread::Builder`].
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// A new builder.
        pub fn new() -> Builder {
            Builder::default()
        }

        /// Names the thread (shown in counterexample traces).
        pub fn name(mut self, name: String) -> Builder {
            self.name = Some(name);
            self
        }

        /// Spawns the thread. On a model thread the child is registered
        /// with the checker and scheduled like any other model thread;
        /// otherwise this is a plain std spawn.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            if let Some((eng, _me)) = current_engine() {
                let tid =
                    eng.register_thread(self.name.clone().unwrap_or_else(|| "spawned".to_string()));
                let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
                let slot2 = Arc::clone(&slot);
                let eng2 = Arc::clone(&eng);
                let mut builder = std::thread::Builder::new();
                if let Some(name) = self.name {
                    builder = builder.name(name);
                }
                builder.spawn(move || {
                    engine::enter_model_thread(&eng2, tid);
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        eng2.schedule_point(tid, OpKind::Start, Location::caller());
                        f()
                    }));
                    match result {
                        Ok(value) => {
                            *slot2.lock().unwrap_or_else(|p| p.into_inner()) = Some(value);
                            eng2.finish_thread(tid, None);
                        }
                        Err(payload) => eng2.finish_thread(tid, Some(payload)),
                    }
                    engine::exit_model_thread();
                })?;
                Ok(JoinHandle(Inner::Model {
                    engine: eng,
                    tid,
                    slot,
                }))
            } else {
                let mut builder = std::thread::Builder::new();
                if let Some(name) = self.name {
                    builder = builder.name(name);
                }
                builder.spawn(f).map(|h| JoinHandle(Inner::Std(h)))
            }
        }
    }

    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            engine: Arc<Engine>,
            tid: Tid,
            slot: Arc<StdMutex<Option<T>>>,
        },
    }

    /// Checker shim of [`std::thread::JoinHandle`]: joining a model
    /// thread is a schedule point enabled once the target finishes.
    pub struct JoinHandle<T>(Inner<T>);

    impl<T> fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("JoinHandle(..)")
        }
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, returning its value.
        #[track_caller]
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Inner::Std(handle) => handle.join(),
                Inner::Model { engine, tid, slot } => {
                    let (eng, me) =
                        current_engine().expect("model JoinHandle joined outside a model thread");
                    debug_assert!(Arc::ptr_eq(&eng, &engine));
                    eng.schedule_point(me, OpKind::Join(tid), Location::caller());
                    let value = slot
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .take()
                        .expect("joined model thread finished with a value");
                    Ok(value)
                }
            }
        }
    }

    /// Spawns an unnamed thread (see [`Builder::spawn`]).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }

    /// Yields: a plain always-enabled schedule point under the checker.
    #[track_caller]
    pub fn yield_now() {
        if let Some((engine, me)) = current_engine() {
            engine.schedule_point(me, OpKind::Yield, Location::caller());
        } else {
            std::thread::yield_now();
        }
    }
}
