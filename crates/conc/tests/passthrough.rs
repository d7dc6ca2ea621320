//! Std-mode (passthrough) tests: these run in the ordinary tier-1
//! `cargo test` and make sure the public entry points work without the
//! checker cfg — `model`/`check` run the closure once with real threads.

use fhe_conc::sync::atomic::{AtomicUsize, Ordering};
use fhe_conc::sync::{thread, Arc, Condvar, Mutex, RwLock};
use fhe_conc::{check, Config};

#[test]
fn model_runs_the_closure() {
    let outcome = check("passthrough-smoke", Config::exhaustive(), || {
        let n = Arc::new(Mutex::new(0u32));
        let cv = Arc::new(Condvar::new());
        let (n2, cv2) = (Arc::clone(&n), Arc::clone(&cv));
        let t = thread::spawn(move || {
            *n2.lock().unwrap() += 1;
            cv2.notify_all();
        });
        let mut guard = n.lock().unwrap();
        while *guard == 0 {
            guard = cv.wait(guard).unwrap();
        }
        drop(guard);
        t.join().unwrap();
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    #[cfg(not(fhe_conc))]
    assert_eq!(outcome.executions, 1, "passthrough runs exactly once");
}

#[test]
fn check_reports_a_failing_model_without_panicking() {
    let outcome = check("passthrough-failing", Config::exhaustive(), || {
        panic!("intentional model failure");
    });
    let failure = outcome.failure.expect("failure reported");
    assert!(failure.message.contains("intentional model failure"));
}

#[test]
fn facade_types_behave_like_std() {
    // The facade must be usable as a drop-in: atomics, rwlock, yield.
    let x = AtomicUsize::new(1);
    assert_eq!(x.fetch_add(2, Ordering::SeqCst), 1);
    assert_eq!(x.fetch_max(10, Ordering::SeqCst), 3);
    assert_eq!(x.load(Ordering::SeqCst), 10);
    assert_eq!(
        x.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| Some(v + 1)),
        Ok(10)
    );
    let rw = RwLock::new(5u32);
    {
        let r1 = rw.read().unwrap();
        let r2 = rw.read().unwrap();
        assert_eq!(*r1 + *r2, 10);
    }
    *rw.write().unwrap() = 7;
    assert_eq!(*rw.read().unwrap(), 7);
    thread::yield_now();
    assert!(fhe_conc::current_thread_id() < usize::MAX);
}
