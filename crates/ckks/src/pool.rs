//! A recycling arena for RNS limb buffers.
//!
//! Every limb of every [`crate::poly::RnsPoly`] is a `Vec<u64>` of length
//! `N`, so one uniform free list serves polynomials at every level: a
//! checkout for a level-`l` polynomial takes `l` (+1 with the special
//! limb) buffers, and recycling a polynomial returns them. Buffers are
//! ordinary `Vec`s — checkout/return is pure accounting, so a pooled
//! polynomial that escapes (e.g. into a caller-held ciphertext) simply
//! drops normally and only the pool's live-byte counter stays high until
//! the owner recycles it.
//!
//! The pool is built for concurrent traffic: the op-level DAG executor
//! checks polynomials out from every runner of a walk, and from every
//! concurrent request, at once. The free list is sharded (each thread
//! has a home shard, falling back to its siblings when empty) so
//! checkouts don't serialize on one lock, and every counter is an atomic
//! whose value stays *exact* under contention — hit-rate and peak-byte
//! metering feed the memory model, so approximate counters would poison
//! the calibration. Peak tracking relies on the post-increment value of
//! `live_bytes`: the thread whose increment produces the high-water mark
//! observes that exact value and publishes it with `fetch_max`.

//! All counters and shard locks come from the [`fhe_conc::sync`] facade,
//! so checker builds (`--cfg fhe_conc`) can exhaustively interleave
//! concurrent `take_raw`/`put` traffic and prove the exactness claims
//! above (`tests/conc_models.rs`).

#[cfg(not(fhe_conc))]
use std::cell::Cell;

#[cfg(not(fhe_conc))]
use fhe_conc::sync::atomic::AtomicUsize;
use fhe_conc::sync::atomic::{AtomicU64, Ordering};
use fhe_conc::sync::Mutex;

/// Number of free-list shards. A small power of two: enough to spread
/// the handful of walker runners, cheap to scan when a home shard is dry.
const SHARDS: usize = 8;

/// Hands each thread a home shard, round-robin across all threads that
/// ever touch a pool.
///
/// Checker builds derive the shard from the deterministic model thread id
/// instead: thread-local round-robin state would leak across executions
/// (model OS threads are fresh each run while the static counter is not),
/// making shard placement — and thus the explored state space —
/// non-reproducible.
#[cfg(not(fhe_conc))]
fn home_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    HOME.with(|h| {
        if h.get() == usize::MAX {
            h.set(NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        h.get()
    })
}

#[cfg(fhe_conc)]
fn home_shard() -> usize {
    fhe_conc::current_thread_id() % SHARDS
}

/// Counters describing a [`PolyPool`]'s traffic. Byte figures cover only
/// checked-out buffers; key material and encoder scratch are accounted
/// separately by the runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from the free list.
    pub hits: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the free list.
    pub returns: u64,
    /// Bytes currently checked out (live polynomials).
    pub live_bytes: u64,
    /// High-water mark of [`PoolStats::live_bytes`].
    pub peak_bytes: u64,
    /// Bytes currently parked on the free list.
    pub free_bytes: u64,
}

impl PoolStats {
    /// Fraction of checkouts served from the free list (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The atomic twins of [`PoolStats`]; every update is exact (no sampled
/// or racy-read-modify-write counters).
#[derive(Debug, Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    live_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    free_bytes: AtomicU64,
}

/// A sharded free list of `N`-length limb buffers shared by one evaluator
/// (see the module docs for the accounting and concurrency model).
#[derive(Debug)]
pub struct PolyPool {
    degree: usize,
    shards: Vec<Mutex<Vec<Vec<u64>>>>,
    stats: StatCells,
}

impl PolyPool {
    /// An empty pool for limb buffers of length `degree`.
    pub fn new(degree: usize) -> Self {
        PolyPool {
            degree,
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            stats: StatCells::default(),
        }
    }

    /// The limb length this pool recycles.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Checks out `count` zeroed limb buffers.
    pub fn take_zeroed(&self, count: usize) -> Vec<Vec<u64>> {
        let mut limbs = self.take_raw(count);
        for limb in &mut limbs {
            limb.fill(0);
        }
        limbs
    }

    /// Checks out `count` limb buffers with unspecified contents — for
    /// callers that overwrite every slot (clones, automorphism targets).
    pub fn take_raw(&self, count: usize) -> Vec<Vec<u64>> {
        let limb_bytes = (self.degree * 8) as u64;
        let mut limbs = Vec::with_capacity(count);
        let home = home_shard();
        // Drain the home shard first, then siblings; no lock is held
        // across shards, so concurrent checkouts interleave freely.
        for i in 0..self.shards.len() {
            if limbs.len() == count {
                break;
            }
            let mut shard = self.shards[(home + i) % self.shards.len()]
                .lock()
                .expect("pool shard lock");
            while limbs.len() < count {
                match shard.pop() {
                    Some(buf) => limbs.push(buf),
                    None => break,
                }
            }
        }
        let reused = limbs.len() as u64;
        let fresh = count as u64 - reused;
        self.stats.hits.fetch_add(reused, Ordering::Relaxed);
        self.stats
            .free_bytes
            .fetch_sub(reused * limb_bytes, Ordering::Relaxed);
        self.stats.misses.fetch_add(fresh, Ordering::Relaxed);
        let live = self
            .stats
            .live_bytes
            .fetch_add(count as u64 * limb_bytes, Ordering::Relaxed)
            + count as u64 * limb_bytes;
        self.stats.peak_bytes.fetch_max(live, Ordering::Relaxed);
        for _ in 0..fresh {
            limbs.push(vec![0u64; self.degree]);
        }
        limbs
    }

    /// Returns limb buffers to the free list. Buffers whose length differs
    /// from the pool's degree are dropped (never resized in place).
    pub fn put(&self, limbs: impl IntoIterator<Item = Vec<u64>>) {
        let limb_bytes = (self.degree * 8) as u64;
        let mut kept = Vec::new();
        let mut total = 0u64;
        for limb in limbs {
            total += 1;
            if limb.len() == self.degree {
                kept.push(limb);
            }
        }
        if total == 0 {
            return;
        }
        let returned = kept.len() as u64;
        // Live bytes saturate rather than wrap if a caller returns more
        // than it checked out (a buffer allocated elsewhere).
        let _ = self
            .stats
            .live_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(total * limb_bytes))
            });
        self.stats.returns.fetch_add(returned, Ordering::Relaxed);
        self.stats
            .free_bytes
            .fetch_add(returned * limb_bytes, Ordering::Relaxed);
        if !kept.is_empty() {
            self.shards[home_shard()]
                .lock()
                .expect("pool shard lock")
                .append(&mut kept);
        }
    }

    /// Total buffers currently parked across all shards. Scans every
    /// shard lock, so (like [`PolyPool::stats`]) the sum is only
    /// meaningful at quiescence; exposed for the model-checker suite,
    /// which proves `parked_buffers * limb_bytes == free_bytes` there.
    #[doc(hidden)]
    pub fn parked_buffers(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("pool shard lock").len())
            .sum()
    }

    /// A snapshot of the pool's counters. Each counter is individually
    /// exact; under concurrent traffic the fields are read one at a time,
    /// so cross-field invariants are only guaranteed at quiescence.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            returns: self.stats.returns.load(Ordering::Relaxed),
            live_bytes: self.stats.live_bytes.load(Ordering::Relaxed),
            peak_bytes: self.stats.peak_bytes.load(Ordering::Relaxed),
            free_bytes: self.stats.free_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_miss_then_hit() {
        let pool = PolyPool::new(8);
        let a = pool.take_zeroed(3);
        assert_eq!(a.len(), 3);
        let s = pool.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 0);
        assert_eq!(s.live_bytes, 3 * 64);
        pool.put(a);
        let s = pool.stats();
        assert_eq!(s.returns, 3);
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.free_bytes, 3 * 64);
        let b = pool.take_zeroed(2);
        let s = pool.stats();
        assert_eq!(s.hits, 2, "reuse must come from the free list");
        assert_eq!(s.misses, 3);
        assert!(b.iter().all(|l| l.iter().all(|&x| x == 0)));
    }

    #[test]
    fn zeroed_checkout_clears_recycled_contents() {
        let pool = PolyPool::new(4);
        let mut a = pool.take_zeroed(1);
        a[0][2] = 99;
        pool.put(a);
        let b = pool.take_zeroed(1);
        assert_eq!(b[0], vec![0u64; 4]);
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let pool = PolyPool::new(8);
        let a = pool.take_zeroed(2);
        let b = pool.take_raw(3);
        assert_eq!(pool.stats().live_bytes, 5 * 64);
        assert_eq!(pool.stats().peak_bytes, 5 * 64);
        pool.put(a);
        assert_eq!(pool.stats().live_bytes, 3 * 64);
        assert_eq!(pool.stats().peak_bytes, 5 * 64);
        pool.put(b);
        assert_eq!(pool.stats().live_bytes, 0);
    }

    #[test]
    fn wrong_length_buffers_are_dropped_not_pooled() {
        let pool = PolyPool::new(8);
        drop(pool.take_raw(1));
        pool.put([vec![0u64; 4]]);
        let s = pool.stats();
        assert_eq!(s.returns, 0);
        assert_eq!(s.free_bytes, 0);
        assert_eq!(s.live_bytes, 0, "live accounting still balanced");
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let pool = PolyPool::new(8);
        assert_eq!(pool.stats().hit_rate(), 0.0);
        let a = pool.take_zeroed(1);
        pool.put(a);
        let _b = pool.take_zeroed(1);
        assert!((pool.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sibling_shards_are_drained_when_the_home_shard_is_dry() {
        let pool = PolyPool::new(8);
        // Park buffers from this thread (one home shard), then demand more
        // than any single shard batch from a different home shard.
        let a = pool.take_zeroed(5);
        pool.put(a);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let b = pool.take_raw(5);
                assert_eq!(b.len(), 5);
                assert_eq!(pool.stats().hits, 5, "all five reused across shards");
                pool.put(b);
            });
        });
    }

    #[test]
    fn contended_counters_stay_exact() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        let pool = PolyPool::new(32);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pool = &pool;
                scope.spawn(move || {
                    for r in 0..ROUNDS {
                        let take = 1 + (t + r) % 4;
                        let bufs = pool.take_zeroed(take);
                        assert_eq!(bufs.len(), take);
                        pool.put(bufs);
                    }
                });
            }
        });
        let s = pool.stats();
        let checkouts: u64 = (0..THREADS)
            .flat_map(|t| (0..ROUNDS).map(move |r| (1 + (t + r) % 4) as u64))
            .sum();
        assert_eq!(s.hits + s.misses, checkouts, "every checkout counted once");
        assert_eq!(s.returns, checkouts, "every buffer returned exactly once");
        assert_eq!(s.live_bytes, 0, "balanced take/put leaves nothing live");
        assert_eq!(
            s.free_bytes,
            (s.returns - s.hits) * 32 * 8,
            "parked bytes equal net returns"
        );
        assert!(
            s.peak_bytes >= 4 * 32 * 8,
            "peak saw at least one full take"
        );
        assert!(
            s.peak_bytes <= checkouts * 32 * 8,
            "peak never exceeds total traffic"
        );
    }
}
