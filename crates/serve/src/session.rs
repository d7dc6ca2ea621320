//! Per-session state: key material, execution options, quarantine.
//!
//! A session owns its keys. All sessions share the server's compile
//! cache, per-degree polynomial pools and the walker's runner budget, but
//! key material ([`SessionKeys`]: secret, relinearization,
//! Galois) is generated per session from the session's own seed and is
//! never visible to another session — the isolation boundary of the
//! service layer.
//!
//! Key material is cached per *shape* (modulus chain depth, rescale
//! bits, and — under eager provisioning — the level every key of the
//! program must reach), so a session running many programs of the same
//! shape pays keygen once.

use fhe_conc::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fhe_conc::sync::{Arc, Mutex, RwLock};
use std::collections::HashMap;

use fhe_ckks::KeyCacheStats;
use fhe_ir::{key_levels, KeyLevels, ScheduleError, ScheduledProgram};
use fhe_runtime::{KeyPolicy, MemStats, ParOptions, SessionKeys};

/// Opaque session identifier issued by [`SessionStore::create`].
pub type SessionId = u64;

/// `splitmix64` finalizer — the per-request encryption-seed mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The encryption seed of request number `index` (0-based, in submission
/// order) of a session seeded with `session_seed`.
///
/// This is a pure function so a serial replay can reproduce a concurrent
/// run byte-for-byte: outputs depend only on (schedule, inputs, keys,
/// this seed), never on scheduling interleavings.
pub fn request_seed(session_seed: u64, index: u64) -> u64 {
    splitmix64(session_seed ^ splitmix64(index.wrapping_add(1)))
}

/// The key-material shape a schedule requires. Sessions cache one
/// [`SessionKeys`] per shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct KeyShape {
    max_level: u32,
    rescale_bits: u32,
    /// The level each key must reach. Under [`KeyPolicy::EagerProgram`]
    /// it is the program's own ([`key_levels`], as
    /// [`SessionKeys::for_schedule`] reads it), so a text that rotates or
    /// multiplies deeper than an earlier one of the same steps gets keys of
    /// its own. Lazy and explicit-set policies do not depend on the
    /// program: one full-depth relinearization key, and Galois keys from
    /// the cache or the set.
    levels: KeyLevels,
}

/// One client's state: options, keys, request sequence and health.
#[derive(Debug)]
pub(crate) struct Session {
    id: SessionId,
    options: ParOptions,
    keys: Mutex<HashMap<KeyShape, Arc<SessionKeys>>>,
    seq: AtomicU64,
    quarantined: AtomicBool,
    requests: AtomicU64,
    failures: AtomicU64,
    peak_bytes: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    key_hits: AtomicU64,
    key_misses: AtomicU64,
    key_evictions: AtomicU64,
}

impl Session {
    pub(crate) fn id(&self) -> SessionId {
        self.id
    }

    pub(crate) fn options(&self) -> &ParOptions {
        &self.options
    }

    /// Claims the next request index (submission order).
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    pub(crate) fn quarantine(&self) {
        self.quarantined.store(true, Ordering::Release);
    }

    /// The session's key material for `scheduled`'s shape, generating it
    /// on first use and reusing it for every later schedule of the same
    /// shape.
    pub(crate) fn keys_for(
        &self,
        scheduled: &ScheduledProgram,
    ) -> Result<Arc<SessionKeys>, Vec<ScheduleError>> {
        let map = scheduled.validate()?;
        let levels = match self.options.exec.keys {
            KeyPolicy::EagerProgram => key_levels(&scheduled.program, &map),
            _ => KeyLevels {
                galois: Vec::new(),
                relin: map.max_level(),
            },
        };
        let shape = KeyShape {
            max_level: map.max_level(),
            rescale_bits: scheduled.params.rescale_bits,
            levels,
        };
        if let Some(existing) = self
            .keys
            .lock()
            .expect("session key lock")
            .get(&shape)
            .cloned()
        {
            return Ok(existing);
        }
        // Generate *outside* the lock: keygen can panic on out-of-range
        // client-controlled parameters (the server catches the unwind at
        // the request boundary), and a panic while holding this mutex
        // would poison it for the session's stats. Generation is
        // deterministic from (session seed, shape), so two racing
        // requests of the same shape produce byte-identical material and
        // either insert is correct.
        let generated = Arc::new(SessionKeys::generate(
            &self.options.exec,
            shape.max_level as usize,
            shape.rescale_bits,
            &shape.levels,
        ));
        let mut keys = self.keys.lock().expect("session key lock");
        Ok(keys.entry(shape).or_insert(generated).clone())
    }

    pub(crate) fn record_success(&self, mem: &MemStats) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.peak_bytes.fetch_max(mem.peak_bytes, Ordering::Relaxed);
        self.pool_hits.fetch_add(mem.pool_hits, Ordering::Relaxed);
        self.pool_misses
            .fetch_add(mem.pool_misses, Ordering::Relaxed);
        self.key_hits.fetch_add(mem.key_hits, Ordering::Relaxed);
        self.key_misses.fetch_add(mem.key_misses, Ordering::Relaxed);
        self.key_evictions
            .fetch_add(mem.key_evictions, Ordering::Relaxed);
    }

    pub(crate) fn record_failure(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> SessionStats {
        let keys = self.keys.lock().expect("session key lock");
        let mut key_cache: Option<KeyCacheStats> = None;
        for sk in keys.values() {
            if let Some(cache) = sk.key_cache() {
                let s = cache.stats();
                let acc = key_cache.get_or_insert_with(KeyCacheStats::default);
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.evictions += s.evictions;
                acc.bytes += s.bytes;
                acc.peak_bytes += s.peak_bytes;
            }
        }
        SessionStats {
            id: self.id,
            requests: self.requests.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            quarantined: self.is_quarantined(),
            key_shapes: keys.len(),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            key_hits: self.key_hits.load(Ordering::Relaxed),
            key_misses: self.key_misses.load(Ordering::Relaxed),
            key_evictions: self.key_evictions.load(Ordering::Relaxed),
            key_cache,
        }
    }
}

/// Public per-session snapshot, summed over the session's completed
/// requests (counter fields are sums of per-request [`MemStats`] deltas;
/// `peak_bytes` is the maximum over the session's requests of the
/// **shared** pool's high-water mark — see its field doc for the
/// cross-session caveat).
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Session id.
    pub id: SessionId,
    /// Completed requests (successes and failures).
    pub requests: u64,
    /// Requests that returned an error.
    pub failures: u64,
    /// Whether a panicking request quarantined the session.
    pub quarantined: bool,
    /// Distinct key shapes the session generated material for.
    pub key_shapes: usize,
    /// Maximum, over this session's successful requests, of
    /// [`MemStats::peak_bytes`] — the absolute high-water mark of the
    /// **shared** per-degree pool plus this session's key bytes at the
    /// time the request completed. Because the pool is shared, concurrent
    /// traffic from *other* sessions raises the watermark every session
    /// observes: under concurrency this is "peak service memory while the
    /// session was active", not memory attributable to the session alone.
    /// Only a serial, single-session run reads as a per-session peak.
    pub peak_bytes: u64,
    /// Summed per-request pool hits.
    pub pool_hits: u64,
    /// Summed per-request pool misses.
    pub pool_misses: u64,
    /// Summed per-request Galois-key hits.
    pub key_hits: u64,
    /// Summed per-request Galois-key misses.
    pub key_misses: u64,
    /// Summed per-request Galois-key evictions.
    pub key_evictions: u64,
    /// The session's lazy key-cache counters (summed over shapes), when
    /// the session runs under [`KeyPolicy::Lazy`].
    pub key_cache: Option<KeyCacheStats>,
}

/// Issues session ids and owns every session's state.
#[derive(Debug, Default)]
pub struct SessionStore {
    sessions: RwLock<HashMap<SessionId, Arc<Session>>>,
    next: AtomicU64,
}

impl SessionStore {
    /// An empty store.
    pub fn new() -> SessionStore {
        SessionStore::default()
    }

    /// Creates a session executing under `options` (seed, polynomial
    /// degree, key policy, workers) and returns its id.
    pub fn create(&self, options: ParOptions) -> SessionId {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let session = Arc::new(Session {
            id,
            options,
            keys: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            key_hits: AtomicU64::new(0),
            key_misses: AtomicU64::new(0),
            key_evictions: AtomicU64::new(0),
        });
        self.sessions
            .write()
            .expect("session store lock")
            .insert(id, session);
        id
    }

    pub(crate) fn get(&self, id: SessionId) -> Option<Arc<Session>> {
        self.sessions
            .read()
            .expect("session store lock")
            .get(&id)
            .cloned()
    }

    /// Per-session snapshots, ordered by id.
    pub fn stats(&self) -> Vec<SessionStats> {
        let sessions = self.sessions.read().expect("session store lock");
        let mut out: Vec<SessionStats> = sessions.values().map(|s| s.stats()).collect();
        out.sort_by_key(|s| s.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_seed_is_stable_and_spread() {
        // Pinned values: the concurrency suite's serial replay depends on
        // this mapping never changing.
        assert_eq!(request_seed(7, 0), request_seed(7, 0));
        assert_ne!(request_seed(7, 0), request_seed(7, 1));
        assert_ne!(request_seed(7, 0), request_seed(8, 0));
        // Consecutive indices land far apart (no accidental stream reuse).
        let a = request_seed(0xC0FFEE, 0);
        let b = request_seed(0xC0FFEE, 1);
        assert!((a ^ b).count_ones() > 8);
    }

    #[test]
    fn sessions_get_distinct_ids_and_isolated_quarantine() {
        let store = SessionStore::new();
        let a = store.create(ParOptions::default());
        let b = store.create(ParOptions::default());
        assert_ne!(a, b);
        store.get(a).unwrap().quarantine();
        assert!(store.get(a).unwrap().is_quarantined());
        assert!(!store.get(b).unwrap().is_quarantined());
        assert!(store.get(999).is_none());
        let stats = store.stats();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].quarantined && !stats[1].quarantined);
    }
}
