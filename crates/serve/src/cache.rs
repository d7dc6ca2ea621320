//! Content-addressed compile cache.
//!
//! Maps `(program text, compile params, compiler configuration)` to the compiled
//! [`ScheduledProgram`] (shared as an [`Arc`], so hits cost one clone of a
//! pointer) plus the original [`CompileReport`]. The key is the *printed*
//! program text, not what the client sent: the server parses a request's
//! text and the cache prints it again, so texts that differ only in
//! comments or layout share an entry. Two structurally identical programs
//! submitted under different names still print differently and miss, which
//! is the conservative choice for a service boundary.
//!
//! Entries are evicted least-recently-used under an optional byte budget
//! (estimated: text + per-op footprint + constant payloads). Evicted
//! entries recompile on the next request; compilation is deterministic, so
//! the recompiled schedule is structurally identical to the evicted one
//! (see [`fhe_ir::Program::structural_hash`] — the cache-correctness tests
//! pin this down).

use fhe_conc::sync::{Arc, Condvar, Mutex};
use std::collections::{HashMap, HashSet};

use fhe_ir::pipeline::{CompileError, CompileReport, ScaleCompiler};
use fhe_ir::{text, CompileParams, ConstValue, Op, Program, ScheduledProgram};

/// Full cache key: nothing is ever looked up by a digest alone, so hash
/// collisions cannot alias two different programs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    text: String,
    params: CompileParams,
    /// The compiler's `Debug` rendering: its whole configuration, not its
    /// display label, which differently configured compilers share.
    compiler: String,
}

#[derive(Debug, Clone)]
struct Entry {
    scheduled: Arc<ScheduledProgram>,
    report: CompileReport,
    bytes: u64,
    /// Monotonic last-use tick for LRU eviction.
    tick: u64,
}

/// Counters describing a [`CompileCache`]'s traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled.
    pub misses: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Estimated bytes currently cached.
    pub bytes: u64,
    /// High-water mark of [`CacheStats::bytes`].
    pub peak_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Keys currently compiling (single-flight claims): a racing lookup
    /// waits for the claim holder instead of compiling a duplicate.
    in_flight: HashSet<CacheKey>,
    bytes: u64,
    peak_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The result of one cache lookup: the shared schedule, the compile report
/// of the (possibly cached) compilation, and whether it was a hit.
#[derive(Debug, Clone)]
pub struct CachedCompile {
    /// The scheduled program, shared with every other holder.
    pub scheduled: Arc<ScheduledProgram>,
    /// The report of the compilation that produced the entry.
    pub report: CompileReport,
    /// `true` when the entry was served without compiling.
    pub hit: bool,
}

/// Thread-safe LRU compile cache under an optional byte budget.
#[derive(Debug)]
pub struct CompileCache {
    budget_bytes: Option<u64>,
    inner: Mutex<Inner>,
    /// Signalled whenever an in-flight compile finishes (or fails), so
    /// waiters re-check the map.
    flight_done: Condvar,
}

/// Removes the single-flight claim on drop — including an unwinding
/// compiler panic — so waiters never hang on an abandoned claim.
struct FlightClaim<'a> {
    cache: &'a CompileCache,
    key: CacheKey,
}

impl Drop for FlightClaim<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.inner.lock().expect("compile cache lock");
        inner.in_flight.remove(&self.key);
        self.cache.flight_done.notify_all();
    }
}

/// Estimated resident footprint of one cached entry: the key text, a
/// fixed per-op footprint for both the source and the scheduled program,
/// and the payload of vector constants (shared via `Arc`, counted once).
fn entry_bytes(scheduled: &ScheduledProgram, key_text: &str) -> u64 {
    let program = &scheduled.program;
    let mut bytes = key_text.len() as u64 + 256;
    bytes += program.ops().len() as u64 * 96;
    for op in program.ops() {
        if let Op::Const {
            value: ConstValue::Vector(v),
        } = op
        {
            bytes += v.len() as u64 * 8;
        }
        if let Op::Input { name } = op {
            bytes += name.len() as u64;
        }
    }
    bytes
}

impl CompileCache {
    /// An empty cache holding at most `budget_bytes` of entries
    /// (`None` = unbounded). The budget never evicts the entry being
    /// inserted, so a single oversized program still caches.
    pub fn new(budget_bytes: Option<u64>) -> CompileCache {
        CompileCache {
            budget_bytes,
            inner: Mutex::new(Inner::default()),
            flight_done: Condvar::new(),
        }
    }

    /// Looks up `(program, params, compiler)`, compiling on a miss. Two
    /// compilers share entries exactly when their configurations (`Debug`
    /// renderings) are equal.
    ///
    /// Compilation runs outside the cache lock, so a slow compile never
    /// blocks hits on other keys. Misses are **single-flight**: a lookup
    /// racing an in-flight compile of the same key waits for it and is
    /// served the inserted entry as a hit, so each unique key compiles
    /// exactly once under contention and the miss counter is
    /// deterministic regardless of worker interleaving.
    ///
    /// # Errors
    ///
    /// Propagates the compiler's [`CompileError`]. Failures are not
    /// cached: a failing program re-fails (cheaply) on every request,
    /// and a waiter racing a failed compile retries the compile itself.
    pub fn get_or_compile(
        &self,
        program: &Program,
        params: &CompileParams,
        compiler: &dyn ScaleCompiler,
    ) -> Result<CachedCompile, CompileError> {
        let key = CacheKey {
            text: text::print(program),
            params: *params,
            compiler: format!("{compiler:?}"),
        };
        {
            let mut inner = self.inner.lock().expect("compile cache lock");
            loop {
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(entry) = inner.map.get_mut(&key) {
                    entry.tick = tick;
                    let out = CachedCompile {
                        scheduled: entry.scheduled.clone(),
                        report: entry.report.clone(),
                        hit: true,
                    };
                    inner.hits += 1;
                    return Ok(out);
                }
                if !inner.in_flight.contains(&key) {
                    break;
                }
                inner = self.flight_done.wait(inner).expect("compile cache lock");
            }
            inner.in_flight.insert(key.clone());
            inner.misses += 1;
        }
        let claim = FlightClaim { cache: self, key };

        let compiled = compiler.compile(program, params)?;
        let scheduled = Arc::new(compiled.scheduled);
        let report = compiled.report;
        let bytes = entry_bytes(&scheduled, &claim.key.text);

        let mut inner = self.inner.lock().expect("compile cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        // The claim guarantees exclusive insertion rights for this key.
        inner.map.insert(
            claim.key.clone(),
            Entry {
                scheduled: scheduled.clone(),
                report: report.clone(),
                bytes,
                tick,
            },
        );
        inner.bytes += bytes;
        if let Some(budget) = self.budget_bytes {
            while inner.bytes > budget && inner.map.len() > 1 {
                let victim = inner
                    .map
                    .iter()
                    .filter(|(_, e)| e.tick != tick)
                    .min_by_key(|(_, e)| e.tick)
                    .map(|(k, _)| k.clone());
                let Some(victim) = victim else { break };
                let evicted = inner.map.remove(&victim).expect("victim present");
                inner.bytes -= evicted.bytes;
                inner.evictions += 1;
            }
        }
        inner.peak_bytes = inner.peak_bytes.max(inner.bytes);
        Ok(CachedCompile {
            scheduled,
            report,
            hit: false,
        })
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("compile cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
            peak_bytes: inner.peak_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::Builder;
    use reserve_core::ReserveCompiler;

    fn fig2a(name: &str, slots: usize) -> Program {
        let b = Builder::new(name, slots);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        b.finish(vec![q])
    }

    #[test]
    fn hit_on_same_key_miss_on_different_params_or_compiler() {
        let cache = CompileCache::new(None);
        let p = fig2a("fig2a", 8);
        let compiler = ReserveCompiler::full();
        let params = CompileParams::new(30);

        let a = cache.get_or_compile(&p, &params, &compiler).unwrap();
        assert!(!a.hit);
        let b = cache.get_or_compile(&p, &params, &compiler).unwrap();
        assert!(b.hit);
        assert!(Arc::ptr_eq(&a.scheduled, &b.scheduled));

        // Same text, different params: must miss.
        let c = cache
            .get_or_compile(&p, &CompileParams::new(25), &compiler)
            .unwrap();
        assert!(!c.hit);

        // Same text + params, different compiler: must miss.
        let d = cache
            .get_or_compile(&p, &params, &fhe_baselines::EvaCompiler)
            .unwrap();
        assert!(!d.hit);

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 3));
        assert!(stats.bytes > 0 && stats.peak_bytes >= stats.bytes);
    }

    #[test]
    fn lru_eviction_under_byte_budget_recompiles_identically() {
        let compiler = ReserveCompiler::full();
        let params = CompileParams::new(30);
        let p1 = fig2a("one", 8);
        let p2 = fig2a("two", 8);

        // Budget sized for roughly one entry: inserting the second evicts
        // the least-recently-used first.
        let probe = CompileCache::new(None);
        let one = probe.get_or_compile(&p1, &params, &compiler).unwrap();
        let budget = probe.stats().bytes + probe.stats().bytes / 2;

        let cache = CompileCache::new(Some(budget));
        let a = cache.get_or_compile(&p1, &params, &compiler).unwrap();
        cache.get_or_compile(&p2, &params, &compiler).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes <= budget);

        // The evicted entry recompiles — a miss — but the recompiled
        // schedule is structurally identical to the evicted one.
        let again = cache.get_or_compile(&p1, &params, &compiler).unwrap();
        assert!(!again.hit);
        assert_eq!(
            again.scheduled.structural_hash(),
            a.scheduled.structural_hash()
        );
        assert_eq!(
            again.scheduled.structural_hash(),
            one.scheduled.structural_hash()
        );
    }

    #[test]
    fn cold_key_compiles_exactly_once_under_contention() {
        // Single-flight: many threads racing the same cold key produce
        // exactly one miss (the compile) — the rest wait and hit. This
        // holds for any interleaving, so the assertion is deterministic.
        let cache = CompileCache::new(None);
        let p = fig2a("contended", 8);
        let compiler = ReserveCompiler::full();
        let params = CompileParams::new(30);
        const THREADS: usize = 8;

        let results: Vec<CachedCompile> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| scope.spawn(|| cache.get_or_compile(&p, &params, &compiler).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one compile no matter the interleaving");
        assert_eq!(stats.hits, THREADS as u64 - 1);
        assert_eq!(stats.entries, 1);
        for r in &results[1..] {
            assert!(
                Arc::ptr_eq(&results[0].scheduled, &r.scheduled),
                "everyone shares the single compiled schedule"
            );
        }
    }

    #[test]
    fn name_changes_the_text_and_therefore_the_key() {
        // The service boundary is the client's text: renaming the program
        // changes the text, so it misses even though the structure (and
        // structural hash) is unchanged.
        let cache = CompileCache::new(None);
        let compiler = ReserveCompiler::full();
        let params = CompileParams::new(30);
        let a = cache
            .get_or_compile(&fig2a("alpha", 8), &params, &compiler)
            .unwrap();
        let b = cache
            .get_or_compile(&fig2a("beta", 8), &params, &compiler)
            .unwrap();
        assert!(!b.hit);
        assert_eq!(a.scheduled.structural_hash(), b.scheduled.structural_hash());
    }
}
