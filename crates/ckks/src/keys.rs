//! Key material: the secret key, relinearization and Galois keys.
//!
//! Key switching is hybrid (Han–Ki, CT-RSA 2020): the chain is cut into
//! `⌈L/α⌉` digits of `α = ⌈L/3⌉` consecutive primes, with product `Q_β`, and
//! keys live over the extended modulus `Q·P`, `P` the product of `α` special
//! primes. For each digit `β` the switching key encrypts `T_β · t(X)`, where
//! `T_β ≡ P (mod q_i)` for the digit's primes, `T_β ≡ 0` on every other chain
//! prime and `T_β ≡ 0 (mod P)`. Lifting `d mod Q_β` to `Q_l·P` (ModUp),
//! multiplying by the key components and dividing by `P` (ModDown) then
//! yields an encryption of `d·t` with only additive noise
//! `≈ Σ_β Q_β·e_β / P`. At `L ≤ 3`, `α = 1`: one single-prime digit per
//! chain prime over one special prime.
//!
//! A switch at level `l` reads only the first `⌈l/α⌉` digit pairs, and of
//! each only the limbs over `Q_l·P`. A key therefore has a *level* `l_k`:
//! it holds `⌈l_k/α⌉` pairs over `Q_{l_k}·P` and serves every op at or
//! below `l_k` ([`KeyGenerator::galois_keys_at`], [`KeyGenerator::relin_key_at`];
//! the lazy [`KeyCache`] deepens a key on demand). Keygen draws every limb
//! of every digit of the full key and drops what it does not keep, so a
//! level-`l_k` key is the full key restricted, byte for byte
//! ([`KswKey::restricted`]), and every op computes the same bytes under
//! either.

use std::collections::HashMap;
use std::sync::Arc;

use rand::{Rng, SeedableRng};

use crate::context::{key_switch_digits, CkksContext};
use crate::poly::{gaussian_coeffs, RnsPoly};

/// The secret key `s` (ternary), stored over the full basis `Q·P`, NTT.
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) s: RnsPoly,
}

impl SecretKey {
    /// Heap bytes held by the key polynomial.
    pub fn byte_size(&self) -> usize {
        self.s.byte_size()
    }
}

/// One key-switching key of level `l_k`: per digit `β < ⌈l_k/α⌉`, a pair
/// over `Q_{l_k}·P` with `k0_β + k1_β·s = T_β·t + e_β`. It serves key
/// switches at every level up to `l_k`; at `l_k = L` it is the full key.
#[derive(Debug, Clone, PartialEq)]
pub struct KswKey {
    pub(crate) level: usize,
    pub(crate) k0: Vec<RnsPoly>,
    pub(crate) k1: Vec<RnsPoly>,
}

impl KswKey {
    /// The deepest level this key switches at (0 for a key that holds
    /// nothing).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Heap bytes held by the key polynomials (`2·⌈l_k/α⌉` digits ×
    /// `l_k+α` limbs × `N` × 8, [`crate::ksw_key_limbs`]).
    pub fn byte_size(&self) -> usize {
        self.k0.iter().chain(&self.k1).map(RnsPoly::byte_size).sum()
    }

    /// This key cut down to `level ≤ l_k`: its first `⌈level/α⌉` pairs,
    /// each restricted to `Q_level·P` — what generating the key at `level`
    /// yields.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the key's own.
    pub fn restricted(&self, ctx: &CkksContext, level: usize) -> KswKey {
        assert!(level <= self.level, "a key cannot be deepened by cutting");
        let digits = key_switch_digits(level, ctx.max_level());
        let cut = |polys: &[RnsPoly]| -> Vec<RnsPoly> {
            polys[..digits]
                .iter()
                .map(|p| p.restrict_for_keyswitch(level))
                .collect()
        };
        KswKey {
            level,
            k0: cut(&self.k0),
            k1: cut(&self.k1),
        }
    }
}

/// Relinearization key: switches `s²` back to `s` after multiplication.
#[derive(Debug, Clone)]
pub struct RelinKey(pub(crate) KswKey);

impl RelinKey {
    /// Heap bytes held by the key polynomials.
    pub fn byte_size(&self) -> usize {
        self.0.byte_size()
    }

    /// The key-switching key itself.
    pub fn key(&self) -> &KswKey {
        &self.0
    }
}

/// Galois keys: per Galois element `g`, switches `s(X^g)` back to `s`.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    pub(crate) keys: HashMap<usize, KswKey>,
}

impl GaloisKeys {
    /// The key for Galois element `g`, if generated.
    pub fn get(&self, g: usize) -> Option<&KswKey> {
        self.keys.get(&g)
    }

    /// Galois elements covered by this key set.
    pub fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.keys().copied()
    }

    /// Heap bytes held across all keys in the set.
    pub fn byte_size(&self) -> usize {
        self.keys.values().map(KswKey::byte_size).sum()
    }

    /// Every key of the set cut down to `level` ([`KswKey::restricted`]).
    ///
    /// # Panics
    ///
    /// Panics if a key is shallower than `level`.
    pub fn restricted(&self, ctx: &CkksContext, level: usize) -> GaloisKeys {
        let keys = self.keys.iter();
        GaloisKeys {
            keys: keys.map(|(&g, k)| (g, k.restricted(ctx, level))).collect(),
        }
    }
}

/// The Galois element realizing a rotation of the slot vector by `steps`
/// (positive = towards lower slot indices), i.e. `5^steps mod 2N`.
pub fn rotation_to_galois(ctx: &CkksContext, steps: i64) -> usize {
    let n2 = 2 * ctx.degree();
    let slots = ctx.slots() as i64;
    let k = steps.rem_euclid(slots) as usize;
    let mut g = 1usize;
    for _ in 0..k {
        g = (g * 5) % n2;
    }
    g
}

/// Generates all key material for a context.
#[derive(Debug)]
pub struct KeyGenerator<'c> {
    ctx: &'c CkksContext,
    sk: SecretKey,
}

impl<'c> KeyGenerator<'c> {
    /// Samples a fresh ternary secret key.
    pub fn new(ctx: &'c CkksContext, rng: &mut impl Rng) -> Self {
        let mut s = RnsPoly::ternary(ctx, ctx.max_level(), true, rng);
        s.to_ntt(ctx);
        KeyGenerator {
            ctx,
            sk: SecretKey { s },
        }
    }

    /// The secret key (needed for decryption).
    pub fn secret_key(&self) -> SecretKey {
        self.sk.clone()
    }

    /// Generates the full-depth relinearization key (switches `s²` to `s`
    /// at every level).
    pub fn relin_key(&self, rng: &mut impl Rng) -> RelinKey {
        self.relin_key_at(self.ctx.max_level(), rng)
    }

    /// Generates the relinearization key for multiplies at or below
    /// `level` ([`KswKey`]); `level = 0` holds nothing. Draws exactly what
    /// [`KeyGenerator::relin_key`] draws.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the context's `L`.
    pub fn relin_key_at(&self, level: usize, rng: &mut impl Rng) -> RelinKey {
        let ctx = self.ctx;
        RelinKey(generate_ksw(ctx, &self.sk.s, level, |s| s.mul(ctx, s), rng))
    }

    /// Generates full-depth Galois keys for the given slot-rotation steps.
    pub fn galois_keys(
        &self,
        steps: impl IntoIterator<Item = i64>,
        rng: &mut impl Rng,
    ) -> GaloisKeys {
        let l = self.ctx.max_level();
        self.galois_keys_at(steps.into_iter().map(|step| (step, l)), rng)
    }

    /// Generates Galois keys for `(step, level)` pairs: one key per Galois
    /// element, at the deepest level any of its steps asks for
    /// ([`KswKey`]). Keys are drawn in order of each element's first step —
    /// the order [`KeyGenerator::galois_keys`] draws the same steps in, and
    /// exactly its draws — so every limb kept is the full key's. An element
    /// asked for at level 0 only is drawn and dropped.
    ///
    /// # Panics
    ///
    /// Panics if a level exceeds the context's `L`.
    pub fn galois_keys_at(
        &self,
        steps: impl IntoIterator<Item = (i64, usize)>,
        rng: &mut impl Rng,
    ) -> GaloisKeys {
        let ctx = self.ctx;
        let mut order = Vec::new();
        let mut depth = HashMap::new();
        for (step, level) in steps {
            let g = rotation_to_galois(ctx, step);
            if g == 1 {
                continue;
            }
            let deepest = depth.entry(g).or_insert_with(|| {
                order.push(g);
                0
            });
            *deepest = level.max(*deepest);
        }
        let mut keys = HashMap::new();
        for g in order {
            // Key switches s(X^g) to s.
            let key = generate_ksw(ctx, &self.sk.s, depth[&g], |s| s.automorphism(ctx, g), rng);
            if key.level > 0 {
                keys.insert(g, key);
            }
        }
        GaloisKeys { keys }
    }
}

impl<'c> KeyGenerator<'c> {
    /// Generates the full-depth complex-conjugation key (Galois element
    /// `2N − 1`) alongside keys for the given rotation steps.
    pub fn galois_keys_with_conjugation(
        &self,
        steps: impl IntoIterator<Item = i64>,
        rng: &mut impl Rng,
    ) -> GaloisKeys {
        let mut keys = self.galois_keys(steps, rng);
        let (ctx, g) = (self.ctx, 2 * self.ctx.degree() - 1);
        keys.keys.entry(g).or_insert_with(|| {
            let sg = |s: &RnsPoly| s.automorphism(ctx, g);
            generate_ksw(ctx, &self.sk.s, ctx.max_level(), sg, rng)
        });
        keys
    }
}

/// Builds a level-`level` key-switching key to the main secret `s` (over
/// `Q_L·P`, NTT) from the source secret `source` derives from `s`'s
/// restriction to `Q_level·P` — shared by [`KeyGenerator`] and the lazy
/// [`KeyCache`]. `level = 0` builds an empty key.
///
/// Every limb of every digit of the full key is drawn, kept or not: the
/// uniform `a` over `Q_L·P` and the Gaussian coefficients of `e`. So the
/// stream ends where the full key's leaves it, and every limb kept equals
/// the full key's — each is a function of its own modulus's draws and of
/// `s` and `t` on that modulus. What keygen skips is the work on dropped
/// limbs: their NTTs and products.
fn generate_ksw(
    ctx: &CkksContext,
    s: &RnsPoly,
    level: usize,
    source: impl FnOnce(&RnsPoly) -> RnsPoly,
    rng: &mut impl Rng,
) -> KswKey {
    let (big_l, alpha) = (ctx.max_level(), ctx.specials().len());
    assert!(level <= big_l, "a key reaches at most level L");
    let secrets = (level > 0).then(|| {
        let s = s.restrict_for_keyswitch(level);
        let t = source(&s);
        (s, t)
    });
    let kept = key_switch_digits(level, big_l);
    let mut key = KswKey {
        level,
        k0: Vec::with_capacity(kept),
        k1: Vec::with_capacity(kept),
    };
    for beta in 0..key_switch_digits(big_l, big_l) {
        let a =
            RnsPoly::uniform_prefix_in(None, ctx, if beta < kept { level } else { 0 }, true, rng);
        let e = gaussian_coeffs(ctx, rng);
        let (Some(a), Some((s, t))) = (a, &secrets) else {
            continue;
        };
        let mut e = RnsPoly::from_signed_coeffs(ctx, level, true, &e);
        e.to_ntt(ctx);
        // body = −a·s + e + T_β·t, where T_β has residue (P mod q_i) on the
        // digit's limbs i and 0 elsewhere (including the special limbs).
        let mut body = a.mul(ctx, s);
        body.neg_assign(ctx);
        body.add_assign(ctx, &e);
        for i in beta * alpha..level.min((beta + 1) * alpha) {
            let qi = ctx.moduli()[i];
            let factor = ctx
                .specials()
                .iter()
                .fold(qi.reduce(1), |acc, p| qi.mul(acc, qi.reduce(p.value())));
            let factor_shoup = qi.shoup(factor);
            for (dst, &src) in body.limb_mut(i).iter_mut().zip(t.limb(i)) {
                *dst = qi.add(*dst, qi.mul_shoup(src, factor, factor_shoup));
            }
        }
        key.k0.push(body);
        key.k1.push(a);
    }
    key
}

/// SplitMix64 finalizer — decorrelates the per-element key-generation seeds
/// derived from (cache seed, Galois element).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counters describing a [`KeyCache`]'s traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that generated a key on demand.
    pub misses: u64,
    /// Keys evicted to stay under the byte budget.
    pub evictions: u64,
    /// Bytes of key material currently cached (excluding the secret-key
    /// handle the cache holds to regenerate keys).
    pub bytes: usize,
    /// High-water mark of [`KeyCacheStats::bytes`].
    pub peak_bytes: usize,
}

struct CacheEntry {
    /// Shared with the lookups still using it: evicting an entry drops the
    /// cache's handle, and the key lives on until the last user is done.
    key: Arc<KswKey>,
    /// Monotonic last-use tick for LRU eviction.
    tick: u64,
}

/// Lazy Galois-key store: generates each key on first use from a retained
/// secret-key handle and keeps it in an LRU cache under an optional byte
/// budget.
///
/// A key is generated at the level of the op that first asks for it and
/// serves every op at or below that level. A deeper op regenerates it at
/// its own level, replacing the shallow one (a miss): keys deepen, they
/// never shrink. Per-element generation is seeded by `(seed, g)`
/// independently of access order and draws the full key's stream, so an
/// evicted or deepened key regenerates bit-identically on the limbs it
/// shares with the old one — execution results depend neither on the
/// budget nor on the order levels are asked for. Interior mutability lets a
/// shared [`crate::Evaluator`] populate the cache through `&self`.
pub struct KeyCache {
    sk: SecretKey,
    seed: u64,
    budget: Option<usize>,
    inner: std::sync::Mutex<CacheInner>,
}

struct CacheInner {
    entries: HashMap<usize, CacheEntry>,
    tick: u64,
    stats: KeyCacheStats,
}

impl std::fmt::Debug for KeyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyCache")
            .field("seed", &self.seed)
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl KeyCache {
    /// A cache that generates keys on demand for `sk`'s context, evicting
    /// least-recently-used keys once cached bytes exceed `budget_bytes`
    /// (`None` = unbounded). The most recently requested key is never
    /// evicted, so a budget smaller than one key still works (by
    /// regenerating on every rotation).
    pub fn new(sk: SecretKey, seed: u64, budget_bytes: Option<usize>) -> Self {
        KeyCache {
            sk,
            seed,
            budget: budget_bytes,
            inner: std::sync::Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
                stats: KeyCacheStats::default(),
            }),
        }
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> KeyCacheStats {
        self.inner.lock().expect("key cache lock").stats
    }

    /// Whether a key for Galois element `g` is currently cached (does not
    /// touch LRU order).
    pub fn contains(&self, g: usize) -> bool {
        self.inner
            .lock()
            .expect("key cache lock")
            .entries
            .contains_key(&g)
    }

    /// The cached Galois elements, least recently used first.
    pub fn cached_elements(&self) -> Vec<usize> {
        let inner = self.inner.lock().expect("key cache lock");
        let mut els: Vec<(u64, usize)> = inner.entries.iter().map(|(&g, e)| (e.tick, g)).collect();
        els.sort_unstable();
        els.into_iter().map(|(_, g)| g).collect()
    }

    /// Runs `f` with a key for Galois element `g` that reaches `level`,
    /// generating (and caching) it on first use and deepening a shallower
    /// cached one. Never fails: any odd element can be derived from the
    /// secret-key handle.
    ///
    /// The cache lock covers the lookup only — `f` (a whole key switch)
    /// runs outside it on a shared handle, so concurrent rotations of one
    /// session do not serialize here. [`KeyCacheStats::bytes`] counts
    /// cache-resident keys; an evicted or replaced key still in use is not
    /// counted.
    pub fn with_key<R>(
        &self,
        ctx: &CkksContext,
        g: usize,
        level: usize,
        f: impl FnOnce(&KswKey) -> R,
    ) -> R {
        let key = self.key(ctx, g, level);
        f(&key)
    }

    /// Looks up (or generates and caches) a key for `g` reaching `level`
    /// under the lock. Generation stays under it: that is the single-flight
    /// that keeps two racing misses from generating one key twice.
    fn key(&self, ctx: &CkksContext, g: usize, level: usize) -> Arc<KswKey> {
        let mut inner = self.inner.lock().expect("key cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&g).filter(|e| e.key.level >= level) {
            entry.tick = tick;
            let key = entry.key.clone();
            inner.stats.hits += 1;
            return key;
        }
        inner.stats.misses += 1;
        // Order-independent derivation: the same (seed, g) always produces
        // the same key, so eviction, regeneration and deepening are
        // bit-transparent.
        let mut rng = rand::rngs::StdRng::seed_from_u64(splitmix64(self.seed ^ g as u64));
        let sg = |s: &RnsPoly| s.automorphism(ctx, g);
        let key = Arc::new(generate_ksw(ctx, &self.sk.s, level, sg, &mut rng));
        // A shallower key leaves before the deeper one is counted, so the
        // peak never holds both.
        if let Some(shallow) = inner.entries.remove(&g) {
            inner.stats.bytes -= shallow.key.byte_size();
        }
        inner.stats.bytes += key.byte_size();
        inner.entries.insert(
            g,
            CacheEntry {
                key: key.clone(),
                tick,
            },
        );
        if let Some(budget) = self.budget {
            while inner.stats.bytes > budget && inner.entries.len() > 1 {
                let victim = inner
                    .entries
                    .iter()
                    .filter(|(&el, _)| el != g)
                    .min_by_key(|(_, e)| e.tick)
                    .map(|(&el, _)| el)
                    .expect("len > 1 leaves a victim");
                let evicted = inner.entries.remove(&victim).expect("victim present");
                inner.stats.bytes -= evicted.key.byte_size();
                inner.stats.evictions += 1;
            }
        }
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.stats.bytes);
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ksw_key_limbs, CkksContext, CkksParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The test context's `L`.
    const TOP: usize = 2;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams {
            poly_degree: 64,
            max_level: TOP,
            modulus_bits: 45,
            special_bits: 46,
            error_std: 3.2,
            threads: 1,
        })
    }

    #[test]
    fn rotation_galois_elements() {
        let ctx = ctx();
        assert_eq!(rotation_to_galois(&ctx, 0), 1);
        assert_eq!(rotation_to_galois(&ctx, 1), 5);
        assert_eq!(rotation_to_galois(&ctx, 2), 25);
        // Negative steps wrap modulo slot count.
        let slots = ctx.slots() as i64;
        assert_eq!(
            rotation_to_galois(&ctx, -1),
            rotation_to_galois(&ctx, slots - 1)
        );
    }

    #[test]
    fn key_cache_generates_on_demand_and_counts_bytes() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(21);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let cache = KeyCache::new(kg.secret_key(), 0xFEED, None);
        let one_key = ksw_key_limbs(TOP, TOP) * ctx.degree() * 8;
        assert_eq!(cache.stats().bytes, 0);
        let g = rotation_to_galois(&ctx, 1);
        cache.with_key(&ctx, g, TOP, |_| ());
        cache.with_key(&ctx, g, TOP, |_| ());
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.evictions), (1, 1, 0));
        assert_eq!(s.bytes, one_key, "one cached key's bytes");
        assert_eq!(s.peak_bytes, one_key);
        assert!(cache.contains(g));
    }

    #[test]
    fn key_cache_evicts_least_recently_used_within_budget() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(22);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let one_key = ksw_key_limbs(TOP, TOP) * ctx.degree() * 8;
        let cache = KeyCache::new(kg.secret_key(), 0xFEED, Some(2 * one_key));
        let g = |k: i64| rotation_to_galois(&ctx, k);
        cache.with_key(&ctx, g(1), TOP, |_| ());
        cache.with_key(&ctx, g(2), TOP, |_| ());
        assert_eq!(cache.cached_elements(), vec![g(1), g(2)]);
        // Third key exceeds the budget: g(1) is the LRU victim.
        cache.with_key(&ctx, g(3), TOP, |_| ());
        assert_eq!(cache.cached_elements(), vec![g(2), g(3)]);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes, 2 * one_key);
        // Touching g(2) promotes it, so the next insert evicts g(3).
        cache.with_key(&ctx, g(2), TOP, |_| ());
        cache.with_key(&ctx, g(1), TOP, |_| ());
        assert_eq!(cache.cached_elements(), vec![g(2), g(1)]);
        assert_eq!(cache.stats().peak_bytes, 2 * one_key);
    }

    #[test]
    fn key_cache_regenerates_evicted_keys_bit_identically() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(23);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let one_key = ksw_key_limbs(TOP, TOP) * ctx.degree() * 8;
        // Budget below one key: every rotation regenerates, results must
        // not depend on the churn.
        let cache = KeyCache::new(kg.secret_key(), 0xFEED, Some(one_key / 2));
        let g = rotation_to_galois(&ctx, 1);
        let first = cache.with_key(&ctx, g, TOP, KswKey::clone);
        cache.with_key(&ctx, rotation_to_galois(&ctx, 2), TOP, |_| ());
        assert!(!cache.contains(g), "tiny budget keeps only the newest key");
        let again = cache.with_key(&ctx, g, TOP, KswKey::clone);
        assert_eq!(first, again, "per-element seeding is order-independent");
    }

    #[test]
    fn a_key_in_use_does_not_hold_the_cache_lock() {
        use std::sync::mpsc::channel;
        use std::time::Duration;

        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(24);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let cache = KeyCache::new(kg.secret_key(), 0xFEED, None);
        let g = |k: i64| rotation_to_galois(&ctx, k);
        let (parked_tx, parked_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        let finished = std::thread::scope(|scope| {
            // One key switch parks inside `f` ...
            let (cache, ctx) = (&cache, &ctx);
            scope.spawn(move || {
                cache.with_key(ctx, g(1), TOP, |_| {
                    parked_tx.send(()).expect("main is listening");
                    release_rx.recv().expect("main releases");
                });
            });
            parked_rx.recv().expect("first lookup reaches f");
            // ... while another element's lookup and a stats read complete.
            scope.spawn(move || {
                cache.with_key(ctx, g(2), TOP, |_| ());
                done_tx.send(cache.stats()).expect("main is listening");
            });
            let finished = done_rx.recv_timeout(Duration::from_secs(20));
            release_tx.send(()).expect("first lookup is parked");
            finished
        });
        let stats = finished.expect("a second lookup waited for the first one's f");
        assert_eq!((stats.misses, stats.hits), (2, 0));
    }

    #[test]
    fn galois_keys_skip_identity_and_dedup() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(8);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys([0i64, 1, 1, 2], &mut rng);
        let mut els: Vec<usize> = gk.elements().collect();
        els.sort_unstable();
        assert_eq!(els, vec![5, 25]);
        assert!(gk.get(5).is_some());
        assert!(gk.get(1).is_none());
    }

    #[test]
    fn level_sized_keys_are_the_full_keys_restricted_and_draw_the_same_stream() {
        // α = 2 at L = 5: level 3 keeps two digits, the second partial.
        let ctx = CkksContext::new(CkksParams {
            max_level: 5,
            ..*ctx().params()
        });
        let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(25));
        let (mut full_rng, mut sized_rng) = (StdRng::seed_from_u64(26), StdRng::seed_from_u64(26));
        let full_relin = kg.relin_key(&mut full_rng);
        let full = kg.galois_keys([1i64, 2, 3], &mut full_rng);
        let sized_relin = kg.relin_key_at(3, &mut sized_rng);
        // Step 2 is asked for at level 1, then at 4: the deeper one wins.
        // Step 3 only at level 0: drawn and dropped.
        let sized = kg.galois_keys_at([(1, 2), (2, 1), (3, 0), (2, 4)], &mut sized_rng);
        assert_eq!(sized_relin.key(), &full_relin.key().restricted(&ctx, 3));
        for (step, level) in [(1, 2), (2, 4)] {
            let g = rotation_to_galois(&ctx, step);
            let key = sized.get(g).expect("generated");
            assert_eq!(key.level(), level);
            assert_eq!(key, &full.get(g).expect("full").restricted(&ctx, level));
            assert_eq!(key.byte_size(), ksw_key_limbs(level, 5) * ctx.degree() * 8);
        }
        assert!(sized.get(rotation_to_galois(&ctx, 3)).is_none());
        assert_eq!(
            full_rng.gen::<u64>(),
            sized_rng.gen::<u64>(),
            "both streams end at the same draw"
        );
        assert_eq!(kg.relin_key_at(0, &mut sized_rng).byte_size(), 0);
    }

    #[test]
    fn key_cache_deepens_a_shallow_key_on_demand() {
        let ctx = ctx();
        let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(27));
        let cache = KeyCache::new(kg.secret_key(), 0xFEED, None);
        let g = rotation_to_galois(&ctx, 1);
        let shallow = cache.with_key(&ctx, g, 1, KswKey::clone);
        assert_eq!(shallow.level(), 1);
        let deep = cache.with_key(&ctx, g, TOP, KswKey::clone);
        // A shallower request is then served by the deep key.
        cache.with_key(&ctx, g, 1, |k| assert_eq!(k.level(), TOP));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (2, 1));
        assert_eq!(s.bytes, deep.byte_size(), "the shallow key left");
        assert_eq!(s.peak_bytes, deep.byte_size(), "never both at once");
        assert_eq!(shallow, deep.restricted(&ctx, 1));
    }
}
