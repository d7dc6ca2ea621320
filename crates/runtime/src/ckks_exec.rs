//! The encrypted executor: real RNS-CKKS execution of scheduled programs on
//! the `fhe-ckks` backend, with wall-clock timing — the ground truth behind
//! the latency and error experiments.
//!
//! There is one way to run a schedule: [`execute_parallel_with_keys`] walks
//! its dependence DAG with `k` runners, and at `k = 1` that walk *is* the
//! serial schedule walk. Every other entry point is that function plus key
//! generation ([`SessionKeys`]) or fixed walk settings
//! ([`ParOptions::plain_walk`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fhe_ckks::{
    decrypt, encrypt_symmetric_in, rotation_to_galois, Ciphertext, CkksContext, CkksParams,
    Decomposition, Evaluator, GaloisKeys, KeyCache, KeyGenerator, LinearAccumulator,
    MissingKeyError, PlainFactor, Plaintext, PolyPool, RelinKey, ScalarPlaintext, SecretKey,
};
use fhe_ir::semantics::{self, rotation_class};
use fhe_ir::{
    key_levels, ConstValue, CostModel, DepGraph, FusionPlan, KeyLevels, Op, OpClass, ScheduleError,
    ScheduledProgram, ValueId,
};

use crate::plain;
use crate::walk::{default_runners, Walk};

/// Domain separator so the lazy key cache's per-element RNG streams never
/// collide with the keygen stream at the same seed.
const KEY_CACHE_SEED_TWEAK: u64 = 0x517C_C1B7_2722_0A95;

/// Domain separator deriving the input-encryption stream of [`execute`] /
/// [`execute_parallel`] from `options.seed`, so it never replays the keygen
/// stream's randomness.
const ENC_SEED_TWEAK: u64 = 0x9E37_79B9_7F4A_7C15;

/// How the executor provisions Galois keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPolicy {
    /// Generate each rotation key on first use and hold it in an LRU
    /// [`KeyCache`], optionally bounded to a byte budget. Evicted keys
    /// regenerate bit-identically, so outputs are independent of the
    /// budget (default, with no budget).
    Lazy {
        /// Byte budget for cached keys (`None` = unbounded). The cache
        /// always retains at least the key in use.
        budget_bytes: Option<usize>,
    },
    /// Generate keys for every rotation step of the program up front
    /// (the deployment-style eager whole-set provisioning), each reaching
    /// only the deepest level the program rotates by it at.
    EagerProgram,
    /// Generate full-depth keys for exactly this step set up front. A
    /// scheduled rotation outside the set fails with
    /// [`ScheduleError::MissingKey`].
    EagerSet(Vec<i64>),
}

impl Default for KeyPolicy {
    fn default() -> Self {
        KeyPolicy::Lazy { budget_bytes: None }
    }
}

/// Backend options for encrypted execution.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Polynomial degree `N` of the backend. The program's slot count must
    /// equal `N/2` so rotations wrap identically.
    pub poly_degree: usize,
    /// RNG seed for key generation. The entry points that take no
    /// `enc_seed` derive their encryption seed from it.
    pub seed: u64,
    /// Ignored, like [`CkksParams::threads`]: the field stays only because
    /// existing struct literals name it, and goes once they no longer do.
    pub threads: usize,
    /// Galois-key provisioning policy.
    pub keys: KeyPolicy,
    /// Share one key-switch decomposition across rotations of the same
    /// ciphertext: faster, but the group's `⌈l/α⌉·(l+α)` digit limbs stay live
    /// from its first member to its last. Outputs are byte-identical either
    /// way — this only trades time for memory. Disable to minimize the
    /// working set. The walk's [`DepGraph`], and so its groups, follow this
    /// setting; the compile report's static memory bound assumes it on.
    pub rotation_hoisting: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            poly_degree: 1 << 12,
            seed: 0xC0FFEE,
            threads: 0,
            keys: KeyPolicy::default(),
            rotation_hoisting: true,
        }
    }
}

/// Reusable per-session key material: one context, secret/relin/Galois
/// keys and (under a lazy policy) a key cache, generated once and shared
/// by any number of [`execute_with_keys`] / [`execute_parallel_with_keys`]
/// calls. This is what a serving layer amortizes across requests — the
/// context's NTT tables and the keygen RNG work are paid once per session
/// shape instead of once per request.
///
/// Keygen draws from a stream seeded with `options.seed` and the lazy key
/// cache from `seed ^ KEY_CACHE_SEED_TWEAK`, so a session's keys are a pure
/// function of `(options, shape)`. Encryption draws from neither: every
/// execution seeds its own stream (`enc_seed`).
///
/// Each key-switching key reaches only the level its [`KeyLevels`] entry
/// names, and keygen draws what full-depth keys would, so the limbs it keeps
/// — and every ciphertext the executor produces — are the same bytes as
/// under full-depth keys.
#[derive(Debug, Clone)]
pub struct SessionKeys {
    ctx: Arc<CkksContext>,
    sk: SecretKey,
    relin: Arc<RelinKey>,
    galois: Arc<GaloisKeys>,
    cache: Option<Arc<KeyCache>>,
    fixed_key_bytes: u64,
    static_key_bytes: u64,
}

impl SessionKeys {
    /// Generates key material for programs of the given shape: the
    /// polynomial degree comes from `options`, the modulus chain
    /// from `(max_level, modulus_bits)`. `levels` sizes the relinearization
    /// key and, under [`KeyPolicy::EagerProgram`], the static Galois set
    /// (one key per element it lists, at its level); the other policies
    /// ignore its Galois entries — an explicit set is full depth, and the
    /// lazy cache sizes each key to the op that asks for it.
    pub fn generate(
        options: &ExecOptions,
        max_level: usize,
        modulus_bits: u32,
        levels: &KeyLevels,
    ) -> SessionKeys {
        let ctx = Arc::new(CkksContext::new(backend_params(
            options,
            max_level,
            modulus_bits,
        )));
        let mut rng = StdRng::seed_from_u64(options.seed);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let relin = kg.relin_key_at(levels.relin as usize, &mut rng);
        let (galois, cache) = match &options.keys {
            KeyPolicy::Lazy { budget_bytes } => {
                let cache = KeyCache::new(
                    kg.secret_key(),
                    options.seed ^ KEY_CACHE_SEED_TWEAK,
                    *budget_bytes,
                );
                (GaloisKeys::default(), Some(Arc::new(cache)))
            }
            KeyPolicy::EagerProgram => {
                let steps = levels.galois.iter().map(|&(k, l)| (k, l as usize));
                (kg.galois_keys_at(steps, &mut rng), None)
            }
            KeyPolicy::EagerSet(steps) => (kg.galois_keys(steps.iter().copied(), &mut rng), None),
        };
        let static_key_bytes = galois.byte_size() as u64;
        let fixed_key_bytes = (sk.byte_size() + relin.byte_size()) as u64;
        SessionKeys {
            ctx,
            sk,
            relin: Arc::new(relin),
            galois: Arc::new(galois),
            cache,
            fixed_key_bytes,
            static_key_bytes,
        }
    }

    /// Generates key material sized for one schedule: validates it, sizes
    /// the modulus chain to its level requirement, the relinearization key
    /// to its deepest cipher × cipher mul and (under
    /// [`KeyPolicy::EagerProgram`]) each rotation key to the deepest
    /// rotation by its element ([`fhe_ir::key_levels`]).
    ///
    /// # Errors
    ///
    /// Returns the schedule's validation errors if it is illegal.
    pub fn for_schedule(
        scheduled: &ScheduledProgram,
        options: &ExecOptions,
    ) -> Result<SessionKeys, Vec<ScheduleError>> {
        let map = scheduled.validate()?;
        Ok(SessionKeys::generate(
            options,
            map.max_level() as usize,
            scheduled.params.rescale_bits,
            &key_levels(&scheduled.program, &map),
        ))
    }

    /// The shared backend context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// Bytes of the key material generated up front: secret key,
    /// relinearization key and the static Galois set (a lazy cache's keys
    /// are counted by [`KeyCache::stats`]). Under
    /// [`KeyPolicy::EagerProgram`] this is what the compile report's
    /// static `key_bytes` predicts for the schedule.
    pub fn key_bytes(&self) -> u64 {
        self.fixed_key_bytes + self.static_key_bytes
    }

    /// One error per live key switch of `program` these keys cannot serve:
    /// a rotation whose static key is absent or shallower than its
    /// ciphertext, with no lazy cache to derive one
    /// ([`ScheduleError::MissingKey`]), and a cipher × cipher mul above the
    /// relinearization key's level ([`ScheduleError::MissingRelinKey`]).
    fn uncovered(
        &self,
        program: &fhe_ir::Program,
        map: &fhe_ir::ScaleMap,
        graph: &DepGraph,
    ) -> Vec<ScheduleError> {
        let cipher = |id: ValueId| program.is_cipher(id);
        let mut errors = Vec::new();
        for op in graph.nodes().iter().map(|n| n.id).filter(|&id| cipher(id)) {
            let level = map.level(op);
            match program.op(op) {
                Op::Rotate(_, steps) if self.cache.is_none() => {
                    let g = rotation_to_galois(&self.ctx, *steps);
                    let key = self.galois.get(g);
                    if g != 1 && key.is_none_or(|k| k.level() < level as usize) {
                        errors.push(ScheduleError::MissingKey { op, steps: *steps });
                    }
                }
                Op::Mul(a, b)
                    if cipher(*a) && cipher(*b) && self.relin.key().level() < level as usize =>
                {
                    errors.push(ScheduleError::MissingRelinKey { op, level });
                }
                _ => {}
            }
        }
        errors
    }

    /// The lazy Galois-key cache, if the policy was [`KeyPolicy::Lazy`].
    pub fn key_cache(&self) -> Option<&KeyCache> {
        self.cache.as_deref()
    }

    /// Total memory picture at one instant: the evaluator's pool-tracked
    /// polynomial bytes plus the fixed key material (secret + relin) plus
    /// Galois keys (cached bytes under a lazy policy, the whole static set
    /// under an eager one). The encoder's FFT scratch is invisible here and
    /// in the static model alike, so the static bound stays comparable.
    fn mem_snapshot(&self, ev: &Evaluator<'_>) -> MemStats {
        let p = ev.pool_stats();
        let (kh, km, ke, kb, kp) = match ev.key_cache() {
            Some(c) => {
                let s = c.stats();
                (
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.bytes as u64,
                    s.peak_bytes as u64,
                )
            }
            None => (0, 0, 0, self.static_key_bytes, self.static_key_bytes),
        };
        MemStats {
            peak_bytes: p.peak_bytes + self.fixed_key_bytes + kp,
            live_bytes: p.live_bytes + self.fixed_key_bytes + kb,
            allocations: p.misses,
            pool_hits: p.hits,
            pool_misses: p.misses,
            key_hits: kh,
            key_misses: km,
            key_evictions: ke,
            key_bytes_peak: kp,
            key_bytes: self.fixed_key_bytes + kb,
        }
    }
}

/// The backend parameters a session of this shape runs on: the options'
/// degree, `max_level` chain primes of `modulus_bits`, and special primes
/// one bit wider (at most 61).
pub fn backend_params(options: &ExecOptions, max_level: usize, modulus_bits: u32) -> CkksParams {
    CkksParams {
        poly_degree: options.poly_degree,
        max_level,
        modulus_bits,
        special_bits: modulus_bits.min(60) + 1,
        error_std: 3.2,
        threads: 1,
    }
}

/// The rotation steps a program uses, in schedule order (duplicates kept —
/// [`fhe_ckks::KeyGenerator::galois_keys`] deduplicates).
pub fn rotation_steps(program: &fhe_ir::Program) -> Vec<i64> {
    program
        .ops()
        .iter()
        .filter_map(|op| match op {
            Op::Rotate(_, k) => Some(*k),
            _ => None,
        })
        .collect()
}

/// Options for encrypted execution: the backend configuration plus how the
/// schedule's dependence DAG is walked.
#[derive(Debug, Clone)]
pub struct ParOptions {
    /// Backend configuration (degree, seed, key policy, rotation hoisting).
    pub exec: ExecOptions,
    /// Op-level runners walking the DAG: `0` = auto (the machine's
    /// available parallelism), `1` = the serial schedule walk on the
    /// calling thread. Runners past the first are helper threads taken from
    /// the process-wide [`RunnerBudget`](crate::walk::RunnerBudget), so concurrent walks may get fewer.
    /// Results are bit-identical for every value.
    pub workers: usize,
    /// Execute fusible mul→rescale pairs as one fused mul·relin·rescale
    /// kernel. Bit-identical either way; fusion skips materializing the
    /// full-level product.
    pub fusion: bool,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions {
            exec: ExecOptions::default(),
            workers: 0,
            fusion: true,
        }
    }
}

impl ParOptions {
    /// The plain walk every per-op measurement assumes: one runner on the
    /// calling thread retiring ops in schedule order, one kernel call per
    /// op (no fusion). This is what [`execute`] and [`execute_with_keys`]
    /// run.
    pub fn plain_walk(exec: ExecOptions) -> Self {
        ParOptions {
            exec,
            workers: 1,
            fusion: false,
        }
    }
}

/// Memory counters of one encrypted execution. Byte figures cover the
/// backend's polynomial pool (live ciphertexts, on-demand plaintexts, pooled
/// temporaries) plus key material; the encoder's FFT scratch is excluded on
/// both the measured and the static side, so the compiler's static bound
/// remains comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// High-water mark of polynomial + key bytes.
    pub peak_bytes: u64,
    /// Polynomial + key bytes live at the end of the window.
    pub live_bytes: u64,
    /// Fresh limb-buffer allocations (pool misses).
    pub allocations: u64,
    /// Pool checkouts served from the free list.
    pub pool_hits: u64,
    /// Pool checkouts that allocated.
    pub pool_misses: u64,
    /// Galois-key lookups served from the static set or cache.
    pub key_hits: u64,
    /// Galois-key lookups that generated a key on demand.
    pub key_misses: u64,
    /// Galois keys evicted under the cache's byte budget.
    pub key_evictions: u64,
    /// High-water mark of Galois-key bytes (cached or static set).
    pub key_bytes_peak: u64,
    /// Key bytes resident at the end of the window: secret and
    /// relinearization keys plus the Galois keys (the static set, or the
    /// cache's resident keys). Under [`KeyPolicy::EagerProgram`] this is
    /// what the compile report's static `key_bytes` predicts.
    pub key_bytes: u64,
}

impl MemStats {
    /// Fraction of pool checkouts served from the free list (0 when idle).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// The per-window view of a later snapshot against `start`: monotone
    /// counters (`allocations`, `pool_*`, `key_hits/misses/evictions`)
    /// become deltas, byte figures (`peak_bytes`, `live_bytes`,
    /// `key_bytes_peak`, `key_bytes`) keep this snapshot's absolute values. This is how
    /// a request executing against a shared pool/cache reports *its own*
    /// traffic while the global counters stay exact — summing the deltas
    /// of serially executed requests reconstructs the global counters.
    pub fn delta_since(&self, start: &MemStats) -> MemStats {
        MemStats {
            peak_bytes: self.peak_bytes,
            live_bytes: self.live_bytes,
            allocations: self.allocations - start.allocations,
            pool_hits: self.pool_hits - start.pool_hits,
            pool_misses: self.pool_misses - start.pool_misses,
            key_hits: self.key_hits - start.key_hits,
            key_misses: self.key_misses - start.key_misses,
            key_evictions: self.key_evictions - start.key_evictions,
            key_bytes_peak: self.key_bytes_peak,
            key_bytes: self.key_bytes,
        }
    }
}

/// Result of an encrypted execution.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Decrypted program outputs.
    pub outputs: Vec<Vec<f64>>,
    /// Wall-clock time of the homomorphic phase: the prologue (input
    /// encryption) plus the DAG walk.
    pub op_time: Duration,
    /// Wall-clock time of the DAG walk alone — the measured `T(k)` the
    /// depgraph's prediction is validated against.
    pub walk_time: Duration,
    /// End-to-end time: encryption, the walk and decryption, plus keygen
    /// for the entry points that generate keys.
    pub total_time: Duration,
    /// Number of homomorphic ops executed (input encryptions included).
    pub ops_executed: usize,
    /// Wall time and op count per Table 3 op class, summed across runners
    /// (with several runners the durations sum past `op_time`; fresh
    /// encryptions have no class). A fused mul·relin·rescale charges its
    /// whole latency to the mul's class and counts the rescale with zero
    /// duration; every member of a hoisted rotation group reports its own
    /// step, the leader's including the shared decomposition. A member of
    /// a linear-combination group also includes its consumers' encodes and
    /// multiplies: those products and the adds up to the root count with
    /// zero duration (an add with a direct operand with the time to add it),
    /// and the root includes the group's one division by `P`.
    pub per_class: Vec<(OpClass, Duration, usize)>,
    /// Whole-run memory counters (pool + key material); exact under
    /// contention thanks to the pool's atomic accounting.
    pub mem: MemStats,
    /// Runners that walked the DAG: the caller plus the helpers the
    /// [`RunnerBudget`](crate::walk::RunnerBudget) granted, at most `workers` (after resolving `0`).
    pub workers: usize,
    /// mul→rescale pairs executed fused.
    pub fused: usize,
    /// Hoisted rotation groups: sets of rotations that shared one
    /// decomposition.
    pub hoisted_groups: usize,
    /// Linear-combination groups ([`fhe_ir::analysis::linear_groups`])
    /// accumulated over `Q_l·P` with one division by `P` each.
    pub linear_groups: usize,
    /// Read/free and group-writer orderings the safety proof discharged
    /// before the walk started.
    pub safety_obligations: usize,
}

/// The report under the name `benchmark/` imports it by.
pub type ParReport = ExecReport;

/// Executes a scheduled program under real RNS-CKKS encryption as the
/// plain walk ([`ParOptions::plain_walk`]), generating fresh keys first.
///
/// # Errors
///
/// As [`execute_parallel`].
///
/// # Panics
///
/// As [`execute_parallel`].
pub fn execute(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    options: &ExecOptions,
) -> Result<ExecReport, Vec<ScheduleError>> {
    execute_parallel(scheduled, inputs, &ParOptions::plain_walk(options.clone()))
}

/// [`execute_parallel_with_keys`] as the plain walk
/// ([`ParOptions::plain_walk`]); same contract otherwise.
///
/// # Errors
///
/// As [`execute_parallel_with_keys`].
///
/// # Panics
///
/// As [`execute_parallel_with_keys`].
pub fn execute_with_keys(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    options: &ExecOptions,
    keys: &SessionKeys,
    pool: Option<Arc<PolyPool>>,
    enc_seed: u64,
) -> Result<ExecReport, Vec<ScheduleError>> {
    let options = ParOptions::plain_walk(options.clone());
    execute_parallel_with_keys(scheduled, inputs, &options, keys, pool, enc_seed)
}

/// Executes a scheduled program under real RNS-CKKS encryption with
/// `options.workers` runners: generates keys sized for the schedule
/// ([`SessionKeys::for_schedule`]), then runs
/// [`execute_parallel_with_keys`] with an encryption seed derived from
/// `options.exec.seed`. Outputs are byte-identical for every worker count,
/// fusion setting and `rotation_hoisting` setting.
///
/// # Errors
///
/// Returns the schedule's validation errors if it is illegal, a
/// [`ScheduleError::InvalidInput`] per input binding that cannot be encoded,
/// or a [`ScheduleError::MissingKey`] if a rotation lacks its Galois key
/// under an explicit key set.
///
/// # Panics
///
/// Panics if the program's slot count differs from `poly_degree / 2`, an
/// input binding is missing, or the parallel-safety proof fails.
pub fn execute_parallel(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    options: &ParOptions,
) -> Result<ExecReport, Vec<ScheduleError>> {
    let t_keygen = Instant::now();
    let keys = SessionKeys::for_schedule(scheduled, &options.exec)?;
    let keygen_time = t_keygen.elapsed();
    let enc_seed = options.exec.seed ^ ENC_SEED_TWEAK;
    let mut report = execute_parallel_with_keys(scheduled, inputs, options, &keys, None, enc_seed)?;
    report.total_time += keygen_time;
    Ok(report)
}

/// The encrypted executor: runs a scheduled program against pre-generated
/// [`SessionKeys`], optionally drawing limb buffers from a shared
/// [`PolyPool`] — the request path of a serving layer: compile once,
/// generate keys once per session, execute many times.
///
/// The schedule's dependence DAG ([`DepGraph`], with the anti edges from
/// pool freeing and the output edges from rotation hoisting) is consumed
/// by up to `options.workers` runners: the calling thread plus scoped
/// helpers from the process-wide [`RunnerBudget`](crate::walk::RunnerBudget) ([`Walk::run_scoped`]).
/// Each pops the ready op earliest in the schedule from the shared
/// frontier, runs it against one shared [`Evaluator`] and retires it,
/// unlocking its successors. One runner therefore walks the schedule in
/// order on the calling thread. Five invariants make any width sound and
/// bit-exact:
///
/// 1. **Safety is proven, not assumed.** [`fhe_analysis::parallel::check`]
///    runs over the very DAG about to be consumed; the DAG's anti/output
///    edges discharge exactly its obligations, so the assertion guards
///    against the graph builder and the freeing discipline diverging.
/// 2. **Randomness is confined to the prologue.** Inputs are encrypted
///    from `enc_seed` alone, in schedule order, before the first op (keygen
///    randomness was consumed when the keys were generated; lazily
///    generated Galois keys come from per-element streams). Every
///    homomorphic op is a deterministic function of its operand bytes, so
///    a request's output bytes are a pure function of `(schedule, inputs,
///    keys, enc_seed)` — identical at every width, and whether requests run
///    serially or interleaved with other sessions.
/// 3. **Fusion never changes bytes.** A cipher×cipher mul whose sole
///    consumer is its rescale runs as one [`Evaluator::mul_rescale`]
///    kernel, bit-identical to the mul→rescale sequence; fusion only
///    deletes the intermediate ciphertext and one scheduling round-trip.
///
/// 4. **Hoisting never changes bytes.** The leader of a hoisted rotation
///    group (`options.exec.rotation_hoisting`) decomposes the source once
///    and publishes the digits; every member — the leader included — is its
///    own DAG node and applies its own step to them wherever a runner picks
///    it up, and the member that retires last returns the digits to the
///    pool. A lone rotation runs the same arithmetic on a decomposition of
///    its own, so hoisting on and off are byte-identical.
///
/// 5. **Accumulation never changes bytes across widths or hoisting.** Every
///    linear-combination group (as the safety proof returns it,
///    [`fhe_analysis::SafetyReport::linear_groups`]) runs as one
///    accumulation over `Q_l·P`: each member adds its rotation times
///    its plaintexts to a partial sum it takes from the group's list (or
///    starts) and puts back ([`Evaluator::try_accumulate_rotation`]), the
///    products and the adds between them are never materialized, an add
///    with a direct operand adds it to a partial, and the root merges the
///    partials and divides by `P` once. Modular addition is exact, so every
///    width and both hoisting settings give the same bytes — which differ,
///    within noise, from dividing by `P` per member. The safety proof also
///    checks that every member reaches its root by true edges.
///
/// Every polynomial the request holds — input encryptions, the plaintext
/// an op encodes on demand, results, temporaries, a group's partial sums —
/// is checked out of the pool and returned to it: inputs and intermediates
/// at their last use, a plaintext after its op, partial sums at their
/// group's root, whatever is left (the outputs) once decrypted.
/// A request therefore hands back exactly what it took, and a shared pool's
/// free list stops growing once it has held the largest working set.
///
/// The report's [`MemStats`] counters (`allocations`, `pool_*`, `key_*`)
/// are **deltas** over this call; byte figures (`peak_bytes`,
/// `live_bytes`, `key_bytes_peak`) are absolute high-water/end values of
/// the (possibly shared) pool and cache. Counter deltas are exact when
/// requests sharing a pool run serially; under concurrent execution they
/// attribute contended traffic approximately, while the *global* pool
/// counters remain exact.
///
/// # Errors
///
/// Returns the schedule's validation errors if it is illegal; a
/// [`ScheduleError::InvalidInput`] for every input binding with a NaN or
/// infinite slot or more values than the program has slots — checked before
/// anything is encrypted, so a client's bad data is its own error and not a
/// backend assertion; or, also before anything is encrypted, a
/// [`ScheduleError::MissingKey`] per rotation whose static Galois key is
/// absent or shallower than the rotation (keys from another schedule, under
/// an eager key policy) and a [`ScheduleError::MissingRelinKey`] per
/// cipher × cipher mul above the relinearization key's level.
///
/// # Panics
///
/// Panics if the program's slot count differs from the session context's
/// `N/2`, the schedule needs more levels than the context provides, its
/// rescaling factor differs from the context's chain-prime size, an input
/// binding is missing, or the parallel-safety proof finds an unordered
/// hazard in the DAG; a backend assertion inside an op (operand scales the
/// validator equates but an inexact upscale drifts apart) propagates at
/// every width. Every other `expect` below states the dependence edge that
/// makes it unreachable.
pub fn execute_parallel_with_keys(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    options: &ParOptions,
    keys: &SessionKeys,
    pool: Option<Arc<PolyPool>>,
    enc_seed: u64,
) -> Result<ExecReport, Vec<ScheduleError>> {
    let map = scheduled.validate()?;
    let program = &scheduled.program;
    let ctx = &*keys.ctx;
    assert_eq!(
        program.slots(),
        ctx.degree() / 2,
        "program slots must match the session context's N/2"
    );
    assert!(
        map.max_level() as usize <= ctx.max_level(),
        "schedule needs level {} but the session context provides {}",
        map.max_level(),
        ctx.max_level()
    );
    assert_eq!(
        scheduled.params.rescale_bits,
        ctx.params().modulus_bits,
        "schedule rescale bits must match the session context's chain primes"
    );

    let t_total = Instant::now();
    let mut ev = Evaluator::new_shared(ctx, Some(keys.relin.clone()), keys.galois.clone());
    if let Some(cache) = &keys.cache {
        ev = ev.with_key_cache_handle(cache.clone());
    }
    if let Some(pool) = pool {
        ev = ev.with_pool(pool);
    }
    let ev = &ev;
    let start_mem = keys.mem_snapshot(ev);

    // The DAG the walk consumes — with the liveness, free points and groups
    // the walk follows — and the proof that consuming it in any
    // topological order is race-free under the freeing discipline.
    let hoisting = options.exec.rotation_hoisting;
    let graph = DepGraph::build(scheduled, &map, &CostModel::paper_table3(), hoisting);
    let safety = fhe_analysis::parallel::check(scheduled, &graph, hoisting);
    assert!(
        safety.race_free(),
        "schedule failed the parallel-safety proof: {:?}",
        safety.violations
    );
    let live = |id: ValueId| graph.node(id).is_some();
    // Keys sized for a shallower schedule are the request's error, found
    // before anything is encrypted — not an assertion inside a key switch.
    let uncovered = keys.uncovered(program, &map, &graph);
    if !uncovered.is_empty() {
        return Err(uncovered);
    }
    let hoist_groups: HashMap<ValueId, HoistGroup> = (graph.rotation_groups().iter())
        .map(|(&source, members)| (source, HoistGroup::new(members)))
        .collect();
    let linear = LinearPlan::new(program, &map, &safety.linear_groups);

    // Fusion plan, demoted per pair unless the DAG confirms the rescale
    // depends on nothing but its mul (so completing the mul is the only
    // event that can make it ready, and the fused result is in place by
    // then). A full DAG always confirms a planned pair; the check guards
    // against the graph builder growing new edge kinds.
    let mut rescale_of: Vec<Option<ValueId>> = vec![None; program.num_ops()];
    let mut fused = 0usize;
    if options.fusion {
        for &(m, r) in FusionPlan::plan(scheduled).pairs() {
            let (Some(mn), Some(rn)) = (graph.node(m), graph.node(r)) else {
                continue;
            };
            if graph.preds(rn).iter().all(|&(p, _)| p == mn) {
                rescale_of[m.index()] = Some(r);
                fused += 1;
            }
        }
    }

    // Prologue: plaintext sub-values are evaluated in the clear by the one
    // interpreter (and encoded on demand by the ops that use them, a scalar
    // without the encoder) — a plain op has only plain operands and inputs
    // are cipher, so the bindings are not read here — and every live input
    // is encrypted, consuming the seeded RNG in schedule order.
    let slots = program.slots();
    let mut rng = StdRng::seed_from_u64(enc_seed);
    let mut cipher_slots: Vec<RwLock<Option<Ciphertext>>> =
        (0..program.num_ops()).map(|_| RwLock::new(None)).collect();
    let t_ops = Instant::now();
    let plain_vals = plain::interpret(
        program,
        inputs,
        |id| live(id) && program.is_plain(id),
        |_, _| {},
    );
    let scalar = scalar_values(program, live);
    // `validate` checked there is one spec per declared input.
    let mut bound = Vec::new();
    let mut invalid = Vec::new();
    for (&id, spec) in program.inputs().iter().zip(&scheduled.inputs) {
        if !live(id) {
            continue;
        }
        let Op::Input { name } = program.op(id) else {
            unreachable!("`Program::inputs` lists input ops");
        };
        let data = inputs
            .get(name)
            .unwrap_or_else(|| panic!("missing input binding `{name}`"));
        let bad_slot = data
            .iter()
            .position(|v| !v.is_finite())
            .or((data.len() > slots).then_some(slots));
        match bad_slot {
            Some(slot) => invalid.push(ScheduleError::InvalidInput {
                name: name.clone(),
                slot,
            }),
            None => bound.push((id, spec, data)),
        }
    }
    if !invalid.is_empty() {
        return Err(invalid);
    }
    let encrypted_inputs = bound.len();
    let pool = ev.pool();
    for (id, spec, data) in bound {
        let scale = 2f64.powf(spec.scale_bits.to_f64());
        // In coefficient form: the error joins it there, and the sum takes
        // one forward NTT per limb.
        let pt = ev
            .encoder()
            .encode_coeffs_in(pool, data, scale, spec.level as usize);
        let ct = encrypt_symmetric_in(pool, ctx, &keys.sk, pt, &mut rng);
        *cipher_slots[id.index()].get_mut().expect(SLOT_LOCK) = Some(ct);
    }

    // The walk.
    let workers = match options.workers {
        0 => default_runners(),
        k => k,
    };
    let cx = RunCx {
        program,
        map: &map,
        graph: &graph,
        ev,
        plain_vals: &plain_vals,
        scalar: &scalar,
        cipher_slots: &cipher_slots,
        hoist_groups: &hoist_groups,
        linear: &linear,
        rescale_of: &rescale_of,
        waterline: 2f64.powi(scheduled.params.waterline_bits as i32),
    };
    let walk = Walk::new(&graph);
    let t_walk = Instant::now();
    let runners = walk.run_scoped(workers, |node| cx.run_node(graph.nodes()[node].id));
    let walk_time = t_walk.elapsed();
    let op_time = t_ops.elapsed();

    // What the request still holds when it ends — its outputs, or on an
    // error every value computed so far and the digits and partial sums of
    // every group the error cut short — goes back to the pool.
    let release = |slots: Vec<RwLock<Option<Ciphertext>>>| {
        for slot in slots {
            if let Some(ct) = slot.into_inner().expect(SLOT_LOCK) {
                ev.recycle_ct(ct);
            }
        }
    };
    let retired = match walk.finish() {
        Ok(retired) => retired,
        Err(e) => {
            release(cipher_slots);
            for group in hoist_groups.into_values() {
                if let Some(digits) = group.digits.into_inner().expect(SLOT_LOCK) {
                    ev.recycle_decomposition(digits);
                }
            }
            for group in linear.groups {
                let partials = group.partials.into_inner().expect(SLOT_LOCK);
                partials
                    .into_iter()
                    .for_each(|acc| ev.recycle_accumulator(acc));
            }
            return Err(e);
        }
    };
    // The class and latency of every executed cipher op.
    let timed: Vec<(Option<OpClass>, Duration)> = (retired.into_iter())
        .filter_map(|(node, elapsed)| Some((graph.nodes()[node].class, elapsed?)))
        .collect();

    let outputs = program
        .outputs()
        .iter()
        .map(|&o| {
            // Rewrites can fold an output to a public value (e.g. `x - x`);
            // a plain output has no ciphertext to decrypt.
            if program.is_plain(o) {
                return get(&plain_vals, o).clone();
            }
            let mut v = ev.encoder().decode(&decrypt(ctx, &keys.sk, &cx.cipher(o)));
            v.truncate(slots);
            v
        })
        .collect();
    release(cipher_slots);
    let per_class = OpClass::ALL
        .iter()
        .filter_map(|&class| {
            let times = timed.iter().filter(|t| t.0 == Some(class)).map(|t| t.1);
            let (sum, n) = times.fold((Duration::ZERO, 0), |(sum, n), d| (sum + d, n + 1));
            (n > 0).then_some((class, sum, n))
        })
        .collect();
    Ok(ExecReport {
        outputs,
        op_time,
        walk_time,
        total_time: t_total.elapsed(),
        ops_executed: encrypted_inputs + timed.len(),
        per_class,
        mem: keys.mem_snapshot(ev).delta_since(&start_mem),
        workers: runners,
        fused,
        hoisted_groups: hoist_groups.len(),
        linear_groups: linear.groups.len(),
        safety_obligations: safety.obligations,
    })
}

/// A cipher operand borrowed from its slot for the duration of one op.
struct Operand<'a>(RwLockReadGuard<'a, Option<Ciphertext>>);

impl std::ops::Deref for Operand<'_> {
    type Target = Ciphertext;

    fn deref(&self) -> &Ciphertext {
        // INVARIANT: the true edge from the operand's producer orders its
        // store before this read, and the anti edges order this read
        // before the op that frees the operand.
        self.0.as_ref().expect("cipher operand evaluated")
    }
}

/// Everything a runner needs to execute one DAG node, borrowed from the
/// walk's shared state.
struct RunCx<'a, 'c> {
    program: &'a fhe_ir::Program,
    map: &'a fhe_ir::ScaleMap,
    graph: &'a DepGraph,
    ev: &'a Evaluator<'c>,
    plain_vals: &'a [Option<Vec<f64>>],
    /// Which plain values hold one value in every slot ([`scalar_values`]).
    scalar: &'a [bool],
    cipher_slots: &'a [RwLock<Option<Ciphertext>>],
    hoist_groups: &'a HashMap<ValueId, HoistGroup>,
    linear: &'a LinearPlan,
    rescale_of: &'a [Option<ValueId>],
    waterline: f64,
}

/// One hoisted rotation group's shared state, keyed by the group's source
/// ciphertext in [`RunCx::hoist_groups`].
struct HoistGroup {
    /// The first member in schedule order, which decomposes the source.
    leader: ValueId,
    /// The source's key-switch digits, from the leader's publication until
    /// the last member retires.
    digits: RwLock<Option<Decomposition>>,
    /// Members that have not retired yet; whoever brings it to zero returns
    /// the digits to the pool.
    remaining: AtomicUsize,
}

impl HoistGroup {
    fn new(members: &[(ValueId, i64)]) -> Self {
        HoistGroup {
            leader: members[0].0,
            digits: RwLock::new(None),
            remaining: AtomicUsize::new(members.len()),
        }
    }
}

/// The linear-combination groups of a schedule and what each node does in
/// them ([`fhe_analysis::SafetyReport::linear_groups`]).
struct LinearPlan {
    groups: Vec<LinearGroup>,
    roles: Vec<Option<LinearRole>>,
}

/// A node's part in a linear-combination group.
enum LinearRole {
    /// A member: its plaintext operands, summed per group it feeds.
    Member(Vec<(usize, Vec<ValueId>)>),
    /// A cipher × plain product of a member: folded into the member.
    Product,
    /// An add on the terms' paths: it adds its direct operands to a partial
    /// sum, and the group's root then merges and finishes the partials.
    Add {
        group: usize,
        direct: Vec<ValueId>,
        root: bool,
    },
}

/// One linear-combination group's shared state.
struct LinearGroup {
    /// The level every term is at.
    level: usize,
    /// Partial sums no runner holds. A runner takes one (or starts one)
    /// for each step it accumulates and puts it back, so there are never
    /// more than there are runners; the root drains them.
    partials: Mutex<Vec<LinearAccumulator>>,
}

impl LinearPlan {
    fn new(
        program: &fhe_ir::Program,
        map: &fhe_ir::ScaleMap,
        found: &[fhe_ir::analysis::LinearGroup],
    ) -> Self {
        let mut roles: Vec<Option<LinearRole>> = (0..program.num_ops()).map(|_| None).collect();
        for (g, group) in found.iter().enumerate() {
            for &(member, product) in &group.terms {
                let Op::Mul(a, b) = *program.op(product) else {
                    unreachable!("a product is a mul");
                };
                let plain = if a == member { b } else { a };
                let role = roles[member.index()].get_or_insert(LinearRole::Member(Vec::new()));
                let LinearRole::Member(terms) = role else {
                    unreachable!("a member is only a member");
                };
                match terms.iter_mut().find(|(group, _)| *group == g) {
                    Some((_, plains)) => plains.push(plain),
                    None => terms.push((g, vec![plain])),
                }
                roles[product.index()] = Some(LinearRole::Product);
            }
            let adds = group.adds.iter().map(|&a| (a, false));
            for (add, root) in adds.chain([(group.root, true)]) {
                let direct = (group.direct.iter())
                    .filter(|&&(_, reader)| reader == add)
                    .map(|&(d, _)| d)
                    .collect();
                roles[add.index()] = Some(LinearRole::Add {
                    group: g,
                    direct,
                    root,
                });
            }
        }
        let groups = (found.iter())
            .map(|group| LinearGroup {
                level: map.level(group.root) as usize,
                partials: Mutex::new(Vec::new()),
            })
            .collect();
        LinearPlan { groups, roles }
    }
}

/// Slot locks — a value's, a group's digits or partial sums — are written
/// only by [`RunCx::store`], [`RunCx::recycle_operands`],
/// [`RunCx::with_group_digits`] and [`RunCx::partial`] /
/// [`RunCx::put_partial`], whose guards span one assignment or one
/// `Vec` push, pop or drain — no code that can panic — and a panicking
/// reader does not poison an `RwLock`.
const SLOT_LOCK: &str = "slot lock is never poisoned";

impl RunCx<'_, '_> {
    fn cipher(&self, id: ValueId) -> Operand<'_> {
        Operand(self.cipher_slots[id.index()].read().expect(SLOT_LOCK))
    }

    /// The value in every slot of a plain operand that holds one value in
    /// every slot: the interpreter's slot 0.
    fn scalar_of(&self, id: ValueId) -> Option<f64> {
        self.scalar[id.index()].then(|| get(self.plain_vals, id)[0])
    }

    /// `ct + plain`, or `ct − plain` when `negate`: a scalar without the
    /// encoder, a vector encoded at `ct`'s scale and level.
    fn add_plain(&self, ct: &Ciphertext, plain: ValueId, negate: bool) -> Ciphertext {
        let ev = self.ev;
        match self.scalar_of(plain) {
            Some(v) => ev.add_scalar(ct, if negate { -v } else { v }),
            None if negate => {
                let neg = semantics::neg(get(self.plain_vals, plain));
                ev.add_plain_values(ct, &neg)
            }
            None => ev.add_plain_values(ct, get(self.plain_vals, plain)),
        }
    }

    fn store(&self, id: ValueId, ct: Ciphertext) {
        debug_assert_eq!(
            ct.level as u32,
            self.map.level(id),
            "backend level tracks schedule"
        );
        *self.cipher_slots[id.index()].write().expect(SLOT_LOCK) = Some(ct);
    }

    /// Recycles the operands `id` is the free point of into the pool.
    /// Sound at any width because the anti edges order every other reader
    /// of such an operand before `id`. (An operand with no ciphertext in
    /// its slot — a plain value, a fused mul's product — has nothing to
    /// recycle.)
    fn recycle_operands(&self, id: ValueId) {
        let mut seen = None;
        for a in self.program.op(id).operands() {
            // A squared operand appears twice but is freed once.
            if seen == Some(a) || self.graph.free_at(a) != Some(id) {
                continue;
            }
            seen = Some(a);
            let dead = self.cipher_slots[a.index()]
                .write()
                .expect(SLOT_LOCK)
                .take();
            if let Some(dead) = dead {
                self.ev.recycle_ct(dead);
            }
        }
    }

    /// Runs one rotation's step `f` on a decomposition of its source. In a
    /// hoisted rotation group the leader first decomposes the source and
    /// publishes the digits, every member applies its own step to them, and
    /// the member that retires last returns them to the pool. (A member
    /// that fails leaves that to the end-of-walk release, the walk being
    /// over.) A lone rotation decomposes for itself.
    fn with_group_digits<T>(
        &self,
        source_id: ValueId,
        id: ValueId,
        source: &Ciphertext,
        f: impl FnOnce(&Decomposition) -> Result<T, MissingKeyError>,
    ) -> Result<T, MissingKeyError> {
        let ev = self.ev;
        let Some(group) = self.hoist_groups.get(&source_id) else {
            let digits = ev.decompose_for_rotations(source);
            let out = f(&digits);
            ev.recycle_decomposition(digits);
            return out;
        };
        if group.leader == id {
            let digits = ev.decompose_for_rotations(source);
            *group.digits.write().expect(SLOT_LOCK) = Some(digits);
        }
        let out = {
            let digits = group.digits.read().expect(SLOT_LOCK);
            // INVARIANT: the output edges order every member after the
            // leader, which published above, and the digits are taken only
            // by the last member to get past this read.
            f(digits.as_ref().expect("leader published the digits"))?
        };
        if group.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            let digits = group.digits.write().expect(SLOT_LOCK).take();
            ev.recycle_decomposition(digits.expect("taken once, by the last member"));
        }
        Ok(out)
    }

    /// A partial sum of linear-combination group `g` for this runner: one
    /// no runner holds, or a fresh one.
    fn partial(&self, g: usize) -> LinearAccumulator {
        let group = &self.linear.groups[g];
        let spare = group.partials.lock().expect(SLOT_LOCK).pop();
        spare.unwrap_or_else(|| self.ev.linear_accumulator(group.level))
    }

    fn put_partial(&self, g: usize, acc: LinearAccumulator) {
        self.linear.groups[g]
            .partials
            .lock()
            .expect(SLOT_LOCK)
            .push(acc);
    }

    /// A member's step: its rotation times every plaintext it is
    /// multiplied by, added to a partial sum of each group it feeds (one
    /// key-switch inner product, no division by `P`). Its products are
    /// never materialized; neither is the rotation.
    fn accumulate_member(
        &self,
        id: ValueId,
        source_id: ValueId,
        steps: i64,
        terms: &[(usize, Vec<ValueId>)],
    ) -> Result<(), MissingKeyError> {
        let source = self.cipher(source_id);
        let factors: Vec<_> = (terms.iter())
            .map(|(_, plains)| self.member_factor(plains, source.level))
            .collect();
        let mut partials: Vec<_> = terms.iter().map(|&(g, _)| self.partial(g)).collect();
        let out = self.with_group_digits(source_id, id, &source, |digits| {
            let mut pairs: Vec<_> = (partials.iter_mut())
                .zip(&factors)
                .map(|(acc, factor)| (acc, factor.as_plain()))
                .collect();
            self.ev
                .try_accumulate_rotation(&source, digits, steps, &mut pairs)
        });
        for (&(g, _), acc) in terms.iter().zip(partials) {
            self.put_partial(g, acc);
        }
        for factor in factors {
            if let Factor::Encoded(p) = factor {
                p.poly.recycle(self.ev.pool());
            }
        }
        out
    }

    /// The sum of a member's plain operands for one group, over `Q_l·P` at
    /// the waterline. A group's products all carry the source's scale times
    /// the waterline, so the operands sum exactly: scalars as residues,
    /// vectors as encoded polynomials, and a scalar sum beside vectors is
    /// added into their polynomial — all exact mod each prime, where a sum
    /// of the values before rounding would not be.
    fn member_factor(&self, plains: &[ValueId], level: usize) -> Factor {
        let (ctx, ev) = (self.ev.context(), self.ev);
        let mut encoded: Option<Plaintext> = None;
        let mut scalar: Option<ScalarPlaintext> = None;
        for &p in plains {
            if let Some(v) = self.scalar_of(p) {
                let s = (ev.encoder()).encode_scalar_extended(v, self.waterline, level);
                match &mut scalar {
                    Some(sum) => sum.scalar.add_assign(ctx, &s.scalar),
                    None => scalar = Some(s),
                }
                continue;
            }
            let values = get(self.plain_vals, p);
            let e = (ev.encoder()).encode_extended_in(ev.pool(), values, self.waterline, level);
            match &mut encoded {
                Some(sum) => {
                    sum.poly.add_assign(ctx, &e.poly);
                    e.poly.recycle(ev.pool());
                }
                None => encoded = Some(e),
            }
        }
        match (encoded, scalar) {
            (Some(mut e), Some(s)) => {
                e.poly.add_scalar_assign(ctx, &s.scalar);
                Factor::Encoded(e)
            }
            (Some(e), None) => Factor::Encoded(e),
            (None, Some(s)) => Factor::Scalar(s),
            (None, None) => unreachable!("a member has a plain operand per group"),
        }
    }

    /// An add of a linear-combination group: adds its direct operands to a
    /// partial sum; at the root, merges the partials, divides by `P` once
    /// and stores the result.
    fn accumulate_add(&self, id: ValueId, g: usize, direct: &[ValueId], root: bool) {
        let ev = self.ev;
        let mut acc = if root {
            // INVARIANT: every member and add of the group is an ancestor
            // of the root by true edges, so no runner holds a partial now.
            let partials =
                std::mem::take(&mut *self.linear.groups[g].partials.lock().expect(SLOT_LOCK));
            let mut partials = partials.into_iter();
            let mut acc = partials.next().expect("a member accumulated");
            partials.for_each(|other| ev.merge_accumulators(&mut acc, other));
            acc
        } else if direct.is_empty() {
            return;
        } else {
            self.partial(g)
        };
        for &d in direct {
            ev.accumulate_ciphertext(&mut acc, &self.cipher(d));
        }
        if root {
            self.store(id, ev.finish_accumulator(acc));
        } else {
            self.put_partial(g, acc);
        }
    }

    /// Executes the op behind one DAG node — the only place cipher ops are
    /// dispatched to the [`Evaluator`] — and returns its wall latency.
    /// Plain ops and inputs were evaluated in the prologue and retire for
    /// free (`None`); a rescale fused into its mul finds its value already
    /// stored and retires with zero latency. In a linear-combination group
    /// a member's latency includes its products' encodes and multiplies,
    /// the products retire with zero latency, and the group's adds add
    /// their direct operands; the root's includes the one division by `P`.
    fn run_node(&self, id: ValueId) -> Result<Option<Duration>, Vec<ScheduleError>> {
        let program = self.program;
        if program.is_plain(id) || matches!(program.op(id), Op::Input { .. }) {
            return Ok(None);
        }
        // INVARIANT: only a node's own execution or its fusing mul (its one
        // predecessor) stores its value, so a value in place means the work
        // is done.
        if self.cipher_slots[id.index()]
            .read()
            .expect(SLOT_LOCK)
            .is_some()
        {
            self.recycle_operands(id);
            return Ok(Some(Duration::ZERO));
        }
        let t0 = Instant::now();
        match (&self.linear.roles[id.index()], program.op(id)) {
            (Some(LinearRole::Member(terms)), &Op::Rotate(a, k)) => {
                (self.accumulate_member(id, a, k, terms))
                    .map_err(|_| vec![ScheduleError::MissingKey { op: id, steps: k }])?;
            }
            (Some(LinearRole::Product), _) => return Ok(Some(Duration::ZERO)),
            (
                Some(LinearRole::Add {
                    group,
                    direct,
                    root,
                }),
                _,
            ) => {
                self.accumulate_add(id, *group, direct, *root);
            }
            _ => return self.run_op(id, t0).map(Some),
        }
        let elapsed = t0.elapsed();
        self.recycle_operands(id);
        Ok(Some(elapsed))
    }

    /// Executes an op outside any linear-combination group and stores its
    /// result; the latency counts from `t0`.
    fn run_op(&self, id: ValueId, t0: Instant) -> Result<Duration, Vec<ScheduleError>> {
        let (program, ev) = (self.program, self.ev);
        let missing_key = |steps| vec![ScheduleError::MissingKey { op: id, steps }];
        let (store_id, ct) = match program.op(id) {
            Op::Mul(a, b) if program.is_cipher(*a) && program.is_cipher(*b) => {
                let (ca, cb) = (self.cipher(*a), self.cipher(*b));
                match self.rescale_of[id.index()] {
                    // Fused mul·relin·rescale: the result lands under the
                    // rescale's id; the mul's full-level product never
                    // exists.
                    Some(r) => (r, ev.mul_rescale(&ca, &cb)),
                    None => (id, ev.mul(&ca, &cb)),
                }
            }
            Op::Mul(a, b) => {
                let (c, p) = if program.is_cipher(*a) {
                    (*a, *b)
                } else {
                    (*b, *a)
                };
                let cc = self.cipher(c);
                let out = match self.scalar_of(p) {
                    Some(v) => ev.mul_scalar(&cc, v, self.waterline),
                    None => ev.mul_plain_values(&cc, get(self.plain_vals, p), self.waterline),
                };
                (id, out)
            }
            Op::Add(a, b) | Op::Sub(a, b) => {
                let sub = matches!(program.op(id), Op::Sub(..));
                let out = match (program.is_cipher(*a), program.is_cipher(*b)) {
                    (true, true) => {
                        let (ca, cb) = (self.cipher(*a), self.cipher(*b));
                        if sub {
                            ev.sub(&ca, &cb)
                        } else {
                            ev.add(&ca, &cb)
                        }
                    }
                    (true, false) => self.add_plain(&self.cipher(*a), *b, sub),
                    (false, true) => {
                        // plain ± cipher: a + b, or a − b = (−b) + a. The
                        // negated temporary goes straight back to the pool.
                        let cb = self.cipher(*b);
                        if sub {
                            let neg = ev.neg(&cb);
                            let out = self.add_plain(&neg, *a, false);
                            ev.recycle_ct(neg);
                            out
                        } else {
                            self.add_plain(&cb, *a, false)
                        }
                    }
                    (false, false) => unreachable!("a cipher op has a cipher operand"),
                };
                (id, out)
            }
            Op::Neg(a) => (id, ev.neg(&self.cipher(*a))),
            Op::Rotate(a, k) => {
                let ca = self.cipher(*a);
                // An identity rotation of a grouped source is no member.
                let out = match rotation_class(*k, program.slots()) {
                    Some(_) => self.with_group_digits(*a, id, &ca, |digits| {
                        ev.try_rotate_decomposed(&ca, digits, *k)
                    }),
                    None => ev.try_rotate(&ca, *k),
                };
                (id, out.map_err(|_| missing_key(*k))?)
            }
            Op::Rescale(a) => (id, ev.rescale(&self.cipher(*a))),
            Op::ModSwitch(a) => (id, ev.mod_switch(&self.cipher(*a))),
            Op::Upscale(a, delta) => (id, ev.upscale(&self.cipher(*a), 2f64.powf(delta.to_f64()))),
            Op::Const { .. } | Op::Input { .. } => unreachable!("retired above"),
        };
        let elapsed = t0.elapsed();
        self.store(store_id, ct);
        self.recycle_operands(id);
        Ok(elapsed)
    }
}

/// Which live plain values hold one value in every slot, read off the IR
/// once per execution: a scalar constant, and a plain op whose operands are
/// all such values (a slot-wise op of splats is a splat). Their ops take
/// the scalar path ([`Evaluator::mul_scalar`], [`Evaluator::add_scalar`],
/// scalar linear-combination factors), byte for byte the encoder's.
fn scalar_values(program: &fhe_ir::Program, live: impl Fn(ValueId) -> bool) -> Vec<bool> {
    let mut scalar = vec![false; program.num_ops()];
    for id in program.ids().filter(|&id| live(id) && program.is_plain(id)) {
        scalar[id.index()] = match program.op(id) {
            Op::Const { value } => matches!(value, ConstValue::Scalar(_)),
            op => op.operands().all(|a| scalar[a.index()]),
        };
    }
    scalar
}

/// A member's plain factor for one group, owned while the member runs.
enum Factor {
    Encoded(Plaintext),
    Scalar(ScalarPlaintext),
}

impl Factor {
    fn as_plain(&self) -> PlainFactor<'_> {
        match self {
            Factor::Encoded(p) => PlainFactor::Encoded(p),
            Factor::Scalar(p) => PlainFactor::Scalar(p),
        }
    }
}

fn get(vals: &[Option<Vec<f64>>], id: ValueId) -> &Vec<f64> {
    // INVARIANT: plain values are computed in the prologue in schedule
    // order, before any op reads them.
    vals[id.index()].as_ref().expect("plain operand evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_baselines::EvaCompiler;
    use fhe_ir::{Builder, CompileParams};
    use reserve_core::{ReserveCompiler, ScaleCompiler};

    fn inputs(pairs: &[(&str, Vec<f64>)]) -> HashMap<String, Vec<f64>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// The largest slot error of `report` against the one oracle,
    /// [`plain::execute`] of the same schedule.
    fn error(s: &ScheduledProgram, ins: &HashMap<String, Vec<f64>>, report: &ExecReport) -> f64 {
        plain::max_abs_diff(&report.outputs, &plain::execute(&s.program, ins))
    }

    fn opts() -> ExecOptions {
        ExecOptions {
            poly_degree: 256,
            seed: 3,
            threads: 1,
            ..ExecOptions::default()
        }
    }

    #[test]
    fn encrypted_fig2a_matches_reference() {
        let slots = 128;
        let b = Builder::new("fig2a", slots);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        let compiled = ReserveCompiler::full()
            .compile(&p, &CompileParams::new(30))
            .unwrap();
        let xs: Vec<f64> = (0..slots).map(|i| ((i % 5) as f64 - 2.0) * 0.3).collect();
        let ys: Vec<f64> = (0..slots).map(|i| ((i % 7) as f64) * 0.1).collect();
        let ins = inputs(&[("x", xs), ("y", ys)]);
        let report = execute(&compiled.scheduled, &ins, &opts()).unwrap();
        let err = error(&compiled.scheduled, &ins, &report);
        assert!(err < 1e-2, "encrypted error {err}");
        assert!(report.ops_executed > 5);
        // The plain walk times every op on one thread, so the per-class
        // times are a nonzero part of the homomorphic phase.
        let timed: Duration = report.per_class.iter().map(|&(_, d, _)| d).sum();
        assert!(timed > Duration::ZERO);
        assert!(timed <= report.op_time);
        // Memory accounting is live: a nonzero peak, and recycled buffers
        // producing pool hits.
        assert!(report.mem.peak_bytes > 0);
        assert!(report.mem.pool_hit_rate() > 0.0);
    }

    #[test]
    fn encrypted_rotation_and_plain_mul() {
        let slots = 128;
        let b = Builder::new("rotmul", slots);
        let x = b.input("x");
        let k = b.constant(vec![0.5; 128]);
        let e = x.clone().rotate(1) * k + x;
        let p = b.finish(vec![e]);
        // Slot values exceed 1, so the outputs need headroom: reserve two
        // bits of the output modulus for the value magnitude (Table 1's
        // m·x_max < Q constraint).
        let mut params = CompileParams::new(30);
        params.output_reserve_bits = 2;
        let compiled = ReserveCompiler::full().compile(&p, &params).unwrap();
        let xs: Vec<f64> = (0..slots).map(|i| i as f64 * 0.01).collect();
        let report = execute(&compiled.scheduled, &inputs(&[("x", xs.clone())]), &opts()).unwrap();
        let expect0 = xs[1] * 0.5 + xs[0];
        assert!((report.outputs[0][0] - expect0).abs() < 1e-2);
        assert_eq!(report.outputs[0].len(), slots);
    }

    #[test]
    fn plain_output_decodes_without_ciphertext() {
        // Fuzzer reproducer (tests/corpus/fold_plain_output.fhe): cleanup
        // folds `x - x` to a public zero, so the program's only output is
        // a plain value with no ciphertext to decrypt.
        let slots = 128;
        let b = Builder::new("fold", slots);
        let x = b.input("x");
        let z = x.clone() - x;
        let p = b.finish(vec![z]);
        let compiled = ReserveCompiler::full()
            .compile(&p, &CompileParams::new(30))
            .unwrap();
        assert!(
            compiled
                .scheduled
                .program
                .outputs()
                .iter()
                .any(|&o| { compiled.scheduled.program.is_plain(o) }),
            "expected cleanup to fold the output to a plain value"
        );
        let xs: Vec<f64> = (0..slots).map(|i| i as f64 * 0.01).collect();
        let report = execute(&compiled.scheduled, &inputs(&[("x", xs)]), &opts()).unwrap();
        assert!(report.outputs[0].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn key_policies_agree_and_eager_set_reports_missing_keys() {
        let slots = 128;
        let b = Builder::new("keypol", slots);
        let x = b.input("x");
        let e = x.clone().rotate(1) + x.clone().rotate(3) + x;
        let p = b.finish(vec![e]);
        let mut params = CompileParams::new(30);
        params.output_reserve_bits = 2;
        let compiled = ReserveCompiler::full().compile(&p, &params).unwrap();
        let xs: Vec<f64> = (0..slots).map(|i| i as f64 * 0.001).collect();
        let ins = inputs(&[("x", xs)]);

        let lazy = execute(&compiled.scheduled, &ins, &opts()).unwrap();
        let err = error(&compiled.scheduled, &ins, &lazy);
        assert!(err < 1e-2, "err {err}");
        assert!(
            lazy.mem.key_misses >= 2,
            "two distinct steps generate lazily"
        );
        assert!(lazy.mem.peak_bytes > 0);

        // A one-byte budget forces an eviction after every use; per-element
        // key RNG streams make regenerated keys bit-identical, so outputs
        // are independent of the budget.
        let budgeted = execute(
            &compiled.scheduled,
            &ins,
            &ExecOptions {
                keys: KeyPolicy::Lazy {
                    budget_bytes: Some(1),
                },
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(
            lazy.outputs, budgeted.outputs,
            "budget must not change results"
        );
        assert!(budgeted.mem.key_evictions > 0);
        assert!(budgeted.mem.key_bytes_peak <= lazy.mem.key_bytes_peak);

        let eager = execute(
            &compiled.scheduled,
            &ins,
            &ExecOptions {
                keys: KeyPolicy::EagerProgram,
                ..opts()
            },
        )
        .unwrap();
        assert!(error(&compiled.scheduled, &ins, &eager) < 1e-2);
        assert_eq!(eager.mem.key_evictions, 0);

        // A provisioned set without the schedule's step 3 is a structured
        // error, not a panic — even on the hoisted-group path.
        let err = execute(
            &compiled.scheduled,
            &ins,
            &ExecOptions {
                keys: KeyPolicy::EagerSet(vec![1]),
                ..opts()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err[0], ScheduleError::MissingKey { steps: 3, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn eva_schedules_also_execute() {
        let slots = 128;
        let b = Builder::new("evaexec", slots);
        let x = b.input("x");
        let y = b.input("y");
        let e = (x.clone() * y.clone() + x) * y;
        let p = b.finish(vec![e]);
        let eva = EvaCompiler.compile(&p, &CompileParams::new(30)).unwrap();
        let xs = vec![0.5; slots];
        let ys = vec![0.25; slots];
        let ins = inputs(&[("x", xs), ("y", ys)]);
        let report = execute(&eva.scheduled, &ins, &opts()).unwrap();
        let err = error(&eva.scheduled, &ins, &report);
        assert!(err < 1e-2, "err {err}");
    }

    fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
        outputs
            .iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    fn fig2a() -> ScheduledProgram {
        let slots = 128;
        let b = Builder::new("fig2a", slots);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        ReserveCompiler::full()
            .compile(&p, &CompileParams::new(30))
            .unwrap()
            .scheduled
    }

    #[test]
    fn every_width_is_bit_identical_to_the_plain_walk() {
        let s = fig2a();
        let xs: Vec<f64> = (0..128).map(|i| ((i % 5) as f64 - 2.0) * 0.3).collect();
        let ys: Vec<f64> = (0..128).map(|i| ((i % 7) as f64) * 0.1).collect();
        let binds = inputs(&[("x", xs), ("y", ys)]);
        let serial = execute(&s, &binds, &opts()).unwrap();
        for workers in [1usize, 2, 3, 8] {
            let par = execute_parallel(
                &s,
                &binds,
                &ParOptions {
                    exec: opts(),
                    workers,
                    fusion: true,
                },
            )
            .unwrap();
            assert_eq!(
                bits(&par.outputs),
                bits(&serial.outputs),
                "workers = {workers}"
            );
            assert_eq!(par.ops_executed, serial.ops_executed);
            assert!(par.fused > 0, "fig2a has fusible mul→rescale chains");
            assert!(par.safety_obligations > 0);
        }
    }

    #[test]
    fn fusion_toggle_does_not_change_bytes() {
        let s = fig2a();
        let binds = inputs(&[("x", vec![0.5; 128]), ("y", vec![0.25; 128])]);
        let mk = |fusion| ParOptions {
            exec: opts(),
            workers: 2,
            fusion,
        };
        let on = execute_parallel(&s, &binds, &mk(true)).unwrap();
        let off = execute_parallel(&s, &binds, &mk(false)).unwrap();
        assert!(on.fused > 0);
        assert_eq!(off.fused, 0);
        assert_eq!(bits(&on.outputs), bits(&off.outputs));
    }

    /// `x` rotated by each of `steps`, summed with `x`: one hoist group.
    fn rotation_group(steps: &[i64]) -> (ScheduledProgram, HashMap<String, Vec<f64>>) {
        let slots = 128;
        let b = Builder::new("rotgrp", slots);
        let x = b.input("x");
        let e = steps
            .iter()
            .fold(x.clone(), |acc, &k| acc + x.clone().rotate(k));
        let p = b.finish(vec![e]);
        let mut params = CompileParams::new(30);
        params.output_reserve_bits = 2;
        let s = ReserveCompiler::full()
            .compile(&p, &params)
            .unwrap()
            .scheduled;
        let xs: Vec<f64> = (0..slots).map(|i| i as f64 * 0.001).collect();
        (s, inputs(&[("x", xs)]))
    }

    #[test]
    fn hoisted_group_members_run_as_their_own_nodes() {
        let (s, binds) = rotation_group(&[1, 2, 3]);
        let members: Vec<ValueId> = (s.program.ids())
            .filter(|&id| matches!(s.program.op(id), Op::Rotate(..)))
            .collect();
        assert_eq!(members.len(), 3);
        let keys = SessionKeys::for_schedule(&s, &opts()).unwrap();
        let pool = Arc::new(PolyPool::new(opts().poly_degree));
        let run = |workers, rotation_hoisting| {
            let options = ParOptions {
                exec: ExecOptions {
                    rotation_hoisting,
                    ..opts()
                },
                workers,
                fusion: true,
            };
            let pool = Some(pool.clone());
            execute_parallel_with_keys(&s, &binds, &options, &keys, pool, 7).unwrap()
        };
        let serial = run(1, true);
        for workers in [1usize, 2, 8] {
            let par = run(workers, true);
            assert_eq!(bits(&par.outputs), bits(&serial.outputs), "x{workers}");
            assert_eq!(par.hoisted_groups, 1);
            let rotates = par.per_class.iter().find(|c| c.0 == OpClass::Rotate);
            assert_eq!(rotates.expect("rotations ran").2, members.len());
            // Everything went back, so the digits were released exactly
            // once (a second release would saturate below a later run's
            // checkouts and show there).
            assert_eq!(pool.stats().live_bytes, 0, "x{workers}");
        }
        let lone = run(2, false);
        assert_eq!(lone.hoisted_groups, 0);
        assert_eq!(bits(&lone.outputs), bits(&serial.outputs), "hoisting off");
    }

    #[test]
    fn identity_rotations_of_a_grouped_source_are_no_members() {
        // Cleanup drops identity rotations, so these are written by hand:
        // one runs before the group's leader, one after its last member.
        let mut p = fhe_ir::Program::new("turns", 128);
        let x = p.push(Op::Input { name: "x".into() });
        let before = p.push(Op::Rotate(x, -128));
        let r1 = p.push(Op::Rotate(x, 1));
        let r2 = p.push(Op::Rotate(x, 2));
        let sum = p.push(Op::Add(r1, r2));
        let after = p.push(Op::Rotate(x, 128));
        p.set_outputs(vec![sum, before, after]);
        let s = ScheduledProgram {
            params: fhe_ir::CompileParams::new(30),
            inputs: vec![fhe_ir::InputSpec {
                scale_bits: 30.into(),
                level: 1,
            }],
            program: p,
        };
        let xs: Vec<f64> = (0..128).map(|i| i as f64 * 0.001).collect();
        let ins = inputs(&[("x", xs)]);
        let report = execute(&s, &ins, &opts()).unwrap();
        assert_eq!(report.hoisted_groups, 1);
        let err = error(&s, &ins, &report);
        assert!(err < 1e-2, "{err}");
    }

    #[test]
    fn missing_keys_surface_as_schedule_errors_and_leak_nothing() {
        // The group's second member lacks its key: a structured error, not
        // a panic, and the first member's output, the group's digits and
        // the encrypted input all go back to a shared pool.
        let (s, binds) = rotation_group(&[1, 3]);
        let exec = ExecOptions {
            keys: KeyPolicy::EagerSet(vec![1]),
            ..opts()
        };
        let keys = SessionKeys::for_schedule(&s, &exec).unwrap();
        let pool = Arc::new(PolyPool::new(exec.poly_degree));
        for (workers, rotation_hoisting) in [(1, true), (4, true), (4, false)] {
            let options = ParOptions {
                exec: ExecOptions {
                    rotation_hoisting,
                    ..exec.clone()
                },
                workers,
                fusion: true,
            };
            let pool_handle = Some(pool.clone());
            let err = execute_parallel_with_keys(&s, &binds, &options, &keys, pool_handle, 7)
                .unwrap_err();
            assert!(
                matches!(err[0], ScheduleError::MissingKey { steps: 3, .. }),
                "got {err:?}"
            );
            assert_eq!(
                pool.stats().live_bytes,
                0,
                "x{workers}, hoisting {rotation_hoisting}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "operand scales must match")]
    fn a_runner_panic_stops_the_walk_instead_of_stranding_its_siblings() {
        // Legal to the validator, but the backend realizes the half-bit
        // upscale as a multiply by 1, so the add's operand scales differ
        // and the evaluator asserts — while the second runner is parked on
        // the condvar with nothing ready.
        let mut p = fhe_ir::Program::new("drift", 128);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let up = p.push(Op::Upscale(x, fhe_ir::Frac::ratio(1, 2)));
        let sum = p.push(Op::Add(up, y));
        p.set_outputs(vec![sum]);
        let spec = |scale_bits| fhe_ir::InputSpec {
            scale_bits,
            level: 1,
        };
        let s = ScheduledProgram {
            params: fhe_ir::CompileParams::new(30),
            inputs: vec![spec(30.into()), spec(fhe_ir::Frac::ratio(61, 2))],
            program: p,
        };
        let binds = inputs(&[("x", vec![0.5; 128]), ("y", vec![0.25; 128])]);
        let options = ParOptions {
            exec: opts(),
            workers: 2,
            fusion: true,
        };
        let _ = execute_parallel(&s, &binds, &options);
    }

    #[test]
    fn session_keys_reuse_is_deterministic_across_widths() {
        let s = fig2a();
        let xs: Vec<f64> = (0..128).map(|i| ((i % 5) as f64 - 2.0) * 0.3).collect();
        let ys: Vec<f64> = (0..128).map(|i| ((i % 7) as f64) * 0.1).collect();
        let binds = inputs(&[("x", xs), ("y", ys)]);
        let opts = opts();
        let keys = SessionKeys::for_schedule(&s, &opts).unwrap();
        let pool = Arc::new(PolyPool::new(opts.poly_degree));

        // Same enc_seed → byte-identical, across repeats and widths.
        let a = execute_with_keys(&s, &binds, &opts, &keys, None, 7).unwrap();
        let b = execute_with_keys(&s, &binds, &opts, &keys, Some(pool.clone()), 7).unwrap();
        assert_eq!(bits(&a.outputs), bits(&b.outputs), "shared pool is inert");
        let par_opts = ParOptions {
            exec: opts.clone(),
            workers: 3,
            fusion: true,
        };
        let c = execute_parallel_with_keys(&s, &binds, &par_opts, &keys, Some(pool.clone()), 7)
            .unwrap();
        assert_eq!(
            bits(&a.outputs),
            bits(&c.outputs),
            "three fused runners match the plain walk"
        );
        assert!(error(&s, &binds, &a) < 1e-2);

        // A different enc_seed changes ciphertext noise but stays correct.
        let d = execute_with_keys(&s, &binds, &opts, &keys, None, 8).unwrap();
        assert_ne!(bits(&a.outputs), bits(&d.outputs));
        assert!(error(&s, &binds, &d) < 1e-2);

        // Counter deltas over a shared pool: the second request's hits grow
        // because it recycles buffers the first returned.
        let stats = pool.stats();
        assert_eq!(stats.hits, b.mem.pool_hits + c.mem.pool_hits);
        assert!(c.mem.pool_hits > 0, "warm pool serves from the free list");
    }

    #[test]
    fn walk_telemetry_covers_every_cipher_op() {
        let s = fig2a();
        let binds = inputs(&[("x", vec![0.5; 128]), ("y", vec![0.25; 128])]);
        let par = execute_parallel(
            &s,
            &binds,
            &ParOptions {
                exec: opts(),
                workers: 2,
                fusion: true,
            },
        )
        .unwrap();
        let class_count: usize = par.per_class.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(
            par.ops_executed,
            2 + class_count,
            "two inputs, then the walk"
        );
        assert!(par.walk_time <= par.op_time);
        assert!(par.op_time <= par.total_time);
        assert!(error(&s, &binds, &par) < 1e-2);
        assert!(par.mem.peak_bytes > 0);
    }
}
