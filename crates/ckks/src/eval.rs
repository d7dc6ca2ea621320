//! Homomorphic evaluation: the RNS-CKKS operations of Table 2.

use std::sync::Arc;

use crate::cipher::Ciphertext;
use crate::context::{key_switch_digits, CkksContext};
use crate::encoding::{Encoder, Plaintext, ScalarPlaintext};
use crate::keys::{rotation_to_galois, GaloisKeys, KeyCache, KswKey, RelinKey};
use crate::poly::{RnsPoly, RnsScalar};
use crate::pool::{PolyPool, PoolStats};

/// Relative scale mismatch tolerated by additions. Two drift sources:
/// chain primes are only approximately `2^modulus_bits` (parts in
/// `2^40`), and fractional-bit upscale factors (e.g. `2^(35/2)` from
/// reserve's scale algebra) are realized by the nearest-integer
/// multiplier, off by up to `0.5/factor` (~1e-6 at `2^17.5`). Genuine
/// schedule bugs mismatch by whole rescale factors (`2^35` or more), so
/// 1e-4 keeps full discrimination.
const SCALE_TOLERANCE: f64 = 1e-4;

/// A rotation or conjugation needed a Galois key that reaches its
/// ciphertext's level and is neither in the static key set nor derivable
/// from a [`KeyCache`] — absent, or generated for shallower ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingKeyError {
    /// The Galois element of the missing key.
    pub galois: usize,
    /// The rotation step that required it (`None` for conjugation).
    pub steps: Option<i64>,
    /// The level the key had to reach.
    pub level: usize,
}

impl std::fmt::Display for MissingKeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (g, l) = (self.galois, self.level);
        match self.steps {
            Some(s) => write!(
                f,
                "missing Galois key for rotation {s} at level {l} (element {g})"
            ),
            None => write!(
                f,
                "missing conjugation Galois key at level {l} (element {g})"
            ),
        }
    }
}

impl std::error::Error for MissingKeyError {}

/// Evaluator: executes homomorphic ops given the needed evaluation keys.
///
/// Hot-path temporaries and results draw their limb buffers from an
/// internal [`PolyPool`]; callers that retire ciphertexts can return the
/// buffers via [`RnsPoly::recycle`] against [`Evaluator::pool`], turning
/// later allocations into pool hits. Galois keys resolve from the static
/// key set first, then fall back to an optional lazy [`KeyCache`].
///
/// Keys, cache and pool are held behind [`Arc`] handles so a serving layer
/// can share one set of session keys (and one global pool) across many
/// short-lived evaluators without cloning key material; the plain
/// constructors wrap their arguments and behave exactly as before.
#[derive(Debug)]
pub struct Evaluator<'c> {
    ctx: &'c CkksContext,
    encoder: Encoder<'c>,
    relin: Option<Arc<RelinKey>>,
    galois: Arc<GaloisKeys>,
    cache: Option<Arc<KeyCache>>,
    pool: Arc<PolyPool>,
}

impl<'c> Evaluator<'c> {
    /// Creates an evaluator. `relin` is needed for cipher×cipher
    /// multiplication; `galois` for rotations.
    pub fn new(ctx: &'c CkksContext, relin: Option<RelinKey>, galois: GaloisKeys) -> Self {
        Self::new_shared(ctx, relin.map(Arc::new), Arc::new(galois))
    }

    /// Creates an evaluator from shared key handles, so one relin/Galois key
    /// set can back many evaluators (e.g. one per request in a server).
    pub fn new_shared(
        ctx: &'c CkksContext,
        relin: Option<Arc<RelinKey>>,
        galois: Arc<GaloisKeys>,
    ) -> Self {
        Evaluator {
            ctx,
            encoder: Encoder::new(ctx),
            relin,
            galois,
            cache: None,
            pool: Arc::new(PolyPool::new(ctx.degree())),
        }
    }

    /// Attaches a shared lazy Galois-key cache, consulted when a rotation's
    /// key is absent from the static set; the cache and its stats outlive
    /// this evaluator.
    pub fn with_key_cache_handle(mut self, cache: Arc<KeyCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Replaces the evaluator's limb-buffer pool with a shared one, so many
    /// evaluators (sessions) recycle through one global free list.
    ///
    /// # Panics
    ///
    /// Panics if the pool's buffer degree differs from the context's.
    pub fn with_pool(mut self, pool: Arc<PolyPool>) -> Self {
        assert_eq!(
            pool.degree(),
            self.ctx.degree(),
            "pool degree must match the context degree"
        );
        self.pool = pool;
        self
    }

    /// The attached key cache, if any.
    pub fn key_cache(&self) -> Option<&KeyCache> {
        self.cache.as_deref()
    }

    /// The evaluator's limb-buffer pool (for recycling retired ciphertexts
    /// and reading allocation stats).
    pub fn pool(&self) -> &PolyPool {
        &self.pool
    }

    /// A snapshot of the pool's counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Returns a retired ciphertext's limb buffers to the pool, turning
    /// later allocations at its level into pool hits. Safe on any
    /// ciphertext (pooled or not); buffers of a foreign degree are dropped.
    pub fn recycle_ct(&self, ct: Ciphertext) {
        ct.c0.recycle(&self.pool);
        ct.c1.recycle(&self.pool);
    }

    /// A pooled deep copy of a ciphertext.
    fn clone_ct(&self, a: &Ciphertext) -> Ciphertext {
        Ciphertext {
            c0: a.c0.clone_in(&self.pool),
            c1: a.c1.clone_in(&self.pool),
            level: a.level,
            scale: a.scale,
        }
    }

    /// Resolves a key for Galois element `g` that reaches `level` (static
    /// set first, then the cache) and runs `f` with it.
    fn with_galois_key<R>(
        &self,
        g: usize,
        steps: Option<i64>,
        level: usize,
        f: impl FnOnce(&KswKey) -> R,
    ) -> Result<R, MissingKeyError> {
        if let Some(key) = self.galois.get(g).filter(|k| k.level() >= level) {
            return Ok(f(key));
        }
        if let Some(cache) = &self.cache {
            return Ok(cache.with_key(self.ctx, g, level, f));
        }
        Err(MissingKeyError {
            galois: g,
            steps,
            level,
        })
    }

    /// The context.
    pub fn context(&self) -> &'c CkksContext {
        self.ctx
    }

    /// The encoder (shared tables).
    pub fn encoder(&self) -> &Encoder<'c> {
        &self.encoder
    }

    fn check_pair(&self, a: &Ciphertext, b: &Ciphertext) {
        assert_eq!(a.level, b.level, "operand levels must match");
    }

    fn check_scales(&self, a: f64, b: f64) {
        assert!(
            (a / b - 1.0).abs() < SCALE_TOLERANCE,
            "operand scales must match: {a} vs {b}"
        );
    }

    /// cipher + cipher (equal scale and level).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.check_pair(a, b);
        self.check_scales(a.scale, b.scale);
        let mut out = self.clone_ct(a);
        out.c0.add_assign(self.ctx, &b.c0);
        out.c1.add_assign(self.ctx, &b.c1);
        out
    }

    /// cipher − cipher (equal scale and level).
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.check_pair(a, b);
        self.check_scales(a.scale, b.scale);
        let mut out = self.clone_ct(a);
        out.c0.sub_assign(self.ctx, &b.c0);
        out.c1.sub_assign(self.ctx, &b.c1);
        out
    }

    /// −cipher.
    pub fn neg(&self, a: &Ciphertext) -> Ciphertext {
        let mut out = self.clone_ct(a);
        out.c0.neg_assign(self.ctx);
        out.c1.neg_assign(self.ctx);
        out
    }

    /// cipher + plain. The plaintext must be encoded at the ciphertext's
    /// scale and level.
    pub fn add_plain(&self, a: &Ciphertext, p: &Plaintext) -> Ciphertext {
        assert_eq!(a.level, p.level, "plaintext level must match");
        self.check_scales(a.scale, p.scale);
        let mut out = self.clone_ct(a);
        out.c0.add_assign(self.ctx, &p.poly);
        out
    }

    /// Convenience: encodes `values` to match `a` and adds.
    pub fn add_plain_values(&self, a: &Ciphertext, values: &[f64]) -> Ciphertext {
        let p = self.encoder.encode_in(&self.pool, values, a.scale, a.level);
        let out = self.add_plain(a, &p);
        p.poly.recycle(&self.pool);
        out
    }

    /// cipher + `[value; N/2]`: byte for byte
    /// [`Evaluator::add_plain_values`] of the splat, without the encoder
    /// ([`Encoder::encode_scalar`] at `a`'s scale and level).
    pub fn add_scalar(&self, a: &Ciphertext, value: f64) -> Ciphertext {
        let p = self.encoder.encode_scalar(value, a.scale, a.level);
        let mut out = self.clone_ct(a);
        out.c0.add_scalar_assign(self.ctx, &p.scalar);
        out
    }

    /// cipher × plain; the result scale is the product of scales.
    pub fn mul_plain(&self, a: &Ciphertext, p: &Plaintext) -> Ciphertext {
        assert_eq!(a.level, p.level, "plaintext level must match");
        let mut out = self.clone_ct(a);
        out.c0.mul_assign(self.ctx, &p.poly);
        out.c1.mul_assign(self.ctx, &p.poly);
        out.scale = a.scale * p.scale;
        out
    }

    /// Convenience: encodes `values` at `scale` and multiplies.
    pub fn mul_plain_values(&self, a: &Ciphertext, values: &[f64], scale: f64) -> Ciphertext {
        let p = self.encoder.encode_in(&self.pool, values, scale, a.level);
        let out = self.mul_plain(a, &p);
        p.poly.recycle(&self.pool);
        out
    }

    /// cipher × `[value; N/2]` encoded at `scale`: byte for byte
    /// [`Evaluator::mul_plain_values`] of the splat, without the encoder
    /// ([`Encoder::encode_scalar`]).
    pub fn mul_scalar(&self, a: &Ciphertext, value: f64, scale: f64) -> Ciphertext {
        let p = self.encoder.encode_scalar(value, scale, a.level);
        self.mul_scalar_plaintext(a, &p.scalar, a.scale * p.scale)
    }

    /// `a` times the integer `s` on both halves, at scale `scale`.
    fn mul_scalar_plaintext(&self, a: &Ciphertext, s: &RnsScalar, scale: f64) -> Ciphertext {
        let mut out = self.clone_ct(a);
        out.c0.mul_scalar_assign(self.ctx, s);
        out.c1.mul_scalar_assign(self.ctx, s);
        out.scale = scale;
        out
    }

    /// cipher × cipher with relinearization (equal levels; scales multiply).
    ///
    /// # Panics
    ///
    /// Panics if no relinearization key was provided, or the one provided
    /// does not reach the operands' level.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.check_pair(a, b);
        let relin = self
            .relin
            .as_ref()
            .expect("relinearization key required for mul");
        assert!(
            relin.0.level >= a.level,
            "the relinearization key reaches level {}, the operands are at {}",
            relin.0.level,
            a.level
        );
        let ctx = self.ctx;
        let pool = &self.pool;
        let mut d0 = a.c0.clone_in(pool);
        d0.mul_assign(ctx, &b.c0);
        let mut d1 = a.c0.clone_in(pool);
        d1.mul_assign(ctx, &b.c1);
        // d1 += a.c1 ∘ b.c0, fused — no temporary product polynomial.
        a.c1.mul_acc(ctx, &b.c0, &mut d1);
        let mut d2 = a.c1.clone_in(pool);
        d2.mul_assign(ctx, &b.c1);
        let digits = self.decompose(&d2);
        d2.recycle(pool);
        let (k0, k1) = self.inner_product(&digits, &relin.0, None);
        self.recycle_decomposition(digits);
        d0.add_assign(ctx, &k0);
        k0.recycle(pool);
        d1.add_assign(ctx, &k1);
        k1.recycle(pool);
        Ciphertext {
            c0: d0,
            c1: d1,
            level: a.level,
            scale: a.scale * b.scale,
        }
    }

    /// Fused cipher × cipher + relinearize + rescale: one pass over the
    /// product limbs with the rescale applied to the relinearized pair in
    /// place. Bit-identical to `rescale(&mul(a, b))` — the fusion skips
    /// the full-level intermediate that `rescale`'s ciphertext clone
    /// would materialize (two level-`l` polynomials), not any arithmetic.
    /// The executor does not call it (it runs the two ops as two kernel
    /// calls); it stays only because the benchmark harness times it.
    ///
    /// # Panics
    ///
    /// Panics if no relinearization key was provided or `a` is at level 1.
    pub fn mul_rescale(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert!(a.level >= 2, "cannot rescale at level 1");
        let mut out = self.mul(a, b);
        let dropped = self.ctx.moduli()[out.level - 1].value() as f64;
        out.c0.rescale_last_in(self.ctx, &self.pool);
        out.c1.rescale_last_in(self.ctx, &self.pool);
        out.level -= 1;
        out.scale /= dropped;
        out
    }

    /// Rotates the slot vector by `steps` (positive = towards slot 0).
    ///
    /// # Panics
    ///
    /// Panics if the needed Galois key is missing; see
    /// [`Evaluator::try_rotate`] for the fallible form.
    pub fn rotate(&self, a: &Ciphertext, steps: i64) -> Ciphertext {
        self.try_rotate(a, steps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Rotates the slot vector by `steps`, reporting a missing Galois key
    /// as a [`MissingKeyError`] instead of panicking. A lone rotation is a
    /// hoisted group of one: the same decomposition, the same per-step
    /// arithmetic, the same bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MissingKeyError`] when no key reaching `a`'s level is in
    /// the static set (it lacks the element, or holds a shallower key) and
    /// none is derivable from an attached [`KeyCache`].
    pub fn try_rotate(&self, a: &Ciphertext, steps: i64) -> Result<Ciphertext, MissingKeyError> {
        let g = rotation_to_galois(self.ctx, steps);
        if g == 1 {
            return Ok(self.clone_ct(a));
        }
        self.galois_lone(a, g, Some(steps))
    }

    /// Decomposes `a`, applies one Galois element, and returns the digits
    /// to the pool — on success and on a missing key alike.
    fn galois_lone(
        &self,
        a: &Ciphertext,
        g: usize,
        steps: Option<i64>,
    ) -> Result<Ciphertext, MissingKeyError> {
        let digits = self.decompose(&a.c1);
        let out = self.apply_galois(a, &digits, g, steps);
        self.recycle_decomposition(digits);
        out
    }

    /// The Galois automorphism `σ_g` of a ciphertext whose `c1` digits are
    /// `digits`: `(σ_g(c0) + k0, k1)` with `(k0, k1)` the key switch of
    /// `σ_g(c1)`. Both automorphisms are index-table gathers — `c0`'s into
    /// the result, `c1`'s fused into the inner product's reads.
    fn apply_galois(
        &self,
        a: &Ciphertext,
        digits: &Decomposition,
        g: usize,
        steps: Option<i64>,
    ) -> Result<Ciphertext, MissingKeyError> {
        assert_eq!(digits.level(), a.level, "digits of this ciphertext");
        let (ctx, pool) = (self.ctx, &*self.pool);
        self.with_galois_key(g, steps, a.level, |key| {
            let perm = ctx.galois_permutation(g);
            let (k0, c1) = self.inner_product(digits, key, Some(&perm));
            let mut c0 = a.c0.automorphism_in(Some(pool), ctx, g);
            c0.add_assign(ctx, &k0);
            k0.recycle(pool);
            Ciphertext {
                c0,
                c1,
                level: a.level,
                scale: a.scale,
            }
        })
    }

    /// `rescale`: divides the scale by the dropped prime (`≈ R`), level −1.
    ///
    /// # Panics
    ///
    /// Panics at level 1.
    pub fn rescale(&self, a: &Ciphertext) -> Ciphertext {
        assert!(a.level >= 2, "cannot rescale at level 1");
        let dropped = self.ctx.moduli()[a.level - 1].value() as f64;
        let mut out = self.clone_ct(a);
        out.c0.rescale_last_in(self.ctx, &self.pool);
        out.c1.rescale_last_in(self.ctx, &self.pool);
        out.level -= 1;
        out.scale = a.scale / dropped;
        out
    }

    /// `modswitch`: drops one modulus limb without changing the scale.
    ///
    /// # Panics
    ///
    /// Panics at level 1.
    pub fn mod_switch(&self, a: &Ciphertext) -> Ciphertext {
        assert!(a.level >= 2, "cannot modswitch at level 1");
        let mut out = self.clone_ct(a);
        out.c0.drop_to_level_in(a.level - 1, &self.pool);
        out.c1.drop_to_level_in(a.level - 1, &self.pool);
        out.level -= 1;
        out
    }

    /// `upscale`: raises the scale by `factor` without changing the level
    /// (Table 2).
    ///
    /// Lowered as an exact integer scalar multiplication: both polynomials
    /// and the scale are multiplied by `m = round(factor)`, so the
    /// encrypted *values* are preserved exactly and only the claimed
    /// target scale drifts, by a relative `≤ 1/(2·factor)`. Encoding an
    /// all-ones plaintext at `factor` instead (the naive lowering) rounds
    /// the single nonzero coefficient to an integer, which corrupts the
    /// values themselves by up to that same ratio — a 29% error for the
    /// `factor = √2` upscales fractional-scale schedules emit. Any
    /// magnitude is exact: `m` is reduced into each limb like an encoded
    /// coefficient ([`RnsScalar::from_real`]).
    pub fn upscale(&self, a: &Ciphertext, factor: f64) -> Ciphertext {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "upscale factor must be >= 1"
        );
        let m = factor.round().max(1.0);
        if m == 1.0 {
            return self.clone_ct(a);
        }
        let s = RnsScalar::from_real(self.ctx, a.level, false, m);
        self.mul_scalar_plaintext(a, &s, a.scale * m)
    }

    /// ModUp: decomposes `d` (NTT, level `l`) into its `⌈l/α⌉` digits over
    /// the extended basis `Q_l·P`, in NTT form — the front half of every key
    /// switch, and the only place one is computed. Digit `β` is the lift of
    /// `d mod Q_β` (see the context's digit conversions): `l` inverse NTTs
    /// bring `d` to coefficients, each residue is scaled by its `q̂_i⁻¹`, and
    /// each digit carries its residues into the other moduli of `Q_l·P` (a
    /// sum of at most `α` Shoup products) and transforms those forward —
    /// `⌈l/α⌉·(l+α) − l` NTTs in all, because a digit's own limbs *are*
    /// `d`'s and are copied as they stand. At `α = 1` digit `j` is limb `j`
    /// reduced into every other modulus, `l²` NTTs.
    fn decompose(&self, d: &RnsPoly) -> Decomposition {
        let (ctx, pool) = (self.ctx, &*self.pool);
        assert!(d.is_ntt() && !d.has_special(), "a ciphertext polynomial");
        let l = d.level();
        let alpha = ctx.specials().len();
        let count = key_switch_digits(l, ctx.max_level());
        let mut dc = d.clone_in(pool);
        dc.to_coeff(ctx);
        for beta in 0..count {
            let conv = ctx.digit_conversion(l, beta);
            // `q̂_i = 1` in a one-prime digit.
            if conv.hat_inv.len() == 1 {
                continue;
            }
            for (k, &(w, w_shoup)) in conv.hat_inv.iter().enumerate() {
                let qi = ctx.moduli()[conv.start + k];
                for x in dc.limb_mut(conv.start + k) {
                    *x = qi.mul_shoup(*x, w, w_shoup);
                }
            }
        }
        // Every limb of every digit is overwritten.
        let digits = (0..count)
            .map(|beta| {
                let conv = ctx.digit_conversion(l, beta);
                let members = conv.start..conv.start + conv.hat_inv.len();
                let mut digit = RnsPoly::raw_in(pool, ctx, l, true, true);
                for idx in 0..l + alpha {
                    let dst = digit.limb_mut(idx);
                    if members.contains(&idx) {
                        dst.copy_from_slice(d.limb(idx));
                        continue;
                    }
                    // One Shoup pass per member; at α = 1 the one pass
                    // multiplies by `q̂ = 1`, a plain reduction.
                    let b = ctx.basis_index(l, idx);
                    let m = ctx.basis()[b];
                    for (k, &(h, h_shoup)) in conv.hat[b].iter().enumerate() {
                        let src = dc.limb(conv.start + k);
                        if k == 0 {
                            for (x, &v) in dst.iter_mut().zip(src) {
                                *x = m.mul_shoup(v, h, h_shoup);
                            }
                        } else {
                            for (x, &v) in dst.iter_mut().zip(src) {
                                *x = m.add(*x, m.mul_shoup(v, h, h_shoup));
                            }
                        }
                    }
                    ctx.table(b).forward(dst);
                }
                digit
            })
            .collect();
        dc.recycle(pool);
        Decomposition { level: l, digits }
    }

    /// The back half of every key switch, and the only digit × key inner
    /// product: given the digits of `d` and a key for source secret `t`,
    /// returns `(k0, k1)` with `k0 + k1·s ≈ σ(d)·t` at `d`'s level, where
    /// `σ` is the automorphism whose index table is `perm` (`None` for
    /// relinearization). Accumulates over `Q_l·P`, expanding the key's
    /// uniform halves from their seeds on the way
    /// ([`RnsPoly::key_switch_dot`]), and divides by `P` (ModDown,
    /// [`RnsPoly::rescale_special_in`]).
    fn inner_product(
        &self,
        digits: &Decomposition,
        key: &KswKey,
        perm: Option<&[u32]>,
    ) -> (RnsPoly, RnsPoly) {
        let (ctx, pool) = (self.ctx, &*self.pool);
        let (mut k0, mut k1) =
            RnsPoly::key_switch_dot(pool, ctx, &digits.digits, &key.k0, &key.seeds, perm);
        k0.rescale_special_in(ctx, pool);
        k1.rescale_special_in(ctx, pool);
        (k0, k1)
    }

    /// Decomposes `a`'s `c1` for any number of
    /// [`Evaluator::try_rotate_decomposed`] calls — the shared half of a
    /// hoisted rotation group (SEAL-style): the inverse and forward NTTs of
    /// the decomposition are paid once, and each rotation is then a gather
    /// plus the key inner product. The digits are checked out of the pool;
    /// hand them back with [`Evaluator::recycle_decomposition`].
    pub fn decompose_for_rotations(&self, a: &Ciphertext) -> Decomposition {
        self.decompose(&a.c1)
    }

    /// Rotates `a` by `steps` off a decomposition of its `c1`
    /// ([`Evaluator::decompose_for_rotations`]). Bit-identical to
    /// [`Evaluator::try_rotate`], which is this on a decomposition of its
    /// own.
    ///
    /// # Errors
    ///
    /// Returns [`MissingKeyError`] when the needed key is neither in the
    /// static set nor derivable from an attached [`KeyCache`]; nothing
    /// stays checked out of the pool.
    ///
    /// # Panics
    ///
    /// Panics if `digits` is not at `a`'s level.
    pub fn try_rotate_decomposed(
        &self,
        a: &Ciphertext,
        digits: &Decomposition,
        steps: i64,
    ) -> Result<Ciphertext, MissingKeyError> {
        let g = rotation_to_galois(self.ctx, steps);
        if g == 1 {
            return Ok(self.clone_ct(a));
        }
        self.apply_galois(a, digits, g, Some(steps))
    }

    /// Returns a decomposition's limb buffers to the pool.
    pub fn recycle_decomposition(&self, digits: Decomposition) {
        for digit in digits.digits {
            digit.recycle(&self.pool);
        }
    }

    /// Computes several rotations of one ciphertext off one shared
    /// decomposition ([`Evaluator::decompose_for_rotations`]); output `i`
    /// is bit-identical to `rotate(a, steps[i])`. A win wherever one
    /// ciphertext is rotated many times (convolutions, matrix–vector
    /// products).
    ///
    /// # Panics
    ///
    /// Panics if any needed Galois key is missing; see
    /// [`Evaluator::try_rotate_hoisted`] for the fallible form.
    pub fn rotate_hoisted(&self, a: &Ciphertext, steps: &[i64]) -> Vec<Ciphertext> {
        self.try_rotate_hoisted(a, steps)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Hoisted multi-rotation (see [`Evaluator::rotate_hoisted`]) that
    /// reports a missing Galois key instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`MissingKeyError`] for the first rotation step whose key is
    /// neither in the static set nor derivable from an attached
    /// [`KeyCache`]; the rotations already computed go back to the pool
    /// with the digits.
    pub fn try_rotate_hoisted(
        &self,
        a: &Ciphertext,
        steps: &[i64],
    ) -> Result<Vec<Ciphertext>, MissingKeyError> {
        let digits = self.decompose_for_rotations(a);
        let mut out = Vec::with_capacity(steps.len());
        let all = steps.iter().try_for_each(|&step| {
            out.push(self.try_rotate_decomposed(a, &digits, step)?);
            Ok(())
        });
        self.recycle_decomposition(digits);
        match all {
            Ok(()) => Ok(out),
            Err(e) => {
                out.into_iter().for_each(|ct| self.recycle_ct(ct));
                Err(e)
            }
        }
    }

    /// An empty [`LinearAccumulator`] at `level`, its limbs zeroed out of
    /// the pool.
    pub fn linear_accumulator(&self, level: usize) -> LinearAccumulator {
        let (ctx, pool) = (self.ctx, &*self.pool);
        let zero = |special| RnsPoly::zero_in(pool, ctx, level, special, true);
        LinearAccumulator {
            level,
            scale: None,
            ext: [zero(true), zero(true)],
            base: [zero(false), zero(false)],
        }
    }

    /// Folds a contribution of `scale` into the accumulator's scale: the
    /// smallest seen, so any partition and merge order agree on it.
    fn accumulate_scale(&self, acc: &mut LinearAccumulator, scale: f64) {
        if let Some(s) = acc.scale {
            self.check_scales(s, scale);
        }
        acc.scale = Some(acc.scale.map_or(scale, |s| s.min(scale)));
    }

    /// Adds `rotate(a, steps) · p` to every `(accumulator, p)` of `terms`
    /// without dividing by `P`: one key-switch inner product off `digits`
    /// (a decomposition of `a`'s `c1`), whose output over `Q_l·P` is
    /// multiplied by each plain factor — a plaintext encoded over `Q_l·P`
    /// ([`Encoder::encode_extended_in`]) or a scalar
    /// ([`Encoder::encode_scalar_extended`]) — and summed into the
    /// accumulator's extended halves, while `σ(c0) ∘ p` goes to its `Q_l`
    /// half. Double hoisting (Bossuat et al., EUROCRYPT 2021): the ModDown
    /// each rotation would pay is paid once per accumulator, by
    /// [`Evaluator::finish_accumulator`].
    ///
    /// # Errors
    ///
    /// Returns [`MissingKeyError`] when the key is neither in the static
    /// set nor derivable from an attached [`KeyCache`]; the accumulators
    /// are then untouched and nothing stays checked out of the pool.
    ///
    /// # Panics
    ///
    /// Panics on an identity rotation (it switches no key), or if `digits`,
    /// a plain factor or an accumulator is not at `a`'s level, a plain
    /// factor is not over `Q_l·P`, or the product's scale differs from what
    /// an accumulator already holds.
    pub fn try_accumulate_rotation(
        &self,
        a: &Ciphertext,
        digits: &Decomposition,
        steps: i64,
        terms: &mut [(&mut LinearAccumulator, PlainFactor<'_>)],
    ) -> Result<(), MissingKeyError> {
        let (ctx, pool) = (self.ctx, &*self.pool);
        let g = rotation_to_galois(ctx, steps);
        assert_ne!(g, 1, "an identity rotation switches no key");
        assert_eq!(digits.level(), a.level, "digits of this ciphertext");
        for (acc, p) in terms.iter() {
            assert_eq!((acc.level, p.level()), (a.level, a.level), "one level");
            assert!(p.has_special(), "a plain factor over Q_l·P");
        }
        self.with_galois_key(g, Some(steps), a.level, |key| {
            let perm = ctx.galois_permutation(g);
            let (k0, k1) = RnsPoly::key_switch_dot(
                pool,
                ctx,
                &digits.digits,
                &key.k0,
                &key.seeds,
                Some(&perm),
            );
            let c0 = a.c0.automorphism_in(Some(pool), ctx, g);
            for (acc, p) in terms.iter_mut() {
                self.accumulate_scale(acc, a.scale * p.scale());
                match *p {
                    PlainFactor::Encoded(p) => {
                        k0.mul_acc(ctx, &p.poly, &mut acc.ext[0]);
                        k1.mul_acc(ctx, &p.poly, &mut acc.ext[1]);
                        c0.mul_acc_prefix(ctx, &p.poly, &mut acc.base[0]);
                    }
                    PlainFactor::Scalar(p) => {
                        k0.mul_scalar_acc(ctx, &p.scalar, &mut acc.ext[0]);
                        k1.mul_scalar_acc(ctx, &p.scalar, &mut acc.ext[1]);
                        c0.mul_scalar_acc(ctx, &p.scalar, &mut acc.base[0]);
                    }
                }
            }
            for poly in [k0, k1, c0] {
                poly.recycle(pool);
            }
        })
    }

    /// Adds a ciphertext at the accumulator's level and scale as it is.
    pub fn accumulate_ciphertext(&self, acc: &mut LinearAccumulator, ct: &Ciphertext) {
        assert_eq!(ct.level, acc.level, "operand levels must match");
        self.accumulate_scale(acc, ct.scale);
        acc.base[0].add_assign(self.ctx, &ct.c0);
        acc.base[1].add_assign(self.ctx, &ct.c1);
    }

    /// Adds `other` into `acc` and returns `other`'s buffers to the pool.
    /// Modular addition is exact, so any partition of the terms into
    /// accumulators, merged in any order, finishes to the same limbs.
    pub fn merge_accumulators(&self, acc: &mut LinearAccumulator, other: LinearAccumulator) {
        assert_eq!(acc.level, other.level, "operand levels must match");
        if let Some(scale) = other.scale {
            self.accumulate_scale(acc, scale);
        }
        for (mine, theirs) in acc.ext.iter_mut().zip(&other.ext) {
            mine.add_assign(self.ctx, theirs);
        }
        for (mine, theirs) in acc.base.iter_mut().zip(&other.base) {
            mine.add_assign(self.ctx, theirs);
        }
        self.recycle_accumulator(other);
    }

    /// The accumulated ciphertext: the extended halves divided by `P` (one
    /// [`RnsPoly::rescale_special_in`] each) plus the `Q_l` halves.
    ///
    /// # Panics
    ///
    /// Panics if nothing was accumulated.
    pub fn finish_accumulator(&self, acc: LinearAccumulator) -> Ciphertext {
        let (ctx, pool) = (self.ctx, &*self.pool);
        let scale = acc.scale.expect("an accumulator with terms");
        let [mut c0, mut c1] = acc.base;
        for (half, mut ext) in [&mut c0, &mut c1].into_iter().zip(acc.ext) {
            ext.rescale_special_in(ctx, pool);
            half.add_assign(ctx, &ext);
            ext.recycle(pool);
        }
        Ciphertext {
            c0,
            c1,
            level: acc.level,
            scale,
        }
    }

    /// Returns an accumulator's buffers to the pool unfinished.
    pub fn recycle_accumulator(&self, acc: LinearAccumulator) {
        for poly in acc.ext.into_iter().chain(acc.base) {
            poly.recycle(&self.pool);
        }
    }
}

/// The plain factor of a linear-combination term
/// ([`Evaluator::try_accumulate_rotation`]): an encoded plaintext, or a
/// scalar that skipped the encoder.
#[derive(Debug, Clone, Copy)]
pub enum PlainFactor<'p> {
    /// A plaintext over `Q_l·P` ([`Encoder::encode_extended_in`]).
    Encoded(&'p Plaintext),
    /// A scalar over `Q_l·P` ([`Encoder::encode_scalar_extended`]).
    Scalar(&'p ScalarPlaintext),
}

impl PlainFactor<'_> {
    fn level(&self) -> usize {
        match self {
            PlainFactor::Encoded(p) => p.level,
            PlainFactor::Scalar(p) => p.level,
        }
    }

    fn scale(&self) -> f64 {
        match self {
            PlainFactor::Encoded(p) => p.scale,
            PlainFactor::Scalar(p) => p.scale,
        }
    }

    fn has_special(&self) -> bool {
        match self {
            PlainFactor::Encoded(p) => p.poly.has_special(),
            PlainFactor::Scalar(p) => p.scalar.has_special(),
        }
    }
}

/// A partial sum `Σ rotate(a_d, k_d) · p_d + Σ c` kept before the division
/// by `P` ([`Evaluator::try_accumulate_rotation`]): two polynomials over
/// `Q_l·P` and two over `Q_l`, `2(l+α) + 2l` pooled limbs.
#[derive(Debug)]
pub struct LinearAccumulator {
    level: usize,
    /// The smallest contribution's scale (`None` while empty).
    scale: Option<f64>,
    /// `Σ k ∘ p` per half: key-switch outputs times plaintexts.
    ext: [RnsPoly; 2],
    /// `Σ σ(c0) ∘ p` plus the added ciphertexts, per half.
    base: [RnsPoly; 2],
}

/// The key-switch digits of one ciphertext polynomial
/// ([`Evaluator::decompose_for_rotations`]): `⌈l/α⌉` polynomials over
/// `Q_l·P` in NTT form, `⌈l/α⌉·(l+α)` pooled limbs in all
/// ([`crate::decomposition_limbs`]).
#[derive(Debug)]
pub struct Decomposition {
    level: usize,
    digits: Vec<RnsPoly>,
}

impl Decomposition {
    /// The level of the polynomial that was decomposed.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Heap bytes held by the digits.
    pub fn byte_size(&self) -> usize {
        self.digits.iter().map(RnsPoly::byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::{decrypt, encrypt_symmetric};
    use crate::context::{CkksContext, CkksParams};
    use crate::keys::KeyGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ctx: CkksContext,
    }

    fn fixture(levels: usize) -> Fixture {
        Fixture {
            ctx: CkksContext::new(CkksParams {
                poly_degree: 256,
                max_level: levels,
                modulus_bits: 45,
                special_bits: 46,
                error_std: 3.2,
                threads: 1,
            }),
        }
    }

    fn vals(ctx: &CkksContext, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..ctx.slots()).map(f).collect()
    }

    #[test]
    fn add_sub_neg() {
        let f = fixture(1);
        let mut rng = StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&f.ctx, &mut rng);
        let sk = kg.secret_key();
        let ev = Evaluator::new(&f.ctx, None, GaloisKeys::default());
        let a = vals(&f.ctx, |i| i as f64 * 0.01);
        let b = vals(&f.ctx, |i| 1.0 - i as f64 * 0.02);
        let scale = 2f64.powi(30);
        let ca = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&a, scale, 1), &mut rng);
        let cb = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&b, scale, 1), &mut rng);
        let sum = ev.add(&ca, &cb);
        let diff = ev.sub(&ca, &cb);
        let neg = ev.neg(&ca);
        let ds = ev.encoder().decode(&decrypt(&f.ctx, &sk, &sum));
        let dd = ev.encoder().decode(&decrypt(&f.ctx, &sk, &diff));
        let dn = ev.encoder().decode(&decrypt(&f.ctx, &sk, &neg));
        for i in 0..8 {
            assert!((ds[i] - (a[i] + b[i])).abs() < 1e-4);
            assert!((dd[i] - (a[i] - b[i])).abs() < 1e-4);
            assert!((dn[i] + a[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn mul_relin_rescale() {
        let f = fixture(2);
        let mut rng = StdRng::seed_from_u64(2);
        let kg = KeyGenerator::new(&f.ctx, &mut rng);
        let sk = kg.secret_key();
        let relin = kg.relin_key(&mut rng);
        let ev = Evaluator::new(&f.ctx, Some(relin), GaloisKeys::default());
        let a = vals(&f.ctx, |i| ((i % 7) as f64 - 3.0) * 0.3);
        let b = vals(&f.ctx, |i| ((i % 5) as f64) * 0.25);
        let scale = 2f64.powi(40);
        let ca = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&a, scale, 2), &mut rng);
        let cb = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&b, scale, 2), &mut rng);
        let prod = ev.mul(&ca, &cb);
        assert!((prod.scale_bits() - 80.0).abs() < 0.1);
        let rescaled = ev.rescale(&prod);
        assert_eq!(rescaled.level, 1);
        assert!((rescaled.scale_bits() - 35.0).abs() < 0.1);
        let d = ev.encoder().decode(&decrypt(&f.ctx, &sk, &rescaled));
        for i in 0..16 {
            assert!(
                (d[i] - a[i] * b[i]).abs() < 1e-3,
                "slot {i}: {} vs {}",
                d[i],
                a[i] * b[i]
            );
        }
    }

    #[test]
    fn fused_mul_rescale_is_bit_identical_to_the_sequence() {
        let f = fixture(3);
        let mut rng = StdRng::seed_from_u64(7);
        let kg = KeyGenerator::new(&f.ctx, &mut rng);
        let sk = kg.secret_key();
        let relin = kg.relin_key(&mut rng);
        let ev = Evaluator::new(&f.ctx, Some(relin), GaloisKeys::default());
        let a = vals(&f.ctx, |i| ((i % 9) as f64 - 4.0) * 0.2);
        let b = vals(&f.ctx, |i| ((i % 4) as f64) * 0.3);
        let scale = 2f64.powi(40);
        let ca = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&a, scale, 3), &mut rng);
        let cb = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&b, scale, 3), &mut rng);
        let seq = ev.rescale(&ev.mul(&ca, &cb));
        let fused = ev.mul_rescale(&ca, &cb);
        assert_eq!(fused.level, seq.level);
        assert_eq!(fused.scale.to_bits(), seq.scale.to_bits());
        for i in 0..fused.level {
            assert_eq!(fused.c0.limb(i), seq.c0.limb(i), "c0 limb {i}");
            assert_eq!(fused.c1.limb(i), seq.c1.limb(i), "c1 limb {i}");
        }
    }

    #[test]
    fn rotation_moves_slots() {
        let f = fixture(1);
        let mut rng = StdRng::seed_from_u64(3);
        let kg = KeyGenerator::new(&f.ctx, &mut rng);
        let sk = kg.secret_key();
        let gk = kg.galois_keys([1i64, 3], &mut rng);
        let ev = Evaluator::new(&f.ctx, None, gk);
        let a = vals(&f.ctx, |i| i as f64);
        let scale = 2f64.powi(35);
        let ca = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&a, scale, 1), &mut rng);
        let r1 = ev.rotate(&ca, 1);
        let d = ev.encoder().decode(&decrypt(&f.ctx, &sk, &r1));
        let slots = f.ctx.slots();
        for i in 0..8 {
            let expect = a[(i + 1) % slots];
            assert!(
                (d[i] - expect).abs() < 1e-2,
                "slot {i}: {} vs {expect}",
                d[i]
            );
        }
        // Rotation by 0 is identity.
        let r0 = ev.rotate(&ca, 0);
        let d0 = ev.encoder().decode(&decrypt(&f.ctx, &sk, &r0));
        assert!((d0[0] - a[0]).abs() < 1e-3);
    }

    #[test]
    fn mul_plain_and_upscale_and_modswitch() {
        let f = fixture(2);
        let mut rng = StdRng::seed_from_u64(4);
        let kg = KeyGenerator::new(&f.ctx, &mut rng);
        let sk = kg.secret_key();
        let ev = Evaluator::new(&f.ctx, None, GaloisKeys::default());
        let a = vals(&f.ctx, |i| (i % 9) as f64 * 0.1);
        let w = vals(&f.ctx, |i| ((i % 3) as f64) - 1.0);
        let scale = 2f64.powi(30);
        let ca = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&a, scale, 2), &mut rng);
        // cipher × plain.
        let prod = ev.mul_plain_values(&ca, &w, 2f64.powi(20));
        let d = ev.encoder().decode(&decrypt(&f.ctx, &sk, &prod));
        for i in 0..8 {
            assert!((d[i] - a[i] * w[i]).abs() < 1e-3);
        }
        // upscale raises scale, preserves value.
        let up = ev.upscale(&ca, 2f64.powf(10.5));
        assert!((up.scale_bits() - 40.5).abs() < 0.01);
        let du = ev.encoder().decode(&decrypt(&f.ctx, &sk, &up));
        assert!((du[3] - a[3]).abs() < 1e-3);
        // modswitch drops level, preserves scale and value.
        let ms = ev.mod_switch(&ca);
        assert_eq!(ms.level, 1);
        assert_eq!(ms.scale, ca.scale);
        let dm = ev.encoder().decode(&decrypt(&f.ctx, &sk, &ms));
        assert!((dm[5] - a[5]).abs() < 1e-3);
    }

    #[test]
    fn upscale_integer_factor_is_exact() {
        // Fuzzer-found (tests/corpus/upscale_fractional_precision.fhe):
        // lowering upscale as mul_plain by an encoded all-ones plaintext
        // rounds the single nonzero coefficient — 29% value error for a
        // factor of √2. The integer scalar path must be exact, and a
        // factor that rounds to 1 must be the identity.
        let f = fixture(1);
        let mut rng = StdRng::seed_from_u64(11);
        let kg = KeyGenerator::new(&f.ctx, &mut rng);
        let sk = kg.secret_key();
        let ev = Evaluator::new(&f.ctx, None, GaloisKeys::default());
        let a = vals(&f.ctx, |i| ((i % 13) as f64 - 6.0) * 0.05);
        let scale = 2f64.powi(30);
        let ca = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&a, scale, 1), &mut rng);
        let base = ev.encoder().decode(&decrypt(&f.ctx, &sk, &ca));
        // Integer factor: value preserved to the ciphertext's own noise
        // (scalar multiply adds none), scale tracks the actual multiplier.
        let up = ev.upscale(&ca, 7.0);
        assert_eq!(up.scale, scale * 7.0);
        let d = ev.encoder().decode(&decrypt(&f.ctx, &sk, &up));
        for i in 0..16 {
            assert!(
                (d[i] - base[i]).abs() < 1e-9,
                "slot {i}: {} vs {}",
                d[i],
                base[i]
            );
        }
        // √2 rounds to 1: identity, not a 29%-off multiply.
        let noop = ev.upscale(&ca, std::f64::consts::SQRT_2);
        assert_eq!(noop.scale, ca.scale);
        assert_eq!(noop.c0, ca.c0);
        assert_eq!(noop.c1, ca.c1);
    }

    #[test]
    fn depth_two_polynomial() {
        // x⁴ via two squarings with rescale in between.
        let f = fixture(3);
        let mut rng = StdRng::seed_from_u64(5);
        let kg = KeyGenerator::new(&f.ctx, &mut rng);
        let sk = kg.secret_key();
        let relin = kg.relin_key(&mut rng);
        let ev = Evaluator::new(&f.ctx, Some(relin), GaloisKeys::default());
        let a = vals(&f.ctx, |i| ((i % 11) as f64 - 5.0) * 0.2);
        let scale = 2f64.powi(40);
        let ca = encrypt_symmetric(&f.ctx, &sk, &ev.encoder().encode(&a, scale, 3), &mut rng);
        let sq = ev.rescale(&ev.mul(&ca, &ca));
        let quad = ev.rescale(&ev.mul(&sq, &sq));
        assert_eq!(quad.level, 1);
        let d = ev.encoder().decode(&decrypt(&f.ctx, &sk, &quad));
        for i in 0..8 {
            let expect = a[i].powi(4);
            assert!(
                (d[i] - expect).abs() < 1e-2,
                "slot {i}: {} vs {expect}",
                d[i]
            );
        }
    }

    #[test]
    fn conjugation_preserves_real_values() {
        let f = fixture(1);
        let mut rng = StdRng::seed_from_u64(9);
        let kg = KeyGenerator::new(&f.ctx, &mut rng);
        let sk = kg.secret_key();
        let gk = kg.galois_keys_with_conjugation([], &mut rng);
        let ev = Evaluator::new(&f.ctx, None, gk);
        let a = vals(&f.ctx, |i| (i as f64 * 0.03).sin());
        let ca = encrypt_symmetric(
            &f.ctx,
            &sk,
            &ev.encoder().encode(&a, 2f64.powi(35), 1),
            &mut rng,
        );
        let conj = ev.conjugate(&ca);
        let d = ev.encoder().decode(&decrypt(&f.ctx, &sk, &conj));
        for i in 0..8 {
            assert!((d[i] - a[i]).abs() < 1e-2, "slot {i}: {} vs {}", d[i], a[i]);
        }
    }

    #[test]
    #[should_panic(expected = "scales must match")]
    fn mismatched_scales_rejected() {
        let f = fixture(1);
        let mut rng = StdRng::seed_from_u64(6);
        let kg = KeyGenerator::new(&f.ctx, &mut rng);
        let sk = kg.secret_key();
        let ev = Evaluator::new(&f.ctx, None, GaloisKeys::default());
        let ca = encrypt_symmetric(
            &f.ctx,
            &sk,
            &ev.encoder().encode(&[1.0], 2f64.powi(30), 1),
            &mut rng,
        );
        let cb = encrypt_symmetric(
            &f.ctx,
            &sk,
            &ev.encoder().encode(&[1.0], 2f64.powi(31), 1),
            &mut rng,
        );
        let _ = ev.add(&ca, &cb);
    }
}

impl<'c> Evaluator<'c> {
    /// Complex conjugation of the slot vector (the Galois automorphism
    /// `X ↦ X^{2N−1}`). For the real-valued encodings this library produces
    /// it is a no-op on values, but it exercises the conjugation key path
    /// used by complex pipelines.
    ///
    /// # Panics
    ///
    /// Panics if the conjugation Galois key is missing (generate it with
    /// [`crate::KeyGenerator::galois_keys_with_conjugation`]); see
    /// [`Evaluator::try_conjugate`] for the fallible form.
    pub fn conjugate(&self, a: &Ciphertext) -> Ciphertext {
        self.try_conjugate(a).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Complex conjugation (see [`Evaluator::conjugate`]) that reports a
    /// missing conjugation key instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`MissingKeyError`] when the conjugation key is neither in
    /// the static set nor derivable from an attached [`KeyCache`].
    pub fn try_conjugate(&self, a: &Ciphertext) -> Result<Ciphertext, MissingKeyError> {
        self.galois_lone(a, 2 * self.ctx.degree() - 1, None)
    }
}

#[cfg(test)]
mod key_switch_tests {
    use super::*;
    use crate::cipher::{decrypt, encrypt_symmetric};
    use crate::context::{decomposition_limbs, CkksContext, CkksParams};
    use crate::keys::KeyGenerator;
    use crate::modular::Modulus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx(max_level: usize) -> CkksContext {
        CkksContext::new(CkksParams {
            poly_degree: 256,
            max_level,
            modulus_bits: 45,
            special_bits: 46,
            error_std: 3.2,
            threads: 1,
        })
    }

    fn encrypted(
        ctx: &CkksContext,
        kg: &KeyGenerator<'_>,
        level: usize,
        rng: &mut StdRng,
    ) -> Ciphertext {
        let values: Vec<f64> = (0..ctx.slots()).map(|i| (i % 13) as f64 * 0.1).collect();
        let pt = Encoder::new(ctx).encode(&values, 2f64.powi(40), level);
        encrypt_symmetric(ctx, &kg.secret_key(), &pt, rng)
    }

    fn assert_same_limbs(got: &Ciphertext, want: &Ciphertext, what: &str) {
        assert_eq!((got.level, got.scale), (want.level, want.scale), "{what}");
        assert_eq!(got.c0, want.c0, "{what}: c0");
        assert_eq!(got.c1, want.c1, "{what}: c1");
    }

    /// `Π_{k ≠ skip} primes[k] mod m`, by the hardware `%`.
    fn hat_mod(primes: &[u64], skip: usize, m: Modulus) -> u64 {
        (0..primes.len())
            .filter(|&k| k != skip)
            .fold(1, |acc, k| m.mul_reference(acc, primes[k] % m.value()))
    }

    /// The key switch of `σ_g(d)` written out term by term on allocating
    /// reference kernels: every digit lifted by the fast base conversion
    /// and transformed whole (its own limbs included), permuted by the
    /// coefficient-domain automorphism, accumulated with one eager reduction
    /// per product against the key's `a` halves materialized from their
    /// seeds, and divided by `P` coefficient by coefficient. Every
    /// conversion constant is rebuilt here from the primes.
    fn key_switch_reference(
        ctx: &CkksContext,
        d: &RnsPoly,
        key: &KswKey,
        g: usize,
    ) -> (RnsPoly, RnsPoly) {
        let (l, n, alpha) = (d.level(), ctx.degree(), ctx.specials().len());
        let basis: Vec<Modulus> = ctx.moduli()[..l]
            .iter()
            .chain(ctx.specials())
            .copied()
            .collect();
        let mut coeffs = d.clone();
        coeffs.to_coeff(ctx);
        let mut acc0 = RnsPoly::zero(ctx, l, true, true);
        let mut acc1 = RnsPoly::zero(ctx, l, true, true);
        for (beta, start) in (0..l).step_by(alpha).enumerate() {
            let members: Vec<u64> = (start..l.min(start + alpha))
                .map(|i| ctx.moduli()[i].value())
                .collect();
            let mut digit = RnsPoly::zero(ctx, l, true, false);
            for (idx, &m) in basis.iter().enumerate() {
                // (q̂_k⁻¹ mod q_k, q̂_k mod m) per member k.
                let consts: Vec<(u64, u64)> = (0..members.len())
                    .map(|k| {
                        let qk = ctx.moduli()[start + k];
                        (qk.inv(hat_mod(&members, k, qk)), hat_mod(&members, k, m))
                    })
                    .collect();
                for (c, x) in digit.limb_mut(idx).iter_mut().enumerate() {
                    *x = consts.iter().enumerate().fold(0, |acc, (k, &(inv, hat))| {
                        let qk = ctx.moduli()[start + k];
                        let y = qk.mul_reference(coeffs.limb(start + k)[c], inv);
                        (acc + m.mul_reference(y % m.value(), hat)) % m.value()
                    });
                }
            }
            digit.to_ntt(ctx);
            digit.automorphism_reference(ctx, g);
            digit.mul_acc_restricted(ctx, &key.k0[beta], &mut acc0);
            let a = RnsPoly::expand_uniform_in(None, ctx, key.level, true, key.seeds[beta]);
            digit.mul_acc_restricted(ctx, &a, &mut acc1);
        }
        let specials: Vec<u64> = ctx.specials().iter().map(|p| p.value()).collect();
        let mod_down = |acc: RnsPoly| {
            let mut c = acc;
            c.to_coeff(ctx);
            let mut out = RnsPoly::zero(ctx, l, false, false);
            for i in 0..l {
                let qi = ctx.moduli()[i];
                let p_inv = qi.inv(hat_mod(&specials, alpha, qi));
                for k in 0..n {
                    // x = Σ_j centered([c_j · p̂_j⁻¹]_{p_j}) · p̂_j, mod q_i.
                    let x = (0..alpha).fold(0, |acc, j| {
                        let pj = ctx.specials()[j];
                        let y =
                            pj.mul_reference(c.limb(l + j)[k], pj.inv(hat_mod(&specials, j, pj)));
                        let centered = i128::from(pj.center(y)).rem_euclid(i128::from(qi.value()));
                        (acc + qi.mul_reference(centered as u64, hat_mod(&specials, j, qi)))
                            % qi.value()
                    });
                    let diff = (c.limb(i)[k] + qi.value() - x) % qi.value();
                    out.limb_mut(i)[k] = qi.mul_reference(diff, p_inv);
                }
            }
            out.to_ntt(ctx);
            out
        };
        (mod_down(acc0), mod_down(acc1))
    }

    #[test]
    fn hoisted_rotations_equal_individual_rotations_limb_for_limb() {
        // α = 1, 2 and 3, at the top level and at a partial last digit.
        for (big_l, level) in [(2, 2), (5, 5), (5, 3), (9, 9), (9, 7)] {
            let ctx = ctx(big_l);
            let mut rng = StdRng::seed_from_u64(11);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let sk = kg.secret_key();
            let steps = [0i64, 1, 3, 7, -1];
            let gk = kg.galois_keys(steps, &mut rng);
            let ev = Evaluator::new(&ctx, None, gk);
            let ct = encrypted(&ctx, &kg, level, &mut rng);
            let hoisted = ev.rotate_hoisted(&ct, &steps);
            assert_eq!(hoisted.len(), steps.len());
            let slots = ctx.slots();
            for (&k, h) in steps.iter().zip(&hoisted) {
                let what = format!("L = {big_l}, level {level}, step {k}");
                assert_same_limbs(h, &ev.rotate(&ct, k), &what);
                let got = ev.encoder().decode(&decrypt(&ctx, &sk, h));
                for (i, slot) in got.iter().enumerate().take(16) {
                    let from = (i + k.rem_euclid(slots as i64) as usize) % slots;
                    let want = (from % 13) as f64 * 0.1;
                    assert!((slot - want).abs() < 1e-2, "{what}, slot {i}: {slot}");
                }
            }
        }
    }

    #[test]
    fn galois_and_relinearization_match_the_eager_oracle() {
        // α = 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, and every level below each top:
        // every partial last digit the chain can produce.
        for big_l in 1..=10 {
            let ctx = ctx(big_l);
            let mut rng = StdRng::seed_from_u64(12);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let gk = kg.galois_keys_with_conjugation([3i64], &mut rng);
            let relin = kg.relin_key(&mut rng);
            let ev = Evaluator::new(&ctx, Some(relin.clone()), gk.clone());
            for level in 1..=big_l {
                let what = |op: &str| format!("L = {big_l}, level {level}: {op}");
                let (a, b) = (
                    encrypted(&ctx, &kg, level, &mut rng),
                    encrypted(&ctx, &kg, level, &mut rng),
                );
                let digits = ev.decompose_for_rotations(&a);
                assert_eq!(digits.level(), level);
                assert_eq!(
                    digits.byte_size(),
                    decomposition_limbs(level, big_l) * ctx.degree() * 8
                );
                ev.recycle_decomposition(digits);

                // Rotation and conjugation: (σ(c0) + k0, k1), lone and hoisted.
                let conj = 2 * ctx.degree() - 1;
                let hoisted = ev.rotate_hoisted(&a, &[3]);
                for (g, got) in [
                    (rotation_to_galois(&ctx, 3), ev.rotate(&a, 3)),
                    (rotation_to_galois(&ctx, 3), hoisted[0].clone()),
                    (conj, ev.conjugate(&a)),
                ] {
                    let (k0, k1) = key_switch_reference(&ctx, &a.c1, gk.get(g).expect("key"), g);
                    let mut c0 = a.c0.clone();
                    c0.automorphism_reference(&ctx, g);
                    c0.add_assign(&ctx, &k0);
                    let want = Ciphertext {
                        c0,
                        c1: k1,
                        level: a.level,
                        scale: a.scale,
                    };
                    assert_same_limbs(&got, &want, &what(&format!("element {g}")));
                }

                // Relinearization: (d0 + k0, d1 + k1) with the identity
                // permutation.
                let (k0, k1) = key_switch_reference(&ctx, &a.c1.mul(&ctx, &b.c1), &relin.0, 1);
                let mut c0 = a.c0.mul(&ctx, &b.c0);
                c0.add_assign(&ctx, &k0);
                let mut c1 = a.c0.mul(&ctx, &b.c1);
                c1.add_assign(&ctx, &a.c1.mul(&ctx, &b.c0));
                c1.add_assign(&ctx, &k1);
                let want = Ciphertext {
                    c0,
                    c1,
                    level: a.level,
                    scale: a.scale * b.scale,
                };
                assert_same_limbs(&ev.mul(&a, &b), &want, &what("mul"));
            }
        }
    }

    #[test]
    fn a_missing_key_mid_group_returns_every_buffer_to_the_pool() {
        // Only step 1 has a key: the group fails at step 3, after one
        // rotation was computed. That rotation, the digits and the failed
        // step's temporaries must all be back in the pool (the input was
        // encrypted outside it).
        let ctx = ctx(2);
        let mut rng = StdRng::seed_from_u64(13);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let ev = Evaluator::new(&ctx, None, kg.galois_keys([1i64], &mut rng));
        let ct = encrypted(&ctx, &kg, 2, &mut rng);
        let err = ev.try_rotate_hoisted(&ct, &[1, 3]).unwrap_err();
        assert_eq!(err.steps, Some(3));
        assert_eq!(ev.pool_stats().live_bytes, 0, "group");
        assert!(ev.try_rotate(&ct, 3).is_err());
        assert!(ev.try_conjugate(&ct).is_err());
        assert_eq!(ev.pool_stats().live_bytes, 0, "lone rotation, conjugation");
    }

    #[test]
    fn a_static_key_shallower_than_the_ciphertext_is_a_missing_key() {
        let ctx = ctx(5);
        let mut rng = StdRng::seed_from_u64(14);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let ev = Evaluator::new(&ctx, None, kg.galois_keys_at([(1i64, 3)], &mut rng));
        let shallow = encrypted(&ctx, &kg, 3, &mut rng);
        ev.recycle_ct(ev.try_rotate(&shallow, 1).expect("the key's own level"));
        let deep = encrypted(&ctx, &kg, 4, &mut rng);
        let err = ev.try_rotate(&deep, 1).unwrap_err();
        assert_eq!((err.steps, err.level), (Some(1), 4));
        assert!(ev.try_rotate_hoisted(&deep, &[1]).is_err());
        assert_eq!(ev.pool_stats().live_bytes, 0);
    }

    const STEPS: [i64; 3] = [1, 3, 7];
    const SCALE: f64 = 33_554_432.0; // 2^25
    const WEIGHT_SCALE: f64 = 32_768.0; // 2^15

    /// A linear-combination fixture at `level`: slot `i` of `a` holds
    /// `x[i] = (i % 13)/10`, and `weights` are the diagonals of the three
    /// rotations, then of the unrotated term.
    struct Combination {
        a: Ciphertext,
        x: Vec<f64>,
        weights: Vec<Vec<f64>>,
    }

    impl Combination {
        fn new(ctx: &CkksContext, kg: &KeyGenerator<'_>, level: usize) -> Self {
            let mut rng = StdRng::seed_from_u64(15 + level as u64);
            let slots = ctx.slots();
            let x: Vec<f64> = (0..slots).map(|i| (i % 13) as f64 * 0.1).collect();
            let pt = Encoder::new(ctx).encode(&x, SCALE, level);
            let a = encrypt_symmetric(ctx, &kg.secret_key(), &pt, &mut rng);
            let weights = (0..=STEPS.len())
                .map(|d| {
                    (0..slots)
                        .map(|i| ((i * 7 + d * 5) % 11) as f64 / 11.0 - 0.5)
                        .collect()
                })
                .collect();
            Combination { a, x, weights }
        }

        /// The cleartext `Σ_d x[i + k_d]·w_d[i]`, plus `x[i]·w_3[i]` with
        /// the unrotated term.
        fn want(&self, direct: bool) -> Vec<f64> {
            let slots = self.x.len();
            let unrotated = direct.then_some(0).into_iter().zip(&self.weights[3..]);
            (0..slots)
                .map(|i| {
                    let terms = STEPS
                        .iter()
                        .copied()
                        .zip(&self.weights)
                        .chain(unrotated.clone());
                    terms.fold(0.0, |acc, (k, w)| {
                        acc + self.x[(i + k as usize) % slots] * w[i]
                    })
                })
                .collect()
        }

        /// The unrotated term's ciphertext, `a · w_3`.
        fn direct(&self, ev: &Evaluator<'_>) -> Ciphertext {
            let w = ev
                .encoder()
                .encode(&self.weights[3], WEIGHT_SCALE, self.a.level);
            ev.mul_plain(&self.a, &w)
        }

        /// The sum the per-member way: a rotation, a `mul_plain` and an add
        /// per term.
        fn one_by_one(&self, ev: &Evaluator<'_>, direct: Option<&Ciphertext>) -> Ciphertext {
            let a = &self.a;
            let terms = STEPS.iter().zip(&self.weights).map(|(&k, w)| {
                let p = ev.encoder().encode(w, WEIGHT_SCALE, a.level);
                ev.mul_plain(&ev.rotate(a, k), &p)
            });
            let sum = terms.chain(direct.cloned()).reduce(|s, t| ev.add(&s, &t));
            sum.expect("three terms")
        }

        /// Rotation `t` of the three, times its diagonal, into `acc`.
        fn accumulate(
            &self,
            ev: &Evaluator<'_>,
            digits: &Decomposition,
            t: usize,
            acc: &mut LinearAccumulator,
        ) {
            let level = self.a.level;
            let p =
                (ev.encoder()).encode_extended_in(ev.pool(), &self.weights[t], WEIGHT_SCALE, level);
            ev.try_accumulate_rotation(
                &self.a,
                digits,
                STEPS[t],
                &mut [(acc, PlainFactor::Encoded(&p))],
            )
            .expect("keys for every step");
            p.poly.recycle(ev.pool());
        }

        /// The sum as one accumulation over `Q_l·P`.
        fn accumulated(&self, ev: &Evaluator<'_>, direct: Option<&Ciphertext>) -> Ciphertext {
            let mut acc = ev.linear_accumulator(self.a.level);
            let digits = ev.decompose_for_rotations(&self.a);
            (0..STEPS.len()).for_each(|t| self.accumulate(ev, &digits, t, &mut acc));
            ev.recycle_decomposition(digits);
            if let Some(ct) = direct {
                ev.accumulate_ciphertext(&mut acc, ct);
            }
            ev.finish_accumulator(acc)
        }
    }

    fn max_error(ctx: &CkksContext, kg: &KeyGenerator<'_>, ct: &Ciphertext, want: &[f64]) -> f64 {
        let got = Encoder::new(ctx).decode(&decrypt(ctx, &kg.secret_key(), ct));
        got.iter()
            .zip(want)
            .fold(0.0, |m, (g, w)| m.max((g - w).abs()))
    }

    #[test]
    fn an_accumulated_linear_combination_decrypts_within_the_per_op_error() {
        // α = 1 to 4; the top level and the highest level whose last digit
        // is partial; with and without an unrotated term added as it is.
        for big_l in 1..=10 {
            let ctx = ctx(big_l);
            let alpha = ctx.specials().len();
            let mut rng = StdRng::seed_from_u64(16);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let ev = Evaluator::new(&ctx, None, kg.galois_keys(STEPS, &mut rng));
            // One key switch rounds by at most α/2 per coefficient before
            // the product; spread over N coefficients and three terms,
            // divided by the input's scale.
            let per_op = (3 * alpha * ctx.degree()) as f64 / SCALE;
            let partial = (1..big_l).rev().find(|l| l % alpha != 0);
            for level in std::iter::once(big_l).chain(partial) {
                let c = Combination::new(&ctx, &kg, level);
                let direct = c.direct(&ev);
                for direct in [None, Some(&direct)] {
                    let what = format!("L = {big_l}, level {level}, direct {}", direct.is_some());
                    let (today, accumulated) =
                        (c.one_by_one(&ev, direct), c.accumulated(&ev, direct));
                    assert_eq!(accumulated.level, today.level, "{what}");
                    assert_eq!(accumulated.scale.to_bits(), today.scale.to_bits(), "{what}");
                    let want = c.want(direct.is_some());
                    let (e_today, e_acc) = (
                        max_error(&ctx, &kg, &today, &want),
                        max_error(&ctx, &kg, &accumulated, &want),
                    );
                    assert!(
                        e_acc <= e_today + per_op,
                        "{what}: {e_acc:e} vs {e_today:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn any_partition_of_the_terms_finishes_to_the_same_limbs() {
        let ctx = ctx(5);
        let mut rng = StdRng::seed_from_u64(17);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let ev = Evaluator::new(&ctx, None, kg.galois_keys(STEPS, &mut rng));
        let c = Combination::new(&ctx, &kg, 5);
        let direct = c.direct(&ev);
        let digits = ev.decompose_for_rotations(&c.a);
        // Terms 0–2 are the rotations, term 3 the direct operand. Each
        // part is merged, in the listed order, into the first.
        let partitions: [&[&[usize]]; 4] = [
            &[&[0, 1, 2, 3]],
            &[&[0], &[1], &[2], &[3]],
            &[&[3], &[2], &[1], &[0]],
            &[&[2, 0], &[3], &[1]],
        ];
        let finished: Vec<Ciphertext> = partitions
            .iter()
            .map(|parts| {
                let mut accs = parts.iter().map(|part| {
                    let mut acc = ev.linear_accumulator(5);
                    for &t in *part {
                        match t {
                            3 => ev.accumulate_ciphertext(&mut acc, &direct),
                            t => c.accumulate(&ev, &digits, t, &mut acc),
                        }
                    }
                    acc
                });
                let mut first = accs.next().expect("a part");
                accs.for_each(|acc| ev.merge_accumulators(&mut first, acc));
                ev.finish_accumulator(first)
            })
            .collect();
        ev.recycle_decomposition(digits);
        for (i, ct) in finished.iter().enumerate().skip(1) {
            assert_same_limbs(ct, &finished[0], &format!("partition {i}"));
        }
        // Every accumulator went back: only the outputs and the direct
        // term are still checked out.
        let held: usize = finished
            .iter()
            .chain([&direct])
            .map(|ct| 2 * ct.level)
            .sum();
        let limb_bytes = ctx.degree() * 8;
        assert_eq!(ev.pool_stats().live_bytes as usize, held * limb_bytes);
    }

    #[test]
    fn a_missing_key_leaves_the_accumulator_untouched_and_the_pool_whole() {
        let ctx = ctx(3);
        let mut rng = StdRng::seed_from_u64(18);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let ev = Evaluator::new(&ctx, None, kg.galois_keys([1i64], &mut rng));
        let a = encrypted(&ctx, &kg, 3, &mut rng);
        let digits = ev.decompose_for_rotations(&a);
        let p = ev
            .encoder()
            .encode_extended_in(ev.pool(), &[0.5], WEIGHT_SCALE, 3);
        let mut acc = ev.linear_accumulator(3);
        let err = ev
            .try_accumulate_rotation(&a, &digits, 2, &mut [(&mut acc, PlainFactor::Encoded(&p))])
            .unwrap_err();
        assert_eq!(err.steps, Some(2));
        ev.recycle_decomposition(digits);
        p.poly.recycle(ev.pool());
        ev.recycle_accumulator(acc);
        assert_eq!(ev.pool_stats().live_bytes, 0);
    }
}
