//! Homomorphic evaluation: the RNS-CKKS operations of Table 2.

use std::sync::Arc;

use crate::cipher::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::{Encoder, Plaintext};
use crate::keys::{rotation_to_galois, GaloisKeys, KeyCache, KswKey, RelinKey};
use crate::par;
use crate::poly::RnsPoly;
use crate::pool::{PolyPool, PoolStats};

/// Relative scale mismatch tolerated by additions. Two drift sources:
/// chain primes are only approximately `2^modulus_bits` (parts in
/// `2^40`), and fractional-bit upscale factors (e.g. `2^(35/2)` from
/// reserve's scale algebra) are realized by the nearest-integer
/// multiplier, off by up to `0.5/factor` (~1e-6 at `2^17.5`). Genuine
/// schedule bugs mismatch by whole rescale factors (`2^35` or more), so
/// 1e-4 keeps full discrimination.
const SCALE_TOLERANCE: f64 = 1e-4;

/// A rotation or conjugation needed a Galois key that is neither in the
/// static key set nor derivable from a [`KeyCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingKeyError {
    /// The Galois element of the missing key.
    pub galois: usize,
    /// The rotation step that required it (`None` for conjugation).
    pub steps: Option<i64>,
}

impl std::fmt::Display for MissingKeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.steps {
            Some(s) => write!(
                f,
                "missing Galois key for rotation {s} (element {})",
                self.galois
            ),
            None => write!(
                f,
                "missing conjugation Galois key (element {})",
                self.galois
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

    /// Resolves the key for Galois element `g` (static set first, then the
    /// cache) and runs `f` with it.
    fn with_galois_key<R>(
        &self,
        g: usize,
        steps: Option<i64>,
        f: impl FnOnce(&KswKey) -> R,
    ) -> Result<R, MissingKeyError> {
        if let Some(key) = self.galois.get(g) {
            return Ok(f(key));
        }
        if let Some(cache) = &self.cache {
            return Ok(cache.with_key(self.ctx, g, f));
        }
        Err(MissingKeyError { galois: g, steps })
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

    /// cipher × cipher with relinearization (equal levels; scales multiply).
    ///
    /// # Panics
    ///
    /// Panics if no relinearization key was provided.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.check_pair(a, b);
        let relin = self
            .relin
            .as_ref()
            .expect("relinearization key required for mul");
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
        let (k0, k1) = self.key_switch(&d2, &relin.0);
        d2.recycle(pool);
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

    /// Squares a ciphertext (same as `mul(a, a)`).
    pub fn square(&self, a: &Ciphertext) -> Ciphertext {
        self.mul(a, a)
    }

    /// Fused cipher × cipher + relinearize + rescale: one pass over the
    /// product limbs with the rescale applied to the relinearized pair in
    /// place. Bit-identical to `rescale(&mul(a, b))` — the fusion skips
    /// the full-level intermediate that `rescale`'s ciphertext clone
    /// would materialize (two level-`l` polynomials), not any arithmetic.
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
    /// as a [`MissingKeyError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`MissingKeyError`] when the needed key is neither in the
    /// static set nor derivable from an attached [`KeyCache`].
    pub fn try_rotate(&self, a: &Ciphertext, steps: i64) -> Result<Ciphertext, MissingKeyError> {
        let g = rotation_to_galois(self.ctx, steps);
        if g == 1 {
            return Ok(self.clone_ct(a));
        }
        self.with_galois_key(g, Some(steps), |key| self.apply_galois(a, g, key))
    }

    /// The shared automorphism + key-switch body of rotation and
    /// conjugation, with all temporaries drawn from the pool.
    fn apply_galois(&self, a: &Ciphertext, g: usize, key: &KswKey) -> Ciphertext {
        let ctx = self.ctx;
        let pool = &self.pool;
        let mut c0 = a.c0.clone_in(pool);
        c0.automorphism_in(ctx, g, pool);
        let mut c1 = a.c1.clone_in(pool);
        c1.automorphism_in(ctx, g, pool);
        let (k0, k1) = self.key_switch(&c1, key);
        c1.recycle(pool);
        c0.add_assign(ctx, &k0);
        k0.recycle(pool);
        Ciphertext {
            c0,
            c1: k1,
            level: a.level,
            scale: a.scale,
        }
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
    /// `factor = √2` upscales fractional-scale schedules emit.
    pub fn upscale(&self, a: &Ciphertext, factor: f64) -> Ciphertext {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "upscale factor must be >= 1"
        );
        let m = factor.round().max(1.0);
        if m >= 2f64.powi(53) {
            // Factors beyond u64 range keep the encoded-identity path;
            // at ≥ 2^53 its relative rounding error is below f64 epsilon.
            let ones = vec![1.0; self.ctx.slots()];
            return self.mul_plain_values(a, &ones, factor);
        }
        let mut out = self.clone_ct(a);
        if m > 1.0 {
            out.c0.mul_scalar_assign(self.ctx, m as u64);
            out.c1.mul_scalar_assign(self.ctx, m as u64);
            out.scale = a.scale * m;
        }
        out
    }

    /// RNS-decomposes `d` (NTT, level `l`) into per-limb polynomials lifted
    /// to the extended basis `Q_l·P`, in coefficient domain — the shared
    /// front half of every key switch.
    fn decompose_lifted(&self, d: &RnsPoly) -> Vec<RnsPoly> {
        let ctx = self.ctx;
        let pool = &self.pool;
        let l = d.level();
        let mut dc = d.clone_in(pool);
        dc.to_coeff(ctx);
        let out = {
            let dc = &dc;
            // Each digit's lifted polynomial is built independently; fan the
            // digits across the worker threads. Every limb of every digit is
            // fully overwritten below, so raw (unzeroed) checkouts suffice.
            let est = par::cost::POINTWISE * (ctx.degree() * (l + 1)) as u64;
            par::map_range(ctx.threads(), est, l, |j| {
                let mut lifted = RnsPoly::zero_in(pool, ctx, l, true, false);
                for i in 0..l {
                    let m = ctx.moduli()[i];
                    let dst = lifted.limb_mut(i);
                    for (d, &src) in dst.iter_mut().zip(dc.limb(j)) {
                        *d = m.reduce(src);
                    }
                }
                let p = ctx.special();
                let dst = lifted.special_limb_mut();
                for (d, &src) in dst.iter_mut().zip(dc.limb(j)) {
                    *d = p.reduce(src);
                }
                lifted
            })
        };
        dc.recycle(pool);
        out
    }

    /// The back half of a key switch: NTT the (possibly permuted) lifted
    /// decomposition, inner-product with the key, and divide by `P`.
    /// Consumes the decomposition so each digit transforms in place, and
    /// multiplies against the full-basis key polynomials directly — no
    /// per-digit clone or [`RnsPoly::restrict_for_keyswitch`] copy.
    fn key_switch_lifted(
        &self,
        mut lifted: Vec<RnsPoly>,
        l: usize,
        key: &KswKey,
    ) -> (RnsPoly, RnsPoly) {
        let ctx = self.ctx;
        let pool = &self.pool;
        let mut acc0 = RnsPoly::zero_in(pool, ctx, l, true, true);
        let mut acc1 = RnsPoly::zero_in(pool, ctx, l, true, true);
        for (j, t) in lifted.iter_mut().enumerate() {
            t.to_ntt(ctx);
            t.mul_acc_restricted(ctx, &key.k0[j], &mut acc0);
            t.mul_acc_restricted(ctx, &key.k1[j], &mut acc1);
        }
        for t in lifted {
            t.recycle(pool);
        }
        acc0.rescale_special_in(ctx, pool);
        acc1.rescale_special_in(ctx, pool);
        (acc0, acc1)
    }

    /// The special-prime key switch: given `d` (NTT, level `l`) and a key
    /// for source secret `t`, returns `(k0, k1)` with
    /// `k0 + k1·s ≈ d·t` at level `l`.
    fn key_switch(&self, d: &RnsPoly, key: &KswKey) -> (RnsPoly, RnsPoly) {
        let lifted = self.decompose_lifted(d);
        self.key_switch_lifted(lifted, d.level(), key)
    }

    /// Computes several rotations of one ciphertext with a *hoisted* key
    /// switch (SEAL-style): the expensive RNS decomposition of `c1` is done
    /// once and shared; each rotation only permutes the decomposed
    /// polynomials and runs the key inner product. Saves the per-rotation
    /// inverse NTT + reduction work — a win for convolution kernels that
    /// rotate the same ciphertext many times.
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
    /// [`KeyCache`]; already-computed rotations are discarded.
    pub fn try_rotate_hoisted(
        &self,
        a: &Ciphertext,
        steps: &[i64],
    ) -> Result<Vec<Ciphertext>, MissingKeyError> {
        let ctx = self.ctx;
        let pool = &self.pool;
        let l = a.level;
        let lifted = self.decompose_lifted(&a.c1);
        let mut out = Vec::with_capacity(steps.len());
        for &step in steps {
            let g = rotation_to_galois(ctx, step);
            if g == 1 {
                out.push(self.clone_ct(a));
                continue;
            }
            let rotated = self.with_galois_key(g, Some(step), |key| {
                // Decomposition commutes with the automorphism (both are
                // coefficient-wise), so permute the shared lifted polys.
                let permuted: Vec<RnsPoly> = lifted
                    .iter()
                    .map(|lp| {
                        let mut t = lp.clone_in(pool);
                        t.automorphism_in(ctx, g, pool);
                        t
                    })
                    .collect();
                let (k0, k1) = self.key_switch_lifted(permuted, l, key);
                let mut c0 = a.c0.clone_in(pool);
                c0.automorphism_in(ctx, g, pool);
                c0.add_assign(ctx, &k0);
                k0.recycle(pool);
                Ciphertext {
                    c0,
                    c1: k1,
                    level: l,
                    scale: a.scale,
                }
            });
            match rotated {
                Ok(ct) => out.push(ct),
                Err(e) => {
                    for lp in lifted {
                        lp.recycle(pool);
                    }
                    return Err(e);
                }
            }
        }
        for lp in lifted {
            lp.recycle(pool);
        }
        Ok(out)
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
        let sq = ev.rescale(&ev.square(&ca));
        let quad = ev.rescale(&ev.square(&sq));
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
        let g = 2 * self.ctx.degree() - 1;
        self.with_galois_key(g, None, |key| self.apply_galois(a, g, key))
    }
}

#[cfg(test)]
mod hoisted_rotation_tests {
    use super::*;
    use crate::cipher::{decrypt, encrypt_symmetric};
    use crate::context::{CkksContext, CkksParams};
    use crate::keys::KeyGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hoisted_rotations_match_individual_rotations() {
        let ctx = CkksContext::new(CkksParams {
            poly_degree: 256,
            max_level: 2,
            modulus_bits: 45,
            special_bits: 46,
            error_std: 3.2,
            threads: 1,
        });
        let mut rng = StdRng::seed_from_u64(11);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let steps = [0i64, 1, 3, 7];
        let gk = kg.galois_keys(steps, &mut rng);
        let ev = Evaluator::new(&ctx, None, gk);
        let values: Vec<f64> = (0..ctx.slots()).map(|i| (i % 13) as f64 * 0.1).collect();
        let ct = encrypt_symmetric(
            &ctx,
            &sk,
            &ev.encoder().encode(&values, 2f64.powi(40), 2),
            &mut rng,
        );
        let hoisted = ev.rotate_hoisted(&ct, &steps);
        for (k, h) in steps.iter().zip(&hoisted) {
            let individual = ev.rotate(&ct, *k);
            let dh = ev.encoder().decode(&decrypt(&ctx, &sk, h));
            let di = ev.encoder().decode(&decrypt(&ctx, &sk, &individual));
            for i in 0..16 {
                assert!(
                    (dh[i] - di[i]).abs() < 1e-3,
                    "step {k} slot {i}: hoisted {} vs individual {}",
                    dh[i],
                    di[i]
                );
                let expect = values[(i + k.rem_euclid(ctx.slots() as i64) as usize) % ctx.slots()];
                assert!((dh[i] - expect).abs() < 1e-2);
            }
        }
    }
}
