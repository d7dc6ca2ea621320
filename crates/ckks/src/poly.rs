//! RNS polynomials: elements of `Z_Q[X]/(X^N+1)` in residue representation.

use rand::Rng;

use crate::context::CkksContext;
use crate::modular::{Modulus, SplitF64};
use crate::ntt::NttTable;
use crate::pool::PolyPool;
use crate::uniform::UniformStream;

/// A polynomial in RNS form: one residue vector (length `N`) per active
/// modulus. The active basis is the first `level` chain primes, optionally
/// extended by `P`, the product of the context's `α` special primes (used
/// only inside key switching): limbs `0..level` are the chain's, and the
/// `α` limbs after them the specials'.
///
/// `ntt` records whether limbs are in the transform (evaluation) domain.
/// Ciphertext polys are kept in NTT domain, like SEAL, so additions and
/// multiplications are pointwise and `rescale` pays domain-conversion
/// costs — reproducing Table 3's latency shape.
#[derive(Debug, Clone, PartialEq)]
pub struct RnsPoly {
    level: usize,
    special: bool,
    ntt: bool,
    limbs: Vec<Vec<u64>>,
}

/// An integer held as its residues over a basis (`Q_l`, or `Q_l·P`), each
/// with its Shoup companion: the constant polynomial, which in NTT domain is
/// the same residue in every slot of a limb. Multiplying by it, or adding
/// it, is one pass per limb with no transform ([`RnsPoly::mul_scalar_assign`],
/// [`RnsPoly::add_scalar_assign`], [`RnsPoly::mul_scalar_acc`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsScalar {
    level: usize,
    special: bool,
    /// `(residue, Shoup companion)` per limb, in [`RnsPoly`]'s limb order.
    residues: Vec<(u64, u64)>,
}

impl RnsScalar {
    /// `round(x)` reduced into every limb of the basis, exactly, any
    /// magnitude included: one [`SplitF64::round`], then one
    /// [`crate::modular::Pow2Table::reduce_split`] per limb — coefficient 0
    /// of [`RnsPoly::from_real_coeffs`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite, or the level is out of range.
    pub fn from_real(ctx: &CkksContext, level: usize, special: bool, x: f64) -> Self {
        assert!(level >= 1 && level <= ctx.max_level(), "level out of range");
        let split = SplitF64::round(x);
        let residues = (0..limb_count(ctx, level, special))
            .map(|idx| {
                let b = ctx.basis_index(level, idx);
                let r = ctx.pow2(b).reduce_split(split);
                (r, ctx.basis()[b].shoup(r))
            })
            .collect();
        RnsScalar {
            level,
            special,
            residues,
        }
    }

    /// Whether the basis extends past the chain by the special primes.
    pub fn has_special(&self) -> bool {
        self.special
    }

    /// The residue of each limb.
    pub fn residues(&self) -> Vec<u64> {
        self.residues.iter().map(|&(r, _)| r).collect()
    }

    /// `self += other` over the same basis: the residues add mod each
    /// prime, exactly.
    ///
    /// # Panics
    ///
    /// Panics if the bases differ.
    pub fn add_assign(&mut self, ctx: &CkksContext, other: &RnsScalar) {
        assert_eq!(
            (self.level, self.special),
            (other.level, other.special),
            "basis mismatch"
        );
        for (idx, (mine, theirs)) in self.residues.iter_mut().zip(&other.residues).enumerate() {
            let m = RnsPoly::modulus_at(ctx, self.level, idx);
            let r = m.add(mine.0, theirs.0);
            *mine = (r, m.shoup(r));
        }
    }

    /// Asserts that this scalar's limbs pair with `poly`'s: the same chain
    /// level, and the specials wherever `poly` has them.
    fn check_covers(&self, poly: &RnsPoly) {
        assert_eq!(self.level, poly.level, "level mismatch");
        assert!(self.special || !poly.special, "basis mismatch");
    }
}

impl RnsPoly {
    /// The all-zero polynomial over the given basis and domain.
    pub fn zero(ctx: &CkksContext, level: usize, special: bool, ntt: bool) -> Self {
        assert!(level >= 1 && level <= ctx.max_level(), "level out of range");
        RnsPoly {
            level,
            special,
            ntt,
            limbs: vec![vec![0u64; ctx.degree()]; limb_count(ctx, level, special)],
        }
    }

    /// The all-zero polynomial with limb buffers checked out of `pool`
    /// instead of freshly allocated — the hot-path twin of
    /// [`RnsPoly::zero`], which stays allocation-honest for the reference
    /// kernels.
    pub fn zero_in(
        pool: &PolyPool,
        ctx: &CkksContext,
        level: usize,
        special: bool,
        ntt: bool,
    ) -> Self {
        assert!(level >= 1 && level <= ctx.max_level(), "level out of range");
        assert_eq!(pool.degree(), ctx.degree(), "pool sized for this context");
        RnsPoly {
            level,
            special,
            ntt,
            limbs: pool.take_zeroed(limb_count(ctx, level, special)),
        }
    }

    /// A polynomial of unspecified contents over pooled limb buffers, for a
    /// caller that overwrites every coefficient of every limb — what
    /// [`RnsPoly::zero_in`] is without the zeroing pass.
    pub(crate) fn raw_in(
        pool: &PolyPool,
        ctx: &CkksContext,
        level: usize,
        special: bool,
        ntt: bool,
    ) -> Self {
        assert!(level >= 1 && level <= ctx.max_level(), "level out of range");
        RnsPoly {
            level,
            special,
            ntt,
            limbs: raw_limbs(ctx, Some(pool), limb_count(ctx, level, special)),
        }
    }

    /// A deep copy whose limb buffers come from `pool`.
    pub fn clone_in(&self, pool: &PolyPool) -> Self {
        let mut limbs = pool.take_raw(self.limbs.len());
        for (dst, src) in limbs.iter_mut().zip(&self.limbs) {
            dst.copy_from_slice(src);
        }
        RnsPoly {
            level: self.level,
            special: self.special,
            ntt: self.ntt,
            limbs,
        }
    }

    /// Returns this polynomial's limb buffers to `pool`.
    pub fn recycle(self, pool: &PolyPool) {
        pool.put(self.limbs);
    }

    /// Heap bytes held by the limb buffers.
    pub fn byte_size(&self) -> usize {
        self.limbs.iter().map(|l| l.len() * 8).sum()
    }

    /// Number of active chain limbs.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Whether the special-prime limbs are attached.
    pub fn has_special(&self) -> bool {
        self.special
    }

    /// Whether the limbs are in NTT domain.
    pub fn is_ntt(&self) -> bool {
        self.ntt
    }

    /// The residues for limb `i`: chain limb `i` below the level, special
    /// limb `i − level` at and above it.
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.limbs[i]
    }

    /// Mutable access to the residues for limb `i` (see [`RnsPoly::limb`]).
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.limbs[i]
    }

    fn modulus_of(&self, ctx: &CkksContext, idx: usize) -> Modulus {
        Self::modulus_at(ctx, self.level, idx)
    }

    /// Modulus for limb `idx` of a poly with `level` chain limbs — the
    /// borrow-free twin of [`RnsPoly::modulus_of`] for use inside per-limb
    /// loops that hold `&mut` on the limb storage.
    fn modulus_at(ctx: &CkksContext, level: usize, idx: usize) -> Modulus {
        ctx.basis()[ctx.basis_index(level, idx)]
    }

    /// NTT table for limb `idx`; companion of [`RnsPoly::modulus_at`].
    fn table_at(ctx: &CkksContext, level: usize, idx: usize) -> &NttTable {
        ctx.table(ctx.basis_index(level, idx))
    }

    /// Builds a polynomial from signed coefficients (applied to every active
    /// modulus), in coefficient domain.
    pub fn from_signed_coeffs(
        ctx: &CkksContext,
        level: usize,
        special: bool,
        coeffs: &[i64],
    ) -> Self {
        assert_eq!(coeffs.len(), ctx.degree());
        let mut p = RnsPoly::zero(ctx, level, special, false);
        for idx in 0..p.limbs.len() {
            let m = p.modulus_of(ctx, idx);
            for (slot, &c) in p.limbs[idx].iter_mut().zip(coeffs) {
                *slot = m.reduce_i64(c);
            }
        }
        p
    }

    /// Builds a polynomial from real coefficients, in coefficient domain.
    /// Each coefficient is rounded to the nearest integer and reduced
    /// exactly; magnitudes may exceed `2^63` (anything finite goes).
    ///
    /// The work per coefficient is arithmetic only: one
    /// [`SplitF64::round`], then per limb one Barrett reduction — plus, for
    /// magnitudes of 2^53 and up, one product with a power of two from the
    /// context's [`crate::modular::Pow2Table`]. No exponentiation or
    /// inversion, and one allocation per call (the split coefficients).
    ///
    /// # Panics
    ///
    /// Panics if a coefficient is NaN or infinite.
    pub fn from_real_coeffs(
        ctx: &CkksContext,
        level: usize,
        special: bool,
        coeffs: &[f64],
    ) -> Self {
        Self::from_real_coeffs_in(None, ctx, level, special, coeffs)
    }

    /// [`RnsPoly::from_real_coeffs`] with the limb buffers checked out of
    /// `pool` when given.
    pub(crate) fn from_real_coeffs_in(
        pool: Option<&PolyPool>,
        ctx: &CkksContext,
        level: usize,
        special: bool,
        coeffs: &[f64],
    ) -> Self {
        assert_eq!(coeffs.len(), ctx.degree());
        assert!(level >= 1 && level <= ctx.max_level(), "level out of range");
        let split: Vec<SplitF64> = coeffs.iter().map(|&c| SplitF64::round(c)).collect();
        let mut limbs = raw_limbs(ctx, pool, limb_count(ctx, level, special));
        for (idx, limb) in limbs.iter_mut().enumerate() {
            let pow2 = ctx.pow2(ctx.basis_index(level, idx));
            for (slot, &s) in limb.iter_mut().zip(&split) {
                *slot = pow2.reduce_split(s);
            }
        }
        RnsPoly {
            level,
            special,
            ntt: false,
            limbs,
        }
    }

    /// Uniformly random polynomial over the basis (NTT domain — uniform in
    /// either domain), drawn coefficient by coefficient from `rng`: a test
    /// and benchmark operand. Key and mask halves come from seeds
    /// ([`crate::uniform`]).
    pub fn uniform(ctx: &CkksContext, level: usize, special: bool, rng: &mut impl Rng) -> Self {
        let mut p = RnsPoly::zero(ctx, level, special, true);
        for idx in 0..p.limbs.len() {
            let m = p.modulus_of(ctx, idx);
            for slot in p.limbs[idx].iter_mut() {
                *slot = rng.gen_range(0..m.value());
            }
        }
        p
    }

    /// The uniform polynomial expanded from `seed` over the first `level`
    /// chain limbs, and the specials' if `special` (NTT domain): each limb
    /// from its own `(seed, basis index)` stream ([`crate::uniform`]), so
    /// any basis gets the full basis's limbs, restricted. Limb buffers come
    /// from `pool` when given.
    pub(crate) fn expand_uniform_in(
        pool: Option<&PolyPool>,
        ctx: &CkksContext,
        level: usize,
        special: bool,
        seed: u64,
    ) -> Self {
        assert!(level >= 1 && level <= ctx.max_level(), "level out of range");
        let mut limbs = raw_limbs(ctx, pool, limb_count(ctx, level, special));
        for (idx, limb) in limbs.iter_mut().enumerate() {
            let b = ctx.basis_index(level, idx);
            UniformStream::new(seed, b).fill(ctx.basis()[b], limb);
        }
        RnsPoly {
            level,
            special,
            ntt: true,
            limbs,
        }
    }

    /// Random ternary polynomial (coefficients in {−1, 0, 1}), coefficient
    /// domain. Used for secret keys and encryption randomness.
    pub fn ternary(ctx: &CkksContext, level: usize, special: bool, rng: &mut impl Rng) -> Self {
        let coeffs: Vec<i64> = (0..ctx.degree()).map(|_| rng.gen_range(-1..=1)).collect();
        Self::from_signed_coeffs(ctx, level, special, &coeffs)
    }

    /// Random error polynomial with centered Gaussian coefficients of the
    /// context's standard deviation, coefficient domain.
    pub fn gaussian(ctx: &CkksContext, level: usize, special: bool, rng: &mut impl Rng) -> Self {
        Self::from_signed_coeffs(ctx, level, special, &gaussian_coeffs(ctx, rng))
    }

    /// Converts to NTT domain (no-op if already there), one limb at a
    /// time.
    pub fn to_ntt(&mut self, ctx: &CkksContext) {
        if self.ntt {
            return;
        }
        for (idx, limb) in self.limbs.iter_mut().enumerate() {
            Self::table_at(ctx, self.level, idx).forward(limb);
        }
        self.ntt = true;
    }

    /// Converts to coefficient domain (no-op if already there), one limb at
    /// a time.
    pub fn to_coeff(&mut self, ctx: &CkksContext) {
        if !self.ntt {
            return;
        }
        for (idx, limb) in self.limbs.iter_mut().enumerate() {
            Self::table_at(ctx, self.level, idx).inverse(limb);
        }
        self.ntt = false;
    }

    fn check_compatible(&self, other: &RnsPoly) {
        assert_eq!(self.level, other.level, "level mismatch");
        assert_eq!(self.special, other.special, "basis mismatch");
        assert_eq!(self.ntt, other.ntt, "domain mismatch");
    }

    /// `self += other` (same basis and domain).
    pub fn add_assign(&mut self, ctx: &CkksContext, other: &RnsPoly) {
        self.check_compatible(other);
        for idx in 0..self.limbs.len() {
            let m = self.modulus_of(ctx, idx);
            for (a, &b) in self.limbs[idx].iter_mut().zip(&other.limbs[idx]) {
                *a = m.add(*a, b);
            }
        }
    }

    /// `self -= other` (same basis and domain).
    pub fn sub_assign(&mut self, ctx: &CkksContext, other: &RnsPoly) {
        self.check_compatible(other);
        for idx in 0..self.limbs.len() {
            let m = self.modulus_of(ctx, idx);
            for (a, &b) in self.limbs[idx].iter_mut().zip(&other.limbs[idx]) {
                *a = m.sub(*a, b);
            }
        }
    }

    /// `self *= s` for a scalar over `self`'s basis (domain-agnostic: a
    /// scalar commutes with the NTT): one Shoup product per residue.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not cover `self`'s basis.
    pub fn mul_scalar_assign(&mut self, ctx: &CkksContext, s: &RnsScalar) {
        s.check_covers(self);
        for (idx, limb) in self.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, self.level, idx);
            let (w, w_shoup) = s.residues[idx];
            for a in limb.iter_mut() {
                *a = m.mul_shoup(*a, w, w_shoup);
            }
        }
    }

    /// `self += s` for a scalar over `self`'s basis, in NTT domain, where
    /// the constant polynomial is the constant in every slot.
    ///
    /// # Panics
    ///
    /// Panics if `self` is in coefficient domain or `s` does not cover its
    /// basis.
    pub fn add_scalar_assign(&mut self, ctx: &CkksContext, s: &RnsScalar) {
        assert!(self.ntt, "a constant fills every slot in NTT domain only");
        s.check_covers(self);
        for (idx, limb) in self.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, self.level, idx);
            let w = s.residues[idx].0;
            for a in limb.iter_mut() {
                *a = m.add(*a, w);
            }
        }
    }

    /// `acc += self · s`, fused into one pass per limb — the scalar twin of
    /// [`RnsPoly::mul_acc`]. `s` may extend past `self`'s basis (a scalar
    /// over `Q_l·P` also multiplies a polynomial over `Q_l`).
    ///
    /// # Panics
    ///
    /// Panics if `acc` is not over `self`'s basis and domain, or `s` does
    /// not cover it.
    pub fn mul_scalar_acc(&self, ctx: &CkksContext, s: &RnsScalar, acc: &mut RnsPoly) {
        self.check_compatible(acc);
        s.check_covers(self);
        for (idx, limb) in acc.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, acc.level, idx);
            let (w, w_shoup) = s.residues[idx];
            for (a, &x) in limb.iter_mut().zip(&self.limbs[idx]) {
                *a = m.add(*a, m.mul_shoup(x, w, w_shoup));
            }
        }
    }

    /// `self = −self`.
    pub fn neg_assign(&mut self, ctx: &CkksContext) {
        for idx in 0..self.limbs.len() {
            let m = self.modulus_of(ctx, idx);
            for a in self.limbs[idx].iter_mut() {
                *a = m.neg(*a);
            }
        }
    }

    /// Pointwise product (both operands in NTT domain, same basis).
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient domain.
    pub fn mul(&self, ctx: &CkksContext, other: &RnsPoly) -> RnsPoly {
        self.check_compatible(other);
        assert!(self.ntt, "polynomial product requires NTT domain");
        let mut out = self.clone();
        for (idx, limb) in out.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, self.level, idx);
            for (a, &b) in limb.iter_mut().zip(&other.limbs[idx]) {
                *a = m.mul(*a, b);
            }
        }
        out
    }

    /// Pointwise `self ∘= other` (both NTT, same basis) — the in-place
    /// twin of [`RnsPoly::mul`] used by the pooled evaluator paths to
    /// avoid materializing a product polynomial.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient domain.
    pub fn mul_assign(&mut self, ctx: &CkksContext, other: &RnsPoly) {
        self.check_compatible(other);
        assert!(self.ntt, "polynomial product requires NTT domain");
        for (idx, limb) in self.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, self.level, idx);
            for (a, &b) in limb.iter_mut().zip(&other.limbs[idx]) {
                *a = m.mul(*a, b);
            }
        }
    }

    /// `self · other` accumulated into `acc` (`acc += self ∘ other`),
    /// fused into a single pass per limb — no temporary product polynomial
    /// is materialized.
    pub fn mul_acc(&self, ctx: &CkksContext, other: &RnsPoly, acc: &mut RnsPoly) {
        self.check_compatible(other);
        self.mul_acc_prefix(ctx, other, acc);
    }

    /// [`RnsPoly::mul_acc`] with `other` at `self`'s level over either
    /// basis: `acc += self ∘ other` on `self`'s limbs, which pair with
    /// `other`'s first ones — how a plaintext encoded over `Q_l·P` also
    /// multiplies a polynomial over `Q_l`.
    pub(crate) fn mul_acc_prefix(&self, ctx: &CkksContext, other: &RnsPoly, acc: &mut RnsPoly) {
        self.check_compatible(acc);
        assert_eq!(self.level, other.level, "level mismatch");
        assert!(other.special || !self.special, "basis mismatch");
        assert!(
            self.ntt && other.ntt,
            "polynomial product requires NTT domain"
        );
        for (idx, limb) in acc.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, acc.level, idx);
            for ((a, &x), &y) in limb.iter_mut().zip(&self.limbs[idx]).zip(&other.limbs[idx]) {
                *a = m.add(*a, m.mul(x, y));
            }
        }
    }

    /// Like [`RnsPoly::mul_acc`], with `key` a key polynomial over
    /// `Q_{l_k}·P` for some `l_k` at or above `self`'s level: `self`'s chain
    /// limbs pair with `key`'s first limbs and `self`'s special limbs with
    /// `key`'s last `α`.
    ///
    /// One digit × key term of a key switch, reduced eagerly — the oracle
    /// the evaluator's lazy inner product (`key_switch_dot`) is tested
    /// against.
    pub fn mul_acc_restricted(&self, ctx: &CkksContext, key: &RnsPoly, acc: &mut RnsPoly) {
        self.check_compatible(acc);
        assert!(
            self.ntt && key.ntt,
            "polynomial product requires NTT domain"
        );
        assert!(
            self.special && key.special,
            "key switching runs on the extended basis"
        );
        assert!(
            self.level <= key.level,
            "the key reaches the operand's level"
        );
        for (idx, limb) in acc.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, acc.level, idx);
            let k = &key.limbs[key_limb(acc.level, key.level, idx)];
            for ((a, &x), &y) in limb.iter_mut().zip(&self.limbs[idx]).zip(k) {
                *a = m.add(*a, m.mul(x, y));
            }
        }
    }

    /// Drops the basis down to `new_level` chain limbs (and drops the
    /// special limbs if present) **without** scaling — this is `modswitch`'s
    /// core, and is also used to align key limbs with a ciphertext's basis.
    pub fn drop_to_level(&mut self, new_level: usize) {
        assert!(new_level >= 1 && new_level <= self.level);
        self.limbs.truncate(new_level);
        self.level = new_level;
        self.special = false;
    }

    /// [`RnsPoly::drop_to_level`] with the truncated limb buffers returned
    /// to `pool` instead of freed.
    pub fn drop_to_level_in(&mut self, new_level: usize, pool: &PolyPool) {
        assert!(new_level >= 1 && new_level <= self.level);
        pool.put(self.limbs.drain(new_level..));
        self.level = new_level;
        self.special = false;
    }

    /// Restricts a polynomial over `Q_l·P` to the first `level ≤ l` chain
    /// limbs plus the special limbs (key polys always carry `P`).
    pub fn restrict_for_keyswitch(&self, level: usize) -> RnsPoly {
        assert!(self.special, "key polynomials carry the special limbs");
        assert!(level <= self.level);
        let mut limbs: Vec<Vec<u64>> = self.limbs[..level].to_vec();
        limbs.extend_from_slice(&self.limbs[self.level..]);
        RnsPoly {
            level,
            special: true,
            ntt: self.ntt,
            limbs,
        }
    }

    /// Exact RNS rescale: divides by the last chain prime `q_{l-1}` with
    /// rounding, dropping one level. Input and output in NTT domain; the
    /// dropped limb's buffer goes back to `pool`.
    ///
    /// Computes `(x − [x]_{q_last}) · q_last^{-1} mod q_i` per remaining limb.
    ///
    /// # Panics
    ///
    /// Panics if the poly is at level 1, carries the special limb, or is in
    /// coefficient domain.
    pub fn rescale_last_in(&mut self, ctx: &CkksContext, pool: &PolyPool) {
        assert!(self.level >= 2, "cannot rescale below level 1");
        assert!(!self.special, "rescale before dropping the special limb");
        assert!(self.ntt, "ciphertext polys live in NTT domain");
        let j = self.level - 1;
        // Bring the dropped limb to coefficient domain to read residues.
        let mut last = self.limbs.pop().expect("limb");
        ctx.table(j).inverse(&mut last);
        let qj = ctx.moduli()[j];
        let half = qj.value() / 2;
        SCRATCH.with_borrow_mut(|corr| {
            for (i, limb) in self.limbs.iter_mut().enumerate() {
                let mi = ctx.moduli()[i];
                // Centered lift of [x]_{q_j} reduced mod q_i, then NTT under
                // q_i (built in the thread's reused scratch buffer).
                corr.clear();
                corr.extend(last.iter().map(|&v| {
                    // center to (−q_j/2, q_j/2] to keep the subtraction small
                    if v > half {
                        mi.sub(0, mi.reduce(qj.value() - v))
                    } else {
                        mi.reduce(v)
                    }
                }));
                ctx.table(i).forward(corr);
                let (inv, inv_shoup) = ctx.rescale_inv(j, i);
                for (a, &c) in limb.iter_mut().zip(corr.iter()) {
                    *a = mi.mul_shoup(mi.sub(*a, c), inv, inv_shoup);
                }
            }
        });
        pool.put([last]);
        self.level = j;
    }

    /// ModDown: divides by `P` with rounding, dropping the `α` special limbs
    /// (the final step of key switching). Input NTT, output NTT; the
    /// dropped limbs' buffers go back to `pool`.
    ///
    /// The special limbs go to coefficients (`α` inverse NTTs), and each
    /// `c_j` becomes `ỹ_j = [c_j · p̂_j⁻¹]_{p_j}`, centered. `x = Σ_j ỹ_j·p̂_j`
    /// is then `≡ c (mod P)` with `|x| ≤ α·P/2`; it is converted to every
    /// chain limb, transformed forward (`l` NTTs) and `(c − x)·P⁻¹` taken.
    /// At `α = 1` this is `c`'s centered lift, exactly.
    ///
    /// # Panics
    ///
    /// Panics if the poly lacks the special limbs or is in coefficient domain.
    pub fn rescale_special_in(&mut self, ctx: &CkksContext, pool: &PolyPool) {
        assert!(self.special, "no special limbs to drop");
        assert!(self.ntt, "ciphertext polys live in NTT domain");
        let (l, big_l) = (self.level, ctx.max_level());
        let specials = ctx.specials();
        for (j, limb) in self.limbs[l..].iter_mut().enumerate() {
            ctx.table(big_l + j).inverse(limb);
            if specials.len() > 1 {
                let (w, w_shoup) = ctx.special_hat_inv(j);
                for x in limb.iter_mut() {
                    *x = specials[j].mul_shoup(*x, w, w_shoup);
                }
            }
        }
        let (chain, lifted) = self.limbs.split_at_mut(l);
        SCRATCH.with_borrow_mut(|corr| {
            for (i, limb) in chain.iter_mut().enumerate() {
                let (mi, p_mod) = (ctx.moduli()[i], ctx.special_mod(i));
                corr.clear();
                // One Shoup pass per special prime. The centered lift of `ỹ_j`
                // is `ỹ_j − p_j` above `p_j/2`, which takes `p_j·p̂_j = P` off
                // its term: a select instead of a branch on a coin flip. At
                // α = 1, `p̂ = 1` and the pass is `c`'s centered lift mod q_i.
                let terms = lifted.iter().zip(ctx.special_hat(i)).zip(specials);
                for (j, ((limb, &(h, h_shoup)), p)) in terms.enumerate() {
                    let half = p.value() / 2;
                    let term = |v: u64| {
                        let t = mi.mul_shoup(v, h, h_shoup);
                        if v > half {
                            mi.sub(t, p_mod)
                        } else {
                            t
                        }
                    };
                    if j == 0 {
                        corr.extend(limb.iter().map(|&v| term(v)));
                    } else {
                        for (c, &v) in corr.iter_mut().zip(limb) {
                            *c = mi.add(*c, term(v));
                        }
                    }
                }
                ctx.table(i).forward(corr);
                let (inv, inv_shoup) = ctx.special_inv(i);
                for (a, &c) in limb.iter_mut().zip(corr.iter()) {
                    *a = mi.mul_shoup(mi.sub(*a, c), inv, inv_shoup);
                }
            }
        });
        pool.put(self.limbs.drain(l..));
        self.special = false;
    }

    /// The Galois automorphism `X ↦ X^g` (odd `g`) of an NTT-form
    /// polynomial. In the evaluation domain it only moves evaluation points,
    /// so every limb is one gather through the context's index table
    /// ([`CkksContext::galois_permutation`]) — no transform, no arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is in coefficient domain or `g` is even.
    pub fn automorphism(&self, ctx: &CkksContext, g: usize) -> RnsPoly {
        self.automorphism_in(None, ctx, g)
    }

    /// [`RnsPoly::automorphism`] with the result's limb buffers checked out
    /// of `pool` when given.
    pub(crate) fn automorphism_in(
        &self,
        pool: Option<&PolyPool>,
        ctx: &CkksContext,
        g: usize,
    ) -> RnsPoly {
        assert!(self.ntt, "the index table permutes NTT-form limbs");
        let perm = ctx.galois_permutation(g);
        // A permutation writes every slot, so raw buffers are safe.
        let mut limbs = raw_limbs(ctx, pool, self.limbs.len());
        for (dst, src) in limbs.iter_mut().zip(&self.limbs) {
            for (d, &from) in dst.iter_mut().zip(perm.iter()) {
                *d = src[from as usize];
            }
        }
        RnsPoly {
            level: self.level,
            special: self.special,
            ntt: true,
            limbs,
        }
    }

    /// `X ↦ X^g` by its definition on coefficients (`X^i ↦ ±X^(i·g mod N)`),
    /// round-tripping an NTT-form input through the coefficient domain —
    /// the oracle [`RnsPoly::automorphism`] is tested against.
    pub fn automorphism_reference(&mut self, ctx: &CkksContext, g: usize) {
        let n = ctx.degree();
        assert!(g % 2 == 1, "Galois element must be odd");
        let was_ntt = self.ntt;
        self.to_coeff(ctx);
        for idx in 0..self.limbs.len() {
            let m = self.modulus_of(ctx, idx);
            // For odd g the map i ↦ (i·g mod 2N) folded into 0..N is a
            // bijection, so every slot of `dst` is written exactly once.
            let mut dst = vec![0u64; n];
            for (i, &coeff) in self.limbs[idx].iter().enumerate() {
                let target = (i * g) % (2 * n);
                if target < n {
                    dst[target] = coeff;
                } else {
                    dst[target - n] = m.neg(coeff);
                }
            }
            self.limbs[idx] = dst;
        }
        if was_ntt {
            self.to_ntt(ctx);
        }
    }

    /// The inner product of a key switch: `(Σ_β σ(d_β) ∘ k0_β, Σ_β σ(d_β) ∘
    /// a_β)` over the extended basis `Q_l·P`, where `d_β` are the `⌈l/α⌉`
    /// NTT-form digits of a level-`l` polynomial, `k0` the polynomials of a
    /// key of level `l_k ≥ l` (over `Q_{l_k}·P`, its special limbs last),
    /// `a_β` the uniform polynomial expanded from the key's digit seed
    /// `seeds[β]` ([`crate::uniform`]) and `σ` the Galois automorphism whose
    /// index table is `perm` (`None` = identity, i.e. relinearization).
    ///
    /// Each output limb is walked in [`DOT_CHUNK`]-coefficient chunks whose
    /// two accumulators stay in `u128`: a term is one gathered read of the
    /// digit (the automorphism is never materialized), one chunk of `a_β`'s
    /// stream expanded into a stack buffer (`a` is never materialized
    /// either) and two widening products, and a Barrett reduction happens
    /// once per output instead of once per term — at most three digits
    /// always fit the [`Modulus::lazy_window`]. `a_β` enters as its
    /// stream's unreduced 64-bit words: the output's reduction takes them
    /// mod `q` with everything else, and three products of a residue below
    /// `2^62` with a word stay below `2^128`.
    pub(crate) fn key_switch_dot(
        pool: &PolyPool,
        ctx: &CkksContext,
        digits: &[RnsPoly],
        k0: &[RnsPoly],
        seeds: &[u64],
        perm: Option<&[u32]>,
    ) -> (RnsPoly, RnsPoly) {
        let (terms, n) = (digits.len(), ctx.degree());
        let l = digits.first().expect("at least one digit").level;
        assert!(
            k0.len() >= terms && seeds.len() >= terms,
            "one key digit per digit"
        );
        for d in digits {
            assert!(
                d.ntt && d.special && d.level == l,
                "digits of a level-l poly"
            );
        }
        let key_level = k0[0].level;
        for k in &k0[..terms] {
            assert!(
                k.ntt && k.special && k.level == key_level && key_level >= l,
                "key polys over one basis Q_lk·P reaching the digits' level"
            );
        }
        assert!(
            ctx.basis().iter().all(|m| {
                let words = terms as u128 * u128::from(m.value()) <= 1 << 64;
                terms <= m.lazy_window() && words
            }),
            "{terms} digits overflow a u128 accumulator"
        );
        assert!(perm.is_none_or(|p| p.len() == n), "index table sized for N");
        let mut out0 = RnsPoly::raw_in(pool, ctx, l, true, true);
        let mut out1 = RnsPoly::raw_in(pool, ctx, l, true, true);
        for (idx, (o0, o1)) in out0.limbs.iter_mut().zip(&mut out1.limbs).enumerate() {
            let b = ctx.basis_index(l, idx);
            let m = ctx.basis()[b];
            // The digits' chain limb `idx` pairs with the key's limb `idx`,
            // and their special limbs with the key's last `α`; `a`'s limb is
            // keyed by the modulus alone, whatever the key's level.
            let key_idx = key_limb(l, key_level, idx);
            let mut streams: Vec<UniformStream> = seeds[..terms]
                .iter()
                .map(|&seed| UniformStream::new(seed, b))
                .collect();
            // One coefficient's `k0` and `a` sums, side by side.
            let mut acc = [[0u128; 2]; DOT_CHUNK];
            let mut a = [0u64; DOT_CHUNK];
            for base in (0..n).step_by(DOT_CHUNK) {
                let span = base..n.min(base + DOT_CHUNK);
                let acc = &mut acc[..span.len()];
                let a = &mut a[..span.len()];
                acc.fill([0; 2]);
                for ((digit, key), stream) in digits.iter().zip(k0).zip(&mut streams) {
                    let x = &digit.limbs[idx];
                    let y0 = &key.limbs[key_idx][span.clone()];
                    stream.fill_words(a);
                    match perm {
                        Some(perm) => {
                            let gathered = perm[span.clone()].iter().map(|&from| x[from as usize]);
                            mul_acc_wide(acc, gathered, y0, a);
                        }
                        None => mul_acc_wide(acc, x[span.clone()].iter().copied(), y0, a),
                    }
                }
                let outs = o0[span.clone()].iter_mut().zip(&mut o1[span]);
                for ((o0, o1), a) in outs.zip(acc.iter()) {
                    *o0 = m.reduce_u128(a[0]);
                    *o1 = m.reduce_u128(a[1]);
                }
            }
        }
        (out0, out1)
    }
}

thread_local! {
    /// One `N`-length correction buffer per thread, reused by every rescale
    /// and ModDown the thread runs: they allocate once per thread for the
    /// life of the process instead of once per limb.
    static SCRATCH: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Coefficients per chunk of [`RnsPoly::key_switch_dot`]: its `u128`
/// accumulator pairs (8 KiB) stay in L1 across the digits of a chunk.
const DOT_CHUNK: usize = 256;

/// Limbs of a polynomial at `level`, extended by the `α` specials or not.
#[inline]
fn limb_count(ctx: &CkksContext, level: usize, special: bool) -> usize {
    level + if special { ctx.specials().len() } else { 0 }
}

/// `N` centered Gaussian coefficients of the context's standard deviation
/// (Box–Muller): the draws behind [`RnsPoly::gaussian`], whatever basis the
/// polynomial is then reduced into.
pub(crate) fn gaussian_coeffs(ctx: &CkksContext, rng: &mut impl Rng) -> Vec<i64> {
    let std = ctx.params().error_std;
    (0..ctx.degree())
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            ((-2.0 * u1.ln()).sqrt() * u2.cos() * std).round() as i64
        })
        .collect()
}

/// Limb `idx` of a key-switch operand with `level` chain limbs, as an index
/// into a key polynomial of `key_level ≥ level` chain limbs: the chain limbs
/// pair up, and the operand's special limbs pair with the key's last `α`.
#[inline]
fn key_limb(level: usize, key_level: usize, idx: usize) -> usize {
    if idx < level {
        idx
    } else {
        key_level + idx - level
    }
}

/// `acc[i] += [x_i · y0_i, x_i · y1_i]`, unreduced. The caller keeps the
/// term count within [`Modulus::lazy_window`].
#[inline]
fn mul_acc_wide(acc: &mut [[u128; 2]], xs: impl Iterator<Item = u64>, y0: &[u64], y1: &[u64]) {
    for ((a, x), (&y0, &y1)) in acc.iter_mut().zip(xs).zip(y0.iter().zip(y1)) {
        a[0] += u128::from(x) * u128::from(y0);
        a[1] += u128::from(x) * u128::from(y1);
    }
}

/// `count` limb buffers of unspecified contents, for a caller that
/// overwrites every slot: checked out of `pool`, or freshly allocated.
fn raw_limbs(ctx: &CkksContext, pool: Option<&PolyPool>, count: usize) -> Vec<Vec<u64>> {
    match pool {
        Some(pool) => {
            assert_eq!(pool.degree(), ctx.degree(), "pool sized for this context");
            pool.take_raw(count)
        }
        None => vec![vec![0u64; ctx.degree()]; count],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{CkksContext, CkksParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_ctx() -> CkksContext {
        CkksContext::new(CkksParams {
            poly_degree: 64,
            max_level: 3,
            modulus_bits: 40,
            special_bits: 41,
            error_std: 3.2,
            threads: 1,
        })
    }

    #[test]
    fn ntt_roundtrip_preserves_poly() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        let orig = p.clone();
        p.to_coeff(&ctx);
        p.to_ntt(&ctx);
        assert_eq!(p, orig);
    }

    #[test]
    fn add_neg_cancels() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let p = RnsPoly::uniform(&ctx, 3, true, &mut rng);
        let mut q = p.clone();
        q.neg_assign(&ctx);
        q.add_assign(&ctx, &p);
        assert_eq!(q, RnsPoly::zero(&ctx, 3, true, true));
    }

    #[test]
    fn mul_matches_coefficient_convolution() {
        let ctx = tiny_ctx();
        // (1 + X) · (1 − X) = 1 − X².
        let mut a = vec![0i64; 64];
        a[0] = 1;
        a[1] = 1;
        let mut b = vec![0i64; 64];
        b[0] = 1;
        b[1] = -1;
        let mut pa = RnsPoly::from_signed_coeffs(&ctx, 1, false, &a);
        let mut pb = RnsPoly::from_signed_coeffs(&ctx, 1, false, &b);
        pa.to_ntt(&ctx);
        pb.to_ntt(&ctx);
        let mut prod = pa.mul(&ctx, &pb);
        prod.to_coeff(&ctx);
        let m = ctx.moduli()[0];
        assert_eq!(prod.limb(0)[0], 1);
        assert_eq!(prod.limb(0)[1], 0);
        assert_eq!(prod.limb(0)[2], m.neg(1));
    }

    #[test]
    fn mul_scalar_matches_per_coefficient_multiply() {
        let ctx = tiny_ctx();
        let coeffs: Vec<i64> = (0..64).map(|i| (i as i64 % 17) - 8).collect();
        let s = RnsScalar::from_real(&ctx, 2, false, 12345.0);
        let mut p = RnsPoly::from_signed_coeffs(&ctx, 2, false, &coeffs);
        p.mul_scalar_assign(&ctx, &s);
        for (i, &c) in coeffs.iter().enumerate() {
            for limb in 0..2 {
                let m = ctx.moduli()[limb];
                assert_eq!(
                    m.center(p.limb(limb)[i]),
                    c * 12345,
                    "limb {limb} coefficient {i}"
                );
            }
        }
        // A scalar commutes with the NTT: multiplying in evaluation form
        // then returning to coefficients gives the same polynomial.
        let mut q = RnsPoly::from_signed_coeffs(&ctx, 2, false, &coeffs);
        q.to_ntt(&ctx);
        q.mul_scalar_assign(&ctx, &s);
        q.to_coeff(&ctx);
        assert_eq!(q, p);
    }

    #[test]
    fn scalar_kernels_match_the_constant_polynomial() {
        // Every scalar kernel agrees with the pointwise kernel on the NTT of
        // the constant polynomial, over Q_l and Q_l·P, for a negative and a
        // ≥ 2^64 integer.
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(0x5CA1);
        for special in [false, true] {
            for x in [-77.0, 3.0 * 2f64.powi(70)] {
                let s = RnsScalar::from_real(&ctx, 2, special, x);
                let mut constant = vec![0.0; ctx.degree()];
                constant[0] = x;
                let mut c = RnsPoly::from_real_coeffs(&ctx, 2, special, &constant);
                c.to_ntt(&ctx);
                let a = RnsPoly::uniform(&ctx, 2, special, &mut rng);
                let mut got = a.clone();
                got.mul_scalar_assign(&ctx, &s);
                assert_eq!(got, a.mul(&ctx, &c));
                let mut got = a.clone();
                got.add_scalar_assign(&ctx, &s);
                let mut want = a.clone();
                want.add_assign(&ctx, &c);
                assert_eq!(got, want);
                let acc = RnsPoly::uniform(&ctx, 2, special, &mut rng);
                let (mut got, mut want) = (acc.clone(), acc);
                a.mul_scalar_acc(&ctx, &s, &mut got);
                a.mul_acc(&ctx, &c, &mut want);
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn rescale_divides_by_dropped_prime() {
        let ctx = tiny_ctx();
        // Constant polynomial with value q_1 · 12345 rescales to ≈ 12345.
        let q1 = ctx.moduli()[1].value();
        let v = q1 as f64 * 12345.0;
        let coeffs: Vec<f64> = std::iter::once(v)
            .chain(std::iter::repeat(0.0))
            .take(64)
            .collect();
        let mut p = RnsPoly::from_real_coeffs(&ctx, 2, false, &coeffs);
        p.to_ntt(&ctx);
        p.rescale_last_in(&ctx, &PolyPool::new(ctx.degree()));
        p.to_coeff(&ctx);
        assert_eq!(p.level(), 1);
        let got = ctx.moduli()[0].center(p.limb(0)[0]);
        assert!((got - 12345).abs() <= 1, "rescale rounding off by {got}");
    }

    #[test]
    fn automorphism_identity_and_inverse() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let p = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        assert_eq!(p.automorphism(&ctx, 1), p);
        // g · g⁻¹ ≡ 1 (mod 2N): applying both returns the original.
        let n2 = 2 * ctx.degree();
        let g = 5usize;
        // Find inverse of 5 mod 128.
        let g_inv = (1..n2).step_by(2).find(|&h| (g * h) % n2 == 1).unwrap();
        assert_eq!(p.automorphism(&ctx, g).automorphism(&ctx, g_inv), p);
    }

    #[test]
    fn automorphism_cubes_monomial_with_sign() {
        let ctx = tiny_ctx();
        let n = ctx.degree();
        // p = X^(N−1); X ↦ X^3 gives X^(3N−3) = X^(2N) · X^(N−3) = X^(N−3)
        // (X^N ≡ −1 twice cancels) — check sign bookkeeping, on the oracle
        // and through the index table.
        let mut coeffs = vec![0i64; n];
        coeffs[n - 1] = 1;
        let mut p = RnsPoly::from_signed_coeffs(&ctx, 1, false, &coeffs);
        let mut via_table = p.clone();
        via_table.to_ntt(&ctx);
        let mut via_table = via_table.automorphism(&ctx, 3);
        via_table.to_coeff(&ctx);
        p.automorphism_reference(&ctx, 3);
        assert_eq!(via_table, p);
        let m = ctx.moduli()[0];
        for (i, &c) in p.limb(0).iter().enumerate() {
            if i == n - 3 {
                assert_eq!(c, 1, "X^(N−3) coefficient");
            } else {
                assert_eq!(m.center(c), 0, "coefficient {i}");
            }
        }
    }

    #[test]
    fn index_tables_match_the_coefficient_domain_oracle() {
        // Every limb including the special one, for the rotation elements of
        // ±{1, 2, 3, 7, slots−1} and the conjugation element, at a toy, a
        // serving and a benchmark ring size.
        for (log_n, level) in [(6u32, 3usize), (11, 2), (13, 2)] {
            let ctx = CkksContext::new(CkksParams {
                poly_degree: 1 << log_n,
                max_level: level,
                modulus_bits: 40,
                special_bits: 41,
                error_std: 3.2,
                threads: 1,
            });
            let mut rng = StdRng::seed_from_u64(u64::from(log_n));
            let p = RnsPoly::uniform(&ctx, level, true, &mut rng);
            let slots = ctx.slots() as i64;
            let mut elements: Vec<usize> = [1, 2, 3, 7, slots - 1]
                .into_iter()
                .flat_map(|k| [k, -k])
                .map(|k| crate::keys::rotation_to_galois(&ctx, k))
                .collect();
            elements.push(2 * ctx.degree() - 1);
            for g in elements {
                let mut want = p.clone();
                want.automorphism_reference(&ctx, g);
                let got = p.automorphism(&ctx, g);
                for idx in 0..=level {
                    assert_eq!(
                        got.limbs[idx], want.limbs[idx],
                        "N = 2^{log_n}, g = {g}, limb {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn key_switch_dot_matches_the_eager_oracle_with_grouped_digits() {
        // L = 18 at 61-bit primes (the widest `Modulus::new` admits: half of
        // the chain lies above 2^61), so α = 6 and keys hold three digit
        // pairs. Checked with and without a permutation, at the full level
        // and below it, where the digits pair with a prefix of the key's
        // chain limbs and a partial last digit.
        let big_l = 18;
        let ctx = CkksContext::new(CkksParams {
            poly_degree: 64,
            max_level: big_l,
            modulus_bits: 61,
            special_bits: 61,
            error_std: 3.2,
            threads: 1,
        });
        assert_eq!(ctx.specials().len(), 6);
        let pool = PolyPool::new(ctx.degree());
        let mut rng = StdRng::seed_from_u64(18);
        let k0: Vec<RnsPoly> = (0..3)
            .map(|_| RnsPoly::uniform(&ctx, big_l, true, &mut rng))
            .collect();
        let seeds: Vec<u64> = (0..3).map(|_| rng.gen()).collect();
        // The oracle reads `a` materialized from the seeds.
        let k1: Vec<RnsPoly> = seeds
            .iter()
            .map(|&seed| RnsPoly::expand_uniform_in(None, &ctx, big_l, true, seed))
            .collect();
        let g = crate::keys::rotation_to_galois(&ctx, 3);
        let perm = ctx.galois_permutation(g);
        let digits_at = |l| crate::context::key_switch_digits(l, big_l);
        for l in [18usize, 17, 7, 3, 1] {
            let digits: Vec<RnsPoly> = (0..digits_at(l))
                .map(|_| RnsPoly::uniform(&ctx, l, true, &mut rng))
                .collect();
            for perm in [None, Some(&*perm)] {
                let (got0, got1) = RnsPoly::key_switch_dot(&pool, &ctx, &digits, &k0, &seeds, perm);
                let mut want0 = RnsPoly::zero(&ctx, l, true, true);
                let mut want1 = RnsPoly::zero(&ctx, l, true, true);
                for (j, d) in digits.iter().enumerate() {
                    let d = match perm {
                        Some(_) => d.automorphism(&ctx, g),
                        None => d.clone(),
                    };
                    d.mul_acc_restricted(&ctx, &k0[j], &mut want0);
                    d.mul_acc_restricted(&ctx, &k1[j], &mut want1);
                }
                assert_eq!(got0, want0, "k0, level {l}, permuted {}", perm.is_some());
                assert_eq!(got1, want1, "a, level {l}, permuted {}", perm.is_some());
                // A level-sized key — the digits and limbs a level-`l_k`
                // switch reads — gives the same bytes for every `l_k ≥ l`.
                for lk in [l, (l + 4).min(big_l)] {
                    let sized: Vec<RnsPoly> = k0[..digits_at(lk)]
                        .iter()
                        .map(|p| p.restrict_for_keyswitch(lk))
                        .collect();
                    let (s0, s1) = RnsPoly::key_switch_dot(
                        &pool,
                        &ctx,
                        &digits,
                        &sized,
                        &seeds[..digits_at(lk)],
                        perm,
                    );
                    assert_eq!((&s0, &s1), (&got0, &got1), "level {l}, key level {lk}");
                }
            }
        }
    }

    #[test]
    fn an_expanded_polynomial_is_the_full_basis_one_restricted() {
        for big_l in 1..=10 {
            let ctx = CkksContext::new(CkksParams {
                max_level: big_l,
                ..*tiny_ctx().params()
            });
            let full = RnsPoly::expand_uniform_in(None, &ctx, big_l, true, 0xA5);
            for level in 1..=big_l {
                let keyed = RnsPoly::expand_uniform_in(None, &ctx, level, true, 0xA5);
                assert_eq!(
                    keyed,
                    full.restrict_for_keyswitch(level),
                    "L = {big_l}, {level}"
                );
                let mut mask = full.restrict_for_keyswitch(level);
                mask.drop_to_level(level);
                let plain = RnsPoly::expand_uniform_in(None, &ctx, level, false, 0xA5);
                assert_eq!(plain, mask, "L = {big_l}, level {level} without P");
            }
        }
    }

    #[test]
    fn mul_acc_is_fused_and_allocation_free() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let a = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        let b = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        let mut acc = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        // Reference: materialize the product, then add.
        let mut expect = acc.clone();
        expect.add_assign(&ctx, &a.mul(&ctx, &b));
        // The fused path must write into the existing limb storage — record
        // each limb's data pointer and capacity and check nothing moved.
        let before: Vec<(*const u64, usize)> = (0..acc.limbs.len())
            .map(|i| (acc.limbs[i].as_ptr(), acc.limbs[i].capacity()))
            .collect();
        a.mul_acc(&ctx, &b, &mut acc);
        let after: Vec<(*const u64, usize)> = (0..acc.limbs.len())
            .map(|i| (acc.limbs[i].as_ptr(), acc.limbs[i].capacity()))
            .collect();
        assert_eq!(acc, expect, "fused mul_acc result");
        assert_eq!(before, after, "mul_acc reallocated limb storage");
    }

    /// The tiny context (α = 1) and one with two special primes.
    fn key_switch_ctxs() -> [CkksContext; 2] {
        let wide = CkksContext::new(CkksParams {
            max_level: 6,
            ..*tiny_ctx().params()
        });
        assert_eq!(wide.specials().len(), 2);
        [tiny_ctx(), wide]
    }

    #[test]
    fn mul_acc_restricted_matches_restrict_then_mul_acc() {
        for ctx in key_switch_ctxs() {
            let mut rng = StdRng::seed_from_u64(8);
            // Key poly on the full basis (all L chain limbs + P); operand and
            // accumulator on a lower level plus the special limbs.
            let key = RnsPoly::uniform(&ctx, ctx.max_level(), true, &mut rng);
            let x = RnsPoly::uniform(&ctx, 2, true, &mut rng);
            let mut direct = RnsPoly::uniform(&ctx, 2, true, &mut rng);
            let mut via_restrict = direct.clone();
            x.mul_acc(&ctx, &key.restrict_for_keyswitch(2), &mut via_restrict);
            x.mul_acc_restricted(&ctx, &key, &mut direct);
            assert_eq!(direct, via_restrict);
        }
    }

    #[test]
    fn restrict_keeps_special_limbs() {
        for ctx in key_switch_ctxs() {
            let mut rng = StdRng::seed_from_u64(4);
            let big_l = ctx.max_level();
            let p = RnsPoly::uniform(&ctx, big_l, true, &mut rng);
            let r = p.restrict_for_keyswitch(2);
            assert_eq!(r.level(), 2);
            assert!(r.has_special());
            for j in 0..ctx.specials().len() {
                assert_eq!(r.limb(2 + j), p.limb(big_l + j), "special {j}");
            }
            assert_eq!(r.limb(1), p.limb(1));
        }
    }

    #[test]
    fn mod_down_divides_by_the_product_of_the_specials() {
        // A constant `P·v + r` over `Q_l·P` scales down to `v` (r < P/2
        // rounds away), for α = 1 and α = 2, at the full level and below.
        for ctx in key_switch_ctxs() {
            let pool = PolyPool::new(ctx.degree());
            let big_p: f64 = ctx.specials().iter().map(|p| p.value() as f64).product();
            for l in [ctx.max_level(), 1] {
                for v in [12345.0, -777.0] {
                    let mut coeffs = vec![0.0; ctx.degree()];
                    coeffs[0] = v * big_p + 0.3 * big_p;
                    coeffs[5] = -v * big_p;
                    let mut p = RnsPoly::from_real_coeffs(&ctx, l, true, &coeffs);
                    p.to_ntt(&ctx);
                    p.rescale_special_in(&ctx, &pool);
                    assert!(!p.has_special());
                    p.to_coeff(&ctx);
                    let m = ctx.moduli()[0];
                    // The centered lift rounds exactly at α = 1; a sum of
                    // `α` centered terms may land one `P` off.
                    let slack = i64::from(ctx.specials().len() > 1);
                    let (got0, got5) = (m.center(p.limb(0)[0]), m.center(p.limb(0)[5]));
                    assert!((got0 - v as i64).abs() <= slack, "level {l}: {got0} vs {v}");
                    assert!(
                        (got5 + v as i64).abs() <= slack,
                        "level {l}: {got5} vs {}",
                        -v
                    );
                }
            }
        }
    }

    #[test]
    fn gaussian_coeffs_are_small() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let p = RnsPoly::gaussian(&ctx, 1, false, &mut rng);
        let m = ctx.moduli()[0];
        for &c in p.limb(0) {
            assert!(m.center(c).abs() < 40, "gaussian sample too large");
        }
    }
}
