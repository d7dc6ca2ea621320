//! 64-bit modular arithmetic for NTT-friendly primes.
//!
//! Products avoid the hardware `u128 %` division entirely: every [`Modulus`]
//! precomputes its Barrett constants at construction, so a general modular
//! product of two residues is three word multiplications plus two branchless
//! corrections. Multiplications by a *constant* operand (twiddle factors,
//! rescale inverses, `N⁻¹`) use Shoup's trick — a precomputed quotient turns
//! the product into two word multiplications and a conditional subtraction,
//! and the `*_lazy` variant skips the correction to keep values in `[0, 2q)`
//! for the Harvey NTT butterflies (see `ntt.rs` and DESIGN.md § Kernel
//! optimization). The `u128 %` path survives only as
//! [`Modulus::mul_reference`], the oracle the property tests and the
//! `kernels` bench compare against.

/// A word-sized prime modulus with the arithmetic the scheme needs.
///
/// General products use Barrett reduction off a precomputed one-word
/// constant ([`Modulus::mul`]); constant-operand products use Shoup
/// precomputed-quotient multiplication ([`Modulus::mul_shoup`]). The
/// `q < 2^62` bound leaves the headroom the lazy `[0, 4q)` NTT butterflies
/// need in 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
    /// `⌊2^64 / q⌋` — Barrett constant for one-word reduction.
    ratio64: u64,
    /// `⌊2^128 / q⌋` — Barrett constant for two-word reduction.
    ratio128: u128,
    /// `⌊2^(64 + shift) / q⌋ < 2^63` — Barrett constant for a product of
    /// two residues ([`Modulus::mul`]).
    ratio_mul: u64,
    /// `bits(q) − 2`: how far [`Modulus::mul`] shifts the product down
    /// before multiplying by `ratio_mul`.
    shift: u32,
}

/// High 128 bits of the 256-bit product `a · b`.
#[inline]
fn mul_hi_128(a: u128, b: u128) -> u128 {
    let a_lo = a as u64 as u128;
    let a_hi = (a >> 64) as u64 as u128;
    let b_lo = b as u64 as u128;
    let b_hi = (b >> 64) as u64 as u128;
    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;
    let mid = (ll >> 64) + (lh as u64 as u128) + (hl as u64 as u128);
    hh + (lh >> 64) + (hl >> 64) + (mid >> 64)
}

impl Modulus {
    /// Wraps a modulus value and precomputes its Barrett constants.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62` (headroom for lazy additions).
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be at least 2");
        assert!(q < 1 << 62, "modulus must leave headroom below 2^62");
        // ⌊2^k / q⌋: when q is not a power of two it does not divide 2^k,
        // so ⌊(2^k − 1) / q⌋ is the same value; when q = 2^t the quotient
        // is exactly 2^(k−t) (t ≥ 1, so the shift never overflows).
        let (ratio64, ratio128) = if q.is_power_of_two() {
            let t = q.trailing_zeros();
            (1u64 << (64 - t), 1u128 << (128 - t))
        } else {
            (u64::MAX / q, u128::MAX / q as u128)
        };
        let shift = u64::BITS - q.leading_zeros() - 2;
        let ratio_mul = ((1u128 << (64 + shift)) / q as u128) as u64;
        Modulus {
            q,
            ratio64,
            ratio128,
            ratio_mul,
            shift,
        }
    }

    /// The modulus value.
    pub fn value(self) -> u64 {
        self.q
    }

    /// `(a + b) mod q` for operands already `< q`.
    #[inline]
    pub fn add(self, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// `(a - b) mod q` for operands already `< q`.
    #[inline]
    pub fn sub(self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// `-a mod q` for `a < q`.
    #[inline]
    pub fn neg(self, a: u64) -> u64 {
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// `(a · b) mod q` for operands already `< q`, by Barrett reduction of
    /// the 128-bit product (no hardware division): three word
    /// multiplications and two branchless corrections.
    ///
    /// With `b = bits(q)`, `s = b − 2` and `μ = ⌊2^(64+s) / q⌋`, the product
    /// `x < 2^(2b)` shifted down by `s` fits a word, and `⌊(x ≫ s)·μ / 2^64⌋`
    /// undershoots `⌊x / q⌋` by at most 2 (the shift drops less than one
    /// unit, `x / 2^(64+s) ≤ 1`, and `2^s / q ≤ 1/2`), so the remainder
    /// before the corrections is below `3q < 2^64`.
    #[inline]
    pub fn mul(self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q, "operands of mul are residues");
        let x = a as u128 * b as u128;
        let quot = (((x >> self.shift) as u64 as u128 * self.ratio_mul as u128) >> 64) as u64;
        let r = (x as u64).wrapping_sub(quot.wrapping_mul(self.q));
        // `r − q` wraps past `r` exactly when `r < q`.
        let r = r.min(r.wrapping_sub(self.q));
        r.min(r.wrapping_sub(self.q))
    }

    /// `(a · b) mod q` through the `u128 %` hardware division — the slow
    /// but transparently correct kernel this module used before Barrett
    /// reduction. Kept as the oracle for property tests and the `kernels`
    /// bench baseline.
    #[inline]
    pub fn mul_reference(self, a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % self.q as u128) as u64
    }

    /// Shoup precomputed quotient `⌊w · 2^64 / q⌋` for a constant
    /// multiplier `w < q`, consumed by [`Modulus::mul_shoup`].
    ///
    /// # Panics
    ///
    /// Panics if `w >= q`.
    #[inline]
    pub fn shoup(self, w: u64) -> u64 {
        assert!(w < self.q, "Shoup precomputation requires w < q");
        (((w as u128) << 64) / self.q as u128) as u64
    }

    /// `(a · w) mod q` for a constant `w < q` with its Shoup companion
    /// `w_shoup = self.shoup(w)`. `a` may be any `u64` (lazy NTT values
    /// included); the result is fully reduced into `[0, q)`.
    #[inline]
    pub fn mul_shoup(self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let r = self.mul_shoup_lazy(a, w, w_shoup);
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Lazy Shoup product: same as [`Modulus::mul_shoup`] but the result is
    /// only guaranteed to be in `[0, 2q)` — the Harvey butterfly invariant.
    #[inline]
    pub fn mul_shoup_lazy(self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let quot = ((a as u128 * w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(quot.wrapping_mul(self.q))
    }

    /// Reduces an arbitrary `u64` into `[0, q)` (one-word Barrett).
    #[inline]
    pub fn reduce(self, a: u64) -> u64 {
        let quot = ((a as u128 * self.ratio64 as u128) >> 64) as u64;
        let r = a - quot * self.q;
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Reduces an arbitrary `u128` into `[0, q)` (two-word Barrett).
    #[inline]
    pub fn reduce_u128(self, a: u128) -> u64 {
        let quot = mul_hi_128(a, self.ratio128);
        let r = (a - quot * self.q as u128) as u64;
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// How many products of two residues a `u128` accumulator holds before
    /// it must be reduced ([`Modulus::reduce_u128`]): a residue is below
    /// `2^b` for `b` the bit length of `q`, so `2^(128 − 2b)` products —
    /// plus the reduced carry-over of the previous window — stay below
    /// `2^128`. 16 at the `q < 2^62` ceiling; unbounded in practice for the
    /// 45–50-bit primes of the test contexts.
    #[inline]
    pub fn lazy_window(self) -> usize {
        let bits = u64::BITS - self.q.leading_zeros();
        1 << (128 - 2 * bits).min(usize::BITS - 1)
    }

    /// Reduces a signed value into `[0, q)`: its magnitude by one-word
    /// Barrett, negated for a negative value — `a.rem_euclid(q)` without the
    /// hardware division.
    #[inline]
    pub fn reduce_i64(self, a: i64) -> u64 {
        let r = self.reduce(a.unsigned_abs());
        let negated = self.neg(r);
        if a < 0 {
            negated
        } else {
            r
        }
    }

    /// `a^e mod q` by square-and-multiply.
    pub fn pow(self, mut a: u64, mut e: u64) -> u64 {
        a = self.reduce(a);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, a);
            }
            a = self.mul(a, a);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse of `a` (requires `q` prime and `a ≠ 0 mod q`).
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod q)`.
    pub fn inv(self, a: u64) -> u64 {
        let a = self.reduce(a);
        assert!(a != 0, "no inverse of 0");
        // Fermat: a^(q-2) mod q.
        self.pow(a, self.q - 2)
    }

    /// Lifts a residue to the centered representative in `(-q/2, q/2]`.
    #[inline]
    pub fn center(self, a: u64) -> i64 {
        if a > self.q / 2 {
            a as i64 - self.q as i64
        } else {
            a as i64
        }
    }
}

/// An integer-valued `f64` taken apart once: `±mant · 2^shift` with
/// `mant < 2^53`, and `shift = 0` whenever the magnitude is below 2^53 — so
/// the same split serves every modulus of an RNS basis
/// ([`Pow2Table::reduce_split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitF64 {
    mant: u64,
    shift: u16,
    neg: bool,
}

impl SplitF64 {
    /// Largest `shift` a finite `f64` carries: `f64::MAX = (2^53 − 1) · 2^971`.
    const MAX_SHIFT: usize = 971;

    /// Rounds `x` to the nearest integer (ties away from zero, as
    /// [`f64::round`]) and splits it. Exact: the mantissa and binary exponent
    /// are read straight out of the IEEE-754 bit pattern, and an integer
    /// below 2^53 has its trailing zero bits shifted out rather than
    /// divided out modulo anything.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite.
    #[inline]
    pub fn round(x: f64) -> Self {
        assert!(x.is_finite(), "cannot reduce non-finite value");
        let bits = x.round().to_bits();
        let neg = bits >> 63 == 1;
        let raw_exp = ((bits >> 52) & 0x7FF) as i32;
        let (mant, shift) = if raw_exp == 0 {
            // ±0: a rounded value is never subnormal.
            (0, 0)
        } else {
            // |round(x)| = mant · 2^exp with mant in [2^52, 2^53); being an
            // integer ≥ 1, exp ≥ −52 and the bits shifted out are zeros.
            let mant = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
            let exp = raw_exp - 1075;
            if exp < 0 {
                (mant >> -exp, 0)
            } else {
                (mant, exp as u16)
            }
        };
        SplitF64 { mant, shift, neg }
    }
}

/// The float→residue reduction of one modulus: `2^k mod q` for every shift
/// a [`SplitF64`] can carry, built by doubling when the context is, so that
/// reducing a coefficient never exponentiates or inverts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pow2Table {
    m: Modulus,
    pow2: Vec<u64>,
}

impl Pow2Table {
    /// The table of `m`.
    pub fn new(m: Modulus) -> Self {
        let pow2 = std::iter::successors(Some(m.reduce(1)), |&p| Some(m.add(p, p)))
            .take(SplitF64::MAX_SHIFT + 1)
            .collect();
        Pow2Table { m, pow2 }
    }

    /// Reduces the integer `s` into `[0, q)`, exactly: one Barrett
    /// [`Modulus::reduce`] of the mantissa, plus — only for magnitudes of
    /// 2^53 and up — one product with the tabulated `2^shift mod q`.
    #[inline]
    pub fn reduce_split(&self, s: SplitF64) -> u64 {
        let m = self.m;
        let mut mag = m.reduce(s.mant);
        if s.shift != 0 {
            mag = m.mul(mag, self.pow2[usize::from(s.shift)]);
        }
        if s.neg {
            m.neg(mag)
        } else {
            mag
        }
    }
}

/// Deterministic Miller–Rabin primality test, exact for all `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let m = Modulus::new(n);
    let mut d = n - 1;
    let mut r = 0;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    // This witness set is deterministic for all 64-bit integers.
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = m.pow(a, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = m.mul(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const Q: u64 = (1 << 61) - 1; // not NTT-friendly, fine for arithmetic

    /// Reduces `round(x)` into `[0, q)` the way the encoder does: one split,
    /// then one reduction per modulus.
    fn reduce_f64(t: &Pow2Table, x: f64) -> u64 {
        t.reduce_split(SplitF64::round(x))
    }

    #[test]
    fn add_sub_neg() {
        let m = Modulus::new(17);
        assert_eq!(m.add(9, 12), 4);
        assert_eq!(m.sub(3, 5), 15);
        assert_eq!(m.neg(0), 0);
        assert_eq!(m.neg(5), 12);
    }

    #[test]
    fn mul_pow_inv() {
        let m = Modulus::new(Q);
        let a = 123456789012345678u64 % Q;
        assert_eq!(m.mul(a, 1), a);
        assert_eq!(m.pow(a, 0), 1);
        assert_eq!(m.pow(a, 3), m.mul(m.mul(a, a), a));
        let inv = m.inv(a);
        assert_eq!(m.mul(a, inv), 1);
    }

    #[test]
    fn barrett_agrees_with_reference() {
        // Primes across the supported range, including just below 2^62,
        // power-of-two and tiny moduli.
        for &q in &[
            2u64,
            3,
            17,
            1 << 20,
            (1 << 40) - 87,
            Q,
            (1 << 62) - 57, // just below the 2^62 headroom bound
        ] {
            let m = Modulus::new(q);
            let mut rng = StdRng::seed_from_u64(q);
            for case in 0..2000u64 {
                let a = rng.gen_range(0..q);
                let b = rng.gen_range(0..q);
                assert_eq!(
                    m.mul(a, b),
                    m.mul_reference(a, b),
                    "q={q} case={case} a={a} b={b}"
                );
                let r: u64 = rng.gen();
                assert_eq!(m.reduce(r), r % q, "q={q} reduce({r})");
                let z: u128 = (rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128;
                assert_eq!(m.reduce_u128(z), (z % q as u128) as u64, "q={q} u128");
            }
            // Boundary operands.
            for &(a, b) in &[(0, 0), (0, q - 1), (1, q - 1), (q - 1, q - 1)] {
                assert_eq!(m.mul(a, b), m.mul_reference(a, b), "q={q} a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_agrees_with_reference_for_every_modulus_width() {
        // Random moduli of every bit length in [2, 2^62), with the ends of
        // each length (2^(b−1), 2^b − 1) and the residues at the edges:
        // the quotient estimate's error bound depends on `bits(q)` alone.
        let mut rng = StdRng::seed_from_u64(0x0BA5_5E77);
        let mut moduli = vec![2u64, 3];
        for bits in 2..=62u32 {
            let lo = 1u64 << (bits - 1);
            let hi = (1u64 << bits) - 1;
            moduli.extend([lo, hi, lo + 1]);
            moduli.extend((0..6).map(|_| rng.gen_range(lo..hi)));
        }
        for q in moduli.into_iter().filter(|&q| q >= 2) {
            let m = Modulus::new(q);
            let mut operands: Vec<u64> = vec![0, 1, q - 1, q / 2, q.div_ceil(2)];
            operands.extend((0..24).map(|_| rng.gen_range(0..q)));
            for &a in &operands {
                for &b in &operands {
                    assert_eq!(m.mul(a, b), m.mul_reference(a, b), "q={q} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn shoup_agrees_with_reference() {
        for &q in &[17u64, (1 << 50) - 27, Q, (1 << 62) - 57] {
            let m = Modulus::new(q);
            let mut rng = StdRng::seed_from_u64(!q);
            for _ in 0..2000 {
                let w = rng.gen_range(0..q);
                let ws = m.shoup(w);
                // a may be any u64, not just a reduced residue.
                let a: u64 = rng.gen();
                assert_eq!(m.mul_shoup(a, w, ws), m.mul_reference(a % q, w), "q={q}");
                let lazy = m.mul_shoup_lazy(a, w, ws);
                assert!(lazy < 2 * q, "lazy result out of [0, 2q): q={q}");
                assert_eq!(m.reduce(lazy), m.mul_reference(a % q, w), "q={q} lazy");
            }
            for &w in &[0u64, 1, q - 1] {
                let ws = m.shoup(w);
                for &a in &[0u64, 1, q - 1, u64::MAX] {
                    assert_eq!(m.mul_shoup(a, w, ws), m.mul_reference(a % q, w));
                }
            }
        }
    }

    #[test]
    fn center_lifts_symmetrically() {
        let m = Modulus::new(101);
        assert_eq!(m.center(0), 0);
        assert_eq!(m.center(50), 50);
        assert_eq!(m.center(51), -50);
        assert_eq!(m.center(100), -1);
    }

    #[test]
    fn reduce_i64_handles_negatives() {
        let m = Modulus::new(101);
        assert_eq!(m.reduce_i64(-1), 100);
        assert_eq!(m.reduce_i64(-101), 0);
        assert_eq!(m.reduce_i64(205), 3);
    }

    #[test]
    fn reduce_i64_is_rem_euclid_on_every_modulus_of_an_l10_context() {
        use crate::context::{CkksContext, CkksParams};
        use rand::{Rng, SeedableRng};
        let ctx = CkksContext::new(CkksParams {
            poly_degree: 1 << 13,
            max_level: 10,
            modulus_bits: 60,
            special_bits: 61,
            error_std: 3.2,
            threads: 1,
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1664);
        for &m in ctx.basis() {
            let q = m.value() as i64;
            let mut values = vec![i64::MIN, i64::MIN + 1, i64::MAX, 0, 1, -1];
            for k in [1, 2, 3, i64::MAX / q] {
                for v in [k * q, -k * q] {
                    values.extend([v - 1, v, v + 1]);
                }
            }
            values.extend((0..1000).map(|_| rng.gen::<u64>() as i64));
            values.extend((0..1000).map(|_| rng.gen_range(-40i64..=40)));
            for v in values {
                assert_eq!(m.reduce_i64(v), v.rem_euclid(q) as u64, "q = {q}, v = {v}");
            }
        }
    }

    #[test]
    fn reduce_f64_matches_integer_reduction() {
        let m = Modulus::new(Q);
        let t = Pow2Table::new(m);
        for &x in &[
            0.0,
            1.0,
            -1.0,
            123456789.0,
            -987654321.0,
            2f64.powi(80),
            -2f64.powi(75),
        ] {
            let r = reduce_f64(&t, x);
            if x.abs() < 2f64.powi(53) {
                assert_eq!(r, m.reduce_i64(x as i64), "x = {x}");
            }
            assert!(r < Q);
        }
        // 2^80 mod q computed independently.
        let expect = m.pow(2, 80);
        assert_eq!(reduce_f64(&t, 2f64.powi(80)), expect);
        assert_eq!(reduce_f64(&t, -(2f64.powi(80))), m.neg(expect));
        // 1.5 · 2^61 is representable; check against exact integer math.
        let expect = m.mul(3, m.pow(2, 60));
        assert_eq!(reduce_f64(&t, 3.0 * 2f64.powi(60)), expect);
    }

    #[test]
    fn reduce_f64_power_of_two_boundaries() {
        // Exact powers of two up to the largest finite exponent: the shift
        // out of the mantissa (k < 52), the hand-over to the table (52, 53)
        // and the table's last entry (2^1023 = 2^52 · 2^971).
        let m = Modulus::new(Q);
        let t = Pow2Table::new(m);
        for k in [0i32, 1, 51, 52, 53, 61, 62, 80, 500, 1023] {
            let x = 2f64.powi(k);
            let expect = m.pow(2, k as u64);
            assert_eq!(reduce_f64(&t, x), expect, "2^{k}");
            assert_eq!(reduce_f64(&t, -x), m.neg(expect), "-2^{k}");
        }
        assert_eq!(
            reduce_f64(&t, f64::MAX),
            m.mul(m.reduce((1 << 53) - 1), m.pow(2, 971))
        );
    }

    #[test]
    fn reduce_f64_rounds_to_the_nearest_integer_first() {
        let m = Modulus::new(Q);
        let t = Pow2Table::new(m);
        for (x, expect) in [
            (0.4, 0),
            (0.5, 1),
            (-0.5, Q - 1),
            (2.5, 3),
            (-0.0, 0),
            (2f64.powi(-80), 0),
            (f64::from_bits(1), 0), // smallest subnormal
            (2f64.powi(51) + 0.5, m.reduce((1 << 51) + 1)),
        ] {
            assert_eq!(reduce_f64(&t, x), expect, "x = {x:e}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn reduce_f64_rejects_nan() {
        reduce_f64(&Pow2Table::new(Modulus::new(Q)), f64::NAN);
    }

    #[test]
    fn primality() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(1));
        assert!(!is_prime(561)); // Carmichael
        assert!(is_prime((1 << 61) - 1)); // Mersenne prime
        assert!(!is_prime((1u64 << 60) + 1));
    }
}
