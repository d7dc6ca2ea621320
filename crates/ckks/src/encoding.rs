//! CKKS encoding: real vectors ↔ integer polynomials via the canonical
//! embedding.
//!
//! A slot vector `v ∈ R^{N/2}` is mapped to the unique real polynomial `p`
//! of degree `< N` with `p(ζ^{5^j}) = v_j` (`ζ` a primitive 2N-th root of
//! unity), then scaled by `m` and rounded to integer coefficients. The
//! evaluation points are the odd powers of `ζ`, so evaluation is a
//! *negacyclic* DFT: twisting coefficients by `ζ^k` reduces it to a
//! standard size-`N` FFT.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::bigint::CrtScratch;
use crate::context::CkksContext;
use crate::poly::{RnsPoly, RnsScalar};
use crate::pool::PolyPool;

/// Minimal complex number (kept local: only the encoder needs it).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates `re + im·i`.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

/// The encoder's tables for one ring degree `N`. They depend on `N` alone,
/// so one copy per degree serves every context: [`FftTables::for_degree`]
/// builds it on first use and shares it.
#[derive(Debug)]
struct FftTables {
    /// `ζ^k` for `k = 0..N` (`ζ = e^{iπ/N}`).
    twist: Vec<Complex>,
    /// Slot `j` ↦ FFT bin `t_j = (5^j mod 2N − 1)/2`.
    slot_to_bin: Vec<u32>,
    /// `i` ↦ `i` with its `log₂ N` bits reversed.
    bit_reverse: Vec<u32>,
    /// The forward twiddles of every stage, stage after stage: the stage of
    /// butterfly span `len` holds its `len/2` powers of `e^{2πi/len}` from
    /// offset `len/2 − 1`, each the product of the one before it and the
    /// stage's root: the recurrence's own values and rounding, which the
    /// encoded bytes depend on. The inverse stages use their conjugates,
    /// which the same recurrence gives exactly: `cos` is even, `sin` odd,
    /// and negation commutes with rounding.
    twiddles: Vec<Complex>,
}

/// Encoder tables per ring degree, built once per process.
static FFT_TABLES: OnceLock<Mutex<HashMap<usize, Arc<FftTables>>>> = OnceLock::new();

impl FftTables {
    /// The shared tables of degree `n`, built on first use.
    fn for_degree(n: usize) -> Arc<FftTables> {
        let cache = FFT_TABLES.get_or_init(|| Mutex::new(HashMap::new()));
        let mut cache = cache.lock().expect("encoder table cache lock");
        cache
            .entry(n)
            .or_insert_with(|| Arc::new(FftTables::new(n)))
            .clone()
    }

    fn new(n: usize) -> FftTables {
        assert!(
            n.is_power_of_two() && n >= 2,
            "degree must be a power of two >= 2"
        );
        let twist = (0..n)
            .map(|k| {
                let ang = std::f64::consts::PI * k as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        let mut slot_to_bin = Vec::with_capacity(n / 2);
        let mut g = 1usize;
        for _ in 0..n / 2 {
            slot_to_bin.push(((g - 1) / 2) as u32);
            g = (g * 5) % (2 * n);
        }
        let log_n = n.trailing_zeros();
        let bit_reverse = (0..n)
            .map(|i| (i.reverse_bits() >> (usize::BITS - log_n)) as u32)
            .collect();
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = std::f64::consts::TAU / len as f64;
            let wl = Complex::new(ang.cos(), ang.sin());
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w.mul(wl);
            }
            len <<= 1;
        }
        FftTables {
            twist,
            slot_to_bin,
            bit_reverse,
            twiddles,
        }
    }

    /// In-place radix-2 FFT computing `X_t = Σ_k x_k ω^{±kt}`,
    /// `ω = e^{2πi/N}`. `inverse = false` uses the `+` sign (our
    /// "evaluation" direction); `inverse = true` uses the `−` sign and
    /// divides by `N`.
    fn fft(&self, x: &mut [Complex], inverse: bool) {
        let n = x.len();
        assert_eq!(n, self.bit_reverse.len(), "an FFT of the tables' degree");
        for (i, &j) in self.bit_reverse.iter().enumerate() {
            let j = j as usize;
            if i < j {
                x.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[half - 1..len - 1];
            for block in x.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let w = if inverse { w.conj() } else { w };
                    let t = v.mul(w);
                    let a = *u;
                    *u = a.add(t);
                    *v = a.sub(t);
                }
            }
            len <<= 1;
        }
        if inverse {
            let inv_n = 1.0 / n as f64;
            for v in x.iter_mut() {
                v.re *= inv_n;
                v.im *= inv_n;
            }
        }
    }
}

/// A plaintext: an encoded polynomial with its scale and level, ready for
/// homomorphic arithmetic (NTT domain) — or, out of
/// [`Encoder::encode_coeffs_in`], ready for encryption (coefficient domain).
#[derive(Debug, Clone)]
pub struct Plaintext {
    /// The encoded polynomial.
    pub poly: RnsPoly,
    /// The encoding scale `m` (exact value, not log).
    pub scale: f64,
    /// The level the plaintext is encoded at.
    pub level: usize,
}

/// A plaintext whose every slot holds one value `c`, encoded without the
/// FFT or the NTTs: the constant polynomial `round(c · scale)` as its
/// residues ([`Encoder::encode_scalar`]).
///
/// It is the plaintext [`Encoder::encode`] makes of the splat `[c; N/2]`,
/// byte for byte. The splat's spectrum is `c` in every bin, and the inverse
/// FFT of a constant keeps every intermediate a power-of-two multiple of `c`
/// or a signed zero, so the interpolated coefficients are exactly
/// `[c, ±0, …, ±0]` and the rounded polynomial is the constant
/// `m = round(c · scale)`. The NTT of a constant is that constant in every
/// slot: `m mod qᵢ` on limb `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarPlaintext {
    /// The encoded constant.
    pub scalar: RnsScalar,
    /// The encoding scale `m` (exact value, not log).
    pub scale: f64,
    /// The level the plaintext is encoded at.
    pub level: usize,
}

/// Encoder/decoder for one context.
#[derive(Debug)]
pub struct Encoder<'c> {
    ctx: &'c CkksContext,
    /// The tables of the context's degree, shared by every encoder of it.
    tables: Arc<FftTables>,
}

impl<'c> Encoder<'c> {
    /// The encoder of a context; its tables are built once per ring degree
    /// and shared.
    pub fn new(ctx: &'c CkksContext) -> Self {
        Encoder {
            ctx,
            tables: FftTables::for_degree(ctx.degree()),
        }
    }

    /// Number of slots (`N/2`).
    pub fn slots(&self) -> usize {
        self.ctx.slots()
    }

    /// Encodes real slot values at the given scale and level. Shorter
    /// inputs are zero-padded.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied, the scale is not
    /// positive/finite, or a value is NaN or infinite (or so large that
    /// `value · scale` overflows `f64`) — callers holding untrusted slot
    /// data check it first, as the encrypted executor's prologue does.
    pub fn encode(&self, values: &[f64], scale: f64, level: usize) -> Plaintext {
        self.encode_impl(values, scale, level, false, None)
    }

    /// [`Encoder::encode`] with the plaintext's limb buffers checked out of
    /// `pool`; return them with [`RnsPoly::recycle`] once the plaintext is
    /// spent.
    pub fn encode_in(
        &self,
        pool: &PolyPool,
        values: &[f64],
        scale: f64,
        level: usize,
    ) -> Plaintext {
        self.encode_impl(values, scale, level, false, Some(pool))
    }

    /// [`Encoder::encode_in`] over the extended basis `Q_l·P`: the same
    /// rounded integer polynomial, reduced into the `α` special primes as
    /// well, so it can multiply a key switch's output before the division
    /// by `P` ([`crate::Evaluator::try_accumulate_rotation`]). Its chain
    /// limbs are [`Encoder::encode_in`]'s.
    pub fn encode_extended_in(
        &self,
        pool: &PolyPool,
        values: &[f64],
        scale: f64,
        level: usize,
    ) -> Plaintext {
        self.encode_impl(values, scale, level, true, Some(pool))
    }

    /// [`Encoder::encode_in`] stopped before the NTTs: the rounded
    /// polynomial in coefficient form, which only encryption takes
    /// ([`crate::encrypt_symmetric_in`] adds its error there and transforms
    /// the sum once). Its NTT is [`Encoder::encode_in`]'s plaintext.
    pub fn encode_coeffs_in(
        &self,
        pool: &PolyPool,
        values: &[f64],
        scale: f64,
        level: usize,
    ) -> Plaintext {
        let poly = self.coefficients(values, scale, level, false, Some(pool));
        Plaintext { poly, scale, level }
    }

    /// Encodes the splat `[value; N/2]` at the given scale and level as a
    /// [`ScalarPlaintext`]: `round(value · scale)` split once and reduced
    /// into each limb by the coefficient path of [`Encoder::encode`]
    /// ([`RnsScalar::from_real`]), any magnitude included.
    ///
    /// # Panics
    ///
    /// As [`Encoder::encode`].
    pub fn encode_scalar(&self, value: f64, scale: f64, level: usize) -> ScalarPlaintext {
        self.encode_scalar_impl(value, scale, level, false)
    }

    /// [`Encoder::encode_scalar`] over the extended basis `Q_l·P`, as
    /// [`Encoder::encode_extended_in`] is [`Encoder::encode_in`].
    pub fn encode_scalar_extended(&self, value: f64, scale: f64, level: usize) -> ScalarPlaintext {
        self.encode_scalar_impl(value, scale, level, true)
    }

    fn encode_scalar_impl(
        &self,
        value: f64,
        scale: f64,
        level: usize,
        special: bool,
    ) -> ScalarPlaintext {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        ScalarPlaintext {
            scalar: RnsScalar::from_real(self.ctx, level, special, value * scale),
            scale,
            level,
        }
    }

    fn encode_impl(
        &self,
        values: &[f64],
        scale: f64,
        level: usize,
        special: bool,
        pool: Option<&PolyPool>,
    ) -> Plaintext {
        let mut poly = self.coefficients(values, scale, level, special, pool);
        poly.to_ntt(self.ctx);
        Plaintext { poly, scale, level }
    }

    /// The rounded polynomial of `values` at `scale`, in coefficient form.
    fn coefficients(
        &self,
        values: &[f64],
        scale: f64,
        level: usize,
        special: bool,
        pool: Option<&PolyPool>,
    ) -> RnsPoly {
        assert!(values.len() <= self.slots(), "too many slot values");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        let n = self.ctx.degree();
        let tables = &*self.tables;
        let mut spectrum = vec![Complex::default(); n];
        for (j, &bin) in tables.slot_to_bin.iter().enumerate() {
            let bin = bin as usize;
            let v = Complex::new(values.get(j).copied().unwrap_or(0.0), 0.0);
            spectrum[bin] = v;
            spectrum[n - 1 - bin] = v.conj();
        }
        // Interpolate: coefficients of the twisted polynomial...
        tables.fft(&mut spectrum, true);
        // ...then untwist: c_k = twisted_k · ζ^{-k}.
        let coeffs: Vec<f64> = spectrum
            .iter()
            .zip(&tables.twist)
            .map(|(&t, &z)| t.mul(z.conj()).re * scale)
            .collect();
        RnsPoly::from_real_coeffs_in(pool, self.ctx, level, special, &coeffs)
    }

    /// Decodes a plaintext back to real slot values.
    ///
    /// Uses exact CRT reconstruction of every coefficient, so decoding is
    /// accurate even under deep modulus chains.
    pub fn decode(&self, pt: &Plaintext) -> Vec<f64> {
        let n = self.ctx.degree();
        let mut poly = pt.poly.clone();
        poly.to_coeff(self.ctx);
        let level = poly.level();
        let crt = self.ctx.crt(level);
        let mut scratch = CrtScratch::default();
        let tables = &*self.tables;
        let mut twisted = vec![Complex::default(); n];
        for (k, (t, &z)) in twisted.iter_mut().zip(&tables.twist).enumerate() {
            let residues = (0..level).map(|i| poly.limb(i)[k]);
            let c = crt.centered_f64(residues, &mut scratch);
            *t = z.mul(Complex::new(c, 0.0));
        }
        tables.fft(&mut twisted, false);
        tables
            .slot_to_bin
            .iter()
            .map(|&bin| twisted[bin as usize].re / pt.scale)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{CkksContext, CkksParams};

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams {
            poly_degree: 128,
            max_level: 3,
            modulus_bits: 45,
            special_bits: 46,
            error_std: 3.2,
            threads: 1,
        })
    }

    /// The recurrence FFT: bit reversal by an incremental counter, and each
    /// stage's twiddles by `w ← w · w_len` from `w_len = e^{±2πi/len}` —
    /// the oracle the tables must match bit for bit.
    fn fft_reference(x: &mut [Complex], inverse: bool) {
        let n = x.len();
        assert!(n.is_power_of_two());
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                x.swap(i, j);
            }
        }
        let sign = if inverse { -1.0 } else { 1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * std::f64::consts::TAU / len as f64;
            let wl = Complex::new(ang.cos(), ang.sin());
            for start in (0..n).step_by(len) {
                let mut w = Complex::new(1.0, 0.0);
                for k in 0..len / 2 {
                    let u = x[start + k];
                    let v = x[start + k + len / 2].mul(w);
                    x[start + k] = u.add(v);
                    x[start + k + len / 2] = u.sub(v);
                    w = w.mul(wl);
                }
            }
            len <<= 1;
        }
        if inverse {
            let inv_n = 1.0 / n as f64;
            for v in x.iter_mut() {
                v.re *= inv_n;
                v.im *= inv_n;
            }
        }
    }

    fn bits(x: &[Complex]) -> Vec<(u64, u64)> {
        x.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn table_fft_matches_the_recurrence_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xFF7);
        for log_n in 1..=14 {
            let n = 1usize << log_n;
            let tables = FftTables::new(n);
            for inverse in [false, true] {
                let x: Vec<Complex> = (0..n)
                    .map(|_| Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3)))
                    .collect();
                let (mut got, mut want) = (x.clone(), x);
                tables.fft(&mut got, inverse);
                fft_reference(&mut want, inverse);
                assert_eq!(bits(&got), bits(&want), "N = {n}, inverse = {inverse}");
            }
        }
    }

    #[test]
    fn tables_are_built_once_per_degree() {
        let a = FftTables::for_degree(64);
        let b = FftTables::for_degree(64);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &FftTables::for_degree(128)));
    }

    #[test]
    fn fft_roundtrip() {
        let tables = FftTables::new(16);
        let mut x: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, (i * i) as f64 * 0.1))
            .collect();
        let orig = x.clone();
        tables.fft(&mut x, false);
        tables.fft(&mut x, true);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn a_scalar_encodes_to_the_splat_s_limbs() {
        let ctx = ctx();
        let enc = Encoder::new(&ctx);
        for c in [0.0, -0.0, 1.0, -3.25, 1e-12, 7.5e6, -2f64.powi(40)] {
            for level in 1..=3 {
                let splat = vec![c; enc.slots()];
                let scale = 2f64.powi(30);
                let pt = enc.encode(&splat, scale, level);
                let s = enc.encode_scalar(c, scale, level);
                assert_eq!((s.scale, s.level), (pt.scale, pt.level));
                for i in 0..level {
                    let r = s.scalar.residues()[i];
                    assert!(
                        pt.poly.limb(i).iter().all(|&x| x == r),
                        "c = {c:e}, limb {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = ctx();
        let enc = Encoder::new(&ctx);
        let values: Vec<f64> = (0..enc.slots())
            .map(|i| (i as f64 * 0.37).sin() * 3.0)
            .collect();
        let pt = enc.encode(&values, 2f64.powi(30), 2);
        let back = enc.decode(&pt);
        for (a, b) in back.iter().zip(&values) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn short_input_zero_pads() {
        let ctx = ctx();
        let enc = Encoder::new(&ctx);
        let pt = enc.encode(&[1.5, -2.5], 2f64.powi(30), 1);
        let back = enc.decode(&pt);
        assert!((back[0] - 1.5).abs() < 1e-6);
        assert!((back[1] + 2.5).abs() < 1e-6);
        assert!(back[2].abs() < 1e-6);
    }

    #[test]
    fn encoding_is_additively_homomorphic() {
        let ctx = ctx();
        let enc = Encoder::new(&ctx);
        let a: Vec<f64> = (0..enc.slots()).map(|i| i as f64 * 0.01).collect();
        let b: Vec<f64> = (0..enc.slots()).map(|i| 1.0 - i as f64 * 0.02).collect();
        let scale = 2f64.powi(30);
        let pa = enc.encode(&a, scale, 1);
        let pb = enc.encode(&b, scale, 1);
        let mut sum = pa.poly.clone();
        sum.add_assign(&ctx, &pb.poly);
        let pt = Plaintext {
            poly: sum,
            scale,
            level: 1,
        };
        let back = enc.decode(&pt);
        for (i, v) in back.iter().enumerate() {
            assert!((v - (a[i] + b[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn encoding_product_multiplies_slotwise() {
        // Negacyclic poly product == slotwise product of embeddings.
        let ctx = ctx();
        let enc = Encoder::new(&ctx);
        let a: Vec<f64> = (0..enc.slots())
            .map(|i| ((i * 7 % 5) as f64) - 2.0)
            .collect();
        let b: Vec<f64> = (0..enc.slots())
            .map(|i| ((i * 3 % 4) as f64) * 0.5)
            .collect();
        let scale = 2f64.powi(25);
        let pa = enc.encode(&a, scale, 2);
        let pb = enc.encode(&b, scale, 2);
        let prod = pa.poly.mul(&ctx, &pb.poly);
        let pt = Plaintext {
            poly: prod,
            scale: scale * scale,
            level: 2,
        };
        let back = enc.decode(&pt);
        for (i, v) in back.iter().enumerate() {
            assert!(
                (v - a[i] * b[i]).abs() < 1e-4,
                "slot {i}: {v} vs {}",
                a[i] * b[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "too many")]
    fn rejects_oversized_input() {
        let ctx = ctx();
        let enc = Encoder::new(&ctx);
        let _ = enc.encode(&vec![0.0; 65], 2f64.powi(30), 1);
    }
}
