//! CKKS encoding: real vectors ↔ integer polynomials via the canonical
//! embedding.
//!
//! A slot vector `v ∈ R^{N/2}` is mapped to the unique real polynomial `p`
//! of degree `< N` with `p(ζ^{5^j}) = v_j` (`ζ` a primitive 2N-th root of
//! unity), then scaled by `m` and rounded to integer coefficients. The
//! evaluation points are the odd powers of `ζ`, so evaluation is a
//! *negacyclic* DFT: twisting coefficients by `ζ^k` reduces it to a
//! standard size-`N` FFT.

use crate::bigint::CrtScratch;
use crate::context::CkksContext;
use crate::poly::RnsPoly;
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

/// In-place radix-2 FFT computing `X_t = Σ_k x_k ω^{±kt}`, `ω = e^{2πi/N}`.
/// `inverse = false` uses the `+` sign (our "evaluation" direction);
/// `inverse = true` uses the `−` sign and divides by `N`.
fn fft(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    assert!(n.is_power_of_two());
    // Bit-reversal permutation.
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

/// A plaintext: an encoded polynomial with its scale and level, ready for
/// homomorphic arithmetic (NTT domain).
#[derive(Debug, Clone)]
pub struct Plaintext {
    /// The encoded polynomial.
    pub poly: RnsPoly,
    /// The encoding scale `m` (exact value, not log).
    pub scale: f64,
    /// The level the plaintext is encoded at.
    pub level: usize,
}

/// Encoder/decoder for one context.
#[derive(Debug)]
pub struct Encoder<'c> {
    ctx: &'c CkksContext,
    /// `ζ^k` for `k = 0..N` (`ζ = e^{iπ/N}`).
    twist: Vec<Complex>,
    /// Slot `j` ↦ FFT bin `t_j = (5^j mod 2N − 1)/2`.
    slot_to_bin: Vec<usize>,
}

impl<'c> Encoder<'c> {
    /// Builds the encoder tables for a context.
    pub fn new(ctx: &'c CkksContext) -> Self {
        let n = ctx.degree();
        let twist = (0..n)
            .map(|k| {
                let ang = std::f64::consts::PI * k as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        let mut slot_to_bin = Vec::with_capacity(n / 2);
        let mut g = 1usize;
        for _ in 0..n / 2 {
            slot_to_bin.push((g - 1) / 2);
            g = (g * 5) % (2 * n);
        }
        Encoder {
            ctx,
            twist,
            slot_to_bin,
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

    fn encode_impl(
        &self,
        values: &[f64],
        scale: f64,
        level: usize,
        special: bool,
        pool: Option<&PolyPool>,
    ) -> Plaintext {
        assert!(values.len() <= self.slots(), "too many slot values");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        let n = self.ctx.degree();
        let mut spectrum = vec![Complex::default(); n];
        for (j, &bin) in self.slot_to_bin.iter().enumerate() {
            let v = Complex::new(values.get(j).copied().unwrap_or(0.0), 0.0);
            spectrum[bin] = v;
            spectrum[n - 1 - bin] = v.conj();
        }
        // Interpolate: coefficients of the twisted polynomial...
        fft(&mut spectrum, true);
        // ...then untwist: c_k = twisted_k · ζ^{-k}.
        let coeffs: Vec<f64> = spectrum
            .iter()
            .enumerate()
            .map(|(k, &t)| t.mul(self.twist[k].conj()).re * scale)
            .collect();
        let mut poly = RnsPoly::from_real_coeffs_in(pool, self.ctx, level, special, &coeffs);
        poly.to_ntt(self.ctx);
        Plaintext { poly, scale, level }
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
        let mut twisted = vec![Complex::default(); n];
        for (k, t) in twisted.iter_mut().enumerate() {
            let residues = (0..level).map(|i| poly.limb(i)[k]);
            let c = crt.centered_f64(residues, &mut scratch);
            *t = self.twist[k].mul(Complex::new(c, 0.0));
        }
        fft(&mut twisted, false);
        self.slot_to_bin
            .iter()
            .map(|&bin| twisted[bin].re / pt.scale)
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

    #[test]
    fn fft_roundtrip() {
        let mut x: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, (i * i) as f64 * 0.1))
            .collect();
        let orig = x.clone();
        fft(&mut x, false);
        fft(&mut x, true);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
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
