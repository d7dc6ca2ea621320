//! The one uniform sampler: residues mod `q` expanded from a 64-bit seed.
//!
//! The uniform half `a` of a switching key and the mask of a fresh
//! ciphertext hold no secret, so neither is stored as drawn: a key keeps one
//! seed per digit and a key switch regenerates `a` limb by limb while it
//! accumulates ([`crate::poly::RnsPoly`]'s inner product), and encryption
//! draws one seed per mask. Limb `b` of a seed's polynomial — `b` the
//! absolute index in the extended basis `Q_L·P`, chain primes first — comes
//! from its own stream keyed by `(seed, b)`. Nothing else goes into a
//! stream, so a polynomial over any basis is the full-basis one restricted,
//! limb for limb, and a level-`l` key or mask is the level-`L` one cut.
//!
//! A stream is eight xoshiro256++ generators side by side in
//! structure-of-arrays form, so one step is eight independent lanes the
//! compiler can vectorize. Limb `b` is the stream's words reduced mod `q_b`
//! (one-word Barrett, no division). A key switch skips even that: it feeds
//! the raw words to its `u128` accumulators, which reduce once per output
//! anyway, so a limb of `a` costs it only the generator's steps. A word
//! `x mod q` has `⌊2^64/q⌋` or `⌈2^64/q⌉` preimages, a statistical distance
//! from uniform of at most `q / 2^66` per coefficient: the same draw as the
//! workspace's `rand` shim makes for `gen_range`, which is xoshiro256++
//! too. Neither is a cryptographic generator (see the shim's note); a
//! hardened build would expand a XOF with rejection here.

use crate::modular::Modulus;

/// Generators per stream, stepped together.
const LANES: usize = 8;

/// One `(seed, basis index)` stream of residues ([`UniformStream::fill`]).
///
/// The stream moves in blocks of eight words, so a limb filled in pieces
/// is the limb filled at once when every piece but the last is a multiple
/// of eight long (any power-of-two piece and ring degree is).
#[derive(Debug, Clone)]
pub struct UniformStream {
    /// The four xoshiro256++ state words, one array of lanes each.
    state: [[u64; LANES]; 4],
}

impl UniformStream {
    /// The stream of limb `basis_index` (its index in `Q_L·P`) of the
    /// polynomial expanded from `seed`.
    pub fn new(seed: u64, basis_index: usize) -> Self {
        let mut z = splitmix64(seed ^ splitmix64(basis_index as u64));
        let mut state = [[0; LANES]; 4];
        for word in &mut state {
            for lane in word.iter_mut() {
                z = z.wrapping_add(GOLDEN_GAMMA);
                *lane = splitmix64(z);
            }
        }
        UniformStream { state }
    }

    /// One xoshiro256++ step of every lane.
    #[inline(always)]
    fn next_block(&mut self) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.state;
        let mut out = [0u64; LANES];
        for i in 0..LANES {
            out[i] = s0[i]
                .wrapping_add(s3[i])
                .rotate_left(23)
                .wrapping_add(s0[i]);
            let t = s1[i] << 17;
            s2[i] ^= s0[i];
            s3[i] ^= s1[i];
            s1[i] ^= s2[i];
            s0[i] ^= s3[i];
            s2[i] ^= t;
            s3[i] = s3[i].rotate_left(45);
        }
        out
    }

    /// Writes the stream's next `out.len()` words, uniform on `[0, 2^64)`:
    /// the limb's residues before their reduction mod `q`.
    #[inline]
    pub(crate) fn fill_words(&mut self, out: &mut [u64]) {
        for chunk in out.chunks_mut(LANES) {
            let block = self.next_block();
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
    }

    /// Writes the stream's next `out.len()` residues mod `q`: its words,
    /// each reduced by one-word Barrett.
    pub fn fill(&mut self, q: Modulus, out: &mut [u64]) {
        for chunk in out.chunks_mut(LANES) {
            let block = self.next_block();
            for (o, &x) in chunk.iter_mut().zip(&block) {
                *o = q.reduce(x);
            }
        }
    }
}

/// The SplitMix64 increment.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: decorrelates seeds derived from related inputs.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{CkksContext, CkksParams};

    /// `L = 10`, `N = 2^13`, at the benchmark's 60-bit chain and 61-bit
    /// special primes.
    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams {
            poly_degree: 1 << 13,
            max_level: 10,
            modulus_bits: 60,
            special_bits: 61,
            error_std: 3.2,
            threads: 1,
        })
    }

    fn limb(seed: u64, b: usize, m: Modulus, n: usize) -> Vec<u64> {
        let mut out = vec![0; n];
        UniformStream::new(seed, b).fill(m, &mut out);
        out
    }

    #[test]
    fn every_draw_is_a_residue_centred_on_half_the_modulus() {
        let ctx = ctx();
        let n = ctx.degree();
        for (b, &m) in ctx.basis().iter().enumerate() {
            let draws = limb(0x5EED, b, m, n);
            let q = m.value() as f64;
            assert!(draws.iter().all(|&x| x < m.value()), "limb {b}");
            // The mean of n uniform draws on [0, q) has deviation
            // q / √(12·n).
            let mean = draws.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
            let sigma = q / (12.0 * n as f64).sqrt();
            assert!(
                (mean - q / 2.0).abs() <= 4.0 * sigma,
                "limb {b}: mean {mean:e} vs {:e} ± 4·{sigma:e}",
                q / 2.0
            );
        }
    }

    #[test]
    fn seed_and_basis_index_each_select_a_different_stream() {
        let ctx = ctx();
        let n = ctx.degree();
        for (b, &m) in ctx.basis().iter().enumerate() {
            let here = limb(7, b, m, n);
            let other_b = (b + 1) % ctx.basis().len();
            assert_ne!(
                here,
                limb(7, other_b, m, n),
                "(seed, {b}) vs (seed, {other_b})"
            );
            assert_ne!(here, limb(8, b, m, n), "(seed, {b}) vs (seed', {b})");
        }
    }

    #[test]
    fn filling_in_chunks_is_filling_at_once_and_residues_are_reduced_words() {
        let ctx = ctx();
        let m = ctx.basis()[3];
        let whole = limb(11, 3, m, ctx.degree());
        let mut pieces = vec![0; ctx.degree()];
        let mut stream = UniformStream::new(11, 3);
        for chunk in pieces.chunks_mut(256) {
            stream.fill_words(chunk);
        }
        let reduced: Vec<u64> = pieces.iter().map(|&w| w % m.value()).collect();
        assert_eq!(reduced, whole);
    }
}
