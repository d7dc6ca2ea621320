//! The RNS-CKKS context: modulus chain, NTT tables, and CRT constants.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::bigint::CrtReconstructor;
use crate::modular::{Modulus, Pow2Table};
use crate::ntt::NttTable;
use crate::primes::ntt_primes;

/// Scheme parameters.
///
/// These follow the paper's evaluation setup in structure (`N = 2^15`,
/// 60-bit rescaling primes); tests use smaller `N` for speed. **These
/// parameters are for experimentation, not hardened for production
/// security.**
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CkksParams {
    /// Polynomial modulus degree `N` (a power of two). Slots = `N/2`.
    pub poly_degree: usize,
    /// Maximum level `L`: number of rescaling primes in the chain.
    pub max_level: usize,
    /// Size of each chain prime in bits (the nominal `log₂ R`).
    pub modulus_bits: u32,
    /// Size of the key-switching special prime `P` in bits.
    pub special_bits: u32,
    /// Standard deviation of the RLWE error distribution.
    pub error_std: f64,
    /// Worker threads for fanning independent RNS limbs across cores
    /// (NTT conversions, pointwise products, rescale, key-switch inner
    /// loops). `0` = use [`std::thread::available_parallelism`]; `1` =
    /// exact serial execution. Results are bit-identical for every value —
    /// limb jobs are independent and deterministic — so this is purely a
    /// throughput knob.
    pub threads: usize,
}

impl CkksParams {
    /// The paper's evaluation parameters: `N = 2^15`, `R = 2^60`.
    pub fn paper_eval(max_level: usize) -> Self {
        CkksParams {
            poly_degree: 1 << 15,
            max_level,
            modulus_bits: 60,
            special_bits: 60,
            error_std: 3.2,
            threads: 0,
        }
    }

    /// Small parameters for fast tests: `N = 2^12`, 50-bit primes.
    pub fn insecure_test(max_level: usize) -> Self {
        CkksParams {
            poly_degree: 1 << 12,
            max_level,
            modulus_bits: 50,
            special_bits: 51,
            error_std: 3.2,
            threads: 0,
        }
    }
}

/// Precomputed state shared by keys, ciphertexts and the evaluator.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    /// Chain moduli `q_0 .. q_{L-1}` (level `l` uses the first `l`).
    moduli: Vec<Modulus>,
    /// The key-switching special prime `P`.
    special: Modulus,
    tables: Vec<NttTable>,
    special_table: NttTable,
    /// Float→residue reduction tables, one per chain modulus.
    pow2: Vec<Pow2Table>,
    special_pow2: Pow2Table,
    /// CRT reconstructors for each level `1..=L` (index `l-1`).
    crt: Vec<CrtReconstructor>,
    /// `(q_j^{-1} mod q_i, Shoup companion)` for rescaling from level `j+1`
    /// (index `[j][i]`, `i < j`).
    rescale_inv: Vec<Vec<(u64, u64)>>,
    /// `(P^{-1} mod q_i, Shoup companion)` for the key-switch scale-down.
    special_inv: Vec<(u64, u64)>,
    /// Resolved worker-thread count (≥ 1); see [`CkksParams::threads`].
    threads: usize,
    /// NTT-domain index table per Galois element, built on first use (see
    /// [`CkksContext::galois_permutation`]).
    galois_perms: RwLock<HashMap<usize, Arc<[u32]>>>,
}

impl CkksContext {
    /// Builds the context: generates the prime chain and all tables.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (degree not a power of two,
    /// zero levels, primes too small for the degree).
    pub fn new(params: CkksParams) -> Self {
        assert!(params.max_level >= 1, "need at least one level");
        let n = params.poly_degree;
        let chain = ntt_primes(params.modulus_bits, n, params.max_level);
        // The special prime must be distinct from every chain prime; search
        // a different nominal size if needed.
        let special_candidates = ntt_primes(params.special_bits, n, params.max_level + 1);
        let special = *special_candidates
            .iter()
            .find(|p| !chain.contains(p))
            .expect("distinct special prime exists");
        let moduli: Vec<Modulus> = chain.iter().map(|&q| Modulus::new(q)).collect();
        let special_m = Modulus::new(special);
        let tables = moduli.iter().map(|&m| NttTable::new(m, n)).collect();
        let special_table = NttTable::new(special_m, n);
        let pow2 = moduli.iter().map(|&m| Pow2Table::new(m)).collect();
        let crt = (1..=params.max_level)
            .map(|l| CrtReconstructor::new(&chain[..l]))
            .collect();
        let with_shoup = |m: Modulus, v: u64| -> (u64, u64) {
            let inv = m.inv(v);
            (inv, m.shoup(inv))
        };
        let rescale_inv = (0..params.max_level)
            .map(|j| {
                (0..j)
                    .map(|i| with_shoup(moduli[i], moduli[j].value()))
                    .collect()
            })
            .collect();
        let special_inv = moduli.iter().map(|&m| with_shoup(m, special)).collect();
        let threads = if params.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            params.threads
        };
        CkksContext {
            params,
            moduli,
            special: special_m,
            tables,
            special_table,
            pow2,
            special_pow2: Pow2Table::new(special_m),
            crt,
            rescale_inv,
            special_inv,
            threads,
            galois_perms: RwLock::new(HashMap::new()),
        }
    }

    /// The parameters this context was built with.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Polynomial degree `N`.
    pub fn degree(&self) -> usize {
        self.params.poly_degree
    }

    /// Number of SIMD slots (`N/2`).
    pub fn slots(&self) -> usize {
        self.params.poly_degree / 2
    }

    /// Maximum level `L`.
    pub fn max_level(&self) -> usize {
        self.params.max_level
    }

    /// The chain moduli (`q_0..q_{L-1}`).
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The special prime `P`.
    pub fn special(&self) -> Modulus {
        self.special
    }

    /// NTT table for chain modulus `i`.
    pub fn table(&self, i: usize) -> &NttTable {
        &self.tables[i]
    }

    /// NTT table for the special prime.
    pub fn special_table(&self) -> &NttTable {
        &self.special_table
    }

    /// Float→residue reduction table of chain modulus `i`.
    pub fn pow2(&self, i: usize) -> &Pow2Table {
        &self.pow2[i]
    }

    /// Float→residue reduction table of the special prime.
    pub fn special_pow2(&self) -> &Pow2Table {
        &self.special_pow2
    }

    /// CRT reconstructor for level `l` (basis `q_0..q_{l-1}`).
    pub fn crt(&self, l: usize) -> &CrtReconstructor {
        &self.crt[l - 1]
    }

    /// `q_j^{-1} mod q_i` where `j` is the limb being dropped, with its
    /// Shoup companion for constant-multiplier products.
    pub fn rescale_inv(&self, j: usize, i: usize) -> (u64, u64) {
        self.rescale_inv[j][i]
    }

    /// `P^{-1} mod q_i`, with its Shoup companion.
    pub fn special_inv(&self, i: usize) -> (u64, u64) {
        self.special_inv[i]
    }

    /// Worker threads for per-limb fan-out (resolved; always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The index table of the Galois automorphism `X ↦ X^g` on an NTT-form
    /// limb: `out[i] = in[table[i]]`.
    ///
    /// The forward transform leaves `p(ψ^(2·bitrev(i)+1))` at index `i`, and
    /// `(σ_g p)(ψ^e) = p(ψ^(e·g))`, so the automorphism only moves evaluation
    /// points: `table[i] = bitrev(((2·bitrev(i)+1)·g mod 2N − 1) / 2)`. The
    /// table depends on `N` and `g` alone — one serves every limb of every
    /// prime — and is built on first use and kept (`4·N` bytes per element)
    /// for every evaluator sharing this context.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (not a Galois element of the ring).
    pub fn galois_permutation(&self, g: usize) -> Arc<[u32]> {
        assert!(g % 2 == 1, "Galois element must be odd");
        let lock = "no code that can panic runs under the table lock";
        if let Some(table) = self.galois_perms.read().expect(lock).get(&g) {
            return table.clone();
        }
        let n = self.degree();
        let log_n = n.trailing_zeros();
        let bitrev = |i: usize| i.reverse_bits() >> (usize::BITS - log_n);
        let table: Arc<[u32]> = (0..n)
            .map(|i| bitrev((((2 * bitrev(i) + 1) * g) % (2 * n) - 1) / 2) as u32)
            .collect();
        // Racing builders compute the same table; the first insert wins.
        self.galois_perms
            .write()
            .expect(lock)
            .entry(g)
            .or_insert(table)
            .clone()
    }

    /// The exact product of the first `l` chain primes, as `f64` (this is
    /// the actual `Q` a level-`l` ciphertext lives under).
    pub fn modulus_f64(&self, l: usize) -> f64 {
        self.moduli[..l].iter().map(|m| m.value() as f64).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_consistently() {
        let ctx = CkksContext::new(CkksParams::insecure_test(3));
        assert_eq!(ctx.moduli().len(), 3);
        assert_eq!(ctx.slots(), 1 << 11);
        // Chain primes distinct from each other and from P.
        let mut all: Vec<u64> = ctx.moduli().iter().map(|m| m.value()).collect();
        all.push(ctx.special().value());
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len);
    }

    #[test]
    fn rescale_inverses_are_inverses() {
        let ctx = CkksContext::new(CkksParams::insecure_test(3));
        for j in 1..3 {
            for i in 0..j {
                let qi = ctx.moduli()[i];
                let qj = ctx.moduli()[j].value();
                let (inv, shoup) = ctx.rescale_inv(j, i);
                assert_eq!(qi.mul(qi.reduce(qj), inv), 1);
                assert_eq!(shoup, qi.shoup(inv), "Shoup companion consistent");
            }
        }
        for i in 0..3 {
            let qi = ctx.moduli()[i];
            let (inv, shoup) = ctx.special_inv(i);
            assert_eq!(qi.mul(qi.reduce(ctx.special().value()), inv), 1);
            assert_eq!(shoup, qi.shoup(inv));
        }
    }

    #[test]
    fn threads_resolve() {
        let mut params = CkksParams::insecure_test(1);
        params.threads = 3;
        assert_eq!(CkksContext::new(params).threads(), 3);
        params.threads = 0;
        assert!(CkksContext::new(params).threads() >= 1);
    }

    #[test]
    fn modulus_f64_grows_with_level() {
        let ctx = CkksContext::new(CkksParams::insecure_test(3));
        assert!(ctx.modulus_f64(2) > ctx.modulus_f64(1));
        let ratio = ctx.modulus_f64(2) / ctx.modulus_f64(1);
        let rel = ratio / 2f64.powi(50) - 1.0;
        assert!(rel.abs() < 1e-3, "chain prime strays from nominal size");
    }
}
