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
    /// Size of each key-switching special prime in bits. A context builds
    /// `α = ⌈L/3⌉` of them ([`special_prime_count`]); their product is `P`.
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

/// Most digits a key switch splits a polynomial into. The chain is cut into
/// groups of `α = ⌈L/3⌉` consecutive primes, and keys are built over `α`
/// special primes (hybrid key switching): three digits at the top level,
/// fewer below it.
const KEY_SWITCH_DIGITS: usize = 3;

/// `α`, the number of special primes (and the primes per key-switch digit)
/// of a chain of `max_level` primes: `⌈L/3⌉`. At `L ≤ 3` it is 1, one
/// single-prime digit per chain prime.
pub fn special_prime_count(max_level: usize) -> usize {
    max_level.div_ceil(KEY_SWITCH_DIGITS)
}

/// Digits of a key switch at `level` under a chain of `max_level` primes:
/// `⌈l/α⌉`. The last one is partial when `α` does not divide `l`.
pub fn key_switch_digits(level: usize, max_level: usize) -> usize {
    level.div_ceil(special_prime_count(max_level))
}

/// Limbs of a level-`l` key-switch decomposition: `⌈l/α⌉` digits over
/// `Q_l·P`, `⌈l/α⌉·(l+α)` in all.
pub fn decomposition_limbs(level: usize, max_level: usize) -> usize {
    key_switch_digits(level, max_level) * (level + special_prime_count(max_level))
}

/// Limb polynomials of one key-switching key of level `l_k` under a chain
/// of `max_level` primes: a pair per digit a level-`l_k` key switch reads,
/// over `Q_{l_k}·P`, `2·⌈l_k/α⌉·(l_k+α)` in all (`2·⌈L/α⌉·(L+α)` at full
/// depth, 0 at level 0 — a key no op switches with).
pub fn ksw_key_limbs(key_level: usize, max_level: usize) -> usize {
    2 * decomposition_limbs(key_level, max_level)
}

/// The fast base conversion out of one key-switch digit (ModUp). The digit
/// holds the chain primes `q_i`, `i ∈ [start, start + size)`, with product
/// `Q_β`; a residue vector `d_i` over them is carried to any other modulus
/// `m` as `Σ_i [d_i · q̂_i⁻¹]_{q_i} · q̂_i mod m`, where `q̂_i = Q_β / q_i`.
/// That sum is `[d]_{Q_β} + u·Q_β` for some `0 ≤ u < size`; the key's
/// `T_β ≡ 0 (mod q_i)` outside the digit and `Q_β ≡ 0` inside it, so the
/// overflow `u·Q_β` vanishes from the key switch.
#[derive(Debug)]
pub(crate) struct DigitConversion {
    /// The digit's first chain index.
    pub(crate) start: usize,
    /// `(q̂_i⁻¹ mod q_i, Shoup companion)` per member `i`.
    pub(crate) hat_inv: Vec<(u64, u64)>,
    /// `(q̂_i mod m, Shoup companion)` per member, indexed `[m][member]`
    /// over the extended basis (chain primes, then the specials).
    pub(crate) hat: Vec<Vec<(u64, u64)>>,
}

/// Precomputed state shared by keys, ciphertexts and the evaluator.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    /// The extended basis `Q_L·P`: chain moduli `q_0 .. q_{L-1}` (level `l`
    /// uses the first `l`), then the `α` key-switching special primes.
    basis: Vec<Modulus>,
    /// NTT table per modulus of the extended basis.
    tables: Vec<NttTable>,
    /// Float→residue reduction table per modulus of the extended basis.
    pow2: Vec<Pow2Table>,
    /// CRT reconstructors for each level `1..=L` (index `l-1`).
    crt: Vec<CrtReconstructor>,
    /// `(q_j^{-1} mod q_i, Shoup companion)` for rescaling from level `j+1`
    /// (index `[j][i]`, `i < j`).
    rescale_inv: Vec<Vec<(u64, u64)>>,
    /// ModUp conversions, index `[β][size − 1]`: digit `β` in full and
    /// truncated to every smaller size (the last digit below a level that
    /// `α` does not divide).
    mod_up: Vec<Vec<DigitConversion>>,
    /// ModDown: `(p̂_j⁻¹ mod p_j, Shoup companion)` per special prime,
    /// where `p̂_j = P / p_j`.
    special_hat_inv: Vec<(u64, u64)>,
    /// ModDown: `(p̂_j mod q_i, Shoup companion)`, index `[i][j]`.
    special_hat: Vec<Vec<(u64, u64)>>,
    /// ModDown: `P mod q_i`.
    special_mod: Vec<u64>,
    /// `(P^{-1} mod q_i, Shoup companion)` for the key-switch scale-down.
    special_inv: Vec<(u64, u64)>,
    /// Resolved worker-thread count (≥ 1); see [`CkksParams::threads`].
    threads: usize,
    /// NTT-domain index table per Galois element, built on first use (see
    /// [`CkksContext::galois_permutation`]).
    galois_perms: RwLock<HashMap<usize, Arc<[u32]>>>,
}

impl CkksContext {
    /// Builds the context: generates the prime chain, the
    /// [`special_prime_count`] special primes and all tables.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (degree not a power of two,
    /// zero levels, primes too small for the degree).
    pub fn new(params: CkksParams) -> Self {
        assert!(params.max_level >= 1, "need at least one level");
        let (n, big_l) = (params.poly_degree, params.max_level);
        let alpha = special_prime_count(big_l);
        let chain = ntt_primes(params.modulus_bits, n, big_l);
        // The special primes must be distinct from every chain prime; of
        // `L + α` candidates at most `L` are taken.
        let specials: Vec<u64> = ntt_primes(params.special_bits, n, big_l + alpha)
            .into_iter()
            .filter(|p| !chain.contains(p))
            .take(alpha)
            .collect();
        assert_eq!(specials.len(), alpha, "distinct special primes exist");
        let basis: Vec<Modulus> = chain
            .iter()
            .chain(&specials)
            .map(|&q| Modulus::new(q))
            .collect();
        let tables = basis.iter().map(|&m| NttTable::new(m, n)).collect();
        let pow2 = basis.iter().map(|&m| Pow2Table::new(m)).collect();
        let crt = (1..=big_l)
            .map(|l| CrtReconstructor::new(&chain[..l]))
            .collect();
        let with_shoup = |m: Modulus, v: u64| -> (u64, u64) {
            let inv = m.inv(v);
            (inv, m.shoup(inv))
        };
        let shoup_pair = |m: Modulus, v: u64| (v, m.shoup(v));
        // `Π values mod m`, skipping index `skip`.
        let product_mod = |m: Modulus, values: &[u64], skip: usize| -> u64 {
            values
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != skip)
                .fold(m.reduce(1), |acc, (_, &v)| m.mul(acc, m.reduce(v)))
        };
        let rescale_inv = (0..big_l)
            .map(|j| (0..j).map(|i| with_shoup(basis[i], chain[j])).collect())
            .collect();
        let mod_up = (0..big_l.div_ceil(alpha))
            .map(|beta| {
                let start = beta * alpha;
                (1..=alpha.min(big_l - start))
                    .map(|size| {
                        let members = &chain[start..start + size];
                        DigitConversion {
                            start,
                            hat_inv: (0..size)
                                .map(|k| {
                                    let qi = basis[start + k];
                                    with_shoup(qi, product_mod(qi, members, k))
                                })
                                .collect(),
                            hat: basis
                                .iter()
                                .map(|&m| {
                                    (0..size)
                                        .map(|k| shoup_pair(m, product_mod(m, members, k)))
                                        .collect()
                                })
                                .collect(),
                        }
                    })
                    .collect()
            })
            .collect();
        let special_hat_inv = (0..alpha)
            .map(|j| {
                let pj = basis[big_l + j];
                with_shoup(pj, product_mod(pj, &specials, j))
            })
            .collect();
        let special_hat = basis[..big_l]
            .iter()
            .map(|&m| {
                (0..alpha)
                    .map(|j| shoup_pair(m, product_mod(m, &specials, j)))
                    .collect()
            })
            .collect();
        let special_mod = basis[..big_l]
            .iter()
            .map(|&m| product_mod(m, &specials, alpha))
            .collect();
        let special_inv = basis[..big_l]
            .iter()
            .map(|&m| with_shoup(m, product_mod(m, &specials, alpha)))
            .collect();
        let threads = if params.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            params.threads
        };
        CkksContext {
            params,
            basis,
            tables,
            pow2,
            crt,
            rescale_inv,
            mod_up,
            special_hat_inv,
            special_hat,
            special_mod,
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
        &self.basis[..self.params.max_level]
    }

    /// The `α` key-switching special primes `p_0..p_{α-1}`, whose product
    /// is `P` ([`special_prime_count`]).
    pub fn specials(&self) -> &[Modulus] {
        &self.basis[self.params.max_level..]
    }

    /// The extended basis `Q_L·P`: the chain moduli, then the specials.
    pub fn basis(&self) -> &[Modulus] {
        &self.basis
    }

    /// NTT table for modulus `i` of the extended basis ([`CkksContext::basis`]:
    /// chain modulus `i` for `i < L`, special prime `i − L` above).
    pub fn table(&self, i: usize) -> &NttTable {
        &self.tables[i]
    }

    /// Float→residue reduction table of modulus `i` of the extended basis.
    pub fn pow2(&self, i: usize) -> &Pow2Table {
        &self.pow2[i]
    }

    /// Index into [`CkksContext::basis`] of limb `idx` of a polynomial with
    /// `level` chain limbs: the limbs past `level` are the specials, which
    /// sit past all `L` chain primes in the basis.
    #[inline]
    pub(crate) fn basis_index(&self, level: usize, idx: usize) -> usize {
        if idx < level {
            idx
        } else {
            self.params.max_level + idx - level
        }
    }

    /// The ModUp conversion of digit `beta` of a level-`level` polynomial.
    pub(crate) fn digit_conversion(&self, level: usize, beta: usize) -> &DigitConversion {
        let alpha = self.specials().len();
        &self.mod_up[beta][alpha.min(level - beta * alpha) - 1]
    }

    /// `(p̂_j⁻¹ mod p_j, Shoup companion)` for special prime `j`
    /// (`p̂_j = P / p_j`).
    pub(crate) fn special_hat_inv(&self, j: usize) -> (u64, u64) {
        self.special_hat_inv[j]
    }

    /// `(p̂_j mod q_i, Shoup companion)` for every special prime `j`.
    pub(crate) fn special_hat(&self, i: usize) -> &[(u64, u64)] {
        &self.special_hat[i]
    }

    /// `P mod q_i`.
    pub(crate) fn special_mod(&self, i: usize) -> u64 {
        self.special_mod[i]
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_consistently() {
        for (levels, alpha) in [(3, 1), (4, 2), (9, 3), (10, 4)] {
            let ctx = CkksContext::new(CkksParams::insecure_test(levels));
            assert_eq!(ctx.moduli().len(), levels);
            assert_eq!(ctx.specials().len(), alpha, "α = ⌈L/3⌉ at L = {levels}");
            assert_eq!(ctx.slots(), 1 << 11);
            // Chain primes distinct from each other and from the specials.
            let mut all: Vec<u64> = ctx.basis().iter().map(|m| m.value()).collect();
            let len = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), len);
        }
        // The same primes whether the special size equals the chain's or not.
        let mut params = CkksParams::insecure_test(6);
        params.special_bits = params.modulus_bits;
        let ctx = CkksContext::new(params);
        assert_eq!(ctx.specials().len(), 2);
        assert!(ctx.specials().iter().all(|p| !ctx.moduli().contains(p)));
    }

    #[test]
    fn key_switch_closed_forms() {
        // (L, α, digits at L, key limb polynomials).
        for (big_l, alpha, digits, key) in [
            (1, 1, 1, 4),
            (2, 1, 2, 12),
            (3, 1, 3, 24),
            (4, 2, 2, 24),
            (5, 2, 3, 42),
            (9, 3, 3, 72),
            (10, 4, 3, 84),
        ] {
            assert_eq!(special_prime_count(big_l), alpha);
            assert_eq!(key_switch_digits(big_l, big_l), digits);
            assert_eq!(ksw_key_limbs(big_l, big_l), key);
        }
        // A partial last digit: l = 4 under α = 3 is digits {0,1,2} and {3}.
        assert_eq!(key_switch_digits(4, 9), 2);
        assert_eq!(decomposition_limbs(4, 9), 2 * 7);
        // Level-sized keys: `pr-deep`'s rotations at levels 3 and 5 of 9.
        assert_eq!(ksw_key_limbs(5, 9), 32);
        assert_eq!(ksw_key_limbs(3, 9), 12);
        assert_eq!(ksw_key_limbs(0, 9), 0);
    }

    #[test]
    fn base_conversion_constants_are_inverses() {
        let ctx = CkksContext::new(CkksParams::insecure_test(7));
        let (big_l, alpha) = (7, 3);
        let basis = ctx.basis();
        for level in 1..=big_l {
            for beta in 0..key_switch_digits(level, big_l) {
                let conv = ctx.digit_conversion(level, beta);
                let size = conv.hat_inv.len();
                assert_eq!(conv.start, beta * alpha);
                assert_eq!(size, alpha.min(level - beta * alpha));
                for k in 0..size {
                    let qi = basis[conv.start + k];
                    let (inv, shoup) = conv.hat_inv[k];
                    // q̂_i · q̂_i⁻¹ ≡ 1 (mod q_i), with q̂_i read off the table.
                    assert_eq!(qi.mul(conv.hat[conv.start + k][k].0, inv), 1);
                    assert_eq!(shoup, qi.shoup(inv));
                }
            }
        }
        for j in 0..alpha {
            let pj = ctx.specials()[j];
            let hat = ctx
                .specials()
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != j)
                .fold(1, |acc, (_, p)| pj.mul(acc, pj.reduce(p.value())));
            assert_eq!(pj.mul(hat, ctx.special_hat_inv(j).0), 1);
        }
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
            assert_eq!(qi.mul(qi.reduce(ctx.specials()[0].value()), inv), 1);
            assert_eq!(shoup, qi.shoup(inv));
        }
        // With α = 2, `P^{-1}` inverts the product of both specials.
        let ctx = CkksContext::new(CkksParams::insecure_test(5));
        let [p0, p1] = [ctx.specials()[0].value(), ctx.specials()[1].value()];
        for (i, &qi) in ctx.moduli().iter().enumerate() {
            let p = qi.mul(qi.reduce(p0), qi.reduce(p1));
            assert_eq!(qi.mul(p, ctx.special_inv(i).0), 1);
            let hat: Vec<u64> = ctx.special_hat(i).iter().map(|h| h.0).collect();
            assert_eq!(hat, [qi.reduce(p1), qi.reduce(p0)]);
            assert_eq!(ctx.special_mod(i), p);
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
}
