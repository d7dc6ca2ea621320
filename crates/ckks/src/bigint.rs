//! Minimal unsigned big-integer arithmetic for exact CRT reconstruction.
//!
//! Decoding a ciphertext needs the centered value of each coefficient modulo
//! `Q = Πqᵢ` (up to ~2^1800 for deep chains); floating-point CRT would bury
//! the 2^-20-scale errors that Fig. 7 measures. Only the handful of
//! operations decode needs are implemented.

use std::cmp::Ordering;

use crate::modular::Modulus;

/// An arbitrary-precision unsigned integer (little-endian 64-bit limbs,
/// no trailing zero limbs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// From a single word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &BigUint) {
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        let mut carry = 0u64;
        for i in 0..n {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub_assign(&mut self, other: &BigUint) {
        assert!(self.cmp_big(other) != Ordering::Less, "BigUint underflow");
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, c1) = self.limbs[i].overflowing_sub(b);
            let (d2, c2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = u64::from(c1) + u64::from(c2);
        }
        debug_assert_eq!(borrow, 0);
        self.trim();
    }

    /// Returns `self · m` for a word multiplier.
    pub fn mul_u64(&self, m: u64) -> BigUint {
        if m == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let prod = l as u128 * m as u128 + carry;
            out.push(prod as u64);
            carry = prod >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        BigUint { limbs: out }
    }

    /// Total-order comparison.
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// `self += other · m`, in place (no temporary product).
    pub fn add_mul_u64(&mut self, other: &BigUint, m: u64) {
        if self.limbs.len() < other.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0u128;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let o = other.limbs.get(i).copied().unwrap_or(0);
            // (2^64−1)² + 2·(2^64−1) < 2^128: the sum cannot overflow.
            let sum = o as u128 * m as u128 + *limb as u128 + carry;
            *limb = sum as u64;
            carry = sum >> 64;
        }
        if carry > 0 {
            self.limbs.push(carry as u64);
        }
        self.trim();
    }

    /// `⌊self / 2⌋`.
    pub fn halved(&self) -> BigUint {
        let mut out = self.clone();
        let mut carry = 0u64;
        for limb in out.limbs.iter_mut().rev() {
            let low = *limb & 1;
            *limb = (*limb >> 1) | (carry << 63);
            carry = low;
        }
        out.trim();
        out
    }

    /// Lossy conversion to `f64` (exact for values < 2^53, correctly scaled
    /// above).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &l in self.limbs.iter().rev() {
            acc = acc * 2f64.powi(64) + l as f64;
        }
        acc
    }
}

/// Exact centered CRT reconstruction as an `f64`.
///
/// Given residues `x mod qᵢ` (each `< qᵢ`), reconstructs the unique
/// `x ∈ (−Q/2, Q/2]` with those residues and returns it as `f64`.
#[derive(Debug, Clone)]
pub struct CrtReconstructor {
    /// The basis, Barrett constants precomputed once.
    moduli: Vec<Modulus>,
    /// `Q̂ᵢ = Q / qᵢ` as big integers.
    q_hats: Vec<BigUint>,
    /// `(Q̂ᵢ)^{-1} mod qᵢ`.
    q_hat_invs: Vec<u64>,
    /// `Q = Π qᵢ`.
    q: BigUint,
    /// `⌊Q/2⌋`: values above it center to negatives.
    half_q: BigUint,
}

/// The accumulators [`CrtReconstructor::centered_f64`] works in. One
/// scratch serves any number of coefficients (and any basis), so decoding a
/// polynomial allocates per call, not per coefficient.
#[derive(Debug, Default)]
pub struct CrtScratch {
    acc: BigUint,
    neg: BigUint,
}

impl CrtReconstructor {
    /// Precomputes the CRT constants for a basis of pairwise-coprime primes.
    pub fn new(moduli: &[u64]) -> Self {
        assert!(!moduli.is_empty(), "CRT basis must be non-empty");
        let mut q = BigUint::from_u64(1);
        for &m in moduli {
            q = q.mul_u64(m);
        }
        let mods: Vec<Modulus> = moduli.iter().map(|&m| Modulus::new(m)).collect();
        let mut q_hats = Vec::with_capacity(moduli.len());
        let mut q_hat_invs = Vec::with_capacity(moduli.len());
        for (i, &md) in mods.iter().enumerate() {
            let mut hat = BigUint::from_u64(1);
            for (j, &mj) in moduli.iter().enumerate() {
                if i != j {
                    hat = hat.mul_u64(mj);
                }
            }
            // Q̂ᵢ mod qᵢ by folding limb by limb.
            let mut hat_mod = 0u64;
            for &l in hat.limbs.iter().rev() {
                // hat_mod = hat_mod · 2^64 + l (mod m)
                let hi = md.reduce_u128((hat_mod as u128) << 64);
                hat_mod = md.reduce_u128(hi as u128 + md.reduce(l) as u128);
            }
            q_hat_invs.push(md.inv(hat_mod));
            q_hats.push(hat);
        }
        CrtReconstructor {
            moduli: mods,
            q_hats,
            q_hat_invs,
            half_q: q.halved(),
            q,
        }
    }

    /// Reconstructs the centered value of one residue vector (`residues`
    /// yields `x mod qᵢ` in basis order). The arithmetic is exact; only the
    /// final conversion of the big integer to `f64` rounds. Everything that
    /// depends on the basis alone — each modulus's Barrett constants among
    /// it — was computed by [`CrtReconstructor::new`], and the big-integer
    /// accumulators live in `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if the number of residues differs from the basis size.
    pub fn centered_f64(
        &self,
        residues: impl IntoIterator<Item = u64>,
        scratch: &mut CrtScratch,
    ) -> f64 {
        let CrtScratch { acc, neg } = scratch;
        acc.limbs.clear();
        let mut residues = residues.into_iter();
        for ((&md, hat), &hat_inv) in self.moduli.iter().zip(&self.q_hats).zip(&self.q_hat_invs) {
            let r = residues.next().expect("one residue per basis prime");
            acc.add_mul_u64(hat, md.mul(md.reduce(r), hat_inv));
        }
        assert!(residues.next().is_none(), "one residue per basis prime");
        // acc < Σ qᵢ·Q̂ᵢ = k·Q with k = basis size; reduce by subtraction.
        while acc.cmp_big(&self.q) != Ordering::Less {
            acc.sub_assign(&self.q);
        }
        // Center into (−Q/2, Q/2]: 2·acc > Q iff acc > ⌊Q/2⌋.
        if acc.cmp_big(&self.half_q) == Ordering::Greater {
            neg.limbs.clone_from(&self.q.limbs);
            neg.sub_assign(acc);
            -neg.to_f64()
        } else {
            acc.to_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_u64(u64::MAX);
        let mut s = a.clone();
        s.add_assign(&a);
        assert_eq!(s, a.mul_u64(2));
        s.sub_assign(&a);
        assert_eq!(s, a);
        s.sub_assign(&a);
        assert!(s.is_zero());
    }

    #[test]
    fn mul_carries_across_limbs() {
        let a = BigUint::from_u64(1 << 63);
        let b = a.mul_u64(4);
        assert_eq!(b.limbs, vec![0, 2]);
        assert_eq!(b.to_f64(), 2f64.powi(65));
    }

    #[test]
    fn cmp_orders_by_magnitude() {
        let a = BigUint::from_u64(5).mul_u64(u64::MAX);
        let b = BigUint::from_u64(7);
        assert_eq!(a.cmp_big(&b), Ordering::Greater);
        assert_eq!(b.cmp_big(&a), Ordering::Less);
        assert_eq!(b.cmp_big(&BigUint::from_u64(7)), Ordering::Equal);
    }

    #[test]
    fn crt_reconstructs_small_values() {
        let basis = [97u64, 101, 103];
        let crt = CrtReconstructor::new(&basis);
        for &x in &[0i64, 1, -1, 42, -4242, 300000, -499999] {
            let residues: Vec<u64> = basis
                .iter()
                .map(|&m| x.rem_euclid(m as i64) as u64)
                .collect();
            let got = crt.centered_f64(residues, &mut CrtScratch::default());
            assert_eq!(got, x as f64, "x = {x}");
        }
    }

    #[test]
    fn crt_handles_values_near_half_q() {
        let basis = [11u64, 13];
        let q = 11 * 13; // 143
        let crt = CrtReconstructor::new(&basis);
        // 71 = floor(143/2) stays positive; 72 wraps to −71.
        let r = |x: i64| -> Vec<u64> {
            basis
                .iter()
                .map(|&m| x.rem_euclid(m as i64) as u64)
                .collect()
        };
        // One scratch across calls: the accumulators carry nothing over.
        let mut scratch = CrtScratch::default();
        assert_eq!(crt.centered_f64(r(72), &mut scratch), 72.0 - q as f64);
        assert_eq!(crt.centered_f64(r(71), &mut scratch), 71.0);
        assert_eq!(crt.centered_f64(r(0), &mut scratch), 0.0);
    }

    #[test]
    fn crt_large_basis_accuracy() {
        let basis = crate::primes::ntt_primes(55, 1 << 4, 6);
        let crt = CrtReconstructor::new(&basis);
        let x: i64 = -123456789012345;
        let residues: Vec<u64> = basis
            .iter()
            .map(|&m| x.rem_euclid(m as i64) as u64)
            .collect();
        assert_eq!(
            crt.centered_f64(residues, &mut CrtScratch::default()),
            x as f64
        );
    }
}
