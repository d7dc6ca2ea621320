//! Coarse security estimation for parameter selection.
//!
//! Based on the homomorphicencryption.org standard tables (ternary secret,
//! classical attacks): for each polynomial degree `N`, the maximum total
//! modulus size `log₂(Q·P)` that keeps the scheme at a given security
//! level. The paper's evaluation targets 128-bit security at `N = 2^15`
//! (max 881 bits). `P` counts: a chain of `L` primes carries
//! `α = ⌈L/3⌉` special primes, so sixty-bit parameters stay within 881
//! bits up to `L = 10` (600 + 240 bits), not the 13 a single special prime
//! would allow — the price of three-digit key switching (DESIGN §5).
//!
//! These bounds are *guidance for experiments*, not a substitute for a real
//! estimator run.

use crate::context::{special_prime_count, CkksParams};

/// Supported security targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityLevel {
    /// 128-bit classical security.
    Bits128,
    /// 192-bit classical security.
    Bits192,
    /// 256-bit classical security.
    Bits256,
}

/// Maximum `log₂(Q·P)` (total modulus bits) for a ternary-secret R-LWE
/// instance of degree `n` at the given level, per the HE standard. Returns
/// `None` if `n` is below the table (insecure for any modulus).
pub fn max_modulus_bits(n: usize, level: SecurityLevel) -> Option<u32> {
    let table: &[(usize, [u32; 3])] = &[
        (1024, [27, 19, 14]),
        (2048, [54, 37, 29]),
        (4096, [109, 75, 58]),
        (8192, [218, 152, 118]),
        (16384, [438, 305, 237]),
        (32768, [881, 611, 476]),
    ];
    let idx = match level {
        SecurityLevel::Bits128 => 0,
        SecurityLevel::Bits192 => 1,
        SecurityLevel::Bits256 => 2,
    };
    table
        .iter()
        .filter(|(deg, _)| *deg <= n)
        .map(|(_, caps)| caps[idx])
        .next_back()
        .filter(|_| n >= 1024)
}

/// The total modulus size (`log₂(Q·P)` in bits) a parameter set uses:
/// `L` chain primes and the `α` special primes of its key switching.
pub fn total_modulus_bits(params: &CkksParams) -> u32 {
    let alpha = special_prime_count(params.max_level) as u32;
    params.max_level as u32 * params.modulus_bits + alpha * params.special_bits
}

/// Whether the parameter set meets the security target, or `None` when the
/// degree is below the standard's table.
pub fn meets(params: &CkksParams, level: SecurityLevel) -> Option<bool> {
    max_modulus_bits(params.poly_degree, level).map(|cap| total_modulus_bits(params) <= cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_values() {
        assert_eq!(max_modulus_bits(1 << 15, SecurityLevel::Bits128), Some(881));
        assert_eq!(max_modulus_bits(1 << 14, SecurityLevel::Bits128), Some(438));
        assert_eq!(max_modulus_bits(1 << 15, SecurityLevel::Bits256), Some(476));
        assert_eq!(max_modulus_bits(512, SecurityLevel::Bits128), None);
        // Intermediate (non-power-of-standard) degrees use the next lower row.
        assert_eq!(max_modulus_bits(3 << 12, SecurityLevel::Bits128), Some(218));
    }

    #[test]
    fn paper_parameters_at_128_bits() {
        // N = 2^15, R = 2^60: L = 10 carries α = 4 special primes, 840
        // bits ≤ 881; L = 11 (also α = 4) needs 900. One special prime
        // would have allowed L = 13 — the trade three-digit key switching
        // makes.
        let params = CkksParams::paper_eval(10);
        assert_eq!(total_modulus_bits(&params), 840);
        assert_eq!(meets(&params, SecurityLevel::Bits128), Some(true));
        let too_deep = CkksParams::paper_eval(11);
        assert_eq!(total_modulus_bits(&too_deep), 900);
        assert_eq!(meets(&too_deep, SecurityLevel::Bits128), Some(false));
    }

    #[test]
    fn the_benchmark_shape_is_far_below_128_bits() {
        // N = 8192, L = 9 at 60-bit chain and 61-bit special primes: 540 +
        // 3·61 = 723 bits against a cap of 218.
        let params = CkksParams {
            poly_degree: 8192,
            max_level: 9,
            modulus_bits: 60,
            special_bits: 61,
            error_std: 3.2,
            threads: 1,
        };
        assert_eq!(total_modulus_bits(&params), 723);
        assert_eq!(max_modulus_bits(8192, SecurityLevel::Bits128), Some(218));
        assert_eq!(meets(&params, SecurityLevel::Bits128), Some(false));
    }

    #[test]
    fn test_parameters_are_flagged_insecure() {
        // The unit-test parameters are deliberately tiny — the estimator
        // must not claim security for them.
        let params = CkksParams {
            poly_degree: 256,
            max_level: 2,
            modulus_bits: 45,
            special_bits: 46,
            error_std: 3.2,
            threads: 1,
        };
        assert_eq!(meets(&params, SecurityLevel::Bits128), None);
    }
}
