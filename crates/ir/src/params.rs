//! Compilation parameters shared by every scale-management scheme.

use crate::Frac;

/// RNS-CKKS compilation parameters (Table 1 of the paper).
///
/// All magnitudes are expressed in log₂ bits: a `rescale_bits` of 60 means
/// the rescaling factor `R = 2^60`; a `waterline_bits` of 20 means the
/// minimal admissible ciphertext scale is `W = 2^20`.
///
/// # Examples
///
/// ```
/// use fhe_ir::CompileParams;
/// let p = CompileParams::new(20);
/// assert_eq!(p.rescale_bits, 60);
/// assert_eq!(p.omega(), fhe_ir::Frac::ratio(20, 60));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileParams {
    /// log₂ of the rescaling factor `R` (the paper uses `R = 2^60`).
    pub rescale_bits: u32,
    /// log₂ of the waterline `W`, the minimal ciphertext scale.
    pub waterline_bits: u32,
    /// Maximum level `L` supported by the encryption key. Compilation fails
    /// if a program needs more modulus than `R^L`.
    pub max_level: u32,
    /// Reserve (in bits) demanded of the program outputs, reserved for the
    /// magnitude of the encoded result (`m · x_max < Q`). The paper's worked
    /// examples use 0.
    pub output_reserve_bits: u32,
}

impl CompileParams {
    /// Parameters with the paper's defaults: `R = 2^60`, `L = 30`,
    /// zero output reserve, and the given waterline (in bits).
    ///
    /// # Panics
    ///
    /// Panics if [`CompileParams::validate`] rejects the parameters.
    pub fn new(waterline_bits: u32) -> Self {
        Self::with_rescale_bits(waterline_bits, 60)
    }

    /// Same as [`CompileParams::new`] with an explicit rescaling-factor size.
    ///
    /// # Panics
    ///
    /// Panics if [`CompileParams::validate`] rejects the parameters.
    pub fn with_rescale_bits(waterline_bits: u32, rescale_bits: u32) -> Self {
        let p = CompileParams {
            rescale_bits,
            waterline_bits,
            max_level: 30,
            output_reserve_bits: 0,
        };
        if let Err(e) = p.validate() {
            panic!("{e}");
        }
        p
    }

    /// Checks the parameters every compiler assumes: a positive waterline
    /// below the rescaling factor (`W < R`, so that a rescaled scale can
    /// stay above the waterline) and a maximum level of at least 1.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first rule broken.
    pub fn validate(&self) -> Result<(), String> {
        if self.waterline_bits == 0 {
            return Err("waterline must be positive".into());
        }
        if self.waterline_bits >= self.rescale_bits {
            return Err(format!(
                "waterline ({} bits) must be smaller than the rescaling factor ({} bits)",
                self.waterline_bits, self.rescale_bits
            ));
        }
        if self.max_level == 0 {
            return Err("max_level must be at least 1".into());
        }
        Ok(())
    }

    /// Relative waterline `ω = log_R W = waterline_bits / rescale_bits`.
    pub fn omega(&self) -> Frac {
        Frac::ratio(self.waterline_bits as i128, self.rescale_bits as i128)
    }

    /// The waterline in bits, as a [`Frac`].
    pub fn waterline(&self) -> Frac {
        Frac::from(self.waterline_bits)
    }

    /// The rescaling factor size in bits, as a [`Frac`].
    pub fn rescale(&self) -> Frac {
        Frac::from(self.rescale_bits)
    }

    /// Converts a relative (log_R) quantity to bits.
    pub fn to_bits(&self, relative: Frac) -> Frac {
        relative * self.rescale()
    }

    /// Converts a bit quantity to relative (log_R) units.
    pub fn to_relative(&self, bits: Frac) -> Frac {
        bits / self.rescale()
    }

    /// The principal level of a relative reserve `ρ`: the minimal level `l`
    /// with `R^l ≥ W · r`, i.e. `l = max(⌈ω + ρ⌉, 1)` (§5.1).
    pub fn principal_level(&self, rho: Frac) -> u32 {
        let l = (self.omega() + rho).ceil();
        l.max(1) as u32
    }
}

impl Default for CompileParams {
    /// The paper's most common configuration: waterline `2^20`, `R = 2^60`.
    fn default() -> Self {
        CompileParams::new(20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_is_relative_waterline() {
        let p = CompileParams::new(20);
        assert_eq!(p.omega(), Frac::ratio(1, 3));
        let p = CompileParams::new(45);
        assert_eq!(p.omega(), Frac::ratio(3, 4));
    }

    #[test]
    fn principal_level_examples() {
        // §6.2 example: ρ = 0, ω = 20/60 ⇒ l = ⌈1/3⌉ = 1.
        let p = CompileParams::new(20);
        assert_eq!(p.principal_level(Frac::ZERO), 1);
        // ρ = 30/60 ⇒ ⌈30/60 + 20/60⌉ = 1; operand level ⌈ρ+2ω⌉ = 2.
        assert_eq!(p.principal_level(Frac::ratio(30, 60)), 1);
        assert_eq!((Frac::ratio(30, 60) + p.omega() + p.omega()).ceil(), 2);
        // x in Fig. 3c: reserve 97 bits ⇒ level ⌈117/60⌉ = 2.
        assert_eq!(p.principal_level(Frac::ratio(97, 60)), 2);
    }

    #[test]
    #[should_panic(expected = "waterline")]
    fn waterline_must_be_below_rescale() {
        let _ = CompileParams::with_rescale_bits(60, 60);
    }

    #[test]
    fn conversions_roundtrip() {
        let p = CompileParams::new(33);
        let bits = Frac::ratio(77, 2);
        assert_eq!(p.to_bits(p.to_relative(bits)), bits);
    }
}
