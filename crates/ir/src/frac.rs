//! Exact rational arithmetic for log-domain scale quantities.
//!
//! The reserve formalism manipulates *relative* (log base `R`) scales,
//! reserves and waterlines: `ρ = log_R r`, `ω = log_R W`, with formulas such
//! as `l = ⌈ρ + 2ω⌉` and `ρ₁ = ρ₂ = (l + ρ)/2`. These need exact ceiling and
//! fractional-part computation; binary floating point would mis-detect level
//! mismatches when `ρ + 2ω` lands exactly on an integer. [`Frac`] is a small
//! always-normalized rational over `i128`, sufficient for every quantity in
//! this crate (denominators stay bounded by `R_bits · 2^depth`).
//!
//! Every operation has exact machine-word fast paths: reducing a pair that
//! fits in `u64` runs a binary gcd on `u64` (an `i128` remainder is a
//! software division), an integer or a shared denominator needs no gcd at
//! all, and ceiling and floor divide on `i64` when both halves fit. A
//! reduced fraction is unique, so each path yields the `(num, den)` the
//! `i128` Euclid fallback would.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0`, always reduced.
///
/// # Examples
///
/// ```
/// use fhe_ir::Frac;
/// let omega = Frac::ratio(20, 60); // waterline 20 bits over R = 2^60
/// let rho = Frac::ratio(30, 60);
/// assert_eq!((rho + omega * Frac::from(2)).ceil(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frac {
    num: i128,
    den: i128,
}

/// Euclid's gcd on `i128`: the fallback for pairs beyond `u64`.
const fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

/// Stein's binary gcd of two nonzero `u64`s: shifts and subtractions only.
fn binary_gcd(mut a: u64, mut b: u64) -> u64 {
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl Frac {
    /// Zero.
    pub const ZERO: Frac = Frac { num: 0, den: 1 };
    /// One.
    pub const ONE: Frac = Frac { num: 1, den: 1 };

    /// Creates the rational `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn ratio(num: i128, den: i128) -> Self {
        assert!(den != 0, "Frac denominator must be nonzero");
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        Frac::reduce(num, den)
    }

    /// `num / den` in lowest terms, for `den > 0`.
    fn reduce(num: i128, den: i128) -> Self {
        if den == 1 {
            return Frac { num, den };
        }
        if num == 0 {
            return Frac::ZERO;
        }
        if let (Ok(a), Ok(d)) = (u64::try_from(num.unsigned_abs()), u64::try_from(den)) {
            let g = binary_gcd(a, d);
            let a = i128::from(a / g);
            return Frac {
                num: if num < 0 { -a } else { a },
                den: i128::from(d / g),
            };
        }
        let g = gcd(num, den);
        Frac {
            num: num / g,
            den: den / g,
        }
    }

    /// Numerator of the reduced fraction.
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Denominator of the reduced fraction (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Whether the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Ceiling, `⌈x⌉`.
    pub fn ceil(self) -> i128 {
        -(-self).floor()
    }

    /// Floor, `⌊x⌋`.
    pub fn floor(self) -> i128 {
        if self.den == 1 {
            return self.num;
        }
        match (i64::try_from(self.num), i64::try_from(self.den)) {
            (Ok(n), Ok(d)) => i128::from(n.div_euclid(d)),
            _ => self.num.div_euclid(self.den),
        }
    }

    /// The paper's fractional-part function `{x} = x + 1 − ⌈x⌉`.
    ///
    /// Unlike the conventional fractional part, `{x} = 1` (not `0`) when `x`
    /// is an integer: `{1} = 1`. The result is always in `(0, 1]`.
    ///
    /// ```
    /// use fhe_ir::Frac;
    /// assert_eq!(Frac::from(1).paper_frac(), Frac::from(1));
    /// assert_eq!(Frac::ratio(3, 2).paper_frac(), Frac::ratio(1, 2));
    /// ```
    pub fn paper_frac(self) -> Frac {
        self + Frac::from(1 - self.ceil())
    }

    /// Smaller of two values.
    pub fn min(self, other: Frac) -> Frac {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Larger of two values.
    pub fn max(self, other: Frac) -> Frac {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Lossy conversion to `f64` (for cost interpolation and reporting only).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl From<i128> for Frac {
    fn from(v: i128) -> Self {
        Frac { num: v, den: 1 }
    }
}

impl From<i32> for Frac {
    fn from(v: i32) -> Self {
        Frac {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i64> for Frac {
    fn from(v: i64) -> Self {
        Frac {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<u32> for Frac {
    fn from(v: u32) -> Self {
        Frac {
            num: v as i128,
            den: 1,
        }
    }
}

impl Add for Frac {
    type Output = Frac;
    fn add(self, rhs: Frac) -> Frac {
        // `a/d + k = (a + k·d)/d` is in lowest terms when `a/d` is.
        if rhs.den == 1 {
            return Frac {
                num: self.num + rhs.num * self.den,
                den: self.den,
            };
        }
        if self.den == 1 {
            return rhs + self;
        }
        if self.den == rhs.den {
            return Frac::reduce(self.num + rhs.num, self.den);
        }
        Frac::ratio(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Frac {
    type Output = Frac;
    fn sub(self, rhs: Frac) -> Frac {
        self + -rhs
    }
}

impl Mul for Frac {
    type Output = Frac;
    fn mul(self, rhs: Frac) -> Frac {
        Frac::ratio(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Frac {
    type Output = Frac;
    fn div(self, rhs: Frac) -> Frac {
        assert!(rhs.num != 0, "division of Frac by zero");
        Frac::ratio(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Frac {
    type Output = Frac;
    fn neg(self) -> Frac {
        Frac {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Frac {
    fn add_assign(&mut self, rhs: Frac) {
        *self = *self + rhs;
    }
}

impl SubAssign for Frac {
    fn sub_assign(&mut self, rhs: Frac) {
        *self = *self - rhs;
    }
}

impl PartialOrd for Frac {
    fn partial_cmp(&self, other: &Frac) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frac {
    fn cmp(&self, other: &Frac) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Debug for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Default for Frac {
    fn default() -> Self {
        Frac::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_normalizes() {
        assert_eq!(Frac::ratio(2, 4), Frac::ratio(1, 2));
        assert_eq!(Frac::ratio(-2, -4), Frac::ratio(1, 2));
        assert_eq!(Frac::ratio(2, -4), Frac::ratio(-1, 2));
        assert_eq!(Frac::ratio(0, 7), Frac::ZERO);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Frac::ratio(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Frac::ratio(1, 3);
        let b = Frac::ratio(1, 6);
        assert_eq!(a + b, Frac::ratio(1, 2));
        assert_eq!(a - b, Frac::ratio(1, 6));
        assert_eq!(a * b, Frac::ratio(1, 18));
        assert_eq!(a / b, Frac::from(2));
        assert_eq!(-a, Frac::ratio(-1, 3));
    }

    #[test]
    fn ceil_floor_negative() {
        assert_eq!(Frac::ratio(-1, 2).ceil(), 0);
        assert_eq!(Frac::ratio(-1, 2).floor(), -1);
        assert_eq!(Frac::ratio(-3, 2).ceil(), -1);
        assert_eq!(Frac::from(-2).ceil(), -2);
        assert_eq!(Frac::from(-2).floor(), -2);
    }

    #[test]
    fn paper_frac_matches_definition() {
        // {1} = 1, not 0 — the paper's convention.
        assert_eq!(Frac::from(1).paper_frac(), Frac::ONE);
        assert_eq!(Frac::from(5).paper_frac(), Frac::ONE);
        assert_eq!(Frac::ratio(7, 6).paper_frac(), Frac::ratio(1, 6));
        // redistribution example from §6.3: {30/60 + 2·20/60} = 10/60
        let x = Frac::ratio(30, 60) + Frac::from(2) * Frac::ratio(20, 60);
        assert_eq!(x.paper_frac(), Frac::ratio(10, 60));
    }

    #[test]
    fn ordering() {
        assert!(Frac::ratio(1, 3) < Frac::ratio(1, 2));
        assert!(Frac::ratio(-1, 3) > Frac::ratio(-1, 2));
        assert_eq!(Frac::ratio(2, 6).max(Frac::ratio(1, 2)), Frac::ratio(1, 2));
        assert_eq!(Frac::ratio(2, 6).min(Frac::ratio(1, 2)), Frac::ratio(1, 3));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Frac::ratio(3, 2)), "3/2");
        assert_eq!(format!("{}", Frac::from(4)), "4");
    }
}
