//! A minimal, dependency-free drop-in for the subset of the `rand` crate
//! this workspace uses (`StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::gen`/`gen_range`).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim instead (see `[patch]`-free path deps in the root
//! `Cargo.toml`). The generator is xoshiro256++ seeded via splitmix64 —
//! deterministic in the seed, statistically solid for simulation and
//! test-data generation, and explicitly **not** a cryptographic RNG. The
//! CKKS scheme in `fhe-ckks` draws its encryption randomness through this
//! interface, which is acceptable for a research reproduction but must be
//! swapped for a CSPRNG before any real deployment.
//!
//! Streams differ from the real `rand::rngs::StdRng` (ChaCha12); nothing in
//! the workspace depends on the exact stream, only on determinism per seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Seedable random generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly over their whole domain (`rng.gen()`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges samplable uniformly (`rng.gen_range(lo..hi)`).
pub trait SampleRange<T> {
    /// Draws one value in the range from `rng`.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Random generators (subset of `rand::Rng`).
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value uniform over `T`'s domain.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from a (half-open or inclusive) range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniformly random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        let u = f64::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + draw) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                (start as i128 + draw) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Concrete generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&f));
            let i = rng.gen_range(-1i64..=1);
            assert!((-1..=1).contains(&i));
            let u = rng.gen_range(0usize..7);
            assert!(u < 7);
            let b = rng.gen_range(0u8..=4);
            assert!(b <= 4);
        }
    }

    #[test]
    fn range_endpoints_reachable() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[(rng.gen_range(-1i64..=1) + 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn unit_floats_cover_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            lo |= f < 0.1;
            hi |= f > 0.9;
        }
        assert!(lo && hi, "samples should cover the unit interval");
    }

    #[test]
    fn reborrowed_rng_advances_the_original() {
        fn draw(rng: &mut impl Rng) -> u64 {
            rng.next_u64()
        }
        let mut rng = StdRng::seed_from_u64(4);
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        assert_ne!(a, b, "the shared generator must advance");
    }
}
