//! A minimal, self-contained stand-in for the `rand` crate.
//!
//! The build environment has no access to a crate registry, so this local
//! crate provides exactly the API surface the workspace uses: seedable
//! generators ([`rngs::SmallRng`], [`rngs::StdRng`]) and the [`Rng`]
//! methods `gen`, `gen_range` and `gen_bool`. The generator is
//! xoshiro256++ seeded via splitmix64 — deterministic for a given seed,
//! which is all the data generators and tests rely on.
//!
//! The numeric streams differ from the real `rand` crate; nothing in the
//! workspace depends on specific values, only on determinism and rough
//! uniformity.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core source of randomness: a stream of `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A generator that can be constructed from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Deterministically seed the generator.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from `[0, 1)` / their full domain by
/// [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Primitive integers [`Rng::gen_range`] can sample (round-trips through
/// `i128` so one generic implementation covers signed and unsigned).
pub trait SampleUniform: Copy + PartialOrd {
    /// Widen to `i128`.
    fn to_i128(self) -> i128;
    /// Narrow from `i128` (the value is always in domain by construction).
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> $t {
                v as $t
            }
        }
    )*};
}

impl_sample_uniform!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range. Panics when empty.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

fn sample_span<T: SampleUniform, R: RngCore + ?Sized>(lo: T, span: u128, rng: &mut R) -> T {
    let off = (rng.next_u64() as u128 % span) as i128;
    T::from_i128(lo.to_i128() + off)
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = (self.end.to_i128() - self.start.to_i128()) as u128;
        sample_span(self.start, span, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        let span = (hi.to_i128() - lo.to_i128()) as u128 + 1;
        sample_span(lo, span, rng)
    }
}

/// The user-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value of a [`Standard`]-samplable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a range (`a..b` or `a..=b`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_one(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and plenty for test data.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
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

    /// The "standard" generator; same algorithm as [`SmallRng`] here.
    #[derive(Debug, Clone)]
    pub struct StdRng(SmallRng);

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng(SmallRng::seed_from_u64(seed ^ 0x5DEE_CE66_D1CE_CAFE))
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

/// The glob-import module mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::{SmallRng, StdRng};
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: i64 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&x));
            let y: usize = rng.gen_range(0..3);
            assert!(y < 3);
            let z: u32 = rng.gen_range(1..=4);
            assert!((1..=4).contains(&z));
        }
    }

    #[test]
    fn gen_bool_is_roughly_calibrated() {
        let mut rng = SmallRng::seed_from_u64(42);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn f64_samples_are_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
