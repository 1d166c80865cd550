//! Stand-in for the published `rand` 0.8, used only where cargo cannot
//! resolve the published one (see `../../cargo.sh`). It covers exactly what
//! `remo-gen` calls: `SmallRng::seed_from_u64`, `gen::<f64>()` and
//! `gen_range` over `u64` and `usize` ranges.
//!
//! `SmallRng` is xoshiro256++ seeded through SplitMix64, as the published
//! one is on 64-bit targets, and integer ranges use widening multiply with
//! rejection. The streams are a pure function of the seed, which is all a
//! workload generator needs; they are not promised to equal the published
//! crate's.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Uniform in `[0, span)`; `span == 0` means the full 64-bit range.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    // Lemire: the high word of x * span is uniform once the low word clears
    // the 2^64 mod span values that would make some outputs more likely.
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(below(rng, span)) as $ty
            }
        }

        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                // hi - lo + 1 wraps to 0 exactly for the full range.
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                (lo as u64).wrapping_add(below(rng, span)) as $ty
            }
        }
    )*};
}

int_ranges!(u64, usize);

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut seed: u64) -> Self {
            // SplitMix64 never yields four zero words in a row, so the
            // all-zero state xoshiro cannot leave is unreachable.
            let mut s = [0u64; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..8)
                .map(|_| rng.gen_range(0..=u64::MAX))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover_them() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let x = rng.gen_range(1..=6u64);
            assert!((1..=6).contains(&x));
            seen[x as usize - 1] = true;
            assert!((10..20usize).contains(&rng.gen_range(10..20usize)));
            assert!((0.0..1.0).contains(&rng.gen::<f64>()));
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rng.gen_range(5..=5usize), 5);
    }
}
