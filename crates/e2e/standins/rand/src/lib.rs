//! Offline stand-in for the subset of `rand` 0.8 that `ovnes-sim` uses:
//! the `RngCore`/`SeedableRng`/`Rng` traits and the `Standard` distribution
//! for the integer, float and bool types. The algorithms follow the published
//! crate (PCG32 seed expansion, 53-bit floats), but nothing here is checked
//! against it: results are only comparable between builds that use the same
//! stand-in.

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be built from a fixed-size seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed with PCG32, as rand_core does.
    fn seed_from_u64(mut state: u64) -> Self {
        fn pcg32(state: &mut u64) -> [u8; 4] {
            const MUL: u64 = 6364136223846793005;
            const INC: u64 = 11634580027462260723;
            *state = state.wrapping_mul(MUL).wrapping_add(INC);
            let state = *state;
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            xorshifted.rotate_right(rot).to_le_bytes()
        }
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            let bytes = pcg32(&mut state);
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

pub mod distributions {
    use super::Rng;

    /// Types that can produce values of `T` from a generator.
    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The default distribution: full range for integers, `[0, 1)` for floats.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty => $next:ident),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.$next() as $t
                }
            }
        )*};
    }
    standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
                  i8 => next_u32, i16 => next_u32, i32 => next_u32, i64 => next_u64,
                  usize => next_u64, isize => next_u64);

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            (rng.next_u32() as i32) < 0
        }
    }
}

/// Convenience methods on top of [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
