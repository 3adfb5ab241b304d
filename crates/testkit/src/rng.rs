//! Deterministic pseudo-random number generation: splitmix64 seeding and
//! the xoshiro256++ core, plus the small `rand`-shaped trait surface the
//! workspace actually uses (`seed_from_u64`, `gen`, `gen_range`).
//!
//! The generators are the reference algorithms of Blackman & Vigna
//! (<https://prng.di.unimi.it/>), transcribed from the public-domain C.
//! Identical seeds produce identical streams on every platform, which is
//! what makes the Table 1/2/3 artifacts byte-reproducible.

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// splitmix64
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, fast generator used to expand a single `u64` seed
/// into the 256-bit xoshiro state (the seeding procedure the xoshiro
/// authors recommend). Also usable standalone for derived stream seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

// ---------------------------------------------------------------------------
// xoshiro256++
// ---------------------------------------------------------------------------

/// Xoshiro256++ — the workspace's deterministic generator. 256 bits of
/// state, period 2²⁵⁶−1, passes BigCrush; the `++` scrambler returns
/// full-strength 64-bit outputs suitable for deriving floats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // splitmix64 output is equidistributed, so a run of four zero
        // words cannot occur from any seed; no fallback needed.
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl RngCore for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256pp::next_u64(self)
    }
}

/// Concrete-type aliases mirroring the `rand::rngs` layout so call sites
/// migrate with a one-line import change.
pub mod rngs {
    /// The workspace's standard seedable generator (xoshiro256++).
    pub type StdRng = super::Xoshiro256pp;
}

// ---------------------------------------------------------------------------
// Traits
// ---------------------------------------------------------------------------

/// The minimal generator interface: a source of 64-bit words.
pub trait RngCore {
    /// Next 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seeding interface: expand one `u64` into a full generator state.
pub trait SeedableRng: Sized {
    /// Construct a generator from a single integer seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`] (so `&mut R` works wherever `R: Rng + ?Sized` is asked).
pub trait Rng: RngCore {
    /// Sample a value of type `T` from its natural uniform distribution
    /// (`f64` in `[0,1)`, integers over their full domain, fair `bool`).
    #[inline]
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Uniform sample from a range (`a..b` or `a..=b`), unbiased via
    /// power-of-two rejection for integers.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types samplable from their full natural domain by [`Rng::gen`].
pub trait FromRng {
    /// Draw one value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for f64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        rng.next_f64()
    }
}

impl FromRng for u64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl FromRng for u16 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> u16 {
        (rng.next_u64() >> 48) as u16
    }
}

impl FromRng for u32 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Unbiased uniform draw below `bound` (`bound >= 1`) by masking to the
/// next power of two and rejecting overshoots — at most ~50% rejections.
#[inline]
pub fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound >= 1);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    // bound is not a power of two here, so bound < 2^63 implies
    // next_power_of_two cannot overflow; bound > 2^63 needs the full mask.
    let mask = if bound > 1 << 63 {
        u64::MAX
    } else {
        bound.next_power_of_two() - 1
    };
    loop {
        let v = rng.next_u64() & mask;
        if v < bound {
            return v;
        }
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "gen_range: empty range {}..{}", self.start, self.end
                );
                let span = (self.end as i128 - self.start as i128) as u64;
                let v = uniform_u64_below(rng, span);
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range {start}..={end}");
                let span = end as i128 - start as i128 + 1;
                if span > u64::MAX as i128 {
                    // Full 64-bit domain: every word is a valid sample.
                    return rng.next_u64() as $t;
                }
                let v = uniform_u64_below(rng, span as u64);
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_sample_range!(i8, u8, i16, u16, i32, u32, i64, u64, isize, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(
            self.start < self.end && self.start.is_finite() && self.end.is_finite(),
            "gen_range: bad f64 range {}..{}",
            self.start,
            self.end
        );
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(
            start <= end && start.is_finite() && end.is_finite(),
            "gen_range: bad f64 range {start}..={end}"
        );
        start + rng.next_f64() * (end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 from seed 0 — first output is the published reference
    /// value 0xE220A8397B1DCDAF; the rest pin this transcription.
    #[test]
    fn splitmix64_golden_seed_zero() {
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(sm.next_u64(), 0xF88B_B8A8_724C_81EC);
    }

    /// Xoshiro256++ with the hand-checkable state {1,2,3,4}: the first
    /// output is rotl(1+4, 23) + 1 = 5·2²³ + 1 = 41943041, and the
    /// following outputs pin the state transition.
    #[test]
    fn xoshiro_golden_state_1234() {
        let mut rng = Xoshiro256pp { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 41_943_041);
        assert_eq!(rng.next_u64(), 58_720_359);
        assert_eq!(rng.next_u64(), 3_588_806_011_781_223);
        assert_eq!(rng.next_u64(), 3_591_011_842_654_386);
        assert_eq!(rng.next_u64(), 9_228_616_714_210_784_205);
    }

    /// The composed seeding path (splitmix64 expansion → xoshiro256++
    /// outputs) for seed 42, pinned so any change to either algorithm or
    /// the glue between them is caught.
    #[test]
    fn seeded_stream_golden_seed_42() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        assert_eq!(rng.next_u64(), 15_021_278_609_987_233_951);
        assert_eq!(rng.next_u64(), 5_881_210_131_331_364_753);
        assert_eq!(rng.next_u64(), 18_149_643_915_985_481_100);
        assert_eq!(rng.next_u64(), 12_933_668_939_759_105_464);
    }

    #[test]
    fn seed_from_u64_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    /// Chi-square uniformity over 16 `gen_range` buckets. With df = 15
    /// the 99.9th percentile is ≈ 37.7 (Wilson–Hilferty); 45 leaves a
    /// wide deterministic margin for this fixed seed.
    #[test]
    fn gen_range_chi_square_uniformity() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xC4150);
        let k = 16usize;
        let n = 64_000usize;
        let mut counts = vec![0u64; k];
        for _ in 0..n {
            counts[rng.gen_range(0..k)] += 1;
        }
        let expected = n as f64 / k as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 45.0, "chi2={chi2} counts={counts:?}");
    }

    /// Mean/variance sanity for the `[0,1)` f64 uniform: mean 1/2,
    /// variance 1/12.
    #[test]
    fn f64_uniform_moments() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xF1_0A7);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.003, "var={var}");
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn gen_range_respects_bounds_all_types() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..2_000 {
            let a = rng.gen_range(-1..=1i8);
            assert!((-1..=1).contains(&a));
            let b = rng.gen_range(1024..u16::MAX);
            assert!((1024..u16::MAX).contains(&b));
            let c = rng.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&c));
            let d = rng.gen_range(0..7usize);
            assert!(d < 7);
            let e = rng.gen_range(32..=255u32);
            assert!((32..=255).contains(&e));
            let f = rng.gen_range(-1000i64..1000);
            assert!((-1000..1000).contains(&f));
        }
    }

    #[test]
    fn full_domain_inclusive_range_works() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        // Must not overflow or hang on the widest possible range.
        let _ = rng.gen_range(u64::MIN..=u64::MAX);
        let _ = rng.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn rng_trait_works_through_mut_references() {
        fn takes_generic<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen_range(-1.0..1.0)
        }
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let v = takes_generic(&mut rng);
        assert!((-1.0..1.0).contains(&v));
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let heads = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((heads as f64 / 20_000.0 - 0.25).abs() < 0.02);
    }
}
