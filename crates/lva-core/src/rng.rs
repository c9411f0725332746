//! A small, self-contained deterministic PRNG.
//!
//! The repository must build and test with **no network access**, so the
//! external `rand` crate is replaced by this module: a xoshiro256++
//! generator seeded through SplitMix64 (the seeding procedure the xoshiro
//! authors recommend). It drives workload input generation and the
//! deterministic property-test loops; it is *not* cryptographic.
//!
//! The API mirrors the subset of `rand` the workloads used —
//! `gen_range`, `gen_bool`, `gen_u64`/`gen_f64` — so call sites read the
//! same. Every sequence is a pure function of the seed: same seed, same
//! stream, on every platform and at any thread count.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256++ pseudo-random number generator.
///
/// # Example
///
/// ```
/// use lva_core::Rng64;
///
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.gen_u64(), b.gen_u64());
/// let x = a.gen_range(0usize..10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// The next raw 64-bit output (xoshiro256++ step).
    pub fn gen_u64(&mut self) -> u64 {
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

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits of entropy).
    pub fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` (24 mantissa bits of entropy).
    pub(crate) fn gen_f32(&mut self) -> f32 {
        (self.gen_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform sample from a range; see `UniformRange` for the supported
    /// range types.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Range types [`Rng64::gen_range`] can sample uniformly.
pub trait UniformRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut Rng64) -> Self::Output;
}

/// Uniform integer in `[0, span)`. Modulo with a 64-bit numerator: the
/// bias is < span/2^64, far below anything our statistical assertions can
/// see, and keeps the sequence trivially reproducible.
fn below(rng: &mut Rng64, span: u64) -> u64 {
    assert!(span > 0, "cannot sample an empty range");
    rng.gen_u64() % span
}

impl UniformRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng64) -> usize {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + below(rng, (self.end - self.start) as u64) as usize
    }
}

impl UniformRange for RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng64) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {self:?}");
        lo + below(rng, (hi - lo) as u64 + 1) as usize
    }
}

impl UniformRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut Rng64) -> u64 {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + below(rng, self.end - self.start)
    }
}

impl UniformRange for Range<u32> {
    type Output = u32;
    fn sample(self, rng: &mut Rng64) -> u32 {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + below(rng, u64::from(self.end - self.start)) as u32
    }
}

impl UniformRange for Range<i32> {
    type Output = i32;
    fn sample(self, rng: &mut Rng64) -> i32 {
        assert!(self.start < self.end, "empty range {self:?}");
        let span = i64::from(self.end) - i64::from(self.start);
        (i64::from(self.start) + below(rng, span as u64) as i64) as i32
    }
}

impl UniformRange for Range<i64> {
    type Output = i64;
    fn sample(self, rng: &mut Rng64) -> i64 {
        assert!(self.start < self.end, "empty range {self:?}");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add(below(rng, span) as i64)
    }
}

impl UniformRange for RangeInclusive<i64> {
    type Output = i64;
    fn sample(self, rng: &mut Rng64) -> i64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {self:?}");
        lo.wrapping_add(below(rng, hi.wrapping_sub(lo) as u64 + 1) as i64)
    }
}

impl UniformRange for Range<f32> {
    type Output = f32;
    fn sample(self, rng: &mut Rng64) -> f32 {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + rng.gen_f32() * (self.end - self.start)
    }
}

impl UniformRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Rng64) -> f64 {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
        let mut c = Rng64::new(8);
        assert_ne!(Rng64::new(7).gen_u64(), c.gen_u64());
    }

    #[test]
    fn floats_stay_in_unit_interval() {
        let mut r = Rng64::new(1);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
            let y = r.gen_f32();
            assert!((0.0..1.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng64::new(2);
        for _ in 0..10_000 {
            assert!(r.gen_range(3usize..17) < 17);
            assert!(r.gen_range(3usize..17) >= 3);
            let i = r.gen_range(-64i64..=64);
            assert!((-64..=64).contains(&i));
            let f = r.gen_range(-2.5f32..2.5);
            assert!((-2.5..2.5).contains(&f));
            let d = r.gen_range(1e-9f64..1.0);
            assert!((1e-9..1.0).contains(&d));
            let inc = r.gen_range(0usize..=3);
            assert!(inc <= 3);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng64::new(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "{frac}");
        assert!(!Rng64::new(4).gen_bool(0.0));
        assert!(Rng64::new(4).gen_bool(1.0));
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = Rng64::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gen_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "{mean}");
        let imean: f64 =
            (0..n).map(|_| r.gen_range(0usize..100) as f64).sum::<f64>() / f64::from(n);
        assert!((imean - 49.5).abs() < 1.0, "{imean}");
    }
}
