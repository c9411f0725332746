//! Shared helpers for the workload kernels: thread partitioning, seeded
//! randomness and the math routines the kernels share.

use lva_core::Rng64;
use std::ops::Range;

/// Number of application threads every kernel is configured with (§V: all
/// workloads run with 4 threads).
pub const THREADS: usize = 4;

/// Splits `0..total` into `chunk`-sized pieces dealt round-robin to the 4
/// threads, returning `(thread, range)` pairs in interleaved execution
/// order. This emulates the concurrency of the real benchmarks while
/// keeping runs deterministic.
#[must_use]
pub(crate) fn interleaved_chunks(total: usize, chunk: usize) -> Vec<(usize, Range<usize>)> {
    assert!(chunk > 0, "chunk must be positive");
    let mut out = Vec::new();
    let mut start = 0;
    let mut thread = 0;
    while start < total {
        let end = (start + chunk).min(total);
        out.push((thread, start..end));
        thread = (thread + 1) % THREADS;
        start = end;
    }
    out
}

/// A deterministic RNG for workload input generation; `stream` lets each
/// thread or data structure get an independent sequence. Built on the
/// in-repo [`Rng64`] so offline builds need no external crates.
#[must_use]
pub(crate) fn seeded_rng(seed: u64, stream: u64) -> Rng64 {
    Rng64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Cumulative distribution function of the standard normal, via the
/// Abramowitz–Stegun polynomial — the same approximation PARSEC's
/// blackscholes uses.
#[must_use]
pub(crate) fn cndf(x: f64) -> f64 {
    let neg = x < 0.0;
    let x = x.abs();
    let k = 1.0 / (1.0 + 0.231_641_9 * x);
    let poly = k
        * (0.319_381_530
            + k * (-0.356_563_782
                + k * (1.781_477_937 + k * (-1.821_255_978 + k * 1.330_274_429))));
    let approx = 1.0 - (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt() * poly;
    if neg {
        1.0 - approx
    } else {
        approx
    }
}

/// Cheap multiply-mix hasher for the kernels' small fixed-size memo keys
/// (packed input bits). The default SipHash dominates a table probe at
/// these key sizes; the memo tables are never iterated, so distribution
/// quality only affects speed, not determinism.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = self.0.rotate_left(23);
    }
}

/// Relative difference `|a − b| / |b|`, defined as 0 when both are ~zero
/// and 1 when only the reference is ~zero.
#[must_use]
pub(crate) fn relative_error(approx: f64, precise: f64) -> f64 {
    if precise.abs() < 1e-12 {
        if approx.abs() < 1e-12 {
            0.0
        } else {
            1.0
        }
    } else {
        (approx - precise).abs() / precise.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_once() {
        let chunks = interleaved_chunks(103, 10);
        let mut seen = [false; 103];
        for (_, r) in &chunks {
            for i in r.clone() {
                assert!(!seen[i], "{i} covered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Threads rotate 0,1,2,3,0,...
        assert_eq!(chunks[0].0, 0);
        assert_eq!(chunks[4].0, 0);
        assert_eq!(chunks[5].0, 1);
    }

    #[test]
    fn chunks_handle_small_totals() {
        assert!(interleaved_chunks(0, 8).is_empty());
        let one = interleaved_chunks(3, 8);
        assert_eq!(one, vec![(0, 0..3)]);
    }

    #[test]
    fn rng_is_deterministic_per_stream() {
        let a = seeded_rng(42, 0).gen_u64();
        let b = seeded_rng(42, 0).gen_u64();
        let c = seeded_rng(42, 1).gen_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cndf_matches_known_values() {
        assert!((cndf(0.0) - 0.5).abs() < 1e-7);
        assert!((cndf(1.0) - 0.841_344_7).abs() < 1e-6);
        assert!((cndf(-1.0) - 0.158_655_3).abs() < 1e-6);
        assert!(cndf(6.0) > 0.999_999);
        assert!(cndf(-6.0) < 1e-6);
    }

    #[test]
    fn cndf_is_monotone() {
        let mut prev = 0.0;
        for i in -40..=40 {
            let v = cndf(f64::from(i) * 0.1);
            assert!(v >= prev - 1e-12, "not monotone at {i}");
            prev = v;
        }
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), 1.0);
        assert!((relative_error(1.1, 1.0) - 0.1).abs() < 1e-12);
    }
}
