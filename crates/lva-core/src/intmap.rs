//! A fast hasher for maps keyed by integers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci multiplicative hasher for integer keys: page numbers, block
/// indices, request ids. SipHash dominates the cost of a lookup on the
/// simulators' per-load and per-miss paths; these keys are
/// well-distributed small integers, so one multiply is plenty. Maps using
/// it must not be iterated on a result-producing path, which keeps
/// results independent of the hash.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; u64 keys take the `write_u64` path below.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A `HashMap` over integer keys hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
