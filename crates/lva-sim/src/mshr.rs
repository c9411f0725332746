//! A small open-addressed set of in-flight block indices — the harness's
//! MSHR analogue.
//!
//! Every approximated miss that triggers a background training fetch keeps
//! its block index "in flight" until the value delay expires, so secondary
//! misses to the same block merge instead of re-missing. Occupancy is
//! bounded by the number of outstanding training fetches (at most
//! `value_delay + 1`), which makes a flat probed array with linear probing
//! far cheaper than a general `HashSet<u64>`: no SipHash, no per-entry
//! allocation, and `is_empty`/`contains` are a handful of instructions on
//! the per-load hot path.
//!
//! Deletion uses backward-shift compaction (no tombstones), so lookup cost
//! never degrades over the run.

/// Reserved slot marker. Block indices are `addr / 64`, so a real key can
/// never reach `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// Minimum table size; must be a power of two.
const MIN_CAPACITY: usize = 16;

/// An open-addressed hash set of `u64` block indices with linear probing
/// and backward-shift deletion. Grows by doubling when half full.
#[derive(Debug, Clone)]
pub struct InFlightSet {
    slots: Box<[u64]>,
    mask: usize,
    len: usize,
}

impl Default for InFlightSet {
    fn default() -> Self {
        Self::new()
    }
}

impl InFlightSet {
    /// Creates an empty set with the minimum capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_slots(MIN_CAPACITY)
    }

    /// Creates an empty set sized so `expected` keys fit without growing.
    #[must_use]
    pub fn with_capacity(expected: usize) -> Self {
        let slots = (expected.max(1) * 2).next_power_of_two().max(MIN_CAPACITY);
        Self::with_slots(slots)
    }

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        InFlightSet {
            slots: vec![EMPTY; slots].into_boxed_slice(),
            mask: slots - 1,
            len: 0,
        }
    }

    /// Number of keys currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no fetches are outstanding.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fibonacci-hash home slot for `key`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((h >> 32) ^ h) as usize & self.mask
    }

    /// Whether `key` is in the set.
    #[must_use]
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                EMPTY => return false,
                k if k == key => return true,
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Inserts `key`; returns `false` if it was already present.
    ///
    /// # Panics
    ///
    /// Debug-panics on the reserved key `u64::MAX` (not a valid block
    /// index).
    pub fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY, "u64::MAX is reserved as the empty marker");
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                EMPTY => {
                    self.slots[i] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Removes `key`; returns `false` if it was not present. Compacts the
    /// probe chain by shifting displaced successors backward, so no
    /// tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> bool {
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                EMPTY => return false,
                k if k == key => break,
                _ => i = (i + 1) & self.mask,
            }
        }
        self.len -= 1;
        // Backward-shift: walk the chain after the hole; any entry whose
        // home slot is outside the cyclic range (hole, here] can legally
        // move into the hole, re-opening the hole at its old position.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let k = self.slots[j];
            if k == EMPTY {
                self.slots[hole] = EMPTY;
                return true;
            }
            let home = self.home(k);
            // Cyclic distance from `home` to `j` vs from `hole` to `j`:
            // if `home` is not strictly inside (hole, j], the entry may
            // move back to `hole` without breaking its probe chain.
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = k;
                hole = j;
            }
        }
    }

    /// Doubles the table and rehashes every key.
    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; 0].into_boxed_slice());
        let mut bigger = Self::with_slots(old.len() * 2);
        for &k in old.iter().filter(|&&k| k != EMPTY) {
            bigger.insert(k);
        }
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::Rng64;
    use std::collections::HashSet;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = InFlightSet::new();
        assert!(s.is_empty());
        assert!(s.insert(7));
        assert!(!s.insert(7), "duplicate insert must report existing");
        assert!(s.contains(7));
        assert!(!s.contains(8));
        assert_eq!(s.len(), 1);
        assert!(s.remove(7));
        assert!(!s.remove(7), "double remove must report absent");
        assert!(s.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = InFlightSet::new();
        for k in 0..1000u64 {
            assert!(s.insert(k));
        }
        assert_eq!(s.len(), 1000);
        for k in 0..1000u64 {
            assert!(s.contains(k), "lost key {k} after growth");
        }
    }

    #[test]
    fn with_capacity_presizes() {
        let s = InFlightSet::with_capacity(33);
        assert!(s.slots.len() >= 66, "33 keys must fit at <=50% load");
        assert!(s.slots.len().is_power_of_two());
    }

    #[test]
    fn colliding_keys_survive_backward_shift_deletion() {
        // Keys crafted to share probe chains: the low bits after mixing
        // don't matter — just insert a dense cluster and delete from the
        // middle, verifying the rest stays findable.
        let mut s = InFlightSet::new();
        let keys: Vec<u64> = (0..12).map(|i| i * 16).collect();
        for &k in &keys {
            s.insert(k);
        }
        for &k in &keys {
            assert!(s.remove(k));
            for &other in &keys {
                assert_eq!(
                    s.contains(other),
                    other > k,
                    "key {other} wrong after removing {k}"
                );
            }
        }
    }

    /// Keys whose home slot in a fresh (16-slot) table satisfies `want`,
    /// found by brute force over small integers.
    fn keys_homed(want: impl Fn(usize) -> bool, count: usize) -> Vec<u64> {
        let probe = InFlightSet::new();
        let keys: Vec<u64> = (0..1_000_000u64)
            .filter(|&k| want(probe.home(k)))
            .take(count)
            .collect();
        assert_eq!(keys.len(), count, "key search exhausted");
        keys
    }

    #[test]
    fn backward_shift_compacts_chains_wrapping_the_table_boundary() {
        // A probe chain seeded in the last slots of the 16-slot table
        // spills past slot 15 into slot 0. Deleting its head from inside
        // the wrapped region is the hardest case for the cyclic-distance
        // comparison in `remove`: a naive linear `home <= hole` test would
        // either break the chain (losing keys) or shift an entry in front
        // of its home slot (making it unfindable).
        let tail = keys_homed(|h| h >= 14, 4); // homes in {14, 15}
        let head = keys_homed(|h| h <= 1, 3); // homes in {0, 1}
        for deletion_order in [
            vec![0usize, 1, 2, 3, 4, 5, 6],
            vec![6, 5, 4, 3, 2, 1, 0],
            vec![3, 0, 6, 1, 5, 2, 4],
        ] {
            let all: Vec<u64> = tail.iter().chain(&head).copied().collect();
            let mut s = InFlightSet::new();
            for &k in &all {
                assert!(s.insert(k));
            }
            assert_eq!(s.slots.len(), 16, "must stay at the minimum size");
            let mut live: Vec<bool> = vec![true; all.len()];
            for &victim in &deletion_order {
                assert!(s.remove(all[victim]), "remove {}", all[victim]);
                live[victim] = false;
                for (i, &k) in all.iter().enumerate() {
                    assert_eq!(
                        s.contains(k),
                        live[i],
                        "key {k} wrong after removing {}",
                        all[victim]
                    );
                }
            }
            assert!(s.is_empty());
        }
    }

    #[test]
    fn seeded_boundary_churn_matches_reference_hashset() {
        // Randomized insert/remove churn over a key universe whose home
        // slots all sit within two slots of the table boundary, so probe
        // chains cross slot 15 -> slot 0 for the whole run. Occupancy is
        // kept below the growth threshold so the 16-slot geometry (and its
        // wraparound) persists; every key is verified against the model
        // after every operation.
        let universe = keys_homed(|h| h >= 13 || h <= 1, 24);
        let mut rng = Rng64::new(0xB0DA_0127);
        let mut ours = InFlightSet::new();
        let mut reference = HashSet::new();
        for step in 0..30_000 {
            let key = universe[(rng.gen_u64() % universe.len() as u64) as usize];
            if reference.len() >= 7 || (reference.contains(&key) && rng.gen_u64().is_multiple_of(2))
            {
                assert_eq!(
                    ours.remove(key),
                    reference.remove(&key),
                    "remove({key}) diverged at step {step}"
                );
            } else {
                assert_eq!(
                    ours.insert(key),
                    reference.insert(key),
                    "insert({key}) diverged at step {step}"
                );
            }
            assert_eq!(ours.len(), reference.len(), "len diverged at step {step}");
            for &k in &universe {
                assert_eq!(
                    ours.contains(k),
                    reference.contains(&k),
                    "contains({k}) diverged at step {step}"
                );
            }
        }
        assert_eq!(ours.slots.len(), 16, "occupancy cap must prevent growth");
    }

    #[test]
    fn random_ops_match_reference_hashset() {
        // Proptest-style randomized differential test against std's set.
        let mut rng = Rng64::new(0x1149_5afe);
        let mut ours = InFlightSet::new();
        let mut reference = HashSet::new();
        for step in 0..20_000 {
            // Small key universe forces constant collisions and deletions.
            let key = rng.gen_u64() % 96;
            if rng.gen_u64().is_multiple_of(3) {
                assert_eq!(
                    ours.remove(key),
                    reference.remove(&key),
                    "remove({key}) diverged at step {step}"
                );
            } else {
                assert_eq!(
                    ours.insert(key),
                    reference.insert(key),
                    "insert({key}) diverged at step {step}"
                );
            }
            assert_eq!(ours.len(), reference.len(), "len diverged at step {step}");
            let probe = rng.gen_u64() % 96;
            assert_eq!(
                ours.contains(probe),
                reference.contains(&probe),
                "contains({probe}) diverged at step {step}"
            );
        }
    }
}
