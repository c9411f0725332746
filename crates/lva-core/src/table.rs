//! The direct-mapped approximator table (Fig. 3).
//!
//! Each entry holds a tag (to detect aliasing between different contexts), a
//! saturating confidence counter, a degree counter and a local history
//! buffer of the precise values that followed this context in the past.
//!
//! # Struct-of-arrays layout
//!
//! The table is the hottest structure on the phase-1 load path, so entry
//! state lives in parallel arrays rather than a `Vec` of entry structs: one
//! array each for tags, confidence counters and degree counters, and one
//! flat value array holding every entry's LHB back to back. Tag compares
//! and confidence probes touch one small dense array apiece instead of
//! striding over wide entry structs, and the per-entry LHB is a
//! contiguous oldest→newest slice (`lhb_values`) the compute functions can
//! consume without chasing a ring buffer. Pushing into a full LHB shifts
//! the slice left by one — LHBs are a handful of values deep, so the shift
//! is cheaper than the index arithmetic a ring would add to every read.

use crate::{
    ConfidenceCounter, ConfigError, Value, ValueType, MAX_HISTORY_ENTRIES, MAX_TABLE_ENTRIES,
};

/// Checks, without allocating, the geometry every table-indexed mechanism
/// shares: a power-of-two table of 2..=[`MAX_TABLE_ENTRIES`] entries,
/// 1..=[`MAX_HISTORY_ENTRIES`] LHB and at most [`MAX_HISTORY_ENTRIES`] GHB
/// entries, and index plus tag bits within the 64-bit context hash.
pub(crate) fn validate_geometry(
    table_entries: usize,
    lhb_entries: usize,
    ghb_entries: usize,
    tag_bits: u32,
) -> Result<(), ConfigError> {
    if lhb_entries == 0 {
        return Err(ConfigError::LhbEntries);
    }
    if !(table_entries.is_power_of_two() && table_entries >= 2) {
        return Err(ConfigError::TableEntries {
            entries: table_entries,
        });
    }
    ConfigError::at_most("table_entries", table_entries, MAX_TABLE_ENTRIES)?;
    ConfigError::at_most("lhb_entries", lhb_entries, MAX_HISTORY_ENTRIES)?;
    ConfigError::at_most("ghb_entries", ghb_entries, MAX_HISTORY_ENTRIES)?;
    let index_bits = table_entries.trailing_zeros();
    if tag_bits > 64 - index_bits {
        return Err(ConfigError::IndexTagWidth {
            index_bits,
            tag_bits,
        });
    }
    Ok(())
}

/// Tags are stored biased by one so `0` means "never allocated": the warm
/// path compares a single `u64` per lookup with no separate valid bit.
const TAG_FREE: u64 = 0;

/// Direct-mapped approximator table (baseline: 512 entries, Table II),
/// stored as struct-of-arrays (see the module docs).
#[derive(Debug, Clone)]
pub struct ApproximatorTable {
    /// Per-entry tag biased by one; [`TAG_FREE`] marks an unallocated entry.
    tags: Vec<u64>,
    /// Per-entry saturating signed confidence counter (§III-B).
    confidence: Vec<ConfidenceCounter>,
    /// Per-entry remaining approximations before the next training fetch
    /// (§III-C).
    degree: Vec<u32>,
    /// Flat LHB storage: entry `i` owns `lhb[i * lhb_capacity ..]`, of which
    /// the first `lhb_len[i]` values are live, oldest first.
    lhb: Vec<Value>,
    lhb_len: Vec<u32>,
    lhb_capacity: usize,
    /// Template for reset: a fresh counter of the configured width.
    fresh_confidence: ConfidenceCounter,
}

impl ApproximatorTable {
    /// Creates a table with `entries` entries (must be a power of two ≥ 2),
    /// each holding an `lhb_entries`-deep LHB, a `confidence_bits`-wide
    /// counter and a degree counter initialized to `degree`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TableEntries`] if `entries` is not a power of
    /// two or is < 2, and [`ConfigError::ConfidenceBits`] if the counter
    /// width is outside `2..=16`.
    pub fn try_new(
        entries: usize,
        lhb_entries: usize,
        confidence_bits: u32,
        degree: u32,
    ) -> Result<Self, ConfigError> {
        if !(entries.is_power_of_two() && entries >= 2) {
            return Err(ConfigError::TableEntries { entries });
        }
        let fresh_confidence = ConfidenceCounter::try_new(confidence_bits)?;
        Ok(ApproximatorTable {
            tags: vec![TAG_FREE; entries],
            confidence: vec![fresh_confidence; entries],
            degree: vec![degree; entries],
            lhb: vec![Value::from_bits(0, ValueType::U8); entries * lhb_entries],
            lhb_len: vec![0; entries],
            lhb_capacity: lhb_entries,
            fresh_confidence,
        })
    }

    /// Convenience wrapper around [`try_new`](Self::try_new) for known-good
    /// geometries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or is < 2; fallible
    /// callers should use [`try_new`](Self::try_new).
    #[must_use]
    pub fn new(entries: usize, lhb_entries: usize, confidence_bits: u32, degree: u32) -> Self {
        Self::try_new(entries, lhb_entries, confidence_bits, degree)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the table has zero entries (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// log2 of the entry count — the number of index bits the hasher must
    /// produce.
    #[must_use]
    pub(crate) fn index_bits(&self) -> u32 {
        self.tags.len().trailing_zeros()
    }

    /// The tag of the entry at `index`, if allocated.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds (as do all per-entry accessors).
    #[must_use]
    pub fn tag(&self, index: usize) -> Option<u64> {
        let stored = self.tags[index];
        (stored != TAG_FREE).then(|| stored - 1)
    }

    /// XORs `mask` into the stored tag at `index`, modelling a tag-array
    /// bit flip. Unallocated entries are untouched (there is no tag to
    /// corrupt). This is the sanctioned fault-injection hook for the
    /// otherwise private tag; the next lookup sees a mismatch and
    /// reallocates.
    pub fn corrupt_tag(&mut self, index: usize, mask: u64) {
        let stored = self.tags[index];
        if stored != TAG_FREE {
            self.tags[index] = ((stored - 1) ^ mask).wrapping_add(1);
        }
    }

    /// Shared access to the confidence counter at `index`.
    #[must_use]
    pub fn confidence(&self, index: usize) -> &ConfidenceCounter {
        &self.confidence[index]
    }

    /// Exclusive access to the confidence counter at `index`.
    pub fn confidence_mut(&mut self, index: usize) -> &mut ConfidenceCounter {
        &mut self.confidence[index]
    }

    /// The degree counter at `index`: remaining approximations before the
    /// next training fetch.
    #[must_use]
    pub(crate) fn degree_counter(&self, index: usize) -> u32 {
        self.degree[index]
    }

    /// Exclusive access to the degree counter at `index`.
    pub(crate) fn degree_counter_mut(&mut self, index: usize) -> &mut u32 {
        &mut self.degree[index]
    }

    /// The live LHB contents at `index`, oldest value first.
    #[must_use]
    pub(crate) fn lhb_values(&self, index: usize) -> &[Value] {
        let start = index * self.lhb_capacity;
        &self.lhb[start..start + self.lhb_len[index] as usize]
    }

    /// Whether the LHB at `index` holds no values.
    #[must_use]
    pub(crate) fn lhb_is_empty(&self, index: usize) -> bool {
        self.lhb_len[index] == 0
    }

    /// The most recent LHB value at `index`, if any.
    #[must_use]
    pub(crate) fn lhb_newest(&self, index: usize) -> Option<Value> {
        self.lhb_values(index).last().copied()
    }

    /// Exclusive access to the most recent LHB value at `index` — the
    /// fault-injection hook for history bit flips.
    pub fn lhb_newest_mut(&mut self, index: usize) -> Option<&mut Value> {
        let len = self.lhb_len[index] as usize;
        (len > 0).then(|| &mut self.lhb[index * self.lhb_capacity + len - 1])
    }

    /// Pushes `value` into the LHB at `index`, evicting the oldest value
    /// when the buffer is full (a zero-capacity LHB retains nothing).
    pub(crate) fn lhb_push(&mut self, index: usize, value: Value) {
        if self.lhb_capacity == 0 {
            return;
        }
        let start = index * self.lhb_capacity;
        let len = self.lhb_len[index] as usize;
        if len < self.lhb_capacity {
            self.lhb[start + len] = value;
            self.lhb_len[index] = (len + 1) as u32;
        } else {
            // Full: shift left by one to evict the oldest. Capacities are a
            // handful of values, so this beats ring-buffer indexing on reads.
            self.lhb.copy_within(start + 1..start + len, start);
            self.lhb[start + len - 1] = value;
        }
    }

    /// Looks up `index`, reallocating the entry for `tag` on a miss: the
    /// tag is replaced and the confidence, degree counter and LHB are
    /// reset, mirroring what a direct-mapped hardware table does on a
    /// tag mismatch.
    pub(crate) fn lookup_or_allocate(&mut self, index: usize, tag: u64, degree: u32) {
        // Hasher-produced tags are at most 63 bits (index + tag ≤ 64 with at
        // least one index bit), so the bias can never wrap into TAG_FREE.
        let stored = tag.wrapping_add(1);
        if self.tags[index] != stored {
            self.tags[index] = stored;
            self.confidence[index] = self.fresh_confidence;
            self.degree[index] = degree;
            self.lhb_len[index] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_resets_state() {
        let mut t = ApproximatorTable::new(8, 4, 4, 2);
        assert_eq!(t.tag(3), None);
        t.lookup_or_allocate(3, 0xaa, 2);
        assert_eq!(t.tag(3), Some(0xaa));
        t.lhb_push(3, Value::from_f32(1.0));
        t.confidence_mut(3).decrement(3);
        *t.degree_counter_mut(3) = 0;
        // Same tag: state is preserved.
        t.lookup_or_allocate(3, 0xaa, 2);
        assert_eq!(t.tag(3), Some(0xaa));
        assert_eq!(t.lhb_values(3).len(), 1);
        assert_eq!(t.confidence(3).value(), -3);
        assert_eq!(t.degree_counter(3), 0);
        // Conflicting tag: everything resets.
        t.lookup_or_allocate(3, 0xbb, 2);
        assert!(t.lhb_is_empty(3));
        assert_eq!(t.confidence(3).value(), 0);
        assert_eq!(t.degree_counter(3), 2);
        assert_eq!(t.tag(3), Some(0xbb));
    }

    #[test]
    fn index_bits_matches_size() {
        assert_eq!(ApproximatorTable::new(512, 4, 4, 0).index_bits(), 9);
        assert_eq!(ApproximatorTable::new(2, 4, 4, 0).index_bits(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = ApproximatorTable::new(100, 4, 4, 0);
    }

    #[test]
    fn try_new_reports_bad_geometry_without_panicking() {
        assert_eq!(
            ApproximatorTable::try_new(100, 4, 4, 0).unwrap_err(),
            ConfigError::TableEntries { entries: 100 }
        );
        assert_eq!(
            ApproximatorTable::try_new(0, 4, 4, 0).unwrap_err(),
            ConfigError::TableEntries { entries: 0 }
        );
        assert_eq!(
            ApproximatorTable::try_new(8, 4, 1, 0).unwrap_err(),
            ConfigError::ConfidenceBits { bits: 1 }
        );
        assert!(ApproximatorTable::try_new(8, 4, 4, 0).is_ok());
    }

    #[test]
    fn tag_corruption_flips_allocated_tags_only() {
        let mut t = ApproximatorTable::new(8, 4, 4, 0);
        t.corrupt_tag(0, 0b100); // unallocated: no-op
        assert_eq!(t.tag(0), None);
        t.lookup_or_allocate(1, 0xaa, 0);
        t.corrupt_tag(1, 0b100);
        assert_eq!(t.tag(1), Some(0xaa ^ 0b100));
        // The next lookup under the true tag reallocates (tag mismatch).
        t.lhb_push(1, Value::from_i32(1));
        t.lookup_or_allocate(1, 0xaa, 0);
        assert_eq!(t.tag(1), Some(0xaa));
        assert!(t.lhb_is_empty(1));
    }

    #[test]
    fn lhb_push_keeps_oldest_first_order_and_evicts() {
        let mut t = ApproximatorTable::new(4, 3, 4, 0);
        t.lookup_or_allocate(1, 7, 0);
        for v in [1i32, 2, 3] {
            t.lhb_push(1, Value::from_i32(v));
        }
        let vals: Vec<i32> = t.lhb_values(1).iter().map(|v| v.as_i32()).collect();
        assert_eq!(vals, [1, 2, 3]);
        // A fourth push evicts the oldest, preserving order.
        t.lhb_push(1, Value::from_i32(4));
        let vals: Vec<i32> = t.lhb_values(1).iter().map(|v| v.as_i32()).collect();
        assert_eq!(vals, [2, 3, 4]);
        assert_eq!(t.lhb_newest(1).map(|v| v.as_i32()), Some(4));
        // Neighbouring entries are untouched by the flat-array layout.
        assert!(t.lhb_is_empty(0));
        assert!(t.lhb_is_empty(2));
    }

    #[test]
    fn zero_capacity_lhb_retains_nothing() {
        let mut t = ApproximatorTable::new(4, 0, 4, 0);
        t.lookup_or_allocate(0, 1, 0);
        t.lhb_push(0, Value::from_i32(9));
        assert!(t.lhb_is_empty(0));
        assert_eq!(t.lhb_newest(0), None);
        assert!(t.lhb_newest_mut(0).is_none());
    }
}
