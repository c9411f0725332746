//! Context hashing: combining the load PC with the global history buffer to
//! index the approximator table (§III-A, Fig. 3).

use crate::{HistoryBuffer, Pc, Value};

/// Hash function used to combine the PC with the GHB values.
///
/// The paper's baseline is `XOR(PC, GHB)` (Table II). `FoldedXor` is a
/// design-space alternative that rotates each GHB value by its position
/// before XOR-ing, so reordered value patterns map to distinct entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashKind {
    /// Plain XOR of the PC with every (truncated) GHB value — the baseline.
    #[default]
    Xor,
    /// Position-dependent XOR: GHB value *i* is rotated left by `8·(i+1)`
    /// bits first, making the hash sensitive to pattern order.
    FoldedXor,
}

/// Computes approximator-table indices and tags from a load's context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextHasher {
    kind: HashKind,
    mantissa_loss_bits: u32,
    index_bits: u32,
    tag_bits: u32,
}

/// An (index, tag) pair locating a table entry for a given context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSlot {
    /// Direct-mapped table index.
    pub index: usize,
    /// Tag checked against the entry to detect aliasing.
    pub tag: u64,
}

impl ContextHasher {
    /// Creates a hasher producing `index_bits`-wide indices and
    /// `tag_bits`-wide tags, optionally truncating `mantissa_loss_bits` of
    /// floating-point GHB values before hashing (§VII-B).
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or `index_bits + tag_bits > 64`.
    #[must_use]
    pub fn new(kind: HashKind, mantissa_loss_bits: u32, index_bits: u32, tag_bits: u32) -> Self {
        assert!(index_bits > 0, "table must have at least 2 entries");
        assert!(
            index_bits + tag_bits <= 64,
            "index ({index_bits}) + tag ({tag_bits}) bits exceed 64"
        );
        ContextHasher {
            kind,
            mantissa_loss_bits,
            index_bits,
            tag_bits,
        }
    }

    /// Hashes the load PC together with the GHB contents.
    ///
    /// With an empty (or zero-capacity) GHB this reduces to a scramble of the
    /// PC alone — the paper's GHB-0 configuration.
    #[must_use]
    pub fn slot(&self, pc: Pc, ghb: &HistoryBuffer<Value>) -> TableSlot {
        let mut h = pc.0;
        for (i, v) in ghb.iter().enumerate() {
            let bits = v.hash_bits(self.mantissa_loss_bits);
            let mixed = match self.kind {
                HashKind::Xor => bits,
                HashKind::FoldedXor => bits.rotate_left(8 * (i as u32 + 1)),
            };
            h ^= mixed;
        }
        // Finalize with a 64-bit mix (splitmix64) so nearby PCs spread over
        // the table instead of clustering in adjacent sets.
        let h = splitmix64(h);
        let index = (h & ((1u64 << self.index_bits) - 1)) as usize;
        let tag = (h >> self.index_bits) & tag_mask(self.tag_bits);
        TableSlot { index, tag }
    }
}

fn tag_mask(tag_bits: u32) -> u64 {
    if tag_bits == 0 {
        0
    } else if tag_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << tag_bits) - 1
    }
}

/// splitmix64 finalizer — a cheap, well-distributed 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueType;

    fn ghb_of(vals: &[f32], cap: usize) -> HistoryBuffer<Value> {
        let mut g = HistoryBuffer::new(cap);
        g.extend(vals.iter().map(|&v| Value::from_f32(v)));
        g
    }

    #[test]
    fn ghb0_hash_depends_only_on_pc() {
        let h = ContextHasher::new(HashKind::Xor, 0, 9, 21);
        let empty = HistoryBuffer::new(0);
        let s1 = h.slot(Pc(0x100), &empty);
        let s2 = h.slot(Pc(0x100), &empty);
        let s3 = h.slot(Pc(0x104), &empty);
        assert_eq!(s1, s2);
        assert!(s1 != s3, "distinct PCs should (almost surely) differ");
    }

    #[test]
    fn index_stays_in_range() {
        let h = ContextHasher::new(HashKind::Xor, 0, 9, 21);
        for pc in 0..2000u64 {
            let slot = h.slot(Pc(pc), &ghb_of(&[1.0, 2.0], 2));
            assert!(slot.index < 512);
            assert!(slot.tag < (1 << 21));
        }
    }

    #[test]
    fn ghb_values_change_the_slot() {
        let h = ContextHasher::new(HashKind::Xor, 0, 9, 21);
        let a = h.slot(Pc(0x100), &ghb_of(&[1.0, 2.0], 2));
        let b = h.slot(Pc(0x100), &ghb_of(&[1.0, 3.0], 2));
        assert_ne!(a, b);
    }

    #[test]
    fn mantissa_truncation_collapses_similar_float_contexts() {
        let full = ContextHasher::new(HashKind::Xor, 0, 9, 21);
        let trunc = ContextHasher::new(HashKind::Xor, 23, 9, 21);
        let a = ghb_of(&[1.000, 2.000], 2);
        let b = ghb_of(&[1.001, 2.001], 2);
        assert_ne!(full.slot(Pc(7), &a), full.slot(Pc(7), &b));
        assert_eq!(trunc.slot(Pc(7), &a), trunc.slot(Pc(7), &b));
    }

    #[test]
    fn folded_xor_distinguishes_order() {
        let h = ContextHasher::new(HashKind::FoldedXor, 0, 9, 21);
        let mut ab = HistoryBuffer::new(2);
        ab.push(Value::from_bits(0xa, ValueType::I32));
        ab.push(Value::from_bits(0xb, ValueType::I32));
        let mut ba = HistoryBuffer::new(2);
        ba.push(Value::from_bits(0xb, ValueType::I32));
        ba.push(Value::from_bits(0xa, ValueType::I32));
        assert_ne!(h.slot(Pc(1), &ab), h.slot(Pc(1), &ba));
        // Plain XOR cannot tell them apart — exactly the weakness FoldedXor fixes.
        let plain = ContextHasher::new(HashKind::Xor, 0, 9, 21);
        assert_eq!(plain.slot(Pc(1), &ab), plain.slot(Pc(1), &ba));
    }

    #[test]
    #[should_panic(expected = "at least 2 entries")]
    fn zero_index_bits_panics() {
        let _ = ContextHasher::new(HashKind::Xor, 0, 0, 21);
    }
}
