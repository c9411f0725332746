//! Idealized load value predictor (LVP) baseline.
//!
//! The paper compares LVA against an *idealized* LVP (§VI): a prediction is
//! deemed correct as long as **any** of the values in the entry's LHB
//! matches the precise value in memory — i.e. a perfect selection mechanism,
//! an upper bound on LVP's ability to reduce MPKI. LVP always fetches the
//! block (predictions must be validated), so its fetch:miss ratio is 1:1.

use crate::{ApproximatorTable, ContextHasher, HashKind, HistoryBuffer, Pc, Value};

/// Configuration of the idealized LVP. Mirrors the approximator's indexing
/// structure so that Figs. 4 and 6 compare like against like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LvpConfig {
    /// Table entries (512, as for the approximator).
    pub table_entries: usize,
    /// Tag bits (21).
    pub tag_bits: u32,
    /// GHB entries (0–4 in Fig. 4).
    pub ghb_entries: usize,
    /// LHB entries per table entry (4): the candidate set for the oracle.
    pub lhb_entries: usize,
    /// Hash combining PC and GHB.
    pub hash: HashKind,
}

impl LvpConfig {
    /// LVP analogue of the Table II baseline.
    #[must_use]
    pub fn baseline() -> Self {
        LvpConfig {
            table_entries: 512,
            tag_bits: 21,
            ghb_entries: 0,
            lhb_entries: 4,
            hash: HashKind::Xor,
        }
    }

    /// Baseline with a different GHB size (Fig. 4).
    #[must_use]
    pub fn with_ghb(ghb_entries: usize) -> Self {
        LvpConfig {
            ghb_entries,
            ..Self::baseline()
        }
    }

    /// Checks the geometry without allocating.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::ConfigError`] found.
    pub fn validate(&self) -> Result<(), crate::ConfigError> {
        crate::table::validate_geometry(
            self.table_entries,
            self.lhb_entries,
            self.ghb_entries,
            self.tag_bits,
        )
    }
}

impl Default for LvpConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Pending prediction: the candidate values snapshotted at prediction time
/// plus the entry to train once the block arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct LvpOutcome {
    entry_index: usize,
    candidates: Vec<Value>,
}

impl LvpOutcome {
    /// Whether the oracle had any candidate values at all (a cold entry can
    /// never predict).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn has_candidates(&self) -> bool {
        !self.candidates.is_empty()
    }
}

/// The idealized load value predictor.
#[derive(Debug, Clone)]
pub struct IdealizedLvp {
    hasher: ContextHasher,
    ghb: HistoryBuffer<Value>,
    table: ApproximatorTable,
}

impl IdealizedLvp {
    /// Builds a predictor from `config`, rejecting malformed configurations
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns whatever [`LvpConfig::validate`] rejects.
    pub fn try_new(config: LvpConfig) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        // Confidence and degree are unused by the oracle; widths are
        // placeholders.
        let table = ApproximatorTable::try_new(config.table_entries, config.lhb_entries, 4, 0)?;
        let hasher = ContextHasher::new(config.hash, 0, table.index_bits(), config.tag_bits);
        let ghb = HistoryBuffer::new(config.ghb_entries);
        Ok(IdealizedLvp { hasher, ghb, table })
    }

    /// Records a miss at `pc` and snapshots the oracle's candidate set.
    /// The block is always fetched; pass the actual value to
    /// [`resolve`](Self::resolve) when it arrives.
    pub fn on_miss(&mut self, pc: Pc) -> LvpOutcome {
        let slot = self.hasher.slot(pc, &self.ghb);
        self.table.lookup_or_allocate(slot.index, slot.tag, 0);
        let candidates = self.table.lhb_values(slot.index).to_vec();
        LvpOutcome {
            entry_index: slot.index,
            candidates,
        }
    }

    /// Resolves a pending prediction against the fetched `actual` value and
    /// trains the predictor. Returns `true` iff the idealized prediction was
    /// correct (some candidate matched exactly), in which case the harness
    /// counts the miss as avoided.
    pub fn resolve(&mut self, outcome: &LvpOutcome, actual: Value) -> bool {
        let correct = outcome
            .candidates
            .iter()
            .any(|c| c.bits() == actual.bits() && c.value_type() == actual.value_type());
        self.ghb.push(actual);
        self.table.lhb_push(outcome.entry_index, actual);
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_entry_cannot_predict() {
        let mut lvp = IdealizedLvp::try_new(LvpConfig::baseline()).unwrap();
        let o = lvp.on_miss(Pc(1));
        assert!(!o.has_candidates());
        assert!(!lvp.resolve(&o, Value::from_f32(1.0)));
    }

    #[test]
    fn exact_repeat_is_predicted() {
        let mut lvp = IdealizedLvp::try_new(LvpConfig::baseline()).unwrap();
        let o = lvp.on_miss(Pc(1));
        assert!(!lvp.resolve(&o, Value::from_f32(42.0)));
        let o = lvp.on_miss(Pc(1));
        assert!(o.has_candidates());
        assert!(lvp.resolve(&o, Value::from_f32(42.0)));
    }

    #[test]
    fn near_miss_is_a_misprediction() {
        let mut lvp = IdealizedLvp::try_new(LvpConfig::baseline()).unwrap();
        let o = lvp.on_miss(Pc(1));
        lvp.resolve(&o, Value::from_f32(1.000));
        let o = lvp.on_miss(Pc(1));
        // 1.001 is within ±10% of 1.000 — LVA would accept it, LVP cannot.
        assert!(o.has_candidates());
        assert!(!lvp.resolve(&o, Value::from_f32(1.001)));
    }

    #[test]
    fn oracle_selects_any_matching_candidate() {
        let mut lvp = IdealizedLvp::try_new(LvpConfig::baseline()).unwrap();
        for v in [1.0f32, 2.0, 3.0, 4.0] {
            let o = lvp.on_miss(Pc(1));
            lvp.resolve(&o, Value::from_f32(v));
        }
        // LHB = {1,2,3,4}; any of them counts as a correct prediction.
        let o = lvp.on_miss(Pc(1));
        assert!(lvp.resolve(&o, Value::from_f32(2.0)));
    }

    #[test]
    fn candidate_set_is_snapshotted_at_prediction_time() {
        let mut lvp = IdealizedLvp::try_new(LvpConfig::baseline()).unwrap();
        let o1 = lvp.on_miss(Pc(1));
        let o2 = lvp.on_miss(Pc(1)); // value-delayed second miss: still cold
        lvp.resolve(&o1, Value::from_f32(5.0));
        // o2 was taken before 5.0 was trained, so it must not see it.
        assert!(!lvp.resolve(&o2, Value::from_f32(5.0)));
    }
}
