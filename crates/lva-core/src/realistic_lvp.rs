//! A realistic (non-idealized) load value predictor.
//!
//! §II describes what a practical LVP must carry that the paper's
//! *idealized* baseline (`IdealizedLvp`) assumes away: a **selection
//! mechanism** that commits to one of the history values before the actual
//! value is known, **confidence estimation** with an exact-match (0%)
//! window, and **rollback cost** when a consumed prediction turns out
//! wrong. This module implements that machine so the repository can also
//! quantify the gap the idealization hides (the `ablation_compute_fn`
//! bench family compares all three mechanisms).
//!
//! Selection follows the finite-context-method style the paper cites
//! (Sazeides & Smith): predict the history value that most recently
//! followed the current context — i.e. the newest LHB entry — and only
//! when the confidence counter is high enough.

use crate::{ApproximatorTable, ContextHasher, HashKind, HistoryBuffer, Pc, Value};

/// Configuration of the realistic predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealisticLvpConfig {
    /// Table entries (512 to match the approximator).
    pub table_entries: usize,
    /// Tag bits (21).
    pub tag_bits: u32,
    /// GHB entries.
    pub ghb_entries: usize,
    /// LHB entries per table entry.
    pub lhb_entries: usize,
    /// Confidence counter width; predictions are made only when the
    /// counter is at or above `prediction_threshold`.
    pub confidence_bits: u32,
    /// Minimum confidence to predict. Traditional predictors are
    /// conservative (mispredictions cost a rollback), so this is > 0.
    pub prediction_threshold: i32,
    /// Pipeline-flush penalty charged per misprediction, in instructions
    /// re-executed (used by the harness's rollback accounting).
    pub rollback_penalty_instructions: u32,
    /// Hash combining PC and GHB.
    pub hash: HashKind,
}

impl RealisticLvpConfig {
    /// A conventional conservative predictor: 512 entries, predict at
    /// confidence ≥ 3, ~20-instruction flush.
    #[must_use]
    pub fn conventional() -> Self {
        RealisticLvpConfig {
            table_entries: 512,
            tag_bits: 21,
            ghb_entries: 0,
            lhb_entries: 4,
            confidence_bits: 4,
            prediction_threshold: 3,
            rollback_penalty_instructions: 20,
            hash: HashKind::Xor,
        }
    }

    /// Checks the geometry and counter width without allocating.
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
        )?;
        crate::ConfidenceCounter::try_new(self.confidence_bits).map(|_| ())
    }
}

impl Default for RealisticLvpConfig {
    fn default() -> Self {
        Self::conventional()
    }
}

/// Outcome of consulting the predictor on a miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LvpPrediction {
    /// The predictor commits to this value; the core runs ahead
    /// speculatively and must validate on data arrival.
    Predict {
        /// The selected (newest-history) value.
        value: Value,
        /// Entry to resolve against.
        entry_index: usize,
    },
    /// Confidence too low (or cold entry): the core stalls as usual.
    NoPrediction {
        /// Entry to train when the data arrives.
        entry_index: usize,
    },
}

impl LvpPrediction {
    /// The table entry this miss maps to.
    #[must_use]
    pub(crate) fn entry_index(&self) -> usize {
        match self {
            LvpPrediction::Predict { entry_index, .. }
            | LvpPrediction::NoPrediction { entry_index } => *entry_index,
        }
    }

    /// The committed value, if a prediction was made.
    #[must_use]
    pub fn value(&self) -> Option<Value> {
        match self {
            LvpPrediction::Predict { value, .. } => Some(*value),
            LvpPrediction::NoPrediction { .. } => None,
        }
    }
}

/// Counters for the realistic predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RealisticLvpStats {
    /// Misses presented.
    pub misses_seen: u64,
    /// Predictions committed.
    pub predictions: u64,
    /// Predictions that validated exactly.
    pub correct: u64,
    /// Predictions that failed validation — each costs a rollback.
    pub rollbacks: u64,
}

/// The realistic load value predictor (selection + confidence + rollback).
#[derive(Debug, Clone)]
pub struct RealisticLvp {
    config: RealisticLvpConfig,
    hasher: ContextHasher,
    ghb: HistoryBuffer<Value>,
    table: ApproximatorTable,
    stats: RealisticLvpStats,
}

impl RealisticLvp {
    /// Builds a predictor from `config`, rejecting malformed configurations
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns whatever [`RealisticLvpConfig::validate`] rejects.
    pub fn try_new(config: RealisticLvpConfig) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        let table = ApproximatorTable::try_new(
            config.table_entries,
            config.lhb_entries,
            config.confidence_bits,
            0,
        )?;
        let hasher = ContextHasher::new(config.hash, 0, table.index_bits(), config.tag_bits);
        let ghb = HistoryBuffer::new(config.ghb_entries);
        Ok(RealisticLvp {
            config,
            hasher,
            ghb,
            table,
            stats: RealisticLvpStats::default(),
        })
    }

    /// Convenience wrapper around [`try_new`](Self::try_new) for known-good
    /// configurations.
    ///
    /// # Panics
    ///
    /// Panics if the table geometry is invalid (see
    /// [`ApproximatorTable::new`]) or `lhb_entries` is 0; fallible callers
    /// should use [`try_new`](Self::try_new).
    #[must_use]
    pub fn new(config: RealisticLvpConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configuration this predictor was built with.
    #[must_use]
    pub fn config(&self) -> &RealisticLvpConfig {
        &self.config
    }

    /// Event counters.
    #[must_use]
    pub fn stats(&self) -> &RealisticLvpStats {
        &self.stats
    }

    /// Consults the predictor on a miss at `pc`. Always fetch; resolve with
    /// [`resolve`](Self::resolve) when the data arrives.
    pub fn on_miss(&mut self, pc: Pc) -> LvpPrediction {
        self.stats.misses_seen += 1;
        let slot = self.hasher.slot(pc, &self.ghb);
        self.table.lookup_or_allocate(slot.index, slot.tag, 0);
        let confident =
            self.table.confidence(slot.index).value() >= self.config.prediction_threshold;
        match self.table.lhb_newest(slot.index) {
            Some(value) if confident => {
                self.stats.predictions += 1;
                LvpPrediction::Predict {
                    value,
                    entry_index: slot.index,
                }
            }
            _ => LvpPrediction::NoPrediction {
                entry_index: slot.index,
            },
        }
    }

    /// Validates a prediction against the fetched `actual` value, trains
    /// the predictor, and reports whether a rollback is required (a
    /// committed prediction that did not match exactly).
    pub fn resolve(&mut self, prediction: &LvpPrediction, actual: Value) -> bool {
        let index = prediction.entry_index();
        let rollback = match prediction.value() {
            Some(predicted) => {
                let exact = predicted.bits() == actual.bits()
                    && predicted.value_type() == actual.value_type();
                if exact {
                    self.stats.correct += 1;
                    self.table.confidence_mut(index).increment();
                } else {
                    self.stats.rollbacks += 1;
                    self.table.confidence_mut(index).decrement(2); // mispredictions are costly
                }
                !exact
            }
            None => {
                // No commitment: still train confidence on would-be accuracy
                // so the counter can climb to the threshold.
                match self.table.lhb_newest(index) {
                    Some(v) if v.bits() == actual.bits() => {
                        self.table.confidence_mut(index).increment();
                    }
                    Some(_) => self.table.confidence_mut(index).decrement(1),
                    None => {}
                }
                false
            }
        };
        self.table.lhb_push(index, actual);
        self.ghb.push(actual);
        rollback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(lvp: &mut RealisticLvp, pc: Pc, v: f32) -> bool {
        let p = lvp.on_miss(pc);
        lvp.resolve(&p, Value::from_f32(v))
    }

    #[test]
    fn cold_entry_never_predicts() {
        let mut lvp = RealisticLvp::new(RealisticLvpConfig::conventional());
        match lvp.on_miss(Pc(1)) {
            LvpPrediction::NoPrediction { .. } => {}
            LvpPrediction::Predict { .. } => panic!("cold entry predicted"),
        }
    }

    #[test]
    fn confidence_must_build_before_predicting() {
        let mut lvp = RealisticLvp::new(RealisticLvpConfig::conventional());
        // Two identical observations are not enough at threshold 3.
        drive(&mut lvp, Pc(1), 5.0);
        drive(&mut lvp, Pc(1), 5.0);
        assert_eq!(lvp.stats().predictions, 0);
        // After enough confirmations, it commits.
        for _ in 0..4 {
            drive(&mut lvp, Pc(1), 5.0);
        }
        assert!(lvp.stats().predictions > 0);
        assert_eq!(lvp.stats().rollbacks, 0);
    }

    #[test]
    fn near_miss_floats_cause_rollbacks() {
        let mut lvp = RealisticLvp::new(RealisticLvpConfig::conventional());
        for _ in 0..6 {
            drive(&mut lvp, Pc(1), 1.0);
        }
        // 1.0001 is within any relaxed window but NOT an exact match:
        // the realistic predictor pays a rollback where LVA would not.
        let rolled_back = drive(&mut lvp, Pc(1), 1.0001);
        assert!(rolled_back);
        assert_eq!(lvp.stats().rollbacks, 1);
    }

    #[test]
    fn selection_uses_most_recent_value() {
        // A bottomless threshold isolates the selection mechanism from
        // confidence: the predictor must always commit to the newest value.
        let mut lvp = RealisticLvp::new(RealisticLvpConfig {
            prediction_threshold: -8,
            ..RealisticLvpConfig::conventional()
        });
        for v in [1.0f32, 2.0, 3.0] {
            drive(&mut lvp, Pc(1), v);
        }
        match lvp.on_miss(Pc(1)) {
            LvpPrediction::Predict { value, .. } => assert_eq!(value.as_f32(), 3.0),
            LvpPrediction::NoPrediction { .. } => panic!("bottomless threshold must predict"),
        }
    }

    #[test]
    fn misprediction_lowers_confidence_below_threshold() {
        let mut lvp = RealisticLvp::new(RealisticLvpConfig::conventional());
        for _ in 0..8 {
            drive(&mut lvp, Pc(1), 7.0);
        }
        // A burst of changing values triggers rollbacks, then silences the
        // predictor (confidence below threshold).
        let mut v = 10.0f32;
        for _ in 0..6 {
            drive(&mut lvp, Pc(1), v);
            v += 1.0;
        }
        let before = lvp.stats().predictions;
        drive(&mut lvp, Pc(1), v);
        assert_eq!(lvp.stats().predictions, before, "predictor must go quiet");
    }

    #[test]
    fn stats_are_consistent() {
        let mut lvp = RealisticLvp::new(RealisticLvpConfig::conventional());
        for i in 0..50u32 {
            drive(&mut lvp, Pc(u64::from(i % 3)), (i % 2) as f32);
        }
        let s = *lvp.stats();
        assert_eq!(s.correct + s.rollbacks, s.predictions);
        assert!(s.predictions <= s.misses_seen);
    }
}
