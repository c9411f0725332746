//! Per-PC cache-level prediction — the second mechanism family.
//!
//! "Reducing Load Latency with Cache Level Prediction" (arXiv 2103.14808)
//! attacks the same load latency LVA hides, but without touching values: a
//! per-PC predictor guesses *which level of the hierarchy* will serve a
//! load, the access goes straight to the predicted level (in parallel with
//! the L1 probe), and the intervening lookups are skipped. A correct
//! prediction pays only the predicted level's service latency; a
//! misprediction restarts the conventional serial walk plus a recovery
//! penalty and retrains the entry.
//!
//! [`LevelPredictor`] is the mechanism: a tagged, direct-mapped, PC-indexed
//! table of [`CacheLevel`]s guarded by the same saturating
//! [`ConfidenceCounter`] the approximator uses. It is deliberately
//! value-free — precise execution, latency-only win — which is exactly why
//! it hybridizes with LVA (`lva+clp`): approximate only the loads predicted
//! to be served by a *slow* level, and take the precise fast path for the
//! rest.
//!
//! Both entry points take a trace sink and emit
//! [`TraceEventKind::LevelPredict`]/[`TraceEventKind::LevelVerify`]
//! events; untraced callers pass a [`NullSink`](lva_obs::NullSink), so
//! traced and untraced runs take the same path.

use crate::{ConfidenceCounter, ConfigError, Pc, MAX_TABLE_ENTRIES};
use lva_obs::{TraceCtx, TraceEvent, TraceEventKind, TraceSink};

/// A level of the modelled memory hierarchy, ordered fastest to slowest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// Private L1 (level predictions never resolve here: the predictor is
    /// only consulted on L1 misses, but the level exists so depth-2
    /// hierarchies and clamping have a floor).
    L1,
    /// Shared/next-level L2.
    L2,
    /// Last-level cache.
    Llc,
    /// Main memory.
    Dram,
}

impl CacheLevel {
    /// All levels, fastest first.
    pub const ALL: [CacheLevel; 4] = [
        CacheLevel::L1,
        CacheLevel::L2,
        CacheLevel::Llc,
        CacheLevel::Dram,
    ];

    /// Position in the hierarchy: 0 (L1) … 3 (DRAM).
    #[must_use]
    pub fn index(self) -> u32 {
        match self {
            CacheLevel::L1 => 0,
            CacheLevel::L2 => 1,
            CacheLevel::Llc => 2,
            CacheLevel::Dram => 3,
        }
    }

    /// The level at hierarchy position `index`, clamped to DRAM.
    #[must_use]
    pub fn from_index(index: u32) -> CacheLevel {
        Self::ALL[index.min(3) as usize]
    }

    /// Short label used in tables and manifests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheLevel::L1 => "l1",
            CacheLevel::L2 => "l2",
            CacheLevel::Llc => "llc",
            CacheLevel::Dram => "dram",
        }
    }

    /// Cycles this level takes to return data once the request reaches it
    /// (aligned with the full-system model's Table II latencies: 160-cycle
    /// main memory).
    #[must_use]
    pub fn service_latency(self) -> u64 {
        match self {
            CacheLevel::L1 => 1,
            CacheLevel::L2 => 6,
            CacheLevel::Llc => 20,
            CacheLevel::Dram => 160,
        }
    }

    /// Cycles a conventional serial walk pays to get data from this level:
    /// every level up to and including it is probed in order.
    #[must_use]
    pub fn serial_latency(self) -> u64 {
        CacheLevel::ALL[..=self.index() as usize]
            .iter()
            .map(|l| l.service_latency())
            .sum()
    }

    /// The slowest level of a hierarchy `depth` levels deep (depth 2 →
    /// [`CacheLevel::L2`], depth 4 → [`CacheLevel::Dram`]).
    #[must_use]
    pub(crate) fn deepest(depth: u32) -> CacheLevel {
        Self::from_index(depth.saturating_sub(1))
    }

    /// This level, clamped into a hierarchy `depth` levels deep.
    #[must_use]
    pub fn clamp_to_depth(self, depth: u32) -> CacheLevel {
        Self::from_index(self.index().min(depth.saturating_sub(1)))
    }
}

/// Geometry and policy knobs of the [`LevelPredictor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClpConfig {
    /// Predictor table entries (power of two ≥ 2; baseline 512, matching
    /// the approximator table).
    pub table_entries: usize,
    /// Width of the per-entry confidence counter (2..=16 bits; baseline 4).
    pub confidence_bits: u32,
    /// How many hierarchy levels the machine models (2..=4: L1+L2 up to
    /// L1/L2/LLC/DRAM). Predictions are clamped into this depth.
    pub hierarchy_depth: u32,
    /// Recovery cycles a confidently wrong prediction pays on top of the
    /// restarted serial walk.
    pub mispredict_penalty: u64,
    /// The slowest-acceptable "fast" boundary for the `lva+clp` hybrid:
    /// loads predicted to be served at this level or deeper are considered
    /// slow enough to approximate. Standalone `clp` ignores it.
    pub slow_threshold: CacheLevel,
}

impl ClpConfig {
    /// The baseline predictor: 512 entries, 4-bit confidence, the full
    /// 4-level hierarchy, 8-cycle recovery, approximate from the LLC down.
    #[must_use]
    pub fn baseline() -> Self {
        ClpConfig {
            table_entries: 512,
            confidence_bits: 4,
            hierarchy_depth: 4,
            mispredict_penalty: 8,
            slow_threshold: CacheLevel::Llc,
        }
    }

    /// Checks the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TableEntries`] unless `table_entries` is a
    /// power of two ≥ 2, [`ConfigError::TooLarge`] above
    /// [`MAX_TABLE_ENTRIES`], [`ConfigError::ConfidenceBits`] unless
    /// the counter width is 2..=16, and [`ConfigError::HierarchyDepth`]
    /// unless the depth is 2..=4.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.table_entries < 2 || !self.table_entries.is_power_of_two() {
            return Err(ConfigError::TableEntries {
                entries: self.table_entries,
            });
        }
        ConfigError::at_most("table_entries", self.table_entries, MAX_TABLE_ENTRIES)?;
        ConfidenceCounter::try_new(self.confidence_bits)?;
        if !(2..=4).contains(&self.hierarchy_depth) {
            return Err(ConfigError::HierarchyDepth {
                depth: self.hierarchy_depth,
            });
        }
        Ok(())
    }
}

impl Default for ClpConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// One level prediction, carried from [`LevelPredictor::predict_traced`] to
/// [`LevelPredictor::verify_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelPrediction {
    /// The load PC the prediction was made for.
    pub pc: Pc,
    /// The predicted serving level (always within the configured hierarchy
    /// depth).
    pub level: CacheLevel,
    /// Whether the entry's confidence gate was open. An unconfident
    /// prediction is advisory: the machine takes the conventional serial
    /// walk, so it can neither win nor pay a recovery penalty.
    pub confident: bool,
}

/// The per-PC cache-level predictor (see the module docs).
///
/// The direct-mapped table is laid out structure-of-arrays: each logical
/// entry `(tag, level, confidence, valid)` is split across parallel
/// vectors, like the approximator table and the set-associative cache
/// models.
#[derive(Debug, Clone)]
pub struct LevelPredictor {
    config: ClpConfig,
    tags: Vec<u64>,
    levels: Vec<CacheLevel>,
    confidence: Vec<ConfidenceCounter>,
    valid: Vec<bool>,
    index_bits: u32,
}

impl LevelPredictor {
    /// Builds a predictor, rejecting malformed geometry.
    ///
    /// # Errors
    ///
    /// Returns whatever [`ClpConfig::validate`] rejects.
    pub fn try_new(config: ClpConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let n = config.table_entries;
        Ok(LevelPredictor {
            tags: vec![0; n],
            levels: vec![CacheLevel::deepest(config.hierarchy_depth); n],
            confidence: vec![ConfidenceCounter::try_new(config.confidence_bits)?; n],
            valid: vec![false; n],
            index_bits: n.trailing_zeros(),
            config,
        })
    }

    /// The configuration this predictor was built with.
    #[must_use]
    pub fn config(&self) -> &ClpConfig {
        &self.config
    }

    /// The slowest level this predictor can ever predict.
    #[must_use]
    pub(crate) fn deepest(&self) -> CacheLevel {
        CacheLevel::deepest(self.config.hierarchy_depth)
    }

    /// Retunes the hybrid screen's slow threshold in place — the CLP knob a
    /// supervisory governor actuates. Policy only: table state and
    /// confidence are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::SlowThreshold`] if `level` is deeper than the
    /// modeled hierarchy: no prediction could ever reach it, so the hybrid
    /// would silently stop approximating.
    pub fn set_slow_threshold(&mut self, level: CacheLevel) -> Result<(), ConfigError> {
        if level.index() >= self.config.hierarchy_depth {
            return Err(ConfigError::SlowThreshold {
                level: level.index(),
                depth: self.config.hierarchy_depth,
            });
        }
        self.config.slow_threshold = level;
        Ok(())
    }

    fn slot_index(&self, pc: Pc) -> usize {
        (pc.0 as usize) & (self.tags.len() - 1)
    }

    fn slot_tag(&self, pc: Pc) -> u64 {
        pc.0 >> self.index_bits
    }

    /// Predicts the level that will serve a miss at `pc`. A tagged hit
    /// returns the trained level and the state of its confidence gate; a
    /// cold or conflicted slot conservatively predicts the deepest
    /// configured level, unconfidently. Emits a
    /// [`TraceEventKind::LevelPredict`] event. Write-only, like every sink.
    #[must_use]
    pub fn predict_traced(
        &self,
        pc: Pc,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) -> LevelPrediction {
        let i = self.slot_index(pc);
        let prediction = if self.valid[i] && self.tags[i] == self.slot_tag(pc) {
            LevelPrediction {
                pc,
                level: self.levels[i].clamp_to_depth(self.config.hierarchy_depth),
                confident: self.confidence[i].is_confident(),
            }
        } else {
            LevelPrediction {
                pc,
                level: self.deepest(),
                confident: false,
            }
        };
        if sink.enabled() {
            sink.record(TraceEvent::at(
                ctx,
                TraceEventKind::LevelPredict {
                    pc: pc.0,
                    level: prediction.level.index(),
                    confident: prediction.confident,
                },
            ));
        }
        prediction
    }

    /// Resolves a prediction against the level that actually served the
    /// miss, updating confidence and (on a tag conflict) evicting the
    /// previous owner. Returns whether the prediction was correct. Emits a
    /// [`TraceEventKind::LevelVerify`] event.
    pub fn verify_traced(
        &mut self,
        prediction: &LevelPrediction,
        actual: CacheLevel,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) -> bool {
        let pc = prediction.pc;
        let actual = actual.clamp_to_depth(self.config.hierarchy_depth);
        let correct = prediction.level == actual;
        let tag = self.slot_tag(pc);
        let i = self.slot_index(pc);
        if self.valid[i] && self.tags[i] == tag {
            if correct {
                self.confidence[i].increment();
            } else {
                self.confidence[i].decrement(1);
                if !self.confidence[i].is_confident() {
                    // The level migrated: retrain to what we just observed
                    // and start the confidence gate over.
                    self.levels[i] = actual;
                    self.confidence[i].reset();
                }
            }
        } else {
            self.tags[i] = tag;
            self.levels[i] = actual;
            self.confidence[i].reset();
            self.valid[i] = true;
        }

        if sink.enabled() {
            sink.record(TraceEvent::at(
                ctx,
                TraceEventKind::LevelVerify {
                    pc: pc.0,
                    predicted: prediction.level.index(),
                    actual: actual.index(),
                },
            ));
        }
        correct
    }

    /// The load-visible latency of a miss under this predictor: a confident
    /// correct prediction goes straight to the serving level (the predictor
    /// lookup overlaps the L1 probe); a confident wrong one restarts the
    /// serial walk and pays the recovery penalty; an unconfident prediction
    /// is ignored and the walk proceeds conventionally.
    #[must_use]
    pub fn load_latency(&self, prediction: &LevelPrediction, actual: CacheLevel) -> u64 {
        let actual = actual.clamp_to_depth(self.config.hierarchy_depth);
        if !prediction.confident {
            actual.serial_latency()
        } else if prediction.level == actual {
            actual.service_latency()
        } else {
            actual.serial_latency() + self.config.mispredict_penalty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_obs::NullSink;

    fn predict(p: &LevelPredictor, pc: Pc) -> LevelPrediction {
        p.predict_traced(pc, &mut NullSink, TraceCtx::new(0, 0))
    }

    fn verify(p: &mut LevelPredictor, prediction: &LevelPrediction, actual: CacheLevel) -> bool {
        p.verify_traced(prediction, actual, &mut NullSink, TraceCtx::new(0, 0))
    }

    #[test]
    fn levels_are_ordered_and_latencies_monotonic() {
        assert!(CacheLevel::L1 < CacheLevel::L2);
        assert!(CacheLevel::Llc < CacheLevel::Dram);
        for pair in CacheLevel::ALL.windows(2) {
            assert!(pair[0].service_latency() < pair[1].service_latency());
            assert!(pair[0].serial_latency() < pair[1].serial_latency());
        }
        assert_eq!(CacheLevel::Dram.serial_latency(), 1 + 6 + 20 + 160);
        assert_eq!(CacheLevel::deepest(2), CacheLevel::L2);
        assert_eq!(CacheLevel::Dram.clamp_to_depth(3), CacheLevel::Llc);
        assert_eq!(CacheLevel::from_index(9), CacheLevel::Dram);
    }

    #[test]
    fn cold_prediction_is_deepest_and_unconfident() {
        let p = LevelPredictor::try_new(ClpConfig::baseline()).unwrap();
        let pred = predict(&p, Pc(0x100));
        assert_eq!(pred.level, CacheLevel::Dram);
        assert!(!pred.confident);
    }

    #[test]
    fn predictor_learns_a_stable_level() {
        let mut p = LevelPredictor::try_new(ClpConfig::baseline()).unwrap();
        let pc = Pc(0x40);
        let mut correct = 0;
        for _ in 0..4 {
            let pred = predict(&p, pc);
            correct += u32::from(verify(&mut p, &pred, CacheLevel::L2));
        }
        let pred = predict(&p, pc);
        assert_eq!(pred.level, CacheLevel::L2);
        assert!(pred.confident);
        assert!(correct > 2, "only the cold prediction misses: {correct}/4");
    }

    #[test]
    fn misprediction_retrains_after_confidence_drains() {
        let mut p = LevelPredictor::try_new(ClpConfig::baseline()).unwrap();
        let pc = Pc(0x40);
        for _ in 0..3 {
            let pred = predict(&p, pc);
            verify(&mut p, &pred, CacheLevel::L2);
        }
        // The level migrates to DRAM: the entry must eventually follow.
        let mut mispredictions = 0;
        for _ in 0..10 {
            let pred = predict(&p, pc);
            mispredictions += u32::from(!verify(&mut p, &pred, CacheLevel::Dram));
        }
        let pred = predict(&p, pc);
        assert_eq!(pred.level, CacheLevel::Dram);
        assert!(mispredictions > 0);
    }

    #[test]
    fn conflicting_pcs_evict_each_other() {
        let mut p = LevelPredictor::try_new(ClpConfig {
            table_entries: 2,
            ..ClpConfig::baseline()
        })
        .unwrap();
        let cold = |pc| LevelPrediction {
            pc,
            level: CacheLevel::Dram,
            confident: false,
        };
        // Both PCs map to slot 0 with different tags, so each verify
        // evicts the other and every prediction is cold.
        for (pc, other) in [(Pc(0), Pc(4)), (Pc(4), Pc(0)), (Pc(0), Pc(4))] {
            let pred = predict(&p, pc);
            assert_eq!(pred, cold(pc));
            assert!(!verify(&mut p, &pred, CacheLevel::Llc));
            assert_eq!(predict(&p, pc).level, CacheLevel::Llc);
            assert_eq!(predict(&p, other), cold(other));
        }
    }

    #[test]
    fn depth_clamps_predictions_and_verifications() {
        let mut p = LevelPredictor::try_new(ClpConfig {
            hierarchy_depth: 2,
            ..ClpConfig::baseline()
        })
        .unwrap();
        let pc = Pc(0x8);
        let pred = predict(&p, pc);
        assert_eq!(pred.level, CacheLevel::L2, "deepest of a depth-2 hierarchy");
        // An out-of-depth actual level is clamped, so this trains L2 and
        // counts as correct.
        assert!(verify(&mut p, &pred, CacheLevel::Dram));
        assert_eq!(predict(&p, pc).level, CacheLevel::L2);
    }

    #[test]
    fn latency_model_rewards_correct_confident_predictions() {
        let p = LevelPredictor::try_new(ClpConfig::baseline()).unwrap();
        let confident = |level| LevelPrediction {
            pc: Pc(1),
            level,
            confident: true,
        };
        let unconfident = LevelPrediction {
            pc: Pc(1),
            level: CacheLevel::Dram,
            confident: false,
        };
        // Correct + confident: direct access beats the serial walk.
        assert!(
            p.load_latency(&confident(CacheLevel::Dram), CacheLevel::Dram)
                < CacheLevel::Dram.serial_latency()
        );
        // Wrong + confident: serial walk plus the recovery penalty.
        assert_eq!(
            p.load_latency(&confident(CacheLevel::L2), CacheLevel::Dram),
            CacheLevel::Dram.serial_latency() + p.config().mispredict_penalty
        );
        // Unconfident: conventional walk, no penalty.
        assert_eq!(
            p.load_latency(&unconfident, CacheLevel::Llc),
            CacheLevel::Llc.serial_latency()
        );
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        assert!(matches!(
            ClpConfig {
                table_entries: 3,
                ..ClpConfig::baseline()
            }
            .validate(),
            Err(ConfigError::TableEntries { entries: 3 })
        ));
        assert!(matches!(
            ClpConfig {
                confidence_bits: 1,
                ..ClpConfig::baseline()
            }
            .validate(),
            Err(ConfigError::ConfidenceBits { bits: 1 })
        ));
        assert!(matches!(
            ClpConfig {
                hierarchy_depth: 9,
                ..ClpConfig::baseline()
            }
            .validate(),
            Err(ConfigError::HierarchyDepth { depth: 9 })
        ));
        assert!(ClpConfig::baseline().validate().is_ok());
    }

    #[test]
    fn traced_hooks_match_untraced_and_emit_events() {
        use lva_obs::RingBufferSink;
        let mut plain = LevelPredictor::try_new(ClpConfig::baseline()).unwrap();
        let mut traced = LevelPredictor::try_new(ClpConfig::baseline()).unwrap();
        let mut sink = RingBufferSink::new(64);
        for i in 0..8u64 {
            let pc = Pc(0x10 + (i % 2) * 8);
            let actual = if i % 2 == 0 {
                CacheLevel::L2
            } else {
                CacheLevel::Dram
            };
            let ctx = TraceCtx::new(0, i);
            let a = predict(&plain, pc);
            let b = traced.predict_traced(pc, &mut sink, ctx);
            assert_eq!(a, b);
            assert_eq!(
                plain.load_latency(&a, actual),
                traced.load_latency(&b, actual)
            );
            assert_eq!(
                verify(&mut plain, &a, actual),
                traced.verify_traced(&b, actual, &mut sink, ctx)
            );
        }
        let kinds: Vec<_> = sink.events().iter().map(|e| e.kind.name()).collect();
        assert!(kinds.contains(&"level-predict"));
        assert!(kinds.contains(&"level-verify"));
    }
}
