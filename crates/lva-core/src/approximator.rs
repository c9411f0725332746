//! The load value approximator (§III, Fig. 3).
//!
//! On an L1 miss to approximate data the approximator hashes the load PC
//! with the global history buffer (GHB) to locate a direct-mapped table
//! entry, generates an estimate by applying a computation function to the
//! entry's local history buffer (LHB), and decides — via the degree counter
//! — whether the block even needs to be fetched for training.

use crate::{
    ApproximatorTable, ConfidenceCounter, ConfidenceUpdate, ConfidenceWindow, ConfigError,
    ContextHasher, HashKind, HistoryBuffer, Pc, Value, ValueType,
};
use lva_obs::{NullSink, TraceCtx, TraceEvent, TraceEventKind, TraceSink};

/// The computation function `f` applied to the LHB to generate an
/// approximation (§III-A). The paper explored strides and deltas and found
/// the plain average most accurate; all variants are kept for the
/// design-space ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputeFn {
    /// Mean of all LHB values — the paper's baseline (Table II).
    #[default]
    Average,
    /// The most recent LHB value (last-value prediction).
    LastValue,
    /// Newest value plus the last observed delta (stride prediction);
    /// degrades to last-value with fewer than two history values.
    Stride,
    /// Recency-weighted mean (newest value weighted highest).
    WeightedAverage,
}

impl ComputeFn {
    /// Applies the function to a non-empty history, returning the numeric
    /// estimate. Convenience wrapper over `apply_slice`
    /// for ring-buffer histories.
    ///
    /// # Panics
    ///
    /// Panics if `lhb` is empty; callers must check first.
    #[must_use]
    pub fn apply(self, lhb: &HistoryBuffer<Value>) -> f64 {
        let vals: Vec<Value> = lhb.iter().copied().collect();
        self.apply_slice(&vals)
    }

    /// Applies the function to a non-empty history slice ordered oldest
    /// first — the zero-copy path over the approximator table's flat LHB
    /// storage ([`crate::ApproximatorTable::lhb_values`]).
    ///
    /// # Panics
    ///
    /// Panics if `lhb` is empty; callers must check first.
    #[must_use]
    pub(crate) fn apply_slice(self, lhb: &[Value]) -> f64 {
        assert!(!lhb.is_empty(), "cannot approximate from an empty LHB");
        match self {
            ComputeFn::Average => {
                let sum: f64 = lhb.iter().map(|v| v.to_f64()).sum();
                sum / lhb.len() as f64
            }
            ComputeFn::LastValue => lhb.last().expect("non-empty").to_f64(),
            ComputeFn::Stride => match lhb {
                [.., prev, last] => {
                    let (prev, last) = (prev.to_f64(), last.to_f64());
                    last + (last - prev)
                }
                [only] => only.to_f64(),
                [] => unreachable!("checked non-empty"),
            },
            ComputeFn::WeightedAverage => {
                let mut num = 0.0;
                let mut den = 0.0;
                for (i, v) in lhb.iter().enumerate() {
                    let w = (i + 1) as f64;
                    num += w * v.to_f64();
                    den += w;
                }
                num / den
            }
        }
    }
}

/// Static configuration of a [`LoadValueApproximator`].
///
/// [`ApproximatorConfig::baseline`] reproduces Table II of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximatorConfig {
    /// Approximator table entries; must be a power of two (baseline 512).
    pub table_entries: usize,
    /// Tag bits stored per entry (baseline 21).
    pub tag_bits: u32,
    /// Confidence counter width in bits (baseline 4 → `[-8, 7]`).
    pub confidence_bits: u32,
    /// Relaxed confidence window (baseline ±10%).
    pub confidence_window: ConfidenceWindow,
    /// Whether confidence gates integer data too. The baseline applies
    /// confidence only to floating-point loads (§VI); Fig. 6 enables it for
    /// everything.
    pub confidence_on_int: bool,
    /// Counter update rule on a missed window.
    pub confidence_update: ConfidenceUpdate,
    /// Global history buffer entries (baseline 0; Figs. 4–5 sweep 0–4).
    pub ghb_entries: usize,
    /// Local history buffer entries per table entry (baseline 4).
    pub lhb_entries: usize,
    /// Computation function applied to the LHB (baseline: average).
    pub compute: ComputeFn,
    /// Approximation degree: extra misses served per training fetch
    /// (baseline 0 = fetch on every approximated miss; Figs. 8–11 sweep
    /// 2–16).
    pub degree: u32,
    /// Floating-point mantissa bits zeroed before hashing (§VII-B, Fig. 13).
    pub mantissa_loss_bits: u32,
    /// Hash function combining PC and GHB (baseline XOR).
    pub hash: HashKind,
}

impl ApproximatorConfig {
    /// The paper's baseline configuration (Table II).
    #[must_use]
    pub fn baseline() -> Self {
        ApproximatorConfig {
            table_entries: 512,
            tag_bits: 21,
            confidence_bits: 4,
            confidence_window: ConfidenceWindow::Relative(0.10),
            confidence_on_int: false,
            confidence_update: ConfidenceUpdate::Unit,
            ghb_entries: 0,
            lhb_entries: 4,
            compute: ComputeFn::Average,
            degree: 0,
            mantissa_loss_bits: 0,
            hash: HashKind::Xor,
        }
    }

    /// Baseline with a different GHB size (Figs. 4–5).
    #[must_use]
    pub fn with_ghb(ghb_entries: usize) -> Self {
        ApproximatorConfig {
            ghb_entries,
            ..Self::baseline()
        }
    }

    /// Baseline with a different approximation degree (Figs. 8–11).
    #[must_use]
    pub fn with_degree(degree: u32) -> Self {
        ApproximatorConfig {
            degree,
            ..Self::baseline()
        }
    }

    /// Baseline with a given confidence window applied to all data types,
    /// as in the Fig. 6 sweep.
    #[must_use]
    pub fn with_confidence_window(window: ConfidenceWindow) -> Self {
        ApproximatorConfig {
            confidence_window: window,
            confidence_on_int: true,
            ..Self::baseline()
        }
    }

    /// Checks the configuration for nonsense before an approximator is
    /// built: table geometry and size, history depths, hash widths, the
    /// confidence window and the counter width.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        crate::table::validate_geometry(
            self.table_entries,
            self.lhb_entries,
            self.ghb_entries,
            self.tag_bits,
        )?;
        self.confidence_window.validate()?;
        ConfidenceCounter::try_new(self.confidence_bits).map(|_| ())
    }
}

impl Default for ApproximatorConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// External quality-control directive for one miss consultation, supplied
/// by a quality controller (see `lva-sim`'s `govern` module). The
/// default [`MissPolicy::Normal`] reproduces the paper's mechanism exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissPolicy {
    /// No intervention: degree counting and confidence gating as configured.
    #[default]
    Normal,
    /// Demotion: bypass the degree counter so this miss — if approximated —
    /// always triggers a training fetch (effective degree 0).
    ForceFetch,
}

/// Whether the harness must fetch the block from the next level of the
/// memory hierarchy after this miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchAction {
    /// Fetch the block; the approximator expects a later
    /// [`LoadValueApproximator::train`] call with the actual value.
    Fetch,
    /// Do not fetch (degree counter > 0): the miss is served entirely by the
    /// approximation and no training will occur (§III-C).
    Skip,
}

/// Opaque handle identifying the table entry (and pending approximation)
/// that a training value belongs to. Returned from
/// [`LoadValueApproximator::on_miss`] and consumed by
/// [`LoadValueApproximator::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainToken {
    entry_index: usize,
    approx: Option<Value>,
    ty: ValueType,
    pc: Pc,
}

impl TrainToken {
    /// The static load PC this token's miss was issued from; lets callers
    /// attribute delayed training events without tracking PCs themselves.
    #[must_use]
    pub fn pc(&self) -> Pc {
        self.pc
    }
}

/// A generated approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Approximation {
    /// The approximate value handed to the processor in place of the actual
    /// load result.
    pub value: Value,
    /// Whether the block must still be fetched for training.
    pub fetch: FetchAction,
    /// Token to pass to [`LoadValueApproximator::train`] when (and if) the
    /// actual value arrives. Meaningless when `fetch` is
    /// [`FetchAction::Skip`].
    pub token: TrainToken,
}

/// Result of consulting the approximator on an L1 miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MissOutcome {
    /// The processor may continue immediately with `Approximation::value`.
    Approximate(Approximation),
    /// No approximation (cold entry or low confidence): the processor must
    /// stall for the fetch as in a conventional cache, and the fetched value
    /// should be passed to [`LoadValueApproximator::train`] with this token.
    Fallthrough(TrainToken),
}

impl MissOutcome {
    /// The training token, regardless of outcome.
    #[must_use]
    pub fn token(&self) -> TrainToken {
        match self {
            MissOutcome::Approximate(a) => a.token,
            MissOutcome::Fallthrough(t) => *t,
        }
    }

    /// The approximation, if one was produced.
    #[must_use]
    pub fn approximation(&self) -> Option<&Approximation> {
        match self {
            MissOutcome::Approximate(a) => Some(a),
            MissOutcome::Fallthrough(_) => None,
        }
    }
}

/// The load value approximator of Fig. 3.
///
/// See the crate-level docs for a usage example. The structure is purely
/// functional with respect to timing: *value delay* (§VI-C) is modelled by
/// the caller simply delaying its [`train`](Self::train) calls.
#[derive(Debug, Clone)]
pub struct LoadValueApproximator {
    config: ApproximatorConfig,
    hasher: ContextHasher,
    ghb: HistoryBuffer<Value>,
    table: ApproximatorTable,
    /// PCs whose misses must bypass the approximator entirely, sorted for
    /// binary search. Runtime state (a governor actuation), not
    /// configuration: constructors always start with every PC enabled.
    disabled_pcs: Vec<Pc>,
}

impl LoadValueApproximator {
    /// Builds an approximator from `config`, rejecting malformed
    /// configurations instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] reported by
    /// [`ApproximatorConfig::validate`].
    pub fn try_new(config: ApproximatorConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let table = ApproximatorTable::try_new(
            config.table_entries,
            config.lhb_entries,
            config.confidence_bits,
            config.degree,
        )?;
        let hasher = ContextHasher::new(
            config.hash,
            config.mantissa_loss_bits,
            table.index_bits(),
            config.tag_bits,
        );
        let ghb = HistoryBuffer::new(config.ghb_entries);
        Ok(LoadValueApproximator {
            config,
            hasher,
            ghb,
            table,
            disabled_pcs: Vec::new(),
        })
    }

    /// Convenience wrapper around [`try_new`](Self::try_new) for known-good
    /// configurations.
    ///
    /// # Panics
    ///
    /// Panics if `config.table_entries` is not a power of two ≥ 2, if
    /// `config.lhb_entries` is 0, if the index and tag widths exceed 64
    /// bits combined, or if `config.confidence_window` is malformed
    /// (NaN, negative, or infinite relative fraction). Fallible callers
    /// should use [`try_new`](Self::try_new).
    #[must_use]
    pub fn new(config: ApproximatorConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configuration this approximator was built with.
    #[must_use]
    pub fn config(&self) -> &ApproximatorConfig {
        &self.config
    }

    /// The global history buffer (read-only; useful for tests and tools).
    #[must_use]
    pub fn ghb(&self) -> &HistoryBuffer<Value> {
        &self.ghb
    }

    /// The approximator table (read-only).
    #[must_use]
    pub fn table(&self) -> &ApproximatorTable {
        &self.table
    }

    /// Mutable access to the approximator table — the sanctioned surface
    /// for fault injection (bit flips in tags, confidence counters and LHB
    /// values) and for tools. The simulation itself never calls this.
    pub fn table_mut(&mut self) -> &mut ApproximatorTable {
        &mut self.table
    }

    /// Retunes the relaxed confidence window in place — the knob surface a
    /// supervisory governor actuates between epochs. Live confidence
    /// counters are kept; the new width applies from the next training on.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ConfidenceWindow`] for a NaN, negative, or
    /// infinite relative fraction, exactly as construction would.
    pub fn set_confidence_window(&mut self, window: ConfidenceWindow) -> Result<(), ConfigError> {
        window.validate()?;
        self.config.confidence_window = window;
        Ok(())
    }

    /// Retunes the approximation degree in place. Degree windows already
    /// open keep their remaining count and drain normally; entries re-arm
    /// with the new degree at their next training fetch, the same way
    /// allocation seeds them.
    pub fn set_degree(&mut self, degree: u32) {
        self.config.degree = degree;
    }

    /// Whether misses at `pc` may consult the approximator. Every PC is
    /// enabled at construction; see [`set_pc_enabled`](Self::set_pc_enabled).
    #[must_use]
    pub fn pc_enabled(&self, pc: Pc) -> bool {
        self.disabled_pcs.is_empty() || self.disabled_pcs.binary_search(&pc).is_err()
    }

    /// Enables or disables approximation for one static load PC. A
    /// disabled PC's misses must take the conventional fetch path — the
    /// embedder checks [`pc_enabled`](Self::pc_enabled) before consulting
    /// the approximator, mirroring a degradation controller's `Deny`.
    pub fn set_pc_enabled(&mut self, pc: Pc, enabled: bool) {
        match self.disabled_pcs.binary_search(&pc) {
            Ok(i) if enabled => {
                self.disabled_pcs.remove(i);
            }
            Err(i) if !enabled => self.disabled_pcs.insert(i, pc),
            _ => {}
        }
    }

    /// The PCs currently disabled via [`set_pc_enabled`](Self::set_pc_enabled),
    /// sorted ascending.
    #[must_use]
    pub fn disabled_pcs(&self) -> &[Pc] {
        &self.disabled_pcs
    }

    /// Consults the approximator on an L1 miss of an annotated load at `pc`
    /// returning a value of type `ty`.
    ///
    /// The caller is responsible for the cache-side effects: on
    /// [`FetchAction::Fetch`] (or a fallthrough) it must fetch the block and
    /// later call [`train`](Self::train) with the actual value — after any
    /// value delay it wishes to model. On [`FetchAction::Skip`] nothing else
    /// happens.
    pub fn on_miss(&mut self, pc: Pc, ty: ValueType) -> MissOutcome {
        self.on_miss_traced(pc, ty, &mut NullSink, TraceCtx::new(0, 0))
    }

    /// [`on_miss`](Self::on_miss) with instrumentation: emits
    /// approximation-issued and degree-window events into `sink`. The sink
    /// is strictly write-only — the untraced variant delegates here with a
    /// [`NullSink`], so traced and untraced runs take the same path.
    pub(crate) fn on_miss_traced(
        &mut self,
        pc: Pc,
        ty: ValueType,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) -> MissOutcome {
        self.on_miss_policed(pc, ty, MissPolicy::Normal, sink, ctx)
    }

    /// `on_miss_traced` under an external
    /// [`MissPolicy`] — the demotion hook a quality-budget degradation
    /// controller drives. [`MissPolicy::Normal`] takes exactly the same
    /// path as the plain variants.
    pub fn on_miss_policed(
        &mut self,
        pc: Pc,
        ty: ValueType,
        policy: MissPolicy,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) -> MissOutcome {
        let slot = self.hasher.slot(pc, &self.ghb);
        self.table
            .lookup_or_allocate(slot.index, slot.tag, self.config.degree);

        if self.table.lhb_is_empty(slot.index) {
            // Nothing to compute an estimate from: plain miss.
            return MissOutcome::Fallthrough(TrainToken {
                entry_index: slot.index,
                approx: None,
                ty,
                pc,
            });
        }

        let estimate = Value::from_numeric(
            self.config
                .compute
                .apply_slice(self.table.lhb_values(slot.index)),
            ty,
        );
        let gated = ty.is_float() || self.config.confidence_on_int;
        if gated && !self.table.confidence(slot.index).is_confident() {
            // Too unconfident to approximate, but the would-be estimate still
            // trains the confidence counter when the actual value arrives —
            // otherwise the counter could never recover.
            return MissOutcome::Fallthrough(TrainToken {
                entry_index: slot.index,
                approx: Some(estimate),
                ty,
                pc,
            });
        }

        if policy == MissPolicy::ForceFetch {
            // Demotion: close any open degree window.
            if self.table.degree_counter(slot.index) > 0 {
                *self.table.degree_counter_mut(slot.index) = 0;
                if sink.enabled() {
                    sink.record(TraceEvent::at(
                        ctx,
                        TraceEventKind::DegreeClose { pc: pc.0 },
                    ));
                }
            }
            if sink.enabled() {
                sink.record(TraceEvent::at(
                    ctx,
                    TraceEventKind::Approx {
                        pc: pc.0,
                        skipped_fetch: false,
                    },
                ));
            }
            return MissOutcome::Approximate(Approximation {
                value: estimate,
                fetch: FetchAction::Fetch,
                token: TrainToken {
                    entry_index: slot.index,
                    approx: Some(estimate),
                    ty,
                    pc,
                },
            });
        }
        let fetch = if self.config.degree > 0 && self.table.degree_counter(slot.index) > 0 {
            let counter = self.table.degree_counter_mut(slot.index);
            *counter -= 1;
            let window_closed = *counter == 0;
            if sink.enabled() && window_closed {
                sink.record(TraceEvent::at(
                    ctx,
                    TraceEventKind::DegreeClose { pc: pc.0 },
                ));
            }
            FetchAction::Skip
        } else {
            *self.table.degree_counter_mut(slot.index) = self.config.degree;
            if sink.enabled() && self.config.degree > 0 {
                sink.record(TraceEvent::at(
                    ctx,
                    TraceEventKind::DegreeOpen {
                        pc: pc.0,
                        degree: self.config.degree,
                    },
                ));
            }
            FetchAction::Fetch
        };
        if sink.enabled() {
            sink.record(TraceEvent::at(
                ctx,
                TraceEventKind::Approx {
                    pc: pc.0,
                    skipped_fetch: fetch == FetchAction::Skip,
                },
            ));
        }
        MissOutcome::Approximate(Approximation {
            value: estimate,
            fetch,
            token: TrainToken {
                entry_index: slot.index,
                approx: Some(estimate),
                ty,
                pc,
            },
        })
    }

    /// Trains the approximator with the `actual` value fetched for the miss
    /// identified by `token`: the value enters the GHB and the entry's LHB,
    /// and — if an estimate had been produced — the confidence counter is
    /// updated against the relaxed window (§III-B).
    ///
    /// Callers model value delay by deferring this call; the approximator
    /// itself is delay-agnostic.
    ///
    /// Returns the relative error of the estimate the token carried against
    /// `actual` (`None` when the miss produced no estimate). A zero actual
    /// value degrades to the absolute error of the estimate, mirroring
    /// [`ConfidenceUpdate::Proportional`]'s convention. Quality-budget
    /// controllers consume this; plain harnesses may ignore it.
    pub fn train(&mut self, token: TrainToken, actual: Value) -> Option<f64> {
        self.train_traced(token, actual, &mut NullSink, TraceCtx::new(0, 0))
    }

    /// [`train`](Self::train) with instrumentation: emits a training event
    /// (predicted vs. actual, relative error) and confidence-threshold
    /// crossing events into `sink`. Write-only, like
    /// `on_miss_traced`. Returns the same error
    /// feedback as [`train`](Self::train).
    pub fn train_traced(
        &mut self,
        token: TrainToken,
        actual: Value,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) -> Option<f64> {
        self.ghb.push(actual);
        let gated = token.ty.is_float() || self.config.confidence_on_int;
        if let Some(approx) = token.approx {
            if gated {
                let confidence = self.table.confidence_mut(token.entry_index);
                let confident_before = confidence.is_confident();
                confidence.train(
                    approx,
                    actual,
                    self.config.confidence_window,
                    self.config.confidence_update,
                );
                if sink.enabled() {
                    let confident_after = confidence.is_confident();
                    if confident_after != confident_before {
                        let kind = if confident_after {
                            TraceEventKind::ConfidenceUp { pc: token.pc.0 }
                        } else {
                            TraceEventKind::ConfidenceDown { pc: token.pc.0 }
                        };
                        sink.record(TraceEvent::at(ctx, kind));
                    }
                }
            }
        }
        if sink.enabled() {
            let actual_f = actual.to_f64();
            let predicted = token.approx.map(|v| v.to_f64());
            let rel_err = predicted
                .and_then(|p| (actual_f != 0.0).then(|| ((p - actual_f) / actual_f).abs()));
            sink.record(TraceEvent::at(
                ctx,
                TraceEventKind::Train {
                    pc: token.pc.0,
                    predicted,
                    actual: actual_f,
                    rel_err,
                },
            ));
        }
        self.table.lhb_push(token.entry_index, actual);
        token.approx.map(|approx| {
            let x = actual.to_f64();
            let p = approx.to_f64();
            if x == 0.0 {
                p.abs()
            } else {
                ((p - x) / x).abs()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm_up(approx: &mut LoadValueApproximator, pc: Pc, values: &[f32]) {
        for &v in values {
            let token = approx.on_miss(pc, ValueType::F32).token();
            approx.train(token, Value::from_f32(v));
        }
    }

    #[test]
    fn cold_entry_falls_through() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        match a.on_miss(Pc(1), ValueType::F32) {
            MissOutcome::Fallthrough(_) => {}
            MissOutcome::Approximate(_) => panic!("cold entry must not approximate"),
        }
    }

    #[test]
    fn average_of_lhb_is_returned() {
        // Integer data is not confidence-gated in the baseline, so diverse
        // training values still yield an approximation: the LHB average.
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        for v in [2, 4, 6, 8] {
            let token = a.on_miss(Pc(1), ValueType::I32).token();
            a.train(token, Value::from_i32(v));
        }
        match a.on_miss(Pc(1), ValueType::I32) {
            MissOutcome::Approximate(ap) => assert_eq!(ap.value.as_i32(), 5),
            MissOutcome::Fallthrough(_) => panic!("warm entry must approximate"),
        }
    }

    #[test]
    fn float_approximation_uses_lhb_average_when_confident() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        // Values drift slowly enough that every estimate lands within the
        // ±10% window, keeping confidence non-negative throughout.
        warm_up(&mut a, Pc(1), &[4.0, 4.2, 4.4, 4.6]);
        match a.on_miss(Pc(1), ValueType::F32) {
            MissOutcome::Approximate(ap) => {
                assert!((ap.value.as_f32() - 4.3).abs() < 1e-6, "{}", ap.value);
            }
            MissOutcome::Fallthrough(_) => panic!("confident entry must approximate"),
        }
    }

    #[test]
    fn low_confidence_blocks_float_approximations() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        // Train with wildly varying values: every estimate misses the ±10%
        // window so confidence dives below zero.
        warm_up(&mut a, Pc(1), &[1.0, 1000.0, 1.0, 1000.0, 1.0, 1000.0]);
        match a.on_miss(Pc(1), ValueType::F32) {
            MissOutcome::Fallthrough(t) => {
                assert!(t.approx.is_some(), "fallthrough still trains confidence");
            }
            MissOutcome::Approximate(_) => panic!("confidence should gate this"),
        }
    }

    #[test]
    fn confidence_recovers_when_values_stabilize() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        warm_up(&mut a, Pc(1), &[1.0, 1000.0, 1.0, 1000.0]);
        // Stable phase: internal estimates converge on 500 → then on ~steady
        // values, eventually the window hits push confidence back up.
        warm_up(&mut a, Pc(1), &[500.0; 12]);
        match a.on_miss(Pc(1), ValueType::F32) {
            MissOutcome::Approximate(ap) => {
                assert!((ap.value.as_f32() - 500.0).abs() < 1.0);
            }
            MissOutcome::Fallthrough(_) => panic!("confidence should have recovered"),
        }
    }

    #[test]
    fn integer_data_skips_confidence_in_baseline() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        // Wildly varying ints would kill confidence if it applied.
        for v in [0, 1000, 0, 1000, 0, 1000] {
            let token = a.on_miss(Pc(2), ValueType::I32).token();
            a.train(token, Value::from_i32(v));
        }
        match a.on_miss(Pc(2), ValueType::I32) {
            MissOutcome::Approximate(ap) => assert_eq!(ap.value.as_i32(), 500),
            MissOutcome::Fallthrough(_) => panic!("ints are not confidence-gated"),
        }
    }

    #[test]
    fn confidence_on_int_gates_integers_too() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::with_confidence_window(
            ConfidenceWindow::Relative(0.10),
        ));
        for v in [0, 1000, 0, 1000, 0, 1000, 0, 1000] {
            let token = a.on_miss(Pc(2), ValueType::I32).token();
            a.train(token, Value::from_i32(v));
        }
        assert!(
            matches!(
                a.on_miss(Pc(2), ValueType::I32),
                MissOutcome::Fallthrough(_)
            ),
            "alternating ints should exhaust confidence when gated"
        );
    }

    #[test]
    fn degree_skips_fetches_at_the_documented_ratio() {
        let mut cfg = ApproximatorConfig::with_degree(4);
        cfg.confidence_on_int = false;
        let mut a = LoadValueApproximator::new(cfg);
        // Warm the entry.
        let token = a.on_miss(Pc(3), ValueType::I32).token();
        a.train(token, Value::from_i32(7));

        let mut fetches = 0;
        let mut skips = 0;
        for _ in 0..50 {
            match a.on_miss(Pc(3), ValueType::I32) {
                MissOutcome::Approximate(ap) => match ap.fetch {
                    FetchAction::Fetch => {
                        fetches += 1;
                        a.train(ap.token, Value::from_i32(7));
                    }
                    FetchAction::Skip => skips += 1,
                },
                MissOutcome::Fallthrough(t) => {
                    fetches += 1;
                    a.train(t, Value::from_i32(7));
                }
            }
        }
        // Degree 4 → 1 fetch per 5 misses (paper: 1:(d+1) ratio).
        assert_eq!(fetches + skips, 50);
        assert_eq!(skips, 4 * fetches, "skips {skips} fetches {fetches}");
    }

    #[test]
    fn degree_zero_always_fetches() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        warm_up(&mut a, Pc(4), &[1.0; 5]);
        let mut approximations = 0;
        for _ in 0..10 {
            match a.on_miss(Pc(4), ValueType::F32) {
                MissOutcome::Approximate(ap) => {
                    assert_eq!(ap.fetch, FetchAction::Fetch);
                    approximations += 1;
                    a.train(ap.token, Value::from_f32(1.0));
                }
                MissOutcome::Fallthrough(t) => {
                    a.train(t, Value::from_f32(1.0));
                }
            }
        }
        assert!(approximations > 0, "a warm entry approximates");
    }

    #[test]
    fn ghb_affects_indexing() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::with_ghb(2));
        // Train one context.
        warm_up(&mut a, Pc(5), &[3.0, 3.0, 3.0, 9.0]);
        // The GHB now holds recent values; changing them redirects the next
        // miss to a different entry, which will be cold.
        assert!(matches!(
            a.on_miss(Pc(5), ValueType::F32),
            MissOutcome::Fallthrough(_)
        ));
        // One PC, several history contexts: more than one entry allocated.
        let table = a.table();
        let allocated = (0..table.len()).filter(|&i| table.tag(i).is_some());
        assert!(allocated.count() >= 2);
    }

    #[test]
    fn warm_entry_approximates() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        let mut approximations = 0;
        for _ in 0..5 {
            let outcome = a.on_miss(Pc(6), ValueType::F32);
            approximations += u32::from(outcome.approximation().is_some());
            a.train(outcome.token(), Value::from_f32(1.0));
        }
        assert!(approximations >= 3, "warm entry approximates");
    }

    #[test]
    fn compute_fns_behave() {
        let mut lhb = HistoryBuffer::new(4);
        lhb.extend([2.0f32, 4.0, 6.0].into_iter().map(Value::from_f32));
        assert_eq!(ComputeFn::Average.apply(&lhb), 4.0);
        assert_eq!(ComputeFn::LastValue.apply(&lhb), 6.0);
        assert_eq!(ComputeFn::Stride.apply(&lhb), 8.0);
        let w = ComputeFn::WeightedAverage.apply(&lhb);
        assert!((w - (2.0 + 8.0 + 18.0) / 6.0).abs() < 1e-9);
    }

    #[test]
    fn stride_with_single_value_is_last_value() {
        let mut lhb = HistoryBuffer::new(4);
        lhb.push(Value::from_f32(5.0));
        assert_eq!(ComputeFn::Stride.apply(&lhb), 5.0);
    }

    #[test]
    fn try_new_rejects_bad_configs_without_panicking() {
        let mut cfg = ApproximatorConfig::baseline();
        cfg.table_entries = 0;
        assert!(matches!(
            LoadValueApproximator::try_new(cfg),
            Err(crate::ConfigError::TableEntries { entries: 0 })
        ));
        let mut cfg = ApproximatorConfig::baseline();
        cfg.lhb_entries = 0;
        assert!(matches!(
            LoadValueApproximator::try_new(cfg),
            Err(crate::ConfigError::LhbEntries)
        ));
        let mut cfg = ApproximatorConfig::baseline();
        cfg.confidence_window = ConfidenceWindow::Relative(f64::NAN);
        assert!(matches!(
            LoadValueApproximator::try_new(cfg),
            Err(crate::ConfigError::ConfidenceWindow { .. })
        ));
        let mut cfg = ApproximatorConfig::baseline();
        cfg.tag_bits = 60;
        assert!(matches!(
            LoadValueApproximator::try_new(cfg),
            Err(crate::ConfigError::IndexTagWidth { .. })
        ));
        assert!(LoadValueApproximator::try_new(ApproximatorConfig::baseline()).is_ok());
    }

    #[test]
    fn train_reports_relative_error_feedback() {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        // Cold miss: no estimate, no feedback.
        let t = a.on_miss(Pc(1), ValueType::F32).token();
        assert_eq!(a.train(t, Value::from_f32(10.0)), None);
        // Warm miss: estimate 10.0 vs actual 12.0 → 1/6 relative error.
        let t = a.on_miss(Pc(1), ValueType::F32).token();
        let err = a.train(t, Value::from_f32(12.0)).expect("estimate exists");
        assert!((err - 2.0 / 12.0).abs() < 1e-9, "err {err}");
        // Zero actual: falls back to the absolute error of the estimate.
        let t = a.on_miss(Pc(1), ValueType::F32).token();
        let err = a.train(t, Value::from_f32(0.0)).expect("estimate exists");
        assert!(err > 0.0 && err.is_finite());
    }

    #[test]
    fn force_fetch_policy_overrides_degree() {
        use lva_obs::NullSink;

        let mut cfg = ApproximatorConfig::with_degree(4);
        cfg.confidence_on_int = false;
        let mut a = LoadValueApproximator::new(cfg);
        // Constant training stream: the PC⊕GHB slot stabilizes once the
        // GHB fills with the constant, after which an approximation that
        // *fetches* opens the degree window.
        let mut opened = false;
        for _ in 0..16 {
            match a.on_miss(Pc(3), ValueType::I32) {
                MissOutcome::Approximate(ap) if ap.fetch == FetchAction::Fetch => {
                    a.train(ap.token, Value::from_i32(7));
                    opened = true;
                    break;
                }
                MissOutcome::Approximate(_) => {}
                MissOutcome::Fallthrough(t) => {
                    a.train(t, Value::from_i32(7));
                }
            }
        }
        assert!(
            opened,
            "constant stream must eventually approximate-and-fetch"
        );
        // The next miss would skip its fetch (degree window open) — the
        // policy forces a training fetch instead.
        let forced = a.on_miss_policed(
            Pc(3),
            ValueType::I32,
            MissPolicy::ForceFetch,
            &mut NullSink,
            TraceCtx::new(0, 0),
        );
        match forced {
            MissOutcome::Approximate(ap) => assert_eq!(ap.fetch, FetchAction::Fetch),
            MissOutcome::Fallthrough(_) => panic!("warm entry must approximate"),
        }
        // The forced fetch closed the window: the next miss fetches again.
        match a.on_miss(Pc(3), ValueType::I32) {
            MissOutcome::Approximate(ap) => assert_eq!(ap.fetch, FetchAction::Fetch),
            MissOutcome::Fallthrough(_) => panic!("warm entry must approximate"),
        }
    }

    #[test]
    fn traced_hooks_match_untraced_and_emit_events() {
        use lva_obs::RingBufferSink;

        let mut plain = LoadValueApproximator::new(ApproximatorConfig::with_degree(2));
        let mut traced = LoadValueApproximator::new(ApproximatorConfig::with_degree(2));
        let mut ring = RingBufferSink::new(4096);
        for i in 0..30u64 {
            let ctx = TraceCtx::new(0, i);
            let a = plain.on_miss(Pc(7), ValueType::I32);
            let b = traced.on_miss_traced(Pc(7), ValueType::I32, &mut ring, ctx);
            assert_eq!(a, b, "tracing must not perturb outcomes (miss {i})");
            let skip = matches!(
                b,
                MissOutcome::Approximate(ap) if ap.fetch == FetchAction::Skip
            );
            if !skip {
                let v = Value::from_i32(7 + (i as i32 % 3));
                assert_eq!(
                    plain.train(a.token(), v),
                    traced.train_traced(b.token(), v, &mut ring, ctx),
                    "tracing must not perturb training feedback (miss {i})"
                );
            }
        }
        let names: std::collections::HashSet<&str> =
            ring.events().iter().map(|e| e.kind.name()).collect();
        for expected in ["approx", "train", "degree-open", "degree-close"] {
            assert!(names.contains(expected), "missing {expected}: {names:?}");
        }
        // Every PC-bearing event points at the one PC we used.
        for event in ring.events() {
            assert_eq!(event.kind.pc(), Some(7));
        }
    }
}
