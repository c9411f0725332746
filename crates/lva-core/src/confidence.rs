//! Relaxed confidence estimation (§III-B).
//!
//! Traditional value predictors increment confidence only on an *exact*
//! match. Load value approximation relaxes this: the counter is incremented
//! whenever the approximation lands within a configurable window of the
//! actual value, trading output error for coverage.

use crate::{ConfigError, Value};

/// How close an approximation must be to the actual value for the
/// confidence counter to be incremented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfidenceWindow {
    /// 0% window: the approximation must equal the actual value exactly —
    /// traditional value prediction semantics.
    Exact,
    /// ±`frac`·|actual|: the paper's relaxed window (baseline `0.10`).
    Relative(f64),
    /// Infinitely relaxed: the counter is never decremented and data is
    /// always approximated once history exists (§VI-B).
    Infinite,
}

impl ConfidenceWindow {
    /// Checks that the window parameters are meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ConfidenceWindow`] if a
    /// [`ConfidenceWindow::Relative`] fraction is NaN, negative, or
    /// infinite. A NaN window silently rejects every approximation and a
    /// negative one is nonsense; an unbounded window should be spelled
    /// [`ConfidenceWindow::Infinite`].
    pub fn validate(self) -> Result<(), ConfigError> {
        if let ConfidenceWindow::Relative(frac) = self {
            if !(frac.is_finite() && frac >= 0.0) {
                return Err(ConfigError::ConfidenceWindow { frac });
            }
        }
        Ok(())
    }

    /// Whether `approx` is "close enough" to `actual` under this window.
    #[must_use]
    pub(crate) fn accepts(self, approx: Value, actual: Value) -> bool {
        match self {
            ConfidenceWindow::Exact => {
                let (a, x) = (approx.to_f64(), actual.to_f64());
                !a.is_nan() && !x.is_nan() && a == x
            }
            ConfidenceWindow::Relative(frac) => approx.within_relative_window(actual, frac),
            ConfidenceWindow::Infinite => true,
        }
    }
}

/// How the confidence counter is adjusted after each training event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConfidenceUpdate {
    /// ±1 per training event — the paper's baseline.
    #[default]
    Unit,
    /// Penalize proportionally to how far off the approximation was (the
    /// paper's §III-B "future work" optimization): within the window → +1;
    /// outside it → −1 per multiple of the window width the error spans,
    /// capped at −4.
    Proportional,
}

/// A saturating signed confidence counter with `bits` bits, covering
/// `[-2^(bits-1), 2^(bits-1) - 1]` (baseline: 4 bits → `[-8, 7]`,
/// Table II). Approximations are made while the counter is ≥ 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfidenceCounter {
    value: i32,
    min: i32,
    max: i32,
}

impl ConfidenceCounter {
    /// Creates a counter at 0 with the given width.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ConfidenceBits`] unless `2 ≤ bits ≤ 16`.
    pub fn try_new(bits: u32) -> Result<Self, ConfigError> {
        if !(2..=16).contains(&bits) {
            return Err(ConfigError::ConfidenceBits { bits });
        }
        Ok(ConfidenceCounter {
            value: 0,
            min: -(1 << (bits - 1)),
            max: (1 << (bits - 1)) - 1,
        })
    }

    /// Convenience wrapper around [`try_new`](Self::try_new) for
    /// known-good widths.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 16`; fallible callers should use
    /// [`try_new`](Self::try_new).
    #[must_use]
    pub fn new(bits: u32) -> Self {
        Self::try_new(bits).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Current counter value.
    #[must_use]
    pub fn value(&self) -> i32 {
        self.value
    }

    /// Whether an approximation may be made (counter ≥ 0, §III-B).
    #[must_use]
    pub(crate) fn is_confident(&self) -> bool {
        self.value >= 0
    }

    /// Saturating increment by 1.
    pub fn increment(&mut self) {
        self.value = (self.value + 1).min(self.max);
    }

    /// Saturating decrement by `amount` (≥ 1).
    pub fn decrement(&mut self, amount: i32) {
        self.value = (self.value - amount.max(1)).max(self.min);
    }

    /// Resets the counter to 0 (used when a table entry is re-allocated to a
    /// new tag).
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Overwrites the counter with `value`, clamped to the counter's range.
    /// This is the sanctioned corruption hook for fault injection — a bit
    /// flip in a hardware confidence counter lands on some in-range value,
    /// and the clamp keeps the invariants intact.
    pub fn force_value(&mut self, value: i32) {
        self.value = value.clamp(self.min, self.max);
    }

    /// Applies a full training update: compares `approx` against `actual`
    /// under `window`, increments the counter if the window accepts the
    /// approximation and otherwise decrements it per `update`.
    ///
    /// Under [`ConfidenceWindow::Infinite`] the counter is never decremented.
    pub fn train(
        &mut self,
        approx: Value,
        actual: Value,
        window: ConfidenceWindow,
        update: ConfidenceUpdate,
    ) {
        if window.accepts(approx, actual) {
            self.increment();
        } else {
            let amount = match update {
                ConfidenceUpdate::Unit => 1,
                ConfidenceUpdate::Proportional => proportional_penalty(approx, actual, window),
            };
            self.decrement(amount);
        }
    }
}

impl Default for ConfidenceCounter {
    fn default() -> Self {
        ConfidenceCounter::new(4)
    }
}

fn proportional_penalty(approx: Value, actual: Value, window: ConfidenceWindow) -> i32 {
    let width = match window {
        ConfidenceWindow::Relative(frac) if frac > 0.0 => frac,
        // With an exact window any miss is maximally wrong relative to a
        // zero-width band; fall back to the unit penalty.
        _ => return 1,
    };
    let x = actual.to_f64();
    let a = approx.to_f64();
    if !x.is_finite() || !a.is_finite() {
        return 4;
    }
    // At `actual == 0` the relative window degenerates to the single point
    // {0} (see `Value::within_relative_window`), so measure the raw error
    // against the window fraction as an absolute scale instead of jumping
    // straight to the maximum penalty.
    let err = if x == 0.0 {
        a.abs()
    } else {
        ((a - x) / x).abs()
    };
    // `ceil`, not `floor`: the penalty is −1 per window width the error
    // *spans*, so anything past k widths already counts the (k+1)-th.
    ((err / width).ceil() as i32).clamp(1, 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_at_both_ends() {
        let mut c = ConfidenceCounter::new(4);
        for _ in 0..100 {
            c.increment();
        }
        assert_eq!(c.value(), 7);
        for _ in 0..100 {
            c.decrement(1);
        }
        assert_eq!(c.value(), -8);
    }

    #[test]
    fn confident_iff_nonnegative() {
        let mut c = ConfidenceCounter::new(4);
        assert!(c.is_confident());
        c.decrement(1);
        assert!(!c.is_confident());
        c.increment();
        assert!(c.is_confident());
    }

    #[test]
    fn relaxed_window_accepts_close_values() {
        let mut c = ConfidenceCounter::new(4);
        let actual = Value::from_f32(100.0);
        let near = Value::from_f32(105.0);
        let far = Value::from_f32(150.0);
        c.train(
            near,
            actual,
            ConfidenceWindow::Relative(0.10),
            ConfidenceUpdate::Unit,
        );
        assert_eq!(c.value(), 1);
        c.train(
            far,
            actual,
            ConfidenceWindow::Relative(0.10),
            ConfidenceUpdate::Unit,
        );
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn exact_window_matches_traditional_prediction() {
        let w = ConfidenceWindow::Exact;
        assert!(w.accepts(Value::from_i32(5), Value::from_i32(5)));
        assert!(!w.accepts(Value::from_f32(1.0), Value::from_f32(1.0001)));
    }

    #[test]
    fn infinite_window_never_decrements() {
        let mut c = ConfidenceCounter::new(4);
        let wildly_off = Value::from_f32(1e20);
        let actual = Value::from_f32(1.0);
        for expected in 1..=5 {
            c.train(
                wildly_off,
                actual,
                ConfidenceWindow::Infinite,
                ConfidenceUpdate::Unit,
            );
            assert_eq!(c.value(), expected);
        }
    }

    #[test]
    fn proportional_update_penalizes_large_errors_harder() {
        let mut unit = ConfidenceCounter::new(6);
        let mut prop = ConfidenceCounter::new(6);
        let actual = Value::from_f32(10.0);
        let off_by_half = Value::from_f32(15.0); // 50% error, 5x a 10% window
        unit.train(
            off_by_half,
            actual,
            ConfidenceWindow::Relative(0.10),
            ConfidenceUpdate::Unit,
        );
        prop.train(
            off_by_half,
            actual,
            ConfidenceWindow::Relative(0.10),
            ConfidenceUpdate::Proportional,
        );
        assert_eq!(unit.value(), -1);
        assert_eq!(prop.value(), -4);
    }

    /// Trains a fresh wide counter once and returns the (negative) delta.
    fn penalty_of(approx: f32, actual: f32, window: ConfidenceWindow) -> i32 {
        let mut c = ConfidenceCounter::new(6);
        c.train(
            Value::from_f32(approx),
            Value::from_f32(actual),
            window,
            ConfidenceUpdate::Proportional,
        );
        -c.value()
    }

    #[test]
    fn proportional_penalty_is_ceil_of_window_widths_spanned() {
        let w = ConfidenceWindow::Relative(0.10);
        // Exactly 1x the window width is *inside* the window: no penalty.
        let mut c = ConfidenceCounter::new(6);
        c.train(
            Value::from_f32(11.0),
            Value::from_f32(10.0),
            w,
            ConfidenceUpdate::Proportional,
        );
        assert_eq!(c.value(), 1);
        // 1.5x the width spans into the second window: penalty 2, not 1.
        assert_eq!(penalty_of(11.5, 10.0, w), 2);
        // Exactly 2x the width: penalty 2.
        assert_eq!(penalty_of(12.0, 10.0, w), 2);
        // >= 4x the width saturates at the maximum penalty.
        assert_eq!(penalty_of(20.0, 10.0, w), 4);
        assert_eq!(penalty_of(1e6, 10.0, w), 4);
    }

    #[test]
    fn proportional_penalty_zero_actual_uses_absolute_error() {
        let w = ConfidenceWindow::Relative(0.10);
        // Barely outside the degenerate zero window: smallest penalty, not 4.
        assert_eq!(penalty_of(0.05, 0.0, w), 1);
        assert_eq!(penalty_of(0.15, 0.0, w), 2);
        // Far from zero still earns the maximum penalty.
        assert_eq!(penalty_of(100.0, 0.0, w), 4);
        // Non-finite approximations remain maximally penalized.
        assert_eq!(penalty_of(f32::NAN, 0.0, w), 4);
        assert_eq!(penalty_of(f32::INFINITY, 1.0, w), 4);
    }

    #[test]
    fn validate_accepts_sane_windows() {
        assert_eq!(ConfidenceWindow::Exact.validate(), Ok(()));
        assert_eq!(ConfidenceWindow::Infinite.validate(), Ok(()));
        assert_eq!(ConfidenceWindow::Relative(0.0).validate(), Ok(()));
        assert_eq!(ConfidenceWindow::Relative(0.10).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_malformed_windows() {
        for bad in [f64::NAN, -0.10, f64::INFINITY] {
            let err = ConfidenceWindow::Relative(bad)
                .validate()
                .expect_err("malformed window must be rejected");
            assert!(
                matches!(err, ConfigError::ConfidenceWindow { .. }),
                "unexpected error for {bad}: {err}"
            );
            assert!(err.to_string().contains("finite and >= 0"));
        }
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut c = ConfidenceCounter::new(4);
        c.decrement(5);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "confidence bits")]
    fn rejects_one_bit_counter() {
        let _ = ConfidenceCounter::new(1);
    }

    #[test]
    fn try_new_reports_bad_widths_without_panicking() {
        assert_eq!(
            ConfidenceCounter::try_new(1),
            Err(ConfigError::ConfidenceBits { bits: 1 })
        );
        assert_eq!(
            ConfidenceCounter::try_new(17),
            Err(ConfigError::ConfidenceBits { bits: 17 })
        );
        assert!(ConfidenceCounter::try_new(4).is_ok());
    }

    #[test]
    fn force_value_clamps_to_counter_range() {
        let mut c = ConfidenceCounter::new(4);
        c.force_value(100);
        assert_eq!(c.value(), 7);
        c.force_value(-100);
        assert_eq!(c.value(), -8);
        c.force_value(3);
        assert_eq!(c.value(), 3);
    }
}
