//! Typed data values flowing through the approximator.
//!
//! The approximator operates on the *numeric interpretation* of load values:
//! it averages them, checks whether an approximation falls within a relative
//! confidence window of the actual value (§III-B), and truncates
//! floating-point mantissas when hashing (§VII-B). A [`Value`] couples the
//! raw bits with a [`ValueType`] so all of those operations are well-defined
//! for both the integer benchmarks (bodytrack, canneal, x264) and the
//! floating-point ones (blackscholes, ferret, fluidanimate, swaptions).

use std::fmt;

/// The machine type of a load value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Unsigned 8-bit integer (pixels in bodytrack / x264).
    U8,
    /// Signed 32-bit integer (canneal's `<x, y>` coordinates).
    I32,
    /// Signed 64-bit integer.
    I64,
    /// IEEE-754 single precision (ferret feature vectors, fluidanimate).
    F32,
    /// IEEE-754 double precision (blackscholes, swaptions).
    F64,
}

impl ValueType {
    /// Size of the value in bytes.
    #[must_use]
    pub fn size_bytes(self) -> u64 {
        match self {
            ValueType::U8 => 1,
            ValueType::I32 | ValueType::F32 => 4,
            ValueType::I64 | ValueType::F64 => 8,
        }
    }

    /// Whether the type is a floating-point type. The baseline configuration
    /// applies confidence estimation only to floating-point data (§VI).
    #[must_use]
    pub(crate) fn is_float(self) -> bool {
        matches!(self, ValueType::F32 | ValueType::F64)
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ValueType::U8 => "u8",
            ValueType::I32 => "i32",
            ValueType::I64 => "i64",
            ValueType::F32 => "f32",
            ValueType::F64 => "f64",
        };
        f.write_str(name)
    }
}

/// A typed load value: raw bits plus their machine type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value {
    bits: u64,
    ty: ValueType,
}

impl Value {
    /// Builds a value from raw little-endian bits of the given type.
    ///
    /// Bits above the type's width are ignored (masked off).
    #[must_use]
    pub fn from_bits(bits: u64, ty: ValueType) -> Self {
        let masked = match ty.size_bytes() {
            1 => bits & 0xff,
            4 => bits & 0xffff_ffff,
            _ => bits,
        };
        Value { bits: masked, ty }
    }

    /// Wraps an `f32`.
    #[must_use]
    pub fn from_f32(v: f32) -> Self {
        Value::from_bits(u64::from(v.to_bits()), ValueType::F32)
    }

    /// Wraps an `f64`.
    #[must_use]
    pub fn from_f64(v: f64) -> Self {
        Value::from_bits(v.to_bits(), ValueType::F64)
    }

    /// Wraps an `i32`.
    #[must_use]
    pub fn from_i32(v: i32) -> Self {
        Value::from_bits(u64::from(v as u32), ValueType::I32)
    }

    /// Wraps an `i64`.
    #[must_use]
    pub(crate) fn from_i64(v: i64) -> Self {
        Value::from_bits(v as u64, ValueType::I64)
    }

    /// Wraps a `u8`.
    #[must_use]
    pub fn from_u8(v: u8) -> Self {
        Value::from_bits(u64::from(v), ValueType::U8)
    }

    /// Converts a numeric quantity into a value of type `ty`, rounding and
    /// saturating integers. This is how the approximator's computation
    /// function materializes its result (e.g. the average of four pixel
    /// values becomes a `u8` again).
    #[must_use]
    pub fn from_numeric(v: f64, ty: ValueType) -> Self {
        match ty {
            ValueType::U8 => Value::from_u8(v.round().clamp(0.0, 255.0) as u8),
            ValueType::I32 => {
                Value::from_i32(v.round().clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32)
            }
            ValueType::I64 => {
                Value::from_i64(v.round().clamp(i64::MIN as f64, i64::MAX as f64) as i64)
            }
            ValueType::F32 => Value::from_f32(v as f32),
            ValueType::F64 => Value::from_f64(v),
        }
    }

    /// The raw bits (little-endian in the low bytes).
    #[must_use]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The machine type.
    #[must_use]
    pub fn value_type(self) -> ValueType {
        self.ty
    }

    /// Numeric interpretation of the value as an `f64`.
    ///
    /// This is what the approximator averages and window-compares. `i64`
    /// values above 2^53 lose precision, which is acceptable: the paper's
    /// integer data (pixels, grid coordinates) is small.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        match self.ty {
            ValueType::U8 => self.bits as f64,
            ValueType::I32 => f64::from(self.bits as u32 as i32),
            ValueType::I64 => self.bits as i64 as f64,
            ValueType::F32 => f64::from(f32::from_bits(self.bits as u32)),
            ValueType::F64 => f64::from_bits(self.bits),
        }
    }

    /// Reads back an `f32`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not of type [`ValueType::F32`].
    #[must_use]
    pub fn as_f32(self) -> f32 {
        assert_eq!(self.ty, ValueType::F32, "value is {}", self.ty);
        f32::from_bits(self.bits as u32)
    }

    /// Reads back an `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not of type [`ValueType::F64`].
    #[must_use]
    pub fn as_f64(self) -> f64 {
        assert_eq!(self.ty, ValueType::F64, "value is {}", self.ty);
        f64::from_bits(self.bits)
    }

    /// Reads back an `i32`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not of type [`ValueType::I32`].
    #[must_use]
    pub fn as_i32(self) -> i32 {
        assert_eq!(self.ty, ValueType::I32, "value is {}", self.ty);
        self.bits as u32 as i32
    }

    /// Reads back a `u8`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not of type [`ValueType::U8`].
    #[must_use]
    pub fn as_u8(self) -> u8 {
        assert_eq!(self.ty, ValueType::U8, "value is {}", self.ty);
        self.bits as u8
    }

    /// Bits used when hashing this value into the approximator-table index,
    /// with the low `loss` mantissa bits of floating-point values zeroed
    /// (§VII-B: reducing mantissa precision improves floating-point value
    /// locality so similar values map to the same table entry).
    ///
    /// Integer values are returned unchanged. `loss` is clamped to the
    /// mantissa width (23 for `f32`, 52 for `f64`).
    #[must_use]
    pub fn hash_bits(self, loss: u32) -> u64 {
        match self.ty {
            ValueType::F32 => {
                let keep = 23u32.saturating_sub(loss.min(23));
                let mask = !(((1u64 << (23 - keep)) - 1) & 0x7f_ffff);
                self.bits & mask
            }
            ValueType::F64 => {
                let keep = 52u32.saturating_sub(loss.min(52));
                let mask = !(((1u64 << (52 - keep)) - 1) & 0xf_ffff_ffff_ffff);
                self.bits & mask
            }
            _ => self.bits,
        }
    }

    /// Whether `self` (an approximation) falls within the relative window
    /// `frac` of `actual`: `|approx − actual| ≤ frac · |actual|`.
    ///
    /// When the actual value is exactly zero, only a zero approximation is
    /// within any finite window (the paper's ±10% of zero is zero). NaNs are
    /// never within a window.
    #[must_use]
    pub fn within_relative_window(self, actual: Value, frac: f64) -> bool {
        let a = self.to_f64();
        let x = actual.to_f64();
        if a.is_nan() || x.is_nan() {
            return false;
        }
        (a - x).abs() <= frac * x.abs()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ty {
            ValueType::F32 | ValueType::F64 => write!(f, "{}:{}", self.to_f64(), self.ty),
            _ => write!(f, "{}:{}", self.to_f64() as i64, self.ty),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        assert_eq!(Value::from_u8(200).as_u8(), 200);
        assert_eq!(Value::from_i32(-12345).as_i32(), -12345);
        assert_eq!(Value::from_i64(-1).bits() as i64, -1);
        assert_eq!(Value::from_f32(3.5).as_f32(), 3.5);
        assert_eq!(Value::from_f64(-2.25).as_f64(), -2.25);
    }

    #[test]
    fn numeric_interpretation_is_signed() {
        assert_eq!(Value::from_i32(-7).to_f64(), -7.0);
        assert_eq!(Value::from_i64(-9).to_f64(), -9.0);
    }

    #[test]
    fn from_numeric_rounds_and_saturates_integers() {
        assert_eq!(Value::from_numeric(3.6, ValueType::U8).as_u8(), 4);
        assert_eq!(Value::from_numeric(-5.0, ValueType::U8).as_u8(), 0);
        assert_eq!(Value::from_numeric(300.0, ValueType::U8).as_u8(), 255);
        assert_eq!(Value::from_numeric(1e12, ValueType::I32).as_i32(), i32::MAX);
        assert_eq!(Value::from_numeric(-2.5, ValueType::I32).as_i32(), -3);
    }

    #[test]
    fn relative_window_matches_paper_semantics() {
        let actual = Value::from_f32(10.0);
        assert!(Value::from_f32(10.9).within_relative_window(actual, 0.10));
        assert!(Value::from_f32(9.1).within_relative_window(actual, 0.10));
        assert!(!Value::from_f32(11.2).within_relative_window(actual, 0.10));
        // A 0% window is exact match.
        assert!(Value::from_f32(10.0).within_relative_window(actual, 0.0));
        assert!(!Value::from_f32(10.0001).within_relative_window(actual, 0.0));
        // Window around zero admits only zero.
        let zero = Value::from_f32(0.0);
        assert!(Value::from_f32(0.0).within_relative_window(zero, 0.10));
        assert!(!Value::from_f32(0.01).within_relative_window(zero, 0.10));
    }

    #[test]
    fn nan_is_never_within_window() {
        let actual = Value::from_f32(f32::NAN);
        assert!(!Value::from_f32(1.0).within_relative_window(actual, 1.0));
        assert!(!Value::from_f32(f32::NAN).within_relative_window(Value::from_f32(1.0), 1.0));
    }

    #[test]
    fn mantissa_truncation_merges_nearby_floats() {
        let a = Value::from_f32(1.000);
        let b = Value::from_f32(1.001);
        assert_ne!(a.hash_bits(0), b.hash_bits(0));
        assert_eq!(a.hash_bits(23), b.hash_bits(23));
        // Truncation never affects integers.
        let i = Value::from_i32(1234);
        assert_eq!(i.hash_bits(23), i.bits());
    }

    #[test]
    fn mantissa_truncation_preserves_sign_and_exponent() {
        let v = Value::from_f32(-3.999);
        let t = f32::from_bits(v.hash_bits(23) as u32);
        assert!((-4.0..=-2.0).contains(&t), "truncated to {t}");
    }

    #[test]
    fn f64_truncation_is_bounded() {
        let a = Value::from_f64(1.0 + 1e-12);
        assert_eq!(a.hash_bits(52), Value::from_f64(1.0).hash_bits(52));
        assert_eq!(a.hash_bits(0), a.bits());
    }

    #[test]
    fn from_bits_masks_excess_bits() {
        let v = Value::from_bits(0xdead_beef_ffff_ff42, ValueType::U8);
        assert_eq!(v.as_u8(), 0x42);
    }
}
