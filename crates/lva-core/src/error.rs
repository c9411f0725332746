//! Typed configuration errors for the mechanism-level structures.
//!
//! Every fallible constructor and validator in this crate reports problems
//! through [`ConfigError`] instead of panicking, so embedders (`lva-sim`'s
//! config validation, the CLI) can surface a clear message and keep
//! running. The validators never allocate, and their size caps bound what
//! an accepted configuration allocates. Two panicking wrappers remain for
//! known-good inputs, [`crate::LoadValueApproximator::new`] and
//! [`crate::ConfidenceCounter::new`]; both unwrap their `try_new`.

use std::fmt;

/// Largest table (approximator, predictor, prefetcher) any validator
/// here accepts: 32x the paper's 512 entries.
pub const MAX_TABLE_ENTRIES: usize = 1 << 14;

/// Deepest value history (LHB, GHB) and widest prefetch degree any
/// validator here accepts: 16x the paper's GHB-4 and LHB-4, 4x its
/// degree 16.
pub const MAX_HISTORY_ENTRIES: usize = 64;

/// Why a mechanism-level configuration was rejected.
///
/// Carried by `ConfidenceWindow::validate`,
/// [`crate::ApproximatorConfig::validate`] and every `try_new` constructor
/// in this crate. `lva-sim`'s `ConfigError` wraps this for the
/// simulation-level config surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A [`crate::ConfidenceWindow::Relative`] fraction was NaN, negative,
    /// or infinite.
    ConfidenceWindow {
        /// The offending fraction.
        frac: f64,
    },
    /// A confidence counter width outside `2..=16` bits.
    ConfidenceBits {
        /// The offending width.
        bits: u32,
    },
    /// An approximator/predictor table size that is zero, one, or not a
    /// power of two.
    TableEntries {
        /// The offending entry count.
        entries: usize,
    },
    /// A local history buffer with zero entries.
    LhbEntries,
    /// Combined index + tag widths exceed the 64-bit context hash.
    IndexTagWidth {
        /// Index bits implied by the table size.
        index_bits: u32,
        /// Configured tag bits.
        tag_bits: u32,
    },
    /// A prefetcher table (GHB or index table) with zero entries.
    PrefetcherTable {
        /// Which table was empty: `"ghb"` or `"index"`.
        table: &'static str,
    },
    /// A cache-level predictor hierarchy depth outside `2..=4` (the
    /// predictor needs at least L1 vs. something-slower to be meaningful,
    /// and the machine model tops out at L1/L2/LLC/DRAM).
    HierarchyDepth {
        /// The offending depth.
        depth: u32,
    },
    /// A cache-level predictor slow threshold deeper than the modeled
    /// hierarchy: no prediction could ever reach it, so the hybrid screen
    /// would silently never approximate.
    SlowThreshold {
        /// The offending threshold as a hierarchy index (0 = L1 … 3 = DRAM).
        level: u32,
        /// The configured hierarchy depth.
        depth: u32,
    },
    /// A structure size above [`MAX_TABLE_ENTRIES`] or
    /// [`MAX_HISTORY_ENTRIES`].
    TooLarge {
        /// Which size knob.
        knob: &'static str,
        /// The rejected size.
        value: usize,
        /// The largest accepted size.
        max: usize,
    },
}

impl ConfigError {
    /// Rejects `value` above `max` as [`ConfigError::TooLarge`].
    pub(crate) fn at_most(knob: &'static str, value: usize, max: usize) -> Result<(), Self> {
        if value > max {
            return Err(ConfigError::TooLarge { knob, value, max });
        }
        Ok(())
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ConfidenceWindow { frac } => write!(
                f,
                "ConfidenceWindow::Relative fraction must be finite and >= 0, got {frac}; \
                 use ConfidenceWindow::Infinite for an unbounded window"
            ),
            ConfigError::ConfidenceBits { bits } => {
                write!(f, "confidence bits out of range: {bits} (need 2..=16)")
            }
            ConfigError::TableEntries { entries } => write!(
                f,
                "table entries must be a power of two >= 2, got {entries}"
            ),
            ConfigError::LhbEntries => write!(f, "LHB needs at least one entry"),
            ConfigError::IndexTagWidth {
                index_bits,
                tag_bits,
            } => write!(f, "index ({index_bits}) + tag ({tag_bits}) bits exceed 64"),
            ConfigError::PrefetcherTable { table } => {
                write!(f, "prefetcher {table} table must have entries")
            }
            ConfigError::HierarchyDepth { depth } => {
                write!(f, "hierarchy depth must be 2..=4 (L1..DRAM), got {depth}")
            }
            ConfigError::SlowThreshold { level, depth } => write!(
                f,
                "slow threshold (hierarchy index {level}) is unreachable in a \
                 depth-{depth} hierarchy"
            ),
            ConfigError::TooLarge { knob, value, max } => {
                write!(f, "{knob} = {value} exceeds the limit of {max}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_keep_the_legacy_phrases() {
        // The panicking shims unwrap these errors; tests (and downstream
        // users) match on the historical message fragments.
        assert!(ConfigError::ConfidenceWindow { frac: f64::NAN }
            .to_string()
            .contains("finite and >= 0"));
        assert!(ConfigError::ConfidenceBits { bits: 1 }
            .to_string()
            .contains("confidence bits"));
        assert!(ConfigError::TableEntries { entries: 100 }
            .to_string()
            .contains("power of two"));
        assert!(ConfigError::LhbEntries.to_string().contains("LHB"));
    }
}
