//! Unified construction of miss-handling mechanisms.
//!
//! The phase-1 harness and the phase-2 full-system model used to each
//! hand-roll the `MechanismKind` → mechanism-instance match; this module is
//! now the single place a [`MechanismKind`] becomes a live mechanism, and
//! the single place its configuration errors surface as
//! [`ConfigError`](crate::ConfigError) values instead of panics.

use lva_core::{
    CacheLevel, ConfidenceWindow, GhbPrefetcher, IdealizedLvp, LevelPredictor,
    LoadValueApproximator, Pc, RealisticLvp,
};

use crate::config::{ConfigError, MechanismKind};

/// One runtime-tunable setting of a live [`Mechanism`] — the typed
/// actuation surface the supervisory governor drives. A `Knob` carries
/// both the setting and its new value.
///
/// Not every knob applies to every mechanism: setting the approximation
/// degree on a plain `Clp` mechanism is an explicit no-op
/// (`Ok(false)` from [`Mechanism::set`]), not an error — the governor
/// drives one knob schedule against whatever mechanism the config chose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Knob {
    /// The approximator's confidence window (±W% relaxed match, §IV-C).
    ConfidenceWindow(ConfidenceWindow),
    /// The approximation degree: skipped training fetches per fetch (§IV-E).
    Degree(u32),
    /// Per-PC enable: `false` sends this PC's misses down the precise path.
    PcEnable {
        /// The load instruction being enabled or disabled.
        pc: Pc,
        /// Whether its misses may consult the approximator.
        enabled: bool,
    },
    /// The cache-level predictor's slow threshold in hybrid mode: misses
    /// predicted at or deeper than this level go to the approximator.
    ClpSlowThreshold(CacheLevel),
}

impl Knob {
    /// A short stable name for traces and reports (`"window"`,
    /// `"degree"`, `"pc_enable"`, `"clp_slow_threshold"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Knob::ConfidenceWindow(_) => "window",
            Knob::Degree(_) => "degree",
            Knob::PcEnable { .. } => "pc_enable",
            Knob::ClpSlowThreshold(_) => "clp_slow_threshold",
        }
    }

    /// The knob's value flattened to an `f64` for traces and metrics:
    /// the window fraction (`Exact` = 0, `Infinite` = +inf), the degree,
    /// the enable flag (0/1), or the hierarchy index.
    #[must_use]
    pub(crate) fn value_f64(&self) -> f64 {
        match self {
            Knob::ConfidenceWindow(ConfidenceWindow::Exact) => 0.0,
            Knob::ConfidenceWindow(ConfidenceWindow::Relative(f)) => *f,
            Knob::ConfidenceWindow(ConfidenceWindow::Infinite) => f64::INFINITY,
            Knob::Degree(d) => f64::from(*d),
            Knob::PcEnable { enabled, .. } => f64::from(u8::from(*enabled)),
            Knob::ClpSlowThreshold(level) => f64::from(level.index()),
        }
    }
}

/// One per-thread miss-handling mechanism instance.
// Variant sizes differ (the hybrid carries both tables), but a mechanism
// is built once per thread and then only borrowed — boxing would buy
// nothing and cost a pointer chase on every miss.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Mechanism {
    /// Conventional precise execution.
    Precise,
    /// The load value approximator (§III).
    Lva(LoadValueApproximator),
    /// The idealized LVP baseline (§VI).
    Lvp(IdealizedLvp),
    /// The realistic LVP (§II).
    RealisticLvp(RealisticLvp),
    /// The GHB prefetcher baseline (§VI-D).
    Prefetch(GhbPrefetcher),
    /// The per-PC cache-level predictor (arXiv 2103.14808).
    Clp(LevelPredictor),
    /// The LVA + CLP hybrid: the predictor screens misses for the
    /// approximator.
    LvaClp(LoadValueApproximator, LevelPredictor),
}

impl Mechanism {
    /// Instantiates the mechanism a [`MechanismKind`] describes — the one
    /// constructor both the phase-1 harness and the phase-2 full-system
    /// model call, after
    /// [`SimConfig::validate`](crate::SimConfig::validate) has checked the
    /// whole configuration. Adding a mechanism family means one
    /// [`MechanismKind`] variant, one [`Mechanism`] variant, and one arm
    /// here; every embedder picks it up from here.
    ///
    /// ```
    /// use lva_sim::{Mechanism, SimConfig};
    ///
    /// let config = SimConfig::lva_clp(
    ///     lva_core::ApproximatorConfig::baseline(),
    ///     lva_core::ClpConfig::baseline(),
    /// );
    /// config.validate()?;
    /// let hybrid = Mechanism::from_kind(&config.mechanism)?;
    /// assert!(matches!(hybrid, Mechanism::LvaClp(..)));
    /// # Ok::<(), lva_sim::ConfigError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Core`] if the mechanism configuration is
    /// malformed (bad table geometry, confidence widths, empty prefetcher
    /// tables, …).
    pub fn from_kind(kind: &MechanismKind) -> Result<Self, ConfigError> {
        Ok(match kind {
            MechanismKind::Precise => Mechanism::Precise,
            MechanismKind::Lva(a) => Mechanism::Lva(LoadValueApproximator::try_new(a.clone())?),
            MechanismKind::Lvp(c) => Mechanism::Lvp(IdealizedLvp::try_new(c.clone())?),
            MechanismKind::RealisticLvp(c) => {
                Mechanism::RealisticLvp(RealisticLvp::try_new(c.clone())?)
            }
            MechanismKind::Prefetch(c) => Mechanism::Prefetch(GhbPrefetcher::try_new(*c)?),
            MechanismKind::Clp(c) => Mechanism::Clp(LevelPredictor::try_new(*c)?),
            MechanismKind::LvaClp(a, c) => Mechanism::LvaClp(
                LoadValueApproximator::try_new(a.clone())?,
                LevelPredictor::try_new(*c)?,
            ),
        })
    }

    /// The live approximator, when this mechanism carries one.
    pub(crate) fn approximator_mut(&mut self) -> Option<&mut LoadValueApproximator> {
        match self {
            Mechanism::Lva(a) | Mechanism::LvaClp(a, _) => Some(a),
            _ => None,
        }
    }

    pub(crate) fn approximator(&self) -> Option<&LoadValueApproximator> {
        match self {
            Mechanism::Lva(a) | Mechanism::LvaClp(a, _) => Some(a),
            _ => None,
        }
    }

    /// The live level predictor, when this mechanism carries one.
    pub(crate) fn predictor_mut(&mut self) -> Option<&mut LevelPredictor> {
        match self {
            Mechanism::Clp(p) | Mechanism::LvaClp(_, p) => Some(p),
            _ => None,
        }
    }

    pub(crate) fn predictor(&self) -> Option<&LevelPredictor> {
        match self {
            Mechanism::Clp(p) | Mechanism::LvaClp(_, p) => Some(p),
            _ => None,
        }
    }

    /// Applies one [`Knob`] to this live mechanism.
    ///
    /// Returns `Ok(true)` when the knob was applied, `Ok(false)` when the
    /// knob does not exist on this mechanism (a precise core has no
    /// confidence window — the actuation is a no-op, never a panic).
    /// Window, degree and per-PC enable live on the approximator; the slow
    /// threshold lives on the level predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Core`] when the value itself is invalid
    /// (NaN window fraction, slow threshold outside the hierarchy); the
    /// mechanism keeps its previous setting.
    pub fn set(&mut self, knob: &Knob) -> Result<bool, ConfigError> {
        match knob {
            Knob::ConfidenceWindow(window) => match self.approximator_mut() {
                Some(a) => {
                    a.set_confidence_window(*window)?;
                    Ok(true)
                }
                None => Ok(false),
            },
            Knob::Degree(degree) => match self.approximator_mut() {
                Some(a) => {
                    a.set_degree(*degree);
                    Ok(true)
                }
                None => Ok(false),
            },
            Knob::PcEnable { pc, enabled } => match self.approximator_mut() {
                Some(a) => {
                    a.set_pc_enabled(*pc, *enabled);
                    Ok(true)
                }
                None => Ok(false),
            },
            Knob::ClpSlowThreshold(level) => match self.predictor_mut() {
                Some(p) => {
                    p.set_slow_threshold(*level)?;
                    Ok(true)
                }
                None => Ok(false),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::{
        ApproximatorConfig, ClpConfig, LvpConfig, PrefetcherConfig, RealisticLvpConfig,
    };

    #[test]
    fn every_kind_constructs() {
        for kind in [
            MechanismKind::Precise,
            MechanismKind::Lva(ApproximatorConfig::baseline()),
            MechanismKind::Lvp(LvpConfig::baseline()),
            MechanismKind::RealisticLvp(RealisticLvpConfig::conventional()),
            MechanismKind::Prefetch(PrefetcherConfig::paper(4)),
            MechanismKind::Clp(ClpConfig::baseline()),
            MechanismKind::LvaClp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
        ] {
            assert!(Mechanism::from_kind(&kind).is_ok(), "{}", kind.label());
        }
    }

    #[test]
    fn bad_clp_geometry_surfaces_as_core_error() {
        let kind = MechanismKind::Clp(ClpConfig {
            hierarchy_depth: 7,
            ..ClpConfig::baseline()
        });
        let err = Mechanism::from_kind(&kind).unwrap_err();
        assert_eq!(
            err,
            ConfigError::Core(lva_core::ConfigError::HierarchyDepth { depth: 7 })
        );
    }

    #[test]
    fn bad_geometry_surfaces_as_core_error() {
        let kind = MechanismKind::Lva(ApproximatorConfig {
            table_entries: 3,
            ..ApproximatorConfig::baseline()
        });
        let err = Mechanism::from_kind(&kind).unwrap_err();
        assert_eq!(
            err,
            ConfigError::Core(lva_core::ConfigError::TableEntries { entries: 3 })
        );
    }
}
