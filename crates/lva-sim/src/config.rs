//! Simulation configuration (Table II) and its fallible validation.
//!
//! Configurations are plain data: every field is public and the stock
//! constructors ([`SimConfig::precise`], [`SimConfig::baseline_lva`], …)
//! are thin wrappers over [`SimConfigBuilder`]. Anything built from
//! untrusted input should go through the builder (or call
//! [`SimConfig::validate`]) and handle the [`ConfigError`] — no validator
//! in this crate panics on bad data.

use lva_core::{
    ApproximatorConfig, ClpConfig, GhbPrefetcher, IdealizedLvp, LvpConfig, PrefetcherConfig,
    RealisticLvp, RealisticLvpConfig,
};
use lva_mem::CacheConfig;
use lva_obs::{TimelineConfig, TraceConfig};
use std::fmt;

use crate::fault::FaultConfig;
use crate::govern::GovernorConfig;
use crate::miss::MissPipeline;

/// Why a [`SimConfig`] was rejected. Carries enough context to render an
/// actionable message; the [`fmt::Display`] output preserves the phrases
/// the pre-0.5 panicking validators used, so log-scraping keeps working.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A mechanism configuration was rejected by `lva-core`.
    Core(lva_core::ConfigError),
    /// `threads` was 0.
    ZeroThreads,
    /// An error budget was combined with a fetch-skipping degree and an
    /// infinite confidence window: skipped fetches produce no training
    /// drains, so their errors would be unbounded *and* unobservable.
    DegreeBudgetConflict {
        /// The configured approximation degree.
        degree: u32,
    },
    /// A fault-injection rate was outside `[0, 1]`.
    FaultRate {
        /// Which rate knob.
        knob: &'static str,
        /// The rejected rate.
        rate: f64,
    },
    /// The timeline epoch length was 0: an epoch must cover at least one
    /// clock unit or sampling would never advance.
    ZeroEpoch,
    /// A quality-governor knob (including its SLO or error budget) was
    /// out of its legal range.
    GovernorKnob {
        /// Which knob.
        knob: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Core(e) => e.fmt(f),
            ConfigError::ZeroThreads => write!(f, "SimConfig.threads must be at least 1"),
            ConfigError::DegreeBudgetConflict { degree } => write!(
                f,
                "error budget cannot be enforced with degree {degree} and an infinite \
                 confidence window: skipped fetches are never observed"
            ),
            ConfigError::FaultRate { knob, rate } => {
                write!(f, "fault rate {knob} must be a probability in [0, 1], got {rate}")
            }
            ConfigError::ZeroEpoch => {
                write!(f, "timeline epoch length must be at least 1 clock unit")
            }
            ConfigError::GovernorKnob { knob, value } => {
                write!(f, "governor knob {knob} is out of range: {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<lva_core::ConfigError> for ConfigError {
    fn from(e: lva_core::ConfigError) -> Self {
        ConfigError::Core(e)
    }
}

/// Which mechanism handles L1 load misses.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismKind {
    /// Conventional precise execution: every miss stalls and fetches.
    Precise,
    /// Load value approximation with the given approximator configuration.
    Lva(ApproximatorConfig),
    /// The idealized load value predictor baseline (§VI).
    Lvp(LvpConfig),
    /// A realistic load value predictor with selection, conservative
    /// confidence and rollback cost (§II) — quantifies what the
    /// idealization hides.
    RealisticLvp(RealisticLvpConfig),
    /// GHB prefetching applied to *all* data (§VI-D).
    Prefetch(PrefetcherConfig),
    /// Cache-level prediction (arXiv 2103.14808): precise values, but
    /// confident level predictions skip the serial hierarchy walk.
    Clp(ClpConfig),
    /// The LVA + CLP hybrid: the level predictor screens misses, and only
    /// loads predicted to be served at or below the configured slow
    /// threshold are handed to the approximator; fast misses stay precise
    /// and still enjoy the predictor's direct access.
    LvaClp(ApproximatorConfig, ClpConfig),
}

impl MechanismKind {
    /// Short label used in experiment output.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MechanismKind::Precise => "precise".to_owned(),
            MechanismKind::Lva(c) => format!("lva(ghb={},deg={})", c.ghb_entries, c.degree),
            MechanismKind::Lvp(c) => format!("lvp(ghb={})", c.ghb_entries),
            MechanismKind::RealisticLvp(c) => {
                format!("real-lvp(thr={})", c.prediction_threshold)
            }
            MechanismKind::Prefetch(c) => format!("prefetch(deg={})", c.degree),
            MechanismKind::Clp(c) => {
                format!("clp(tbl={},depth={})", c.table_entries, c.hierarchy_depth)
            }
            MechanismKind::LvaClp(a, c) => format!(
                "lva+clp(ghb={},deg={},tbl={},slow={})",
                a.ghb_entries,
                a.degree,
                c.table_entries,
                c.slow_threshold.label()
            ),
        }
    }

    /// Checks the mechanism's own configuration by probing the same
    /// constructor [`crate::Mechanism::from_kind`] will use.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        match self {
            MechanismKind::Precise => {}
            MechanismKind::Lva(a) => a.validate()?,
            MechanismKind::Lvp(c) => {
                IdealizedLvp::try_new(c.clone())?;
            }
            MechanismKind::RealisticLvp(c) => {
                RealisticLvp::try_new(c.clone())?;
            }
            MechanismKind::Prefetch(c) => {
                GhbPrefetcher::try_new(*c)?;
            }
            MechanismKind::Clp(c) => c.validate()?,
            MechanismKind::LvaClp(a, c) => {
                a.validate()?;
                c.validate()?;
            }
        }
        Ok(())
    }
}

/// Phase-1 (design-space exploration) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Miss-handling mechanism.
    pub mechanism: MechanismKind,
    /// Value delay in load instructions: how long after an approximated
    /// miss the actual value reaches the history buffers (§VI-C; baseline
    /// 4, Table II).
    pub value_delay: u64,
    /// Application threads, each with a private L1 and mechanism instance
    /// (paper: 4).
    pub threads: usize,
    /// Private L1 geometry (phase 1: 64 KB 8-way, §V-A).
    pub l1: CacheConfig,
    /// Record per-thread instruction traces for phase-2 replay.
    pub record_traces: bool,
    /// Per-core event tracing (off by default). Strictly write-only: any
    /// setting here leaves the statistics fingerprint untouched.
    pub trace: TraceConfig,
    /// Deterministic fault injection (off by default). Only exercised on
    /// the LVA load path.
    pub faults: Option<FaultConfig>,
    /// Per-thread epoch timeline sampling on the `load_clock` (off by
    /// default). Strictly write-only, like [`SimConfig::trace`]: the
    /// statistics fingerprint is identical with it on or off.
    pub timeline: Option<TimelineConfig>,
    /// Per-thread quality governor (off by default): its epoch layer
    /// retunes the mechanism's knobs to hold an output-quality SLO at
    /// minimum estimated EDP, and its per-PC layer demotes and disables
    /// PCs whose error EWMA blows the error budget. Only meaningful with
    /// an LVA mechanism. The one sanctioned feedback loop — but a
    /// governor that never acts leaves the statistics fingerprint
    /// byte-identical to a governor-off run.
    pub govern: Option<GovernorConfig>,
}

impl SimConfig {
    /// Starts a builder with Table II defaults and the given mechanism.
    #[must_use]
    pub fn builder(mechanism: MechanismKind) -> SimConfigBuilder {
        SimConfigBuilder::new(mechanism)
    }

    /// Precise execution — the normalization baseline everywhere.
    #[must_use]
    pub fn precise() -> Self {
        Self::builder(MechanismKind::Precise)
            .build()
            .expect("stock precise configuration is valid")
    }

    /// The paper's baseline LVA configuration (Table II).
    #[must_use]
    pub fn baseline_lva() -> Self {
        Self::lva(ApproximatorConfig::baseline())
    }

    /// LVA with a custom approximator configuration.
    ///
    /// # Panics
    ///
    /// Panics if `approximator` is malformed; use
    /// [`SimConfig::builder`] to handle the error instead.
    #[must_use]
    pub fn lva(approximator: ApproximatorConfig) -> Self {
        Self::builder(MechanismKind::Lva(approximator))
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Idealized LVP with a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if `lvp` is malformed; use [`SimConfig::builder`] to handle
    /// the error instead.
    #[must_use]
    pub fn lvp(lvp: LvpConfig) -> Self {
        Self::builder(MechanismKind::Lvp(lvp))
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// A conventional realistic load value predictor.
    #[must_use]
    pub fn realistic_lvp() -> Self {
        Self::builder(MechanismKind::RealisticLvp(RealisticLvpConfig::conventional()))
            .build()
            .expect("stock realistic-LVP configuration is valid")
    }

    /// GHB prefetching with the paper's tables and the given degree.
    #[must_use]
    pub fn prefetch(degree: u32) -> Self {
        Self::builder(MechanismKind::Prefetch(PrefetcherConfig::paper(degree)))
            .build()
            .expect("stock prefetcher configuration is valid")
    }

    /// Standalone cache-level prediction with the given predictor
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `clp` is malformed; use [`SimConfig::builder`] to handle
    /// the error instead.
    #[must_use]
    pub fn clp(clp: ClpConfig) -> Self {
        Self::builder(MechanismKind::Clp(clp))
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The LVA + CLP hybrid: approximate only loads the level predictor
    /// expects to be slow.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is malformed; use
    /// [`SimConfig::builder`] to handle the error instead.
    #[must_use]
    pub fn lva_clp(approximator: ApproximatorConfig, clp: ClpConfig) -> Self {
        Self::builder(MechanismKind::LvaClp(approximator, clp))
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checks the configuration for nonsense before a harness is built:
    /// thread count, the mechanism's own geometry, governor knobs, the
    /// degree/budget/window conflict, and fault rates.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found; see its variants for the
    /// individual rules.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        MissPipeline::validate(&self.mechanism, self.govern.as_ref())?;
        if let Some(f) = &self.faults {
            for (knob, rate) in [
                ("table_rate", f.table_rate),
                ("drop_rate", f.drop_rate),
                ("delay_rate", f.delay_rate),
            ] {
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    return Err(ConfigError::FaultRate { knob, rate });
                }
            }
        }
        if let Some(t) = &self.timeline {
            if t.epoch_len == 0 {
                return Err(ConfigError::ZeroEpoch);
            }
        }
        Ok(())
    }

    /// Same configuration with a different value delay (Fig. 7).
    #[must_use]
    pub fn with_value_delay(mut self, delay: u64) -> Self {
        self.value_delay = delay;
        self
    }

    /// Same configuration with trace recording switched on.
    #[must_use]
    pub fn with_traces(mut self) -> Self {
        self.record_traces = true;
        self
    }

    /// Same configuration with per-core event tracing attached.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Same configuration with the governor's per-PC budget ladder
    /// enforcing `error_budget` (the governor's other settings stay;
    /// default knobs if there was no governor).
    #[must_use]
    pub fn with_error_budget(mut self, error_budget: f64) -> Self {
        self.govern
            .get_or_insert(GovernorConfig::budget(error_budget))
            .error_budget = Some(error_budget);
        self
    }

    /// Same configuration with deterministic fault injection attached.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Same configuration with per-thread epoch timeline sampling on the
    /// `load_clock`.
    #[must_use]
    pub fn with_timeline(mut self, timeline: TimelineConfig) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Same configuration with a governor holding `slo_error` (default
    /// epoch/hysteresis knobs; an error budget already set stays).
    #[must_use]
    pub fn with_govern_slo(self, slo_error: f64) -> Self {
        self.with_govern(GovernorConfig::slo(slo_error))
    }

    /// Same configuration with an explicit governor. A layer `govern`
    /// leaves off keeps the setting the configuration already had.
    #[must_use]
    pub fn with_govern(mut self, govern: GovernorConfig) -> Self {
        self.govern = Some(govern.over(self.govern));
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::baseline_lva()
    }
}

/// Fallible builder for [`SimConfig`]. Starts from Table II defaults;
/// [`build`](Self::build) validates the assembled configuration and is the
/// only way out, so an invalid configuration cannot escape as a value.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    mechanism: MechanismKind,
    value_delay: u64,
    threads: usize,
    l1: CacheConfig,
    record_traces: bool,
    trace: TraceConfig,
    faults: Option<FaultConfig>,
    timeline: Option<TimelineConfig>,
    govern: Option<GovernorConfig>,
}

impl SimConfigBuilder {
    /// Table II defaults with the given mechanism: value delay 4, 4
    /// threads, 64 KB 8-way L1, all observability and robustness features
    /// off.
    #[must_use]
    pub fn new(mechanism: MechanismKind) -> Self {
        SimConfigBuilder {
            mechanism,
            value_delay: 4,
            threads: 4,
            l1: CacheConfig::pin_l1(),
            record_traces: false,
            trace: TraceConfig::off(),
            faults: None,
            timeline: None,
            govern: None,
        }
    }

    /// Replaces the mechanism.
    #[must_use]
    pub fn mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Sets the value delay (§VI-C).
    #[must_use]
    pub fn value_delay(mut self, delay: u64) -> Self {
        self.value_delay = delay;
        self
    }

    /// Sets the thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the private L1 geometry.
    #[must_use]
    pub fn l1(mut self, l1: CacheConfig) -> Self {
        self.l1 = l1;
        self
    }

    /// Enables per-thread instruction trace recording.
    #[must_use]
    pub fn record_traces(mut self, on: bool) -> Self {
        self.record_traces = on;
        self
    }

    /// Attaches per-core event tracing.
    #[must_use]
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Enables the governor's per-PC budget ladder with `error_budget`
    /// (see [`SimConfig::with_error_budget`]).
    #[must_use]
    pub fn error_budget(mut self, error_budget: f64) -> Self {
        self.govern
            .get_or_insert(GovernorConfig::budget(error_budget))
            .error_budget = Some(error_budget);
        self
    }

    /// Attaches deterministic fault injection.
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches per-thread epoch timeline sampling.
    #[must_use]
    pub fn timeline(mut self, timeline: TimelineConfig) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Attaches a governor with explicit knobs (see
    /// [`SimConfig::with_govern`]).
    #[must_use]
    pub fn govern(mut self, govern: GovernorConfig) -> Self {
        self.govern = Some(govern.over(self.govern));
        self
    }

    /// Attaches a governor holding `slo_error` with default
    /// epoch/hysteresis knobs (see [`SimConfig::with_govern_slo`]).
    #[must_use]
    pub fn govern_slo(self, slo_error: f64) -> Self {
        self.govern(GovernorConfig::slo(slo_error))
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns whatever [`SimConfig::validate`] rejects.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        let cfg = SimConfig {
            mechanism: self.mechanism,
            value_delay: self.value_delay,
            threads: self.threads,
            l1: self.l1,
            record_traces: self.record_traces,
            trace: self.trace,
            faults: self.faults,
            timeline: self.timeline,
            govern: self.govern,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::ConfidenceWindow;

    #[test]
    fn baseline_matches_table_ii() {
        let cfg = SimConfig::baseline_lva();
        assert_eq!(cfg.value_delay, 4);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.l1.size_bytes, 64 * 1024);
        assert_eq!(cfg.govern, None);
        assert_eq!(cfg.faults, None);
        match cfg.mechanism {
            MechanismKind::Lva(a) => {
                assert_eq!(a.table_entries, 512);
                assert_eq!(a.lhb_entries, 4);
                assert_eq!(a.ghb_entries, 0);
                assert_eq!(a.degree, 0);
            }
            _ => panic!("baseline must be LVA"),
        }
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(SimConfig::precise().mechanism.label(), "precise");
        assert!(SimConfig::prefetch(4).mechanism.label().contains("deg=4"));
        assert!(SimConfig::baseline_lva().mechanism.label().starts_with("lva"));
    }

    #[test]
    fn builders_modify_one_field() {
        let cfg = SimConfig::precise().with_value_delay(32).with_traces();
        assert_eq!(cfg.value_delay, 32);
        assert!(cfg.record_traces);
        assert_eq!(cfg.mechanism, MechanismKind::Precise);
    }

    #[test]
    fn validate_accepts_all_stock_configs() {
        for cfg in [
            SimConfig::precise(),
            SimConfig::baseline_lva(),
            SimConfig::lvp(LvpConfig::baseline()),
            SimConfig::realistic_lvp(),
            SimConfig::prefetch(4),
            SimConfig::baseline_lva().with_error_budget(0.05),
            SimConfig::baseline_lva().with_faults(FaultConfig::seeded(7).with_table_rate(0.01)),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_malformed_confidence_windows() {
        for bad in [f64::NAN, -0.5, f64::INFINITY] {
            let cfg = SimConfig {
                mechanism: MechanismKind::Lva(ApproximatorConfig {
                    confidence_window: ConfidenceWindow::Relative(bad),
                    ..ApproximatorConfig::baseline()
                }),
                ..SimConfig::precise()
            };
            let err = cfg.validate().unwrap_err();
            assert!(matches!(
                err,
                ConfigError::Core(lva_core::ConfigError::ConfidenceWindow { .. })
            ));
            assert!(err.to_string().contains("finite and >= 0"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_zero_threads() {
        let cfg = SimConfig {
            threads: 0,
            ..SimConfig::precise()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroThreads));
    }

    #[test]
    fn validate_rejects_zero_capacity_tables() {
        let cfg = SimConfig::builder(MechanismKind::Lva(ApproximatorConfig {
            table_entries: 0,
            ..ApproximatorConfig::baseline()
        }))
        .build();
        assert_eq!(
            cfg.unwrap_err(),
            ConfigError::Core(lva_core::ConfigError::TableEntries { entries: 0 })
        );
    }

    #[test]
    fn validate_rejects_bad_error_budgets() {
        for bad in [f64::NAN, 0.0, -0.05, f64::INFINITY] {
            let err = SimConfig::builder(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .error_budget(bad)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::GovernorKnob { knob: "error_budget", .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn validate_rejects_degree_budget_conflict() {
        let err = SimConfig::builder(MechanismKind::Lva(ApproximatorConfig {
            degree: 4,
            confidence_window: ConfidenceWindow::Infinite,
            ..ApproximatorConfig::with_degree(4)
        }))
        .error_budget(0.05)
        .build()
        .unwrap_err();
        assert_eq!(err, ConfigError::DegreeBudgetConflict { degree: 4 });
        assert!(err.to_string().contains("never observed"));
        // The same degree with a *finite* window is fine: every
        // approximation inside the window is eventually observed.
        SimConfig::builder(MechanismKind::Lva(ApproximatorConfig::with_degree(4)))
            .error_budget(0.05)
            .build()
            .expect("finite window with degree and budget is legal");
    }

    #[test]
    fn validate_rejects_bad_fault_rates() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = SimConfig::builder(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .faults(FaultConfig::seeded(1).with_drop_rate(bad))
                .build()
                .unwrap_err();
            assert!(matches!(err, ConfigError::FaultRate { knob: "drop_rate", .. }), "{err}");
        }
    }

    #[test]
    fn builder_roundtrips_every_field() {
        let cfg = SimConfig::builder(MechanismKind::Precise)
            .value_delay(9)
            .threads(2)
            .record_traces(true)
            .trace(TraceConfig::ring(64))
            .error_budget(0.1)
            .faults(FaultConfig::seeded(3))
            .timeline(TimelineConfig::every(1000))
            .govern_slo(0.02)
            .build()
            .expect("valid configuration");
        assert_eq!(cfg.value_delay, 9);
        assert_eq!(cfg.threads, 2);
        assert!(cfg.record_traces);
        assert!(cfg.trace.enabled());
        assert_eq!(cfg.faults.as_ref().map(|f| f.seed), Some(3));
        assert_eq!(cfg.timeline.as_ref().map(|t| t.epoch_len), Some(1000));
        assert_eq!(
            cfg.govern,
            Some(GovernorConfig {
                error_budget: Some(0.1),
                ..GovernorConfig::slo(0.02)
            })
        );
    }

    #[test]
    fn validate_rejects_bad_governor_knobs() {
        for bad in [f64::NAN, 0.0, -0.02, f64::INFINITY] {
            let err = SimConfig::baseline_lva().with_govern_slo(bad).validate().unwrap_err();
            // NaN never compares equal, so match on the knob name alone.
            assert!(
                matches!(err, ConfigError::GovernorKnob { knob: "slo_error", .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("governor knob"), "{err}");
        }
        let bad = GovernorConfig {
            epoch_len: 0,
            ..GovernorConfig::slo(0.02)
        };
        let err = SimConfig::baseline_lva().with_govern(bad).validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::GovernorKnob {
                knob: "epoch_len",
                value: 0.0
            }
        );
    }

    #[test]
    fn validate_rejects_zero_epoch_timelines() {
        let err = SimConfig::builder(MechanismKind::Precise)
            .timeline(TimelineConfig::every(0))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroEpoch);
        assert!(err.to_string().contains("epoch length"));
        SimConfig::precise()
            .with_timeline(TimelineConfig::every(1))
            .validate()
            .expect("one-load epochs are legal, if noisy");
    }

    #[test]
    fn event_tracing_defaults_off() {
        assert!(!SimConfig::default().trace.enabled());
        let cfg = SimConfig::precise().with_trace(TraceConfig::ring(128));
        assert!(cfg.trace.enabled());
        assert_eq!(cfg.mechanism, MechanismKind::Precise);
    }
}
