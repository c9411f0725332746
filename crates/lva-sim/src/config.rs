//! Simulation configuration (Table II) and its fallible validation.
//!
//! Configurations are plain data: every field is public, and the stock
//! constructors ([`SimConfig::precise`], [`SimConfig::baseline_lva`], …)
//! fill in Table II and validate. Anything built from untrusted input
//! should call [`SimConfig::validate`] (or decode through
//! [`SimConfig::from_json`], which validates) and handle the
//! [`ConfigError`] — no validator in this crate panics on bad data.

use lva_core::{ApproximatorConfig, ClpConfig, LvpConfig, PrefetcherConfig, RealisticLvpConfig};
use lva_mem::CacheConfig;
use lva_obs::{TimelineConfig, TraceConfig};
use std::fmt;

use crate::codec::MAX_EXACT;
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
    /// An integer knob above its limit: `threads` above [`MAX_THREADS`],
    /// any integer above [`MAX_EXACT`], which a JSON number could not
    /// carry exactly, or a full system given more `cores` than its mesh
    /// has nodes.
    OutOfRange {
        /// Which knob (its field name).
        knob: &'static str,
        /// The rejected value.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
    /// The private L1 geometry cannot be built (see
    /// [`SimConfig::validate`] for the rules).
    L1Geometry(CacheConfig),
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
    /// The full-system model was given a mechanism it does not model: it
    /// replays precise and LVA runs only (§V-B).
    UnmodelledMechanism {
        /// The mechanism's name, as the config codec and the CLI spell it.
        kind: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Core(e) => e.fmt(f),
            ConfigError::ZeroThreads => write!(f, "SimConfig.threads must be at least 1"),
            ConfigError::OutOfRange { knob, value, max } => {
                write!(f, "{knob} = {value} is above its limit of {max}")
            }
            ConfigError::L1Geometry(l1) => write!(
                f,
                "L1 geometry of {} B, {}-way, {} B blocks cannot be built: it needs \
                 1..=255 ways, power-of-two blocks of {MIN_BLOCK_BYTES}..={MAX_BLOCK_BYTES} B, \
                 a power-of-two set count and at most {MAX_L1_BYTES} B",
                l1.size_bytes, l1.ways, l1.block_bytes
            ),
            ConfigError::DegreeBudgetConflict { degree } => write!(
                f,
                "error budget cannot be enforced with degree {degree} and an infinite \
                 confidence window: skipped fetches are never observed"
            ),
            ConfigError::FaultRate { knob, rate } => {
                write!(
                    f,
                    "fault rate {knob} must be a probability in [0, 1], got {rate}"
                )
            }
            ConfigError::ZeroEpoch => {
                write!(f, "timeline epoch length must be at least 1 clock unit")
            }
            ConfigError::GovernorKnob { knob, value } => {
                write!(f, "governor knob {knob} is out of range: {value}")
            }
            ConfigError::UnmodelledMechanism { kind } => write!(
                f,
                "full-system replay models the precise and lva mechanisms, not {kind}"
            ),
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

    /// Checks the mechanism's own configuration with the validators its
    /// constructors in [`crate::Mechanism::from_kind`] run first. None of
    /// them allocates, and each bounds what the constructor will.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        match self {
            MechanismKind::Precise => {}
            MechanismKind::Lva(a) => a.validate()?,
            MechanismKind::Lvp(c) => c.validate()?,
            MechanismKind::RealisticLvp(c) => c.validate()?,
            MechanismKind::Prefetch(c) => c.validate()?,
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

/// Most application threads a [`SimConfig`] may ask for (paper: 4). Each
/// thread owns an L1, an L2, an LLC and a mechanism instance.
pub const MAX_THREADS: usize = 16;

/// Largest private L1 a [`SimConfig`] may ask for: 16x the paper's 64 KB.
pub const MAX_L1_BYTES: u64 = 1 << 20;

/// Smallest and largest L1 block size a [`SimConfig`] may ask for. The
/// harness builds each thread's L2 and LLC with the same block size.
const MIN_BLOCK_BYTES: u64 = 8;
const MAX_BLOCK_BYTES: u64 = 4096;

impl SimConfig {
    /// Precise execution — the normalization baseline everywhere — with
    /// Table II defaults: value delay 4, 4 threads, 64 KB 8-way L1, all
    /// observability and robustness features off.
    #[must_use]
    pub fn precise() -> Self {
        SimConfig {
            mechanism: MechanismKind::Precise,
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

    /// Table II defaults with `mechanism`, validated.
    fn stock(mechanism: MechanismKind) -> Self {
        let config = SimConfig {
            mechanism,
            ..Self::precise()
        };
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        config
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
    /// Panics if `approximator` is malformed; build the struct and call
    /// [`SimConfig::validate`] to handle the error instead.
    #[must_use]
    pub fn lva(approximator: ApproximatorConfig) -> Self {
        Self::stock(MechanismKind::Lva(approximator))
    }

    /// Idealized LVP with a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if `lvp` is malformed; build the struct and call
    /// [`SimConfig::validate`] to handle the error instead.
    #[must_use]
    pub fn lvp(lvp: LvpConfig) -> Self {
        Self::stock(MechanismKind::Lvp(lvp))
    }

    /// A conventional realistic load value predictor.
    #[must_use]
    pub fn realistic_lvp() -> Self {
        let conventional = RealisticLvpConfig::conventional();
        Self::stock(MechanismKind::RealisticLvp(conventional))
    }

    /// GHB prefetching with the paper's tables and the given degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is above [`lva_core::MAX_HISTORY_ENTRIES`].
    #[must_use]
    pub fn prefetch(degree: u32) -> Self {
        Self::stock(MechanismKind::Prefetch(PrefetcherConfig::paper(degree)))
    }

    /// The LVA + CLP hybrid: approximate only loads the level predictor
    /// expects to be slow.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is malformed; build the struct and
    /// call [`SimConfig::validate`] to handle the error instead.
    #[must_use]
    pub fn lva_clp(approximator: ApproximatorConfig, clp: ClpConfig) -> Self {
        Self::stock(MechanismKind::LvaClp(approximator, clp))
    }

    /// Checks the configuration for nonsense before a harness is built:
    /// thread count, L1 geometry, the mechanism's own geometry, governor
    /// knobs, the degree/budget/window conflict, fault rates, and that
    /// every integer knob fits [`MAX_EXACT`]. Every valid configuration
    /// builds a harness of bounded size and round-trips exactly through
    /// [`SimConfig::to_json`].
    ///
    /// The L1 needs 1..=255 ways, a power-of-two block size in 8..=4096
    /// bytes, a non-zero power-of-two set count and at most
    /// [`MAX_L1_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found; see its variants for the
    /// individual rules.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.threads > MAX_THREADS {
            return Err(ConfigError::OutOfRange {
                knob: "threads",
                value: self.threads as u64,
                max: MAX_THREADS as u64,
            });
        }
        // The set count is computed last: the checks before it keep
        // `ways * block_bytes` non-zero and far from overflow.
        let l1 = self.l1;
        if !((1..=255).contains(&l1.ways)
            && l1.block_bytes.is_power_of_two()
            && (MIN_BLOCK_BYTES..=MAX_BLOCK_BYTES).contains(&l1.block_bytes)
            && l1.size_bytes <= MAX_L1_BYTES
            && l1.sets().is_power_of_two())
        {
            return Err(ConfigError::L1Geometry(l1));
        }
        if let Some((knob, value)) = crate::codec::inexact_knob(self) {
            return Err(ConfigError::OutOfRange {
                knob,
                value,
                max: MAX_EXACT,
            });
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
        assert!(SimConfig::baseline_lva()
            .mechanism
            .label()
            .starts_with("lva"));
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
        let cfg = SimConfig {
            mechanism: MechanismKind::Lva(ApproximatorConfig {
                table_entries: 0,
                ..ApproximatorConfig::baseline()
            }),
            ..SimConfig::precise()
        };
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::Core(lva_core::ConfigError::TableEntries { entries: 0 })
        );
    }

    #[test]
    fn validate_rejects_bad_error_budgets() {
        for bad in [f64::NAN, 0.0, -0.05, f64::INFINITY] {
            let err = SimConfig::baseline_lva()
                .with_error_budget(bad)
                .validate()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::GovernorKnob {
                        knob: "error_budget",
                        ..
                    }
                ),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn validate_rejects_degree_budget_conflict() {
        let err = SimConfig {
            mechanism: MechanismKind::Lva(ApproximatorConfig {
                degree: 4,
                confidence_window: ConfidenceWindow::Infinite,
                ..ApproximatorConfig::with_degree(4)
            }),
            ..SimConfig::precise()
        }
        .with_error_budget(0.05)
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::DegreeBudgetConflict { degree: 4 });
        assert!(err.to_string().contains("never observed"));
        // The same degree with a *finite* window is fine: every
        // approximation inside the window is eventually observed.
        SimConfig::lva(ApproximatorConfig::with_degree(4))
            .with_error_budget(0.05)
            .validate()
            .expect("finite window with degree and budget is legal");
    }

    #[test]
    fn validate_rejects_bad_fault_rates() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = SimConfig::baseline_lva()
                .with_faults(FaultConfig::seeded(1).with_drop_rate(bad))
                .validate()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::FaultRate {
                        knob: "drop_rate",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn validate_rejects_unbuildable_l1_geometry() {
        let pin = CacheConfig::pin_l1();
        for l1 in [
            CacheConfig { ways: 0, ..pin },
            CacheConfig { ways: 256, ..pin },
            CacheConfig {
                block_bytes: 48,
                ..pin
            },
            CacheConfig {
                block_bytes: 4,
                ..pin
            },
            CacheConfig {
                size_bytes: 3 * 64 * 8,
                ..pin
            },
            CacheConfig {
                size_bytes: 64,
                ..pin
            },
            CacheConfig {
                size_bytes: 4 << 20,
                ..pin
            },
            CacheConfig {
                ways: usize::MAX,
                block_bytes: 1 << 62,
                ..pin
            },
        ] {
            let cfg = SimConfig {
                l1,
                ..SimConfig::precise()
            };
            assert_eq!(cfg.validate(), Err(ConfigError::L1Geometry(l1)), "{l1:?}");
            let err = crate::SimHarness::try_new(cfg).err();
            assert_eq!(
                err,
                Some(ConfigError::L1Geometry(l1)),
                "a bad L1 is an Err, not a panic"
            );
        }
        let direct_mapped = CacheConfig { ways: 1, ..pin };
        assert_eq!(
            SimConfig {
                l1: direct_mapped,
                ..SimConfig::precise()
            }
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_caps_threads_and_inexact_integers() {
        let many = SimConfig {
            threads: MAX_THREADS + 1,
            ..SimConfig::precise()
        };
        assert!(matches!(
            many.validate(),
            Err(ConfigError::OutOfRange {
                knob: "threads",
                ..
            })
        ));
        let exact = SimConfig::precise().with_value_delay(MAX_EXACT);
        assert_eq!(exact.validate(), Ok(()));
        for cfg in [
            SimConfig::precise().with_value_delay(MAX_EXACT + 1),
            SimConfig::baseline_lva().with_faults(FaultConfig::seeded(u64::MAX)),
            SimConfig::baseline_lva().with_govern(GovernorConfig {
                epoch_len: 1 << 60,
                ..GovernorConfig::slo(0.02)
            }),
            SimConfig {
                mechanism: MechanismKind::Clp(ClpConfig::baseline()),
                ..SimConfig::precise()
            }
            .with_value_delay(1)
            .with_faults(FaultConfig {
                delay_rate: 0.5,
                delay_extra: MAX_EXACT + 7,
                ..FaultConfig::seeded(0)
            }),
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::OutOfRange { max: MAX_EXACT, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn validate_rejects_bad_governor_knobs() {
        for bad in [f64::NAN, 0.0, -0.02, f64::INFINITY] {
            let err = SimConfig::baseline_lva()
                .with_govern_slo(bad)
                .validate()
                .unwrap_err();
            // NaN never compares equal, so match on the knob name alone.
            assert!(
                matches!(
                    err,
                    ConfigError::GovernorKnob {
                        knob: "slo_error",
                        ..
                    }
                ),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("governor knob"), "{err}");
        }
        let bad = GovernorConfig {
            epoch_len: 0,
            ..GovernorConfig::slo(0.02)
        };
        let err = SimConfig::baseline_lva()
            .with_govern(bad)
            .validate()
            .unwrap_err();
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
        let err = SimConfig::precise()
            .with_timeline(TimelineConfig::every(0))
            .validate()
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
