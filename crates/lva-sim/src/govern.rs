//! The quality governor: the one closed loop over approximation quality.
//!
//! The paper's confidence window (§III-B) bounds the error of each load,
//! but nothing bounds the error a PC builds up over a run, and until now
//! every run pinned the mechanisms' quality/efficiency knobs — the
//! confidence window (§IV-C), the approximation degree (§IV-E), per-PC
//! enables, and the hybrid's CLP slow threshold — statically from
//! [`SimConfig`](crate::SimConfig). This module closes that loop. Each
//! thread (phase 1) or L1 (full system) may own a [`Governor`] with two
//! layers, each switched on by its half of [`GovernorConfig`]:
//!
//! * the **epoch SLO ladder** ([`GovernorConfig::slo_error`]) watches the
//!   relative-error stream on training drains plus an estimated
//!   energy-delay product (EDP, via `lva-energy`) each epoch, and retunes
//!   the live mechanism through the typed [`Knob`] seam to hold an
//!   output-quality SLO at minimum estimated EDP;
//! * the **per-PC budget ladder** ([`GovernorConfig::error_budget`])
//!   walks a static load whose error EWMA blows the budget down a quality
//!   ladder on every miss, between epochs.
//!
//! Both layers read one per-PC table, updated by one
//! [`observe`](Governor::observe) per training drain: one clamped sample,
//! one map lookup.
//!
//! The epoch ladder is an explicit state/event table with hysteresis (the
//! supervisory-control idiom of AXES, arXiv 2011.08353):
//!
//! | state × event    | `Over` (err > SLO)      | `Clean`            | `Insufficient` |
//! |------------------|-------------------------|--------------------|----------------|
//! | `Warmup`         | tighten → `Backoff`     | → `Steady`         | stay           |
//! | `Steady`         | tighten → `Backoff`     | streak++; probe up after `hysteresis_epochs` → `Probe` | stay |
//! | `Probe`          | revert → `Backoff`      | commit if EDP holds, else revert | stay |
//! | `Backoff`        | tighten → `Backoff`     | drain → `Steady`   | stay           |
//!
//! "Tighten" walks one rung down an aggressiveness ladder built from the
//! *configured* knob values (floor = exact window, degree 0; top = the
//! configured settings — the governor never exceeds what the config asked
//! for). At the floor, persistent violations disable the worst-offending
//! PC by its error EWMA, through the same `Knob` seam.
//!
//! The per-PC ladder is the same idiom, one row per PC state. A verdict
//! needs `min_samples` error samples since the PC's last transition, and
//! each downward transition restarts the PC's budget EWMA at the budget
//! line:
//!
//! | PC state   | a miss                                  | EWMA over budget | EWMA within budget |
//! |------------|-----------------------------------------|------------------|--------------------|
//! | `Healthy`  | approximate normally                    | → `Demoted`      | stay               |
//! | `Demoted`  | approximate, forced fetch ([`MissPolicy::ForceFetch`]) | → `Disabled` | → `Healthy` |
//! | `Disabled` | denied; once probation is served, re-probe → `Demoted` | —  | —                  |
//!
//! Probation starts at 64 denied misses and doubles on each repeat
//! offence (exponential backoff, capped at 2^6×).
//!
//! Both layers are invisible until they act: a governor that never
//! actuates a knob and never demotes a PC leaves the run's statistics
//! fingerprint and metrics manifest byte-identical to a governor-off run
//! (asserted by the conformance battery and the determinism suite).
//!
//! The governor keeps no counters of its own: every epoch, actuation,
//! demotion and denial lands in the embedder's [`ThreadStats`], and the
//! end-of-run [`GovernorReport`] carries only the ladders' end state.

use lva_core::{CacheLevel, ConfidenceWindow, MissPolicy, Pc};
use lva_energy::{EnergyEvents, EnergyParams};
use lva_obs::{Histogram, TraceCtx, TraceEvent, TraceEventKind, TraceSink};
use std::collections::HashMap;

use crate::config::ConfigError;
use crate::mechanism::{Knob, Mechanism};
use crate::stats::ThreadStats;

/// Relative errors are folded into log2 histograms in parts-per-million,
/// mirroring the per-PC attribution pipeline in `lva-obs`.
const PPM: f64 = 1e6;

/// EWMA weight of the newest error sample in both per-PC averages: smooth
/// enough that one epoch of noise does not demote or disable a PC.
const DEFAULT_EWMA_WEIGHT: f64 = 0.125;

/// Base probation length, in denied misses, for a freshly disabled PC.
const PROBATION_MISSES: u64 = 64;

/// Probation doubles per repeat offence up to this exponent.
const MAX_BACKOFF_EXP: u32 = 6;

/// Clamps one relative-error sample before it enters an error average. A
/// corrupted table can produce absurd (or non-finite) relative errors; one
/// such sample should demote or tighten, not poison the average forever.
#[inline]
fn clamp_sample(err: f64) -> f64 {
    const CEILING: f64 = 1e3;
    if err.is_finite() {
        err.min(CEILING)
    } else {
        CEILING
    }
}

/// Configuration of the quality governor: which layers run, and their
/// shared knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Epoch SLO layer: the per-epoch mean relative error the governor
    /// holds the mechanism under (e.g. `0.02`). `None` switches the epoch
    /// ladder off, and with it the epoch clock. When set, finite and > 0.
    pub slo_error: Option<f64>,
    /// Per-PC budget layer: a PC whose error EWMA exceeds this fraction is
    /// demoted (e.g. `0.05` for 5%). `None` switches the per-PC ladder
    /// off. When set, finite and > 0.
    pub error_budget: Option<f64>,
    /// Epoch length on the embedder's clock — loads per thread in the
    /// phase-1 harness, cycles per L1 in the full-system model. Must be
    /// > 0.
    pub epoch_len: u64,
    /// Tolerated relative EDP regression when committing an upward probe:
    /// a relaxed rung is kept only while `edp <= prev_edp * (1 + weight)`.
    /// Must be finite and >= 0; `0.0` demands monotone EDP improvement.
    pub energy_weight: f64,
    /// Consecutive clean epochs required before probing one rung up, and
    /// the cooldown served after a tighten or revert. Must be >= 1.
    pub hysteresis_epochs: u32,
    /// Error samples required before a verdict: in an epoch before its
    /// mean is trusted (epochs with fewer are `Insufficient` and change
    /// nothing), on a PC before the epoch ladder may disable it, and on a
    /// PC since its last budget-ladder transition before the next one.
    /// Must be > 0.
    pub min_samples: u64,
}

impl GovernorConfig {
    /// The default knobs, with both layers off.
    pub(crate) const OFF: GovernorConfig = GovernorConfig {
        slo_error: None,
        error_budget: None,
        epoch_len: 1000,
        energy_weight: 0.10,
        hysteresis_epochs: 2,
        min_samples: 16,
    };

    /// A governor holding the given SLO with the default epoch length,
    /// EDP tolerance and hysteresis.
    #[must_use]
    pub fn slo(slo_error: f64) -> Self {
        GovernorConfig {
            slo_error: Some(slo_error),
            ..Self::OFF
        }
    }

    /// A governor enforcing the given per-PC relative-error budget with
    /// the default knobs, and no epoch SLO.
    #[must_use]
    pub fn budget(error_budget: f64) -> Self {
        GovernorConfig {
            error_budget: Some(error_budget),
            ..Self::OFF
        }
    }

    /// `self`, with any layer it leaves off kept from `prev` — how an
    /// explicit governor composes with an earlier error budget or SLO.
    pub(crate) fn over(self, prev: Option<GovernorConfig>) -> Self {
        let prev = prev.unwrap_or(self);
        GovernorConfig {
            slo_error: self.slo_error.or(prev.slo_error),
            error_budget: self.error_budget.or(prev.error_budget),
            ..self
        }
    }

    /// The epoch clock's period: `epoch_len` with the SLO layer on,
    /// `u64::MAX` (never) without it.
    pub(crate) fn epoch_period(&self) -> u64 {
        self.slo_error.map_or(u64::MAX, |_| self.epoch_len)
    }

    /// Validates every knob of the governor itself.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::GovernorKnob`] naming the offending field. A
    /// governor with neither layer has nothing to do and is reported
    /// against `slo_error`, with a NaN value.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.slo_error.is_none() && self.error_budget.is_none() {
            return Err(ConfigError::GovernorKnob {
                knob: "slo_error",
                value: f64::NAN,
            });
        }
        for (knob, layer) in [
            ("slo_error", self.slo_error),
            ("error_budget", self.error_budget),
        ] {
            if let Some(value) = layer.filter(|v| !v.is_finite() || *v <= 0.0) {
                return Err(ConfigError::GovernorKnob { knob, value });
            }
        }
        if self.epoch_len == 0 {
            return Err(ConfigError::GovernorKnob {
                knob: "epoch_len",
                value: 0.0,
            });
        }
        if !self.energy_weight.is_finite() || self.energy_weight < 0.0 {
            return Err(ConfigError::GovernorKnob {
                knob: "energy_weight",
                value: self.energy_weight,
            });
        }
        if self.hysteresis_epochs == 0 {
            return Err(ConfigError::GovernorKnob {
                knob: "hysteresis_epochs",
                value: 0.0,
            });
        }
        if self.min_samples == 0 {
            return Err(ConfigError::GovernorKnob {
                knob: "min_samples",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// One rung of the aggressiveness ladder: a complete knob setting.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rung {
    window: ConfidenceWindow,
    degree: u32,
    clp_slow: Option<CacheLevel>,
}

/// What an epoch evaluation concluded (at most one ladder transition per
/// epoch — that is the hysteresis discipline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EpochOutcome {
    /// No transition: clean, insufficient samples, or cooling down.
    Quiet,
    /// Tightened one rung.
    Tighten,
    /// Probed one rung up.
    Relax,
    /// Reverted a probe.
    Revert,
    /// Disabled a PC at the floor.
    PcDisable,
}

/// The result of one [`Governor::epoch`] evaluation: the knobs to set on
/// the live mechanism, and the transition that moved them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EpochDecision {
    /// Knob movements to apply, in order. Empty on quiet epochs.
    pub(crate) knobs: Vec<Knob>,
    /// The (single) transition this epoch took.
    pub(crate) outcome: EpochOutcome,
}

impl EpochDecision {
    fn quiet() -> Self {
        EpochDecision {
            knobs: Vec::new(),
            outcome: EpochOutcome::Quiet,
        }
    }
}

/// Governor state (see the module-level state/event table).
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// No trusted epoch observed yet.
    Warmup,
    /// Holding a rung; counting clean epochs toward a probe.
    Steady { clean_streak: u32 },
    /// One rung above the last known-good setting, on trial.
    Probe { from: usize, prev_edp: Option<f64> },
    /// Cooling down after a tighten or revert.
    Backoff { left: u32 },
}

/// What one epoch's observations amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Mean error over the SLO (with enough samples).
    Over,
    /// Mean error within the SLO (with enough samples).
    Clean,
    /// Too few samples to judge.
    Insufficient,
}

/// Where a PC currently sits on the per-PC budget ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QualityState {
    /// Approximation proceeds untouched.
    Healthy,
    /// Approximating, but every miss is forced to fetch.
    Demoted,
    /// Approximation denied until the probation counter drains.
    Disabled {
        /// Denied misses remaining before re-probation.
        probation_left: u64,
    },
}

impl QualityState {
    /// Short label for reports and manifests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QualityState::Healthy => "healthy",
            QualityState::Demoted => "demoted",
            QualityState::Disabled { .. } => "disabled",
        }
    }
}

/// One PC's line in the table both ladders read.
#[derive(Debug, Clone)]
struct PcQuality {
    /// Training drains that carried an error sample.
    trainings: u64,
    /// Error EWMA over every sample, never reset: the epoch ladder's
    /// worst-PC attribution.
    ewma: f64,
    /// Switched off by the epoch ladder at its floor.
    slo_disabled: bool,
    /// Budget-ladder state.
    state: QualityState,
    /// Error EWMA the budget ladder judges, restarted at the budget line
    /// on each downward transition.
    budget_ewma: f64,
    /// Samples observed since the last budget-ladder transition.
    samples: u64,
    backoff_exp: u32,
    demotions: u64,
    disables: u64,
    err_hist: Histogram,
}

impl PcQuality {
    fn new() -> Self {
        PcQuality {
            trainings: 0,
            ewma: 0.0,
            slo_disabled: false,
            state: QualityState::Healthy,
            budget_ewma: 0.0,
            samples: 0,
            backoff_exp: 0,
            demotions: 0,
            disables: 0,
            err_hist: Histogram::default(),
        }
    }
}

/// One PC's line of a [`GovernorReport`]: its budget-ladder verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PcDegradeEntry {
    /// The static load PC.
    pub pc: Pc,
    /// Final budget-ladder state at end of run.
    pub state: QualityState,
    /// Final budget-ladder error EWMA.
    pub ewma: f64,
    /// Training drains observed for this PC.
    pub trainings: u64,
    /// Healthy→Demoted (and re-probation) transitions.
    pub demotions: u64,
    /// Demoted→Disabled transitions.
    pub disables: u64,
    /// Median observed relative error, in parts per million.
    pub err_p50_ppm: u64,
    /// 95th-percentile observed relative error, in parts per million.
    pub err_p95_ppm: u64,
}

/// Snapshot of the cumulative counters an epoch's EDP estimate diffs
/// against: the loads, their latency, and the energy proxy of
/// [`ThreadStats::energy_events`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EdpWindow {
    loads: u64,
    load_latency_cycles: u64,
    events: EnergyEvents,
}

impl EdpWindow {
    fn of(t: &ThreadStats) -> Self {
        EdpWindow {
            loads: t.loads,
            load_latency_cycles: t.load_latency_cycles,
            events: t.energy_events(),
        }
    }

    /// Per-load estimated EDP over the window `prev..self`, or `None`
    /// when no loads retired.
    fn edp_since(&self, prev: &EdpWindow, params: &EnergyParams) -> Option<f64> {
        let loads = self.loads - prev.loads;
        if loads == 0 {
            return None;
        }
        let (now, was) = (&self.events, &prev.events);
        let ev = EnergyEvents {
            l1_accesses: now.l1_accesses - was.l1_accesses,
            l2_accesses: now.l2_accesses - was.l2_accesses,
            dram_accesses: now.dram_accesses - was.dram_accesses,
            noc_flit_hops: now.noc_flit_hops - was.noc_flit_hops,
            noc_low_power_flit_hops: now.noc_low_power_flit_hops - was.noc_low_power_flit_hops,
            approximator_accesses: now.approximator_accesses - was.approximator_accesses,
        };
        let avg_latency =
            (self.load_latency_cycles - prev.load_latency_cycles) as f64 / loads as f64;
        Some(params.total_nj(&ev) / loads as f64 * avg_latency)
    }
}

/// End-of-run state of one governor — both ladders — for
/// [`crate::RunArtifacts`], [`crate::FullSystemStats`] and the CLI. Its
/// epoch and actuation counters are the `govern_*` fields of the same
/// thread's (or L1's) [`ThreadStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorReport {
    /// Final ladder rung (0 = floor).
    pub level: usize,
    /// Total rungs on the ladder (0 for an inert governor).
    pub levels: usize,
    /// Final confidence window.
    pub window: ConfidenceWindow,
    /// Final approximation degree.
    pub degree: u32,
    /// Final CLP slow threshold, when the mechanism carries a predictor.
    pub clp_slow: Option<CacheLevel>,
    /// PCs the governor disabled, sorted.
    pub disabled_pcs: Vec<Pc>,
    /// Estimated per-load EDP of the last judged epoch, if any.
    pub last_edp: Option<f64>,
    /// Mean observed training error over the whole run (clamped samples),
    /// `None` when no error feedback arrived. This is the governor's own
    /// quality signal — a quiet observer governor exposes it for offline
    /// reference points without perturbing the run.
    pub mean_error: Option<f64>,
    /// The budget ladder's per-PC lines, sorted by PC: one per PC it ever
    /// observed or acted on. Empty with the budget layer off.
    pub entries: Vec<PcDegradeEntry>,
}

/// One thread's (or one L1's) quality governor. See the module docs for
/// the control law of each layer.
#[derive(Debug, Clone)]
pub(crate) struct Governor {
    cfg: GovernorConfig,
    /// The per-PC table both ladders read.
    pcs: HashMap<Pc, PcQuality>,
    params: EnergyParams,
    rungs: Vec<Rung>,
    /// Current rung index (meaningless when `rungs` is empty).
    level: usize,
    state: State,
    /// Error accumulator for the current epoch.
    err_sum: f64,
    err_count: u64,
    /// Lifetime error accumulator (never reset; feeds the report's
    /// [`GovernorReport::mean_error`]).
    life_err_sum: f64,
    life_err_count: u64,
    prev: EdpWindow,
    last_edp: Option<f64>,
}

impl Governor {
    /// Builds a governor for a live mechanism, reading the configured knob
    /// values off it as the epoch ladder's top rung. Mechanisms without an
    /// approximator (precise, LVP, prefetch, plain CLP) have no error
    /// stream to govern: the governor is inert (it counts epochs but never
    /// actuates). The configuration is assumed validated (see
    /// [`crate::SimConfig::validate`]).
    #[must_use]
    pub(crate) fn new(cfg: GovernorConfig, mechanism: &Mechanism) -> Self {
        let approx = mechanism
            .approximator()
            .map(|a| (a.config().confidence_window, a.config().degree));
        // A plain CLP predictor has no approximator, so no ladder at all.
        let clp = mechanism
            .predictor()
            .map(|p| (p.config().slow_threshold, p.config().hierarchy_depth));
        let rungs = build_rungs(approx, clp);
        let level = rungs.len().saturating_sub(1);
        Governor {
            cfg,
            pcs: HashMap::new(),
            params: EnergyParams::cacti_32nm(),
            rungs,
            level,
            state: State::Warmup,
            err_sum: 0.0,
            err_count: 0,
            life_err_sum: 0.0,
            life_err_count: 0,
            prev: EdpWindow::default(),
            last_edp: None,
        }
    }

    /// The configuration this governor was built with.
    #[must_use]
    pub(crate) fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// The per-PC budget ladder's verdict on a miss at `pc`, consulted
    /// *before* the approximator: the policy to approximate under, or
    /// `None` to deny approximation (a conventional miss). Always
    /// [`MissPolicy::Normal`] with the budget layer off. Counters for
    /// denials and forced fetches land in `stats`; a
    /// [`TraceEventKind::Reprobe`] event marks each expired probation.
    pub(crate) fn decide(
        &mut self,
        pc: Pc,
        stats: &mut ThreadStats,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) -> Option<MissPolicy> {
        let Some(budget) = self.cfg.error_budget else {
            return Some(MissPolicy::Normal);
        };
        let q = self.pcs.entry(pc).or_insert_with(PcQuality::new);
        match &mut q.state {
            QualityState::Healthy => Some(MissPolicy::Normal),
            QualityState::Demoted => {
                stats.degrade_forced += 1;
                Some(MissPolicy::ForceFetch)
            }
            QualityState::Disabled { probation_left } => {
                if *probation_left == 0 {
                    // Probation served: re-probe under forced fetches, with
                    // the EWMA reset to the budget line so the verdict rests
                    // on post-probation behaviour alone.
                    q.state = QualityState::Demoted;
                    q.samples = 0;
                    q.budget_ewma = budget;
                    stats.reprobations += 1;
                    stats.degrade_forced += 1;
                    if sink.enabled() {
                        sink.record(TraceEvent::at(ctx, TraceEventKind::Reprobe { pc: pc.0 }));
                    }
                    Some(MissPolicy::ForceFetch)
                } else {
                    *probation_left -= 1;
                    stats.degrade_denied += 1;
                    None
                }
            }
        }
    }

    /// Feeds one training drain's relative-error feedback (from
    /// [`lva_core::LoadValueApproximator::train`]) into the epoch
    /// accumulator and the PC's line of the table, then steps the budget
    /// ladder, emitting a [`TraceEventKind::Demote`] event on each
    /// downward transition. `rel_err` is `None` when the drain carried no
    /// approximation (a fallthrough fill), which trains the mechanism but
    /// says nothing about its quality.
    pub(crate) fn observe(
        &mut self,
        pc: Pc,
        rel_err: Option<f64>,
        stats: &mut ThreadStats,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) {
        let Some(err) = rel_err else { return };
        let err = clamp_sample(err);
        self.err_sum += err;
        self.err_count += 1;
        self.life_err_sum += err;
        self.life_err_count += 1;
        let q = self.pcs.entry(pc).or_insert_with(PcQuality::new);
        q.trainings += 1;
        let first = q.trainings == 1;
        q.ewma = if first {
            err
        } else {
            q.ewma + DEFAULT_EWMA_WEIGHT * (err - q.ewma)
        };
        let Some(budget) = self.cfg.error_budget else {
            return;
        };
        q.err_hist.record((err * PPM).min(u64::MAX as f64) as u64);
        q.budget_ewma = if first {
            err
        } else {
            q.budget_ewma + DEFAULT_EWMA_WEIGHT * (err - q.budget_ewma)
        };
        q.samples += 1;
        if q.samples < self.cfg.min_samples {
            return;
        }
        let over = q.budget_ewma > budget;
        match q.state {
            QualityState::Healthy if over => {
                // Each downward transition restarts the EWMA at the budget
                // line: the verdict on the next rung rests on fresh samples,
                // while the backoff exponent carries the memory of repeat
                // offences.
                q.state = QualityState::Demoted;
                q.samples = 0;
                q.budget_ewma = budget;
                q.demotions += 1;
                stats.demotions += 1;
                if sink.enabled() {
                    sink.record(TraceEvent::at(
                        ctx,
                        TraceEventKind::Demote {
                            pc: pc.0,
                            disabled: false,
                        },
                    ));
                }
            }
            QualityState::Demoted if over => {
                let exp = q.backoff_exp.min(MAX_BACKOFF_EXP);
                q.state = QualityState::Disabled {
                    probation_left: PROBATION_MISSES << exp,
                };
                q.backoff_exp = q.backoff_exp.saturating_add(1).min(MAX_BACKOFF_EXP);
                q.samples = 0;
                q.budget_ewma = budget;
                q.disables += 1;
                stats.disables += 1;
                if sink.enabled() {
                    sink.record(TraceEvent::at(
                        ctx,
                        TraceEventKind::Demote {
                            pc: pc.0,
                            disabled: true,
                        },
                    ));
                }
            }
            QualityState::Demoted => {
                // Errors back under budget: promote, but remember the
                // offence (the backoff exponent is not reset).
                q.state = QualityState::Healthy;
                q.samples = 0;
                stats.recoveries += 1;
            }
            _ => {}
        }
    }

    /// Budget-ladder state of `pc`, if the table has a line for it.
    #[cfg(test)]
    pub(crate) fn state_of(&self, pc: Pc) -> Option<QualityState> {
        self.pcs.get(&pc).map(|q| q.state)
    }

    /// Evaluates one epoch against the cumulative thread counters and
    /// returns the knob movements to apply. The embedder calls this on its
    /// epoch clock, sets each knob through the `Knob` seam, and counts the
    /// outcome into [`ThreadStats`] (see
    /// `MissPipeline::on_epoch`). With the SLO layer off the epoch clock
    /// never fires, and a stray call is quiet.
    pub(crate) fn epoch(&mut self, cumulative: &ThreadStats) -> EpochDecision {
        let Some(slo) = self.cfg.slo_error else {
            return EpochDecision::quiet();
        };
        let window = EdpWindow::of(cumulative);
        let edp = window.edp_since(&self.prev, &self.params);
        self.prev = window;
        let event = if self.err_count < self.cfg.min_samples {
            Event::Insufficient
        } else if self.err_sum / self.err_count as f64 > slo {
            Event::Over
        } else {
            Event::Clean
        };
        self.err_sum = 0.0;
        self.err_count = 0;
        if edp.is_some() && event != Event::Insufficient {
            self.last_edp = edp;
        }
        if self.rungs.is_empty() {
            return EpochDecision::quiet();
        }
        self.step(event, edp)
    }

    /// The state/event table (module docs). Exactly one transition per
    /// epoch.
    fn step(&mut self, event: Event, edp: Option<f64>) -> EpochDecision {
        match (self.state, event) {
            (_, Event::Insufficient) => EpochDecision::quiet(),
            (State::Warmup, Event::Clean) => {
                self.state = State::Steady { clean_streak: 1 };
                EpochDecision::quiet()
            }
            (State::Warmup | State::Steady { .. }, Event::Over) => self.tighten(),
            (State::Steady { clean_streak }, Event::Clean) => {
                let streak = clean_streak + 1;
                if streak > self.cfg.hysteresis_epochs && self.level + 1 < self.rungs.len() {
                    let from = self.level;
                    let knobs = self.move_to(self.level + 1);
                    self.state = State::Probe {
                        from,
                        prev_edp: edp,
                    };
                    EpochDecision {
                        knobs,
                        outcome: EpochOutcome::Relax,
                    }
                } else {
                    self.state = State::Steady {
                        clean_streak: streak.min(self.cfg.hysteresis_epochs + 1),
                    };
                    EpochDecision::quiet()
                }
            }
            (State::Probe { from, .. }, Event::Over) => self.revert(from),
            (State::Probe { from, prev_edp }, Event::Clean) => {
                let holds = match (edp, prev_edp) {
                    (Some(now), Some(before)) => now <= before * (1.0 + self.cfg.energy_weight),
                    // Without two comparable estimates the SLO verdict
                    // stands alone: a clean probe commits.
                    _ => true,
                };
                if holds {
                    self.state = State::Steady { clean_streak: 0 };
                    EpochDecision::quiet()
                } else {
                    self.revert(from)
                }
            }
            (State::Backoff { .. }, Event::Over) => self.tighten(),
            (State::Backoff { left }, Event::Clean) => {
                self.state = if left <= 1 {
                    State::Steady { clean_streak: 0 }
                } else {
                    State::Backoff { left: left - 1 }
                };
                EpochDecision::quiet()
            }
        }
    }

    /// Over-SLO response: one rung down, or a PC disable at the floor.
    fn tighten(&mut self) -> EpochDecision {
        self.state = State::Backoff {
            left: self.cfg.hysteresis_epochs,
        };
        if self.level > 0 {
            let knobs = self.move_to(self.level - 1);
            EpochDecision {
                knobs,
                outcome: EpochOutcome::Tighten,
            }
        } else {
            match self.worst_pc() {
                Some(pc) => {
                    self.pcs
                        .get_mut(&pc)
                        .expect("candidate exists")
                        .slo_disabled = true;
                    EpochDecision {
                        knobs: vec![Knob::PcEnable { pc, enabled: false }],
                        outcome: EpochOutcome::PcDisable,
                    }
                }
                None => EpochDecision::quiet(),
            }
        }
    }

    fn revert(&mut self, from: usize) -> EpochDecision {
        let knobs = self.move_to(from);
        self.state = State::Backoff {
            left: self.cfg.hysteresis_epochs,
        };
        EpochDecision {
            knobs,
            outcome: EpochOutcome::Revert,
        }
    }

    /// Moves to rung `to` and returns the knobs that changed.
    fn move_to(&mut self, to: usize) -> Vec<Knob> {
        let from = self.rungs[self.level];
        let target = self.rungs[to];
        self.level = to;
        let mut out = Vec::new();
        if target.window != from.window {
            out.push(Knob::ConfidenceWindow(target.window));
        }
        if target.degree != from.degree {
            out.push(Knob::Degree(target.degree));
        }
        if let (Some(t), Some(f)) = (target.clp_slow, from.clp_slow) {
            if t != f {
                out.push(Knob::ClpSlowThreshold(t));
            }
        }
        out
    }

    /// The enabled PC with the worst error EWMA (enough trainings, over
    /// the SLO); ties break toward the lowest PC for determinism.
    fn worst_pc(&self) -> Option<Pc> {
        let slo = self.cfg.slo_error?;
        self.pcs
            .iter()
            .filter(|(_, e)| !e.slo_disabled && e.trainings >= self.cfg.min_samples && e.ewma > slo)
            .map(|(pc, e)| (*pc, e.ewma))
            .max_by(|(pa, ea), (pb, eb)| {
                ea.partial_cmp(eb)
                    .expect("EWMAs are clamped finite")
                    .then(pb.0.cmp(&pa.0))
            })
            .map(|(pc, _)| pc)
    }

    /// End-of-run state of both ladders, sorted by PC for stable output.
    #[must_use]
    pub(crate) fn report(&self) -> GovernorReport {
        let rung = self.rungs.get(self.level).copied().unwrap_or(Rung {
            window: ConfidenceWindow::Exact,
            degree: 0,
            clp_slow: None,
        });
        let mut disabled_pcs: Vec<Pc> = self
            .pcs
            .iter()
            .filter(|(_, e)| e.slo_disabled)
            .map(|(pc, _)| *pc)
            .collect();
        disabled_pcs.sort_unstable();
        let mut entries: Vec<PcDegradeEntry> = match self.cfg.error_budget {
            None => Vec::new(),
            Some(_) => self
                .pcs
                .iter()
                .map(|(pc, q)| PcDegradeEntry {
                    pc: *pc,
                    state: q.state,
                    ewma: q.budget_ewma,
                    trainings: q.trainings,
                    demotions: q.demotions,
                    disables: q.disables,
                    err_p50_ppm: q.err_hist.p50(),
                    err_p95_ppm: q.err_hist.p95(),
                })
                .collect(),
        };
        entries.sort_unstable_by_key(|e| e.pc.0);
        GovernorReport {
            level: self.level,
            levels: self.rungs.len(),
            window: rung.window,
            degree: rung.degree,
            clp_slow: rung.clp_slow,
            disabled_pcs,
            last_edp: self.last_edp,
            mean_error: (self.life_err_count > 0)
                .then(|| self.life_err_sum / self.life_err_count as f64),
            entries,
        }
    }
}

/// Builds the aggressiveness ladder, floor first, configured setting last.
fn build_rungs(
    approx: Option<(ConfidenceWindow, u32)>,
    clp: Option<(CacheLevel, u32)>,
) -> Vec<Rung> {
    let Some((window, degree)) = approx else {
        return Vec::new();
    };
    let windows: Vec<ConfidenceWindow> = match window {
        ConfidenceWindow::Exact => vec![ConfidenceWindow::Exact],
        ConfidenceWindow::Relative(f) if f <= 0.0 => vec![ConfidenceWindow::Relative(f)],
        ConfidenceWindow::Relative(f) => vec![
            ConfidenceWindow::Exact,
            ConfidenceWindow::Relative(f / 4.0),
            ConfidenceWindow::Relative(f / 2.0),
            ConfidenceWindow::Relative(f),
        ],
        ConfidenceWindow::Infinite => vec![
            ConfidenceWindow::Exact,
            ConfidenceWindow::Relative(0.05),
            ConfidenceWindow::Relative(0.10),
            ConfidenceWindow::Infinite,
        ],
    };
    let degrees: Vec<u32> = if degree == 0 {
        vec![0]
    } else {
        let mut d = vec![0];
        if degree > 1 {
            d.push(degree.div_ceil(2));
        }
        d.push(degree);
        d
    };
    let top_window = *windows.last().expect("window schedule is nonempty");
    let mut settings: Vec<(ConfidenceWindow, u32)> = windows.into_iter().map(|w| (w, 0)).collect();
    for d in degrees.into_iter().skip(1) {
        settings.push((top_window, d));
    }
    settings.dedup();
    let n = settings.len();
    settings
        .into_iter()
        .enumerate()
        .map(|(i, (w, d))| Rung {
            window: w,
            degree: d,
            // The CLP screen loosens with the ladder: the top rung uses
            // the configured slow threshold, and each rung below deepens
            // it one level (down to only approximating misses bound for
            // the deepest level). `i` counts from the floor.
            clp_slow: clp.map(|(cfg_level, depth)| {
                let floor_idx = depth.saturating_sub(1);
                let below_top = (n - 1 - i) as u32;
                CacheLevel::from_index(floor_idx.min(cfg_level.index().saturating_add(below_top)))
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::ApproximatorConfig;
    use lva_obs::NullSink;

    /// An LVA mechanism with the given window and degree.
    fn lva(window: f64, degree: u32) -> Mechanism {
        Mechanism::from_kind(&crate::config::MechanismKind::Lva(ApproximatorConfig {
            confidence_window: ConfidenceWindow::Relative(window),
            degree,
            ..ApproximatorConfig::baseline()
        }))
        .unwrap()
    }

    fn governor(slo: f64) -> Governor {
        let cfg = GovernorConfig {
            min_samples: 4,
            hysteresis_epochs: 2,
            ..GovernorConfig::slo(slo)
        };
        Governor::new(cfg, &lva(0.10, 4))
    }

    fn observe(g: &mut Governor, pc: Pc, err: Option<f64>) {
        let mut stats = ThreadStats::default();
        g.observe(pc, err, &mut stats, &mut NullSink, TraceCtx::new(0, 0));
    }

    /// Feeds `n` samples of error `err` and closes the epoch.
    fn run_epoch(g: &mut Governor, err: f64, n: u64) -> EpochDecision {
        for i in 0..n {
            observe(g, Pc(i % 3), Some(err));
        }
        g.epoch(&ThreadStats::default())
    }

    #[test]
    fn ladder_tops_out_at_the_configured_setting() {
        let g = governor(0.02);
        let top = *g.rungs.last().unwrap();
        assert_eq!(top.window, ConfidenceWindow::Relative(0.10));
        assert_eq!(top.degree, 4);
        assert_eq!(g.level, g.rungs.len() - 1, "starts at the configured rung");
        assert_eq!(g.rungs[0].window, ConfidenceWindow::Exact);
        assert_eq!(g.rungs[0].degree, 0, "floor is the most conservative");
    }

    #[test]
    fn clp_screen_loosens_with_the_ladder() {
        let hybrid = crate::config::MechanismKind::LvaClp(
            ApproximatorConfig::baseline(),
            lva_core::ClpConfig::baseline(),
        );
        let g = Governor::new(
            GovernorConfig::slo(0.02),
            &Mechanism::from_kind(&hybrid).unwrap(),
        );
        assert_eq!(g.rungs[0].clp_slow, Some(CacheLevel::Dram));
        assert_eq!(g.rungs.last().unwrap().clp_slow, Some(CacheLevel::Llc));
    }

    #[test]
    fn mechanisms_without_an_approximator_are_inert() {
        let mut g = Governor::new(GovernorConfig::slo(0.02), &Mechanism::Precise);
        assert!(g.rungs.is_empty());
        let d = run_epoch(&mut g, 10.0, 100);
        assert_eq!(d, EpochDecision::quiet());
        assert_eq!(g.report().levels, 0);
    }

    #[test]
    fn over_slo_tightens_one_rung_with_hysteresis() {
        let mut g = governor(0.02);
        let top = g.level;
        let d = run_epoch(&mut g, 0.5, 10);
        assert_eq!(d.outcome, EpochOutcome::Tighten);
        assert_eq!(g.level, top - 1);
        assert!(
            d.knobs.iter().any(|k| matches!(k, Knob::Degree(_))),
            "leaving the top rung must lower the degree: {d:?}"
        );
        // Clean epochs during backoff do not immediately probe back up.
        let d = run_epoch(&mut g, 0.0, 10);
        assert_eq!(d.outcome, EpochOutcome::Quiet);
        assert_eq!(g.level, top - 1);
    }

    #[test]
    fn clean_streak_probes_up_and_over_reverts() {
        let mut g = governor(0.02);
        // Drive two rungs down.
        run_epoch(&mut g, 0.5, 10);
        run_epoch(&mut g, 0.5, 10);
        let low = g.level;
        // Serve backoff, then build the streak: eventually a probe fires.
        let mut probed_at = None;
        for i in 0..10 {
            let d = run_epoch(&mut g, 0.0, 10);
            if d.outcome == EpochOutcome::Relax {
                probed_at = Some(i);
                break;
            }
        }
        assert!(probed_at.is_some(), "clean epochs must eventually probe up");
        assert_eq!(g.level, low + 1);
        // The probe fails: revert to the known-good rung.
        let d = run_epoch(&mut g, 0.5, 10);
        assert_eq!(d.outcome, EpochOutcome::Revert);
        assert_eq!(g.level, low);
    }

    #[test]
    fn floor_violations_disable_the_worst_pc() {
        let mut g = governor(0.02);
        // Hammer the governor to the floor.
        while g.level > 0 {
            run_epoch(&mut g, 0.9, 10);
        }
        // At the floor: the next violation names the worst PC. Pc(0) gets
        // the dirtiest stream.
        for _ in 0..20 {
            observe(&mut g, Pc(0), Some(0.9));
            observe(&mut g, Pc(1), Some(0.1));
        }
        let d = g.epoch(&ThreadStats::default());
        assert_eq!(d.outcome, EpochOutcome::PcDisable);
        assert_eq!(
            d.knobs,
            vec![Knob::PcEnable {
                pc: Pc(0),
                enabled: false
            }]
        );
        assert_eq!(g.report().disabled_pcs, vec![Pc(0)]);
    }

    #[test]
    fn quiet_governor_emits_nothing() {
        let mut g = governor(0.10);
        for _ in 0..50 {
            let d = run_epoch(&mut g, 0.01, 10);
            assert_eq!(d.knobs, vec![], "in-SLO runs at the top rung");
        }
        let r = g.report();
        assert_eq!(r.level, r.levels - 1);
    }

    #[test]
    fn insufficient_samples_change_nothing() {
        let mut g = governor(0.02);
        let top = g.level;
        for _ in 0..10 {
            let d = run_epoch(&mut g, 0.9, 2); // below min_samples = 4
            assert_eq!(d, EpochDecision::quiet());
        }
        assert_eq!(g.level, top);
    }

    #[test]
    fn non_finite_errors_are_clamped() {
        let mut g = governor(0.02);
        for _ in 0..10 {
            observe(&mut g, Pc(1), Some(f64::NAN));
            observe(&mut g, Pc(1), Some(f64::INFINITY));
        }
        let d = g.epoch(&ThreadStats::default());
        assert_eq!(d.outcome, EpochOutcome::Tighten);
    }

    #[test]
    fn fallthrough_feedback_is_ignored() {
        let mut g = governor(0.02);
        for _ in 0..100 {
            observe(&mut g, Pc(1), None);
        }
        assert_eq!(g.epoch(&ThreadStats::default()), EpochDecision::quiet());
    }

    #[test]
    fn edp_regression_reverts_a_probe() {
        let cfg = GovernorConfig {
            min_samples: 1,
            hysteresis_epochs: 1,
            energy_weight: 0.0,
            ..GovernorConfig::slo(0.10)
        };
        let mut g = Governor::new(cfg, &lva(0.10, 0));
        // Every epoch retires fresh loads so an EDP estimate exists.
        let mut cum = ThreadStats::default();
        let tick = |g: &mut Governor, cum: &mut ThreadStats, fetches: u64, lat: u64, err: f64| {
            cum.loads += 100;
            cum.load_fetches += fetches;
            cum.load_latency_cycles += lat;
            observe(g, Pc(1), Some(err));
            g.epoch(cum)
        };
        // Tighten once so there is room to probe back up.
        assert_eq!(
            tick(&mut g, &mut cum, 0, 100, 0.9).outcome,
            EpochOutcome::Tighten
        );
        let low = g.level;
        // Cheap, clean epochs: backoff drains, the streak builds, a probe
        // fires with the cheap epoch's EDP as the baseline.
        assert_eq!(
            tick(&mut g, &mut cum, 0, 100, 0.0).outcome,
            EpochOutcome::Quiet
        );
        assert_eq!(
            tick(&mut g, &mut cum, 0, 100, 0.0).outcome,
            EpochOutcome::Quiet
        );
        assert_eq!(
            tick(&mut g, &mut cum, 0, 100, 0.0).outcome,
            EpochOutcome::Relax
        );
        // The probed epoch is clean but much more expensive: fetches and
        // latency exploded, so the EDP check fails and the probe reverts.
        let d = tick(&mut g, &mut cum, 100, 10_000, 0.0);
        assert_eq!(d.outcome, EpochOutcome::Revert);
        assert_eq!(g.level, low);
    }

    #[test]
    fn validate_names_each_bad_knob() {
        assert!(GovernorConfig::slo(0.02).validate().is_ok());
        let bad = [
            (
                GovernorConfig {
                    slo_error: Some(-1.0),
                    ..GovernorConfig::slo(0.02)
                },
                "slo_error",
            ),
            (GovernorConfig::budget(f64::NAN), "error_budget"),
            (
                GovernorConfig {
                    error_budget: Some(0.0),
                    ..GovernorConfig::slo(0.02)
                },
                "error_budget",
            ),
            (
                GovernorConfig {
                    slo_error: None,
                    ..GovernorConfig::slo(0.02)
                },
                "slo_error",
            ),
            (
                GovernorConfig {
                    epoch_len: 0,
                    ..GovernorConfig::slo(0.02)
                },
                "epoch_len",
            ),
            (
                GovernorConfig {
                    energy_weight: f64::NAN,
                    ..GovernorConfig::slo(0.02)
                },
                "energy_weight",
            ),
            (
                GovernorConfig {
                    hysteresis_epochs: 0,
                    ..GovernorConfig::slo(0.02)
                },
                "hysteresis_epochs",
            ),
            (
                GovernorConfig {
                    min_samples: 0,
                    ..GovernorConfig::slo(0.02)
                },
                "min_samples",
            ),
        ];
        for (cfg, want) in bad {
            match cfg.validate().unwrap_err() {
                ConfigError::GovernorKnob { knob, .. } => assert_eq!(knob, want),
                other => panic!("wrong error for {want}: {other}"),
            }
        }
    }

    // ----- the per-PC budget ladder -----

    /// A budget-only governor with a short warm-up.
    fn budget(error_budget: f64) -> Governor {
        let cfg = GovernorConfig {
            min_samples: 4,
            ..GovernorConfig::budget(error_budget)
        };
        Governor::new(cfg, &lva(0.10, 4))
    }

    fn decide(g: &mut Governor, pc: Pc, stats: &mut ThreadStats) -> Option<MissPolicy> {
        g.decide(pc, stats, &mut NullSink, TraceCtx::new(0, 0))
    }

    fn observe_into(g: &mut Governor, pc: Pc, err: Option<f64>, stats: &mut ThreadStats) {
        g.observe(pc, err, stats, &mut NullSink, TraceCtx::new(0, 0));
    }

    #[test]
    fn healthy_pcs_are_untouched() {
        let mut g = budget(0.05);
        let mut stats = ThreadStats::default();
        for _ in 0..100 {
            assert_eq!(decide(&mut g, Pc(1), &mut stats), Some(MissPolicy::Normal));
            observe_into(&mut g, Pc(1), Some(0.01), &mut stats);
        }
        assert_eq!(stats, ThreadStats::default(), "no budget counter moved");
        assert_eq!(g.state_of(Pc(1)), Some(QualityState::Healthy));
    }

    #[test]
    fn budget_violation_walks_the_ladder() {
        let mut g = budget(0.05);
        let mut stats = ThreadStats::default();
        // Persistently terrible errors: Healthy -> Demoted -> Disabled.
        for _ in 0..4 {
            observe_into(&mut g, Pc(1), Some(0.5), &mut stats);
        }
        assert_eq!(g.state_of(Pc(1)), Some(QualityState::Demoted));
        assert_eq!(stats.demotions, 1);
        assert_eq!(
            decide(&mut g, Pc(1), &mut stats),
            Some(MissPolicy::ForceFetch)
        );
        for _ in 0..4 {
            observe_into(&mut g, Pc(1), Some(0.5), &mut stats);
        }
        assert!(matches!(
            g.state_of(Pc(1)),
            Some(QualityState::Disabled { .. })
        ));
        assert_eq!(stats.disables, 1);
        // While disabled, misses are denied for the probation period...
        for _ in 0..PROBATION_MISSES {
            assert_eq!(decide(&mut g, Pc(1), &mut stats), None);
        }
        // ...then the PC re-enters Demoted on probation.
        assert_eq!(
            decide(&mut g, Pc(1), &mut stats),
            Some(MissPolicy::ForceFetch)
        );
        assert_eq!(stats.reprobations, 1);
        assert_eq!(stats.degrade_denied, PROBATION_MISSES);
        assert_eq!(stats.degrade_forced, 2);
    }

    #[test]
    fn probation_backs_off_exponentially() {
        let mut g = budget(0.05);
        let mut stats = ThreadStats::default();
        let mut deny_runs = Vec::new();
        for _ in 0..3 {
            // Drive to Disabled (4 samples demote, 4 more disable).
            while !matches!(g.state_of(Pc(1)), Some(QualityState::Disabled { .. })) {
                observe_into(&mut g, Pc(1), Some(1.0), &mut stats);
            }
            let mut denied = 0u64;
            while decide(&mut g, Pc(1), &mut stats).is_none() {
                denied += 1;
            }
            deny_runs.push(denied);
        }
        let p = PROBATION_MISSES;
        assert_eq!(deny_runs, vec![p, 2 * p, 4 * p], "probation must double");
    }

    #[test]
    fn recovery_promotes_demoted_pcs() {
        let mut g = budget(0.05);
        let mut stats = ThreadStats::default();
        for _ in 0..4 {
            observe_into(&mut g, Pc(1), Some(0.5), &mut stats);
        }
        assert_eq!(g.state_of(Pc(1)), Some(QualityState::Demoted));
        // Clean errors decay the EWMA back under budget.
        for _ in 0..64 {
            observe_into(&mut g, Pc(1), Some(0.0), &mut stats);
        }
        assert_eq!(g.state_of(Pc(1)), Some(QualityState::Healthy));
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn non_finite_samples_demote_but_do_not_poison() {
        let mut g = budget(0.05);
        let mut stats = ThreadStats::default();
        observe_into(&mut g, Pc(1), Some(f64::INFINITY), &mut stats);
        observe_into(&mut g, Pc(1), Some(f64::NAN), &mut stats);
        for _ in 0..2 {
            observe_into(&mut g, Pc(1), Some(1.0), &mut stats);
        }
        assert_eq!(g.state_of(Pc(1)), Some(QualityState::Demoted));
        // A demoted PC with clean errors can still recover: the clamp keeps
        // the EWMA finite so decay works.
        for _ in 0..200 {
            observe_into(&mut g, Pc(1), Some(0.0), &mut stats);
        }
        assert_eq!(g.state_of(Pc(1)), Some(QualityState::Healthy));
    }

    #[test]
    fn report_sorts_entries_by_pc_and_flags_offenders() {
        let mut g = budget(0.05);
        let mut stats = ThreadStats::default();
        for _ in 0..4 {
            observe_into(&mut g, Pc(9), Some(0.9), &mut stats);
            observe_into(&mut g, Pc(3), Some(0.001), &mut stats);
        }
        let report = g.report();
        assert_eq!(report.last_edp, None, "no SLO layer, no epoch judged");
        let pcs: Vec<u64> = report.entries.iter().map(|e| e.pc.0).collect();
        assert_eq!(pcs, vec![3, 9]);
        let offenders: Vec<u64> = report
            .entries
            .iter()
            .filter(|e| e.demotions > 0)
            .map(|e| e.pc.0)
            .collect();
        assert_eq!(offenders, vec![9]);
        assert!(report.entries[1].err_p95_ppm >= 800_000);
    }

    #[test]
    fn both_layers_share_one_table() {
        let cfg = GovernorConfig {
            min_samples: 4,
            error_budget: Some(0.05),
            ..GovernorConfig::slo(0.02)
        };
        let mut g = Governor::new(cfg, &lva(0.10, 4));
        let mut stats = ThreadStats::default();
        for _ in 0..4 {
            observe_into(&mut g, Pc(1), Some(0.5), &mut stats);
        }
        // The budget ladder demoted the PC and restarted its budget EWMA,
        // while the epoch ladder's attribution EWMA kept every sample.
        let q = &g.pcs[&Pc(1)];
        assert_eq!(q.state, QualityState::Demoted);
        assert_eq!((q.budget_ewma, q.ewma, q.trainings), (0.05, 0.5, 4));
        assert_eq!(
            g.epoch(&ThreadStats::default()).outcome,
            EpochOutcome::Tighten
        );
        assert_eq!(g.report().entries.len(), 1);
    }

    #[test]
    fn slo_only_governors_never_touch_the_budget_ladder() {
        let mut g = governor(0.02);
        let mut stats = ThreadStats::default();
        for _ in 0..100 {
            assert_eq!(decide(&mut g, Pc(1), &mut stats), Some(MissPolicy::Normal));
            observe_into(&mut g, Pc(1), Some(0.9), &mut stats);
        }
        assert_eq!(stats, ThreadStats::default());
        assert_eq!(g.state_of(Pc(1)), Some(QualityState::Healthy));
        assert!(g.report().entries.is_empty());
    }

    #[test]
    fn an_explicit_governor_keeps_an_earlier_layer() {
        let slo = GovernorConfig {
            epoch_len: 200,
            ..GovernorConfig::slo(0.02)
        };
        let both = slo.over(Some(GovernorConfig::budget(0.05)));
        assert_eq!(both.error_budget, Some(0.05));
        assert_eq!((both.slo_error, both.epoch_len), (Some(0.02), 200));
        assert_eq!(both.epoch_period(), 200);
        assert_eq!(GovernorConfig::budget(0.05).epoch_period(), u64::MAX);
    }
}
