//! Per-epoch supervisory governor (closed-loop knob control).
//!
//! The mechanisms expose several quality/efficiency knobs — the confidence
//! window (§IV-C), the approximation degree (§IV-E), per-PC enables, and
//! the hybrid's CLP slow threshold — and until now every run pinned them
//! statically from [`SimConfig`](crate::SimConfig). This module closes the
//! loop: each thread (phase 1) or L1 (full system) may own a [`Governor`]
//! that watches the relative-error stream on training drains plus an
//! estimated energy-delay product (EDP, via `lva-energy`) each epoch, and
//! retunes the live mechanism through the typed
//! [`Knob`] seam to hold a configured output-quality SLO at
//! minimum estimated EDP.
//!
//! The controller is an explicit state/event table with hysteresis (the
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
//! PC (per-PC error attribution, mirroring the degrade controller's EWMA
//! idiom) — the degrade ladder's Demote/Disable recast as governor
//! actuations through the same `Knob` seam.
//!
//! Like the degrade controller, the governor is invisible until it acts: a
//! governor that never actuates a knob leaves the run's statistics
//! fingerprint and metrics manifest byte-identical to a governor-off run
//! (asserted by the conformance battery).

use lva_core::{CacheLevel, ConfidenceWindow, Pc};
use lva_energy::{EnergyEvents, EnergyParams};
use lva_obs::{TraceCtx, TraceEvent, TraceEventKind, TraceSink};
use std::collections::HashMap;

use crate::config::ConfigError;
use crate::degrade::{clamp_sample, DEFAULT_EWMA_WEIGHT};
use crate::mechanism::{Knob, Mechanism};
use crate::stats::ThreadStats;

/// Configuration of the supervisory governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Output-quality SLO: the per-epoch mean relative error the governor
    /// holds the mechanism under. Must be finite and > 0 (e.g. `0.02`).
    pub slo_error: f64,
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
    /// Error samples required in an epoch before its mean is trusted
    /// (epochs with fewer are `Insufficient` and change nothing), and the
    /// per-PC training count required before a PC may be disabled.
    pub min_samples: u64,
}

impl GovernorConfig {
    /// A governor holding the given SLO with the default epoch length,
    /// EDP tolerance and hysteresis.
    #[must_use]
    pub fn slo(slo_error: f64) -> Self {
        GovernorConfig {
            slo_error,
            epoch_len: 1000,
            energy_weight: 0.10,
            hysteresis_epochs: 2,
            min_samples: 16,
        }
    }

    /// Validates every knob of the governor itself.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::GovernorKnob`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.slo_error.is_finite() || self.slo_error <= 0.0 {
            return Err(ConfigError::GovernorKnob {
                knob: "slo_error",
                value: self.slo_error,
            });
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

/// Why the governor moved a knob — carried next to the [`Knob`] so traces
/// and reports can attribute each actuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationReason {
    /// Walked one rung down: the epoch mean error exceeded the SLO.
    Tighten,
    /// Probed one rung up after a clean hysteresis streak.
    Relax,
    /// Reverted a probe (over-SLO or no EDP win at the relaxed rung).
    Revert,
    /// Disabled a worst-offending PC at the ladder floor.
    PcQuality,
}

/// One knob movement the embedder must apply to the live mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Actuation {
    /// The knob and its new value.
    pub knob: Knob,
    /// Why the governor moved it.
    pub reason: ActuationReason,
}

/// What an epoch evaluation concluded (at most one ladder transition per
/// epoch — that is the hysteresis discipline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcome {
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

/// The result of one [`Governor::epoch`] evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDecision {
    /// Knob movements to apply, in order. Empty on quiet epochs.
    pub actuations: Vec<Actuation>,
    /// The (single) transition this epoch took.
    pub outcome: EpochOutcome,
}

impl EpochDecision {
    fn quiet() -> Self {
        EpochDecision {
            actuations: Vec::new(),
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

/// Per-PC error attribution (the degrade controller's EWMA idiom).
#[derive(Debug, Clone)]
struct PcErr {
    ewma: f64,
    trainings: u64,
    disabled: bool,
}

/// Counters the embedder already folded into [`ThreadStats`], kept here
/// too so end-of-run reports are self-contained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    epochs: u64,
    actuations: u64,
    tightens: u64,
    relaxes: u64,
    reverts: u64,
    pc_disables: u64,
}

/// Snapshot of the cumulative counters an epoch's EDP estimate diffs
/// against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EdpWindow {
    loads: u64,
    stores: u64,
    load_fetches: u64,
    store_fetches: u64,
    approximations: u64,
    load_latency_cycles: u64,
}

impl EdpWindow {
    fn of(t: &ThreadStats) -> Self {
        EdpWindow {
            loads: t.loads,
            stores: t.stores,
            load_fetches: t.load_fetches,
            store_fetches: t.store_fetches,
            approximations: t.approximations,
            load_latency_cycles: t.load_latency_cycles,
        }
    }

    /// Per-load estimated EDP over the window `prev..self`, or `None`
    /// when no loads retired.
    fn edp_since(&self, prev: &EdpWindow, params: &EnergyParams) -> Option<f64> {
        let loads = self.loads - prev.loads;
        if loads == 0 {
            return None;
        }
        let ev = EnergyEvents {
            l1_accesses: loads + (self.stores - prev.stores),
            l2_accesses: (self.load_fetches - prev.load_fetches)
                + (self.store_fetches - prev.store_fetches),
            dram_accesses: 0,
            noc_flit_hops: 0,
            noc_low_power_flit_hops: 0,
            approximator_accesses: self.approximations - prev.approximations,
        };
        let avg_latency =
            (self.load_latency_cycles - prev.load_latency_cycles) as f64 / loads as f64;
        Some(params.total_nj(&ev) / loads as f64 * avg_latency)
    }
}

/// End-of-run summary of one governor, for [`crate::RunArtifacts`] and
/// the CLI summary table.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorReport {
    /// Epochs evaluated.
    pub epochs: u64,
    /// Knob movements emitted.
    pub actuations: u64,
    /// Downward rung transitions.
    pub tightens: u64,
    /// Upward probes.
    pub relaxes: u64,
    /// Reverted probes.
    pub reverts: u64,
    /// PCs disabled at the floor.
    pub pc_disables: u64,
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
}

/// One thread's (or one L1's) supervisory governor. See the module docs
/// for the control law.
#[derive(Debug, Clone)]
pub struct Governor {
    cfg: GovernorConfig,
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
    pcs: HashMap<Pc, PcErr>,
    prev: EdpWindow,
    last_edp: Option<f64>,
    tally: Tally,
}

impl Governor {
    /// Builds a governor for a live mechanism, reading the configured knob
    /// values off it as the ladder's top rung. Mechanisms without an
    /// approximator (precise, LVP, prefetch, plain CLP) have no error
    /// stream to govern: the governor is inert (it counts epochs but never
    /// actuates).
    #[must_use]
    pub fn new(cfg: GovernorConfig, mechanism: &Mechanism) -> Self {
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
            params: EnergyParams::cacti_32nm(),
            rungs,
            level,
            state: State::Warmup,
            err_sum: 0.0,
            err_count: 0,
            life_err_sum: 0.0,
            life_err_count: 0,
            pcs: HashMap::new(),
            prev: EdpWindow::default(),
            last_edp: None,
            tally: Tally::default(),
        }
    }

    /// The configuration this governor was built with.
    #[must_use]
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Feeds one training drain's relative-error feedback into the epoch
    /// accumulator and the per-PC attribution. `rel_err` is `None` for
    /// fallthrough fills (trained, nothing approximated), which say
    /// nothing about quality and are ignored — same contract as
    /// [`DegradeController::observe_traced`](crate::DegradeController::observe_traced).
    pub fn observe(&mut self, pc: Pc, rel_err: Option<f64>) {
        let Some(err) = rel_err else { return };
        let err = clamp_sample(err);
        self.err_sum += err;
        self.err_count += 1;
        self.life_err_sum += err;
        self.life_err_count += 1;
        let e = self.pcs.entry(pc).or_insert(PcErr {
            ewma: 0.0,
            trainings: 0,
            disabled: false,
        });
        e.trainings += 1;
        e.ewma = if e.trainings == 1 {
            err
        } else {
            e.ewma + DEFAULT_EWMA_WEIGHT * (err - e.ewma)
        };
    }

    /// Evaluates one epoch against the cumulative thread counters and
    /// returns the knob movements to apply. The embedder calls this on its
    /// epoch clock, applies each actuation through the `Knob` seam, and
    /// folds the outcome into [`ThreadStats`] (see
    /// [`apply_decision`]).
    pub fn epoch(&mut self, cumulative: &ThreadStats) -> EpochDecision {
        self.tally.epochs += 1;
        let window = EdpWindow::of(cumulative);
        let edp = window.edp_since(&self.prev, &self.params);
        self.prev = window;
        let event = if self.err_count < self.cfg.min_samples {
            Event::Insufficient
        } else if self.err_sum / self.err_count as f64 > self.cfg.slo_error {
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
        let decision = self.step(event, edp);
        self.tally.actuations += decision.actuations.len() as u64;
        match decision.outcome {
            EpochOutcome::Tighten => self.tally.tightens += 1,
            EpochOutcome::Relax => self.tally.relaxes += 1,
            EpochOutcome::Revert => self.tally.reverts += 1,
            EpochOutcome::PcDisable => self.tally.pc_disables += 1,
            EpochOutcome::Quiet => {}
        }
        decision
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
                    let actuations = self.move_to(self.level + 1, ActuationReason::Relax);
                    self.state = State::Probe {
                        from,
                        prev_edp: edp,
                    };
                    EpochDecision {
                        actuations,
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
                    (Some(now), Some(before)) => {
                        now <= before * (1.0 + self.cfg.energy_weight)
                    }
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
            let actuations = self.move_to(self.level - 1, ActuationReason::Tighten);
            EpochDecision {
                actuations,
                outcome: EpochOutcome::Tighten,
            }
        } else {
            match self.worst_pc() {
                Some(pc) => {
                    self.pcs.get_mut(&pc).expect("candidate exists").disabled = true;
                    EpochDecision {
                        actuations: vec![Actuation {
                            knob: Knob::PcEnable { pc, enabled: false },
                            reason: ActuationReason::PcQuality,
                        }],
                        outcome: EpochOutcome::PcDisable,
                    }
                }
                None => EpochDecision::quiet(),
            }
        }
    }

    fn revert(&mut self, from: usize) -> EpochDecision {
        let actuations = self.move_to(from, ActuationReason::Revert);
        self.state = State::Backoff {
            left: self.cfg.hysteresis_epochs,
        };
        EpochDecision {
            actuations,
            outcome: EpochOutcome::Revert,
        }
    }

    /// Moves to rung `to` and returns the knobs that changed.
    fn move_to(&mut self, to: usize, reason: ActuationReason) -> Vec<Actuation> {
        let from = self.rungs[self.level];
        let target = self.rungs[to];
        self.level = to;
        let mut out = Vec::new();
        if target.window != from.window {
            out.push(Actuation {
                knob: Knob::ConfidenceWindow(target.window),
                reason,
            });
        }
        if target.degree != from.degree {
            out.push(Actuation {
                knob: Knob::Degree(target.degree),
                reason,
            });
        }
        if let (Some(t), Some(f)) = (target.clp_slow, from.clp_slow) {
            if t != f {
                out.push(Actuation {
                    knob: Knob::ClpSlowThreshold(t),
                    reason,
                });
            }
        }
        out
    }

    /// The enabled PC with the worst error EWMA (enough trainings, over
    /// the SLO); ties break toward the lowest PC for determinism.
    fn worst_pc(&self) -> Option<Pc> {
        self.pcs
            .iter()
            .filter(|(_, e)| {
                !e.disabled && e.trainings >= self.cfg.min_samples && e.ewma > self.cfg.slo_error
            })
            .map(|(pc, e)| (*pc, e.ewma))
            .max_by(|(pa, ea), (pb, eb)| {
                ea.partial_cmp(eb)
                    .expect("EWMAs are clamped finite")
                    .then(pb.0.cmp(&pa.0))
            })
            .map(|(pc, _)| pc)
    }

    /// End-of-run summary (sorted, stable).
    #[must_use]
    pub fn report(&self) -> GovernorReport {
        let rung = self.rungs.get(self.level).copied().unwrap_or(Rung {
            window: ConfidenceWindow::Exact,
            degree: 0,
            clp_slow: None,
        });
        let mut disabled_pcs: Vec<Pc> = self
            .pcs
            .iter()
            .filter(|(_, e)| e.disabled)
            .map(|(pc, _)| *pc)
            .collect();
        disabled_pcs.sort_unstable();
        GovernorReport {
            epochs: self.tally.epochs,
            actuations: self.tally.actuations,
            tightens: self.tally.tightens,
            relaxes: self.tally.relaxes,
            reverts: self.tally.reverts,
            pc_disables: self.tally.pc_disables,
            level: self.level,
            levels: self.rungs.len(),
            window: rung.window,
            degree: rung.degree,
            clp_slow: rung.clp_slow,
            disabled_pcs,
            last_edp: self.last_edp,
            mean_error: (self.life_err_count > 0)
                .then(|| self.life_err_sum / self.life_err_count as f64),
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
    let mut settings: Vec<(ConfidenceWindow, u32)> =
        windows.into_iter().map(|w| (w, 0)).collect();
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
                CacheLevel::from_index(
                    floor_idx.min(cfg_level.index().saturating_add(below_top)),
                )
            }),
        })
        .collect()
}

/// Applies one epoch's decision to a live [`Mechanism`]: moves each knob,
/// folds the outcome counters into `stats`, and emits one
/// [`TraceEventKind::Actuate`] event per applied knob — the actuation half
/// of the governor loop, shared by the phase-1 harness and the full-system
/// model. A knob the mechanism lacks is a counted-nothing no-op.
pub fn apply_decision(
    decision: &EpochDecision,
    mechanism: &mut Mechanism,
    stats: &mut ThreadStats,
    sink: &mut dyn TraceSink,
    ctx: TraceCtx,
) {
    stats.govern_epochs += 1;
    match decision.outcome {
        EpochOutcome::Tighten => stats.govern_tightens += 1,
        EpochOutcome::Relax => stats.govern_relaxes += 1,
        EpochOutcome::Revert => stats.govern_reverts += 1,
        EpochOutcome::PcDisable => stats.govern_disables += 1,
        EpochOutcome::Quiet => {}
    }
    for a in &decision.actuations {
        // Ladder values come from the mechanism's own validated config, so
        // a set can only be a no-op (Ok(false)), never an error.
        if mechanism.set(&a.knob) == Ok(true) {
            stats.govern_actuations += 1;
            if sink.enabled() {
                sink.record(TraceEvent::at(
                    ctx,
                    TraceEventKind::Actuate {
                        knob: a.knob.name(),
                        value: a.knob.value_f64(),
                        pc: match a.knob {
                            Knob::PcEnable { pc, .. } => Some(pc.0),
                            _ => None,
                        },
                    },
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::KnobKind;
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

    /// Feeds `n` samples of error `err` and closes the epoch.
    fn run_epoch(g: &mut Governor, err: f64, n: u64) -> EpochDecision {
        for i in 0..n {
            g.observe(Pc(i % 3), Some(err));
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
            d.actuations.iter().any(|a| matches!(a.knob, Knob::Degree(_))),
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
            g.observe(Pc(0), Some(0.9));
            g.observe(Pc(1), Some(0.1));
        }
        let d = g.epoch(&ThreadStats::default());
        assert_eq!(d.outcome, EpochOutcome::PcDisable);
        assert_eq!(
            d.actuations,
            vec![Actuation {
                knob: Knob::PcEnable {
                    pc: Pc(0),
                    enabled: false
                },
                reason: ActuationReason::PcQuality,
            }]
        );
        assert_eq!(g.report().disabled_pcs, vec![Pc(0)]);
    }

    #[test]
    fn quiet_governor_emits_nothing() {
        let mut g = governor(0.10);
        for _ in 0..50 {
            let d = run_epoch(&mut g, 0.01, 10);
            assert_eq!(d.actuations, vec![], "in-SLO runs at the top rung");
        }
        let r = g.report();
        assert_eq!(r.actuations, 0);
        assert_eq!(r.epochs, 50);
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
    fn apply_decision_moves_the_mechanism_and_counts() {
        let mut g = governor(0.02);
        let mut mech = lva(0.10, 4);
        let d = run_epoch(&mut g, 0.5, 10);
        let mut stats = ThreadStats::default();
        apply_decision(&d, &mut mech, &mut stats, &mut NullSink, TraceCtx::new(0, 0));
        assert_eq!(stats.govern_epochs, 1);
        assert_eq!(stats.govern_tightens, 1);
        assert!(stats.govern_actuations >= 1);
        let got = mech.get(KnobKind::Degree);
        assert_ne!(got, Some(Knob::Degree(4)), "degree moved off the top rung");
    }

    #[test]
    fn non_finite_errors_are_clamped() {
        let mut g = governor(0.02);
        for _ in 0..10 {
            g.observe(Pc(1), Some(f64::NAN));
            g.observe(Pc(1), Some(f64::INFINITY));
        }
        let d = g.epoch(&ThreadStats::default());
        assert_eq!(d.outcome, EpochOutcome::Tighten);
    }

    #[test]
    fn fallthrough_feedback_is_ignored() {
        let mut g = governor(0.02);
        for _ in 0..100 {
            g.observe(Pc(1), None);
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
            g.observe(Pc(1), Some(err));
            g.epoch(cum)
        };
        // Tighten once so there is room to probe back up.
        assert_eq!(tick(&mut g, &mut cum, 0, 100, 0.9).outcome, EpochOutcome::Tighten);
        let low = g.level;
        // Cheap, clean epochs: backoff drains, the streak builds, a probe
        // fires with the cheap epoch's EDP as the baseline.
        assert_eq!(tick(&mut g, &mut cum, 0, 100, 0.0).outcome, EpochOutcome::Quiet);
        assert_eq!(tick(&mut g, &mut cum, 0, 100, 0.0).outcome, EpochOutcome::Quiet);
        assert_eq!(tick(&mut g, &mut cum, 0, 100, 0.0).outcome, EpochOutcome::Relax);
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
                    slo_error: -1.0,
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
}
