//! Quality-budget degradation controller.
//!
//! The paper's confidence window bounds *per-load* error, but nothing in the
//! baseline mechanism bounds the *running* error a single static load is
//! allowed to accumulate: a PC whose value stream drifts faster than the
//! window can track keeps approximating badly until its confidence counter
//! finally collapses. This module closes that loop. Each thread owns a
//! [`DegradeController`] that tracks a per-PC exponentially weighted moving
//! average (EWMA) of the relative error observed when training values drain,
//! and walks offending PCs down a quality ladder:
//!
//! 1. **Healthy** — approximation proceeds untouched.
//! 2. **Demoted** — the EWMA blew the budget: the approximator still
//!    approximates (so the error stream stays observable) but every miss is
//!    forced to fetch ([`lva_core::MissPolicy::ForceFetch`]), closing the
//!    degree window so no fetch is ever skipped for this PC.
//! 3. **Disabled** — the EWMA stayed over budget even demoted: the PC is
//!    denied approximation entirely for a probation period that doubles on
//!    each repeat offence (exponential backoff), after which it re-enters
//!    **Demoted** on probation.
//!
//! The controller is strictly *reactive*: until the first demotion it only
//! observes, so a run whose errors never exceed the budget is byte-identical
//! (fingerprint-equal) to a run with the controller disabled. The
//! determinism suite asserts this.

use lva_core::{MissPolicy, Pc};
use lva_obs::{Histogram, TraceCtx, TraceEvent, TraceEventKind, TraceSink};
use std::collections::HashMap;

use crate::stats::ThreadStats;

/// Relative errors are folded into log2 histograms in parts-per-million,
/// mirroring the per-PC attribution pipeline in `lva-obs`.
const PPM: f64 = 1e6;

/// EWMA weight of the newest error sample, shared by the degrade
/// controller's default and the governor's per-PC attribution: smooth
/// enough that one epoch of noise does not demote or disable a PC.
pub(crate) const DEFAULT_EWMA_WEIGHT: f64 = 0.125;

/// Clamps one relative-error sample before it enters an error average. A
/// corrupted table can produce absurd (or non-finite) relative errors; one
/// such sample should demote or tighten, not poison the average forever.
#[inline]
pub(crate) fn clamp_sample(err: f64) -> f64 {
    const CEILING: f64 = 1e3;
    if err.is_finite() {
        err.min(CEILING)
    } else {
        CEILING
    }
}

/// Configuration of the per-PC quality-budget controller.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeConfig {
    /// Relative-error budget: a PC whose error EWMA exceeds this fraction
    /// is demoted. Must be finite and > 0 (e.g. `0.05` for 5%).
    pub error_budget: f64,
    /// EWMA weight of the newest sample, in (0, 1]. Smaller is smoother.
    pub ewma_weight: f64,
    /// Observations required after a state change before the EWMA is
    /// trusted to trigger the next transition (warm-up guard).
    pub min_samples: u64,
    /// Base probation length, in denied misses, for a freshly disabled PC.
    pub probation_misses: u64,
    /// Probation doubles per repeat offence up to this exponent.
    pub max_backoff_exp: u32,
}

impl DegradeConfig {
    /// A controller enforcing the given relative-error budget with the
    /// default smoothing and probation parameters.
    #[must_use]
    pub fn budget(error_budget: f64) -> Self {
        DegradeConfig {
            error_budget,
            ewma_weight: DEFAULT_EWMA_WEIGHT,
            min_samples: 16,
            probation_misses: 64,
            max_backoff_exp: 6,
        }
    }
}

/// Where a PC currently sits on the quality ladder.
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

/// What the harness should do with a miss at a tracked PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissDecision {
    /// Consult the approximator under the given policy.
    Allow(MissPolicy),
    /// Skip the approximator entirely: treat as a conventional miss.
    Deny,
}

#[derive(Debug, Clone)]
struct PcQuality {
    state: QualityState,
    ewma: f64,
    /// Samples observed since the last state change.
    samples: u64,
    backoff_exp: u32,
    demotions: u64,
    disables: u64,
    trainings: u64,
    err_hist: Histogram,
}

impl PcQuality {
    fn new() -> Self {
        PcQuality {
            state: QualityState::Healthy,
            ewma: 0.0,
            samples: 0,
            backoff_exp: 0,
            demotions: 0,
            disables: 0,
            trainings: 0,
            err_hist: Histogram::default(),
        }
    }
}

/// Per-PC line of a [`DegradeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PcDegradeEntry {
    /// The static load PC.
    pub pc: Pc,
    /// Final ladder state at end of run.
    pub state: QualityState,
    /// Final relative-error EWMA.
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

/// End-of-run summary of one thread's controller, sorted by PC.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradeReport {
    /// One entry per PC the controller ever acted on or observed.
    pub entries: Vec<PcDegradeEntry>,
}

impl DegradeReport {
    /// Entries that left the Healthy state at least once.
    pub fn offenders(&self) -> impl Iterator<Item = &PcDegradeEntry> + '_ {
        self.entries.iter().filter(|e| e.demotions > 0)
    }
}

/// One thread's quality-budget controller. See the module docs for the
/// ladder semantics.
#[derive(Debug, Clone)]
pub struct DegradeController {
    cfg: DegradeConfig,
    pcs: HashMap<Pc, PcQuality>,
}

impl DegradeController {
    /// Builds a controller. The configuration is assumed validated (see
    /// [`crate::SimConfig::validate`]).
    #[must_use]
    pub fn new(cfg: DegradeConfig) -> Self {
        DegradeController {
            cfg,
            pcs: HashMap::new(),
        }
    }

    /// Consulted on every approximable L1 miss, *before* the approximator.
    /// Returns the policy the embedder must apply. Counters for denials and
    /// forced fetches land in `stats`; a [`TraceEventKind::Reprobe`] event
    /// marks each expired probation (write-only, like the approximator's
    /// traced variants).
    pub fn decide_traced(
        &mut self,
        pc: Pc,
        stats: &mut ThreadStats,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) -> MissDecision {
        let q = self.pcs.entry(pc).or_insert_with(PcQuality::new);
        match &mut q.state {
            QualityState::Healthy => MissDecision::Allow(MissPolicy::Normal),
            QualityState::Demoted => {
                stats.degrade_forced += 1;
                MissDecision::Allow(MissPolicy::ForceFetch)
            }
            QualityState::Disabled { probation_left } => {
                if *probation_left == 0 {
                    // Probation served: re-probe under forced fetches, with
                    // the EWMA reset to the budget line so the verdict rests
                    // on post-probation behaviour alone.
                    q.state = QualityState::Demoted;
                    q.samples = 0;
                    q.ewma = self.cfg.error_budget;
                    stats.reprobations += 1;
                    stats.degrade_forced += 1;
                    if sink.enabled() {
                        sink.record(TraceEvent::at(ctx, TraceEventKind::Reprobe { pc: pc.0 }));
                    }
                    MissDecision::Allow(MissPolicy::ForceFetch)
                } else {
                    *probation_left -= 1;
                    stats.degrade_denied += 1;
                    MissDecision::Deny
                }
            }
        }
    }

    /// Feeds one training drain's relative-error feedback (from
    /// [`lva_core::LoadValueApproximator::train`]) back into the ladder,
    /// emitting a [`TraceEventKind::Demote`] event on each downward
    /// transition. `rel_err` is `None` when the drain carried no
    /// approximation (a fallthrough fill), which trains the mechanism but
    /// says nothing about its quality.
    pub fn observe_traced(
        &mut self,
        pc: Pc,
        rel_err: Option<f64>,
        stats: &mut ThreadStats,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) {
        let q = self.pcs.entry(pc).or_insert_with(PcQuality::new);
        let Some(err) = rel_err else { return };
        let err = clamp_sample(err);
        q.trainings += 1;
        q.err_hist.record((err * PPM).min(u64::MAX as f64) as u64);
        q.ewma = if q.trainings == 1 {
            err
        } else {
            q.ewma + self.cfg.ewma_weight * (err - q.ewma)
        };
        q.samples += 1;
        if q.samples < self.cfg.min_samples {
            return;
        }
        let over = q.ewma > self.cfg.error_budget;
        match q.state {
            QualityState::Healthy if over => {
                // Each downward transition restarts the EWMA at the budget
                // line: the verdict on the next rung rests on fresh samples,
                // while the backoff exponent carries the memory of repeat
                // offences.
                q.state = QualityState::Demoted;
                q.samples = 0;
                q.ewma = self.cfg.error_budget;
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
                let exp = q.backoff_exp.min(self.cfg.max_backoff_exp);
                q.state = QualityState::Disabled {
                    probation_left: self.cfg.probation_misses << exp,
                };
                q.backoff_exp = q.backoff_exp.saturating_add(1).min(self.cfg.max_backoff_exp);
                q.samples = 0;
                q.ewma = self.cfg.error_budget;
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

    /// Current ladder state of `pc`, if it has ever been seen.
    #[must_use]
    pub fn state_of(&self, pc: Pc) -> Option<QualityState> {
        self.pcs.get(&pc).map(|q| q.state)
    }

    /// End-of-run per-PC summary, sorted by PC for stable output.
    #[must_use]
    pub fn report(&self) -> DegradeReport {
        let mut entries: Vec<PcDegradeEntry> = self
            .pcs
            .iter()
            .map(|(pc, q)| PcDegradeEntry {
                pc: *pc,
                state: q.state,
                ewma: q.ewma,
                trainings: q.trainings,
                demotions: q.demotions,
                disables: q.disables,
                err_p50_ppm: q.err_hist.p50(),
                err_p95_ppm: q.err_hist.p95(),
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.pc.0);
        DegradeReport { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_obs::NullSink;

    fn decide(c: &mut DegradeController, pc: Pc, stats: &mut ThreadStats) -> MissDecision {
        c.decide_traced(pc, stats, &mut NullSink, TraceCtx::new(0, 0))
    }

    fn observe(c: &mut DegradeController, pc: Pc, err: Option<f64>, stats: &mut ThreadStats) {
        c.observe_traced(pc, err, stats, &mut NullSink, TraceCtx::new(0, 0));
    }

    fn controller(budget: f64) -> DegradeController {
        DegradeController::new(DegradeConfig {
            min_samples: 4,
            probation_misses: 8,
            ..DegradeConfig::budget(budget)
        })
    }

    #[test]
    fn healthy_pcs_are_untouched() {
        let mut c = controller(0.05);
        let mut stats = ThreadStats::default();
        for _ in 0..100 {
            assert_eq!(
                decide(&mut c, Pc(1), &mut stats),
                MissDecision::Allow(MissPolicy::Normal)
            );
            observe(&mut c, Pc(1), Some(0.01), &mut stats);
        }
        assert_eq!(stats.demotions, 0);
        assert_eq!(stats.degrade_denied, 0);
        assert_eq!(c.state_of(Pc(1)), Some(QualityState::Healthy));
    }

    #[test]
    fn budget_violation_walks_the_ladder() {
        let mut c = controller(0.05);
        let mut stats = ThreadStats::default();
        // Persistently terrible errors: Healthy -> Demoted -> Disabled.
        for _ in 0..4 {
            observe(&mut c, Pc(1), Some(0.5), &mut stats);
        }
        assert_eq!(c.state_of(Pc(1)), Some(QualityState::Demoted));
        assert_eq!(stats.demotions, 1);
        for _ in 0..4 {
            observe(&mut c, Pc(1), Some(0.5), &mut stats);
        }
        assert!(matches!(
            c.state_of(Pc(1)),
            Some(QualityState::Disabled { .. })
        ));
        assert_eq!(stats.disables, 1);
        // While disabled, misses are denied for the probation period...
        for _ in 0..8 {
            assert_eq!(decide(&mut c, Pc(1), &mut stats), MissDecision::Deny);
        }
        // ...then the PC re-enters Demoted on probation.
        assert_eq!(
            decide(&mut c, Pc(1), &mut stats),
            MissDecision::Allow(MissPolicy::ForceFetch)
        );
        assert_eq!(stats.reprobations, 1);
        assert_eq!(stats.degrade_denied, 8);
    }

    #[test]
    fn probation_backs_off_exponentially() {
        let mut c = controller(0.05);
        let mut stats = ThreadStats::default();
        let mut deny_runs = Vec::new();
        for _ in 0..3 {
            // Drive to Disabled (4 samples demote, 4 more disable).
            while !matches!(c.state_of(Pc(1)), Some(QualityState::Disabled { .. })) {
                observe(&mut c, Pc(1), Some(1.0), &mut stats);
            }
            let mut denied = 0u64;
            while decide(&mut c, Pc(1), &mut stats) == MissDecision::Deny {
                denied += 1;
            }
            deny_runs.push(denied);
        }
        assert_eq!(deny_runs, vec![8, 16, 32], "probation must double");
    }

    #[test]
    fn recovery_promotes_demoted_pcs() {
        let mut c = controller(0.05);
        let mut stats = ThreadStats::default();
        for _ in 0..4 {
            observe(&mut c, Pc(1), Some(0.5), &mut stats);
        }
        assert_eq!(c.state_of(Pc(1)), Some(QualityState::Demoted));
        // Clean errors decay the EWMA back under budget.
        for _ in 0..64 {
            observe(&mut c, Pc(1), Some(0.0), &mut stats);
        }
        assert_eq!(c.state_of(Pc(1)), Some(QualityState::Healthy));
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn non_finite_samples_are_clamped_not_poisonous() {
        let mut c = controller(0.05);
        let mut stats = ThreadStats::default();
        observe(&mut c, Pc(1), Some(f64::INFINITY), &mut stats);
        observe(&mut c, Pc(1), Some(f64::NAN), &mut stats);
        for _ in 0..2 {
            observe(&mut c, Pc(1), Some(1.0), &mut stats);
        }
        assert_eq!(c.state_of(Pc(1)), Some(QualityState::Demoted));
        // A demoted PC with clean errors can still recover: the clamp keeps
        // the EWMA finite so decay works.
        for _ in 0..200 {
            observe(&mut c, Pc(1), Some(0.0), &mut stats);
        }
        assert_eq!(c.state_of(Pc(1)), Some(QualityState::Healthy));
    }

    #[test]
    fn fallthrough_feedback_is_ignored() {
        let mut c = controller(0.05);
        let mut stats = ThreadStats::default();
        for _ in 0..100 {
            observe(&mut c, Pc(1), None, &mut stats);
        }
        // No approximation ever resolved: the PC is tracked but untouched.
        assert_eq!(c.state_of(Pc(1)), Some(QualityState::Healthy));
        assert_eq!(stats.demotions, 0);
    }

    #[test]
    fn report_sorts_by_pc_and_flags_offenders() {
        let mut c = controller(0.05);
        let mut stats = ThreadStats::default();
        for _ in 0..4 {
            observe(&mut c, Pc(9), Some(0.9), &mut stats);
            observe(&mut c, Pc(3), Some(0.001), &mut stats);
        }
        let report = c.report();
        let pcs: Vec<u64> = report.entries.iter().map(|e| e.pc.0).collect();
        assert_eq!(pcs, vec![3, 9]);
        let offenders: Vec<u64> = report.offenders().map(|e| e.pc.0).collect();
        assert_eq!(offenders, vec![9]);
        assert!(report.entries[1].err_p95_ppm >= 800_000);
    }
}
