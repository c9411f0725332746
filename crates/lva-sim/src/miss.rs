//! The LVA miss decision, shared by both embedders.
//!
//! Every annotated L1 miss under LVA makes one decision (§III): approximate
//! or not, then fetch-and-train or skip, under the approximation degree and
//! whatever quality control is attached. The phase-1 harness and the
//! full-system memory system both ask a per-core [`MissPipeline`] for that
//! decision and only map the resulting [`MissAction`] onto their own timing
//! — the load clock and value-delay queue in phase 1, the MSHR and the NoC
//! in the full system.
//!
//! The pipeline owns the per-core controllers: the degrade controller, the
//! governor and the fault stream. The mechanism, the trace sink and the
//! [`ThreadStats`] counter sink stay with the embedder and are passed in.

use lva_core::{
    ConfidenceWindow, FetchAction, MissOutcome, MissPolicy, Pc, TrainToken, Value, ValueType,
};
use lva_obs::{TraceCtx, TraceEvent, TraceEventKind, TraceSink};

use crate::config::{ConfigError, MechanismKind};
use crate::degrade::{DegradeConfig, DegradeController, MissDecision};
use crate::fault::FaultInjector;
use crate::govern::{apply_decision, Governor, GovernorConfig};
use crate::mechanism::Mechanism;
use crate::stats::ThreadStats;

/// What the embedder must do with one annotated miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MissAction {
    /// Hand `value` to the load. With `fetch`, the block must still be
    /// fetched and the token trained on arrival, `extra_delay` (a
    /// delayed-fetch fault) beyond the embedder's own fetch time.
    Approximate {
        value: Value,
        fetch: Option<(TrainToken, u64)>,
    },
    /// No approximation: stall for the fetch, then train the token on
    /// arrival (`extra_delay` as above).
    Fallthrough { token: TrainToken, extra_delay: u64 },
    /// The approximator is not consulted: a conventional miss (no
    /// approximator, a disabled PC, or a degrade `Deny`).
    Conventional,
}

/// One core's miss pipeline: its quality controllers and fault stream.
#[derive(Debug)]
pub(crate) struct MissPipeline {
    pub(crate) degrade: Option<DegradeController>,
    pub(crate) govern: Option<Box<Governor>>,
    faults: Option<FaultInjector>,
}

impl MissPipeline {
    /// Checks the controller configuration against the mechanism — the
    /// one validation both [`crate::SimConfig::validate`] and the
    /// full-system constructors run.
    pub(crate) fn validate(
        mechanism: &MechanismKind,
        degrade: Option<&DegradeConfig>,
        govern: Option<&GovernorConfig>,
    ) -> Result<(), ConfigError> {
        mechanism.validate()?;
        if let Some(d) = degrade {
            if !d.error_budget.is_finite() || d.error_budget <= 0.0 {
                return Err(ConfigError::ErrorBudget {
                    budget: d.error_budget,
                });
            }
            if !d.ewma_weight.is_finite() || d.ewma_weight <= 0.0 || d.ewma_weight > 1.0 {
                return Err(ConfigError::DegradeKnob {
                    knob: "ewma_weight",
                    value: d.ewma_weight,
                });
            }
            if d.min_samples == 0 {
                return Err(ConfigError::DegradeKnob {
                    knob: "min_samples",
                    value: 0.0,
                });
            }
            if d.probation_misses == 0 {
                return Err(ConfigError::DegradeKnob {
                    knob: "probation_misses",
                    value: 0.0,
                });
            }
            if d.max_backoff_exp > 32 {
                return Err(ConfigError::DegradeKnob {
                    knob: "max_backoff_exp",
                    value: f64::from(d.max_backoff_exp),
                });
            }
            if let MechanismKind::Lva(a) | MechanismKind::LvaClp(a, _) = mechanism {
                if a.degree > 0 && a.confidence_window == ConfidenceWindow::Infinite {
                    return Err(ConfigError::DegreeBudgetConflict { degree: a.degree });
                }
            }
        }
        govern.map_or(Ok(()), GovernorConfig::validate)
    }

    /// Builds the pipeline for a live mechanism. The configuration is
    /// assumed validated ([`validate`](Self::validate)).
    pub(crate) fn new(
        mechanism: &Mechanism,
        degrade: Option<&DegradeConfig>,
        govern: Option<GovernorConfig>,
        faults: Option<FaultInjector>,
    ) -> Self {
        MissPipeline {
            degrade: degrade.cloned().map(DegradeController::new),
            govern: govern.map(|g| Box::new(Governor::new(g, mechanism))),
            faults,
        }
    }

    /// The governor's epoch length, or `u64::MAX` without a governor.
    pub(crate) fn epoch_len(&self) -> u64 {
        self.govern
            .as_ref()
            .map_or(u64::MAX, |g| g.config().epoch_len)
    }

    /// Decides one annotated miss at `pc`: table fault, then the per-PC
    /// enable, then the degrade controller, then the delay-fault roll,
    /// then the approximator under the controller's policy. Counts
    /// injected faults, approximations, training fetches and delayed
    /// fetches into `stats`; a [`MissAction::Conventional`] miss is left
    /// for the embedder to count.
    pub(crate) fn on_miss(
        &mut self,
        mechanism: &mut Mechanism,
        pc: Pc,
        ty: ValueType,
        stats: &mut ThreadStats,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) -> MissAction {
        let Some(approximator) = mechanism.approximator_mut() else {
            return MissAction::Conventional;
        };
        // Fault injection strikes the approximator's SRAM before the miss
        // consults it, like a particle strike between accesses.
        if let Some(f) = &mut self.faults {
            if f.corrupt_table(approximator) {
                stats.faults_injected += 1;
            }
        }
        // A PC the governor switched off takes the same conventional miss
        // a degrade Deny does. Free when no PC is disabled.
        if !approximator.pc_enabled(pc) {
            return MissAction::Conventional;
        }
        let policy = match &mut self.degrade {
            None => MissPolicy::Normal,
            Some(d) => match d.decide_traced(pc, stats, sink, ctx) {
                MissDecision::Allow(policy) => policy,
                MissDecision::Deny => return MissAction::Conventional,
            },
        };
        // Rolled once per consulted miss (keeping the stream
        // deterministic) but only counted where a training fetch issues.
        let extra_delay = self.faults.as_mut().map_or(0, FaultInjector::extra_delay);
        let count_fetch = |stats: &mut ThreadStats| {
            stats.fetches_delayed += u64::from(extra_delay > 0);
            stats.load_fetches += 1;
        };
        match approximator.on_miss_policed(pc, ty, policy, sink, ctx) {
            MissOutcome::Approximate(a) => {
                stats.approximations += 1;
                let fetch = (a.fetch == FetchAction::Fetch).then(|| {
                    count_fetch(stats);
                    (a.token, extra_delay)
                });
                MissAction::Approximate {
                    value: a.value,
                    fetch,
                }
            }
            MissOutcome::Fallthrough(token) => {
                count_fetch(stats);
                MissAction::Fallthrough { token, extra_delay }
            }
        }
    }

    /// Delivers one training fetch's `actual` value: dropped-drain fault,
    /// then the approximator's training, then the error feedback to the
    /// degrade controller and the governor. A no-op without an
    /// approximator.
    pub(crate) fn on_train(
        &mut self,
        mechanism: &mut Mechanism,
        token: TrainToken,
        actual: Value,
        stats: &mut ThreadStats,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) {
        let Some(approximator) = mechanism.approximator_mut() else {
            return;
        };
        // Dropped-drain fault: the block arrived but the training update
        // is lost.
        if self
            .faults
            .as_mut()
            .is_some_and(FaultInjector::should_drop_drain)
        {
            stats.drains_dropped += 1;
            return;
        }
        let pc = token.pc();
        if sink.enabled() {
            sink.record(TraceEvent::at(ctx, TraceEventKind::TrainDrain { pc: pc.0 }));
        }
        let rel_err = approximator.train_traced(token, actual, sink, ctx);
        if let Some(d) = &mut self.degrade {
            d.observe_traced(pc, rel_err, stats, sink, ctx);
        }
        if let Some(g) = &mut self.govern {
            g.observe(pc, rel_err);
        }
    }

    /// Closes one governor epoch against the cumulative `stats` and
    /// actuates its decision on `mechanism`. A no-op without a governor.
    pub(crate) fn on_epoch(
        &mut self,
        mechanism: &mut Mechanism,
        stats: &mut ThreadStats,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) {
        if let Some(g) = &mut self.govern {
            let decision = g.epoch(stats);
            apply_decision(&decision, mechanism, stats, sink, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::QualityState;
    use crate::fault::FaultConfig;
    use crate::mechanism::Knob;
    use lva_core::ApproximatorConfig;
    use lva_obs::NullSink;

    const PC: Pc = Pc(0x40);

    fn lva() -> Mechanism {
        Mechanism::from_kind(&MechanismKind::Lva(ApproximatorConfig::baseline())).unwrap()
    }

    fn ctx() -> TraceCtx {
        TraceCtx::new(0, 0)
    }

    fn misses_seen(m: &Mechanism) -> u64 {
        match m {
            Mechanism::Lva(a) => a.stats().misses_seen,
            _ => unreachable!(),
        }
    }

    /// A pipeline whose degrade controller has already disabled `PC` (one
    /// over-budget sample demotes, the next disables).
    fn with_disabled_pc(mechanism: &Mechanism, faults: Option<FaultInjector>) -> MissPipeline {
        let cfg = DegradeConfig {
            min_samples: 1,
            ..DegradeConfig::budget(0.05)
        };
        let mut p = MissPipeline::new(mechanism, Some(&cfg), None, faults);
        let d = p.degrade.as_mut().unwrap();
        let mut stats = ThreadStats::default();
        for _ in 0..2 {
            d.observe_traced(PC, Some(1.0), &mut stats, &mut NullSink, ctx());
        }
        p
    }

    #[test]
    fn governor_disabled_pc_skips_the_degrade_controller() {
        let mut m = lva();
        let mut p = with_disabled_pc(&m, None);
        let disabled = p.degrade.as_ref().unwrap().state_of(PC);
        assert!(matches!(disabled, Some(QualityState::Disabled { .. })));
        assert_eq!(
            m.set(&Knob::PcEnable {
                pc: PC,
                enabled: false
            }),
            Ok(true)
        );
        let mut stats = ThreadStats::default();
        for _ in 0..4 {
            let action = p.on_miss(&mut m, PC, ValueType::F32, &mut stats, &mut NullSink, ctx());
            assert_eq!(action, MissAction::Conventional);
        }
        assert_eq!(stats, ThreadStats::default(), "no degrade counter moved");
        assert_eq!(
            p.degrade.as_ref().unwrap().state_of(PC),
            disabled,
            "probation untouched"
        );
        assert_eq!(misses_seen(&m), 0, "approximator not consulted");
    }

    #[test]
    fn degrade_deny_skips_the_table_and_the_delay_roll() {
        let faults = FaultConfig::seeded(9).with_delay(0.5, 16);
        let mut m = lva();
        let mut p = with_disabled_pc(&m, Some(FaultInjector::for_thread(&faults, 0)));
        let mut stats = ThreadStats::default();
        for _ in 0..4 {
            let action = p.on_miss(&mut m, PC, ValueType::F32, &mut stats, &mut NullSink, ctx());
            assert_eq!(action, MissAction::Conventional);
        }
        assert_eq!(stats.degrade_denied, 4);
        assert_eq!(misses_seen(&m), 0, "approximator table untouched");
        // The delay stream is exactly where a fresh injector starts.
        let mut fresh = FaultInjector::for_thread(&faults, 0);
        let ours = p.faults.as_mut().unwrap();
        let a: Vec<u64> = (0..32).map(|_| ours.extra_delay()).collect();
        let b: Vec<u64> = (0..32).map(|_| fresh.extra_delay()).collect();
        assert_eq!(a, b, "a denied miss must not roll the delay fault");
    }

    #[test]
    fn allowed_misses_approximate_once_trained() {
        let mut m = lva();
        let mut p = MissPipeline::new(&m, None, None, None);
        let mut stats = ThreadStats::default();
        let mut sink = NullSink;
        let MissAction::Fallthrough { token, extra_delay } =
            p.on_miss(&mut m, PC, ValueType::F32, &mut stats, &mut sink, ctx())
        else {
            panic!("a cold table falls through");
        };
        assert_eq!(extra_delay, 0);
        p.on_train(
            &mut m,
            token,
            Value::from_f32(2.0),
            &mut stats,
            &mut sink,
            ctx(),
        );
        let action = p.on_miss(&mut m, PC, ValueType::F32, &mut stats, &mut sink, ctx());
        assert!(matches!(
            action,
            MissAction::Approximate {
                fetch: Some((_, 0)),
                ..
            }
        ));
        assert_eq!((stats.approximations, stats.load_fetches), (1, 2));
    }

    #[test]
    fn mechanisms_without_an_approximator_miss_conventionally() {
        let mut m = Mechanism::Precise;
        let mut p = MissPipeline::new(&m, Some(&DegradeConfig::budget(0.05)), None, None);
        let mut stats = ThreadStats::default();
        let action = p.on_miss(&mut m, PC, ValueType::F32, &mut stats, &mut NullSink, ctx());
        assert_eq!(action, MissAction::Conventional);
        assert_eq!(
            p.degrade.as_ref().unwrap().state_of(PC),
            None,
            "controller not consulted"
        );
    }
}
