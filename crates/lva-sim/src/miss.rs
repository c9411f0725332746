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
//! The pipeline owns the per-core quality governor (both its epoch SLO
//! ladder and its per-PC budget ladder) and the fault stream. The
//! mechanism, the trace sink and the [`ThreadStats`] counter sink stay
//! with the embedder and are passed in.

use lva_core::{
    ConfidenceWindow, FetchAction, MissOutcome, MissPolicy, Pc, TrainToken, Value, ValueType,
};
use lva_obs::{TraceCtx, TraceEvent, TraceEventKind, TraceSink};

use crate::config::{ConfigError, MechanismKind};
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
    /// approximator, or a PC either governor ladder disabled).
    Conventional,
}

/// One core's miss pipeline: its quality governor and fault stream.
#[derive(Debug)]
pub(crate) struct MissPipeline {
    pub(crate) governor: Option<Box<Governor>>,
    faults: Option<FaultInjector>,
}

impl MissPipeline {
    /// Checks the governor configuration against the mechanism — the
    /// one validation both [`crate::SimConfig::validate`] and the
    /// full-system constructors run.
    pub(crate) fn validate(
        mechanism: &MechanismKind,
        govern: Option<&GovernorConfig>,
    ) -> Result<(), ConfigError> {
        mechanism.validate()?;
        let Some(g) = govern else { return Ok(()) };
        g.validate()?;
        if g.error_budget.is_some() {
            if let MechanismKind::Lva(a) | MechanismKind::LvaClp(a, _) = mechanism {
                if a.degree > 0 && a.confidence_window == ConfidenceWindow::Infinite {
                    return Err(ConfigError::DegreeBudgetConflict { degree: a.degree });
                }
            }
        }
        Ok(())
    }

    /// Builds the pipeline for a live mechanism. The configuration is
    /// assumed validated ([`validate`](Self::validate)).
    pub(crate) fn new(
        mechanism: &Mechanism,
        govern: Option<GovernorConfig>,
        faults: Option<FaultInjector>,
    ) -> Self {
        MissPipeline {
            governor: govern.map(|g| Box::new(Governor::new(g, mechanism))),
            faults,
        }
    }

    /// The governor's epoch period, or `u64::MAX` without a governor or
    /// its SLO layer.
    pub(crate) fn epoch_len(&self) -> u64 {
        self.governor
            .as_ref()
            .map_or(u64::MAX, |g| g.config().epoch_period())
    }

    /// Decides one annotated miss at `pc`: table fault, then the per-PC
    /// enable, then the governor's budget ladder, then the delay-fault
    /// roll, then the approximator under the ladder's policy. Counts
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
        // A PC the epoch ladder switched off takes the same conventional
        // miss a budget-ladder denial does, without draining its
        // probation. Free when no PC is disabled.
        if !approximator.pc_enabled(pc) {
            return MissAction::Conventional;
        }
        let policy = match &mut self.governor {
            None => MissPolicy::Normal,
            Some(g) => match g.decide(pc, stats, sink, ctx) {
                Some(policy) => policy,
                None => return MissAction::Conventional,
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
    /// governor. A no-op without an approximator.
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
        if let Some(g) = &mut self.governor {
            g.observe(pc, rel_err, stats, sink, ctx);
        }
    }

    /// Closes one governor epoch against the cumulative `stats` and
    /// actuates its decision on `mechanism`. A no-op without a governor;
    /// embedders call it on the [`epoch_len`](Self::epoch_len) clock, which
    /// never fires without the SLO layer.
    pub(crate) fn on_epoch(
        &mut self,
        mechanism: &mut Mechanism,
        stats: &mut ThreadStats,
        sink: &mut dyn TraceSink,
        ctx: TraceCtx,
    ) {
        if let Some(g) = &mut self.governor {
            let decision = g.epoch(stats);
            apply_decision(&decision, mechanism, stats, sink, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::govern::QualityState;
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

    /// Whether the approximator table is untouched: a consulted miss
    /// always allocates an entry for its context.
    fn table_is_empty(m: &Mechanism) -> bool {
        match m {
            Mechanism::Lva(a) => (0..a.table().len()).all(|i| a.table().tag(i).is_none()),
            _ => unreachable!(),
        }
    }

    /// A pipeline whose budget ladder has already disabled `PC` (one
    /// over-budget sample demotes, the next disables).
    fn with_disabled_pc(mechanism: &Mechanism, faults: Option<FaultInjector>) -> MissPipeline {
        let cfg = GovernorConfig {
            min_samples: 1,
            ..GovernorConfig::budget(0.05)
        };
        let mut p = MissPipeline::new(mechanism, Some(cfg), faults);
        let g = p.governor.as_mut().unwrap();
        let mut stats = ThreadStats::default();
        for _ in 0..2 {
            g.observe(PC, Some(1.0), &mut stats, &mut NullSink, ctx());
        }
        p
    }

    #[test]
    fn slo_disabled_pc_skips_the_budget_ladder() {
        let mut m = lva();
        let mut p = with_disabled_pc(&m, None);
        let disabled = p.governor.as_ref().unwrap().state_of(PC);
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
        assert_eq!(stats, ThreadStats::default(), "no budget counter moved");
        assert_eq!(
            p.governor.as_ref().unwrap().state_of(PC),
            disabled,
            "probation untouched"
        );
        assert!(table_is_empty(&m), "approximator not consulted");
    }

    #[test]
    fn budget_deny_skips_the_table_and_the_delay_roll() {
        let faults = FaultConfig::seeded(9).with_delay(0.5, 16);
        let mut m = lva();
        let mut p = with_disabled_pc(&m, Some(FaultInjector::for_thread(&faults, 0)));
        let mut stats = ThreadStats::default();
        for _ in 0..4 {
            let action = p.on_miss(&mut m, PC, ValueType::F32, &mut stats, &mut NullSink, ctx());
            assert_eq!(action, MissAction::Conventional);
        }
        assert_eq!(stats.degrade_denied, 4);
        assert!(table_is_empty(&m), "approximator table untouched");
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
        let mut p = MissPipeline::new(&m, None, None);
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
        let mut p = MissPipeline::new(&m, Some(GovernorConfig::budget(0.05)), None);
        let mut stats = ThreadStats::default();
        let action = p.on_miss(&mut m, PC, ValueType::F32, &mut stats, &mut NullSink, ctx());
        assert_eq!(action, MissAction::Conventional);
        assert_eq!(
            p.governor.as_ref().unwrap().state_of(PC),
            None,
            "governor not consulted"
        );
    }
}
