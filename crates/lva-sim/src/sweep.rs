//! Work-sharing parallel sweep engine for design-space exploration.
//!
//! The paper's methodology is a large grid of independent simulations:
//! every (workload, mechanism, configuration) point runs a complete,
//! single-threaded, deterministic simulation and reports its counters.
//! That shape parallelizes perfectly — this module fans a declarative
//! grid across OS threads with [`std::thread::scope`] (no external
//! dependencies) while keeping the *results* in deterministic grid
//! order: each worker pulls the next unclaimed index from a shared
//! [`crate::sched::SubmissionQueue`], evaluates it behind the
//! [`crate::sched::catch_point`] panic boundary, and tags the result
//! with its index; the engine sorts by index before returning. Because
//! every point is itself deterministic and workers never share
//! simulator state, the same grid yields byte-identical statistics
//! whether it runs on 1, 2 or 64 threads — the determinism suite under
//! `tests/` asserts exactly that.
//!
//! `run_sweep` is a thin in-process client of the same claim machinery
//! the `lva-serve` job server builds its persistent worker pool on: it
//! opens a private single-job queue, drains it with scoped threads, and
//! tears everything down on return. Long-lived multi-job scheduling
//! lives in [`crate::sched`] / `lva-serve`.
//!
//! Two layers:
//!
//! - [`run_sweep`] — the generic engine: any `Sync` point type, any
//!   `Send` result, per-point wall-clock timing and a
//!   [`SweepSummary`] report.
//! - [`SweepSpec`] — a builder for the paper's configuration grids:
//!   axes over confidence window (Fig. 6), approximation degree
//!   (Figs. 8–9), value delay (Fig. 7) and GHB depth (Figs. 4–5),
//!   crossed into a flat `Vec<SimConfig>` in a stable declared order.
//!
//! The workload dimension lives upstream (`lva-workloads` depends on
//! this crate, not the reverse), so the phase-1 configs × workloads grid
//! is `lva_workloads::run_grid`. The phase-2 grid, configs × recorded
//! trace sets, is [`run_fullsystem_grid`] here.

use crate::sched::{catch_point, SubmissionQueue};
use crate::stats::SweepSummary;
use crate::{ConfigError, FullSystem, FullSystemConfig, FullSystemStats, MechanismKind, SimConfig};
use lva_core::{ApproximatorConfig, ConfidenceWindow};
use lva_cpu::ThreadTrace;
use lva_obs::MetricsRegistry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One evaluated grid point: the result plus where and how long.
#[derive(Debug, Clone)]
pub struct SweepOutcome<R> {
    /// Position of the point in the input grid.
    pub index: usize,
    /// What the evaluator returned (e.g. `Phase1Stats`,
    /// `FullSystemStats`, or a whole `WorkloadRun`).
    pub value: R,
    /// Wall-clock time this single point took.
    pub elapsed: Duration,
    /// Worker thread that claimed the point.
    pub worker: usize,
}

/// How one worker thread spent the sweep: how many points it claimed,
/// how long it computed, and how long it lived. The gap between `wall`
/// and `busy` is queue overhead — time spent claiming work, publishing
/// progress, or idling after the grid drained.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerLoad {
    /// Grid points this worker evaluated.
    pub points: usize,
    /// Time spent inside the evaluator.
    pub busy: Duration,
    /// Worker lifetime (spawn to exit).
    pub wall: Duration,
}

impl WorkerLoad {
    /// Worker lifetime not spent evaluating points (claim overhead plus
    /// end-of-grid idle — the load-imbalance signal).
    #[must_use]
    pub(crate) fn queue_wait(&self) -> Duration {
        self.wall.saturating_sub(self.busy)
    }
}

/// A grid point whose evaluator panicked. The panic is contained at the
/// point boundary (see [`crate::sched::catch_point`]): the claiming
/// worker keeps draining the grid and every *other* point's result is
/// unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Position of the failed point in the input grid.
    pub index: usize,
    /// The panic message the evaluator died with.
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point {} panicked: {}", self.index, self.message)
    }
}

/// A completed sweep: outcomes in grid order plus engine timing.
#[derive(Debug, Clone)]
pub struct SweepRun<R> {
    /// Per-point outcomes, sorted by grid index. Covers `0..n` exactly
    /// when [`errors`](Self::errors) is empty; failed points are absent.
    pub outcomes: Vec<SweepOutcome<R>>,
    /// Points whose evaluator panicked, sorted by grid index. Empty on a
    /// fully healthy sweep.
    pub errors: Vec<SweepError>,
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Worker threads actually used.
    pub workers: usize,
    /// Per-worker load report, one entry per worker thread.
    pub worker_loads: Vec<WorkerLoad>,
}

impl<R> SweepRun<R> {
    /// Strips indices and timings, returning just the results in grid
    /// order: value `i` is point `i`.
    ///
    /// # Panics
    ///
    /// Panics with the first [`SweepError`] if any point failed, since a
    /// missing value would shift every later one onto the wrong point.
    #[must_use]
    pub fn into_values(self) -> Vec<R> {
        if let Some(error) = self.errors.first() {
            panic!("{error}");
        }
        self.outcomes.into_iter().map(|o| o.value).collect()
    }

    /// Exports the engine's timing profile into a metrics registry:
    /// point-time distribution (`time/sweep/point_wall_ns` histogram with
    /// p50/p95/p99), end-to-end wall time, and per-worker busy/queue-wait
    /// splits. Everything lands under `time/` / `env/`, so sweeps can dump
    /// their profile into a manifest without making the regression gate
    /// host-dependent (see `lva_obs::compare`).
    pub fn record_metrics(&self, registry: &mut MetricsRegistry) {
        registry
            .counter("sweep/points")
            .add(self.outcomes.len() as u64);
        // Only surface the error counter when something actually failed,
        // so healthy sweeps keep emitting the exact stat set the committed
        // CI baselines were captured with (same gating idiom as the
        // conditional fingerprint suffixes in `stats`).
        if !self.errors.is_empty() {
            registry
                .counter("sweep/errors")
                .add(self.errors.len() as u64);
        }
        registry.gauge("env/sweep/workers").set(self.workers as f64);
        registry
            .gauge("time/sweep/wall_ns")
            .set(self.wall.as_nanos() as f64);
        let hist = registry.histogram("time/sweep/point_wall_ns");
        for outcome in &self.outcomes {
            hist.record(u64::try_from(outcome.elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        for (i, load) in self.worker_loads.iter().enumerate() {
            registry
                .counter(&format!("env/sweep/worker{i}/points"))
                .add(load.points as u64);
            registry
                .gauge(&format!("time/sweep/worker{i}/busy_ns"))
                .set(load.busy.as_nanos() as f64);
            registry
                .gauge(&format!("time/sweep/worker{i}/queue_wait_ns"))
                .set(load.queue_wait().as_nanos() as f64);
        }
    }

    /// Timing summary for the progress report.
    #[must_use]
    pub fn summary(&self) -> SweepSummary {
        let cpu = self.outcomes.iter().map(|o| o.elapsed).sum();
        let min_point = self
            .outcomes
            .iter()
            .map(|o| o.elapsed)
            .min()
            .unwrap_or_default();
        let max_point = self
            .outcomes
            .iter()
            .map(|o| o.elapsed)
            .max()
            .unwrap_or_default();
        SweepSummary {
            points: self.outcomes.len(),
            workers: self.workers,
            wall: self.wall,
            cpu,
            min_point,
            max_point,
        }
    }
}

/// How a sweep should run.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` resolves via [`worker_count`].
    pub workers: Option<usize>,
    /// Print `[done/total]` progress lines to stderr as points finish.
    pub progress: bool,
}

/// Resolves the worker-thread count: an explicit request wins, then the
/// `LVA_THREADS` environment variable, then [`std::thread::available_parallelism`].
#[must_use]
pub fn worker_count(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Some(n) = std::env::var("LVA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Fans `eval` over every point of `grid` across worker threads.
///
/// Work is *shared*, not pre-partitioned: the whole grid is submitted as
/// one job on a private [`SubmissionQueue`] and each worker claims the
/// next unclaimed index, so a slow point never idles the other workers
/// behind a static schedule. Results are returned sorted by grid index,
/// which makes the output independent of the claim order and therefore
/// of the worker count.
///
/// A panicking evaluation is contained at the point boundary: the point
/// lands in [`SweepRun::errors`] (with its panic message), the claiming
/// worker moves on, and every other point completes normally.
pub fn run_sweep<P, R, F>(grid: &[P], options: &SweepOptions, eval: F) -> SweepRun<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    let started = Instant::now();
    let n = grid.len();
    let workers = worker_count(options.workers).min(n.max(1));
    let queue = SubmissionQueue::new();
    queue.submit(0, n);
    queue.close();
    let done = AtomicUsize::new(0);
    type WorkerReport<R> = (Vec<SweepOutcome<R>>, Vec<SweepError>, WorkerLoad);
    let mut per_worker: Vec<WorkerReport<R>> = Vec::with_capacity(workers);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|wid| {
                let queue = &queue;
                let done = &done;
                let eval = &eval;
                s.spawn(move || {
                    let spawned = Instant::now();
                    let mut busy = Duration::ZERO;
                    let mut local: Vec<SweepOutcome<R>> = Vec::new();
                    let mut failed: Vec<SweepError> = Vec::new();
                    while let Some(claim) = queue.claim() {
                        let index = claim.point;
                        let t0 = Instant::now();
                        let result = catch_point(|| eval(index, &grid[index]));
                        let elapsed = t0.elapsed();
                        busy += elapsed;
                        match result {
                            Ok(value) => local.push(SweepOutcome {
                                index,
                                value,
                                elapsed,
                                worker: wid,
                            }),
                            Err(message) => failed.push(SweepError { index, message }),
                        }
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if options.progress {
                            eprintln!("  [{finished}/{n}] point {index} done");
                        }
                    }
                    let load = WorkerLoad {
                        points: local.len() + failed.len(),
                        busy,
                        wall: spawned.elapsed(),
                    };
                    (local, failed, load)
                })
            })
            .collect();
        for h in handles {
            // Workers only claim and report; the evaluator runs behind
            // `catch_point`, so a join failure here is an engine bug.
            per_worker.push(h.join().expect("sweep worker panicked"));
        }
    });

    let mut worker_loads = Vec::with_capacity(workers);
    let mut outcomes: Vec<SweepOutcome<R>> = Vec::with_capacity(n);
    let mut errors: Vec<SweepError> = Vec::new();
    for (local, failed, load) in per_worker {
        worker_loads.push(load);
        outcomes.extend(local);
        errors.extend(failed);
    }
    outcomes.sort_by_key(|o| o.index);
    errors.sort_by_key(|e| e.index);
    debug_assert!(
        outcomes.len() + errors.len() == n,
        "every claimed point is either an outcome or an error"
    );
    debug_assert!(!errors.is_empty() || outcomes.iter().enumerate().all(|(i, o)| o.index == i));
    SweepRun {
        outcomes,
        errors,
        wall: started.elapsed(),
        workers,
        worker_loads,
    }
}

/// Replays every trace set on every full-system config in one
/// [`run_sweep`] and returns the stats config-major: point
/// `c * trace_sets.len() + t` is config `c` on trace set `t`. A point
/// whose config [`FullSystem::try_new`] refuses, or whose replay fails,
/// lands in [`SweepRun::errors`] with that error's message.
#[must_use]
pub fn run_fullsystem_grid(
    configs: &[FullSystemConfig],
    trace_sets: &[Vec<ThreadTrace>],
    options: &SweepOptions,
) -> SweepRun<FullSystemStats> {
    let points: Vec<_> = configs
        .iter()
        .flat_map(|config| trace_sets.iter().map(move |traces| (config, traces)))
        .collect();
    run_sweep(&points, options, |_, &(config, traces)| {
        FullSystem::new(config.clone(), traces.clone())
            .run()
            .unwrap_or_else(|e| panic!("{e}"))
    })
}

/// Declarative grid of phase-1 configurations.
///
/// Starts from a base [`SimConfig`] and crosses whichever axes are
/// populated. Build order is stable and independent of everything but
/// the declaration itself: value delay is the outermost axis, then
/// confidence window, degree, GHB depth, error budget and governor
/// SLO; explicitly added mechanisms are appended after the
/// generated LVA grid, each crossed with the value delays.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    base: SimConfig,
    windows: Vec<ConfidenceWindow>,
    degrees: Vec<u32>,
    ghb_depths: Vec<usize>,
    value_delays: Vec<u64>,
    error_budgets: Vec<f64>,
    governor_slos: Vec<f64>,
    extra: Vec<MechanismKind>,
}

impl SweepSpec {
    /// A grid rooted at the paper's baseline LVA configuration; with no
    /// axes populated, [`build`](Self::build) yields exactly the base.
    #[must_use]
    pub fn new() -> Self {
        Self::from_base(SimConfig::baseline_lva())
    }

    /// A grid rooted at an arbitrary base configuration.
    #[must_use]
    pub fn from_base(base: SimConfig) -> Self {
        SweepSpec {
            base,
            windows: Vec::new(),
            degrees: Vec::new(),
            ghb_depths: Vec::new(),
            value_delays: Vec::new(),
            error_budgets: Vec::new(),
            governor_slos: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Axis over relaxed confidence-window fractions (Fig. 6's 2–16%).
    #[must_use]
    pub fn confidence_windows(mut self, fractions: &[f64]) -> Self {
        self.windows = fractions
            .iter()
            .map(|&f| ConfidenceWindow::Relative(f))
            .collect();
        self
    }

    /// Axis over arbitrary confidence-window kinds, for points the
    /// fraction shorthand cannot express (e.g.
    /// [`ConfidenceWindow::Infinite`]).
    #[must_use]
    pub fn confidence_window_kinds(mut self, windows: &[ConfidenceWindow]) -> Self {
        self.windows = windows.to_vec();
        self
    }

    /// Axis over approximation degrees (Figs. 8–9's 0–16).
    #[must_use]
    pub fn degrees(mut self, degrees: &[u32]) -> Self {
        self.degrees = degrees.to_vec();
        self
    }

    /// Axis over GHB depths (Figs. 4–5's 0–4).
    #[must_use]
    pub fn ghb_depths(mut self, depths: &[usize]) -> Self {
        self.ghb_depths = depths.to_vec();
        self
    }

    /// Axis over value delays (Fig. 7's 1–1000 load instructions).
    #[must_use]
    pub fn value_delays(mut self, delays: &[u64]) -> Self {
        self.value_delays = delays.to_vec();
        self
    }

    /// Axis over the governor's per-PC error budget: one point per
    /// relative-error budget, crossed innermost but for the SLOs. Applies
    /// to the generated LVA grid only — extra mechanisms never consult
    /// the budget ladder.
    #[must_use]
    pub fn error_budgets(mut self, budgets: &[f64]) -> Self {
        self.error_budgets = budgets.to_vec();
        self
    }

    /// Axis over supervisory-governor quality SLOs: one point per
    /// per-epoch mean relative-error target (with the default epoch and
    /// hysteresis knobs), crossed innermost after the error budgets.
    /// Applies to the generated LVA grid only — extra mechanisms have no
    /// knobs for a governor to move.
    #[must_use]
    pub fn governor_slos(mut self, slos: &[f64]) -> Self {
        self.governor_slos = slos.to_vec();
        self
    }

    /// Appends a standalone mechanism point (e.g. `Precise` or a
    /// prefetcher baseline) after the generated LVA grid.
    #[must_use]
    pub fn mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.extra.push(mechanism);
        self
    }

    /// Axis over cache-level-predictor table sizes: one standalone
    /// [`MechanismKind::Clp`] point per entry count, appended after the
    /// generated LVA grid (and crossed with the value delays like any
    /// extra mechanism).
    #[must_use]
    pub fn clp_tables(mut self, entries: &[usize]) -> Self {
        for &table_entries in entries {
            self.extra.push(MechanismKind::Clp(lva_core::ClpConfig {
                table_entries,
                ..lva_core::ClpConfig::baseline()
            }));
        }
        self
    }

    /// The base approximator the LVA axes perturb: the base config's own
    /// approximator if it is LVA, the paper baseline otherwise.
    fn base_approximator(&self) -> ApproximatorConfig {
        match &self.base.mechanism {
            MechanismKind::Lva(a) => a.clone(),
            _ => ApproximatorConfig::baseline(),
        }
    }

    /// Materializes the grid in its stable declared order, validating
    /// every generated point.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] a generated point fails
    /// validation with — e.g. a non-finite error budget, or a budget
    /// crossed with a degree axis under an infinite confidence window.
    pub fn try_build(&self) -> Result<Vec<SimConfig>, ConfigError> {
        let grid = self.materialize();
        for cfg in &grid {
            cfg.validate()?;
        }
        Ok(grid)
    }

    /// [`try_build`](Self::try_build), panicking on an invalid point.
    ///
    /// # Panics
    ///
    /// Panics if any generated point fails validation.
    #[must_use]
    pub fn build(&self) -> Vec<SimConfig> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The raw cross product, before validation.
    fn materialize(&self) -> Vec<SimConfig> {
        let one_delay = [self.base.value_delay];
        let delays: &[u64] = if self.value_delays.is_empty() {
            &one_delay
        } else {
            &self.value_delays
        };
        let base_approx = self.base_approximator();
        let windows: Vec<ConfidenceWindow> = if self.windows.is_empty() {
            vec![base_approx.confidence_window]
        } else {
            self.windows.clone()
        };
        let degrees: Vec<u32> = if self.degrees.is_empty() {
            vec![base_approx.degree]
        } else {
            self.degrees.clone()
        };
        let ghbs: Vec<usize> = if self.ghb_depths.is_empty() {
            vec![base_approx.ghb_entries]
        } else {
            self.ghb_depths.clone()
        };
        // `None` keeps the base configuration's governor as it is.
        let axis = |values: &[f64]| -> Vec<Option<f64>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().copied().map(Some).collect()
            }
        };
        let budgets = axis(&self.error_budgets);
        let slos = axis(&self.governor_slos);

        let mut grid = Vec::new();
        let lva_base = matches!(self.base.mechanism, MechanismKind::Lva(_))
            || self.windows.len() + self.degrees.len() + self.ghb_depths.len() > 0;
        for &delay in delays {
            if lva_base {
                for window in &windows {
                    for &degree in &degrees {
                        for &ghb in &ghbs {
                            for &budget in &budgets {
                                for &slo in &slos {
                                    let mut approx = base_approx.clone();
                                    approx.confidence_window = *window;
                                    approx.degree = degree;
                                    approx.ghb_entries = ghb;
                                    let mut cfg = self.base.clone();
                                    cfg.mechanism = MechanismKind::Lva(approx);
                                    cfg.value_delay = delay;
                                    if let Some(s) = slo {
                                        cfg = cfg.with_govern_slo(s);
                                    }
                                    if let Some(b) = budget {
                                        cfg = cfg.with_error_budget(b);
                                    }
                                    grid.push(cfg);
                                }
                            }
                        }
                    }
                }
            } else {
                let mut cfg = self.base.clone();
                cfg.value_delay = delay;
                grid.push(cfg);
            }
            for mech in &self.extra {
                let mut cfg = self.base.clone();
                cfg.mechanism = mech.clone();
                cfg.value_delay = delay;
                grid.push(cfg);
            }
        }
        grid
    }

    /// Number of points [`build`](Self::build) will produce.
    #[must_use]
    pub fn len(&self) -> usize {
        self.build().len()
    }

    /// Whether the grid is empty (it never is: the base always counts).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_just_the_base() {
        let grid = SweepSpec::new().build();
        assert_eq!(grid, vec![SimConfig::baseline_lva()]);
    }

    #[test]
    fn axes_cross_multiplicatively() {
        let spec = SweepSpec::new()
            .degrees(&[0, 2, 4])
            .value_delays(&[1, 4])
            .confidence_windows(&[0.05, 0.10]);
        let grid = spec.build();
        assert_eq!(grid.len(), 3 * 2 * 2);
        // Outermost axis is the value delay.
        assert!(grid[..6].iter().all(|c| c.value_delay == 1));
        assert!(grid[6..].iter().all(|c| c.value_delay == 4));
    }

    #[test]
    fn extra_mechanisms_follow_the_lva_grid() {
        let grid = SweepSpec::new()
            .degrees(&[0, 8])
            .mechanism(MechanismKind::Precise)
            .build();
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[2].mechanism, MechanismKind::Precise);
    }

    #[test]
    fn extra_mechanisms_keep_declared_order() {
        let clp = MechanismKind::Clp(lva_core::ClpConfig::baseline());
        let grid = SweepSpec::new()
            .mechanism(MechanismKind::Precise)
            .mechanism(clp.clone())
            .build();
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[1].mechanism, MechanismKind::Precise);
        assert_eq!(grid[2].mechanism, clp);
    }

    #[test]
    fn clp_table_axis_appends_one_point_per_size() {
        let grid = SweepSpec::new().clp_tables(&[256, 1024]).build();
        assert_eq!(grid.len(), 3);
        for (cfg, entries) in grid[1..].iter().zip([256usize, 1024]) {
            match &cfg.mechanism {
                MechanismKind::Clp(c) => assert_eq!(c.table_entries, entries),
                other => panic!("expected clp point, got {}", other.label()),
            }
        }
        // Invalid sizes surface through try_build, not a panic.
        let spec = SweepSpec::new().clp_tables(&[3]);
        assert!(matches!(
            spec.try_build(),
            Err(ConfigError::Core(lva_core::ConfigError::TableEntries {
                entries: 3
            }))
        ));
    }

    #[test]
    fn error_budget_axis_crosses_lva_grid_only() {
        let grid = SweepSpec::new()
            .degrees(&[0, 8])
            .error_budgets(&[0.01, 0.05])
            .mechanism(MechanismKind::Precise)
            .build();
        // 2 degrees × 2 budgets + 1 extra mechanism.
        assert_eq!(grid.len(), 5);
        let budgets: Vec<Option<f64>> = grid
            .iter()
            .map(|c| c.govern.and_then(|g| g.error_budget))
            .collect();
        assert_eq!(
            budgets,
            vec![Some(0.01), Some(0.05), Some(0.01), Some(0.05), None]
        );
        assert_eq!(grid[4].mechanism, MechanismKind::Precise);
    }

    #[test]
    fn governor_slo_axis_crosses_lva_grid_only() {
        let grid = SweepSpec::new()
            .degrees(&[0, 8])
            .governor_slos(&[0.01, 0.05])
            .mechanism(MechanismKind::Precise)
            .build();
        // 2 degrees × 2 SLOs + 1 extra mechanism.
        assert_eq!(grid.len(), 5);
        let slos: Vec<Option<f64>> = grid
            .iter()
            .map(|c| c.govern.and_then(|g| g.slo_error))
            .collect();
        assert_eq!(
            slos,
            vec![Some(0.01), Some(0.05), Some(0.01), Some(0.05), None]
        );
        assert_eq!(grid[4].mechanism, MechanismKind::Precise);
        // A bad SLO is rejected at build time like any other axis value.
        let spec = SweepSpec::new().governor_slos(&[f64::NAN]);
        assert!(matches!(
            spec.try_build(),
            Err(ConfigError::GovernorKnob {
                knob: "slo_error",
                ..
            })
        ));
    }

    #[test]
    fn try_build_rejects_invalid_points() {
        // A degree axis under an infinite confidence window crossed with a
        // budget: skipped fetches would never be observed.
        let base = SimConfig::lva(lva_core::ApproximatorConfig {
            confidence_window: ConfidenceWindow::Infinite,
            ..lva_core::ApproximatorConfig::baseline()
        });
        let spec = SweepSpec::from_base(base)
            .degrees(&[0, 8])
            .error_budgets(&[0.05]);
        assert!(matches!(
            spec.try_build(),
            Err(ConfigError::DegreeBudgetConflict { degree: 8 })
        ));
        // A bad budget value is caught too.
        let spec = SweepSpec::new().error_budgets(&[f64::NAN]);
        assert!(matches!(
            spec.try_build(),
            Err(ConfigError::GovernorKnob {
                knob: "error_budget",
                ..
            })
        ));
    }

    #[test]
    fn non_lva_base_without_axes_stays_non_lva() {
        let grid = SweepSpec::from_base(SimConfig::precise())
            .value_delays(&[1, 10])
            .build();
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(|c| c.mechanism == MechanismKind::Precise));
    }

    #[test]
    fn run_sweep_returns_grid_order_for_any_worker_count() {
        let grid: Vec<u64> = (0..37).collect();
        for workers in [1, 2, 8] {
            let opts = SweepOptions {
                workers: Some(workers),
                progress: false,
            };
            let run = run_sweep(&grid, &opts, |i, &p| {
                assert_eq!(i as u64, p);
                p * p
            });
            assert_eq!(run.workers, workers.min(grid.len()));
            let values = run.into_values();
            assert_eq!(values, grid.iter().map(|p| p * p).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_point_becomes_an_error_not_an_abort() {
        let grid: Vec<u32> = (0..12).collect();
        for workers in [1, 4] {
            let opts = SweepOptions {
                workers: Some(workers),
                progress: false,
            };
            let run = run_sweep(&grid, &opts, |_, &p| {
                assert!(p != 5, "injected failure at point 5");
                p * 10
            });
            // The grid completes: one error, every other point intact.
            assert_eq!(run.errors.len(), 1);
            assert_eq!(run.errors[0].index, 5);
            assert!(
                run.errors[0].message.contains("injected failure"),
                "{}",
                run.errors[0].message
            );
            assert!(run.errors[0].to_string().contains("point 5"));
            assert_eq!(run.outcomes.len(), grid.len() - 1);
            assert!(run.outcomes.iter().all(|o| o.index != 5));
            assert!(run.outcomes.windows(2).all(|w| w[0].index < w[1].index));
            let claimed: usize = run.worker_loads.iter().map(|l| l.points).sum();
            assert_eq!(claimed, grid.len(), "failed points still count as claimed");
            // The error surfaces in metrics — but only when present.
            let mut reg = MetricsRegistry::new();
            run.record_metrics(&mut reg);
            let dump: std::collections::HashMap<String, f64> = reg.dump().into_iter().collect();
            assert_eq!(dump["sweep/errors"], 1.0);
            // Values line up by position, so a gap must not pass silently.
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.into_values()))
                    .expect_err("into_values must refuse a sweep with a failed point");
            let message = panic.downcast_ref::<String>().expect("formatted message");
            assert!(
                message.starts_with("point 5 panicked: injected failure"),
                "{message}"
            );
        }
        // Healthy sweeps don't grow a zero-valued error stat (the CI
        // baselines were captured without one).
        let run = run_sweep(&grid, &SweepOptions::default(), |_, &p| p);
        assert!(run.errors.is_empty());
        let mut reg = MetricsRegistry::new();
        run.record_metrics(&mut reg);
        assert!(reg.dump().iter().all(|(path, _)| path != "sweep/errors"));
    }

    #[test]
    fn fullsystem_grid_is_config_major_and_matches_direct_replays() {
        use lva_core::{Addr, ClpConfig, Pc, Value, ValueType};
        let trace_set = |loads: u64| -> Vec<ThreadTrace> {
            (0..2u64)
                .map(|core| {
                    let mut t = ThreadTrace::new();
                    for i in 0..loads {
                        let addr = Addr(0x10_0000 * (core + 1) + i * 64);
                        t.push_load(Pc(0x40), addr, ValueType::F32, true, Value::from_f32(1.0));
                        t.push_compute(3);
                    }
                    t
                })
                .collect()
        };
        let trace_sets = [trace_set(32), trace_set(96)];
        let configs = [
            MechanismKind::Precise,
            MechanismKind::Lva(ApproximatorConfig::baseline()),
            MechanismKind::Clp(ClpConfig::baseline()),
        ]
        .map(FullSystemConfig::paper);
        let direct: Vec<FullSystemStats> = configs[..2]
            .iter()
            .flat_map(|c| {
                trace_sets
                    .iter()
                    .map(|t| FullSystem::new(c.clone(), t.clone()))
            })
            .map(|system| system.run().expect("replays"))
            .collect();
        assert!(direct[0] != direct[1] && direct[0] != direct[2]);
        // The refused config fails its own points, and no other.
        let refusal = ConfigError::UnmodelledMechanism { kind: "clp" }.to_string();
        for workers in [1, 8] {
            let opts = SweepOptions {
                workers: Some(workers),
                progress: false,
            };
            let run = run_fullsystem_grid(&configs, &trace_sets, &opts);
            let errors: Vec<_> = run.errors.iter().map(|e| (e.index, &*e.message)).collect();
            assert_eq!(
                errors,
                [(4, &*refusal), (5, &*refusal)],
                "{workers} workers"
            );
            let values: Vec<_> = run.outcomes.into_iter().map(|o| o.value).collect();
            assert_eq!(values, direct, "{workers} workers");
        }
    }

    #[test]
    fn summary_accounts_every_point() {
        let grid = vec![(); 5];
        let run = run_sweep(&grid, &SweepOptions::default(), |i, ()| i);
        let s = run.summary();
        assert_eq!(s.points, 5);
        assert!(s.cpu >= s.max_point);
        assert!(s.speedup() > 0.0);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn worker_loads_account_every_point() {
        let grid: Vec<u32> = (0..23).collect();
        let opts = SweepOptions {
            workers: Some(4),
            progress: false,
        };
        let run = run_sweep(&grid, &opts, |_, &p| p);
        assert_eq!(run.worker_loads.len(), 4);
        let claimed: usize = run.worker_loads.iter().map(|l| l.points).sum();
        assert_eq!(claimed, grid.len());
        for load in &run.worker_loads {
            assert!(load.wall >= load.busy, "wall covers busy");
            assert_eq!(load.queue_wait(), load.wall - load.busy);
        }
    }

    #[test]
    fn record_metrics_exports_engine_profile() {
        let grid = vec![(); 6];
        let opts = SweepOptions {
            workers: Some(2),
            progress: false,
        };
        let run = run_sweep(&grid, &opts, |i, ()| i);
        let mut reg = MetricsRegistry::new();
        run.record_metrics(&mut reg);
        let dump: std::collections::HashMap<String, f64> = reg.dump().into_iter().collect();
        assert_eq!(dump["sweep/points"], 6.0);
        assert_eq!(dump["env/sweep/workers"], 2.0);
        assert_eq!(dump["time/sweep/point_wall_ns/count"], 6.0);
        let claimed = dump["env/sweep/worker0/points"] + dump["env/sweep/worker1/points"];
        assert_eq!(claimed, 6.0);
        // Every engine-timing path is informational for the compare gate.
        for path in dump
            .keys()
            .filter(|p| p.contains("_ns") || p.starts_with("env/"))
        {
            assert!(lva_obs::is_informational(path), "{path} must not gate");
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let run = run_sweep(&[] as &[u8], &SweepOptions::default(), |_, _| 0u8);
        assert!(run.outcomes.is_empty());
        assert_eq!(run.summary().points, 0);
    }

    #[test]
    fn worker_count_prefers_explicit() {
        assert_eq!(worker_count(Some(3)), 3);
        assert_eq!(worker_count(Some(0)), 1);
        assert!(worker_count(None) >= 1);
    }
}
