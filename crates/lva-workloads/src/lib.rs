//! # lva-workloads — the paper's seven PARSEC 3.0 kernels (§IV)
//!
//! The paper annotates approximate data in seven PARSEC benchmarks and runs
//! them under Pin with clobbered load values. We reimplement each
//! benchmark's *approximated hot kernel* — the loops §IV identifies — as a
//! deterministic Rust kernel running on the [`SimHarness`], together with
//! the paper's output-error metric:
//!
//! | kernel | approximated data | error metric (§IV) |
//! |--------|-------------------|--------------------|
//! | [`blackscholes`] | input option parameters (f32) | % prices with error > 1% |
//! | [`bodytrack`]    | image-map pixels (u8)         | pairwise distance of output vectors |
//! | [`canneal`]      | neighbour `<x,y>` coords (i32)| relative difference in final routing cost |
//! | [`ferret`]       | feature vectors (f32)         | 1 − |approx ∩ precise| / |precise| of search results |
//! | [`fluidanimate`] | particle state (f32)          | % particles in a different cell |
//! | [`swaptions`]    | input rate curves (f64)       | mean relative price error |
//! | [`x264`]         | reference-frame pixels (u8)   | PSNR and bit rate, weighted equally |
//!
//! Inputs are synthetic but mirror the properties the paper credits for
//! LVA's wins (e.g. blackscholes' spot price takes 4 values, two of which
//! cover 98% of options). All randomness is seeded; runs are deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

pub mod blackscholes;
pub mod bodytrack;
pub mod canneal;
pub mod ferret;
pub mod fluidanimate;
mod memo;
pub mod swaptions;
pub mod util;
pub mod x264;

pub use memo::{group_by_reference, run_grid, Lookup, PreciseMemo};

use lva_cpu::ThreadTrace;
use lva_sim::{MechanismKind, Phase1Stats, SimConfig, SimHarness};
use std::any::Any;

/// Input scale: how much work a kernel does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadScale {
    /// Seconds-fraction runs for unit tests.
    Test,
    /// The default experiment scale (the benches use this).
    #[default]
    Small,
    /// Longer runs for the full-system experiments.
    Medium,
}

/// A kernel with a typed output and the paper's error metric. Implementing
/// this gives you [`Workload`] (the object-safe experiment interface) for
/// free.
pub trait Kernel {
    /// The application's final output.
    type Output;

    /// Benchmark name as it appears in the paper's figures.
    fn name(&self) -> &'static str;

    /// Runs the kernel, routing every instrumented access through the
    /// harness.
    fn run(&self, harness: &mut SimHarness) -> Self::Output;

    /// The paper's application-level output-error metric, comparing an
    /// approximate run's output against the precise run's.
    fn output_error(&self, precise: &Self::Output, approx: &Self::Output) -> f64;
}

/// Results of executing a workload under some configuration, always paired
/// with a precise reference run of the same kernel (the paper normalizes
/// every figure to precise execution).
#[derive(Debug)]
pub struct WorkloadRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Phase-1 statistics of the (possibly approximate) run.
    pub stats: Phase1Stats,
    /// Phase-1 statistics of the precise reference run.
    pub precise_stats: Phase1Stats,
    /// Application output error versus the precise run (0.0 for precise).
    pub output_error: f64,
    /// Per-thread traces of the *precise* run, for phase-2 replay (empty
    /// unless [`SimConfig::record_traces`] is set).
    pub traces: Vec<ThreadTrace>,
    /// Per-core event-trace collectors of the (possibly approximate) run
    /// (all [`lva_obs::TraceCollector::Off`] unless [`SimConfig::trace`]
    /// is enabled).
    pub collectors: Vec<lva_obs::TraceCollector>,
    /// Per-thread epoch timelines of the (possibly approximate) run,
    /// sampled on each thread's `load_clock` (empty unless
    /// [`SimConfig::timeline`] is set).
    pub timelines: Vec<lva_obs::Timeline>,
    /// Per-thread governor reports of the (possibly approximate) run: both
    /// ladders' end state and the budget ladder's per-PC entries (empty
    /// unless [`SimConfig::govern`] is set).
    pub govern: Vec<lva_sim::GovernorReport>,
}

impl WorkloadRun {
    /// MPKI normalized to precise execution (the y-axis of Figs. 4, 6–8).
    #[must_use]
    pub fn normalized_mpki(&self) -> f64 {
        let base = self.precise_stats.mpki();
        if base == 0.0 {
            if self.stats.mpki() == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.stats.mpki() / base
        }
    }

    /// Blocks fetched, normalized to precise execution (Fig. 8b).
    #[must_use]
    pub fn normalized_fetches(&self) -> f64 {
        let base = self.precise_stats.fetches();
        if base == 0 {
            if self.stats.fetches() == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.stats.fetches() as f64 / base as f64
        }
    }

    /// Variation in dynamic instruction count versus precise execution
    /// (Table I's right column).
    #[must_use]
    pub fn instruction_variation(&self) -> f64 {
        let p = self.precise_stats.total.instructions as f64;
        if p == 0.0 {
            return 0.0;
        }
        (self.stats.total.instructions as f64 - p).abs() / p
    }
}

/// The precise configuration a run under `config` is normalized against:
/// `config` with the mechanism set to [`MechanismKind::Precise`] and every
/// tracing, robustness and supervisory knob switched off.
///
/// The precise reference run never traces, never degrades and never
/// injects faults: it is the ground truth every metric (and the quality
/// budget itself) is measured against, so those knobs must not leak into
/// it. Two configs with equal precise configs share one reference, which
/// is what lets a sweep memoize it.
#[must_use]
pub fn precise_config(config: &SimConfig) -> SimConfig {
    SimConfig {
        mechanism: MechanismKind::Precise,
        trace: lva_obs::TraceConfig::off(),
        faults: None,
        timeline: None,
        govern: None,
        ..config.clone()
    }
}

/// A kernel's precise run under some [`precise_config`]: the type-erased
/// output the error metric compares against, plus the run's statistics,
/// instruction traces and trace collectors.
///
/// Built by [`Workload::precise_reference`] and consumed by
/// [`Workload::execute_against`], which may be called any number of
/// times with configs sharing the same precise config — the split that
/// lets a sweep run the reference once per (kernel, scale, seed, precise
/// config) instead of once per point.
pub struct PreciseReference {
    /// The precise config this reference ran under.
    config: SimConfig,
    /// The kernel that produced it.
    kernel: &'static str,
    /// `Kernel::Output` of the precise run.
    output: Box<dyn Any + Send + Sync>,
    /// Phase-1 statistics of the precise run.
    pub stats: Phase1Stats,
    /// Per-thread instruction traces of the precise run (empty unless
    /// [`SimConfig::record_traces`] is set).
    pub traces: Vec<ThreadTrace>,
    /// Per-core trace collectors of the precise run (always
    /// [`lva_obs::TraceCollector::Off`]: the precise config never traces).
    collectors: Vec<lva_obs::TraceCollector>,
}

impl std::fmt::Debug for PreciseReference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreciseReference")
            .field("kernel", &self.kernel)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Object-safe workload interface used by the experiment harness: run under
/// a configuration, get stats + error back. `Send + Sync` so boxed
/// workloads can be shared across the sweep engine's worker threads
/// ([`lva_sim::sweep`]) — `execute` takes `&self` and each call builds
/// its own harness, so concurrent execution is safe by construction.
pub trait Workload: Send + Sync {
    /// Benchmark name.
    fn name(&self) -> &'static str;

    /// Runs the kernel precisely under [`precise_config`]`(config)`, for
    /// a reference that outlives the call (a memo entry): its output and
    /// statistics are copied below the freed harness on the heap, so
    /// holding it keeps no freed harness pages resident.
    fn precise_reference(&self, config: &SimConfig) -> PreciseReference;

    /// Runs the kernel under `config` and reports it against `reference`.
    /// When `config` is its own precise config, the reference itself is
    /// the run and the kernel does not run again.
    ///
    /// # Panics
    ///
    /// Panics if `reference` came from another kernel or another precise
    /// config. The input seed and scale are not recorded in a reference:
    /// pairing a reference with the right kernel instance is the
    /// caller's job.
    fn execute_against(&self, config: &SimConfig, reference: &PreciseReference) -> WorkloadRun;

    /// Runs the kernel twice — once precisely for the reference output and
    /// baseline statistics, once under `config` — and reports both. The
    /// composition of [`precise_reference`](Self::precise_reference) and
    /// [`execute_against`](Self::execute_against).
    fn execute(&self, config: &SimConfig) -> WorkloadRun;
}

impl<K> Workload for K
where
    K: Kernel + Send + Sync,
    K::Output: Clone + Send + Sync + 'static,
{
    fn name(&self) -> &'static str {
        Kernel::name(self)
    }

    fn precise_reference(&self, config: &SimConfig) -> PreciseReference {
        precise_run(self, config, true)
    }

    fn execute_against(&self, config: &SimConfig, reference: &PreciseReference) -> WorkloadRun {
        let mut run = run_against(self, config, reference);
        run.traces.clone_from(&reference.traces);
        run
    }

    fn execute(&self, config: &SimConfig) -> WorkloadRun {
        // The reference dies with this call: no copy to place.
        let reference = precise_run(self, config, false);
        let mut run = run_against(self, config, &reference);
        // The reference dies here, so its traces move instead of cloning.
        run.traces = reference.traces;
        run
    }
}

/// Runs `kernel` under [`precise_config`]`(config)`.
///
/// With `compact`, the output and the statistics are copied once the
/// harness is freed. They were allocated while the harness's memory was
/// live, so they sit above it on the heap, where a long-lived reference
/// keeps the allocator from returning the harness's freed pages (about
/// 0.9 MB of peak RSS on the serve benchmark); the copies land in that
/// freed space instead. A reference that dies with its call skips them.
fn precise_run<K>(kernel: &K, config: &SimConfig, compact: bool) -> PreciseReference
where
    K: Kernel,
    K::Output: Clone + Send + Sync + 'static,
{
    let config = precise_config(config);
    let mut harness = SimHarness::new(config.clone());
    let mut output = kernel.run(&mut harness);
    let mut run = harness.finish();
    if compact {
        output = output.clone();
        run.stats = run.stats.clone();
    }
    PreciseReference {
        config,
        kernel: kernel.name(),
        output: Box::new(output),
        stats: run.stats,
        traces: run.traces,
        collectors: run.collectors,
    }
}

/// [`Workload::execute_against`] without the precise traces, which the
/// callers clone or move in.
fn run_against<K>(kernel: &K, config: &SimConfig, reference: &PreciseReference) -> WorkloadRun
where
    K: Kernel,
    K::Output: 'static,
{
    let name = kernel.name();
    assert_eq!(
        reference.kernel, name,
        "precise reference belongs to another kernel"
    );
    let precise_out = reference
        .output
        .downcast_ref::<K::Output>()
        .expect("reference output has the kernel's output type");
    if *config == reference.config {
        // The config is its own precise config: the run *is* the
        // reference, so the kernel does not run a second time.
        return WorkloadRun {
            name,
            stats: reference.stats.clone(),
            precise_stats: reference.stats.clone(),
            output_error: kernel.output_error(precise_out, precise_out),
            traces: Vec::new(),
            collectors: reference.collectors.clone(),
            timelines: Vec::new(),
            govern: Vec::new(),
        };
    }
    assert!(
        precise_config(config) == reference.config,
        "precise reference ran under another precise config"
    );
    let mut harness = SimHarness::new(config.clone());
    let out = kernel.run(&mut harness);
    let run = harness.finish();
    WorkloadRun {
        name,
        stats: run.stats,
        precise_stats: reference.stats.clone(),
        output_error: kernel.output_error(precise_out, &out),
        traces: Vec::new(),
        collectors: run.collectors,
        timelines: run.timelines,
        govern: run.govern,
    }
}

/// Builds one benchmark from its input scale and seed.
type Constructor = fn(WorkloadScale, u64) -> Box<dyn Workload>;

/// The seven benchmarks by name, in the paper's figure order: the one
/// table [`WORKLOAD_NAMES`], [`workload_seeded`] and [`registry_seeded`]
/// are derived from.
const WORKLOADS: [(&str, Constructor); 7] = [
    ("blackscholes", |scale, seed| {
        Box::new(blackscholes::Blackscholes::with_seed(scale, seed))
    }),
    ("bodytrack", |scale, seed| {
        Box::new(bodytrack::Bodytrack::with_seed(scale, seed))
    }),
    ("canneal", |scale, seed| {
        Box::new(canneal::Canneal::with_seed(scale, seed))
    }),
    ("ferret", |scale, seed| {
        Box::new(ferret::Ferret::with_seed(scale, seed))
    }),
    ("fluidanimate", |scale, seed| {
        Box::new(fluidanimate::Fluidanimate::with_seed(scale, seed))
    }),
    ("swaptions", |scale, seed| {
        Box::new(swaptions::Swaptions::with_seed(scale, seed))
    }),
    ("x264", |scale, seed| {
        Box::new(x264::X264::with_seed(scale, seed))
    }),
];

/// The seven benchmark names, in the paper's figure order.
pub const WORKLOAD_NAMES: [&str; 7] = {
    let mut names = [""; 7];
    let mut i = 0;
    while i < WORKLOADS.len() {
        names[i] = WORKLOADS[i].0;
        i += 1;
    }
    names
};

/// All seven benchmarks at the given scale, in the paper's figure order.
#[must_use]
pub fn registry(scale: WorkloadScale) -> Vec<Box<dyn Workload>> {
    registry_seeded(scale, 0)
}

/// Like [`registry`], but perturbing every benchmark's input generation
/// with `seed`. The paper averages all measurements over 5 simulation
/// runs; sweeping `seed` over `0..5` reproduces that methodology.
#[must_use]
pub fn registry_seeded(scale: WorkloadScale, seed: u64) -> Vec<Box<dyn Workload>> {
    WORKLOADS
        .iter()
        .map(|(_, build)| build(scale, seed))
        .collect()
}

/// The one benchmark called `name` — the member of
/// [`registry_seeded`]`(scale, seed)` with that name, built alone — or
/// `None` for a name not in [`WORKLOAD_NAMES`].
#[must_use]
pub fn workload_seeded(scale: WorkloadScale, seed: u64, name: &str) -> Option<Box<dyn Workload>> {
    WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_perturb_inputs_but_not_structure() {
        use lva_sim::SimConfig;
        let a = registry_seeded(WorkloadScale::Test, 0);
        let b = registry_seeded(WorkloadScale::Test, 1);
        // blackscholes: same portfolio size, different option mix.
        let ra = a[0].execute(&SimConfig::precise());
        let rb = b[0].execute(&SimConfig::precise());
        assert_eq!(ra.stats.total.loads, rb.stats.total.loads);
        assert_ne!(
            ra.stats.total.raw_misses, 0,
            "seeded run must still execute"
        );
    }

    #[test]
    fn tracing_a_kernel_attributes_every_miss() {
        use lva_obs::{PcAttribution, TraceConfig};
        let wl = blackscholes::Blackscholes::with_seed(WorkloadScale::Test, 0);
        let cfg = lva_sim::SimConfig::baseline_lva().with_trace(TraceConfig::attribution());
        let run = wl.execute(&cfg);
        let mut merged = PcAttribution::new();
        for c in &run.collectors {
            if let Some(a) = c.attribution() {
                merged.merge(a);
            }
        }
        assert_eq!(merged.total_misses(), run.stats.total.raw_misses);
        assert!(merged.static_pcs() > 0, "kernel must touch annotated PCs");
        // The untraced reference run matches the traced one bit for bit.
        let plain = wl.execute(&lva_sim::SimConfig::baseline_lva());
        assert_eq!(plain.stats.fingerprint(), run.stats.fingerprint());
    }

    /// The configs the reference split must be invisible under: the
    /// reuse path (precise), the two mechanism families, and the two
    /// feedback controllers.
    fn split_configs() -> Vec<SimConfig> {
        use lva_core::{ApproximatorConfig, ClpConfig};
        vec![
            SimConfig::precise(),
            SimConfig::baseline_lva(),
            SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
            SimConfig::baseline_lva().with_error_budget(0.05),
            SimConfig::baseline_lva().with_govern_slo(0.02),
        ]
    }

    pub(crate) fn assert_same_run(a: &WorkloadRun, b: &WorkloadRun, what: &str) {
        assert_eq!(a.name, b.name, "{what}");
        assert_eq!(a.stats.fingerprint(), b.stats.fingerprint(), "{what}");
        assert_eq!(
            a.precise_stats.fingerprint(),
            b.precise_stats.fingerprint(),
            "{what}"
        );
        assert_eq!(a.output_error.to_bits(), b.output_error.to_bits(), "{what}");
        assert_eq!(a.traces, b.traces, "{what}");
        assert_eq!(a.collectors.len(), b.collectors.len(), "{what}");
        assert_eq!(a.govern.len(), b.govern.len(), "{what}");
        assert_eq!(a.timelines.len(), b.timelines.len(), "{what}");
    }

    #[test]
    fn execute_against_a_reference_equals_execute() {
        for wl in registry_seeded(WorkloadScale::Test, 3) {
            for (i, base) in split_configs().into_iter().enumerate() {
                for config in [base.clone(), base.with_traces()] {
                    let what = format!("{} under config {i}", wl.name());
                    let reference = wl.precise_reference(&config);
                    assert_eq!(reference.kernel, wl.name());
                    assert_eq!(reference.config, precise_config(&config));
                    let split = wl.execute_against(&config, &reference);
                    let whole = wl.execute(&config);
                    assert_same_run(&split, &whole, &what);
                    assert_eq!(
                        split.traces.iter().any(|t| !t.ops.is_empty()),
                        config.record_traces,
                        "{what}: traces follow record_traces"
                    );
                }
            }
        }
    }

    #[test]
    fn one_reference_serves_every_config_sharing_its_precise_config() {
        let wl = canneal::Canneal::with_seed(WorkloadScale::Test, 1);
        let reference = wl.precise_reference(&SimConfig::precise());
        for (i, config) in split_configs().iter().enumerate() {
            assert_same_run(
                &wl.execute_against(config, &reference),
                &wl.execute(config),
                &format!("config {i}"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "another precise config")]
    fn a_reference_under_another_value_delay_is_refused() {
        let wl = blackscholes::Blackscholes::with_seed(WorkloadScale::Test, 0);
        let reference = wl.precise_reference(&SimConfig::precise());
        let mut config = SimConfig::baseline_lva();
        config.value_delay += 1;
        let _ = wl.execute_against(&config, &reference);
    }

    #[test]
    #[should_panic(expected = "another kernel")]
    fn a_reference_from_another_kernel_is_refused() {
        let reference = blackscholes::Blackscholes::with_seed(WorkloadScale::Test, 0)
            .precise_reference(&SimConfig::precise());
        let _ = swaptions::Swaptions::with_seed(WorkloadScale::Test, 0)
            .execute_against(&SimConfig::precise(), &reference);
    }

    #[test]
    fn by_name_kernels_equal_their_registry_twins() {
        let config = SimConfig::baseline_lva();
        for (twin, name) in registry_seeded(WorkloadScale::Test, 2)
            .into_iter()
            .zip(WORKLOAD_NAMES)
        {
            let alone = workload_seeded(WorkloadScale::Test, 2, name).expect("known name");
            assert_eq!(alone.name(), name);
            assert_eq!(twin.name(), name);
            assert_eq!(
                alone.execute(&config).stats.fingerprint(),
                twin.execute(&config).stats.fingerprint(),
                "{name}"
            );
        }
        assert!(workload_seeded(WorkloadScale::Test, 0, "nonesuch").is_none());
    }

    #[test]
    fn registry_matches_paper_benchmarks() {
        let names: Vec<_> = registry(WorkloadScale::Test)
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "blackscholes",
                "bodytrack",
                "canneal",
                "ferret",
                "fluidanimate",
                "swaptions",
                "x264"
            ]
        );
    }
}
