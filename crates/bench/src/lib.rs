//! Shared infrastructure for the experiment benches.
//!
//! Every table and figure of the paper has a bench target under
//! `benches/`. Each phase-1 bench evaluates its configurations with one
//! [`sweep_grid`] call, and each full-system bench replays its machines
//! with one [`fullsystem_grid`] call. Every bench except fig13 prints its
//! tables through one [`FigureManifest`], which records them into
//! `BENCH_<id>.json` for `lva-explore compare` and `plot --from-json`.
//! Run them all with `cargo bench`, or one with
//! `cargo bench --bench fig4_ghb_mpki`.
//!
//! Three environment variables steer them:
//!
//! * `LVA_SCALE=test|small|medium` — workload scale, default
//!   [`WorkloadScale::Small`] (`test` finishes in seconds and is what CI
//!   uses);
//! * `LVA_RUNS=<n>` — seeded runs each phase-1 value averages, default 1
//!   (the paper uses 5);
//! * `LVA_BENCH_DIR=<dir>` — where manifests land, default the working
//!   directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

pub mod manifest;
pub mod svg;

pub use manifest::FigureManifest;

pub use lva_workloads::{registry, registry_seeded, Workload, WorkloadRun, WorkloadScale};

use lva_core::ApproximatorConfig;
use lva_sim::sweep::{run_fullsystem_grid, SweepOptions};
use lva_sim::{FullSystemConfig, FullSystemStats, MechanismKind, SimConfig};

/// Benchmark names in the paper's figure order.
pub const BENCHMARKS: [&str; 7] = [
    "blackscholes",
    "bodytrack",
    "canneal",
    "ferret",
    "fluidanimate",
    "swaptions",
    "x264",
];

/// Reads the workload scale from `LVA_SCALE` (default: small).
#[must_use]
pub fn scale_from_env() -> WorkloadScale {
    match std::env::var("LVA_SCALE").as_deref() {
        Ok("test") => WorkloadScale::Test,
        Ok("medium") => WorkloadScale::Medium,
        _ => WorkloadScale::Small,
    }
}

/// Prints the standard experiment banner.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!();
    println!("==============================================================================");
    println!("{experiment}");
    println!("  reproduces: {paper_ref}");
    println!(
        "  scale: {:?} (LVA_SCALE=test|small|medium)",
        scale_from_env()
    );
    println!("==============================================================================");
}

/// One labelled series across the seven benchmarks (one figure line/bar
/// group).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"LVA-GHB-2"`.
    pub label: String,
    /// One value per benchmark, in [`BENCHMARKS`] order, plus the mean.
    pub values: Vec<f64>,
}

impl Series {
    /// Creates a series from per-benchmark values.
    #[must_use]
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Series {
            label: label.into(),
            values,
        }
    }

    /// Arithmetic mean over the benchmarks.
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// Number of seeded simulation runs to average, from `LVA_RUNS`
/// (default 1; the paper uses 5).
#[must_use]
pub(crate) fn runs_from_env() -> usize {
    std::env::var("LVA_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// A fully evaluated `configs x seeds x workloads` grid.
#[derive(Debug)]
pub struct GridResults {
    /// Seeded runs per (configuration, workload) point.
    pub seeds: usize,
    /// Every run, configuration-major, then seed, then workload in
    /// [`BENCHMARKS`] order.
    pub runs: Vec<WorkloadRun>,
}

impl GridResults {
    /// Configuration `c`'s `metric` for each benchmark, averaged over the
    /// seeds — the paper's multi-run methodology.
    #[must_use]
    pub fn series(
        &self,
        c: usize,
        label: impl Into<String>,
        metric: impl Fn(&WorkloadRun) -> f64,
    ) -> Series {
        let n = BENCHMARKS.len();
        let point = &self.runs[c * self.seeds * n..][..self.seeds * n];
        let values = (0..n)
            .map(|w| {
                let mut per_seed = point.iter().skip(w).step_by(n).map(&metric);
                let first = per_seed.next().expect("at least one seed");
                per_seed.fold(first, |sum, v| sum + v) / self.seeds as f64
            })
            .collect();
        Series::new(label, values)
    }

    /// One [`series`](Self::series) per configuration, in grid order,
    /// labelled by `labels`.
    #[must_use]
    pub fn table<L: Into<String>>(
        &self,
        labels: impl IntoIterator<Item = L>,
        metric: impl Fn(&WorkloadRun) -> f64,
    ) -> Vec<Series> {
        labels
            .into_iter()
            .enumerate()
            .map(|(c, label)| self.series(c, label, &metric))
            .collect()
    }
}

/// Evaluates `configs` on every benchmark for `LVA_RUNS` seeds in one
/// [`run_grid`](lva_workloads::run_grid) sweep — the phase-1 benches' one
/// entry onto the engine, sharing each (benchmark, seed) precise
/// reference across the configs.
/// Grid order is preserved regardless of the worker count; set
/// `LVA_THREADS=1` to force a serial run. The timing summary is printed
/// to stderr so figure output stays clean.
#[must_use]
pub fn sweep_grid(scale: WorkloadScale, configs: &[SimConfig]) -> GridResults {
    seeded_grid(scale, runs_from_env(), configs)
}

fn seeded_grid(scale: WorkloadScale, seeds: usize, configs: &[SimConfig]) -> GridResults {
    let workloads: Vec<_> = (0..seeds as u64)
        .flat_map(|s| registry_seeded(scale, s))
        .collect();
    let run = lva_workloads::run_grid(configs, &workloads, &SweepOptions::default());
    eprintln!("  sweep: {}", run.summary());
    GridResults {
        seeds,
        runs: run.into_values(),
    }
}

/// Figs. 10–11's approximation degrees.
pub const FULLSYSTEM_DEGREES: [u32; 5] = [0, 2, 4, 8, 16];

/// Figs. 10–11's machines: precise, then LVA at each of
/// [`FULLSYSTEM_DEGREES`].
#[must_use]
pub fn fullsystem_degree_configs() -> Vec<FullSystemConfig> {
    std::iter::once(MechanismKind::Precise)
        .chain(FULLSYSTEM_DEGREES.map(|d| MechanismKind::Lva(ApproximatorConfig::with_degree(d))))
        .map(FullSystemConfig::paper)
        .collect()
}

/// Replays every benchmark's precise traces on each of `configs` in one
/// [`run_fullsystem_grid`] sweep — the phase-2 benches' one entry onto
/// the engine. Row `c` holds config `c`'s stats, one per benchmark in
/// [`BENCHMARKS`] order, for any worker count. The timing summary is
/// printed to stderr so figure output stays clean.
///
/// The traces are recorded one scale below `scale`, mirroring the
/// paper's drop from simlarge to simmedium inputs for full-system
/// simulation (§V-B).
///
/// # Panics
///
/// Panics if a config is refused or a replay exceeds its cycle limit.
#[must_use]
pub fn fullsystem_grid(
    scale: WorkloadScale,
    configs: &[FullSystemConfig],
) -> Vec<Vec<FullSystemStats>> {
    let scale = match scale {
        WorkloadScale::Medium => WorkloadScale::Small,
        _ => WorkloadScale::Test,
    };
    let trace_sets: Vec<_> = registry(scale)
        .iter()
        .map(|w| w.execute(&SimConfig::precise().with_traces()).traces)
        .collect();
    let run = run_fullsystem_grid(configs, &trace_sets, &SweepOptions::default());
    eprintln!("  fullsystem sweep: {}", run.summary());
    let mut values = run.into_values().into_iter();
    configs
        .iter()
        .map(|_| values.by_ref().take(trace_sets.len()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_mean() {
        let s = Series::new("x", vec![1.0, 2.0, 3.0]);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(Series::new("y", vec![]).mean(), 0.0);
    }

    #[test]
    fn grid_series_average_the_per_seed_runs() {
        let cfg = SimConfig::baseline_lva();
        let metric = |r: &WorkloadRun| r.normalized_mpki();
        let seeded = |seed, name| {
            metric(
                &lva_workloads::workload_seeded(WorkloadScale::Test, seed, name)
                    .expect("known benchmark")
                    .execute(&cfg),
            )
        };

        let two = seeded_grid(WorkloadScale::Test, 2, std::slice::from_ref(&cfg));
        let want: Vec<f64> = BENCHMARKS
            .iter()
            .map(|b| (seeded(0, b) + seeded(1, b)) / 2.0)
            .collect();
        assert_eq!(two.series(0, "lva", metric).values, want);

        let one = seeded_grid(WorkloadScale::Test, 1, std::slice::from_ref(&cfg));
        let plain: Vec<f64> = registry(WorkloadScale::Test)
            .iter()
            .map(|w| metric(&w.execute(&cfg)))
            .collect();
        assert_eq!(one.series(0, "lva", metric).values, plain);
        assert_ne!(want, plain, "seed 1 must move the average");
    }

    #[test]
    fn benchmarks_match_registry() {
        let names: Vec<_> = registry(WorkloadScale::Test)
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, BENCHMARKS.to_vec());
    }
}
