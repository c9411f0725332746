//! Shared infrastructure for the experiment benches.
//!
//! Every table and figure of the paper has a bench target under
//! `benches/`; each prints the same rows/series the paper reports, using
//! the helpers here for consistent formatting. Run them all with
//! `cargo bench`, or one with `cargo bench --bench fig4_ghb_mpki`.
//!
//! The workload scale defaults to [`WorkloadScale::Small`]; set
//! `LVA_SCALE=test|small|medium` to override (the `test` scale finishes in
//! seconds and is what CI uses).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod svg;

pub use manifest::FigureManifest;

pub use lva_workloads::{registry, registry_seeded, Workload, WorkloadRun, WorkloadScale};

use lva_sim::sweep::{run_sweep, SweepOptions};
use lva_sim::{SimConfig, SweepSummary};

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
    println!("  scale: {:?} (LVA_SCALE=test|small|medium)", scale_from_env());
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
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// Prints a figure-style table: benchmarks as columns, series as rows,
/// with a trailing mean column (the paper reports averages everywhere).
/// When `LVA_CSV=<dir>` is set, the same table is also written to
/// `<dir>/<value_name>.csv` (slugified) for plotting.
pub fn print_series_table(value_name: &str, series: &[Series]) {
    if let Ok(dir) = std::env::var("LVA_CSV") {
        if let Err(e) = write_series_csv(&dir, value_name, series) {
            eprintln!("  (csv export failed: {e})");
        }
    }
    let label_w = series
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(8)
        .max(value_name.len())
        + 2;
    print!("{:label_w$}", value_name);
    for b in BENCHMARKS {
        print!("{:>13}", &b[..b.len().min(12)]);
    }
    println!("{:>13}", "mean");
    for s in series {
        print!("{:label_w$}", s.label);
        for v in &s.values {
            print!("{:>13.4}", v);
        }
        println!("{:>13.4}", s.mean());
    }
}

/// Writes one series table as `<dir>/<name>.csv`: a header row of
/// benchmark names, then one row per series.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn write_series_csv(
    dir: &str,
    value_name: &str,
    series: &[Series],
) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let slug: String = value_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = std::path::Path::new(dir).join(format!("{slug}.csv"));
    let mut f = std::fs::File::create(&path)?;
    write!(f, "series")?;
    for b in BENCHMARKS {
        write!(f, ",{b}")?;
    }
    writeln!(f, ",mean")?;
    for s in series {
        write!(f, "{}", s.label.replace(',', ";"))?;
        for v in &s.values {
            write!(f, ",{v}")?;
        }
        writeln!(f, ",{}", s.mean())?;
    }
    eprintln!("  csv: {}", path.display());
    Ok(())
}

/// Runs every benchmark under `config` and extracts one value per
/// benchmark with `metric`. The seven workloads run in parallel on the
/// sweep engine; results come back in [`BENCHMARKS`] order regardless
/// of worker count (`LVA_THREADS` overrides the default parallelism).
#[must_use]
pub fn sweep(
    scale: WorkloadScale,
    config: &SimConfig,
    metric: impl Fn(&WorkloadRun) -> f64 + Sync,
) -> Vec<f64> {
    let workloads = registry(scale);
    run_sweep(&workloads, &SweepOptions::default(), |_, w| {
        metric(&w.execute(config))
    })
    .into_values()
}

/// Number of seeded simulation runs to average, from `LVA_RUNS`
/// (default 1; the paper uses 5).
#[must_use]
pub fn runs_from_env() -> u64 {
    std::env::var("LVA_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Runs every benchmark under `config` for `LVA_RUNS` seeds and averages
/// `metric` per benchmark — the paper's 5-run averaging methodology.
/// The full `seed x workload` grid fans out on the sweep engine; the
/// averaged result is identical for any worker count.
#[must_use]
pub fn sweep_averaged(
    scale: WorkloadScale,
    config: &SimConfig,
    metric: impl Fn(&WorkloadRun) -> f64 + Sync,
) -> Vec<f64> {
    let runs = runs_from_env();
    let registries: Vec<_> = (0..runs).map(|seed| registry_seeded(scale, seed)).collect();
    let grid: Vec<(usize, usize)> = (0..runs as usize)
        .flat_map(|s| (0..BENCHMARKS.len()).map(move |w| (s, w)))
        .collect();
    let values = run_sweep(&grid, &SweepOptions::default(), |_, &(s, w)| {
        metric(&registries[s][w].execute(config))
    })
    .into_values();
    let mut totals = vec![0.0; BENCHMARKS.len()];
    for (&(_, w), v) in grid.iter().zip(&values) {
        totals[w] += v;
    }
    totals.iter().map(|t| t / runs as f64).collect()
}

/// A fully evaluated configuration grid: one row of [`WorkloadRun`]s per
/// configuration (in [`BENCHMARKS`] order), plus the engine's timing
/// summary.
#[derive(Debug)]
pub struct GridResults {
    /// `rows[c][w]` = workload `w` under configuration `c`.
    pub rows: Vec<Vec<WorkloadRun>>,
    /// Sweep timing report (points, workers, wall/cpu time).
    pub summary: SweepSummary,
}

/// Evaluates the full `configs x workloads` cross product in one
/// parallel sweep — the bench figures' main entry point onto the
/// engine. Grid order (config-major, workload-minor) is preserved
/// regardless of the worker count; set `LVA_THREADS=1` to force a
/// serial run. The timing summary is printed to stderr so figure
/// output stays clean.
#[must_use]
pub fn sweep_grid(scale: WorkloadScale, configs: &[SimConfig]) -> GridResults {
    let workloads = registry(scale);
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    let run = run_sweep(&grid, &SweepOptions::default(), |_, &(c, w)| {
        workloads[w].execute(&configs[c])
    });
    let summary = run.summary();
    eprintln!("  sweep: {summary}");
    let mut values = run.into_values().into_iter();
    let rows = (0..configs.len())
        .map(|_| (0..workloads.len()).map(|_| values.next().expect("grid size")).collect())
        .collect();
    GridResults { rows, summary }
}

/// The scale used for full-system (phase-2) experiments: one notch below
/// the phase-1 scale, mirroring the paper's drop from simlarge to
/// simmedium inputs for full-system simulation (§V-B).
#[must_use]
pub fn fullsystem_scale(scale: WorkloadScale) -> WorkloadScale {
    match scale {
        WorkloadScale::Medium => WorkloadScale::Small,
        _ => WorkloadScale::Test,
    }
}

/// Records the per-thread traces of every benchmark (precise run) at the
/// full-system scale derived from `scale`.
#[must_use]
pub fn fullsystem_suite(
    scale: WorkloadScale,
) -> Vec<(&'static str, Vec<lva_cpu::ThreadTrace>)> {
    registry(fullsystem_scale(scale))
        .iter()
        .map(|w| {
            let run = w.execute(&SimConfig::precise().with_traces());
            (w.name(), run.traces)
        })
        .collect()
}

/// Replays traces on the Table II machine under `mechanism`.
///
/// # Panics
///
/// Panics if the protocol deadlocks (exceeds the cycle guard) — which
/// would be a simulator bug worth crashing loudly on.
#[must_use]
pub fn run_fullsystem(
    traces: Vec<lva_cpu::ThreadTrace>,
    mechanism: lva_sim::MechanismKind,
) -> lva_sim::FullSystemStats {
    lva_sim::FullSystem::new(lva_sim::FullSystemConfig::paper(mechanism), traces)
        .run()
        .expect("full-system simulation converges")
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
    fn csv_export_round_trips() {
        let dir = std::env::temp_dir().join("lva_csv_test");
        let series = [Series::new("a,b", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])];
        write_series_csv(dir.to_str().expect("utf8"), "norm MPKI", &series)
            .expect("csv writes");
        let text = std::fs::read_to_string(dir.join("norm_MPKI.csv")).expect("csv exists");
        assert!(text.starts_with("series,blackscholes"));
        assert!(text.contains("a;b,1,2,3,4,5,6,7,4"));
        let _ = std::fs::remove_dir_all(dir);
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
