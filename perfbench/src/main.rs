//! Host-time benchmark of the LVA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <phase1|fullsystem|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload sets itself up, runs one untimed warm-up pass, then times
//! passes for `S` seconds (with further set-ups spread between them) and
//! reports the fast end of the pass and set-up times. With
//! `--trace 1` it times
//! the same passes again with spans around each layer call, reports the
//! difference as the tracing overhead, and profiles the other workloads'
//! layers too, so that every traced run carries every per-layer metric.
//! Every pass is checked against pinned or self-reproduced simulated
//! results; the last line of standard output is the JSON result. See
//! `perfbench/README.md`.

mod fullsys;
mod measure;
mod phase1;
mod pins;
mod serve;

use measure::{
    calib_ms, median, metric, peak_rss_mb, quantile, secs, Gate, Metric, Sample, FAST_QUANTILE,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Traced passes run when another workload's traced run profiles
    /// this workload's layers.
    const PROFILE_PASSES: usize;

    /// Builds the inputs and services a pass needs (timed as `setup_s`).
    /// `dir` is an empty directory this instance may write to.
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;

    /// One closed-loop operation; `Err` names an output that was wrong.
    /// With `traced`, also records spans around the layer calls.
    fn pass(&mut self, traced: bool) -> Result<Sample, String>;

    /// Per-layer metrics from the spans of the traced passes so far.
    fn layers(&mut self) -> Result<Vec<Metric>, String>;

    /// `(throughput, latency_ms)` of a run's passes.
    fn estimate(samples: &[Sample]) -> (f64, f64) {
        measure::estimate(samples)
    }
}

/// Set-ups per run. The first builds the instance the passes use; the
/// others are spread evenly over the untraced passes, so that `setup_s`
/// samples the same host conditions as the passes rather than only the
/// first milliseconds of the process. `setup_s` is their fast end, like
/// every other time: their median followed the host's load, drifting by
/// a third between two ten-run sets whose pass times moved a tenth.
const SETUP_REPS: usize = 21;
/// Calibration loops at each end of a run.
const CALIB_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A working directory inside the current directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Result<Self, String> {
        let dir =
            PathBuf::from(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only once no concurrent run uses it.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <phase1|fullsystem|serve> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut gate = Gate::default();
    let result = match args.workload.as_str() {
        "phase1" => run::<phase1::Phase1>(&args, &scratch.0, &mut gate),
        "fullsystem" => run::<fullsys::FullSys>(&args, &scratch.0, &mut gate),
        "serve" => run::<serve::Serve>(&args, &scratch.0, &mut gate),
        other => Err(format!("unknown workload {other}")),
    };
    drop(scratch);
    match result {
        Ok(metrics) => {
            for m in &metrics {
                eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", measure::result_line(&gate, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run<W: Workload>(args: &Args, dir: &Path, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    let mut calib: Vec<f64> = (0..CALIB_REPS).map(|_| calib_ms()).collect();

    let t = Instant::now();
    let mut w = W::setup(args.seed, &dir.join("setup-0"))?;
    let mut setup_s = vec![secs(t)];
    gate.record(w.pass(false));

    let plain = timed(&mut w, args.seconds, false, gate, |elapsed| {
        if setup_s.len() < SETUP_REPS
            && elapsed >= args.seconds * setup_s.len() as f64 / SETUP_REPS as f64
        {
            let d = dir.join(format!("setup-{}", setup_s.len()));
            let t = Instant::now();
            let extra = W::setup(args.seed, &d)?;
            setup_s.push(secs(t));
            drop(extra);
        }
        Ok(())
    })?;
    let (throughput, latency_ms) = W::estimate(&plain);
    if !args.trace {
        calib.extend((0..CALIB_REPS).map(|_| calib_ms()));
        eprintln!(
            "perfbench: {} seed {} — {} passes of {} work, calib {:.2} ms",
            W::NAME,
            args.seed,
            plain.len(),
            plain.first().map_or(0.0, |s| s.work),
            median(&calib)
        );
        return Ok(vec![
            metric("throughput", throughput, "1/s"),
            metric("latency_ms", latency_ms, "ms"),
            metric("setup_s", quantile(&setup_s, FAST_QUANTILE), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]);
    }

    let traced = timed(&mut w, args.seconds, true, gate, |_| Ok(()))?;
    let (traced_throughput, traced_latency_ms) = W::estimate(&traced);
    let mut m = gate.record(w.layers()).unwrap_or_default();
    drop(w);
    // Every traced run carries every layer: the other workloads' layers
    // are profiled here with a few traced passes each.
    if W::NAME != phase1::Phase1::NAME {
        m.extend(profile::<phase1::Phase1>(args.seed, dir, gate));
    }
    if W::NAME != fullsys::FullSys::NAME {
        m.extend(profile::<fullsys::FullSys>(args.seed, dir, gate));
    }
    if W::NAME != serve::Serve::NAME {
        m.extend(profile::<serve::Serve>(args.seed, dir, gate));
    }
    calib.extend((0..CALIB_REPS).map(|_| calib_ms()));
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    m.extend([
        metric(
            "trace_overhead.throughput",
            traced_throughput - throughput,
            "1/s",
        ),
        metric(
            "trace_overhead.latency_ms",
            traced_latency_ms - latency_ms,
            "ms",
        ),
        metric("host.calib_ms", median(&calib), "ms"),
        metric("env.nproc", nproc as f64, "count"),
        metric(
            "env.dispatch_threads",
            fullsys::DISPATCH_THREADS as f64,
            "count",
        ),
        metric("env.sched_workers", serve::SCHED_WORKERS as f64, "count"),
        metric("env.connections", serve::CONNECTIONS as f64, "count"),
    ]);
    Ok(m)
}

/// Passes until `seconds` have elapsed (at least one), calling
/// `between` with the elapsed seconds after each.
fn timed<W: Workload>(
    w: &mut W,
    seconds: f64,
    traced: bool,
    gate: &mut Gate,
    mut between: impl FnMut(f64) -> Result<(), String>,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        samples.extend(gate.record(w.pass(traced)));
        let elapsed = secs(start);
        between(elapsed)?;
        if elapsed >= seconds {
            return Ok(samples);
        }
    }
}

fn profile<W: Workload>(seed: u64, dir: &Path, gate: &mut Gate) -> Vec<Metric> {
    let Some(mut w) = gate.record(W::setup(seed, &dir.join(format!("profile-{}", W::NAME)))) else {
        return Vec::new();
    };
    gate.record(w.pass(false));
    for _ in 0..W::PROFILE_PASSES {
        gate.record(w.pass(true));
    }
    gate.record(w.layers()).unwrap_or_default()
}
