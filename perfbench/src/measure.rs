//! Measurement plumbing shared by the three workloads: samples and their
//! estimators, the correctness gate, host probes and the result line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Quantile used as the fast-end estimator of host times.
///
/// Host interference on a shared sandbox only ever adds time, and it
/// comes and goes on a sub-second scale, so the fast end of a part's time
/// distribution over a run tracks the program rather than its neighbours.
/// In a busy period the fast windows are rare, so the estimate sits close
/// to the minimum; the 2nd percentile still keeps one lucky sample from
/// setting it once a run holds more than fifty.
pub const FAST_QUANTILE: f64 = 0.02;

/// Parts of one pass: one per kernel (or per trace), in registry order.
pub const PARTS: usize = 7;

/// One timed pass, split into per-kernel parts so that each part's fast
/// end is estimated from short spans, which a burst of interference
/// spoils less often than a whole pass.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Host seconds of each part of the pass.
    pub parts: [f64; PARTS],
    /// Simulated work the parts complete; the same on every pass.
    pub work: f64,
    /// Host seconds of each request whose round trip `latency_ms`
    /// measures, for a workload whose latency is not the pass itself.
    pub round_trips: Vec<f64>,
}

/// `(throughput, latency_ms)` of a pass: the work over the summed fast
/// ends of the parts, and that sum itself.
pub fn estimate(samples: &[Sample]) -> (f64, f64) {
    let pass_s: f64 = (0..PARTS)
        .map(|k| {
            let times: Vec<f64> = samples.iter().map(|s| s.parts[k]).collect();
            quantile(&times, FAST_QUANTILE)
        })
        .sum();
    let work = samples.first().map_or(0.0, |s| s.work);
    (work / pass_s, pass_s * 1e3)
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Counts operations and the ones whose outputs were wrong.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// Records one operation; an `Err` names what was wrong.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: operation failed: {e}");
                None
            }
        }
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (0 when
/// empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// FNV-1a 64 — the hash the repository pins its own fingerprints with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed, program-independent compute loop in milliseconds: if it runs
/// slow, the host was slow, whatever the program did.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..2_000_000u64 {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    black_box(x);
    secs(start) * 1e3
}

/// Renders the result object the benchmark prints as its last line.
pub fn result_line(gate: &Gate, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.failed == 0,
        gate.attempted,
        gate.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        // JSON has no NaN or infinity; a metric that could not be formed
        // reads 0 and its run is already marked failed by the caller.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}
