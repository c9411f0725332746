//! `phase1`: the seven kernels run as the mechanism alone
//! (`SimHarness::new` → `Kernel::run` → `finish`, no precise reference)
//! under baseline LVA with the governor holding a 2% SLO.
//!
//! Both halves of the harness are in the pass: canneal misses on about a
//! quarter of its loads and drives the approximator, training drains and
//! governor actuations, while fluidanimate almost never misses and drives
//! the L1 fast path, `SetAssocCache` and `SimMemory`.

use crate::measure::{fnv1a, median, metric, secs, Metric, Sample, PARTS};
use crate::pins;
use crate::Workload;
use lva_core::{Addr, ApproximatorConfig, LoadValueApproximator, Pc, Value, ValueType};
use lva_cpu::TraceOp;
use lva_mem::{AccessResult, SetAssocCache, SimMemory};
use lva_sim::{GovernorConfig, Phase1Stats, SimConfig, SimHarness};
use lva_workloads::{
    blackscholes::Blackscholes, bodytrack::Bodytrack, canneal::Canneal, ferret::Ferret,
    fluidanimate::Fluidanimate, swaptions::Swaptions, x264::X264, Kernel, WorkloadScale,
};
use std::fmt::Debug;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The kernel names in registry order.
pub const KERNELS: [&str; 7] = [
    "blackscholes",
    "bodytrack",
    "canneal",
    "ferret",
    "fluidanimate",
    "swaptions",
    "x264",
];

/// Replays of a recorded load stream per layer estimate; the median is
/// reported.
const REPLAYS: usize = 5;

/// A kernel with its typed output erased, so the seven can share a loop.
pub trait AnyKernel: Send + Sync {
    fn run_boxed(&self, harness: &mut SimHarness) -> Box<dyn Debug>;
}

impl<K> AnyKernel for K
where
    K: Kernel + Send + Sync,
    K::Output: Debug + 'static,
{
    fn run_boxed(&self, harness: &mut SimHarness) -> Box<dyn Debug> {
        Box::new(self.run(harness))
    }
}

/// Kernel `index` (registry order) at Test scale, its inputs generated
/// from `seed`.
pub fn kernel(index: usize, seed: u64) -> Box<dyn AnyKernel> {
    let s = WorkloadScale::Test;
    match index {
        0 => Box::new(Blackscholes::with_seed(s, seed)),
        1 => Box::new(Bodytrack::with_seed(s, seed)),
        2 => Box::new(Canneal::with_seed(s, seed)),
        3 => Box::new(Ferret::with_seed(s, seed)),
        4 => Box::new(Fluidanimate::with_seed(s, seed)),
        5 => Box::new(Swaptions::with_seed(s, seed)),
        _ => Box::new(X264::with_seed(s, seed)),
    }
}

pub fn kernels(seed: u64) -> Vec<Box<dyn AnyKernel>> {
    (0..KERNELS.len()).map(|i| kernel(i, seed)).collect()
}

/// Runs `kernel` as the mechanism alone; returns the statistics and the
/// output.
pub fn run_alone(kernel: &dyn AnyKernel, config: &SimConfig) -> (Phase1Stats, Box<dyn Debug>) {
    let mut h = SimHarness::new(config.clone());
    let out = kernel.run_boxed(&mut h);
    (h.finish().stats, out)
}

/// Host-time spans of one traced pass, per kernel.
#[derive(Debug, Default, Clone)]
struct PassSpans {
    new_s: [f64; 7],
    run_s: [f64; 7],
    finish_s: [f64; 7],
}

pub struct Phase1 {
    seed: u64,
    config: SimConfig,
    kernels: Vec<Box<dyn AnyKernel>>,
    /// Per-kernel FNV-1a of `Phase1Stats::fingerprint()`: the pinned
    /// values for a pinned seed, else the first pass's.
    fingerprints: Option<Vec<u64>>,
    /// Per-kernel FNV-1a of the kernel output's `Debug` rendering, from
    /// the first pass.
    outputs: Option<Vec<u64>>,
    last: Vec<Phase1Stats>,
    spans: Vec<PassSpans>,
}

impl Workload for Phase1 {
    const NAME: &'static str = "phase1";
    const PROFILE_PASSES: usize = 20;

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        Ok(Phase1 {
            seed,
            config: SimConfig::baseline_lva().with_govern(GovernorConfig::slo(0.02)),
            kernels: kernels(seed),
            fingerprints: pins::phase1(seed),
            outputs: None,
            last: Vec::new(),
            spans: Vec::new(),
        })
    }

    fn pass(&mut self, traced: bool) -> Result<Sample, String> {
        let mut stats = Vec::with_capacity(KERNELS.len());
        let mut outs = Vec::with_capacity(KERNELS.len());
        let mut spans = PassSpans::default();
        let mut parts = [0.0; PARTS];
        for (i, k) in self.kernels.iter().enumerate() {
            let t0 = Instant::now();
            if traced {
                let mut h = SimHarness::new(self.config.clone());
                let t1 = Instant::now();
                let out = k.run_boxed(&mut h);
                let t2 = Instant::now();
                let run = h.finish();
                spans.new_s[i] = (t1 - t0).as_secs_f64();
                spans.run_s[i] = (t2 - t1).as_secs_f64();
                spans.finish_s[i] = secs(t2);
                stats.push(run.stats);
                outs.push(out);
            } else {
                let (s, out) = run_alone(k.as_ref(), &self.config);
                stats.push(s);
                outs.push(out);
            }
            parts[i] = secs(t0);
        }
        if traced {
            self.spans.push(spans);
        }

        let fps: Vec<u64> = stats
            .iter()
            .map(|s| fnv1a(s.fingerprint().as_bytes()))
            .collect();
        let out_hashes: Vec<u64> = outs
            .iter()
            .map(|o| fnv1a(format!("{o:?}").as_bytes()))
            .collect();
        let loads: u64 = stats.iter().map(|s| s.total.loads).sum();
        self.last = stats;
        check_each(
            "phase1 stats fingerprint",
            &mut self.fingerprints,
            &fps,
            self.seed,
        )?;
        check_each("phase1 output", &mut self.outputs, &out_hashes, self.seed)?;
        Ok(Sample {
            parts,
            work: loads as f64,
            round_trips: Vec::new(),
        })
    }

    fn layers(&mut self) -> Result<Vec<Metric>, String> {
        let mut m = Vec::new();
        let per_pass = |f: &dyn Fn(&PassSpans) -> f64| -> f64 {
            median(&self.spans.iter().map(f).collect::<Vec<_>>())
        };
        let loads: u64 = self.last.iter().map(|s| s.total.loads).sum();
        m.push(metric(
            "harness.new_us",
            per_pass(&|p| p.new_s.iter().sum::<f64>() * 1e6),
            "us",
        ));
        m.push(metric(
            "harness.finish_us",
            per_pass(&|p| p.finish_s.iter().sum::<f64>() * 1e6),
            "us",
        ));
        let mut run_ms = 0.0;
        for (i, name) in KERNELS.iter().enumerate() {
            let v = per_pass(&|p| p.run_s[i] * 1e3);
            run_ms += v;
            m.push(metric(format!("harness.run_ms.{name}"), v, "ms"));
        }
        m.push(metric(
            "harness.ns_per_load",
            per_pass(&|p| p.run_s.iter().sum::<f64>() * 1e9 / loads as f64),
            "ns",
        ));

        // Replay the pass's own load stream through the memory layers.
        let mut replay_ms = 0.0;
        for (i, name) in KERNELS.iter().enumerate() {
            let rec = self.record(i)?;
            let cache_ns = median(&repeat(|| rec.replay_cache()));
            let read_ns = median(&repeat(|| rec.replay_reads()));
            replay_ms += rec.loads.len() as f64 * (cache_ns + read_ns) / 1e6;
            if matches!(*name, "canneal" | "fluidanimate") {
                m.push(metric(
                    format!("mem.cache_access_ns.{name}"),
                    cache_ns,
                    "ns",
                ));
                m.push(metric(format!("mem.memory_read_ns.{name}"), read_ns, "ns"));
            }
            if *name == "canneal" {
                let misses = rec.approx_misses();
                let ns = median(&repeat(|| replay_approximator(&misses)));
                m.push(metric("core.approx_miss_ns.canneal", ns, "ns"));
            }
        }
        m.push(metric("harness.residual_ms", run_ms - replay_ms, "ms"));

        let sum = |f: &dyn Fn(&Phase1Stats) -> u64| -> f64 {
            self.last.iter().map(f).sum::<u64>() as f64
        };
        let raw_misses = sum(&|s| s.total.raw_misses);
        m.push(metric("harness.loads", loads as f64, "count"));
        m.push(metric(
            "harness.miss_ratio",
            raw_misses / loads as f64,
            "ratio",
        ));
        m.push(metric(
            "core.coverage",
            sum(&|s| s.total.approximations) / raw_misses,
            "ratio",
        ));
        m.push(metric(
            "core.lvp_correct_ratio",
            sum(&|s| s.total.lvp_correct) / raw_misses,
            "ratio",
        ));
        m.push(metric(
            "govern.epochs",
            sum(&|s| s.total.govern_epochs),
            "count",
        ));
        m.push(metric(
            "govern.actuations",
            sum(&|s| s.total.govern_actuations),
            "count",
        ));
        Ok(m)
    }
}

impl Phase1 {
    /// Reruns kernel `i` with trace recording on and keeps its load
    /// stream and memory image. Recording must leave the statistics
    /// untouched, which is checked against the timed passes.
    fn record(&self, i: usize) -> Result<Recording, String> {
        let mut h = SimHarness::new(self.config.clone().with_traces());
        let _out = self.kernels[i].run_boxed(&mut h);
        let memory = h.memory().clone();
        let run = h.finish();
        if run.stats.fingerprint() != self.last[i].fingerprint() {
            return Err(format!("{}: recording changed the statistics", KERNELS[i]));
        }
        let loads = run
            .traces
            .iter()
            .enumerate()
            .flat_map(|(t, trace)| {
                trace.ops.iter().filter_map(move |op| match *op {
                    TraceOp::Load {
                        pc,
                        addr,
                        ty,
                        approx,
                        value,
                    } => Some((t, pc, addr, ty, approx, value)),
                    _ => None,
                })
            })
            .collect();
        Ok(Recording {
            loads,
            threads: run.traces.len(),
            l1: self.config.l1,
            memory,
        })
    }
}

/// Compares `observed` with `reference`, adopting it as the reference
/// when there is none yet.
pub fn check_each<T: PartialEq + Debug + Clone>(
    what: &str,
    reference: &mut Option<Vec<T>>,
    observed: &[T],
    seed: u64,
) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(observed.to_vec());
            Ok(())
        }
        Some(r) => match r.iter().zip(observed).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(i) => Err(format!(
                "{what} #{i} (seed {seed}): got {:?}, expected {:?}",
                observed[i], r[i]
            )),
        },
    }
}

fn repeat(mut f: impl FnMut() -> f64) -> Vec<f64> {
    (0..REPLAYS).map(|_| f()).collect()
}

/// One recorded load: `(thread, pc, addr, type, approximate?, value)`.
type RecordedLoad = (usize, Pc, Addr, ValueType, bool, Value);

/// A kernel's recorded load stream and the memory image it read from.
struct Recording {
    loads: Vec<RecordedLoad>,
    threads: usize,
    l1: lva_mem::CacheConfig,
    memory: SimMemory,
}

impl Recording {
    fn l1s(&self) -> Vec<SetAssocCache> {
        (0..self.threads)
            .map(|_| SetAssocCache::new(self.l1))
            .collect()
    }

    /// Host ns per load of probing a private L1 per thread, installing
    /// on a miss.
    fn replay_cache(&self) -> f64 {
        let mut l1s = self.l1s();
        let start = Instant::now();
        for &(t, _, addr, ..) in &self.loads {
            if let AccessResult::Miss = l1s[t].access(addr) {
                black_box(l1s[t].install(addr, false));
            }
        }
        secs(start) * 1e9 / self.loads.len() as f64
    }

    /// Host ns per load of `SimMemory::read_value`.
    fn replay_reads(&self) -> f64 {
        let start = Instant::now();
        for &(_, _, addr, ty, ..) in &self.loads {
            black_box(self.memory.read_value(addr, ty));
        }
        secs(start) * 1e9 / self.loads.len() as f64
    }

    /// The annotated loads that miss a private L1 in program order, with
    /// the values their training fetches would deliver.
    fn approx_misses(&self) -> Vec<(Pc, ValueType, Value)> {
        let mut l1s = self.l1s();
        let mut misses = Vec::new();
        for &(t, pc, addr, ty, approx, value) in &self.loads {
            if let AccessResult::Miss = l1s[t].access(addr) {
                l1s[t].install(addr, false);
                if approx {
                    misses.push((pc, ty, value));
                }
            }
        }
        misses
    }
}

/// Host ns per miss of `LoadValueApproximator::on_miss` followed by the
/// `train` that its fetch delivers.
fn replay_approximator(misses: &[(Pc, ValueType, Value)]) -> f64 {
    let mut approximator = LoadValueApproximator::new(ApproximatorConfig::baseline());
    let start = Instant::now();
    for &(pc, ty, value) in misses {
        let token = approximator.on_miss(pc, ty).token();
        black_box(approximator.train(token, value));
    }
    secs(start) * 1e9 / misses.len().max(1) as f64
}
