//! `fullsystem`: replay the seven precise traces, recorded during set-up,
//! on the paper's machine with baseline LVA.
//!
//! This is the only workload that exercises `lva-cpu` (`OooCore`),
//! `lva-noc` (the mesh), the directory and `MemorySystem`'s own miss
//! path; none of the phase-1 harness runs while a replay is timed.
//! Dispatch is pinned to one worker: with two barrier waits per simulated
//! cycle, two workers on a two-vCPU host run tens of times slower, and
//! that default is outside this benchmark's scope.

use crate::measure::{median, metric, Metric, Sample, PARTS};
use crate::phase1::{check_each, kernels, KERNELS};
use crate::pins;
use crate::Workload;
use lva_core::ApproximatorConfig;
use lva_cpu::ThreadTrace;
use lva_sim::{
    FullSystem, FullSystemConfig, FullSystemStats, MechanismKind, SimConfig, SimHarness,
};
use std::path::Path;
use std::time::Instant;

/// Dispatch workers every replay runs with.
pub const DISPATCH_THREADS: usize = 1;

#[derive(Debug, Default, Clone)]
struct PassSpans {
    new_s: [f64; 7],
    run_s: [f64; 7],
}

pub struct FullSys {
    seed: u64,
    config: FullSystemConfig,
    traces: Vec<Vec<ThreadTrace>>,
    /// Per trace `(cycles, instructions, flit_hops)`: pinned for a pinned
    /// seed, else the first replay's.
    reference: Option<Vec<(u64, u64, u64)>>,
    last: Vec<FullSystemStats>,
    spans: Vec<PassSpans>,
}

impl FullSys {
    /// Dispatch workers a replay resolves to (asserted to be
    /// [`DISPATCH_THREADS`]).
    fn dispatch_threads(&self) -> usize {
        lva_sim::worker_count(self.config.threads)
            .min(self.traces.iter().map(Vec::len).max().unwrap_or(1))
    }
}

impl Workload for FullSys {
    const NAME: &'static str = "fullsystem";
    const PROFILE_PASSES: usize = 2;

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let record = SimConfig::precise().with_traces();
        let traces = kernels(seed)
            .iter()
            .map(|k| {
                let mut h = SimHarness::new(record.clone());
                let _out = k.run_boxed(&mut h);
                h.finish().traces
            })
            .collect();
        let config = FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()))
            .with_threads(DISPATCH_THREADS);
        let fs = FullSys {
            seed,
            config,
            traces,
            reference: pins::fullsystem(seed),
            last: Vec::new(),
            spans: Vec::new(),
        };
        if fs.dispatch_threads() != DISPATCH_THREADS {
            return Err(format!(
                "replays resolve to {} dispatch threads",
                fs.dispatch_threads()
            ));
        }
        Ok(fs)
    }

    fn pass(&mut self, traced: bool) -> Result<Sample, String> {
        let mut spans = PassSpans::default();
        let mut stats = Vec::with_capacity(self.traces.len());
        let mut parts = [0.0; PARTS];
        for (i, traces) in self.traces.iter().enumerate() {
            // Replays consume their traces; the copy is not timed.
            let input = traces.clone();
            let t0 = Instant::now();
            let system = FullSystem::new(self.config.clone(), input);
            let t1 = Instant::now();
            let s = system
                .run()
                .map_err(|e| format!("{} replay: {e}", KERNELS[i]))?;
            let t2 = Instant::now();
            parts[i] = (t2 - t0).as_secs_f64();
            if traced {
                spans.new_s[i] = (t1 - t0).as_secs_f64();
                spans.run_s[i] = (t2 - t1).as_secs_f64();
            }
            stats.push(s);
        }
        if traced {
            self.spans.push(spans);
        }
        let observed: Vec<(u64, u64, u64)> = stats
            .iter()
            .map(|s| (s.cycles, s.instructions, s.flit_hops))
            .collect();
        let cycles: u64 = stats.iter().map(|s| s.cycles).sum();
        self.last = stats;
        check_each(
            "fullsystem (cycles, instructions, flit_hops)",
            &mut self.reference,
            &observed,
            self.seed,
        )?;
        Ok(Sample {
            parts,
            work: cycles as f64,
            round_trips: Vec::new(),
        })
    }

    fn layers(&mut self) -> Result<Vec<Metric>, String> {
        let per_pass = |f: &dyn Fn(&PassSpans) -> f64| -> f64 {
            median(&self.spans.iter().map(f).collect::<Vec<_>>())
        };
        let sum = |f: &dyn Fn(&FullSystemStats) -> u64| -> f64 {
            self.last.iter().map(f).sum::<u64>() as f64
        };
        let cycles = sum(&|s| s.cycles);
        let instructions = sum(&|s| s.instructions);
        let mut m = vec![metric(
            "fullsystem.new_ms",
            per_pass(&|p| p.new_s.iter().sum::<f64>() * 1e3),
            "ms",
        )];
        for (i, name) in KERNELS.iter().enumerate() {
            m.push(metric(
                format!("fullsystem.run_ms.{name}"),
                per_pass(&|p| p.run_s[i] * 1e3),
                "ms",
            ));
        }
        m.push(metric(
            "fullsystem.ns_per_cycle",
            per_pass(&|p| p.run_s.iter().sum::<f64>() * 1e9 / cycles),
            "ns",
        ));
        m.push(metric(
            "fullsystem.ns_per_instruction",
            per_pass(&|p| p.run_s.iter().sum::<f64>() * 1e9 / instructions),
            "ns",
        ));
        m.push(metric("fullsystem.cycles", cycles, "count"));
        m.push(metric("fullsystem.ipc", instructions / cycles, "ratio"));
        m.push(metric(
            "fullsystem.l1_load_misses",
            sum(&|s| s.l1_load_misses),
            "count",
        ));
        m.push(metric(
            "fullsystem.approximated",
            sum(&|s| s.approximated),
            "count",
        ));
        m.push(metric(
            "fullsystem.flit_hops",
            sum(&|s| s.flit_hops),
            "count",
        ));
        m.push(metric(
            "fullsystem.head_stall_cycles",
            sum(&|s| s.head_stall_cycles),
            "count",
        ));
        m.push(metric(
            "fullsystem.drain_cycles",
            sum(&|s| s.drain_cycles),
            "count",
        ));
        Ok(m)
    }
}
