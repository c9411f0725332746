//! Ablation (§VI-E discussion): the paper observes that out-of-order
//! capacity determines how much miss latency is already hidden — canneal's
//! simple compute can't mask its misses, so LVA helps most there. This
//! sweep varies the core's ROB size on the full-system machine and reports
//! LVA's speedup at each point. Two regimes emerge: a tiny window is
//! frontend-bound (gains compressed by the issue width), while a big window
//! turns precise execution purely miss-bound — exactly where LVA's
//! instant loads shine. The baseline 4-wide/ROB-32 point sits between.

use lva_bench::{banner, fullsystem_suite, scale_from_env, FigureManifest, Series};
use lva_core::ApproximatorConfig;
use lva_cpu::OooCore;
use lva_sim::{FullSystem, FullSystemConfig, MechanismKind};

fn run_with_shape(
    traces: &[lva_cpu::ThreadTrace],
    mechanism: MechanismKind,
    width: usize,
    rob: usize,
) -> u64 {
    // Build the system manually so the core shape can be overridden.
    let config = FullSystemConfig::paper(mechanism);
    let system = FullSystem::with_cores(
        config,
        traces
            .iter()
            .enumerate()
            .map(|(i, t)| OooCore::with_shape(i, t.clone(), width, rob))
            .collect(),
    );
    system.run().expect("simulation converges").cycles
}

fn main() {
    banner(
        "Ablation — LVA speedup vs out-of-order window size",
        "San Miguel et al., MICRO 2014, §VI-E (OoO latency hiding)",
    );
    let suite = fullsystem_suite(scale_from_env());
    let mut series = Vec::new();
    for (width, rob) in [(2usize, 8usize), (4, 32), (8, 128)] {
        let values: Vec<f64> = suite
            .iter()
            .map(|(name, traces)| {
                let precise = run_with_shape(traces, MechanismKind::Precise, width, rob);
                let lva = run_with_shape(
                    traces,
                    MechanismKind::Lva(ApproximatorConfig::baseline()),
                    width,
                    rob,
                );
                eprintln!("  {name:<14} {width}-wide/ROB-{rob} done");
                (precise as f64 / lva as f64 - 1.0) * 100.0
            })
            .collect();
        series.push(Series::new(format!("{width}-wide ROB-{rob}"), values));
    }
    let mut manifest = FigureManifest::new("ablation_core_shape", 1);
    manifest.add_table("LVA speedup %", &series);
    manifest.write();
    println!();
    println!("expected shape: speedup present at every shape; the miss-bound");
    println!("(wider) configurations benefit most from removing loads from the");
    println!("critical path, while tiny frontends compress the gain.");
}
