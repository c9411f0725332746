//! Ablation (§VI-E discussion): the paper observes that out-of-order
//! capacity determines how much miss latency is already hidden — canneal's
//! simple compute can't mask its misses, so LVA helps most there. This
//! sweep varies the core's ROB size on the full-system machine and reports
//! LVA's speedup at each point. Two regimes emerge: a tiny window is
//! frontend-bound (gains compressed by the issue width), while a big window
//! turns precise execution purely miss-bound — exactly where LVA's
//! instant loads shine. The baseline 4-wide/ROB-32 point sits between.

use lva_bench::{banner, fullsystem_grid, scale_from_env, FigureManifest, Series};
use lva_core::ApproximatorConfig;
use lva_sim::{FullSystemConfig, MechanismKind};

fn main() {
    banner(
        "Ablation — LVA speedup vs out-of-order window size",
        "San Miguel et al., MICRO 2014, §VI-E (OoO latency hiding)",
    );
    let shapes = [(2usize, 8usize), (4, 32), (8, 128)];
    let configs: Vec<_> = shapes
        .iter()
        .flat_map(|&(width, rob)| {
            [
                MechanismKind::Precise,
                MechanismKind::Lva(ApproximatorConfig::baseline()),
            ]
            .map(|m| FullSystemConfig::paper(m).with_core_shape(width, rob))
        })
        .collect();
    let rows = fullsystem_grid(scale_from_env(), &configs);
    let series: Vec<_> = shapes
        .iter()
        .zip(rows.chunks(2))
        .map(|((width, rob), pair)| {
            let values = pair[0]
                .iter()
                .zip(&pair[1])
                .map(|(precise, lva)| (precise.cycles as f64 / lva.cycles as f64 - 1.0) * 100.0)
                .collect();
            Series::new(format!("{width}-wide ROB-{rob}"), values)
        })
        .collect();
    let mut manifest = FigureManifest::new("ablation_core_shape", 1);
    manifest.add_table("LVA speedup %", &series);
    manifest.write();
    println!();
    println!("expected shape: speedup present at every shape; the miss-bound");
    println!("(wider) configurations benefit most from removing loads from the");
    println!("critical path, while tiny frontends compress the gain.");
}
