//! Figure 5: application output error of LVA for GHB sizes 0–4.
//! Expected shape: at or below ~10% for all applications except ferret
//! (whose intersection metric is deliberately pessimistic), with swaptions
//! and x264 near zero.

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_core::ApproximatorConfig;
use lva_sim::SimConfig;

const GHBS: [usize; 4] = [0, 1, 2, 4];

fn main() {
    banner(
        "Figure 5 — LVA output error across GHB sizes (%)",
        "San Miguel et al., MICRO 2014, Fig. 5",
    );
    let configs: Vec<SimConfig> = GHBS
        .iter()
        .map(|&g| SimConfig::lva(ApproximatorConfig::with_ghb(g)))
        .collect();
    let grid = sweep_grid(scale_from_env(), &configs);
    let labels = GHBS.iter().map(|g| format!("GHB-{g}"));
    let mut manifest = FigureManifest::new("fig5", grid.seeds);
    manifest.add_table(
        "output error %",
        &grid.table(labels, |r| r.output_error * 100.0),
    );
    manifest.write();
    println!();
    println!("paper shape: =<10% except ferret; near-zero for swaptions and x264.");
}
