//! Figure 9: LVA output error for approximation degrees 0–16. Expected
//! shape: error grows with degree (less frequent training), while staying
//! tolerable for the integer benchmarks.

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_core::ApproximatorConfig;
use lva_sim::SimConfig;

const DEGREES: [u32; 5] = [0, 2, 4, 8, 16];

fn main() {
    banner(
        "Figure 9 — LVA output error across approximation degrees (%)",
        "San Miguel et al., MICRO 2014, Fig. 9",
    );
    let configs: Vec<SimConfig> = DEGREES
        .iter()
        .map(|&d| SimConfig::lva(ApproximatorConfig::with_degree(d)))
        .collect();
    let grid = sweep_grid(scale_from_env(), &configs);
    let labels = DEGREES.iter().map(|d| format!("approx-{d}"));
    let mut manifest = FigureManifest::new("fig9", grid.seeds);
    manifest.add_table(
        "output error %",
        &grid.table(labels, |r| r.output_error * 100.0),
    );
    manifest.write();
    println!();
    println!("paper shape: error rises with degree; x264/swaptions stay near zero.");
}
