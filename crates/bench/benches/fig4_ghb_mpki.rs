//! Figure 4: normalized MPKI of LVA vs. an idealized LVP for GHB sizes
//! 0, 1, 2 and 4. Expected shape: LVA at or below LVP (relaxed windows
//! beat exact-match prediction), and MPKI tending to rise with GHB size as
//! hashed contexts fragment the table — worst for floating-point data.

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_core::{ApproximatorConfig, LvpConfig};
use lva_sim::SimConfig;

fn main() {
    banner(
        "Figure 4 — LVA vs idealized LVP across GHB sizes (normalized MPKI)",
        "San Miguel et al., MICRO 2014, Fig. 4",
    );
    const GHBS: [usize; 4] = [0, 1, 2, 4];
    let labels = GHBS
        .iter()
        .map(|g| format!("LVP-GHB-{g}"))
        .chain(GHBS.iter().map(|g| format!("LVA-GHB-{g}")));
    let configs: Vec<SimConfig> = GHBS
        .iter()
        .map(|&g| SimConfig::lvp(LvpConfig::with_ghb(g)))
        .chain(
            GHBS.iter()
                .map(|&g| SimConfig::lva(ApproximatorConfig::with_ghb(g))),
        )
        .collect();
    let grid = sweep_grid(scale_from_env(), &configs);
    let mut manifest = FigureManifest::new("fig4", grid.seeds);
    manifest.add_table(
        "normalized MPKI",
        &grid.table(labels, |r| r.normalized_mpki()),
    );
    manifest.write();
    println!();
    println!("paper shape: LVA mean below LVP mean; MPKI grows with GHB size.");
}
