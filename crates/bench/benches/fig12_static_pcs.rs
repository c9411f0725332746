//! Figure 12: number of static (distinct) PC values issuing approximate
//! loads. Expected shape: small everywhere (the approximator table never
//! needs more than a few hundred entries), with x264 the largest — which
//! is why a GHB of 0 and a 512-entry table suffice (§VII-A).

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_sim::SimConfig;

fn main() {
    banner(
        "Figure 12 — static approximate-load PCs per benchmark",
        "San Miguel et al., MICRO 2014, Fig. 12",
    );
    let grid = sweep_grid(scale_from_env(), &[SimConfig::baseline_lva()]);
    let mut manifest = FigureManifest::new("fig12", grid.seeds);
    manifest.add_table(
        "static PCs",
        &[grid.series(0, "approximate loads", |r| {
            r.stats.static_approx_pcs() as f64
        })],
    );
    manifest.write();
    println!();
    println!("paper shape: all small; x264 the largest at ~300.");
}
