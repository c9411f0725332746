//! Table I: precise L1 MPKI per benchmark, and the variation in dynamic
//! instruction count when load value approximation is employed.

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_sim::SimConfig;

fn main() {
    banner(
        "Table I — precise L1 MPKI and instruction-count variation under LVA",
        "San Miguel et al., MICRO 2014, Table I",
    );
    let grid = sweep_grid(scale_from_env(), &[SimConfig::baseline_lva()]);
    let mut manifest = FigureManifest::new("table1", grid.seeds);
    manifest.add_table(
        "metric",
        &[
            grid.series(0, "precise L1 MPKI", |r| r.precise_stats.mpki()),
            grid.series(0, "instr variation %", |r| {
                r.instruction_variation() * 100.0
            }),
        ],
    );
    manifest.write();
    println!();
    println!("paper: MPKI 0.93 / 4.93 / 12.50 / 3.28 / 1.23 / ~0 / 0.59;");
    println!("       variation 0.99 / 0.05 / 1.25 / 0.60 / 0.17 / 0.00 / 2.37 (%)");
}
