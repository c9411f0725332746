//! Ablation (§VII-A): approximator table size. The paper argues 512
//! entries are generous because few static PCs load approximate data;
//! this sweep shows how far the table can shrink before MPKI suffers.

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_core::ApproximatorConfig;
use lva_sim::SimConfig;

const ENTRIES: [usize; 6] = [32, 64, 128, 256, 512, 1024];

fn main() {
    banner(
        "Ablation — approximator table size vs normalized MPKI",
        "San Miguel et al., MICRO 2014, §VII-A (hardware overhead)",
    );
    let configs: Vec<SimConfig> = ENTRIES
        .iter()
        .map(|&table_entries| {
            SimConfig::lva(ApproximatorConfig {
                table_entries,
                ..ApproximatorConfig::baseline()
            })
        })
        .collect();
    let grid = sweep_grid(scale_from_env(), &configs);
    let labels = ENTRIES.iter().map(|e| format!("{e} entries"));
    let mut manifest = FigureManifest::new("ablation_table_size", grid.seeds);
    manifest.add_table(
        "normalized MPKI",
        &grid.table(labels, |r| r.normalized_mpki()),
    );
    manifest.write();
    println!();
    println!("paper claim: even small tables work — x264 needs at most ~300 entries.");
}
