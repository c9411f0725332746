//! Ablation: the context hash combining PC and GHB (§III-A). The paper
//! uses plain XOR (Table II); `FoldedXor` (position-dependent rotation)
//! additionally distinguishes reordered GHB value patterns. That turns out
//! to be a liability: fragmenting reordered patterns into separate entries
//! costs far more coverage than the aliasing it avoids. With the baseline
//! GHB of 0 both hashes are identical, so this sweep runs at GHB 2.

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_core::{ApproximatorConfig, HashKind};
use lva_sim::SimConfig;

const HASHES: [(&str, HashKind); 2] = [
    ("XOR (paper)", HashKind::Xor),
    ("folded XOR", HashKind::FoldedXor),
];

fn main() {
    banner(
        "Ablation — context hash function at GHB 2 (normalized MPKI)",
        "San Miguel et al., MICRO 2014, Table II hash choice",
    );
    let configs: Vec<SimConfig> = HASHES
        .iter()
        .map(|&(_, hash)| {
            SimConfig::lva(ApproximatorConfig {
                ghb_entries: 2,
                hash,
                ..ApproximatorConfig::baseline()
            })
        })
        .collect();
    let grid = sweep_grid(scale_from_env(), &configs);
    let labels = HASHES.iter().map(|&(label, _)| label);
    let mut manifest = FigureManifest::new("ablation_hash", grid.seeds);
    manifest.add_table(
        "normalized MPKI",
        &grid.table(labels, |r| r.normalized_mpki()),
    );
    manifest.write();
    println!();
    println!("expected shape: plain XOR wins — merging reordered value patterns");
    println!("into one entry *helps* coverage, while position-sensitivity");
    println!("fragments the table; the paper's simplest-hash choice is right.");
}
