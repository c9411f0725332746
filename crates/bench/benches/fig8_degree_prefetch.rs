//! Figure 8: approximation degree vs. prefetch degree. (a) normalized
//! MPKI and (b) normalized number of blocks fetched into the L1, for
//! degrees 2–16 of each mechanism. Expected shape: both reduce MPKI, but
//! prefetching inflates fetches (degree-16 ≈ +73% in the paper) while LVA
//! slashes them (degree-16 ≈ −39%).

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_sim::{SimConfig, SweepSpec};

const DEGREES: [u32; 4] = [2, 4, 8, 16];

fn main() {
    banner(
        "Figure 8 — MPKI and fetches: approximation degree vs prefetch degree",
        "San Miguel et al., MICRO 2014, Fig. 8",
    );
    let labels: Vec<String> = DEGREES
        .iter()
        .map(|d| format!("prefetch-{d}"))
        .chain(DEGREES.iter().map(|d| format!("approx-{d}")))
        .collect();
    let configs: Vec<SimConfig> = DEGREES
        .iter()
        .map(|&d| SimConfig::prefetch(d))
        .chain(SweepSpec::new().degrees(&DEGREES).build())
        .collect();
    let grid = sweep_grid(scale_from_env(), &configs);
    let mut manifest = FigureManifest::new("fig8", grid.seeds);
    println!("(a) MPKI normalized to precise execution");
    manifest.add_table(
        "normalized MPKI",
        &grid.table(&labels, |r| r.normalized_mpki()),
    );
    println!();
    println!("(b) blocks fetched into the L1, normalized to precise execution");
    manifest.add_table(
        "normalized fetches",
        &grid.table(&labels, |r| r.normalized_fetches()),
    );
    manifest.write();
    println!();
    println!("paper shape: prefetch-16 fetches ~1.73x, approx-16 fetches ~0.61x.");
}
