//! Figure 7: resilience to value delay. MPKI (a) and output error (b) for
//! value delays of 4, 8, 16 and 32 load instructions. Expected shape:
//! mild MPKI degradation with delay; output error essentially flat except
//! canneal (whose swapped coordinates are highly inter-dependent).

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_sim::SweepSpec;

fn main() {
    banner(
        "Figure 7 — MPKI and output error across value delays",
        "San Miguel et al., MICRO 2014, Fig. 7",
    );
    let configs = SweepSpec::new().value_delays(&[4, 8, 16, 32]).build();
    let labels: Vec<String> = configs
        .iter()
        .map(|cfg| format!("delay-{}", cfg.value_delay))
        .collect();
    let grid = sweep_grid(scale_from_env(), &configs);
    let mut manifest = FigureManifest::new("fig7", grid.seeds);
    println!("(a) MPKI normalized to precise execution");
    manifest.add_table(
        "normalized MPKI",
        &grid.table(&labels, |r| r.normalized_mpki()),
    );
    println!();
    println!("(b) output error (%)");
    manifest.add_table(
        "output error %",
        &grid.table(&labels, |r| r.output_error * 100.0),
    );
    manifest.write();
    println!();
    println!("paper shape: error nearly flat in delay except canneal.");
}
