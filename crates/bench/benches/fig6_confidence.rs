//! Figure 6: relaxed confidence estimation. MPKI (a) and output error (b)
//! for confidence windows of 0% (traditional exact-match prediction,
//! modelled by the idealized LVP), 5%, 10%, 20% and infinitely relaxed —
//! confidence applied to both float and integer data, as in the paper's
//! sweep. Expected shape: wider windows trade output error for lower MPKI.

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_core::{ApproximatorConfig, ConfidenceWindow, LvpConfig};
use lva_sim::{SimConfig, SweepSpec};

fn main() {
    banner(
        "Figure 6 — MPKI and output error across confidence windows",
        "San Miguel et al., MICRO 2014, Fig. 6",
    );

    // 0% window == idealized LVP (the paper's own equivalence); the rest
    // is an LVA grid over window widths, all through one parallel sweep.
    let labels = ["0% (ideal LVP)", "5%", "10%", "20%", "infinite"];
    let mut configs = vec![SimConfig::lvp(LvpConfig::baseline())];
    configs.extend(
        SweepSpec::from_base(SimConfig::lva(ApproximatorConfig::with_confidence_window(
            ConfidenceWindow::Relative(0.05),
        )))
        .confidence_window_kinds(&[
            ConfidenceWindow::Relative(0.05),
            ConfidenceWindow::Relative(0.10),
            ConfidenceWindow::Relative(0.20),
            ConfidenceWindow::Infinite,
        ])
        .build(),
    );
    let grid = sweep_grid(scale_from_env(), &configs);
    let mut manifest = FigureManifest::new("fig6", grid.seeds);
    println!("(a) MPKI normalized to precise execution");
    manifest.add_table(
        "normalized MPKI",
        &grid.table(labels, |r| r.normalized_mpki()),
    );
    println!();
    println!("(b) output error (%)");
    manifest.add_table(
        "output error %",
        &grid.table(labels, |r| r.output_error * 100.0),
    );
    manifest.write();
    println!();
    println!("paper shape: wider window => lower MPKI, higher error; x264 error ~0.");
}
