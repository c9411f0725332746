//! Ablation (§II): how much of the idealized LVP's MPKI reduction survives
//! a *realistic* predictor with a selection mechanism, conservative
//! confidence and rollbacks? This quantifies the gap the paper's idealized
//! upper bound deliberately hides — and shows LVA beating both without any
//! speculation machinery.

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_core::LvpConfig;
use lva_sim::SimConfig;

fn main() {
    banner(
        "Ablation — idealized vs realistic LVP vs LVA (normalized MPKI, rollbacks)",
        "San Miguel et al., MICRO 2014, §II (complexity of practical LVP)",
    );
    let labels = ["ideal LVP", "realistic LVP", "LVA (baseline)"];
    let configs = [
        SimConfig::lvp(LvpConfig::baseline()),
        SimConfig::realistic_lvp(),
        SimConfig::baseline_lva(),
    ];
    let grid = sweep_grid(scale_from_env(), &configs);
    let mut manifest = FigureManifest::new("ablation_lvp_realism", grid.seeds);
    println!("(a) MPKI normalized to precise execution");
    manifest.add_table(
        "normalized MPKI",
        &grid.table(labels, |r| r.normalized_mpki()),
    );
    println!();
    println!("(b) rollbacks per kilo-instruction (LVA and ideal LVP: none by construction)");
    // Rollbacks per kilo-instruction: the cost axis a real predictor adds
    // and LVA eliminates.
    let rollbacks = grid.table(labels, |r| {
        r.stats.total.rollbacks as f64 * 1000.0 / r.stats.total.instructions.max(1) as f64
    });
    manifest.add_table("rollbacks/ki", &rollbacks);
    manifest.write();
    println!();
    println!("expected shape: realistic LVP between precise and ideal LVP on MPKI,");
    println!("with a non-zero rollback cost; LVA below both at zero rollbacks.");
}
