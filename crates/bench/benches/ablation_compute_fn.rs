//! Ablation (§VI): the computation function applied to the LHB. The paper
//! tried strides and deltas and found the plain average the most accurate;
//! this sweep reproduces that comparison (plus the non-unit confidence
//! update the paper defers to future work).

use lva_bench::{banner, scale_from_env, sweep_grid, FigureManifest};
use lva_core::{ApproximatorConfig, ComputeFn, ConfidenceUpdate};
use lva_sim::SimConfig;

fn main() {
    banner(
        "Ablation — LHB computation function and confidence update rule",
        "San Miguel et al., MICRO 2014, §VI baseline choice + §III-B future work",
    );
    let variants = [
        ("average", ComputeFn::Average, ConfidenceUpdate::Unit),
        ("last-value", ComputeFn::LastValue, ConfidenceUpdate::Unit),
        ("stride", ComputeFn::Stride, ConfidenceUpdate::Unit),
        (
            "weighted-avg",
            ComputeFn::WeightedAverage,
            ConfidenceUpdate::Unit,
        ),
        // Paper §III-B future work: error-proportional confidence updates.
        (
            "avg+prop-conf",
            ComputeFn::Average,
            ConfidenceUpdate::Proportional,
        ),
    ];
    let configs: Vec<SimConfig> = variants
        .iter()
        .map(|&(_, compute, confidence_update)| {
            SimConfig::lva(ApproximatorConfig {
                compute,
                confidence_update,
                ..ApproximatorConfig::baseline()
            })
        })
        .collect();
    let grid = sweep_grid(scale_from_env(), &configs);
    let labels = variants.map(|(label, ..)| label);
    let mut manifest = FigureManifest::new("ablation_compute_fn", grid.seeds);
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
    println!("paper claim: average is the most accurate LHB function overall.");
}
