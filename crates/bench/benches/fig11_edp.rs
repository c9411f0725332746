//! Figure 11: L1-miss energy-delay product (EDP), normalized to precise
//! execution, for approximation degrees 0–16. Expected shape: EDP falls
//! monotonically with degree (the paper reports mean reductions of 41.9%,
//! 53.8% and 63.8% at degrees 0, 4 and 16).

use lva_bench::{
    banner, fullsystem_degree_configs, fullsystem_grid, scale_from_env, FigureManifest, Series,
    FULLSYSTEM_DEGREES,
};
use lva_energy::EnergyParams;

fn main() {
    banner(
        "Figure 11 — normalized L1-miss EDP vs approximation degree",
        "San Miguel et al., MICRO 2014, Fig. 11",
    );
    let rows = fullsystem_grid(scale_from_env(), &fullsystem_degree_configs());
    let (precise, approx) = rows.split_first().expect("precise row");
    let params = EnergyParams::cacti_32nm();

    let mut series = vec![Series::new("baseline", vec![1.0; precise.len()])];
    for (degree, runs) in FULLSYSTEM_DEGREES.iter().zip(approx) {
        let values: Vec<f64> = runs
            .iter()
            .zip(precise)
            .map(|(s, p)| {
                let base = p.l1_miss_edp(&params);
                if base == 0.0 {
                    1.0
                } else {
                    s.l1_miss_edp(&params) / base
                }
            })
            .collect();
        series.push(Series::new(format!("approx-{degree}"), values));
    }
    let mut manifest = FigureManifest::new("fig11", 1);
    manifest.add_table("normalized EDP", &series);
    manifest.write();
    println!();
    println!("paper: mean EDP reduced by 41.9% / 53.8% / 63.8% at degrees 0 / 4 / 16.");
}
