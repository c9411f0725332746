//! Figure 11: L1-miss energy-delay product (EDP), normalized to precise
//! execution, for approximation degrees 0–16. Expected shape: EDP falls
//! monotonically with degree (the paper reports mean reductions of 41.9%,
//! 53.8% and 63.8% at degrees 0, 4 and 16).

use lva_bench::{banner, fullsystem_suite, scale_from_env, FigureManifest, Series};
use lva_core::ApproximatorConfig;
use lva_energy::EnergyParams;
use lva_sim::MechanismKind;

fn main() {
    banner(
        "Figure 11 — normalized L1-miss EDP vs approximation degree",
        "San Miguel et al., MICRO 2014, Fig. 11",
    );
    let suite = fullsystem_suite(scale_from_env());
    let params = EnergyParams::cacti_32nm();

    let precise: Vec<_> = suite
        .iter()
        .map(|(name, traces)| {
            let s = lva_bench::run_fullsystem(traces.clone(), MechanismKind::Precise);
            eprintln!("  {name:<14} precise done");
            s
        })
        .collect();

    let mut series = vec![Series::new("baseline", vec![1.0; suite.len()])];
    for degree in [0u32, 2, 4, 8, 16] {
        let mech = MechanismKind::Lva(ApproximatorConfig::with_degree(degree));
        let values: Vec<f64> = suite
            .iter()
            .zip(&precise)
            .map(|((name, traces), p)| {
                let s = lva_bench::run_fullsystem(traces.clone(), mech.clone());
                eprintln!("  {name:<14} approx-{degree} done");
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
