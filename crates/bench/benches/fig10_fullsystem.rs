//! Figure 10: full-system performance and energy for approximation degrees
//! 0–16 on the Table II machine (4 OoO cores, MSI over a 2×2 mesh,
//! 160-cycle memory). Expected shape: mean speedup in the ~5–15% range
//! with the biggest wins for the high-MPKI benchmarks, and energy savings
//! growing with the approximation degree. Also reports the L1 miss latency
//! and interconnect-traffic reductions quoted in §VI-E.
//!
//! Like the paper — which drops from simlarge to simmedium inputs for
//! full-system simulation — this bench runs the workloads one scale down.

use lva_bench::{banner, fullsystem_suite, scale_from_env, FigureManifest, Series};
use lva_core::ApproximatorConfig;
use lva_energy::EnergyParams;
use lva_sim::MechanismKind;

fn main() {
    banner(
        "Figure 10 — full-system speedup and energy savings vs approximation degree",
        "San Miguel et al., MICRO 2014, Fig. 10 (+ §VI-E latency/traffic claims)",
    );
    let suite = fullsystem_suite(scale_from_env());
    let params = EnergyParams::cacti_32nm();

    let precise: Vec<_> = suite
        .iter()
        .map(|(name, traces)| {
            let s = lva_bench::run_fullsystem(traces.clone(), MechanismKind::Precise);
            eprintln!("  {name:<14} precise done ({} cycles)", s.cycles);
            s
        })
        .collect();

    let mut speedup = Vec::new();
    let mut savings = Vec::new();
    let mut misslat = Vec::new();
    let mut traffic = Vec::new();
    for degree in [0u32, 2, 4, 8, 16] {
        let mech = MechanismKind::Lva(ApproximatorConfig::with_degree(degree));
        let runs: Vec<_> = suite
            .iter()
            .map(|(name, traces)| {
                let s = lva_bench::run_fullsystem(traces.clone(), mech.clone());
                eprintln!("  {name:<14} approx-{degree} done ({} cycles)", s.cycles);
                s
            })
            .collect();
        speedup.push(Series::new(
            format!("approx-{degree}"),
            runs.iter()
                .zip(&precise)
                .map(|(r, p)| (r.speedup_vs(p) - 1.0) * 100.0)
                .collect(),
        ));
        savings.push(Series::new(
            format!("approx-{degree}"),
            runs.iter()
                .zip(&precise)
                .map(|(r, p)| {
                    (1.0 - r.hierarchy_energy_nj(&params) / p.hierarchy_energy_nj(&params)) * 100.0
                })
                .collect(),
        ));
        misslat.push(Series::new(
            format!("approx-{degree}"),
            runs.iter()
                .zip(&precise)
                .map(|(r, p)| (1.0 - r.avg_miss_latency() / p.avg_miss_latency()) * 100.0)
                .collect(),
        ));
        traffic.push(Series::new(
            format!("approx-{degree}"),
            runs.iter()
                .zip(&precise)
                .map(|(r, p)| (1.0 - r.flit_hops as f64 / p.flit_hops as f64) * 100.0)
                .collect(),
        ));
    }

    let mut manifest = FigureManifest::new("fig10", 1);
    println!("(a) speedup over precise execution (%)");
    manifest.add_table("speedup %", &speedup);
    println!();
    println!("(b) dynamic energy savings in the memory hierarchy (%)");
    manifest.add_table("energy savings %", &savings);
    println!();
    println!("(§VI-E) L1 miss latency reduction (%)");
    manifest.add_table("miss lat. red. %", &misslat);
    println!();
    println!("(§VI-E) interconnect traffic reduction (%)");
    manifest.add_table("traffic red. %", &traffic);
    manifest.write();
    println!();
    println!("paper: 8.5% mean speedup (up to 28.6%); 12.6% mean energy savings at");
    println!("       degree 16 (up to 44.1%); 41% mean L1 miss-latency reduction;");
    println!("       37.2% traffic reduction at degree 16.");
}
