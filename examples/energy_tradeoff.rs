//! Energy-error trade-off on the full-system simulator: replay a workload's
//! traces through the Table II machine (4 OoO cores, MSI over a 2x2 mesh,
//! 160-cycle DRAM) at several approximation degrees and report speedup,
//! hierarchy energy and L1-miss EDP — the Figs. 10–11 methodology on one
//! workload.
//!
//! ```text
//! cargo run --release --example energy_tradeoff
//! ```

use lva::core::ApproximatorConfig;
use lva::energy::EnergyParams;
use lva::sim::sweep::{run_fullsystem_grid, SweepOptions};
use lva::sim::{FullSystemConfig, MechanismKind, SimConfig};
use lva::workloads::{canneal::Canneal, Workload, WorkloadScale};

fn main() {
    println!("full-system energy/error trade-off (canneal)\n");
    // Record per-thread traces from a precise run.
    let workload = Canneal::new(WorkloadScale::Test);
    let recorded = workload.execute(&SimConfig::precise().with_traces());
    let params = EnergyParams::cacti_32nm();

    // Precise first, then one LVA machine per degree.
    let degrees = [0u32, 2, 4, 8, 16];
    let configs: Vec<_> = std::iter::once(MechanismKind::Precise)
        .chain(degrees.map(|d| MechanismKind::Lva(ApproximatorConfig::with_degree(d))))
        .map(FullSystemConfig::paper)
        .collect();
    let runs =
        run_fullsystem_grid(&configs, &[recorded.traces], &SweepOptions::default()).into_values();
    let (precise, approx) = runs.split_first().expect("precise run");

    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "config", "cycles", "speedup", "energy (nJ)", "miss lat.", "norm. EDP"
    );
    println!(
        "{:<12} {:>10} {:>10} {:>12.1} {:>12.1} {:>10.3}",
        "precise",
        precise.cycles,
        "1.000x",
        precise.hierarchy_energy_nj(&params),
        precise.avg_miss_latency(),
        1.0
    );
    for (degree, stats) in degrees.iter().zip(approx) {
        println!(
            "{:<12} {:>10} {:>9.3}x {:>12.1} {:>12.1} {:>10.3}",
            format!("degree {degree}"),
            stats.cycles,
            stats.speedup_vs(precise),
            stats.hierarchy_energy_nj(&params),
            stats.avg_miss_latency(),
            stats.l1_miss_edp(&params) / precise.l1_miss_edp(&params),
        );
    }
    println!();
    println!("expected shape (paper Figs. 10-11): speedup > 1, energy and EDP");
    println!("falling as the approximation degree grows.");
}
