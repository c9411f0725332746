//! Quickstart: run one PARSEC kernel precisely and under load value
//! approximation, and compare MPKI, coverage and application output error.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lva::core::ApproximatorConfig;
use lva::sim::SimConfig;
use lva::workloads::{blackscholes::Blackscholes, Workload, WorkloadScale};

fn main() {
    println!("Load Value Approximation — quickstart (blackscholes kernel)\n");
    let workload = Blackscholes::new(WorkloadScale::Test);

    // The paper's Table II baseline: 512-entry table, 4-entry LHB, GHB 0,
    // +/-10% confidence window on floats, approximation degree 0.
    let run = workload.execute(&SimConfig::baseline_lva());
    println!("precise execution:");
    println!(
        "  L1 MPKI                {:>10.4}",
        run.precise_stats.mpki()
    );
    println!(
        "  blocks fetched         {:>10}",
        run.precise_stats.fetches()
    );
    println!();
    println!("with load value approximation (Table II baseline):");
    println!("  L1 MPKI                {:>10.4}", run.stats.mpki());
    println!("  normalized MPKI        {:>10.4}", run.normalized_mpki());
    println!(
        "  coverage               {:>9.1}%",
        run.stats.coverage() * 100.0
    );
    println!("  blocks fetched         {:>10}", run.stats.fetches());
    println!(
        "  output error           {:>9.2}%  (prices off by >1%)",
        run.output_error * 100.0
    );
    println!();

    // Crank the approximation degree: reuse each approximation for 16
    // extra misses, fetching (and training) only on the 17th.
    let degree16 = workload.execute(&SimConfig::lva(ApproximatorConfig::with_degree(16)));
    println!("with approximation degree 16 (energy-error trade-off, Section III-C):");
    println!(
        "  normalized MPKI        {:>10.4}",
        degree16.normalized_mpki()
    );
    println!(
        "  normalized fetches     {:>10.4}  (1.0 = precise; lower saves energy)",
        degree16.normalized_fetches()
    );
    println!(
        "  output error           {:>9.2}%",
        degree16.output_error * 100.0
    );
}
