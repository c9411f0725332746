//! Ablation (§VI-C): heterogeneous NoC for training traffic. Because LVA's
//! approximators tolerate high value delays, the training fetches can ride
//! a half-speed, low-energy network plane. This sweep compares baseline
//! LVA against LVA-with-hetero-NoC on the full-system machine: expected
//! shape — cycles essentially unchanged, NoC energy down.

use lva_bench::{banner, fullsystem_suite, scale_from_env, FigureManifest, Series};
use lva_core::ApproximatorConfig;
use lva_energy::EnergyParams;
use lva_noc::LowPowerPlane;
use lva_sim::{FullSystem, FullSystemConfig, MechanismKind};

fn main() {
    banner(
        "Ablation — heterogeneous low-power NoC plane for training fetches",
        "San Miguel et al., MICRO 2014, §VI-C (deprioritized approximate traffic)",
    );
    let suite = fullsystem_suite(scale_from_env());
    let params = EnergyParams::cacti_32nm();
    let mechanism = MechanismKind::Lva(ApproximatorConfig::with_degree(4));

    let mut slowdown = Vec::new();
    let mut noc_energy = Vec::new();
    for (name, traces) in &suite {
        let base = FullSystem::new(FullSystemConfig::paper(mechanism.clone()), traces.clone())
            .run()
            .expect("baseline converges");
        let hetero = FullSystem::new(
            FullSystemConfig::paper(mechanism.clone()).with_hetero_noc(LowPowerPlane::default()),
            traces.clone(),
        )
        .run()
        .expect("hetero converges");
        slowdown.push((hetero.cycles as f64 / base.cycles.max(1) as f64 - 1.0) * 100.0);
        let base_noc = params.breakdown(&base.energy).noc_nj;
        let hetero_noc = params.breakdown(&hetero.energy).noc_nj;
        noc_energy.push(if base_noc > 0.0 {
            (1.0 - hetero_noc / base_noc) * 100.0
        } else {
            0.0
        });
        eprintln!("  {name:<14} done");
    }
    let mut manifest = FigureManifest::new("ablation_hetero_noc", 1);
    manifest.add_table(
        "metric",
        &[
            Series::new("slowdown % (lower=better)", slowdown),
            Series::new("NoC energy saved %", noc_energy),
        ],
    );
    manifest.write();
    println!();
    println!("expected shape: near-zero slowdown; NoC energy savings proportional");
    println!("to the training share of traffic (low-power hops cost 0.4x).");
}
