//! Ablation: MSI (the paper's Table II protocol) vs MESI on the
//! full-system machine under precise execution. MESI's E state lets
//! private read-then-write data upgrade silently, trimming GetM traffic —
//! but read-shared data pays an extra forward/clean-ack round trip when a
//! second reader hits an E owner. The PARSEC kernels are mostly
//! read-shared or thread-partitioned, so the two effects roughly cancel:
//! write-private workloads (fluidanimate) save traffic, read-shared ones
//! (bodytrack, ferret) pay a little, and cycles barely move — evidence the
//! paper's MSI choice doesn't distort its results.

use lva_bench::{banner, fullsystem_grid, scale_from_env, FigureManifest, Series};
use lva_sim::{FullSystemConfig, MechanismKind};

fn main() {
    banner(
        "Ablation — MSI vs MESI directory protocol (precise execution)",
        "San Miguel et al., MICRO 2014, Table II (MSI protocol choice)",
    );
    let msi = FullSystemConfig::paper(MechanismKind::Precise);
    let rows = fullsystem_grid(scale_from_env(), &[msi.clone(), msi.with_mesi()]);
    let (traffic, cycles): (Vec<f64>, Vec<f64>) = rows[0]
        .iter()
        .zip(&rows[1])
        .map(|(msi, mesi)| {
            (
                (1.0 - mesi.flit_hops as f64 / msi.flit_hops.max(1) as f64) * 100.0,
                (mesi.cycles as f64 / msi.cycles.max(1) as f64 - 1.0) * 100.0,
            )
        })
        .unzip();
    let mut manifest = FigureManifest::new("ablation_coherence", 1);
    manifest.add_table(
        "metric",
        &[
            Series::new("flit-hops saved %", traffic),
            Series::new("cycle delta %", cycles),
        ],
    );
    manifest.write();
    println!();
    println!("expected shape: mixed small traffic deltas (positive for write-private");
    println!("workloads, negative for read-shared ones) and negligible cycle change —");
    println!("the paper's MSI machine is representative.");
}
