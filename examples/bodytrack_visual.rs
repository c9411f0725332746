//! Figure 1 analogue: render bodytrack's output with and without load
//! value approximation and write side-by-side PPM images, plus the tracked
//! path overlay, so the "nearly indiscernible" claim can be eyeballed.
//!
//! ```text
//! cargo run --release --example bodytrack_visual [-- <output-dir>]
//! ```

use lva::sim::{SimConfig, SimHarness};
use lva::workloads::{bodytrack::Bodytrack, Kernel, WorkloadScale};
use std::fs;
use std::io::Write as _;
use std::path::Path;

const SIZE: usize = 128;

fn render(estimates: &[(f64, f64)]) -> Vec<u8> {
    // Dark canvas with the estimated track drawn as bright crosses,
    // connected in time order.
    let mut img = vec![16u8; SIZE * SIZE];
    let mut put = |x: i64, y: i64, v: u8| {
        if (0..SIZE as i64).contains(&x) && (0..SIZE as i64).contains(&y) {
            let p = &mut img[y as usize * SIZE + x as usize];
            *p = (*p).max(v);
        }
    };
    for (i, &(x, y)) in estimates.iter().enumerate() {
        let (x, y) = (x.round() as i64, y.round() as i64);
        let v = 128 + (127 * (i + 1) / estimates.len()) as u8 / 2;
        for d in -3..=3i64 {
            put(x + d, y, v);
            put(x, y + d, v);
        }
    }
    img
}

fn write_pgm(path: &Path, img: &[u8]) -> std::io::Result<()> {
    let mut f = fs::File::create(path)?;
    writeln!(f, "P5\n{SIZE} {SIZE}\n255")?;
    f.write_all(img)
}

fn main() -> std::io::Result<()> {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/fig1".into());
    fs::create_dir_all(&dir)?;
    let workload = Bodytrack::new(WorkloadScale::Test);

    let mut precise_h = SimHarness::new(SimConfig::precise());
    let precise = workload.run(&mut precise_h);
    let mut approx_h = SimHarness::new(SimConfig::baseline_lva());
    let approx = workload.run(&mut approx_h);

    let error = workload.output_error(&precise, &approx);
    write_pgm(&Path::new(&dir).join("precise.pgm"), &render(&precise))?;
    write_pgm(&Path::new(&dir).join("approx.pgm"), &render(&approx))?;

    println!("Figure 1 analogue written to {dir}/precise.pgm and {dir}/approx.pgm");
    println!();
    println!(
        "{:<8} {:>22} {:>22}",
        "frame", "precise (x, y)", "approx (x, y)"
    );
    for (i, (p, a)) in precise.iter().zip(&approx).enumerate() {
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            i, p.0, p.1, a.0, a.1
        );
    }
    println!();
    println!(
        "output error: {:.2}%  (paper reports 7.7% for its bodytrack run, with\nvisually indiscernible output)",
        error * 100.0
    );
    Ok(())
}
