//! Figure manifests: the one table sink of the experiment benches.
//!
//! Every bench except fig13 prints its [`Series`] tables through a
//! [`FigureManifest`], which records them as it prints and writes them as
//! `BENCH_<id>.json` through the `lva-obs` atomic artifact writer. Each
//! run so leaves a machine-readable record that `lva-explore compare`
//! can diff and `plot --from-json` can render.
//!
//! Layout inside the run record:
//!
//! * meta `runs` — the seeded runs each value averages;
//! * meta `table<t>` — the value name of table `t` (e.g. `normalized MPKI`);
//! * meta `table<t>/label<s>` — the exact legend label of series `s`;
//! * stat `fig/t<t>/s<s>/<benchmark>` — one value per benchmark, in
//!   [`BENCHMARKS`] order. Means are recomputed on read, never stored.

use crate::{scale_from_env, Series, BENCHMARKS};
use lva_obs::{bench_file_name, write_manifest, RunRecord};
use std::path::PathBuf;

/// Prints the series tables of one bench and records them for
/// `BENCH_<id>.json` (written into `LVA_BENCH_DIR`, default the working
/// directory).
#[derive(Debug)]
pub struct FigureManifest {
    record: RunRecord,
    tables: usize,
}

impl FigureManifest {
    /// A new manifest for the paper item `id` (e.g. `"fig4"`), stamped
    /// with the current workload scale and the `runs` seeds each value
    /// averages.
    #[must_use]
    pub fn new(id: &str, runs: usize) -> Self {
        let mut record = RunRecord::new(id);
        record.set_meta("scale", format!("{:?}", scale_from_env()).to_lowercase());
        record.set_meta("runs", runs.to_string());
        FigureManifest { record, tables: 0 }
    }

    /// Prints one figure-style table — benchmarks as columns, series as
    /// rows, with a trailing mean column (the paper reports averages
    /// everywhere) — and records it.
    pub fn add_table(&mut self, value_name: &str, series: &[Series]) {
        let label_w = series
            .iter()
            .map(|s| s.label.len())
            .max()
            .unwrap_or(8)
            .max(value_name.len())
            + 2;
        print!("{value_name:label_w$}");
        for b in BENCHMARKS {
            print!("{:>13}", &b[..b.len().min(12)]);
        }
        println!("{:>13}", "mean");
        for s in series {
            print!("{:label_w$}", s.label);
            for v in &s.values {
                print!("{v:>13.4}");
            }
            println!("{:>13.4}", s.mean());
        }

        let t = self.tables;
        self.tables += 1;
        self.record.set_meta(format!("table{t}"), value_name);
        for (s, sr) in series.iter().enumerate() {
            self.record
                .set_meta(format!("table{t}/label{s}"), sr.label.as_str());
            for (b, v) in BENCHMARKS.iter().zip(&sr.values) {
                self.record.push_stat(format!("fig/t{t}/s{s}/{b}"), *v);
            }
        }
    }

    /// Writes `BENCH_<id>.json` atomically and names it on stderr.
    ///
    /// # Panics
    ///
    /// Panics if the artifact writer fails: a bench without its manifest
    /// has not done its job.
    pub fn write(&self) {
        let dir = std::env::var("LVA_BENCH_DIR").unwrap_or_else(|_| ".".to_owned());
        let path = PathBuf::from(dir).join(bench_file_name(&self.record.name));
        if let Err(e) = write_manifest(&path, &self.record) {
            panic!("writing {}: {e}", path.display());
        }
        eprintln!("  manifest: {}", path.display());
    }
}

/// Reconstructs the `(value_name, series)` tables stored in a figure
/// manifest, in the order they were added. Benchmarks missing from a
/// series come back as `NaN` so partial manifests still render.
#[must_use]
pub fn tables(record: &RunRecord) -> Vec<(String, Vec<Series>)> {
    let mut out = Vec::new();
    for t in 0.. {
        let Some(value_name) = record.meta(&format!("table{t}")) else {
            break;
        };
        let mut series = Vec::new();
        for s in 0.. {
            let Some(label) = record.meta(&format!("table{t}/label{s}")) else {
                break;
            };
            let values = BENCHMARKS
                .iter()
                .map(|b| {
                    record
                        .stat(&format!("fig/t{t}/s{s}/{b}"))
                        .unwrap_or(f64::NAN)
                })
                .collect();
            series.push(Series::new(label, values));
        }
        out.push((value_name.to_owned(), series));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Series> {
        vec![
            Series::new("LVA-GHB-0", vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
            Series::new("0% (ideal LVP)", vec![1.0; 7]),
        ]
    }

    #[test]
    fn tables_round_trip_through_record() {
        let mut m = FigureManifest::new("figX", 1);
        m.add_table("normalized MPKI", &sample());
        m.add_table("output error %", &sample()[..1]);
        let got = tables(&m.record);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "normalized MPKI");
        assert_eq!(got[0].1.len(), 2);
        assert_eq!(got[0].1[1].label, "0% (ideal LVP)");
        assert_eq!(got[0].1[0].values, sample()[0].values);
        assert_eq!(got[1].0, "output error %");
        assert_eq!(got[1].1.len(), 1);
    }

    #[test]
    fn tables_survive_json_round_trip() {
        let mut m = FigureManifest::new("figY", 1);
        m.add_table("normalized fetches", &sample());
        let text = m.record.to_string_pretty();
        let parsed = RunRecord::parse(&text).expect("manifest parses");
        assert_eq!(tables(&parsed), tables(&m.record));
    }

    #[test]
    fn write_lands_in_bench_dir() {
        let dir = std::env::temp_dir().join("lva_bench_manifest_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = FigureManifest::new("figZ", 1);
        m.add_table("x", &sample());
        // Scoped override of LVA_BENCH_DIR without mutating process env
        // (tests run in parallel): write through the record directly.
        let path = dir.join(lva_obs::bench_file_name("figZ"));
        lva_obs::write_manifest(&path, &m.record).expect("writes");
        assert!(path.ends_with("BENCH_figZ.json"));
        let back = lva_obs::read_manifest(&path).expect("reads");
        assert_eq!(tables(&back).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
