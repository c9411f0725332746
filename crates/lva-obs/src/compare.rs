//! Manifest diffing and the CI regression verdict.
//!
//! [`compare`] walks the union of two manifests' stat paths and classifies
//! every metric: within tolerance, regressed, missing, or new. The result
//! carries both the machine verdict ([`CompareReport::passed`]) and a
//! human-readable delta table (`Display`).
//!
//! **Informational metrics.** Wall-clock and machine-shape stats vary
//! between hosts and must never fail a gate. A stat is *informational* —
//! reported but never compared — when its path starts with `time/` or
//! `env/`, or any `/`-segment ends in `_ns` (which also covers histogram
//! expansions like `point_wall_ns/p99`).
//!
//! **Tolerance.** Comparison is on the symmetric relative difference
//! `|c - b| / max(|b|, |c|)`, which is well-defined when either side is
//! zero and treats growth and shrinkage alike (a gate guards determinism
//! and accuracy, not just one direction). Values whose magnitudes are both
//! below an absolute floor (1e-9) count as equal; a pair of non-finite
//! values counts as equal, while finite-vs-non-finite always fails.

use crate::manifest::RunRecord;
use std::fmt;

/// The default relative tolerance, 0.5% on every metric: tight enough to
/// catch real regressions, loose enough to survive benign floating-point
/// reassociation.
pub const DEFAULT_TOLERANCE: f64 = 0.005;

/// Whether a stat path is informational (never compared): `time/` or
/// `env/` prefixed, or any segment ending in `_ns`.
#[must_use]
pub fn is_informational(path: &str) -> bool {
    path.starts_with("time/")
        || path.starts_with("env/")
        || path.split('/').any(|segment| segment.ends_with("_ns"))
}

/// Verdict for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    /// Within tolerance.
    Pass,
    /// Drifted beyond tolerance — fails the gate.
    Fail,
    /// Present in the baseline, absent from the candidate — fails the
    /// gate (a silently vanished metric hides regressions).
    MissingInCandidate,
    /// New in the candidate — reported, does not fail.
    NewInCandidate,
    /// Informational metric (timing/environment) — never compared.
    Informational,
}

/// One row of the delta table.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Metric path.
    pub metric: String,
    /// Baseline value, if present.
    pub baseline: Option<f64>,
    /// Candidate value, if present.
    pub candidate: Option<f64>,
    /// Symmetric relative difference (0 when either side is missing).
    pub rel_delta: f64,
    /// Verdict.
    pub status: RowStatus,
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// One row per union stat path, baseline order first.
    pub rows: Vec<CompareRow>,
    /// The relative tolerance every compared row was held to.
    pub tolerance: f64,
}

impl CompareReport {
    /// True iff no row failed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    /// Number of failing rows.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, RowStatus::Fail | RowStatus::MissingInCandidate))
            .count()
    }

    /// Rows that failed, for targeted error reporting.
    pub(crate) fn failing_rows(&self) -> impl Iterator<Item = &CompareRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, RowStatus::Fail | RowStatus::MissingInCandidate))
    }

    /// All non-informational rows in display order: failures first, then
    /// the rest, each group sorted by descending relative delta (ties
    /// broken by metric path) so the worst regressions surface at the top.
    #[must_use]
    pub(crate) fn sorted_rows(&self) -> Vec<&CompareRow> {
        let by_delta_desc = |a: &&CompareRow, b: &&CompareRow| {
            b.rel_delta
                .partial_cmp(&a.rel_delta)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.metric.cmp(&b.metric))
        };
        let mut failing: Vec<&CompareRow> = self.failing_rows().collect();
        failing.sort_by(by_delta_desc);
        let mut rest: Vec<&CompareRow> = self
            .rows
            .iter()
            .filter(|r| {
                !matches!(
                    r.status,
                    RowStatus::Fail | RowStatus::MissingInCandidate | RowStatus::Informational
                )
            })
            .collect();
        rest.sort_by(by_delta_desc);
        failing.extend(rest);
        failing
    }

    /// Renders the delta table, optionally truncated to the `top` rows
    /// (the verdict line always reflects the full comparison). `Display`
    /// is `to_table(None)`.
    #[must_use]
    pub fn to_table(&self, top: Option<usize>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>16} {:>16} {:>10} {:>8}  status",
            "metric", "baseline", "candidate", "delta %", "tol %"
        );
        let rows = self.sorted_rows();
        let shown = top.unwrap_or(rows.len()).min(rows.len());
        for row in &rows[..shown] {
            let status = match row.status {
                RowStatus::Pass => "ok",
                RowStatus::Fail => "FAIL",
                RowStatus::MissingInCandidate => "MISSING",
                RowStatus::NewInCandidate => "new",
                RowStatus::Informational => unreachable!("filtered by sorted_rows"),
            };
            let _ = writeln!(
                out,
                "{:<44} {:>16} {:>16} {:>10.4} {:>8.4}  {status}",
                row.metric,
                fmt_opt(row.baseline),
                fmt_opt(row.candidate),
                row.rel_delta * 100.0,
                self.tolerance * 100.0,
            );
        }
        if shown < rows.len() {
            let _ = writeln!(
                out,
                "... ({} more rows below --top {})",
                rows.len() - shown,
                shown
            );
        }
        let informational = self
            .rows
            .iter()
            .filter(|r| r.status == RowStatus::Informational)
            .count();
        if informational > 0 {
            let _ = writeln!(
                out,
                "({informational} informational timing/env metrics not compared)"
            );
        }
        let _ = write!(
            out,
            "verdict: {} ({} compared, {} failed)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.rows.len() - informational,
            self.failures(),
        );
        out
    }
}

/// Absolute floor below which two magnitudes count as equal.
const ABS_FLOOR: f64 = 1e-9;

/// Symmetric relative difference; see the module docs.
#[must_use]
pub(crate) fn relative_delta(baseline: f64, candidate: f64) -> f64 {
    if !baseline.is_finite() || !candidate.is_finite() {
        // Both non-finite: equal by convention. Mixed: maximal drift.
        return if !baseline.is_finite() && !candidate.is_finite() {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let scale = baseline.abs().max(candidate.abs());
    if scale < ABS_FLOOR {
        return 0.0;
    }
    (candidate - baseline).abs() / scale
}

/// Diffs two manifests, failing every compared metric whose relative
/// drift exceeds `tolerance` (e.g. [`DEFAULT_TOLERANCE`]; `0.0` is the
/// exact comparison a determinism gate wants).
#[must_use]
pub fn compare(baseline: &RunRecord, candidate: &RunRecord, tolerance: f64) -> CompareReport {
    let mut rows = Vec::with_capacity(baseline.stats.len());
    for (path, &base) in baseline.stats.iter().map(|(p, v)| (p, v)) {
        let cand = candidate.stat(path);
        let row = match cand {
            None if is_informational(path) => CompareRow {
                metric: path.clone(),
                baseline: Some(base),
                candidate: None,
                rel_delta: 0.0,
                status: RowStatus::Informational,
            },
            None => CompareRow {
                metric: path.clone(),
                baseline: Some(base),
                candidate: None,
                rel_delta: 0.0,
                status: RowStatus::MissingInCandidate,
            },
            Some(cand) => {
                let rel_delta = relative_delta(base, cand);
                let status = if is_informational(path) {
                    RowStatus::Informational
                } else if rel_delta <= tolerance {
                    RowStatus::Pass
                } else {
                    RowStatus::Fail
                };
                CompareRow {
                    metric: path.clone(),
                    baseline: Some(base),
                    candidate: Some(cand),
                    rel_delta,
                    status,
                }
            }
        };
        rows.push(row);
    }
    for (path, &cand) in candidate.stats.iter().map(|(p, v)| (p, v)) {
        if baseline.stat(path).is_none() {
            rows.push(CompareRow {
                metric: path.clone(),
                baseline: None,
                candidate: Some(cand),
                rel_delta: 0.0,
                status: if is_informational(path) {
                    RowStatus::Informational
                } else {
                    RowStatus::NewInCandidate
                },
            });
        }
    }
    CompareReport { rows, tolerance }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        None => "-".to_owned(),
        Some(v) if v.is_finite() => format!("{v:.6}"),
        Some(_) => "non-finite".to_owned(),
    }
}

impl fmt::Display for CompareReport {
    /// The human-readable delta table: failures first, sorted by
    /// descending relative delta, informational rows summarized in one
    /// trailing line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(stats: &[(&str, f64)]) -> RunRecord {
        let mut r = RunRecord::new("t");
        for &(p, v) in stats {
            r.push_stat(p, v);
        }
        r
    }

    #[test]
    fn identical_manifests_pass() {
        let a = record(&[("derived/mpki", 2.0), ("total/loads", 1000.0)]);
        let report = compare(&a, &a.clone(), 0.0);
        assert!(report.passed());
        assert_eq!(report.failures(), 0);
        assert!(report.to_string().contains("PASS"));
    }

    #[test]
    fn ten_percent_mpki_regression_fails() {
        let base = record(&[("derived/mpki", 2.0)]);
        let cand = record(&[("derived/mpki", 2.2)]);
        let report = compare(&base, &cand, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        let row = report.failing_rows().next().expect("one failure");
        assert_eq!(row.metric, "derived/mpki");
        assert!(
            (row.rel_delta - 0.2 / 2.2).abs() < 1e-12,
            "{}",
            row.rel_delta
        );
        assert!(report.to_string().contains("FAIL"));
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let base = record(&[("derived/mpki", 2.0)]);
        let cand = record(&[("derived/mpki", 2.002)]);
        assert!(compare(&base, &cand, DEFAULT_TOLERANCE).passed());
        assert!(!compare(&base, &cand, 0.0).passed());
    }

    #[test]
    fn improvement_beyond_tolerance_also_fails() {
        // The gate guards reproducibility, not a single direction.
        let base = record(&[("derived/mpki", 2.0)]);
        let cand = record(&[("derived/mpki", 1.0)]);
        assert!(!compare(&base, &cand, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn timing_and_env_metrics_never_fail() {
        let base = record(&[
            ("time/wall_ns", 100.0),
            ("env/workers", 4.0),
            ("sweep/point_wall_ns/p99", 500.0),
            ("derived/mpki", 2.0),
        ]);
        let cand = record(&[
            ("time/wall_ns", 9999.0),
            ("env/workers", 64.0),
            ("sweep/point_wall_ns/p99", 1.0),
            ("derived/mpki", 2.0),
        ]);
        let report = compare(&base, &cand, 0.0);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn missing_metric_fails_but_new_metric_passes() {
        let base = record(&[("a", 1.0), ("b", 2.0)]);
        let cand = record(&[("a", 1.0), ("c", 3.0)]);
        let report = compare(&base, &cand, 0.0);
        assert!(!report.passed());
        let statuses: Vec<_> = report
            .rows
            .iter()
            .map(|r| (r.metric.as_str(), r.status))
            .collect();
        assert!(statuses.contains(&("b", RowStatus::MissingInCandidate)));
        assert!(statuses.contains(&("c", RowStatus::NewInCandidate)));
        // Only the disappearance fails.
        assert_eq!(report.failures(), 1);
    }

    #[test]
    fn zero_and_nonfinite_edges() {
        assert_eq!(relative_delta(0.0, 0.0), 0.0);
        assert_eq!(relative_delta(0.0, 1.0), 1.0);
        assert_eq!(relative_delta(f64::NAN, f64::NAN), 0.0);
        assert_eq!(relative_delta(f64::NAN, f64::INFINITY), 0.0);
        assert_eq!(relative_delta(1.0, f64::NAN), f64::INFINITY);
        assert_eq!(relative_delta(-1.0, 1.0), 2.0);
    }

    #[test]
    fn report_table_lists_failures_first() {
        let base = record(&[("ok_metric", 1.0), ("bad_metric", 1.0)]);
        let cand = record(&[("ok_metric", 1.0), ("bad_metric", 5.0)]);
        let text = compare(&base, &cand, DEFAULT_TOLERANCE).to_string();
        let bad = text.find("bad_metric").expect("bad row");
        let ok = text.find("ok_metric").expect("ok row");
        assert!(bad < ok, "failures first:\n{text}");
    }

    #[test]
    fn failures_sort_by_descending_relative_delta() {
        let base = record(&[("small_drift", 1.0), ("big_drift", 1.0), ("worst", 1.0)]);
        let cand = record(&[("small_drift", 1.1), ("big_drift", 2.0), ("worst", 10.0)]);
        let report = compare(&base, &cand, DEFAULT_TOLERANCE);
        let order: Vec<&str> = report
            .sorted_rows()
            .iter()
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(order, vec!["worst", "big_drift", "small_drift"]);
        let text = report.to_string();
        let worst = text.find("worst").expect("worst row");
        let small = text.find("small_drift").expect("small row");
        assert!(worst < small, "descending delta:\n{text}");
    }

    #[test]
    fn top_n_truncates_the_table_but_not_the_verdict() {
        let base = record(&[("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)]);
        let cand = record(&[("a", 9.0), ("b", 5.0), ("c", 2.0), ("d", 1.0)]);
        let report = compare(&base, &cand, DEFAULT_TOLERANCE);
        let table = report.to_table(Some(2));
        assert!(table.contains("a "), "{table}");
        assert!(table.contains("b "), "{table}");
        assert!(!table.contains("\nc "), "c must be truncated:\n{table}");
        assert!(table.contains("2 more rows below --top 2"), "{table}");
        assert!(table.contains("(4 compared, 3 failed)"), "{table}");
        // top larger than the table is a no-op.
        assert_eq!(report.to_table(Some(100)), report.to_table(None));
    }
}
