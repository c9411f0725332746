//! Minimal grouped-bar-chart SVG rendering for the experiment tables.
//!
//! The paper presents its results as grouped bar charts (benchmarks on the
//! x-axis, one bar per configuration). [`render_grouped_bars`] turns a
//! [`Series`] table into exactly that, with no external
//! dependencies; the `plot` binary renders the tables of a bench's
//! `BENCH_<id>.json` manifest with it.

use crate::{Series, BENCHMARKS};
use std::fmt::Write as _;

/// Chart geometry; the defaults fit seven benchmarks and up to ~8 series.
#[derive(Debug, Clone, Copy)]
pub struct ChartStyle {
    /// Total width in pixels.
    pub width: f64,
    /// Total height in pixels.
    pub height: f64,
    /// Margin around the plot area.
    pub margin: f64,
}

impl Default for ChartStyle {
    fn default() -> Self {
        ChartStyle {
            width: 900.0,
            height: 420.0,
            margin: 60.0,
        }
    }
}

/// A qualitative palette that survives grayscale printing reasonably well.
const PALETTE: [&str; 10] = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b4", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ac",
];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders a grouped bar chart (benchmarks + mean on the x-axis, one bar
/// per series in each group) and returns the SVG document.
///
/// Negative values draw downward from the zero line, so savings/slowdown
/// charts render correctly.
#[must_use]
pub fn render_grouped_bars(title: &str, y_label: &str, series: &[Series]) -> String {
    let style = ChartStyle::default();
    let groups: Vec<&str> = BENCHMARKS.iter().copied().chain(["mean"]).collect();

    let mut max_v = 0.0f64;
    let mut min_v = 0.0f64;
    for s in series {
        for (i, &v) in s.values.iter().enumerate() {
            if i < BENCHMARKS.len() && v.is_finite() {
                max_v = max_v.max(v);
                min_v = min_v.min(v);
            }
        }
        let m = s.mean();
        if m.is_finite() {
            max_v = max_v.max(m);
            min_v = min_v.min(m);
        }
    }
    if max_v == min_v {
        max_v = min_v + 1.0;
    }
    // Pad the range 5% so bars never touch the frame.
    let span = max_v - min_v;
    let (lo, hi) = (min_v - 0.05 * span, max_v + 0.05 * span);

    let plot_w = style.width - 2.0 * style.margin;
    let plot_h = style.height - 2.0 * style.margin;
    let y_of = |v: f64| style.margin + plot_h * (1.0 - (v - lo) / (hi - lo));
    let group_w = plot_w / groups.len() as f64;
    let bar_w = (group_w * 0.8) / series.len().max(1) as f64;

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">"#,
        w = style.width,
        h = style.height
    );
    let _ = write!(
        svg,
        r#"<rect width="{w}" height="{h}" fill="white"/><text x="{cx}" y="20" text-anchor="middle" font-size="14">{t}</text>"#,
        w = style.width,
        h = style.height,
        cx = style.width / 2.0,
        t = esc(title)
    );
    // Y axis: 5 ticks.
    for k in 0..=4 {
        let v = lo + (hi - lo) * f64::from(k) / 4.0;
        let y = y_of(v);
        let _ = write!(
            svg,
            r##"<line x1="{x0}" y1="{y:.1}" x2="{x1}" y2="{y:.1}" stroke="#ddd"/><text x="{tx}" y="{ty:.1}" text-anchor="end">{v:.2}</text>"##,
            x0 = style.margin,
            x1 = style.width - style.margin,
            tx = style.margin - 6.0,
            ty = y + 4.0,
        );
    }
    // Zero line when the range spans zero.
    if lo < 0.0 && hi > 0.0 {
        let y = y_of(0.0);
        let _ = write!(
            svg,
            r##"<line x1="{x0}" y1="{y:.1}" x2="{x1}" y2="{y:.1}" stroke="#333"/>"##,
            x0 = style.margin,
            x1 = style.width - style.margin,
        );
    }
    // Y label.
    let _ = write!(
        svg,
        r#"<text x="14" y="{cy}" text-anchor="middle" transform="rotate(-90 14 {cy})">{l}</text>"#,
        cy = style.height / 2.0,
        l = esc(y_label)
    );

    // Bars.
    let base = y_of(lo.max(0.0).min(hi));
    for (g, name) in groups.iter().enumerate() {
        let gx = style.margin + group_w * (g as f64 + 0.1);
        for (s_idx, s) in series.iter().enumerate() {
            let v = if g < BENCHMARKS.len() {
                s.values.get(g).copied().unwrap_or(f64::NAN)
            } else {
                s.mean()
            };
            if !v.is_finite() {
                continue;
            }
            let y = y_of(v);
            let (top, height) = if y <= base {
                (y, base - y)
            } else {
                (base, y - base)
            };
            let _ = write!(
                svg,
                r#"<rect x="{x:.1}" y="{top:.1}" width="{bw:.1}" height="{hh:.1}" fill="{c}"><title>{lbl}: {v:.4}</title></rect>"#,
                x = gx + bar_w * s_idx as f64,
                bw = bar_w.max(1.0),
                hh = height.max(0.5),
                c = PALETTE[s_idx % PALETTE.len()],
                lbl = esc(&format!("{name} / {}", s.label)),
            );
        }
        let _ = write!(
            svg,
            r#"<text x="{tx:.1}" y="{ty}" text-anchor="middle">{n}</text>"#,
            tx = gx + group_w * 0.4,
            ty = style.height - style.margin + 16.0,
            n = esc(name),
        );
    }
    // Legend.
    for (s_idx, s) in series.iter().enumerate() {
        let lx = style.margin + 140.0 * (s_idx % 6) as f64;
        let ly = style.height - 14.0 - 14.0 * (s_idx / 6) as f64;
        let _ = write!(
            svg,
            r#"<rect x="{lx}" y="{ry}" width="10" height="10" fill="{c}"/><text x="{tx}" y="{ty}">{l}</text>"#,
            ry = ly - 9.0,
            c = PALETTE[s_idx % PALETTE.len()],
            tx = lx + 14.0,
            ty = ly,
            l = esc(&s.label),
        );
    }
    svg.push_str("</svg>");
    svg
}

/// One row of the per-PC error heatmap: a PC label plus its sparse
/// log2-bucket error histogram as `(bucket_index, count)` pairs — the
/// `pc/<pc>/err_ppm/b<i>` stats of an attribution manifest.
#[derive(Debug, Clone)]
pub struct HeatmapRow {
    /// Row label (the static PC, e.g. `0x1008`).
    pub label: String,
    /// Sparse histogram: `(log2 bucket index, sample count)`.
    pub buckets: Vec<(usize, f64)>,
}

/// Renders a per-PC approximation-error heatmap: one row per static PC,
/// one column per log2(error ppm) bucket, cell darkness proportional to
/// the share of that PC's trainings landing in the bucket. Returns the
/// SVG document; rows render in the order given (callers pass
/// hottest-first).
#[must_use]
pub fn render_pc_error_heatmap(title: &str, rows: &[HeatmapRow]) -> String {
    let margin = 70.0;
    let cell_w = 22.0;
    let cell_h = 18.0;
    // Column range: every bucket any row touches, padded one column so a
    // single-bucket table still reads as a grid.
    let lo = rows
        .iter()
        .flat_map(|r| r.buckets.iter().map(|&(b, _)| b))
        .min()
        .unwrap_or(0);
    let hi = rows
        .iter()
        .flat_map(|r| r.buckets.iter().map(|&(b, _)| b))
        .max()
        .unwrap_or(0)
        + 1;
    let cols = hi - lo + 1;
    let width = margin * 2.0 + cell_w * cols as f64;
    let height = margin * 2.0 + cell_h * rows.len().max(1) as f64;

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">"#,
    );
    let _ = write!(
        svg,
        r#"<rect width="{width}" height="{height}" fill="white"/><text x="{cx}" y="20" text-anchor="middle" font-size="14">{t}</text>"#,
        cx = width / 2.0,
        t = esc(title)
    );
    // X axis: log2 error-ppm bucket labels, every other column.
    for (c, bucket) in (lo..=hi).enumerate() {
        if c % 2 == 0 {
            let _ = write!(
                svg,
                r#"<text x="{x:.1}" y="{y:.1}" text-anchor="middle">2^{bucket}</text>"#,
                x = margin + cell_w * (c as f64 + 0.5),
                y = height - margin + 16.0,
            );
        }
    }
    let _ = write!(
        svg,
        r#"<text x="{cx}" y="{y:.1}" text-anchor="middle">relative error (ppm, log2 buckets)</text>"#,
        cx = width / 2.0,
        y = height - margin + 34.0,
    );
    for (r, row) in rows.iter().enumerate() {
        let ry = margin + cell_h * r as f64;
        let _ = write!(
            svg,
            r#"<text x="{x:.1}" y="{y:.1}" text-anchor="end">{l}</text>"#,
            x = margin - 6.0,
            y = ry + cell_h * 0.7,
            l = esc(&row.label),
        );
        // Normalise per row, so a cold PC's distribution is as readable
        // as a hot one's.
        let row_max = row
            .buckets
            .iter()
            .map(|&(_, n)| n)
            .fold(0.0f64, f64::max)
            .max(1.0);
        for &(bucket, n) in &row.buckets {
            if !(lo..=hi).contains(&bucket) || n <= 0.0 {
                continue;
            }
            let c = bucket - lo;
            // White (0) to the palette blue (row max).
            let share = (n / row_max).clamp(0.0, 1.0);
            let lerp = |a: f64, b: f64| (a + (b - a) * share).round() as u8;
            let (red, green, blue) = (lerp(255.0, 78.0), lerp(255.0, 121.0), lerp(255.0, 167.0));
            let _ = write!(
                svg,
                r##"<rect x="{x:.1}" y="{ry:.1}" width="{cell_w:.1}" height="{cell_h:.1}" fill="#{red:02x}{green:02x}{blue:02x}" stroke="#eee"><title>{l} b{bucket}: {n}</title></rect>"##,
                x = margin + cell_w * c as f64,
                l = esc(&row.label),
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

/// One sparkline row: a label plus one per-epoch series per core. The
/// series overlay in the row's band, each normalized to the row maximum,
/// so per-core skew is visible at a glance.
#[derive(Debug, Clone)]
pub struct SparkRow {
    /// Row label (a counter path, e.g. `phase1/loads`).
    pub label: String,
    /// One per-epoch value series per core.
    pub series: Vec<Vec<f64>>,
}

/// Renders a grid of sparklines — one row per counter, one polyline per
/// core — the `plot --timeline` figure. Rows normalize independently;
/// the row maximum is annotated on the right so absolute scales survive.
#[must_use]
pub fn render_sparkline_grid(title: &str, rows: &[SparkRow]) -> String {
    let label_w = 250.0;
    let band_w = 480.0;
    let value_w = 110.0;
    let band_h = 22.0;
    let gap = 6.0;
    let top = 40.0;
    let width = label_w + band_w + value_w + 20.0;
    let height = top + rows.len().max(1) as f64 * (band_h + gap) + 20.0;

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">"#,
    );
    let _ = write!(
        svg,
        r#"<rect width="{width}" height="{height}" fill="white"/><text x="{cx}" y="20" text-anchor="middle" font-size="14">{t}</text>"#,
        cx = width / 2.0,
        t = esc(title)
    );
    for (r, row) in rows.iter().enumerate() {
        let y0 = top + r as f64 * (band_h + gap);
        let max_v = row
            .series
            .iter()
            .flatten()
            .copied()
            .filter(|v| v.is_finite())
            .fold(0.0f64, f64::max);
        let _ = write!(
            svg,
            r#"<text x="{x:.1}" y="{y:.1}" text-anchor="end">{l}</text>"#,
            x = label_w - 8.0,
            y = y0 + band_h * 0.75,
            l = esc(&row.label),
        );
        let _ = write!(
            svg,
            r##"<rect x="{label_w}" y="{y0:.1}" width="{band_w}" height="{band_h}" fill="#f7f7f7"/>"##,
        );
        let denom = if max_v > 0.0 { max_v } else { 1.0 };
        for (s_idx, series) in row.series.iter().enumerate() {
            let n = series.len();
            let points: Vec<String> = series
                .iter()
                .enumerate()
                .filter(|(_, v)| v.is_finite())
                .map(|(i, &v)| {
                    let x = label_w
                        + if n <= 1 {
                            band_w / 2.0
                        } else {
                            band_w * i as f64 / (n - 1) as f64
                        };
                    let y = y0 + band_h * (1.0 - (v / denom).clamp(0.0, 1.0));
                    format!("{x:.1},{y:.1}")
                })
                .collect();
            if points.is_empty() {
                continue;
            }
            let _ = write!(
                svg,
                r#"<polyline points="{p}" fill="none" stroke="{c}" stroke-width="1.2" opacity="0.85"/>"#,
                p = points.join(" "),
                c = PALETTE[s_idx % PALETTE.len()],
            );
        }
        let _ = write!(
            svg,
            r#"<text x="{x:.1}" y="{y:.1}">max {max_v}</text>"#,
            x = label_w + band_w + 6.0,
            y = y0 + band_h * 0.75,
        );
    }
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Series> {
        vec![
            Series::new("a", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
            Series::new("b", vec![0.5, -1.0, 1.5, 2.0, 2.5, 3.0, 3.5]),
        ]
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let svg = render_grouped_bars("Figure X", "normalized MPKI", &sample());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // Every opened tag closes: rects are either self-closed or carry a
        // <title> child; text/line/title tags balance.
        assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
        assert_eq!(
            svg.matches("<title>").count(),
            svg.matches("</title>").count()
        );
        assert_eq!(
            svg.matches("<title>").count(),
            svg.matches("</rect>").count()
        );
    }

    #[test]
    fn svg_contains_all_groups_and_series() {
        let svg = render_grouped_bars("t", "y", &sample());
        for b in BENCHMARKS {
            assert!(svg.contains(b), "missing group {b}");
        }
        assert!(svg.contains("mean"));
        // 2 series x 8 groups = 16 bars.
        assert_eq!(svg.matches("<title>").count(), 16);
    }

    #[test]
    fn negative_values_render_without_panicking() {
        let s = [Series::new("neg", vec![-1.0; 7])];
        let svg = render_grouped_bars("t", "y", &s);
        assert!(svg.contains("<rect"));
    }

    #[test]
    fn titles_are_escaped() {
        let svg = render_grouped_bars("a < b & c", "y", &sample());
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn heatmap_renders_one_cell_per_nonzero_bucket() {
        let rows = vec![
            HeatmapRow {
                label: "0x1008".to_owned(),
                buckets: vec![(10, 5.0), (12, 1.0)],
            },
            HeatmapRow {
                label: "0x1004".to_owned(),
                buckets: vec![(17, 3.0)],
            },
        ];
        let svg = render_pc_error_heatmap("blackscholes error heatmap", &rows);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<title>").count(), 3, "3 non-zero cells");
        assert!(svg.contains("0x1008") && svg.contains("0x1004"));
        // The hottest cell is fully saturated, the rest lighter.
        assert!(svg.contains("#4e79a7"));
        assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
    }

    #[test]
    fn heatmap_handles_empty_input() {
        let svg = render_pc_error_heatmap("empty", &[]);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<title>").count(), 0);
    }

    #[test]
    fn sparkline_grid_draws_one_polyline_per_core_series() {
        let rows = vec![
            SparkRow {
                label: "phase1/loads".to_owned(),
                series: vec![vec![4.0, 5.0, 6.0], vec![4.0, 4.0, 3.0]],
            },
            SparkRow {
                label: "phase1/l1/hits".to_owned(),
                series: vec![vec![2.0, 3.0, 3.0], vec![1.0, 2.0, 2.0]],
            },
        ];
        let svg = render_sparkline_grid("blackscholes timeline", &rows);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 4, "2 rows x 2 cores");
        assert!(svg.contains("phase1/loads") && svg.contains("phase1/l1/hits"));
        assert!(svg.contains("max 6"), "row maxima annotated");
        assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
    }

    #[test]
    fn sparkline_grid_tolerates_flat_empty_and_nan_series() {
        let rows = vec![
            SparkRow {
                label: "all-zero".to_owned(),
                series: vec![vec![0.0, 0.0, 0.0]],
            },
            SparkRow {
                label: "empty".to_owned(),
                series: vec![Vec::new()],
            },
            SparkRow {
                label: "gappy & <odd>".to_owned(),
                series: vec![vec![1.0, f64::NAN, 2.0]],
            },
        ];
        let svg = render_sparkline_grid("edge cases", &rows);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        // The empty series draws nothing; the other two still render.
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("gappy &amp; &lt;odd&gt;"), "labels escaped");
        assert!(!svg.contains("NaN"), "non-finite points are skipped");
    }

    #[test]
    fn zero_span_epoch_rates_never_leak_into_sparkline_coordinates() {
        // A flushed tail epoch can have span 0 while still carrying counter
        // deltas; its windowed rate/ratio must arrive here as NaN (not
        // +Inf) so the renderer's finite-point filter drops it instead of
        // emitting an unplottable coordinate.
        let degenerate = lva_obs::EpochFrame {
            index: 3,
            start: 4096,
            end: 4096,
            counters: vec![("loads".into(), 9), ("l1/hits".into(), 0)],
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        let healthy_rate = 0.5;
        let rows = vec![SparkRow {
            label: "loads/cycle".to_owned(),
            series: vec![vec![
                healthy_rate,
                degenerate.rate("loads"),
                degenerate.ratio("loads", "l1/hits"),
                healthy_rate,
            ]],
        }];
        assert!(degenerate.rate("loads").is_nan());
        let svg = render_sparkline_grid("degenerate epochs", &rows);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 1);
        assert!(!svg.contains("NaN") && !svg.contains("inf"), "{svg}");
    }

    #[test]
    fn sparkline_grid_handles_no_rows() {
        let svg = render_sparkline_grid("empty", &[]);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 0);
    }
}
