//! `plot` — renders bench and CLI manifests into SVG figures.
//!
//! `--from-json` takes the `BENCH_<id>.json` manifest a bench wrote and
//! renders each of its tables as a grouped-bar chart — no re-simulation
//! needed.
//!
//! ```text
//! LVA_BENCH_DIR=$PWD/target/experiments cargo bench -p lva-bench
//! cargo run -p lva-bench --bin plot -- --from-json target/experiments/BENCH_fig4.json
//! cargo run -p lva-bench --bin plot -- --attribution attr.json
//! ```
//!
//! `--attribution` takes a manifest written by
//! `lva-explore attribute <benchmark> --out attr.json` and renders the
//! per-PC approximation-error heatmap from its `pc/<pc>/err_ppm/b<i>`
//! histogram stats.
//!
//! `--timeline` takes a manifest written by
//! `lva-explore timeline <benchmark> --out tl.json` and renders a
//! sparkline grid — one row per timeline counter, one polyline per
//! core's per-epoch deltas — to `<stem>_timeline.svg`.

use lva_bench::manifest::tables;
use lva_bench::svg::{
    render_grouped_bars, render_pc_error_heatmap, render_sparkline_grid, HeatmapRow, SparkRow,
};
use lva_obs::{parse_json, read_manifest, Json, TimelineRecord};
use std::path::Path;
use std::process::ExitCode;

/// Renders every table of a `BENCH_*.json` manifest to
/// `<stem>_<table-slug>.svg` next to the manifest.
fn plot_from_json(path: &str) -> Result<usize, String> {
    let record = read_manifest(Path::new(path))?;
    let figure_tables = tables(&record);
    if figure_tables.is_empty() {
        return Err(format!(
            "{path}: manifest `{}` holds no figure tables (written by a figure bench?)",
            record.name
        ));
    }
    let path = Path::new(path);
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("figure");
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut rendered = 0;
    for (value_name, series) in &figure_tables {
        let slug: String = value_name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let title = format!("{} — {value_name}", record.name);
        let svg = render_grouped_bars(&title, value_name, series);
        let out = dir.join(format!("{stem}_{slug}.svg"));
        std::fs::write(&out, svg).map_err(|e| format!("write {}: {e}", out.display()))?;
        println!("rendered {}", out.display());
        rendered += 1;
    }
    Ok(rendered)
}

/// Renders the per-PC error heatmap of an attribution manifest to
/// `<stem>_err_heatmap.svg` next to it.
fn plot_attribution(path: &str) -> Result<usize, String> {
    let record = read_manifest(Path::new(path))?;
    // Collect `pc/<pc>/err_ppm/b<i>` buckets and `pc/<pc>/misses` (for
    // hottest-first row order) in one pass over the stats.
    let mut misses: Vec<(String, f64)> = Vec::new();
    let mut buckets: Vec<(String, usize, f64)> = Vec::new();
    for (stat_path, value) in &record.stats {
        let Some(rest) = stat_path.strip_prefix("pc/") else {
            continue;
        };
        let Some((pc, field)) = rest.split_once('/') else {
            continue;
        };
        if field == "misses" {
            misses.push((pc.to_owned(), *value));
        } else if let Some(b) = field.strip_prefix("err_ppm/b") {
            if let Ok(bucket) = b.parse::<usize>() {
                buckets.push((pc.to_owned(), bucket, *value));
            }
        }
    }
    misses.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let rows: Vec<HeatmapRow> = misses
        .iter()
        .filter_map(|(pc, _)| {
            let pc_buckets: Vec<(usize, f64)> = buckets
                .iter()
                .filter(|(p, _, _)| p == pc)
                .map(|&(_, b, n)| (b, n))
                .collect();
            (!pc_buckets.is_empty()).then(|| HeatmapRow {
                label: pc.clone(),
                buckets: pc_buckets,
            })
        })
        .collect();
    if rows.is_empty() {
        return Err(format!(
            "{path}: manifest `{}` holds no pc/<pc>/err_ppm histogram stats \
             (written by `lva-explore attribute --out`?)",
            record.name
        ));
    }
    let path = Path::new(path);
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("attr");
    let out = path
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join(format!("{stem}_err_heatmap.svg"));
    let svg = render_pc_error_heatmap(
        &format!("{} — per-PC approximation error", record.name),
        &rows,
    );
    std::fs::write(&out, svg).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("rendered {} ({} PCs)", out.display(), rows.len());
    Ok(1)
}

/// Renders the sparkline grid of a timeline manifest to
/// `<stem>_timeline.svg` next to it.
fn plot_timeline(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    match json.get("kind").and_then(Json::as_str) {
        Some("lva-explore.timeline") => {}
        other => {
            return Err(format!(
                "{path}: kind {other:?} is not a timeline manifest \
                 (written by `lva-explore timeline --out`?)"
            ));
        }
    }
    let records: Vec<TimelineRecord> = json
        .get("threads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: timeline manifest is missing the 'threads' array"))?
        .iter()
        .map(TimelineRecord::from_json)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: {e}"))?;

    // Union of counter paths across cores, first-seen order, one
    // sparkline row per path with every core's series overlaid.
    let mut paths: Vec<String> = Vec::new();
    for record in &records {
        for p in record.timeline.counter_paths() {
            if !paths.contains(&p) {
                paths.push(p);
            }
        }
    }
    let rows: Vec<SparkRow> = paths
        .iter()
        .map(|p| SparkRow {
            label: p.clone(),
            series: records
                .iter()
                .map(|r| {
                    r.timeline
                        .counter_series(p)
                        .into_iter()
                        .map(|v| v as f64)
                        .collect()
                })
                .collect(),
        })
        .collect();
    if rows.is_empty() {
        return Err(format!(
            "{path}: timeline manifest holds no counter series (empty run?)"
        ));
    }

    let workload = json.get("workload").and_then(Json::as_str).unwrap_or("run");
    let title = format!(
        "{workload} — per-epoch counter deltas ({} core{})",
        records.len(),
        if records.len() == 1 { "" } else { "s" },
    );
    let svg = render_sparkline_grid(&title, &rows);
    let path = Path::new(path);
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("tl");
    let out = path
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join(format!("{stem}_timeline.svg"));
    std::fs::write(&out, svg).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!(
        "rendered {} ({} counters x {} cores)",
        out.display(),
        rows.len(),
        records.len()
    );
    Ok(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--from-json") => match args.get(1) {
            Some(file) => plot_from_json(file),
            None => Err("usage: plot --from-json <BENCH_*.json>".to_owned()),
        },
        Some("--attribution") => match args.get(1) {
            Some(file) => plot_attribution(file),
            None => Err("usage: plot --attribution <attr.json>".to_owned()),
        },
        Some("--timeline") => match args.get(1) {
            Some(file) => plot_timeline(file),
            None => Err("usage: plot --timeline <timeline.json>".to_owned()),
        },
        _ => Err(
            "usage: plot --from-json <BENCH_*.json> | plot --attribution <attr.json> | \
             plot --timeline <timeline.json> — renders figures to .svg"
                .to_owned(),
        ),
    };
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
