//! Integration tests for the `lva-explore` command-line interface,
//! including the trace-file round trip into the full-system simulator.

use std::process::Command;

fn explore(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lva-explore"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_names_all_benchmarks() {
    let (ok, stdout, _) = explore(&["list"]);
    assert!(ok);
    for name in [
        "blackscholes",
        "bodytrack",
        "canneal",
        "ferret",
        "fluidanimate",
        "swaptions",
        "x264",
    ] {
        assert!(stdout.contains(name), "missing {name} in: {stdout}");
    }
}

#[test]
fn run_reports_the_headline_metrics() {
    let (ok, stdout, _) = explore(&["run", "blackscholes", "--mech", "lva", "--scale", "test"]);
    assert!(ok, "{stdout}");
    for needle in ["MPKI", "coverage", "output error", "normalized fetches"] {
        assert!(stdout.contains(needle), "missing {needle}");
    }
}

#[test]
fn run_rejects_unknown_benchmark_and_mechanism() {
    let (ok, _, stderr) = explore(&["run", "doom", "--scale", "test"]);
    assert!(!ok);
    assert!(stderr.contains("unknown benchmark"));
    let (ok, _, stderr) = explore(&["run", "canneal", "--mech", "psychic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown mechanism"));
}

#[test]
fn trace_then_replay_round_trips() {
    let dir = std::env::temp_dir().join("lva_cli_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("swaptions.lvat");
    let path_str = path.to_str().expect("utf8 path");

    let (ok, stdout, stderr) = explore(&["trace", "swaptions", "--out", path_str]);
    assert!(ok, "trace failed: {stderr}");
    assert!(stdout.contains("wrote 4 threads"));

    for extra in [&[][..], &["--mesi", "--hetero"][..]] {
        let mut args = vec!["replay", path_str, "--mech", "lva"];
        args.extend_from_slice(extra);
        let (ok, stdout, stderr) = explore(&args);
        assert!(ok, "replay {extra:?} failed: {stderr}");
        assert!(stdout.contains("cycles"), "{stdout}");
        assert!(stdout.contains("IPC"));
    }
    // Phase 2 models precise and LVA only: any other mechanism is refused
    // by name, not replayed as something else under its label.
    let (ok, _, stderr) = explore(&["replay", path_str, "--mech", "clp"]);
    assert!(!ok, "replay under clp must fail");
    assert!(stderr.contains("not clp"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn analyze_reports_locality_stats() {
    let dir = std::env::temp_dir().join("lva_cli_analyze");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("bs.lvat");
    let path_str = path.to_str().expect("utf8 path");
    let (ok, _, stderr) = explore(&["trace", "blackscholes", "--out", path_str]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = explore(&["analyze", path_str]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("working set"), "{stdout}");
    assert!(stdout.contains("ideal hit rate"));
    assert!(stdout.contains("static PCs"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn replay_rejects_garbage_files() {
    let dir = std::env::temp_dir().join("lva_cli_garbage");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("junk.lvat");
    std::fs::write(&path, b"not a trace").expect("write junk");
    let (ok, _, stderr) = explore(&["replay", path.to_str().expect("utf8")]);
    assert!(!ok);
    assert!(stderr.contains("not an LVAT trace file"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn usage_error_without_subcommand() {
    let (ok, _, stderr) = explore(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn report_writes_a_schema_versioned_manifest() {
    let dir = std::env::temp_dir().join("lva_cli_report");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("BENCH_smoke.json");
    let path_str = path.to_str().expect("utf8 path");
    let (ok, stdout, stderr) = explore(&[
        "report",
        "--workload",
        "blackscholes",
        "--scale",
        "test",
        "--out",
        path_str,
    ]);
    assert!(ok, "report failed: {stderr}");
    assert!(stdout.contains("wrote manifest"), "{stdout}");

    let record = lva::obs::read_manifest(&path).expect("manifest parses");
    assert_eq!(record.meta("workload"), Some("blackscholes"));
    assert_eq!(record.meta("scale"), Some("test"));
    assert!(record.stat("summary/norm_mpki").is_some());
    assert!(record.stat("phase1/total/l1/raw_misses").is_some());
    let text = std::fs::read_to_string(&path).expect("file exists");
    assert!(text.contains("\"kind\": \"lva-obs.run-record\""), "{text}");
    assert!(text.contains("\"schema\": 1"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn compare_passes_on_itself_and_fails_on_a_regression() {
    let dir = std::env::temp_dir().join("lva_cli_compare");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let baseline = dir.join("BENCH_base.json");
    let base_str = baseline.to_str().expect("utf8 path");
    let (ok, _, stderr) = explore(&[
        "report",
        "--workload",
        "blackscholes",
        "--scale",
        "test",
        "--out",
        base_str,
    ]);
    assert!(ok, "report failed: {stderr}");

    // Identical manifests pass with exit 0.
    let (ok, stdout, stderr) = explore(&["compare", base_str, base_str]);
    assert!(ok, "self-compare failed: {stderr}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");

    // A +10% MPKI regression beyond tolerance fails with nonzero exit.
    let mut perturbed = lva::obs::read_manifest(&baseline).expect("parses");
    for (path, value) in &mut perturbed.stats {
        if path == "summary/norm_mpki" || path == "phase1/derived/mpki" {
            *value *= 1.10;
        }
    }
    let candidate = dir.join("BENCH_perturbed.json");
    lva::obs::write_manifest(&candidate, &perturbed).expect("writes");
    let (ok, stdout, stderr) = explore(&[
        "compare",
        base_str,
        candidate.to_str().expect("utf8 path"),
        "--tolerance",
        "0.5",
    ]);
    assert!(!ok, "10% regression must fail the gate");
    assert!(stdout.contains("verdict: FAIL"), "{stdout}");
    assert!(stderr.contains("regressed"), "{stderr}");

    // ...and passes again when the tolerance is loosened past the delta.
    let (ok, stdout, _) = explore(&[
        "compare",
        base_str,
        candidate.to_str().expect("utf8 path"),
        "--tolerance",
        "15",
    ]);
    assert!(ok, "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_json_emits_chrome_trace_events() {
    let dir = std::env::temp_dir().join("lva_cli_trace_json");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("trace.json");
    let path_str = path.to_str().expect("utf8 path");
    let (ok, stdout, stderr) = explore(&[
        "trace",
        "blackscholes",
        "--out",
        path_str,
        "--mech",
        "lva",
        "--degree",
        "4",
        "--scale",
        "test",
    ]);
    assert!(ok, "trace failed: {stderr}");
    assert!(stdout.contains("trace events"), "{stdout}");
    assert!(stdout.contains("Chrome trace-event JSON"), "{stdout}");

    // The file is valid JSON in Chrome trace-event format: a traceEvents
    // array of objects with ph/ts/pid/tid fields (Perfetto loadable).
    let text = std::fs::read_to_string(&path).expect("file exists");
    let json = lva::obs::parse_json(&text).expect("valid JSON");
    let events = json
        .get("traceEvents")
        .and_then(lva::obs::Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");
    for ev in events {
        assert!(ev.get("name").is_some(), "event missing name");
        assert!(ev.get("ph").is_some(), "event missing phase");
        assert!(ev.get("ts").is_some(), "event missing timestamp");
        assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
    }
    // Both instants (approximation events) and the miss markers show up.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(lva::obs::Json::as_str))
        .collect();
    assert!(names.contains(&"miss"), "missing miss events");
    assert!(names.contains(&"approx"), "missing approx events");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn attribute_table_accounts_for_every_miss() {
    let (ok, stdout, stderr) = explore(&[
        "attribute",
        "blackscholes",
        "--mech",
        "lva",
        "--degree",
        "4",
        "--scale",
        "test",
    ]);
    assert!(ok, "attribute failed: {stderr}");
    assert!(stdout.contains("per-PC attribution"), "{stdout}");
    // The summary line carries both totals; they must be equal.
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("attributed "))
        .expect("summary line");
    let numbers: Vec<u64> = summary
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("number"))
        .collect();
    let (attributed, aggregate) = (numbers[0], numbers[2]);
    assert!(attributed > 0, "no misses attributed: {summary}");
    assert_eq!(
        attributed, aggregate,
        "per-PC totals must equal run aggregate: {summary}"
    );

    // --top N truncates the table but keeps the totals.
    let (ok, stdout, _) = explore(&[
        "attribute",
        "blackscholes",
        "--mech",
        "lva",
        "--scale",
        "test",
        "--top",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("more PCs below --top 2"), "{stdout}");
    assert!(stdout.contains("attributed "));
}

#[test]
fn run_prints_one_governor_row_per_thread_and_the_budget_ladder() {
    let (ok, stdout, stderr) = explore(&[
        "run",
        "blackscholes",
        "--scale",
        "test",
        "--govern",
        "quality=2%",
        "--error-budget",
        "5%",
    ]);
    assert!(ok, "run failed: {stderr}");
    assert!(
        stdout.lines().any(|l| l.starts_with("  quality: ")),
        "no budget-ladder line: {stdout}"
    );
    let header = stdout
        .lines()
        .find_map(|l| l.strip_prefix("  governor ("))
        .expect("governor table");
    let threads: usize = header
        .split(' ')
        .next()
        .and_then(|n| n.parse().ok())
        .expect("thread count");
    assert!(threads > 0, "{header}");
    // The rows follow the column header, one per thread in thread order,
    // each having closed at least one epoch.
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("thread epochs"))
        .skip(1)
        .take_while(|l| l.starts_with("    "))
        .filter(|l| !l.contains("disabled PCs:"))
        .map(|l| l.split_whitespace().collect())
        .collect();
    let ids: Vec<usize> = rows.iter().map(|r| r[0].parse().expect("id")).collect();
    assert_eq!(ids, (0..threads).collect::<Vec<_>>(), "{stdout}");
    assert!(
        rows.iter()
            .all(|r| r[1].parse::<u64>().expect("epochs") > 0),
        "{stdout}"
    );
}

#[test]
fn attribute_writes_budget_verdicts_under_degrade_paths() {
    let dir = std::env::temp_dir().join("lva_cli_degrade");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("attr.json");
    let path_str = path.to_str().expect("utf8 path");
    let (ok, stdout, stderr) = explore(&[
        "attribute",
        "blackscholes",
        "--scale",
        "test",
        "--error-budget",
        "5%",
        "--out",
        path_str,
    ]);
    assert!(ok, "attribute failed: {stderr}");
    // The summary counts distinct PCs; each row names its thread.
    let rows: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.contains("quality: "))
        .skip(1)
        .take_while(|l| l.trim_start().starts_with("0x"))
        .collect();
    let mut pcs: Vec<&str> = rows
        .iter()
        .map(|r| r.split_whitespace().next().unwrap())
        .collect();
    pcs.dedup();
    assert!(!pcs.is_empty(), "{stdout}");
    assert!(
        stdout.contains(&format!("quality: {} offending PC(s):", pcs.len())),
        "{stdout}"
    );
    assert!(rows.iter().all(|r| r
        .split_whitespace()
        .nth(1)
        .is_some_and(|t| t.starts_with('t'))));
    // One key per thread and PC, so the manifest gates against itself.
    let text = std::fs::read_to_string(&path).expect("manifest written");
    assert!(text.contains("\"degrade/t0/pc/0x"), "{text}");
    assert!(text.contains("\"degrade/t3/pc/0x"), "{text}");
    assert!(!text.contains("\"degrade/pc/"), "{text}");
    assert!(text.contains("/trainings\""), "{text}");
    let (ok, stdout, stderr) = explore(&["compare", path_str, path_str]);
    assert!(ok, "self-compare failed: {stdout}{stderr}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn clp_report_round_trips_through_compare() {
    let dir = std::env::temp_dir().join("lva_cli_clp_report");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("BENCH_clp_smoke.json");
    let path_str = path.to_str().expect("utf8 path");
    // The long-form `--mechanism` spelling selects the predictor family.
    let (ok, _, stderr) = explore(&[
        "report",
        "--workload",
        "blackscholes",
        "--scale",
        "test",
        "--mechanism",
        "clp",
        "--out",
        path_str,
    ]);
    assert!(ok, "clp report failed: {stderr}");
    let record = lva::obs::read_manifest(&path).expect("manifest parses");
    assert!(
        record
            .meta("mechanism")
            .expect("mechanism meta")
            .starts_with("clp("),
        "wrong mechanism meta: {:?}",
        record.meta("mechanism")
    );
    let predictions = record
        .stat("phase1/total/clp/predictions")
        .expect("clp predictions stat");
    assert!(predictions > 0.0, "predictor never ran");
    assert!(record
        .stat("phase1/total/clp/load_latency_cycles")
        .is_some());

    // A clp manifest gates against itself like any other.
    let (ok, stdout, stderr) = explore(&["compare", path_str, path_str]);
    assert!(ok, "clp self-compare failed: {stderr}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bad_clp_geometry_is_a_config_error_not_a_panic() {
    // A non-power-of-two predictor table must surface the validation
    // error text on stderr with a clean nonzero exit.
    let (ok, _, stderr) = explore(&[
        "run",
        "blackscholes",
        "--mechanism",
        "clp",
        "--clp-table",
        "3",
        "--scale",
        "test",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("table entries must be a power of two"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    // So must an unparseable slow-threshold label.
    let (ok, _, stderr) = explore(&[
        "run",
        "blackscholes",
        "--mechanism",
        "lva+clp",
        "--clp-slow",
        "l9",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad --clp-slow"), "{stderr}");
}

#[test]
fn attribute_shows_level_accuracy_under_clp() {
    let (ok, stdout, stderr) = explore(&[
        "attribute",
        "blackscholes",
        "--mechanism",
        "lva+clp",
        "--degree",
        "4",
        "--scale",
        "test",
    ]);
    assert!(ok, "attribute failed: {stderr}");
    assert!(
        stdout.contains("per-PC cache-level prediction accuracy"),
        "{stdout}"
    );
    assert!(stdout.contains("predictions"), "{stdout}");

    // Mechanisms without a predictor must not grow the extra table.
    let (ok, stdout, _) = explore(&[
        "attribute",
        "blackscholes",
        "--mech",
        "lva",
        "--scale",
        "test",
    ]);
    assert!(ok);
    assert!(
        !stdout.contains("cache-level prediction accuracy"),
        "{stdout}"
    );
}

#[test]
fn compare_top_flag_truncates_the_delta_table() {
    let dir = std::env::temp_dir().join("lva_cli_compare_top");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let baseline = dir.join("BENCH_base.json");
    let base_str = baseline.to_str().expect("utf8 path");
    let (ok, _, stderr) = explore(&[
        "report",
        "--workload",
        "swaptions",
        "--scale",
        "test",
        "--out",
        base_str,
    ]);
    assert!(ok, "report failed: {stderr}");

    // Perturb several metrics so multiple rows drift, then keep only the
    // top two: the table truncates, the verdict still counts everything.
    let mut perturbed = lva::obs::read_manifest(&baseline).expect("parses");
    let mut bumped = 0;
    for (path, value) in &mut perturbed.stats {
        if path.starts_with("phase1/total/") && *value > 0.0 && bumped < 5 {
            *value *= 1.0 + 0.02 * f64::from(bumped + 1);
            bumped += 1;
        }
    }
    assert!(bumped >= 3, "need several drifted metrics, got {bumped}");
    let candidate = dir.join("BENCH_drift.json");
    lva::obs::write_manifest(&candidate, &perturbed).expect("writes");
    let (_, stdout, _) = explore(&[
        "compare",
        base_str,
        candidate.to_str().expect("utf8 path"),
        "--tolerance",
        "0.5",
        "--top",
        "2",
    ]);
    assert!(stdout.contains("more rows below --top 2"), "{stdout}");
    assert!(stdout.contains("verdict:"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sweep_json_dumps_the_outcome_grid() {
    let dir = std::env::temp_dir().join("lva_cli_sweep_json");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("sweep.json");
    let path_str = path.to_str().expect("utf8 path");
    let (ok, _, stderr) = explore(&[
        "sweep",
        "blackscholes",
        "--degrees",
        "0,4",
        "--scale",
        "test",
        "--json",
        path_str,
    ]);
    assert!(ok, "sweep failed: {stderr}");
    let record = lva::obs::read_manifest(&path).expect("manifest parses");
    assert_eq!(record.meta("benchmarks"), Some("blackscholes"));
    assert!(record.meta("config0").is_some());
    assert!(record.meta("config1").is_some());
    for key in [
        "grid/c0/blackscholes/norm_mpki",
        "grid/c1/blackscholes/norm_mpki",
        "grid/c0/blackscholes/output_error",
        "sweep/points",
    ] {
        assert!(record.stat(key).is_some(), "missing stat {key}");
    }
    // Engine timing is exported but flagged informational (never gates).
    assert!(record
        .stats
        .iter()
        .any(|(p, _)| p.starts_with("time/sweep/") && lva::obs::is_informational(p)));
    let _ = std::fs::remove_dir_all(dir);
}

/// The timeline acceptance property: `lva-explore timeline` emits at
/// least 8 epochs per core, and every counter's per-epoch deltas sum
/// exactly to the matching end-of-run aggregate registry entry — the
/// timeline is a lossless decomposition of the run, not a sampling
/// estimate.
#[test]
fn timeline_deltas_sum_exactly_to_the_aggregate_registry() {
    let dir = std::env::temp_dir().join("lva_cli_timeline");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("tl.json");
    let path_str = path.to_str().expect("utf8 path");
    let (ok, stdout, stderr) = explore(&[
        "timeline",
        "blackscholes",
        "--epoch",
        "500",
        "--out",
        path_str,
    ]);
    assert!(ok, "timeline failed: {stderr}");
    assert!(stdout.contains("wrote timeline manifest"), "{stdout}");

    let text = std::fs::read_to_string(&path).expect("manifest exists");
    let json = lva::obs::parse_json(&text).expect("manifest parses");
    assert_eq!(
        json.get("kind").and_then(lva::obs::Json::as_str),
        Some("lva-explore.timeline")
    );
    assert_eq!(
        json.get("schema").and_then(lva::obs::Json::as_f64),
        Some(lva::obs::TIMELINE_SCHEMA_VERSION as f64)
    );
    let aggregate: std::collections::HashMap<String, f64> = match json.get("aggregate") {
        Some(lva::obs::Json::Obj(entries)) => entries
            .iter()
            .map(|(p, v)| (p.clone(), v.as_f64().expect("aggregate values are numbers")))
            .collect(),
        other => panic!("aggregate must be an object, got {other:?}"),
    };
    let threads = json
        .get("threads")
        .and_then(lva::obs::Json::as_arr)
        .expect("threads array");
    assert!(!threads.is_empty(), "at least one per-core timeline");

    let mut checked = 0;
    for (i, doc) in threads.iter().enumerate() {
        let record = lva::obs::TimelineRecord::from_json(doc).expect("thread record parses");
        let tl = &record.timeline;
        assert!(tl.len() >= 8, "core{i}: only {} epochs", tl.len());
        assert_eq!(tl.dropped, 0, "core{i}: ring must not overflow");
        for p in tl.counter_paths() {
            // Timeline paths are `phase1/<counter>`; the aggregate keys
            // the same counter under `phase1/core<i>/<counter>`.
            let rest = p.strip_prefix("phase1/").expect("phase1 namespace");
            let key = format!("phase1/core{i}/{rest}");
            let agg = *aggregate
                .get(&key)
                .unwrap_or_else(|| panic!("aggregate is missing {key}"));
            assert_eq!(
                tl.sum_counter(&p) as f64,
                agg,
                "core{i} {p}: deltas must sum to the aggregate"
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} counters cross-checked");
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs the binary and returns its exit code and stderr.
fn explore_status(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lva-explore"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_invocations_exit_1_not_101() {
    // No CLI input panics: each malformed invocation is reported as an
    // `error:` line with exit code 1, never a panic's exit code 101.
    let dir = std::env::temp_dir().join("lva_cli_malformed");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    // A well-formed trace of five zero-op threads, one more than the mesh
    // has nodes: header `LVAT`, version 1, thread count 5, five op counts.
    let path = dir.join("five.lvat");
    let mut bytes = b"LVAT".to_vec();
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&5u16.to_le_bytes());
    bytes.extend_from_slice(&[0; 5 * 8]);
    std::fs::write(&path, bytes).expect("write trace");
    let trace = path.to_str().expect("utf8");
    let run =
        |flags: &[&'static str]| [&["run", "blackscholes", "--scale", "test"], flags].concat();
    let cases = [
        (vec!["replay", trace], "cores = 5 is above its limit of 4"),
        (
            run(&["--window", "nan"]),
            "fraction must be finite and >= 0, got NaN",
        ),
        (
            run(&["--govern", "quality=2%,epoch=0"]),
            "epoch_len is out of range: 0",
        ),
        (
            run(&["--inject", "delay-extra=18446744073709551615,delay=1"]),
            "delay_extra = 18446744073709551615 is above its limit",
        ),
        (
            run(&["--mech", "clp", "--clp-table", "3"]),
            "table entries must be a power of two",
        ),
        (
            vec![
                "timeline",
                "blackscholes",
                "--scale",
                "test",
                "--epoch",
                "0",
            ],
            "epoch length must be at least 1",
        ),
    ];
    for (args, message) in cases {
        let (code, stderr) = explore_status(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        let line = stderr.lines().find(|l| l.starts_with("error: "));
        assert!(
            line.is_some_and(|l| l.contains(message)),
            "{args:?}: want an `error:` line with {message:?}, got {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
