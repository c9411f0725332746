//! `lva-explore` — command-line front end for the LVA reproduction.
//!
//! ```text
//! lva-explore list
//! lva-explore run canneal --mech lva --degree 4 --scale small
//! lva-explore sweep all --degrees 0,2,4,8 --delays 4,8 --threads 4 --json sweep.json
//! lva-explore trace canneal --out canneal.lvat --scale test
//! lva-explore trace blackscholes --out trace.json --mech lva --degree 4
//! lva-explore attribute blackscholes --mech lva --degree 4 --top 10
//! lva-explore run blackscholes --error-budget 5% --inject seed=42,table=1e-3
//! lva-explore run canneal --govern quality=2%,energy-weight=0.1
//! lva-explore sweep all --error-budgets 1,5,10 --degrees 0,4
//! lva-explore sweep all --govern-slos 1,2,5 --degrees 0,4
//! lva-explore replay canneal.lvat --mech lva --degree 16 --mesi --hetero
//! lva-explore analyze canneal.lvat
//! lva-explore report --workload blackscholes --scale test --out BENCH_smoke.json
//! lva-explore compare BENCH_baseline.json BENCH_smoke.json --tolerance 0.5 --top 10
//! lva-explore serve --addr 127.0.0.1:7744 --threads 4 --cache-dir /tmp/lva-cache
//! lva-explore submit all --addr 127.0.0.1:7744 --degrees 0,4 --delays 4,8
//! lva-explore serve-ctl metrics --addr 127.0.0.1:7744
//! lva-explore serve-ctl watch --addr 127.0.0.1:7744 --once
//! lva-explore timeline blackscholes --epoch 500 --out timeline.json
//! ```

use lva::core::{ApproximatorConfig, CacheLevel, ClpConfig, ConfidenceWindow, LvpConfig};
use lva::cpu::trace_io;
use lva::energy::EnergyParams;
use lva::obs::{
    chrome_trace, compare, read_manifest, write_manifest, Json, JsonlSink, MetricsRegistry,
    PcAttribution, RunRecord, TimelineConfig, TimelineRecord, TraceConfig, DEFAULT_TOLERANCE,
    TIMELINE_SCHEMA_VERSION,
};
use lva::serve::{point_record, Client, PointSpec, ResultCache, Scheduler, Server};
use lva::sim::sweep::SweepOptions;
use lva::sim::{
    FaultConfig, FullSystem, FullSystemConfig, GovernorConfig, MechanismKind, SimConfig, SweepSpec,
};
use lva::workloads::{
    registry, run_grid, workload_seeded, WorkloadRun, WorkloadScale, WORKLOAD_NAMES,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        const SWITCHES: [&str; 7] = [
            "mesi",
            "hetero",
            "progress",
            "with-precise",
            "memory-only",
            "shutdown",
            "once",
        ];
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut switches = Vec::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    switches.push(name.to_owned());
                    continue;
                }
                let value = raw
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.push((name.to_owned(), value));
            } else {
                positional.push(arg);
            }
        }
        Ok(Args {
            positional,
            flags,
            switches,
        })
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn scale_of(args: &Args) -> Result<WorkloadScale, String> {
    lva::serve::fingerprint::parse_scale(args.flag("scale").unwrap_or("test"))
}

/// `value` parsed as a `T`; `flag` names it in errors (`bad --seed: …`).
fn parsed<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// `--name` parsed as a `T`, or `default` when it is absent.
fn flag_or<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    args.flag(name)
        .map_or(Ok(default), |v| parsed(v, &format!("--{name}")))
}

/// `--name` as a positive integer, or `default` when it is absent.
fn positive<T>(args: &Args, name: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    args.flag(name).map_or(Ok(default), |v| {
        v.parse::<T>()
            .ok()
            .filter(|n| *n >= T::from(1))
            .ok_or_else(|| format!("bad --{name}: need a positive integer"))
    })
}

/// A percentage (`2` or `2%`) as a fraction; `flag` names it in errors.
fn percent(value: &str, flag: &str) -> Result<f64, String> {
    parsed::<f64>(value.trim_end_matches('%'), flag).map(|v| v / 100.0)
}

/// Cache-level-predictor geometry from `--clp-table`, `--clp-depth`,
/// `--clp-penalty` and `--clp-slow` (a level label like `llc`).
fn clp_of(args: &Args) -> Result<ClpConfig, String> {
    let mut cfg = ClpConfig::baseline();
    cfg.table_entries = flag_or(args, "clp-table", cfg.table_entries)?;
    cfg.hierarchy_depth = flag_or(args, "clp-depth", cfg.hierarchy_depth)?;
    cfg.mispredict_penalty = flag_or(args, "clp-penalty", cfg.mispredict_penalty)?;
    if let Some(v) = args.flag("clp-slow") {
        cfg.slow_threshold = CacheLevel::ALL
            .into_iter()
            .find(|l| l.label() == v)
            .ok_or_else(|| format!("bad --clp-slow: {v} (l1|l2|llc|dram)"))?;
    }
    Ok(cfg)
}

fn mechanism_of(args: &Args) -> Result<MechanismKind, String> {
    let ghb: usize = flag_or(args, "ghb", 0)?;
    let degree: u32 = flag_or(args, "degree", 0)?;
    let window = match args.flag("window") {
        None => None,
        Some("inf" | "infinite") => Some(ConfidenceWindow::Infinite),
        Some(pct) => Some(ConfidenceWindow::Relative(percent(pct, "--window")?)),
    };
    let lva_config = || {
        let mut cfg = ApproximatorConfig {
            ghb_entries: ghb,
            degree,
            ..ApproximatorConfig::baseline()
        };
        if let Some(w) = window {
            cfg.confidence_window = w;
            cfg.confidence_on_int = true;
        }
        cfg
    };
    // `--mechanism` is the documented spelling; `--mech` stays as the
    // short form every older script uses.
    let mech = args
        .flag("mechanism")
        .or_else(|| args.flag("mech"))
        .unwrap_or("lva");
    Ok(match mech {
        "precise" => MechanismKind::Precise,
        "lva" => MechanismKind::Lva(lva_config()),
        "lvp" => MechanismKind::Lvp(LvpConfig::with_ghb(ghb)),
        "real-lvp" => MechanismKind::RealisticLvp(Default::default()),
        "prefetch" => MechanismKind::Prefetch(lva::core::PrefetcherConfig::paper(degree.max(1))),
        "clp" => MechanismKind::Clp(clp_of(args)?),
        "lva+clp" => MechanismKind::LvaClp(lva_config(), clp_of(args)?),
        other => return Err(format!("unknown mechanism {other}")),
    })
}

/// Parses the `--inject` fault specification: comma-separated `key=value`
/// pairs with keys `seed`, `table`, `drop`, `delay` (rates in `[0,1]`) and
/// `delay-extra` (load-ticks), e.g.
/// `--inject seed=42,table=1e-3,drop=0.01,delay=0.05,delay-extra=16`.
fn faults_of(args: &Args) -> Result<Option<FaultConfig>, String> {
    let Some(spec) = args.flag("inject") else {
        return Ok(None);
    };
    let mut cfg = FaultConfig::seeded(0);
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad --inject part {part:?} (want key=value)"))?;
        let value = value.trim();
        match key.trim() {
            "seed" => cfg.seed = parsed(value, "--inject seed")?,
            "table" => cfg.table_rate = parsed(value, "--inject table")?,
            "drop" => cfg.drop_rate = parsed(value, "--inject drop")?,
            "delay" => cfg.delay_rate = parsed(value, "--inject delay")?,
            "delay-extra" => cfg.delay_extra = parsed(value, "--inject delay-extra")?,
            other => {
                return Err(format!(
                    "unknown --inject key {other} (seed|table|drop|delay|delay-extra)"
                ))
            }
        }
    }
    Ok(Some(cfg))
}

/// Parses the `--govern` specification: comma-separated `key=value` pairs
/// with keys `quality` (the output-error SLO, a percentage — required),
/// `energy-weight` (tolerated relative EDP regression on an upward probe),
/// `epoch` (loads per epoch), `hysteresis` (clean epochs before a probe)
/// and `min-samples`, e.g. `--govern quality=2%,energy-weight=0.1`. A bare
/// percentage (`--govern 2%`) is shorthand for `quality=` alone.
fn govern_of(args: &Args) -> Result<Option<GovernorConfig>, String> {
    let Some(spec) = args.flag("govern") else {
        return Ok(None);
    };
    if !spec.contains('=') {
        let slo = percent(spec, "--govern quality")?;
        return Ok(Some(GovernorConfig::slo(slo)));
    }
    let mut cfg = GovernorConfig::slo(f64::NAN);
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad --govern part {part:?} (want key=value)"))?;
        let value = value.trim();
        match key.trim() {
            "quality" => cfg.slo_error = Some(percent(value, "--govern quality")?),
            "energy-weight" => cfg.energy_weight = parsed(value, "--govern energy-weight")?,
            "epoch" => cfg.epoch_len = parsed(value, "--govern epoch")?,
            "hysteresis" => cfg.hysteresis_epochs = parsed(value, "--govern hysteresis")?,
            "min-samples" => cfg.min_samples = parsed(value, "--govern min-samples")?,
            other => {
                return Err(format!(
                "unknown --govern key {other} (quality|energy-weight|epoch|hysteresis|min-samples)"
            ))
            }
        }
    }
    if cfg.slo_error.is_some_and(f64::is_nan) {
        return Err("--govern needs quality=<pct> (the output-error SLO)".into());
    }
    Ok(Some(cfg))
}

/// The phase-1 configuration the single-run commands share: `--mech` and
/// its knobs and `--delay` over Table II, then `observe` (tracing or
/// timeline sampling), then `--error-budget` (a percentage, like
/// `--window`), `--inject` and `--govern`, validated — bad knobs surface
/// as CLI errors, not panics.
fn config_of(
    args: &Args,
    observe: impl FnOnce(SimConfig) -> SimConfig,
) -> Result<SimConfig, String> {
    let mut config = observe(SimConfig {
        mechanism: mechanism_of(args)?,
        value_delay: flag_or(args, "delay", 4)?,
        ..SimConfig::precise()
    });
    if let Some(pct) = args.flag("error-budget") {
        config = config.with_error_budget(percent(pct, "--error-budget")?);
    }
    if let Some(faults) = faults_of(args)? {
        config = config.with_faults(faults);
    }
    if let Some(govern) = govern_of(args)? {
        config = config.with_govern(govern);
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// Terminal spelling of a confidence window.
fn window_label(w: ConfidenceWindow) -> String {
    match w {
        ConfidenceWindow::Exact => "exact".into(),
        ConfidenceWindow::Relative(f) => format!("±{:.1}%", f * 100.0),
        ConfidenceWindow::Infinite => "inf".into(),
    }
}

/// Prints the governor's per-thread summary for a finished run: where the
/// ladder ended up (the thread's report) and how much supervision it took
/// to hold the SLO there (the thread's counters).
fn print_govern(run: &WorkloadRun) {
    println!("  governor ({} thread(s)):", run.govern.len());
    println!(
        "    {:>6} {:>6} {:>7} {:>7} {:>6} {:>7} {:>7} {:>9} {:>6} {:>12}",
        "thread",
        "epochs",
        "actuate",
        "tighten",
        "relax",
        "revert",
        "rung",
        "window",
        "deg",
        "edp/load"
    );
    for (i, (g, t)) in run.govern.iter().zip(&run.stats.per_thread).enumerate() {
        println!(
            "    {:>6} {:>6} {:>7} {:>7} {:>6} {:>7} {:>7} {:>9} {:>6} {:>12}",
            i,
            t.govern_epochs,
            t.govern_actuations,
            t.govern_tightens,
            t.govern_relaxes,
            t.govern_reverts,
            format!("{}/{}", g.level + 1, g.levels),
            window_label(g.window),
            g.degree,
            g.last_edp.map_or_else(|| "-".into(), |e| format!("{e:.3}")),
        );
        if !g.disabled_pcs.is_empty() {
            let pcs: Vec<String> = g
                .disabled_pcs
                .iter()
                .map(|pc| format!("{:#x}", pc.0))
                .collect();
            println!("           disabled PCs: {}", pcs.join(", "));
        }
    }
}

/// Prints the governor budget ladder's per-PC verdict for a finished run,
/// one row per thread that demoted the PC.
fn print_degrade(run: &WorkloadRun) {
    let mut offenders: Vec<_> = run
        .govern
        .iter()
        .enumerate()
        .flat_map(|(t, r)| r.entries.iter().map(move |e| (t, e)))
        .filter(|(_, e)| e.demotions > 0)
        .collect();
    if offenders.is_empty() {
        println!("  quality: no PC left the healthy state");
        return;
    }
    offenders.sort_by_key(|&(t, e)| (e.pc, t));
    let mut pcs: Vec<_> = offenders.iter().map(|(_, e)| e.pc).collect();
    pcs.dedup();
    println!("  quality: {} offending PC(s):", pcs.len());
    for (t, e) in offenders {
        println!(
            "    {:#14x}  t{t:<3}  {:<8}  ewma {:>8.4}  demoted {:>3}x  disabled {:>3}x  err p95 {} ppm",
            e.pc.0,
            e.state.label(),
            e.ewma,
            e.demotions,
            e.disables,
            e.err_p95_ppm,
        );
    }
}

fn cmd_list() {
    println!("benchmarks (PARSEC kernels of §IV):");
    for name in WORKLOAD_NAMES {
        println!("  {name}");
    }
}

fn find_workload(
    name: &str,
    scale: WorkloadScale,
    seed: u64,
) -> Result<Box<dyn lva::workloads::Workload>, String> {
    workload_seeded(scale, seed, name)
        .ok_or_else(|| format!("unknown benchmark {name} (try `lva-explore list`)"))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("usage: lva-explore run <benchmark> [--mech ...]")?;
    let scale = scale_of(args)?;
    let workload = find_workload(name, scale, 0)?;
    let config = config_of(args, |c| c)?;
    let run = workload.execute(&config);
    println!("{} under {}:", run.name, config.mechanism.label());
    println!("  instructions        {:>14}", run.stats.total.instructions);
    println!("  loads               {:>14}", run.stats.total.loads);
    println!("  raw L1 misses       {:>14}", run.stats.total.raw_misses);
    println!(
        "  approximated        {:>14}",
        run.stats.total.approximations
    );
    println!("  predicted correct   {:>14}", run.stats.total.lvp_correct);
    println!("  rollbacks           {:>14}", run.stats.total.rollbacks);
    println!("  blocks fetched      {:>14}", run.stats.fetches());
    println!("  MPKI                {:>14.4}", run.stats.mpki());
    println!("  normalized MPKI     {:>14.4}", run.normalized_mpki());
    println!("  normalized fetches  {:>14.4}", run.normalized_fetches());
    println!(
        "  coverage            {:>13.1}%",
        run.stats.coverage() * 100.0
    );
    println!("  output error        {:>13.2}%", run.output_error * 100.0);
    if run.stats.total.clp_predictions > 0 {
        println!(
            "  level predictions   {:>14} ({:.1}% correct, {} mispredict stalls)",
            run.stats.total.clp_predictions,
            run.stats.clp_accuracy() * 100.0,
            run.stats.total.clp_mispredicts,
        );
        println!(
            "  avg load latency    {:>14.2}",
            run.stats.avg_load_latency()
        );
    }
    if config.govern.is_some_and(|g| g.error_budget.is_some()) {
        println!(
            "  demoted / disabled  {:>10} / {}",
            run.stats.total.demotions, run.stats.total.disables
        );
        print_degrade(&run);
    }
    if config.faults.is_some() {
        println!(
            "  faults injected     {:>14} ({} drains dropped, {} fetches delayed)",
            run.stats.total.faults_injected,
            run.stats.total.drains_dropped,
            run.stats.total.fetches_delayed,
        );
    }
    if config.govern.is_some_and(|g| g.slo_error.is_some()) {
        print_govern(&run);
    }
    Ok(())
}

/// Parses a comma-separated numeric list flag, e.g. `--degrees 0,2,4`.
fn list_flag<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let flag = format!("--{name}");
    let raw = args.flag(name).unwrap_or_default();
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parsed(s.trim(), &flag))
        .collect()
}

/// A comma-separated list of percentages (`2,5%,10`) as fractions.
fn percent_list(args: &Args, name: &str) -> Result<Vec<f64>, String> {
    let flag = format!("--{name}");
    let raw: Vec<String> = list_flag(args, name)?;
    raw.iter().map(|s| percent(s, &flag)).collect()
}

/// Builds the sweep's configuration grid from the shared axis flags
/// (`--degrees`, `--ghbs`, `--delays`, `--windows`, `--error-budgets`,
/// `--govern-slos`, `--inject`, `--govern`, `--with-precise`). `sweep`
/// runs this grid in-process; `submit` ships the identical grid to a
/// server.
fn grid_configs_of(args: &Args) -> Result<Vec<SimConfig>, String> {
    // Grid axes from comma-separated flags; empty axes stay at baseline.
    // Fault injection applies to the base, so every LVA point inherits it.
    let mut base = SimConfig::baseline_lva();
    if let Some(faults) = faults_of(args)? {
        base = base.with_faults(faults);
    }
    if let Some(govern) = govern_of(args)? {
        base = base.with_govern(govern);
    }
    let mut spec = SweepSpec::from_base(base)
        .degrees(&list_flag(args, "degrees")?)
        .ghb_depths(&list_flag(args, "ghbs")?)
        .value_delays(&list_flag(args, "delays")?)
        .confidence_windows(&percent_list(args, "windows")?)
        .error_budgets(&percent_list(args, "error-budgets")?)
        .governor_slos(&percent_list(args, "govern-slos")?);
    if args.switch("with-precise") {
        spec = spec.mechanism(MechanismKind::Precise);
    }
    spec.try_build()
        .map_err(|e| format!("invalid sweep grid: {e}"))
}

/// Resolves a `<benchmark|all>` positional against the registry.
fn benchmarks_of(
    args: &Args,
    scale: WorkloadScale,
) -> Result<(String, Vec<Box<dyn lva::workloads::Workload>>), String> {
    let which = args
        .positional
        .get(1)
        .map_or("all", String::as_str)
        .to_owned();
    let workloads: Vec<_> = registry(scale)
        .into_iter()
        .filter(|w| which == "all" || w.name() == which)
        .collect();
    if workloads.is_empty() {
        return Err(format!(
            "unknown benchmark {which} (try `lva-explore list`)"
        ));
    }
    Ok((which, workloads))
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let scale = scale_of(args)?;
    let (which, workloads) = benchmarks_of(args, scale)?;
    let configs = grid_configs_of(args)?;

    let workers = args
        .flag("threads")
        .map(|v| parsed::<usize>(v, "--threads"))
        .transpose()?;
    let options = SweepOptions {
        workers,
        progress: args.switch("progress"),
    };

    // Full cross product, config-major, through one parallel sweep.
    let sweep = run_grid(&configs, &workloads, &options);
    let summary = sweep.summary();

    println!(
        "{:<28} {:<14} {:>12} {:>12} {:>10}",
        "configuration", "benchmark", "norm. MPKI", "norm. fetch", "error %"
    );
    let n = workloads.len();
    for outcome in &sweep.outcomes {
        let (c, w) = (outcome.index / n, outcome.index % n);
        let run = &outcome.value;
        println!(
            "{:<28} {:<14} {:>12.4} {:>12.4} {:>10.2}  [{:.2?}]",
            format!(
                "{} d={}",
                configs[c].mechanism.label(),
                configs[c].value_delay
            ),
            workloads[w].name(),
            run.normalized_mpki(),
            run.normalized_fetches(),
            run.output_error * 100.0,
            outcome.elapsed,
        );
    }
    println!("\nsweep: {summary}");

    // Optional machine-readable dump of the whole outcome grid, alongside
    // the sweep engine's own profile (per-point wall times, worker load).
    if let Some(path) = args.flag("json") {
        let mut record = RunRecord::new(format!("sweep-{which}"));
        record.set_meta("scale", args.flag("scale").unwrap_or("test"));
        record.set_meta(
            "benchmarks",
            workloads
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(","),
        );
        for (c, config) in configs.iter().enumerate() {
            record.set_meta(
                format!("config{c}"),
                format!("{} d={}", config.mechanism.label(), config.value_delay),
            );
        }
        for outcome in &sweep.outcomes {
            let (c, w) = (outcome.index / n, outcome.index % n);
            let run = &outcome.value;
            let key = format!("grid/c{c}/{}", workloads[w].name());
            record.push_stat(format!("{key}/norm_mpki"), run.normalized_mpki());
            record.push_stat(format!("{key}/norm_fetches"), run.normalized_fetches());
            record.push_stat(format!("{key}/output_error"), run.output_error);
            record.push_stat(format!("{key}/mpki"), run.stats.mpki());
        }
        let mut registry = MetricsRegistry::new();
        sweep.record_metrics(&mut registry);
        record.absorb_registry(&registry);
        write_manifest(Path::new(path), &record).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote sweep manifest to {path}");
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let name = args
        .flag("workload")
        .or_else(|| args.positional.get(1).map(String::as_str))
        .ok_or("usage: lva-explore report --workload <benchmark> --out <file.json>")?;
    let out = args.flag("out").ok_or("missing --out <file.json>")?;
    let scale = scale_of(args)?;
    let seed: u64 = flag_or(args, "seed", 0)?;
    let workload = find_workload(name, scale, seed)?;
    let spec = PointSpec::new(name, scale, seed, config_of(args, |c| c)?);

    let start = Instant::now();
    let run = workload.execute(&spec.config);
    let wall = start.elapsed();

    // The manifest `lva-serve` answers this point with, plus timing.
    let mut record = point_record(&spec, &run);
    record.push_stat("time/wall_ns", wall.as_nanos() as f64);

    write_manifest(Path::new(out), &record).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote manifest {out}: {} under {} ({} stats)",
        name,
        spec.config.mechanism.label(),
        record.stats.len()
    );
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let baseline_path = args
        .positional
        .get(1)
        .ok_or("usage: lva-explore compare <baseline.json> <candidate.json> [--tolerance pct]")?;
    let candidate_path = args
        .positional
        .get(2)
        .ok_or("usage: lva-explore compare <baseline.json> <candidate.json> [--tolerance pct]")?;
    let mut tolerance = DEFAULT_TOLERANCE;
    if let Some(pct) = args.flag("tolerance") {
        tolerance = percent(pct, "--tolerance")?;
        if tolerance.is_nan() || tolerance < 0.0 {
            return Err(format!("bad --tolerance: {pct} (must be >= 0)"));
        }
    }
    let top = args
        .flag("top")
        .map(|v| parsed::<usize>(v, "--top"))
        .transpose()?;
    let baseline = read_manifest(Path::new(baseline_path))?;
    let candidate = read_manifest(Path::new(candidate_path))?;
    let report = compare(&baseline, &candidate, tolerance);
    println!(
        "comparing {} (baseline) vs {} (candidate), tolerance {}%:",
        baseline.name,
        candidate.name,
        tolerance * 100.0
    );
    println!("{}", report.to_table(top));
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} metric(s) regressed beyond tolerance",
            report.failures()
        ))
    }
}

/// Sampling policy from `--every N` and `--pcs 0x100,0x200` flags.
fn sampling_of(args: &Args, mut trace: TraceConfig) -> Result<TraceConfig, String> {
    if let Some(every) = args.flag("every") {
        let n: u64 = every.parse().map_err(|e| format!("bad --every: {e}"))?;
        trace = trace.with_every_nth_miss(n);
    }
    if let Some(raw) = args.flag("pcs") {
        let pcs: Vec<u64> = raw
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                let s = s.trim();
                let (digits, radix) = match s.strip_prefix("0x") {
                    Some(hex) => (hex, 16),
                    None => (s, 10),
                };
                u64::from_str_radix(digits, radix).map_err(|e| format!("bad --pcs: {e}"))
            })
            .collect::<Result<_, _>>()?;
        trace = trace.with_pc_filter(&pcs);
    }
    Ok(trace)
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("usage: lva-explore trace <benchmark> --out <file.lvat|file.json>")?;
    let out = args.flag("out").ok_or("missing --out <file>")?;
    let scale = scale_of(args)?;
    let workload = find_workload(name, scale, 0)?;

    // A `.json` target records per-load *events* and exports them in
    // Chrome trace-event format (open in Perfetto / chrome://tracing);
    // anything else keeps the original instruction-trace (.lvat) path.
    if out.ends_with(".json") {
        let capacity: usize = flag_or(args, "capacity", 1 << 16)?;
        let trace = sampling_of(args, TraceConfig::ring(capacity))?;
        let config = config_of(args, |c| c.with_trace(trace))?;
        let run = workload.execute(&config);
        let events: Vec<_> = run.collectors.iter().flat_map(|c| c.events()).collect();
        let json = chrome_trace(&events);
        std::fs::write(out, json.to_string_pretty()).map_err(|e| format!("write {out}: {e}"))?;
        println!(
            "wrote {} trace events ({} cores) to {out} [Chrome trace-event JSON]",
            events.len(),
            run.collectors.len(),
        );
        return Ok(());
    }

    let run = workload.execute(&SimConfig::precise().with_traces());
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    trace_io::write_traces(BufWriter::new(file), &run.traces)
        .map_err(|e| format!("write {out}: {e}"))?;
    let ops: usize = run.traces.iter().map(|t| t.ops.len()).sum();
    println!(
        "wrote {} threads / {} trace records ({} instructions) to {out}",
        run.traces.len(),
        ops,
        run.stats.total.instructions
    );
    Ok(())
}

fn cmd_attribute(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("usage: lva-explore attribute <benchmark> [--mech ...] [--top N] [--out m.json]")?;
    let scale = scale_of(args)?;
    let workload = find_workload(name, scale, 0)?;
    let trace = sampling_of(args, TraceConfig::attribution())?;
    let config = config_of(args, |c| c.with_trace(trace))?;
    let run = workload.execute(&config);

    let mut merged = PcAttribution::new();
    for collector in &run.collectors {
        if let Some(a) = collector.attribution() {
            merged.merge(a);
        }
    }
    println!(
        "per-PC attribution of {} under {}:",
        run.name,
        config.mechanism.label()
    );
    match args.flag("top") {
        Some(top) => {
            let n: usize = top.parse().map_err(|e| format!("bad --top: {e}"))?;
            let hot = merged.hottest_first();
            let mut table = merged.to_string();
            // Header + N hottest rows (rows are already sorted hottest-first).
            let keep = table.lines().take(1 + n.min(hot.len())).count();
            table = table.lines().take(keep).collect::<Vec<_>>().join("\n");
            println!("{table}");
            if hot.len() > n {
                println!("... ({} more PCs below --top {n})", hot.len() - n);
            }
        }
        None => println!("{merged}"),
    }
    if let Some(levels) = merged.level_accuracy_table() {
        println!("per-PC cache-level prediction accuracy:");
        println!("{levels}");
    }
    println!(
        "attributed {} misses across {} static PCs (run aggregate: {} misses, {} approximated)",
        merged.total_misses(),
        merged.static_pcs(),
        run.stats.total.raw_misses,
        run.stats.total.approximations,
    );
    if config.govern.is_some_and(|g| g.error_budget.is_some()) {
        print_degrade(&run);
    }
    if let Some(out) = args.flag("out") {
        let mut record = RunRecord::new(format!("attribute-{name}"));
        record.set_meta("workload", name);
        record.set_meta("mechanism", config.mechanism.label());
        merged.record_into(&mut record);
        // Budget-ladder verdicts land under one `degrade/t<thread>/pc/<pc>/`
        // path each, so robustness runs can be gated like any other
        // manifest.
        for (t, report) in run.govern.iter().enumerate() {
            for e in &report.entries {
                let base = format!("degrade/t{t}/pc/{:#x}", e.pc.0);
                record.push_stat(format!("{base}/trainings"), e.trainings as f64);
                record.push_stat(format!("{base}/ewma"), e.ewma);
                if e.demotions > 0 {
                    record.push_stat(format!("{base}/demotions"), e.demotions as f64);
                }
                if e.disables > 0 {
                    record.push_stat(format!("{base}/disables"), e.disables as f64);
                }
                if e.trainings > 0 {
                    record.push_stat(format!("{base}/err_p50_ppm"), e.err_p50_ppm as f64);
                    record.push_stat(format!("{base}/err_p95_ppm"), e.err_p95_ppm as f64);
                }
            }
        }
        write_manifest(Path::new(out), &record).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote attribution manifest to {out}");
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    use lva::cpu::analysis;
    let path = args
        .positional
        .get(1)
        .ok_or("usage: lva-explore analyze <file.lvat>")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let traces =
        trace_io::read_traces(BufReader::new(file)).map_err(|e| format!("read {path}: {e}"))?;
    println!("trace analysis of {path}:");
    for (i, t) in traces.iter().enumerate() {
        let stats = t.stats();
        let ws = analysis::working_set_blocks(t);
        let hist = analysis::reuse_distances(t);
        let pcs = analysis::pc_profile(t);
        let approx_pcs = pcs.values().filter(|p| p.approximate).count();
        println!("thread {i}:");
        println!("  instructions        {:>12}", stats.instructions);
        println!(
            "  loads / stores      {:>12} / {}",
            stats.loads, stats.stores
        );
        println!(
            "  approximate loads   {:>12} ({} static PCs)",
            stats.approx_loads, approx_pcs
        );
        println!(
            "  working set         {:>12} blocks ({} KiB)",
            ws,
            ws * 64 / 1024
        );
        for cap in [256u64, 1024, 8192] {
            println!(
                "  ideal hit rate      {:>11.1}% at {cap} blocks ({} KiB)",
                hist.hit_rate_at(cap) * 100.0,
                cap * 64 / 1024
            );
        }
    }
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: lva-explore replay <file.lvat> [--mech ...]")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let traces =
        trace_io::read_traces(BufReader::new(file)).map_err(|e| format!("read {path}: {e}"))?;
    let mechanism = mechanism_of(args)?;
    let mut config = FullSystemConfig::paper(mechanism.clone());
    if let Some(pct) = args.flag("error-budget") {
        config = config.with_error_budget(percent(pct, "--error-budget")?);
    }
    if args.switch("mesi") {
        config = config.with_mesi();
    }
    if args.switch("hetero") {
        config = config.with_hetero_noc(lva::noc::LowPowerPlane::default());
    }
    let degrading = config.govern.is_some_and(|g| g.error_budget.is_some());
    let stats = FullSystem::try_new(config, traces)
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| format!("simulation failed: {e}"))?;
    let params = EnergyParams::cacti_32nm();
    println!("full-system replay of {path} under {}:", mechanism.label());
    println!("  cycles              {:>14}", stats.cycles);
    println!("  instructions        {:>14}", stats.instructions);
    println!("  IPC                 {:>14.3}", stats.ipc());
    println!("  L1 load misses      {:>14}", stats.l1_load_misses);
    println!("  approximated        {:>14}", stats.approximated);
    println!("  avg miss latency    {:>14.1}", stats.avg_miss_latency());
    println!("  L2 data blocks      {:>14}", stats.l2_data_blocks);
    println!("  DRAM accesses       {:>14}", stats.dram_accesses);
    println!("  NoC flit-hops       {:>14}", stats.flit_hops);
    println!(
        "  hierarchy energy    {:>12.1} nJ",
        stats.hierarchy_energy_nj(&params)
    );
    println!("  L1-miss EDP         {:>14.3}", stats.l1_miss_edp(&params));
    if degrading {
        println!(
            "  demoted / disabled  {:>12} / {} ({} misses denied, {} fetches forced)",
            stats.demotions, stats.disables, stats.degrade_denied, stats.degrade_forced
        );
    }
    Ok(())
}

/// `lva-explore timeline`: run a benchmark with epoch sampling enabled
/// and emit the schema-versioned timeline manifest — per-core epoch
/// frames plus the end-of-run aggregate registry, so consumers (and the
/// CLI test) can check that the deltas sum exactly to the totals.
fn cmd_timeline(args: &Args) -> Result<(), String> {
    let name = args.positional.get(1).ok_or(
        "usage: lva-explore timeline <benchmark> [--epoch N] [--out file.json] [--jsonl file.jsonl]",
    )?;
    let scale = scale_of(args)?;
    let epoch: u64 = flag_or(args, "epoch", 500)?;
    let workload = find_workload(name, scale, 0)?;
    let config = config_of(args, |c| c.with_timeline(TimelineConfig::every(epoch)))?;
    let run = workload.execute(&config);

    println!(
        "timeline of {} under {}, {epoch} load-clock ticks per epoch:",
        run.name,
        config.mechanism.label()
    );
    let mut total_frames = 0usize;
    for (i, tl) in run.timelines.iter().enumerate() {
        total_frames += tl.len();
        let loads = tl.sum_counter("phase1/loads");
        let hits = tl.sum_counter("phase1/l1/hits");
        println!(
            "  core{i}: {:>4} epochs  {:>10} loads  hit-rate {:.3}  dropped {}",
            tl.len(),
            loads,
            hits as f64 / loads as f64,
            tl.dropped
        );
    }
    // Per-epoch rates of the busiest core, as a quick terminal read.
    if let Some(tl) = run.timelines.iter().max_by_key(|t| t.len()) {
        println!(
            "  {:>5} {:>10} {:>8} {:>9} {:>9} {:>9}",
            "epoch", "start", "span", "loads", "hit-rate", "approx"
        );
        for f in &tl.frames {
            println!(
                "  {:>5} {:>10} {:>8} {:>9} {:>9.3} {:>9}",
                f.index,
                f.start,
                f.span(),
                f.counter("phase1/loads"),
                f.ratio("phase1/l1/hits", "phase1/loads"),
                f.counter("phase1/mech/approximations"),
            );
        }
    }

    if let Some(out) = args.flag("out") {
        let mut aggregate = MetricsRegistry::new();
        run.stats.record_metrics(&mut aggregate, "phase1");
        let threads: Vec<Json> = run
            .timelines
            .iter()
            .enumerate()
            .map(|(i, tl)| {
                let mut rec = TimelineRecord::new(format!("{name}-core{i}"), tl.clone());
                rec.set_meta("workload", name.as_str());
                rec.set_meta("core", i.to_string());
                rec.set_meta("mechanism", config.mechanism.label());
                rec.set_meta("epoch", epoch.to_string());
                rec.to_json()
            })
            .collect();
        let manifest = Json::Obj(vec![
            ("kind".into(), Json::Str("lva-explore.timeline".into())),
            ("schema".into(), Json::Num(TIMELINE_SCHEMA_VERSION as f64)),
            ("workload".into(), Json::Str(name.clone())),
            (
                "scale".into(),
                Json::Str(args.flag("scale").unwrap_or("test").into()),
            ),
            (
                "mechanism".into(),
                Json::Str(config.mechanism.label().to_string()),
            ),
            ("epoch".into(), Json::Num(epoch as f64)),
            (
                "aggregate".into(),
                Json::Obj(
                    aggregate
                        .dump()
                        .into_iter()
                        .map(|(p, v)| (p, Json::Num(v)))
                        .collect(),
                ),
            ),
            ("threads".into(), Json::Arr(threads)),
        ]);
        lva::obs::write_atomic(Path::new(out), &manifest.to_string_pretty())
            .map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote timeline manifest ({total_frames} frames) to {out}");
    }

    if let Some(path) = args.flag("jsonl") {
        // One frame per line from the busiest core — the streaming shape
        // of the same data the manifest carries in full.
        let tl = run
            .timelines
            .iter()
            .max_by_key(|t| t.len())
            .ok_or("no timelines recorded")?;
        lva::obs::write_jsonl(Path::new(path), &tl.frames)
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {} JSONL frames to {path}", tl.len());
    }
    Ok(())
}

/// `lva-explore serve`: run the sweep job server in the foreground until
/// a client sends `shutdown` (e.g. `lva-explore serve-ctl stop`).
fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.flag("addr").unwrap_or("127.0.0.1:0");
    let parallelism = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    let workers = positive(args, "threads", parallelism)?;
    let capacity = positive(args, "cache-capacity", 256)?;
    let cache = if args.switch("memory-only") {
        ResultCache::in_memory(capacity)
    } else {
        let dir = args
            .flag("cache-dir")
            .map_or_else(lva::serve::default_cache_dir, std::path::PathBuf::from);
        ResultCache::open(&dir, capacity)
            .map_err(|e| format!("cannot open cache at {}: {e}", dir.display()))?
    };
    let epoch_ms = positive(args, "timeline-ms", Scheduler::DEFAULT_EPOCH_MS)?;
    let scheduler = std::sync::Arc::new(Scheduler::new_every(workers, cache, epoch_ms));
    let server = Server::bind(addr, scheduler).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server
        .local_addr()
        .map_err(|e| format!("cannot resolve listen address: {e}"))?;
    // Clients and the CI smoke test parse this line for the port, so it
    // must hit stdout before the accept loop blocks.
    println!("lva-serve listening on {local}");
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.run();
    Ok(())
}

/// `lva-explore submit`: ship a sweep grid to a running server and render
/// the returned manifests as the usual sweep table.
fn cmd_submit(args: &Args) -> Result<(), String> {
    let addr = args.flag("addr").ok_or("submit needs --addr HOST:PORT")?;
    let scale = scale_of(args)?;
    let seed: u64 = flag_or(args, "seed", 0)?;
    let (_, workloads) = benchmarks_of(args, scale)?;
    let names: Vec<String> = workloads.iter().map(|w| w.name().to_owned()).collect();
    let configs = grid_configs_of(args)?;

    // Same config-major point order as `sweep`.
    let points: Vec<PointSpec> = configs
        .iter()
        .flat_map(|config| {
            names
                .iter()
                .map(move |name| PointSpec::new(name, scale, seed, config.clone()))
        })
        .collect();

    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let show_progress = args.switch("progress");
    let outcome = client.submit_with_progress(&points, |done, total| {
        if show_progress {
            eprintln!("  {done}/{total} points");
        }
    })?;

    println!(
        "{:<28} {:<14} {:>12} {:>12} {:>10}",
        "configuration", "benchmark", "norm. MPKI", "norm. fetch", "error %"
    );
    let mut failures = 0usize;
    for (point, result) in points.iter().zip(&outcome.results) {
        let label = format!(
            "{} d={}",
            point.config.mechanism.label(),
            point.config.value_delay
        );
        match result {
            Ok(text) => {
                let record = RunRecord::parse(text)
                    .map_err(|e| format!("unparseable manifest from server: {e}"))?;
                println!(
                    "{:<28} {:<14} {:>12.4} {:>12.4} {:>10.2}",
                    label,
                    point.workload,
                    record.stat("summary/norm_mpki").unwrap_or(f64::NAN),
                    record.stat("summary/norm_fetches").unwrap_or(f64::NAN),
                    record.stat("summary/output_error").unwrap_or(f64::NAN) * 100.0,
                );
            }
            Err(msg) => {
                failures += 1;
                println!("{:<28} {:<14} failed: {msg}", label, point.workload);
            }
        }
    }
    println!(
        "\njob {}: {} points, {} cache hits, {} deduped, {} failed",
        outcome.job,
        points.len(),
        outcome.cache_hits,
        outcome.deduped,
        failures
    );

    // Optional manifest dump, one file per successful point, named by
    // content address — identical to the server's own disk cache layout.
    if let Some(dir) = args.flag("out-dir") {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for (point, result) in points.iter().zip(&outcome.results) {
            if let Ok(text) = result {
                let path = dir.join(format!(
                    "point-{}-{:016x}.json",
                    point.workload,
                    point.fingerprint()
                ));
                lva::obs::write_atomic(&path, text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
        }
    }

    if args.switch("shutdown") {
        client.shutdown_server()?;
    }
    if failures > 0 {
        return Err(format!("{failures} points failed on the server"));
    }
    Ok(())
}

/// `123456789.0` → `"123.46ms"`: nanoseconds at the nearest of
/// ns/us/ms/s.
fn humanize_ns(ns: f64) -> String {
    if !ns.is_finite() {
        return "-".into();
    }
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// One metric value formatted for the `serve-ctl metrics` table:
/// nanosecond-valued paths (any `*_ns` segment, except their `count`)
/// humanize to the nearest time unit, whole numbers print as integers,
/// everything else keeps four decimals.
fn format_metric(path: &str, value: f64) -> String {
    let is_ns = path.split('/').any(|seg| seg.ends_with("_ns")) && !path.ends_with("/count");
    if is_ns {
        humanize_ns(value)
    } else if value.fract() == 0.0 && value.abs() < 9e15 {
        format!("{value}")
    } else {
        format!("{value:.4}")
    }
}

/// Renders a metrics dump as a sorted, path-aligned table.
fn print_metrics_table(dump: &[(String, f64)]) {
    let mut rows: Vec<(String, String)> = dump
        .iter()
        .map(|(path, value)| (path.clone(), format_metric(path, *value)))
        .collect();
    rows.sort();
    let width = rows.iter().map(|(p, _)| p.len()).max().unwrap_or(0);
    for (path, value) in rows {
        println!("{path:<width$}  {value}");
    }
}

/// `lva-explore serve-ctl <ping|metrics|watch|stop>`: poke a running
/// server.
fn cmd_serve_ctl(args: &Args) -> Result<(), String> {
    let action = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("usage: lva-explore serve-ctl <ping|metrics|watch|stop> --addr HOST:PORT")?;
    let addr = args
        .flag("addr")
        .ok_or("serve-ctl needs --addr HOST:PORT")?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match action {
        "ping" => {
            client.ping()?;
            println!("pong from {addr}");
            Ok(())
        }
        "metrics" => {
            print_metrics_table(&client.metrics()?);
            Ok(())
        }
        "watch" => {
            // A live top-style stream: one row per wall-interval epoch,
            // straight off the server's timeline. `--once` prints a
            // single frame (scripting); `--frames N` a finite stream;
            // neither = run until the server goes away or ^C.
            let frames: u64 = if args.switch("once") {
                1
            } else {
                flag_or(args, "frames", 0)?
            };
            let mut sink = match args.flag("jsonl") {
                None => None,
                Some(path) => Some(
                    JsonlSink::create(Path::new(path))
                        .map_err(|e| format!("create {path}: {e}"))?,
                ),
            };
            println!(
                "{:>6} {:>8} {:>5} {:>7} {:>6} {:>6} {:>6} {:>6} {:>10}",
                "epoch", "span_ms", "jobs", "points", "evals", "gov", "hits", "queue", "eval p95"
            );
            let mut sink_err = None;
            let seen = client.watch(frames, |f| {
                let eval_p95 = f
                    .histograms
                    .iter()
                    .find(|(p, _)| p == "serve/point/eval_ns")
                    .map_or(0, |(_, h)| h.p95);
                println!(
                    "{:>6} {:>8} {:>5} {:>7} {:>6} {:>6} {:>6} {:>6} {:>10}",
                    f.index,
                    f.span(),
                    f.counter("serve/jobs/accepted"),
                    f.counter("serve/points/requested"),
                    f.counter("serve/points/evaluated"),
                    f.counter("serve/points/governed"),
                    f.counter("serve/cache/hits"),
                    f.gauge("serve/queue/depth").unwrap_or(0.0) as u64,
                    humanize_ns(eval_p95 as f64),
                );
                match &mut sink {
                    Some(sink) => match sink.append(f) {
                        Ok(()) => true,
                        Err(e) => {
                            sink_err = Some(e.to_string());
                            false
                        }
                    },
                    None => true,
                }
            })?;
            if let Some(e) = sink_err {
                return Err(format!("jsonl sink failed: {e}"));
            }
            eprintln!("watched {seen} epoch frame(s) from {addr}");
            Ok(())
        }
        "stop" => {
            client.shutdown_server()?;
            println!("server at {addr} stopping");
            Ok(())
        }
        other => Err(format!(
            "unknown serve-ctl action {other} (ping|metrics|watch|stop)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("run") => cmd_run(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("trace") => cmd_trace(&args),
        Some("attribute") => cmd_attribute(&args),
        Some("replay") => cmd_replay(&args),
        Some("analyze") => cmd_analyze(&args),
        Some("report") => cmd_report(&args),
        Some("compare") => cmd_compare(&args),
        Some("timeline") => cmd_timeline(&args),
        Some("serve") => cmd_serve(&args),
        Some("submit") => cmd_submit(&args),
        Some("serve-ctl") => cmd_serve_ctl(&args),
        _ => Err(
            "usage: lva-explore <list|run|sweep|trace|attribute|replay|analyze|report|compare|timeline|serve|submit|serve-ctl> ..."
                .to_owned(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
