//! Cross-crate integration tests: workloads through the phase-1 harness,
//! trace capture, and phase-2 full-system replay.

use lva::core::ApproximatorConfig;
use lva::sim::sweep::{run_fullsystem_grid, SweepOptions};
use lva::sim::{FaultConfig, FullSystemConfig, MechanismKind, QualityState, SimConfig};
use lva::workloads::{registry, WorkloadScale};

#[test]
fn every_workload_runs_under_every_mechanism() {
    for w in registry(WorkloadScale::Test) {
        for cfg in [
            SimConfig::precise(),
            SimConfig::baseline_lva(),
            SimConfig::lvp(lva::core::LvpConfig::baseline()),
            SimConfig::prefetch(4),
        ] {
            let run = w.execute(&cfg);
            assert!(
                run.stats.total.instructions > 0,
                "{} under {} did nothing",
                w.name(),
                cfg.mechanism.label()
            );
            assert!(
                run.output_error.is_finite() && run.output_error >= 0.0,
                "{} error {}",
                w.name(),
                run.output_error
            );
            // Sanity of the counter algebra.
            let t = &run.stats.total;
            assert!(t.l1_hits + t.raw_misses <= t.loads);
            assert!(t.approximations + t.lvp_correct <= t.raw_misses);
        }
    }
}

#[test]
fn precise_runs_have_zero_error_and_full_fetches() {
    for w in registry(WorkloadScale::Test) {
        let run = w.execute(&SimConfig::precise());
        assert_eq!(run.output_error, 0.0, "{} precise error", w.name());
        assert_eq!(
            run.stats.fetches(),
            run.stats.total.raw_misses,
            "{}: precise fetch:miss must be 1:1",
            w.name()
        );
        assert_eq!(run.normalized_mpki(), 1.0);
    }
}

#[test]
fn runs_are_deterministic() {
    for w in registry(WorkloadScale::Test) {
        let a = w.execute(&SimConfig::baseline_lva());
        let b = w.execute(&SimConfig::baseline_lva());
        assert_eq!(a.stats.total.instructions, b.stats.total.instructions);
        assert_eq!(a.stats.total.raw_misses, b.stats.total.raw_misses);
        assert_eq!(a.stats.total.approximations, b.stats.total.approximations);
        assert_eq!(a.output_error, b.output_error, "{}", w.name());
    }
}

#[test]
fn traces_replay_in_the_full_system() {
    let workloads = registry(WorkloadScale::Test);
    let recorded: Vec<_> = workloads
        .iter()
        .map(|w| w.execute(&SimConfig::precise().with_traces()))
        .collect();
    let configs = [
        FullSystemConfig::paper(MechanismKind::Precise),
        FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline())),
    ];
    let trace_sets: Vec<_> = recorded.iter().map(|r| r.traces.clone()).collect();
    let values = run_fullsystem_grid(&configs, &trace_sets, &SweepOptions::default()).into_values();
    let (precise, lva) = values.split_at(workloads.len());
    for (((w, recorded), stats), lva) in workloads.iter().zip(&recorded).zip(precise).zip(lva) {
        let trace_instructions: u64 = recorded.traces.iter().map(|t| t.stats().instructions).sum();
        assert_eq!(
            trace_instructions,
            recorded.stats.total.instructions,
            "{}: trace must capture every instruction",
            w.name()
        );
        assert_eq!(stats.instructions, trace_instructions, "{}", w.name());
        assert!(stats.cycles > 0);
        assert_eq!(lva.instructions, trace_instructions);
        // LVA never slows the machine down catastrophically.
        assert!(
            (lva.cycles as f64) < stats.cycles as f64 * 1.2,
            "{}: LVA {} vs precise {} cycles",
            w.name(),
            lva.cycles,
            stats.cycles
        );
    }
}

#[test]
fn approximations_count_as_hits_in_mpki() {
    // The §V-A accounting identity: effective misses = raw − approximated −
    // lvp-correct, and MPKI is proportional to effective misses.
    let w = &registry(WorkloadScale::Test)[2]; // canneal: high miss rate
    let run = w.execute(&SimConfig::baseline_lva());
    let t = &run.stats.total;
    let effective = t.raw_misses - t.approximations - t.lvp_correct;
    assert_eq!(run.stats.effective_misses(), effective);
    let expected_mpki = effective as f64 * 1000.0 / t.instructions as f64;
    assert!((run.stats.mpki() - expected_mpki).abs() < 1e-9);
}

#[test]
fn degree_trades_fetches_for_error() {
    // §III-C's whole point, end to end on an integer workload.
    let w = &registry(WorkloadScale::Test)[1]; // bodytrack
    let d0 = w.execute(&SimConfig::lva(ApproximatorConfig::with_degree(0)));
    let d16 = w.execute(&SimConfig::lva(ApproximatorConfig::with_degree(16)));
    assert!(
        d16.stats.fetches() < d0.stats.fetches(),
        "degree 16 must fetch less: {} vs {}",
        d16.stats.fetches(),
        d0.stats.fetches()
    );
    assert!(d16.output_error >= d0.output_error - 1e-9);
}

#[test]
fn budget_controller_contains_error_under_table_faults() {
    // The robustness acceptance scenario: blackscholes with a 5% quality
    // budget while seeded faults corrupt approximator-table state. The
    // controller must catch the offending PCs (demote, then disable them
    // into conventional misses) and the application-level output error must
    // stay within the configured budget.
    let w = &registry(WorkloadScale::Test)[0]; // blackscholes
    let cfg = SimConfig::baseline_lva()
        .with_error_budget(0.05)
        .with_faults(FaultConfig::seeded(42).with_table_rate(2e-3));
    cfg.validate().expect("robustness config is valid");
    let run = w.execute(&cfg);
    let t = &run.stats.total;
    assert!(t.faults_injected > 0, "faults must actually fire");
    assert!(t.demotions > 0, "controller must demote corrupted PCs");
    assert!(
        run.output_error <= 0.05,
        "output error {} exceeds the 5% budget",
        run.output_error
    );
    // The per-thread reports name the offenders and agree with the stats.
    let offenders: Vec<_> = run
        .govern
        .iter()
        .flat_map(|r| &r.entries)
        .filter(|e| e.demotions > 0)
        .collect();
    assert!(!offenders.is_empty(), "reports must name the demoted PCs");
    assert!(offenders
        .iter()
        .all(|e| e.demotions > 0 && e.state != QualityState::Healthy));
}

#[test]
fn hybrid_clp_cuts_load_latency_within_the_error_budget() {
    // The level-prediction acceptance scenario: on blackscholes, the
    // lva+clp hybrid — approximate only when the predictor says the line
    // is served from a slow level — must keep output error within the 5%
    // quality budget while beating lva-only average load latency at the
    // same sweep point (same approximator, same value delay).
    let w = &registry(WorkloadScale::Test)[0]; // blackscholes
    let approx = ApproximatorConfig::baseline();
    let lva_cfg = SimConfig::lva(approx.clone());
    let hybrid_cfg = SimConfig::lva_clp(approx, lva::core::ClpConfig::baseline());
    hybrid_cfg.validate().expect("hybrid config is valid");
    let lva_run = w.execute(&lva_cfg);
    let hybrid = w.execute(&hybrid_cfg);

    assert!(
        hybrid.stats.total.clp_predictions > 0,
        "the predictor must actually screen misses"
    );
    assert!(
        hybrid.output_error <= 0.05,
        "hybrid output error {} exceeds the 5% budget",
        hybrid.output_error
    );
    let (lva_lat, hybrid_lat) = (
        lva_run.stats.avg_load_latency(),
        hybrid.stats.avg_load_latency(),
    );
    assert!(
        hybrid_lat < lva_lat,
        "hybrid avg load latency {hybrid_lat:.3} must beat lva-only {lva_lat:.3}"
    );
}

#[test]
fn value_delay_zero_and_large_both_work() {
    let w = &registry(WorkloadScale::Test)[0]; // blackscholes
    for delay in [0u64, 1, 64] {
        let run = w.execute(&SimConfig::baseline_lva().with_value_delay(delay));
        assert!(run.output_error.is_finite());
        assert!(run.stats.total.instructions > 0);
    }
}

/// An untouched histogram has no mean: the registry dumps NaN, the
/// manifest serializes it as JSON `null`, a reload reads it back as NaN,
/// and an exact self-compare still passes — empty-histogram stats ride
/// through the whole report/compare pipeline without poisoning gates.
#[test]
fn empty_histogram_mean_survives_report_and_compare_as_null() {
    use lva::obs::{compare, read_manifest, write_manifest, MetricsRegistry, RunRecord};

    let mut registry = MetricsRegistry::new();
    registry.histogram("quiet/latency_ns"); // registered, never observed
    registry.counter("loads").add(42);
    let mut record = RunRecord::new("empty-hist");
    record.absorb_registry(&registry);
    assert!(
        record
            .stat("quiet/latency_ns/mean")
            .expect("stat present")
            .is_nan(),
        "empty histogram dumps a NaN mean"
    );

    let dir = std::env::temp_dir().join(format!("lva-nan-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("BENCH_empty-hist.json");
    write_manifest(&path, &record).expect("write manifest");
    let text = std::fs::read_to_string(&path).expect("manifest text");
    assert!(
        text.contains("\"quiet/latency_ns/mean\": null"),
        "NaN must serialize as null: {text}"
    );
    assert!(!text.contains("NaN"), "no bare NaN literals in JSON");

    let back = read_manifest(&path).expect("reload manifest");
    assert!(back
        .stat("quiet/latency_ns/mean")
        .expect("stat survives")
        .is_nan());
    assert_eq!(back.stat("loads"), Some(42.0));

    // NaN == NaN for gating purposes: both sides undefined is not drift.
    let report = compare(&record, &back, 0.0);
    assert!(report.passed(), "exact self-compare tolerates NaN pairs");
    let _ = std::fs::remove_dir_all(dir);
}
