//! The paper's qualitative claims, asserted end-to-end at test scale.
//! These are the "shape" checks EXPERIMENTS.md reports at full scale.

use lva::core::{ApproximatorConfig, ConfidenceWindow, LvpConfig};
use lva::sim::SimConfig;
use lva::workloads::{registry, WorkloadScale};

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// §VI-A / Fig. 4: LVA achieves lower mean MPKI than the *idealized* LVP,
/// because relaxed windows don't demand exact predictability.
#[test]
fn lva_beats_idealized_lvp_on_average() {
    let workloads = registry(WorkloadScale::Test);
    let lva: Vec<f64> = workloads
        .iter()
        .map(|w| w.execute(&SimConfig::baseline_lva()).normalized_mpki())
        .collect();
    let lvp: Vec<f64> = workloads
        .iter()
        .map(|w| {
            w.execute(&SimConfig::lvp(LvpConfig::baseline()))
                .normalized_mpki()
        })
        .collect();
    assert!(
        mean(&lva) < mean(&lvp),
        "LVA mean {} !< LVP mean {}",
        mean(&lva),
        mean(&lvp)
    );
}

/// Fig. 5: LVA keeps every workload's output error under the paper's 10%
/// acceptability bar at every GHB size (highest at Test scale: 4.03%,
/// blackscholes at GHB-2).
#[test]
fn output_error_stays_under_10pct_across_ghb_sizes() {
    for w in registry(WorkloadScale::Test) {
        for ghb in [0, 1, 2, 4] {
            let run = w.execute(&SimConfig::lva(ApproximatorConfig::with_ghb(ghb)));
            assert!(
                run.output_error <= 0.10,
                "{} GHB-{ghb}: {:.2}% output error",
                w.name(),
                run.output_error * 100.0
            );
        }
    }
}

/// Fig. 6: relaxing the confidence window monotonically (in the mean)
/// trades MPKI for output error.
#[test]
fn wider_windows_trade_error_for_mpki() {
    let workloads = registry(WorkloadScale::Test);
    let run = |window| {
        let cfg = SimConfig::lva(ApproximatorConfig::with_confidence_window(window));
        let runs: Vec<_> = workloads.iter().map(|w| w.execute(&cfg)).collect();
        (
            mean(&runs.iter().map(|r| r.normalized_mpki()).collect::<Vec<_>>()),
            mean(&runs.iter().map(|r| r.output_error).collect::<Vec<_>>()),
        )
    };
    let (mpki_tight, err_tight) = run(ConfidenceWindow::Relative(0.05));
    let (mpki_loose, err_loose) = run(ConfidenceWindow::Infinite);
    assert!(
        mpki_loose < mpki_tight,
        "infinite window must cut MPKI: {mpki_loose} vs {mpki_tight}"
    );
    assert!(
        err_loose >= err_tight,
        "infinite window cannot reduce error: {err_loose} vs {err_tight}"
    );
}

/// Fig. 8: prefetching cuts MPKI at the cost of *more* fetches; LVA cuts
/// both. Who wins on fetches is the paper's headline energy argument.
#[test]
fn lva_and_prefetching_sit_on_opposite_fetch_sides() {
    let workloads = registry(WorkloadScale::Test);
    let prefetch: Vec<_> = workloads
        .iter()
        .map(|w| w.execute(&SimConfig::prefetch(8)))
        .collect();
    let lva: Vec<_> = workloads
        .iter()
        .map(|w| w.execute(&SimConfig::lva(ApproximatorConfig::with_degree(8))))
        .collect();
    let pf_fetches = mean(
        &prefetch
            .iter()
            .map(|r| r.normalized_fetches())
            .collect::<Vec<_>>(),
    );
    let lva_fetches = mean(
        &lva.iter()
            .map(|r| r.normalized_fetches())
            .collect::<Vec<_>>(),
    );
    assert!(
        pf_fetches > 1.0,
        "prefetching must inflate fetches: {pf_fetches}"
    );
    assert!(lva_fetches < 1.0, "LVA must reduce fetches: {lva_fetches}");
    // Both reduce MPKI on average.
    assert!(
        mean(
            &prefetch
                .iter()
                .map(|r| r.normalized_mpki())
                .collect::<Vec<_>>()
        ) < 1.0
    );
    assert!(mean(&lva.iter().map(|r| r.normalized_mpki()).collect::<Vec<_>>()) < 1.0);
}

/// Fig. 7: value delay barely moves output error for most benchmarks
/// (canneal is the paper's exception, so we check the suite mean).
#[test]
fn value_delay_is_tolerated() {
    let workloads = registry(WorkloadScale::Test);
    let err_at = |delay| {
        let cfg = SimConfig::baseline_lva().with_value_delay(delay);
        mean(
            &workloads
                .iter()
                .map(|w| w.execute(&cfg).output_error)
                .collect::<Vec<_>>(),
        )
    };
    let e4 = err_at(4);
    let e32 = err_at(32);
    assert!(
        e32 < e4 + 0.10,
        "delay 32 must not blow up error: {e32} vs {e4}"
    );
}

/// Fig. 9: output error grows (weakly, in the mean) with the approximation
/// degree.
#[test]
fn error_grows_with_degree() {
    let workloads = registry(WorkloadScale::Test);
    let err_at = |degree| {
        let cfg = SimConfig::lva(ApproximatorConfig::with_degree(degree));
        mean(
            &workloads
                .iter()
                .map(|w| w.execute(&cfg).output_error)
                .collect::<Vec<_>>(),
        )
    };
    let e0 = err_at(0);
    let e16 = err_at(16);
    assert!(e16 >= e0 - 1e-9, "degree 16 error {e16} vs degree 0 {e0}");
}

/// Table I: employing LVA changes the dynamic instruction count only
/// slightly (the paper reports <= 2.37% across the suite).
#[test]
fn instruction_count_variation_is_low() {
    for w in registry(WorkloadScale::Test) {
        let run = w.execute(&SimConfig::baseline_lva());
        assert!(
            run.instruction_variation() < 0.05,
            "{}: {}% variation",
            w.name(),
            run.instruction_variation() * 100.0
        );
    }
}

/// §VII-A / Fig. 12: the number of static approximate-load PCs is small —
/// a few hundred at most — and x264 is the largest.
#[test]
fn static_pc_counts_match_fig12() {
    let workloads = registry(WorkloadScale::Test);
    let counts: Vec<(String, usize)> = workloads
        .iter()
        .map(|w| {
            let run = w.execute(&SimConfig::baseline_lva());
            (w.name().to_owned(), run.stats.static_approx_pcs())
        })
        .collect();
    let max = counts.iter().max_by_key(|(_, c)| *c).expect("non-empty");
    assert_eq!(max.0, "x264", "x264 must have the most approximate PCs");
    for (name, count) in &counts {
        assert!(*count <= 300, "{name}: {count} static PCs");
        assert!(*count >= 1, "{name} has no approximate loads");
    }
}

/// ROADMAP acceptance test for the closed-loop governor: a fixed 2%
/// output-error SLO across all seven workloads.
///
/// The governor must (a) hold the application-level output error within
/// the budget on every workload, and (b) land the estimated EDP within
/// 20% of the offline-best point from a small reference sweep — the
/// cheapest rung of its own ladder that holds the SLO *as the governor
/// measures it*. A rung holds when a closed loop pinned with that rung
/// as its top never needs to act (the quiet governor is byte-identical
/// to the static point, so the run's EDP is the static point's EDP).
/// Where no rung holds the online signal — canneal's integer
/// coordinates, for instance, mispredict with huge relative error at
/// every window — the closed loop must do what no static point can:
/// tighten to the floor and disable the offending PCs, which is exactly
/// the regime (a) certifies.
#[test]
fn governor_holds_a_2pct_slo_at_near_optimal_edp() {
    let slo = 0.02;
    let params = lva::energy::EnergyParams::cacti_32nm();
    // The governor's window ladder over the baseline configuration
    // (degree 0, ±10% window): exact, 2.5%, 5%, 10%.
    let ladder = [
        ConfidenceWindow::Exact,
        ConfidenceWindow::Relative(0.025),
        ConfidenceWindow::Relative(0.05),
        ConfidenceWindow::Relative(0.10),
    ];
    let govern = lva::sim::GovernorConfig {
        epoch_len: 200,
        min_samples: 8,
        ..lva::sim::GovernorConfig::slo(slo)
    };
    for w in registry(WorkloadScale::Test) {
        let mut offline_best = f64::INFINITY;
        for window in ladder {
            let cfg = SimConfig::lva(ApproximatorConfig {
                confidence_window: window,
                ..ApproximatorConfig::baseline()
            })
            .with_govern(govern);
            let run = w.execute(&cfg);
            let acted = run
                .govern
                .iter()
                .any(|g| g.actuations > 0 || g.pc_disables > 0);
            if !acted && run.output_error <= slo {
                offline_best = offline_best.min(run.stats.estimated_edp(&params));
            }
        }
        let governed = w.execute(&SimConfig::baseline_lva().with_govern(govern));
        assert!(
            governed.output_error <= slo,
            "{}: governed output error {:.4} breaches the {slo} SLO",
            w.name(),
            governed.output_error
        );
        if offline_best.is_finite() {
            let edp = governed.stats.estimated_edp(&params);
            assert!(
                edp <= offline_best * 1.20,
                "{}: governed EDP {edp:.3} not within 20% of offline best {offline_best:.3}",
                w.name()
            );
        } else {
            // No static rung holds the governor's quality signal: the
            // closed loop must have earned (a) by actually supervising —
            // tightening off the top rung and/or disabling offenders.
            let supervised = governed
                .govern
                .iter()
                .any(|g| g.tightens > 0 || g.pc_disables > 0);
            assert!(
                supervised,
                "{}: no static rung holds the SLO yet the governor never acted",
                w.name()
            );
        }
    }
}

/// §VII-B / Fig. 13: with a GHB of 2, losing float mantissa bits in the
/// hash improves fluidanimate's coverage (lower or equal MPKI).
#[test]
fn mantissa_truncation_helps_fluidanimate() {
    let wl = lva::workloads::fluidanimate::Fluidanimate::new(WorkloadScale::Test);
    use lva::workloads::Workload;
    let run_at = |loss| {
        let approximator = ApproximatorConfig {
            ghb_entries: 2,
            mantissa_loss_bits: loss,
            confidence_window: ConfidenceWindow::Infinite,
            ..ApproximatorConfig::baseline()
        };
        wl.execute(&SimConfig::lva(approximator)).normalized_mpki()
    };
    let full = run_at(0);
    let truncated = run_at(23);
    assert!(
        truncated <= full + 0.02,
        "losing 23 mantissa bits must not hurt coverage: {truncated} vs {full}"
    );
}

/// Figs. 10–11: full-system speedup, hierarchy energy and L1-miss EDP
/// against the approximation degree, on traces recorded once and replayed
/// precise and at degrees 0, 4 and 16.
///
/// Mean speedup stays positive but *falls* with degree (11.55 / 3.67 /
/// 0.59% at Test scale) where the paper's stays roughly flat — Known
/// divergence 2 in EXPERIMENTS.md, pinned here. canneal, the paper's
/// showcase, is among the top three winners at degree 0; energy savings
/// rise with degree; normalised EDP is below 1 and falls with degree.
#[test]
fn fullsystem_gains_follow_the_approximation_degree() {
    use lva::sim::sweep::{run_fullsystem_grid, SweepOptions};
    use lva::sim::{FullSystemConfig, MechanismKind};
    let params = lva::energy::EnergyParams::cacti_32nm();
    let workloads = registry(WorkloadScale::Test);
    let traces: Vec<_> = workloads
        .iter()
        .map(|w| w.execute(&SimConfig::precise().with_traces()).traces)
        .collect();
    let degrees = [0u32, 4, 16];
    let configs: Vec<_> = std::iter::once(MechanismKind::Precise)
        .chain(degrees.map(|d| MechanismKind::Lva(ApproximatorConfig::with_degree(d))))
        .map(FullSystemConfig::paper)
        .collect();
    let values = run_fullsystem_grid(&configs, &traces, &SweepOptions::default()).into_values();
    let mut rows = values.chunks(traces.len());
    let precise = rows.next().expect("precise row");

    let mut speedup = Vec::new();
    let mut savings = Vec::new();
    let mut edp = Vec::new();
    for runs in rows {
        let pairs = || runs.iter().zip(precise);
        speedup.push(
            pairs()
                .map(|(r, p)| (r.speedup_vs(p) - 1.0) * 100.0)
                .collect::<Vec<_>>(),
        );
        savings.push(mean(
            &pairs()
                .map(|(r, p)| {
                    (1.0 - r.hierarchy_energy_nj(&params) / p.hierarchy_energy_nj(&params)) * 100.0
                })
                .collect::<Vec<_>>(),
        ));
        edp.push(mean(
            &pairs()
                .map(|(r, p)| {
                    let base = p.l1_miss_edp(&params);
                    if base == 0.0 {
                        1.0
                    } else {
                        r.l1_miss_edp(&params) / base
                    }
                })
                .collect::<Vec<_>>(),
        ));
    }

    let mean_speedup: Vec<f64> = speedup.iter().map(|s| mean(s)).collect();
    assert!(
        mean_speedup.iter().all(|&s| s > 0.0),
        "mean speedup must stay positive at degrees {degrees:?}: {mean_speedup:?}"
    );
    assert!(
        mean_speedup.windows(2).all(|w| w[1] < w[0]),
        "Known divergence 2: mean speedup falls with degree {degrees:?}: {mean_speedup:?}"
    );
    let canneal = workloads
        .iter()
        .position(|w| w.name() == "canneal")
        .expect("canneal in the registry");
    let beaten_by = speedup[0]
        .iter()
        .filter(|&&s| s > speedup[0][canneal])
        .count();
    assert!(
        beaten_by < 3,
        "canneal must be a top-three winner at degree 0: {:?}",
        speedup[0]
    );
    assert!(
        savings.windows(2).all(|w| w[1] > w[0]),
        "mean energy savings must rise with degree {degrees:?}: {savings:?}"
    );
    assert!(
        edp[0] < 1.0 && edp.windows(2).all(|w| w[1] < w[0]),
        "mean normalised EDP must be below 1 and fall with degree {degrees:?}: {edp:?}"
    );
}
