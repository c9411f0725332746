//! Cross-mechanism conformance harness: one table of mechanism
//! constructors, one battery of invariants every family must pass.
//!
//! The point of the `Mechanism::from_kind` seam is that a new miss-
//! handling family (the cache-level predictor is the second; a third
//! should follow the same recipe) inherits the repo's determinism and
//! observability contracts for free. This suite makes that contract
//! executable: add one row to [`mechanisms`] and the whole battery —
//! worker-count invariance, trace neutrality, quiet-controller
//! invisibility, seeded replay — runs against the new family.

use lva::core::{ApproximatorConfig, CacheLevel, ClpConfig, ConfidenceWindow, Pc, ValueType};
use lva::obs::{PcAttribution, TraceConfig};
use lva::sim::sweep::SweepOptions;
use lva::sim::{Knob, Mechanism, MechanismKind, SimConfig, SimHarness};
use lva::workloads::{registry, registry_seeded, run_grid, WorkloadScale};

/// The conformance table: every mechanism family under test, by name.
/// A new family joins the battery by adding one row here.
fn mechanisms() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("precise", SimConfig::precise()),
        ("lva", SimConfig::baseline_lva()),
        (
            "clp",
            SimConfig {
                mechanism: MechanismKind::Clp(ClpConfig::baseline()),
                ..SimConfig::precise()
            },
        ),
        (
            "lva+clp",
            SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
        ),
    ]
}

/// Runs every (mechanism, workload) pair and returns canonical
/// fingerprints in grid order.
fn battery_fingerprints(workers: usize, map: impl Fn(&SimConfig) -> SimConfig) -> Vec<String> {
    let workloads = registry(WorkloadScale::Test);
    let configs: Vec<SimConfig> = mechanisms().into_iter().map(|(_, c)| map(&c)).collect();
    let options = SweepOptions {
        workers: Some(workers),
        progress: false,
    };
    run_grid(&configs, &workloads, &options)
        .into_values()
        .iter()
        .map(|run| run.stats.fingerprint())
        .collect()
}

/// The mechanism a valid configuration builds: validation first, then
/// the one constructor every embedder calls.
fn build(cfg: &SimConfig) -> Mechanism {
    cfg.validate().expect("valid config");
    Mechanism::from_kind(&cfg.mechanism).expect("valid mechanism")
}

#[test]
fn every_row_constructs_through_the_config_seam() {
    for (name, cfg) in mechanisms() {
        let mech = cfg
            .validate()
            .and_then(|()| Mechanism::from_kind(&cfg.mechanism));
        assert!(mech.is_ok(), "{name}: {:?}", mech.err());
    }
}

#[test]
fn every_mechanism_is_worker_count_invariant() {
    let base = battery_fingerprints(1, Clone::clone);
    assert!(!base.is_empty());
    for workers in [2usize, 8] {
        let other = battery_fingerprints(workers, Clone::clone);
        assert_eq!(
            base, other,
            "a mechanism's results diverged between 1 and {workers} workers"
        );
    }
}

#[test]
fn every_mechanism_is_trace_neutral() {
    // Trace off, ring-buffered, and full attribution runs must all produce
    // byte-identical fingerprints, for every family in the table.
    let off = battery_fingerprints(4, Clone::clone);
    let ring = battery_fingerprints(4, |c| c.clone().with_trace(TraceConfig::ring(1024)));
    assert_eq!(off, ring, "ring tracing perturbed a mechanism");
    let attributed = battery_fingerprints(4, |c| c.clone().with_trace(TraceConfig::attribution()));
    assert_eq!(off, attributed, "attribution tracing perturbed a mechanism");
}

#[test]
fn attribution_accounts_every_miss_for_every_mechanism() {
    let workloads = registry(WorkloadScale::Test);
    for (name, cfg) in mechanisms() {
        let cfg = cfg.with_trace(TraceConfig::attribution());
        for w in &workloads {
            let run = w.execute(&cfg);
            let mut merged = PcAttribution::new();
            for col in &run.collectors {
                if let Some(a) = col.attribution() {
                    merged.merge(a);
                }
            }
            assert_eq!(
                merged.total_misses(),
                run.stats.total.raw_misses,
                "{name}/{}: attribution lost misses",
                w.name()
            );
        }
    }
}

/// Fingerprints of the whole battery with the governor configured but
/// never provoked: `budget` switches on the per-PC budget ladder, `slo`
/// the epoch SLO ladder.
fn quiet_governor_fingerprints(budget: Option<f64>, slo: Option<f64>) -> Vec<String> {
    battery_fingerprints(2, |c| {
        let mut c = c.clone();
        if let Some(b) = budget {
            c = c.with_error_budget(b);
        }
        if let Some(s) = slo {
            c = c.with_govern_slo(s);
        }
        c
    })
}

#[test]
fn quiet_controller_is_invisible_for_every_mechanism() {
    // The governor's budget ladder, with a budget no run can exhaust, must
    // leave every family's fingerprints untouched — mechanisms that never
    // train an approximator (precise, clp) trivially, lva and the hybrid
    // because the ladder only demotes a PC when its budget is threatened.
    let off = battery_fingerprints(2, Clone::clone);
    let on = quiet_governor_fingerprints(Some(1e4), None);
    assert_eq!(off, on, "a quiet budget ladder perturbed a mechanism");
}

#[test]
fn every_mechanism_replays_identically_from_a_seed() {
    // Seeded property loop: for each family, random workload seeds must
    // replay bit-for-bit — predictor and approximator state transitions
    // are functions of the input stream alone.
    let mut rng = lva::core::Rng64::new(0xc0ff_ee00);
    for case in 0..4u64 {
        let seed = rng.gen_u64();
        for (name, cfg) in mechanisms() {
            let first: Vec<String> = registry_seeded(WorkloadScale::Test, seed)
                .iter()
                .map(|w| w.execute(&cfg).stats.fingerprint())
                .collect();
            let second: Vec<String> = registry_seeded(WorkloadScale::Test, seed)
                .iter()
                .map(|w| w.execute(&cfg).stats.fingerprint())
                .collect();
            assert_eq!(
                first, second,
                "{name}: case {case} (seed {seed:#x}) did not replay identically"
            );
        }
    }
}

#[test]
fn fast_path_invariant_holds_for_every_mechanism() {
    // The load fast path skips the MSHR probe whenever the pending
    // training queue is empty, which is only sound if an empty queue
    // implies an empty in-flight set. Drive every family through a
    // seeded churn of approximate and precise loads across threads —
    // at value delays from none to many outstanding fetches per thread —
    // and check the invariant after every step, not just at the end.
    let mut rng = lva::core::Rng64::new(0xfa57_7a7e);
    for delay in [0u64, 4, 40] {
        for (name, cfg) in mechanisms() {
            let cfg = cfg.with_value_delay(delay);
            let threads = cfg.threads;
            let mut h = SimHarness::new(cfg);
            let base = h.alloc(64 * 512, 64);
            for i in 0..512u64 {
                h.memory_mut()
                    .write_f32(base.offset(i * 64), (i % 7) as f32);
            }
            for step in 0..4_000u64 {
                h.set_thread((rng.gen_u64() % threads as u64) as usize);
                let slot = rng.gen_u64() % 512;
                let addr = base.offset(slot * 64 + (rng.gen_u64() % 2) * 4);
                match rng.gen_u64() % 8 {
                    0 => h.store_f32(Pc(3), addr, slot as f32),
                    1 => drop(h.load(Pc(5), addr, ValueType::F32, false)),
                    2 => h.tick(3),
                    _ => drop(h.load(Pc(7), addr, ValueType::F32, true)),
                }
                assert!(
                    h.fast_path_invariant_holds(),
                    "{name}: empty pending queue with a non-empty in-flight \
                     set at step {step} (value_delay={delay})"
                );
            }
        }
    }
}

/// Reads `knob`'s setting back from the mechanism's own approximator or
/// predictor config, or `None` when the family does not carry that knob.
fn read_back(mech: &Mechanism, knob: Knob) -> Option<Knob> {
    let approximator = match mech {
        Mechanism::Lva(a) | Mechanism::LvaClp(a, _) => Some(a),
        _ => None,
    };
    let predictor = match mech {
        Mechanism::Clp(p) | Mechanism::LvaClp(_, p) => Some(p),
        _ => None,
    };
    match knob {
        Knob::ConfidenceWindow(_) => {
            approximator.map(|a| Knob::ConfidenceWindow(a.config().confidence_window))
        }
        Knob::Degree(_) => approximator.map(|a| Knob::Degree(a.config().degree)),
        Knob::PcEnable { pc, .. } => approximator.map(|a| Knob::PcEnable {
            pc,
            enabled: a.pc_enabled(pc),
        }),
        Knob::ClpSlowThreshold(_) => {
            predictor.map(|p| Knob::ClpSlowThreshold(p.config().slow_threshold))
        }
    }
}

#[test]
fn every_knob_round_trips_through_the_actuation_seam() {
    // The governor's actuation contract: `set` returns Ok(true) exactly
    // when the family carries the knob (and its config then holds the
    // written value), Ok(false) exactly when it does not. Every family in
    // the table, every knob.
    let knobs = [
        Knob::ConfidenceWindow(ConfidenceWindow::Relative(0.07)),
        Knob::Degree(3),
        Knob::PcEnable {
            pc: Pc(0x42),
            enabled: false,
        },
        Knob::ClpSlowThreshold(CacheLevel::L2),
    ];
    for (name, cfg) in mechanisms() {
        let mut mech = build(&cfg);
        for knob in knobs {
            let applied = mech
                .set(&knob)
                .unwrap_or_else(|e| panic!("{name}/{}: valid value rejected: {e}", knob.name()));
            let read = read_back(&mech, knob);
            assert_eq!(
                applied,
                read.is_some(),
                "{name}/{}: set disagrees with the config on knob presence",
                knob.name()
            );
            if applied {
                assert_eq!(
                    read,
                    Some(knob),
                    "{name}/{}: set did not reach the config",
                    knob.name()
                );
            }
        }
    }
}

#[test]
fn invalid_knob_values_error_without_panicking() {
    // Bad actuation values must surface as `ConfigError` on families that
    // carry the knob — leaving the old value in place — and stay inert
    // Ok(false) on families that do not.
    for bad in [
        Knob::ConfidenceWindow(ConfidenceWindow::Relative(-0.5)),
        Knob::ConfidenceWindow(ConfidenceWindow::Relative(f64::NAN)),
    ] {
        for (name, cfg) in mechanisms() {
            let mut mech = build(&cfg);
            let before = read_back(&mech, bad);
            match mech.set(&bad) {
                Err(_) => {
                    assert!(before.is_some(), "{name}: error from an absent knob");
                    assert_eq!(
                        read_back(&mech, bad),
                        before,
                        "{name}: a rejected set still moved the knob"
                    );
                }
                Ok(applied) => {
                    assert!(!applied, "{name}: invalid window accepted");
                    assert!(
                        before.is_none(),
                        "{name}: present knob swallowed a bad value"
                    );
                }
            }
        }
    }
    // A hybrid over a shallow hierarchy rejects a threshold no prediction
    // could ever reach.
    let shallow = ClpConfig {
        hierarchy_depth: 2,
        slow_threshold: CacheLevel::L2,
        ..ClpConfig::baseline()
    };
    let mut hybrid = build(&SimConfig::lva_clp(ApproximatorConfig::baseline(), shallow));
    assert!(
        hybrid
            .set(&Knob::ClpSlowThreshold(CacheLevel::Dram))
            .is_err(),
        "unreachable slow threshold accepted"
    );
    assert_eq!(
        read_back(&hybrid, Knob::ClpSlowThreshold(CacheLevel::Dram)),
        Some(Knob::ClpSlowThreshold(CacheLevel::L2)),
        "a rejected set still moved the threshold"
    );
}

#[test]
fn quiet_governor_is_invisible_for_every_mechanism() {
    // An unactuated governor run must be fingerprint-identical to
    // governor-off for every family: the epoch ladder starts at the
    // configured top rung, so a never-breached SLO means zero actuations,
    // and the `gv=[…]` fingerprint block only appears once an actuation
    // lands. Both ladders switched on at once must be just as quiet.
    let off = battery_fingerprints(2, Clone::clone);
    for (budget, slo) in [(None, Some(10.0)), (Some(1e4), Some(10.0))] {
        let on = quiet_governor_fingerprints(budget, slo);
        assert_eq!(
            off, on,
            "a quiet governor (budget {budget:?}, SLO {slo:?}) perturbed a mechanism"
        );
    }
}

#[test]
fn predictor_suffix_appears_only_for_predictor_mechanisms() {
    // The conditional `clp=[…]` fingerprint block is the cross-family
    // observability contract: present exactly when a level predictor ran.
    let workloads = registry(WorkloadScale::Test);
    for (name, cfg) in mechanisms() {
        let has_predictor = matches!(name, "clp" | "lva+clp");
        for w in &workloads {
            let fp = w.execute(&cfg).stats.fingerprint();
            assert_eq!(
                fp.contains("clp=["),
                has_predictor,
                "{name}/{}: unexpected fingerprint shape: {fp}",
                w.name()
            );
        }
    }
}
