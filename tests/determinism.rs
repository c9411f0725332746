//! Determinism suite: the parallel sweep engine must produce byte-identical
//! statistics regardless of worker count, and workload kernels must be
//! reproducible from their seed. These tests are what lets every figure
//! bench fan out across threads without perturbing the paper's numbers.

use lva::core::{ApproximatorConfig, ClpConfig, ConfidenceWindow, LvpConfig, Pc, ValueType};
use lva::sim::sweep::{run_sweep, SweepOptions, SweepRun};
use lva::sim::{FaultConfig, MechanismKind, Phase1Stats, SimConfig, SimHarness, SweepSpec};
use lva::workloads::{registry, registry_seeded, run_grid, WorkloadRun, WorkloadScale};

/// A small but non-trivial grid: several mechanisms x value delays, crossed
/// with every workload in the registry at test scale.
fn fixed_grid() -> Vec<SimConfig> {
    let mut configs = SweepSpec::new()
        .degrees(&[0, 4])
        .value_delays(&[4, 16])
        .build();
    configs.push(SimConfig {
        mechanism: MechanismKind::Precise,
        ..SimConfig::default()
    });
    configs.push(SimConfig::lvp(lva::core::LvpConfig::baseline()));
    configs
}

/// Runs `configs` on every workload in the registry at test scale through
/// the grid evaluator on `workers` threads; runs config-major.
fn grid_sweep(configs: &[SimConfig], workers: usize) -> SweepRun<WorkloadRun> {
    let options = SweepOptions {
        workers: Some(workers),
        progress: false,
    };
    run_grid(configs, &registry(WorkloadScale::Test), &options)
}

/// One canonical fingerprint string per run.
fn fingerprints(runs: &[WorkloadRun]) -> Vec<String> {
    runs.iter().map(|run| run.stats.fingerprint()).collect()
}

/// Runs the full (config x workload) grid with a given worker count and
/// returns one canonical fingerprint string per point, in grid order.
fn grid_fingerprints(workers: usize) -> Vec<String> {
    fingerprints(&grid_sweep(&fixed_grid(), workers).into_values())
}

/// All 25 (mechanism, parameter) points behind Figs. 4, 6, 7 and 8, plus
/// the precise baseline — the exact grid whose statistics the paper's
/// plots are built from.
fn figure_configs() -> Vec<(&'static str, SimConfig)> {
    let mut v: Vec<(&'static str, SimConfig)> = Vec::new();
    for (name, g) in [
        ("fig4/lvp-ghb0", 0usize),
        ("fig4/lvp-ghb1", 1),
        ("fig4/lvp-ghb2", 2),
        ("fig4/lvp-ghb4", 4),
    ] {
        v.push((name, SimConfig::lvp(LvpConfig::with_ghb(g))));
    }
    for (name, g) in [
        ("fig4/lva-ghb0", 0usize),
        ("fig4/lva-ghb1", 1),
        ("fig4/lva-ghb2", 2),
        ("fig4/lva-ghb4", 4),
    ] {
        v.push((name, SimConfig::lva(ApproximatorConfig::with_ghb(g))));
    }
    for (name, w) in [
        ("fig6/lva-win05", ConfidenceWindow::Relative(0.05)),
        ("fig6/lva-win10", ConfidenceWindow::Relative(0.10)),
        ("fig6/lva-win20", ConfidenceWindow::Relative(0.20)),
        ("fig6/lva-wininf", ConfidenceWindow::Infinite),
    ] {
        v.push((
            name,
            SimConfig::lva(ApproximatorConfig::with_confidence_window(w)),
        ));
    }
    for (name, d) in [
        ("fig7/delay4", 4u64),
        ("fig7/delay8", 8),
        ("fig7/delay16", 16),
        ("fig7/delay32", 32),
    ] {
        v.push((name, SimConfig::baseline_lva().with_value_delay(d)));
    }
    for (pname, aname, d) in [
        ("fig8/prefetch2", "fig8/approx2", 2u32),
        ("fig8/prefetch4", "fig8/approx4", 4),
        ("fig8/prefetch8", "fig8/approx8", 8),
        ("fig8/prefetch16", "fig8/approx16", 16),
    ] {
        v.push((pname, SimConfig::prefetch(d)));
        v.push((aname, SimConfig::lva(ApproximatorConfig::with_degree(d))));
    }
    v.push(("precise", SimConfig::precise()));
    v
}

/// The 25 figure points re-run under the level-predictor family: every
/// LVA point becomes the `lva+clp` hybrid (same approximator, baseline
/// predictor), every other mechanism becomes standalone `clp` at the
/// same value delay. Together the two spellings cover both new
/// `MechanismKind` variants over the full figure parameter space.
fn clp_figure_configs() -> Vec<(String, SimConfig)> {
    figure_configs()
        .into_iter()
        .map(|(name, cfg)| match cfg.mechanism.clone() {
            MechanismKind::Lva(a) => (
                format!("lva+clp/{name}"),
                SimConfig {
                    mechanism: MechanismKind::LvaClp(a, ClpConfig::baseline()),
                    ..cfg
                },
            ),
            _ => (
                format!("clp/{name}"),
                SimConfig {
                    mechanism: MechanismKind::Clp(ClpConfig::baseline()),
                    ..cfg
                },
            ),
        })
        .collect()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a64 hash `h` over `bytes`, so a long stream can be
/// hashed piece by piece.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `configs` on the test-scale registry under 1, 2 and 8 sweep
/// workers and checks each config's FNV-1a64 of `<name>:<fingerprint>`
/// over the seven workloads against its entry in `goldens`. `check` sees
/// each config's seven runs first.
fn assert_pinned_across_worker_counts<N: AsRef<str>>(
    configs: &[(N, SimConfig)],
    goldens: &[(&str, u64)],
    check: impl Fn(&str, &[WorkloadRun]),
) {
    assert_eq!(configs.len(), goldens.len(), "golden table out of sync");
    let grid: Vec<SimConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
    for workers in [1usize, 2, 8] {
        let runs = grid_sweep(&grid, workers).into_values();
        let chunks = runs.chunks(runs.len() / grid.len());
        for (((name, _), &(golden_name, golden)), chunk) in configs.iter().zip(goldens).zip(chunks)
        {
            let name = name.as_ref();
            assert_eq!(name, golden_name, "golden table out of sync");
            check(name, chunk);
            let pieces: String = chunk
                .iter()
                .map(|run| format!("{}:{}", run.name, run.stats.fingerprint()))
                .collect();
            let hash = fnv1a64(pieces.as_bytes());
            assert_eq!(
                hash, golden,
                "{name}: fingerprints diverged (workers={workers}); captured hash {hash:#018x}"
            );
        }
    }
}

/// FNV-1a64 of `<name>:<fingerprint>` over all 7 workloads (test scale,
/// registry order), per figure configuration — captured on the commit
/// *before* the load-pipeline fast-path rework (Vec pending queue +
/// HashSet in-flight set). The rework must reproduce them bit for bit.
const GOLDEN_FINGERPRINT_HASHES: [(&str, u64); 25] = [
    ("fig4/lvp-ghb0", 0x766ffafec614658e),
    ("fig4/lvp-ghb1", 0x342a3221609fc706),
    ("fig4/lvp-ghb2", 0x7e8f84b67b85eb59),
    ("fig4/lvp-ghb4", 0x8407c1d72b465fd5),
    ("fig4/lva-ghb0", 0xbbb7b57afbefafb6),
    ("fig4/lva-ghb1", 0x493d7f0d81d809b4),
    ("fig4/lva-ghb2", 0x287f561d54ca85b6),
    ("fig4/lva-ghb4", 0xc93318a2136210d6),
    ("fig6/lva-win05", 0x0d81a1c533cfaf78),
    ("fig6/lva-win10", 0xd1226ab8ad4596ce),
    ("fig6/lva-win20", 0x9ac39bf4d705169b),
    ("fig6/lva-wininf", 0xea389e44b0799e5c),
    ("fig7/delay4", 0xbbb7b57afbefafb6),
    ("fig7/delay8", 0x9b9f87b5224f6eb3),
    ("fig7/delay16", 0xcf2f031bb525529c),
    ("fig7/delay32", 0xf80fde105f3d7870),
    ("fig8/prefetch2", 0x7079ffc1ba1d648f),
    ("fig8/approx2", 0xdc4fa997cbb455d4),
    ("fig8/prefetch4", 0xe3c7e7eb47ff9d7e),
    ("fig8/approx4", 0xe1e4b93b5e995386),
    ("fig8/prefetch8", 0x1ce83dfda6de40d5),
    ("fig8/approx8", 0x65a6a4acfa05644b),
    ("fig8/prefetch16", 0x6cc3a53cf9d51e34),
    ("fig8/approx16", 0x4410bd5209d27725),
    ("precise", 0x034e86a36702b401),
];

#[test]
fn figure_fingerprints_match_pre_rework_goldens_across_worker_counts() {
    // The hard correctness bar for the fast-path rework: every fig4/6/7/8
    // configuration must produce byte-identical `Phase1Stats::fingerprint`
    // strings to the pre-rework pending-queue implementation, under every
    // worker count. The hashes above were captured on the old code.
    assert_pinned_across_worker_counts(&figure_configs(), &GOLDEN_FINGERPRINT_HASHES, |_, _| {});
}

/// FNV-1a64 of `<name>:<fingerprint>` over all 7 workloads (test scale,
/// registry order) for every [`clp_figure_configs`] point — captured when
/// the cache-level predictor family landed. Non-LVA figure points map to
/// the same standalone-clp configuration, so their hashes legitimately
/// repeat; what matters is that every one of them is pinned.
const GOLDEN_CLP_FINGERPRINT_HASHES: [(&str, u64); 25] = [
    ("clp/fig4/lvp-ghb0", 0xcbe1c20119733aaa),
    ("clp/fig4/lvp-ghb1", 0xcbe1c20119733aaa),
    ("clp/fig4/lvp-ghb2", 0xcbe1c20119733aaa),
    ("clp/fig4/lvp-ghb4", 0xcbe1c20119733aaa),
    ("lva+clp/fig4/lva-ghb0", 0x7015ea468ee94286),
    ("lva+clp/fig4/lva-ghb1", 0x2bf14cb888f669a9),
    ("lva+clp/fig4/lva-ghb2", 0xef9593e45dfd62c4),
    ("lva+clp/fig4/lva-ghb4", 0x41555d1ecd438f72),
    ("lva+clp/fig6/lva-win05", 0x8ea670b676cae212),
    ("lva+clp/fig6/lva-win10", 0x734212e43d2a4d0a),
    ("lva+clp/fig6/lva-win20", 0xbfcabcc4b9b411c1),
    ("lva+clp/fig6/lva-wininf", 0x93d12330f9a7a77a),
    ("lva+clp/fig7/delay4", 0x7015ea468ee94286),
    ("lva+clp/fig7/delay8", 0x69b673c8973e7a04),
    ("lva+clp/fig7/delay16", 0x5c036e100f22bbcb),
    ("lva+clp/fig7/delay32", 0x3a3911e4a86b5656),
    ("clp/fig8/prefetch2", 0xcbe1c20119733aaa),
    ("lva+clp/fig8/approx2", 0x66261d957b84ec85),
    ("clp/fig8/prefetch4", 0xcbe1c20119733aaa),
    ("lva+clp/fig8/approx4", 0x9421898070d53fe8),
    ("clp/fig8/prefetch8", 0xcbe1c20119733aaa),
    ("lva+clp/fig8/approx8", 0x4e838f1a69d902de),
    ("clp/fig8/prefetch16", 0xcbe1c20119733aaa),
    ("lva+clp/fig8/approx16", 0x108f1a39e4344438),
    ("clp/precise", 0xcbe1c20119733aaa),
];

#[test]
fn clp_figure_fingerprints_are_pinned_across_worker_counts() {
    // The level-predictor counterpart of the golden-table test above:
    // every clp / lva+clp figure point must reproduce its pinned hash
    // under 1, 2 and 8 sweep workers. The predictor's table state is a
    // function of the per-thread miss stream alone, so worker scheduling
    // must not be able to leak into these.
    let configs = clp_figure_configs();
    assert_pinned_across_worker_counts(&configs, &GOLDEN_CLP_FINGERPRINT_HASHES, |_, _| {});
    // Named values behind two of the hashes' `clp=[…]` groups, so a
    // mismatch there says which counter moved.
    let blackscholes = &registry(WorkloadScale::Test)[0];
    assert_eq!(blackscholes.name(), "blackscholes");
    let config = |name: &str| &configs.iter().find(|(n, _)| n == name).expect(name).1;
    let t = blackscholes.execute(config("clp/precise")).stats.total;
    assert_eq!(
        [
            t.clp_predictions,
            t.clp_correct,
            t.clp_mispredicts,
            t.load_latency_cycles
        ],
        [987, 987, 0, 175_581],
        "blackscholes clp: [predictions, correct, mispredicts, load_latency_cycles]"
    );
    let t = blackscholes
        .execute(config("lva+clp/fig4/lva-ghb0"))
        .stats
        .total;
    assert_eq!(
        t.load_latency_cycles, 132_174,
        "blackscholes lva+clp: load_latency_cycles"
    );
}

/// Runs a synthetic kernel that keeps the maximum number of training
/// fetches in flight: every odd load opens a fresh block (miss -> possible
/// background fetch), every even load touches the same block again while
/// the fill is still outstanding (MSHR merge).
fn mshr_stress_fingerprint(cfg: &SimConfig) -> String {
    let mut h = SimHarness::new(cfg.clone());
    let base = h.alloc(64 * 2048, 64);
    for i in 0..2048u64 {
        h.memory_mut()
            .write_f32(base.offset(i * 64), (i % 5) as f32);
    }
    for i in 0..2048u64 {
        let _ = h.load(Pc(7), base.offset(i * 64), ValueType::F32, true);
        let _ = h.load(Pc(9), base.offset(i * 64 + 4), ValueType::F32, true);
    }
    let run = h.finish();
    assert!(run.stats.total.l1_hits > 0, "stress kernel must merge/hit");
    run.stats.fingerprint()
}

#[test]
fn random_value_delay_configs_replay_identically_at_mshr_capacity() {
    // Proptest-style loop: seeded random (value_delay, degree) draws, with
    // up to 96 training fetches in flight per thread, must replay
    // bit-for-bit and stay insensitive to harness-internal data structures.
    let mut rng = lva::core::Rng64::new(0x0d15_ea5e);
    for case in 0..12 {
        let delay = 1 + rng.gen_u64() % 96;
        let degree = (rng.gen_u64() % 5) as u32 * 4;
        let cfg = SimConfig::lva(ApproximatorConfig {
            degree,
            ..ApproximatorConfig::baseline()
        })
        .with_value_delay(delay);
        let first = mshr_stress_fingerprint(&cfg);
        let second = mshr_stress_fingerprint(&cfg);
        assert_eq!(
            first, second,
            "case {case}: value_delay={delay} degree={degree} not reproducible"
        );
    }
}

#[test]
fn sweep_is_identical_for_1_2_and_8_workers() {
    let base = grid_fingerprints(1);
    assert!(!base.is_empty());
    for workers in [2, 8] {
        let other = grid_fingerprints(workers);
        assert_eq!(
            base, other,
            "sweep results diverged between 1 and {workers} worker threads"
        );
    }
}

#[test]
fn sweep_outcomes_are_in_grid_order_with_8_workers() {
    // Uneven per-point cost so work-stealing actually reorders completion.
    let grid: Vec<u64> = (0..64).map(|i| (i * 37) % 64).collect();
    let options = SweepOptions {
        workers: Some(8),
        progress: false,
    };
    let sweep = run_sweep(&grid, &options, |_, &n| {
        let mut acc = 0u64;
        for i in 0..(n * 1000 + 1) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        (n, acc)
    });
    for (i, outcome) in sweep.outcomes.iter().enumerate() {
        assert_eq!(outcome.index, i);
        assert_eq!(outcome.value.0, grid[i]);
    }
}

#[test]
fn stats_equality_matches_fingerprint_equality() {
    let workloads = registry(WorkloadScale::Test);
    let cfg = SimConfig::lva(ApproximatorConfig::baseline());
    let a: Vec<Phase1Stats> = workloads.iter().map(|w| w.execute(&cfg).stats).collect();
    let b: Vec<Phase1Stats> = workloads.iter().map(|w| w.execute(&cfg).stats).collect();
    // Structural equality (PartialEq) and canonical-string equality agree.
    assert_eq!(a, b);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.fingerprint(), y.fingerprint());
    }
}

#[test]
fn kernels_are_reproducible_from_seed() {
    let cfg = SimConfig::lva(ApproximatorConfig::baseline());
    for seed in [1u64, 0xdead_beef] {
        let first: Vec<(String, String)> = registry_seeded(WorkloadScale::Test, seed)
            .iter()
            .map(|w| (w.name().to_owned(), w.execute(&cfg).stats.fingerprint()))
            .collect();
        let second: Vec<(String, String)> = registry_seeded(WorkloadScale::Test, seed)
            .iter()
            .map(|w| (w.name().to_owned(), w.execute(&cfg).stats.fingerprint()))
            .collect();
        assert_eq!(first, second, "same seed {seed} must replay identically");
    }
}

/// FNV-1a64 of each kernel's recorded instruction stream (test scale,
/// [`SimConfig::baseline_lva`] with traces on; registry order), for
/// seeds 0 and 3.
/// The statistics goldens pin counters; these pin every load's PC,
/// address, type and value and every store in program order, so a kernel
/// rewrite that issues the same counts in another order still fails. The
/// second seed matters for kernels whose access pattern depends on the
/// input, such as fluidanimate's cell occupancy.
const GOLDEN_TRACE_HASHES: [(&str, u64, u64); 14] = [
    ("blackscholes", 0, 0x2ef602505f1ede7f),
    ("bodytrack", 0, 0x9e2c9c168eb1633b),
    ("canneal", 0, 0x5db0f884e36fd50d),
    ("ferret", 0, 0xf0f55e846404f145),
    ("fluidanimate", 0, 0x8d94be027c2b2522),
    ("swaptions", 0, 0x941e9f433da442cf),
    ("x264", 0, 0xcad783a5e4df9417),
    ("blackscholes", 3, 0x56155e433ef271d0),
    ("bodytrack", 3, 0xf0db44005b55220b),
    ("canneal", 3, 0x237cf7e6213151ee),
    ("ferret", 3, 0xc3f3b3c9b23ffa85),
    ("fluidanimate", 3, 0x9d22975a13499e48),
    ("swaptions", 3, 0xba84156eefba2965),
    ("x264", 3, 0xdbce82329cd73583),
];

/// Hashes `traces` thread by thread: the thread's op count, then each op
/// as a tag byte and its fields in little-endian order.
fn trace_hash(traces: &[lva::cpu::ThreadTrace]) -> u64 {
    use lva::cpu::TraceOp;
    let mut h = fnv1a64(b"");
    let mut bytes = Vec::with_capacity(32);
    for trace in traces {
        h = fnv1a64_extend(h, &(trace.ops.len() as u64).to_le_bytes());
        for op in &trace.ops {
            bytes.clear();
            match *op {
                TraceOp::Compute(n) => {
                    bytes.push(b'C');
                    bytes.extend(n.to_le_bytes());
                }
                TraceOp::Load {
                    pc,
                    addr,
                    ty,
                    approx,
                    value,
                } => {
                    bytes.push(b'L');
                    bytes.extend(pc.0.to_le_bytes());
                    bytes.extend(addr.0.to_le_bytes());
                    bytes.push(ty as u8);
                    bytes.push(u8::from(approx));
                    bytes.extend(value.bits().to_le_bytes());
                }
                TraceOp::Store { pc, addr, ty } => {
                    bytes.push(b'S');
                    bytes.extend(pc.0.to_le_bytes());
                    bytes.extend(addr.0.to_le_bytes());
                    bytes.push(ty as u8);
                }
            }
            h = fnv1a64_extend(h, &bytes);
        }
    }
    h
}

#[test]
fn recorded_traces_are_pinned() {
    let cfg = SimConfig::baseline_lva().with_traces();
    let hashes: Vec<(&str, u64, u64)> = [0, 3]
        .into_iter()
        .flat_map(|seed| {
            registry_seeded(WorkloadScale::Test, seed)
                .iter()
                .map(|w| (w.name(), seed, trace_hash(&w.execute(&cfg).traces)))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(
        hashes, GOLDEN_TRACE_HASHES,
        "recorded traces diverged; captured hashes {hashes:#018x?}"
    );
}

#[test]
fn different_seeds_change_the_workload() {
    // Sanity check that the seed actually feeds the kernels: at least one
    // workload must produce different memory behaviour under a new seed.
    let cfg = SimConfig::lva(ApproximatorConfig::baseline());
    let a: Vec<String> = registry_seeded(WorkloadScale::Test, 1)
        .iter()
        .map(|w| w.execute(&cfg).stats.fingerprint())
        .collect();
    let b: Vec<String> = registry_seeded(WorkloadScale::Test, 2)
        .iter()
        .map(|w| w.execute(&cfg).stats.fingerprint())
        .collect();
    assert_ne!(a, b, "seeds 1 and 2 produced identical fingerprints");
}

#[test]
fn metrics_collection_never_perturbs_results() {
    // Observability must be write-only: a sweep that exports every stat
    // into a MetricsRegistry (per-point and engine-level) must leave the
    // canonical fingerprints byte-identical to a metrics-off run.
    use lva::obs::MetricsRegistry;
    let off = grid_fingerprints(4);
    let on = grid_sweep(&fixed_grid(), 4);
    for outcome in &on.outcomes {
        let mut registry = MetricsRegistry::new();
        outcome.value.stats.record_metrics(&mut registry, "phase1");
        outcome
            .value
            .precise_stats
            .record_metrics(&mut registry, "precise");
        assert!(
            registry.iter().next().is_some(),
            "metrics export produced nothing"
        );
    }
    // Exporting the engine's own profile must not touch outcomes either.
    let mut engine = MetricsRegistry::new();
    on.record_metrics(&mut engine);
    assert!(engine.iter().next().is_some());

    assert_eq!(
        off,
        fingerprints(&on.into_values()),
        "metrics collection changed simulation results"
    );
}

#[test]
fn event_tracing_never_perturbs_results() {
    // The tentpole invariant: per-load event tracing is strictly off the
    // deterministic path. The same grid run trace-off, with per-core ring
    // buffers, and with full per-PC attribution must produce byte-identical
    // canonical fingerprints — and the traced runs must actually collect.
    use lva::obs::{PcAttribution, TraceConfig};
    let traced = |trace: TraceConfig| {
        let configs: Vec<SimConfig> = fixed_grid()
            .into_iter()
            .map(|c| c.with_trace(trace.clone()))
            .collect();
        grid_sweep(&configs, 4).into_values()
    };
    let off = grid_fingerprints(4);

    let ring = traced(TraceConfig::ring(1024));
    for run in &ring {
        let events: usize = run.collectors.iter().map(|col| col.events().len()).sum();
        assert!(events > 0, "ring tracing collected nothing");
    }
    assert_eq!(
        off,
        fingerprints(&ring),
        "ring-buffer tracing changed simulation results"
    );

    let attributed = traced(TraceConfig::attribution());
    for run in &attributed {
        let mut merged = PcAttribution::new();
        for col in &run.collectors {
            if let Some(a) = col.attribution() {
                merged.merge(a);
            }
        }
        assert_eq!(
            merged.total_misses(),
            run.stats.total.raw_misses,
            "attribution must account for every miss"
        );
    }
    assert_eq!(
        off,
        fingerprints(&attributed),
        "attribution tracing changed simulation results"
    );
}

#[test]
fn sampled_tracing_never_perturbs_results() {
    // Sampling policies (every-Nth-miss, PC filters) gate what the sinks
    // *record*, never what the simulator computes.
    use lva::obs::TraceConfig;
    let cfg = SimConfig::lva(ApproximatorConfig::baseline());
    let workloads = registry(WorkloadScale::Test);
    for w in &workloads {
        let plain = w.execute(&cfg).stats.fingerprint();
        let sampled_cfg = cfg.clone().with_trace(
            TraceConfig::ring(256)
                .with_every_nth_miss(7)
                .with_pc_filter(&[0x1004]),
        );
        let sampled = w.execute(&sampled_cfg).stats.fingerprint();
        assert_eq!(plain, sampled, "{}: sampled tracing diverged", w.name());
    }
}

/// Robustness configurations: quality-budget degradation controller plus
/// seeded fault injection, exercising all three fault classes.
fn robustness_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        (
            "budget5/table",
            SimConfig::baseline_lva()
                .with_error_budget(0.05)
                .with_faults(FaultConfig::seeded(42).with_table_rate(1e-3)),
        ),
        (
            "budget1/drop-delay",
            SimConfig::baseline_lva()
                .with_error_budget(0.01)
                .with_faults(FaultConfig {
                    delay_rate: 0.05,
                    delay_extra: 16,
                    ..FaultConfig::seeded(7).with_drop_rate(0.02)
                }),
        ),
    ]
}

/// FNV-1a64 of `<name>:<fingerprint>` over all 7 workloads (test scale,
/// registry order) per robustness configuration — captured when the
/// degradation controller and fault injector first landed. The injector
/// derives its streams from `(seed, thread)` alone, so these must hold
/// under any sweep worker count.
const GOLDEN_ROBUSTNESS_HASHES: [(&str, u64); 2] = [
    ("budget5/table", 0x2defc721cbbf4f89),
    ("budget1/drop-delay", 0x7c133a2e527debde),
];

#[test]
fn fault_injection_fingerprints_are_pinned_across_worker_counts() {
    assert_pinned_across_worker_counts(&robustness_configs(), &GOLDEN_ROBUSTNESS_HASHES, |_, _| {});
}

#[test]
fn fault_injection_actually_fires() {
    // Guards the golden hashes above against vacuity: across the registry,
    // the table-fault configuration must inject corruptions and the
    // drop/delay one must lose drains and delay fetches. (Per-workload
    // counts can legitimately be zero at test scale — swaptions sees too
    // few train events for a 1e-3 rate to hit.)
    let configs = robustness_configs();
    let mut injected = 0u64;
    let mut dropped = 0u64;
    let mut delayed = 0u64;
    for w in registry(WorkloadScale::Test) {
        let t = w.execute(&configs[0].1).stats.total;
        injected += t.faults_injected;
        if w.name() == "blackscholes" {
            // Named values behind the `budget5/table` hash's `dg=[…]` group.
            assert_eq!(
                [t.demotions, t.disables, t.degrade_denied, t.degrade_forced, t.faults_injected],
                [16, 16, 224, 256, 3],
                "blackscholes budget5/table: [demotions, disables, denied, forced, faults_injected]"
            );
        }
        let t = w.execute(&configs[1].1).stats.total.clone();
        dropped += t.drains_dropped;
        delayed += t.fetches_delayed;
    }
    assert!(injected > 0, "no table faults fired anywhere");
    assert!(dropped > 0, "no training drains dropped anywhere");
    assert!(delayed > 0, "no fetches delayed anywhere");
}

#[test]
fn quiet_controller_is_fingerprint_identical_to_controller_off() {
    // The degradation controller must be invisible until it acts: with a
    // budget no relative error can reach (samples clamp at 1e3) and no
    // faults, every workload's fingerprint matches a controller-off run
    // byte for byte — including the absence of the `dg=[…]` suffix.
    let off = SimConfig::baseline_lva();
    let on = SimConfig::baseline_lva().with_error_budget(1e4);
    for w in registry(WorkloadScale::Test) {
        let a = w.execute(&off).stats.fingerprint();
        let b = w.execute(&on).stats.fingerprint();
        assert_eq!(a, b, "{}: quiet controller perturbed the run", w.name());
    }
}

/// Governed configurations: an actively-tightening closed loop (2% SLO,
/// short epochs so test-scale runs cross many of them), a quiet top-rung
/// observer that must never act, and the same 2% SLO beside a 5% per-PC
/// error budget so both quality ladders act on one run.
fn governed_configs() -> Vec<(&'static str, SimConfig)> {
    let govern2 = lva::sim::GovernorConfig {
        epoch_len: 200,
        min_samples: 8,
        ..lva::sim::GovernorConfig::slo(0.02)
    };
    let budget_govern2 = lva::sim::GovernorConfig {
        epoch_len: 200,
        ..lva::sim::GovernorConfig::slo(0.02)
    };
    vec![
        ("govern2", SimConfig::baseline_lva().with_govern(govern2)),
        (
            "govern-quiet",
            SimConfig::baseline_lva().with_govern_slo(10.0),
        ),
        (
            "budget5+govern2",
            SimConfig::baseline_lva()
                .with_error_budget(0.05)
                .with_govern(budget_govern2),
        ),
    ]
}

/// FNV-1a64 of `<name>:<fingerprint>` over all 7 workloads (test scale,
/// registry order) per governed configuration, captured when the
/// governor landed (`budget5+govern2`: captured before the per-PC budget
/// ladder moved into the governor). The epoch clock runs on each thread's
/// load clock, so these must hold under any sweep worker count.
const GOLDEN_GOVERNED_HASHES: [(&str, u64); 3] = [
    ("govern2", 0x6b7f1398fe41b267),
    ("govern-quiet", 0xbbb7b57afbefafb6),
    ("budget5+govern2", 0xbfe1e14cc6edc883),
];

#[test]
fn governed_fingerprints_are_pinned_across_worker_counts() {
    assert_pinned_across_worker_counts(
        &governed_configs(),
        &GOLDEN_GOVERNED_HASHES,
        |name, runs| {
            if name == "budget5+govern2" {
                // Non-vacuity: both ladders act on one run, so one thread
                // line carries both groups.
                assert!(
                    runs.iter().any(|run| run
                        .stats
                        .fingerprint()
                        .split(';')
                        .any(|line| line.contains(",dg=[") && line.contains(",gv=["))),
                    "{name}: the budget and the SLO never both acted on one thread"
                );
            }
        },
    );
}

#[test]
fn quiet_governor_is_fingerprint_identical_to_governor_off() {
    // The supervisory governor must be invisible until it acts: with an
    // SLO no training error can breach (samples clamp at 1e3), the ladder
    // never leaves its top rung and every workload's fingerprint matches
    // a governor-off run byte for byte — including the absence of the
    // `gv=[…]` suffix. The active `govern2` config above is the converse
    // guard: it must actuate somewhere, or the golden hashes are vacuous.
    let off = SimConfig::baseline_lva();
    let (_, quiet) = &governed_configs()[1];
    let (_, active) = &governed_configs()[0];
    let mut actuations = 0u64;
    for w in registry(WorkloadScale::Test) {
        let a = w.execute(&off).stats.fingerprint();
        let b = w.execute(quiet).stats.fingerprint();
        assert_eq!(a, b, "{}: quiet governor perturbed the run", w.name());
        let t = w.execute(active).stats.total;
        actuations += t.govern_actuations;
        if w.name() == "blackscholes" {
            // Named values behind the `govern2` hash's `gv=[…]` group.
            assert_eq!(
                [
                    t.govern_epochs,
                    t.govern_actuations,
                    t.govern_tightens,
                    t.govern_relaxes,
                    t.govern_reverts,
                    t.govern_disables,
                ],
                [89, 24, 12, 0, 0, 12],
                "blackscholes govern2: [epochs, actuations, tightens, relaxes, reverts, pc_disables]"
            );
        }
    }
    assert!(
        actuations > 0,
        "the active governor never actuated anywhere"
    );
}

#[test]
fn worker_count_env_override_is_respected() {
    // worker_count(explicit) must prefer the explicit value over the env.
    assert_eq!(lva::sim::worker_count(Some(3)), 3);
    assert!(lva::sim::worker_count(None) >= 1);
}

#[test]
fn timeline_sampling_never_perturbs_results() {
    // Epoch sampling must be write-only, exactly like metrics and traces:
    // the 25 figure points re-run with a load-clock timeline attached must
    // reproduce the pinned pre-rework golden hashes under every worker
    // count — and actually collect frames while doing so.
    use lva::obs::TimelineConfig;
    let configs: Vec<(&str, SimConfig)> = figure_configs()
        .into_iter()
        .map(|(name, c)| (name, c.with_timeline(TimelineConfig::every(512))))
        .collect();
    assert_pinned_across_worker_counts(&configs, &GOLDEN_FINGERPRINT_HASHES, |name, runs| {
        for run in runs {
            assert!(
                run.timelines.iter().any(|tl| !tl.is_empty()),
                "{name}: timeline sampling collected nothing"
            );
        }
    });
}

#[test]
fn fullsystem_timeline_never_perturbs_results() {
    // The cycle-domain counterpart: a full-system replay with epoch
    // sampling attached must produce statistics identical to a plain run,
    // and the frames must decompose the run exactly (deltas sum to the
    // end-of-run aggregates).
    use lva::core::ApproximatorConfig;
    use lva::obs::TimelineConfig;
    use lva::sim::{FullSystem, FullSystemConfig, MechanismKind};
    for w in registry(WorkloadScale::Test) {
        let recorded = w.execute(&SimConfig::precise().with_traces());
        let mech = MechanismKind::Lva(ApproximatorConfig::baseline());
        let plain = FullSystem::new(
            FullSystemConfig::paper(mech.clone()),
            recorded.traces.clone(),
        )
        .run()
        .expect("plain replay converges");
        let mut sampled_cfg = FullSystemConfig::paper(mech);
        sampled_cfg.timeline = Some(TimelineConfig::every(4096));
        let (sampled, timeline) = FullSystem::new(sampled_cfg, recorded.traces)
            .run_with_timeline()
            .expect("sampled replay converges");
        assert_eq!(
            plain,
            sampled,
            "{}: timeline perturbed the replay",
            w.name()
        );
        assert!(!timeline.is_empty(), "{}: no frames collected", w.name());
        assert_eq!(
            timeline.sum_counter("fs/cycles"),
            sampled.cycles,
            "{}",
            w.name()
        );
        assert_eq!(
            timeline.sum_counter("fs/instructions"),
            sampled.instructions,
            "{}",
            w.name()
        );
    }
}

/// FNV-1a64 over every timeline frame's compact JSON, one hash per
/// test-scale seed-0 workload, for an LVA replay sampled every 4096
/// cycles. Pins the mid-run frames themselves, not only their delta sums:
/// a core whose counters lag at an epoch boundary shifts work between
/// frames without changing any total. Ferret is the replay whose banks
/// retry the most requests on a busy block.
const GOLDEN_FULLSYSTEM_TIMELINES: [(&str, usize, u64); 3] = [
    ("blackscholes", 18, 0xa61d379d65e8c839),
    ("canneal", 138, 0x9723d424be47afef),
    ("ferret", 18, 0x8b58fae77534019d),
];

#[test]
fn fullsystem_timeline_frames_are_pinned() {
    use lva::obs::TimelineConfig;
    use lva::sim::{FullSystem, FullSystemConfig};
    let workloads = registry(WorkloadScale::Test);
    for (name, frames, golden) in GOLDEN_FULLSYSTEM_TIMELINES {
        let w = workloads
            .iter()
            .find(|w| w.name() == name)
            .expect("workload in the registry");
        let traces = w.execute(&SimConfig::precise().with_traces()).traces;
        let mut cfg = FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()));
        cfg.timeline = Some(TimelineConfig::every(4096));
        let (_, timeline) = FullSystem::new(cfg, traces)
            .run_with_timeline()
            .expect("sampled replay converges");
        let text: String = timeline
            .frames
            .iter()
            .map(|f| f.to_json().to_string_compact())
            .collect();
        let hash = fnv1a64(text.as_bytes());
        assert_eq!(timeline.len(), frames, "{name}: frame count");
        assert_eq!(
            hash, golden,
            "{name}: timeline frames diverged; captured hash {hash:#018x}"
        );
    }
}

/// Full-system configurations pinned by [`GOLDEN_FULLSYSTEM_HASHES`]:
/// plain LVA, LVA under a 5% error budget (alone and beside a 2% SLO),
/// LVA under an actively-tightening governor, a governor beside a precise
/// machine (which builds no governor at all), MESI, training on a
/// low-power NoC plane, training fetches deprioritized by 200 cycles (sent
/// in the future), a 2-wide core with an 8-entry ROB, whose head stalls on
/// a full ROB, and plain LVA over the [`coherence_stress_traces`] instead
/// of the workloads' traces.
fn fullsystem_configs() -> Vec<(&'static str, lva::sim::FullSystemConfig)> {
    use lva::noc::LowPowerPlane;
    use lva::sim::{FullSystemConfig, GovernorConfig};
    let govern2 = GovernorConfig {
        epoch_len: 500,
        min_samples: 8,
        ..GovernorConfig::slo(0.02)
    };
    // The 5% budget beside a 2% SLO with the default sample floor.
    let budget5_govern2 = GovernorConfig {
        error_budget: Some(0.05),
        epoch_len: 500,
        ..GovernorConfig::slo(0.02)
    };
    let lva = MechanismKind::Lva(ApproximatorConfig::baseline());
    let paper = |mechanism: &MechanismKind| FullSystemConfig::paper(mechanism.clone());
    let governed = |mechanism: &MechanismKind, govern| {
        let mut cfg = paper(mechanism);
        cfg.govern = Some(govern);
        cfg
    };
    vec![
        ("lva", paper(&lva)),
        ("lva+budget5", paper(&lva).with_error_budget(0.05)),
        ("lva+budget5+govern2", governed(&lva, budget5_govern2)),
        ("lva+govern2", governed(&lva, govern2)),
        (
            "precise+govern2",
            governed(&MechanismKind::Precise, govern2),
        ),
        ("lva+mesi", paper(&lva).with_mesi()),
        (
            "lva+hetero",
            paper(&lva).with_hetero_noc(LowPowerPlane::default()),
        ),
        (
            "lva+deprio200",
            paper(&lva).with_deprioritized_training(200),
        ),
        ("lva+w2rob8", paper(&lva).with_core_shape(2, 8)),
        ("coherence-stress", paper(&lva)),
    ]
}

/// Three seeded four-core trace sets that keep every bank busy at once.
/// Each core loads (half of them annotated) and stores at random into two
/// hot blocks homed on each bank, which all four cores share, and into 64
/// blocks per bank that fall in one L1 set and one L2 set. The hot blocks
/// queue requests behind open transactions and draw forwards and
/// invalidations; the set-conflicting blocks evict dirty lines from the
/// L1s and the L2 banks and refill from DRAM. With four cores issuing
/// together, these coincide in one cycle across banks.
fn coherence_stress_traces() -> Vec<(String, Vec<lva::cpu::ThreadTrace>)> {
    use lva::core::{Addr, Rng64, Value, ValueType};
    use lva::cpu::ThreadTrace;
    (0..3u64)
        .map(|seed| {
            let traces = (0..4u64)
                .map(|core| {
                    let mut rng = Rng64::new(0x5354_5245_5353 ^ (seed << 8) ^ core);
                    let mut t = ThreadTrace::new();
                    for _ in 0..1200 {
                        let bank = rng.gen_range(0u64..4);
                        let block = if rng.gen_bool(0.25) {
                            0x1000 + bank + 4 * rng.gen_range(0u64..2)
                        } else {
                            0x4000 + 16 + bank + 128 * rng.gen_range(0u64..128)
                        };
                        let addr = Addr(block * 64 + 4 * rng.gen_range(0u64..16));
                        let pc = Pc(0x400 + 4 * bank);
                        if rng.gen_bool(0.4) {
                            let value = Value::from_f32(rng.gen_range(0u64..4) as f32);
                            t.push_load(pc, addr, ValueType::F32, rng.gen_bool(0.5), value);
                        } else {
                            t.push_store(pc, addr, ValueType::F32);
                        }
                        if rng.gen_bool(0.3) {
                            t.push_compute(rng.gen_range(1u32..6));
                        }
                    }
                    t
                })
                .collect();
            (format!("stress{seed}"), traces)
        })
        .collect()
}

/// FNV-1a64 of `<name>:<FullSystemStats debug>` over the seven test-scale
/// precise traces (registry order) per full-system configuration, captured
/// before the phase-1 harness and the full-system memory system shared one
/// miss pipeline (the last four rows: before the cycle loop jumped from
/// event to event). The three governed LVA rows were re-pinned when each
/// governor began handing back one report — the ladders' end state plus
/// the budget ladder's per-PC entries, its counters left to the stats —
/// which gave the budget-only row one report per L1; every other field of
/// those rows hashes as before.
const GOLDEN_FULLSYSTEM_HASHES: [(&str, u64); 10] = [
    ("lva", 0xb48eedbaf8e7295a),
    ("lva+budget5", 0x469281cad01a0b4b),
    ("lva+budget5+govern2", 0xbbe7b9cbde86dc17),
    ("lva+govern2", 0xf09896110ba9ced0),
    ("precise+govern2", 0xabd0f3eb44874d52),
    ("lva+mesi", 0x90ec88ee6ed1a46c),
    ("lva+hetero", 0x7447b6ca6bf3cc01),
    ("lva+deprio200", 0x017c2ba2726f9e79),
    ("lva+w2rob8", 0x571803bea72d12cb),
    ("coherence-stress", 0x0854206259c6cab2),
];

#[test]
fn fullsystem_replays_are_pinned() {
    use lva::sim::sweep::run_fullsystem_grid;
    let recorded: Vec<_> = registry(WorkloadScale::Test)
        .iter()
        .map(|w| {
            let traces = w.execute(&SimConfig::precise().with_traces()).traces;
            (w.name().to_owned(), traces)
        })
        .collect();
    let stress = coherence_stress_traces();
    let (names, configs): (Vec<_>, Vec<_>) = fullsystem_configs().into_iter().unzip();
    assert_eq!(
        names,
        GOLDEN_FULLSYSTEM_HASHES.map(|(name, _)| name),
        "golden table out of sync"
    );
    // The last row replays the stress trace sets, every other row the
    // workloads' traces: one grid each.
    let (kernel_configs, stress_configs) = configs.split_at(configs.len() - 1);
    for workers in [1, 8] {
        let options = SweepOptions {
            workers: Some(workers),
            progress: false,
        };
        let rows = [(kernel_configs, &recorded), (stress_configs, &stress)]
            .into_iter()
            .flat_map(|(configs, inputs)| {
                let trace_sets: Vec<_> = inputs.iter().map(|(_, t)| t.clone()).collect();
                let values = run_fullsystem_grid(configs, &trace_sets, &options).into_values();
                let rows: Vec<_> = values.chunks(inputs.len()).map(<[_]>::to_vec).collect();
                rows.into_iter().map(move |runs| (inputs, runs))
            });
        for ((name, golden), (inputs, runs)) in GOLDEN_FULLSYSTEM_HASHES.into_iter().zip(rows) {
            let text: String = inputs
                .iter()
                .zip(&runs)
                .map(|((label, _), s)| format!("{label}:{s:?}"))
                .collect();
            assert_eq!(
                fnv1a64(text.as_bytes()),
                golden,
                "{name} at {workers} workers: full-system statistics diverged; \
                 captured hash {:#018x}",
                fnv1a64(text.as_bytes())
            );
            // Non-vacuity: each controller must actually act (runs[0] is
            // blackscholes, runs[1] bodytrack), and a precise machine must
            // build no governor.
            match name {
                "lva+budget5" => {
                    assert_eq!(
                        (runs[0].demotions, runs[0].degrade_denied),
                        (16, 224),
                        "{name}"
                    );
                }
                "lva+budget5+govern2" => {
                    assert!(
                        runs.iter()
                            .any(|s| s.demotions > 0 && s.govern_actuations > 0),
                        "{name}: the budget and the SLO never both acted on one replay"
                    );
                }
                "lva+govern2" => {
                    assert_eq!(runs[1].govern_actuations, 27, "{name}");
                }
                "precise+govern2" => {
                    assert!(runs
                        .iter()
                        .all(|s| s.govern.is_empty() && s.govern_epochs == 0));
                }
                "lva+hetero" => {
                    assert!(
                        runs.iter().any(|s| s.energy.noc_low_power_flit_hops > 0),
                        "{name}: no training traffic rode the low-power plane"
                    );
                }
                "lva+w2rob8" => {
                    assert!(
                        runs.iter().any(|s| s.head_stall_cycles > 0),
                        "{name}: no replay stalled on its ROB head"
                    );
                }
                "coherence-stress" => {
                    for s in &runs {
                        assert!(s.head_stall_cycles > 0, "{name}: no head stall");
                        assert!(s.approximated > 0, "{name}: nothing approximated");
                        // A fill that serves a request counts once in each;
                        // the excess DRAM accesses are dirty L2 victims.
                        assert!(
                            s.dram_accesses > s.l2_data_blocks,
                            "{name}: no dirty L2 victim went back to DRAM"
                        );
                    }
                }
                _ => {}
            }
        }
    }
}
