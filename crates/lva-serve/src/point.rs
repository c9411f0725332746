//! What a client asks for: one sweep point, and the manifest it gets
//! back.
//!
//! A [`PointSpec`] is `(workload, scale, seed, SimConfig)` — exactly the
//! coordinates `lva-explore sweep` crosses into its grids. Its wire form
//! ([`PointSpec::to_json`] / [`PointSpec::from_json`]) carries the config
//! through `lva-sim`'s one codec ([`SimConfig::to_json`] /
//! [`SimConfig::from_json`]), which spells every field that can change a
//! result, so any valid config crosses the wire unchanged. The decoder
//! rejects a wrongly typed field, an integer above 2^53 − 1 and an invalid
//! config instead of reading a default or a rounded neighbour; the
//! fingerprint hashes the same codec's text of the *decoded* config, so
//! two distinct points never share a key.
//!
//! [`point_record`] builds the response manifest. It is a deterministic
//! function of the spec and the simulation result — no wall-clock stats,
//! no host info — which is what lets the cache serve stored bytes as if
//! they were freshly computed: a cache hit and a recompute are
//! *byte-identical*.

use crate::fingerprint::{parse_scale, point_fingerprint, scale_label};
use lva_obs::{Json, MetricsRegistry, RunRecord};
use lva_sim::codec::MAX_EXACT;
use lva_sim::SimConfig;
use lva_workloads::{util::THREADS, workload_seeded, Workload, WorkloadRun, WorkloadScale};

/// One requested sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Benchmark name as known to the workload registry.
    pub workload: String,
    /// Input scale.
    pub scale: WorkloadScale,
    /// Workload-registry seed (the paper's run-averaging axis).
    pub seed: u64,
    /// The validated simulation configuration.
    pub config: SimConfig,
}

impl PointSpec {
    /// A point at the given coordinates.
    #[must_use]
    pub fn new(
        workload: impl Into<String>,
        scale: WorkloadScale,
        seed: u64,
        config: SimConfig,
    ) -> Self {
        PointSpec {
            workload: workload.into(),
            scale,
            seed,
            config,
        }
    }

    /// Content address of this point (see [`crate::fingerprint`]).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        point_fingerprint(&self.workload, self.scale, self.seed, &self.config)
    }

    /// Wire form of the point.
    ///
    /// # Errors
    ///
    /// Returns a message when the seed is above 2^53 − 1: a JSON number
    /// cannot carry it exactly.
    pub fn to_json(&self) -> Result<Json, String> {
        if self.seed > MAX_EXACT {
            return Err(format!("seed {} is not exact as a JSON number", self.seed));
        }
        Ok(Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("scale".into(), Json::Str(scale_label(self.scale).into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("config".into(), self.config.to_json()),
        ]))
    }

    /// Parses the wire form, validating the decoded configuration.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed object, an unknown scale, a seed
    /// that is not an integer in [0, 2^53), or whatever
    /// [`SimConfig::from_json`] rejects.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("point missing string 'workload'")?
            .to_owned();
        let scale = parse_scale(
            json.get("scale")
                .and_then(Json::as_str)
                .ok_or("point missing string 'scale'")?,
        )?;
        let seed = match json.get("seed") {
            None => 0,
            Some(v) => v
                .as_f64()
                .filter(|n| (0.0..=MAX_EXACT as f64).contains(n) && n.fract() == 0.0)
                .ok_or("'seed' must be an integer in [0, 2^53)")? as u64,
        };
        let config =
            SimConfig::from_json(json.get("config").ok_or("point missing object 'config'")?)?;
        Ok(PointSpec {
            workload,
            scale,
            seed,
            config,
        })
    }
}

/// Builds the manifest a point's evaluation answers with: headline
/// normalized figures plus the full phase-1 stat dumps of the
/// approximate and precise runs.
///
/// Deliberately deterministic — no `time/` or `env/` stats — so that a
/// manifest recomputed on any host, any day, is byte-identical to the
/// cached one and the CI smoke job can compare them with `cmp`.
#[must_use]
pub fn point_record(spec: &PointSpec, run: &WorkloadRun) -> RunRecord {
    let mut record = RunRecord::new(format!(
        "point-{}-{:016x}",
        spec.workload,
        spec.fingerprint()
    ));
    record.set_meta("workload", spec.workload.clone());
    record.set_meta("scale", scale_label(spec.scale));
    record.set_meta("seed", spec.seed.to_string());
    record.set_meta("mechanism", spec.config.mechanism.label());
    record.set_meta("value_delay", spec.config.value_delay.to_string());
    record.set_meta("fingerprint", format!("{:016x}", spec.fingerprint()));

    record.push_stat("summary/norm_mpki", run.normalized_mpki());
    record.push_stat("summary/norm_fetches", run.normalized_fetches());
    record.push_stat("summary/output_error", run.output_error);

    let mut registry = MetricsRegistry::new();
    run.stats.record_metrics(&mut registry, "phase1");
    run.precise_stats.record_metrics(&mut registry, "precise");
    record.absorb_registry(&registry);
    record
}

/// Evaluates one point from scratch: resolve the workload, run it under
/// the spec's config (precise reference included), render the manifest.
/// Memo-free on purpose: this is the reference implementation the
/// scheduler's memoized evaluator (see [`Scheduler::new`]) and the
/// integration tests compare served results against.
///
/// [`Scheduler::new`]: crate::Scheduler::new
///
/// # Errors
///
/// Returns a message for an unknown workload or an invalid config.
pub fn evaluate_point(spec: &PointSpec) -> Result<String, String> {
    let run = resolve_point(spec)?.execute(&spec.config);
    Ok(point_record(spec, &run).to_string_pretty())
}

/// Validates `spec`'s config and builds its one kernel.
pub(crate) fn resolve_point(spec: &PointSpec) -> Result<Box<dyn Workload>, String> {
    spec.config
        .validate()
        .map_err(|e| format!("invalid config: {e}"))?;
    if spec.config.threads < THREADS {
        return Err(format!(
            "invalid config: the workloads run {THREADS} threads, the config has {}",
            spec.config.threads
        ));
    }
    workload_seeded(spec.scale, spec.seed, &spec.workload)
        .ok_or_else(|| format!("unknown workload {}", spec.workload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::{
        ApproximatorConfig, CacheLevel, ClpConfig, ComputeFn, ConfidenceUpdate, ConfidenceWindow,
        HashKind, LvpConfig, PrefetcherConfig, RealisticLvpConfig, Rng64,
    };
    use lva_sim::{FaultConfig, GovernorConfig, MechanismKind, SweepSpec};
    use std::collections::HashMap;

    fn round_trip(spec: &PointSpec) -> PointSpec {
        let json = spec.to_json().expect("encodes");
        // Through the wire text, not just the value model.
        let text = json.to_string_compact();
        PointSpec::from_json(&lva_obs::parse_json(&text).unwrap()).expect("decodes")
    }

    /// The grid `sweep_grid_points_round_trip_exactly` ships.
    fn sweep_grid() -> Vec<SimConfig> {
        SweepSpec::new()
            .degrees(&[0, 4])
            .ghb_depths(&[0, 2])
            .confidence_windows(&[0.05])
            .value_delays(&[1, 16])
            .error_budgets(&[0.05])
            .governor_slos(&[0.02])
            .mechanism(MechanismKind::Precise)
            .clp_tables(&[256])
            .try_build()
            .unwrap()
    }

    #[test]
    fn sweep_grid_points_round_trip_exactly() {
        // Every point a CLI-shaped sweep grid can produce must survive
        // the wire unchanged — that is what makes server results
        // interchangeable with direct `run_sweep` results.
        let grid = sweep_grid();
        assert!(grid.len() > 8);
        for config in grid {
            let spec = PointSpec::new("blackscholes", WorkloadScale::Test, 2, config);
            assert_eq!(round_trip(&spec), spec);
        }
    }

    #[test]
    fn hybrid_and_baseline_mechanisms_round_trip() {
        for config in [
            SimConfig::precise(),
            SimConfig::baseline_lva(),
            SimConfig::lvp(LvpConfig::with_ghb(2)),
            SimConfig::prefetch(4),
            SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
            SimConfig::realistic_lvp(),
            SimConfig::baseline_lva()
                .with_faults(FaultConfig::seeded(42).with_table_rate(1e-3))
                .with_govern(GovernorConfig {
                    epoch_len: 77,
                    ..GovernorConfig::slo(0.02)
                }),
        ] {
            let spec = PointSpec::new("swaptions", WorkloadScale::Small, 0, config);
            assert_eq!(round_trip(&spec), spec);
        }
    }

    /// Decodes each of `lines` and checks it against `configs`, in order.
    fn assert_decodes(lines: &[&str], configs: Vec<SimConfig>) {
        assert_eq!(lines.len(), configs.len());
        for (line, config) in lines.iter().zip(configs) {
            let json = lva_obs::parse_json(line).unwrap();
            assert_eq!(SimConfig::from_json(&json).as_ref(), Ok(&config), "{line}");
        }
    }

    /// The config lines the previous, partial wire encoder wrote for the
    /// grids in this file, `tests/serve.rs` and the CLI's `submit`
    /// (`--degrees 0,4`, with and without `--error-budgets 5
    /// --govern-slos 2`). Clients that still send them must get the same
    /// experiments.
    #[test]
    fn previous_wire_lines_decode_to_the_same_configs() {
        const LVA: &str =
            r#""lva":{"table":512,"lhb":4,"ghb":0,"degree":0,"window":0.1,"on_int":false}"#;
        const LVA4: &str =
            r#""lva":{"table":512,"lhb":4,"ghb":0,"degree":4,"window":0.1,"on_int":false}"#;
        const CLP: &str = r#""clp":{"table":512,"bits":4,"depth":4,"penalty":8,"slow":"llc"}"#;
        let grid: Vec<String> = [1, 16]
            .iter()
            .flat_map(|delay| {
                let lva = |ghb, degree| {
                    format!(
                        r#"{{"mechanism":"lva","value_delay":{delay},"lva":{{"table":512,"lhb":4,"ghb":{ghb},"degree":{degree},"window":0.05,"on_int":false}},"error_budget":0.05,"governor_slo":0.02}}"#
                    )
                };
                [
                    lva(0, 0),
                    lva(2, 0),
                    lva(0, 4),
                    lva(2, 4),
                    format!(r#"{{"mechanism":"precise","value_delay":{delay}}}"#),
                    format!(
                        r#"{{"mechanism":"clp","value_delay":{delay},"clp":{{"table":256,"bits":4,"depth":4,"penalty":8,"slow":"llc"}}}}"#
                    ),
                ]
            })
            .collect();
        assert_decodes(
            &grid.iter().map(String::as_str).collect::<Vec<_>>(),
            sweep_grid(),
        );

        let hybrid = SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline());
        let lines = [
            r#"{"mechanism":"precise","value_delay":4}"#.to_owned(),
            format!(r#"{{"mechanism":"lva","value_delay":4,{LVA}}}"#),
            r#"{"mechanism":"lvp","value_delay":4,"lvp":{"ghb":2}}"#.to_owned(),
            r#"{"mechanism":"prefetch","value_delay":4,"prefetch":{"degree":4}}"#.to_owned(),
            format!(r#"{{"mechanism":"lva+clp","value_delay":4,{LVA},{CLP}}}"#),
            r#"{"mechanism":"precise","value_delay":9}"#.to_owned(),
            format!(r#"{{"mechanism":"lva+clp","value_delay":9,{LVA},{CLP}}}"#),
            format!(r#"{{"mechanism":"lva","value_delay":9,{LVA},"error_budget":0.05}}"#),
            format!(r#"{{"mechanism":"lva","value_delay":9,{LVA},"governor_slo":0.02}}"#),
            format!(r#"{{"mechanism":"lva","value_delay":4,{LVA4}}}"#),
            format!(
                r#"{{"mechanism":"lva","value_delay":4,{LVA4},"error_budget":0.05,"governor_slo":0.02}}"#
            ),
        ];
        let lva4 = SimConfig::lva(ApproximatorConfig::with_degree(4));
        assert_decodes(
            &lines.iter().map(String::as_str).collect::<Vec<_>>(),
            vec![
                SimConfig::precise(),
                SimConfig::baseline_lva(),
                SimConfig::lvp(LvpConfig::with_ghb(2)),
                SimConfig::prefetch(4),
                hybrid.clone(),
                SimConfig::precise().with_value_delay(9),
                hybrid.with_value_delay(9),
                SimConfig::baseline_lva()
                    .with_value_delay(9)
                    .with_error_budget(0.05),
                SimConfig::baseline_lva()
                    .with_value_delay(9)
                    .with_govern_slo(0.02),
                lva4.clone(),
                lva4.with_error_budget(0.05).with_govern_slo(0.02),
            ],
        );
    }

    /// A random configuration over every codec field, result-neutral
    /// ones included; not necessarily valid.
    fn random_config(rng: &mut Rng64) -> SimConfig {
        fn pick<T: Copy>(rng: &mut Rng64, items: &[T]) -> T {
            items[rng.gen_range(0..items.len())]
        }
        // Small values, or any exact integer.
        fn int(rng: &mut Rng64, small: u64) -> u64 {
            if rng.gen_bool(0.8) {
                rng.gen_range(0..small)
            } else {
                rng.gen_u64() >> 11
            }
        }
        let table = |rng: &mut Rng64| 1usize << rng.gen_range(1..=14usize);
        let hash = |rng: &mut Rng64| pick(rng, &[HashKind::Xor, HashKind::FoldedXor]);
        let approximator = ApproximatorConfig {
            table_entries: table(rng),
            tag_bits: rng.gen_range(0..50u32),
            confidence_bits: rng.gen_range(2..17u32),
            confidence_window: match rng.gen_range(0..3u32) {
                0 => ConfidenceWindow::Exact,
                1 => ConfidenceWindow::Infinite,
                _ => ConfidenceWindow::Relative(rng.gen_f64() * 0.5),
            },
            confidence_on_int: rng.gen_bool(0.5),
            confidence_update: pick(
                rng,
                &[ConfidenceUpdate::Unit, ConfidenceUpdate::Proportional],
            ),
            ghb_entries: rng.gen_range(0..=8usize),
            lhb_entries: rng.gen_range(1..=8usize),
            compute: pick(
                rng,
                &[
                    ComputeFn::Average,
                    ComputeFn::LastValue,
                    ComputeFn::Stride,
                    ComputeFn::WeightedAverage,
                ],
            ),
            degree: rng.gen_range(0..32u32),
            mantissa_loss_bits: rng.gen_range(0..53u32),
            hash: hash(rng),
        };
        let clp = ClpConfig {
            table_entries: table(rng),
            confidence_bits: rng.gen_range(2..17u32),
            hierarchy_depth: rng.gen_range(2..5u32),
            mispredict_penalty: int(rng, 64),
            slow_threshold: pick(rng, &CacheLevel::ALL),
        };
        let mechanism = match rng.gen_range(0..7u32) {
            0 => MechanismKind::Precise,
            1 => MechanismKind::Lva(approximator),
            2 => MechanismKind::Lvp(LvpConfig {
                table_entries: table(rng),
                tag_bits: rng.gen_range(0..50u32),
                ghb_entries: rng.gen_range(0..=8usize),
                lhb_entries: rng.gen_range(1..=8usize),
                hash: hash(rng),
            }),
            3 => MechanismKind::RealisticLvp(RealisticLvpConfig {
                table_entries: table(rng),
                tag_bits: rng.gen_range(0..50u32),
                ghb_entries: rng.gen_range(0..=8usize),
                lhb_entries: rng.gen_range(1..=8usize),
                confidence_bits: rng.gen_range(2..17u32),
                prediction_threshold: rng.gen_range(-8..8i32),
                rollback_penalty_instructions: rng.gen_range(0..100u32),
                hash: hash(rng),
            }),
            4 => MechanismKind::Prefetch(PrefetcherConfig {
                ghb_entries: rng.gen_range(1..4096usize),
                index_entries: rng.gen_range(1..4096usize),
                degree: rng.gen_range(0..65u32),
                next_line: rng.gen_bool(0.5),
                correlation_depth: rng.gen_range(0..128usize),
            }),
            5 => MechanismKind::Clp(clp),
            _ => MechanismKind::LvaClp(approximator, clp),
        };
        let layer = |rng: &mut Rng64| rng.gen_bool(0.6).then(|| 0.001 + rng.gen_f64() * 0.2);
        let mut l1 = SimConfig::precise().l1;
        l1.ways = rng.gen_range(1..=16usize);
        l1.block_bytes = 1 << rng.gen_range(3..13u32);
        l1.size_bytes = (l1.ways as u64 * l1.block_bytes) << rng.gen_range(0..10u32);
        SimConfig {
            mechanism,
            value_delay: int(rng, 1000),
            threads: rng.gen_range(1..=16usize),
            l1,
            record_traces: rng.gen_bool(0.5),
            trace: if rng.gen_bool(0.5) {
                lva_obs::TraceConfig::ring(64)
            } else {
                lva_obs::TraceConfig::off()
            },
            faults: rng.gen_bool(0.5).then(|| FaultConfig {
                seed: int(rng, 100),
                table_rate: rng.gen_f64(),
                drop_rate: rng.gen_f64(),
                delay_rate: rng.gen_f64(),
                delay_extra: int(rng, 64),
            }),
            timeline: rng
                .gen_bool(0.5)
                .then(|| lva_obs::TimelineConfig::every(1 + int(rng, 1000))),
            govern: rng.gen_bool(0.6).then(|| GovernorConfig {
                slo_error: layer(rng),
                error_budget: layer(rng),
                epoch_len: 1 + int(rng, 5000),
                energy_weight: rng.gen_f64(),
                hysteresis_epochs: rng.gen_range(1..8u32),
                min_samples: 1 + int(rng, 64),
            }),
        }
    }

    #[test]
    fn random_valid_configs_round_trip_and_key_distinctly() {
        let mut rng = Rng64::new(0x00c0_dec5);
        let mut keys: HashMap<u64, SimConfig> = HashMap::new();
        let mut labels = std::collections::BTreeSet::new();
        let (mut faulted, mut budgeted, mut governed) = (0, 0, 0);
        for _ in 0..600 {
            let config = random_config(&mut rng);
            if config.validate().is_err() {
                continue;
            }
            let neutral = SimConfig {
                record_traces: false,
                trace: lva_obs::TraceConfig::off(),
                timeline: None,
                ..config.clone()
            };
            let text = config.to_json().to_string_compact();
            let decoded = SimConfig::from_json(&lva_obs::parse_json(&text).unwrap());
            assert_eq!(decoded.as_ref(), Ok(&neutral), "{text}");

            let key = point_fingerprint("canneal", WorkloadScale::Test, 0, &config);
            let earlier = keys.entry(key).or_insert_with(|| neutral.clone());
            assert_eq!(*earlier, neutral, "two configs share key {key:016x}");

            labels.insert(text.split('"').nth(3).unwrap_or_default().to_owned());
            faulted += usize::from(neutral.faults.is_some());
            let layers = neutral.govern.map_or((false, false), |g| {
                (g.error_budget.is_some(), g.slo_error.is_some())
            });
            budgeted += usize::from(layers.0);
            governed += usize::from(layers.1);
        }
        assert!(keys.len() > 200, "only {} valid configs", keys.len());
        assert_eq!(labels.len(), 7, "every mechanism kind: {labels:?}");
        assert!(faulted > 0 && budgeted > 0 && governed > 0);
    }

    #[test]
    fn decode_rejects_garbage() {
        for text in [
            r#"{"mechanism":"warp-drive"}"#,
            r#"{"value_delay":4}"#,
            r#"{"mechanism":"lva","value_delay":-3}"#,
            r#"{"mechanism":"clp","clp":{"slow":"l9"}}"#,
            // Wrongly typed fields are errors, not silently the default.
            r#"{"mechanism":"lva","lva":{"on_int":1}}"#,
            r#"{"mechanism":"clp","clp":{"slow":5}}"#,
            // Integers a JSON number cannot carry exactly would alias.
            r#"{"mechanism":"lva","value_delay":1e30}"#,
            r#"{"mechanism":"lva","value_delay":9007199254740992}"#,
            // Structures too large to allocate are refused before any
            // allocation, not aborted on.
            r#"{"mechanism":"lvp","lvp":{"ghb":4503599627370496}}"#,
            r#"{"mechanism":"lva","lva":{"ghb":4503599627370496}}"#,
            r#"{"mechanism":"clp","clp":{"table":4503599627370496}}"#,
            r#"{"mechanism":"lva","lva":{"lhb":4503599627370496}}"#,
        ] {
            let json = lva_obs::parse_json(text).unwrap();
            assert!(SimConfig::from_json(&json).is_err(), "{text}");
        }
        // `1e30` and `1e31` used to decode to the same saturated seed.
        for seed in ["1e30", "1e31", "9007199254740993"] {
            let text = format!(
                r#"{{"workload":"blackscholes","scale":"test","seed":{seed},
                    "config":{{"mechanism":"precise"}}}}"#
            );
            let json = lva_obs::parse_json(&text).unwrap();
            assert!(PointSpec::from_json(&json).is_err(), "seed {seed}");
        }
        // The encoder refuses what the decoder would refuse.
        let exact = PointSpec::new(
            "blackscholes",
            WorkloadScale::Test,
            MAX_EXACT,
            SimConfig::precise(),
        );
        assert_eq!(round_trip(&exact), exact);
        let inexact = PointSpec {
            seed: MAX_EXACT + 1,
            ..exact
        };
        assert!(inexact.to_json().is_err());
        // A decodable but invalid config is rejected at the spec layer.
        let bad = r#"{"workload":"blackscholes","scale":"test","seed":0,
                      "config":{"mechanism":"clp","clp":{"table":3}}}"#;
        let json = lva_obs::parse_json(bad).unwrap();
        let err = PointSpec::from_json(&json).unwrap_err();
        assert!(err.contains("invalid config"), "{err}");
    }

    #[test]
    fn point_record_is_deterministic_and_wall_clock_free() {
        let spec = PointSpec::new(
            "blackscholes",
            WorkloadScale::Test,
            0,
            SimConfig::baseline_lva(),
        );
        let a = evaluate_point(&spec).unwrap();
        let b = evaluate_point(&spec).unwrap();
        assert_eq!(a, b, "recomputation must be byte-identical");
        let record = RunRecord::parse(&a).unwrap();
        assert!(record.stat("summary/norm_mpki").is_some());
        assert!(
            record
                .stats
                .iter()
                .all(|(path, _)| { !path.starts_with("time/") && !path.starts_with("env/") }),
            "cached manifests must carry no wall-clock or host stats"
        );
        assert_eq!(record.meta("fingerprint").unwrap().len(), 16);
    }

    #[test]
    fn evaluate_point_reports_unknown_workloads() {
        let spec = PointSpec::new("nonesuch", WorkloadScale::Test, 0, SimConfig::precise());
        assert!(evaluate_point(&spec)
            .unwrap_err()
            .contains("unknown workload"));
    }

    #[test]
    fn fewer_threads_than_the_workloads_run_is_an_error_not_a_panic() {
        let config = SimConfig {
            threads: THREADS - 1,
            ..SimConfig::baseline_lva()
        };
        let spec = PointSpec::new("blackscholes", WorkloadScale::Test, 0, config);
        assert!(evaluate_point(&spec)
            .unwrap_err()
            .contains("invalid config"));
    }
}
