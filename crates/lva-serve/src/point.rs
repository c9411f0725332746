//! What a client asks for: one sweep point, and the manifest it gets
//! back.
//!
//! A [`PointSpec`] is `(workload, scale, seed, SimConfig)` — exactly the
//! coordinates `lva-explore sweep` crosses into its grids. The wire form
//! ([`PointSpec::to_json`] / [`PointSpec::from_json`]) deliberately does
//! *not* serialize `SimConfig` field-by-field: it carries the knobs the
//! sweep axes actually perturb (mechanism family, value delay, the
//! approximator's window/degree/GHB/geometry, CLP geometry, error
//! budget, governor SLO) and pins everything else to the stock
//! baselines. Anything the wire can't express round-trips as an encode
//! error instead of a silently different experiment, and the decoder
//! rejects a wrongly typed field or an integer above 2^53 − 1 instead of
//! reading it as a default or a rounded neighbour — the fingerprint
//! hashes the *decoded* config, so an encoding gap can never alias two
//! distinct points.
//!
//! [`point_record`] builds the response manifest. It is a deterministic
//! function of the spec and the simulation result — no wall-clock stats,
//! no host info — which is what lets the cache serve stored bytes as if
//! they were freshly computed: a cache hit and a recompute are
//! *byte-identical*.

use crate::fingerprint::{parse_scale, point_fingerprint, scale_label};
use lva_core::{ApproximatorConfig, CacheLevel, ClpConfig, ConfidenceWindow, LvpConfig};
use lva_obs::{Json, MetricsRegistry, RunRecord};
use lva_sim::{MechanismKind, SimConfig};
use lva_workloads::{workload_seeded, Workload, WorkloadRun, WorkloadScale};

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
    /// Returns a message when the seed is above 2^53 − 1 (a JSON number
    /// cannot carry it exactly) or the config uses knobs the wire format
    /// cannot express (see [`config_to_json`]).
    pub fn to_json(&self) -> Result<Json, String> {
        if self.seed > MAX_EXACT {
            return Err(format!("seed {} is not exact as a JSON number", self.seed));
        }
        Ok(Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("scale".into(), Json::Str(scale_label(self.scale).into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("config".into(), config_to_json(&self.config)?),
        ]))
    }

    /// Parses the wire form, validating the decoded configuration.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed object, an unknown scale or
    /// mechanism, or a config that fails [`SimConfig::validate`].
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
        let seed = get_u64(json, "seed")?.unwrap_or(0);
        let config = config_from_json(
            json.get("config").ok_or("point missing object 'config'")?,
        )?;
        config.validate().map_err(|e| format!("invalid config: {e}"))?;
        Ok(PointSpec {
            workload,
            scale,
            seed,
            config,
        })
    }
}

/// The largest integer every larger one can be told apart from as an
/// `f64`: 2^53 − 1. A wire integer above it may be a rounded neighbour
/// (or a saturated `1e30`), so decoding rejects it instead of aliasing.
const MAX_EXACT: u64 = (1 << 53) - 1;

fn get_u64(json: &Json, key: &str) -> Result<Option<u64>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(v) => {
            let n = v
                .as_f64()
                .filter(|n| (0.0..=MAX_EXACT as f64).contains(n) && n.fract() == 0.0)
                .ok_or_else(|| format!("'{key}' must be an integer in [0, 2^53)"))?;
            Ok(Some(n as u64))
        }
    }
}

fn window_to_json(window: ConfidenceWindow) -> Json {
    match window {
        ConfidenceWindow::Exact => Json::Str("exact".into()),
        ConfidenceWindow::Infinite => Json::Str("inf".into()),
        ConfidenceWindow::Relative(f) => Json::Num(f),
    }
}

fn window_from_json(json: &Json) -> Result<ConfidenceWindow, String> {
    match json {
        Json::Str(s) if s == "exact" => Ok(ConfidenceWindow::Exact),
        Json::Str(s) if s == "inf" => Ok(ConfidenceWindow::Infinite),
        Json::Num(f) => Ok(ConfidenceWindow::Relative(*f)),
        other => Err(format!("bad confidence window {other:?}")),
    }
}

/// The approximator knobs the sweep axes perturb; everything else must
/// sit at [`ApproximatorConfig::baseline`].
fn approx_to_json(cfg: &ApproximatorConfig) -> Result<Json, String> {
    let baseline = ApproximatorConfig::baseline();
    let canon = ApproximatorConfig {
        table_entries: baseline.table_entries,
        lhb_entries: baseline.lhb_entries,
        ghb_entries: baseline.ghb_entries,
        degree: baseline.degree,
        confidence_window: baseline.confidence_window,
        confidence_on_int: baseline.confidence_on_int,
        ..cfg.clone()
    };
    if canon != baseline {
        return Err(
            "approximator uses knobs the wire format cannot express \
             (tag/confidence bits, update rule, compute fn, mantissa loss or hash)"
                .into(),
        );
    }
    Ok(Json::Obj(vec![
        ("table".into(), Json::Num(cfg.table_entries as f64)),
        ("lhb".into(), Json::Num(cfg.lhb_entries as f64)),
        ("ghb".into(), Json::Num(cfg.ghb_entries as f64)),
        ("degree".into(), Json::Num(f64::from(cfg.degree))),
        ("window".into(), window_to_json(cfg.confidence_window)),
        ("on_int".into(), Json::Bool(cfg.confidence_on_int)),
    ]))
}

fn approx_from_json(json: &Json) -> Result<ApproximatorConfig, String> {
    let mut cfg = ApproximatorConfig::baseline();
    if let Some(v) = get_u64(json, "table")? {
        cfg.table_entries = v as usize;
    }
    if let Some(v) = get_u64(json, "lhb")? {
        cfg.lhb_entries = v as usize;
    }
    if let Some(v) = get_u64(json, "ghb")? {
        cfg.ghb_entries = v as usize;
    }
    if let Some(v) = get_u64(json, "degree")? {
        cfg.degree = u32::try_from(v).map_err(|_| "degree out of range")?;
    }
    if let Some(w) = json.get("window") {
        cfg.confidence_window = window_from_json(w)?;
    }
    match json.get("on_int") {
        None => {}
        Some(Json::Bool(b)) => cfg.confidence_on_int = *b,
        Some(_) => return Err("'on_int' must be a boolean".into()),
    }
    Ok(cfg)
}

fn clp_to_json(cfg: &ClpConfig) -> Json {
    Json::Obj(vec![
        ("table".into(), Json::Num(cfg.table_entries as f64)),
        ("bits".into(), Json::Num(f64::from(cfg.confidence_bits))),
        ("depth".into(), Json::Num(f64::from(cfg.hierarchy_depth))),
        ("penalty".into(), Json::Num(cfg.mispredict_penalty as f64)),
        ("slow".into(), Json::Str(cfg.slow_threshold.label().into())),
    ])
}

fn clp_from_json(json: &Json) -> Result<ClpConfig, String> {
    let mut cfg = ClpConfig::baseline();
    if let Some(v) = get_u64(json, "table")? {
        cfg.table_entries = v as usize;
    }
    if let Some(v) = get_u64(json, "bits")? {
        cfg.confidence_bits = u32::try_from(v).map_err(|_| "bits out of range")?;
    }
    if let Some(v) = get_u64(json, "depth")? {
        cfg.hierarchy_depth = u32::try_from(v).map_err(|_| "depth out of range")?;
    }
    if let Some(v) = get_u64(json, "penalty")? {
        cfg.mispredict_penalty = v;
    }
    if let Some(slow) = json.get("slow") {
        let s = slow.as_str().ok_or("'slow' must be a string")?;
        cfg.slow_threshold = CacheLevel::ALL
            .into_iter()
            .find(|l| l.label() == s)
            .ok_or_else(|| format!("bad slow threshold {s} (l1|l2|llc|dram)"))?;
    }
    Ok(cfg)
}

/// Encodes a `SimConfig` into the restricted wire form.
///
/// # Errors
///
/// Returns a message when the config uses anything outside the sweep
/// axes: a non-baseline thread count or L1 geometry, fault injection,
/// non-default governor knobs, the realistic-LVP baseline,
/// or approximator fields beyond window/degree/GHB/geometry. Tracing and
/// timeline flags are simply dropped — they are result-neutral, and the
/// server never traces or samples on a client's behalf.
pub fn config_to_json(config: &SimConfig) -> Result<Json, String> {
    let stock = SimConfig::precise();
    if config.threads != stock.threads || config.l1 != stock.l1 {
        return Err("non-baseline threads/l1 cannot be expressed on the wire".into());
    }
    if config.faults.is_some() {
        return Err("fault injection cannot be expressed on the wire".into());
    }
    let mut members = vec![(
        "value_delay".to_owned(),
        Json::Num(config.value_delay as f64),
    )];
    let (label, detail) = match &config.mechanism {
        MechanismKind::Precise => ("precise", None),
        MechanismKind::Lva(a) => ("lva", Some(("lva".to_owned(), approx_to_json(a)?))),
        MechanismKind::Lvp(l) => {
            let canon = LvpConfig {
                ghb_entries: 0,
                ..l.clone()
            };
            if canon != LvpConfig::with_ghb(0) {
                return Err("non-baseline lvp geometry cannot be expressed on the wire".into());
            }
            (
                "lvp",
                Some((
                    "lvp".to_owned(),
                    Json::Obj(vec![("ghb".into(), Json::Num(l.ghb_entries as f64))]),
                )),
            )
        }
        MechanismKind::Prefetch(p) => {
            let canon = lva_core::PrefetcherConfig::paper(p.degree);
            if *p != canon {
                return Err(
                    "non-paper prefetcher geometry cannot be expressed on the wire".into()
                );
            }
            (
                "prefetch",
                Some((
                    "prefetch".to_owned(),
                    Json::Obj(vec![("degree".into(), Json::Num(f64::from(p.degree)))]),
                )),
            )
        }
        MechanismKind::Clp(c) => ("clp", Some(("clp".to_owned(), clp_to_json(c)))),
        MechanismKind::LvaClp(a, c) => {
            members.push(("lva".to_owned(), approx_to_json(a)?));
            ("lva+clp", Some(("clp".to_owned(), clp_to_json(c))))
        }
        MechanismKind::RealisticLvp(_) => {
            return Err("realistic-lvp cannot be expressed on the wire".into())
        }
    };
    members.insert(0, ("mechanism".to_owned(), Json::Str(label.into())));
    if let Some((key, value)) = detail {
        members.push((key, value));
    }
    if let Some(govern) = &config.govern {
        if !govern.has_default_knobs() {
            return Err(
                "non-default governor epoch/hysteresis knobs cannot be expressed on the wire"
                    .into(),
            );
        }
        for (key, layer) in [
            ("error_budget", govern.error_budget),
            ("governor_slo", govern.slo_error),
        ] {
            if let Some(value) = layer {
                members.push((key.to_owned(), Json::Num(value)));
            }
        }
    }
    Ok(Json::Obj(members))
}

/// Decodes the wire form back into a `SimConfig` (not yet validated —
/// [`PointSpec::from_json`] validates after decoding).
///
/// # Errors
///
/// Returns a message on unknown mechanisms or malformed fields.
pub fn config_from_json(json: &Json) -> Result<SimConfig, String> {
    let mechanism = match json.get("mechanism").and_then(Json::as_str) {
        None => return Err("config missing string 'mechanism'".into()),
        Some("precise") => MechanismKind::Precise,
        Some("lva") => MechanismKind::Lva(approx_from_json(
            json.get("lva").unwrap_or(&Json::Obj(vec![])),
        )?),
        Some("lvp") => {
            let ghb = json
                .get("lvp")
                .map_or(Ok(None), |l| get_u64(l, "ghb"))?
                .unwrap_or(0);
            MechanismKind::Lvp(LvpConfig::with_ghb(ghb as usize))
        }
        Some("prefetch") => {
            let degree = json
                .get("prefetch")
                .map_or(Ok(None), |p| get_u64(p, "degree"))?
                .unwrap_or(1);
            let degree = u32::try_from(degree).map_err(|_| "degree out of range")?;
            MechanismKind::Prefetch(lva_core::PrefetcherConfig::paper(degree))
        }
        Some("clp") => MechanismKind::Clp(clp_from_json(
            json.get("clp").unwrap_or(&Json::Obj(vec![])),
        )?),
        Some("lva+clp") => MechanismKind::LvaClp(
            approx_from_json(json.get("lva").unwrap_or(&Json::Obj(vec![])))?,
            clp_from_json(json.get("clp").unwrap_or(&Json::Obj(vec![])))?,
        ),
        Some(other) => return Err(format!("unknown mechanism {other}")),
    };
    let mut config = SimConfig {
        mechanism,
        ..SimConfig::precise()
    };
    if let Some(delay) = get_u64(json, "value_delay")? {
        config.value_delay = delay;
    }
    if let Some(budget) = json.get("error_budget") {
        let budget = budget
            .as_f64()
            .ok_or("'error_budget' must be a number")?;
        config = config.with_error_budget(budget);
    }
    if let Some(slo) = json.get("governor_slo") {
        let slo = slo.as_f64().ok_or("'governor_slo' must be a number")?;
        config = config.with_govern_slo(slo);
    }
    Ok(config)
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
    workload_seeded(spec.scale, spec.seed, &spec.workload)
        .ok_or_else(|| format!("unknown workload {}", spec.workload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_sim::SweepSpec;

    fn round_trip(spec: &PointSpec) -> PointSpec {
        let json = spec.to_json().expect("encodes");
        // Through the wire text, not just the value model.
        let text = json.to_string_compact();
        PointSpec::from_json(&lva_obs::parse_json(&text).unwrap()).expect("decodes")
    }

    #[test]
    fn sweep_grid_points_round_trip_exactly() {
        // Every point a CLI-shaped sweep grid can produce must survive
        // the wire unchanged — that is what makes server results
        // interchangeable with direct `run_sweep` results.
        let grid = SweepSpec::new()
            .degrees(&[0, 4])
            .ghb_depths(&[0, 2])
            .confidence_windows(&[0.05])
            .value_delays(&[1, 16])
            .error_budgets(&[0.05])
            .governor_slos(&[0.02])
            .mechanism(MechanismKind::Precise)
            .clp_tables(&[256])
            .try_build()
            .unwrap();
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
            SimConfig {
                mechanism: MechanismKind::Lvp(LvpConfig::with_ghb(2)),
                ..SimConfig::precise()
            },
            SimConfig {
                mechanism: MechanismKind::Prefetch(lva_core::PrefetcherConfig::paper(4)),
                ..SimConfig::precise()
            },
            SimConfig {
                mechanism: MechanismKind::LvaClp(
                    ApproximatorConfig::baseline(),
                    ClpConfig::baseline(),
                ),
                ..SimConfig::precise()
            },
        ] {
            let spec = PointSpec::new("swaptions", WorkloadScale::Small, 0, config);
            assert_eq!(round_trip(&spec), spec);
        }
    }

    #[test]
    fn inexpressible_configs_fail_to_encode_not_alias() {
        let mut faulty = SimConfig::baseline_lva();
        faulty.faults = Some(lva_sim::FaultConfig::seeded(42).with_table_rate(1e-3));
        assert!(config_to_json(&faulty).is_err());

        let mut tuned = SimConfig::baseline_lva();
        tuned.govern = Some(lva_sim::GovernorConfig {
            epoch_len: 77,
            ..lva_sim::GovernorConfig::slo(0.02)
        });
        assert!(config_to_json(&tuned).is_err());

        let mut exotic = ApproximatorConfig::baseline();
        exotic.tag_bits += 1;
        let cfg = SimConfig {
            mechanism: MechanismKind::Lva(exotic),
            ..SimConfig::precise()
        };
        assert!(config_to_json(&cfg).is_err());
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
        ] {
            let json = lva_obs::parse_json(text).unwrap();
            assert!(config_from_json(&json).is_err(), "{text}");
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
            record.stats.iter().all(|(path, _)| {
                !path.starts_with("time/") && !path.starts_with("env/")
            }),
            "cached manifests must carry no wall-clock or host stats"
        );
        assert_eq!(record.meta("fingerprint").unwrap().len(), 16);
    }

    #[test]
    fn evaluate_point_reports_unknown_workloads() {
        let spec = PointSpec::new("nonesuch", WorkloadScale::Test, 0, SimConfig::precise());
        assert!(evaluate_point(&spec).unwrap_err().contains("unknown workload"));
    }
}
