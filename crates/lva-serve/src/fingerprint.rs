//! Content addresses for sweep points.
//!
//! The whole service rests on one fact, established in PR 1 and pinned
//! by the determinism suite ever since: a sweep point is a *pure
//! function* of its validated configuration. That makes its result
//! cacheable under a key derived from nothing but the config — two
//! clients asking for the same point may share one evaluation, today or
//! across server restarts.
//!
//! The key is an FNV-1a hash over a canonical text rendering of the
//! point: workload name, input scale, registry seed and the compact text
//! of `lva-sim`'s config codec ([`SimConfig::to_json`]) — the same codec
//! the wire speaks. The codec spells every field that can change a result
//! and leaves out the result-neutral ones (event tracing, timeline
//! sampling and phase-2 trace recording never change the statistics — the
//! conformance suite asserts trace neutrality for every mechanism family),
//! so a traced run shares its untraced twin's entry. Decoding the text
//! gives the config back, so two distinct valid configs never share a
//! preimage. The rendering is prefixed with two schema versions so a key
//! can never collide across incompatible generations:
//!
//! * [`CACHE_SCHEMA_VERSION`] — bumped when the fingerprint rendering
//!   or the cached manifest *content* changes (e.g. new stats in
//!   [`crate::point::point_record`]).
//! * [`lva_obs::SCHEMA_VERSION`] — the manifest container format.
//!
//! Bumping either silently invalidates every existing cache entry: old
//! keys simply stop being asked for, and the disk tier's unreferenced
//! files are garbage, not wrong answers.

use lva_sim::SimConfig;
use lva_workloads::WorkloadScale;

/// Version of the fingerprint rendering *and* of the cached manifest
/// content. Bump whenever [`crate::point::point_record`] gains, loses
/// or renames a stat, so stale cache entries are never served under the
/// new schema.
///
/// v2: phase-1 manifests gained the `energy/*` export, and configs
/// gained the governor knob.
///
/// v3: per-thread stats are exported in `ThreadStats` table order, which
/// moves `l1/{load,store}_fetches` and `l1/useful_prefetches` after
/// `mech/{approximations,lvp_correct,rollbacks}` in every manifest. The
/// path → value pairs are unchanged; only their order is.
///
/// v4: the error budget moved into the governor's config, so
/// `SimConfig`'s `Debug` (which the rendering hashed) changed shape for
/// every config. Manifests are unchanged; keys are not.
///
/// v5: the rendering hashes the config codec's compact JSON instead of
/// `SimConfig`'s derived `Debug`, so a formatting change can no longer
/// re-key the cache silently, and timeline sampling (result-neutral, but
/// present in the `Debug`) no longer splits it. Manifests are unchanged;
/// keys are not.
pub const CACHE_SCHEMA_VERSION: u64 = 5;

/// 64-bit FNV-1a — the same hash the determinism suite pins sweep
/// statistics with; dependency-free and stable across platforms.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Stable text name for a scale (`Debug` is stable too, but the wire
/// protocol already speaks these lowercase names).
#[must_use]
pub(crate) fn scale_label(scale: WorkloadScale) -> &'static str {
    match scale {
        WorkloadScale::Test => "test",
        WorkloadScale::Small => "small",
        WorkloadScale::Medium => "medium",
    }
}

/// Parses a scale label back (the inverse of `scale_label`).
///
/// # Errors
///
/// Returns a message naming the accepted labels.
pub fn parse_scale(label: &str) -> Result<WorkloadScale, String> {
    match label {
        "test" => Ok(WorkloadScale::Test),
        "small" => Ok(WorkloadScale::Small),
        "medium" => Ok(WorkloadScale::Medium),
        other => Err(format!("unknown scale {other} (test|small|medium)")),
    }
}

/// The canonical text a point hashes over. Public mainly for tests and
/// debugging — cache keys should come from [`point_fingerprint`].
#[must_use]
pub(crate) fn canonical_rendering(
    workload: &str,
    scale: WorkloadScale,
    seed: u64,
    config: &SimConfig,
) -> String {
    format!(
        "cache-v{CACHE_SCHEMA_VERSION}/obs-v{}/{workload}/{}/seed={seed}/{}",
        lva_obs::SCHEMA_VERSION,
        scale_label(scale),
        config.to_json().to_string_compact(),
    )
}

/// Content address of one sweep point: FNV-1a64 over
/// `canonical_rendering`.
#[must_use]
pub fn point_fingerprint(
    workload: &str,
    scale: WorkloadScale,
    seed: u64,
    config: &SimConfig,
) -> u64 {
    fnv1a64(canonical_rendering(workload, scale, seed, config).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn scale_labels_round_trip() {
        for scale in [
            WorkloadScale::Test,
            WorkloadScale::Small,
            WorkloadScale::Medium,
        ] {
            assert_eq!(parse_scale(scale_label(scale)).unwrap(), scale);
        }
        assert!(parse_scale("huge").is_err());
    }

    #[test]
    fn fingerprint_ignores_result_neutral_knobs() {
        let base = SimConfig::baseline_lva();
        let traced = SimConfig {
            record_traces: true,
            trace: lva_obs::TraceConfig::ring(64),
            timeline: Some(lva_obs::TimelineConfig::every(500)),
            ..base.clone()
        };
        let scale = WorkloadScale::Test;
        assert_eq!(
            point_fingerprint("blackscholes", scale, 0, &base),
            point_fingerprint("blackscholes", scale, 0, &traced),
            "tracing must not split the cache"
        );
    }

    #[test]
    fn fingerprint_separates_everything_that_matters() {
        let base = SimConfig::baseline_lva();
        let scale = WorkloadScale::Test;
        let key = point_fingerprint("blackscholes", scale, 0, &base);
        assert_ne!(key, point_fingerprint("canneal", scale, 0, &base));
        assert_ne!(
            key,
            point_fingerprint("blackscholes", WorkloadScale::Small, 0, &base)
        );
        assert_ne!(key, point_fingerprint("blackscholes", scale, 1, &base));
        let delayed = SimConfig {
            value_delay: base.value_delay + 1,
            ..base.clone()
        };
        assert_ne!(key, point_fingerprint("blackscholes", scale, 0, &delayed));
        let precise = SimConfig {
            mechanism: lva_sim::MechanismKind::Precise,
            ..base.clone()
        };
        assert_ne!(key, point_fingerprint("blackscholes", scale, 0, &precise));
        let budgeted = SimConfig {
            govern: Some(lva_sim::GovernorConfig::budget(0.05)),
            ..base.clone()
        };
        assert_ne!(key, point_fingerprint("blackscholes", scale, 0, &budgeted));
        let governed = SimConfig {
            govern: Some(lva_sim::GovernorConfig::slo(0.02)),
            ..base
        };
        assert_ne!(key, point_fingerprint("blackscholes", scale, 0, &governed));
        assert_ne!(
            point_fingerprint("blackscholes", scale, 0, &budgeted),
            point_fingerprint("blackscholes", scale, 0, &governed)
        );
    }

    #[test]
    fn rendering_carries_both_schema_versions() {
        let text = canonical_rendering("swaptions", WorkloadScale::Test, 3, &SimConfig::precise());
        assert!(text.starts_with(&format!(
            "cache-v{CACHE_SCHEMA_VERSION}/obs-v{}/swaptions/test/seed=3/",
            lva_obs::SCHEMA_VERSION
        )));
        assert!(text.ends_with(r#"/{"mechanism":"precise","value_delay":4,"threads":4,"l1":{"size":65536,"ways":8,"block":64}}"#), "{text}");
    }
}
