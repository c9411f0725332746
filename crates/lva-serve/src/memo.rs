//! The precise-reference memo: a small bounded map from (workload,
//! scale, seed, precise config) to the kernel's precise run.
//!
//! Every point normalizes against a precise run of its kernel (see
//! [`Workload::execute`]), and that run depends only on the point's
//! [`precise_config`] — not on the mechanism, the error budget or the
//! governor. A sweep over N mechanism configs of one (kernel, seed)
//! therefore needs one precise run, not N. The scheduler's production
//! evaluator goes through this memo: a miss runs
//! [`Workload::precise_reference`] once, every later point sharing the
//! key runs only [`Workload::execute_against`] — and a precise point
//! runs nothing more at all, since its reference *is* its run.
//!
//! * **Key** — workload name, scale, seed and the full precise
//!   [`SimConfig`], compared with `PartialEq` (not a hash of a
//!   rendering), so points differing in seed or value delay never share
//!   a reference.
//! * **Bound and eviction** — at most `capacity` references, least
//!   recently used evicted first. The victim goes *before* the new
//!   reference is computed, so a full memo never holds more than
//!   `capacity` references plus the ones workers are computing.
//! * **Coalescing** — a slot is a [`OnceLock`]: a worker that finds a
//!   reference still being computed by another waits for it instead of
//!   computing it again, and counts as a hit.
//! * **Dispatch order** — a small bound only pays off when points
//!   sharing a key are evaluated close together. The scheduler therefore
//!   queues each job's points through [`group_by_reference`], so a grid
//!   in any order (`lva-explore submit` sends its grid config-major)
//!   costs one precise run per key.
//!
//! Served manifests are byte-identical to [`evaluate_point`]'s, which
//! stays memo-free on purpose: it is the from-scratch reference the
//! tests compare the memoized path against.
//!
//! [`evaluate_point`]: crate::point::evaluate_point
//! [`Workload::execute`]: lva_workloads::Workload::execute
//! [`Workload::precise_reference`]: lva_workloads::Workload::precise_reference
//! [`Workload::execute_against`]: lva_workloads::Workload::execute_against

use crate::point::{point_record, resolve_point, PointSpec};
use lva_sim::SimConfig;
use lva_workloads::{precise_config, PreciseReference, WorkloadScale};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// How a memoized evaluation found its precise reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// Already computed (or being computed by another worker).
    Hit,
    /// Computed by this evaluation.
    Miss,
}

/// What a precise reference depends on: points with equal keys share
/// one. The seed comes first so most mismatches stop at one integer.
#[derive(PartialEq)]
struct Key {
    seed: u64,
    scale: WorkloadScale,
    workload: String,
    config: SimConfig,
}

impl Key {
    fn of(spec: &PointSpec) -> Self {
        Key {
            seed: spec.seed,
            scale: spec.scale,
            workload: spec.workload.clone(),
            config: precise_config(&spec.config),
        }
    }
}

/// Reorders `points` so the points sharing a precise reference are
/// adjacent: groups in order of their first point, each group in its
/// original order. The order points are evaluated in never shows in
/// their results, so this only changes how often the memo hits.
pub(crate) fn group_by_reference(points: Vec<(u64, PointSpec)>) -> Vec<(u64, PointSpec)> {
    let mut groups: Vec<(Key, Vec<(u64, PointSpec)>)> = Vec::new();
    for point in points {
        let key = Key::of(&point.1);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(point),
            None => groups.push((key, vec![point])),
        }
    }
    groups.into_iter().flat_map(|(_, group)| group).collect()
}

struct Slot {
    key: Key,
    reference: Arc<OnceLock<PreciseReference>>,
}

/// A bounded, thread-safe memo of precise references (see the module
/// docs). Allocates nothing until its first evaluation.
pub(crate) struct PreciseMemo {
    capacity: usize,
    /// Least recently used at the front.
    slots: Mutex<VecDeque<Slot>>,
}

impl PreciseMemo {
    /// A memo holding at most `capacity` references (clamped to at
    /// least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        PreciseMemo {
            capacity: capacity.max(1),
            slots: Mutex::new(VecDeque::new()),
        }
    }

    /// References currently held, computed or in progress.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.lock().expect("memo lock").len()
    }

    /// Evaluates one point like [`crate::point::evaluate_point`], taking
    /// its precise reference from the memo. The lookup is `None` when
    /// the point failed before reaching it (invalid config, unknown
    /// workload).
    pub(crate) fn evaluate(&self, spec: &PointSpec) -> (Result<String, String>, Option<Lookup>) {
        let workload = match resolve_point(spec) {
            Ok(w) => w,
            Err(e) => return (Err(e), None),
        };
        let slot = self.slot(spec);
        let mut lookup = Lookup::Hit;
        let reference = slot.get_or_init(|| {
            lookup = Lookup::Miss;
            workload.precise_reference(&spec.config)
        });
        let run = workload.execute_against(&spec.config, reference);
        (
            Ok(point_record(spec, &run).to_string_pretty()),
            Some(lookup),
        )
    }

    /// The slot for `spec`'s key, created (evicting the least recently
    /// used slot when full) if absent, and marked most recently used.
    fn slot(&self, spec: &PointSpec) -> Arc<OnceLock<PreciseReference>> {
        let key = Key::of(spec);
        let mut slots = self.slots.lock().expect("memo lock");
        let slot = match slots.iter().position(|s| s.key == key) {
            Some(i) => slots.remove(i).expect("position is in range"),
            None => {
                while slots.len() >= self.capacity {
                    slots.pop_front();
                }
                Slot {
                    key,
                    reference: Arc::new(OnceLock::new()),
                }
            }
        };
        let reference = Arc::clone(&slot.reference);
        slots.push_back(slot);
        reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::evaluate_point;
    use lva_core::{ApproximatorConfig, ClpConfig};

    fn four_configs() -> [SimConfig; 4] {
        [
            SimConfig::precise(),
            SimConfig::baseline_lva(),
            SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
            SimConfig::baseline_lva().with_error_budget(0.05),
        ]
    }

    #[test]
    fn one_kernel_over_four_configs_misses_once() {
        let memo = PreciseMemo::new(2);
        let lookups: Vec<_> = four_configs()
            .into_iter()
            .map(|c| {
                let spec = PointSpec::new("ferret", WorkloadScale::Test, 5, c);
                let (text, lookup) = memo.evaluate(&spec);
                assert_eq!(text, evaluate_point(&spec), "memoized bytes match");
                lookup.expect("reached the memo")
            })
            .collect();
        assert_eq!(
            lookups,
            [Lookup::Miss, Lookup::Hit, Lookup::Hit, Lookup::Hit]
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn seed_value_delay_scale_and_workload_are_part_of_the_key() {
        let memo = PreciseMemo::new(8);
        let base = PointSpec::new(
            "blackscholes",
            WorkloadScale::Test,
            0,
            SimConfig::baseline_lva(),
        );
        let mut delayed = base.clone();
        delayed.config.value_delay += 1;
        let mut reseeded = base.clone();
        reseeded.seed = 1;
        let mut other = base.clone();
        other.workload = "swaptions".into();
        for spec in [&base, &delayed, &reseeded, &other] {
            let (text, lookup) = memo.evaluate(spec);
            assert_eq!(lookup, Some(Lookup::Miss), "{spec:?}");
            assert_eq!(text, evaluate_point(spec));
        }
        assert_eq!(memo.len(), 4);
        // The governor and the budget are not: they reuse base's slot.
        let governed = PointSpec {
            config: SimConfig::baseline_lva().with_govern_slo(0.02),
            ..base.clone()
        };
        let (text, lookup) = memo.evaluate(&governed);
        assert_eq!(lookup, Some(Lookup::Hit));
        assert_eq!(text, evaluate_point(&governed));
    }

    #[test]
    fn the_least_recently_used_reference_is_evicted() {
        let memo = PreciseMemo::new(2);
        let point =
            |seed| PointSpec::new("swaptions", WorkloadScale::Test, seed, SimConfig::precise());
        let lookup = |seed| memo.evaluate(&point(seed)).1.expect("reached the memo");
        assert_eq!(lookup(0), Lookup::Miss);
        assert_eq!(lookup(1), Lookup::Miss);
        assert_eq!(lookup(0), Lookup::Hit, "0 is now the most recent");
        assert_eq!(lookup(2), Lookup::Miss, "evicts 1, not 0");
        assert_eq!(memo.len(), 2);
        assert_eq!(lookup(0), Lookup::Hit);
        assert_eq!(lookup(1), Lookup::Miss, "1 was evicted");
    }

    #[test]
    fn grouping_makes_each_keys_points_adjacent_in_first_seen_order() {
        // Config-major, as `lva-explore submit` sends a grid; the third
        // config differs in the precise config, so it is a key of its own.
        let mut delayed = SimConfig::baseline_lva();
        delayed.value_delay += 1;
        let configs = [SimConfig::precise(), SimConfig::baseline_lva(), delayed];
        let mut points = Vec::new();
        for (c, config) in configs.iter().enumerate() {
            for (w, workload) in ["canneal", "ferret"].into_iter().enumerate() {
                let spec = PointSpec::new(workload, WorkloadScale::Test, 0, config.clone());
                points.push(((c * 10 + w) as u64, spec));
            }
        }
        let order: Vec<u64> = group_by_reference(points)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(order, [0, 10, 1, 11, 20, 21]);
    }

    #[test]
    fn failures_before_the_lookup_leave_the_memo_untouched() {
        let memo = PreciseMemo::new(2);
        assert_eq!(memo.len(), 0);
        let (text, lookup) = memo.evaluate(&PointSpec::new(
            "nonesuch",
            WorkloadScale::Test,
            0,
            SimConfig::precise(),
        ));
        assert!(text.unwrap_err().contains("unknown workload nonesuch"));
        assert_eq!(lookup, None);
        assert_eq!(memo.len(), 0);
    }
}
