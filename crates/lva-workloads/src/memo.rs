//! The precise-reference memo, and the one grid loop built on it.
//!
//! Every point normalizes against a precise run of its kernel (see
//! [`Workload::execute`]), and that run depends only on the kernel
//! instance and the point's [`precise_config`] — not on the mechanism,
//! the error budget or the governor. N mechanism configs of one kernel
//! instance therefore need one precise run, not N. [`PreciseMemo`] holds
//! those runs: a miss runs [`Workload::precise_reference`] once, every
//! later point sharing the key runs only [`Workload::execute_against`] —
//! and a precise point runs nothing more at all, since its reference *is*
//! its run.
//!
//! * **Key** — the caller's name for the kernel instance plus the full
//!   precise [`SimConfig`], compared with `PartialEq` (not a hash of a
//!   rendering), so points differing in value delay never share a
//!   reference. A grid keys on the workload's slot in its list; the
//!   `lva-serve` scheduler keys on (seed, scale, workload name).
//! * **Bound and eviction** — two references per worker, least recently
//!   used evicted first. The victim goes *before* the new reference is
//!   computed, so a full memo never holds more than its bound plus the
//!   references workers are computing.
//! * **Coalescing** — a slot is a [`OnceLock`]: a worker that finds a
//!   reference still being computed by another waits for it instead of
//!   computing it again, and counts as a hit.
//! * **Dispatch order** — a small bound only pays off when points sharing
//!   a key are evaluated close together, so every caller evaluates its
//!   points in [`group_by_reference`] order. Evaluation order never shows
//!   in the results.
//!
//! [`run_grid`] is the grid evaluator every phase-1 sweep goes through:
//! configs × workloads, claimed grouped by reference on the
//! [`run_sweep`] engine, returned config-major. Its runs are
//! byte-identical to per-point [`Workload::execute`] runs, which stays
//! memo-free on purpose: it is the from-scratch reference the tests
//! compare the memoized path against.

use crate::{precise_config, PreciseReference, Workload, WorkloadRun};
use lva_sim::sweep::{run_sweep, worker_count, SweepOptions, SweepRun};
use lva_sim::SimConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How a memoized run found its precise reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Already computed (or being computed by another worker).
    Hit,
    /// Computed by this run.
    Miss,
}

/// What a precise reference depends on: the caller's instance key, then
/// the precise config. Points with equal keys share one reference; most
/// mismatches stop before the config.
type Key<K> = (K, SimConfig);

/// Reorders `items` so the items sharing a precise reference are
/// adjacent: groups in order of their first item, each group in its
/// original order. `key` names an item's kernel instance and its config.
pub fn group_by_reference<T, K: PartialEq>(
    items: Vec<T>,
    key: impl Fn(&T) -> (K, &SimConfig),
) -> Vec<T> {
    let mut groups: Vec<(Key<K>, Vec<T>)> = Vec::new();
    for item in items {
        let (instance, config) = key(&item);
        let key = (instance, precise_config(config));
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(item),
            None => groups.push((key, vec![item])),
        }
    }
    groups.into_iter().flat_map(|(_, group)| group).collect()
}

struct Slot<K> {
    key: Key<K>,
    reference: Arc<OnceLock<PreciseReference>>,
}

/// A bounded, thread-safe memo of precise references, keyed on the
/// caller's kernel-instance key `K` (see the module docs). Allocates
/// nothing until its first run.
pub struct PreciseMemo<K> {
    capacity: usize,
    /// Least recently used at the front.
    slots: Mutex<VecDeque<Slot<K>>>,
}

impl<K: PartialEq> PreciseMemo<K> {
    /// References kept per worker: one for the key a worker is on, one
    /// for the next group's (or, in the server, an interleaved job's).
    const REFS_PER_WORKER: usize = 2;

    /// A memo for `workers` concurrent evaluators (at least 1), holding
    /// two references per worker.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        PreciseMemo {
            capacity: workers.max(1) * Self::REFS_PER_WORKER,
            slots: Mutex::new(VecDeque::new()),
        }
    }

    /// References currently held, computed or in progress.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.lock().expect("memo lock").len()
    }

    /// Runs `workload` — the kernel instance `instance` names — under
    /// `config` like [`Workload::execute`], taking its precise reference
    /// from the memo.
    pub fn execute(
        &self,
        instance: K,
        workload: &dyn Workload,
        config: &SimConfig,
    ) -> (WorkloadRun, Lookup) {
        let slot = self.slot((instance, precise_config(config)));
        let mut lookup = Lookup::Hit;
        let reference = slot.get_or_init(|| {
            lookup = Lookup::Miss;
            workload.precise_reference(config)
        });
        (workload.execute_against(config, reference), lookup)
    }

    /// The slot for `key`, created (evicting the least recently used slot
    /// when full) if absent, and marked most recently used.
    fn slot(&self, key: Key<K>) -> Arc<OnceLock<PreciseReference>> {
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

/// Runs every config on every workload in one parallel sweep and returns
/// the runs config-major — point `c * workloads.len() + w` is config `c`
/// on workload `w`, in [`SweepRun::outcomes`] and its errors alike.
///
/// Points are claimed grouped by precise reference and share it through
/// a [`PreciseMemo`] keyed on the workload's slot, so each (workload,
/// precise config) pair runs its precise kernel once. The runs are
/// byte-identical to [`Workload::execute`]'s for any worker count.
#[must_use]
pub fn run_grid(
    configs: &[SimConfig],
    workloads: &[Box<dyn Workload>],
    options: &SweepOptions,
) -> SweepRun<WorkloadRun> {
    let slots = workloads.len();
    let n = configs.len() * slots;
    let points = (0..n).map(|i| (i, i % slots, &configs[i / slots]));
    let order = group_by_reference(points.collect(), |&(_, w, config)| (w, config));
    let memo = PreciseMemo::new(worker_count(options.workers));
    // Progress names the grid's own point numbers, not claim positions.
    let done = AtomicUsize::new(0);
    let quiet = SweepOptions {
        progress: false,
        ..options.clone()
    };
    let mut run = run_sweep(&order, &quiet, |_, &(i, w, config)| {
        let (run, _) = memo.execute(w, &*workloads[w], config);
        if options.progress {
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("  [{finished}/{n}] point {i} done");
        }
        run
    });
    for outcome in &mut run.outcomes {
        outcome.index = order[outcome.index].0;
    }
    for error in &mut run.errors {
        error.index = order[error.index].0;
    }
    run.outcomes.sort_by_key(|o| o.index);
    run.errors.sort_by_key(|e| e.index);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::assert_same_run;
    use crate::{registry_seeded, workload_seeded, WorkloadScale};
    use lva_core::{ApproximatorConfig, ClpConfig};
    use lva_sim::FaultConfig;

    /// A serve-shaped instance key: seed, scale, workload name.
    type Instance = (u64, WorkloadScale, &'static str);

    /// Runs `name` at Test scale through `memo`, checked against a
    /// from-scratch [`Workload::execute`].
    fn memo_run(
        memo: &PreciseMemo<Instance>,
        seed: u64,
        name: &'static str,
        config: &SimConfig,
    ) -> Lookup {
        let workload = workload_seeded(WorkloadScale::Test, seed, name).expect("known name");
        let (run, lookup) = memo.execute((seed, WorkloadScale::Test, name), &*workload, config);
        assert_same_run(&run, &workload.execute(config), name);
        lookup
    }

    #[test]
    fn one_kernel_over_four_configs_misses_once() {
        let memo = PreciseMemo::new(1);
        let lookups: Vec<_> = [
            SimConfig::precise(),
            SimConfig::baseline_lva(),
            SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
            SimConfig::baseline_lva().with_error_budget(0.05),
        ]
        .iter()
        .map(|c| memo_run(&memo, 5, "ferret", c))
        .collect();
        assert_eq!(
            lookups,
            [Lookup::Miss, Lookup::Hit, Lookup::Hit, Lookup::Hit]
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn the_instance_and_the_value_delay_are_part_of_the_key() {
        let memo = PreciseMemo::new(4);
        let base = SimConfig::baseline_lva();
        let mut delayed = base.clone();
        delayed.value_delay += 1;
        for (seed, name, config) in [
            (0, "blackscholes", &base),
            (0, "blackscholes", &delayed),
            (1, "blackscholes", &base),
            (0, "swaptions", &base),
        ] {
            let lookup = memo_run(&memo, seed, name, config);
            assert_eq!(lookup, Lookup::Miss, "{seed} {name} {}", config.value_delay);
        }
        assert_eq!(memo.len(), 4);
        // The governor and the budget are not: they reuse the first slot.
        for config in [
            base.clone().with_govern_slo(0.02),
            base.with_error_budget(0.05),
        ] {
            assert_eq!(memo_run(&memo, 0, "blackscholes", &config), Lookup::Hit);
        }
    }

    #[test]
    fn the_least_recently_used_reference_is_evicted() {
        let memo = PreciseMemo::new(1);
        let lookup = |seed| memo_run(&memo, seed, "swaptions", &SimConfig::precise());
        assert_eq!(lookup(0), Lookup::Miss);
        assert_eq!(lookup(1), Lookup::Miss);
        assert_eq!(lookup(0), Lookup::Hit, "0 is now the most recent");
        assert_eq!(lookup(2), Lookup::Miss, "evicts 1, not 0");
        assert_eq!(memo.len(), 2);
        assert_eq!(lookup(0), Lookup::Hit);
        assert_eq!(lookup(1), Lookup::Miss, "1 was evicted");
    }

    #[test]
    fn grouping_makes_each_keys_items_adjacent_in_first_seen_order() {
        // Config-major; the third config differs in the precise config,
        // so it is a key of its own.
        let mut delayed = SimConfig::baseline_lva();
        delayed.value_delay += 1;
        let configs = [SimConfig::precise(), SimConfig::baseline_lva(), delayed];
        let items: Vec<(usize, usize, &SimConfig)> = (0..configs.len())
            .flat_map(|c| (0..2).map(move |w| (c, w)))
            .map(|(c, w)| (c, w, &configs[c]))
            .collect();
        let order: Vec<usize> = group_by_reference(items, |&(_, w, config)| (w, config))
            .into_iter()
            .map(|(c, w, _)| c * 10 + w)
            .collect();
        assert_eq!(order, [0, 10, 1, 11, 20, 21]);
    }

    /// A workload that counts its precise runs into a shared counter.
    struct Counting(Box<dyn Workload>, Arc<AtomicUsize>);

    impl Workload for Counting {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn precise_reference(&self, config: &SimConfig) -> PreciseReference {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.precise_reference(config)
        }
        fn execute_against(&self, config: &SimConfig, r: &PreciseReference) -> WorkloadRun {
            self.0.execute_against(config, r)
        }
        fn execute(&self, _: &SimConfig) -> WorkloadRun {
            unreachable!("the grid runs every point against a shared reference")
        }
    }

    #[test]
    fn the_grid_equals_per_point_execute_with_one_reference_per_key() {
        // Three precise configs (value delays 4, 8 and 16); traces on
        // everywhere, so the references' traces are compared too.
        let configs: Vec<SimConfig> = [
            SimConfig::precise(),
            SimConfig::baseline_lva(),
            SimConfig::baseline_lva().with_value_delay(8),
            SimConfig::baseline_lva().with_value_delay(16),
            SimConfig::baseline_lva().with_faults(FaultConfig::seeded(7).with_drop_rate(0.02)),
            SimConfig::baseline_lva().with_govern_slo(0.02),
        ]
        .into_iter()
        .map(SimConfig::with_traces)
        .collect();
        let seeded = || (0..2).flat_map(|seed| registry_seeded(WorkloadScale::Test, seed));
        let plain: Vec<_> = seeded().collect();
        let want: Vec<WorkloadRun> = configs
            .iter()
            .flat_map(|c| plain.iter().map(move |w| w.execute(c)))
            .collect();
        for workers in [1, 3] {
            let references = Arc::new(AtomicUsize::new(0));
            let counting: Vec<Box<dyn Workload>> = seeded()
                .map(|w| Box::new(Counting(w, Arc::clone(&references))) as _)
                .collect();
            let options = SweepOptions {
                workers: Some(workers),
                progress: false,
            };
            let grid = run_grid(&configs, &counting, &options);
            assert!(grid.errors.is_empty(), "{:?}", grid.errors);
            assert_eq!(grid.outcomes.len(), want.len());
            for (i, (outcome, want)) in grid.outcomes.iter().zip(&want).enumerate() {
                assert_eq!(outcome.index, i);
                assert_same_run(
                    &outcome.value,
                    want,
                    &format!("point {i}, {workers} workers"),
                );
            }
            // Every key misses at least once, so a total equal to the key
            // count is one miss per key. With several workers, one
            // descheduled between claiming a point and looking its key up
            // can find the key evicted by the others' next groups, so
            // only a bound is certain there.
            let (keys, references) = (3 * counting.len(), references.load(Ordering::Relaxed));
            if workers == 1 {
                assert_eq!(references, keys);
            } else {
                assert!((keys..=2 * keys).contains(&references), "{references}");
            }
        }
    }
}
