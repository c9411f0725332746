//! Phase-1 measurement counters (§V-A): MPKI, fetches, coverage.

use lva_core::Pc;
use lva_energy::{EnergyEvents, EnergyParams};
use lva_obs::MetricsRegistry;
use std::fmt;

/// A small set of static PCs, stored as a sorted `Vec`.
///
/// Workloads have at most a few dozen annotated load sites, so a sorted
/// vector beats a `HashSet<Pc>`: membership is a short binary search
/// over one cache line instead of a SipHash round, and iteration is
/// already in the canonical (sorted) fingerprint order.
///
/// In the harness, [`ThreadStats::approx_pcs`] inserts arrive through a
/// per-thread direct-mapped filter of PCs already in the set, so an
/// annotated load reaches `insert` only when its filter
/// slot holds another PC or none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcSet {
    pcs: Vec<Pc>,
}

impl PcSet {
    /// An empty set.
    #[must_use]
    pub(crate) fn new() -> Self {
        PcSet::default()
    }

    /// Number of distinct PCs.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Inserts `pc`; returns `false` if it was already present.
    #[inline]
    pub(crate) fn insert(&mut self, pc: Pc) -> bool {
        match self.pcs.binary_search_by_key(&pc.0, |p| p.0) {
            Ok(_) => false,
            Err(i) => {
                self.pcs.insert(i, pc);
                true
            }
        }
    }

    /// Iterates PCs in ascending order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &Pc> + '_ {
        self.pcs.iter()
    }
}

impl Extend<Pc> for PcSet {
    fn extend<I: IntoIterator<Item = Pc>>(&mut self, iter: I) {
        for pc in iter {
            self.insert(pc);
        }
    }
}

impl FromIterator<Pc> for PcSet {
    fn from_iter<I: IntoIterator<Item = Pc>>(iter: I) -> Self {
        let mut set = PcSet::new();
        set.extend(iter);
        set
    }
}

/// Declares [`ThreadStats`] from one table of counters and generates every
/// place that must list them: the struct, the aggregation behind
/// [`Phase1Stats::from_threads`], the fingerprint-group gates,
/// [`ThreadStats::record_metrics`] and the per-thread line of
/// [`Phase1Stats::fingerprint`]. A new counter is one row in the right
/// group, so it cannot be missing from any export.
///
/// Field order is the struct order, the fingerprint order and the metric
/// export order. The table has three parts:
///
/// * `always { field "key" => "path"; … }` — counters rendered
///   `key=value` at the head of every fingerprint line;
/// * `approx_pcs "pcs" => "path";` — the one [`PcSet`], rendered as its
///   sorted PC list and exported as its size;
/// * `gate(opener) "tag", metrics always|gated { field => "path"; … }` —
///   a group rendered as one `,tag=[v,…]` suffix only while `gate()`
///   holds, i.e. while `opener` is nonzero (for `any`: while any counter
///   of the group is). A `gated` group's metric paths are exported only
///   then too; an `always` group's are exported unconditionally.
macro_rules! thread_counters {
    (@gate $(#[$doc:meta])* $gate:ident(any) [$($field:ident),*]) => {
        $(#[$doc])*
        #[must_use]
        pub(crate) fn $gate(&self) -> bool {
            [$(self.$field),*].iter().any(|&v| v != 0)
        }
    };
    (@gate $(#[$doc:meta])* $gate:ident($opener:ident) [$($field:ident),*]) => {
        $(#[$doc])*
        #[must_use]
        pub(crate) fn $gate(&self) -> bool {
            self.$opener != 0
        }
    };
    (@export always, $open:expr, $body:block) => { $body };
    (@export gated, $open:expr, $body:block) => { if $open $body };
    (
        always { $( $(#[$doc:meta])* $field:ident $key:literal => $path:literal; )* }
        $(#[$pcs_doc:meta])* $pcs:ident $pcs_key:literal => $pcs_path:literal;
        $(
            $(#[$gate_doc:meta])*
            $gate:ident($opener:ident) $tag:literal, metrics $export:ident {
                $( $(#[$group_doc:meta])* $group_field:ident => $group_path:literal; )*
            }
        )*
    ) => {
        /// Counters for one thread's private L1 and mechanism.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct ThreadStats {
            $( $(#[$doc])* pub $field: u64, )*
            $(#[$pcs_doc])* pub $pcs: PcSet,
            $( $( $(#[$group_doc])* pub $group_field: u64, )* )*
        }

        impl ThreadStats {
            fn absorb(&mut self, other: &ThreadStats) {
                $( self.$field += other.$field; )*
                self.$pcs.extend(other.$pcs.iter().copied());
                $( $( self.$group_field += other.$group_field; )* )*
            }

            $( thread_counters!(@gate $(#[$gate_doc])* $gate($opener) [$($group_field),*]); )*

            /// Exports this thread's counters under `prefix`
            /// (`<prefix>/l1/raw_misses`, `<prefix>/mech/approximations`, …)
            /// — the per-thread half of [`Phase1Stats::record_metrics`], also
            /// used by the epoch timeline sampler to snapshot a single thread.
            pub(crate) fn record_metrics(&self, registry: &mut MetricsRegistry, prefix: &str) {
                let mut put = |path: &str, value: u64| {
                    registry.counter(&format!("{prefix}/{path}")).add(value);
                };
                $( put($path, self.$field); )*
                put($pcs_path, self.$pcs.len() as u64);
                $( thread_counters!(@export $export, self.$gate(), {
                    $( put($group_path, self.$group_field); )*
                }); )*
            }

            /// Appends this thread's fingerprint line:
            /// `label:key=value,…,pcs=[…]`, one `,tag=[…]` suffix per open
            /// group, then `;`.
            fn write_fingerprint(&self, out: &mut String, label: &str) {
                use fmt::Write as _;
                let _ = write!(out, "{label}:");
                $( let _ = write!(out, concat!($key, "={},"), self.$field); )*
                let pcs: Vec<u64> = self.$pcs.iter().map(|p| p.0).collect();
                let _ = write!(out, concat!($pcs_key, "={:?}"), pcs);
                $(
                    if self.$gate() {
                        let values = [$(self.$group_field),*].map(|v| v.to_string());
                        let _ = write!(out, ",{}=[{}]", $tag, values.join(","));
                    }
                )*
                out.push(';');
            }
        }
    };
}

thread_counters! {
    always {
        /// Dynamic instructions executed (loads + stores + compute ticks).
        instructions "i" => "instructions";
        /// Load instructions.
        loads "l" => "loads";
        /// Loads annotated approximate.
        approx_loads "al" => "approx_loads";
        /// Store instructions.
        stores "s" => "stores";
        /// Loads that hit in the L1 (including MSHR secondary hits and hits on
        /// prefetched lines).
        l1_hits "h" => "l1/hits";
        /// Loads that missed in the L1, before any mechanism intervenes.
        raw_misses "m" => "l1/raw_misses";
        /// Misses served by an approximation (count as hits for MPKI, §V-A).
        approximations "ap" => "mech/approximations";
        /// Misses a load value predictor (idealized or realistic) predicted
        /// correctly (count as hits).
        lvp_correct "lc" => "mech/lvp_correct";
        /// Mispredictions by the realistic LVP, each costing a pipeline flush.
        rollbacks "rb" => "mech/rollbacks";
        /// Blocks fetched into the L1 on behalf of loads: demand fills,
        /// approximator training fills and prefetches (Fig. 8's "fetches").
        load_fetches "lf" => "l1/load_fetches";
        /// Blocks fetched for store misses (tracked separately; the paper's
        /// load-centric figures exclude them).
        store_fetches "sf" => "l1/store_fetches";
        /// Useful prefetches: prefetched lines that saw a demand hit.
        useful_prefetches "up" => "l1/useful_prefetches";
    }
    /// Distinct static PCs that issued approximate loads (Fig. 12).
    approx_pcs "pcs" => "mech/approx_pcs";

    /// Whether the governor's budget ladder or the fault injector ever
    /// acted on this thread. Gates the `dg=[…]` fingerprint suffix so runs
    /// without robustness features keep their historical fingerprints.
    has_robustness_events(any) "dg", metrics always {
        /// Healthy→Demoted transitions by the governor's budget ladder.
        demotions => "degrade/demotions";
        /// Demoted→Disabled transitions (approximation switched off for a PC).
        disables => "degrade/disables";
        /// Disabled→Demoted re-probations after a served probation period.
        reprobations => "degrade/reprobations";
        /// Demoted→Healthy promotions (errors back under budget).
        recoveries => "degrade/recoveries";
        /// Misses denied approximation because their PC was disabled.
        degrade_denied => "degrade/denied";
        /// Misses approximated under a forced-fetch policy (demoted PCs).
        degrade_forced => "degrade/forced_fetches";
        /// Table-corruption faults injected.
        faults_injected => "faults/injected";
        /// Training drains dropped by fault injection.
        drains_dropped => "faults/drains_dropped";
        /// Training fetches delayed by fault injection.
        fetches_delayed => "faults/fetches_delayed";
    }

    /// Whether a cache-level predictor ever verified a prediction on this
    /// thread. Gates the `clp=[…]` fingerprint suffix so clp-off runs keep
    /// their historical fingerprints (latency is accumulated for every
    /// mechanism, but only fingerprinted when a predictor ran).
    has_clp_events(clp_predictions) "clp", metrics always {
        /// Cache-level predictions verified against the actual serving level.
        clp_predictions => "clp/predictions";
        /// Verified level predictions that matched the actual serving level.
        clp_correct => "clp/correct";
        /// Confident predictions that were wrong (each pays the recovery
        /// penalty). Unconfident wrong guesses are mere training noise and are
        /// not counted here.
        clp_mispredicts => "clp/mispredicts";
        /// Modelled load-visible latency accumulated across all loads, in
        /// cycles (hits cost 1; misses cost the hierarchy walk, the predicted
        /// level's direct access, or the approximation fast path).
        load_latency_cycles => "clp/load_latency_cycles";
    }

    /// Whether the supervisory governor ever *actuated* a knob on this
    /// thread. Gates the `gv=[…]` fingerprint suffix and the `govern/*`
    /// metric paths: a governor that only observed (epochs elapsed, no
    /// knob moved) leaves both byte-identical to a governor-off run.
    has_govern_events(govern_actuations) "gv", metrics gated {
        /// Supervisory-governor epochs evaluated on this thread.
        govern_epochs => "govern/epochs";
        /// Knob actuations the governor applied to this thread's mechanism.
        govern_actuations => "govern/actuations";
        /// Governor transitions that tightened the aggressiveness ladder.
        govern_tightens => "govern/tightens";
        /// Governor probes that relaxed the ladder one level.
        govern_relaxes => "govern/relaxes";
        /// Probes reverted (over-SLO or no EDP win at the relaxed level).
        govern_reverts => "govern/reverts";
        /// Per-PC disables actuated at the ladder floor.
        govern_disables => "govern/pc_disables";
    }
}

impl ThreadStats {
    /// Estimated dynamic-energy events for `lva-energy`, derived from the
    /// phase-1 counters. Phase 1 models latency, not per-level traffic, so
    /// this is a documented proxy: every load/store touches the L1, every
    /// fetched block is charged one next-level (L2) access, and every
    /// approximation one approximator access. DRAM and NoC events are
    /// exact only in the phase-2 full-system model and stay zero here.
    #[must_use]
    pub(crate) fn energy_events(&self) -> EnergyEvents {
        EnergyEvents {
            l1_accesses: self.loads + self.stores,
            l2_accesses: self.load_fetches + self.store_fetches,
            dram_accesses: 0,
            noc_flit_hops: 0,
            noc_low_power_flit_hops: 0,
            approximator_accesses: self.approximations,
        }
    }
}

/// Aggregated phase-1 statistics across all threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phase1Stats {
    /// Per-thread counters, index = thread id.
    pub per_thread: Vec<ThreadStats>,
    /// Sum over threads.
    pub total: ThreadStats,
}

impl Phase1Stats {
    /// Builds the aggregate from per-thread counters.
    #[must_use]
    pub(crate) fn from_threads(per_thread: Vec<ThreadStats>) -> Self {
        let mut total = ThreadStats::default();
        for t in &per_thread {
            total.absorb(t);
        }
        Phase1Stats { per_thread, total }
    }

    /// Effective L1 load misses after the mechanism: approximated loads and
    /// correctly predicted loads count as hits (§V-A).
    #[must_use]
    pub fn effective_misses(&self) -> u64 {
        self.total
            .raw_misses
            .saturating_sub(self.total.approximations + self.total.lvp_correct)
    }

    /// Effective misses per kilo-instruction — the paper's headline phase-1
    /// performance metric.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.total.instructions == 0 {
            return 0.0;
        }
        self.effective_misses() as f64 * 1000.0 / self.total.instructions as f64
    }

    /// Blocks fetched into the L1 for loads — the paper's energy proxy
    /// (Fig. 8b).
    #[must_use]
    pub fn fetches(&self) -> u64 {
        self.total.load_fetches
    }

    /// Fraction of annotated loads whose misses were served by an
    /// approximation: the paper's *coverage*.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total.raw_misses == 0 {
            return 0.0;
        }
        self.total.approximations as f64 / self.total.raw_misses as f64
    }

    /// Number of distinct static approximate-load PCs (Fig. 12).
    #[must_use]
    pub fn static_approx_pcs(&self) -> usize {
        let mut union = PcSet::new();
        for t in &self.per_thread {
            union.extend(t.approx_pcs.iter().copied());
        }
        union.len()
    }

    /// A canonical, byte-stable rendering of every counter, with PC sets
    /// sorted (HashSet iteration order is not stable, so `Debug` output is
    /// not comparable across runs — this is). Two runs are identical iff
    /// their fingerprints are identical, which is what the determinism
    /// suite asserts across worker-thread counts.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (i, t) in self.per_thread.iter().enumerate() {
            t.write_fingerprint(&mut out, &format!("t{i}"));
        }
        self.total.write_fingerprint(&mut out, "total");
        out
    }

    /// Exports every counter (and the derived headline metrics) into a
    /// hierarchical metrics registry: `<prefix>/core<i>/l1/raw_misses`,
    /// `<prefix>/total/loads`, `<prefix>/derived/mpki`, …
    ///
    /// Observability is strictly post-run: the registry never feeds back
    /// into simulation, so a run with metrics enabled is byte-identical to
    /// one without (asserted by the determinism suite).
    pub fn record_metrics(&self, registry: &mut MetricsRegistry, prefix: &str) {
        for (i, t) in self.per_thread.iter().enumerate() {
            t.record_metrics(registry, &format!("{prefix}/core{i}"));
        }
        self.total
            .record_metrics(registry, &format!("{prefix}/total"));
        let d = |m: &str| format!("{prefix}/derived/{m}");
        registry
            .gauge(&d("effective_misses"))
            .set(self.effective_misses() as f64);
        registry.gauge(&d("mpki")).set(self.mpki());
        registry.gauge(&d("coverage")).set(self.coverage());
        registry.gauge(&d("fetches")).set(self.fetches() as f64);
        registry
            .gauge(&d("static_approx_pcs"))
            .set(self.static_approx_pcs() as f64);
        registry
            .gauge(&d("avg_load_latency"))
            .set(self.avg_load_latency());
        registry.gauge(&d("clp_accuracy")).set(self.clp_accuracy());
        // Estimated dynamic-energy accounting (`lva-energy` breakdown over
        // the proxy events of [`ThreadStats::energy_events`]). DRAM/NoC
        // paths are omitted: phase 1 never generates those events, the
        // full-system model exports the exact set.
        let ev = self.total.energy_events();
        let params = EnergyParams::cacti_32nm();
        let b = params.breakdown(&ev);
        let e = |m: &str| format!("{prefix}/energy/{m}");
        registry.counter(&e("l1_accesses")).add(ev.l1_accesses);
        registry.counter(&e("l2_accesses")).add(ev.l2_accesses);
        registry
            .counter(&e("approximator_accesses"))
            .add(ev.approximator_accesses);
        registry.gauge(&e("l1_nj")).set(b.l1_nj);
        registry.gauge(&e("l2_nj")).set(b.l2_nj);
        registry.gauge(&e("approximator_nj")).set(b.approximator_nj);
        registry.gauge(&e("total_nj")).set(b.total_nj());
        registry.gauge(&e("hierarchy_nj")).set(b.hierarchy_nj());
        registry.gauge(&e("edp")).set(self.estimated_edp(&params));
    }

    /// Estimated energy-delay product for the whole run: total estimated
    /// dynamic energy (nJ, from the proxy events of
    /// `ThreadStats::energy_events`) times the average load-visible
    /// latency in cycles. Like the paper's Fig. 11 it is only meaningful
    /// as a *ratio* between configurations — which is exactly how the
    /// supervisory governor and the acceptance suite consume it.
    #[must_use]
    pub fn estimated_edp(&self, params: &EnergyParams) -> f64 {
        params.total_nj(&self.total.energy_events()) * self.avg_load_latency()
    }

    /// Average modelled load-visible latency in cycles per load.
    #[must_use]
    pub fn avg_load_latency(&self) -> f64 {
        if self.total.loads == 0 {
            return 0.0;
        }
        self.total.load_latency_cycles as f64 / self.total.loads as f64
    }

    /// Fraction of verified level predictions that were correct (0 when no
    /// predictor ran).
    #[must_use]
    pub fn clp_accuracy(&self) -> f64 {
        if self.total.clp_predictions == 0 {
            return 0.0;
        }
        self.total.clp_correct as f64 / self.total.clp_predictions as f64
    }
}

/// Timing summary of one parallel sweep (see [`crate::sweep`]): how many
/// points ran, on how many workers, and where the wall-clock went.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Grid points evaluated.
    pub points: usize,
    /// OS worker threads used.
    pub workers: usize,
    /// End-to-end wall-clock time of the sweep.
    pub wall: std::time::Duration,
    /// Sum of per-point evaluation times (the serial-equivalent cost).
    pub cpu: std::time::Duration,
    /// Fastest single point.
    pub min_point: std::time::Duration,
    /// Slowest single point (the parallel critical path lower bound).
    pub max_point: std::time::Duration,
}

impl SweepSummary {
    /// Parallel speedup actually achieved: serial-equivalent time over
    /// wall-clock time.
    #[must_use]
    pub(crate) fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.cpu.as_secs_f64() / wall
    }
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} points on {} workers: wall {:.2?}, cpu {:.2?} ({:.2}x), point {:.2?}..{:.2?}",
            self.points,
            self.workers,
            self.wall,
            self.cpu,
            self.speedup(),
            self.min_point,
            self.max_point,
        )
    }
}

impl fmt::Display for Phase1Stats {
    /// A compact human-readable summary, used by the CLI and examples.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instructions      {:>14}", self.total.instructions)?;
        writeln!(f, "loads             {:>14}", self.total.loads)?;
        writeln!(f, "raw L1 misses     {:>14}", self.total.raw_misses)?;
        writeln!(f, "effective misses  {:>14}", self.effective_misses())?;
        writeln!(f, "approximated      {:>14}", self.total.approximations)?;
        writeln!(f, "blocks fetched    {:>14}", self.fetches())?;
        write!(f, "MPKI              {:>14.4}", self.mpki())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(instr: u64, raw: u64, approx: u64) -> ThreadStats {
        ThreadStats {
            instructions: instr,
            raw_misses: raw,
            approximations: approx,
            ..Default::default()
        }
    }

    #[test]
    fn mpki_uses_effective_misses() {
        let s = Phase1Stats::from_threads(vec![thread(10_000, 50, 30)]);
        assert_eq!(s.effective_misses(), 20);
        assert!((s.mpki() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_sums_threads() {
        let s = Phase1Stats::from_threads(vec![thread(1000, 5, 1), thread(3000, 10, 2)]);
        assert_eq!(s.total.instructions, 4000);
        assert_eq!(s.total.raw_misses, 15);
        assert_eq!(s.effective_misses(), 12);
    }

    #[test]
    fn zero_instructions_is_zero_mpki() {
        let s = Phase1Stats::default();
        assert_eq!(s.mpki(), 0.0);
        assert_eq!(s.coverage(), 0.0);
    }

    #[test]
    fn static_pcs_deduplicate_across_threads() {
        let mut a = ThreadStats::default();
        a.approx_pcs.insert(Pc(1));
        a.approx_pcs.insert(Pc(2));
        let mut b = ThreadStats::default();
        b.approx_pcs.insert(Pc(2));
        b.approx_pcs.insert(Pc(3));
        let s = Phase1Stats::from_threads(vec![a, b]);
        assert_eq!(s.static_approx_pcs(), 3);
    }

    #[test]
    fn display_is_nonempty_and_contains_mpki() {
        let s = Phase1Stats::from_threads(vec![thread(1000, 10, 2)]);
        let text = s.to_string();
        assert!(text.contains("MPKI"));
        assert!(text.contains("8"), "effective misses visible: {text}");
    }

    #[test]
    fn record_metrics_exports_per_core_totals_and_derived() {
        let s = Phase1Stats::from_threads(vec![thread(10_000, 50, 30), thread(0, 0, 0)]);
        let mut reg = MetricsRegistry::new();
        s.record_metrics(&mut reg, "phase1");
        let dump: std::collections::HashMap<String, f64> = reg.dump().into_iter().collect();
        assert_eq!(dump["phase1/core0/l1/raw_misses"], 50.0);
        assert_eq!(dump["phase1/core1/l1/raw_misses"], 0.0);
        assert_eq!(dump["phase1/total/instructions"], 10_000.0);
        assert_eq!(dump["phase1/derived/effective_misses"], 20.0);
        assert!((dump["phase1/derived/mpki"] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_omits_degrade_suffix_when_quiet() {
        let s = Phase1Stats::from_threads(vec![thread(1000, 10, 2)]);
        assert!(
            !s.fingerprint().contains("dg="),
            "quiet runs must keep the pre-0.5 fingerprint bytes"
        );
    }

    #[test]
    fn fingerprint_appends_degrade_suffix_on_events() {
        let mut t = thread(1000, 10, 2);
        t.demotions = 3;
        t.drains_dropped = 1;
        let s = Phase1Stats::from_threads(vec![t]);
        let fp = s.fingerprint();
        assert!(fp.contains("dg=[3,0,0,0,0,0,0,1,0]"), "{fp}");
        // Both the per-thread line and the total line carry the suffix.
        assert_eq!(fp.matches("dg=").count(), 2, "{fp}");
    }

    #[test]
    fn record_metrics_exports_degrade_and_fault_counters() {
        let mut t = thread(1000, 10, 2);
        t.demotions = 2;
        t.degrade_denied = 7;
        t.faults_injected = 5;
        let s = Phase1Stats::from_threads(vec![t]);
        let mut reg = MetricsRegistry::new();
        s.record_metrics(&mut reg, "phase1");
        let dump: std::collections::HashMap<String, f64> = reg.dump().into_iter().collect();
        assert_eq!(dump["phase1/total/degrade/demotions"], 2.0);
        assert_eq!(dump["phase1/total/degrade/denied"], 7.0);
        assert_eq!(dump["phase1/total/faults/injected"], 5.0);
        assert_eq!(dump["phase1/core0/degrade/demotions"], 2.0);
    }

    #[test]
    fn fingerprint_omits_clp_suffix_without_a_predictor() {
        let mut t = thread(1000, 10, 2);
        t.load_latency_cycles = 5000; // latency alone must not change bytes
        let s = Phase1Stats::from_threads(vec![t]);
        assert!(
            !s.fingerprint().contains("clp="),
            "clp-off runs must keep the historical fingerprint bytes"
        );
    }

    #[test]
    fn fingerprint_appends_clp_suffix_on_predictions() {
        let mut t = thread(1000, 10, 2);
        t.clp_predictions = 10;
        t.clp_correct = 8;
        t.clp_mispredicts = 1;
        t.load_latency_cycles = 321;
        let s = Phase1Stats::from_threads(vec![t]);
        let fp = s.fingerprint();
        assert!(fp.contains("clp=[10,8,1,321]"), "{fp}");
        assert_eq!(fp.matches("clp=").count(), 2, "{fp}");
        assert!((s.clp_accuracy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn avg_load_latency_is_cycles_per_load() {
        let mut t = thread(1000, 10, 2);
        t.loads = 100;
        t.load_latency_cycles = 250;
        let s = Phase1Stats::from_threads(vec![t]);
        assert!((s.avg_load_latency() - 2.5).abs() < 1e-12);
        assert_eq!(Phase1Stats::default().avg_load_latency(), 0.0);
    }

    #[test]
    fn coverage_is_fraction_of_raw_misses() {
        let s = Phase1Stats::from_threads(vec![thread(1000, 40, 10)]);
        assert!((s.coverage() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_omits_govern_suffix_without_actuations() {
        let mut t = thread(1000, 10, 2);
        t.govern_epochs = 40; // epochs alone must not change bytes
        let s = Phase1Stats::from_threads(vec![t]);
        assert!(
            !s.fingerprint().contains("gv="),
            "a governor that never actuates must keep governor-off bytes"
        );
        let mut reg = MetricsRegistry::new();
        s.record_metrics(&mut reg, "phase1");
        assert!(
            !reg.dump().iter().any(|(k, _)| k.contains("/govern/")),
            "quiet governor must not materialise govern/* paths"
        );
    }

    #[test]
    fn fingerprint_appends_govern_suffix_on_actuations() {
        let mut t = thread(1000, 10, 2);
        t.govern_epochs = 12;
        t.govern_actuations = 4;
        t.govern_tightens = 3;
        t.govern_relaxes = 1;
        let s = Phase1Stats::from_threads(vec![t]);
        let fp = s.fingerprint();
        assert!(fp.contains("gv=[12,4,3,1,0,0]"), "{fp}");
        assert_eq!(fp.matches("gv=").count(), 2, "{fp}");
        let mut reg = MetricsRegistry::new();
        s.record_metrics(&mut reg, "phase1");
        let dump: std::collections::HashMap<String, f64> = reg.dump().into_iter().collect();
        assert_eq!(dump["phase1/total/govern/actuations"], 4.0);
        assert_eq!(dump["phase1/core0/govern/tightens"], 3.0);
    }

    /// Every counter set to a distinct nonzero value (`base + k` for the
    /// k-th field) and a few approximate PCs, so every fingerprint group
    /// renders and every metric path is exported.
    fn every_counter(base: u64) -> ThreadStats {
        ThreadStats {
            instructions: base + 1,
            loads: base + 2,
            approx_loads: base + 3,
            stores: base + 4,
            l1_hits: base + 5,
            raw_misses: base + 6,
            approximations: base + 7,
            lvp_correct: base + 8,
            rollbacks: base + 9,
            load_fetches: base + 10,
            store_fetches: base + 11,
            useful_prefetches: base + 12,
            approx_pcs: [Pc(base + 0x40), Pc(0x10), Pc(base + 0x20)]
                .into_iter()
                .collect(),
            demotions: base + 13,
            disables: base + 14,
            reprobations: base + 15,
            recoveries: base + 16,
            degrade_denied: base + 17,
            degrade_forced: base + 18,
            faults_injected: base + 19,
            drains_dropped: base + 20,
            fetches_delayed: base + 21,
            clp_predictions: base + 22,
            clp_correct: base + 23,
            clp_mispredicts: base + 24,
            load_latency_cycles: base + 25,
            govern_epochs: base + 26,
            govern_actuations: base + 27,
            govern_tightens: base + 28,
            govern_relaxes: base + 29,
            govern_reverts: base + 30,
            govern_disables: base + 31,
        }
    }

    /// The byte-level contract for every counter's fingerprint and metric
    /// rendering. The workload goldens never drive every group at once;
    /// this does.
    #[test]
    fn rendering_of_every_counter_is_pinned() {
        let s = Phase1Stats::from_threads(vec![every_counter(100), every_counter(1000)]);
        let mut reg = MetricsRegistry::new();
        s.record_metrics(&mut reg, "p");
        let dump: Vec<String> = reg.dump().iter().map(|(k, v)| format!("{k}={v}")).collect();
        let want_fingerprint = concat!(
            "t0:i=101,l=102,al=103,s=104,h=105,m=106,ap=107,lc=108,rb=109,lf=110,sf=111,up=112,pcs=[16, 132, 164],dg=[113,114,115,116,117,118,119,120,121],clp=[122,123,124,125],gv=[126,127,128,129,130,131];",
            "t1:i=1001,l=1002,al=1003,s=1004,h=1005,m=1006,ap=1007,lc=1008,rb=1009,lf=1010,sf=1011,up=1012,pcs=[16, 1032, 1064],dg=[1013,1014,1015,1016,1017,1018,1019,1020,1021],clp=[1022,1023,1024,1025],gv=[1026,1027,1028,1029,1030,1031];",
            "total:i=1102,l=1104,al=1106,s=1108,h=1110,m=1112,ap=1114,lc=1116,rb=1118,lf=1120,sf=1122,up=1124,pcs=[16, 132, 164, 1032, 1064],dg=[1126,1128,1130,1132,1134,1136,1138,1140,1142],clp=[1144,1146,1148,1150],gv=[1152,1154,1156,1158,1160,1162];",
        );
        // Table order: the three `mech/` rows precede the three `l1/`
        // fetch rows (cache schema v3 moved them; values are unchanged).
        let want_dump = "\
p/core0/instructions=101
p/core0/loads=102
p/core0/approx_loads=103
p/core0/stores=104
p/core0/l1/hits=105
p/core0/l1/raw_misses=106
p/core0/mech/approximations=107
p/core0/mech/lvp_correct=108
p/core0/mech/rollbacks=109
p/core0/l1/load_fetches=110
p/core0/l1/store_fetches=111
p/core0/l1/useful_prefetches=112
p/core0/mech/approx_pcs=3
p/core0/degrade/demotions=113
p/core0/degrade/disables=114
p/core0/degrade/reprobations=115
p/core0/degrade/recoveries=116
p/core0/degrade/denied=117
p/core0/degrade/forced_fetches=118
p/core0/faults/injected=119
p/core0/faults/drains_dropped=120
p/core0/faults/fetches_delayed=121
p/core0/clp/predictions=122
p/core0/clp/correct=123
p/core0/clp/mispredicts=124
p/core0/clp/load_latency_cycles=125
p/core0/govern/epochs=126
p/core0/govern/actuations=127
p/core0/govern/tightens=128
p/core0/govern/relaxes=129
p/core0/govern/reverts=130
p/core0/govern/pc_disables=131
p/core1/instructions=1001
p/core1/loads=1002
p/core1/approx_loads=1003
p/core1/stores=1004
p/core1/l1/hits=1005
p/core1/l1/raw_misses=1006
p/core1/mech/approximations=1007
p/core1/mech/lvp_correct=1008
p/core1/mech/rollbacks=1009
p/core1/l1/load_fetches=1010
p/core1/l1/store_fetches=1011
p/core1/l1/useful_prefetches=1012
p/core1/mech/approx_pcs=3
p/core1/degrade/demotions=1013
p/core1/degrade/disables=1014
p/core1/degrade/reprobations=1015
p/core1/degrade/recoveries=1016
p/core1/degrade/denied=1017
p/core1/degrade/forced_fetches=1018
p/core1/faults/injected=1019
p/core1/faults/drains_dropped=1020
p/core1/faults/fetches_delayed=1021
p/core1/clp/predictions=1022
p/core1/clp/correct=1023
p/core1/clp/mispredicts=1024
p/core1/clp/load_latency_cycles=1025
p/core1/govern/epochs=1026
p/core1/govern/actuations=1027
p/core1/govern/tightens=1028
p/core1/govern/relaxes=1029
p/core1/govern/reverts=1030
p/core1/govern/pc_disables=1031
p/total/instructions=1102
p/total/loads=1104
p/total/approx_loads=1106
p/total/stores=1108
p/total/l1/hits=1110
p/total/l1/raw_misses=1112
p/total/mech/approximations=1114
p/total/mech/lvp_correct=1116
p/total/mech/rollbacks=1118
p/total/l1/load_fetches=1120
p/total/l1/store_fetches=1122
p/total/l1/useful_prefetches=1124
p/total/mech/approx_pcs=5
p/total/degrade/demotions=1126
p/total/degrade/disables=1128
p/total/degrade/reprobations=1130
p/total/degrade/recoveries=1132
p/total/degrade/denied=1134
p/total/degrade/forced_fetches=1136
p/total/faults/injected=1138
p/total/faults/drains_dropped=1140
p/total/faults/fetches_delayed=1142
p/total/clp/predictions=1144
p/total/clp/correct=1146
p/total/clp/mispredicts=1148
p/total/clp/load_latency_cycles=1150
p/total/govern/epochs=1152
p/total/govern/actuations=1154
p/total/govern/tightens=1156
p/total/govern/relaxes=1158
p/total/govern/reverts=1160
p/total/govern/pc_disables=1162
p/derived/effective_misses=0
p/derived/mpki=0
p/derived/coverage=1.0017985611510791
p/derived/fetches=1120
p/derived/static_approx_pcs=5
p/derived/avg_load_latency=1.0416666666666667
p/derived/clp_accuracy=1.0017482517482517
p/energy/l1_accesses=2212
p/energy/l2_accesses=2242
p/energy/approximator_accesses=1114
p/energy/l1_nj=110.60000000000001
p/energy/l2_nj=672.6
p/energy/approximator_nj=22.28
p/energy/total_nj=805.48
p/energy/hierarchy_nj=694.88
p/energy/edp=839.0416666666667";
        assert_eq!(s.fingerprint(), want_fingerprint);
        assert_eq!(dump.join("\n"), want_dump);
    }

    #[test]
    fn energy_export_matches_the_proxy_breakdown() {
        let mut t = thread(10_000, 50, 30);
        t.loads = 2000;
        t.stores = 500;
        t.load_fetches = 100;
        t.store_fetches = 20;
        t.load_latency_cycles = 5000;
        let s = Phase1Stats::from_threads(vec![t]);
        let ev = s.total.energy_events();
        assert_eq!(ev.l1_accesses, 2500);
        assert_eq!(ev.l2_accesses, 120);
        assert_eq!(ev.approximator_accesses, 30);
        assert_eq!(ev.dram_accesses, 0);
        let params = EnergyParams::cacti_32nm();
        let mut reg = MetricsRegistry::new();
        s.record_metrics(&mut reg, "phase1");
        let dump: std::collections::HashMap<String, f64> = reg.dump().into_iter().collect();
        assert_eq!(dump["phase1/energy/l1_accesses"], 2500.0);
        let want_total = params.total_nj(&ev);
        assert!((dump["phase1/energy/total_nj"] - want_total).abs() < 1e-9);
        // EDP = total energy x average load latency (2.5 cycles/load here).
        assert!((dump["phase1/energy/edp"] - want_total * 2.5).abs() < 1e-9);
        assert!((s.estimated_edp(&params) - want_total * 2.5).abs() < 1e-9);
    }
}
