//! Structured per-load event tracing and per-PC attribution.
//!
//! This module is the event-level companion to the aggregate
//! [`crate::metrics`] layer: instead of end-of-run counters it captures a
//! *stream* of typed events — cache misses, approximations issued,
//! confidence transitions, degree-window opens/closes, training-queue
//! enqueues/drains — emitted by instrumentation hooks threaded through
//! `lva-core`, `lva-mem` and `lva-sim`.
//!
//! Three layers:
//!
//! 1. [`TraceSink`] — the hook-facing trait. Simulation code records
//!    [`TraceEvent`]s into a sink without knowing what backs it.
//! 2. Collectors — [`RingBufferSink`] (fixed-capacity, overwrite-oldest,
//!    with a [`SamplingPolicy`] to bound overhead) for timeline export, and
//!    [`PcAttribution`] (unbounded per-static-load aggregation with an
//!    error [`Histogram`]) for the `lva-explore attribute` table.
//! 3. Export — [`chrome_trace`] renders events as Chrome trace-event JSON
//!    loadable in Perfetto / `chrome://tracing`, and
//!    [`PcAttribution::record_into`] serialises the attribution table into
//!    the schema-versioned [`RunRecord`] manifest format.
//!
//! Tracing is strictly *write-only* with respect to the simulation: sinks
//! never feed data back, so a trace-enabled run must produce byte-identical
//! statistics to a trace-off run (enforced by the determinism suite).

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;
use crate::manifest::RunRecord;
use crate::metrics::{Histogram, HISTOGRAM_BUCKETS};

/// Relative errors are recorded into integer [`Histogram`]s in parts per
/// million (1e-6). A rel-err of 1.0 (100%) is stored as `1_000_000`.
pub(crate) const ERR_PPM_SCALE: f64 = 1.0e6;

/// Deterministic event context threaded from the emitting site: which core
/// the event belongs to and the logical timestamp (instruction count for
/// phase-1 events, cycles or nanoseconds for engine spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Core / thread index the event is attributed to.
    pub core: u32,
    /// Logical timestamp in the emitting clock domain.
    pub ts: u64,
}

impl TraceCtx {
    /// Context for core `core` at logical time `ts`.
    pub fn new(core: u32, ts: u64) -> Self {
        Self { core, ts }
    }
}

/// One typed trace event with its timestamp and originating core.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Logical timestamp (see [`TraceCtx::ts`]).
    pub ts: u64,
    /// Core / thread index.
    pub core: u32,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Builds an event from a [`TraceCtx`] and a kind.
    pub fn at(ctx: TraceCtx, kind: TraceEventKind) -> Self {
        Self {
            ts: ctx.ts,
            core: ctx.core,
            kind,
        }
    }
}

/// The typed payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// An L1-D load miss reached the approximation mechanism.
    Miss {
        /// Static load PC.
        pc: u64,
        /// Effective address of the miss.
        addr: u64,
    },
    /// The approximator issued a value for a confident entry.
    Approx {
        /// Static load PC.
        pc: u64,
        /// True when the degree window suppressed the training fetch.
        skipped_fetch: bool,
    },
    /// A delayed training sample arrived at the approximator.
    Train {
        /// Static load PC.
        pc: u64,
        /// The value the approximator had predicted, if it made one.
        predicted: Option<f64>,
        /// The actual value fetched from memory.
        actual: f64,
        /// `|predicted - actual| / |actual|`, if a prediction was made and
        /// the actual value is non-zero.
        rel_err: Option<f64>,
    },
    /// A confidence counter crossed the threshold upward (entry became
    /// confident).
    ConfidenceUp {
        /// Static load PC.
        pc: u64,
    },
    /// A confidence counter crossed the threshold downward (entry lost
    /// confidence).
    ConfidenceDown {
        /// Static load PC.
        pc: u64,
    },
    /// A training fetch re-armed the approximation degree window: the next
    /// `degree` misses on this entry will skip their training fetches.
    DegreeOpen {
        /// Static load PC.
        pc: u64,
        /// Configured approximation degree.
        degree: u32,
    },
    /// The degree window was exhausted: the next approximation on this
    /// entry will issue a training fetch again.
    DegreeClose {
        /// Static load PC.
        pc: u64,
    },
    /// A training sample was queued behind the modelled memory latency.
    TrainEnqueue {
        /// Static load PC.
        pc: u64,
        /// Modelled delay in committed loads before the sample fires.
        delay: u64,
    },
    /// A queued training sample drained into the approximator.
    TrainDrain {
        /// Static load PC.
        pc: u64,
    },
    /// The quality governor's per-PC budget ladder moved a PC down its
    /// ladder: demoted to forced fetches, or disabled outright.
    Demote {
        /// Static load PC.
        pc: u64,
        /// True when approximation was disabled entirely (probation), not
        /// merely demoted to forced fetches.
        disabled: bool,
    },
    /// A disabled PC served its probation and re-entered the demoted
    /// (forced-fetch) state for re-evaluation.
    Reprobe {
        /// Static load PC.
        pc: u64,
    },
    /// The supervisory governor moved a mechanism knob.
    Actuate {
        /// Stable knob name (`"window"`, `"degree"`, `"pc_enable"`,
        /// `"clp_slow_threshold"`).
        knob: &'static str,
        /// New value flattened to a float (window fraction, degree,
        /// enable flag, hierarchy index).
        value: f64,
        /// The targeted PC for per-PC knobs; `None` for mechanism-wide
        /// knobs.
        pc: Option<u64>,
    },
    /// The cache-level predictor guessed which hierarchy level will serve
    /// an L1 miss.
    LevelPredict {
        /// Static load PC.
        pc: u64,
        /// Predicted level as a hierarchy index (0 = L1 … 3 = DRAM).
        level: u32,
        /// Whether the entry's confidence gate was open.
        confident: bool,
    },
    /// A level prediction was resolved against the level that actually
    /// served the miss.
    LevelVerify {
        /// Static load PC.
        pc: u64,
        /// Predicted hierarchy index.
        predicted: u32,
        /// Actual serving hierarchy index.
        actual: u32,
    },
    /// A cache install evicted a resident line.
    Eviction {
        /// Block address of the victim line.
        addr: u64,
        /// True when the victim was dirty (modified).
        dirty: bool,
    },
    /// An engine-level span (sweep point, worker, simulator phase). The
    /// event's `ts` is the span start; `dur` is its length in the same
    /// clock domain.
    Span {
        /// Human-readable span label.
        name: String,
        /// Span duration.
        dur: u64,
    },
}

impl TraceEventKind {
    /// Short stable name used for display and Chrome export.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Miss { .. } => "miss",
            TraceEventKind::Approx { .. } => "approx",
            TraceEventKind::Train { .. } => "train",
            TraceEventKind::ConfidenceUp { .. } => "confidence-up",
            TraceEventKind::ConfidenceDown { .. } => "confidence-down",
            TraceEventKind::DegreeOpen { .. } => "degree-open",
            TraceEventKind::DegreeClose { .. } => "degree-close",
            TraceEventKind::TrainEnqueue { .. } => "train-enqueue",
            TraceEventKind::TrainDrain { .. } => "train-drain",
            TraceEventKind::Demote { .. } => "demote",
            TraceEventKind::Reprobe { .. } => "reprobe",
            TraceEventKind::Actuate { .. } => "actuate",
            TraceEventKind::LevelPredict { .. } => "level-predict",
            TraceEventKind::LevelVerify { .. } => "level-verify",
            TraceEventKind::Eviction { .. } => "eviction",
            TraceEventKind::Span { .. } => "span",
        }
    }

    /// The static load PC this event is attributed to, when it has one.
    pub fn pc(&self) -> Option<u64> {
        match self {
            TraceEventKind::Miss { pc, .. }
            | TraceEventKind::Approx { pc, .. }
            | TraceEventKind::Train { pc, .. }
            | TraceEventKind::ConfidenceUp { pc }
            | TraceEventKind::ConfidenceDown { pc }
            | TraceEventKind::DegreeOpen { pc, .. }
            | TraceEventKind::DegreeClose { pc }
            | TraceEventKind::TrainEnqueue { pc, .. }
            | TraceEventKind::TrainDrain { pc }
            | TraceEventKind::Demote { pc, .. }
            | TraceEventKind::Reprobe { pc }
            | TraceEventKind::LevelPredict { pc, .. }
            | TraceEventKind::LevelVerify { pc, .. } => Some(*pc),
            TraceEventKind::Actuate { pc, .. } => *pc,
            TraceEventKind::Eviction { .. } | TraceEventKind::Span { .. } => None,
        }
    }
}

/// Destination for trace events. Hooks call [`TraceSink::record`]; cheap
/// call sites should consult [`TraceSink::enabled`] first to skip event
/// construction entirely on the hot path.
pub trait TraceSink {
    /// Records one event. Implementations must be write-only: nothing the
    /// simulation can observe may depend on what was recorded.
    fn record(&mut self, event: TraceEvent);

    /// Whether this sink wants events at all. `false` lets emitting code
    /// skip building the event.
    fn enabled(&self) -> bool {
        true
    }
}

/// A sink that discards everything; the default for untraced runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Bounds tracing overhead by admitting only a subset of events.
///
/// Two orthogonal modes compose:
/// * **every-Nth-miss** — a [`TraceEventKind::Miss`] opens a "sample" only
///   every N misses; all PC-bearing events are admitted only while the
///   current miss is sampled, so one sampled miss captures its whole
///   follow-on chain (approx, train, confidence, degree).
/// * **PC filter** — only events attributed to an allow-listed set of
///   static PCs are admitted.
///
/// [`TraceEventKind::Span`] events always pass; [`TraceEventKind::Eviction`]
/// events (no PC) follow the current sample decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplingPolicy {
    every_nth_miss: u64,
    pc_filter: Vec<u64>,
    misses_seen: u64,
    in_sample: bool,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        Self::all()
    }
}

impl SamplingPolicy {
    /// Admits every event.
    pub(crate) fn all() -> Self {
        Self {
            every_nth_miss: 1,
            pc_filter: Vec::new(),
            misses_seen: 0,
            in_sample: true,
        }
    }

    /// Samples one miss (and its follow-on events) out of every `n`.
    /// `n <= 1` admits every miss.
    pub(crate) fn every_nth_miss(n: u64) -> Self {
        Self {
            every_nth_miss: n.max(1),
            ..Self::all()
        }
    }

    /// Restricts PC-bearing events to the given static PCs (sorted and
    /// deduplicated internally). An empty list means "no filter".
    pub(crate) fn with_pc_filter(mut self, pcs: &[u64]) -> Self {
        self.pc_filter = pcs.to_vec();
        self.pc_filter.sort_unstable();
        self.pc_filter.dedup();
        self
    }

    fn pc_admitted(&self, pc: u64) -> bool {
        self.pc_filter.is_empty() || self.pc_filter.binary_search(&pc).is_ok()
    }

    /// Decides whether `event` is admitted, updating sampling state.
    pub(crate) fn admits(&mut self, event: &TraceEvent) -> bool {
        match &event.kind {
            TraceEventKind::Span { .. } => true,
            TraceEventKind::Miss { pc, .. } => {
                let nth = self.misses_seen.is_multiple_of(self.every_nth_miss);
                self.misses_seen += 1;
                self.in_sample = nth;
                nth && self.pc_admitted(*pc)
            }
            TraceEventKind::Eviction { .. } => self.in_sample,
            kind => {
                let pc = kind.pc().expect("non-span, non-eviction events carry a pc");
                self.in_sample && self.pc_admitted(pc)
            }
        }
    }
}

/// Fixed-capacity ring-buffer collector: keeps the most recent `capacity`
/// admitted events, overwriting the oldest when full.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    capacity: usize,
    policy: SamplingPolicy,
    buf: Vec<TraceEvent>,
    head: usize,
}

impl RingBufferSink {
    /// A ring of at most `capacity` events (minimum 1) admitting everything.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, SamplingPolicy::all())
    }

    /// A ring of at most `capacity` events behind a sampling policy.
    pub(crate) fn with_policy(capacity: usize, policy: SamplingPolicy) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            policy,
            buf: Vec::new(),
            head: 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The held events in chronological (oldest-first) order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.capacity {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: TraceEvent) {
        if !self.policy.admits(&event) {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }
}

/// Aggregated behaviour of one static load (one PC).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcStats {
    /// L1-D misses attributed to this PC.
    pub misses: u64,
    /// Approximations issued for this PC.
    pub approximations: u64,
    /// Training fetches suppressed by the degree window.
    pub fetches_skipped: u64,
    /// Training samples applied.
    pub trainings: u64,
    /// Confidence-threshold upward crossings.
    pub confidence_up: u64,
    /// Confidence-threshold downward crossings.
    pub confidence_down: u64,
    /// Degree windows opened.
    pub degree_opens: u64,
    /// Degree windows exhausted.
    pub degree_closes: u64,
    /// Training samples enqueued behind the memory latency.
    pub enqueued: u64,
    /// Training samples drained from the queue.
    pub drained: u64,
    /// Quality-ladder downward transitions (demoted or disabled).
    pub demotions: u64,
    /// Probations served (disabled PC re-entered forced-fetch state).
    pub reprobations: u64,
    /// Governor actuations targeting this PC (per-PC enable toggles).
    pub actuations: u64,
    /// Cache-level predictions verified for this PC.
    pub level_predictions: u64,
    /// Verified level predictions that matched the actual serving level.
    pub level_correct: u64,
    /// Relative prediction error in parts per million (see
    /// `ERR_PPM_SCALE`).
    pub err_ppm: Histogram,
}

impl PcStats {
    /// Fraction of this PC's misses that were approximated.
    pub(crate) fn coverage(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.approximations as f64 / self.misses as f64
        }
    }

    /// Fraction of this PC's verified level predictions that were correct.
    pub(crate) fn level_accuracy(&self) -> f64 {
        if self.level_predictions == 0 {
            0.0
        } else {
            self.level_correct as f64 / self.level_predictions as f64
        }
    }

    fn merge(&mut self, other: &PcStats) {
        self.misses += other.misses;
        self.approximations += other.approximations;
        self.fetches_skipped += other.fetches_skipped;
        self.trainings += other.trainings;
        self.confidence_up += other.confidence_up;
        self.confidence_down += other.confidence_down;
        self.degree_opens += other.degree_opens;
        self.degree_closes += other.degree_closes;
        self.enqueued += other.enqueued;
        self.drained += other.drained;
        self.demotions += other.demotions;
        self.reprobations += other.reprobations;
        self.actuations += other.actuations;
        self.level_predictions += other.level_predictions;
        self.level_correct += other.level_correct;
        self.err_ppm.merge(&other.err_ppm);
    }
}

/// Aggregating sink producing the per-PC attribution table. Unlike
/// [`RingBufferSink`] it never drops events, so its totals are exact: the
/// sum of per-PC miss counts equals the run's aggregate miss count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcAttribution {
    pcs: BTreeMap<u64, PcStats>,
}

impl PcAttribution {
    /// An empty attribution table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct static PCs observed.
    pub fn static_pcs(&self) -> usize {
        self.pcs.len()
    }

    /// Sum of per-PC miss counts.
    pub fn total_misses(&self) -> u64 {
        self.pcs.values().map(|s| s.misses).sum()
    }

    /// Sum of per-PC approximation counts.
    pub fn total_approximations(&self) -> u64 {
        self.pcs.values().map(|s| s.approximations).sum()
    }

    /// Sum of per-PC skipped-fetch counts.
    pub(crate) fn total_fetches_skipped(&self) -> u64 {
        self.pcs.values().map(|s| s.fetches_skipped).sum()
    }

    /// Folds another attribution table (e.g. from another core) into this
    /// one.
    pub fn merge(&mut self, other: &PcAttribution) {
        for (pc, stats) in &other.pcs {
            self.pcs.entry(*pc).or_default().merge(stats);
        }
    }

    /// Sum of per-PC verified level predictions.
    pub(crate) fn total_level_predictions(&self) -> u64 {
        self.pcs.values().map(|s| s.level_predictions).sum()
    }

    /// Renders the per-PC level-accuracy table (PCs with verified level
    /// predictions, most-predicted first), or `None` when no level
    /// predictor ran — so approximator-only attribution output is
    /// unchanged.
    pub fn level_accuracy_table(&self) -> Option<String> {
        if self.total_level_predictions() == 0 {
            return None;
        }
        let mut rows: Vec<(u64, &PcStats)> = self
            .pcs
            .iter()
            .filter(|(_, s)| s.level_predictions > 0)
            .map(|(pc, s)| (*pc, s))
            .collect();
        rows.sort_by(|a, b| {
            b.1.level_predictions
                .cmp(&a.1.level_predictions)
                .then(a.0.cmp(&b.0))
        });
        let mut out = format!(
            "{:>14}  {:>12}  {:>10}  {:>8}\n",
            "pc", "predictions", "correct", "acc%"
        );
        for (pc, s) in rows {
            out.push_str(&format!(
                "{:>#14x}  {:>12}  {:>10}  {:>8.2}\n",
                pc,
                s.level_predictions,
                s.level_correct,
                100.0 * s.level_accuracy(),
            ));
        }
        Some(out)
    }

    /// PCs sorted by descending miss count (ties broken by PC) — the order
    /// the attribution table is printed in.
    pub fn hottest_first(&self) -> Vec<(u64, &PcStats)> {
        let mut rows: Vec<(u64, &PcStats)> = self.pcs.iter().map(|(pc, s)| (*pc, s)).collect();
        rows.sort_by(|a, b| b.1.misses.cmp(&a.1.misses).then(a.0.cmp(&b.0)));
        rows
    }

    /// Serialises the table into a manifest record under `pc/0x<pc>/...`
    /// paths, plus `attribution/...` totals. Histogram buckets are emitted
    /// sparsely as `err_ppm/b<i>` so the error heatmap can be rebuilt.
    pub fn record_into(&self, record: &mut RunRecord) {
        record.push_stat("attribution/static_pcs", self.static_pcs() as f64);
        record.push_stat("attribution/total_misses", self.total_misses() as f64);
        record.push_stat(
            "attribution/total_approximations",
            self.total_approximations() as f64,
        );
        record.push_stat(
            "attribution/total_fetches_skipped",
            self.total_fetches_skipped() as f64,
        );
        for (pc, s) in &self.pcs {
            let base = format!("pc/{pc:#x}");
            record.push_stat(format!("{base}/misses"), s.misses as f64);
            record.push_stat(format!("{base}/approximations"), s.approximations as f64);
            record.push_stat(format!("{base}/coverage"), s.coverage());
            record.push_stat(format!("{base}/fetches_skipped"), s.fetches_skipped as f64);
            record.push_stat(format!("{base}/trainings"), s.trainings as f64);
            record.push_stat(format!("{base}/confidence_up"), s.confidence_up as f64);
            record.push_stat(format!("{base}/confidence_down"), s.confidence_down as f64);
            record.push_stat(format!("{base}/degree_opens"), s.degree_opens as f64);
            record.push_stat(format!("{base}/degree_closes"), s.degree_closes as f64);
            // Degradation paths only appear for PCs the controller touched,
            // so manifests from controller-off (or quiet) runs are
            // unchanged.
            if s.demotions > 0 {
                record.push_stat(format!("{base}/degrade/demotions"), s.demotions as f64);
            }
            // Same for governor actuations: only touched PCs get a row.
            if s.actuations > 0 {
                record.push_stat(format!("{base}/govern/actuations"), s.actuations as f64);
            }
            if s.reprobations > 0 {
                record.push_stat(
                    format!("{base}/degrade/reprobations"),
                    s.reprobations as f64,
                );
            }
            // Level-predictor paths only appear for PCs with verified
            // predictions, so manifests from clp-off runs are unchanged.
            if s.level_predictions > 0 {
                record.push_stat(
                    format!("{base}/clp/level_predictions"),
                    s.level_predictions as f64,
                );
                record.push_stat(format!("{base}/clp/level_correct"), s.level_correct as f64);
                record.push_stat(format!("{base}/clp/level_accuracy"), s.level_accuracy());
            }
            if s.err_ppm.count() > 0 {
                record.push_stat(format!("{base}/err_ppm/count"), s.err_ppm.count() as f64);
                record.push_stat(format!("{base}/err_ppm/mean"), s.err_ppm.mean());
                record.push_stat(format!("{base}/err_ppm/p50"), s.err_ppm.p50() as f64);
                record.push_stat(format!("{base}/err_ppm/p99"), s.err_ppm.p99() as f64);
                for bucket in 0..HISTOGRAM_BUCKETS {
                    let n = s.err_ppm.bucket_count(bucket);
                    if n > 0 {
                        record.push_stat(format!("{base}/err_ppm/b{bucket}"), n as f64);
                    }
                }
            }
        }
    }
}

impl TraceSink for PcAttribution {
    fn record(&mut self, event: TraceEvent) {
        let pc = match event.kind.pc() {
            Some(pc) => pc,
            None => return,
        };
        let s = self.pcs.entry(pc).or_default();
        match &event.kind {
            TraceEventKind::Miss { .. } => s.misses += 1,
            TraceEventKind::Approx { skipped_fetch, .. } => {
                s.approximations += 1;
                if *skipped_fetch {
                    s.fetches_skipped += 1;
                }
            }
            TraceEventKind::Train { rel_err, .. } => {
                s.trainings += 1;
                if let Some(err) = rel_err {
                    let ppm = (err * ERR_PPM_SCALE).min(u64::MAX as f64).max(0.0);
                    s.err_ppm.record(ppm as u64);
                }
            }
            TraceEventKind::ConfidenceUp { .. } => s.confidence_up += 1,
            TraceEventKind::ConfidenceDown { .. } => s.confidence_down += 1,
            TraceEventKind::DegreeOpen { .. } => s.degree_opens += 1,
            TraceEventKind::DegreeClose { .. } => s.degree_closes += 1,
            TraceEventKind::TrainEnqueue { .. } => s.enqueued += 1,
            TraceEventKind::TrainDrain { .. } => s.drained += 1,
            TraceEventKind::Demote { .. } => s.demotions += 1,
            TraceEventKind::Reprobe { .. } => s.reprobations += 1,
            // Mechanism-wide actuations carry no PC and never reach here
            // (the `pc()` gate above); per-PC ones are attributed.
            TraceEventKind::Actuate { .. } => s.actuations += 1,
            // Predictions are timeline detail; accuracy is attributed at
            // verification time, when the actual level is known.
            TraceEventKind::LevelPredict { .. } => {}
            TraceEventKind::LevelVerify {
                predicted, actual, ..
            } => {
                s.level_predictions += 1;
                s.level_correct += u64::from(predicted == actual);
            }
            TraceEventKind::Eviction { .. } | TraceEventKind::Span { .. } => {}
        }
    }
}

impl fmt::Display for PcAttribution {
    /// Renders the attribution table, hottest PC first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>14}  {:>10}  {:>8}  {:>8}  {:>7}  {:>7}  {:>10}  {:>12}",
            "pc", "misses", "approx", "cover%", "conf+", "conf-", "skipped", "err p50(ppm)"
        )?;
        for (pc, s) in self.hottest_first() {
            writeln!(
                f,
                "{:>#14x}  {:>10}  {:>8}  {:>8.2}  {:>7}  {:>7}  {:>10}  {:>12}",
                pc,
                s.misses,
                s.approximations,
                100.0 * s.coverage(),
                s.confidence_up,
                s.confidence_down,
                s.fetches_skipped,
                if s.err_ppm.count() > 0 {
                    s.err_ppm.p50().to_string()
                } else {
                    "-".to_owned()
                },
            )?;
        }
        Ok(())
    }
}

/// How a simulation run should collect trace events. Carried inside the
/// simulator config; `PartialEq`/`Clone` so configs stay comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Which collector to attach per core.
    pub mode: TraceMode,
    /// Ring capacity per core (ignored for attribution mode).
    pub capacity: usize,
    /// Sample one miss out of every N (`<= 1` = every miss).
    pub every_nth_miss: u64,
    /// Restrict events to these static PCs (empty = all).
    pub pc_filter: Vec<u64>,
}

/// Collector selection for [`TraceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing (the default): hooks see a disabled sink.
    Off,
    /// Per-core ring buffer for timeline export.
    Ring,
    /// Per-core aggregation into a [`PcAttribution`] table.
    Attribution,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl TraceConfig {
    /// Tracing disabled.
    pub fn off() -> Self {
        Self {
            mode: TraceMode::Off,
            capacity: 0,
            every_nth_miss: 1,
            pc_filter: Vec::new(),
        }
    }

    /// Ring-buffer tracing with the given per-core capacity.
    pub fn ring(capacity: usize) -> Self {
        Self {
            mode: TraceMode::Ring,
            capacity,
            ..Self::off()
        }
    }

    /// Per-PC attribution (exact counts, no event retention).
    pub fn attribution() -> Self {
        Self {
            mode: TraceMode::Attribution,
            ..Self::off()
        }
    }

    /// Sets the every-Nth-miss sampling rate.
    pub fn with_every_nth_miss(mut self, n: u64) -> Self {
        self.every_nth_miss = n.max(1);
        self
    }

    /// Sets the static-PC allow list.
    pub fn with_pc_filter(mut self, pcs: &[u64]) -> Self {
        self.pc_filter = pcs.to_vec();
        self
    }

    /// Whether any collector is attached.
    pub fn enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    fn policy(&self) -> SamplingPolicy {
        SamplingPolicy::every_nth_miss(self.every_nth_miss).with_pc_filter(&self.pc_filter)
    }

    /// Instantiates the per-core collector this config describes.
    pub fn collector(&self) -> TraceCollector {
        match self.mode {
            TraceMode::Off => TraceCollector::Off,
            TraceMode::Ring => {
                TraceCollector::Ring(RingBufferSink::with_policy(self.capacity, self.policy()))
            }
            TraceMode::Attribution => TraceCollector::Attribution(PcAttribution::new()),
        }
    }
}

/// A per-core trace collector: either disabled, a ring buffer, or an
/// attribution aggregator. This is what the simulation harness owns.
#[derive(Debug, Clone, Default)]
pub enum TraceCollector {
    /// No collection; [`TraceSink::enabled`] is false.
    #[default]
    Off,
    /// Ring-buffer timeline collection.
    Ring(RingBufferSink),
    /// Per-PC aggregation.
    Attribution(PcAttribution),
}

impl TraceCollector {
    /// Held timeline events (empty for `Off` and `Attribution`).
    pub fn events(&self) -> Vec<TraceEvent> {
        match self {
            TraceCollector::Ring(ring) => ring.events(),
            _ => Vec::new(),
        }
    }

    /// The attribution table, when collecting one.
    pub fn attribution(&self) -> Option<&PcAttribution> {
        match self {
            TraceCollector::Attribution(attr) => Some(attr),
            _ => None,
        }
    }
}

impl TraceSink for TraceCollector {
    fn record(&mut self, event: TraceEvent) {
        match self {
            TraceCollector::Off => {}
            TraceCollector::Ring(ring) => ring.record(event),
            TraceCollector::Attribution(attr) => attr.record(event),
        }
    }

    fn enabled(&self) -> bool {
        !matches!(self, TraceCollector::Off)
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn chrome_args(kind: &TraceEventKind) -> Vec<(String, Json)> {
    let mut args = Vec::new();
    let mut push = |k: &str, v: Json| args.push((k.to_owned(), v));
    match kind {
        TraceEventKind::Miss { pc, addr } => {
            push("pc", Json::Str(format!("{pc:#x}")));
            push("addr", Json::Str(format!("{addr:#x}")));
        }
        TraceEventKind::Approx { pc, skipped_fetch } => {
            push("pc", Json::Str(format!("{pc:#x}")));
            push("skipped_fetch", Json::Bool(*skipped_fetch));
        }
        TraceEventKind::Train {
            pc,
            predicted,
            actual,
            rel_err,
        } => {
            push("pc", Json::Str(format!("{pc:#x}")));
            if let Some(p) = predicted {
                push("predicted", num(*p));
            }
            push("actual", num(*actual));
            if let Some(e) = rel_err {
                push("rel_err", num(*e));
            }
        }
        TraceEventKind::ConfidenceUp { pc } | TraceEventKind::ConfidenceDown { pc } => {
            push("pc", Json::Str(format!("{pc:#x}")));
        }
        TraceEventKind::DegreeOpen { pc, degree } => {
            push("pc", Json::Str(format!("{pc:#x}")));
            push("degree", num(*degree as f64));
        }
        TraceEventKind::DegreeClose { pc }
        | TraceEventKind::TrainDrain { pc }
        | TraceEventKind::Reprobe { pc } => {
            push("pc", Json::Str(format!("{pc:#x}")));
        }
        TraceEventKind::Demote { pc, disabled } => {
            push("pc", Json::Str(format!("{pc:#x}")));
            push("disabled", Json::Bool(*disabled));
        }
        TraceEventKind::Actuate { knob, value, pc } => {
            push("knob", Json::Str((*knob).to_owned()));
            push("value", num(*value));
            if let Some(pc) = pc {
                push("pc", Json::Str(format!("{pc:#x}")));
            }
        }
        TraceEventKind::TrainEnqueue { pc, delay } => {
            push("pc", Json::Str(format!("{pc:#x}")));
            push("delay", num(*delay as f64));
        }
        TraceEventKind::LevelPredict {
            pc,
            level,
            confident,
        } => {
            push("pc", Json::Str(format!("{pc:#x}")));
            push("level", num(*level as f64));
            push("confident", Json::Bool(*confident));
        }
        TraceEventKind::LevelVerify {
            pc,
            predicted,
            actual,
        } => {
            push("pc", Json::Str(format!("{pc:#x}")));
            push("predicted", num(*predicted as f64));
            push("actual", num(*actual as f64));
        }
        TraceEventKind::Eviction { addr, dirty } => {
            push("addr", Json::Str(format!("{addr:#x}")));
            push("dirty", Json::Bool(*dirty));
        }
        TraceEventKind::Span { .. } => {}
    }
    args
}

fn chrome_category(kind: &TraceEventKind) -> &'static str {
    match kind {
        TraceEventKind::Miss { .. } | TraceEventKind::Eviction { .. } => "mem",
        TraceEventKind::TrainEnqueue { .. } | TraceEventKind::TrainDrain { .. } => "queue",
        TraceEventKind::Demote { .. } | TraceEventKind::Reprobe { .. } => "degrade",
        TraceEventKind::Actuate { .. } => "govern",
        TraceEventKind::LevelPredict { .. } | TraceEventKind::LevelVerify { .. } => "clp",
        TraceEventKind::Span { .. } => "engine",
        _ => "approx",
    }
}

/// Renders events as a Chrome trace-event JSON document (object form, with
/// a `traceEvents` array) loadable in Perfetto / `chrome://tracing`.
///
/// Instant events use phase `"i"` with thread scope; [`TraceEventKind::Span`]
/// events become complete (`"X"`) events with a duration. Timestamps are
/// passed through as microseconds: one phase-1 "instruction" maps to 1 µs,
/// which keeps relative ordering and makes timelines readable.
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    let mut trace_events = Vec::with_capacity(events.len());
    for event in events {
        let mut obj: Vec<(String, Json)> = Vec::with_capacity(9);
        let name = match &event.kind {
            TraceEventKind::Span { name, .. } => name.clone(),
            kind => kind.name().to_owned(),
        };
        obj.push(("name".to_owned(), Json::Str(name)));
        obj.push((
            "cat".to_owned(),
            Json::Str(chrome_category(&event.kind).to_owned()),
        ));
        match &event.kind {
            TraceEventKind::Span { dur, .. } => {
                obj.push(("ph".to_owned(), Json::Str("X".to_owned())));
                obj.push(("dur".to_owned(), num(*dur as f64)));
            }
            _ => {
                obj.push(("ph".to_owned(), Json::Str("i".to_owned())));
                obj.push(("s".to_owned(), Json::Str("t".to_owned())));
            }
        }
        obj.push(("ts".to_owned(), num(event.ts as f64)));
        obj.push(("pid".to_owned(), num(1.0)));
        obj.push(("tid".to_owned(), num(event.core as f64)));
        let args = chrome_args(&event.kind);
        if !args.is_empty() {
            obj.push(("args".to_owned(), Json::Obj(args)));
        }
        trace_events.push(Json::Obj(obj));
    }
    Json::Obj(vec![
        ("traceEvents".to_owned(), Json::Arr(trace_events)),
        ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn miss(ts: u64, pc: u64) -> TraceEvent {
        TraceEvent {
            ts,
            core: 0,
            kind: TraceEventKind::Miss { pc, addr: pc * 8 },
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.record(miss(0, 0x10));
    }

    #[test]
    fn ring_keeps_most_recent_events_in_order() {
        let mut ring = RingBufferSink::new(4);
        for i in 0..10 {
            ring.record(miss(i, 0x10));
        }
        assert_eq!(ring.len(), 4);
        let ts: Vec<u64> = ring.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_capacity_zero_is_clamped_to_one() {
        let mut ring = RingBufferSink::new(0);
        ring.record(miss(1, 0x10));
        ring.record(miss(2, 0x10));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.events()[0].ts, 2);
    }

    #[test]
    fn every_nth_miss_sampling_admits_follow_on_events() {
        let mut ring = RingBufferSink::with_policy(64, SamplingPolicy::every_nth_miss(2));
        for i in 0..4 {
            ring.record(miss(10 * i, 0x10));
            ring.record(TraceEvent {
                ts: 10 * i + 1,
                core: 0,
                kind: TraceEventKind::Approx {
                    pc: 0x10,
                    skipped_fetch: false,
                },
            });
        }
        // Misses 0 and 2 are sampled, each bringing its approx along.
        let names: Vec<&str> = ring.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, vec!["miss", "approx", "miss", "approx"]);
    }

    #[test]
    fn pc_filter_drops_other_pcs_but_keeps_spans() {
        let policy = SamplingPolicy::all().with_pc_filter(&[0x20]);
        let mut ring = RingBufferSink::with_policy(64, policy);
        ring.record(miss(0, 0x10));
        ring.record(miss(1, 0x20));
        ring.record(TraceEvent {
            ts: 2,
            core: 0,
            kind: TraceEventKind::Span {
                name: "phase".to_owned(),
                dur: 5,
            },
        });
        let names: Vec<&str> = ring.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, vec!["miss", "span"]);
    }

    #[test]
    fn attribution_counts_misses_exactly_and_merges() {
        let mut a = PcAttribution::new();
        let mut b = PcAttribution::new();
        for i in 0..5 {
            a.record(miss(i, 0x10));
        }
        for i in 0..3 {
            b.record(miss(i, 0x10));
            b.record(miss(i, 0x20));
        }
        b.record(TraceEvent {
            ts: 9,
            core: 1,
            kind: TraceEventKind::Train {
                pc: 0x20,
                predicted: Some(1.1),
                actual: 1.0,
                rel_err: Some(0.1),
            },
        });
        a.merge(&b);
        assert_eq!(a.total_misses(), 11);
        assert_eq!(a.static_pcs(), 2);
        assert_eq!(a.pcs[&0x10].misses, 8);
        assert_eq!(a.pcs[&0x20].misses, 3);
        assert_eq!(a.pcs[&0x20].trainings, 1);
        // 0.1 rel-err → 100_000 ppm, bucket-quantised upward.
        assert!(a.pcs[&0x20].err_ppm.p50() >= 100_000);
        let table = a.to_string();
        assert!(table.contains("0x10"), "{table}");
    }

    #[test]
    fn attribution_serialises_into_manifest_paths() {
        let mut attr = PcAttribution::new();
        attr.record(miss(0, 0x40));
        attr.record(TraceEvent {
            ts: 1,
            core: 0,
            kind: TraceEventKind::Approx {
                pc: 0x40,
                skipped_fetch: true,
            },
        });
        let mut record = RunRecord::new("attr-test");
        attr.record_into(&mut record);
        assert_eq!(record.stat("attribution/total_misses"), Some(1.0));
        assert_eq!(record.stat("pc/0x40/misses"), Some(1.0));
        assert_eq!(record.stat("pc/0x40/coverage"), Some(1.0));
        assert_eq!(record.stat("pc/0x40/fetches_skipped"), Some(1.0));
        // Round-trips through the manifest text format.
        let parsed = RunRecord::parse(&record.to_string_pretty()).expect("parses");
        assert_eq!(parsed.stat("pc/0x40/misses"), Some(1.0));
    }

    #[test]
    fn trace_config_builds_matching_collectors() {
        assert!(!TraceConfig::off().collector().enabled());
        let ring = TraceConfig::ring(16).collector();
        assert!(ring.enabled());
        assert!(matches!(ring, TraceCollector::Ring(_)));
        let attr = TraceConfig::attribution().collector();
        assert!(attr.attribution().is_some());
    }

    #[test]
    fn chrome_export_is_valid_and_loadable_shape() {
        let events = vec![
            miss(3, 0x10),
            TraceEvent {
                ts: 4,
                core: 1,
                kind: TraceEventKind::Train {
                    pc: 0x10,
                    predicted: Some(2.0),
                    actual: 4.0,
                    rel_err: Some(0.5),
                },
            },
            TraceEvent {
                ts: 0,
                core: 0,
                kind: TraceEventKind::Span {
                    name: "worker0".to_owned(),
                    dur: 100,
                },
            },
        ];
        let json = chrome_trace(&events);
        let text = json.to_string_pretty();
        let parsed = parse(&text).expect("chrome trace parses");
        let arr = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].get("ph").and_then(|v| v.as_str()), Some("i"));
        assert_eq!(arr[0].get("s").and_then(|v| v.as_str()), Some("t"));
        assert_eq!(
            arr[1]
                .get("args")
                .and_then(|a| a.get("rel_err"))
                .and_then(|v| v.as_f64()),
            Some(0.5)
        );
        assert_eq!(arr[2].get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(arr[2].get("dur").and_then(|v| v.as_f64()), Some(100.0));
    }
}
