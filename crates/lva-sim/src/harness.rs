//! The phase-1 instrumented execution harness — our Pin analogue (§V-A).
//!
//! Workload kernels allocate their data in a [`SimMemory`] and route every
//! load and store through the harness. The harness models one private 64 KB
//! L1 per thread and applies the configured mechanism to annotated load
//! misses, *clobbering the returned value* with the approximation exactly
//! like the paper's Pin tool ("we directly clobber the return values of
//! these loads with our approximated values, dynamically altering the
//! execution of the application").
//!
//! Value delay (§VI-C) is modelled with a per-thread pending-training
//! queue: the actual value reaches the GHB/LHB only after `value_delay`
//! subsequent load instructions.

use crate::fault::FaultInjector;
use crate::govern::{Governor, GovernorReport};
use crate::mechanism::Mechanism;
use crate::miss::{MissAction, MissPipeline};
use crate::{ConfigError, Phase1Stats, SimConfig, ThreadStats};
use lva_core::{
    Addr, CacheLevel, IntMap, LvpOutcome, LvpPrediction, Pc, TrainToken, Value, ValueType,
};
use lva_cpu::ThreadTrace;
use lva_mem::{CacheConfig, SetAssocCache, SimMemory};
use lva_obs::{
    EpochSampler, MetricsRegistry, Timeline, TraceCollector, TraceCtx, TraceEvent, TraceEventKind,
    TraceSink,
};
use std::collections::VecDeque;

/// One request for [`SimHarness::load_batch`]: `(pc, addr, value type,
/// approximate?)` — exactly the arguments of [`SimHarness::load`].
pub type LoadReq = (Pc, Addr, ValueType, bool);

#[derive(Debug)]
enum TrainKind {
    Lva(TrainToken),
    Lvp(LvpOutcome),
    RealisticLvp(LvpPrediction),
}

#[derive(Debug)]
struct PendingTrain {
    /// Load-clock deadline: the training fires at the start of the first
    /// load whose clock reaches this value. Without fault injection,
    /// deadlines are pushed in monotonically non-decreasing order (the
    /// value delay is constant for a run and at most one training is
    /// enqueued per load), so the queue drains strictly from the front. A
    /// delayed-fetch fault can push a later deadline ahead of earlier
    /// ones; the front-first drain then holds trainings behind the delayed
    /// one — deterministic head-of-line blocking, which is exactly the
    /// contention a slow fill causes.
    due: u64,
    addr: Addr,
    ty: ValueType,
    /// Install the block into the L1 when it arrives (approximator training
    /// fetches; LVP fills install immediately because the prediction must be
    /// validated anyway).
    install: bool,
    kind: TrainKind,
}

/// Slots in a thread's annotated-PC filter (a power of two). Every kernel
/// has at most a few dozen annotated load sites, and consecutive
/// annotated loads usually come from different ones, so one slot per
/// site keeps nearly every load off `PcSet::insert`'s binary search.
const PC_FILTER_SLOTS: usize = 64;

/// Modelled per-thread L2 slice: 256 KB, 8-way.
const L2_BYTES: u64 = 256 * 1024;
/// Modelled per-thread LLC slice: 2 MB, 16-way.
const LLC_BYTES: u64 = 2 * 1024 * 1024;

#[derive(Debug)]
struct ThreadCtx {
    core: u32,
    l1: SetAssocCache,
    /// Deeper hierarchy levels, modelled only to answer "which level would
    /// serve this miss?" for latency accounting and the cache-level
    /// predictor. Untraced on purpose: they emit no events and touch no
    /// legacy counters, so clp-off fingerprints keep their exact bytes.
    l2: SetAssocCache,
    llc: SetAssocCache,
    mechanism: Mechanism,
    /// Deadline-ordered value-delay queue; drained front-first, preserving
    /// the old scan-in-insertion-order drain order exactly.
    pending: VecDeque<PendingTrain>,
    /// Blocks with an outstanding training fetch (the MSHR analogue): a
    /// secondary miss to one merges instead of missing again.
    in_flight: IntMap<u64, ()>,
    /// Loads issued on this thread so far; the time base for `PendingTrain::due`.
    load_clock: u64,
    /// Direct-mapped filter in front of `stats.approx_pcs`: a slot only
    /// ever holds a PC already in the set, so a hit skips an insert that
    /// would have returned `false`. See [`ThreadCtx::note_approx_pc`].
    pc_filter: [Option<Pc>; PC_FILTER_SLOTS],
    stats: ThreadStats,
    trace: ThreadTrace,
    /// Write-only event collector ([`SimConfig::trace`]); never read by the
    /// simulation itself.
    obs: TraceCollector,
    /// The LVA miss decision with this thread's quality governor
    /// ([`SimConfig::govern`]) and fault stream
    /// ([`SimConfig::faults`]). The governor is the one sanctioned
    /// feedback loop: it retunes `mechanism` through the
    /// [`Knob`](crate::Knob) seam on its epoch clock.
    miss: MissPipeline,
    /// Epoch timeline sampler ([`SimConfig::timeline`]); write-only, like
    /// `obs`.
    sampler: Option<Box<EpochSampler>>,
    /// Load-clock value at which the sampler's current epoch closes;
    /// `u64::MAX` when sampling is off, so the hot path pays one compare.
    timeline_due: u64,
    /// Load-clock value at which the governor's current epoch closes;
    /// `u64::MAX` without the governor's SLO layer (same idiom as
    /// `timeline_due`).
    govern_due: u64,
}

impl ThreadCtx {
    /// Records that annotated PC `pc` issued. The filter slot is keyed on
    /// the instruction-aligned PC bits; a miss inserts into `approx_pcs`
    /// and then takes the slot, so two colliding PCs only cost each other
    /// a redundant insert.
    #[inline]
    fn note_approx_pc(&mut self, pc: Pc) {
        let slot = &mut self.pc_filter[(pc.0 >> 2) as usize & (PC_FILTER_SLOTS - 1)];
        if *slot != Some(pc) {
            *slot = Some(pc);
            self.stats.approx_pcs.insert(pc);
        }
    }
}

/// Everything a finished run yields: statistics and (optionally) the
/// per-thread traces for phase-2 replay.
#[derive(Debug)]
pub struct RunArtifacts {
    /// Aggregated phase-1 counters.
    pub stats: Phase1Stats,
    /// Per-thread instruction traces; empty unless
    /// [`SimConfig::record_traces`] was set.
    pub traces: Vec<ThreadTrace>,
    /// Per-core event collectors; all [`TraceCollector::Off`] unless
    /// [`SimConfig::trace`] enabled event tracing.
    pub collectors: Vec<TraceCollector>,
    /// Per-thread epoch timelines sampled on the `load_clock` (index =
    /// thread id); empty unless [`SimConfig::timeline`] enabled sampling.
    /// The final partial epoch is flushed, so every counter's deltas sum
    /// exactly to its end-of-run cumulative value.
    pub timelines: Vec<Timeline>,
    /// Per-thread governor reports (index = thread id): both ladders' end
    /// state and the budget ladder's per-PC entries. Empty unless
    /// [`SimConfig::govern`] is set; the governor's counters are the
    /// `govern_*` fields of [`Phase1Stats::per_thread`].
    pub govern: Vec<GovernorReport>,
}

/// The phase-1 simulation harness. See the module docs for the model.
///
/// # Example
///
/// ```
/// use lva_sim::{SimConfig, SimHarness};
/// use lva_core::{Pc, ValueType, Value};
///
/// let mut h = SimHarness::new(SimConfig::baseline_lva());
/// let buf = h.alloc(4 * 1024, 64);
/// for i in 0..1024 {
///     h.memory_mut().write_f32(buf.offset(4 * i), 1.0);
/// }
/// h.set_thread(0);
/// let mut acc = 0.0;
/// for i in 0..1024 {
///     acc += h.load(Pc(0x100), buf.offset(4 * i), ValueType::F32, true).as_f32();
///     h.tick(3); // model some arithmetic
/// }
/// let run = h.finish();
/// assert!(acc > 0.0);
/// assert!(run.stats.total.loads == 1024);
/// ```
#[derive(Debug)]
pub struct SimHarness {
    config: SimConfig,
    mem: SimMemory,
    threads: Vec<ThreadCtx>,
    cur: usize,
}

impl SimHarness {
    /// Builds a harness with one L1 + mechanism instance per thread,
    /// rejecting malformed configurations instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns whatever [`SimConfig::validate`] or
    /// [`Mechanism::from_kind`] rejects.
    pub(crate) fn try_new(config: SimConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut threads = Vec::with_capacity(config.threads);
        for core in 0..config.threads {
            let mechanism = Mechanism::from_kind(&config.mechanism)?;
            let miss = MissPipeline::new(
                &mechanism,
                config.govern,
                config
                    .faults
                    .as_ref()
                    .map(|f| FaultInjector::for_thread(f, core as u64)),
            );
            threads.push(ThreadCtx {
                core: core as u32,
                l1: SetAssocCache::new(config.l1),
                l2: SetAssocCache::new(CacheConfig {
                    size_bytes: L2_BYTES,
                    ways: 8,
                    block_bytes: config.l1.block_bytes,
                }),
                llc: SetAssocCache::new(CacheConfig {
                    size_bytes: LLC_BYTES,
                    ways: 16,
                    block_bytes: config.l1.block_bytes,
                }),
                mechanism,
                pending: VecDeque::new(),
                // Occupancy is bounded by the outstanding training fetches.
                in_flight: IntMap::with_capacity_and_hasher(
                    config.value_delay.min(256) as usize + 1,
                    Default::default(),
                ),
                load_clock: 0,
                pc_filter: [None; PC_FILTER_SLOTS],
                stats: ThreadStats::default(),
                trace: ThreadTrace::new(),
                obs: config.trace.collector(),
                sampler: config
                    .timeline
                    .clone()
                    .map(|t| Box::new(EpochSampler::new(t))),
                timeline_due: config.timeline.as_ref().map_or(u64::MAX, |t| t.epoch_len),
                govern_due: miss.epoch_len(),
                miss,
            });
        }
        Ok(SimHarness {
            config,
            mem: SimMemory::new(),
            threads,
            cur: 0,
        })
    }

    /// Builds a harness for a known-good configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads` is zero, a confidence window is malformed
    /// ([`SimConfig::validate`]), or a mechanism configuration is invalid.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read-only view of the simulated memory.
    #[must_use]
    pub fn memory(&self) -> &SimMemory {
        &self.mem
    }

    /// Mutable access to the simulated memory for input setup. Writes here
    /// are *not* instrumented (they model the untracked initialization the
    /// paper's tools skip).
    pub fn memory_mut(&mut self) -> &mut SimMemory {
        &mut self.mem
    }

    /// Allocates simulated memory (delegates to [`SimMemory::alloc`]).
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        self.mem.alloc(bytes, align)
    }

    /// Switches the active thread; subsequent loads/stores/ticks are
    /// attributed to it.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn set_thread(&mut self, thread: usize) {
        assert!(thread < self.threads.len(), "thread {thread} out of range");
        self.cur = thread;
    }

    /// Whether the fast-path invariant holds on every thread: an empty
    /// pending training queue must imply an empty in-flight set. The
    /// hit stretch of [`Self::load_batch`] relies on this to skip the
    /// MSHR probe entirely; it is `debug_assert`ed there and checked
    /// across mechanisms by the conformance battery.
    #[must_use]
    pub fn fast_path_invariant_holds(&self) -> bool {
        self.threads
            .iter()
            .all(|t| !t.pending.is_empty() || t.in_flight.is_empty())
    }

    /// Accounts `n` non-memory instructions on the current thread.
    pub fn tick(&mut self, n: u32) {
        let record = self.config.record_traces;
        let t = &mut self.threads[self.cur];
        t.stats.instructions += u64::from(n);
        if record {
            t.trace.push_compute(n);
        }
    }

    /// The generic instrumented load. Typed wrappers below are what the
    /// kernels call.
    ///
    /// On an L1 hit with no training fetch pending, only the counter
    /// updates, the memory read and the cache access run. A pending queue
    /// is advanced first, and misses go to `Self::load_miss`.
    #[inline]
    pub fn load(&mut self, pc: Pc, addr: Addr, ty: ValueType, approx: bool) -> Value {
        let t = &mut self.threads[self.cur];
        // Close the timeline epoch *before* this load issues, so each
        // frame covers exactly `epoch_len` loads. One compare when off.
        if t.load_clock >= t.timeline_due {
            Self::sample_timeline(t);
        }
        // Same boundary discipline for the governor's epoch clock.
        if t.load_clock >= t.govern_due {
            Self::govern_epoch(t);
        }
        t.load_clock += 1;
        // One more load has issued: deliver every training now due.
        if !t.pending.is_empty() {
            Self::advance_pending(&self.mem, t);
        }
        t.stats.instructions += 1;
        t.stats.loads += 1;
        t.stats.approx_loads += u64::from(approx);
        if approx {
            t.note_approx_pc(pc);
        }
        let actual = self.mem.read_value(addr, ty);
        if self.config.record_traces {
            t.trace.push_load(pc, addr, ty, approx, actual);
        }
        match t.l1.access(addr) {
            lva_mem::AccessResult::Hit {
                first_use_of_prefetch,
            } => {
                t.stats.l1_hits += 1;
                t.stats.useful_prefetches += u64::from(first_use_of_prefetch);
                t.stats.load_latency_cycles += CacheLevel::L1.service_latency();
                actual
            }
            lva_mem::AccessResult::Miss => self.load_miss(pc, addr, ty, approx, actual),
        }
    }

    /// Issues a batch of loads on the current thread, amortizing the
    /// per-load dispatch: the thread lookup, the timeline-epoch compare and
    /// the pending-queue probe are hoisted out of the request loop, and the
    /// stats counters accumulate in locals across each uninterrupted
    /// L1-hit stretch. Observable behaviour is identical to issuing the
    /// requests through [`load`](Self::load) one at a time — batch
    /// boundaries never change stats, traces, timelines or returned values
    /// — so kernels may batch wherever their access pattern allows.
    ///
    /// `out[i]` receives the value of `reqs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `reqs` and `out` have different lengths.
    pub fn load_batch(&mut self, reqs: &[LoadReq], out: &mut [Value]) {
        assert_eq!(reqs.len(), out.len(), "load_batch buffer length mismatch");
        let record = self.config.record_traces;
        let mut i = 0;
        while i < reqs.len() {
            let t = &mut self.threads[self.cur];
            // Everything the canonical path re-checks per load: epoch
            // sampling, queue advancement, trace recording. The stretch
            // below is licensed only while none of them can occur;
            // `fast_until` is how far that license extends.
            let fast_until = if record || !t.pending.is_empty() {
                i
            } else {
                let due = t.timeline_due.min(t.govern_due);
                let headroom = due.saturating_sub(t.load_clock);
                i + headroom.min((reqs.len() - i) as u64) as usize
            };
            if fast_until == i {
                let (pc, addr, ty, approx) = reqs[i];
                out[i] = self.load(pc, addr, ty, approx);
                i += 1;
                continue;
            }
            debug_assert!(
                t.in_flight.is_empty(),
                "empty pending queue must imply an empty in-flight set"
            );
            // Mirrors `load`'s L1-hit body with the counters held in
            // locals; stops at the first miss, which may enqueue a training
            // and thereby invalidate the empty-pending precondition.
            let mem = &self.mem;
            let mut issued = 0u64;
            let mut approx_loads = 0u64;
            let mut prefetch_uses = 0u64;
            let mut miss = None;
            for (j, &(pc, addr, ty, approx)) in reqs[i..fast_until].iter().enumerate() {
                issued += 1;
                if approx {
                    approx_loads += 1;
                    t.note_approx_pc(pc);
                }
                let actual = mem.read_value(addr, ty);
                match t.l1.access(addr) {
                    lva_mem::AccessResult::Hit {
                        first_use_of_prefetch,
                    } => {
                        prefetch_uses += u64::from(first_use_of_prefetch);
                        out[i + j] = actual;
                    }
                    lva_mem::AccessResult::Miss => {
                        miss = Some((i + j, actual));
                        break;
                    }
                }
            }
            t.load_clock += issued;
            t.stats.instructions += issued;
            t.stats.loads += issued;
            t.stats.approx_loads += approx_loads;
            let hits = issued - u64::from(miss.is_some());
            t.stats.l1_hits += hits;
            t.stats.useful_prefetches += prefetch_uses;
            t.stats.load_latency_cycles += hits * CacheLevel::L1.service_latency();
            match miss {
                Some((j, actual)) => {
                    let (pc, addr, ty, approx) = reqs[j];
                    out[j] = self.load_miss(pc, addr, ty, approx, actual);
                    i = j + 1;
                }
                None => i = fast_until,
            }
        }
    }

    /// Array-sized convenience over [`load_batch`](Self::load_batch) for
    /// kernels whose inner loop issues a fixed group of loads.
    #[must_use]
    pub fn load_batch_n<const N: usize>(&mut self, reqs: &[LoadReq; N]) -> [Value; N] {
        let mut out = [Value::from_bits(0, ValueType::U8); N];
        self.load_batch(reqs, &mut out);
        out
    }

    /// An L1 miss: merged into its block's outstanding fill (an MSHR
    /// hit), or else recorded and dispatched to the configured mechanism.
    fn load_miss(
        &mut self,
        pc: Pc,
        addr: Addr,
        ty: ValueType,
        approx: bool,
        actual: Value,
    ) -> Value {
        let value_delay = self.config.value_delay;
        let t = &mut self.threads[self.cur];
        // With nothing pending the in-flight set is empty, so this probe
        // is exact on every path.
        if t.in_flight.contains_key(&addr.block_index()) {
            t.stats.l1_hits += 1;
            t.stats.load_latency_cycles += CacheLevel::L1.service_latency();
            return actual;
        }
        t.stats.raw_misses += 1;
        let ctx = TraceCtx::new(t.core, t.stats.instructions);
        if t.obs.enabled() {
            t.obs.record(TraceEvent::at(
                ctx,
                TraceEventKind::Miss {
                    pc: pc.0,
                    addr: addr.0,
                },
            ));
        }

        // Which deeper level would serve this miss. The walk installs the
        // block into the modelled L2/LLC; it is untraced and counter-free,
        // so mechanisms that ignore the answer are byte-identical to the
        // pre-clp harness.
        let level = Self::serving_level(t, addr);

        // 3. Mechanism.
        match &mut t.mechanism {
            Mechanism::Lva(_) if approx => {
                let (value, approximated) =
                    Self::lva_approx_miss(&self.mem, value_delay, t, pc, addr, ty, actual, ctx);
                // An approximation hides the whole walk; anything else
                // stalls for the conventional serial probe sequence.
                t.stats.load_latency_cycles += if approximated {
                    1
                } else {
                    level.serial_latency()
                };
                value
            }
            Mechanism::Clp(_) | Mechanism::LvaClp(..) => Self::clp_miss(
                &self.mem,
                value_delay,
                t,
                pc,
                addr,
                ty,
                approx,
                actual,
                level,
                ctx,
            ),
            Mechanism::Lvp(lvp) if approx => {
                t.stats.load_latency_cycles += level.serial_latency();
                let outcome = lvp.on_miss(pc);
                // LVP always fetches (the prediction must be validated).
                t.stats.load_fetches += 1;
                t.l1.install_traced(addr, false, &mut t.obs, ctx);
                let kind = TrainKind::Lvp(outcome);
                Self::queue_train(&self.mem, t, kind, addr, ty, false, value_delay, ctx);
                actual
            }
            Mechanism::RealisticLvp(lvp) if approx => {
                t.stats.load_latency_cycles += level.serial_latency();
                let prediction = lvp.on_miss(pc);
                // The predictor always fetches; the prediction is resolved
                // (validated) when the data arrives.
                t.stats.load_fetches += 1;
                t.l1.install_traced(addr, false, &mut t.obs, ctx);
                let kind = TrainKind::RealisticLvp(prediction);
                Self::queue_train(&self.mem, t, kind, addr, ty, false, value_delay, ctx);
                actual
            }
            Mechanism::Prefetch(prefetcher) => {
                t.stats.load_latency_cycles += level.serial_latency();
                t.stats.load_fetches += 1;
                t.l1.install_traced(addr, false, &mut t.obs, ctx);
                for candidate in prefetcher.on_miss(pc, addr) {
                    if !t.l1.probe(candidate) && !t.in_flight.contains_key(&candidate.block_index())
                    {
                        t.l1.install_traced(candidate, true, &mut t.obs, ctx);
                        t.stats.load_fetches += 1;
                    }
                }
                actual
            }
            // Precise loads under LVA/LVP, and everything under Precise.
            _ => {
                t.stats.load_latency_cycles += level.serial_latency();
                t.stats.load_fetches += 1;
                t.l1.install_traced(addr, false, &mut t.obs, ctx);
                actual
            }
        }
    }

    /// Walks the modelled deeper hierarchy for a block that missed the L1
    /// and returns the level that serves it, installing the block on the
    /// way (inclusive fill). Plain `access`/`install` only: no trace
    /// events, no counters.
    fn serving_level(t: &mut ThreadCtx, addr: Addr) -> CacheLevel {
        if t.l2.access(addr).is_hit() {
            CacheLevel::L2
        } else if t.llc.access(addr).is_hit() {
            let _ = t.l2.install(addr, false);
            CacheLevel::Llc
        } else {
            let _ = t.llc.install(addr, false);
            let _ = t.l2.install(addr, false);
            CacheLevel::Dram
        }
    }

    /// The LVA approximate-miss path, shared verbatim between
    /// [`Mechanism::Lva`] and the [`Mechanism::LvaClp`] hybrid: the
    /// [`MissPipeline`] decides, and its action is mapped onto the L1, the
    /// in-flight set and the value-delay training queue. Returns the value
    /// the load observes and whether it was approximated (callers account
    /// latency — the conventional and fallthrough paths stall,
    /// approximations do not).
    #[allow(clippy::too_many_arguments)]
    fn lva_approx_miss(
        mem: &SimMemory,
        value_delay: u64,
        t: &mut ThreadCtx,
        pc: Pc,
        addr: Addr,
        ty: ValueType,
        actual: Value,
        ctx: TraceCtx,
    ) -> (Value, bool) {
        let action = t
            .miss
            .on_miss(&mut t.mechanism, pc, ty, &mut t.stats, &mut t.obs, ctx);
        match action {
            MissAction::Approximate { value, fetch } => {
                if let Some((token, extra_delay)) = fetch {
                    t.in_flight.insert(addr.block_index(), ());
                    let delay = value_delay + extra_delay;
                    Self::queue_train(mem, t, TrainKind::Lva(token), addr, ty, true, delay, ctx);
                }
                // The clobbered value — possibly wrong, and that is the
                // whole point.
                (value, true)
            }
            MissAction::Fallthrough { token, extra_delay } => {
                // Processor stalls for the data, so the block fills
                // immediately — but the value still reaches the history
                // buffers `value_delay` loads later, exactly like an
                // approximated fetch (§VI-C models the delay uniformly for
                // all training values).
                t.l1.install_traced(addr, false, &mut t.obs, ctx);
                let delay = value_delay + extra_delay;
                Self::queue_train(mem, t, TrainKind::Lva(token), addr, ty, false, delay, ctx);
                (actual, false)
            }
            MissAction::Conventional => {
                t.stats.load_fetches += 1;
                t.l1.install_traced(addr, false, &mut t.obs, ctx);
                (actual, false)
            }
        }
    }

    /// Schedules a training `delay` loads from now, or fires it at once
    /// when `delay` is 0.
    #[allow(clippy::too_many_arguments)]
    fn queue_train(
        mem: &SimMemory,
        t: &mut ThreadCtx,
        kind: TrainKind,
        addr: Addr,
        ty: ValueType,
        install: bool,
        delay: u64,
        ctx: TraceCtx,
    ) {
        if let TrainKind::Lva(token) = &kind {
            if delay > 0 && t.obs.enabled() {
                let pc = token.pc().0;
                t.obs.record(TraceEvent::at(
                    ctx,
                    TraceEventKind::TrainEnqueue { pc, delay },
                ));
            }
        }
        let train = PendingTrain {
            due: t.load_clock + delay,
            addr,
            ty,
            install,
            kind,
        };
        if delay == 0 {
            Self::fire(mem, t, train);
        } else {
            t.pending.push_back(train);
        }
    }

    /// The cache-level-prediction miss path of plain `clp` and the
    /// `lva+clp` hybrid: the level predictor screens every miss. Under the
    /// hybrid, the approximator only sees annotated loads predicted to be
    /// served at or below the configured slow threshold; every other miss
    /// stays precise and enjoys the predictor's direct access to the
    /// serving level.
    #[allow(clippy::too_many_arguments)]
    fn clp_miss(
        mem: &SimMemory,
        value_delay: u64,
        t: &mut ThreadCtx,
        pc: Pc,
        addr: Addr,
        ty: ValueType,
        approx: bool,
        actual: Value,
        level: CacheLevel,
        ctx: TraceCtx,
    ) -> Value {
        let hybrid = t.mechanism.approximator().is_some();
        let Some(predictor) = t.mechanism.predictor_mut() else {
            unreachable!("clp_miss is only reached from a mechanism with a level predictor");
        };
        let prediction = predictor.predict_traced(pc, &mut t.obs, ctx);
        // Verified against every miss — the serving level is modelled even
        // when the approximator later skips the fetch, and training on all
        // misses keeps the predictor's view of a PC current.
        let correct = predictor.verify_traced(&prediction, level, &mut t.obs, ctx);
        let direct_latency = predictor.load_latency(&prediction, level);
        let slow = prediction.level >= predictor.config().slow_threshold;
        t.stats.clp_predictions += 1;
        t.stats.clp_correct += u64::from(correct);
        t.stats.clp_mispredicts += u64::from(prediction.confident && !correct);
        if hybrid && approx && slow {
            let (value, approximated) =
                Self::lva_approx_miss(mem, value_delay, t, pc, addr, ty, actual, ctx);
            t.stats.load_latency_cycles += if approximated { 1 } else { direct_latency };
            value
        } else {
            // Predicted fast (or not approximable): stay precise, ride the
            // predicted level's direct access.
            t.stats.load_latency_cycles += direct_latency;
            t.stats.load_fetches += 1;
            t.l1.install_traced(addr, false, &mut t.obs, ctx);
            actual
        }
    }

    /// The generic instrumented store: write-allocate, never approximated,
    /// off the critical path (§V-A).
    pub(crate) fn store(&mut self, pc: Pc, addr: Addr, value: Value) {
        let record = self.config.record_traces;
        self.mem.write_value(addr, value);
        let t = &mut self.threads[self.cur];
        t.stats.instructions += 1;
        t.stats.stores += 1;
        if record {
            t.trace.push_store(pc, addr, value.value_type());
        }
        if !t.l1.access(addr).is_hit() && !t.in_flight.contains_key(&addr.block_index()) {
            let ctx = TraceCtx::new(t.core, t.stats.instructions);
            t.l1.install_traced(addr, false, &mut t.obs, ctx);
            t.stats.store_fetches += 1;
            // Write-allocate fills the deeper levels too, keeping the
            // serving-level model coherent with load misses.
            let _ = Self::serving_level(t, addr);
        }
    }

    /// Closes the thread's current timeline epoch at its load clock: the
    /// cumulative [`ThreadStats`] are snapshotted into a throwaway
    /// registry and diffed by the sampler into a delta frame. Strictly
    /// write-only — nothing here feeds back into simulation state.
    fn sample_timeline(t: &mut ThreadCtx) {
        let Some(sampler) = &mut t.sampler else {
            return;
        };
        let mut registry = MetricsRegistry::new();
        t.stats.record_metrics(&mut registry, "phase1");
        sampler.sample(t.load_clock, &registry);
        t.timeline_due = sampler.next_boundary();
    }

    /// Closes the thread's current governor epoch at its load clock: the
    /// governor classifies the epoch from cumulative [`ThreadStats`]
    /// deltas and its decision is actuated onto the mechanism. This is
    /// the one place phase-1 state feeds back into itself, and it runs on
    /// the deterministic per-thread load clock, so worker count cannot
    /// change what the governor sees or does.
    fn govern_epoch(t: &mut ThreadCtx) {
        let ctx = TraceCtx::new(t.core, t.stats.instructions);
        t.miss
            .on_epoch(&mut t.mechanism, &mut t.stats, &mut t.obs, ctx);
        t.govern_due = t.load_clock.saturating_add(t.miss.epoch_len());
    }

    /// Delivers every pending training whose deadline the thread's load
    /// clock has reached. Deadlines are non-decreasing in queue order, so a
    /// front-first drain fires exactly the trainings the old decrement-scan
    /// fired, in the same order.
    fn advance_pending(mem: &SimMemory, t: &mut ThreadCtx) {
        while let Some(front) = t.pending.front() {
            if front.due > t.load_clock {
                break;
            }
            let train = t.pending.pop_front().expect("front() was Some");
            Self::fire(mem, t, train);
        }
    }

    /// Delivers a delayed training: the block "arrives", the mechanism
    /// trains with the value currently in memory, and training fills
    /// install into the L1.
    fn fire(mem: &SimMemory, t: &mut ThreadCtx, train: PendingTrain) {
        let actual = mem.read_value(train.addr, train.ty);
        let ctx = TraceCtx::new(t.core, t.stats.instructions);
        match train.kind {
            TrainKind::Lva(token) => {
                t.miss.on_train(
                    &mut t.mechanism,
                    token,
                    actual,
                    &mut t.stats,
                    &mut t.obs,
                    ctx,
                );
            }
            TrainKind::Lvp(outcome) => {
                if let Mechanism::Lvp(l) = &mut t.mechanism {
                    if l.resolve(&outcome, actual) {
                        t.stats.lvp_correct += 1;
                    }
                }
            }
            TrainKind::RealisticLvp(prediction) => {
                if let Mechanism::RealisticLvp(l) = &mut t.mechanism {
                    let committed = prediction.value().is_some();
                    let rollback = l.resolve(&prediction, actual);
                    if rollback {
                        t.stats.rollbacks += 1;
                    } else if committed {
                        t.stats.lvp_correct += 1;
                    }
                }
            }
        }
        if train.install {
            t.in_flight.remove(&train.addr.block_index());
            t.l1.install_traced(train.addr, false, &mut t.obs, ctx);
        }
    }

    /// Drains outstanding trainings and returns the run's statistics and
    /// traces.
    #[must_use]
    pub fn finish(mut self) -> RunArtifacts {
        for t in &mut self.threads {
            while let Some(train) = t.pending.pop_front() {
                Self::fire(&self.mem, t, train);
            }
            // Flush the final (possibly partial) epoch after the drain so
            // drain-side counter updates land in a frame and every
            // counter's deltas sum exactly to its cumulative value.
            Self::sample_timeline(t);
        }
        let timelines = self
            .threads
            .iter_mut()
            .filter_map(|t| t.sampler.take())
            .map(|s| s.into_timeline())
            .collect();
        let traces = self
            .threads
            .iter_mut()
            .map(|t| std::mem::take(&mut t.trace))
            .collect();
        let collectors = self
            .threads
            .iter_mut()
            .map(|t| std::mem::take(&mut t.obs))
            .collect();
        let govern = self
            .threads
            .iter()
            .filter_map(|t| t.miss.governor.as_deref().map(Governor::report))
            .collect();
        let stats = Phase1Stats::from_threads(self.threads.into_iter().map(|t| t.stats).collect());
        RunArtifacts {
            stats,
            traces,
            collectors,
            timelines,
            govern,
        }
    }

    // ----- typed convenience wrappers -----

    /// Annotated (approximable) `f64` load.
    pub fn load_approx_f64(&mut self, pc: Pc, addr: Addr) -> f64 {
        self.load(pc, addr, ValueType::F64, true).as_f64()
    }

    /// `f32` store.
    pub fn store_f32(&mut self, pc: Pc, addr: Addr, v: f32) {
        self.store(pc, addr, Value::from_f32(v));
    }

    /// `f64` store.
    pub fn store_f64(&mut self, pc: Pc, addr: Addr, v: f64) {
        self.store(pc, addr, Value::from_f64(v));
    }

    /// `i32` store.
    pub fn store_i32(&mut self, pc: Pc, addr: Addr, v: i32) {
        self.store(pc, addr, Value::from_i32(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::{ApproximatorConfig, Rng64};

    fn seq_addrs(base: Addr, n: u64, stride: u64) -> Vec<Addr> {
        (0..n).map(|i| base.offset(i * stride)).collect()
    }

    /// Write f32 `v` at each address.
    fn fill(h: &mut SimHarness, addrs: &[Addr], v: f32) {
        for &a in addrs {
            h.memory_mut().write_f32(a, v);
        }
    }

    #[test]
    fn precise_run_counts_misses_and_fetches() {
        let mut h = SimHarness::new(SimConfig::precise());
        let base = h.alloc(64 * 100, 64);
        let addrs = seq_addrs(base, 100, 64); // one block each
        fill(&mut h, &addrs, 1.0);
        for &a in &addrs {
            let _ = h.load(Pc(1), a, ValueType::F32, false);
        }
        // Second pass: all hits.
        for &a in &addrs {
            let _ = h.load(Pc(1), a, ValueType::F32, false);
        }
        let run = h.finish();
        assert_eq!(run.stats.total.raw_misses, 100);
        assert_eq!(run.stats.total.l1_hits, 100);
        assert_eq!(run.stats.fetches(), 100);
        assert_eq!(run.stats.effective_misses(), 100);
    }

    #[test]
    fn lva_counts_approximations_as_hits() {
        let mut h = SimHarness::new(SimConfig::baseline_lva());
        let base = h.alloc(64 * 200, 64);
        let addrs = seq_addrs(base, 200, 64);
        fill(&mut h, &addrs, 5.0);
        for &a in &addrs {
            let _ = h.load(Pc(42), a, ValueType::F32, true);
        }
        let run = h.finish();
        assert_eq!(run.stats.total.raw_misses, 200);
        assert!(
            run.stats.total.approximations > 150,
            "steady values approximate"
        );
        assert!(run.stats.effective_misses() < 50);
        assert_eq!(run.stats.static_approx_pcs(), 1);
    }

    #[test]
    fn lva_clobbers_the_returned_value() {
        let mut h = SimHarness::new(SimConfig::baseline_lva().with_value_delay(0));
        let base = h.alloc(64 * 3, 64);
        // Train with 10.0 twice, then read a block holding 99.0: the
        // approximator returns ~10.0, not 99.0.
        h.memory_mut().write_f32(base, 10.0);
        h.memory_mut().write_f32(base.offset(64), 10.0);
        h.memory_mut().write_f32(base.offset(128), 99.0);
        let _ = h.load(Pc(1), base, ValueType::F32, true);
        let _ = h.load(Pc(1), base.offset(64), ValueType::F32, true);
        let clobbered = h
            .load(Pc(1), base.offset(128), ValueType::F32, true)
            .as_f32();
        assert_eq!(clobbered, 10.0, "value must be approximated, not actual");
    }

    #[test]
    fn degree_skips_training_fetches() {
        let cfg = SimConfig::lva(ApproximatorConfig::with_degree(4));
        let mut h = SimHarness::new(cfg);
        let base = h.alloc(64 * 400, 64);
        let addrs = seq_addrs(base, 400, 64);
        fill(&mut h, &addrs, 2.0);
        for &a in &addrs {
            let _ = h.load(Pc(9), a, ValueType::F32, true);
        }
        let run = h.finish();
        // Fetch ratio should approach 1:(4+1).
        let fetches = run.stats.fetches() as f64;
        let misses = run.stats.total.raw_misses as f64;
        assert!(
            fetches < misses / 3.0,
            "degree 4 must slash fetches: {fetches} vs {misses} misses"
        );
    }

    #[test]
    fn lvp_counts_exact_repeats_as_hits() {
        let mut h = SimHarness::new(SimConfig::lvp(lva_core::LvpConfig::baseline()));
        let base = h.alloc(64 * 200, 64);
        let addrs = seq_addrs(base, 200, 64);
        fill(&mut h, &addrs, 7.0); // identical values: perfectly predictable
        for &a in &addrs {
            let _ = h.load(Pc(4), a, ValueType::F32, true);
        }
        let run = h.finish();
        assert!(run.stats.total.lvp_correct > 150);
        assert!(run.stats.effective_misses() < 50);
        // LVP never skips fetches.
        assert_eq!(run.stats.fetches(), run.stats.total.raw_misses);
    }

    #[test]
    fn lvp_cannot_predict_close_but_unequal_floats() {
        let mut h = SimHarness::new(SimConfig::lvp(lva_core::LvpConfig::baseline()));
        let base = h.alloc(64 * 100, 64);
        for i in 0..100u64 {
            // Values within 0.1% of each other but never identical.
            h.memory_mut()
                .write_f32(base.offset(i * 64), 1.0 + i as f32 * 1e-5);
        }
        for i in 0..100u64 {
            let _ = h.load(Pc(5), base.offset(i * 64), ValueType::F32, true);
        }
        let run = h.finish();
        assert_eq!(run.stats.total.lvp_correct, 0);
        assert_eq!(run.stats.effective_misses(), 100);
    }

    #[test]
    fn realistic_lvp_predicts_stable_values_after_warmup() {
        let mut h = SimHarness::new(SimConfig::realistic_lvp());
        let base = h.alloc(64 * 300, 64);
        let addrs = seq_addrs(base, 300, 64);
        fill(&mut h, &addrs, 7.0); // identical values: predictable, eventually
        for &a in &addrs {
            let _ = h.load(Pc(4), a, ValueType::F32, true);
        }
        let run = h.finish();
        assert!(
            run.stats.total.lvp_correct > 200,
            "correct {}",
            run.stats.total.lvp_correct
        );
        assert_eq!(
            run.stats.total.rollbacks, 0,
            "identical values never roll back"
        );
        // It always fetches, like any predictor.
        assert_eq!(run.stats.fetches(), run.stats.total.raw_misses);
    }

    #[test]
    fn realistic_lvp_rolls_back_on_near_misses() {
        let mut h = SimHarness::new(SimConfig::realistic_lvp().with_value_delay(0));
        let base = h.alloc(64 * 300, 64);
        for i in 0..300u64 {
            // A long stable run builds confidence; then the values start
            // drifting — close enough that LVA's window would accept them,
            // but never exactly equal, so committed predictions roll back.
            let v = if i < 200 {
                100.0
            } else {
                100.0 + i as f32 * 0.01
            };
            h.memory_mut().write_f32(base.offset(i * 64), v);
        }
        for i in 0..300u64 {
            let _ = h.load(Pc(4), base.offset(i * 64), ValueType::F32, true);
        }
        let run = h.finish();
        assert!(
            run.stats.total.rollbacks > 0,
            "drift after warmup must roll back"
        );
        assert!(run.stats.total.lvp_correct > 0, "stable phase must predict");
    }

    #[test]
    fn prefetcher_reduces_mpki_but_inflates_fetches() {
        let run = |mech: SimConfig| {
            let mut h = SimHarness::new(mech);
            let base = h.alloc(64 * 512, 64);
            let addrs = seq_addrs(base, 512, 64); // perfectly sequential
            fill(&mut h, &addrs, 1.0);
            for &a in &addrs {
                let _ = h.load(Pc(8), a, ValueType::F32, false);
                h.tick(10);
            }
            h.finish()
        };
        let precise = run(SimConfig::precise());
        let prefetch = run(SimConfig::prefetch(4));
        assert!(prefetch.stats.mpki() < 0.5 * precise.stats.mpki());
        assert!(prefetch.stats.fetches() >= precise.stats.fetches());
        assert!(prefetch.stats.total.useful_prefetches > 0);
    }

    #[test]
    fn value_delay_defers_training() {
        // Delay 8: the first 8 loads after a miss cannot see its value.
        let cfg = SimConfig::baseline_lva().with_value_delay(8);
        let mut h = SimHarness::new(cfg);
        let base = h.alloc(64 * 10, 64);
        let addrs = seq_addrs(base, 10, 64);
        fill(&mut h, &addrs, 3.0);
        // First miss trains only after 8 more loads; the second..eighth
        // misses therefore see an empty LHB and fall through.
        for &a in &addrs {
            let _ = h.load(Pc(2), a, ValueType::F32, true);
        }
        let run = h.finish();
        assert!(
            run.stats.total.approximations <= 2,
            "got {} approximations",
            run.stats.total.approximations
        );
    }

    #[test]
    fn threads_have_private_state() {
        let mut h = SimHarness::new(SimConfig::baseline_lva());
        let base = h.alloc(64 * 2, 64);
        h.memory_mut().write_f32(base, 1.0);
        // Thread 0 touches the block; thread 1 must still miss on it.
        h.set_thread(0);
        let _ = h.load(Pc(1), base, ValueType::F32, false);
        h.set_thread(1);
        let _ = h.load(Pc(1), base, ValueType::F32, false);
        let run = h.finish();
        assert_eq!(run.stats.total.raw_misses, 2);
        assert_eq!(run.stats.per_thread[0].raw_misses, 1);
        assert_eq!(run.stats.per_thread[1].raw_misses, 1);
    }

    #[test]
    fn traces_record_all_ops_when_enabled() {
        let mut h = SimHarness::new(SimConfig::precise().with_traces());
        let base = h.alloc(64, 64);
        h.memory_mut().write_f32(base, 1.0);
        h.tick(5);
        let _ = h.load(Pc(1), base, ValueType::F32, true);
        h.store_f32(Pc(2), base, 2.0);
        let run = h.finish();
        let stats = run.traces[0].stats();
        assert_eq!(stats.instructions, 7);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.approx_loads, 1);
        assert_eq!(stats.stores, 1);
        assert!(run.traces[1].ops.is_empty());
    }

    #[test]
    fn stores_write_allocate_without_counting_load_fetches() {
        let mut h = SimHarness::new(SimConfig::precise());
        let base = h.alloc(64 * 4, 64);
        h.store_f32(Pc(1), base, 1.0);
        h.store_f32(Pc(1), base.offset(4), 2.0); // same block: hit
        let run = h.finish();
        assert_eq!(run.stats.total.store_fetches, 1);
        assert_eq!(run.stats.fetches(), 0);
        assert_eq!(run.stats.total.stores, 2);
    }

    #[test]
    fn mshr_merges_secondary_misses_on_inflight_blocks() {
        // Degree 0 LVA with value delay: the fetched block is in flight for
        // `delay` loads; accesses to it meanwhile are merged, not re-missed.
        let cfg = SimConfig::baseline_lva().with_value_delay(4);
        let mut h = SimHarness::new(cfg);
        let base = h.alloc(64 * 2, 64);
        h.memory_mut().write_f32(base, 1.0);
        h.memory_mut().write_f32(base.offset(4), 1.0);
        // Warm the approximator on a different block so the first access to
        // `base`'s block gets approximated (and fetched in background).
        h.memory_mut().write_f32(base.offset(64), 1.0);
        let _ = h.load(Pc(3), base.offset(64), ValueType::F32, true);
        let _ = h.load(Pc(3), base, ValueType::F32, true); // miss -> approximate + fetch
        let _ = h.load(Pc(3), base.offset(4), ValueType::F32, true); // in-flight: MSHR hit
        let run = h.finish();
        assert_eq!(run.stats.total.raw_misses, 2, "secondary access merged");
    }

    /// Values within the baseline 10% confidence window but far outside a
    /// tight error budget: approximations keep flowing while their quality
    /// is consistently poor.
    fn run_sloppy_pc(cfg: SimConfig, n: u64) -> RunArtifacts {
        let mut h = SimHarness::new(cfg);
        let base = h.alloc(64 * n, 64);
        for i in 0..n {
            h.memory_mut()
                .write_f32(base.offset(i * 64), 100.0 + (i % 7) as f32);
        }
        for i in 0..n {
            let _ = h.load(Pc(0x42), base.offset(i * 64), ValueType::F32, true);
        }
        h.finish()
    }

    #[test]
    fn quiet_controller_is_fingerprint_invisible() {
        // Steady values: every approximation is near-exact, so a 5% budget
        // is never violated and the controller must leave no trace.
        let run = |cfg: SimConfig| {
            let mut h = SimHarness::new(cfg);
            let base = h.alloc(64 * 300, 64);
            let addrs = seq_addrs(base, 300, 64);
            fill(&mut h, &addrs, 5.0);
            for &a in &addrs {
                let _ = h.load(Pc(7), a, ValueType::F32, true);
            }
            h.finish()
        };
        let off = run(SimConfig::baseline_lva());
        let on = run(SimConfig::baseline_lva().with_error_budget(0.05));
        assert_eq!(off.stats.fingerprint(), on.stats.fingerprint());
        assert!(!on.stats.fingerprint().contains("dg="));
        // The controller still observed and reports healthy PCs.
        assert!(on.govern.iter().any(|r| !r.entries.is_empty()));
        assert!(on
            .govern
            .iter()
            .flat_map(|r| &r.entries)
            .all(|e| e.demotions == 0));
    }

    #[test]
    fn quiet_governor_is_fingerprint_invisible() {
        use crate::govern::GovernorConfig;
        // Steady values keep every epoch clean, and the ladder starts at
        // the configured top rung, so a healthy governor has nowhere to
        // relax to and must leave the run byte-identical.
        let run = |cfg: SimConfig| {
            let mut h = SimHarness::new(cfg);
            let base = h.alloc(64 * 300, 64);
            let addrs = seq_addrs(base, 300, 64);
            fill(&mut h, &addrs, 5.0);
            for &a in &addrs {
                let _ = h.load(Pc(7), a, ValueType::F32, true);
            }
            h.finish()
        };
        let off = run(SimConfig::baseline_lva());
        let on = run(SimConfig::baseline_lva().with_govern(GovernorConfig {
            epoch_len: 50,
            min_samples: 4,
            ..GovernorConfig::slo(0.5)
        }));
        assert_eq!(off.stats.fingerprint(), on.stats.fingerprint());
        assert!(!on.stats.fingerprint().contains("gv="));
        // The governor still ran epochs — it just had nothing to say.
        assert!(on.stats.total.govern_epochs > 0, "epochs must have closed");
        assert_eq!(on.stats.total.govern_actuations, 0);
        let report = &on.govern[0];
        assert_eq!(report.level + 1, report.levels, "still at the top rung");
        assert!(off.govern.is_empty());
    }

    #[test]
    fn governor_tightens_an_over_slo_run() {
        use crate::govern::GovernorConfig;
        // Values wobble a few percent, far over a 0.1% SLO: the governor
        // must walk the window ladder down and stamp the gv= suffix.
        let cfg = SimConfig::baseline_lva().with_govern(GovernorConfig {
            epoch_len: 50,
            min_samples: 4,
            hysteresis_epochs: 1,
            ..GovernorConfig::slo(0.001)
        });
        let run = run_sloppy_pc(cfg, 600);
        assert!(run.stats.total.govern_actuations > 0, "must actuate");
        assert!(run.stats.total.govern_tightens > 0, "over-SLO must tighten");
        assert!(run.stats.fingerprint().contains("gv="));
        let report = &run.govern[0];
        assert!(report.level + 1 < report.levels, "left the top rung");
    }

    #[test]
    fn controller_demotes_over_budget_pcs() {
        use crate::govern::{GovernorConfig, QualityState};
        let cfg = SimConfig::baseline_lva().with_govern(GovernorConfig {
            min_samples: 8,
            ..GovernorConfig::budget(0.001)
        });
        let run = run_sloppy_pc(cfg, 600);
        assert!(run.stats.total.demotions > 0, "sloppy PC must demote");
        assert!(run.stats.total.degrade_forced > 0);
        assert!(run.stats.fingerprint().contains("dg="));
        let offender = run.govern[0]
            .entries
            .iter()
            .find(|e| e.pc == Pc(0x42))
            .expect("offending PC reported");
        assert!(offender.demotions > 0);
        assert_ne!(offender.state, QualityState::Healthy);
    }

    #[test]
    fn disabled_pcs_are_denied_approximation() {
        use crate::govern::GovernorConfig;
        let cfg = SimConfig::baseline_lva().with_govern(GovernorConfig {
            min_samples: 4,
            ..GovernorConfig::budget(0.0001)
        });
        let run = run_sloppy_pc(cfg, 800);
        assert!(run.stats.total.disables > 0, "must escalate to disable");
        assert!(run.stats.total.degrade_denied > 0, "denied misses expected");
        // Denied misses fetch like precise misses and are not approximated.
        assert!(run.stats.total.approximations < run.stats.total.raw_misses);
    }

    #[test]
    fn fault_injection_is_deterministic_and_visible() {
        use crate::fault::FaultConfig;
        let cfg = || {
            SimConfig::baseline_lva().with_faults(FaultConfig {
                delay_rate: 0.10,
                delay_extra: 8,
                ..FaultConfig::seeded(0xFA11)
                    .with_table_rate(0.05)
                    .with_drop_rate(0.05)
            })
        };
        let a = run_sloppy_pc(cfg(), 400);
        let b = run_sloppy_pc(cfg(), 400);
        assert_eq!(a.stats.fingerprint(), b.stats.fingerprint());
        assert!(a.stats.total.faults_injected > 0);
        assert!(a.stats.total.drains_dropped > 0);
        assert!(a.stats.total.fetches_delayed > 0);
        let clean = run_sloppy_pc(SimConfig::baseline_lva(), 400);
        assert_ne!(
            a.stats.fingerprint(),
            clean.stats.fingerprint(),
            "faults must perturb the run"
        );
    }

    #[test]
    fn try_new_rejects_bad_configs_without_panicking() {
        let cfg = SimConfig {
            threads: 0,
            ..SimConfig::precise()
        };
        assert!(matches!(
            SimHarness::try_new(cfg),
            Err(ConfigError::ZeroThreads)
        ));
    }

    #[test]
    fn timeline_deltas_sum_to_aggregate_and_never_perturb() {
        use lva_obs::TimelineConfig;
        let run = |cfg: SimConfig| {
            let mut h = SimHarness::new(cfg);
            let base = h.alloc(64 * 300, 64);
            let addrs = seq_addrs(base, 300, 64);
            fill(&mut h, &addrs, 5.0);
            for &a in &addrs {
                let _ = h.load(Pc(7), a, ValueType::F32, true);
            }
            h.finish()
        };
        let off = run(SimConfig::baseline_lva());
        let on = run(SimConfig::baseline_lva().with_timeline(TimelineConfig::every(64)));
        // The write-only contract: sampling never changes the simulation.
        assert_eq!(off.stats.fingerprint(), on.stats.fingerprint());
        assert!(off.timelines.is_empty());
        assert_eq!(on.timelines.len(), 4, "one timeline per thread");
        let tl = &on.timelines[0];
        // 300 loads at 64-load epochs: 4 full epochs + the flushed tail.
        assert_eq!(tl.len(), 5, "epochs: {}", tl.len());
        assert_eq!(tl.frames[0].span(), 64);
        assert_eq!(tl.frames[4].span(), 300 - 256);
        let t0 = &on.stats.per_thread[0];
        assert_eq!(tl.sum_counter("phase1/loads"), t0.loads);
        assert_eq!(tl.sum_counter("phase1/l1/raw_misses"), t0.raw_misses);
        assert_eq!(
            tl.sum_counter("phase1/mech/approximations"),
            t0.approximations
        );
        // Only thread 0 issued loads; idle threads have empty timelines.
        assert!(on.timelines[1].is_empty());
        // Windowed helpers read straight off a frame.
        assert!(tl.frames[0].ratio("phase1/l1/raw_misses", "phase1/loads") > 0.9);
    }

    #[test]
    fn event_tracing_is_write_only_and_attributes_every_miss() {
        use lva_obs::{PcAttribution, TraceConfig};

        let run_with = |trace: TraceConfig| {
            let mut h = SimHarness::new(SimConfig::baseline_lva().with_trace(trace));
            let base = h.alloc(64 * 300, 64);
            let addrs = seq_addrs(base, 300, 64);
            fill(&mut h, &addrs, 5.0);
            for (i, &a) in addrs.iter().enumerate() {
                h.set_thread(i % 4);
                let _ = h.load(Pc(42), a, ValueType::F32, true);
            }
            h.finish()
        };
        let off = run_with(TraceConfig::off());
        let attr_run = run_with(TraceConfig::attribution());
        let ring_run = run_with(TraceConfig::ring(1024));
        // Tracing never perturbs the simulation.
        assert_eq!(off.stats.fingerprint(), attr_run.stats.fingerprint());
        assert_eq!(off.stats.fingerprint(), ring_run.stats.fingerprint());
        // The merged attribution table accounts for every single miss.
        let mut merged = PcAttribution::new();
        for c in &attr_run.collectors {
            merged.merge(c.attribution().expect("attribution mode"));
        }
        assert_eq!(merged.total_misses(), off.stats.total.raw_misses);
        assert_eq!(
            merged.total_approximations(),
            off.stats.total.approximations
        );
        // Ring mode captured an actual event timeline.
        assert!(ring_run.collectors.iter().any(|c| !c.events().is_empty()));
        assert!(off.collectors.iter().all(|c| c.events().is_empty()));
    }

    /// One step of the differential stream below; consecutive loads are
    /// grouped into one step.
    enum Op {
        Loads(Vec<LoadReq>),
        Store(Pc, Addr, Value),
        Tick(u32),
        Thread(usize),
    }

    /// Blocks per typed array; four arrays of this many blocks overflow
    /// the 64 KB L1, so the stream sees capacity misses as well as hits.
    const DIFF_BLOCKS: u64 = 512;

    /// A seeded mix of loads (mostly near the previous address, so blocks
    /// are reused while their training fetch is still in flight), stores,
    /// ticks and thread switches over four smoothly valued typed arrays.
    fn differential_stream(h: &mut SimHarness, seed: u64, n: usize) -> Vec<Op> {
        let types = [
            ValueType::F32,
            ValueType::I32,
            ValueType::U8,
            ValueType::F64,
        ];
        let bases: Vec<Addr> = types
            .iter()
            .map(|_| h.alloc(64 * DIFF_BLOCKS, 64))
            .collect();
        let mut rng = Rng64::new(seed);
        for (&ty, &base) in types.iter().zip(&bases) {
            let count = 64 * DIFF_BLOCKS / ty.size_bytes();
            for i in 0..count {
                let v = 50.0 + (i as f64 * 0.01).sin() * 20.0 + rng.gen_f64();
                let addr = base.offset(i * ty.size_bytes());
                h.memory_mut().write_value(addr, Value::from_numeric(v, ty));
            }
        }
        let mut arr = 0usize;
        let mut elem = 0u64;
        let mut ops = Vec::new();
        for _ in 0..n {
            let ty = types[arr];
            let roll = rng.gen_range(0..100u32);
            let op = if roll < 70 {
                let count = 64 * DIFF_BLOCKS / ty.size_bytes();
                elem = if rng.gen_bool(0.8) {
                    (elem + rng.gen_range(0..24u64)) % count
                } else {
                    rng.gen_range(0..count)
                };
                let pc = Pc(0x100 + 4 * (arr as u64 * 4 + rng.gen_range(0..4u64)));
                let addr = bases[arr].offset(elem * ty.size_bytes());
                let req = (pc, addr, ty, rng.gen_bool(0.75));
                if let Some(Op::Loads(reqs)) = ops.last_mut() {
                    reqs.push(req);
                    continue;
                }
                Op::Loads(vec![req])
            } else if roll < 80 {
                arr = rng.gen_range(0..types.len());
                Op::Tick(rng.gen_range(0..6u32))
            } else if roll < 88 {
                let addr = bases[arr].offset(elem * ty.size_bytes());
                let v = Value::from_numeric(40.0 + rng.gen_f64() * 30.0, ty);
                Op::Store(Pc(0x900), addr, v)
            } else if roll < 90 {
                Op::Thread(rng.gen_range(0..2usize))
            } else {
                Op::Tick(1)
            };
            ops.push(op);
        }
        ops
    }

    /// Runs `ops`, issuing each group of loads either one
    /// [`SimHarness::load`] at a time (`splits: None`) or as
    /// [`SimHarness::load_batch`] calls of random length. Returns the run
    /// and every load's value, plus how many loads found their block in
    /// flight (L1 miss, MSHR hit) in the one-at-a-time run.
    fn run_differential(
        cfg: &SimConfig,
        seed: u64,
        mut splits: Option<&mut Rng64>,
    ) -> (RunArtifacts, Vec<Value>, u64) {
        let mut h = SimHarness::new(cfg.clone());
        let ops = differential_stream(&mut h, seed, 12_000);
        let mut values = Vec::new();
        let mut merges = 0u64;
        for op in ops {
            match op {
                Op::Loads(reqs) => match splits.as_deref_mut() {
                    None => {
                        for (pc, addr, ty, approx) in reqs {
                            let t = &h.threads[h.cur];
                            let in_flight = t.in_flight.contains_key(&addr.block_index());
                            merges += u64::from(in_flight && !t.l1.probe(addr));
                            values.push(h.load(pc, addr, ty, approx));
                        }
                    }
                    Some(rng) => {
                        let mut rest = &reqs[..];
                        while !rest.is_empty() {
                            let take = rng.gen_range(1..=rest.len().min(17));
                            let mut out = vec![Value::from_u8(0); take];
                            h.load_batch(&rest[..take], &mut out);
                            values.extend(out);
                            rest = &rest[take..];
                        }
                    }
                },
                Op::Store(pc, addr, v) => h.store(pc, addr, v),
                Op::Tick(n) => h.tick(n),
                Op::Thread(t) => h.set_thread(t),
            }
        }
        (h.finish(), values, merges)
    }

    #[test]
    fn load_batch_matches_per_load_issue() {
        use crate::govern::GovernorConfig;
        use lva_core::LvpConfig;
        use lva_obs::TimelineConfig;
        let governed = GovernorConfig {
            error_budget: Some(0.01),
            epoch_len: 200,
            min_samples: 4,
            hysteresis_epochs: 1,
            ..GovernorConfig::slo(0.005)
        };
        let configs = [
            ("precise", SimConfig::precise()),
            ("lva delay 0", SimConfig::baseline_lva().with_value_delay(0)),
            ("lva delay 4", SimConfig::baseline_lva().with_value_delay(4)),
            (
                "lva delay 40",
                SimConfig::baseline_lva().with_value_delay(40),
            ),
            (
                "lva governed",
                SimConfig::baseline_lva().with_govern(governed),
            ),
            ("lvp", SimConfig::lvp(LvpConfig::baseline())),
            ("prefetch", SimConfig::prefetch(4)),
            (
                "lva timeline",
                SimConfig::baseline_lva().with_timeline(TimelineConfig::every(64)),
            ),
        ];
        let mut splits = Rng64::new(0xBA7C);
        for (seed, (name, cfg)) in configs.into_iter().enumerate() {
            for cfg in [cfg.clone(), cfg.with_traces()] {
                let seed = 0xD1FF + seed as u64;
                let (one, one_values, merges) = run_differential(&cfg, seed, None);
                let (batch, batch_values, _) = run_differential(&cfg, seed, Some(&mut splits));
                let what = format!("{name}, traces {}", cfg.record_traces);
                let total = &one.stats.total;
                assert!(total.raw_misses > 100, "{what}: misses");
                assert!(total.l1_hits > 1000, "{what}: hits");
                if cfg.value_delay > 0 && matches!(cfg.mechanism, crate::MechanismKind::Lva(_)) {
                    assert!(merges > 0, "{what}: no load merged onto an in-flight block");
                }
                assert_eq!(one.stats.fingerprint(), batch.stats.fingerprint(), "{what}");
                assert_eq!(one_values, batch_values, "{what}: returned values");
                assert_eq!(one.traces, batch.traces, "{what}: traces");
                assert_eq!(one.timelines, batch.timelines, "{what}: timelines");
                assert_eq!(cfg.record_traces, !one.traces[0].ops.is_empty(), "{what}");
            }
        }
        let governed = run_differential(
            &SimConfig::baseline_lva().with_govern(governed),
            0xD1FF + 4,
            None,
        );
        assert!(
            governed.0.stats.per_thread[0].govern_epochs > 0,
            "the governor closed epochs"
        );
    }

    #[test]
    fn pc_filter_collisions_keep_every_annotated_pc() {
        use std::collections::BTreeSet;
        // Three filter slots, each shared by 40 PCs: 120 distinct annotated
        // PCs, far more than the filter holds. Thread 1 issues only the
        // even ones, so the two threads' sets differ.
        let stride = 4 * PC_FILTER_SLOTS as u64;
        let colliding: Vec<Pc> = (0..3u64)
            .flat_map(|s| (0..40u64).map(move |m| Pc(0x4000 + 4 * s + stride * m)))
            .collect();
        // (thread, pc, element, approx), interleaved load by load.
        let mut rng = Rng64::new(0xF11E);
        let stream: Vec<(usize, Pc, u64, bool)> = (0..6_000u64)
            .map(|i| {
                let thread = usize::from(rng.gen_bool(0.3));
                let pool = colliding.len() as u64 >> thread;
                let elem = rng.gen_range(0..4096u64);
                if rng.gen_bool(0.1) {
                    // Precise loads never enter the set.
                    (thread, Pc(0x9000 + 4 * (i % 7)), elem, false)
                } else {
                    let pc = colliding[(rng.gen_range(0..pool) << thread) as usize];
                    (thread, pc, elem, true)
                }
            })
            .collect();
        let mut expected = [BTreeSet::new(), BTreeSet::new()];
        for &(thread, pc, _, approx) in &stream {
            if approx {
                expected[thread].insert(pc.0);
            }
        }
        assert_eq!([expected[0].len(), expected[1].len()], [120, 60]);
        let union: BTreeSet<u64> = expected.iter().flatten().copied().collect();

        let mut splits = Rng64::new(0x5B17);
        for cfg in [SimConfig::precise(), SimConfig::baseline_lva()] {
            for batched in [false, true] {
                let mut h = SimHarness::new(cfg.clone());
                let base = h.alloc(4 * 4096, 64);
                let mut rest = &stream[..];
                while let Some(&(thread, ..)) = rest.first() {
                    h.set_thread(thread);
                    let same = rest.iter().take_while(|op| op.0 == thread).count();
                    let take = if batched {
                        splits.gen_range(1..=same)
                    } else {
                        1
                    };
                    let reqs: Vec<LoadReq> = rest[..take]
                        .iter()
                        .map(|&(_, pc, elem, approx)| {
                            (pc, base.offset(4 * elem), ValueType::F32, approx)
                        })
                        .collect();
                    if batched {
                        let mut out = vec![Value::from_u8(0); take];
                        h.load_batch(&reqs, &mut out);
                    } else {
                        let (pc, addr, ty, approx) = reqs[0];
                        let _ = h.load(pc, addr, ty, approx);
                    }
                    rest = &rest[take..];
                }
                let run = h.finish();
                for (thread, want) in expected.iter().enumerate() {
                    let got: BTreeSet<u64> = run.stats.per_thread[thread]
                        .approx_pcs
                        .iter()
                        .map(|pc| pc.0)
                        .collect();
                    assert_eq!(&got, want, "thread {thread}, batched {batched}");
                }
                assert_eq!(run.stats.static_approx_pcs(), union.len());
            }
        }
    }
}
