//! Phase-2 full-system simulation (§V-B, Figs. 10–11).
//!
//! Replays the per-thread traces recorded by the phase-1 harness through
//! the paper's Table II machine: four 4-wide out-of-order cores with
//! private 16 KB L1s, a 512 KB shared L2 distributed over four banks with
//! MSI directory coherence, a 2×2 mesh NoC with 3-cycle routers and a
//! 160-cycle main memory behind each bank.
//!
//! Load value approximation sits beside each L1: an annotated load miss
//! consults the core's private approximator; when it approximates, the load
//! completes at L1-hit latency and the training fetch (if the degree
//! counter demands one) proceeds off the critical path. Value delay arises
//! naturally from the fetch latency here, unlike the fixed-delay model of
//! phase 1.

use crate::degrade::DegradeConfig;
use crate::govern::{Governor, GovernorConfig, GovernorReport};
use crate::mechanism::{Knob, KnobKind, Mechanism};
use crate::miss::{MissAction, MissPipeline};
use crate::stats::ThreadStats;
use crate::{ConfigError, MechanismKind};
use lva_core::{Addr, Pc, TrainToken, Value, ValueType, BLOCK_BYTES};
use lva_cpu::{LoadResponse, MemoryPort, OooCore, ReqId, ThreadTrace};
use lva_energy::{EnergyEvents, EnergyParams};
use lva_mem::{CacheConfig, Directory, DirectoryState, LineState, SetAssocCache, SharerSet};
use lva_noc::{LowPowerPlane, Mesh, MeshConfig, NodeId, Plane};
use lva_obs::{EpochSampler, MetricsRegistry, NullSink, Timeline, TraceCtx};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

const CTRL_FLITS: u64 = 1;
/// 64 B block at 16 B/flit plus a head flit.
const DATA_FLITS: u64 = 5;

/// Coherence protocol run by the directory (Table II specifies MSI; MESI
/// is provided as an ablation — its E state lets private read-then-write
/// data skip the upgrade request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceProtocol {
    /// The paper's MSI protocol.
    #[default]
    Msi,
    /// MESI: GetS to an uncached block grants Exclusive; stores to E lines
    /// upgrade silently.
    Mesi,
}

/// Full-system configuration (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct FullSystemConfig {
    /// Miss-handling mechanism. Only [`MechanismKind::Precise`] and
    /// [`MechanismKind::Lva`] appear in the paper's full-system results.
    pub mechanism: MechanismKind,
    /// Private L1 geometry (16 KB, 8-way).
    pub l1: CacheConfig,
    /// Per-bank L2 geometry (128 KB, 16-way; 4 banks = 512 KB).
    pub l2_bank: CacheConfig,
    /// Mesh geometry (2×2, 3-cycle routers).
    pub mesh: MeshConfig,
    /// L1 hit latency in cycles (1).
    pub l1_latency: u64,
    /// L2 bank access latency in cycles (6).
    pub l2_latency: u64,
    /// Main-memory access latency in cycles (160).
    pub dram_latency: u64,
    /// Extra cycles added to approximator *training* fetches before they
    /// enter the NoC — modelling the §VI-C optimization of deprioritizing
    /// approximate blocks on low-energy NoC/memory paths. The paper argues
    /// LVA tolerates this because approximators are resilient to high value
    /// delays; 0 in the baseline.
    pub training_fetch_penalty: u64,
    /// Route training fetches (and their data responses) over a
    /// heterogeneous low-power NoC plane (§VI-C). `None` in the baseline.
    pub hetero_noc: Option<LowPowerPlane>,
    /// Directory coherence protocol (paper baseline: MSI).
    pub protocol: CoherenceProtocol,
    /// Hard cycle limit (deadlock guard).
    pub max_cycles: u64,
    /// Per-PC quality-budget degradation controller beside each L1 (off by
    /// default; only meaningful with an LVA mechanism). Fault injection is
    /// phase-1 only — phase 2 replays traces whose values are already
    /// fixed, so corrupting them would break replay fidelity.
    pub degrade: Option<DegradeConfig>,
    /// Per-L1 supervisory governor (off by default; only meaningful with
    /// an LVA mechanism). Epochs run on the machine's cycle clock, at the
    /// end of the cycle that reaches each boundary.
    pub govern: Option<GovernorConfig>,
    /// Epoch timeline sampling in the *cycle* domain (off by default).
    /// Strictly write-only: the statistics are identical with it on or
    /// off. Collected via [`FullSystem::run_with_timeline`].
    pub timeline: Option<lva_obs::TimelineConfig>,
    /// Dispatch worker count, kept so existing configurations still build.
    /// The cycle loop ticks every core on the calling thread, so the value
    /// changes nothing: a replay uses one worker whatever it holds.
    pub threads: Option<usize>,
}

impl FullSystemConfig {
    /// The paper's machine with the given mechanism.
    #[must_use]
    pub fn paper(mechanism: MechanismKind) -> Self {
        FullSystemConfig {
            mechanism,
            l1: CacheConfig::fullsystem_l1(),
            l2_bank: CacheConfig::fullsystem_l2_bank(),
            mesh: MeshConfig::paper(),
            l1_latency: 1,
            l2_latency: 6,
            dram_latency: 160,
            training_fetch_penalty: 0,
            hetero_noc: None,
            protocol: CoherenceProtocol::Msi,
            max_cycles: 2_000_000_000,
            degrade: None,
            govern: None,
            timeline: None,
            threads: None,
        }
    }

    /// Same machine, with the quality-budget degradation controller
    /// enforcing `error_budget` beside each L1.
    #[must_use]
    pub fn with_error_budget(mut self, error_budget: f64) -> Self {
        self.degrade = Some(DegradeConfig::budget(error_budget));
        self
    }

    /// Same machine, with an explicit degradation controller configuration.
    #[must_use]
    pub fn with_degrade(mut self, degrade: DegradeConfig) -> Self {
        self.degrade = Some(degrade);
        self
    }

    /// Same machine, with a per-L1 supervisory governor holding
    /// `slo_error` (see [`GovernorConfig::slo`]).
    #[must_use]
    pub fn with_govern_slo(mut self, slo_error: f64) -> Self {
        self.govern = Some(GovernorConfig::slo(slo_error));
        self
    }

    /// Same machine, with an explicit governor configuration.
    #[must_use]
    pub fn with_govern(mut self, govern: GovernorConfig) -> Self {
        self.govern = Some(govern);
        self
    }

    /// Same machine, with training fetches deprioritized by `cycles`
    /// (§VI-C: heterogeneous NoC / low-energy memory paths).
    #[must_use]
    pub fn with_deprioritized_training(mut self, cycles: u64) -> Self {
        self.training_fetch_penalty = cycles;
        self
    }

    /// Same machine, with a heterogeneous low-power NoC plane carrying the
    /// approximator's training traffic (§VI-C).
    #[must_use]
    pub fn with_hetero_noc(mut self, plane: LowPowerPlane) -> Self {
        self.hetero_noc = Some(plane);
        self
    }

    /// Same machine, running MESI instead of MSI.
    #[must_use]
    pub fn with_mesi(mut self) -> Self {
        self.protocol = CoherenceProtocol::Mesi;
        self
    }

    /// Same machine, with cycle-domain epoch timeline sampling attached.
    #[must_use]
    pub fn with_timeline(mut self, timeline: lva_obs::TimelineConfig) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Same machine, with [`FullSystemConfig::threads`] set. The cycle
    /// loop is single-threaded; neither the run nor its statistics depend
    /// on this value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// Results of a full-system run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FullSystemStats {
    /// Total cycles until every core drained its trace.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Primary L1 load misses (secondary misses merge into MSHRs).
    pub l1_load_misses: u64,
    /// Of those, misses served by an approximation.
    pub approximated: u64,
    /// Sum of per-miss service latencies (approximated misses contribute
    /// their tiny approximator latency — that is the win).
    pub miss_latency_sum: u64,
    /// Data blocks delivered from L2 banks to L1s.
    pub l2_data_blocks: u64,
    /// Main-memory accesses (fills + dirty writebacks).
    pub dram_accesses: u64,
    /// NoC flit-hops (interconnect traffic, Fig. 10 discussion).
    pub flit_hops: u64,
    /// Cycles cores spent stalled on a pending load at the ROB head.
    pub head_stall_cycles: u64,
    /// Cycles spent draining background traffic (training fetches nobody
    /// waits for) after the last core retired its trace. Not part of
    /// execution time — `cycles` stops when the cores finish.
    pub drain_cycles: u64,
    /// Healthy→Demoted transitions by the quality-budget controllers.
    pub demotions: u64,
    /// Demoted→Disabled transitions.
    pub disables: u64,
    /// Annotated misses denied approximation (disabled PCs).
    pub degrade_denied: u64,
    /// Annotated misses approximated under a forced-fetch policy.
    pub degrade_forced: u64,
    /// Governor epochs closed across all L1s ([`FullSystemConfig::govern`]).
    pub govern_epochs: u64,
    /// Knob actuations applied by the per-L1 governors.
    pub govern_actuations: u64,
    /// Over-SLO tighten transitions taken by the governors.
    pub govern_tightens: u64,
    /// Upward (relax) probes taken by the governors.
    pub govern_relaxes: u64,
    /// Probes reverted for an SLO or EDP regression.
    pub govern_reverts: u64,
    /// Floor-level per-PC disables by the governors.
    pub govern_disables: u64,
    /// End-of-run per-L1 governor reports (empty when governing is off).
    pub govern: Vec<GovernorReport>,
    /// Energy events for `lva-energy`.
    pub energy: EnergyEvents,
}

impl FullSystemStats {
    /// Instructions per cycle across the whole machine.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Average L1 miss service latency in cycles.
    #[must_use]
    pub fn avg_miss_latency(&self) -> f64 {
        if self.l1_load_misses == 0 {
            0.0
        } else {
            self.miss_latency_sum as f64 / self.l1_load_misses as f64
        }
    }

    /// Speedup of `self` relative to a `baseline` run of the same trace:
    /// `baseline.cycles / self.cycles`.
    #[must_use]
    pub fn speedup_vs(&self, baseline: &FullSystemStats) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Dynamic memory-hierarchy energy (nJ) under the given parameters.
    #[must_use]
    pub fn hierarchy_energy_nj(&self, params: &EnergyParams) -> f64 {
        params.breakdown(&self.energy).hierarchy_nj()
    }

    /// Energy-delay product of L1 misses, the Fig. 11 metric: average
    /// hierarchy energy per miss × average miss latency.
    #[must_use]
    pub fn l1_miss_edp(&self, params: &EnergyParams) -> f64 {
        if self.l1_load_misses == 0 {
            return 0.0;
        }
        let energy_per_miss = self.hierarchy_energy_nj(params) / self.l1_load_misses as f64;
        lva_energy::l1_miss_edp(energy_per_miss, self.avg_miss_latency())
    }

    /// Exports the run's two phases as trace spans in the cycle domain:
    /// `cores-active` covers 0..`cycles` (execution time) and
    /// `background-drain` covers the tail where outstanding training
    /// fetches finish after the last core retired. One cycle maps to one
    /// trace-timestamp unit (rendered as a microsecond by the Chrome
    /// exporter). Spans go on core 0's track; purely post-run.
    pub fn record_trace(&self, sink: &mut dyn lva_obs::TraceSink) {
        if !sink.enabled() {
            return;
        }
        use lva_obs::{TraceCtx, TraceEvent, TraceEventKind};
        sink.record(TraceEvent::at(
            TraceCtx::new(0, 0),
            TraceEventKind::Span {
                name: "cores-active".to_owned(),
                dur: self.cycles,
            },
        ));
        if self.drain_cycles > 0 {
            sink.record(TraceEvent::at(
                TraceCtx::new(0, self.cycles),
                TraceEventKind::Span {
                    name: "background-drain".to_owned(),
                    dur: self.drain_cycles,
                },
            ));
        }
    }

    /// Exports the phase-2 machine counters into a metrics registry:
    /// `<prefix>/cycles`, `<prefix>/l1/load_misses`, `<prefix>/noc/flit_hops`,
    /// `<prefix>/energy/<component>_accesses`, the CACTI-32nm energy
    /// breakdown in nJ (`<prefix>/energy/<component>_nj` plus totals and
    /// the Fig. 11 EDP under `<prefix>/energy/edp`), governor counters
    /// under `<prefix>/govern/*` (only when a governor actuated), and the
    /// derived IPC and average miss latency. Purely post-run — the
    /// simulation never reads the registry back.
    pub fn record_metrics(&self, registry: &mut lva_obs::MetricsRegistry, prefix: &str) {
        let p = |m: &str| format!("{prefix}/{m}");
        registry.counter(&p("cycles")).add(self.cycles);
        registry.counter(&p("instructions")).add(self.instructions);
        registry.counter(&p("l1/load_misses")).add(self.l1_load_misses);
        registry.counter(&p("l1/approximated")).add(self.approximated);
        registry
            .counter(&p("l1/miss_latency_sum"))
            .add(self.miss_latency_sum);
        registry.counter(&p("l2/data_blocks")).add(self.l2_data_blocks);
        registry.counter(&p("dram/accesses")).add(self.dram_accesses);
        registry.counter(&p("noc/flit_hops")).add(self.flit_hops);
        registry
            .counter(&p("core/head_stall_cycles"))
            .add(self.head_stall_cycles);
        registry.counter(&p("drain_cycles")).add(self.drain_cycles);
        registry
            .counter(&p("energy/l1_accesses"))
            .add(self.energy.l1_accesses);
        registry
            .counter(&p("energy/l2_accesses"))
            .add(self.energy.l2_accesses);
        registry
            .counter(&p("energy/dram_accesses"))
            .add(self.energy.dram_accesses);
        registry
            .counter(&p("energy/noc_flit_hops"))
            .add(self.energy.noc_flit_hops);
        registry
            .counter(&p("energy/noc_low_power_flit_hops"))
            .add(self.energy.noc_low_power_flit_hops);
        registry
            .counter(&p("energy/approximator_accesses"))
            .add(self.energy.approximator_accesses);
        registry.counter(&p("degrade/demotions")).add(self.demotions);
        registry.counter(&p("degrade/disables")).add(self.disables);
        registry.counter(&p("degrade/denied")).add(self.degrade_denied);
        registry
            .counter(&p("degrade/forced_fetches"))
            .add(self.degrade_forced);
        // Same gating as the phase-1 fingerprint's gv= suffix: a governor
        // that never actuated leaves the manifest byte-identical.
        if self.govern_actuations != 0 {
            registry.counter(&p("govern/epochs")).add(self.govern_epochs);
            registry
                .counter(&p("govern/actuations"))
                .add(self.govern_actuations);
            registry
                .counter(&p("govern/tightens"))
                .add(self.govern_tightens);
            registry.counter(&p("govern/relaxes")).add(self.govern_relaxes);
            registry.counter(&p("govern/reverts")).add(self.govern_reverts);
            registry
                .counter(&p("govern/pc_disables"))
                .add(self.govern_disables);
        }
        let params = EnergyParams::cacti_32nm();
        let breakdown = params.breakdown(&self.energy);
        registry.gauge(&p("energy/l1_nj")).set(breakdown.l1_nj);
        registry.gauge(&p("energy/l2_nj")).set(breakdown.l2_nj);
        registry.gauge(&p("energy/dram_nj")).set(breakdown.dram_nj);
        registry.gauge(&p("energy/noc_nj")).set(breakdown.noc_nj);
        registry
            .gauge(&p("energy/approximator_nj"))
            .set(breakdown.approximator_nj);
        registry.gauge(&p("energy/total_nj")).set(breakdown.total_nj());
        registry
            .gauge(&p("energy/hierarchy_nj"))
            .set(breakdown.hierarchy_nj());
        registry.gauge(&p("energy/edp")).set(self.l1_miss_edp(&params));
        registry.gauge(&p("derived/ipc")).set(self.ipc());
        registry
            .gauge(&p("derived/avg_miss_latency"))
            .set(self.avg_miss_latency());
    }
}

impl std::fmt::Display for FullSystemStats {
    /// A compact human-readable summary, used by the CLI and examples.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cycles            {:>14}", self.cycles)?;
        writeln!(f, "instructions      {:>14}", self.instructions)?;
        writeln!(f, "IPC               {:>14.3}", self.ipc())?;
        writeln!(f, "L1 load misses    {:>14}", self.l1_load_misses)?;
        writeln!(f, "approximated      {:>14}", self.approximated)?;
        writeln!(f, "avg miss latency  {:>14.1}", self.avg_miss_latency())?;
        writeln!(f, "DRAM accesses     {:>14}", self.dram_accesses)?;
        write!(f, "NoC flit-hops     {:>14}", self.flit_hops)
    }
}

// ---------------------------------------------------------------- messages

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    /// L1 → home bank: read request. `training` marks an approximator
    /// training fetch, which may ride the low-power plane.
    GetS {
        block: u64,
        requester: usize,
        training: bool,
    },
    /// L1 → home bank: write (ownership) request.
    GetM { block: u64, requester: usize },
    /// Bank → L1: data response; `exclusive` grants M, `exclusive_clean`
    /// grants MESI's E; `slow` keeps the response on the low-power plane
    /// its request used.
    Data {
        block: u64,
        exclusive: bool,
        exclusive_clean: bool,
        slow: bool,
    },
    /// Bank → owner L1: forward a read; owner downgrades and responds.
    FwdGetS { block: u64 },
    /// Bank → owner L1: forward a write; owner invalidates and responds.
    FwdGetM { block: u64 },
    /// Owner L1 → bank: data written back in response to a forward.
    OwnerData { block: u64, sender: usize },
    /// Owner L1 → bank: the forwarded line was still clean (MESI's E), so
    /// no data travels — the bank's copy is valid. One control flit.
    OwnerClean { block: u64, sender: usize },
    /// Bank → sharer L1: invalidate.
    Inv { block: u64 },
    /// Sharer L1 → bank: invalidation acknowledged.
    InvAck { block: u64, sender: usize },
    /// L1 → home bank: dirty eviction writeback.
    PutM { block: u64, sender: usize },
}

impl Msg {
    fn flits(&self) -> u64 {
        match self {
            Msg::Data { .. } | Msg::OwnerData { .. } | Msg::PutM { .. } => DATA_FLITS,
            _ => CTRL_FLITS,
        }
    }

    /// Bank-side messages are handled by the home bank on the node; the
    /// rest are L1-side.
    fn is_for_bank(&self) -> bool {
        matches!(
            self,
            Msg::GetS { .. }
                | Msg::GetM { .. }
                | Msg::OwnerData { .. }
                | Msg::OwnerClean { .. }
                | Msg::InvAck { .. }
                | Msg::PutM { .. }
        )
    }
}

// ------------------------------------------------------------------- banks

#[derive(Debug)]
struct Transaction {
    requester: usize,
    wants_m: bool,
    /// Owner we are waiting on for OwnerData, if any.
    waiting_owner: Option<usize>,
    acks_left: u32,
    /// The request arrived on the low-power plane; respond in kind.
    slow: bool,
    /// Grant MESI's E state with the data.
    grant_e: bool,
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct DramEvent {
    due: u64,
    block: u64,
}

#[derive(Debug)]
struct Bank {
    node: NodeId,
    l2: SetAssocCache,
    dir: Directory,
    trans: HashMap<u64, Transaction>,
    retry: VecDeque<Msg>,
    dram: BinaryHeap<Reverse<DramEvent>>,
}

// --------------------------------------------------------------------- L1s

#[derive(Debug)]
struct Mshr {
    /// Outstanding load requests (id, issue cycle) waiting for data.
    reqs: Vec<(ReqId, u64)>,
    /// Approximator trainings to apply when the data arrives.
    train: Vec<(TrainToken, Value)>,
    /// Whether the primary miss was served by an approximation; secondary
    /// annotated misses then reuse it (fast completion) instead of waiting.
    has_approximation: bool,
}

#[derive(Debug)]
struct L1Ctx {
    cache: SetAssocCache,
    /// `Lva` for the lva and lva+clp mechanisms (phase 2 replays the
    /// hybrid with its approximator alone), `Precise` otherwise.
    mechanism: Mechanism,
    mshr: HashMap<u64, Mshr>,
    /// The LVA miss decision with this L1's degrade controller and
    /// governor ([`FullSystemConfig::degrade`], [`FullSystemConfig::govern`]).
    miss: MissPipeline,
    /// Per-L1 phase-1 [`ThreadStats`]: the miss pipeline writes its
    /// counters here, and the miss path mirrors its load/fetch/latency
    /// counts in so the governor's per-epoch EDP estimate has a signal to
    /// diff. Folded into [`FullSystemStats`] after the run.
    local_stats: ThreadStats,
}

/// The memory system shared by all cores: caches, directory banks, mesh.
/// Implements [`MemoryPort`] for the core models.
#[derive(Debug)]
struct MemorySystem {
    cfg: FullSystemConfig,
    mesh: Mesh<Msg>,
    l1: Vec<L1Ctx>,
    banks: Vec<Bank>,
    completions: Vec<(usize, ReqId, u64)>,
    next_req: u64,
    stats: FullSystemStats,
}

impl MemorySystem {
    fn try_new(cfg: FullSystemConfig) -> Result<Self, ConfigError> {
        MissPipeline::validate(&cfg.mechanism, cfg.degrade.as_ref(), cfg.govern.as_ref())?;
        let nodes = cfg.mesh.nodes();
        let mut l1 = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            // Phase 2 only models Precise and LVA (the paper's full-system
            // results); other kinds — including standalone clp — degrade to
            // precise replay, and the lva+clp hybrid replays with its
            // approximator alone, so the governor's ladder has no CLP
            // screen here. Construction still goes through the shared
            // Mechanism front door so bad geometry surfaces as the same
            // ConfigError everywhere.
            let mechanism = match Mechanism::from_kind(&cfg.mechanism)? {
                Mechanism::Lva(a) | Mechanism::LvaClp(a, _) => Mechanism::Lva(a),
                _ => Mechanism::Precise,
            };
            let govern = cfg
                .govern
                .filter(|_| matches!(mechanism, Mechanism::Lva(_)));
            l1.push(L1Ctx {
                cache: SetAssocCache::new(cfg.l1),
                miss: MissPipeline::new(&mechanism, cfg.degrade.as_ref(), govern, None),
                mechanism,
                mshr: HashMap::new(),
                local_stats: ThreadStats::default(),
            });
        }
        let banks = (0..nodes)
            .map(|i| Bank {
                node: NodeId(i),
                l2: SetAssocCache::new(cfg.l2_bank),
                dir: Directory::new(),
                trans: HashMap::new(),
                retry: VecDeque::new(),
                dram: BinaryHeap::new(),
            })
            .collect();
        let mesh = match cfg.hetero_noc {
            Some(plane) => Mesh::new_heterogeneous(cfg.mesh, plane),
            None => Mesh::new(cfg.mesh),
        };
        Ok(MemorySystem {
            cfg,
            mesh,
            l1,
            banks,
            completions: Vec::new(),
            next_req: 0,
            stats: FullSystemStats::default(),
        })
    }

    fn home_of(&self, block: u64) -> usize {
        (block % self.banks.len() as u64) as usize
    }

    fn block_addr(block: u64) -> Addr {
        Addr(block * BLOCK_BYTES)
    }

    fn send(&mut self, now: u64, src: usize, dst: usize, msg: Msg) {
        let plane = match msg {
            Msg::GetS { training: true, .. } | Msg::Data { slow: true, .. } => Plane::LowPower,
            _ => Plane::Fast,
        };
        self.mesh
            .send_on(plane, now, NodeId(src), NodeId(dst), msg.flits(), msg);
    }

    /// One cycle of the memory system: DRAM completions, bank retries, and
    /// message delivery.
    fn tick(&mut self, now: u64) {
        // Most cycles nothing reaches the memory system: no retry queued,
        // no DRAM fill due, no packet arriving. The scan below would then
        // change nothing, so skip it.
        let bank_busy = |b: &Bank| {
            !b.retry.is_empty() || b.dram.peek().is_some_and(|Reverse(ev)| ev.due <= now)
        };
        if !self.banks.iter().any(bank_busy) && self.mesh.next_arrival().is_none_or(|t| t > now) {
            return;
        }
        // DRAM fills that are due.
        for b in 0..self.banks.len() {
            loop {
                let due = match self.banks[b].dram.peek() {
                    Some(Reverse(ev)) if ev.due <= now => ev.block,
                    _ => break,
                };
                self.banks[b].dram.pop();
                self.dram_fill_ready(now, b, due);
            }
            // Retry queue: one pass per cycle over what was queued before
            // it; requests that must retry again queue behind them.
            for _ in 0..self.banks[b].retry.len() {
                let msg = self.banks[b].retry.pop_front().expect("queued retry");
                self.bank_handle(now, b, msg);
            }
        }
        // Mesh deliveries.
        for node in 0..self.cfg.mesh.nodes() {
            for msg in self.mesh.poll(NodeId(node), now) {
                if msg.is_for_bank() {
                    self.bank_handle(now, node, msg);
                } else {
                    self.l1_handle(now, node, msg);
                }
            }
        }
    }

    /// Nothing left in flight anywhere?
    fn quiescent(&self) -> bool {
        self.mesh.next_arrival().is_none()
            && self.l1.iter().all(|l| l.mshr.is_empty())
            && self
                .banks
                .iter()
                .all(|b| b.trans.is_empty() && b.retry.is_empty() && b.dram.is_empty())
    }

    // ---------------- bank side ----------------

    fn bank_handle(&mut self, now: u64, bank_idx: usize, msg: Msg) {
        match msg {
            Msg::GetS {
                block,
                requester,
                training,
            } => self.bank_get(now, bank_idx, block, requester, false, training),
            Msg::GetM { block, requester } => {
                self.bank_get(now, bank_idx, block, requester, true, false)
            }
            Msg::OwnerData { block, sender } => {
                self.bank_owner_data(now, bank_idx, block, sender, true)
            }
            Msg::OwnerClean { block, sender } => {
                self.bank_owner_data(now, bank_idx, block, sender, false)
            }
            Msg::InvAck { block, .. } => self.bank_inv_ack(now, bank_idx, block),
            Msg::PutM { block, sender } => self.bank_put_m(now, bank_idx, block, sender),
            _ => unreachable!("L1-side message at bank: {msg:?}"),
        }
    }

    fn bank_get(
        &mut self,
        now: u64,
        b: usize,
        block: u64,
        requester: usize,
        wants_m: bool,
        training: bool,
    ) {
        let slow = training && self.cfg.hetero_noc.is_some();
        if self.banks[b].trans.contains_key(&block) {
            self.banks[b].retry.push_back(if wants_m {
                Msg::GetM { block, requester }
            } else {
                Msg::GetS {
                    block,
                    requester,
                    training,
                }
            });
            return;
        }
        let state = self.banks[b].dir.state(Self::block_addr(block));
        match state {
            DirectoryState::Modified(owner) | DirectoryState::Exclusive(owner)
                if owner != requester =>
            {
                // An E owner may have silently upgraded to M, so its copy
                // is authoritative either way: forward.
                self.banks[b].trans.insert(
                    block,
                    Transaction {
                        requester,
                        wants_m,
                        waiting_owner: Some(owner),
                        acks_left: 0,
                        slow,
                        grant_e: false,
                    },
                );
                let fwd = if wants_m {
                    Msg::FwdGetM { block }
                } else {
                    Msg::FwdGetS { block }
                };
                let bank_node = self.banks[b].node.0;
                self.send(now, bank_node, owner, fwd);
            }
            DirectoryState::Shared(sharers) if wants_m => {
                let mut others = sharers;
                others.remove(requester);
                if others.is_empty() {
                    self.finish_directory(b, block, requester, true);
                    self.serve_data(now, b, block, requester, true, false, slow);
                } else {
                    self.banks[b].trans.insert(
                        block,
                        Transaction {
                            requester,
                            wants_m,
                            waiting_owner: None,
                            acks_left: others.count(),
                            slow,
                            grant_e: false,
                        },
                    );
                    let bank_node = self.banks[b].node.0;
                    for sharer in others.iter() {
                        self.send(now, bank_node, sharer, Msg::Inv { block });
                    }
                }
            }
            // Read of a Shared/Uncached block, write of an Uncached block,
            // or a request by the recorded owner itself (a stale-directory
            // corner produced by in-flight writebacks): serve directly.
            _ => {
                let exclusive = wants_m;
                // MESI: a read with no other sharers gets the E state and
                // may later upgrade silently.
                let grant_e = !wants_m
                    && self.cfg.protocol == CoherenceProtocol::Mesi
                    && !matches!(state, DirectoryState::Shared(_));
                let mut sharers = match state {
                    DirectoryState::Shared(s) if !wants_m => s,
                    _ => SharerSet::empty(),
                };
                sharers.insert(requester);
                let next = if exclusive {
                    DirectoryState::Modified(requester)
                } else if grant_e {
                    DirectoryState::Exclusive(requester)
                } else {
                    DirectoryState::Shared(sharers)
                };
                self.banks[b].dir.set_state(Self::block_addr(block), next);
                self.serve_data(now, b, block, requester, exclusive, grant_e, slow);
            }
        }
    }

    fn finish_directory(&mut self, b: usize, block: u64, requester: usize, exclusive: bool) {
        let next = if exclusive {
            DirectoryState::Modified(requester)
        } else {
            let mut s = match self.banks[b].dir.state(Self::block_addr(block)) {
                DirectoryState::Shared(s) => s,
                _ => SharerSet::empty(),
            };
            s.insert(requester);
            DirectoryState::Shared(s)
        };
        self.banks[b].dir.set_state(Self::block_addr(block), next);
    }

    /// Sends the block to the requester, going to DRAM if the bank misses.
    /// Must be called with directory state already finalized; consumes any
    /// transaction once data is on the wire.
    #[allow(clippy::too_many_arguments)]
    fn serve_data(
        &mut self,
        now: u64,
        b: usize,
        block: u64,
        requester: usize,
        exclusive: bool,
        grant_e: bool,
        slow: bool,
    ) {
        self.stats.energy.l2_accesses += 1;
        let addr = Self::block_addr(block);
        if self.banks[b].l2.access(addr).is_hit() {
            self.stats.l2_data_blocks += 1;
            let bank_node = self.banks[b].node.0;
            self.send(
                now + self.cfg.l2_latency,
                bank_node,
                requester,
                Msg::Data {
                    block,
                    exclusive,
                    exclusive_clean: grant_e,
                    slow,
                },
            );
            self.banks[b].trans.remove(&block);
        } else {
            // Miss in the bank: fetch from this bank's DRAM channel. Keep a
            // transaction so the requester/exclusivity survive the wait.
            self.banks[b]
                .trans
                .entry(block)
                .or_insert(Transaction {
                    requester,
                    wants_m: exclusive,
                    waiting_owner: None,
                    acks_left: 0,
                    slow,
                    grant_e,
                });
            self.banks[b].dram.push(Reverse(DramEvent {
                due: now + self.cfg.l2_latency + self.cfg.dram_latency,
                block,
            }));
        }
    }

    fn dram_fill_ready(&mut self, now: u64, b: usize, block: u64) {
        self.stats.dram_accesses += 1;
        self.stats.energy.dram_accesses += 1;
        let addr = Self::block_addr(block);
        if let Some((_victim, LineState::Modified)) = self.banks[b].l2.install(addr, false) {
            // Dirty L2 victim written back to memory.
            self.stats.dram_accesses += 1;
            self.stats.energy.dram_accesses += 1;
        }
        let Some(t) = self.banks[b].trans.remove(&block) else {
            return;
        };
        self.stats.l2_data_blocks += 1;
        self.stats.energy.l2_accesses += 1;
        let bank_node = self.banks[b].node.0;
        self.send(
            now,
            bank_node,
            t.requester,
            Msg::Data {
                block,
                exclusive: t.wants_m,
                exclusive_clean: t.grant_e,
                slow: t.slow,
            },
        );
    }

    fn bank_owner_data(&mut self, now: u64, b: usize, block: u64, _sender: usize, dirty: bool) {
        let addr = Self::block_addr(block);
        if dirty {
            // The owner's dirty data lands in the L2.
            self.stats.energy.l2_accesses += 1;
            if let Some((_victim, LineState::Modified)) =
                self.banks[b].l2.install_in_state(addr, LineState::Modified, false)
            {
                self.stats.dram_accesses += 1;
                self.stats.energy.dram_accesses += 1;
            }
        }
        let Some(t) = self.banks[b].trans.get(&block) else {
            // Stale response (transaction already satisfied); treat as a
            // plain writeback.
            return;
        };
        let (requester, wants_m, slow) = (t.requester, t.wants_m, t.slow);
        let owner = t.waiting_owner;
        // Directory: GetS leaves {old owner, requester} shared; GetM makes
        // the requester the new owner.
        let next = if wants_m {
            DirectoryState::Modified(requester)
        } else {
            let mut s = SharerSet::only(requester);
            if let Some(o) = owner {
                s.insert(o);
            }
            DirectoryState::Shared(s)
        };
        self.banks[b].dir.set_state(addr, next);
        self.serve_data(now, b, block, requester, wants_m, false, slow);
    }

    fn bank_inv_ack(&mut self, now: u64, b: usize, block: u64) {
        let Some(t) = self.banks[b].trans.get_mut(&block) else {
            return;
        };
        t.acks_left = t.acks_left.saturating_sub(1);
        if t.acks_left == 0 {
            let (requester, slow) = (t.requester, t.slow);
            self.finish_directory(b, block, requester, true);
            self.serve_data(now, b, block, requester, true, false, slow);
        }
    }

    fn bank_put_m(&mut self, now: u64, b: usize, block: u64, sender: usize) {
        let _ = now;
        let addr = Self::block_addr(block);
        self.stats.energy.l2_accesses += 1;
        if let Some((_victim, LineState::Modified)) =
            self.banks[b].l2.install_in_state(addr, LineState::Modified, false)
        {
            self.stats.dram_accesses += 1;
            self.stats.energy.dram_accesses += 1;
        }
        let st = self.banks[b].dir.state(addr);
        if st == DirectoryState::Modified(sender) || st == DirectoryState::Exclusive(sender) {
            self.banks[b].dir.set_state(addr, DirectoryState::Uncached);
        }
    }

    // ---------------- L1 side ----------------

    fn l1_handle(&mut self, now: u64, core: usize, msg: Msg) {
        match msg {
            Msg::Data {
                block,
                exclusive,
                exclusive_clean,
                ..
            } => self.l1_data(now, core, block, exclusive, exclusive_clean),
            Msg::FwdGetS { block } => {
                // Downgrade and answer the home bank. A still-clean MESI E
                // line needs no data (the bank's copy is valid); a dirty —
                // or silently evicted, hence unknown — line conservatively
                // ships the data so the bank can make progress.
                let addr = Self::block_addr(block);
                let was_clean_exclusive =
                    self.l1[core].cache.state(addr) == Some(LineState::Exclusive);
                self.l1[core].cache.set_state(addr, LineState::Shared);
                let home = self.home_of(block);
                let reply = if was_clean_exclusive {
                    Msg::OwnerClean { block, sender: core }
                } else {
                    Msg::OwnerData { block, sender: core }
                };
                self.send(now, core, home, reply);
            }
            Msg::FwdGetM { block } => {
                let addr = Self::block_addr(block);
                let was_clean_exclusive =
                    self.l1[core].cache.state(addr) == Some(LineState::Exclusive);
                self.l1[core].cache.invalidate(addr);
                let home = self.home_of(block);
                let reply = if was_clean_exclusive {
                    Msg::OwnerClean { block, sender: core }
                } else {
                    Msg::OwnerData { block, sender: core }
                };
                self.send(now, core, home, reply);
            }
            Msg::Inv { block } => {
                self.l1[core].cache.invalidate(Self::block_addr(block));
                self.stats.energy.l1_accesses += 1;
                let home = self.home_of(block);
                self.send(now, core, home, Msg::InvAck { block, sender: core });
            }
            _ => unreachable!("bank-side message at L1: {msg:?}"),
        }
    }

    fn l1_data(
        &mut self,
        now: u64,
        core: usize,
        block: u64,
        exclusive: bool,
        exclusive_clean: bool,
    ) {
        let addr = Self::block_addr(block);
        self.stats.energy.l1_accesses += 1;
        let state = if exclusive {
            LineState::Modified
        } else if exclusive_clean {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        let evicted = self.l1[core].cache.install_in_state(addr, state, false);
        if let Some((victim, LineState::Modified)) = evicted {
            let victim_block = victim.block_index();
            let home = self.home_of(victim_block);
            self.send(
                now,
                core,
                home,
                Msg::PutM {
                    block: victim_block,
                    sender: core,
                },
            );
        }
        let Some(mshr) = self.l1[core].mshr.remove(&block) else {
            return;
        };
        for (req, issued) in mshr.reqs {
            let latency = now.saturating_sub(issued);
            self.stats.miss_latency_sum += latency;
            self.l1[core].local_stats.load_latency_cycles += latency;
            self.completions.push((core, req, now + 1));
        }
        let l1 = &mut self.l1[core];
        for (token, value) in mshr.train {
            self.stats.energy.approximator_accesses += 1;
            l1.miss.on_train(
                &mut l1.mechanism,
                token,
                value,
                &mut l1.local_stats,
                &mut NullSink,
                TraceCtx::new(0, 0),
            );
        }
    }

    /// Completes an approximated load at ~hit latency; that latency is its
    /// contribution to the miss latency average (the 41% reduction of
    /// §VI-E).
    fn approximated(&mut self, core: usize, now: u64) -> LoadResponse {
        let latency = self.cfg.l1_latency + 1;
        self.stats.approximated += 1;
        self.stats.miss_latency_sum += latency;
        self.l1[core].local_stats.load_latency_cycles += latency;
        LoadResponse::Done { at: now + latency }
    }

    /// Opens the MSHR for a load miss on `block` and sends its `GetS` home
    /// at cycle `at`. An approximated miss's fetch only trains the
    /// approximator, so it travels as a training fetch.
    fn fetch_block(
        &mut self,
        core: usize,
        at: u64,
        block: u64,
        reqs: Vec<(ReqId, u64)>,
        train: Vec<(TrainToken, Value)>,
        has_approximation: bool,
    ) {
        let mshr = Mshr {
            reqs,
            train,
            has_approximation,
        };
        self.l1[core].mshr.insert(block, mshr);
        let home = self.home_of(block);
        self.send(at, core, home, Msg::GetS {
            block,
            requester: core,
            training: has_approximation,
        });
    }

    fn alloc_req(&mut self) -> ReqId {
        let id = ReqId(self.next_req);
        self.next_req += 1;
        id
    }
}

impl MemoryPort for MemorySystem {
    fn load(
        &mut self,
        core: usize,
        now: u64,
        pc: Pc,
        addr: Addr,
        ty: ValueType,
        approx: bool,
        value: Value,
    ) -> LoadResponse {
        self.stats.energy.l1_accesses += 1;
        self.l1[core].local_stats.loads += 1;
        if self.l1[core].cache.access(addr).is_hit() {
            return LoadResponse::Done {
                at: now + self.cfg.l1_latency,
            };
        }
        let block = addr.block_index();

        // Annotated miss under LVA: consult the miss pipeline. A PC the
        // governor switched off, or a degrade-controller `Deny`, takes the
        // conventional miss path below — the offending PC behaves as
        // precise until it is re-enabled or its probation expires.
        if approx {
            let l1 = &mut self.l1[core];
            // Secondary miss on an in-flight block whose primary miss was
            // approximated: the MSHR buffers that approximation, so the
            // load reuses it — fast completion, no table access, no degree
            // decrement (degree and training are per fetch transaction,
            // matching phase 1 where in-flight blocks service loads
            // without re-consulting). If the primary miss fell through,
            // there is nothing to reuse and the load merges as pending. A
            // disabled PC never reuses a buffered approximation.
            let enabled =
                l1.mechanism.get(KnobKind::PcEnable(pc)) == Some(Knob::PcEnable { pc, enabled: true });
            let in_flight = enabled.then(|| l1.mshr.get(&block)).flatten();
            if let Some(has_approximation) = in_flight.map(|m| m.has_approximation) {
                self.stats.l1_load_misses += 1;
                if has_approximation {
                    self.l1[core].local_stats.approximations += 1;
                    return self.approximated(core, now);
                }
            } else {
                let action = l1.miss.on_miss(
                    &mut l1.mechanism,
                    pc,
                    ty,
                    &mut l1.local_stats,
                    &mut NullSink,
                    TraceCtx::new(0, 0),
                );
                if action != MissAction::Conventional {
                    self.stats.energy.approximator_accesses += 1;
                    self.stats.l1_load_misses += 1;
                }
                match action {
                    MissAction::Approximate { fetch, .. } => {
                        if let Some((token, _)) = fetch {
                            // Training fetches are off the critical path;
                            // the configured penalty models routing them
                            // over slow, low-energy paths (§VI-C).
                            let at = now + self.cfg.training_fetch_penalty;
                            let train = vec![(token, value)];
                            self.fetch_block(core, at, block, Vec::new(), train, true);
                        }
                        return self.approximated(core, now);
                    }
                    MissAction::Fallthrough { token, .. } => {
                        let req = self.alloc_req();
                        let train = vec![(token, value)];
                        self.fetch_block(core, now, block, vec![(req, now)], train, false);
                        return LoadResponse::Pending(req);
                    }
                    MissAction::Conventional => {}
                }
            }
        }

        // Conventional miss path (precise data, no approximator, or an
        // in-flight block with no approximation to reuse).
        let req = self.alloc_req();
        match self.l1[core].mshr.get_mut(&block) {
            Some(mshr) => {
                // Secondary miss: merge, no new traffic, not a new miss.
                mshr.reqs.push((req, now));
            }
            None => {
                self.stats.l1_load_misses += 1;
                self.l1[core].local_stats.load_fetches += 1;
                self.fetch_block(core, now, block, vec![(req, now)], Vec::new(), false);
            }
        }
        LoadResponse::Pending(req)
    }

    fn store(&mut self, core: usize, now: u64, _pc: Pc, addr: Addr) {
        self.stats.energy.l1_accesses += 1;
        self.l1[core].local_stats.stores += 1;
        let block = addr.block_index();
        match self.l1[core].cache.state(addr) {
            Some(LineState::Modified) => return, // write hit in M
            Some(LineState::Exclusive) => {
                // MESI's silent upgrade: no coherence traffic at all.
                self.l1[core].cache.set_state(addr, LineState::Modified);
                return;
            }
            _ => {}
        }
        if self.l1[core].mshr.contains_key(&block) {
            // A transaction is already in flight for the block; piggyback.
            return;
        }
        self.l1[core].local_stats.store_fetches += 1;
        self.l1[core].mshr.insert(
            block,
            Mshr {
                reqs: Vec::new(),
                train: Vec::new(),
                has_approximation: false,
            },
        );
        let home = self.home_of(block);
        self.send(now, core, home, Msg::GetM {
            block,
            requester: core,
        });
    }
}

/// The phase-2 full-system simulator: cores + memory system.
///
/// # Example
///
/// ```
/// use lva_sim::{FullSystem, FullSystemConfig, MechanismKind};
/// use lva_cpu::ThreadTrace;
/// use lva_core::{Pc, Addr, Value, ValueType};
///
/// let mut trace = ThreadTrace::new();
/// trace.push_compute(100);
/// trace.push_load(Pc(1), Addr(0x40), ValueType::F32, false, Value::from_f32(1.0));
/// let system = FullSystem::new(
///     FullSystemConfig::paper(MechanismKind::Precise),
///     vec![trace],
/// );
/// let stats = system.run().expect("converges");
/// assert!(stats.cycles > 160, "one cold miss must reach DRAM");
/// ```
#[derive(Debug)]
pub struct FullSystem {
    cores: Vec<OooCore>,
    mem: MemorySystem,
}

impl FullSystem {
    /// Builds the machine with one core per trace (at most one per mesh
    /// node).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the mechanism configuration is
    /// malformed, or the degrade controller or governor configuration is
    /// rejected (the same checks [`crate::SimConfig::validate`] runs).
    ///
    /// # Panics
    ///
    /// Panics if more traces than mesh nodes are supplied.
    pub fn try_new(
        config: FullSystemConfig,
        traces: Vec<ThreadTrace>,
    ) -> Result<Self, ConfigError> {
        assert!(
            traces.len() <= config.mesh.nodes(),
            "{} traces exceed {} mesh nodes",
            traces.len(),
            config.mesh.nodes()
        );
        if config.timeline.as_ref().is_some_and(|t| t.epoch_len == 0) {
            return Err(ConfigError::ZeroEpoch);
        }
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| OooCore::new(i, t))
            .collect();
        Ok(FullSystem {
            cores,
            mem: MemorySystem::try_new(config)?,
        })
    }

    /// [`try_new`](Self::try_new), panicking on a malformed configuration.
    ///
    /// # Panics
    ///
    /// Panics if more traces than mesh nodes are supplied, or if the
    /// mechanism configuration is malformed.
    #[must_use]
    pub fn new(config: FullSystemConfig, traces: Vec<ThreadTrace>) -> Self {
        Self::try_new(config, traces).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the machine from pre-constructed cores, allowing custom core
    /// shapes (width / ROB size) for microarchitectural ablations.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the mechanism configuration is
    /// malformed, or the degrade controller or governor configuration is
    /// rejected (the same checks [`crate::SimConfig::validate`] runs).
    ///
    /// # Panics
    ///
    /// Panics if more cores than mesh nodes are supplied.
    pub fn try_with_cores(
        config: FullSystemConfig,
        cores: Vec<OooCore>,
    ) -> Result<Self, ConfigError> {
        assert!(
            cores.len() <= config.mesh.nodes(),
            "{} cores exceed {} mesh nodes",
            cores.len(),
            config.mesh.nodes()
        );
        Ok(FullSystem {
            cores,
            mem: MemorySystem::try_new(config)?,
        })
    }

    /// [`try_with_cores`](Self::try_with_cores), panicking on a malformed
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if more cores than mesh nodes are supplied, or if the
    /// mechanism configuration is malformed.
    #[must_use]
    pub fn with_cores(config: FullSystemConfig, cores: Vec<OooCore>) -> Self {
        Self::try_with_cores(config, cores).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs to completion and returns the statistics, discarding any
    /// timeline ([`run_with_timeline`](Self::run_with_timeline) keeps it).
    ///
    /// # Errors
    ///
    /// Returns an error if the simulation exceeds
    /// [`FullSystemConfig::max_cycles`] (protocol deadlock guard).
    pub fn run(self) -> Result<FullSystemStats, String> {
        self.run_with_timeline().map(|(stats, _)| stats)
    }

    /// Runs to completion and returns the statistics plus the cycle-domain
    /// epoch timeline ([`FullSystemConfig::timeline`]; empty when off).
    /// Epochs are sampled while the cores are active; the final frame is
    /// flushed from the fully assembled end-of-run statistics, so every
    /// counter's per-epoch deltas sum exactly to its aggregate value.
    ///
    /// Each cycle ticks the memory system, delivers the completions it
    /// produced, then ticks every core in core-index order.
    ///
    /// # Errors
    ///
    /// Returns an error if the simulation exceeds
    /// [`FullSystemConfig::max_cycles`] (protocol deadlock guard).
    pub fn run_with_timeline(mut self) -> Result<(FullSystemStats, Timeline), String> {
        let mut sampler = self
            .mem
            .cfg
            .timeline
            .clone()
            .map(|t| Box::new(EpochSampler::new(t)));
        let outcome = run_cycles(&mut self.mem, &mut self.cores, &mut sampler);
        let CycleOutcome {
            now,
            cores_done_at,
        } = outcome?;
        let mut stats = assemble_stats(&self.mem, &self.cores, now);
        stats.govern = self
            .mem
            .l1
            .iter()
            .filter_map(|l1| l1.miss.govern.as_deref().map(Governor::report))
            .collect();
        stats.cycles = cores_done_at.unwrap_or(now);
        stats.drain_cycles = now.saturating_sub(stats.cycles);
        let timeline = match sampler {
            Some(mut s) => {
                // Flush the tail (and the drain-side counters) from the
                // final statistics so the delta-sum identity holds.
                let mut registry = MetricsRegistry::new();
                stats.record_metrics(&mut registry, "fs");
                s.sample(now, &registry);
                s.into_timeline()
            }
            None => Timeline::default(),
        };
        Ok((stats, timeline))
    }
}

/// Where the cycle loop stopped.
struct CycleOutcome {
    /// Cycle after the last simulated one (drain included).
    now: u64,
    /// Cycle at which every core had retired its trace.
    cores_done_at: Option<u64>,
}

/// The statistics at cycle `now`: the memory system's counters plus what
/// the per-L1 quality controllers, the cores and the mesh have accumulated
/// so far. Read-only; both the epoch timeline sampler's mid-run snapshots
/// and the end-of-run result are built from it.
fn assemble_stats(mem: &MemorySystem, cores: &[OooCore], now: u64) -> FullSystemStats {
    let mut stats = mem.stats.clone();
    stats.cycles = now;
    for l1 in &mem.l1 {
        let local = &l1.local_stats;
        stats.demotions += local.demotions;
        stats.disables += local.disables;
        stats.degrade_denied += local.degrade_denied;
        stats.degrade_forced += local.degrade_forced;
        stats.govern_epochs += local.govern_epochs;
        stats.govern_actuations += local.govern_actuations;
        stats.govern_tightens += local.govern_tightens;
        stats.govern_relaxes += local.govern_relaxes;
        stats.govern_reverts += local.govern_reverts;
        stats.govern_disables += local.govern_disables;
    }
    for core in cores {
        let core_stats = core.stats();
        stats.instructions += core_stats.retired;
        stats.head_stall_cycles += core_stats.head_stall_cycles;
    }
    let mesh_stats = *mem.mesh.stats();
    stats.flit_hops = mesh_stats.flit_hops;
    stats.energy.noc_flit_hops = mesh_stats.flit_hops - mesh_stats.low_power_flit_hops;
    stats.energy.noc_low_power_flit_hops = mesh_stats.low_power_flit_hops;
    stats
}

/// The per-cycle loop: memory-system tick, completion delivery, then each
/// core's tick in core-index order.
fn run_cycles(
    mem: &mut MemorySystem,
    cores: &mut [OooCore],
    sampler: &mut Option<Box<EpochSampler>>,
) -> Result<CycleOutcome, String> {
    let mut due = sampler.as_ref().map_or(u64::MAX, |s| s.next_boundary());
    let mut govern_due = mem.cfg.govern.map_or(u64::MAX, |g| g.epoch_len);
    let mut now = 0u64;
    let mut cores_done_at: Option<u64> = None;
    loop {
        mem.tick(now);
        for (core, req, at) in mem.completions.drain(..) {
            cores[core].complete(req, at);
        }
        // Completions produced below reach their cores next cycle.
        for core in cores.iter_mut() {
            core.tick(now, mem);
        }
        now += 1;
        if cores_done_at.is_none() && cores.iter().all(OooCore::is_done) {
            // The application has finished; execution time stops here.
            // Outstanding background traffic (training fetches nobody
            // waits for) keeps draining below for clean accounting.
            cores_done_at = Some(now);
        }
        if now >= due && cores_done_at.is_none() {
            if let Some(s) = &mut *sampler {
                let mut registry = MetricsRegistry::new();
                assemble_stats(mem, cores, now).record_metrics(&mut registry, "fs");
                s.sample(now, &registry);
                due = s.next_boundary();
            }
        }
        // Close each L1's governor epoch in L1-index order.
        if now >= govern_due && cores_done_at.is_none() {
            for l1 in &mut mem.l1 {
                let ctx = TraceCtx::new(0, 0);
                l1.miss
                    .on_epoch(&mut l1.mechanism, &mut l1.local_stats, &mut NullSink, ctx);
            }
            let epoch_len = mem.cfg.govern.expect("govern_due is finite").epoch_len;
            govern_due = now + epoch_len;
        }
        if cores_done_at.is_some() && mem.quiescent() {
            break;
        }
        if now >= mem.cfg.max_cycles {
            return Err(format!(
                "full-system simulation exceeded {} cycles (deadlock?)",
                mem.cfg.max_cycles
            ));
        }
    }
    Ok(CycleOutcome {
        now,
        cores_done_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::ApproximatorConfig;

    fn load_trace(n: u64, stride: u64, approx: bool, value: f32) -> ThreadTrace {
        let mut t = ThreadTrace::new();
        for i in 0..n {
            t.push_load(
                Pc(0x100),
                Addr(0x1_0000 + i * stride),
                ValueType::F32,
                approx,
                Value::from_f32(value),
            );
            t.push_compute(8);
        }
        t
    }

    fn run(cfg: FullSystemConfig, traces: Vec<ThreadTrace>) -> FullSystemStats {
        FullSystem::new(cfg, traces).run().expect("no deadlock")
    }

    #[test]
    fn single_miss_costs_dram_latency() {
        let mut t = ThreadTrace::new();
        t.push_load(Pc(1), Addr(0x40), ValueType::F32, false, Value::from_f32(0.0));
        let stats = run(FullSystemConfig::paper(MechanismKind::Precise), vec![t]);
        assert_eq!(stats.l1_load_misses, 1);
        assert_eq!(stats.dram_accesses, 1);
        assert!(stats.cycles > 160 && stats.cycles < 400, "{}", stats.cycles);
    }

    #[test]
    fn second_access_hits_in_l2() {
        // Two cores read the same block in sequence: the second fill comes
        // from the L2, not DRAM.
        let mk = |n| {
            let mut t = ThreadTrace::new();
            t.push_compute(n);
            t.push_load(Pc(1), Addr(0x40), ValueType::F32, false, Value::from_f32(0.0));
            t
        };
        let stats = run(
            FullSystemConfig::paper(MechanismKind::Precise),
            vec![mk(0), mk(2000)],
        );
        assert_eq!(stats.dram_accesses, 1, "second reader must hit L2");
        assert_eq!(stats.l2_data_blocks, 2);
    }

    #[test]
    fn lva_speeds_up_miss_bound_traces() {
        // A long annotated strided scan with perfectly stable values.
        let traces = vec![load_trace(4000, 64, true, 7.0)];
        let precise = run(
            FullSystemConfig::paper(MechanismKind::Precise),
            traces.clone(),
        );
        let lva = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline())),
            traces,
        );
        assert!(lva.approximated > 3000, "coverage: {}", lva.approximated);
        let speedup = lva.speedup_vs(&precise);
        assert!(speedup > 1.02, "speedup {speedup}");
        assert!(lva.avg_miss_latency() < precise.avg_miss_latency() / 2.0);
    }

    #[test]
    fn timeline_samples_cycle_epochs_without_perturbing_stats() {
        use lva_obs::TimelineConfig;
        let traces = || vec![load_trace(2000, 64, true, 7.0)];
        let cfg = FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()));
        let off = run(cfg.clone(), traces());
        let (on, timeline) = FullSystem::new(
            cfg.with_timeline(TimelineConfig::every(1000)),
            traces(),
        )
        .run_with_timeline()
        .expect("no deadlock");
        // Write-only: identical statistics with sampling on or off.
        assert_eq!(on, off);
        assert!(timeline.len() >= 2, "epochs: {}", timeline.len());
        assert_eq!(timeline.dropped, 0);
        // The delta-sum identity holds for every counter.
        assert_eq!(timeline.sum_counter("fs/cycles"), on.cycles);
        assert_eq!(timeline.sum_counter("fs/instructions"), on.instructions);
        assert_eq!(timeline.sum_counter("fs/l1/load_misses"), on.l1_load_misses);
        assert_eq!(timeline.sum_counter("fs/l1/approximated"), on.approximated);
        assert_eq!(timeline.sum_counter("fs/dram/accesses"), on.dram_accesses);
        assert_eq!(timeline.sum_counter("fs/noc/flit_hops"), on.flit_hops);
        assert_eq!(timeline.sum_counter("fs/drain_cycles"), on.drain_cycles);
        // Plain run() on a timeline-bearing config still works (and drops
        // the frames).
        let cfg = FullSystemConfig::paper(MechanismKind::Precise)
            .with_timeline(TimelineConfig::every(500));
        assert_eq!(run(cfg, traces()).l1_load_misses, off.l1_load_misses);
    }

    #[test]
    fn zero_epoch_timelines_are_rejected() {
        use lva_obs::TimelineConfig;
        let cfg = FullSystemConfig::paper(MechanismKind::Precise)
            .with_timeline(TimelineConfig::every(0));
        assert_eq!(
            FullSystem::try_new(cfg, vec![ThreadTrace::new()]).err(),
            Some(ConfigError::ZeroEpoch)
        );
    }

    #[test]
    fn degree_cuts_fetch_traffic() {
        let traces = vec![load_trace(4000, 64, true, 7.0)];
        let d0 = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline())),
            traces.clone(),
        );
        let d16 = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::with_degree(16))),
            traces,
        );
        assert!(
            d16.l2_data_blocks * 3 < d0.l2_data_blocks,
            "degree 16 fetches {} vs degree 0 {}",
            d16.l2_data_blocks,
            d0.l2_data_blocks
        );
        assert!(d16.flit_hops < d0.flit_hops);
    }

    #[test]
    fn coherence_invalidates_sharers_on_write() {
        // Core 0 reads a block, core 1 then writes it, core 0 reads again:
        // the final read must miss (its copy was invalidated) and fetch the
        // dirty data via the directory.
        let mut t0 = ThreadTrace::new();
        t0.push_load(Pc(1), Addr(0x40), ValueType::I32, false, Value::from_i32(1));
        t0.push_compute(4000);
        t0.push_load(Pc(2), Addr(0x40), ValueType::I32, false, Value::from_i32(2));
        let mut t1 = ThreadTrace::new();
        t1.push_compute(1000);
        t1.push_store(Pc(3), Addr(0x40), ValueType::I32);
        let stats = run(FullSystemConfig::paper(MechanismKind::Precise), vec![t0, t1]);
        // Two demand misses from core 0 (cold + post-invalidate).
        assert!(stats.l1_load_misses >= 2, "misses {}", stats.l1_load_misses);
        assert_eq!(stats.dram_accesses, 1, "only the cold fill touches DRAM");
    }

    #[test]
    fn four_cores_run_concurrently() {
        let traces: Vec<_> = (0..4)
            .map(|c| {
                let mut t = ThreadTrace::new();
                for i in 0..200u64 {
                    t.push_load(
                        Pc(10 + c as u64),
                        Addr(0x10_0000 * (c as u64 + 1) + i * 64),
                        ValueType::F32,
                        false,
                        Value::from_f32(0.0),
                    );
                    t.push_compute(4);
                }
                t
            })
            .collect();
        let solo = run(
            FullSystemConfig::paper(MechanismKind::Precise),
            traces[..1].to_vec(),
        );
        let all = run(FullSystemConfig::paper(MechanismKind::Precise), traces);
        // 4 cores do 4x the work in far less than 4x the time.
        assert!(all.cycles < solo.cycles * 3, "{} vs {}", all.cycles, solo.cycles);
        assert_eq!(all.instructions, solo.instructions * 4);
    }

    #[test]
    fn energy_events_are_populated() {
        let traces = vec![load_trace(500, 64, true, 1.0)];
        let stats = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline())),
            traces,
        );
        assert!(stats.energy.l1_accesses > 0);
        assert!(stats.energy.l2_accesses > 0);
        assert!(stats.energy.dram_accesses > 0);
        assert!(stats.energy.noc_flit_hops > 0);
        assert!(stats.energy.approximator_accesses > 0);
        let params = EnergyParams::cacti_32nm();
        assert!(stats.hierarchy_energy_nj(&params) > 0.0);
        assert!(stats.l1_miss_edp(&params) > 0.0);
    }

    #[test]
    fn deprioritized_training_is_tolerated() {
        // §VI-C: LVA keeps its speedup even when training fetches take a
        // slow, low-energy path, because nothing on the critical path
        // waits for them.
        let traces = vec![load_trace(2000, 64, true, 7.0)];
        let fast = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline())),
            traces.clone(),
        );
        let slow = FullSystem::new(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .with_deprioritized_training(200),
            traces,
        )
        .run()
        .expect("no deadlock");
        assert!(
            (slow.cycles as f64) < fast.cycles as f64 * 1.10,
            "200-cycle training penalty must barely matter: {} vs {}",
            slow.cycles,
            fast.cycles
        );
        assert_eq!(slow.instructions, fast.instructions);
    }

    #[test]
    fn dirty_owner_forwards_data_to_reader() {
        // Core 1 writes a block (M state); core 0 later reads it. The
        // directory must forward to the owner, who supplies the data; DRAM
        // is touched only for the original fill.
        let mut t1 = ThreadTrace::new();
        t1.push_store(Pc(1), Addr(0x40), ValueType::I32);
        let mut t0 = ThreadTrace::new();
        t0.push_compute(3000);
        t0.push_load(Pc(2), Addr(0x40), ValueType::I32, false, Value::from_i32(1));
        let stats = run(FullSystemConfig::paper(MechanismKind::Precise), vec![t0, t1]);
        assert_eq!(stats.dram_accesses, 1, "owner data must come from the L1");
    }

    #[test]
    fn l2_dirty_evictions_write_back_to_dram() {
        // One core writes far more distinct blocks than the L2 bank can
        // hold; its L1 evicts dirty lines (PutM), the bank absorbs them and
        // its own dirty evictions must reach DRAM.
        let mut t = ThreadTrace::new();
        // 16 KB L1 = 256 blocks; 128 KB bank = 2048 blocks. Write 4096
        // blocks mapping to bank 0 (block % 4 == 0).
        for i in 0..4096u64 {
            t.push_store(Pc(1), Addr(i * 4 * 64), ValueType::I32);
            t.push_compute(8);
        }
        let stats = run(FullSystemConfig::paper(MechanismKind::Precise), vec![t]);
        assert!(
            stats.dram_accesses > 4096,
            "fills + dirty writebacks expected, got {}",
            stats.dram_accesses
        );
    }

    #[test]
    fn hetero_noc_saves_energy_without_hurting_speed() {
        // §VI-C: training traffic on a half-speed, low-energy plane. The
        // core never waits for it, so cycles barely move while NoC energy
        // per hop drops for the training share.
        let traces = vec![load_trace(3000, 64, true, 7.0)];
        let baseline = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline())),
            traces.clone(),
        );
        let hetero = FullSystem::new(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .with_hetero_noc(lva_noc::LowPowerPlane::default()),
            traces,
        )
        .run()
        .expect("no deadlock");
        assert!(
            (hetero.cycles as f64) < baseline.cycles as f64 * 1.05,
            "hetero NoC must not slow things: {} vs {}",
            hetero.cycles,
            baseline.cycles
        );
        assert!(
            hetero.energy.noc_low_power_flit_hops > 0,
            "training traffic must ride the slow plane"
        );
        let params = EnergyParams::cacti_32nm();
        assert!(
            hetero.hierarchy_energy_nj(&params) < baseline.hierarchy_energy_nj(&params),
            "slow-plane hops must cost less energy"
        );
    }

    #[test]
    fn mesi_skips_upgrade_traffic_on_private_data() {
        // Read-then-write on private blocks: MSI pays a GetM per block on
        // top of the GetS; MESI grants E on the read and upgrades silently.
        let mut t = ThreadTrace::new();
        for i in 0..100u64 {
            t.push_load(Pc(1), Addr(0x4_0000 + i * 64), ValueType::I32, false, Value::from_i32(0));
            // Enough compute that the fill arrives before the store issues
            // (otherwise the store just coalesces into the load's MSHR and
            // neither protocol sends an upgrade).
            t.push_compute(1200);
            t.push_store(Pc(2), Addr(0x4_0000 + i * 64), ValueType::I32);
        }
        let msi = run(FullSystemConfig::paper(MechanismKind::Precise), vec![t.clone()]);
        let mesi = FullSystem::new(
            FullSystemConfig::paper(MechanismKind::Precise).with_mesi(),
            vec![t],
        )
        .run()
        .expect("mesi converges");
        assert!(
            mesi.flit_hops < msi.flit_hops,
            "MESI must cut upgrade traffic: {} vs {} flit-hops",
            mesi.flit_hops,
            msi.flit_hops
        );
        assert_eq!(mesi.instructions, msi.instructions);
    }

    #[test]
    fn mesi_shared_readers_still_get_shared_state() {
        // Two cores read the same blocks: the second reader must see S (not
        // E), and a later write by core 1 must still invalidate core 0.
        let mut t0 = ThreadTrace::new();
        t0.push_load(Pc(1), Addr(0x40), ValueType::I32, false, Value::from_i32(0));
        t0.push_compute(6000);
        t0.push_load(Pc(2), Addr(0x40), ValueType::I32, false, Value::from_i32(0));
        let mut t1 = ThreadTrace::new();
        t1.push_compute(1500);
        t1.push_load(Pc(3), Addr(0x40), ValueType::I32, false, Value::from_i32(0));
        t1.push_compute(1500);
        t1.push_store(Pc(4), Addr(0x40), ValueType::I32);
        let stats = FullSystem::new(
            FullSystemConfig::paper(MechanismKind::Precise).with_mesi(),
            vec![t0, t1],
        )
        .run()
        .expect("mesi converges");
        // Core 0's second read misses (invalidated) -> at least 3 misses.
        assert!(stats.l1_load_misses >= 3, "misses {}", stats.l1_load_misses);
        assert_eq!(stats.dram_accesses, 1);
    }

    #[test]
    fn concurrent_writers_to_one_block_serialize_through_the_directory() {
        // All four cores hammer stores (and loads) at the same block: the
        // blocking directory must serialize the GetM storm through its
        // retry queue without deadlock or lost instructions.
        let traces: Vec<ThreadTrace> = (0..4)
            .map(|c| {
                let mut t = ThreadTrace::new();
                for i in 0..50u64 {
                    t.push_store(Pc(c as u64), Addr(0x40), ValueType::I32);
                    t.push_load(
                        Pc(10 + c as u64),
                        Addr(0x40),
                        ValueType::I32,
                        false,
                        Value::from_i32(i as i32),
                    );
                    t.push_compute(2);
                }
                t
            })
            .collect();
        let expected: u64 = traces.iter().map(|t| t.stats().instructions).sum();
        for mesi in [false, true] {
            let mut cfg = FullSystemConfig::paper(MechanismKind::Precise);
            if mesi {
                cfg = cfg.with_mesi();
            }
            cfg.max_cycles = 5_000_000;
            let stats = FullSystem::new(cfg, traces.clone()).run().expect("no deadlock");
            assert_eq!(stats.instructions, expected, "mesi={mesi}");
            assert_eq!(stats.dram_accesses, 1, "one cold fill only (mesi={mesi})");
        }
    }

    #[test]
    fn trace_spans_cover_execution_and_drain() {
        // A degree-16 LVA run leaves training fetches in flight when the
        // last core retires, so the drain phase is non-empty.
        let traces = vec![load_trace(2000, 64, true, 7.0)];
        let stats = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::with_degree(16))),
            traces,
        );
        assert!(stats.drain_cycles > 0, "training traffic must outlive cores");
        let mut sink = lva_obs::RingBufferSink::new(8);
        stats.record_trace(&mut sink);
        let spans: Vec<(String, u64, u64)> = sink
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                lva_obs::TraceEventKind::Span { name, dur } => {
                    Some((name.clone(), e.ts, *dur))
                }
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], ("cores-active".to_owned(), 0, stats.cycles));
        assert_eq!(
            spans[1],
            ("background-drain".to_owned(), stats.cycles, stats.drain_cycles)
        );
    }

    #[test]
    fn empty_system_finishes_instantly() {
        let stats = run(FullSystemConfig::paper(MechanismKind::Precise), vec![]);
        assert!(stats.cycles <= 2);
        assert_eq!(stats.instructions, 0);
    }

    /// A long annotated scan whose values wobble a few percent around 100:
    /// inside the baseline 10% confidence window (so approximation keeps
    /// going), but well outside a sub-percent error budget.
    fn sloppy_trace(n: u64) -> ThreadTrace {
        let mut t = ThreadTrace::new();
        for i in 0..n {
            t.push_load(
                Pc(0x42),
                Addr(0x1_0000 + i * 64),
                ValueType::F32,
                true,
                Value::from_f32(100.0 + (i % 7) as f32),
            );
            t.push_compute(2);
        }
        t
    }

    #[test]
    fn quiet_controller_changes_nothing() {
        // Stable values never blow a 50% budget: the controller only
        // observes, and every stat the machine reports is identical to the
        // controller-off run.
        let traces = vec![load_trace(2000, 64, true, 7.0)];
        let off = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline())),
            traces.clone(),
        );
        let on = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .with_error_budget(0.5),
            traces,
        );
        assert_eq!(on.demotions, 0);
        assert_eq!(on.degrade_forced, 0);
        assert_eq!(off, on);
    }

    #[test]
    fn quiet_governor_leaves_the_machine_identical() {
        // Steady values keep every epoch clean, and the ladder starts at
        // the configured top rung, so the governor observes but never
        // actuates — every machine counter and the whole gated metrics
        // manifest must match the governor-off run.
        let traces = vec![load_trace(2000, 64, true, 7.0)];
        let off = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline())),
            traces.clone(),
        );
        let on = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .with_govern(GovernorConfig {
                    epoch_len: 500,
                    min_samples: 4,
                    ..GovernorConfig::slo(0.5)
                }),
            traces,
        );
        assert_eq!(on.govern_actuations, 0);
        assert!(on.govern_epochs > 0, "epochs must close on the cycle clock");
        assert_eq!(on.govern.len(), 4, "one governor per mesh node's L1");
        assert_eq!(on.govern[0].level + 1, on.govern[0].levels, "top rung");
        let manifest = |s: &FullSystemStats| {
            let mut r = MetricsRegistry::new();
            s.record_metrics(&mut r, "fs");
            r.dump()
        };
        assert_eq!(manifest(&off), manifest(&on));
        assert_eq!(off.cycles, on.cycles);
    }

    #[test]
    fn governor_tightens_a_sloppy_fullsystem_run() {
        // Values wobble a few percent, far over a 0.1% SLO: the per-L1
        // governor must walk its window ladder down on the cycle clock.
        let stats = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .with_govern(GovernorConfig {
                    epoch_len: 500,
                    min_samples: 4,
                    hysteresis_epochs: 1,
                    ..GovernorConfig::slo(0.001)
                }),
            vec![sloppy_trace(4000)],
        );
        assert!(stats.govern_actuations > 0, "must actuate");
        assert!(stats.govern_tightens > 0, "over-SLO must tighten");
        let report = &stats.govern[0];
        assert!(report.level + 1 < report.levels, "left the top rung");
        let mut r = MetricsRegistry::new();
        stats.record_metrics(&mut r, "fs");
        assert!(
            r.dump().iter().any(|(p, v)| p == "fs/govern/tightens" && *v > 0.0),
            "gated govern/* counters must materialize once actuated"
        );
    }

    #[test]
    fn controller_demotes_sloppy_pc_and_forces_fetches() {
        let traces = vec![sloppy_trace(4000)];
        let free = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::with_degree(16))),
            traces.clone(),
        );
        let tight = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::with_degree(16)))
                .with_error_budget(0.001),
            traces,
        );
        assert!(free.demotions == 0 && free.degrade_forced == 0);
        assert!(tight.demotions > 0, "sloppy PC must be demoted");
        assert!(tight.degrade_forced > 0, "demoted misses must force fetches");
        // Forced fetches close the degree window, so the quality-controlled
        // run moves more data blocks than the free-running degree-16 run.
        assert!(
            tight.l2_data_blocks > free.l2_data_blocks,
            "tight {} vs free {}",
            tight.l2_data_blocks,
            free.l2_data_blocks
        );
    }

    #[test]
    fn timeline_frames_see_quality_counters_during_the_run() {
        // The quality controller's counters live in each L1's local stats;
        // mid-run frames must fold them in just like the final result, not
        // leave every frame but the last at zero.
        use lva_obs::TimelineConfig;
        let cfg = FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::with_degree(16)))
            .with_error_budget(0.001);
        let traces = || vec![sloppy_trace(4000)];
        let off = run(cfg.clone(), traces());
        let (on, timeline) = FullSystem::new(cfg.with_timeline(TimelineConfig::every(2000)), traces())
            .run_with_timeline()
            .expect("no deadlock");
        assert_eq!(on, off, "sampling must not perturb the run");
        assert!(on.degrade_forced > 0, "the controller must act");
        let forced = timeline.counter_series("fs/degrade/forced_fetches");
        let (last, earlier) = forced.split_last().expect("frames");
        assert!(
            earlier.iter().any(|&n| n > 0),
            "no mid-run frame saw a forced fetch: {earlier:?} then {last}"
        );
        assert_eq!(timeline.sum_counter("fs/degrade/forced_fetches"), on.degrade_forced);
        assert_eq!(timeline.sum_counter("fs/degrade/demotions"), on.demotions);
    }

    #[test]
    fn disabled_pc_falls_back_to_conventional_misses() {
        // A probation of 1 sample and tiny warm-up gets the PC all the way
        // to Disabled quickly; denied misses must take the conventional
        // path (counted as plain misses, not approximator accesses).
        let cfg = DegradeConfig {
            error_budget: 0.001,
            ewma_weight: 0.5,
            min_samples: 1,
            probation_misses: 512,
            max_backoff_exp: 2,
        };
        let stats = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .with_degrade(cfg),
            vec![sloppy_trace(4000)],
        );
        assert!(stats.disables > 0, "sloppy PC must reach Disabled");
        assert!(stats.degrade_denied > 0, "probation must deny misses");
        assert!(
            stats.approximated < 4000,
            "denied misses must not be approximated: {}",
            stats.approximated
        );
    }

    #[test]
    fn malformed_mechanism_surfaces_as_config_error() {
        let cfg = FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig {
            table_entries: 3,
            ..ApproximatorConfig::baseline()
        }));
        let err = FullSystem::try_new(cfg, vec![]).unwrap_err();
        assert!(matches!(err, ConfigError::Core(_)), "{err}");
    }

    #[test]
    fn controller_configs_are_validated_like_phase_one() {
        // Each of these used to run: a NaN budget whose controller never
        // acts, a negative SLO, and a governor epoch every cycle.
        let lva = || FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()));
        let phase1 = crate::SimConfig::baseline_lva;
        let zero_epoch = GovernorConfig {
            epoch_len: 0,
            ..GovernorConfig::slo(0.02)
        };
        let cases = [
            (lva().with_error_budget(f64::NAN), phase1().with_error_budget(f64::NAN)),
            (lva().with_govern_slo(-1.0), phase1().with_govern_slo(-1.0)),
            (lva().with_govern(zero_epoch), phase1().with_govern(zero_epoch)),
        ];
        for (fs, p1) in cases {
            let fs_err = FullSystem::try_new(fs, vec![load_trace(8, 64, true, 1.0)]).unwrap_err();
            let p1_err = crate::SimHarness::try_new(p1).unwrap_err();
            // Compared as text: the NaN budget is not equal to itself.
            assert_eq!(fs_err.to_string(), p1_err.to_string());
        }
        // The degree/budget conflict is rejected the same way too.
        let conflict = ApproximatorConfig {
            degree: 4,
            confidence_window: lva_core::ConfidenceWindow::Infinite,
            ..ApproximatorConfig::baseline()
        };
        let fs = FullSystemConfig::paper(MechanismKind::Lva(conflict)).with_error_budget(0.05);
        assert_eq!(
            FullSystem::try_new(fs, vec![]).unwrap_err(),
            ConfigError::DegreeBudgetConflict { degree: 4 }
        );
    }
}
