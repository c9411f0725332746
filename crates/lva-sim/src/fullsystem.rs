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
//!
//! The paper's phase 2 replays precise and LVA runs, and so does this
//! model: every other [`MechanismKind`] is refused with
//! [`ConfigError::UnmodelledMechanism`], never replayed as something else
//! under its label.

use crate::govern::{Governor, GovernorConfig, GovernorReport};
use crate::mechanism::Mechanism;
use crate::miss::{MissAction, MissPipeline};
use crate::stats::ThreadStats;
use crate::{ConfigError, MechanismKind};
use lva_core::{Addr, IntMap, Pc, TrainToken, Value, ValueType, BLOCK_BYTES};
use lva_cpu::{LoadResponse, MemoryPort, OooCore, ReqId, ThreadTrace};
use lva_energy::{EnergyEvents, EnergyParams};
use lva_mem::{CacheConfig, Directory, DirectoryState, LineState, SetAssocCache, SharerSet};
use lva_noc::{LowPowerPlane, Mesh, MeshConfig, NodeId, Plane};
use lva_obs::{EpochSampler, MetricsRegistry, NullSink, Timeline, TraceCtx};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Private L1 geometry (Table II: 16 KB, 8-way).
const L1: CacheConfig = CacheConfig::fullsystem_l1();
/// Per-bank L2 geometry (Table II: 128 KB, 16-way; 4 banks = 512 KB).
const L2_BANK: CacheConfig = CacheConfig::fullsystem_l2_bank();
/// Mesh geometry (Table II: 2×2, 3-cycle routers).
const MESH: MeshConfig = MeshConfig::paper();
/// L1 hit latency in cycles (Table II).
const L1_LATENCY: u64 = 1;
/// L2 bank access latency in cycles (Table II).
const L2_LATENCY: u64 = 6;
/// Main-memory access latency in cycles (Table II).
const DRAM_LATENCY: u64 = 160;

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

/// Full-system configuration. The machine itself is Table II's and
/// fixed: the L1 and L2-bank geometries, the mesh and the L1, L2 and DRAM
/// latencies are constants of this module. The fields choose the
/// mechanism, the §VI-C, coherence and core-shape ablations, the
/// governor, timeline sampling and the cycle limit.
#[derive(Debug, Clone, PartialEq)]
pub struct FullSystemConfig {
    /// Miss-handling mechanism: [`MechanismKind::Precise`] or
    /// [`MechanismKind::Lva`], the two the paper's full-system results use.
    /// The constructors refuse any other kind.
    pub mechanism: MechanismKind,
    /// Extra cycles added to approximator *training* fetches before they
    /// enter the NoC — modelling the §VI-C optimization of deprioritizing
    /// approximate blocks on low-energy NoC/memory paths. The paper argues
    /// LVA tolerates this because approximators are resilient to high value
    /// delays; 0 in the baseline.
    pub training_fetch_penalty: u64,
    /// Route training fetches (and their data responses) over a
    /// heterogeneous low-power NoC plane (§VI-C). `None` in the baseline.
    pub hetero_noc: Option<LowPowerPlane>,
    /// Directory coherence protocol (paper baseline: MSI; MESI through
    /// [`with_mesi`](Self::with_mesi)).
    pub(crate) protocol: CoherenceProtocol,
    /// Every core's issue width and ROB entries (paper baseline: 4 and
    /// 32; others through [`with_core_shape`](Self::with_core_shape)).
    pub(crate) core_shape: (usize, usize),
    /// Hard cycle limit (deadlock guard).
    pub max_cycles: u64,
    /// Per-L1 quality governor (off by default; only meaningful with an
    /// LVA mechanism): an epoch SLO ladder, a per-PC error-budget ladder,
    /// or both. Epochs run on the machine's cycle clock, at the end of the
    /// cycle that reaches each boundary. Fault injection is phase-1 only —
    /// phase 2 replays traces whose values are already fixed, so
    /// corrupting them would break replay fidelity.
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
            training_fetch_penalty: 0,
            hetero_noc: None,
            protocol: CoherenceProtocol::Msi,
            core_shape: (4, 32),
            max_cycles: 2_000_000_000,
            govern: None,
            timeline: None,
            threads: None,
        }
    }

    /// Same machine, with each L1's governor enforcing the per-PC
    /// `error_budget` (see [`crate::SimConfig::with_error_budget`]).
    #[must_use]
    pub fn with_error_budget(mut self, error_budget: f64) -> Self {
        self.govern
            .get_or_insert(GovernorConfig::budget(error_budget))
            .error_budget = Some(error_budget);
        self
    }

    /// Same machine, with a per-L1 governor holding `slo_error` (see
    /// [`GovernorConfig::slo`]).
    #[must_use]
    pub fn with_govern_slo(self, slo_error: f64) -> Self {
        self.with_govern(GovernorConfig::slo(slo_error))
    }

    /// Same machine, with an explicit governor configuration (see
    /// [`crate::SimConfig::with_govern`]).
    #[must_use]
    pub fn with_govern(mut self, govern: GovernorConfig) -> Self {
        self.govern = Some(govern.over(self.govern));
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

    /// Same machine, with `width`-wide cores and `rob`-entry ROBs, for
    /// microarchitectural ablations. A zero panics when the machine is
    /// built, as in [`OooCore::with_shape`].
    #[must_use]
    pub fn with_core_shape(mut self, width: usize, rob: usize) -> Self {
        self.core_shape = (width, rob);
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
    /// L1 load misses: every primary miss, plus the secondary misses of
    /// annotated loads whose PC is enabled for approximation (they reuse or
    /// wait on the in-flight block). Other secondary misses merge into the
    /// MSHR uncounted.
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
    /// Healthy→Demoted transitions by the governors' budget ladders.
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
    /// End-of-run per-L1 governor reports: both ladders' end state and the
    /// budget ladder's per-PC entries (empty when governing is off, and
    /// for a precise machine, which builds no governor).
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
        registry
            .counter(&p("l1/load_misses"))
            .add(self.l1_load_misses);
        registry
            .counter(&p("l1/approximated"))
            .add(self.approximated);
        registry
            .counter(&p("l1/miss_latency_sum"))
            .add(self.miss_latency_sum);
        registry
            .counter(&p("l2/data_blocks"))
            .add(self.l2_data_blocks);
        registry
            .counter(&p("dram/accesses"))
            .add(self.dram_accesses);
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
        registry
            .counter(&p("degrade/demotions"))
            .add(self.demotions);
        registry.counter(&p("degrade/disables")).add(self.disables);
        registry
            .counter(&p("degrade/denied"))
            .add(self.degrade_denied);
        registry
            .counter(&p("degrade/forced_fetches"))
            .add(self.degrade_forced);
        // Same gating as the phase-1 fingerprint's gv= suffix: a governor
        // that never actuated leaves the manifest byte-identical.
        if self.govern_actuations != 0 {
            registry
                .counter(&p("govern/epochs"))
                .add(self.govern_epochs);
            registry
                .counter(&p("govern/actuations"))
                .add(self.govern_actuations);
            registry
                .counter(&p("govern/tightens"))
                .add(self.govern_tightens);
            registry
                .counter(&p("govern/relaxes"))
                .add(self.govern_relaxes);
            registry
                .counter(&p("govern/reverts"))
                .add(self.govern_reverts);
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
        registry
            .gauge(&p("energy/total_nj"))
            .set(breakdown.total_nj());
        registry
            .gauge(&p("energy/hierarchy_nj"))
            .set(breakdown.hierarchy_nj());
        registry
            .gauge(&p("energy/edp"))
            .set(self.l1_miss_edp(&params));
        registry.gauge(&p("derived/ipc")).set(self.ipc());
        registry
            .gauge(&p("derived/avg_miss_latency"))
            .set(self.avg_miss_latency());
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
    trans: IntMap<u64, Transaction>,
    /// Requests that found their block's transaction open, oldest first.
    retry: VecDeque<Msg>,
    dram: BinaryHeap<Reverse<DramEvent>>,
}

// --------------------------------------------------------------------- L1s

#[derive(Debug)]
struct Mshr {
    /// The first load request (id, issue cycle) waiting for the data. Most
    /// MSHRs hold at most one, so it lives inline.
    first: Option<(ReqId, u64)>,
    /// Requests merged in after the first, in issue order.
    merged: Vec<(ReqId, u64)>,
    /// The approximator training to apply when the data arrives. Only the
    /// fetch that opens the MSHR trains, so there is at most one.
    train: Option<(TrainToken, Value)>,
    /// Whether the primary miss was served by an approximation; secondary
    /// annotated misses then reuse it (fast completion) instead of waiting.
    has_approximation: bool,
}

#[derive(Debug)]
struct L1Ctx {
    cache: SetAssocCache,
    /// `Precise` or `Lva`, built from [`FullSystemConfig::mechanism`].
    mechanism: Mechanism,
    mshr: IntMap<u64, Mshr>,
    /// The LVA miss decision with this L1's quality governor
    /// ([`FullSystemConfig::govern`]).
    miss: MissPipeline,
    /// Per-L1 phase-1 [`ThreadStats`]: the miss pipeline writes its
    /// counters here, and the miss path mirrors its load/fetch/latency
    /// counts in so the governor's per-epoch EDP estimate has a signal to
    /// diff. Folded into [`FullSystemStats`] after the run.
    local_stats: ThreadStats,
}

/// The memory system shared by all cores: caches, directory banks, mesh.
/// Implements [`MemoryPort`] for the core models.
///
/// Its calendar says which banks and nodes a cycle has work for: the mesh
/// keeps each node's head arrival, `dram_due` each bank's next fill and
/// `armed` the banks whose retry queue must run a pass.
#[derive(Debug)]
struct MemorySystem {
    cfg: FullSystemConfig,
    mesh: Mesh<Msg>,
    l1: Vec<L1Ctx>,
    banks: Vec<Bank>,
    /// `dram_due[b]` = the due cycle of bank `b`'s earliest DRAM fill;
    /// `u64::MAX` when none is pending.
    dram_due: Vec<u64>,
    /// The least of `dram_due`.
    dram_next: u64,
    /// Bit `b` set: a transaction closed at bank `b` while requests sat in
    /// its retry queue, so its next cycle runs a retry pass. A request
    /// fails only while its block's transaction is open, so a pass with
    /// nothing closed would fail every request and leave the queue as it
    /// was.
    armed: u32,
    completions: Vec<(usize, ReqId, u64)>,
    stats: FullSystemStats,
}

impl MemorySystem {
    /// The one validation both [`FullSystem`] constructors reach: the
    /// mechanism kind, then the governor, then the timeline epoch.
    fn try_new(cfg: FullSystemConfig) -> Result<Self, ConfigError> {
        if !matches!(
            cfg.mechanism,
            MechanismKind::Precise | MechanismKind::Lva(_)
        ) {
            let kind = crate::codec::mechanism_name(&cfg.mechanism);
            return Err(ConfigError::UnmodelledMechanism { kind });
        }
        MissPipeline::validate(&cfg.mechanism, cfg.govern.as_ref())?;
        if cfg.timeline.as_ref().is_some_and(|t| t.epoch_len == 0) {
            return Err(ConfigError::ZeroEpoch);
        }
        let nodes = MESH.nodes();
        let mut l1 = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let mechanism = Mechanism::from_kind(&cfg.mechanism)?;
            let govern = cfg
                .govern
                .filter(|_| matches!(mechanism, Mechanism::Lva(_)));
            l1.push(L1Ctx {
                cache: SetAssocCache::new(L1),
                miss: MissPipeline::new(&mechanism, govern, None),
                mechanism,
                mshr: IntMap::default(),
                local_stats: ThreadStats::default(),
            });
        }
        let banks = (0..nodes)
            .map(|i| Bank {
                node: NodeId(i),
                l2: SetAssocCache::new(L2_BANK),
                dir: Directory::new(),
                trans: IntMap::default(),
                retry: VecDeque::new(),
                dram: BinaryHeap::new(),
            })
            .collect();
        let mesh = match cfg.hetero_noc {
            Some(plane) => Mesh::new_heterogeneous(MESH, plane),
            None => Mesh::new(MESH),
        };
        Ok(MemorySystem {
            cfg,
            mesh,
            l1,
            banks,
            dram_due: vec![u64::MAX; nodes],
            dram_next: u64::MAX,
            armed: 0,
            completions: Vec::new(),
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

    /// The first cycle from `now` on at which [`tick`](Self::tick) can
    /// change anything: `now` while a bank's retry queue is armed, else the
    /// next mesh arrival or DRAM fill (`u64::MAX` when none is pending).
    fn next_event(&self, now: u64) -> u64 {
        self.debug_check_calendar();
        if self.armed != 0 {
            return now;
        }
        let next = self.mesh.next_arrival().unwrap_or(u64::MAX);
        next.min(self.dram_next)
    }

    /// One cycle of the memory system: in bank-index order each bank's due
    /// DRAM fills, then its retry pass if armed; then the arrived messages,
    /// in node-index order. Only banks and nodes with work due are touched.
    fn tick(&mut self, now: u64) {
        if self.dram_next <= now || self.armed != 0 {
            self.tick_banks(now);
        }
        // Mesh deliveries. Every send arrives at `now + 1` or later, so a
        // message sent while handling these waits for the next cycle.
        if self.mesh.next_arrival().is_some_and(|at| at <= now) {
            for node in 0..MESH.nodes() {
                while let Some(msg) = self.mesh.pop_arrived(NodeId(node), now) {
                    if msg.is_for_bank() {
                        self.bank_handle(now, node, msg);
                    } else {
                        self.l1_handle(now, node, msg);
                    }
                }
            }
        }
    }

    /// The bank half of [`tick`](Self::tick).
    fn tick_banks(&mut self, now: u64) {
        for b in 0..self.banks.len() {
            if self.dram_due[b] <= now {
                while let Some(Reverse(ev)) = self.banks[b].dram.peek() {
                    if ev.due > now {
                        break;
                    }
                    let block = ev.block;
                    self.banks[b].dram.pop();
                    self.dram_fill_ready(now, b, block);
                }
                self.dram_due[b] = self.banks[b].dram.peek().map_or(u64::MAX, |r| r.0.due);
            }
            // Retry queue: one pass over what was queued before it, in a
            // cycle after a transaction closed; requests that must retry
            // again queue behind them.
            let bit = 1 << b;
            if self.armed & bit == 0 {
                continue;
            }
            self.armed &= !bit;
            for _ in 0..self.banks[b].retry.len() {
                let msg = self.banks[b].retry.pop_front().expect("queued retry");
                self.bank_handle(now, b, msg);
            }
        }
        self.dram_next = self.dram_due.iter().copied().min().unwrap_or(u64::MAX);
    }

    /// Debug builds check the calendar against the banks: each cached fill
    /// time is the bank's earliest DRAM event, an armed bank has requests
    /// to retry, and every request an unarmed bank holds waits on an open
    /// transaction (so skipping its retry pass changes nothing).
    fn debug_check_calendar(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let least = self.dram_due.iter().copied().min().unwrap_or(u64::MAX);
        assert_eq!(self.dram_next, least, "cached earliest DRAM due time");
        for (b, bank) in self.banks.iter().enumerate() {
            let due = bank.dram.peek().map_or(u64::MAX, |r| r.0.due);
            assert_eq!(self.dram_due[b], due, "bank {b}: cached DRAM due time");
            if self.armed & (1 << b) != 0 {
                assert!(!bank.retry.is_empty(), "bank {b}: armed with no retry");
                continue;
            }
            for msg in &bank.retry {
                let (Msg::GetS { block, .. } | Msg::GetM { block, .. }) = *msg else {
                    unreachable!("bank {b} queued {msg:?} for retry");
                };
                assert!(
                    bank.trans.contains_key(&block),
                    "bank {b}: unarmed retry of block {block} with no open transaction"
                );
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

    /// Closes bank `b`'s transaction on `block`, if one is open, and arms
    /// the bank's retry queue if it holds requests.
    fn close(&mut self, b: usize, block: u64) -> Option<Transaction> {
        let t = self.banks[b].trans.remove(&block);
        if t.is_some() && !self.banks[b].retry.is_empty() {
            self.armed |= 1 << b;
        }
        t
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
                now + L2_LATENCY,
                bank_node,
                requester,
                Msg::Data {
                    block,
                    exclusive,
                    exclusive_clean: grant_e,
                    slow,
                },
            );
            self.close(b, block);
        } else {
            // Miss in the bank: fetch from this bank's DRAM channel. Keep a
            // transaction so the requester/exclusivity survive the wait.
            self.banks[b].trans.entry(block).or_insert(Transaction {
                requester,
                wants_m: exclusive,
                waiting_owner: None,
                acks_left: 0,
                slow,
                grant_e,
            });
            let due = now + L2_LATENCY + DRAM_LATENCY;
            self.banks[b].dram.push(Reverse(DramEvent { due, block }));
            self.dram_due[b] = self.dram_due[b].min(due);
            self.dram_next = self.dram_next.min(due);
        }
    }

    fn dram_fill_ready(&mut self, now: u64, b: usize, block: u64) {
        self.stats.energy.dram_accesses += 1;
        let addr = Self::block_addr(block);
        if let Some((_victim, LineState::Modified)) = self.banks[b].l2.install(addr, false) {
            // Dirty L2 victim written back to memory.
            self.stats.energy.dram_accesses += 1;
        }
        let Some(t) = self.close(b, block) else {
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
                self.banks[b]
                    .l2
                    .install_in_state(addr, LineState::Modified, false)
            {
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
            self.banks[b]
                .l2
                .install_in_state(addr, LineState::Modified, false)
        {
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
                    Msg::OwnerClean {
                        block,
                        sender: core,
                    }
                } else {
                    Msg::OwnerData {
                        block,
                        sender: core,
                    }
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
                    Msg::OwnerClean {
                        block,
                        sender: core,
                    }
                } else {
                    Msg::OwnerData {
                        block,
                        sender: core,
                    }
                };
                self.send(now, core, home, reply);
            }
            Msg::Inv { block } => {
                self.l1[core].cache.invalidate(Self::block_addr(block));
                self.stats.energy.l1_accesses += 1;
                let home = self.home_of(block);
                self.send(
                    now,
                    core,
                    home,
                    Msg::InvAck {
                        block,
                        sender: core,
                    },
                );
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
        for (req, issued) in mshr.first.into_iter().chain(mshr.merged) {
            let latency = now.saturating_sub(issued);
            self.l1[core].local_stats.load_latency_cycles += latency;
            self.completions.push((core, req, now + 1));
        }
        let l1 = &mut self.l1[core];
        if let Some((token, value)) = mshr.train {
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
        let latency = L1_LATENCY + 1;
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
        first: Option<(ReqId, u64)>,
        train: Option<(TrainToken, Value)>,
        has_approximation: bool,
    ) {
        let mshr = Mshr {
            first,
            merged: Vec::new(),
            train,
            has_approximation,
        };
        self.l1[core].mshr.insert(block, mshr);
        let home = self.home_of(block);
        self.send(
            at,
            core,
            home,
            Msg::GetS {
                block,
                requester: core,
                training: has_approximation,
            },
        );
    }
}

impl MemoryPort for MemorySystem {
    fn load(
        &mut self,
        core: usize,
        req: ReqId,
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
                at: now + L1_LATENCY,
            };
        }
        let block = addr.block_index();

        // Annotated miss under LVA: consult the miss pipeline. A PC either
        // governor ladder switched off takes the conventional miss path
        // below — the offending PC behaves as
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
            let enabled = l1
                .mechanism
                .approximator()
                .is_some_and(|a| a.pc_enabled(pc));
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
                            let train = Some((token, value));
                            self.fetch_block(core, at, block, None, train, true);
                        }
                        return self.approximated(core, now);
                    }
                    MissAction::Fallthrough { token, .. } => {
                        let train = Some((token, value));
                        self.fetch_block(core, now, block, Some((req, now)), train, false);
                        return LoadResponse::Pending;
                    }
                    MissAction::Conventional => {}
                }
            }
        }

        // Conventional miss path (precise data, no approximator, or an
        // in-flight block with no approximation to reuse).
        match self.l1[core].mshr.get_mut(&block) {
            // Secondary miss: merge, no new traffic, not a new miss.
            Some(Mshr {
                first: first @ None,
                ..
            }) => *first = Some((req, now)),
            Some(mshr) => mshr.merged.push((req, now)),
            None => {
                self.stats.l1_load_misses += 1;
                self.l1[core].local_stats.load_fetches += 1;
                self.fetch_block(core, now, block, Some((req, now)), None, false);
            }
        }
        LoadResponse::Pending
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
                first: None,
                merged: Vec::new(),
                train: None,
                has_approximation: false,
            },
        );
        let home = self.home_of(block);
        self.send(
            now,
            core,
            home,
            Msg::GetM {
                block,
                requester: core,
            },
        );
    }
}

/// The phase-2 full-system simulator: cores + memory system, on the
/// fixed Table II machine described in the module docs.
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
    /// node), each of the configuration's core shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if more traces than mesh nodes are
    /// supplied ([`ConfigError::OutOfRange`] on `cores`), the mechanism is
    /// neither precise nor LVA, its configuration is malformed, the
    /// governor configuration is rejected (the same checks
    /// [`crate::SimConfig::validate`] runs) or the timeline epoch is 0.
    pub fn try_new(
        config: FullSystemConfig,
        traces: Vec<ThreadTrace>,
    ) -> Result<Self, ConfigError> {
        // Refused before any core is built: a trace file's header alone
        // can name 65535 threads.
        if traces.len() > MESH.nodes() {
            return Err(ConfigError::OutOfRange {
                knob: "cores",
                value: traces.len() as u64,
                max: MESH.nodes() as u64,
            });
        }
        let (width, rob) = config.core_shape;
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| OooCore::with_shape(i, t, width, rob))
            .collect();
        Ok(FullSystem {
            cores,
            mem: MemorySystem::try_new(config)?,
        })
    }

    /// [`try_new`](Self::try_new), panicking on a rejected configuration.
    ///
    /// # Panics
    ///
    /// Panics wherever [`try_new`](Self::try_new) returns an error,
    /// including when more traces than mesh nodes are supplied.
    #[must_use]
    pub fn new(config: FullSystemConfig, traces: Vec<ThreadTrace>) -> Self {
        Self::try_new(config, traces).unwrap_or_else(|e| panic!("{e}"))
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
    /// Each simulated cycle ticks the memory system, delivers the
    /// completions it produced, then ticks every core in core-index order;
    /// the loop visits only the cycles at which something can change.
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
        let CycleOutcome { now, cores_done_at } = outcome?;
        let mut stats = assemble_stats(&self.mem, &mut self.cores, now);
        stats.govern = self
            .mem
            .l1
            .iter()
            .filter_map(|l1| l1.miss.governor.as_deref().map(Governor::report))
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
/// the L1s' local stats, the cores and the mesh have accumulated so far.
/// Each event is counted in one place: DRAM accesses as energy events,
/// approximations and miss latencies in the L1s' local stats. Both the epoch timeline sampler's mid-run snapshots and the
/// end-of-run result are built from it. It first catches every core up to
/// `now` ([`OooCore::catch_up`]), so a sleeping core's counters are exact.
fn assemble_stats(mem: &MemorySystem, cores: &mut [OooCore], now: u64) -> FullSystemStats {
    let mut stats = mem.stats.clone();
    stats.cycles = now;
    stats.dram_accesses = stats.energy.dram_accesses;
    for l1 in &mem.l1 {
        let local = &l1.local_stats;
        stats.approximated += local.approximations;
        stats.miss_latency_sum += local.load_latency_cycles;
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
        core.catch_up(now);
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

/// The cycle loop. A visited cycle ticks the memory system, delivers the
/// completions it produced, then ticks each core whose wake-up cycle has
/// come, in core-index order. The loop then jumps to the next cycle at
/// which anything can change: a memory-system event
/// ([`MemorySystem::next_event`]), a core's wake-up, the timeline or
/// governor epoch boundary while the cores run, or `max_cycles`. Every
/// cycle it skips would have changed nothing, or only what
/// [`OooCore::catch_up`] applies in closed form.
///
/// `wake[i]` caches core `i`'s [`OooCore::next_tick`]. Only a tick, a
/// completion or a catch-up changes it, and each refreshes the cache.
fn run_cycles(
    mem: &mut MemorySystem,
    cores: &mut [OooCore],
    sampler: &mut Option<Box<EpochSampler>>,
) -> Result<CycleOutcome, String> {
    let mut due = sampler.as_ref().map_or(u64::MAX, |s| s.next_boundary());
    let mut govern_due = mem.cfg.govern.map_or(u64::MAX, |g| g.epoch_period());
    let mut now = 0u64;
    let mut cores_done_at: Option<u64> = None;
    let mut wake: Vec<u64> = cores.iter().map(OooCore::next_tick).collect();
    // A core finishes in a tick and never ticks again, so each is counted
    // once: here if its trace is empty, else by the tick that retires it.
    let mut done = cores.iter().filter(|c| c.is_done()).count();
    loop {
        mem.tick(now);
        for (core, req, at) in mem.completions.drain(..) {
            cores[core].complete(req, at);
            wake[core] = cores[core].next_tick();
        }
        // Completions produced below reach their cores in a later cycle.
        let mut next_wake = u64::MAX;
        for (core, wake) in cores.iter_mut().zip(&mut wake) {
            if *wake <= now {
                core.tick(now, mem);
                *wake = core.next_tick();
                done += usize::from(core.is_done());
            }
            next_wake = next_wake.min(*wake);
        }
        now += 1;
        if cores_done_at.is_none() && done == cores.len() {
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
                // The catch-up can end a core's sleep.
                for (core, wake) in cores.iter().zip(&mut wake) {
                    *wake = core.next_tick();
                }
                next_wake = wake.iter().copied().min().unwrap_or(u64::MAX);
            }
        }
        // Close each L1's governor epoch in L1-index order.
        if now >= govern_due && cores_done_at.is_none() {
            for l1 in &mut mem.l1 {
                let ctx = TraceCtx::new(0, 0);
                l1.miss
                    .on_epoch(&mut l1.mechanism, &mut l1.local_stats, &mut NullSink, ctx);
            }
            govern_due = now + mem.cfg.govern.expect("govern_due is finite").epoch_len;
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
        // Jump to the next cycle at which anything can change. A boundary
        // `b` is checked after cycle `b - 1`, so that cycle is visited.
        debug_assert!(
            cores.iter().zip(&wake).all(|(c, &w)| c.next_tick() == w),
            "a cached wake-up cycle went stale"
        );
        let mut next = next_wake.min(mem.next_event(now));
        if cores_done_at.is_none() {
            next = next.min(due - 1).min(govern_due - 1);
        }
        now = next.min(mem.cfg.max_cycles.saturating_sub(1)).max(now);
    }
    Ok(CycleOutcome { now, cores_done_at })
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
        t.push_load(
            Pc(1),
            Addr(0x40),
            ValueType::F32,
            false,
            Value::from_f32(0.0),
        );
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
            t.push_load(
                Pc(1),
                Addr(0x40),
                ValueType::F32,
                false,
                Value::from_f32(0.0),
            );
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
        let (on, timeline) =
            FullSystem::new(cfg.with_timeline(TimelineConfig::every(1000)), traces())
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
        let cfg =
            FullSystemConfig::paper(MechanismKind::Precise).with_timeline(TimelineConfig::every(0));
        assert_eq!(
            FullSystem::try_new(cfg, vec![ThreadTrace::new()]).err(),
            Some(ConfigError::ZeroEpoch)
        );
    }

    #[test]
    fn unmodelled_mechanisms_are_refused() {
        use lva_core::{ClpConfig, LvpConfig, PrefetcherConfig};
        let refused = [
            ("clp", MechanismKind::Clp(ClpConfig::baseline())),
            ("lvp", MechanismKind::Lvp(LvpConfig::baseline())),
            ("real-lvp", MechanismKind::RealisticLvp(Default::default())),
            (
                "prefetch",
                MechanismKind::Prefetch(PrefetcherConfig::paper(1)),
            ),
            (
                "lva+clp",
                MechanismKind::LvaClp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
            ),
        ];
        let trace = || load_trace(8, 64, true, 1.0);
        for (kind, mechanism) in refused {
            let cfg = FullSystemConfig::paper(mechanism);
            let want = ConfigError::UnmodelledMechanism { kind };
            assert!(want.to_string().ends_with(&format!("not {kind}")), "{want}");
            assert_eq!(FullSystem::try_new(cfg, vec![trace()]).err(), Some(want));
        }
        for mechanism in [
            MechanismKind::Precise,
            MechanismKind::Lva(ApproximatorConfig::baseline()),
        ] {
            let cfg = FullSystemConfig::paper(mechanism);
            assert!(FullSystem::try_new(cfg, vec![trace()]).is_ok());
        }
    }

    #[test]
    fn more_cores_than_mesh_nodes_are_refused() {
        let cfg = FullSystemConfig::paper(MechanismKind::Precise);
        let nodes = MESH.nodes();
        let want = Some(ConfigError::OutOfRange {
            knob: "cores",
            value: nodes as u64 + 1,
            max: nodes as u64,
        });
        let traces = vec![ThreadTrace::new(); nodes + 1];
        assert_eq!(FullSystem::try_new(cfg.clone(), traces).err(), want);
        let full = vec![ThreadTrace::new(); nodes];
        assert!(FullSystem::try_new(cfg, full).is_ok());
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
        let stats = run(
            FullSystemConfig::paper(MechanismKind::Precise),
            vec![t0, t1],
        );
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
        assert!(
            all.cycles < solo.cycles * 3,
            "{} vs {}",
            all.cycles,
            solo.cycles
        );
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
        let stats = run(
            FullSystemConfig::paper(MechanismKind::Precise),
            vec![t0, t1],
        );
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
            t.push_load(
                Pc(1),
                Addr(0x4_0000 + i * 64),
                ValueType::I32,
                false,
                Value::from_i32(0),
            );
            // Enough compute that the fill arrives before the store issues
            // (otherwise the store just coalesces into the load's MSHR and
            // neither protocol sends an upgrade).
            t.push_compute(1200);
            t.push_store(Pc(2), Addr(0x4_0000 + i * 64), ValueType::I32);
        }
        let msi = run(
            FullSystemConfig::paper(MechanismKind::Precise),
            vec![t.clone()],
        );
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
            let stats = FullSystem::new(cfg, traces.clone())
                .run()
                .expect("no deadlock");
            assert_eq!(stats.instructions, expected, "mesi={mesi}");
            assert_eq!(stats.dram_accesses, 1, "one cold fill only (mesi={mesi})");
        }
    }

    #[test]
    fn replays_past_max_cycles_fail_even_when_a_jump_would_pass_the_limit() {
        // A core asleep in a long compute run, and one blocked on a cold
        // miss whose data is due after the limit: the loop's next event
        // lies beyond `max_cycles` in both, and both must stop there.
        let mut asleep = ThreadTrace::new();
        asleep.push_compute(40_000);
        let mut blocked = ThreadTrace::new();
        blocked.push_load(
            Pc(1),
            Addr(0x40),
            ValueType::F32,
            false,
            Value::from_f32(0.0),
        );
        for (name, trace, limit) in [("asleep", asleep, 5_000), ("blocked", blocked, 50)] {
            let mut cfg = FullSystemConfig::paper(MechanismKind::Precise);
            cfg.max_cycles = limit;
            let err = FullSystem::new(cfg.clone(), vec![trace.clone()])
                .run()
                .unwrap_err();
            assert_eq!(
                err,
                format!("full-system simulation exceeded {limit} cycles (deadlock?)"),
                "{name}"
            );
            // A limit of exactly the cycles the replay takes is enough.
            let needed = run(
                FullSystemConfig::paper(MechanismKind::Precise),
                vec![trace.clone()],
            );
            assert!(needed.cycles > limit, "{name}: {} cycles", needed.cycles);
            cfg.max_cycles = needed.cycles;
            assert_eq!(
                FullSystem::new(cfg, vec![trace]).run(),
                Ok(needed),
                "{name}"
            );
        }
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
        // controller-off run — all but the per-L1 reports it hands back.
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
        assert_eq!(on.govern.len(), 4, "one report per mesh node's L1");
        assert!(on
            .govern
            .iter()
            .flat_map(|r| &r.entries)
            .all(|e| e.state == crate::govern::QualityState::Healthy));
        assert_eq!(
            off,
            FullSystemStats {
                govern: Vec::new(),
                ..on
            }
        );
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
            r.dump()
                .iter()
                .any(|(p, v)| p == "fs/govern/tightens" && *v > 0.0),
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
        // The per-L1 reports name the sloppy PC, and their per-PC
        // demotions are the machine's.
        let entries = || tight.govern.iter().flat_map(|r| &r.entries);
        assert!(entries().any(|e| e.pc == Pc(0x42) && e.demotions > 0));
        assert_eq!(entries().map(|e| e.demotions).sum::<u64>(), tight.demotions);
        assert!(
            tight.degrade_forced > 0,
            "demoted misses must force fetches"
        );
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
        let (on, timeline) =
            FullSystem::new(cfg.with_timeline(TimelineConfig::every(2000)), traces())
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
        assert_eq!(
            timeline.sum_counter("fs/degrade/forced_fetches"),
            on.degrade_forced
        );
        assert_eq!(timeline.sum_counter("fs/degrade/demotions"), on.demotions);
    }

    #[test]
    fn disabled_pc_falls_back_to_conventional_misses() {
        // A one-sample warm-up gets the PC all the way to Disabled
        // quickly; denied misses must take the conventional path (counted
        // as plain misses, not approximator accesses).
        let cfg = GovernorConfig {
            min_samples: 1,
            ..GovernorConfig::budget(0.001)
        };
        let stats = run(
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .with_govern(cfg),
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
            (
                lva().with_error_budget(f64::NAN),
                phase1().with_error_budget(f64::NAN),
            ),
            (lva().with_govern_slo(-1.0), phase1().with_govern_slo(-1.0)),
            (
                lva().with_govern(zero_epoch),
                phase1().with_govern(zero_epoch),
            ),
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
