//! # lva-sim — the two-phase evaluation methodology (§V)
//!
//! The paper evaluates load value approximation in two phases, both
//! reproduced here:
//!
//! 1. **Design-space exploration** (§V-A): PARSEC kernels run under Pin with
//!    64 KB private L1 models; annotated loads have their return values
//!    clobbered with approximations, and MPKI / fetches / output error are
//!    measured. [`SimHarness`] is our Pin analogue: workload kernels in
//!    `lva-workloads` route every load and store through it, and it applies
//!    the configured [`MechanismKind`] — precise execution, LVA, idealized
//!    LVP or GHB prefetching — complete with a configurable *value delay*
//!    on approximator training (§VI-C).
//!
//! 2. **Full-system simulation** (§V-B): 4 out-of-order cores with private
//!    16 KB L1s, a distributed 512 KB L2 with MSI directory coherence, a
//!    2×2 mesh NoC and 160-cycle main memory. [`FullSystem`] replays the
//!    per-thread traces recorded by phase 1 through that hierarchy and
//!    reports speedup, miss latency, traffic and energy (Figs. 10–11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

pub mod codec;
mod config;
mod fault;
mod fullsystem;
mod govern;
mod harness;
mod mechanism;
mod miss;
pub mod sched;
mod stats;
pub mod sweep;

pub use config::{ConfigError, MechanismKind, SimConfig, MAX_L1_BYTES, MAX_THREADS};
pub use fault::FaultConfig;
pub use fullsystem::{FullSystem, FullSystemConfig, FullSystemStats};
pub use govern::{GovernorConfig, GovernorReport, PcDegradeEntry, QualityState};
pub use harness::{LoadReq, RunArtifacts, SimHarness};
pub use lva_obs::{TraceCollector, TraceConfig, TraceMode};
pub use mechanism::{Knob, Mechanism};
pub use sched::{catch_point, Claim, JobId, SubmissionQueue};
pub use stats::{PcSet, Phase1Stats, SweepSummary, ThreadStats};
pub use sweep::{
    run_sweep, worker_count, SweepError, SweepOptions, SweepOutcome, SweepRun, SweepSpec,
    WorkerLoad,
};
