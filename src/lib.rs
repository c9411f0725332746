//! # lva — Load Value Approximation
//!
//! Facade crate for the Rust reproduction of *"Load Value Approximation"*
//! (San Miguel, Badr, Enright Jerger — MICRO 2014). It re-exports every
//! member crate of the workspace so downstream users can depend on a single
//! crate:
//!
//! * [`core`] — the load value approximator itself, plus the idealized load
//!   value predictor and GHB prefetcher baselines.
//! * [`mem`] — set-associative caches, MSI directory coherence and the
//!   simulated flat memory.
//! * [`noc`] — the 2×2 mesh network-on-chip timing model.
//! * [`cpu`] — the trace-driven out-of-order core model.
//! * [`energy`] — CACTI-style dynamic-energy accounting and EDP.
//! * [`sim`] — the phase-1 instrumented execution harness (Pin analogue) and
//!   the phase-2 full-system simulator.
//! * [`workloads`] — seven PARSEC-like kernels with the paper's
//!   output-error metrics.
//! * [`obs`] — observability: metrics registry, JSON run manifests
//!   (`BENCH_*.json`), and the regression compare engine behind the CI
//!   gate.
//! * [`serve`] — the sweep job server: a persistent worker pool behind a
//!   line-JSON TCP protocol with a content-addressed result cache.
//!
//! ## Quickstart
//!
//! Run the blackscholes kernel precisely and under load value approximation,
//! then compare misses-per-kilo-instruction and final output error:
//!
//! ```
//! use lva::sim::{MechanismKind, SimConfig};
//! use lva::workloads::{blackscholes::Blackscholes, Workload, WorkloadScale};
//!
//! let wl = Blackscholes::new(WorkloadScale::Test);
//! let precise = wl.execute(&SimConfig::precise());
//! let approx = wl.execute(&SimConfig::baseline_lva());
//! assert!(approx.stats.mpki() <= precise.stats.mpki());
//! assert!(approx.output_error < 0.15, "error {}", approx.output_error);
//! ```

#![warn(unnameable_types)]

pub use lva_core as core;
pub use lva_cpu as cpu;
pub use lva_energy as energy;
pub use lva_mem as mem;
pub use lva_noc as noc;
pub use lva_obs as obs;
pub use lva_serve as serve;
pub use lva_sim as sim;
pub use lva_workloads as workloads;
