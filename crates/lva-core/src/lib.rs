//! # lva-core — the load value approximator and its baselines
//!
//! This crate implements the microarchitectural mechanisms evaluated in
//! *"Load Value Approximation"* (San Miguel, Badr, Enright Jerger — MICRO
//! 2014):
//!
//! * [`LoadValueApproximator`] — the paper's contribution (§III, Fig. 3): a
//!   global history buffer (GHB) hashed with the load PC indexes a
//!   direct-mapped table whose entries hold a tag, a saturating signed
//!   confidence counter, a degree counter and a local history buffer (LHB).
//!   Approximations are generated by a computation function over the LHB
//!   (average by default) and gated by *relaxed* confidence estimation.
//! * [`IdealizedLvp`] — the idealized load value predictor baseline used
//!   throughout the paper's evaluation (§VI): a prediction counts as correct
//!   iff *any* LHB entry matches the actual value exactly (perfect selection).
//! * [`GhbPrefetcher`] — the global-history-buffer prefetcher baseline
//!   (Nesbit & Smith) with local delta correlation plus next-line
//!   prefetching (§VI-D).
//!
//! The crate is deliberately free of any cache or timing model — those live
//! in `lva-mem`, `lva-cpu` and `lva-noc` — so the mechanisms here can be
//! unit-tested and benchmarked in isolation.
//!
//! ## Example
//!
//! ```
//! use lva_core::{ApproximatorConfig, LoadValueApproximator, MissOutcome, Pc, Value};
//!
//! let mut approximator = LoadValueApproximator::new(ApproximatorConfig::baseline());
//! let pc = Pc(0x400_100);
//!
//! // Cold entry: nothing to approximate from yet, so the harness must fetch.
//! let outcome = approximator.on_miss(pc, lva_core::ValueType::F32);
//! let token = match outcome {
//!     MissOutcome::Fallthrough(token) => token,
//!     MissOutcome::Approximate(_) => unreachable!("LHB is empty"),
//! };
//! // The fetched value trains the approximator.
//! approximator.train(token, Value::from_f32(4.0));
//!
//! // A warm entry produces an approximation close to the trained history.
//! for _ in 0..4 {
//!     let outcome = approximator.on_miss(pc, lva_core::ValueType::F32);
//!     let token = outcome.token();
//!     approximator.train(token, Value::from_f32(4.0));
//! }
//! match approximator.on_miss(pc, lva_core::ValueType::F32) {
//!     MissOutcome::Approximate(a) => assert_eq!(a.value.to_f64(), 4.0),
//!     MissOutcome::Fallthrough(_) => unreachable!("entry is warm"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

mod approximator;
mod confidence;
mod error;
mod hash;
mod history;
mod intmap;
mod levelpred;
mod lvp;
mod prefetch;
mod realistic_lvp;
mod rng;
mod table;
mod types;
mod value;

pub use approximator::{
    Approximation, ApproximatorConfig, ComputeFn, FetchAction, LoadValueApproximator, MissOutcome,
    MissPolicy, TrainToken,
};
pub use confidence::{ConfidenceCounter, ConfidenceUpdate, ConfidenceWindow};
pub use error::{ConfigError, MAX_HISTORY_ENTRIES, MAX_TABLE_ENTRIES};
pub use hash::{ContextHasher, HashKind, TableSlot};
pub use history::HistoryBuffer;
pub use intmap::{IntHasher, IntMap};
pub use levelpred::{CacheLevel, ClpConfig, LevelPrediction, LevelPredictor};
pub use lvp::{IdealizedLvp, LvpConfig, LvpOutcome};
pub use prefetch::{GhbPrefetcher, PrefetcherConfig};
pub use realistic_lvp::{LvpPrediction, RealisticLvp, RealisticLvpConfig};
pub use rng::{Rng64, UniformRange};
pub use table::ApproximatorTable;
pub use types::{Addr, Pc, BLOCK_BYTES};
pub use value::{Value, ValueType};
