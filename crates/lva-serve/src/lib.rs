//! `lva-serve` — a long-running sweep job server with a
//! content-addressed result cache.
//!
//! The rest of the workspace treats a sweep as a batch: build a grid,
//! run it, write manifests, exit. This crate turns that into a
//! *service*: a persistent worker pool ([`Scheduler`], built on
//! `lva-sim`'s [`lva_sim::SubmissionQueue`]) accepts point submissions
//! from any number of concurrent clients over a line-oriented TCP
//! protocol, interleaves their grids fairly, and remembers every answer.
//!
//! Memory is safe to keep because of a property the determinism suite
//! has pinned since PR 1: a sweep point's statistics are a pure function
//! of its validated configuration. [`point_fingerprint`] turns that
//! configuration into a 64-bit content address, and [`ResultCache`]
//! stores finished manifest texts under it — an in-memory LRU tier over
//! an atomic-rename disk store, so results survive server restarts and a
//! crash can never leave a half-written entry.
//!
//! Module map (data flows top to bottom):
//!
//! ```text
//! client ──line JSON──▶ protocol ──▶ server ──▶ sched ──▶ memo ──▶ point ──▶ lva-sim
//!                                               │  ▲
//!                                               ▼  │
//!                                     fingerprint ─▶ cache (mem LRU + disk)
//! ```
//!
//! * [`fingerprint`] — canonical rendering and FNV-1a content address
//!   of a point; versioned so schema bumps invalidate cleanly.
//! * [`point`] — [`PointSpec`] (workload, scale, seed, config), its
//!   restricted wire encoding, and the batch-identical manifest builder.
//! * [`cache`] — the two-tier [`ResultCache`] with crash-safe writes.
//! * `memo` — the bounded precise-reference memo the production
//!   evaluator shares precise runs through (crate-private).
//! * [`sched`] — the persistent [`Scheduler`]: intra-job dedup, cache
//!   lookups, in-flight coalescing, fair cross-job interleaving, and a
//!   wall-interval timeline (an `lva-obs` [`lva_obs::EpochSampler`] fed
//!   by a sampler thread) that the `watch` request streams live.
//! * [`protocol`] — the line-JSON wire format, both directions.
//! * [`server`] / [`client`] — the TCP accept loop and its typed
//!   counterpart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fingerprint;
mod memo;
pub mod point;
pub mod protocol;
pub mod sched;
pub mod server;

pub use cache::{default_cache_dir, ResultCache};
pub use client::{Client, SubmitOutcome};
pub use fingerprint::{point_fingerprint, CACHE_SCHEMA_VERSION};
pub use point::{evaluate_point, point_record, PointSpec};
pub use sched::{JobOutcome, PointResult, Scheduler};
pub use server::{Server, ServerHandle};
