//! # lva-mem — memory-system substrates for the LVA reproduction
//!
//! * [`SimMemory`] — a sparse, flat, byte-addressable simulated memory with
//!   a bump allocator. Workload kernels keep all approximable data here so
//!   every access can be observed (the Pin-instrumentation analogue).
//! * [`SetAssocCache`] — a set-associative, LRU, write-allocate cache tag
//!   model used for the 64 KB phase-1 L1s, the 16 KB phase-2 L1s and the
//!   128 KB-per-bank L2 (Table II).
//! * [`Directory`] — the MSI directory slice co-located with each L2 bank in
//!   the full-system simulator (§V-B).
//!
//! Timing lives elsewhere (`lva-cpu`, `lva-noc`, `lva-sim`): this crate is
//! purely structural so it can be tested exhaustively in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

mod cache;
mod directory;
mod memory;

pub use cache::{AccessResult, CacheConfig, LineState, SetAssocCache};
pub use directory::{Directory, DirectoryState, SharerSet};
pub use memory::SimMemory;
