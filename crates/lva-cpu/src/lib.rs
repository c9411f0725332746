//! # lva-cpu — trace-driven out-of-order core model
//!
//! The paper's phase-2 evaluation uses FeS2, a cycle-level x86 simulator,
//! configured as 4-wide out-of-order cores with 32-entry ROBs (Table II).
//! We substitute a trace-driven model that captures what the experiments
//! measure: how much load-miss latency the ROB can hide, and how much of it
//! lands on the critical path once load value approximation removes misses
//! from it.
//!
//! A core replays a [`ThreadTrace`]: compute instructions retire at up to 4
//! IPC; loads are issued to a [`MemoryPort`] (implemented by the full-system
//! simulator in `lva-sim`) as soon as they are dispatched, so independent
//! misses overlap up to the ROB size; retirement is in-order, so an
//! outstanding load at the ROB head stalls the core — unless the
//! approximator answered it instantly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

pub mod analysis;
mod core_model;
mod trace;
pub mod trace_io;

pub use core_model::{CoreStats, LoadResponse, MemoryPort, OooCore, ReqId};
pub use trace::{ThreadTrace, TraceOp, TraceStats};
