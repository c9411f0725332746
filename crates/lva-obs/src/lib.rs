//! # lva-obs — observability substrate for the LVA reproduction
//!
//! Every result in the paper (MPKI, coverage, fetch reduction, speedup,
//! energy) is a number some run produced; this crate is where those
//! numbers become *artifacts*: machine-readable, schema-versioned,
//! diffable. Six layers, no external dependencies (the workspace builds
//! fully offline):
//!
//! * `metrics` — [`Counter`], [`Gauge`], a fixed-bucket log2
//!   [`Histogram`] with p50/p95/p99, grouped under a hierarchical
//!   [`MetricsRegistry`] (`core0/l1/miss`, `sweep/point_wall_ns`, …)
//!   cheap enough to stay on in simulation hot loops.
//! * `json` — a minimal JSON value model with serializer *and* parser
//!   (full string escaping; non-finite floats map to `null` by
//!   convention), since the workspace has no serde.
//! * `manifest` + `artifact` — the [`RunRecord`] run-manifest schema
//!   (name, string metadata, ordered flat stats) and the atomic-rename
//!   writer that lands it as `BENCH_<name>.json`.
//! * [`compare`](mod@compare) — the regression engine: diff two manifests under
//!   per-metric relative tolerances, produce a pass/fail verdict plus a
//!   human-readable delta table sorted worst-regression-first. `time/`-
//!   and `env/`-prefixed stats (and `*_ns` segments) are informational and
//!   never gate.
//! * `trace` — per-load event tracing: a [`TraceSink`] hook trait, a
//!   sampled fixed-capacity [`RingBufferSink`], a per-PC
//!   [`PcAttribution`] aggregator, and a Chrome trace-event
//!   (Perfetto-loadable) exporter. Strictly write-only with respect to
//!   the simulation, so traced runs stay bit-identical to untraced ones.
//! * `timeline` — epoch time series: an [`EpochSampler`] diffs the
//!   registry on simulated-clock boundaries into per-epoch delta frames
//!   (counters as deltas, gauges last-value, histograms as interval
//!   merges) held in a bounded ring, streamed to an append-only JSONL
//!   sink whose loader tolerates a crash-truncated final line, and
//!   published as a schema-versioned [`TimelineRecord`] manifest. Same
//!   write-only contract as `trace`.
//!
//! The flow the rest of the workspace builds on:
//!
//! ```text
//! run → MetricsRegistry → RunRecord → BENCH_<name>.json
//!     ↘ TraceSink events ↗          ↘ compare(baseline, candidate) → CI gate
//!                        ↘ chrome_trace → trace.json (Perfetto)
//! ```
//!
//! ```
//! use lva_obs::{compare, MetricsRegistry, RunRecord};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter("core0/l1/miss").add(42);
//! reg.histogram("time/point_wall_ns").record(1_000);
//!
//! let mut record = RunRecord::new("smoke");
//! record.set_meta("workload", "blackscholes");
//! record.absorb_registry(&reg);
//!
//! // Round trip through the canonical text form…
//! let back = RunRecord::parse(&record.to_string_pretty()).unwrap();
//! // …and a self-compare passes exactly.
//! assert!(compare(&record, &back, 0.0).passed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

mod artifact;
pub mod compare;
mod json;
mod manifest;
mod metrics;
mod timeline;
mod trace;

pub use artifact::{bench_file_name, read_manifest, write_atomic, write_manifest};
pub use compare::{
    compare, is_informational, CompareReport, CompareRow, RowStatus, DEFAULT_TOLERANCE,
};
pub use json::{parse as parse_json, Json, ParseError};
pub use manifest::{RunRecord, SCHEMA_VERSION};
pub use metrics::{Counter, Gauge, Histogram, Metric, MetricsRegistry};
pub use timeline::{
    read_jsonl, write_jsonl, EpochFrame, EpochSampler, HistogramFrame, JsonlLoad, JsonlSink,
    Timeline, TimelineConfig, TimelineRecord, TIMELINE_SCHEMA_VERSION,
};
pub use trace::{
    chrome_trace, NullSink, PcAttribution, PcStats, RingBufferSink, SamplingPolicy, TraceCollector,
    TraceConfig, TraceCtx, TraceEvent, TraceEventKind, TraceMode, TraceSink,
};
