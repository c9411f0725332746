//! Deterministic epoch-sampling timelines: per-interval delta frames of a
//! [`MetricsRegistry`], sampled on *simulated*-clock boundaries.
//!
//! Every other layer of this crate collapses a run into one end-of-run
//! snapshot. A timeline keeps the time axis: an [`EpochSampler`] is fed a
//! monotonically advancing clock (the phase-1 harness uses its per-thread
//! `load_clock`, the full-system simulator uses cycles, `lva-serve` uses
//! wall milliseconds — the one domain where wall time is the ground truth)
//! and, at each epoch boundary, diffs the registry against its previous
//! snapshot into an [`EpochFrame`]:
//!
//! * **counters** — per-epoch deltas. Summing a counter's deltas across
//!   every frame of a completed timeline reproduces the end-of-run
//!   cumulative value *exactly* (the property `lva-explore timeline`
//!   asserts).
//! * **gauges** — last value at the boundary.
//! * **histograms** — interval merges via
//!   [`Histogram::interval_since`]: bucket counts, count and sum are exact
//!   deltas; interval extremes are reconstructed at bucket resolution.
//!
//! Frames live in a bounded ring (oldest dropped first, with a drop
//! counter) and can stream to an append-only JSONL sink — one compact
//! JSON document per line, so a crashed run leaves at worst one truncated
//! final line, which [`read_jsonl`] tolerates by design. Whole-file writes
//! go through the same atomic-rename idiom as every other artifact
//! ([`crate::artifact::write_atomic`]).
//!
//! Sampling is strictly write-only with respect to the simulation — the
//! same contract the trace layer honors — so timeline-on runs stay
//! byte-identical in fingerprint to timeline-off runs; the determinism
//! suite pins that against golden hashes.

use crate::artifact::write_atomic;
use crate::json::{parse, Json};
use crate::metrics::{Histogram, Metric, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::path::Path;

/// Current timeline manifest schema version. Bump on incompatible layout
/// changes; readers accept `1..=TIMELINE_SCHEMA_VERSION`.
pub const TIMELINE_SCHEMA_VERSION: u64 = 1;

/// The `kind` discriminator a timeline manifest carries.
pub(crate) const TIMELINE_KIND: &str = "lva-obs.timeline";

/// Bounded-ring capacity in frames; when full, the oldest frame is
/// dropped and counted in [`Timeline::dropped`].
const RING_CAPACITY: usize = 4096;

/// Epoch-sampling knob: how long an epoch is, in whatever clock domain
/// the producer advances. The bounded ring keeps the newest 4096 frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Clock units per epoch (load instructions in phase 1, cycles in the
    /// full system, milliseconds in `lva-serve`). Must be at least 1;
    /// `lva-sim` validates this at configuration time.
    pub epoch_len: u64,
}

impl TimelineConfig {
    /// A timeline sampling every `epoch_len` clock units.
    #[must_use]
    pub fn every(epoch_len: u64) -> Self {
        TimelineConfig { epoch_len }
    }
}

/// One histogram's interval summary inside an [`EpochFrame`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramFrame {
    /// Observations recorded during the epoch (exact delta).
    pub count: u64,
    /// Sum of those observations (exact delta, lowered to `f64`).
    pub sum: f64,
    /// Interval mean; NaN when the epoch recorded nothing (serialized as
    /// `null`, the crate-wide non-finite convention).
    pub mean: f64,
    /// Interval median at bucket resolution.
    pub p50: u64,
    /// Interval 95th percentile at bucket resolution.
    pub p95: u64,
    /// Interval 99th percentile at bucket resolution.
    pub p99: u64,
    /// Largest interval observation, at bucket resolution.
    pub max: u64,
}

impl HistogramFrame {
    /// Summarizes an interval histogram (see [`Histogram::interval_since`]).
    #[must_use]
    pub(crate) fn from_interval(interval: &Histogram) -> Self {
        HistogramFrame {
            count: interval.count(),
            sum: interval.sum() as f64,
            mean: interval.mean(),
            p50: interval.p50(),
            p95: interval.p95(),
            p99: interval.p99(),
            max: interval.max(),
        }
    }
}

/// One epoch's delta frame: what changed in the registry between two
/// consecutive clock boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochFrame {
    /// Epoch number, starting at 0 and never reset (ring eviction drops
    /// old frames but keeps indices absolute).
    pub index: u64,
    /// Clock value at the start of the epoch (inclusive).
    pub start: u64,
    /// Clock value at the end of the epoch (exclusive); `end - start` is
    /// the epoch's actual length (the final flushed epoch may be short).
    pub end: u64,
    /// Per-epoch counter deltas, in registration order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at the boundary, in registration order.
    pub gauges: Vec<(String, f64)>,
    /// Histogram interval summaries, in registration order.
    pub histograms: Vec<(String, HistogramFrame)>,
}

impl EpochFrame {
    /// The epoch's length in clock units.
    #[must_use]
    pub fn span(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The counter delta at `path` (0 if absent).
    #[must_use]
    pub fn counter(&self, path: &str) -> u64 {
        self.counters
            .iter()
            .find(|(p, _)| p == path)
            .map_or(0, |&(_, v)| v)
    }

    /// The gauge value at `path`, if present.
    #[must_use]
    pub fn gauge(&self, path: &str) -> Option<f64> {
        self.gauges.iter().find(|(p, _)| p == path).map(|&(_, v)| v)
    }

    /// Windowed rate: the counter delta at `path` per clock unit of this
    /// epoch (e.g. loads per load-clock tick, or — with a millisecond
    /// clock — events per millisecond). NaN for a zero-length epoch.
    #[must_use]
    pub fn rate(&self, path: &str) -> f64 {
        let span = self.span();
        if span == 0 {
            // A nonzero delta over a zero span would be +Inf, which the
            // watch stream and SVG sparklines cannot place; the documented
            // "undefined" value is NaN either way.
            return f64::NAN;
        }
        self.counter(path) as f64 / span as f64
    }

    /// Windowed ratio of two counter deltas (e.g. hit-rate as
    /// `hits / accesses` within the epoch). NaN when the denominator's
    /// delta is 0.
    #[must_use]
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let denom = self.counter(denominator);
        if denom == 0 {
            return f64::NAN;
        }
        self.counter(numerator) as f64 / denom as f64
    }

    /// Lowers the frame to its JSON document (the JSONL line / wire form).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("epoch".into(), Json::Num(self.index as f64)),
            ("start".into(), Json::Num(self.start as f64)),
            ("end".into(), Json::Num(self.end as f64)),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Json::Obj(vec![
                                    ("count".into(), Json::Num(h.count as f64)),
                                    ("sum".into(), Json::Num(h.sum)),
                                    ("mean".into(), Json::Num(h.mean)),
                                    ("p50".into(), Json::Num(h.p50 as f64)),
                                    ("p95".into(), Json::Num(h.p95 as f64)),
                                    ("p99".into(), Json::Num(h.p99 as f64)),
                                    ("max".into(), Json::Num(h.max as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a frame from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message for a structurally malformed document.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let num = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite())
                .map(|v| v as u64)
                .ok_or_else(|| format!("frame missing numeric field '{key}'"))
        };
        let mut frame = EpochFrame {
            index: num("epoch")?,
            start: num("start")?,
            end: num("end")?,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        for (k, v) in json
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or("frame missing object field 'counters'")?
        {
            let v = v
                .as_f64()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("counter {k:?} is not a number"))?;
            frame.counters.push((k.clone(), v as u64));
        }
        for (k, v) in json
            .get("gauges")
            .and_then(Json::as_obj)
            .ok_or("frame missing object field 'gauges'")?
        {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("gauge {k:?} is not a number"))?;
            frame.gauges.push((k.clone(), v));
        }
        for (k, v) in json
            .get("histograms")
            .and_then(Json::as_obj)
            .ok_or("frame missing object field 'histograms'")?
        {
            let field = |key: &str| -> Result<f64, String> {
                v.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("histogram {k:?} missing field '{key}'"))
            };
            frame.histograms.push((
                k.clone(),
                HistogramFrame {
                    count: field("count")? as u64,
                    sum: field("sum")?,
                    mean: field("mean")?,
                    p50: field("p50")? as u64,
                    p95: field("p95")? as u64,
                    p99: field("p99")? as u64,
                    max: field("max")? as u64,
                },
            ));
        }
        Ok(frame)
    }
}

/// A completed timeline: the retained frames plus how many the bounded
/// ring had to drop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Retained frames, oldest first, with absolute epoch indices.
    pub frames: Vec<EpochFrame>,
    /// Frames evicted by the bounded ring before collection.
    pub dropped: u64,
}

impl Timeline {
    /// Number of retained frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frames were retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Sums a counter's per-epoch deltas across every retained frame —
    /// with no drops, exactly the end-of-run cumulative value.
    #[must_use]
    pub fn sum_counter(&self, path: &str) -> u64 {
        self.frames.iter().map(|f| f.counter(path)).sum()
    }

    /// Every counter path that appears in any frame, in first-seen order.
    #[must_use]
    pub fn counter_paths(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for frame in &self.frames {
            for (path, _) in &frame.counters {
                if !seen.iter().any(|s| s == path) {
                    seen.push(path.clone());
                }
            }
        }
        seen
    }

    /// A counter's per-epoch delta series, one value per retained frame
    /// (0 where a frame lacks the path) — the shape the plot layer draws.
    #[must_use]
    pub fn counter_series(&self, path: &str) -> Vec<u64> {
        self.frames.iter().map(|f| f.counter(path)).collect()
    }
}

/// The epoch sampler: diffs a [`MetricsRegistry`] against its previous
/// snapshot at each clock boundary, producing delta frames into a bounded
/// ring.
///
/// The sampler never mutates the registry and holds no reference to it
/// between samples, so producers rebuild or reuse registries however they
/// like; only paths matter.
#[derive(Debug)]
pub struct EpochSampler {
    config: TimelineConfig,
    frames: VecDeque<EpochFrame>,
    dropped: u64,
    next_index: u64,
    epoch_start: u64,
    prev_counters: HashMap<String, u64>,
    prev_hists: HashMap<String, Histogram>,
}

impl EpochSampler {
    /// A sampler with its first epoch starting at clock 0.
    #[must_use]
    pub fn new(config: TimelineConfig) -> Self {
        EpochSampler {
            config,
            frames: VecDeque::new(),
            dropped: 0,
            next_index: 0,
            epoch_start: 0,
            prev_counters: HashMap::new(),
            prev_hists: HashMap::new(),
        }
    }

    /// The sampling configuration.
    #[must_use]
    pub fn config(&self) -> &TimelineConfig {
        &self.config
    }

    /// The clock value at which the current epoch is due to close — hot
    /// loops compare their clock against this single `u64` and only call
    /// [`sample`](Self::sample) when it is reached.
    #[must_use]
    pub fn next_boundary(&self) -> u64 {
        self.epoch_start.saturating_add(self.config.epoch_len)
    }

    /// Closes the current epoch at `clock`, emitting one delta frame
    /// against the previous snapshot of `registry`. The next epoch starts
    /// at `clock`. A call with `clock` at (or past) the epoch start is
    /// accepted even before the boundary — that is how producers flush a
    /// final partial epoch — but a zero-length epoch with no new events
    /// is skipped, so flushing an already-closed timeline is a no-op.
    pub fn sample(&mut self, clock: u64, registry: &MetricsRegistry) {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        let mut changed = false;
        for (path, metric) in registry.iter() {
            match metric {
                Metric::Counter(c) => {
                    let prev = self.prev_counters.insert(path.to_owned(), c.0).unwrap_or(0);
                    let delta = c.0.saturating_sub(prev);
                    changed |= delta != 0;
                    counters.push((path.to_owned(), delta));
                }
                Metric::Gauge(g) => gauges.push((path.to_owned(), g.0)),
                Metric::Histogram(h) => {
                    let interval = match self.prev_hists.get(path) {
                        Some(prev) => h.interval_since(prev),
                        None => (**h).clone(),
                    };
                    self.prev_hists.insert(path.to_owned(), (**h).clone());
                    changed |= interval.count() != 0;
                    histograms.push((path.to_owned(), HistogramFrame::from_interval(&interval)));
                }
            }
        }
        if clock <= self.epoch_start && !changed {
            return;
        }
        let frame = EpochFrame {
            index: self.next_index,
            start: self.epoch_start,
            end: clock.max(self.epoch_start),
            counters,
            gauges,
            histograms,
        };
        if self.frames.len() >= RING_CAPACITY {
            self.frames.pop_front();
            self.dropped += 1;
        }
        self.frames.push_back(frame);
        self.next_index += 1;
        self.epoch_start = clock.max(self.epoch_start);
    }

    /// The retained frames, oldest first.
    #[must_use]
    pub fn frames(&self) -> &VecDeque<EpochFrame> {
        &self.frames
    }

    /// Consumes the sampler into its collected [`Timeline`].
    #[must_use]
    pub fn into_timeline(self) -> Timeline {
        Timeline {
            frames: self.frames.into(),
            dropped: self.dropped,
        }
    }
}

/// A schema-versioned timeline manifest: identity and metadata around a
/// [`Timeline`], the artifact `lva-explore timeline` writes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineRecord {
    /// Manifest name (also names the artifact file).
    pub name: String,
    /// Ordered string metadata: workload, mechanism, epoch length, …
    pub meta: Vec<(String, String)>,
    /// The timeline itself.
    pub timeline: Timeline,
}

impl TimelineRecord {
    /// A new manifest wrapping `timeline`.
    #[must_use]
    pub fn new(name: impl Into<String>, timeline: Timeline) -> Self {
        TimelineRecord {
            name: name.into(),
            meta: Vec::new(),
            timeline,
        }
    }

    /// Appends (or overwrites) a metadata entry.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        match self.meta.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.meta.push((key, value)),
        }
    }

    /// Metadata lookup.
    #[must_use]
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Lowers the manifest to its JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(TIMELINE_KIND.into())),
            ("schema".into(), Json::Num(TIMELINE_SCHEMA_VERSION as f64)),
            ("name".into(), Json::Str(self.name.clone())),
            (
                "meta".into(),
                Json::Obj(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("dropped".into(), Json::Num(self.timeline.dropped as f64)),
            (
                "frames".into(),
                Json::Arr(
                    self.timeline
                        .frames
                        .iter()
                        .map(EpochFrame::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a manifest from JSON, validating kind and schema.
    ///
    /// # Errors
    ///
    /// Returns a message on a wrong `kind`, an unsupported `schema`, or a
    /// structurally malformed document.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("timeline manifest missing string field 'kind'")?;
        if kind != TIMELINE_KIND {
            return Err(format!("not a timeline manifest: kind = {kind:?}"));
        }
        let schema = json
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or("timeline manifest missing numeric field 'schema'")?;
        if !(schema >= 1.0 && schema <= TIMELINE_SCHEMA_VERSION as f64) {
            return Err(format!(
                "unsupported timeline schema {schema} (reader supports 1..={TIMELINE_SCHEMA_VERSION})"
            ));
        }
        let name = json
            .get("name")
            .and_then(Json::as_str)
            .ok_or("timeline manifest missing string field 'name'")?
            .to_owned();
        let mut record = TimelineRecord::new(name, Timeline::default());
        for (k, v) in json
            .get("meta")
            .and_then(Json::as_obj)
            .ok_or("timeline manifest missing object field 'meta'")?
        {
            let v = v
                .as_str()
                .ok_or_else(|| format!("meta entry {k:?} is not a string"))?;
            record.meta.push((k.clone(), v.to_owned()));
        }
        record.timeline.dropped =
            json.get("dropped")
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite())
                .ok_or("timeline manifest missing numeric field 'dropped'")? as u64;
        for frame in json
            .get("frames")
            .and_then(Json::as_arr)
            .ok_or("timeline manifest missing array field 'frames'")?
        {
            record.timeline.frames.push(EpochFrame::from_json(frame)?);
        }
        Ok(record)
    }
}

/// An append-only JSONL frame sink: one compact JSON document per line,
/// each line written and flushed whole, so an interrupted run corrupts at
/// worst the final line — which [`read_jsonl`] tolerates.
#[derive(Debug)]
pub struct JsonlSink {
    file: std::fs::File,
}

impl JsonlSink {
    /// Creates (or truncates) the sink file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        Ok(JsonlSink {
            file: std::fs::File::create(path)?,
        })
    }

    /// Appends one frame as one line and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append(&mut self, frame: &EpochFrame) -> io::Result<()> {
        let mut line = frame.to_json().to_string_compact();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        Ok(())
    }
}

/// What [`read_jsonl`] recovered from a JSONL timeline file.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlLoad {
    /// Frames parsed from complete lines, in file order.
    pub frames: Vec<EpochFrame>,
    /// Whether the final line was truncated or malformed and dropped —
    /// the crash-in-progress signature of an append-only sink.
    pub truncated: bool,
}

/// Writes a complete frame sequence as a JSONL file atomically (temp file
/// + rename) — the whole-file counterpart to the streaming [`JsonlSink`].
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_jsonl(path: &Path, frames: &[EpochFrame]) -> io::Result<()> {
    let mut text = String::new();
    for frame in frames {
        text.push_str(&frame.to_json().to_string_compact());
        text.push('\n');
    }
    write_atomic(path, &text)
}

/// Loads a JSONL timeline file, tolerating a truncated *final* line (a
/// crashed writer's partial append). A malformed line anywhere else is a
/// hard error — that is corruption, not an interrupted append.
///
/// # Errors
///
/// Returns a message naming the path for I/O failures or mid-file
/// corruption.
pub fn read_jsonl(path: &Path) -> Result<JsonlLoad, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut frames = Vec::with_capacity(lines.len());
    let mut truncated = false;
    for (i, line) in lines.iter().enumerate() {
        let parsed = parse(line)
            .map_err(|e| e.to_string())
            .and_then(|json| EpochFrame::from_json(&json));
        match parsed {
            Ok(frame) => frames.push(frame),
            Err(e) if i + 1 == lines.len() => {
                // The append-only sink writes line-then-flush, so only the
                // final line can be a partial write.
                let _ = e;
                truncated = true;
            }
            Err(e) => {
                return Err(format!("{} line {}: {e}", path.display(), i + 1));
            }
        }
    }
    Ok(JsonlLoad { frames, truncated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn registry(loads: u64, hits: u64, depth: f64) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("loads").add(loads);
        reg.counter("l1/hits").add(hits);
        reg.gauge("queue/depth").set(depth);
        reg
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lva_obs_timeline_{tag}"));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn counter_deltas_sum_to_the_cumulative_value() {
        let mut sampler = EpochSampler::new(TimelineConfig::every(100));
        let totals = [40u64, 90, 90, 250];
        for (i, &total) in totals.iter().enumerate() {
            sampler.sample((i as u64 + 1) * 100, &registry(total, total / 2, i as f64));
        }
        let timeline = sampler.into_timeline();
        assert_eq!(timeline.len(), 4);
        assert_eq!(timeline.sum_counter("loads"), 250);
        assert_eq!(
            timeline.counter_series("loads"),
            vec![40, 50, 0, 160],
            "per-epoch deltas"
        );
        // Gauges are last-value per frame, not deltas.
        assert_eq!(timeline.frames[3].gauge("queue/depth"), Some(3.0));
        assert_eq!(timeline.counter_paths(), vec!["loads", "l1/hits"]);
    }

    #[test]
    fn histograms_are_interval_merges() {
        let mut reg = MetricsRegistry::new();
        let mut sampler = EpochSampler::new(TimelineConfig::every(10));
        reg.histogram("eval_ns").record(100);
        reg.histogram("eval_ns").record(200);
        sampler.sample(10, &reg);
        reg.histogram("eval_ns").record(1000);
        sampler.sample(20, &reg);
        let timeline = sampler.into_timeline();
        assert_eq!(timeline.frames[0].histograms[0].1.count, 2);
        assert!((timeline.frames[0].histograms[0].1.sum - 300.0).abs() < 1e-9);
        assert_eq!(timeline.frames[1].histograms[0].1.count, 1);
        assert!((timeline.frames[1].histograms[0].1.sum - 1000.0).abs() < 1e-9);
        assert!((timeline.frames[1].histograms[0].1.mean - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut sampler = EpochSampler::new(TimelineConfig::every(1));
        let epochs = RING_CAPACITY as u64 + 3;
        for clock in 1..=epochs {
            sampler.sample(clock, &registry(clock * 10, 0, 0.0));
        }
        let timeline = sampler.into_timeline();
        assert_eq!(timeline.len(), RING_CAPACITY);
        assert_eq!(timeline.dropped, 3);
        // Indices stay absolute across eviction.
        assert_eq!(timeline.frames[0].index, 3);
        assert_eq!(timeline.frames.last().unwrap().index, epochs - 1);
    }

    #[test]
    fn flushing_an_idle_timeline_is_a_no_op() {
        let reg = registry(100, 50, 1.0);
        let mut sampler = EpochSampler::new(TimelineConfig::every(50));
        sampler.sample(50, &reg);
        assert_eq!(sampler.frames().len(), 1);
        // Clock has not advanced and no counter moved: nothing to flush.
        sampler.sample(50, &reg);
        assert_eq!(sampler.frames().len(), 1, "no empty duplicate frame");
        // A *partial* epoch with new events does flush.
        let reg = registry(120, 60, 1.0);
        sampler.sample(70, &reg);
        assert_eq!(sampler.frames().len(), 2);
        assert_eq!(sampler.frames().back().unwrap().span(), 20);
        assert_eq!(sampler.frames().back().unwrap().counter("loads"), 20);
    }

    #[test]
    fn windowed_rate_helpers() {
        let mut sampler = EpochSampler::new(TimelineConfig::every(100));
        sampler.sample(100, &registry(50, 40, 2.0));
        let frame = sampler.frames().back().unwrap();
        assert!(
            (frame.rate("loads") - 0.5).abs() < 1e-12,
            "loads per clock unit"
        );
        assert!(
            (frame.ratio("l1/hits", "loads") - 0.8).abs() < 1e-12,
            "hit rate"
        );
        assert!(frame.ratio("absent", "loads").abs() < 1e-12);
        // A missing (or zero) denominator is NaN, never +Inf: Inf survives
        // comparisons and arithmetic, so it would propagate into watch
        // output and sparkline coordinates instead of being filtered.
        assert!(frame.ratio("l1/hits", "absent").is_nan());
    }

    #[test]
    fn zero_span_and_zero_denominator_are_nan_not_inf() {
        // Hand-built degenerate frame: events recorded against a clock
        // that never advanced (a flushed tail epoch can have span 0), and
        // ratios against counters that never moved.
        let frame = EpochFrame {
            index: 0,
            start: 100,
            end: 100,
            counters: vec![("loads".into(), 7), ("l1/hits".into(), 0)],
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        assert_eq!(frame.span(), 0);
        assert!(frame.rate("loads").is_nan(), "7 / 0 span must be NaN");
        assert!(frame.rate("absent").is_nan());
        assert!(
            frame.ratio("loads", "l1/hits").is_nan(),
            "n / 0 must be NaN"
        );
        // Zero over zero stays NaN too.
        assert!(frame.ratio("l1/hits", "absent").is_nan());
    }

    #[test]
    fn frames_round_trip_through_json() {
        let mut reg = registry(7, 3, 1.25);
        reg.histogram("eval_ns").record(1000);
        let mut sampler = EpochSampler::new(TimelineConfig::every(10));
        sampler.sample(10, &reg);
        let frame = sampler.frames().back().unwrap().clone();
        let back = EpochFrame::from_json(&frame.to_json()).expect("parses");
        assert_eq!(back, frame);
        // The empty-interval histogram mean survives as NaN via null.
        sampler.sample(20, &reg);
        let frame = sampler.frames().back().unwrap().clone();
        assert!(frame.histograms[0].1.mean.is_nan());
        let line = frame.to_json().to_string_compact();
        assert!(line.contains("\"mean\":null"), "{line}");
        let back = EpochFrame::from_json(&parse(&line).unwrap()).expect("parses");
        assert!(back.histograms[0].1.mean.is_nan());
    }

    #[test]
    fn record_round_trips_and_validates_schema() {
        let mut sampler = EpochSampler::new(TimelineConfig::every(10));
        sampler.sample(10, &registry(5, 2, 0.0));
        let mut record = TimelineRecord::new("tl-smoke", sampler.into_timeline());
        record.set_meta("workload", "blackscholes");
        record.set_meta("epoch", "10");
        let back = TimelineRecord::from_json(&record.to_json()).expect("parses");
        assert_eq!(back, record);
        assert_eq!(back.meta("workload"), Some("blackscholes"));

        let mut json = record.to_json();
        if let Json::Obj(members) = &mut json {
            members[0].1 = Json::Str("something-else".into());
        }
        assert!(TimelineRecord::from_json(&json)
            .unwrap_err()
            .contains("kind"));
        let mut json = record.to_json();
        if let Json::Obj(members) = &mut json {
            members[1].1 = Json::Num(99.0);
        }
        assert!(TimelineRecord::from_json(&json)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn jsonl_sink_round_trips() {
        let dir = tmp("jsonl");
        let path = dir.join("frames.jsonl");
        let mut sampler = EpochSampler::new(TimelineConfig::every(10));
        let mut sink = JsonlSink::create(&path).expect("creates");
        for clock in [10u64, 20, 30] {
            sampler.sample(clock, &registry(clock, clock / 2, 0.0));
            sink.append(sampler.frames().back().unwrap())
                .expect("appends");
        }
        let text = std::fs::read_to_string(&path).expect("reads");
        assert_eq!(text.lines().count(), 3);
        let load = read_jsonl(&path).expect("loads");
        assert!(!load.truncated);
        let frames: Vec<EpochFrame> = sampler.into_timeline().frames;
        assert_eq!(load.frames, frames);
        // The atomic whole-file writer produces the same bytes back.
        let copy = dir.join("copy.jsonl");
        write_jsonl(&copy, &frames).expect("writes");
        assert_eq!(read_jsonl(&copy).expect("loads").frames, frames);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let dir = tmp("truncated");
        let path = dir.join("frames.jsonl");
        let mut sampler = EpochSampler::new(TimelineConfig::every(10));
        let mut sink = JsonlSink::create(&path).expect("creates");
        for clock in [10u64, 20, 30] {
            sampler.sample(clock, &registry(clock * 3, clock, 0.0));
            sink.append(sampler.frames().back().unwrap())
                .expect("appends");
        }
        drop(sink);
        // Corrupt the tail: chop the file mid-way through the final line,
        // as a crash between write and a full flush would.
        let text = std::fs::read_to_string(&path).expect("reads");
        std::fs::write(&path, &text[..text.len() - 17]).expect("corrupts");
        let load = read_jsonl(&path).expect("tolerates the tail");
        assert!(load.truncated, "the chopped final line must be flagged");
        assert_eq!(load.frames.len(), 2, "complete lines survive");
        assert_eq!(load.frames[1].counter("loads"), 30);

        // Mid-file corruption is a hard error, not silent data loss.
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[0] = "{\"epoch\": garbage".into();
        std::fs::write(&path, lines.join("\n")).expect("rewrites");
        let err = read_jsonl(&path).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
