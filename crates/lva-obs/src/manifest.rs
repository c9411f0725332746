//! `RunRecord` — the schema-versioned JSON run manifest.
//!
//! A manifest is what one simulation run (or one bench figure, or one
//! sweep) leaves behind: who ran (`name` + `meta` strings like workload,
//! scale, seed, mechanism), and what it measured (`stats`: ordered flat
//! `path -> f64` pairs, the same shape [`MetricsRegistry::dump`] emits).
//! Keeping stats flat makes the regression compare engine a simple keyed
//! diff, and keeping them ordered lets figure tables round-trip through a
//! manifest without losing series order.
//!
//! On-disk format (`BENCH_<name>.json`):
//!
//! ```json
//! {
//!   "kind": "lva-obs.run-record",
//!   "schema": 1,
//!   "name": "report-blackscholes-test",
//!   "meta": { "workload": "blackscholes", "scale": "test" },
//!   "stats": { "total/l1/raw_misses": 1234, "derived/mpki": 2.125 }
//! }
//! ```
//!
//! Non-finite stat values serialize as `null` and read back as NaN (the
//! [`crate::json`] convention).

use crate::json::{parse, Json, ParseError};
use crate::metrics::MetricsRegistry;

/// Current manifest schema version. Bump on incompatible layout changes;
/// readers accept `1..=SCHEMA_VERSION`.
pub const SCHEMA_VERSION: u64 = 1;

/// The `kind` discriminator every manifest carries.
pub(crate) const RECORD_KIND: &str = "lva-obs.run-record";

/// One run's manifest: identity, string metadata, and flat numeric stats.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Run name (also names the artifact: `BENCH_<name>.json`).
    pub name: String,
    /// Ordered string metadata: workload, scale, seed, config labels, …
    pub meta: Vec<(String, String)>,
    /// Ordered flat stats: `/`-separated metric path to value.
    pub stats: Vec<(String, f64)>,
}

impl RunRecord {
    /// A new, empty record.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        RunRecord {
            name: name.into(),
            meta: Vec::new(),
            stats: Vec::new(),
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

    /// Appends one stat. Paths should be unique; the compare engine works
    /// on the first occurrence.
    pub fn push_stat(&mut self, path: impl Into<String>, value: f64) {
        self.stats.push((path.into(), value));
    }

    /// Stat lookup (first occurrence).
    #[must_use]
    pub fn stat(&self, path: &str) -> Option<f64> {
        self.stats.iter().find(|(p, _)| p == path).map(|&(_, v)| v)
    }

    /// Appends a whole metrics registry dump.
    pub fn absorb_registry(&mut self, registry: &MetricsRegistry) {
        self.stats.extend(registry.dump());
    }

    /// Lowers the record to a JSON value.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(RECORD_KIND.into())),
            ("schema".into(), Json::Num(SCHEMA_VERSION as f64)),
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
            (
                "stats".into(),
                Json::Obj(
                    self.stats
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The canonical serialized form (pretty JSON, trailing newline).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Rebuilds a record from a JSON value, validating kind and schema.
    ///
    /// # Errors
    ///
    /// Returns a message on a wrong `kind`, an unsupported `schema`, or a
    /// structurally malformed document.
    pub(crate) fn from_json(json: &Json) -> Result<Self, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("manifest missing string field 'kind'")?;
        if kind != RECORD_KIND {
            return Err(format!("not a run record: kind = {kind:?}"));
        }
        let schema = json
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or("manifest missing numeric field 'schema'")?;
        if !(schema >= 1.0 && schema <= SCHEMA_VERSION as f64) {
            return Err(format!(
                "unsupported manifest schema {schema} (reader supports 1..={SCHEMA_VERSION})"
            ));
        }
        let name = json
            .get("name")
            .and_then(Json::as_str)
            .ok_or("manifest missing string field 'name'")?
            .to_owned();
        let mut record = RunRecord::new(name);
        for (k, v) in json
            .get("meta")
            .and_then(Json::as_obj)
            .ok_or("manifest missing object field 'meta'")?
        {
            let v = v
                .as_str()
                .ok_or_else(|| format!("meta entry {k:?} is not a string"))?;
            record.meta.push((k.clone(), v.to_owned()));
        }
        for (k, v) in json
            .get("stats")
            .and_then(Json::as_obj)
            .ok_or("manifest missing object field 'stats'")?
        {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("stat {k:?} is not a number"))?;
            record.stats.push((k.clone(), v));
        }
        Ok(record)
    }

    /// Parses the serialized form.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error or the schema validation message.
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = parse(text).map_err(|e: ParseError| e.to_string())?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        let mut r = RunRecord::new("report-blackscholes-test");
        r.set_meta("workload", "blackscholes");
        r.set_meta("scale", "test");
        r.set_meta("seed", "0");
        r.push_stat("total/l1/raw_misses", 1234.0);
        r.push_stat("derived/mpki", 2.125);
        r.push_stat("derived/undefined", f64::NAN);
        r
    }

    #[test]
    fn record_round_trips_through_text() {
        let r = sample();
        let back = RunRecord::parse(&r.to_string_pretty()).expect("parses");
        assert_eq!(back.name, r.name);
        assert_eq!(back.meta, r.meta);
        assert_eq!(back.stats.len(), r.stats.len());
        // Finite stats round-trip exactly; the NaN survives as NaN.
        assert_eq!(back.stat("total/l1/raw_misses"), Some(1234.0));
        assert_eq!(back.stat("derived/mpki"), Some(2.125));
        assert!(back.stat("derived/undefined").unwrap().is_nan());
    }

    #[test]
    fn stat_and_meta_order_is_preserved() {
        let r = sample();
        let back = RunRecord::parse(&r.to_string_pretty()).expect("parses");
        let paths: Vec<&str> = back.stats.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            ["total/l1/raw_misses", "derived/mpki", "derived/undefined"]
        );
    }

    #[test]
    fn set_meta_overwrites() {
        let mut r = RunRecord::new("x");
        r.set_meta("scale", "test");
        r.set_meta("scale", "small");
        assert_eq!(r.meta("scale"), Some("small"));
        assert_eq!(r.meta.len(), 1);
    }

    #[test]
    fn absorb_registry_appends_dump() {
        let mut reg = MetricsRegistry::new();
        reg.counter("core0/l1/miss").add(7);
        let mut r = RunRecord::new("x");
        r.absorb_registry(&reg);
        assert_eq!(r.stat("core0/l1/miss"), Some(7.0));
    }

    #[test]
    fn wrong_kind_and_schema_are_rejected() {
        let mut json = sample().to_json();
        if let Json::Obj(members) = &mut json {
            members[0].1 = Json::Str("something-else".into());
        }
        assert!(RunRecord::from_json(&json).unwrap_err().contains("kind"));

        let mut json = sample().to_json();
        if let Json::Obj(members) = &mut json {
            members[1].1 = Json::Num(99.0);
        }
        assert!(RunRecord::from_json(&json).unwrap_err().contains("schema"));
    }

    #[test]
    fn truncated_text_is_a_parse_error() {
        let text = sample().to_string_pretty();
        let err = RunRecord::parse(&text[..text.len() / 2]).unwrap_err();
        assert!(err.contains("parse error"), "{err}");
    }
}
