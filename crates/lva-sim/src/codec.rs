//! The one JSON codec for [`SimConfig`]: `lva-serve`'s wire form and the
//! preimage of its cache key (`lva-serve`'s `protocol` docs list the keys).
//!
//! Each config struct is one `record!` table. The encoder writes every
//! row, so equal configs encode to equal text; the mechanism label and
//! the governor's two top-level layer keys are spelled by hand, and the
//! result-neutral fields are not encoded. Integers travel as `f64` JSON
//! numbers, so [`SimConfig::validate`] refuses any integer knob above
//! [`MAX_EXACT`]: every valid config round-trips exactly.

use lva_core::{
    ApproximatorConfig, CacheLevel, ClpConfig, ComputeFn, ConfidenceUpdate, ConfidenceWindow,
    HashKind, LvpConfig, PrefetcherConfig, RealisticLvpConfig,
};
use lva_mem::CacheConfig;
use lva_obs::Json;

use crate::config::{MechanismKind, SimConfig};
use crate::fault::FaultConfig;
use crate::govern::GovernorConfig;

/// 2^53 − 1, the largest integer an `f64` tells apart from its neighbours.
pub const MAX_EXACT: u64 = (1 << 53) - 1;

/// A value with one JSON spelling.
trait Field {
    /// The JSON form; `None` leaves the key out (an unset option).
    fn encode(&self) -> Option<Json>;

    /// Reads the JSON form of a present key.
    fn decode(json: &Json) -> Result<Self, String>
    where
        Self: Sized;

    /// The first integer above [`MAX_EXACT`], with its field's `name`.
    fn inexact(&self, _name: &'static str) -> Option<(&'static str, u64)> {
        None
    }
}

macro_rules! integers {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn encode(&self) -> Option<Json> {
                Some(Json::Num(*self as f64))
            }

            fn decode(json: &Json) -> Result<Self, String> {
                let (lo, hi) = (<$ty>::MIN as f64, MAX_EXACT.min(<$ty>::MAX as u64) as f64);
                match json {
                    Json::Num(n) if n.fract() == 0.0 && (lo..=hi).contains(n) => Ok(*n as $ty),
                    _ => Err(format!("must be an integer in [{lo}, {hi}]")),
                }
            }

            fn inexact(&self, name: &'static str) -> Option<(&'static str, u64)> {
                let value = *self as i128;
                (value > i128::from(MAX_EXACT)).then_some((name, value as u64))
            }
        }
    )*};
}

integers!(u32, i32, u64, usize);

macro_rules! scalars {
    ($($ty:ty: $variant:ident $what:literal),*) => {$(
        impl Field for $ty {
            fn encode(&self) -> Option<Json> {
                Some(Json::$variant(*self))
            }

            fn decode(json: &Json) -> Result<Self, String> {
                match json {
                    Json::$variant(v) => Ok(*v),
                    _ => Err(concat!("must be ", $what).into()),
                }
            }
        }
    )*};
}

scalars!(f64: Num "a number", bool: Bool "a boolean");

impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Option<Json> {
        self.as_ref().and_then(T::encode)
    }

    fn decode(json: &Json) -> Result<Self, String> {
        T::decode(json).map(Some)
    }

    fn inexact(&self, name: &'static str) -> Option<(&'static str, u64)> {
        self.as_ref().and_then(|v| v.inexact(name))
    }
}

impl Field for ConfidenceWindow {
    fn encode(&self) -> Option<Json> {
        Some(match self {
            ConfidenceWindow::Exact => Json::Str("exact".into()),
            ConfidenceWindow::Infinite => Json::Str("inf".into()),
            ConfidenceWindow::Relative(f) => Json::Num(*f),
        })
    }

    fn decode(json: &Json) -> Result<Self, String> {
        match json {
            Json::Str(s) if s == "exact" => Ok(ConfidenceWindow::Exact),
            Json::Str(s) if s == "inf" => Ok(ConfidenceWindow::Infinite),
            Json::Num(f) => Ok(ConfidenceWindow::Relative(*f)),
            _ => Err("must be \"exact\", \"inf\" or a fraction".into()),
        }
    }
}

/// A fieldless enum spelled as one string per variant.
macro_rules! labels {
    ($ty:ident { $($variant:ident $label:literal),* $(,)? }) => {
        impl Field for $ty {
            fn encode(&self) -> Option<Json> {
                Some(Json::Str(match self { $($ty::$variant => $label,)* }.into()))
            }

            fn decode(json: &Json) -> Result<Self, String> {
                match json.as_str() {
                    $(Some($label) => Ok($ty::$variant),)*
                    _ => Err(concat!("must be one of" $(, " ", $label)*).into()),
                }
            }
        }
    };
}

labels!(CacheLevel { L1 "l1", L2 "l2", Llc "llc", Dram "dram" });
labels!(ConfidenceUpdate { Unit "unit", Proportional "proportional" });
labels!(ComputeFn { Average "average", LastValue "last-value", Stride "stride", WeightedAverage "weighted-average" });
labels!(HashKind { Xor "xor", FoldedXor "folded-xor" });

/// Appends `field` under `key` unless it is an unset option.
fn put(members: &mut Vec<(String, Json)>, key: &str, field: &dyn Field) {
    if let Some(json) = field.encode() {
        members.push((key.to_owned(), json));
    }
}

/// Reads the optional member `key` of `json`.
fn member<T: Field>(json: &Json, key: &str) -> Result<Option<T>, String> {
    json.get(key)
        .map(|v| T::decode(v).map_err(|e| format!("{key}: {e}")))
        .transpose()
}

/// Reads the record under `key`, at its base value when absent.
fn record<T: Field>(json: &Json, key: &str) -> Result<T, String> {
    let empty = Json::Obj(Vec::new());
    T::decode(json.get(key).unwrap_or(&empty)).map_err(|e| format!("{key}: {e}"))
}

/// A struct encoded as a JSON object, one row per field: `field "key"`.
/// An absent key decodes to the field's value in `base`. Every field must
/// have a row or be listed after `skip`, so a new field fails to compile
/// until it has one.
macro_rules! record {
    ($ty:ident = $base:expr; $($field:ident $key:literal),* $(; skip $($skip:ident),*)?) => {
        impl Field for $ty {
            fn encode(&self) -> Option<Json> {
                let $ty { $($field,)* $($($skip: _,)*)? } = self;
                let mut members = Vec::with_capacity([$($key),*].len());
                $(put(&mut members, $key, $field);)*
                Some(Json::Obj(members))
            }

            fn decode(json: &Json) -> Result<Self, String> {
                json.as_obj().ok_or("must be an object")?;
                let mut value: $ty = $base;
                $(if let Some(v) = member(json, $key)? {
                    value.$field = v;
                })*
                Ok(value)
            }

            fn inexact(&self, _name: &'static str) -> Option<(&'static str, u64)> {
                None $(.or_else(|| self.$field.inexact(stringify!($field))))*
            }
        }
    };
}

record!(ApproximatorConfig = ApproximatorConfig::baseline();
    table_entries "table",
    lhb_entries "lhb",
    ghb_entries "ghb",
    degree "degree",
    confidence_window "window",
    confidence_on_int "on_int",
    tag_bits "tag_bits",
    confidence_bits "bits",
    confidence_update "update",
    compute "compute",
    mantissa_loss_bits "mantissa_loss",
    hash "hash"
);

record!(LvpConfig = LvpConfig::baseline();
    table_entries "table",
    lhb_entries "lhb",
    ghb_entries "ghb",
    tag_bits "tag_bits",
    hash "hash"
);

record!(RealisticLvpConfig = RealisticLvpConfig::conventional();
    table_entries "table",
    lhb_entries "lhb",
    ghb_entries "ghb",
    tag_bits "tag_bits",
    confidence_bits "bits",
    prediction_threshold "threshold",
    rollback_penalty_instructions "rollback",
    hash "hash"
);

// An absent degree reads as 1, not the paper's 4: the wire has always
// defaulted it so.
record!(PrefetcherConfig = PrefetcherConfig::paper(1);
    degree "degree",
    ghb_entries "ghb",
    index_entries "index",
    next_line "next_line",
    correlation_depth "depth"
);

record!(ClpConfig = ClpConfig::baseline();
    table_entries "table",
    confidence_bits "bits",
    hierarchy_depth "depth",
    mispredict_penalty "penalty",
    slow_threshold "slow"
);

record!(CacheConfig = CacheConfig::pin_l1();
    size_bytes "size",
    ways "ways",
    block_bytes "block"
);

record!(FaultConfig = FaultConfig::seeded(0);
    seed "seed",
    table_rate "table",
    drop_rate "drop",
    delay_rate "delay",
    delay_extra "delay_extra"
);

// The governor's shared knobs; its two layers are top-level keys.
record!(GovernorConfig = GovernorConfig::OFF;
    epoch_len "epoch",
    energy_weight "energy_weight",
    hysteresis_epochs "hysteresis",
    min_samples "min_samples";
    skip slo_error, error_budget
);

// The plain top-level rows. The mechanism and the governor follow by
// hand; the result-neutral fields are not encoded.
record!(SimConfig = SimConfig::precise();
    value_delay "value_delay",
    threads "threads",
    l1 "l1",
    faults "faults";
    skip mechanism, govern, trace, timeline, record_traces
);

/// The mechanism's name, as its JSON form and the CLI spell it.
pub(crate) fn mechanism_name(kind: &MechanismKind) -> &'static str {
    mechanism_parts(kind).0
}

/// The mechanism's label and its configured structures, by key.
fn mechanism_parts(kind: &MechanismKind) -> (&'static str, Vec<(&'static str, &dyn Field)>) {
    match kind {
        MechanismKind::Precise => ("precise", vec![]),
        MechanismKind::Lva(a) => ("lva", vec![("lva", a)]),
        MechanismKind::Lvp(c) => ("lvp", vec![("lvp", c)]),
        MechanismKind::RealisticLvp(c) => ("real-lvp", vec![("real-lvp", c)]),
        MechanismKind::Prefetch(c) => ("prefetch", vec![("prefetch", c)]),
        MechanismKind::Clp(c) => ("clp", vec![("clp", c)]),
        MechanismKind::LvaClp(a, c) => ("lva+clp", vec![("lva", a), ("clp", c)]),
    }
}

fn decode_mechanism(json: &Json) -> Result<MechanismKind, String> {
    let label = json
        .get("mechanism")
        .and_then(Json::as_str)
        .ok_or("config missing string 'mechanism'")?;
    Ok(match label {
        "precise" => MechanismKind::Precise,
        "lva" => MechanismKind::Lva(record(json, "lva")?),
        "lvp" => MechanismKind::Lvp(record(json, "lvp")?),
        "real-lvp" => MechanismKind::RealisticLvp(record(json, "real-lvp")?),
        "prefetch" => MechanismKind::Prefetch(record(json, "prefetch")?),
        "clp" => MechanismKind::Clp(record(json, "clp")?),
        "lva+clp" => MechanismKind::LvaClp(record(json, "lva")?, record(json, "clp")?),
        other => return Err(format!("unknown mechanism {other}")),
    })
}

fn decode_governor(json: &Json) -> Result<Option<GovernorConfig>, String> {
    let error_budget = member(json, "error_budget")?;
    let slo_error = member(json, "governor_slo")?;
    let knobs: Option<GovernorConfig> = member(json, "governor")?;
    let on = error_budget.is_some() || slo_error.is_some() || knobs.is_some();
    Ok(on.then(|| GovernorConfig {
        slo_error,
        error_budget,
        ..knobs.unwrap_or(GovernorConfig::OFF)
    }))
}

/// The first integer knob of `config` above [`MAX_EXACT`], by field name
/// — what [`SimConfig::validate`] refuses, so every valid config
/// round-trips exactly.
pub(crate) fn inexact_knob(config: &SimConfig) -> Option<(&'static str, u64)> {
    let (_, parts) = mechanism_parts(&config.mechanism);
    Field::inexact(config, "")
        .or_else(|| parts.iter().find_map(|(_, part)| part.inexact("")))
        .or_else(|| config.govern.inexact(""))
}

impl SimConfig {
    /// The configuration's JSON form: every field that can change a
    /// result, and none of the result-neutral ones (see the
    /// [module docs](crate::codec)). The compact text of this value is
    /// canonical: equal configs encode to equal text.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let (label, parts) = mechanism_parts(&self.mechanism);
        let mut members = vec![("mechanism".to_owned(), Json::Str(label.into()))];
        if let Some(Json::Obj(rows)) = Field::encode(self) {
            members.extend(rows);
        }
        for (key, part) in parts {
            put(&mut members, key, part);
        }
        if let Some(g) = &self.govern {
            put(&mut members, "error_budget", &g.error_budget);
            put(&mut members, "governor_slo", &g.slo_error);
            put(&mut members, "governor", g);
        }
        Json::Obj(members)
    }

    /// Reads a configuration from its JSON form and validates it. Absent
    /// keys take their defaults; the result-neutral fields are off.
    ///
    /// # Errors
    ///
    /// Returns a message naming the key for a wrongly typed or
    /// out-of-range value or an unknown mechanism, and one starting
    /// `invalid config:` for whatever [`SimConfig::validate`] rejects.
    pub fn from_json(json: &Json) -> Result<SimConfig, String> {
        let config = SimConfig {
            mechanism: decode_mechanism(json)?,
            govern: decode_governor(json)?,
            ..<SimConfig as Field>::decode(json)?
        };
        config
            .validate()
            .map_err(|e| format!("invalid config: {e}"))?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_keys_take_their_defaults() {
        let json = lva_obs::parse_json(r#"{"mechanism":"prefetch"}"#).unwrap();
        assert_eq!(
            SimConfig::from_json(&json).unwrap(),
            SimConfig::prefetch(1),
            "a bare prefetch line keeps the wire's degree-1 default"
        );
        let json = lva_obs::parse_json(r#"{"mechanism":"lva","governor":{"epoch":50}}"#).unwrap();
        let err = SimConfig::from_json(&json).unwrap_err();
        assert!(
            err.starts_with("invalid config"),
            "a governor needs a layer: {err}"
        );
    }

    #[test]
    fn wrong_types_name_their_key() {
        for (text, key) in [
            (r#"{"mechanism":"lva","lva":{"hash":"md5"}}"#, "lva: hash"),
            (r#"{"mechanism":"lva","lva":{"degree":-1}}"#, "lva: degree"),
            (
                r#"{"mechanism":"lva","lva":{"window":null}}"#,
                "lva: window",
            ),
            (
                r#"{"mechanism":"real-lvp","real-lvp":{"threshold":2.5}}"#,
                "real-lvp: threshold",
            ),
            (r#"{"mechanism":"lva","l1":[]}"#, "l1"),
            (
                r#"{"mechanism":"lva","faults":{"seed":"7"}}"#,
                "faults: seed",
            ),
            (r#"{"mechanism":"lva","threads":true}"#, "threads"),
        ] {
            let err = SimConfig::from_json(&lva_obs::parse_json(text).unwrap()).unwrap_err();
            assert!(err.starts_with(key), "{text}: {err}");
        }
    }
}
