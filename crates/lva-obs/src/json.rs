//! A minimal JSON value model with serializer and parser.
//!
//! The workspace is fully offline (no serde), so run manifests need their
//! own JSON layer. Scope is deliberately small: the five JSON value kinds,
//! UTF-8 strings with full escaping, and numbers carried as `f64`.
//!
//! **Non-finite convention:** JSON has no NaN/Infinity literals. The
//! serializer maps any non-finite `f64` to `null`; the manifest layer maps
//! `null` in a numeric position back to `f64::NAN` on read. A round trip
//! therefore preserves "this stat was not a finite number" but collapses
//! NaN and ±Inf into NaN — acceptable for manifests, where non-finite
//! stats only ever mean "undefined for this run".
//!
//! Object members are kept as an ordered `Vec<(String, Json)>`, not a map:
//! manifests rely on insertion order so that series tables and metric
//! dumps read back in the order they were recorded.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the serialization of non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; always an `f64` (manifests never need full u64 range
    /// beyond 2^53, and stats are exported as doubles anyway).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order. Duplicate keys are representable but
    /// never produced by this crate; `get` returns the first match.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match), `None` for non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one. `Json::Null` reads as NaN — see the
    /// module-level non-finite convention.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the canonical on-disk form of every artifact this crate writes.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_indented(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes to a single line with no interior newlines or trailing
    /// newline — the wire form for line-oriented protocols (one JSON
    /// document per `\n`-terminated line). Same value model, escaping and
    /// non-finite convention as [`to_string_pretty`](Self::to_string_pretty);
    /// the two forms parse back to identical values.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_indented(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_pretty())
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a number. Rust's `f64` `Display` is the shortest representation
/// that parses back to the same bits, so finite values round-trip exactly;
/// non-finite values become `null` (module convention).
fn write_num(out: &mut String, n: f64) {
    use fmt::Write as _;
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset into the input plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first malformed byte; truncated
/// input fails with "unexpected end of input".
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Nesting guard: manifests are a few levels deep; anything past this is
/// malformed or adversarial input, not a bigger manifest.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else if self.peek().is_none() {
            Err(self.err("unexpected end of input"))
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        let value = text.parse::<f64>().map_err(|_| ParseError {
            offset: start,
            message: format!("malformed number '{text}'"),
        })?;
        // `"1e999".parse::<f64>()` succeeds with infinity; a manifest from
        // an untrusted source must not smuggle non-finite values past the
        // serializer's finite-only invariant.
        if !value.is_finite() {
            return Err(ParseError {
                offset: start,
                message: format!("number '{text}' overflows f64"),
            });
        }
        Ok(Json::Num(value))
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                None => return Err(self.err("unexpected end of input")),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                None => return Err(self.err("unexpected end of input")),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte as one slice. Those stop bytes are ASCII, so the run
            // ends on a character boundary and is valid UTF-8 (the input
            // is a &str); validating just the run keeps the decode linear.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).expect("input is UTF-8"));
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unexpected end of input in string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        None => return Err(self.err("unexpected end of input in escape")),
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue; // already advanced past the digits
                        }
                        Some(c) => {
                            return Err(self.err(format!("bad escape '\\{}'", c as char)))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Decodes the digits of a `\u` escape (positioned just past the
    /// `u`), joining a surrogate pair into one character.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by
        // \uDC00..DFFF.
        let code = if (0xd800..0xdc00).contains(&hi) {
            if self.peek() != Some(b'\\') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    /// Reads exactly four hex digits and advances past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("unexpected end of input in \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ascii in \\u escape"))?;
        let v = u32::from_str_radix(digits, 16)
            .map_err(|_| self.err("bad hex in \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        parse(&v.to_string_pretty()).expect("round trip parses")
    }

    #[test]
    fn nested_values_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("run".into())),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "stats".into(),
                Json::Obj(vec![
                    ("mpki".into(), Json::Num(2.5)),
                    ("loads".into(), Json::Num(123456.0)),
                ]),
            ),
            (
                "series".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(-0.5), Json::Num(1e-12)]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn compact_form_is_one_line_and_parses_to_the_same_value() {
        let v = Json::Obj(vec![
            ("cmd".into(), Json::Str("submit\nline".into())),
            ("n".into(), Json::Num(2.5)),
            ("flags".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let line = v.to_string_compact();
        assert!(!line.contains('\n'), "wire form must be newline-free: {line}");
        assert_eq!(
            line,
            r#"{"cmd":"submit\nline","n":2.5,"flags":[true,null],"empty":{}}"#
        );
        assert_eq!(parse(&line).expect("compact parses"), v);
        assert_eq!(parse(&line).unwrap(), parse(&v.to_string_pretty()).unwrap());
    }

    #[test]
    fn object_member_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let v = parse(text).expect("parses");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1} unicode ümλ😀";
        let v = Json::Str(nasty.into());
        let text = v.to_string_pretty();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\\\"));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\u0001"));
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        let v = parse(r#""😀""#).expect("parses");
        assert_eq!(v, Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\ud83dA""#).is_err(), "bad low surrogate");
    }

    #[test]
    fn long_mixed_strings_round_trip() {
        // Multi-byte UTF-8 of every width, every escape the serializer
        // emits, and control characters, repeated far past any buffer.
        let unit = "ascii \u{e9}\u{3bb}\u{4e2d}\u{1f600} \" \\ \n \r \t \u{1}\u{1f} /";
        let long = unit.repeat(2000);
        for v in [Json::Str(long.clone()), Json::Obj(vec![(long.clone(), Json::Str(long))])] {
            assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn every_escape_decodes() {
        let text = r#""\"\\\/\b\f\n\r\t\u0041\u00e9\u4E2D\ud83d\ude00x""#;
        assert_eq!(
            parse(text).unwrap(),
            Json::Str("\"\\/\u{8}\u{c}\n\r\tA\u{e9}\u{4e2d}\u{1f600}x".into())
        );
        // Escaped surrogate pairs between raw multi-byte runs.
        let mixed = "\"\u{e9}\\ud83d\\ude00\u{1f600}\\udbff\\udfff\u{4e2d}\"";
        assert_eq!(
            parse(mixed).unwrap(),
            Json::Str("\u{e9}\u{1f600}\u{1f600}\u{10ffff}\u{4e2d}".into())
        );
        let pairs = Json::Str("\u{1f600}\u{10ffff}\u{10000}".repeat(500));
        assert_eq!(roundtrip(&pairs), pairs);
    }

    #[test]
    fn string_errors_keep_their_byte_offsets() {
        for (text, offset, message) in [
            ("\"ab\u{1}c\"", 3, "unescaped control character"),
            ("\"\u{e9}\u{e9}\n\"", 5, "unescaped control character"),
            (r#""\x""#, 2, "bad escape"),
            (r#""\ud83d""#, 7, "unpaired surrogate"),
            (r#""\ud83dA""#, 7, "unpaired surrogate"),
            (r#""\ud83d\n""#, 8, "unpaired surrogate"),
            (r#""\ud83d\u0041""#, 13, "invalid low surrogate"),
            (r#""\udc00""#, 7, "invalid unicode escape"),
            (r#""\u12g4""#, 3, "bad hex"),
            ("\"\u{4e2d}abc", 7, "unexpected end of input in string"),
            (r#""esc\"#, 5, "unexpected end of input in escape"),
            (r#""\u00"#, 3, "unexpected end of input in \\u escape"),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!(err.offset, offset, "{text:?}: {err}");
            assert!(err.message.contains(message), "{text:?}: {err}");
        }
    }

    #[test]
    fn non_finite_numbers_serialize_to_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Num(bad).to_string_pretty();
            assert_eq!(text.trim(), "null");
        }
        // And null reads back as NaN in a numeric position.
        assert!(parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn finite_floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e300, 5e-324, -2.2250738585072014e-308, 0.0, -0.0] {
            let back = roundtrip(&Json::Num(v));
            match back {
                Json::Num(b) => assert_eq!(b.to_bits(), v.to_bits(), "{v}"),
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_inputs_report_eof() {
        for text in [
            "",
            "{",
            "[1, 2",
            r#"{"a""#,
            r#"{"a": "#,
            r#""unterminated"#,
            r#""esc\"#,
            r#""\u00"#,
            "tru",
        ] {
            let err = parse(text).expect_err(text);
            assert!(
                err.message.contains("unexpected end") || err.message.contains("expected"),
                "{text:?} -> {err}"
            );
        }
    }

    #[test]
    fn garbage_inputs_report_offset() {
        let err = parse("{\"a\": @}").expect_err("garbage");
        assert_eq!(err.offset, 6);
        assert!(parse("[1, 2] extra").is_err(), "trailing characters");
        assert!(parse("{'a': 1}").is_err(), "single quotes are not JSON");
        assert!(parse("[1 2]").is_err(), "missing comma");
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        let err = parse(&deep).expect_err("too deep");
        assert!(err.message.contains("nesting"));
    }

    #[test]
    fn numbers_with_exponents_parse() {
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("-2.5E-2").unwrap(), Json::Num(-0.025));
        assert!(parse("1e").is_err());
        assert!(parse("--1").is_err());
    }

    #[test]
    fn huge_exponents_are_rejected_not_infinite() {
        for text in ["1e999", "-1e999", "1e308999", "[1, 2e999]"] {
            let err = parse(text).expect_err(text);
            assert!(err.to_string().contains("overflows"), "{text}: {err}");
        }
        // Underflow to zero and the largest finite doubles stay accepted.
        assert_eq!(parse("1e-999").unwrap(), Json::Num(0.0));
        assert_eq!(parse("1.7976931348623157e308").unwrap(), Json::Num(f64::MAX));
    }

    #[test]
    fn invalid_escapes_are_rejected_with_offsets() {
        for text in [r#""\x""#, r#""\q""#, r#""\ ""#, r#""\u12""#, r#""\ud800_""#] {
            assert!(parse(text).is_err(), "{text} must not parse");
        }
    }

    #[test]
    fn deeply_nested_objects_are_rejected_not_overflowed() {
        let mut text = String::new();
        for _ in 0..4096 {
            text.push_str("{\"k\":");
        }
        text.push('1');
        text.push_str(&"}".repeat(4096));
        let err = parse(&text).expect_err("must hit the depth limit");
        assert!(err.to_string().contains("nesting too deep"), "{err}");
        // Mixed array/object nesting hits the same guard.
        let mixed = format!("{}1{}", "[{\"k\":".repeat(2048), "}]".repeat(2048));
        assert!(parse(&mixed).is_err());
    }
}
