//! The workspace's one JSON implementation: a value tree, its parser, and
//! its writer.
//!
//! No JSON library is available offline and nothing in this workspace goes
//! through a serialization framework, so every machine-readable document —
//! bench reports, metrics timelines, critical-path and chaos-sweep reports
//! — is a [`JsonValue`] tree: built with [`JsonValue::object`] / `From`,
//! written with `Display` (compact, keys sorted, so equal trees are equal
//! bytes), and read back with [`JsonValue::parse`]. Writer → parser is the
//! identity on every tree of finite numbers; a non-finite number has no
//! JSON form and is written as `null`. [`validate_json`] is the parser with
//! the tree dropped.
//!
//! The one exception is the trace exporters ([`crate::export`]): the JSONL
//! lines are the trace-checksum basis and the Chrome export is large, so
//! both keep their own byte-exact streaming output (checked against this
//! parser in their tests).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (integers up to 2^53 are exact,
    /// far beyond any counter this workspace serializes into reports).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys sorted, duplicates keep the last value.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse a complete JSON document.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` for other kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Nested member lookup along a dotted path (`"queue.mgr_requests"`).
    pub fn at(&self, path: &str) -> Option<&JsonValue> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of converted items.
    pub fn array<T: Into<JsonValue>>(items: impl IntoIterator<Item = T>) -> JsonValue {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

impl From<u64> for JsonValue {
    /// Exact up to 2^53, like every JSON number.
    fn from(n: u64) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

/// `None` is `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

/// The writer: compact JSON, object keys in sorted order.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            // `{}` on a finite f64 is the shortest decimal that parses back
            // to the same value, never in exponent form.
            JsonValue::Number(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Number(_) => f.write_str("null"),
            JsonValue::String(s) => write!(f, "\"{}\"", escape(s)),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Well-formedness check: `input` is one complete JSON document.
pub fn validate_json(input: &str) -> Result<(), String> {
    JsonValue::parse(input).map(drop)
}

/// Escape a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos).map(JsonValue::String),
        Some(b't') => literal(b, pos, "true").map(|_| JsonValue::Bool(true)),
        Some(b'f') => literal(b, pos, "false").map(|_| JsonValue::Bool(false)),
        Some(b'n') => literal(b, pos, "null").map(|_| JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        other => Err(format!("unexpected {other:?} at offset {pos}")),
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("malformed literal at offset {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut members = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(b, pos);
        let key = string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        let val = value(b, pos)?;
        members.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            other => return Err(format!("expected ',' or '}}', got {other:?} at offset {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut elems = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(elems));
    }
    loop {
        skip_ws(b, pos);
        elems.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(elems));
            }
            other => return Err(format!("expected ',' or ']', got {other:?} at offset {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                let at = *pos;
                let esc = *b.get(at + 1).ok_or("dangling escape")?;
                *pos += 2;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    // Four hex digits naming one BMP scalar (what `escape`
                    // emits); surrogate halves are not scalars and are
                    // rejected rather than paired.
                    b'u' => {
                        let code = b
                            .get(*pos..*pos + 4)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("malformed \\u escape at offset {at}"))?;
                        *pos += 4;
                        code
                    }
                    other => {
                        return Err(format!("unknown escape \\{} at offset {at}", other as char))
                    }
                });
            }
            _ => {
                // Copy the whole UTF-8 sequence starting here.
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if *pos == start || (*pos == start + 1 && b[start] == b'-') {
        return Err(format!("malformed number at offset {start}"));
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|e| format!("number {text:?} at offset {start}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("-3.5e-2").unwrap().as_f64(), Some(-0.035));
        assert_eq!(JsonValue::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a":[1,2,{"b":-3}],"c":null,"d":{"e":"f"}}"#).unwrap();
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_f64), Some(-3.0));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("d").and_then(|d| d.get("e")).and_then(JsonValue::as_str), Some("f"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(JsonValue::parse("{\"a\":1,}").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    /// Writer → parser is the identity on strings: every control character,
    /// the two characters that need a backslash, and multi-byte UTF-8, alone
    /// and in seeded random mixtures, as values and as object keys.
    #[test]
    fn strings_round_trip_through_writer_and_parser() {
        let palette: Vec<char> = (0u8..0x20)
            .map(char::from)
            .chain(['"', '\\', '/', 'a', ' ', 'u', '0', '\u{7f}', 'é', '€', '\u{ffff}', '😀'])
            .collect();
        let mut cases: Vec<String> = palette.iter().map(|c| c.to_string()).collect();
        cases.push(String::new());
        cases.push("a \"quoted\"\tline\nwith \\ backslash".to_string());
        cases.push("\\u0041 stays six characters".to_string());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..256 {
            let mut s = String::new();
            for _ in 0..(state >> 60) + 1 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s.push(palette[(state >> 33) as usize % palette.len()]);
            }
            cases.push(s);
        }
        for raw in &cases {
            let doc = JsonValue::object([(raw.as_str(), JsonValue::from(raw.as_str()))]);
            let text = doc.to_string();
            assert!(text.bytes().all(|b| b >= 0x20), "raw control byte written for {raw:?}");
            assert_eq!(JsonValue::parse(&text).as_ref(), Ok(&doc), "{raw:?} via {text}");
        }
    }

    #[test]
    fn unicode_escapes_decode_and_malformed_ones_are_rejected() {
        assert_eq!(JsonValue::parse(r#""\u0041\u00e9\u20AC\/""#).unwrap().as_str(), Some("Aé€/"));
        for bad in [r#""\u12""#, r#""\u12G4""#, r#""\u+123""#, r#""\ud800""#, r#""\x41""#, r#""\"#]
        {
            assert!(JsonValue::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    /// Writer → parser is the identity on finite numbers, including the
    /// smallest subnormal and both sides of the 2^53 integer edge; a
    /// non-finite number is written as `null`.
    #[test]
    fn numbers_round_trip_and_non_finite_becomes_null() {
        const EDGE: u64 = 1 << 53;
        for n in [0.0, -0.0, 1e-9, 5e-324, f64::MIN_POSITIVE, 0.1 + 0.2, -3.5e-2, 1e21, f64::MAX] {
            let text = JsonValue::from(n).to_string();
            assert!(!text.contains(['e', 'E']), "{n:e} written in exponent form: {text}");
            assert_eq!(JsonValue::parse(&text).unwrap().as_f64(), Some(n), "{text}");
        }
        for n in [0, 1, EDGE - 1, EDGE] {
            let text = JsonValue::from(n).to_string();
            assert_eq!(text, n.to_string());
            assert_eq!(JsonValue::parse(&text).unwrap().as_u64(), Some(n));
        }
        // Past the edge a u64 rounds to the nearest f64, as in any JSON
        // reader; full-range values travel as hex strings instead.
        assert_eq!(JsonValue::from(EDGE + 1), JsonValue::from(EDGE));
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(JsonValue::from(n).to_string(), "null");
        }
        assert_eq!(JsonValue::from(None::<u64>), JsonValue::Null);
    }

    #[test]
    fn writer_output_is_compact_sorted_and_reparses_equal() {
        let doc = JsonValue::object([
            ("b", JsonValue::array([1u64, 2])),
            ("a", JsonValue::object([("nested", JsonValue::Bool(true))])),
            ("c", JsonValue::Null),
        ]);
        let text = doc.to_string();
        assert_eq!(text, r#"{"a":{"nested":true},"b":[1,2],"c":null}"#);
        validate_json(&text).unwrap();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        assert_eq!(doc.at("a.nested"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.at("a.missing"), None);
        assert_eq!(doc.at("b.nested"), None);
    }

    #[test]
    fn as_u64_rejects_fractional_and_negative() {
        assert_eq!(JsonValue::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("0").unwrap().as_u64(), Some(0));
    }
}
