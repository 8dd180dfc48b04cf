//! Hand-written JSON output (no JSON library resolves offline). Reading goes
//! through `samhita_trace::JsonValue`, and every document the harness
//! writes is checked with `samhita_trace::validate_json` before it leaves.

use samhita_trace::json::escape;

/// A JSON number. Non-finite values have no JSON form and become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// An object from `(key, already-encoded value)` pairs, in the order given.
pub fn object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> =
        fields.into_iter().map(|(k, v)| format!("{}:{v}", string(k.as_ref()))).collect();
    format!("{{{}}}", body.join(","))
}

pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use samhita_trace::{validate_json, JsonValue};

    #[test]
    fn output_parses_back() {
        let doc = object([
            ("a \"quoted\" key", num(1.5)),
            ("tiny", num(1e-9)),
            ("nan", num(f64::NAN)),
            ("list", array([num(1.0), string("x y")])),
        ]);
        validate_json(&doc).expect("valid");
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("a \"quoted\" key").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("tiny").unwrap().as_f64(), Some(1e-9));
        assert_eq!(v.get("list").unwrap().as_array().unwrap()[1].as_str(), Some("x y"));
    }
}
