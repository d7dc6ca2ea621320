//! A minimal JSON value and serializer for the harnesses' `--json` output.
//!
//! The workspace builds offline (no serde); the harness output is flat and
//! small, so a tiny escaping serializer is all that is needed. Numbers are
//! emitted with `f64` round-trip precision; non-finite numbers become
//! `null` (JSON has no NaN/∞).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (serialized via `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if !v.is_finite() => f.write_str("null"),
            Json::Num(v) if *v == v.trunc() && v.abs() < 1e15 => write!(f, "{}", *v as i64),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => escape(s, f),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Pulls `"key":<number>` out of a flat JSON record (a committed
/// `BENCH_*.json` baseline) without a full parser.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = &text[at..];
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_structures() {
        let j = Json::obj([
            ("name", Json::from("fig6")),
            ("n", Json::from(3usize)),
            ("ratio", Json::from(0.5)),
            (
                "points",
                Json::Array(vec![Json::from(1.0), Json::Null, Json::from(true)]),
            ),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"name":"fig6","n":3,"ratio":0.5,"points":[1,null,true]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::from("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn integers_have_no_fraction() {
        assert_eq!(Json::from(42.0).to_string(), "42");
        assert_eq!(Json::from(1e18).to_string(), "1000000000000000000");
    }
}
