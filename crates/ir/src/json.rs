//! The workspace's one JSON value, writer and reader.
//!
//! The workspace builds offline (no serde). What it writes — the harnesses'
//! `--json` output, the lint and fuzz reports — and what it reads back — the
//! calibration records of [`CostModel::from_bench_json`](crate::CostModel::from_bench_json)
//! and the committed `BENCH_*.json` baselines the bench gates compare
//! against — are small, so one value type with an escaping serializer and a
//! recursive-descent parser is all that is needed. Numbers are emitted with
//! `f64` round-trip precision; non-finite numbers become `null` (JSON has
//! no NaN/∞). The parser covers the full JSON grammar minus surrogate-pair
//! escapes, which the writer never emits.

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

    /// The value under `key` if this is an object that has it (the first,
    /// should a malformed record repeat a key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
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

/// Parses one JSON document.
///
/// # Errors
///
/// Names the byte offset of the first syntax error, including input left
/// over after the document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                // `from_str_radix` alone would take a sign.
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            out.push(hex);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                }
                Some(_) => {
                    let start = self.at;
                    while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                        self.at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.at])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{a:1}",
            "\"open",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\u+041\"",
            "tru",
            "nul",
            "1.2.3",
            "--1",
            "{} {}",
            "[1] x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn parse_reads_what_the_writer_does_not_emit() {
        let j = parse(" { \"a\" : [ 1 , -2.5e1 , 1E2 ] ,\n\t\"b\\/\\b\\f\\u0041\" : null } ")
            .expect("whitespace, exponents and every escape parse");
        assert_eq!(
            j,
            Json::obj([
                (
                    "a",
                    Json::Array(vec![Json::Num(1.0), Json::Num(-25.0), Json::Num(100.0)])
                ),
                ("b/\u{8}\u{c}A", Json::Null),
            ])
        );
        assert_eq!(
            j.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    /// A random string over the cases the writer treats apart: quotes,
    /// backslashes, named escapes, other control characters (`\u00XX`),
    /// ASCII, and non-ASCII below the surrogate range.
    fn random_string(rng: &mut StdRng) -> String {
        (0..rng.gen_range(0usize..8))
            .map(|_| match rng.gen_range(0u32..8) {
                0 => '"',
                1 => '\\',
                2 => ['\n', '\r', '\t', '/'][rng.gen_range(0usize..4)],
                3 => char::from_u32(rng.gen_range(0u32..0x20)).expect("a control character"),
                4 => char::from_u32(rng.gen_range(0x80u32..0xD800)).expect("below the surrogates"),
                _ => char::from_u32(rng.gen_range(0x20u32..0x7F)).expect("ASCII"),
            })
            .collect()
    }

    /// A random finite number: small and large integers (either side of the
    /// writer's `1e15` integer cut-off), fractions, decimal exponents across
    /// the range, and arbitrary bit patterns.
    fn random_number(rng: &mut StdRng) -> f64 {
        let v = match rng.gen_range(0u32..5) {
            0 => rng.gen_range(-1000i64..1000) as f64,
            1 => rng.gen_range(-(1i64 << 62)..1i64 << 62) as f64,
            2 => rng.gen_range(-1.0..1.0),
            3 => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-300i32..300)),
            _ => f64::from_bits(rng.gen::<u64>()),
        };
        if v.is_finite() {
            v
        } else {
            0.5
        }
    }

    fn random_value(rng: &mut StdRng, depth: u32) -> Json {
        let leaf = depth == 0 || rng.gen_range(0u32..3) > 0;
        match rng.gen_range(0u32..if leaf { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen::<bool>()),
            2 => Json::Num(random_number(rng)),
            3 => Json::Str(random_string(rng)),
            4 => Json::Array(
                (0..rng.gen_range(0usize..4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Object(
                (0..rng.gen_range(0usize..4))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn what_is_written_parses_back_to_itself() {
        let mut rng = StdRng::seed_from_u64(0x15_0A);
        for case in 0..2000 {
            let j = random_value(&mut rng, 4);
            let text = j.to_string();
            assert_eq!(parse(&text).as_ref(), Ok(&j), "case {case}: {text}");
        }
        // A non-finite number is written as `null`, which is what comes back.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let j = Json::Array(vec![Json::Num(v), Json::Num(1.5)]);
            assert_eq!(
                parse(&j.to_string()),
                Ok(Json::Array(vec![Json::Null, Json::Num(1.5)]))
            );
        }
    }
}
