//! # ilt-json
//!
//! The workspace's one JSON model, std-only by design like everything else
//! here (its single in-workspace dependency is the `ilt-fault` injection
//! registry).
//!
//! [`Json`] is both directions: every report, trace, JSONL record and HTTP
//! body the workspace writes is built as a `Json` value and serialised with
//! its [`Display`](std::fmt::Display) impl (compact, one line, non-finite
//! numbers as `null`), and [`Json::parse`] is a strict recursive-descent
//! parser over the full JSON grammar — enough to load reports the
//! workspace itself produced and to parse job-submission bodies, with real
//! error positions for hand-edited baselines and hand-typed curl payloads.
//!
//! Objects are `BTreeMap`s, so members are written in sorted key order;
//! consumers must not rely on member order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order follows `BTreeMap` (sorted); reports never rely
    /// on member order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset for any syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        // Fault drill: a corrupt payload on the wire surfaces here as a
        // parse failure; every caller must treat it as a typed error.
        if ilt_fault::should_fire(ilt_fault::points::JSON_INVALID) {
            return Err("injected fault: json.invalid".to_string());
        }
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Descends through nested objects by key path.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that is one
    /// (rejects negatives, non-integers, and values beyond `u64`).
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds up to 2^64, which is already out of
        // range, hence the strict bound.
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Compact JSON text: no whitespace or newlines (so a value is one JSONL
/// record), members in key order, non-finite numbers as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str_literal(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str_literal(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str_literal(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, c) in s.char_indices() {
        let esc = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            c if (c as u32) < 0x20 => None,
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        match esc {
            Some(esc) => f.write_str(esc)?,
            None => write!(f, "\\u{:04x}", c as u32)?,
        }
        run = i + c.len_utf8();
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

// Every integer the workspace writes (a count, id or size) is below 2^53,
// so `f64` holds it exactly.
macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}

from_number!(f64, u64, usize, i64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` becomes `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects `(key, value)` pairs into an object.
impl<K: Into<String>> FromIterator<(K, Json)> for Json {
    fn from_iter<I: IntoIterator<Item = (K, Json)>>(members: I) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // A high surrogate followed by an escaped low one
                            // is one astral scalar (how Python's `json.dumps`
                            // writes them); a lone surrogate is replaced.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let save = self.pos;
                                self.pos += 2;
                                match self.hex4()? {
                                    low @ 0xDC00..=0xDFFF => {
                                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                    }
                                    _ => self.pos = save,
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a char boundary of the
                    // &str input and needs no revalidation.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn parses_scalars_and_containers() {
        let v = Json::parse(
            r#"{"schema":"ilt-report/v2","n":-1.5e2,"ok":true,"none":null,"xs":[1,2,3],"nested":{"a":{"b":7}}}"#,
        )
        .unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("ilt-report/v2")
        );
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-150.0));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.path(&["nested", "a", "b"]).and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn scalar_accessors() {
        let v = Json::parse(r#"{"b":true,"n":12,"neg":-1,"frac":1.5,"s":"x"}"#).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(12));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("frac").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_bool), None);
        // The largest `f64` below 2^64 converts; 2^64 itself does not.
        assert_eq!(Json::Num(u64::MAX as f64).as_u64(), None);
        let big = Json::parse("[18446744073709549568,18446744073709551616]").unwrap();
        let big = big.as_arr().unwrap();
        assert_eq!(big[0].as_u64(), Some(18_446_744_073_709_549_568));
        assert_eq!(big[1].as_u64(), None);
    }

    #[test]
    fn parses_string_escapes() {
        let v = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "1 2",
            r#"{"a":1,}"#,
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    /// A random value tree: nested containers, strings drawn from escapes,
    /// control characters and non-ASCII text, and finite numbers spanning
    /// the whole `f64` range.
    fn random_value(rng: &mut StdRng, depth: usize) -> Json {
        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}',
            '\u{1b}', '\u{1f}', '\u{7f}', 'é', '—', '字', '😀',
        ];
        let string = |rng: &mut StdRng| -> String {
            (0..rng.gen_range(0usize..8))
                .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                .collect()
        };
        match rng.gen_range(0u32..if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Num(match rng.gen_range(0u32..3) {
                0 => rng.gen_range(0u64..1 << 53) as f64,
                1 => rng.gen_range(-1e6..1e6),
                _ => std::iter::repeat_with(|| f64::from_bits(rng.next_u64()))
                    .find(|v| v.is_finite())
                    .unwrap(),
            }),
            3 => Json::Str(string(rng)),
            4 => Json::Arr(
                (0..rng.gen_range(0usize..5))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => (0..rng.gen_range(0usize..5))
                .map(|_| (string(rng), random_value(rng, depth - 1)))
                .collect(),
        }
    }

    #[test]
    fn written_values_parse_back_equal() {
        let mut rng = StdRng::seed_from_u64(0x15_0a);
        for _ in 0..500 {
            let v = random_value(&mut rng, 4);
            let text = v.to_string();
            assert!(!text.contains('\n'), "{text}");
            assert_eq!(Json::parse(&text), Ok(v), "{text}");
        }
    }

    #[test]
    fn writes_compact_text_with_nulls_for_non_finite_numbers() {
        let v: Json = [
            ("s", Json::from("q\"\\\u{1}\n—")),
            ("n", Json::from(3u64)),
            ("x", Json::from(0.125)),
            ("nan", Json::Num(f64::NAN)),
            ("inf", Json::Num(f64::NEG_INFINITY)),
            ("xs", Json::Arr(vec![Json::Null, Json::from(true)])),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            v.to_string(),
            r#"{"inf":null,"n":3,"nan":null,"s":"q\"\\\u0001\n—","x":0.125,"xs":[null,true]}"#
        );
    }

    #[test]
    fn pairs_utf16_surrogate_escapes() {
        let v = Json::parse(r#""\ud83d\ude00|\ud83d|\ude00|\ud83d\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("😀|\u{FFFD}|\u{FFFD}|\u{FFFD}A"));
    }

    #[test]
    fn parses_large_strings_in_linear_time() {
        // A job body at the server's 256 KiB limit, and many short strings.
        // A linear scan parses each in about a millisecond even unoptimised;
        // a scan that revalidates the rest of the input per character takes
        // seconds.
        let long = format!(r#"{{"target":"{}"}}"#, "a".repeat(256 * 1024 - 14));
        let many = format!("[{}]", vec![r#""abcdefgh""#; 40_000].join(","));
        for doc in [long, many] {
            let start = std::time::Instant::now();
            assert!(Json::parse(&doc).is_ok());
            let took = start.elapsed();
            assert!(
                took.as_secs_f64() < 0.5,
                "{} bytes took {took:?}",
                doc.len()
            );
        }
    }
}
