//! Minimal JSON: a value type, a strict recursive-descent parser, and a
//! deterministic encoder. Hand-rolled because the build environment has
//! no registry access — and the service needs exactly this much:
//! parse request bodies, emit response bodies.
//!
//! ## Float round-tripping
//!
//! Numbers encode via Rust's shortest-round-trip `Display` for `f64`,
//! so `parse(encode(x))` reproduces `x` **bit for bit** for every
//! finite value. That is what lets the server promise bit-identical
//! estimates over the wire (pinned by tests here and by the
//! `determinism` integration test). Non-finite numbers have no JSON
//! representation; the encoder maps them to `null` (the estimator audit
//! guarantees served estimates are finite).
//!
//! ## Writing without a tree
//!
//! `ObjectWriter` writes an object's fields in order straight into a
//! string, under the same rules as [`Json::encode`]; job documents
//! (`GET /v1/jobs/{id}` and every stream line) are written this way,
//! so no `Json` value is built for them. `Json` stays for parsing and
//! for small fixed responses.
//!
//! One float-array writer serves both paths (`write_f64_array` and
//! the array arm of [`Json::encode`]). Formatting floats through
//! `Display` is most of the cost of encoding, and served vectors are
//! mostly zeros (degree distributions) or step functions (CCDFs), so
//! it has two fast paths: `+0.0` (bits `0`) writes `0`, and a value
//! bit-equal to the last one formatted copies the bytes already
//! written for it. Every other value takes the number rule above. The
//! output is byte-identical to formatting each element on its own
//! (pinned by a property test over zero runs, `±0.0`, NaN, `±inf`,
//! subnormals and values past 2^53).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (deterministic
/// encoding); lookups are linear, which is fine at request-body scale.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always an `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer view (rejects fractional and out-of-range
    /// values instead of truncating).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(*b, out),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                let mut nums = FloatWriter::default();
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match item {
                        Json::Num(x) => nums.write(*x, out),
                        item => item.write(out),
                    }
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                let mut obj = ObjectWriter::new(out);
                for (k, v) in pairs {
                    v.write(obj.key(k));
                }
                obj.end();
            }
        }
    }
}

/// Writes the JSON number for `x`: the shortest round-trip `Display`
/// (integral values print without a decimal point, which JSON parses
/// back to the same f64), or `null` when `x` is not finite.
pub(crate) fn write_num(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_bool(b: bool, out: &mut String) {
    out.push_str(if b { "true" } else { "false" });
}

/// Writes `xs` as a JSON array of numbers, with the bytes of
/// `Json::Arr` of `Json::Num`s (see the [module docs](self)).
pub(crate) fn write_f64_array(xs: &[f64], out: &mut String) {
    let mut nums = FloatWriter::default();
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        nums.write(x, out);
    }
    out.push(']');
}

/// The numbers of one array, written into one growing string. `+0.0`
/// writes `0` and a value bit-equal to the last one formatted copies
/// that one's bytes, so `Display` runs once per distinct nonzero value
/// in a row.
#[derive(Default)]
struct FloatWriter {
    /// The bits of the last value formatted and where its text sits in
    /// `out`, which only grows while the array is written.
    last: Option<(u64, std::ops::Range<usize>)>,
}

impl FloatWriter {
    fn write(&mut self, x: f64, out: &mut String) {
        let bits = x.to_bits();
        match &self.last {
            _ if bits == 0 => out.push('0'),
            Some((last, text)) if *last == bits => out.extend_from_within(text.clone()),
            _ => {
                let start = out.len();
                write_num(x, out);
                self.last = Some((bits, start..out.len()));
            }
        }
    }
}

/// Writes one JSON object's fields, in call order, straight into a
/// string. Values follow the rules of [`Json::encode`]: an integer is
/// the f64 nearest it, then the number rule.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub(crate) fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes the separator and `"key":`, returning the string the
    /// value goes into.
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_escaped(key, self.out);
        self.out.push(':');
        self.out
    }

    pub(crate) fn num(&mut self, key: &str, x: f64) {
        write_num(x, self.key(key));
    }

    /// An integer field, encoded as `Json::from(x)` is.
    pub(crate) fn int(&mut self, key: &str, x: u64) {
        self.num(key, x as f64);
    }

    pub(crate) fn null(&mut self, key: &str) {
        self.key(key).push_str("null");
    }

    /// A number field, `null` when absent.
    pub(crate) fn opt_num(&mut self, key: &str, x: Option<f64>) {
        match x {
            Some(x) => self.num(key, x),
            None => self.null(key),
        }
    }

    pub(crate) fn str(&mut self, key: &str, s: &str) {
        write_escaped(s, self.key(key));
    }

    /// A string field, `null` when absent.
    pub(crate) fn opt_str(&mut self, key: &str, s: Option<&str>) {
        match s {
            Some(s) => self.str(key, s),
            None => self.null(key),
        }
    }

    pub(crate) fn bool(&mut self, key: &str, b: bool) {
        write_bool(b, self.key(key));
    }

    /// An array-of-numbers field ([`write_f64_array`]), `null` when
    /// absent.
    pub(crate) fn nums(&mut self, key: &str, xs: Option<&[f64]>) {
        match xs {
            Some(xs) => write_f64_array(xs, self.key(key)),
            None => self.null(key),
        }
    }

    /// Opens an object-valued field; [`ObjectWriter::end`] closes it.
    pub(crate) fn object(&mut self, key: &str) -> ObjectWriter<'_> {
        ObjectWriter::new(self.key(key))
    }

    /// Closes the object.
    pub(crate) fn end(self) {
        self.out.push('}');
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

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

impl From<Option<f64>> for Json {
    fn from(x: Option<f64>) -> Json {
        match x {
            Some(v) => Json::Num(v),
            None => Json::Null,
        }
    }
}

/// Writes `s` as a JSON string literal.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound: deeper documents are rejected (a hostile body could
/// otherwise blow the parser's stack).
const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Unconsumed input (empty once the cursor passes the end).
    fn rest(&self) -> &[u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.rest().starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
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
            Some(b'{') => {
                self.pos += 1;
                let mut pairs: Vec<(String, Json)> = Vec::new();
                let mut seen: BTreeMap<String, ()> = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if seen.insert(key.clone(), ()).is_some() {
                        return Err(self.err(format!("duplicate key '{key}'")));
                    }
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("malformed number: digits required after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("malformed number: digits required in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("malformed number"))?;
        let x: f64 = text
            .parse()
            .map_err(|e| self.err(format!("malformed number '{text}': {e}")))?;
        if !x.is_finite() {
            return Err(self.err(format!("number '{text}' overflows f64")));
        }
        Ok(Json::Num(x))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.rest().starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(lead) => {
                    // Consume one UTF-8 scalar. The input arrived as
                    // &str, so the encoding is valid by construction —
                    // validate only this scalar's 1–4 bytes, never the
                    // whole remaining input (an O(n) re-validation per
                    // character would make long strings quadratic).
                    let len = match lead {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let scalar = self
                        .bytes
                        .get(self.pos..end)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    let c = scalar
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("truncated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads 4 hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let text = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-1",
            "3.25",
            "1e-7",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.encode()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn floats_roundtrip_bit_for_bit() {
        let values = [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            2.0f64.powi(53),
            -7.297_529_106_681_956e-102,
            123_456_789.123_456_78,
        ];
        for &x in &values {
            let encoded = Json::Num(x).encode();
            let back = parse(&encoded).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {encoded}");
        }
    }

    #[test]
    fn non_finite_encodes_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\te\u{08}\u{0C}\u{1F}é𐍈";
        let v = Json::Str(s.to_string());
        assert_eq!(parse(&v.encode()).unwrap().as_str().unwrap(), s);
        // Unicode escapes parse too, including surrogate pairs.
        assert_eq!(
            parse("\"\\u0041\\ud800\\udf48\"")
                .unwrap()
                .as_str()
                .unwrap(),
            "A𐍈"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in [
            "",
            "nul",
            "tru",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "01",
            "1.",
            "1e",
            "- 1",
            "[1]extra",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\udc00 alone\"",
            "1e999",
            "{\"a\":1,\"a\":2}",
            // Truncation at every cursor the decoder advances: each
            // must come back as a clean parse error, never a panic
            // (these are the request-path `.expect()`s converted to
            // error returns).
            "\"\\u",
            "\"\\u00",
            "\"\\u00g0\"",
            "\"\\ud800\\u",
            "\"\\ud800\\udc0",
            "\"tail\\",
            "falsy",
        ] {
            assert!(parse(text).is_err(), "{text:?} should be rejected");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"n\":3,\"s\":\"x\",\"b\":true,\"a\":[1.5],\"z\":null}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("z"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        // Fractional and negative numbers are not u64s.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    /// A float array's wire form, element by element: shortest
    /// round-trip `Display` for finite values, `null` for the rest.
    fn reference_array(xs: &[f64]) -> String {
        let items: Vec<String> = xs
            .iter()
            .map(|x| {
                if x.is_finite() {
                    format!("{x}")
                } else {
                    "null".to_string()
                }
            })
            .collect();
        format!("[{}]", items.join(","))
    }

    /// The floats an encoder can get wrong: both zeros, non-finite
    /// values, subnormals, integers at and past 2^53, any bit pattern.
    fn awkward_float(kind: u64, bits: u64) -> f64 {
        let sign = bits & (1 << 63);
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::from_bits(sign | (bits % (1 << 52))),
            6 => {
                let two_53 = 2f64.powi(53).to_bits();
                f64::from_bits(sign | (two_53 + bits % (f64::MAX.to_bits() - two_53)))
            }
            7 => f64::from_bits(bits),
            8 => (bits % 1_000) as f64 / 997.0,
            _ => (bits % 100) as f64,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arrays of numbers encode exactly as their elements do one by
        /// one, across long runs of one value and every awkward float.
        #[test]
        fn float_arrays_encode_element_by_element(
            runs in proptest::prop::collection::vec((0u64..10, 0u64..u64::MAX, 1usize..40), 0..40)
        ) {
            let xs: Vec<f64> = runs
                .iter()
                .flat_map(|&(kind, bits, len)| std::iter::repeat_n(awkward_float(kind, bits), len))
                .collect();
            let encoded = Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()).encode();
            proptest::prop_assert_eq!(encoded, reference_array(&xs));
        }

        /// The array writer job documents use writes the bytes of the
        /// `Json` tree, after any prefix already in the string.
        #[test]
        fn array_writer_matches_the_tree_encoder(
            runs in proptest::prop::collection::vec((0u64..10, 0u64..u64::MAX, 1usize..40), 0..40)
        ) {
            let xs: Vec<f64> = runs
                .iter()
                .flat_map(|&(kind, bits, len)| std::iter::repeat_n(awkward_float(kind, bits), len))
                .collect();
            let tree = Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()).encode();
            let mut out = String::from("{\"vector\":");
            write_f64_array(&xs, &mut out);
            proptest::prop_assert_eq!(out, format!("{{\"vector\":{tree}"));
        }
    }

    #[test]
    fn mixed_arrays_encode_element_by_element() {
        let doc = Json::Arr(vec![
            Json::Num(0.5),
            Json::Null,
            Json::Num(0.5),
            Json::Str("0.5".into()),
            Json::Num(0.5),
            Json::Arr(vec![Json::Num(0.5), Json::Num(-0.0), Json::Num(0.0)]),
            Json::Num(f64::NAN),
            Json::Num(f64::NAN),
            Json::Bool(false),
            Json::Num(1e300),
            Json::Num(1e300),
        ]);
        assert_eq!(
            doc.encode(),
            format!(
                "[0.5,null,0.5,\"0.5\",0.5,[0.5,-0,0],null,null,false,{0},{0}]",
                "1".to_string() + &"0".repeat(300)
            )
        );
    }
}
