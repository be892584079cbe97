//! A minimal JSON document model with a writer and a parser.
//!
//! The workspace depends on no serialization crate, so every
//! machine-readable artifact and wire message goes through this
//! module: an insertion-ordered document
//! tree ([`Json`]), a compact and a pretty writer, and a small
//! recursive-descent parser so round-trips can be tested and CI can
//! validate emitted artifacts. Insertion order is preserved in objects,
//! which is what gives `BENCH_*.json` files their stable key order.

use std::fmt::{self, Write as _};

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite numbers serialize to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; stored as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// An empty array.
    pub fn arr() -> Json {
        Json::Arr(Vec::new())
    }

    /// Inserts (or replaces) a key in an object, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.insert(key, value);
        self
    }

    /// Inserts (or replaces) a key in an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn insert(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(pairs) = self else {
            panic!("Json::insert on a non-object");
        };
        let value = value.into();
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_owned(), value)),
        }
    }

    /// Appends to an array.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an array.
    pub fn push(&mut self, value: impl Into<Json>) {
        let Json::Arr(items) = self else {
            panic!("Json::push on a non-array");
        };
        items.push(value.into());
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact rendering ([`Json::render`]) to `out`, for
    /// writers that build a document's text directly.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty rendering with two-space indentation (the `BENCH_*.json`
    /// artifact format).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
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
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// Nesting is limited to [`MAX_PARSE_DEPTH`] levels so untrusted
    /// input (the `drone-serve` request path feeds network bytes here)
    /// cannot overflow the stack with `[[[[…`; deeper documents return
    /// a [`ParseError`] instead.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing content"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

/// Appends the JSON spelling of a number to `out`, exactly as
/// [`Json::Num`] renders. Rust's `f64` Display is the shortest decimal
/// that round-trips, which is exactly what a stable artifact format
/// wants. JSON has no spelling for non-finite numbers, so those degrade
/// to `null`.
pub fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Formats in place: writing to a `String` cannot fail.
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted, escaped JSON string to `out`, exactly as
/// [`Json::Str`] renders.
pub fn write_string(out: &mut String, s: &str) {
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

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest container nesting [`Json::parse`] accepts. The recursive-
/// descent parser burns one stack frame per level, so this bound is
/// what keeps arbitrary network bytes from overflowing the stack.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn eat(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.error("nesting deeper than MAX_PARSE_DEPTH"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash at once, validating only that run: both
                    // are ASCII, so a run of the `&str` input is whole
                    // characters, and the check returns a typed error
                    // rather than panicking should that ever slip.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    let text = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(text);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // The scan above only admits ASCII bytes, but a typed error is
        // strictly safer than an `expect` if that invariant ever slips.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("non-ASCII byte in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("malformed number"))
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    /// Lossy above 2⁵³; counters in this workspace stay far below that.
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact() {
        let doc = Json::obj()
            .with("name", "repro")
            .with("count", 3u64)
            .with("ok", true)
            .with("ratio", 0.074)
            .with("items", vec![Json::Num(1.0), Json::Null]);
        assert_eq!(
            doc.render(),
            r#"{"name":"repro","count":3,"ok":true,"ratio":0.074,"items":[1,null]}"#
        );
    }

    #[test]
    fn key_order_is_insertion_order() {
        let doc = Json::obj().with("z", 1.0).with("a", 2.0).with("m", 3.0);
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parses_what_it_writes() {
        let doc = Json::obj()
            .with("text", "line\nbreak \"quoted\" \\ slash")
            .with("nested", Json::obj().with("pi", std::f64::consts::PI))
            .with("empty_obj", Json::obj())
            .with("empty_arr", Json::arr())
            .with("neg", -1.25e-9);
        for rendered in [doc.render(), doc.render_pretty()] {
            assert_eq!(Json::parse(&rendered).unwrap(), doc);
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let parsed = Json::parse(r#"{"s":"café\tnoir é"}"#).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str().unwrap(), "café\tnoir é");
    }

    #[test]
    fn a_64_kib_string_parses_exactly_in_linear_time() {
        // Plain runs, multi-byte characters and escapes interleaved, at
        // the size of a line the reactor's default cap admits. Decoding
        // the whole remaining input per character took about 0.1 s for
        // this in a release build and seconds in a debug one; copying
        // each run at once takes a few milliseconds.
        let unit = "design point é ∑ 🚁 \"quoted\" back\\slash\n\t\u{1};";
        let text = unit.repeat(64 * 1024 / unit.len() + 1);
        let rendered = Json::from(text.as_str()).render();
        assert!(rendered.len() >= 64 * 1024);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&rendered).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.as_str(), Some(text.as_str()));
        assert!(
            elapsed < std::time::Duration::from_millis(250),
            "parsing a {}-byte string took {elapsed:?}",
            rendered.len()
        );
    }

    #[test]
    fn unterminated_strings_and_bad_escapes_are_typed_errors() {
        for bad in ["\"abc", "\"é∑", "\"a\\", "\"a\\é\"", "\"\\u00\""] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "[1] x"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // 200k unterminated opens: without the depth cap this is a
        // stack overflow (an abort, not a catchable panic).
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(200_000);
            assert!(Json::parse(&bomb).is_err());
        }
        // Depth within the cap still parses, and siblings do not
        // accumulate depth.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        let siblings = format!("[{}]", vec!["[[1]]"; 200].join(","));
        assert!(Json::parse(&siblings).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn numbers_and_control_escapes_render_as_format_does() {
        let numbers = [
            0.0,
            -0.0,
            1.0,
            -42.0,
            768.0,
            9_007_199_254_740_993.0,
            0.1,
            -1.25e-9,
            1.0 / 3.0,
            1e21,
            1e-7,
            f64::MIN_POSITIVE,
            // Subnormals: the smallest, and one near the normal range.
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::MIN,
        ];
        for n in numbers {
            assert_eq!(Json::Num(n).render(), format!("{n}"), "{n:e}");
        }
        for c in ['\u{0}', '\u{1}', '\u{1b}', '\u{1f}'] {
            assert_eq!(
                Json::from(c.to_string()).render(),
                format!("\"\\u{:04x}\"", c as u32)
            );
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        for v in [0.1, 1.0 / 3.0, 6.02e23, -2.2250738585072014e-308] {
            let parsed = Json::parse(&Json::Num(v).render()).unwrap();
            assert_eq!(parsed.as_f64().unwrap().to_bits(), v.to_bits());
        }
    }
}
