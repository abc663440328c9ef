//! Minimal hand-rolled JSON tree, emitter and parser.
//!
//! The workspace is hermetic (std-only), so the report emitter in
//! `fgcache-sim` and `fgcache plan --json` use this module instead of
//! `serde_json`. It implements the subset of RFC 8259 the
//! workspace needs — which is all of the grammar, with two deliberate
//! simplifications:
//!
//! * integers are kept exact (`u64`/`i64` variants) rather than coerced to
//!   `f64`, because [`crate::FileId`] spans the full `u64` range;
//! * object keys keep insertion order (a `Vec`, not a map), so emitted
//!   documents are byte-stable.
//!
//! # Examples
//!
//! ```
//! use fgcache_types::json::Json;
//!
//! let doc = Json::Obj(vec![
//!     ("name".to_string(), Json::Str("fgcache".to_string())),
//!     ("files".to_string(), Json::Arr(vec![Json::UInt(42)])),
//! ]);
//! let text = doc.to_text();
//! assert_eq!(text, r#"{"name":"fgcache","files":[42]}"#);
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt;

/// A parsed JSON value with exact integer preservation.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The JSON literal `null`.
    Null,
    /// A JSON boolean.
    Bool(bool),
    /// A non-negative integer without fraction or exponent.
    UInt(u64),
    /// A negative integer without fraction or exponent.
    Int(i64),
    /// Any other number (fractional or exponent form).
    Num(f64),
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON array.
    Arr(Vec<Json>),
    /// A JSON object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// Maximum container nesting depth [`Json::parse`] accepts.
///
/// The parser recurses one Rust stack frame per container level, so a
/// hostile document — ten thousand opening brackets — would otherwise
/// chew through the real stack before failing. The depth counter turns
/// that into a clean [`JsonParseError`] after 128 levels, far beyond
/// anything the workspace's reports nest.
const MAX_DEPTH: usize = 128;

/// Error produced when [`Json::parse`] rejects malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset in the input at which parsing failed.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K, I>(pairs: I) -> Json
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, Json)>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Json {
        Json::Str(s.as_ref().to_string())
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Serialises the value to compact JSON text (no whitespace).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact JSON serialisation of `self` to `out`.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => {
                let mut buf = [0u8; 20];
                out.push_str(format_u64(*v, &mut buf));
            }
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    // JSON has no Inf/NaN; emit null like serde_json's
                    // arbitrary-precision mode would reject — we degrade.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document. Trailing whitespace is allowed;
    /// trailing garbage is an error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] with the byte offset of the first
    /// malformed construct.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(value)
    }
}

/// Formats `v` into `buf` without heap allocation; returns the text.
fn format_u64(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Digits are ASCII by construction.
    std::str::from_utf8(&buf[i..]).unwrap_or("0")
}

/// Writes `s` as a quoted JSON string with all mandatory escapes.
fn write_escaped(s: &str, out: &mut String) {
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, text: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{text}'")))
        }
    }

    /// Bumps the container depth, rejecting documents nested deeper than
    /// [`MAX_DEPTH`]. Callers pair it with a decrement on their success
    /// paths; an error aborts the whole parse, so unwinding is moot.
    fn enter(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn parse_object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
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
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
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
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_code_unit()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("lone high surrogate"));
                                }
                                self.pos += 1;
                                let low = self.parse_code_unit()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => {
                                    out.push(c);
                                    // parse_code_unit left pos on the last
                                    // hex digit's successor already.
                                    continue;
                                }
                                None => return Err(self.error("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    if b < 0x20 {
                        return Err(self.error("unescaped control character"));
                    }
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Multi-byte UTF-8: the lead byte encodes the sequence
                    // length, and the input is a &str so the span is a
                    // valid char boundary. Validating only this span (not
                    // the whole tail) keeps parsing linear.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err(self.error("unterminated string")),
                    }
                }
            }
        }
    }

    /// Parses exactly four hex digits following `\u`; leaves `pos` just
    /// past the last digit.
    fn parse_code_unit(&mut self) -> Result<u32, JsonParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("expected four hex digits after \\u")),
            };
            value = value * 16 + d;
            self.pos += 1;
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error("expected digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Slice boundaries are on ASCII bytes, so this cannot fail.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if integral {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", r#""hi""#] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_text(), text);
        }
    }

    #[test]
    fn integers_stay_exact() {
        let max = u64::MAX.to_string();
        assert_eq!(Json::parse(&max).unwrap(), Json::UInt(u64::MAX));
        assert_eq!(Json::parse(&max).unwrap().to_text(), max);
        assert_eq!(Json::parse("-9").unwrap(), Json::Int(-9));
    }

    #[test]
    fn nested_structure_roundtrips() {
        let text = r#"{"events":[{"seq":0,"file":18446744073709551615,"kind":"Read"}],"n":2}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_text(), text);
        let events = v.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(events[0].get("file").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(events[0].get("kind").and_then(Json::as_str), Some("Read"));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.to_text(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("a\"b\\c\nd\te\u{08}\u{0C}\r\u{1}\u{1F602}".to_string());
        let text = original.to_text();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""\ud83d\ude02""#).unwrap();
        assert_eq!(v, Json::Str("\u{1F602}".to_string()));
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "01x",
            "{\"a\"}",
            "[1] junk",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nan",
            "+1",
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn parse_error_reports_offset() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn nesting_depth_is_limited() {
        // Hostile inputs: huge bracket runs must fail cleanly, not blow
        // the stack. Both pure arrays and alternating object nesting.
        let deep_arrays = "[".repeat(100_000);
        let err = Json::parse(&deep_arrays).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // The offending '[' sits at byte index MAX_DEPTH and is consumed
        // before the depth check fires, so the error points just past it.
        assert_eq!(err.offset, MAX_DEPTH + 1, "fails at the first too-deep '['");
        let deep_mixed: String = "{\"k\":[".repeat(50_000);
        assert!(Json::parse(&deep_mixed).is_err());
    }

    #[test]
    fn depth_at_the_limit_is_accepted() {
        // Exactly MAX_DEPTH nested arrays parse; one more does not.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn depth_resets_between_siblings() {
        // Depth counts nesting, not total containers: many shallow
        // siblings stay parseable.
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn float_emission_is_finite_only() {
        assert_eq!(Json::Num(f64::NAN).to_text(), "null");
        assert_eq!(Json::Num(2.5).to_text(), "2.5");
    }

    #[test]
    fn accessors_on_wrong_variants() {
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::Bool(true).as_array(), None);
        assert_eq!(Json::UInt(1).as_str(), None);
        assert_eq!(Json::Str("x".into()).as_u64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Int(5).as_u64(), Some(5));
    }
}
