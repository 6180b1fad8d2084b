//! The workspace's one JSON writer, and a small parser.
//!
//! Every JSON document the workspace emits is written by [`JsonWriter`]:
//! the `fprun --trace` JSONL lines ([`TraceEvent`](crate::TraceEvent)),
//! the `flexprot-metrics-v1` document ([`Metrics`](crate::Metrics)) and
//! the verifier's `flexprot-lint-v1`, `-surface-v1`, `-guardnet-v1` and
//! `-equiv-v1` documents. The writer alone decides commas, string
//! escaping, `null` and the `"0x%08x"` address form, so the documents
//! agree on them. The workspace builds offline with no external crates,
//! so the documents are checked (in CI and tests) by an equally small
//! recursive-descent [`parse`]r, which accepts any well-formed document.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Streaming JSON writer that appends to a `String`.
///
/// Keys are `&'static str` names, written verbatim; string values are
/// escaped in place. Objects and arrays are written by the closure passed
/// to [`object`](JsonWriter::object) or [`array`](JsonWriter::array),
/// so every container is closed, and the writer puts the commas between
/// members and elements. Each method returns the writer, so a key and
/// its value chain: `w.key("pc").hex(pc);`.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Whether the next key or array element follows a sibling.
    comma: bool,
}

/// An unsigned integer [`JsonWriter::num`] writes in decimal.
pub trait Number: fmt::Display + sealed::Sealed {}

mod sealed {
    pub trait Sealed {}
}

impl sealed::Sealed for u32 {}
impl sealed::Sealed for u64 {}
impl sealed::Sealed for usize {}
impl Number for u32 {}
impl Number for u64 {}
impl Number for usize {}

/// Renders one JSON object whose members `body` writes.
pub fn object(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut out = String::new();
    JsonWriter::new(&mut out).object(body);
    out
}

impl<'a> JsonWriter<'a> {
    /// A writer that appends one JSON value to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    /// Starts an object member named `key`; its value comes next.
    pub fn key(&mut self, key: &'static str) -> &mut Self {
        debug_assert!(
            !key.contains(|c: char| c < ' ' || c == '"' || c == '\\'),
            "JSON key `{key}` needs escaping"
        );
        self.separate();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.comma = false;
        self
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.separate();
        self.out.push('"');
        for ch in value.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if c < ' ' => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// Writes an unsigned integer.
    pub fn num(&mut self, value: impl Number) -> &mut Self {
        self.value(format_args!("{value}"))
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.value(format_args!("{value}"))
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value(format_args!("null"))
    }

    /// Writes an address as a `"0x%08x"` string (stable across JSON
    /// integer-width quirks in downstream tooling).
    pub fn hex(&mut self, addr: u32) -> &mut Self {
        self.value(format_args!("\"0x{addr:08x}\""))
    }

    /// Writes `value` with `some`, or `null` when there is none.
    pub fn opt<T>(
        &mut self,
        value: Option<T>,
        some: impl FnOnce(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        match value {
            Some(value) => some(self, value),
            None => self.null(),
        }
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', body, '}')
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', body, ']')
    }

    fn container(&mut self, open: char, body: impl FnOnce(&mut Self), close: char) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Writes one scalar token.
    fn value(&mut self, token: fmt::Arguments) -> &mut Self {
        self.separate();
        let _ = self.out.write_fmt(token);
        self
    }

    /// Puts the comma before a value that follows a sibling; the value
    /// then becomes the sibling of whatever comes next.
    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; integers up to 2^53 are exact).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key order normalised).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Unsigned-integer payload, if this is a non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", ch as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (input is a &str, so boundaries align).
                let rest = &bytes[*pos..];
                let text = unsafe { std::str::from_utf8_unchecked(rest) };
                let ch = text.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_writer_roundtrips_through_parser() {
        let doc = object(|w| {
            w.key("name").str("guard \"x\"\n\u{1}");
            w.key("count").num(42u64).key("ok").bool(true);
            w.key("pc")
                .hex(0x40_0010)
                .key("none")
                .opt(None::<u32>, JsonWriter::num);
            w.key("list").array(|w| {
                w.num(1u32).opt(Some(2u32), JsonWriter::num);
                w.object(|_| {}).array(|_| {});
            });
        });
        assert_eq!(
            doc,
            concat!(
                r#"{"name":"guard \"x\"\n\u0001","count":42,"ok":true,"#,
                r#""pc":"0x00400010","none":null,"list":[1,2,{},[]]}"#
            )
        );
        let value = parse(&doc).unwrap();
        assert_eq!(
            value.get("name").and_then(Value::as_str),
            Some("guard \"x\"\n\u{1}")
        );
        assert_eq!(value.get("count").and_then(Value::as_u64), Some(42));
        assert_eq!(value.get("pc").and_then(Value::as_str), Some("0x00400010"));
        assert_eq!(
            value.get("list").and_then(Value::as_array).map(<[_]>::len),
            Some(4)
        );
    }

    #[test]
    fn parser_handles_nesting_and_whitespace() {
        let value = parse(" { \"a\" : { \"b\" : [ 1 , -2.5 , null , false ] } } ").unwrap();
        let inner = value.get("a").and_then(|a| a.get("b")).unwrap();
        let items = inner.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1], Value::Number(-2.5));
        assert_eq!(items[2], Value::Null);
        assert_eq!(items[3], Value::Bool(false));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        let value = parse("\"a\\u0041\\u00e9\"").unwrap();
        assert_eq!(value.as_str(), Some("aAé"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Value::Object(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), Value::Array(Vec::new()));
    }
}
