//! Minimal JSON emission and parsing.
//!
//! The workspace builds offline with no external crates, so the metrics
//! and trace files are produced by a small hand-rolled writer and checked
//! (in CI and tests) by an equally small recursive-descent parser. Only
//! the subset of JSON the emitters produce is exercised, but the parser
//! accepts any well-formed document.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document (adds no quotes).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
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
    out
}

/// Incremental writer for one flat JSON object.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, name: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        let _ = write!(self.buf, "\"{}\":", escape(name));
    }

    /// Adds a string field.
    pub fn str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn num(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds an address rendered as a `0x%08x` string (stable across JSON
    /// integer-width quirks in downstream tooling).
    pub fn hex(&mut self, name: &str, value: u32) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "\"0x{value:08x}\"");
        self
    }

    /// Adds a pre-rendered JSON value verbatim.
    pub fn raw(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(value);
        self
    }

    /// Closes the object and returns the document.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
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
        let mut obj = JsonObject::new();
        obj.str("name", "guard \"x\"\n")
            .num("count", 42)
            .bool("ok", true)
            .hex("pc", 0x400010)
            .raw("list", "[1,2,3]");
        let doc = obj.finish();
        let value = parse(&doc).unwrap();
        assert_eq!(
            value.get("name").and_then(Value::as_str),
            Some("guard \"x\"\n")
        );
        assert_eq!(value.get("count").and_then(Value::as_u64), Some(42));
        assert_eq!(value.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(value.get("pc").and_then(Value::as_str), Some("0x00400010"));
        assert_eq!(
            value.get("list").and_then(Value::as_array).map(<[_]>::len),
            Some(3)
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
