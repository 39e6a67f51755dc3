//! The workspace's one JSON codec (std-only; the build environment is
//! offline, so no `serde_json`).
//!
//! [`parse`] reads a complete document into a [`Value`] tree and
//! [`quote`] renders a string literal. Trace lines and headers, fault
//! plans, the serving protocol and the tracetool schema validator all
//! read JSON through this one parser, so they agree on whitespace,
//! escapes, trailing bytes and nesting. Numbers are read with
//! `f64::from_str`, so the `±1e9999` that
//! [`fmt_float`](crate::trace::fmt_float) writes for the infinities
//! reads back as `±inf`.
//!
//! ```
//! use fupermod_core::json::{self, Value};
//! let v = json::parse(r#"{"k": [1, "a\"b", null]}"#).unwrap();
//! let items = v.get("k").and_then(Value::as_array).unwrap();
//! assert_eq!(items[1].as_str(), Some("a\"b"));
//! assert_eq!(json::quote("a\"b"), r#""a\"b""#);
//! ```

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so the cap keeps hostile input such as
/// `[[[[…` from overflowing the stack; no document the workspace
/// writes nests more than a few levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// JSON type name, as used in schema and validation messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// A syntax error in a JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pos: usize,
    msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document. Whitespace around it is
/// allowed; any other trailing byte is an error.
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first syntax error,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(v)
}

/// Renders `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than the depth cap"));
                }
                self.depth += 1;
                self.pos += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'0'..=b'9' | b'-') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// An object after its `{`.
    fn object(&mut self) -> Result<Value, ParseError> {
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// An array after its `[`.
    fn array(&mut self) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Runs stop only at ASCII bytes, so both ends of the slice
            // are char boundaries.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// One escape sequence after its backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => self.unicode_escape()?,
            _ => return Err(self.err("unknown escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The character of a `\uXXXX` escape, or of a `\uXXXX\uXXXX`
    /// surrogate pair; leaves `pos` on its last hex digit. A lone
    /// surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let mut code = self.hex4(self.pos + 1)?;
        self.pos += 4;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos + 1..].starts_with("\\u") {
            let low = self.hex4(self.pos + 3)?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                self.pos += 6;
            }
        }
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate \\u escape"))
    }

    /// The four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, ParseError> {
        let hex = self
            .text
            .get(at..at + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
    }

    #[test]
    fn json_parser_handles_nesting_and_literals() {
        let v = parse(r#"{"a": [true, false, null, "x", {"b": 1e-3}]}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj[0].1.as_array().unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[0], Value::Bool(true));
        assert_eq!(arr[2], Value::Null);
        let inner = arr[4].as_object().unwrap();
        assert!((inner[0].1.as_f64().unwrap() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":1} extra",
            "{\"a\":1}}",
            "\"unterminated",
            "{\"a\" 1}",
            "{a:1}",
            "nul",
            "\"raw\ttab\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\ud83d\\n\"",
            "+1",
            "1-2",
        ] {
            assert!(parse(text).is_err(), "accepted: {text:?}");
        }
    }

    #[test]
    fn numbers_read_back_like_fmt_float_writes_them() {
        assert_eq!(parse("1e9999").unwrap(), Value::Num(f64::INFINITY));
        assert_eq!(parse("-1e9999").unwrap(), Value::Num(f64::NEG_INFINITY));
        let x: f64 = 0.1 + 0.2;
        assert_eq!(
            parse(&x.to_string()).unwrap().as_f64().map(f64::to_bits),
            Some(x.to_bits())
        );
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{0001}f\r/é€𝄞";
        let v = parse(&format!("{{\"k\":{}}}", quote(nasty))).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
        assert_eq!(
            parse(r#""\/\b\f\u00e9""#).unwrap().as_str(),
            Some("/\u{8}\u{c}é")
        );
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""\uD834\uDD1Ex""#).unwrap().as_str(), Some("𝄞x"));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("depth cap"), "{err}");
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
