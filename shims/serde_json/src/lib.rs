//! Offline stand-in for `serde_json`.
//!
//! Works with the offline `serde` shim: [`to_string`]/[`to_string_pretty`]
//! render a [`serde::Content`] tree as JSON text, [`from_str`] parses JSON
//! text back into the tree and lets the target type reconstruct itself.
//!
//! Numbers are printed with Rust's shortest-round-trip float formatting, so
//! every finite `f64`/`f32` survives a round trip bit-exactly. Non-finite
//! floats serialize as `null`, matching real serde_json.

#![forbid(unsafe_code)]

pub use serde::Content as Value;
use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&mut out, &value.to_content(), None, 0);
    Ok(out)
}

/// Serialize to human-indented JSON (2 spaces, like real serde_json).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&mut out, &value.to_content(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into any [`Deserialize`] type (including [`Value`]).
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let content = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(T::from_content(&content)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_content(out: &mut String, c: &Content, indent: Option<usize>, depth: usize) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => {
            if v.is_finite() {
                // Rust's float Display is shortest-round-trip; ensure the
                // token stays a JSON number (Display never emits exponents,
                // but integral values need a ".0" marker to re-parse as F64
                // — dropping it is also fine since deserializers accept
                // integers where floats are expected).
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        Content::Str(s) => write_escaped(out, s),
        Content::Seq(items) => {
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
                write_content(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_content(out, v, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn consume_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.consume_literal("null") {
                    Ok(Content::Null)
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b't') => {
                if self.consume_literal("true") {
                    Ok(Content::Bool(true))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.consume_literal("false") {
                    Ok(Content::Bool(false))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_array(&mut self) -> Result<Content, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped UTF-8 runs wholesale.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("truncated escape"))?;
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
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.consume_literal("\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.error("invalid number"));
        }
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for json in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v: Value = from_str(json).unwrap();
            assert_eq!(to_string(&v).unwrap(), json);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &f in &[0.1f64, 1e-300, -2.5e17, f64::MAX, 1.0 / 3.0] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back, f, "json was {json}");
        }
        for &f in &[0.1f32, 3.4e38f32, -1.0e-40f32] {
            let json = to_string(&f).unwrap();
            let back: f32 = from_str(&json).unwrap();
            assert_eq!(back, f, "json was {json}");
        }
    }

    #[test]
    fn u64_and_i64_extremes_round_trip() {
        let json = to_string(&u64::MAX).unwrap();
        assert_eq!(from_str::<u64>(&json).unwrap(), u64::MAX);
        let json = to_string(&i64::MIN).unwrap();
        assert_eq!(from_str::<i64>(&json).unwrap(), i64::MIN);
    }

    #[test]
    fn nan_and_infinity_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t unicode \u{1F600} nul-ish \u{1}";
        let json = to_string(&s.to_string()).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_escapes_parse() {
        let v: String = from_str("\"\\u0041\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, "A\u{1F600}");
    }

    #[test]
    fn containers_round_trip() {
        let json = "{\"a\":[1,2.5,null],\"b\":{\"nested\":true}}";
        let v: Value = from_str(json).unwrap();
        assert_eq!(to_string(&v).unwrap(), json);
        assert_eq!(v["a"].as_array().unwrap().len(), 3);
        assert_eq!(v["b"]["nested"].as_bool(), Some(true));
    }

    #[test]
    fn pretty_output_is_reparseable() {
        let json = "{\"xs\":[1,2],\"name\":\"x\"}";
        let v: Value = from_str(json).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  "));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn malformed_input_rejected() {
        for bad in [
            "{not json",
            "",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn struct_variant_skips_skipped_fields_both_ways() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        enum E {
            V {
                shown: u8,
                #[serde(skip)]
                hidden: u8,
                #[serde(skip_serializing_if = "Option::is_none")]
                maybe: Option<u8>,
            },
        }
        let v = E::V {
            shown: 1,
            hidden: 7,
            maybe: None,
        };
        let json = to_string(&v).unwrap();
        assert_eq!(json, r#"{"V":{"shown":1}}"#);
        let back: E = from_str(&json).unwrap();
        assert_eq!(
            back,
            E::V {
                shown: 1,
                hidden: 0,
                maybe: None
            }
        );
        let some = E::V {
            shown: 1,
            hidden: 0,
            maybe: Some(2),
        };
        let json = to_string(&some).unwrap();
        assert_eq!(json, r#"{"V":{"shown":1,"maybe":2}}"#);
        assert_eq!(from_str::<E>(&json).unwrap(), some);
    }

    #[test]
    fn value_compares_with_str() {
        let v: Value = from_str("{\"dataset_name\":\"flights\"}").unwrap();
        assert_eq!(v["dataset_name"], "flights");
    }
}
