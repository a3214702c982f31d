//! The JSON value tree, writer, and parser behind the serde shim —
//! the `serde_json` subset the tree uses.

use std::fmt;

/// Maximum nesting depth the parser accepts (arrays/objects), a guard
/// against stack exhaustion on adversarial artifact files.
const MAX_DEPTH: usize = 128;

/// A parsed or constructed JSON value.
///
/// Numbers keep their lexical class: integer tokens parse into
/// [`Value::UInt`]/[`Value::Int`] (so `u64::MAX` survives, which an
/// `f64`-only model would silently round), and tokens with a decimal
/// point or exponent parse into [`Value::Float`]. Objects preserve
/// insertion order, making serialization deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token.
    UInt(u64),
    /// A negative integer token (positive values normalize to
    /// [`Value::UInt`] on parse).
    Int(i64),
    /// A token with a fraction or exponent. Writing a non-finite
    /// float produces `null` (JSON has no NaN/infinity literal).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs, keys in the given
    /// order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on an object (`None` for missing keys or
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup that reports a missing key as a typed [`Error`].
    pub fn req(&self, key: &str) -> Result<&Value, Error> {
        self.get(key)
            .ok_or_else(|| Error::custom(format!("missing field `{key}`")))
    }

    /// The string slice of a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// One-word name of the value's JSON type (for error messages).
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization/deserialization failure: a malformed document, a
/// shape mismatch, or a missing field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// An error with a caller-supplied message (the shim analogue of
    /// `serde::de::Error::custom`).
    pub fn custom(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }

    /// A "wanted X, found Y" shape error.
    pub fn type_mismatch(wanted: &str, found: &Value) -> Self {
        Error::custom(format!("expected {wanted}, found {}", found.type_name()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Serializes a value tree to compact JSON (no whitespace) — the
/// canonical form content-address hashes are computed over.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, None, 0, &mut out);
    out
}

/// Serializes a value tree to human-readable JSON (two-space indent)
/// — the on-disk artifact form.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, Some(2), 0, &mut out);
    out
}

fn write_value(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // `{:?}` is Rust's shortest round-trip form and always
                // keeps a `.0` or exponent, so floats stay floats.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out);
            }
            if !items.is_empty() {
                write_newline_indent(indent, depth, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(indent, depth + 1, out);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(v, indent, depth + 1, out);
            }
            if !pairs.is_empty() {
                write_newline_indent(indent, depth, out);
            }
            out.push('}');
        }
    }
}

fn write_newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

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
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document into a value tree.
///
/// # Errors
///
/// Malformed syntax, trailing input, nesting beyond an internal depth
/// guard, and invalid escapes all report as [`Error`]s.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::custom(format!(
            "trailing input at byte {pos} of {}",
            bytes.len()
        )));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    if depth > MAX_DEPTH {
        return Err(Error::custom("nesting too deep"));
    }
    match bytes.get(*pos) {
        None => Err(Error::custom("unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::custom(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::custom(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(pairs));
                    }
                    _ => return Err(Error::custom(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(Error::custom(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::custom(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::custom("unterminated string")),
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
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect `\uXXXX` low half.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(Error::custom("lone high surrogate"));
                            }
                            let lo = parse_hex4(bytes, *pos + 3)?;
                            *pos += 6;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error::custom("invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::custom("invalid unicode escape"))?,
                        );
                    }
                    _ => return Err(Error::custom(format!("invalid escape at byte {pos}"))),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(Error::custom("unescaped control character in string"))
            }
            Some(_) => {
                // Copy one UTF-8 scalar (input is &str, so boundaries
                // are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid UTF-8 input"));
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, Error> {
    let slice = bytes
        .get(at..at + 4)
        .ok_or_else(|| Error::custom("truncated \\u escape"))?;
    let text = std::str::from_utf8(slice).map_err(|_| Error::custom("invalid \\u escape"))?;
    u32::from_str_radix(text, 16).map_err(|_| Error::custom("invalid \\u escape"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number token");
    if text.is_empty() || text == "-" {
        return Err(Error::custom(format!("expected value at byte {start}")));
    }
    if !is_float {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::UInt(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| Error::custom(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = from_str(r#"{"a": [1, -2, 3.5], "b": {"c": null, "d": true}, "e": "x\ny"}"#)
            .expect("valid document");
        assert_eq!(
            v.req("a").unwrap(),
            &Value::Array(vec![Value::UInt(1), Value::Int(-2), Value::Float(3.5)])
        );
        assert_eq!(v.req("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.req("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.req("e").unwrap().as_str(), Some("x\ny"));
        assert!(v.req("missing").is_err());
    }

    #[test]
    fn number_classes_survive() {
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(from_str("-5").unwrap(), Value::Int(-5));
        assert_eq!(from_str("2.5e3").unwrap(), Value::Float(2500.0));
        assert_eq!(from_str("1e2").unwrap(), Value::Float(100.0));
    }

    #[test]
    fn pretty_and_compact_agree() {
        let v = Value::object([
            ("x", Value::UInt(1)),
            ("y", Value::Array(vec![Value::Bool(false), Value::Null])),
        ]);
        let compact = to_string(&v);
        let pretty = to_string_pretty(&v);
        assert_eq!(compact, r#"{"x":1,"y":[false,null]}"#);
        assert!(pretty.contains('\n'));
        assert_eq!(from_str(&compact).unwrap(), v);
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ ctrl\u{01} tab\t unicode\u{1F600}é";
        let text = to_string(&Value::Str(s.to_string()));
        assert_eq!(from_str(&text).unwrap(), Value::Str(s.to_string()));
        // Escaped input forms parse too.
        assert_eq!(
            from_str(r#""\u0041\ud83d\ude00""#).unwrap(),
            Value::Str("A\u{1F600}".to_string())
        );
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\" 1}",
            "[1] trailing",
            "nan",
            "--1",
            "\"\\u12\"",
            "\"\\q\"",
            "{1: 2}",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_guard_rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(from_str(&ok).is_ok());
    }

    #[test]
    fn non_finite_floats_write_null() {
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = r#"{"z":1,"a":2}"#;
        assert_eq!(to_string(&from_str(text).unwrap()), text);
    }
}
