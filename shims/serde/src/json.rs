//! JSON codec over the [`Value`] tree: compact and pretty writers plus a
//! recursive-descent parser. This is the `serde_json` stand-in the
//! telemetry snapshots and bench trajectory files are written with.
//!
//! The parser is total: any input yields a [`Value`] or an [`Error`],
//! never a panic, and nesting past [`MAX_DEPTH`] is an error rather than
//! a stack overflow. Every value it returns writes back to text that
//! parses to the same value.

use crate::{Deserialize, Error, Number, Serialize, Value};

/// Serializes to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    out
}

/// Serializes to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    out
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded `[[[[…` would overflow the stack; the
/// documents this workspace writes nest a handful of levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

/// Parses JSON text directly into a deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    T::from_value(&parse(text)?)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_break(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                write_break(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_break(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !fields.is_empty() {
                write_break(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn write_break(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::U64(u) => out.push_str(&u.to_string()),
        Number::I64(i) => out.push_str(&i.to_string()),
        Number::F64(f) if f.is_finite() => {
            // Round-trippable shortest representation; integral floats keep
            // a `.0` (or, from 1e15 up, an exponent) so they re-parse as
            // floats rather than as integers, or as integers too large
            // for `u64`.
            if f.fract() != 0.0 {
                out.push_str(&format!("{f}"));
            } else if f.abs() < 1e15 {
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&format!("{f:e}"));
            }
        }
        // JSON has no Inf/NaN; null is the conventional fallback.
        Number::F64(_) => out.push_str("null"),
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!("expected '{}' at byte {}", b as char, self.pos)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::custom(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::custom(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!("expected ',' or ']' at byte {}", self.pos)))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::custom(format!("expected ',' or '}}' at byte {}", self.pos)))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
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
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::custom("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or escape
                    // in one go and validate just that slice — validating
                    // from `pos` to the end of input per character would
                    // make parsing quadratic. Scanning bytes is safe: the
                    // delimiters are ASCII and UTF-8 continuation bytes
                    // are always >= 0x80.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::custom("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        let bad = || Error::custom(format!("bad number `{text}`"));
        let n = if is_float {
            // JSON has no infinities: `1e999` is out of range, not `inf`.
            let f: f64 = text.parse().map_err(|_| bad())?;
            Number::F64(f.is_finite().then_some(f).ok_or_else(bad)?)
        } else if text.starts_with('-') {
            // `I64` holds negatives only; `-0` is the unsigned zero.
            let i: i64 = text.parse().map_err(|_| bad())?;
            u64::try_from(i).map_or(Number::I64(i), Number::U64)
        } else {
            Number::U64(text.parse().map_err(|_| bad())?)
        };
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let v = Value::Object(vec![
            ("name".into(), Value::String("a \"quoted\"\nname".into())),
            (
                "counts".into(),
                Value::Array(vec![
                    Value::Number(Number::U64(3)),
                    Value::Number(Number::I64(-4)),
                    Value::Number(Number::F64(0.5)),
                ]),
            ),
            ("flag".into(), Value::Bool(true)),
            ("missing".into(), Value::Null),
            ("empty".into(), Value::Array(vec![])),
        ]);
        let compact = to_string(&v);
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = to_string_pretty(&v);
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = Value::Number(Number::F64(2.0));
        let text = to_string(&v);
        assert_eq!(text, "2.0");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn typed_from_str() {
        let xs: Vec<u64> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(xs, vec![1, 2, 3]);
        assert!(from_str::<Vec<u64>>("[1, 2").is_err());
        assert!(from_str::<Vec<u64>>("[1] junk").is_err());
    }
}
