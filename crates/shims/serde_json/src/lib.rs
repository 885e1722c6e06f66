//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! `to_string`, `to_string_pretty`, and `from_str`, over the shim
//! serde's [`Content`] data model.

use serde::{Content, Deserialize, Serialize};

pub use serde::Content as Value;
pub use serde::Error;

/// Deepest nesting of values [`from_str`] accepts (a top-level scalar
/// is depth 1). The parser is recursive, so the bound keeps hostile
/// input from exhausting the stack; real `serde_json` defaults to the
/// same limit.
pub const MAX_DEPTH: usize = 128;

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Fails on non-finite floats (JSON has no representation for them).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_content(), &mut out, None, 0)?;
    Ok(out)
}

/// Serializes a value to human-readable, 2-space-indented JSON.
///
/// # Errors
///
/// Fails on non-finite floats.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_content(), &mut out, Some(2), 0)?;
    Ok(out)
}

/// Parses JSON text into a value.
///
/// # Errors
///
/// Fails on malformed JSON, values nested deeper than [`MAX_DEPTH`], or
/// a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    T::from_content(&v)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_value(
    v: &Content,
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match v {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::UInt(u) => out.push_str(&u.to_string()),
        Content::Int(i) => out.push_str(&i.to_string()),
        Content::Float(f) => {
            if !f.is_finite() {
                return Err(Error::custom("cannot serialize non-finite float"));
            }
            // Rust's shortest-roundtrip Display keeps equality across
            // a serialize/parse cycle.
            let s = f.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Content::Str(s) => write_str(s, out),
        Content::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Content::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_str(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..(w * depth) {
            out.push(' ');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Values open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
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
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// One value, at most [`MAX_DEPTH`] levels deep.
    fn value(&mut self) -> Result<Content, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "values nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = self.value_body();
        self.depth -= 1;
        v
    }

    fn value_body(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Content::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Content::Bool(false)),
            Some(b'"') => Ok(Content::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Content::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Array(items));
                        }
                        _ => return Err(Error::custom(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Content::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Object(entries));
                        }
                        _ => return Err(Error::custom(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::custom(format!(
                "unexpected input {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::custom("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::custom("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::custom("lone surrogate"));
                                }
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("bad unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the source.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| Error::custom("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::custom("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::custom("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::custom("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Content, Error> {
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
            .map_err(|_| Error::custom("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Content::Float)
                .map_err(|_| Error::custom(format!("bad number `{text}`")))
        } else if text.starts_with('-') {
            match text.parse::<i64>() {
                Ok(i) => Ok(Content::Int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Content::Float)
                    .map_err(|_| Error::custom(format!("bad number `{text}`"))),
            }
        } else {
            match text.parse::<u64>() {
                Ok(u) => Ok(Content::UInt(u)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Content::Float)
                    .map_err(|_| Error::custom(format!("bad number `{text}`"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn float_display_round_trips() {
        for v in [0.1, 1e-9, 123456.789, -0.000123, 2.0f64.powi(60), 0.9837] {
            let s = to_string(&v).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), v, "{s}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<f64>> = vec![Some(1.0), None, Some(2.5)];
        let s = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<Option<f64>>>(&s).unwrap(), v);

        let m: std::collections::BTreeMap<usize, Vec<bool>> =
            [(3, vec![true, false]), (9, vec![])].into_iter().collect();
        let s = to_string(&m).unwrap();
        assert_eq!(
            from_str::<std::collections::BTreeMap<usize, Vec<bool>>>(&s).unwrap(),
            m
        );
    }

    #[test]
    fn hostile_nesting_is_an_error() {
        let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let err = from_str::<Value>(&deep).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        let objects = format!("{}1{}", "{\"k\":".repeat(200_000), "}".repeat(200_000));
        assert!(from_str::<Value>(&objects).is_err());
        // The limit itself still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(from_str::<Value>(&over).is_err());
    }

    #[test]
    fn pretty_output_is_indented_and_parses_back() {
        let v: Vec<Vec<u32>> = vec![vec![1, 2], vec![]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\n  "));
        assert_eq!(from_str::<Vec<Vec<u32>>>(&s).unwrap(), v);
    }
}
