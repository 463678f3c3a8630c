//! A small self-contained JSON value tree, parser, and pretty-printer.
//!
//! The rule-table asset format (`remy::whisker::WhiskerTree::to_json`)
//! originally rode on `serde_json`; the build environment for this
//! reproduction has no registry access, so the handful of JSON features
//! the format needs live here instead. Numbers are formatted with Rust's
//! shortest-round-trip `Display`, so `f64` values survive a round trip
//! bit-for-bit.
//!
//! The module also serves the declarative experiment layer: experiment
//! specifications (`remy_sim::spec::ExperimentSpec`, the one serialized
//! description of a simulated world) go through the same value tree,
//! using the [`u64_value`]/[`ns_value`] helpers for fields — seeds,
//! nanosecond clocks — whose full integer range a JSON `f64` cannot carry,
//! and [`Value::only_keys`] so a misspelled key is an error, not a
//! default.

use crate::time::Ns;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; the format never needs full u64 range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is preserved (deterministic output).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field, with a path-flavored error.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// Reject object keys outside `known`, naming the key and the object
    /// it sits in (`unknown key 'sweep' in experiment spec`): a misspelled
    /// optional key must fail the parse, not be silently ignored. Every
    /// `from_json_value` calls this first with the keys it reads.
    pub fn only_keys(&self, what: &str, known: &[&str]) -> Result<(), String> {
        let Value::Obj(fields) = self else {
            return Ok(()); // the field reads that follow report the type
        };
        match fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown key '{k}' in {what}")),
            None => Ok(()),
        }
    }

    /// This value as f64.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(format!("expected number, found {}", other.kind())),
        }
    }

    /// This value as u64. Accepts an integer-valued number small enough
    /// (≤ 2^53) for an `f64` to represent it exactly, or a decimal string
    /// (how [`u64_value`] encodes the values that are not).
    pub fn as_u64(&self) -> Result<u64, String> {
        if let Value::Str(s) = self {
            return s
                .parse::<u64>()
                .map_err(|_| format!("expected unsigned integer, found '{s}'"));
        }
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > MAX_EXACT_F64_INT {
            return Err(format!("expected exact unsigned integer, found {n}"));
        }
        Ok(n as u64)
    }

    /// This value as bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, found {}", other.kind())),
        }
    }

    /// This value as usize.
    pub fn as_usize(&self) -> Result<usize, String> {
        Ok(self.as_u64()? as usize)
    }

    /// This value as &str.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected string, found {}", other.kind())),
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(v) => Ok(v),
            other => Err(format!("expected array, found {}", other.kind())),
        }
    }

    /// Shorthand object constructor, preserving field order.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Shorthand number constructor.
    pub fn num(n: f64) -> Value {
        Value::Num(n)
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// Render with two-space indentation (the shipped-asset format).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Rust's Display prints the shortest decimal that round-trips.
        let _ = write!(out, "{n}");
    } else {
        // JSON has no Inf/NaN; the format never produces them, but never
        // emit invalid JSON either.
        out.push_str("null");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Largest integer an `f64` represents exactly (2^53). Above this, JSON
/// numbers silently lose low bits, so [`u64_value`] switches to strings.
const MAX_EXACT_F64_INT: f64 = 9_007_199_254_740_992.0;

/// Encode a `u64` losslessly: a JSON number when an `f64` holds it
/// exactly, a decimal string otherwise (full-range seeds). [`Value::as_u64`]
/// decodes both forms.
pub fn u64_value(x: u64) -> Value {
    if (x as f64) <= MAX_EXACT_F64_INT && x as f64 as u64 == x {
        Value::Num(x as f64)
    } else {
        Value::Str(x.to_string())
    }
}

/// Encode a nanosecond clock losslessly. [`Ns::MAX`] — the simulator's
/// "infinitely far" sentinel — becomes `null`.
pub fn ns_value(t: Ns) -> Value {
    if t == Ns::MAX {
        Value::Null
    } else {
        u64_value(t.0)
    }
}

/// Decode a nanosecond clock written by [`ns_value`].
pub fn ns_from(v: &Value) -> Result<Ns, String> {
    match v {
        Value::Null => Ok(Ns::MAX),
        other => Ok(Ns(other.as_u64()?)),
    }
}

/// Maximum container nesting the parser accepts (matches serde_json's
/// default recursion limit; the parser is recursive-descent, so this keeps
/// corrupt or crafted input from overflowing the stack).
const MAX_DEPTH: usize = 128;

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
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
                            let end = self.pos + 4;
                            if end > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..end])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this format;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8 character: decode just its bytes
                    // (input is &str, so validity is already guaranteed).
                    let start = self.pos - 1;
                    let end = (start + 4).min(self.bytes.len());
                    let s = char_at(&self.bytes[start..end])?;
                    out.push(s);
                    self.pos = start + s.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(format!("expected value at byte {start}"));
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("non-ascii number at byte {start}"))?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.enter()?;
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.enter()?;
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Decode the first UTF-8 character from `bytes` (guaranteed valid by the
/// `&str` input; the slice is bounded to at most 4 bytes).
fn char_at(bytes: &[u8]) -> Result<char, String> {
    let s = match std::str::from_utf8(bytes) {
        Ok(s) => s,
        // The 4-byte window may cut the *next* character; validity holds up
        // to the error offset, which covers the first character.
        Err(e) if e.valid_up_to() > 0 => match std::str::from_utf8(&bytes[..e.valid_up_to()]) {
            Ok(s) => s,
            Err(_) => return Err("invalid UTF-8 in string".to_string()),
        },
        Err(_) => return Err("invalid UTF-8 in string".to_string()),
    };
    s.chars()
        .next()
        .ok_or_else(|| "empty string slice".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-1.5", "16385", "1e-9"] {
            let v = parse(text).expect("parse");
            let back = parse(&v.pretty()).expect("reparse");
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn f64_display_round_trips_exactly() {
        for x in [0.1, 1.0 / 3.0, 16385.0, 1e-300, f64::MAX, 5e-324] {
            let mut s = String::new();
            write_number(&mut s, x);
            let v = parse(&s).expect("parse");
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a": [1, 2, {"b": "x\n\"y\""}], "c": {}}"#;
        let v = parse(text).expect("parse");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        let back = parse(&v.pretty()).expect("reparse");
        assert_eq!(v, back);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let bomb = "[".repeat(100_000);
        let err = parse(&bomb).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // At the limit itself, parsing still works.
        let ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(parse(&ok).is_ok());
        let over = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn depth_is_per_branch_not_cumulative() {
        // Many sibling containers must not trip the depth limit.
        let many = format!("[{}]", vec!["[]"; 1000].join(","));
        assert!(parse(&many).is_ok());
    }

    #[test]
    fn multibyte_strings_round_trip() {
        let v = parse("\"δ=0.1 → π≈3.14159 ✓\"").expect("parse");
        assert_eq!(v.as_str().unwrap(), "δ=0.1 → π≈3.14159 ✓");
        let back = parse(&v.pretty()).expect("reparse");
        assert_eq!(v, back);
    }

    #[test]
    fn u64_round_trips_full_range() {
        for x in [0u64, 1, 16_384, 1u64 << 53, (1u64 << 53) + 1, u64::MAX] {
            let v = u64_value(x);
            let back = parse(&v.pretty()).expect("parse");
            assert_eq!(back.as_u64().unwrap(), x, "{x}");
        }
        // Values beyond 2^53 must not silently ride a lossy f64.
        assert!(matches!(u64_value(u64::MAX), Value::Str(_)));
        assert!(Value::Num(9.1e15).as_u64().is_err());
    }

    #[test]
    fn ns_round_trips_including_max_sentinel() {
        for t in [Ns::ZERO, Ns::from_millis(150), Ns::from_secs(100), Ns::MAX] {
            let v = ns_value(t);
            assert_eq!(ns_from(&parse(&v.pretty()).unwrap()).unwrap(), t);
        }
        assert_eq!(ns_value(Ns::MAX), Value::Null);
    }

    #[test]
    fn bool_and_builders() {
        let v = Value::obj(vec![
            ("on", Value::Bool(true)),
            ("name", Value::str("x")),
            ("n", Value::num(3.0)),
        ]);
        assert!(v.field("on").unwrap().as_bool().unwrap());
        assert!(v.field("name").unwrap().as_bool().is_err());
        assert_eq!(v.field("name").unwrap().as_str().unwrap(), "x");
        assert_eq!(v.field("n").unwrap().as_f64().unwrap(), 3.0);
    }

    #[test]
    fn field_access_helpers() {
        let v = parse(r#"{"n": 3, "s": "hi"}"#).unwrap();
        assert_eq!(v.field("n").unwrap().as_usize().unwrap(), 3);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "hi");
        assert!(v.field("missing").is_err());
        assert!(v.field("s").unwrap().as_u64().is_err());
        assert!(parse("1.5").unwrap().as_u64().is_err());
    }

    #[test]
    fn only_keys_names_the_stray_key_and_its_object() {
        let v = parse(r#"{"n": 3, "sweep": []}"#).unwrap();
        assert!(v.only_keys("thing", &["n", "sweep"]).is_ok());
        assert_eq!(
            v.only_keys("thing", &["n", "sweeps"]).unwrap_err(),
            "unknown key 'sweep' in thing"
        );
        // Non-objects pass: the field reads that follow name the type.
        assert!(parse("[1]").unwrap().only_keys("thing", &[]).is_ok());
    }
}
