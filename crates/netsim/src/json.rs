//! A small self-contained JSON value tree, parser, and pretty-printer,
//! plus the one codec layer both wire formats of this reproduction use.
//!
//! The rule-table asset format (`remy::whisker::WhiskerTree::to_json`)
//! originally rode on `serde_json`; the build environment for this
//! reproduction has no registry access, so the handful of JSON features
//! the format needs live here instead. Numbers are formatted with Rust's
//! shortest-round-trip `Display`, so `f64` values survive a round trip
//! bit-for-bit.
//!
//! Typed values cross the tree through [`Wire`]: a struct declares its
//! keys once with [`record!`](crate::record!), a `kind`-tagged enum with
//! [`tagged!`](crate::tagged!), and the declaration generates the
//! writer, the key list and a strict reader (an undeclared key is an
//! error, not a default) whose [`WireError`] names the key's path from
//! the document root (`workload.senders.traffic.on`). Seeds and nanosecond clocks keep
//! their full integer range ([`u64_value`], [`ns_value`]).

use crate::time::Ns;
use std::fmt::{self, Write as _};

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

/// Why a value failed to decode, and where: `path` runs from the document
/// root through object keys and `[index]` steps (`workload.senders[2].rtt_ns`;
/// empty at the root).
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Where the offending value sits.
    pub path: String,
    /// What is wrong with it.
    pub reason: String,
}

impl WireError {
    /// An error at the value being read; each enclosing reader prefixes its
    /// step as the error travels outward, so a successful read builds no path.
    pub fn new(reason: impl Into<String>) -> WireError {
        WireError {
            path: String::new(),
            reason: reason.into(),
        }
    }

    /// This error seen from the enclosing object (`step` is the key) or
    /// array (`step` is `[index]`).
    pub fn within(mut self, step: &str) -> WireError {
        let dot = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{step}{dot}{}", self.path);
        self
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.path.as_str() {
            "" => f.write_str(&self.reason),
            path => write!(f, "{path}: {}", self.reason),
        }
    }
}

impl From<String> for WireError {
    fn from(reason: String) -> WireError {
        WireError::new(reason)
    }
}

/// A type with a JSON form. Structs get theirs from
/// [`record!`](crate::record!) and `kind`-tagged enums from
/// [`tagged!`](crate::tagged!); the leaves are implemented here.
pub trait Wire: Sized {
    /// Serialize to a JSON value.
    fn to_json_value(&self) -> Value;
    /// Deserialize a value written by [`Wire::to_json_value`].
    fn from_json_value(v: &Value) -> Result<Self, WireError>;
    /// True when an `#[omit]` field holding this value is left out.
    fn omitted(&self) -> bool {
        false
    }
}

macro_rules! leaf_wire {
    ($($t:ty: $write:expr, $read:expr;)*) => {$(
        impl Wire for $t {
            fn to_json_value(&self) -> Value { ($write)(self) }
            fn from_json_value(v: &Value) -> Result<$t, WireError> { Ok(($read)(v)?) }
        }
    )*};
}

leaf_wire! {
    u64: |x: &u64| u64_value(*x), Value::as_u64;
    usize: |x: &usize| u64_value(*x as u64), Value::as_usize;
    f64: |x: &f64| Value::Num(*x), Value::as_f64;
    bool: |x: &bool| Value::Bool(*x), Value::as_bool;
    String: |x: &String| Value::Str(x.clone()), |v: &Value| v.as_str().map(str::to_string);
    // `null` is `Ns::MAX`, the simulator's "infinitely far" sentinel.
    Ns: |x: &Ns| ns_value(*x), |v: &Value| match v {
        Value::Null => Ok(Ns::MAX),
        other => other.as_u64().map(Ns),
    };
}

/// `None` is `null`.
impl<T: Wire> Wire for Option<T> {
    fn to_json_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json_value)
    }
    fn from_json_value(v: &Value) -> Result<Option<T>, WireError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
    fn omitted(&self) -> bool {
        self.is_none()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json_value).collect())
    }
    fn from_json_value(v: &Value) -> Result<Vec<T>, WireError> {
        let item = |(i, x)| T::from_json_value(x).map_err(|e| e.within(&format!("[{i}]")));
        v.as_arr()?.iter().enumerate().map(item).collect()
    }
    fn omitted(&self) -> bool {
        self.is_empty()
    }
}

/// A pair is a two-item array.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn to_json_value(&self) -> Value {
        Value::Arr(vec![self.0.to_json_value(), self.1.to_json_value()])
    }
    fn from_json_value(v: &Value) -> Result<(A, B), WireError> {
        let [a, b] = v.as_arr()? else {
            return Err(WireError::new("expected a two-item array"));
        };
        let a = A::from_json_value(a).map_err(|e| e.within("[0]"))?;
        Ok((a, B::from_json_value(b).map_err(|e| e.within("[1]"))?))
    }
}

/// How a declared field is read and written: [`Plain`] is the type's own
/// [`Wire`] form; a field names another codec (`key as Codec`) when its key
/// carries a check or a second shape.
pub trait Codec<T: Wire> {
    /// Deserialize the field (errors are relative to its key).
    fn read(v: &Value) -> Result<T, WireError>;
    /// Serialize the field.
    fn write(x: &T) -> Value {
        x.to_json_value()
    }
}

/// The default [`Codec`]: the field type's [`Wire`] form.
pub struct Plain;

impl<T: Wire> Codec<T> for Plain {
    fn read(v: &Value) -> Result<T, WireError> {
        T::from_json_value(v)
    }
}

/// The key that names a [`tagged!`](crate::tagged!) enum's variant.
pub const TAG: &str = "kind";

fn object(v: &Value) -> Result<&[(String, Value)], WireError> {
    match v {
        Value::Obj(fields) => Ok(fields),
        other => Err(WireError::new(format!(
            "expected object, found {}",
            other.kind()
        ))),
    }
}

/// A strict view of one JSON object: each key in it is one the type
/// declares, so a misspelled optional key fails the read instead of
/// falling back to its default.
pub struct Reader<'a>(&'a [(String, Value)]);

impl<'a> Reader<'a> {
    /// Open `v` as an object holding only `keys`.
    pub fn new(v: &'a Value, keys: &[&str]) -> Result<Reader<'a>, WireError> {
        Reader::open(v, keys, None)
    }

    /// Open `v` as an object holding only [`TAG`] and `keys`.
    pub fn tagged(v: &'a Value, keys: &[&str]) -> Result<Reader<'a>, WireError> {
        Reader::open(v, keys, Some(TAG))
    }

    fn open(v: &'a Value, keys: &[&str], tag: Option<&str>) -> Result<Reader<'a>, WireError> {
        let fields = object(v)?;
        let known = |k: &str| keys.contains(&k) || tag == Some(k);
        for (i, (k, _)) in fields.iter().enumerate() {
            if !known(k) {
                let reason = format!("unknown key (known: {})", keys.join(", "));
                return Err(WireError::new(reason).within(k));
            }
            // A second value under a key would otherwise be ignored.
            if fields[..i].iter().any(|(seen, _)| seen == k) {
                return Err(WireError::new("duplicate key").within(k));
            }
        }
        Ok(Reader(fields))
    }

    /// The [`TAG`] of the object `v`: which variant, so which keys, it holds.
    pub fn kind(v: &'a Value) -> Result<&'a str, WireError> {
        let tag = Reader(object(v)?).field(TAG)?;
        tag.as_str().map_err(|e| WireError::new(e).within(TAG))
    }

    /// The raw value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&'a Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The raw value under the required `key`, for a type that reads it
    /// by hand; a missing key is an error at `key`.
    pub fn field(&self, key: &str) -> Result<&'a Value, WireError> {
        self.get(key)
            .ok_or_else(|| WireError::new("missing key").within(key))
    }

    /// Read the required `key` with codec `C`.
    pub fn req<T: Wire, C: Codec<T>>(&self, key: &str) -> Result<T, WireError> {
        C::read(self.field(key)?).map_err(|e| e.within(key))
    }

    /// Read `key` with codec `C`, or `T::default()` when it is absent.
    pub fn opt<T: Wire + Default, C: Codec<T>>(&self, key: &str) -> Result<T, WireError> {
        self.get(key)
            .map_or(Ok(T::default()), |v| C::read(v).map_err(|e| e.within(key)))
    }
}

/// The error for a [`TAG`] naming no variant of its type.
pub fn unknown_kind(kind: &str, known: &[&str]) -> WireError {
    let reason = format!("unknown kind '{kind}' (known: {})", known.join(", "));
    WireError::new(reason).within(TAG)
}

/// A struct written as one JSON object, declared with [`record!`](crate::record!).
pub trait Record: Sized {
    /// Every key the object may hold, in written order.
    const KEYS: &'static [&'static str];
    /// Append the fields to `out`, in [`Record::KEYS`] order.
    fn write_fields(&self, out: &mut Vec<(String, Value)>);
    /// Read the fields through a [`Reader`] opened over [`Record::KEYS`].
    fn read_fields(r: &Reader) -> Result<Self, WireError>;

    /// The record as one JSON object.
    fn record_value(&self) -> Value {
        let mut out = Vec::with_capacity(Self::KEYS.len());
        self.write_fields(&mut out);
        Value::Obj(out)
    }

    /// Read an object written by [`Record::record_value`].
    fn from_record(v: &Value) -> Result<Self, WireError> {
        Self::read_fields(&Reader::new(v, Self::KEYS)?)
    }
}

/// Declare a struct's JSON object once: each field as `field: "key"`
/// (optionally `as SomeCodec`), in written order — e.g.
/// `record! { Hop { delay: "delay_ns", #[omit] name: "name" } }`.
/// `#[default]` reads an absent key as the type's default; `#[omit]` also
/// leaves the key out when the value is [`Wire::omitted`]. After the
/// fields, `skip { .. }` names fields that are not on the wire (built by
/// `Default`), and `check f` runs `f(&mut record)` after a read, its error
/// at the object's path. This implements [`Record`] and — unless the
/// declaration starts with `fields`, for a type that writes its [`Wire`]
/// form by hand around the object — [`Wire`].
#[macro_export]
macro_rules! record {
    (fields $ty:ident {
        $($(#[$mode:ident])? $field:ident: $key:literal $(as $codec:ty)?),* $(,)?
    } $(skip { $($skip:ident),* })? $(check $check:path)?) => {
        impl $crate::json::Record for $ty {
            const KEYS: &'static [&'static str] = &[$($key),*];
            fn write_fields(&self, out: &mut Vec<(String, $crate::json::Value)>) {
                $($crate::__wire_field!(write out, $key, &self.$field, [$($mode)?] [$($codec)?]);)*
            }
            fn read_fields(r: &$crate::json::Reader) -> Result<Self, $crate::json::WireError> {
                #[allow(unused_mut)]
                let mut record = $ty {
                    $($field: $crate::__wire_field!(read r, $key, [$($mode)?] [$($codec)?]),)*
                    $($($skip: Default::default(),)*)?
                };
                $($check(&mut record)?;)?
                Ok(record)
            }
        }
    };
    ($ty:ident { $($body:tt)* } $($rest:tt)*) => {
        $crate::record!(fields $ty { $($body)* } $($rest)*);
        impl $crate::json::Wire for $ty {
            fn to_json_value(&self) -> $crate::json::Value {
                $crate::json::Record::record_value(self)
            }
            fn from_json_value(v: &$crate::json::Value) -> Result<Self, $crate::json::WireError> {
                $crate::json::Record::from_record(v)
            }
        }
    };
}

/// Declare a `kind`-tagged enum's JSON form once: each variant as
/// `"tag" => Variant { field: "key", .. }`, fields as in
/// [`record!`](crate::record!). The object holds [`TAG`] first, then the
/// fields of the variant it names (and only those); the enum also gets a
/// `kind()` naming its tag.
#[macro_export]
macro_rules! tagged {
    ($ty:ident { $($tag:literal => $variant:ident {
        $($(#[$mode:ident])? $field:ident: $key:literal $(as $codec:ty)?),* $(,)?
    }),* $(,)? }) => {
        impl $ty {
            /// The tag this variant is written with.
            pub fn kind(&self) -> &'static str {
                match self {$($ty::$variant { .. } => $tag,)*}
            }
        }
        impl $crate::json::Wire for $ty {
            fn to_json_value(&self) -> $crate::json::Value {
                let tag = $crate::json::Value::str(self.kind());
                let mut out = vec![($crate::json::TAG.to_string(), tag)];
                match self {$($ty::$variant { $($field),* } => {
                    $($crate::__wire_field!(write out, $key, $field, [$($mode)?] [$($codec)?]);)*
                })*}
                $crate::json::Value::Obj(out)
            }
            fn from_json_value(v: &$crate::json::Value) -> Result<Self, $crate::json::WireError> {
                match $crate::json::Reader::kind(v)? {
                    $($tag => {
                        let r = $crate::json::Reader::tagged(v, &[$($key),*])?;
                        Ok($ty::$variant {
                            $($field:
                                $crate::__wire_field!(read r, $key, [$($mode)?] [$($codec)?]),)*
                        })
                    })*
                    other => Err($crate::json::unknown_kind(other, &[$($tag),*])),
                }
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_field {
    (write $out:ident, $key:literal, $x:expr, [omit] [$($codec:ty)?]) => {
        if !$crate::json::Wire::omitted($x) {
            $crate::__wire_field!(write $out, $key, $x, [] [$($codec)?]);
        }
    };
    (write $out:ident, $key:literal, $x:expr, [$(default)?] [$($codec:ty)?]) => {{
        let value = <$crate::__wire_codec!($($codec)?) as $crate::json::Codec<_>>::write($x);
        $out.push(($key.to_string(), value));
    }};
    (read $r:ident, $key:literal, [] [$($codec:ty)?]) => {
        $r.req::<_, $crate::__wire_codec!($($codec)?)>($key)?
    };
    (read $r:ident, $key:literal, [$(default)? $(omit)?] [$($codec:ty)?]) => {
        $r.opt::<_, $crate::__wire_codec!($($codec)?)>($key)?
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_codec {
    () => {
        $crate::json::Plain
    };
    ($codec:ty) => {
        $codec
    };
}

/// Maximum container nesting the parser accepts (matches serde_json's
/// default recursion limit; the parser is recursive-descent, so this keeps
/// corrupt or crafted input from overflowing the stack).
const MAX_DEPTH: usize = 128;

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
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
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        self.pos += self.run_len(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    /// Length of the run of bytes from `pos` on that satisfy `keep`.
    fn run_len(&self, keep: impl Fn(u8) -> bool) -> usize {
        let rest = &self.bytes[self.pos..];
        rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len())
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
            Some(b'[') => self.seq(b'[', b']', Self::value).map(Value::Arr),
            Some(b'{') => self.seq(b'{', b'}', Self::field).map(Value::Obj),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let open = self.pos;
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Take the run up to the next quote, escape or control byte
            // whole: each end sits next to an ASCII byte, so both are
            // character boundaries.
            let start = self.pos;
            self.pos += self.run_len(|b| b != b'"' && b != b'\\' && b >= 0x20);
            let run = &self.text[start..self.pos];
            let Some(b) = self.peek() else {
                return Err(format!("unterminated string opened at byte {open}"));
            };
            if b < 0x20 {
                return Err(format!(
                    "unescaped control character {b:#04x} in string at byte {}",
                    self.pos
                ));
            }
            self.pos += 1;
            if b == b'"' {
                // An escape always writes to `out`, so an empty `out` means
                // the string had none: copy it in one allocation.
                if out.is_empty() {
                    return Ok(run.to_owned());
                }
                out.push_str(run);
                return Ok(out);
            }
            out.push_str(run);
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
                    let hex = self.text.get(self.pos..self.pos + 4);
                    let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                    let code = code.ok_or("bad \\u escape")?;
                    self.pos += 4;
                    // Surrogate pairs are not needed by this format; map
                    // lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    /// Consume a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let n = self.run_len(|b| b.is_ascii_digit());
        self.pos += n;
        n
    }

    /// A number in JSON's grammar: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?`. A leading `+` or `.`, a leading zero before
    /// more digits and a bare `.` or exponent marker are refused.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bad = |p: &Self, why: &str| {
            let s = &p.text[start..p.pos];
            Err(format!("bad number '{s}' at byte {start}: {why}"))
        };
        if matches!(self.peek(), Some(b'+' | b'.')) {
            self.pos += 1;
            return bad(self, "a JSON number starts with '-' or a digit");
        }
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 if self.pos == start => return Err(format!("expected value at byte {start}")),
            0 => return bad(self, "expected a digit"),
            1 => {}
            _ if self.bytes[int_start] == b'0' => return bad(self, "leading zero"),
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return bad(self, "expected a digit after '.'");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return bad(self, "expected a digit in the exponent");
            }
        }
        let s = &self.text[start..self.pos];
        match s.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            // JSON has no infinity: a number past f64's range would print
            // back as `null`, so it is refused where it stands.
            Ok(_) => Err(format!("number '{s}' at byte {start} overflows f64")),
            Err(_) => Err(format!("bad number '{s}' at byte {start}")),
        }
    }

    /// A bracketed, comma-separated sequence (`[..]` or `{..}`), each
    /// item read by `item`; nesting past [`MAX_DEPTH`] is refused.
    fn seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.expect_byte(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => {
                        let close = close as char;
                        return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    fn field(&mut self) -> Result<(String, Value), String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect_byte(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }
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
        assert_eq!(parse(r#""\u00e9t\u00E9""#).unwrap(), Value::str("été"));
        assert!(parse(r#""\u00e""#).is_err() && parse(r#""\u00eg""#).is_err());
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
            assert_eq!(
                Ns::from_json_value(&parse(&v.pretty()).unwrap()).unwrap(),
                t
            );
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
    fn readers_name_the_stray_key_by_its_path() {
        let v = parse(r#"{"n": 3, "sweep": []}"#).unwrap();
        let r = Reader::new(&v, &["n", "sweep"]).expect("known keys");
        assert_eq!(r.req::<usize, Plain>("n").unwrap(), 3);
        let err = Reader::new(&v, &["n", "sweeps"]).err().expect("stray key");
        assert_eq!(err.path, "sweep");
        assert_eq!(err.to_string(), "sweep: unknown key (known: n, sweeps)");
        // Steps join outward: keys with dots, indices in brackets.
        let err = err.within("[2]").within("axes").within("spec");
        assert_eq!(err.path, "spec.axes[2].sweep");
        assert_eq!(
            WireError::new("x").within("[0]").within("[1]").path,
            "[1][0]"
        );
        // A missing key and a non-object name themselves too.
        assert_eq!(r.req::<u64, Plain>("m").unwrap_err().path, "m");
        assert!(Reader::new(&parse("[1]").unwrap(), &[]).is_err());
    }

    #[test]
    fn records_read_strictly_and_write_in_declared_order() {
        #[derive(Debug, PartialEq)]
        struct Hop {
            delay: u64,
            name: Option<String>,
        }
        crate::record! { Hop { delay: "delay_ns", #[omit] name: "name" } }
        let v = parse(r#"{"delay_ns": 5}"#).unwrap();
        let hop = Hop {
            delay: 5,
            name: None,
        };
        assert_eq!(Hop::from_json_value(&v).unwrap(), hop);
        assert_eq!(hop.to_json_value(), v);
        let err = Hop::from_json_value(&parse(r#"{"delay": 5}"#).unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "delay: unknown key (known: delay_ns, name)"
        );
        let err = Hop::from_json_value(&parse(r#"{"name": "x"}"#).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), "delay_ns: missing key");
    }

    #[test]
    fn tagged_enums_and_omitted_fields() {
        #[derive(Debug, PartialEq)]
        enum Shape {
            Dot { at: Ns },
            Bar { len: f64, marks: Vec<u64> },
        }
        crate::tagged! {
            Shape {
                "dot" => Dot { at: "at_ns" },
                "bar" => Bar { len: "len", #[omit] marks: "marks" },
            }
        }
        let bar = Shape::Bar {
            len: 2.5,
            marks: vec![],
        };
        let text = r#"{"kind": "bar", "len": 2.5}"#;
        assert_eq!(bar.to_json_value(), parse(text).unwrap());
        assert_eq!(Shape::from_json_value(&parse(text).unwrap()).unwrap(), bar);
        let dot = Shape::Dot { at: Ns::MAX };
        assert_eq!(Shape::from_json_value(&dot.to_json_value()).unwrap(), dot);
        // Keys belong to the variant the tag names.
        let err = Shape::from_json_value(&parse(r#"{"kind": "dot", "len": 1}"#).unwrap());
        assert_eq!(err.unwrap_err().path, "len");
        let err = Shape::from_json_value(&parse(r#"{"kind": "box"}"#).unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "kind: unknown kind 'box' (known: dot, bar)"
        );
    }

    #[test]
    fn numbers_outside_the_json_grammar_are_refused_at_their_offset() {
        for (text, at) in [
            ("+1", 0),
            (".5", 0),
            ("01", 0),
            ("1.", 0),
            ("00.5", 0),
            ("-01", 0),
            ("-", 0),
            ("-.5", 0),
            ("1e", 0),
            ("1e+", 0),
            ("[1, +2]", 4),
            (r#"{"seed": +1}"#, 9),
            (r#"{"x": 1.}"#, 6),
            (r#"{"x": 007}"#, 6),
        ] {
            let err = parse(text).expect_err(text);
            assert!(err.contains(&format!("at byte {at}")), "{text}: {err}");
        }
        for (text, n) in [
            ("0", 0.0_f64),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.25e-2", -0.0025),
            ("1E+3", 1000.0),
            ("2e3", 2000.0),
        ] {
            let x = parse(text).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), n.to_bits(), "{text}");
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_refused_at_their_offset() {
        for (text, at) in [
            ("\"a\nb\"", 2),
            ("\"\tx\"", 1),
            ("{\"k\": \"v\r\"}", 8),
            ("\"\u{1}\"", 1),
        ] {
            let err = parse(text).expect_err(text);
            assert!(
                err.contains("control character") && err.contains(&format!("at byte {at}")),
                "{text:?}: {err}"
            );
        }
        // Escaped, the same characters are fine.
        assert_eq!(parse(r#""a\nb\t""#).unwrap(), Value::str("a\nb\t"));
        assert!(parse("\"open").unwrap_err().contains("byte 0"));
    }

    #[test]
    fn a_key_given_twice_is_refused_by_name() {
        let v = parse(r#"{"seed": 1, "n": 2, "seed": 2}"#).unwrap();
        let err = Reader::new(&v, &["seed", "n"]).err().expect("duplicate");
        assert_eq!(err.to_string(), "seed: duplicate key");
        let v = parse(r#"{"kind": "a", "kind": "b"}"#).unwrap();
        let err = Reader::tagged(&v, &[]).err().expect("duplicate tag");
        assert_eq!(err.path, "kind");
    }

    #[test]
    fn numbers_past_f64_range_are_refused_at_their_offset() {
        // Parsed as `inf`, such a number would print back as `null`.
        for text in ["1e999", "-1e999", "[0, 2e400]"] {
            let err = parse(text).unwrap_err();
            assert!(err.contains("overflows") && err.contains("byte"), "{err}");
        }
        assert!(parse("[0, 2e400]").unwrap_err().contains("byte 4"));
        // The largest finite value still round-trips.
        assert_eq!(
            parse("1.7976931348623157e308").unwrap(),
            Value::Num(f64::MAX)
        );
    }
}
