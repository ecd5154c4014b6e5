//! The workspace's one JSON document type: a recursive-descent reader,
//! a pretty-printing writer and the string escaper they share.
//!
//! The harness runs fully offline (no serde), yet every layer speaks
//! JSON: the bench writes its `BENCH_*.json` artifacts and gates them
//! against committed baselines, the analyzer states its report schema,
//! and `hamster-core` validates exported Chrome traces. It lives in
//! `sim` because `sim` is the crate every layer already depends on.
//! Objects keep their members in insertion (or document) order, and
//! integers are exact: the reader keeps an integer literal as an
//! [`Value::Int`], never rounding it through an `f64`.
//!
//! ```
//! use sim::json::{self, Value};
//! let doc = Value::obj([
//!     ("figure", Value::str("fig2")),
//!     ("rows", Value::Arr(vec![Value::obj([("overhead_pct", Value::num(1.25))])])),
//! ]);
//! let text = doc.pretty();
//! assert!(text.contains("\"overhead_pct\": 1.25"));
//! let back = json::parse(&text).unwrap();
//! assert_eq!(back.get("figure").and_then(Value::as_str), Some("fig2"));
//! assert_eq!(back.pretty(), text);
//! ```

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, written and read back exactly.
    Int(i128),
    /// A float (written in Rust's shortest round-trip form; non-finite
    /// values are written as `null`, which JSON requires).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; members keep their order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Shorthand for an integer value.
    pub fn int(v: impl TryInto<i128>) -> Value {
        Value::Int(v.try_into().unwrap_or(i128::MAX))
    }

    /// Shorthand for a float value.
    pub fn num(v: f64) -> Value {
        Value::Num(v)
    }

    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The members if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The items if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The text if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is numeric (an integer as the nearest `f64`).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// True when the value is a number.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Num(_))
    }

    /// The member `key` of an object (`None` for non-objects or missing
    /// keys). The key is taken whole, dots and all.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The member at a dotted path of object keys (`"net.retries"`).
    pub fn at(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => write_container(out, indent, ('[', ']'), items.iter().map(|v| (None, v))),
            Value::Obj(pairs) => {
                write_container(out, indent, ('{', '}'), pairs.iter().map(|(k, v)| (Some(k.as_str()), v)))
            }
        }
    }
}

/// One item per line, each indented a level deeper than the brackets;
/// an empty container stays on one line (`[]`, `{}`).
fn write_container<'a>(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let empty = items.len() == 0;
    out.push(open);
    for (i, (key, v)) in items.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        if let Some(key) = key {
            escape_into(out, key);
            out.push_str(": ");
        }
        v.write(out, indent + 1);
    }
    if !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

/// Append `s` to `out` as a quoted JSON string.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Parse a complete JSON document (trailing data is an error).
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut pos = 0;
    let v = value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Value::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, "true", Value::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Value::Null),
        Some(_) => number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        members.push((key, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        *pos += 4;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c => {
                // Re-assemble multi-byte UTF-8 sequences.
                if c < 0x80 {
                    out.push(c as char);
                } else {
                    let start = *pos - 1;
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b.get(start..start + len).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                    *pos = start + len;
                }
            }
        }
    }
    Err("unterminated string".into())
}

/// An integer literal becomes an exact [`Value::Int`]; a fraction, an
/// exponent, `-0` or an integer beyond `i128` becomes a [`Value::Num`].
fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap_or_default();
    match text.parse::<i128>() {
        Ok(n) if text != "-0" => Ok(Value::Int(n)),
        _ => text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_escapes() {
        let v = parse("{\"a\\n\": [1, -2.5e2, \"\\u0041ß\", true, null]}").unwrap();
        let arr = v.get("a\n").unwrap().as_array().unwrap();
        assert_eq!(arr[2].as_str(), Some("Aß"));
        assert!(arr[1].is_number());
        assert_eq!(arr[1].as_num(), Some(-250.0));
        assert_eq!(arr[3], Value::Bool(true));
        assert_eq!(arr[4], Value::Null);
    }

    #[test]
    fn get_navigates_objects() {
        let v = parse("{\"outer\": {\"inner\": 3}, \"a.b\": 4}").unwrap();
        assert_eq!(v.get("outer").and_then(|o| o.get("inner")).and_then(|n| n.as_num()), Some(3.0));
        assert!(v.get("missing").is_none());
        assert!(parse("3").unwrap().get("x").is_none());
        // `get` takes a key whole; `at` follows dots.
        assert_eq!(v.get("a.b"), Some(&Value::Int(4)));
        assert_eq!(v.at("outer.inner"), Some(&Value::Int(3)));
        assert!(v.get("outer.inner").is_none() && v.at("a.b").is_none());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} junk").is_err());
        assert!(parse("\"open\"x").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("1.2.3").is_err());
    }

    #[test]
    fn integers_beyond_f64_precision_read_back_exactly() {
        // `PageId::pack` of page 5 of the first node-local region:
        // 2^56 + 5, where consecutive f64s lie 16 apart.
        assert_eq!(parse("72057594037927941").unwrap(), Value::Int(72_057_594_037_927_941));
        assert_eq!(parse(&u64::MAX.to_string()).unwrap(), Value::Int(u64::MAX as i128));
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::Int(i64::MIN as i128));
        assert_eq!(parse("1.5e3").unwrap(), Value::Num(1500.0));
        assert_eq!(parse("-0").unwrap().pretty(), "-0\n");
    }

    #[test]
    fn scalars_render() {
        assert_eq!(Value::Bool(true).pretty(), "true\n");
        assert_eq!(Value::Null.pretty(), "null\n");
        assert_eq!(Value::int(42u64).pretty(), "42\n");
        assert_eq!(Value::int(u64::MAX).pretty(), "18446744073709551615\n");
        assert_eq!(Value::num(1.5).pretty(), "1.5\n");
        assert_eq!(Value::num(f64::NAN).pretty(), "null\n");
        assert_eq!(Value::str("a\"b\\c\n").pretty(), "\"a\\\"b\\\\c\\n\"\n");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::Arr(vec![]).pretty(), "[]\n");
        assert_eq!(Value::obj(Vec::<(&str, Value)>::new()).pretty(), "{}\n");
    }

    #[test]
    fn object_preserves_order_and_indents() {
        let doc = Value::obj([("b", Value::int(1u64)), ("a", Value::Arr(vec![Value::str("x")]))]);
        let text = doc.pretty();
        assert_eq!(text, "{\n  \"b\": 1,\n  \"a\": [\n    \"x\"\n  ]\n}\n");
        assert_eq!(parse(&text).unwrap(), doc, "the reader keeps the member order");
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(Value::str("\u{1}").pretty(), "\"\\u0001\"\n");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        const TEXT: &[char] =
            &['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'ß', '€', '𝄞'];
        const FLOATS: &[f64] =
            &[0.0, -0.0, 0.1, -2.5, 1e300, 1e-300, 5e-324, f64::MAX, f64::MIN_POSITIVE, 1e21];

        /// A random document drawn from `raw`: nested containers (empty
        /// ones included), escapes, control characters, non-ASCII text,
        /// negative and large integers, and finite floats.
        fn build(raw: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
            let r = raw.next().unwrap_or(0);
            let text = |r: u64| -> String {
                (0..r % 6).map(|i| TEXT[((r >> (8 + 4 * i)) % TEXT.len() as u64) as usize]).collect()
            };
            let len = if depth < 3 { (r >> 8) % 4 } else { 0 };
            match r % 8 {
                0 => Value::Null,
                1 => Value::Bool(r & 256 != 0),
                2 => Value::Int(r as i64 as i128),
                3 => Value::Int(match (r >> 8) % 3 {
                    0 => r as i128,
                    1 => -(r as i128) * 1_000,
                    _ => [i128::MIN, i128::MAX][(r >> 10) as usize % 2],
                }),
                4 => {
                    let v = f64::from_bits(r);
                    Value::Num(if v.is_finite() { v } else { FLOATS[(r % 10) as usize] })
                }
                5 => Value::str(text(r >> 3)),
                6 => Value::Arr((0..len).map(|_| build(raw, depth + 1)).collect()),
                _ => Value::Obj((0..len).map(|i| (text(r >> (3 + i)), build(raw, depth + 1))).collect()),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The reader reads everything the writer writes.
            #[test]
            fn the_reader_reads_what_the_writer_writes(raw in proptest::collection::vec(any::<u64>(), 1..48)) {
                let doc = build(&mut raw.into_iter(), 0);
                let text = doc.pretty();
                let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
                prop_assert_eq!(back.pretty(), text);
            }
        }
    }
}
