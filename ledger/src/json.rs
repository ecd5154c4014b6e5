//! A JSON value and its writer. (`sim::json` only reads.)

use std::fmt::Write as _;

/// A JSON document; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Whole numbers stay whole on the wire.
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The document on one line.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// The document indented by two spaces per level.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to string"),
            // JSON has no NaN or infinity; a metric that is one is a bug
            // the reader should see, not a parse error.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => write!(out, "{n}").expect("write to string"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_documents_parse_back() {
        let doc = Json::obj([
            ("a", Json::from(1u64)),
            ("b", Json::from(1.5)),
            ("s", Json::from("q\"uo\\te\n")),
            ("l", Json::Arr(vec![Json::Num(f64::NAN), Json::from(true), Json::Arr(vec![])])),
            ("o", Json::obj::<&str>([])),
        ]);
        for text in [doc.line(), doc.pretty()] {
            let v = sim::json::parse(&text).expect("own output parses");
            assert_eq!(v.get("a").and_then(|v| v.as_num()), Some(1.0));
            assert_eq!(v.get("b").and_then(|v| v.as_num()), Some(1.5));
            assert_eq!(v.get("s").and_then(|v| v.as_str()), Some("q\"uo\\te\n"));
            assert_eq!(v.get("l").and_then(|v| v.as_array()).map(|a| a.len()), Some(3));
        }
        assert_eq!(Json::obj([("k", Json::from(2u64))]).line(), r#"{"k":2}"#);
    }
}
