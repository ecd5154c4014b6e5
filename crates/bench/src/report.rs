//! What an artifact hands the driver: a JSON document, the tables it
//! shows, and any extra files.
//!
//! Every artifact becomes a `BENCH_<name>.json` file next to its
//! pretty-printed table, so downstream tooling (CI artifact upload,
//! plotting, regression tracking) never has to scrape stdout. The
//! writer is hand-rolled — the harness runs fully offline, with no
//! serde available — and produces deterministic, pretty-printed JSON.
//! A [`Table`] holds each row once: the JSON rows, the `--csv` output
//! and the pretty table are three renderings of the same cells.
//!
//! ```
//! use bench::report::Json;
//! let doc = Json::obj([
//!     ("figure", Json::str("fig2")),
//!     ("nodes", Json::int(4)),
//!     ("rows", Json::Arr(vec![Json::obj([
//!         ("benchmark", Json::str("MatMult")),
//!         ("overhead_pct", Json::num(1.25)),
//!     ])])),
//! ]);
//! let text = doc.pretty();
//! assert!(text.contains("\"figure\": \"fig2\""));
//! assert!(text.contains("\"overhead_pct\": 1.25"));
//! ```

use std::fmt::Write as _;

/// A JSON value (the subset the reports need).
#[derive(Debug, Clone)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A float (emitted in Rust's shortest round-trip form; non-finite
    /// values degrade to `null`, which JSON requires).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as built.
    Obj(Vec<(String, Json)>),
    /// An already-rendered JSON document (the analyzer's reports),
    /// embedded as it is and re-indented to its depth.
    Raw(String),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for an integer value.
    pub fn int(v: impl TryInto<i64>) -> Json {
        Json::Int(v.try_into().unwrap_or(i64::MAX))
    }

    /// Shorthand for a float value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The member at a dotted path of object keys, if there is one.
    pub fn get(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| match v {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
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
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(out, s),
            Json::Raw(text) => {
                for (i, line) in text.trim_end().lines().enumerate() {
                    if i > 0 {
                        out.push('\n');
                        pad(out, indent);
                    }
                    out.push_str(line);
                }
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, indent + 1);
                    escape_into(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn escape_into(out: &mut String, s: &str) {
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

/// A titled view of some of an artifact's JSON rows: the pretty table
/// and the `--csv` output render the very cells the document holds,
/// under the very keys.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    /// The row members shown, each a key or a dotted path.
    pub keys: Vec<String>,
    /// One object per row.
    pub rows: Vec<Json>,
}

impl Table {
    /// The members `keys` of `rows` — every scalar member of the first
    /// row when `keys` is empty.
    pub fn new(title: impl Into<String>, keys: &[&str], rows: &[Json]) -> Table {
        let mut keys: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        if let (true, Some(Json::Obj(pairs))) = (keys.is_empty(), rows.first()) {
            let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_) | Json::Raw(_));
            keys = pairs.iter().filter(|(_, v)| scalar(v)).map(|(k, _)| k.clone()).collect();
        }
        Table { title: title.into(), keys, rows: rows.to_vec() }
    }

    /// Every row's cells as text: exactly the JSON scalar (strings
    /// unquoted) for the CSV, floats rounded to four decimals for the
    /// pretty table; empty where a row has no such member.
    fn cells(&self, rounded: bool) -> Vec<Vec<String>> {
        let text = |row: &Json, key: &String| match row.get(key) {
            None => String::new(),
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(v)) if rounded => format!("{v:.4}"),
            Some(other) => other.pretty().trim_end().to_string(),
        };
        self.rows.iter().map(|row| self.keys.iter().map(|k| text(row, k)).collect()).collect()
    }

    /// Header line of keys, then one comma-separated line per row (a
    /// cell holding a comma or a quote is quoted).
    pub fn csv(&self) -> String {
        let quoted = |c: &String| match c.contains([',', '"']) {
            true => format!("\"{}\"", c.replace('"', "\"\"")),
            false => c.clone(),
        };
        let rows = self.cells(false).into_iter().map(|r| r.iter().map(quoted).collect::<Vec<_>>().join(","));
        std::iter::once(self.keys.join(",")).chain(rows).map(|l| l + "\n").collect()
    }

    /// Title, ruled header and aligned rows (strings left, numbers right).
    pub fn pretty(&self) -> String {
        let cells = self.cells(true);
        let width = |(i, key): (usize, &String)| cells.iter().map(|r| r[i].chars().count()).fold(key.chars().count(), usize::max);
        let widths: Vec<usize> = self.keys.iter().enumerate().map(width).collect();
        let left = |i: usize| self.rows.first().is_none_or(|r| matches!(r.get(&self.keys[i]), Some(Json::Str(_))));
        let line = |texts: &[String]| {
            let pad = |(i, t): (usize, &String)| {
                if left(i) { format!("{t:<w$}", w = widths[i]) } else { format!("{t:>w$}", w = widths[i]) }
            };
            texts.iter().enumerate().map(pad).collect::<Vec<_>>().join("  ").trim_end().to_string() + "\n"
        };
        let head = line(&self.keys);
        let rule = "-".repeat(head.chars().count() - 1) + "\n";
        let body: String = cells.iter().map(|r| line(r)).collect();
        format!("{}\n{rule}{head}{rule}{body}{rule}", self.title)
    }
}

/// What an artifact's build function returns to the driver.
#[derive(Debug, Clone)]
pub struct Report {
    /// Written to `BENCH_<name>.json`.
    pub doc: Json,
    /// Printed as pretty tables, or as CSV under `--csv`.
    pub tables: Vec<Table>,
    /// Commentary printed after the pretty tables.
    pub notes: String,
    /// Further `(path, contents)` files to write beside the document.
    pub files: Vec<(String, String)>,
}

impl Report {
    /// A report with no notes and no extra files.
    pub fn new(doc: Json, tables: Vec<Table>) -> Report {
        Report { doc, tables, notes: String::new(), files: Vec::new() }
    }

    /// The same report with `text` as its commentary.
    pub fn note(mut self, text: impl Into<String>) -> Report {
        self.notes = text.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Bool(true).pretty(), "true\n");
        assert_eq!(Json::int(42u64).pretty(), "42\n");
        assert_eq!(Json::num(1.5).pretty(), "1.5\n");
        assert_eq!(Json::num(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::str("a\"b\\c\n").pretty(), "\"a\\\"b\\\\c\\n\"\n");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]\n");
        assert_eq!(Json::obj(Vec::<(&str, Json)>::new()).pretty(), "{}\n");
    }

    #[test]
    fn object_preserves_order_and_indents() {
        let doc = Json::obj([
            ("b", Json::int(1u64)),
            ("a", Json::Arr(vec![Json::str("x")])),
        ]);
        let text = doc.pretty();
        assert_eq!(text, "{\n  \"b\": 1,\n  \"a\": [\n    \"x\"\n  ]\n}\n");
        assert!(text.find("\"b\"").unwrap() < text.find("\"a\"").unwrap());
    }

    #[test]
    fn a_table_selects_members_by_dotted_path_and_quotes_csv_commas() {
        let rows = [Json::obj([
            ("network", Json::str("Fast Ethernet, tuned")),
            ("net", Json::obj([("retries", Json::int(7))])),
            ("secs", Json::num(0.12345678)),
        ])];
        let all = Table::new("t", &[], &rows);
        assert_eq!(all.keys, ["network", "secs"], "nested members are not columns unless asked for");
        let picked = Table::new("t", &["network", "net.retries", "secs", "absent"], &rows);
        assert_eq!(picked.csv(), "network,net.retries,secs,absent\n\"Fast Ethernet, tuned\",7,0.12345678,\n");
        assert_eq!(picked.pretty().lines().nth(4), Some("Fast Ethernet, tuned            7  0.1235"));
    }

    #[test]
    fn raw_documents_embed_at_their_depth() {
        let doc = Json::obj([("report", Json::Raw("{\n  \"a\": 1\n}\n".into()))]);
        assert_eq!(doc.pretty(), "{\n  \"report\": {\n    \"a\": 1\n  }\n}\n");
    }

    #[test]
    fn control_chars_escaped() {
        let text = Json::str("\u{1}").pretty();
        assert_eq!(text, "\"\\u0001\"\n");
    }

    #[test]
    fn exported_reports_parse_as_chrome_trace_rejects() {
        // Sanity-check against the independent parser in hamster-core:
        // a bench report is valid JSON but NOT a Chrome trace, so the
        // validator must parse it fine and then reject the schema.
        let doc = Json::obj([("rows", Json::Arr(vec![]))]);
        let err = hamster_core::validate_chrome_trace(&doc.pretty());
        assert!(err.is_err());
    }
}
