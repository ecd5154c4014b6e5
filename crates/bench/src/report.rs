//! What an artifact hands the driver: a JSON document, the tables it
//! shows, and any extra files.
//!
//! Every artifact becomes a `BENCH_<name>.json` file next to its
//! pretty-printed table, so downstream tooling (CI artifact upload,
//! plotting, regression tracking) never has to scrape stdout. The
//! document is a [`sim::json::Value`], whose writer is deterministic
//! and pretty-printed. A [`Table`] holds each row once: the JSON rows,
//! the `--csv` output and the pretty table are three renderings of the
//! same cells.
//!
//! ```
//! use bench::report::Table;
//! use sim::json::Value;
//! let rows = [Value::obj([
//!     ("benchmark", Value::str("MatMult")),
//!     ("overhead_pct", Value::num(1.25)),
//! ])];
//! let table = Table::new("fig2", &[], &rows);
//! assert_eq!(table.csv(), "benchmark,overhead_pct\nMatMult,1.25\n");
//! ```

use sim::json::Value;

/// A titled view of some of an artifact's JSON rows: the pretty table
/// and the `--csv` output render the very cells the document holds,
/// under the very keys.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    /// The row members shown, each a key or a dotted path.
    pub keys: Vec<String>,
    /// One object per row.
    pub rows: Vec<Value>,
}

impl Table {
    /// The members `keys` of `rows` — every scalar member of the first
    /// row when `keys` is empty.
    pub fn new(title: impl Into<String>, keys: &[&str], rows: &[Value]) -> Table {
        let mut keys: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        if let (true, Some(Value::Obj(pairs))) = (keys.is_empty(), rows.first()) {
            let scalar = |v: &Value| !matches!(v, Value::Arr(_) | Value::Obj(_));
            keys = pairs.iter().filter(|(_, v)| scalar(v)).map(|(k, _)| k.clone()).collect();
        }
        Table { title: title.into(), keys, rows: rows.to_vec() }
    }

    /// Every row's cells as text: exactly the JSON scalar (strings
    /// unquoted) for the CSV, floats rounded to four decimals for the
    /// pretty table; empty where a row has no such member.
    fn cells(&self, rounded: bool) -> Vec<Vec<String>> {
        let text = |row: &Value, key: &String| match row.at(key) {
            None => String::new(),
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Num(v)) if rounded => format!("{v:.4}"),
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
        let left = |i: usize| self.rows.first().is_none_or(|r| matches!(r.at(&self.keys[i]), Some(Value::Str(_))));
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
    pub doc: Value,
    /// Printed as pretty tables, or as CSV under `--csv`.
    pub tables: Vec<Table>,
    /// Commentary printed after the pretty tables.
    pub notes: String,
    /// Further `(path, contents)` files to write beside the document.
    pub files: Vec<(String, String)>,
}

impl Report {
    /// A report with no notes and no extra files.
    pub fn new(doc: Value, tables: Vec<Table>) -> Report {
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
    fn a_table_selects_members_by_dotted_path_and_quotes_csv_commas() {
        let rows = [Value::obj([
            ("network", Value::str("Fast Ethernet, tuned")),
            ("net", Value::obj([("retries", Value::int(7))])),
            ("secs", Value::num(0.12345678)),
        ])];
        let all = Table::new("t", &[], &rows);
        assert_eq!(all.keys, ["network", "secs"], "nested members are not columns unless asked for");
        let picked = Table::new("t", &["network", "net.retries", "secs", "absent"], &rows);
        assert_eq!(picked.csv(), "network,net.retries,secs,absent\n\"Fast Ethernet, tuned\",7,0.12345678,\n");
        assert_eq!(picked.pretty().lines().nth(4), Some("Fast Ethernet, tuned            7  0.1235"));
    }

    #[test]
    fn exported_reports_parse_as_chrome_trace_rejects() {
        // Sanity-check against the independent parser in hamster-core:
        // a bench report is valid JSON but NOT a Chrome trace, so the
        // validator must parse it fine and then reject the schema.
        let doc = Value::obj([("rows", Value::Arr(vec![]))]);
        let err = hamster_core::validate_chrome_trace(&doc.pretty());
        assert!(err.is_err());
    }
}
