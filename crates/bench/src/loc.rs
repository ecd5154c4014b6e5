//! The paper's line-counting methodology (Table 2).
//!
//! "Each count is computed by a simple script that first removes
//! comments and empty lines, and then (to a certain degree)
//! standardizes the coding style" (§5.2). This module reimplements that
//! script for Rust sources: strip `//`-style and block comments and doc
//! comments, drop blank lines, fold lines containing only a closing
//! brace into their predecessor (brace-style standardization), then
//! count lines and exported API calls.
//!
//! The same counter feeds the per-crate line ledger ([`crate_lines`]),
//! which tracks the size of every crate — test modules apart — from PR
//! to PR.

use std::path::{Path, PathBuf};

/// Per-model counting result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCount {
    pub name: &'static str,
    pub lines: usize,
    pub api_calls: usize,
}

impl ModelCount {
    /// Lines of code per API call.
    pub fn lines_per_call(&self) -> f64 {
        self.lines as f64 / self.api_calls.max(1) as f64
    }
}

/// Strip comments (line, block, doc) from Rust source. String literals
/// are respected enough for the model sources (no raw strings with
/// `//` inside).
pub fn strip_comments(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    let mut block_depth = 0usize;
    while i < bytes.len() {
        let rest = &src[i..];
        if block_depth > 0 {
            if rest.starts_with("*/") {
                block_depth -= 1;
                i += 2;
            } else if rest.starts_with("/*") {
                block_depth += 1;
                i += 2;
            } else {
                i += rest.chars().next().map_or(1, |c| c.len_utf8());
            }
            continue;
        }
        if in_str {
            if rest.starts_with('\\') {
                out.push_str(&rest[..rest.chars().take(2).map(|c| c.len_utf8()).sum::<usize>()]);
                i += rest.chars().take(2).map(|c| c.len_utf8()).sum::<usize>();
                continue;
            }
            if rest.starts_with('"') {
                in_str = false;
            }
            let c = rest.chars().next().unwrap();
            out.push(c);
            i += c.len_utf8();
            continue;
        }
        if rest.starts_with("//") {
            // Line comment (incl. /// and //!): skip to end of line.
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if rest.starts_with("/*") {
            block_depth = 1;
            i += 2;
            continue;
        }
        if rest.starts_with('"') {
            in_str = true;
            out.push('"');
            i += 1;
            continue;
        }
        let c = rest.chars().next().unwrap();
        out.push(c);
        i += c.len_utf8();
    }
    out
}

/// Whether a comment-stripped line counts: blank lines do not, and —
/// style standardization — neither does a line holding only closing
/// punctuation, which belongs to the statement above.
fn is_effective(line: &str) -> bool {
    let t = line.trim();
    !t.is_empty() && !t.chars().all(|c| "}])>,;".contains(c))
}

/// Count effective lines after comment stripping and style
/// standardization.
pub fn count_lines(src: &str) -> usize {
    strip_comments(src).lines().filter(|l| is_effective(l)).count()
}

/// Net `{`/`}` nesting change over one comment-stripped line, ignoring
/// braces inside string and `'{'`-style character literals.
fn brace_delta(line: &str) -> i64 {
    let mut delta = 0;
    let mut chars = line.chars().peekable();
    let mut prev = ' ';
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                while let Some(s) = chars.next() {
                    match s {
                        '\\' => drop(chars.next()),
                        '"' => break,
                        _ => {}
                    }
                }
            }
            '{' | '}' if prev == '\'' && chars.peek() == Some(&'\'') => {}
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
        prev = c;
    }
    delta
}

/// Effective lines of `src` as `(code, test)`: `test` counts what sits
/// inside `#[cfg(test)] mod … { … }` blocks (attribute line included),
/// `code` everything else.
pub fn count_code_and_test_lines(src: &str) -> (usize, usize) {
    let stripped = strip_comments(src);
    let (mut code, mut test) = (0usize, 0usize);
    // Nesting depth inside the current test module, once its `{` is seen.
    let mut depth: Option<i64> = None;
    // Blank lines go; lone closers stay in the stream (they end the
    // module) but are not counted.
    let mut lines = stripped.lines().filter(|l| !l.trim().is_empty()).peekable();
    while let Some(line) = lines.next() {
        if depth.is_none()
            && line.trim() == "#[cfg(test)]"
            && lines.peek().is_some_and(|next| next.trim_start().starts_with("mod "))
        {
            depth = Some(0);
            test += 1;
            continue;
        }
        let counted = usize::from(is_effective(line));
        match &mut depth {
            None => code += counted,
            Some(d) => {
                test += counted;
                *d += brace_delta(line);
                if *d <= 0 {
                    depth = None;
                }
            }
        }
    }
    (code, test)
}

/// One row of the per-crate line ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateLines {
    /// Directory name under `crates/`, `vendor/<name>`, or `src` for the
    /// root package.
    pub name: String,
    /// Effective lines outside `#[cfg(test)]` modules.
    pub code: usize,
    /// Effective lines inside `#[cfg(test)]` modules.
    pub tests: usize,
}

/// The entries of `dir` in sorted order; none when it cannot be read.
fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> =
        std::fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()).collect();
    paths.sort();
    paths
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in sorted_entries(dir) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The per-crate line ledger of the workspace rooted at `root`: one row
/// for each of `crates/*/src` and `vendor/*/src`, and one for the root
/// package's `src/`, in that order, sorted by name within each group.
/// Empty when `root` is not a checkout of this workspace.
pub fn crate_lines(root: &Path) -> Vec<CrateLines> {
    let mut src_dirs: Vec<(String, PathBuf)> = Vec::new();
    for (group, prefix) in [("crates", ""), ("vendor", "vendor/")] {
        for dir in sorted_entries(&root.join(group)) {
            if let Some(name) = dir.file_name().and_then(|n| n.to_str()) {
                src_dirs.push((format!("{prefix}{name}"), dir.join("src")));
            }
        }
    }
    src_dirs.push(("src".to_string(), root.join("src")));
    let mut rows = Vec::new();
    for (name, src) in src_dirs {
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        if files.is_empty() {
            continue;
        }
        let mut row = CrateLines { name, code: 0, tests: 0 };
        for file in files {
            let source = std::fs::read_to_string(file).unwrap_or_default();
            let (code, tests) = count_code_and_test_lines(&source);
            row.code += code;
            row.tests += tests;
        }
        rows.push(row);
    }
    rows
}

/// Count exported API calls: public functions and exported macros.
pub fn count_api_calls(src: &str) -> usize {
    let stripped = strip_comments(src);
    let mut calls = 0usize;
    for line in stripped.lines() {
        let t = line.trim_start();
        if t.starts_with("pub fn ") || t.starts_with("pub(crate) fn") {
            // Internal helpers prefixed with `_` are not API.
            if !t.starts_with("pub fn _") && t.starts_with("pub fn ") {
                calls += 1;
            }
        } else if t.starts_with("macro_rules!") {
            calls += 1;
        }
    }
    calls
}

/// Count one model source file.
pub fn count_model(name: &'static str, src: &str) -> ModelCount {
    ModelCount { name, lines: count_lines(src), api_calls: count_api_calls(src) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped() {
        let src = "// line\nfn f() {} /* block\nstill block */ fn g() {}\n/// doc\n";
        let s = strip_comments(src);
        assert!(!s.contains("line"));
        assert!(!s.contains("block"));
        assert!(!s.contains("doc"));
        assert!(s.contains("fn f()"));
        assert!(s.contains("fn g()"));
    }

    #[test]
    fn nested_block_comments() {
        let s = strip_comments("a /* x /* y */ z */ b");
        assert_eq!(s.trim(), "a  b");
    }

    #[test]
    fn strings_survive() {
        let s = strip_comments(r#"let x = "// not a comment";"#);
        assert!(s.contains("// not a comment"));
    }

    #[test]
    fn line_count_skips_blank_and_closers() {
        let src = "fn f() {\n    body();\n}\n\nfn g() {\n    x();\n}\n";
        assert_eq!(count_lines(src), 4); // two signatures + two bodies
    }

    #[test]
    fn test_modules_are_counted_apart() {
        let src = r#"
            //! Header.
            pub fn shipped() -> char {
                '{' // a brace that opens nothing
            }

            #[cfg(test)]
            fn helper_outside_a_module() {}

            #[cfg(test)]
            mod tests {
                use super::*;

                #[test]
                fn t() {
                    assert_eq!(format!("}}{}", shipped()), "}{");
                }
            }

            pub fn after_the_tests() {}
        "#;
        // Code: `shipped` (2), the cfg'd helper (2), `after_the_tests`.
        // Tests: attribute, `mod`, `use`, `#[test]`, `fn t`, the assert.
        assert_eq!(count_code_and_test_lines(src), (5, 6));
        assert_eq!(count_lines(src), 11);
    }

    #[test]
    fn ledger_walks_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rows = crate_lines(&root);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert!(names.starts_with(&["analyzer", "apps", "bench"]), "{names:?}");
        assert!(names.contains(&"vendor/crossbeam") && names.ends_with(&["src"]), "{names:?}");
        let bench = rows.iter().find(|r| r.name == "bench").unwrap();
        assert!(bench.code > 0 && bench.tests > 0, "{bench:?}");
        assert!(crate_lines(&root.join("no-such-dir")).is_empty());
    }

    #[test]
    fn api_calls_counted() {
        let src = "pub fn a() {}\nfn private() {}\npub fn b(x: u32) {}\nmacro_rules! M { () => {} }\n";
        assert_eq!(count_api_calls(src), 3);
    }
}
