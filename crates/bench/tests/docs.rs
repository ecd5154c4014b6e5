//! Documents that cannot drift from the artifact table: every bench
//! command the prose shows must parse, the CI matrix must be the table,
//! and EXPERIMENTS.md's generated tables must be what the code and the
//! committed baselines say.

use bench::driver::{parse, ARTIFACTS};
use std::path::Path;

fn repo_file(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{}: {e}", full.display()))
}

/// The argument lists of the bench commands a document shows: what
/// follows `--` on a `cargo run -p hamster-bench` line, and the short
/// `` `bench <artifact> …` `` form of EXPERIMENTS.md's headings.
fn documented_commands(text: &str) -> Vec<Vec<String>> {
    let mut commands = Vec::new();
    for line in text.lines() {
        let args = if let Some(at) = line.find("-p hamster-bench") {
            let after = &line[at..];
            let dashes = after.find(" -- ").unwrap_or_else(|| panic!("no `-- <artifact>` in: {line}"));
            &after[dashes + 4..]
        } else if let Some(at) = line.find("`bench ") {
            &line[at + "`bench ".len()..]
        } else {
            continue;
        };
        let end = args.find(['`', '#', '|', ';', ')']).unwrap_or(args.len());
        commands.push(args[..end].split_whitespace().map(String::from).collect());
    }
    commands
}

#[test]
fn every_documented_command_names_an_entry_with_flags_it_accepts() {
    let mut seen = 0;
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "OBSERVABILITY.md",
        "ROBUSTNESS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let commands = documented_commands(&repo_file(doc));
        assert!(!commands.is_empty(), "{doc} shows no bench command: has the form changed?");
        for argv in commands {
            // The generic form stands for any row of the table.
            if argv.first().is_some_and(|a| a.starts_with("<artifact>")) {
                continue;
            }
            if let Err(message) = parse(&argv) {
                panic!("{doc}: `bench {}`: {message}", argv.join(" "));
            }
            seen += 1;
        }
    }
    assert!(seen >= 40, "only {seen} commands found");
}

#[test]
fn the_ci_matrix_is_the_artifact_table() {
    let ci = repo_file(".github/workflows/ci.yml");
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(key).unwrap_or_else(|| panic!("no {key} in {line}")) + key.len()..];
        rest.trim_start().trim_start_matches('"').split(['"', ',', '}']).next().unwrap().trim().to_string()
    };
    let matrix: Vec<(String, String, bool)> = ci
        .lines()
        .filter(|l| l.trim_start().starts_with("- { name:"))
        .map(|l| (field(l, "name:"), field(l, "args:"), field(l, "cmp:") == "true"))
        .collect();
    let table: Vec<(String, String, bool)> =
        ARTIFACTS.iter().map(|a| (a.name.to_string(), a.ci.to_string(), a.exact)).collect();
    assert_eq!(matrix, table, "ci.yml's `artifacts` matrix vs bench::driver::ARTIFACTS (name, ci flags, exact)");
    let jobs: Vec<&str> =
        ci.lines().filter(|l| l.starts_with("  ") && !l.starts_with("   ") && l.ends_with(':')).collect();
    assert_eq!(jobs, ["  push:", "  pull_request:", "  test:", "  artifacts:", "  ledger:"]);
}

/// The `| a | b | … |` rows under `heading` (header and rule skipped),
/// up to the next heading.
fn table_under(doc: &str, heading: &str) -> Vec<Vec<String>> {
    let section = &doc[doc.find(heading).unwrap_or_else(|| panic!("no {heading:?}"))..];
    section
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| l.trim_matches('|').split('|').map(|c| c.trim().to_string()).collect())
        .collect()
}

#[test]
fn experiments_table2_matches_the_line_counter() {
    let rows = table_under(&repo_file("EXPERIMENTS.md"), "## Table 2");
    let counted: Vec<(String, String)> = bench::figures::model_counts()
        .iter()
        .map(|m| (m.name.to_string(), format!("{} / {} / {:.1}", m.lines, m.api_calls, m.lines_per_call())))
        .collect();
    let documented: Vec<(String, String)> = rows.iter().map(|r| (r[0].clone(), r[2].clone())).collect();
    assert_eq!(documented, counted, "EXPERIMENTS.md Table 2 vs bench::figures::model_counts()");
}

#[test]
fn experiments_primitives_match_the_committed_baseline() {
    let rows = table_under(&repo_file("EXPERIMENTS.md"), "## Primitive costs");
    let baseline = sim::json::parse(&repo_file("bench-baselines/BENCH_primitives.json")).unwrap();
    let measured = baseline.get("rows").and_then(|r| r.as_array()).expect("rows");
    assert_eq!(rows.len(), measured.len(), "one documented row per measured operation");
    for (doc, row) in rows.iter().zip(measured) {
        assert_eq!(Some(doc[0].as_str()), row.get("operation").and_then(|o| o.as_str()));
        for (cell, key) in doc[1..].iter().zip(["smp_us", "hybrid_us", "swdsm_us"]) {
            // Rounded as printed: to the decimals the document shows.
            let decimals = cell.split('.').nth(1).map_or(0, str::len);
            let value = row.get(key).and_then(|v| v.as_num()).expect(key);
            assert_eq!(*cell, format!("{value:.decimals$}"), "{}: {key}", doc[0]);
        }
    }
}
