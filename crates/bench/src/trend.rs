//! Perf-trajectory comparison: a committed baseline `BENCH_*.json`
//! against a freshly generated one (the driver's `--check`).
//!
//! The repo's benchmark artifacts are *virtual-time* measurements from
//! the simulated cluster, so every field is byte-deterministic and
//! must match the committed baseline **exactly** — a changed virtual
//! number is a real behavior change, not noise. One exception: an
//! artifact whose root object declares `"tolerance_pct": N` opts the
//! numeric leaves under its `rows` into a ±N% band (absolute ±N points
//! for `*_pct` leaves, whose baselines sit near zero). fig2/fig3 use
//! this: their PI and WATER rows contend on locks, and contended grant
//! order follows real message arrival (see OBSERVABILITY.md,
//! "Contended locks"), so those virtual times legitimately jitter.
//! Header leaves (`nodes`, `quick`, `repeat`, `seed`, the pinned
//! Ethernet rate) describe the configuration and always match exactly.

use sim::json::Value;

/// Cap on reported differences per file — enough to diagnose, not a
/// dump of every row after a schema change.
const MAX_DIFFS: usize = 12;

/// Human-readable differences of `current` against `baseline`; empty
/// when the artifact holds. Two documents generated at different sizes
/// differ in one line, not in every row.
pub fn compare(baseline: &Value, current: &Value) -> Vec<String> {
    let size = |v: &Value| match v.get("quick") {
        Some(Value::Bool(true)) => "--quick",
        _ => "full-size",
    };
    if size(baseline) != size(current) {
        return vec![format!("baseline is {}, artifact is {}", size(baseline), size(current))];
    }
    let nodes = |v: &Value| v.get("nodes").and_then(Value::as_num);
    if let (Some(b), Some(c)) = (nodes(baseline), nodes(current)) {
        if b != c {
            return vec![format!("baseline ran on {b} nodes, artifact on {c}")];
        }
    }
    let mut diffs = Vec::new();
    compare_at(baseline, current, "", &mut diffs, 0.0);
    diffs.truncate(MAX_DIFFS);
    diffs
}

fn compare_at(baseline: &Value, current: &Value, path: &str, diffs: &mut Vec<String>, tol: f64) {
    if diffs.len() >= MAX_DIFFS {
        return;
    }
    match (baseline, current) {
        (Value::Obj(b), Value::Obj(c)) => {
            for key in b.keys().chain(c.keys().filter(|k| !b.contains_key(*k))) {
                let (at, tol) = if path.is_empty() {
                    // The band the root declares (0 = exact, the
                    // default) covers the rows, not the header.
                    let declared = b.get("tolerance_pct").and_then(Value::as_num);
                    (key.clone(), declared.filter(|_| key == "rows").unwrap_or(0.0))
                } else {
                    (format!("{path}.{key}"), tol)
                };
                match (b.get(key), c.get(key)) {
                    // A number inside a declared band is held to it:
                    // relative for plain leaves, absolute percentage
                    // *points* for `*_pct` leaves, whose baselines sit
                    // near zero where a relative band means nothing.
                    (Some(Value::Num(bv)), Some(Value::Num(cv))) if tol > 0.0 => {
                        let limit = if key.ends_with("_pct") { tol } else { bv.abs() * tol / 100.0 };
                        if (cv - bv).abs() > limit {
                            diffs.push(format!(
                                "{at}: {bv} -> {cv} (beyond the artifact's declared ±{tol}% tolerance)"
                            ));
                        }
                    }
                    (Some(bv), Some(cv)) => compare_at(bv, cv, &at, diffs, tol),
                    (Some(_), None) => diffs.push(format!("{at}: missing from current run")),
                    (None, Some(_)) => diffs.push(format!("{at}: not in baseline")),
                    (None, None) => unreachable!(),
                }
            }
        }
        (Value::Arr(b), Value::Arr(c)) => {
            if b.len() != c.len() {
                diffs.push(format!("{path}: length {} -> {}", b.len(), c.len()));
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                compare_at(bv, cv, &format!("{path}[{i}]"), diffs, tol);
            }
        }
        _ => {
            if baseline != current {
                diffs.push(format!("{path}: {baseline:?} -> {current:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::json;

    fn diffs(base: &str, cur: &str) -> Vec<String> {
        compare(&json::parse(base).unwrap(), &json::parse(cur).unwrap())
    }

    #[test]
    fn identical_documents_have_no_diffs() {
        let doc = r#"{"a": 1, "rows": [{"x": 2}, {"x": 3}], "s": "hi"}"#;
        assert!(diffs(doc, doc).is_empty());
    }

    #[test]
    fn virtual_numbers_must_match_exactly() {
        let d = diffs(r#"{"makespan_ns": 1000}"#, r#"{"makespan_ns": 1001}"#);
        assert_eq!(d.len(), 1);
        assert!(d[0].starts_with("makespan_ns:"), "{d:?}");
    }

    #[test]
    fn declared_tolerance_widens_numeric_leaves() {
        let base = r#"{"tolerance_pct": 10, "rows": [{"hamster_s": 100.0}]}"#;
        assert!(diffs(base, r#"{"tolerance_pct": 10, "rows": [{"hamster_s": 109.0}]}"#).is_empty());
        let d = diffs(base, r#"{"tolerance_pct": 10, "rows": [{"hamster_s": 111.0}]}"#);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("declared ±10% tolerance"), "{d:?}");
    }

    #[test]
    fn pct_leaves_under_declared_tolerance_get_absolute_points() {
        // *_pct baselines sit near zero, where a relative band means
        // nothing — the declared tolerance is absolute points there.
        let base = r#"{"tolerance_pct": 10, "rows": [{"overhead_pct": 2.0}]}"#;
        assert!(diffs(base, r#"{"tolerance_pct": 10, "rows": [{"overhead_pct": 11.5}]}"#).is_empty());
        assert_eq!(diffs(base, r#"{"tolerance_pct": 10, "rows": [{"overhead_pct": 12.5}]}"#).len(), 1);
    }

    #[test]
    fn the_declared_band_does_not_cover_the_header() {
        // `ethernet_bytes_per_sec` is a configuration constant, `repeat`
        // and `seed` likewise: no band, whatever the artifact declares.
        let base = r#"{"tolerance_pct": 10, "ethernet_bytes_per_sec": 250000000, "repeat": 3, "rows": []}"#;
        let d = diffs(base, r#"{"tolerance_pct": 10, "ethernet_bytes_per_sec": 260000000, "repeat": 3, "rows": []}"#);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].starts_with("ethernet_bytes_per_sec:"), "{d:?}");
        let d = diffs(base, r#"{"tolerance_pct": 12, "ethernet_bytes_per_sec": 250000000, "repeat": 3, "rows": []}"#);
        assert_eq!(d.len(), 1, "the declaration itself is a header leaf: {d:?}");
    }

    #[test]
    fn a_size_mismatch_is_one_line_not_a_diff_per_row() {
        let base = r#"{"quick": false, "nodes": 4, "rows": [{"a": 1}, {"a": 2}, {"a": 3}]}"#;
        let d = diffs(base, r#"{"quick": true, "nodes": 4, "rows": [{"a": 7}, {"a": 8}, {"a": 9}]}"#);
        assert_eq!(d, ["baseline is full-size, artifact is --quick"]);
        let d = diffs(base, r#"{"quick": false, "nodes": 2, "rows": [{"a": 7}, {"a": 8}, {"a": 9}]}"#);
        assert_eq!(d, ["baseline ran on 4 nodes, artifact on 2"]);
    }

    #[test]
    fn checksums_one_apart_differ() {
        // As bare JSON numbers these two 64-bit checksums parse to the
        // same f64 and gate as equal; as hex strings they cannot.
        let (a, b) = (12957588950740454459u64, 12957588950740454458u64);
        let doc = |c: u64| format!(r#"{{"cells": [{{"checksum": "{c:#018x}"}}]}}"#);
        let d = diffs(&doc(a), &doc(b));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].starts_with("cells[0].checksum:"), "{d:?}");
        assert!(diffs(&format!(r#"{{"c": {a}}}"#), &format!(r#"{{"c": {b}}}"#)).is_empty());
    }

    #[test]
    fn without_a_declaration_leaves_stay_exact() {
        assert_eq!(diffs(r#"{"hamster_s": 100.0}"#, r#"{"hamster_s": 100.1}"#).len(), 1);
    }

    #[test]
    fn structural_changes_are_reported() {
        let d = diffs(r#"{"rows": [1, 2]}"#, r#"{"rows": [1, 2, 3]}"#);
        assert!(d[0].contains("length 2 -> 3"), "{d:?}");
        let d = diffs(r#"{"a": 1}"#, r#"{"b": 1}"#);
        assert_eq!(d.len(), 2, "one missing, one new: {d:?}");
    }

    #[test]
    fn diff_flood_is_capped() {
        let base: String =
            format!("{{{}}}", (0..40).map(|i| format!("\"k{i:02}\": 0")).collect::<Vec<_>>().join(", "));
        let cur: String =
            format!("{{{}}}", (0..40).map(|i| format!("\"k{i:02}\": 1")).collect::<Vec<_>>().join(", "));
        assert_eq!(diffs(&base, &cur).len(), MAX_DIFFS);
    }
}
