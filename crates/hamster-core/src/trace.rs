//! Event tracing: a virtual-time-stamped record of HAMSTER service and
//! protocol activity, plus exporters for external tools.
//!
//! Counters (paper §4.3) aggregate; traces *order*. There is one
//! collection mechanism: the process-global [`TraceSession`] an
//! external tool opens around a run (see `examples/trace_tool.rs`). It
//! captures the HAMSTER services' own instants and the layers *below*
//! the HAMSTER interface — page faults, diffs and write notices in the
//! software DSM, SCI transactions in the hybrid DSM, interconnect
//! requests, and bus-window stalls — each stamped with the emitting
//! node and virtual time, merged in virtual-time order at `finish`.
//!
//! ```
//! use hamster_core::{ClusterConfig, PlatformKind, Runtime, TraceSession};
//!
//! let session = TraceSession::begin();
//! let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::Smp));
//! rt.run(|ham| {
//!     ham.sync().lock(3);
//!     ham.sync().unlock(3);
//!     ham.sync().barrier(0);
//! });
//! drop(rt);
//! let timeline = session.finish();
//! assert!(timeline.iter().any(|e| e.module == "sync" && e.op == "lock"));
//! ```
//!
//! A finished timeline renders to Chrome's `trace_event` JSON format
//! ([`chrome_trace_json`], loadable in `chrome://tracing` or Perfetto)
//! or to a plain-text per-node Gantt chart ([`gantt_summary`]).
//!
//! ```
//! use hamster_core::trace::{chrome_trace_json, validate_chrome_trace, TraceEvent};
//!
//! let events = [TraceEvent {
//!     t_ns: 1_500, dur_ns: 800, node: 0, module: "swdsm", op: "page_fault", arg: 4096,
//!     corr: 0,
//! }];
//! let json = chrome_trace_json(&events);
//! assert_eq!(validate_chrome_trace(&json).unwrap(), 1);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use sim::trace::{TraceEvent, TraceSession};

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Nanoseconds rendered as a microsecond decimal (Chrome's `ts` unit)
/// without going through floating point.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render a timeline to Chrome `trace_event` JSON (the "JSON Array
/// Format" with a `traceEvents` wrapper), loadable in `chrome://tracing`
/// or [Perfetto](https://ui.perfetto.dev).
///
/// Mapping: each simulated node becomes a process (`pid` = node, named
/// via metadata events), each emitting module a thread within it. Span
/// events (`dur_ns > 0`) render as complete slices (`ph: "X"`); instant
/// events as thread-scoped instants (`ph: "i"`). The event argument is
/// preserved under `args.arg`; correlated events additionally carry
/// their correlation id under `args.corr`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // Stable (node, module) -> tid assignment in order of appearance.
    let mut tids: BTreeMap<(usize, &'static str), u64> = BTreeMap::new();
    for ev in events {
        let next = tids.len() as u64;
        tids.entry((ev.node, ev.module)).or_insert(next);
    }
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };
    // Metadata: name processes after nodes and threads after modules so
    // the timeline reads "node 0 / swdsm", "node 0 / sync", ...
    let mut nodes_named: Vec<usize> = Vec::new();
    for (&(node, module), &tid) in &tids {
        if !nodes_named.contains(&node) {
            nodes_named.push(node);
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"node {node}\"}}}}"
            );
        }
        push_sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\""
        ));
        escape_json(module, &mut out);
        out.push_str("\"}}");
    }
    for ev in events {
        let tid = tids[&(ev.node, ev.module)];
        push_sep(&mut out, &mut first);
        out.push_str("{\"name\":\"");
        escape_json(ev.op, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(ev.module, &mut out);
        out.push('"');
        let _ = write!(out, ",\"pid\":{},\"tid\":{},\"ts\":{}", ev.node, tid, us(ev.t_ns));
        if ev.dur_ns > 0 {
            let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", us(ev.dur_ns));
        } else {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
        if ev.corr != 0 {
            let _ = write!(out, ",\"args\":{{\"arg\":{},\"corr\":{}}}}}", ev.arg, ev.corr);
        } else {
            let _ = write!(out, ",\"args\":{{\"arg\":{}}}}}", ev.arg);
        }
    }
    out.push_str("]}");
    out
}

/// Render a timeline as a plain-text per-node Gantt summary, `width`
/// columns wide. One row per `(node, module)` lane; span events fill
/// their bucket range with `#`, instants mark a single bucket with `.`
/// (`:` where both overlap). Rows are grouped by node with a final
/// event-count column.
///
/// Degenerate inputs render cleanly: an empty timeline yields a single
/// `(no events)` line instead of a bare header, and `width` is the
/// chart-column count (clamped to at least 10), so lane labels longer
/// than `width` never garble the layout — the label column is sized
/// independently.
pub fn gantt_summary(events: &[TraceEvent], width: usize) -> String {
    if events.is_empty() {
        return "(no events)\n".to_string();
    }
    let width = width.max(10);
    let end_ns = events.iter().map(|e| e.t_ns + e.dur_ns).max().unwrap_or(0).max(1);
    let bucket = |ns: u64| -> usize {
        ((ns as u128 * width as u128 / end_ns as u128) as usize).min(width - 1)
    };
    let mut lanes: BTreeMap<(usize, &'static str), (Vec<u8>, usize)> = BTreeMap::new();
    for ev in events {
        let (row, count) = lanes
            .entry((ev.node, ev.module))
            .or_insert_with(|| (vec![b' '; width], 0));
        *count += 1;
        if ev.dur_ns > 0 {
            for cell in &mut row[bucket(ev.t_ns)..=bucket(ev.t_ns + ev.dur_ns)] {
                *cell = if *cell == b'.' || *cell == b':' { b':' } else { b'#' };
            }
        } else {
            let cell = &mut row[bucket(ev.t_ns)];
            *cell = match *cell {
                b'#' | b':' => b':',
                _ => b'.',
            };
        }
    }
    let label_w = lanes
        .keys()
        .map(|(n, m)| format!("node{n} {m}").len())
        .max()
        .unwrap_or(0)
        .max(8);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:label_w$} |{:width$}| events   (0 .. {:.3} ms)",
        "lane",
        "",
        end_ns as f64 / 1e6
    );
    let mut last_node = usize::MAX;
    for ((node, module), (row, count)) in &lanes {
        if *node != last_node && last_node != usize::MAX {
            let _ = writeln!(out, "{:label_w$} |{}|", "", "-".repeat(width));
        }
        last_node = *node;
        let _ = writeln!(
            out,
            "{:label_w$} |{}| {count}",
            format!("node{node} {module}"),
            String::from_utf8_lossy(row)
        );
    }
    out
}

/// Check that `json` is well-formed JSON in Chrome's `trace_event`
/// "JSON Object Format": a root object whose `traceEvents` member is an
/// array of event objects each carrying `ph`, `pid`, `tid` and `name`,
/// with `ts` (and `dur` for complete events) on every non-metadata
/// event. Returns the number of non-metadata events.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let root = mini_json::parse(json)?;
    let obj = root.as_object().ok_or("root is not an object")?;
    let events = obj
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut n = 0;
    for (i, ev) in events.iter().enumerate() {
        let ev = ev.as_object().ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i} missing ph"))?;
        for key in ["pid", "tid", "name"] {
            if !ev.contains_key(key) {
                return Err(format!("event {i} missing {key}"));
            }
        }
        if ph == "M" {
            continue;
        }
        if !ev.get("ts").is_some_and(|v| v.is_number()) {
            return Err(format!("event {i} missing numeric ts"));
        }
        if ph == "X" && !ev.get("dur").is_some_and(|v| v.is_number()) {
            return Err(format!("complete event {i} missing numeric dur"));
        }
        n += 1;
    }
    Ok(n)
}

/// The shared offline JSON reader ([`sim::json`]), used here to
/// validate exported traces and in tests to read reports back.
use sim::json as mini_json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_export_validates_and_counts() {
        let events = vec![
            TraceEvent {
                t_ns: 100, dur_ns: 50, node: 0, module: "swdsm", op: "page_fault", arg: 7,
                corr: 0,
            },
            TraceEvent {
                t_ns: 180, dur_ns: 0, node: 1, module: "sync", op: "lock_grant", arg: 3,
                corr: 42,
            },
        ];
        let json = chrome_trace_json(&events);
        assert_eq!(validate_chrome_trace(&json).unwrap(), 2);
        // Span became a complete event with its µs-scaled timestamps.
        assert!(json.contains("\"ph\":\"X\",\"dur\":0.050"));
        assert!(json.contains("\"ts\":0.100"));
        // Both lanes got thread-name metadata.
        assert!(json.contains("\"name\":\"swdsm\""));
        assert!(json.contains("\"name\":\"sync\""));
        // The correlation id is preserved (and omitted when zero).
        assert!(json.contains("\"corr\":42"));
        assert!(json.contains("{\"arg\":7}"));
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_chrome_trace("{").is_err());
        assert!(validate_chrome_trace("{\"x\":1}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"pid\":0}]}")
                .unwrap_err()
                .contains("missing ph")
        );
        // Complete event without dur.
        let bad = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"x\",\"ts\":1}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("dur"));
    }

    #[test]
    fn gantt_has_one_lane_per_node_module() {
        let events = vec![
            TraceEvent { t_ns: 0, dur_ns: 400, node: 0, module: "phase", op: "compute", arg: 0, corr: 0 },
            TraceEvent { t_ns: 500, dur_ns: 0, node: 0, module: "sync", op: "barrier", arg: 0, corr: 0 },
            TraceEvent { t_ns: 200, dur_ns: 100, node: 1, module: "phase", op: "compute", arg: 0, corr: 0 },
        ];
        let text = gantt_summary(&events, 40);
        assert!(text.contains("node0 phase"));
        assert!(text.contains("node0 sync"));
        assert!(text.contains("node1 phase"));
        assert!(text.contains('#'));
        assert!(text.contains('.'));
    }

    #[test]
    fn gantt_empty_timeline_is_a_clean_line() {
        assert_eq!(gantt_summary(&[], 60), "(no events)\n");
        assert_eq!(gantt_summary(&[], 0), "(no events)\n");
    }

    #[test]
    fn gantt_small_width_stays_aligned() {
        let events =
            vec![TraceEvent { t_ns: 0, dur_ns: 10, node: 0, module: "hybriddsm", op: "x", arg: 0, corr: 0 }];
        // Width far below the lane-label length: the chart clamps to 10
        // columns and every row keeps the same label column width.
        let text = gantt_summary(&events, 2);
        let bars: Vec<usize> =
            text.lines().map(|l| l.find('|').expect("every row has a chart")).collect();
        assert!(bars.windows(2).all(|w| w[0] == w[1]), "misaligned rows:\n{text}");
        assert!(text.contains("node0 hybriddsm"));
    }

    #[test]
    fn mini_json_roundtrips_escapes() {
        let v = mini_json::parse("{\"a\\n\": [1, -2.5e2, \"\\u0041ß\", true, null]}").unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj.get("a\n").unwrap().as_array().unwrap();
        assert_eq!(arr[2].as_str(), Some("Aß"));
        assert!(arr[1].is_number());
    }
}
