//! Report rendering: the report as a JSON value, a human-readable text
//! summary, and schema validation of that value.
//!
//! The JSON value holds only integers and names, in a fixed member
//! order, from already-deterministically-ordered vectors — so the same
//! virtual schedule always produces a byte-identical document (the
//! property the analysis benchmark's CI job checks with a plain file
//! compare).

use crate::{Lane, Report, LANES};
use sim::json::Value;
use sim::Quantiles;
use std::fmt::Write as _;

/// Schema identifier stamped into every report document.
pub const SCHEMA: &str = "hamster-analysis-v1";

/// One JSON array item per element of `items`.
fn rows<T>(items: &[T], row: impl Fn(&T) -> Value) -> Value {
    Value::Arr(items.iter().map(row).collect())
}

impl Report {
    /// The report as a `hamster-analysis-v1` JSON value (see
    /// [`validate`] for the schema); `.pretty()` renders the document.
    pub fn to_value(&self) -> Value {
        let quantiles = |q: &Quantiles| {
            Value::obj([
                ("count", Value::int(q.count)),
                ("p50", Value::int(q.p50)),
                ("p90", Value::int(q.p90)),
                ("p99", Value::int(q.p99)),
                ("p999", Value::int(q.p999)),
                ("max", Value::int(q.max)),
                ("mean", Value::int(q.mean)),
            ])
        };
        let lanes = |lanes: &[u64; LANES]| {
            Value::obj(Lane::all().map(|l| (format!("{}_ns", l.name()), Value::int(lanes[l as usize]))))
        };
        let cp = &self.critical_path;
        Value::obj([
            ("schema", Value::str(SCHEMA)),
            ("makespan_ns", Value::int(self.makespan_ns)),
            ("events", Value::int(self.events)),
            ("nodes", rows(&self.nodes, |n| Value::obj([
                ("node", Value::int(n.node)),
                ("makespan_ns", Value::int(n.makespan_ns)),
                ("lanes", lanes(&n.lanes)),
            ]))),
            ("critical_path", Value::obj([
                ("total_ns", Value::int(cp.total_ns)),
                ("steps", Value::int(cp.steps)),
                ("contributors", rows(&cp.contributors, |c| Value::obj([
                    ("lane", Value::str(c.lane.name())),
                    ("node", Value::int(c.node)),
                    ("op", Value::str(c.op)),
                    ("ns", Value::int(c.ns)),
                ]))),
            ])),
            ("locks", rows(&self.locks, |l| Value::obj([
                ("module", Value::str(l.module)),
                ("lock", Value::int(l.lock)),
                ("acquires", Value::int(l.acquires)),
                ("wait_ns", Value::int(l.wait_ns)),
                ("wait", quantiles(&l.wait)),
                ("holds", Value::int(l.holds)),
                ("hold_ns", Value::int(l.hold_ns)),
                ("grants", Value::int(l.grants)),
                ("handoffs", Value::int(l.handoffs)),
                ("top_acquirer", Value::int(l.top_acquirer)),
                ("top_acquirer_acquires", Value::int(l.top_acquirer_acquires)),
            ]))),
            ("pages", rows(&self.pages, |p| Value::obj([
                ("page", Value::int(p.page)),
                ("faults", Value::int(p.faults)),
                ("fault_ns", Value::int(p.fault_ns)),
                ("writers", Value::int(p.writers)),
                ("writes", Value::int(p.writes)),
                ("top_writer", Value::int(p.top_writer)),
                ("top_writer_writes", Value::int(p.top_writer_writes)),
            ]))),
            ("false_sharing", rows(&self.false_sharing, |f| Value::obj([
                ("page", Value::int(f.page)),
                ("nodes", rows(&f.nodes, |&n| Value::int(n))),
                ("offsets", rows(&f.offsets, |&o| Value::int(o))),
            ]))),
            ("invalidations", Value::int(self.invalidations)),
            ("net_rtt", quantiles(&self.net_rtt)),
            ("lock_wait", quantiles(&self.lock_wait)),
            ("phases", rows(&self.phases, |p| Value::obj([
                ("name", Value::str(p.name)),
                ("total_ns", Value::int(p.total_ns)),
                ("lanes", lanes(&p.lanes)),
            ]))),
        ])
    }

    /// Render a human-readable summary: lane breakdown per node, the
    /// top critical-path contributors, and the contention highlights.
    pub fn render_text(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "trace analysis: {} events, makespan {:.3} ms",
            self.events,
            ms(self.makespan_ns)
        );
        for n in &self.nodes {
            let _ = write!(s, "  node {}: {:>9.3} ms =", n.node, ms(n.makespan_ns));
            for lane in Lane::all() {
                let _ = write!(s, " {} {:.3}", lane.name(), ms(n.lanes[lane as usize]));
            }
            let _ = writeln!(s);
        }
        let _ = writeln!(
            s,
            "  critical path: {:.3} ms over {} steps; top contributors:",
            ms(self.critical_path.total_ns),
            self.critical_path.steps
        );
        for c in self.critical_path.contributors.iter().take(5) {
            let _ = writeln!(
                s,
                "    {:>12} node {} {:<14} {:>9.3} ms",
                c.lane.name(),
                c.node,
                c.op,
                ms(c.ns)
            );
        }
        for l in &self.locks {
            let _ = writeln!(
                s,
                "  lock {}/{}: {} acquires, wait {:.3} ms (p99 {:.3}), {} handoffs",
                l.module,
                l.lock,
                l.acquires,
                ms(l.wait_ns),
                ms(l.wait.p99),
                l.handoffs
            );
        }
        if !self.false_sharing.is_empty() {
            let _ = writeln!(s, "  false sharing on {} page(s):", self.false_sharing.len());
            for f in &self.false_sharing {
                let _ = writeln!(
                    s,
                    "    page {:#x}: nodes {:?} at offsets {:?}",
                    f.page, f.nodes, f.offsets
                );
            }
        }
        s
    }
}

fn expect_num(v: &Value, key: &str) -> Result<(), String> {
    match v.get(key) {
        Some(n) if n.is_number() => Ok(()),
        Some(_) => Err(format!("'{key}' is not a number")),
        None => Err(format!("missing '{key}'")),
    }
}

fn expect_quantiles(v: &Value, key: &str) -> Result<(), String> {
    let q = v.get(key).ok_or_else(|| format!("missing '{key}'"))?;
    for f in ["count", "p50", "p90", "p99", "p999", "max", "mean"] {
        expect_num(q, f).map_err(|e| format!("{key}: {e}"))?;
    }
    Ok(())
}

fn expect_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(|a| a.as_array())
        .ok_or_else(|| format!("missing array '{key}'"))
}

/// Validate a report document against the `hamster-analysis-v1`
/// schema. Returns the first problem found.
pub fn validate(v: &Value) -> Result<(), String> {
    if v.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
        return Err(format!("schema marker is not \"{SCHEMA}\""));
    }
    expect_num(v, "makespan_ns")?;
    expect_num(v, "events")?;
    expect_num(v, "invalidations")?;
    expect_quantiles(v, "net_rtt")?;
    expect_quantiles(v, "lock_wait")?;

    let lane_keys = Lane::all().map(|l| format!("{}_ns", l.name()));
    for (i, n) in expect_array(v, "nodes")?.iter().enumerate() {
        expect_num(n, "node").map_err(|e| format!("nodes[{i}]: {e}"))?;
        expect_num(n, "makespan_ns").map_err(|e| format!("nodes[{i}]: {e}"))?;
        let lanes = n.get("lanes").ok_or_else(|| format!("nodes[{i}]: missing 'lanes'"))?;
        for k in &lane_keys {
            expect_num(lanes, k).map_err(|e| format!("nodes[{i}].lanes: {e}"))?;
        }
        // The tiling invariant: lanes sum to the node makespan.
        let sum: f64 =
            lane_keys.iter().filter_map(|k| lanes.get(k)).filter_map(|x| x.as_num()).sum();
        let makespan = n.get("makespan_ns").and_then(|x| x.as_num()).unwrap_or(0.0);
        if (sum - makespan).abs() > 0.5 {
            return Err(format!("nodes[{i}]: lanes sum {sum} != makespan {makespan}"));
        }
    }

    let cp = v.get("critical_path").ok_or("missing 'critical_path'")?;
    expect_num(cp, "total_ns").map_err(|e| format!("critical_path: {e}"))?;
    expect_num(cp, "steps").map_err(|e| format!("critical_path: {e}"))?;
    for (i, c) in expect_array(cp, "contributors")?.iter().enumerate() {
        for k in ["node", "ns"] {
            expect_num(c, k).map_err(|e| format!("contributors[{i}]: {e}"))?;
        }
        if c.get("lane").and_then(|l| l.as_str()).is_none() {
            return Err(format!("contributors[{i}]: missing 'lane'"));
        }
        if c.get("op").and_then(|o| o.as_str()).is_none() {
            return Err(format!("contributors[{i}]: missing 'op'"));
        }
    }

    for (i, l) in expect_array(v, "locks")?.iter().enumerate() {
        if l.get("module").and_then(|m| m.as_str()).is_none() {
            return Err(format!("locks[{i}]: missing 'module'"));
        }
        for k in [
            "lock",
            "acquires",
            "wait_ns",
            "holds",
            "hold_ns",
            "grants",
            "handoffs",
            "top_acquirer",
            "top_acquirer_acquires",
        ] {
            expect_num(l, k).map_err(|e| format!("locks[{i}]: {e}"))?;
        }
        expect_quantiles(l, "wait").map_err(|e| format!("locks[{i}]: {e}"))?;
    }
    for (i, p) in expect_array(v, "pages")?.iter().enumerate() {
        for k in
            ["page", "faults", "fault_ns", "writers", "writes", "top_writer", "top_writer_writes"]
        {
            expect_num(p, k).map_err(|e| format!("pages[{i}]: {e}"))?;
        }
    }
    for (i, f) in expect_array(v, "false_sharing")?.iter().enumerate() {
        expect_num(f, "page").map_err(|e| format!("false_sharing[{i}]: {e}"))?;
        for k in ["nodes", "offsets"] {
            if f.get(k).and_then(|a| a.as_array()).is_none() {
                return Err(format!("false_sharing[{i}]: missing array '{k}'"));
            }
        }
    }
    for (i, p) in expect_array(v, "phases")?.iter().enumerate() {
        if p.get("name").and_then(|n| n.as_str()).is_none() {
            return Err(format!("phases[{i}]: missing 'name'"));
        }
        expect_num(p, "total_ns").map_err(|e| format!("phases[{i}]: {e}"))?;
        let lanes = p.get("lanes").ok_or_else(|| format!("phases[{i}]: missing 'lanes'"))?;
        for k in &lane_keys {
            expect_num(lanes, k).map_err(|e| format!("phases[{i}].lanes: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::TraceEvent;

    fn sample() -> Report {
        crate::analyze(&[
            TraceEvent {
                t_ns: 0,
                dur_ns: 50,
                node: 0,
                module: "swdsm",
                op: "lock_acquire",
                arg: 1,
                corr: 2,
            },
            TraceEvent {
                t_ns: 10,
                dur_ns: 20,
                node: 1,
                module: "net",
                op: "request",
                arg: 3,
                corr: 4,
            },
        ])
    }

    #[test]
    fn json_validates_and_is_deterministic() {
        let v = sample().to_value();
        validate(&v).unwrap();
        assert_eq!(v.pretty(), sample().to_value().pretty());
        let back = sim::json::parse(&v.pretty()).unwrap();
        validate(&back).unwrap();
        assert_eq!(back.pretty(), v.pretty());
    }

    #[test]
    fn validate_rejects_wrong_schema_and_broken_sums() {
        assert!(validate(&Value::Obj(Vec::new())).is_err());
        assert!(validate(&Value::obj([("schema", Value::str("other"))])).is_err());
        // Break a node row's tiling: its lanes no longer sum to its makespan.
        let mut r = sample();
        r.nodes[0].lanes[Lane::Compute as usize] += 7;
        assert!(validate(&r.to_value()).is_err());
    }

    #[test]
    fn text_summary_names_the_lanes() {
        let t = sample().render_text();
        assert!(t.contains("critical path"));
        assert!(t.contains("lock_wait"));
        assert!(t.contains("node 0"));
    }
}
