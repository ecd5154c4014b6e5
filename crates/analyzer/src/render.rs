//! Report rendering: deterministic JSON, a human-readable text summary,
//! and schema validation for the emitted JSON.
//!
//! The JSON renderer writes only integers, in a fixed field order, from
//! already-deterministically-ordered vectors — so the same virtual
//! schedule always produces a byte-identical document (the property the
//! analysis benchmark's CI job checks with a plain file compare).

use crate::{Lane, Report, LANES};
use sim::Quantiles;
use std::fmt::Write as _;

/// Schema identifier stamped into every report document.
pub const SCHEMA: &str = "hamster-analysis-v1";

fn quantiles_json(q: &Quantiles) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}, \"mean\": {}}}",
        q.count, q.p50, q.p90, q.p99, q.p999, q.max, q.mean
    )
}

fn lanes_json(lanes: &[u64; LANES]) -> String {
    let mut s = String::from("{");
    for (i, lane) in Lane::all().into_iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}_ns\": {}", lane.name(), lanes[lane as usize]);
    }
    s.push('}');
    s
}

impl Report {
    /// Render the report as a deterministic JSON document (see
    /// [`validate`] for the schema).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(s, "  \"makespan_ns\": {},", self.makespan_ns);
        let _ = writeln!(s, "  \"events\": {},", self.events);

        let _ = writeln!(s, "  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            let comma = if i + 1 < self.nodes.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"node\": {}, \"makespan_ns\": {}, \"lanes\": {}}}{comma}",
                n.node,
                n.makespan_ns,
                lanes_json(&n.lanes)
            );
        }
        let _ = writeln!(s, "  ],");

        let cp = &self.critical_path;
        let _ = writeln!(s, "  \"critical_path\": {{");
        let _ = writeln!(s, "    \"total_ns\": {},", cp.total_ns);
        let _ = writeln!(s, "    \"steps\": {},", cp.steps);
        let _ = writeln!(s, "    \"contributors\": [");
        for (i, c) in cp.contributors.iter().enumerate() {
            let comma = if i + 1 < cp.contributors.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "      {{\"lane\": \"{}\", \"node\": {}, \"op\": \"{}\", \"ns\": {}}}{comma}",
                c.lane.name(),
                c.node,
                c.op,
                c.ns
            );
        }
        let _ = writeln!(s, "    ]");
        let _ = writeln!(s, "  }},");

        let _ = writeln!(s, "  \"locks\": [");
        for (i, l) in self.locks.iter().enumerate() {
            let comma = if i + 1 < self.locks.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"module\": \"{}\", \"lock\": {}, \"acquires\": {}, \"wait_ns\": {}, \
                 \"wait\": {}, \"holds\": {}, \"hold_ns\": {}, \"grants\": {}, \
                 \"handoffs\": {}, \"top_acquirer\": {}, \"top_acquirer_acquires\": {}}}{comma}",
                l.module,
                l.lock,
                l.acquires,
                l.wait_ns,
                quantiles_json(&l.wait),
                l.holds,
                l.hold_ns,
                l.grants,
                l.handoffs,
                l.top_acquirer,
                l.top_acquirer_acquires
            );
        }
        let _ = writeln!(s, "  ],");

        let _ = writeln!(s, "  \"pages\": [");
        for (i, p) in self.pages.iter().enumerate() {
            let comma = if i + 1 < self.pages.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"page\": {}, \"faults\": {}, \"fault_ns\": {}, \"writers\": {}, \
                 \"writes\": {}, \"top_writer\": {}, \"top_writer_writes\": {}}}{comma}",
                p.page, p.faults, p.fault_ns, p.writers, p.writes, p.top_writer,
                p.top_writer_writes
            );
        }
        let _ = writeln!(s, "  ],");

        let _ = writeln!(s, "  \"false_sharing\": [");
        for (i, f) in self.false_sharing.iter().enumerate() {
            let comma = if i + 1 < self.false_sharing.len() { "," } else { "" };
            let nodes: Vec<String> = f.nodes.iter().map(|n| n.to_string()).collect();
            let offs: Vec<String> = f.offsets.iter().map(|o| o.to_string()).collect();
            let _ = writeln!(
                s,
                "    {{\"page\": {}, \"nodes\": [{}], \"offsets\": [{}]}}{comma}",
                f.page,
                nodes.join(", "),
                offs.join(", ")
            );
        }
        let _ = writeln!(s, "  ],");

        let _ = writeln!(s, "  \"invalidations\": {},", self.invalidations);
        let _ = writeln!(s, "  \"net_rtt\": {},", quantiles_json(&self.net_rtt));
        let _ = writeln!(s, "  \"lock_wait\": {},", quantiles_json(&self.lock_wait));

        let _ = writeln!(s, "  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 < self.phases.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"total_ns\": {}, \"lanes\": {}}}{comma}",
                p.name,
                p.total_ns,
                lanes_json(&p.lanes)
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
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

fn expect_num(v: &sim::json::Value, key: &str) -> Result<(), String> {
    match v.get(key) {
        Some(n) if n.is_number() => Ok(()),
        Some(_) => Err(format!("'{key}' is not a number")),
        None => Err(format!("missing '{key}'")),
    }
}

fn expect_quantiles(v: &sim::json::Value, key: &str) -> Result<(), String> {
    let q = v.get(key).ok_or_else(|| format!("missing '{key}'"))?;
    for f in ["count", "p50", "p90", "p99", "p999", "max", "mean"] {
        expect_num(q, f).map_err(|e| format!("{key}: {e}"))?;
    }
    Ok(())
}

fn expect_array<'a>(
    v: &'a sim::json::Value,
    key: &str,
) -> Result<&'a [sim::json::Value], String> {
    v.get(key)
        .and_then(|a| a.as_array())
        .ok_or_else(|| format!("missing array '{key}'"))
}

/// Validate a rendered report document against the
/// `hamster-analysis-v1` schema. Returns the first problem found.
pub fn validate(json: &str) -> Result<(), String> {
    let v = sim::json::parse(json)?;
    if v.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
        return Err(format!("schema marker is not \"{SCHEMA}\""));
    }
    expect_num(&v, "makespan_ns")?;
    expect_num(&v, "events")?;
    expect_num(&v, "invalidations")?;
    expect_quantiles(&v, "net_rtt")?;
    expect_quantiles(&v, "lock_wait")?;

    let lane_keys =
        ["compute_ns", "net_ns", "page_fault_ns", "lock_wait_ns", "barrier_wait_ns"];
    for (i, n) in expect_array(&v, "nodes")?.iter().enumerate() {
        expect_num(n, "node").map_err(|e| format!("nodes[{i}]: {e}"))?;
        expect_num(n, "makespan_ns").map_err(|e| format!("nodes[{i}]: {e}"))?;
        let lanes = n.get("lanes").ok_or_else(|| format!("nodes[{i}]: missing 'lanes'"))?;
        for k in lane_keys {
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

    for (i, l) in expect_array(&v, "locks")?.iter().enumerate() {
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
    for (i, p) in expect_array(&v, "pages")?.iter().enumerate() {
        for k in
            ["page", "faults", "fault_ns", "writers", "writes", "top_writer", "top_writer_writes"]
        {
            expect_num(p, k).map_err(|e| format!("pages[{i}]: {e}"))?;
        }
    }
    for (i, f) in expect_array(&v, "false_sharing")?.iter().enumerate() {
        expect_num(f, "page").map_err(|e| format!("false_sharing[{i}]: {e}"))?;
        for k in ["nodes", "offsets"] {
            if f.get(k).and_then(|a| a.as_array()).is_none() {
                return Err(format!("false_sharing[{i}]: missing array '{k}'"));
            }
        }
    }
    for (i, p) in expect_array(&v, "phases")?.iter().enumerate() {
        if p.get("name").and_then(|n| n.as_str()).is_none() {
            return Err(format!("phases[{i}]: missing 'name'"));
        }
        expect_num(p, "total_ns").map_err(|e| format!("phases[{i}]: {e}"))?;
        let lanes = p.get("lanes").ok_or_else(|| format!("phases[{i}]: missing 'lanes'"))?;
        for k in lane_keys {
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
        let r = sample();
        let j = r.to_json();
        validate(&j).unwrap();
        assert_eq!(j, sample().to_json());
    }

    #[test]
    fn validate_rejects_wrong_schema_and_broken_sums() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"schema\": \"other\"}").is_err());
        let j = sample().to_json().replace("\"makespan_ns\": 50,", "\"makespan_ns\": 51,");
        // Global makespan is untouched by lane sums; break a node row.
        let j2 = j.replace("\"compute_ns\": 0", "\"compute_ns\": 7");
        assert!(validate(&j2).is_err());
    }

    #[test]
    fn text_summary_names_the_lanes() {
        let t = sample().render_text();
        assert!(t.contains("critical path"));
        assert!(t.contains("lock_wait"));
        assert!(t.contains("node 0"));
    }
}
