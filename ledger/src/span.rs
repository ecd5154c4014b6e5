//! Host-time spans recorded by the benchmark around its calls into each
//! layer, kept in memory and written at exit as Chrome `trace_event`
//! JSON.
//!
//! A span carries id, parent, name, start, end, the repetition it
//! belongs to and the lane (thread) it ran on. Threads buffer their
//! spans in a [`Lane`] and hand them over once, when the lane is
//! dropped. Calls too many to keep one by one (shared-memory reads of a
//! kernel, the requests of the KV service) are folded into per-lane
//! [`ClassTotals`] instead: count, total and maximum per call class.

use crate::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
    /// Chrome `tid`: 0 is the main thread, `1 + rank` a node thread.
    pub lane: u32,
    /// Folded call classes that ran inside this span (rank spans only).
    pub classes: Vec<ClassTotal>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and maximum host time of one call class inside a span.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassTotal {
    pub class: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// The process-wide span store.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A buffer for the calling thread's spans.
    pub fn lane(&self, lane: u32, rep: u32) -> Lane<'_> {
        Lane { rec: Some(self), lane, rep, buf: Vec::new() }
    }

    /// Every span handed over so far, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span: closed, and only then stored, by [`Lane::close`].
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
}

/// One thread's span buffer. A lane that is [`Lane::off`] records
/// nothing and reads no clock, so untraced runs share the code path of
/// traced ones without paying for it.
pub struct Lane<'r> {
    rec: Option<&'r Recorder>,
    lane: u32,
    rep: u32,
    buf: Vec<Span>,
}

impl<'r> Lane<'r> {
    /// The lane of an untraced run.
    pub fn off() -> Self {
        Lane { rec: None, lane: 0, rep: 0, buf: Vec::new() }
    }

    /// The recorder behind this lane and the repetition it is recording,
    /// for opening the lanes of other threads; `None` when off.
    pub fn recording(&self) -> Option<(&'r Recorder, u32)> {
        self.rec.map(|rec| (rec, self.rep))
    }

    pub fn open(&self, parent: u64, name: &str) -> Open {
        match self.rec {
            Some(rec) => {
                Open { id: rec.fresh_id(), parent, name: name.to_string(), start_ns: rec.now_ns() }
            }
            None => Open { id: 0, parent, name: String::new(), start_ns: 0 },
        }
    }

    pub fn close(&mut self, open: Open) {
        self.close_with(open, Vec::new());
    }

    pub fn close_with(&mut self, open: Open, classes: Vec<ClassTotal>) {
        let Some(rec) = self.rec else { return };
        self.buf.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: rec.now_ns(),
            rep: self.rep,
            lane: self.lane,
            classes,
        });
    }

    /// Time `f` as a child span of `parent`; `f` gets the span's id for
    /// children of its own.
    pub fn scope<T>(&mut self, parent: u64, name: &str, f: impl FnOnce(&mut Self, u64) -> T) -> T {
        let open = self.open(parent, name);
        let out = f(self, open.id);
        self.close(open);
        out
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.filter(|_| !self.buf.is_empty()) {
            // A poisoned store means another thread already panicked;
            // its message is the one worth seeing.
            if let Ok(mut spans) = rec.spans.lock() {
                spans.append(&mut self.buf);
            }
        }
    }
}

/// Length of the part of `[start, end)` that `intervals` cover, overlaps
/// counted once.
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            total += e - s.max(reach);
            reach = e;
        }
    }
    total
}

/// Every span's self time, in the order of `spans`: its duration minus
/// the part of it that its child spans (which may run in parallel on
/// other lanes) cover, minus the calls folded into it. For a rank span
/// that is the application's own time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            let folded: u64 = s.classes.iter().map(|c| c.total_ns).sum();
            (s.dur_ns() - covered).saturating_sub(folded)
        })
        .collect()
}

/// The spans as a Chrome `trace_event` document (object form, complete
/// `X` events, microsecond timestamps). Each span's self time and the
/// classes folded into it sit in its `args`.
pub fn chrome_trace(spans: &[Span], meta: Json) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let events = spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, self_ns)| {
            let mut args = vec![
                ("id".to_string(), Json::from(s.id)),
                ("parent".to_string(), Json::from(s.parent)),
                ("rep".to_string(), Json::from(u64::from(s.rep))),
                ("self_us".to_string(), us(self_ns)),
            ];
            for c in &s.classes {
                args.push((
                    c.class.to_string(),
                    Json::obj([
                        ("count", Json::from(c.count)),
                        ("total_us", us(c.total_ns)),
                        ("max_us", us(c.max_ns)),
                    ]),
                ));
            }
            Json::obj([
                ("name", Json::from(s.name.as_str())),
                ("cat", Json::from("ledger")),
                ("ph", Json::from("X")),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(u64::from(s.lane))),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns())),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::from("ms")),
        ("otherData", meta),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            rep: 0,
            lane: 0,
            classes: vec![],
        }
    }

    #[test]
    fn coverage_counts_overlaps_once_and_clips() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 40)]), 20);
        assert_eq!(covered_ns(0, 100, &[(10, 50), (30, 40), (45, 60)]), 50);
        assert_eq!(covered_ns(20, 40, &[(0, 30), (35, 90)]), 15);
        assert_eq!(covered_ns(0, 10, &[(10, 20), (5, 5)]), 0);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // A parent with two parallel children (as rank spans under a
        // cluster run) and one grandchild that must not count.
        let all =
            vec![span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 90), span(4, 2, 20, 30)];
        assert_eq!(self_times(&all), [20, 40, 50, 10]);
        // Folded calls are not the span's own time either.
        let mut rank = span(5, 0, 0, 100);
        rank.classes.push(ClassTotal { class: "mem.read", count: 3, total_ns: 30, max_ns: 20 });
        assert_eq!(self_times(&[rank, span(6, 5, 50, 60)]), [60, 10]);
    }

    #[test]
    fn lanes_hand_over_on_drop_and_export_loads() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for lane in 0..3u32 {
                let rec = &rec;
                s.spawn(move || {
                    let mut l = rec.lane(lane, 7);
                    l.scope(0, &format!("outer{lane}"), |l, id| {
                        l.scope(id, "inner", |_, _| ());
                    });
                });
            }
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 6);
        for inner in spans.iter().filter(|s| s.name == "inner") {
            let outer = spans.iter().find(|s| s.id == inner.parent).expect("parent recorded");
            assert_eq!(outer.lane, inner.lane);
            assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
            assert_eq!(inner.rep, 7);
        }
        let text = chrome_trace(&spans, Json::obj([("k", Json::from(1u64))])).pretty();
        let doc = sim::json::parse(&text).expect("trace parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).expect("events");
        assert_eq!(events.len(), 6);
        assert!(events.iter().all(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")));
        assert!(rec.take().is_empty());
    }

    #[test]
    fn a_lane_that_is_off_records_nothing() {
        let mut l = Lane::off();
        assert!(l.recording().is_none());
        assert_eq!(l.scope(0, "x", |l, id| l.scope(id, "y", |_, id| id)), 0);
    }
}
