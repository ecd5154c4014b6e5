//! Capture a whole-cluster event trace and export it for
//! `chrome://tracing` / Perfetto — the OBSERVABILITY.md quickstart.
//!
//! ```sh
//! cargo run --example chrome_trace
//! ```
//!
//! Writes `trace.json` and prints the ASCII Gantt summary.

use hamster::core::{
    chrome_trace_json, gantt_summary, validate_chrome_trace, Access, ClusterConfig, PlatformKind,
};
use hamster::sim::trace::TraceSession;

fn main() {
    let session = TraceSession::begin();
    let cfg = ClusterConfig::new(2, PlatformKind::SwDsm);
    hamster::core::run_spmd(&cfg, |ham| {
        let r = ham.mem().alloc_default(4096).unwrap();
        ham.sync().barrier(0);
        if ham.task().rank() == 0 {
            ham.mem().write_u64(r.addr(), 42);
        }
        ham.cons().barrier_sync(1);
        assert_eq!(ham.mem().read_u64(r.addr()), 42);
        ham.cons().barrier_sync(2);
    });
    let events = session.finish();

    let json = chrome_trace_json(&events);
    let n = validate_chrome_trace(&json).expect("export must be schema-valid");
    std::fs::write("trace.json", &json).expect("write trace.json");
    println!("{}", gantt_summary(&events, 72));
    println!("wrote trace.json ({n} events) — load it in chrome://tracing or ui.perfetto.dev");
}
