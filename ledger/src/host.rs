//! What the host says about this process and about itself: CPU time,
//! peak memory, thread count, and the fingerprint every output carries
//! so numbers from different host classes are never compared silently.

use crate::json::Json;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel clock ticks per second in `/proc/self/stat`. Linux has
/// exported 100 to user space on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// User plus system CPU seconds this process has used so far, threads
/// that already exited included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its
    // closing parenthesis (state is field 3, utime 14, stime 15).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick() + tick()) / CLK_TCK
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

static THREADS_PEAK: AtomicU64 = AtomicU64::new(0);

/// Note how many threads are alive right now. Traced repetitions call
/// this from inside a run, where the node threads and engine workers of
/// the program under test are all up.
pub fn sample_threads() {
    THREADS_PEAK.fetch_max(status_field("Threads:").unwrap_or(0), Ordering::Relaxed);
}

/// The most threads any [`sample_threads`] call saw.
pub fn threads_peak() -> u64 {
    THREADS_PEAK.load(Ordering::Relaxed)
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the checkout the benchmark runs in, when it is one.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".into();
    }
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint: everything a reader needs before comparing
/// this output with another.
pub fn fingerprint(seed: u64, sizes: Json) -> Json {
    let workers = |nodes| interconnect::EngineMode::default().resolved_workers(nodes);
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("engine_workers_4", Json::from(workers(4) as u64)),
        ("engine_workers_64", Json::from(workers(64) as u64)),
        ("cpu_model", Json::from(cpu_model())),
        (
            "rustc",
            Json::from(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("git_commit", Json::from(git_commit())),
        ("profile", Json::from(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("seed", Json::from(seed)),
        ("sizes", sizes),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() < before + 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() >= before + 0.02);
        assert!(peak_rss_mb() > 0.0);
        sample_threads();
        assert!(threads_peak() >= 1);
        assert!(nproc() >= 1);
    }
}
