//! Table 2: implementation complexity of the programming models,
//! counted with the paper's comment-stripping methodology over this
//! repository's actual adapter sources — followed by the per-crate line
//! ledger, the same count over every crate of the workspace (test
//! modules apart), so the size of the codebase is on record per PR.

use bench::loc::{count_model, crate_lines, ModelCount};
use bench::report::{write_report, Json};

fn model_row(m: &ModelCount) -> Json {
    Json::obj([
        ("model", Json::str(m.name)),
        ("lines", Json::int(m.lines)),
        ("api_calls", Json::int(m.api_calls)),
        ("lines_per_call", Json::num(m.lines_per_call())),
    ])
}

fn main() {
    let models: Vec<ModelCount> = vec![
        count_model("SPMD model", include_str!("../../../models/src/spmd.rs")),
        count_model("SMP/SPMD model", include_str!("../../../models/src/smp_spmd.rs")),
        count_model("ANL macros", include_str!("../../../models/src/anl.rs")),
        count_model("TreadMarks API", include_str!("../../../models/src/treadmarks.rs")),
        count_model("HLRC API", include_str!("../../../models/src/hlrc.rs")),
        count_model("JiaJia API (subset)", include_str!("../../../models/src/jiajia.rs")),
        count_model("POSIX threads", include_str!("../../../models/src/pthreads.rs")),
        count_model("WIN32 threads", include_str!("../../../models/src/win32.rs")),
        count_model("Cray put/get (shmem) API", include_str!("../../../models/src/shmem.rs")),
    ];
    let support = count_model("(support: wait queues)", include_str!("../../../models/src/waitq.rs"));
    let omp = count_model("(extension: OpenMP-style)", include_str!("../../../models/src/omp.rs"));

    // The checkout this binary was built from; no rows if it has moved.
    let ledger = crate_lines(std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));

    let total_lines: usize = models.iter().map(|m| m.lines).sum();
    let total_calls: usize = models.iter().map(|m| m.api_calls).sum();
    write_report(
        "table2",
        &Json::obj([
            ("table", Json::str("table2")),
            ("title", Json::str("Implementation complexity of programming models using HAMSTER")),
            ("rows", Json::Arr(models.iter().map(model_row).collect())),
            (
                "average",
                Json::obj([
                    ("lines", Json::int(total_lines / models.len())),
                    ("api_calls", Json::int(total_calls / models.len())),
                    ("lines_per_call", Json::num(total_lines as f64 / total_calls as f64)),
                ]),
            ),
            ("support", model_row(&support)),
            ("extension", model_row(&omp)),
            (
                "crate_lines",
                Json::Arr(
                    ledger
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("crate", Json::str(&c.name)),
                                ("code", Json::int(c.code)),
                                ("tests", Json::int(c.tests)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );

    println!("Table 2. Implementation Complexity of Programming Models Using HAMSTER");
    println!("{:-<70}", "");
    println!("{:<28} {:>8} {:>11} {:>12}", "Programming Model", "#Lines", "#API calls", "Lines/call");
    println!("{:-<70}", "");
    let (mut tl, mut tc) = (0usize, 0usize);
    for m in &models {
        println!(
            "{:<28} {:>8} {:>11} {:>12.1}",
            m.name,
            m.lines,
            m.api_calls,
            m.lines_per_call()
        );
        tl += m.lines;
        tc += m.api_calls;
    }
    println!("{:-<70}", "");
    println!(
        "{:<28} {:>8} {:>11} {:>12.1}",
        "average",
        tl / models.len(),
        tc / models.len(),
        tl as f64 / tc as f64
    );
    println!(
        "{:<28} {:>8} {:>11}   (shared by the two thread models)",
        support.name, support.lines, support.api_calls
    );
    println!(
        "{:<28} {:>8} {:>11} {:>12.1}",
        omp.name, omp.lines, omp.api_calls, omp.lines_per_call()
    );
    println!();
    println!(
        "Paper reports 7.3–25.1 lines/call (average < 25); the thread models are"
    );
    println!("the thickest adapters there as here, due to command forwarding.");

    println!();
    println!("Line ledger (same counting; `#[cfg(test)]` modules apart)");
    println!("{:-<70}", "");
    println!("{:<28} {:>8} {:>11}", "Crate", "#Code", "#Test");
    println!("{:-<70}", "");
    for c in &ledger {
        println!("{:<28} {:>8} {:>11}", c.name, c.code, c.tests);
    }
    println!("{:-<70}", "");
    println!(
        "{:<28} {:>8} {:>11}",
        "total",
        ledger.iter().map(|c| c.code).sum::<usize>(),
        ledger.iter().map(|c| c.tests).sum::<usize>()
    );
}
