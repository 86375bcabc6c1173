//! Writes the deterministic capture of [`lineup_bench::capture`] for the
//! online monitoring service's replay loop.
//!
//! ```text
//! cargo run --release -p lineup-bench --bin capture -- PATH
//! lineup-server --replay PATH --json
//! ```
//!
//! The file holds every run the explorer enumerates on two fixed
//! collection matrices and, up to its first rejected run, on one seeded
//! "(Pre)" matrix, so the replay convicts exactly one history. Two runs
//! write byte-identical files. Exits 1 if a fixed matrix is rejected,
//! the seeded one is not convicted, or a run panics or hits the step
//! limit.

use std::process::ExitCode;

use lineup_bench::capture::capture;
use lineup_bench::TextTable;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: capture PATH");
        return ExitCode::from(2);
    };
    let capture = capture();
    if let Err(e) = std::fs::write(path, &capture.bytes) {
        eprintln!("cannot write capture file {path}: {e}");
        return ExitCode::FAILURE;
    }

    let mut table = TextTable::new(&["workload", "runs", "rejected", "aborted", "verdict"]);
    for w in &capture.workloads {
        let verdict = match (w.passed(), w.seeded) {
            (true, true) => "detected",
            (true, false) => "green",
            (false, true) => "MISSED",
            (false, false) => "VIOLATION",
        };
        table.row(vec![
            w.name.to_string(),
            w.runs.to_string(),
            w.rejected.to_string(),
            w.aborted.to_string(),
            verdict.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("{} bytes written to {path}", capture.bytes.len());
    if capture.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
