//! Native stress check: real-thread execution with online
//! linearizability monitoring (`lineup-monitor`), on fixed and seeded
//! collection classes.
//!
//! ```text
//! cargo run --release -p lineup-bench --bin stress
//!     [--runs N] [--threads T] [--seed S] [--emit PATH]
//! ```
//!
//! `--emit PATH` additionally streams every run as wire-format events
//! into a capture file (one stream, one object per run), replayable
//! through the online monitoring service:
//! `lineup-server --replay PATH`.
//!
//! Unlike the model checker this samples *real* OS-thread interleavings
//! (with seeded yield injection): fixed classes must stay green across
//! every run, and the seeded "(Pre)" dictionary must trip the monitor
//! within the run budget; the process exits 1 otherwise. Each workload is
//! monitored against the ideal specification of its ADT kind, the one
//! `lineup-server` applies: checks of unambiguous histories take the
//! specialized log-linear path and the rest fall back to Wing–Gong.
//! Reports, per workload, the runs, distinct histories, violations, the
//! specialized/fallback split and the verdict.

use std::sync::Arc;
use std::time::Duration;

use lineup::{AdtKind, Invocation, TestMatrix, TestTarget};
use lineup_bench::{arg_num, arg_value, TextTable};
use lineup_collections::concurrent_dictionary::ConcurrentDictionaryTarget;
use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
use lineup_collections::Variant;
use lineup_monitor::{ideal_oracle, run_stress, Monitor, StressOptions, StressReport};
use lineup_wire::StreamRecorder;

/// `threads` columns of TryAdds on distinct keys, Count at the end: the
/// final count must equal the number of threads — the seeded variant's
/// lost update (root cause F) makes it fall short.
fn dictionary_matrix(threads: usize) -> TestMatrix {
    TestMatrix::from_columns(
        (0..threads)
            .map(|i| vec![Invocation::with_int("TryAdd", 10 * (i as i64 + 1))])
            .collect(),
    )
    .with_finally(vec![Invocation::new("Count")])
}

/// Producer/consumer columns alternating over `threads` threads.
fn queue_matrix(threads: usize) -> TestMatrix {
    TestMatrix::from_columns(
        (0..threads)
            .map(|i| {
                if i % 2 == 0 {
                    vec![
                        Invocation::with_int("Enqueue", 100 * (i as i64 + 1)),
                        Invocation::with_int("Enqueue", 100 * (i as i64 + 1) + 1),
                    ]
                } else {
                    vec![Invocation::new("TryDequeue"), Invocation::new("TryDequeue")]
                }
            })
            .collect(),
    )
}

#[allow(clippy::too_many_arguments)]
fn measure<T>(
    workload: &'static str,
    seeded: bool,
    target: T,
    kind: AdtKind,
    matrix: &TestMatrix,
    runs: usize,
    seed: u64,
    recorder: Option<Arc<StreamRecorder>>,
) -> (&'static str, bool, StressReport)
where
    T: TestTarget,
    T::Instance: Send + Sync + 'static,
{
    // The oracle `lineup-server --replay` applies to the same capture, so
    // offline and online verdicts agree. The matrices have no init.
    let monitor = Monitor::new(ideal_oracle(kind)).with_adt_kind(kind);
    let report = run_stress(
        &target,
        matrix,
        &monitor,
        &StressOptions {
            runs,
            seed,
            // Seeded bugs are windows to hit, not certainties: stop at the
            // first detection instead of burning the whole budget.
            stop_at_first_violation: seeded,
            run_timeout: Duration::from_secs(5),
            recorder,
            ..StressOptions::default()
        },
    );
    (workload, seeded, report)
}

fn main() {
    let runs: usize = arg_num("--runs", 2000);
    let threads: usize = arg_num("--threads", 2);
    let seed: u64 = arg_num("--seed", 1);
    assert!(threads >= 1, "--threads must be at least 1");
    let recorder = arg_value("--emit").map(|path| {
        Arc::new(StreamRecorder::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot create capture file {path}: {e}");
            std::process::exit(1);
        }))
    });

    let workloads = [
        measure(
            "dictionary_fixed",
            false,
            ConcurrentDictionaryTarget {
                variant: Variant::Fixed,
            },
            AdtKind::Set,
            &dictionary_matrix(threads),
            runs,
            seed,
            recorder.clone(),
        ),
        measure(
            "queue_fixed",
            false,
            ConcurrentQueueTarget {
                variant: Variant::Fixed,
            },
            AdtKind::Queue,
            &queue_matrix(threads),
            runs,
            seed,
            recorder.clone(),
        ),
        measure(
            "dictionary_pre_seeded",
            true,
            ConcurrentDictionaryTarget {
                variant: Variant::Pre,
            },
            AdtKind::Set,
            &dictionary_matrix(threads.max(2)),
            // The lost-update window needs luck; give the seeded hunt a
            // larger budget (it stops at the first detection anyway).
            runs.saturating_mul(25),
            seed,
            recorder.clone(),
        ),
    ];
    if let Some(rec) = &recorder {
        if let Err(e) = rec.shutdown() {
            eprintln!("capture file flush failed: {e}");
            std::process::exit(1);
        }
    }

    let mut table = TextTable::new(&[
        "workload",
        "runs",
        "histories",
        "violations",
        "fast path",
        "fallback",
        "verdict",
    ]);
    let mut failed = false;
    for (workload, seeded, report) in &workloads {
        let verdict = match (seeded, report.passed()) {
            (true, false) => "detected",
            (true, true) => "MISSED",
            (false, true) => "green",
            (false, false) => "VIOLATION",
        };
        failed |= *seeded == report.passed();
        table.row(vec![
            workload.to_string(),
            report.runs.to_string(),
            report.distinct_histories.to_string(),
            report.violations.len().to_string(),
            report.monitor_stats.paths.specialized_checks.to_string(),
            report.monitor_stats.paths.fallback_checks.to_string(),
            verdict.to_string(),
        ]);
    }
    println!("Native stress with online monitoring ({threads} thread(s), seed {seed})");
    println!("{}", table.render());
    if failed {
        std::process::exit(1);
    }
}
