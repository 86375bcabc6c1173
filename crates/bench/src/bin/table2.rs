//! Reproduces **Table 2** of the paper: applies `RandomCheck` to every
//! class/variant, reporting per class the root causes found, the minimal
//! failing dimension (automated shrinking replaces the paper's manual
//! reduction), phase-1 serial-history counts and times, and phase-2
//! pass/fail counts and times.
//!
//! ```text
//! cargo run --release -p lineup-bench --bin table2 [--sample N] [--rows R]
//!     [--cols C] [--pb B] [--seed S] [--cap RUNS] [--class SUBSTR] [--paper]
//!     [--workers W]
//! ```
//!
//! `--workers W` (default 1) runs each phase-2 exploration itself in the
//! work-stealing parallel mode (`CheckOptions::with_workers`), on
//! top of the existing test-level parallelism of the random-check driver.
//!
//! The paper runs 100 random 3×3 tests per class on an 8-core Xeon; the
//! default here is a smaller sample so the table regenerates in minutes —
//! pass `--paper` for the full protocol. Shapes to compare against the
//! paper: phase 1 is cheap (milliseconds, ≤ 1680 histories); failing
//! tests finish much faster than passing ones; 5 of 13 classes exhibit
//! stuck tests; every seeded root cause is found with a small minimal
//! dimension (small scope hypothesis).

use std::time::Duration;

use lineup::{CheckOptions, RandomCheckConfig, Violation};
use lineup_bench::{arg_flag, arg_num, arg_value, fmt_duration, TextTable};
use lineup_collections::{all_classes, ClassEntry, RootCause};

/// Attributes a violation to one of the class's expected root causes.
fn classify(entry: &ClassEntry, v: &Violation) -> Option<RootCause> {
    use RootCause as RC;
    let history = match v {
        Violation::NoWitness { history, .. } => Some(history),
        Violation::StuckNoWitness { history, .. } => Some(history),
        Violation::Panic { history, .. } => Some(history),
        Violation::Nondeterminism(_) => None,
    };
    let has_op = |name: &str| {
        history.is_some_and(|h| h.ops.iter().any(|o| o.invocation.name.contains(name)))
    };
    entry
        .expected_root_causes
        .iter()
        .copied()
        .find(|cause| match cause {
            RC::A | RC::C => matches!(v, Violation::StuckNoWitness { .. }),
            RC::B => has_op("TryTake") || has_op("TryDequeue"),
            RC::D => has_op("TryPopRange"),
            RC::E => {
                matches!(v, Violation::StuckNoWitness { .. })
                    || has_op("CurrentCount")
                    || has_op("Signal")
            }
            RC::F | RC::I => has_op("Count"),
            RC::G => matches!(v, Violation::Panic { .. }),
            RC::H => true,
            RC::J => has_op("TryTake"),
            RC::K => has_op("CompleteAdding"),
            RC::L => has_op("SignalAndWait"),
        })
}

fn avg(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        Duration::ZERO
    } else {
        durations.iter().sum::<Duration>() / durations.len() as u32
    }
}

fn main() {
    let paper = arg_flag("--paper");
    let sample: usize = arg_num("--sample", if paper { 100 } else { 4 });
    let rows: usize = arg_num("--rows", 3);
    let cols: usize = arg_num("--cols", 3);
    let pb: usize = arg_num("--pb", 2);
    let seed: u64 = arg_num("--seed", 2010);
    let cap: u64 = arg_num("--cap", if paper { u64::MAX } else { 30_000 });
    let class_filter = arg_value("--class");
    let phase2_workers: usize = arg_num("--workers", 1);

    let mut options = CheckOptions::new().with_preemption_bound(Some(pb));
    if cap != u64::MAX {
        options = options.with_max_phase2_runs(cap);
    }
    if phase2_workers > 1 {
        options = options.with_workers(phase2_workers);
    }

    println!(
        "Table 2: RandomCheck with {sample} random {rows}x{cols} tests per class \
         (seed {seed}, preemption bound {pb}{}, parallel workers per class)",
        if cap == u64::MAX {
            String::new()
        } else {
            format!(", phase-2 cap {cap} runs/test")
        }
    );
    println!();

    let mut table = TextTable::new(&[
        "Class",
        "Causes",
        "MinDim",
        "P1 hist avg/max",
        "P1 time avg/max",
        "P2 pass/fail",
        "P2 time pass/fail",
        "PB",
    ]);

    let mut stuck_classes = 0usize;
    let mut any_missed = Vec::new();
    let entries: Vec<_> = all_classes()
        .into_iter()
        .filter(|e| {
            class_filter
                .as_deref()
                .is_none_or(|f| e.name.to_lowercase().contains(&f.to_lowercase()))
        })
        .collect();

    for entry in &entries {
        let cfg = RandomCheckConfig {
            rows,
            cols,
            samples: sample,
            seed,
            options: options.clone(),
            ..RandomCheckConfig::paper_defaults(seed)
        };
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let result = entry.target().random_check_parallel(&cfg, workers);

        let p1_hist: Vec<usize> = result
            .summaries
            .iter()
            .map(|s| s.phase1.full_histories + s.phase1.stuck_histories)
            .collect();
        let p1_times: Vec<Duration> = result.summaries.iter().map(|s| s.phase1.duration).collect();
        let pass_times: Vec<Duration> = result
            .summaries
            .iter()
            .filter(|s| s.passed)
            .map(|s| s.phase2.duration)
            .collect();
        let fail_times: Vec<Duration> = result
            .summaries
            .iter()
            .filter(|s| !s.passed)
            .map(|s| s.phase2.duration)
            .collect();
        let (passed, failed) = result.counts();
        if result
            .summaries
            .iter()
            .any(|s| s.phase1.stuck_histories > 0)
        {
            stuck_classes += 1;
        }
        assert!(
            p1_hist.iter().all(|&h| h <= 1680),
            "3x3 tests have at most 1680 full serial histories (§5.5)"
        );

        // Root causes across *all* failing sample tests. When random
        // sampling misses seeded causes, fall back to the class's
        // regression matrix (§4.3: users "specify test matrices directly
        // ... for writing regression tests"); causes found only there are
        // marked '*'.
        let mut found: std::collections::BTreeSet<RootCause> = result
            .summaries
            .iter()
            .filter_map(|s| s.violation.as_ref())
            .filter_map(|v| classify(entry, v))
            .collect();
        let mut starred: std::collections::BTreeSet<RootCause> = Default::default();
        let mut regression_failure: Option<lineup::CheckReport> = None;
        if entry
            .expected_root_causes
            .iter()
            .any(|c| !found.contains(c))
        {
            for m in entry.regression_matrices() {
                let report = entry.target().check(&m, &options);
                if !report.passed() {
                    for v in &report.violations {
                        if let Some(c) = classify(entry, v) {
                            if found.insert(c) {
                                starred.insert(c);
                            }
                        }
                    }
                    regression_failure.get_or_insert(report);
                }
            }
        }
        let first_failing_matrix = result
            .first_failure
            .as_ref()
            .map(|r| r.matrix.clone())
            .or_else(|| regression_failure.map(|r| r.matrix));
        let (causes, min_dim) = match first_failing_matrix {
            Some(matrix) => {
                let rendered: Vec<String> = found
                    .iter()
                    .map(|c| format!("{c:?}{}", if starred.contains(c) { "*" } else { "" }))
                    .collect();
                let (small, _) = entry.target().shrink_failing_test(&matrix, &options);
                let (r, c) = small.dimension();
                (
                    if rendered.is_empty() {
                        "?".into()
                    } else {
                        rendered.join(",")
                    },
                    format!("{r}x{c}"),
                )
            }
            None => {
                if !entry.expected_root_causes.is_empty() {
                    any_missed.push(entry.name);
                }
                ("-".into(), "-".into())
            }
        };

        table.row(vec![
            entry.name.to_string(),
            causes,
            min_dim,
            format!(
                "{}/{}",
                p1_hist.iter().sum::<usize>() / p1_hist.len().max(1),
                p1_hist.iter().max().copied().unwrap_or(0)
            ),
            format!(
                "{}/{}",
                fmt_duration(avg(&p1_times)),
                fmt_duration(p1_times.iter().max().copied().unwrap_or_default())
            ),
            format!("{passed}/{failed}"),
            format!(
                "{}/{}",
                fmt_duration(avg(&pass_times)),
                fmt_duration(avg(&fail_times))
            ),
            pb.to_string(),
        ]);
    }

    print!("{}", table.render());
    println!();
    println!(
        "{} of {} classes exhibited stuck (blocking) serial tests — the paper reports 5 of 13 (§5.5).",
        stuck_classes,
        entries.len()
    );
    if !any_missed.is_empty() {
        println!(
            "Root causes not hit by this sample (increase --sample or use --paper): {}",
            any_missed.join(", ")
        );
    }
    println!(
        "Causes marked '*' were missed by the random sample and found by the \
         class's targeted regression matrix instead (§4.3)."
    );
    println!(
        "Reading the shape: phase 1 (sequential-spec synthesis) is cheap; failing \
         testcases finish much faster than passing ones; minimal failing \
         dimensions are small (small scope hypothesis, §5.2)."
    );
}
