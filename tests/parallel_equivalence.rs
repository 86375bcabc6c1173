//! Parallel phase 2 finds exactly the serial violations (ISSUE
//! acceptance): for the seeded "(Pre)" collection variants,
//! `CheckOptions::with_workers(n)` must report the same violation
//! histories as the default serial exploration — the prefix-partitioned
//! subtrees cover the schedule tree exactly, the verdict of a history is
//! independent of which worker computes it, and the deterministic merge
//! restores serial encounter order.

use lineup::{CheckOptions, Violation};
use lineup_collections::registry::all_classes;

/// Renders a violation without its reproducing `decisions`: the violating
/// histories are what serial/parallel equivalence promises (the paper's
/// Theorem 5 verdict), while the decision path may legitimately come from
/// whichever schedule first reached the history.
fn violation_keys(violations: &[Violation]) -> Vec<String> {
    violations
        .iter()
        .map(|v| match v {
            Violation::Nondeterminism(nd) => format!("nondeterminism: {nd:?}"),
            Violation::NoWitness { history, .. } => format!("no-witness: {history:?}"),
            Violation::StuckNoWitness {
                history, pending, ..
            } => format!("stuck-no-witness: {pending:?} {history:?}"),
            Violation::Panic {
                message, history, ..
            } => format!("panic: {message} {history:?}"),
        })
        .collect()
}

#[test]
fn parallel_first_violation_matches_serial_on_pre_variants() {
    let mut checked = 0;
    for entry in all_classes() {
        if !entry.name.ends_with("(Pre)") {
            continue;
        }
        let Some(matrix) = entry.regression_matrix() else {
            continue;
        };
        let serial = entry.target().check(&matrix, &CheckOptions::new());
        assert!(
            !serial.passed(),
            "{}: the seeded bug should be found serially",
            entry.name
        );
        for workers in [2, 4] {
            let par = entry.target().check(
                &matrix,
                &CheckOptions::new()
                    .with_workers(workers)
                    .with_parallel_probe_runs(0),
            );
            assert_eq!(
                violation_keys(&serial.violations),
                violation_keys(&par.violations),
                "{} with {workers} workers",
                entry.name
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected at least 3 seeded Pre variants with regression matrices, got {checked}"
    );
}

#[test]
fn parallel_collect_all_matches_serial_violation_set() {
    // Exhaustive (collect-all) comparison on one representative seeded
    // variant: the full violation list — order included — matches.
    let entry = all_classes()
        .into_iter()
        .find(|e| e.name == "ConcurrentQueue (Pre)")
        .expect("registry has the seeded queue");
    let matrix = entry.regression_matrix().expect("regression matrix");
    let opts = CheckOptions::new().collect_all_violations();
    let serial = entry.target().check(&matrix, &opts);
    assert!(!serial.passed());
    for workers in [2, 4] {
        let par = entry.target().check(
            &matrix,
            &opts
                .clone()
                .with_workers(workers)
                .with_parallel_probe_runs(0),
        );
        assert_eq!(
            violation_keys(&serial.violations),
            violation_keys(&par.violations),
            "{workers} workers"
        );
        assert_eq!(
            serial.phase2.full_histories, par.phase2.full_histories,
            "distinct full histories agree at {workers} workers"
        );
        assert_eq!(
            serial.phase2.stuck_histories, par.phase2.stuck_histories,
            "distinct stuck histories agree at {workers} workers"
        );
    }
}

#[test]
fn run_counts_match_across_worker_counts() {
    // A stolen task's decision prefix replays *inside* its first run —
    // never as an extra run — so with partial-order reduction off the
    // work-stealing exploration partitions the schedule tree exactly and
    // the run count is identical at any worker count. With POR on, a
    // split promotes sleep-set nodes to full exploration, so run counts
    // may legitimately exceed the serial count there — the
    // steal-equivalence suite pins the distinct-history sets instead.
    use lineup::doc_support::CounterTarget;
    let matrix = lineup::TestMatrix::from_columns(vec![
        vec![
            lineup::Invocation::new("inc"),
            lineup::Invocation::new("get"),
        ],
        vec![
            lineup::Invocation::new("inc"),
            lineup::Invocation::new("get"),
        ],
    ]);
    let opts = CheckOptions::new()
        .with_preemption_bound(None)
        .with_por(false)
        .collect_all_violations();
    let serial = lineup::check(&CounterTarget, &matrix, &opts);
    for workers in [2, 4] {
        // Probe disabled: this space is below the auto-serial threshold,
        // and the point here is the run accounting under real stealing.
        let par = lineup::check(
            &CounterTarget,
            &matrix,
            &opts
                .clone()
                .with_workers(workers)
                .with_parallel_probe_runs(0),
        );
        assert_eq!(
            serial.phase2.runs, par.phase2.runs,
            "run counts are comparable at {workers} workers"
        );
        assert!(
            par.phase2.steal_replays <= par.phase2.steals,
            "lazy replays happen only for claimed steals"
        );
    }
}

#[test]
fn parallel_passes_on_a_fixed_variant() {
    // A fixed (non-Pre) class must still pass under parallel exploration.
    let entry = all_classes()
        .into_iter()
        .find(|e| e.name == "ConcurrentQueue")
        .expect("registry has the fixed queue");
    let matrix = lineup::TestMatrix::from_columns(vec![
        vec![
            lineup::Invocation::with_int("Enqueue", 200),
            lineup::Invocation::with_int("Enqueue", 400),
        ],
        vec![
            lineup::Invocation::new("TryDequeue"),
            lineup::Invocation::new("TryDequeue"),
        ],
    ]);
    let report = entry.target().check(
        &matrix,
        &CheckOptions::new()
            .with_workers(4)
            .with_parallel_probe_runs(0),
    );
    assert!(report.passed(), "{:?}", report.violations);
}
