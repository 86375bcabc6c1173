//! Partial-order reduction preserves phase-2 completeness (ISSUE
//! acceptance): for every registry class — fixed and "(Pre)" seeded
//! variants — exploring with POR on must reach the same set of distinct
//! observations (full and stuck histories) and the same final verdict as
//! the unreduced exhaustive DFS, because sleep sets and happens-before
//! backtracking only prune schedules that are Mazurkiewicz-equivalent to
//! an explored one (identical history). The same must hold under
//! preemption bounds 0–2 (where POR disengages entirely) and under
//! parallel exploration with two workers.

mod support;

use lineup::{replay_matrix, CheckOptions, Violation};
use lineup_collections::registry::all_classes;
use support::{matrix_for, small, sorted_keys};

/// Renders a violation without its reproducing `decisions`: POR may reach
/// a violating history through a different (earlier) schedule than the
/// unreduced search, but the history itself must be identical.
fn violation_keys(violations: &[Violation]) -> Vec<String> {
    let mut keys = sorted_keys(violations, |h| format!("{h:?}"));
    // POR changes the *order* schedules are visited in (hence the order
    // distinct violations are first encountered) and the number of
    // schedules reaching a given violating history (panics are reported
    // per occurrence); the *set* of violations is the promise.
    keys.dedup();
    keys
}

fn exhaustive(por: bool) -> CheckOptions {
    CheckOptions::new()
        .with_preemption_bound(None)
        .with_por(por)
        .collect_all_violations()
}

#[test]
fn por_matches_unreduced_exhaustive_dfs_on_every_class() {
    let all = all_classes();
    for entry in &all {
        let matrix = small(matrix_for(entry, &all));
        eprintln!("checking {} (plain)...", entry.name);
        let plain = entry.target().check(&matrix, &exhaustive(false));
        eprintln!("  plain runs={}", plain.phase2.runs);
        let reduced = entry.target().check(&matrix, &exhaustive(true));
        eprintln!("  por runs={}", reduced.phase2.runs);
        assert_eq!(
            plain.passed(),
            reduced.passed(),
            "{}: verdict must not change under POR",
            entry.name
        );
        assert_eq!(
            violation_keys(&plain.violations),
            violation_keys(&reduced.violations),
            "{}: distinct violating histories must match",
            entry.name
        );
        assert_eq!(
            plain.phase2.full_histories, reduced.phase2.full_histories,
            "{}: distinct full histories must match",
            entry.name
        );
        assert_eq!(
            plain.phase2.stuck_histories, reduced.phase2.stuck_histories,
            "{}: distinct stuck histories must match",
            entry.name
        );
        assert!(
            reduced.phase2.runs <= plain.phase2.runs,
            "{}: POR must not add runs ({} > {})",
            entry.name,
            reduced.phase2.runs,
            plain.phase2.runs
        );
    }
}

#[test]
fn por_is_inert_under_preemption_bounds() {
    // Sleep sets are unsound under preemption bounding (a bound can
    // disable the schedule that was deferred to), so POR disengages: the
    // bounded explorations must be *identical* run for run.
    let all = all_classes();
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let matrix = matrix_for(entry, &all);
        for bound in 0..=2 {
            let opts = |por| {
                CheckOptions::new()
                    .with_preemption_bound(Some(bound))
                    .with_por(por)
                    .collect_all_violations()
            };
            let plain = entry.target().check(&matrix, &opts(false));
            let reduced = entry.target().check(&matrix, &opts(true));
            assert_eq!(
                plain.phase2.runs, reduced.phase2.runs,
                "{} at bound {bound}: POR must disengage",
                entry.name
            );
            assert_eq!(
                violation_keys(&plain.violations),
                violation_keys(&reduced.violations),
                "{} at bound {bound}",
                entry.name
            );
            assert_eq!(plain.phase2.full_histories, reduced.phase2.full_histories);
            assert_eq!(plain.phase2.stuck_histories, reduced.phase2.stuck_histories);
        }
    }
}

#[test]
fn por_matches_unreduced_under_two_workers() {
    let all = all_classes();
    let mut checked = 0;
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let matrix = small(matrix_for(entry, &all));
        let plain = entry.target().check(&matrix, &exhaustive(false));
        let reduced = entry.target().check(
            &matrix,
            &exhaustive(true).with_workers(2).with_parallel_probe_runs(0),
        );
        assert_eq!(plain.passed(), reduced.passed(), "{}", entry.name);
        // Compare the violating histories as *sets*: a steal promotes
        // sleep-set nodes to full exploration, so which occurrence of a
        // history is encountered first (and hence the report order among
        // distinct histories) can differ from the unreduced serial order.
        let sorted = |vs: &[lineup::Violation]| {
            let mut keys = violation_keys(vs);
            keys.sort();
            keys
        };
        assert_eq!(
            sorted(&plain.violations),
            sorted(&reduced.violations),
            "{} with 2 workers",
            entry.name
        );
        assert_eq!(
            plain.phase2.full_histories, reduced.phase2.full_histories,
            "{} with 2 workers",
            entry.name
        );
        assert_eq!(
            plain.phase2.stuck_histories, reduced.phase2.stuck_histories,
            "{} with 2 workers",
            entry.name
        );
        checked += 1;
    }
    assert!(checked >= 5, "expected the seeded variants, got {checked}");
}

#[test]
fn por_recorded_violation_replays_choice_for_choice() {
    // A violating schedule found *with POR on* must replay exactly:
    // replay follows the recorded decision indexes and never consults
    // sleep sets, so the indexes recorded against POR's candidate lists
    // resolve to the same threads (POR records against the *full*
    // candidate list precisely so this holds).
    use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
    use lineup_collections::registry::Variant;

    let target = ConcurrentQueueTarget {
        variant: Variant::Pre,
    };
    let all = all_classes();
    let entry = all
        .iter()
        .find(|e| e.name == "ConcurrentQueue (Pre)")
        .expect("registry has the seeded queue");
    let matrix = entry.regression_matrix().expect("regression matrix");
    let report = lineup::check(
        &target,
        &matrix,
        &CheckOptions::new()
            .with_preemption_bound(None)
            .with_por(true),
    );
    assert!(!report.passed(), "the seeded bug must be found under POR");
    let Some(Violation::NoWitness { history, decisions }) = report.first_violation() else {
        panic!("expected a no-witness violation");
    };
    let run = replay_matrix(&target, &matrix, decisions.clone(), None);
    assert_eq!(
        &run.history, history,
        "replaying the POR-recorded decisions reproduces the history"
    );
}
