//! Phase 2 is one work-stealing engine, and one worker is its serial
//! case. Across 1, 2, and 4 workers, with POR on or off, on either
//! execution backend, and under preemption bounds, the verdicts, the
//! violation lists, and the distinct-history counts must match the
//! one-worker exploration — with lazy steal replays bounded by the number
//! of claimed steals. One worker in turn must match a bare reference loop
//! that shares none of the driver.
//!
//! Determinism tiers:
//!
//! * **POR off** — work stealing partitions the schedule tree exactly
//!   (every schedule runs exactly once, whatever the steal timing), so
//!   the comparison is byte-identical: violation order *and* reproducing
//!   decisions, run counts, step counts.
//! * **POR on** — a split promotes the victim's sleep-set nodes to full
//!   exploration so the shipped sleep masks stay sound; which nodes get
//!   promoted depends on steal timing, so run counts may exceed the
//!   one-worker reduced count (never the unreduced one). The *distinct
//!   history sets* — and with them verdicts and the set of violating
//!   histories — are still exactly the one-worker ones.

mod support;

use std::collections::HashSet;
use std::ops::ControlFlow;

use lineup::{
    check_against_spec, explore_matrix, find_witness, synthesize_spec, Backend, CheckOptions,
    History, TestMatrix, TestTarget, Violation, WitnessQuery,
};
use lineup_collections::registry::all_classes;
use lineup_sched::{Config, RunOutcome};
use support::{matrix_for, rendered, small, sorted_keys, with_concrete_target};

fn exhaustive(por: bool, backend: Backend) -> CheckOptions {
    CheckOptions::new()
        .with_preemption_bound(None)
        .with_por(por)
        .with_backend(backend)
        .collect_all_violations()
}

/// Asserts the steal-accounting invariants every parallel report must
/// satisfy: lazy replays bounded by claimed steals, claimed steals bounded
/// by split subtrees.
fn assert_steal_invariants(name: &str, report: &lineup::CheckReport) {
    assert!(
        report.phase2.steal_replays <= report.phase2.steals,
        "{name}: replays only for claimed steals ({} <= {})",
        report.phase2.steal_replays,
        report.phase2.steals,
    );
    assert!(
        report.phase2.steals <= report.phase2.splits,
        "{name}: every claimed steal was split off first ({} <= {})",
        report.phase2.steals,
        report.phase2.splits,
    );
}

#[test]
fn por_off_is_byte_identical_across_worker_counts_on_every_class() {
    let all = all_classes();
    for entry in &all {
        let matrix = small(matrix_for(entry, &all));
        let opts = exhaustive(false, Backend::OsThreads);
        let serial = entry.target().check(&matrix, &opts);
        for workers in [2, 4] {
            let par = entry.target().check(
                &matrix,
                // Probe disabled so the stealing machinery is exercised
                // even on matrices below the auto-serial threshold.
                &opts
                    .clone()
                    .with_workers(workers)
                    .with_parallel_probe_runs(0),
            );
            let name = format!("{} at {workers} workers", entry.name);
            assert_eq!(serial.passed(), par.passed(), "{name}: verdict");
            assert_eq!(
                rendered(&serial.violations),
                rendered(&par.violations),
                "{name}: violation lists (order and decisions included)"
            );
            assert_eq!(
                serial.phase2.runs, par.phase2.runs,
                "{name}: every schedule runs exactly once"
            );
            assert_eq!(
                serial.phase2.total_steps, par.phase2.total_steps,
                "{name}: step counts"
            );
            assert_eq!(
                serial.phase2.full_histories, par.phase2.full_histories,
                "{name}: distinct full histories"
            );
            assert_eq!(
                serial.phase2.stuck_histories, par.phase2.stuck_histories,
                "{name}: distinct stuck histories"
            );
            assert_steal_invariants(&name, &par);
        }
    }
}

#[test]
fn por_off_is_byte_identical_on_the_fiber_backend() {
    let all = all_classes();
    let mut checked = 0;
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let matrix = small(matrix_for(entry, &all));
        let opts = exhaustive(false, Backend::Fibers);
        let serial = entry.target().check(&matrix, &opts);
        for workers in [2, 4] {
            let par = entry.target().check(
                &matrix,
                &opts
                    .clone()
                    .with_workers(workers)
                    .with_parallel_probe_runs(0),
            );
            let name = format!("{} (fibers) at {workers} workers", entry.name);
            assert_eq!(
                rendered(&serial.violations),
                rendered(&par.violations),
                "{name}: violation lists"
            );
            assert_eq!(serial.phase2.runs, par.phase2.runs, "{name}: runs");
            assert_steal_invariants(&name, &par);
        }
        checked += 1;
    }
    assert!(checked >= 5, "expected the seeded variants, got {checked}");
}

#[test]
fn por_on_matches_serial_history_sets_across_worker_counts() {
    let all = all_classes();
    let mut checked = 0;
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let matrix = small(matrix_for(entry, &all));
        let reduced = entry
            .target()
            .check(&matrix, &exhaustive(true, Backend::OsThreads));
        let unreduced = entry
            .target()
            .check(&matrix, &exhaustive(false, Backend::OsThreads));
        for workers in [2, 4] {
            let par = entry.target().check(
                &matrix,
                &exhaustive(true, Backend::OsThreads)
                    .with_workers(workers)
                    .with_parallel_probe_runs(0),
            );
            let name = format!("{} (POR) at {workers} workers", entry.name);
            assert_eq!(reduced.passed(), par.passed(), "{name}: verdict");
            assert_eq!(
                sorted_keys(&reduced.violations, |h| format!("{h:?}")),
                sorted_keys(&par.violations, |h| format!("{h:?}")),
                "{name}: violating histories"
            );
            assert_eq!(
                reduced.phase2.full_histories, par.phase2.full_histories,
                "{name}: distinct full histories"
            );
            assert_eq!(
                reduced.phase2.stuck_histories, par.phase2.stuck_histories,
                "{name}: distinct stuck histories"
            );
            // Split promotion can only widen the exploration, and never
            // past the unreduced enumeration.
            assert!(
                par.phase2.runs <= unreduced.phase2.runs,
                "{name}: {} <= {}",
                par.phase2.runs,
                unreduced.phase2.runs,
            );
            assert_steal_invariants(&name, &par);
        }
        checked += 1;
    }
    assert!(checked >= 5, "expected the seeded variants, got {checked}");
}

#[test]
fn preemption_bounded_stealing_is_byte_identical() {
    // A preemption bound disengages POR (sleep sets are unsound under
    // it), so bounded parallel exploration is in the byte-identical tier
    // at any bound.
    let all = all_classes();
    let mut checked = 0;
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let matrix = small(matrix_for(entry, &all));
        for bound in [1, 2] {
            let opts = CheckOptions::new()
                .with_preemption_bound(Some(bound))
                .collect_all_violations();
            let serial = entry.target().check(&matrix, &opts);
            let par = entry.target().check(
                &matrix,
                &opts.clone().with_workers(4).with_parallel_probe_runs(0),
            );
            let name = format!("{} at bound {bound}", entry.name);
            assert_eq!(
                rendered(&serial.violations),
                rendered(&par.violations),
                "{name}: violation lists"
            );
            assert_eq!(serial.phase2.runs, par.phase2.runs, "{name}: runs");
            assert_steal_invariants(&name, &par);
        }
        checked += 1;
    }
    assert!(checked >= 5, "expected the seeded variants, got {checked}");
}

#[test]
fn stop_at_first_reports_the_serial_winner() {
    // Stop-at-first under work stealing: whichever worker finds a
    // violation first in wall-clock time, the *reported* one must be the
    // lexicographically least violating schedule — the one the serial
    // DFS stops at — because lex-smaller subtrees are never cancelled.
    let all = all_classes();
    let mut checked = 0;
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let Some(matrix) = entry.regression_matrix() else {
            continue;
        };
        // The defaults (preemption bound 2) are `parallel_equivalence`'s.
        let opts = CheckOptions::new()
            .with_preemption_bound(None)
            .with_por(false);
        let serial = entry.target().check(&matrix, &opts);
        assert!(
            !serial.passed(),
            "{}: seeded bug found serially",
            entry.name
        );
        for workers in [2, 4] {
            let par = entry.target().check(
                &matrix,
                &opts
                    .clone()
                    .with_workers(workers)
                    .with_parallel_probe_runs(0),
            );
            assert_eq!(
                rendered(&serial.violations),
                rendered(&par.violations),
                "{} at {workers} workers: the serial winner (decisions included)",
                entry.name
            );
        }
        checked += 1;
    }
    assert!(checked >= 3, "expected seeded variants, got {checked}");
}

/// One-worker phase 2 against a bare reference loop that shares none of
/// the driver: `explore_matrix` under the `Config` the checker builds,
/// then `find_witness` on every full history and on every pending
/// operation of every stuck history — no verdict cache, no symmetry, and
/// no spurious-failure reduction (the default options declare none).
fn matches_reference<T: TestTarget>(target: &T, matrix: &TestMatrix, name: &str) {
    let (spec, _, _) = synthesize_spec(target, matrix);
    let index = spec.index();
    for (bound, por) in [(Some(2), true), (None, true), (None, false)] {
        for (stop, cap) in [
            (true, None),
            (true, Some(10)),
            (false, None),
            (false, Some(10)),
        ] {
            let mut config = Config::exhaustive().with_por(por);
            (config.preemption_bound, config.max_runs) = (bound, cap);
            let (mut full, mut stuck, mut violating) =
                (HashSet::new(), HashSet::new(), HashSet::new());
            let stats = explore_matrix(target, matrix, &config, |run| {
                let history = &run.history;
                let ok = match run.outcome {
                    RunOutcome::Pruned => true,
                    RunOutcome::Panicked { .. } | RunOutcome::StepLimit => false,
                    RunOutcome::Complete => {
                        full.insert(history.clone());
                        let q = WitnessQuery::for_full_relaxed(history, &[]);
                        find_witness(&index, &q).is_some()
                    }
                    _ => {
                        stuck.insert(history.clone());
                        history.pending_ops().into_iter().all(|e| {
                            let q = WitnessQuery::for_stuck_relaxed(history, e, &[]);
                            find_witness(&index, &q).is_some()
                        })
                    }
                };
                if !ok {
                    violating.insert(run.history);
                }
                if !ok && stop {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            let mut options = CheckOptions::new()
                .with_preemption_bound(bound)
                .with_por(por)
                .with_symmetry(false);
            options.stop_at_first_violation = stop;
            options.max_phase2_runs = cap;
            let (violations, phase2) = check_against_spec(target, matrix, &spec, &options);
            let checked: HashSet<History> = violations
                .into_iter()
                .map(|v| match v {
                    Violation::NoWitness { history, .. }
                    | Violation::StuckNoWitness { history, .. }
                    | Violation::Panic { history, .. } => history,
                    Violation::Nondeterminism(nd) => panic!("phase 2 reported {nd:?}"),
                })
                .collect();
            let at = format!("{name}, bound {bound:?}, POR {por}, stop {stop}, cap {cap:?}");
            assert_eq!(phase2.runs, stats.runs, "{at}: runs");
            assert_eq!(phase2.total_steps, stats.total_steps, "{at}: steps");
            assert_eq!(checked, violating, "{at}: violating histories");
            assert_eq!(phase2.full_histories, full.len(), "{at}: distinct full");
            assert_eq!(phase2.stuck_histories, stuck.len(), "{at}: distinct stuck");
        }
    }
}

#[test]
fn one_worker_matches_a_bare_reference_loop_on_every_class() {
    let all = all_classes();
    for entry in &all {
        let (m, name) = (&small(matrix_for(entry, &all)), entry.name);
        // The reference needs the concrete target `all_classes` erased.
        macro_rules! reference {
            ($target:expr) => {
                matches_reference(&$target, m, name)
            };
        }
        with_concrete_target!(entry, reference);
    }
}
