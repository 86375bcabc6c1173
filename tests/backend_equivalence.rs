//! The fiber execution backend is unobservable (ISSUE acceptance): a
//! handoff under [`Backend::Fibers`] is a direct userspace stack switch
//! instead of a park/unpark pair of OS threads, but the schedule point —
//! the decision, the recording, the POR bookkeeping — executes unchanged.
//! Checking any class under fibers must therefore be *byte-identical* to
//! checking it under [`Backend::OsThreads`]: same verdicts, same violation
//! list in the same order with the same reproducing decisions, same
//! distinct-history counts, same run, step, handoff, and fast-path
//! counters — with POR on or off and under parallel exploration.
//!
//! On targets without fiber support `Backend::Fibers` degrades to OS
//! threads and the comparisons hold trivially.

mod support;

use lineup::{replay_matrix, Backend, CheckOptions, Violation};
use lineup_collections::registry::all_classes;
use support::{matrix_for, rendered, small};

fn exhaustive(por: bool, backend: Backend) -> CheckOptions {
    CheckOptions::new()
        .with_preemption_bound(None)
        .with_por(por)
        .with_backend(backend)
        .collect_all_violations()
}

/// Asserts the byte-identity contract between a fiber-backed and an
/// OS-thread-backed report of the same check. Unlike the fast-path
/// equivalence suite, *every* counter must match — the fiber backend
/// changes how a handoff is performed, never whether one happens.
fn assert_identical(name: &str, fib: &lineup::CheckReport, os: &lineup::CheckReport) {
    assert_eq!(
        fib.passed(),
        os.passed(),
        "{name}: verdict must not depend on the backend"
    );
    assert_eq!(
        rendered(&fib.violations),
        rendered(&os.violations),
        "{name}: violation lists (order and decisions included) must be byte-identical"
    );
    assert_eq!(
        fib.phase2.full_histories, os.phase2.full_histories,
        "{name}: distinct full histories must match"
    );
    assert_eq!(
        fib.phase2.stuck_histories, os.phase2.stuck_histories,
        "{name}: distinct stuck histories must match"
    );
    assert_eq!(
        fib.phase2.runs, os.phase2.runs,
        "{name}: run counts must match"
    );
    assert_eq!(
        fib.phase2.sleep_prunes, os.phase2.sleep_prunes,
        "{name}: sleep-set prunes must match"
    );
    assert_eq!(
        fib.phase2.total_steps, os.phase2.total_steps,
        "{name}: step counts must match"
    );
    assert_eq!(
        fib.phase2.handoffs, os.phase2.handoffs,
        "{name}: a fiber handoff is counted exactly like an OS one"
    );
    assert_eq!(
        fib.phase2.fast_path_steps, os.phase2.fast_path_steps,
        "{name}: the same-thread fast path fires at the same points"
    );
}

#[test]
fn fiber_backend_is_byte_identical_on_every_class() {
    let all = all_classes();
    for entry in &all {
        let matrix = small(matrix_for(entry, &all));
        eprintln!("checking {} (fibers)...", entry.name);
        let fib = entry
            .target()
            .check(&matrix, &exhaustive(false, Backend::Fibers));
        eprintln!(
            "  runs={} handoffs={} fast={}",
            fib.phase2.runs, fib.phase2.handoffs, fib.phase2.fast_path_steps
        );
        let os = entry
            .target()
            .check(&matrix, &exhaustive(false, Backend::OsThreads));
        assert_identical(entry.name, &fib, &os);
    }
}

#[test]
fn backend_equivalence_holds_under_por() {
    // POR settles footprints and consults sleep sets at every schedule
    // point; the fiber switch must leave all of that in place.
    let all = all_classes();
    let mut checked = 0;
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let matrix = small(matrix_for(entry, &all));
        let fib = entry
            .target()
            .check(&matrix, &exhaustive(true, Backend::Fibers));
        let os = entry
            .target()
            .check(&matrix, &exhaustive(true, Backend::OsThreads));
        assert_identical(entry.name, &fib, &os);
        checked += 1;
    }
    assert!(checked >= 5, "expected the seeded variants, got {checked}");
}

#[test]
fn backend_equivalence_holds_under_two_workers() {
    // Each parallel worker owns a fiber pool; the work-stealing pool's
    // subtree handoffs must behave the same on either backend. POR stays
    // off here: with it on, steal-timing decides which sleep-set nodes get
    // promoted, so run counts are not comparable across two executions —
    // POR-off work stealing partitions the tree exactly, making every
    // counter deterministic.
    let all = all_classes();
    let mut checked = 0;
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let matrix = small(matrix_for(entry, &all));
        // Probe disabled so the stealing machinery is exercised even on
        // matrices below the auto-serial threshold.
        let fib = entry.target().check(
            &matrix,
            &exhaustive(false, Backend::Fibers)
                .with_workers(2)
                .with_parallel_probe_runs(0),
        );
        let os = entry.target().check(
            &matrix,
            &exhaustive(false, Backend::OsThreads)
                .with_workers(2)
                .with_parallel_probe_runs(0),
        );
        assert_identical(entry.name, &fib, &os);
        checked += 1;
    }
    assert!(checked >= 5, "expected the seeded variants, got {checked}");
}

#[test]
fn violations_recorded_on_one_backend_replay_on_the_other() {
    // The recorded decision indexes refer to schedule points, which both
    // backends visit identically — so a schedule recorded under fibers
    // replays under OS threads and vice versa.
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
    let opts = CheckOptions::new().with_preemption_bound(None);
    let fib = lineup::check(
        &target,
        &matrix,
        &opts.clone().with_backend(Backend::Fibers),
    );
    let os = lineup::check(
        &target,
        &matrix,
        &opts.clone().with_backend(Backend::OsThreads),
    );
    assert!(!fib.passed() && !os.passed(), "the seeded bug is found");
    let (
        Some(Violation::NoWitness { history, decisions }),
        Some(Violation::NoWitness {
            history: h2,
            decisions: d2,
        }),
    ) = (fib.first_violation(), os.first_violation())
    else {
        panic!("expected no-witness violations");
    };
    assert_eq!(history, h2, "same violating history either way");
    assert_eq!(decisions, d2, "same reproducing schedule either way");
    let run = replay_matrix(&target, &matrix, decisions.clone(), None);
    assert_eq!(
        &run.history, history,
        "replaying the recorded decisions reproduces the history"
    );
}
