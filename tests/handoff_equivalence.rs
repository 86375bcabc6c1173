//! The same-thread continuation fast path is unobservable (ISSUE
//! acceptance): a schedule point that keeps the baton on the running
//! thread skips only the park/unpark pair, never the decision, the
//! recording, or the POR bookkeeping. Exploring any class with the fast
//! path forced off ([`CheckOptions::with_fast_path`]) must therefore be
//! *byte-identical* — same verdicts, same violation list in the same
//! order with the same reproducing decisions, same distinct-history
//! counts, same run and step counts — with POR on or off and under
//! parallel exploration. The only permitted difference is the split of
//! steps between `fast_path_steps` and `handoffs`.

use lineup::{replay_matrix, CheckOptions, TestMatrix, Violation};
use lineup_collections::registry::{all_classes, ClassEntry};

/// Renders the full violation list, decisions included: the fast path
/// must not change the exploration order, so unlike the POR equivalence
/// tests no sorting or deduplication is allowed here.
fn rendered(violations: &[Violation]) -> Vec<String> {
    violations.iter().map(|v| format!("{v:?}")).collect()
}

/// A small matrix exercising `entry`: its own regression matrix when it
/// has one, else the seeded sibling's (same component, same methods),
/// else a minimal two-column test from the target's catalog.
fn matrix_for(entry: &ClassEntry, all: &[ClassEntry]) -> TestMatrix {
    if entry.name == "ConcurrentBag" {
        // The bag's `TryTake` scans every per-thread list; keep the
        // POR-off baseline finite by comparing on concurrent `Add`s.
        return TestMatrix::from_columns(vec![
            vec![lineup::Invocation::with_int("Add", 10)],
            vec![lineup::Invocation::with_int("Add", 20)],
        ]);
    }
    if let Some(m) = entry.regression_matrix() {
        return m;
    }
    let pre = format!("{} (Pre)", entry.name);
    if let Some(m) = all
        .iter()
        .find(|e| e.name == pre)
        .and_then(|e| e.regression_matrix())
    {
        return m;
    }
    let invs = entry.target().invocations();
    let a = invs[0].clone();
    let b = invs.get(1).cloned().unwrap_or_else(|| invs[0].clone());
    TestMatrix::from_columns(vec![vec![a.clone(), b.clone()], vec![b, a]])
}

/// Shrinks a matrix so the exhaustive exploration stays feasible in a
/// debug-build test: at most two columns of at most two operations.
fn small(mut m: TestMatrix) -> TestMatrix {
    m.columns.truncate(2);
    if let Some(c) = m.columns.first_mut() {
        c.truncate(2);
    }
    if let Some(c) = m.columns.get_mut(1) {
        c.truncate(1);
    }
    m.finally.truncate(1);
    m
}

fn exhaustive(por: bool, fast_path: bool) -> CheckOptions {
    CheckOptions::new()
        .with_preemption_bound(None)
        .with_por(por)
        .with_fast_path(fast_path)
        .collect_all_violations()
}

/// Asserts the byte-identity contract between a fast-path and a
/// forced-slow-path report of the same check.
fn assert_identical(name: &str, fast: &lineup::CheckReport, slow: &lineup::CheckReport) {
    assert_eq!(
        fast.passed(),
        slow.passed(),
        "{name}: verdict must not change with the fast path off"
    );
    assert_eq!(
        rendered(&fast.violations),
        rendered(&slow.violations),
        "{name}: violation lists (order and decisions included) must be byte-identical"
    );
    assert_eq!(
        fast.phase2.full_histories, slow.phase2.full_histories,
        "{name}: distinct full histories must match"
    );
    assert_eq!(
        fast.phase2.stuck_histories, slow.phase2.stuck_histories,
        "{name}: distinct stuck histories must match"
    );
    assert_eq!(
        fast.phase2.runs, slow.phase2.runs,
        "{name}: run counts must match"
    );
    assert_eq!(
        fast.phase2.sleep_prunes, slow.phase2.sleep_prunes,
        "{name}: sleep-set prunes must match"
    );
    assert_eq!(
        fast.phase2.total_steps, slow.phase2.total_steps,
        "{name}: the fast path skips handoffs, never schedule points"
    );
    assert_eq!(
        slow.phase2.fast_path_steps, 0,
        "{name}: the knob must force every step through a handoff"
    );
    assert_eq!(
        slow.phase2.handoffs,
        fast.phase2.handoffs + fast.phase2.fast_path_steps,
        "{name}: every skipped handoff reappears when the knob is off"
    );
}

#[test]
fn fast_path_off_is_byte_identical_on_every_class() {
    let all = all_classes();
    for entry in &all {
        let matrix = small(matrix_for(entry, &all));
        eprintln!("checking {} (fast path on)...", entry.name);
        let fast = entry.target().check(&matrix, &exhaustive(false, true));
        eprintln!(
            "  runs={} fast_path_steps={} handoffs={}",
            fast.phase2.runs, fast.phase2.fast_path_steps, fast.phase2.handoffs
        );
        let slow = entry.target().check(&matrix, &exhaustive(false, false));
        assert_identical(entry.name, &fast, &slow);
    }
}

#[test]
fn fast_path_equivalence_holds_under_por() {
    // POR settles footprints and consults sleep sets at every schedule
    // point; the fast path must leave all of that in place, so the
    // reduced explorations must also be byte-identical.
    let all = all_classes();
    let mut checked = 0;
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let matrix = small(matrix_for(entry, &all));
        let fast = entry.target().check(&matrix, &exhaustive(true, true));
        let slow = entry.target().check(&matrix, &exhaustive(true, false));
        assert_identical(entry.name, &fast, &slow);
        checked += 1;
    }
    assert!(checked >= 5, "expected the seeded variants, got {checked}");
}

#[test]
fn fast_path_equivalence_holds_under_two_workers() {
    // Parallel exploration adds the work-stealing pool's lazy prefix
    // replays; stolen subtrees must cover the tree the same way
    // regardless of the fast path. POR stays off here: with it on,
    // steal-timing decides which sleep-set nodes get promoted, so run
    // counts are not comparable across two executions — POR-off work
    // stealing partitions the tree exactly, making every counter
    // deterministic.
    let all = all_classes();
    let mut checked = 0;
    for entry in all.iter().filter(|e| e.name.ends_with("(Pre)")) {
        let matrix = small(matrix_for(entry, &all));
        // Probe disabled so the stealing machinery is exercised even on
        // matrices below the auto-serial threshold.
        let fast = entry.target().check(
            &matrix,
            &exhaustive(false, true)
                .with_workers(2)
                .with_parallel_probe_runs(0),
        );
        let slow = entry.target().check(
            &matrix,
            &exhaustive(false, false)
                .with_workers(2)
                .with_parallel_probe_runs(0),
        );
        assert_identical(entry.name, &fast, &slow);
        checked += 1;
    }
    assert!(checked >= 5, "expected the seeded variants, got {checked}");
}

#[test]
fn recorded_violations_replay_identically_under_either_mode() {
    // A schedule recorded with the fast path on must replay to the same
    // history whether or not the replaying exploration uses the fast
    // path — the decision indexes refer to schedule points, which the
    // fast path never elides.
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
    let fast = lineup::check(&target, &matrix, &opts);
    let slow = lineup::check(&target, &matrix, &opts.clone().with_fast_path(false));
    assert!(!fast.passed() && !slow.passed(), "the seeded bug is found");
    let (
        Some(Violation::NoWitness { history, decisions }),
        Some(Violation::NoWitness {
            history: h2,
            decisions: d2,
        }),
    ) = (fast.first_violation(), slow.first_violation())
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
