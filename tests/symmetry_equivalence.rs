//! Thread-symmetry reduction preserves phase-2 completeness (ISSUE
//! acceptance): pruning symmetric sibling schedules and deduplicating
//! verdicts on canonical history keys must never change a verdict. For
//! every registry class — fixed and "(Pre)" seeded variants — checking
//! with symmetry on must reach the same verdict and the same *set of
//! symmetry classes* of violating histories as checking with symmetry
//! off, with POR on or off, serially or under parallel workers, and
//! under either execution backend.
//!
//! The two modes are not byte-identical by construction: with symmetry
//! off the verdict cache keys on raw histories, so each member of a
//! symmetry class is reported separately, while with symmetry on the
//! class is reported once (through its first-encountered member, which
//! the sibling-ordering rule guarantees is also the first member the
//! unpruned search meets). The comparisons below therefore canonicalize
//! both violation lists before comparing. When a matrix has no
//! symmetric threads — or the target opts out, like `ConcurrentBag` —
//! the reports must be byte-identical.

use lineup::{Backend, CheckOptions, Invocation, SymmetryGroups, TestMatrix, Violation};
use lineup_collections::registry::{all_classes, ClassEntry};

/// Renders a violation list up to symmetry: histories are canonicalized
/// under `groups` so symmetric duplicates from the unreduced search
/// collapse onto the single representative the reduced search reports.
/// Decisions are dropped (the reduced search may reach a class through
/// an earlier schedule); the result is sorted and deduplicated.
fn canonical_keys(groups: &SymmetryGroups, violations: &[Violation]) -> Vec<String> {
    let mut keys: Vec<String> = violations
        .iter()
        .map(|v| match v {
            Violation::Nondeterminism(nd) => format!("nondeterminism: {nd:?}"),
            Violation::NoWitness { history, .. } => {
                format!("no-witness: {:?}", groups.canonicalize(history))
            }
            Violation::StuckNoWitness {
                history, pending, ..
            } => format!(
                "stuck-no-witness: {pending:?} {:?}",
                groups.canonicalize(history)
            ),
            Violation::Panic {
                message, history, ..
            } => format!("panic: {message} {:?}", groups.canonicalize(history)),
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// A small matrix exercising `entry`: its own regression matrix when it
/// has one, else the seeded sibling's, else a minimal two-column test
/// from the target's catalog (same selection as `por_equivalence`).
fn matrix_for(entry: &ClassEntry, all: &[ClassEntry]) -> TestMatrix {
    if entry.name == "ConcurrentBag" {
        return TestMatrix::from_columns(vec![
            vec![Invocation::with_int("Add", 10)],
            vec![Invocation::with_int("Add", 20)],
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

/// Shrinks a matrix so the unreduced exhaustive baseline stays feasible
/// in a debug-build test (the reduction factors in `EXPERIMENTS.md` are
/// measured on the full matrices instead).
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

/// Two value-symmetric producer/consumer columns: the threads differ
/// only in the enqueued literal, so `SymmetryPolicy::Full` detects one
/// two-thread group and phase-1 pruning engages.
fn symmetric_queue_matrix() -> TestMatrix {
    TestMatrix::from_columns(vec![
        vec![
            Invocation::with_int("Enqueue", 10),
            Invocation::new("TryDequeue"),
        ],
        vec![
            Invocation::with_int("Enqueue", 20),
            Invocation::new("TryDequeue"),
        ],
    ])
}

fn exhaustive(por: bool, symmetry: bool) -> CheckOptions {
    CheckOptions::new()
        .with_preemption_bound(None)
        .with_por(por)
        .with_symmetry(symmetry)
        .collect_all_violations()
}

#[test]
fn symmetry_matches_baseline_on_every_class() {
    let all = all_classes();
    for entry in &all {
        let matrix = small(matrix_for(entry, &all));
        let groups = matrix.symmetry_groups(entry.symmetry_policy());
        for por in [false, true] {
            eprintln!("checking {} (por={por})...", entry.name);
            let off = entry.target().check(&matrix, &exhaustive(por, false));
            let on = entry.target().check(&matrix, &exhaustive(por, true));
            assert_eq!(
                off.passed(),
                on.passed(),
                "{} (por={por}): verdict must not change under symmetry",
                entry.name
            );
            assert_eq!(
                canonical_keys(&groups, &off.violations),
                canonical_keys(&groups, &on.violations),
                "{} (por={por}): violating symmetry classes must match",
                entry.name
            );
            assert!(
                on.phase2.runs <= off.phase2.runs,
                "{} (por={por}): symmetry must not add runs ({} > {})",
                entry.name,
                on.phase2.runs,
                off.phase2.runs
            );
            assert!(
                on.phase2.full_histories <= off.phase2.full_histories,
                "{} (por={por}): canonical classes cannot outnumber raw histories",
                entry.name
            );
            if groups.is_empty() {
                // No symmetric threads: the reduction is inert and the
                // reports must be byte-identical, decisions included.
                assert_eq!(on.phase2.runs, off.phase2.runs, "{}", entry.name);
                assert_eq!(on.phase2.symmetry_prunes, 0, "{}", entry.name);
                assert_eq!(
                    format!("{:?}", off.violations),
                    format!("{:?}", on.violations),
                    "{} (por={por}): inert symmetry must be invisible",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn symmetry_prunes_symmetric_schedules() {
    // On a genuinely thread-symmetric matrix the reduction must do real
    // work on top of POR: fewer runs, counted prunes, and (with the
    // spared duplicates gone) each violating class reported once.
    let all = all_classes();
    let matrix = symmetric_queue_matrix();
    for name in ["ConcurrentQueue", "ConcurrentQueue (Pre)"] {
        let entry = all.iter().find(|e| e.name == name).expect("registry");
        let groups = matrix.symmetry_groups(entry.symmetry_policy());
        assert!(!groups.is_empty(), "{name}: matrix should be symmetric");
        for por in [false, true] {
            let off = entry.target().check(&matrix, &exhaustive(por, false));
            let on = entry.target().check(&matrix, &exhaustive(por, true));
            assert!(
                on.phase2.runs < off.phase2.runs,
                "{name} (por={por}): expected a strict run reduction ({} vs {})",
                on.phase2.runs,
                off.phase2.runs
            );
            assert!(
                on.phase2.symmetry_prunes > 0,
                "{name} (por={por}): prunes must be counted"
            );
            assert_eq!(off.passed(), on.passed(), "{name} (por={por})");
            assert_eq!(
                canonical_keys(&groups, &off.violations),
                canonical_keys(&groups, &on.violations),
                "{name} (por={por})"
            );
        }
    }
}

#[test]
fn symmetry_is_inert_under_preemption_bounds() {
    // Like sleep sets, sibling pruning assumes the deferred schedule
    // stays reachable — a preemption bound can cut it off, so symmetry
    // must disengage and the bounded explorations must be identical run
    // for run. Canonical verdict-cache keys stay active (they are a
    // dedup, not a prune), so history *counts* may differ; runs and
    // violating classes may not.
    let all = all_classes();
    let matrix = symmetric_queue_matrix();
    let entry = all
        .iter()
        .find(|e| e.name == "ConcurrentQueue (Pre)")
        .expect("registry");
    let groups = matrix.symmetry_groups(entry.symmetry_policy());
    for bound in 0..=2 {
        let opts = |symmetry| {
            CheckOptions::new()
                .with_preemption_bound(Some(bound))
                .with_por(true)
                .with_symmetry(symmetry)
                .collect_all_violations()
        };
        let off = entry.target().check(&matrix, &opts(false));
        let on = entry.target().check(&matrix, &opts(true));
        assert_eq!(
            off.phase2.runs, on.phase2.runs,
            "bound {bound}: symmetry must disengage"
        );
        assert_eq!(
            on.phase2.symmetry_prunes, 0,
            "bound {bound}: no prunes under a bound"
        );
        assert_eq!(off.passed(), on.passed(), "bound {bound}");
        assert_eq!(
            canonical_keys(&groups, &off.violations),
            canonical_keys(&groups, &on.violations),
            "bound {bound}"
        );
    }
}

#[test]
fn symmetry_matches_baseline_under_workers() {
    let all = all_classes();
    let matrix = symmetric_queue_matrix();
    for name in ["ConcurrentQueue", "ConcurrentQueue (Pre)"] {
        let entry = all.iter().find(|e| e.name == name).expect("registry");
        let groups = matrix.symmetry_groups(entry.symmetry_policy());
        let baseline = entry.target().check(&matrix, &exhaustive(true, false));
        for workers in [1, 2, 4] {
            let on = entry.target().check(
                &matrix,
                &exhaustive(true, true)
                    .with_workers(workers)
                    .with_parallel_probe_runs(0),
            );
            assert_eq!(
                baseline.passed(),
                on.passed(),
                "{name} with {workers} worker(s)"
            );
            assert_eq!(
                canonical_keys(&groups, &baseline.violations),
                canonical_keys(&groups, &on.violations),
                "{name} with {workers} worker(s)"
            );
            assert!(
                on.phase2.runs < baseline.phase2.runs,
                "{name} with {workers} worker(s): reduction must survive stealing"
            );
        }
    }
}

#[test]
fn symmetry_matches_baseline_across_backends() {
    // The backend moves fibers vs OS threads underneath the scheduler;
    // the symmetry mask is computed at the decision layer above it, so
    // reduced explorations must be byte-identical across backends.
    let all = all_classes();
    let matrix = symmetric_queue_matrix();
    let entry = all
        .iter()
        .find(|e| e.name == "ConcurrentQueue (Pre)")
        .expect("registry");
    let fibers = entry.target().check(
        &matrix,
        &exhaustive(true, true).with_backend(Backend::Fibers),
    );
    let os = entry.target().check(
        &matrix,
        &exhaustive(true, true).with_backend(Backend::OsThreads),
    );
    assert_eq!(fibers.phase2.runs, os.phase2.runs);
    assert_eq!(fibers.phase2.symmetry_prunes, os.phase2.symmetry_prunes);
    assert_eq!(
        format!("{:?}", fibers.violations),
        format!("{:?}", os.violations),
        "backends must not perturb the reduced exploration"
    );
}

#[test]
fn concurrent_bag_auto_disables_symmetry() {
    // The bag's verdict depends on thread identity (per-thread slot
    // lists scanned in order), so its policy is `Disabled`: even on a
    // literally thread-symmetric matrix the reduction must stay inert
    // and the reports byte-identical.
    let all = all_classes();
    let entry = all
        .iter()
        .find(|e| e.name == "ConcurrentBag")
        .expect("registry");
    assert_eq!(
        entry.symmetry_policy(),
        lineup::SymmetryPolicy::Disabled,
        "bag must opt out of symmetry"
    );
    let matrix = TestMatrix::from_columns(vec![
        vec![Invocation::with_int("Add", 7)],
        vec![Invocation::with_int("Add", 7)],
    ]);
    assert!(
        matrix.symmetry_groups(entry.symmetry_policy()).is_empty(),
        "Disabled policy must yield no groups even on identical columns"
    );
    let off = entry.target().check(&matrix, &exhaustive(true, false));
    let on = entry.target().check(&matrix, &exhaustive(true, true));
    assert_eq!(off.phase2.runs, on.phase2.runs);
    assert_eq!(on.phase2.symmetry_prunes, 0);
    assert_eq!(
        format!("{:?}", off.violations),
        format!("{:?}", on.violations)
    );
    assert_eq!(off.passed(), on.passed());
}
