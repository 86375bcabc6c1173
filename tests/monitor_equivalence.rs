//! The `lineup-monitor` monitor and phase 2's witness search agree on
//! every history the model checker records. Each regression matrix of
//! each registry class is explored under the configuration the default
//! check builds (preemption bound 2); every distinct full history, and
//! every pending operation of every distinct stuck history, must get the
//! same accept/reject answer from `Monitor::check_full` /
//! `Monitor::check_stuck` as from `find_witness` against the phase-1
//! observation set. The serial histories of phase 1 join the comparison
//! as recorded histories: these matrices deadlock only on bugs, so the
//! stuck serial ones are where a pending call blocks justifiably.
//!
//! The monitor steps the same observation set through an
//! `ObservationOracle`. Matrices whose phase 1 panics or is
//! nondeterministic are skipped: the check rejects them before phase 2.
//!
//! A registry class's ADT-kind annotation claims ideal-ADT behavior
//! serially, so the ideal oracle of that kind must also accept every
//! phase-1 history of the fixed classes.

mod support;

use std::collections::HashSet;
use std::ops::ControlFlow;

use lineup::{
    explore_matrix, find_witness, synthesize_spec, History, MonitorPathStats, Outcome,
    SerialHistory, TestMatrix, TestTarget, WitnessQuery,
};
use lineup_collections::registry::{all_classes, ClassEntry};
use lineup_monitor::{ideal_oracle_from, ideal_step, Monitor, ObservationOracle, StepResult};
use lineup_sched::{Config, RunOutcome};
use support::with_concrete_target;

/// A monitor over a test's observation set, as the caller configures it.
type Observed = Monitor<ObservationOracle>;

/// The matrices to compare a class on: its own regression matrices, or —
/// for fixed variants, which have no expected root causes — the matrices
/// of the seeded "(Pre)" sibling, exercised against the fixed code.
fn matrices_for(entry: &ClassEntry) -> Vec<TestMatrix> {
    let own = entry.regression_matrices();
    if !own.is_empty() {
        return own;
    }
    all_classes()
        .iter()
        .find(|e| e.name.trim_end_matches(" (Pre)") == entry.name && e.name != entry.name)
        .map(|sibling| sibling.regression_matrices())
        .unwrap_or_default()
}

/// `s` as a recorded history; a stuck one ends with its call pending.
fn recorded(s: &SerialHistory) -> History {
    let mut h = History::new(s.thread_count);
    for op in &s.ops {
        let call = h.push_call(op.thread, op.invocation.clone());
        match &op.outcome {
            Outcome::Returned(v) => h.push_return(call, v.clone()),
            Outcome::Pending => h.stuck = true,
        }
    }
    h
}

/// Asserts that the monitor `annotate` makes over the observation set of
/// `matrix` and `find_witness` against that set agree on every distinct
/// history of `matrix`, serial ones included. Returns the monitor's path counters, or `None`,
/// comparing nothing, when phase 1 panics or is nondeterministic.
fn assert_agreement<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    annotate: impl Fn(Observed) -> Observed,
    name: &str,
) -> Option<MonitorPathStats> {
    let (spec, _, panic) = synthesize_spec(target, matrix);
    if panic.is_some() || spec.check_determinism().is_some() {
        return None;
    }
    let monitor = annotate(Monitor::new(ObservationOracle::new(&spec)));
    let index = spec.index();
    let (mut full, mut stuck) = (HashSet::new(), HashSet::new());
    for s in spec.iter() {
        let set = if s.is_stuck() { &mut stuck } else { &mut full };
        set.insert(recorded(s));
    }
    explore_matrix(target, matrix, &Config::preemption_bounded(2), |run| {
        match run.outcome {
            RunOutcome::Complete => {
                full.insert(run.history);
            }
            RunOutcome::Deadlock | RunOutcome::Livelock | RunOutcome::StuckSerial => {
                stuck.insert(run.history);
            }
            RunOutcome::Pruned | RunOutcome::Panicked { .. } | RunOutcome::StepLimit => {}
        }
        ControlFlow::Continue(())
    });
    for h in &full {
        assert_eq!(
            monitor.check_full(h, &[]),
            find_witness(&index, &WitnessQuery::for_full(h)).is_some(),
            "{name}: verdict differs on full history {h:?} of\n{matrix}"
        );
    }
    for h in &stuck {
        for e in h.pending_ops() {
            assert_eq!(
                monitor.check_stuck(h, e, &[]),
                find_witness(&index, &WitnessQuery::for_stuck(h, e)).is_some(),
                "{name}: verdict differs on pending op {e} of stuck history {h:?} of\n{matrix}"
            );
        }
    }
    Some(monitor.stats().paths)
}

/// Runs [`assert_agreement`] on every matrix of `entry`. Returns the
/// monitors' path counters summed over the compared matrices, or `None`
/// when no matrix was compared.
fn agrees_on(
    entry: &ClassEntry,
    annotate: impl Fn(Observed, &TestMatrix) -> Observed,
) -> Option<MonitorPathStats> {
    let mut paths: Option<MonitorPathStats> = None;
    for matrix in matrices_for(entry) {
        let for_matrix = |monitor| annotate(monitor, &matrix);
        macro_rules! agree {
            ($target:expr) => {
                assert_agreement(&$target, &matrix, &for_matrix, entry.name)
            };
        }
        if let Some(compared) = with_concrete_target!(entry, agree) {
            paths.get_or_insert_with(Default::default).merge(&compared);
        }
    }
    paths
}

#[test]
fn monitor_backend_matches_find_witness_on_all_classes() {
    let mut fixed_checked = 0;
    let mut pre_checked = 0;
    for entry in all_classes() {
        let compared = agrees_on(&entry, |monitor, _| monitor);
        if compared.is_none() {
            continue;
        }
        if entry.name.ends_with("(Pre)") {
            pre_checked += 1;
        } else {
            fixed_checked += 1;
        }
    }
    assert!(
        fixed_checked >= 3 && pre_checked >= 3,
        "expected fixed and Pre coverage, got {fixed_checked} fixed / {pre_checked} Pre"
    );
}

#[test]
fn kind_annotated_backend_matches_find_witness_on_all_classes() {
    // Same comparison as above, but the monitor carries the registry's
    // ADT-kind annotation: checks of unambiguous histories are decided
    // by the specialized log-linear checkers, the rest fall back to
    // Wing–Gong — and neither path may change any verdict.
    let mut annotated = 0;
    let mut specialized = 0;
    for entry in all_classes() {
        let Some(paths) = agrees_on(&entry, |monitor, m| {
            let monitor = monitor.with_adt_init(m.init.clone());
            match entry.adt_kind {
                Some(kind) => monitor.with_adt_kind(kind),
                None => monitor,
            }
        }) else {
            continue;
        };
        if entry.adt_kind.is_none() {
            assert_eq!(
                paths.specialized_checks, 0,
                "{}: unannotated monitor took a specialized path",
                entry.name
            );
        } else {
            annotated += 1;
            specialized += paths.specialized_checks;
        }
    }
    assert!(
        annotated >= 3,
        "expected annotated coverage, got {annotated}"
    );
    assert!(specialized > 0, "no history took a specialized path");
}

#[test]
fn ideal_oracles_accept_the_serial_histories_of_kinded_fixed_classes() {
    let mut classes = HashSet::new();
    for entry in all_classes() {
        let Some(kind) = entry.adt_kind else {
            continue;
        };
        if entry.name.ends_with("(Pre)") {
            continue;
        }
        for matrix in matrices_for(&entry) {
            macro_rules! phase1 {
                ($target:expr) => {
                    synthesize_spec(&$target, &matrix).0
                };
            }
            let spec = with_concrete_target!(&entry, phase1);
            let init = matrix.init.clone();
            let state = init
                .iter()
                .fold(Vec::new(), |s, inv| match ideal_step(kind)(&s, inv) {
                    StepResult::Returns(_, next) => next,
                    other => panic!("{}: init {inv:?} steps to {other:?}", entry.name),
                });
            let monitor = Monitor::new(ideal_oracle_from(kind, state))
                .with_adt_kind(kind)
                .with_adt_init(init);
            for s in spec.iter() {
                let h = recorded(s);
                let accepted = if s.is_stuck() {
                    h.pending_ops()
                        .into_iter()
                        .all(|e| monitor.check_stuck(&h, e, &[]))
                } else {
                    monitor.check_full(&h, &[])
                };
                assert!(
                    accepted,
                    "{}: the ideal {kind} oracle rejects serial history {h:?} of\n{matrix}",
                    entry.name
                );
                classes.insert(entry.name);
            }
        }
    }
    assert!(
        classes.len() >= 3,
        "expected the queue, stack and dictionary, checked {classes:?}"
    );
}
