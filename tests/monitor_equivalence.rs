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
//! The monitor steps the same observation set, its prefix automaton
//! being an oracle. Matrices whose phase 1 panics or is nondeterministic
//! are skipped: the check rejects them before phase 2. On the same
//! histories of every matrix, skipping none, `find_witness` must find a
//! witness exactly when some linearization is a member of the set.
//!
//! A registry class's ADT-kind annotation claims ideal-ADT behavior
//! serially, so the ideal oracle of that kind must also accept every
//! phase-1 history of the fixed classes.
//!
//! The search itself is held to brute-force enumerators of linearizations
//! (`support::brute_force`) — against an oracle on random histories of
//! at most eight operations, and against the set as above — and its
//! search tree (oracle steps, memo hits) is pinned on one ambiguous
//! history per kind.

mod support;

use std::collections::{HashSet, VecDeque};
use std::ops::ControlFlow;

use lineup::spec::SpecIndex;
use lineup::{
    explore_matrix, find_witness, synthesize_spec, AdtKind, History, Invocation, MonitorPathStats,
    ObservationSet, OpIndex, Outcome, SerialHistory, TestMatrix, TestTarget, Value, WitnessQuery,
};
use lineup_bench::histories::ambiguous_history;
use lineup_collections::registry::{all_classes, ClassEntry};
use lineup_monitor::{
    ideal_oracle, ideal_oracle_from, ideal_step, FnOracle, Monitor, SeqOracle, StepResult,
};
use lineup_sched::{Config, RunOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use support::brute_force::{brute_force, brute_force_in_set};
use support::with_concrete_target;

/// A monitor over a test's observation set, as the caller configures it.
type Observed<'a> = Monitor<SpecIndex<'a>>;

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

/// The distinct full and stuck histories of `matrix` under preemption
/// bound 2, with the serial histories of its specification `spec`.
fn distinct_histories<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    spec: &ObservationSet,
) -> (HashSet<History>, HashSet<History>) {
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
    (full, stuck)
}

/// Asserts that the monitor `annotate` makes over the observation set of
/// `matrix` and `find_witness` against that set agree on every distinct
/// history of `matrix`, serial ones included. Returns the monitor's path
/// counters, or `None`, comparing nothing, when phase 1 panics or is
/// nondeterministic.
fn assert_agreement<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    annotate: impl for<'a> Fn(Observed<'a>) -> Observed<'a>,
    name: &str,
) -> Option<MonitorPathStats> {
    let (spec, _, panic) = synthesize_spec(target, matrix);
    if panic.is_some() || spec.check_determinism().is_some() {
        return None;
    }
    let monitor = annotate(Monitor::new(spec.index()));
    let index = spec.index();
    let (full, stuck) = distinct_histories(target, matrix, &spec);
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
    annotate: impl for<'a> Fn(Observed<'a>, &TestMatrix) -> Observed<'a>,
) -> Option<MonitorPathStats> {
    let mut paths: Option<MonitorPathStats> = None;
    for matrix in matrices_for(entry) {
        macro_rules! agree {
            ($target:expr) => {
                assert_agreement(&$target, &matrix, |m| annotate(m, &matrix), entry.name)
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

/// Asserts that `find_witness` against the specification of `matrix`
/// finds a witness exactly when some order of the history's operations is
/// a member, on every distinct history of `matrix`. Returns how many
/// queries found none.
fn assert_witness_iff_member<T: TestTarget>(target: &T, matrix: &TestMatrix, name: &str) -> usize {
    let (spec, _, _) = synthesize_spec(target, matrix);
    let (index, members) = (spec.index(), spec.iter().collect());
    let (full, stuck) = distinct_histories(target, matrix, &spec);
    let pending = |h: &History| h.pending_ops().into_iter().map(Some);
    let checks = (full.iter().map(|h| (h, None)))
        .chain(stuck.iter().flat_map(|h| pending(h).map(move |e| (h, e))));
    let mut rejects = 0;
    for (h, pending) in checks {
        let q = pending.map_or_else(
            || WitnessQuery::for_full(h),
            |e| WitnessQuery::for_stuck(h, e),
        );
        let found = find_witness(&index, &q).is_some();
        assert_eq!(
            found,
            brute_force_in_set(&members, h, pending, &[]),
            "{name}: pending {pending:?} of {h:?} of\n{matrix}"
        );
        rejects += usize::from(!found);
    }
    rejects
}

#[test]
fn find_witness_matches_brute_force_in_set() {
    // Phase 2's search against the definitions, on the specifications of
    // every class, panicking and nondeterministic ones included: the
    // search is exact on any set.
    let mut rejects = 0;
    for entry in all_classes() {
        for matrix in matrices_for(&entry) {
            macro_rules! compare {
                ($target:expr) => {
                    assert_witness_iff_member(&$target, &matrix, entry.name)
                };
            }
            rejects += with_concrete_target!(&entry, compare);
        }
    }
    assert!(rejects > 0, "no history without a witness");
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

#[test]
fn wing_gong_search_tree_is_pinned() {
    // One 400-op duplicate-value history per kind falls back to the
    // Wing–Gong search; its oracle steps and memo hits count the nodes
    // visited and pruned, so a change to the candidate rule, the memo
    // key or the visiting order moves these numbers.
    let pinned = [
        (AdtKind::Queue, 16_862, 3_653),
        (AdtKind::Stack, 9_051, 1_666),
        (AdtKind::Set, 580, 25),
        (AdtKind::PriorityQueue, 740, 35),
    ];
    for (kind, oracle_steps, memo_hits) in pinned {
        let h = ambiguous_history(kind, 400, 1);
        let monitor = Monitor::new(ideal_oracle(kind)).with_adt_kind(kind);
        assert!(monitor.check_full(&h, &[]), "{kind}: rejected");
        let stats = monitor.stats();
        assert_eq!(stats.paths.fallback_checks, 1, "{kind}: no fallback");
        assert_eq!(
            (stats.oracle_steps, stats.memo_hits),
            (oracle_steps, memo_hits),
            "{kind}: search tree moved"
        );
    }
}

/// One oracle of the brute-force differential: a fresh instance (the
/// monitor owns its oracle), its alphabet, the responses a corrupted
/// return may carry, and the methods its async runs declare.
struct Differential<O> {
    make: fn() -> O,
    alphabet: Vec<Invocation>,
    responses: Vec<Value>,
    async_methods: Vec<String>,
}

/// The responses of `invs` replayed serially from the initial state;
/// `None` from the first call that does not return on.
fn serial_responses<O: SeqOracle>(oracle: &O, invs: &[Invocation]) -> Vec<Option<Value>> {
    let mut state = Some(oracle.initial());
    invs.iter()
        .map(|inv| match oracle.step(state.as_ref()?, 0, inv) {
            StepResult::Returns(v, next) => {
                state = Some(next);
                Some(v)
            }
            _ => state.take().and(None),
        })
        .collect()
}

impl<O: SeqOracle> Differential<O> {
    /// `v`, or with probability 1/10 a random response.
    fn maybe_corrupt(&self, v: Value, rng: &mut SmallRng) -> Value {
        if rng.gen_bool(0.1) {
            self.responses[rng.gen_range(0..self.responses.len())].clone()
        } else {
            v
        }
    }

    /// A random history of up to eight ops on one to three threads: they
    /// replay serially in a random order, then the threads' calls and
    /// returns interleave at random. Uncorrupted, it is sequentially
    /// consistent, so the precedence order (relaxed for async methods)
    /// alone decides whether it linearizes. An op that blocks in the
    /// replay stays pending, and the replay ends there.
    fn random(&self, oracle: &O, rng: &mut SmallRng) -> History {
        let mut h = History::new(rng.gen_range(1..4));
        let mut program: Vec<VecDeque<(Invocation, Option<Value>)>> =
            vec![VecDeque::new(); h.thread_count];
        let mut state = oracle.initial();
        for _ in 0..rng.gen_range(0..9) {
            let t = rng.gen_range(0..h.thread_count);
            let inv = self.alphabet[rng.gen_range(0..self.alphabet.len())].clone();
            let StepResult::Returns(v, next) = oracle.step(&state, t, &inv) else {
                program[t].push_back((inv, None));
                break;
            };
            state = next;
            program[t].push_back((inv, Some(v)));
        }
        // Per thread: the open call and its response (`None`: blocked).
        let mut open: Vec<Option<(OpIndex, Option<Value>)>> = vec![None; h.thread_count];
        loop {
            let live: Vec<usize> = (0..h.thread_count)
                .filter(|&t| match &open[t] {
                    Some((_, v)) => v.is_some(),
                    None => !program[t].is_empty(),
                })
                .collect();
            if live.is_empty() {
                break;
            }
            let t = live[rng.gen_range(0..live.len())];
            match open[t].take() {
                Some((op, v)) => h.push_return(op, self.maybe_corrupt(v.unwrap(), rng)),
                None => {
                    let (inv, v) = program[t].pop_front().unwrap();
                    open[t] = Some((h.push_call(t, inv), v));
                }
            }
        }
        h.stuck = !h.is_complete();
        h
    }

    /// The degenerate shapes: no ops, a lone pending call of each method,
    /// one thread running up to eight ops serially, and up to eight ops
    /// on as many threads all overlapping (every call before any return).
    fn degenerate(&self, oracle: &O, rng: &mut SmallRng) -> Vec<History> {
        let mut out = vec![History::new(2)];
        for inv in &self.alphabet {
            let mut h = History::new(1);
            h.push_call(0, inv.clone());
            h.stuck = true;
            out.push(h);
        }
        for _ in 0..8 {
            let invs: Vec<Invocation> = (0..rng.gen_range(1..9))
                .map(|_| self.alphabet[rng.gen_range(0..self.alphabet.len())].clone())
                .collect();
            let responses = serial_responses(oracle, &invs);
            let mut serial = History::new(1);
            let mut overlapping = History::new(invs.len());
            for (t, (inv, v)) in invs.iter().zip(&responses).enumerate() {
                let op = serial.push_call(0, inv.clone());
                if let Some(v) = v {
                    serial.push_return(op, self.maybe_corrupt(v.clone(), rng));
                } else {
                    serial.stuck = true;
                    break;
                }
                overlapping.push_call(t, inv.clone());
            }
            for (op, v) in responses.iter().enumerate() {
                if let Some(v) = v {
                    overlapping.push_return(op, self.maybe_corrupt(v.clone(), rng));
                }
            }
            out.push(serial);
            out.push(overlapping);
        }
        out
    }

    /// Checks `count` random histories and the degenerate ones through a
    /// kind-less monitor against the brute force, each once without and
    /// once with the async methods. Returns how many checks accepted, how
    /// many rejected, and how many only the async relaxation accepted.
    fn run(&self, seed: u64, count: usize) -> [usize; 3] {
        let oracle = (self.make)();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut histories = self.degenerate(&oracle, &mut rng);
        histories.extend((0..count).map(|_| self.random(&oracle, &mut rng)));
        let modes = [&[][..], &self.async_methods[..]];
        let monitors = modes.map(|_| Monitor::new((self.make)()));
        let mut tally = [0; 3];
        for h in &histories {
            let checks: Vec<Option<OpIndex>> = if h.is_complete() {
                vec![None]
            } else {
                h.pending_ops().into_iter().map(Some).collect()
            };
            for pending in checks {
                let verdicts = [0, 1].map(|mode| {
                    let (monitor, async_methods) = (&monitors[mode], modes[mode]);
                    let verdict = match pending {
                        None => monitor.check_full(h, async_methods),
                        Some(e) => monitor.check_stuck(h, e, async_methods),
                    };
                    assert_eq!(
                        verdict,
                        brute_force(&oracle, h, pending, async_methods),
                        "pending {pending:?}, async {async_methods:?}: {h:?}"
                    );
                    tally[usize::from(!verdict)] += 1;
                    verdict
                });
                tally[2] += usize::from(verdicts == [false, true]);
            }
        }
        for monitor in &monitors {
            assert_eq!(monitor.stats().paths.specialized_checks, 0);
        }
        tally
    }
}

#[test]
fn wing_gong_search_matches_brute_force() {
    let counter = Differential {
        make: || {
            FnOracle::new(0i64, |s: &i64, inv: &Invocation| match inv.name.as_str() {
                "inc" => StepResult::Returns(Value::Unit, s + 1),
                "get" => StepResult::Returns(Value::Int(*s), *s),
                other => StepResult::Panics(format!("unknown {other}")),
            })
        },
        alphabet: vec![Invocation::new("inc"), Invocation::new("get")],
        responses: (0..3).map(Value::Int).chain([Value::Unit]).collect(),
        async_methods: vec!["inc".into()],
    };
    let queue = Differential {
        make: || ideal_oracle(AdtKind::Queue),
        alphabet: vec![
            Invocation::with_int("Enqueue", 1),
            Invocation::with_int("Enqueue", 2),
            Invocation::new("TryDequeue"),
        ],
        responses: vec![
            Value::Unit,
            Value::Fail,
            Value::some(Value::int(1)),
            Value::some(Value::int(2)),
        ],
        async_methods: vec!["Enqueue".into()],
    };
    let event = Differential {
        make: || {
            FnOracle::new(false, |s: &bool, inv: &Invocation| {
                match inv.name.as_str() {
                    "Set" => StepResult::Returns(Value::Unit, true),
                    "Reset" => StepResult::Returns(Value::Unit, false),
                    "Wait" if *s => StepResult::Returns(Value::Unit, true),
                    "Wait" => StepResult::Blocks,
                    other => StepResult::Panics(format!("unknown {other}")),
                }
            })
        },
        alphabet: vec![
            Invocation::new("Set"),
            Invocation::new("Reset"),
            Invocation::new("Wait"),
        ],
        responses: vec![Value::Unit, Value::Fail],
        async_methods: vec!["Set".into()],
    };
    for (name, [accepted, rejected, relaxed]) in [
        ("counter", counter.run(0xC0, 1000)),
        ("queue", queue.run(0x0E, 1000)),
        ("event", event.run(0xE7, 1000)),
    ] {
        assert!(
            accepted > 100 && rejected > 100 && relaxed > 0,
            "{name}: {accepted} accepted / {rejected} rejected / {relaxed} by async only"
        );
    }
}
