//! Property-based tests (proptest) over the core Line-Up data structures
//! and algorithms: witness-search soundness, value-format round-trips,
//! matrix algebra, and never-failing checks on a known-correct component.

use proptest::prelude::*;

use lineup::doc_support::CounterTarget;
use lineup::{
    check, find_witness, is_witness, CheckOptions, Event, History, HistoryKey, Invocation,
    KeyWriter, ObservationSet, Outcome, SerialHistory, SpecOp, TestMatrix, Value, WitnessQuery,
};
use lineup_collections::registry::all_classes;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        Just(Value::Fail),
        Just(Value::Opt(None)),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        "[a-zA-Z0-9 <>&\"\\\\]{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            inner.prop_map(Value::some),
        ]
    })
}

/// A random serial history over up to 3 threads and a tiny op alphabet.
fn serial_history_strategy() -> impl Strategy<Value = SerialHistory> {
    let op = (0usize..3, 0usize..3, 0i64..4).prop_map(|(thread, name, result)| SpecOp {
        thread,
        invocation: Invocation::new(["put", "take", "len"][name]),
        outcome: Outcome::Returned(Value::Int(result)),
    });
    prop::collection::vec(op, 1..7).prop_map(|ops| SerialHistory {
        thread_count: 3,
        ops,
    })
}

/// Builds a concurrent history from a serial one by optionally overlapping
/// each adjacent pair of different-thread operations (delaying the first
/// return past the second call). This keeps `H|t = S|t` and `<H ⊆ <S`, so
/// `S` remains a witness of the result by construction.
fn overlap(serial: &SerialHistory, overlaps: &[bool]) -> History {
    let mut h = History::new(serial.thread_count);
    let mut i = 0;
    while i < serial.ops.len() {
        let a = &serial.ops[i];
        let overlap_next = overlaps.get(i).copied().unwrap_or(false)
            && i + 1 < serial.ops.len()
            && serial.ops[i + 1].thread != a.thread;
        let va = match &a.outcome {
            Outcome::Returned(v) => v.clone(),
            Outcome::Pending => unreachable!("strategy yields complete ops"),
        };
        if overlap_next {
            let b = &serial.ops[i + 1];
            let vb = match &b.outcome {
                Outcome::Returned(v) => v.clone(),
                Outcome::Pending => unreachable!(),
            };
            let ia = h.push_call(a.thread, a.invocation.clone());
            let ib = h.push_call(b.thread, b.invocation.clone());
            h.push_return(ia, va);
            h.push_return(ib, vb);
            i += 2;
        } else {
            let ia = h.push_call(a.thread, a.invocation.clone());
            h.push_return(ia, va);
            i += 1;
        }
    }
    h
}

/// One step of a generated history: (thread selector, op-name index,
/// arguments, response). A step whose thread has an open call returns
/// it; otherwise it calls. Calls left open at the end are the pending
/// tail.
type Step = (usize, usize, Vec<Value>, Value);

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        0usize..4,
        0usize..3,
        prop::collection::vec(value_strategy(), 0..3),
        value_strategy(),
    )
}

/// A well-formed history over 1–4 threads with empty-to-nested argument
/// lists, a possibly pending tail and an arbitrary stuck flag.
fn history_strategy() -> impl Strategy<Value = History> {
    (
        1usize..5,
        prop::collection::vec(step_strategy(), 0..12),
        any::<bool>(),
    )
        .prop_map(|(threads, steps, stuck)| {
            let mut h = History::new(threads);
            let mut open: Vec<Option<usize>> = vec![None; threads];
            for (sel, name, args, response) in steps {
                let t = sel % threads;
                match open[t].take() {
                    Some(op) => h.push_return(op, response),
                    None => {
                        let invocation = Invocation {
                            name: ["Put", "Pu", "TryTake"][name].to_string(),
                            args,
                        };
                        open[t] = Some(h.push_call(t, invocation));
                    }
                }
            }
            h.stuck = stuck;
            h
        })
}

/// A near neighbour of `h`: one small edit chosen by `edit`, aimed at `at`.
/// Some edits are no-ops on some histories; the property below holds
/// either way.
fn neighbour(h: &History, edit: usize, at: usize) -> History {
    let mut n = h.clone();
    let at = at % n.ops.len().max(1);
    match (edit, n.ops.get_mut(at)) {
        (0, _) => {}
        (1, _) => n.stuck = !n.stuck,
        (2, _) => n.thread_count += 1,
        (3, Some(op)) => op.invocation.name.push('t'),
        (4, Some(op)) => op.thread = (op.thread + 1) % n.thread_count,
        (5, Some(op)) => {
            if let Some(v) = op.response.take() {
                op.response = Some(Value::Seq(vec![v]));
            }
        }
        (6, Some(op)) => {
            // Same leaves, different grouping.
            op.invocation.args = vec![Value::Seq(std::mem::take(&mut op.invocation.args))];
        }
        (7, Some(op)) => {
            // The last argument moves into the name's place in the bytes.
            if let Some(Value::Str(s)) = op.invocation.args.pop() {
                op.invocation.name.push_str(&s);
            }
        }
        _ => match n.events.pop() {
            Some(Event::Call(_)) => {
                n.ops.pop();
            }
            Some(Event::Return(i)) => {
                n.ops[i].response = None;
                n.ops[i].return_pos = None;
            }
            None => {}
        },
    }
    n
}

/// A history of `matrix`'s columns: `picks` interleaves the threads
/// (call, then return, each column in order) and chooses responses that
/// surface the matrix's own argument values bare and inside containers,
/// so a symmetry renaming has values to rewrite wherever they appear.
fn matrix_history(matrix: &TestMatrix, picks: &[(usize, usize)], stuck: bool) -> History {
    let threads = matrix.columns.len();
    let pool: Vec<Value> = matrix
        .columns
        .iter()
        .flatten()
        .flat_map(|inv| inv.args.iter().cloned())
        .collect();
    let pooled = |r: usize| {
        pool.get(r % pool.len().max(1))
            .cloned()
            .unwrap_or(Value::Fail)
    };
    let mut h = History::new(threads);
    let mut next = vec![0usize; threads];
    let mut open: Vec<Option<usize>> = vec![None; threads];
    for &(sel, r) in picks {
        let t = sel % threads;
        if let Some(op) = open[t].take() {
            let response = match r % 4 {
                0 => Value::Unit,
                1 => pooled(r / 4),
                2 => Value::some(pooled(r / 4)),
                _ => Value::Seq(vec![pooled(r / 4), Value::some(pooled(r / 4 + 1))]),
            };
            h.push_return(op, response);
        } else if let Some(inv) = matrix.columns[t].get(next[t]) {
            next[t] += 1;
            open[t] = Some(h.push_call(t, inv.clone()));
        }
    }
    h.stuck = stuck;
    h
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Display → parse round-trips for arbitrary values.
    #[test]
    fn value_display_roundtrips(v in value_strategy()) {
        let text = v.to_string();
        prop_assert_eq!(lineup::value::parse_value(&text), Ok(v));
    }

    /// A history built by overlapping a serial history always finds a
    /// witness when that serial history is in the spec (search soundness
    /// on positives).
    #[test]
    fn overlapped_history_finds_its_witness(
        s in serial_history_strategy(),
        overlaps in prop::collection::vec(any::<bool>(), 0..7),
        extras in prop::collection::vec(serial_history_strategy(), 0..4),
    ) {
        let h = overlap(&s, &overlaps);
        prop_assert!(h.is_well_formed());
        prop_assert!(h.is_complete());
        let mut spec = ObservationSet::new();
        spec.insert(s.clone());
        for e in extras {
            spec.insert(e);
        }
        let q = WitnessQuery::for_full(&h);
        let found = find_witness(&spec.index(), &q);
        prop_assert!(found.is_some(), "S must be a witness of H:\nS = {}\nH =\n{}", s, h);
        // And whatever was found truly is a witness.
        prop_assert!(is_witness(found.unwrap(), &q));
    }

    /// Corrupting one response makes the (singleton-spec) witness search
    /// fail: the per-thread key no longer matches (search soundness on
    /// negatives).
    #[test]
    fn corrupted_history_has_no_witness(
        s in serial_history_strategy(),
        overlaps in prop::collection::vec(any::<bool>(), 0..7),
        at in 0usize..7,
    ) {
        let mut h = overlap(&s, &overlaps);
        let at = at % h.ops.len();
        // Corrupt to a value outside the strategy's result range.
        h.ops[at].response = Some(Value::Int(999));
        let mut spec = ObservationSet::new();
        spec.insert(s);
        let q = WitnessQuery::for_full(&h);
        prop_assert!(find_witness(&spec.index(), &q).is_none());
    }

    /// Witness queries are self-consistent: the serial history viewed as a
    /// (trivially serial) History is its own witness.
    #[test]
    fn serial_history_is_its_own_witness(s in serial_history_strategy()) {
        let h = overlap(&s, &[]);
        let q = WitnessQuery::for_full(&h);
        prop_assert!(is_witness(&s, &q));
    }

    /// Determinism check: a singleton spec is always deterministic; a
    /// duplicated spec too (sets deduplicate).
    #[test]
    fn singleton_specs_are_deterministic(s in serial_history_strategy()) {
        let mut spec = ObservationSet::new();
        spec.insert(s.clone());
        spec.insert(s);
        prop_assert_eq!(spec.len(), 1);
        prop_assert!(spec.check_determinism().is_none());
    }

    /// The observation-file parser never panics on arbitrary input: it
    /// returns a structured error instead (robustness fuzzing).
    #[test]
    fn observation_parser_never_panics(text in "[ -~\n]{0,400}") {
        let _ = lineup::parse_observation_file(&text);
    }

    /// Nor on mutations of a *valid* file.
    #[test]
    fn observation_parser_survives_mutations(
        histories in prop::collection::vec(serial_history_strategy(), 1..4),
        cut in any::<u16>(),
        insert in "[ -~]{0,8}",
    ) {
        let spec: ObservationSet = histories.into_iter().collect();
        let mut text = lineup::write_observation_file(&spec);
        let pos = (cut as usize) % (text.len() + 1);
        // Insert garbage at a char boundary near pos.
        let pos = text.floor_char_boundary(pos);
        text.insert_str(pos, &insert);
        let _ = lineup::parse_observation_file(&text);
    }

    /// Observation files round-trip for arbitrary specs.
    #[test]
    fn observation_files_roundtrip(
        histories in prop::collection::vec(serial_history_strategy(), 0..6)
    ) {
        let spec: ObservationSet = histories.into_iter().collect();
        let text = lineup::write_observation_file(&spec);
        let parsed = lineup::parse_observation_file(&text).unwrap();
        prop_assert_eq!(parsed, spec);
    }

    /// Matrix enumeration has exactly |I|^(rows·cols) elements and every
    /// element has the right shape.
    #[test]
    fn matrix_enumeration_counts(rows in 1usize..3, cols in 1usize..3, n in 1usize..3) {
        let invs: Vec<Invocation> =
            (0..n).map(|i| Invocation::with_int("op", i as i64)).collect();
        let all = TestMatrix::enumerate(&invs, rows, cols);
        prop_assert_eq!(all.len(), n.pow((rows * cols) as u32));
        for m in &all {
            prop_assert_eq!(m.dimension(), (rows, cols));
            prop_assert_eq!(m.operation_count(), rows * cols);
        }
    }

    /// Prefix order: reflexive, and column-truncations are prefixes.
    #[test]
    fn matrix_prefix_order(rows in 1usize..4, cols in 1usize..4, cut in 0usize..3) {
        let col: Vec<Invocation> =
            (0..rows).map(|i| Invocation::with_int("op", i as i64)).collect();
        let m = TestMatrix::from_columns(vec![col; cols]);
        prop_assert!(m.is_prefix_of(&m));
        let mut small = m.clone();
        let cut = cut.min(rows);
        for c in &mut small.columns {
            c.truncate(rows - cut);
        }
        prop_assert!(small.is_prefix_of(&m));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stuck-history witness search: a serial history whose last op is
    /// made pending is a witness for the overlap-expanded stuck history's
    /// `H[e]` query.
    #[test]
    fn stuck_history_finds_its_witness(
        s in serial_history_strategy(),
        overlaps in prop::collection::vec(any::<bool>(), 0..7),
    ) {
        // Build the stuck serial spec entry: complete prefix + pending last.
        let mut stuck = s.clone();
        let last = stuck.ops.last_mut().unwrap();
        last.outcome = Outcome::Pending;
        prop_assert!(stuck.is_stuck());

        // Build the concurrent history: overlap-expand the complete
        // prefix, then append the pending call (never returned).
        let prefix = SerialHistory {
            thread_count: s.thread_count,
            ops: s.ops[..s.ops.len() - 1].to_vec(),
        };
        let mut h = overlap(&prefix, &overlaps);
        let pending_op = &stuck.ops[stuck.ops.len() - 1];
        let e = h.push_call(pending_op.thread, pending_op.invocation.clone());
        h.stuck = true;

        let mut spec = ObservationSet::new();
        spec.insert(stuck);
        let q = WitnessQuery::for_stuck(&h, e);
        prop_assert!(
            find_witness(&spec.index(), &q).is_some(),
            "the stuck serial history witnesses its own expansion"
        );
    }

    /// Full-history queries never match stuck serial histories and vice
    /// versa: the Pending outcome keys the groups apart, so the sets A and
    /// B of Fig. 5 need no explicit separation.
    #[test]
    fn full_and_stuck_groups_are_disjoint(s in serial_history_strategy()) {
        let mut stuck = s.clone();
        stuck.ops.last_mut().unwrap().outcome = Outcome::Pending;
        let mut spec = ObservationSet::new();
        spec.insert(stuck);
        // The complete history's query cannot find the stuck entry.
        let h = overlap(&s, &[]);
        let q = WitnessQuery::for_full(&h);
        prop_assert!(find_witness(&spec.index(), &q).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The verdict-cache key is exact: two histories share a key iff they
    /// are equal — for unrelated histories and for near neighbours one
    /// edit apart (the cases a sloppy encoding would merge).
    #[test]
    fn history_key_is_equal_iff_the_histories_are(
        a in history_strategy(),
        b in history_strategy(),
        edit in 0usize..9,
        at in 0usize..12,
    ) {
        prop_assert_eq!(HistoryKey::of(&a) == HistoryKey::of(&b), a == b);
        let n = neighbour(&a, edit, at);
        prop_assert_eq!(
            HistoryKey::of(&a) == HistoryKey::of(&n),
            a == n,
            "edit {} at {}:\n{:?}\nvs\n{:?}", edit, at, a, n
        );
        // A reused writer yields the same key as a fresh one.
        let mut writer = KeyWriter::new();
        writer.recycle(HistoryKey::of(&b));
        prop_assert_eq!(writer.history(&a), HistoryKey::of(&a));
    }

    /// Keying under a symmetry renaming equals keying the canonicalized
    /// history, for the symmetry groups of every registry class's
    /// regression matrices and histories of those matrices' own columns.
    #[test]
    fn symmetry_key_is_the_key_of_the_canonical_history(
        picks in prop::collection::vec((0usize..8, 0usize..64), 0..24),
        stuck in any::<bool>(),
    ) {
        let mut writer = KeyWriter::new();
        for entry in all_classes() {
            for matrix in entry.regression_matrices() {
                let groups = matrix.symmetry_groups(entry.symmetry_policy());
                let h = matrix_history(&matrix, &picks, stuck);
                let canonical = groups.canonicalize(&h);
                prop_assert_eq!(
                    groups.key(&h, &mut writer),
                    HistoryKey::of(&canonical),
                    "{}:\n{:?}", entry.name, h
                );
                // Canonical forms are fixed points, and so are their keys.
                prop_assert_eq!(groups.key(&canonical, &mut writer), HistoryKey::of(&canonical));
            }
        }
    }
}

/// The property above is not vacuous: some registry matrix has symmetric
/// columns, and a history that starts its later member first is renamed.
#[test]
fn registry_matrices_exercise_a_nontrivial_renaming() {
    let renamed = all_classes().iter().any(|entry| {
        entry.regression_matrices().iter().any(|matrix| {
            let groups = matrix.symmetry_groups(entry.symmetry_policy());
            // Threads call in descending index order.
            let picks: Vec<(usize, usize)> =
                (0..matrix.columns.len()).rev().map(|t| (t, 1)).collect();
            let h = matrix_history(matrix, &picks, false);
            groups.canonicalize(&h) != h
        })
    });
    assert!(renamed);
}

proptest! {
    // Model-executing properties are expensive: few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A known-correct component never fails Check, for random small test
    /// matrices (no false alarms — the practical face of Theorem 5).
    #[test]
    fn correct_counter_never_fails_random_tests(
        cells in prop::collection::vec(0usize..2, 4)
    ) {
        let inv = |i: usize| {
            if i == 0 { Invocation::new("inc") } else { Invocation::new("get") }
        };
        let m = TestMatrix::from_columns(vec![
            vec![inv(cells[0]), inv(cells[1])],
            vec![inv(cells[2]), inv(cells[3])],
        ]);
        let report = check(&CounterTarget, &m, &CheckOptions::new());
        prop_assert!(report.passed(), "violations: {:?}", report.violations);
    }
}
