//! Serial-witness search (paper §2.1.4 and §4.2).
//!
//! A serial history `S` is a *witness* for a history `H` when (1) `S` is
//! serial, (2) `H|t = S|t` for every thread `t`, and (3) `<H ⊆ <S`.
//! Phase 2 of the Line-Up check reduces both its checks to witness search:
//! a full history needs a witness among the full serial histories (`A`),
//! and a stuck history needs, for each pending operation `e`, a witness
//! for `H[e]` among the stuck serial histories (`B`) — Definitions 1 and 2.

use crate::history::{History, OpIndex};
use crate::spec::{Outcome, SerialHistory, SpecIndex, ThreadKey};

/// An operation identified by `(thread, index within thread)` — the
/// identification that survives reordering into a serial witness.
pub type ThreadPos = (usize, usize);

/// A witness query: the per-thread operation sequences a witness must
/// reproduce, plus the precedence constraints it must respect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessQuery {
    /// Per-thread `(invocation, outcome)` sequences — the grouping key.
    pub key: ThreadKey,
    /// Pairs `(a, b)` with `a <H b`: every witness must order `a` before
    /// `b`. Deduplicated and transitively reduced — pairs implied by the
    /// composition of two others are omitted, which shrinks the per-
    /// candidate work of [`is_witness`] without changing its verdict.
    pub precedence: Vec<(ThreadPos, ThreadPos)>,
}

impl WitnessQuery {
    /// Builds the query for a *complete* history (Definition 1, with the
    /// trivial extension: full histories of a test have no pending calls).
    ///
    /// # Panics
    ///
    /// Panics if the history has pending operations.
    pub fn for_full(h: &History) -> Self {
        Self::for_full_relaxed(h, &[])
    }

    /// Like [`for_full`](WitnessQuery::for_full), but operations whose
    /// method name appears in `async_methods` are *asynchronous*: their
    /// effects may linearize after their return (paper §6 future work,
    /// "asynchronous methods, such as the cancel method"). Concretely, the
    /// precedence constraints `a <H b` with `a` asynchronous are dropped —
    /// `a`'s linearization point may move past `b`'s, though never before
    /// `a`'s own call.
    ///
    /// # Panics
    ///
    /// Panics if the history has pending operations.
    pub fn for_full_relaxed(h: &History, async_methods: &[String]) -> Self {
        assert!(
            h.is_complete(),
            "use for_stuck on histories with pending ops"
        );
        Self::build_relaxed(h, (0..h.ops.len()).collect(), async_methods)
    }

    /// Builds the query for `H[e]` where `e` is a pending operation of a
    /// stuck history `H`: all complete operations of `H`, plus `e` itself
    /// as a trailing pending call (Definition 2; `H[e]` removes all
    /// pending calls except `inv(e)`).
    ///
    /// # Panics
    ///
    /// Panics if `pending` is in fact complete.
    pub fn for_stuck(h: &History, pending: OpIndex) -> Self {
        Self::for_stuck_relaxed(h, pending, &[])
    }

    /// [`for_stuck`](WitnessQuery::for_stuck) with asynchronous methods
    /// (see [`for_full_relaxed`](WitnessQuery::for_full_relaxed)).
    ///
    /// # Panics
    ///
    /// Panics if `pending` is in fact complete.
    pub fn for_stuck_relaxed(h: &History, pending: OpIndex, async_methods: &[String]) -> Self {
        assert!(
            !h.ops[pending].is_complete(),
            "H[e] requires a pending operation e"
        );
        let mut included = h.complete_ops();
        included.push(pending);
        Self::build_relaxed(h, included, async_methods)
    }

    fn build_relaxed(h: &History, mut included: Vec<OpIndex>, async_methods: &[String]) -> Self {
        // Thread-major, and call order (= thread subhistory order, by
        // well-formedness) within a thread: ascending `ThreadPos`, so the
        // edges below come out sorted.
        included.sort_by_key(|&i| (h.ops[i].thread, h.ops[i].call_pos));
        let mut key: ThreadKey = vec![Vec::new(); h.thread_count];
        let mut pos_of = Vec::with_capacity(included.len());
        for &i in &included {
            let op = &h.ops[i];
            let outcome = match &op.response {
                Some(v) => Outcome::Returned(v.clone()),
                None => Outcome::Pending,
            };
            pos_of.push((op.thread, key[op.thread].len()));
            key[op.thread].push((op.invocation.clone(), outcome));
        }
        // `<H` as one bitset row per operation: succ[a] = { c | a <H c }
        // and pred[c] = { a | a <H c }, without the pairs whose `a` is
        // asynchronous — those operations do not constrain later ones,
        // their effect may linearize past their return. (A query without
        // operations has no rows; `chunks_exact` still needs a width.)
        let words = included.len().div_ceil(64).max(1);
        let mut succ = vec![0u64; included.len() * words];
        let mut pred = succ.clone();
        for (a, &ia) in included.iter().enumerate() {
            if async_methods.contains(&h.ops[ia].invocation.name) {
                continue;
            }
            for (c, &ic) in included.iter().enumerate() {
                if h.precedes(ia, ic) {
                    succ[a * words + c / 64] |= 1 << (c % 64);
                    pred[c * words + a / 64] |= 1 << (a % 64);
                }
            }
        }
        // Transitive reduction: an edge (a, c) is dropped when some b has
        // (a, b) and (b, c). Any serial order satisfying the reduced set
        // satisfies the dropped edges too, so witness verdicts are
        // unchanged while each candidate is tested on fewer pairs — `<H`
        // is dense for mostly-serial histories, with up to quadratically
        // many edges for a linear reduction.
        let mut precedence = Vec::new();
        for (a, succ_a) in succ.chunks_exact(words).enumerate() {
            for (c, pred_c) in pred.chunks_exact(words).enumerate() {
                let edge = succ_a[c / 64] >> (c % 64) & 1 == 1;
                if edge && succ_a.iter().zip(pred_c).all(|(s, p)| s & p == 0) {
                    precedence.push((pos_of[a], pos_of[c]));
                }
            }
        }
        WitnessQuery { key, precedence }
    }
}

/// The first of `candidates`, which all have the query's per-thread
/// sequences, to order all precedence pairs correctly.
fn first_ordered<'a>(
    mut candidates: impl Iterator<Item = &'a SerialHistory>,
    q: &WitnessQuery,
) -> Option<&'a SerialHistory> {
    // Position of each (thread, k) in the serial order of the candidate
    // at hand: one table, refilled from candidate to candidate.
    let mut pos: Vec<Vec<usize>> = (q.key.iter())
        .map(|row| Vec::with_capacity(row.len()))
        .collect();
    candidates.find(|s| {
        pos.iter_mut().for_each(Vec::clear);
        for (serial_pos, op) in s.ops.iter().enumerate() {
            pos[op.thread].push(serial_pos);
        }
        let mut pairs = q.precedence.iter();
        pairs.all(|&((ta, ka), (tb, kb))| pos[ta][ka] < pos[tb][kb])
    })
}

/// Whether the serial history `s` is a witness for the query: it must have
/// the same per-thread sequences and order all precedence pairs correctly.
pub fn is_witness(s: &SerialHistory, q: &WitnessQuery) -> bool {
    let same = |(t, row): (usize, &Vec<_>)| s.thread_ops(t).eq(row.iter().map(|(i, o)| (i, o)));
    s.thread_count == q.key.len()
        && q.key.iter().enumerate().all(same)
        && first_ordered([s].into_iter(), q).is_some()
}

/// Searches the indexed observation set for a witness; returns the first
/// one found. Only the group with the query's per-thread key is scanned
/// (paper §4.2): being in it is having those sequences.
pub fn find_witness<'a>(index: &SpecIndex<'a>, q: &WitnessQuery) -> Option<&'a SerialHistory> {
    first_ordered(index.candidates(&q.key).iter().copied(), q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ObservationSet, SpecOp};
    use crate::target::Invocation;
    use crate::value::Value;

    fn inv(name: &str) -> Invocation {
        Invocation::new(name)
    }

    fn sop(thread: usize, name: &str, outcome: Outcome) -> SpecOp {
        SpecOp {
            thread,
            invocation: inv(name),
            outcome,
        }
    }

    fn ret(v: i64) -> Outcome {
        Outcome::Returned(Value::Int(v))
    }

    /// The paper's §2.2.1 example: two overlapping incs, then get → 1.
    /// No witness exists in the correct counter's specification: if both
    /// incs precede the get, the get must return 2.
    #[test]
    fn buggy_counter_history_has_no_witness() {
        // H: (inc A)(inc B)(ok A)(ok B)(get A)(ok(1) A)
        let mut h = History::new(2);
        let i1 = h.push_call(0, inv("inc"));
        let i2 = h.push_call(1, inv("inc"));
        h.push_return(i1, Value::Unit);
        h.push_return(i2, Value::Unit);
        let g = h.push_call(0, inv("get"));
        h.push_return(g, Value::Int(1));

        // Specification of the correct counter for this thread key: the
        // only serial histories with these per-thread op lists return 2
        // from get.
        let mut spec = ObservationSet::new();
        let u = || Outcome::Returned(Value::Unit);
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(0, "inc", u()),
                sop(1, "inc", u()),
                sop(0, "get", ret(2)),
            ],
        });
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(1, "inc", u()),
                sop(0, "inc", u()),
                sop(0, "get", ret(2)),
            ],
        });
        // A spurious history where get returns 1 but the per-thread key
        // differs (get=1 key group) must not be found either because of
        // ordering: place inc B after get — but then <H is violated.
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(0, "inc", u()),
                sop(0, "get", ret(1)),
                sop(1, "inc", u()),
            ],
        });

        let q = WitnessQuery::for_full(&h);
        let idx = spec.index();
        // The candidate group with get=1 exists but its only member orders
        // inc B after get, violating inc B <H get.
        assert!(find_witness(&idx, &q).is_none());
    }

    /// A correct concurrent history finds its witness.
    #[test]
    fn overlapping_ops_find_witness() {
        // H: (inc A)(get B)(ok A)(ok(1) B): inc and get overlap.
        let mut h = History::new(2);
        let i = h.push_call(0, inv("inc"));
        let g = h.push_call(1, inv("get"));
        h.push_return(i, Value::Unit);
        h.push_return(g, Value::Int(1));

        let mut spec = ObservationSet::new();
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(0, "inc", Outcome::Returned(Value::Unit)),
                sop(1, "get", ret(1)),
            ],
        });
        let q = WitnessQuery::for_full(&h);
        assert!(find_witness(&spec.index(), &q).is_some());
    }

    /// Precedence in H must be respected by the witness even when the
    /// per-thread key matches.
    #[test]
    fn witness_must_respect_precedence() {
        // H: a returns before b is called: a <H b.
        let mut h = History::new(2);
        let a = h.push_call(0, inv("a"));
        h.push_return(a, Value::Int(0));
        let b = h.push_call(1, inv("b"));
        h.push_return(b, Value::Int(0));

        let s_wrong = SerialHistory {
            thread_count: 2,
            ops: vec![sop(1, "b", ret(0)), sop(0, "a", ret(0))],
        };
        let s_right = SerialHistory {
            thread_count: 2,
            ops: vec![sop(0, "a", ret(0)), sop(1, "b", ret(0))],
        };
        let q = WitnessQuery::for_full(&h);
        assert!(!is_witness(&s_wrong, &q));
        assert!(is_witness(&s_right, &q));
    }

    /// The Fig. 9 situation: a stuck Wait whose H[e] has no witness
    /// because serially Wait cannot block after Set-Reset-Set.
    #[test]
    fn stuck_query_includes_only_complete_ops_plus_e() {
        // H: (Wait A)(Set B)(ok B)(Reset B)(ok B)(Set B)(ok B) #
        let mut h = History::new(2);
        let w = h.push_call(0, inv("Wait"));
        for name in ["Set", "Reset", "Set"] {
            let o = h.push_call(1, inv(name));
            h.push_return(o, Value::Unit);
        }
        h.stuck = true;

        let q = WitnessQuery::for_stuck(&h, w);
        // Thread A's key: a single pending Wait.
        assert_eq!(q.key[0], vec![(inv("Wait"), Outcome::Pending)]);
        assert_eq!(q.key[1].len(), 3);

        // B contains only (Set)(Reset)(Wait)# — the serial run where Wait
        // blocks after Reset never performs the second Set (serial stuck
        // histories end at the blocked call). It has a different thread
        // key, so it cannot be a witness.
        let mut spec = ObservationSet::new();
        let u = || Outcome::Returned(Value::Unit);
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(1, "Set", u()),
                sop(1, "Reset", u()),
                sop(0, "Wait", Outcome::Pending),
            ],
        });
        assert!(find_witness(&spec.index(), &q).is_none());
    }

    /// H[e] drops other pending operations.
    #[test]
    fn stuck_query_drops_other_pending_ops() {
        let mut h = History::new(3);
        let a = h.push_call(0, inv("p"));
        let _b = h.push_call(1, inv("q"));
        let c = h.push_call(2, inv("r"));
        h.push_return(c, Value::Int(1));
        h.stuck = true;

        let q = WitnessQuery::for_stuck(&h, a);
        assert_eq!(q.key[0], vec![(inv("p"), Outcome::Pending)]);
        assert!(q.key[1].is_empty(), "other pending ops are removed");
        assert_eq!(q.key[2].len(), 1);
    }

    /// Declaring an op asynchronous drops exactly its left-hand
    /// precedence constraints.
    #[test]
    fn async_methods_relax_precedence() {
        // H: cancel returns before set is called: cancel <H set.
        let mut h = History::new(2);
        let c = h.push_call(0, inv("cancel"));
        h.push_return(c, Value::Unit);
        let s = h.push_call(1, inv("set"));
        h.push_return(s, Value::Unit);

        // Witness with set *before* cancel: invalid normally…
        let witness = SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(1, "set", Outcome::Returned(Value::Unit)),
                sop(0, "cancel", Outcome::Returned(Value::Unit)),
            ],
        };
        let strict = WitnessQuery::for_full(&h);
        assert!(!is_witness(&witness, &strict));
        // …but valid once cancel's effects may land late.
        let relaxed = WitnessQuery::for_full_relaxed(&h, &["cancel".to_string()]);
        assert!(is_witness(&witness, &relaxed));
        // The other direction is still constrained: set is synchronous, so
        // a witness may not move *set* before an op that precedes it…
        // (covered by `witness_must_respect_precedence`).
    }

    /// A serial chain a <H b <H c produces only the two adjacent pairs:
    /// (a, c) is implied and dropped by the transitive reduction.
    #[test]
    fn precedence_is_transitively_reduced() {
        let mut h = History::new(3);
        for (t, name) in ["a", "b", "c"].iter().enumerate() {
            let o = h.push_call(t, inv(name));
            h.push_return(o, Value::Int(0));
        }
        let q = WitnessQuery::for_full(&h);
        assert_eq!(
            q.precedence,
            vec![((0, 0), (1, 0)), ((1, 0), (2, 0))],
            "only adjacent chain edges survive"
        );
        // The dropped edge is still enforced through the kept ones: any
        // witness putting c before a must break an adjacent pair.
        let bad = SerialHistory {
            thread_count: 3,
            ops: vec![
                sop(2, "c", ret(0)),
                sop(0, "a", ret(0)),
                sop(1, "b", ret(0)),
            ],
        };
        assert!(!is_witness(&bad, &q));
        let good = SerialHistory {
            thread_count: 3,
            ops: vec![
                sop(0, "a", ret(0)),
                sop(1, "b", ret(0)),
                sop(2, "c", ret(0)),
            ],
        };
        assert!(is_witness(&good, &q));
    }

    /// Precedence pairs come out canonically ordered and duplicate-free.
    #[test]
    fn precedence_is_deduplicated_and_sorted() {
        let mut h = History::new(4);
        // Two sequential "waves" of two parallel ops each: every op of
        // wave 1 precedes every op of wave 2 (4 cross edges, none
        // reducible, no duplicates).
        let w1a = h.push_call(0, inv("a"));
        let w1b = h.push_call(1, inv("b"));
        h.push_return(w1a, Value::Int(0));
        h.push_return(w1b, Value::Int(0));
        let w2a = h.push_call(2, inv("c"));
        let w2b = h.push_call(3, inv("d"));
        h.push_return(w2a, Value::Int(0));
        h.push_return(w2b, Value::Int(0));
        let q = WitnessQuery::for_full(&h);
        let mut sorted = q.precedence.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(q.precedence, sorted);
        assert_eq!(q.precedence.len(), 4);
    }

    /// `H[e]` where `e` is the only operation: a one-op query with no
    /// constraints, matched exactly by the serial history that blocks
    /// immediately.
    #[test]
    fn stuck_query_with_only_the_pending_op() {
        let mut h = History::new(2);
        let e = h.push_call(0, inv("Wait"));
        h.stuck = true;
        let q = WitnessQuery::for_stuck_relaxed(&h, e, &[]);
        assert_eq!(q.key[0], vec![(inv("Wait"), Outcome::Pending)]);
        assert!(q.key[1].is_empty());
        assert!(q.precedence.is_empty());
        let s = SerialHistory {
            thread_count: 2,
            ops: vec![sop(0, "Wait", Outcome::Pending)],
        };
        assert!(is_witness(&s, &q));
    }

    /// A pending operation whose method is itself asynchronous: `H[e]`
    /// still records it as pending (asynchrony relaxes *ordering*, not
    /// the pending outcome), and completed asynchronous ops before it
    /// impose no precedence on it.
    #[test]
    fn stuck_query_with_async_pending_op() {
        let mut h = History::new(2);
        let c = h.push_call(1, inv("cancel"));
        h.push_return(c, Value::Unit);
        // cancel returned before Wait was called: cancel <H Wait.
        let e = h.push_call(0, inv("Wait"));
        h.stuck = true;
        let asyncs = ["cancel".to_string(), "Wait".to_string()];
        let q = WitnessQuery::for_stuck_relaxed(&h, e, &asyncs);
        assert_eq!(q.key[0], vec![(inv("Wait"), Outcome::Pending)]);
        assert!(
            q.precedence.is_empty(),
            "async lhs drops the only edge: {:?}",
            q.precedence
        );
        // Without the relaxation the edge is present.
        let strict = WitnessQuery::for_stuck_relaxed(&h, e, &[]);
        assert_eq!(strict.precedence, vec![((1, 0), (0, 0))]);
    }

    /// A history without operations — a test with empty columns, or one
    /// whose every operation failed spuriously — has the empty query, which
    /// the serial history without operations witnesses.
    #[test]
    fn query_for_a_history_without_operations() {
        let h = History::new(2);
        let q = WitnessQuery::for_full(&h);
        assert_eq!(q, reference::build_relaxed(&h, &[], &[]));
        assert_eq!(q.key, vec![vec![], vec![]]);
        assert!(q.precedence.is_empty());
        let mut spec = ObservationSet::new();
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![],
        });
        assert!(find_witness(&spec.index(), &q).is_some());
    }

    /// Query construction and the witness test as they were before the
    /// bitset reduction and the refilled position table, kept verbatim as
    /// the oracles for the properties below.
    mod reference {
        use super::*;

        pub fn build_relaxed(
            h: &History,
            included: &[OpIndex],
            async_methods: &[String],
        ) -> WitnessQuery {
            // Per-thread position of each included op (call order = thread
            // subhistory order by well-formedness).
            let mut key: ThreadKey = vec![Vec::new(); h.thread_count];
            let mut pos_of = vec![(0usize, 0usize); h.ops.len()];
            let mut by_thread: Vec<Vec<OpIndex>> = vec![Vec::new(); h.thread_count];
            let mut sorted = included.to_vec();
            sorted.sort_by_key(|&i| h.ops[i].call_pos);
            for &i in &sorted {
                let op = &h.ops[i];
                let outcome = match &op.response {
                    Some(v) => Outcome::Returned(v.clone()),
                    None => Outcome::Pending,
                };
                pos_of[i] = (op.thread, key[op.thread].len());
                key[op.thread].push((op.invocation.clone(), outcome));
                by_thread[op.thread].push(i);
            }
            let mut edges: std::collections::BTreeSet<(ThreadPos, ThreadPos)> =
                std::collections::BTreeSet::new();
            for &a in &sorted {
                // Asynchronous operations do not constrain later operations:
                // their effect may linearize past their return.
                if async_methods.contains(&h.ops[a].invocation.name) {
                    continue;
                }
                for &b in &sorted {
                    if a != b && h.precedes(a, b) {
                        edges.insert((pos_of[a], pos_of[b]));
                    }
                }
            }
            let mids: Vec<ThreadPos> = edges
                .iter()
                .flat_map(|&(x, y)| [x, y])
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let precedence = edges
                .iter()
                .copied()
                .filter(|&(a, c)| {
                    !mids.iter().any(|&b| {
                        b != a && b != c && edges.contains(&(a, b)) && edges.contains(&(b, c))
                    })
                })
                .collect();
            WitnessQuery { key, precedence }
        }

        pub fn is_witness(s: &SerialHistory, q: &WitnessQuery) -> bool {
            if s.thread_key() != q.key {
                return false;
            }
            // Position of each (thread, k) in the serial order.
            let nthreads = q.key.len();
            let mut pos: Vec<Vec<usize>> = vec![Vec::new(); nthreads];
            for (serial_pos, op) in s.ops.iter().enumerate() {
                pos[op.thread].push(serial_pos);
            }
            q.precedence
                .iter()
                .all(|&((ta, ka), (tb, kb))| pos[ta][ka] < pos[tb][kb])
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const NAMES: [&str; 3] = ["a", "b", "c"];

        /// A well-formed history over `threads` threads with up to `ops`
        /// operations, driven by `script`: each number picks a thread,
        /// which returns if it is inside a call and calls otherwise. With
        /// `complete`, every call left open is returned at the end;
        /// without, the history is stuck with those calls pending.
        fn history(threads: usize, ops: usize, script: &[usize], complete: bool) -> History {
            let mut h = History::new(threads);
            let mut open: Vec<Option<OpIndex>> = vec![None; threads];
            for &n in script {
                let t = n % threads;
                match open[t].take() {
                    Some(op) => h.push_return(op, Value::Int((n / 7 % 3) as i64)),
                    None if h.ops.len() < ops => {
                        open[t] = Some(h.push_call(t, inv(NAMES[n / 5 % 3])));
                    }
                    None => {}
                }
            }
            for op in open.into_iter().flatten().filter(|_| complete) {
                h.push_return(op, Value::Unit);
            }
            h.stuck = !complete;
            h
        }

        fn methods(mask: usize) -> Vec<String> {
            let chosen = NAMES.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
            chosen.map(|(_, name)| name.to_string()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(500))]

            /// Up to 70 operations, so rows of more than one word occur.
            #[test]
            fn bitset_queries_match_reference(
                threads in 1usize..5,
                ops in 0usize..71,
                script in prop::collection::vec(0usize..1000, 1..200),
                async_mask in 0usize..8,
            ) {
                let asyncs = methods(async_mask);
                let full = history(threads, ops, &script, true);
                let included: Vec<OpIndex> = (0..full.ops.len()).collect();
                prop_assert_eq!(
                    WitnessQuery::for_full_relaxed(&full, &asyncs),
                    reference::build_relaxed(&full, &included, &asyncs)
                );
                let stuck = history(threads, ops, &script, false);
                for e in stuck.pending_ops() {
                    let mut included = stuck.complete_ops();
                    included.push(e);
                    prop_assert_eq!(
                        WitnessQuery::for_stuck_relaxed(&stuck, e, &asyncs),
                        reference::build_relaxed(&stuck, &included, &asyncs)
                    );
                }
            }

            /// Candidates are random interleavings of the history's own
            /// thread subhistories (some respect `<H`, some do not) and
            /// of a variant with another outcome (another group).
            #[test]
            fn witness_scan_matches_reference(
                threads in 1usize..4,
                script in prop::collection::vec(0usize..1000, 1..24),
                orders in prop::collection::vec(prop::collection::vec(0usize..1000, 8), 1..12),
                async_mask in 0usize..8,
            ) {
                let h = history(threads, 8, &script, true);
                let q = WitnessQuery::for_full_relaxed(&h, &methods(async_mask));
                let mut spec = ObservationSet::new();
                for (i, order) in orders.iter().enumerate() {
                    let mut rows: Vec<_> = q.key.iter().map(|row| row.iter()).collect();
                    let mut s = SerialHistory { thread_count: threads, ops: Vec::new() };
                    for &n in order.iter().cycle().take(8 * threads) {
                        if let Some((invocation, outcome)) = rows[n % threads].next() {
                            let (invocation, outcome) = (invocation.clone(), outcome.clone());
                            s.ops.push(SpecOp { thread: n % threads, invocation, outcome });
                        }
                    }
                    if let (Some(last), 0) = (s.ops.last_mut(), i % 4) {
                        last.outcome = ret(9);
                    }
                    spec.insert(s);
                }
                let index = spec.index();
                let mut group = index.candidates(&q.key).iter().copied();
                let want = group.find(|s| reference::is_witness(s, &q));
                let found = find_witness(&index, &q);
                prop_assert_eq!(found.map(std::ptr::from_ref), want.map(std::ptr::from_ref));
                for s in spec.iter() {
                    prop_assert_eq!(is_witness(s, &q), reference::is_witness(s, &q));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "use for_stuck")]
    fn for_full_rejects_pending() {
        let mut h = History::new(1);
        h.push_call(0, inv("x"));
        h.stuck = true;
        WitnessQuery::for_full(&h);
    }

    #[test]
    #[should_panic(expected = "requires a pending operation")]
    fn for_stuck_rejects_complete_op() {
        let mut h = History::new(1);
        let a = h.push_call(0, inv("x"));
        h.push_return(a, Value::Unit);
        WitnessQuery::for_stuck(&h, a);
    }
}
