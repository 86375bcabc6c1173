//! Serial-witness search (paper §2.1.4 and §4.2).
//!
//! A serial history `S` is a *witness* for a history `H` when (1) `S` is
//! serial, (2) `H|t = S|t` for every thread `t`, and (3) `<H ⊆ <S`.
//! Phase 2 of the Line-Up check reduces both its checks to witness search:
//! a full history needs a witness among the full serial histories (`A`),
//! and a stuck history needs, for each pending operation `e`, a witness
//! for `H[e]` among the stuck serial histories (`B`) — Definitions 1 and 2.
//!
//! [`search`] decides this against any stepped specification. It is the
//! one engine of [`find_witness`], which steps the observation set's
//! prefix automaton ([`SpecIndex`]), and of `lineup-monitor`'s Wing–Gong
//! fallback, which steps an executable oracle: a depth-first walk over the
//! orders of the complete operations, with one cursor per thread (program
//! order makes each thread's performed operations a prefix of its list),
//! return floors for `<H` and an explicit stack. A stuck query's pending
//! operation goes last, and the specification must block on it.

use std::collections::HashSet;
use std::hash::Hash;

use crate::history::{History, OpIndex};
use crate::spec::{Outcome, SerialHistory, SpecIndex, SpecOp};
use crate::target::Invocation;
use crate::value::Value;

/// A witness query: the set-up of a [`search`] over one history's
/// linearizations.
#[derive(Debug, Clone)]
pub struct WitnessQuery<'h> {
    thread_count: usize,
    /// Each thread's complete operations, in call order.
    threads: Vec<Vec<QueryOp<'h>>>,
    /// A stuck query's pending operation: its thread and invocation.
    pending: Option<(usize, &'h Invocation)>,
}

#[derive(Debug, Clone)]
struct QueryOp<'h> {
    invocation: &'h Invocation,
    response: &'h Value,
    call_pos: usize,
    /// The earliest return among the thread's synchronous operations from
    /// this one on (`usize::MAX` if none): the return floor.
    floor: usize,
}

impl<'h> WitnessQuery<'h> {
    /// Builds the query for a *complete* history (Definition 1, with the
    /// trivial extension: full histories of a test have no pending calls).
    ///
    /// # Panics
    ///
    /// Panics if the history has pending operations.
    pub fn for_full(h: &'h History) -> Self {
        Self::for_full_relaxed(h, &[])
    }

    /// Like [`for_full`](WitnessQuery::for_full), but operations whose
    /// method name appears in `async_methods` are *asynchronous*: their
    /// effects may linearize after their return (paper §6 future work,
    /// "asynchronous methods, such as the cancel method"). Concretely, the
    /// precedence constraints `a <H b` with `a` asynchronous are dropped —
    /// `a`'s linearization point may move past `b`'s, though never before
    /// `a`'s own call, and program order still holds.
    ///
    /// # Panics
    ///
    /// Panics if the history has pending operations.
    pub fn for_full_relaxed(h: &'h History, async_methods: &[String]) -> Self {
        assert!(
            h.is_complete(),
            "use for_stuck on histories with pending ops"
        );
        Self::build(h, None, async_methods)
    }

    /// Builds the query for `H[e]` where `e` is a pending operation of a
    /// stuck history `H`: all complete operations of `H`, plus `e` itself
    /// as a trailing pending call (Definition 2; `H[e]` removes all
    /// pending calls except `inv(e)`).
    ///
    /// # Panics
    ///
    /// Panics if `pending` is in fact complete.
    pub fn for_stuck(h: &'h History, pending: OpIndex) -> Self {
        Self::for_stuck_relaxed(h, pending, &[])
    }

    /// [`for_stuck`](WitnessQuery::for_stuck) with asynchronous methods
    /// (see [`for_full_relaxed`](WitnessQuery::for_full_relaxed)).
    ///
    /// # Panics
    ///
    /// Panics if `pending` is in fact complete.
    pub fn for_stuck_relaxed(h: &'h History, pending: OpIndex, async_methods: &[String]) -> Self {
        assert!(
            !h.ops[pending].is_complete(),
            "H[e] requires a pending operation e"
        );
        Self::build(h, Some(pending), async_methods)
    }

    fn build(h: &'h History, pending: Option<OpIndex>, async_methods: &[String]) -> Self {
        let mut threads = vec![Vec::new(); h.thread_count];
        // `h.ops` is in call order, so each thread's list is too.
        for op in &h.ops {
            let (Some(response), Some(ret)) = (&op.response, op.return_pos) else {
                continue;
            };
            let sync = !async_methods.contains(&op.invocation.name);
            threads[op.thread].push(QueryOp {
                invocation: &op.invocation,
                response,
                call_pos: op.call_pos,
                floor: if sync { ret } else { usize::MAX },
            });
        }
        for ops in &mut threads {
            let mut floor = usize::MAX;
            for op in ops.iter_mut().rev() {
                floor = floor.min(op.floor);
                op.floor = floor;
            }
        }
        WitnessQuery {
            thread_count: h.thread_count,
            threads,
            pending: pending.map(|e| (h.ops[e].thread, &h.ops[e].invocation)),
        }
    }
}

/// Failed configurations of a [`search`]: per-thread cursors and state.
pub type Memo<S> = HashSet<(Vec<u32>, S)>;

/// Searches the orders of `q`'s complete operations — program order, and
/// `<H` relaxed for asynchronous methods — for one that a specification
/// performs from `initial`, then blocking on the pending operation if
/// there is one, into a state that `end` accepts. Returns that state, if
/// found, and how many configurations `memo` pruned.
///
/// `step(state, thread, invocation, response)` performs one operation and
/// returns the next state, or `None` when the operation cannot go there.
/// `response` is the recorded one, or `None` for the pending operation,
/// which must block. A specification whose states name the path to them
/// needs no `memo`: no two orders meet.
pub fn search<S, F>(
    q: &WitnessQuery<'_>,
    initial: S,
    mut memo: Option<&mut Memo<S>>,
    mut step: F,
    end: impl Fn(&S) -> bool,
) -> (Option<S>, u64)
where
    S: Clone + Eq + Hash,
    F: FnMut(&S, usize, &Invocation, Option<&Value>) -> Option<S>,
{
    let threads = &q.threads;
    let n: usize = threads.iter().map(Vec::len).sum();
    // The stuck witness ends at the blocked call, after everything else.
    let finish = |state: S, step: &mut F| {
        let state = match q.pending {
            Some((thread, invocation)) => step(&state, thread, invocation, None)?,
            None => state,
        };
        end(&state).then_some(state)
    };
    if n == 0 {
        return (finish(initial, &mut step), 0);
    }
    let mut memo_hits = 0;
    let mut cursor = vec![0u32; threads.len()];
    // Frames: a configuration's state and the next thread to try.
    let mut stack = Vec::with_capacity(n);
    stack.push((initial, 0usize));
    while let Some((state, next)) = stack.last_mut() {
        let mut child = None;
        while child.is_none() && *next < threads.len() {
            let t = *next;
            *next += 1;
            let Some(o) = threads[t].get(cursor[t] as usize) else {
                continue;
            };
            // The floor rule: no other thread has an unperformed
            // synchronous operation that returned before o's call.
            let floor = |u: usize| threads[u].get(cursor[u] as usize).map(|o| o.floor);
            if (0..threads.len()).any(|u| u != t && floor(u).is_some_and(|f| f < o.call_pos)) {
                continue;
            }
            child = step(state, t, o.invocation, Some(o.response)).map(|s| (t, s));
        }
        let Some((t, state)) = child else {
            // Every candidate failed: backtrack into the parent.
            stack.pop();
            if let Some(&(_, parent_next)) = stack.last() {
                cursor[parent_next - 1] -= 1;
            }
            continue;
        };
        // The child has one operation more than the top frame's
        // `stack.len() - 1`.
        cursor[t] += 1;
        if stack.len() == n {
            if let Some(state) = finish(state, &mut step) {
                return (Some(state), memo_hits);
            }
        } else if memo
            .as_mut()
            .is_none_or(|memo| memo.insert((cursor.clone(), state.clone())))
        {
            stack.push((state, 0));
            continue;
        } else {
            memo_hits += 1;
        }
        cursor[t] -= 1;
    }
    (None, memo_hits)
}

/// Whether the operation `op` of a serial history is `invocation` on
/// `thread` with the given response (`None`: blocking).
fn performs(op: &SpecOp, thread: usize, invocation: &Invocation, response: Option<&Value>) -> bool {
    let outcome = match (&op.outcome, response) {
        (Outcome::Returned(v), Some(r)) => v == r,
        (Outcome::Pending, None) => true,
        _ => false,
    };
    op.thread == thread && outcome && op.invocation == *invocation
}

/// Whether the serial history `s` is a witness for the query.
pub fn is_witness(s: &SerialHistory, q: &WitnessQuery<'_>) -> bool {
    // A serial history is a one-path automaton; a state is a position.
    let step = |&k: &usize, thread, invocation: &Invocation, response: Option<&Value>| {
        let op = s.ops.get(k)?;
        performs(op, thread, invocation, response).then_some(k + 1)
    };
    s.thread_count == q.thread_count && search(q, 0, None, step, |&k| k == s.ops.len()).0.is_some()
}

/// Searches the observation set's automaton for a witness: the member at
/// the node where the first order of the query's operations that the
/// automaton spells ends.
pub fn find_witness<'a>(index: &SpecIndex<'a>, q: &WitnessQuery<'_>) -> Option<&'a SerialHistory> {
    let root = index.root(q.thread_count)?;
    let step = |&node: &_, thread, invocation: &Invocation, response: Option<&Value>| {
        let mut edges = index.edges(node);
        edges.find_map(|(op, child)| performs(op, thread, invocation, response).then_some(child))
    };
    // A node names its path: no two orders reach it, so no memo.
    let (end, _) = search(q, root, None, step, |&node| index.member(node).is_some());
    index.member(end?)
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
        // The query: thread B's three ops, then thread A's Wait blocking.
        let u = || Outcome::Returned(Value::Unit);
        let blocked_last = SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(1, "Set", u()),
                sop(1, "Reset", u()),
                sop(1, "Set", u()),
                sop(0, "Wait", Outcome::Pending),
            ],
        };
        assert!(is_witness(&blocked_last, &q));

        // B contains only (Set)(Reset)(Wait)# — the serial run where Wait
        // blocks after Reset never performs the second Set (serial stuck
        // histories end at the blocked call). It has other thread
        // subhistories, so it cannot be a witness.
        let mut spec = ObservationSet::new();
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
        let without_q = SerialHistory {
            thread_count: 3,
            ops: vec![sop(2, "r", ret(1)), sop(0, "p", Outcome::Pending)],
        };
        assert!(is_witness(&without_q, &q), "other pending ops are removed");
        let mut with_q = without_q.clone();
        with_q.ops.insert(1, sop(1, "q", Outcome::Pending));
        assert!(!is_witness(&with_q, &q));
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

    /// `H[e]` where `e` is the only operation: a one-op query with no
    /// constraints, matched exactly by the serial history that blocks
    /// immediately.
    #[test]
    fn stuck_query_with_only_the_pending_op() {
        let mut h = History::new(2);
        let e = h.push_call(0, inv("Wait"));
        h.stuck = true;
        let q = WitnessQuery::for_stuck_relaxed(&h, e, &[]);
        let s = SerialHistory {
            thread_count: 2,
            ops: vec![sop(0, "Wait", Outcome::Pending)],
        };
        assert!(is_witness(&s, &q));
    }

    /// A pending operation whose method is itself asynchronous: `H[e]`
    /// still records it as pending (asynchrony relaxes *ordering*, not
    /// the pending outcome), and it still goes last, after the completed
    /// asynchronous ops.
    #[test]
    fn stuck_query_with_async_pending_op() {
        let mut h = History::new(2);
        let c = h.push_call(1, inv("cancel"));
        h.push_return(c, Value::Unit);
        // cancel returned before Wait was called: cancel <H Wait.
        let e = h.push_call(0, inv("Wait"));
        h.stuck = true;
        let asyncs = ["cancel".to_string(), "Wait".to_string()];
        let relaxed = WitnessQuery::for_stuck_relaxed(&h, e, &asyncs);
        let strict = WitnessQuery::for_stuck_relaxed(&h, e, &[]);
        let u = || Outcome::Returned(Value::Unit);
        let blocked_last = SerialHistory {
            thread_count: 2,
            ops: vec![sop(1, "cancel", u()), sop(0, "Wait", Outcome::Pending)],
        };
        assert!(is_witness(&blocked_last, &relaxed) && is_witness(&blocked_last, &strict));
        let returned = SerialHistory {
            thread_count: 2,
            ops: vec![sop(1, "cancel", u()), sop(0, "Wait", u())],
        };
        assert!(!is_witness(&returned, &relaxed));
    }

    /// A history without operations — a test with empty columns, or one
    /// whose every operation failed spuriously — has the empty query, which
    /// the serial history without operations witnesses.
    #[test]
    fn query_for_a_history_without_operations() {
        let h = History::new(2);
        let q = WitnessQuery::for_full(&h);
        let mut spec = ObservationSet::new();
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![sop(0, "a", ret(0))],
        });
        assert!(find_witness(&spec.index(), &q).is_none());
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![],
        });
        assert!(find_witness(&spec.index(), &q).is_some());
    }

    /// The history that performs `ops` one after another.
    fn serial_run(threads: usize, ops: &[(usize, &str, Outcome)]) -> History {
        let mut h = History::new(threads);
        for (t, name, outcome) in ops {
            let op = h.push_call(*t, inv(name));
            match outcome {
                Outcome::Returned(v) => h.push_return(op, v.clone()),
                Outcome::Pending => h.stuck = true,
            }
        }
        h
    }

    /// Two members that differ in one outcome only — a nondeterministic
    /// set, which `check_against_spec` consults without the determinism
    /// check: each history finds its own member, a third outcome none.
    #[test]
    fn nondeterministic_set_finds_the_member_with_each_outcome() {
        let members = [1, 2].map(|v| SerialHistory {
            thread_count: 2,
            ops: vec![sop(0, "take", ret(v)), sop(1, "get", ret(0))],
        });
        let spec: ObservationSet = members.iter().cloned().collect();
        let index = spec.index();
        for v in [1, 2, 3] {
            let h = serial_run(2, &[(0, "take", ret(v)), (1, "get", ret(0))]);
            let found = find_witness(&index, &WitnessQuery::for_full(&h));
            assert_eq!(found, members.iter().find(|m| m.ops[0].outcome == ret(v)));
        }
    }

    /// A node that only a longer member passes through is no witness: not
    /// for the history that stops there, and not on the way to another
    /// order that ends at a member.
    #[test]
    fn a_prefix_of_a_member_is_no_witness() {
        let longer = SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(0, "x", ret(0)),
                sop(1, "y", ret(0)),
                sop(0, "z", ret(0)),
            ],
        };
        let other_order = SerialHistory {
            thread_count: 2,
            ops: vec![sop(1, "y", ret(0)), sop(0, "x", ret(0))],
        };
        let spec: ObservationSet = [longer, other_order.clone()].into_iter().collect();
        let index = spec.index();
        let serial = serial_run(2, &[(0, "x", ret(0)), (1, "y", ret(0))]);
        assert!(find_witness(&index, &WitnessQuery::for_full(&serial)).is_none());
        // With x and y overlapping, the x-first order is tried first and
        // ends at the longer member's prefix.
        let mut overlapping = History::new(2);
        let x = overlapping.push_call(0, inv("x"));
        let y = overlapping.push_call(1, inv("y"));
        overlapping.push_return(x, Value::Int(0));
        overlapping.push_return(y, Value::Int(0));
        let found = find_witness(&index, &WitnessQuery::for_full(&overlapping));
        assert_eq!(found, Some(&other_order));
    }

    /// The members over one thread count witness no history over another.
    #[test]
    fn another_thread_count_finds_no_witness() {
        let member = SerialHistory {
            thread_count: 1,
            ops: vec![sop(0, "a", ret(0))],
        };
        let spec: ObservationSet = [member].into_iter().collect();
        let index = spec.index();
        let one = serial_run(1, &[(0, "a", ret(0))]);
        assert!(find_witness(&index, &WitnessQuery::for_full(&one)).is_some());
        let two = serial_run(2, &[(0, "a", ret(0))]);
        assert!(find_witness(&index, &WitnessQuery::for_full(&two)).is_none());
    }

    /// The witness test straight from the definitions, the oracle for the
    /// property below: the same thread subhistories, and `<H` — without
    /// the pairs whose left operation is asynchronous — kept.
    fn reference_is_witness(s: &SerialHistory, h: &History, async_methods: &[String]) -> bool {
        let outcome =
            |i: OpIndex| (h.ops[i].response.clone()).map_or(Outcome::Pending, Outcome::Returned);
        let key: Vec<Vec<_>> = (0..h.thread_count)
            .map(|t| {
                h.thread_ops(t)
                    .into_iter()
                    .map(|i| (h.ops[i].invocation.clone(), outcome(i)))
            })
            .map(Iterator::collect)
            .collect();
        if s.thread_count != h.thread_count || s.thread_key() != key {
            return false;
        }
        // The k-th op of thread t in `h` is the k-th op of thread t in `s`.
        let mut pos: Vec<Vec<usize>> = vec![Vec::new(); h.thread_count];
        for (i, op) in s.ops.iter().enumerate() {
            pos[op.thread].push(i);
        }
        let at = |i: OpIndex| {
            let t = h.ops[i].thread;
            pos[t][h.thread_ops(t).iter().position(|&j| j == i).unwrap()]
        };
        let ops = 0..h.ops.len();
        ops.clone().all(|a| {
            async_methods.contains(&h.ops[a].invocation.name)
                || ops.clone().all(|b| !h.precedes(a, b) || at(a) < at(b))
        })
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const NAMES: [&str; 3] = ["a", "b", "c"];

        /// A well-formed complete history over `threads` threads with up
        /// to `ops` operations, driven by `script`: each number picks a
        /// thread, which returns if it is inside a call and calls
        /// otherwise; every call left open returns at the end.
        fn history(threads: usize, ops: usize, script: &[usize]) -> History {
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
            for op in open.into_iter().flatten() {
                h.push_return(op, Value::Unit);
            }
            h
        }

        fn methods(mask: usize) -> Vec<String> {
            let chosen = NAMES.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
            chosen.map(|(_, name)| name.to_string()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(500))]

            /// Members are random interleavings of the history's own
            /// thread subhistories (some respect `<H`, some do not), and
            /// some of them end in another outcome.
            #[test]
            fn witness_scan_matches_reference(
                threads in 1usize..4,
                script in prop::collection::vec(0usize..1000, 1..24),
                orders in prop::collection::vec(prop::collection::vec(0usize..1000, 8), 1..12),
                async_mask in 0usize..8,
            ) {
                let h = history(threads, 8, &script);
                let asyncs = methods(async_mask);
                let q = WitnessQuery::for_full_relaxed(&h, &asyncs);
                let mut spec = ObservationSet::new();
                for (i, order) in orders.iter().enumerate() {
                    let mut rows: Vec<_> = (0..threads).map(|t| h.thread_ops(t).into_iter()).collect();
                    let mut s = SerialHistory { thread_count: threads, ops: Vec::new() };
                    for &n in order.iter().cycle().take(8 * threads) {
                        if let Some(op) = rows[n % threads].next().map(|i| &h.ops[i]) {
                            let outcome = Outcome::Returned(op.response.clone().unwrap());
                            let invocation = op.invocation.clone();
                            s.ops.push(SpecOp { thread: n % threads, invocation, outcome });
                        }
                    }
                    if let (Some(last), 0) = (s.ops.last_mut(), i % 4) {
                        last.outcome = ret(9);
                    }
                    spec.insert(s);
                }
                let found = find_witness(&spec.index(), &q);
                let want = spec.iter().any(|s| reference_is_witness(s, &h, &asyncs));
                prop_assert_eq!(found.is_some(), want);
                prop_assert!(found.is_none_or(|s| reference_is_witness(s, &h, &asyncs)));
                for s in spec.iter() {
                    prop_assert_eq!(is_witness(s, &q), reference_is_witness(s, &h, &asyncs));
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
