//! Synthesized sequential specifications: sets of serial histories
//! (paper §2.1.2), recorded in phase 1 and consulted in phase 2 as a
//! prefix automaton ([`SpecIndex`]) that the witness search steps.

use crate::history::History;
use crate::target::Invocation;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// The outcome of one operation of a serial history.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// The operation returned this value.
    Returned(Value),
    /// The operation blocked: this is the trailing pending call of a
    /// stuck serial history `H (o i t) #` (the set `Y∥` of §2.3).
    Pending,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Returned(v) => write!(f, "{v}"),
            Outcome::Pending => write!(f, "⊥ (blocked)"),
        }
    }
}

/// One operation of a serial history.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpecOp {
    /// The thread performing the operation.
    pub thread: usize,
    /// The invocation.
    pub invocation: Invocation,
    /// The outcome ([`Outcome::Pending`] only for the final operation of a
    /// stuck history).
    pub outcome: Outcome,
}

/// A serial history: a total order of operations, the last of which may be
/// pending (then the history is stuck).
///
/// Phase 1 of the Line-Up check records the serial histories of a test;
/// together they form the synthesized sequential specification (the sets
/// `A` and `B` of Fig. 5).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SerialHistory {
    /// Number of threads of the originating test.
    pub thread_count: usize,
    /// The operations, in serial order.
    pub ops: Vec<SpecOp>,
}

impl SerialHistory {
    /// Whether this serial history is stuck (its last operation is
    /// pending).
    pub fn is_stuck(&self) -> bool {
        self.ops
            .last()
            .is_some_and(|op| op.outcome == Outcome::Pending)
    }

    /// Converts a serial [`History`] (as produced by a phase-1 run) into
    /// its canonical form.
    ///
    /// # Panics
    ///
    /// Panics if the history is not serial, or has a pending operation
    /// that is not last.
    pub fn from_history(h: &History) -> Self {
        assert!(h.is_serial(), "phase 1 must produce serial histories");
        let ops = h
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let outcome = match &op.response {
                    Some(v) => Outcome::Returned(v.clone()),
                    None => {
                        assert_eq!(
                            i,
                            h.ops.len() - 1,
                            "pending op of a serial history must be last"
                        );
                        assert!(h.stuck, "pending op requires a stuck history");
                        Outcome::Pending
                    }
                };
                SpecOp {
                    thread: op.thread,
                    invocation: op.invocation.clone(),
                    outcome,
                }
            })
            .collect();
        SerialHistory {
            thread_count: h.thread_count,
            ops,
        }
    }

    /// The per-thread operation sequences (the thread subhistories `S|t`):
    /// any serial witness of a history performs the same operations with
    /// the same outcomes in each thread (paper §4.2), and the observation
    /// file groups its sections by them.
    pub fn thread_key(&self) -> ThreadKey {
        let mut key = vec![Vec::new(); self.thread_count];
        for op in &self.ops {
            key[op.thread].push((op.invocation.clone(), op.outcome.clone()));
        }
        key
    }
}

impl fmt::Display for SerialHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}:{}", History::thread_label(op.thread), op.invocation)?;
            match &op.outcome {
                Outcome::Returned(v) => write!(f, "={v}")?,
                Outcome::Pending => write!(f, " #")?,
            }
        }
        Ok(())
    }
}

/// Per-thread operation sequences with outcomes: the grouping key of the
/// observation file (each `<observation>` section of Fig. 7 is one key).
pub type ThreadKey = Vec<Vec<(Invocation, Outcome)>>;

/// A nondeterminism witness: two serial histories whose longest common
/// prefix ends in a call (same serial prefix, same next invocation by the
/// same thread, different outcome) — the FAIL of Fig. 5 line 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nondeterminism {
    /// One history.
    pub first: SerialHistory,
    /// The other.
    pub second: SerialHistory,
    /// Index of the diverging operation (same in both).
    pub diverge_at: usize,
}

/// The set of serial histories recorded in phase 1: the synthesized
/// sequential specification (sets `A` — full — and `B` — stuck — of the
/// paper's Fig. 5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservationSet {
    histories: BTreeSet<SerialHistory>,
}

impl ObservationSet {
    /// Creates an empty observation set.
    pub fn new() -> Self {
        ObservationSet::default()
    }

    /// Inserts a serial history; returns whether it was new.
    pub fn insert(&mut self, h: SerialHistory) -> bool {
        self.histories.insert(h)
    }

    /// All recorded serial histories, in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &SerialHistory> {
        self.histories.iter()
    }

    /// Number of recorded serial histories (full + stuck).
    pub fn len(&self) -> usize {
        self.histories.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.histories.is_empty()
    }

    /// Number of full (complete) serial histories — the set `A`.
    pub fn full_count(&self) -> usize {
        self.histories.iter().filter(|h| !h.is_stuck()).count()
    }

    /// Number of stuck serial histories — the set `B`.
    pub fn stuck_count(&self) -> usize {
        self.histories.iter().filter(|h| h.is_stuck()).count()
    }

    /// The determinism check of Fig. 5 line 4: searches `A ∪ B` for two
    /// histories whose longest common prefix ends in a call. Returns the
    /// first such pair found, or `None` if the specification is
    /// deterministic.
    ///
    /// Two serial histories diverge "at a call" exactly when they agree on
    /// a prefix of operations (thread, invocation, outcome), then perform
    /// the *same* invocation on the *same* thread with *different*
    /// outcomes (different return values, or returning vs blocking).
    pub fn check_determinism(&self) -> Option<Nondeterminism> {
        // `SpecOp` orders by (thread, invocation, outcome), so in `ops`
        // order — the set's own unless thread counts differ, and then the
        // stable sort keeps set order among equal `ops` — the histories
        // sharing a serial prefix and the next call, a *block*, are
        // contiguous.
        let mut order: Vec<&SerialHistory> = self.histories.iter().collect();
        order.sort_by(|a, b| a.ops.cmp(&b.ops));
        // blocks[d]: of the members so far of the previous history's block
        // at depth `d`, the first in set order, and the first of those
        // whose outcome at `d` is not that one's.
        let mut blocks: Vec<(&SerialHistory, Option<&SerialHistory>)> = Vec::new();
        let mut found: Option<(&SerialHistory, usize, &SerialHistory)> = None;
        let mut prev: &[SpecOp] = &[];
        for h in order.into_iter().map(Some).chain([None]) {
            let ops = h.map_or(&[][..], |h| &h.ops);
            let mut open = prev.iter().zip(ops).take_while(|(a, b)| a == b).count();
            if let (Some(a), Some(b)) = (prev.get(open), ops.get(open)) {
                open += usize::from(a.thread == b.thread && a.invocation == b.invocation);
            }
            // Deeper blocks end here. A map from (prefix, call) to the first
            // outcome seen, filled in set order, meets its first conflict
            // at the earliest `second` of all blocks, at its least depth.
            while blocks.len() > open {
                if let Some((first, Some(second))) = blocks.pop() {
                    let conflict = (second, blocks.len(), first);
                    found = Some(found.map_or(conflict, |other| other.min(conflict)));
                }
            }
            let Some(h) = h else { break };
            // `h` follows every recorded member in `ops` order, so it is
            // earlier in set order only by a smaller thread count.
            let earlier = |other: &SerialHistory| h.thread_count < other.thread_count;
            for (d, (first, second)) in blocks.iter_mut().enumerate() {
                if h.ops[d].outcome == first.ops[d].outcome {
                    if earlier(first) {
                        *first = h;
                    }
                } else if earlier(first) {
                    *second = Some(std::mem::replace(first, h));
                } else if second.is_none_or(earlier) {
                    *second = Some(h);
                }
            }
            blocks.resize(h.ops.len(), (h, None));
            prev = &h.ops;
        }
        found.map(|(second, diverge_at, first)| Nondeterminism {
            first: first.clone(),
            second: second.clone(),
            diverge_at,
        })
    }

    /// Compares two observation sets, returning the serial histories only
    /// in `self` and only in `other`.
    ///
    /// Useful for diffing the synthesized specifications of two versions
    /// of a component (e.g. a preview and a release): behavioral changes —
    /// intended or not — show up as serial histories gained or lost, even
    /// when both versions pass their own self-checks.
    pub fn diff<'a>(
        &'a self,
        other: &'a ObservationSet,
    ) -> (Vec<&'a SerialHistory>, Vec<&'a SerialHistory>) {
        let only_self = self
            .histories
            .iter()
            .filter(|h| !other.histories.contains(h))
            .collect();
        let only_other = other
            .histories
            .iter()
            .filter(|h| !self.histories.contains(h))
            .collect();
        (only_self, only_other)
    }

    /// Builds the prefix automaton that phase 2's witness search steps
    /// (see [`SpecIndex`]).
    pub fn index(&self) -> SpecIndex<'_> {
        let mut index = SpecIndex {
            nodes: vec![Node::default()],
            roots: Vec::new(),
        };
        // The previous member and the nodes of its path, root first.
        let (mut prev, mut path): (Option<&SerialHistory>, Vec<usize>) = (None, Vec::new());
        for h in &self.histories {
            // Members come in (thread count, ops) order: each shares its
            // longest common prefix with the previous one and goes on with
            // an operation no earlier member took there, a new edge.
            let shared = match prev {
                Some(p) if p.thread_count == h.thread_count => {
                    p.ops.iter().zip(&h.ops).take_while(|(a, b)| a == b).count()
                }
                _ => {
                    // The first thread count's root is node 0.
                    let root = if prev.is_some() { index.push() } else { 0 };
                    index.roots.push((h.thread_count, SpecNode(root)));
                    path = vec![root];
                    0
                }
            };
            path.truncate(shared + 1);
            for op in &h.ops[shared..] {
                let node = index.push();
                index.nodes[path[path.len() - 1]].edges.push((op, node));
                path.push(node);
            }
            index.nodes[path[path.len() - 1]].member = Some(h);
            prev = Some(h);
        }
        index
    }
}

impl FromIterator<SerialHistory> for ObservationSet {
    fn from_iter<I: IntoIterator<Item = SerialHistory>>(iter: I) -> Self {
        ObservationSet {
            histories: iter.into_iter().collect(),
        }
    }
}

impl Extend<SerialHistory> for ObservationSet {
    fn extend<I: IntoIterator<Item = SerialHistory>>(&mut self, iter: I) {
        self.histories.extend(iter);
    }
}

/// The observation set as a prefix automaton: the trie of its serial
/// histories, with one root per thread count. A node is a serial prefix,
/// its edges are the next operations — thread, invocation and outcome,
/// borrowed from the set — in set order, and it records the member that
/// ends there, if any. A node names the path to it: a linearized set and a
/// specification state at once (Horn & Kroening's memo key).
#[derive(Debug, Clone)]
pub struct SpecIndex<'a> {
    nodes: Vec<Node<'a>>,
    /// Each thread count's root, in set order.
    roots: Vec<(usize, SpecNode)>,
}

/// A node of a [`SpecIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecNode(usize);

#[derive(Debug, Clone, Default)]
struct Node<'a> {
    edges: Vec<(&'a SpecOp, usize)>,
    member: Option<&'a SerialHistory>,
}

impl<'a> SpecIndex<'a> {
    fn push(&mut self) -> usize {
        self.nodes.push(Node::default());
        self.nodes.len() - 1
    }

    /// The root of the serial histories over `thread_count` threads.
    pub fn root(&self, thread_count: usize) -> Option<SpecNode> {
        let found = self.roots.iter().find(|&&(count, _)| count == thread_count);
        found.map(|&(_, root)| root)
    }

    /// The root of the set's first thread count — the only one in the set
    /// of one test — or, for an empty set, a node without edges.
    pub fn first_root(&self) -> SpecNode {
        SpecNode(0)
    }

    /// The edges out of `node` in set order: each operation and the node
    /// it leads to.
    pub fn edges(&self, node: SpecNode) -> impl Iterator<Item = (&'a SpecOp, SpecNode)> + '_ {
        (self.nodes[node.0].edges.iter()).map(|&(op, child)| (op, SpecNode(child)))
    }

    /// The member that ends at `node`, if any.
    pub fn member(&self, node: SpecNode) -> Option<&'a SerialHistory> {
        self.nodes[node.0].member
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(thread: usize, name: &str, outcome: Outcome) -> SpecOp {
        SpecOp {
            thread,
            invocation: Invocation::new(name),
            outcome,
        }
    }

    fn ret(v: i64) -> Outcome {
        Outcome::Returned(Value::Int(v))
    }

    fn serial(thread_count: usize, ops: Vec<SpecOp>) -> SerialHistory {
        SerialHistory { thread_count, ops }
    }

    #[test]
    fn stuck_detection() {
        let full = serial(1, vec![op(0, "inc", Outcome::Returned(Value::Unit))]);
        let stuck = serial(1, vec![op(0, "dec", Outcome::Pending)]);
        assert!(!full.is_stuck());
        assert!(stuck.is_stuck());
    }

    #[test]
    fn deterministic_set_passes() {
        let mut set = ObservationSet::new();
        // Two different interleavings of a counter: different op orders are
        // scheduling choices, not nondeterminism.
        set.insert(serial(2, vec![op(0, "inc", ret(1)), op(1, "get", ret(1))]));
        set.insert(serial(2, vec![op(1, "get", ret(0)), op(0, "inc", ret(1))]));
        assert!(set.check_determinism().is_none());
        assert_eq!(set.full_count(), 2);
        assert_eq!(set.stuck_count(), 0);
    }

    #[test]
    fn same_call_different_value_is_nondeterministic() {
        let mut set = ObservationSet::new();
        set.insert(serial(1, vec![op(0, "take", ret(1))]));
        set.insert(serial(1, vec![op(0, "take", ret(2))]));
        let nd = set.check_determinism().expect("nondeterministic");
        assert_eq!(nd.diverge_at, 0);
    }

    #[test]
    fn return_vs_blocking_is_nondeterministic() {
        // The same call either returns or blocks: per §2.3 the stuck set
        // Y∥ only contains H(oit)# when *no* response continues H(oit), so
        // observing both is nondeterminism.
        let mut set = ObservationSet::new();
        set.insert(serial(1, vec![op(0, "take", ret(7))]));
        set.insert(serial(1, vec![op(0, "take", Outcome::Pending)]));
        assert!(set.check_determinism().is_some());
    }

    #[test]
    fn different_threads_same_call_are_distinct() {
        // inc by thread A and inc by thread B are different events; the
        // common prefix ends before the calls, at a return — deterministic.
        let mut set = ObservationSet::new();
        set.insert(serial(2, vec![op(0, "inc", ret(1))]));
        set.insert(serial(2, vec![op(1, "inc", ret(1))]));
        assert!(set.check_determinism().is_none());
    }

    #[test]
    fn divergence_after_common_prefix() {
        let mut set = ObservationSet::new();
        set.insert(serial(2, vec![op(0, "a", ret(0)), op(1, "b", ret(1))]));
        set.insert(serial(2, vec![op(0, "a", ret(0)), op(1, "b", ret(2))]));
        let nd = set.check_determinism().unwrap();
        assert_eq!(nd.diverge_at, 1);
    }

    #[test]
    fn dedup_via_insert() {
        let mut set = ObservationSet::new();
        let h = serial(1, vec![op(0, "x", ret(0))]);
        assert!(set.insert(h.clone()));
        assert!(!set.insert(h));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn diff_finds_gained_and_lost_histories() {
        let a: ObservationSet = [
            serial(1, vec![op(0, "x", ret(0))]),
            serial(1, vec![op(0, "y", ret(1))]),
        ]
        .into_iter()
        .collect();
        let b: ObservationSet = [
            serial(1, vec![op(0, "x", ret(0))]),
            serial(1, vec![op(0, "z", ret(2))]),
        ]
        .into_iter()
        .collect();
        let (only_a, only_b) = a.diff(&b);
        assert_eq!(only_a.len(), 1);
        assert_eq!(only_a[0].ops[0].invocation.name, "y");
        assert_eq!(only_b.len(), 1);
        assert_eq!(only_b[0].ops[0].invocation.name, "z");
        let (same_a, same_b) = a.diff(&a);
        assert!(same_a.is_empty() && same_b.is_empty());
    }

    /// `check_determinism` as it was before it became one pass over the
    /// sorted set, kept verbatim as the oracle for the property below.
    mod reference {
        use super::*;
        use std::collections::BTreeMap;

        pub fn check_determinism(set: &ObservationSet) -> Option<Nondeterminism> {
            // Key: (serial prefix, thread, invocation) → (outcome, history).
            type Key = (Vec<SpecOp>, usize, Invocation);
            let mut seen: BTreeMap<Key, (&Outcome, &SerialHistory)> = BTreeMap::new();
            for h in &set.histories {
                for (i, op) in h.ops.iter().enumerate() {
                    let key = (h.ops[..i].to_vec(), op.thread, op.invocation.clone());
                    match seen.get(&key) {
                        Some((outcome, other)) if *outcome != &op.outcome => {
                            return Some(Nondeterminism {
                                first: (*other).clone(),
                                second: h.clone(),
                                diverge_at: i,
                            });
                        }
                        Some(_) => {}
                        None => {
                            seen.insert(key, (&op.outcome, h));
                        }
                    }
                }
            }
            None
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Serial histories over two threads, two methods and two return
        /// values, so that among forty of them shared prefixes, the same
        /// call with another outcome, returned-vs-pending pairs and stuck
        /// tails are all common; `mixed` sets also vary the thread count.
        fn set_strategy() -> impl Strategy<Value = ObservationSet> {
            let step = (0usize..2, 0usize..2, 0i64..2);
            let history = (prop::collection::vec(step, 0..5), 0usize..4, 2usize..4);
            (prop::collection::vec(history, 1..41), any::<bool>()).prop_map(|(histories, mixed)| {
                let serial = |(ops, tail, threads): (Vec<(usize, usize, i64)>, usize, usize)| {
                    let mut ops: Vec<SpecOp> = (ops.into_iter())
                        .map(|(t, name, v)| op(t, ["a", "b"][name], ret(v)))
                        .collect();
                    if let (Some(last), 0) = (ops.last_mut(), tail) {
                        last.outcome = Outcome::Pending;
                    }
                    serial(if mixed { threads } else { 2 }, ops)
                };
                histories.into_iter().map(serial).collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            #[test]
            fn determinism_check_matches_reference(set in set_strategy()) {
                prop_assert_eq!(set.check_determinism(), reference::check_determinism(&set));
            }

            /// Each member is spelled by a path from its thread count's
            /// root, which ends at it; the edges out of a node are
            /// distinct and in set order, so the path is the only one.
            #[test]
            fn index_spells_each_member_once(set in set_strategy()) {
                let index = set.index();
                for h in set.iter() {
                    let mut node = index.root(h.thread_count).expect("a root");
                    for op in &h.ops {
                        let labels: Vec<&SpecOp> = index.edges(node).map(|(op, _)| op).collect();
                        prop_assert!(labels.windows(2).all(|w| w[0] < w[1]));
                        node = index.edges(node).find(|&(label, _)| label == op).expect("an edge").1;
                    }
                    prop_assert!(std::ptr::eq(index.member(node).expect("a member"), h));
                }
            }
        }
    }

    #[test]
    fn from_history_roundtrip() {
        let mut h = History::new(2);
        let a = h.push_call(0, Invocation::new("inc"));
        h.push_return(a, Value::Unit);
        let b = h.push_call(1, Invocation::new("get"));
        h.push_return(b, Value::Int(1));
        let s = SerialHistory::from_history(&h);
        assert_eq!(s.ops.len(), 2);
        assert_eq!(s.ops[0].outcome, Outcome::Returned(Value::Unit));
        assert!(!s.is_stuck());
    }

    #[test]
    fn from_history_stuck() {
        let mut h = History::new(1);
        h.push_call(0, Invocation::new("dec"));
        h.stuck = true;
        let s = SerialHistory::from_history(&h);
        assert!(s.is_stuck());
    }

    #[test]
    #[should_panic(expected = "must produce serial")]
    fn from_history_rejects_nonserial() {
        let mut h = History::new(2);
        h.push_call(0, Invocation::new("a"));
        h.push_call(1, Invocation::new("b"));
        h.stuck = true;
        // Two pending calls: not serial.
        SerialHistory::from_history(&h);
    }

    #[test]
    fn display_shows_threads_and_outcomes() {
        let s = serial(
            2,
            vec![op(0, "inc", ret(1)), op(1, "dec", Outcome::Pending)],
        );
        let text = s.to_string();
        assert!(text.contains("A:inc()=1"));
        assert!(text.contains("B:dec() #"));
    }
}
