//! Finite tests, represented as matrices of invocations (paper §3.1),
//! and the thread-symmetry structure of a test (its interchangeable
//! columns), which drives both schedule pruning in phase 2 exploration
//! and canonical history deduplication in phase 2 checking.

use crate::history::{Event, History, HistoryKey, KeyWriter};
use crate::target::{Invocation, SymmetryPolicy};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// A finite test: a map from threads to invocation sequences, thought of
/// as a matrix whose columns are threads (paper §3.1).
///
/// Optionally carries an *init sequence* — operations performed on the
/// fresh instance before the concurrent part, to prepare its state — and a
/// *final sequence* — operations performed by a dedicated thread after all
/// test threads have finished, to observe the final state (paper §4.3:
/// "initial and final sequences of operations to perform before and after
/// each test").
///
/// # Example
///
/// ```
/// use lineup::{Invocation, TestMatrix};
///
/// // The Fig. 1 test of the paper:
/// //   Thread 1: Add(200); Add(400)     Thread 2: TryTake; TryTake
/// let m = TestMatrix::from_rows(vec![
///     vec![Invocation::with_int("Add", 200), Invocation::new("TryTake")],
///     vec![Invocation::with_int("Add", 400), Invocation::new("TryTake")],
/// ]);
/// assert_eq!(m.thread_count(), 2);
/// assert_eq!(m.operation_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TestMatrix {
    /// One invocation sequence per thread (matrix columns).
    pub columns: Vec<Vec<Invocation>>,
    /// Operations run before the concurrent part (not part of histories).
    pub init: Vec<Invocation>,
    /// Operations run by an extra thread after all columns finish
    /// (recorded in histories, totally ordered after everything).
    pub finally: Vec<Invocation>,
}

impl TestMatrix {
    /// Creates a test from its columns (one invocation sequence per
    /// thread).
    pub fn from_columns(columns: Vec<Vec<Invocation>>) -> Self {
        TestMatrix {
            columns,
            init: Vec::new(),
            finally: Vec::new(),
        }
    }

    /// Creates a test from its rows: `rows[r][c]` is the `r`-th invocation
    /// of thread `c`. All rows must have the same length. This matches the
    /// matrix notation of §3.1.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: Vec<Vec<Invocation>>) -> Self {
        if rows.is_empty() {
            return TestMatrix::default();
        }
        let width = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == width),
            "ragged rows in test matrix"
        );
        let mut columns = vec![Vec::with_capacity(rows.len()); width];
        for row in rows {
            for (c, inv) in row.into_iter().enumerate() {
                columns[c].push(inv);
            }
        }
        TestMatrix::from_columns(columns)
    }

    /// Sets the init sequence, builder style.
    pub fn with_init(mut self, init: Vec<Invocation>) -> Self {
        self.init = init;
        self
    }

    /// Sets the final sequence, builder style.
    pub fn with_finally(mut self, finally: Vec<Invocation>) -> Self {
        self.finally = finally;
        self
    }

    /// Number of threads (columns).
    pub fn thread_count(&self) -> usize {
        self.columns.len()
    }

    /// Total number of operations in the concurrent part.
    pub fn operation_count(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    /// The dimension `rows × columns` as reported in the paper's Table 2
    /// (maximum column length × number of columns).
    pub fn dimension(&self) -> (usize, usize) {
        (
            self.columns.iter().map(Vec::len).max().unwrap_or(0),
            self.columns.len(),
        )
    }

    /// Whether `self` is a prefix of `other`: every thread's sequence in
    /// `self` is a prefix of the same thread's sequence in `other`
    /// (paper §3.1). Init/final sequences must match exactly.
    pub fn is_prefix_of(&self, other: &TestMatrix) -> bool {
        if self.init != other.init || self.finally != other.finally {
            return false;
        }
        if self.columns.len() > other.columns.len() {
            return false;
        }
        self.columns
            .iter()
            .enumerate()
            .all(|(i, col)| other.columns[i].starts_with(col))
    }

    /// Enumerates all `rows × cols` matrices with entries drawn from
    /// `invocations` — the set `M(I, p×q)` of §3.1, used by `AutoCheck`.
    /// The result has `|I|^(rows*cols)` elements; keep the inputs small.
    pub fn enumerate(invocations: &[Invocation], rows: usize, cols: usize) -> Vec<TestMatrix> {
        let cells = rows * cols;
        if invocations.is_empty() || cells == 0 {
            return vec![TestMatrix::from_columns(vec![Vec::new(); cols])];
        }
        let mut out = Vec::new();
        let mut indexes = vec![0usize; cells];
        loop {
            let mut columns = vec![Vec::with_capacity(rows); cols];
            for (cell, &inv_idx) in indexes.iter().enumerate() {
                columns[cell % cols].push(invocations[inv_idx].clone());
            }
            out.push(TestMatrix::from_columns(columns));
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == cells {
                    return out;
                }
                indexes[i] += 1;
                if indexes[i] < invocations.len() {
                    break;
                }
                indexes[i] = 0;
                i += 1;
            }
        }
    }
}

/// The thread-symmetry structure of a test: maximal sets of columns whose
/// invocation sequences are identical up to value renaming (computed by
/// [`TestMatrix::symmetry_groups`]).
///
/// Two uses. [`SymmetryGroups::masks`] feeds phase-1 schedule pruning
/// (`lineup_sched::Config::with_symmetry`): among never-started threads of
/// one group only the lowest-indexed may be scheduled first, because the
/// skipped orders produce renamings of explored histories.
/// [`SymmetryGroups::key`] keys phase-2 verdict caching: renaming
/// a history's group threads into first-appearance order (and their
/// distinguished argument values along with them) maps every member of a
/// symmetry class to the same canonical history, so one monitor verdict
/// covers the whole class.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymmetryGroups {
    /// Member column indices per group, sorted ascending, each of size
    /// ≥ 2; groups are pairwise disjoint.
    groups: Vec<Vec<usize>>,
    /// Flattened argument values per group member (parallel to `groups`,
    /// same member order): `member_args[g][k]` are the arguments of column
    /// `groups[g][k]` in operation order. Positionwise pairing of two
    /// members' lists defines the value renaming that accompanies
    /// swapping them.
    member_args: Vec<Vec<Vec<Value>>>,
}

impl SymmetryGroups {
    /// True when no symmetry was detected (or the policy disabled it):
    /// canonicalization is the identity and no schedules are pruned.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Member column indices per group (sorted, disjoint, size ≥ 2).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The groups as thread bitmasks, the form
    /// `lineup_sched::Config::with_symmetry` takes. Detection caps tests
    /// at 64 columns, so every member index fits a `u64`.
    pub fn masks(&self) -> Vec<u64> {
        self.groups
            .iter()
            .map(|g| g.iter().fold(0u64, |m, &t| m | (1u64 << t)))
            .collect()
    }

    /// Canonicalizes a history under the group action: within each group,
    /// threads are renamed so that the order of their first appearance in
    /// the history matches member (index) order, and each renamed thread's
    /// distinguished argument values are renamed along with it (responses
    /// are rewritten recursively, so a payload value surfacing inside a
    /// `Seq`/`Opt` response is renamed wherever it appears). Two histories
    /// have equal canonical forms iff one is the image of the other under
    /// a permutation of group members — so the canonical form is a correct
    /// cache key for any property invariant under such renaming
    /// (linearizability verdicts in particular).
    ///
    /// On histories produced by an exploration whose symmetry pruning was
    /// active this is the identity (pruning only admits first-appearance
    /// order); it does real work on histories from preemption-bounded or
    /// sampled explorations, where pruning is disengaged.
    pub fn canonicalize(&self, h: &History) -> History {
        let Some((perm, vmap)) = self.renaming(h) else {
            return h.clone(); // already canonical; skip the rebuild
        };
        let mut out = History::new(h.thread_count);
        out.stuck = h.stuck;
        for ev in &h.events {
            match *ev {
                Event::Call(i) => {
                    let op = &h.ops[i];
                    let invocation = Invocation {
                        name: op.invocation.name.clone(),
                        args: op
                            .invocation
                            .args
                            .iter()
                            .map(|a| map_value(a, &vmap))
                            .collect(),
                    };
                    let new = out.push_call(perm[op.thread], invocation);
                    debug_assert_eq!(new, i, "events preserve op numbering");
                }
                Event::Return(i) => {
                    let resp = h.ops[i].response.as_ref().expect("returned op");
                    out.push_return(i, map_value(resp, &vmap));
                }
            }
        }
        out
    }

    /// The verdict-cache key of `h`'s canonical form — equal to
    /// `HistoryKey::of(&self.canonicalize(h))` — written straight from
    /// `h` under the renaming, so no second history is built per run.
    /// [`canonicalize`](SymmetryGroups::canonicalize) remains the readable
    /// form, for violation evidence.
    pub fn key(&self, h: &History, writer: &mut KeyWriter) -> HistoryKey {
        match self.renaming(h) {
            None => writer.history(h),
            Some((perm, vmap)) => writer.history_with(h, |t| perm[t], |v| vmap.get(v)),
        }
    }

    /// The renaming that canonicalizes `h`, or `None` when it is the
    /// identity. Thread permutation: per group, the members in order of
    /// first appearance (never-appearing members last, in index order) are
    /// mapped onto the members in index order; each moved member's
    /// distinguished argument values move with it.
    fn renaming(&self, h: &History) -> Option<(Vec<usize>, HashMap<Value, Value>)> {
        if self.groups.is_empty() {
            return None;
        }
        let mut perm: Vec<usize> = (0..h.thread_count).collect();
        let mut vmap: HashMap<Value, Value> = HashMap::new();
        let mut appeared: Vec<usize> = Vec::new();
        for (g, members) in self.groups.iter().enumerate() {
            if members.iter().any(|&m| m >= h.thread_count) {
                continue; // foreign history; leave this group alone
            }
            appeared.clear();
            for op in &h.ops {
                if members.contains(&op.thread) && !appeared.contains(&op.thread) {
                    appeared.push(op.thread);
                }
            }
            for &m in members {
                if !appeared.contains(&m) {
                    appeared.push(m);
                }
            }
            for (k, &old) in appeared.iter().enumerate() {
                perm[old] = members[k];
                if old != members[k] {
                    let old_pos = members.iter().position(|&m| m == old).expect("member");
                    for (ov, nv) in self.member_args[g][old_pos]
                        .iter()
                        .zip(&self.member_args[g][k])
                    {
                        if ov != nv {
                            vmap.insert(ov.clone(), nv.clone());
                        }
                    }
                }
            }
        }
        let moved = perm.iter().enumerate().any(|(i, &p)| i != p);
        moved.then_some((perm, vmap))
    }
}

/// Applies a leaf-value renaming recursively: exact matches are replaced,
/// containers are rewritten element-wise. The renaming only ever contains
/// leaf values (detection rejects container-valued distinguished
/// arguments), so exact-match-then-recurse cannot double-rename.
fn map_value(v: &Value, vmap: &HashMap<Value, Value>) -> Value {
    if vmap.is_empty() {
        return v.clone();
    }
    if let Some(m) = vmap.get(v) {
        return m.clone();
    }
    match v {
        Value::Seq(items) => Value::Seq(items.iter().map(|x| map_value(x, vmap)).collect()),
        Value::Opt(Some(inner)) => Value::Opt(Some(Box::new(map_value(inner, vmap)))),
        _ => v.clone(),
    }
}

/// Counts every value node (including nested ones) in all argument
/// positions of the matrix: init, every column, and the final sequence.
/// A value with total count 1 occurs in exactly one place, which is what
/// lets symmetry detection rename it freely.
fn count_value_nodes(m: &TestMatrix, counts: &mut HashMap<Value, usize>) {
    fn walk(v: &Value, counts: &mut HashMap<Value, usize>) {
        *counts.entry(v.clone()).or_insert(0) += 1;
        match v {
            Value::Seq(items) => items.iter().for_each(|x| walk(x, counts)),
            Value::Opt(Some(inner)) => walk(inner, counts),
            _ => {}
        }
    }
    let all = m
        .init
        .iter()
        .chain(m.columns.iter().flatten())
        .chain(m.finally.iter());
    for inv in all {
        for a in &inv.args {
            walk(a, counts);
        }
    }
}

impl TestMatrix {
    /// Maximum number of columns for which symmetry detection runs:
    /// groups are consumed as `u64` bitmasks by the scheduler, matching
    /// its own partial-order-reduction thread cap.
    const MAX_SYMMETRY_THREADS: usize = 64;

    /// Computes the thread-symmetry groups of this test under the
    /// target's [`SymmetryPolicy`]: maximal disjoint sets of columns
    /// interchangeable up to value renaming (see [`SymmetryGroups`]).
    ///
    /// Detection proceeds in two steps. Columns are first partitioned by
    /// *shape*: the sequence of operation names and arities, plus the
    /// equality pattern of their argument values (each value abstracted to
    /// the position of its first occurrence in the column). Under
    /// [`SymmetryPolicy::ThreadsOnly`], each shape class is then split
    /// into literal-equality groups — columns with identical invocation
    /// sequences, interchangeable with no value renaming at all. Under
    /// [`SymmetryPolicy::Full`], a whole shape class forms one group when
    /// every argument row across its members is either all-equal (the
    /// value is shared and stays fixed) or pairwise-distinct *leaf*
    /// values each occurring exactly once in the entire matrix (the value
    /// is private to its position and renames freely — occurring anywhere
    /// else, including nested in a `Seq`/`Opt` argument, would make the
    /// renaming observable outside the swapped columns). Classes failing
    /// the check fall back to literal-equality grouping, which is always
    /// sound.
    ///
    /// Returns the empty structure under [`SymmetryPolicy::Disabled`],
    /// for single-column tests, and beyond
    /// [`Self::MAX_SYMMETRY_THREADS`] columns.
    pub fn symmetry_groups(&self, policy: SymmetryPolicy) -> SymmetryGroups {
        if policy == SymmetryPolicy::Disabled
            || self.columns.len() < 2
            || self.columns.len() > Self::MAX_SYMMETRY_THREADS
        {
            return SymmetryGroups::default();
        }

        // Shape signature: operation names/arities + argument equality
        // pattern (values abstracted to first-occurrence positions).
        let shape_of = |col: &[Invocation]| -> (Vec<(String, usize)>, Vec<usize>) {
            let ops = col.iter().map(|i| (i.name.clone(), i.args.len())).collect();
            let flat: Vec<&Value> = col.iter().flat_map(|i| i.args.iter()).collect();
            let pattern = flat
                .iter()
                .map(|v| flat.iter().position(|w| w == v).expect("self"))
                .collect();
            (ops, pattern)
        };
        let flat_args = |col: &[Invocation]| -> Vec<Value> {
            col.iter().flat_map(|i| i.args.clone()).collect()
        };

        // Shape class: (op names/arities, value pattern, member columns).
        type ShapeClass = (Vec<(String, usize)>, Vec<usize>, Vec<usize>);
        let mut classes: Vec<ShapeClass> = Vec::new();
        for (c, col) in self.columns.iter().enumerate() {
            let (ops, pattern) = shape_of(col);
            match classes
                .iter_mut()
                .find(|(o, p, _)| *o == ops && *p == pattern)
            {
                Some((_, _, members)) => members.push(c),
                None => classes.push((ops, pattern, vec![c])),
            }
        }

        let mut counts = HashMap::new();
        let mut counted = false;
        let mut out = SymmetryGroups::default();
        let push_group = |members: Vec<usize>, out: &mut SymmetryGroups| {
            if members.len() >= 2 {
                out.member_args.push(
                    members
                        .iter()
                        .map(|&c| flat_args(&self.columns[c]))
                        .collect(),
                );
                out.groups.push(members);
            }
        };

        for (_, _, members) in classes {
            if members.len() < 2 {
                continue;
            }
            let full_ok = policy == SymmetryPolicy::Full && {
                if !counted {
                    count_value_nodes(self, &mut counts);
                    counted = true;
                }
                let rows = self.columns[members[0]]
                    .iter()
                    .map(|i| i.args.len())
                    .sum::<usize>();
                (0..rows).all(|r| {
                    let row: Vec<&Value> = members
                        .iter()
                        .map(|&c| {
                            self.columns[c]
                                .iter()
                                .flat_map(|i| i.args.iter())
                                .nth(r)
                                .expect("same shape")
                        })
                        .collect();
                    let all_equal = row.windows(2).all(|w| w[0] == w[1]);
                    all_equal || {
                        let leaves = row
                            .iter()
                            .all(|v| !matches!(v, Value::Seq(_) | Value::Opt(Some(_))));
                        let distinct =
                            (0..row.len()).all(|i| (i + 1..row.len()).all(|j| row[i] != row[j]));
                        let private = row.iter().all(|v| counts.get(*v) == Some(&1));
                        leaves && distinct && private
                    }
                })
            };
            if full_ok {
                push_group(members, &mut out);
            } else {
                // Literal-equality fallback (also the ThreadsOnly path):
                // sub-partition the shape class by exact column equality.
                let mut literal: Vec<(usize, Vec<usize>)> = Vec::new();
                for &c in &members {
                    match literal
                        .iter_mut()
                        .find(|(first, _)| self.columns[*first] == self.columns[c])
                    {
                        Some((_, g)) => g.push(c),
                        None => literal.push((c, vec![c])),
                    }
                }
                for (_, g) in literal {
                    push_group(g, &mut out);
                }
            }
        }
        out
    }
}

impl fmt::Display for TestMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.init.is_empty() {
            write!(f, "init:")?;
            for inv in &self.init {
                write!(f, " {inv}")?;
            }
            writeln!(f)?;
        }
        let (rows, cols) = self.dimension();
        for r in 0..rows {
            for c in 0..cols {
                if c > 0 {
                    write!(f, " | ")?;
                }
                match self.columns[c].get(r) {
                    Some(inv) => write!(f, "{inv:<16}")?,
                    None => write!(f, "{:<16}", "")?,
                }
            }
            writeln!(f)?;
        }
        if !self.finally.is_empty() {
            write!(f, "finally:")?;
            for inv in &self.finally {
                write!(f, " {inv}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(name: &str) -> Invocation {
        Invocation::new(name)
    }

    #[test]
    fn from_rows_transposes() {
        let m = TestMatrix::from_rows(vec![vec![inv("a"), inv("b")], vec![inv("c"), inv("d")]]);
        assert_eq!(m.columns[0], vec![inv("a"), inv("c")]);
        assert_eq!(m.columns[1], vec![inv("b"), inv("d")]);
        assert_eq!(m.dimension(), (2, 2));
        assert_eq!(m.operation_count(), 4);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        TestMatrix::from_rows(vec![vec![inv("a")], vec![inv("b"), inv("c")]]);
    }

    #[test]
    fn prefix_order() {
        let small = TestMatrix::from_columns(vec![vec![inv("a")], vec![]]);
        let big = TestMatrix::from_columns(vec![vec![inv("a"), inv("b")], vec![inv("c")]]);
        assert!(small.is_prefix_of(&big));
        assert!(!big.is_prefix_of(&small));
        assert!(small.is_prefix_of(&small));
        // Fewer columns is fine (missing columns are empty sequences).
        let one_col = TestMatrix::from_columns(vec![vec![inv("a")]]);
        assert!(one_col.is_prefix_of(&big));
    }

    #[test]
    fn prefix_requires_matching_init() {
        let a = TestMatrix::from_columns(vec![vec![inv("a")]]);
        let b = a.clone().with_init(vec![inv("i")]);
        assert!(!a.is_prefix_of(&b));
        assert!(b.is_prefix_of(&b));
    }

    #[test]
    fn enumerate_counts() {
        let invs = vec![inv("x"), inv("y")];
        // 2 invocations, 2x2 matrix: 2^4 = 16 tests.
        assert_eq!(TestMatrix::enumerate(&invs, 2, 2).len(), 16);
        // 3 invocations, 1x1: 3 tests.
        assert_eq!(
            TestMatrix::enumerate(&[inv("a"), inv("b"), inv("c")], 1, 1).len(),
            3
        );
    }

    #[test]
    fn enumerate_shapes() {
        let invs = vec![inv("x")];
        let ms = TestMatrix::enumerate(&invs, 3, 2);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].dimension(), (3, 2));
        assert_eq!(ms[0].operation_count(), 6);
    }

    fn int(name: &str, v: i64) -> Invocation {
        Invocation::with_int(name, v)
    }

    #[test]
    fn threads_only_groups_literal_columns() {
        // [Wait], [Wait], [Release(2)]: the two Wait columns group.
        let m = TestMatrix::from_columns(vec![
            vec![inv("Wait")],
            vec![inv("Wait")],
            vec![int("Release", 2)],
        ]);
        let g = m.symmetry_groups(SymmetryPolicy::ThreadsOnly);
        assert_eq!(g.groups(), &[vec![0, 1]]);
        assert_eq!(g.masks(), vec![0b011]);
    }

    #[test]
    fn full_policy_groups_value_renamed_columns() {
        // [Enqueue(10)], [Enqueue(20)]: identical up to renaming 10↔20.
        let m = TestMatrix::from_columns(vec![vec![int("Enqueue", 10)], vec![int("Enqueue", 20)]]);
        assert!(
            m.symmetry_groups(SymmetryPolicy::ThreadsOnly).is_empty(),
            "different literals do not group under ThreadsOnly"
        );
        let g = m.symmetry_groups(SymmetryPolicy::Full);
        assert_eq!(g.groups(), &[vec![0, 1]]);
    }

    #[test]
    fn full_policy_respects_shared_values() {
        // A value reused across columns is not private, so the columns
        // only group literally.
        let m = TestMatrix::from_columns(vec![
            vec![int("Enq", 10)],
            vec![int("Enq", 20)],
            vec![int("Enq", 10)],
        ]);
        let g = m.symmetry_groups(SymmetryPolicy::Full);
        assert_eq!(g.groups(), &[vec![0, 2]], "only the literal pair groups");
    }

    #[test]
    fn full_policy_respects_init_and_finally_occurrences() {
        // 20 also appears in the final sequence: renaming 10↔20 would be
        // observable there, so the class must fall back (and the fallback
        // finds nothing literal).
        let m = TestMatrix::from_columns(vec![vec![int("Enq", 10)], vec![int("Enq", 20)]])
            .with_finally(vec![int("Contains", 20)]);
        assert!(m.symmetry_groups(SymmetryPolicy::Full).is_empty());
    }

    #[test]
    fn disabled_policy_finds_nothing() {
        let m = TestMatrix::from_columns(vec![vec![inv("Add")], vec![inv("Add")]]);
        assert!(m.symmetry_groups(SymmetryPolicy::Disabled).is_empty());
        assert!(!m.symmetry_groups(SymmetryPolicy::ThreadsOnly).is_empty());
    }

    #[test]
    fn mixed_shapes_partition_first() {
        // Two Adds and two TryTakes: two independent groups.
        let m = TestMatrix::from_columns(vec![
            vec![int("Add", 1)],
            vec![inv("TryTake")],
            vec![int("Add", 1)],
            vec![inv("TryTake")],
        ]);
        let g = m.symmetry_groups(SymmetryPolicy::ThreadsOnly);
        assert_eq!(g.groups(), &[vec![0, 2], vec![1, 3]]);
        assert_eq!(g.masks(), vec![0b0101, 0b1010]);
    }

    #[test]
    fn canonicalize_renames_threads_to_first_appearance() {
        let m = TestMatrix::from_columns(vec![vec![inv("inc")], vec![inv("inc")]]);
        let g = m.symmetry_groups(SymmetryPolicy::ThreadsOnly);
        // Thread 1 moves first: canonical form renames it to thread 0.
        let mut h = History::new(3);
        let b = h.push_call(1, inv("inc"));
        h.push_return(b, crate::value::Value::Unit);
        let a = h.push_call(0, inv("inc"));
        h.push_return(a, crate::value::Value::Unit);
        let canon = g.canonicalize(&h);
        assert_eq!(canon.ops[0].thread, 0);
        assert_eq!(canon.ops[1].thread, 1);
        // The mirror history (thread 0 first) is already canonical…
        let mut mirror = History::new(3);
        let a = mirror.push_call(0, inv("inc"));
        mirror.push_return(a, crate::value::Value::Unit);
        let b = mirror.push_call(1, inv("inc"));
        mirror.push_return(b, crate::value::Value::Unit);
        assert_eq!(g.canonicalize(&mirror), mirror);
        // …and both members of the class share one canonical form.
        assert_eq!(canon, mirror);
        assert_eq!(g.key(&h, &mut KeyWriter::new()), HistoryKey::of(&canon));
    }

    #[test]
    fn canonicalize_renames_values_with_threads() {
        use crate::value::Value;
        let m = TestMatrix::from_columns(vec![vec![int("Enqueue", 10)], vec![int("Enqueue", 20)]]);
        let g = m.symmetry_groups(SymmetryPolicy::Full);
        // Thread 1 enqueues 20 first; a later response surfaces 20 inside
        // an Opt. Canonically thread 1 becomes thread 0 and 20 becomes 10,
        // including inside the response.
        let mut h = History::new(3);
        let b = h.push_call(1, int("Enqueue", 20));
        h.push_return(b, Value::Unit);
        let a = h.push_call(0, int("Enqueue", 10));
        h.push_return(a, Value::Unit);
        let f = h.push_call(2, inv("TryDequeue"));
        h.push_return(f, Value::Opt(Some(Box::new(Value::Int(20)))));
        let canon = g.canonicalize(&h);
        assert_eq!(canon.ops[0].thread, 0);
        assert_eq!(canon.ops[0].invocation, int("Enqueue", 10));
        assert_eq!(canon.ops[1].thread, 1);
        assert_eq!(canon.ops[1].invocation, int("Enqueue", 20));
        assert_eq!(
            canon.ops[2].response,
            Some(Value::Opt(Some(Box::new(Value::Int(10))))),
            "payloads rename inside container responses"
        );
        assert_eq!(g.key(&h, &mut KeyWriter::new()), HistoryKey::of(&canon));
        // The canonical form equals the renamed execution's own history.
        let mut mirror = History::new(3);
        let a = mirror.push_call(0, int("Enqueue", 10));
        mirror.push_return(a, Value::Unit);
        let b = mirror.push_call(1, int("Enqueue", 20));
        mirror.push_return(b, Value::Unit);
        let f = mirror.push_call(2, inv("TryDequeue"));
        mirror.push_return(f, Value::Opt(Some(Box::new(Value::Int(10)))));
        assert_eq!(canon, mirror);
    }

    #[test]
    fn canonicalize_keeps_stuck_and_pending() {
        let m = TestMatrix::from_columns(vec![vec![inv("Wait")], vec![inv("Wait")]]);
        let g = m.symmetry_groups(SymmetryPolicy::ThreadsOnly);
        let mut h = History::new(3);
        h.push_call(1, inv("Wait"));
        h.stuck = true;
        let canon = g.canonicalize(&h);
        assert!(canon.stuck);
        assert_eq!(
            canon.ops[0].thread, 0,
            "the only appearing member is renamed down"
        );
        assert!(!canon.ops[0].is_complete());
        assert_eq!(g.key(&h, &mut KeyWriter::new()), HistoryKey::of(&canon));
        assert_ne!(HistoryKey::of(&canon), HistoryKey::of(&h));
    }

    #[test]
    fn display_is_tabular() {
        let m = TestMatrix::from_rows(vec![vec![
            Invocation::with_int("Add", 200),
            Invocation::new("TryTake"),
        ]]);
        let s = m.to_string();
        assert!(s.contains("Add(200)"));
        assert!(s.contains(" | "));
        assert!(s.contains("TryTake()"));
    }
}
