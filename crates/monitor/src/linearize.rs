//! The linearizability monitor: a memoized Wing–Gong search over the
//! linearizations of a recorded history, stepping a [`SeqOracle`] on
//! demand.
//!
//! Where Line-Up's phase 2 looks a history's witness *up* in the
//! pre-enumerated observation set, the monitor *decides* the same
//! question directly: does some total order of the history's operations —
//! consistent with per-thread program order and with the precedence order
//! `<H` (relaxed for asynchronous methods) — replay against the sequential
//! oracle with exactly the recorded responses? This works for arbitrary
//! recorded histories, not only those of a pre-enumerated test, which is
//! what the native stress runner (see [`crate::stress`]) needs.
//!
//! Two classic optimizations keep the search tractable:
//!
//! * **Memoized configurations** (Lowe's extension of Wing–Gong): a search
//!   configuration is the set of linearized operations *plus the oracle
//!   state*; configurations that failed once are never re-explored. The
//!   oracle state is part of the key because the oracle is a black box —
//!   two linearizations of the same set may reach different states. An
//!   oracle whose state equality *over*-distinguishes (a
//!   [`ReplayOracle`](crate::ReplayOracle)'s state is the whole trace, so
//!   no two orders ever compare equal) supplies a coarser
//!   [`SeqOracle::canonical_key`] and the memo keys on that instead.
//! * **P-compositionality** (Horn & Kroening): when a partition function
//!   maps every operation to an independent sub-object (e.g. a dictionary
//!   key), each partition is checked on its own — the monitor then runs
//!   once per partition on a far smaller history. Any operation the
//!   function cannot place (returns `None`) disables partitioning for
//!   that history, which is always sound.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use lineup::{
    AdtKind, FallbackReason, History, HistoryMonitor, Invocation, MonitorPathStats, OpIndex,
    Outcome, SerialHistory, SpecOp, Value,
};

use crate::oracle::{SeqOracle, StepResult, TracedOp};
use crate::specialized::{check_specialized, SpecialVerdict};

/// Maps an invocation to the independent sub-object it operates on —
/// `None` when the operation spans sub-objects (disables partitioning for
/// histories containing it). See P-compositionality in the module docs.
pub type PartitionFn = Arc<dyn Fn(&Invocation) -> Option<Value> + Send + Sync>;

/// Counters accumulated across all checks of one [`Monitor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Histories checked (full + stuck).
    pub checks: u64,
    /// Oracle steps performed (the unit of monitoring work).
    pub oracle_steps: u64,
    /// Search configurations pruned by the memo table.
    pub memo_hits: u64,
    /// Checks that ran partitioned (P-compositionality applied).
    pub partitioned_checks: u64,
    /// Which path each check took: the specialized log-linear checker
    /// (for monitors annotated with an [`AdtKind`]) or the general
    /// Wing–Gong search, with a histogram of fallback reasons.
    pub paths: MonitorPathStats,
}

impl MonitorStats {
    /// Counters accumulated since an earlier snapshot (saturating).
    pub fn diff_since(&self, earlier: &MonitorStats) -> MonitorStats {
        MonitorStats {
            checks: self.checks.saturating_sub(earlier.checks),
            oracle_steps: self.oracle_steps.saturating_sub(earlier.oracle_steps),
            memo_hits: self.memo_hits.saturating_sub(earlier.memo_hits),
            partitioned_checks: self
                .partitioned_checks
                .saturating_sub(earlier.partitioned_checks),
            paths: self.paths.diff_since(&earlier.paths),
        }
    }
}

/// A linearizability monitor over an executable sequential oracle.
///
/// The monitor is [`Send`]`+`[`Sync`] and keeps no per-check state besides
/// its statistics, so one instance can serve a whole stress campaign (and
/// a [`ReplayOracle`](crate::ReplayOracle) inside it shares its memoized
/// replays across checks).
pub struct Monitor<O: SeqOracle> {
    oracle: O,
    partition: Option<PartitionFn>,
    adt: Option<AdtKind>,
    adt_init: Vec<Invocation>,
    stats: Mutex<MonitorStats>,
}

impl<O: SeqOracle> std::fmt::Debug for Monitor<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("partitioned", &self.partition.is_some())
            .finish()
    }
}

impl<O: SeqOracle> Monitor<O> {
    /// Creates a monitor over the given oracle.
    pub fn new(oracle: O) -> Self {
        Monitor {
            oracle,
            partition: None,
            adt: None,
            adt_init: Vec::new(),
            stats: Mutex::new(MonitorStats::default()),
        }
    }

    /// Annotates the target as implementing `kind`, builder style: checks
    /// route through the specialized log-linear checker first and fall
    /// back to the general search when the history is ambiguous (see
    /// [`crate::specialized`]). The annotation claims that the target,
    /// executed *serially*, behaves as the ideal ADT; with that claim the
    /// fast path agrees with the oracle search on every verdict.
    pub fn with_adt_kind(mut self, kind: AdtKind) -> Self {
        self.adt = Some(kind);
        self
    }

    /// Supplies the test's init sequence (operations executed before the
    /// recorded history begins), builder style. The specialized checkers
    /// prepend them as already-completed insertions; required whenever
    /// the oracle's start state is non-empty.
    pub fn with_adt_init(mut self, init: Vec<Invocation>) -> Self {
        self.adt_init = init;
        self
    }

    /// Enables P-compositional checking with the given partition function,
    /// builder style. Only sound when operations mapped to different keys
    /// are independent in the sequential specification (dictionary entries
    /// under distinct keys, registers of an array, …).
    pub fn with_partition(mut self, partition: PartitionFn) -> Self {
        self.partition = Some(partition);
        self
    }

    /// The oracle this monitor steps.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// A snapshot of the accumulated statistics.
    pub fn stats(&self) -> MonitorStats {
        self.stats.lock().unwrap().clone()
    }

    /// The [`AdtKind`] annotation set via [`with_adt_kind`](Self::with_adt_kind),
    /// if any.
    pub fn adt_kind(&self) -> Option<AdtKind> {
        self.adt
    }

    /// Whether the *complete* history is linearizable with respect to the
    /// oracle (Definition 1 with the executable spec).
    ///
    /// # Panics
    ///
    /// Panics if the history has pending operations (use
    /// [`check_stuck`](Monitor::check_stuck)).
    pub fn check_full(&self, h: &History, async_methods: &[String]) -> bool {
        assert!(
            h.is_complete(),
            "use check_stuck on histories with pending operations"
        );
        let complete = h.complete_ops();
        self.check_groups(h, &complete, None, async_methods)
    }

    /// Whether `H[e]` — the complete operations plus the pending operation
    /// `e` — has a *stuck* linearization: the complete operations
    /// linearize with matching responses and the oracle then blocks on
    /// `e`'s invocation (Definition 2). Other pending operations are
    /// ignored, exactly as in `WitnessQuery::for_stuck`.
    ///
    /// # Panics
    ///
    /// Panics if `pending` is in fact complete.
    pub fn check_stuck(&self, h: &History, pending: OpIndex, async_methods: &[String]) -> bool {
        assert!(
            !h.ops[pending].is_complete(),
            "check_stuck requires a pending operation"
        );
        let complete = h.complete_ops();
        self.check_groups(h, &complete, Some(pending), async_methods)
    }

    /// Finds a linearization of a complete history: the serial witness the
    /// monitor's acceptance is based on, as a [`SerialHistory`] (the same
    /// form phase 1 records, so it can join an
    /// [`ObservationSet`](lineup::ObservationSet) and be serialized with
    /// [`lineup::write_observation_file`]). Partitioning is *not* used:
    /// the witness must order the whole history.
    ///
    /// # Panics
    ///
    /// Panics if the history has pending operations.
    pub fn find_linearization(
        &self,
        h: &History,
        async_methods: &[String],
    ) -> Option<SerialHistory> {
        assert!(
            h.is_complete(),
            "find_linearization requires a complete history"
        );
        let complete = h.complete_ops();
        let order = self.search(h, &complete, None, async_methods)?;
        Some(serialize_order(h, &order, None))
    }

    /// Like [`find_linearization`](Monitor::find_linearization) for a
    /// stuck history: the returned serial history ends with `e` pending.
    ///
    /// # Panics
    ///
    /// Panics if `pending` is in fact complete.
    pub fn find_stuck_linearization(
        &self,
        h: &History,
        pending: OpIndex,
        async_methods: &[String],
    ) -> Option<SerialHistory> {
        assert!(
            !h.ops[pending].is_complete(),
            "find_stuck_linearization requires a pending operation"
        );
        let complete = h.complete_ops();
        let order = self.search(h, &complete, Some(pending), async_methods)?;
        Some(serialize_order(h, &order, Some(pending)))
    }

    /// Splits the target operations into P-compositional groups and checks
    /// each; falls back to one group when partitioning is off or
    /// inapplicable.
    fn check_groups(
        &self,
        h: &History,
        complete: &[OpIndex],
        pending: Option<OpIndex>,
        async_methods: &[String],
    ) -> bool {
        {
            let mut stats = self.stats.lock().unwrap();
            stats.checks = stats.checks.saturating_add(1);
        }
        match self.try_specialized(h, pending, async_methods) {
            Ok(verdict) => {
                self.stats.lock().unwrap().paths.record_specialized();
                return verdict;
            }
            Err(reason) => self.stats.lock().unwrap().paths.record_fallback(reason),
        }
        if let Some(groups) = self.partition_groups(h, complete, pending) {
            {
                let mut stats = self.stats.lock().unwrap();
                stats.partitioned_checks = stats.partitioned_checks.saturating_add(1);
            }
            return groups
                .into_iter()
                .all(|(ops, e)| self.search(h, &ops, e, async_methods).is_some());
        }
        self.search(h, complete, pending, async_methods).is_some()
    }

    /// Attempts the specialized log-linear path: `Ok(verdict)` when the
    /// ADT-kind checker decided the history, `Err(reason)` when the check
    /// must fall back to the general search. The specialized algorithms
    /// handle neither stuck linearizations nor the asynchronous
    /// relaxation, so those route straight to the fallback.
    fn try_specialized(
        &self,
        h: &History,
        pending: Option<OpIndex>,
        async_methods: &[String],
    ) -> Result<bool, FallbackReason> {
        let kind = self.adt.ok_or(FallbackReason::Unregistered)?;
        if pending.is_some() {
            return Err(FallbackReason::PendingOps);
        }
        if !async_methods.is_empty() {
            return Err(FallbackReason::AsyncRelaxation);
        }
        match check_specialized(kind, &self.adt_init, h) {
            SpecialVerdict::Linearizable => Ok(true),
            SpecialVerdict::NotLinearizable => Ok(false),
            SpecialVerdict::Fallback(reason) => Err(reason),
        }
    }

    /// Groups target operations by partition key. `None` when partitioning
    /// is disabled or some operation has no key (sound fallback).
    /// Singleton grouping (everything one key) is returned as-is — the
    /// search cost is the same either way.
    fn partition_groups(
        &self,
        h: &History,
        complete: &[OpIndex],
        pending: Option<OpIndex>,
    ) -> Option<Vec<(Vec<OpIndex>, Option<OpIndex>)>> {
        let partition = self.partition.as_ref()?;
        let mut groups: BTreeMap<Value, (Vec<OpIndex>, Option<OpIndex>)> = BTreeMap::new();
        for &i in complete {
            let key = partition(&h.ops[i].invocation)?;
            groups.entry(key).or_default().0.push(i);
        }
        if let Some(e) = pending {
            let key = partition(&h.ops[e].invocation)?;
            groups.entry(key).or_default().1 = Some(e);
        }
        Some(groups.into_values().collect())
    }

    /// The memoized Wing–Gong search: finds a linearization of `complete`
    /// (in `h`'s relaxed precedence order) after which the oracle blocks
    /// on `pending` (if given). Returns the linearization order of the
    /// complete operations.
    fn search(
        &self,
        h: &History,
        complete: &[OpIndex],
        pending: Option<OpIndex>,
        async_methods: &[String],
    ) -> Option<Vec<OpIndex>> {
        // Target ops in call order; per-thread subsequences give program
        // order, which a witness must preserve unconditionally (H|t = S|t)
        // — the async relaxation only drops *cross-thread* constraints.
        let mut ops: Vec<OpIndex> = complete.to_vec();
        ops.sort_by_key(|&i| h.ops[i].call_pos);
        let n = ops.len();
        let mut thread_seq: Vec<Vec<usize>> = vec![Vec::new(); h.thread_count];
        for (pos, &i) in ops.iter().enumerate() {
            thread_seq[h.ops[i].thread].push(pos);
        }
        // Cross-thread precedence blockers, relaxed for async methods.
        let blockers: Vec<Vec<usize>> = ops
            .iter()
            .map(|&o| {
                ops.iter()
                    .enumerate()
                    .filter(|&(_, &p)| {
                        p != o
                            && h.precedes(p, o)
                            && h.ops[p].thread != h.ops[o].thread
                            && !async_methods.contains(&h.ops[p].invocation.name)
                    })
                    .map(|(q, _)| q)
                    .collect()
            })
            .collect();

        // The operations this search may step, in thread-major program
        // order (so searches over different interleavings of one matrix
        // share the oracle's per-universe canonicalization work). The
        // pending operation is part of the universe: a canonical key must
        // also predict whether it blocks at the end.
        let mut universe: Vec<TracedOp> = ops
            .iter()
            .map(|&i| (h.ops[i].thread, h.ops[i].invocation.clone()))
            .chain(pending.map(|e| (h.ops[e].thread, h.ops[e].invocation.clone())))
            .collect();
        universe.sort_by_key(|(t, _)| *t);

        let mut search = Search {
            h,
            oracle: &self.oracle,
            ops: &ops,
            pending,
            thread_seq: &thread_seq,
            blockers: &blockers,
            universe: &universe,
            memo: HashSet::new(),
            oracle_steps: 0,
            memo_hits: 0,
        };
        let mut mask = Bits::new(n);
        let mut chosen = Vec::with_capacity(n);
        let state = self.oracle.initial();
        let found = search.dfs(&mut mask, &state, &mut chosen);
        {
            let mut stats = self.stats.lock().unwrap();
            stats.oracle_steps = stats.oracle_steps.saturating_add(search.oracle_steps);
            stats.memo_hits = stats.memo_hits.saturating_add(search.memo_hits);
        }
        found.then_some(chosen)
    }
}

/// Builds the serial history of a found linearization.
fn serialize_order(h: &History, order: &[OpIndex], pending: Option<OpIndex>) -> SerialHistory {
    let mut ops: Vec<SpecOp> = order
        .iter()
        .map(|&i| SpecOp {
            thread: h.ops[i].thread,
            invocation: h.ops[i].invocation.clone(),
            outcome: Outcome::Returned(
                h.ops[i]
                    .response
                    .clone()
                    .expect("linearized op is complete"),
            ),
        })
        .collect();
    if let Some(e) = pending {
        ops.push(SpecOp {
            thread: h.ops[e].thread,
            invocation: h.ops[e].invocation.clone(),
            outcome: Outcome::Pending,
        });
    }
    SerialHistory {
        thread_count: h.thread_count,
        ops,
    }
}

/// The state component of a memo-table entry: the canonical key the
/// oracle derived for the state, or the state itself when the oracle
/// declined ([`SeqOracle::canonical_key`] returned `None`).
#[derive(Clone, PartialEq, Eq, Hash)]
enum MemoKey<S> {
    State(S),
    Canon(Vec<u32>),
}

/// One in-flight search (borrowed context plus the memo table).
struct Search<'a, O: SeqOracle> {
    h: &'a History,
    oracle: &'a O,
    ops: &'a [OpIndex],
    pending: Option<OpIndex>,
    thread_seq: &'a [Vec<usize>],
    blockers: &'a [Vec<usize>],
    /// Every operation the search may step, in thread-major program order
    /// (the `universe` of [`SeqOracle::canonical_key`]).
    universe: &'a [TracedOp],
    /// Failed configurations: (linearized set, oracle state key).
    memo: HashSet<(Bits, MemoKey<O::State>)>,
    oracle_steps: u64,
    memo_hits: u64,
}

impl<O: SeqOracle> Search<'_, O> {
    fn dfs(&mut self, mask: &mut Bits, state: &O::State, chosen: &mut Vec<OpIndex>) -> bool {
        if chosen.len() == self.ops.len() {
            return match self.pending {
                None => true,
                Some(e) => {
                    // The stuck serial witness ends at the blocked call:
                    // the oracle must block on e after everything else.
                    self.oracle_steps += 1;
                    matches!(
                        self.oracle
                            .step_on(state, self.h.ops[e].thread, &self.h.ops[e].invocation),
                        StepResult::Blocks
                    )
                }
            };
        }
        let key = match self.oracle.canonical_key(state, self.universe) {
            Some(canon) => MemoKey::Canon(canon),
            None => MemoKey::State(state.clone()),
        };
        if !self.memo.insert((mask.clone(), key)) {
            self.memo_hits += 1;
            return false;
        }
        // Candidates: the next-in-program-order op of each thread whose
        // cross-thread blockers have all linearized.
        for seq in self.thread_seq {
            let Some(&pos) = seq.iter().find(|&&p| !mask.get(p)) else {
                continue;
            };
            if self.blockers[pos].iter().any(|&q| !mask.get(q)) {
                continue;
            }
            let op = self.ops[pos];
            self.oracle_steps += 1;
            match self
                .oracle
                .step_on(state, self.h.ops[op].thread, &self.h.ops[op].invocation)
            {
                StepResult::Returns(v, next) if Some(&v) == self.h.ops[op].response.as_ref() => {
                    mask.set(pos);
                    chosen.push(op);
                    if self.dfs(mask, &next, chosen) {
                        return true;
                    }
                    chosen.pop();
                    mask.clear(pos);
                }
                // Mismatched response, blocking, or a panic: this op
                // cannot linearize here.
                _ => {}
            }
        }
        false
    }
}

/// A fixed-size bit set (the linearized-operations component of a memo
/// key).
#[derive(Clone, PartialEq, Eq, Hash)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
}

impl<O: SeqOracle> HistoryMonitor for Monitor<O> {
    fn check_full(&self, history: &History, async_methods: &[String]) -> bool {
        Monitor::check_full(self, history, async_methods)
    }

    fn check_stuck(&self, history: &History, pending: OpIndex, async_methods: &[String]) -> bool {
        Monitor::check_stuck(self, history, pending, async_methods)
    }

    fn path_stats(&self) -> Option<MonitorPathStats> {
        Some(self.stats().paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FnOracle;

    /// A counter oracle: inc/get over an i64.
    fn counter() -> Monitor<FnOracle<i64, impl Fn(&i64, &Invocation) -> StepResult<i64>>> {
        Monitor::new(FnOracle::new(0i64, |s: &i64, inv: &Invocation| {
            match inv.name.as_str() {
                "inc" => StepResult::Returns(Value::Unit, s + 1),
                "get" => StepResult::Returns(Value::Int(*s), *s),
                other => StepResult::Panics(format!("unknown {other}")),
            }
        }))
    }

    fn inv(name: &str) -> Invocation {
        Invocation::new(name)
    }

    #[test]
    fn overlapping_ops_linearize() {
        // (inc A)(get B)(ok A)(ok(0) B): get must linearize before inc.
        let mut h = History::new(2);
        let i = h.push_call(0, inv("inc"));
        let g = h.push_call(1, inv("get"));
        h.push_return(i, Value::Unit);
        h.push_return(g, Value::Int(0));
        assert!(counter().check_full(&h, &[]));
    }

    #[test]
    fn lost_update_is_rejected() {
        // The §2.2.1 example: two completed incs, then get -> 1. Serially
        // impossible — get must return 2.
        let mut h = History::new(2);
        let i1 = h.push_call(0, inv("inc"));
        let i2 = h.push_call(1, inv("inc"));
        h.push_return(i1, Value::Unit);
        h.push_return(i2, Value::Unit);
        let g = h.push_call(0, inv("get"));
        h.push_return(g, Value::Int(1));
        assert!(!counter().check_full(&h, &[]));
    }

    #[test]
    fn precedence_is_respected() {
        // get -> 0 strictly AFTER inc returned: no valid linearization
        // even though get -> 0 would be fine before the inc.
        let mut h = History::new(2);
        let i = h.push_call(0, inv("inc"));
        h.push_return(i, Value::Unit);
        let g = h.push_call(1, inv("get"));
        h.push_return(g, Value::Int(0));
        assert!(!counter().check_full(&h, &[]));
    }

    #[test]
    fn async_methods_relax_cross_thread_precedence() {
        // Same history as above, but inc declared asynchronous: its
        // effect may land after get.
        let mut h = History::new(2);
        let i = h.push_call(0, inv("inc"));
        h.push_return(i, Value::Unit);
        let g = h.push_call(1, inv("get"));
        h.push_return(g, Value::Int(0));
        assert!(counter().check_full(&h, &["inc".to_string()]));
    }

    #[test]
    fn async_does_not_relax_program_order() {
        // Thread A: inc then get -> 0. Program order pins inc before get
        // even when inc is async (H|t = S|t is unconditional).
        let mut h = History::new(1);
        let i = h.push_call(0, inv("inc"));
        h.push_return(i, Value::Unit);
        let g = h.push_call(0, inv("get"));
        h.push_return(g, Value::Int(0));
        assert!(!counter().check_full(&h, &["inc".to_string()]));
    }

    /// An event oracle: Wait blocks until Set; Reset re-arms it.
    fn event() -> Monitor<FnOracle<bool, impl Fn(&bool, &Invocation) -> StepResult<bool>>> {
        Monitor::new(FnOracle::new(
            false,
            |s: &bool, inv: &Invocation| match inv.name.as_str() {
                "Set" => StepResult::Returns(Value::Unit, true),
                "Reset" => StepResult::Returns(Value::Unit, false),
                "Wait" if *s => StepResult::Returns(Value::Unit, *s),
                "Wait" => StepResult::Blocks,
                other => StepResult::Panics(format!("unknown {other}")),
            },
        ))
    }

    #[test]
    fn stuck_wait_after_reset_is_justified() {
        // (Wait A)(Set B)(ok B)(Reset B)(ok B) #: Wait may linearize after
        // Reset, where it blocks.
        let mut h = History::new(2);
        let w = h.push_call(0, inv("Wait"));
        for name in ["Set", "Reset"] {
            let o = h.push_call(1, inv(name));
            h.push_return(o, Value::Unit);
        }
        h.stuck = true;
        assert!(event().check_stuck(&h, w, &[]));
    }

    #[test]
    fn fig9_lost_wakeup_is_detected() {
        // The paper's Fig. 9: Wait stuck although the history ends after
        // Set-Reset-Set — serially Wait cannot block with the event set.
        let mut h = History::new(2);
        let w = h.push_call(0, inv("Wait"));
        for name in ["Set", "Reset", "Set"] {
            let o = h.push_call(1, inv(name));
            h.push_return(o, Value::Unit);
        }
        h.stuck = true;
        assert!(!event().check_stuck(&h, w, &[]));
    }

    #[test]
    fn stuck_check_ignores_other_pending_ops() {
        // A second pending op (thread C) is no obstacle: H[e] drops it.
        let mut h = History::new(3);
        let w = h.push_call(0, inv("Wait"));
        let _other = h.push_call(2, inv("Wait"));
        for name in ["Set", "Reset"] {
            let o = h.push_call(1, inv(name));
            h.push_return(o, Value::Unit);
        }
        h.stuck = true;
        assert!(event().check_stuck(&h, w, &[]));
    }

    #[test]
    fn linearization_is_returned_and_valid() {
        let mut h = History::new(2);
        let i = h.push_call(0, inv("inc"));
        let g = h.push_call(1, inv("get"));
        h.push_return(i, Value::Unit);
        h.push_return(g, Value::Int(1));
        let m = counter();
        let s = m.find_linearization(&h, &[]).expect("linearizable");
        assert_eq!(s.ops.len(), 2);
        // inc must come first for get to see 1.
        assert_eq!(s.ops[0].invocation, inv("inc"));
        assert_eq!(s.ops[1].outcome, Outcome::Returned(Value::Int(1)));
        // The witness is a witness in lineup's own sense.
        let q = lineup::WitnessQuery::for_full(&h);
        assert!(lineup::is_witness(&s, &q));
    }

    #[test]
    fn stuck_linearization_ends_pending() {
        let mut h = History::new(2);
        let w = h.push_call(0, inv("Wait"));
        let o = h.push_call(1, inv("Reset"));
        h.push_return(o, Value::Unit);
        h.stuck = true;
        let m = event();
        let s = m
            .find_stuck_linearization(&h, w, &[])
            .expect("wait blocks after reset");
        assert!(s.is_stuck());
        assert_eq!(s.ops.last().unwrap().invocation, inv("Wait"));
    }

    /// A two-slot register file keyed by the first argument — exercises
    /// P-compositionality.
    type Regs = (i64, i64);
    fn regs() -> Monitor<FnOracle<Regs, impl Fn(&Regs, &Invocation) -> StepResult<Regs>>> {
        let step = |s: &Regs, inv: &Invocation| {
            let key = match inv.args.first() {
                Some(Value::Int(k)) => *k,
                _ => return StepResult::Panics("missing key".into()),
            };
            let (a, b) = *s;
            match inv.name.as_str() {
                "write" => {
                    let v = match inv.args.get(1) {
                        Some(Value::Int(v)) => *v,
                        _ => return StepResult::Panics("missing value".into()),
                    };
                    let next = if key == 0 { (v, b) } else { (a, v) };
                    StepResult::Returns(Value::Unit, next)
                }
                "read" => StepResult::Returns(Value::Int(if key == 0 { a } else { b }), *s),
                other => StepResult::Panics(format!("unknown {other}")),
            }
        };
        Monitor::new(FnOracle::new((0, 0), step))
            .with_partition(Arc::new(|inv: &Invocation| inv.args.first().cloned()))
    }

    fn wr(key: i64, v: i64) -> Invocation {
        Invocation::with_args("write", [Value::Int(key), Value::Int(v)])
    }

    fn rd(key: i64) -> Invocation {
        Invocation::with_int("read", key)
    }

    #[test]
    fn partitioned_check_accepts_independent_keys() {
        // Key 0 and key 1 traffic interleaved; each key alone linearizes.
        let mut h = History::new(2);
        let w0 = h.push_call(0, wr(0, 7));
        let r1 = h.push_call(1, rd(1));
        h.push_return(w0, Value::Unit);
        h.push_return(r1, Value::Int(0));
        let r0 = h.push_call(1, rd(0));
        h.push_return(r0, Value::Int(7));
        let m = regs();
        assert!(m.check_full(&h, &[]));
        assert_eq!(m.stats().partitioned_checks, 1);
    }

    #[test]
    fn partitioned_check_rejects_per_key_violation() {
        // read(0) -> 0 strictly after write(0,7) returned: key 0 alone is
        // not linearizable.
        let mut h = History::new(2);
        let w0 = h.push_call(0, wr(0, 7));
        h.push_return(w0, Value::Unit);
        let r0 = h.push_call(1, rd(0));
        h.push_return(r0, Value::Int(0));
        assert!(!regs().check_full(&h, &[]));
    }

    #[test]
    fn memoization_prunes_repeated_configurations() {
        // Three concurrent incs followed by get -> 3: all 6 inc orders
        // collapse to identical (set, state) configurations, so the memo
        // table must register hits.
        let mut h = History::new(3);
        let ops: Vec<_> = (0..3).map(|t| h.push_call(t, inv("inc"))).collect();
        for o in ops {
            h.push_return(o, Value::Unit);
        }
        let g = h.push_call(0, inv("get"));
        h.push_return(g, Value::Int(3));
        let m = counter();
        assert!(m.check_full(&h, &[]));
        // Force full exploration of an unsatisfiable variant to see hits.
        let mut bad = History::new(3);
        let ops: Vec<_> = (0..3).map(|t| bad.push_call(t, inv("inc"))).collect();
        for o in ops {
            bad.push_return(o, Value::Unit);
        }
        let g = bad.push_call(0, inv("get"));
        bad.push_return(g, Value::Int(99));
        assert!(!m.check_full(&bad, &[]));
        assert!(m.stats().memo_hits > 0, "{:?}", m.stats());
    }

    #[test]
    fn replay_oracle_memo_fires_on_commuting_operations() {
        // Regression: the memo key used the oracle state directly, and a
        // ReplayOracle state is the whole trace — no two linearization
        // orders ever compared equal, so `MonitorStats::memo_hits` stayed
        // 0 for every class. With the canonical suffix-
        // signature key, the three inc orders collapse and the exhaustive
        // rejection below must register hits.
        use crate::oracle::ReplayOracle;
        use lineup::doc_support::CounterTarget;
        let m = Monitor::new(ReplayOracle::new(Arc::new(CounterTarget), Vec::new()));
        let mut h = History::new(3);
        let ops: Vec<_> = (0..3).map(|t| h.push_call(t, inv("inc"))).collect();
        for o in ops {
            h.push_return(o, Value::Unit);
        }
        let g = h.push_call(0, inv("get"));
        h.push_return(g, Value::Int(99));
        assert!(!m.check_full(&h, &[]), "get -> 99 is serially impossible");
        assert!(m.stats().memo_hits > 0, "{:?}", m.stats());
    }

    #[test]
    fn canonical_memo_keeps_order_sensitive_linearizations_apart() {
        // Soundness guard for the canonical key: concurrent Enqueue(10)
        // and Enqueue(20) followed by dequeues observing 20 first. Only
        // the enq(20)-before-enq(10) linearization matches, and the
        // search tries the failing enq(10)-first order before it — a key
        // that collapsed the two enqueue orders would memo the failure
        // and wrongly reject the history.
        use crate::oracle::ReplayOracle;
        use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
        use lineup_collections::registry::Variant;
        let m = Monitor::new(ReplayOracle::new(
            Arc::new(ConcurrentQueueTarget {
                variant: Variant::Fixed,
            }),
            Vec::new(),
        ));
        let mut h = History::new(2);
        let e10 = h.push_call(0, Invocation::with_int("Enqueue", 10));
        let e20 = h.push_call(1, Invocation::with_int("Enqueue", 20));
        h.push_return(e10, Value::Unit);
        h.push_return(e20, Value::Unit);
        let d1 = h.push_call(0, inv("TryDequeue"));
        h.push_return(d1, Value::some(Value::Int(20)));
        let d2 = h.push_call(0, inv("TryDequeue"));
        h.push_return(d2, Value::some(Value::Int(10)));
        assert!(m.check_full(&h, &[]), "20-first is a valid linearization");
    }

    #[test]
    #[should_panic(expected = "use check_stuck")]
    fn check_full_rejects_pending() {
        let mut h = History::new(1);
        h.push_call(0, inv("inc"));
        h.stuck = true;
        counter().check_full(&h, &[]);
    }

    #[test]
    #[should_panic(expected = "requires a pending operation")]
    fn check_stuck_rejects_complete() {
        let mut h = History::new(1);
        let i = h.push_call(0, inv("inc"));
        h.push_return(i, Value::Unit);
        counter().check_stuck(&h, i, &[]);
    }
}
