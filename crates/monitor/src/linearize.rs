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
//! what the online monitoring service (`lineup-server`) needs.
//!
//! **Memoized configurations** (Lowe's extension of Wing–Gong) keep the
//! search tractable: a search configuration is the set of linearized
//! operations *plus the oracle state*; configurations that failed once are
//! never re-explored. The oracle state is part of the key because the
//! oracle is a black box — two linearizations of the same set may reach
//! different states — so the memo is exactly as coarse as state equality.
//!
//! **Cursors and floors.** Program order makes each thread's linearized
//! operations a prefix of its call-ordered list, so a per-thread cursor
//! vector names the linearized set and the memo key is `(cursors, oracle
//! state)`. Thread `t`'s next operation `o` may linearize iff no other
//! thread `u` still has a non-async operation that returned before `o`'s
//! call: with `floor[u][k]` the earliest return among `u`'s non-async
//! operations from position `k` on, iff `floor[u][cursor[u]] > call(o)`
//! for every `u ≠ t` — O(threads) per candidate after an O(n) set-up. The
//! depth-first search keeps an explicit stack of (oracle state, next
//! thread to try) frames, so a long history cannot overflow the thread's
//! stack.

use std::collections::HashSet;
use std::sync::Mutex;

use lineup::{AdtKind, FallbackReason, History, Invocation, MonitorPathStats, OpIndex};

use crate::oracle::{SeqOracle, StepResult};
use crate::specialized::{check_specialized, SpecialVerdict};

/// Counters accumulated across all checks of one [`Monitor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Histories checked (full + stuck).
    pub checks: u64,
    /// Oracle steps performed (the unit of monitoring work).
    pub oracle_steps: u64,
    /// Search configurations pruned by the memo table.
    pub memo_hits: u64,
    /// Which path each check took: the specialized log-linear checker
    /// (for monitors annotated with an [`AdtKind`]) or the general
    /// Wing–Gong search, with a histogram of fallback reasons.
    pub paths: MonitorPathStats,
}

/// A linearizability monitor over an executable sequential oracle.
///
/// The monitor is [`Send`]`+`[`Sync`] and keeps no per-check state besides
/// its statistics, so one instance can serve a whole stream of checks.
pub struct Monitor<O: SeqOracle> {
    oracle: O,
    adt: Option<AdtKind>,
    adt_init: Vec<Invocation>,
    stats: Mutex<MonitorStats>,
}

impl<O: SeqOracle> std::fmt::Debug for Monitor<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("adt", &self.adt)
            .finish_non_exhaustive()
    }
}

impl<O: SeqOracle> Monitor<O> {
    /// Creates a monitor over the given oracle.
    pub fn new(oracle: O) -> Self {
        Monitor {
            oracle,
            adt: None,
            adt_init: Vec::new(),
            stats: Mutex::new(MonitorStats::default()),
        }
    }

    /// Annotates the target as implementing `kind`, builder style: checks
    /// route through the specialized log-linear checker first and fall
    /// back to the general search when the history is ambiguous (see
    /// the `specialized` module). The annotation claims that the target,
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
        self.check(h, None, async_methods)
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
        self.check(h, Some(pending), async_methods)
    }

    /// One check: the specialized path when it decides the history, else
    /// the general search.
    fn check(&self, h: &History, pending: Option<OpIndex>, async_methods: &[String]) -> bool {
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
        self.search(h, pending, async_methods)
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

    /// The memoized Wing–Gong search: whether some linearization of `h`'s
    /// complete operations (in its relaxed precedence order) replays
    /// against the oracle, which then blocks on `pending` (if given).
    fn search(&self, h: &History, pending: Option<OpIndex>, async_methods: &[String]) -> bool {
        // Per-thread complete ops in call order: a witness preserves
        // program order unconditionally (H|t = S|t) — the async
        // relaxation only drops *cross-thread* constraints.
        let mut threads: Vec<Vec<OpIndex>> = vec![Vec::new(); h.thread_count];
        for op in h.complete_ops() {
            threads[h.ops[op].thread].push(op);
        }
        // floor[u][k]: the earliest return among thread u's non-async ops
        // at program position >= k (usize::MAX past the last one).
        let floor: Vec<Vec<usize>> = threads
            .iter()
            .map(|seq| {
                let mut f = vec![usize::MAX; seq.len() + 1];
                for (k, &op) in seq.iter().enumerate().rev() {
                    let ret = if async_methods.contains(&h.ops[op].invocation.name) {
                        usize::MAX
                    } else {
                        h.ops[op].return_pos.expect("complete op")
                    };
                    f[k] = f[k + 1].min(ret);
                }
                f
            })
            .collect();
        // The stuck serial witness ends at the blocked call: the oracle
        // must block on `pending` after everything else.
        let ends_witness = |state: &O::State| match pending {
            None => true,
            Some(e) => matches!(
                self.oracle
                    .step(state, h.ops[e].thread, &h.ops[e].invocation),
                StepResult::Blocks
            ),
        };
        let n: usize = threads.iter().map(Vec::len).sum();
        let (mut oracle_steps, mut memo_hits) = (0u64, 0u64);
        // Failed configurations: (per-thread cursors, oracle state).
        let mut memo: HashSet<(Vec<u32>, O::State)> = HashSet::new();
        let mut cursor = vec![0u32; threads.len()];
        // Frames: a configuration's state and the next thread to try.
        let mut stack = vec![(self.oracle.initial(), 0usize)];
        let found = 'search: {
            if n == 0 {
                oracle_steps += u64::from(pending.is_some());
                break 'search ends_witness(&stack[0].0);
            }
            while let Some((state, next)) = stack.last_mut() {
                let mut child = None;
                while child.is_none() && *next < threads.len() {
                    let t = *next;
                    *next += 1;
                    let Some(&op) = threads[t].get(cursor[t] as usize) else {
                        continue;
                    };
                    let o = &h.ops[op];
                    // The floor rule: no other thread has an unlinearized
                    // non-async op that returned before o's call.
                    if (0..threads.len())
                        .any(|u| u != t && floor[u][cursor[u] as usize] < o.call_pos)
                    {
                        continue;
                    }
                    oracle_steps += 1;
                    match self.oracle.step(state, t, &o.invocation) {
                        StepResult::Returns(v, s) if Some(&v) == o.response.as_ref() => {
                            child = Some((t, s));
                        }
                        // Mismatched response, blocking, or a panic: o
                        // cannot linearize here.
                        _ => {}
                    }
                }
                let Some((t, state)) = child else {
                    // Every candidate failed: backtrack into the parent.
                    stack.pop();
                    if let Some(&(_, parent_next)) = stack.last() {
                        cursor[parent_next - 1] -= 1;
                    }
                    continue;
                };
                // The child has one op more than the top frame's
                // `stack.len() - 1`.
                cursor[t] += 1;
                if stack.len() == n {
                    oracle_steps += u64::from(pending.is_some());
                    if ends_witness(&state) {
                        break 'search true;
                    }
                } else if memo.insert((cursor.clone(), state.clone())) {
                    stack.push((state, 0));
                    continue;
                } else {
                    memo_hits += 1;
                }
                cursor[t] -= 1;
            }
            false
        };
        let mut stats = self.stats.lock().unwrap();
        stats.oracle_steps = stats.oracle_steps.saturating_add(oracle_steps);
        stats.memo_hits = stats.memo_hits.saturating_add(memo_hits);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests::observed;
    use crate::oracle::FnOracle;
    use lineup::Value;

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
        // The observation oracle's state is the set of serial
        // continuations, so the three inc orders reach one state and the
        // exhaustive rejection below must register hits.
        use lineup::doc_support::CounterTarget;
        let matrix = lineup::TestMatrix::from_columns(vec![
            vec![inv("inc"), inv("get")],
            vec![inv("inc")],
            vec![inv("inc")],
        ]);
        let m = Monitor::new(observed(&CounterTarget, &matrix));
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
        // Soundness guard for the memo key: concurrent Enqueue(10) and
        // Enqueue(20) followed by dequeues observing 20 first. Only the
        // enq(20)-before-enq(10) linearization matches, and the search
        // tries the failing enq(10)-first order before it — a key that
        // collapsed the two enqueue orders would memo the failure and
        // wrongly reject the history.
        use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
        use lineup_collections::registry::Variant;
        let matrix = lineup::TestMatrix::from_columns(vec![
            vec![
                Invocation::with_int("Enqueue", 10),
                inv("TryDequeue"),
                inv("TryDequeue"),
            ],
            vec![Invocation::with_int("Enqueue", 20)],
        ]);
        let target = ConcurrentQueueTarget {
            variant: Variant::Fixed,
        };
        let m = Monitor::new(observed(&target, &matrix));
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
