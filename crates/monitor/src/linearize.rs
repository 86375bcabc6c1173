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
//! The search is `lineup`'s [`search`], the engine phase 2's witness
//! lookup also runs: per-thread cursors, return floors and an explicit
//! stack. The monitor adds **memoized configurations** (Lowe's extension
//! of Wing–Gong): a configuration is the set of linearized operations —
//! the cursors — *plus the oracle state*, and configurations that failed
//! once are never re-explored. The oracle state is part of the key because
//! the oracle is a black box — two linearizations of the same set may
//! reach different states — so the memo is exactly as coarse as state
//! equality.

use std::collections::HashSet;
use std::sync::Mutex;

use lineup::witness::{search, WitnessQuery};
use lineup::{AdtKind, FallbackReason, History, Invocation, MonitorPathStats, OpIndex, Value};

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
        let q = match pending {
            None => WitnessQuery::for_full_relaxed(h, async_methods),
            Some(e) => WitnessQuery::for_stuck_relaxed(h, e, async_methods),
        };
        let mut steps = 0;
        let step = |state: &O::State, thread, invocation: &Invocation, response: Option<&Value>| {
            steps += 1;
            match (self.oracle.step(state, thread, invocation), response) {
                (StepResult::Returns(v, next), Some(r)) if v == *r => Some(next),
                (StepResult::Blocks, None) => Some(state.clone()),
                // A mismatched response, blocking or a panic: the
                // operation cannot linearize here.
                _ => None,
            }
        };
        let memo = Some(&mut HashSet::new());
        let (end, memo_hits) = search(&q, self.oracle.initial(), memo, step, |_| true);
        let mut stats = self.stats.lock().unwrap();
        stats.oracle_steps = stats.oracle_steps.saturating_add(steps);
        stats.memo_hits = stats.memo_hits.saturating_add(memo_hits);
        end.is_some()
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
        let set = observed(&target, &matrix);
        let m = Monitor::new(set.index());
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
