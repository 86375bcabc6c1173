//! Executable sequential oracles: the specification side of the monitor.
//!
//! A monitor steps a specification on demand — an abstract state machine
//! whose transitions are invocations. For Line-Up's automatic setting that
//! specification is the observation set: its prefix automaton
//! ([`SpecIndex`]) is an oracle whose state is a node, so the monitor needs
//! no manual specification either. [`FnOracle`] wraps a hand-written one.

use std::hash::Hash;

use lineup::spec::{SpecIndex, SpecNode};
use lineup::{Invocation, Outcome, Value};

/// The result of stepping an oracle with one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult<S> {
    /// The operation returns this value, moving the oracle to a new state.
    Returns(Value, S),
    /// The operation blocks in this state (the serial execution is stuck —
    /// the `#` of the paper's stuck histories).
    Blocks,
    /// The operation panics — never a valid specification step.
    Panics(String),
}

/// An executable deterministic sequential specification.
///
/// States are compared and hashed for memoization: the monitor's search
/// keys failed configurations on `(per-thread cursors, state)`, so two
/// branches reaching equal states share their continuations. Determinism
/// is a *precondition*: for a given state, thread and invocation, `step`
/// must always produce the same result (Line-Up's phase-1 determinism
/// check establishes exactly this before any monitor runs).
pub trait SeqOracle: Send + Sync {
    /// The abstract state type.
    type State: Clone + Eq + Hash;

    /// The state of a freshly created component (after any init sequence).
    fn initial(&self) -> Self::State;

    /// Performs `invocation` on behalf of test thread `thread`. Most
    /// specifications ignore the thread; components whose serial behavior
    /// depends on it (`ConcurrentBag`'s per-thread pools) need it, and
    /// phase 1 preserves the matrix's thread placement the same way.
    fn step(
        &self,
        state: &Self::State,
        thread: usize,
        invocation: &Invocation,
    ) -> StepResult<Self::State>;
}

/// A thread-agnostic [`SeqOracle`] defined by an initial state and a step
/// closure — handy for hand-written specifications and tests.
pub struct FnOracle<S, F> {
    initial: S,
    step: F,
}

impl<S, F> FnOracle<S, F>
where
    S: Clone + Eq + Hash + Send + Sync,
    F: Fn(&S, &Invocation) -> StepResult<S> + Send + Sync,
{
    /// Creates the oracle from an initial state and a transition function.
    pub fn new(initial: S, step: F) -> Self {
        FnOracle { initial, step }
    }
}

impl<S, F> std::fmt::Debug for FnOracle<S, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnOracle(..)")
    }
}

impl<S, F> SeqOracle for FnOracle<S, F>
where
    S: Clone + Eq + Hash + Send + Sync,
    F: Fn(&S, &Invocation) -> StepResult<S> + Send + Sync,
{
    type State = S;

    fn initial(&self) -> S {
        self.initial.clone()
    }

    fn step(&self, state: &S, _thread: usize, invocation: &Invocation) -> StepResult<S> {
        (self.step)(state, invocation)
    }
}

/// The automatic oracle: the prefix automaton of the specification phase 1
/// synthesized. A state is a node, the serial prefix performed so far;
/// stepping follows the edge of the performed `(thread, invocation)`, whose
/// outcome says whether the operation returns a value or blocks, and no
/// such edge means the operation is outside the test matrix. The oracle
/// starts at [`SpecIndex::first_root`].
///
/// The preconditions are those of witness search against the set: phase 1
/// finished without a panic, and
/// [`check_determinism`](lineup::ObservationSet::check_determinism) is
/// `None`, so one `(thread, invocation)` has one edge.
impl SeqOracle for SpecIndex<'_> {
    type State = SpecNode;

    fn initial(&self) -> SpecNode {
        self.first_root()
    }

    fn step(
        &self,
        &node: &SpecNode,
        thread: usize,
        invocation: &Invocation,
    ) -> StepResult<SpecNode> {
        let mut edges = self.edges(node);
        let edge = edges.find(|(op, _)| op.thread == thread && op.invocation == *invocation);
        let Some((op, child)) = edge else {
            return StepResult::Panics("operation outside the test matrix".into());
        };
        match &op.outcome {
            Outcome::Pending => StepResult::Blocks,
            Outcome::Returned(v) => StepResult::Returns(v.clone(), child),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lineup::doc_support::CounterTarget;
    use lineup::{synthesize_spec, ObservationSet, TestMatrix, TestTarget};

    /// The specification phase 1 of `matrix` synthesizes on `target`.
    pub(crate) fn observed<T: TestTarget>(target: &T, matrix: &TestMatrix) -> ObservationSet {
        let (set, _, panic) = synthesize_spec(target, matrix);
        assert!(panic.is_none() && set.check_determinism().is_none());
        set
    }

    fn inv(name: &str) -> Invocation {
        Invocation::new(name)
    }

    /// Steps `o` along `trace`, expecting every step to return.
    fn run(o: &SpecIndex<'_>, trace: &[(usize, Invocation)]) -> (Vec<Value>, SpecNode) {
        let mut state = o.initial();
        let mut values = Vec::new();
        for (t, i) in trace {
            let StepResult::Returns(v, next) = o.step(&state, *t, i) else {
                panic!("{i} on thread {t} returns");
            };
            values.push(v);
            state = next;
        }
        (values, state)
    }

    #[test]
    fn replay_oracle_steps_the_counter() {
        let set = observed(
            &CounterTarget,
            &TestMatrix::from_columns(vec![vec![inv("inc"), inv("get")], vec![inv("get")]]),
        );
        let o = set.index();
        let (values, _) = run(&o, &[(0, inv("inc")), (0, inv("get"))]);
        assert_eq!(values, [Value::Unit, Value::Int(1)]);
        // From the initial state, get sees 0.
        let (values, _) = run(&o, &[(1, inv("get"))]);
        assert_eq!(values, [Value::Int(0)]);
    }

    #[test]
    fn replay_preserves_thread_placement() {
        // Thread 1 never performs inc: the same invocation there is
        // outside the test matrix.
        let set = observed(
            &CounterTarget,
            &TestMatrix::from_columns(vec![vec![inv("inc")], vec![inv("get")]]),
        );
        let o = set.index();
        assert!(matches!(
            o.step(&o.initial(), 1, &inv("inc")),
            StepResult::Panics(_)
        ));
        let (values, _) = run(&o, &[(0, inv("inc")), (1, inv("get"))]);
        assert_eq!(values, [Value::Unit, Value::Int(1)]);
    }

    #[test]
    fn replay_oracle_respects_init() {
        let set = observed(
            &CounterTarget,
            &TestMatrix::from_columns(vec![vec![inv("get")]])
                .with_init(vec![inv("inc"), inv("inc")]),
        );
        let o = set.index();
        let (values, _) = run(&o, &[(0, inv("get"))]);
        assert_eq!(
            values,
            [Value::Int(2)],
            "init sequence ran before the trace"
        );
    }

    #[test]
    fn canonical_key_distinguishes_order_sensitive_states() {
        use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
        use lineup_collections::registry::Variant;
        let target = ConcurrentQueueTarget {
            variant: Variant::Fixed,
        };
        let enq = |v| Invocation::with_int("Enqueue", v);
        let set = observed(
            &target,
            &TestMatrix::from_columns(vec![vec![enq(10), inv("TryDequeue")], vec![enq(20)]]),
        );
        let o = set.index();
        let (_, s1) = run(&o, &[(0, enq(10)), (1, enq(20))]);
        let (_, s2) = run(&o, &[(1, enq(20)), (0, enq(10))]);
        assert_ne!(s1, s2, "the later dequeue observes the enqueue order");
    }

    #[test]
    fn fn_oracle_works() {
        let o = FnOracle::new(0i64, |s: &i64, inv: &Invocation| match inv.name.as_str() {
            "inc" => StepResult::Returns(Value::Unit, s + 1),
            "get" => StepResult::Returns(Value::Int(*s), *s),
            "block" => StepResult::Blocks,
            other => StepResult::Panics(format!("unknown {other}")),
        });
        let s = o.initial();
        assert!(matches!(o.step(&s, 0, &inv("block")), StepResult::Blocks));
        assert!(matches!(o.step(&s, 0, &inv("nope")), StepResult::Panics(_)));
        // The closure is thread-agnostic.
        assert_eq!(o.step(&s, 7, &inv("inc")), o.step(&s, 0, &inv("inc")));
    }
}
