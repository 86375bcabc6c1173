//! Executable sequential oracles: the specification side of the monitor.
//!
//! The witness search of `lineup` looks a history's witness up in the
//! observation set; a monitor instead steps a specification on demand — an
//! abstract state machine whose transitions are invocations. For Line-Up's
//! automatic setting that specification is the same observation set:
//! [`ObservationOracle`] steps it directly, so the monitor needs no manual
//! specification either. [`FnOracle`] wraps a hand-written one.

use std::collections::HashMap;
use std::hash::Hash;

use lineup::{Invocation, ObservationSet, Outcome, SpecOp, Value};

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
/// keys failed configurations on `(linearized set, state)`, so two branches
/// reaching equal states share their continuations. Determinism is a
/// *precondition*: for a given state, thread and invocation, `step` must
/// always produce the same result (Line-Up's phase-1 determinism check
/// establishes exactly this before any monitor runs).
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

/// The automatic oracle: steps the specification phase 1 synthesized.
///
/// Every member of the [`ObservationSet`] is one serial execution of the
/// test. The oracle hash-conses every suffix of every execution as a node
/// `(operation, tail)`, and a state is the sorted set of nodes that
/// continue the trace performed so far: its serial continuations. Stepping
/// keeps the nodes whose head is the performed `(thread, invocation)` and
/// moves to their tails; the head's outcome says whether the operation
/// returns a value or blocks, and no matching head means the operation is
/// outside the test matrix.
///
/// Two traces with the same continuations step identically from then on,
/// and they reach the *same* state, so the monitor's memo needs no coarser
/// key than state equality: two commuting increments in either order
/// collapse, two enqueues a later dequeue tells apart do not.
///
/// The preconditions are those of witness search against the set: phase 1
/// finished without a panic, and
/// [`check_determinism`](ObservationSet::check_determinism) is `None`, so
/// all heads matching one step share their outcome. The monitor then
/// accepts exactly the histories of the test that have a serial witness in
/// the set.
#[derive(Debug, Clone)]
pub struct ObservationOracle {
    /// Node id → head operation and tail node (`None` where the execution
    /// ends).
    nodes: Vec<(SpecOp, Option<u32>)>,
    /// The nodes of the whole executions.
    initial: Vec<u32>,
}

impl ObservationOracle {
    /// Hash-conses the serial executions of `set`.
    pub fn new(set: &ObservationSet) -> Self {
        let mut ids: HashMap<(SpecOp, Option<u32>), u32> = HashMap::new();
        let mut nodes = Vec::new();
        let mut initial = Vec::new();
        for h in set.iter() {
            let mut tail = None;
            for op in h.ops.iter().rev() {
                let id = *ids.entry((op.clone(), tail)).or_insert_with_key(|node| {
                    nodes.push(node.clone());
                    u32::try_from(nodes.len() - 1).expect("fewer than 2^32 suffixes")
                });
                tail = Some(id);
            }
            initial.extend(tail);
        }
        initial.sort_unstable();
        initial.dedup();
        ObservationOracle { nodes, initial }
    }
}

impl SeqOracle for ObservationOracle {
    /// The sorted node ids of the serial continuations.
    type State = Vec<u32>;

    fn initial(&self) -> Vec<u32> {
        self.initial.clone()
    }

    fn step(
        &self,
        state: &Vec<u32>,
        thread: usize,
        invocation: &Invocation,
    ) -> StepResult<Vec<u32>> {
        let mut heads = state
            .iter()
            .map(|&id| &self.nodes[id as usize])
            .filter(|(op, _)| op.thread == thread && op.invocation == *invocation)
            .peekable();
        let Some(&(head, _)) = heads.peek() else {
            return StepResult::Panics("operation outside the test matrix".into());
        };
        // Determinism: every matching head has this outcome.
        match &head.outcome {
            Outcome::Pending => StepResult::Blocks,
            Outcome::Returned(v) => {
                let mut tails: Vec<u32> = heads.filter_map(|(_, tail)| *tail).collect();
                tails.sort_unstable();
                tails.dedup();
                StepResult::Returns(v.clone(), tails)
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lineup::doc_support::CounterTarget;
    use lineup::{synthesize_spec, TestMatrix, TestTarget};

    /// The oracle over phase 1 of `matrix` on `target`.
    pub(crate) fn observed<T: TestTarget>(target: &T, matrix: &TestMatrix) -> ObservationOracle {
        let (set, _, panic) = synthesize_spec(target, matrix);
        assert!(panic.is_none() && set.check_determinism().is_none());
        ObservationOracle::new(&set)
    }

    fn inv(name: &str) -> Invocation {
        Invocation::new(name)
    }

    /// Steps `o` along `trace`, expecting every step to return.
    fn run(o: &ObservationOracle, trace: &[(usize, Invocation)]) -> (Vec<Value>, Vec<u32>) {
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
        let o = observed(
            &CounterTarget,
            &TestMatrix::from_columns(vec![vec![inv("inc"), inv("get")], vec![inv("get")]]),
        );
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
        let o = observed(
            &CounterTarget,
            &TestMatrix::from_columns(vec![vec![inv("inc")], vec![inv("get")]]),
        );
        assert!(matches!(
            o.step(&o.initial(), 1, &inv("inc")),
            StepResult::Panics(_)
        ));
        let (values, _) = run(&o, &[(0, inv("inc")), (1, inv("get"))]);
        assert_eq!(values, [Value::Unit, Value::Int(1)]);
    }

    #[test]
    fn replay_oracle_respects_init() {
        let o = observed(
            &CounterTarget,
            &TestMatrix::from_columns(vec![vec![inv("get")]])
                .with_init(vec![inv("inc"), inv("inc")]),
        );
        let (values, _) = run(&o, &[(0, inv("get"))]);
        assert_eq!(
            values,
            [Value::Int(2)],
            "init sequence ran before the trace"
        );
    }

    #[test]
    fn canonical_key_collapses_commuting_orders() {
        // Two incs on different threads: either order leaves the same
        // serial continuations, so the states coincide.
        let o = observed(
            &CounterTarget,
            &TestMatrix::from_columns(vec![vec![inv("inc"), inv("get")], vec![inv("inc")]]),
        );
        let (_, s1) = run(&o, &[(0, inv("inc")), (1, inv("inc"))]);
        let (_, s2) = run(&o, &[(1, inv("inc")), (0, inv("inc"))]);
        assert_eq!(s1, s2, "inc orders are behaviorally equivalent");
    }

    #[test]
    fn canonical_key_distinguishes_order_sensitive_states() {
        use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
        use lineup_collections::registry::Variant;
        let target = ConcurrentQueueTarget {
            variant: Variant::Fixed,
        };
        let enq = |v| Invocation::with_int("Enqueue", v);
        let o = observed(
            &target,
            &TestMatrix::from_columns(vec![vec![enq(10), inv("TryDequeue")], vec![enq(20)]]),
        );
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
