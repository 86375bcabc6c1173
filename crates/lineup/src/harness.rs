//! The bridge between Line-Up and the stateless model checker: runs a
//! [`TestMatrix`] against a [`TestTarget`] under `lineup-sched`,
//! producing one [`History`] per explored schedule.

use std::cell::RefCell;
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

use lineup_sched::{
    block_current, current_thread, explore, explore_with_strategy, op_boundary, unblock, BlockKind,
    Config, Execution, ExploreStats, RunOutcome, Strategy, ThreadId,
};

use crate::history::History;
use crate::matrix::TestMatrix;
use crate::target::{Invocation, TestInstance, TestTarget};

/// The history recorder shared by the virtual threads of one run.
/// Mutations happen while holding the scheduler baton, so the interior
/// `std::sync::Mutex` is uncontended; it exists to make the type `Sync`.
#[derive(Debug)]
struct Recorder {
    history: std::sync::Mutex<History>,
}

impl Recorder {
    fn new(thread_count: usize) -> Self {
        Recorder {
            history: std::sync::Mutex::new(History::new(thread_count)),
        }
    }

    fn record_call(&self, thread: usize, invocation: Invocation) -> usize {
        // History appends are model-visible observations: tell the
        // partial-order reducer so transitions that append are never
        // treated as independent (their order is the history).
        lineup_sched::mark_history_event();
        self.history.lock().unwrap().push_call(thread, invocation)
    }

    fn record_return(&self, op: usize, response: crate::value::Value) {
        lineup_sched::mark_history_event();
        self.history.lock().unwrap().push_return(op, response);
    }

    fn take(&self, stuck: bool) -> History {
        let mut h = std::mem::take(&mut *self.history.lock().unwrap());
        h.stuck = stuck;
        h
    }
}

/// A completion gate for the final-operations thread (paper §4.3): the
/// extra thread blocks until every column thread has finished its
/// sequence, so the final observations are totally ordered after the
/// concurrent part. State mutations happen under the scheduler baton.
#[derive(Debug)]
struct Gate {
    state: std::sync::Mutex<GateState>,
    target: usize,
}

#[derive(Debug, Default)]
struct GateState {
    arrived: usize,
    waiter: Option<ThreadId>,
}

impl Gate {
    fn new(target: usize) -> Self {
        Gate {
            state: std::sync::Mutex::new(GateState::default()),
            target,
        }
    }

    /// Marks one column thread as done; wakes the finals thread when all
    /// have arrived. Not a schedule point.
    fn arrive(&self) {
        let mut g = self.state.lock().unwrap();
        g.arrived += 1;
        if g.arrived >= self.target {
            if let Some(w) = g.waiter.take() {
                unblock(w);
            }
        }
    }

    /// Blocks the calling (finals) thread until all columns arrived.
    fn wait(&self) {
        loop {
            {
                let mut g = self.state.lock().unwrap();
                if g.arrived >= self.target {
                    return;
                }
                g.waiter = Some(current_thread());
            }
            let _ = block_current(BlockKind::Untimed);
        }
    }
}

/// One explored run of a test matrix: the observed history plus scheduler
/// metadata.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// The recorded history; `stuck` is set for deadlocked/livelocked/
    /// serially-blocked runs.
    pub history: History,
    /// The raw scheduler outcome.
    pub outcome: RunOutcome,
    /// Preemptions used by this schedule.
    pub preemptions: usize,
    /// Decision indexes of this run; feed them to [`replay_matrix`] to
    /// re-execute the exact schedule (e.g. to debug a violation).
    pub decisions: Vec<usize>,
    /// The access log (empty unless the configuration records accesses);
    /// consumed by the `lineup-checkers` comparison checkers.
    pub access_log: Vec<lineup_sched::AccessEvent>,
}

/// Explores the schedules of `matrix` against `target` under the given
/// scheduler configuration, invoking `visit` once per run.
///
/// In serial configurations ([`Config::serial`]) this enumerates the
/// sequential behaviors of the component (Line-Up phase 1); in concurrent
/// configurations it enumerates the interleavings (phase 2).
///
/// Init operations run unrecorded during setup; final operations run on an
/// extra thread gated behind completion of all columns and are recorded in
/// the history (paper §4.3).
pub fn explore_matrix<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    config: &Config,
    visit: impl FnMut(MatrixRun) -> ControlFlow<()>,
) -> ExploreStats {
    explore_matrix_impl(target, matrix, config, None, visit)
}

/// [`explore_matrix`] with a caller-supplied scheduling strategy instead of
/// one built from [`Config::strategy`]: the entry point for work-stealing
/// phase-2 workers, whose [`StealingStrategy`](lineup_sched::StealingStrategy)
/// streams subtree tasks from a shared pool across a single exploration
/// call.
pub fn explore_matrix_with_strategy<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    config: &Config,
    strategy: Box<dyn Strategy + Send>,
    visit: impl FnMut(MatrixRun) -> ControlFlow<()>,
) -> ExploreStats {
    explore_matrix_impl(target, matrix, config, Some(strategy), visit)
}

fn explore_matrix_impl<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    config: &Config,
    strategy: Option<Box<dyn Strategy + Send>>,
    mut visit: impl FnMut(MatrixRun) -> ControlFlow<()>,
) -> ExploreStats {
    let columns = matrix.columns.clone();
    let finals = matrix.finally.clone();
    let thread_count = columns.len() + usize::from(!finals.is_empty());
    let slot: Rc<RefCell<Option<Arc<Recorder>>>> = Rc::new(RefCell::new(None));
    let slot_setup = Rc::clone(&slot);

    let setup = move |ex: &mut Execution| {
        let instance = Arc::new(target.create());
        for inv in &matrix.init {
            // State preparation: performed before the concurrent part,
            // not recorded. Setup runs outside the scheduler, so these
            // operations must not block.
            let _ = instance.invoke(inv);
        }
        let recorder = Arc::new(Recorder::new(thread_count));
        *slot_setup.borrow_mut() = Some(Arc::clone(&recorder));
        let gate = Arc::new(Gate::new(columns.len()));

        for (t, column) in columns.iter().enumerate() {
            let instance = Arc::clone(&instance);
            let recorder = Arc::clone(&recorder);
            let gate = Arc::clone(&gate);
            let column = column.clone();
            ex.spawn(move || {
                for (i, inv) in column.into_iter().enumerate() {
                    // Boundaries separate operations (thread start acts
                    // as the initial boundary): each scheduling decision
                    // in serial mode then corresponds exactly to "whose
                    // operation runs next", so serial schedules map
                    // one-to-one onto serial histories (9!/(3!)³ = 1680
                    // full histories for a 3×3 test, §5.5).
                    if i > 0 {
                        op_boundary();
                    }
                    let op = recorder.record_call(t, inv.clone());
                    let response = instance.invoke(&inv);
                    recorder.record_return(op, response);
                }
                gate.arrive();
            });
        }
        if !finals.is_empty() {
            let t = columns.len();
            let instance = Arc::clone(&instance);
            let recorder = Arc::clone(&recorder);
            let finals = finals.clone();
            let gate = Arc::clone(&gate);
            ex.spawn(move || {
                gate.wait();
                for (i, inv) in finals.into_iter().enumerate() {
                    if i > 0 {
                        op_boundary();
                    }
                    let op = recorder.record_call(t, inv.clone());
                    let response = instance.invoke(&inv);
                    recorder.record_return(op, response);
                }
            });
        }
    };
    let on_run = |run: &lineup_sched::RunResult| {
        let recorder = slot
            .borrow_mut()
            .take()
            .expect("recorder installed by setup");
        let history = recorder.take(run.outcome.is_stuck());
        visit(MatrixRun {
            history,
            outcome: run.outcome.clone(),
            preemptions: run.preemptions,
            decisions: run.decisions.clone(),
            access_log: run.access_log.clone(),
        })
    };
    match strategy {
        Some(s) => explore_with_strategy(config, s, setup, on_run),
        None => explore(config, setup, on_run),
    }
}

/// Re-executes one recorded schedule of `matrix` against `target` and
/// returns the resulting run: deterministic debugging of a violation
/// found earlier (pass the violation's `decisions` and the phase-2
/// scheduler settings it was found under).
///
/// # Example
///
/// ```
/// use lineup::{check, replay_matrix, CheckOptions, Invocation, TestMatrix, Violation};
/// use lineup::doc_support::BuggyCounterTarget;
///
/// let m = TestMatrix::from_columns(vec![
///     vec![Invocation::new("inc"), Invocation::new("get")],
///     vec![Invocation::new("inc")],
/// ]);
/// let report = check(&BuggyCounterTarget, &m, &CheckOptions::new());
/// if let Some(Violation::NoWitness { history, decisions }) = report.first_violation() {
///     let run = replay_matrix(&BuggyCounterTarget, &m, decisions.clone(), Some(2));
///     assert_eq!(&run.history, history); // the exact same execution
/// }
/// ```
pub fn replay_matrix<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    decisions: Vec<usize>,
    preemption_bound: Option<usize>,
) -> MatrixRun {
    let mut config = Config::replay(decisions);
    config.preemption_bound = preemption_bound;
    let mut result = None;
    explore_matrix(target, matrix, &config, |run| {
        result = Some(run);
        ControlFlow::Break(())
    });
    result.expect("replay executes exactly one run")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::TestInstance;
    use crate::value::Value;
    use lineup_sync::Atomic;

    /// A correct atomic counter target.
    struct CounterTarget;

    struct CounterInstance {
        count: Atomic<i64>,
    }

    impl TestInstance for CounterInstance {
        fn invoke(&self, inv: &Invocation) -> Value {
            match inv.name.as_str() {
                "inc" => {
                    self.count.fetch_add(1);
                    Value::Unit
                }
                "get" => Value::Int(self.count.load()),
                other => panic!("unknown op {other}"),
            }
        }
    }

    impl TestTarget for CounterTarget {
        type Instance = CounterInstance;
        fn name(&self) -> &str {
            "Counter"
        }
        fn create(&self) -> CounterInstance {
            CounterInstance {
                count: Atomic::new(0),
            }
        }
        fn invocations(&self) -> Vec<Invocation> {
            vec![Invocation::new("inc"), Invocation::new("get")]
        }
    }

    fn inv(name: &str) -> Invocation {
        Invocation::new(name)
    }

    #[test]
    fn serial_exploration_yields_serial_histories() {
        let m = TestMatrix::from_columns(vec![vec![inv("inc")], vec![inv("get")]]);
        let mut histories = Vec::new();
        let stats = explore_matrix(&CounterTarget, &m, &Config::serial(), |run| {
            assert!(run.history.is_serial(), "phase 1 histories are serial");
            assert!(run.history.is_well_formed());
            histories.push(run.history);
            ControlFlow::Continue(())
        });
        // Two serial orders: inc-get (get=1) and get-inc (get=0).
        assert_eq!(stats.complete, 2);
        let gets: std::collections::BTreeSet<_> = histories
            .iter()
            .map(|h| {
                h.ops
                    .iter()
                    .find(|o| o.invocation.name == "get")
                    .unwrap()
                    .response
                    .clone()
            })
            .collect();
        assert_eq!(gets.len(), 2);
    }

    #[test]
    fn concurrent_exploration_yields_overlapping_histories() {
        let m = TestMatrix::from_columns(vec![vec![inv("inc")], vec![inv("get")]]);
        let mut overlapping = false;
        explore_matrix(&CounterTarget, &m, &Config::exhaustive(), |run| {
            assert!(run.history.is_well_formed());
            let h = &run.history;
            if h.ops.len() == 2 && h.overlapping(0, 1) {
                overlapping = true;
            }
            ControlFlow::Continue(())
        });
        assert!(overlapping, "phase 2 must produce overlapping operations");
    }

    #[test]
    fn init_ops_prepare_state_unrecorded() {
        let m = TestMatrix::from_columns(vec![vec![inv("get")]])
            .with_init(vec![inv("inc"), inv("inc")]);
        explore_matrix(&CounterTarget, &m, &Config::serial(), |run| {
            assert_eq!(run.history.ops.len(), 1, "init ops are not recorded");
            assert_eq!(run.history.ops[0].response, Some(Value::Int(2)));
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn final_ops_run_after_everything() {
        let m = TestMatrix::from_columns(vec![vec![inv("inc")], vec![inv("inc")]])
            .with_finally(vec![inv("get")]);
        let stats = explore_matrix(&CounterTarget, &m, &Config::exhaustive(), |run| {
            if run.outcome == RunOutcome::Pruned {
                // Sleep-set pruned prefix: its history is partial.
                return ControlFlow::Continue(());
            }
            assert_eq!(run.outcome, RunOutcome::Complete);
            let h = &run.history;
            let get = h
                .ops
                .iter()
                .position(|o| o.invocation.name == "get")
                .unwrap();
            // The final get sees both increments in every schedule.
            assert_eq!(h.ops[get].response, Some(Value::Int(2)));
            assert_eq!(h.ops[get].thread, 2);
            // And is ordered after both incs.
            for i in 0..h.ops.len() {
                if i != get {
                    assert!(h.precedes(i, get));
                }
            }
            ControlFlow::Continue(())
        });
        assert!(stats.complete > 0);
    }

    #[test]
    fn replay_reproduces_a_recorded_run() {
        let m = TestMatrix::from_columns(vec![vec![inv("inc"), inv("get")], vec![inv("inc")]]);
        let mut recorded: Vec<MatrixRun> = Vec::new();
        explore_matrix(&CounterTarget, &m, &Config::preemption_bounded(2), |run| {
            recorded.push(run);
            if recorded.len() >= 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        for original in recorded {
            let replay = replay_matrix(&CounterTarget, &m, original.decisions.clone(), Some(2));
            assert_eq!(replay.history, original.history);
            assert_eq!(replay.outcome, original.outcome);
        }
    }

    #[test]
    fn thread_count_includes_finals_thread() {
        let m = TestMatrix::from_columns(vec![vec![inv("inc")]]).with_finally(vec![inv("get")]);
        explore_matrix(&CounterTarget, &m, &Config::serial(), |run| {
            assert_eq!(run.history.thread_count, 2);
            ControlFlow::Continue(())
        });
    }
}
