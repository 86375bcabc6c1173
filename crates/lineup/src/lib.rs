//! **Line-Up**: a complete and automatic checker for *deterministic
//! linearizability*, reproducing Burckhardt, Dern, Musuvathi, Tan,
//! PLDI 2010.
//!
//! A concurrent component is linearizable when its operations, called
//! concurrently, appear to take effect instantaneously between their call
//! and return. Line-Up checks the stronger property of *deterministic
//! linearizability* — linearizability with respect to **some**
//! deterministic sequential specification — fully automatically:
//!
//! 1. **Phase 1** runs the component's own operations *serially*, in all
//!    orders, recording every serial history. For a deterministically
//!    linearizable component this synthesizes exactly its specification
//!    (Lemma 9), so no hand-written spec is needed.
//! 2. **Phase 2** enumerates the *concurrent* schedules of the same test
//!    with a stateless model checker and checks that every observed
//!    history has a *serial witness* among the phase-1 observations —
//!    including *stuck* histories, whose pending operations must be
//!    justified by serial executions that block in the same way
//!    (generalized linearizability, §2.3; this is what catches lost-wakeup
//!    bugs like the paper's Fig. 9).
//!
//! Any violation reported is a proof that the component is not
//! linearizable with respect to **any** deterministic sequential
//! specification (Theorem 5): there are no false alarms.
//!
//! # Quick start
//!
//! ```
//! use lineup::{check, CheckOptions, Invocation, TestMatrix};
//! use lineup::doc_support::CounterTarget;
//!
//! // Specify what to test: a matrix of invocations (one column per thread).
//! let m = TestMatrix::from_columns(vec![
//!     vec![Invocation::new("inc")],
//!     vec![Invocation::new("inc"), Invocation::new("get")],
//! ]);
//! // Check it. This enumerates all serial and concurrent executions.
//! let report = check(&CounterTarget, &m, &CheckOptions::new());
//! assert!(report.passed());
//! ```
//!
//! To test your own component, implement [`TestTarget`]/[`TestInstance`]
//! against the `lineup-sync` primitives; see `examples/custom_register.rs`
//! in the repository for a complete walk-through, and the
//! `lineup-collections` crate for thirteen full-size subjects.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adt;
pub mod auto;
pub mod check;
pub mod erased;
pub mod harness;
pub mod history;
pub mod macros;
pub mod matrix;
pub mod observation;
pub mod report;
pub mod shrink;
pub mod spec;
pub mod target;
pub mod value;
pub mod witness;

pub use adt::{AdtKind, FallbackReason, MonitorPathStats};
pub use auto::{
    auto_check, random_check, random_check_parallel, AutoCheckLimits, RandomCheckConfig,
    RandomCheckResult,
};
pub use check::{
    check, check_against_spec, synthesize_spec, CheckOptions, CheckReport, HistoryMonitor,
    MonitorHandle, PhaseStats, Violation,
};
pub use erased::ErasedTarget;
pub use harness::{explore_matrix, explore_matrix_with_strategy, replay_matrix, MatrixRun};
pub use history::{Event, History, HistoryCache, HistoryKey, KeyWriter, OpIndex, Operation};
pub use lineup_sched::Backend;
pub use matrix::{SymmetryGroups, TestMatrix};
pub use observation::{parse_observation_file, write_observation_file};
pub use report::render_violation;
pub use shrink::shrink_failing_test;
pub use spec::{Nondeterminism, ObservationSet, Outcome, SerialHistory, SpecOp};
pub use target::{Invocation, SymmetryPolicy, TestInstance, TestTarget};
pub use value::Value;
pub use witness::{find_witness, is_witness, WitnessQuery};

/// Tiny reference targets used by documentation examples and doctests.
///
/// Real subjects live in the `lineup-collections` crate; these exist so
/// the doctests of this crate are self-contained.
pub mod doc_support {
    use crate::target::{Invocation, TestInstance, TestTarget};
    use crate::value::Value;
    use lineup_sync::Atomic;

    /// A correct atomic counter supporting `inc` and `get`.
    #[derive(Debug, Default)]
    pub struct CounterTarget;

    /// Instance type of [`CounterTarget`].
    #[derive(Debug)]
    pub struct CounterInstance {
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
                other => panic!("unknown operation {other}"),
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

    /// A buggy counter whose `inc` is a non-atomic read-modify-write — the
    /// paper's `Counter1` (§2.2.1). Line-Up detects it.
    #[derive(Debug, Default)]
    pub struct BuggyCounterTarget;

    /// Instance type of [`BuggyCounterTarget`].
    #[derive(Debug)]
    pub struct BuggyCounterInstance {
        count: Atomic<i64>,
    }

    impl TestInstance for BuggyCounterInstance {
        fn invoke(&self, inv: &Invocation) -> Value {
            match inv.name.as_str() {
                "inc" => {
                    // Unsynchronized: count = count + 1.
                    let v = self.count.load();
                    self.count.store(v + 1);
                    Value::Unit
                }
                "get" => Value::Int(self.count.load()),
                other => panic!("unknown operation {other}"),
            }
        }
    }

    impl TestTarget for BuggyCounterTarget {
        type Instance = BuggyCounterInstance;
        fn name(&self) -> &str {
            "Counter1 (buggy)"
        }
        fn create(&self) -> BuggyCounterInstance {
            BuggyCounterInstance {
                count: Atomic::new(0),
            }
        }
        fn invocations(&self) -> Vec<Invocation> {
            vec![Invocation::new("inc"), Invocation::new("get")]
        }
    }
}
