//! A stateless model checker for Rust closures, serving as the substrate of
//! the Line-Up linearizability checker (Burckhardt, Dern, Musuvathi, Tan:
//! *Line-Up: A Complete and Automatic Linearizability Checker*, PLDI 2010).
//!
//! The paper builds Line-Up on top of the CHESS stateless model checker and
//! treats it "essentially as a black box" (§4). This crate provides the same
//! black box for Rust code:
//!
//! * a fixed set of *virtual threads* run real Rust closures, but only one
//!   thread runs at a time and every access to an instrumented primitive
//!   (see the `lineup-sync` crate) is a *schedule point* at which the
//!   scheduler may switch threads;
//! * an [`explore`] loop re-executes the same program and
//!   systematically enumerates all scheduling (and timeout) choices with a
//!   depth-first strategy, optionally bounded by a *preemption bound*
//!   (the CHESS heuristic, §4.3 of the paper);
//! * *fair scheduling* deprioritizes threads that yield in spin loops and
//!   detects fair livelocks, which the paper needs because "many of the
//!   concurrent data types use spin-loops for synchronization" (§4);
//! * a *serial-only* mode restricts context switches to operation
//!   boundaries, which Line-Up phase 1 uses to enumerate the sequential
//!   behaviors of a component without preempting threads inside operations;
//! * deadlocks, fair livelocks, and serial blocking produce *stuck* runs,
//!   from which Line-Up constructs the stuck histories of §2.3.
//!
//! # Example
//!
//! ```
//! use lineup_sched::{explore, Config, RunOutcome};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! // Two threads that each pass through one schedule point: the explorer
//! // enumerates both orders.
//! let config = Config::exhaustive();
//! let orders = Arc::new(AtomicUsize::new(0));
//! let orders2 = Arc::clone(&orders);
//! let stats = explore(
//!     &config,
//!     move |ex| {
//!         let o = Arc::clone(&orders2);
//!         ex.spawn(move || {
//!             lineup_sched::yield_point();
//!             o.fetch_add(1, Ordering::SeqCst);
//!         });
//!         ex.spawn(|| {
//!             lineup_sched::yield_point();
//!         });
//!     },
//!     |run| {
//!         assert_eq!(run.outcome, RunOutcome::Complete);
//!         std::ops::ControlFlow::Continue(())
//!     },
//! );
//! assert!(stats.runs >= 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod coverage;
pub mod events;
pub mod explorer;
pub mod fiber;
pub mod ids;
pub mod por;
pub mod probe;
pub mod runtime;
pub mod state;
pub mod strategy;

pub use config::{Backend, Config, Mode, StrategyKind};
pub use coverage::{CoverageCounters, CoverageStrategy, COVERAGE_MAP_BITS};
pub use events::{AccessEvent, AccessKind};
pub use explorer::{
    explore, explore_with_strategy, AbandonConfirm, Execution, ExploreStats, LexCancel, RunResult,
    StealPool, StealSkip, StealTask, StealingStrategy,
};
pub use ids::{ObjId, ThreadId};
pub use por::{AccessIntent, VectorClock, MAX_POR_THREADS};
pub use probe::Probe;
pub use runtime::{
    block_current, choose_bool, current_thread, is_model_active, log_access, mark_history_event,
    op_boundary, register_object, schedule, schedule_access, unblock, yield_point, BlockResult,
};
pub use state::{BlockKind, RunOutcome};
pub use strategy::{Choice, StolenSubtree, Strategy};
