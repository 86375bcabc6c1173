//! **lineup-monitor**: a standalone linearizability monitor and a native
//! stress-test runner for the Line-Up reproduction.
//!
//! The core `lineup` crate checks histories by *looking up* serial
//! witnesses in a pre-enumerated observation set. This crate adds the
//! complementary monitor, which *decides* linearizability of an arbitrary
//! recorded history (Wing & Gong's algorithm with Lowe's state
//! memoization):
//!
//! * [`SeqOracle`] — an executable deterministic sequential specification,
//!   stepped on demand. Write one by hand with [`FnOracle`], or let
//!   [`ReplayOracle`] derive it automatically by replaying the component
//!   itself serially (Line-Up's "the implementation is its own spec").
//! * [`Monitor`] — decides whether a recorded [`History`](lineup::History)
//!   is linearizable against the oracle, including the *stuck* variant for
//!   blocking operations and the asynchronous relaxation. Annotated with
//!   an [`AdtKind`](lineup::AdtKind), it decides unambiguous histories
//!   with a specialized log-linear checker first.
//! * [`run_stress`] — executes a test matrix on real OS threads (the
//!   instrumented primitives pass through to `std::sync` outside the model
//!   checker), records call/return histories, and monitors them online.
//!
//! # Example: checking one history
//!
//! ```
//! use std::sync::Arc;
//! use lineup::{History, Invocation, Value};
//! use lineup::doc_support::CounterTarget;
//! use lineup_monitor::{Monitor, ReplayOracle};
//!
//! // Two overlapping `inc`s, then `get` returns 1: a lost update.
//! let mut h = History::new(2);
//! let a = h.push_call(0, Invocation::new("inc"));
//! let b = h.push_call(1, Invocation::new("inc"));
//! h.push_return(a, Value::Unit);
//! h.push_return(b, Value::Unit);
//! let get = h.push_call(0, Invocation::new("get"));
//! h.push_return(get, Value::Int(1));
//!
//! let monitor = Monitor::new(ReplayOracle::new(Arc::new(CounterTarget), Vec::new()));
//! assert!(!monitor.check_full(&h, &[]));
//! ```
//!
//! # Example: native stress testing
//!
//! ```
//! use std::sync::Arc;
//! use lineup::{Invocation, TestMatrix};
//! use lineup::doc_support::CounterTarget;
//! use lineup_monitor::{Monitor, ReplayOracle, run_stress, StressOptions};
//!
//! let m = TestMatrix::from_columns(vec![
//!     vec![Invocation::new("inc")],
//!     vec![Invocation::new("get")],
//! ]);
//! let monitor = Monitor::new(ReplayOracle::new(Arc::new(CounterTarget), m.init.clone()));
//! let report = run_stress(&CounterTarget, &m, &monitor, &StressOptions {
//!     runs: 10,
//!     ..StressOptions::default()
//! });
//! assert!(report.passed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ideal;
pub mod linearize;
pub mod oracle;
pub(crate) mod specialized;
pub mod stress;

pub use ideal::{ideal_oracle, ideal_oracle_from, ideal_step, state_invocations, IdealStep};
pub use linearize::{Monitor, MonitorStats};
pub use oracle::{FnOracle, ReplayOracle, SeqOracle, StepResult, TracedOp};
pub use stress::{run_stress, StressOptions, StressReport, StressViolation};
