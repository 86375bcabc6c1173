//! **lineup-monitor**: a standalone linearizability monitor and a native
//! stress-test runner for the Line-Up reproduction.
//!
//! The core `lineup` crate checks histories by *looking up* serial
//! witnesses in the phase-1 observation set. This crate *decides* the same
//! question for an arbitrary recorded history, with Wing & Gong's search
//! and Lowe's state memoization:
//!
//! * [`SeqOracle`] — an executable deterministic sequential specification,
//!   stepped on demand: [`ObservationOracle`] steps the observation set
//!   itself, [`FnOracle`] a hand-written one.
//! * [`Monitor`] — decides whether a recorded [`History`](lineup::History)
//!   is linearizable against the oracle, including the *stuck* variant for
//!   blocking operations. Annotated with an [`AdtKind`](lineup::AdtKind),
//!   it decides unambiguous histories with a specialized log-linear
//!   checker first.
//! * [`run_stress`] — executes a test matrix on real OS threads and
//!   monitors the recorded histories online.
//!
//! # Example: checking one history
//!
//! ```
//! use lineup::{synthesize_spec, History, Invocation, TestMatrix, Value};
//! use lineup::doc_support::CounterTarget;
//! use lineup_monitor::{Monitor, ObservationOracle};
//!
//! let inc = Invocation::new("inc");
//! let m = TestMatrix::from_columns(vec![
//!     vec![inc.clone(), Invocation::new("get")],
//!     vec![inc.clone()],
//! ]);
//! let (spec, _, _) = synthesize_spec(&CounterTarget, &m);
//! let monitor = Monitor::new(ObservationOracle::new(&spec));
//!
//! // Two overlapping `inc`s, then `get` returns 1: a lost update.
//! let mut h = History::new(2);
//! let a = h.push_call(0, inc.clone());
//! let b = h.push_call(1, inc);
//! h.push_return(a, Value::Unit);
//! h.push_return(b, Value::Unit);
//! let get = h.push_call(0, Invocation::new("get"));
//! h.push_return(get, Value::Int(1));
//! assert!(!monitor.check_full(&h, &[]));
//! ```
//!
//! # Example: native stress testing
//!
//! ```
//! use lineup::{synthesize_spec, Invocation, TestMatrix};
//! use lineup::doc_support::CounterTarget;
//! use lineup_monitor::{run_stress, Monitor, ObservationOracle, StressOptions};
//!
//! let m = TestMatrix::from_columns(vec![
//!     vec![Invocation::new("inc")],
//!     vec![Invocation::new("get")],
//! ]);
//! let (spec, _, _) = synthesize_spec(&CounterTarget, &m);
//! let monitor = Monitor::new(ObservationOracle::new(&spec));
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
pub use oracle::{FnOracle, ObservationOracle, SeqOracle, StepResult};
pub use stress::{run_stress, StressOptions, StressReport, StressViolation};
