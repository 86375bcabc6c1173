//! **lineup-monitor**: a standalone linearizability monitor for the
//! Line-Up reproduction.
//!
//! The core `lineup` crate checks a test's histories by searching the
//! phase-1 observation set's prefix automaton for serial witnesses. This
//! crate runs the same search ([`lineup::witness::search`]) for an
//! arbitrary recorded history against an executable specification, with
//! Lowe's state memoization:
//!
//! * [`SeqOracle`] — an executable deterministic sequential specification,
//!   stepped on demand: the observation set's automaton
//!   ([`SpecIndex`](lineup::spec::SpecIndex)) is one, [`FnOracle`] wraps a
//!   hand-written one.
//! * [`Monitor`] — decides whether a recorded [`History`](lineup::History)
//!   is linearizable against the oracle, including the *stuck* variant for
//!   blocking operations. Annotated with an [`AdtKind`](lineup::AdtKind),
//!   it decides unambiguous histories with a specialized log-linear
//!   checker first.
//!
//! # Example: checking one history
//!
//! ```
//! use lineup::{synthesize_spec, History, Invocation, TestMatrix, Value};
//! use lineup::doc_support::CounterTarget;
//! use lineup_monitor::Monitor;
//!
//! let inc = Invocation::new("inc");
//! let m = TestMatrix::from_columns(vec![
//!     vec![inc.clone(), Invocation::new("get")],
//!     vec![inc.clone()],
//! ]);
//! let (spec, _, _) = synthesize_spec(&CounterTarget, &m);
//! let monitor = Monitor::new(spec.index());
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

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ideal;
pub mod linearize;
pub mod oracle;
pub(crate) mod specialized;

pub use ideal::{ideal_oracle, ideal_oracle_from, ideal_step, state_invocations, IdealStep};
pub use linearize::{Monitor, MonitorStats};
pub use oracle::{FnOracle, SeqOracle, StepResult};
