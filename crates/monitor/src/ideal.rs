//! Executable ideal sequential specifications for the four [`AdtKind`]s.
//!
//! These are the reference step functions shared by the benchmark history
//! generators (`lineup-bench`) and the online monitoring service
//! (`lineup-server`): both need the *same* oracle so that a history
//! judged linearizable offline is judged linearizable online. State is
//! the element sequence as a plain `Vec<i64>` — queue front-first, stack
//! bottom-first, set and priority queue sorted ascending.

use lineup::{AdtKind, Invocation, Value};

use crate::oracle::{FnOracle, StepResult};

/// Step-function type of the ideal oracles ([`ideal_step`]).
pub type IdealStep = fn(&Vec<i64>, &Invocation) -> StepResult<Vec<i64>>;

/// An executable ideal sequential specification for `kind`, usable as a
/// [`Monitor`](crate::Monitor) oracle, starting from the empty state.
pub fn ideal_oracle(kind: AdtKind) -> FnOracle<Vec<i64>, IdealStep> {
    ideal_oracle_from(kind, Vec::new())
}

/// Like [`ideal_oracle`], but starting from a known element sequence —
/// the online monitor uses this to resume checking after discarding a
/// closed history window whose end state is `state`.
pub fn ideal_oracle_from(kind: AdtKind, state: Vec<i64>) -> FnOracle<Vec<i64>, IdealStep> {
    FnOracle::new(state, ideal_step(kind))
}

/// The raw step function behind [`ideal_oracle`] — also used to drive
/// serial simulations directly.
pub fn ideal_step(kind: AdtKind) -> IdealStep {
    match kind {
        AdtKind::Queue => queue_step,
        AdtKind::Stack => stack_step,
        AdtKind::Set => set_step,
        AdtKind::PriorityQueue => pqueue_step,
    }
}

/// Synthesizes the insert sequence that rebuilds `state` on an empty
/// object: queue elements enqueue front-first, stack elements push
/// bottom-first, set/priority-queue elements insert in sorted order.
/// Feeding these to [`Monitor::with_adt_init`](crate::Monitor::with_adt_init)
/// primes the specialized checkers with the same start state as
/// [`ideal_oracle_from`] primes the Wing–Gong search.
pub fn state_invocations(kind: AdtKind, state: &[i64]) -> Vec<Invocation> {
    let name = match kind {
        AdtKind::Queue => "Enqueue",
        AdtKind::Stack => "Push",
        AdtKind::Set => "TryAdd",
        AdtKind::PriorityQueue => "Insert",
    };
    state
        .iter()
        .map(|&v| Invocation::with_int(name, v))
        .collect()
}

/// Extracts the single int argument, or a `Panics` step result — a
/// malformed invocation is "the spec rejects this", not a crash, so the
/// online monitor can flag it instead of dying.
macro_rules! int_arg {
    ($inv:expr) => {
        match $inv.args.first() {
            Some(Value::Int(v)) => *v,
            other => {
                return StepResult::Panics(format!(
                    "ideal oracle: expected one int argument, got {other:?}"
                ))
            }
        }
    };
}

#[allow(clippy::ptr_arg)]
fn queue_step(s: &Vec<i64>, inv: &Invocation) -> StepResult<Vec<i64>> {
    // Both spellings of the alphabet the specialized queue checker takes.
    match inv.name.as_str() {
        "Enqueue" | "Add" => {
            let mut next = s.clone();
            next.push(int_arg!(inv));
            StepResult::Returns(Value::Unit, next)
        }
        "TryDequeue" | "TryTake" => match s.first() {
            Some(&v) => StepResult::Returns(Value::some(Value::int(v)), s[1..].to_vec()),
            None => StepResult::Returns(Value::Fail, s.clone()),
        },
        other => StepResult::Panics(format!("queue oracle: unknown op {other}")),
    }
}

#[allow(clippy::ptr_arg)]
fn stack_step(s: &Vec<i64>, inv: &Invocation) -> StepResult<Vec<i64>> {
    match inv.name.as_str() {
        "Push" => {
            let mut next = s.clone();
            next.push(int_arg!(inv));
            StepResult::Returns(Value::Unit, next)
        }
        "TryPop" => match s.last() {
            Some(&v) => StepResult::Returns(Value::some(Value::int(v)), s[..s.len() - 1].to_vec()),
            None => StepResult::Returns(Value::Fail, s.clone()),
        },
        // Up to n elements off the top, returned top-first.
        "TryPopRangeOne" | "TryPopRangeTwo" | "TryPopRangeFour" => {
            let n = match inv.name.as_str() {
                "TryPopRangeOne" => 1,
                "TryPopRangeTwo" => 2,
                _ => 4,
            };
            let rest = s.len().saturating_sub(n);
            let popped = s[rest..].iter().rev().copied();
            StepResult::Returns(Value::int_seq(popped), s[..rest].to_vec())
        }
        other => StepResult::Panics(format!("stack oracle: unknown op {other}")),
    }
}

#[allow(clippy::ptr_arg)]
fn set_step(s: &Vec<i64>, inv: &Invocation) -> StepResult<Vec<i64>> {
    // Argless read-only queries come first; everything below keys on an
    // int argument.
    if inv.name == "Count" {
        return StepResult::Returns(Value::int(s.len() as i64), s.clone());
    }
    let k = int_arg!(inv);
    let found = s.binary_search(&k);
    match inv.name.as_str() {
        "TryAdd" => match found {
            Ok(_) => StepResult::Returns(Value::Bool(false), s.clone()),
            Err(pos) => {
                let mut next = s.clone();
                next.insert(pos, k);
                StepResult::Returns(Value::Bool(true), next)
            }
        },
        // The payload of a successful remove is the key itself — a pure
        // function of the key, as the specialized set checker assumes.
        "TryRemove" => match found {
            Ok(pos) => {
                let mut next = s.clone();
                next.remove(pos);
                StepResult::Returns(Value::some(Value::int(k)), next)
            }
            Err(_) => StepResult::Returns(Value::Fail, s.clone()),
        },
        "ContainsKey" => StepResult::Returns(Value::Bool(found.is_ok()), s.clone()),
        other => StepResult::Panics(format!("set oracle: unknown op {other}")),
    }
}

#[allow(clippy::ptr_arg)]
fn pqueue_step(s: &Vec<i64>, inv: &Invocation) -> StepResult<Vec<i64>> {
    match inv.name.as_str() {
        "Insert" => {
            let p = int_arg!(inv);
            let mut next = s.clone();
            let pos = next.partition_point(|&q| q <= p);
            next.insert(pos, p);
            StepResult::Returns(Value::Unit, next)
        }
        "ExtractMin" => match s.first() {
            Some(&v) => StepResult::Returns(Value::some(Value::int(v)), s[1..].to_vec()),
            None => StepResult::Returns(Value::Fail, s.clone()),
        },
        other => StepResult::Panics(format!("pqueue oracle: unknown op {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SeqOracle;
    use crate::Monitor;
    use lineup::{FallbackReason, History};

    fn run(kind: AdtKind, state: Vec<i64>, inv: Invocation) -> (Value, Vec<i64>) {
        match ideal_step(kind)(&state, &inv) {
            StepResult::Returns(v, next) => (v, next),
            other => panic!("unexpected step result: {other:?}"),
        }
    }

    #[test]
    fn queue_is_fifo() {
        let (v, s) = run(AdtKind::Queue, vec![1, 2], Invocation::new("TryDequeue"));
        assert_eq!(v, Value::some(Value::int(1)));
        assert_eq!(s, vec![2]);
    }

    #[test]
    fn stack_is_lifo() {
        let (v, s) = run(AdtKind::Stack, vec![1, 2], Invocation::new("TryPop"));
        assert_eq!(v, Value::some(Value::int(2)));
        assert_eq!(s, vec![1]);
    }

    #[test]
    fn stack_pops_a_range_top_first() {
        let (v, s) = run(
            AdtKind::Stack,
            vec![1, 2, 3],
            Invocation::new("TryPopRangeTwo"),
        );
        assert_eq!(v, Value::int_seq(vec![3, 2]));
        assert_eq!(s, vec![1]);
        let (v, s) = run(AdtKind::Stack, vec![1], Invocation::new("TryPopRangeFour"));
        assert_eq!(v, Value::int_seq(vec![1]));
        assert!(s.is_empty());
    }

    #[test]
    fn state_invocations_rebuild_the_state() {
        for kind in AdtKind::ALL {
            let state = match kind {
                AdtKind::Queue | AdtKind::Stack => vec![5, 3, 9],
                _ => vec![3, 5, 9], // set/pqueue states are kept sorted
            };
            let step = ideal_step(kind);
            let mut s: Vec<i64> = Vec::new();
            for inv in state_invocations(kind, &state) {
                match step(&s, &inv) {
                    StepResult::Returns(_, next) => s = next,
                    other => panic!("rebuild step failed: {other:?}"),
                }
            }
            assert_eq!(s, state, "{kind}");
        }
    }

    #[test]
    fn ideal_oracle_from_resumes_mid_state() {
        let oracle = ideal_oracle_from(AdtKind::Queue, vec![7, 8]);
        let s0 = oracle.initial();
        match oracle.step(&s0, 0, &Invocation::new("TryDequeue")) {
            StepResult::Returns(v, _) => assert_eq!(v, Value::some(Value::int(7))),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn queue_oracle_takes_the_add_take_alphabet() {
        // Add(1) ∥ Add(1), then TryTake → 1 twice. The duplicate value
        // sends the check to the Wing–Gong fallback, so the oracle must
        // accept the alphabet the specialized queue checker accepts.
        let mut h = History::new(2);
        let a = h.push_call(0, Invocation::with_int("Add", 1));
        let b = h.push_call(1, Invocation::with_int("Add", 1));
        h.push_return(a, Value::Unit);
        h.push_return(b, Value::Unit);
        for _ in 0..2 {
            let t = h.push_call(0, Invocation::new("TryTake"));
            h.push_return(t, Value::some(Value::int(1)));
        }
        let monitor = Monitor::new(ideal_oracle(AdtKind::Queue)).with_adt_kind(AdtKind::Queue);
        assert!(monitor.check_full(&h, &[]));
        let paths = monitor.stats().paths;
        assert_eq!(paths.fallbacks_for(FallbackReason::DuplicateValue), 1);
    }
}
