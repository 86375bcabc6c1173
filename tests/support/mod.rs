//! Helpers shared by the equivalence suites: the per-class test matrix,
//! its debug-size truncation, a decision-free violation rendering, the
//! dispatch from a registry entry to its concrete target type, and a
//! brute-force linearizability checker (`brute_force`).

// Each suite compiles its own copy and uses a subset.
#![allow(dead_code, unused_macros, unused_imports)]

pub mod brute_force;

use lineup::{History, Invocation, TestMatrix, Violation};
use lineup_collections::registry::ClassEntry;

/// A small matrix exercising `entry`: its own regression matrix when it
/// has one, else the seeded sibling's (same component, same methods),
/// else a minimal two-column test from the target's catalog.
pub fn matrix_for(entry: &ClassEntry, all: &[ClassEntry]) -> TestMatrix {
    if entry.name == "ConcurrentBag" {
        // The bag's `TryTake` scans every per-thread list, so even a
        // two-operation unreduced baseline exceeds 10⁶ runs (POR needs
        // ~100) — compare on concurrent `Add`s, whose baseline is finite.
        return TestMatrix::from_columns(vec![
            vec![Invocation::with_int("Add", 10)],
            vec![Invocation::with_int("Add", 20)],
        ]);
    }
    if let Some(m) = entry.regression_matrix() {
        return m;
    }
    let pre = format!("{} (Pre)", entry.name);
    if let Some(m) = all
        .iter()
        .find(|e| e.name == pre)
        .and_then(|e| e.regression_matrix())
    {
        return m;
    }
    let invs = entry.target().invocations();
    let a = invs[0].clone();
    let b = invs.get(1).cloned().unwrap_or_else(|| invs[0].clone());
    TestMatrix::from_columns(vec![vec![a.clone(), b.clone()], vec![b, a]])
}

/// Shrinks a matrix so the *unreduced* exhaustive baseline stays feasible
/// in a debug-build test: at most two columns of at most two operations
/// (the reduction factors in `EXPERIMENTS.md` are measured on the full
/// matrices instead). The truncated test still exercises the class's real
/// operations and conflicts.
pub fn small(mut m: TestMatrix) -> TestMatrix {
    m.columns.truncate(2);
    if let Some(c) = m.columns.first_mut() {
        c.truncate(2);
    }
    if let Some(c) = m.columns.get_mut(1) {
        c.truncate(1);
    }
    m.finally.truncate(1);
    m
}

/// Renders the full violation list, decisions included, for the
/// byte-identical comparisons.
pub fn rendered(violations: &[Violation]) -> Vec<String> {
    violations.iter().map(|v| format!("{v:?}")).collect()
}

/// Renders each violation without its reproducing `decisions`, showing
/// histories through `show`, and sorts the result: a reduction may reach
/// a violating history through a different schedule, and in a different
/// order, than the search it is compared against.
pub fn sorted_keys(violations: &[Violation], show: impl Fn(&History) -> String) -> Vec<String> {
    let mut keys: Vec<String> = violations
        .iter()
        .map(|v| match v {
            Violation::Nondeterminism(nd) => format!("nondeterminism: {nd:?}"),
            Violation::NoWitness { history, .. } => format!("no-witness: {}", show(history)),
            Violation::StuckNoWitness {
                history, pending, ..
            } => format!("stuck-no-witness: {pending:?} {}", show(history)),
            Violation::Panic {
                message, history, ..
            } => format!("panic: {message} {}", show(history)),
        })
        .collect();
    keys.sort();
    keys
}

/// Expands to `$apply!(target)`, where `target` is the concrete target
/// of the registry entry `$entry`: the registry hands out type-erased
/// targets, and code generic over `T: TestTarget` needs the concrete type.
macro_rules! with_concrete_target {
    ($entry:expr, $apply:ident) => {{
        use lineup_collections::*;
        let entry: &lineup_collections::registry::ClassEntry = $entry;
        let variant = entry.variant;
        match entry.name.trim_end_matches(" (Pre)") {
            "Lazy Initialization" => $apply!(lazy::LazyTarget),
            "ManualResetEvent" => {
                $apply!(manual_reset_event::ManualResetEventTarget { variant })
            }
            "SemaphoreSlim" => $apply!(semaphore_slim::SemaphoreSlimTarget {
                variant,
                initial: 0
            }),
            "CountdownEvent" => $apply!(countdown_event::CountdownEventTarget {
                variant,
                initial: 2
            }),
            "ConcurrentDictionary" => {
                $apply!(concurrent_dictionary::ConcurrentDictionaryTarget { variant })
            }
            "ConcurrentQueue" => $apply!(concurrent_queue::ConcurrentQueueTarget { variant }),
            "ConcurrentStack" => $apply!(concurrent_stack::ConcurrentStackTarget { variant }),
            "ConcurrentLinkedList" => {
                $apply!(concurrent_linked_list::ConcurrentLinkedListTarget { variant })
            }
            "BlockingCollection" => {
                $apply!(blocking_collection::BlockingCollectionTarget { capacity: 2 })
            }
            "ConcurrentBag" => $apply!(concurrent_bag::ConcurrentBagTarget { variant }),
            "TaskCompletionSource" => {
                $apply!(task_completion_source::TaskCompletionSourceTarget)
            }
            "CancellationTokenSource" => {
                $apply!(cancellation_token_source::CancellationTokenSourceTarget)
            }
            "Barrier" => $apply!(barrier::BarrierTarget { participants: 2 }),
            other => panic!("registry entry `{other}` has no concrete target here"),
        }
    }};
}
pub(crate) use with_concrete_target;
