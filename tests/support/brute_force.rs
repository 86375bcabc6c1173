//! The brute-force linearizability checkers: independent references for
//! the monitor and for phase 2's witness search on histories of at most
//! eight complete operations.
//!
//! Both enumerate every total order of the complete operations that keeps
//! program order and the precedence order `<H` (relaxed for asynchronous
//! methods). [`brute_force`] replays each against an oracle from its
//! initial state, and accepts iff one replays with exactly the recorded
//! responses — and, for a stuck check, leaves the oracle blocking on the
//! pending operation. [`brute_force_in_set`] looks each up in a set of
//! serial histories instead. No memo, no pruning, no incremental state:
//! only the definitions.

use std::collections::HashSet;

use lineup::{History, OpIndex, Outcome, SerialHistory, SpecOp};
use lineup_monitor::{SeqOracle, StepResult};

/// Every total order of `h`'s complete operations that keeps program
/// order and `<H`, without the pairs whose left operation is asynchronous.
pub fn orders(h: &History, async_methods: &[String]) -> Vec<Vec<OpIndex>> {
    let ops = h.complete_ops();
    assert!(ops.len() <= 8, "brute force is for at most eight ops");
    // `a` must come before `b`: program order, or `a <H b` for a
    // synchronous `a`.
    let before = |a: OpIndex, b: OpIndex| {
        let same_thread = h.ops[a].thread == h.ops[b].thread;
        (same_thread && h.ops[a].call_pos < h.ops[b].call_pos)
            || (h.precedes(a, b) && !async_methods.contains(&h.ops[a].invocation.name))
    };
    let mut orders = vec![Vec::new()];
    for _ in 0..ops.len() {
        orders = orders
            .into_iter()
            .flat_map(|order: Vec<OpIndex>| {
                let next = ops.iter().copied().filter(|&o| {
                    !order.contains(&o)
                        && ops
                            .iter()
                            .all(|&p| p == o || order.contains(&p) || !before(p, o))
                });
                next.map(|o| [order.clone(), vec![o]].concat())
                    .collect::<Vec<_>>()
            })
            .collect();
    }
    orders
}

/// Whether some linearization of `h`'s complete operations replays
/// against `oracle`, which then blocks on `pending` (if given).
pub fn brute_force<O: SeqOracle>(
    oracle: &O,
    h: &History,
    pending: Option<OpIndex>,
    async_methods: &[String],
) -> bool {
    let replays = |order: &[OpIndex]| {
        let mut state = oracle.initial();
        for &op in order {
            match oracle.step(&state, h.ops[op].thread, &h.ops[op].invocation) {
                StepResult::Returns(v, next) if Some(&v) == h.ops[op].response.as_ref() => {
                    state = next
                }
                _ => return false,
            }
        }
        match pending {
            None => true,
            Some(e) => matches!(
                oracle.step(&state, h.ops[e].thread, &h.ops[e].invocation),
                StepResult::Blocks
            ),
        }
    };
    orders(h, async_methods).iter().any(|order| replays(order))
}

/// Whether some linearization of `h`'s complete operations — followed, for
/// a stuck check, by `pending` as a final pending operation — is, as a
/// serial history over `h`'s threads, a member of `spec`.
pub fn brute_force_in_set(
    spec: &HashSet<&SerialHistory>,
    h: &History,
    pending: Option<OpIndex>,
    async_methods: &[String],
) -> bool {
    let op = |i: OpIndex, outcome| SpecOp {
        thread: h.ops[i].thread,
        invocation: h.ops[i].invocation.clone(),
        outcome,
    };
    orders(h, async_methods).into_iter().any(|order| {
        let returned = |i: OpIndex| Outcome::Returned(h.ops[i].response.clone().unwrap());
        let mut ops: Vec<SpecOp> = order.into_iter().map(|i| op(i, returned(i))).collect();
        ops.extend(pending.map(|e| op(e, Outcome::Pending)));
        spec.contains(&SerialHistory {
            thread_count: h.thread_count,
            ops,
        })
    })
}
