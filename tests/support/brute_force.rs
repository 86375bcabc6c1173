//! The brute-force linearizability checker: an independent reference for
//! the monitor on histories of at most eight complete operations.
//!
//! It enumerates every total order of the complete operations that keeps
//! program order and the precedence order `<H` (relaxed for asynchronous
//! methods), replays each against the oracle from its initial state, and
//! accepts iff one replays with exactly the recorded responses — and, for
//! a stuck check, leaves the oracle blocking on the pending operation.
//! No memo, no pruning, no incremental state: only the definitions.

use lineup::{History, OpIndex};
use lineup_monitor::{SeqOracle, StepResult};

/// Whether some linearization of `h`'s complete operations replays
/// against `oracle`, which then blocks on `pending` (if given).
pub fn brute_force<O: SeqOracle>(
    oracle: &O,
    h: &History,
    pending: Option<OpIndex>,
    async_methods: &[String],
) -> bool {
    let ops = h.complete_ops();
    assert!(ops.len() <= 8, "brute force is for at most eight ops");
    // `a` must come before `b`: program order, or `a <H b` for a
    // synchronous `a`.
    let before = |a: OpIndex, b: OpIndex| {
        let same_thread = h.ops[a].thread == h.ops[b].thread;
        (same_thread && h.ops[a].call_pos < h.ops[b].call_pos)
            || (h.precedes(a, b) && !async_methods.contains(&h.ops[a].invocation.name))
    };
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
    orders.iter().any(|order| replays(order))
}
