//! Consulting the specification copies none of it.
//!
//! The determinism check and the witness search read the phase-1 set in
//! place: no serial prefix, invocation or history is cloned, whatever the
//! set's size and wherever in it the witness sits. This test pins that
//! down independently of timing noise, by counting calls into the global
//! allocator on the largest specification a 3×3 test can have: nine
//! operations that all return the same value, so that all 1,680 serial
//! histories have the same thread subhistories.
//!
//! One `#[test]` only: the counter is process-wide, and the test harness
//! runs the tests of one binary on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lineup::doc_support::CounterTarget;
use lineup::{
    find_witness, synthesize_spec, History, Invocation, SerialHistory, TestMatrix, Value,
    WitnessQuery,
};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The result of `call` and the number of allocations it made.
fn counted<R>(call: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = call();
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The history in which the threads run one after another in the given
/// order, each doing its three `inc`s: `<H` is total, so its only witness
/// is the serial history in that same order.
fn one_thread_at_a_time(order: [usize; 3]) -> History {
    let mut h = History::new(3);
    for t in order {
        for _ in 0..3 {
            let op = h.push_call(t, Invocation::new("inc"));
            h.push_return(op, Value::Unit);
        }
    }
    h
}

#[test]
fn consulting_the_specification_copies_none_of_it() {
    let matrix = TestMatrix::from_columns(vec![vec![Invocation::new("inc"); 3]; 3]);
    let (spec, _, violation) = synthesize_spec(&CounterTarget, &matrix);
    assert!(violation.is_none());
    assert_eq!(spec.len(), 1680);

    // One list of the histories and one stack of open blocks, however
    // many operations the set holds (15,120 here).
    let (nondeterminism, allocations) = counted(|| spec.check_determinism());
    assert!(nondeterminism.is_none());
    println!("check_determinism: {allocations} allocations for 1680 histories");
    assert!(allocations <= 8, "{allocations} allocations");

    let index = spec.index();
    let [first, last] = [[0, 1, 2], [2, 1, 0]].map(one_thread_at_a_time);
    let (first_q, last_q) = (
        WitnessQuery::for_full(&first),
        WitnessQuery::for_full(&last),
    );

    // `<H` is total, so the search follows one path of the automaton to
    // either witness: the first member in set order or the last, it
    // allocates the same.
    let (found, at_first) = counted(|| find_witness(&index, &first_q));
    assert_eq!(found, Some(&SerialHistory::from_history(&first)));
    let (found, at_last) = counted(|| find_witness(&index, &last_q));
    assert_eq!(found, Some(&SerialHistory::from_history(&last)));
    println!("find_witness: {at_first} allocations for thread order ABC, {at_last} for CBA");
    assert_eq!(at_first, at_last);
}
