//! Partial-order reduction adds no allocation to a schedule point.
//!
//! The reduced search is only worth its bookkeeping if that bookkeeping is
//! cheap: happens-before clocks, per-object records, backtrack demands and
//! DFS nodes all live in buffers that are recycled from run to run. This
//! test pins that down independently of timing noise, by counting calls
//! into the global allocator: once an exploration's buffers are warm, a
//! run with POR on allocates no more than a run with POR off (which still
//! pays for the setup closure, the thread bodies and the run result).
//!
//! One `#[test]` only: the counter is process-wide, and the test harness
//! runs the tests of one binary on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lineup_sched::{explore, mark_history_event, op_boundary, Config, Execution};
use lineup_sync::Atomic;

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

/// Two threads over two atomics, shaped like a Line-Up test: operations
/// bracketed by history appends and separated by boundaries. Writes to a
/// shared cell race (backtrack demands), loads of it commute (sleep sets),
/// and the appends exercise the history pseudo-object.
fn program(ex: &mut Execution) {
    let a = Arc::new(Atomic::new(0usize));
    let b = Arc::new(Atomic::new(0usize));
    for me in 0..2 {
        let (mine, theirs) = match me {
            0 => (Arc::clone(&a), Arc::clone(&b)),
            _ => (Arc::clone(&b), Arc::clone(&a)),
        };
        ex.spawn(move || {
            for round in 0..2 {
                mark_history_event();
                mine.fetch_add(1);
                let seen = theirs.load();
                let _ = theirs.compare_exchange(seen, seen + round);
                mark_history_event();
                op_boundary();
            }
        });
    }
}

/// Runs excluded from the count at the start of an exploration, while the
/// strategy's path and the run state's buffers grow to their final size.
const WARM_UP_RUNS: u64 = 64;

/// Allocator calls per run over one exploration, after its warm-up runs.
fn allocations_per_run(por: bool) -> f64 {
    let config = Config::exhaustive().with_por(por);
    let (mut runs, mut warm) = (0u64, 0u64);
    explore(&config, program, |_| {
        runs += 1;
        if runs == WARM_UP_RUNS {
            warm = ALLOCATIONS.load(Ordering::Relaxed);
        }
        ControlFlow::Continue(())
    });
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - warm;
    assert!(
        runs >= 4 * WARM_UP_RUNS,
        "the program must outlast its warm-up: {runs} runs"
    );
    counted as f64 / (runs - WARM_UP_RUNS) as f64
}

#[test]
fn por_adds_no_allocation_per_run() {
    // One exploration each to start worker threads, fiber stacks and
    // thread-locals, which outlive an exploration.
    allocations_per_run(false);
    allocations_per_run(true);

    let off = allocations_per_run(false);
    let on = allocations_per_run(true);
    println!("allocations per run: {on:.2} with POR, {off:.2} without");
    assert!(
        on <= off + 1.0,
        "POR must not allocate per schedule point: {on:.2} allocations per \
         run with POR against {off:.2} without"
    );
}
