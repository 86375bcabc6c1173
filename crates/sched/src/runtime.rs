//! The cooperative runtime: baton passing between virtual threads and the
//! instrumentation API used by `lineup-sync` primitives.
//!
//! Exactly one virtual thread holds the *baton* at any time. Every
//! instrumented action calls [`schedule`], which records the access, asks
//! the scheduling strategy for the next thread, and hands the baton over.
//! Because all shared-memory accesses of the component under test happen
//! between schedule points while holding the baton, executions are
//! serializable and fully deterministic given the sequence of scheduling
//! choices — the property stateless model checking relies on for replay.
//!
//! # Baton mechanics
//!
//! The handoff is *targeted*: every virtual thread (and the controller)
//! owns a `WakeSlot`, a one-token parker. The thread releasing the baton
//! signals exactly the chosen successor's slot — no shared condition
//! variable, no broadcast waking every parked thread just so one can
//! proceed. A token can be deposited before the receiver parks (the run's
//! first decision may land before a pool worker reaches its slot), so the
//! slot stores the token rather than an edge-triggered notification.
//!
//! When the strategy's next choice is the thread *already running* — the
//! common case while depth-first search extends the current branch — the
//! thread takes the same-thread continuation fast path: the schedule
//! *point* still happens in full (pending declaration, strategy decision,
//! schedule/decision recording, POR footprint settlement), but the
//! *handoff* is skipped — no park, no unpark, no OS context switch. Only
//! the handoff is skippable: skipping the point itself would change which
//! interleavings exist and break replay. [`Config::fast_path`](crate::Config::fast_path) forces the
//! slow slot-based handoff for equivalence testing.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::events::AccessKind;
use crate::ids::{ObjId, ThreadId};
use crate::por::{AccessIntent, Pending};
use crate::state::{BlockKind, RtState, RunOutcome, Status};

/// A wakeup token deposited in a [`WakeSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// Proceed: the receiver holds the baton (or, for the controller, the
    /// run is over).
    Run,
    /// The run ended while the receiver was parked: unwind via [`Abort`].
    Abort,
}

/// A one-token parker: the targeted replacement for the old shared
/// `Condvar` + `notify_all`. `signal` deposits a token and wakes (at most)
/// the one owner; `wait` parks until a token is present and consumes it.
/// Storing the token makes the protocol immune to signal-before-park
/// races. The scheduling protocol guarantees at most one token is ever
/// outstanding per slot (only the baton holder makes decisions, and a run
/// ends exactly once); `signal` asserts it in debug builds.
///
/// The implementation deliberately avoids a `Condvar`: on a single core,
/// depositing the token wakes the receiver *preemptively*, and with a
/// condvar the preempted signaler still holds the condvar's internal
/// glibc lock — the receiver immediately blocks on it, turning one
/// context switch per handoff into nearly three (measured ~2.8 on a
/// one-core host). Instead the slot parks through `std::thread::park`,
/// whose `unpark` is called with no lock held, so a preempted signaler
/// never stands between the receiver and its token.
///
/// Each slot is owned by exactly one parking thread for its whole life
/// (the worker pool binds virtual-thread ids to pool threads; the
/// controller slot is owned by the exploring thread). The owner registers
/// its handle on first `wait`; a `signal` racing with that first wait is
/// safe because both sides take the token mutex — if the signaler's
/// critical section comes second it observes the registered owner and
/// unparks it, and if it comes first the waiter observes the token.
pub(crate) struct WakeSlot {
    token: Mutex<Option<Wake>>,
    /// The one thread that parks on this slot, registered at its first
    /// `wait`. Written before the waiter's first token check and read
    /// inside the signaler's token critical section (see above).
    owner: std::sync::OnceLock<std::thread::Thread>,
}

impl WakeSlot {
    pub fn new() -> Self {
        WakeSlot {
            token: Mutex::new(None),
            owner: std::sync::OnceLock::new(),
        }
    }

    /// Deposits a token and wakes the owner if parked. The unpark happens
    /// after the token lock is released: waking the receiver while
    /// holding any lock it needs invites wakeup preemption to stall both
    /// threads (see the type-level docs).
    pub fn signal(&self, w: Wake) {
        {
            let mut t = self.token.lock().unwrap();
            debug_assert!(t.is_none(), "wakeup slot already holds {t:?}");
            *t = Some(w);
        }
        if let Some(owner) = self.owner.get() {
            owner.unpark();
        }
    }

    /// Like [`signal`](WakeSlot::signal), but overwrites any token already
    /// present and tolerates a poisoned slot. Only used when tearing down
    /// a run after a worker thread died, where the single-token invariant
    /// may no longer hold.
    pub fn force_signal(&self, w: Wake) {
        {
            let mut t = self.token.lock().unwrap_or_else(|e| e.into_inner());
            *t = Some(w);
        }
        if let Some(owner) = self.owner.get() {
            owner.unpark();
        }
    }

    /// Parks until a token is deposited, then consumes and returns it.
    /// Must only ever be called from the slot's owning thread.
    pub fn wait(&self) -> Wake {
        self.register_owner();
        loop {
            if let Some(w) = self.token.lock().unwrap().take() {
                return w;
            }
            // A stale park token (e.g. an unpark that raced a previous
            // consumed wait, or channel internals unparking this thread)
            // only makes the loop re-check; a missing one cannot occur —
            // the signaler either saw our registration and unparks, or
            // ran before it and its token is already visible above.
            std::thread::park();
        }
    }

    /// Like [`wait`](WakeSlot::wait) but gives up after `dur`, returning
    /// `None`. Used by the controller so a dying worker thread cannot hang
    /// the exploration (it periodically re-checks worker liveness).
    pub fn wait_timeout(&self, dur: Duration) -> Option<Wake> {
        self.register_owner();
        let deadline = std::time::Instant::now() + dur;
        loop {
            if let Some(w) = self.token.lock().unwrap().take() {
                return Some(w);
            }
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return self.token.lock().unwrap().take();
            };
            std::thread::park_timeout(remaining);
        }
    }

    fn register_owner(&self) {
        if self.owner.get().is_none() {
            let _ = self.owner.set(std::thread::current());
            debug_assert_eq!(
                self.owner.get().map(std::thread::Thread::id),
                Some(std::thread::current().id()),
                "a wakeup slot has exactly one parking owner"
            );
        }
    }
}

/// The state shared between the controller and the virtual threads.
pub(crate) struct Shared {
    pub state: Mutex<RtState>,
    /// The controller's own wakeup slot, signaled exactly once per run by
    /// whichever thread ends it (see [`finish_run_wakeups`]).
    pub controller: WakeSlot,
}

impl Shared {
    pub fn new(state: RtState) -> Self {
        Shared {
            state: Mutex::new(state),
            controller: WakeSlot::new(),
        }
    }
}

/// Panic payload used to unwind virtual threads parked when a run ends
/// early (deadlock, livelock, violation stop). Caught by the worker pool.
pub(crate) struct Abort;

/// Pseudo thread id of the per-run setup closure (which constructs the
/// component under test but is not itself scheduled).
pub(crate) const SETUP_TID: usize = usize::MAX;
/// Pseudo thread id used when primitives run outside any model execution
/// (plain, unmodelled use of `lineup-sync` types).
const OUTSIDE_TID: usize = usize::MAX - 1;

struct TlsCtx {
    shared: Arc<Shared>,
    tid: usize,
    /// The calling virtual thread's own wakeup slot (`None` for the setup
    /// closure). Cached here so the baton handoff needs no state-lock
    /// access — and no per-handoff `Arc` refcount traffic — to find where
    /// to park.
    slot: Option<Arc<WakeSlot>>,
}

thread_local! {
    static CURRENT: RefCell<Option<TlsCtx>> = const { RefCell::new(None) };
}

pub(crate) fn set_tls(shared: Arc<Shared>, tid: usize, slot: Option<Arc<WakeSlot>>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(TlsCtx { shared, tid, slot }));
}

/// Retargets the current-thread id of an existing context. Used by the
/// fiber backend, where every virtual thread runs on the same OS thread
/// and each stack switch must move the TLS identity with the baton (the
/// non-switching instrumentation — [`log_access`], [`current_thread`],
/// [`register_object`], [`unblock`] — reads it).
#[cfg(all(feature = "fibers", target_arch = "x86_64", target_os = "linux"))]
pub(crate) fn set_tls_tid(tid: usize) {
    CURRENT.with(|c| {
        c.borrow_mut()
            .as_mut()
            .expect("fiber runs install a context before switching")
            .tid = tid;
    });
}

pub(crate) fn clear_tls() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Runs `f` with the virtual-thread context, or returns `None` when the
/// caller is the setup closure or outside the model entirely.
fn with_virtual_ctx<R>(f: impl FnOnce(&Arc<Shared>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        match borrow.as_ref() {
            Some(ctx) if ctx.tid != SETUP_TID => Some(f(&ctx.shared, ctx.tid)),
            _ => None,
        }
    })
}

/// Like [`with_virtual_ctx`] but also hands `f` the thread's own wakeup
/// slot, for the paths that park.
fn with_parking_ctx<R>(f: impl FnOnce(&Arc<Shared>, usize, &WakeSlot) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        match borrow.as_ref() {
            Some(ctx) if ctx.tid != SETUP_TID => {
                let slot = ctx.slot.as_ref().expect("virtual threads own a slot");
                Some(f(&ctx.shared, ctx.tid, slot))
            }
            _ => None,
        }
    })
}

/// Runs `f` with any model context (virtual thread or setup closure).
fn with_any_ctx<R>(f: impl FnOnce(&Arc<Shared>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        borrow.as_ref().map(|ctx| f(&ctx.shared, ctx.tid))
    })
}

/// Whether the calling OS thread carries *any* model context (virtual
/// thread or setup closure). Used to reject native-mode registration from
/// inside a model execution.
pub(crate) fn has_model_ctx() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Returns `true` when the calling OS thread is a virtual thread of an
/// active model execution (schedule points are live). The setup closure
/// and plain unmodelled code return `false`.
pub fn is_model_active() -> bool {
    CURRENT.with(|c| matches!(c.borrow().as_ref(), Some(ctx) if ctx.tid != SETUP_TID))
}

/// Returns the id of the calling virtual thread. On an OS thread
/// registered for [native mode](crate::native) this returns the thread's
/// unique native id. Otherwise, outside a virtual thread, it returns a
/// reserved pseudo id (stable within the setup closure and within
/// unmodelled code), so primitives can use it as an ownership key
/// everywhere.
pub fn current_thread() -> ThreadId {
    CURRENT
        .with(|c| match c.borrow().as_ref() {
            Some(ctx) => Some(ThreadId(ctx.tid)),
            None => crate::native::current_native_tid(),
        })
        .unwrap_or(ThreadId(OUTSIDE_TID))
}

/// Registers a new model object (called by primitive constructors) and
/// returns its id. Deterministic across replays because registration order
/// is determined by the schedule. Outside a model execution returns the
/// pseudo id [`AccessEvent::NO_OBJ`](crate::AccessEvent::NO_OBJ).
pub fn register_object() -> ObjId {
    with_any_ctx(|shared, _| {
        let mut st = shared.state.lock().unwrap();
        let id = ObjId(st.next_obj);
        st.next_obj += 1;
        id
    })
    .unwrap_or(crate::events::AccessEvent::NO_OBJ)
}

/// Claims the baton handoff to the thread just chosen by
/// [`pick_next`](RtState::pick_next): counts it and returns the
/// successor's slot. The caller must **release the state lock before
/// signaling** the returned slot — waking the successor while still
/// holding the lock invites the kernel's wakeup preemption to run it
/// straight into the lock we hold, turning one context switch per handoff
/// into three (wake, block on the state mutex, wake again). Counted in
/// [`handoffs`](crate::ExploreStats::handoffs) — including self-handoffs
/// on the forced slow path, which go through the slot machinery too.
pub(crate) fn take_handoff(st: &mut RtState) -> Arc<WakeSlot> {
    let next = st
        .current
        .expect("take_handoff requires a scheduled thread");
    st.handoffs += 1;
    Arc::clone(&st.slots[next])
}

/// The wakeups ending one run, gathered under the state lock by
/// [`finish_run_wakeups`] and fired by [`RunTeardown::fire`] *after* the
/// lock is released (same wakeup-preemption hazard as [`take_handoff`]:
/// every thread woken under the lock would immediately block on it).
pub(crate) struct RunTeardown {
    abort: Vec<Arc<WakeSlot>>,
}

impl RunTeardown {
    /// Deposits `Abort` in every gathered slot and wakes the controller.
    /// Must be called with the state lock released.
    pub fn fire(self, shared: &Shared) {
        for slot in &self.abort {
            slot.signal(Wake::Abort);
        }
        shared.controller.signal(Wake::Run);
    }
}

/// Ends the run on the wakeup-slot level: gathers the slot of every
/// unfinished thread other than `me` (they are all parked — only the
/// baton holder executes) for an `Abort` token, plus the controller wake.
/// Called exactly once per run by whichever context ends it: the thread
/// whose schedule point saw the run end, the finishing/panicking thread,
/// or the controller when the initial decision already ends the run (zero
/// threads). The caller drops the state lock, then fires the teardown.
pub(crate) fn finish_run_wakeups(st: &mut RtState, me: Option<usize>) -> RunTeardown {
    let mut abort = Vec::new();
    for t in 0..st.threads.len() {
        if Some(t) != me && st.threads[t].status != Status::Finished {
            abort.push(Arc::clone(&st.slots[t]));
        }
    }
    RunTeardown { abort }
}

/// The schedule point under the fiber backend. The *point* is the same
/// code path as the OS-thread version below — pending declaration,
/// point/step accounting, `pick_next` with all its POR and livelock
/// bookkeeping, fast-path check, handoff counting — only the handoff
/// itself differs: a userspace stack switch instead of a slot
/// signal/park pair. Holding no `RefCell` borrow and no state-lock guard
/// across the switch is load-bearing: the resumed fiber runs on the same
/// OS thread and takes both again.
fn fiber_schedule_point(
    rt: *mut crate::fiber::FiberRt,
    tid: usize,
    kind: Option<AccessKind>,
    pending: Pending,
) {
    crate::fiber::check_stack(rt, tid);
    let shared = unsafe { crate::fiber::shared_of(rt) };
    let mut st = shared.state.lock().unwrap();
    st.set_pending(tid, pending);
    st.note_point(tid, kind);
    let after_yield = kind == Some(AccessKind::Yield);
    if !st.pick_next(after_yield) {
        // Run ended. No slots to tear down — no OS thread is parked; the
        // started fibers are unwound by the controller, which the abort
        // unwind below switches back to (see `fiber_entry`).
        drop(st);
        std::panic::panic_any(Abort);
    }
    if st.current == Some(tid) && st.config.fast_path {
        st.fast_path_steps += 1;
        return;
    }
    st.handoffs += 1;
    let next = st.current.expect("a thread was scheduled");
    drop(st);
    match unsafe { crate::fiber::fiber_handoff(rt, tid, next) } {
        Wake::Run => {}
        Wake::Abort => std::panic::panic_any(Abort),
    }
}

/// [`block_current`] under the fiber backend; see [`fiber_schedule_point`].
fn fiber_block_current(rt: *mut crate::fiber::FiberRt, tid: usize, kind: BlockKind) -> BlockResult {
    crate::fiber::check_stack(rt, tid);
    let shared = unsafe { crate::fiber::shared_of(rt) };
    let mut st = shared.state.lock().unwrap();
    st.threads[tid].timed_fired = false;
    st.set_pending(
        tid,
        match kind {
            BlockKind::Untimed => Pending::NoObj,
            BlockKind::Timed => Pending::Unknown,
        },
    );
    st.set_status(tid, Status::Blocked(kind));
    if !st.pick_next(false) {
        drop(st);
        std::panic::panic_any(Abort);
    }
    if st.current == Some(tid) && st.config.fast_path {
        st.fast_path_steps += 1;
        let fired = st.threads[tid].timed_fired;
        st.threads[tid].timed_fired = false;
        return if fired {
            BlockResult::TimedOut
        } else {
            BlockResult::Resumed
        };
    }
    st.handoffs += 1;
    let next = st.current.expect("a thread was scheduled");
    drop(st);
    match unsafe { crate::fiber::fiber_handoff(rt, tid, next) } {
        Wake::Run => {}
        Wake::Abort => std::panic::panic_any(Abort),
    }
    let mut st = shared.state.lock().unwrap();
    if st.threads[tid].timed_fired {
        st.threads[tid].timed_fired = false;
        BlockResult::TimedOut
    } else {
        BlockResult::Resumed
    }
}

fn schedule_point(kind: Option<AccessKind>, pending: Pending) {
    if let Some((rt, tid)) = crate::fiber::fiber_ctx() {
        return fiber_schedule_point(rt, tid, kind, pending);
    }
    let modelled = with_parking_ctx(|shared, tid, slot| {
        let mut st = shared.state.lock().unwrap();
        st.set_pending(tid, pending);
        st.note_point(tid, kind);
        let after_yield = kind == Some(AccessKind::Yield);
        let cont = st.pick_next(after_yield);
        if !cont {
            // Run ended (possibly because of this very thread blocking
            // serially or exhausting the step budget): wake everyone for
            // teardown, then unwind.
            let teardown = finish_run_wakeups(&mut st, Some(tid));
            drop(st);
            teardown.fire(shared);
            std::panic::panic_any(Abort);
        }
        if st.current == Some(tid) && st.config.fast_path {
            // Same-thread continuation: the scheduling decision is made
            // and recorded; only the baton handoff is skipped.
            st.fast_path_steps += 1;
            return;
        }
        let next = take_handoff(&mut st);
        drop(st);
        next.signal(Wake::Run);
        match slot.wait() {
            Wake::Run => {}
            Wake::Abort => std::panic::panic_any(Abort),
        }
    });
    if modelled.is_none() {
        // Outside the model the same points feed native-mode yield
        // injection (a no-op for unregistered threads, except that an
        // explicit yield still yields the OS thread).
        crate::native::on_schedule_point(kind == Some(AccessKind::Yield));
    }
}

/// A schedule point: lets the scheduler pick the next thread, and parks
/// the caller until it runs again.
///
/// Called by every instrumented primitive operation in `lineup-sync`
/// *before* the operation's effect, so the enumeration of schedules covers
/// every interleaving of instrumented actions. The effect itself is
/// recorded afterwards with [`log_access`].
///
/// Equivalent to [`schedule_access`] with [`AccessIntent::Write`] — the
/// conservative default for partial-order reduction. Primitives whose
/// upcoming effect is read-only should call [`schedule_access`] with
/// [`AccessIntent::Read`] instead so POR can commute them.
///
/// Outside a virtual thread (in the setup closure, or in plain unmodelled
/// code) this is a no-op, so instrumented primitives work transparently
/// everywhere.
pub fn schedule(obj: ObjId) {
    schedule_access(obj, AccessIntent::Write);
}

/// A schedule point that declares the *intent* of the upcoming effect on
/// `obj`, so partial-order reduction knows (before the effect runs and is
/// logged) whether the pending transition can conflict with others.
/// Read intents commute with each other; anything the declaration
/// understates is caught conservatively by the access log afterwards.
pub fn schedule_access(obj: ObjId, intent: AccessIntent) {
    schedule_point(
        None,
        Pending::Obj {
            obj: obj.0,
            write: intent == AccessIntent::Write,
        },
    );
}

/// Marks a history event (an operation call or return observed by the
/// Line-Up harness) on the current transition. History events order the
/// observation itself, so partial-order reduction treats the marking
/// transition as conflicting with every other pending transition — two
/// schedules that swap history events are *not* equivalent. A no-op
/// outside a virtual thread.
pub fn mark_history_event() {
    with_virtual_ctx(|shared, _| {
        let mut st = shared.state.lock().unwrap();
        st.note_mark();
    });
}

/// Records the effect of an instrumented action in the access log (no
/// context switch). Called by primitives after their schedule point, while
/// the action's outcome is known — so the log records, e.g., whether a
/// compare-and-swap succeeded or a lock acquire was granted. A no-op
/// outside a virtual thread.
pub fn log_access(obj: ObjId, kind: AccessKind) {
    with_virtual_ctx(|shared, tid| {
        let mut st = shared.state.lock().unwrap();
        st.note_effect(tid, obj, kind);
    });
}

/// A voluntary yield inside a spin loop. The fair scheduler deprioritizes
/// the caller in favour of other enabled threads; a full round of yields
/// with no progress is declared a fair livelock (paper §4: "support for
/// fairness is important because many of the concurrent data types use
/// spin-loops for synchronization").
pub fn yield_point() {
    schedule_point(Some(AccessKind::Yield), Pending::NoObj);
}

/// An operation boundary, emitted by the Line-Up harness between the
/// operations of a test. Serial mode only switches threads here; in
/// concurrent mode switching here is free (it costs no preemption).
pub fn op_boundary() {
    schedule_point(Some(AccessKind::OpBoundary), Pending::NoObj);
}

/// How a blocked thread was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockResult {
    /// The thread was explicitly unblocked (lock granted, monitor pulsed).
    Resumed,
    /// The modelled timeout fired: the scheduler chose to run the thread
    /// while it was still blocked on a [`BlockKind::Timed`] wait.
    TimedOut,
}

/// Blocks the calling thread until [`unblock`] is called for it (or, for
/// [`BlockKind::Timed`], until the scheduler fires the modelled timeout).
///
/// The caller is responsible for having registered itself in the wait set
/// of whatever primitive it blocks on *before* calling this, and for
/// re-checking the wait condition afterwards.
///
/// On an OS thread registered for [native mode](crate::native) this parks
/// the real thread instead (timed waits become real timed waits of
/// [`native::TIMED_WAIT`](crate::native::TIMED_WAIT)).
///
/// # Panics
///
/// Panics when called outside a virtual thread and outside native mode:
/// blocking needs a scheduler (virtual or the OS one). (Unmodelled use of
/// blocking operations — e.g. `Take` on an empty collection on a plain
/// thread — is not supported; use the model checker or a native-mode
/// stress run to explore blocking behavior.)
pub fn block_current(kind: BlockKind) -> BlockResult {
    if let Some((rt, tid)) = crate::fiber::fiber_ctx() {
        return fiber_block_current(rt, tid, kind);
    }
    with_parking_ctx(|shared, tid, slot| {
        let mut st = shared.state.lock().unwrap();
        st.threads[tid].timed_fired = false;
        // A plain block parks without touching shared data once resumed
        // (the resumer re-checks the wait condition); a timed block may
        // mutate a wait set on the timeout path without logging, so its
        // pending effect is unknown to POR.
        st.set_pending(
            tid,
            match kind {
                BlockKind::Untimed => Pending::NoObj,
                BlockKind::Timed => Pending::Unknown,
            },
        );
        st.set_status(tid, Status::Blocked(kind));
        let cont = st.pick_next(false);
        if !cont {
            let teardown = finish_run_wakeups(&mut st, Some(tid));
            drop(st);
            teardown.fire(shared);
            std::panic::panic_any(Abort);
        }
        if st.current == Some(tid) && st.config.fast_path {
            // Only reachable for timed waits (an untimed-blocked thread is
            // not schedulable): the scheduler chose this thread, firing
            // its modelled timeout — continue inline without parking.
            st.fast_path_steps += 1;
            let fired = st.threads[tid].timed_fired;
            st.threads[tid].timed_fired = false;
            return if fired {
                BlockResult::TimedOut
            } else {
                BlockResult::Resumed
            };
        }
        let next = take_handoff(&mut st);
        drop(st);
        next.signal(Wake::Run);
        match slot.wait() {
            Wake::Run => {}
            Wake::Abort => std::panic::panic_any(Abort),
        }
        let mut st = shared.state.lock().unwrap();
        if st.threads[tid].timed_fired {
            st.threads[tid].timed_fired = false;
            BlockResult::TimedOut
        } else {
            BlockResult::Resumed
        }
    })
    .or_else(|| crate::native::block_native(kind))
    .expect("lineup-sched: cannot block outside a model execution or native mode")
}

/// Makes the given thread runnable again. Called by primitives when a lock
/// is released or a monitor is pulsed. Does not switch threads; the woken
/// thread re-competes at the caller's next schedule point. Dispatches on
/// the *target* id: a thread parked in [native mode](crate::native) is
/// unparked regardless of who calls. Otherwise a no-op outside a virtual
/// thread (nothing can be blocked then).
pub fn unblock(thread: ThreadId) {
    if crate::native::is_native_tid(thread) {
        crate::native::unblock_native(thread);
        return;
    }
    with_virtual_ctx(|shared, _| {
        let mut st = shared.state.lock().unwrap();
        if matches!(st.status(thread.0), Status::Blocked(_)) {
            st.threads[thread.0].timed_fired = false;
            st.set_status(thread.0, Status::Runnable);
            // POR: the wake orders the woken thread after the waker and
            // removes it from the sleep set (its enabledness changed).
            st.note_wake(thread.0);
            // Unblocking is progress: reset fair-livelock tracking.
            st.yield_rounds = 0;
            for t in &mut st.threads {
                t.yielded_since_progress = false;
                t.consecutive_yields = 0;
            }
        }
    });
}

/// Makes a nondeterministic boolean choice, enumerated by the explorer
/// like a scheduling choice. Useful for modelling environment
/// nondeterminism beyond scheduling (the timed-lock timeouts use the
/// dedicated [`BlockKind::Timed`] mechanism instead). In [native
/// mode](crate::native) the choice is a seeded coin flip (environment
/// nondeterminism is real in a stress run); otherwise, outside a virtual
/// thread, it is deterministically `false`.
pub fn choose_bool() -> bool {
    with_virtual_ctx(|shared, tid| {
        let mut st = shared.state.lock().unwrap();
        st.pick_bool(tid)
    })
    .or_else(crate::native::choose_bool_native)
    .unwrap_or(false)
}

/// Runs `body` as the virtual thread `tid`: parks on the thread's wakeup
/// slot until the first decision schedules it, marks the thread runnable,
/// executes the closure, then marks it finished and passes the baton.
/// Used by the explorer's worker pool, which hands the thread its own
/// slot so the initial park touches no shared lock (the controller may
/// still hold the state lock for the initial decision at that moment).
pub(crate) fn run_virtual_thread(
    shared: &Arc<Shared>,
    tid: usize,
    slot: &WakeSlot,
    body: Box<dyn FnOnce() + Send>,
) {
    // Park until the first decision schedules us (the token may already be
    // there: the controller makes the initial decision right after
    // dispatching, possibly before this worker reaches its slot).
    match slot.wait() {
        Wake::Run => {}
        Wake::Abort => std::panic::panic_any(Abort),
    }
    {
        let mut st = shared.state.lock().unwrap();
        st.set_status(tid, Status::Runnable);
        st.note_point(tid, Some(AccessKind::ThreadStart));
        // Keep the baton: the thread proceeds into its closure.
    }
    body();
    let mut st = shared.state.lock().unwrap();
    st.set_status(tid, Status::Finished);
    st.note_point(tid, Some(AccessKind::ThreadFinish));
    if st.pick_next(false) {
        let next = take_handoff(&mut st);
        drop(st);
        next.signal(Wake::Run);
    } else {
        let teardown = finish_run_wakeups(&mut st, Some(tid));
        drop(st);
        teardown.fire(shared);
    }
    // Whether or not the run ended, this thread simply returns.
}

/// Extracts the human-readable message of a user panic payload. Shared
/// between the worker pool's panic handling and the fiber backend's.
pub(crate) fn panic_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Handles a user panic on a virtual thread: records it and aborts the run.
pub(crate) fn handle_user_panic(shared: &Arc<Shared>, tid: usize, payload: &dyn std::any::Any) {
    let message = panic_message(payload);
    let mut st = shared.state.lock().unwrap();
    st.set_status(tid, Status::Finished);
    if st.run_over.is_none() {
        st.run_over = Some(RunOutcome::Panicked {
            thread: ThreadId(tid),
            message,
        });
    }
    st.abort = true;
    st.current = None;
    let teardown = finish_run_wakeups(&mut st, Some(tid));
    drop(st);
    teardown.fire(shared);
}
