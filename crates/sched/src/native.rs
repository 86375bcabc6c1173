//! Native passthrough mode: run instrumented code on real OS threads.
//!
//! The `lineup-sync` primitives are written against the runtime API of
//! this crate ([`schedule`](crate::schedule),
//! [`block_current`](crate::block_current), [`unblock`](crate::unblock),
//! …). Under the model checker those calls cooperate with the
//! baton-passing scheduler; outside any execution they are no-ops — except
//! that blocking is impossible (every OS thread shares one pseudo thread
//! id, so ownership keys collide, and
//! [`block_current`](crate::block_current) panics).
//!
//! Native mode fills that gap for *stress testing*: an OS thread that
//! registers itself with [`register_native_thread`] gets
//!
//! * a unique thread id (disjoint from the model's virtual-thread ids), so
//!   lock-ownership keys work under real contention;
//! * a real parker, so [`block_current`](crate::block_current) parks the
//!   OS thread and [`unblock`](crate::unblock) wakes it —
//!   [`BlockKind::Timed`] waits become real timed waits of
//!   [`TIMED_WAIT`];
//! * optional *yield injection*: a seeded per-thread RNG yields the OS
//!   thread at a fraction of schedule points, forcing interleavings that a
//!   single-core scheduler would otherwise never produce (the classic
//!   noise-maker technique of stress tools).
//!
//! Everything instrumented then compiles down to plain `std::sync`
//! behavior: the primitives' internal `std::sync::Mutex`es provide the
//! memory safety, and parking provides the blocking. Native executions are
//! *not* schedule-deterministic — they are the workload of the
//! `lineup-monitor` crate's stress runner, which records histories and
//! checks them after the fact.
//!
//! # Fidelity caveats
//!
//! Native mode approximates the model semantics at the margins: a timed
//! wait races against its wakeup in real time (the timeout is a fixed
//! duration, not a scheduler choice), and a wakeup permit granted concurrently
//! with a timeout may survive as a stale permit that resumes the next wait
//! of that thread spuriously. The `lineup-sync` primitives re-check their
//! wait conditions in loops, so stale permits cost a retry, not
//! correctness of the primitives themselves.

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::ids::ThreadId;
use crate::runtime::BlockResult;
use crate::state::BlockKind;

/// First thread id handed out to native threads. Far above any virtual
/// thread id (those are small indexes) and below the reserved setup and
/// outside pseudo ids (`usize::MAX`, `usize::MAX - 1`).
pub const NATIVE_TID_BASE: usize = usize::MAX / 2;

/// Real duration a native [`BlockKind::Timed`] wait blocks before timing
/// out. The timeout models ".NET code passed some finite timeout", and
/// stress runs want it short so contended timed operations actually
/// exercise their timeout paths.
pub const TIMED_WAIT: Duration = Duration::from_micros(50);

/// A permit-semantics parker (like `std::thread::park`, but with an
/// explicit token): an unpark before the park is not lost, it makes the
/// next park return immediately.
#[derive(Debug, Default)]
struct Parker {
    permit: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    fn park(&self, timeout: Option<Duration>) -> BlockResult {
        let mut permit = self.permit.lock().unwrap();
        match timeout {
            None => {
                while !*permit {
                    permit = self.cv.wait(permit).unwrap();
                }
                *permit = false;
                BlockResult::Resumed
            }
            Some(dur) => {
                let deadline = Instant::now() + dur;
                loop {
                    if *permit {
                        *permit = false;
                        return BlockResult::Resumed;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        // The permit check above ran under the lock, so a
                        // concurrent unpark either landed (Resumed) or
                        // will be consumed by this thread's next park.
                        return BlockResult::TimedOut;
                    }
                    let (g, _) = self.cv.wait_timeout(permit, deadline - now).unwrap();
                    permit = g;
                }
            }
        }
    }

    fn unpark(&self) {
        let mut permit = self.permit.lock().unwrap();
        *permit = true;
        self.cv.notify_all();
    }
}

/// Slot table mapping `tid - NATIVE_TID_BASE` to parkers. Slots are
/// reused through a free list so long stress campaigns do not grow the
/// table without bound.
#[derive(Default)]
struct Registry {
    slots: Vec<Option<Arc<Parker>>>,
    free: Vec<usize>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    slots: Vec::new(),
    free: Vec::new(),
});

struct NativeCtx {
    slot: usize,
    parker: Arc<Parker>,
    rng: u64,
    yield_chance: u32,
}

thread_local! {
    static NATIVE: RefCell<Option<NativeCtx>> = const { RefCell::new(None) };
}

/// Options for one native thread registration.
#[derive(Debug, Clone, Copy)]
pub struct NativeOptions {
    /// Seed of the per-thread yield-injection RNG. Give each thread of a
    /// stress run a distinct seed derived from the run's seed.
    pub seed: u64,
    /// Yield the OS thread at roughly one in `yield_chance` schedule
    /// points (`0` disables injection). On a single core this is what
    /// actually interleaves threads inside operations.
    pub yield_chance: u32,
}

impl Default for NativeOptions {
    fn default() -> Self {
        NativeOptions {
            seed: 0x9E37_79B9_7F4A_7C15,
            yield_chance: 0,
        }
    }
}

/// Registers the calling OS thread for native mode; the returned guard
/// unregisters it on drop. See the [module docs](self).
///
/// # Panics
///
/// Panics when the thread is already registered, or when called from
/// inside a model execution (virtual threads are already scheduled).
pub fn register_native_thread(options: NativeOptions) -> NativeGuard {
    assert!(
        !crate::runtime::has_model_ctx(),
        "lineup-sched: cannot register a native thread inside a model execution"
    );
    let parker = Arc::new(Parker::default());
    let slot = {
        let mut reg = REGISTRY.lock().unwrap();
        match reg.free.pop() {
            Some(i) => {
                reg.slots[i] = Some(Arc::clone(&parker));
                i
            }
            None => {
                reg.slots.push(Some(Arc::clone(&parker)));
                reg.slots.len() - 1
            }
        }
    };
    NATIVE.with(|n| {
        let mut n = n.borrow_mut();
        assert!(
            n.is_none(),
            "lineup-sched: thread is already registered for native mode"
        );
        *n = Some(NativeCtx {
            slot,
            parker,
            // xorshift64* state must be non-zero.
            rng: options.seed | 1,
            yield_chance: options.yield_chance,
        });
    });
    NativeGuard {
        tid: ThreadId(NATIVE_TID_BASE + slot),
        _not_send: std::marker::PhantomData,
    }
}

/// Guard of one native registration (see [`register_native_thread`]).
/// Unregisters the thread when dropped.
#[derive(Debug)]
pub struct NativeGuard {
    tid: ThreadId,
    // The guard must be dropped on the thread that registered.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl NativeGuard {
    /// The thread id under which this OS thread participates (the id
    /// primitives see through [`current_thread`](crate::current_thread)).
    pub fn thread_id(&self) -> ThreadId {
        self.tid
    }
}

impl Drop for NativeGuard {
    fn drop(&mut self) {
        NATIVE.with(|n| {
            if let Some(ctx) = n.borrow_mut().take() {
                let mut reg = REGISTRY.lock().unwrap();
                reg.slots[ctx.slot] = None;
                reg.free.push(ctx.slot);
            }
        });
    }
}

/// Whether a thread id lies in the native range (set off from virtual
/// thread ids and the reserved pseudo ids).
pub(crate) fn is_native_tid(tid: ThreadId) -> bool {
    tid.0 >= NATIVE_TID_BASE && tid.0 < usize::MAX - 1
}

/// The calling thread's native id, if registered.
pub(crate) fn current_native_tid() -> Option<ThreadId> {
    NATIVE.with(|n| {
        n.borrow()
            .as_ref()
            .map(|ctx| ThreadId(NATIVE_TID_BASE + ctx.slot))
    })
}

/// Native counterpart of [`block_current`](crate::block_current): parks
/// the calling OS thread. `None` when the thread is not registered.
pub(crate) fn block_native(kind: BlockKind) -> Option<BlockResult> {
    let parker = NATIVE.with(|n| n.borrow().as_ref().map(|ctx| Arc::clone(&ctx.parker)))?;
    let timeout = match kind {
        BlockKind::Untimed => None,
        BlockKind::Timed => Some(TIMED_WAIT),
    };
    Some(parker.park(timeout))
}

/// Native counterpart of [`unblock`](crate::unblock): sets the target
/// thread's permit. Dispatched on the *target* id, so any thread —
/// registered or not — can wake a native thread. A no-op for slots that
/// have already been unregistered.
pub(crate) fn unblock_native(tid: ThreadId) {
    let slot = tid.0 - NATIVE_TID_BASE;
    let parker = {
        let reg = REGISTRY.lock().unwrap();
        reg.slots.get(slot).and_then(Clone::clone)
    };
    if let Some(p) = parker {
        p.unpark();
    }
}

/// Native schedule-point hook: yield injection. A plain schedule point
/// yields with probability `1/yield_chance`; an explicit yield
/// ([`yield_point`](crate::yield_point)) always yields the OS thread.
pub(crate) fn on_schedule_point(explicit_yield: bool) {
    let inject = NATIVE.with(|n| {
        let mut n = n.borrow_mut();
        match n.as_mut() {
            Some(ctx) if !explicit_yield => {
                ctx.yield_chance > 0 && next_u64(ctx).is_multiple_of(u64::from(ctx.yield_chance))
            }
            Some(_) => true,
            None => explicit_yield,
        }
    });
    if inject {
        std::thread::yield_now();
    }
}

/// Native counterpart of [`choose_bool`](crate::choose_bool): a seeded
/// random bool (environment nondeterminism is real in a stress run).
/// `None` when the thread is not registered.
pub(crate) fn choose_bool_native() -> Option<bool> {
    NATIVE.with(|n| n.borrow_mut().as_mut().map(|ctx| next_u64(ctx) & 1 == 1))
}

/// xorshift64*: tiny, seedable, good enough for yield injection.
fn next_u64(ctx: &mut NativeCtx) -> u64 {
    let mut x = ctx.rng;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    ctx.rng = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registration slots are process-global; tests that register threads
    /// serialize on this lock so slot-identity assertions are stable.
    static SLOT_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn registration_assigns_distinct_native_ids() {
        let _serial = SLOT_LOCK.lock().unwrap();
        let g = register_native_thread(NativeOptions::default());
        let here = g.thread_id();
        assert!(is_native_tid(here));
        assert_eq!(crate::current_thread(), here);
        let other = std::thread::spawn(|| {
            let g = register_native_thread(NativeOptions::default());
            g.thread_id()
        })
        .join()
        .unwrap();
        assert_ne!(here, other, "concurrent registrations get distinct ids");
        drop(g);
        assert!(
            !is_native_tid(crate::current_thread()),
            "dropping the guard unregisters"
        );
    }

    #[test]
    fn park_consumes_a_prior_unpark() {
        let p = Parker::default();
        p.unpark();
        assert_eq!(p.park(None), BlockResult::Resumed);
    }

    #[test]
    fn timed_park_times_out() {
        let p = Parker::default();
        assert_eq!(
            p.park(Some(Duration::from_micros(200))),
            BlockResult::TimedOut
        );
    }

    #[test]
    fn unblock_wakes_a_parked_native_thread() {
        let _serial = SLOT_LOCK.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let g = register_native_thread(NativeOptions::default());
            tx.send(g.thread_id()).unwrap();
            crate::block_current(BlockKind::Untimed)
        });
        let tid = rx.recv().unwrap();
        // Permit semantics: the wakeup may land before the park.
        crate::unblock(tid);
        assert_eq!(h.join().unwrap(), BlockResult::Resumed);
    }

    #[test]
    fn native_timed_block_times_out_without_wakeup() {
        let _serial = SLOT_LOCK.lock().unwrap();
        let h = std::thread::spawn(|| {
            let _g = register_native_thread(NativeOptions::default());
            crate::block_current(BlockKind::Timed)
        });
        assert_eq!(h.join().unwrap(), BlockResult::TimedOut);
    }

    #[test]
    fn slots_are_reused_after_unregistration() {
        let _serial = SLOT_LOCK.lock().unwrap();
        let first =
            std::thread::spawn(|| register_native_thread(NativeOptions::default()).thread_id())
                .join()
                .unwrap();
        let second =
            std::thread::spawn(|| register_native_thread(NativeOptions::default()).thread_id())
                .join()
                .unwrap();
        assert_eq!(first, second, "freed slot is handed out again");
    }
}
