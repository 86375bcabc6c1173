//! Stackful-coroutine execution backend: virtual threads as *fibers* on
//! the exploring OS thread.
//!
//! Under [`Backend::Fibers`](crate::Backend) a baton handoff is a direct
//! userspace stack switch — save the callee-saved registers and a resume
//! address on the outgoing stack, swap `rsp`, pop into the incoming
//! context. No park/unpark, no kernel transition, no futex: the handoff
//! costs tens of nanoseconds instead of the ~0.9µs a one-token parker
//! needs on a single core. The schedule *point* (step accounting, POR
//! footprint settlement, enabled-set and livelock checks, strategy
//! consultation, decision recording) is shared with the OS-thread backend
//! and executes unchanged, so schedules, histories, sleep sets, and
//! work-stealing partitions are byte-identical across backends.
//!
//! # Context switch
//!
//! `raw_switch` is ~10 instructions of stable inline asm (x86_64 SysV):
//! push `rbp`/`rbx` and the resume address, store `rsp` into the outgoing
//! save slot, load the incoming `rsp`, `ret`. All other registers are
//! declared clobbered, so the compiler spills what it needs around the
//! switch. One argument rides across the switch in `rdi`: for a resumed
//! fiber it is the wake token (`ARG_RUN`/`ARG_ABORT`, the fiber-world
//! mirror of [`Wake`](crate::runtime)); for a first entry it is the
//! [`FiberRt`] pointer — `rdi` is also the first SysV argument register,
//! so the crafted stack can `ret` straight into the `extern "C"` entry
//! thunk.
//!
//! # Stack lifecycle
//!
//! Stacks are `mmap`ed (raw syscalls — no libc dependency) with a
//! `PROT_NONE` guard page at the low end, recycled across the millions of
//! runs of an exploration by a `FiberPool`: a fiber keeps its stack
//! across runs and only re-crafts the entry frame. A soft length check at
//! every schedule point aborts the run with a clear diagnostic well
//! before the guard page; the guard page itself is the memory-corruption
//! backstop for overflow *between* schedule points.
//!
//! # Arch support and fallback
//!
//! The switch is implemented for x86_64 Linux. Everywhere else (and with
//! the `fibers` cargo feature disabled) [`supported`] is `false` and
//! [`Backend::Fibers`](crate::Backend) degrades to OS threads. Native
//! passthrough mode ([`crate::native`]) always uses real OS threads:
//! its blocking operations must block a real thread.

/// Whether the fiber backend is implemented for this build (x86_64 Linux
/// with the `fibers` cargo feature enabled).
pub const fn supported() -> bool {
    cfg!(all(
        feature = "fibers",
        target_arch = "x86_64",
        target_os = "linux"
    ))
}

#[cfg(all(feature = "fibers", target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    use crate::events::AccessKind;
    use crate::ids::ThreadId;
    use crate::runtime::{panic_message, set_tls_tid, Abort, Shared, Wake};
    use crate::state::{RunOutcome, Status};

    /// Wake token carried across a switch into a resumed fiber: proceed.
    const ARG_RUN: usize = 0;
    /// Wake token carried across a switch into a resumed fiber: the run is
    /// over, unwind (mirror of [`Wake::Abort`]).
    const ARG_ABORT: usize = 1;

    /// Pseudo fiber id of the controller context (the exploring OS
    /// thread's own stack). Distinct from the runtime's pseudo thread ids.
    const CONTROLLER: usize = usize::MAX - 2;

    const PAGE: usize = 4096;

    /// Bytes of usable stack that must remain at a schedule point; less
    /// than this aborts the run with a diagnostic. Sized so the panic
    /// formatting and unwinding triggered by the diagnostic itself still
    /// fit on the fiber stack.
    const RED_ZONE: usize = 32 * 1024;

    // ---- raw Linux syscalls (no libc dependency) ----

    unsafe fn sys_mmap_anon(len: usize) -> usize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") 9usize as isize => ret, // mmap
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") 0x3usize,  // PROT_READ | PROT_WRITE
            in("r10") 0x22usize, // MAP_PRIVATE | MAP_ANONYMOUS
            in("r8") -1i64,
            in("r9") 0usize,
            out("rcx") _,
            out("r11") _,
            options(nostack, preserves_flags),
        );
        assert!(
            ret > 0,
            "lineup-sched: mmap of a fiber stack failed ({ret})"
        );
        ret as usize
    }

    unsafe fn sys_mprotect_none(addr: usize, len: usize) {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") 10usize as isize => ret, // mprotect
            in("rdi") addr,
            in("rsi") len,
            in("rdx") 0usize, // PROT_NONE
            out("rcx") _,
            out("r11") _,
            options(nostack, preserves_flags),
        );
        assert!(
            ret == 0,
            "lineup-sched: mprotect of a guard page failed ({ret})"
        );
    }

    unsafe fn sys_munmap(addr: usize, len: usize) {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") 11usize as isize => ret, // munmap
            in("rdi") addr,
            in("rsi") len,
            out("rcx") _,
            out("r11") _,
            options(nostack, preserves_flags),
        );
        debug_assert!(ret == 0, "munmap failed ({ret})");
    }

    /// One mmap'ed fiber stack: `[guard page][usable stack ...top]`.
    struct Stack {
        base: usize,
        total: usize,
    }

    impl Stack {
        fn new(usable: usize) -> Stack {
            let usable = usable.max(PAGE).div_ceil(PAGE) * PAGE;
            let total = usable + PAGE;
            unsafe {
                let base = sys_mmap_anon(total);
                sys_mprotect_none(base, PAGE); // guard page at the low end
                Stack { base, total }
            }
        }

        /// Lowest usable address (just above the guard page).
        fn usable_low(&self) -> usize {
            self.base + PAGE
        }

        /// One past the highest usable address.
        fn top(&self) -> usize {
            self.base + self.total
        }

        fn usable_len(&self) -> usize {
            self.total - PAGE
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            unsafe { sys_munmap(self.base, self.total) };
        }
    }

    /// A free list of fiber stacks, so explorations recycle stacks across
    /// runs (and across thread-count changes) instead of re-`mmap`ing.
    struct FiberPool {
        free: Vec<Stack>,
        usable: usize,
    }

    impl FiberPool {
        fn new(usable: usize) -> FiberPool {
            FiberPool {
                free: Vec::new(),
                usable,
            }
        }

        fn acquire(&mut self) -> Stack {
            self.free.pop().unwrap_or_else(|| Stack::new(self.usable))
        }

        fn release(&mut self, stack: Stack) {
            self.free.push(stack);
        }
    }

    /// One virtual thread's fiber: its (recycled) stack, its saved stack
    /// pointer while suspended, and its per-run lifecycle flags.
    struct Fiber {
        stack: Option<Stack>,
        /// Saved `rsp` while the fiber is suspended (undefined while it
        /// runs or before its first entry).
        sp: usize,
        /// The fiber has been entered this run (its stack holds a live
        /// context until `done`).
        started: bool,
        /// The fiber's entry thunk has completed (or unwound); its stack
        /// holds nothing live and must not be resumed.
        done: bool,
        /// The virtual thread's closure, taken at first entry; dropped
        /// without entering when the run ends before the fiber starts
        /// (the OS backend's parked workers drop it by unwinding).
        body: Option<Box<dyn FnOnce() + Send>>,
    }

    impl Fiber {
        fn new() -> Fiber {
            Fiber {
                stack: None,
                sp: 0,
                started: false,
                done: false,
                body: None,
            }
        }
    }

    /// Per-exploration fiber runtime: the fibers of the current run, the
    /// controller's saved context, and the stack pool. Owned by the
    /// exploring (controller) OS thread; work-stealing workers each own
    /// their own `FiberRt`.
    pub struct FiberRt {
        shared: Arc<Shared>,
        fibers: Vec<Fiber>,
        /// The controller's saved `rsp` while a fiber runs.
        controller_sp: usize,
        /// The fiber currently executing ([`CONTROLLER`] between runs).
        current: usize,
        pool: FiberPool,
    }

    thread_local! {
        /// The fiber runtime active on this OS thread, null outside a
        /// fiber-backend run. A raw pointer (not a `RefCell`) because the
        /// borrow would otherwise be held *across* a stack switch, and the
        /// resumed fiber — same OS thread, same TLS — must be able to
        /// access it again.
        static ACTIVE: Cell<*mut FiberRt> = const { Cell::new(std::ptr::null_mut()) };
    }

    /// The active fiber runtime and the id of the fiber executing on it,
    /// or `None` when the caller is the controller (or no fiber run is
    /// active on this OS thread).
    pub(crate) fn fiber_ctx() -> Option<(*mut FiberRt, usize)> {
        let rt = ACTIVE.with(Cell::get);
        if rt.is_null() {
            return None;
        }
        let cur = unsafe { (*rt).current };
        (cur != CONTROLLER).then_some((rt, cur))
    }

    /// The shared runtime state of the active fiber runtime.
    ///
    /// # Safety
    ///
    /// `rt` must be the pointer returned by [`fiber_ctx`] on this thread;
    /// the reference must not outlive the enclosing run.
    pub(crate) unsafe fn shared_of<'a>(rt: *mut FiberRt) -> &'a Shared {
        &*Arc::as_ptr(&(*rt).shared)
    }

    /// Aborts the run with a clear diagnostic when the calling fiber is
    /// within [`RED_ZONE`] of its stack limit. Called at every fiber
    /// schedule point; overflow *between* schedule points is caught by the
    /// guard page instead (a fault, but never silent corruption).
    pub(crate) fn check_stack(rt: *mut FiberRt, me: usize) {
        let probe = 0u8;
        let sp = std::ptr::addr_of!(probe) as usize;
        let f = unsafe { &(&(*rt).fibers)[me] };
        if let Some(stack) = &f.stack {
            if sp < stack.usable_low() + RED_ZONE {
                panic!(
                    "fiber stack overflow on virtual thread {me}: {} bytes of \
                     {} used at a schedule point; raise Config::fiber_stack_size",
                    stack.top().saturating_sub(sp),
                    stack.usable_len(),
                );
            }
        }
    }

    /// The userspace context switch. Saves `rbp`, `rbx`, and a resume
    /// address on the current stack, publishes `rsp` through `save`, then
    /// installs `restore` and `ret`s into the target context. Returns —
    /// when some later switch restores this context — the `arg` value the
    /// resumer passed.
    ///
    /// `rbp`/`rbx` are pushed and popped manually (LLVM reserves them as
    /// inline-asm operands); everything else is declared clobbered, either
    /// explicitly or via `clobber_abi("C")` (which covers the SSE state),
    /// so the compiler spills any live register around the switch.
    ///
    /// # Safety
    ///
    /// `restore` must be a stack pointer previously published through
    /// `save` by this function, or a crafted entry frame: a 16-byte-
    /// aligned slot holding the address of an `extern "C" fn(usize) -> !`
    /// (the `ret` then enters the thunk with `rsp % 16 == 8`, exactly the
    /// SysV call-entry state, and `arg` in `rdi`, the first argument
    /// register).
    #[inline(never)]
    unsafe fn raw_switch(save: *mut usize, restore: usize, arg: usize) -> usize {
        let out: usize;
        core::arch::asm!(
            "push rbp",
            "push rbx",
            "lea rax, [rip + 2f]",
            "push rax",
            "mov [rsi], rsp",
            "mov rsp, rdx",
            "ret",
            "2:",
            "pop rbx",
            "pop rbp",
            inout("rsi") save => _,
            inout("rdx") restore => _,
            inout("rdi") arg => out,
            out("rax") _,
            out("rcx") _,
            out("r8") _,
            out("r9") _,
            out("r10") _,
            out("r11") _,
            out("r12") _,
            out("r13") _,
            out("r14") _,
            out("r15") _,
            clobber_abi("C"),
        );
        out
    }

    /// Switches from the context whose save slot is `from_sp` to `target`
    /// (a fiber id or [`CONTROLLER`]), starting the target fiber if it has
    /// not run yet. Returns the wake token passed by whichever context
    /// later resumes `from_sp`.
    unsafe fn switch_to(
        rt: *mut FiberRt,
        from_sp: *mut usize,
        target: usize,
        wake: usize,
    ) -> usize {
        (*rt).current = target;
        let (restore, arg);
        if target == CONTROLLER {
            restore = (*rt).controller_sp;
            arg = wake;
        } else {
            // Instrumented primitives read the current virtual-thread id
            // from the runtime TLS; all fibers share one OS thread, so the
            // switch must retarget it.
            set_tls_tid(target);
            let f = &mut (&mut (*rt).fibers)[target];
            if f.started {
                restore = f.sp;
                arg = wake;
            } else {
                f.started = true;
                if f.stack.is_none() {
                    f.stack = Some((*rt).pool.acquire());
                }
                let stack = f.stack.as_ref().expect("just ensured");
                // Entry frame: the thunk address at a 16-aligned slot, so
                // `ret` enters it with the SysV call-entry alignment.
                let slot = (stack.top() - 16) & !15;
                let entry: extern "C" fn(usize) -> ! = fiber_entry;
                *(slot as *mut usize) = entry as *const () as usize;
                restore = slot;
                arg = rt as usize;
            }
        }
        raw_switch(from_sp, restore, arg)
    }

    /// The baton handoff under the fiber backend: switches from fiber `me`
    /// to fiber `next`. The caller has already made (and recorded) the
    /// scheduling decision and released the state lock. A self-handoff
    /// (forced slow path with the baton kept) is a no-op beyond the
    /// accounting the caller already did — there is no park/unpark pair to
    /// mirror in userspace.
    pub(crate) unsafe fn fiber_handoff(rt: *mut FiberRt, me: usize, next: usize) -> Wake {
        if next == me {
            return Wake::Run;
        }
        let from_sp: *mut usize = std::ptr::addr_of_mut!((&mut (*rt).fibers)[me].sp);
        match switch_to(rt, from_sp, next, ARG_RUN) {
            ARG_ABORT => Wake::Abort,
            _ => Wake::Run,
        }
    }

    /// First-entry thunk of every fiber, entered via `ret` from
    /// [`raw_switch`] with the [`FiberRt`] pointer as its argument.
    /// Mirrors `run_virtual_thread` of the OS backend: mark the thread
    /// runnable and started, run the body, mark it finished, pass the
    /// baton (or end the run). User panics and [`Abort`] unwinds are
    /// caught here, exactly like the worker pool's `catch_unwind`.
    ///
    /// Never returns: the final act is a switch to the successor fiber or
    /// the controller, with the fiber marked `done` so nothing resumes
    /// this stack until it is re-crafted for the next run. Everything
    /// droppable is dropped before that final switch, so abandoning the
    /// suspended frames leaks nothing.
    extern "C" fn fiber_entry(arg: usize) -> ! {
        let rt = arg as *mut FiberRt;
        unsafe {
            let me = (*rt).current;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let body = (&mut (*rt).fibers)[me]
                    .body
                    .take()
                    .expect("fiber body present");
                {
                    let shared = shared_of(rt);
                    let mut st = shared.state.lock().unwrap();
                    st.set_status(me, Status::Runnable);
                    st.note_point(me, Some(AccessKind::ThreadStart));
                    // Keep the baton: proceed into the closure.
                }
                body();
            }));
            let target = match outcome {
                Ok(()) => finish_fiber(rt, me),
                Err(payload) => {
                    if payload.downcast_ref::<Abort>().is_none() {
                        record_fiber_panic(rt, me, &*payload);
                    }
                    CONTROLLER
                }
            };
            (&mut (*rt).fibers)[me].done = true;
            let from_sp: *mut usize = std::ptr::addr_of_mut!((&mut (*rt).fibers)[me].sp);
            switch_to(rt, from_sp, target, ARG_RUN);
            unreachable!("a finished fiber is never resumed");
        }
    }

    /// The finishing fiber's baton pass (the OS backend's
    /// `run_virtual_thread` tail): mark finished, let the scheduler pick a
    /// successor, and name the switch target — a fiber if the run
    /// continues, the controller if it is over.
    unsafe fn finish_fiber(rt: *mut FiberRt, me: usize) -> usize {
        let shared = shared_of(rt);
        let mut st = shared.state.lock().unwrap();
        st.set_status(me, Status::Finished);
        st.note_point(me, Some(AccessKind::ThreadFinish));
        if st.pick_next(false) {
            st.handoffs += 1;
            st.current.expect("a thread was scheduled")
        } else {
            CONTROLLER
        }
    }

    /// Records a user panic on a fiber: the state mutations of the OS
    /// backend's `handle_user_panic`, without the wakeup-slot teardown
    /// (no OS thread is parked under the fiber backend — the controller is
    /// resumed by a stack switch instead).
    unsafe fn record_fiber_panic(
        rt: *mut FiberRt,
        me: usize,
        payload: &(dyn std::any::Any + Send),
    ) {
        let message = panic_message(payload);
        let shared = shared_of(rt);
        let mut st = shared.state.lock().unwrap();
        st.set_status(me, Status::Finished);
        if st.run_over.is_none() {
            st.run_over = Some(RunOutcome::Panicked {
                thread: ThreadId(me),
                message,
            });
        }
        st.abort = true;
        st.current = None;
    }

    impl std::fmt::Debug for FiberRt {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("FiberRt")
                .field("fibers", &self.fibers.len())
                .field("current", &self.current)
                .finish_non_exhaustive()
        }
    }

    impl FiberRt {
        /// Creates the fiber runtime for one exploration over `shared`,
        /// with `stack_size` usable bytes per fiber stack.
        pub(crate) fn new(shared: Arc<Shared>, stack_size: usize) -> FiberRt {
            FiberRt {
                shared,
                fibers: Vec::new(),
                controller_sp: 0,
                current: CONTROLLER,
                pool: FiberPool::new(stack_size),
            }
        }

        /// Installs the bodies of one run, recycling fiber slots (and
        /// their stacks) from the previous run.
        pub(crate) fn begin_run(&mut self, bodies: Vec<Box<dyn FnOnce() + Send>>) {
            while self.fibers.len() > bodies.len() {
                let f = self.fibers.pop().expect("non-empty");
                if let Some(stack) = f.stack {
                    self.pool.release(stack);
                }
            }
            while self.fibers.len() < bodies.len() {
                self.fibers.push(Fiber::new());
            }
            for (f, body) in self.fibers.iter_mut().zip(bodies) {
                debug_assert!(!f.started && !f.done && f.body.is_none());
                f.body = Some(body);
                f.sp = 0;
            }
        }

        /// Executes one run to completion: switches into the first
        /// scheduled fiber and, once some fiber ends the run and switches
        /// back, unwinds every started-but-unfinished fiber (running its
        /// destructors — the mirror of the OS backend's `Abort` tokens).
        pub(crate) fn run(&mut self, first: usize) {
            let rt: *mut FiberRt = self;
            unsafe {
                ACTIVE.with(|a| a.set(rt));
                let sp: *mut usize = std::ptr::addr_of_mut!((*rt).controller_sp);
                switch_to(rt, sp, first, ARG_RUN);
                loop {
                    let stale = (*rt).fibers.iter().position(|f| f.started && !f.done);
                    let Some(t) = stale else { break };
                    let sp: *mut usize = std::ptr::addr_of_mut!((*rt).controller_sp);
                    switch_to(rt, sp, t, ARG_ABORT);
                }
                (*rt).current = CONTROLLER;
                ACTIVE.with(|a| a.set(std::ptr::null_mut()));
            }
        }

        /// Clears the per-run fiber state, dropping the bodies of fibers
        /// that never started. Stacks stay attached for the next run.
        pub(crate) fn end_run(&mut self) {
            for f in &mut self.fibers {
                f.body = None;
                f.started = false;
                f.done = false;
                f.sp = 0;
            }
        }
    }
}

#[cfg(not(all(feature = "fibers", target_arch = "x86_64", target_os = "linux")))]
mod imp {
    use std::sync::Arc;

    use crate::runtime::{Shared, Wake};

    /// Fallback fiber runtime for targets without fiber support: never
    /// instantiated, because [`Backend::effective`](crate::Backend)
    /// degrades every fiber request to OS threads first.
    pub struct FiberRt {
        _never: std::convert::Infallible,
    }

    impl std::fmt::Debug for FiberRt {
        fn fmt(&self, _f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self._never {}
        }
    }

    pub(crate) fn fiber_ctx() -> Option<(*mut FiberRt, usize)> {
        None
    }

    pub(crate) unsafe fn shared_of<'a>(_rt: *mut FiberRt) -> &'a Shared {
        unreachable!("fiber backend is not supported on this target")
    }

    pub(crate) fn check_stack(_rt: *mut FiberRt, _me: usize) {
        unreachable!("fiber backend is not supported on this target")
    }

    pub(crate) unsafe fn fiber_handoff(_rt: *mut FiberRt, _me: usize, _next: usize) -> Wake {
        unreachable!("fiber backend is not supported on this target")
    }

    impl FiberRt {
        pub(crate) fn new(_shared: Arc<Shared>, _stack_size: usize) -> FiberRt {
            unreachable!("fiber backend is not supported on this target")
        }

        pub(crate) fn begin_run(&mut self, _bodies: Vec<Box<dyn FnOnce() + Send>>) {
            match self._never {}
        }

        pub(crate) fn run(&mut self, _first: usize) {
            match self._never {}
        }

        pub(crate) fn end_run(&mut self) {
            match self._never {}
        }
    }
}

pub use imp::FiberRt;
pub(crate) use imp::{check_stack, fiber_ctx, fiber_handoff, shared_of};
