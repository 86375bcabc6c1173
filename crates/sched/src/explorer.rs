//! The stateless exploration loop: repeatedly execute the program under
//! test, following a search strategy through the tree of scheduling
//! choices, and report every run to the caller.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config::{Backend, Config, StrategyKind};
use crate::coverage::CoverageStrategy;
use crate::events::AccessEvent;
use crate::fiber::FiberRt;
use crate::ids::ThreadId;
use crate::runtime::{
    clear_tls, finish_run_wakeups, handle_user_panic, run_virtual_thread, set_tls, take_handoff,
    Abort, Shared, Wake, WakeSlot,
};
use crate::state::{RtState, RunOutcome};
use crate::strategy::{
    Choice, DfsStrategy, PctStrategy, PorChoice, PrefixDfsStrategy, RandomStrategy, ReplayStrategy,
    Strategy,
};

/// Builder passed to the setup closure of [`explore`]: spawns the virtual
/// threads of one run.
#[derive(Default)]
pub struct Execution {
    bodies: Vec<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Execution")
            .field("threads", &self.bodies.len())
            .finish()
    }
}

impl Execution {
    /// Spawns a virtual thread executing `f`. Threads receive dense ids in
    /// spawn order, starting at 0.
    pub fn spawn(&mut self, f: impl FnOnce() + Send + 'static) {
        self.bodies.push(Box::new(f));
    }

    /// Number of threads spawned so far.
    pub fn thread_count(&self) -> usize {
        self.bodies.len()
    }
}

/// The result of one run (one execution of the program under test).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// 0-based index of this run within the exploration.
    pub run_index: u64,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Number of schedule points executed.
    pub steps: usize,
    /// Preemptions consumed (switches away from enabled mid-stream threads).
    pub preemptions: usize,
    /// The full schedule (every transition), for debugging.
    pub schedule: Vec<Choice>,
    /// The decision indexes (strategy-consulted choices only); feed them
    /// to [`Config::replay`](crate::Config::replay) to reproduce this run.
    pub decisions: Vec<usize>,
    /// The access log (empty unless [`Config::record_accesses`] is set).
    pub access_log: Vec<AccessEvent>,
}

/// Aggregate statistics of one exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Total runs executed.
    pub runs: u64,
    /// Runs in which all threads completed.
    pub complete: u64,
    /// Runs ending in deadlock.
    pub deadlock: u64,
    /// Runs ending in fair livelock.
    pub livelock: u64,
    /// Serial-mode runs that got stuck mid-operation.
    pub stuck_serial: u64,
    /// Runs in which a virtual thread panicked.
    pub panicked: u64,
    /// Runs that exceeded the step limit.
    pub step_limit: u64,
    /// Runs pruned by partial-order reduction (every schedulable thread
    /// was asleep); counted in [`runs`](ExploreStats::runs) as well.
    pub sleep_prunes: u64,
    /// Backtrack points inserted by DPOR happens-before analysis.
    pub backtrack_points: u64,
    /// Candidate threads masked by symmetry reduction, summed over all
    /// decisions of all runs (see
    /// [`Config::symmetry`](crate::Config::symmetry)): each masked sibling
    /// is a first-move alternative the search did not have to expand.
    /// Zero when symmetry reduction is off or never engaged.
    pub symmetry_prunes: u64,
    /// Total schedule points across all runs.
    pub total_steps: u64,
    /// Schedule points that took the same-thread continuation fast path
    /// (the strategy chose the running thread, which continued inline
    /// without a park/unpark — see [`Config::fast_path`]).
    pub fast_path_steps: u64,
    /// Baton handoffs performed through a wakeup slot (cross-thread
    /// switches, plus every step when the fast path is disabled).
    pub handoffs: u64,
    /// Subtrees carved off live explorations for work-stealing thieves
    /// ([`StealPool`]); incremented by the victim at split time.
    pub splits: u64,
    /// Stolen subtrees claimed by thieves from a [`StealPool`]. At most
    /// [`splits`](ExploreStats::splits): a split subtree that the pool
    /// never hands out (e.g. the exploration ends first) is not a steal.
    pub steals: u64,
    /// Times a worker parked idle waiting for stealable work.
    pub idle_parks: u64,
    /// Stolen subtrees whose exploration actually began (the thief's
    /// first run replays the stolen prefix). At most
    /// [`steals`](ExploreStats::steals): claims skipped by cancellation
    /// are not replayed.
    pub steal_replays: u64,
    /// Longest schedule observed.
    pub max_schedule_len: usize,
    /// Decision vectors in the coverage corpus when the exploration ended
    /// (see [`CoverageStrategy`](crate::coverage::CoverageStrategy));
    /// zero for non-coverage strategies.
    pub corpus_size: u64,
    /// Distinct bits set in the coverage bitmap when the exploration
    /// ended; zero for non-coverage strategies.
    pub coverage_bits: u64,
    /// Runs that diverged from a coverage-corpus parent (as opposed to
    /// fresh random walks); zero for non-coverage strategies.
    pub mutations: u64,
    /// True when the visitor stopped the exploration before the strategy
    /// was exhausted.
    pub stopped_early: bool,
}

impl ExploreStats {
    /// Folds the statistics of another exploration into this one: counters
    /// are summed, [`max_schedule_len`](ExploreStats::max_schedule_len) is
    /// the maximum of the two, and
    /// [`stopped_early`](ExploreStats::stopped_early) is set if either
    /// exploration stopped early. Used to aggregate the per-worker results
    /// of a work-stealing exploration.
    pub fn merge(&mut self, other: &ExploreStats) {
        // Counters saturate rather than wrap: schedule counts grow
        // factorially with test size, and a huge campaign (or a buggy
        // caller merging in a loop) must at worst pin the statistics at
        // u64::MAX, never panic in debug or silently wrap in release.
        self.runs = self.runs.saturating_add(other.runs);
        self.complete = self.complete.saturating_add(other.complete);
        self.deadlock = self.deadlock.saturating_add(other.deadlock);
        self.livelock = self.livelock.saturating_add(other.livelock);
        self.stuck_serial = self.stuck_serial.saturating_add(other.stuck_serial);
        self.panicked = self.panicked.saturating_add(other.panicked);
        self.step_limit = self.step_limit.saturating_add(other.step_limit);
        self.sleep_prunes = self.sleep_prunes.saturating_add(other.sleep_prunes);
        self.backtrack_points = self.backtrack_points.saturating_add(other.backtrack_points);
        self.symmetry_prunes = self.symmetry_prunes.saturating_add(other.symmetry_prunes);
        self.total_steps = self.total_steps.saturating_add(other.total_steps);
        self.fast_path_steps = self.fast_path_steps.saturating_add(other.fast_path_steps);
        self.handoffs = self.handoffs.saturating_add(other.handoffs);
        self.splits = self.splits.saturating_add(other.splits);
        self.steals = self.steals.saturating_add(other.steals);
        self.idle_parks = self.idle_parks.saturating_add(other.idle_parks);
        self.steal_replays = self.steal_replays.saturating_add(other.steal_replays);
        self.max_schedule_len = self.max_schedule_len.max(other.max_schedule_len);
        // Coverage gauges describe the (potentially shared) bitmap and
        // corpus at exploration end, not per-exploration work: merging
        // explorations that pooled one `CoverageShared` must not double-
        // count, so take the maximum. Mutations are per-run events and
        // sum like the other counters.
        self.corpus_size = self.corpus_size.max(other.corpus_size);
        self.coverage_bits = self.coverage_bits.max(other.coverage_bits);
        self.mutations = self.mutations.saturating_add(other.mutations);
        self.stopped_early |= other.stopped_early;
    }

    fn record(&mut self, run: &RunResult) {
        self.runs = self.runs.saturating_add(1);
        self.total_steps = self.total_steps.saturating_add(run.steps as u64);
        self.max_schedule_len = self.max_schedule_len.max(run.schedule.len());
        let slot = match &run.outcome {
            RunOutcome::Complete => &mut self.complete,
            RunOutcome::Deadlock => &mut self.deadlock,
            RunOutcome::Livelock => &mut self.livelock,
            RunOutcome::StuckSerial => &mut self.stuck_serial,
            RunOutcome::Panicked { .. } => &mut self.panicked,
            RunOutcome::StepLimit => &mut self.step_limit,
            RunOutcome::Pruned => &mut self.sleep_prunes,
        };
        *slot = slot.saturating_add(1);
    }
}

enum Task {
    Run {
        shared: Arc<Shared>,
        tid: usize,
        /// The virtual thread's own wakeup slot, passed along so the
        /// worker can park for its first wake without touching the state
        /// lock (the controller holds it while making the initial
        /// decision).
        slot: Arc<WakeSlot>,
        body: Box<dyn FnOnce() + Send>,
    },
    Shutdown,
}

struct PoolWorker {
    tx: Sender<Task>,
    handle: Option<JoinHandle<()>>,
}

/// A pool of OS threads reused across runs, to amortize thread-spawn cost
/// over the (often many thousands of) executions of one exploration.
struct Pool {
    workers: Vec<PoolWorker>,
    ack_tx: Sender<usize>,
    ack_rx: Receiver<usize>,
}

impl Pool {
    fn new() -> Self {
        let (ack_tx, ack_rx) = channel();
        Pool {
            workers: Vec::new(),
            ack_tx,
            ack_rx,
        }
    }

    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            let (tx, rx) = channel::<Task>();
            let ack = self.ack_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("lineup-worker-{}", self.workers.len()))
                .spawn(move || worker_loop(rx, ack))
                .expect("spawn worker thread");
            self.workers.push(PoolWorker {
                tx,
                handle: Some(handle),
            });
        }
    }

    fn dispatch(
        &self,
        shared: &Arc<Shared>,
        tid: usize,
        slot: Arc<WakeSlot>,
        body: Box<dyn FnOnce() + Send>,
    ) {
        self.workers[tid]
            .tx
            .send(Task::Run {
                shared: Arc::clone(shared),
                tid,
                slot,
                body,
            })
            .expect("worker alive");
    }

    /// The index of a worker whose OS thread has terminated, if any.
    /// A worker thread never exits on its own (aborted runs unwind into
    /// its `catch_unwind`), so a dead worker means its thread was killed
    /// in a way the runtime cannot recover from.
    fn dead_worker(&self) -> Option<usize> {
        self.workers
            .iter()
            .position(|w| w.handle.as_ref().is_some_and(JoinHandle::is_finished))
    }

    /// Waits for `n` workers to finish their current task. A worker thread
    /// dying mid-run would leave its ack unsent forever, so the wait
    /// periodically re-checks worker liveness and reports the death as an
    /// error (after absorbing the acks of the surviving workers) instead
    /// of hanging or panicking without diagnostics.
    fn wait_acks(&self, n: usize) -> Result<(), String> {
        let mut pending = n;
        while pending > 0 {
            match self.ack_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(_) => pending -= 1,
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(i) = self.dead_worker() {
                        return Err(format!(
                            "lineup worker thread {i} died without completing its run"
                        ));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable (the pool holds its own sender), but a
                    // diagnostic beats a panic if that ever changes.
                    return Err("worker ack channel disconnected".to_string());
                }
            }
        }
        Ok(())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Task::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

thread_local! {
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once, globally) a panic hook that silences panics on worker
/// threads: aborted runs unwind via panics by design, and user panics are
/// captured and reported through [`RunOutcome::Panicked`] instead of
/// spamming stderr hundreds of thousands of times during an exploration.
fn install_quiet_panic_hook() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IS_WORKER.with(|w| w.get()) {
                return;
            }
            prev(info);
        }));
    });
}

fn worker_loop(rx: Receiver<Task>, ack: Sender<usize>) {
    IS_WORKER.with(|w| w.set(true));
    while let Ok(task) = rx.recv() {
        match task {
            Task::Shutdown => break,
            Task::Run {
                shared,
                tid,
                slot,
                body,
            } => {
                set_tls(Arc::clone(&shared), tid, Some(Arc::clone(&slot)));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_virtual_thread(&shared, tid, &slot, body);
                }));
                clear_tls();
                if let Err(payload) = result {
                    if payload.downcast_ref::<Abort>().is_none() {
                        handle_user_panic(&shared, tid, &*payload);
                    }
                }
                drop(shared);
                let _ = ack.send(tid);
            }
        }
    }
}

/// Waits for the current run to end: the thread ending the run signals
/// the controller's wakeup slot exactly once. Periodically re-checks
/// worker liveness so a dying worker surfaces as an error instead of a
/// silent hang.
fn wait_run_over(shared: &Shared, pool: &Pool) -> Result<(), String> {
    loop {
        match shared.controller.wait_timeout(Duration::from_millis(50)) {
            Some(Wake::Run | Wake::Abort) => return Ok(()),
            None => {
                if let Some(i) = pool.dead_worker() {
                    return Err(format!(
                        "lineup worker thread {i} died without completing its run"
                    ));
                }
            }
        }
    }
}

/// Explores the schedules of a concurrent program.
///
/// `setup` is called once per run to (re)construct the program: it creates
/// the shared state of the test and spawns the virtual threads. `on_run`
/// receives every run's [`RunResult`] by reference (the result's buffers
/// are recycled across runs — clone whatever must outlive the callback);
/// return [`ControlFlow::Break`] to stop the exploration early (e.g. once
/// Line-Up has found a violation).
///
/// Returns aggregate statistics. See the crate-level documentation for an
/// example.
///
/// # Panics
///
/// Panics if `setup` spawns a different number of threads on different
/// runs, or if the program under test is nondeterministic in any way other
/// than through scheduling (stateless replay then diverges).
pub fn explore(
    config: &Config,
    setup: impl FnMut(&mut Execution),
    on_run: impl FnMut(&RunResult) -> ControlFlow<()>,
) -> ExploreStats {
    let por = config.effective_por();
    let strategy: Box<dyn Strategy + Send> = match &config.strategy {
        StrategyKind::Dfs if por => Box::new(DfsStrategy::new_por()),
        StrategyKind::Dfs => Box::new(DfsStrategy::new()),
        StrategyKind::Random { seed } => Box::new(RandomStrategy::new(
            *seed,
            config.max_runs.unwrap_or(u64::MAX),
        )),
        StrategyKind::Pct { seed, depth } => Box::new(PctStrategy::new(
            *seed,
            *depth,
            config.max_runs.unwrap_or(u64::MAX),
        )),
        StrategyKind::Coverage { seed } => Box::new(CoverageStrategy::new(
            *seed,
            config.max_runs.unwrap_or(u64::MAX),
        )),
        StrategyKind::Replay { decisions } => {
            Box::new(ReplayStrategy::from_indexes(decisions.clone()))
        }
    };
    explore_with_strategy(config, strategy, setup, on_run)
}

/// [`explore`] with a caller-supplied strategy instead of one built from
/// [`Config::strategy`]. This is how the work-stealing engine injects a
/// [`StealingStrategy`] that streams subtree tasks from a shared
/// [`StealPool`]; everything else (backends, buffers, statistics) is
/// identical to [`explore`].
pub fn explore_with_strategy(
    config: &Config,
    strategy: Box<dyn Strategy + Send>,
    mut setup: impl FnMut(&mut Execution),
    mut on_run: impl FnMut(&RunResult) -> ControlFlow<()>,
) -> ExploreStats {
    install_quiet_panic_hook();
    let mut pool = Pool::new();
    let mut stats = ExploreStats::default();

    // One shared state for the whole exploration: runs recycle it (and
    // its schedule/decision/POR buffers and wakeup slots) via
    // `RtState::reset` instead of reallocating per run.
    let shared = Arc::new(Shared::new(RtState::new(config.clone(), 0, strategy)));
    // Execution backend: under `Backend::Fibers` every run executes
    // entirely on this OS thread, each virtual thread on its own recycled
    // fiber stack; the worker pool stays empty. Each work-stealing worker
    // runs its own `explore_with_strategy` and so owns its own fiber
    // runtime.
    let mut fiber_rt = match config.backend.effective() {
        Backend::Fibers => Some(FiberRt::new(
            Arc::clone(&shared),
            config.effective_fiber_stack(),
        )),
        Backend::OsThreads => None,
    };
    let mut buf = RunResult {
        run_index: 0,
        outcome: RunOutcome::Complete,
        steps: 0,
        preemptions: 0,
        schedule: Vec::new(),
        decisions: Vec::new(),
        access_log: Vec::new(),
    };

    loop {
        {
            let mut st = shared.state.lock().unwrap();
            st.reset();
            st.strategy.as_mut().expect("strategy present").begin_run();
        }

        // Run the setup closure under the setup context, so that primitive
        // constructors can register model objects (deterministically, since
        // setup itself is deterministic).
        set_tls(Arc::clone(&shared), crate::runtime::SETUP_TID, None);
        let mut ex = Execution::default();
        let setup_result = catch_unwind(AssertUnwindSafe(|| setup(&mut ex)));
        clear_tls();
        if let Err(payload) = setup_result {
            std::panic::resume_unwind(payload);
        }

        let n = ex.bodies.len();
        if let Some(rt) = fiber_rt.as_mut() {
            {
                let mut st = shared.state.lock().unwrap();
                st.init_threads(n);
            }
            rt.begin_run(ex.bodies);
            // The initial scheduling decision (also detects the 0-thread
            // case). The controller keeps its own stack and switches
            // straight into the first scheduled fiber — counted as a
            // handoff exactly like the OS backend's initial signal.
            let first = {
                let mut st = shared.state.lock().unwrap();
                if st.pick_next(false) {
                    st.handoffs += 1;
                    Some(st.current.expect("a thread was scheduled"))
                } else {
                    None
                }
            };
            if let Some(first) = first {
                // The whole run executes on this OS thread: install the
                // runtime context the switches retarget in place, and
                // silence the panic hook for the duration (aborted runs
                // unwind by design, user panics are captured).
                set_tls(Arc::clone(&shared), first, None);
                let was_worker = IS_WORKER.with(|w| w.replace(true));
                rt.run(first);
                IS_WORKER.with(|w| w.set(was_worker));
                clear_tls();
            }
            rt.end_run();
        } else {
            pool.ensure(n);
            let slots: Vec<Arc<WakeSlot>> = {
                let mut st = shared.state.lock().unwrap();
                st.init_threads(n);
                st.slots[..n].iter().map(Arc::clone).collect()
            };
            for (tid, body) in ex.bodies.into_iter().enumerate() {
                pool.dispatch(&shared, tid, Arc::clone(&slots[tid]), body);
            }
            // The initial scheduling decision (also detects the 0-thread
            // case), fired after the state lock is released so the first
            // thread cannot be woken into the lock the controller holds.
            {
                let mut st = shared.state.lock().unwrap();
                if st.pick_next(false) {
                    let first = take_handoff(&mut st);
                    drop(st);
                    first.signal(Wake::Run);
                } else {
                    let teardown = finish_run_wakeups(&mut st, None);
                    drop(st);
                    teardown.fire(&shared);
                }
            }
            // Wait for the run to end, then for every worker to go idle.
            let waited = wait_run_over(&shared, &pool).and_then(|()| pool.wait_acks(n));
            if let Err(message) = waited {
                // A worker thread died mid-run: record the wreck as a
                // panicked run, unwind every survivor, and stop the
                // exploration (the schedule tree cannot be resumed from an
                // unfinished run).
                let dead = pool.dead_worker().unwrap_or(0);
                let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                if st.run_over.is_none() {
                    st.run_over = Some(RunOutcome::Panicked {
                        thread: ThreadId(dead),
                        message,
                    });
                }
                st.abort = true;
                st.current = None;
                for slot in &st.slots {
                    slot.force_signal(Wake::Abort);
                }
                buf.run_index = stats.runs;
                buf.outcome = st.run_over.clone().expect("just set");
                buf.steps = st.step;
                buf.preemptions = st.preemptions;
                buf.schedule.clear();
                buf.decisions.clear();
                buf.access_log.clear();
                drop(st);
                stats.record(&buf);
                let _ = on_run(&buf);
                stats.stopped_early = true;
                break;
            }
        }

        let mut st = shared.state.lock().unwrap();
        let outcome = st.run_over.take().expect("run ended");
        buf.run_index = stats.runs;
        buf.outcome = outcome;
        buf.steps = st.step;
        buf.preemptions = st.preemptions;
        // Swap the run's buffers out instead of reallocating: the stale
        // contents swapped back in are cleared by the next `reset`.
        std::mem::swap(&mut buf.schedule, &mut st.schedule);
        std::mem::swap(&mut buf.decisions, &mut st.decisions);
        std::mem::swap(&mut buf.access_log, &mut st.access_log);
        stats.fast_path_steps = stats.fast_path_steps.saturating_add(st.fast_path_steps);
        stats.handoffs = stats.handoffs.saturating_add(st.handoffs);
        stats.symmetry_prunes = stats.symmetry_prunes.saturating_add(st.symmetry_prunes);
        let more = st.strategy.as_mut().expect("strategy present").end_run();
        drop(st);

        stats.record(&buf);
        let flow = on_run(&buf);

        if flow == ControlFlow::Break(()) {
            stats.stopped_early = true;
            break;
        }
        if !more {
            break;
        }
        if let Some(max) = config.max_runs {
            if stats.runs >= max {
                stats.stopped_early = true;
                break;
            }
        }
    }
    {
        let st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        let strategy = st.strategy.as_ref().expect("strategy present");
        stats.backtrack_points = strategy.backtrack_points();
        if let Some(coverage) = strategy.coverage_counters() {
            stats.corpus_size = coverage.corpus_size;
            stats.coverage_bits = coverage.coverage_bits;
            stats.mutations = coverage.mutations;
        }
    }
    stats
}

/// One unit of work-stealing exploration: a schedule subtree addressed by
/// its decision prefix, with the sleep masks a serial DFS would have
/// accumulated along it (see
/// [`StolenSubtree`](crate::strategy::StolenSubtree)).
#[derive(Debug, Clone)]
pub struct StealTask {
    /// Decision prefix rooting the subtree (empty for the whole tree).
    pub prefix: Vec<usize>,
    /// Per-decision sleep masks along the prefix (zeros when partial-order
    /// reduction is off).
    pub sleep: Vec<u64>,
    /// True when this subtree was split off a live victim (as opposed to
    /// the root task the pool is seeded with).
    pub stolen: bool,
}

#[derive(Debug)]
struct StealQueue {
    queue: VecDeque<StealTask>,
    /// Tasks currently being explored by a worker.
    active: usize,
    /// Which workers currently hold a task (so an abandoned exploration
    /// can be released even when the strategy that held it is gone).
    holding: Vec<bool>,
    /// A worker panicked: everyone unparks and bails out.
    poisoned: bool,
    /// The exploration was cut short (budget exhausted): remaining tasks
    /// are dropped and parked workers exit.
    stopped: bool,
}

/// Shared coordinator of a work-stealing exploration.
///
/// The pool starts with one root task (the whole schedule tree). Workers
/// [`claim`](StealPool::claim) tasks and explore them depth-first; a worker
/// finding the queue empty flags a victim — chosen by deterministic
/// round-robin from its own id and retry epoch — and parks. The victim
/// services the flag at its next run boundary by splitting its deepest
/// unexplored branch point ([`DfsStrategy::split_deepest`]) and pushing the
/// stolen subtree, which wakes the thief. Prefix replays happen only when a
/// stolen task is actually explored, never eagerly.
#[derive(Debug)]
pub struct StealPool {
    workers: usize,
    state: Mutex<StealQueue>,
    idle: Condvar,
    /// Per-worker steal-request flags, set by idle thieves on their chosen
    /// victim and serviced by the victim between runs. A flag stays set
    /// until the victim manages to split (deeper branch points appear as
    /// its exploration proceeds), so a thief never needs to re-request
    /// from the same victim.
    requests: Vec<AtomicBool>,
    splits: AtomicU64,
    steals: AtomicU64,
    idle_parks: AtomicU64,
    steal_replays: AtomicU64,
}

/// How many subtrees a victim gives away per serviced steal request.
/// Deepest-first splits are near-leaf-sized, so a batch amortizes the
/// park/unpark handshake; later splits in a batch climb toward the root
/// and carry progressively larger subtrees.
const STEAL_BATCH: usize = 16;

impl StealPool {
    /// Creates a pool for `workers` workers, seeded with the root task
    /// covering the whole schedule tree.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "workers must be at least 1");
        let mut queue = VecDeque::new();
        queue.push_back(StealTask {
            prefix: Vec::new(),
            sleep: Vec::new(),
            stolen: false,
        });
        StealPool {
            workers,
            state: Mutex::new(StealQueue {
                queue,
                active: 0,
                holding: vec![false; workers],
                poisoned: false,
                stopped: false,
            }),
            idle: Condvar::new(),
            requests: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            splits: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            idle_parks: AtomicU64::new(0),
            steal_replays: AtomicU64::new(0),
        }
    }

    /// Claims the next task for `worker`, parking (with steal requests
    /// out) while the queue is empty but other workers still hold
    /// splittable work. Returns `None` when the exploration is over: no
    /// queued or active tasks remain, the pool was poisoned by a panicking
    /// worker, or it was stopped.
    pub fn claim(&self, worker: usize) -> Option<StealTask> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(!st.holding[worker], "claim while already holding a task");
        let mut epoch = 0usize;
        loop {
            if st.poisoned || st.stopped {
                return None;
            }
            if let Some(task) = st.queue.pop_front() {
                st.active += 1;
                st.holding[worker] = true;
                if task.stolen {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(task);
            }
            if st.active == 0 {
                // Wake any other parked thieves so they observe the end.
                self.idle.notify_all();
                return None;
            }
            // Deterministic round-robin victim selection: worker `w`
            // cycles through (w+1, …, w+workers−1) mod workers as its
            // retry epoch advances.
            if self.workers > 1 {
                let victim = (worker + 1 + epoch % (self.workers - 1)) % self.workers;
                self.requests[victim].store(true, Ordering::Release);
                epoch += 1;
            }
            self.idle_parks.fetch_add(1, Ordering::Relaxed);
            // The timeout is a backstop: it re-issues requests when the
            // flagged victim finished (or died) without splitting.
            let (guard, _) = self
                .idle
                .wait_timeout(st, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Marks `worker`'s current task finished (fully explored, abandoned
    /// to cancellation, or given up on early exit). Idempotent per claim.
    pub fn finish_task(&self, worker: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.holding[worker] {
            st.holding[worker] = false;
            st.active -= 1;
            self.idle.notify_all();
        }
    }

    /// Queues a subtree split off a victim's live exploration and wakes
    /// parked thieves.
    pub fn push_stolen(&self, prefix: Vec<usize>, sleep: Vec<u64>) {
        self.splits.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.queue.push_back(StealTask {
            prefix,
            sleep,
            stolen: true,
        });
        drop(st);
        self.idle.notify_all();
    }

    /// Whether an idle worker has flagged `worker` as a steal victim.
    pub fn steal_requested(&self, worker: usize) -> bool {
        self.requests[worker].load(Ordering::Acquire)
    }

    /// Clears `worker`'s steal-request flag (after a successful split).
    pub fn clear_request(&self, worker: usize) {
        self.requests[worker].store(false, Ordering::Release);
    }

    /// Records that a stolen task's exploration actually began (its prefix
    /// is being replayed by the thief).
    pub fn note_steal_replay(&self) {
        self.steal_replays.fetch_add(1, Ordering::Relaxed);
    }

    /// Poisons the pool: a worker panicked. Every parked worker wakes and
    /// [`claim`](StealPool::claim) returns `None` from then on, so peers
    /// exit instead of waiting forever for work that will never come.
    pub fn poison(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.poisoned = true;
        drop(st);
        self.idle.notify_all();
    }

    /// Stops the pool: remaining tasks are dropped and parked workers
    /// exit. Used when a global run budget is exhausted.
    pub fn stop(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.stopped = true;
        drop(st);
        self.idle.notify_all();
    }

    /// Writes the pool's steal counters into `stats`.
    pub fn export_stats(&self, stats: &mut ExploreStats) {
        stats.splits = self.splits.load(Ordering::Relaxed);
        stats.steals = self.steals.load(Ordering::Relaxed);
        stats.idle_parks = self.idle_parks.load(Ordering::Relaxed);
        stats.steal_replays = self.steal_replays.load(Ordering::Relaxed);
    }
}

/// Claim-time filter for a [`StealingStrategy`]: decides whether a task
/// from the pool should be skipped outright (marked finished without
/// exploring), e.g. because the whole subtree lies after an already-found
/// violation in serial order.
pub type StealSkip = Box<dyn Fn(&StealTask) -> bool + Send>;

/// Abandon confirmation for a [`StealingStrategy`]: given the decision
/// vector of the run the strategy just finished, decides whether a
/// pending abandon request still applies there (see
/// [`StealingStrategy::claim_first`]).
pub type AbandonConfirm = Box<dyn Fn(&[usize]) -> bool + Send>;

/// The strategy driving one worker of a work-stealing exploration: a
/// [`PrefixDfsStrategy`] over the current task, streaming new tasks from
/// the shared [`StealPool`] whenever the current subtree is exhausted (or
/// abandoned via [`StealingStrategy::abandon_flag`]), and servicing steal
/// requests from idle peers between runs by splitting its deepest
/// unexplored branch point.
///
/// Each worker runs **one** [`explore_with_strategy`] call for the whole
/// exploration, so runtime setup (fiber pools, wakeup slots, buffers) is
/// paid once per worker instead of once per subtree.
pub struct StealingStrategy {
    pool: Arc<StealPool>,
    worker: usize,
    por: bool,
    /// Skip predicate consulted before starting a claimed task (e.g. the
    /// task lies after an already-found violation in serial order).
    skip: Option<StealSkip>,
    /// Set by the run visitor to abandon the current subtree at the next
    /// run boundary (everything left in it is irrelevant).
    abandon: Arc<AtomicBool>,
    /// Confirms a pending abandon request against the current decision
    /// vector before it is honored. The explorer calls `end_run` *before*
    /// the visitor sees the finished run, so a flag raised against the
    /// final run of a task is only observed after the strategy has moved
    /// on to a fresh task — cancelling that one would skip work the
    /// request never covered. `None` honors every request unconditionally.
    confirm: Option<AbandonConfirm>,
    inner: Option<PrefixDfsStrategy>,
    /// Backtrack points accumulated over finished tasks.
    backtracks: u64,
}

impl std::fmt::Debug for StealingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealingStrategy")
            .field("worker", &self.worker)
            .field("por", &self.por)
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl StealingStrategy {
    /// Creates the strategy for `worker` and claims its first task;
    /// returns `None` when the pool has no work for it (so the caller
    /// skips its exploration entirely). `confirm`, when given, is asked —
    /// with the decision vector of the run the strategy just finished —
    /// whether a pending abandon request still applies there; a stale
    /// request (raised against a task already retired) is discarded
    /// instead of cancelling the current task.
    pub fn claim_first(
        pool: Arc<StealPool>,
        worker: usize,
        por: bool,
        skip: Option<StealSkip>,
        confirm: Option<AbandonConfirm>,
    ) -> Option<Self> {
        let mut s = StealingStrategy {
            pool,
            worker,
            por,
            skip,
            abandon: Arc::new(AtomicBool::new(false)),
            confirm,
            inner: None,
            backtracks: 0,
        };
        if s.acquire() {
            Some(s)
        } else {
            None
        }
    }

    /// The flag a run visitor sets to abandon the current subtree: the
    /// strategy consumes it at the next run boundary, drops the rest of
    /// the subtree, and moves on to the next task.
    pub fn abandon_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.abandon)
    }

    fn acquire(&mut self) -> bool {
        while let Some(task) = self.pool.claim(self.worker) {
            if self.skip.as_ref().is_some_and(|f| f(&task)) {
                self.pool.finish_task(self.worker);
                continue;
            }
            if task.stolen {
                self.pool.note_steal_replay();
            }
            self.inner = Some(if self.por {
                PrefixDfsStrategy::new_por(task.prefix, task.sleep)
            } else {
                PrefixDfsStrategy::new(task.prefix)
            });
            return true;
        }
        false
    }

    fn inner(&mut self) -> &mut PrefixDfsStrategy {
        self.inner.as_mut().expect("a task is being explored")
    }

    fn retire_inner(&mut self) {
        if let Some(inner) = self.inner.take() {
            self.backtracks += inner.backtrack_points();
        }
        self.pool.finish_task(self.worker);
    }

    /// Whether a pending abandon request applies to the task currently
    /// being explored. Sound to honor whenever `confirm` accepts the
    /// decision vector of the run that just finished: every remaining run
    /// of the task is lexicographically greater than that one.
    fn confirmed_abandon(&self) -> bool {
        match (&self.confirm, &self.inner) {
            (Some(confirm), Some(inner)) => confirm(&inner.current_decisions()),
            _ => true,
        }
    }
}

impl Strategy for StealingStrategy {
    fn begin_run(&mut self) {
        self.inner().begin_run();
    }

    fn choose(&mut self, num_alts: usize) -> usize {
        self.inner().choose(num_alts)
    }

    fn choose_thread(&mut self, candidates: &[usize], step: usize) -> usize {
        self.inner().choose_thread(candidates, step)
    }

    fn choose_thread_por(
        &mut self,
        candidates: &[usize],
        cur_sleep: u64,
        step: usize,
    ) -> PorChoice {
        self.inner().choose_thread_por(candidates, cur_sleep, step)
    }

    fn add_backtrack(&mut self, node: usize, thread: usize) {
        self.inner().add_backtrack(node, thread);
    }

    fn backtrack_points(&self) -> u64 {
        self.backtracks
            + self
                .inner
                .as_ref()
                .map_or(0, PrefixDfsStrategy::backtrack_points)
    }

    fn end_run(&mut self) -> bool {
        let more = if self.abandon.swap(false, Ordering::AcqRel) && self.confirmed_abandon() {
            false
        } else {
            let inner = self.inner.as_mut().expect("a task is being explored");
            let more = inner.end_run();
            if more && self.pool.steal_requested(self.worker) {
                let mut served = 0;
                while served < STEAL_BATCH {
                    match inner.split_deepest() {
                        Some(sub) => {
                            self.pool.push_stolen(sub.prefix, sub.sleep);
                            served += 1;
                        }
                        None => break,
                    }
                }
                if served > 0 {
                    self.pool.clear_request(self.worker);
                }
            }
            more
        };
        if more {
            return true;
        }
        self.retire_inner();
        self.acquire()
    }
}

/// Cross-worker cancellation for a work-stealing exploration that stops at
/// the first violation, keyed by the run's *decision vector*: the serial
/// DFS visits runs in lexicographic decision order, so the lex-least
/// violating decision vector is exactly the violation a serial exploration
/// reports first, independent of worker timing.
#[derive(Debug, Default)]
pub struct LexCancel {
    reported: AtomicBool,
    winner: Mutex<Option<Vec<usize>>>,
}

impl LexCancel {
    /// Creates a token with no reported violation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a violating run; keeps the lexicographically least decision
    /// vector reported so far.
    pub fn report(&self, decisions: &[usize]) {
        let mut w = self.winner.lock().unwrap_or_else(|e| e.into_inner());
        match &*w {
            Some(best) if best.as_slice() <= decisions => {}
            _ => *w = Some(decisions.to_vec()),
        }
        drop(w);
        self.reported.store(true, Ordering::Release);
    }

    /// Whether a run with this decision vector is irrelevant: a violation
    /// strictly before it in serial order has been reported. The winner
    /// itself (and anything before it) keeps running.
    pub fn should_skip(&self, decisions: &[usize]) -> bool {
        if !self.reported.load(Ordering::Acquire) {
            return false;
        }
        let w = self.winner.lock().unwrap_or_else(|e| e.into_inner());
        w.as_ref().is_some_and(|best| best.as_slice() < decisions)
    }

    /// Whether a whole subtree rooted at `prefix` is irrelevant: every run
    /// in it extends `prefix`, so all of them come after the winner
    /// whenever the winner is ≤ the prefix (the winner being a strict
    /// extension of `prefix` means the subtree still contains earlier
    /// runs, and it keeps running).
    pub fn should_skip_subtree(&self, prefix: &[usize]) -> bool {
        if !self.reported.load(Ordering::Acquire) {
            return false;
        }
        let w = self.winner.lock().unwrap_or_else(|e| e.into_inner());
        w.as_ref().is_some_and(|best| best.as_slice() <= prefix)
    }

    /// The winning (lex-least) violating decision vector, if any.
    pub fn winner(&self) -> Option<Vec<usize>> {
        self.winner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ThreadId;
    use crate::runtime::{block_current, op_boundary, unblock, yield_point};
    use crate::state::BlockKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn count_runs(config: &Config, setup: impl FnMut(&mut Execution)) -> ExploreStats {
        explore(config, setup, |_| ControlFlow::Continue(()))
    }

    #[test]
    fn zero_threads_complete_once() {
        let stats = count_runs(&Config::exhaustive(), |_| {});
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.complete, 1);
    }

    #[test]
    fn single_thread_single_run() {
        let stats = count_runs(&Config::exhaustive(), |ex| {
            ex.spawn(|| {
                op_boundary();
                op_boundary();
            });
        });
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.complete, 1);
    }

    /// Two threads with two boundaries each: each thread is three segments
    /// (start..b1, b1..b2, b2..finish), so the number of interleavings is
    /// C(6,3) = 20. (POR off: this asserts the *full* enumeration.)
    #[test]
    fn two_threads_enumerate_all_interleavings() {
        let stats = count_runs(&Config::exhaustive().with_por(false), |ex| {
            for _ in 0..2 {
                ex.spawn(|| {
                    op_boundary();
                    op_boundary();
                });
            }
        });
        assert_eq!(stats.runs, 20);
        assert_eq!(stats.complete, 20);
    }

    /// The same program under partial-order reduction: every transition is
    /// independent (boundaries touch no object), so one representative
    /// schedule suffices.
    #[test]
    fn por_collapses_independent_interleavings() {
        let stats = count_runs(&Config::exhaustive(), |ex| {
            for _ in 0..2 {
                ex.spawn(|| {
                    op_boundary();
                    op_boundary();
                });
            }
        });
        assert!(
            stats.runs < 20,
            "POR must prune commuting interleavings, got {} runs",
            stats.runs
        );
        assert!(stats.complete >= 1);
        assert_eq!(
            stats.complete + stats.sleep_prunes,
            stats.runs,
            "every run either completes or is pruned"
        );
    }

    /// Under POR, conflicting writes to one object still get both orders
    /// explored (a DPOR backtrack point), while the independent schedule
    /// interleavings around them are pruned.
    #[test]
    fn por_explores_both_orders_of_a_conflict() {
        use crate::ids::ObjId;
        let orders = Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));
        let trace = Arc::new(std::sync::Mutex::new(Vec::new()));
        let t2 = Arc::clone(&trace);
        let stats = explore(
            &Config::exhaustive(),
            move |ex| {
                t2.lock().unwrap().clear();
                for me in 0..2usize {
                    let t = Arc::clone(&t2);
                    ex.spawn(move || {
                        crate::runtime::schedule(ObjId(7));
                        t.lock().unwrap().push(me);
                    });
                }
            },
            |run| {
                if run.outcome == RunOutcome::Complete {
                    orders.lock().unwrap().insert(trace.lock().unwrap().clone());
                }
                ControlFlow::Continue(())
            },
        );
        let orders = Arc::try_unwrap(orders).unwrap().into_inner().unwrap();
        assert!(orders.contains(&vec![0, 1]), "write order 0<1 explored");
        assert!(orders.contains(&vec![1, 0]), "write order 1<0 explored");
        assert!(
            stats.backtrack_points >= 1,
            "the conflict demands a backtrack"
        );
        let full = count_runs(&Config::exhaustive().with_por(false), |ex| {
            for _ in 0..2 {
                ex.spawn(|| crate::runtime::schedule(ObjId(7)));
            }
        });
        assert!(
            stats.runs < full.runs,
            "POR ({} runs) must beat full enumeration ({} runs)",
            stats.runs,
            full.runs
        );
    }

    /// Coverage-guided exploration honors the run budget and reports its
    /// feedback state (corpus, bitmap population, mutation count) through
    /// [`ExploreStats`].
    #[test]
    fn coverage_strategy_reports_feedback_stats() {
        let setup = |ex: &mut Execution| {
            for _ in 0..3 {
                ex.spawn(|| {
                    yield_point();
                    yield_point();
                });
            }
        };
        let stats = count_runs(&Config::coverage(42, 50), setup);
        assert_eq!(stats.runs, 50);
        assert!(stats.coverage_bits > 0, "decisions must light bitmap bits");
        assert!(stats.corpus_size > 0, "novel runs must enter the corpus");
        assert!(stats.mutations > 0, "corpus parents must get mutated");
        // Fixed seed ⇒ identical campaign, including the feedback state.
        let again = count_runs(&Config::coverage(42, 50), setup);
        assert_eq!(stats, again);
        // POR must stay disengaged: feedback only orders exploration.
        assert_eq!(stats.sleep_prunes, 0);
        assert_eq!(stats.backtrack_points, 0);
    }

    /// Serial mode must see exactly the same interleavings here, because
    /// all schedule points are boundaries.
    #[test]
    fn serial_mode_boundaries_only() {
        let stats = count_runs(&Config::serial(), |ex| {
            for _ in 0..2 {
                ex.spawn(|| {
                    op_boundary();
                    op_boundary();
                });
            }
        });
        assert_eq!(stats.runs, 20);
    }

    /// A thread that blocks with nobody to unblock it deadlocks every run.
    #[test]
    fn deadlock_detected() {
        let stats = count_runs(&Config::exhaustive(), |ex| {
            ex.spawn(|| {
                block_current(BlockKind::Untimed);
            });
            ex.spawn(|| {
                op_boundary();
            });
        });
        assert!(stats.runs >= 1);
        assert_eq!(stats.complete, 0);
        assert!(stats.deadlock >= 1);
        assert_eq!(stats.deadlock + stats.sleep_prunes, stats.runs);
    }

    /// An unbounded spin loop whose condition is never satisfied is a fair
    /// livelock, not a hang.
    #[test]
    fn livelock_detected() {
        let stats = count_runs(&Config::exhaustive(), |ex| {
            ex.spawn(|| loop {
                yield_point();
            });
        });
        assert!(stats.runs >= 1);
        assert_eq!(stats.livelock, stats.runs);
    }

    /// A spin loop waiting for a flag set by another thread terminates
    /// under the fair scheduler.
    #[test]
    fn fair_scheduler_unblocks_spinners() {
        let stats = count_runs(&Config::exhaustive(), |ex| {
            let flag = Arc::new(AtomicUsize::new(0));
            let f2 = Arc::clone(&flag);
            ex.spawn(move || {
                while flag.load(Ordering::SeqCst) == 0 {
                    yield_point();
                }
            });
            ex.spawn(move || {
                op_boundary();
                f2.store(1, Ordering::SeqCst);
                // Announce progress to the model (stores through real
                // atomics are invisible; a boundary is a progress point).
                op_boundary();
            });
        });
        assert_eq!(
            stats.livelock + stats.complete + stats.sleep_prunes,
            stats.runs
        );
        assert!(stats.complete > 0, "some schedules must complete");
    }

    /// Unblocking makes a blocked thread runnable again.
    #[test]
    fn block_unblock_roundtrip() {
        let stats = count_runs(&Config::exhaustive(), |ex| {
            ex.spawn(|| {
                block_current(BlockKind::Untimed);
                op_boundary();
            });
            ex.spawn(|| {
                op_boundary();
                unblock(ThreadId(0));
                op_boundary();
            });
        });
        assert!(stats.complete > 0);
        // Schedules where thread 1 unblocks before thread 0 blocks cannot
        // exist (unblock of a runnable thread is a no-op and thread 0
        // blocks afterwards with nobody left): those deadlock.
        assert_eq!(
            stats.complete + stats.deadlock + stats.sleep_prunes,
            stats.runs
        );
    }

    /// A timed block can be resumed by the scheduler (modelling a timeout).
    #[test]
    fn timed_block_can_time_out() {
        let timed_out_ref = std::sync::Arc::new(std::sync::Mutex::new((0u32, 0u32)));
        let tor = Arc::clone(&timed_out_ref);
        let stats = explore(
            &Config::exhaustive(),
            move |ex| {
                let tor = Arc::clone(&tor);
                ex.spawn(move || {
                    let r = block_current(BlockKind::Timed);
                    let mut g = tor.lock().unwrap();
                    match r {
                        crate::runtime::BlockResult::TimedOut => g.0 += 1,
                        crate::runtime::BlockResult::Resumed => g.1 += 1,
                    }
                });
                ex.spawn(|| {
                    op_boundary();
                    unblock(ThreadId(0));
                });
            },
            |_| ControlFlow::Continue(()),
        );
        let g = timed_out_ref.lock().unwrap();
        let (timed_out, resumed) = *g;
        assert!(stats.complete > 0);
        assert!(timed_out > 0, "some schedules fire the timeout");
        assert!(resumed > 0, "some schedules grant the wakeup");
    }

    /// The panic of a virtual thread is reported, not propagated.
    #[test]
    fn user_panic_is_captured() {
        let stats = count_runs(&Config::exhaustive(), |ex| {
            ex.spawn(|| panic!("boom"));
        });
        assert_eq!(stats.panicked, stats.runs);
    }

    /// Stopping early via ControlFlow::Break.
    #[test]
    fn visitor_can_stop_exploration() {
        let stats = explore(
            &Config::exhaustive(),
            |ex| {
                for _ in 0..2 {
                    ex.spawn(|| {
                        op_boundary();
                        op_boundary();
                    });
                }
            },
            |_| ControlFlow::Break(()),
        );
        assert_eq!(stats.runs, 1);
        assert!(stats.stopped_early);
    }

    /// Random strategy runs exactly max_runs runs.
    #[test]
    fn random_strategy_run_budget() {
        let stats = count_runs(&Config::random(3, 17), |ex| {
            for _ in 0..2 {
                ex.spawn(|| {
                    op_boundary();
                    op_boundary();
                });
            }
        });
        assert_eq!(stats.runs, 17);
    }

    /// Replay determinism: the same exploration twice yields identical
    /// schedules run by run.
    #[test]
    fn exploration_is_deterministic() {
        let collect = |_: ()| {
            let mut schedules = Vec::new();
            explore(
                &Config::exhaustive(),
                |ex| {
                    for _ in 0..2 {
                        ex.spawn(|| {
                            op_boundary();
                            yield_point();
                            op_boundary();
                        });
                    }
                },
                |run| {
                    schedules.push(run.schedule.clone());
                    ControlFlow::Continue(())
                },
            );
            schedules
        };
        assert_eq!(collect(()), collect(()));
    }

    /// A runaway loop without yields trips the per-run step limit.
    #[test]
    fn step_limit_backstop() {
        let mut config = Config::exhaustive();
        config.max_steps = 50;
        config.max_runs = Some(1);
        let counter = Arc::new(AtomicUsize::new(0));
        let stats = explore(
            &config,
            move |ex| {
                let c = Arc::clone(&counter);
                ex.spawn(move || loop {
                    // A "busy" loop that makes progress every step (so the
                    // livelock detector stays quiet) via boundaries.
                    op_boundary();
                    c.fetch_add(1, Ordering::SeqCst);
                });
            },
            |run| {
                assert_eq!(run.outcome, crate::state::RunOutcome::StepLimit);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(stats.step_limit, stats.runs);
    }

    /// Context classification: the setup closure is not a virtual thread;
    /// virtual threads are; the controller is neither.
    #[test]
    fn context_classification() {
        assert!(!crate::runtime::is_model_active());
        let flags = Arc::new(std::sync::Mutex::new((false, false)));
        let f2 = Arc::clone(&flags);
        explore(
            &Config::exhaustive().with_max_runs(1),
            move |ex| {
                // Setup: registration works, but scheduling is inactive.
                f2.lock().unwrap().0 = crate::runtime::is_model_active();
                let f3 = Arc::clone(&f2);
                ex.spawn(move || {
                    f3.lock().unwrap().1 = crate::runtime::is_model_active();
                });
            },
            |_| ControlFlow::Continue(()),
        );
        let (in_setup, in_thread) = *flags.lock().unwrap();
        assert!(!in_setup, "setup is not a scheduled context");
        assert!(in_thread, "virtual threads are");
    }

    /// Object ids are deterministic across replayed runs.
    #[test]
    fn object_registration_is_deterministic() {
        let ids = std::sync::Mutex::new(Vec::new());
        explore(
            // POR off: the comparison needs more than one run.
            &Config::exhaustive().with_por(false),
            |ex| {
                let a = crate::runtime::register_object();
                let b = crate::runtime::register_object();
                ids.lock().unwrap().push((a, b));
                for _ in 0..2 {
                    ex.spawn(|| {
                        op_boundary();
                    });
                }
            },
            |_| ControlFlow::Continue(()),
        );
        let ids = ids.into_inner().unwrap();
        assert!(ids.len() > 1);
        assert!(ids.iter().all(|&p| p == ids[0]));
    }

    /// merge() sums counters, maxes `max_schedule_len`, ORs
    /// `stopped_early`.
    #[test]
    fn stats_merge_combines_fields() {
        let mut a = ExploreStats {
            runs: 3,
            complete: 2,
            deadlock: 1,
            livelock: 0,
            stuck_serial: 0,
            panicked: 0,
            step_limit: 0,
            sleep_prunes: 2,
            backtrack_points: 1,
            symmetry_prunes: 7,
            total_steps: 40,
            fast_path_steps: 30,
            handoffs: 10,
            splits: 4,
            steals: 3,
            idle_parks: 6,
            steal_replays: 2,
            max_schedule_len: 9,
            corpus_size: 3,
            coverage_bits: 100,
            mutations: 2,
            stopped_early: false,
        };
        let b = ExploreStats {
            runs: 5,
            complete: 4,
            deadlock: 0,
            livelock: 1,
            stuck_serial: 0,
            panicked: 0,
            step_limit: 0,
            sleep_prunes: 3,
            backtrack_points: 4,
            symmetry_prunes: 5,
            total_steps: 60,
            fast_path_steps: 45,
            handoffs: 15,
            splits: 1,
            steals: 1,
            idle_parks: 2,
            steal_replays: 1,
            max_schedule_len: 14,
            corpus_size: 2,
            coverage_bits: 140,
            mutations: 3,
            stopped_early: true,
        };
        a.merge(&b);
        assert_eq!(a.runs, 8);
        assert_eq!(a.complete, 6);
        assert_eq!(a.deadlock, 1);
        assert_eq!(a.livelock, 1);
        assert_eq!(a.sleep_prunes, 5);
        assert_eq!(a.backtrack_points, 5);
        assert_eq!(a.symmetry_prunes, 12);
        assert_eq!(a.total_steps, 100);
        assert_eq!(a.fast_path_steps, 75);
        assert_eq!(a.handoffs, 25);
        assert_eq!(a.splits, 5);
        assert_eq!(a.steals, 4);
        assert_eq!(a.idle_parks, 8);
        assert_eq!(a.steal_replays, 3);
        assert_eq!(a.max_schedule_len, 14, "merge takes the max, not the sum");
        assert_eq!(a.corpus_size, 3, "shared-bitmap gauges merge by max");
        assert_eq!(a.coverage_bits, 140, "shared-bitmap gauges merge by max");
        assert_eq!(a.mutations, 5, "mutated runs are per-run work and sum");
        assert!(
            a.stopped_early,
            "either side stopping early marks the merge"
        );
        // Merging a default (empty) exploration changes nothing.
        let snapshot = a.clone();
        a.merge(&ExploreStats::default());
        assert_eq!(a, snapshot);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = ExploreStats {
            runs: u64::MAX - 1,
            total_steps: u64::MAX,
            complete: u64::MAX / 2,
            ..Default::default()
        };
        a.merge(&ExploreStats {
            runs: 5,
            total_steps: 100,
            complete: u64::MAX / 2 + 10,
            ..Default::default()
        });
        assert_eq!(a.runs, u64::MAX);
        assert_eq!(a.total_steps, u64::MAX);
        assert_eq!(a.complete, u64::MAX);
    }

    #[test]
    fn merge_keeps_own_larger_schedule_len() {
        let mut a = ExploreStats {
            max_schedule_len: 20,
            ..Default::default()
        };
        a.merge(&ExploreStats {
            max_schedule_len: 5,
            stopped_early: false,
            ..Default::default()
        });
        assert_eq!(a.max_schedule_len, 20);
        assert!(!a.stopped_early);
    }

    fn boundary_setup(threads: usize, boundaries: usize) -> impl FnMut(&mut Execution) {
        move |ex: &mut Execution| {
            for _ in 0..threads {
                ex.spawn(move || {
                    for _ in 0..boundaries {
                        op_boundary();
                    }
                });
            }
        }
    }

    /// Every schedule point is accounted as either a fast-path inline
    /// continuation or a slot handoff, and forcing the fast path off moves
    /// all of them to handoffs without changing the exploration.
    #[test]
    fn fast_path_accounting_and_forced_slow_path() {
        let fast = count_runs(&Config::exhaustive().with_por(false), boundary_setup(2, 2));
        assert!(fast.fast_path_steps > 0, "DFS must hit the fast path");
        assert!(fast.handoffs > 0, "cross-thread switches remain handoffs");
        let slow = count_runs(
            &Config::exhaustive().with_por(false).with_fast_path(false),
            boundary_setup(2, 2),
        );
        assert_eq!(slow.fast_path_steps, 0, "forced off takes no fast path");
        assert_eq!(
            slow.handoffs,
            fast.fast_path_steps + fast.handoffs,
            "every skipped handoff reappears as a slot handoff"
        );
        assert_eq!(slow.runs, fast.runs);
        assert_eq!(slow.total_steps, fast.total_steps);
        assert_eq!(slow.complete, fast.complete);
    }

    /// A worker thread death surfaces as an error from `wait_acks` (with
    /// the worker named), not as a controller panic or a hang.
    #[test]
    fn wait_acks_reports_a_dead_worker() {
        let mut pool = Pool::new();
        pool.ensure(2);
        // Simulate a dying worker: shutdown makes worker 0's thread exit
        // without ever sending the ack the controller is waiting for.
        pool.workers[0].tx.send(Task::Shutdown).unwrap();
        let err = pool.wait_acks(1).unwrap_err();
        assert!(err.contains("worker thread 0 died"), "got: {err}");
    }

    /// Object registration outside any model context yields the pseudo id.
    #[test]
    fn register_object_outside_model() {
        assert_eq!(
            crate::runtime::register_object(),
            crate::events::AccessEvent::NO_OBJ
        );
    }

    /// choose_bool outside a model context is deterministically false.
    #[test]
    fn choose_bool_outside_model() {
        assert!(!crate::runtime::choose_bool());
    }

    /// The access log records boundaries with per-thread op indexes.
    #[test]
    fn access_log_records_op_indexes() {
        let config = Config::exhaustive().with_access_log(true).with_max_runs(1);
        let mut log = Vec::new();
        explore(
            &config,
            |ex| {
                ex.spawn(|| {
                    op_boundary();
                    op_boundary();
                });
            },
            |run| {
                log = run.access_log.clone();
                ControlFlow::Continue(())
            },
        );
        let boundaries: Vec<_> = log
            .iter()
            .filter(|e| e.kind == crate::events::AccessKind::OpBoundary)
            .collect();
        assert_eq!(boundaries.len(), 2);
        assert_eq!(boundaries[0].op_index, 0);
        assert_eq!(boundaries[1].op_index, 1);
    }

    /// Drives a full work-stealing exploration: one [`StealPool`],
    /// `workers` scoped threads, each running a single
    /// [`explore_with_strategy`] call with a task-streaming
    /// [`StealingStrategy`]. Returns the merged stats plus every run's
    /// (decisions, schedule), sorted into serial (lexicographic) order.
    #[allow(clippy::type_complexity)]
    fn explore_stealing<S>(
        config: &Config,
        workers: usize,
        setup_for: impl Fn() -> S + Sync,
    ) -> (ExploreStats, Vec<(Vec<usize>, Vec<Choice>)>)
    where
        S: FnMut(&mut Execution),
    {
        let pool = Arc::new(StealPool::new(workers));
        let merged = Mutex::new(ExploreStats::default());
        let runs = Mutex::new(Vec::new());
        let por = config.effective_por();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let pool = Arc::clone(&pool);
                let (merged, runs, setup_for) = (&merged, &runs, &setup_for);
                scope.spawn(move || {
                    let Some(strategy) =
                        StealingStrategy::claim_first(Arc::clone(&pool), w, por, None, None)
                    else {
                        return;
                    };
                    let mut local = Vec::new();
                    let stats =
                        explore_with_strategy(config, Box::new(strategy), setup_for(), |run| {
                            local.push((run.decisions.clone(), run.schedule.clone()));
                            ControlFlow::Continue(())
                        });
                    pool.finish_task(w);
                    merged.lock().unwrap().merge(&stats);
                    runs.lock().unwrap().append(&mut local);
                });
            }
        });
        let mut stats = merged.into_inner().unwrap();
        pool.export_stats(&mut stats);
        let mut runs = runs.into_inner().unwrap();
        runs.sort_by(|a, b| a.0.cmp(&b.0));
        (stats, runs)
    }

    /// Work stealing visits exactly the serial runs (POR off): same
    /// counts, same schedules, zero duplicated work — for any worker count.
    #[test]
    fn stealing_matches_serial_runs_por_off() {
        let config = Config::exhaustive().with_por(false);
        let mut serial = Vec::new();
        let serial_stats = explore(&config, boundary_setup(2, 3), |run| {
            serial.push((run.decisions.clone(), run.schedule.clone()));
            ControlFlow::Continue(())
        });
        for workers in [1, 2, 4] {
            let (stats, runs) = explore_stealing(&config, workers, || boundary_setup(2, 3));
            assert_eq!(stats.runs, serial_stats.runs, "workers = {workers}");
            assert_eq!(stats.complete, serial_stats.complete);
            assert_eq!(stats.total_steps, serial_stats.total_steps);
            assert!(
                stats.steal_replays <= stats.steals,
                "replays ({}) must not exceed steals ({})",
                stats.steal_replays,
                stats.steals
            );
            assert!(
                stats.steals <= stats.splits,
                "steals ({}) must not exceed splits ({})",
                stats.steals,
                stats.splits
            );
            assert_eq!(runs, serial, "workers = {workers}");
        }
    }

    /// With more workers than tasks-at-start, idle workers flag a victim
    /// and actual steals happen; the partition stays exact. Whether a
    /// steal occurs depends on OS scheduling (on one core the first
    /// worker can drain the whole tree before the second is scheduled),
    /// so the run retries until one is observed — the partition
    /// invariants must hold on every attempt.
    #[test]
    fn stealing_actually_steals_on_a_big_tree() {
        let config = Config::exhaustive().with_por(false);
        let serial = count_runs(&config, boundary_setup(2, 4));
        let mut stole = false;
        for _ in 0..50 {
            let (stats, runs) = explore_stealing(&config, 2, || boundary_setup(2, 4));
            assert_eq!(stats.runs, serial.runs);
            assert!(stats.splits >= stats.steals);
            let mut decisions: Vec<_> = runs.into_iter().map(|(d, _)| d).collect();
            let before = decisions.len();
            decisions.dedup();
            assert_eq!(decisions.len(), before, "no run explored twice");
            if stats.steals > 0 {
                stole = true;
                break;
            }
        }
        assert!(stole, "a 252-run tree must get split within 50 attempts");
    }

    /// POR composes with stealing: split points are promoted to full
    /// expansion, so the parallel exploration covers at least the serial
    /// SDPOR schedules while staying a reduction of the full enumeration.
    #[test]
    fn stealing_with_por_covers_conflicts() {
        use crate::ids::ObjId;
        fn conflict_setup() -> impl FnMut(&mut Execution) {
            |ex: &mut Execution| {
                for _ in 0..2 {
                    ex.spawn(|| {
                        crate::runtime::schedule(ObjId(3));
                        crate::runtime::schedule(ObjId(3));
                    });
                }
            }
        }
        let config = Config::exhaustive();
        let serial = count_runs(&config, conflict_setup());
        let full = count_runs(&config.clone().with_por(false), conflict_setup());
        for workers in [2, 4] {
            let (stats, runs) = explore_stealing(&config, workers, conflict_setup);
            assert!(
                stats.complete >= serial.complete,
                "parallel covers serial (workers = {workers})"
            );
            assert!(
                stats.runs <= full.runs,
                "parallel POR ({}) must not exceed full enumeration ({})",
                stats.runs,
                full.runs
            );
            let mut decisions: Vec<_> = runs.into_iter().map(|(d, _)| d).collect();
            let before = decisions.len();
            decisions.dedup();
            assert_eq!(decisions.len(), before, "no run explored twice");
        }
    }

    /// Joins `handle`, failing the test — instead of hanging it — when the
    /// thread is still running at the deadline.
    fn join_within<T>(handle: JoinHandle<T>, deadline: Duration) -> T {
        let start = std::time::Instant::now();
        while !handle.is_finished() {
            assert!(
                start.elapsed() < deadline,
                "thread still running after {deadline:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.join().expect("thread panicked")
    }

    const JOIN_DEADLINE: Duration = Duration::from_secs(30);

    /// A poisoned pool releases a worker parked waiting for work instead
    /// of leaving it waiting forever (the shutdown-hardening regression).
    #[test]
    fn poisoned_pool_releases_parked_workers() {
        let pool = Arc::new(StealPool::new(2));
        let root = pool.claim(0).expect("root task");
        assert!(!root.stolen);
        let parked = std::thread::spawn({
            let pool = Arc::clone(&pool);
            // Worker 1 parks: the queue is empty but worker 0 is active.
            move || pool.claim(1)
        });
        // Give the peer a moment to actually park, then poison. (Poison
        // landing first is fine too: the claim then returns at once.)
        std::thread::sleep(Duration::from_millis(5));
        pool.poison();
        assert!(
            join_within(parked, JOIN_DEADLINE).is_none(),
            "poison unparks the peer"
        );
    }

    /// A worker panicking mid-exploration poisons the pool on the way
    /// out, so peers exit rather than deadlock on its never-finished task.
    #[test]
    fn panicking_worker_poisons_instead_of_deadlocking() {
        let pool = Arc::new(StealPool::new(2));
        // The crasher must hold the root before the peer exists: a peer
        // that won the root would be handed work, and the crasher would
        // park behind it forever.
        let (claimed, root_claimed) = std::sync::mpsc::channel();
        let crasher = std::thread::spawn({
            let pool = Arc::clone(&pool);
            move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _task = pool.claim(0).expect("root task");
                    claimed.send(()).expect("test thread is waiting");
                    panic!("worker crashed mid-steal");
                }));
                if result.is_err() {
                    pool.poison();
                }
            }
        });
        root_claimed
            .recv_timeout(JOIN_DEADLINE)
            .expect("crasher claims the root");
        let peer = std::thread::spawn({
            let pool = Arc::clone(&pool);
            move || pool.claim(1)
        });
        assert!(
            join_within(peer, JOIN_DEADLINE).is_none(),
            "peer exits, not deadlocks"
        );
        join_within(crasher, JOIN_DEADLINE);
    }

    /// LexCancel keeps the lexicographically least violation and skips
    /// exactly the runs and subtrees after it in serial order.
    #[test]
    fn lex_cancel_orders_by_decision_vector() {
        let cancel = LexCancel::new();
        assert!(!cancel.should_skip(&[9, 9]));
        cancel.report(&[1, 0]);
        assert!(cancel.should_skip(&[1, 1]));
        assert!(!cancel.should_skip(&[1, 0]), "the winner itself runs");
        assert!(!cancel.should_skip(&[0, 9]), "earlier runs keep running");
        assert!(cancel.should_skip(&[1, 0, 0]), "extensions come after");
        // A better (earlier) violation replaces the winner …
        cancel.report(&[0, 5]);
        assert_eq!(cancel.winner(), Some(vec![0, 5]));
        // … and a worse one does not.
        cancel.report(&[2, 0]);
        assert_eq!(cancel.winner(), Some(vec![0, 5]));
        // Subtrees: skipped only when every run in them is after the
        // winner.
        assert!(!cancel.should_skip_subtree(&[0]), "contains the winner");
        assert!(cancel.should_skip_subtree(&[0, 5]), "only later runs left");
        assert!(cancel.should_skip_subtree(&[1]));
        assert!(!cancel.should_skip_subtree(&[]), "the root always runs");
    }
}
