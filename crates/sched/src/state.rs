//! Shared mutable state of one execution: the virtual thread table, the
//! scheduling decision logic, and end-of-run detection.

use std::sync::Arc;

use crate::config::{Config, Mode};
use crate::events::{AccessEvent, AccessKind};
use crate::ids::{ObjId, ThreadId};
use crate::por::{Pending, PorRun, MAX_POR_THREADS};
use crate::runtime::WakeSlot;
use crate::strategy::{Choice, Strategy};

/// Why a virtual thread is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Blocked on a lock or monitor; only an explicit
    /// [`unblock`](crate::unblock) can make it runnable again.
    Untimed,
    /// Blocked on a timed wait (e.g. `Monitor.TryEnter(lock, timeout)`):
    /// the scheduler may *choose* to run the thread while it is still
    /// blocked, which models the timeout firing. This is how Line-Up's
    /// model exposes the spurious-timeout bug of the paper's Fig. 1.
    Timed,
}

/// How one run (a single execution of the test program) ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// All virtual threads ran to completion.
    Complete,
    /// No thread can be scheduled: every unfinished thread is blocked.
    /// Line-Up turns this run into a *stuck history* (paper §2.3).
    Deadlock,
    /// Every enabled thread is spinning (yielding) and no thread has made
    /// progress for [`Config::livelock_rounds`](crate::Config) scheduling
    /// rounds: a fair livelock. Also a stuck history.
    Livelock,
    /// Serial mode only: the running thread blocked (or diverged) in the
    /// middle of an operation, so the serial execution cannot continue.
    /// Line-Up phase 1 records this as a stuck *serial* history
    /// `H (o i t) #` (the set `Y∥` of paper §2.3).
    StuckSerial,
    /// A virtual thread panicked; the message is preserved.
    Panicked {
        /// The thread that panicked.
        thread: ThreadId,
        /// The panic payload rendered as a string.
        message: String,
    },
    /// The per-run step limit was exceeded (an unbounded loop that the
    /// livelock detector did not catch; usually a harness bug).
    StepLimit,
    /// Partial-order reduction ended the run early: every schedulable
    /// thread was in the sleep set, so every continuation of this run is
    /// Mazurkiewicz-equivalent to an already-explored schedule. The run's
    /// partial history must be discarded — the full observation was (or
    /// will be) produced by the equivalent schedule.
    Pruned,
}

impl RunOutcome {
    /// Whether this run produced a stuck history in the sense of §2.3:
    /// at least one pending operation that cannot complete.
    pub fn is_stuck(&self) -> bool {
        matches!(
            self,
            RunOutcome::Deadlock | RunOutcome::Livelock | RunOutcome::StuckSerial
        )
    }
}

/// Scheduling status of one virtual thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Spawned but not yet scheduled for the first time.
    NotStarted,
    /// Can be scheduled.
    Runnable,
    /// Blocked; see [`BlockKind`].
    Blocked(BlockKind),
    /// The thread's closure returned (or panicked).
    Finished,
}

#[derive(Debug)]
pub(crate) struct ThreadState {
    pub status: Status,
    /// True when the thread's most recent schedule point was an operation
    /// boundary (or it has not started): serial mode allows switching to
    /// or away from such threads.
    pub at_boundary: bool,
    /// Set when the thread yields; cleared when any thread makes progress.
    /// Used for fair-livelock detection.
    pub yielded_since_progress: bool,
    /// Consecutive yields by this thread with no progress by anyone;
    /// detects serial-mode divergence.
    pub consecutive_yields: usize,
    /// Set by the scheduler when it chooses a [`BlockKind::Timed`]-blocked
    /// thread, which models its timeout firing.
    pub timed_fired: bool,
    /// Operation index (incremented at each boundary), for the access log.
    pub op_index: usize,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            status: Status::NotStarted,
            at_boundary: true,
            yielded_since_progress: false,
            consecutive_yields: 0,
            timed_fired: false,
            op_index: 0,
        }
    }

    fn is_enabled(&self) -> bool {
        matches!(
            self.status,
            Status::NotStarted | Status::Runnable | Status::Blocked(BlockKind::Timed)
        )
    }
}

/// The state protected by the runtime mutex.
pub(crate) struct RtState {
    pub config: Config,
    pub threads: Vec<ThreadState>,
    /// The thread currently holding the baton (`None` before the first
    /// decision and after the run ends).
    pub current: Option<usize>,
    pub step: usize,
    pub preemptions: usize,
    /// Completed all-enabled-threads-yielded rounds with no progress.
    pub yield_rounds: usize,
    pub run_over: Option<RunOutcome>,
    /// Set together with `run_over`: parked threads must unwind.
    pub abort: bool,
    pub schedule: Vec<Choice>,
    /// Indexes chosen at strategy-consulted points (decisions with more
    /// than one alternative, plus boolean choices). Replaying this exact
    /// sequence with [`StrategyKind::Replay`](crate::StrategyKind)
    /// reproduces the run deterministically.
    pub decisions: Vec<usize>,
    pub access_log: Vec<AccessEvent>,
    pub next_obj: u32,
    /// The search strategy. Lives here across the whole exploration (the
    /// explorer calls `begin_run`/`end_run` through the state lock);
    /// `pick_next` moves it out temporarily to appease the borrow checker.
    pub strategy: Option<Box<dyn Strategy + Send>>,
    /// Partial-order-reduction state, present when
    /// [`Config::effective_por`](crate::Config::effective_por) holds.
    pub por: Option<PorRun>,
    /// One wakeup slot per virtual thread (indexed by thread id), grown in
    /// [`init_threads`](RtState::init_threads) and reused across runs.
    /// `Arc` so a thread can park on its own slot after releasing the
    /// state lock.
    pub slots: Vec<Arc<WakeSlot>>,
    /// Schedule points that took the same-thread continuation fast path
    /// this run (no park/unpark — see [`Config::fast_path`]).
    pub fast_path_steps: u64,
    /// Baton handoffs through a wakeup slot this run (including the
    /// forced self-handoffs when the fast path is disabled).
    pub handoffs: u64,
    /// Candidate threads masked by symmetry reduction this run, summed
    /// over the run's decisions (see [`Config::symmetry`]): each masked
    /// sibling is a first-move alternative the DFS did not have to expand.
    pub symmetry_prunes: u64,
    /// Whether [`Config::effective_symmetry`] held at construction
    /// (cached; the gate never changes during an exploration).
    sym_enabled: bool,
    /// Thread-id bitmask of the threads still [`Status::NotStarted`], kept
    /// current by [`set_status`](RtState::set_status) when symmetry
    /// reduction is enabled (0 otherwise): only fresh threads can be
    /// masked, so once fewer than two remain
    /// [`symmetry_mask`](RtState::symmetry_mask) has nothing to compute.
    fresh: u64,
    /// Per-decision symmetry reductions of the current run, indexed by the
    /// strategy node id the decision reported ([`PorChoice::node`]): each
    /// entry lists `(blocked_mask, representative)` pairs, one per
    /// symmetry group that masked siblings at that node. Used to redirect
    /// DPOR backtrack demands that land on a masked sibling onto its
    /// representative — dropping such a demand would be unsound (the
    /// sibling can never be expanded at that node, so the schedule the
    /// demand was meant to cover would be lost), while scheduling the
    /// representative explores that schedule's symmetric image.
    sym_nodes: Vec<Vec<(u64, usize)>>,
    /// Scratch for the current decision's reductions; copied into
    /// `sym_nodes` once the strategy reports the node id.
    sym_scratch: Vec<(u64, usize)>,
    /// Scratch buffers for [`pick_next`](RtState::pick_next), moved out
    /// for the duration of each decision so the hot path allocates
    /// nothing after warm-up.
    enabled_buf: Vec<usize>,
    cand_buf: Vec<usize>,
}

impl std::fmt::Debug for RtState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtState")
            .field("current", &self.current)
            .field("step", &self.step)
            .field("run_over", &self.run_over)
            .finish_non_exhaustive()
    }
}

impl RtState {
    pub fn new(config: Config, nthreads: usize, strategy: Box<dyn Strategy + Send>) -> Self {
        let por = config.effective_por().then(PorRun::new);
        let sym_enabled = config.effective_symmetry();
        RtState {
            config,
            por,
            sym_enabled,
            threads: (0..nthreads).map(|_| ThreadState::new()).collect(),
            current: None,
            step: 0,
            preemptions: 0,
            yield_rounds: 0,
            run_over: None,
            abort: false,
            schedule: Vec::new(),
            decisions: Vec::new(),
            access_log: Vec::new(),
            next_obj: 0,
            strategy: Some(strategy),
            slots: Vec::new(),
            fast_path_steps: 0,
            handoffs: 0,
            symmetry_prunes: 0,
            fresh: 0,
            sym_nodes: Vec::new(),
            sym_scratch: Vec::new(),
            enabled_buf: Vec::new(),
            cand_buf: Vec::new(),
        }
    }

    /// Clears the per-run state for reuse, retaining every allocation
    /// (thread table, schedule/decision/access-log buffers, POR arenas,
    /// wakeup slots) so a million-run exploration stops hammering the
    /// allocator. The config, strategy, and slots survive across runs.
    pub fn reset(&mut self) {
        self.threads.clear();
        self.current = None;
        self.step = 0;
        self.preemptions = 0;
        self.yield_rounds = 0;
        self.run_over = None;
        self.abort = false;
        self.schedule.clear();
        self.decisions.clear();
        self.access_log.clear();
        self.next_obj = 0;
        self.fast_path_steps = 0;
        self.handoffs = 0;
        self.symmetry_prunes = 0;
        for node in &mut self.sym_nodes {
            node.clear();
        }
        if let Some(por) = &mut self.por {
            por.reset();
        }
    }

    /// Sets the number of virtual threads, after the setup closure has
    /// decided how many to spawn (object registration during setup happens
    /// before the thread table exists).
    pub fn init_threads(&mut self, n: usize) {
        debug_assert!(self.threads.is_empty());
        assert!(
            (self.por.is_none() && !self.sym_enabled) || n <= MAX_POR_THREADS,
            "partial-order reduction and symmetry reduction support at \
             most {MAX_POR_THREADS} threads (sleep sets and group masks \
             are u64 bitmasks); disable them with Config::with_por(false) \
             and Config::with_symmetry(Vec::new())"
        );
        self.threads.extend((0..n).map(|_| ThreadState::new()));
        self.fresh = if self.sym_enabled {
            1u64.checked_shl(n as u32).map_or(u64::MAX, |b| b - 1)
        } else {
            0
        };
        if let Some(por) = &mut self.por {
            por.init_threads(n, self.config.max_steps);
        }
        while self.slots.len() < n {
            self.slots.push(Arc::new(WakeSlot::new()));
        }
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }

    /// Records the *effect* of an instrumented action (performed after its
    /// schedule point, while holding the baton) in the access log, and
    /// updates progress tracking.
    pub fn note_effect(&mut self, me: usize, obj: ObjId, kind: AccessKind) {
        if self.config.record_accesses {
            self.access_log.push(AccessEvent {
                step: self.step,
                thread: ThreadId(me),
                obj,
                kind,
                op_index: self.threads[me].op_index,
            });
        }
        if let Some(por) = &mut self.por {
            por.note_access(obj, kind);
        }
        if kind.is_progress() {
            self.yield_rounds = 0;
            for t in &mut self.threads {
                t.yielded_since_progress = false;
                t.consecutive_yields = 0;
            }
        }
    }

    /// Updates per-thread flags at a schedule point. `kind` is one of
    /// `None` (a neutral pre-access point), `Yield`, `OpBoundary`,
    /// `ThreadStart`, or `ThreadFinish`.
    pub fn note_point(&mut self, me: usize, kind: Option<AccessKind>) {
        if let Some(kind) = kind {
            self.note_effect(me, AccessEvent::NO_OBJ, kind);
        }
        let th = &mut self.threads[me];
        th.at_boundary = matches!(
            kind,
            Some(AccessKind::OpBoundary) | Some(AccessKind::ThreadStart)
        );
        if kind == Some(AccessKind::OpBoundary) {
            th.op_index += 1;
        }
        if kind == Some(AccessKind::Yield) {
            th.yielded_since_progress = true;
            th.consecutive_yields += 1;
        }
    }

    fn end_run(&mut self, outcome: RunOutcome) {
        if self.run_over.is_none() {
            self.run_over = Some(outcome);
        }
        self.abort = true;
        self.current = None;
    }

    /// The scheduling decision: chooses the next thread to run, or ends
    /// the run. `after_yield` is true when the calling thread just
    /// executed a voluntary yield (it is then descheduled in favour of
    /// other enabled threads — the fair scheduler of paper §4).
    ///
    /// Returns `true` if the run continues (a thread was scheduled).
    pub fn pick_next(&mut self, after_yield: bool) -> bool {
        // Move the scratch buffers out so the inner body can fill them
        // while still calling `&mut self` methods; restored on every exit
        // path. This keeps the per-decision hot path allocation-free.
        let mut enabled = std::mem::take(&mut self.enabled_buf);
        let mut candidates = std::mem::take(&mut self.cand_buf);
        let scheduled = self.pick_next_inner(after_yield, &mut enabled, &mut candidates);
        self.enabled_buf = enabled;
        self.cand_buf = candidates;
        scheduled
    }

    fn pick_next_inner(
        &mut self,
        after_yield: bool,
        enabled: &mut Vec<usize>,
        candidates: &mut Vec<usize>,
    ) -> bool {
        if self.run_over.is_some() {
            return false;
        }
        self.step += 1;
        if self.step > self.config.max_steps {
            self.end_run(RunOutcome::StepLimit);
            return false;
        }

        // POR: the transition of the current thread just ended — settle
        // its footprint (happens-before joins, DPOR backtrack demands,
        // sleep-set wake-ups) before the next scheduling decision.
        if let (Some(por), Some(cur)) = (&mut self.por, self.current) {
            let demands = por.finish_transition(cur);
            if !demands.is_empty() {
                let strategy = self.strategy.as_mut().expect("strategy present during run");
                for d in demands {
                    // A demand landing on a symmetry-masked sibling is
                    // redirected to the group representative: the
                    // sibling can never be expanded at that node, so
                    // the representative must cover the demanded
                    // schedule's symmetric image instead.
                    let thread = Self::redirect_demand(&self.sym_nodes, d.node, d.thread);
                    strategy.add_backtrack(d.node, thread);
                }
            }
        }

        enabled.clear();
        enabled.extend((0..self.threads.len()).filter(|&t| self.threads[t].is_enabled()));
        if enabled.is_empty() {
            let outcome = if self.all_finished() {
                RunOutcome::Complete
            } else if self.config.mode == Mode::Serial {
                // In serial mode a blocked thread with nobody enabled is
                // the stuck serial history `H (o i t) #` (only the
                // current thread can ever be blocked mid-operation).
                RunOutcome::StuckSerial
            } else {
                RunOutcome::Deadlock
            };
            self.end_run(outcome);
            return false;
        }

        // Fair-livelock detection: a full round in which every enabled
        // thread yielded without anyone making progress.
        if after_yield
            && enabled
                .iter()
                .all(|&t| self.threads[t].yielded_since_progress)
        {
            self.yield_rounds += 1;
            for &t in enabled.iter() {
                self.threads[t].yielded_since_progress = false;
            }
            if self.yield_rounds >= self.config.livelock_rounds {
                let outcome = if self.config.mode == Mode::Serial {
                    RunOutcome::StuckSerial
                } else {
                    RunOutcome::Livelock
                };
                self.end_run(outcome);
                return false;
            }
        }
        // Serial-mode divergence: the running thread spins forever and no
        // other thread is allowed to intervene.
        if self.config.mode == Mode::Serial {
            if let Some(cur) = self.current {
                if self.threads[cur].consecutive_yields > self.config.livelock_rounds {
                    self.end_run(RunOutcome::StuckSerial);
                    return false;
                }
            }
        }

        let filled = match self.config.mode {
            Mode::Serial => self.serial_candidates(enabled, candidates),
            Mode::Concurrent => self.concurrent_candidates(enabled, after_yield, candidates),
        };
        if !filled {
            return false; // run was ended inside
        }
        debug_assert!(!candidates.is_empty());
        // Explore "continue the current thread" first: DFS then visits
        // mostly-sequential schedules before heavily-preempted ones, which
        // keeps the first counterexample found small (CHESS-style search
        // ordering).
        if let Some(cur) = self.current {
            if let Some(pos) = candidates.iter().position(|&t| t == cur) {
                candidates[..=pos].rotate_right(1);
            }
        }

        // POR pruning: when every candidate is asleep, each continuation
        // of this run reorders only independent transitions of an
        // already-explored schedule — abandon it.
        if let Some(por) = &self.por {
            if por.all_asleep(candidates) {
                self.end_run(RunOutcome::Pruned);
                return false;
            }
        }

        // Symmetry reduction: among fresh (never-started) candidates of
        // the same symmetry group, only the lowest-indexed one may start
        // first; the masked siblings get sleep-set treatment at this
        // decision (they are folded into the sleep mask handed to the
        // strategy, so the DFS never expands them and split/steal skips
        // them). Any schedule starting a masked sibling here is the image
        // of a representative-first schedule under a group permutation.
        let sym = self.symmetry_mask(candidates);
        if sym != 0 {
            self.symmetry_prunes += u64::from(sym.count_ones());
            let sleep = self.por.as_ref().map_or(0, |p| p.sleep);
            // Combined prune: every candidate is either asleep or masked,
            // so every continuation is equivalent (by independent-
            // transition reordering or thread renaming) to an explored
            // schedule. `all_asleep` above did not fire, so this prune is
            // charged to symmetry.
            if candidates.iter().all(|&t| (sleep | sym) & (1u64 << t) != 0) {
                self.end_run(RunOutcome::Pruned);
                return false;
            }
        }

        let idx = if candidates.len() == 1 {
            if let Some(por) = &mut self.por {
                por.cur_node = None;
            }
            0
        } else {
            let step = self.step;
            let mut strategy = self.strategy.take().expect("strategy present during run");
            let idx = if self.por.is_some() || sym != 0 {
                let sleep = self.por.as_ref().map_or(0, |p| p.sleep);
                let choice = strategy.choose_thread_por(candidates, sleep | sym, step);
                debug_assert!(choice.index < candidates.len());
                debug_assert_eq!(
                    (sleep | sym) & (1u64 << candidates[choice.index]),
                    0,
                    "the strategy must choose an awake, unmasked candidate"
                );
                if let Some(por) = &mut self.por {
                    por.sleep |= choice.slept;
                    por.sleep &= !(1u64 << candidates[choice.index]);
                    por.cur_node = choice.node;
                }
                if let Some(node) = choice.node {
                    // Record this decision's reductions (possibly none)
                    // under the node id, overwriting any stale entry a
                    // previous run left at the same depth, so demand
                    // redirection always sees current-run data.
                    self.record_sym_node(node);
                }
                choice.index
            } else {
                let idx = strategy.choose_thread(candidates, step);
                debug_assert!(idx < candidates.len());
                idx
            };
            self.strategy = Some(strategy);
            self.decisions.push(idx);
            idx
        };
        let next = candidates[idx];

        // Preemption accounting: switching away from an enabled, runnable,
        // non-yielding thread that is not at an operation boundary costs
        // one preemption (CHESS semantics).
        if let Some(cur) = self.current {
            let cur_th = &self.threads[cur];
            if next != cur
                && cur_th.status == Status::Runnable
                && !after_yield
                && !cur_th.at_boundary
            {
                self.preemptions += 1;
            }
        }

        self.schedule.push(Choice::Thread(ThreadId(next)));
        // Scheduling a timed-blocked thread fires its timeout.
        if self.threads[next].status == Status::Blocked(BlockKind::Timed) {
            self.threads[next].timed_fired = true;
            self.threads[next].status = Status::Runnable;
        }
        if let Some(por) = &mut self.por {
            // The next transition's footprint starts from the declared
            // intent of the thread about to run (its fallback when the
            // primitive logs nothing).
            por.foot.declared = por.pending[next];
        }
        self.current = Some(next);
        true
    }

    /// Computes the symmetry mask for the upcoming decision: bits of
    /// candidates that are *fresh* (never scheduled, [`Status::NotStarted`])
    /// members of a symmetry group containing at least one other fresh
    /// candidate with a lower index. The lowest-indexed fresh member of
    /// each group is the representative and stays unmasked. Freshness is
    /// what makes "identical local program counter" decidable without
    /// inspecting thread code: two fresh threads of the same group are at
    /// the same (initial) program point by definition, and once either
    /// runs its first step the group's threads are distinguishable and
    /// the reduction no longer applies to them.
    ///
    /// Fills `sym_scratch` with one `(blocked_mask, representative)` pair
    /// per contributing group, for [`RtState::record_sym_node`].
    fn symmetry_mask(&mut self, candidates: &[usize]) -> u64 {
        self.sym_scratch.clear();
        if self.fresh.count_ones() < 2 || candidates.len() < 2 {
            return 0;
        }
        let mut cand_mask = 0u64;
        for &t in candidates.iter() {
            cand_mask |= 1u64 << t;
        }
        let mut mask = 0u64;
        for i in 0..self.config.symmetry.len() {
            let live = self.config.symmetry[i] & cand_mask & self.fresh;
            if live.count_ones() >= 2 {
                let rep = live.trailing_zeros() as usize;
                let blocked = live & (live - 1); // all but the lowest bit
                mask |= blocked;
                self.sym_scratch.push((blocked, rep));
            }
        }
        mask
    }

    /// Stores the current decision's symmetry reductions (`sym_scratch`)
    /// under the strategy node id, clearing whatever a previous run
    /// recorded at the same depth: node ids are path positions, so the
    /// same id can name a different decision prefix across runs, and
    /// demand redirection must only ever consult current-run data. Every
    /// node that can appear in a backtrack demand is a strategy-consulted
    /// decision of the current run, so every such node is (re)recorded
    /// before any demand can reference it.
    fn record_sym_node(&mut self, node: usize) {
        if self.sym_nodes.len() <= node {
            self.sym_nodes.resize_with(node + 1, Vec::new);
        }
        let slot = &mut self.sym_nodes[node];
        slot.clear();
        slot.extend_from_slice(&self.sym_scratch);
    }

    /// Redirects a DPOR backtrack demand off a symmetry-masked sibling
    /// onto its group representative (identity when the thread is not
    /// masked at that node). See the `sym_nodes` field docs for why
    /// dropping the demand instead would be unsound.
    fn redirect_demand(sym_nodes: &[Vec<(u64, usize)>], node: usize, thread: usize) -> usize {
        if thread < MAX_POR_THREADS {
            if let Some(entries) = sym_nodes.get(node) {
                for &(blocked, rep) in entries {
                    if blocked & (1u64 << thread) != 0 {
                        return rep;
                    }
                }
            }
        }
        thread
    }

    /// Serial mode: context switches happen only at operation boundaries;
    /// a thread that blocks mid-operation ends the run as stuck-serial.
    /// Fills `out` and returns `true`, or returns `false` when the run
    /// ended (stuck serial).
    fn serial_candidates(&mut self, enabled: &[usize], out: &mut Vec<usize>) -> bool {
        out.clear();
        if let Some(cur) = self.current {
            let th = &self.threads[cur];
            match th.status {
                Status::Runnable if !th.at_boundary => {
                    // Mid-operation: must continue the current thread.
                    out.push(cur);
                    return true;
                }
                Status::Blocked(BlockKind::Timed) => {
                    // A timed wait with no other thread allowed to
                    // intervene always times out in a serial execution:
                    // scheduling the thread fires the modelled timeout,
                    // keeping serial behavior deterministic.
                    out.push(cur);
                    return true;
                }
                Status::Blocked(BlockKind::Untimed) if !th.at_boundary => {
                    // Blocked mid-operation: the serial execution is stuck
                    // (paper §2.3: the history `H (o i t) #`).
                    self.end_run(RunOutcome::StuckSerial);
                    return false;
                }
                _ => {}
            }
        }
        // At a boundary (or start/finish): any enabled thread may run next.
        out.extend_from_slice(enabled);
        true
    }

    /// Concurrent mode: all enabled threads are candidates, except that a
    /// yielding thread is descheduled when others are enabled (fairness)
    /// and the preemption bound may pin the current thread. Fills `out`;
    /// always returns `true` (concurrent candidate selection never ends
    /// the run — the signature matches `serial_candidates`).
    fn concurrent_candidates(
        &mut self,
        enabled: &[usize],
        after_yield: bool,
        out: &mut Vec<usize>,
    ) -> bool {
        out.clear();
        if let Some(cur) = self.current {
            if after_yield {
                out.extend(enabled.iter().copied().filter(|&t| t != cur));
                if out.is_empty() {
                    out.push(cur);
                }
                return true;
            }
            // Preemption bound: once the budget is used up, keep running
            // the current thread as long as it is enabled and mid-stream.
            if let Some(bound) = self.config.preemption_bound {
                let th = &self.threads[cur];
                if self.preemptions >= bound && th.status == Status::Runnable && !th.at_boundary {
                    out.push(cur);
                    return true;
                }
            }
        }
        out.extend_from_slice(enabled);
        true
    }

    /// Makes a nondeterministic boolean choice (e.g. for modelled
    /// timeouts); recorded in the schedule.
    pub fn pick_bool(&mut self, me: usize) -> bool {
        let strategy = self.strategy.as_mut().expect("strategy present during run");
        let idx = strategy.choose(2);
        self.decisions.push(idx);
        let value = idx == 1;
        self.schedule.push(Choice::Bool(value));
        if self.config.record_accesses {
            self.access_log.push(AccessEvent {
                step: self.step,
                thread: ThreadId(me),
                obj: AccessEvent::NO_OBJ,
                kind: AccessKind::ChoiceBool { value },
                op_index: self.threads[me].op_index,
            });
        }
        value
    }

    /// Declares what thread `t` will do when next scheduled (POR only).
    pub fn set_pending(&mut self, t: usize, pending: Pending) {
        if let Some(por) = &mut self.por {
            por.set_pending(t, pending);
        }
    }

    /// Records a Line-Up history append by the current transition
    /// (POR only): history order is observable, so appends conflict.
    pub fn note_mark(&mut self) {
        if let Some(por) = &mut self.por {
            por.note_mark();
        }
    }

    /// Records that the current transition unblocked thread `t` (POR
    /// only): an enabling happens-before edge and a sleep wake-up.
    pub fn note_wake(&mut self, t: usize) {
        if let Some(por) = &mut self.por {
            por.note_wake(t);
        }
    }

    pub fn set_status(&mut self, t: usize, status: Status) {
        debug_assert_ne!(
            status,
            Status::NotStarted,
            "threads never become fresh again"
        );
        if self.sym_enabled {
            self.fresh &= !(1u64 << t);
        }
        self.threads[t].status = status;
    }

    pub fn status(&self, t: usize) -> Status {
        self.threads[t].status
    }
}
