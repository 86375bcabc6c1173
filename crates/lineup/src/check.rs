//! The two-phase Line-Up check (paper Fig. 5): synthesize the sequential
//! specification from serial executions, then verify every concurrent
//! execution against it.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lineup_sched::{
    AbandonConfirm, Backend, Config, ExploreStats, LexCancel, RunOutcome, StealPool, StealSkip,
    StealTask, StealingStrategy, StrategyKind,
};

use crate::harness::{explore_matrix, explore_matrix_with_strategy, MatrixRun};
use crate::history::{History, HistoryCache, HistoryKey, OpIndex};
use crate::matrix::{SymmetryGroups, TestMatrix};
use crate::spec::{Nondeterminism, ObservationSet, SerialHistory, SpecIndex};
use crate::target::TestTarget;
use crate::witness::{find_witness, WitnessQuery};

/// Options controlling one [`check`] call.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Preemption bound for phase 2 (the paper uses the CHESS default of 2
    /// "except where it performed unacceptably slow", §5.4). Phase 1 is
    /// never bounded, preserving the completeness guarantee of Theorem 5.
    /// `None` explores phase 2 exhaustively.
    pub preemption_bound: Option<usize>,
    /// Optional cap on phase-2 runs (a soundness/time trade-off on top of
    /// preemption bounding; violations found remain conclusive).
    pub max_phase2_runs: Option<u64>,
    /// Stop at the first violation (default) or keep exploring and report
    /// all distinct violations.
    pub stop_at_first_violation: bool,
    /// Methods declared *asynchronous*: their effects may linearize after
    /// the method has returned (the paper's §6 future-work item on
    /// "asynchronous methods, such as the cancel method", and the shape of
    /// root cause K — `CompleteAdding`'s effects land "well after the
    /// method has returned"). Precedence constraints from these methods to
    /// later operations are dropped during witness search. Use sparingly:
    /// it weakens the check for the listed methods.
    pub async_methods: Vec<String>,
    /// Methods declared as *nondeterministic under interference*: a
    /// [`Value::Fail`](crate::Value) response from one of these methods is
    /// accepted whenever the operation overlaps another operation, by
    /// deleting it from the history before witness search. This implements
    /// the paper's future-work item on "nondeterministic methods, such as
    /// methods that may fail on interference", and encodes the
    /// documentation fix the .NET developers chose for root causes I and J
    /// (§5.2.2) — e.g. declaring `TryTake` spurious makes the
    /// BlockingCollection's intentional behaviour pass. Use sparingly: it
    /// weakens the check for the listed methods.
    pub spurious_failures: Vec<String>,
    /// Number of phase-2 workers of the work-stealing exploration (default
    /// 1). Worker 0 runs on the calling thread and starts on the whole
    /// schedule tree; workers `1..n` are scoped OS threads. An idle worker
    /// flags a victim (chosen by deterministic round-robin) which splits
    /// its *deepest unexplored branch point* — shipping the decision
    /// prefix plus accumulated sleep sets so partial-order reduction stays
    /// sound across the steal. Prefix replays happen only on actual
    /// steals, lazily on the thief's side. The set of violation histories
    /// is the same at every worker count, and with
    /// [`stop_at_first_violation`](CheckOptions::stop_at_first_violation)
    /// so is the reported violation (the lexicographically least violating
    /// decision vector wins deterministically). Phase 1 always runs on one
    /// thread: its observation-set insertion order feeds the determinism
    /// check and must match the paper's sequential enumeration.
    pub workers: usize,
    /// Dynamic partial-order reduction for phase 2 (default `true`):
    /// sleep sets plus happens-before-guided backtracking prune schedules
    /// that only reorder independent transitions, which cannot change the
    /// recorded history. Only engages for exhaustive (unbounded)
    /// exploration — preemption-bounded search keeps its full enumeration,
    /// because sleep sets are unsound under preemption bounding. Phase 1
    /// (serial mode) is never reduced.
    pub por: bool,
    /// Thread-symmetry reduction for phase 2 (default `true`): threads
    /// whose matrix columns are identical up to value renaming (see
    /// [`crate::SymmetryPolicy`] and
    /// [`TestMatrix::symmetry_groups`]) are interchangeable, so
    /// (a) among never-started symmetric threads only the lowest-indexed
    /// may be scheduled first — the skipped orders yield renamings of
    /// explored histories — and (b) the phase-2 verdict cache keys on the
    /// *canonical* form of each history
    /// ([`SymmetryGroups::key`]), so one witness search covers a
    /// whole renaming class and violation lists report one history per
    /// class. Schedule pruning only engages where sleep sets would
    /// (exhaustive DFS-family exploration, no preemption bound); the
    /// canonical verdict cache is active whenever this flag is on. Targets
    /// whose behaviour depends on thread identity opt out via
    /// [`crate::SymmetryPolicy::Disabled`] regardless of this flag.
    pub symmetry: bool,
    /// Same-thread continuation fast path in the scheduler (default
    /// `true`): when the strategy keeps the baton on the running thread,
    /// the schedule point is recorded inline without a park/unpark pair.
    /// Purely a debug knob — the explored schedules, histories, and
    /// verdicts are identical either way (`tests/handoff_equivalence.rs`
    /// asserts this); disabling it only forces every step through a slot
    /// handoff.
    pub fast_path: bool,
    /// Execution backend for phase-2 exploration (default
    /// [`Backend::default_backend`]: fibers where supported, OS threads
    /// elsewhere). Under [`Backend::Fibers`] every virtual thread runs on
    /// a recycled userspace stack and a baton handoff is a direct stack
    /// switch; the explored schedules, histories, and verdicts are
    /// byte-identical across backends (`tests/backend_equivalence.rs`
    /// asserts this).
    pub backend: Backend,
    /// Run estimate below which a multi-worker check runs on one worker
    /// (default 256): a tiny schedule tree is explored faster by one
    /// worker than by starting workers that replay stolen prefixes.
    /// Measured by probing a one-worker exploration up to this many runs
    /// before starting the peers; `runs` is identical either way. `0`
    /// disables the probe and always starts the peers. Only read when
    /// [`workers`](CheckOptions::workers) `> 1`.
    pub parallel_probe_runs: u64,
    /// Exploration strategy for phase 2 (default
    /// [`StrategyKind::Dfs`]: the exhaustive depth-first search the paper
    /// builds on). Randomized strategies ([`StrategyKind::Random`],
    /// [`StrategyKind::Pct`], [`StrategyKind::Coverage`]) sample schedules
    /// instead of enumerating them — they need
    /// [`max_phase2_runs`](CheckOptions::max_phase2_runs) set or they run
    /// until their own budget expires, and they trade the exhaustiveness
    /// guarantee for fast bug-finding on schedule spaces too large to
    /// enumerate. Violations found remain conclusive (Theorem 5 needs only
    /// the violating execution, not coverage). Phase 1 always enumerates
    /// serially regardless of this setting, and parallel work-stealing
    /// ([`workers`](CheckOptions::workers) `> 1`) only engages for
    /// [`StrategyKind::Dfs`] — the stealing engine partitions the DFS
    /// tree, which sampling strategies do not have.
    pub strategy: StrategyKind,
}

impl CheckOptions {
    /// The paper's defaults: preemption bound 2, stop at first violation.
    pub fn new() -> Self {
        CheckOptions {
            preemption_bound: Some(2),
            max_phase2_runs: None,
            stop_at_first_violation: true,
            async_methods: Vec::new(),
            spurious_failures: Vec::new(),
            workers: 1,
            por: true,
            symmetry: true,
            fast_path: true,
            backend: Backend::default_backend(),
            parallel_probe_runs: 256,
            strategy: StrategyKind::Dfs,
        }
    }

    /// Sets the preemption bound, builder style (`None` = unbounded).
    pub fn with_preemption_bound(mut self, bound: Option<usize>) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Caps phase-2 runs, builder style.
    pub fn with_max_phase2_runs(mut self, runs: u64) -> Self {
        self.max_phase2_runs = Some(runs);
        self
    }

    /// Collect all violations instead of stopping at the first.
    pub fn collect_all_violations(mut self) -> Self {
        self.stop_at_first_violation = false;
        self
    }

    /// Declares methods whose effects may land after they return (see
    /// [`CheckOptions::async_methods`]).
    pub fn with_async_methods<I, S>(mut self, methods: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.async_methods = methods.into_iter().map(Into::into).collect();
        self
    }

    /// Declares methods whose failed responses may occur spuriously under
    /// interference (see [`CheckOptions::spurious_failures`]).
    pub fn with_spurious_failures<I, S>(mut self, methods: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.spurious_failures = methods.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the number of phase-2 worker threads (see
    /// [`CheckOptions::workers`]), builder style. `n` must be at least 1.
    pub fn with_workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "workers must be at least 1");
        self.workers = n;
        self
    }

    /// Enables or disables partial-order reduction for phase 2 (see
    /// [`CheckOptions::por`]), builder style.
    pub fn with_por(mut self, enabled: bool) -> Self {
        self.por = enabled;
        self
    }

    /// Enables or disables thread-symmetry reduction (see
    /// [`CheckOptions::symmetry`]), builder style.
    pub fn with_symmetry(mut self, enabled: bool) -> Self {
        self.symmetry = enabled;
        self
    }

    /// Enables or disables the scheduler's same-thread continuation fast
    /// path (see [`CheckOptions::fast_path`]), builder style.
    pub fn with_fast_path(mut self, enabled: bool) -> Self {
        self.fast_path = enabled;
        self
    }

    /// Selects the execution backend (see [`CheckOptions::backend`]),
    /// builder style.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the run estimate below which parallel exploration stays
    /// serial (see [`CheckOptions::parallel_probe_runs`]), builder style.
    pub fn with_parallel_probe_runs(mut self, runs: u64) -> Self {
        self.parallel_probe_runs = runs;
        self
    }

    /// Selects the phase-2 exploration strategy (see
    /// [`CheckOptions::strategy`]), builder style. Randomized strategies
    /// should be paired with
    /// [`with_max_phase2_runs`](CheckOptions::with_max_phase2_runs).
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions::new()
    }
}

/// A violation of deterministic linearizability. By Theorem 5 any reported
/// violation proves the implementation is not linearizable with respect to
/// *any* deterministic sequential specification — there are no false
/// alarms.
#[derive(Debug, Clone)]
pub enum Violation {
    /// Phase 1 found two serial histories diverging at a call: the
    /// component itself is nondeterministic (Fig. 5 line 4).
    Nondeterminism(Nondeterminism),
    /// A complete concurrent history has no serial witness in the
    /// synthesized specification `A` (Fig. 5 line 8 / Definition 1).
    NoWitness {
        /// The violating history.
        history: History,
        /// Scheduler decisions reproducing the execution (see
        /// [`crate::replay_matrix`]).
        decisions: Vec<usize>,
    },
    /// A stuck concurrent history has a pending operation `e` such that
    /// `H[e]` has no stuck serial witness in `B` (Fig. 5 line 13 /
    /// Definition 2): the operation blocked although the specification
    /// never blocks it there.
    StuckNoWitness {
        /// The violating stuck history.
        history: History,
        /// The pending operation without justification.
        pending: OpIndex,
        /// Scheduler decisions reproducing the execution.
        decisions: Vec<usize>,
    },
    /// The component panicked during the phase indicated (assertion
    /// failure, index out of bounds, …) — also a real defect.
    Panic {
        /// Rendered panic message.
        message: String,
        /// The (partial) history up to the panic.
        history: History,
        /// `true` when the panic occurred during serial (phase 1)
        /// execution.
        serial: bool,
        /// Scheduler decisions reproducing the execution.
        decisions: Vec<usize>,
    },
}

/// Statistics of one phase of a check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of executions explored.
    pub runs: u64,
    /// Distinct complete ("full") histories observed.
    pub full_histories: usize,
    /// Distinct stuck histories observed.
    pub stuck_histories: usize,
    /// Runs cut short by partial-order reduction (sleep sets): schedules
    /// proven Mazurkiewicz-equivalent to an already-explored one. Included
    /// in [`runs`](Self::runs); always zero in phase 1 and when
    /// [`CheckOptions::with_por`] is off or disengaged.
    pub sleep_prunes: u64,
    /// Candidate threads masked by thread-symmetry reduction at schedule
    /// points: each masked thread is a sibling subtree not explored
    /// because its schedules are value-renamings of the chosen
    /// representative's (see [`CheckOptions::symmetry`]). Always zero in
    /// phase 1, and whenever symmetry pruning is off or disengaged
    /// (preemption-bounded or sampled exploration).
    pub symmetry_prunes: u64,
    /// Phase-2 verdict-cache hits: runs whose (canonicalized) history had
    /// already received a witness-search verdict through another schedule
    /// or a symmetric renaming. Always zero in phase 1.
    pub phase2_cache_hits: u64,
    /// Total schedule points across all runs of the phase.
    pub total_steps: u64,
    /// Schedule points that took the scheduler's same-thread continuation
    /// fast path (no park/unpark — see [`CheckOptions::fast_path`]).
    /// Included in [`total_steps`](Self::total_steps).
    pub fast_path_steps: u64,
    /// Baton handoffs performed through a wakeup slot (cross-thread
    /// switches, plus every step when the fast path is disabled).
    pub handoffs: u64,
    /// Subtrees split off by victims servicing steal requests during a
    /// multi-worker exploration. Always zero for one-worker
    /// checks. At least [`steals`](Self::steals): every claimed stolen
    /// task was split off first, but a split task may go unclaimed when
    /// the exploration is cancelled early.
    pub splits: u64,
    /// Stolen subtree tasks actually claimed by a thief worker. Always
    /// zero for one-worker checks.
    pub steals: u64,
    /// Times a worker parked waiting for work during a multi-worker
    /// exploration (one per wait, so a long idle period counts many
    /// parks). Always zero for one-worker checks.
    pub idle_parks: u64,
    /// Prefix replays begun for claimed stolen tasks — the lazy,
    /// thief-side re-execution of the shipped decision prefix. At most
    /// [`steals`](Self::steals) (a cancelled thief may skip its replay);
    /// always zero for one-worker checks.
    pub steal_replays: u64,
    /// `1` when the one-worker probe answered the whole check (the space
    /// fit within [`CheckOptions::parallel_probe_runs`] runs, so no
    /// thread was spawned), `0` otherwise. Always zero for one-worker
    /// checks.
    pub probe_skips: u64,
    /// Corpus entries held by the coverage-guided strategy at the end of
    /// the phase (see [`StrategyKind::Coverage`]). Zero for every other
    /// strategy.
    pub corpus_size: u64,
    /// Bits set in the coverage strategy's schedule-signature bitmap at
    /// the end of the phase. Zero for every other strategy.
    pub coverage_bits: u64,
    /// Mutated schedules executed by the coverage strategy during the
    /// phase (runs that replayed a corpus parent before diverging, as
    /// opposed to fresh random runs). Zero for every other strategy.
    pub mutations: u64,
    /// Wall-clock time spent.
    pub duration: Duration,
}

/// The result of checking one test matrix.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Name of the checked component.
    pub target_name: String,
    /// The test matrix.
    pub matrix: TestMatrix,
    /// Violations found (empty = PASS).
    pub violations: Vec<Violation>,
    /// The synthesized sequential specification (the observation set of
    /// §4.2, persistable via [`crate::observation`]).
    pub spec: ObservationSet,
    /// Phase-1 statistics (serial enumeration).
    pub phase1: PhaseStats,
    /// Phase-2 statistics (concurrent enumeration).
    pub phase2: PhaseStats,
}

impl CheckReport {
    /// Whether the check passed (no violation found on the explored
    /// executions; like all dynamic tools, sound only for the inputs and
    /// executions tested — Theorem 6 discussion).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }
}

/// Runs phase 1 only: enumerates all serial executions of the test and
/// returns the synthesized specification (the sets `A ∪ B`), plus stats
/// and any panic violation.
pub fn synthesize_spec<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
) -> (ObservationSet, PhaseStats, Option<Violation>) {
    let start = std::time::Instant::now();
    let mut spec = ObservationSet::new();
    let mut panic_violation = None;
    let stats = explore_matrix(target, matrix, &Config::serial(), |run| {
        match &run.outcome {
            RunOutcome::Complete | RunOutcome::StuckSerial => {
                spec.insert(SerialHistory::from_history(&run.history));
                ControlFlow::Continue(())
            }
            RunOutcome::Panicked { message, .. } => {
                panic_violation = Some(Violation::Panic {
                    message: message.clone(),
                    history: run.history,
                    serial: true,
                    decisions: run.decisions,
                });
                ControlFlow::Break(())
            }
            RunOutcome::Deadlock | RunOutcome::Livelock | RunOutcome::Pruned => {
                unreachable!("serial mode reports blocking as StuckSerial and never prunes")
            }
            RunOutcome::StepLimit => {
                panic_violation = Some(Violation::Panic {
                    message: "step limit exceeded in serial execution".into(),
                    history: run.history,
                    serial: true,
                    decisions: run.decisions,
                });
                ControlFlow::Break(())
            }
        }
    });
    let phase = PhaseStats {
        runs: stats.runs,
        full_histories: spec.full_count(),
        stuck_histories: spec.stuck_count(),
        sleep_prunes: stats.sleep_prunes,
        total_steps: stats.total_steps,
        fast_path_steps: stats.fast_path_steps,
        handoffs: stats.handoffs,
        duration: start.elapsed(),
        ..Default::default()
    };
    (spec, phase, panic_violation)
}

/// Removes spuriously-failed operations (declared methods, Fail response,
/// overlapping some other operation) from a history before witness search.
/// Returns the reduced history — the given one, borrowed, when nothing is
/// removed — and the removed ops as `(thread, position within thread)`
/// pairs, which identify the matrix cells to drop from the sub-test whose
/// specification the reduced history is checked against.
fn reduce_spurious<'h>(
    history: &'h History,
    spurious: &[String],
) -> (Cow<'h, History>, Vec<(usize, usize)>) {
    if spurious.is_empty() {
        return (Cow::Borrowed(history), Vec::new());
    }
    let mut remove = std::collections::BTreeSet::new();
    for (i, op) in history.ops.iter().enumerate() {
        if op.response == Some(crate::value::Value::Fail)
            && spurious.contains(&op.invocation.name)
            && (0..history.ops.len()).any(|j| j != i && history.overlapping(i, j))
        {
            remove.insert(i);
        }
    }
    if remove.is_empty() {
        return (Cow::Borrowed(history), Vec::new());
    }
    let mut removed_cells = Vec::new();
    for t in 0..history.thread_count {
        for (pos, op_idx) in history.thread_ops(t).into_iter().enumerate() {
            if remove.contains(&op_idx) {
                removed_cells.push((t, pos));
            }
        }
    }
    (Cow::Owned(history.without_ops(&remove).0), removed_cells)
}

/// Builds the sub-test obtained by dropping the given `(thread, position)`
/// cells from a matrix (finals-thread ops live past the last column).
fn reduced_matrix(matrix: &TestMatrix, removed: &[(usize, usize)]) -> TestMatrix {
    let mut m = matrix.clone();
    let ncols = m.columns.len();
    let mut by_thread: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for &(t, pos) in removed {
        by_thread.entry(t).or_default().push(pos);
    }
    for (t, mut positions) in by_thread {
        positions.sort_unstable_by(|a, b| b.cmp(a)); // remove back-to-front
        let column = if t < ncols {
            &mut m.columns[t]
        } else {
            &mut m.finally
        };
        for pos in positions {
            column.remove(pos);
        }
    }
    m
}

/// Runs phase 2 only, against a given specification: explores the
/// concurrent executions of the test and checks every history (full or
/// stuck) for a serial witness.
///
/// Exposed separately so a specification synthesized from one
/// implementation can be checked against another (differential checking).
/// Operations listed in [`CheckOptions::spurious_failures`] whose failed
/// responses overlap other operations are removed before witness search
/// and the remainder is checked against the sub-test's own synthesized
/// specification.
pub fn check_against_spec<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    spec: &ObservationSet,
    options: &CheckOptions,
) -> (Vec<Violation>, PhaseStats) {
    // The thread-symmetry structure of the test (empty when disabled)
    // feeds both schedule pruning (masks, through the scheduler config)
    // and the canonical verdict-cache keys.
    let groups = symmetry_groups_for(target, matrix, options);
    check_against_spec_at(target, matrix, &spec.index(), &groups, options)
}

/// The phase-2 driver: one work-stealing exploration over
/// [`CheckOptions::workers`] workers. Worker 0 runs on the calling thread
/// (a one-worker check spawns no thread) and claims the [`StealPool`]'s
/// root task, the whole schedule tree; workers `1..n` are scoped threads.
/// An idle worker flags a victim chosen by deterministic round-robin, and
/// the victim splits off its *deepest unexplored branch point*, shipping
/// the decision prefix plus the accumulated sleep sets so partial-order
/// reduction stays sound across the steal. Shipped prefixes replay lazily
/// — only when a thief actually claims the task; no schedule is ever
/// executed twice. Sampled strategies have no tree to split: they run as
/// worker 0 alone, with the strategy [`Config`] builds.
///
/// Verdicts are shared through a canonically-keyed [`HistoryCache`];
/// violations are claimed per occurrence with their decision vector and
/// merged at the end (see [`Claim`]), so verdicts, violation order and
/// witness histories are the same for any worker count.
fn check_against_spec_at<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    index: &SpecIndex<'_>,
    groups: &SymmetryGroups,
    options: &CheckOptions,
) -> (Vec<Violation>, PhaseStats) {
    let splittable = options.strategy == StrategyKind::Dfs;
    let workers = if splittable { options.workers } else { 1 };
    // Tiny state spaces are explored faster by one worker than by
    // splitting: pool bookkeeping and steal handoffs dominate a tree of a
    // few dozen runs. Probe with one worker and a budget one past
    // [`CheckOptions::parallel_probe_runs`]; if the space (or the overall
    // run cap) fits within the threshold, the probe's answer *is* the
    // answer — same runs, same violations, no thread spawned. Otherwise
    // the probe is discarded as unaccounted overhead (at most
    // `parallel_probe_runs + 1` runs, negligible against a tree that
    // large) and the peers start.
    if workers > 1 && options.parallel_probe_runs > 0 {
        let budget = options
            .parallel_probe_runs
            .saturating_add(1)
            .min(options.max_phase2_runs.unwrap_or(u64::MAX));
        let probe = CheckOptions {
            workers: 1,
            max_phase2_runs: Some(budget),
            ..options.clone()
        };
        let (violations, mut stats) = check_against_spec_at(target, matrix, index, groups, &probe);
        if stats.runs <= options.parallel_probe_runs {
            stats.probe_skips = 1;
            return (violations, stats);
        }
    }

    let start = std::time::Instant::now();
    let mut config = Config::exhaustive()
        .with_por(options.por)
        .with_symmetry(groups.masks())
        .with_fast_path(options.fast_path)
        .with_backend(options.backend);
    config.preemption_bound = options.preemption_bound;
    config.strategy = options.strategy.clone();
    if !splittable {
        // A sampling strategy sizes itself from the run cap. Stealing
        // workers leave it off: the budget is global, enforced below.
        config.max_runs = options.max_phase2_runs;
    }
    // Workers must agree on whether sleep sets are in play: shipped sleep
    // masks are only meaningful to a thief that applies them.
    let por = config.effective_por();
    let budget = options.max_phase2_runs.unwrap_or(u64::MAX);

    // Runs accepted by any worker's visitor; the run budget caps it.
    let runs_done = AtomicU64::new(0);
    let cache: HistoryCache<CachedVerdict> = HistoryCache::new(if workers > 1 {
        HistoryCache::<CachedVerdict>::DEFAULT_SHARDS
    } else {
        1
    });
    let full_count = AtomicUsize::new(0);
    let stuck_count = AtomicUsize::new(0);
    let claims: Mutex<Vec<Claim>> = Mutex::new(Vec::new());
    // The pool seeds one task covering the whole schedule tree; every
    // further task exists only because an idle worker asked for work.
    let pool = Arc::new(StealPool::new(workers));
    // Behind an `Arc` because the claim-time skip closure is owned by the
    // strategy (`'static`), outliving this function's borrows.
    let cancel = Arc::new(LexCancel::new());

    let explore_worker = |w: usize| -> ExploreStats {
        let (strategy, abandon) = if splittable {
            // Subtrees wholly at-or-after a known violation cannot contain
            // the lexicographic winner; skip them at claim time, before
            // their prefix is ever replayed.
            let skip_cancel = Arc::clone(&cancel);
            let skip: StealSkip =
                Box::new(move |t: &StealTask| skip_cancel.should_skip_subtree(&t.prefix));
            // The visitor below raises `abandon` *after* the strategy has
            // already advanced past the triggering run (the explorer calls
            // `end_run` first), so a flag raised against the final run of
            // a task would land on a fresh, unrelated task. The confirm
            // closure keeps such stale requests from cancelling it: abandon
            // only when the known winner is at or before the strategy's
            // current position.
            let confirm_cancel = Arc::clone(&cancel);
            let confirm: AbandonConfirm =
                Box::new(move |d: &[usize]| confirm_cancel.should_skip_subtree(d));
            let Some(strategy) =
                StealingStrategy::claim_first(Arc::clone(&pool), w, por, Some(skip), Some(confirm))
            else {
                return ExploreStats::default();
            };
            let abandon = strategy.abandon_flag();
            (Some(strategy), abandon)
        } else {
            (None, Arc::default())
        };
        let mut keys = cache.writer();
        // Sub-test specifications are cheap to synthesize (phase 1, §5.4),
        // so each worker keeps its own cache rather than sharing.
        let mut sub_specs: BTreeMap<Vec<(usize, usize)>, ObservationSet> = BTreeMap::new();
        let visit = |run: MatrixRun| {
            // A lexicographically smaller violation is already known (by a
            // peer); every remaining run of the current subtree is at or
            // after this one, so drop the subtree (uncounted) and let the
            // strategy move on to the next task.
            if cancel.should_skip(&run.decisions) {
                abandon.store(true, Ordering::SeqCst);
                return ControlFlow::Continue(());
            }
            let Ok(done) = runs_done.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < budget).then_some(n + 1)
            }) else {
                return ControlFlow::Break(());
            };
            let claim = match &run.outcome {
                // Sleep-set pruned: every continuation reorders only
                // independent transitions of an explored schedule, so its
                // history was already checked. Not a stuck run.
                RunOutcome::Pruned => None,
                RunOutcome::Panicked { .. } | RunOutcome::StepLimit => {
                    let message = if let RunOutcome::Panicked { message, .. } = &run.outcome {
                        message.clone()
                    } else {
                        "step limit exceeded in concurrent execution".into()
                    };
                    // Panics are reported per occurrence: no history key.
                    let violation = Violation::Panic {
                        message,
                        history: run.history,
                        serial: false,
                        decisions: run.decisions.clone(),
                    };
                    Some((None, violation))
                }
                RunOutcome::Complete
                | RunOutcome::Deadlock
                | RunOutcome::Livelock
                | RunOutcome::StuckSerial => {
                    let complete = run.outcome == RunOutcome::Complete;
                    // A history already seen (through another schedule, or
                    // as a symmetric renaming) was already checked.
                    let key = groups.key(&run.history, &mut keys);
                    let verdict = match cache.get_key(&key) {
                        Some(v) => {
                            keys.recycle(key);
                            v
                        }
                        None => {
                            // Witness search runs outside any cache lock;
                            // `insert_key_if_absent` resolves the (rare)
                            // race where two workers compute the same
                            // history, counting it once.
                            let verdict = witness_verdict(
                                target,
                                matrix,
                                index,
                                options,
                                &mut sub_specs,
                                &run.history,
                                complete,
                            );
                            let (v, inserted) = cache.insert_key_if_absent(key, verdict);
                            if inserted {
                                let counter = if complete { &full_count } else { &stuck_count };
                                counter.fetch_add(1, Ordering::Relaxed);
                            }
                            v
                        }
                    };
                    let violation = match verdict {
                        CachedVerdict::Pass => None,
                        CachedVerdict::NoWitness => Some(Violation::NoWitness {
                            history: run.history.clone(),
                            decisions: run.decisions.clone(),
                        }),
                        // Report the reduced history, rebuilt from this
                        // run, so the pending index refers to the checked
                        // history.
                        CachedVerdict::StuckNoWitness { pending } => {
                            Some(Violation::StuckNoWitness {
                                history: reduce_spurious(&run.history, &options.spurious_failures)
                                    .0
                                    .into_owned(),
                                pending,
                                decisions: run.decisions.clone(),
                            })
                        }
                    };
                    violation.map(|v| (Some(groups.key(&run.history, &mut keys)), v))
                }
            };
            if let Some((key, violation)) = claim {
                claims
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Claim {
                        decisions: run.decisions.clone(),
                        key,
                        violation,
                    });
                if options.stop_at_first_violation {
                    // A lone DFS meets the lexicographically least
                    // violation first: stop right here.
                    if workers == 1 {
                        return ControlFlow::Break(());
                    }
                    // Every later run of the current subtree is
                    // lexicographically greater and cannot win;
                    // later-claimed subtrees are filtered by the claim-time
                    // skip. The worker itself stays alive: a
                    // lexicographically *smaller* subtree may still be
                    // queued.
                    cancel.report(&run.decisions);
                    abandon.store(true, Ordering::SeqCst);
                }
            }
            // The run that reaches the budget is the last one accepted.
            if done + 1 == budget {
                pool.stop();
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        };
        let stats = match strategy {
            Some(s) => explore_matrix_with_strategy(target, matrix, &config, Box::new(s), visit),
            None => explore_matrix(target, matrix, &config, visit),
        };
        // Idempotent: releases the task a Break left held, so the pool's
        // active count drains to zero.
        pool.finish_task(w);
        stats
    };
    let run_worker = |w: usize| {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| explore_worker(w)));
        if result.is_err() {
            // A worker panicking mid-steal must not strand its parked
            // peers: poison the pool so they drain and exit.
            pool.poison();
        }
        result
    };
    let results = std::thread::scope(|scope| {
        let run_worker = &run_worker;
        let peers: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || run_worker(w)))
            .collect();
        let mut results = vec![run_worker(0)];
        results.extend(
            peers
                .into_iter()
                .map(|p| p.join().expect("worker panics are caught")),
        );
        results
    });
    let mut sched_stats = ExploreStats::default();
    for result in results {
        // Re-raise a worker's panic on the caller's thread, once every
        // worker has exited.
        match result {
            Ok(stats) => sched_stats.merge(&stats),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    pool.export_stats(&mut sched_stats);

    // Merge the claims (see [`Claim`]).
    let mut claims = claims.into_inner().unwrap_or_else(|e| e.into_inner());
    if workers > 1 {
        claims.sort_by(|a, b| a.decisions.cmp(&b.decisions));
    }
    let mut reported: HashSet<HistoryKey> = HashSet::new();
    let mut violations: Vec<Violation> = claims
        .into_iter()
        .filter_map(|claim| {
            let first = claim.key.is_none_or(|key| reported.insert(key));
            first.then_some(claim.violation)
        })
        .collect();
    if options.stop_at_first_violation {
        violations.truncate(1);
    }

    let phase = PhaseStats {
        // With POR off every schedule executes exactly once — a stolen
        // task's prefix replay happens *inside* its first (new) run,
        // never as an extra one — so `runs` does not depend on the worker
        // count. With POR on, a split promotes the victim's sleep-set
        // nodes to full exploration, so `runs` may exceed the one-worker
        // count; the distinct histories do not change. (Under
        // stop-at-first, peers abandon runs a known winner superseded
        // uncounted.)
        runs: runs_done.into_inner(),
        full_histories: full_count.into_inner(),
        stuck_histories: stuck_count.into_inner(),
        sleep_prunes: sched_stats.sleep_prunes,
        symmetry_prunes: sched_stats.symmetry_prunes,
        phase2_cache_hits: cache.hits(),
        total_steps: sched_stats.total_steps,
        fast_path_steps: sched_stats.fast_path_steps,
        handoffs: sched_stats.handoffs,
        splits: sched_stats.splits,
        steals: sched_stats.steals,
        idle_parks: sched_stats.idle_parks,
        steal_replays: sched_stats.steal_replays,
        corpus_size: sched_stats.corpus_size,
        coverage_bits: sched_stats.coverage_bits,
        mutations: sched_stats.mutations,
        duration: start.elapsed(),
        ..Default::default()
    };
    (violations, phase)
}

/// The thread-symmetry structure phase 2 works with: the matrix's groups
/// under the target's policy, or the empty structure when the check's
/// [`symmetry`](CheckOptions::symmetry) flag is off. Empty groups make
/// [`SymmetryGroups::key`]'s renaming the identity and
/// [`SymmetryGroups::masks`] empty, so both the schedule pruning and the
/// canonical cache keys degrade to the unreduced behaviour.
fn symmetry_groups_for<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    options: &CheckOptions,
) -> SymmetryGroups {
    if options.symmetry {
        matrix.symmetry_groups(target.symmetry_policy())
    } else {
        SymmetryGroups::default()
    }
}

/// Verdict of one witness search, cached per canonical history class
/// (in a [`HistoryCache`]) and shared by all phase-2 workers: the verdict
/// of a history is a pure function of the history (and the fixed
/// spec/options), invariant under symmetric renaming, so whichever worker
/// computes it first can publish it for the whole class.
#[derive(Clone)]
enum CachedVerdict {
    /// A serial witness exists.
    Pass,
    /// No witness for a complete history (Definition 1).
    NoWitness,
    /// Some pending operation of a stuck history has no stuck witness
    /// (Definition 2). The pending index is invariant across the canonical
    /// class (canonicalization and spurious reduction both preserve
    /// operation positions); each claim rebuilds the reduced history it
    /// refers to from its own run.
    StuckNoWitness { pending: OpIndex },
}

/// Witness search for one history, after removing its spuriously-failed
/// operations: a complete history needs a serial witness (Definition 1),
/// and a stuck one a stuck witness for each pending operation
/// (Definition 2) — the first one without is reported. The search runs
/// against the phase-1 index, or, when operations were removed, against
/// the specification of the sub-test without them.
fn witness_verdict<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    index: &SpecIndex<'_>,
    options: &CheckOptions,
    sub_specs: &mut BTreeMap<Vec<(usize, usize)>, ObservationSet>,
    history: &History,
    complete: bool,
) -> CachedVerdict {
    let (reduced, removed) = reduce_spurious(history, &options.spurious_failures);
    let sub_index = (!removed.is_empty()).then(|| {
        sub_specs
            .entry(removed)
            .or_insert_with_key(|cells| synthesize_spec(target, &reduced_matrix(matrix, cells)).0)
            .index()
    });
    let index = sub_index.as_ref().unwrap_or(index);
    let async_methods = &options.async_methods;
    if complete {
        let q = WitnessQuery::for_full_relaxed(&reduced, async_methods);
        return match find_witness(index, &q) {
            Some(_) => CachedVerdict::Pass,
            None => CachedVerdict::NoWitness,
        };
    }
    let unjustified = reduced.pending_ops().into_iter().find(|&e| {
        let q = WitnessQuery::for_stuck_relaxed(&reduced, e, async_methods);
        find_witness(index, &q).is_none()
    });
    unjustified.map_or(CachedVerdict::Pass, |pending| {
        CachedVerdict::StuckNoWitness { pending }
    })
}

/// A violation claim from one worker, ordered by the claiming run's
/// scheduler decision vector. Workers claim *every* violating occurrence
/// (no local deduplication), and the merge keeps the first claim per
/// history. Peers claim in any order, so the merge first sorts claims by
/// decision vector: the depth-first search visits runs in lexicographic
/// decision order, so the first claim per history is then the one a lone
/// worker meets first. A lone worker's claims stay in encounter order —
/// already decision order for DFS, and the only order a sampled strategy
/// has.
struct Claim {
    decisions: Vec<usize>,
    /// History key for deduplication (of the canonicalized, unreduced
    /// history, matching the verdict-cache key); `None` for panics, which
    /// are reported per occurrence.
    key: Option<HistoryKey>,
    violation: Violation,
}

/// The function `Check(X, m)` of the paper's Fig. 5: phase 1 enumerates
/// the serial executions of the finite test `m` to synthesize the
/// sequential specification; the determinism check rejects components
/// whose serial behavior diverges at a call; phase 2 enumerates the
/// concurrent executions and requires a serial witness for every complete
/// history (in `A`) and for every pending operation of every stuck
/// history (in `B`).
///
/// Completeness (Theorem 5): a FAIL result (non-empty
/// [`CheckReport::violations`]) proves the component is not
/// deterministically linearizable. Restricted soundness (Theorem 6): if a
/// component is not deterministically linearizable, *some* finite test
/// fails — though not necessarily this one.
///
/// # Example
///
/// ```
/// use lineup::{check, CheckOptions, Invocation, TestMatrix};
/// use lineup::doc_support::CounterTarget;
///
/// let m = TestMatrix::from_columns(vec![
///     vec![Invocation::new("inc")],
///     vec![Invocation::new("inc"), Invocation::new("get")],
/// ]);
/// let report = check(&CounterTarget, &m, &CheckOptions::new());
/// assert!(report.passed());
/// ```
pub fn check<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    options: &CheckOptions,
) -> CheckReport {
    // Phase 1.
    let (spec, phase1, phase1_violation) = synthesize_spec(target, matrix);
    if let Some(v) = phase1_violation {
        return CheckReport {
            target_name: target.name().to_string(),
            matrix: matrix.clone(),
            violations: vec![v],
            spec,
            phase1,
            phase2: PhaseStats::default(),
        };
    }
    if let Some(nd) = spec.check_determinism() {
        return CheckReport {
            target_name: target.name().to_string(),
            matrix: matrix.clone(),
            violations: vec![Violation::Nondeterminism(nd)],
            spec,
            phase1,
            phase2: PhaseStats::default(),
        };
    }
    // Phase 2.
    let (violations, phase2) = check_against_spec(target, matrix, &spec, options);
    CheckReport {
        target_name: target.name().to_string(),
        matrix: matrix.clone(),
        violations,
        spec,
        phase1,
        phase2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc_support::{BuggyCounterTarget, CounterTarget};
    use crate::target::Invocation;

    fn buggy_matrix() -> TestMatrix {
        TestMatrix::from_columns(vec![
            vec![Invocation::new("inc"), Invocation::new("get")],
            vec![Invocation::new("inc")],
        ])
    }

    #[test]
    fn stop_at_first_violation_reports_exactly_one() {
        let report = check(&BuggyCounterTarget, &buggy_matrix(), &CheckOptions::new());
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn collect_all_reports_every_distinct_violation() {
        let opts = CheckOptions::new().collect_all_violations();
        let report = check(&BuggyCounterTarget, &buggy_matrix(), &opts);
        assert!(
            report.violations.len() > 1,
            "several distinct violating histories exist"
        );
        // All distinct.
        let mut seen = std::collections::HashSet::new();
        for v in &report.violations {
            if let Violation::NoWitness { history, .. } = v {
                assert!(seen.insert(history.clone()), "violations deduplicate");
            }
        }
    }

    #[test]
    fn phase2_run_cap_is_respected() {
        let opts = CheckOptions::new()
            .with_preemption_bound(None)
            .with_max_phase2_runs(10);
        let report = check(&CounterTarget, &buggy_matrix(), &opts);
        assert!(report.phase2.runs <= 10);
        assert!(report.passed(), "a cap cannot introduce violations");
    }

    #[test]
    fn tighter_preemption_bounds_explore_fewer_runs() {
        let m = buggy_matrix();
        let runs_at = |bound: Option<usize>| {
            let opts = CheckOptions::new().with_preemption_bound(bound);
            check(&CounterTarget, &m, &opts).phase2.runs
        };
        let (pb0, pb1, unbounded) = (runs_at(Some(0)), runs_at(Some(1)), runs_at(None));
        assert!(pb0 < pb1, "{pb0} < {pb1}");
        assert!(pb1 < unbounded, "{pb1} < {unbounded}");
    }

    #[test]
    fn parallel_stop_at_first_reports_the_serial_violation() {
        let m = buggy_matrix();
        let serial = check(&BuggyCounterTarget, &m, &CheckOptions::new());
        let parallel = check(
            &BuggyCounterTarget,
            &m,
            &CheckOptions::new()
                .with_workers(4)
                .with_parallel_probe_runs(0),
        );
        assert_eq!(serial.violations.len(), 1);
        assert_eq!(parallel.violations.len(), 1);
        match (&serial.violations[0], &parallel.violations[0]) {
            (
                Violation::NoWitness {
                    history: h1,
                    decisions: d1,
                },
                Violation::NoWitness {
                    history: h2,
                    decisions: d2,
                },
            ) => {
                assert_eq!(h1, h2, "same violating history as serial");
                assert_eq!(d1, d2, "same reproducing schedule as serial");
            }
            (a, b) => panic!("unexpected violation kinds: {a:?} / {b:?}"),
        }
    }

    #[test]
    fn parallel_collect_all_matches_serial_violation_list() {
        let m = buggy_matrix();
        let serial_opts = CheckOptions::new().collect_all_violations();
        let serial = check(&BuggyCounterTarget, &m, &serial_opts);
        let rendered =
            |vs: &[Violation]| -> Vec<String> { vs.iter().map(|v| format!("{v:?}")).collect() };
        for workers in [2, 4] {
            let par = check(
                &BuggyCounterTarget,
                &m,
                &serial_opts
                    .clone()
                    .with_workers(workers)
                    .with_parallel_probe_runs(0),
            );
            assert_eq!(
                rendered(&serial.violations),
                rendered(&par.violations),
                "workers = {workers}"
            );
            assert_eq!(serial.phase2.full_histories, par.phase2.full_histories);
            assert_eq!(serial.phase2.stuck_histories, par.phase2.stuck_histories);
        }
    }

    #[test]
    fn parallel_passing_target_still_passes() {
        let m = buggy_matrix();
        let serial = check(&CounterTarget, &m, &CheckOptions::new());
        // Probe disabled: exercise the actual work-stealing pool even
        // though this state space is below the auto-serial threshold.
        let par = check(
            &CounterTarget,
            &m,
            &CheckOptions::new()
                .with_workers(4)
                .with_parallel_probe_runs(0),
        );
        assert!(serial.passed() && par.passed());
        assert_eq!(serial.phase2.full_histories, par.phase2.full_histories);
        assert_eq!(serial.phase2.stuck_histories, par.phase2.stuck_histories);
        // A stolen task's prefix replays inside its first run, never as an
        // extra one, so the run count is identical to the serial
        // exploration's.
        assert_eq!(par.phase2.runs, serial.phase2.runs);
        assert!(
            par.phase2.steal_replays <= par.phase2.steals,
            "replays only for claimed steals: {} <= {}",
            par.phase2.steal_replays,
            par.phase2.steals,
        );
        assert!(
            par.phase2.steals <= par.phase2.splits,
            "every claimed steal was split off first: {} <= {}",
            par.phase2.steals,
            par.phase2.splits,
        );
        assert_eq!(serial.phase2.splits, 0);
        assert_eq!(serial.phase2.steals, 0);
        assert_eq!(serial.phase2.idle_parks, 0);
    }

    #[test]
    fn tiny_spaces_skip_parallel_splitting() {
        // The counter's exhaustive tree is a few dozen runs — far below
        // the default probe threshold — so a multi-worker check is answered
        // by its one-worker probe: same runs, same verdict, no steals.
        let m = buggy_matrix();
        let opts = CheckOptions::new().with_preemption_bound(None);
        let serial = check(&CounterTarget, &m, &opts);
        let par = check(&CounterTarget, &m, &opts.clone().with_workers(4));
        assert!(serial.passed() && par.passed());
        assert!(
            serial.phase2.runs <= CheckOptions::new().parallel_probe_runs,
            "workload chosen below the probe threshold"
        );
        assert_eq!(par.phase2.runs, serial.phase2.runs);
        assert_eq!(par.phase2.total_steps, serial.phase2.total_steps);
        assert_eq!(par.phase2.probe_skips, 1, "the probe answered the check");
        assert_eq!(serial.phase2.probe_skips, 0, "serial checks never probe");
        assert_eq!(par.phase2.splits, 0, "no split below the threshold");
        assert_eq!(par.phase2.steals, 0);
        assert_eq!(par.phase2.steal_replays, 0);
        // The same check on a buggy target reports the serial violation.
        let sbug = check(&BuggyCounterTarget, &m, &opts);
        let pbug = check(&BuggyCounterTarget, &m, &opts.clone().with_workers(4));
        assert_eq!(
            format!("{:?}", sbug.violations),
            format!("{:?}", pbug.violations)
        );
    }

    #[test]
    fn forced_slow_path_agrees_with_fast_path() {
        let m = buggy_matrix();
        let fast = check(&BuggyCounterTarget, &m, &CheckOptions::new());
        let slow = check(
            &BuggyCounterTarget,
            &m,
            &CheckOptions::new().with_fast_path(false),
        );
        assert_eq!(fast.passed(), slow.passed());
        assert_eq!(fast.phase2.runs, slow.phase2.runs);
        assert_eq!(fast.phase2.total_steps, slow.phase2.total_steps);
        assert_eq!(slow.phase2.fast_path_steps, 0, "knob forces every handoff");
        assert!(
            fast.phase2.fast_path_steps > 0,
            "fast path engages by default"
        );
        assert_eq!(
            slow.phase2.handoffs,
            fast.phase2.handoffs + fast.phase2.fast_path_steps,
            "every skipped handoff reappears when the knob is off"
        );
    }

    #[test]
    fn parallel_respects_run_cap() {
        for probe in [0, CheckOptions::new().parallel_probe_runs] {
            let opts = CheckOptions::new()
                .with_preemption_bound(None)
                .with_max_phase2_runs(10)
                .with_workers(4)
                .with_parallel_probe_runs(probe);
            let report = check(&CounterTarget, &buggy_matrix(), &opts);
            assert!(report.phase2.runs <= 10);
            assert!(report.passed(), "a cap cannot introduce violations");
        }
    }

    #[test]
    #[should_panic(expected = "workers must be at least 1")]
    fn zero_workers_rejected() {
        let _ = CheckOptions::new().with_workers(0);
    }

    /// The witness search of a check that declares no spurious failures —
    /// or meets none — runs on the explored history itself, not a copy.
    #[test]
    fn reduce_spurious_borrows_when_nothing_is_removed() {
        use crate::value::Value;
        // `try` fails while overlapping `inc`; a later `try` fails alone.
        let mut h = History::new(2);
        let overlapped = h.push_call(0, Invocation::new("try"));
        let inc = h.push_call(1, Invocation::new("inc"));
        h.push_return(overlapped, Value::Fail);
        h.push_return(inc, Value::Unit);
        let alone = h.push_call(0, Invocation::new("try"));
        h.push_return(alone, Value::Fail);

        let (reduced, removed) = reduce_spurious(&h, &[]);
        assert!(matches!(reduced, Cow::Borrowed(same) if std::ptr::eq(same, &h)));
        assert!(removed.is_empty());
        let (reduced, removed) = reduce_spurious(&h, &["inc".to_string()]);
        assert!(matches!(reduced, Cow::Borrowed(same) if std::ptr::eq(same, &h)));
        assert!(removed.is_empty());
        // Only the overlapped failure is spurious.
        let (reduced, removed) = reduce_spurious(&h, &["try".to_string()]);
        assert!(matches!(reduced, Cow::Owned(_)));
        assert_eq!(reduced.ops.len(), 2);
        assert_eq!(removed, vec![(0, 0)]);
    }

    /// When every operation of a history fails spuriously, what is left is
    /// the history without operations, checked against the specification
    /// of the test without operations.
    #[test]
    fn a_history_whose_every_op_failed_spuriously_passes() {
        use crate::target::{TestInstance, TestTarget};
        use crate::value::Value;

        /// An always-empty bag: `TryTake` looks (a schedule point, so two
        /// of them can overlap) and fails.
        struct EmptyBag;
        struct EmptyBagInstance(lineup_sync::Atomic<i64>);
        impl TestInstance for EmptyBagInstance {
            fn invoke(&self, _: &Invocation) -> Value {
                self.0.load();
                Value::Fail
            }
        }
        impl TestTarget for EmptyBag {
            type Instance = EmptyBagInstance;
            fn name(&self) -> &str {
                "EmptyBag"
            }
            fn create(&self) -> EmptyBagInstance {
                EmptyBagInstance(lineup_sync::Atomic::new(0))
            }
            fn invocations(&self) -> Vec<Invocation> {
                vec![Invocation::new("TryTake")]
            }
        }

        let m = TestMatrix::from_columns(vec![
            vec![Invocation::new("TryTake")],
            vec![Invocation::new("TryTake")],
        ]);
        let opts = CheckOptions::new().with_spurious_failures(["TryTake"]);
        let report = check(&EmptyBag, &m, &opts);
        assert!(report.passed(), "{:?}", report.violations);
        // The case is met: some explored history has the two calls overlap.
        let mut overlapped = History::new(2);
        let a = overlapped.push_call(0, Invocation::new("TryTake"));
        let b = overlapped.push_call(1, Invocation::new("TryTake"));
        overlapped.push_return(a, Value::Fail);
        overlapped.push_return(b, Value::Fail);
        let (reduced, removed) = reduce_spurious(&overlapped, &opts.spurious_failures);
        assert!(reduced.ops.is_empty());
        assert_eq!(removed, vec![(0, 0), (1, 0)]);
        let verdict = witness_verdict(
            &EmptyBag,
            &m,
            &report.spec.index(),
            &opts,
            &mut BTreeMap::new(),
            &overlapped,
            true,
        );
        assert!(matches!(verdict, CachedVerdict::Pass));
    }

    #[test]
    fn report_accessors() {
        let report = check(&CounterTarget, &buggy_matrix(), &CheckOptions::new());
        assert!(report.passed());
        assert!(report.first_violation().is_none());
        assert_eq!(report.target_name, "Counter");
        assert!(report.phase1.runs > 0);
        assert!(!report.spec.is_empty());
    }
}
