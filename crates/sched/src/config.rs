//! Exploration configuration.

/// How virtual threads are executed by [`explore`](crate::explore).
///
/// The backend decides what a baton *handoff* physically is; the schedule
/// *point* (step accounting, POR footprint settlement, enabled-set and
/// livelock checks, strategy consultation, decision recording) is backend-
/// independent, so schedules, histories, sleep sets, and work-stealing
/// subtree partitions are byte-identical across backends
/// (`tests/backend_equivalence.rs` asserts this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One pooled OS thread per virtual thread; handoffs park/unpark
    /// through a [`WakeSlot`](crate::runtime) one-token parker. Works on
    /// every platform.
    OsThreads,
    /// Stackful coroutines on the exploring OS thread (see the
    /// [`fiber`](crate::fiber) module): a handoff is a direct userspace
    /// stack switch — no park/unpark, no kernel transition. Falls back to
    /// [`Backend::OsThreads`] on unsupported targets (anything other than
    /// x86_64 Linux, or when the `fibers` cargo feature is disabled).
    Fibers,
}

impl Backend {
    /// The preferred backend for this build: [`Backend::Fibers`] where the
    /// fiber context switch is implemented (x86_64 Linux with the `fibers`
    /// feature, the default), else [`Backend::OsThreads`].
    pub fn default_backend() -> Backend {
        if crate::fiber::supported() {
            Backend::Fibers
        } else {
            Backend::OsThreads
        }
    }

    /// The backend actually used: a [`Backend::Fibers`] request degrades
    /// to [`Backend::OsThreads`] on targets without fiber support, so a
    /// `Config` serialized on one machine stays valid on another.
    pub fn effective(self) -> Backend {
        match self {
            Backend::Fibers if crate::fiber::supported() => Backend::Fibers,
            _ => Backend::OsThreads,
        }
    }
}

impl Default for Backend {
    fn default() -> Self {
        Backend::default_backend()
    }
}

/// How context switches are constrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full concurrent exploration: the scheduler may switch at every
    /// schedule point (subject to the preemption bound). Used by Line-Up
    /// phase 2.
    Concurrent,
    /// Serial exploration: context switches are only allowed at operation
    /// boundaries (and forced when the running thread blocks, which ends
    /// the run as [`RunOutcome::StuckSerial`](crate::RunOutcome)). Used by
    /// Line-Up phase 1 to enumerate sequential behaviors.
    Serial,
}

/// The search strategy used to enumerate schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyKind {
    /// Exhaustive depth-first search over all choices (with replay).
    Dfs,
    /// Uniform random walk: each run picks every choice uniformly at
    /// random. Runs are independent; `max_runs` bounds the sample.
    Random {
        /// Seed for the pseudo-random choices, so explorations replay.
        seed: u64,
    },
    /// Probabilistic concurrency testing (PCT, Burckhardt et al. ASPLOS
    /// 2010): random thread priorities with `depth − 1` random priority-
    /// change points per run. Better bug-finding probability than a
    /// uniform random walk for bugs of bounded depth; `max_runs` bounds
    /// the sample.
    Pct {
        /// Seed for priorities and change points.
        seed: u64,
        /// Bug depth `d` (number of ordering constraints to hit).
        depth: usize,
    },
    /// Replays one recorded run: the decision indexes of a previous
    /// [`RunResult`](crate::RunResult) (its `decisions` field). Exactly
    /// one run is executed; because executions are deterministic given
    /// their decisions, it reproduces the original schedule and history.
    Replay {
        /// The recorded decision indexes.
        decisions: Vec<usize>,
    },
    /// Coverage-guided schedule fuzzing (see the
    /// [`coverage`](crate::coverage) module): runs fold per-decision
    /// coverage signatures into a bitmap, novel runs enter a
    /// corpus of decision vectors, and later runs replay + mutate corpus
    /// parents (flip a choice, splice two parents, extend a truncated
    /// prefix randomly, inject a preemption). Non-exhaustive like
    /// [`Random`](StrategyKind::Random) — `max_runs` bounds the campaign
    /// — but spends its budget near schedules that keep discovering new
    /// scheduler states, which is what cracks seeded bugs on matrices
    /// exhaustive search cannot finish.
    Coverage {
        /// Seed for mutation planning and random tails: a fixed seed
        /// reproduces the exact run sequence.
        seed: u64,
    },
}

/// Configuration for one [`explore`](crate::explore) call.
#[derive(Debug, Clone)]
pub struct Config {
    /// Serial or concurrent exploration.
    pub mode: Mode,
    /// Search strategy.
    pub strategy: StrategyKind,
    /// CHESS-style preemption bound: maximum number of context switches
    /// away from an enabled, non-yielding thread per run. `None` means
    /// unbounded. Switches at yields, blocks and thread completions are
    /// always free, so spin loops cannot exhaust the budget.
    pub preemption_bound: Option<usize>,
    /// Upper bound on the number of runs (safety net; `None` = unbounded).
    pub max_runs: Option<u64>,
    /// Upper bound on schedule points in one run; exceeding it aborts the
    /// exploration with a panic, indicating an unbounded loop that the
    /// livelock detector did not catch.
    pub max_steps: usize,
    /// Number of complete scheduling rounds in which every enabled thread
    /// only yields (no thread performs a state-changing action) before the
    /// run is declared a fair livelock.
    pub livelock_rounds: usize,
    /// Whether to record the full access log (needed by the §5.6
    /// comparison checkers; Line-Up itself does not need it).
    pub record_accesses: bool,
    /// Whether partial-order reduction (sleep sets + happens-before
    /// backtracking, see the [`por`](crate::por) module) prunes
    /// Mazurkiewicz-equivalent schedules. Defaults to `true`, but only
    /// takes effect for exhaustive concurrent strategies — see
    /// [`Config::effective_por`].
    pub por: bool,
    /// Whether the same-thread continuation fast path is taken at schedule
    /// points: when the scheduler picks the thread that is already running,
    /// it continues inline instead of parking and immediately waking
    /// itself through its wakeup slot. Defaults to `true`; setting it to
    /// `false` forces every schedule point through the full slot-based
    /// handoff. A debug knob: the scheduling *decisions* are identical
    /// either way (only the OS-level handoff is skipped), which
    /// `tests/handoff_equivalence.rs` asserts by comparing explorations
    /// with the knob on and off.
    pub fast_path: bool,
    /// Thread-symmetry groups of the test, one bitmask per group: each
    /// mask names a maximal set of virtual threads that execute identical
    /// programs up to value renaming (computed by the caller, e.g.
    /// `TestMatrix::symmetry_groups` in `lineup`). Empty (the default)
    /// means no symmetry reduction. When non-empty and
    /// [`Config::effective_symmetry`] holds, the scheduler prunes
    /// sibling orderings among *fresh* (not-yet-started) threads of the
    /// same group: only the lowest-indexed fresh member may be scheduled
    /// first, because any schedule starting with a higher-indexed member
    /// is the image of an already-explored schedule under a group
    /// permutation.
    pub symmetry: Vec<u64>,
    /// Execution backend for the virtual threads (see [`Backend`]).
    /// Defaults to [`Backend::default_backend`]: fibers where supported,
    /// OS threads elsewhere. Purely a mechanism choice — explorations are
    /// byte-identical across backends.
    pub backend: Backend,
    /// Usable stack size (bytes) of each fiber when
    /// [`backend`](Config::backend) is [`Backend::Fibers`]; rounded up to
    /// a page, with one guard page added below on targets with mmap.
    /// `None` uses [`Config::DEFAULT_FIBER_STACK`]. Exceeding the limit at
    /// a schedule point aborts the run with a clear diagnostic (reported
    /// as a panicked run); blowing past it *between* schedule points hits
    /// the guard page.
    pub fiber_stack_size: Option<usize>,
}

impl Config {
    /// Default usable fiber stack size (see [`Config::fiber_stack_size`]):
    /// 1 MiB, comfortably above what instrumented collection operations
    /// need even in debug builds, while a few fibers per exploration keep
    /// total reservation negligible.
    pub const DEFAULT_FIBER_STACK: usize = 1 << 20;

    /// Exhaustive, unbounded concurrent exploration.
    pub fn exhaustive() -> Self {
        Config {
            mode: Mode::Concurrent,
            strategy: StrategyKind::Dfs,
            preemption_bound: None,
            max_runs: None,
            max_steps: 20_000,
            livelock_rounds: 4,
            record_accesses: false,
            por: true,
            symmetry: Vec::new(),
            fast_path: true,
            backend: Backend::default_backend(),
            fiber_stack_size: None,
        }
    }

    /// Concurrent DFS exploration with the given preemption bound
    /// (the paper uses 2, the CHESS default, for most classes — §5.4).
    pub fn preemption_bounded(bound: usize) -> Self {
        Config {
            preemption_bound: Some(bound),
            ..Config::exhaustive()
        }
    }

    /// Serial exploration (Line-Up phase 1): enumerate all serial
    /// executions of the test, without preempting threads inside
    /// operations.
    pub fn serial() -> Self {
        Config {
            mode: Mode::Serial,
            ..Config::exhaustive()
        }
    }

    /// Random-walk exploration with the given seed and number of runs.
    pub fn random(seed: u64, runs: u64) -> Self {
        Config {
            strategy: StrategyKind::Random { seed },
            max_runs: Some(runs),
            ..Config::exhaustive()
        }
    }

    /// PCT exploration (see [`StrategyKind::Pct`]) with the given seed,
    /// depth and run budget.
    pub fn pct(seed: u64, depth: usize, runs: u64) -> Self {
        Config {
            strategy: StrategyKind::Pct { seed, depth },
            max_runs: Some(runs),
            ..Config::exhaustive()
        }
    }

    /// Coverage-guided schedule fuzzing (see [`StrategyKind::Coverage`])
    /// with the given seed and run budget.
    pub fn coverage(seed: u64, runs: u64) -> Self {
        Config {
            strategy: StrategyKind::Coverage { seed },
            max_runs: Some(runs),
            ..Config::exhaustive()
        }
    }

    /// Replays one previously-recorded run (see
    /// [`StrategyKind::Replay`]). The mode and preemption bound must match
    /// the original exploration for the decision points to line up.
    pub fn replay(decisions: Vec<usize>) -> Self {
        Config {
            strategy: StrategyKind::Replay { decisions },
            max_runs: Some(1),
            ..Config::exhaustive()
        }
    }

    /// Sets [`Config::record_accesses`], builder style.
    pub fn with_access_log(mut self, record: bool) -> Self {
        self.record_accesses = record;
        self
    }

    /// Sets [`Config::max_runs`], builder style.
    pub fn with_max_runs(mut self, runs: u64) -> Self {
        self.max_runs = Some(runs);
        self
    }

    /// Sets [`Config::por`], builder style.
    pub fn with_por(mut self, por: bool) -> Self {
        self.por = por;
        self
    }

    /// Sets [`Config::symmetry`], builder style: one bitmask per
    /// thread-symmetry group (see the field docs). Passing an empty
    /// vector disables symmetry reduction.
    pub fn with_symmetry(mut self, groups: Vec<u64>) -> Self {
        self.symmetry = groups;
        self
    }

    /// Sets [`Config::fast_path`], builder style. Passing `false` forces
    /// the slow slot-based handoff at every schedule point (a debug knob
    /// for equivalence testing and for isolating the fast path's
    /// contribution in benchmarks).
    pub fn with_fast_path(mut self, fast_path: bool) -> Self {
        self.fast_path = fast_path;
        self
    }

    /// Sets [`Config::backend`], builder style. A [`Backend::Fibers`]
    /// request degrades to OS threads on unsupported targets (see
    /// [`Backend::effective`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets [`Config::fiber_stack_size`], builder style (bytes of usable
    /// stack per fiber; only read by the fiber backend).
    pub fn with_fiber_stack_size(mut self, bytes: usize) -> Self {
        self.fiber_stack_size = Some(bytes);
        self
    }

    /// The usable fiber stack size in effect (see
    /// [`Config::fiber_stack_size`]).
    pub fn effective_fiber_stack(&self) -> usize {
        self.fiber_stack_size.unwrap_or(Self::DEFAULT_FIBER_STACK)
    }

    /// Whether partial-order reduction is actually applied: it requires
    /// [`Config::por`], concurrent mode, *no* preemption bound, and the
    /// exhaustive [`StrategyKind::Dfs`] strategy.
    ///
    /// Preemption-bounded exploration keeps POR off because sleep sets are
    /// unsound under a preemption bound: the representative schedule of an
    /// equivalence class may need more preemptions than the class members
    /// the sleep set pruned, so a bounded search could lose the class
    /// entirely (cf. bounded partial-order reduction, Coons, Musuvathi &
    /// McKinley, OOPSLA 2013). Replay ignores pruning by construction
    /// ([`StrategyKind::Replay`] is excluded here), and serial phase-1
    /// mode is untouched. Sampling strategies (random walk, PCT,
    /// coverage-guided fuzzing) also stay unreduced: sleep sets encode
    /// "this subtree was exhaustively covered elsewhere", a statement a
    /// guided sample never earns — pruning there would be unsound, so
    /// coverage feedback only *orders* exploration and never prunes it.
    pub fn effective_por(&self) -> bool {
        self.por
            && self.mode == Mode::Concurrent
            && self.preemption_bound.is_none()
            && self.strategy == StrategyKind::Dfs
    }

    /// Whether symmetry reduction is actually applied: it requires
    /// non-empty [`Config::symmetry`] groups and the same exhaustive-
    /// concurrent gate as [`Config::effective_por`] — concurrent mode, no
    /// preemption bound, and the DFS strategy.
    ///
    /// The gating reasons mirror POR's. Under a preemption bound, pruning
    /// a sibling ordering is unsound for the same reason sleep sets are:
    /// the canonical (lowest-index-first) representative of a symmetry
    /// class may cost more preemptions than the pruned member, so a
    /// bounded search could lose the class entirely. Serial phase-1 mode
    /// must stay unpruned because the specification is the *set* of
    /// serial observations — dropping a renamed serial run would shrink
    /// the synthesized spec. Sampling strategies and replay make no
    /// coverage claim a prune could rely on, and replay in particular
    /// must reproduce recorded decisions verbatim.
    pub fn effective_symmetry(&self) -> bool {
        !self.symmetry.is_empty()
            && self.mode == Mode::Concurrent
            && self.preemption_bound.is_none()
            && self.strategy == StrategyKind::Dfs
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_modes() {
        assert_eq!(Config::exhaustive().mode, Mode::Concurrent);
        assert_eq!(Config::serial().mode, Mode::Serial);
        assert_eq!(Config::preemption_bounded(2).preemption_bound, Some(2));
        assert!(matches!(
            Config::random(7, 10).strategy,
            StrategyKind::Random { seed: 7 }
        ));
        assert_eq!(Config::random(7, 10).max_runs, Some(10));
    }

    #[test]
    fn builders_compose() {
        let c = Config::serial().with_access_log(true).with_max_runs(5);
        assert!(c.record_accesses);
        assert_eq!(c.max_runs, Some(5));
        assert_eq!(c.mode, Mode::Serial);
    }

    #[test]
    fn default_is_exhaustive() {
        let c = Config::default();
        assert_eq!(c.mode, Mode::Concurrent);
        assert_eq!(c.preemption_bound, None);
    }

    #[test]
    fn fast_path_defaults_on_and_can_be_forced_off() {
        assert!(Config::exhaustive().fast_path);
        assert!(Config::serial().fast_path);
        assert!(!Config::exhaustive().with_fast_path(false).fast_path);
    }

    #[test]
    fn por_defaults_on_for_exhaustive_strategies() {
        assert!(Config::exhaustive().effective_por());
    }

    #[test]
    fn por_gated_off_where_unsound_or_meaningless() {
        assert!(!Config::exhaustive().with_por(false).effective_por());
        assert!(
            !Config::preemption_bounded(2).effective_por(),
            "sleep sets are unsound under a preemption bound"
        );
        assert!(!Config::serial().effective_por(), "phase 1 is untouched");
        assert!(
            !Config::replay(vec![0, 1]).effective_por(),
            "replay must ignore pruning"
        );
        assert!(!Config::random(1, 10).effective_por());
        assert!(!Config::pct(1, 3, 10).effective_por());
        assert!(
            !Config::coverage(1, 10).effective_por(),
            "coverage feedback orders exploration; it must never prune"
        );
    }

    #[test]
    fn symmetry_gated_like_por() {
        let sym = Config::exhaustive().with_symmetry(vec![0b011]);
        assert!(sym.effective_symmetry());
        assert!(
            !Config::exhaustive().effective_symmetry(),
            "no groups, no reduction"
        );
        assert!(!sym.clone().with_symmetry(Vec::new()).effective_symmetry());
        let bounded = Config {
            preemption_bound: Some(2),
            ..sym.clone()
        };
        assert!(
            !bounded.effective_symmetry(),
            "sibling pruning is unsound under a preemption bound"
        );
        let serial = Config {
            mode: Mode::Serial,
            ..sym.clone()
        };
        assert!(
            !serial.effective_symmetry(),
            "phase 1 must enumerate every serial observation"
        );
        for strategy in [
            StrategyKind::Random { seed: 1 },
            StrategyKind::Pct { seed: 1, depth: 3 },
            StrategyKind::Coverage { seed: 1 },
            StrategyKind::Replay { decisions: vec![0] },
        ] {
            let c = Config {
                strategy,
                ..sym.clone()
            };
            assert!(!c.effective_symmetry());
        }
    }

    #[test]
    fn backend_defaults_and_builders() {
        let c = Config::exhaustive();
        assert_eq!(c.backend, Backend::default_backend());
        assert_eq!(c.effective_fiber_stack(), Config::DEFAULT_FIBER_STACK);
        let c = c
            .with_backend(Backend::OsThreads)
            .with_fiber_stack_size(64 * 1024);
        assert_eq!(c.backend, Backend::OsThreads);
        assert_eq!(c.effective_fiber_stack(), 64 * 1024);
        // OS threads are always effective; a fiber request degrades to OS
        // threads exactly when the target lacks support.
        assert_eq!(Backend::OsThreads.effective(), Backend::OsThreads);
        if crate::fiber::supported() {
            assert_eq!(Backend::Fibers.effective(), Backend::Fibers);
            assert_eq!(Backend::default_backend(), Backend::Fibers);
        } else {
            assert_eq!(Backend::Fibers.effective(), Backend::OsThreads);
            assert_eq!(Backend::default_backend(), Backend::OsThreads);
        }
    }
}
