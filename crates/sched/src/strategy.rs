//! Search strategies: exhaustive DFS with replay (optionally with
//! partial-order reduction), random walk, and fixed replay of a recorded
//! schedule.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ids::ThreadId;

/// One recorded scheduling decision, for replay and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// The thread scheduled at this point.
    Thread(ThreadId),
    /// A nondeterministic boolean choice.
    Bool(bool),
}

/// The result of a POR-aware thread choice (see
/// [`Strategy::choose_thread_por`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PorChoice {
    /// Index of the chosen thread within the candidate list.
    pub index: usize,
    /// Thread-id bitmask to *add* to the sleep set at this point: the
    /// candidates whose subtrees this node has already fully explored.
    pub slept: u64,
    /// Identifier of the strategy-tree node that made the choice, for
    /// later [`Strategy::add_backtrack`] demands; `None` when the choice
    /// came from a replayed prefix (no backtracking there).
    pub node: Option<usize>,
}

/// A search strategy enumerates the choice tree of the program: at every
/// point with more than one alternative, [`Strategy::choose`] picks one.
///
/// Strategies must be deterministic functions of the choice history within
/// a run so that replayed prefixes reproduce identical executions.
pub trait Strategy {
    /// Called before each run.
    fn begin_run(&mut self);
    /// Picks one of `num_alts >= 2` alternatives (boolean choices use
    /// `num_alts == 2`).
    fn choose(&mut self, num_alts: usize) -> usize;
    /// Picks among candidate *threads*, identified by their ids. The
    /// default implementation delegates to [`Strategy::choose`];
    /// priority-based strategies (like [`PctStrategy`]) override it to
    /// use the identities.
    fn choose_thread(&mut self, candidates: &[usize], _step: usize) -> usize {
        self.choose(candidates.len())
    }
    /// Picks among candidate threads under partial-order reduction:
    /// `cur_sleep` is the runtime's sleep set (thread-id bitmask) at this
    /// point, and the caller guarantees at least one candidate is awake.
    /// POR-aware strategies choose an awake candidate and report the
    /// sleep additions of this node; the default ignores POR entirely.
    fn choose_thread_por(
        &mut self,
        candidates: &[usize],
        _cur_sleep: u64,
        step: usize,
    ) -> PorChoice {
        PorChoice {
            index: self.choose_thread(candidates, step),
            slept: 0,
            node: None,
        }
    }
    /// Demands that `thread` also be explored at strategy-tree node
    /// `node` (a DPOR backtrack point: the run observed a conflict
    /// between `thread`'s current transition and the transition chosen at
    /// `node`). Default: ignored.
    fn add_backtrack(&mut self, _node: usize, _thread: usize) {}
    /// Total number of DPOR backtrack points inserted over the whole
    /// exploration (for [`ExploreStats`](crate::ExploreStats)).
    fn backtrack_points(&self) -> u64 {
        0
    }
    /// Feedback counters of a coverage-guided exploration (see
    /// [`CoverageStrategy`](crate::coverage::CoverageStrategy)), harvested
    /// into [`ExploreStats`](crate::ExploreStats) like
    /// [`backtrack_points`](Strategy::backtrack_points). `None` (the
    /// default) for strategies without coverage feedback.
    fn coverage_counters(&self) -> Option<crate::coverage::CoverageCounters> {
        None
    }
    /// Called after each run; returns `true` if another run should be
    /// executed (i.e. unexplored choices remain).
    fn end_run(&mut self) -> bool;
}

/// Exhaustive depth-first search over the choice tree.
///
/// The strategy keeps the path of decisions of the previous run; each new
/// run replays the prefix and diverges at the deepest decision that still
/// has unexplored alternatives. This is the classic stateless
/// model-checking search of CHESS. With [`DfsStrategy::new_por`] the
/// thread-choice nodes additionally carry DPOR backtrack sets and sleep
/// sets (see the [`por`](crate::por) module): a node only expands
/// candidates demanded by a backtrack point, skips candidates asleep at
/// node entry, and reports its already-explored candidates as sleep
/// additions when replayed.
#[derive(Debug, Default)]
pub struct DfsStrategy {
    /// The decision path of the current run, root first.
    nodes: Vec<DfsNode>,
    /// The candidate lists of the thread nodes on the path, back to back.
    /// Nodes are pushed and popped at the deep end only, so their lists
    /// are too, and a new node never allocates one of its own.
    cands: Vec<usize>,
    cursor: usize,
    por: bool,
    backtracks: u64,
    /// Largest decision depth seen, for statistics.
    pub max_depth: usize,
}

#[derive(Debug, Clone)]
enum DfsNode {
    /// A non-thread (boolean) choice: plain exhaustive enumeration.
    /// `stolen` counts the top alternatives handed to work-stealing
    /// thieves ([`DfsStrategy::split_deepest`]); the owner never explores
    /// them. `num_alts` stays untouched so replay still asserts the
    /// program's arity.
    Plain {
        num_alts: usize,
        chosen: usize,
        stolen: usize,
    },
    /// A thread choice under POR.
    Thread(ThreadNode),
}

#[derive(Debug, Clone)]
struct ThreadNode {
    /// The candidate thread ids, in runtime order, are
    /// `cands[first..first + len]` of the [`DfsStrategy`] holding this node.
    first: usize,
    len: usize,
    /// Index into the candidates of the branch being explored.
    chosen: usize,
    /// Thread-id bitmask of candidates whose subtrees are fully explored;
    /// they sleep while the remaining branches run.
    done: u64,
    /// Thread-id bitmask of candidates demanded by DPOR backtrack points
    /// (seeded with the first choice).
    backtrack: u64,
    /// The runtime's sleep set when this node was first reached; those
    /// candidates are never expanded here (their interleavings are covered
    /// where they were put to sleep).
    sleep_entry: u64,
    /// Expand all awake candidates, ignoring `backtrack`.
    full: bool,
    /// Thread-id bitmask of candidates handed to work-stealing thieves
    /// ([`DfsStrategy::split_deepest`]); the owner never expands them.
    stolen: u64,
}

fn bit(t: usize) -> u64 {
    1u64 << t
}

impl ThreadNode {
    /// This node's candidates, given its path's candidate stack.
    fn candidates<'a>(&self, cands: &'a [usize]) -> &'a [usize] {
        &cands[self.first..self.first + self.len]
    }

    /// Advances to the next branch to explore, or `None` to pop: a
    /// candidate not yet done, not asleep at entry, and (unless `full`)
    /// demanded by a backtrack point.
    fn advance(&mut self, cands: &[usize]) -> bool {
        let candidates = self.candidates(cands);
        self.done |= bit(candidates[self.chosen]);
        let next = candidates.iter().position(|&t| {
            self.done & bit(t) == 0
                && self.sleep_entry & bit(t) == 0
                && self.stolen & bit(t) == 0
                && (self.full || self.backtrack & bit(t) != 0)
        });
        match next {
            Some(i) => {
                self.chosen = i;
                true
            }
            None => false,
        }
    }

    /// Whether candidate thread `t` still has an unexplored branch here
    /// under full expansion. Split points are promoted to `full` before
    /// this is consulted, so the backtrack set is deliberately ignored:
    /// once a subtree is given away, demands discovered by the thief can
    /// no longer flow back to the victim, and expanding every awake
    /// candidate (sleep sets alone are a complete reduction) keeps the
    /// partition sound.
    fn splittable(&self, t: usize) -> bool {
        self.done & bit(t) == 0 && self.sleep_entry & bit(t) == 0 && self.stolen & bit(t) == 0
    }

    /// The candidate position a thief would take: the branch the serial
    /// DFS would explore *last*. The currently running branch finishes
    /// first, then the remaining awake candidates in candidate order, so
    /// the last is the highest-position splittable candidate other than
    /// `chosen`.
    fn steal_position(&self, cands: &[usize]) -> Option<usize> {
        let candidates = self.candidates(cands);
        (0..candidates.len())
            .rev()
            .find(|&p| p != self.chosen && self.splittable(candidates[p]))
    }
}

/// A subtree carved off a live DFS by [`DfsStrategy::split_deepest`]: the
/// decision prefix addressing it plus the per-decision sleep masks a serial
/// DFS would have accumulated on entry, so a thief exploring it with
/// [`PrefixDfsStrategy::new_por`] reproduces exactly the serial reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StolenSubtree {
    /// Decision indexes from the root down to (and including) the stolen
    /// branch.
    pub prefix: Vec<usize>,
    /// Sleep mask to re-install at each prefix decision (0 for non-thread
    /// choices).
    pub sleep: Vec<u64>,
}

impl DfsStrategy {
    /// Creates a fresh DFS over an unexplored tree, without reduction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a DFS with partial-order reduction (sleep sets + DPOR
    /// backtracking) on its thread-choice nodes.
    pub fn new_por() -> Self {
        DfsStrategy {
            por: true,
            ..Self::default()
        }
    }

    /// Splits off the subtree at the *deepest* unexplored branch point of
    /// the committed path, for a work-stealing thief. Call only between
    /// runs (after [`Strategy::end_run`] returned `true`); returns `None`
    /// when no node on the path has a branch to give away.
    ///
    /// The stolen branch is the one the serial DFS would have explored
    /// *last* at that node, so the thief's sleep mask there is the mask
    /// the serial DFS would have had: everything already done, plus the
    /// branch currently being explored, plus every other still-awake
    /// branch the victim will explore first. Thread nodes on the path down
    /// to the split point are promoted to full expansion (see
    /// [`ThreadNode::splittable`]) *before* the stolen branch is chosen,
    /// so the candidate set can only shrink afterwards and the
    /// stolen-branch-is-last invariant holds for the rest of the victim's
    /// exploration.
    pub fn split_deepest(&mut self) -> Option<StolenSubtree> {
        let (nodes, cands) = (&mut self.nodes, &self.cands);
        let split = (0..nodes.len()).rev().find(|&i| match &nodes[i] {
            DfsNode::Plain {
                num_alts,
                chosen,
                stolen,
            } => chosen + 1 < num_alts - stolen,
            DfsNode::Thread(tn) => tn.steal_position(cands).is_some(),
        })?;
        let mut prefix = Vec::with_capacity(split + 1);
        let mut sleep = Vec::with_capacity(split + 1);
        for node in &mut nodes[..split] {
            match node {
                DfsNode::Plain { chosen, .. } => {
                    prefix.push(*chosen);
                    sleep.push(0);
                }
                DfsNode::Thread(tn) => {
                    tn.full = true;
                    prefix.push(tn.chosen);
                    sleep.push(tn.done);
                }
            }
        }
        match &mut nodes[split] {
            DfsNode::Plain {
                num_alts, stolen, ..
            } => {
                // Give away the highest not-yet-stolen alternative: the
                // serial DFS explores alternatives in increasing order, so
                // it is the last one.
                let idx = *num_alts - 1 - *stolen;
                *stolen += 1;
                prefix.push(idx);
                sleep.push(0);
            }
            DfsNode::Thread(tn) => {
                tn.full = true;
                let pos = tn.steal_position(cands).expect("checked splittable above");
                let candidates = tn.candidates(cands);
                let thief_thread = candidates[pos];
                // Everything the victim explores before the stolen branch
                // sleeps inside it, exactly as in the serial order.
                let mut mask = tn.done;
                for &t in candidates {
                    if tn.splittable(t) && t != thief_thread {
                        mask |= bit(t);
                    }
                }
                mask |= bit(candidates[tn.chosen]);
                tn.stolen |= bit(thief_thread);
                prefix.push(pos);
                sleep.push(mask);
            }
        }
        Some(StolenSubtree { prefix, sleep })
    }

    /// The decision vector of the run that just finished: the chosen
    /// alternative index at every node on the current path, in the same
    /// encoding the explorer records per run. Cancellation protocols use
    /// it to decide whether an asynchronous abandon request still applies
    /// to the position the strategy has advanced to (the request may have
    /// been raised against a run the strategy already moved past).
    pub fn current_decisions(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .map(|node| match node {
                DfsNode::Plain { chosen, .. } => *chosen,
                DfsNode::Thread(tn) => tn.chosen,
            })
            .collect()
    }
}

impl Strategy for DfsStrategy {
    fn begin_run(&mut self) {
        self.cursor = 0;
    }

    fn choose(&mut self, num_alts: usize) -> usize {
        debug_assert!(num_alts >= 2);
        if self.cursor < self.nodes.len() {
            let DfsNode::Plain {
                num_alts: n,
                chosen,
                ..
            } = self.nodes[self.cursor]
            else {
                panic!(
                    "nondeterministic replay: a thread choice became a \
                     boolean choice given the same schedule prefix"
                );
            };
            assert_eq!(
                n, num_alts,
                "nondeterministic replay: the program must make the same \
                 choices given the same schedule prefix"
            );
            self.cursor += 1;
            chosen
        } else {
            self.nodes.push(DfsNode::Plain {
                num_alts,
                chosen: 0,
                stolen: 0,
            });
            self.cursor += 1;
            self.max_depth = self.max_depth.max(self.nodes.len());
            0
        }
    }

    fn choose_thread_por(
        &mut self,
        candidates: &[usize],
        cur_sleep: u64,
        step: usize,
    ) -> PorChoice {
        if !self.por && cur_sleep == 0 {
            return PorChoice {
                index: self.choose_thread(candidates, step),
                slept: 0,
                node: None,
            };
        }
        // POR on, or a symmetry mask on a non-POR DFS (the scheduler folds
        // symmetry-masked siblings into `cur_sleep`): a thread node
        // enumerates only unmasked candidates. Symmetry masks are a
        // deterministic function of the decision prefix, so a node created
        // with a mask is revisited with the same mask. Without POR there
        // are no backtrack demands, so such nodes must expand fully.
        if self.cursor < self.nodes.len() {
            let node_id = self.cursor;
            let DfsNode::Thread(tn) = &self.nodes[node_id] else {
                panic!(
                    "nondeterministic replay: a boolean choice became a \
                     thread choice given the same schedule prefix"
                );
            };
            assert_eq!(
                tn.candidates(&self.cands),
                candidates,
                "nondeterministic replay: the candidate threads must match \
                 given the same schedule prefix"
            );
            debug_assert_eq!(
                tn.sleep_entry, cur_sleep,
                "sleep and symmetry masks must replay deterministically"
            );
            self.cursor += 1;
            PorChoice {
                index: tn.chosen,
                slept: tn.done,
                node: Some(node_id),
            }
        } else {
            let chosen = candidates
                .iter()
                .position(|&t| cur_sleep & bit(t) == 0)
                .expect("caller guarantees an awake candidate");
            let first = self.cands.len();
            self.cands.extend_from_slice(candidates);
            self.nodes.push(DfsNode::Thread(ThreadNode {
                first,
                len: candidates.len(),
                chosen,
                done: 0,
                backtrack: bit(candidates[chosen]),
                sleep_entry: cur_sleep,
                full: !self.por,
                stolen: 0,
            }));
            self.cursor += 1;
            self.max_depth = self.max_depth.max(self.nodes.len());
            PorChoice {
                index: chosen,
                slept: 0,
                node: Some(self.nodes.len() - 1),
            }
        }
    }

    fn add_backtrack(&mut self, node: usize, thread: usize) {
        let DfsNode::Thread(tn) = &mut self.nodes[node] else {
            return;
        };
        let candidates = tn.candidates(&self.cands);
        // FG-DPOR: demand `thread` where it was a candidate; otherwise
        // (it was excluded, e.g. right after its own yield) demand every
        // candidate so no reordering is lost.
        let wanted = if candidates.contains(&thread) {
            bit(thread)
        } else {
            candidates.iter().fold(0u64, |m, &t| m | bit(t))
        };
        let added = wanted & !tn.backtrack;
        if added != 0 {
            tn.backtrack |= added;
            self.backtracks += u64::from(added.count_ones());
        }
    }

    fn backtrack_points(&self) -> u64 {
        self.backtracks
    }

    fn end_run(&mut self) -> bool {
        debug_assert_eq!(
            self.cursor,
            self.nodes.len(),
            "run must consume its whole path"
        );
        // Move the deepest node that still has an unexplored branch onto
        // that branch, popping the exhausted nodes below it.
        while let Some(last) = self.nodes.last_mut() {
            match last {
                DfsNode::Plain {
                    num_alts,
                    chosen,
                    stolen,
                } => {
                    if *chosen + 1 < *num_alts - *stolen {
                        *chosen += 1;
                        return true;
                    }
                }
                DfsNode::Thread(tn) => {
                    if tn.advance(&self.cands) {
                        return true;
                    }
                }
            }
            if let Some(DfsNode::Thread(tn)) = self.nodes.pop() {
                self.cands.truncate(tn.first);
            }
        }
        false
    }
}

/// Uniform random walk: every choice is picked uniformly at random.
///
/// Used for quick bug hunting on tests too large for exhaustive search;
/// Line-Up's completeness guarantee (Theorem 5) is unaffected because any
/// violation found is still a real violation, but passing loses the
/// exhaustiveness of phase 2.
#[derive(Debug)]
pub struct RandomStrategy {
    rng: SmallRng,
    runs_left: u64,
}

impl RandomStrategy {
    /// Creates a random walk with the given seed performing `runs` runs.
    pub fn new(seed: u64, runs: u64) -> Self {
        RandomStrategy {
            rng: SmallRng::seed_from_u64(seed),
            runs_left: runs,
        }
    }
}

impl Strategy for RandomStrategy {
    fn begin_run(&mut self) {}

    fn choose(&mut self, num_alts: usize) -> usize {
        self.rng.gen_range(0..num_alts)
    }

    fn end_run(&mut self) -> bool {
        self.runs_left = self.runs_left.saturating_sub(1);
        self.runs_left > 0
    }
}

/// Replays a fixed schedule once (e.g. to re-execute a violating run for
/// debugging). Thread choices are resolved by matching the recorded thread
/// against the candidate list, so the replay tolerates recorded singleton
/// decisions that the runtime does not consult the strategy for.
#[derive(Debug)]
pub struct ReplayStrategy {
    choices: Vec<usize>,
    cursor: usize,
}

impl ReplayStrategy {
    /// Creates a replay of raw alternative indexes, in decision order.
    pub fn from_indexes(choices: Vec<usize>) -> Self {
        ReplayStrategy { choices, cursor: 0 }
    }
}

impl Strategy for ReplayStrategy {
    fn begin_run(&mut self) {
        self.cursor = 0;
    }

    fn choose(&mut self, num_alts: usize) -> usize {
        let idx = self.choices.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        idx.min(num_alts - 1)
    }

    fn end_run(&mut self) -> bool {
        false
    }
}

/// Depth-first search restricted to the subtree rooted at a fixed decision
/// prefix: every run replays the prefix verbatim, and the DFS explores only
/// the decisions beyond it.
///
/// This is the unit of work of the parallel phase-2 exploration: the root
/// task has the empty prefix, a victim carves further subtrees off its live
/// search with [`split_deepest`](PrefixDfsStrategy::split_deepest), and
/// each worker explores one subtree at a time with this strategy. The
/// union of the runs over all tasks is exactly the set of runs a plain
/// [`DfsStrategy`] performs, each exactly once.
#[derive(Debug)]
pub struct PrefixDfsStrategy {
    prefix: Vec<usize>,
    /// Sleep-set masks to re-install along the prefix (parallel to
    /// `prefix`; missing entries mean no sleep additions). Computed at the
    /// split so the worker's subtree inherits exactly the sleep set a
    /// serial exploration would have at the subtree root.
    sleep: Vec<u64>,
    cursor: usize,
    dfs: DfsStrategy,
}

impl PrefixDfsStrategy {
    /// Creates a DFS over the subtree rooted at `prefix` (raw alternative
    /// indexes, in decision order, as recorded in
    /// [`RunResult::decisions`](crate::RunResult)).
    pub fn new(prefix: Vec<usize>) -> Self {
        PrefixDfsStrategy {
            prefix,
            sleep: Vec::new(),
            cursor: 0,
            dfs: DfsStrategy::new(),
        }
    }

    /// Creates a POR-enabled subtree DFS: the prefix re-installs the given
    /// per-decision sleep masks, and the DFS beyond it uses sleep sets and
    /// DPOR backtracking.
    pub fn new_por(prefix: Vec<usize>, sleep: Vec<u64>) -> Self {
        PrefixDfsStrategy {
            prefix,
            sleep,
            cursor: 0,
            dfs: DfsStrategy::new_por(),
        }
    }

    /// The fixed decision prefix identifying this subtree.
    pub fn prefix(&self) -> &[usize] {
        &self.prefix
    }

    /// Splits off the deepest unexplored branch point of the inner DFS
    /// (see [`DfsStrategy::split_deepest`]), re-rooting the stolen subtree
    /// at the tree root by prepending this strategy's own prefix and sleep
    /// masks. Call only between runs.
    pub fn split_deepest(&mut self) -> Option<StolenSubtree> {
        let sub = self.dfs.split_deepest()?;
        let mut prefix = self.prefix.clone();
        let mut sleep = self.sleep.clone();
        sleep.resize(prefix.len(), 0);
        prefix.extend(sub.prefix);
        sleep.extend(sub.sleep);
        Some(StolenSubtree { prefix, sleep })
    }

    /// The full decision vector of the run that just finished: the fixed
    /// prefix followed by the inner DFS's current path (see
    /// [`DfsStrategy::current_decisions`]).
    pub fn current_decisions(&self) -> Vec<usize> {
        let mut decisions = self.prefix.clone();
        decisions.extend(self.dfs.current_decisions());
        decisions
    }
}

impl Strategy for PrefixDfsStrategy {
    fn begin_run(&mut self) {
        self.cursor = 0;
        self.dfs.begin_run();
    }

    fn choose(&mut self, num_alts: usize) -> usize {
        if self.cursor < self.prefix.len() {
            let idx = self.prefix[self.cursor];
            self.cursor += 1;
            debug_assert!(
                idx < num_alts,
                "prefix decision out of range: the prefix must come from a \
                 split of the same deterministic program"
            );
            idx.min(num_alts - 1)
        } else {
            self.dfs.choose(num_alts)
        }
    }

    fn choose_thread_por(
        &mut self,
        candidates: &[usize],
        cur_sleep: u64,
        step: usize,
    ) -> PorChoice {
        if self.cursor < self.prefix.len() {
            let idx = self.prefix[self.cursor];
            let slept = self.sleep.get(self.cursor).copied().unwrap_or(0);
            self.cursor += 1;
            debug_assert!(
                idx < candidates.len(),
                "prefix decision out of range: the prefix must come from a \
                 split of the same deterministic program"
            );
            PorChoice {
                index: idx.min(candidates.len() - 1),
                slept,
                node: None,
            }
        } else {
            self.dfs.choose_thread_por(candidates, cur_sleep, step)
        }
    }

    fn add_backtrack(&mut self, node: usize, thread: usize) {
        // Demands targeting the prefix region carry `node: None` and never
        // reach here; the victim promoted those nodes to full expansion at
        // the split, so nothing is lost.
        self.dfs.add_backtrack(node, thread);
    }

    fn backtrack_points(&self) -> u64 {
        self.dfs.backtrack_points()
    }

    fn end_run(&mut self) -> bool {
        self.dfs.end_run()
    }
}

/// Probabilistic concurrency testing (PCT): assigns each thread a random
/// priority, always runs the highest-priority candidate, and lowers the
/// running priority at `depth − 1` randomly chosen steps.
///
/// PCT (Burckhardt, Kothari, Musuvathi, Nagarakatte, ASPLOS 2010 — by the
/// Line-Up authors) guarantees that a bug requiring `d` ordering
/// constraints within `k` steps is found with probability ≥ 1/(n·k^{d−1})
/// per run, typically far better than uniform random walk. Included here
/// as an alternative phase-2 search for tests too large to explore
/// exhaustively.
#[derive(Debug)]
pub struct PctStrategy {
    rng: SmallRng,
    runs_left: u64,
    /// Estimated schedule length, used to sample priority-change points;
    /// adapted to the longest run seen so far.
    est_steps: usize,
    depth: usize,
    priorities: Vec<u64>,
    change_points: Vec<usize>,
    next_change: usize,
    step: usize,
}

impl PctStrategy {
    /// Creates a PCT search with the given seed, bug depth (number of
    /// priority-change points + 1), and run budget.
    pub fn new(seed: u64, depth: usize, runs: u64) -> Self {
        let mut s = PctStrategy {
            rng: SmallRng::seed_from_u64(seed),
            runs_left: runs,
            est_steps: 64,
            depth: depth.max(1),
            priorities: Vec::new(),
            change_points: Vec::new(),
            next_change: 0,
            step: 0,
        };
        s.reseed_run();
        s
    }

    fn reseed_run(&mut self) {
        self.priorities.clear();
        self.step = 0;
        self.next_change = 0;
        self.change_points = (0..self.depth.saturating_sub(1))
            .map(|_| self.rng.gen_range(0..self.est_steps.max(1)))
            .collect();
        self.change_points.sort_unstable();
    }

    fn priority(&mut self, thread: usize) -> u64 {
        while self.priorities.len() <= thread {
            // High random priorities; change points assign low ones.
            let p = self.rng.gen_range(1_000_000..2_000_000);
            self.priorities.push(p);
        }
        self.priorities[thread]
    }
}

impl Strategy for PctStrategy {
    fn begin_run(&mut self) {
        self.reseed_run();
    }

    fn choose(&mut self, num_alts: usize) -> usize {
        // Non-thread (boolean) choices are sampled uniformly.
        self.rng.gen_range(0..num_alts)
    }

    fn choose_thread(&mut self, candidates: &[usize], _step: usize) -> usize {
        self.step += 1;
        // Pick the highest-priority candidate.
        let (mut best_idx, mut best_p) = (0, 0u64);
        for (i, &t) in candidates.iter().enumerate() {
            let p = self.priority(t);
            if p > best_p {
                best_p = p;
                best_idx = i;
            }
        }
        // At a change point, demote the would-be winner and re-pick.
        // Successive change points assign *decreasing* priorities, so a
        // thread demoted later sinks below threads demoted earlier —
        // enabling alternation patterns (A runs, B runs, A runs, …).
        while self.next_change < self.change_points.len()
            && self.step > self.change_points[self.next_change]
        {
            let demoted = candidates[best_idx];
            self.priorities[demoted] = (self.depth - 1 - self.next_change) as u64;
            self.next_change += 1;
            let (mut idx, mut p) = (0, 0u64);
            for (i, &t) in candidates.iter().enumerate() {
                let pt = self.priority(t);
                if pt > p {
                    p = pt;
                    idx = i;
                }
            }
            best_idx = idx;
        }
        best_idx
    }

    fn end_run(&mut self) -> bool {
        self.est_steps = self.est_steps.max(self.step);
        self.runs_left = self.runs_left.saturating_sub(1);
        self.runs_left > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a DFS strategy through a synthetic choice tree where every
    /// run makes `depth` binary choices; checks that all 2^depth leaves
    /// are visited exactly once.
    #[test]
    fn dfs_enumerates_binary_tree() {
        let mut dfs = DfsStrategy::new();
        let depth = 4;
        let mut seen = std::collections::HashSet::new();
        loop {
            dfs.begin_run();
            let mut leaf = 0usize;
            for _ in 0..depth {
                leaf = (leaf << 1) | dfs.choose(2);
            }
            assert!(seen.insert(leaf), "leaf visited twice: {leaf:#b}");
            if !dfs.end_run() {
                break;
            }
        }
        assert_eq!(seen.len(), 1 << depth);
    }

    /// A tree with varying arity per level.
    #[test]
    fn dfs_enumerates_mixed_arity_tree() {
        let mut dfs = DfsStrategy::new();
        let arities = [3usize, 2, 4];
        let mut count = 0;
        loop {
            dfs.begin_run();
            for &a in &arities {
                let c = dfs.choose(a);
                assert!(c < a);
            }
            count += 1;
            if !dfs.end_run() {
                break;
            }
        }
        assert_eq!(count, 3 * 2 * 4);
    }

    /// The number of choices may depend on earlier choices (like enabled
    /// sets depend on the schedule); DFS must still visit every leaf.
    #[test]
    fn dfs_enumerates_dependent_tree() {
        let mut dfs = DfsStrategy::new();
        let mut count = 0;
        loop {
            dfs.begin_run();
            let first = dfs.choose(2);
            if first == 0 {
                dfs.choose(3);
            } else {
                dfs.choose(2);
                dfs.choose(2);
            }
            count += 1;
            if !dfs.end_run() {
                break;
            }
        }
        // 3 leaves under first=0, 4 leaves under first=1.
        assert_eq!(count, 7);
    }

    #[test]
    fn dfs_single_run_when_no_choices() {
        let mut dfs = DfsStrategy::new();
        dfs.begin_run();
        assert!(!dfs.end_run());
    }

    #[test]
    #[should_panic(expected = "nondeterministic replay")]
    fn dfs_detects_nondeterministic_replay() {
        let mut dfs = DfsStrategy::new();
        dfs.begin_run();
        dfs.choose(2);
        dfs.choose(2);
        assert!(dfs.end_run());
        dfs.begin_run();
        dfs.choose(3); // arity changed: the program was not deterministic
    }

    #[test]
    fn random_respects_run_budget() {
        let mut r = RandomStrategy::new(42, 3);
        r.begin_run();
        let c = r.choose(5);
        assert!(c < 5);
        assert!(r.end_run());
        assert!(r.end_run());
        assert!(!r.end_run());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = RandomStrategy::new(7, 100);
        let mut b = RandomStrategy::new(7, 100);
        for _ in 0..50 {
            assert_eq!(a.choose(4), b.choose(4));
        }
    }

    #[test]
    fn pct_always_picks_a_candidate() {
        let mut pct = PctStrategy::new(9, 3, 10);
        for _ in 0..3 {
            pct.begin_run();
            for step in 0..30 {
                let cands = [0usize, 1, 2];
                let idx = pct.choose_thread(&cands, step);
                assert!(idx < cands.len());
            }
            pct.end_run();
        }
    }

    #[test]
    fn pct_respects_run_budget() {
        let mut pct = PctStrategy::new(1, 2, 2);
        pct.begin_run();
        assert!(pct.end_run());
        assert!(!pct.end_run());
    }

    #[test]
    fn pct_is_priority_stable_within_a_run() {
        // Without change points (depth 1), the same candidate set always
        // yields the same winner within one run.
        let mut pct = PctStrategy::new(4, 1, 10);
        pct.begin_run();
        let cands = [0usize, 1, 2, 3];
        let first = pct.choose_thread(&cands, 0);
        for step in 1..20 {
            assert_eq!(pct.choose_thread(&cands, step), first);
        }
    }

    #[test]
    fn replay_follows_and_clamps() {
        let mut r = ReplayStrategy::from_indexes(vec![1, 5]);
        r.begin_run();
        assert_eq!(r.choose(2), 1);
        assert_eq!(r.choose(3), 2); // clamped to num_alts - 1
        assert_eq!(r.choose(2), 0); // exhausted: defaults to 0
        assert!(!r.end_run());
    }

    /// Drives a strategy through a synthetic fixed-arity tree and returns
    /// every visited leaf as its decision path.
    fn collect_leaves(strategy: &mut dyn Strategy, arities: &[usize]) -> Vec<Vec<usize>> {
        let mut leaves = Vec::new();
        loop {
            strategy.begin_run();
            let mut path = Vec::new();
            for &a in arities {
                path.push(strategy.choose(a));
            }
            leaves.push(path);
            if !strategy.end_run() {
                break;
            }
        }
        leaves
    }

    #[test]
    fn prefix_dfs_explores_exactly_its_subtree() {
        let arities = [2usize, 3, 2];
        let mut sub = PrefixDfsStrategy::new(vec![1, 2]);
        let leaves = collect_leaves(&mut sub, &arities);
        assert_eq!(leaves, vec![vec![1, 2, 0], vec![1, 2, 1]]);
    }

    #[test]
    fn prefix_dfs_with_empty_prefix_equals_plain_dfs() {
        let arities = [2usize, 2, 3];
        let dfs_leaves = collect_leaves(&mut DfsStrategy::new(), &arities);
        let sub_leaves = collect_leaves(&mut PrefixDfsStrategy::new(Vec::new()), &arities);
        assert_eq!(dfs_leaves, sub_leaves);
    }

    #[test]
    fn prefix_dfs_leaf_subtree_runs_once() {
        // A prefix covering every decision of the run: one run, no more.
        let mut sub = PrefixDfsStrategy::new(vec![1, 0]);
        sub.begin_run();
        assert_eq!(sub.choose(2), 1);
        assert_eq!(sub.choose(2), 0);
        assert!(!sub.end_run());
    }

    /// The dependent-arity tree used by the split tests: later arities
    /// depend on earlier choices, like a real schedule tree.
    fn dependent_run(strategy: &mut dyn Strategy) -> Vec<usize> {
        let mut path = Vec::new();
        let first = strategy.choose(3);
        path.push(first);
        if first == 0 {
            path.push(strategy.choose(2));
            path.push(strategy.choose(2));
        } else {
            path.push(strategy.choose(4));
            if path[1] >= 2 {
                path.push(strategy.choose(3));
            }
        }
        path
    }

    fn collect_dependent(strategy: &mut dyn Strategy) -> Vec<Vec<usize>> {
        let mut leaves = Vec::new();
        loop {
            strategy.begin_run();
            leaves.push(dependent_run(strategy));
            if !strategy.end_run() {
                break;
            }
        }
        leaves
    }

    /// The partition property work stealing relies on: a victim that gives
    /// away its deepest unexplored branch after every run, plus thieves
    /// exploring the stolen subtrees, together visit exactly the serial
    /// DFS leaves, each exactly once.
    #[test]
    fn split_deepest_partitions_a_dependent_tree() {
        let serial = collect_dependent(&mut DfsStrategy::new());

        let mut victim = DfsStrategy::new();
        let mut stolen = Vec::new();
        let mut combined = Vec::new();
        loop {
            victim.begin_run();
            combined.push(dependent_run(&mut victim));
            if !victim.end_run() {
                break;
            }
            if let Some(sub) = victim.split_deepest() {
                stolen.push(sub);
            }
        }
        for sub in stolen {
            combined.extend(collect_dependent(&mut PrefixDfsStrategy::new(sub.prefix)));
        }

        let mut seen = combined.clone();
        seen.sort();
        let deduped = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), deduped, "no leaf visited twice");
        let mut expected = serial;
        expected.sort();
        assert_eq!(seen, expected);
    }

    /// Stealing until the victim has nothing left to give still partitions
    /// the tree: the victim keeps only the branch it is currently on.
    #[test]
    fn split_until_dry_partitions_the_tree() {
        let serial = collect_dependent(&mut DfsStrategy::new());

        let mut victim = DfsStrategy::new();
        let mut combined = Vec::new();
        let mut stolen = Vec::new();
        loop {
            victim.begin_run();
            combined.push(dependent_run(&mut victim));
            if !victim.end_run() {
                break;
            }
            while let Some(sub) = victim.split_deepest() {
                stolen.push(sub);
            }
        }
        // Thieves may themselves be split mid-exploration.
        while let Some(sub) = stolen.pop() {
            let mut thief = PrefixDfsStrategy::new(sub.prefix);
            loop {
                thief.begin_run();
                combined.push(dependent_run(&mut thief));
                if !thief.end_run() {
                    break;
                }
                if let Some(sub) = thief.split_deepest() {
                    stolen.push(sub);
                }
            }
        }

        let mut seen = combined.clone();
        seen.sort();
        let len = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), len, "no leaf visited twice");
        let mut expected = serial;
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn split_with_nothing_left_returns_none() {
        let mut dfs = DfsStrategy::new();
        dfs.begin_run();
        dfs.choose(2);
        assert!(dfs.end_run());
        // end_run committed the last alternative; nothing left to give.
        assert_eq!(dfs.split_deepest(), None);
    }

    /// A POR split ships the sleep mask the serial DFS would have had at
    /// the stolen branch: everything already explored, plus the branch the
    /// victim is on, plus every other awake branch the victim explores
    /// first.
    #[test]
    fn split_por_node_ships_serial_sleep_mask() {
        let mut victim = DfsStrategy::new_por();
        victim.begin_run();
        let c = victim.choose_thread_por(&[0, 1, 2], 0, 0);
        assert_eq!((c.index, c.slept), (0, 0));
        // Conflicts demand the other two branches.
        victim.add_backtrack(c.node.unwrap(), 1);
        victim.add_backtrack(c.node.unwrap(), 2);
        assert!(victim.end_run());

        // Victim is now on branch 1; the serial DFS would explore branch 2
        // last, so that is what a thief gets, sleeping {0, 1}.
        let sub = victim.split_deepest().expect("branch 2 is stealable");
        assert_eq!(sub.prefix, vec![2]);
        assert_eq!(sub.sleep, vec![bit(0) | bit(1)]);
        // Nothing else to steal at this node.
        assert_eq!(victim.split_deepest(), None);

        // The victim replays branch 1 with branch 0 asleep, then stops:
        // branch 2 now belongs to the thief.
        victim.begin_run();
        let c = victim.choose_thread_por(&[0, 1, 2], 0, 0);
        assert_eq!((c.index, c.slept), (1, bit(0)));
        assert!(!victim.end_run());
    }

    #[test]
    fn prefix_dfs_split_reroots_at_the_tree_root() {
        let mut victim = PrefixDfsStrategy::new_por(vec![1], vec![bit(7)]);
        victim.begin_run();
        assert_eq!(victim.choose(2), 1);
        assert_eq!(victim.choose(3), 0);
        assert!(victim.end_run());
        let sub = victim.split_deepest().expect("alternative 2 is stealable");
        assert_eq!(sub.prefix, vec![1, 2]);
        assert_eq!(sub.sleep, vec![bit(7), 0]);
        // Victim explores the remaining middle alternative, then stops.
        victim.begin_run();
        assert_eq!(victim.choose(2), 1);
        assert_eq!(victim.choose(3), 1);
        assert!(!victim.end_run());
    }
}
