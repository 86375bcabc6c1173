//! Dynamic partial-order reduction (sleep sets + happens-before
//! backtracking) for the phase-2 exploration.
//!
//! Two schedules that differ only in the order of *non-conflicting*
//! transitions are Mazurkiewicz-equivalent: they drive the program through
//! the same sequence of per-object states and produce the identical
//! call/return history, so Line-Up's phase 2 — which only needs the set of
//! *distinct* observations — can soundly explore one representative per
//! equivalence class. This module implements the two classic ingredients:
//!
//! * **Sleep sets** (Godefroid): after fully exploring thread `t` from a
//!   schedule point, `t` is put to sleep while the siblings are explored,
//!   and wakes only when an executed transition *conflicts* with `t`'s
//!   pending transition. A run whose every candidate is asleep is pruned
//!   ([`RunOutcome::Pruned`](crate::RunOutcome)).
//! * **DPOR backtracking** (Flanagan–Godefroid, POPL 2005): each run tracks
//!   happens-before with per-thread vector clocks; when a transition
//!   conflicts with an earlier, causally-unordered transition of another
//!   thread, the schedule point where that earlier transition was chosen
//!   gains a *backtrack point* so the reversed order is also explored. The
//!   serial DFS only expands candidates demanded by a backtrack point
//!   (plus the initial choice), which skips whole redundant subtrees.
//!
//! Transitions here are the baton intervals of the cooperative runtime:
//! everything a thread does between two schedule points. A transition's
//! *footprint* (the accesses it actually performed, recorded via
//! [`note_effect`](crate::state)) decides conflicts with the *pending*
//! declarations of sleeping threads (the object each parked thread will
//! touch next, declared at its schedule point). Where the next transition
//! of a thread is not fully predictable — timed waits that mutate wait
//! sets on timeout, transitions that append to the Line-Up history — the
//! declaration is conservative, trading pruning power for soundness.

use crate::events::AccessKind;
use crate::ids::ObjId;

/// Maximum number of virtual threads when partial-order reduction is
/// active: sleep and backtrack sets are `u64` bitmasks over thread ids.
///
/// It also bounds the per-run clock arena: a transition that leaves a
/// record appends one snapshot of `threads` 32-bit ticks, so a run holds
/// at most `threads × steps` of them — 5 MB at 64 threads and
/// the default [`Config::max_steps`](crate::Config::max_steps) of 20,000,
/// 160 KB at two threads. Transitions that record nothing (no access, no
/// history append, no wildcard) append nothing.
pub const MAX_POR_THREADS: usize = 64;

/// Largest object id the dense per-object record table accepts. Ids come
/// from [`register_object`](crate::register_object), which numbers the
/// objects of each run from 0, so real programs stay far below this; the
/// cap turns a made-up id into a panic instead of a giant allocation.
const MAX_POR_OBJECTS: usize = 1 << 20;

/// Pseudo-object key under which Line-Up history appends (see
/// [`mark_history_event`](crate::runtime::mark_history_event)) are
/// tracked: the history is an ordered observation, so any two appends
/// conflict like two writes to one object.
pub(crate) const MARK_KEY: u32 = u32::MAX;

/// A vector clock over the (dense) thread ids of one execution.
///
/// Used by the race/serializability checkers in `lineup-checkers`. The
/// DPOR happens-before tracking here keeps its clocks in the flat buffers
/// of `PorRun` instead and uses this type only as its test oracle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.0.len() <= n {
            self.0.resize(n + 1, 0);
        }
    }

    /// Advances this clock's component for thread `t` by one.
    pub fn tick(&mut self, t: usize) {
        self.ensure(t);
        self.0[t] += 1;
    }

    /// This clock's component for thread `t` (0 when never ticked).
    pub fn get(&self, t: usize) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VectorClock) {
        self.ensure(other.0.len().saturating_sub(1));
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Whether the epoch `(thread, time)` is ordered before this clock.
    pub fn covers(&self, thread: usize, time: u64) -> bool {
        self.get(thread) >= time
    }

    /// Resets every component to zero, keeping the allocation (clear-and-
    /// reuse across runs).
    pub fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// Declared intent of the access behind a schedule point: whether the
/// primitive operation about to run only reads its object or may write it.
/// Declared via [`schedule_access`](crate::runtime::schedule_access); the
/// conservative default ([`schedule`](crate::runtime::schedule)) is
/// [`AccessIntent::Write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessIntent {
    /// The operation reads the object and leaves it unchanged (atomic /
    /// volatile loads, plain data reads).
    Read,
    /// The operation may mutate the object (stores, RMWs, lock and monitor
    /// operations — lock ops mutate wait sets even when they fail).
    Write,
}

/// What a parked thread will do when next scheduled, declared at its
/// schedule point. This is the sleeping side of the conflict relation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Pending {
    /// Parked at `schedule_access(obj, intent)`: the next transition
    /// performs that access (and possibly appends to the history, which
    /// the conflict rule accounts for separately).
    Obj { obj: u32, write: bool },
    /// Parked at a yield or operation boundary, not yet started, or
    /// resumed from an untimed block: the next transition touches no model
    /// object (it may still append to the history).
    #[default]
    NoObj,
    /// Parked in a timed block: if the modelled timeout fires, the thread
    /// mutates wait sets and runs arbitrary recovery code without a
    /// declared object. Conflicts with anything non-pure.
    Unknown,
}

/// The accumulated effects of one transition (one baton interval), reset
/// at every scheduling decision.
#[derive(Debug, Default)]
pub(crate) struct Footprint {
    /// `(object, is_write)` for every logged access to a real object.
    pub accesses: Vec<(u32, bool)>,
    /// Line-Up history appends performed in this transition.
    pub marks: u32,
    /// Threads this transition unblocked.
    pub woke: Vec<usize>,
    /// True when the transition ended in a yield (it touches the fair-
    /// scheduling state, so it is conservatively dependent on everything)
    /// or started from an [`Pending::Unknown`] declaration.
    pub wildcard: bool,
    /// The declared intent of the thread that ran this transition, used as
    /// a fallback when the primitive logged nothing (e.g. a failed lock
    /// acquire mutates the wait set without an access-log entry).
    pub declared: Pending,
}

impl Footprint {
    /// Empties the footprint in place, retaining its buffers for the next
    /// transition.
    fn clear(&mut self) {
        self.accesses.clear();
        self.marks = 0;
        self.woke.clear();
        self.wildcard = false;
        self.declared = Pending::NoObj;
    }

    fn is_pure(&self) -> bool {
        self.accesses.is_empty() && self.marks == 0 && self.woke.is_empty() && !self.wildcard
    }

    /// Whether this (finalized) footprint conflicts with the pending
    /// transition of a sleeping thread. Conservative in both directions:
    /// history appends conflict with every pending (any resumed operation
    /// may append its call/return next), and wildcards conflict with
    /// everything.
    fn conflicts(&self, pending: Pending) -> bool {
        if self.wildcard || self.marks > 0 {
            return true;
        }
        match pending {
            Pending::Obj { obj, write } => {
                self.accesses.iter().any(|&(o, w)| o == obj && (w || write))
            }
            Pending::NoObj => false,
            Pending::Unknown => !self.is_pure(),
        }
    }
}

/// One component of a happens-before clock: how many transitions of one
/// thread are ordered before a point. A component grows by one per
/// transition, so a run's [`Config::max_steps`](crate::Config::max_steps)
/// bounds it; [`PorRun::init_threads`] asserts that bound fits.
type Tick = u32;

/// The last recorded access of one kind to one object: who did it, at
/// which schedule-tree node they were chosen, and their clock after it.
/// `Copy`: every record one transition leaves shares that transition's
/// single clock snapshot in the arena.
#[derive(Debug, Clone, Copy)]
struct Rec {
    thread: usize,
    /// The strategy-tree node at which `thread` was chosen for the
    /// transition performing this access; `None` when the transition was
    /// forced (singleton candidate) or chosen inside a replayed prefix.
    node: Option<usize>,
    /// Offset in [`PorRun::arena`] of the clock snapshot.
    at: usize,
}

#[derive(Debug, Default)]
struct ObjRecords {
    last_write: Option<Rec>,
    /// Last read per thread since the last write.
    reads: Vec<Rec>,
}

impl ObjRecords {
    /// Forgets the records, keeping the `reads` buffer.
    fn clear(&mut self) {
        self.last_write = None;
        self.reads.clear();
    }

    /// Replaces the records with those of `rec`'s transition.
    fn record(&mut self, rec: Rec, write: bool) {
        if write {
            self.reads.clear();
            self.last_write = Some(rec);
        } else {
            self.reads.retain(|r| r.thread != rec.thread);
            self.reads.push(rec);
        }
    }
}

/// A backtrack demand produced while finalizing a transition: thread
/// `thread` must also be tried at strategy-tree node `node`.
#[derive(Debug)]
pub(crate) struct BacktrackDemand {
    pub node: usize,
    pub thread: usize,
}

/// Per-run partial-order-reduction state.
///
/// Laid out so that a schedule point allocates and hashes nothing once
/// the buffers are warm: thread clocks are rows of one flat table, the
/// clocks that records keep are snapshots appended to one per-run arena,
/// and per-object records live in a table indexed by the object id.
#[derive(Debug, Default)]
pub(crate) struct PorRun {
    /// Sleep set: bitmask of threads whose exploration from the current
    /// state is redundant.
    pub sleep: u64,
    /// Thread count of the current run; the width of every clock.
    threads: usize,
    /// Per-thread clocks: thread `t`'s is the row
    /// `clocks[t * threads..(t + 1) * threads]`.
    clocks: Vec<Tick>,
    /// Clock snapshots taken this run, `threads` ticks each, addressed by
    /// [`Rec::at`].
    arena: Vec<Tick>,
    /// Records per object, indexed by [`ObjId`]: ids are issued from 0 in
    /// every run, so the table is dense.
    objects: Vec<ObjRecords>,
    /// Only `objects[..used]` can hold records of the current run.
    used: usize,
    /// Records of the [`MARK_KEY`] pseudo-object (and of a declared
    /// [`NO_OBJ`](crate::AccessEvent::NO_OBJ), which has the same key).
    marks: ObjRecords,
    last_wildcard: Option<Rec>,
    /// Backtrack demands of the transition finalized last.
    demands: Vec<BacktrackDemand>,
    /// The strategy-tree node at which the current transition's thread was
    /// chosen (`None` for forced transitions).
    pub cur_node: Option<usize>,
    /// The footprint of the transition currently executing.
    pub foot: Footprint,
    /// Declared pending transition per thread.
    pub pending: Vec<Pending>,
}

fn bit(t: usize) -> u64 {
    1u64 << t
}

/// Whether a logged access mutates its object *for conflict purposes*.
/// Broader than [`AccessKind::is_write`]: lock and monitor operations
/// mutate owner/wait-set state even though the race detector does not
/// treat them as data writes, so two of them on the same object must be
/// ordered for DPOR to explore both orders (e.g. the ABBA deadlock).
fn mutates(kind: AccessKind) -> bool {
    kind.is_write()
        || matches!(
            kind,
            AccessKind::LockAcquire
                | AccessKind::LockRelease
                | AccessKind::MonitorWait
                | AccessKind::MonitorPulse { .. }
        )
}

/// The recorded access `rec` is dependent on the transition thread `p` is
/// finishing with clock `clock`: demand a backtrack where `rec`'s thread
/// was chosen (unless already ordered) and join its clock into ours.
fn meet(
    rec: Rec,
    p: usize,
    clock: &mut [Tick],
    arena: &[Tick],
    demands: &mut Vec<BacktrackDemand>,
) {
    let theirs = &arena[rec.at..rec.at + clock.len()];
    if rec.thread != p && clock[rec.thread] < theirs[rec.thread] {
        if let Some(node) = rec.node {
            demands.push(BacktrackDemand { node, thread: p });
        }
    }
    for (mine, &tick) in clock.iter_mut().zip(theirs) {
        *mine = (*mine).max(tick);
    }
}

impl PorRun {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the per-run reduction state for reuse. Every buffer keeps
    /// its allocation; only the object slots the run touched are visited.
    pub fn reset(&mut self) {
        self.sleep = 0;
        self.clocks.fill(0);
        self.arena.clear();
        for recs in &mut self.objects[..self.used] {
            recs.clear();
        }
        self.used = 0;
        self.marks.clear();
        self.last_wildcard = None;
        self.cur_node = None;
        self.foot.clear();
        self.pending.fill(Pending::NoObj);
    }

    /// Sizes the clocks and pending declarations for a run of `n` threads
    /// of at most `max_steps` steps. Call after [`reset`](PorRun::reset).
    pub fn init_threads(&mut self, n: usize, max_steps: usize) {
        assert!(
            Tick::try_from(max_steps).is_ok(),
            "partial-order reduction counts transitions in {}-bit clocks; \
             Config::max_steps = {max_steps} does not fit",
            Tick::BITS
        );
        self.threads = n;
        self.clocks.resize(n * n, 0);
        self.pending.resize(n, Pending::NoObj);
    }

    pub fn set_pending(&mut self, t: usize, p: Pending) {
        self.pending[t] = p;
    }

    /// Records one logged access into the current footprint.
    pub fn note_access(&mut self, obj: ObjId, kind: AccessKind) {
        if obj == crate::events::AccessEvent::NO_OBJ {
            if kind == AccessKind::Yield {
                self.foot.wildcard = true;
            }
            return;
        }
        self.foot.accesses.push((obj.0, mutates(kind)));
    }

    /// Records a Line-Up history append into the current footprint.
    pub fn note_mark(&mut self) {
        self.foot.marks += 1;
    }

    /// Records that the current transition unblocked `t`.
    pub fn note_wake(&mut self, t: usize) {
        self.foot.woke.push(t);
    }

    /// Whether every candidate thread is asleep (the run is redundant).
    pub fn all_asleep(&self, candidates: &[usize]) -> bool {
        candidates.iter().all(|&t| self.sleep & bit(t) != 0)
    }

    /// Finalizes the footprint of the transition `p` just completed:
    /// computes DPOR backtrack demands against the happens-before
    /// relation, updates clocks and per-object records, wakes sleeping
    /// threads the transition conflicts with, and resets the footprint.
    /// Returns the demands; the slice is valid until the next call.
    pub fn finish_transition(&mut self, p: usize) -> &[BacktrackDemand] {
        let n = self.threads;
        let foot = &mut self.foot;
        // Declared fallback: a primitive that logged nothing on its
        // declared object still touched it (failed lock acquires mutate
        // wait sets; reentrant monitor enters/exits go unlogged).
        match foot.declared {
            Pending::Obj { obj, write } => {
                if !foot.accesses.iter().any(|&(o, _)| o == obj) {
                    foot.accesses.push((obj, write));
                }
            }
            Pending::Unknown => foot.wildcard = true,
            Pending::NoObj => {}
        }
        if foot.marks > 0 {
            // History appends behave like writes to one pseudo-object.
            foot.accesses.push((MARK_KEY, true));
        }

        self.demands.clear();
        let clock = &mut self.clocks[p * n..(p + 1) * n];
        let (arena, demands) = (&self.arena, &mut self.demands);

        // Yield-containing (and undeclared-timeout) transitions are
        // conservatively dependent on everything recorded so far.
        if let Some(rec) = self.last_wildcard {
            meet(rec, p, clock, arena, demands);
        }
        if foot.wildcard {
            for recs in self.objects[..self.used].iter().chain([&self.marks]) {
                for &rec in recs.last_write.iter().chain(&recs.reads) {
                    meet(rec, p, clock, arena, demands);
                }
            }
        }
        for &(o, w) in &foot.accesses {
            let recs = if o == MARK_KEY {
                &self.marks
            } else {
                match self.objects.get(o as usize) {
                    Some(recs) => recs,
                    None => continue,
                }
            };
            if let Some(rec) = recs.last_write {
                meet(rec, p, clock, arena, demands);
            }
            if w {
                for &rec in &recs.reads {
                    meet(rec, p, clock, arena, demands);
                }
            }
        }

        clock[p] += 1;
        // One snapshot serves every record this transition leaves; a
        // transition that leaves none needs none.
        if foot.wildcard || !foot.accesses.is_empty() {
            let rec = Rec {
                thread: p,
                node: self.cur_node,
                at: self.arena.len(),
            };
            self.arena.extend_from_slice(clock);
            for &(o, w) in &foot.accesses {
                if o == MARK_KEY {
                    self.marks.record(rec, w);
                    continue;
                }
                let o = o as usize;
                if o >= self.objects.len() {
                    assert!(
                        o < MAX_POR_OBJECTS,
                        "object id {o} was not issued by register_object"
                    );
                    self.objects.resize_with(o + 1, ObjRecords::default);
                }
                self.used = self.used.max(o + 1);
                self.objects[o].record(rec, w);
            }
            if foot.wildcard {
                self.last_wildcard = Some(rec);
            }
        }
        // Waking a thread is an enabling happens-before edge.
        for &u in &foot.woke {
            for i in 0..n {
                let tick = self.clocks[p * n + i];
                let theirs = &mut self.clocks[u * n + i];
                *theirs = (*theirs).max(tick);
            }
        }

        // Sleep wake-up: a sleeping thread whose pending transition
        // conflicts with (or was woken by) this one must be re-explored.
        let mut asleep = self.sleep;
        while asleep != 0 {
            let t = asleep.trailing_zeros() as usize;
            asleep &= asleep - 1;
            if foot.woke.contains(&t) || foot.conflicts(self.pending[t]) {
                self.sleep &= !bit(t);
            }
        }
        self.cur_node = None;
        foot.clear();
        &self.demands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_clock_basics() {
        let mut a = VectorClock::new();
        a.tick(0);
        a.tick(0);
        a.tick(2);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 0);
        assert!(a.covers(0, 2));
        assert!(!a.covers(0, 3));
        let mut b = VectorClock::new();
        b.tick(1);
        b.join(&a);
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(1), 1);
        assert_eq!(b.get(2), 1);
    }

    #[test]
    fn footprint_conflicts() {
        let mut f = Footprint::default();
        f.accesses.push((3, false));
        assert!(!f.conflicts(Pending::Obj {
            obj: 3,
            write: false
        }));
        assert!(f.conflicts(Pending::Obj {
            obj: 3,
            write: true
        }));
        assert!(!f.conflicts(Pending::Obj {
            obj: 4,
            write: true
        }));
        assert!(!f.conflicts(Pending::NoObj));
        assert!(f.conflicts(Pending::Unknown), "non-pure vs unknown");
        f.accesses.clear();
        f.marks = 1;
        assert!(f.conflicts(Pending::NoObj), "history appends order-matter");
        f.marks = 0;
        f.wildcard = true;
        assert!(f.conflicts(Pending::Obj {
            obj: 9,
            write: false
        }));
    }

    #[test]
    fn writes_wake_sleeping_readers() {
        let mut por = PorRun::new();
        por.init_threads(3, 100);
        por.sleep = bit(1) | bit(2);
        por.set_pending(
            1,
            Pending::Obj {
                obj: 7,
                write: false,
            },
        );
        por.set_pending(
            2,
            Pending::Obj {
                obj: 8,
                write: false,
            },
        );
        por.foot.declared = Pending::Obj {
            obj: 7,
            write: true,
        };
        por.foot.accesses.push((7, true));
        let demands = por.finish_transition(0);
        assert!(demands.is_empty(), "nothing recorded yet");
        assert_eq!(
            por.sleep,
            bit(2),
            "reader of 7 wakes; reader of 8 sleeps on"
        );
    }

    #[test]
    fn unordered_conflict_demands_backtrack() {
        let mut por = PorRun::new();
        por.init_threads(2, 100);
        // Thread 0 writes object 5 from node 4.
        por.cur_node = Some(4);
        por.foot.declared = Pending::Obj {
            obj: 5,
            write: true,
        };
        por.foot.accesses.push((5, true));
        assert!(por.finish_transition(0).is_empty());
        // Thread 1, causally unordered, writes object 5 too.
        por.cur_node = Some(6);
        por.foot.declared = Pending::Obj {
            obj: 5,
            write: true,
        };
        por.foot.accesses.push((5, true));
        let demands = por.finish_transition(1);
        assert_eq!(demands.len(), 1);
        assert_eq!(demands[0].node, 4);
        assert_eq!(demands[0].thread, 1);
        // Thread 1 again: now ordered after its own write — no demand.
        por.cur_node = Some(8);
        por.foot.declared = Pending::Obj {
            obj: 5,
            write: false,
        };
        por.foot.accesses.push((5, false));
        assert!(por.finish_transition(1).is_empty());
    }

    #[test]
    fn wake_edge_orders_threads() {
        let mut por = PorRun::new();
        por.init_threads(2, 100);
        // Thread 0 writes object 9 and wakes thread 1.
        por.foot.declared = Pending::Obj {
            obj: 9,
            write: true,
        };
        por.foot.accesses.push((9, true));
        por.foot.woke.push(1);
        por.finish_transition(0);
        // Thread 1 now accesses object 9: ordered via the wake edge.
        por.foot.declared = Pending::Obj {
            obj: 9,
            write: true,
        };
        por.foot.accesses.push((9, true));
        assert!(por.finish_transition(1).is_empty());
    }

    /// The happens-before bookkeeping as it was before the flat layout: a
    /// heap `VectorClock` per thread and one cloned into every record,
    /// records in a map keyed by object id. `finish_transition` is that
    /// code kept verbatim as the oracle for
    /// `flat_layout_matches_reference`, except that the map is a
    /// `BTreeMap` where the original was a `HashMap`: a wildcard
    /// transition meets every recorded object, the order of those meets
    /// decides which of two ordered records still gets a demand, and
    /// `HashMap::values()` order is unspecified. Ascending id with the
    /// history pseudo-object last is the order the dense table has.
    mod reference {
        use std::collections::BTreeMap;

        use super::super::{bit, BacktrackDemand, Footprint, Pending, VectorClock, MARK_KEY};

        #[derive(Debug, Clone)]
        pub struct Rec {
            pub thread: usize,
            pub node: Option<usize>,
            pub clock: VectorClock,
        }

        #[derive(Debug, Default)]
        pub struct ObjRecords {
            pub last_write: Option<Rec>,
            pub reads: Vec<Rec>,
        }

        #[derive(Debug, Default)]
        pub struct PorRun {
            pub sleep: u64,
            pub clocks: Vec<VectorClock>,
            pub objects: BTreeMap<u32, ObjRecords>,
            pub last_wildcard: Option<Rec>,
            pub cur_node: Option<usize>,
            pub foot: Footprint,
            pub pending: Vec<Pending>,
        }

        impl PorRun {
            pub fn clock_mut(&mut self, t: usize) -> &mut VectorClock {
                if self.clocks.len() <= t {
                    self.clocks.resize(t + 1, VectorClock::new());
                }
                &mut self.clocks[t]
            }

            fn pending_of(&self, t: usize) -> Pending {
                self.pending.get(t).copied().unwrap_or(Pending::NoObj)
            }

            pub fn set_pending(&mut self, t: usize, p: Pending) {
                if self.pending.len() <= t {
                    self.pending.resize(t + 1, Pending::NoObj);
                }
                self.pending[t] = p;
            }

            pub fn finish_transition(&mut self, p: usize) -> Vec<BacktrackDemand> {
                let mut foot = std::mem::take(&mut self.foot);
                match foot.declared {
                    Pending::Obj { obj, write } => {
                        if !foot.accesses.iter().any(|&(o, _)| o == obj) {
                            foot.accesses.push((obj, write));
                        }
                    }
                    Pending::Unknown => foot.wildcard = true,
                    Pending::NoObj => {}
                }
                if foot.marks > 0 {
                    foot.accesses.push((MARK_KEY, true));
                }

                let mut demands = Vec::new();
                let mut clock = self.clock_mut(p).clone();

                let meet =
                    |rec: &Rec, clock: &mut VectorClock, demands: &mut Vec<BacktrackDemand>| {
                        if rec.thread != p && !clock.covers(rec.thread, rec.clock.get(rec.thread)) {
                            if let Some(node) = rec.node {
                                demands.push(BacktrackDemand { node, thread: p });
                            }
                        }
                        clock.join(&rec.clock);
                    };

                if let Some(rec) = &self.last_wildcard {
                    meet(rec, &mut clock, &mut demands);
                }
                if foot.wildcard {
                    for recs in self.objects.values() {
                        if let Some(rec) = &recs.last_write {
                            meet(rec, &mut clock, &mut demands);
                        }
                        for rec in &recs.reads {
                            meet(rec, &mut clock, &mut demands);
                        }
                    }
                }
                for &(o, w) in &foot.accesses {
                    if let Some(recs) = self.objects.get(&o) {
                        if let Some(rec) = &recs.last_write {
                            meet(rec, &mut clock, &mut demands);
                        }
                        if w {
                            for rec in &recs.reads {
                                meet(rec, &mut clock, &mut demands);
                            }
                        }
                    }
                }

                clock.tick(p);
                let rec = Rec {
                    thread: p,
                    node: self.cur_node,
                    clock: clock.clone(),
                };
                for &(o, w) in &foot.accesses {
                    let recs = self.objects.entry(o).or_default();
                    if w {
                        recs.reads.clear();
                        recs.last_write = Some(rec.clone());
                    } else {
                        recs.reads.retain(|r| r.thread != p);
                        recs.reads.push(rec.clone());
                    }
                }
                if foot.wildcard {
                    self.last_wildcard = Some(rec);
                }
                *self.clock_mut(p) = clock.clone();
                for &u in &foot.woke {
                    self.clock_mut(u).join(&clock);
                }

                let mut sleep = self.sleep;
                let mut t = 0;
                while sleep >> t != 0 {
                    if sleep & bit(t) != 0
                        && (foot.woke.contains(&t) || foot.conflicts(self.pending_of(t)))
                    {
                        sleep &= !bit(t);
                    }
                    t += 1;
                }
                self.sleep = sleep;
                self.cur_node = None;
                foot.clear();
                self.foot = foot;
                demands
            }
        }
    }

    use proptest::prelude::*;

    /// One transition as the scheduler would report it. Thread ids are
    /// reduced modulo the run's thread count when applied.
    #[derive(Debug, Clone)]
    struct Step {
        thread: usize,
        node: Option<usize>,
        accesses: Vec<(u32, bool)>,
        marks: u32,
        woke: Vec<usize>,
        yielded: bool,
        declared: Pending,
        /// Threads put to sleep before the transition ends.
        slept: u64,
        /// A pending declaration made before the transition ends.
        repend: (usize, Pending),
    }

    fn pending_strategy() -> BoxedStrategy<Pending> {
        let obj = |ids: BoxedStrategy<u32>| {
            (ids, any::<bool>()).prop_map(|(obj, write)| Pending::Obj { obj, write })
        };
        prop_oneof![
            Just(Pending::NoObj),
            Just(Pending::Unknown),
            obj((0u32..6).boxed()),
            obj((0u32..6).boxed()),
            obj((0u32..6).boxed()),
            // A primitive built outside the model declares the no-object
            // id, which shares a key with the history pseudo-object.
            obj(Just(MARK_KEY).boxed()),
        ]
    }

    fn step_strategy() -> BoxedStrategy<Step> {
        let what = (
            prop::collection::vec((0u32..6, any::<bool>()), 0..4),
            0u32..4,
            prop::collection::vec(0usize..5, 0..3),
            0u32..6,
            pending_strategy(),
        );
        let who = (
            0usize..5,
            0usize..16,
            any::<u64>(),
            (0usize..5, pending_strategy()),
        );
        (what, who)
            .prop_map(
                |((accesses, marks, woke, yielded, declared), (thread, node, slept, repend))| {
                    Step {
                        thread,
                        // A quarter of the transitions are forced or replayed.
                        node: (node % 4 != 0).then_some(node),
                        accesses,
                        // Half the transitions append to the history.
                        marks: marks.saturating_sub(1),
                        // Two thirds wake nobody.
                        woke: if woke.len() == 2 { woke } else { Vec::new() },
                        yielded: yielded == 0,
                        declared,
                        // Sparse: the AND of two draws would need a second
                        // word; a shifted self-AND is as good here.
                        slept: slept & (slept >> 7) & (slept >> 13),
                        repend,
                    }
                },
            )
            .boxed()
    }

    /// `(thread, node, clock)` of a record, for comparing the two models.
    type RecDump = (usize, Option<usize>, Vec<u64>);

    /// Every record the reference holds: `(object, last write, reads)`
    /// for each object with any, then the last wildcard.
    fn dump_reference(
        por: &reference::PorRun,
        n: usize,
    ) -> (Vec<(u32, Vec<RecDump>)>, Vec<RecDump>) {
        let dump =
            |r: &reference::Rec| (r.thread, r.node, (0..n).map(|t| r.clock.get(t)).collect());
        let objects = por
            .objects
            .iter()
            .map(|(&o, recs)| {
                (
                    o,
                    recs.last_write
                        .iter()
                        .chain(&recs.reads)
                        .map(dump)
                        .collect(),
                )
            })
            .filter(|(_, recs): &(u32, Vec<RecDump>)| !recs.is_empty())
            .collect();
        (objects, por.last_wildcard.iter().map(dump).collect())
    }

    fn dump_flat(por: &PorRun) -> (Vec<(u32, Vec<RecDump>)>, Vec<RecDump>) {
        let n = por.threads;
        let dump = |r: &Rec| {
            let clock = por.arena[r.at..r.at + n]
                .iter()
                .map(|&t| u64::from(t))
                .collect();
            (r.thread, r.node, clock)
        };
        let objects = por.objects[..por.used]
            .iter()
            .zip(0u32..)
            .chain([(&por.marks, MARK_KEY)])
            .map(|(recs, o)| {
                (
                    o,
                    recs.last_write
                        .iter()
                        .chain(&recs.reads)
                        .map(dump)
                        .collect(),
                )
            })
            .filter(|(_, recs): &(u32, Vec<RecDump>)| !recs.is_empty())
            .collect();
        (objects, por.last_wildcard.iter().map(dump).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat clock arena and dense record table compute, transition
        /// by transition, exactly what per-record `VectorClock` clones in
        /// a map did: the same demands in the same order, the same sleep
        /// set, the same happens-before answers, the same records. The
        /// second run checks that `reset` leaves nothing of the first.
        #[test]
        fn flat_layout_matches_reference(
            threads in 2usize..6,
            runs in prop::collection::vec(prop::collection::vec(step_strategy(), 1..48), 1..3),
        ) {
            let everyone = bit(threads) - 1;
            let mut flat = PorRun::new();
            for steps in &runs {
                flat.reset();
                flat.init_threads(threads, steps.len());
                prop_assert!(flat.arena.is_empty(), "reset empties the arena");
                let mut old = reference::PorRun::default();
                for step in steps {
                    let p = step.thread % threads;
                    let (who, what) = (step.repend.0 % threads, step.repend.1);
                    flat.set_pending(who, what);
                    old.set_pending(who, what);
                    flat.sleep |= step.slept & everyone;
                    old.sleep |= step.slept & everyone;
                    flat.cur_node = step.node;
                    old.cur_node = step.node;
                    flat.foot.declared = step.declared;
                    old.foot.declared = step.declared;
                    flat.foot.accesses.extend_from_slice(&step.accesses);
                    old.foot.accesses.extend_from_slice(&step.accesses);
                    flat.foot.marks = step.marks;
                    old.foot.marks = step.marks;
                    flat.foot.wildcard = step.yielded;
                    old.foot.wildcard = step.yielded;
                    for &u in &step.woke {
                        flat.note_wake(u % threads);
                        old.foot.woke.push(u % threads);
                    }

                    // A transition that touches nothing leaves no record and
                    // so no snapshot; any other leaves exactly one.
                    let silent = step.accesses.is_empty()
                        && step.marks == 0
                        && !step.yielded
                        && step.declared == Pending::NoObj;
                    let snapshots = flat.arena.len() / threads + usize::from(!silent);

                    let want: Vec<_> =
                        old.finish_transition(p).iter().map(|d| (d.node, d.thread)).collect();
                    let got: Vec<_> =
                        flat.finish_transition(p).iter().map(|d| (d.node, d.thread)).collect();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(flat.sleep, old.sleep);
                    prop_assert_eq!(flat.arena.len(), snapshots * threads);
                    // Every epoch a record can carry is `(t, k)` for `k`
                    // up to `t`'s own transition count.
                    for u in 0..threads {
                        for t in 0..threads {
                            for time in 0..=old.clock_mut(t).get(t) + 1 {
                                let covers = u64::from(flat.clocks[u * threads + t]) >= time;
                                prop_assert_eq!(covers, old.clock_mut(u).covers(t, time));
                            }
                        }
                    }
                    prop_assert_eq!(dump_flat(&flat), dump_reference(&old, threads));
                }
            }
        }
    }
}
