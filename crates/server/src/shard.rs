//! Per-object monitoring shards with exact windowed history GC.
//!
//! A [`Shard`] owns one monitored object's history and verdict. Events
//! append to the current *window* (a [`History`]); when the window is
//! both large enough and *quiescent* (no pending calls), the shard tries
//! to close it: check the window against the ideal oracle started from
//! the carried state, compute the window's end state, carry that state
//! into the next window, and drop the checked events. Memory per object
//! is then bounded by the window size plus the carried element sequence,
//! no matter how long the stream runs.
//!
//! # Why windowed verdicts equal offline verdicts
//!
//! Cutting at a quiescent point is sound: with no pending calls, every
//! operation of the window precedes (`<H`) every later operation, so any
//! linearization of the whole history linearizes the window as a prefix.
//! The subtle part is the *state* handed to the next window — it must be
//! the same for **every** linearization of the window, or the shard
//! would commit to one witness where the offline checker may pick
//! another. The shard therefore closes a window only when that end state
//! is provably unique:
//!
//! * **Queue/Stack** — responses name each removed value, so the
//!   surviving multiset is determined; the close rule additionally
//!   requires (a) all values across carried state and window inserts to
//!   be pairwise distinct (removal identity is then unambiguous) and
//!   (b) the surviving insert operations to be pairwise `<H`-ordered
//!   (their relative order is then forced). Survivors of the carried
//!   state keep their order and precede survivors of the window.
//! * **Set** — membership is per-key: successful adds and removes of a
//!   key must alternate in any witness, so the final presence is the
//!   initial presence XOR the parity of successful toggles. Always
//!   closable at quiescence. Keys are also independent for the *check*
//!   (P-compositionality): a window of keyed ops (`TryAdd`, `TryRemove`,
//!   `ContainsKey`, one int key each) observes only the keys it touches,
//!   so it is checked from `carried ∩ touched keys`, not the whole
//!   carried set. `Count` reads every key, so a window holding one (or
//!   any op outside that alphabet) starts from the full carried state.
//! * **Priority queue** — the state is a multiset, so it is simply
//!   `carried ⊎ inserts − extracted`, order-free. Always closable.
//!
//! A quiescent point that fails the rule (duplicate values in flight,
//! concurrent surviving inserts) is *held*: the window keeps growing
//! until a closable point or the end of the object. Held windows are
//! counted so the pressure is observable in the stats. The queue/stack
//! rule is kept as a running tally that each attempt extends by the
//! operations completed since the last one, so holding a window costs
//! O(new ops) per attempt, not a rescan of the whole window.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use lineup::{AdtKind, History, HistoryCache, Invocation, KeyWriter, MonitorPathStats, Value};
use lineup_monitor::{ideal_oracle_from, state_invocations, Monitor};

/// Tuning knobs for a [`Shard`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Minimum completed operations before a quiescent point may close
    /// the window. Larger windows amortize per-check setup; smaller
    /// windows bound memory tighter.
    pub window_target: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { window_target: 512 }
    }
}

/// A malformed event sequence (a producer bug, not a linearizability
/// violation): the event is dropped and counted, the object keeps going.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Thread index at or above the registered thread count.
    UnknownThread(u32),
    /// A call from a thread whose previous call has not returned.
    DoubleCall(u32),
    /// A return from a thread with no open call.
    ReturnWithoutCall(u32),
    /// An event after the object's `ObjectEnd`.
    Ended,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::UnknownThread(t) => write!(f, "thread {t} outside registered range"),
            ShardError::DoubleCall(t) => write!(f, "thread {t} called again before returning"),
            ShardError::ReturnWithoutCall(t) => write!(f, "thread {t} returned without a call"),
            ShardError::Ended => write!(f, "event after ObjectEnd"),
        }
    }
}

impl Error for ShardError {}

/// Monotonic per-shard counters, folded into the service totals when the
/// object ends.
#[derive(Debug, Clone, Default)]
pub struct ShardCounters {
    /// Call + return events ingested.
    pub events: u64,
    /// Completed operations ingested.
    pub ops: u64,
    /// Windows checked and discarded (includes the final segment).
    pub windows_closed: u64,
    /// Windows discarded *unchecked*: the object has no ADT kind, or a
    /// violation was already flagged.
    pub windows_retired: u64,
    /// Quiescent close attempts deferred by the exactness rule.
    pub windows_held: u64,
    /// Monitor checks run (full + stuck).
    pub checks: u64,
    /// Stuck checks among them (one per pending op of a stuck end).
    pub stuck_checks: u64,
    /// Windows rejected by the monitor.
    pub violations: u64,
    /// Objects ended with pending calls but not marked stuck: nothing to
    /// check, the truncated tail is discarded.
    pub incomplete: u64,
    /// Largest window (in operations) ever buffered.
    pub peak_window_ops: usize,
    /// Specialized-vs-fallback histogram aggregated over all checks.
    pub paths: MonitorPathStats,
    /// Oracle steps spent in fallback searches.
    pub oracle_steps: u64,
    /// Memoization hits in fallback searches.
    pub memo_hits: u64,
    /// Window verdicts served from the shared cross-object verdict
    /// cache, skipping the monitor entirely.
    pub verdict_cache_hits: u64,
}

impl ShardCounters {
    /// Folds `other` into `self` (saturating).
    pub fn absorb(&mut self, other: &ShardCounters) {
        self.events = self.events.saturating_add(other.events);
        self.ops = self.ops.saturating_add(other.ops);
        self.windows_closed = self.windows_closed.saturating_add(other.windows_closed);
        self.windows_retired = self.windows_retired.saturating_add(other.windows_retired);
        self.windows_held = self.windows_held.saturating_add(other.windows_held);
        self.checks = self.checks.saturating_add(other.checks);
        self.stuck_checks = self.stuck_checks.saturating_add(other.stuck_checks);
        self.violations = self.violations.saturating_add(other.violations);
        self.incomplete = self.incomplete.saturating_add(other.incomplete);
        self.peak_window_ops = self.peak_window_ops.max(other.peak_window_ops);
        self.paths.merge(&other.paths);
        self.oracle_steps = self.oracle_steps.saturating_add(other.oracle_steps);
        self.memo_hits = self.memo_hits.saturating_add(other.memo_hits);
        self.verdict_cache_hits = self
            .verdict_cache_hits
            .saturating_add(other.verdict_cache_hits);
    }
}

/// One monitored object: its open window, carried state, and verdict.
#[derive(Debug)]
pub struct Shard {
    kind: Option<AdtKind>,
    threads: usize,
    window_target: usize,
    history: History,
    /// Per-thread open call: the op index awaiting its return.
    open: Vec<Option<usize>>,
    pending: usize,
    completed: usize,
    /// Ideal element sequence at the start of the current window.
    carried: Vec<i64>,
    violated: bool,
    done: bool,
    /// Shared cross-object verdict cache — identical windows over
    /// identical carried state re-use each other's monitor verdict — and
    /// the open window's key, appended to as events arrive. `None` when
    /// no window of this shard will be checked again: no cache attached,
    /// no ADT kind, or a violation already flagged.
    verdicts: Option<(Arc<HistoryCache<bool>>, KeyWriter)>,
    /// The open queue/stack window's end-state rule, folded so far.
    tally: SeqTally,
    /// Counters for this object (current generation).
    pub counters: ShardCounters,
}

impl Shard {
    /// A fresh shard for an object with `threads` client threads.
    pub fn new(kind: Option<AdtKind>, threads: u32, config: &ShardConfig) -> Self {
        let threads = (threads as usize).max(1);
        Shard {
            kind,
            threads,
            window_target: config.window_target.max(1),
            history: History::new(threads),
            open: vec![None; threads],
            pending: 0,
            completed: 0,
            carried: Vec::new(),
            violated: false,
            done: false,
            verdicts: None,
            tally: SeqTally::default(),
            counters: ShardCounters::default(),
        }
    }

    /// Attaches a shared verdict cache. Windows whose (kind, carried
    /// state, events, stuck flag) match a previously checked window —
    /// on this object or any other — are resolved without monitor work.
    pub fn with_verdict_cache(mut self, cache: Arc<HistoryCache<bool>>) -> Self {
        if let Some(kind) = self.kind {
            let mut key = cache.writer();
            key.begin_window(kind, self.threads, &self.carried);
            self.verdicts = Some((cache, key));
        }
        self
    }

    /// The object's registered ADT kind.
    pub fn kind(&self) -> Option<AdtKind> {
        self.kind
    }

    /// Whether a linearizability violation has been flagged.
    pub fn violated(&self) -> bool {
        self.violated
    }

    /// Whether the object has ended.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Operations currently buffered in the open window.
    pub fn window_ops(&self) -> usize {
        self.history.ops.len()
    }

    /// Ingests a call event.
    pub fn call(&mut self, thread: u32, name: &str, args: Vec<Value>) -> Result<(), ShardError> {
        if self.done {
            return Err(ShardError::Ended);
        }
        let t = thread as usize;
        if t >= self.threads {
            return Err(ShardError::UnknownThread(thread));
        }
        if self.open[t].is_some() {
            return Err(ShardError::DoubleCall(thread));
        }
        if let Some((_, key)) = &mut self.verdicts {
            key.call(t, name, &args);
        }
        let inv = Invocation {
            name: name.to_string(),
            args,
        };
        self.open[t] = Some(self.history.push_call(t, inv));
        self.pending += 1;
        self.counters.events += 1;
        self.counters.peak_window_ops = self.counters.peak_window_ops.max(self.history.ops.len());
        Ok(())
    }

    /// Ingests a return event; may close the current window.
    pub fn ret(&mut self, thread: u32, value: Value) -> Result<(), ShardError> {
        if self.done {
            return Err(ShardError::Ended);
        }
        let t = thread as usize;
        if t >= self.threads {
            return Err(ShardError::UnknownThread(thread));
        }
        let op = self.open[t]
            .take()
            .ok_or(ShardError::ReturnWithoutCall(thread))?;
        if let Some((_, key)) = &mut self.verdicts {
            key.ret(op, &value);
        }
        self.history.push_return(op, value);
        self.pending -= 1;
        self.completed += 1;
        self.counters.events += 1;
        self.counters.ops += 1;
        if self.pending == 0 && self.completed >= self.window_target {
            self.close_window(false);
        }
        Ok(())
    }

    /// Ends the object: checks the final segment (as stuck when the
    /// producer says so) and releases its memory. Idempotent.
    pub fn end(&mut self, stuck: bool) {
        if self.done {
            return;
        }
        self.done = true;
        if self.pending == 0 {
            self.close_window(true);
        } else if stuck {
            self.end_stuck();
        } else {
            // Truncated mid-operation but not deadlocked (producer went
            // away): there is no verdict to extract from the tail.
            self.counters.incomplete += 1;
        }
        self.history = History::new(self.threads);
        self.open.iter_mut().for_each(|o| *o = None);
        self.pending = 0;
        self.completed = 0;
        self.carried = Vec::new();
        self.verdicts = None;
        self.tally = SeqTally::default();
    }

    /// Closes the current window if allowed. `at_end` forces the check
    /// (no next window, so no end state is needed).
    fn close_window(&mut self, at_end: bool) {
        debug_assert_eq!(self.pending, 0);
        if self.history.ops.is_empty() {
            return;
        }
        let kind = match self.kind {
            Some(kind) if !self.violated => kind,
            // Kind-less objects are accounting-only; violated objects
            // already carry their verdict: both just shed memory.
            _ => {
                self.counters.windows_retired += 1;
                self.reset_window();
                return;
            }
        };
        // The last window hands no state on.
        let next_state = if at_end {
            None
        } else {
            self.window_end_state(kind)
        };
        if next_state.is_none() && !at_end {
            self.counters.windows_held += 1;
            return;
        }
        let ok = self.check_window(kind);
        self.counters.windows_closed += 1;
        if !ok {
            self.flag_violation();
        }
        if !at_end {
            if let (true, Some(state)) = (ok, next_state) {
                self.carried = state;
            }
            self.reset_window();
        }
    }

    /// Checks the final segment of a stuck object: the complete part
    /// must linearize and the oracle must then block on each pending
    /// call. Ideal oracles never block, so a watchdog-stuck object of a
    /// declared kind is always a violation — matching the offline
    /// monitor's verdict against the same oracle.
    fn end_stuck(&mut self) {
        self.history.stuck = true;
        let kind = match self.kind {
            Some(kind) if !self.violated => kind,
            _ => {
                self.counters.windows_retired += 1;
                return;
            }
        };
        let ok = self.cached_verdict(|shard| {
            let monitor = shard.window_monitor(kind);
            let mut ok = true;
            for e in shard.history.pending_ops() {
                shard.counters.checks += 1;
                shard.counters.stuck_checks += 1;
                if !monitor.check_stuck(&shard.history, e, &[]) {
                    ok = false;
                    break;
                }
            }
            shard.absorb_monitor_stats(&monitor);
            ok
        });
        self.counters.windows_closed += 1;
        if !ok {
            self.flag_violation();
        }
    }

    fn flag_violation(&mut self) {
        self.violated = true;
        self.counters.violations += 1;
        // Later windows are retired unchecked: stop keying them.
        self.verdicts = None;
    }

    /// The monitor for the open window: the ideal oracle and the
    /// specialized checkers' init sequence, both started from
    /// [`window_start_state`](Self::window_start_state).
    fn window_monitor(
        &self,
        kind: AdtKind,
    ) -> Monitor<lineup_monitor::FnOracle<Vec<i64>, lineup_monitor::IdealStep>> {
        let start = self.window_start_state(kind);
        let init = state_invocations(kind, &start);
        Monitor::new(ideal_oracle_from(kind, start))
            .with_adt_kind(kind)
            .with_adt_init(init)
    }

    /// The state the open window is checked from. A set window whose ops
    /// are all keyed (`TryAdd` / `TryRemove` / `ContainsKey` with one int
    /// key) never observes an untouched key, and an untouched key can
    /// neither fail nor fall back, so the window starts from the carried
    /// keys it touches; verdicts and monitor counters are those of the
    /// full carried state. Any other window — every other kind, a set
    /// window holding `Count`, an unknown op or a malformed argument —
    /// starts from all of `carried`.
    fn window_start_state(&self, kind: AdtKind) -> Vec<i64> {
        if kind != AdtKind::Set {
            return self.carried.clone();
        }
        let mut touched = Vec::new();
        for op in &self.history.ops {
            let inv = &op.invocation;
            let key = match (inv.name.as_str(), inv.args.as_slice()) {
                ("TryAdd" | "TryRemove" | "ContainsKey", [Value::Int(k)]) => *k,
                _ => return self.carried.clone(),
            };
            if self.carried.binary_search(&key).is_ok() {
                touched.push(key);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    fn check_window(&mut self, kind: AdtKind) -> bool {
        self.cached_verdict(|shard| {
            let monitor = shard.window_monitor(kind);
            shard.counters.checks += 1;
            let ok = monitor.check_full(&shard.history, &[]);
            shard.absorb_monitor_stats(&monitor);
            ok
        })
    }

    /// The open window's verdict: from the shared cache when its key is
    /// there, else from `check`, whose verdict is then cached. The key —
    /// header (kind, thread count, carried state) written when the window
    /// opened, one entry per event since, the stuck flag now — is sealed
    /// here, probed once, and on a miss moved into the cache.
    fn cached_verdict(&mut self, check: impl FnOnce(&mut Self) -> bool) -> bool {
        let Some((cache, writer)) = &mut self.verdicts else {
            return check(self);
        };
        let key = writer.seal(self.history.stuck);
        if let Some(verdict) = cache.get_key(&key) {
            writer.recycle(key);
            self.counters.verdict_cache_hits += 1;
            return verdict;
        }
        let ok = check(self);
        if let Some((cache, _)) = &self.verdicts {
            cache.insert_key_if_absent(key, ok);
        }
        ok
    }

    fn absorb_monitor_stats(
        &mut self,
        monitor: &Monitor<lineup_monitor::FnOracle<Vec<i64>, lineup_monitor::IdealStep>>,
    ) {
        let stats = monitor.stats();
        let c = &mut self.counters;
        c.paths.merge(&stats.paths);
        c.oracle_steps = c.oracle_steps.saturating_add(stats.oracle_steps);
        c.memo_hits = c.memo_hits.saturating_add(stats.memo_hits);
    }

    fn reset_window(&mut self) {
        self.history = History::new(self.threads);
        self.completed = 0;
        self.tally.clear();
        // pending == 0 at every close point, so `open` is already clear.
        if let (Some(kind), Some((_, key))) = (self.kind, &mut self.verdicts) {
            key.begin_window(kind, self.threads, &self.carried);
        }
    }

    /// The unique end state of the current (complete) window, or `None`
    /// when it is not provably unique — the window is then held open.
    /// Exactness argument in the module docs; when the window is not
    /// linearizable the returned state is unused (the shard flags the
    /// violation instead).
    fn window_end_state(&mut self, kind: AdtKind) -> Option<Vec<i64>> {
        let (ins, rem) = match kind {
            AdtKind::Queue => ("Enqueue", "TryDequeue"),
            AdtKind::Stack => ("Push", "TryPop"),
            AdtKind::Set => return self.set_end_state(),
            AdtKind::PriorityQueue => return self.pqueue_end_state(),
        };
        self.tally.fold(&self.carried, &self.history, ins, rem);
        self.tally.end_state(&self.carried)
    }

    /// Set path: final presence of a key = initial presence XOR parity
    /// of successful toggles (successful adds/removes of a key must
    /// alternate in any witness). Only keys with odd toggle parity are
    /// looked up in `carried`, and the sorted result is rebuilt in linear
    /// time.
    fn set_end_state(&self) -> Option<Vec<i64>> {
        let mut toggles: Vec<i64> = Vec::new();
        for op in &self.history.ops {
            match op.invocation.name.as_str() {
                "TryAdd" => {
                    let key = int_arg(op.invocation.args.first())?;
                    match op.response.as_ref()? {
                        Value::Bool(true) => toggles.push(key),
                        Value::Bool(false) => {}
                        _ => return None,
                    }
                }
                "TryRemove" => {
                    let key = int_arg(op.invocation.args.first())?;
                    match op.response.as_ref()? {
                        Value::Opt(Some(_)) => toggles.push(key),
                        Value::Fail => {}
                        _ => return None,
                    }
                }
                // Read-only queries never move the state.
                "ContainsKey" | "Count" => {}
                _ => return None,
            }
        }
        toggles.sort_unstable();
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        for run in toggles.chunk_by(|a, b| a == b) {
            if run.len() % 2 == 1 {
                let key = run[0];
                if self.carried.binary_search(&key).is_ok() {
                    removed.push(key);
                } else {
                    added.push(key);
                }
            }
        }
        // `removed` is a sorted subset of the sorted `carried`: one walk
        // drops it. `added` is a second sorted run, which the stable
        // sort merges in one linear pass.
        let mut state = self.carried.clone();
        let mut gone = removed.into_iter().peekable();
        state.retain(|&v| gone.next_if_eq(&v).is_none());
        state.extend(added);
        state.sort();
        Some(state)
    }

    /// Priority-queue path: the state is a multiset, so the end state is
    /// `carried ⊎ inserts − extracted` regardless of linearization.
    fn pqueue_end_state(&self) -> Option<Vec<i64>> {
        let mut counts: BTreeMap<i64, i64> = BTreeMap::new();
        for &v in &self.carried {
            *counts.entry(v).or_insert(0) += 1;
        }
        // Two passes: an extract can precede its matching insert in
        // *call order* (the two overlap and the insert linearizes
        // first), so all inserts must be counted before any removal is
        // subtracted.
        let mut extracted: Vec<i64> = Vec::new();
        for op in &self.history.ops {
            match op.invocation.name.as_str() {
                "Insert" => {
                    *counts
                        .entry(int_arg(op.invocation.args.first())?)
                        .or_insert(0) += 1;
                }
                "ExtractMin" => match op.response.as_ref()? {
                    Value::Opt(Some(b)) => match **b {
                        Value::Int(v) => extracted.push(v),
                        _ => return None,
                    },
                    Value::Fail => {}
                    _ => return None,
                },
                _ => return None,
            }
        }
        for v in extracted {
            // Saturating at zero: a genuine deficit means the window is
            // not linearizable, so the check fails and the state is
            // never used.
            let c = counts.entry(v).or_insert(0);
            *c = (*c - 1).max(0);
        }
        let mut state = Vec::new();
        for (v, c) in counts {
            for _ in 0..c {
                state.push(v);
            }
        }
        Some(state)
    }
}

fn int_arg(arg: Option<&Value>) -> Option<i64> {
    match arg {
        Some(Value::Int(v)) => Some(*v),
        _ => None,
    }
}

/// Where one value stands in the open queue/stack window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Carried into the window and not removed by it.
    Carried,
    /// Carried into the window and removed by it.
    CarriedRemoved,
    /// Inserted by this operation and not removed.
    Survivor(usize),
    /// Inserted and removed within the window.
    InsertedRemoved,
    /// Removed by an operation called before its insert (the two
    /// overlap); the insert has not been folded yet.
    RemovedBeforeInsert,
}

/// No survivor: the end of the survivor list.
const NIL: usize = usize::MAX;

/// One surviving insert in the survivor list.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    prev: usize,
    next: usize,
    value: i64,
}

/// The open queue/stack window's end-state rule, folded op by op.
///
/// Each close attempt folds only the operations completed since the
/// last one, in call order (every op is complete at a quiescent point),
/// so a window held across many quiescent points costs O(ops) in all
/// instead of one rescan per attempt. The rule is the module docs' one:
/// the window is closable iff every value across the carried state and
/// the window's inserts is distinct and the surviving inserts are
/// pairwise `<H`-ordered. Interval orders are transitive, so the second
/// half reduces to the *adjacent* survivors in call order, which the
/// tally keeps as an intrusive list with a count of unordered adjacent
/// pairs. The buffers are cleared, not dropped, between windows.
#[derive(Debug, Default)]
struct SeqTally {
    /// Operations of the window folded so far (a call-order prefix).
    folded: usize,
    /// Every value the carried state or the window has mentioned.
    slots: HashMap<i64, Slot>,
    /// Survivor links, indexed by operation (read for survivors only).
    links: Vec<Link>,
    head: usize,
    tail: usize,
    /// Adjacent survivor pairs not ordered by `<H`.
    unordered: usize,
    /// An unknown op, a malformed argument or response, or a duplicate
    /// value: each stays in the window as it grows, so the window can
    /// no longer close before the object ends.
    poisoned: bool,
    /// Operations folded since the shard started, for tests.
    #[cfg(test)]
    folds: usize,
}

impl SeqTally {
    /// Forgets the window, keeping the buffers' capacity; the next fold
    /// starts a new one.
    fn clear(&mut self) {
        self.folded = 0;
        self.slots.clear();
        self.links.clear();
    }

    /// Folds the operations of `h` not folded yet; the first fold of a
    /// window starts it from the carried values. Inserts are named `ins`
    /// and removes `rem`.
    fn fold(&mut self, carried: &[i64], h: &History, ins: &str, rem: &str) {
        if self.folded == 0 {
            (self.head, self.tail, self.unordered) = (NIL, NIL, 0);
            self.poisoned = false;
            for &v in carried {
                if self.slots.insert(v, Slot::Carried).is_some() {
                    self.poisoned = true;
                }
            }
        }
        let start = std::mem::replace(&mut self.folded, h.ops.len());
        if self.poisoned {
            return;
        }
        self.links.resize(h.ops.len(), Link::default());
        for i in start..h.ops.len() {
            #[cfg(test)]
            {
                self.folds += 1;
            }
            if self.fold_op(h, i, ins, rem).is_none() {
                self.poisoned = true;
                return;
            }
        }
    }

    /// Folds operation `i`; `None` when it poisons the window.
    fn fold_op(&mut self, h: &History, i: usize, ins: &str, rem: &str) -> Option<()> {
        let op = &h.ops[i];
        let name = op.invocation.name.as_str();
        if name == ins {
            let v = int_arg(op.invocation.args.first())?;
            let slot = self.slots.entry(v).or_insert(Slot::Survivor(i));
            match *slot {
                Slot::Survivor(s) if s == i => self.push_survivor(h, i, v),
                Slot::RemovedBeforeInsert => *slot = Slot::InsertedRemoved,
                // A duplicate value.
                _ => return None,
            }
        } else if name == rem {
            let v = match op.response.as_ref()? {
                Value::Opt(Some(b)) => match **b {
                    Value::Int(v) => v,
                    _ => return None,
                },
                Value::Fail => return Some(()),
                _ => return None,
            };
            let slot = self.slots.entry(v).or_insert(Slot::RemovedBeforeInsert);
            match *slot {
                Slot::Carried => *slot = Slot::CarriedRemoved,
                Slot::Survivor(s) => {
                    *slot = Slot::InsertedRemoved;
                    self.unlink(h, s);
                }
                _ => {}
            }
        } else {
            // Unknown operation: no state function. The check still
            // runs at object end and rejects it.
            return None;
        }
        Some(())
    }

    /// Appends survivor `i` (the latest in call order) to the list.
    fn push_survivor(&mut self, h: &History, i: usize, value: i64) {
        let prev = self.tail;
        self.links[i] = Link {
            prev,
            next: NIL,
            value,
        };
        if prev == NIL {
            self.head = i;
        } else {
            self.links[prev].next = i;
            self.unordered += usize::from(!h.precedes(prev, i));
        }
        self.tail = i;
    }

    /// Drops survivor `i` from the list, re-pairing its neighbours.
    fn unlink(&mut self, h: &History, i: usize) {
        let Link { prev, next, .. } = self.links[i];
        let unordered = |a: usize, b: usize| usize::from(a != NIL && b != NIL && !h.precedes(a, b));
        self.unordered =
            self.unordered + unordered(prev, next) - unordered(prev, i) - unordered(i, next);
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next].prev = prev;
        }
    }

    /// The window's unique end state as folded so far: the carried
    /// values not removed, in order, then the survivors in call order;
    /// `None` when the window is not closable.
    fn end_state(&self, carried: &[i64]) -> Option<Vec<i64>> {
        if self.poisoned || self.unordered > 0 {
            return None;
        }
        let mut state: Vec<i64> = carried
            .iter()
            .copied()
            .filter(|v| self.slots.get(v) == Some(&Slot::Carried))
            .collect();
        let mut i = self.head;
        while i != NIL {
            state.push(self.links[i].value);
            i = self.links[i].next;
        }
        Some(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineup_monitor::ideal_oracle;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// Streams a recorded history's events into a shard.
    fn feed(shard: &mut Shard, h: &History) {
        for ev in &h.events {
            match *ev {
                lineup::Event::Call(i) => {
                    let op = &h.ops[i];
                    shard
                        .call(
                            op.thread as u32,
                            &op.invocation.name,
                            op.invocation.args.clone(),
                        )
                        .unwrap();
                }
                lineup::Event::Return(i) => {
                    let op = &h.ops[i];
                    shard
                        .ret(op.thread as u32, op.response.clone().unwrap())
                        .unwrap();
                }
            }
        }
    }

    fn serial_history(script: &[(&str, i64, Value)]) -> History {
        let mut h = History::new(1);
        for (name, arg, resp) in script {
            let id = h.push_call(0, Invocation::with_int(*name, *arg));
            h.push_return(id, resp.clone());
        }
        h
    }

    #[test]
    fn serial_queue_stream_closes_windows_and_passes() {
        let mut shard = Shard::new(Some(AdtKind::Queue), 1, &ShardConfig { window_target: 4 });
        let mut script = Vec::new();
        for i in 0..32 {
            script.push(("Enqueue", i, Value::Unit));
        }
        for i in 0..32 {
            script.push(("TryDequeue", 0, Value::some(Value::int(i))));
        }
        feed(&mut shard, &serial_history(&script));
        shard.end(false);
        assert!(!shard.violated());
        assert!(shard.counters.windows_closed >= 2, "GC never ran");
        assert_eq!(shard.counters.violations, 0);
    }

    #[test]
    fn fifo_violation_is_caught_across_windows() {
        let mut shard = Shard::new(Some(AdtKind::Queue), 1, &ShardConfig { window_target: 4 });
        let mut script = Vec::new();
        for i in 0..8 {
            script.push(("Enqueue", i, Value::Unit));
        }
        // Dequeues in LIFO order: the offending op sits several closed
        // windows after the enqueues, so only the carried state can
        // convict it.
        for i in (0..8).rev() {
            script.push(("TryDequeue", 0, Value::some(Value::int(i))));
        }
        feed(&mut shard, &serial_history(&script));
        shard.end(false);
        assert!(shard.violated());
    }

    #[test]
    fn duplicate_values_hold_the_window_open() {
        let mut shard = Shard::new(Some(AdtKind::Stack), 1, &ShardConfig { window_target: 2 });
        let script = vec![
            ("Push", 5, Value::Unit),
            ("Push", 5, Value::Unit),
            ("TryPop", 0, Value::some(Value::int(5))),
            ("Push", 5, Value::Unit),
        ];
        feed(&mut shard, &serial_history(&script));
        assert!(shard.counters.windows_held > 0, "expected held windows");
        assert_eq!(shard.counters.windows_closed, 0);
        shard.end(false);
        assert!(!shard.violated());
        assert_eq!(shard.counters.windows_closed, 1);
    }

    #[test]
    fn overlapping_extract_before_insert_leaves_no_phantom_element() {
        // The extract *calls* before the insert it matches, so in call
        // order the removal precedes the addition. The window end state
        // is still the empty multiset; a phantom carried element would
        // falsely convict the trailing failed extract.
        let mut shard = Shard::new(
            Some(AdtKind::PriorityQueue),
            2,
            &ShardConfig { window_target: 1 },
        );
        shard.call(0, "ExtractMin", vec![]).unwrap();
        shard.call(1, "Insert", vec![Value::Int(29)]).unwrap();
        shard.ret(1, Value::Unit).unwrap();
        shard.ret(0, Value::some(Value::int(29))).unwrap();
        shard.call(0, "ExtractMin", vec![]).unwrap();
        shard.ret(0, Value::Fail).unwrap();
        shard.end(false);
        assert!(!shard.violated(), "phantom carried element");
        assert!(shard.counters.windows_closed >= 2);
    }

    #[test]
    fn kindless_objects_are_accounting_only() {
        let mut shard = Shard::new(None, 2, &ShardConfig { window_target: 2 });
        shard.call(0, "Whatever", vec![]).unwrap();
        shard.ret(0, Value::Unit).unwrap();
        shard.call(1, "Other", vec![]).unwrap();
        shard.ret(1, Value::Fail).unwrap();
        shard.end(false);
        assert!(!shard.violated());
        assert_eq!(shard.counters.ops, 2);
        assert_eq!(shard.counters.checks, 0);
        assert!(shard.counters.windows_retired > 0);
    }

    #[test]
    fn stuck_end_of_a_kinded_object_is_a_violation() {
        let mut shard = Shard::new(Some(AdtKind::Queue), 2, &ShardConfig::default());
        shard.call(0, "Enqueue", vec![Value::Int(1)]).unwrap();
        shard.ret(0, Value::Unit).unwrap();
        shard.call(1, "TryDequeue", vec![]).unwrap();
        shard.end(true);
        assert!(shard.violated(), "ideal oracles never block");
        assert_eq!(shard.counters.stuck_checks, 1);
    }

    #[test]
    fn incomplete_end_is_not_a_violation() {
        let mut shard = Shard::new(Some(AdtKind::Queue), 1, &ShardConfig::default());
        shard.call(0, "Enqueue", vec![Value::Int(1)]).unwrap();
        shard.end(false);
        assert!(!shard.violated());
        assert_eq!(shard.counters.incomplete, 1);
    }

    #[test]
    fn malformed_events_are_rejected_without_poisoning() {
        let mut shard = Shard::new(Some(AdtKind::Set), 1, &ShardConfig::default());
        assert_eq!(
            shard.ret(0, Value::Unit),
            Err(ShardError::ReturnWithoutCall(0))
        );
        assert_eq!(
            shard.call(7, "TryAdd", vec![Value::Int(1)]),
            Err(ShardError::UnknownThread(7))
        );
        shard.call(0, "TryAdd", vec![Value::Int(1)]).unwrap();
        assert_eq!(
            shard.call(0, "TryAdd", vec![Value::Int(2)]),
            Err(ShardError::DoubleCall(0))
        );
        shard.ret(0, Value::Bool(true)).unwrap();
        shard.end(false);
        assert!(!shard.violated());
        assert_eq!(shard.call(0, "TryAdd", vec![]), Err(ShardError::Ended));
    }

    #[test]
    fn shared_verdict_cache_skips_repeat_windows() {
        let cache = Arc::new(HistoryCache::new(4));
        let mut script = Vec::new();
        for i in 0..8 {
            script.push(("Enqueue", i, Value::Unit));
        }
        for i in 0..8 {
            script.push(("TryDequeue", 0, Value::some(Value::int(i))));
        }
        let h = serial_history(&script);
        let run = |cache: Arc<HistoryCache<bool>>| {
            let mut shard = Shard::new(Some(AdtKind::Queue), 1, &ShardConfig { window_target: 4 })
                .with_verdict_cache(cache);
            feed(&mut shard, &h);
            shard.end(false);
            assert!(!shard.violated());
            shard.counters.clone()
        };
        let first = run(cache.clone());
        assert_eq!(first.verdict_cache_hits, 0);
        assert!(first.checks > 0);
        // Same stream on a second object: every window verdict is
        // served from the shared cache, no monitor work at all.
        let second = run(cache.clone());
        assert_eq!(second.verdict_cache_hits, first.windows_closed);
        assert_eq!(second.checks, 0);
        assert_eq!(second.windows_closed, first.windows_closed);
        assert!(cache.hits() >= second.verdict_cache_hits);
    }

    #[test]
    fn verdict_cache_key_separates_kind_and_carried_state() {
        // A dequeue of 3 is fine after Enqueue(3) carried in, a
        // violation on a fresh queue: the key must not collide.
        let cache = Arc::new(HistoryCache::new(1));
        let mut good = Shard::new(Some(AdtKind::Queue), 1, &ShardConfig { window_target: 1 })
            .with_verdict_cache(cache.clone());
        feed(
            &mut good,
            &serial_history(&[
                ("Enqueue", 3, Value::Unit),
                ("TryDequeue", 0, Value::some(Value::int(3))),
            ]),
        );
        good.end(false);
        assert!(!good.violated());
        let mut bad = Shard::new(Some(AdtKind::Queue), 1, &ShardConfig { window_target: 1 })
            .with_verdict_cache(cache.clone());
        feed(
            &mut bad,
            &serial_history(&[("TryDequeue", 0, Value::some(Value::int(3)))]),
        );
        bad.end(false);
        assert!(bad.violated(), "cache key collided across carried states");
    }

    /// Streams `h` into a fresh cached shard and ends it; returns the
    /// shard's counters.
    fn replay(
        cache: &Arc<HistoryCache<bool>>,
        kind: AdtKind,
        threads: u32,
        window_target: usize,
        h: &History,
        stuck: bool,
    ) -> ShardCounters {
        let mut shard = Shard::new(Some(kind), threads, &ShardConfig { window_target })
            .with_verdict_cache(Arc::clone(cache));
        feed(&mut shard, h);
        shard.end(stuck);
        shard.counters.clone()
    }

    #[test]
    fn window_key_separates_kind_threads_carried_state_and_stuck_flag() {
        let cache = Arc::new(HistoryCache::new(2));
        // The same two events under every header: an insert-shaped call
        // whose name no kind knows, so each window is one (failing) check.
        let mut h = History::new(1);
        let op = h.push_call(0, Invocation::with_int("Put", 1));
        h.push_return(op, Value::Unit);
        let first = replay(&cache, AdtKind::Queue, 1, 8, &h, false);
        assert_eq!((first.checks, first.verdict_cache_hits), (1, 0));
        for (kind, threads) in [(AdtKind::Stack, 1), (AdtKind::Queue, 2)] {
            let c = replay(&cache, kind, threads, 8, &h, false);
            assert_eq!(
                (c.checks, c.verdict_cache_hits),
                (1, 0),
                "{kind} x{threads}"
            );
        }
        // Carried state: the second window of this stream has the same
        // events as its first, over a queue that now holds one element.
        let twice = serial_history(&[("Enqueue", 1, Value::Unit), ("Enqueue", 1, Value::Unit)]);
        let c = replay(&cache, AdtKind::Queue, 1, 1, &twice, false);
        assert_eq!(
            (c.windows_closed, c.checks, c.verdict_cache_hits),
            (2, 2, 0)
        );
        // Stuck flag: one pending call, ended stuck vs ended complete.
        let mut tail = History::new(1);
        let op = tail.push_call(0, Invocation::with_int("Enqueue", 2));
        let stuck = replay(&cache, AdtKind::Queue, 1, 8, &tail, true);
        assert_eq!((stuck.stuck_checks, stuck.verdict_cache_hits), (1, 0));
        tail.push_return(op, Value::Unit);
        let complete = replay(&cache, AdtKind::Queue, 1, 8, &tail, false);
        assert_eq!((complete.checks, complete.verdict_cache_hits), (1, 0));
        // Every replay above hits on an exact repeat.
        assert_eq!(replay(&cache, AdtKind::Queue, 1, 8, &h, false).checks, 0);
        assert_eq!(
            replay(&cache, AdtKind::Queue, 1, 1, &twice, false).checks,
            0
        );
        let mut tail = History::new(1);
        tail.push_call(0, Invocation::with_int("Enqueue", 2));
        let again = replay(&cache, AdtKind::Queue, 1, 8, &tail, true);
        assert_eq!((again.checks, again.verdict_cache_hits), (0, 1));
    }

    #[test]
    fn held_window_key_keeps_growing_and_hits_on_replay() {
        // Duplicate values hold the window open past three quiescent
        // points; the one check at the end covers all four operations.
        let cache = Arc::new(HistoryCache::new(1));
        let held = serial_history(&[
            ("Push", 5, Value::Unit),
            ("Push", 5, Value::Unit),
            ("TryPop", 0, Value::some(Value::int(5))),
            ("Push", 5, Value::Unit),
        ]);
        let first = replay(&cache, AdtKind::Stack, 1, 2, &held, false);
        assert!(first.windows_held > 0);
        assert_eq!((first.windows_closed, first.checks), (1, 1));
        let second = replay(&cache, AdtKind::Stack, 1, 2, &held, false);
        assert_eq!(second.windows_held, first.windows_held);
        assert_eq!((second.checks, second.verdict_cache_hits), (0, 1));
        // A stream that agrees up to the first hold and then differs must
        // not ride on the held prefix.
        let other = serial_history(&[
            ("Push", 5, Value::Unit),
            ("Push", 5, Value::Unit),
            ("TryPop", 0, Value::some(Value::int(5))),
            ("Push", 6, Value::Unit),
        ]);
        let third = replay(&cache, AdtKind::Stack, 1, 2, &other, false);
        assert_eq!(third.verdict_cache_hits, 0);
    }

    #[test]
    fn set_end_state_drops_every_removed_key_and_stays_sorted() {
        let mut shard = Shard::new(Some(AdtKind::Set), 1, &ShardConfig { window_target: 6 });
        let mut script: Vec<(&str, i64, Value)> = [9, 3, 7, 1, 5]
            .iter()
            .map(|&k| ("TryAdd", k, Value::Bool(true)))
            .collect();
        script.push(("TryAdd", 3, Value::Bool(false)));
        feed(&mut shard, &serial_history(&script));
        assert_eq!(shard.carried, vec![1, 3, 5, 7, 9]);
        let script = [
            ("TryRemove", 7, Value::some(Value::int(7))),
            ("TryRemove", 1, Value::some(Value::int(1))),
            ("TryAdd", 4, Value::Bool(true)),
            ("TryRemove", 2, Value::Fail),
            ("TryAdd", 7, Value::Bool(true)),
            ("TryRemove", 7, Value::some(Value::int(7))),
        ];
        feed(&mut shard, &serial_history(&script));
        assert_eq!(shard.carried, vec![3, 4, 5, 9]);
        shard.end(false);
        assert!(!shard.violated());
    }

    /// A set shard carrying `carried`, its open window holding `script`
    /// (never closed: the window target is out of reach).
    fn set_window(carried: Vec<i64>, script: &[(&str, Vec<Value>, Value)]) -> Shard {
        let mut shard = Shard::new(
            Some(AdtKind::Set),
            1,
            &ShardConfig {
                window_target: usize::MAX,
            },
        );
        shard.carried = carried;
        for (name, args, response) in script {
            shard.call(0, name, args.clone()).unwrap();
            shard.ret(0, response.clone()).unwrap();
        }
        shard
    }

    #[test]
    fn set_window_starts_from_the_carried_keys_it_touches() {
        let carried = vec![1, 3, 5, 7, 9];
        let keyed = [
            ("ContainsKey", vec![Value::Int(3)], Value::Bool(true)),
            ("TryAdd", vec![Value::Int(4)], Value::Bool(true)),
            ("TryRemove", vec![Value::Int(9)], Value::some(Value::int(9))),
            ("TryAdd", vec![Value::Int(3)], Value::Bool(false)),
        ];
        let shard = set_window(carried.clone(), &keyed);
        assert_eq!(shard.window_start_state(AdtKind::Set), vec![3, 9]);
        // `Count` reads every key, and an op off the keyed alphabet has
        // no key to project on: both keep the whole carried state.
        let offkey = [
            ("Count", vec![], Value::int(5)),
            (
                "ContainsKey",
                vec![Value::Int(1), Value::Int(2)],
                Value::Bool(true),
            ),
            ("ContainsKey", vec![Value::Bool(true)], Value::Bool(false)),
            ("Clear", vec![Value::Int(1)], Value::Unit),
        ];
        for op in offkey {
            let mut script = keyed.to_vec();
            script.push(op.clone());
            let shard = set_window(carried.clone(), &script);
            assert_eq!(shard.window_start_state(AdtKind::Set), carried, "{op:?}");
        }
        // The start state is sized by the window, not the carried set.
        let shard = set_window(
            (0..2_000).map(|k| 2 * k).collect(),
            &[
                (
                    "TryRemove",
                    vec![Value::Int(1_000)],
                    Value::some(Value::int(1_000)),
                ),
                ("ContainsKey", vec![Value::Int(3)], Value::Bool(false)),
                ("ContainsKey", vec![Value::Int(2)], Value::Bool(true)),
                ("TryAdd", vec![Value::Int(3_998)], Value::Bool(false)),
                ("ContainsKey", vec![Value::Int(2)], Value::Bool(true)),
            ],
        );
        assert_eq!(
            shard.window_start_state(AdtKind::Set),
            vec![2, 1_000, 3_998]
        );
    }

    #[test]
    fn carried_state_matches_a_full_replay() {
        // Windowed ingest with tiny windows must agree with one offline
        // check of the whole stream, kind by kind.
        for kind in AdtKind::ALL {
            let (ins, rem) = match kind {
                AdtKind::Queue => ("Enqueue", "TryDequeue"),
                AdtKind::Stack => ("Push", "TryPop"),
                AdtKind::Set => ("TryAdd", "TryRemove"),
                AdtKind::PriorityQueue => ("Insert", "ExtractMin"),
            };
            let step = lineup_monitor::ideal_step(kind);
            let mut state: Vec<i64> = Vec::new();
            let mut h = History::new(1);
            let mut x: i64 = 0;
            for round in 0..40 {
                // Mixed inserts and removes, all values fresh.
                let inv = if round % 3 == 2 {
                    if kind == AdtKind::Set {
                        // Set removes are keyed; target the latest key.
                        Invocation::with_int(rem, x)
                    } else {
                        Invocation::new(rem)
                    }
                } else {
                    x += 1;
                    Invocation::with_int(ins, x)
                };
                match step(&state, &inv) {
                    lineup_monitor::StepResult::Returns(v, next) => {
                        let id = h.push_call(0, inv);
                        h.push_return(id, v);
                        state = next;
                    }
                    other => panic!("ideal step failed: {other:?}"),
                }
            }
            let mut shard = Shard::new(Some(kind), 1, &ShardConfig { window_target: 5 });
            feed(&mut shard, &h);
            shard.end(false);
            assert!(!shard.violated(), "{kind}: windowed ingest rejected");
            assert!(shard.counters.windows_closed >= 3, "{kind}: no GC");
            let offline = Monitor::new(ideal_oracle(kind)).with_adt_kind(kind);
            assert!(offline.check_full(&h, &[]), "{kind}: offline rejected");
        }
    }

    /// The queue/stack end-state rule by definition: rescan the whole
    /// window. The reference for [`SeqTally`].
    fn rescan_end_state(carried: &[i64], h: &History, ins: &str, rem: &str) -> Option<Vec<i64>> {
        let mut inserts: Vec<(usize, i64)> = Vec::new();
        let mut removed: Vec<i64> = Vec::new();
        for (i, op) in h.ops.iter().enumerate() {
            let name = op.invocation.name.as_str();
            if name == ins {
                inserts.push((i, int_arg(op.invocation.args.first())?));
            } else if name == rem {
                match op.response.as_ref()? {
                    Value::Opt(Some(b)) => match **b {
                        Value::Int(v) => removed.push(v),
                        _ => return None,
                    },
                    Value::Fail => {}
                    _ => return None,
                }
            } else {
                return None;
            }
        }
        let mut all: Vec<i64> = carried
            .iter()
            .copied()
            .chain(inserts.iter().map(|&(_, v)| v))
            .collect();
        all.sort_unstable();
        if all.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        let gone: HashSet<i64> = removed.into_iter().collect();
        let mut state: Vec<i64> = carried
            .iter()
            .copied()
            .filter(|v| !gone.contains(v))
            .collect();
        let survivors: Vec<(usize, i64)> = inserts
            .into_iter()
            .filter(|&(_, v)| !gone.contains(&v))
            .collect();
        if survivors.windows(2).any(|w| !h.precedes(w[0].0, w[1].0)) {
            return None;
        }
        state.extend(survivors.into_iter().map(|(_, v)| v));
        Some(state)
    }

    /// One random call of a queue/stack stream: mostly fresh inserts and
    /// removes of live values, plus duplicates, removes of values not
    /// inserted yet, failed removes, unknown ops and malformed
    /// arguments or responses. Returns the invocation and its response.
    fn random_op(
        rng: &mut SmallRng,
        (ins, rem): (&str, &str),
        fresh: &mut i64,
        live: &mut Vec<i64>,
    ) -> (Invocation, Value) {
        let roll = rng.gen_range(0..100);
        match roll {
            0 => (Invocation::new("Peek"), Value::Fail),
            1 => (Invocation::new(ins), Value::Unit),
            2 => (Invocation::new(rem), Value::Unit),
            3 => (Invocation::new(rem), Value::some(Value::Bool(true))),
            4..=7 if !live.is_empty() => {
                let dup = live[rng.gen_range(0..live.len())];
                (Invocation::with_int(ins, dup), Value::Unit)
            }
            8..=13 => {
                // Removed here, inserted by a later call (if ever).
                let ahead = *fresh + rng.gen_range(1..4);
                (Invocation::new(rem), Value::some(Value::int(ahead)))
            }
            14..=19 => (Invocation::new(rem), Value::Fail),
            20..=54 if !live.is_empty() => {
                let v = live.swap_remove(rng.gen_range(0..live.len()));
                (Invocation::new(rem), Value::some(Value::int(v)))
            }
            _ => {
                *fresh += 1;
                live.push(*fresh);
                (Invocation::with_int(ins, *fresh), Value::Unit)
            }
        }
    }

    #[test]
    fn tally_matches_the_rescan_at_every_quiescent_point() {
        let (mut attempts, mut closable, mut closed) = (0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let names = if seed % 2 == 0 {
                ("Enqueue", "TryDequeue")
            } else {
                ("Push", "TryPop")
            };
            let threads = rng.gen_range(1..4usize);
            let mut fresh = 0i64;
            let mut carried: Vec<i64> = (0..rng.gen_range(0..4)).map(|k| 100 + k).collect();
            if seed % 16 == 5 {
                carried.push(100);
            }
            let mut live = carried.clone();
            let mut h = History::new(threads);
            let mut tally = SeqTally::default();
            let mut open: Vec<Option<(usize, Value)>> = vec![None; threads];
            for _ in 0..80 {
                let t = rng.gen_range(0..threads);
                match open[t].take() {
                    Some((op, response)) => h.push_return(op, response),
                    None => {
                        let (inv, response) = random_op(&mut rng, names, &mut fresh, &mut live);
                        open[t] = Some((h.push_call(t, inv), response));
                        continue;
                    }
                }
                if open.iter().any(Option::is_some) {
                    continue;
                }
                attempts += 1;
                tally.fold(&carried, &h, names.0, names.1);
                let expected = rescan_end_state(&carried, &h, names.0, names.1);
                assert_eq!(tally.end_state(&carried), expected, "seed {seed}:\n{h}");
                if let Some(state) = expected {
                    closable += 1;
                    if rng.gen_bool(0.3) {
                        closed += 1;
                        carried = state;
                        h = History::new(threads);
                        tally.clear();
                    }
                }
            }
        }
        // Both outcomes, and closes that carry a state on, are common.
        assert!(closable > attempts / 10, "{closable} of {attempts}");
        assert!(
            attempts - closable > attempts / 10,
            "{closable} of {attempts}"
        );
        assert!(closed > 100, "{closed}");
    }

    #[test]
    fn held_window_folds_each_op_once() {
        let k = 20;
        let mut shard = Shard::new(Some(AdtKind::Queue), 2, &ShardConfig { window_target: 1 });
        // Two overlapping surviving enqueues: their order is not forced,
        // so every quiescent point holds the window.
        shard.call(0, "Enqueue", vec![Value::Int(1)]).unwrap();
        shard.call(1, "Enqueue", vec![Value::Int(2)]).unwrap();
        shard.ret(0, Value::Unit).unwrap();
        shard.ret(1, Value::Unit).unwrap();
        for v in 10..10 + k - 1 {
            shard.call(0, "Enqueue", vec![Value::Int(v)]).unwrap();
            shard.ret(0, Value::Unit).unwrap();
        }
        assert_eq!(shard.counters.windows_held, k as u64);
        assert_eq!(shard.counters.windows_closed, 0);
        assert_eq!(shard.tally.folds, shard.window_ops());
        // Dequeuing 1 leaves survivors 2, 10, 11, ... in forced order.
        shard.call(0, "TryDequeue", vec![]).unwrap();
        shard.ret(0, Value::some(Value::int(1))).unwrap();
        assert_eq!(shard.counters.windows_closed, 1);
        assert_eq!(shard.tally.folds as u64, shard.counters.ops);
        let expected: Vec<i64> = [2].into_iter().chain(10..10 + k - 1).collect();
        assert_eq!(shard.carried, expected);
        shard.end(false);
        assert!(!shard.violated());
    }
}
