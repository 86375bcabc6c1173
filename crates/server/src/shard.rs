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
//!   closable at quiescence.
//! * **Priority queue** — the state is a multiset, so it is simply
//!   `carried ⊎ inserts − extracted`, order-free. Always closable.
//!
//! A quiescent point that fails the rule (duplicate values in flight,
//! concurrent surviving inserts) is *held*: the window keeps growing
//! until a closable point or the end of the object. Held windows are
//! counted so the pressure is observable in the stats.

use std::collections::{BTreeMap, HashSet};
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
        let next_state = self.window_end_state(kind);
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

    fn window_monitor(
        &self,
        kind: AdtKind,
    ) -> Monitor<lineup_monitor::FnOracle<Vec<i64>, lineup_monitor::IdealStep>> {
        Monitor::new(ideal_oracle_from(kind, self.carried.clone()))
            .with_adt_kind(kind)
            .with_adt_init(state_invocations(kind, &self.carried))
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
    fn window_end_state(&self, kind: AdtKind) -> Option<Vec<i64>> {
        match kind {
            AdtKind::Queue => self.seq_end_state("Enqueue", "TryDequeue"),
            AdtKind::Stack => self.seq_end_state("Push", "TryPop"),
            AdtKind::Set => self.set_end_state(),
            AdtKind::PriorityQueue => self.pqueue_end_state(),
        }
    }

    /// Shared queue/stack path: survivors of the carried state (in
    /// order) followed by surviving inserts in their forced order.
    fn seq_end_state(&self, ins: &str, rem: &str) -> Option<Vec<i64>> {
        let h = &self.history;
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
                // Unknown operation: no state function. The check still
                // runs at object end and rejects it.
                return None;
            }
        }
        // Distinctness across carried state + window inserts: removal
        // identity and survivor sets are then unambiguous.
        let mut all: Vec<i64> = self
            .carried
            .iter()
            .copied()
            .chain(inserts.iter().map(|&(_, v)| v))
            .collect();
        all.sort_unstable();
        if all.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        let gone: HashSet<i64> = removed.into_iter().collect();
        let mut state: Vec<i64> = self
            .carried
            .iter()
            .copied()
            .filter(|v| !gone.contains(v))
            .collect();
        let mut survivors: Vec<(usize, i64)> = inserts
            .into_iter()
            .filter(|&(_, v)| !gone.contains(&v))
            .collect();
        survivors.sort_by_key(|&(i, _)| h.ops[i].call_pos);
        // Interval orders are transitive, so consecutive precedence
        // pins the total order of all survivors.
        for w in survivors.windows(2) {
            if !h.precedes(w[0].0, w[1].0) {
                return None;
            }
        }
        state.extend(survivors.into_iter().map(|(_, v)| v));
        Some(state)
    }

    /// Set path: final presence of a key = initial presence XOR parity
    /// of successful toggles (successful adds/removes of a key must
    /// alternate in any witness).
    fn set_end_state(&self) -> Option<Vec<i64>> {
        let mut toggles: BTreeMap<i64, u64> = BTreeMap::new();
        for op in &self.history.ops {
            match op.invocation.name.as_str() {
                "TryAdd" => {
                    let key = int_arg(op.invocation.args.first())?;
                    match op.response.as_ref()? {
                        Value::Bool(true) => *toggles.entry(key).or_insert(0) += 1,
                        Value::Bool(false) => {}
                        _ => return None,
                    }
                }
                "TryRemove" => {
                    let key = int_arg(op.invocation.args.first())?;
                    match op.response.as_ref()? {
                        Value::Opt(Some(_)) => *toggles.entry(key).or_insert(0) += 1,
                        Value::Fail => {}
                        _ => return None,
                    }
                }
                // Read-only queries never move the state.
                "ContainsKey" | "Count" => {}
                _ => return None,
            }
        }
        let initial: HashSet<i64> = self.carried.iter().copied().collect();
        let mut added: Vec<i64> = Vec::new();
        let mut removed: HashSet<i64> = HashSet::new();
        for (key, flips) in toggles {
            if flips % 2 == 1 {
                if initial.contains(&key) {
                    removed.insert(key);
                } else {
                    added.push(key);
                }
            }
        }
        let mut state: Vec<i64> = self
            .carried
            .iter()
            .copied()
            .filter(|v| !removed.contains(v))
            .chain(added)
            .collect();
        state.sort_unstable();
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

#[cfg(test)]
mod tests {
    use super::*;
    use lineup_monitor::ideal_oracle;

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
}
