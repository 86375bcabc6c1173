//! Histories: the formal objects of the paper's §2.1 and §2.3.
//!
//! An execution is a finite sequence of call and return events; a *stuck*
//! history additionally ends with the symbol `#`, meaning none of its
//! pending operations can complete (deadlock, livelock, divergence).

use crate::adt::AdtKind;
use crate::target::Invocation;
use crate::value::Value;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Index of an operation within a [`History`].
pub type OpIndex = usize;

/// One event of a history: a call or a return, referring to an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Invocation of the operation with the given index.
    Call(OpIndex),
    /// Response of the operation with the given index.
    Return(OpIndex),
}

/// One operation of a history: an invocation and, if complete, the next
/// matching response (paper §2.1.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Operation {
    /// The thread performing the operation.
    pub thread: usize,
    /// The invocation (name and arguments).
    pub invocation: Invocation,
    /// The response value; `None` while pending.
    pub response: Option<Value>,
    /// Position of the call event in the event sequence.
    pub call_pos: usize,
    /// Position of the matching return event, if complete.
    pub return_pos: Option<usize>,
}

impl Operation {
    /// Whether the operation completed (has a response).
    pub fn is_complete(&self) -> bool {
        self.response.is_some()
    }
}

/// A (well-formed, single-object) history: a sequence of call/return
/// events, possibly stuck.
///
/// The paper's `H|t` (thread subhistory), `<H` (precedence order),
/// `complete(H)` and pending-call notions are all methods here.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct History {
    /// Number of threads of the test that produced this history.
    pub thread_count: usize,
    /// The operations, in call order.
    pub ops: Vec<Operation>,
    /// The event sequence.
    pub events: Vec<Event>,
    /// True when the history is stuck (ends with `#`): at least one
    /// pending operation that can never complete (paper §2.3).
    pub stuck: bool,
}

impl History {
    /// Builds a history incrementally; used by the harness recorder.
    pub fn new(thread_count: usize) -> Self {
        History {
            thread_count,
            ..History::default()
        }
    }

    /// Appends a call event, returning the new operation's index.
    pub fn push_call(&mut self, thread: usize, invocation: Invocation) -> OpIndex {
        let idx = self.ops.len();
        self.ops.push(Operation {
            thread,
            invocation,
            response: None,
            call_pos: self.events.len(),
            return_pos: None,
        });
        self.events.push(Event::Call(idx));
        idx
    }

    /// Appends the matching return event for `op`.
    ///
    /// # Panics
    ///
    /// Panics if the operation already returned.
    pub fn push_return(&mut self, op: OpIndex, response: Value) {
        assert!(self.ops[op].response.is_none(), "operation returned twice");
        self.ops[op].return_pos = Some(self.events.len());
        self.ops[op].response = Some(response);
        self.events.push(Event::Return(op));
    }

    /// Whether the history is complete: no pending calls (paper §2.1.1).
    pub fn is_complete(&self) -> bool {
        self.ops.iter().all(Operation::is_complete)
    }

    /// Indexes of the pending operations.
    pub fn pending_ops(&self) -> Vec<OpIndex> {
        (0..self.ops.len())
            .filter(|&i| !self.ops[i].is_complete())
            .collect()
    }

    /// Indexes of the complete operations.
    pub fn complete_ops(&self) -> Vec<OpIndex> {
        (0..self.ops.len())
            .filter(|&i| self.ops[i].is_complete())
            .collect()
    }

    /// The precedence order `<H` (paper §2.1.3): `e1 <H e2` iff the
    /// response of `e1` precedes the invocation of `e2` in the history.
    pub fn precedes(&self, e1: OpIndex, e2: OpIndex) -> bool {
        match self.ops[e1].return_pos {
            Some(r) => r < self.ops[e2].call_pos,
            None => false,
        }
    }

    /// Whether two operations overlap (neither precedes the other).
    pub fn overlapping(&self, e1: OpIndex, e2: OpIndex) -> bool {
        !self.precedes(e1, e2) && !self.precedes(e2, e1)
    }

    /// The thread subhistory `H|t`: this thread's operations in call order
    /// (which, by well-formedness, is also return order).
    pub fn thread_ops(&self, thread: usize) -> Vec<OpIndex> {
        (0..self.ops.len())
            .filter(|&i| self.ops[i].thread == thread)
            .collect()
    }

    /// Whether the history is serial: calls and returns alternate, each
    /// return matching the immediately preceding call (paper §2.1.1). A
    /// stuck serial history may end with one unmatched call.
    pub fn is_serial(&self) -> bool {
        let mut open: Option<OpIndex> = None;
        for ev in &self.events {
            match *ev {
                Event::Call(i) => {
                    if open.is_some() {
                        return false;
                    }
                    open = Some(i);
                }
                Event::Return(i) => {
                    if open != Some(i) {
                        return false;
                    }
                    open = None;
                }
            }
        }
        // A trailing open call is allowed only in stuck histories.
        open.is_none() || self.stuck
    }

    /// Whether the history is well-formed: per-thread subhistories are
    /// serial (paper §2.1.1).
    pub fn is_well_formed(&self) -> bool {
        (0..self.thread_count).all(|t| {
            let mut open = false;
            for ev in &self.events {
                let op = match *ev {
                    Event::Call(i) => i,
                    Event::Return(i) => i,
                };
                if self.ops[op].thread != t {
                    continue;
                }
                match *ev {
                    Event::Call(_) => {
                        if open {
                            return false;
                        }
                        open = true;
                    }
                    Event::Return(_) => {
                        if !open {
                            return false;
                        }
                        open = false;
                    }
                }
            }
            true
        })
    }

    /// Returns a copy of the history with the given operations removed,
    /// together with the index mapping (old op index → new op index).
    ///
    /// Used by the spurious-failure extension: an operation declared "may
    /// fail on interference" whose failed response overlaps another
    /// operation is deleted before witness search, implementing
    /// linearizability with respect to the specification closed under
    /// such spurious failures (the paper's future-work item on
    /// nondeterministic methods).
    pub fn without_ops(
        &self,
        remove: &std::collections::BTreeSet<OpIndex>,
    ) -> (History, Vec<Option<OpIndex>>) {
        let mut out = History::new(self.thread_count);
        out.stuck = self.stuck;
        let mut map: Vec<Option<OpIndex>> = vec![None; self.ops.len()];
        for ev in &self.events {
            match *ev {
                Event::Call(i) => {
                    if !remove.contains(&i) {
                        let new = out.push_call(self.ops[i].thread, self.ops[i].invocation.clone());
                        map[i] = Some(new);
                    }
                }
                Event::Return(i) => {
                    if let Some(new) = map[i] {
                        out.push_return(
                            new,
                            self.ops[i]
                                .response
                                .clone()
                                .expect("return event implies a response"),
                        );
                    }
                }
            }
        }
        (out, map)
    }

    /// Renders the interleaving in the paper's Fig. 7 notation: `i[` for
    /// the call and `]i` for the return of operation `i`, with operations
    /// numbered 1-based in thread-major order (thread A's operations
    /// first), a trailing `#` for stuck histories.
    pub fn interleaving_string(&self) -> String {
        let numbers = self.fig7_numbers();
        let mut out = String::new();
        for ev in &self.events {
            if !out.is_empty() {
                out.push(' ');
            }
            match *ev {
                Event::Call(i) => out.push_str(&format!("{}[", numbers[i])),
                Event::Return(i) => out.push_str(&format!("]{}", numbers[i])),
            }
        }
        if self.stuck {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push('#');
        }
        out
    }

    /// Operation numbers in the paper's Fig. 7 convention: 1-based,
    /// thread-major (all of thread 0's operations, then thread 1's, …).
    pub fn fig7_numbers(&self) -> Vec<usize> {
        let mut numbers = vec![0usize; self.ops.len()];
        let mut next = 1;
        for t in 0..self.thread_count {
            for i in self.thread_ops(t) {
                numbers[i] = next;
                next += 1;
            }
        }
        numbers
    }

    /// The thread label used in reports: A, B, C, … (paper Fig. 2).
    pub fn thread_label(thread: usize) -> String {
        let mut n = thread;
        let mut label = String::new();
        loop {
            label.insert(0, (b'A' + (n % 26) as u8) as char);
            if n < 26 {
                break;
            }
            n = n / 26 - 1;
        }
        label
    }
}

/// An exact, compact stand-in for a [`History`] as a verdict-cache key:
/// the history's events in a self-delimiting byte encoding, plus the
/// 64-bit hash of those bytes under the sealing cache's hash key.
///
/// # Encoding
///
/// ```text
/// key     := header event* STUCK?
/// header  := HISTORY uint(threads)
///          | WINDOW kind:u8 uint(threads) uint(n) int{n}      -- carried state
/// event   := CALL uint(thread) str(name) uint(argc) value{argc}
///          | RET  uint(op) value
/// value   := UNIT | FALSE | TRUE | FAIL | NONE
///          | INT int | STR str | SEQ uint(n) value{n} | SOME value
/// str(s)  := uint(len) bytes
/// uint    := LEB128          int := LEB128 of the zigzag fold
/// ```
///
/// Every production starts with a tag byte that fixes how the following
/// bytes parse, and every variable-length part carries its length, so a
/// key decodes in exactly one way: two keys are byte-equal iff they were
/// written from the same header, the same events in the same order and
/// the same stuck flag. Equality is that byte comparison — the cached
/// verdicts are exactly the ones a [`History`]-valued key would give.
///
/// The hash is only meaningful to the cache whose
/// [`writer`](HistoryCache::writer) sealed the key; keys sealed for
/// different caches still compare equal when their bytes do.
#[derive(Debug, Clone)]
pub struct HistoryKey {
    bytes: Vec<u8>,
    /// Identity of the hash key `hash` was computed under.
    seed: u64,
    hash: u64,
}

impl HistoryKey {
    /// The key of `h` as it stands (no symmetry renaming), sealed under a
    /// throwaway hash key: for comparing keys, not for probing a cache.
    pub fn of(h: &History) -> Self {
        KeyWriter::new().history(h)
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl PartialEq for HistoryKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for HistoryKey {}

impl Hash for HistoryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Passes a [`HistoryKey`]'s stored hash through to the map unchanged: the
/// bytes were hashed once, with a keyed hasher, when the key was sealed.
#[derive(Debug, Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("HistoryKey hashes as one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One cache's hash key: the standard library's randomly keyed SipHash,
/// so keys that arrive over the wire cannot be crafted to collide.
#[derive(Debug, Clone)]
struct KeySeed {
    state: RandomState,
    id: u64,
}

impl KeySeed {
    fn fresh() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        KeySeed {
            state: RandomState::new(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

const HEADER_HISTORY: u8 = 0;
const HEADER_WINDOW: u8 = 1;
const EVENT_CALL: u8 = 0;
const EVENT_RET: u8 = 1;
const EVENT_STUCK: u8 = 2;
const VALUE_UNIT: u8 = 0;
const VALUE_FALSE: u8 = 1;
const VALUE_TRUE: u8 = 2;
const VALUE_INT: u8 = 3;
const VALUE_STR: u8 = 4;
const VALUE_FAIL: u8 = 5;
const VALUE_SEQ: u8 = 6;
const VALUE_NONE: u8 = 7;
const VALUE_SOME: u8 = 8;

/// Writes a [`HistoryKey`] event by event, so a consumer that sees events
/// one at a time (the monitoring server's shards) never materializes a
/// second history to key its cache: `begin*`, then `call`/`ret` as events
/// arrive, then [`seal`](KeyWriter::seal).
#[derive(Debug)]
pub struct KeyWriter {
    buf: Vec<u8>,
    seed: KeySeed,
}

impl Default for KeyWriter {
    fn default() -> Self {
        KeyWriter::new()
    }
}

impl KeyWriter {
    /// A writer with a hash key of its own; its keys compare with any
    /// other key, but only a cache's own [`writer`](HistoryCache::writer)
    /// seals keys that cache accepts.
    pub fn new() -> Self {
        KeyWriter {
            buf: Vec::new(),
            seed: KeySeed::fresh(),
        }
    }

    /// Starts the key of a plain history over `threads` threads.
    fn begin(&mut self, threads: usize) {
        self.buf.clear();
        self.buf.push(HEADER_HISTORY);
        self.uint(threads as u64);
    }

    /// Starts the key of a monitoring window: a window's verdict depends
    /// on the ADT kind and the carried state the oracle starts from as
    /// much as on its events.
    pub fn begin_window(&mut self, kind: AdtKind, threads: usize, carried: &[i64]) {
        self.buf.clear();
        self.buf.push(HEADER_WINDOW);
        self.buf.push(kind as u8);
        self.uint(threads as u64);
        self.uint(carried.len() as u64);
        for &v in carried {
            self.int(v);
        }
    }

    /// Appends a call event; the operation's index is its call's rank.
    pub fn call(&mut self, thread: usize, name: &str, args: &[Value]) {
        self.call_with(thread, name, args, &|_| None);
    }

    /// Appends the return event of operation `op`.
    pub fn ret(&mut self, op: OpIndex, response: &Value) {
        self.ret_with(op, response, &|_| None);
    }

    /// Finishes the key — marking it stuck if asked — and hashes it. The
    /// writer is left empty; give the key back through
    /// [`recycle`](KeyWriter::recycle) once it is no longer needed and the
    /// next key reuses its buffer.
    pub fn seal(&mut self, stuck: bool) -> HistoryKey {
        if stuck {
            self.buf.push(EVENT_STUCK);
        }
        let bytes = std::mem::take(&mut self.buf);
        let mut hasher = self.seed.state.build_hasher();
        hasher.write(&bytes);
        HistoryKey {
            bytes,
            seed: self.seed.id,
            hash: hasher.finish(),
        }
    }

    /// Takes back the buffer of a key that was not moved into a cache.
    pub fn recycle(&mut self, key: HistoryKey) {
        if self.buf.is_empty() && self.buf.capacity() < key.bytes.capacity() {
            self.buf = key.bytes;
            self.buf.clear();
        }
    }

    /// The key of a whole history as it stands.
    pub fn history(&mut self, h: &History) -> HistoryKey {
        self.history_with(h, |t| t, |_| None)
    }

    /// The key of `h` with every thread index sent through `thread` and
    /// every value `rename` knows replaced (containers are searched
    /// element-wise, like [`SymmetryGroups::canonicalize`]'s rewrite):
    /// the key of the renamed history, without building it.
    ///
    /// [`SymmetryGroups::canonicalize`]: crate::SymmetryGroups::canonicalize
    pub(crate) fn history_with<'v>(
        &mut self,
        h: &History,
        thread: impl Fn(usize) -> usize,
        rename: impl Fn(&Value) -> Option<&'v Value>,
    ) -> HistoryKey {
        self.begin(h.thread_count);
        for ev in &h.events {
            match *ev {
                Event::Call(i) => {
                    let op = &h.ops[i];
                    let inv = &op.invocation;
                    self.call_with(thread(op.thread), &inv.name, &inv.args, &rename);
                }
                Event::Return(i) => {
                    let response = h.ops[i].response.as_ref().expect("returned op");
                    self.ret_with(i, response, &rename);
                }
            }
        }
        self.seal(h.stuck)
    }

    fn call_with<'v>(
        &mut self,
        thread: usize,
        name: &str,
        args: &[Value],
        rename: &impl Fn(&Value) -> Option<&'v Value>,
    ) {
        self.buf.push(EVENT_CALL);
        self.uint(thread as u64);
        self.str(name);
        self.uint(args.len() as u64);
        for arg in args {
            self.value(arg, rename);
        }
    }

    fn ret_with<'v>(
        &mut self,
        op: OpIndex,
        response: &Value,
        rename: &impl Fn(&Value) -> Option<&'v Value>,
    ) {
        self.buf.push(EVENT_RET);
        self.uint(op as u64);
        self.value(response, rename);
    }

    fn value<'v>(&mut self, v: &Value, rename: &impl Fn(&Value) -> Option<&'v Value>) {
        let v = rename(v).unwrap_or(v);
        match v {
            Value::Unit => self.buf.push(VALUE_UNIT),
            Value::Bool(false) => self.buf.push(VALUE_FALSE),
            Value::Bool(true) => self.buf.push(VALUE_TRUE),
            Value::Int(n) => {
                self.buf.push(VALUE_INT);
                self.int(*n);
            }
            Value::Str(s) => {
                self.buf.push(VALUE_STR);
                self.str(s);
            }
            Value::Fail => self.buf.push(VALUE_FAIL),
            Value::Seq(items) => {
                self.buf.push(VALUE_SEQ);
                self.uint(items.len() as u64);
                for item in items {
                    self.value(item, rename);
                }
            }
            Value::Opt(None) => self.buf.push(VALUE_NONE),
            Value::Opt(Some(inner)) => {
                self.buf.push(VALUE_SOME);
                self.value(inner, rename);
            }
        }
    }

    fn str(&mut self, s: &str) {
        self.uint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn uint(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.buf.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.buf.push(n as u8);
    }

    fn int(&mut self, n: i64) {
        self.uint(((n << 1) ^ (n >> 63)) as u64);
    }
}

/// A sharded verdict cache keyed by [`HistoryKey`]: the one
/// duplicate-history cache shared by phase-2 checking (`check`) and the
/// monitoring server's shards.
///
/// Checker-side callers key it on the *canonical* form of each history
/// ([`SymmetryGroups::key`](crate::SymmetryGroups::key)), so a cached
/// verdict covers the history's whole symmetry class: phase 2 computes one
/// monitor verdict per class instead of one per renaming. With empty
/// symmetry groups the renaming is the identity and the cache degenerates
/// to a raw duplicate-history cache.
///
/// A key's bytes are hashed once, when the cache's
/// [`writer`](HistoryCache::writer) seals it, under this cache's own
/// random hash key; that one hash picks the shard (from its upper half)
/// and the bucket within the shard's map (from its lower half, through a
/// pass-through hasher). Sharded so parallel workers rarely contend on one
/// mutex; single-threaded consumers simply use one shard. Hits are
/// counted across all shards for the `phase2_cache_hits` statistics: a
/// lookup that found an entry, or an insert that found one already there
/// (another consumer computed the same key after this one missed), so
/// every key probed counts once as a hit or once as a winning insert,
/// whatever the interleaving.
#[derive(Debug)]
pub struct HistoryCache<V> {
    shards: Vec<Mutex<HashMap<HistoryKey, V, BuildHasherDefault<StoredHash>>>>,
    seed: KeySeed,
    hits: AtomicU64,
}

impl<V: Clone> HistoryCache<V> {
    /// Shard count used by parallel consumers: comfortably more than the
    /// worker counts in play, so two workers rarely map to one mutex.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a cache with the given number of shards (at least 1).
    pub fn new(shards: usize) -> Self {
        HistoryCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
            seed: KeySeed::fresh(),
            hits: AtomicU64::new(0),
        }
    }

    /// A writer whose sealed keys this cache accepts.
    pub fn writer(&self) -> KeyWriter {
        KeyWriter {
            buf: Vec::new(),
            seed: self.seed.clone(),
        }
    }

    /// The shard holding `key`. The map inside takes its bucket from the
    /// hash's low bits and its 7-bit control tag from the top; the shard
    /// index comes from the bits in between, so the keys of one shard
    /// still spread over all of its buckets.
    fn shard(
        &self,
        key: &HistoryKey,
    ) -> &Mutex<HashMap<HistoryKey, V, BuildHasherDefault<StoredHash>>> {
        assert_eq!(
            key.seed, self.seed.id,
            "key was not sealed by this cache's writer"
        );
        &self.shards[(key.hash >> 32) as usize % self.shards.len()]
    }

    /// Looks up a verdict by key, counting a hit when one is found.
    pub fn get_key(&self, key: &HistoryKey) -> Option<V> {
        let found = self
            .shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Inserts a verdict unless another consumer beat us to it; returns
    /// the verdict now in the cache and whether this call inserted it.
    /// The first-wins discipline keeps concurrent workers agreeing on one
    /// verdict per class even if they raced to compute it; the loser
    /// counts a hit. The key — the one just probed with
    /// [`get_key`](HistoryCache::get_key) — moves in.
    pub fn insert_key_if_absent(&self, mut key: HistoryKey, verdict: V) -> (V, bool) {
        key.bytes.shrink_to_fit();
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        match shard.entry(key) {
            Entry::Occupied(existing) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (existing.get().clone(), false)
            }
            Entry::Vacant(slot) => {
                slot.insert(verdict.clone());
                (verdict, true)
            }
        }
    }

    /// [`get_key`](HistoryCache::get_key) on the key of `history` as it
    /// stands.
    pub fn get(&self, history: &History) -> Option<V> {
        self.get_key(&self.writer().history(history))
    }

    /// [`insert_key_if_absent`](HistoryCache::insert_key_if_absent) on
    /// the key of `history` as it stands.
    pub fn insert_if_absent(&self, history: &History, verdict: V) -> (V, bool) {
        self.insert_key_if_absent(self.writer().history(history), verdict)
    }

    /// Total lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct keys cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ev in &self.events {
            match *ev {
                Event::Call(i) => {
                    let op = &self.ops[i];
                    writeln!(
                        f,
                        "(call  {} {})",
                        op.invocation,
                        History::thread_label(op.thread)
                    )?;
                }
                Event::Return(i) => {
                    let op = &self.ops[i];
                    writeln!(
                        f,
                        "(ret   {} = {} {})",
                        op.invocation,
                        op.response.as_ref().expect("returned op has response"),
                        History::thread_label(op.thread)
                    )?;
                }
            }
        }
        if self.stuck {
            writeln!(f, "#")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Invocation;

    fn inv(name: &str) -> Invocation {
        Invocation::new(name)
    }

    /// Builds the Fig. 2 history of the paper:
    /// (c set(0) A)(c get B)(c ok A)(c inc A)(c ok(0) B)(c get B)(c ok A)(c ok(1) B)
    fn fig2_history() -> History {
        let mut h = History::new(2);
        let set0 = h.push_call(0, Invocation::with_int("set", 0));
        let get1 = h.push_call(1, inv("get"));
        h.push_return(set0, Value::Unit);
        let inc = h.push_call(0, inv("inc"));
        h.push_return(get1, Value::Int(0));
        let get2 = h.push_call(1, inv("get"));
        h.push_return(inc, Value::Unit);
        h.push_return(get2, Value::Int(1));
        h
    }

    #[test]
    fn fig2_is_well_formed_and_complete() {
        let h = fig2_history();
        assert!(h.is_well_formed());
        assert!(h.is_complete());
        assert!(!h.is_serial());
        assert_eq!(h.pending_ops(), Vec::<usize>::new());
        assert_eq!(h.complete_ops().len(), 4);
    }

    #[test]
    fn fig2_thread_subhistories() {
        let h = fig2_history();
        assert_eq!(h.thread_ops(0).len(), 2); // set(0), inc
        assert_eq!(h.thread_ops(1).len(), 2); // get, get
    }

    #[test]
    fn precedence_order() {
        let h = fig2_history();
        // set(0) returns before inc is called.
        assert!(h.precedes(0, 2));
        // set(0) overlaps the first get (call of get precedes return of set).
        assert!(h.overlapping(0, 1));
        // first get overlaps inc.
        assert!(h.overlapping(1, 2));
        // irreflexive
        assert!(!h.precedes(0, 0));
    }

    #[test]
    fn serial_history_recognized() {
        let mut h = History::new(2);
        let a = h.push_call(0, inv("inc"));
        h.push_return(a, Value::Unit);
        let b = h.push_call(1, inv("get"));
        h.push_return(b, Value::Int(1));
        assert!(h.is_serial());
        assert!(h.is_well_formed());
    }

    #[test]
    fn stuck_serial_history_allows_trailing_call() {
        let mut h = History::new(1);
        let a = h.push_call(0, inv("inc"));
        h.push_return(a, Value::Unit);
        h.push_call(0, inv("dec"));
        h.stuck = true;
        assert!(h.is_serial());
        assert!(!h.is_complete());
        assert_eq!(h.pending_ops(), vec![1]);
    }

    #[test]
    fn incomplete_nonstuck_is_not_serial() {
        let mut h = History::new(1);
        h.push_call(0, inv("inc"));
        assert!(!h.is_serial());
    }

    #[test]
    fn interleaving_string_fig7() {
        // Thread A: op1; thread B: op2. A calls, B calls, A returns, B returns.
        let mut h = History::new(2);
        let a = h.push_call(0, Invocation::with_int("Add", 200));
        let b = h.push_call(1, inv("TryTake"));
        h.push_return(a, Value::Unit);
        h.push_return(b, Value::Fail);
        assert_eq!(h.interleaving_string(), "1[ 2[ ]1 ]2");
    }

    #[test]
    fn interleaving_string_stuck() {
        let mut h = History::new(1);
        h.push_call(0, inv("Take"));
        h.stuck = true;
        assert_eq!(h.interleaving_string(), "1[ #");
    }

    #[test]
    fn fig7_numbers_are_thread_major() {
        // Thread B's op called first, but numbering is thread-major.
        let mut h = History::new(2);
        let b = h.push_call(1, inv("x"));
        h.push_return(b, Value::Unit);
        let a = h.push_call(0, inv("y"));
        h.push_return(a, Value::Unit);
        let numbers = h.fig7_numbers();
        assert_eq!(numbers[b], 2);
        assert_eq!(numbers[a], 1);
    }

    #[test]
    fn thread_labels() {
        assert_eq!(History::thread_label(0), "A");
        assert_eq!(History::thread_label(1), "B");
        assert_eq!(History::thread_label(25), "Z");
        assert_eq!(History::thread_label(26), "AA");
    }

    #[test]
    #[should_panic(expected = "returned twice")]
    fn double_return_panics() {
        let mut h = History::new(1);
        let a = h.push_call(0, inv("x"));
        h.push_return(a, Value::Unit);
        h.push_return(a, Value::Unit);
    }

    #[test]
    fn without_ops_removes_and_remaps() {
        // H: a (complete), b (complete), c (pending); drop b.
        let mut h = History::new(3);
        let a = h.push_call(0, inv("a"));
        let b = h.push_call(1, inv("b"));
        h.push_return(a, Value::Int(1));
        h.push_return(b, Value::Int(2));
        let _c = h.push_call(2, inv("c"));
        h.stuck = true;

        let mut remove = std::collections::BTreeSet::new();
        remove.insert(b);
        let (reduced, map) = h.without_ops(&remove);
        assert_eq!(reduced.ops.len(), 2);
        assert!(reduced.stuck);
        assert_eq!(map[a], Some(0));
        assert_eq!(map[b], None);
        assert_eq!(map[2], Some(1));
        assert!(reduced.is_well_formed());
        assert_eq!(reduced.ops[0].invocation.name, "a");
        assert_eq!(reduced.ops[1].invocation.name, "c");
        assert!(!reduced.ops[1].is_complete());
    }

    #[test]
    fn without_ops_preserves_event_order() {
        // Overlap: a calls, b calls, a returns, b returns; drop a.
        let mut h = History::new(2);
        let a = h.push_call(0, inv("a"));
        let b = h.push_call(1, inv("b"));
        h.push_return(a, Value::Unit);
        h.push_return(b, Value::Unit);
        let mut remove = std::collections::BTreeSet::new();
        remove.insert(a);
        let (reduced, _) = h.without_ops(&remove);
        assert_eq!(reduced.events.len(), 2);
        assert!(reduced.is_serial());
    }

    #[test]
    fn without_empty_set_is_identity() {
        let h = fig2_history();
        let (same, map) = h.without_ops(&std::collections::BTreeSet::new());
        assert_eq!(same, h);
        assert!(map.iter().enumerate().all(|(i, m)| *m == Some(i)));
    }

    #[test]
    fn history_cache_counts_hits_and_first_insert_wins() {
        let cache: HistoryCache<bool> = HistoryCache::new(4);
        let mut h = History::new(1);
        let a = h.push_call(0, inv("x"));
        h.push_return(a, Value::Unit);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&h), None);
        assert_eq!(cache.hits(), 0, "a miss is not a hit");
        let (v, inserted) = cache.insert_if_absent(&h, true);
        assert!(v && inserted);
        let (v, inserted) = cache.insert_if_absent(&h, false);
        assert!(v, "first verdict wins");
        assert!(!inserted);
        assert_eq!(cache.hits(), 1, "a losing insert is a hit");
        assert_eq!(cache.get(&h), Some(true));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn history_cache_distinguishes_histories() {
        let cache: HistoryCache<u32> = HistoryCache::new(1);
        let mut h1 = History::new(1);
        let a = h1.push_call(0, inv("x"));
        h1.push_return(a, Value::Int(1));
        let mut h2 = History::new(1);
        let a = h2.push_call(0, inv("x"));
        h2.push_return(a, Value::Int(2));
        cache.insert_if_absent(&h1, 10);
        cache.insert_if_absent(&h2, 20);
        assert_eq!(cache.get(&h1), Some(10));
        assert_eq!(cache.get(&h2), Some(20));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn history_key_separates_neighbouring_histories() {
        // One complete operation per entry; every pair must key apart.
        let variants: Vec<(Invocation, Option<Value>)> = vec![
            (inv("ab"), Some(Value::Unit)),
            (inv("ab"), None),
            (inv("a"), Some(Value::Unit)),
            (inv("ab"), Some(Value::Fail)),
            (inv("ab"), Some(Value::Opt(None))),
            (inv("ab"), Some(Value::Seq(vec![]))),
            (inv("ab"), Some(Value::Str(String::new()))),
            (inv("ab"), Some(Value::Int(1))),
            (inv("ab"), Some(Value::Int(-1))),
            (inv("ab"), Some(Value::some(Value::Int(1)))),
            (inv("ab"), Some(Value::int_seq([1]))),
            (Invocation::with_int("ab", 1), Some(Value::Unit)),
            (
                Invocation {
                    name: "ab".into(),
                    args: vec![Value::Int(1), Value::Int(2)],
                },
                Some(Value::Unit),
            ),
            (
                Invocation {
                    name: "ab".into(),
                    args: vec![Value::int_seq([1, 2])],
                },
                Some(Value::Unit),
            ),
            (
                Invocation {
                    name: "a".into(),
                    args: vec![Value::Str("b".into())],
                },
                Some(Value::Unit),
            ),
        ];
        let mut histories = Vec::new();
        for (invocation, response) in variants {
            for (threads, stuck) in [(1, false), (1, true), (2, false)] {
                let mut h = History::new(threads);
                let op = h.push_call(0, invocation.clone());
                if let Some(v) = &response {
                    h.push_return(op, v.clone());
                }
                h.stuck = stuck;
                histories.push(h);
            }
        }
        for (i, a) in histories.iter().enumerate() {
            for (j, b) in histories.iter().enumerate() {
                assert_eq!(
                    HistoryKey::of(a) == HistoryKey::of(b),
                    i == j,
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn history_key_records_which_operation_returned() {
        // Two overlapping calls with equal responses: only the order of
        // the returns tells the histories apart.
        let build = |first: usize| {
            let mut h = History::new(2);
            let ops = [h.push_call(0, inv("x")), h.push_call(1, inv("x"))];
            h.push_return(ops[first], Value::Unit);
            h.push_return(ops[1 - first], Value::Unit);
            h
        };
        assert_ne!(build(0), build(1));
        assert_ne!(HistoryKey::of(&build(0)), HistoryKey::of(&build(1)));
    }

    #[test]
    fn recycled_buffer_does_not_leak_into_the_next_key() {
        let cache: HistoryCache<bool> = HistoryCache::new(1);
        let mut keys = cache.writer();
        let long = keys.history(&fig2_history());
        keys.recycle(long);
        let mut h = History::new(1);
        h.push_call(0, inv("x"));
        assert_eq!(keys.history(&h), HistoryKey::of(&h));
    }

    #[test]
    #[should_panic(expected = "not sealed by this cache's writer")]
    fn cache_rejects_a_key_hashed_for_another_cache() {
        let cache: HistoryCache<bool> = HistoryCache::new(1);
        cache.get_key(&HistoryKey::of(&fig2_history()));
    }

    #[test]
    fn display_renders_events() {
        let h = fig2_history();
        let s = h.to_string();
        assert!(s.contains("(call  set(0) A)"));
        assert!(s.contains("(ret   get() = 1 B)"));
    }
}
