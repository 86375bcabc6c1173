//! The ingest engine: demultiplexes decoded records into per-object
//! shards and aggregates service-wide statistics.
//!
//! Sharding is P-compositionality (Horn & Kroening) applied online:
//! linearizability is compositional over objects, so each object's
//! stream is checked independently under its own lock. Connections
//! touching different objects never contend; connections sharing an
//! object serialize on that object's shard only.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lineup::{AdtKind, HistoryCache};
use lineup_wire::Record;

use crate::net::Listener;
use crate::shard::{Shard, ShardConfig, ShardCounters, ShardError};
use crate::stats::StatsSnapshot;

/// Engine-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Per-shard tuning.
    pub shard: ShardConfig,
}

/// Shared ingest state: the object registry plus service totals.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    shards: Mutex<HashMap<u64, Arc<Mutex<Shard>>>>,
    /// Cross-object window-verdict cache shared by every shard: many
    /// objects of one kind replay the same windows, and a verdict for a
    /// (kind, carried state, events, stuck) key is object-independent.
    verdicts: Arc<HistoryCache<bool>>,
    /// Counters folded from ended object generations.
    finished: Mutex<ShardCounters>,
    objects_finished: AtomicU64,
    connections: AtomicU64,
    protocol_errors: AtomicU64,
    shutdown: AtomicBool,
    /// Listeners blocked in `accept`, woken once on shutdown.
    wakes: Mutex<Vec<Listener>>,
    started: Instant,
}

impl Engine {
    /// A fresh engine.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            shards: Mutex::new(HashMap::new()),
            verdicts: Arc::new(HistoryCache::new(HistoryCache::<bool>::DEFAULT_SHARDS)),
            finished: Mutex::new(ShardCounters::default()),
            objects_finished: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            wakes: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    /// Registers (or re-registers) `object`, starting a fresh history
    /// under the id. An id that is still live first ends its previous
    /// generation, as `ObjectEnd { stuck: false }` would, so the open
    /// window is checked before the old counters fold into the totals.
    pub fn register(&self, object: u64, kind: Option<AdtKind>, threads: u32) -> Arc<Mutex<Shard>> {
        let shard = Arc::new(Mutex::new(
            Shard::new(kind, threads, &self.config.shard)
                .with_verdict_cache(Arc::clone(&self.verdicts)),
        ));
        let previous = self
            .shards
            .lock()
            .unwrap()
            .insert(object, Arc::clone(&shard));
        if let Some(previous) = previous {
            let mut previous = previous.lock().unwrap();
            previous.end(false);
            self.fold(&previous);
        }
        shard
    }

    /// The live shard for `object`, if registered.
    pub fn shard(&self, object: u64) -> Option<Arc<Mutex<Shard>>> {
        self.shards.lock().unwrap().get(&object).cloned()
    }

    /// Ends `object` and folds its counters into the totals.
    pub fn end_object(&self, object: u64, stuck: bool) -> bool {
        let shard = self.shards.lock().unwrap().remove(&object);
        match shard {
            Some(shard) => {
                let mut shard = shard.lock().unwrap();
                shard.end(stuck);
                self.fold(&shard);
                true
            }
            None => false,
        }
    }

    fn fold(&self, shard: &Shard) {
        self.finished.lock().unwrap().absorb(&shard.counters);
        self.objects_finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies one decoded record. `cache` carries the caller's
    /// last-object shard so repeated events on one object skip the
    /// registry lock — the common case for per-object streams.
    pub fn apply(&self, record: Record<'_>, cache: &mut Option<(u64, Arc<Mutex<Shard>>)>) {
        match record {
            Record::Hello { .. } => {
                // A handshake is only valid as the first frame; the
                // connection layer consumed that one already.
                self.note_protocol_error();
            }
            Record::ObjectRegister {
                object,
                kind,
                threads,
            } => {
                let shard = self.register(object, kind, threads);
                *cache = Some((object, shard));
            }
            Record::Call {
                object,
                thread,
                name,
                args,
                ..
            } => match self.cached_shard(object, cache) {
                Some(shard) => {
                    self.note_shard_result(shard.lock().unwrap().call(thread, name, args));
                }
                None => self.note_protocol_error(),
            },
            Record::Return {
                object,
                thread,
                value,
                ..
            } => match self.cached_shard(object, cache) {
                Some(shard) => {
                    self.note_shard_result(shard.lock().unwrap().ret(thread, value));
                }
                None => self.note_protocol_error(),
            },
            Record::ObjectEnd { object, stuck } => {
                if let Some((cached, _)) = cache {
                    if *cached == object {
                        *cache = None;
                    }
                }
                if !self.end_object(object, stuck) {
                    self.note_protocol_error();
                }
            }
            Record::Shutdown => self.request_shutdown(),
        }
    }

    /// The shard for `object`, borrowed from the caller's demux slot
    /// (refilled from the registry when it holds another object), so the
    /// common same-object record touches no reference count.
    fn cached_shard<'a>(
        &self,
        object: u64,
        cache: &'a mut Option<(u64, Arc<Mutex<Shard>>)>,
    ) -> Option<&'a Mutex<Shard>> {
        if !matches!(cache, Some((cached, _)) if *cached == object) {
            *cache = Some((object, self.shard(object)?));
        }
        cache.as_ref().map(|(_, shard)| &**shard)
    }

    fn note_shard_result(&self, result: Result<(), ShardError>) {
        if result.is_err() {
            self.note_protocol_error();
        }
    }

    /// Counts a malformed record or event (producer bug).
    pub fn note_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted connection.
    pub fn note_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Asks the service to stop accepting and drain: sets the flag, then
    /// wakes every listener registered so far. A listener registered
    /// later sees the flag before its first `accept`.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Pushes and takes leave the list whole: a poisoned lock is safe.
        let wakes = std::mem::take(&mut *self.wakes.lock().unwrap_or_else(|e| e.into_inner()));
        for listener in &wakes {
            listener.wake();
        }
    }

    /// Registers a listener for [`request_shutdown`](Self::request_shutdown)
    /// to wake.
    pub(crate) fn add_wake(&self, listener: Listener) {
        self.wakes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(listener);
    }

    /// Whether shutdown was requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Aggregates totals plus every live shard into one snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut totals = self.finished.lock().unwrap().clone();
        let live: Vec<Arc<Mutex<Shard>>> = self.shards.lock().unwrap().values().cloned().collect();
        let objects_live = live.len();
        let mut live_violations = 0u64;
        let mut buffered_ops = 0usize;
        for shard in &live {
            let shard = shard.lock().unwrap();
            totals.absorb(&shard.counters);
            buffered_ops += shard.window_ops();
            if shard.violated() {
                live_violations += 1;
            }
        }
        StatsSnapshot {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            connections: self.connections.load(Ordering::Relaxed),
            objects_live,
            objects_finished: self.objects_finished.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            buffered_ops,
            live_violations,
            counters: totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineup::Value;

    #[test]
    fn registering_a_live_id_again_checks_its_open_window() {
        let engine = Engine::new(EngineConfig::default());
        let mut cache = None;
        let register = Record::ObjectRegister {
            object: 1,
            kind: Some(AdtKind::Queue),
            threads: 1,
        };
        engine.apply(register.clone(), &mut cache);
        // Dequeuing a value never enqueued, in a window far below the
        // close target: only ending the generation checks it.
        for (name, args, value) in [
            ("Enqueue", vec![Value::int(1)], Value::Unit),
            ("TryDequeue", vec![], Value::some(Value::int(2))),
        ] {
            let (object, thread, ts) = (1, 0, 0);
            engine.apply(
                Record::Call {
                    object,
                    thread,
                    ts,
                    name,
                    args,
                },
                &mut cache,
            );
            engine.apply(
                Record::Return {
                    object,
                    thread,
                    ts,
                    value,
                },
                &mut cache,
            );
        }
        engine.apply(register, &mut cache);
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.objects_finished, 1);
        assert_eq!(snapshot.objects_live, 1);
        assert_eq!(snapshot.counters.checks, 1);
        assert_eq!(snapshot.counters.violations, 1);
        assert_eq!(snapshot.protocol_errors, 0);
    }
}
