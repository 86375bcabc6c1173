//! Happens-before data race detection over an access log.
//!
//! Same algorithm family as "the happens-before based dynamic race
//! detector included with CHESS" (§5.6): vector clocks per thread,
//! synchronization objects (locks, monitors, atomics, volatiles) transfer
//! clocks, and two *plain data* accesses to the same object race when they
//! are unordered and at least one writes.

use std::collections::HashMap;

use lineup_sched::{AccessEvent, AccessKind, ObjId, ThreadId};

// The vector clock lives in the scheduler crate (re-exported so existing
// `lineup_checkers::race::VectorClock` users keep compiling).
pub use lineup_sched::VectorClock;

/// A detected data race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The object raced on.
    pub obj: ObjId,
    /// The earlier access.
    pub first: AccessEvent,
    /// The later, unordered access.
    pub second: AccessEvent,
}

#[derive(Debug, Default)]
struct DataState {
    /// Epoch of the last write: (thread, clock, event).
    last_write: Option<(usize, u64, AccessEvent)>,
    /// Per-thread epoch of the last read since the last write.
    reads: HashMap<usize, (u64, AccessEvent)>,
}

/// Detects data races in one execution's access log.
///
/// Synchronizing accesses (atomics, volatiles, lock operations) never race
/// and create happens-before edges: every sync access to an object joins
/// the thread's clock with the object's clock in both directions, which
/// models acquire/release on the same object (all such accesses are
/// totally ordered by the scheduler).
///
/// Returns every racing *pair* (deduplicated per object/access pair).
///
/// # Example
///
/// ```
/// use lineup_checkers::detect_races;
/// // An empty log trivially has no races.
/// assert!(detect_races(&[]).is_empty());
/// ```
pub fn detect_races(log: &[AccessEvent]) -> Vec<RaceReport> {
    let mut thread_clocks: HashMap<usize, VectorClock> = HashMap::new();
    let mut sync_clocks: HashMap<ObjId, VectorClock> = HashMap::new();
    let mut data: HashMap<ObjId, DataState> = HashMap::new();
    let mut races = Vec::new();

    for ev in log {
        let t = ev.thread.index();
        let clock = thread_clocks.entry(t).or_default();
        clock.tick(t);

        if ev.kind.is_sync() {
            // Acquire: learn the object's clock; release: publish ours.
            let oc = sync_clocks.entry(ev.obj).or_default();
            let mut merged = oc.clone();
            merged.join(clock);
            *oc = merged.clone();
            *clock = merged;
            continue;
        }
        if !ev.kind.is_data() {
            continue;
        }

        let clock = clock.clone();
        let state = data.entry(ev.obj).or_default();
        match ev.kind {
            AccessKind::ReadData => {
                if let Some((wt, wc, wev)) = &state.last_write {
                    if *wt != t && !clock.covers(*wt, *wc) {
                        races.push(RaceReport {
                            obj: ev.obj,
                            first: *wev,
                            second: *ev,
                        });
                    }
                }
                state.reads.insert(t, (clock.get(t), *ev));
            }
            AccessKind::WriteData => {
                if let Some((wt, wc, wev)) = &state.last_write {
                    if *wt != t && !clock.covers(*wt, *wc) {
                        races.push(RaceReport {
                            obj: ev.obj,
                            first: *wev,
                            second: *ev,
                        });
                    }
                }
                for (rt, (rc, rev)) in &state.reads {
                    if *rt != t && !clock.covers(*rt, *rc) {
                        races.push(RaceReport {
                            obj: ev.obj,
                            first: *rev,
                            second: *ev,
                        });
                    }
                }
                state.reads.clear();
                state.last_write = Some((t, clock.get(t), *ev));
            }
            _ => unreachable!("filtered above"),
        }
    }
    races
}

/// Convenience: the distinct objects involved in the given races.
pub fn racy_objects(races: &[RaceReport]) -> Vec<ObjId> {
    let mut objs: Vec<ObjId> = races.iter().map(|r| r.obj).collect();
    objs.sort();
    objs.dedup();
    objs
}

/// Builds a log event for tests and tools.
pub fn event(step: usize, thread: usize, obj: u32, kind: AccessKind, op: usize) -> AccessEvent {
    AccessEvent {
        step,
        thread: ThreadId(thread),
        obj: ObjId(obj),
        kind,
        op_index: op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessKind::*;

    #[test]
    fn unsynchronized_write_write_races() {
        let log = vec![event(0, 0, 1, WriteData, 0), event(1, 1, 1, WriteData, 0)];
        let races = detect_races(&log);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].obj, ObjId(1));
    }

    #[test]
    fn unsynchronized_read_write_races() {
        let log = vec![event(0, 0, 1, ReadData, 0), event(1, 1, 1, WriteData, 0)];
        assert_eq!(detect_races(&log).len(), 1);
    }

    #[test]
    fn write_read_races() {
        let log = vec![event(0, 0, 1, WriteData, 0), event(1, 1, 1, ReadData, 0)];
        assert_eq!(detect_races(&log).len(), 1);
    }

    #[test]
    fn reads_do_not_race() {
        let log = vec![event(0, 0, 1, ReadData, 0), event(1, 1, 1, ReadData, 0)];
        assert!(detect_races(&log).is_empty());
    }

    #[test]
    fn same_thread_never_races() {
        let log = vec![
            event(0, 0, 1, WriteData, 0),
            event(1, 0, 1, WriteData, 1),
            event(2, 0, 1, ReadData, 2),
        ];
        assert!(detect_races(&log).is_empty());
    }

    /// Lock-protected accesses are ordered through the lock's clock.
    #[test]
    fn lock_discipline_prevents_races() {
        let log = vec![
            event(0, 0, 9, LockAcquire, 0),
            event(1, 0, 1, WriteData, 0),
            event(2, 0, 9, LockRelease, 0),
            event(3, 1, 9, LockAcquire, 0),
            event(4, 1, 1, WriteData, 0),
            event(5, 1, 9, LockRelease, 0),
        ];
        assert!(detect_races(&log).is_empty());
    }

    /// Synchronizing through a *different* lock does not help.
    #[test]
    fn wrong_lock_still_races() {
        let log = vec![
            event(0, 0, 8, LockAcquire, 0),
            event(1, 0, 1, WriteData, 0),
            event(2, 0, 8, LockRelease, 0),
            event(3, 1, 9, LockAcquire, 0),
            event(4, 1, 1, WriteData, 0),
            event(5, 1, 9, LockRelease, 0),
        ];
        assert_eq!(detect_races(&log).len(), 1);
    }

    /// Volatile/atomic accesses synchronize: the benign pattern the paper
    /// saw everywhere ("a disciplined use of volatile qualifiers and
    /// interlocked operations").
    #[test]
    fn volatile_flag_publication_is_race_free() {
        let log = vec![
            event(0, 0, 1, WriteData, 0),   // init data
            event(1, 0, 2, AtomicStore, 0), // publish flag
            event(2, 1, 2, AtomicLoad, 0),  // consume flag
            event(3, 1, 1, ReadData, 0),    // read data
        ];
        assert!(detect_races(&log).is_empty());
    }

    /// Atomic accesses themselves never race.
    #[test]
    fn atomics_never_race() {
        let log = vec![
            event(0, 0, 2, AtomicStore, 0),
            event(1, 1, 2, AtomicRmw { success: true }, 0),
            event(2, 0, 2, AtomicLoad, 1),
        ];
        assert!(detect_races(&log).is_empty());
    }

    #[test]
    fn racy_objects_deduplicates() {
        let log = vec![
            event(0, 0, 1, WriteData, 0),
            event(1, 1, 1, WriteData, 0),
            event(2, 0, 1, WriteData, 1),
        ];
        let races = detect_races(&log);
        assert!(races.len() >= 2);
        assert_eq!(racy_objects(&races), vec![ObjId(1)]);
    }
}
